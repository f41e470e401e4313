"""Scan random integrands for residue-closure violations.

For every family the residue engine covers, all residues of the
integrand its residue is taken from over one period strip must sum to
zero: a power family's own integrand, or for a csc x cos/sin product
the first-power cot integrand at the same (d, m, b), scaled by a
constant. This script samples random parameter points, measures |sum of
residues| relative to the largest boundary residue, and prints the worst
offenders. A healthy build stays below 1e-10 on the default draws, and
the script exits 1 when the worst ratio exceeds that bound. Shifts near
the lattice at n >= 2 can exceed it (ROADMAP defect D2): sin-csc-2n n=2
d=4 m=1 b=0.4983 reads 8.1e-7.
"""

import argparse
import random
import statistics

from trigsum import (
    RESIDUE_FAMILIES,
    TRAITS,
    SumSpec,
    boundary_residues,
    residue_at_interior_pole,
)
from trigsum.errors import ParameterError

HEALTHY_RATIO = 1e-10


def sample_spec(rng: random.Random, dmax: int, nmax: int) -> SumSpec | None:
    family = rng.choice(list(RESIDUE_FAMILIES))
    traits = TRAITS[family]
    d = rng.randint(2, dmax)
    m = rng.randint(1, d - 1)
    if traits.odd_m and m % 2 == 0:
        return None
    if 2 * m == d and traits.prefix == "sin":
        return None  # boundary residues all vanish, nothing to normalize by
    n = 1 if traits.kind == "triple" else rng.randint(1, nmax)
    b2 = rng.uniform(0.05, 0.95) if traits.kind == "triple" else None
    return SumSpec(family, d, m, rng.uniform(0.03, 0.97), n, b2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=500)
    parser.add_argument("--dmax", type=int, default=12)
    parser.add_argument("--nmax", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    results = []
    while len(results) < args.cases:
        spec = sample_spec(rng, args.dmax, args.nmax)
        if spec is None:
            continue
        try:
            bres = boundary_residues(spec)
        except ParameterError:
            continue
        total = residue_at_interior_pole(spec) + sum(bres)
        ratio = abs(total) / max(abs(r) for r in bres)
        results.append((ratio, spec))

    results.sort(key=lambda item: item[0], reverse=True)
    ratios = [r for r, _ in results]
    print(f"{len(results)} draws, dmax={args.dmax}, nmax={args.nmax}, seed={args.seed}")
    print(f"max residual ratio    {ratios[0]:.3e}")
    print(f"median residual ratio {statistics.median(ratios):.3e}")
    print("worst offenders:")
    for ratio, spec in results[:10]:
        b2 = f" b2={spec.b2:.4f}" if spec.b2 is not None else ""
        print(f"  {ratio:.3e}  {spec.family.value} n={spec.n} d={spec.d} "
              f"m={spec.m} b={spec.b:.4f}{b2}")
    return 1 if ratios[0] > HEALTHY_RATIO else 0


if __name__ == "__main__":
    raise SystemExit(main())
