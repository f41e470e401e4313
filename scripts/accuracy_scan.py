"""Per-path error histogram against the 40-digit reference sum.

Run as PYTHONPATH=src python3 scripts/accuracy_scan.py [--dmax 24] [--nmax 4]
[--every 13] [--draws 200] [--paths closed,oracle,residue] [--bound 1e-8].
Needs mpmath: without it the script says so and exits 2.

The cases are every k-th case of the verify grid (d <= dmax, n <= nmax,
all 22 families) plus, for each of three adversarial kinds, --draws draws
with d <= dmax from a fixed seed:
  near-lattice  dist(d*b, Z) log-uniform in [1e-4, 0.05];
  half-m        m = d/2 (d/2 odd for the odd-m families);
  close-b2      product families, |b2 - b| log-uniform in [1e-8, 1e-3]
                (|b2 - b + 1/2| for csc*sec, whose singular set is b - b2 = 1/2).
The error of a value is |value - ref| / max(1, |ref|), verify's scale, with
ref from tests/mp_reference.py. For each path, family and n it prints how
many cases fall in each decade of error ("e-14:7" is 7 cases in
[1e-14, 1e-13); "0" counts exact values), then each path's worst case. A
path that raises is counted under "raised"; an inf or nan value is counted
under "nonfinite" and is that path's worst case, above any bound. Exits 1
when a path's worst error exceeds --bound.
"""

import argparse
import math
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

from trigsum import TRAITS, Family, SumSpec, closed_form_value, direct_sum, sum_via_residues
from trigsum.cli import PATH_NAMES, iter_grid_cases
from trigsum.errors import NumericError, ParameterError
from trigsum.families import validate_params
from trigsum.residue_engine import residue_gap

PATH_FUNCTIONS = {"closed": closed_form_value, "oracle": direct_sum, "residue": sum_via_residues}
PRODUCT_FAMILIES = tuple(f for f in Family if TRAITS[f].kind == "triple")
SEED = 0


def _valid_m(rng: random.Random, family: Family, d: int) -> int:
    return rng.randrange(1, d, 2) if TRAITS[family].odd_m else rng.randrange(1, d)


def _n(rng: random.Random, family: Family, nmax: int) -> int:
    return rng.randint(1, nmax) if TRAITS[family].supports_power else 1


def _b2(rng: random.Random, family: Family, b: float) -> float | None:
    return b + rng.uniform(-1.0, 1.0) if TRAITS[family].kind == "triple" else None


def near_lattice(rng: random.Random, dmax: int, nmax: int) -> SumSpec:
    family = rng.choice(list(Family))
    d = rng.randint(2, dmax)
    gap = rng.choice((-1, 1)) * 10 ** rng.uniform(-4, math.log10(0.05))
    b = (rng.randrange(-d, d) + gap) / d
    return SumSpec(family, d, _valid_m(rng, family, d), b, _n(rng, family, nmax),
                   _b2(rng, family, b))


def half_m(rng: random.Random, dmax: int, nmax: int) -> SumSpec:
    family = rng.choice(list(Family))
    half = rng.randint(1, dmax // 2)
    if TRAITS[family].odd_m and half % 2 == 0:
        half -= 1
    b = rng.uniform(-1.0, 1.0)
    return SumSpec(family, 2 * half, half, b, _n(rng, family, nmax), _b2(rng, family, b))


def close_b2(rng: random.Random, dmax: int, nmax: int) -> SumSpec:
    family = rng.choice(PRODUCT_FAMILIES)
    traits = TRAITS[family]
    d = rng.randint(2, dmax)
    b = rng.uniform(-1.0, 1.0)
    half = 0.5 if (traits.shift_kind, traits.second_kind) == ("csc", "sec") else 0.0
    b2 = b - half + rng.choice((-1, 1)) * 10 ** rng.uniform(-8, -3)
    return SumSpec(family, d, _valid_m(rng, family, d), b, 1, b2)


def draws(rng: random.Random, kind, count: int, dmax: int, nmax: int) -> list[SumSpec]:
    """count valid draws of one kind; refused draws are drawn again."""
    out = []
    while len(out) < count:
        try:
            out.append(validate_params(kind(rng, dmax, nmax)))
        except ParameterError:
            pass
    return out


def decade(err: float) -> str:
    return "0" if err == 0.0 else f"e{math.floor(math.log10(err))}"


def scan(specs, paths, reference_sum):
    """({(path, family, n): Counter of decades}, {path: (worst error, spec)})."""
    histogram: dict = defaultdict(Counter)
    worst: dict = {}
    for spec in specs:
        ref = reference_sum(spec)
        for path in paths:
            if path == "residue" and residue_gap(spec) is not None:
                continue
            key = (path, spec.family, spec.n)
            try:
                value = PATH_FUNCTIONS[path](spec).value
            except NumericError:
                histogram[key]["raised"] += 1
                continue
            err = abs(value - ref) / max(1.0, abs(ref))
            if math.isfinite(err):
                histogram[key][decade(err)] += 1
            else:
                histogram[key]["nonfinite"] += 1
                err = math.inf
            if path not in worst or err > worst[path][0]:
                worst[path] = (err, spec)
    return histogram, worst


def _order(label: str):
    if label in ("nonfinite", "raised"):
        return (1, label)
    return (0, -99 if label == "0" else int(label[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--dmax", 24), ("--nmax", 4), ("--every", 13), ("--draws", 200)):
        parser.add_argument(flag, type=int, default=default)
    parser.add_argument("--paths", default=",".join(PATH_NAMES))
    parser.add_argument("--bound", type=float, default=1e-8)
    args = parser.parse_args(argv)
    paths = [p for p in args.paths.split(",") if p]
    if not paths or any(p not in PATH_FUNCTIONS for p in paths):
        parser.error(f"--paths takes a comma list from {','.join(PATH_NAMES)}")
    try:
        import mpmath  # noqa: F401  (the reference sums need it)
    except ImportError:
        print("accuracy_scan: mpmath is not installed, so there is no reference; nothing scanned",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from mp_reference import reference_sum

    rng = random.Random(SEED)
    grid = [spec for spec, _ in iter_grid_cases(tuple(Family), args.dmax, args.nmax)]
    specs = grid[::args.every]
    for kind in (near_lattice, half_m, close_b2):
        specs += draws(rng, kind, args.draws, args.dmax, args.nmax)
    histogram, worst = scan(specs, paths, reference_sum)
    print(f"{len(specs)} cases: 1 in {args.every} of {len(grid)} grid cases, "
          f"{args.draws} draws each near-lattice, half-m and close-b2")
    families = list(Family)
    for path, family, n in sorted(histogram, key=lambda k: (paths.index(k[0]),
                                                           families.index(k[1]), k[2])):
        counts = histogram[path, family, n]
        cells = " ".join(f"{label}:{counts[label]}" for label in sorted(counts, key=_order))
        print(f"{path:8} {family.value:12} n={n}  {sum(counts.values()):5}  {cells}")
    failed = False
    for path in paths:
        if path not in worst:
            print(f"worst {path}: no value compared")
            continue
        err, spec = worst[path]
        above = err > args.bound
        failed |= above
        print(f"worst {path}: {err:.3g} {'above' if above else 'within'} bound {args.bound:g} at "
              f"{spec.family.value} n={spec.n} d={spec.d} m={spec.m} b={spec.b!r} b2={spec.b2!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
