"""Hash every path's values over the verify grid and seeded draws.

Run as PYTHONPATH=src python3 scripts/value_digest.py [--dmax 24] [--nmax 4]
[--draws 8000] [--seed 0] [--cold]. Prints per public function the count of
values hashed (each repr, or the exception's type and message) and their
sha256, so builds that agree to the bit print the same lines. --cold empties
every walk cache before each value, so the same digests with and without it
show that cold and warm calls agree to the bit. Keep n <= 4: a cold weight
build at n >= 5 takes seconds.
"""

import argparse
import hashlib
import random

from trigsum import (TRAITS, Family, SumSpec, closed_form_value, conditioning, direct_sum,
                     sum_via_residues, term_magnitude_sum)
from trigsum.cli import iter_grid_cases
from trigsum.errors import NumericError, ParameterError
from trigsum.families import enter_walk

FUNCTIONS = (conditioning, term_magnitude_sum, closed_form_value, direct_sum, sum_via_residues)


def draw(rng: random.Random) -> SumSpec:
    """d <= 200, n <= 4; the shift plain, near a lattice point or beyond 1e9."""
    family = rng.choice(list(Family))
    traits = TRAITS[family]
    d = rng.randint(2, 200)
    m = rng.randrange(1, d, 2) if traits.odd_m else rng.randrange(1, d)
    n = rng.randint(1, 4) if traits.supports_power else 1
    near = rng.randrange(-2 * d, 2 * d) / (2 * d) + rng.choice((-1, 1)) * 10 ** rng.uniform(-9, -2)
    b = rng.choice((rng.uniform(-1.0, 1.0), near, 1e9 + rng.uniform(0.0, 1.0)))
    return SumSpec(family, d, m, b, n, rng.uniform(-1.0, 1.0) if traits.kind == "triple" else None)


def digests(specs: list[SumSpec], cold: bool = False) -> dict[str, tuple[int, str]]:
    """{function name: (values hashed, sha256)} over specs, in verify's call order.

    With cold, every walk cache is empty when each value is computed.
    """
    hashes = {fn.__name__: hashlib.sha256() for fn in FUNCTIONS}
    for spec in specs:
        for fn in FUNCTIONS:
            if cold:
                # leaving the walk drops every walk cache, as a call on another family does
                enter_walk(None)
            try:
                text = repr(fn(spec))
            except (ParameterError, NumericError) as exc:
                text = f"{type(exc).__name__}: {exc}"
            hashes[fn.__name__].update(text.encode() + b"\n")
    return {name: (len(specs), h.hexdigest()) for name, h in hashes.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--dmax", 24), ("--nmax", 4), ("--draws", 8000), ("--seed", 0)):
        parser.add_argument(flag, type=int, default=default)
    parser.add_argument("--cold", action="store_true",
                        help="empty every walk cache before each value")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    specs = [spec for spec, _ in iter_grid_cases(tuple(Family), args.dmax, args.nmax)]
    specs += [draw(rng) for _ in range(args.draws)]
    for name, (count, digest) in digests(specs, args.cold).items():
        print(f"{name:20} {count:7} {digest}")


if __name__ == "__main__":
    main()
