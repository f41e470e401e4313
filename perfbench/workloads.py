"""Seeded inputs for the three benchmark workloads.

Every input is built from the seed alone, before the pass that times it:

* ``sweep-wide``: the ``trigsum verify`` grid over all 22 families,
  d = 2..24, n <= 2, with the three published offsets per d plus one
  seeded offset shared by every d. One operation is one
  ``cli.evaluate_case`` call with all three paths, in verify's order
  (family, d, m, b-index, n), so every (family, d, b, n) repeats across
  all m exactly as in the real sweep.
* ``sweep-deep``: the power families only, d = 2..8, n = 2..4, the
  published offsets. The composition sum of the closed form dominates,
  and the seed's n = 4 disagreements live here (cos-csc-2n n=4 d=8 m=2
  b=0.137 among them); they are counted, never filtered. The grid does
  not depend on the seed; the seed picks the reference sample.
* ``eval-random``: single queries the way ``trigsum eval`` and library
  users make them (see ``EvalQueries``).

Calls into the package go through module attributes (``cli.grid_cases``,
``families.validate_params``), so a tracer that rebinds those names
sees the calls made during set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import trigsum.cli as cli
import trigsum.coefficients as coefficients
import trigsum.families as families
from trigsum.errors import ParameterError
from trigsum.families import POWER_FAMILIES, TRAITS, Family, SumSpec

WORKLOADS = ("sweep-wide", "sweep-deep", "eval-random")

# b-index of the seeded offset, after the published offsets 0..2
SEEDED_B_INDEX = 3

_FAMILIES = tuple(Family)
_FAMILY_ORDER = {family: i for i, family in enumerate(Family)}


@dataclass(frozen=True)
class Sizes:
    """How much input a run builds and checks."""
    wide_dmax: int
    wide_nmax: int
    deep_dmax: int
    deep_nmax: int
    eval_dmax: int
    eval_nmax: int
    eval_queries: int     # eval-random queries per pass, a multiple of 22 * eval_nmax
    ref_sample: int       # seeded cases checked against the mpmath reference
    ref_failed_max: int   # failed cases additionally checked against the reference
    setup_probes: int     # fresh interpreters timed for setup_s


SIZES = {
    "full": Sizes(
        wide_dmax=24, wide_nmax=2, deep_dmax=8, deep_nmax=4, eval_dmax=200, eval_nmax=4,
        eval_queries=2464, ref_sample=48, ref_failed_max=32, setup_probes=5,
    ),
    # for the benchmark's own tests: about a second per run
    "tiny": Sizes(
        wide_dmax=4, wide_nmax=2, deep_dmax=3, deep_nmax=3, eval_dmax=12, eval_nmax=3,
        eval_queries=66, ref_sample=4, ref_failed_max=4, setup_probes=1,
    ),
}


def sweep_wide(seed: int, sizes: Sizes) -> list[tuple[SumSpec, int]]:
    """verify's grid plus one seeded offset, in verify's sweep order."""
    extra = random.Random(f"sweep-wide:{seed}").random()
    published = cli.grid_cases(_FAMILIES, sizes.wide_dmax, sizes.wide_nmax)
    seeded = cli.grid_cases(_FAMILIES, sizes.wide_dmax, sizes.wide_nmax, (extra,))
    cases = published + [(spec, SEEDED_B_INDEX) for spec, _ in seeded]
    return sorted(cases, key=lambda c: (_FAMILY_ORDER[c[0].family], c[0].d, c[0].m, c[1], c[0].n))


def sweep_deep(sizes: Sizes) -> list[tuple[SumSpec, int]]:
    """verify's grid restricted to the power families at n >= 2."""
    grid = cli.grid_cases(POWER_FAMILIES, sizes.deep_dmax, sizes.deep_nmax)
    return [case for case in grid if case[0].n >= 2]


class EvalQueries:
    """Seeded single queries: query shapes drawn once, a fresh b per pass.

    A shape fixes the family, n, d and m. Families and powers are
    stratified: every family appears equally often, and each power
    family equally often at each n in 1..eval_nmax, in seeded order. So
    both are uniform, yet every seed holds the same number of the
    n = 4 cosecant queries that take most of the time. d is
    uniform in 2..eval_dmax and m a uniform valid frequency. Each pass
    draws, for every shape, b uniform in [0, 1) and b2 = b + a uniform
    draw in [0, 1). No path's cost depends on b, so the passes time the
    same work, yet no two queries share (d, b) and nothing computed for
    one query can serve another. Draws that ``validate_params`` refuses
    are counted as rejected and redrawn.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        rng = random.Random(f"eval-random:{seed}")
        count = len(_FAMILIES)
        slots = [(_FAMILIES[i % count], 1 + (i // count) % sizes.eval_nmax)
                 for i in range(sizes.eval_queries)]
        rng.shuffle(slots)
        self.shapes = [self._shape(rng, sizes, family, n) for family, n in slots]
        self._seen: set[tuple[int, float]] = set()
        self._passes = 0
        self.rejected = 0

    @staticmethod
    def _shape(rng: random.Random, sizes: Sizes, family: Family, n: int) -> tuple:
        traits = TRAITS[family]
        d = rng.randint(2, sizes.eval_dmax)
        # the odd frequencies below d are 1, 3, ..., and there are d // 2 of them
        m = 2 * rng.randrange(d // 2) + 1 if traits.odd_m else rng.randint(1, d - 1)
        return family, d, m, n if traits.supports_power else 1

    def next_pass(self) -> list[SumSpec]:
        """The queries of the next pass, one per shape, in shape order."""
        rng = random.Random(f"eval-random:{self.seed}:pass:{self._passes}")
        self._passes += 1
        out = []
        for family, d, m, n in self.shapes:
            triple = TRAITS[family].kind == "triple"
            while True:
                b = rng.random()
                spec = SumSpec(family, d, m, b, n, b + rng.random() if triple else None)
                if (d, b) in self._seen:
                    continue
                try:
                    families.validate_params(spec)
                except ParameterError:
                    self.rejected += 1
                    continue
                break
            self._seen.add((d, b))
            out.append(spec)
        return out


@dataclass
class Inputs:
    """What set-up hands to the timed loops."""
    workload: str
    cases: list[tuple[SumSpec, int]] | None = None   # the sweeps
    queries: EvalQueries | None = None               # eval-random
    first_pass: list[SumSpec] | None = None          # eval-random, built during set-up


def prepare(workload: str, seed: int, sizes: Sizes) -> Inputs:
    """Build the workload's inputs and the exact tables it needs.

    This is everything ``setup_s`` times after the import: the grid (or
    the first pass of queries) and the cold build of the Bernoulli table
    up to B_{2n+2}, the largest index the residue path asks for at
    power n.
    """
    if workload == "sweep-wide":
        inputs = Inputs(workload, cases=sweep_wide(seed, sizes))
        nmax = sizes.wide_nmax
    elif workload == "sweep-deep":
        inputs = Inputs(workload, cases=sweep_deep(sizes))
        nmax = sizes.deep_nmax
    elif workload == "eval-random":
        queries = EvalQueries(seed, sizes)
        inputs = Inputs(workload, queries=queries, first_pass=queries.next_pass())
        nmax = sizes.eval_nmax
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    coefficients.bernoulli(2 * nmax + 2)
    return inputs
