"""Brute-force direct summation: the ground-truth evaluation path.

Every family is summed term by term, straight off its definition:
prefix factor times one or two singular factors, over the defining
index range.
Three numerical precautions make this path a usable arbiter:

* compensated (error-tracked) accumulation, since cosec-power terms can
  span many orders of magnitude;
* integer folding of the prefix arguments (2*m*j/d stays an exact
  integer ratio until the final division), which makes reflections and
  the identically-zero sine cases exact;
* the shift b is reduced by its period (IEEE remainder, which is exact)
  before j/d is added, so equal-by-periodicity specs produce identical
  term arguments.

The singular factors go through the pole-guarded trig helpers and raise
"singular term" if any argument sits within 1e-12 radians of a pole.

The sums and term_magnitude_sum run the term loop on every call. The
conditioning probe, the distance from the term arguments to the poles,
depends on neither m nor n, so it is kept for the family walk
(families.enter_walk): verify asks for it once per case, and a sweep
over m and n scans the d arguments once per (d, b, b2).
"""

from __future__ import annotations

import math

from .families import (
    TRAITS,
    Family,
    SumSpec,
    SumValue,
    enter_walk,
    pole_order,
    validate_params,
    walk_cache,
)
from .trig import (
    cos_pi,
    cos_pi_ratio,
    cot_pi,
    csc_pi,
    dist_to_half_odd,
    dist_to_int,
    sec_pi,
    sin_pi,
    sin_pi_ratio,
    tan_pi,
)

_SECOND_FACTOR = {"cos": cos_pi, "sin": sin_pi, "csc": csc_pi, "sec": sec_pi}

# pole distances kept warm; verify's order keeps len(offsets) of them in
# use across one (family, d)
DISTANCE_CACHE_SIZE = 64


def _reduced_shift(beta: float, period: int) -> float:
    # IEEE remainder is exact, so b and b + period reduce to the same float
    return math.remainder(beta, float(period))


def _index_range(family: Family, d: int) -> range:
    traits = TRAITS[family]
    start = traits.oracle_start
    stop = 2 * d if traits.kind == "double" else d
    return range(start, stop)


def _terms(spec: SumSpec):
    traits = TRAITS[spec.family]
    d, m = spec.d, spec.m
    beta = _reduced_shift(spec.b, traits.shift_period)
    prefix_num = m if traits.odd_m else 2 * m
    prefix = cos_pi_ratio if traits.prefix == "cos" else sin_pi_ratio
    if traits.kind == "power":
        power = pole_order(spec.family, spec.n)
        factor = cot_pi if traits.shift_kind == "cot" else csc_pi
        for j in _index_range(spec.family, d):
            yield prefix(prefix_num * j, d) * factor(j / d + beta) ** power
    elif traits.kind == "tangent":
        for j in _index_range(spec.family, d):
            yield prefix(prefix_num * j, d) * tan_pi(j / d + beta)
    elif traits.kind == "double":
        den = 2 * d
        for j in _index_range(spec.family, d):
            yield prefix(prefix_num * j, d) * cot_pi(j / den + beta)
    else:
        assert spec.b2 is not None
        beta2 = _reduced_shift(spec.b2, traits.shift_period)
        first = csc_pi if traits.shift_kind == "csc" else sec_pi
        second = _SECOND_FACTOR[traits.second_kind]
        for j in _index_range(spec.family, d):
            yield prefix(prefix_num * j, d) * first(j / d + beta) * second(j / d + beta2)


def direct_sum(spec: SumSpec) -> SumValue:
    """Sum the defining terms with compensated accumulation."""
    spec = validate_params(spec)
    acc = 0.0
    comp = 0.0
    for term in _terms(spec):
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return SumValue(acc + 0.0, 0.0, "oracle")


def term_magnitude_sum(spec: SumSpec) -> float:
    """Sum of |term| over the defining range; the cancellation yardstick."""
    spec = validate_params(spec)
    return math.fsum(abs(t) for t in _terms(spec))


def conditioning(spec: SumSpec) -> float:
    """Distance, in radians, from the nearest term argument to a pole.

    The minimum runs over every singular factor of every term in the
    defining index range. Small values mean the sum itself is dominated
    by one near-singular term and comparisons must widen accordingly.
    """
    spec = validate_params(spec)
    enter_walk(spec.family)
    return _pole_distance(spec.family, spec.d, spec.b, spec.b2)


@walk_cache(DISTANCE_CACHE_SIZE)
def _pole_distance(family: Family, d: int, b: float, b2: float | None) -> float:
    """conditioning of a valid spec: it depends on neither m nor n."""
    traits = TRAITS[family]
    beta = _reduced_shift(b, traits.shift_period)

    def factor_dist(kind: str, x: float) -> float:
        if kind in ("cot", "csc"):
            return dist_to_int(x)
        return dist_to_half_odd(x)

    best = math.inf
    if traits.kind == "triple":
        assert b2 is not None
        beta2 = _reduced_shift(b2, traits.shift_period)
        for j in _index_range(family, d):
            best = min(best, factor_dist(traits.shift_kind, j / d + beta))
            if traits.second_kind in ("csc", "sec"):
                best = min(best, factor_dist(traits.second_kind, j / d + beta2))
    elif traits.kind == "double":
        den = 2 * d
        for j in _index_range(family, d):
            best = min(best, factor_dist("cot", j / den + beta))
    else:
        for j in _index_range(family, d):
            best = min(best, factor_dist(traits.shift_kind, j / d + beta))
    return math.pi * best
