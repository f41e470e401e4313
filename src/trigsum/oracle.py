"""Brute-force direct summation: the ground-truth evaluation path.

Every family is summed term by term, straight off its definition:
prefix factor times one or two singular factors, over the defining
index range. One shape per family (_SHAPE: the factor kinds and the
span of the range, d or 2d) drives the terms and the pole distance
alike; only the power families' pole order is a case of its own.
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

Each term is a prefix row entry times the factor rows' entries, and
both kinds of row are kept for the family walk (families.enter_walk).
A prefix row depends on the prefix, its frequency (m or 2m), d and the
index range; the singular factors, taken at the first power, depend
only on (family, d, b, b2). So a sweep over m and n evaluates the
factors d times per (d, b, b2), and the prefixes at most d times per
(d, m): from d = 9 on a prefix row takes the ratio for j <= d/2 only
and fills the rest by the exact reflection j -> d - j, and the doubled
range repeats the first d entries (_prefix_row).
The sums form prefix * factor ** p, or (prefix * first) * second for
the product families, with the float operations of the plain term
loop in its order, so cold and warm calls give the same bits. The sums
never enter a walk themselves: a row they build is keyed by its family
(or by no family at all, for a prefix row), so it stays correct until
the next change of family drops it. Each cache keeps at most 64 rows
of d or 2d floats, so a walk at large d holds O(64 d) floats per cache.

The conditioning probe, the distance from the term arguments to the
poles, depends on neither m nor n either: verify asks for it once per
case, and a sweep scans the d arguments once per (d, b, b2). It enters
the walk, and where no argument is within 1e-12 radians of a pole, its
scan also builds the factor rows, so in verify's order the sums only
read them.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul

from .errors import NumericError
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
    POLE_TOL,
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

_FACTOR = {"cot": cot_pi, "csc": csc_pi, "tan": tan_pi, "sec": sec_pi, "cos": cos_pi, "sin": sin_pi}
# distance, in half turns, from a singular factor's argument to its poles
_POLE_DIST = {"cot": dist_to_int, "csc": dist_to_int, "tan": dist_to_half_odd,
              "sec": dist_to_half_odd}

# each family's shape: the factor kinds after the prefix, the first on b and
# the second on b2, and the span s of its index range, so that term j takes
# its factors at j / (s d) plus the reduced shift, for oracle_start <= j < s d
_SHAPE = {family: ((t.shift_kind,) if t.second_kind is None else (t.shift_kind, t.second_kind),
                   2 if t.kind == "double" else 1) for family, t in TRAITS.items()}


def _reduced_shift(beta: float, period: int) -> float:
    # IEEE remainder is exact, so b and b + period reduce to the same float
    return math.remainder(beta, float(period))


# the least d whose prefix rows are built by reflection. On a row built cold
# after the closed form's work, the reflection's fixed cost (a second list,
# a slice and an iterator) was 1-2 us, up to 6 us for the first reflected
# row of a walk, while each ratio call it saves was 0.1-0.3 us: at d = 7
# and 8 such rows took longer than the direct loop
_REFLECT_MIN_D = 9


@walk_cache
def _prefix_row(prefix: str, num: int, d: int, start: int, stop: int) -> list[float]:
    """cos or sin(pi num j / d) for j in range(start, stop); callers only read it.

    start is 0 or 1, and stop is d, or 2d for an even num. From
    d = _REFLECT_MIN_D on, the ratio is called for j <= d/2 only, and entry
    d - j is the exact reflection of entry j: num (d - j) = num d - num j,
    num d is 0 or d mod 2d, and the ratio folds its numerator mod 2d. So
    entry d - j is entry j times cos(pi num) for cos, or times -cos(pi num)
    for sin. A zero keeps its sign (a cos zero is always 0.0), except that
    an odd num swaps the sin zeros 0.0 (num j = 0 mod 2d) and -0.0
    (num j = d mod 2d). An even num repeats with period d, which fills the
    doubled range.
    """
    ratio = cos_pi_ratio if prefix == "cos" else sin_pi_ratio
    if d < _REFLECT_MIN_D:
        row = [ratio(num * j, d) for j in range(start, d)]
    else:
        mid = d // 2
        row = [ratio(num * j, d) for j in range(start, mid + 1)]
        # entries d - mid - 1 down to 1, the sources of entries mid + 1 .. d - 1
        sources = reversed(row[1 - start:d - mid - start])
        if (prefix == "cos") == (num % 2 == 1):
            row += [-x or x for x in sources]
        elif prefix == "sin":
            row += [x or -x for x in sources]
        else:
            row += sources
    if stop > d:
        row += ([ratio(0, d)] if start else []) + row
    return row


@walk_cache
def _factor_rows(family: Family, d: int, b: float, b2: float | None) -> tuple[list[float], ...]:
    """Each factor after the prefix, at the first power, over the index range.

    One row per factor: the singular factor on b, and for the product
    families the factor on b2. Neither depends on m or n. Callers only
    read the rows.
    """
    traits = TRAITS[family]
    kinds, span = _SHAPE[family]
    den = span * d
    indices = range(traits.oracle_start, den)
    factors = [(_FACTOR[kind], _reduced_shift(beta, traits.shift_period))
               for kind, beta in zip(kinds, (b, b2))]
    try:
        return tuple([fn(j / den + beta) for j in indices] for fn, beta in factors)
    except NumericError:
        # raise for the first term that fails, taking its factors in order
        for j in indices:
            for fn, beta in factors:
                fn(j / den + beta)
        raise


def _terms(spec: SumSpec):
    """The defining terms of a validated spec, in index order."""
    traits = TRAITS[spec.family]
    terms = _prefix_row(traits.prefix, spec.m if traits.odd_m else 2 * spec.m, spec.d,
                        traits.oracle_start, _SHAPE[spec.family][1] * spec.d)
    rows = _factor_rows(spec.family, spec.d, spec.b, spec.b2)
    if traits.kind == "power":
        rows = (map(pow, rows[0], repeat(pole_order(spec.family, spec.n))),)
    for row in rows:
        terms = map(mul, terms, row)
    return terms


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
    return math.fsum(map(abs, _terms(spec)))


def conditioning(spec: SumSpec) -> float:
    """Distance, in radians, from the nearest term argument to a pole.

    The minimum runs over every singular factor of every term in the
    defining index range. Small values mean the sum itself is dominated
    by one near-singular term and comparisons must widen accordingly.
    """
    spec = validate_params(spec)
    enter_walk(spec.family)
    return _pole_distance(spec.family, spec.d, spec.b, spec.b2)


@walk_cache
def _pole_distance(family: Family, d: int, b: float, b2: float | None) -> float:
    """conditioning of a valid spec: it depends on neither m nor n."""
    traits = TRAITS[family]
    kinds, span = _SHAPE[family]
    den = span * d
    best = math.inf
    for kind, beta in zip(kinds, (b, b2)):
        dist = _POLE_DIST.get(kind)
        if dist is not None:
            beta = _reduced_shift(beta, traits.shift_period)
            best = min(best, min(dist(j / den + beta) for j in range(traits.oracle_start, den)))
    best *= math.pi
    if best > POLE_TOL:
        # no factor raises: the sums will read these rows
        _factor_rows(family, d, b, b2)
    return best
