"""Sum-family catalog, parameter types, and domain validation.

Each family is a finite sum over j of an oscillating prefix factor
(cos or sin of 2*pi*m*j/d, or pi*m*j/d for the odd-power cosecant
families) times one or two shifted singular factors. The catalog
records, per family, the singular factor kinds, the summation range,
which evaluation paths apply, and the exclusion set of shifts where a
term would sit on a pole. It also holds the family walk, the scope of
the m-free tables the closed form, the residue path and the oracle's
conditioning keep.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ParameterError
from .trig import dist_to_half_odd, dist_to_int

EPS_EXCL = 1e-8


class Family(str, Enum):
    COS_COT = "cos-cot"
    SIN_COT = "sin-cot"
    SIN_CSC_2N = "sin-csc-2n"
    COS_CSC_2N = "cos-csc-2n"
    SIN_CSC_ODD = "sin-csc-odd"
    COS_CSC_ODD = "cos-csc-odd"
    COS_TAN = "cos-tan"
    SIN_TAN = "sin-tan"
    COS_COT_2D = "cos-cot-2d"
    SIN_COT_2D = "sin-cot-2d"
    COS_CSC_COS = "cos-csc-cos"
    COS_CSC_SIN = "cos-csc-sin"
    COS_SEC_COS = "cos-sec-cos"
    COS_SEC_SIN = "cos-sec-sin"
    SIN_CSC_COS = "sin-csc-cos"
    SIN_CSC_SIN = "sin-csc-sin"
    COS_CSC_CSC = "cos-csc-csc"
    COS_CSC_SEC = "cos-csc-sec"
    COS_SEC_SEC = "cos-sec-sec"
    SIN_CSC_CSC = "sin-csc-csc"
    SIN_CSC_SEC = "sin-csc-sec"
    SIN_SEC_SEC = "sin-sec-sec"

    @classmethod
    def from_label(cls, label: str) -> "Family":
        try:
            return cls(label)
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise ParameterError(f"unknown family {label!r}; known: {known}") from None


# a member read as Family.NAME goes through EnumType's __getattr__ hook,
# about 0.2 us on CPython 3.11; validation reads this one on every spec
_SIN_COT = Family.SIN_COT


@dataclass(frozen=True)
class FamilyTraits:
    prefix: str                 # "cos" or "sin" oscillating factor
    kind: str                   # "power", "tangent", "double", "triple"
    shift_kind: str             # singular factor on b: "cot", "csc", "tan", "sec"
    second_kind: str | None     # triple families: factor on b2
    odd_m: bool                 # m restricted to odd values
    shift_period: int           # b-periodicity of the term values (1 or 2)
    oracle_start: int           # first index of the defining sum
    supports_power: bool        # n > 1 admitted
    supports_residue: bool      # covered by the residue engine


def _t(prefix, kind, shift, second=None, odd_m=False, start=None) -> FamilyTraits:
    if start is None:
        start = 0 if prefix == "cos" else 1
    # the half-turn prefix and the product factors repeat only after 2 in b
    period = 2 if odd_m or kind == "triple" else 1
    power = kind == "power"
    # the residue engine takes the power families, and a csc x cos/sin
    # product through its identity onto the first-power cot sum
    residue = power or (shift == "csc" and second in ("cos", "sin"))
    return FamilyTraits(prefix, kind, shift, second, odd_m, period, start, power, residue)


TRAITS: dict[Family, FamilyTraits] = {
    Family.COS_COT: _t("cos", "power", "cot"),
    Family.SIN_COT: _t("sin", "power", "cot"),
    Family.SIN_CSC_2N: _t("sin", "power", "csc"),
    Family.COS_CSC_2N: _t("cos", "power", "csc"),
    Family.SIN_CSC_ODD: _t("sin", "power", "csc", odd_m=True),
    Family.COS_CSC_ODD: _t("cos", "power", "csc", odd_m=True),
    Family.COS_TAN: _t("cos", "tangent", "tan"),
    Family.SIN_TAN: _t("sin", "tangent", "tan"),
    Family.COS_COT_2D: _t("cos", "double", "cot"),
    Family.SIN_COT_2D: _t("sin", "double", "cot"),
    Family.COS_CSC_COS: _t("cos", "triple", "csc", "cos"),
    Family.COS_CSC_SIN: _t("cos", "triple", "csc", "sin"),
    Family.COS_SEC_COS: _t("cos", "triple", "sec", "cos"),
    Family.COS_SEC_SIN: _t("cos", "triple", "sec", "sin"),
    Family.SIN_CSC_COS: _t("sin", "triple", "csc", "cos"),
    Family.SIN_CSC_SIN: _t("sin", "triple", "csc", "sin"),
    Family.COS_CSC_CSC: _t("cos", "triple", "csc", "csc"),
    Family.COS_CSC_SEC: _t("cos", "triple", "csc", "sec"),
    Family.COS_SEC_SEC: _t("cos", "triple", "sec", "sec"),
    Family.SIN_CSC_CSC: _t("sin", "triple", "csc", "csc"),
    Family.SIN_CSC_SEC: _t("sin", "triple", "csc", "sec"),
    Family.SIN_SEC_SEC: _t("sin", "triple", "sec", "sec", start=0),
}

POWER_FAMILIES = tuple(f for f in Family if TRAITS[f].kind == "power")
RESIDUE_FAMILIES = tuple(f for f in Family if TRAITS[f].supports_residue)


@dataclass(frozen=True, slots=True)
class SumSpec:
    """One fully specified sum: family, range d, frequency m, shifts."""
    family: Family
    d: int
    m: int
    b: float
    n: int = 1
    b2: float | None = None
    # the mark validate_params sets on an object it accepts. It is not a
    # parameter, so equality, hashing, repr and dataclasses.replace leave
    # it out, and a replaced copy starts unmarked
    _valid: bool = field(default=False, init=False, compare=False, repr=False)


# not frozen: every path call builds one, and a frozen record takes about
# three times as long to build
@dataclass(slots=True)
class SumValue:
    """An evaluated sum: its real value and the path that produced it.

    Every path computes the real sum in real arithmetic. The oracle adds
    real terms; the closed form above n = 1 and the residue path take one
    branch of the residue, since the other is its exact conjugate, and
    keep 2 Re or 2 Im of it. So no imaginary part is formed to report.
    """
    value: float
    path: str


def reduced_shifts(spec: SumSpec) -> tuple[float, float | None]:
    """b and b2 reduced below the family's shift period in magnitude.

    fmod is exact, so the reduced shifts give the same sum, and products
    such as m*b or d*b are formed from a shift under one period instead
    of losing |b|*1e-16 to rounding. A shift already under one period is
    returned unchanged: near the lattice the closed form and the residue
    path amplify rounding, and moving b by a period there would change
    which way their values round.
    """
    period = TRAITS[spec.family].shift_period
    b2 = None if spec.b2 is None else math.fmod(spec.b2, period)
    return math.fmod(spec.b, period), b2


# The family walk: the run of consecutive calls on one family, which is
# how verify, table and the sweeps order their work. The walk caches (the
# closed form's weights and slices, the residue path's cot/csc power,
# kernels and numerator rows, the oracle's prefix and factor rows and its
# pole distance) keep their tables for one walk and drop them when a call
# enters another family, so a walk that starts on a family other than the
# last one called starts cold: its work does not depend on what ran before
# it. The oracle's sums never enter a walk; the rows they build are keyed
# by family (or need none) and go at the next change of family. A
# process-wide memo would let a run find the tables an earlier run built,
# and its traced counts would not repeat. Concurrent callers on different
# families only cost rebuilds; no value depends on the caches.
_walk: Family | None = None
_WALK_CACHES: list = []

# the bound of every walk cache: verify's order keeps len(offsets) * nmax
# entries in use across one (family, d), and a cache keyed by (kind, pole
# order) alone holds a few pole orders per walk
WALK_CACHE_SIZE = 64


def walk_cache(fn):
    """functools.lru_cache(maxsize=WALK_CACHE_SIZE), dropped when the walk changes family."""
    cached = functools.lru_cache(maxsize=WALK_CACHE_SIZE)(fn)
    _WALK_CACHES.append(cached)
    return cached


def enter_walk(family: Family | None) -> None:
    """Continue the walk on family, or start a new one with every walk cache empty.

    None ends the walk, so the next call on any family starts cold.
    """
    global _walk
    if family is not _walk:
        for cache in _WALK_CACHES:
            cache.cache_clear()
        _walk = family


def pole_order(family: Family, n: int) -> int:
    """Order of the interior pole of the integrand of a power family."""
    traits = TRAITS[family]
    if traits.kind != "power":
        raise ParameterError(f"no pole order for family {family.value}: not a power family")
    if traits.shift_kind == "cot":
        return n
    return 2 * n if not traits.odd_m else 2 * n - 1


def is_classical(spec: SumSpec) -> bool:
    """The one b = 0 case admitted by dispensation (value d - 2m).

    b is taken reduced by its period, so every integer shift is the
    classical point, as it is for the oracle's terms.
    """
    return (spec.family is _SIN_COT and spec.n == 1
            and reduced_shifts(spec)[0] == 0.0)


def frequency_fold(spec: SumSpec) -> tuple[int | None, float]:
    """Exact m <-> d-m reduction for the full-turn-prefix families.

    The prefix cos(2 pi m j/d) is invariant under m -> d-m and the sine
    prefix flips sign, for every integer j and so over the doubled range
    too, while no other factor involves m; at 2m = d every sine prefix
    is sin(pi j) = 0 termwise. Evaluating the multi-index and residue
    paths at min(m, d-m) keeps their internal cancellation bounded.
    Returns (m_to_evaluate, sign), with d, b and n unchanged; a None m
    means the sum is identically zero. Not applicable to the
    half-turn-prefix (odd-m) families, whose prefix does not close under
    the reflection: those keep m.
    """
    traits = TRAITS[spec.family]
    m = spec.m
    if traits.odd_m or 2 * m < spec.d:
        return m, 1.0
    sin_prefix = traits.prefix == "sin"
    if 2 * m == spec.d:
        return (None, 0.0) if sin_prefix else (m, 1.0)
    return spec.d - m, (-1.0 if sin_prefix else 1.0)


def _check_shift(family: Family, kind: str, beta: float, d: int, name: str) -> None:
    if kind in ("cot", "csc"):
        scale = 2 * d if TRAITS[family].kind == "double" else d
        if dist_to_int(beta * scale) <= EPS_EXCL:
            raise ParameterError(
                f"parameter on singular set: {name}*{scale} = {beta * scale!r} is "
                f"within {EPS_EXCL:g} of an integer (excluded for {family.value})"
            )
        return
    # tan/sec shifts: the excluded lattice depends on the parity of d
    if d % 2 == 0:
        if dist_to_int(beta * d) <= EPS_EXCL:
            raise ParameterError(
                f"parameter on singular set: {name}*d = {beta * d!r} is within "
                f"{EPS_EXCL:g} of an integer (excluded for {family.value}, even d)"
            )
    else:
        if 2.0 * dist_to_half_odd(beta * d) <= EPS_EXCL:
            raise ParameterError(
                f"parameter on singular set: 2*{name}*d = {2.0 * beta * d!r} is within "
                f"{EPS_EXCL:g} of an odd integer (excluded for {family.value}, odd d)"
            )


def _check_integer(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


# sets the mark: SumSpec is frozen, so setattr refuses, and the slot's own
# setter is cheaper than object.__setattr__
_mark = SumSpec._valid.__set__


def validate_params(spec: SumSpec) -> SumSpec:
    """Check a spec against its family's domain; return it unchanged.

    Raises ParameterError naming the violated condition: d, m or n not
    an integer, m out of range, m parity, missing or extraneous b2, a
    shift that is not finite, or a shift on the singular set. A family
    given as its label is converted, in a new spec.

    The accepted spec is marked, and a marked spec is returned at once:
    SumSpec is frozen, so it stays valid for its whole life. The grid
    validates each spec as it builds it, so every path that later takes
    it, on any pass, only reads the mark. A spec made by
    dataclasses.replace starts unmarked and is checked again.
    """
    if spec._valid:
        return spec
    return _check_params(spec)


def _check_params(spec: SumSpec) -> SumSpec:
    """validate_params of an unmarked spec; marks the spec it returns."""
    if not isinstance(spec.family, Family):
        spec = replace(spec, family=Family.from_label(str(spec.family)))
    # a plain int passes without the three calls
    if type(spec.d) is not int or type(spec.m) is not int or type(spec.n) is not int:
        _check_integer("d", spec.d)
        _check_integer("m", spec.m)
        _check_integer("n", spec.n)
    traits = TRAITS[spec.family]
    if spec.n < 1:
        raise ParameterError(f"n must be a positive integer, got {spec.n}")
    if not traits.supports_power and spec.n != 1:
        raise ParameterError(f"n is fixed at 1 for family {spec.family.value}, got {spec.n}")
    if not 0 < spec.m < spec.d:
        raise ParameterError(f"m out of range: need 0 < m < d, got m={spec.m}, d={spec.d}")
    if traits.odd_m and spec.m % 2 == 0:
        raise ParameterError(f"m must be odd for family {spec.family.value}, got {spec.m}")
    if traits.kind == "triple":
        if spec.b2 is None:
            raise ParameterError(f"b2 required for family {spec.family.value}")
        if not math.isfinite(spec.b2):
            raise ParameterError(f"b2 must be finite, got {spec.b2!r}")
    elif spec.b2 is not None:
        raise ParameterError(f"b2 not accepted for family {spec.family.value}")
    if not math.isfinite(spec.b):
        raise ParameterError(f"b must be finite, got {spec.b!r}")
    if is_classical(spec):
        _mark(spec, True)
        return spec
    # the singular sets are tested on the reduced shifts: a product such as
    # b*d formed from b = 1e9 + x rounds to within 1e-8 of an integer for
    # most x. A shift moves by whole periods, so no distance below changes.
    # This is reduced_shifts, inline: validation runs on every spec built
    period = traits.shift_period
    b = math.fmod(spec.b, period)
    b2 = None if spec.b2 is None else math.fmod(spec.b2, period)
    _check_shift(spec.family, traits.shift_kind, b, spec.d, "b")
    if traits.kind == "triple":
        assert b2 is not None
        if traits.second_kind in ("csc", "sec"):
            _check_shift(spec.family, traits.second_kind, b2, spec.d, "b2")
        pair = (traits.shift_kind, traits.second_kind)
        # cross-factor degeneracies of the two-term closed forms
        if pair in (("csc", "csc"), ("sec", "sec")):
            if dist_to_int(b - b2) <= EPS_EXCL:
                raise ParameterError(
                    "parameter on singular set: b and b2 congruent mod 1 "
                    f"(b - b2 = {b - b2!r}, excluded for {spec.family.value})"
                )
        elif pair == ("csc", "sec"):
            if dist_to_int(b - b2 - 0.5) <= EPS_EXCL:
                raise ParameterError(
                    "parameter on singular set: b - b2 congruent to 1/2 mod 1 "
                    f"(b - b2 = {b - b2!r}, excluded for {spec.family.value})"
                )
    _mark(spec, True)
    return spec
