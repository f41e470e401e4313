"""Trigonometric helpers with argument reduction done before the factor of pi.

Arguments are measured in half turns throughout: ``sin_pi(x)`` means
sin(pi*x). Reduction happens on x, where integers are exactly
representable, instead of on pi*x where they are not. Each function
folds its argument into a small interval around zero first, so values
keep full relative accuracy next to zeros and poles, and lattice points
produce exact zeros (``sin_pi(7.0) == 0.0``, not 8.6e-16).

The reciprocal functions guard their poles: an argument closer than
1e-12 radians to a pole raises NumericError rather than returning a
huge, meaningless value.
"""

import math

from .errors import NumericError

# radian distance below which a cot/csc/sec/tan evaluation is refused
POLE_TOL = 1e-12


def sin_pi(x: float) -> float:
    """sin(pi*x), folded so the result is exact at integers."""
    r = math.remainder(x, 2.0)
    s = 1.0
    if r < 0.0:
        r = -r
        s = -1.0
    if r > 0.5:
        r = 1.0 - r
    return s * math.sin(math.pi * r)


def cos_pi(x: float) -> float:
    """cos(pi*x), folded so the result is exact at integers."""
    # cos(pi*u) = sin(pi*(1/2 - |u|)); the subtraction is exact for the
    # magnitudes that matter (|u| >= 1/4) and harmless below that.
    return sin_pi(0.5 - abs(math.remainder(x, 2.0)))


def dist_to_int(x: float) -> float:
    """Distance from x to the nearest integer."""
    return abs(math.remainder(x, 1.0))


def dist_to_half_odd(x: float) -> float:
    """Distance from x to the nearest half-odd-integer (k + 1/2)."""
    return abs(math.remainder(x - 0.5, 1.0))


def dist_to_odd(x: float) -> float:
    """Distance from x to the nearest odd integer."""
    return abs(math.remainder(x - 1.0, 2.0))


def _guard(dist_half_turns: float, name: str, x: float) -> None:
    if math.pi * dist_half_turns <= POLE_TOL:
        raise NumericError(
            f"singular term: {name} argument {x!r} (half turns) is within "
            f"{POLE_TOL:g} radians of a pole"
        )


def cot_pi(x: float) -> float:
    """cot(pi*x); raises NumericError within 1e-12 radians of a pole."""
    _guard(dist_to_int(x), "cot", x)
    return cos_pi(x) / sin_pi(x)


def csc_pi(x: float) -> float:
    """cosec(pi*x); raises NumericError within 1e-12 radians of a pole."""
    _guard(dist_to_int(x), "cosec", x)
    return 1.0 / sin_pi(x)


def tan_pi(x: float) -> float:
    """tan(pi*x); raises NumericError within 1e-12 radians of a pole."""
    _guard(dist_to_half_odd(x), "tan", x)
    return sin_pi(x) / cos_pi(x)


def sec_pi(x: float) -> float:
    """sec(pi*x); raises NumericError within 1e-12 radians of a pole."""
    _guard(dist_to_half_odd(x), "sec", x)
    return 1.0 / cos_pi(x)


def phase(x: float) -> complex:
    """Unit complex number e^{i*pi*x}, built from the folded sin/cos.

    Exact at quarter-turn lattice points, e.g. phase(-0.5) == -1j.
    """
    return complex(cos_pi(x), sin_pi(x))


def sin_pi_ratio(num: int, den: int) -> float:
    """sin(pi*num/den) for integers, folded in exact integer arithmetic.

    Multiples of pi give exact zeros and the fold makes the result
    depend only on num mod 2*den, so reflections like num -> 2*den - num
    negate the value bit-for-bit.
    """
    k = num % (2 * den)
    s = 1.0
    if k >= den:
        k -= den
        s = -1.0
    if 2 * k > den:
        k = den - k
    return s * math.sin(math.pi * k / den)


def cos_pi_ratio(num: int, den: int) -> float:
    """cos(pi*num/den) for integers, folded in exact integer arithmetic.

    Odd multiples of a quarter turn give exact zeros, as in sin_pi_ratio.
    """
    k = num % (2 * den)
    if k > den:
        k = 2 * den - k
    if 2 * k == den:
        return 0.0
    s = 1.0
    if 2 * k > den:
        k = den - k
        s = -1.0
    return s * math.cos(math.pi * k / den)


def phase_ratio(num: int, den: int) -> complex:
    """e^{i*pi*num/den} from the integer-folded sin and cos."""
    return complex(cos_pi_ratio(num, den), sin_pi_ratio(num, den))
