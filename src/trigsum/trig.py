"""Trigonometric helpers with argument reduction done before the factor of pi.

Arguments are measured in half turns throughout: ``sin_pi(x)`` means
sin(pi*x). Reduction happens on x, where integers are exactly
representable, instead of on pi*x where they are not. Each function
folds its argument into a small interval around zero first, so values
keep full relative accuracy next to zeros and poles, and lattice points
produce exact zeros (``sin_pi(7.0) == 0.0``, not 8.6e-16).

Each call reduces its argument once, r = remainder(x, 2), which is
exact. Sine and cosine both come from r through one fold (_sin_folded):
cos(pi*r) = sin(pi*(1/2 - |r|)), whose argument is already reduced, and
the subtraction is exact for the magnitudes that matter (|r| >= 1/4)
and harmless below that.

The reciprocal functions guard their poles: an argument closer than
1e-12 radians to a pole raises NumericError rather than returning a
huge, meaningless value. The guard reads the same r: the distance to
the poles is |remainder(r, 1)|, or |remainder(r - 1/2, 1)| for tan and
sec, where r - 1/2 is exact, so it is the exact distance from x.
"""

import math

from .errors import NumericError

# radian distance below which a cot/csc/sec/tan evaluation is refused
POLE_TOL = 1e-12


def _sin_folded(r: float) -> float:
    """sin(pi*r) for r in [-1, 1], folded so the result is exact at integers."""
    s = 1.0
    if r < 0.0:
        r = -r
        s = -1.0
    if r > 0.5:
        r = 1.0 - r
    return s * math.sin(math.pi * r)


def sin_pi(x: float) -> float:
    """sin(pi*x), folded so the result is exact at integers."""
    return _sin_folded(math.remainder(x, 2.0))


def cos_pi(x: float) -> float:
    """cos(pi*x), folded so the result is exact at integers."""
    return _sin_folded(0.5 - abs(math.remainder(x, 2.0)))


def dist_to_int(x: float) -> float:
    """Distance from x to the nearest integer."""
    return abs(math.remainder(x, 1.0))


def dist_to_half_odd(x: float) -> float:
    """Distance from x to the nearest half-odd-integer (k + 1/2)."""
    return abs(math.remainder(x - 0.5, 1.0))


def dist_to_odd(x: float) -> float:
    """Distance from x to the nearest odd integer."""
    return abs(math.remainder(x - 1.0, 2.0))


def _pole_error(name: str, x: float) -> NumericError:
    return NumericError(
        f"singular term: {name} argument {x!r} (half turns) is within "
        f"{POLE_TOL:g} radians of a pole"
    )


def cot_pi(x: float) -> float:
    """cot(pi*x); raises NumericError within 1e-12 radians of a pole."""
    r = math.remainder(x, 2.0)
    if math.pi * abs(math.remainder(r, 1.0)) <= POLE_TOL:
        raise _pole_error("cot", x)
    return _sin_folded(0.5 - abs(r)) / _sin_folded(r)


def csc_pi(x: float) -> float:
    """cosec(pi*x); raises NumericError within 1e-12 radians of a pole."""
    r = math.remainder(x, 2.0)
    if math.pi * abs(math.remainder(r, 1.0)) <= POLE_TOL:
        raise _pole_error("cosec", x)
    return 1.0 / _sin_folded(r)


def tan_pi(x: float) -> float:
    """tan(pi*x); raises NumericError within 1e-12 radians of a pole."""
    r = math.remainder(x, 2.0)
    if math.pi * abs(math.remainder(r - 0.5, 1.0)) <= POLE_TOL:
        raise _pole_error("tan", x)
    return _sin_folded(r) / _sin_folded(0.5 - abs(r))


def sec_pi(x: float) -> float:
    """sec(pi*x); raises NumericError within 1e-12 radians of a pole."""
    r = math.remainder(x, 2.0)
    if math.pi * abs(math.remainder(r - 0.5, 1.0)) <= POLE_TOL:
        raise _pole_error("sec", x)
    return 1.0 / _sin_folded(0.5 - abs(r))


# q of each function written as sin, csc or cot of pi (x + q/2); tan is
# minus the cot of x + 1/2
QUARTER_TURNS = {"cot": 0, "csc": 0, "sin": 0, "tan": 1, "sec": 1, "cos": 1}


def quarter_turns(x: float, q: int, reciprocal: bool = False) -> float:
    """sin(pi (x + q/2)), or its reciprocal, with the q quarter turns taken exactly.

    The integer q picks +-sin/+-cos (or +-csc/+-sec) of x, so no float
    q/2 is added to x and the pole guards see x itself: the values and
    refusals are those of sin_pi, cos_pi, csc_pi and sec_pi at x.
    """
    r = math.remainder(x, 2.0)
    odd = q % 2
    if reciprocal and math.pi * abs(math.remainder(r - 0.5 * odd, 1.0)) <= POLE_TOL:
        raise _pole_error("sec" if odd else "cosec", x)
    value = _sin_folded(0.5 - abs(r) if odd else r)
    if reciprocal:
        value = 1.0 / value
    return -value if q % 4 >= 2 else value


def phase(x: float) -> complex:
    """Unit complex number e^{i*pi*x}, built from the folded sin/cos.

    Exact at quarter-turn lattice points, e.g. phase(-0.5) == -1j.
    """
    r = math.remainder(x, 2.0)
    return complex(_sin_folded(0.5 - abs(r)), _sin_folded(r))


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

