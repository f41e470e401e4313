"""Independent reference: the defining sum, term by term, in 40 digits.

The reference shares no code with the package. It reads the shape of
each sum off the family label (``prefix-singular[-suffix]``) as the
README defines it:

    sum_j prefix(2 pi m j/d) * singular(pi (j/d + b))^power [* second(pi (j/d + b2))]

with power n for cot, 2n for ``-2n`` and 2n - 1 for ``-odd`` cosecants,
the half-turn prefix pi m j/d for ``-odd``, and j over 0..2d-1 with
j/(2d) in the singular argument for ``-2d``. b and b2 enter as the exact
binary values of the floats given. A sine prefix vanishes at j = 0, so
that term is skipped, as in the defining sums.

mpmath is used here only, and only outside the timed regions.
"""

from __future__ import annotations

import mpmath

DIGITS = 40
# a path value misses when |value - ref| > REL_TOL * max(1, |ref|)
REL_TOL = 1e-8

_FUNCTIONS = {
    "cos": mpmath.cos, "sin": mpmath.sin, "cot": mpmath.cot,
    "csc": mpmath.csc, "tan": mpmath.tan, "sec": mpmath.sec,
}


def reference_sum(label: str, d: int, m: int, b: float, n: int = 1, b2: float | None = None):
    """The sum named by a family label, as an mpmath number of DIGITS digits."""
    prefix, singular, *rest = label.split("-")
    suffix = rest[0] if rest else ""
    power = {"2n": 2 * n, "odd": 2 * n - 1}.get(suffix, n)
    half_turn_prefix = suffix == "odd"
    span = 2 * d if suffix == "2d" else d
    second = _FUNCTIONS[suffix] if suffix in _FUNCTIONS else None
    outer = _FUNCTIONS[prefix]
    inner = _FUNCTIONS[singular]
    with mpmath.workdps(DIGITS):
        pi = mpmath.pi
        shift = mpmath.mpf(b)
        shift2 = mpmath.mpf(b2) if second is not None else None
        total = mpmath.mpf(0)
        for j in range(1 if prefix == "sin" else 0, span):
            freq = m * j if half_turn_prefix else 2 * m * j
            term = outer(pi * mpmath.mpf(freq) / d) * inner(pi * (mpmath.mpf(j) / span + shift)) ** power
            if second is not None:
                term *= second(pi * (mpmath.mpf(j) / d + shift2))
            total += term
        return +total


def misses(value: float | None, ref) -> bool:
    """True when a path gave no value or one farther than REL_TOL from ref."""
    if value is None or value != value or abs(value) == float("inf"):
        return True
    with mpmath.workdps(DIGITS):
        return abs(mpmath.mpf(value) - ref) > REL_TOL * max(1, abs(ref))
