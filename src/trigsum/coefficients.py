"""Exact rational coefficient families behind every closed-form evaluation.

Bernoulli numbers are produced by the classical binomial recurrence over
``fractions.Fraction`` (convention B_1 = -1/2) and cached in a grow-only
immutable table guarded by a lock, so concurrent readers are safe. The
cotangent and cosecant expansion coefficients

    cot_coeff(j) = (-1)^j 2^{2j}     B_{2j} / (2j)!
    csc_coeff(j) = (-1)^j 2 (2^{2j-1} - 1) B_{2j} / (2j)!

are the odd-degree Laurent coefficients of cot(pi*w) and -cosec(pi*w)
around w = 0, scaled so the power of pi is carried separately. The
kernel coefficients apostol_coeff(nu, t) are the scaled Taylor
coefficients of 1/(t*e^z - 1), computed by the complex recurrence

    A_0 = 1/(t-1),   A_nu = -t/(t-1) * sum binom(nu,k) A_k  (k < nu),

which extends to arbitrary nu; the small closed forms for A_0..A_3 are
reserved for tests.

A configurable cap (TRIGSUM_COEFF_CAP, default 64) bounds the index
accepted by each operation; the internal Bernoulli table grows as far as
a capped request needs (up to B_{2*cap}).
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction

from .errors import NumericError, ParameterError

DEFAULT_CAP = 64
DEGENERACY_TOL = 1e-9

_table_lock = threading.Lock()
_bernoulli_table: tuple[Fraction, ...] = (Fraction(1),)


def coefficient_cap() -> int:
    """Current index cap, read from TRIGSUM_COEFF_CAP (default 64)."""
    raw = os.environ.get("TRIGSUM_COEFF_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParameterError(f"TRIGSUM_COEFF_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ParameterError(f"TRIGSUM_COEFF_CAP must be nonnegative, got {cap}")
    return cap


def check_index(j: int, what: str) -> None:
    """Raise unless 0 <= j <= the current cap; NumericError above the cap."""
    if j < 0:
        raise ParameterError(f"{what} index must be nonnegative, got {j}")
    cap = coefficient_cap()
    if j > cap:
        raise NumericError(
            f"order too large: {what} index {j} exceeds cap {cap} "
            f"(set TRIGSUM_COEFF_CAP to extend)"
        )


def _bernoulli_upto(n: int) -> tuple[Fraction, ...]:
    global _bernoulli_table
    table = _bernoulli_table
    if n < len(table):
        return table
    with _table_lock:
        table = _bernoulli_table
        grown = list(table)
        while len(grown) <= n:
            k = len(grown)
            # sum_{i<k} binom(k+1, i) B_i + (k+1) B_k = 0
            acc = Fraction(0)
            for i in range(k):
                acc += math.comb(k + 1, i) * grown[i]
            grown.append(-acc / (k + 1))
        _bernoulli_table = tuple(grown)
        return _bernoulli_table


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j as an exact rational (B_1 = -1/2)."""
    check_index(j, "bernoulli")
    return _bernoulli_upto(j)[j]


def cot_coeff(j: int) -> Fraction:
    """Coefficient of pi^{2j-1} w^{2j-1} in the expansion of cot(pi*w)."""
    check_index(j, "cot_coeff")
    b = _bernoulli_upto(2 * j)[2 * j]
    sign = -1 if j % 2 else 1
    return Fraction(sign * 2 ** (2 * j)) * b / math.factorial(2 * j)


def csc_coeff(j: int) -> Fraction:
    """Coefficient of pi^{2j-1} w^{2j-1} in the expansion of -cosec(pi*w)."""
    check_index(j, "csc_coeff")
    b = _bernoulli_upto(2 * j)[2 * j]
    sign = -1 if j % 2 else 1
    # Fraction base keeps 2^{2j-1} exact at j = 0 where the exponent is -1.
    return sign * 2 * (Fraction(2) ** (2 * j - 1) - 1) * b / math.factorial(2 * j)


def apostol_coeff_table(nu: int, t: complex) -> list[complex]:
    """All kernel coefficients A_0(t)..A_nu(t), by the complex recurrence."""
    check_index(nu, "apostol_coeff")
    t = complex(t)
    if abs(t - 1.0) <= DEGENERACY_TOL:
        raise ParameterError(
            f"degenerate Apostol parameter: |t - 1| = {abs(t - 1.0):.3e} <= {DEGENERACY_TOL:g}"
        )
    coeffs = [1.0 / (t - 1.0)]
    ratio = -t / (t - 1.0)
    for k in range(1, nu + 1):
        acc = 0j
        for i in range(k):
            acc += math.comb(k, i) * coeffs[i]
        coeffs.append(ratio * acc)
    return coeffs


def apostol_coeff(nu: int, t: complex) -> complex:
    """Kernel coefficient A_nu(t): nu!-scaled Taylor coefficient of 1/(t*e^z - 1)."""
    return apostol_coeff_table(nu, t)[nu]
