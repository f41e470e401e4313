"""Index tuples driving the general power-sum formulas.

A composition tuple is a solution (j_1..j_k, mu, nu) of

    2*(j_1 + ... + j_k) + mu + nu = total

with a fixed number of parts k and all entries nonnegative. The general
formulas sum one weighted term per tuple; the weight carries an exact
rational product of cotangent or cosecant expansion coefficients over
the j entries.

Since 2*sum(js) is even, mu + nu always has the parity of the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .coefficients import cot_coeff, csc_coeff
from .errors import ParameterError

@dataclass(frozen=True)
class CompositionTuple:
    js: tuple[int, ...]
    mu: int
    nu: int

    @property
    def total(self) -> int:
        return 2 * sum(self.js) + self.mu + self.nu


def _js_prefixes(parts: int, budget: int) -> Iterator[tuple[int, ...]]:
    # ascending first entry keeps the overall ordering lexicographic
    if parts == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _js_prefixes(parts - 1, budget - head):
            yield (head,) + tail


def enumerate_compositions(total: int, parts: int) -> tuple[CompositionTuple, ...]:
    """All tuples with 2*sum(js) + mu + nu = total, len(js) = parts.

    Returned in lexicographic order of (js, mu); nu is determined by the
    remainder.
    """
    if total < 0:
        raise ParameterError(f"total must be nonnegative, got {total}")
    if parts < 1:
        raise ParameterError(f"parts must be positive, got {parts}")
    out = []
    for js in _js_prefixes(parts, total // 2):
        rem = total - 2 * sum(js)
        for mu in range(rem + 1):
            out.append(CompositionTuple(js, mu, rem - mu))
    return tuple(out)


def cot_coeff_product(js: Sequence[int]) -> Fraction:
    """Exact rational product of cot_coeff over the entries."""
    out = Fraction(1)
    for j in js:
        out *= cot_coeff(j)
    return out


def csc_coeff_product(js: Sequence[int]) -> Fraction:
    """Exact rational product of csc_coeff over the entries."""
    out = Fraction(1)
    for j in js:
        out *= csc_coeff(j)
    return out
