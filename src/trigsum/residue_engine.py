"""Residue reconstruction of the sums from their contour integrands.

Each power family has an integrand f(z) built from an exponential
numerator, a power of a shifted cotangent/cosecant, and an exponential
kernel denominator. All residues of f over one period strip must sum
to zero, which pins the sum of interest to the single interior residue:

    sum = -(pi*i*d) * Res(f, 1-b)   for cos-prefixed families,
    sum = -(pi*d)   * Res(f, 1-b)   for sin-prefixed families,

while the boundary residues at z = j/d reproduce the individual terms.
The integrand has two branches, x1 e^{aw} times the kernel
1/(t e^{cw} - 1) and x1' e^{-aw} times the kernel at t' and -c (a and
c imaginary, x1' and t' the conjugate phases), added under the sin
prefix and subtracted under the cos prefix. Every input of the second
is the conjugate of the first's, the cot/csc coefficients being real,
and complex +, * and integer powers commute with conjugation, so the
second branch's residue is the exact conjugate of the first's. The
residue is therefore 2 Re (sin) or 2i Im (cos) of the first branch's,
and only that branch is formed.

The interior residue is the w^{-1} coefficient of the local series in
w = z - (1-b), and only that coefficient is formed: it is x1 times the
sum over deg < 0 of (exp * cot^p)_deg * kernel_{-1-deg}, which needs
the exponential and the kernel through w^(p-1) and the cot/csc power
through w^-1 (p the pole order). Only the exponential numerator
depends on m. The cot/csc power depends on neither d, b nor m, its
product with the exponential (the numerator row) only on (kind, p, m),
and the kernel only on (p, d, b), so all three are kept for the family
walk (families.enter_walk), as the closed form keeps its composition
weights and slices: a sweep over m builds the kernel once per
(p, d, b) and the numerator row once per (p, m), and a warm call pays
only for the phase x1 and one p-term dot product. b enters only
through phases (x1 and the kernel's t), so it is reduced by its period
first and the phases stay accurate at large shifts.

The four csc x cos/sin product families are taken through the
first-power cot integrand (_integrand), by the identity the closed form
uses: csc x * sin(x + D) = sin D * cot x + cos D, whose constant sums to
zero against the prefix (cos is sin a quarter turn on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import apostol_coeff_table, check_index, cot_coeff, csc_coeff
from .errors import ParameterError
from .families import (
    TRAITS,
    Family,
    SumSpec,
    SumValue,
    enter_walk,
    frequency_fold,
    is_classical,
    pole_order,
    reduced_shifts,
    validate_params,
    walk_cache,
)
from .trig import (QUARTER_TURNS, cos_pi_ratio, cot_pi, csc_pi, phase, quarter_turns,
                   sin_pi_ratio)

# a member read as Family.NAME goes through EnumType's __getattr__ hook,
# about 0.2 us on CPython 3.11; every product-family residue reads one
_COS_COT, _SIN_COT = Family.COS_COT, Family.SIN_COT


@dataclass(frozen=True)
class LaurentSeries:
    """Laurent series truncated after w^truncation_order: coeffs[k] multiplies w^{min_degree+k}."""
    min_degree: int
    coeffs: tuple[complex, ...]
    truncation_order: int

    def __post_init__(self) -> None:
        expect = self.truncation_order - self.min_degree + 1
        if expect < 1 or len(self.coeffs) != expect:
            raise ParameterError(
                f"inconsistent series shape: {len(self.coeffs)} coefficients for "
                f"degrees {self.min_degree}..{self.truncation_order}"
            )

    def coefficient(self, degree: int) -> complex:
        if degree > self.truncation_order:
            raise ParameterError(f"degree {degree} beyond truncation {self.truncation_order}")
        if degree < self.min_degree:
            return 0j
        return self.coeffs[degree - self.min_degree]


def _trimmed(s: LaurentSeries) -> LaurentSeries:
    # drop exactly-zero leading coefficients; keep one for the zero series
    k = 0
    while k < len(s.coeffs) - 1 and s.coeffs[k] == 0:
        k += 1
    if k == 0:
        return s
    return LaurentSeries(s.min_degree + k, s.coeffs[k:], s.truncation_order)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    a = _trimmed(a)
    b = _trimmed(b)
    min_degree = a.min_degree + b.min_degree
    order = min(a.truncation_order + b.min_degree, b.truncation_order + a.min_degree)
    coeffs = [0j] * (order - min_degree + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        da = a.min_degree + i
        for k, cb in enumerate(b.coeffs):
            deg = da + b.min_degree + k
            if deg > order:
                break
            coeffs[deg - min_degree] += ca * cb
    return LaurentSeries(min_degree, tuple(coeffs), order)


def series_pow(a: LaurentSeries, k: int) -> LaurentSeries:
    if k < 1:
        raise ParameterError(f"series power must be positive, got {k}")
    out = a
    for _ in range(k - 1):
        out = series_mul(out, a)
    return out


def expand_factor(kind: str, order: int) -> LaurentSeries:
    """Local series of the singular factor in w, valid through w^order.

    kind is a family's shift kind: "cot" gives sum cot_coeff(j) pi^{2j-1}
    w^{2j-1}, "csc" the same with csc_coeff (the cosecant one half period
    past its pole, so with the reflected sign).
    """
    coeff = {"cot": cot_coeff, "csc": csc_coeff}.get(kind)
    if coeff is None:
        raise ParameterError(f"unknown factor kind {kind!r}; known: ('cot', 'csc')")
    if order < -1:
        raise ParameterError(f"order {order} below the pole degree -1 of {kind}")
    coeffs = tuple(
        0j if deg % 2 == 0 else complex(float(coeff((deg + 1) // 2)) * math.pi ** deg)
        for deg in range(-1, order + 1)
    )
    return LaurentSeries(-1, coeffs, order)


# the refusal of each family the residue engine does not cover, worded once
_UNCOVERED = {family: f"family {family.value} is not covered by the residue engine"
              for family, traits in TRAITS.items() if not traits.supports_residue}


def _covered(spec: SumSpec) -> bool:
    return TRAITS[spec.family].supports_residue and not is_classical(spec)


def residue_gap(spec: SumSpec) -> str | None:
    """Why no integrand carries spec's residue, or None when one does.

    The classical point b = 0 of sin-cot has none: there the interior pole
    z = 1 - b merges with the j = 0 boundary pole.
    """
    if _covered(spec):
        return None
    return _UNCOVERED.get(spec.family, "the classical point b = 0 of sin-cot is not covered "
                          "by the residue engine: its interior pole merges with the j = 0 "
                          "boundary pole")


def _integrand(spec: SumSpec) -> tuple[Family, int, float, float]:
    """(power family, pole order, reduced b, constant) carrying a valid spec's residue.

    The residue of spec is constant times that integrand's. A csc x cos/sin
    product is sin(pi (b2 - b + r/2)) times the first-power cot integrand
    at (d, m, b), r the quarter turns taking sin to its second factor.
    residue_gap only words a refusal here, so a caller that asked it first
    does not pay for it twice.
    """
    if not _covered(spec):
        raise ParameterError(residue_gap(spec))
    traits = TRAITS[spec.family]
    b, b2 = reduced_shifts(spec)
    if traits.kind == "power":
        return spec.family, pole_order(spec.family, spec.n), b, 1.0
    assert b2 is not None
    cot = _COS_COT if traits.prefix == "cos" else _SIN_COT
    return cot, 1, b, quarter_turns(b2 - b, QUARTER_TURNS[traits.second_kind])


@walk_cache
def _singular_power(kind: str, pole_order: int) -> LaurentSeries:
    """The cot or csc factor raised to the pole order, through w^-1."""
    return series_pow(expand_factor(kind, pole_order - 2), pole_order)


@walk_cache
def _kernels(p: int, d: int, b: float) -> tuple[complex, ...]:
    """The kernel sum A_nu(t) (scale w)^nu / nu! at (d, b), through w^(p-1).

    t = phase(-2db) and the scale is 2 pi i d. The second branch's kernel,
    at the conjugates of both, is the conjugate of this one and is not
    built. It depends neither on m, nor on n beyond the pole order p.
    """
    table = apostol_coeff_table(p - 1, phase(-2.0 * d * b))
    scale = 2j * math.pi * d
    return tuple([table[k] * scale ** k / math.factorial(k) for k in range(p)])


@walk_cache
def _numerators(kind: str, p: int, exp_coeff: complex) -> tuple[complex, ...]:
    """The row of exp(exp_coeff w) * the cot/csc power, at w^-p..w^-1.

    The second branch's row, at -exp_coeff, is the conjugate of this one
    and is not built. Each coefficient is accumulated in ascending index,
    as series_mul does. The row depends only on the kind, the pole order
    and m.
    """
    singular = _singular_power(kind, p).coeffs
    exp = [exp_coeff ** k / math.factorial(k) for k in range(p)]
    row = []
    for i in range(p):
        product = 0j  # (exp * singular) at w^(i-p)
        for k in range(i + 1):
            product += exp[k] * singular[i - k]
        row.append(product)
    return tuple(row)


def _interior_residue(family: Family, p: int, d: int, m: int, b: float) -> complex:
    """The w^{-1} coefficient at z = 1-b of a power family's integrand of pole order p.

    The first branch's coefficient is z = x1 * (row . kernel), the dot
    product of the numerator row (see _numerators) with the kernel's
    w^(p-1)..w^0, taken in ascending index. The second branch is its
    conjugate, added (sin prefix) or subtracted (cos prefix), so the
    residue is 2 Re z or 2i Im z.
    """
    traits = TRAITS[family]
    theta = m * (b - 1.0) if traits.odd_m else 2.0 * m * b
    exp_coeff = (1j if traits.odd_m else 2j) * math.pi * m
    # warm kernels skip the coefficient call, so the cap is checked here
    check_index(p - 1, "apostol_coeff")
    acc = 0j
    for r, k in zip(_numerators(traits.shift_kind, p, exp_coeff), reversed(_kernels(p, d, b))):
        acc += r * k
    z = phase(-theta) * acc
    if traits.prefix == "cos":
        return complex(0.0, z.imag + z.imag)
    return complex(z.real + z.real, 0.0)


def residue_at_interior_pole(spec: SumSpec) -> complex:
    """The residue at z = 1-b of the integrand carrying spec's residue."""
    spec = validate_params(spec)
    family, p, b, constant = _integrand(spec)
    return constant * _interior_residue(family, p, spec.d, spec.m, b)


def boundary_residues(spec: SumSpec) -> tuple[complex, ...]:
    """Res(f, j/d) for j = 0..d-1, from the simple-pole quotient.

    Each equals term_j/(pi*i*d) for cos-prefixed families and
    term_j/(pi*d) for sin-prefixed ones, term_j being the j-th summand
    of the integrand's power family, times the constant of _integrand.
    The two branches' phases at j/d are conjugate, so, as at the
    interior pole, their pair is twice the prefix's cos or sin ratio and
    only that ratio is formed.
    """
    spec = validate_params(spec)
    family, p, b, constant = _integrand(spec)
    traits = TRAITS[family]
    d, m = spec.d, spec.m
    beta = math.remainder(b, float(traits.shift_period))
    base = cot_pi if traits.shift_kind == "cot" else csc_pi
    if traits.prefix == "cos":
        ratio, scale = cos_pi_ratio, 1j * math.pi * d
    else:
        ratio, scale = sin_pi_ratio, complex(math.pi * d)
    freq = m if traits.odd_m else 2 * m
    return tuple([constant * (ratio(freq * j, d) * base(j / d + beta) ** p / scale)
                  for j in range(d)])


def sum_via_residues(spec: SumSpec) -> SumValue:
    """Reconstruct the sum from the interior residue alone."""
    spec = validate_params(spec)
    family, p, b, constant = _integrand(spec)
    # a product family walks as itself, though its residue is the cot one
    enter_walk(spec.family)
    m, fold_sign = frequency_fold(spec)
    if m is None:
        return SumValue(0.0, "residue")
    d = spec.d
    residue = _interior_residue(family, p, d, m, b)
    # -(pi i d) * 2i Im z for the cos prefix, -(pi d) * 2 Re z for the sin prefix
    if TRAITS[family].prefix == "cos":
        value = (math.pi * d) * residue.imag
    else:
        value = -(math.pi * d) * residue.real
    return SumValue(fold_sign * (constant * value) + 0.0, "residue")
