"""Residue reconstruction of the sums from their contour integrands.

Each power family has an integrand f(z) built from an exponential
numerator, a power of a shifted cotangent/cosecant, and an exponential
kernel denominator. All residues of f over one period strip must sum
to zero, which pins the sum of interest to the single interior residue:

    sum = -(pi*i*d) * Res(f, 1-b)   for cos-prefixed families,
    sum = -(pi*d)   * Res(f, 1-b)   for sin-prefixed families,

while the boundary residues at z = j/d reproduce the individual terms.
The interior residue is the w^{-1} coefficient of the local series in
w = z - (1-b), and only that coefficient is formed: per kernel branch it
is the sum over deg < 0 of (exp * cot^p)_deg * kernel_{-1-deg}, which
needs the exponential and the kernel through w^(p-1) and the cot/csc
power through w^-1 (p the pole order). The cot/csc power does not
depend on d, b or m, so it is built once per (kind, pole order) and kept
for the family walk (families.enter_walk), as the closed form keeps its
composition weights. b enters only through phases (the constant x1 and
the kernel's t), so it is reduced by its period first and the phases
stay accurate at large shifts.

The four csc x cos/sin product families are taken through the
first-power cot residue, by the identity the closed form uses:
csc x * sin(x + D) = sin D * cot x + cos D, whose constant sums to zero
against the prefix (cos is sin a quarter turn on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .coefficients import apostol_coeff_table, cot_coeff, csc_coeff
from .errors import ParameterError
from .families import (
    TRAITS,
    Family,
    SumSpec,
    SumValue,
    as_sum_value,
    enter_walk,
    frequency_fold,
    pole_order,
    reduced_shifts,
    validate_params,
    walk_cache,
)
from .trig import QUARTER_TURNS, cot_pi, csc_pi, phase, phase_ratio, quarter_turns

FACTOR_KINDS = (
    "exp_linear",
    "cot_shifted",
    "csc_shifted",
    "apostol_kernel",
)


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated Laurent series: coeffs[k] multiplies w^{min_degree+k}.

    Coefficients are stored densely from min_degree through
    truncation_order; the series is meaningless beyond the truncation.
    """
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


def series_from_coeffs(min_degree: int, coeffs, truncation_order: int | None = None) -> LaurentSeries:
    cs = tuple(complex(c) for c in coeffs)
    if truncation_order is None:
        truncation_order = min_degree + len(cs) - 1
    return LaurentSeries(min_degree, cs, truncation_order)


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


def expand_factor(kind: str, params: Mapping[str, complex], order: int) -> LaurentSeries:
    """Local series of one integrand factor in w, valid through w^order.

    Kinds and their params:
      exp_linear     {"coefficient": c}      sum (c w)^k / k!
      cot_shifted    {}                      sum cot_coeff(j) pi^{2j-1} w^{2j-1}
      csc_shifted    {}                      sum csc_coeff(j) pi^{2j-1} w^{2j-1}
      apostol_kernel {"t": t, "scale": c}    sum A_nu(t) (c w)^nu / nu!

    The exp_linear series omits its constant prefactor e^{c z0};
    residue_at_interior_pole multiplies the constant phases in afterwards.
    """
    if kind not in FACTOR_KINDS:
        raise ParameterError(f"unknown factor kind {kind!r}; known: {FACTOR_KINDS}")
    if kind in ("cot_shifted", "csc_shifted"):
        if order < -1:
            raise ParameterError(f"order {order} below the pole degree -1 of {kind}")
        coeff = cot_coeff if kind == "cot_shifted" else csc_coeff
        coeffs = []
        for deg in range(-1, order + 1):
            if deg % 2 == 0:
                coeffs.append(0j)
            else:
                j = (deg + 1) // 2
                coeffs.append(complex(float(coeff(j)) * math.pi ** deg))
        return LaurentSeries(-1, tuple(coeffs), order)
    if order < 0:
        raise ParameterError(f"order {order} below the minimal degree 0 of {kind}")
    if kind == "exp_linear":
        c = complex(params["coefficient"])
        return LaurentSeries(
            0, tuple(c ** k / math.factorial(k) for k in range(order + 1)), order
        )
    t = complex(params["t"])
    scale = complex(params["scale"])
    table = apostol_coeff_table(order, t)
    return LaurentSeries(
        0,
        tuple(table[k] * scale ** k / math.factorial(k) for k in range(order + 1)),
        order,
    )


@dataclass(frozen=True)
class IntegrandDescriptor:
    """A residue-engine job: power-family parameters plus the interior pole order."""
    family: Family
    d: int
    m: int
    b: float
    pole_order: int

    @classmethod
    def from_spec(cls, spec: SumSpec) -> "IntegrandDescriptor":
        spec = validate_params(spec)
        if TRAITS[spec.family].kind != "power":
            raise _uncovered(spec.family)
        b = reduced_shifts(spec)[0]
        return cls(spec.family, spec.d, spec.m, b, pole_order(spec.family, spec.n))


def _uncovered(family: Family) -> ParameterError:
    return ParameterError(f"family {family.value} is not covered by the residue engine")


@walk_cache()
def _singular_power(kind: str, pole_order: int) -> LaurentSeries:
    """The cot or csc factor raised to the pole order, through w^-1."""
    return series_pow(expand_factor(kind, {}, pole_order - 2), pole_order)


def _branch_residue(
    singular: tuple[complex, ...], exp_coeff: complex, t: complex, scale: complex
) -> complex:
    """The w^{-1} coefficient of exp(exp_coeff w) * singular * kernel(t, scale w).

    singular holds the cot/csc power's coefficients of w^-p..w^-1. Each
    coefficient is accumulated in ascending index, as series_mul does.
    """
    p = len(singular)
    exp = expand_factor("exp_linear", {"coefficient": exp_coeff}, p - 1).coeffs
    kernel = expand_factor("apostol_kernel", {"t": t, "scale": scale}, p - 1).coeffs
    acc = 0j
    for i in range(p):
        product = 0j  # (exp * singular) at w^(i-p)
        for k in range(i + 1):
            product += exp[k] * singular[i - k]
        acc += product * kernel[p - 1 - i]
    return acc


def residue_at_interior_pole(desc: IntegrandDescriptor) -> complex:
    """The w^{-1} coefficient of the integrand's local series at z = 1-b."""
    traits = TRAITS[desc.family]
    d, m, b = desc.d, desc.m, desc.b
    if traits.odd_m:
        x1 = phase(-m * (b - 1.0))
        x1c = phase(m * (b - 1.0))
        exp_coeff = 1j * math.pi * m
    else:
        x1 = phase(-2.0 * m * b)
        x1c = phase(2.0 * m * b)
        exp_coeff = 2j * math.pi * m
    base_kind = "cot_shifted" if traits.shift_kind == "cot" else "csc_shifted"
    singular = _singular_power(base_kind, desc.pole_order).coeffs
    plus = _branch_residue(singular, exp_coeff, phase(-2.0 * d * b), 2j * math.pi * d)
    minus = _branch_residue(singular, -exp_coeff, phase(2.0 * d * b), -2j * math.pi * d)
    second_phase = -x1c if traits.prefix == "cos" else x1c
    return x1 * plus + second_phase * minus


def boundary_residues(desc: IntegrandDescriptor) -> tuple[complex, ...]:
    """Res(f, j/d) for j = 0..d-1, from the simple-pole quotient.

    Each equals term_j/(pi*i*d) for cos-prefixed families and
    term_j/(pi*d) for sin-prefixed ones, term_j being the j-th summand.
    """
    traits = TRAITS[desc.family]
    d, m, b = desc.d, desc.m, desc.b
    beta = math.remainder(b, float(traits.shift_period))
    base = cot_pi if traits.shift_kind == "cot" else csc_pi
    out = []
    for j in range(d):
        factor = base(j / d + beta) ** desc.pole_order
        num = (m if traits.odd_m else 2 * m) * j
        plus = phase_ratio(num, d) * factor
        minus = phase_ratio(-num, d) * factor
        if traits.prefix == "cos":
            out.append((plus + minus) / (2j * math.pi * d))
        else:
            out.append((plus - minus) / (2j * math.pi * d))
    return tuple(out)


def _power_sum(family: Family, d: int, m: int, b: float, n: int) -> complex:
    """The power-family sum at (d, m, b, n), from its interior residue."""
    res = residue_at_interior_pole(IntegrandDescriptor(family, d, m, b, pole_order(family, n)))
    scale = -(math.pi * 1j * d) if TRAITS[family].prefix == "cos" else complex(-(math.pi * d))
    return scale * res


def sum_via_residues(spec: SumSpec) -> SumValue:
    """Reconstruct the sum from the interior residue alone."""
    spec = validate_params(spec)
    traits = TRAITS[spec.family]
    if not traits.supports_residue:
        raise _uncovered(spec.family)
    # a product family walks as itself, though its residue is the cot one
    enter_walk(spec.family)
    folded, fold_sign = frequency_fold(spec)
    if folded is None:
        return SumValue(0.0, 0.0, "residue")
    d, m = folded.d, folded.m
    b, b2 = reduced_shifts(spec)
    if traits.kind == "power":
        value = _power_sum(spec.family, d, m, b, spec.n)
    else:
        # csc x * sin(x + D) = sin D * cot x + cos D with D = pi (b2 - b + r/2), r the
        # quarter turns taking sin to the second factor; cos D sums to zero
        assert b2 is not None
        cot = Family.COS_COT if traits.prefix == "cos" else Family.SIN_COT
        value = quarter_turns(b2 - b, QUARTER_TURNS[traits.second_kind]) \
            * _power_sum(cot, d, m, b, 1)
    return as_sum_value(complex(fold_sign * value.real, fold_sign * value.imag), "residue")
