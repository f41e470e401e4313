"""Closed-form evaluation of every sum family.

Two layers live here. The first holds the first-power closed forms of
the six power families. One of them, the cotangent sum

    sum_{j<d} prefix(2 pi m j/d) * cot(pi (j/d + b + k/2)) = +-d * osc * csc,

with the shift given as b plus k quarter turns (k an integer), is the
one every other family reduces onto, by one of four identities:

  * tan(pi x) = -cot(pi (x + 1/2)) and sec(pi x) = csc(pi (x + 1/2));
  * the doubled-range sum X-cot-2d(d, m, b) is X-cot(2d, 2m, b);
  * csc(pi x) * sin(pi (x + D)) = sin(pi D) * cot(pi x) + cos(pi D),
    whose constant term sums to zero against the prefix (cos(pi y) is
    sin(pi (y + 1/2)));
  * csc A * csc B = (cot A - cot B) / sin(B - A).

The quarter turns stay integers and are taken exactly (sin becomes
+-sin or +-cos, csc becomes +-csc or +-sec), never added to b as a
float, so no rounding enters the shift and the pole guards stay in place.

The second layer, for the power families at n > 1, evaluates a
multi-index expression: a sum over composition tuples (js, mu, nu) of

    i^{mu+nu(+1)} * 2^{pw} * m^mu/mu! * d^{nu+1}/nu!
      * (x1 * A_nu(x2) +- (-1)^{mu+nu} * x1' * A_nu(x2'))
      * product of cotangent/cosecant expansion coefficients over js,

negated at the end. The phase pair (x1, x2) encodes (m, d, b); the
primed pair is its complex conjugate; the cos-prefixed families take
the minus combination and one extra factor of i. Accumulation is
complex; the imaginary part must come out as noise and is reported as
the residual, never silently dropped.

Only x1, x1' and m^mu/mu! depend on m, and only the kernel and the
powers of d depend on (d, b). The exact tuple weights are summed once
per (mu, nu) into composition weights, which depend only on the shape
of the sum (cot or csc, and the pole order); the rest is folded into a
frequency-free slice per (family, d, b, n). Both are kept for one
family walk (families.enter_walk): a sweep over m builds the kernel
once, and a walk over the d, b and n of one family enumerates the
tuples once per n.

Each public entry validates its spec once and reduces b and b2 by the
family's shift period (families.reduced_shifts) before any product such
as m*b or d*b is formed; the helpers below work on the reduced shifts.
Shift arguments are handled in half-turn units and reduced again before
the factor of pi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coefficients import apostol_coeff_table, check_index
from .errors import ParameterError
from .families import (
    TRAITS,
    WALK_CACHE_SIZE,
    Family,
    FamilyTraits,
    SumSpec,
    SumValue,
    as_sum_value,
    enter_walk,
    frequency_fold,
    is_classical,
    pole_order,
    reduced_shifts,
    validate_params,
    walk_cache,
)
from .multiindex import cot_coeff_product, csc_coeff_product, enumerate_compositions
from .trig import QUARTER_TURNS, cos_pi, csc_pi, phase, quarter_turns, sin_pi

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _real_value(x: float) -> SumValue:
    return SumValue(x + 0.0, 0.0, "closed-form")


def _cot_sum(prefix: str, d: int, m: int, b: float, k: int) -> float:
    """First-power cot sum of prefix(2 pi m j/d) * cot(pi (j/d + b + k/2)) over j < d."""
    s = 2 * m - d
    if prefix == "cos":
        return d * quarter_turns(s * b, s * k + 1) * quarter_turns(b * d, d * k, True)
    return -d * quarter_turns(s * b, s * k) * quarter_turns(b * d, d * k, True)


def _reduced_sum(spec: SumSpec, traits: FamilyTraits, b: float, b2: float | None) -> float:
    """A tangent, doubled-range or triple-product sum as first-power cot sums.

    b and b2 are the spec's shifts reduced by its period.
    """
    d, m, prefix = spec.d, spec.m, traits.prefix
    if traits.kind == "double":
        return _cot_sum(prefix, 2 * d, 2 * m, b, 0)
    k = QUARTER_TURNS[traits.shift_kind]
    if traits.kind == "tangent":
        return -_cot_sum(prefix, d, m, b, k)
    assert b2 is not None
    r = QUARTER_TURNS[traits.second_kind]
    if traits.second_kind in ("cos", "sin"):
        return quarter_turns(b2 - b, r - k) * _cot_sum(prefix, d, m, b, k)
    return (_cot_sum(prefix, d, m, b, k) - _cot_sum(prefix, d, m, b2, r)) \
        * quarter_turns(b2 - b, r - k, True)


def corollary_value(spec: SumSpec) -> SumValue:
    """First-power closed form for the six power families."""
    spec = validate_params(spec)
    if TRAITS[spec.family].kind != "power":
        raise ParameterError(f"corollary_value does not cover family {spec.family.value}")
    if spec.n != 1:
        raise ParameterError(f"corollary_value requires n = 1, got n = {spec.n}")
    return _corollary(spec, reduced_shifts(spec)[0])


def _corollary(spec: SumSpec, b: float) -> SumValue:
    """corollary_value of a validated spec whose shift, reduced, is b."""
    traits = TRAITS[spec.family]
    d, m = spec.d, spec.m
    if is_classical(spec):
        return _real_value(float(d - 2 * m))
    if traits.shift_kind == "cot":
        return _real_value(_cot_sum(traits.prefix, d, m, b, 0))
    # the four csc families: sin-csc-2n, cos-csc-2n, sin-csc-odd, cos-csc-odd
    sin_prefix = traits.prefix == "sin"
    if not traits.odd_m:
        if sin_prefix:
            return _real_value(
                d * csc_pi((b - 1) * d) ** 2
                * (m * sin_pi(2 * (b - 1) * (d - m)) - (d - m) * sin_pi(2 * (b - 1) * m))
            )
        return _real_value(
            d * csc_pi((b - 1) * d) ** 2
            * (m * cos_pi(2 * (b - 1) * (d - m)) + (d - m) * cos_pi(2 * (b - 1) * m))
        )
    if sin_prefix:
        return _real_value(-d * sin_pi((m - d) * b) * csc_pi(d * b))
    return _real_value(d * cos_pi((m - d) * b) * csc_pi(d * b))


@walk_cache()
def _composition_weights(kind: str, p: int) -> tuple[tuple[int, int, float], ...]:
    """The exact weight of each (mu, nu) pair of the composition sum at pole order p.

    The tuples have p parts and total p - 1. One entry (mu, nu, w) per
    pair, in the order the enumeration first reaches it: the sum, exact
    in Fractions, of the coefficient products of the tuples with that
    (mu, nu), rounded once to a float. It depends only on the kind and
    p, not on (d, b) or m.
    """
    weight = cot_coeff_product if kind == "cot" else csc_coeff_product
    weights: dict[tuple[int, int], Fraction] = {}
    for tup in enumerate_compositions(p - 1, p):
        key = (tup.mu, tup.nu)
        w = weight(tup.js)
        weights[key] = weights[key] + w if key in weights else w
    return tuple((mu, nu, float(w)) for (mu, nu), w in weights.items())


@walk_cache(WALK_CACHE_SIZE)
def _power_slice(
    family: Family, d: int, b: float, n: int
) -> tuple[tuple[int, complex, complex], ...]:
    """The frequency-free part of theorem_sum for one (family, d, b, n).

    One entry (mu, G, H) per (mu, nu) pair of the composition sum: its
    composition weight (see _composition_weights), times the powers of i
    and 2, d^{nu+1}/nu! and the kernel coefficient A_nu at x2 (G) or at
    its conjugate, with the combination sign (H). The value at frequency
    m is -sum m^mu/mu! * (x1*G + x1'*H). The pairs are not summed over
    nu here: that reorders the cancellation between them.
    """
    traits = TRAITS[family]
    odd = traits.odd_m
    p = pole_order(family, n)
    kernel = apostol_coeff_table(p - 1, phase(-2.0 * d * b))
    kernel_c = apostol_coeff_table(p - 1, phase(2.0 * d * b))
    cos_prefix = traits.prefix == "cos"
    sign = -1.0 if cos_prefix else 1.0
    extra_i = 1 if cos_prefix else 0
    out = []
    for mu, nu, w in _composition_weights(traits.shift_kind, p):
        ip = _I_POWERS[(mu + nu + extra_i) % 4]
        two = 2.0 ** (nu if odd else mu + nu)
        c = ip * two * (d ** (nu + 1) / math.factorial(nu)) * w
        out.append((mu, c * kernel[nu], c * sign * (-1.0) ** (mu + nu) * kernel_c[nu]))
    return tuple(out)


def theorem_sum(spec: SumSpec) -> SumValue:
    """General multi-index evaluation for the six power families, any n.

    The composition weights (per n) and the frequency-free slices (per
    d, b and n) are kept while the calls stay on one family, so a sweep
    over m builds the slice once and a sweep over d and b enumerates the
    tuples once per n; cold and warm calls take the same arithmetic.
    """
    spec = validate_params(spec)
    if TRAITS[spec.family].kind != "power":
        raise ParameterError(f"theorem_sum does not cover family {spec.family.value}")
    return _theorem(spec, reduced_shifts(spec)[0])


def _theorem(spec: SumSpec, b: float) -> SumValue:
    """theorem_sum of a validated spec whose shift, reduced, is b."""
    enter_walk(spec.family)
    traits = TRAITS[spec.family]
    if is_classical(spec):
        return SumValue(float(spec.d - 2 * spec.m), 0.0, "multi-index")
    m, fold_sign = frequency_fold(spec)
    if m is None:
        return SumValue(0.0, 0.0, "multi-index")
    # cached weights and slices skip the coefficient calls, so the cap is checked here
    check_index(pole_order(spec.family, spec.n) - 1, "apostol_coeff")
    x1 = phase(-m * (b - 1.0) if traits.odd_m else -2.0 * m * b)
    x1c = x1.conjugate()
    acc = 0j
    for mu, g, h in _power_slice(spec.family, spec.d, b, spec.n):
        acc += (m ** mu / math.factorial(mu)) * (x1 * g + x1c * h)
    return as_sum_value(complex(-fold_sign * acc.real, -fold_sign * acc.imag), "multi-index")


def closed_form_value(spec: SumSpec) -> SumValue:
    """Dispatch to the closed form matching the family and power."""
    spec = validate_params(spec)
    traits = TRAITS[spec.family]
    b, b2 = reduced_shifts(spec)
    if traits.kind != "power":
        return _real_value(_reduced_sum(spec, traits, b, b2))
    return _corollary(spec, b) if spec.n == 1 else _theorem(spec, b)
