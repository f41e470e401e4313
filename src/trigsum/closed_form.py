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
per (mu, nu) into composition weights, cached per (family, d, n); the
rest is folded into a frequency-free slice, cached per (family, d, b, n).
Both caches hold one (family, d) at a time, so a sweep over m builds
the kernel once and a walk over the offsets of one d enumerates the
tuples once.

Shift arguments are handled in half-turn units and reduced before the
factor of pi, so large b*d stays accurate.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .coefficients import apostol_coeff_table, check_index
from .errors import ParameterError
from .families import (
    TRAITS,
    Family,
    FamilyTraits,
    SumSpec,
    SumValue,
    as_sum_value,
    frequency_fold,
    is_classical,
    validate_params,
)
from .multiindex import cot_coeff_product, csc_coeff_product, enumerate_compositions
from .trig import cos_pi, csc_pi, phase, sec_pi, sin_pi

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_SIN_COS = (sin_pi, cos_pi)
_CSC_SEC = (csc_pi, sec_pi)
# q of each factor kind written as sin, csc or cot of pi (x + q/2); tan is
# minus the cot of x + 1/2
_QUARTER_TURNS = {"cot": 0, "csc": 0, "sin": 0, "tan": 1, "sec": 1, "cos": 1}

# theorem_sum slices kept warm; verify's order keeps len(offsets) * nmax
# of them in use across one (family, d)
SLICE_CACHE_SIZE = 64

# the (family, d) whose weights and slices the caches hold. A call on
# another (family, d) drops them, so a walk over m and b reuses them, the
# weights stay at one entry per n, and a walk that starts on a
# (family, d) other than the last one called starts cold: its work does
# not depend on what ran before it. The weights do not depend on d, but
# keeping them across (family, d) would let a run find the weights an
# earlier run built, so its traced counts would not repeat. Concurrent
# callers on different (family, d) only cost rebuilds; no value depends
# on the caches
_walk: tuple[Family, int] | None = None


def _real_value(x: float) -> SumValue:
    return SumValue(x + 0.0, 0.0, "closed-form")


def _quarter_turns(x: float, q: int, reciprocal: bool = False) -> float:
    """sin(pi (x + q/2)), or its reciprocal, with the q quarter turns taken exactly."""
    value = (_CSC_SEC if reciprocal else _SIN_COS)[q % 2](x)
    return -value if q % 4 >= 2 else value


def _cot_sum(prefix: str, d: int, m: int, b: float, k: int) -> float:
    """First-power cot sum of prefix(2 pi m j/d) * cot(pi (j/d + b + k/2)) over j < d."""
    s = 2 * m - d
    if prefix == "cos":
        return d * _quarter_turns(s * b, s * k + 1) * _quarter_turns(b * d, d * k, True)
    return -d * _quarter_turns(s * b, s * k) * _quarter_turns(b * d, d * k, True)


def _reduced_sum(spec: SumSpec, traits: FamilyTraits) -> float:
    """A tangent, doubled-range or triple-product sum as first-power cot sums."""
    d, m, b, prefix = spec.d, spec.m, spec.b, traits.prefix
    if traits.kind == "double":
        return _cot_sum(prefix, 2 * d, 2 * m, b, 0)
    k = _QUARTER_TURNS[traits.shift_kind]
    if traits.kind == "tangent":
        return -_cot_sum(prefix, d, m, b, k)
    b2 = spec.b2
    assert b2 is not None
    r = _QUARTER_TURNS[traits.second_kind]
    if traits.second_kind in ("cos", "sin"):
        return _quarter_turns(b2 - b, r - k) * _cot_sum(prefix, d, m, b, k)
    return (_cot_sum(prefix, d, m, b, k) - _cot_sum(prefix, d, m, b2, r)) \
        * _quarter_turns(b2 - b, r - k, True)


def corollary_value(spec: SumSpec) -> SumValue:
    """First-power closed form for the six power families."""
    spec = validate_params(spec)
    traits = TRAITS[spec.family]
    if traits.kind != "power":
        raise ParameterError(f"corollary_value does not cover family {spec.family.value}")
    if spec.n != 1:
        raise ParameterError(f"corollary_value requires n = 1, got n = {spec.n}")
    d, m, b = spec.d, spec.m, spec.b
    if is_classical(spec):
        return _real_value(float(d - 2 * m))
    if traits.shift_kind == "cot":
        return _real_value(_cot_sum(traits.prefix, d, m, b, 0))
    fam = spec.family
    if fam is Family.SIN_CSC_2N:
        return _real_value(
            d * csc_pi((b - 1) * d) ** 2
            * (m * sin_pi(2 * (b - 1) * (d - m)) - (d - m) * sin_pi(2 * (b - 1) * m))
        )
    if fam is Family.COS_CSC_2N:
        return _real_value(
            d * csc_pi((b - 1) * d) ** 2
            * (m * cos_pi(2 * (b - 1) * (d - m)) + (d - m) * cos_pi(2 * (b - 1) * m))
        )
    if fam is Family.SIN_CSC_ODD:
        return _real_value(-d * sin_pi((m - d) * b) * csc_pi(d * b))
    return _real_value(d * cos_pi((m - d) * b) * csc_pi(d * b))


def _composition_shape(traits: FamilyTraits, n: int) -> tuple[int, int, str]:
    """(total, parts, parity) of the composition sum at power n."""
    if traits.shift_kind == "cot":
        return n - 1, n, "any"
    if not traits.odd_m:
        return 2 * n - 1, 2 * n, "mu_plus_nu_odd"
    return 2 * n - 2, 2 * n - 1, "mu_plus_nu_even"


@functools.lru_cache(maxsize=None)
def _composition_weights(
    kind: str, total: int, parts: int, parity: str
) -> tuple[tuple[int, int, float], ...]:
    """The exact weight of each (mu, nu) pair of one composition sum.

    One entry (mu, nu, w) per pair, in the order the enumeration first
    reaches it: the sum, exact in Fractions, of the coefficient products
    of the tuples with that (mu, nu), rounded once to a float. It
    depends only on the shape, not on (d, b) or m.
    """
    weight = cot_coeff_product if kind == "cot" else csc_coeff_product
    weights: dict[tuple[int, int], Fraction] = {}
    for tup in enumerate_compositions(total, parts, parity):
        key = (tup.mu, tup.nu)
        w = weight(tup.js)
        weights[key] = weights[key] + w if key in weights else w
    return tuple((mu, nu, float(w)) for (mu, nu), w in weights.items())


@functools.lru_cache(maxsize=SLICE_CACHE_SIZE)
def _power_slice(
    family: Family, d: int, b: float, n: int
) -> tuple[tuple[int, complex, complex], ...]:
    """The frequency-free part of theorem_sum for one (family, d, b, n).

    One entry (mu, G, H) per (mu, nu) pair of the composition sum: its
    composition weight (cached per (family, d, n), see
    _composition_weights), times the powers of i and 2, d^{nu+1}/nu! and
    the kernel coefficient A_nu at x2 (G) or at its conjugate, with the
    combination sign (H). The value at frequency m is
    -sum m^mu/mu! * (x1*G + x1'*H). The pairs are not summed over nu
    here: that reorders the cancellation between them.
    """
    traits = TRAITS[family]
    odd = traits.odd_m
    total, parts, parity = _composition_shape(traits, n)
    kernel = apostol_coeff_table(total, phase(-2.0 * d * b))
    kernel_c = apostol_coeff_table(total, phase(2.0 * d * b))
    cos_prefix = traits.prefix == "cos"
    sign = -1.0 if cos_prefix else 1.0
    extra_i = 1 if cos_prefix else 0
    out = []
    for mu, nu, w in _composition_weights(traits.shift_kind, total, parts, parity):
        ip = _I_POWERS[(mu + nu + extra_i) % 4]
        two = 2.0 ** (nu if odd else mu + nu)
        c = ip * two * (d ** (nu + 1) / math.factorial(nu)) * w
        out.append((mu, c * kernel[nu], c * sign * (-1.0) ** (mu + nu) * kernel_c[nu]))
    return tuple(out)


def _slice_for(
    family: Family, d: int, b: float, n: int
) -> tuple[tuple[int, complex, complex], ...]:
    global _walk
    if _walk != (family, d):
        _power_slice.cache_clear()
        _composition_weights.cache_clear()
        _walk = (family, d)
    return _power_slice(family, d, b, n)


def theorem_sum(spec: SumSpec) -> SumValue:
    """General multi-index evaluation for the six power families, any n.

    The composition weights are cached per (family, d, n) and the
    frequency-free slice per (family, d, b, n) while the calls stay on
    one (family, d), so a sweep over m builds the slice once and a sweep
    over b enumerates the tuples once; cold and warm calls take the same
    arithmetic.
    """
    spec = validate_params(spec)
    traits = TRAITS[spec.family]
    if traits.kind != "power":
        raise ParameterError(f"theorem_sum does not cover family {spec.family.value}")
    if is_classical(spec):
        return SumValue(float(spec.d - 2 * spec.m), 0.0, "multi-index")
    folded, fold_sign = frequency_fold(spec)
    if folded is None:
        return SumValue(0.0, 0.0, "multi-index")
    if folded is not spec:
        inner = theorem_sum(folded)
        return SumValue(fold_sign * inner.value + 0.0, inner.imag_residual, "multi-index")
    d, m, b, n = spec.d, spec.m, spec.b, spec.n
    # cached weights and slices skip the coefficient calls, so the cap is checked here
    check_index(_composition_shape(traits, n)[0], "apostol_coeff")
    if traits.odd_m:
        x1 = phase(-m * (b - 1.0))
        x1c = phase(m * (b - 1.0))
    else:
        x1 = phase(-2.0 * m * b)
        x1c = phase(2.0 * m * b)
    acc = 0j
    for mu, g, h in _slice_for(spec.family, d, b, n):
        acc += (m ** mu / math.factorial(mu)) * (x1 * g + x1c * h)
    return as_sum_value(-acc, "multi-index")


def closed_form_value(spec: SumSpec) -> SumValue:
    """Dispatch to the closed form matching the family and power."""
    spec = validate_params(spec)
    traits = TRAITS[spec.family]
    if traits.kind != "power":
        return _real_value(_reduced_sum(spec, traits))
    return corollary_value(spec) if spec.n == 1 else theorem_sum(spec)
