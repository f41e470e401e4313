"""Closed-form evaluation of every sum family.

Two layers live here. The first is the first power (n = 1) of all 22
families, in one function (_first_power) built on the cotangent sum

    sum_{j<d} prefix(2 pi m j/d) * cot(pi (j/d + b + k/2))
        = +-d * Q(pi s (b + k/2)) * csc(pi d (b + k/2)),

with Q the prefix (sin or cos), s = 2m - d the frequency offset and the
shift given as b plus k quarter turns (k an integer). Sixteen families
reduce onto it by one of four identities, and the two odd-power
cosecant sums by a fifth:

  * tan(pi x) = -cot(pi (x + 1/2)) and sec(pi x) = csc(pi (x + 1/2));
  * the doubled-range sum X-cot-2d(d, m, b) is X-cot(2d, 2m, b), so
    s = 4m - 2d at 2d;
  * csc(pi x) * sin(pi (x + D)) = sin(pi D) * cot(pi x) + cos(pi D),
    whose constant term sums to zero against the prefix (cos(pi y) is
    sin(pi (y + 1/2)));
  * csc A * csc B = (cot A - cot B) / sin(B - A);
  * the half-frequency identity: the half-turn prefix cos(pi m j/d) of
    the odd-power cosecant sums is the full-turn prefix at frequency
    m/2, and their first power is the same formula at s = m - d, k = 0.

The even-power cosecant sums at n = 1 have their own csc^2 form, one
expression in Q, and sin-cot at an integer shift is the classical value
d - 2m.

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
the minus combination and one extra factor of i. The second branch is
the conjugate of the first, term by term: conjugating the first turns
x1, x2 into x1', x2' and i^e into (-1)^e i^e, and (-1)^e is the sign
the second branch carries ((-1)^{mu+nu}, negated with the extra i). So
each term is 2 Re of its first branch, and only that branch is formed;
the sum is accumulated in real arithmetic and no imaginary part exists.

Only x1 and m^mu/mu! depend on m, and only the kernel and the
powers of d depend on (d, b). The exact tuple weights are summed once
per (mu, nu) into composition weights, which depend only on the shape
of the sum (cot or csc, and the pole order); the rest is folded into a
frequency-free slice per (family, d, b, n). Both are kept for one
family walk (families.enter_walk): a sweep over m builds the kernel
once, and a walk over the d, b and n of one family enumerates the
tuples once per n.

closed_form_value, the one public entry, validates its spec once and
reduces b and b2 by the family's shift period (families.reduced_shifts)
before any product such as m*b or d*b is formed; the helpers below work
on the reduced shifts and return a float, which it records at every n
as one SumValue labelled "closed-form". Shift arguments are handled in
half-turn units and reduced again before the factor of pi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coefficients import apostol_coeff_table, check_index
from .families import (
    TRAITS,
    Family,
    FamilyTraits,
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
from .multiindex import cot_coeff_product, csc_coeff_product, enumerate_compositions
from .trig import QUARTER_TURNS, cos_pi, csc_pi, phase, quarter_turns, sin_pi

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _cot_sum(prefix: str, d: int, s: int, b: float, k: int) -> float:
    """The cot sum +-d * Q(pi s b) * csc(pi d b) at frequency offset s (2m - d).

    Q is the prefix, sin or cos, and b is shifted by k quarter turns.
    """
    if prefix == "cos":
        return d * quarter_turns(s * b, s * k + 1) * quarter_turns(b * d, d * k, True)
    return -d * quarter_turns(s * b, s * k) * quarter_turns(b * d, d * k, True)


def _first_power(spec: SumSpec, traits: FamilyTraits, b: float, b2: float | None) -> float:
    """The sum at n = 1 of a validated spec whose shifts, reduced, are b and b2."""
    d, m, prefix, kind = spec.d, spec.m, traits.prefix, traits.kind
    if kind == "power":
        if traits.odd_m:
            # the half-turn prefix is the full-turn prefix at frequency m/2
            return _cot_sum(prefix, d, m - d, b, 0)
        if traits.shift_kind == "csc":
            # the csc^2 form, one expression in the prefix's function osc;
            # sin_pi(-x) = -sin_pi(x) and cos_pi(-x) = cos_pi(x) exactly
            osc = cos_pi if prefix == "cos" else sin_pi
            return d * csc_pi((b - 1) * d) ** 2 * (
                m * osc(2 * (b - 1) * (d - m)) + (d - m) * osc(-2 * (b - 1) * m)
            )
        # b is reduced, so only b == 0.0 can be the classical point
        if b == 0.0 and is_classical(spec):
            return float(d - 2 * m)
        return _cot_sum(prefix, d, 2 * m - d, b, 0)
    if kind == "double":
        return _cot_sum(prefix, 2 * d, 4 * m - 2 * d, b, 0)
    k = QUARTER_TURNS[traits.shift_kind]
    cot = _cot_sum(prefix, d, 2 * m - d, b, k)
    if kind == "tangent":
        return -cot
    assert b2 is not None
    r = QUARTER_TURNS[traits.second_kind]
    if traits.second_kind in ("cos", "sin"):
        return quarter_turns(b2 - b, r - k) * cot
    return (cot - _cot_sum(prefix, d, 2 * m - d, b2, r)) * quarter_turns(b2 - b, r - k, True)


@walk_cache
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


@walk_cache
def _power_slice(family: Family, d: int, b: float, n: int) -> tuple[tuple[int, complex], ...]:
    """The frequency-free part of _theorem for one (family, d, b, n).

    One entry (mu, G) per (mu, nu) pair of the composition sum: its
    composition weight (see _composition_weights), times the powers of i
    and 2, d^{nu+1}/nu! and the kernel coefficient A_nu at x2. The value
    at frequency m is -sum m^mu/mu! * 2 Re(x1*G): the second branch is
    the conjugate of x1*G, so neither the kernel at x2' nor the
    combination sign is built. The pairs are not summed over nu here:
    that reorders the cancellation between them.
    """
    traits = TRAITS[family]
    odd = traits.odd_m
    p = pole_order(family, n)
    kernel = apostol_coeff_table(p - 1, phase(-2.0 * d * b))
    extra_i = 1 if traits.prefix == "cos" else 0
    out = []
    for mu, nu, w in _composition_weights(traits.shift_kind, p):
        ip = _I_POWERS[(mu + nu + extra_i) % 4]
        two = 2.0 ** (nu if odd else mu + nu)
        c = ip * two * (d ** (nu + 1) / math.factorial(nu)) * w
        out.append((mu, c * kernel[nu]))
    return tuple(out)


def _theorem(spec: SumSpec, b: float) -> float:
    """The multi-index value of a validated power-family spec whose shift, reduced, is b.

    It adds m^mu/mu! * 2 Re(x1*G) over the slice in real arithmetic: the
    second branch is the conjugate of x1*G (see the module docstring), so
    the pair sums to twice its real part. Cold and warm calls take the
    same arithmetic. closed_form_value calls it above n = 1 only, where
    no spec is the classical point.
    """
    enter_walk(spec.family)
    traits = TRAITS[spec.family]
    m, fold_sign = frequency_fold(spec)
    if m is None:
        return 0.0
    # cached weights and slices skip the coefficient calls, so the cap is checked here
    check_index(pole_order(spec.family, spec.n) - 1, "apostol_coeff")
    x1 = phase(-m * (b - 1.0) if traits.odd_m else -2.0 * m * b)
    acc = 0.0
    for mu, g in _power_slice(spec.family, spec.d, b, spec.n):
        zr = (x1 * g).real
        acc += (m ** mu / math.factorial(mu)) * (zr + zr)
    return -fold_sign * acc


def closed_form_value(spec: SumSpec) -> SumValue:
    """The first-power form at n = 1, the multi-index expression above it."""
    spec = validate_params(spec)
    b, b2 = reduced_shifts(spec)
    if spec.n == 1:
        value = _first_power(spec, TRAITS[spec.family], b, b2)
    else:
        value = _theorem(spec, b)
    return SumValue(value + 0.0, "closed-form")
