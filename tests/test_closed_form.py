"""Closed-form paths: known values, reductions, symmetry invariants."""

import math
import random
from fractions import Fraction

import pytest

from trigsum import (
    POWER_FAMILIES,
    TRAITS,
    Family,
    SumSpec,
    closed_form_value,
    corollary_value,
    direct_sum,
    sum_via_residues,
    theorem_sum,
    validate_params,
)
from trigsum import closed_form
from trigsum.cli import grid_cases
from trigsum.closed_form import (
    SLICE_CACHE_SIZE,
    _composition_shape,
    _composition_weights,
    _power_slice,
)
from trigsum.coefficients import cot_coeff, csc_coeff
from trigsum.multiindex import enumerate_compositions
from trigsum.errors import NumericError, ParameterError
from trigsum.trig import cos_pi, csc_pi, sec_pi, sin_pi


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(got), abs(want))


# --- validation -------------------------------------------------------------

def test_validate_rejects_shift_on_pole():
    with pytest.raises(ParameterError, match="parameter on singular set"):
        validate_params(SumSpec(Family.COS_COT, 4, 1, 0.25))


def test_validate_accepts_half_integer_product():
    spec = validate_params(SumSpec(Family.COS_COT, 3, 1, 1 / 6))
    assert spec.d == 3 and spec.n == 1


def test_validate_rejects_even_m_for_odd_families():
    with pytest.raises(ParameterError, match="m must be odd"):
        validate_params(SumSpec(Family.SIN_CSC_ODD, 5, 2, 0.1))


def test_validate_rejects_m_out_of_range():
    with pytest.raises(ParameterError, match="m out of range"):
        validate_params(SumSpec(Family.COS_COT, 3, 3, 0.1))
    with pytest.raises(ParameterError, match="m out of range"):
        validate_params(SumSpec(Family.COS_COT, 3, 0, 0.1))


def test_validate_b2_bookkeeping():
    with pytest.raises(ParameterError, match="b2 required"):
        validate_params(SumSpec(Family.COS_CSC_COS, 3, 1, 0.1))
    with pytest.raises(ParameterError, match="b2 not accepted"):
        validate_params(SumSpec(Family.COS_COT, 3, 1, 0.1, 1, 0.3))
    with pytest.raises(ParameterError, match="n is fixed at 1"):
        validate_params(SumSpec(Family.COS_TAN, 3, 1, 0.1, 2))


def test_validate_cross_degeneracies():
    with pytest.raises(ParameterError, match="congruent mod 1"):
        validate_params(SumSpec(Family.COS_CSC_CSC, 3, 1, 0.1, 1, 1.1))
    with pytest.raises(ParameterError, match="congruent to 1/2"):
        validate_params(SumSpec(Family.COS_CSC_SEC, 3, 1, 0.6, 1, 0.1))
    # the same offsets are fine for the cosec*cos family
    validate_params(SumSpec(Family.COS_CSC_COS, 3, 1, 0.1, 1, 1.1))


def test_validate_tangent_parity_lattices():
    # even d excludes integer b*d; odd d excludes odd 2*b*d
    with pytest.raises(ParameterError, match="singular set"):
        validate_params(SumSpec(Family.COS_TAN, 4, 1, 0.5))
    with pytest.raises(ParameterError, match="odd integer"):
        validate_params(SumSpec(Family.COS_TAN, 3, 1, 0.5))
    validate_params(SumSpec(Family.COS_TAN, 4, 1, 0.375))


def test_validate_doubled_range_lattice():
    with pytest.raises(ParameterError, match="singular set"):
        validate_params(SumSpec(Family.COS_COT_2D, 2, 1, 0.25))
    validate_params(SumSpec(Family.COS_COT_2D, 2, 1, 0.1))


# --- corollary values -------------------------------------------------------

def test_corollary_known_values():
    assert corollary_value(SumSpec(Family.COS_COT, 2, 1, 0.25)).value == 2.0
    assert corollary_value(SumSpec(Family.SIN_COT, 2, 1, 0.25)).value == 0.0
    got = corollary_value(SumSpec(Family.COS_COT, 3, 1, 1 / 6)).value
    assert got == pytest.approx(3 * math.cos(math.pi / 6), rel=1e-15)
    got = corollary_value(SumSpec(Family.SIN_CSC_2N, 3, 1, 0.25)).value
    assert got == pytest.approx(-12.0, rel=1e-12)
    got = corollary_value(SumSpec(Family.SIN_CSC_ODD, 2, 1, 0.25)).value
    assert got == pytest.approx(math.sqrt(2), rel=1e-15)
    assert corollary_value(SumSpec(Family.COS_CSC_2N, 2, 1, 0.25)).value == 0.0


def test_corollary_rejects_higher_power_and_wrong_kind():
    with pytest.raises(ParameterError):
        corollary_value(SumSpec(Family.COS_COT, 3, 1, 0.1, 2))
    with pytest.raises(ParameterError):
        corollary_value(SumSpec(Family.COS_TAN, 3, 1, 0.1))


def test_classical_dispensation_value():
    assert corollary_value(SumSpec(Family.SIN_COT, 5, 2, 0.0)).value == 1.0


# --- theorem (multi-index) values -------------------------------------------

def test_theorem_n1_matches_corollary_exactly_on_quarter_turn():
    spec = SumSpec(Family.COS_COT, 2, 1, 0.25)
    assert theorem_sum(spec).value == 2.0
    assert theorem_sum(spec).value == corollary_value(spec).value


def test_theorem_n2_cancellation():
    got = theorem_sum(SumSpec(Family.COS_COT, 2, 1, 0.25, 2)).value
    assert abs(got) <= 1e-12


def test_theorem_even_cosec_example():
    got = theorem_sum(SumSpec(Family.SIN_CSC_2N, 3, 1, 0.25)).value
    assert got == pytest.approx(-12.0, rel=1e-12)


def test_theorem_n1_reduction_random_specs():
    rng = random.Random(160826)
    families = list(POWER_FAMILIES)
    checked = 0
    while checked < 200:
        family = rng.choice(families)
        d = rng.randint(2, 12)
        m = rng.randint(1, d - 1)
        if TRAITS[family].odd_m and m % 2 == 0:
            continue
        b = rng.uniform(-1.5, 1.5)
        try:
            spec = validate_params(SumSpec(family, d, m, b))
        except ParameterError:
            continue
        t = theorem_sum(spec).value
        c = corollary_value(spec).value
        assert rel_err(t, c) <= 1e-12, (spec, t, c)
        checked += 1


def test_theorem_imag_residual_bound():
    rng = random.Random(905)
    checked = 0
    while checked < 60:
        family = rng.choice(list(POWER_FAMILIES))
        d = rng.randint(2, 10)
        m = rng.randint(1, d - 1)
        if TRAITS[family].odd_m and m % 2 == 0:
            continue
        try:
            spec = validate_params(SumSpec(family, d, m, rng.uniform(0.02, 0.98), rng.randint(1, 3)))
        except ParameterError:
            continue
        out = theorem_sum(spec)
        assert out.imag_residual <= 1e-9 * max(1.0, abs(out.value))
        checked += 1


# --- the frequency-free slice cache ------------------------------------------

def _bits(value):
    return value.value.hex(), value.imag_residual.hex()


def test_slice_cache_cold_and_warm_give_the_same_bits():
    # cos-cot and sin-csc-2n fold m > d/2 onto the slice of d - m
    for family, d, n in ((Family.COS_COT, 9, 3), (Family.SIN_CSC_2N, 8, 3),
                         (Family.COS_CSC_ODD, 9, 3)):
        specs = [validate_params(SumSpec(family, d, m, 0.137, n))
                 for m in range(1, d) if not TRAITS[family].odd_m or m % 2]
        for spec in specs:
            _power_slice.cache_clear()
            cold = theorem_sum(spec)
            _power_slice.cache_clear()
            for other in specs:
                if other is not spec:
                    theorem_sum(other)
            assert _power_slice.cache_info().currsize == 1
            warm = theorem_sum(spec)
            assert _bits(warm) == _bits(cold), spec


def test_warm_weights_and_a_cold_slice_give_the_same_bits():
    # a new b on the same (family, d, n) reuses the weights, not the slice
    for family, d, n in ((Family.COS_COT, 9, 3), (Family.SIN_CSC_2N, 8, 3),
                         (Family.COS_CSC_ODD, 9, 3)):
        specs = [validate_params(SumSpec(family, d, m, 0.137, n))
                 for m in range(1, d) if not TRAITS[family].odd_m or m % 2]
        for spec in specs:
            _power_slice.cache_clear()
            _composition_weights.cache_clear()
            cold = theorem_sum(spec)
            _power_slice.cache_clear()
            theorem_sum(SumSpec(family, d, 1, 0.2, n))
            built = _composition_weights.cache_info().misses
            warm = theorem_sum(spec)
            assert _composition_weights.cache_info().misses == built
            assert _bits(warm) == _bits(cold), spec


def test_slice_cache_keeps_the_coefficient_cap(monkeypatch):
    spec = SumSpec(Family.COS_CSC_2N, 6, 1, 0.137, 4)   # kernel index 2n - 1 = 7
    theorem_sum(spec)
    assert _composition_weights.cache_info().currsize == 1
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "6")
    with pytest.raises(NumericError, match="order too large"):
        theorem_sum(spec)
    # warm weights, cold slice
    with pytest.raises(NumericError, match="order too large"):
        theorem_sum(SumSpec(Family.COS_CSC_2N, 6, 1, 0.2, 4))


def test_slice_cache_is_bounded():
    for k in range(SLICE_CACHE_SIZE + 12):
        theorem_sum(SumSpec(Family.COS_COT, 7, 1, 0.01 + k / 1000, 2))
    assert _power_slice.cache_info().currsize == SLICE_CACHE_SIZE


def test_slice_cache_holds_one_family_and_d():
    def sizes():
        return _power_slice.cache_info().currsize, _composition_weights.cache_info().currsize

    theorem_sum(SumSpec(Family.SIN_COT, 7, 1, 0.137, 2))
    assert sizes() == (1, 1)
    theorem_sum(SumSpec(Family.COS_COT, 7, 1, 0.137, 2))
    assert sizes() == (1, 1)
    theorem_sum(SumSpec(Family.COS_COT, 7, 2, 0.2, 3))
    assert sizes() == (2, 2)
    theorem_sum(SumSpec(Family.COS_COT, 7, 3, 0.3, 3))
    assert sizes() == (3, 2)
    theorem_sum(SumSpec(Family.COS_COT, 8, 1, 0.137, 2))
    assert sizes() == (1, 1)


def test_every_pass_over_a_grid_does_the_same_work(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return enumerate_compositions(*args)

    monkeypatch.setattr(closed_form, "enumerate_compositions", counted)
    specs = [spec for spec, _ in grid_cases(POWER_FAMILIES[:2], 5, 3) if spec.n >= 2]
    passes = []
    for _ in range(3):
        made.clear()
        values = [_bits(theorem_sum(spec)) for spec in specs]
        passes.append((len(made), values))
    assert passes[0] == passes[1] == passes[2]
    # one enumeration per (family, d, n) of the grid, not one per b or m
    weights = {(s.family, s.d, s.n) for s in specs}
    slices = {(s.family, s.d, s.b, s.n) for s in specs}
    assert passes[0][0] <= len(weights) < len(slices) < len(specs)


def _power_series_coefficients(coeff, parts, top):
    """[x^S] C(x)^parts for S = 0..top, exactly, with C(x) = sum_j coeff(j) x^j."""
    base = [coeff(j) for j in range(top + 1)]
    out = [Fraction(1)] + [Fraction(0)] * top
    for _ in range(parts):
        out = [sum(out[i] * base[s - i] for i in range(s + 1)) for s in range(top + 1)]
    return out


def test_composition_weights_are_one_polynomial_power():
    # the tuples with a given (mu, nu) are those with sum(js) = S, so their
    # summed weight is one coefficient of C(x)^parts
    try:
        for family in (Family.COS_COT, Family.SIN_CSC_2N, Family.SIN_CSC_ODD):
            kind = TRAITS[family].shift_kind
            coeff = cot_coeff if kind == "cot" else csc_coeff
            for n in range(1, 6):
                total, parts, parity = _composition_shape(TRAITS[family], n)
                power = _power_series_coefficients(coeff, parts, total // 2)
                coeffs = [coeff(j) for j in range(total // 2 + 1)]
                exact: dict[tuple[int, int], Fraction] = {}
                for tup in enumerate_compositions(total, parts, parity):
                    key = (tup.mu, tup.nu)
                    exact[key] = exact.get(key, 0) + math.prod(coeffs[j] for j in tup.js)
                memo = _composition_weights(kind, total, parts, parity)
                assert [(mu, nu) for mu, nu, _ in memo] == list(exact)
                assert set(exact) == {(mu, nu) for mu in range(total + 1)
                                      for nu in range(total + 1 - mu)
                                      if (mu + nu - total) % 2 == 0}
                for mu, nu, w in memo:
                    want = power[(total - mu - nu) // 2]
                    assert exact[(mu, nu)] == want, (family, n, mu, nu)
                    assert w == float(want), (family, n, mu, nu)
    finally:
        _composition_weights.cache_clear()


# --- the reduction onto the first-power cot sum -------------------------------

# closed values of the hand-written per-family forms the reduction
# replaced, at m = 3 for (d, b) = (10, 0.137), (10, 1/3 + 1/70),
# (11, 0.137), (11, 1/3 + 1/77), with the grid's b2 = b + 0.31
PINNED_N1 = {
    Family.COS_TAN: (1.6368818518217492, 3.3827587533899184, -418.1055859144851, 9.942056537420122),
    Family.SIN_TAN: (-10.77250625679053, 9.440261552572732, -274.6440359459666, 8.85441173205701),
    Family.COS_COT_2D: (-26.19768557459862, -103.650726608192, 198.71793308959832, 2.725969656920766),
    Family.SIN_COT_2D: (-8.149639652607924, 85.22626314490506, 459.21004895139004, 23.47597338807257),
    Family.COS_COT: (1.6368818518217492, 3.3827587533899184, 6.040711615245476, -12.987036751241822),
    Family.SIN_COT: (-10.77250625679053, 9.440261552572732, -9.196104552328755, 14.582318683796194),
    Family.COS_CSC_COS: (0.9200640804168193, 1.9013924665642674, 3.395383589327776, -7.299797485427762),
    Family.COS_CSC_SIN: (1.3538331820243408, 2.797814052386035, 4.996155231764245, -10.741325814341927),
    Family.COS_SEC_COS: (-1.3538331820243408, -2.7978140523860344, 345.80700810555453, -8.222881830439597),
    Family.COS_SEC_SIN: (0.9200640804168193, 1.901392466564268, -235.01020002965794, 5.588264721349958),
    Family.SIN_CSC_COS: (-6.055046704750032, 5.3062141012776785, -5.168977509854301, 8.196478942704397),
    Family.SIN_CSC_SIN: (-8.909730661242623, 7.807856946203923, -7.60591943422898, 12.06075251124883),
    Family.COS_CSC_CSC: (-7.570065096699733, 9.049801604606236, -30.852504926175637, -28.944952013265436),
    Family.COS_CSC_SEC: (16.963350753322032, -1.279877024966913, 24.37869266218927, -42.732179010524845),
    Family.COS_SEC_SEC: (7.570065096699735, -9.049801604606238, 514.7838620098963, -25.35915841789963),
    Family.SIN_CSC_CSC: (-5.52106675272942, -0.0005906823719712406, -45.838187560969374, 1.4584019372214385),
    Family.SIN_CSC_SEC: (-30.206631475218714, 33.59112258257881, -31.341779683973463, 42.01453848721243),
    Family.SIN_SEC_SEC: (5.5210667527294195, 0.0005906823719659116, 321.8833271947375, 0.21635533647305616),
}


@pytest.mark.parametrize("family", list(PINNED_N1), ids=lambda f: f.value)
def test_reduced_families_keep_their_values(family):
    traits = TRAITS[family]
    # the cot, tangent and doubled-range forms are the same float products;
    # the triple products round their cross factors and differences anew
    if traits.kind != "triple":
        bound = 0.0
    elif traits.second_kind in ("cos", "sin"):
        bound = 1e-15
    else:
        bound = 1e-13
    cases = [(d, b) for d in (10, 11) for b in (0.137, 1.0 / 3.0 + 1.0 / (7.0 * d))]
    for (d, b), want in zip(cases, PINNED_N1[family]):
        b2 = b + 0.31 if traits.kind == "triple" else None
        got = closed_form_value(SumSpec(family, d, 3, b, 1, b2)).value
        if bound == 0.0:
            assert got == want, (d, b)
        else:
            assert rel_err(got, want) <= bound, (d, b)


def test_quarter_turns_are_taken_exactly():
    # dyadic x, so x + q/2 is exact and the folded helpers agree bit for bit
    for x in (0.0, 0.1875, -0.3125, 0.4375, 1.125):
        for q in range(-4, 8):
            shifted = x + q / 2
            assert closed_form._quarter_turns(x, q) == sin_pi(shifted), (x, q)
            assert abs(closed_form._quarter_turns(x, q)) == abs(
                sin_pi(x) if q % 2 == 0 else cos_pi(x)
            )
            if sin_pi(shifted) != 0.0:
                assert closed_form._quarter_turns(x, q, True) == csc_pi(shifted), (x, q)
                want = csc_pi(x) if q % 2 == 0 else sec_pi(x)
                assert abs(closed_form._quarter_turns(x, q, True)) == abs(want)
    with pytest.raises(NumericError, match="sec"):
        closed_form._quarter_turns(0.5, 3, True)
    with pytest.raises(NumericError, match="cosec"):
        closed_form._quarter_turns(1.0, -2, True)


# --- tangent and doubled-range forms -----------------------------------------

def test_tangent_known_values():
    assert closed_form_value(SumSpec(Family.COS_TAN, 2, 1, 0.25)).value == 2.0
    assert closed_form_value(SumSpec(Family.SIN_TAN, 2, 1, 0.25)).value == 0.0


def test_tangent_odd_d_against_oracle():
    spec = SumSpec(Family.COS_TAN, 3, 1, 1 / 12)
    closed = closed_form_value(spec).value
    oracle = direct_sum(spec).value
    assert rel_err(closed, oracle) <= 1e-12
    assert closed == pytest.approx(-(3 / 2) * (math.sqrt(3) - 1), rel=1e-13)


def test_doubled_range_known_values():
    got = closed_form_value(SumSpec(Family.COS_COT_2D, 2, 1, 0.1)).value
    assert got == pytest.approx(4 / math.sin(0.4 * math.pi), rel=1e-15)
    assert got == pytest.approx(4.2058488969530687, rel=1e-15)
    assert closed_form_value(SumSpec(Family.SIN_COT_2D, 2, 1, 0.1)).value == 0.0


def test_doubled_range_against_oracle():
    spec = SumSpec(Family.COS_COT_2D, 3, 2, 0.05)
    closed = closed_form_value(spec).value
    assert rel_err(closed, direct_sum(spec).value) <= 1e-12
    assert closed == pytest.approx(7.0534230275096803, rel=1e-13)


# --- triple products ----------------------------------------------------------

def test_triple_known_value():
    got = closed_form_value(SumSpec(Family.COS_CSC_COS, 2, 1, 0.25, 1, 0.3)).value
    assert got == pytest.approx(2 * math.cos(0.05 * math.pi), rel=1e-14)


def test_triple_reduces_to_cotangent_corollary_when_shifts_coincide():
    # cosec(x)*cos(x) = cot(x): the b2 = b triple is the first-power cotangent sum
    triple = closed_form_value(SumSpec(Family.COS_CSC_COS, 3, 1, 0.2, 1, 0.2)).value
    corollary = corollary_value(SumSpec(Family.COS_COT, 3, 1, 0.2)).value
    assert triple == corollary


def test_triple_two_singular_factors_against_oracle():
    spec = SumSpec(Family.COS_CSC_CSC, 3, 1, 0.1, 1, 0.3)
    closed = closed_form_value(spec).value
    assert rel_err(closed, direct_sum(spec).value) <= 1e-12
    assert closed == pytest.approx(-3.7082039324993534, rel=1e-12)


def test_every_family_agrees_with_oracle_smoke():
    for family in Family:
        traits = TRAITS[family]
        for d in (2, 5):
            m = 1
            b = 0.137
            b2 = b + 0.31 if traits.kind == "triple" else None
            try:
                spec = validate_params(SumSpec(family, d, m, b, 1, b2))
            except ParameterError:
                continue
            closed = closed_form_value(spec).value
            oracle = direct_sum(spec).value
            assert rel_err(closed, oracle) <= 1e-8, (family, d)


# --- symmetry and limit invariants --------------------------------------------

def test_m_reflection():
    for d in (5, 8, 11):
        for m in range(1, d // 2 + 1):
            b = 0.137
            cos_lo = SumSpec(Family.COS_COT, d, m, b)
            cos_hi = SumSpec(Family.COS_COT, d, d - m, b)
            assert direct_sum(cos_lo).value == direct_sum(cos_hi).value
            assert rel_err(corollary_value(cos_lo).value, corollary_value(cos_hi).value) <= 1e-10
            sin_lo = SumSpec(Family.SIN_COT, d, m, b)
            sin_hi = SumSpec(Family.SIN_COT, d, d - m, b)
            assert direct_sum(sin_hi).value == -direct_sum(sin_lo).value
            assert rel_err(corollary_value(sin_hi).value, -corollary_value(sin_lo).value) <= 1e-10


def test_shift_periodicity_of_closed_forms():
    even_power = (Family.COS_COT, Family.SIN_COT, Family.SIN_CSC_2N, Family.COS_CSC_2N)
    for family in even_power:
        for b in (0.137, 0.3183, -0.41):
            v0 = corollary_value(SumSpec(family, 5, 2, b)).value
            v1 = corollary_value(SumSpec(family, 5, 2, b + 1.0)).value
            assert rel_err(v0, v1) <= 1e-10, (family, b)
    for family in (Family.SIN_CSC_ODD, Family.COS_CSC_ODD):
        for b in (0.137, 0.3183, -0.41):
            v0 = corollary_value(SumSpec(family, 5, 3, b)).value
            v2 = corollary_value(SumSpec(family, 5, 3, b + 2.0)).value
            assert rel_err(v0, v2) <= 1e-10, (family, b)


def test_classical_limit_small_b():
    for d in range(2, 13):
        for m in range(1, d):
            got = corollary_value(SumSpec(Family.SIN_COT, d, m, 1e-6)).value
            assert abs(got - (d - 2 * m)) <= 1e-4


def test_midpoint_sine_sums_are_exactly_zero():
    # at 2m = d every sine prefix is sin(pi*j) = 0; all paths must return 0.0
    for d in (4, 6, 8):
        m = d // 2
        for family in (Family.SIN_COT, Family.SIN_CSC_2N):
            for n in (1, 2, 3):
                spec = SumSpec(family, d, m, 0.137, n)
                assert direct_sum(spec).value == 0.0
                assert theorem_sum(spec).value == 0.0
                assert sum_via_residues(spec).value == 0.0
        for family in (Family.SIN_CSC_COS, Family.SIN_CSC_SIN):
            spec = SumSpec(family, d, m, 0.137, 1, 0.447)
            assert direct_sum(spec).value == 0.0
            assert closed_form_value(spec).value == 0.0
            assert sum_via_residues(spec).value == 0.0


def test_validate_is_idempotent():
    spec = validate_params(SumSpec(Family.COS_CSC_ODD, 7, 3, 0.21, 2))
    assert validate_params(spec) == spec
    coerced = validate_params(SumSpec("cos-cot", 3, 1, 0.1))
    assert coerced.family is Family.COS_COT
