"""Closed-form paths: known values, reductions, symmetry invariants."""

import math
import random

import pytest

from trigsum import (
    POWER_FAMILIES,
    TRAITS,
    Family,
    SumSpec,
    closed_form_value,
    corollary_value,
    direct_sum,
    double_range_cot_sum,
    sum_via_residues,
    tangent_sum,
    theorem_sum,
    triple_product_sum,
    validate_params,
)
from trigsum import closed_form
from trigsum.cli import grid_cases
from trigsum.closed_form import SLICE_CACHE_SIZE, _power_slice
from trigsum.multiindex import enumerate_compositions
from trigsum.errors import NumericError, ParameterError


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


def test_slice_cache_keeps_the_coefficient_cap(monkeypatch):
    spec = SumSpec(Family.COS_CSC_2N, 6, 1, 0.137, 4)   # kernel index 2n - 1 = 7
    theorem_sum(spec)
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "6")
    with pytest.raises(NumericError, match="order too large"):
        theorem_sum(spec)


def test_slice_cache_is_bounded():
    for k in range(SLICE_CACHE_SIZE + 12):
        theorem_sum(SumSpec(Family.COS_COT, 7, 1, 0.01 + k / 1000, 2))
    assert _power_slice.cache_info().currsize == SLICE_CACHE_SIZE


def test_slice_cache_holds_one_family_and_d():
    theorem_sum(SumSpec(Family.SIN_COT, 7, 1, 0.137, 2))
    assert _power_slice.cache_info().currsize == 1
    theorem_sum(SumSpec(Family.COS_COT, 7, 1, 0.137, 2))
    assert _power_slice.cache_info().currsize == 1
    theorem_sum(SumSpec(Family.COS_COT, 7, 2, 0.2, 3))
    assert _power_slice.cache_info().currsize == 2
    theorem_sum(SumSpec(Family.COS_COT, 8, 1, 0.137, 2))
    assert _power_slice.cache_info().currsize == 1


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
    # one build per (family, d, b, n) of the grid, not one per m
    slices = {(s.family, s.d, s.b, s.n) for s in specs}
    assert passes[0][0] <= len(slices) < len(specs)


# --- tangent and doubled-range forms -----------------------------------------

def test_tangent_known_values():
    assert tangent_sum(SumSpec(Family.COS_TAN, 2, 1, 0.25)).value == 2.0
    assert tangent_sum(SumSpec(Family.SIN_TAN, 2, 1, 0.25)).value == 0.0


def test_tangent_odd_d_against_oracle():
    spec = SumSpec(Family.COS_TAN, 3, 1, 1 / 12)
    closed = tangent_sum(spec).value
    oracle = direct_sum(spec).value
    assert rel_err(closed, oracle) <= 1e-12
    assert closed == pytest.approx(-(3 / 2) * (math.sqrt(3) - 1), rel=1e-13)


def test_doubled_range_known_values():
    got = double_range_cot_sum(SumSpec(Family.COS_COT_2D, 2, 1, 0.1)).value
    assert got == pytest.approx(4 / math.sin(0.4 * math.pi), rel=1e-15)
    assert got == pytest.approx(4.2058488969530687, rel=1e-15)
    assert double_range_cot_sum(SumSpec(Family.SIN_COT_2D, 2, 1, 0.1)).value == 0.0


def test_doubled_range_against_oracle():
    spec = SumSpec(Family.COS_COT_2D, 3, 2, 0.05)
    closed = double_range_cot_sum(spec).value
    assert rel_err(closed, direct_sum(spec).value) <= 1e-12
    assert closed == pytest.approx(7.0534230275096803, rel=1e-13)


# --- triple products ----------------------------------------------------------

def test_triple_known_value():
    got = triple_product_sum(SumSpec(Family.COS_CSC_COS, 2, 1, 0.25, 1, 0.3)).value
    assert got == pytest.approx(2 * math.cos(0.05 * math.pi), rel=1e-14)


def test_triple_reduces_to_cotangent_corollary_when_shifts_coincide():
    # cosec(x)*cos(x) = cot(x): the b2 = b triple is the first-power cotangent sum
    triple = triple_product_sum(SumSpec(Family.COS_CSC_COS, 3, 1, 0.2, 1, 0.2)).value
    corollary = corollary_value(SumSpec(Family.COS_COT, 3, 1, 0.2)).value
    assert triple == corollary


def test_triple_two_singular_factors_against_oracle():
    spec = SumSpec(Family.COS_CSC_CSC, 3, 1, 0.1, 1, 0.3)
    closed = triple_product_sum(spec).value
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
            assert triple_product_sum(spec).value == 0.0
            assert sum_via_residues(spec).value == 0.0


def test_validate_is_idempotent():
    spec = validate_params(SumSpec(Family.COS_CSC_ODD, 7, 3, 0.21, 2))
    assert validate_params(spec) == spec
    coerced = validate_params(SumSpec("cos-cot", 3, 1, 0.1))
    assert coerced.family is Family.COS_COT
