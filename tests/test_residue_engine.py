"""Laurent arithmetic, the singular factor's expansion, and residue reconstruction."""

import cmath
import math
import random
import re
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsum import (
    POWER_FAMILIES,
    RESIDUE_FAMILIES,
    TRAITS,
    Family,
    SumSpec,
    apostol_coeff_table,
    boundary_residues,
    closed_form_value,
    conditioning,
    direct_sum,
    residue_at_interior_pole,
    sum_via_residues,
    validate_params,
)
from trigsum.cli import grid_cases
from trigsum.errors import NumericError, ParameterError
from trigsum.families import frequency_fold, pole_order, reduced_shifts
from trigsum import residue_engine
from trigsum.residue_engine import (LaurentSeries, _integrand, _kernels, _numerators, _singular_power,
                                    expand_factor, series_mul, series_pow)
from trigsum.trig import (QUARTER_TURNS, cos_pi_ratio, cot_pi, csc_pi, phase, quarter_turns,
                          sin_pi_ratio)


def series(min_degree, coeffs):
    """The series with these coefficients from w^min_degree, truncated after the last."""
    cs = tuple(complex(c) for c in coeffs)
    return LaurentSeries(min_degree, cs, min_degree + len(cs) - 1)


def coeffs_close(a, b, lo, hi, tol):
    for deg in range(lo, hi + 1):
        ca, cb = a.coefficient(deg), b.coefficient(deg)
        if abs(ca - cb) > tol * max(1.0, abs(ca), abs(cb)):
            return False
    return True


# --- series arithmetic --------------------------------------------------------

def test_mul_examples():
    s = series_mul(series(-1, [1.0]), series(1, [1.0]))
    assert s.coefficient(0) == 1.0
    a = series(0, [1.0, 1.0, 0.0])
    b = series(0, [1.0, -1.0, 0.0])
    s = series_mul(a, b)
    assert (s.coefficient(0), s.coefficient(1), s.coefficient(2)) == (1.0, 0j, -1.0)


def test_pow_examples():
    s = series_pow(series(-1, [1.0]), 2)
    assert s.min_degree == -2 and s.coefficient(-2) == 1.0
    cube = series_pow(series(0, [1.0, 1.0, 0.0, 0.0]), 3)
    assert [cube.coefficient(k).real for k in range(4)] == [1.0, 3.0, 3.0, 1.0]
    with pytest.raises(ParameterError, match="must be positive"):
        series_pow(series(0, [1.0]), 0)


def test_cot_times_sin_is_cos():
    order = 10
    cot = expand_factor("cot", order)
    taylor = [math.pi ** k / math.factorial(k) for k in range(order + 1)]
    sin = series(0, [(0, 1, 0, -1)[k % 4] * t for k, t in enumerate(taylor)])
    cos = series(0, [(1, 0, -1, 0)[k % 4] * t for k, t in enumerate(taylor)])
    prod = series_mul(cot, sin)
    assert prod.min_degree >= 0
    assert coeffs_close(prod, cos, 0, prod.truncation_order, 1e-10)


def test_squared_cotangent_leading_term():
    sq = series_pow(expand_factor("cot", 6), 2)
    assert sq.min_degree == -2
    assert sq.coefficient(-2).real == pytest.approx(math.pi ** -2, rel=1e-15)


def test_series_shape_contracts():
    with pytest.raises(ParameterError, match="inconsistent series shape"):
        LaurentSeries(0, (1.0 + 0j,), 5)
    s = series(0, [1.0, 2.0])
    assert s.coefficient(-3) == 0j
    with pytest.raises(ParameterError, match="beyond truncation"):
        s.coefficient(2)


_coeff = st.tuples(
    st.floats(-8, 8, allow_nan=False), st.floats(-8, 8, allow_nan=False)
).map(lambda p: complex(*p))

_series = st.builds(series, st.integers(-3, 2), st.lists(_coeff, min_size=1, max_size=6))


@settings(max_examples=120, deadline=None)
@given(_series, _series)
def test_mul_commutes(a, b):
    ab, ba = series_mul(a, b), series_mul(b, a)
    assert ab.min_degree == ba.min_degree
    assert ab.truncation_order == ba.truncation_order
    assert coeffs_close(ab, ba, ab.min_degree, ab.truncation_order, 1e-12)


@settings(max_examples=120, deadline=None)
@given(_series, _series, _series)
def test_mul_associates_on_common_span(a, b, c):
    left = series_mul(series_mul(a, b), c)
    right = series_mul(a, series_mul(b, c))
    lo = max(left.min_degree, right.min_degree)
    hi = min(left.truncation_order, right.truncation_order)
    if lo <= hi:
        assert coeffs_close(left, right, lo, hi, 1e-12)


# --- the singular factor ----------------------------------------------------------

def test_expand_cot_low_order():
    s = expand_factor("cot", 1)
    assert s.coefficient(-1).real == pytest.approx(1 / math.pi, rel=1e-15)
    assert s.coefficient(0) == 0j
    assert s.coefficient(1).real == pytest.approx(-math.pi / 3, rel=1e-15)


def test_expand_csc_low_order():
    # local frame sits one half period past the pole, so the cosecant
    # carries the reflected sign
    s = expand_factor("csc", 1)
    assert s.coefficient(-1).real == pytest.approx(-1 / math.pi, rel=1e-15)
    assert s.coefficient(1).real == pytest.approx(-math.pi / 6, rel=1e-15)


def test_expand_rejects_bad_requests():
    # only the singular factor is a kind; the exponential and the kernel are not
    for kind in ("tan", "cot_shifted", "exp_linear", "apostol_kernel"):
        with pytest.raises(ParameterError, match="unknown factor kind"):
            expand_factor(kind, 3)
    with pytest.raises(ParameterError, match="below the pole degree"):
        expand_factor("cot", -2)


def series_eval(a, w):
    """The truncated series at a point."""
    return sum(c * w ** (a.min_degree + i) for i, c in enumerate(a.coeffs))


@pytest.mark.parametrize("theta", [0.3, 2.1, 4.0])
def test_expansion_fidelity_on_small_circle(theta):
    w = 0.05 * cmath.exp(1j * theta)
    got = series_eval(expand_factor("cot", 14), w)
    want = cmath.cos(math.pi * w) / cmath.sin(math.pi * w)
    assert abs(got - want) <= 1e-9

    got = series_eval(expand_factor("csc", 14), w)
    assert abs(got - (-1.0 / cmath.sin(math.pi * w))) <= 1e-9


# --- residues -----------------------------------------------------------------------

def test_pole_orders():
    assert pole_order(Family.COS_COT, 3) == 3
    assert pole_order(Family.SIN_CSC_2N, 2) == 4
    assert pole_order(Family.SIN_CSC_ODD, 2) == 3
    with pytest.raises(ParameterError, match="not a power family"):
        pole_order(Family.COS_CSC_COS, 1)


def test_residue_functions_reject_uncovered_specs():
    for spec in (
        SumSpec(Family.COS_TAN, 5, 2, 0.17),
        SumSpec(Family.COS_SEC_COS, 5, 2, 0.07, 1, 0.2),
        SumSpec(Family.SIN_SEC_SEC, 5, 2, 0.07, 1, 0.21),
    ):
        for path in (residue_at_interior_pole, boundary_residues):
            with pytest.raises(ParameterError, match="not covered by the residue engine"):
                path(spec)
    # at the classical point the interior pole merges with the j = 0 boundary pole
    for path in (residue_at_interior_pole, boundary_residues, sum_via_residues):
        with pytest.raises(ParameterError, match="classical point b = 0"):
            path(SumSpec(Family.SIN_COT, 5, 2, 0.0))


def test_residue_functions_take_a_product_spec():
    # a csc x cos/sin product's residues are the first-power cot integrand's
    # at (d, m, b), times sin(pi (b2 - b + r/2))
    for family in (f for f in RESIDUE_FAMILIES if TRAITS[f].kind == "triple"):
        traits = TRAITS[family]
        cot = Family.COS_COT if traits.prefix == "cos" else Family.SIN_COT
        for d, m, b, b2 in ((5, 2, 0.137, 0.447), (8, 3, 0.71, 0.05), (3, 1, 0.29, 1.4)):
            product = SumSpec(family, d, m, b, 1, b2)
            constant = quarter_turns(b2 - b, QUARTER_TURNS[traits.second_kind])
            plain = SumSpec(cot, d, m, b)
            assert residue_at_interior_pole(product) == \
                constant * residue_at_interior_pole(plain), product
            assert boundary_residues(product) == \
                tuple(constant * r for r in boundary_residues(plain)), product


def test_interior_residue_examples():
    assert abs(residue_at_interior_pole(SumSpec(Family.COS_COT, 2, 1, 0.25)) - 1j / math.pi) <= 1e-12
    assert abs(residue_at_interior_pole(SumSpec(Family.SIN_COT, 2, 1, 0.25))) <= 1e-15


def _exp_series(a, order):
    """exp(a w) through w^order."""
    return LaurentSeries(0, tuple(a ** k / math.factorial(k) for k in range(order + 1)), order)


def _kernel_series(t, scale, order):
    """1/(t exp(scale w) - 1) through w^order, from the Apostol coefficients."""
    table = apostol_coeff_table(order, t)
    return LaurentSeries(
        0, tuple(table[k] * scale ** k / math.factorial(k) for k in range(order + 1)), order
    )


def _full_product_residue(spec):
    """The w^-1 coefficient of each branch's full truncated product, at order p + 2."""
    traits = TRAITS[spec.family]
    p, d, m, b = pole_order(spec.family, spec.n), spec.d, spec.m, reduced_shifts(spec)[0]
    order = p + 2
    if traits.odd_m:
        x1, x1c, a = phase(-m * (b - 1.0)), phase(m * (b - 1.0)), 1j * math.pi * m
    else:
        x1, x1c, a = phase(-2.0 * m * b), phase(2.0 * m * b), 2j * math.pi * m
    singular = series_pow(expand_factor(traits.shift_kind, order), p)
    plus = series_mul(
        series_mul(_exp_series(a, order), singular),
        _kernel_series(phase(-2.0 * d * b), 2j * math.pi * d, order),
    )
    minus = series_mul(
        series_mul(_exp_series(-a, order), singular),
        _kernel_series(phase(2.0 * d * b), -2j * math.pi * d, order),
    )
    second = -x1c if traits.prefix == "cos" else x1c
    return x1 * plus.coefficient(-1) + second * minus.coefficient(-1)


def test_interior_residue_is_the_full_product_coefficient():
    # only the w^-1 coefficient is formed, with the full product's order of
    # accumulation, so the bits match
    rng = random.Random(2)
    for family in POWER_FAMILIES:
        for n in range(1, 7):
            checked = 0
            while checked < 8:
                d = rng.randint(2, 60)
                m = rng.randint(1, d - 1)
                b = rng.uniform(-1.0, 1.0) + (1e9 if checked == 0 else 0.0)
                try:
                    spec = validate_params(SumSpec(family, d, m, b, n))
                except ParameterError:
                    continue
                got = residue_at_interior_pole(spec)
                want = _full_product_residue(spec)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), spec
                checked += 1


def test_boundary_residue_examples():
    got = boundary_residues(SumSpec(Family.COS_COT, 2, 1, 0.25))[0]
    assert abs(got - 1.0 / (2j * math.pi)) <= 1e-12
    assert boundary_residues(SumSpec(Family.SIN_COT, 2, 1, 0.25))[1] == 0j


def test_boundary_residue_at_zero_identity():
    for n in (1, 2, 3):
        for d, b in ((3, 0.21), (7, 0.137), (5, -0.29)):
            got = boundary_residues(SumSpec(Family.COS_COT, d, 1, b, n))[0]
            want = cot_pi(b) ** n / (math.pi * 1j * d)
            assert abs(got - want) <= 1e-10 * abs(want), (n, d, b)


def _two_branch_boundary_residues(spec):
    """Res(f, j/d) with both branches formed: e^(+-i pi num/d) times the factor,
    added (cos prefix) or subtracted (sin prefix), over 2 pi i d."""
    family, p, b, constant = _integrand(validate_params(spec))
    traits = TRAITS[family]
    d = spec.d
    beta = math.remainder(b, float(traits.shift_period))
    base = cot_pi if traits.shift_kind == "cot" else csc_pi
    out = []
    for j in range(d):
        factor = base(j / d + beta) ** p
        num = (spec.m if traits.odd_m else 2 * spec.m) * j
        plus = complex(cos_pi_ratio(num, d), sin_pi_ratio(num, d)) * factor
        minus = complex(cos_pi_ratio(-num, d), sin_pi_ratio(-num, d)) * factor
        both = plus + minus if traits.prefix == "cos" else plus - minus
        out.append(constant * (both / (2j * math.pi * d)))
    return tuple(out)


def test_one_branch_boundary_residues_are_the_two_branch_ones():
    # the branches' phases at j/d are exact conjugates, so one ratio gives
    # the pair; == since the sign of a zero part may differ
    rng = random.Random(26)
    counts = dict.fromkeys(RESIDUE_FAMILIES, 0)
    checked = 0
    while checked < 3000:
        family = rng.choice(RESIDUE_FAMILIES)
        traits = TRAITS[family]
        d = rng.randint(2, 80)
        m = rng.randint(1, d - 1)
        if traits.odd_m and m % 2 == 0:
            continue
        n = 1 if traits.kind == "triple" else rng.randint(1, 5)
        shape = checked % 3
        if shape == 0:
            # near the lattice: d*b within 1e-7..1e-2 of an integer
            b = (rng.randint(-d, d) + rng.choice((-1, 1)) * 10 ** rng.uniform(-7, -2)) / d
        else:
            b = rng.uniform(-1.0, 1.0) + (1e9 if shape == 2 else 0.0)
        b2 = rng.uniform(-1.0, 1.0) if traits.kind == "triple" else None
        try:
            spec = validate_params(SumSpec(family, d, m, b, n, b2))
        except ParameterError:
            continue
        assert boundary_residues(spec) == _two_branch_boundary_residues(spec), spec
        counts[family] += 1
        checked += 1
    assert min(counts.values()) >= 150, counts


def test_interior_residue_matches_multi_index_path():
    rng = random.Random(524287)
    power = [f for f in RESIDUE_FAMILIES if TRAITS[f].kind == "power"]
    checked = 0
    while checked < 25:
        family = rng.choice(power)
        d = rng.randint(2, 10)
        m = rng.randint(1, d - 1)
        if TRAITS[family].odd_m and m % 2 == 0:
            continue
        # stay on the low-frequency side so neither path folds m
        if not TRAITS[family].odd_m and 2 * m > d:
            continue
        if 2 * m == d and TRAITS[family].prefix == "sin":
            continue
        spec = SumSpec(family, d, m, rng.uniform(0.03, 0.97), rng.randint(1, 4))
        try:
            res = residue_at_interior_pole(spec)
        except ParameterError:
            continue
        if TRAITS[family].prefix == "cos":
            via_residue = (-(math.pi * 1j * d) * res).real
        else:
            via_residue = (-(math.pi * d) * res).real
        want = closed_form_value(spec).value
        assert abs(via_residue - want) <= 1e-10 * max(1.0, abs(want)), spec
        checked += 1


def test_residue_closure_over_one_period():
    rng = random.Random(20260816)
    checked = 0
    while checked < 100:
        family = rng.choice(list(RESIDUE_FAMILIES))
        traits = TRAITS[family]
        d = rng.randint(2, 12)
        m = rng.randint(1, d - 1)
        if traits.odd_m and m % 2 == 0:
            continue
        if 2 * m == d and traits.prefix == "sin":
            continue  # every boundary residue is exactly zero there
        n = 1 if traits.kind == "triple" else rng.randint(1, 3)
        b2 = rng.uniform(0.05, 0.95) if traits.kind == "triple" else None
        spec = SumSpec(family, d, m, rng.uniform(0.03, 0.97), n, b2)
        try:
            bres = boundary_residues(spec)
        except ParameterError:
            continue
        total = residue_at_interior_pole(spec) + sum(bres)
        scale = max(abs(r) for r in bres)
        assert abs(total) <= 1e-10 * scale, spec
        checked += 1


def test_residue_closure_at_a_large_shift():
    # the residue functions reduce b by its period, so m*b and d*b keep their digits
    for b in (0.137, 1e9 + 0.137):
        spec = SumSpec(Family.COS_COT, 7, 2, b, 2)
        bres = boundary_residues(spec)
        total = residue_at_interior_pole(spec) + sum(bres)
        assert abs(total) <= 1e-12 * max(abs(r) for r in bres), b


def test_residue_and_closed_form_refuse_the_same_orders(monkeypatch):
    # both read the kernel through index p - 1 and no further, so the
    # coefficient cap stops them at the same power
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "5")
    spec = SumSpec(Family.COS_CSC_2N, 6, 1, 0.137, 3)   # p = 6
    for path in (closed_form_value, sum_via_residues):
        path(spec)
        with pytest.raises(NumericError, match="order too large"):
            path(SumSpec(Family.COS_CSC_2N, 6, 1, 0.137, 4))


def test_singular_power_cold_and_warm_give_the_same_bits():
    for family, d, n, b2 in ((Family.COS_COT, 9, 3, None), (Family.SIN_CSC_2N, 8, 3, None),
                             (Family.COS_CSC_ODD, 9, 3, None), (Family.SIN_CSC_COS, 8, 1, 0.447)):
        specs = [validate_params(SumSpec(family, dd, m, 0.137, n, b2))
                 for dd in (d, d + 1) for m in range(1, dd)
                 if not TRAITS[family].odd_m or m % 2]
        for spec in specs:
            # warm numerator rows skip the power, so both start cold
            _singular_power.cache_clear()
            _numerators.cache_clear()
            cold = sum_via_residues(spec)
            for other in specs:
                sum_via_residues(other)
            assert _singular_power.cache_info().currsize == 1
            warm = sum_via_residues(spec)
            assert warm.value.hex() == cold.value.hex(), spec


def _residue_bits(spec):
    value = sum_via_residues(spec)
    res = residue_at_interior_pole(spec)
    return value.value.hex(), res.real.hex(), res.imag.hex()


def test_kernels_cold_and_warm_give_the_same_bits():
    for family, d, n, b2 in ((Family.COS_COT, 9, 3, None), (Family.SIN_CSC_2N, 8, 2, None),
                             (Family.COS_CSC_ODD, 9, 3, None), (Family.SIN_CSC_COS, 8, 1, 0.447)):
        specs = [validate_params(SumSpec(family, d, m, b, n, b2))
                 for m in range(1, d) for b in (0.137, 1e9 + 0.3)
                 if not TRAITS[family].odd_m or m % 2]
        for spec in specs:
            _kernels.cache_clear()
            cold = _residue_bits(spec)
            for other in specs:
                sum_via_residues(other)
            assert _kernels.cache_info().currsize == 2
            assert _residue_bits(spec) == cold, spec


def test_numerators_cold_and_warm_give_the_same_bits():
    for family, d, n, b2 in ((Family.COS_COT, 9, 3, None), (Family.SIN_CSC_2N, 8, 2, None),
                             (Family.COS_CSC_ODD, 9, 3, None), (Family.SIN_CSC_COS, 8, 1, 0.447)):
        specs = [validate_params(SumSpec(family, dd, m, b, n, b2))
                 for dd in (d, d + 1) for m in range(1, dd) for b in (0.137, 1e9 + 0.3)
                 if not TRAITS[family].odd_m or m % 2]
        for spec in specs:
            _numerators.cache_clear()
            cold = _residue_bits(spec)
            for other in specs:
                sum_via_residues(other)
            # one pair of rows per m whatever d and b: each folded m, and the m
            # itself, which residue_at_interior_pole reads unfolded
            rows = {frequency_fold(other)[0] for other in specs} | {spec.m}
            assert _numerators.cache_info().currsize == len(rows - {None})
            assert _residue_bits(spec) == cold, spec


def test_a_sweep_over_m_builds_each_kernel_once(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return apostol_coeff_table(*args)

    monkeypatch.setattr(residue_engine, "apostol_coeff_table", counted)
    families = (Family.COS_COT, Family.COS_CSC_ODD, Family.COS_CSC_COS)
    specs = [spec for spec, _ in grid_cases(families, 6, 3)]
    # end the walk whatever ran before, so the first pass starts cold as well
    sum_via_residues(SumSpec(Family.SIN_COT, 5, 1, 0.137))
    passes = []
    for _ in range(3):
        built.clear()
        values = [sum_via_residues(spec).value.hex() for spec in specs]
        passes.append((len(built), values))
    assert passes[0] == passes[1] == passes[2]
    # one kernel per (family, pole order, d, b), whatever the number of m
    kernels = {(s.family, s.d) + _integrand(s)[1:3] for s in specs}
    assert passes[0][0] == len(kernels) < len(specs)


def test_warm_kernels_keep_the_coefficient_cap(monkeypatch):
    sum_via_residues(SumSpec(Family.SIN_COT, 5, 1, 0.137))   # end the walk
    sum_via_residues(SumSpec(Family.COS_CSC_2N, 6, 1, 0.137, 4))   # kernel index 2n - 1 = 7
    assert _kernels.cache_info().currsize == 1
    assert _numerators.cache_info().currsize == 1
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "6")
    # a new m, then warm numerator rows: m = 1 and m = 5, which folds onto 1
    for m in (2, 1, 5):
        for path in (sum_via_residues, residue_at_interior_pole):
            with pytest.raises(NumericError, match="order too large"):
                path(SumSpec(Family.COS_CSC_2N, 6, m, 0.137, 4))


# --- reconstructed sums ------------------------------------------------------------

def test_sum_via_residues_examples():
    got = sum_via_residues(SumSpec(Family.COS_COT, 2, 1, 0.25)).value
    assert got == pytest.approx(2.0, rel=1e-12)
    assert sum_via_residues(SumSpec(Family.SIN_COT, 2, 1, 0.25)).value == 0.0
    got = sum_via_residues(SumSpec(Family.SIN_CSC_ODD, 2, 1, 0.25)).value
    assert got == pytest.approx(math.sqrt(2), rel=1e-12)


def test_product_families_through_the_cot_residue_match_the_oracle():
    products = [f for f in RESIDUE_FAMILIES if TRAITS[f].kind == "triple"]
    cases = grid_cases(products, 20, 1)
    for spec, _ in cases:
        got = sum_via_residues(spec).value
        want = direct_sum(spec).value
        assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want)), spec
    assert len(cases) > 2000


def test_sum_via_residues_rejects_uncovered_families():
    with pytest.raises(ParameterError, match="not covered"):
        sum_via_residues(SumSpec(Family.COS_TAN, 5, 2, 0.17))
    # the identically-zero midpoint still refuses uncovered families
    with pytest.raises(ParameterError, match="not covered"):
        sum_via_residues(SumSpec(Family.SIN_SEC_SEC, 2, 1, 0.1, 1, 0.41))


def test_sum_via_residues_shift_conventions():
    # shifts beyond the first period and negative shifts go through the
    # floor/phase split; values must still match the oracle
    cases = (
        SumSpec(Family.COS_CSC_ODD, 5, 3, 1.31, 2),
        SumSpec(Family.COS_COT, 5, 2, -0.41, 2),
        SumSpec(Family.SIN_CSC_2N, 7, 3, 1.62, 1),
        SumSpec(Family.COS_CSC_COS, 5, 2, 1.21, 1, 0.37),
        SumSpec(Family.SIN_CSC_SIN, 6, 1, -0.73, 1, 0.11),
    )
    for spec in cases:
        got = sum_via_residues(spec).value
        want = direct_sum(spec).value
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), spec


# --- tooling ------------------------------------------------------------------------

def test_closure_scan_script(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "closure_scan.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--cases", "50"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("50 draws")
    ratio = float(re.search(r"max residual ratio\s+(\S+)", out).group(1))
    assert ratio < 1e-10


def test_value_digest_script_repeats_over_warm_caches(capsys):
    script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "value_digest.py"))
    specs = [spec for spec, _ in grid_cases([Family.COS_CSC_2N], 5, 3)]
    conditioning(SumSpec(Family.SIN_COT, 5, 1, 0.137))   # end the walk: the first pass is cold
    cold = script["digests"](specs)
    # one family, so the second pass finds every walk cache warm
    assert script["digests"](specs) == cold
    assert {count for count, _ in cold.values()} == {len(specs)}
    script["main"](["--dmax", "3", "--nmax", "2", "--draws", "20"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["conditioning", "term_magnitude_sum",
                                           "closed_form_value", "direct_sum", "sum_via_residues"]
    assert all(int(line[1]) > 20 and len(line[2]) == 64 for line in lines)
