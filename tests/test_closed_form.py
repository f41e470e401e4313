"""Closed-form paths: known values, reductions, symmetry invariants."""

import dataclasses
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
    conditioning,
    direct_sum,
    sum_via_residues,
    term_magnitude_sum,
    validate_params,
)
from trigsum import closed_form, families
from trigsum.cli import grid_cases
from trigsum.closed_form import _composition_weights, _power_slice
from trigsum.coefficients import apostol_coeff_table, cot_coeff, csc_coeff
from trigsum.multiindex import enumerate_compositions
from trigsum.errors import NumericError, ParameterError
from trigsum.families import WALK_CACHE_SIZE, frequency_fold, pole_order, reduced_shifts
from trigsum.oracle import _factor_rows, _pole_distance, _prefix_row
from trigsum.residue_engine import _kernels, _numerators, _singular_power
from trigsum.trig import cos_pi, csc_pi, phase, quarter_turns, sec_pi, sin_pi

from mp_reference import prefix_vanishes, reference_sum


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(got), abs(want))


def multi_index(spec):
    """The multi-index layer's value, a float, at any power but the classical point's."""
    spec = validate_params(spec)
    return closed_form._theorem(spec, reduced_shifts(spec)[0])


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


@pytest.mark.parametrize("field, value", [("d", 7.0), ("m", 2.0), ("n", 2.0)])
def test_every_path_refuses_a_non_integer_d_m_or_n(field, value):
    # a float would reach range(), a power or a recurrence and fail there,
    # or give a value
    spec = dataclasses.replace(SumSpec(Family.COS_COT, 7, 2, 0.137), **{field: value})
    for path in (closed_form_value, direct_sum, sum_via_residues):
        with pytest.raises(ParameterError, match=f"{field} must be an integer, got {value!r}"):
            path(spec)
    # bools are integers
    want = closed_form_value(SumSpec(Family.COS_COT, 7, 1, 0.137)).value
    assert closed_form_value(SumSpec(Family.COS_COT, 7, True, 0.137, True)).value == want


# --- corollary values -------------------------------------------------------

def test_corollary_known_values():
    assert closed_form_value(SumSpec(Family.COS_COT, 2, 1, 0.25)).value == 2.0
    assert closed_form_value(SumSpec(Family.SIN_COT, 2, 1, 0.25)).value == 0.0
    got = closed_form_value(SumSpec(Family.COS_COT, 3, 1, 1 / 6)).value
    assert got == pytest.approx(3 * math.cos(math.pi / 6), rel=1e-15)
    got = closed_form_value(SumSpec(Family.SIN_CSC_2N, 3, 1, 0.25)).value
    assert got == pytest.approx(-12.0, rel=1e-12)
    got = closed_form_value(SumSpec(Family.SIN_CSC_ODD, 2, 1, 0.25)).value
    assert got == pytest.approx(math.sqrt(2), rel=1e-15)
    assert closed_form_value(SumSpec(Family.COS_CSC_2N, 2, 1, 0.25)).value == 0.0


def test_classical_dispensation_value():
    assert closed_form_value(SumSpec(Family.SIN_COT, 5, 2, 0.0)).value == 1.0


def test_closed_form_labels_every_power_alike():
    # one label for the path, whichever layer gives the value
    for family in Family:
        b2 = 0.447 if TRAITS[family].kind == "triple" else None
        for n in range(1, 5 if TRAITS[family].supports_power else 2):
            assert closed_form_value(SumSpec(family, 7, 3, 0.137, n, b2)).path == "closed-form"
    assert closed_form_value(SumSpec(Family.SIN_COT, 5, 2, 0.0)).path == "closed-form"


# --- theorem (multi-index) values -------------------------------------------

def test_theorem_n1_matches_corollary_exactly_on_quarter_turn():
    spec = SumSpec(Family.COS_COT, 2, 1, 0.25)
    assert multi_index(spec) == 2.0
    assert multi_index(spec) == closed_form_value(spec).value


def test_theorem_n2_cancellation():
    got = closed_form_value(SumSpec(Family.COS_COT, 2, 1, 0.25, 2)).value
    assert abs(got) <= 1e-12


def test_theorem_even_cosec_example():
    got = multi_index(SumSpec(Family.SIN_CSC_2N, 3, 1, 0.25))
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
        t = multi_index(spec)
        c = closed_form_value(spec).value
        assert rel_err(t, c) <= 1e-12, (spec, t, c)
        checked += 1


def _two_branch_theorem(spec):
    """-sum m^mu/mu! * (x1*G + x1'*H), both branches in complex arithmetic.

    H is the second branch's slice entry: the kernel at phase(+2db), the
    combination sign (minus for the cos prefix) and (-1)^(mu+nu).
    """
    traits = TRAITS[spec.family]
    m, fold_sign = frequency_fold(spec)
    if m is None:
        return 0.0
    d, b, p = spec.d, reduced_shifts(spec)[0], pole_order(spec.family, spec.n)
    kernel = apostol_coeff_table(p - 1, phase(-2.0 * d * b))
    kernel_c = apostol_coeff_table(p - 1, phase(2.0 * d * b))
    cos_prefix = traits.prefix == "cos"
    sign = -1.0 if cos_prefix else 1.0
    x1 = phase(-m * (b - 1.0) if traits.odd_m else -2.0 * m * b)
    x1c = x1.conjugate()
    acc = 0j
    for mu, nu, w in _composition_weights(traits.shift_kind, p):
        ip = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[(mu + nu + cos_prefix) % 4]
        two = 2.0 ** (nu if traits.odd_m else mu + nu)
        c = ip * two * (d ** (nu + 1) / math.factorial(nu)) * w
        g = c * kernel[nu]
        h = c * sign * (-1.0) ** (mu + nu) * kernel_c[nu]
        acc += (m ** mu / math.factorial(mu)) * (x1 * g + x1c * h)
    # the branches are exact conjugates, so nothing imaginary is left
    assert acc.imag == 0.0, spec
    return -fold_sign * acc.real + 0.0


def test_one_branch_theorem_is_the_two_branch_sum():
    # 2 Re of the first branch gives the two-branch sum's bits
    rng = random.Random(12)
    cells = [(family, n) for family in POWER_FAMILIES for n in range(2, 5)]
    cells += [(family, n) for family in (Family.COS_COT, Family.SIN_COT) for n in (5, 6)]
    folded = 0
    for family, n in cells:
        checked = 0
        while checked < 8:
            d = rng.randint(3, 60)
            # every second spec takes m above d/2, the frequency fold's half
            m = rng.randint(d // 2 + 1, d - 1) if checked % 2 else rng.randint(1, d - 1)
            b = rng.uniform(-1.0, 1.0) + (1e9 if checked < 2 else 0.0)
            try:
                spec = validate_params(SumSpec(family, d, m, b, n))
            except ParameterError:
                continue
            assert multi_index(spec).hex() == _two_branch_theorem(spec).hex(), spec
            folded += frequency_fold(spec)[0] != m
            checked += 1
    assert folded >= 60


# --- the frequency-free slice cache ------------------------------------------

def _bits(value):
    return value.value.hex()


def test_slice_cache_cold_and_warm_give_the_same_bits():
    # cos-cot and sin-csc-2n fold m > d/2 onto the slice of d - m
    for family, d, n in ((Family.COS_COT, 9, 3), (Family.SIN_CSC_2N, 8, 3),
                         (Family.COS_CSC_ODD, 9, 3)):
        specs = [validate_params(SumSpec(family, d, m, 0.137, n))
                 for m in range(1, d) if not TRAITS[family].odd_m or m % 2]
        for spec in specs:
            _power_slice.cache_clear()
            cold = closed_form_value(spec)
            _power_slice.cache_clear()
            for other in specs:
                if other is not spec:
                    closed_form_value(other)
            assert _power_slice.cache_info().currsize == 1
            warm = closed_form_value(spec)
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
            cold = closed_form_value(spec)
            _power_slice.cache_clear()
            closed_form_value(SumSpec(family, d, 1, 0.2, n))
            built = _composition_weights.cache_info().misses
            warm = closed_form_value(spec)
            assert _composition_weights.cache_info().misses == built
            assert _bits(warm) == _bits(cold), spec


def test_slice_cache_keeps_the_coefficient_cap(monkeypatch):
    spec = SumSpec(Family.COS_CSC_2N, 6, 1, 0.137, 4)   # kernel index 2n - 1 = 7
    closed_form_value(spec)
    assert _composition_weights.cache_info().currsize == 1
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "6")
    with pytest.raises(NumericError, match="order too large"):
        closed_form_value(spec)
    # warm weights, cold slice
    with pytest.raises(NumericError, match="order too large"):
        closed_form_value(SumSpec(Family.COS_CSC_2N, 6, 1, 0.2, 4))


def test_slice_cache_is_bounded():
    for k in range(WALK_CACHE_SIZE + 12):
        spec = SumSpec(Family.COS_COT, 7, 1, 0.01 + k / 1000, 2)
        closed_form_value(spec)
        sum_via_residues(spec)
    assert _power_slice.cache_info().currsize == WALK_CACHE_SIZE
    assert _kernels.cache_info().currsize == WALK_CACHE_SIZE
    # one pair of numerator rows per m below d/2
    for m in range(1, WALK_CACHE_SIZE + 12):
        sum_via_residues(SumSpec(Family.COS_COT, 2 * WALK_CACHE_SIZE + 25, m, 0.137, 2))
    assert _numerators.cache_info().currsize == WALK_CACHE_SIZE


def test_every_walk_cache_has_the_one_bound():
    # two in the closed form, three in the residue path, three in the oracle
    assert len(families._WALK_CACHES) == 8
    assert all(cache.cache_info().maxsize == WALK_CACHE_SIZE for cache in families._WALK_CACHES)


def test_walk_caches_hold_one_family():
    def sizes():
        return (_power_slice.cache_info().currsize,
                _composition_weights.cache_info().currsize,
                _singular_power.cache_info().currsize,
                _kernels.cache_info().currsize,
                _numerators.cache_info().currsize,
                _pole_distance.cache_info().currsize,
                _prefix_row.cache_info().currsize,
                _factor_rows.cache_info().currsize)

    closed_form_value(SumSpec(Family.COS_CSC_ODD, 7, 1, 0.137, 2))
    closed_form_value(SumSpec(Family.SIN_COT, 7, 1, 0.137, 2))
    sum_via_residues(SumSpec(Family.SIN_COT, 7, 1, 0.137, 2))
    assert sizes() == (1, 1, 1, 1, 1, 0, 0, 0)
    closed_form_value(SumSpec(Family.COS_COT, 7, 1, 0.137, 2))
    assert sizes() == (1, 1, 0, 0, 0, 0, 0, 0)
    closed_form_value(SumSpec(Family.COS_COT, 7, 2, 0.2, 3))
    assert sizes() == (2, 2, 0, 0, 0, 0, 0, 0)
    # the weights depend only on (kind, n), so a new d or b reuses them
    built = _composition_weights.cache_info().misses
    closed_form_value(SumSpec(Family.COS_COT, 8, 1, 0.137, 2))
    closed_form_value(SumSpec(Family.COS_COT, 9, 1, 0.3, 3))
    assert _composition_weights.cache_info().misses == built
    sum_via_residues(SumSpec(Family.COS_COT, 8, 3, 0.137, 2))
    # the kernels and the pole distance depend on neither m nor (beyond the pole order) n,
    # and m = 5 folds onto the numerator rows of m = 3
    sum_via_residues(SumSpec(Family.COS_COT, 8, 5, 0.137, 2))
    conditioning(SumSpec(Family.COS_COT, 8, 3, 0.137, 2))
    conditioning(SumSpec(Family.COS_COT, 8, 1, 0.137, 3))
    # conditioning builds the oracle's factor rows for (d, b) along with the distance
    assert sizes() == (4, 2, 1, 1, 1, 1, 0, 1)
    # a new m reuses the factor rows; a new b or n reuses the prefix row of (d, m)
    direct_sum(SumSpec(Family.COS_COT, 8, 3, 0.137, 2))
    direct_sum(SumSpec(Family.COS_COT, 8, 5, 0.137, 2))
    assert sizes() == (4, 2, 1, 1, 1, 1, 2, 1)
    term_magnitude_sum(SumSpec(Family.COS_COT, 8, 5, 0.2, 3))
    assert sizes() == (4, 2, 1, 1, 1, 1, 2, 2)
    assert _factor_rows.cache_info().misses == 2 and _prefix_row.cache_info().misses == 2
    # a product family walks as itself, not as the cot family its residue uses
    sum_via_residues(SumSpec(Family.COS_CSC_COS, 8, 1, 0.137, 1, 0.447))
    assert sizes() == (0, 0, 1, 1, 1, 0, 0, 0)
    conditioning(SumSpec(Family.COS_CSC_COS, 8, 1, 0.137, 1, 0.447))
    assert sizes() == (0, 0, 1, 1, 1, 1, 0, 1)
    direct_sum(SumSpec(Family.COS_CSC_COS, 8, 1, 0.137, 1, 0.447))
    assert sizes() == (0, 0, 1, 1, 1, 1, 1, 1)
    closed_form_value(SumSpec(Family.COS_COT, 8, 1, 0.137, 2))
    assert sizes() == (1, 1, 0, 0, 0, 0, 0, 0)
    # the oracle's sums never move the walk: on another family they drop nothing
    direct_sum(SumSpec(Family.SIN_COT, 8, 1, 0.137, 2))
    term_magnitude_sum(SumSpec(Family.SIN_COT, 8, 1, 0.137, 2))
    assert sizes()[:2] == (1, 1)


def test_every_pass_over_a_grid_does_the_same_work(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return enumerate_compositions(*args)

    monkeypatch.setattr(closed_form, "enumerate_compositions", counted)
    specs = [spec for spec, _ in grid_cases(POWER_FAMILIES[:2], 5, 3) if spec.n >= 2]
    # end the walk whatever ran before, so the first pass starts cold as well
    closed_form_value(SumSpec(POWER_FAMILIES[2], 5, 1, 0.137, 2))
    passes = []
    for _ in range(3):
        made.clear()
        values = [_bits(closed_form_value(spec)) for spec in specs]
        passes.append((len(made), values))
    assert passes[0] == passes[1] == passes[2]
    # one enumeration per (family, n) of the grid, not one per d, b or m
    assert passes[0][0] == len({(s.family, s.n) for s in specs}) == 4


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
                p = pole_order(family, n)
                total, parts = p - 1, p
                power = _power_series_coefficients(coeff, parts, total // 2)
                coeffs = [coeff(j) for j in range(total // 2 + 1)]
                exact: dict[tuple[int, int], Fraction] = {}
                for tup in enumerate_compositions(total, parts):
                    key = (tup.mu, tup.nu)
                    exact[key] = exact.get(key, 0) + math.prod(coeffs[j] for j in tup.js)
                memo = _composition_weights(kind, p)
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
            assert quarter_turns(x, q) == sin_pi(shifted), (x, q)
            assert abs(quarter_turns(x, q)) == abs(
                sin_pi(x) if q % 2 == 0 else cos_pi(x)
            )
            if sin_pi(shifted) != 0.0:
                assert quarter_turns(x, q, True) == csc_pi(shifted), (x, q)
                want = csc_pi(x) if q % 2 == 0 else sec_pi(x)
                assert abs(quarter_turns(x, q, True)) == abs(want)
    with pytest.raises(NumericError, match="sec"):
        quarter_turns(0.5, 3, True)
    with pytest.raises(NumericError, match="cosec"):
        quarter_turns(1.0, -2, True)


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
    corollary = closed_form_value(SumSpec(Family.COS_COT, 3, 1, 0.2)).value
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
            assert rel_err(closed_form_value(cos_lo).value, closed_form_value(cos_hi).value) <= 1e-10
            sin_lo = SumSpec(Family.SIN_COT, d, m, b)
            sin_hi = SumSpec(Family.SIN_COT, d, d - m, b)
            assert direct_sum(sin_hi).value == -direct_sum(sin_lo).value
            assert rel_err(closed_form_value(sin_hi).value, -closed_form_value(sin_lo).value) <= 1e-10


def test_shift_periodicity_of_closed_forms():
    even_power = (Family.COS_COT, Family.SIN_COT, Family.SIN_CSC_2N, Family.COS_CSC_2N)
    for family in even_power:
        for b in (0.137, 0.3183, -0.41):
            v0 = closed_form_value(SumSpec(family, 5, 2, b)).value
            v1 = closed_form_value(SumSpec(family, 5, 2, b + 1.0)).value
            assert rel_err(v0, v1) <= 1e-10, (family, b)
    for family in (Family.SIN_CSC_ODD, Family.COS_CSC_ODD):
        for b in (0.137, 0.3183, -0.41):
            v0 = closed_form_value(SumSpec(family, 5, 3, b)).value
            v2 = closed_form_value(SumSpec(family, 5, 3, b + 2.0)).value
            assert rel_err(v0, v2) <= 1e-10, (family, b)


LARGE_B = 1e9 + 0.137
LARGE_B2 = 1e12 + 0.31
LARGE_SHIFTS = (
    SumSpec(Family.COS_COT, 7, 2, LARGE_B),
    SumSpec(Family.SIN_COT, 7, 2, -LARGE_B, 2),
    SumSpec(Family.COS_CSC_ODD, 7, 3, LARGE_B, 2),
    SumSpec(Family.SIN_CSC_2N, 7, 2, LARGE_B, 3),
    SumSpec(Family.SIN_CSC_ODD, 7, 1, LARGE_B),
    SumSpec(Family.COS_TAN, 7, 2, LARGE_B),
    SumSpec(Family.SIN_COT_2D, 7, 2, LARGE_B),
    SumSpec(Family.COS_CSC_CSC, 7, 2, 0.137, 1, LARGE_B2),
    SumSpec(Family.COS_CSC_COS, 7, 2, 0.137, 1, LARGE_B2),
    SumSpec(Family.SIN_CSC_SIN, 7, 3, LARGE_B, 1, LARGE_B2),
    SumSpec(Family.SIN_SEC_SEC, 7, 3, 0.137, 1, -LARGE_B2),
)


@pytest.mark.parametrize("spec", LARGE_SHIFTS, ids=lambda s: s.family.value)
def test_large_shifts_match_the_reference(spec):
    # m*b or d*b formed from an unreduced shift of 1e9 or 1e12 is off by about
    # |b|*1e-16, enough to move cos-cot by 1.6e-6 and cos-csc-csc by 1.0e-3
    want = reference_sum(spec)
    paths = [closed_form_value]
    if TRAITS[spec.family].supports_residue:
        paths.append(sum_via_residues)
    for path in paths:
        assert rel_err(path(spec).value, want) <= 1e-13, path.__name__


def test_first_power_of_every_family_matches_the_reference():
    # every grid offset of all 22 families at d = 6 and 7, n = 1: 696 cases,
    # the worst 1.6e-13 (cos-csc-sec d=6 m=2 b=1/3+1/42)
    cases = [spec for spec, _ in grid_cases(tuple(Family), 7, 1) if spec.d >= 6]
    assert len(cases) == 696 and {spec.family for spec in cases} == set(Family)
    for spec in cases:
        want = reference_sum(spec)
        assert abs(closed_form_value(spec).value - want) <= 1e-12 * max(1.0, abs(want)), spec


def test_classical_limit_small_b():
    for d in range(2, 13):
        for m in range(1, d):
            got = closed_form_value(SumSpec(Family.SIN_COT, d, m, 1e-6)).value
            assert abs(got - (d - 2 * m)) <= 1e-4


def test_midpoint_sine_sums_are_exactly_zero():
    # at 2m = d every sine prefix is sin(pi*j) = 0; all paths must return 0.0
    for d in (4, 6, 8):
        m = d // 2
        for family in (Family.SIN_COT, Family.SIN_CSC_2N):
            for n in (1, 2, 3):
                spec = SumSpec(family, d, m, 0.137, n)
                assert direct_sum(spec).value == 0.0
                assert closed_form_value(spec).value == 0.0
                assert sum_via_residues(spec).value == 0.0
        for family in (Family.SIN_CSC_COS, Family.SIN_CSC_SIN):
            spec = SumSpec(family, d, m, 0.137, 1, 0.447)
            assert direct_sum(spec).value == 0.0
            assert closed_form_value(spec).value == 0.0
            assert sum_via_residues(spec).value == 0.0


def test_reference_prefix_zeros_are_exact():
    mpmath = pytest.importorskip("mpmath")
    for d in range(2, 13):
        for k in range(-3 * d, 3 * d):
            for prefix, fn in (("cos", mpmath.cos), ("sin", mpmath.sin)):
                with mpmath.workdps(40):
                    small = abs(fn(mpmath.pi * k / d)) < mpmath.mpf(10) ** -30
                assert prefix_vanishes(prefix, k, d) == small, (prefix, k, d)


def test_specs_and_values_keep_no_instance_dict():
    spec = SumSpec(Family.COS_COT, 7, 2, 0.137, 2)
    for obj in (spec, closed_form_value(spec)):
        assert not hasattr(obj, "__dict__")
    moved = dataclasses.replace(spec, m=3)
    assert moved == SumSpec(Family.COS_COT, 7, 3, 0.137, 2) and spec.m == 2


def test_validate_is_idempotent():
    spec = validate_params(SumSpec(Family.COS_CSC_ODD, 7, 3, 0.21, 2))
    assert validate_params(spec) == spec
    coerced = validate_params(SumSpec("cos-cot", 3, 1, 0.1))
    assert coerced.family is Family.COS_COT
