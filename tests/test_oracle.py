"""Direct-summation oracle: term layout, compensation, conditioning."""

import math
import re

import pytest

from trigsum import (
    TRAITS,
    Family,
    SumSpec,
    conditioning,
    direct_sum,
    term_magnitude_sum,
    validate_params,
)
from trigsum.errors import NumericError, ParameterError
from trigsum.families import WALK_CACHE_SIZE, enter_walk, pole_order
from trigsum.oracle import _factor_rows, _pole_distance, _prefix_row, _terms
from trigsum.trig import (cos_pi, cos_pi_ratio, cot_pi, csc_pi, sec_pi, sin_pi, sin_pi_ratio,
                          tan_pi)

from mp_reference import reference_sum


def test_known_values():
    assert abs(direct_sum(SumSpec(Family.SIN_COT, 5, 2, 0.0)).value - 1.0) <= 1e-12
    got = direct_sum(SumSpec(Family.COS_COT, 2, 1, 0.25)).value
    assert got == pytest.approx(2.0, rel=1e-14)
    got = direct_sum(SumSpec(Family.SIN_CSC_2N, 3, 1, 0.25)).value
    assert got == pytest.approx(-12.0, rel=1e-14)


def test_conditioning_examples():
    got = conditioning(SumSpec(Family.COS_COT, 2, 1, 0.25))
    assert got == pytest.approx(math.pi / 4, rel=1e-15)
    got = conditioning(SumSpec(Family.COS_COT, 4, 1, 0.2500001))
    assert abs(got - math.pi * 1e-7) < 1e-12
    got = conditioning(SumSpec(Family.SIN_COT, 5, 2, 0.0))
    assert got == pytest.approx(math.pi / 5, rel=1e-15)


def test_conditioning_triple_tracks_both_factors():
    # second shift sits closer to the secant poles than the first to the cosec ones
    spec = SumSpec(Family.COS_CSC_SEC, 4, 1, 0.1, 1, 0.52)
    got = conditioning(spec)
    assert got == pytest.approx(math.pi * 0.02, rel=1e-9)


def test_conditioning_cold_and_warm_give_the_same_bits():
    for family, d, n, b2 in ((Family.COS_CSC_2N, 8, 2, None), (Family.SIN_COT_2D, 7, 1, None),
                             (Family.COS_TAN, 9, 1, None), (Family.SIN_CSC_SEC, 8, 1, 0.447)):
        specs = [SumSpec(family, d, m, b, nn, b2) for m in range(1, d) for nn in range(1, n + 1)
                 for b in (0.137, 0.2500001, 1e9 + 0.3)]
        for spec in specs:
            _pole_distance.cache_clear()
            cold = conditioning(spec).hex()
            for other in specs:
                conditioning(other)
            # the distance depends on neither m nor n
            assert _pole_distance.cache_info().currsize == 3
            assert conditioning(spec).hex() == cold, spec


def test_shift_periodicity_is_bit_exact_for_dyadic_shifts():
    # with d a power of two and b dyadic every term argument is exact,
    # and IEEE remainder folds b and b + period to the same float
    for family in (Family.COS_COT, Family.SIN_COT):
        for b in (0.015625, 1.203125, -0.578125):
            for n in (1, 2):
                lo = direct_sum(SumSpec(family, 8, 3, b, n)).value
                hi = direct_sum(SumSpec(family, 8, 3, b + 1.0, n)).value
                assert lo == hi, (family, b, n)
    for family in (Family.SIN_CSC_ODD, Family.COS_CSC_ODD):
        lo = direct_sum(SumSpec(family, 8, 3, 0.015625, 2)).value
        hi = direct_sum(SumSpec(family, 8, 3, 2.015625, 2)).value
        assert lo == hi


def test_compensated_sum_matches_reversed_fsum():
    specs = (
        SumSpec(Family.COS_CSC_2N, 12, 5, 0.137, 3),
        SumSpec(Family.SIN_CSC_ODD, 15, 7, 0.03, 2),
        SumSpec(Family.COS_COT_2D, 9, 4, 0.09),
        SumSpec(Family.SIN_CSC_SEC, 11, 6, 0.137, 1, 0.447),
    )
    for spec in specs:
        forward = direct_sum(spec).value
        backward = math.fsum(list(_terms(spec))[::-1])
        scale = 1.0 + term_magnitude_sum(spec)
        assert abs(forward - backward) <= 1e-12 * scale, spec


def test_classical_identity_small_range():
    for d in range(2, 21):
        for m in range(1, d):
            got = direct_sum(SumSpec(Family.SIN_COT, d, m, 0.0)).value
            assert abs(got - (d - 2 * m)) <= 1e-10, (d, m)


def test_pole_guards_raise():
    for fn, x in ((cot_pi, 1e-13), (csc_pi, 1.0 + 1e-13), (tan_pi, 0.5 + 1e-13), (sec_pi, -0.5)):
        with pytest.raises(NumericError, match="singular term"):
            fn(x)


def test_direct_sum_validates():
    with pytest.raises(ParameterError, match="m out of range"):
        direct_sum(SumSpec(Family.COS_COT, 3, 4, 0.1))
    with pytest.raises(ParameterError, match="singular set"):
        direct_sum(SumSpec(Family.COS_COT, 4, 1, 0.25))


def test_start_indices_follow_vanishing_terms():
    assert len(list(_terms(SumSpec(Family.COS_COT, 5, 2, 0.137)))) == 5
    assert len(list(_terms(SumSpec(Family.SIN_COT, 5, 2, 0.137)))) == 4
    assert len(list(_terms(SumSpec(Family.COS_COT_2D, 5, 2, 0.03)))) == 10
    assert len(list(_terms(SumSpec(Family.SIN_COT_2D, 5, 2, 0.03)))) == 9
    # no singular factor at j=0 here, so the vanishing term is kept
    assert len(list(_terms(SumSpec(Family.SIN_SEC_SEC, 5, 2, 0.137, 1, 0.447)))) == 5


def test_terms_match_unfolded_arithmetic():
    d, m, b, b2 = 3, 1, 0.1, 0.7
    spec = SumSpec(Family.COS_CSC_COS, d, m, b, 1, b2)
    manual = math.fsum(
        math.cos(2 * math.pi * m * j / d)
        / math.sin(math.pi * (j / d + b))
        * math.cos(math.pi * (j / d + b2))
        for j in range(d)
    )
    got = direct_sum(spec).value
    assert got == pytest.approx(manual, rel=1e-13)


def test_cos_pi_ratio_is_exactly_zero_at_a_quarter_turn():
    for num, den in ((1, 2), (3, 2), (11, 22), (-13, 26), (39, 26)):
        assert cos_pi_ratio(num, den) == 0.0


@pytest.mark.parametrize("family, d, m, b", [
    (Family.COS_CSC_ODD, 22, 11, 0.137),
    (Family.COS_CSC_2N, 52, 13, 0.5 / 52 + 0.01),
])
def test_quarter_turn_prefix_near_a_pole_matches_reference(family, d, m, b):
    # the prefix vanishes at the term with the largest cosecant, where a
    # rounded zero times csc^p would swamp the sum; the reference takes that
    # zero exactly
    spec = SumSpec(family, d, m, b, 4)
    want = reference_sum(spec)
    got = direct_sum(spec).value
    assert abs(got - want) <= 1e-12 * abs(want)


def test_term_magnitude_sum_manual():
    spec = SumSpec(Family.COS_COT, 2, 1, 0.25)
    want = abs(cot_pi(0.25)) + abs(cot_pi(0.75))
    assert term_magnitude_sum(spec) == pytest.approx(want, rel=1e-15)
    # two equidistant near-pole terms with opposite prefix signs cancel,
    # so the magnitudes dwarf the signed sum
    spec = SumSpec(Family.COS_CSC_2N, 8, 4, 0.4375, 2)
    assert term_magnitude_sum(spec) > 100 * abs(direct_sum(spec).value)


def loop_terms(spec):
    """The defining terms, each formed on its own: the reference for the oracle's rows."""
    traits = TRAITS[spec.family]
    fns = {"cot": cot_pi, "csc": csc_pi, "tan": tan_pi, "sec": sec_pi, "cos": cos_pi,
           "sin": sin_pi}
    d = spec.d
    prefix = cos_pi_ratio if traits.prefix == "cos" else sin_pi_ratio
    num = spec.m if traits.odd_m else 2 * spec.m
    den = 2 * d if traits.kind == "double" else d
    beta = math.remainder(spec.b, traits.shift_period)
    power = pole_order(spec.family, spec.n) if traits.kind == "power" else None
    for j in range(traits.oracle_start, den):
        factor = fns[traits.shift_kind](j / den + beta)
        term = prefix(num * j, d) * (factor if power is None else factor ** power)
        if traits.kind == "triple":
            term *= fns[traits.second_kind](j / d + math.remainder(spec.b2, traits.shift_period))
        yield term


def loop_distance(spec):
    """The pole distance scanned term by term: the reference for the oracle's conditioning."""
    traits = TRAITS[spec.family]
    den = 2 * spec.d if traits.kind == "double" else spec.d
    shifts = [(traits.shift_kind, spec.b)]
    if traits.kind == "triple":
        shifts.append((traits.second_kind, spec.b2))
    best = math.inf
    for j in range(traits.oracle_start, den):
        for kind, b in shifts:
            x = j / den + math.remainder(b, traits.shift_period)
            if kind in ("cot", "csc"):
                best = min(best, abs(math.remainder(x, 1.0)))
            elif kind in ("tan", "sec"):
                best = min(best, abs(math.remainder(x - 0.5, 1.0)))
    return best * math.pi


def kahan(terms) -> float:
    acc = comp = 0.0
    for term in terms:
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc + 0.0


def oracle_bits(spec):
    return direct_sum(spec).value.hex(), term_magnitude_sum(spec).hex()


def walk_specs(family):
    """Valid specs over m, n and three shifts at d = 4, 7 and 12, in verify's order."""
    traits = TRAITS[family]
    specs = []
    for d in (4, 7, 12):
        for m in range(1, d, 2 if traits.odd_m else 1):
            for b in (0.137, 0.2500001, 1e9 + 0.3):
                for n in ((1, 2) if traits.supports_power else (1,)):
                    b2 = b + 0.31 if traits.kind == "triple" else None
                    try:
                        specs.append(validate_params(SumSpec(family, d, m, b, n, b2)))
                    except ParameterError:
                        pass
    assert specs
    return specs


def test_prefix_rows_match_the_direct_loop_entry_by_entry():
    # every row the families request, built by the reflection from d = 9 on;
    # repr tells the signed zeros apart
    requests = set()
    for family, traits in TRAITS.items():
        span = 2 if traits.kind == "double" else 1
        for d in range(2, 65):
            for m in range(1, d, 2 if traits.odd_m else 1):
                requests.add((traits.prefix, m if traits.odd_m else 2 * m, d,
                              traits.oracle_start, span * d))
    assert {(p, num % 2, start, stop // d) for p, num, d, start, stop in requests} == {
        ("cos", 0, 0, 1), ("cos", 0, 0, 2), ("cos", 1, 0, 1), ("sin", 0, 1, 1),
        ("sin", 0, 1, 2), ("sin", 1, 1, 1), ("sin", 0, 0, 1)}
    for prefix, num, d, start, stop in requests:
        ratio = cos_pi_ratio if prefix == "cos" else sin_pi_ratio
        want = [repr(ratio(num * j, d)) for j in range(start, stop)]
        got = _prefix_row.__wrapped__(prefix, num, d, start, stop)
        assert list(map(repr, got)) == want, (prefix, num, d, start, stop)


@pytest.mark.parametrize("family", list(Family))
def test_rows_cold_and_warm_give_the_same_bits(family):
    specs = walk_specs(family)
    for spec in specs:
        want = (kahan(loop_terms(spec)).hex(), math.fsum(map(abs, loop_terms(spec))).hex())
        # with the walk ended and every walk cache empty
        enter_walk(None)
        assert oracle_bits(spec) == want, spec
        # on the walk with every walk cache empty again
        enter_walk(family)
        assert oracle_bits(spec) == want, spec
        # after a sweep over m and n has filled the caches
        for other in specs:
            oracle_bits(other)
        assert oracle_bits(spec) == want, spec


@pytest.mark.parametrize("family", list(Family))
def test_conditioning_cold_and_warm_equals_a_plain_scan(family):
    specs = walk_specs(family)
    for spec in specs:
        want = loop_distance(spec).hex()
        # with every walk cache empty
        enter_walk(None)
        assert conditioning(spec).hex() == want, spec
        # after a sweep over m and n, and the sums, have filled the caches
        for other in specs:
            conditioning(other)
            direct_sum(other)
        assert conditioning(spec).hex() == want, spec


def test_a_sweep_over_m_and_n_reuses_the_rows():
    specs = [SumSpec(Family.COS_CSC_2N, 9, m, b, n) for b in (0.137, 0.41) for m in range(1, 9)
             for n in (1, 2, 3)]
    enter_walk(Family.COS_CSC_2N)
    for spec in specs:
        direct_sum(spec)
        term_magnitude_sum(spec)
    # one factor row per (d, b), one prefix row per (d, m)
    assert _factor_rows.cache_info().misses == 2
    assert _prefix_row.cache_info().misses == 8
    # in verify's order, conditioning has built the factor rows before the sum reads them
    enter_walk(None)
    for spec in specs:
        conditioning(spec)
        direct_sum(spec)
    assert _factor_rows.cache_info().misses == 2
    assert _factor_rows.cache_info().hits == len(specs)


def test_row_caches_are_bounded():
    enter_walk(Family.COS_COT)
    for k in range(WALK_CACHE_SIZE + 12):
        direct_sum(SumSpec(Family.COS_COT, 7, 1, 0.01 + k / 1000))
        direct_sum(SumSpec(Family.COS_COT, 2 + k, 1, 0.01))
        conditioning(SumSpec(Family.COS_COT, 7, 1, 0.01 + k / 1000))
    assert _factor_rows.cache_info().currsize == WALK_CACHE_SIZE
    assert _prefix_row.cache_info().currsize == WALK_CACHE_SIZE
    assert _pole_distance.cache_info().currsize == WALK_CACHE_SIZE


@pytest.mark.parametrize("family, b, b2", [
    # the j = 0 argument b is 7.5e-13 radians from the pole at 0, yet d*b = 1.2e-8
    (Family.COS_COT, 1.2e-8 / 50000, None),
    # the factor on b2 fails at j = 0, before the one on b fails at j = 10
    (Family.COS_CSC_CSC, 1.0 - 10 / 50000 + 2.4e-13, 1.2e-8 / 50000),
])
def test_a_valid_spec_with_an_argument_inside_the_pole_guard(family, b, b2):
    spec = SumSpec(family, 50000, 1, b, 1, b2)
    cond = conditioning(spec)
    assert 0.0 < cond <= 1e-12
    with pytest.raises(NumericError) as want:
        sum(loop_terms(spec))
    assert f"argument {b2 or b!r} (half turns)" in str(want.value)
    for fn in (direct_sum, term_magnitude_sum):
        with pytest.raises(NumericError, match=re.escape(str(want.value))):
            fn(spec)
    assert conditioning(spec) == cond
