"""Direct-summation oracle: term layout, compensation, conditioning."""

import math

import pytest

from trigsum import (
    Family,
    SumSpec,
    conditioning,
    direct_sum,
    term_magnitude_sum,
)
from trigsum.errors import NumericError, ParameterError
from trigsum.oracle import _terms
from trigsum.trig import cos_pi_ratio, cot_pi, csc_pi, sec_pi, tan_pi


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
    # rounded zero times csc^p would swamp the sum
    mpmath = pytest.importorskip("mpmath")
    n = 4
    power = 2 * n - 1 if family is Family.COS_CSC_ODD else 2 * n
    freq = m if family is Family.COS_CSC_ODD else 2 * m
    with mpmath.workdps(40):
        pi = mpmath.pi
        want = mpmath.fsum(
            mpmath.cos(pi * freq * j / d) * mpmath.csc(pi * (mpmath.mpf(j) / d + b)) ** power
            for j in range(d)
        )
        got = direct_sum(SumSpec(family, d, m, b, n)).value
        assert abs(got - want) <= 1e-12 * abs(want)


def test_term_magnitude_sum_manual():
    spec = SumSpec(Family.COS_COT, 2, 1, 0.25)
    want = abs(cot_pi(0.25)) + abs(cot_pi(0.75))
    assert term_magnitude_sum(spec) == pytest.approx(want, rel=1e-15)
    # two equidistant near-pole terms with opposite prefix signs cancel,
    # so the magnitudes dwarf the signed sum
    spec = SumSpec(Family.COS_CSC_2N, 8, 4, 0.4375, 2)
    assert term_magnitude_sum(spec) > 100 * abs(direct_sum(spec).value)
