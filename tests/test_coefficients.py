"""Coefficient tables: known values, independent oracles, degeneracies."""

import cmath
import math
import random
import threading
from fractions import Fraction

import pytest

from trigsum import apostol_coeff_table, bernoulli, cot_coeff, csc_coeff
from trigsum.coefficients import coefficient_cap
from trigsum.errors import NumericError, ParameterError

KNOWN_COT = (
    Fraction(1),
    Fraction(-1, 3),
    Fraction(-1, 45),
    Fraction(-2, 945),
    Fraction(-1, 4725),
)
KNOWN_CSC = (
    Fraction(-1),
    Fraction(-1, 6),
    Fraction(-7, 360),
    Fraction(-31, 15120),
    Fraction(-127, 604800),
)


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle (yields the B_1 = +1/2 convention)."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_recurrence():
    for j in range(0, 21):
        expected = akiyama_tanigawa(j)
        if j == 1:
            expected = -expected
        assert bernoulli(j) == expected


def test_odd_bernoulli_vanish():
    assert all(bernoulli(j) == 0 for j in range(3, 25, 2))


def test_cot_coeff_known_values():
    assert tuple(cot_coeff(j) for j in range(5)) == KNOWN_COT


def test_csc_coeff_known_values():
    assert tuple(csc_coeff(j) for j in range(5)) == KNOWN_CSC


def test_coeffs_relate_to_bernoulli_exactly():
    for j in range(17):
        b = bernoulli(2 * j)
        fact = math.factorial(2 * j)
        assert cot_coeff(j) == Fraction((-1) ** j * 2 ** (2 * j)) * b / fact
        assert csc_coeff(j) == (-1) ** j * 2 * (Fraction(2) ** (2 * j - 1) - 1) * b / fact


@pytest.mark.parametrize("angle", [0.0, 0.3, 1.1, 2.5, 4.0])
def test_cot_partial_sum_matches_cotangent(angle):
    w = 0.1 * cmath.exp(1j * angle)
    partial = sum(complex(cot_coeff(j)) * math.pi ** (2 * j - 1) * w ** (2 * j - 1)
                  for j in range(9))
    direct = cmath.cos(math.pi * w) / cmath.sin(math.pi * w)
    assert abs(partial - direct) <= 1e-9


@pytest.mark.parametrize("angle", [0.0, 0.7, 1.9, 3.3, 5.1])
def test_csc_partial_sum_matches_negative_cosecant(angle):
    # G_j are the coefficients of -cosec(pi*w): the half-turn-shifted sign convention
    w = 0.1 * cmath.exp(1j * angle)
    partial = sum(complex(csc_coeff(j)) * math.pi ** (2 * j - 1) * w ** (2 * j - 1)
                  for j in range(9))
    direct = -1.0 / cmath.sin(math.pi * w)
    assert abs(partial - direct) <= 1e-9


def _closed_forms(t):
    return (
        1.0 / (t - 1.0),
        -t / (t - 1.0) ** 2,
        (t + t * t) / (t - 1.0) ** 3,
        -(t + 4.0 * t * t + t ** 3) / (t - 1.0) ** 4,
    )


def test_apostol_known_values():
    assert apostol_coeff_table(0, 2.0)[0] == pytest.approx(1.0, abs=1e-15)
    assert apostol_coeff_table(1, 2.0)[1] == pytest.approx(-2.0, abs=1e-15)
    assert abs(apostol_coeff_table(2, 1j)[2] - 0.5j) <= 1e-15


def test_apostol_matches_closed_forms_at_random_t():
    rng = random.Random(20260816)
    for _ in range(50):
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(t - 1.0) <= 0.1:
            continue
        table = apostol_coeff_table(3, t)
        for got, want in zip(table, _closed_forms(t)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_apostol_recurrence_property():
    rng = random.Random(411)
    for _ in range(20):
        t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(t - 1.0) <= 0.1:
            continue
        table = apostol_coeff_table(8, t)
        ratio = -t / (t - 1.0)
        for nu in range(1, 9):
            acc = sum(math.comb(nu, k) * table[k] for k in range(nu))
            want = ratio * acc
            assert abs(table[nu] - want) <= 1e-12 * max(1.0, abs(want))


def test_apostol_generating_function_partial_sum():
    # sum A_nu(t) (scale w)^nu / nu! against 1/(t e^(scale w) - 1) on |w| = 0.05
    rng = random.Random(7)
    cases = []
    for _ in range(10):
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(t - 1.0) <= 0.3:
            continue
        cases.append((t, 1.0, 12, 1e-10, rng.uniform(0, 2 * math.pi)))
    # the residue engine's kernel: complex t and the imaginary scale 2 pi i d
    cases += [(1.7 - 0.4j, 2j * math.pi, 40, 1e-9, theta) for theta in (0.3, 2.1, 4.0)]
    for t, scale, order, tol, theta in cases:
        z = scale * 0.05 * cmath.exp(1j * theta)
        table = apostol_coeff_table(order, t)
        partial = sum(table[nu] * z ** nu / math.factorial(nu) for nu in range(order + 1))
        direct = 1.0 / (t * cmath.exp(z) - 1.0)
        assert abs(partial - direct) <= tol, (t, scale)


def test_apostol_degenerate_parameter_rejected():
    with pytest.raises(ParameterError, match="degenerate Apostol parameter"):
        apostol_coeff_table(2, 1.0)
    with pytest.raises(ParameterError, match="degenerate Apostol parameter"):
        apostol_coeff_table(4, 1.0 + 1e-10)
    # just outside the tolerance is accepted
    apostol_coeff_table(4, 1.0 + 1e-6)


def test_negative_index_rejected():
    with pytest.raises(ParameterError):
        bernoulli(-1)
    with pytest.raises(ParameterError):
        cot_coeff(-2)
    with pytest.raises(ParameterError):
        apostol_coeff_table(-1, 2.0)


def test_cap_enforced_and_configurable(monkeypatch):
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "8")
    assert coefficient_cap() == 8
    cot_coeff(8)  # needs B_16 internally; the cap bounds the request index only
    with pytest.raises(NumericError, match="order too large"):
        cot_coeff(9)
    with pytest.raises(NumericError, match="order too large"):
        bernoulli(9)
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "abc")
    with pytest.raises(ParameterError):
        coefficient_cap()


def test_default_cap_covers_acceptance_depth():
    assert coefficient_cap() >= 64
    bernoulli(64)


def test_rationals_are_canonical():
    for j in range(12):
        c = cot_coeff(j)
        g = csc_coeff(j)
        assert c.denominator > 0 and math.gcd(abs(c.numerator), c.denominator) == 1
        assert g.denominator > 0 and math.gcd(abs(g.numerator), g.denominator) == 1


def test_concurrent_table_growth_is_consistent():
    results = []
    lock = threading.Lock()

    def worker(start):
        vals = [bernoulli(j) for j in range(start, start + 30)]
        with lock:
            results.append((start, vals))

    threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 5, 10, 20)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for start, vals in results:
        assert vals == [bernoulli(j) for j in range(start, start + 30)]
