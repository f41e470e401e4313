"""End-to-end acceptance suite: one test per release criterion.

Each test prints its own pass/fail line in the terminal summary (see
conftest). Tolerances are absolute contract values, not tuning knobs;
the runtime budgets are asserted with a wall clock.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from trigsum import (
    RESIDUE_FAMILIES,
    TRAITS,
    Family,
    SumSpec,
    apostol_coeff_table,
    boundary_residues,
    closed_form_value,
    cot_coeff,
    csc_coeff,
    direct_sum,
    residue_at_interior_pole,
    sum_via_residues,
    validate_params,
)
from trigsum.cli import CSV_HEADER, default_offsets, main
from trigsum.errors import ParameterError
from trigsum.trig import cos_pi, cot_pi

POWER = tuple(f for f in Family if TRAITS[f].kind == "power")
TANGENT = tuple(f for f in Family if TRAITS[f].kind == "tangent")
DOUBLE = tuple(f for f in Family if TRAITS[f].kind == "double")
TRIPLE = tuple(f for f in Family if TRAITS[f].kind == "triple")


def rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def sample_m(d, odd_only):
    mid = d // 2 + 1 if d % 2 == 0 else (d + 1) // 2
    ms = [1, mid, d - 1]
    if odd_only:
        snapped = []
        for m in ms:
            if m % 2 == 0:
                m = m + 1 if m + 1 < d else m - 1
            if 0 < m < d:
                snapped.append(m)
        ms = snapped
    return ms


def test_acceptance_01_classical_identity():
    start = time.perf_counter()
    for d in range(2, 51):
        for m in range(1, d):
            got = direct_sum(SumSpec(Family.SIN_COT, d, m, 0.0)).value
            assert abs(got - (d - 2 * m)) <= 1e-10, (d, m)
    assert time.perf_counter() - start < 1.0


def test_acceptance_02_quarter_shift_combination():
    start = time.perf_counter()
    for d in range(2, 26):
        b = 1.0 / (4 * d)
        for m in range(1, d):
            cos_part = closed_form_value(SumSpec(Family.COS_COT, d, m, b)).value
            sin_part = closed_form_value(SumSpec(Family.SIN_COT, d, m, b)).value
            half = m / (2.0 * d)
            combo = cos_pi(half) * cos_part - math.sin(math.pi * half) * sin_part
            assert abs(combo - d) <= 1e-8, (d, m)
            # the same combination, summed directly with the phase folded in
            shifted = math.fsum(
                cos_pi(2.0 * m * j / d + half) * cot_pi(j / d + b) for j in range(d)
            )
            assert abs(combo - shifted) <= 1e-8, (d, m)
            assert abs(shifted - d) <= 1e-8, (d, m)
    assert time.perf_counter() - start < 1.0


def test_acceptance_03_first_power_suite():
    start = time.perf_counter()
    checked = 0
    for family in POWER + TANGENT + DOUBLE:
        odd_only = TRAITS[family].odd_m
        for d in range(2, 31):
            for b in default_offsets(d):
                for m in range(1, d):
                    if odd_only and m % 2 == 0:
                        continue
                    try:
                        spec = validate_params(SumSpec(family, d, m, b))
                    except ParameterError:
                        continue
                    closed = closed_form_value(spec).value
                    oracle = direct_sum(spec).value
                    assert rel_err(closed, oracle) <= 1e-8, spec
                    checked += 1
    assert checked > 5000
    assert time.perf_counter() - start < 10.0


def test_acceptance_04_higher_power_suite():
    start = time.perf_counter()
    checked = 0
    for family in POWER:
        odd_only = TRAITS[family].odd_m
        for d in range(2, 16):
            pairs = []
            for m, b in zip(sample_m(d, odd_only), default_offsets(d)):
                if (m, b) not in pairs:
                    pairs.append((m, b))
            for m, b in pairs:
                for n in range(1, 5):
                    try:
                        spec = validate_params(SumSpec(family, d, m, b, n))
                    except ParameterError:
                        continue
                    closed = closed_form_value(spec).value
                    oracle = direct_sum(spec).value
                    assert rel_err(closed, oracle) <= 1e-7, spec
                    checked += 1
    assert checked > 500
    assert time.perf_counter() - start < 30.0


def test_acceptance_05_residue_reconstruction():
    # same sampling as criterion 4, powers capped where the engine runs
    for family in POWER:
        odd_only = TRAITS[family].odd_m
        for d in range(2, 16):
            for m, b in zip(sample_m(d, odd_only), default_offsets(d)):
                for n in range(1, 4):
                    try:
                        spec = validate_params(SumSpec(family, d, m, b, n))
                    except ParameterError:
                        continue
                    got = sum_via_residues(spec).value
                    oracle = direct_sum(spec).value
                    assert rel_err(got, oracle) <= 1e-7, spec
    for family in (f for f in TRIPLE if TRAITS[f].supports_residue):
        for d in (6, 9):
            b = default_offsets(d)[0]
            spec = validate_params(SumSpec(family, d, 2, b, 1, b + 0.31))
            got = sum_via_residues(spec).value
            assert rel_err(got, direct_sum(spec).value) <= 1e-7, spec

    # all residues over one period cancel
    rng = random.Random(1000003)
    checked = 0
    while checked < 100:
        family = rng.choice(list(RESIDUE_FAMILIES))
        traits = TRAITS[family]
        d = rng.randint(2, 12)
        m = rng.randint(1, d - 1)
        if traits.odd_m and m % 2 == 0:
            continue
        if 2 * m == d and traits.prefix == "sin":
            continue
        n = 1 if traits.kind == "triple" else rng.randint(1, 3)
        b2 = rng.uniform(0.05, 0.95) if traits.kind == "triple" else None
        spec = SumSpec(family, d, m, rng.uniform(0.03, 0.97), n, b2)
        try:
            bres = boundary_residues(spec)
        except ParameterError:
            continue
        total = residue_at_interior_pole(spec) + sum(bres)
        assert abs(total) <= 1e-10 * max(abs(r) for r in bres), spec
        checked += 1

    # the j=0 boundary residue carries the bare cotangent power
    for n in (1, 2, 3):
        for d, b in ((3, 0.21), (7, 0.137), (12, 0.29)):
            got = boundary_residues(SumSpec(Family.COS_COT, d, 1, b, n))[0]
            want = cot_pi(b) ** n / (math.pi * 1j * d)
            assert abs(got - want) <= 1e-10 * abs(want), (n, d, b)


def test_acceptance_06_triple_product_suite():
    start = time.perf_counter()
    checked = 0
    for family in TRIPLE:
        for d in range(2, 21):
            for b in default_offsets(d):
                b2 = b + 0.31
                for m in range(1, d):
                    try:
                        spec = validate_params(SumSpec(family, d, m, b, 1, b2))
                    except ParameterError:
                        continue
                    closed = closed_form_value(spec).value
                    oracle = direct_sum(spec).value
                    assert rel_err(closed, oracle) <= 1e-8, spec
                    checked += 1
    assert checked > 5000
    # coincident shifts collapse cosec*cos to the first cotangent power
    for d in (4, 7):
        for b in (0.137, 0.29):
            triple = closed_form_value(SumSpec(Family.COS_CSC_COS, d, 2, b, 1, b)).value
            single = closed_form_value(SumSpec(Family.COS_COT, d, 2, b)).value
            assert rel_err(triple, single) <= 1e-12, (d, b)
    assert time.perf_counter() - start < 10.0


def test_acceptance_07_coefficient_tables():
    assert [cot_coeff(j) for j in range(4)] == [
        Fraction(1), Fraction(-1, 3), Fraction(-1, 45), Fraction(-2, 945)
    ]
    assert [csc_coeff(j) for j in range(4)] == [
        Fraction(-1), Fraction(-1, 6), Fraction(-7, 360), Fraction(-31, 15120)
    ]
    rng = random.Random(74207281)
    for _ in range(20):
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(t - 1) <= 0.1:
            continue
        table = apostol_coeff_table(6, t)
        closed = [
            1 / (t - 1),
            -t / (t - 1) ** 2,
            (t + t ** 2) / (t - 1) ** 3,
            -(t + 4 * t ** 2 + t ** 3) / (t - 1) ** 4,
        ]
        for nu, want in enumerate(closed):
            assert abs(table[nu] - want) <= 1e-12 * max(1.0, abs(want)), (t, nu)
        # defining recurrence, one order at a time
        for nu in range(1, 7):
            acc = sum(math.comb(nu, k) * table[k] for k in range(nu))
            want = -t / (t - 1) * acc
            assert abs(table[nu] - want) <= 1e-12 * max(1.0, abs(want)), (t, nu)


def test_acceptance_08_cli_contract(capsys, monkeypatch):
    assert CSV_HEADER == (
        "family,n,d,m,b,b2,closed_form,oracle,residue,abs_err,rel_err,conditioning,status"
    )
    assert main(["verify", "--dmax", "10", "--quiet"]) == 0
    capsys.readouterr()
    assert main(["verify", "--dmax", "3", "--nmax", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    monkeypatch.setenv("TRIGSUM_TOL", "1e-30")
    assert main(["verify", "--dmax", "10", "--quiet"]) == 3
    capsys.readouterr()
