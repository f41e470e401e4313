"""Composition enumeration and coefficient products."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsum.multiindex import (
    CompositionTuple,
    cot_coeff_product,
    csc_coeff_product,
    enumerate_compositions,
)
from trigsum.errors import ParameterError

def brute_force(total, parts):
    # direct box search; the reference the real enumerator is tested against
    out = []
    bound = total // 2
    for js in product(range(bound + 1), repeat=parts):
        rem = total - 2 * sum(js)
        if rem < 0:
            continue
        for mu in range(rem + 1):
            out.append((js, mu, rem - mu))
    return out


def test_single_zero_tuple():
    got = enumerate_compositions(0, 1)
    assert got == (CompositionTuple(js=(0,), mu=0, nu=0),)


def test_total_two_parts_three_count():
    assert len(enumerate_compositions(2, 3)) == 6


def test_total_one_parts_two():
    got = set(enumerate_compositions(1, 2))
    assert got == {
        CompositionTuple(js=(0, 0), mu=1, nu=0),
        CompositionTuple(js=(0, 0), mu=0, nu=1),
    }


def test_constraint_holds_on_every_tuple():
    for tup in enumerate_compositions(7, 4):
        assert 2 * sum(tup.js) + tup.mu + tup.nu == 7
        assert all(j >= 0 for j in tup.js)
        assert tup.total == 7


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=8),
    parts=st.integers(min_value=1, max_value=6),
)
def test_enumeration_matches_brute_force(total, parts):
    got = enumerate_compositions(total, parts)
    want = brute_force(total, parts)
    assert len(got) == len(want)
    assert {(t.js, t.mu, t.nu) for t in got} == set(want)


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=8),
    parts=st.integers(min_value=1, max_value=6),
)
def test_no_duplicates_and_parity_partition(total, parts):
    # 2*sum(js) is even, so every tuple's mu+nu has the parity of total
    seq = enumerate_compositions(total, parts)
    assert len(set(seq)) == len(seq)
    assert all((t.mu + t.nu - total) % 2 == 0 for t in seq)


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=8),
    parts=st.integers(min_value=1, max_value=6),
)
def test_lexicographic_order(total, parts):
    keys = [(t.js, t.mu) for t in enumerate_compositions(total, parts)]
    assert keys == sorted(keys)


def test_invalid_enumeration_arguments():
    with pytest.raises(ParameterError):
        enumerate_compositions(-1, 2)
    with pytest.raises(ParameterError):
        enumerate_compositions(2, 0)


def test_cot_coeff_product_examples():
    assert cot_coeff_product((0, 0, 0)) == 1
    assert cot_coeff_product((1,)) == Fraction(-1, 3)
    assert cot_coeff_product((1, 2)) == Fraction(1, 135)


def test_csc_coeff_product_examples():
    assert csc_coeff_product((0, 0)) == 1
    assert csc_coeff_product((0, 1)) == Fraction(1, 6)
    assert csc_coeff_product((1, 1)) == Fraction(1, 36)


def test_products_over_enumerated_tuples_are_exact_rationals():
    for tup in enumerate_compositions(5, 3):
        value = cot_coeff_product(tup.js)
        assert isinstance(value, Fraction)
