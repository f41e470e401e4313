"""Family catalog: the traits each family's description yields, validation and the fold."""

import dataclasses
import random

import pytest

import trigsum
from trigsum import direct_sum, families
from trigsum.errors import ParameterError
from trigsum.families import (TRAITS, Family, FamilyTraits, SumSpec, frequency_fold,
                              validate_params)

FIELDS = ("prefix", "kind", "shift_kind", "second_kind", "odd_m", "shift_period",
          "oracle_start", "supports_power", "supports_residue")

# one literal row per family, so that a wrong derivation of a trait fails here
WANT = {
    Family.COS_COT: ("cos", "power", "cot", None, False, 1, 0, True, True),
    Family.SIN_COT: ("sin", "power", "cot", None, False, 1, 1, True, True),
    Family.SIN_CSC_2N: ("sin", "power", "csc", None, False, 1, 1, True, True),
    Family.COS_CSC_2N: ("cos", "power", "csc", None, False, 1, 0, True, True),
    Family.SIN_CSC_ODD: ("sin", "power", "csc", None, True, 2, 1, True, True),
    Family.COS_CSC_ODD: ("cos", "power", "csc", None, True, 2, 0, True, True),
    Family.COS_TAN: ("cos", "tangent", "tan", None, False, 1, 0, False, False),
    Family.SIN_TAN: ("sin", "tangent", "tan", None, False, 1, 1, False, False),
    Family.COS_COT_2D: ("cos", "double", "cot", None, False, 1, 0, False, False),
    Family.SIN_COT_2D: ("sin", "double", "cot", None, False, 1, 1, False, False),
    Family.COS_CSC_COS: ("cos", "triple", "csc", "cos", False, 2, 0, False, True),
    Family.COS_CSC_SIN: ("cos", "triple", "csc", "sin", False, 2, 0, False, True),
    Family.COS_SEC_COS: ("cos", "triple", "sec", "cos", False, 2, 0, False, False),
    Family.COS_SEC_SIN: ("cos", "triple", "sec", "sin", False, 2, 0, False, False),
    Family.SIN_CSC_COS: ("sin", "triple", "csc", "cos", False, 2, 1, False, True),
    Family.SIN_CSC_SIN: ("sin", "triple", "csc", "sin", False, 2, 1, False, True),
    Family.COS_CSC_CSC: ("cos", "triple", "csc", "csc", False, 2, 0, False, False),
    Family.COS_CSC_SEC: ("cos", "triple", "csc", "sec", False, 2, 0, False, False),
    Family.COS_SEC_SEC: ("cos", "triple", "sec", "sec", False, 2, 0, False, False),
    Family.SIN_CSC_CSC: ("sin", "triple", "csc", "csc", False, 2, 1, False, False),
    Family.SIN_CSC_SEC: ("sin", "triple", "csc", "sec", False, 2, 1, False, False),
    Family.SIN_SEC_SEC: ("sin", "triple", "sec", "sec", False, 2, 0, False, False),
}


def test_every_trait_of_every_family_is_pinned():
    # the traits stay stored fields: verify reads them several times per case
    assert tuple(field.name for field in dataclasses.fields(FamilyTraits)) == FIELDS
    assert set(TRAITS) == set(Family) == set(WANT)
    for family, want in WANT.items():
        assert dataclasses.astuple(TRAITS[family]) == want, family


# --- the package surface -----------------------------------------------------

# the 21 public names, sorted
EXPORTS = (
    "Family", "NumericError", "POWER_FAMILIES", "ParameterError", "RESIDUE_FAMILIES", "SumSpec",
    "SumValue", "TRAITS", "__version__", "apostol_coeff_table", "bernoulli", "boundary_residues",
    "closed_form_value", "conditioning", "cot_coeff", "csc_coeff", "direct_sum",
    "residue_at_interior_pole", "sum_via_residues", "term_magnitude_sum", "validate_params",
)


def test_package_exports():
    # three paths with one entry each, the tables `trigsum coeffs` prints, the
    # family catalog and the errors; the layers' helpers stay in their modules
    assert sorted(trigsum.__all__) == list(EXPORTS)
    assert all(hasattr(trigsum, name) for name in trigsum.__all__)
    bound = {}
    exec("from trigsum import *", bound)
    assert {name for name in bound if name != "__builtins__"} == set(EXPORTS)


# --- the validation mark -----------------------------------------------------

@pytest.fixture
def shift_checks(monkeypatch):
    """Every _check_shift call's arguments, in order."""
    checked = []
    check_shift = families._check_shift

    def counting_check(*args):
        checked.append(args)
        return check_shift(*args)

    monkeypatch.setattr(families, "_check_shift", counting_check)
    return checked


def test_the_same_spec_object_is_validated_once(shift_checks):
    spec = SumSpec(Family.COS_CSC_CSC, 7, 2, 0.137, 1, 0.447)
    assert validate_params(spec) is spec
    first = len(shift_checks)
    assert first == 2
    assert validate_params(spec) is spec
    assert len(shift_checks) == first
    # dataclasses.replace gives an equal spec that starts unmarked and is checked again
    copy = dataclasses.replace(spec)
    assert copy == spec and copy._valid is False
    assert validate_params(copy) is copy
    assert len(shift_checks) == 2 * first
    assert validate_params(copy) is copy
    assert len(shift_checks) == 2 * first


def test_a_spec_stays_validated_after_others_are(shift_checks):
    a = SumSpec(Family.COS_CSC_CSC, 7, 2, 0.137, 1, 0.447)
    b = SumSpec(Family.SIN_SEC_SEC, 9, 4, 0.21, 1, 0.52)
    validate_params(a)
    validate_params(b)
    seen = len(shift_checks)
    assert seen == 4
    assert validate_params(a) is a
    assert validate_params(b) is b
    assert len(shift_checks) == seen


def test_the_mark_is_not_part_of_the_spec():
    marked = validate_params(SumSpec(Family.COS_CSC_SEC, 7, 2, 0.137, 1, 0.447))
    plain = SumSpec(Family.COS_CSC_SEC, 7, 2, 0.137, 1, 0.447)
    assert marked._valid is True and plain._valid is False
    assert marked == plain and hash(marked) == hash(plain) and repr(marked) == repr(plain)


def test_an_invalid_spec_after_a_valid_one_still_raises():
    valid = validate_params(SumSpec(Family.COS_COT, 4, 1, 0.137))
    for bad in (SumSpec(Family.COS_COT, 4, 1, 0.25),            # b*d on the lattice
                dataclasses.replace(valid, m=4),                  # m out of range
                SumSpec(Family.COS_COT, 4, 1, 0.137, 1, 0.3)):    # extraneous b2
        with pytest.raises(ParameterError):
            validate_params(bad)
        with pytest.raises(ParameterError):
            validate_params(bad)
        assert bad._valid is False
    assert validate_params(valid) is valid


def test_a_family_label_is_still_converted():
    # only the converted copy is marked, so the label spec is converted each time
    labelled = SumSpec("sin-csc-odd", 7, 3, 0.137, 2)
    for _ in range(2):
        spec = validate_params(labelled)
        assert spec is not labelled
        assert spec.family is Family.SIN_CSC_ODD
        assert spec == SumSpec(Family.SIN_CSC_ODD, 7, 3, 0.137, 2)
        assert spec._valid is True and labelled._valid is False
    assert validate_params(spec) is spec


# --- the frequency fold ------------------------------------------------------

def test_frequency_fold_reflects_m_above_half_of_d():
    for family, sign in ((Family.COS_COT, 1.0), (Family.SIN_COT, -1.0),
                         (Family.COS_CSC_COS, 1.0), (Family.SIN_CSC_SIN, -1.0)):
        b2 = 0.447 if TRAITS[family].kind == "triple" else None
        assert frequency_fold(SumSpec(family, 8, 3, 0.137, 1, b2)) == (3, 1.0)
        assert frequency_fold(SumSpec(family, 8, 5, 0.137, 1, b2)) == (3, sign)
        assert frequency_fold(SumSpec(family, 9, 8, 0.137, 1, b2)) == (1, sign)
        # at 2m = d every sine prefix vanishes; the cosine keeps m
        want = (4, 1.0) if TRAITS[family].prefix == "cos" else (None, 0.0)
        assert frequency_fold(SumSpec(family, 8, 4, 0.137, 1, b2)) == want


def test_frequency_fold_leaves_odd_m_families_alone():
    for family in (Family.SIN_CSC_ODD, Family.COS_CSC_ODD):
        for d, m in ((8, 3), (8, 5), (8, 7), (10, 5), (9, 1)):
            assert frequency_fold(SumSpec(family, d, m, 0.137)) == (m, 1.0), (family, d, m)


def test_frequency_fold_folds_the_doubled_range_as_the_single():
    # cos(2 pi (d - m) j/d) = cos(2 pi m j/d) for every integer j, so over
    # 2d terms as over d: the doubled range folds as its single-range twin
    for double, single in ((Family.COS_COT_2D, Family.COS_COT), (Family.SIN_COT_2D, Family.SIN_COT)):
        for d, m in ((8, 3), (8, 5), (8, 7), (10, 5), (9, 1), (9, 8), (2, 1)):
            got = frequency_fold(SumSpec(double, d, m, 0.137))
            assert got == frequency_fold(SumSpec(single, d, m, 0.137)), (double, d, m)
    # and the oracle, which sums the defining terms, sees the same fold, exactly
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        family = rng.choice((Family.COS_COT_2D, Family.SIN_COT_2D))
        d = rng.randint(2, 40)
        m = rng.randint((d + 1) // 2, d - 1)
        b = rng.uniform(-1.0, 1.0) + (1e9 if checked % 4 == 0 else 0.0)
        try:
            spec = validate_params(SumSpec(family, d, m, b))
        except ParameterError:
            continue
        folded_m, sign = frequency_fold(spec)
        want = 0.0 if folded_m is None else sign * direct_sum(SumSpec(family, d, folded_m, b)).value
        assert direct_sum(spec).value == want, spec
        checked += 1
