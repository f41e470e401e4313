"""Family catalog: the traits each family's description yields."""

import dataclasses

from trigsum.families import TRAITS, Family, FamilyTraits

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
