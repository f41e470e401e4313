"""Each known defect (ROADMAP "Known defects") as a 40-digit reference test.

One test per (case, path): the path's value within 1e-12 of
mp_reference.reference_sum, relative to max(1, |ref|). A cell the path
gets wrong today is a strict xfail naming its defect, with the error
measured when the mark was set. A fix turns its cells into passes, which
strict xfail reports as failures, so the fix removes its own marks.
"""

import pytest

from trigsum import Family, SumSpec, closed_form_value, direct_sum, sum_via_residues

from mp_reference import reference_sum

PATHS = {"closed": closed_form_value, "oracle": direct_sum, "residue": sum_via_residues}

D2 = "D2: a boundary pole nears the interior pole the Apostol kernel is expanded about"
D8 = "D8: the oracle rounds j/d + b before it takes the pole"
D9 = "D9: the two-singular-factor identity subtracts two cot sums and divides by their gap"
D11 = "D11: the first-power closed form rounds d*b before it takes csc(pi d b)"
D11_RESIDUE = "D11: the residue kernel's phase rounds d*b, as the first-power closed form does"

# (case id, spec, {path: None for a pass, or (reason, error at the mark)});
# a path missing from the dict does not cover the family
CASES = (
    ("cos-csc-2n-n4-d52", SumSpec(Family.COS_CSC_2N, 52, 13, 0.5 / 52 + 0.01, 4),
     {"closed": (D2, 0.38), "oracle": None, "residue": (D2, 0.38)}),
    ("cos-csc-odd-n4-d22", SumSpec(Family.COS_CSC_ODD, 22, 11, 0.137, 4),
     {"closed": (D2, 2.6e-2), "oracle": None, "residue": (D2, 2.6e-2)}),
    ("sin-csc-2n-n2-d4", SumSpec(Family.SIN_CSC_2N, 4, 1, 0.49833, 2),
     {"closed": (D2, 3.1e-7), "oracle": None, "residue": (D2, 3.1e-7)}),
    ("sin-csc-2n-n4-d28", SumSpec(Family.SIN_CSC_2N, 28, 9, -0.5000000004731919, 4),
     {"closed": (D2, 1.2e61), "oracle": (D8, 1.2e-7), "residue": (D2, 1.2e61)}),
    ("sin-csc-2n-n4-d8", SumSpec(Family.SIN_CSC_2N, 8, 1, -1.0000182796823698, 4),
     {"closed": (D2, 6.5e20), "oracle": None, "residue": (D2, 6.5e20)}),
    ("sin-csc-2n-n4-d4", SumSpec(Family.SIN_CSC_2N, 4, 3, -1.996448169034053, 4),
     {"closed": (D2, 6.3), "oracle": None, "residue": (D2, 6.3)}),
    ("sin-csc-2n-n4-d48", SumSpec(Family.SIN_CSC_2N, 48, 34, 1.0208333336309594, 4),
     {"closed": (D2, 7.6e-10), "oracle": (D8, 4.0e-6), "residue": (D2, 7.6e-10)}),
    ("sin-cot-n3-d10", SumSpec(Family.SIN_COT, 10, 3, 1e-7, 3),
     {"closed": (D2, 4.3e5), "oracle": None, "residue": (D2, 4.3e5)}),
    # the first is sweep-deep's failure (with its m = 6 twin) and trips
    # verify --dmax 8 --nmax 4, though dist(d*b, Z) = 0.096; the other two
    # take sweep-wide seed 2's offset
    ("cos-csc-2n-n4-d8", SumSpec(Family.COS_CSC_2N, 8, 2, 0.137, 4),
     {"closed": (D2, 4.3e-8), "oracle": None, "residue": (D2, 4.4e-8)}),
    ("sin-csc-2n-n2-d12", SumSpec(Family.SIN_CSC_2N, 12, 3, 0.8335246345312256, 2),
     {"closed": (D2, 7.2e-3), "oracle": None, "residue": (D2, 7.2e-3)}),
    ("cos-csc-odd-n2-d6", SumSpec(Family.COS_CSC_ODD, 6, 3, 0.8335246345312256, 2),
     {"closed": (D2, 4.8e-6), "oracle": None, "residue": (D2, 4.8e-6)}),
    ("sin-csc-sec-d33",
     SumSpec(Family.SIN_CSC_SEC, 33, 12, 7.41389488289057e-05, 1, 0.4999372138948829),
     {"closed": (D9, 2.7e-8), "oracle": None}),
    ("sin-cot-d37", SumSpec(Family.SIN_COT, 37, 5, (11 + 1.5e-8) / 37),
     {"closed": (D11, 3.7e-9), "oracle": (D8, 2.3e-7), "residue": (D11_RESIDUE, 3.6e-9)}),
    ("cos-cot-d37", SumSpec(Family.COS_COT, 37, 5, (11 + 1e-6) / 37),
     {"closed": (D11, 5.6e-10), "oracle": (D8, 1.4e-9), "residue": (D11_RESIDUE, 5.6e-10)}),
)


def _cells():
    for case_id, spec, paths in CASES:
        for path, defect in paths.items():
            marks = ()
            if defect is not None:
                reason, err = defect
                marks = pytest.mark.xfail(strict=True, reason=f"{reason} ({err:.2g} off)")
            yield pytest.param(spec, path, id=f"{case_id}-{path}", marks=marks)


@pytest.mark.parametrize("spec, path", _cells())
def test_path_matches_the_reference(spec, path):
    want = reference_sum(spec)
    got = PATHS[path](spec).value
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
