"""Command-line interface: output contracts and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trigsum import cli, families, residue_engine
from trigsum.cli import CSV_HEADER, PATH_NAMES, evaluate_case, grid_cases, main
from trigsum.closed_form import closed_form_value
from trigsum.coefficients import bernoulli
from trigsum.errors import NumericError, ParameterError
from trigsum.families import Family, SumSpec, validate_params

from mp_reference import reference_sum


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_plain_repr(capsys):
    code, out, _ = run(capsys, ["eval", "--family", "sin-cot", "--d", "5", "--m", "2", "--b", "0"])
    assert code == 0
    assert out.strip() == "1.0"


def test_eval_json_contract(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--family", "cos-cot", "--n", "1", "--d", "3", "--m", "1",
         "--b", "0.16666666666666666", "--json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["value"] - 2.598076211) <= 1e-6
    assert set(obj) == {"family", "n", "d", "m", "b", "b2", "value"}
    assert obj["family"] == "cos-cot" and obj["b2"] is None
    # flat object, keys already sorted
    assert json.dumps(obj, sort_keys=True) == out.strip()


def test_eval_json_all_paths(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--family", "cos-cot", "--d", "3", "--m", "1", "--b", "0.137",
         "--json", "--all-paths"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert {"oracle", "residue", "abs_err", "rel_err", "conditioning"} <= set(obj)
    assert abs(obj["oracle"] - obj["value"]) <= 1e-8 * max(1.0, abs(obj["value"]))


def test_eval_all_paths_text(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--family", "sin-csc-2n", "--d", "3", "--m", "1", "--b", "0.25", "--all-paths"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("closed: ")
    assert lines[-1] == "status: pass"


@pytest.mark.parametrize("case, paths", [
    # D2: a boundary pole nearly merges with the interior pole; closed and residue 0.38 off
    (["--family", "cos-csc-2n", "--n", "4", "--d", "52", "--m", "13", "--b", repr(0.5 / 52 + 0.01)],
     ["closed", "oracle", "residue"]),
    # D9: b2 close to b + 1/2; the closed form is 2.7e-8 off the oracle
    (["--family", "sin-csc-sec", "--d", "33", "--m", "12", "--b", "7.41389488289057e-05",
      "--b2", "0.4999372138948829"], ["closed", "oracle"]),
])
def test_eval_all_paths_exits_3_on_a_failed_comparison(capsys, case, paths):
    code, out, _ = run(capsys, ["eval", *case, "--all-paths"])
    assert code == 3
    lines = out.splitlines()
    assert [line.split(": ")[0] for line in lines] == paths + ["abs_err", "rel_err",
                                                              "conditioning", "status"]
    assert lines[-1] == "status: fail"
    code, out, _ = run(capsys, ["eval", *case, "--all-paths", "--json"])
    assert code == 3
    obj = json.loads(out)
    assert obj["status"] == "fail"
    assert set(obj) == {"family", "n", "d", "m", "b", "b2", "value", "oracle", "residue",
                        "abs_err", "rel_err", "conditioning", "status"}


def test_eval_rejects_singular_shift(capsys):
    code, _, err = run(capsys, ["eval", "--family", "cos-cot", "--d", "4", "--m", "1", "--b", "0.25"])
    assert code == 2
    assert "parameter on singular set" in err


def test_eval_tests_the_singular_set_on_the_reduced_shift(capsys):
    # b*7 rounds to the integer 7000000001.0, though 7b is 3.6e-7 from one
    b = "1000000000.1428572"
    code, out, _ = run(capsys, ["eval", "--family", "cos-cot", "--d", "7", "--m", "2", "--b", b])
    assert code == 0
    want = reference_sum(SumSpec(Family.COS_COT, 7, 2, float(b)))
    assert abs(float(out) - want) <= 1e-12 * abs(want)
    # a shift on the lattice at 1e9 is still refused, with the product of the reduced shift
    code, _, err = run(capsys, ["eval", "--family", "cos-cot", "--d", "8", "--m", "2",
                                "--b", "1000000000.125"])
    assert code == 2
    assert "parameter on singular set: b*8 = 1.0 is within 1e-08 of an integer " \
        "(excluded for cos-cot)" in err


def test_eval_rejects_unknown_family(capsys):
    code, _, err = run(capsys, ["eval", "--family", "cos-what", "--d", "4", "--m", "1", "--b", "0.1"])
    assert code == 2
    assert "unknown family" in err


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--dmax", "4", "--nmax", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[-1].startswith("verification passed:")
    assert all(line.endswith(",pass") for line in lines[1:-1])


def test_verify_quiet_suppresses_rows(capsys):
    code, out, _ = run(capsys, ["verify", "--dmax", "4", "--nmax", "1", "--quiet"])
    assert code == 0
    assert len(out.splitlines()) == 1


def test_grid_cases_are_not_validated_again(monkeypatch):
    # the grid validates each spec as it builds it; no path, nor a later pass, checks it again
    cases = grid_cases(tuple(Family), 6, 2)
    checked = []
    check_params = families._check_params
    monkeypatch.setattr(families, "_check_params",
                        lambda spec: checked.append(spec) or check_params(spec))
    for _ in range(2):
        for spec, b_index in cases:
            evaluate_case(spec, b_index, PATH_NAMES, 1e-8)
    assert checked == []


def test_a_verify_case_asks_for_the_residue_gap_once(monkeypatch):
    classical = validate_params(SumSpec(Family.SIN_COT, 5, 2, 0.0))
    cases = grid_cases(tuple(Family), 5, 2) + [(classical, 0)]
    asked = []
    residue_gap = residue_engine.residue_gap

    def counting(spec):
        asked.append(spec)
        return residue_gap(spec)

    monkeypatch.setattr(residue_engine, "residue_gap", counting)
    monkeypatch.setattr(cli, "residue_gap", counting)
    for spec, b_index in cases:
        asked.clear()
        report = evaluate_case(spec, b_index, PATH_NAMES, 1e-8)
        assert asked == [spec], spec
        assert ("residue" in report.values) == (residue_gap(spec) is None)
    # the refusals keep their words
    with pytest.raises(ParameterError) as uncovered:
        residue_engine.sum_via_residues(SumSpec(Family.COS_TAN, 5, 2, 0.17))
    assert str(uncovered.value) == "family cos-tan is not covered by the residue engine"
    with pytest.raises(ParameterError) as merged:
        residue_engine.sum_via_residues(classical)
    assert str(merged.value) == (
        "the classical point b = 0 of sin-cot is not covered by the residue engine: "
        "its interior pole merges with the j = 0 boundary pole")


def test_result_records_keep_their_fields():
    spec = validate_params(SumSpec(Family.COS_CSC_COS, 6, 1, 0.137, 1, 0.447))
    report = evaluate_case(spec, 0, PATH_NAMES, 1e-8)
    assert tuple(f.name for f in dataclasses.fields(report)) == (
        "spec", "b_index", "values", "conditioning", "abs_err", "rel_err", "worst_pair", "status")
    assert dataclasses.replace(report, status="fail").status == "fail"
    assert report.status == "pass"
    value = closed_form_value(spec)
    assert tuple(f.name for f in dataclasses.fields(value)) == ("value", "path")
    assert repr(value) == f"SumValue(value={value.value!r}, path='closed-form')"
    moved = dataclasses.replace(value, value=1.5)
    assert (moved.value, moved.path) == (1.5, "closed-form")


def batch_verify(dmax, nmax, tol, quiet):
    """Exit code and stdout of verify built the batch way: every report first."""
    cases = grid_cases(tuple(Family), dmax, nmax)
    reports = [evaluate_case(spec, b_index, PATH_NAMES, tol) for spec, b_index in cases]
    lines = [] if quiet else [CSV_HEADER] + [r.csv_row() for r in reports]
    compared = [r for r in reports if r.rel_err is not None]
    failures = [r for r in reports if r.status == "fail"]
    if failures:
        offender = max(failures, key=lambda r: r.rel_err)
        spec = offender.spec
        lines.append(
            f"verification FAILED: {len(failures)} of {len(compared)} compared cases "
            f"exceed tol={tol:.3g}; worst family={spec.family.value} n={spec.n} "
            f"d={spec.d} m={spec.m} b={spec.b:.17g} paths={'/'.join(offender.worst_pair)} "
            f"rel_err={offender.rel_err:.3g}"
        )
        return 3, "\n".join(lines) + "\n"
    worst = max(compared, key=lambda r: r.rel_err, default=None)
    worst_txt = f"{worst.rel_err:.3g}" if worst is not None else "n/a"
    lines.append(
        f"verification passed: {len(reports)} cases, {len(compared)} compared, "
        f"worst rel err {worst_txt}, tol {tol:.3g}"
    )
    return 0, "\n".join(lines) + "\n"


@pytest.mark.parametrize("tol", [1e-8, 1e-14])
@pytest.mark.parametrize("quiet", [False, True])
def test_streamed_verify_matches_the_batch_output(capsys, tol, quiet):
    argv = ["verify", "--dmax", "5", "--nmax", "2", "--tol", str(tol)]
    code, out, _ = run(capsys, argv + ["--quiet"] * quiet)
    want_code, want_out = batch_verify(5, 2, tol, quiet)
    assert (code, out) == (want_code, want_out)
    assert code == (0 if tol == 1e-8 else 3)


def test_verify_prints_each_row_before_the_next_case(capsys, monkeypatch):
    evaluated = []

    def failing_third(spec, b_index, paths, tol):
        if len(evaluated) == 2:
            raise NumericError("third case")
        evaluated.append(spec)
        return evaluate_case(spec, b_index, paths, tol)

    monkeypatch.setattr(cli, "evaluate_case", failing_third)
    code, out, err = run(capsys, ["verify", "--dmax", "3"])
    assert code == 1
    assert "third case" in err
    assert out.splitlines()[0] == CSV_HEADER
    assert len(out.splitlines()) == 3


def test_verify_empty_grid(capsys):
    code, out, err = run(capsys, ["verify", "--dmax", "0"])
    assert (code, out) == (2, "")
    assert "empty grid" in err


def test_verify_dmax_bound(capsys):
    code, out, err = run(capsys, ["verify", "--dmax", "300"])
    assert (code, out) == (2, "")
    assert "exceeds the supported bound 200" in err


def test_verify_rejects_unknown_path(capsys):
    code, _, err = run(capsys, ["verify", "--dmax", "3", "--paths", "closed,magic"])
    assert code == 2
    assert "path" in err


@pytest.mark.parametrize("paths", ["closed", "closed,closed"])
def test_verify_refuses_a_selection_that_compares_nothing(capsys, paths):
    code, out, err = run(capsys, ["verify", "--dmax", "4", "--paths", paths])
    assert (code, out) == (2, "")
    assert f"path selection {paths!r} compares nothing" in err
    assert "closed,oracle,residue" in err


def test_verify_fails_under_impossible_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("TRIGSUM_TOL", "1e-30")
    code, out, _ = run(capsys, ["verify", "--dmax", "3", "--quiet"])
    assert code == 3
    assert "verification FAILED" in out


def test_verify_rejects_bad_tol_env(capsys, monkeypatch):
    monkeypatch.setenv("TRIGSUM_TOL", "not-a-number")
    code, _, err = run(capsys, ["verify", "--dmax", "3", "--quiet"])
    assert code == 2
    assert "TRIGSUM_TOL" in err


def test_plain_eval_rejects_bad_tol_env(capsys, monkeypatch):
    # plain eval compares nothing, but it reads the tolerance and refuses a bad one
    monkeypatch.setenv("TRIGSUM_TOL", "abc")
    code, out, err = run(capsys, ["eval", "--family", "cos-cot", "--d", "5", "--m", "2",
                                  "--b", "0.1"])
    assert (code, out) == (2, "")
    assert "invalid TRIGSUM_TOL value 'abc'" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "-0.0"])
def test_non_positive_tolerance_is_a_usage_error(capsys, monkeypatch, tol):
    for argv in (["verify", "--dmax", "3", "--quiet", "--tol", tol],
                 ["eval", "--family", "cos-cot", "--d", "3", "--m", "1", "--b", "0.137",
                  "--all-paths", "--tol", tol],
                 ["table", "--family", "cos-cot", "--dmax", "3", "--tol", tol]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "--tol must be positive" in err
    monkeypatch.setenv("TRIGSUM_TOL", tol)
    code, out, err = run(capsys, ["verify", "--dmax", "3", "--quiet"])
    assert (code, out) == (2, "")
    assert "TRIGSUM_TOL must be positive" in err


def test_infinite_tolerance_is_a_usage_error(capsys, monkeypatch):
    # an infinite tolerance would pass every comparison
    verify = ["verify", "--dmax", "4", "--quiet"]
    eval_all = ["eval", "--family", "cos-cot", "--d", "3", "--m", "1", "--b", "0.137",
                "--all-paths"]
    for argv in (verify, eval_all):
        code, out, err = run(capsys, argv + ["--tol", "inf"])
        assert (code, out) == (2, ""), argv
        assert "--tol must be finite, got inf" in err
    monkeypatch.setenv("TRIGSUM_TOL", "inf")
    for argv in (verify, eval_all):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "TRIGSUM_TOL must be finite, got inf" in err


def test_verify_prints_the_first_row_before_the_grid_is_built(capsys, monkeypatch):
    built = []
    seen = {}

    def counting_validate(spec):
        built.append(spec)
        return validate_params(spec)

    def probing_evaluate(spec, b_index, paths, tol):
        if len(seen) == 1:
            seen["lines"] = capsys.readouterr().out.splitlines()
            seen["built"] = len(built)
        seen.setdefault("first", spec)
        return evaluate_case(spec, b_index, paths, tol)

    monkeypatch.setattr(cli, "validate_params", counting_validate)
    monkeypatch.setattr(cli, "evaluate_case", probing_evaluate)
    code, out, _ = run(capsys, ["verify", "--dmax", "4", "--nmax", "1"])
    assert code == 0
    assert seen["lines"][0] == CSV_HEADER
    assert seen["lines"][1].startswith(f"{seen['first'].family.value},1,2,1,")
    total = len(grid_cases(tuple(Family), 4, 1))
    assert seen["built"] < total
    assert out.splitlines()[-1].startswith(f"verification passed: {total} cases,")


def test_table_explicit_offset_row(capsys):
    code, out, _ = run(capsys, ["table", "--family", "cos-cot", "--dmax", "2", "--b", "0.25"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cols = lines[1].split(",")
    assert lines[1].startswith("cos-cot,1,2,1,0.25,")
    assert len(cols) == 13
    assert cols[6] == "2"
    assert cols[12] == "pass"


def test_table_repeated_offset_prints_each_row_once(capsys):
    code, out, _ = run(capsys, ["table", "--family", "cos-cot", "--dmax", "3",
                                "--b", "0.25", "--b", "0.125", "--b", "0.25"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[2], row[3], row[4]) for row in rows] == [
        ("2", "1", "0.25"), ("2", "1", "0.125"),
        ("3", "1", "0.25"), ("3", "1", "0.125"), ("3", "2", "0.25"), ("3", "2", "0.125")]


def test_classical_point_compares_closed_against_oracle(capsys):
    # at b = 0 the sin-cot integrand's interior pole merges with the j = 0
    # boundary pole, so the residue path sits out and the sum is d - 2m
    code, out, err = run(capsys, ["table", "--family", "sin-cot", "--dmax", "3", "--b", "0"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[2], row[3]) for row in rows] == [("2", "1"), ("3", "1"), ("3", "2")]
    for row in rows:
        d, m = int(row[2]), int(row[3])
        assert float(row[6]) == pytest.approx(d - 2 * m, abs=1e-12)
        assert float(row[7]) == pytest.approx(d - 2 * m, abs=1e-12)
        assert row[8] == "" and row[12] == "pass"
    code, out, err = run(capsys, ["eval", "--family", "sin-cot", "--d", "5", "--m", "2",
                                  "--b", "0", "--all-paths", "--json"])
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["value"] == 1.0 and abs(obj["oracle"] - 1.0) <= 1e-12
    assert obj["residue"] is None and obj["status"] == "pass"


def test_classical_point_holds_at_every_integer_shift(capsys):
    # sin-cot has period 1 in b, so every integer shift is the b = 0 sum
    for b in ("1", "2", "-1", "1e9"):
        code, out, err = run(capsys, ["eval", "--family", "sin-cot", "--d", "5", "--m", "2",
                                      "--b", b, "--all-paths", "--json"])
        assert (code, err) == (0, ""), b
        obj = json.loads(out)
        assert obj["value"] == 1.0 and abs(obj["oracle"] - 1.0) <= 1e-12, b
        assert obj["residue"] is None and obj["status"] == "pass", b
    # the dispensation is for n = 1 only
    code, _, err = run(capsys, ["eval", "--family", "sin-cot", "--d", "5", "--m", "2",
                                "--b", "1", "--n", "2"])
    assert code == 2 and "singular set" in err


def test_table_covers_every_family(capsys):
    code, out, _ = run(capsys, ["table", "--family", "all", "--dmax", "3"])
    assert code == 0
    lines = out.splitlines()
    labels = {line.split(",")[0] for line in lines[1:]}
    assert len(labels) == 22
    assert all(len(line.split(",")) == 13 for line in lines)


def test_table_row_count_to_file(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, ["table", "--family", "cos-cot", "--dmax", "5", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 31


def test_table_unwritable_out(capsys):
    code, _, err = run(capsys, ["table", "--family", "cos-cot", "--dmax", "3",
                                "--out", "/nonexistent/x.csv"])
    assert code == 1
    assert "error:" in err


def test_coeffs_exact_rows(capsys):
    code, out, _ = run(capsys, ["coeffs", "--kind", "cot", "--count", "4"])
    assert code == 0
    assert out.splitlines() == ["0,1,1", "1,-1,3", "2,-1,45", "3,-2,945"]
    code, out, _ = run(capsys, ["coeffs", "--kind", "csc", "--count", "3"])
    assert code == 0
    assert out.splitlines() == ["0,-1,1", "1,-1,6", "2,-7,360"]
    code, out, _ = run(capsys, ["coeffs", "--kind", "bernoulli", "--count", "1"])
    assert code == 0
    assert out.splitlines() == ["0,1,1"]


def test_coeffs_cap_and_env_override(capsys, monkeypatch):
    code, _, err = run(capsys, ["coeffs", "--kind", "cot", "--count", "99"])
    assert code == 2
    assert "coefficient cap exceeded" in err
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "128")
    code, out, _ = run(capsys, ["coeffs", "--kind", "cot", "--count", "99"])
    assert code == 0
    assert len(out.splitlines()) == 99


def test_coeffs_count_reaches_the_cap_index(capsys, monkeypatch):
    # count rows are indices 0..count-1, so the cap admits count = cap + 1
    code, out, _ = run(capsys, ["coeffs", "--kind", "bernoulli", "--count", "65"])
    assert code == 0
    rows = out.splitlines()
    assert [int(row.split(",")[0]) for row in rows] == list(range(65))
    assert rows[-1] == f"64,{bernoulli(64).numerator},{bernoulli(64).denominator}"
    code, _, err = run(capsys, ["coeffs", "--kind", "bernoulli", "--count", "66"])
    assert code == 2
    assert "coefficient cap exceeded: count 66 > cap 64" in err
    monkeypatch.setenv("TRIGSUM_COEFF_CAP", "3")
    code, out, _ = run(capsys, ["coeffs", "--kind", "cot", "--count", "4"])
    assert code == 0
    assert out.splitlines() == ["0,1,1", "1,-1,3", "2,-1,45", "3,-2,945"]
    code, _, err = run(capsys, ["coeffs", "--kind", "cot", "--count", "5"])
    assert code == 2
    assert "coefficient cap exceeded: count 5 > cap 3" in err


def test_coeffs_empty_listing(capsys):
    code, _, err = run(capsys, ["coeffs", "--kind", "cot", "--count", "0"])
    assert code == 2
    assert "empty listing" in err


def test_usage_errors_return_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["eval", "--family", "cos-cot"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "cos-cot", "--d", "3", "--m", "1", "--b", "nan"],
        ["eval", "--family", "cos-cot", "--d", "3", "--m", "1", "--b", "inf"],
        ["eval", "--family", "cos-cot", "--d", "3", "--m", "1", "--b=-inf", "--all-paths"],
        ["eval", "--family", "cos-csc-cos", "--d", "3", "--m", "1", "--b", "0.1", "--b2", "inf"],
        ["table", "--family", "cos-cot", "--dmax", "3", "--b", "nan"],
    ],
    ids=["eval-nan", "eval-inf", "all-paths-minus-inf", "eval-b2-inf", "table-nan"],
)
def test_non_finite_shift_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_module_entry_point():
    # the checkout's src goes first, so the subprocess runs this trigsum
    # even where another one is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "trigsum", "eval", "--family", "cos-cot",
         "--d", "2", "--m", "1", "--b", "0.25"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.0"
