"""Smoke runs of the scripts that check values: bit digests, accuracy scan, residue closure."""

import math
import runpy
import sys
from pathlib import Path

import pytest

from trigsum import SumValue

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_value_digest_cold_equals_warm(capsys):
    main = runpy.run_path(str(SCRIPTS / "value_digest.py"))["main"]
    args = ["--dmax", "4", "--nmax", "2", "--draws", "20"]
    main(args)
    warm = capsys.readouterr().out
    main(args + ["--cold"])
    assert capsys.readouterr().out == warm
    assert len(warm.splitlines()) == 5


# sha256 of each function's values over the d <= 6, n <= 2 grid and 100 seeded draws
PINNED_DIGESTS = {
    "conditioning": "1a5744351cee3ec7c0e39e53bc8c8ebfd7afe11833382cd064ba14076b29637e",
    "term_magnitude_sum": "36e8d12890ca40e055a099203efc0cf6078c3ddfc4dab2b42bdc3fcc29b54b69",
    "closed_form_value": "f18c9588013e4ccbb6bfab033c3557e6396b83239bc226c6e6f87b228a85b23b",
    "direct_sum": "d73ae7b72bbe2e8a5aeb23f56f5524bcb0ac0ab418f3694cee47696506b4c6ba",
    "sum_via_residues": "38fbbde1a0c0d8e60e1914893838f7f3782a430610d93dbd80bebb71921363ff",
}


def test_value_digest_pins_every_value(capsys):
    """Every path's values, to the bit, on 1 288 specs.

    The hashes were recorded on CPython 3.11.7 with glibc 2.36's libm on
    x86-64 Linux; another libm may round sin or cos differently and change
    them. A change that moves any value (a defect fix such as D2, D8 or D9)
    updates these literals and lists each moved value in CHANGES.md.
    """
    main = runpy.run_path(str(SCRIPTS / "value_digest.py"))["main"]
    main(["--dmax", "6", "--nmax", "2", "--draws", "100"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {name: (count, digest) for name, count, digest in lines} == {
        name: ("1288", digest) for name, digest in PINNED_DIGESTS.items()}


def test_accuracy_scan_on_the_oracle(capsys):
    pytest.importorskip("mpmath")
    main = runpy.run_path(str(SCRIPTS / "accuracy_scan.py"))["main"]
    assert main(["--dmax", "6", "--nmax", "2", "--every", "40", "--draws", "4",
                 "--paths", "oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("42 cases: 1 in 40 of 1188 grid cases")
    assert all(line.startswith("oracle ") for line in lines[1:-1])
    assert lines[-1].startswith("worst oracle: ") and "within bound 1e-08" in lines[-1]
    # a bound no float path meets fails the scan
    assert main(["--dmax", "6", "--nmax", "2", "--every", "40", "--draws", "4",
                 "--paths", "oracle", "--bound", "1e-300"]) == 1


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_accuracy_scan_counts_a_nonfinite_value_above_the_bound(capsys, monkeypatch, bad):
    pytest.importorskip("mpmath")
    scan = runpy.run_path(str(SCRIPTS / "accuracy_scan.py"))
    monkeypatch.setitem(scan["PATH_FUNCTIONS"], "oracle", lambda spec: SumValue(bad, "oracle"))
    assert scan["main"](["--dmax", "4", "--nmax", "1", "--every", "40", "--draws", "1",
                         "--paths", "oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(" nonfinite:" + line.split()[3]) for line in lines[1:-1])
    assert lines[-1].startswith("worst oracle: inf above bound 1e-08")


def test_accuracy_scan_refuses_to_run_without_mpmath(capsys, monkeypatch):
    main = runpy.run_path(str(SCRIPTS / "accuracy_scan.py"))["main"]
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert main(["--paths", "oracle"]) == 2
    assert "mpmath is not installed" in capsys.readouterr().err


def test_closure_scan_on_a_small_draw(capsys):
    main = runpy.run_path(str(SCRIPTS / "closure_scan.py"))["main"]
    assert main(["--cases", "40", "--dmax", "6", "--nmax", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "40 draws, dmax=6, nmax=2, seed=0"
    assert lines[1] == "max residual ratio    5.656e-14"
