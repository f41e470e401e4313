"""The benchmark's own tests, on the tiny size so each run takes about a second.

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import shutil
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

import measure
import run
import trigsum.cli as cli
import trigsum.closed_form as closed_form
import trigsum.oracle as oracle
import trigsum.residue_engine as residue_engine
from tracing import LAYERS, POINTS, Tracer
from workloads import SIZES, WORKLOADS, prepare

BENCH_DIR = Path(run.__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
TINY = SIZES["tiny"]


def _result(capsys, *argv):
    assert run.main([*argv, "--size", "tiny", "--seconds", "0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_metric_tables_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(row) for row in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(row) for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_CHOICES)
    assert run._LAYERS == LAYERS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_named_metric(capsys, workload, trace):
    result, lines = _result(capsys, "--workload", workload, "--seed", "5", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: unit for name, unit, *_ in table} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    text = "\n".join(lines)
    for name in ("fail_ratio", "ref_fail_ratio", "provenance", "loadavg_before", "nproc"):
        assert name in text


def test_same_seed_same_inputs_new_seed_new_queries():
    for workload in WORKLOADS:
        a, b = prepare(workload, 7, TINY), prepare(workload, 7, TINY)
        assert a.cases == b.cases
        assert a.first_pass == b.first_pass
    first = prepare("eval-random", 7, TINY).first_pass
    other = prepare("eval-random", 8, TINY).first_pass
    assert first != other
    assert len({(s.d, s.b) for s in first}) == len(first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def traced():
        r = run.Run(workload, 3, 0.2, True, "tiny")
        r.execute()
        return r.reported()

    once, again = traced(), traced()
    counts = {k: v for k, (v, unit) in once.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in again.items() if unit == "count"}
    assert counts["families.validate_params.calls"] > 0
    assert counts["residue_engine.series_mul.mul_adds"] > 0
    # the spans account for the traced operations' time, up to the wrappers' own cost
    self_sum, pass_s = once["trace.self_sum_s"][0], once["trace.pass_s"][0]
    assert 0.5 * pass_s < self_sum <= pass_s


def test_scaling_to_the_reference_speed_and_median_of_passes():
    def one_pass(case_ns, kernel_ns):
        times = measure.PassTimes.empty(len(case_ns))
        times.case[:] = array("q", case_ns)
        times.kernel[:] = array("q", kernel_ns)
        return times

    ref = measure.REFERENCE_KERNEL_NS
    slow = one_pass([200, 400, 600], [2 * ref] * 3)   # the machine at half speed
    fast = one_pass([100, 250, 300], [ref] * 3)
    odd = one_pass([900, 100, 300], [ref] * 3)
    scaled = measure.scale_passes([slow, fast, odd])
    assert list(scaled[0].case) == [100.0, 200.0, 300.0]
    assert list(measure.typical(scaled).case) == [100.0, 200.0, 300.0]


def test_passes_pause_the_collector_and_restore_it():
    states = []
    passes = measure.run_passes(0.0, lambda: states.append(gc.isenabled()) or
                                measure.PassTimes.empty(1))
    assert len(passes) == measure.MIN_PASSES
    assert states == [False] * measure.MIN_PASSES
    assert gc.isenabled()


def test_tracer_restores_every_binding():
    originals = {(m, f): getattr(sys.modules[f"trigsum.{m}"], f) for m, f, *_ in POINTS}
    with Tracer() as tracer:
        assert cli.evaluate_case is not originals[("cli", "evaluate_case")]
        prepare("sweep-wide", 1, TINY)
    assert tracer.spans["cli.grid_cases"].calls == 2
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"trigsum.{m}"], f) is fn


def _corrupt(monkeypatch, names, shift):
    """Rebind path functions, in this test process only, to return a value off by shift."""
    for module, name in names:
        original = getattr(module, name)

        def wrong(spec, _original=original):
            value = _original(spec)
            return replace(value, value=value.value + shift * max(1.0, abs(value.value)))

        for holder in (module, cli):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, wrong)


@pytest.mark.parametrize("workload", ["sweep-wide", "eval-random"])
def test_corrupted_path_value_is_counted_as_failed(monkeypatch, workload):
    _corrupt(monkeypatch, [(closed_form, "closed_form_value")], 1e-3)
    r = run.Run(workload, 2, 0.2, False, "tiny")
    r.execute()
    assert r.checks.failed > 0
    assert r.ref["by_path"]["closed"] > 0
    assert r.ref["by_path"]["oracle"] == 0
    assert r.ref["unflagged"] == 0   # the cross-path check caught every wrong value


def test_wrong_value_on_every_path_is_counted_as_failed(monkeypatch):
    _corrupt(monkeypatch, [(closed_form, "closed_form_value"), (oracle, "direct_sum"),
                           (residue_engine, "sum_via_residues")], 1e-3)
    r = run.Run("sweep-wide", 2, 0.2, False, "tiny")
    r.execute()
    # the paths agree, so only the reference sees it
    assert r.ref["unflagged"] > 0
    assert r.checks.failed == r.ref["unflagged"] * r.passes
    assert r.correct


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
