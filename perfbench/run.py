"""Benchmark of the trigsum evaluation paths.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``trigsum`` from that
checkout's ``src/`` and from nowhere else. One process, one thread, one
closed-loop client. ``--workload`` is ``sweep-wide``, ``sweep-deep``,
``eval-random`` or ``all`` (the three in turn, in this process).

``--trace 0`` measures the end-to-end metrics: at least three passes
over the same inputs, times scaled to a reference interpreter speed by
a calibration kernel, each input's median pass kept (see measure.py).
``--trace 1`` runs one pass with every layer traced (see tracing.py)
and one untraced pass of the same inputs, and reports the per-layer
metrics. Every run checks every operation's output, and a
seeded sample against a 40-digit mpmath reference, outside the timed
regions. The report lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

``failed`` counts the operations that raised ``NumericError``, that the
cross-path check rejected, or whose value missed the reference although
the cross-path check passed it (a wrong number nothing flagged; counted
for every pass that ran it). The seed's known defects show up there and
are not filtered out. ``correct`` is false when a repeated evaluation of
the same input gave another value.

Exit codes: 0 with a result, 2 when the sources or mpmath are missing
or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_CHOICES = ("sweep-wide", "sweep-deep", "eval-random")

# (name, unit, better, bound); the bounds are the ones BENCHMARK.json declares
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.1),
    ("case_p50_us", "us", "lower", 0.15),
    ("case_p99_us", "us", "lower", 0.25),
    ("closed_p50_us", "us", "lower", 0.15),
    ("closed_p99_us", "us", "lower", 0.25),
    ("oracle_p50_us", "us", "lower", 0.15),
    ("oracle_p99_us", "us", "lower", 0.25),
    ("residue_p50_us", "us", "lower", 0.15),
    ("residue_p99_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_SPAN_METRICS = (
    ("families.validate_params", ("calls", "self_s")),
    ("coefficients.coeff", ("calls", "self_s")),
    ("coefficients.apostol_coeff_table", ("calls", "terms", "self_s")),
    ("multiindex.enumerate_compositions", ("tuples", "self_s")),
    ("multiindex.coeff_product", ("calls", "self_s")),
    ("closed_form.closed_form_value", ("self_s",)),
    ("oracle.direct_sum", ("terms", "self_s")),
    ("oracle.conditioning", ("terms", "self_s")),
    ("oracle.term_magnitude_sum", ("calls", "self_s")),
    ("residue_engine.series_mul", ("calls", "mul_adds", "self_s")),
    ("residue_engine.expand_factor", ("calls", "self_s")),
    ("residue_engine.sum_via_residues", ("self_s",)),
    ("cli.evaluate_case", ("self_s",)),
    ("cli.grid_cases", ("self_s",)),
)
_LAYERS = ("families", "coefficients", "multiindex", "closed_form", "oracle", "residue_engine", "cli")
_PATHS = ("closed", "oracle", "residue")

# (name, unit, better)
PER_LAYER = (
    *((f"{span}.{part}", "s" if part == "self_s" else "count", "lower")
      for span, parts in _SPAN_METRICS for part in parts),
    ("cli.evaluate_case.worst_rel_err", "ratio", "lower"),
    *((f"{layer}.errors", "count", "lower") for layer in _LAYERS),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    *((f"eval.{path}.n{n}_p50_us", "us", "lower") for path in _PATHS for n in range(1, 5)),
    ("fail_ratio", "ratio", "lower"),
    ("ref_fail_ratio", "ratio", "lower"),
    *((f"reference.{path}.failed", "count", "lower") for path in _PATHS),
    ("reference.unflagged", "count", "lower"),
)

# kernel timings taken before and after each set-up probe
SETUP_KERNEL_RUNS = 10

WAIT_NOTE = ("waits: none measured -- one thread, no queues, and no layer waits on another, "
             "so no layer has a wait time")


def load_trigsum() -> str | None:
    """Import trigsum from this checkout's src/; return an error message or None."""
    if not (SRC / "trigsum" / "__init__.py").is_file():
        return f"no trigsum sources at {SRC / 'trigsum'}; run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    import trigsum
    if Path(trigsum.__file__).resolve().parent != (SRC / "trigsum").resolve():
        return f"trigsum was imported from {trigsum.__file__}, not from {SRC}"
    return None


def _percentile(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    if not sorted_ns:
        return 0.0
    rank = max(1, -(-len(sorted_ns) * q // 100))   # ceil(len * q / 100)
    return sorted_ns[int(rank) - 1] / 1e3


def _median_us(ns: list[int]) -> float:
    return statistics.median(ns) / 1e3 if ns else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload: str, seed: int, size: str, probes: int) -> list[tuple[float, float]]:
    """Time fresh interpreters from start to their 'ready' line.

    Returns, per probe, the seconds and the median calibration kernel
    time (ns) around the probe.
    """
    from measure import time_kernel
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), size]
    results = []
    for _ in range(probes):
        around = [time_kernel() for _ in range(SETUP_KERNEL_RUNS)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        around += [time_kernel() for _ in range(SETUP_KERNEL_RUNS)]
        results.append((elapsed, statistics.median(around)))
    return results


def reference_check(workload: str, seed: int, sizes, records, checks) -> dict:
    """Check a seeded sample, plus the failed operations, against mpmath.

    ``records[i]`` is (spec, {path: value or None}), or (spec, None)
    when ``evaluate_case`` raised before giving per-path values. Every
    checked case is evaluated again here, untimed, path by path; a value
    that differs from the recorded one counts as an inconsistent repeat.
    """
    from measure import path_functions, paths_for, same
    from reference import misses, reference_sum
    from trigsum.errors import NumericError

    rng = random.Random(f"reference:{workload}:{seed}")
    # eval-random samples from its first pass, which every run makes
    pool = range(sizes.eval_queries if workload == "eval-random" else len(records))
    failed = set(checks.failed_inputs)
    chosen = sorted(set(rng.sample(pool, min(sizes.ref_sample, len(pool))))
                    | set(checks.failed_inputs[:sizes.ref_failed_max]))
    counts = {p: [0, 0] for p in _PATHS}   # checked, missed
    unflagged: set[int] = set()
    fns = path_functions()
    for i in chosen:
        spec, recorded = records[i]
        values = {}
        for name in paths_for(spec):
            try:
                values[name] = fns[name](spec).value
            except NumericError:
                values[name] = None
            if recorded is not None and not same(values[name], recorded[name]):
                checks.inconsistent += 1
        ref = reference_sum(spec.family.value, spec.d, spec.m, spec.b, spec.n, spec.b2)
        for name, value in values.items():
            missed = misses(value, ref)
            counts[name][0] += 1
            counts[name][1] += missed
            if missed and i not in failed:
                unflagged.add(i)
    checked = sum(c[0] for c in counts.values())
    missed = sum(c[1] for c in counts.values())
    return {
        "cases": len(chosen),
        "checked": checked,
        "missed": missed,
        "unflagged": len(unflagged),
        "ratio": missed / checked if checked else 0.0,
        "by_path": {p: c[1] for p, c in counts.items()},
    }


def _sweep_records(cases, first) -> list:
    from measure import paths_for
    return [(spec, None if values is None else dict(zip(paths_for(spec), values)))
            for (spec, _), (values, _) in zip(cases, first)]


class Run:
    """Everything one workload run measured, checked and counted."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str) -> None:
        from workloads import SIZES
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.sizes = SIZES[size]
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.passes = 0
        self.rejected = 0

    def execute(self) -> None:
        from measure import Checks
        self.load_before = os.getloadavg()
        self.checks = Checks()
        if self.trace:
            self._traced()
        else:
            self._untraced()
        self.ref = reference_check(self.workload, self.seed, self.sizes, self.records, self.checks)
        # an input of the sweeps ran once per pass; an eval-random query once
        self.checks.failed += self.ref["unflagged"] * (self.checks.attempted // len(self.records))
        self.load_after = os.getloadavg()

    # -- trace 0: end-to-end metrics

    def _untraced(self) -> None:
        from measure import (REFERENCE_KERNEL_NS, PathTimer, query_pass, run_passes,
                             scale_passes, sweep_pass, typical)
        from workloads import prepare
        setup = time_setup(self.workload, self.seed, self.size, self.sizes.setup_probes)
        inputs = prepare(self.workload, self.seed, self.sizes)
        checks = self.checks
        if inputs.cases is not None:
            cases, first = inputs.cases, []
            with PathTimer() as timer:
                passes = run_passes(self.seconds, lambda: sweep_pass(cases, checks, first, timer))
            self.records = _sweep_records(cases, first)
        else:
            queries, self.records = inputs.queries, []
            specs = inputs.first_pass
            pending = [specs]

            def one_pass():
                batch = pending.pop() if pending else queries.next_pass()   # untimed
                return query_pass(batch, self.records, checks)

            passes = run_passes(self.seconds, one_pass)
            self.rejected = queries.rejected
        self.metrics["peak_rss_mb"] = _peak_rss_mb()
        self.passes = len(passes)
        times = typical(scale_passes(passes))
        case = sorted(times.case)
        self.metrics.update({
            "setup_s": statistics.median(s * REFERENCE_KERNEL_NS / k for s, k in setup),
            "cases_per_s": len(case) / (sum(case) * 1e-9),
            "case_p50_us": _median_us(case),
            "case_p99_us": _percentile(case, 99),
        })
        self.samples = {"case": len(case)}
        for name in _PATHS:
            lat = sorted(v for v in times.path[name] if v >= 0)
            self.metrics[f"{name}_p50_us"] = _median_us(lat)
            self.metrics[f"{name}_p99_us"] = _percentile(lat, 99)
            self.samples[name] = len(lat)
        if inputs.cases is None:
            self._split_by_n(specs, times)
        raw_rate = statistics.median(len(p.case) / (sum(p.case) * 1e-9) for p in passes)
        kernel = [k for p in passes for k in p.kernel]
        self.notes += [
            f"calibration kernel: median {statistics.median(kernel) / 1e3:.2f} us over "
            f"{len(kernel)} timings; times above are scaled to {REFERENCE_KERNEL_NS / 1e3:g} us",
            f"unscaled: cases_per_s {raw_rate:.2f} (median over passes), setup_s probes (s) "
            + " ".join(f"{s:.4f}" for s, _ in setup),
        ]

    # -- trace 1: per-layer metrics

    def _traced(self) -> None:
        from measure import collector_paused, query_pass, same, scale_passes, sweep_pass
        from tracing import Tracer
        from workloads import prepare
        checks = self.checks
        tracer = Tracer()
        with tracer:
            inputs = prepare(self.workload, self.seed, self.sizes)
        grid_self_s = tracer.spans["cli.grid_cases"].self_ns * 1e-9
        tracer.reset()
        if inputs.cases is not None:
            cases, first = inputs.cases, []
            with tracer, collector_paused():
                traced = sweep_pass(cases, checks, first)
            with collector_paused():
                untraced = sweep_pass(cases, checks, first)
            self.records = _sweep_records(cases, first)
        else:
            specs, traced_records, self.records = inputs.first_pass, [], []
            with tracer, collector_paused():
                traced = query_pass(specs, traced_records, None)
            with collector_paused():
                untraced = query_pass(specs, self.records, checks)
            for (_, want), (_, got) in zip(traced_records, self.records):
                checks.inconsistent += not all(same(got[p], want[p]) for p in got)
            self.rejected = inputs.queries.rejected
        self.passes = 2
        traced_scaled, untraced_scaled = scale_passes([traced, untraced])
        traced_ns, untraced_ns = sum(traced_scaled.case), sum(untraced_scaled.case)
        if inputs.cases is None:
            self._split_by_n(specs, untraced_scaled)
        m = self.metrics
        for span, stats in tracer.spans.items():
            m[f"{span}.calls"] = stats.calls
            m[f"{span}.self_s"] = stats.self_ns * 1e-9
            if span in tracer.work_names:
                m[f"{span}.{tracer.work_names[span]}"] = stats.work
        m["cli.grid_cases.self_s"] = grid_self_s
        m["cli.evaluate_case.worst_rel_err"] = checks.worst_rel_err
        for layer, count in tracer.errors.items():
            m[f"{layer}.errors"] = count
        m["trace.overhead_ratio"] = untraced_ns / traced_ns
        m["trace.self_sum_s"] = tracer.self_seconds()
        m["trace.pass_s"] = sum(traced.case) * 1e-9
        self.samples = {"traced ops": len(traced.case), "untraced ops": len(untraced.case)}

    def _split_by_n(self, specs, times) -> None:
        """Per-path p50 by power."""
        for path in _PATHS:
            for n in range(1, 5):
                lat = [v for spec, v in zip(specs, times.path[path]) if spec.n == n and v >= 0]
                self.metrics[f"eval.{path}.n{n}_p50_us"] = _median_us(lat)

    # -- results

    @property
    def correct(self) -> bool:
        return self.checks.inconsistent == 0

    def fail_ratio(self) -> float:
        return self.checks.failed / self.checks.attempted

    def reported(self) -> dict[str, tuple[float, str]]:
        """The metrics this mode reports, by name, with their units."""
        self.metrics["fail_ratio"] = self.fail_ratio()
        self.metrics["ref_fail_ratio"] = self.ref["ratio"]
        for path in _PATHS:
            self.metrics[f"reference.{path}.failed"] = self.ref["by_path"][path]
        self.metrics["reference.unflagged"] = self.ref["unflagged"]
        table = PER_LAYER if self.trace else END_TO_END
        return {row[0]: (self.metrics.get(row[0], 0), row[1]) for row in table}

    def report_lines(self) -> list[str]:
        c, ref = self.checks, self.ref
        lines = [f"perfbench workload={self.workload} seed={self.seed} trace={int(self.trace)} "
                 f"size={self.size}"]
        for name, (value, unit) in self.reported().items():
            lines.append(f"  {name:<42} {value!r:>24} {unit}")
        if self.trace:
            lines.append("  per-layer metrics that do not apply to this workload read 0")
        lines += [
            f"  fail_ratio {self.fail_ratio()!r} ratio ({c.failed} of {c.attempted} operations "
            f"failed; {c.inconsistent} inconsistent repeats)",
            f"  ref_fail_ratio {ref['ratio']!r} ratio ({ref['missed']} of {ref['checked']} path "
            f"results on {ref['cases']} cases miss the 40-digit reference; by path "
            + ", ".join(f"{p} {n}" for p, n in ref["by_path"].items())
            + f"; {ref['unflagged']} cases the cross-path check passed, counted as failed)",
            f"  samples: " + ", ".join(f"{k} {v}" for k, v in self.samples.items()),
        ]
        if self.workload == "eval-random":
            lines.append(f"  rejected draws: {self.rejected}")
            if not self.trace:
                lines.append("  per-power p50 (us): " + ", ".join(
                    f"{p} n{n} {self.metrics[f'eval.{p}.n{n}_p50_us']:.1f}"
                    for p in _PATHS for n in range(1, 5)))
        lines += [f"  {note}" for note in self.notes]
        lines.append(f"  {WAIT_NOTE}")
        return lines

    def provenance(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "size": self.size,
            "passes": self.passes,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_before": self.load_before,
            "loadavg_after": self.load_after,
            "commit": _commit(),
            "src_sha256": _source_digest(),
        }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "trigsum").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Benchmark of the trigsum evaluation paths.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_CHOICES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    error = load_trigsum()
    if error is None:
        try:
            import mpmath  # noqa: F401  (the reference check needs it)
        except ImportError:
            error = "mpmath is needed for the reference check"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    names = WORKLOAD_CHOICES if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.size)
        run.execute()
        runs.append(run)
        print("\n".join(run.report_lines()))
        print("provenance " + json.dumps(run.provenance(), sort_keys=True))
    if len(runs) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in runs[0].reported().items()}
    else:
        metrics = {f"{run.workload}.{k}": {"value": v, "unit": u}
                   for run in runs for k, (v, u) in run.reported().items()}
    result = {
        "correct": all(run.correct for run in runs),
        "attempted": sum(run.checks.attempted for run in runs),
        "failed": sum(run.checks.failed for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
