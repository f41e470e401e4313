"""Timed passes, and the checks that run outside the timed regions.

One process, one thread, one closed-loop client: the next operation
starts when the previous one has returned. Latencies are nanoseconds
from ``time.perf_counter_ns`` around each call into the package.

Shared virtual machines change speed under their neighbours' load: on
a 2-core one, the interpreter switched between a fast and a slow state
(about 1.7 times slower) for tenths of a second to minutes at a time,
with no steal time in the guest and CPU time slowing as much as wall
time. So a fixed piece of pure-Python work, the calibration kernel, is
timed right before every operation, and each latency is multiplied by
REFERENCE_KERNEL_NS over the median kernel time of the 17 operations
around it (``scale_passes``). Both slow down alike: over 60 s the
scaled time of a fixed set of cases varied by 2.7% (quartile spread
over median) where the raw time varied by 35%. The reported times read
as on a machine where the kernel takes 30 us. A run also makes at
least three passes over the same inputs (on eval-random, over queries
of the same shapes) and reports, for every input, the median of its
scaled times.

An operation fails when it raises ``NumericError``, returns a value
that is not finite, or when its paths disagree by more than 1e-8 under
the rule ``trigsum verify`` applies (``cli.evaluate_case`` on the
sweeps; the same rule, restated in ``cross_check``, on eval-random).
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import trigsum.cli as cli
import trigsum.closed_form as closed_form
import trigsum.oracle as oracle
import trigsum.residue_engine as residue_engine
from trigsum.errors import NumericError
from trigsum.families import TRAITS, SumSpec

PATHS = cli.PATH_NAMES
TOL = cli.DEFAULT_TOL
MIN_PASSES = 3
# operations on each side whose kernel timings give an operation's local speed
KERNEL_WINDOW = 8
# the kernel's time at the reference speed; about its fast-state time on Python 3.11
REFERENCE_KERNEL_NS = 30_000
# no pass starts that could end past this, so a run ends well inside 180 s
MAX_SECONDS = 110.0

# the names under which cli.evaluate_case calls each path
_CLI_PATH_NAMES = {"closed": "closed_form_value", "oracle": "direct_sum",
                   "residue": "sum_via_residues"}


def path_functions() -> dict:
    """The path entry points, looked up now so a tracer's rebinding applies."""
    return {
        "closed": closed_form.closed_form_value,
        "oracle": oracle.direct_sum,
        "residue": residue_engine.sum_via_residues,
    }


def paths_for(spec: SumSpec) -> tuple[str, ...]:
    return PATHS if TRAITS[spec.family].supports_residue else PATHS[:2]


def calibration_kernel() -> float:
    """Fixed pure-Python work (float math, Fractions, calls): about 30 us when fast."""
    acc = 0.0
    for i in range(1, 25):
        acc += math.sin(i * 0.1) / i
    f = Fraction(1)
    for i in range(2, 6):
        f = f * Fraction(i - 1, i) + Fraction(1, i * i)
    return acc + float(f)


def time_kernel() -> int:
    start = time.perf_counter_ns()
    calibration_kernel()
    return time.perf_counter_ns() - start


@dataclass
class PassTimes:
    """Latencies (ns) of one pass, indexed like its inputs; -1 where a path did not run.

    ``kernel[i]`` is the calibration kernel's time just before input i.
    """
    case: array
    path: dict[str, array]
    kernel: array

    @classmethod
    def empty(cls, size: int) -> "PassTimes":
        return cls(array("q", [0]) * size, {p: array("q", [-1]) * size for p in PATHS},
                   array("q", [0]) * size)


def scale_passes(passes: list[PassTimes]) -> list[PassTimes]:
    """Every pass's latencies at the reference speed.

    An input's local kernel time is the median kernel time over the
    KERNEL_WINDOW inputs on each side; its latencies are multiplied by
    REFERENCE_KERNEL_NS over that.
    """
    out = []
    for times in passes:
        k = times.kernel
        factor = [REFERENCE_KERNEL_NS
                  / statistics.median(k[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1])
                  for i in range(len(k))]
        case = array("d", (t * f for t, f in zip(times.case, factor)))
        path = {name: array("d", (t * f if t >= 0 else -1.0 for t, f in zip(col, factor)))
                for name, col in times.path.items()}
        out.append(PassTimes(case, path, k))
    return out


def typical(passes: list[PassTimes]) -> PassTimes:
    """Each input's median time over the passes."""
    case = array("d", map(statistics.median, zip(*(p.case for p in passes))))
    path = {}
    for name in PATHS:
        columns = zip(*(p.path[name] for p in passes))
        path[name] = array("d", (statistics.median([v for v in col if v >= 0] or [-1.0])
                                 for col in columns))
    return PassTimes(case, path, array("q"))


@dataclass
class Checks:
    """Outcome of the checks on the timed operations."""
    attempted: int = 0
    failed: int = 0
    inconsistent: int = 0        # a repeated evaluation returned another value
    worst_rel_err: float = 0.0
    failed_inputs: list[int] = field(default_factory=list)   # indices into the records

    def record(self, index: int, ok: bool, rel_err: float | None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_inputs.append(index)
        if rel_err is not None and rel_err > self.worst_rel_err:
            self.worst_rel_err = rel_err


def finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def same(a, b) -> bool:
    return a == b or repr(a) == repr(b)


def cross_check(spec: SumSpec, values: dict[str, float]) -> float:
    """verify's pass/fail measure: worst pairwise relative disagreement."""
    cond = oracle.conditioning(spec)
    floor_scale = oracle.term_magnitude_sum(spec) if cond < cli.CONDITIONING_FLOOR else 0.0
    worst = 0.0
    for (_, va), (_, vb) in combinations(values.items(), 2):
        worst = max(worst, abs(va - vb) / max(1.0, abs(va), abs(vb), floor_scale))
    return worst


class PathTimer:
    """Times each path inside ``cli.evaluate_case`` while active.

    Rebinds only the three path entry points in ``cli``'s namespace; it
    adds two clock reads per path call, about 1 us per case.
    """

    def __init__(self) -> None:
        self.last: dict[str, int] = {}
        self._saved: dict[str, object] = {}

    def _timed(self, name: str, fn):
        clock = time.perf_counter_ns
        last = self.last

        def timed(spec):
            start = clock()
            try:
                return fn(spec)
            finally:
                last[name] = clock() - start

        return timed

    def __enter__(self) -> "PathTimer":
        for path, attr in _CLI_PATH_NAMES.items():
            self._saved[attr] = getattr(cli, attr)
            setattr(cli, attr, self._timed(path, self._saved[attr]))
        return self

    def __exit__(self, *exc_info) -> None:
        for attr, fn in self._saved.items():
            setattr(cli, attr, fn)


def sweep_pass(cases, checks: Checks, first: list, timer: PathTimer | None = None) -> PassTimes:
    """One ``evaluate_case`` per case, in grid order.

    The first pass records each case's path values and verdict in
    ``first``; later passes must reproduce the values bit for bit.
    """
    evaluate = cli.evaluate_case
    clock = time.perf_counter_ns
    times = PassTimes.empty(len(cases))
    recording = not first
    for i, (spec, b_index) in enumerate(cases):
        if timer is not None:
            timer.last.clear()
        times.kernel[i] = time_kernel()
        start = clock()
        try:
            report = evaluate(spec, b_index, PATHS, TOL)
        except NumericError:
            report = None
        times.case[i] = clock() - start
        if timer is not None:
            for name, ns in timer.last.items():
                times.path[name][i] = ns
        values = None if report is None else tuple(report.values.get(p) for p in paths_for(spec))
        if recording:
            ok = report is not None and report.status == "pass" and finite(values)
            first.append((values, ok))
            checks.record(i, ok, None if report is None else report.rel_err)
        else:
            checks.attempted += 1
            checks.failed += not first[i][1]
            checks.inconsistent += not same(values, first[i][0])
    return times


def query_pass(specs, records: list, checks: Checks | None) -> PassTimes:
    """Each path timed on its own, once per query; values go to ``records``.

    With ``checks``, every query is cross-checked after its timing.
    """
    fns = path_functions()
    clock = time.perf_counter_ns
    times = PassTimes.empty(len(specs))
    for k, spec in enumerate(specs):
        values: dict[str, float | None] = {}
        total = 0
        times.kernel[k] = time_kernel()
        for name in paths_for(spec):
            fn = fns[name]
            start = clock()
            try:
                value = fn(spec).value
            except NumericError:
                value = None
            elapsed = clock() - start
            times.path[name][k] = elapsed
            total += elapsed
            values[name] = value
        times.case[k] = total
        if checks is not None:
            check_query(len(records), spec, values, checks)
        records.append((spec, values))
    return times


def check_query(index: int, spec: SumSpec, values: dict, checks: Checks) -> None:
    rel = None
    ok = finite(values.values())
    if ok:
        try:
            rel = cross_check(spec, values)
        except NumericError:
            ok = False
        else:
            ok = rel <= TOL
    checks.record(index, ok, rel)


@contextmanager
def collector_paused():
    """Run the cyclic garbage collector before a pass and not during it, as timeit does.

    A collection costs far more than a short path call, and which calls
    it lands on shifts from run to run.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_passes(seconds: float, one_pass) -> list[PassTimes]:
    """At least MIN_PASSES passes, more while the next still fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with collector_paused():
            passes.append(one_pass())
        now = time.perf_counter()
        last, spent = now - began, now - start
        if spent + last > MAX_SECONDS or (len(passes) >= MIN_PASSES and spent + last > seconds):
            return passes
