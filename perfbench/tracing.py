"""Per-layer spans and counts, recorded from outside the package.

While a ``Tracer`` is active it rebinds the public functions of each
layer, in every ``trigsum`` module that holds them, to wrappers that
time the call and count its work. Nothing under ``src/`` changes and the
rebinding ends with the ``with`` block. ``trig`` is not wrapped: its
calls are sub-microsecond, so a wrapper would cost more than the call,
and its time lands in the self time of whichever layer called it.

Spans are aggregated as they close, not stored one by one: sweep-deep
makes over a million coefficient calls per pass. A span's self time is
its duration minus the time of the spans it called. Counts come from
the arguments and results of the wrapped calls only, so two traced runs
of the same inputs give identical counts.
"""

from __future__ import annotations

import sys
import time

from trigsum.errors import NumericError
from trigsum.families import TRAITS

LAYERS = ("families", "coefficients", "multiindex", "closed_form", "oracle", "residue_engine", "cli")


def _oracle_terms(args, result) -> int:
    spec = args[0]
    traits = TRAITS[spec.family]
    stop = 2 * spec.d if traits.kind == "double" else spec.d
    return stop - traits.oracle_start


def _recurrence_terms(args, result) -> int:
    # A_k sums k earlier coefficients, for k = 1..nu
    nu = len(result) - 1
    return nu * (nu + 1) // 2


def _tuples(args, result) -> int:
    return len(result)


def _mul_adds(args, result) -> int:
    return len(args[0].coeffs) * len(args[1].coeffs)


# (module, function, span name, name of the work count, work count)
POINTS = (
    ("families", "validate_params", "families.validate_params", None, None),
    ("coefficients", "bernoulli", "coefficients.coeff", None, None),
    ("coefficients", "cot_coeff", "coefficients.coeff", None, None),
    ("coefficients", "csc_coeff", "coefficients.coeff", None, None),
    ("coefficients", "apostol_coeff_table", "coefficients.apostol_coeff_table", "terms",
     _recurrence_terms),
    ("multiindex", "enumerate_compositions", "multiindex.enumerate_compositions", "tuples",
     _tuples),
    ("multiindex", "cot_coeff_product", "multiindex.coeff_product", None, None),
    ("multiindex", "csc_coeff_product", "multiindex.coeff_product", None, None),
    ("closed_form", "closed_form_value", "closed_form.closed_form_value", None, None),
    ("oracle", "direct_sum", "oracle.direct_sum", "terms", _oracle_terms),
    ("oracle", "conditioning", "oracle.conditioning", "terms", _oracle_terms),
    ("oracle", "term_magnitude_sum", "oracle.term_magnitude_sum", None, None),
    ("residue_engine", "series_mul", "residue_engine.series_mul", "mul_adds", _mul_adds),
    ("residue_engine", "expand_factor", "residue_engine.expand_factor", None, None),
    ("residue_engine", "sum_via_residues", "residue_engine.sum_via_residues", None, None),
    ("cli", "evaluate_case", "cli.evaluate_case", None, None),
    ("cli", "grid_cases", "cli.grid_cases", None, None),
)


class SpanStats:
    __slots__ = ("calls", "self_ns", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.work = 0


class Tracer:
    """Context manager that records spans and counts for every layer."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.work_names: dict[str, str] = {}
        for _, _, span, work_name, _ in POINTS:
            self.spans.setdefault(span, SpanStats())
            if work_name:
                self.work_names[span] = work_name
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stats in self.spans.values():
            stats.calls = stats.self_ns = stats.work = 0
        self.errors = dict.fromkeys(LAYERS, 0)
        self._last_error = None

    def self_seconds(self) -> float:
        return sum(stats.self_ns for stats in self.spans.values()) * 1e-9

    def _wrap(self, fn, stats: SpanStats, layer: str, work):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except NumericError as exc:
                # count an error once, in the innermost layer it left
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stats.self_ns += elapsed - stack.pop()
                stats.calls += 1
                if stack:
                    stack[-1] += elapsed
            if work is not None:
                stats.work += work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "trigsum" or name.startswith("trigsum.")]
        for module_name, fn_name, span, _, work in POINTS:
            original = getattr(sys.modules[f"trigsum.{module_name}"], fn_name)
            wrapper = self._wrap(original, self.spans[span], module_name, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
