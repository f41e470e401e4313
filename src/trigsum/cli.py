"""Command-line front end: evaluate, cross-verify, tabulate, dump coefficients.

Exit codes: 0 success, 1 internal numeric or I/O error, 2 usage or
parameter validation error, 3 verification failure. Tolerance comes
from --tol, then the TRIGSUM_TOL environment variable, then 1e-8.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .closed_form import closed_form_value
from .coefficients import bernoulli, coefficient_cap, cot_coeff, csc_coeff
from .errors import NumericError, ParameterError
from .families import TRAITS, Family, SumSpec, validate_params
from .oracle import conditioning, direct_sum, term_magnitude_sum
from .residue_engine import residue_gap, sum_via_residues

DEFAULT_TOL = 1e-8
TOL_ENV = "TRIGSUM_TOL"
MAX_DMAX = 200
TRIPLE_B2_OFFSET = 0.31
CSV_HEADER = "family,n,d,m,b,b2,closed_form,oracle,residue,abs_err,rel_err,conditioning,status"
PATH_NAMES = ("closed", "oracle", "residue")
# conditioning below this switches the comparison scale to the term-magnitude sum
CONDITIONING_FLOOR = 0.01


def _tolerance(args: argparse.Namespace) -> float:
    """The --tol flag, else TRIGSUM_TOL, else the default; either must be finite and positive.

    An infinite tolerance would pass every comparison.
    """
    if args.tol is not None:
        value, source = args.tol, "--tol"
    else:
        raw = os.environ.get(TOL_ENV)
        if raw is None:
            return DEFAULT_TOL
        try:
            value = float(raw)
        except ValueError:
            raise ParameterError(f"invalid {TOL_ENV} value {raw!r}") from None
        source = TOL_ENV
    if not value > 0.0:
        raise ParameterError(f"{source} must be positive, got {value!r}")
    if not math.isfinite(value):
        raise ParameterError(f"{source} must be finite, got {value!r}")
    return value


def default_offsets(d: int) -> tuple[float, ...]:
    """Published deterministic b offsets, singularity-free for d <= 200."""
    return (0.137, 1.0 / 3.0 + 1.0 / (7.0 * d), 0.5 / d + 0.01)


def _compute_path(name: str, spec: SumSpec) -> float:
    if name == "closed":
        return closed_form_value(spec).value
    if name == "oracle":
        return direct_sum(spec).value
    return sum_via_residues(spec).value


# not frozen, as SumValue: verify builds one per case
@dataclass(slots=True)
class VerificationReport:
    """One grid case: the computed path values and their worst disagreement."""
    spec: SumSpec
    b_index: int
    values: dict[str, float]
    conditioning: float
    abs_err: float | None
    rel_err: float | None
    worst_pair: tuple[str, str] | None
    status: str

    def csv_row(self) -> str:
        def fmt(x: float | None) -> str:
            return "" if x is None else f"{x:.17g}"

        spec = self.spec
        return ",".join(
            (
                spec.family.value,
                str(spec.n),
                str(spec.d),
                str(spec.m),
                fmt(spec.b),
                fmt(spec.b2),
                fmt(self.values.get("closed")),
                fmt(self.values.get("oracle")),
                fmt(self.values.get("residue")),
                fmt(self.abs_err),
                fmt(self.rel_err),
                fmt(self.conditioning),
                self.status,
            )
        )


def evaluate_case(spec: SumSpec, b_index: int, paths: Sequence[str], tol: float) -> VerificationReport:
    cond = conditioning(spec)
    floor_scale = term_magnitude_sum(spec) if cond < CONDITIONING_FLOOR else 0.0
    values: dict[str, float] = {}
    for name in paths:
        if name == "residue" and residue_gap(spec) is not None:
            continue
        values[name] = _compute_path(name, spec)
    abs_err = rel_err = None
    worst_pair = None
    for (pa, va), (pb, vb) in combinations(values.items(), 2):
        err = abs(va - vb)
        rel = err / max(1.0, abs(va), abs(vb), floor_scale)
        if rel_err is None or rel > rel_err:
            abs_err, rel_err, worst_pair = err, rel, (pa, pb)
    status = "pass" if rel_err is None or rel_err <= tol else "fail"
    return VerificationReport(spec, b_index, values, cond, abs_err, rel_err, worst_pair, status)


def iter_grid_cases(
    families: Sequence[Family],
    dmax: int,
    nmax: int,
    offsets=None,
) -> Iterator[tuple[SumSpec, int]]:
    """Deterministic sweep order: family, d, m, b-index, n, one case at a time.

    The bounds on dmax and nmax are checked on the call, before the first
    case is built. Offsets that land on a family's singular set are
    silently dropped.
    """
    if dmax > MAX_DMAX:
        raise ParameterError(f"dmax {dmax} exceeds the supported bound {MAX_DMAX}")
    if dmax < 2 or nmax < 1:
        raise ParameterError(f"empty grid: dmax {dmax} and nmax {nmax} admit no cases")
    return _grid(families, dmax, nmax, offsets)


def _grid(families, dmax, nmax, offsets) -> Iterator[tuple[SumSpec, int]]:
    for family in families:
        traits = TRAITS[family]
        n_values = range(1, nmax + 1) if traits.supports_power else (1,)
        for d in range(2, dmax + 1):
            bs = tuple(offsets) if offsets is not None else default_offsets(d)
            # formed once per d, so every m shares one b2 float, not one each
            shifts = [(float(b), b + TRIPLE_B2_OFFSET if traits.kind == "triple" else None)
                      for b in bs]
            for m in range(1, d):
                if traits.odd_m and m % 2 == 0:
                    continue
                for b_index, (b, b2) in enumerate(shifts):
                    for n in n_values:
                        try:
                            spec = validate_params(SumSpec(family, d, m, b, n, b2))
                        except ParameterError:
                            continue
                        yield spec, b_index


def grid_cases(
    families: Sequence[Family],
    dmax: int,
    nmax: int,
    offsets=None,
) -> list[tuple[SumSpec, int]]:
    """Every case of iter_grid_cases, as a list."""
    return list(iter_grid_cases(families, dmax, nmax, offsets))


def _parse_paths(raw: str) -> tuple[str, ...]:
    """The distinct paths of a comma list; fewer than two would compare nothing."""
    names = tuple(dict.fromkeys(p.strip() for p in raw.split(",") if p.strip()))
    choices = ",".join(PATH_NAMES)
    if not names or any(p not in PATH_NAMES for p in names):
        raise ParameterError(f"unknown path selection {raw!r}; choose from {choices}")
    if len(names) < 2:
        raise ParameterError(
            f"path selection {raw!r} compares nothing; choose two or three of {choices}")
    return names


def cmd_eval(args: argparse.Namespace) -> int:
    spec = validate_params(
        SumSpec(Family.from_label(args.family), args.d, args.m, args.b, args.n, args.b2)
    )
    tol = _tolerance(args)
    if args.all_paths:
        report = evaluate_case(spec, 0, PATH_NAMES, tol)
        closed = report.values["closed"]
    else:
        report = None
        closed = _compute_path("closed", spec)
    if args.json:
        obj = {
            "family": spec.family.value,
            "n": spec.n,
            "d": spec.d,
            "m": spec.m,
            "b": spec.b,
            "b2": spec.b2,
            "value": closed,
        }
        if report is not None:
            obj.update(
                {
                    "oracle": report.values.get("oracle"),
                    "residue": report.values.get("residue"),
                    "abs_err": report.abs_err,
                    "rel_err": report.rel_err,
                    "conditioning": report.conditioning,
                    "status": report.status,
                }
            )
        print(json.dumps(obj, sort_keys=True))
    elif report is not None:
        for name in PATH_NAMES:
            if name in report.values:
                print(f"{name}: {report.values[name]!r}")
        print(f"abs_err: {report.abs_err!r}")
        print(f"rel_err: {report.rel_err!r}")
        print(f"conditioning: {report.conditioning!r}")
        print(f"status: {report.status}")
    else:
        print(repr(closed))
    # a comparison the command itself reports as failed is a verification failure
    return 3 if report is not None and report.status == "fail" else 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    paths = _parse_paths(args.paths)
    cases = iter_grid_cases(tuple(Family), args.dmax, args.nmax)
    if not args.quiet:
        print(CSV_HEADER)
    # cases are built and rows printed one at a time; only the counts and the
    # two reports the summary names are kept, so memory does not grow with the grid
    total = compared = failed = 0
    worst = offender = None
    for spec, b_index in cases:
        total += 1
        report = evaluate_case(spec, b_index, paths, tol)
        if not args.quiet:
            print(report.csv_row())
        if report.rel_err is None:
            continue
        compared += 1
        if worst is None or report.rel_err > worst.rel_err:
            worst = report
        if report.status == "fail":
            failed += 1
            if offender is None or report.rel_err > offender.rel_err:
                offender = report
    if offender is not None:
        spec = offender.spec
        print(
            f"verification FAILED: {failed} of {compared} compared cases "
            f"exceed tol={tol:.3g}; worst family={spec.family.value} n={spec.n} "
            f"d={spec.d} m={spec.m} b={spec.b:.17g} paths={'/'.join(offender.worst_pair)} "
            f"rel_err={offender.rel_err:.3g}"
        )
        return 3
    worst_txt = f"{worst.rel_err:.3g}" if worst is not None else "n/a"
    print(
        f"verification passed: {total} cases, {compared} compared, "
        f"worst rel err {worst_txt}, tol {tol:.3g}"
    )
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    if args.family == "all":
        families: tuple[Family, ...] = tuple(Family)
    else:
        families = (Family.from_label(args.family),)
    # a repeated --b would repeat its rows; keep the distinct offsets in their order
    offsets = tuple(dict.fromkeys(args.b)) if args.b else None
    # the grid drops offsets on a singular set; a non-finite one is a usage error
    for b in offsets or ():
        if not math.isfinite(b):
            raise ParameterError(f"--b must be finite, got {b!r}")
    cases = grid_cases(families, args.dmax, args.nmax, offsets)
    lines = [CSV_HEADER]
    lines += [evaluate_case(spec, b_index, PATH_NAMES, tol).csv_row() for spec, b_index in cases]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    cap = coefficient_cap()
    if args.count < 1:
        raise ParameterError(f"empty listing: count must be at least 1, got {args.count}")
    # the rows are indices 0..count-1, so the last one may equal the cap
    if args.count > cap + 1:
        raise ParameterError(
            f"coefficient cap exceeded: count {args.count} > cap {cap} "
            f"(raise TRIGSUM_COEFF_CAP to extend)"
        )
    source = {"bernoulli": bernoulli, "cot": cot_coeff, "csc": csc_coeff}[args.kind]
    for j in range(args.count):
        value = source(j)
        print(f"{j},{value.numerator},{value.denominator}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsum",
        description="Evaluate and cross-verify finite cotangent/cosecant/tangent/secant sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one sum by its closed form")
    p_eval.add_argument("--family", required=True, help="family label, e.g. cos-cot")
    p_eval.add_argument("--n", type=int, default=1, help="power index (power families only)")
    p_eval.add_argument("--d", type=int, required=True, help="denominator / summation range")
    p_eval.add_argument("--m", type=int, required=True, help="frequency, 0 < m < d")
    p_eval.add_argument("--b", type=float, required=True, help="shift parameter")
    p_eval.add_argument("--b2", type=float, default=None, help="second shift (triple families)")
    p_eval.add_argument("--json", action="store_true", help="emit a flat JSON object")
    p_eval.add_argument("--all-paths", action="store_true", help="also run oracle and residue paths")
    p_eval.add_argument("--tol", type=float, default=None, help="comparison tolerance")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="cross-verify paths over a deterministic grid")
    p_verify.add_argument("--dmax", type=int, default=10, help="largest d in the sweep")
    p_verify.add_argument("--nmax", type=int, default=2, help="largest power index in the sweep")
    p_verify.add_argument("--tol", type=float, default=None, help="comparison tolerance")
    p_verify.add_argument(
        "--paths", default="closed,oracle,residue", help="comma list from closed,oracle,residue"
    )
    p_verify.add_argument("--quiet", action="store_true", help="suppress per-case rows")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit the comparison grid as CSV")
    p_table.add_argument("--family", default="all", help="family label or 'all'")
    p_table.add_argument("--dmax", type=int, default=5, help="largest d in the sweep")
    p_table.add_argument("--nmax", type=int, default=1, help="largest power index in the sweep")
    p_table.add_argument(
        "--b", type=float, action="append", default=None,
        help="explicit b offset (repeatable; replaces the default offsets)",
    )
    p_table.add_argument("--out", default=None, help="output path (default: stdout)")
    p_table.add_argument("--tol", type=float, default=None, help="status tolerance")
    p_table.set_defaults(func=cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="print exact rational coefficient tables")
    p_coeffs.add_argument(
        "--kind", required=True, choices=("bernoulli", "cot", "csc"), help="which table"
    )
    p_coeffs.add_argument("--count", type=int, required=True, help="number of rows (indices 0..count-1)")
    p_coeffs.set_defaults(func=cmd_coeffs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
