"""Command-line front end.

Subcommands: solve, cases, pair, verify, identities.  Problem files are
JSON objects with exactly the keys {"a", "b", "n", "d"} (pair output adds
"relation").  Exit codes: 0 success, 1 parse error, 2 domain or quadrature
error or an output file that cannot be written, 3 inapplicable case, 4
verification failure.  Only input that does
not parse (a problem file, a coefficient, the identities exponent, a case
id) exits 1; a ValueError raised inside the library exits 2.  Each error
type carries its exit code and message prefix (`errors.BsymError`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .closedform import ProblemSpec, Validity, solution_values, validity_interval
from .errors import BsymError, CaseNotApplicable, DomainError, ExprSyntaxError, ParityViolation
from .expr import parse_expr
from .exponent import parse_exponent
from .oracle import solve_on_grid
from .quad import Identity, identity_residuals
from .symmetry import (
    applicable_cases,
    resolve_case,
    transform_problem,
    verify_cases,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 4

IDENTITY_TOL = 1e-8

# the most grid points `solve --points`, `verify --points` and
# `identities --samples` accept: a larger count is refused before its grid
# is built, which would otherwise grow until memory runs out
MAX_POINTS = 1_000_000

_PROBLEM_KEYS = ("a", "b", "n", "d")


class ProblemFileError(BsymError):
    """Problem file is not a valid serialized IVP."""

    exit_code = 1
    prefix = "parse error: "


class _ArgumentError(BsymError):
    """A command-line argument does not parse."""

    exit_code = 1
    prefix = "parse error: "


class OutputFileError(BsymError):
    """An output file cannot be written."""


def _write(path: str, text: str) -> None:
    """Write text to the file at path, or raise OutputFileError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputFileError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_arg(parse, text: str):
    """parse(text), with its ValueError typed as a parse error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise _ArgumentError(str(exc)) from None


def _check_count(option: str, value: int, least: int) -> None:
    """DomainError unless least <= value <= MAX_POINTS."""
    if value < least:
        raise DomainError(f"{option} must be >= {least}")
    if value > MAX_POINTS:
        raise DomainError(f"{option} must be <= {MAX_POINTS}")


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer past the digit limit
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    unknown = set(data) - set(_PROBLEM_KEYS) - {"relation"}
    if unknown:
        raise ProblemFileError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in _PROBLEM_KEYS if k not in data]
    if missing:
        raise ProblemFileError(f"{path}: missing keys {missing}")
    for key in ("a", "b"):
        if not isinstance(data[key], str):
            raise ProblemFileError(f"{path}: key {key!r} must be a DSL string")
    for key in ("n", "d"):
        # JSON true and false would otherwise read as the numbers 1 and 0
        if isinstance(data[key], bool):
            raise ProblemFileError(f"{path}: key {key!r} must be text or a number, not a boolean")
    try:
        n = parse_exponent(data["n"])
        # ProblemSpec converts an integer, and rejects one past the float range
        d = data["d"] if isinstance(data["d"], int) else float(data["d"])
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(f"{path}: {exc}") from None
    return ProblemSpec(parse_expr(data["a"]), parse_expr(data["b"]), n, d)


def _format_d(d: float) -> str:
    return str(int(d)) if float(d).is_integer() else repr(d)


def _validity_json(v: Validity) -> dict:
    return {
        "lo": v.lo,
        "hi": v.hi,
        "lo_kind": v.lo_kind.value,
        "hi_kind": v.hi_kind.value,
    }


# --- subcommands ------------------------------------------------------------

def cmd_solve(args) -> int:
    p = load_problem(args.problem)
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise DomainError("--t-min and --t-max must be finite")
    if not args.t_min < args.t_max:
        raise DomainError("--t-min must be below --t-max")
    _check_count("--points", args.points, 2)
    step = (args.t_max - args.t_min) / (args.points - 1)
    grid = [args.t_min + i * step for i in range(args.points)]
    if not all(map(math.isfinite, grid)):
        raise DomainError("the grid from --t-min to --t-max overflows a float")
    radius = 1.05 * max(abs(args.t_min), abs(args.t_max), 1e-3)
    if radius == math.inf:
        raise DomainError("the search radius 1.05 * max(|--t-min|, |--t-max|) overflows a float")
    validity = validity_interval(p, radius)
    kept = [t for t in grid if validity.contains(t)]
    if args.method == "closed":
        ys = solution_values(p, kept)
    else:
        ys = solve_on_grid(p, kept)
    rows = "".join(f"{t:.17g},{y:.17g}\n" for t, y in zip(kept, ys))
    _write(
        args.out,
        f"t,y\n{rows}# validity: [{validity.lo:.17g},{validity.hi:.17g}] "
        f"{validity.lo_kind.value},{validity.hi_kind.value}\n",
    )
    return EXIT_OK


def cmd_cases(args) -> int:
    p = load_problem(args.problem)
    for case in applicable_cases(p):
        print(f"{case.id}\t{case.relation.value}\t{case.transform_text}")
    return EXIT_OK


def cmd_pair(args) -> int:
    p = load_problem(args.problem)
    case = _parse_arg(resolve_case, args.case)
    p2 = transform_problem(p, case)
    for key, expr in (("a", p2.a), ("b", p2.b)):
        try:  # the partner must read back: a built tree can nest too deep
            parse_expr(expr.source)
        except ExprSyntaxError as exc:
            raise DomainError(f"partner coefficient {key} cannot be written: {exc}") from None
    payload = {
        "a": p2.a.source,
        "b": p2.b.source,
        "n": str(p2.n),
        "d": _format_d(p2.d),
        "relation": case.relation.value,
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    p = load_problem(args.problem)
    _check_count("--points", args.points, 3)
    if not 0.0 < args.tol < math.inf:
        raise DomainError("--tol must be positive and finite")
    cases = applicable_cases(p) if args.case == "all" else [_parse_arg(resolve_case, args.case)]
    if not cases:  # an empty report would read as a pass
        raise CaseNotApplicable("no catalog case applies to this problem")
    reps = verify_cases(p, cases, grid_points=args.points, tol=args.tol, method=args.method)
    reports = [
        {
            "case": rep.case_id,
            "relation": rep.relation.value,
            "max_residual": rep.max_residual,
            "grid_size": len(rep.grid),
            "validity": _validity_json(rep.common_validity),
            "verdict": rep.verdict,
        }
        for rep in reps
    ]
    _write(args.report, json.dumps(reports, indent=2) + "\n")
    for rep in reps:  # only once the report is written
        print(f"{rep.case_id}\t{rep.relation.value}\tmax_residual={rep.max_residual:.6e}\t{rep.verdict}")
    return EXIT_OK if all(rep.passed for rep in reps) else EXIT_VERIFY_FAILED


def cmd_identities(args) -> int:
    a = parse_expr(args.a)
    b = parse_expr(args.b)
    n = _parse_arg(parse_exponent, args.n)
    _check_count("--samples", args.samples, 1)
    if not 0.0 < args.t_max < math.inf:
        raise DomainError("--t-max must be positive and finite")
    ts = [args.t_max * (i + 1) / args.samples for i in range(args.samples)]
    if ts[-1] == math.inf:  # the largest time
        raise DomainError("--t-max * --samples overflows a float")
    ok = True
    for ident in Identity:
        try:
            residuals = identity_residuals(ident, a, b, n, ts)
        except ParityViolation as exc:
            print(f"{ident.value}\tskipped\t{exc}")
            continue
        for t, r in zip(ts, residuals):
            print(f"{ident.value}\tt={t:.17g}\tresidual={r:.6e}")
            ok &= r <= IDENTITY_TOL
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# --- driver -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bsym",
        description=(
            "Evaluate closed-form Bernoulli IVP solutions, construct symmetric "
            "partner problems, and verify the predicted reflection relations."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="write a t,y CSV for one problem")
    solve.add_argument("--problem", required=True, help="problem JSON path")
    solve.add_argument("--t-min", type=float, required=True, dest="t_min")
    solve.add_argument("--t-max", type=float, required=True, dest="t_max")
    solve.add_argument("--points", type=int, default=101, help=f"grid points, 2 to {MAX_POINTS}")
    solve.add_argument("--method", choices=("closed", "oracle"), default="closed")
    solve.add_argument("--out", required=True, help="output CSV path")
    solve.set_defaults(fn=cmd_solve)

    cases = sub.add_parser("cases", help="list applicable symmetry cases")
    cases.add_argument("--problem", required=True)
    cases.set_defaults(fn=cmd_cases)

    pair = sub.add_parser("pair", help="write the symmetric partner problem")
    pair.add_argument("--problem", required=True)
    pair.add_argument("--case", required=True, help="case id, e.g. T2iv")
    pair.add_argument("--out", required=True, help="output problem JSON path")
    pair.set_defaults(fn=cmd_pair)

    verify = sub.add_parser("verify", help="verify predicted relations numerically")
    verify.add_argument("--problem", required=True)
    verify.add_argument("--case", default="all", help="case id or 'all'")
    verify.add_argument("--points", type=int, default=51, help=f"grid points, 3 to {MAX_POINTS}")
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--method", choices=("closed", "oracle"), default="oracle")
    verify.add_argument("--report", required=True, help="output report JSON path")
    verify.set_defaults(fn=cmd_verify)

    idents = sub.add_parser("identities", help="check the mirrored-integral identities")
    idents.add_argument("a", help="coefficient a(t), DSL text")
    idents.add_argument("b", help="coefficient b(t), DSL text")
    idents.add_argument("n", help="exponent, 'p/q' or integer")
    idents.add_argument("--t-max", type=float, default=2.0, dest="t_max")
    idents.add_argument("--samples", type=int, default=8, help=f"sample times, 1 to {MAX_POINTS}")
    idents.set_defaults(fn=cmd_identities)

    return top


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process."""
    return build_parser()


def _normalised(argv: Sequence[str]) -> list[str]:
    """argv with every option value and positional where argparse reads it.

    Every long option but --help takes exactly one value, abbreviated or
    not, and a value that starts with '-' (-1e-05, -inf, -p.json) is joined
    to it as `--opt=value`: argparse would read it as an option name and
    stop with "expected one argument".  `identities` positionals move after
    `--` when one of them starts with '-' ("-t^2", "-1/2"), which argparse
    would read as an unknown option.  Everything from an existing `--` on
    is left alone.
    """
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    out, options, positionals = argv[:min(1, end)], [], []
    k = 1
    while k < end:
        arg = argv[k]
        if arg.startswith("--") and "=" not in arg and not "--help".startswith(arg) and k + 1 < end:
            value = argv[k + 1]
            tokens = [f"{arg}={value}"] if value.startswith("-") else [arg, value]
            k += 2
        else:
            tokens = [arg]
            k += 1
        (options if arg.startswith("--") or arg == "-h" else positionals).extend(tokens)
        out += tokens
    if out[:1] == ["identities"] and end == len(argv) and any(a.startswith("-") for a in positionals):
        return ["identities", *options, "--", *positionals]
    return out + argv[end:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(_normalised(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (BsymError, ValueError) as exc:
        # a ValueError raised inside the library reads as a plain BsymError
        kind = exc if isinstance(exc, BsymError) else BsymError
        print(f"bsym: {kind.prefix}{exc}", file=sys.stderr)
        return kind.exit_code


if __name__ == "__main__":
    sys.exit(main())
