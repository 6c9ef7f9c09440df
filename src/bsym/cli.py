"""Command-line front end.

Subcommands: solve, cases, pair, verify, identities.  Problem files are
JSON objects with exactly the keys {"a", "b", "n", "d"} (pair output adds
"relation").  Exit codes: 0 success, 1 parse error, 2 domain or quadrature
error, 3 inapplicable case, 4 verification failure.  Only input that does
not parse (a problem file, a coefficient, the identities exponent, a case
id) exits 1; a ValueError raised inside the library exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .closedform import ProblemSpec, Validity, solution_values, validity_interval
from .errors import (
    BsymError,
    CaseNotApplicable,
    DomainError,
    EmptyDomain,
    EvalError,
    ExprSyntaxError,
    NoConvergence,
    OutsideValidity,
    ParityViolation,
    StepFailure,
    ZeroDenominator,
)
from .expr import parse_expr
from .exponent import parse_exponent
from .oracle import solve_on_grid
from .quad import Identity, identity_residuals, require_identity_parity
from .symmetry import (
    CATALOG,
    applicable_cases,
    resolve_case,
    transform_problem,
    verify_cases,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_NOT_APPLICABLE = 3
EXIT_VERIFY_FAILED = 4

IDENTITY_TOL = 1e-8

_PROBLEM_KEYS = ("a", "b", "n", "d")


class ProblemFileError(BsymError):
    """Problem file is not a valid serialized IVP."""


class _ArgumentError(BsymError):
    """A command-line argument does not parse."""


def _parse_arg(parse, text: str):
    """parse(text), with its ValueError typed as a parse error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise _ArgumentError(str(exc)) from None


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
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
    try:
        n = parse_exponent(data["n"])
        d = float(data["d"])
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
    if args.points < 2:
        raise DomainError("--points must be >= 2")
    radius = 1.05 * max(abs(args.t_min), abs(args.t_max), 1e-3)
    validity = validity_interval(p, radius)
    step = (args.t_max - args.t_min) / (args.points - 1)
    grid = [args.t_min + i * step for i in range(args.points)]
    kept = [t for t in grid if validity.contains(t)]
    if args.method == "closed":
        ys = solution_values(p, kept)
    else:
        ys = solve_on_grid(p, kept)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,y\n")
        for t, y in zip(kept, ys):
            fh.write(f"{t:.17g},{y:.17g}\n")
        fh.write(
            f"# validity: [{validity.lo:.17g},{validity.hi:.17g}] "
            f"{validity.lo_kind.value},{validity.hi_kind.value}\n"
        )
    return EXIT_OK


def cmd_cases(args) -> int:
    p = load_problem(args.problem)
    for case in applicable_cases(p):
        transform = (
            f"a2={'-' if case.flip_a else '+'}a1,"
            f"b2={'-' if case.flip_b else '+'}b1,"
            f"d2={'-' if case.flip_d else '+'}d1"
        )
        print(f"{case.id}\t{case.relation.value}\t{transform}")
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
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    p = load_problem(args.problem)
    if args.points < 3:
        raise DomainError("--points must be >= 3")
    if not 0.0 < args.tol < math.inf:
        raise DomainError("--tol must be positive and finite")
    cases = applicable_cases(p) if args.case == "all" else [_parse_arg(resolve_case, args.case)]
    reports = []
    all_passed = True
    for rep in verify_cases(p, cases, grid_points=args.points, tol=args.tol, method=args.method):
        all_passed &= rep.passed
        reports.append(
            {
                "case": rep.case_id,
                "relation": rep.relation.value,
                "max_residual": rep.max_residual,
                "grid_size": len(rep.grid),
                "validity": _validity_json(rep.common_validity),
                "verdict": rep.verdict,
            }
        )
        print(f"{rep.case_id}\t{rep.relation.value}\tmax_residual={rep.max_residual:.6e}\t{rep.verdict}")
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reports, fh, indent=2)
        fh.write("\n")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_identities(args) -> int:
    a = parse_expr(args.a)
    b = parse_expr(args.b)
    n = _parse_arg(parse_exponent, args.n)
    if args.samples < 1:
        raise DomainError("--samples must be >= 1")
    ts = [args.t_max * (i + 1) / args.samples for i in range(args.samples)]
    # ts[-1] is t_max up to rounding, or inf where t_max * samples overflows
    if not 0.0 < ts[-1] < math.inf:
        raise DomainError("--t-max must be positive and finite")
    ok = True
    for ident in Identity:
        try:
            require_identity_parity(ident, a, b)
        except ParityViolation as exc:
            print(f"{ident.value}\tskipped\t{exc}")
            continue
        residuals = identity_residuals(ident, a, b, n, ts)
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
    solve.add_argument("--points", type=int, default=101)
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
    verify.add_argument("--points", type=int, default=51)
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--method", choices=("closed", "oracle"), default="oracle")
    verify.add_argument("--report", required=True, help="output report JSON path")
    verify.set_defaults(fn=cmd_verify)

    idents = sub.add_parser("identities", help="check the mirrored-integral identities")
    idents.add_argument("a", help="coefficient a(t), DSL text")
    idents.add_argument("b", help="coefficient b(t), DSL text")
    idents.add_argument("n", help="exponent, 'p/q' or integer")
    idents.add_argument("--t-max", type=float, default=2.0, dest="t_max")
    idents.add_argument("--samples", type=int, default=8)
    idents.set_defaults(fn=cmd_identities)

    return top


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process."""
    return build_parser()


# the options that take a number
_NUMBER_OPTIONS = frozenset({"--t-min", "--t-max", "--points", "--tol", "--samples"})


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _joined(argv: Sequence[str]) -> list[str]:
    """argv with `--t-min -1e-05` written as `--t-min=-1e-05`, and so on for
    every option that takes a number, also when abbreviated.

    argparse reads a value that starts with '-' and is not a plain negative
    decimal (-1e-05, -inf, -nan) as an option name, and stops with "expected
    one argument"; joined, the value reaches the option.  Arguments after
    `--` are left alone.
    """
    out: list[str] = []
    k = 0
    while k < len(argv):
        arg = argv[k]
        if arg == "--":
            out.extend(argv[k:])
            break
        if (
            arg.startswith("--")
            and k + 1 < len(argv)
            and argv[k + 1].startswith("-")
            # a prefix too: argparse resolves abbreviations, or rejects them
            and any(o.startswith(arg) for o in _NUMBER_OPTIONS)
            and _is_number(argv[k + 1])
        ):
            arg = f"{arg}={argv[k + 1]}"
            k += 1
        out.append(arg)
        k += 1
    return out


def _dashed_positionals(argv: list[str]) -> list[str]:
    """`identities` argv with its options first and its positionals after
    `--`, when one of them starts with '-'.

    argparse reads a positional such as "-t^2" or "-1/2" as an unknown
    option and stops with "the following arguments are required"; after
    `--` it reaches its parser.  Every option of `identities` but the help
    takes one value; an argv that already has `--` is left alone.
    """
    if argv[:1] != ["identities"] or "--" in argv:
        return argv
    options, positionals = [], []
    k = 1
    while k < len(argv):
        arg = argv[k]
        takes_value = arg.startswith("--") and "=" not in arg and not "--help".startswith(arg)
        if arg.startswith("--") or arg == "-h":
            options += argv[k:k + 1 + takes_value]
            k += takes_value
        else:
            positionals.append(arg)
        k += 1
    if not any(arg.startswith("-") for arg in positionals):
        return argv
    return ["identities", *options, "--", *positionals]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _joined(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(_dashed_positionals(argv))
    try:
        return args.fn(args)
    except (ExprSyntaxError, ProblemFileError, _ArgumentError) as exc:
        print(f"bsym: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CaseNotApplicable as exc:
        print(f"bsym: case not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except EmptyDomain as exc:
        print(f"bsym: empty domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (
        DomainError,
        EvalError,
        NoConvergence,
        OutsideValidity,
        ParityViolation,
        StepFailure,
        ValueError,
        ZeroDenominator,
    ) as exc:
        print(f"bsym: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
