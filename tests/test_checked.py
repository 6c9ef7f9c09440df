"""The generated, checked right-hand sides of the quadrature and the oracle.

`quad.nested_path` and `oracle.rk_solve` integrate the `expr.Bound`s that
`expr.checked_factory` builds, which `stepper.integrate` runs through each
form's own loop, DOP853's for the quadrature and DP5's for the oracle.  They must reproduce, bit for bit and error for error, the
closures they replaced: each coefficient wrapped by the old `as_callable`
(kept below as `reference_callable`, over the tree's code with its
constants written as literals), and y^n from `signed_pow`.  The closures
run both in the stepper's call-form loop and in `test_stepper`'s
`reference_integrate`, a loop with no generated code, and the two must
agree.  A spy that wraps the function it hands `integrate` runs the call
form's loop, which calls the `Bound`'s checked wrapper; each such test has a
counterpart that spies on the coefficient functions the form's loop calls.
"""

import cProfile
import dataclasses
import linecache
import math
import pstats
import random
import re
import traceback
from collections import Counter

import pytest

from bsym import (
    BsymError,
    DomainError,
    EvalError,
    StepFailure,
    expr,
    oracle,
    parse_exponent,
    parse_expr,
    problem,
    quad,
    rk_solve,
    stepper,
    verify_cases,
)
from bsym.exponent import ExponentClass, signed_pow
from bsym.expr import FUNCTIONS, MAX_DEPTH, BinOp, Call, Const, Neg, Pow, Var, as_callable
from bsym.oracle import ORACLE_CONTROL
from bsym.quad import QUAD_CONTROL, nested_path
from bsym.stepper import DOP853, DP5

from helpers import SPIKED_B, bench_inputs, counting_walks, random_source
from test_stepper import opened, reference_integrate

_MATH = {name: getattr(math, name) for name in FUNCTIONS}


def literal_code(node) -> str:
    """The tree's Python code with each constant written as a literal, as
    the package generated it per tree before it compiled per shape."""
    if isinstance(node, Const):
        # parens guard negative literals against Python's tighter-binding **
        return f"({node.value!r})"
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        return f"(-{literal_code(node.arg)})"
    if isinstance(node, BinOp):
        return f"({literal_code(node.left)}{node.op}{literal_code(node.right)})"
    if isinstance(node, Pow):
        return f"({literal_code(node.base)}**{node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({literal_code(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def reference_callable(e):
    """as_callable before the generated template: the expression's literal
    code, compiled per tree, inside a wrapper that types its errors and
    checks its value."""
    fn = eval(f"lambda t: {literal_code(e)}", dict(_MATH))
    isfinite = math.isfinite

    def call(t):
        try:
            v = fn(t)
        except ZeroDivisionError:
            raise EvalError(f"division by zero at t={t!r}") from None
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"evaluation failed at t={t!r}: {exc}") from None
        if not isfinite(v):
            raise EvalError(f"non-finite value at t={t!r}")
        return v

    return call


def reference_factory(form, *coefs):
    """The closures quad and oracle built before, with the factory
    signature of the form they stand in for."""
    if form in (quad._ab_form(1), quad._ab_form(2)):
        fa, fb = (reference_callable(c) for c in coefs)
        exp = math.exp

        def ab(*mults):
            def rhs(s, A):
                a, b = fa(s), fb(s)
                return (a, *(b * exp(mult * A) for mult in mults))

            return rhs

        return ab

    def factory(n, neg, e, pow, signed_pow_):
        fa, fb = (reference_callable(c) for c in coefs)
        if n.cls is ExponentClass.ONE:
            return lambda t, x: ((fa(t) + fb(t)) * x,)
        return lambda t, x: (fa(t) * x + fb(t) * signed_pow(x, n),)

    return factory


def outcome(run):
    """repr of the path's ts, ys, ks and blew_up flag once every step is
    opened, or the error's type and text, of the run or of a read that
    opens a step; repr tells every float bit apart, -0.0 from 0.0
    included."""
    try:
        path = opened(run())
    except BsymError as exc:
        return type(exc).__name__, str(exc)
    return repr(path.ts), repr(path.ys), repr(path.ks), path.blew_up


def independent(f, y0, t_end, ctl, limit=math.inf):
    """`test_stepper.reference_integrate` driving a right-hand side of the
    stepper's contract, which reads component 0 of the state."""
    return reference_integrate(lambda t, y: f(t, y[0]), y0, t_end, ctl, limit)


def both(monkeypatch, module, run):
    """run's outcome with the generated right-hand side, which runs its
    form's loop, then with the reference closures in the independent loop,
    which must equal theirs in the call form's loop: every generated loop
    comes from one template, so a defect in it would pass unseen if the
    reference ran in it alone."""
    got = outcome(run)
    with monkeypatch.context() as m:
        m.setattr(module, "checked_factory", reference_factory)
        in_call_form = outcome(run)
        m.setattr(module, "integrate", independent)
        expected = outcome(run)
    assert in_call_form == expected
    return got, expected


# --- bit identity ---------------------------------------------------------------

_rng = random.Random(2024)
AB_PAIRS = [
    ("cos(t)", "sin(t)"),
    ("t^2/9 + cos(2*t)", "sinh(t/3)/2 - t^3/27"),
    ("-(0.24*cosh(t/3)/2)", "-(0.37*t^2/9 + 0.25*cos(t)) + 0.58*t/3"),
    ("exp(700*t)*exp(700*t)", "1"),  # a turns infinite past t = 0.507
    ("1", "1/(t - 0.5)^2"),
    *((random_source(_rng), random_source(_rng)) for _ in range(4)),
]


@pytest.mark.parametrize("a,b", AB_PAIRS)
@pytest.mark.parametrize("mult", [2.0, -2.0, 0.0, 2 / 3, -1 / 3])
@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_nested_path_is_bit_identical_to_the_closures(monkeypatch, a, b, mult, t_end):
    a, b = parse_expr(a), parse_expr(b)
    got, expected = both(
        monkeypatch, quad, lambda: nested_path(a, b, (mult,), t_end)
    )
    assert got == expected


@pytest.mark.parametrize("a,b", AB_PAIRS)
@pytest.mark.parametrize("mults", [(2.0, -2.0), (-1 / 3, 2 / 3), (0.0, 1.0)])
@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_two_multiplier_path_is_bit_identical_to_the_closures(monkeypatch, a, b, mults, t_end):
    a, b = parse_expr(a), parse_expr(b)
    got, expected = both(monkeypatch, quad, lambda: nested_path(a, b, mults, t_end))
    assert got == expected


# one exponent of each kind: n = 1; p = 0; p < 0 with even and odd q; even
# q; odd q with odd p and with even p
EXPONENTS = [
    "1", "0", "2", "3", "-1", "-2", "2/3", "4/3", "-2/3", "1/3", "5/3", "-1/3",
    "3/5", "1/2", "3/2", "-1/2",
]
# (a, b, d): smooth; y driven to 0 (past it for n = 0; for 0 < n < 1 the
# trial stages straddle it until the step budget runs out; a pole for
# n < 0; an even root's domain left); y < 0 throughout
ORACLE_PROBLEMS = [
    ("cos(t)", "sin(t)", 0.5),
    ("0.3", "-1", 0.5),
    ("sin(t)", "-cos(t)", -0.7),
]
# a small step budget keeps the straddling runs short
ORACLE_CTL = dataclasses.replace(ORACLE_CONTROL, max_steps=3000)


@pytest.mark.parametrize("n,a,b,d", [
    (n, a, b, d) for n in EXPONENTS for a, b, d in ORACLE_PROBLEMS
    if d > 0 or not n.endswith("/2")  # an even root needs d > 0
])
@pytest.mark.parametrize("t_end", [2.5, -2.5])
def test_oracle_is_bit_identical_to_the_closures(monkeypatch, n, a, b, d, t_end):
    p = problem(a, b, n, d)
    got, expected = both(monkeypatch, oracle, lambda: rk_solve(p, t_end, ORACLE_CTL))
    assert got == expected


@pytest.mark.parametrize("module,run,ending", [
    # y = e^(50 t): the 1e12 limit stops it, in the linear form and the power form
    (oracle, lambda: rk_solve(problem("50", "0", 1, 1.0), 1.0), "stopped"),
    (oracle, lambda: rk_solve(problem("50", "0", 2, 1.0), 1.0), "stopped"),
    # y' = y^2 toward its pole at t = 1: the step-underflow rescue marks a blow-up
    (oracle, lambda: rk_solve(problem("0", "1", 2, 1.0), 2.0), "rescued"),
    # y^2 of a trial stage overflows
    (oracle, lambda: rk_solve(problem("0", "1", 2, 1e13), 1.0), "StepFailure"),
    # exp(m * A) overflows past |t| = 0.7098, in a one- and a two-multiplier path
    (quad, lambda: nested_path(parse_expr("1000"), parse_expr("1"), (1.0,), 1.0), "EvalError"),
    (quad, lambda: nested_path(parse_expr("-1000"), parse_expr("1"), (-1.0, 1.0), -1.0), "EvalError"),
])
def test_how_a_run_ends_is_bit_identical_to_the_closures(monkeypatch, module, run, ending):
    got, expected = both(monkeypatch, module, run)
    assert got == expected
    if ending in ("stopped", "rescued"):
        # both blew up; only the limit's stop leaves |y| past 1e12
        assert expected[3] is True
        assert (abs(run().y_end[0]) > 1e12) is (ending == "stopped")
    else:
        assert expected[0] == ending
        assert "overflow: math range error" in expected[1]


def test_the_oracle_problems_reach_both_signs_of_y(monkeypatch):
    # y crosses 0 for n = 0; for n = 1/3 the right-hand side is evaluated
    # on both sides of 0; n = 1/2 leaves the even root's domain
    crossed = rk_solve(problem("0.3", "-1", "0", 0.5), 2.5)
    assert crossed.ys[0][0] > 0.0 > crossed.y_end[0]
    seen = []

    def recording(f, y0, *args, **kwargs):
        def rhs(t, x):
            seen.append(x)
            return f(t, x)

        return stepper.integrate(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(oracle, "integrate", recording)
    with pytest.raises(StepFailure, match="step budget exhausted"):
        rk_solve(problem("0.3", "-1", "1/3", 0.5), 2.5, ORACLE_CTL)
    assert min(seen) < 0.0 < max(seen)
    with pytest.raises(DomainError, match=r"^even root \(1/2\) of negative base -"):
        rk_solve(problem("0.3", "-1", "1/2", 0.5), 2.5)


def generated_oracle_rhs(monkeypatch, p):
    """The right-hand side rk_solve hands the stepper for p."""
    seen = []

    def capture(f, *args, **kwargs):
        seen.append(f)
        return stepper.integrate(f, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(oracle, "integrate", capture)
        rk_solve(p, 0.0)
    return seen[0]


@pytest.mark.parametrize("n", EXPONENTS)
def test_negative_sign_is_the_sign_of_minus_one_to_the_n(n):
    n = parse_exponent(n)
    try:
        expected = math.copysign(1.0, signed_pow(-1.0, n))
    except DomainError:
        expected = 0.0
    assert repr(n.cls.negative_sign) == repr(expected)


@pytest.mark.parametrize("n", EXPONENTS)
def test_oracle_rhs_matches_signed_pow_at_every_kind_of_y(monkeypatch, n):
    # the second problem's signs of a and b become the rhs's +-1.0 factors
    for a, b in (("cos(t)", "sin(t) - 2"), ("-cos(t)", "-(sin(t) - 2)")):
        p = problem(a, b, n, 0.5)
        rhs = generated_oracle_rhs(monkeypatch, p)
        fa, fb = reference_callable(p.a), reference_callable(p.b)
        if p.n.cls is ExponentClass.ONE:
            def reference(t, x):
                return ((fa(t) + fb(t)) * x,)
        else:
            def reference(t, x):
                return (fa(t) * x + fb(t) * signed_pow(x, p.n),)

        def result(f, y):
            try:
                return repr(f(0.3, y))
            except (DomainError, OverflowError) as exc:
                return type(exc).__name__, str(exc)

        for y in (0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, 1e200, -1e200, math.inf, -math.inf, math.nan):
            assert result(rhs, y) == result(reference, y), (a, y)


# --- the error contract ---------------------------------------------------------

def _errors(a, b):
    """The error each integration path raises for coefficients (a, b),
    first evaluated at t = 0."""
    pa, pb = parse_expr(a), parse_expr(b)
    runs = {
        "nested_path": lambda: nested_path(pa, pb, (1.0,), 1.0),
        "rk_solve": lambda: rk_solve(problem(a, b, 2, 1.0), 1.0),
        "rk_solve n=1": lambda: rk_solve(problem(a, b, 1, 1.0), 1.0),
    }
    out = {}
    for name, run in runs.items():
        with pytest.raises(EvalError) as info:
            run()
        out[name] = str(info.value)
    return out


@pytest.mark.parametrize(
    "a,b,text",
    [
        ("1/t", "1", "division by zero at t=0.0"),
        ("1", "1/t", "division by zero at t=0.0"),
        ("exp(800 + t)", "1", "evaluation failed at t=0.0: math range error"),
        ("1", "sinh(800 - t)", "evaluation failed at t=0.0: math range error"),
        ("exp(700 + t)*exp(700 + t)", "1", "non-finite value at t=0.0"),
        ("1", "exp(700 + t)*exp(700 + t)", "non-finite value at t=0.0"),
        # a is evaluated first: its non-finite value wins over b's error,
        # and its error over b's non-finite value
        ("exp(700 + t)*exp(700 + t)", "1/t", "non-finite value at t=0.0"),
        ("1/t", "exp(700 + t)*exp(700 + t)", "division by zero at t=0.0"),
    ],
)
def test_coefficient_errors_keep_their_texts(a, b, text):
    for name, got in _errors(a, b).items():
        assert got == text, name


@pytest.mark.parametrize(
    "src,t,text",
    [
        ("1/t", 0.0, "division by zero at t=0.0"),
        ("exp(t)", 1e4, "evaluation failed at t=10000.0: math range error"),
        ("exp(700*t)*exp(700*t)", 1.0, "non-finite value at t=1.0"),
        ("t*(1/(t - t))", 2.5, "division by zero at t=2.5"),
    ],
)
def test_as_callable_errors_keep_their_texts(src, t, text):
    e = parse_expr(src)
    with pytest.raises(EvalError) as info:
        as_callable(e)(t)
    assert str(info.value) == text
    with pytest.raises(EvalError) as reference:
        reference_callable(e)(t)
    assert str(reference.value) == text
    # no chained exception in the traceback
    assert info.value.__cause__ is None
    assert info.value.__context__ is None or info.value.__suppress_context__


def test_integrand_overflow_stays_an_integrand_error():
    # A = 1000 t: exp(A) overflows past t = 0.7098 while a and b stay finite
    with pytest.raises(EvalError) as info:
        nested_path(parse_expr("1000"), parse_expr("1"), (1.0,), 1.0)
    assert str(info.value) == "integrand overflow: math range error"


def test_power_overflow_stays_a_step_failure():
    # y^31 of y(0) = 1e11 overflows on the first evaluation
    with pytest.raises(StepFailure) as info:
        rk_solve(problem("0", "1", 31, 1e11), 1.0)
    assert str(info.value) == "right-hand side overflow: math range error"


@pytest.mark.parametrize(
    "n,y,text",
    [
        ("-1", 0.0, "zero base with negative exponent"),
        ("-1/2", 0.0, "zero base with negative exponent"),
        ("-2/3", -0.0, "zero base with negative exponent"),
        ("1/2", -1.5, "even root (1/2) of negative base -1.5"),
        ("-1/2", -1e-300, "even root (-1/2) of negative base -1e-300"),
    ],
)
def test_domain_errors_keep_their_texts(monkeypatch, n, y, text):
    rhs = generated_oracle_rhs(monkeypatch, problem("1", "1", n, 0.5))
    with pytest.raises(DomainError) as info:
        rhs(0.25, y)
    assert str(info.value) == text


_JUMP = f"(1{'0' * 300}*t)*(1{'0' * 300}*t)"  # 0 at t = 0, infinite past 1e-146
_INFINITE_RUNS = [
    # the first stage after t = 0 is at c2 * h = c2 / 64: DOP853's
    # 0.0526.. for the quadrature, DP5's 0.2 for the oracle
    (quad, lambda: nested_path(parse_expr(_JUMP), parse_expr("1"), (1.0,), 1.0)),
    (oracle, lambda: rk_solve(problem("1", _JUMP, 2, 1.0), 1.0)),
    # multiplier 0: exp(mult * A) cannot overflow before b turns infinite.
    # A b that grows to infinity, such as cosh(700*t)^2, overflows DOP853's
    # weighted sum of its finite stages first, an integrand overflow
    # (test_a_new_state_past_the_float_range_is_an_integrand_overflow)
    (quad, lambda: nested_path(parse_expr("1"), parse_expr(_JUMP), (0.0,), -1.0)),
    # y^n underflows to 0, so y stays put until b turns infinite
    (oracle, lambda: rk_solve(problem("0", "exp(700*t)*exp(700*t)", 2, 1e-300), 1.0)),
    (oracle, lambda: rk_solve(problem("0", "cosh(700*t)*cosh(700*t)", 3, 1e-300), -1.0)),
]


@pytest.mark.parametrize("module,run", _INFINITE_RUNS)
def test_an_infinite_coefficient_never_reaches_the_step_retry(monkeypatch, module, run):
    # the stepper retries a step with h *= 0.1 when a stage is not finite;
    # an infinite coefficient must raise EvalError before that.  The spy
    # runs the call form's loop, which calls the form's checked wrapper
    returned = []

    def recording(f, *args, **kwargs):
        def rhs(*state):
            k = f(*state)
            returned.append(all(map(math.isfinite, k)))
            return k

        return stepper.integrate(rhs, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", recording)
    with pytest.raises(EvalError, match=r"^non-finite value at t=-?0\.\d+$") as info:
        run()
    assert returned and all(returned)
    if len(returned) == 1:  # the first stage after t = 0, toward +-1
        c2 = (DOP853 if module is quad else DP5).c[1]
        assert str(info.value) in (f"non-finite value at t={c2 / 64!r}", f"non-finite value at t={-c2 / 64!r}")


@pytest.mark.parametrize("mults", [(0.0,), (0.0, 1.0)])
def test_a_new_state_past_the_float_range_is_an_integrand_overflow(monkeypatch, mults):
    # b = cosh(700*t)^2 stays finite to |t| = 0.5075, but DOP853's new
    # state h * (b1*k1 + b6*k6 + ..), weights up to 5.8, leaves the float
    # range before any stage does, or, with a second multiplier, its error
    # sums do first (an error norm of NaN at every smaller step, which ran
    # into a step size underflow); the loop raises as an overflowing stage
    # would, in the form's loop and in the call form's alike
    a, b = parse_expr("1"), parse_expr("cosh(700*t)*cosh(700*t)")
    calls = counting_coefficients(monkeypatch)
    with pytest.raises(EvalError) as info:
        nested_path(a, b, mults, -1.0)
    assert str(info.value) == "integrand overflow: math range error"
    assert all(math.isfinite(value) for _, _, value in calls)
    with monkeypatch.context() as m:
        m.setattr(quad, "integrate", lambda f, *args: stepper.integrate(lambda t, y: f(t, y), *args))
        with pytest.raises(EvalError) as info:
            nested_path(a, b, mults, -1.0)
    assert str(info.value) == "integrand overflow: math range error"


def counting_coefficients(monkeypatch) -> list:
    """Record (tree source, arguments, value) of every call of a coefficient
    function that `checked_factory` binds from now on."""
    calls = []
    compiled = expr._coefficient

    def counting(e):
        fn, source = compiled(e), e.source

        def coefficient(*args):
            value = fn(*args)
            calls.append((source, args, value))
            return value

        return coefficient

    monkeypatch.setattr(expr, "_coefficient", counting)
    return calls


@pytest.mark.parametrize("module,run", _INFINITE_RUNS)
def test_an_infinite_coefficient_stops_a_form_loop_at_once(monkeypatch, module, run):
    # the form's loop counterpart: the infinite value is the last one any
    # coefficient returns, so no stage and no retry follows it, and the
    # error names the time of the stage that evaluated it
    calls = counting_coefficients(monkeypatch)
    with pytest.raises(EvalError, match=r"^non-finite value at t=-?0\.\d+$") as info:
        run()
    *before, (_, (t,), last) = calls
    assert before and all(math.isfinite(value) for _, _, value in before)
    assert not math.isfinite(last)
    assert str(info.value) == f"non-finite value at t={t!r}"


_STAGE_FAILURES = [
    # b divides by zero at t = 0.003125, the first stage after t = 0, 0.2 * h
    # = 0.2 / 64, in the loops that evaluate b at stage 2; the quadrature's
    # form loop meets it at stage 6 of the retried first step, h = 0.2 / 64
    (quad, lambda: nested_path(parse_expr("cos(t)"), parse_expr("1/(t - 0.003125)"), (1.0,), 1.0)),
    (quad, lambda: nested_path(
        parse_expr("cos(t)"), parse_expr("1/(t - 0.003125)"), (1.0, -1.0), 1.0)),
    (oracle, lambda: rk_solve(problem("cos(t)", "1/(t - 0.003125)", 2, 1.0), 1.0)),
    (oracle, lambda: rk_solve(problem("cos(t)", "1/(t - 0.003125)", 1, 1.0), 1.0)),
]


@pytest.mark.parametrize("module,run", _STAGE_FAILURES)
def test_a_coefficient_failure_names_its_stage_time(monkeypatch, module, run):
    # not the time the step started from, t = 0.0
    got, expected = both(monkeypatch, module, run)
    assert got == expected == ("EvalError", "division by zero at t=0.003125")


# b = 1, but for a division by zero at t = 0.003125 = 0.2 / 64: DP5's
# stage-2 time of the first attempted step, and no other stage's time
_STAGE_TWO_B = "(t - 0.003125)/(t - 0.003125)"
# the same at each of DOP853's head stages 2 to 5, at c_j / 64
_HEAD_TIMES = [c / 64 for c in DOP853.c[1:5]]
_HEAD_B = " * ".join(f"(t - {t!r})/(t - {t!r})" for t in _HEAD_TIMES)


def test_a_coefficient_that_fails_only_at_stage_two_stops_every_loop_but_the_quadratures(monkeypatch):
    # the quadrature's form loop evaluates a alone at DOP853's head stages
    # 2 to 5, so b's failing times are never evaluated and the path is
    # that of b = 1, bit for bit; the call form evaluates b at every stage
    # and raises at stage 2, and so do the oracle's DP5 forms
    a, b = parse_expr("cos(t)"), parse_expr(_HEAD_B)
    got = outcome(lambda: nested_path(a, b, (1.0,), 1.0))
    assert got == outcome(lambda: nested_path(a, parse_expr("1"), (1.0,), 1.0))
    with monkeypatch.context() as m:
        m.setattr(quad, "integrate", lambda f, *args: stepper.integrate(lambda t, y: f(t, y), *args))
        assert outcome(lambda: nested_path(a, b, (1.0,), 1.0)) == (
            "EvalError", f"division by zero at t={_HEAD_TIMES[0]!r}"
        )
    failure = ("EvalError", "division by zero at t=0.003125")
    for n in (1, 2):
        run = lambda: rk_solve(problem("cos(t)", _STAGE_TWO_B, n, 1.0), 1.0)  # noqa: E731
        assert both(monkeypatch, oracle, run) == (failure, failure)


def test_traceback_shows_the_form_loop_source():
    with pytest.raises(EvalError) as info:
        _STAGE_FAILURES[0][1]()
    frame = traceback.extract_tb(info.tb)[-1]
    assert re.fullmatch(r"<bsym\.stepper DOP853 kernel dim=2 form #\d+>", frame.filename)
    assert frame.line == "raise _failed(s, exc) from None"
    assert linecache.getline(frame.filename, frame.lineno).strip() == frame.line


# --- the compile cache ----------------------------------------------------------

def counting_compiles(monkeypatch) -> list:
    """Record (kind, source) of every compile in `expr`: kind is
    "coefficient" for a tree's function and "checked" for a form's
    wrapper."""
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append((filename.split()[1], source))
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", counting_compile, raising=False)
    return compiled


def sources(compiled, kind) -> list:
    return [source for k, source in compiled if k == kind]


def test_the_compile_cache_is_bounded_and_shared(monkeypatch):
    compiled = counting_compiles(monkeypatch)
    expr._shape_factory.cache_clear()
    expr._wrapper.cache_clear()
    # size + 8 trees of one shape compile once, each bound to the constants
    # of its record, the one store of a tree's values: no function is kept
    # per tree, the store keeps the last size records, and a tree whose
    # record it evicted is walked again and binds with no compile
    assert not hasattr(expr._coefficient, "cache_info")
    size = expr._RECORDS
    trees = [parse_expr(f"{k + 1}*t - {k + 1}/8") for k in range(size + 8)]
    for k, e in enumerate(trees):
        assert as_callable(e)(0.5) == (k + 1) * 0.5 - (k + 1) / 8
    assert sources(compiled, "coefficient") == ["lambda k0, k1, k2: lambda t: ((k0*t)-(k1/k2))"]
    assert list(expr._records) == trees[8:]
    walked = counting_walks(monkeypatch)
    assert as_callable(trees[-1])(0.5) == (size + 8) * 0.5 - (size + 8) / 8
    assert walked == []
    assert as_callable(trees[0])(0.5) == 0.5 - 1 / 8
    assert walked == ["1 * t - 1 / 8"]
    assert len(sources(compiled, "coefficient")) == 1

    # size + 8 shapes compile size + 8 times, the templates' bound; a
    # fresh tree of a shape still cached compiles nothing, and one of an
    # evicted shape compiles again
    shapes = expr._shape_factory.cache_info().maxsize
    assert shapes == expr._TEMPLATES
    del compiled[:]
    for k in range(shapes + 8):
        assert as_callable(parse_expr(f"{k + 2}*t^{k}"))(0.5) == (k + 2) * 0.5**k
    assert len(sources(compiled, "coefficient")) == shapes + 8
    assert expr._shape_factory.cache_info().currsize == shapes
    assert as_callable(parse_expr(f"3*t^{shapes + 7}"))(1.0) == 3.0
    assert len(sources(compiled, "coefficient")) == shapes + 8
    assert as_callable(parse_expr("3*t^0"))(0.5) == 3.0
    assert sources(compiled, "coefficient")[shapes + 8:] == ["lambda k0: lambda t: (k0*(t**0))"]

    # one compile per shape: every multiplier, both oracle forms and
    # as_callable share it, whatever constants their trees carry; the
    # partners that flip a's and b's signs integrate their own trees, one
    # shape each for -a and -b
    del compiled[:]
    for k, mults in enumerate(((2.0,), (-2.0,), (0.0,), (2.0, -2.0))):
        nested_path(parse_expr(f"{k + 1}*cos(t)"), parse_expr(f"sin({k + 1}*t)"), mults, 1.0)
    # n = 1 has the linear form and every other exponent the power form
    for k, n in enumerate(("2", "4/3", "3", "1/2", "1")):
        rk_solve(problem(f"0.{k + 1}*cos(t)", f"sin(0.{k + 1}*t)", n, 0.5), 0.5)
        rk_solve(problem(f"-(0.{k + 1}*cos(t))", f"-sin(0.{k + 1}*t)", n, 0.5), 0.5)
    assert as_callable(parse_expr("7*cos(t)"))(0.0) == 7.0
    assert as_callable(parse_expr("sin(7*t)"))(0.0) == 0.0
    assert sources(compiled, "coefficient") == [
        "lambda k0: lambda t: (k0*cos(t))", "lambda k0: lambda t: sin((k0*t))",
        "lambda k0: lambda t: (-(k0*cos(t)))", "lambda k0: lambda t: (-sin((k0*t)))",
    ]
    # the loops run the forms' code inline and compile no wrapper; calling
    # a form's `Bound` compiles its wrapper once per process and form,
    # whatever the trees: one each for the (A, B) and (A, B, B) forms and
    # the oracle's two, and none for as_callable's, compiled above
    assert sources(compiled, "checked") == []
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    bounds = [expr.checked_factory(quad._ab_form(k), a, b)(*[1.0] * k) for k in (1, 2, 1)]
    for n in ("2", "1", "3"):
        bounds.append(generated_oracle_rhs(monkeypatch, problem("cos(t)", "sin(t)", n, 0.5)))
    for bound in bounds:
        bound(0.5, 0.25)
    wrappers = sources(compiled, "checked")
    assert len(wrappers) == 4 and len(set(wrappers)) == 4
    assert all("f0 = c0(s)" in w and "f1 = c1(s)" in w for w in wrappers)
    assert expr._wrapper.cache_info().currsize == 5


def test_each_shape_of_the_identities_texts_compiles_once(monkeypatch):
    # the identities benchmark's 8 400 texts at seed 1 hold 278 shapes,
    # within the templates' bound, which bounds the compiled shapes too:
    # parsed and bound from empty caches, each shape compiles once
    monkeypatch.setattr(expr, "_templates", {})
    monkeypatch.setattr(expr, "_records", {})
    expr._shape_factory.cache_clear()
    compiled = counting_compiles(monkeypatch)
    texts = [text for item in bench_inputs().identity_inputs(1, 4200) for text in (item.a, item.b)]
    for text in texts:
        expr._coefficient(parse_expr(text))
    shapes = sources(compiled, "coefficient")
    assert len(texts) == 8400 and len(set(shapes)) == 278
    assert len(shapes) == 278


_UNTRACED_RUNS = [
    lambda: nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0,), 1.0),
    lambda: nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0, -2.0), -1.0),
    lambda: rk_solve(problem("cos(t)", "sin(t)", 1, 0.5), 1.0),
    lambda: rk_solve(problem("cos(t)", "sin(t)", 2, 0.5), -1.0),
]


def test_untraced_runs_take_their_forms_loops_and_compile_no_wrapper(monkeypatch):
    # each right-hand side is a `Bound`, which `integrate` runs through its
    # form's own loop: no run calls it, so none compiles its wrapper
    loops = []
    kernel = stepper._kernel

    def recording(dim, form, tableau):
        loop = kernel(dim, form, tableau)
        loops.append((form, loop.__code__.co_filename))
        return loop

    monkeypatch.setattr(stepper, "_kernel", recording)
    expr._wrapper.cache_clear()
    for run in _UNTRACED_RUNS:
        run()
    assert expr._wrapper.cache_info().currsize == 0
    assert len(loops) == 4 and all(form is not stepper._CALL for form, _ in loops)
    call_loops = {kernel(dim, stepper._CALL, t).__code__.co_filename for dim in (1, 2, 3) for t in (DP5, DOP853)}
    # the quadrature's two paths run DOP853's loops, the oracle's DP5's
    for (_, filename), name in zip(loops, ("DOP853", "DOP853", "DP5", "DP5")):
        assert re.fullmatch(rf"<bsym\.stepper {name} kernel dim=[123] form #\d+>", filename)
        assert filename not in call_loops


# every checked form of the package, with the state dimension of its
# loop; `as_callable`'s form reads no state and runs in no loop
_FORMS = {
    "value": (expr._VALUE, None, None),
    "call": (stepper._CALL, 1, DP5),
    "ab1": (quad._ab_form(1), 2, QUAD_CONTROL.tableau),
    "ab2": (quad._ab_form(2), 3, QUAD_CONTROL.tableau),
    "linear": (oracle._LINEAR, 1, ORACLE_CONTROL.tableau),
    "power": (oracle._POWER, 1, ORACLE_CONTROL.tableau),
}


@pytest.mark.parametrize("name", _FORMS)
def test_a_form_states_one_value_and_its_loop_takes_only_its_bound_names(name):
    # a form's value is one expression, which its wrapper returns and its
    # loop assigns as it is; a loop takes the `Bound` its paths keep after
    # `limit`, then the form's coefficient functions and env, and so does
    # a deferring tableau's completion function, rendered in the loop's
    # source, after the run of steps, so only the call form, whose env
    # binds the plain callable as f, has an f parameter
    form, dim, tableau = _FORMS[name]
    compile(form.value, f"<{name} value>", "eval")
    if dim is None:
        return
    loop = stepper._kernel(dim, form, tableau)
    code = loop.__code__
    coefficients = tuple(f"c{i}" for i in range(form.coefficients))
    env = tuple(filter(None, form.env.split(", ")))
    assert code.co_varnames[:code.co_argcount] == ("y0", "t_end", "ctl", "limit", "bound", *coefficients, *env)
    assert ("f" in env) is (form is stepper._CALL)
    if tableau.deferred:
        code = loop.__globals__[f"{loop.__name__}_complete"].__code__
        assert code.co_filename == loop.__code__.co_filename
        assert code.co_varnames[:code.co_argcount] == ("path", "lo", "hi", *coefficients, *env)


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_a_bound_called_through_a_wrapper_gives_the_same_path(monkeypatch, t_end):
    # a tracer hands `integrate` a function that calls the `Bound`: the call
    # form's loop then calls its checked wrapper, compiled on the first call
    # and kept, and the path is bit for bit that of the form's loop
    a, b = parse_expr("cos(t) + t^2"), parse_expr("sin(t) - 2")
    runs = [
        (expr.checked_factory(quad._ab_form(1), a, b)(2.0), (0.0, 0.0), quad.QUAD_CONTROL),
        (expr.checked_factory(quad._ab_form(2), a, b)(2.0, -1 / 3), (0.0,) * 3, quad.QUAD_CONTROL),
        (generated_oracle_rhs(monkeypatch, problem("cos(t)", "sin(t)", 2, -0.5)), (-0.5,), ORACLE_CONTROL),
    ]
    for bound, y0, ctl in runs:
        assert type(bound) is expr.Bound
        expr._wrapper.cache_clear()
        compiled = counting_compiles(monkeypatch)
        direct = stepper.integrate(bound, y0, t_end, ctl)
        assert compiled == []
        wrapped = stepper.integrate(lambda t, y: bound(t, y), y0, t_end, ctl)
        assert outcome(lambda: wrapped) == outcome(lambda: direct)
        checked = bound._checked
        assert bound(0.5, y0[0]) == checked(0.5, y0[0]) and bound._checked is checked
        assert len(sources(compiled, "checked")) == 1
        assert not any(hasattr(checked, name) for name in ("form", "coefficients", "env"))
        monkeypatch.undo()


def test_an_identity_compiles_one_shape_for_a_tree_and_one_for_its_negation(monkeypatch):
    # the identities integrate a and b as written, so a tree and its
    # negation compile one shape each; b's sign drops out of every
    # residual, with a mirror certified and with b's parity sampled
    # (SPIKED_B, nonzero residuals) alike
    compiled = counting_compiles(monkeypatch)
    expr._shape_factory.cache_clear()
    n, ts = parse_exponent("3"), [-1.5, 0.5, 2.0]

    def residuals(a, b):
        return quad.identity_residuals("Eq4", parse_expr(a), parse_expr(b), n, ts)

    def new_shapes(a, b):
        """The shapes that a's and b's residuals compile, and the residuals."""
        before = len(sources(compiled, "coefficient"))
        got = residuals(a, b)
        return sources(compiled, "coefficient")[before:], got

    certified, sampled = residuals("0.5*cos(t)", "sin(t)"), residuals("0.5*cos(t)", SPIKED_B)
    assert new_shapes("-(0.5*cos(t))", "-(sin(t))") == (
        ["lambda k0: lambda t: (-(k0*cos(t)))", "lambda : lambda t: (-sin(t))"], certified
    )
    assert certified == [0.0] * len(ts)
    shapes, got = new_shapes("-(0.5*cos(t))", SPIKED_B)
    assert shapes == [] and max(got) > 1e-3
    # sampling -b's parity compiles its own shape too, outside the identity
    shapes, got = new_shapes("0.5*cos(t)", f"-({SPIKED_B})")
    assert len(shapes) == 1 and shapes[0].endswith(f"(-{expr._tree(parse_expr(SPIKED_B))[0]})")
    assert got == sampled and max(sampled) > 1e-3


def test_profiles_see_each_coefficient_function():
    # pstats keys functions by (file, line, name): every shape compiles
    # under a file name of its own, so four coefficients of four shapes give
    # four entries, while the two pairs share their form's one wrapper
    pairs = [(parse_expr("cos(t)"), parse_expr("t")), (parse_expr("sin(t)"), parse_expr("2"))]
    fns = [expr.checked_factory(quad._ab_form(1), a, b)(1.0) for a, b in pairs]
    profile = cProfile.Profile()
    profile.enable()
    for fn in fns:
        for k in range(5):
            fn(0.1 * k, 0.0)
    profile.disable()
    stats = pstats.Stats(profile).stats
    coefficients = {
        key: stat[1] for key, stat in stats.items()
        if key[0].startswith("<bsym.expr coefficient #")
    }
    assert len(coefficients) == 4 and len({file for file, _, _ in coefficients}) == 4
    assert sorted(coefficients.values()) == [5] * 4
    wrappers = [stat[1] for key, stat in stats.items() if key[2] == "checked"]
    assert wrappers == [10]


def test_profiles_show_the_trees_of_one_shape_as_one_entry():
    # the trees of one shape share its function's code, bound to their
    # own constants, so a profile counts their calls under one entry
    fns = [as_callable(parse_expr(f"{k + 1}*cos(t)")) for k in range(3)]
    profile = cProfile.Profile()
    profile.enable()
    values = [fn(0.1 * k) for fn in fns for k in range(5)]
    profile.disable()
    assert values == [(j + 1) * math.cos(0.1 * k) for j in range(3) for k in range(5)]
    stats = pstats.Stats(profile).stats
    coefficients = [
        stat[1] for key, stat in stats.items()
        if key[0].startswith("<bsym.expr coefficient #")
    ]
    assert coefficients == [15]


def test_profiles_see_each_coefficient_function_in_a_form_loop():
    # the form's loop calls each coefficient function inline: four
    # coefficients of four shapes keep four entries, and no wrapper is called
    pairs = [(parse_expr("cos(t)"), parse_expr("t")), (parse_expr("sin(t)"), parse_expr("exp(t)"))]
    for a, b in pairs:  # compile the loop and the coefficients first
        nested_path(a, b, (1.0,), 1.0)
    profile = cProfile.Profile()
    profile.enable()
    paths = [nested_path(a, b, (1.0,), 1.0) for a, b in pairs]
    profile.disable()
    stats = pstats.Stats(profile).stats
    coefficients = sorted(
        (stat[1], key[0]) for key, stat in stats.items()
        if key[0].startswith("<bsym.expr coefficient #") and key[2] == "<lambda>"
    )
    assert len({file for _, file in coefficients}) == 4
    # each path binds its two trees once, and each binding shows apart
    # from the function it returns, in the same file and on the same line
    binds = [stat[1] for key, stat in stats.items() if key[2] == "bind"]
    assert binds == [1] * 4 and {key[0] for key in stats if key[2] == "bind"} == {f for _, f in coefficients}
    # no step is rejected on these two paths: DOP853 evaluates a at
    # stages 2 to 12 and b, with no b at the head stages 2 to 5, at stages
    # 6 to 12; stage 13 reuses stage 12's values: 1 + 11 calls of a and
    # 1 + 7 of b per step.  Read at every step, the loop's completion
    # function, in the loop's file, evaluates both at the three dense
    # stages of each step
    steps = [len(path.ts) - 1 for path in paths]
    assert [calls for calls, _ in coefficients] == sorted(1 + j * k for k in steps for j in (11, 7))
    loops = [key for key in stats if key[2] == "dop853_dim2"]
    assert len(loops) == 1 and re.fullmatch(r"<bsym\.stepper DOP853 kernel dim=2 form #\d+>", loops[0][0])
    assert not [key for key in stats if key[2] == "checked"]
    profile = cProfile.Profile()
    profile.enable()
    for path in paths:
        path.values([0.5 * (t0 + t1) for t0, t1 in zip(path.ts, path.ts[1:])])
    profile.disable()
    stats = pstats.Stats(profile).stats
    read = sorted(stat[1] for key, stat in stats.items() if key[0] in {file for _, file in coefficients})
    assert read == sorted(3 * k for k in steps for _ in "ab")
    completions = [key for key in stats if key[2] == "dop853_dim2_complete"]
    assert len(completions) == 1 and completions[0][0] == loops[0][0]
    assert stats[completions[0]][1] == sum(steps)  # one call per step a read opens


def test_the_oracle_compiles_once_per_pair_up_to_sign(monkeypatch):
    # the partners of T2i, T2iv and T3i flip the signs of a and b; with the
    # signs bound to the oracle's wrapper, the validity search's (A, B)
    # paths and the oracle's four problems bind each tree from its record:
    # the first pair's trees, of new shapes, are walked once each as they
    # are parsed, and a second pair of the same shapes compiles nothing and
    # walks nothing
    compiled = counting_compiles(monkeypatch)
    expr._shape_factory.cache_clear()
    monkeypatch.setattr(expr, "_templates", {})
    monkeypatch.setattr(expr, "_records", {})
    walked = counting_walks(monkeypatch)
    for a, b in (("0.5*cos(t)", "sin(t)/3"), ("2*cos(t)", "sin(t)/5")):
        reports = verify_cases(problem(a, b, 2, 1.0), ["T2i", "T2iv", "T3i"])
        assert [r.passed for r in reports] == [True] * 3
    assert walked == ["0.5 * cos(t)", "sin(t) / 3"]
    assert sources(compiled, "coefficient") == [
        "lambda k0: lambda t: (k0*cos(t))", "lambda k0: lambda t: (sin(t)/k0)",
    ]


def rebound(node, new):
    """The tree of node's shape with each constant c replaced by new(c)."""
    if isinstance(node, Const):
        return Const(new(node.value))
    return node._replace(**{
        name: rebound(value, new) for name, value in node._asdict().items()
        if isinstance(value, (Const, Var, Neg, BinOp, Pow, Call))
    })


def shape_of(e):
    """A key equal for exactly the trees of one shape: every constant 1.0."""
    return rebound(e, lambda c: 1.0)


_SUM = "+".join(f"0.0{k:02d}" for k in range(MAX_DEPTH - 1))
_GROUPS = "+".join(f"({'+'.join(f'0.0{j}{k:02d}' for k in range(50))})*t^{j}" for j in range(6))
# pairs of trees of one shape that differ in their constants only; the
# first of each has constants that compile-time folding treats apart:
# folded to -0.0 or to an infinity, or not folded since the operation
# raises, and a Pow of a constant base (the second keeps its value finite)
SHAPE_PAIRS = [
    ("t*-0", "t*-0.5"),
    ("-0^3 + cos(t)", "-0.5^3 + cos(t)"),
    ("cos(t) + 1/0", "cos(t) + 1/4"),
    ("10^400*t", "0.5^400*t"),
    ("exp(710)*t", "exp(0.5)*t"),
    ("1.1^400*cos(t) + 1", "0.9^400*cos(t) + 1"),
    ("9" * 308 + "*10*sin(t)", "0.25*10*sin(t)"),
    # the depth tests' sizes: a sum at the depth bound, 99 constants, and
    # a tree of 300 constants in six groups
    (f"{_SUM}*t", f"{_SUM.replace('0.0', '0.1')}*t"),
    (_GROUPS, _GROUPS.replace("0.0", "0.00")),
]
_shape_rng = random.Random(34)
# random trees and their rebound twins: helpers.random_source has few
# shapes, so trees of one shape also meet across pairs
SHAPE_TREES = [
    e for src in (random_source(_shape_rng) for _ in range(12))
    for e in (parse_expr(src), rebound(parse_expr(src), lambda c: 1.5 * c + 0.125))
] + [parse_expr(src) for pair in SHAPE_PAIRS for src in pair]


def value_outcome(fn, t):
    """repr of fn(t), or the EvalError's text."""
    try:
        return repr(fn(t))
    except EvalError as exc:
        return "EvalError", str(exc)


def test_each_tree_of_a_shape_binds_its_own_constants(monkeypatch):
    # the trees test the binding: each pair shares a shape, and so do
    # trees of different pairs
    for a, b in SHAPE_PAIRS:
        assert shape_of(parse_expr(a)) == shape_of(parse_expr(b)) and a != b
    assert len({shape_of(e) for e in SHAPE_TREES}) < len(set(SHAPE_TREES)) - len(SHAPE_PAIRS)
    # built in turn, then evaluated interleaved, tree after tree at each t
    compiled = counting_compiles(monkeypatch)
    expr._shape_factory.cache_clear()
    fns = [as_callable(e) for e in SHAPE_TREES]
    assert len(sources(compiled, "coefficient")) == len({shape_of(e) for e in SHAPE_TREES})
    refs = [reference_callable(e) for e in SHAPE_TREES]
    for t in (0.0, -0.0, 0.5, -1.5, 3.0, 5e-324):
        for e, fn, ref in zip(SHAPE_TREES, fns, refs):
            assert value_outcome(fn, t) == value_outcome(ref, t), (e.source, t)


_SHAPE_RUNS = {
    "path dim 2": (quad, lambda a, b: nested_path(a, b, (2.0,), 2.0)),
    "path dim 3": (quad, lambda a, b: nested_path(a, b, (-1 / 3, 2 / 3), -2.0)),
    "oracle linear": (oracle, lambda a, b: rk_solve(problem(a.source, b.source, 1, 0.5), 2.0)),
    "oracle power": (oracle, lambda a, b: rk_solve(problem(a.source, b.source, 2, 0.5), -2.0)),
}


@pytest.mark.parametrize("name", _SHAPE_RUNS)
def test_each_tree_of_a_shape_binds_its_own_constants_in_every_form(monkeypatch, name):
    # a and b of one shape in one loop, each in turn as a beside cos(t),
    # with the runs of the pair interleaved, all through the shape cache
    module, run = _SHAPE_RUNS[name]
    cos = parse_expr("cos(t)")
    for first, second in zip(SHAPE_TREES[::2], SHAPE_TREES[1::2]):
        for a, b in ((first, second), (second, first), (first, cos), (second, cos)):
            got, expected = both(monkeypatch, module, lambda: run(a, b))
            assert got == expected, (a.source, b.source)


_ORDER_RUNS = {
    "quad": lambda: nested_path(parse_expr("cos(t) + t^2"), parse_expr("sin(t) - 2"), (2.0,), 3.0),
    "oracle": lambda: rk_solve(problem("cos(t) + t^2", "sin(t) - 2", 2, 0.5), 3.0),
}


@pytest.mark.parametrize("order", [("quad", "oracle"), ("oracle", "quad")])
def test_shared_coefficient_functions_do_not_depend_on_build_order(monkeypatch, order):
    fresh = {}
    for name, run in _ORDER_RUNS.items():
        expr._shape_factory.cache_clear()
        fresh[name] = outcome(run)
    expr._shape_factory.cache_clear()
    compiled = counting_compiles(monkeypatch)
    got = {name: outcome(_ORDER_RUNS[name]) for name in order}
    assert got == fresh
    assert len(sources(compiled, "coefficient")) == 2  # one compile per shape


@pytest.mark.parametrize("first,then", [(quad, oracle), (oracle, quad)])
def test_a_wins_over_b_when_the_other_form_compiled_b_first(monkeypatch, first, then):
    # at t = 0, a divides by zero and b is infinite: b's function compiled
    # by one form, on its own, must not let b's error win in the other
    a, b = "1/t", "exp(700 + t)*exp(700 + t)"
    runs = {
        quad: lambda a, b: nested_path(parse_expr(a), parse_expr(b), (1.0,), 1.0),
        oracle: lambda a, b: rk_solve(problem(a, b, 2, 1.0), 1.0),
    }
    expr._shape_factory.cache_clear()
    compiled = counting_compiles(monkeypatch)
    with pytest.raises(EvalError, match=r"^non-finite value at t=0\.0$"):
        runs[first]("1", b)
    with pytest.raises(EvalError, match=r"^division by zero at t=0\.0$"):
        runs[then](a, b)
    assert len(sources(compiled, "coefficient")) == 3  # one per shape


# --- what the stepper hands the right-hand side ---------------------------------

_ONE_FLOAT_RUNS = [
    (quad, lambda: nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0,), 3.0)),
    (quad, lambda: nested_path(parse_expr("t"), parse_expr("-1"), (-0.5,), -3.0)),
    (oracle, lambda: rk_solve(problem("cos(t)", "sin(t)", 2, 0.5), 3.0)),
    (oracle, lambda: rk_solve(problem("-cos(t)", "-1", 1, 0.5), -3.0)),
]


@pytest.mark.parametrize("module,run", _ONE_FLOAT_RUNS)
def test_each_rhs_call_receives_one_float(monkeypatch, module, run):
    # B never feeds back, so a quadrature stage carries A alone; the oracle's
    # state is y alone; neither receives a state tuple.  The spy runs the
    # call form's loop
    calls = []

    def recording(f, *args, **kwargs):
        def rhs(*received):
            calls.append(received)
            return f(*received)

        return stepper.integrate(rhs, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", recording)
    result = run()
    path = getattr(result, "path", result)
    assert len(calls) > 6 * (len(path.ts) - 1)
    assert all(len(c) == 2 and type(c[0]) is float and type(c[1]) is float for c in calls)


@pytest.mark.parametrize("module,run", _ONE_FLOAT_RUNS)
def test_each_coefficient_call_in_a_form_loop_receives_one_float(monkeypatch, module, run):
    # the form's loop counterpart: a, then b, each called with the stage
    # time alone, as one float, at t = 0 and at the stages of every
    # attempted step: DP5's 2 to 6 for the oracle; DOP853's 2 to 12 for the
    # quadrature, whose head stages 2 to 5 call a alone, since only A' = a
    # feeds a later stage state; then, at the read that opens them, DOP853's
    # dense stages 14 to 16 of each step
    calls = counting_coefficients(monkeypatch)
    path = run()
    a, b = calls[0][0], calls[1][0]
    stages = [a, b] * 5 if module is oracle else [a] * 4 + [a, b] * 7
    attempts, left = divmod(len(calls) - 2, len(stages))
    assert left == 0 and attempts >= len(path.ts) - 1
    opened(path)
    assert all(len(args) == 1 and type(args[0]) is float for _, args, _ in calls)
    sources = [source for source, _, _ in calls]
    dense = [] if module is oracle else [a, b] * 3 * (len(path.ts) - 1)
    assert a != b and sources == [a, b] + stages * attempts + dense


_COUNTED_RUNS = [
    (quad, lambda: nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0,), 3.0)),
    (quad, lambda: nested_path(parse_expr("t"), parse_expr("sin(t) - 2"), (2.0, -2.0), -3.0)),
    (oracle, lambda: rk_solve(problem("cos(t)", "sin(t)", 1, 2.0), -3.0)),
    # toward the pole at t = 1: many rejected steps, then the rescue
    (oracle, lambda: rk_solve(problem("0", "1", 2, 1.0), 2.0)),
]


def test_a_form_loop_evaluates_each_coefficient_five_times_per_attempt(monkeypatch):
    # the oracle's DP5: stage 7 is at the time of stage 6 (c7 = c6 = 1), so
    # a form's loop reuses stage 6's coefficient values: 1 + 5 evaluations
    # of each coefficient per attempted step, where the call form's loop
    # calls f, and so each coefficient, 1 + 6 times.  The quadrature's
    # DOP853: stages 2 to 12 per attempt, and on acceptance stage 13, at
    # stage 12's time (c13 = c12 = 1).  Stages 2 to 5 have zero weight in
    # the new state, both error estimates and the dense output, and only A
    # feeds a stage state: the loop evaluates a there and not b.  So a is
    # evaluated 1 + 11 times per attempt and b 1 + 7, and the call form
    # calls f 1 + 11 times and once more per accepted step.  The dense
    # stages 14 to 16 evaluate each coefficient, and call f, 3 times per
    # step that a read opens, here every other step, and never in the loop
    rejected = 0
    for module, run in _COUNTED_RUNS:
        seen = []
        for spy in (False, True):
            calls, f_calls = counting_coefficients(monkeypatch), []

            def spying(f, *args, **kwargs):
                def rhs(t, y):
                    f_calls.append(t)
                    return f(t, y)

                return stepper.integrate(rhs, *args, **kwargs)

            if spy:
                monkeypatch.setattr(module, "integrate", spying)
            path = run()
            a, b = calls[0][0], calls[1][0]
            in_loop = Counter(source for source, _, _ in calls), len(f_calls)
            del calls[:], f_calls[:]
            steps = len(path.ts) - 1
            path.values([0.5 * (path.ts[i] + path.ts[i + 1]) for i in range(0, steps, 2)])
            at_reads = Counter(source for source, _, _ in calls), len(f_calls)
            seen.append((in_loop, at_reads, outcome(lambda: path)))
            monkeypatch.undo()
        ((form_loop, _), (form_reads, _), in_form), ((call_loop, f_loop), (call_reads, f_reads), in_call) = seen
        assert in_form == in_call
        assert a != b and set(form_loop) == {a, b}
        opened_steps = len(range(0, steps, 2))
        if module is quad:
            attempts, left = divmod(f_loop - 1 - steps, 11)
            assert form_loop == {a: 1 + 11 * attempts, b: 1 + 7 * attempts}
            assert form_reads == {a: 3 * opened_steps, b: 3 * opened_steps} and f_reads == 3 * opened_steps
            calls_each = 1 + 11 * attempts + steps
        else:
            attempts, left = divmod(f_loop - 1, 6)
            assert form_loop == {a: 1 + 5 * attempts, b: 1 + 5 * attempts}
            assert form_reads == {} and f_reads == 0
            calls_each = 1 + 6 * attempts
        assert left == 0 and attempts >= steps
        rejected += attempts - steps
        assert call_loop == {a: calls_each, b: calls_each}
        assert call_reads == ({a: f_reads, b: f_reads} if f_reads else {})
    assert rejected > 0


def test_each_form_loop_compiles_once_and_shares_the_path_class(monkeypatch):
    # one loop per form and process, whatever the trees and multipliers;
    # a process that integrates only checked forms compiles no call-form loop
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(stepper, "compile", counting_compile, raising=False)
    stepper._kernel.cache_clear()
    paths = [
        nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0,), 1.0),
        nested_path(parse_expr("t"), parse_expr("1"), (-1.0,), -1.0),
        nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0, -2.0), 1.0),
    ]
    for n in ("2", "1", "3", "1/2", "1"):
        paths.append(rk_solve(problem("cos(t)", "sin(t)", n, 0.5), 0.5))
    loops = [name for name in compiled if " kernel " in name]
    assert [re.sub(r"#\d+", "#K", name) for name in loops] == [
        f"<bsym.stepper {name} kernel dim={dim} form #K>"
        for name, dim in (("DOP853", 2), ("DOP853", 3), ("DP5", 1), ("DP5", 1))
    ]
    assert len(set(loops)) == 4
    assert all(type(path) is stepper._path_class(len(path.ys[0]), path.ctl.tableau) for path in paths)
