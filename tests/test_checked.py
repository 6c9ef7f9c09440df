"""The generated, checked right-hand sides of the quadrature and the oracle.

`quad.nested_path` and `oracle.rk_solve` integrate
functions rendered by `expr.checked_factory`.  They must reproduce, bit for
bit and error for error, the closures they replaced: each coefficient
wrapped by the old `as_callable` (kept below as `reference_callable`), and
y^n from `signed_pow`.
"""

import cProfile
import dataclasses
import math
import pstats
import random

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
from bsym.expr import FUNCTIONS, _codegen, as_callable, negated
from bsym.oracle import ORACLE_CONTROL
from bsym.quad import nested_path

from helpers import random_source

_MATH = {name: getattr(math, name) for name in FUNCTIONS}


def reference_callable(e):
    """as_callable before the generated template: the compiled expression
    inside a wrapper that types its errors and checks its value."""
    fn = eval(f"lambda t: {_codegen(e.ast)}", dict(_MATH))
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
    signature of the form they stand in for.  The oracle's closures
    evaluate its coefficients with the signs bound to the factory put back
    as unary minuses at the top of their trees."""
    if form is quad._ab_form(1):
        fa, fb = (reference_callable(c) for c in coefs)
        exp = math.exp
        return lambda mult: lambda s, A: (fa(s), fb(s) * exp(mult * A))

    def factory(sa, sb, n, neg, e, pow, signed_pow_):
        fa, fb = (
            reference_callable(c if sign > 0.0 else negated(c))
            for sign, c in zip((sa, sb), coefs)
        )
        if n.cls is ExponentClass.ONE:
            return lambda t, x: ((fa(t) + fb(t)) * x,)
        return lambda t, x: (fa(t) * x + fb(t) * signed_pow(x, n),)

    return factory


def outcome(run):
    """repr of the path's ts, ys, ks and flags, or the error's type and
    text; repr tells every float bit apart, -0.0 from 0.0 included."""
    try:
        result = run()
    except BsymError as exc:
        return type(exc).__name__, str(exc)
    path = getattr(result, "path", result)
    flags = (path.stopped, getattr(result, "blew_up", None))
    return repr(path.ts), repr(path.ys), repr(path.ks), flags


def both(monkeypatch, module, run):
    """run's outcome with the generated right-hand side, then with the
    reference closures."""
    got = outcome(run)
    with monkeypatch.context() as m:
        m.setattr(module, "checked_factory", reference_factory)
        expected = outcome(run)
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


def test_the_oracle_problems_reach_both_signs_of_y(monkeypatch):
    # y crosses 0 for n = 0; for n = 1/3 the right-hand side is evaluated
    # on both sides of 0; n = 1/2 leaves the even root's domain
    crossed = rk_solve(problem("0.3", "-1", "0", 0.5), 2.5)
    assert crossed.path.ys[0][0] > 0.0 > crossed.path.y_end[0]
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


@pytest.mark.parametrize("module,run", [
    # the first stage after t = 0 is at 0.2 * h = 0.2 / 64
    (quad, lambda: nested_path(parse_expr(_JUMP), parse_expr("1"), (1.0,), 1.0)),
    (oracle, lambda: rk_solve(problem("1", _JUMP, 2, 1.0), 1.0)),
    # multiplier 0: exp(mult * A) cannot overflow before b turns infinite
    (quad, lambda: nested_path(
        parse_expr("1"), parse_expr("cosh(700*t)*cosh(700*t)"), (0.0,), -1.0)),
    # y^n underflows to 0, so y stays put until b turns infinite
    (oracle, lambda: rk_solve(problem("0", "exp(700*t)*exp(700*t)", 2, 1e-300), 1.0)),
    (oracle, lambda: rk_solve(problem("0", "cosh(700*t)*cosh(700*t)", 3, 1e-300), -1.0)),
])
def test_an_infinite_coefficient_never_reaches_the_step_retry(monkeypatch, module, run):
    # the stepper retries a step with h *= 0.1 when a stage is not finite;
    # an infinite coefficient must raise EvalError before that
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
    if len(returned) == 1:
        assert str(info.value) == "non-finite value at t=0.003125"


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
    expr._coefficient.cache_clear()
    expr._wrapper.cache_clear()
    size = expr._coefficient.cache_info().maxsize
    exprs = [parse_expr(f"{k + 1}*t") for k in range(size + 8)]
    for e in exprs:
        as_callable(e)
    assert len(sources(compiled, "coefficient")) == size + 8
    assert expr._coefficient.cache_info().currsize == size
    as_callable(exprs[-1])  # still cached
    assert len(sources(compiled, "coefficient")) == size + 8
    as_callable(exprs[0])  # evicted: compiled again
    assert len(sources(compiled, "coefficient")) == size + 9

    # one compile per tree: every multiplier, both oracle forms, the
    # partners that flip a's and b's signs and as_callable share it
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    del compiled[:]
    for mults in ((2.0,), (-2.0,), (0.0,), (2.0, -2.0)):
        nested_path(a, b, mults, 1.0)
    # n = 1 has the linear form and every other exponent the power form
    for n in ("2", "4/3", "3", "1/2", "1"):
        rk_solve(problem("cos(t)", "sin(t)", n, 0.5), 0.5)
        rk_solve(problem("-cos(t)", "-sin(t)", n, 0.5), 0.5)
    as_callable(a)(0.5)
    as_callable(b)(0.5)
    assert sources(compiled, "coefficient") == ["lambda t: cos(t)", "lambda t: sin(t)"]
    # a form's wrapper compiles once per process and coefficient count,
    # whatever the trees: one each for the (A, B) and (A, B, B) forms and
    # the oracle's two, and none for as_callable's, compiled above
    wrappers = sources(compiled, "checked")
    assert len(wrappers) == 4 and len(set(wrappers)) == 4
    assert all("f0 = c0(t)" in w and "f1 = c1(t)" in w for w in wrappers)
    assert expr._wrapper.cache_info().currsize == 5


def test_profiles_see_each_coefficient_function():
    # pstats keys functions by (file, line, name): every tree compiles under
    # a file name of its own, so four coefficients give four entries, while
    # the two pairs share their form's one wrapper
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


def test_the_oracle_compiles_once_per_pair_up_to_sign(monkeypatch):
    # the partners of T2i, T2iv and T3i flip the signs of cos(t) and sin(t);
    # with the signs bound to the oracle's wrapper, the validity search's
    # (A, B) paths and the oracle's four problems share one compile per tree
    compiled = counting_compiles(monkeypatch)
    expr._coefficient.cache_clear()
    reports = verify_cases(problem("cos(t)", "sin(t)", 2, 1.0), ["T2i", "T2iv", "T3i"])
    assert [r.passed for r in reports] == [True] * 3
    assert expr._coefficient.cache_info().misses == 2
    assert sources(compiled, "coefficient") == ["lambda t: cos(t)", "lambda t: sin(t)"]


_ORDER_RUNS = {
    "quad": lambda: nested_path(parse_expr("cos(t) + t^2"), parse_expr("sin(t) - 2"), (2.0,), 3.0),
    "oracle": lambda: rk_solve(problem("cos(t) + t^2", "sin(t) - 2", 2, 0.5), 3.0),
}


@pytest.mark.parametrize("order", [("quad", "oracle"), ("oracle", "quad")])
def test_shared_coefficient_functions_do_not_depend_on_build_order(order):
    fresh = {}
    for name, run in _ORDER_RUNS.items():
        expr._coefficient.cache_clear()
        fresh[name] = outcome(run)
    expr._coefficient.cache_clear()
    got = {name: outcome(_ORDER_RUNS[name]) for name in order}
    assert got == fresh
    assert expr._coefficient.cache_info().misses == 2  # one compile per tree


@pytest.mark.parametrize("first,then", [(quad, oracle), (oracle, quad)])
def test_a_wins_over_b_when_the_other_form_compiled_b_first(first, then):
    # at t = 0, a divides by zero and b is infinite: b's function compiled
    # by one form, on its own, must not let b's error win in the other
    a, b = "1/t", "exp(700 + t)*exp(700 + t)"
    runs = {
        quad: lambda a, b: nested_path(parse_expr(a), parse_expr(b), (1.0,), 1.0),
        oracle: lambda a, b: rk_solve(problem(a, b, 2, 1.0), 1.0),
    }
    expr._coefficient.cache_clear()
    with pytest.raises(EvalError, match=r"^non-finite value at t=0\.0$"):
        runs[first]("1", b)
    with pytest.raises(EvalError, match=r"^division by zero at t=0\.0$"):
        runs[then](a, b)
    assert expr._coefficient.cache_info().misses == 3


# --- what the stepper hands the right-hand side ---------------------------------

@pytest.mark.parametrize("module,run", [
    (quad, lambda: nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0,), 3.0)),
    (quad, lambda: nested_path(parse_expr("t"), parse_expr("-1"), (-0.5,), -3.0)),
    (oracle, lambda: rk_solve(problem("cos(t)", "sin(t)", 2, 0.5), 3.0)),
    (oracle, lambda: rk_solve(problem("-cos(t)", "-1", 1, 0.5), -3.0)),
])
def test_each_rhs_call_receives_one_float(monkeypatch, module, run):
    # B never feeds back, so a quadrature stage carries A alone; the oracle's
    # state is y alone; neither receives a state tuple
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
