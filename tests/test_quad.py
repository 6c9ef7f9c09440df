import math
import random

import pytest

from bsym import (
    EvalError,
    NoConvergence,
    ParityViolation,
    QuadConfig,
    classify_exponent,
    identity_residuals,
    integral_A,
    parse_expr,
    problem,
    validity_interval,
)
from bsym.expr import BinOp, Const, Expr
from bsym.quad import Identity, ab_values

from helpers import (
    LEMMA_EXPONENTS,
    random_even_source,
    random_odd_source,
    random_source,
    simpson,
)

N2 = classify_exponent(2, 1)
N3 = classify_exponent(3, 1)

# int_0^1.2 sin(s)*exp(2*sin(s)) ds, fixed-step Simpson oracle at h=1e-5
# (tests/helpers.py simpson; mpmath agrees to 2.6682115728975834678)
B_COS_SIN_N3_T12 = 2.668211572897583


def test_integral_A_constant():
    assert integral_A(parse_expr("1"), 2.5) == pytest.approx(2.5, abs=1e-10)


def test_integral_A_cosine():
    assert integral_A(parse_expr("cos(t)"), math.pi / 2) == pytest.approx(1.0, abs=1e-9)


def test_integral_A_negative_t():
    assert integral_A(parse_expr("t^2"), -3.0) == pytest.approx(-9.0, abs=1e-9)


def _integral_B(a: str, b: str, mult: float, t: float) -> float:
    """B(t) = int_0^t b(s) * exp(mult * A(s)) ds, from `ab_values` alone."""
    return ab_values(parse_expr(a), parse_expr(b), mult, [t])[0][1]


def test_integral_B_unit_integrand():
    assert _integral_B("0", "1", 1.0, 0.75) == pytest.approx(0.75, abs=1e-10)


def test_integral_B_exponential():
    assert _integral_B("1", "1", 1.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-9)


def test_integral_B_against_simpson_fixture():
    v = _integral_B("cos(t)", "sin(t)", 2.0, 1.2)
    assert v == pytest.approx(B_COS_SIN_N3_T12, abs=1e-8)
    # the mirrored side through a grid on both sides of 0, and by Simpson
    left, right = ab_values(parse_expr("cos(t)"), parse_expr("sin(t)"), 2.0, [-1.2, 1.2])
    assert right[1] == v
    assert left[1] == pytest.approx(
        -simpson(lambda s: math.sin(s) * math.exp(2.0 * math.sin(s)), -1.2, 0.0), abs=1e-8
    )


def test_no_convergence_near_pole():
    cfg = QuadConfig(max_depth=12)
    with pytest.raises((NoConvergence, EvalError)):
        integral_A(parse_expr("1/(t - 1)"), 2.0, cfg)


# --- identities ---------------------------------------------------------------

def test_identity_eq4_example():
    (r,) = identity_residuals("Eq4", parse_expr("cos(t)"), parse_expr("sin(t)"), N3, [1.2])
    assert r <= 1e-9


def test_identity_eq4_sides_match_simpson():
    lhs = simpson(lambda s: math.sin(s) * math.exp(-2.0 * math.sin(s)), -1.2, 0.0)
    rhs = -simpson(lambda s: math.sin(s) * math.exp(2.0 * math.sin(s)), 0.0, 1.2)
    assert abs(lhs - rhs) <= 1e-9


def test_identity_eq7_example():
    (r,) = identity_residuals("Eq7", parse_expr("t"), parse_expr("cos(t)"), N2, [2.0])
    assert r <= 1e-9


def test_identity_parity_violation():
    with pytest.raises(ParityViolation):
        identity_residuals("Eq4", parse_expr("t"), parse_expr("cos(t)"), N2, [1.0])


def test_identity_residuals_batches_match_single():
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    ts = [0.5, -1.0, 2.0]
    batch = identity_residuals(Identity.EQ4, a, b, N3, ts)
    singles = [identity_residuals(Identity.EQ4, a, b, N3, [t])[0] for t in ts]
    for got, want in zip(batch, singles):
        assert got == pytest.approx(want, abs=1e-12)


def test_identity_residuals_do_not_depend_on_an_earlier_search():
    # a validity search of the same (a, b, n) keeps its paths on its problem
    # only: the identities integrate their own paths either way
    a, b = parse_expr("cos(t)"), parse_expr("1")
    fresh = identity_residuals("Eq8", a, b, N3, [1.0, 2.0])
    validity_interval(problem("cos(t)", "1", "3", 1.0), 4.0)
    assert identity_residuals("Eq8", a, b, N3, [1.0, 2.0]) == fresh


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_identity_residuals_reject_non_finite_times(bad):
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    with pytest.raises(ValueError):
        identity_residuals(Identity.EQ4, a, b, N3, [0.5, bad])


@pytest.mark.parametrize(
    "ident,gen_a,gen_b",
    [
        (Identity.EQ4, random_even_source, random_odd_source),
        (Identity.EQ7, random_odd_source, random_even_source),
        (Identity.EQ8, random_even_source, random_even_source),
        (Identity.EQ9, random_even_source, random_even_source),
    ],
)
def test_identity_property_randomized(ident, gen_a, gen_b):
    rng = random.Random(hash(ident.value) & 0xFFFF)
    ts = [-3.0, -1.5, -0.5, 0.5, 1.5, 3.0]
    for _ in range(25):
        a = parse_expr(gen_a(rng))
        b = parse_expr(gen_b(rng))
        n = classify_exponent(*rng.choice(LEMMA_EXPONENTS))
        for r in identity_residuals(ident, a, b, n, ts):
            assert r <= 1e-8


# --- stepper-level properties ---------------------------------------------------

def test_linearity_in_the_integrand():
    rng = random.Random(5)
    for _ in range(15):
        a = parse_expr(random_source(rng))
        t = rng.uniform(-3.0, 3.0)
        base = integral_A(a, t)
        for alpha in (-2.0, 0.5, 3.0):
            scaled = Expr(BinOp("*", Const(alpha), a.ast))
            v = integral_A(scaled, t)
            assert v == pytest.approx(alpha * base, rel=1e-10, abs=1e-10)


def test_orientation_matches_reversed_limits():
    # int_0^{-t} = -int_{-t}^0, checked against the independent Simpson rule
    rng = random.Random(17)
    for _ in range(50):
        src = random_source(rng)
        a = parse_expr(src)
        t = rng.uniform(0.1, 3.5)
        direct = integral_A(a, -t)
        over_reversed = simpson(lambda s, a=a: a(s), -t, 0.0, h=1e-4)
        assert direct == pytest.approx(-over_reversed, rel=1e-6, abs=1e-7)


def test_ab_values_consistent_with_pointwise():
    a, b = parse_expr("sin(t)"), parse_expr("cos(t)")
    ts = [-2.0, -0.3, 0.0, 0.7, 2.4]
    pairs = ab_values(a, b, 1.0, ts)
    for t, (av, bv) in zip(ts, pairs):
        assert av == pytest.approx(integral_A(a, t), abs=1e-9)
        assert bv == pytest.approx(ab_values(a, b, 1.0, [t])[0][1], abs=1e-9)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_depth=0)
