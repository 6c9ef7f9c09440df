import math
import random

import pytest

from bsym import (
    EvalError,
    NoConvergence,
    ParityViolation,
    QuadConfig,
    check_identity,
    classify_exponent,
    identity_residuals,
    integral_A,
    integral_B,
    parse_expr,
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


def test_integral_B_unit_integrand():
    v = integral_B(parse_expr("0"), parse_expr("1"), N2, 0.75)
    assert v == pytest.approx(0.75, abs=1e-10)


def test_integral_B_exponential():
    v = integral_B(parse_expr("1"), parse_expr("1"), N2, 1.0)
    assert v == pytest.approx(math.e - 1.0, abs=1e-9)


def test_integral_B_against_simpson_fixture():
    v = integral_B(parse_expr("cos(t)"), parse_expr("sin(t)"), N3, 1.2)
    assert v == pytest.approx(B_COS_SIN_N3_T12, abs=1e-8)


def test_no_convergence_near_pole():
    cfg = QuadConfig(max_depth=12)
    with pytest.raises((NoConvergence, EvalError)):
        integral_A(parse_expr("1/(t - 1)"), 2.0, cfg)


# --- identities ---------------------------------------------------------------

def test_identity_eq4_example():
    r = check_identity("Eq4", parse_expr("cos(t)"), parse_expr("sin(t)"), N3, 1.2)
    assert r <= 1e-9


def test_identity_eq4_sides_match_simpson():
    lhs = simpson(lambda s: math.sin(s) * math.exp(-2.0 * math.sin(s)), -1.2, 0.0)
    rhs = -simpson(lambda s: math.sin(s) * math.exp(2.0 * math.sin(s)), 0.0, 1.2)
    assert abs(lhs - rhs) <= 1e-9


def test_identity_eq7_example():
    r = check_identity("Eq7", parse_expr("t"), parse_expr("cos(t)"), N2, 2.0)
    assert r <= 1e-9


def test_identity_parity_violation():
    with pytest.raises(ParityViolation):
        check_identity("Eq4", parse_expr("t"), parse_expr("cos(t)"), N2, 1.0)


def test_identity_residuals_batches_match_single():
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    ts = [0.5, -1.0, 2.0]
    batch = identity_residuals(Identity.EQ4, a, b, N3, ts)
    singles = [check_identity(Identity.EQ4, a, b, N3, t) for t in ts]
    for got, want in zip(batch, singles):
        assert got == pytest.approx(want, abs=1e-12)


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
        n2 = classify_exponent(2, 1)
        assert bv == pytest.approx(integral_B(a, b, n2, t), abs=1e-9)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_depth=0)
