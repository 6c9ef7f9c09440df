import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsym import (
    DomainError,
    ExponentClass,
    ZeroDenominator,
    classify_exponent,
    parse_exponent,
    parse_expr,
    signed_pow,
)
from bsym.exponent import reflection_signs, reflections


@pytest.mark.parametrize(
    "p,q,rp,rq,cls",
    [
        (2, 1, 2, 1, ExponentClass.EVEN_OVER_ODD),
        (4, 6, 2, 3, ExponentClass.EVEN_OVER_ODD),
        (1, 2, 1, 2, ExponentClass.ODD_OVER_EVEN),
        (1, 1, 1, 1, ExponentClass.ONE),
        (3, 1, 3, 1, ExponentClass.ODD_OVER_ODD),
        (0, 5, 0, 1, ExponentClass.EVEN_OVER_ODD),
        (-1, 1, -1, 1, ExponentClass.ODD_OVER_ODD),
        (2, -4, -1, 2, ExponentClass.ODD_OVER_EVEN),
        (-6, -4, 3, 2, ExponentClass.ODD_OVER_EVEN),
    ],
)
def test_classify_examples(p, q, rp, rq, cls):
    r = classify_exponent(p, q)
    assert (r.p, r.q, r.cls) == (rp, rq, cls)


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        classify_exponent(1, 0)


@given(st.integers(-200, 200), st.integers(-200, 200).filter(lambda q: q != 0))
def test_reduction_idempotent_and_canonical(p, q):
    r = classify_exponent(p, q)
    assert r.q >= 1
    assert math.gcd(abs(r.p), r.q) == 1
    again = classify_exponent(r.p, r.q)
    assert (again.p, again.q, again.cls) == (r.p, r.q, r.cls)
    # reduction preserves the value
    assert r.p * q == p * r.q


def test_parse_exponent_forms():
    assert str(parse_exponent("2")) == "2"
    assert str(parse_exponent("4/6")) == "2/3"
    assert str(parse_exponent(" -1 / 2 ")) == "-1/2"
    assert str(parse_exponent(3)) == "3"
    with pytest.raises(ValueError):
        parse_exponent("two")
    with pytest.raises(ValueError):
        parse_exponent("1.5")
    for other in (None, [2], {"p": 2}):
        with pytest.raises(TypeError):
            parse_exponent(other)


@pytest.mark.parametrize("flag", [True, False])
def test_parse_exponent_rejects_a_boolean(flag):
    # bool is an int subclass; True would otherwise read as n = 1
    with pytest.raises(TypeError, match="not bool"):
        parse_exponent(flag)


# --- signed_pow ----------------------------------------------------------------

def test_signed_pow_examples():
    assert signed_pow(-8.0, classify_exponent(1, 3)) == -2.0
    assert signed_pow(4.0, classify_exponent(1, 2)) == 2.0
    with pytest.raises(DomainError):
        signed_pow(-4.0, classify_exponent(1, 2))
    with pytest.raises(DomainError):
        signed_pow(0.0, classify_exponent(-1, 3))


def test_signed_pow_exact_special_bases():
    for p, q in [(2, 3), (-3, 1), (5, 3), (1, 2), (0, 1)]:
        r = classify_exponent(p, q)
        assert signed_pow(1.0, r) == 1.0
        if r.q % 2 == 1:
            expected = -1.0 if r.p % 2 else 1.0
            assert signed_pow(-1.0, r) == expected
        if r.p > 0:
            assert signed_pow(0.0, r) == 0.0
    assert signed_pow(0.0, classify_exponent(0, 1)) == 1.0


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(-9, 9).filter(lambda p: p != 0),
    st.integers(1, 9),
    st.booleans(),
)
def test_signed_pow_inverse_product(x, p, q, negate):
    r = classify_exponent(p, q)
    if negate:
        if r.q % 2 == 0:
            return  # negative base illegal for even roots
        x = -x
    v = signed_pow(x, r) * signed_pow(x, classify_exponent(-r.p, r.q))
    assert v == pytest.approx(1.0, rel=1e-12)


@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.integers(-9, 9).filter(lambda p: p != 0),
    st.integers(1, 4),
)
def test_signed_pow_odd_root_sign_law(x, p, qhalf):
    q = 2 * qhalf - 1  # odd
    r = classify_exponent(p, q)
    if r.q % 2 == 0:
        return  # reduction cannot make q even here, but stay safe
    left = signed_pow(-x, r)
    right = (-1.0) ** r.p * signed_pow(x, r)
    assert math.copysign(1.0, left) == math.copysign(1.0, right)
    assert left == pytest.approx(right, rel=1e-12)


@pytest.mark.parametrize(
    "p, q",
    [(2, 1), (1, 1), (0, 1), (-1, 1), (1, 3), (5, 3), pytest.param(3, 10**400, id="3-tiny")],
)
def test_minus_one_is_n_minus_one_rounded_once(p, q):
    from bsym.exponent import minus_one

    assert minus_one(classify_exponent(p, q)) == (p - q) / q


@pytest.mark.parametrize(
    "p, q",
    [
        pytest.param(10**400 + 1, 10**400, id="n-1-rounds-to-0"),
        pytest.param(10**310 + 1, 10**310, id="n-1-subnormal"),  # 1/(n - 1) overflows
        pytest.param(10**400, 1, id="n-overflows"),
        pytest.param(-(10**400), 3, id="n-overflows-negative"),
    ],
)
def test_minus_one_rejects_an_exponent_out_of_float_range(p, q):
    from bsym import problem
    from bsym.exponent import minus_one

    n = classify_exponent(p, q)
    with pytest.raises(DomainError, match=r"out of float range") as info:
        minus_one(n)
    assert f"n={n}" in str(info.value)
    with pytest.raises(DomainError, match=r"out of float range"):
        problem("cos(t)", "sin(t)", str(n), 1.0)


_EVEN_ODD, _ODD_ODD, _ODD_EVEN = (
    ExponentClass.EVEN_OVER_ODD, ExponentClass.ODD_OVER_ODD, ExponentClass.ODD_OVER_EVEN
)


@pytest.mark.parametrize(
    "a, b, cls, rs",
    [
        # structural parities and a real power of a negative base: all
        # three reflections beside the identity, which is no view
        ("-sin(t)", "--t^2", _ODD_ODD, [(1, -1), (-1, 1), (-1, -1)]),
        ("-sin(t)", "--t^2", _EVEN_ODD, [(1, -1), (-1, 1), (-1, -1)]),
        # no real power of a negative base, or no class: s = 1 alone
        ("-sin(t)", "--t^2", _ODD_EVEN, [(-1, 1)]),
        ("-sin(t)", "--t^2", None, [(-1, 1)]),
        # a parity only the sampler decides certifies no t-mirror
        ("-sin(t)", "exp(t) - exp(-t)", _ODD_ODD, [(1, -1)]),
        ("exp(t)", "--t^2", None, []),
    ],
)
def test_reflections_fold_the_top_signs_into_reflection_signs(a, b, cls, rs):
    # the top minuses fold into the parities alone: each view's signs are
    # reflection_signs on a and b as written, -sin(t) odd and --t^2 even,
    # and name the problem (ka*a, kb*b, kd*d)
    views = reflections(parse_expr(a), parse_expr(b), cls)
    assert [(r, s) for r, s, *_ in views] == rs
    for r, s, ka, kb, kd in views:
        eps = (1, 1) if r == 1 else (-1, 1)  # -sin(t) odd, --t^2 even
        assert (ka, kb, kd) == reflection_signs(cls, r, s, *eps)
