import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsym import EvalError, ExprSyntaxError, Parity, parse_expr
from bsym.expr import (
    BinOp,
    Call,
    Const,
    Expr,
    Neg,
    Pow,
    MAX_DEPTH,
    Var,
    as_callable,
    detect_parity,
    format_expr,
    sampled_parity,
    structural_parity,
)

from helpers import random_even_source, random_odd_source, random_source


# --- parsing ----------------------------------------------------------------

def test_parse_single_function():
    e = parse_expr("cos(t)")
    assert e.ast == Call("cos", Var())


def test_parse_precedence_shape():
    e = parse_expr("2*t^3 - t")
    assert e.ast == BinOp("-", BinOp("*", Const(2.0), Pow(Var(), 3)), Var())


def test_parse_unary_minus_binds_looser_than_pow():
    assert parse_expr("-t^2").ast == Neg(Pow(Var(), 2))


def test_parse_binary_operators_are_left_associative():
    one, two = Const(1.0), Const(2.0)
    assert parse_expr("t/2/2").ast == BinOp("/", BinOp("/", Var(), two), two)
    assert parse_expr("t-1-1").ast == BinOp("-", BinOp("-", Var(), one), one)
    assert parse_expr("t/2/2")(4.0) == 1.0
    assert parse_expr("t-1-1")(4.0) == 2.0


def test_parse_fraction_literal_is_division():
    assert parse_expr("1/2").ast == BinOp("/", Const(1.0), Const(2.0))


def test_parse_whitespace_insignificant():
    assert parse_expr(" 2 * t ^ 3 - t ").ast == parse_expr("2*t^3-t").ast


@pytest.mark.parametrize(
    "src",
    ["t ^ sin(t)", "t^2.5", "t^(2)", "t^-2"],
)
def test_parse_rejects_non_integer_exponent(src):
    with pytest.raises(ExprSyntaxError):
        parse_expr(src)


def test_parse_error_offsets():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("cos(t")
    assert info.value.offset == 5
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("2 + @")
    assert info.value.offset == 4


@pytest.mark.parametrize("src", ["", "   ", "sin()", "2 +", "(t", "t)", "foo(t)", "2 2"])
def test_parse_rejects_malformed(src):
    with pytest.raises(ExprSyntaxError):
        parse_expr(src)


@pytest.mark.parametrize(
    "src,offset", [("1" * 401, 0), ("t + " + "9" * 400 + ".5", 4)], ids=["alone", "in-a-sum"]
)
def test_parse_rejects_non_finite_literal(src, offset):
    # float() of a 401-digit literal is inf, which codegen cannot spell
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(src)
    assert info.value.offset == offset
    assert "too large" in str(info.value)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int() digit limit"
)
def test_parse_rejects_an_exponent_past_the_int_digit_limit():
    # int() of 5 000 digits raises a bare ValueError past the default limit
    digits = max(5000, sys.get_int_max_str_digits() + 1)
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("t^" + "9" * digits)
    assert info.value.offset == 2


def test_parse_accepts_the_largest_finite_literal():
    src = "9" * 308
    assert parse_expr(src).ast == Const(float(src))


@pytest.mark.parametrize(
    "src,offset",
    [  # each failed past the parser before the bound: RecursionError in the
        # parser, then two SyntaxErrors from compiling the generated lambda
        ("(" * 300 + "t" + ")" * 300, 100),
        ("-" * 300 + "t", 0),
        ("+".join(["t"] * 250), 199),
        ("(" * 3000 + "t" + ")" * 3000, 100),
        ("sin(" * 101 + "t" + ")" * 101, 400),
        ("-" * 5000 + "t", 0),
    ],
    ids=["parens-300", "minus-300", "sum-250", "parens-3000", "calls-101", "minus-5000"],
)
def test_parse_bounds_the_depth(src, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(src)
    assert info.value.offset == offset
    assert "deeper than 100" in str(info.value)


@pytest.mark.parametrize(
    "src",
    [
        "+".join(["t"] * MAX_DEPTH),
        "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
        "-" * (MAX_DEPTH - 1) + "1",
        "sin(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "-(" * (MAX_DEPTH // 2 - 1) + "t^2" + ")" * (MAX_DEPTH // 2 - 1),
    ],
    ids=["sum", "parens", "minus", "calls", "minus-parens-pow"],
)
def test_expressions_at_the_depth_bound_compile(src):
    # the deepest accepted trees stay within CPython's nesting limits
    assert math.isfinite(as_callable(parse_expr(src))(0.5))


@pytest.mark.parametrize(
    "src",
    [
        "+".join(["t"] * (MAX_DEPTH + 1)),
        "-" * MAX_DEPTH + "1",
        "(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1),
    ],
    ids=["sum", "minus", "parens"],
)
def test_parse_rejects_one_level_past_the_bound(src):
    with pytest.raises(ExprSyntaxError):
        parse_expr(src)


# --- evaluation ---------------------------------------------------------------

def test_eval_examples():
    assert parse_expr("cos(t)")(0.0) == 1.0
    assert parse_expr("2*t^3 - t")(2.0) == 14.0


def test_eval_division_by_zero():
    with pytest.raises(EvalError):
        parse_expr("1/t")(0.0)


def test_eval_overflow_reported():
    with pytest.raises(EvalError):
        parse_expr("exp(t)")(1e4)


def test_eval_all_functions():
    e = parse_expr("sin(t) + cos(t) + exp(t) + sinh(t) + cosh(t)")
    t = 0.37
    expected = (
        math.sin(t) + math.cos(t) + math.exp(t) + math.sinh(t) + math.cosh(t)
    )
    assert e(t) == pytest.approx(expected, rel=1e-15)


# --- printing round trip -------------------------------------------------------

_consts = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).map(
    lambda v: Const(round(v, 3))
)
_leaves = st.one_of(_consts, st.just(Var()))


def _nodes(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(*t)
        ),
        st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), children).map(
            lambda t: Call(*t)
        ),
    )


_asts = st.recursive(_leaves, _nodes, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_asts)
def test_format_parse_round_trip(ast):
    reparsed = parse_expr(format_expr(ast))
    rng = random.Random(7)
    for _ in range(100):
        t = rng.uniform(-3.0, 3.0)
        try:
            v1 = Expr(ast)(t)
        except EvalError:
            continue  # generated exprs may be singular at sampled points
        v2 = reparsed(t)
        assert abs(v2 - v1) <= 1e-14 * (1.0 + abs(v1))


def test_format_matches_structural_negation_style():
    e = parse_expr("sin(t)")
    from bsym.expr import negated

    assert negated(e).source == "-(sin(t))"
    assert negated(parse_expr("t^2")).source == "-(t^2)"


@pytest.mark.parametrize("src", ["sin(t)", "-(sin(t))", "-t^2", "t - 1", "-1"])
def test_negated_twice_is_the_original(src):
    from bsym.expr import negated

    e = parse_expr(src)
    assert negated(negated(e)) == e
    assert hash(negated(negated(e))) == hash(e)
    assert negated(negated(e)).source == e.source


@pytest.mark.parametrize(
    "src,sign,rest",
    [
        ("t", 1.0, "t"),
        ("t - 1", 1.0, "t - 1"),
        ("-t", -1.0, "t"),
        ("--t", 1.0, "t"),
        ("-(-(-(cos(t) + t)))", -1.0, "cos(t) + t"),
        ("-t^2", -1.0, "t^2"),
    ],
)
def test_split_sign_takes_out_every_leading_minus(src, sign, rest):
    from bsym.expr import split_sign

    e = parse_expr(src)
    got_sign, e0 = split_sign(e)
    assert (got_sign, e0) == (sign, parse_expr(rest))
    assert type(got_sign) is float
    if sign > 0.0 and src == rest:
        assert e0 is e  # nothing taken out: the same tree
    # the sign times the rest evaluates to the tree, bit for bit
    for t in (-1.5, 0.0, 0.7):
        assert repr(sign * e0(t)) == repr(e(t))


@pytest.mark.parametrize("seed", range(5))
def test_equal_trees_hash_equal(seed):
    src = random_source(random.Random(seed))
    e, again = parse_expr(src), parse_expr(src)
    assert e is not again and e == again and hash(e) == hash(again)
    assert Expr(e.ast) == e and hash(Expr(e.ast)) == hash(e)
    # equality stays structural: a different tree is a different key
    other = parse_expr(f"({src}) + 1")
    assert other != e and {e: 1, other: 2}[again] == 1
    assert repr(e) == f"Expr(ast={e.ast!r})"


def test_a_pickled_expr_hashes_its_tree_again():
    # string hashes differ between processes: the stored hash must not
    # travel with the pickle, so a stale one is not restored
    e = parse_expr("sin(t) - 2*t")
    fresh = hash(e)
    object.__setattr__(e, "_hash", fresh + 1)
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and hash(copy) == fresh


# --- parity -------------------------------------------------------------------

@pytest.mark.parametrize(
    "src,expected",
    [
        ("cos(t)", Parity.EVEN),
        ("t^3", Parity.ODD),
        ("t + 1", Parity.NEITHER),
        ("sin(t)*sin(t)", Parity.EVEN),
        ("sinh(t)", Parity.ODD),
        ("cosh(t)", Parity.EVEN),
        ("exp(cos(t))", Parity.EVEN),
        ("exp(t)", Parity.NEITHER),
        ("sin(t)/t", Parity.EVEN),
        ("1/2", Parity.EVEN),
        ("t*cos(t)", Parity.ODD),
    ],
)
def test_detect_parity_examples(src, expected):
    assert detect_parity(parse_expr(src)) is expected


@pytest.mark.parametrize("src", ["t^2 + 0.0000001*t", "cos(t) + 0.0000001*sin(t)", "t + 0.0000001*t^2"])
def test_a_small_part_of_the_other_parity_reads_neither(src):
    # structurally inconclusive, and each part of the other parity is 1e-7
    # of the function: the sampler's 1e-10 tolerance sees it, where a
    # tolerance of 1e-6 would read EVEN, EVEN and ODD
    e = parse_expr(src)
    assert structural_parity(e) is None
    assert detect_parity(e) is Parity.NEITHER


def test_exp_of_degenerate_odd_argument_falls_back_to_sampling():
    # t - t is structurally odd, so exp(t - t) is inconclusive structurally,
    # but it is identically 1 and sampling must classify it even.
    e = parse_expr("exp(t - t)")
    assert structural_parity(e) is None
    assert detect_parity(e) is Parity.EVEN


def test_parity_soundness_on_fresh_samples():
    # whenever Even (resp. Odd) is reported, the defining residual stays small
    # at 1000 fresh points
    rng = random.Random(99)
    fresh = random.Random(31415)
    points = [fresh.uniform(-4.0, 4.0) for _ in range(1000)]
    for _ in range(40):
        e = parse_expr(random_source(rng))
        parity = detect_parity(e)
        if parity is Parity.NEITHER:
            continue
        for t in points:
            ft, fmt = e(t), e(-t)
            bound = 1e-9 * (1.0 + abs(ft))
            if parity is Parity.EVEN:
                assert abs(fmt - ft) <= bound
            else:
                assert abs(fmt + ft) <= bound


def test_structural_and_sampling_agree_on_closed_fragment():
    rng = random.Random(4242)
    for _ in range(100):
        src = rng.choice((random_even_source, random_odd_source))(rng)
        e = parse_expr(src)
        structural = structural_parity(e)
        assert structural is not None, src
        # skip degenerate near-zero functions where both classifications hold
        peak = max(abs(e(0.1 + 0.39 * k)) for k in range(10))
        if peak < 1e-6:
            continue
        assert sampled_parity(e) is structural, src
