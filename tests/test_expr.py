import math
import pickle
import random
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsym import EvalError, ExprSyntaxError, Parity, expr, parse_expr
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

from helpers import ONE_POINT_EVEN, bench_inputs, cli_env, random_even_source, random_odd_source, random_source


# --- parsing ----------------------------------------------------------------

def test_parse_single_function():
    e = parse_expr("cos(t)")
    assert e == Call("cos", Var())


def test_parse_precedence_shape():
    e = parse_expr("2*t^3 - t")
    assert e == BinOp("-", BinOp("*", Const(2.0), Pow(Var(), 3)), Var())
    # products bind tighter than sums on either side
    one, two = Const(1.0), Const(2.0)
    assert parse_expr("1 + 2*t") == BinOp("+", one, BinOp("*", two, Var()))
    assert parse_expr("t - t/2") == BinOp("-", Var(), BinOp("/", Var(), two))
    assert parse_expr("t/2 - 1*t") == BinOp(
        "-", BinOp("/", Var(), two), BinOp("*", one, Var())
    )


def test_parse_unary_minus_binds_looser_than_pow():
    assert parse_expr("-t^2") == Neg(Pow(Var(), 2))


def test_parse_binary_operators_are_left_associative():
    one, two = Const(1.0), Const(2.0)
    assert parse_expr("t/2/2") == BinOp("/", BinOp("/", Var(), two), two)
    assert parse_expr("t-1-1") == BinOp("-", BinOp("-", Var(), one), one)
    assert parse_expr("t/2/2")(4.0) == 1.0
    assert parse_expr("t-1-1")(4.0) == 2.0


def test_parse_fraction_literal_is_division():
    assert parse_expr("1/2") == BinOp("/", Const(1.0), Const(2.0))


def test_parse_whitespace_insignificant():
    assert parse_expr(" 2 * t ^ 3 - t ") == parse_expr("2*t^3-t")


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
    assert parse_expr(src) == Const(float(src))


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
            v1 = ast(t)
        except EvalError:
            continue  # generated exprs may be singular at sampled points
        v2 = reparsed(t)
        assert abs(v2 - v1) <= 1e-14 * (1.0 + abs(v1))


@pytest.mark.parametrize("inner", "+-*/")
@pytest.mark.parametrize("outer", "+-*/")
def test_format_parse_on_every_operator_pair(outer, inner):
    # each pair nested on either side prints to source that parses back to
    # the same tree: float sums and products do not associate, so a right
    # operand of its parent's level keeps its parentheses
    x, y, z = Var(), Const(2.0), Const(3.0)
    left = BinOp(outer, BinOp(inner, x, y), z)
    assert parse_expr(format_expr(left)) == left
    right = BinOp(outer, x, BinOp(inner, y, z))
    assert parse_expr(format_expr(right)) == right


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


@pytest.mark.parametrize("seed", range(5))
def test_equal_trees_hash_equal(seed):
    src = random_source(random.Random(seed))
    e, again = parse_expr(src), parse_expr(src)
    assert e is not again and e == again and hash(e) == hash(again)
    assert e == tuple(e) and hash(e) == hash(tuple(e))  # a tree is its tuple
    # equality stays structural: a different tree is a different key
    other = parse_expr(f"({src}) + 1")
    assert other != e and {e: 1, other: 2}[again] == 1
    assert repr(e).startswith(f"{type(e).__name__}(")


def test_a_pickled_expr_hashes_its_tree_again():
    # string hashes differ between processes: no hash may travel with the
    # pickle, and a tree has no attribute to keep a stale one in
    e = parse_expr("sin(t) - 2*t")
    fresh = hash(e)
    with pytest.raises(AttributeError):
        object.__setattr__(e, "_hash", fresh + 1)
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and hash(copy) == fresh and type(copy) is type(e)


@pytest.mark.parametrize(
    "node",
    [Const(0.0), Var(), Neg(Var()), BinOp("+", Var(), Const(1.0)), Pow(Var(), 0), Call("sin", Var())],
    ids=lambda node: type(node).__name__,
)
def test_every_node_is_truthy_and_immutable(node):
    # Var() has no fields, and a tuple of none is falsy
    assert node and bool(node) is True
    name = next(iter(node._fields), "value")
    with pytest.raises(AttributeError):
        setattr(node, name, Const(1.0))
    with pytest.raises(AttributeError):
        node.extra = 1


def _nodes_of(node):
    yield node
    for value in node:
        if isinstance(value, tuple):
            yield from _nodes_of(value)


@pytest.mark.parametrize("seed", range(5))
def test_every_node_of_a_parsed_tree_is_an_expr_and_a_tuple(seed):
    # a tree is its own Expr: each node can be called and printed, and
    # nothing wraps the root
    e = parse_expr(f"-({random_source(random.Random(seed))}) + sin(t)^2/cosh(t)")
    nodes = list(_nodes_of(e))
    assert {type(node) for node in nodes} == {Const, Var, Neg, BinOp, Pow, Call}
    for node in nodes:
        assert isinstance(node, Expr) and isinstance(node, tuple)
        assert parse_expr(node.source) == node and str(node) == node.source
        try:
            assert repr(node(0.5)) == repr(as_callable(node)(0.5))
        except EvalError:
            pass
    assert not hasattr(parse_expr("t"), "ast")


def test_expr_leaves_equality_and_hashing_to_the_tuple():
    # no Python-level __eq__ or __hash__: trees hash and compare in C
    assert "__eq__" not in vars(Expr) and "__hash__" not in vars(Expr)
    for cls in (Const, Var, Neg, BinOp, Pow, Call):
        assert cls.__mro__[1] is Expr
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__


def test_a_pickled_tree_hashes_as_a_fresh_parse_in_another_process():
    # string hashes differ between processes: a tree pickled in one and
    # loaded in another hashes there as the tree parsed there
    src = "sin(t) - 2*t^3/cosh(t)"
    dump = (
        "import pickle, sys; from bsym import parse_expr; "
        "e = parse_expr(sys.argv[1]); sys.stdout.write(pickle.dumps((e, hash(e))).hex())"
    )
    load = (
        "import pickle, sys; from bsym import parse_expr; "
        "e, old = pickle.loads(bytes.fromhex(sys.stdin.read())); fresh = parse_expr(sys.argv[1]); "
        "print(e == fresh, hash(e) == hash(fresh), hash(e) == old, {fresh: 1}.get(e))"
    )
    dumped = subprocess.run(
        [sys.executable, "-c", dump, src], env={**cli_env(), "PYTHONHASHSEED": "1"},
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = subprocess.run(
        [sys.executable, "-c", load, src], env={**cli_env(), "PYTHONHASHSEED": "2"},
        input=dumped, capture_output=True, text=True, check=True,
    ).stdout
    # the other process's hash differs, so a stored one would be stale
    assert loaded.split() == ["True", "True", "False", "1"]


# --- one parse per shape --------------------------------------------------------

# the operations of a 30 s run of each workload (`ops_per_s` of
# bench/workloads.py times 30), two coefficient texts each
BENCH_OPS = (("verify_inputs", 198), ("solve_inputs", 435), ("identity_inputs", 4200))


def _typed(node):
    """node as (type, fields), recursively, each field that is no node as
    (type, value), so that trees compare equal only where their nodes and
    fields have equal types too (Const(2) == Const(2.0) as tuples)."""
    return type(node), tuple(_typed(f) if isinstance(f, Expr) else (type(f), f) for f in node)


def _outcome(parse, text):
    """The typed tree that parse(text) returns, or the message and offset it raises."""
    try:
        return "tree", _typed(parse(text))
    except ExprSyntaxError as exc:
        return "error", str(exc), exc.offset


def _parses_as_the_parser(texts):
    """Parse each text twice, the second time from its shape's template,
    and compare both with the parser's own tree or error."""
    for text in texts:
        if not text or text.isspace():
            continue  # `parse_expr` refuses these before tokenizing
        expected = _outcome(lambda s: expr._Parser(s).parse(), text)
        assert _outcome(parse_expr, text) == expected, text
        if expected[0] == "tree":
            assert expr._shape(expr._tokenize(text))[0] in expr._templates, text
        assert _outcome(parse_expr, text) == expected, text


def test_every_benchmark_text_parses_as_the_parser_parses_it(monkeypatch):
    # 28 998 texts in 496 shapes, the same at every seed: the first text of
    # each shape misses, and the rest build from a template made from
    # another text's constants
    monkeypatch.setattr(expr, "_templates", {})
    gen = bench_inputs()
    texts = [text for seed in (1, 2, 3) for name, count in BENCH_OPS
             for item in getattr(gen, name)(seed, count) for text in (item.a, item.b)]
    assert len(texts) == 28998
    _parses_as_the_parser(texts)
    assert len(expr._templates) == 496


_PIECES = (
    "t", "sin", "cos", "exp", "sinh", "cosh", "(", ")", "+", "-", "*", "/", "^",
    "2", "0.5", ".25", "3.", "17", "9" * 400,
    "\u0663", "1\u0663.\u0665", "\u00b2",  # Arabic-Indic 3, 13.5 in mixed digits, superscript 2
    "\u03b1", "t\u03b1",  # Greek alpha, alone and in a name
    " ", "\u2003", "\t", ".", "@", "^-", "^2.5", "^t",
)
_texts = st.one_of(
    _asts.map(format_expr),  # valid, with constants of every sign
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=8))
def test_a_known_shape_parses_as_the_parser_parses_it(texts):
    with patch.dict(expr._templates, clear=True):
        _parses_as_the_parser(texts)


@pytest.mark.parametrize(
    "texts",
    [
        ["2*t", "\u0663*t", "1\u0663.\u0665 * t"],  # Unicode decimal digits are constants
        ["t^2", "t^\u0662", "t^2.5", "t^-2", "t^t", "t^"],
        ["cos(t)", "cos(t\u03b1)", "cos\u2003(\tt )", "\u00b2*t"],
        ["-" * (MAX_DEPTH - 1) + "1", "-" * (MAX_DEPTH - 1) + "2", "-" * MAX_DEPTH + "2"],
        ["(" * MAX_DEPTH + "2*t" + ")" * MAX_DEPTH, "(" * (MAX_DEPTH + 1) + "3*t" + ")" * (MAX_DEPTH + 1)],
        ["+".join(["2*t"] * 50), "+".join(["3*t"] * 50), "+".join(["3*t"] * MAX_DEPTH)],
    ],
    ids=["digits", "exponents", "names-spaces", "minus-depth", "paren-depth", "sum-depth"],
)
def test_texts_of_one_shape_parse_as_the_parser_parses_them(texts):
    with patch.dict(expr._templates, clear=True):
        _parses_as_the_parser(texts)


def test_exponents_stay_in_the_shape():
    with patch.dict(expr._templates, clear=True):
        assert parse_expr("2*t^2") == BinOp("*", Const(2.0), Pow(Var(), 2))
        assert parse_expr("3*t^3") == BinOp("*", Const(3.0), Pow(Var(), 3))
        assert parse_expr("t^3") == Pow(Var(), 3) != parse_expr("t^2")


@pytest.mark.parametrize(
    "text,offset",
    [("0.5*t + " + "9" * 400, 8), ("9" * 400 + "*t + " + "9" * 401, 0)],
    ids=["second", "both"],
)
def test_a_known_shape_rejects_a_number_too_large_for_a_float(text, offset):
    with patch.dict(expr._templates, clear=True):
        parse_expr("0.25*t + 2")
        assert expr._shape(expr._tokenize(text))[0] in expr._templates
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
    assert str(info.value) == f"number too large for a float (offset {offset})"


def test_a_known_shape_is_not_parsed_again(monkeypatch):
    monkeypatch.setattr(expr, "_templates", {})
    parse_expr("0.5*cos(t) - t/3")
    monkeypatch.setattr(expr, "_Parser", None)  # a parse would now fail
    tree = parse_expr(" 0.75 * cos( t )-t / 9")
    assert tree == BinOp("-", BinOp("*", Const(0.75), Call("cos", Var())), BinOp("/", Var(), Const(9.0)))
    # the trees of one shape share its subtrees that hold no constant
    assert tree.left.right is parse_expr("1*cos(t)-t/1").left.right


def test_the_store_keeps_512_shapes_and_evicts_the_oldest(monkeypatch):
    monkeypatch.setattr(expr, "_templates", {})
    for k in range(expr._TEMPLATES + 1):
        assert parse_expr(f"t^{k}") == Pow(Var(), k)
    assert expr._TEMPLATES == len(expr._templates) == 512
    assert "t ^ 0" not in expr._templates and "t ^ 1" in expr._templates


# --- a parsed tree's record -----------------------------------------------------

def _walked(text):
    """The record the walk gives the parser's tree of text."""
    consts = []
    code, parity = expr._describe(expr._Parser(text).parse(), consts)
    return code, tuple(consts), parity


def _files_the_walks_record(texts):
    """Parse each text that parses twice, a miss where its shape is new and
    then a hit: each time the store holds the tree's record as soon as the
    parse returns, with no walk, equal to the walk of the parser's tree
    (by repr, so that constants compare by type and sign too), or no
    record where the tree holds a zero constant, and holds at most 32
    records."""
    for text in texts:
        try:
            expected = _walked(text)
        except ExprSyntaxError:
            continue
        filed = None if 0.0 in expected[1] else expected
        for _ in range(2):
            tree = parse_expr(text)
            assert repr(expr._records.get(tree)) == repr(filed), text
            assert repr(expr._tree(tree)) == repr(expected), text
            assert len(expr._records) <= 32


def test_every_benchmark_text_is_filed_with_its_walks_record(monkeypatch):
    monkeypatch.setattr(expr, "_templates", {})
    monkeypatch.setattr(expr, "_records", {})
    gen = bench_inputs()
    _files_the_walks_record(text for seed in (1, 2, 3) for name, count in BENCH_OPS
                            for item in getattr(gen, name)(seed, count) for text in (item.a, item.b))
    assert len(expr._records) == expr._RECORDS == 32


@settings(max_examples=300, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=8))
def test_a_parsed_tree_is_filed_with_its_walks_record(texts):
    with patch.dict(expr._templates, clear=True), patch.dict(expr._records, clear=True):
        _files_the_walks_record(texts)


def test_texts_of_one_shape_keep_their_own_constants(monkeypatch):
    monkeypatch.setattr(expr, "_templates", {})
    monkeypatch.setattr(expr, "_records", {})
    first, second = parse_expr("2*t + cos(3*t)"), parse_expr("5*t + cos(7*t)")
    code = "((k0*t)+cos((k1*t)))"
    assert expr._records == {first: (code, (2.0, 3.0), None), second: (code, (5.0, 7.0), None)}
    assert first(1.0) == 2.0 + math.cos(3.0) and second(1.0) == 5.0 + math.cos(7.0)


def test_a_negative_zero_keeps_its_own_constants():
    # the two trees compare and hash equal, since -0.0 == 0.0, so no store
    # keyed on a tree may lend one the other's constants: the records keep
    # neither, and each is walked for its own
    zero, negative = BinOp("*", Const(0.0), Var()), BinOp("*", Const(-0.0), Var())
    assert zero == negative and hash(zero) == hash(negative)
    expr._coefficient(zero)
    assert math.copysign(1.0, as_callable(negative)(1.0)) == -1.0
    assert math.copysign(1.0, as_callable(zero)(1.0)) == 1.0
    assert zero not in expr._records
    # a zero's sign changes no parity, so the memo keyed on the tree holds
    assert structural_parity(zero) is structural_parity(negative) is Parity.ODD
    assert detect_parity(zero) is detect_parity(negative) is Parity.ODD


def test_a_parsed_tree_of_a_known_shape_is_not_walked(monkeypatch):
    walked = []
    describe = expr._describe
    monkeypatch.setattr(expr, "_describe", lambda node, consts: walked.append(node) or describe(node, consts))
    monkeypatch.setattr(expr, "_templates", {})
    monkeypatch.setattr(expr, "_records", {})
    parse_expr("0.5*t^2 - sin(t)/3")  # the shape's first tree, walked once
    assert len(walked) > 0 and walked[0] == parse_expr("0.5*t^2 - sin(t)/3")
    walked.clear()
    tree = parse_expr("4*t^2 - sin(t)/9")
    assert structural_parity(tree) is None and detect_parity(tree) is Parity.NEITHER
    assert walked == []
    # a tree no parse returned is walked once, then read from the store
    partner = expr.negated(tree)
    for _ in range(2):
        assert structural_parity(partner) is None
    assert walked[0] is partner and walked.count(partner) == 1


def test_the_store_keeps_32_records_and_evicts_the_oldest(monkeypatch):
    monkeypatch.setattr(expr, "_records", {})
    trees = [parse_expr(f"{k}*t") for k in range(40)]
    assert list(expr._records) == trees[8:]
    parse_expr("9*t")  # filed again, in its place: nothing is evicted
    assert list(expr._records) == trees[8:]


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


@pytest.mark.parametrize(
    "src,expected",
    [
        ("2", Parity.EVEN),
        ("t", Parity.ODD),
        ("-(t)", Parity.ODD),
        ("t - t^3", Parity.ODD),
        ("t^2 + 1", Parity.EVEN),
        ("t + 1", None),
        ("t*t", Parity.EVEN),
        ("t/cos(t)", Parity.ODD),
        ("(t + 1)*t", None),
        ("t^2", Parity.EVEN),
        ("t^3", Parity.ODD),
        ("t^0", Parity.EVEN),
        ("(t + 1)^2", None),
        ("sin(t)", Parity.ODD),
        ("sinh(t^3)", Parity.ODD),
        ("cos(t)", Parity.EVEN),
        ("cosh(-t)", Parity.EVEN),
        ("exp(t)", None),
        ("sin(t^2)", Parity.EVEN),
        ("exp(t + 1)", None),
    ],
)
def test_structural_rules_per_node(src, expected):
    # the one walk's parity rules, node by node: None is inconclusive
    assert structural_parity(parse_expr(src)) is expected


def test_one_walk_gives_a_trees_shape_constants_and_parity():
    # the constants are k0, k1, .. left to right, in the shape and the record alike
    code, consts, parity = expr._tree(parse_expr("2*t - 1 + 3*sin(4*t)^2/-5"))
    assert code == "(((k0*t)-k1)+((k2*(sin((k3*t))**2))/(-k4)))"
    assert consts == (2.0, 1.0, 3.0, 4.0, 5.0)
    assert parity is None
    assert expr._tree(parse_expr("(2*t)^3 - sin(t)*cos(7)")) == (
        "(((k0*t)**3)-(sin(t)*cos(k1)))", (2.0, 7.0), Parity.ODD
    )


@pytest.mark.parametrize("src", ["t^2 + 0.0000001*t", "cos(t) + 0.0000001*sin(t)", "t + 0.0000001*t^2"])
def test_a_small_part_of_the_other_parity_reads_neither(src):
    # structurally inconclusive, and each part of the other parity is 1e-7
    # of the function: the sampler's 1e-10 tolerance sees it, where a
    # tolerance of 1e-6 would read EVEN, EVEN and ODD
    e = parse_expr(src)
    assert structural_parity(e) is None
    assert detect_parity(e) is Parity.NEITHER


def test_the_sampler_checks_64_distinct_points():
    # one generator draws all 64 points, so the sampler checks 64 values of |t|
    points = expr._SAMPLE_POINTS
    assert len(set(map(abs, points))) == len(points) == 64
    assert all(-4.0 <= t <= 4.0 for t in points)
    e = parse_expr(ONE_POINT_EVEN)
    t = points[0]
    assert abs(e(-t) - e(t)) <= 1e-10 * (1.0 + abs(e(t)))  # even at the first point
    assert structural_parity(e) is None
    assert sampled_parity(e) is detect_parity(e) is Parity.NEITHER


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
