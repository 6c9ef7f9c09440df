"""Coefficient-function DSL: parsing, pointwise evaluation, parity classification.

Grammar (whitespace insignificant; `_PREC` is the one precedence table,
whose levels the parser reads with one left-associative loop and
`format_expr` parenthesizes by)::

    expr    := term (('+'|'-') term)*        _PREC level 1
    term    := factor (('*'|'/') factor)*    _PREC level 2
    factor  := '-' factor | primary ('^' INT)?
    primary := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    in {sin, cos, exp, sinh, cosh}

'^' takes a non-negative integer-constant exponent only, so parity of any
subterm stays decidable by structural rules.  Fractions such as "1/2" are
ordinary constant divisions; there is no scientific notation.  A number
too large for a float is a syntax error.

A parsed tree is its own `Expr`: each node is an `Expr` and a named
tuple, so it can be called at t and printed, and hashes and compares in C.

The parser runs once per shape.  `parse_expr` tokenizes every text and
keys it by its token texts, each constant written as '#' (an exponent
keeps its digits).  The first text of a key is parsed, and the tree's
template is stored: its steps in postfix order, each subtree that holds
no constant kept whole and shared by every tree of the shape.  A later
text of that key builds its tree from the template and its own
constants, each checked finite, with no parse: one tokenize, one key,
one pass over the steps and one record filed, about half the cost of a
parse and a walk.  The store
keeps the last 512 keys, oldest out first; a text that fails to parse is
never stored, and its error and offset are the parser's.

Expressions nest at most MAX_DEPTH = 100 levels deep.  A leaf counts one
level, and each unary minus, '^', function call and binary operator one
more than its deepest operand, so a sum of 101 terms is too deep (operators
of one precedence associate to the left).  Parentheses add no level, but
at most 100 parentheses and calls may be open at once.  Deeper input is a
syntax error, raised before the parser's recursion or Python's compiler
could fail.

Two facts are read from a tree: its shape, the code with each constant
written as a parameter k0, k1, .. in order of appearance, and its
structural parity.  Both depend on the shape alone, so `_describe` walks
the first tree of a shape once for both, its template keeps them, and a
later tree of the shape takes them from there with the constants its
build read, with no walk.  The record (code, constants, parity) is kept
per tree in a small store, `_tree`, which `parse_expr` fills and which
walks a tree only where it holds no record: a tree no parse returned,
such as a built partner, or one whose record was evicted.  It is the
one store of a tree's values, and keeps no tree that holds a zero
constant, since trees compare equal up to a zero's sign: such a tree is
walked for its own constants each time.

Evaluation is generated code: one compile per shape, constants bound per
tree.  Each shape compiles once
into `lambda k0, ..: lambda t: <shape>`, kept in an LRU cache with the
templates' bound of 512 shapes, under a file name of its own
(`<bsym.expr coefficient #N>`, so a profile shows the trees of one shape
as one entry), and a tree's function is that factory called with the
constants of the tree's record, bound afresh for each form that reads
the tree.  A `CheckedForm` states
what the quadrature or the oracle computes: the state it reads, one value
expression and its coefficient count.  `CheckedForm.source` renders its
code at the time s: the coefficients called in order inside one try, each
value checked for finiteness, then the value after the caller's target (a
`return` or a loop stage's assignment).  Every failure raises EvalError
through one helper, with the texts "division by zero at t=..",
"evaluation failed at t=..: <reason>" and "non-finite value at t=..".
`checked_factory(form, *coefs)(*env)` is a `Bound`: plain data holding
the form, the coefficient functions and the `env` values, which
`stepper.integrate` runs in the form's own loop, of the tableau its
control names, the same source rendered into each stage.  Calling a `Bound` runs the form's wrapper, the
function that source renders, compiled once per form and bound on the
first call; `as_callable` binds the wrapper of `_VALUE`, whose value is
its one coefficient.

`detect_parity` reads the structural parity from the tree's record and,
where the rules are inconclusive, compares f(t) with f(-t) at 64 fixed
points of [-4, 4].  The points take no seed and no setting, so parity
depends on the tree alone, and the result is memoized per tree in a small
LRU cache.  The memo may key on the tree, as the records may not: a
zero's sign changes no parity.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import textwrap
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import EvalError, ExprSyntaxError

__all__ = [
    "Expr",
    "Parity",
    "parse_expr",
    "as_callable",
    "CheckedForm",
    "Bound",
    "checked_factory",
    "format_expr",
    "detect_parity",
    "structural_parity",
    "sampled_parity",
    "negated",
]


# --- AST ------------------------------------------------------------------

class Expr:
    """An immutable coefficient function of t: any node of a parsed tree.

    Every node is an `Expr` and a named tuple, so a tree hashes and
    compares as a tuple, in C; `Expr` adds no field, no `__eq__` and no
    `__hash__`, only evaluation and printing.  The types of the nodes'
    fields keep nodes of two types unequal.
    """

    __slots__ = ()

    @property
    def source(self) -> str:
        return format_expr(self)

    def __call__(self, t: float) -> float:
        """Evaluate at t; EvalError on division by zero or non-finite results."""
        return as_callable(self)(t)

    def __str__(self) -> str:
        return self.source


class Const(Expr, namedtuple("Const", "value")):
    __slots__ = ()


class Var(Expr, namedtuple("Var", "")):
    """The single free variable t."""

    __slots__ = ()

    def __bool__(self) -> bool:  # a node is truthy, as a tuple of no fields is not
        return True


class Neg(Expr, namedtuple("Neg", "arg")):
    __slots__ = ()


class BinOp(Expr, namedtuple("BinOp", "op left right")):  # op: one of + - * /
    __slots__ = ()


class Pow(Expr, namedtuple("Pow", "base exponent")):  # exponent: an int >= 0, by the grammar
    __slots__ = ()


class Call(Expr, namedtuple("Call", "func arg")):  # func: sin cos exp sinh cosh
    __slots__ = ()


FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh")


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NEITHER = "neither"

    @property
    def sign(self) -> int:
        """f(-t) = sign * f(t): +1 for even, -1 for odd; KeyError for neither."""
        return {"even": 1, "odd": -1}[self.value]


def negated(e: Expr) -> Expr:
    """Structurally negate: wrap the tree in a unary minus, or unwrap one."""
    return e.arg if isinstance(e, Neg) else Neg(e)


# --- Tokenizer / parser ---------------------------------------------------

_NUM_RE = re.compile(r"\d+\.?\d*|\.\d+")

# the grammar's one precedence table (see the module docstring)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHTEST = max(_PREC.values())

# Code generation writes one parenthesis level per tree level, and CPython
# accepts at most 200 nested parentheses in a source expression.
MAX_DEPTH = 100


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUM_RE.match(src, i)
            if m is None:
                raise ExprSyntaxError("malformed number", i)
            toks.append(("num", m.group(), i))
            i = m.end()
            continue
        if c.isalpha():
            j = i
            while j < n and src[j].isalpha():
                j += 1
            toks.append(("name", src[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append((c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    return toks


class _Parser:
    def __init__(self, source: str, toks: Optional[list] = None):
        self.source = source
        self.toks = _tokenize(source) if toks is None else toks
        self.i = 0
        self.open = 0  # parentheses and calls being parsed

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.source))
        self.i += 1
        return tok

    def _expect(self, kind: str):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError(f"expected {kind!r}", len(self.source))
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def _check_depth(self, depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", off)
        return depth

    def _descend(self, off: int) -> None:
        """Enter parentheses or a call, before recursing."""
        self.open += 1
        self._check_depth(self.open, off)

    # each method returns (node, depth): the node's levels counted as in
    # MAX_DEPTH, a leaf being one level

    def parse(self) -> Expr:
        node, _ = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def _expr(self, level: int = 1) -> tuple[Expr, int]:
        """Operands of `_PREC` levels above `level`, or factors past the
        tightest level, joined by the operators at `level`, to the left."""
        if level > _TIGHTEST:
            return self._factor()
        node, depth = self._expr(level + 1)
        while (tok := self._peek()) is not None and _PREC.get(tok[0]) == level:
            self.i += 1
            right, right_depth = self._expr(level + 1)
            node = BinOp(tok[0], node, right)
            depth = self._check_depth(1 + max(depth, right_depth), tok[2])
        return node, depth

    def _factor(self) -> tuple[Expr, int]:
        # leading minuses are counted, not recursed into, so a long run of
        # them fails the depth check instead of the interpreter's stack
        start = self.i
        while (tok := self._peek()) is not None and tok[0] == "-":
            self.i += 1
        minuses = self.i - start
        node, depth = self._primary()
        tok = self._peek()
        if tok is not None and tok[0] == "^":
            self.i += 1
            etok = self._peek()
            if etok is None:
                raise ExprSyntaxError("expected integer exponent", len(self.source))
            if etok[0] != "num" or "." in etok[1]:
                raise ExprSyntaxError("exponent must be an integer constant", etok[2])
            try:  # past the interpreter's digit limit for int()
                exponent = int(etok[1])
            except ValueError:
                raise ExprSyntaxError("exponent has too many digits", etok[2]) from None
            self.i += 1
            node = Pow(node, exponent)
            depth = self._check_depth(depth + 1, tok[2])
        for _ in range(minuses):
            node = Neg(node)
        return node, self._check_depth(depth + minuses, self.toks[start][2])

    def _primary(self) -> tuple[Expr, int]:
        tok = self._next()
        kind, text, off = tok
        if kind == "num":
            return Const(_number(text, off)), 1
        if kind == "name":
            if text == "t":
                return Var(), 1
            if text in FUNCTIONS:
                self._expect("(")
                self._descend(off)
                arg, depth = self._expr()
                self.open -= 1
                self._expect(")")
                return Call(text, arg), self._check_depth(depth + 1, off)
            raise ExprSyntaxError(f"unknown name {text!r}", off)
        if kind == "(":
            self._descend(off)
            result = self._expr()
            self.open -= 1
            self._expect(")")
            return result
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


def _number(text: str, off: int) -> float:
    """The value of the constant token `text` at `off`, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ExprSyntaxError("number too large for a float", off)
    return value


def _shape(toks: list) -> tuple[str, list]:
    """The key of the tokens' shape, and their constants' tokens in order.

    The key is the token texts joined by spaces, each constant written as
    '#'.  An exponent, the number directly after a '^', keeps its digits,
    since a tree holds it in its shape."""
    parts, numbers = [], []
    after_caret = False
    for tok in toks:
        kind, text, _ = tok
        if kind == "num" and not after_caret:
            parts.append("#")
            numbers.append(tok)
        else:
            parts.append(text)
        after_caret = kind == "^"
    return " ".join(parts), numbers


# each shape's template by its key, oldest first: an identities run (seed
# 1) meets 278 shapes in 8 400 texts and solve-dense 418 in 870, so that
# neither evicts; a template is its steps and the code and structural
# parity that every tree of the shape shares, and solve-dense's 418 hold
# about 0.25 MB with their keys and shared subtrees
_TEMPLATES = 512
_templates: dict = {}


def _template(node: Expr) -> Optional[tuple]:
    """The steps that rebuild node in postfix order, read by `_build` as
    (kind, value) pairs: a constant is (Const, None), a subtree with no
    constant (None, subtree), shared by every tree of the shape, and each
    other node its type and the field that is not an operand: BinOp's
    operator, Pow's exponent, Call's function, Neg's None.  None where
    node holds no constant."""
    kind = type(node)
    if kind is Const:
        return (Const, None)
    if kind is Var:
        return None
    if kind is Neg:
        arg = _template(node.arg)
        return arg and (*arg, Neg, None)
    if kind is Pow:
        base = _template(node.base)
        return base and (*base, Pow, node.exponent)
    if kind is Call:
        arg = _template(node.arg)
        return arg and (*arg, Call, node.func)
    left, right = _template(node.left), _template(node.right)
    if left is right is None:
        return None
    return (*(left or (None, _shared(node.left))), *(right or (None, _shared(node.right))), BinOp, node.op)


@lru_cache(maxsize=_TEMPLATES)
def _shared(node: Expr) -> Expr:
    """node, or the equal subtree met first: all templates share one
    instance of each subtree that holds no constant, and the store pins
    no node of the trees they came from, which lie scattered over memory
    the process would reuse (pinning them raised the solve-dense
    benchmark's peak RSS by 0.5 MB)."""
    return node


# a node from its fields, skipping the named tuple's Python-level __new__
_new = tuple.__new__


def _build(template: tuple, numbers) -> tuple[Expr, tuple]:
    """The tree of a template's steps and its constants in order, read
    from the iterator of their tokens, the order the parser read them in."""
    stack, consts = [], []
    push, pop = stack.append, stack.pop
    steps = iter(template)
    for kind, value in zip(steps, steps):
        if kind is BinOp:
            right = pop()
            push(_new(BinOp, (value, pop(), right)))
        elif kind is Const:
            _, text, off = next(numbers)
            consts.append(_number(text, off))
            push(_new(Const, (consts[-1],)))
        elif kind is None:
            push(value)
        elif kind is Neg:
            push(_new(Neg, (pop(),)))
        elif kind is Pow:
            push(_new(Pow, (pop(), value)))
        else:
            push(_new(Call, (value, pop())))
    return pop(), tuple(consts)


def parse_expr(source: str) -> Expr:
    """Parse DSL source text into an expression tree.

    Raises ExprSyntaxError (with byte offset) on unknown tokens, unbalanced
    parentheses, or a non-integer exponent.

    The parser runs once per shape: the text is tokenized and keyed by
    `_shape`, and a key met before builds its tree from that shape's
    template and the text's constants, with no parse (on the identities
    benchmark's texts, 9 us with the record filed, where a parse takes 15
    and the walk of its tree 4 more; 3.4 us of each go to the
    tokenizer).  The tree equals the parser's node for node, and its
    record (`_tree`) is filed with it: the shape's code and parity, taken
    from the walk of the shape's first tree, and the constants the build
    read, so a parsed tree of a known shape is never walked.  Only a text
    that parses stores a template, for at most `_TEMPLATES` shapes,
    oldest out first.  Whether a text parses depends on its shape alone,
    with one exception: a constant too large for a float, which a known
    shape raises at the first such token, as the parser would.  So every
    error and offset is the parser's.
    """
    if not source or source.isspace():
        raise ExprSyntaxError("empty expression", 0)
    toks = _tokenize(source)
    key, numbers = _shape(toks)
    shape = _templates.get(key)
    if shape is not None:
        steps, code, parity = shape
        tree, consts = _build(steps, iter(numbers))
        _file(tree, (code, consts, parity))
        return tree
    tree = _Parser(source, toks).parse()
    if len(_templates) >= _TEMPLATES:
        del _templates[next(iter(_templates))]
    code, _, parity = _tree(tree)
    _templates[key] = (_template(tree) or (None, _shared(tree)), code, parity)
    return tree


# --- Evaluation -----------------------------------------------------------

def _describe(node: Expr, consts: list) -> tuple[str, Optional[Parity]]:
    """The tree's code and structural parity, from one walk.

    The code writes each constant as the parameter k<i>, i counting the
    constants in order of appearance, which are appended to consts;
    variables, operators, function names and exponents stay in the code.
    The parity follows sound-but-incomplete rules; None means
    inconclusive."""
    if isinstance(node, Const):
        consts.append(node.value)
        return f"k{len(consts) - 1}", Parity.EVEN
    if isinstance(node, Var):
        return "t", Parity.ODD
    if isinstance(node, Neg):
        arg, parity = _describe(node.arg, consts)
        return f"(-{arg})", parity
    if isinstance(node, BinOp):
        left, lp = _describe(node.left, consts)
        right, rp = _describe(node.right, consts)
        if lp is None or rp is None:
            parity = None
        elif node.op in "+-":
            parity = lp if lp is rp else None
        else:
            parity = Parity.EVEN if lp is rp else Parity.ODD
        return f"({left}{node.op}{right})", parity
    if isinstance(node, Pow):
        base, parity = _describe(node.base, consts)
        if parity is Parity.ODD and not node.exponent % 2:
            parity = Parity.EVEN
        return f"({base}**{node.exponent})", parity
    if isinstance(node, Call):
        arg, parity = _describe(node.arg, consts)
        if parity is Parity.ODD:
            parity = _OF_ODD.get(node.func)
        return f"{node.func}({arg})", parity
    raise TypeError(f"not an AST node: {node!r}")


# a function's parity at an odd argument; exp of an odd argument is
# generically Neither, but the argument may degenerate to zero, so it is
# left to sampling
_OF_ODD = {"sin": Parity.ODD, "sinh": Parity.ODD, "cos": Parity.EVEN, "cosh": Parity.EVEN}


# the code, constants and structural parity of a tree by the tree, asked
# for the same few trees many times per operation: filed by `parse_expr`
# for every tree it returns, and walked here only for a tree with no
# record, such as a partner `symmetry.transform_problem` builds; bounded
# to one operation's working set, oldest out first, since fresh
# expressions would otherwise grow it without end
_RECORDS = 32
_records: dict = {}


def _file(e: Expr, record: tuple) -> tuple:
    """Store e's record and return it; a tree that holds a zero constant
    is never stored, since the tree that keys it equals its twin with the
    zero's sign flipped (`-0.0 == 0.0`), so each is walked for its own."""
    if 0.0 not in record[1]:
        _records[e] = record
        if len(_records) > _RECORDS:
            del _records[next(iter(_records))]
    return record


def _tree(e: Expr) -> tuple[str, tuple, Optional[Parity]]:
    record = _records.get(e)
    if record is None:
        consts: list = []
        code, parity = _describe(e, consts)
        record = _file(e, (code, tuple(consts), parity))
    return record


def _failed(t: float, exc: Optional[Exception]) -> EvalError:
    """The EvalError for a coefficient evaluated at t: exc is what the
    evaluation raised, None when it returned an infinity or a NaN."""
    if exc is None:
        return EvalError(f"non-finite value at t={t!r}")
    if isinstance(exc, ZeroDivisionError):
        return EvalError(f"division by zero at t={t!r}")
    return EvalError(f"evaluation failed at t={t!r}: {exc}")


class CheckedForm(NamedTuple):
    """What a generated function computes from its checked coefficient values.

    The function takes the time, named s in the wrapper and in every
    stepper loop alike, then the state value named `state`, if any.  It
    evaluates its `coefficients` coefficient functions c0, c1, .. at s
    into the locals f0, f1, .. and returns `value`, one expression over
    the f<i>, the state and the names in `env`: the values a `Bound`
    binds after the coefficient functions, the parameters of the factory
    that `checked_factory` returns.  Each form's function, and the
    stepper's loop for it, compiles once per process, so forms are module
    constants, never built per problem.

    `value` is a tuple, one entry per state component.  A form whose
    component 0 reads fewer coefficients than the whole may state that
    entry as `head`, over the coefficients `head_reads` (indices): a
    stepper loop's stage whose other components nothing reads then
    evaluates those coefficients and `head` alone.  With no `head`, every
    stage evaluates the whole `value`.
    """

    state: Optional[str]
    value: str
    coefficients: int
    env: str = ""
    head: str = ""
    head_reads: tuple = ()

    @property
    def args(self) -> str:
        """The function's parameters: s, then `state`."""
        return ", ".join(filter(None, ["s", self.state]))

    def params(self) -> str:
        """The bound names: coefficient functions c0, c1, .., then `env`."""
        return ", ".join([*(f"c{i}" for i in range(self.coefficients)), *filter(None, [self.env])])

    def source(self, out: str, evaluate: bool, head: bool = False) -> str:
        """The form's code at the time s: where `evaluate` holds, its
        coefficients evaluated and checked into f0, f1, .. (otherwise
        values already evaluated at s are reused), then `value` appended
        to `out`; where `head` holds, only the coefficients `head_reads`
        and `head` in their place."""
        value, reads = (self.head, self.head_reads) if head else (self.value, range(self.coefficients))
        evals = "".join(_EVAL.format(i=i) for i in reads)
        return (_CHECK.format(evals=evals) if evaluate and evals else "") + out + value

    @property
    def namespace(self) -> dict:
        """The globals `source` reads: the math functions and `_failed`."""
        return _GLOBALS


# One try around the coefficient calls, and one finite check per value:
# x - x is 0.0 for a finite x and NaN (true) for an infinity or a NaN.
# The EvalError of a non-finite value passes the except clause, so a
# coefficient's failure wins over those of the coefficients after it.
_CHECK = """\
try:
{evals}except (ZeroDivisionError, OverflowError, ValueError) as exc:
    raise _failed(s, exc) from None
"""
_EVAL = """\
    f{i} = c{i}(s)
    if f{i} - f{i}:
        raise _failed(s, None)
"""
_FACTORY = """\
def factory({params}):
    def checked({args}):
{source}
    return checked
"""
_GLOBALS = dict({name: getattr(math, name) for name in FUNCTIONS}, _failed=_failed)
_compiled_count = itertools.count(1)


# one entry per shape, bounded like the templates, so a shape whose
# template is held compiles once (a compile is about 50 us): an
# identities run (seed 1) meets 278 shapes in 8 400 texts and compiles
# each once, and solve-dense meets 418
@lru_cache(maxsize=_TEMPLATES)
def _shape_factory(shape: str, count: int) -> Callable:
    """`lambda k0, .., k<count-1>: lambda t: <shape>`, compiled once per
    shape while it stays in the cache."""
    # a file name of its own per shape: profilers key functions by (file,
    # line, name) and would merge every `<lambda>` under one name; and the
    # factory is named `bind`, apart from the function it returns on the
    # same line, since every form that reads a tree calls it
    filename = f"<bsym.expr coefficient #{next(_compiled_count)}>"
    params = ", ".join(f"k{i}" for i in range(count))
    factory = eval(compile(f"lambda {params}: lambda t: {shape}", filename, "eval"), _GLOBALS)  # noqa: S307
    factory.__code__ = factory.__code__.replace(co_name="bind")
    return factory


def _coefficient(e: Expr) -> Callable[[float], float]:
    """The unchecked function t -> e(t): its shape's function, compiled
    once per shape, bound to the constants of e's record on each call, so
    the record is the one store of a tree's values.

    The constants are read at run time where a literal would have been
    folded at compile time: folding runs the same IEEE operations, and
    skips an operation that would raise (1/0, 10.0**400), so the values
    and errors are those of the tree's own literal code."""
    code, consts, _ = _tree(e)
    return _shape_factory(code, len(consts))(*consts)


@lru_cache(maxsize=None)
def _wrapper(form: CheckedForm) -> Callable:
    """`form`'s factory over its coefficient functions c0, c1, .., which
    come before its `env` parameters."""
    source = _FACTORY.format(
        params=form.params(),
        args=form.args,
        source=textwrap.indent(form.source("return ", True), " " * 8),
    )
    filename = f"<bsym.expr checked #{next(_compiled_count)}>"
    built: dict = {}
    exec(compile(source, filename, "exec"), _GLOBALS, built)  # noqa: S102
    return built["factory"]


@dataclass(frozen=True)
class Bound:
    """`form` bound to its coefficient functions and `env` values; called, it runs its wrapper."""

    form: CheckedForm
    coefficients: tuple
    env: tuple

    @cached_property
    def _checked(self) -> Callable:
        return _wrapper(self.form)(*self.coefficients, *self.env)

    def __call__(self, *args):
        return self._checked(*args)


def checked_factory(form: CheckedForm, *coefs: Expr) -> Callable[..., Bound]:
    """The factory of `form`'s `Bound` over the coefficients, each bound to
    its function, compiled once per shape with the tree's constants bound.
    A coefficient evaluation that divides by zero, overflows, fails in a
    math function or gives a non-finite value raises EvalError, before
    the form's value is computed; coefficients are evaluated in order."""
    fns = tuple(map(_coefficient, coefs))
    return lambda *env: Bound(form, fns, env)


_VALUE = CheckedForm(None, "f0", 1)


def as_callable(e: Expr) -> Callable[[float], float]:
    """A fast float->float form of the expression with checked evaluation."""
    return _wrapper(_VALUE)(_coefficient(e))


# --- Printing -------------------------------------------------------------

_POW_SAFE = (Var, Call, Const)  # already printable as a primary


def _fmt_number(v: float) -> str:
    if math.copysign(1.0, v) < 0:  # includes -0.0, whose sign matters under ^
        return f"(-{_fmt_number(-v)})"
    if v.is_integer() and v < 1e16:
        return str(int(v))
    s = repr(v)
    if "e" in s or "E" in s:
        # the grammar has no scientific notation; expand exactly
        s = format(Decimal(v), "f")
    return s


def _fmt(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        return f"-({_fmt(node.arg, 0)})"
    if isinstance(node, Pow):
        base = _fmt(node.base, 0)
        if not isinstance(node.base, _POW_SAFE):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _fmt(node.left, prec)
        # all four associate to the left in floats, (t*3)/t != t*(3/t): a
        # right operand of the same level keeps its parentheses
        right = _fmt(node.right, prec + 1)
        s = f"{left} {node.op} {right}"
        if prec < parent_prec:
            s = f"({s})"
        return s
    raise TypeError(f"not an AST node: {node!r}")


def format_expr(node: Expr) -> str:
    """Render a tree back to parseable DSL source."""
    return _fmt(node, 0)


# --- Parity ---------------------------------------------------------------

# the sampled fallback's points, 64 draws of one generator at import
_SAMPLE_POINTS = tuple(map(random.Random(424243).uniform, [-4.0] * 64, [4.0] * 64))
_SAMPLE_TOL = 1e-10


def structural_parity(e: Expr) -> Optional[Parity]:
    """e's parity by the structural rules, None where they are inconclusive."""
    return _tree(e)[2]


def sampled_parity(e: Expr) -> Parity:
    """Classify by comparing f(t) with f(-t) at the 64 fixed points of [-4, 4].

    Even (checked first) requires |f(-t) - f(t)| <= 1e-10*(1+|f(t)|) at every
    point; Odd likewise for the sum.  An identically-zero function therefore
    reports Even.
    """
    fn = as_callable(e)
    even = odd = True
    for t in _SAMPLE_POINTS:
        ft = fn(t)
        fmt = fn(-t)
        scale = _SAMPLE_TOL * (1.0 + abs(ft))
        if abs(fmt - ft) > scale:
            even = False
        if abs(fmt + ft) > scale:
            odd = False
        if not (even or odd):
            return Parity.NEITHER
    return Parity.EVEN if even else Parity.ODD


# memoized per tree, where the records are not: a zero's sign can change
# a value only between 0.0 and -0.0, which compare equal, and no error, so
# trees equal up to a zero's sign share a parity
@lru_cache(maxsize=32)
def detect_parity(e: Expr) -> Parity:
    """Structural rules first; sampling at 64 fixed points of [-4, 4] as
    fallback.  The points take no seed, so the parity of an expression is a
    function of its tree alone.
    """
    found = structural_parity(e)
    return found if found is not None else sampled_parity(e)
