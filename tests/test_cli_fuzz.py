"""Every subcommand, run on arbitrary problem JSON, exits 0-4 without a traceback.

Coefficients come from the DSL grammar, kept to magnitudes the oracle
integrates in a moment (a call's argument is t, -t or t/2; '^' takes at
most 2 and applies to a leaf or a call), or are junk: other text, numbers,
null, lists.  Exponents and initial values are anything JSON can hold.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from bsym.cli import main
from bsym.expr import FUNCTIONS
from bsym.symmetry import CATALOG

_leaf = st.sampled_from(["t", "0", "1", "2", "0.5", "3.25"])
_call = st.tuples(st.sampled_from(FUNCTIONS), st.sampled_from(["t", "-t", "t/2", "1"])).map(
    lambda fa: f"{fa[0]}({fa[1]})"
)
_atom = st.one_of(_leaf, _call)
_power = st.one_of(_atom, st.tuples(_atom, st.integers(0, 2)).map(lambda ak: f"{ak[0]}^{ak[1]}"))


def _extend(children):
    return st.one_of(
        children.map(lambda c: f"-{c}"),
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda x: f"({x[0]} {x[1]} {x[2]})"),
    )


DSL = st.recursive(_power, _extend, max_leaves=3)
JUNK = st.one_of(
    st.text(alphabet="t0123456789.+-*/^() sincoexph", max_size=12),
    st.integers(-3, 3),
    st.none(),
    st.lists(st.integers(), max_size=2),
)
_N = st.one_of(
    st.integers(-4, 5),
    st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
WELL_FORMED = st.fixed_dictionaries({
    "a": DSL,
    "b": DSL,
    "n": _N,
    "d": st.tuples(st.floats(min_value=0.05, max_value=3.0), st.booleans()).map(
        lambda dn: -dn[0] if dn[1] else dn[0]
    ),
})

COEF = st.one_of(DSL, JUNK)
EXPONENT = st.one_of(
    _N,
    st.sampled_from(["", "x", "1.5", "2/", " 3 ", "1/0", "-2/-4", "1/2/3"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)
INITIAL = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(-3, 3),
    st.sampled_from([1e-300, -1e300, float("nan"), float("inf"), "1", "x", None, True, [1]]),
)
_FIELDS = st.fixed_dictionaries({"a": COEF, "b": COEF, "n": EXPONENT, "d": INITIAL})


def _rekeyed(fields_key):
    """The fields without one key, or with the pair output's "relation"
    key or an unknown key added."""
    fields, key = fields_key
    fields = {k: v for k, v in fields.items() if k != key}
    if key in ("relation", "x"):
        fields[key] = 1
    return fields


ANY_PROBLEM = st.one_of(
    _FIELDS,
    st.tuples(_FIELDS, st.sampled_from(["a", "b", "n", "d", "relation", "x"])).map(_rekeyed),
    st.sampled_from(["[]", "nonsense", ""]),
)
_CASES = [c.id for c in CATALOG]


def _command(draw, problem: str, out: str, valid: bool) -> list:
    """A command line for one subcommand; with valid set, every option
    but the problem itself is in range.  A time is passed as `--t-min x`
    or as `--t-min=x`, both of which must carry "-inf" or "-1e-05" to the
    option."""
    kind = draw(st.sampled_from(["solve", "cases", "pair", "verify", "identities"]))
    if valid:
        case = st.sampled_from(_CASES)
        time = st.floats(min_value=-3.0, max_value=3.0)
        points = st.integers(3, 30)
        tol = st.just(1e-6)
    else:
        case = st.sampled_from(_CASES + ["all", "T9", ""])
        time = st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.sampled_from(["nan", "inf", "-inf"]))
        points = st.integers(-1, 30)
        tol = st.sampled_from([1e-6, 0.0, -1.0, float("inf"), 1e-12])
    method = draw(st.sampled_from(["closed", "oracle"]))

    def option(name, value):
        return [f"{name}={value}"] if draw(st.booleans()) else [name, str(value)]

    if kind == "solve":
        t_min, t_max = draw(time), draw(time)
        if valid:
            t_min, t_max = min(t_min, t_max) - 0.1, max(t_min, t_max)
        return ["solve", "--problem", problem, *option("--t-min", t_min), *option("--t-max", t_max),
                "--points", str(draw(points)), "--method", method, "--out", out]
    if kind == "cases":
        return ["cases", "--problem", problem]
    if kind == "pair":
        return ["pair", "--problem", problem, "--case", draw(case), "--out", out]
    if kind == "verify":
        which = draw(st.one_of(st.just("all"), case))
        return ["verify", "--problem", problem, "--case", which, "--points", str(draw(points)),
                "--tol", str(draw(tol)), "--method", method, "--report", out]
    coefs = DSL if valid else st.one_of(DSL, JUNK.map(str))
    a, b = draw(coefs), draw(coefs)
    n = str(draw(_N if valid else EXPONENT))
    return ["identities", *option("--t-max", abs(draw(time)) + 0.1 if valid else draw(time)),
            "--samples", str(draw(st.integers(1, 6) if valid else st.integers(-1, 6))), "--", a, b, n]


def _run(payload, draw, valid: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        problem = os.path.join(tmp, "problem.json")
        with open(problem, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        argv = _command(draw, problem, os.path.join(tmp, "out"), valid)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code in (1, 2, 3):
        assert err.getvalue().startswith("bsym: "), (argv, err.getvalue())


# derandomized: tier-1 runs the same examples every time, in about a second
@settings(max_examples=200, deadline=None, derandomize=True)
@given(WELL_FORMED, st.data())
def test_every_subcommand_exits_0_to_4_on_a_well_formed_problem(payload, data):
    _run(payload, data.draw, valid=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_PROBLEM, st.data())
def test_every_subcommand_exits_0_to_4_on_any_problem_json(payload, data):
    _run(payload, data.draw, valid=False)
