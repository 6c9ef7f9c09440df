"""Shared test utilities: an independent Simpson oracle, random
parity-conforming problem generators, the (A, B) path of a coefficient
pair's own trees, two problems that fail only at a dense stage, the
sign-split reference for comparing trees up to their top minuses, a call
counter and a tree-walk counter for work-count tests, the benchmark's
input generator and the
environment for running `python -m bsym` in a child process.

The Simpson integrator is deliberately primitive (fixed step, no adaptivity,
no shared code with the package) so it can serve as an independent check of
the adaptive quadrature.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import sys
from pathlib import Path

import bsym
from bsym import (
    EvalError,
    expr,
    ExponentClass,
    Parity,
    ProblemSpec,
    classify_exponent,
    parse_expr,
    quad,
)
from bsym.expr import Neg, checked_factory
from bsym.stepper import integrate


def simpson(f, a: float, b: float, h: float = 1e-5) -> float:
    """Composite Simpson's rule with step ~h."""
    if a == b:
        return 0.0
    n = max(2, int(round(abs(b - a) / h)))
    if n % 2:
        n += 1
    hh = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * hh) * (4 if i % 2 else 2)
    return s * hh / 3.0


# --- random expressions from the parity-closed DSL fragment -----------------
#
# Atoms are scaled so that antiderivatives of the a-coefficient stay small
# on [-4, 4]; this keeps exp((n-1)*A) and hence B at magnitudes where the
# default quadrature tolerances leave comfortable headroom under the 1e-8
# identity budget.

EVEN_ATOMS = ("cos(t)", "sin(t)^2", "t^2/9", "cos(2*t)", "sin(t)*sin(t)")
ODD_ATOMS = ("sin(t)", "t/3", "t^3/27", "sin(t)*cos(t)", "sin(2*t)", "sin(t)^3")


def _coeff(rng: random.Random, lo: float = 0.2, hi: float = 1.0) -> str:
    c = round(rng.uniform(lo, hi), 2)
    return f"{c}"


def random_even_source(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"{_coeff(rng)}*{rng.choice(EVEN_ATOMS)}"
    if kind == 1:
        return f"{_coeff(rng, 0.2, 0.6)}*{rng.choice(EVEN_ATOMS)} + {_coeff(rng, 0.2, 0.6)}*{rng.choice(EVEN_ATOMS)}"
    if kind == 2:
        return f"{_coeff(rng)}*{rng.choice(ODD_ATOMS)}*{rng.choice(ODD_ATOMS)}"
    return _coeff(rng)  # constant


def random_odd_source(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return f"{_coeff(rng)}*{rng.choice(ODD_ATOMS)}"
    if kind == 1:
        return f"{_coeff(rng, 0.2, 0.6)}*{rng.choice(ODD_ATOMS)} - {_coeff(rng, 0.2, 0.6)}*{rng.choice(ODD_ATOMS)}"
    return f"{_coeff(rng)}*{rng.choice(EVEN_ATOMS)}*{rng.choice(ODD_ATOMS)}"


def random_neither_source(rng: random.Random) -> str:
    return f"{random_even_source(rng)} + {random_odd_source(rng)}"


def random_source(rng: random.Random) -> str:
    return rng.choice((random_even_source, random_odd_source, random_neither_source))(rng)


# sin(t) plus a narrow bump that falls between the parity sampler's fixed
# points: classified odd, but the symmetry relations genuinely fail
SPIKED_B = "sin(t) + exp(-(10000*(t - 0.86)^2))"

# even at the parity sampler's first point, t = -3.6130574786413927, where
# sin(t)*(t^2 - 13.05..) vanishes, and odd nowhere: a sampler that checked
# that one point alone read it EVEN
ONE_POINT_EVEN = "cos(t) + sin(t)*(t^2 - 13.054184343966497)"


# --- random hypothesis-conforming problems -----------------------------------

N_POOL = {
    ExponentClass.EVEN_OVER_ODD: ((2, 1), (0, 1), (2, 3), (4, 3), (-2, 3)),
    ExponentClass.ODD_OVER_ODD: ((3, 1), (-1, 1), (5, 3), (1, 3), (3, 5)),
    ExponentClass.ODD_OVER_EVEN: ((1, 2), (3, 2), (-1, 2)),
    ExponentClass.ONE: ((1, 1),),
}

LEMMA_EXPONENTS = ((-1, 1), (0, 1), (2, 1), (3, 1), (2, 3), (5, 3))

_GEN_BY_PARITY = {
    Parity.EVEN: random_even_source,
    Parity.ODD: random_odd_source,
}


def _random_d(cls, rng: random.Random) -> float:
    d = rng.uniform(0.4, 1.8)
    if cls is not ExponentClass.ODD_OVER_EVEN and rng.random() < 0.5:
        d = -d
    return d


def conforming_problem(case, rng: random.Random) -> ProblemSpec:
    """A random problem satisfying the case's class and parity hypotheses."""
    cls = case.cls if case.cls is not None else rng.choice(tuple(N_POOL))
    n = classify_exponent(*rng.choice(N_POOL[cls]))
    if case.parity is not None:
        a_src = _GEN_BY_PARITY[case.parity[0]](rng)
        b_src = _GEN_BY_PARITY[case.parity[1]](rng)
    else:
        a_src = random_source(rng)
        b_src = random_source(rng)
    return ProblemSpec(parse_expr(a_src), parse_expr(b_src), n, _random_d(cls, rng))


def random_problem(rng: random.Random) -> ProblemSpec:
    """A random problem with no parity discipline, any exponent class."""
    cls = rng.choice(tuple(N_POOL))
    n = classify_exponent(*rng.choice(N_POOL[cls]))
    return ProblemSpec(
        parse_expr(random_source(rng)),
        parse_expr(random_source(rng)),
        n,
        _random_d(cls, rng),
    )


# --- paths of the coefficients' own trees ------------------------------------------

def own_path(a, b, mult: float, t_end: float):
    """The (A, B) path from 0 to t_end integrated over the trees a and b
    themselves, with no sign taken out of either; its failures are raised
    as `quad.nested_path` reports them."""
    rhs = checked_factory(quad._ab_form(1), a, b)(mult)
    try:
        return integrate(rhs, (0.0, 0.0), t_end, quad.QUAD_CONTROL)
    except OverflowError as exc:  # exp(mult * A)
        raise EvalError(f"integrand overflow: {exc}") from None


def dense_stage_failures() -> dict:
    """name -> (problem payload, step, message) of two problems whose
    (A, B) path toward 1.05, the search radius of `bsym solve --t-min -1
    --t-max 1`, meets a failure only at the dense stages of one step,
    which DOP853's loop leaves to the step's first read: b = sin(t) +
    0*(1/(t - s)), sin(t) at every float but s, step 3's 14th-stage time
    t + 0.1 h, where it divides by zero; and a = 1000 (0.4 - t), b = 0,
    m = 9, where 9 A is at most 708.3 at every stage the loop evaluates
    and reaches 719 at step 3's 15th stage, past exp's range.
    The levels g0/m that the validity search walks toward are out of B's
    reach, so the walk opens every step."""
    step = 3
    path = quad.nested_path(parse_expr("cos(t)"), parse_expr("sin(t)"), (2.0,), 1.05)
    s = path.ts[step] + 0.1 * path.hs[step]
    return {
        "division": (
            {"a": "cos(t)", "b": f"sin(t) + 0*(1/(t - {s!r}))", "n": "3", "d": "0.1"},
            step,
            f"division by zero at t={s!r}",
        ),
        "overflow": (
            {"a": "1000*(0.4 - t)", "b": "0", "n": "10", "d": "1"},
            step,
            "integrand overflow: math range error",
        ),
    }


def split_sign(e):
    """(sign, e0) with e = sign * e0, sign = +-1.0 and e0 the tree under the
    unary minuses at the top of e (all of them, so --t is t): the
    reference by which two trees are one coefficient up to its sign."""
    sign = 1.0
    while isinstance(e, Neg):
        sign, e = -sign, e.arg
    return sign, e


# --- work counts ----------------------------------------------------------------

def count_calls(monkeypatch, module: str, name: str) -> list:
    """Record the arguments of every call of `module.name`.

    The counter replaces the function in every loaded bsym module namespace
    that holds it, since the package binds names with `from .x import f`.
    """
    orig = getattr(sys.modules[module], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "bsym" or key.startswith("bsym."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def counting_walks(monkeypatch) -> list:
    """Record the source of every tree `expr._describe` walks from here
    on, once per walk of a whole tree."""
    walked, describe, depth = [], expr._describe, [0]

    def counting(node, consts):
        if not depth[0]:
            walked.append(node.source)
        depth[0] += 1
        try:
            return describe(node, consts)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expr, "_describe", counting)
    return walked


# --- the benchmark's inputs -----------------------------------------------------

def bench_inputs():
    """`bench/inputs.py`, the benchmark's seeded input generator, as a module."""
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)  # its dataclasses look their module up by name
    return gen


# --- child processes ------------------------------------------------------------

def cli_env(env=None) -> dict:
    """env (default: this process's) with the directory this process
    imports bsym from first on PYTHONPATH, so that `python -m bsym` in a
    child runs the same package, installed or not."""
    env = dict(os.environ if env is None else env)
    root = str(Path(bsym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env
