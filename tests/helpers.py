"""Shared test utilities: an independent Simpson oracle, random
parity-conforming problem generators, the (A, B) path of a coefficient
pair's own trees, a call counter for work-count tests and the environment
for running `python -m bsym` in a child process.

The Simpson integrator is deliberately primitive (fixed step, no adaptivity,
no shared code with the package) so it can serve as an independent check of
the adaptive quadrature.
"""

from __future__ import annotations

import math
import os
import random
import sys
from pathlib import Path

import bsym
from bsym import (
    EvalError,
    ExponentClass,
    NoConvergence,
    Parity,
    ProblemSpec,
    classify_exponent,
    parse_expr,
    quad,
)
from bsym.expr import checked_factory
from bsym.quad import DEFAULT_QUAD_CONFIG
from bsym.stepper import StepUnderflow, integrate


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

def own_path(a, b, mult: float, t_end: float, cfg=DEFAULT_QUAD_CONFIG):
    """The (A, B) path from 0 to t_end integrated over the trees a and b
    themselves, with no sign taken out of either; its failures are raised
    as `quad.nested_path` reports them."""
    rhs = checked_factory(quad._AB, a, b)(mult)
    try:
        return integrate(rhs, 0.0, (0.0, 0.0), t_end, cfg.control())
    except StepUnderflow as exc:
        raise NoConvergence(str(exc)) from None
    except OverflowError as exc:  # exp(mult * A)
        raise EvalError(f"integrand overflow: {exc}") from None


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


# --- child processes ------------------------------------------------------------

def cli_env(env=None) -> dict:
    """env (default: this process's) with the directory this process
    imports bsym from first on PYTHONPATH, so that `python -m bsym` in a
    child runs the same package, installed or not."""
    env = dict(os.environ if env is None else env)
    root = str(Path(bsym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env
