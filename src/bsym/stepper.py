"""Embedded Dormand-Prince 5(4) stepper with continuous-extension dense output.

Shared integration core: the quadrature module drives it over the
integral-accumulator system, the direct-ODE oracle drives it over the
scalar Bernoulli equation.  Each caller passes its own `StepControl`.

States are plain tuples of floats, which beats array machinery at these
sizes.  Negative spans are integrated by stepping with negative h; nodes
then appear in decreasing t order.  A run ends on t_end, at the first
accepted state with |y_0| past the caller's `limit` (`DensePath.blew_up`),
or in a `StepUnderflow` or `StepBudgetExceeded`: `errors.StepFailure`s
that carry the partial path.

The right-hand side is called as f(t, y_0): component 0 of the state, the
only one it reads, as a float, and it returns the derivatives of all the
components.  Every other component, such as the quadrature's B, which
never feeds back, is a pure quadrature: it gets no stage states, only its
new value and its error term.  The adaptive loop is generated from one
template (`_KERNEL`), with every state component and stage value in a
local of its own, so a step builds no state tuple, does no per-component
zip or generator work and calls no max or min.  `_kernel` renders it
once per state dimension and checked form (`expr.CheckedForm`), compiled
lazily, once per process.  At each stage the loop runs the form's code,
the source `CheckedForm.source` renders for the form's wrapper too: it
calls the coefficient functions inline, checks their values at the
stage's time, and assigns the form's value on the stage state to the
stage.  An `expr.Bound`, the plain data of a form and its bound values,
runs as its own form, so its checked wrapper never compiles; any other
callable, such as a test's reference system or a tracer's counting
wrapper (which may call a `Bound`), is bound as f to the call form
`_CALL`, whose value calls f.  DP5's seventh stage is at the sixth's time
(c7 = c6 = 1), so it recomputes only the value on the new state: 1 + 5
evaluations of each coefficient per attempted step, and 1 + 6 calls of f
under the call form.  Stage 2 has zero weight in the new state, the error
estimate and the dense output, and only component 0 feeds a later stage
state: a form that states its component-0 value as `CheckedForm.head`
computes only that there, on the coefficients it reads, so the
quadrature's b is evaluated 1 + 4 times per attempted step.  A loop's file name is `<bsym.stepper DP5 kernel
dim=N form #K>`, K counting the loops the process has compiled.

Every loop makes paths of the dimension's `DensePath` subclass
(`_path_class`, file `<bsym.stepper DensePath dim=N>`), whose `values`
walk and `_extension` unpack a step's coefficients once and evaluate each point's
Horner form as straight-line code over locals; step i's stages of
component k are one tuple, `ks[i][k]`.  The walk is one template,
`_DENSE_PATH`, rendered with a `Reader`'s code at each point: the state
itself for `values`, or what a caller computes from it, such as the
closed form's y, which `DensePath.read` runs in the same one walk (file
`<bsym.stepper DensePath dim=N reader #K>`).  Every source is registered
in `linecache`, so tracebacks and profiles show the generated lines; each
coefficient function keeps a profiler entry of its own.  Paths (nodes,
states, stages, `blew_up` flag) are bit-identical to those of the plain
component-wise loop, and dense values to those of the column-by-column
extension, which the tests keep as the references.

Dense output is the 4th-order continuous extension of each accepted step,
built from the stages the step already computed, so a query between nodes
costs no right-hand-side evaluation.  `DensePath.values` answers times that
run outward from the path's start in one walk over its steps, and
`DensePath.first_crossing` locates events on the same per-step
polynomials, at the error scale of the control the path was integrated
at.  `grid_values` answers a grid that straddles t = 0 from one
0-anchored path per side, split by one index sort and a bisect, each
side in one ordered walk that reads states or runs a caller's read.

`PathView` is a path's t-mirror, read through t -> -t with its
components' signs changed, a view that queries its source and copies
nothing: the one place that knows how a reflection acts on a path's
values and crossings.  Its reads run its source's walk, to which it
passes r = -1 and the signs.  The quadrature reads a problem's side
toward -t through the t-mirror of the problem's own path toward t where
`exponent.reflections` certifies it (`quad.ab_sides`); no path is kept
across problems.
The identities and the oracle need no view: under a certified mirror they
read at -t on the same path where they would read at t < 0, and
`symmetry.verify_cases` answers a certified partner from p1's values.
The crossing walk skips a step that cannot reach the level by a bound on
how far its extension moves, centred on the step's first stage
(`_reach`).
"""

from __future__ import annotations

import itertools
import linecache
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import StepFailure
from .expr import Bound, CheckedForm

__all__ = [
    "StepControl",
    "DensePath",
    "PathView",
    "Reader",
    "StepUnderflow",
    "StepBudgetExceeded",
    "integrate",
    "grid_values",
]

State = tuple
RHS = Callable[[float, float], Sequence[float]]  # f(t, y_0)

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order minus embedded fourth-order weights (k7 is the FSAL stage)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


@dataclass(frozen=True)
class StepControl:
    """Tolerances and limits of one adaptive integration.

    A step is accepted when its error, scaled per component by
    abs_tol + rel_tol * |y|, has an RMS norm of at most 1.  More than
    max_steps step attempts raise StepBudgetExceeded, and a step below
    min_step_fraction of the requested span raises StepUnderflow.
    """

    rel_tol: float
    abs_tol: float
    max_steps: int = 1_000_000
    min_step_fraction: float = 2.0**-40  # of the requested span

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 < self.min_step_fraction < 1.0:
            raise ValueError("min_step_fraction must lie strictly between 0 and 1")


class StepUnderflow(StepFailure):
    """Step size fell below the allowed minimum; carries the partial path."""

    def __init__(self, path: "DensePath"):
        super().__init__(f"step size underflow at t={path.t_reached!r}")
        self.path = path


class StepBudgetExceeded(StepFailure):
    """max_steps exhausted before reaching the target; carries the partial path."""

    def __init__(self, path: "DensePath"):
        super().__init__(f"step budget exhausted at t={path.t_reached!r}")
        self.path = path


# Continuous extension of DP5 (Hairer-Norsett-Wanner, Solving ODEs I, II.6;
# Shampine 1986): y(t0 + th*h) = y0 + h * sum_s k_s * sum_j P[s][j] * th^(j+1)
# over the stages k1, k3, k4, k5, k6, k7 (k2 has zero weight).  At th = 1 the
# rows sum to _B1.._B6 and 0 for k7, so the extension ends on the step's node.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# Each column j >= 1 of _P sums to 0, so the extension's coefficient
# h * sum_s P[s][j] * k_s is h * (sum_s P[s][j] * k1 + sum_{s>=3} P[s][j] *
# (k_s - k1)), and `_reach` bounds sum_j |c_j|, how far a component can move
# on the step, centred on k1.  The 1e-12 margin covers the rounding of both
# sums, whose uncentred terms are at most 67 times the bound, so the bound
# never falls below the extension's own
_W0 = (1.0 + 1e-12) * sum(abs(sum(column)) for column in zip(*_P))
_V = tuple((1.0 + 1e-12) * sum(map(abs, row)) for row in _P[1:])


def _reach(h: float, stages: tuple) -> float:
    """A bound on sum_j |c_j| of the step's extension, from its step h and
    its stages (k1, k3, k4, k5, k6, k7) of one component."""
    k1, k3, k4, k5, k6, k7 = stages
    v3, v4, v5, v6, v7 = _V
    return abs(h) * (
        _W0 * abs(k1)
        + v3 * abs(k3 - k1) + v4 * abs(k4 - k1) + v5 * abs(k5 - k1) + v6 * abs(k6 - k1) + v7 * abs(k7 - k1)
    )


@dataclass
class DensePath:
    """Accepted nodes plus each step's stages, queryable between nodes.

    `values` evaluates the 4th-order continuous extension of the bracketing
    step at each of a run of times, walking the steps once; `value` is its
    one-time call.  `first_crossing` finds where a component first reaches
    a level on the same extensions.  A step's coefficients are built on its
    first query and cached, so a path queried at only a few points pays
    for only those steps; a crossing is cached once found, so a level that
    a problem's two sides read through a t-mirror is walked once.

    `integrate` returns an instance of the subclass `_path_class` renders
    for the state's dimension, which defines `values` and `_extension`; `ctl`
    is the control the path was integrated at, whose tolerances
    `first_crossing` reads.  `ks[i][k]` is (k1, k3, k4, k5, k6, k7) of step
    i and component k, the one tuple every reader of the stages takes.
    """

    ctl: StepControl
    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    ks: list = field(default_factory=list)
    blew_up: bool = False  # |y_0| passed integrate's limit, ending the path early
    _coefs: dict = field(default_factory=dict, repr=False, compare=False)
    _crossings: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def t_reached(self) -> float:
        return self.ts[-1]

    @property
    def y_end(self) -> State:
        return self.ys[-1]

    def value(self, t: float) -> State:
        """State at t within the covered range; a node reads as stored."""
        return self.values([t])[0]

    def read(self, reader: Reader, qs: Sequence[float], *env, **view) -> list:
        """What `reader` computes at times that run outward from ts[0], in
        one walk: `values`' walk, rendered with the reader's code at each
        point and bound to `env`.  A `PathView` passes r = -1 and its
        signs as `view`."""
        return _walk(len(self.ys[0]), reader)(self, qs, *env, **view)

    # bench/tracing.py wraps `DensePath.value` and `DensePath.value_refined`
    # by name; the one dense-output query keeps answering to both, on the
    # base class, so traced runs still start and see every subclass's calls
    value_refined = value

    def first_crossing(self, k: int, level: float) -> Optional[float]:
        """First t past ts[0] where component k reaches `level`, or None.

        Event location on the continuous extension (Hairer-Norsett-Wanner
        II.6; Shampine and Thompson 2000), step by step from ts[0], where
        y_k must differ from level.  On a step, y_k - level is a quartic in
        the step fraction; its first root is bisected to full resolution.
        A stationary point within abs_tol + rel_tol * |y_k| of level, the
        error the path's control allowed y_k, counts as a tangent crossing.
        Each answer is cached on the path per (k, level).
        """
        key = (k, level)
        if key not in self._crossings:
            self._crossings[key] = self._walk(k, level)
        return self._crossings[key]

    def _walk(self, k: int, level: float) -> Optional[float]:
        """`first_crossing`, uncached: one walk over the steps."""
        ts, ys, ks = self.ts, self.ys, self.ks
        abs_tol, rel_tol = self.ctl.abs_tol, self.ctl.rel_tol
        side = 1.0 if ys[0][k] > level else -1.0
        for i in range(len(ts) - 1):
            # a step whose stages cannot carry y_k to the level needs no
            # extension: the skip test below would pass it over anyway
            reach = _reach(ts[i + 1] - ts[i], ks[i][k])
            y_i = ys[i][k]
            if abs(y_i - level) <= reach + abs_tol + rel_tol * (abs(y_i) + reach):
                y0, *c = (self._coefs.get(i) or self._extension(i))[k]
                vary = sum(map(abs, c))  # bounds |y_k - y0| on the step
                tol = abs_tol + rel_tol * (abs(y0) + vary)
                if abs(y0 - level) <= vary + tol and (found := _roots([y0 - level, *c], tol)):
                    return ts[i] + found[0] * (ts[i + 1] - ts[i])
            if side * (ys[i + 1][k] - level) <= 0.0:
                return ts[i + 1]
        return None


@dataclass(frozen=True, eq=False)
class PathView:
    """Read-only t-mirror of a `source` path, of any number of
    components: at t it holds signs[k] * source(-t)[k] in each component
    k.  The reflection rule (`exponent.reflections`) builds it for the
    quadrature's (A, B) paths (`quad.ab_sides`), to read one problem's
    path toward t on its side toward -t.  No other code reads the signs:
    a caller queries a view as it queries any path.  Its contract is also
    why the oracle's fresh paths of two problems that reflect each other
    are each other's views, so that `symmetry.verify_cases` may answer a
    certified partner from p1's values and `oracle.solve_on_grid` an even
    solution's side toward -T from its path toward T.

    Let `source` be the kernel's path of g from 0 toward T, and S the
    diagonal of the signs.  If f(-t, S*y) = -S*g(t, y) bit for bit, the
    kernel's path of f from 0 toward -T is this view: its h, nodes, states
    and stages are the source's with their signs changed, exactly, since
    negation is exact and the step control reads only magnitudes.  Its
    `values` then equal that path's, because a query's step fraction does
    not change under negation either; and since a quartic's roots do not
    either, that path's first crossing of a level in component k is minus
    the source's first crossing of signs[k] * level.  For a coefficient
    of structural parity eps this assumes f(-t) = eps * f(t)
    bit for bit, that is a C library that evaluates sin and sinh as odd,
    cos and cosh as even and (-x)**k as (-1)**k * x**k exactly, which the
    tests check on fixed arguments.  No node, state or stage is copied.
    """

    source: DensePath
    signs: tuple

    @property
    def t_reached(self) -> float:
        return -self.source.t_reached

    def values(self, qs: Sequence[float]) -> list[State]:
        """States at times that run outward from the start, as `DensePath.values`."""
        return self.read(_SIGNED, qs)

    def read(self, reader: Reader, qs: Sequence[float], *env) -> list:
        """What `reader` computes at times that run outward from the start,
        as `DensePath.read`: the source's walk at -t, which reads the
        components through r = -1 and the signs."""
        return self.source.read(reader, [-t for t in qs], *env, r=-1.0, signs=self.signs)

    def first_crossing(self, k: int, level: float) -> Optional[float]:
        """First t past 0 where component k reaches `level`, or None, as
        `DensePath.first_crossing`: minus the source's first crossing of
        signs[k] * level, which the source finds at its own control and
        caches."""
        found = self.source.first_crossing(k, self.signs[k] * level)
        return None if found is None else -found


def _roots(c: Sequence[float], tol: float = 0.0) -> list:
    """Increasing roots in (0, 1] of the polynomial p with ascending
    coefficients c, bisected to full float resolution between stationary
    points (the derivative's roots), and the stationary points with |p| <= tol."""
    if len(c) < 2:
        return []
    ends = [0.0, *_roots([j * cj for j, cj in enumerate(c)][1:]), 1.0]
    found = []
    for lo, hi in zip(ends, ends[1:]):
        p_lo, p_hi = _horner(c, lo), _horner(c, hi)
        if p_lo > 0.0 >= p_hi or p_lo < 0.0 <= p_hi:
            sign = 1.0 if p_lo > 0.0 else -1.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if sign * _horner(c, mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            found.append(hi)
        elif hi < 1.0 and abs(p_hi) <= tol:
            found.append(hi)
    return found


def _horner(c: Sequence[float], x: float) -> float:
    acc = 0.0
    for cj in reversed(c):
        acc = acc * x + cj
    return acc


def integrate(
    f: RHS,
    y0: Sequence[float],
    t_end: float,
    ctl: StepControl,
    limit: float = math.inf,
) -> DensePath:
    """Integrate y' = f(t, y_0) from t = 0 to t_end adaptively.

    f receives state component 0 as a float and returns the derivatives of
    all the components; the others get no stage states, only their new
    values and error terms.  An `expr.Bound` runs through its form's own
    loop, which evaluates its coefficients inline and never calls f; any
    other callable is bound to the call form, whose loop calls it at
    every stage.  Returns the dense path of accepted steps, which records
    `ctl` and keeps step i's stages of component k as `ks[i][k]`.  The
    final step is clamped to land exactly on t_end.  The first accepted
    state with |y_0| > limit ends the path with path.blew_up set.  Raises
    StepUnderflow or StepBudgetExceeded when the step size or budget runs
    out, and ValueError for an empty state or a non-finite t_end.
    """
    y0 = tuple(y0)
    if not y0:
        raise ValueError("the state needs at least one component")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, not {t_end!r}")
    bound = f if isinstance(f, Bound) else Bound(_CALL, (), (f,))
    kernel = _kernel(len(y0), bound.form)
    return kernel(y0, t_end, ctl, limit, *bound.coefficients, *bound.env)


# The dense output and the adaptive loop, written once for every state
# dimension.  `vec<e>` expands to the tuple of e over the components and
# `sum<e>` to their sum from the first component on, with each `_i` suffix
# replaced by the component index: y_i is a state component, k2_i a stage
# value and z_i a component of the proposed new state.  A macro ends at
# the first `>`, so the comparisons inside one are written with `<`.  Each
# expression keeps the operation order of the component-wise loop and the
# column-by-column extension kept in tests/test_stepper.py, which the tests
# require to be reproduced bit for bit.  The builtins max and min are
# written out as the comparisons they make: max(a, b) is `b if a < b else a`
# and min(a, b) is `b if b < a else a`, NaN included.  _Psj is _P[s][j].
# The walk runs a `Reader`'s code at each time, `{point}`, after its
# state's components are in y_0, y_1, ..; {params} are the reader's env.
_DENSE_PATH = """\
class DensePath{dim}(DensePath):
    \"""A `DensePath` of {dim}-component states.\"""

    def values(self, qs{params}, r=1.0, signs=vec<1.0>):
        \"""What the reader computes at times that run outward from ts[0],
        in one walk; r and signs are those of the `PathView` it reads
        through, the components' signs unpacked as s_0, s_1, ...

        The first time's step is found by bisection, every later one by
        stepping forward from the last.  A time on a node reads the stored
        state; between nodes the bracketing step's extension is
        evaluated.  Raises ValueError for a time outside the covered range
        or one nearer ts[0] than the time before it.
        \"""
        ts, ys = self.ts, self.ys
        vec<s_i> = signs
        out = []
        append = out.append
        last = len(ts) - 2  # the final step
        if last < 0:
            for t in qs:
                if t != ts[0]:
                    raise ValueError(f"t={t!r} outside integrated range [{ts[0]!r}]")
                vec<y_i> = ys[0]
                {point}
            return out
        direction = 1.0 if ts[-1] >= ts[0] else -1.0
        x_start = x_prev = direction * ts[0]  # x_prev: the time before, as direction * t
        x_end = direction * ts[-1]
        i = -1  # no step located yet
        cached, extension = self._coefs.get, self._extension
        for t in qs:
            x = direction * t
            if not x_prev <= x <= x_end:  # also true for NaN
                if x_start <= x < x_prev:
                    raise ValueError(f"t={t!r} is nearer {ts[0]!r} than the time before it")
                raise ValueError(f"t={t!r} outside integrated range [{ts[0]!r}, {ts[-1]!r}]")
            x_prev = x
            if i < 0 or (x >= x_hi and i < last):
                if i < 0:
                    i = min(bisect_right(ts, x, key=lambda s: direction * s) - 1, last)
                else:
                    i += 1
                    while i < last and direction * ts[i + 1] <= x:
                        i += 1
                t0, t1 = ts[i], ts[i + 1]
                x_hi = direction * t1
                unpacked = False  # on the step's first query between nodes
            if t == t0:
                vec<y_i> = ys[i]
            elif t == t1:
                vec<y_i> = ys[i + 1]
            else:
                if not unpacked:
                    vec<(y0_i, c1_i, c2_i, c3_i, c4_i)> = cached(i) or extension(i)
                    unpacked = True
                th = (t - t0) / (t1 - t0)
                vec<y_i> = vec<y0_i + th * (c1_i + th * (c2_i + th * (c3_i + th * c4_i)))>
            {point}
        return out

    def _extension(self, i):
        \"""Per component (y0, h*c1, .., h*c4) of step i's extension, cached.\"""
        h = self.ts[i + 1] - self.ts[i]
        vec<y_i> = self.ys[i]
        vec<(e1_i, e3_i, e4_i, e5_i, e6_i, e7_i)> = self.ks[i]
        coefs = self._coefs[i] = vec<(
            y_i,
            h * (_P00 * e1_i + _P10 * e3_i + _P20 * e4_i + _P30 * e5_i + _P40 * e6_i + _P50 * e7_i),
            h * (_P01 * e1_i + _P11 * e3_i + _P21 * e4_i + _P31 * e5_i + _P41 * e6_i + _P51 * e7_i),
            h * (_P02 * e1_i + _P12 * e3_i + _P22 * e4_i + _P32 * e5_i + _P42 * e6_i + _P52 * e7_i),
            h * (_P03 * e1_i + _P13 * e3_i + _P23 * e4_i + _P33 * e5_i + _P43 * e6_i + _P53 * e7_i),
        )>
        return coefs
"""


class Reader(NamedTuple):
    """What a path's walk computes at each time it reads.

    `point` is statements, rendered into `DensePath.values`' walk where
    the time's state is in the locals y_0, y_1, ..: they append the
    time's answer to the walk's output with `append`.  They may read the
    time t (the path's own), r (-1.0 through a `PathView`, else 1.0), the
    component signs s_0, s_1, .. and the names in `env`, the values a read
    binds after the times; `names` are (name, object) pairs the code reads
    as globals.  Each
    reader's walk compiles once per state dimension and process.
    """

    point: str
    env: str = ""
    names: tuple = ()


# a path's own states; the same, read through a view's signs
_STATE = Reader("append(vec<y_i>)")
_SIGNED = Reader("append(vec<s_i * y_i>)")

# The loop runs a checked form's (`expr.CheckedForm`) source inline.  f
# reads component 0 alone, so only that component has stage states.
# `stage<kN; time; state>` evaluates stage N at (time, state): it evaluates
# and checks the form's coefficients at the time, held in s, and assigns
# the form's value at the state, held in its state name, to the kN_i.
# `head<kN; time; state>` is a stage whose components past 0 nothing
# reads: DP5 weighs stage 2 by zero in the new state, the error estimate
# and the dense output, and only component 0 has stage states.  It
# evaluates the form's `head` alone, on the coefficients that reads, where
# the form states one, and is a full stage otherwise.
# `reuse<kN; time; state>` is a stage at the time of the stage before it:
# it assigns only the value, on the coefficients evaluated there.  An
# accepted step's stages are stored as one tuple per component; {params}
# are the form's bound arguments.
_KERNEL = """\
def dp5_dim{dim}(y0, t_end, ctl, limit{params}):
    path = DensePath{dim}(ctl=ctl)
    append_t, append_y, append_k = path.ts.append, path.ys.append, path.ks.append
    vec<y_i> = y0
    stage<k1; 0.0; y_0>
    append_t(0.0)
    append_y(y0)
    span = t_end
    if span == 0.0:
        return path

    direction = 1.0 if span > 0 else -1.0
    # on a span below 64 * 5e-324 the first step is the whole span, and the
    # smallest subnormal floors min_h, so a step that underflows to 0.0
    # raises StepUnderflow instead of spinning through the step budget
    min_h = max(abs(span) * ctl.min_step_fraction, 5e-324)
    h = span / 64.0 or span
    t = 0.0
    atol, rtol, max_steps = ctl.abs_tol, ctl.rel_tol, ctl.max_steps
    steps = 0

    while (t_end - t) * direction > 0.0:
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(path)
        if abs(h) < min_h:
            raise StepUnderflow(path)
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        head<k2; t + _C2 * h; y_0 + h * _A21 * k1_0>
        stage<k3; t + _C3 * h; y_0 + h * (_A31 * k1_0 + _A32 * k2_0)>
        stage<k4; t + _C4 * h; y_0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0)>
        stage<k5; t + _C5 * h; y_0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0)>
        t1 = t + h
        stage<k6; t1;
            y_0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0)>
        vec<z_i> = vec<y_i + h * (_B1 * k1_i + _B3 * k3_i + _B4 * k4_i + _B5 * k5_i + _B6 * k6_i)>
        # the FSAL stage: c7 = c6 = 1, so stage 6's coefficient values serve
        reuse<k7; t1; z_0>

        # squares summed in component order; a leading 0.0 + would change
        # no bit, since 0.0 + x == x for x >= 0 and for NaN.  The scale is
        # atol + rtol * max(abs(y_i), abs(z_i))
        err_sq = sum<(
            h * (_E1 * k1_i + _E3 * k3_i + _E4 * k4_i + _E5 * k5_i + _E6 * k6_i + _E7 * k7_i)
            / (atol + rtol * (az_i if (ay_i := abs(y_i)) < (az_i := abs(z_i)) else ay_i))
        ) ** 2>
        err_norm = sqrt(err_sq / {dim})

        if not isfinite(err_norm):
            h *= 0.1
            continue
        if err_norm <= 1.0:
            append_k(vec<(k1_i, k3_i, k4_i, k5_i, k6_i, k7_i)>)
            t = t1
            vec<y_i> = vec<z_i>
            vec<k1_i> = vec<k7_i>
            z = vec<z_i>
            append_t(t)
            append_y(z)
            # |z_0| > limit without a call; NaN compares false either way
            if z_0 > limit or -z_0 > limit:
                path.blew_up = True
                break
            if err_norm == 0.0:
                h *= 5.0
            else:  # min(5.0, max(0.2, factor))
                factor = 0.9 * err_norm**-0.2
                h *= (factor if factor < 5.0 else 5.0) if 0.2 < factor else 0.2
        else:  # max(0.2, factor)
            factor = 0.9 * err_norm**-0.2
            h *= factor if 0.2 < factor else 0.2

    return path
"""
_loops = itertools.count(1)
_readers = itertools.count(1)
# the form of any callable that is no `expr.Bound`: no coefficient, the
# callable bound as f, and a value that calls it at the stage time
_CALL = CheckedForm("x", "f(s, x)", 0, "f")


def _render(template: str, dim: int, filename: str, namespace: dict) -> dict:
    """Expand `template`'s macros for `dim` components, register the source
    in `linecache` under `filename`, so tracebacks and profilers show its
    lines, and execute it in `namespace`, which it returns."""

    def expand(match: re.Match) -> str:
        terms = [re.sub(r"_i\b", f"_{i}", match[2]) for i in range(dim)]
        if match[1] == "sum":
            return "(" + " + ".join(terms) + ")"
        return "(" + ", ".join(terms) + ",)"

    def constant(match: re.Match) -> str:
        name = match[0]
        value = _P[int(name[2])][int(name[3])] if name[1] == "P" else globals()[name]
        return f"({value!r})" if value < 0 else repr(value)

    source = re.sub(r"(vec|sum)<(.*?)>", expand, template, flags=re.S)
    source = source.replace("{dim}", str(dim))
    # tableau names become their values (repr round-trips a float exactly),
    # a constant load in place of a global lookup at every use
    source = re.sub(r"\b_(?:[ABCE]\d+|P\d\d)\b", constant, source)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _dense_path(dim: int, reader: Reader, filename: str) -> type:
    """`_DENSE_PATH` rendered for `dim` components with `reader`'s code at
    each point of its walk."""
    def indent(match: re.Match) -> str:
        return "".join(f"{match[1]}{line}\n" for line in reader.point.splitlines())

    source = re.sub(r"^( *)\{point\}\n", indent, _DENSE_PATH, flags=re.M)
    source = source.replace("{params}", reader.env and ", " + reader.env)
    namespace = {
        "__name__": __name__,  # the rendered class's __module__
        "DensePath": DensePath,
        "bisect_right": bisect_right,
        **dict(reader.names),
    }
    return _render(source, dim, filename, namespace)[f"DensePath{dim}"]


@lru_cache(maxsize=None)
def _path_class(dim: int) -> type:
    """The `DensePath` subclass of `dim`-component paths, whose `values`
    walk, reading states, and `_extension` are rendered for that
    dimension; compiled once, and shared by every loop of the dimension."""
    return _dense_path(dim, _STATE, f"<bsym.stepper DensePath dim={dim}>")


@lru_cache(maxsize=None)
def _walk(dim: int, reader: Reader) -> Callable:
    """`reader`'s walk over `dim`-component paths: the `values` walk of
    `_DENSE_PATH` rendered with its code, compiled once."""
    filename = f"<bsym.stepper DensePath dim={dim} reader #{next(_readers)}>"
    return _dense_path(dim, reader, filename).values


@lru_cache(maxsize=None)
def _kernel(dim: int, form: CheckedForm) -> Callable:
    """The DP5 loop for states of `dim` components that runs the checked
    `form` at every stage, compiled once.  It takes the form's bound
    arguments after `limit` and makes paths of the dimension's
    `_path_class`."""

    def stage(match: re.Match) -> str:
        indent, kind, k, time, state = match.groups()
        evaluate = kind != "reuse"
        head = kind == "head" and bool(form.head)
        lines = [f"s = {time}"] if evaluate else []
        lines.append(f"{form.state} = {' '.join(state.split())}")
        lines += form.source(f"{k}_0 = " if head else f"vec<{k}_i> = ", evaluate, head).splitlines()
        return "".join(f"{indent}{line}\n" for line in lines)

    source = re.sub(r"^( *)(stage|head|reuse)<(k\d); (.*?);\s+(.*?)>\n", stage, _KERNEL, flags=re.M | re.S)
    params = form.params()
    source = source.replace("{params}", params and ", " + params)
    namespace = {
        f"DensePath{dim}": _path_class(dim),
        "StepBudgetExceeded": StepBudgetExceeded,
        "StepUnderflow": StepUnderflow,
        "sqrt": math.sqrt,
        "isfinite": math.isfinite,
        **form.namespace,
    }
    filename = f"<bsym.stepper DP5 kernel dim={dim} form #{next(_loops)}>"
    return _render(source, dim, filename, namespace)[f"dp5_dim{dim}"]


def _states(path, qs: Sequence[float]) -> list:
    return path.values(qs)


def grid_values(
    solve: Callable[[float], DensePath],
    ts: Sequence[float],
    read: Callable[[DensePath, list], list] = _states,
) -> list:
    """State at every t of the paths `solve(t_end)` returns from t = 0, or
    what `read(path, times)` computes there.

    One solve per side: points with t >= 0 share the path toward the largest
    of them, points with t < 0 the path toward the smallest, and t = 0 is
    that path's first node.  One index sort orders the grid and a bisect
    splits it at 0, -0.0 going with 0.0; each side is then answered by one
    read of its points in order of |t|, the side t >= 0 first, and the
    output keeps the input order.  Raises ValueError if any t is not
    finite.
    """
    if not all(map(math.isfinite, ts)):
        raise ValueError("grid times must be finite")
    order = sorted(range(len(ts)), key=ts.__getitem__)
    zero = bisect_left(order, 0.0, key=ts.__getitem__)
    out: list = [None] * len(ts)
    for side in (order[zero:], order[:zero][::-1]):
        if side:
            qs = list(map(ts.__getitem__, side))
            for i, y in zip(side, read(solve(qs[-1]), qs)):
                out[i] = y
    return out
