"""Embedded Dormand-Prince 5(4) stepper with continuous-extension dense output.

Shared integration core: the quadrature module drives it over the
integral-accumulator system, the direct-ODE oracle drives it over the
scalar Bernoulli equation.  Each caller owns its instance and tolerances.

States are plain tuples of floats (dimension 1 or 2 here), which beats
array machinery at these sizes.  Negative spans are integrated by stepping
with negative h; nodes then appear in decreasing t order.

Dense output is the 4th-order continuous extension of each accepted step,
built from the stages the step already computed, so a query between nodes
costs no right-hand-side evaluation.  `grid_values` answers a grid that
straddles t = 0 from one 0-anchored path per side.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

__all__ = ["StepControl", "DensePath", "StepUnderflow", "StepBudgetExceeded", "integrate", "grid_values"]

State = tuple
RHS = Callable[[float, State], State]

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
    rel_tol: float
    abs_tol: float
    max_steps: int = 1_000_000
    min_step_fraction: float = 2.0**-40  # of the requested span


class StepUnderflow(Exception):
    """Step size fell below the allowed minimum; carries the partial path."""

    def __init__(self, path: "DensePath"):
        super().__init__(f"step size underflow at t={path.t_reached!r}")
        self.path = path


class StepBudgetExceeded(Exception):
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
_P_COLS = tuple(zip(*_P))  # one column of stage weights per power of th


@dataclass
class DensePath:
    """Accepted nodes plus each step's stages, queryable between nodes.

    `value` evaluates the 4th-order continuous extension of the bracketing
    step; `component_values` answers a monotone run of points with the same
    arithmetic in one walk over the steps.  A step's polynomial coefficients
    are built on the first query inside it and cached, so a path that is
    queried only at a few points pays for only those steps.
    """

    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    ks: list = field(default_factory=list)  # (k1, k3, k4, k5, k6, k7) per step
    stopped: bool = False  # a stop callback ended integration early
    _hint: int = field(default=0, repr=False, compare=False)  # last query's step
    _coefs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def t_reached(self) -> float:
        return self.ts[-1]

    @property
    def y_end(self) -> State:
        return self.ys[-1]

    def covers(self, t: float) -> bool:
        lo, hi = sorted((self.ts[0], self.ts[-1]))
        return lo <= t <= hi

    def _segment(self, t: float) -> int:
        """Index i of the step with t in [ts[i], ts[i+1]), or the last step
        for t on the final node.

        Tries the previous query's step and the next one before bisecting.
        """
        ts = self.ts
        last = len(ts) - 2
        d = 1.0 if ts[-1] >= ts[0] else -1.0
        x = d * t
        i = self._hint
        if d * ts[i] <= x:
            if x < d * ts[i + 1]:
                return i
            if i < last and x < d * ts[i + 2]:
                self._hint = i + 1
                return i + 1
        if not self.covers(t):
            raise ValueError(f"t={t!r} outside integrated range [{ts[0]!r}, {ts[-1]!r}]")
        i = min(bisect_right(ts, x, key=lambda s: d * s) - 1, last)
        self._hint = i
        return i

    def value(self, t: float) -> State:
        """State at t within the covered range; nodes are returned as stored."""
        ts = self.ts
        if len(ts) == 1:
            if t != ts[0]:
                raise ValueError(f"t={t!r} outside integrated range")
            return self.ys[0]
        i = self._segment(t)
        return tuple([self._component(i, t, k) for k in range(len(self.ys[0]))])

    def component_values(self, ts: Iterable[float], k: int) -> Iterator[float]:
        """Component k of the state at each of ts, lazily and in order.

        The points must run monotonically away from t0, so the steps are
        walked once; each answer equals `value(t)[k]`.  Raises ValueError on
        reaching a point outside the covered range or out of order.
        """
        nodes = self.ts
        if len(nodes) == 1:
            yield from (self.value(t)[k] for t in ts)
            return
        last = len(nodes) - 2
        d = 1.0 if nodes[-1] >= nodes[0] else -1.0
        i = 0
        for t in ts:
            x = d * t
            while i < last and x >= d * nodes[i + 1]:
                i += 1
            if not d * nodes[i] <= x <= d * nodes[i + 1]:
                raise ValueError(
                    f"t={t!r} outside integrated range [{nodes[0]!r}, {nodes[-1]!r}] "
                    "or out of order"
                )
            yield self._component(i, t, k)

    def _component(self, i: int, t: float, k: int) -> float:
        """Component k at t in step i: the stored node on either end of the
        step, else the step's continuous extension."""
        t0, t1 = self.ts[i], self.ts[i + 1]
        if t == t0:
            return self.ys[i][k]
        if t == t1:
            return self.ys[i + 1][k]
        coefs = self._coefs.get(i)
        if coefs is None:
            coefs = self._coefs[i] = self._extension(i)
        y0, c1, c2, c3, c4 = coefs[k]
        th = (t - t0) / (t1 - t0)
        return y0 + th * (c1 + th * (c2 + th * (c3 + th * c4)))

    # bench/tracing.py wraps `DensePath.value_refined` by name; the one
    # dense-output query keeps answering to it so traced runs still start
    value_refined = value

    def _extension(self, i: int) -> list:
        """Per component (y0, h*c1, .., h*c4) of step i's continuous extension."""
        h = self.ts[i + 1] - self.ts[i]
        return [
            (y0,) + tuple(
                h * (p1 * e1 + p3 * e3 + p4 * e4 + p5 * e5 + p6 * e6 + p7 * e7)
                for p1, p3, p4, p5, p6, p7 in _P_COLS
            )
            for y0, e1, e3, e4, e5, e6, e7 in zip(self.ys[i], *self.ks[i])
        ]


def integrate(
    f: RHS,
    t0: float,
    y0: Sequence[float],
    t_end: float,
    ctl: StepControl,
    stop: Optional[Callable[[float, State], bool]] = None,
) -> DensePath:
    """Integrate y' = f(t, y) from t0 to t_end adaptively.

    Returns the dense path of accepted steps.  The final step is clamped to
    land exactly on t_end.  If `stop` returns true on an accepted state the
    integration ends there with path.stopped set.
    """
    y0 = tuple(y0)
    path = DensePath()
    k1 = f(t0, y0)
    path.ts.append(t0)
    path.ys.append(y0)
    span = t_end - t0
    if span == 0.0:
        return path

    direction = 1.0 if span > 0 else -1.0
    min_h = abs(span) * ctl.min_step_fraction
    h = span / 64.0
    t, y = t0, y0
    atol, rtol = ctl.abs_tol, ctl.rel_tol
    steps = 0

    while (t_end - t) * direction > 0.0:
        steps += 1
        if steps > ctl.max_steps:
            raise StepBudgetExceeded(path)
        if abs(h) < min_h:
            raise StepUnderflow(path)
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        k2 = f(t + _C2 * h, tuple(a + h * _A21 * b for a, b in zip(y, k1)))
        k3 = f(
            t + _C3 * h,
            tuple(a + h * (_A31 * b + _A32 * c) for a, b, c in zip(y, k1, k2)),
        )
        k4 = f(
            t + _C4 * h,
            tuple(
                a + h * (_A41 * b + _A42 * c + _A43 * d)
                for a, b, c, d in zip(y, k1, k2, k3)
            ),
        )
        k5 = f(
            t + _C5 * h,
            tuple(
                a + h * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
                for a, b, c, d, e in zip(y, k1, k2, k3, k4)
            ),
        )
        k6 = f(
            t + h,
            tuple(
                a + h * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
                for a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5)
            ),
        )
        y1 = tuple(
            a + h * (_B1 * b + _B3 * d + _B4 * e + _B5 * g + _B6 * j)
            for a, b, d, e, g, j in zip(y, k1, k3, k4, k5, k6)
        )
        t1 = t + h
        k7 = f(t1, y1)

        err_sq = 0.0
        for a, b, e1, e3, e4, e5, e6, e7 in zip(y, y1, k1, k3, k4, k5, k6, k7):
            err = h * (
                _E1 * e1 + _E3 * e3 + _E4 * e4 + _E5 * e5 + _E6 * e6 + _E7 * e7
            )
            scale = atol + rtol * max(abs(a), abs(b))
            err_sq += (err / scale) ** 2
        err_norm = math.sqrt(err_sq / len(y))

        if not math.isfinite(err_norm):
            h *= 0.1
            continue
        if err_norm <= 1.0:
            path.ks.append((k1, k3, k4, k5, k6, k7))
            t, y, k1 = t1, y1, k7
            path.ts.append(t)
            path.ys.append(y)
            if stop is not None and stop(t, y):
                path.stopped = True
                break
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
            h *= factor
        else:
            h *= max(0.2, 0.9 * err_norm**-0.2)

    return path


def grid_values(solve: Callable[[float], DensePath], ts: Sequence[float]) -> list[State]:
    """State at every t of the paths `solve(t_end)` returns from t = 0.

    One solve per side: points with t >= 0 share the path toward the largest
    of them, points with t < 0 the path toward the smallest, and t = 0 is
    that path's first node.  Raises ValueError if any t is not finite.
    """
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("grid times must be finite")
    out: list[State] = [None] * len(ts)
    for right in (True, False):
        side = [i for i, t in enumerate(ts) if (t >= 0.0) is right]
        if side:
            path = solve((max if right else min)(ts[i] for i in side))
            for i in side:
                out[i] = path.value(ts[i])
    return out
