import dataclasses
import itertools
import linecache
import math
import operator
import random
import re
import struct
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce, wraps

import pytest

from bsym import problem, rk_solve, stepper
from bsym.oracle import ORACLE_CONTROL
from bsym.quad import QUAD_CONTROL
from bsym.stepper import (
    DOP853, DP5, DensePath, PathView, StepBudgetExceeded, StepControl, StepUnderflow, grid_values, integrate,
)

# DP5 at the tolerances the quadrature ran at before it moved to DOP853;
# the tests of the loop's mechanics run at both tableaux
CTL = StepControl(rel_tol=1e-10, abs_tol=1e-12)
CONTROLS = {"DP5": CTL, "DOP853": dataclasses.replace(CTL, tableau=DOP853)}


def at_dop853(test, **arguments):
    """`test` run with DOP853's `arguments` in place of its DP5 defaults,
    with the same parameters; the DP5 test keeps its name and ids."""
    @wraps(test)
    def variant(*args, **kwargs):
        return test(*args, **kwargs, **arguments)

    return variant

# DP5's constants, as the component-wise reference loop names them
_C2, _C3, _C4, _C5 = DP5.c[1:5]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), (_A61, _A62, _A63, _A64, _A65) = DP5.a[1:6]
_B1, _, _B3, _B4, _B5, _B6, _ = DP5.b
((_E1, _, _E3, _E4, _E5, _E6, _E7),) = DP5.e


def dense_rows(tableau):
    """The extension's rows of the stored stages, as a path keeps them."""
    return [tableau.dense[j - 1] for j in tableau.stored]


def test_the_quadrature_runs_dop853_and_the_oracle_dp5():
    # the caller's control names the tableau, and nothing else picks it
    assert (QUAD_CONTROL.tableau, QUAD_CONTROL.rel_tol, QUAD_CONTROL.abs_tol) == (DOP853, 5e-12, 5e-14)
    assert ORACLE_CONTROL.tableau is DP5
    assert StepControl(rel_tol=1e-10, abs_tol=1e-12).tableau is DP5


def cos_path(t_end: float):
    return integrate(lambda t, y: (math.cos(t),), (0.0,), t_end, CTL)


def pair_path(t_end: float):
    # the quadrature's coupled (A, B) shape: A' = a, B' = b * exp(A), B unread
    return integrate(lambda t, a: (math.cos(t), math.sin(2.0 * t) * math.exp(a)), (0.0, 0.0), t_end, CTL)


@pytest.mark.parametrize("t_end", [6.0, -6.0])
def test_off_node_error_against_sine(t_end, ctl=CTL, bound=1e-9):
    # DOP853's degree-7 extension at the quadrature's control reads sin t
    # between nodes about a thousand times closer than DP5's quartic
    path = integrate(lambda t, y: (math.cos(t),), (0.0,), t_end, ctl)
    ts = set(path.ts)
    worst = 0.0
    for k in range(1, 997):
        t = t_end * k / 997
        if t in ts:
            continue
        worst = max(worst, abs(path.value(t)[0] - math.sin(t)))
    assert 0.0 < worst <= bound


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_nodes_are_returned_as_stored(t_end):
    path = pair_path(t_end)
    assert len(path.ts) > 3
    for t, y in zip(path.ts, path.ys):
        assert path.value(t) == y


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_query_order_does_not_change_values(t_end):
    ts = [t_end * k / 401 for k in range(402)]
    monotone = pair_path(t_end)
    expected = [monotone.value(t) for t in ts]
    order = list(range(len(ts)))
    random.Random(3).shuffle(order)
    shuffled = pair_path(t_end)
    got = {i: shuffled.value(ts[i]) for i in order}
    assert [got[i] for i in range(len(ts))] == expected


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_out_of_range_queries_raise(t_end):
    path = cos_path(t_end)
    path.value(0.5 * t_end)  # an answered query first
    for t in (1.5 * t_end, -0.1 * t_end, math.nan):
        with pytest.raises(ValueError):
            path.value(t)


def test_zero_span_path_answers_only_its_node():
    path = cos_path(0.0)
    assert path.value(0.0) == (0.0,)
    with pytest.raises(ValueError):
        path.value(1e-3)
    assert path.first_crossing(0, 1.0) is None


# --- values: one ordered walk ---------------------------------------------------

def reference_value(path, t):
    """`DensePath.value` before `values`: the step found by bisection, the
    extension's coefficients built column by column from the rows of the
    path's tableau."""
    ts, ys = path.ts, path.ys
    if len(ts) == 1:
        if t != ts[0]:
            raise ValueError(t)
        return ys[0]
    d = 1.0 if ts[-1] >= ts[0] else -1.0
    if not min(ts[0], ts[-1]) <= t <= max(ts[0], ts[-1]):
        raise ValueError(t)
    i = min(bisect_right(ts, d * t, key=lambda s: d * s) - 1, len(ts) - 2)
    t0, t1 = ts[i], ts[i + 1]
    if t == t0:
        return ys[i]
    if t == t1:
        return ys[i + 1]
    h = t1 - t0
    columns = list(zip(*dense_rows(path.ctl.tableau)))
    coefs = [
        (y0,) + tuple(h * reduce(operator.add, map(operator.mul, column, stages)) for column in columns)
        for y0, stages in zip(ys[i], path.ks[i])
    ]
    th = (t - t0) / (t1 - t0)
    return tuple([y0 + th * reduce(lambda acc, c: c + th * acc, reversed(c)) for y0, *c in coefs])


def stopped_oracle_path():
    # y = exp(50 t) passes the oracle's blow-up limit 1e12 at t = 0.55
    path = rk_solve(problem("50", "0", 0, 1.0), 1.0)
    assert path.blew_up and 0.55 < path.t_reached < 0.56
    return path


def outward_times(path, seed, count):
    """`count` random times across the path, every third node, its end
    twice and (on a path from 0) both zeros, in order of distance from
    ts[0]; few times leave steps between two of them."""
    rng = random.Random(seed)
    t0, t1 = path.ts[0], path.ts[-1]
    ts = [t0 + rng.random() * (t1 - t0) for _ in range(count)] + path.ts[::3] + [t1, t1]
    if t0 == 0.0:
        ts += [0.0, -0.0]
    return sorted(ts, key=lambda t: abs(t - t0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: pair_path(3.0),
        lambda: pair_path(-3.0),
        lambda: cos_path(6.0),
        lambda: cos_path(-6.0),
        lambda: cos_path(0.0),
        stopped_oracle_path,
        lambda: integrate(rhs_3(), SYSTEMS["3"][1], 4.0, CTL),
        lambda: integrate(rhs_3(), SYSTEMS["3"][1], -4.0, CTL),
        lambda: integrate(rhs_2_reads_1(), (0.0, 0.0), 3.0, QUAD_CONTROL),
        lambda: integrate(rhs_2_reads_1(), (0.0, 0.0), -3.0, QUAD_CONTROL),
        lambda: integrate(rhs_3(), SYSTEMS["3"][1], 4.0, QUAD_CONTROL),
        lambda: integrate(lambda t, y: (math.cos(t),), (0.0,), 0.0, QUAD_CONTROL),
    ],
    ids=[
        "pair+", "pair-", "cos+", "cos-", "single-node", "stopped-oracle", "dim3+", "dim3-",
        "dop853-pair+", "dop853-pair-", "dop853-dim3+", "dop853-single-node",
    ],
)
@pytest.mark.parametrize("seed,count", [(1, 300), (2, 5)])
def test_values_match_the_per_point_value(make, seed, count):
    path = make()
    ts = outward_times(path, seed, count)
    got = [repr(y) for y in path.values(ts)]
    fresh = make()
    assert got == [repr(fresh.value(t)) for t in ts]
    assert got == [repr(reference_value(path, t)) for t in ts]


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_values_answer_nodes_as_stored(t_end):
    path = pair_path(t_end)
    assert path.values(path.ts) == path.ys
    assert path.values([]) == []


@pytest.mark.parametrize("make", [lambda: cos_path(2.0), lambda: cos_path(-2.0), lambda: cos_path(0.0)])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_values_reject_a_time_outside_the_path(make, where):
    path = make()
    end = path.ts[-1]
    for bad in (1.5 * end + 0.1 * math.copysign(1.0, end), -0.1 if end >= 0 else 0.1, math.nan, math.inf):
        ts = [0.25 * end, 0.5 * end]
        ts.insert(where, bad)
        with pytest.raises(ValueError, match="outside integrated range"):
            path.values(ts)


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_values_reject_a_run_out_of_order(t_end):
    path = cos_path(t_end)
    for ts in ([0.5 * t_end, 0.25 * t_end], [0.1 * t_end, 0.9 * t_end, 0.0]):
        with pytest.raises(ValueError, match="nearer"):
            path.values(ts)
    # a repeated time is in order
    assert path.values([0.5 * t_end] * 3) == [path.value(0.5 * t_end)] * 3


# --- first_crossing ---------------------------------------------------------

def square_path(t_end: float, ctl: StepControl = CTL):
    # y = t^2 - 2ct with c = +-1 on the side of t_end: y reaches its minimum
    # -1 at t = c; the extension reproduces a quadratic up to rounding
    c = math.copysign(1.0, t_end)
    return integrate(lambda t, y: (2.0 * (t - c),), (0.0,), t_end, ctl), c


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_first_crossing_simple_root(t_end):
    # sin t reaches +-1/2 first at +-pi/6
    path = cos_path(t_end)
    level = math.copysign(0.5, t_end)
    t = path.first_crossing(0, level)
    assert t == pytest.approx(math.copysign(math.pi / 6, t_end), abs=1e-9)
    assert t not in path.ts
    # located on the dense path to full resolution, not to the sine
    assert abs(path.value(t)[0] - level) <= 4 * math.ulp(level)


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_first_crossing_double_root(t_end):
    # y touches -1 at c without passing it
    path, c = square_path(t_end)
    t = path.first_crossing(0, -1.0)
    assert t == pytest.approx(c, abs=1e-6)
    assert abs(path.value(t)[0] + 1.0) <= CTL.abs_tol + CTL.rel_tol


def _band_edge(path, t, level, c):
    """Whether t is the near edge of a tangent touch's band: before the
    minimum at c, |y - level| within the walk's allowance on t's step
    (abs_tol + rel_tol * (|y0| + sum_j |c_j|)) at t, and past it 1e-9
    nearer the start."""
    i = min(bisect_right(path.ts, c * t, key=lambda s: c * s) - 1, len(path.ts) - 2)
    y0, *cs = path._extension(i)[0]
    allow = path.ctl.abs_tol + path.ctl.rel_tol * (abs(y0) + sum(map(abs, cs)))
    before, at = path.values([t - 1e-9 * c, t])
    return 0.0 < (c - t) * c and abs(at[0] - level) <= allow < abs(before[0] - level)


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_first_crossing_tangent_within_the_error_scale(t_end):
    # a minimum that misses the level by less than abs_tol + rel_tol * |y|
    # (about 1.01e-10 here, with |y| over the step) counts as reaching it,
    # at the near edge of its band, 1.9e-5 before the minimum, so that a
    # touch never answers past the zero it stands for; a wider miss does not
    path, c = square_path(t_end)
    level = -1.0 - 1e-11
    t = path.first_crossing(0, level)
    assert t == pytest.approx(c, abs=2e-5)
    assert _band_edge(path, t, level, c)
    assert path.first_crossing(0, -1.0 - 1e-9) is None


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_first_crossing_reads_the_tangent_allowance_of_the_paths_control(t_end):
    # the same minimum at a control 100 times looser allows about 1.01e-8:
    # a miss of 1e-9 counts there, not on the QUAD_CONTROL path, and a view
    # answers with its source's control
    loose = StepControl(rel_tol=1e-8, abs_tol=1e-10)
    tight, c = square_path(t_end)
    path, _ = square_path(t_end, loose)
    assert (path.ctl, tight.ctl) == (loose, CTL)
    found = path.first_crossing(0, -1.0 - 1e-9)
    assert found == pytest.approx(c, abs=2e-4) and _band_edge(path, found, -1.0 - 1e-9, c)
    assert tight.first_crossing(0, -1.0 - 1e-9) is None
    for source in (path, tight):
        found = source.first_crossing(0, -1.0 - 1e-9)
        view = PathView(source, (-1.0,))
        assert view.first_crossing(0, 1.0 + 1e-9) == (None if found is None else -found)


@pytest.mark.parametrize("level", [1.5, -1.5, 1.0 + 1e-6])
def test_first_crossing_no_root(level):
    # |sin t| <= 1 on both sides; 1 + 1e-6 is a near miss far above the
    # error scale
    for t_end in (3.0, -3.0):
        assert cos_path(t_end).first_crossing(0, level) is None


@pytest.mark.parametrize("t_end", [3.0, -3.0])
def test_first_crossing_root_on_a_node(t_end):
    # every node where sin t still rises (falls for t_end < 0); at some of
    # them the step's polynomial, rounded, stops just short of the node
    path = cos_path(t_end)
    nodes = [j for j, t in enumerate(path.ts) if 0.0 < abs(t) < 1.4]
    assert len(nodes) > 10
    for j in nodes:
        assert path.first_crossing(0, path.ys[j][0]) == pytest.approx(path.ts[j], abs=1e-14)


def test_first_crossing_walks_each_query_once(monkeypatch):
    # each answer is cached per (k, level): a repeated query walks nothing,
    # and one that differs in the level is walked and answered on its own
    queries = [
        (0, -0.5),  # y = t^2 - 2t falls through -1/2 ...
        (0, 0.5),  # ... and rises through 1/2 after its minimum
        (0, -1.0 - 1e-9),  # a miss wider than the error scale
    ]
    expected = [square_path(3.0)[0]._walk(*query) for query in queries]
    assert expected[2] is None and None not in expected[:2]
    walks = []
    walk = DensePath._walk
    monkeypatch.setattr(DensePath, "_walk", lambda path, *query: walks.append(query) or walk(path, *query))
    path, _ = square_path(3.0)
    assert [path.first_crossing(*query) for query in queries * 2] == expected * 2
    assert walks == queries


def test_first_crossing_tiny_first_root():
    # y = t reaches 1e-13 a 1.6e-12 fraction into a first step 1/16 long
    path = integrate(lambda t, y: (1.0,), (0.0,), 4.0, CTL)
    assert path.first_crossing(0, 1e-13) == pytest.approx(1e-13, rel=1e-15)


def _one_step_extension(tableau, h, stages):
    """Step 0's extension (y0, c1, ..) on a one-component path of one step
    h with the given stored stages."""
    path = stepper._path_class(1, tableau)(
        ctl=CONTROLS[tableau.name], ts=[0.0, h], ys=[(0.0,), (0.0,)], ks=[(stages,)], hs=[None]
    )
    return path._extension(0)[0]


def _random_stages(rng, count):
    """`count` stages of random signs and magnitudes from 1e-300 to 1e300:
    apart, or spread about one k1 (as a smooth step's are), or with k1 = 0."""
    def magnitude():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)

    kind = rng.randrange(3)
    if kind == 0:
        return tuple(magnitude() for _ in range(count))
    k1 = 0.0 if kind == 2 else magnitude()
    spread = 10.0 ** -rng.uniform(0.0, 16.0) * (abs(k1) or 10.0 ** rng.uniform(-290.0, 290.0))
    return (k1, *(k1 + spread * rng.uniform(-1.0, 1.0) for _ in range(count - 1)))


def test_the_walks_reach_bounds_how_far_a_step_moves(tableau=DP5):
    # the crossing walk skips a step unless |y_k - level| <= reach + tol, so
    # reach must bound sum_j |c_j| of the step's extension, rounding included
    rng = random.Random(41)
    n = len(tableau.stored)
    reach = stepper._path_class(1, tableau)._reach
    cases = [_random_stages(rng, n) for _ in range(3000)]
    cases += [(0.0,) * n, (1.0,) * n, (-1e300,) * n, (1e-300,) * n, (0.0, 1.0, -1.0, 1e10, -1e-10, *[3.0] * (n - 5))]
    # equal stages of every exponent: the rounding of c_j that cancels to
    # 0 in exact arithmetic is all a step of equal stages moves by beyond h * k1
    cases += [(math.ldexp(1.0 + rng.random(), rng.randrange(-1000, 1000)),) * n for _ in range(2000)]
    for stages in cases:
        h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 0.6)
        _, *c = _one_step_extension(tableau, h, stages)
        assert sum(map(abs, c)) <= reach(h, stages), (h, stages)
    # centred on k1: a step of equal stages moves about |h * k1|, not the
    # uncentred weights' 67 (DP5) or 9 000 (DOP853) times that; DOP853's
    # W0 carries its larger rounding allowance, 1.9e-11
    assert reach(0.5, (2.0,) * n) == pytest.approx(1.0, rel=1e-11 if tableau is DP5 else 1e-10)
    # and stages on a line through k1 and the end stage, as a step of a
    # linear integrand has, move about |h| * (|k1| + |D| / 2), not the
    # k1-centred weights' 45 (DP5) or 5 060 (DOP853) times |D|
    line = tuple(1.0 + tableau.c[j - 1] for j in tableau.stored)
    assert reach(0.5, line) == pytest.approx(0.5 * (1.0 + 0.5), rel=1e-9)


def _reference_walk(path, k, level):
    """`DensePath._walk` with the uncentred bound it had before:
    |h| * sum_s W[s] * |k_s|, W[s] = (1 + 1e-12) * sum_j |P[s][j]|."""
    ts, ys, ks = path.ts, path.ys, path.ks
    weights = [(1.0 + 1e-12) * sum(map(abs, row)) for row in dense_rows(path.ctl.tableau)]
    abs_tol, rel_tol = path.ctl.abs_tol, path.ctl.rel_tol
    side = 1.0 if ys[0][k] > level else -1.0
    for i in range(len(ts) - 1):
        reach = abs(ts[i + 1] - ts[i]) * sum(w * abs(ks_) for w, ks_ in zip(weights, ks[i][k]))
        y_i = ys[i][k]
        if abs(y_i - level) <= reach + abs_tol + rel_tol * (abs(y_i) + reach):
            y0, *c = (path._coefs.get(i) or path._extension(i))[k]
            vary = sum(map(abs, c))
            tol = abs_tol + rel_tol * (abs(y0) + vary)
            if abs(y0 - level) <= vary + tol and (found := stepper._roots([y0 - level, *c], tol)):
                return ts[i] + found[0] * (ts[i + 1] - ts[i])
        if side * (ys[i + 1][k] - level) <= 0.0:
            return ts[i + 1]
    return None


def test_the_centred_walk_finds_every_crossing_the_uncentred_one_finds():
    # seeded (A, B) paths of random problems, walked at levels B reaches,
    # touches or misses: the same float or None either way
    from helpers import random_problem

    from bsym.quad import nested_path

    rng = random.Random(4141)
    found = 0
    for _ in range(40):
        p = random_problem(rng)
        m = (p.n.p - p.n.q) / p.n.q
        for t_end in (3.0, -3.0):
            try:
                path = nested_path(p.a, p.b, (m,), t_end)
            except Exception:  # a coefficient that fails on the span
                continue
            bs = [y[1] for y in path.ys]
            levels = [rng.uniform(min(bs), max(bs)) for _ in range(4)]
            levels += [max(bs), min(bs), max(bs) * (1.0 + 1e-9) + 1e-11, bs[len(bs) // 2]]
            for level in levels:
                for k in (0, 1):
                    got = path._walk(k, level)
                    assert got == _reference_walk(path, k, level), (p, t_end, k, level)
                    found += got is not None
    assert found > 100


def test_extension_weights_at_step_end_are_the_fifth_order_weights(tableau=DP5):
    # at th = 1 the extension ends on y0 + h * b.k: each row sums to its
    # stage's weight, 0 for the FSAL stage and DOP853's dense stages, up
    # to the float adjustments that DOP853's last row carries (1.3e-13)
    sums = [math.fsum(row) for row in tableau.dense]
    tol = 1e-14 if tableau is DP5 else 2e-13
    assert sums == pytest.approx(list(tableau.b), rel=tol, abs=tol)


def test_the_tableau_is_consistent_in_float(tableau=DP5):
    # a constant integrand integrates exactly: b sums to 1 and each dense
    # column j >= 1 to 0 in the float order the loop adds them, and column
    # 0 is k1 alone (y' = f at th = 0).  DP5's rationals, the oracle's as
    # they always were, sum b to 1 - 2**-52 and column 1 to 2**-52
    rows = dense_rows(tableau)
    columns = [reduce(operator.add, column) for column in zip(*rows)]
    b = reduce(operator.add, [w for w in tableau.b if w])
    if tableau is DOP853:
        assert (b, columns) == (1.0, [1.0] + [0.0] * (tableau.degree - 1))
    else:
        assert (b, columns) == (1.0 - 2.0**-52, [1.0, 2.0**-52, 0.0, 0.0])
    assert [row[0] for row in rows] == [1.0] + [0.0] * (len(rows) - 1)
    # head stages weigh nothing in any output, and the reuse stage is at
    # the time of the stage before it, on the new state (its row is b)
    for j in tableau.head:
        assert not any(row[j - 1] for row in (tableau.b, *tableau.e)) and not any(tableau.dense[j - 1])
    assert tableau.c[tableau.reuse - 1] == tableau.c[tableau.reuse - 2] == 1.0
    assert tableau.a[tableau.reuse - 1][:len(tableau.b)] == tableau.b[:len(tableau.a[tableau.reuse - 1])]
    # each row's node is its weights' sum, up to the stated digits
    for c, row in zip(tableau.c, tableau.a):
        assert math.fsum(row) == pytest.approx(c, abs=1e-14)


# the digits of b (stages 1, 6, .., 12) and of contd8's rows d4..d7
# (stages 1, 6, .., 16) as Hairer's dop853.f states them
_HAIRER_B = (
    "5.42937341165687622380535766363e-2", "4.45031289275240888144113950566", "1.89151789931450038304281599044",
    "-5.8012039600105847814672114227", "3.1116436695781989440891606237e-1", "-1.52160949662516078556178806805e-1",
    "2.01365400804030348374776537501e-1", "4.47106157277725905176885569043e-2",
)
_HAIRER_D = (
    ("-0.84289382761090128651353491142e+1", "0.56671495351937776962531783590", "-0.30689499459498916912797304727e+1",
     "0.23846676565120698287728149680e+1", "0.21170345824450282767155149946e+1", "-0.87139158377797299206789907490",
     "0.22404374302607882758541771650e+1", "0.63157877876946881815570249290", "-0.88990336451333310820698117400e-1",
     "0.18148505520854727256656404962e+2", "-0.91946323924783554000451984436e+1",
     "-0.44360363875948939664310572000e+1"),
    ("0.10427508642579134603413151009e+2", "0.24228349177525818288430175319e+3", "0.16520045171727028198505394887e+3",
     "-0.37454675472269020279518312152e+3", "-0.22113666853125306036270938578e+2", "0.77334326684722638389603898808e+1",
     "-0.30674084731089398182061213626e+2", "-0.93321305264302278729567221706e+1", "0.15697238121770843886131091075e+2",
     "-0.31139403219565177677282850411e+2", "-0.93529243588444783865713862664e+1",
     "0.35816841486394083752465898540e+2"),
    ("0.19985053242002433820987653617e+2", "-0.38703730874935176555105901742e+3", "-0.18917813819516756882830838328e+3",
     "0.52780815920542364900561016686e+3", "-0.11573902539959630126141871134e+2", "0.68812326946963000169666922661e+1",
     "-0.10006050966910838403183860980e+1", "0.77771377980534432092869265740", "-0.27782057523535084065932004339e+1",
     "-0.60196695231264120758267380846e+2", "0.84320405506677161018159903784e+2", "0.11992291136182789328035130030e+2"),
    ("-0.25693933462703749003312586129e+2", "-0.15418974869023643374053993627e+3",
     "-0.23152937917604549567536039109e+3",
     "0.35763911791061412378285349910e+3", "0.93405324183624310003907691704e+2", "-0.37458323136451633156875139351e+2",
     "0.10409964950896230045147246184e+3", "0.29840293426660503123344363579e+2", "-0.43533456590011143754432175058e+2",
     "0.96324553959188282948394950600e+2", "-0.39177261675615439165231486172e+2",
     "-0.14972683625798562581422125276e+3"),
)


def test_dop853_dense_rows_and_last_weight_derive_from_hairers_digits():
    # contd8 in power form, expanded in rationals: y0 + th*(F0 + (1-th)*(F1
    # + th*(F2 + (1-th)*(F3 + th*(F4 + (1-th)*(F5 + th*F6)))))), F0 = dy,
    # F1 = h*k1 - dy, F2 = 2*dy - h*(k1 + k13), F3.. = h*d.k, dy = h*b.k;
    # then rounded, the last entry of each column j >= 1 replaced by minus
    # the float sum of the others, and b's last weight by 1 minus theirs
    stages = (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
    zero = {j: Fraction(0) for j in range(1, 17)}
    b = {**zero, **dict(zip(stages[:8], map(Fraction, _HAIRER_B)))}
    fs = [b, {j: int(j == 1) - b[j] for j in b}, {j: 2 * b[j] - int(j == 1) - int(j == 13) for j in b}]
    fs += [{**zero, **dict(zip(stages, map(Fraction, row)))} for row in _HAIRER_D]
    poly = [fs[6]]  # ascending powers of th
    for j in (5, 4, 3, 2, 1, 0, -1):  # times th before an odd F_j and at the end, else 1 - th
        shifted = [zero] + poly
        poly = shifted if j % 2 else [{s: p.get(s, 0) - q[s] for s in q} for p, q in zip(poly + [{}], shifted)]
        if j >= 0:
            poly[0] = {s: poly[0][s] + fs[j][s] for s in b}
    rows = [[float(poly[k][s]) for k in range(1, 8)] for s in range(1, 17)]
    for column in range(1, 7):
        rows[15][column] = -reduce(operator.add, [rows[s - 1][column] for s in stages[:-1]])
    assert [tuple(row) for row in rows] == list(DOP853.dense)
    weights = [float(b[s]) for s in stages[:8]]
    weights[-1] = 1.0 - reduce(operator.add, weights[:-1])
    assert [w for w in DOP853.b if w] == weights
    assert weights[-1] != float(b[12])  # the stated digits sum to more than 1


def test_extension_matches_scipy_rk45():
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    P = rk.RK45.P
    assert list(P[1]) == [0.0] * 4  # k2 carries no weight
    assert list(DP5.dense[1]) == [0.0] * 4
    for ours, row in zip(dense_rows(DP5), (P[0], P[2], P[3], P[4], P[5], P[6])):
        assert list(ours) == pytest.approx(list(row), rel=1e-15, abs=0.0)


def test_dop853_matches_scipy():
    # the nodes, rows, weights and both error rows against scipy's
    # transcription of Hairer's dop853.f; b and the dense columns differ
    # from the stated digits by the float adjustments alone
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert list(DOP853.c) == list(dop.C)
    for j, row in enumerate(DOP853.a):
        stated = list(dop.A[j][:len(row)])
        assert list(row) == (stated if j != 12 else pytest.approx(stated, rel=1e-14, abs=1e-15))
        assert not dop.A[j][len(row):].any()
    assert list(DOP853.b[:12]) == pytest.approx(list(dop.B), rel=1e-14, abs=1e-15)
    assert not any(DOP853.b[12:])
    assert list(DOP853.e[0][:13]) == list(dop.E5)
    e3 = [w - bhh for w, bhh in zip(DOP853.b, DOP853.e[1])]
    assert e3[:13] == pytest.approx(list(dop.E3), rel=1e-14, abs=1e-15)
    # the power rows against scipy's interpolant, at random stages and
    # fractions: y0 + th*(F0 + (1-th)*(F1 + th*(F2 + ..))), F from D
    rng = random.Random(853)
    for _ in range(50):
        k = [rng.uniform(-1.0, 1.0) for _ in range(16)]
        dy = math.fsum(w * kj for w, kj in zip(dop.B, k))
        fs = [dy, k[0] - dy, 2 * dy - k[0] - k[12]] + [math.fsum(d * kj for d, kj in zip(row, k)) for row in dop.D]
        th = rng.random()
        theirs = 0.0
        for i, f in enumerate(reversed(fs)):
            theirs = (theirs + f) * (th if i % 2 == 0 else 1.0 - th)
        ours = math.fsum(kj * p * th ** (j + 1) for kj, row in zip(k, DOP853.dense) for j, p in enumerate(row))
        assert ours == pytest.approx(theirs, rel=1e-13, abs=1e-13)


class CountingSolve:
    """A `solve` for grid_values that records every t_end it is asked for."""

    def __init__(self, y0=(0.0,)):
        self.y0 = y0
        self.calls = []

    def __call__(self, t_end):
        self.calls.append(t_end)
        return integrate(lambda t, y: (math.cos(t),), self.y0, t_end, CTL)


@pytest.mark.parametrize(
    "ts,calls",
    [  # t = 0 belongs to the t >= 0 side
        ([0.5, -1.0, 2.0, 0.0, -0.25, 1.0], [2.0, -1.0]),
        ([0.5, 2.0, 1.0], [2.0]),
        ([-0.5, -2.0], [-2.0]),
        ([0.0, 1.5], [1.5]),
        ([0.0], [0.0]),
        ([-1.0, 0.0], [0.0, -1.0]),
        ([], []),
        ([-1.0, -0.0], [-0.0, -1.0]),
    ],
)
def test_grid_values_solves_once_per_side(ts, calls):
    solve = CountingSolve()
    assert len(grid_values(solve, ts)) == len(ts)
    assert solve.calls == calls


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("others", [[], [1.0], [-1.0], [-1.0, 1.0]])
def test_grid_values_answer_zero_with_the_first_node(zero, others):
    solve = CountingSolve(y0=(0.3,))
    out = grid_values(solve, [*others, zero])
    assert out[-1] == (0.3,)


def test_grid_values_read_each_side_outward_and_scatter_back():
    # one read per side, t >= 0 first: its points in order of |t|, 0.0 and
    # -0.0 with t >= 0, equal times in input order on the side t >= 0;
    # what the read returns per point lands at the point's input position
    ts = [0.5, -0.0, -1.0, 2.0, 0.0, -0.25, -1.0, 0.5]
    reads = []

    def read(path, qs):
        reads.append((path.t_reached, [repr(t) for t in qs]))
        return [(repr(t), path.t_reached) for t in qs]

    out = grid_values(CountingSolve(), ts, read)
    assert reads == [
        (2.0, ["-0.0", "0.0", "0.5", "0.5", "2.0"]),
        (-1.0, ["-0.25", "-1.0", "-1.0"]),
    ]
    assert out == [(repr(t), 2.0 if t >= 0.0 else -1.0) for t in ts]


def test_grid_values_keep_the_input_order():
    ts = [3.0 * k / 40 for k in range(-40, 41)]
    random.Random(5).shuffle(ts)
    right, left = cos_path(3.0), cos_path(-3.0)
    expected = [(right if t >= 0.0 else left).value(t) for t in ts]
    assert grid_values(CountingSolve(), ts) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_grid_values_reject_non_finite_times(bad, where):
    ts = [-0.5, 0.5]
    ts.insert(where, bad)
    solve = CountingSolve()
    with pytest.raises(ValueError):
        grid_values(solve, ts)
    assert solve.calls == []


# --- the generated kernel against the component-wise loop it replaced --------

def reference_integrate(f, y0, t_end, ctl, limit=math.inf):
    """The generic zip/generator loop `integrate` ran before its kernel was
    generated per dimension, from t = 0, for the control's tableau; the
    kernel must reproduce it bit for bit.  A step's stages are stored as
    one tuple per component, as the kernel stores them, whatever sequence
    f returns."""
    if ctl.tableau is DOP853:
        return reference_dop853(f, y0, t_end, ctl, limit)
    assert ctl.tableau is DP5
    y0 = tuple(y0)
    path = DensePath(ctl)
    k1 = f(0.0, y0)
    path.ts.append(0.0)
    path.ys.append(y0)
    span = t_end
    if span == 0.0:
        return path

    direction = 1.0 if span > 0 else -1.0
    # the subnormal-span guards of the kernel: a first step of the whole
    # span where span / 64 underflows, and h = 0.0 always below min_h
    min_h = max(abs(span) * ctl.min_step_fraction, 5e-324)
    h = span / 64.0 or span
    t, y = 0.0, y0
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
            if not all(map(math.isfinite, y1)):
                raise OverflowError("math range error")
            path.ks.append(tuple(zip(k1, k3, k4, k5, k6, k7)))
            t, y, k1 = t1, y1, k7
            path.ts.append(t)
            path.ys.append(y)
            if abs(y[0]) > limit:
                path.blew_up = True
                break
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
            h *= factor
        else:
            h *= max(0.2, 0.9 * err_norm**-0.2)

    return path


def _dot(weights, stages):
    """sum_j weights[j] * stages[j] over the nonzero weights, added from
    the first term on, as the kernel adds them."""
    return reduce(operator.add, [w * k for w, k in zip(weights, stages) if w])


def _stage_state(y, h, row, ks):
    """y + h * row.ks per component; a row of one weight w is y + h * w * k."""
    if sum(map(bool, row)) == 1:
        j, w = next((j, w) for j, w in enumerate(row) if w)
        return tuple(a + h * w * k for a, k in zip(y, ks[j]))
    return tuple(a + h * _dot(row, column) for a, column in zip(y, zip(*ks)))


def reference_dop853(f, y0, t_end, ctl, limit=math.inf):
    """Hairer's DOP853 step (dop853.f) as a component-wise loop: 12 stages
    per attempt, the error norm of its 5th- and 3rd-order estimates mixed
    per component, and
    on acceptance f(t + h, y1), the next step's k1, and the three stages
    of the continuous extension, from t = 0 with the kernel's first step,
    step control and guards."""
    tab = DOP853
    y0 = tuple(y0)
    path = DensePath(ctl)
    k1 = tuple(f(0.0, y0))
    path.ts.append(0.0)
    path.ys.append(y0)
    span = t_end
    if span == 0.0:
        return path

    direction = 1.0 if span > 0 else -1.0
    min_h = max(abs(span) * ctl.min_step_fraction, 5e-324)
    h = span / 64.0 or span
    t, y = 0.0, y0
    atol, rtol = ctl.abs_tol, ctl.rel_tol
    steps = 0

    def stage(j, ks):
        c = tab.c[j - 1]
        return tuple(f(t1 if c == 1.0 else t + c * h, _stage_state(y, h, tab.a[j - 1], ks)))

    while (t_end - t) * direction > 0.0:
        steps += 1
        if steps > ctl.max_steps:
            raise StepBudgetExceeded(path)
        if abs(h) < min_h:
            raise StepUnderflow(path)
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        t1 = t + h
        ks = [k1]
        for j in range(2, 13):
            ks.append(stage(j, ks))
        y1 = tuple(a + h * _dot(tab.b, column) for a, column in zip(y, zip(*ks)))

        err_sq = 0.0
        for a, b, column in zip(y, y1, zip(*ks)):
            scale = atol + rtol * max(abs(a), abs(b))
            q5 = (_dot(tab.e[0], column) / scale) ** 2
            q3 = ((_dot(tab.b, column) - _dot(tab.e[1], column)) / scale) ** 2
            err_sq += (q5 / math.sqrt(q5 + 0.01 * q3) if q5 else 0.0) ** 2
        err_norm = abs(h) * math.sqrt(err_sq / len(y))

        if not math.isfinite(err_norm):
            if all(map(math.isfinite, itertools.chain(*ks))):
                raise OverflowError("math range error")  # an error sum overflowed
            h *= 0.1
            continue
        if err_norm <= 1.0:
            if not all(map(math.isfinite, y1)):
                raise OverflowError("math range error")
            ks.append(tuple(f(t1, y1)))
            for j in (14, 15, 16):
                ks.append(stage(j, ks))
            path.ks.append(tuple(zip(*(ks[j - 1] for j in tab.stored))))
            t, y, k1 = t1, y1, ks[12]
            path.ts.append(t)
            path.ys.append(y)
            if abs(y[0]) > limit:
                path.blew_up = True
                break
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.125))
            h *= factor
        else:
            h *= max(0.2, 0.9 * err_norm**-0.125)

    return path


def reference(f, y0, t_end, ctl, limit=math.inf):
    """`reference_integrate` driving a right-hand side of the kernel's
    contract: component 0 of the loop's state tuple."""
    return reference_integrate(lambda t, y: f(t, y[0]), y0, t_end, ctl, limit)


def opened(path):
    """`path` with every step's deferred stages evaluated, as a read of
    each step would; a reference loop's path has them all already."""
    path._complete(0, len(path.ts) - 1)
    return path


def run(integrator, make_rhs, y0, t_end, ctl=CTL, limit=math.inf):
    """(outcome, repr of ts, ys, ks, blew_up) once every step is opened;
    repr tells every float bit apart, -0.0 from 0.0 included.  make_rhs
    gives each run a fresh RHS."""
    try:
        path, outcome = integrator(make_rhs(), y0, t_end, ctl, limit), "done"
    except (StepUnderflow, StepBudgetExceeded) as exc:
        path, outcome = exc.path, type(exc).__name__
    opened(path)
    return outcome, repr((path.ts, path.ys, path.ks, path.blew_up))


def both(make_rhs, y0, t_end, ctl=CTL, limit=math.inf):
    """run's outcome from the kernel, then from the reference loop."""
    return run(integrate, make_rhs, y0, t_end, ctl, limit), run(reference, make_rhs, y0, t_end, ctl, limit)


def rhs_1():
    return lambda t, y: (math.cos(3.0 * t) - 0.2 * y * abs(y),)


def rhs_2():
    # component 1 a quadrature of t alone; a list, not a tuple: the stages
    # are stored as tuples all the same
    return lambda t, a: [math.cos(3.0 * t) - 0.2 * a * abs(a), math.sin(2.0 * t)]


def rhs_3():
    # components 1 and 2 quadratures of t alone, as a list too
    return lambda t, y0: [0.5 * math.cos(t) - 0.3 * y0, math.sin(t), math.exp(-0.3 * t) - 0.5]


def rhs_2_reads_1():
    # the nested quadrature's shape, with a non-trivial A; B never feeds back
    return lambda t, a: (math.cos(t) - 0.5 * t, math.sin(2.0 * t) * math.exp(0.7 * a))


def rhs_3_reads_1():
    # two quadratures driven by the first component
    return lambda t, y0: (
        math.cos(3.0 * t) - 0.2 * y0 * abs(y0),
        math.sin(t) * y0,
        math.exp(-0.3 * y0) - 0.5,
    )


# id -> (make_rhs, y0): the dimension, and `reads1` where component 0, the
# one f reads, drives the later components
SYSTEMS = {
    "1": (rhs_1, (0.4,)),
    "2": (rhs_2, (0.0, 0.0)),
    "3": (rhs_3, (1.0, -0.5, 0.25)),
    "2reads1": (rhs_2_reads_1, (0.0, 0.0)),
    "3reads1": (rhs_3_reads_1, (0.4, 0.0, -1.0)),
}


def shape(name):
    """(dim, the type f returns) of a system, a tuple or a list."""
    make_rhs, y0 = SYSTEMS[name]
    return len(y0), type(make_rhs()(0.0, y0[0]))


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("t_end", [5.0, -5.0, 1e-3, 0.0, 5e-324, -1e-322])
def test_kernel_is_bit_identical_to_the_vector_loop(name, t_end, ctl=CTL):
    got, expected = both(*SYSTEMS[name], t_end, ctl)
    assert got == expected
    assert expected[0] == "done"


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("t_end", [6.0, -6.0])
def test_kernel_matches_with_a_stop_callback(name, t_end, ctl=CTL):
    # the limit just below |y_0| at node 5: the first state at least that
    # large ends the path, whichever sign y_0 has there
    make_rhs, y0 = SYSTEMS[name]
    target = abs(reference(make_rhs(), y0, t_end, ctl).ys[5][0])
    got, expected = both(make_rhs, y0, t_end, ctl, limit=math.nextafter(target, 0.0))
    assert got == expected
    assert expected[1].endswith(", True)")  # blew_up


@pytest.mark.parametrize("slope", [3.0, -3.0])
def test_the_limit_bounds_both_signs_of_the_first_component(slope, ctl=CTL):
    # y_0 = slope * t passes |y_0| > 2 first at the node past t = 2/3;
    # component 1 grows past the limit earlier, and does not count
    def rhs(t, y):
        return (slope, 10.0 * slope)

    path = integrate(rhs, (0.0, 0.0), 4.0, ctl, 2.0)
    assert path.blew_up and abs(path.y_end[0]) > 2.0 >= abs(path.ys[-2][0])
    assert abs(path.ys[-2][1]) > 2.0
    assert run(integrate, lambda: rhs, (0.0, 0.0), 4.0, ctl, limit=2.0) == run(
        reference, lambda: rhs, (0.0, 0.0), 4.0, ctl, limit=2.0
    )


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("t_end", [4.0, -4.0])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_kernel_matches_after_a_non_finite_stage(name, t_end, bad, ctl=CTL):
    # the last component's stage turns bad: one f does not read, where
    # dim > 1.  The stage is the first at the clean path's fifth node, the
    # last of the attempt that reached it, which the error reads (DP5's
    # k6, DOP853's k12); chosen by its time, since the reference loop
    # calls f at DOP853's dense stages within its steps and the kernel
    # does not, so a count of f's calls names different stages in the two
    make_clean, y0 = SYSTEMS[name]
    node = reference(make_clean(), y0, t_end, ctl).ts[5]
    returned = []

    def make_rhs():
        clean, fired = make_clean(), []

        def rhs(t, y):
            k = clean(t, y)
            if t == node and not fired:  # one stage of one step attempt
                fired.append(t)
                returned.append(bad)
                return (*k[:-1], bad)
            return k

        return rhs

    got, expected = both(make_rhs, y0, t_end, ctl)
    assert got == expected
    assert len(returned) == 2  # both runs took the h *= 0.1 retry
    assert expected[0] == "done"
    assert expected != run(reference, make_clean, y0, t_end, ctl)


# --- DOP853's dense stages, on the read that opens a step ----------------------

def kept(stages):
    """The stages a step keeps until a read opens it (`Tableau.kept`), of
    one component's stored stages (`Tableau.stored`)."""
    return tuple(stages[DOP853.stored.index(j)] for j in DOP853.kept)


@pytest.mark.parametrize("t_end", [5.0, -5.0])
@pytest.mark.parametrize("order", ["values then walk", "walk then values", "view values then walk"])
def test_a_read_evaluates_the_dense_stages_of_the_reference_loop(t_end, order):
    # a path keeps k1, k6, .., k13 and h of each step; the first read
    # between a step's nodes or the crossing walk over it evaluates k14 to
    # k16, bit for bit the reference loop's, whichever reads first and
    # whether a t-mirror reads it; the walk opens its steps a run at a time
    ctl = CONTROLS["DOP853"]
    make_rhs, y0 = SYSTEMS["3reads1"]
    expected = reference(make_rhs(), y0, t_end, ctl)
    path = integrate(make_rhs(), y0, t_end, ctl)
    steps = len(path.ts) - 1
    assert (path.ts, path.ys) == (expected.ts, expected.ys) and steps > 3 * stepper._RUN
    assert path.ks == [tuple(map(kept, ks)) for ks in expected.ks]
    assert all(type(h) is float for h in path.hs)
    assert any(h != t1 - t0 for h, t0, t1 in zip(path.hs, path.ts, path.ts[1:]))
    inside = [path.ts[i] + 0.25 * (path.ts[i + 1] - path.ts[i]) for i in range(1, steps, 3)]
    level = 0.5 * (path.ys[steps // 2][0] + path.ys[steps // 2 + 1][0])
    signs = (-1.0, 1.0, -1.0)
    reads = {
        "values": lambda: path.values(inside),
        "walk": lambda: path.first_crossing(0, level),
        "view values": lambda: [tuple(s * y for s, y in zip(signs, v)) for v in PathView(path, signs).values(
            [-t for t in inside])],
    }
    got = {name: reads[name]() for name in order.split(" then ")}
    values = got.get("values", got.get("view values"))
    assert values == [reference_value(expected, t) for t in inside]
    assert got["walk"] is not None and abs(got["walk"]) <= abs(path.ts[steps // 2 + 1])
    crossed = bisect_left([abs(t) for t in path.ts], abs(got["walk"])) - 1  # the step the walk stopped on
    walked = min(steps, (crossed // stepper._RUN + 1) * stepper._RUN)
    read = set(range(1, steps, 3)) | set(range(walked))
    assert walked < steps and len(read) < steps
    for i, (ks, h, want) in enumerate(zip(path.ks, path.hs, expected.ks)):
        assert (ks, h is None) == ((want, True) if i in read else (tuple(map(kept, want)), False)), i
    assert repr(opened(path).ks) == repr(expected.ks)


def test_a_step_that_nothing_reads_keeps_nine_stage_values_per_component():
    # DOP853's k1, k6, .., k13 of each of the 3 components, and the step's
    # h; a read between step 2's nodes gives that step its 12, and a read
    # at a node opens nothing
    path = integrate(rhs_3(), SYSTEMS["3"][1], 4.0, QUAD_CONTROL)
    assert len(path.ts) > 4
    path.values([path.ts[1], 0.5 * (path.ts[2] + path.ts[3]), path.ts[4]])
    assert [[len(k) for k in ks] for ks in path.ks] == [[12 if i == 2 else 9] * 3 for i in range(len(path.ks))]
    assert [h is None for h in path.hs] == [i == 2 for i in range(len(path.hs))]


def err_numerator(path, i):
    """The first error estimate of accepted step i, component 0, as the
    kernel and the reference loop compute it: h * (e.k) under DP5, and
    DOP853's e.k, which its norm scales by |h| after the sum."""
    tableau = path.ctl.tableau
    stages = dict(zip(tableau.stored, path.ks[i][0]))
    e = reduce(operator.add, [w * stages[j] for j, w in enumerate(tableau.e[0], 1) if w])
    return (path.ts[i + 1] - path.ts[i]) * e if tableau is DP5 else e


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("branch", ["zero error", "growth clamped"])
def test_kernel_matches_where_the_step_grows_fivefold(name, branch, ctl=CTL):
    # from h = 64 / 64 = 1 every t is an integer, so each step length is
    # exact: 1, 5 and 25, then 33 clamped to t_end.  y' = 0 makes every
    # error exactly 0 (factor 5.0 by the err_norm == 0.0 branch); y' = 1e-30
    # t^q is integrated exactly by the new state's weights (q = 4 under
    # DP5, 7 under DOP853) but not by the first error estimate's lower
    # order, so the error is nonzero and so small that 0.9 *
    # err_norm**exponent exceeds 5 and the growth clamp gives 5.0
    c = 0.0 if branch == "zero error" else 1e-30
    q = 4 if ctl.tableau is DP5 else 7
    dim, kind = shape(name)

    def make_rhs():
        return lambda t, y: kind((c * t**q,) * dim)

    y0 = (1.0,) * dim
    got, expected = both(make_rhs, y0, 64.0, ctl)
    assert got == expected
    path = integrate(make_rhs(), y0, 64.0, ctl)
    assert path.ts == [0.0, 1.0, 6.0, 31.0, 64.0]
    errors = [err_numerator(path, i) for i in range(3)]
    assert all(e == 0.0 for e in errors) if c == 0.0 else all(e != 0.0 for e in errors)


@pytest.mark.parametrize("name", SYSTEMS)
def test_kernel_matches_where_a_rejection_is_clamped(name, ctl=CTL):
    # y' = r y over a first trial step of 1/64, r = 50 under DP5 and 400
    # under DOP853, whose 8th order needs the steeper rate: the error is
    # so far above rel_tol 1e-10 that the unclamped factor 0.9 *
    # err_norm**exponent is below 0.2; the rejection clamp makes it 0.2.
    # From t = 0 the last stage of an attempt is at 0.0 + h, exactly h,
    # so the recorded times give the first two trial steps, the second at
    # t = 0 again (an accepted first step would put it past 1/64).  Every
    # component takes r times component 0
    times = []
    dim, kind = shape(name)
    rate = 50.0 if ctl.tableau is DP5 else 400.0

    def make_rhs():
        def rhs(t, y):
            times.append(t)
            return kind((rate * y,) * dim)

        return rhs

    y0 = (1.0,) * dim
    got, expected = both(make_rhs, y0, 1.0, ctl)
    assert got == expected
    calls = ctl.tableau.attempt - 1  # f's calls per rejected attempt, the last at t + h
    trials = times[calls::calls]
    assert trials[:2] == [1.0 / 64.0, 1.0 / 64.0 * 0.2]


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_kernel_matches_the_partial_path_on_underflow(t_end, ctl=CTL):
    def make_rhs():  # y' = y^2 from y(0) = sign: a pole at |t| = 1
        return lambda t, y: (y * y, math.cos(t))

    y0 = (math.copysign(1.0, t_end), 0.0)
    ctl = dataclasses.replace(ctl, min_step_fraction=2.0**-20)
    got, expected = both(make_rhs, y0, t_end, ctl)
    assert got == expected
    assert expected[0] == "StepUnderflow"


@pytest.mark.parametrize("t_end", [5e-324, -5e-324, 1e-322, -1.5e-322])
def test_subnormal_span_takes_the_whole_span_at_once(t_end):
    # span / 64 underflows to 0.0 here; the first step is the whole span
    # (it used to be 0.0, which spun through the whole step budget)
    ctl = StepControl(rel_tol=1e-10, abs_tol=1e-12, max_steps=100)
    path = integrate(lambda t, y: (math.cos(t),), (1.0,), t_end, ctl)
    assert path.ts == [0.0, t_end]
    assert path.value(t_end) == (1.0 + t_end,)


@pytest.mark.parametrize("t_end", [5e-324, -1e-322, 2.0])
def test_a_step_that_shrinks_to_zero_underflows(t_end):
    # every stage non-finite: h shrinks tenfold per attempt down to 0.0,
    # which lies below min_h even where span * min_step_fraction is 0.0
    ctl = StepControl(rel_tol=1e-10, abs_tol=1e-12, max_steps=10_000)
    with pytest.raises(StepUnderflow) as info:
        integrate(lambda t, y: (math.nan,), (1.0,), t_end, ctl)
    assert info.value.path.ts == [0.0]


def test_step_control_validation():
    # each bad field alone raises, in the constructor and in a replace()
    # of a valid control (NaN fails every comparison, so it is bad too)
    for bad in (
        {"rel_tol": 0.0}, {"rel_tol": -1e-10}, {"rel_tol": math.nan},
        {"abs_tol": 0.0}, {"abs_tol": -1.0}, {"abs_tol": math.nan},
        {"max_steps": 0}, {"max_steps": -5},
        {"min_step_fraction": 0.0}, {"min_step_fraction": -2.0**-40},
        {"min_step_fraction": 1.0}, {"min_step_fraction": 2.0},
        {"min_step_fraction": math.nan},
    ):
        with pytest.raises(ValueError):
            StepControl(**{"rel_tol": 1e-10, "abs_tol": 1e-12, **bad})
        with pytest.raises(ValueError):
            dataclasses.replace(CTL, **bad)
    # the edges of the valid ranges
    StepControl(rel_tol=5e-324, abs_tol=5e-324, max_steps=1, min_step_fraction=5e-324)
    StepControl(rel_tol=1e-10, abs_tol=1e-12, min_step_fraction=1.0 - 2.0**-53)


@pytest.mark.parametrize("name", SYSTEMS)
def test_kernel_matches_the_partial_path_on_an_exhausted_budget(name, ctl=CTL):
    ctl = dataclasses.replace(ctl, max_steps=7)
    got, expected = both(*SYSTEMS[name], -5.0, ctl)
    assert got == expected
    assert expected[0] == "StepBudgetExceeded"


@pytest.mark.parametrize(
    "y0,t_end,match",
    [
        ((), 1.0, "at least one component"),
        ((0.0,), math.nan, "t_end must be finite"),
        ((0.0,), math.inf, "t_end must be finite"),
        ((0.0,), -math.inf, "t_end must be finite"),
    ],
)
def test_integrate_rejects_what_no_kernel_integrates(y0, t_end, match):
    # an empty state used to reach the renderer (a SyntaxError), t_end = nan
    # returned a one-node path as if it had arrived, and t_end = inf ran the
    # whole step budget at t = 0
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (1.0,) * len(y0)

    with pytest.raises(ValueError, match=match):
        integrate(rhs, y0, t_end, CTL)
    assert calls == []


def test_kernel_is_generated_once_per_dimension(monkeypatch):
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(stepper, "compile", counting_compile, raising=False)
    stepper._kernel.cache_clear()
    stepper._path_class.cache_clear()
    stepper._step_functions.cache_clear()
    paths = {}
    for name in ("2", "1", "2reads1", "1", "3", "3reads1", "2"):
        make_rhs, y0 = SYSTEMS[name]
        path = integrate(make_rhs(), y0, 1.0, CTL)
        path.values([0.25, 0.5, 1.0])  # dense queries compile nothing
        path.first_crossing(0, 1e9)
        paths.setdefault(len(y0), []).append(path)
    # the tableau's one-component step functions, once; then each
    # dimension's path class and its loop, the call form's
    steps = "<bsym.stepper DP5 steps>"
    classes = {dim: f"<bsym.stepper DP5 DensePath dim={dim}>" for dim in paths}
    names = {dim: f"<bsym.stepper DP5 kernel dim={dim} form #K>" for dim in paths}
    assert [re.sub(r"#\d+", "#K", name) for name in compiled] == [steps] + [
        name for dim in paths for name in (classes[dim], names[dim])
    ]
    assert len(set(compiled)) == len(compiled)
    loop = stepper._kernel(2, stepper._CALL, DP5)
    assert loop is stepper._kernel(2, stepper._CALL, DP5)
    assert loop.__code__.co_filename == compiled[2]
    # the dense output is rendered per dimension, one path class per
    # dimension, and no generic walk or extension is kept beside it; a
    # component's extension and skip bound are the tableau's, shared
    for dim, same in paths.items():
        cls = type(same[0])
        assert cls is not DensePath and issubclass(cls, DensePath)
        assert cls.__name__ == f"DensePath{dim}DP5"
        assert cls is stepper._path_class(dim, DP5)
        assert all(type(path) is cls for path in same)
        for method in (cls.values, cls._extension):
            assert method.__code__.co_filename == classes[dim]
        assert cls._reach is stepper._step_functions(DP5)["reach"]
        assert cls._reach.__code__.co_filename == steps
    assert len({type(same[0]) for same in paths.values()}) == len(paths) == 3
    assert not {"values", "_extension", "_reach"} & set(vars(DensePath))


@pytest.mark.parametrize("tableau", [DP5, DOP853], ids=lambda t: t.name)
def test_each_loop_compiles_one_source_that_holds_its_completion(monkeypatch, tableau):
    # a loop and, where its tableau defers stages, the completion function
    # that evaluates them are one source, one file and one namespace; the
    # loop hands the completion to each path it makes, and a DP5 path,
    # which defers nothing, carries none
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    for dim in (1, 2, 3):
        stepper._path_class(dim, tableau)  # compiled once per dimension, apart from the loops
        compiled.clear()
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "compile", counting_compile, raising=False)
            fresh = stepper._kernel.__wrapped__(dim, stepper._CALL, tableau)  # uncached
        assert len(compiled) == 1 and compiled[0] == fresh.__code__.co_filename
        assert re.fullmatch(rf"<bsym\.stepper {tableau.name} kernel dim={dim} form #\d+>", compiled[0])
        loop = stepper._kernel(dim, stepper._CALL, tableau)
        completion = loop.__globals__.get(f"{loop.__name__}_complete")
        assert (completion is None) is not tableau.deferred
        make_rhs, y0 = SYSTEMS[str(dim)]
        path = integrate(make_rhs(), y0, 1.0, CONTROLS[tableau.name])
        assert path.completion is completion
        if completion is not None:
            assert completion.__code__.co_filename == loop.__code__.co_filename
            assert completion.__globals__ is loop.__globals__


def test_traceback_shows_the_kernel_source():
    calls = []

    def failing(t, a):
        calls.append(t)
        if len(calls) == 3:  # k1, k2, then k3 of the first step
            raise ZeroDivisionError("from the right-hand side")
        return (1.0, 1.0)

    with pytest.raises(ZeroDivisionError) as info:
        integrate(failing, (0.0, 0.0), 1.0, CTL)
    frame = traceback.extract_tb(info.tb)[-2]
    assert re.fullmatch(r"<bsym\.stepper DP5 kernel dim=2 form #\d+>", frame.filename)
    # the call form's stage: the stage time and the stage state of
    # component 0, the one f reads, are its two arguments
    assert frame.line == "(k3_0, k3_1,) = f(s, x)"
    assert [linecache.getline(frame.filename, frame.lineno + k).strip() for k in (-2, -1, 0)] == [
        "s = t + 0.3 * h",
        "x = y_0 + h * (0.075 * k1_0 + 0.225 * k2_0)",
        frame.line,
    ]


def test_a_plain_callable_that_returns_lists_gets_tuple_stages(ctl=CTL):
    # the call form's loop unpacks what f returns into locals and stores an
    # accepted step's kept stages as one tuple of them per component, and
    # so does the read that opens a step, with every stored stage
    path = integrate(rhs_3(), (1.0, -0.5, 0.25), 2.0, ctl)
    assert len(path.ks) > 1
    for stored in (ctl.tableau.kept, ctl.tableau.stored):  # DP5: 6 and 6; DOP853: 9 and 12
        assert all(type(ks) is tuple and len(ks) == 3 for ks in path.ks)
        assert all(type(k) is tuple and len(k) == len(stored) for ks in path.ks for k in ks)
        opened(path)
    loop = stepper._kernel(3, stepper._CALL, ctl.tableau)
    name = ctl.tableau.name
    assert re.fullmatch(rf"<bsym\.stepper {name} kernel dim=3 form #\d+>", loop.__code__.co_filename)
    assert loop.__name__ == f"{name.lower()}_dim3" and type(path).__name__ == f"DensePath3{name}"


def test_dop853_traceback_shows_its_stages_and_its_dense_stages_after_acceptance():
    # DOP853's loop evaluates stages 2 to 12 per attempt and f(t + h, y1)
    # once a step is accepted, then keeps the step's h; the three dense
    # stages run in the loop's completion function, rendered in the loop's
    # file, on the step's first read, from the step's start
    calls, first = [], [13]  # the first call that raises: k1, stages 2 to 12, then k13 of the first step

    def failing(t, a):
        calls.append(t)
        if first[0] is not None and len(calls) >= first[0]:
            raise ZeroDivisionError("from the right-hand side")
        return (1.0, 1.0)

    with pytest.raises(ZeroDivisionError) as info:
        integrate(failing, (0.0, 0.0), 1.0, CONTROLS["DOP853"])
    frame = traceback.extract_tb(info.tb)[-2]
    assert re.fullmatch(r"<bsym\.stepper DOP853 kernel dim=2 form #\d+>", frame.filename)
    loop_file = frame.filename
    assert frame.line == "(k13_0, k13_1,) = f(s, x)"
    lines = [linecache.getline(frame.filename, frame.lineno + k).strip() for k in range(-8, 3)]
    assert lines[-4:] == ["x = z_0", frame.line, "append_h(h)", "append_k(((k1_0, k6_0, k7_0, k8_0, k9_0, k10_0,"
                          " k11_0, k12_0, k13_0), (k1_1, k6_1, k7_1, k8_1, k9_1, k10_1, k11_1, k12_1, k13_1),))"]
    assert "if err_norm <= 1.0:" in lines[:-4]
    assert calls[-1] == calls[-2] == 1.0 / 64.0

    first[0] = None
    path = integrate(failing, (0.0, 0.0), 1.0, CONTROLS["DOP853"])
    h = path.hs[2]
    first[0] = 0  # every call from here on
    inside = 0.5 * (path.ts[2] + path.ts[3])
    with pytest.raises(ZeroDivisionError) as info:
        path.values([inside])
    frame = traceback.extract_tb(info.tb)[-2]
    assert frame.filename == loop_file and frame.name == "dop853_dim2_complete"
    assert frame.line == "(k14_0, k14_1,) = f(s, x)"
    assert [linecache.getline(frame.filename, frame.lineno + k).strip() for k in (-2, -1)] == [
        "s = t + 0.1 * h",
        "x = y_0 + h * (0.056167502283047954 * k1_0 + 0.25350021021662483 * k7_0 + (-0.2462390374708025) * k8_0"
        " + (-0.12419142326381637) * k9_0 + 0.15329179827876568 * k10_0 + 0.00820105229563469 * k11_0"
        " + 0.007567897660545699 * k12_0 + (-0.008298) * k13_0)",
    ]
    assert calls[-1] == path.ts[2] + 0.1 * h
    # the step still waits for its stages, and raises again on the next read
    assert path.hs[2] == h and len(path.ks[2][0]) == len(DOP853.kept)
    with pytest.raises(ZeroDivisionError):
        path.values([inside])


@pytest.mark.parametrize("r", [-1.0])  # a view is the t-mirror alone
@pytest.mark.parametrize(
    "signs", [(-1.0,), (1.0, -1.0), (-1.0, 1.0, -1.0)], ids=["dim1", "dim2", "dim3"]
)
def test_path_view_is_the_mirrored_path_in_any_dimension(r, signs, ctl=CTL):
    # f(t, y) = r*S*g(r*t, S*y) is computed with exact negations only, so
    # f(r*t, S*y) = r*S*g(t, y) bit for bit and the kernel's path of f
    # toward r*T is the view of g's path toward T; both read y_0 alone
    dim = len(signs)

    def g(t, y0):
        return tuple(math.cos(t + k) * y0 + math.sin(2.0 * t + k) for k in range(dim))

    def f(t, y0):
        return tuple(r * s * v for s, v in zip(signs, g(r * t, signs[0] * y0)))

    y0 = tuple(1.0 + 0.5 * k for k in range(dim))
    source = integrate(g, y0, 2.0, ctl)
    direct = integrate(f, tuple(s * v for s, v in zip(signs, y0)), r * 2.0, ctl)
    view = PathView(source, signs)
    assert view.t_reached == direct.t_reached
    qs = [r * (0.05 * i) for i in range(41)]
    assert view.values(qs) == direct.values(qs)
    assert view.values([]) == []
    # and so are its crossings, found or not (== ignores the sign of a zero)
    for k in range(dim):
        for j in (3, len(direct.ts) // 2, -1):
            level = 0.5 * (direct.ys[0][k] + direct.ys[j][k])
            for lv in (level, -level, 1e9):
                assert view.first_crossing(k, lv) == direct.first_crossing(k, lv), (k, lv)


# the premise of every t-mirror: generated code calls these math functions
# and evaluates `^` as float ** int, and a view reads f(-t) as +-f(t)
_PREMISE_ARGS = [
    sign * x
    for x in (0.0, 5e-324, 1e-300, 0.1, 1.0, math.pi / 2, 3.0, 1e15, 1e300)
    for sign in (1.0, -1.0)
]


def _outcome(fn, x):
    """fn(x)'s bits, zero signs included, or the type of what it raised."""
    try:
        return struct.pack("<d", fn(x))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _negated(outcome):
    if isinstance(outcome, type):
        return outcome
    return struct.pack("<d", -struct.unpack("<d", outcome)[0])


@pytest.mark.parametrize("x", _PREMISE_ARGS)
def test_sin_sinh_are_exactly_odd_and_cos_cosh_exactly_even(x):
    for odd in (math.sin, math.sinh):
        assert _outcome(odd, -x) == _negated(_outcome(odd, x)), odd.__name__
    for even in (math.cos, math.cosh):
        assert _outcome(even, -x) == _outcome(even, x), even.__name__


@pytest.mark.parametrize("x", _PREMISE_ARGS)
def test_an_integer_power_of_a_negated_base_is_exactly_signed(x):
    # (-x)**k == (-1)**k * x**k bit for bit; where the power overflows,
    # both sides raise
    for k in range(10):
        assert _outcome(lambda v: (-v) ** k, x) == _outcome(lambda v: (-1) ** k * v ** k, x), k


# the tests above that take a DP5 control or tableau by default, at DOP853's
test_kernel_is_bit_identical_to_the_vector_loop_dop853 = at_dop853(
    test_kernel_is_bit_identical_to_the_vector_loop, ctl=CONTROLS["DOP853"]
)
test_kernel_matches_with_a_stop_callback_dop853 = at_dop853(
    test_kernel_matches_with_a_stop_callback, ctl=CONTROLS["DOP853"]
)
test_the_limit_bounds_both_signs_of_the_first_component_dop853 = at_dop853(
    test_the_limit_bounds_both_signs_of_the_first_component, ctl=CONTROLS["DOP853"]
)
test_kernel_matches_after_a_non_finite_stage_dop853 = at_dop853(
    test_kernel_matches_after_a_non_finite_stage, ctl=CONTROLS["DOP853"]
)
test_kernel_matches_where_the_step_grows_fivefold_dop853 = at_dop853(
    test_kernel_matches_where_the_step_grows_fivefold, ctl=CONTROLS["DOP853"]
)
test_kernel_matches_where_a_rejection_is_clamped_dop853 = at_dop853(
    test_kernel_matches_where_a_rejection_is_clamped, ctl=CONTROLS["DOP853"]
)
test_kernel_matches_the_partial_path_on_underflow_dop853 = at_dop853(
    test_kernel_matches_the_partial_path_on_underflow, ctl=CONTROLS["DOP853"]
)
test_kernel_matches_the_partial_path_on_an_exhausted_budget_dop853 = at_dop853(
    test_kernel_matches_the_partial_path_on_an_exhausted_budget, ctl=CONTROLS["DOP853"]
)
test_a_plain_callable_that_returns_lists_gets_tuple_stages_dop853 = at_dop853(
    test_a_plain_callable_that_returns_lists_gets_tuple_stages, ctl=CONTROLS["DOP853"]
)
test_path_view_is_the_mirrored_path_in_any_dimension_dop853 = at_dop853(
    test_path_view_is_the_mirrored_path_in_any_dimension, ctl=CONTROLS["DOP853"]
)
test_off_node_error_against_sine_dop853 = at_dop853(test_off_node_error_against_sine, ctl=QUAD_CONTROL, bound=1e-12)
test_the_walks_reach_bounds_how_far_a_step_moves_dop853 = at_dop853(
    test_the_walks_reach_bounds_how_far_a_step_moves, tableau=DOP853
)
test_extension_weights_at_step_end_are_the_fifth_order_weights_dop853 = at_dop853(
    test_extension_weights_at_step_end_are_the_fifth_order_weights, tableau=DOP853
)
test_the_tableau_is_consistent_in_float_dop853 = at_dop853(test_the_tableau_is_consistent_in_float, tableau=DOP853)
