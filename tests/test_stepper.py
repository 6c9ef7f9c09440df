import math
import random

import pytest

from bsym import QuadConfig
from bsym.stepper import _B1, _B3, _B4, _B5, _B6, _P, grid_values, integrate

CTL = QuadConfig().control()


def cos_path(t_end: float):
    return integrate(lambda t, y: (math.cos(t),), 0.0, (0.0,), t_end, CTL)


def pair_path(t_end: float):
    # the quadrature's coupled (A, B) shape: A' = a, B' = b * exp(A)
    return integrate(
        lambda t, y: (math.cos(t), math.sin(2.0 * t) * math.exp(y[0])),
        0.0,
        (0.0, 0.0),
        t_end,
        CTL,
    )


@pytest.mark.parametrize("t_end", [6.0, -6.0])
def test_off_node_error_against_sine(t_end):
    path = cos_path(t_end)
    ts = set(path.ts)
    worst = 0.0
    for k in range(1, 997):
        t = t_end * k / 997
        if t in ts:
            continue
        worst = max(worst, abs(path.value(t)[0] - math.sin(t)))
    assert 0.0 < worst <= 1e-9


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
    path.value(0.5 * t_end)  # leave a segment hint behind
    for t in (1.5 * t_end, -0.1 * t_end, math.nan):
        with pytest.raises(ValueError):
            path.value(t)


@pytest.mark.parametrize("t_end", [4.0, -4.0])
@pytest.mark.parametrize("k", [0, 1])
def test_component_values_equal_value(t_end, k):
    # the validity scan's grid, with every node merged in, ending on the
    # final node
    path = pair_path(t_end)
    grid = [t_end * i / 1024 for i in range(1, 1025)]
    ts = sorted(set(grid) | set(path.ts), key=lambda t: t * t_end)
    assert ts[0] == 0.0 and ts[-1] == path.ts[-1] == t_end
    assert set(path.ts) < set(ts) and len(ts) > len(grid)
    got = list(path.component_values(ts, k))
    fresh = pair_path(t_end)  # no coefficients cached by the walk
    assert got == [fresh.value(t)[k] for t in ts]


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_component_values_raise_past_the_covered_range(t_end):
    path = cos_path(t_end)
    ts = [0.5 * t_end, t_end, 1.001 * t_end]
    values = path.component_values(ts, 0)
    assert next(values) == path.value(0.5 * t_end)[0]
    assert next(values) == path.ys[-1][0]
    with pytest.raises(ValueError):
        next(values)
    for bad in ([-0.1 * t_end], [math.nan], [0.5 * t_end, 0.25 * t_end]):
        with pytest.raises(ValueError):
            list(path.component_values(bad, 0))


def test_zero_span_path_answers_only_its_node():
    path = cos_path(0.0)
    assert path.value(0.0) == (0.0,)
    assert list(path.component_values([0.0], 0)) == [0.0]
    with pytest.raises(ValueError):
        path.value(1e-3)
    with pytest.raises(ValueError):
        list(path.component_values([0.0, 1e-3], 0))


def test_extension_weights_at_step_end_are_the_fifth_order_weights():
    sums = [sum(row) for row in _P]
    assert sums[:5] == pytest.approx([_B1, _B3, _B4, _B5, _B6], rel=1e-14)
    assert sums[5] == pytest.approx(0.0, abs=1e-14)  # the FSAL stage k7


def test_extension_matches_scipy_rk45():
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    P = rk.RK45.P
    assert list(P[1]) == [0.0] * 4  # k2 carries no weight
    for ours, row in zip(_P, (P[0], P[2], P[3], P[4], P[5], P[6])):
        assert list(ours) == pytest.approx(list(row), rel=1e-15, abs=0.0)


class CountingSolve:
    """A `solve` for grid_values that records every t_end it is asked for."""

    def __init__(self, y0=(0.0,)):
        self.y0 = y0
        self.calls = []

    def __call__(self, t_end):
        self.calls.append(t_end)
        return integrate(lambda t, y: (math.cos(t),), 0.0, self.y0, t_end, CTL)


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
