import math
import random

import pytest

from bsym import QuadConfig
from bsym.stepper import _B1, _B3, _B4, _B5, _B6, _P, integrate

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


def test_zero_span_path_answers_only_its_node():
    path = cos_path(0.0)
    assert path.value(0.0) == (0.0,)
    with pytest.raises(ValueError):
        path.value(1e-3)


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
