import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsym import (
    EvalError,
    ParityViolation,
    StepFailure,
    classify_exponent,
    identity_residuals,
    parse_expr,
    problem,
    validity_interval,
)
from bsym import cli, quad
from bsym.closedform import ProblemSpec
from bsym.exponent import minus_one, reflection_signs, reflections
from bsym.expr import BinOp, Const, Neg, Parity, negated
from bsym.expr import as_callable, detect_parity, structural_parity
from bsym.quad import QUAD_CONTROL, Identity, ab_values, nested_path
from bsym.stepper import PathView, grid_values, integrate

from helpers import (
    LEMMA_EXPONENTS,
    SPIKED_B,
    bench_inputs,
    count_calls,
    dense_stage_failures,
    own_path,
    random_even_source,
    random_odd_source,
    random_source,
    simpson,
)

N2 = classify_exponent(2, 1)
N3 = classify_exponent(3, 1)
BENCH_TS = (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)  # the identities benchmark's times

# int_0^1.2 sin(s)*exp(2*sin(s)) ds, fixed-step Simpson oracle at h=1e-5
# (tests/helpers.py simpson; mpmath agrees to 2.6682115728975834678)
B_COS_SIN_N3_T12 = 2.668211572897583


def _integral_A(a, t: float) -> float:
    """A(t) = int_0^t a(s) ds, the first component of `ab_values` at m = 0."""
    a = parse_expr(a) if isinstance(a, str) else a
    return ab_values(a, parse_expr("0"), 0.0, [t])[0][0]


def test_integral_A_constant():
    assert _integral_A("1", 2.5) == pytest.approx(2.5, abs=1e-10)


def test_integral_A_cosine():
    assert _integral_A("cos(t)", math.pi / 2) == pytest.approx(1.0, abs=1e-9)


def test_integral_A_negative_t():
    assert _integral_A("t^2", -3.0) == pytest.approx(-9.0, abs=1e-9)


def _integral_B(a: str, b: str, mult: float, t: float) -> float:
    """B(t) = int_0^t b(s) * exp(mult * A(s)) ds, from `ab_values` alone."""
    return ab_values(parse_expr(a), parse_expr(b), mult, [t])[0][1]


def test_integral_B_unit_integrand():
    assert _integral_B("0", "1", 1.0, 0.75) == pytest.approx(0.75, abs=1e-10)


def test_integral_B_exponential():
    assert _integral_B("1", "1", 1.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-9)


def test_integral_B_against_simpson_fixture():
    v = _integral_B("cos(t)", "sin(t)", 2.0, 1.2)
    assert v == pytest.approx(B_COS_SIN_N3_T12, abs=1e-8)
    # the mirrored side through a grid on both sides of 0, and by Simpson
    left, right = ab_values(parse_expr("cos(t)"), parse_expr("sin(t)"), 2.0, [-1.2, 1.2])
    assert right[1] == v
    assert left[1] == pytest.approx(
        -simpson(lambda s: math.sin(s) * math.exp(2.0 * math.sin(s)), -1.2, 0.0), abs=1e-8
    )


def test_no_convergence_near_pole():
    with pytest.raises((StepFailure, EvalError)):
        _integral_A("1/(t - 1)", 2.0)


# --- identities ---------------------------------------------------------------

def test_identity_eq4_example():
    (r,) = identity_residuals("Eq4", parse_expr("cos(t)"), parse_expr("sin(t)"), N3, [1.2])
    assert r <= 1e-9


def test_identity_eq4_sides_match_simpson():
    lhs = simpson(lambda s: math.sin(s) * math.exp(-2.0 * math.sin(s)), -1.2, 0.0)
    rhs = -simpson(lambda s: math.sin(s) * math.exp(2.0 * math.sin(s)), 0.0, 1.2)
    assert abs(lhs - rhs) <= 1e-9


def test_identity_eq7_example():
    (r,) = identity_residuals("Eq7", parse_expr("t"), parse_expr("cos(t)"), N2, [2.0])
    assert r <= 1e-9


def test_identity_parity_violation():
    with pytest.raises(ParityViolation):
        identity_residuals("Eq4", parse_expr("t"), parse_expr("cos(t)"), N2, [1.0])


def test_identity_residuals_batches_match_single():
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    ts = [0.5, -1.0, 2.0]
    batch = identity_residuals(Identity.EQ4, a, b, N3, ts)
    singles = [identity_residuals(Identity.EQ4, a, b, N3, [t])[0] for t in ts]
    for got, want in zip(batch, singles):
        assert got == pytest.approx(want, abs=1e-12)


def test_identity_residuals_do_not_depend_on_an_earlier_search():
    # a validity search of the same (a, b, n) keeps its paths on its problem
    # only: the identities integrate their own paths either way
    a, b = parse_expr("cos(t)"), parse_expr("1")
    fresh = identity_residuals("Eq8", a, b, N3, [1.0, 2.0])
    validity_interval(problem("cos(t)", "1", "3", 1.0), 4.0)
    assert identity_residuals("Eq8", a, b, N3, [1.0, 2.0]) == fresh


@pytest.mark.parametrize(
    "ident, a, b, want",
    [
        ("Eq7", "t", "cos(t)", 1),
        ("Eq4", "cos(t)", "t", 1),
        ("Eq8", "cos(t)", "1", 1),
        ("Eq4", "cos(t)", SPIKED_B, 2),
    ],
)
def test_eq7_integrates_its_one_path_once_per_side(monkeypatch, ident, a, b, want):
    # with a and b of structural parity every read at -t is the mirror of
    # one at t: one path, carrying B for both multipliers where the sides
    # read two (Eq4, Eq8), and Eq7's residuals are those of its two sides'
    # own grids.  Sampling, not structure, calls SPIKED_B odd, so none is
    # read as a mirror: one path per side of 0, each with both multipliers
    a, b, ts = parse_expr(a), parse_expr(b), [-3.0, -0.5, 0.5, 1.5, 3.0]
    m = (N3.p - N3.q) / N3.q
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = identity_residuals(ident, a, b, N3, ts)
    assert len(calls) == want
    assert [len(mults) for _, _, mults, _ in calls] == [1 if ident == "Eq7" else 2] * want
    if ident == "Eq7":
        left = ab_values(a, b, m, [-t for t in ts])
        right = ab_values(a, b, m, ts)
        assert got == [abs(-bl - br) for (_, bl), (_, br) in zip(left, right)]


# identity -> (sign of m on the left side, on the right side, sign of the
# right side), from the equations as the paper states them
_SIDES = {
    "Eq4": (-1.0, 1.0, -1.0),
    "Eq7": (1.0, 1.0, 1.0),
    "Eq8": (1.0, -1.0, 1.0),
    "Eq9": (-1.0, 1.0, 1.0),
}


def _fresh_residuals(ident: str, a, b, m: float, ts, mirrored: bool) -> list:
    """The identity's residuals from fresh `nested_path`s, one per side of 0
    that has reads, toward its farthest read, carrying the multipliers read
    there, the left side's first.  The left side reads B_{left*m} at -t and
    the right side B_{right*m} at t; with `mirrored`, a read B_mult at x < 0
    is kb * B_{ka*mult} at -x, with ka = right/left and kb = -(the right
    side's sign), the t-mirror's signs for a and b of parities (-ka, -kb)."""
    left, right, rhs_sign = _SIDES[ident]
    ka, kb = right / left, -rhs_sign
    reads = [(-t, left * m, 1.0) for t in ts] + [(t, right * m, 1.0) for t in ts]
    if mirrored:
        reads = [(x, mult, 1.0) if x >= 0.0 else (-x, ka * mult, kb) for x, mult, _ in reads]
    paths = {}
    for side in (1.0, -1.0):
        here = [(x, mult) for x, mult, _ in reads if (x >= 0.0) is (side > 0.0)]
        if here:
            carried = {mult for _, mult in here}
            mults = tuple(dict.fromkeys(u for u in (left * m, right * m) if u in carried))
            far = max(abs(x) for x, _ in here)
            paths[side] = nested_path(a, b, mults, side * far), mults
    values = []
    for x, mult, sign in reads:
        path, mults = paths[1.0 if x >= 0.0 else -1.0]
        values.append(sign * path.value(x)[1 + mults.index(mult)])
    return [abs(-bl - rhs_sign * br) for bl, br in zip(values[:len(ts)], values[len(ts):])]


_GRIDS = [
    (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0),  # the benchmark's
    [3.0 * (i + 1) / 4 for i in range(4)],  # the CLI's t_max*(i+1)/samples
    [0.0, 0.5, -1.25, 2.0],
    [-0.7, 2.5, 1.0],  # sides ending at different |t|
    [1.9, -2.6, 0.3, -0.2],
    [0.5, -1.0],  # the left side's read at x < 0 comes first
    [-2.0, -0.5],  # all t < 0
]


@pytest.mark.parametrize(
    "ident,gen_a,gen_b",
    [
        ("Eq4", random_even_source, random_odd_source),
        ("Eq7", random_odd_source, random_even_source),
        ("Eq8", random_even_source, random_even_source),
        ("Eq9", random_even_source, random_even_source),
    ],
)
def test_identity_residuals_are_those_of_fresh_paths(ident, gen_a, gen_b):
    # every residual is bit for bit the one fresh paths per side give, each
    # carrying the multipliers its side reads; a t-mirror certified by
    # structural parity reads each x < 0 as the mirror of -x, so every
    # certified residual is exactly 0.0
    rng = random.Random(sum(map(ord, ident)))
    cases = []
    for _ in range(8):
        a, b = [rng.choice(["", "-", "--"]) + f"({gen(rng)})" for gen in (gen_a, gen_b)]
        cases.append((ident, parse_expr(a), parse_expr(b), rng.choice(LEMMA_EXPONENTS)))
    # sampled parity: one path per side, residuals far from 0; with a top
    # minus on a, each path's multipliers take a's sign
    cases.append(("Eq4", parse_expr("cos(t)"), parse_expr(SPIKED_B), (3, 1)))
    cases.append(("Eq4", parse_expr("-(cos(t))"), parse_expr(f"-({SPIKED_B})"), (3, 1)))
    for name, a, b, (p, q) in cases:
        n = classify_exponent(p, q)
        mirrored = None not in (structural_parity(a), structural_parity(b))
        for ts in _GRIDS:
            got = identity_residuals(name, a, b, n, ts)
            assert got == _fresh_residuals(name, a, b, (p - q) / q, ts, mirrored)
            if mirrored:
                assert got == [0.0] * len(ts)
            elif b.source == SPIKED_B and max(map(abs, ts)) > 1.0:
                assert max(got) > 1e-3


# --- one read per distinct time -----------------------------------------------

def _twelve_reads(ident: str, a, b, n, ts) -> list:
    """`identity_residuals` as it was when it read one state per read, 2 *
    len(ts) of them (12 for the benchmark's grid), and not each distinct
    time once: the reference the one-read body equals bit for bit."""
    m = minus_one(n)
    par_a, par_b, sigma = quad._IDENTITIES[Identity(ident)]
    assert (detect_parity(a), detect_parity(b)) == (par_a, par_b)
    ka, kb, _ = reflection_signs(None, -1, 1, par_a.sign, par_b.sign)
    mirrored = bool(reflections(a, b))
    left, right = sigma * m, ka * sigma * m
    reads = [(-t, left, 1.0) for t in ts] + [(t, right, 1.0) for t in ts]
    if mirrored:
        reads = [(-x, ka * mult, kb) if x < 0.0 else (x, mult, 1.0) for x, mult, _ in reads]
    carried = {}

    def solve(t_end: float):
        side = t_end >= 0.0
        here = {mult for x, mult, _ in reads if (x >= 0.0) is side}
        mults = carried[side] = tuple(dict.fromkeys(u for u in (left, right) if u in here))
        return nested_path(a, b, mults, t_end)

    states = grid_values(solve, [x for x, _, _ in reads])
    got = [f * y[1 + carried[x >= 0.0].index(mult)] for (x, mult, f), y in zip(reads, states)]
    return [abs(-bl + kb * br) for bl, br in zip(got[:len(ts)], got[len(ts):])]


def _bench_identities(seed: int) -> list:
    """The identities workload's first 400 operations at seed, as
    (ident, a, b, n): all of them t-mirrored."""
    return [(item.ident, parse_expr(item.a), parse_expr(item.b), classify_exponent(item.p, item.q))
            for item in bench_inputs().identity_inputs(seed, 400)]


def _states_read(monkeypatch) -> list:
    """The number of times each `grid_values` call of `quad` reads."""
    counts, orig = [], quad.grid_values

    def counted(solve, ts):
        counts.append(len(ts))
        return orig(solve, ts)

    monkeypatch.setattr(quad, "grid_values", counted)
    return counts


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identity_residuals_equal_twelve_reads_on_the_benchmarks_inputs(seed):
    for ident, a, b, n in _bench_identities(seed):
        assert repr(identity_residuals(ident, a, b, n, BENCH_TS)) == repr(_twelve_reads(ident, a, b, n, BENCH_TS))


def test_identity_residuals_equal_twelve_reads_where_only_sampling_finds_the_parity(monkeypatch):
    # no mirror is certified, so each side of 0 that holds a read
    # integrates its own path, and every time is read on its own side
    a, b = parse_expr("cos(t)"), parse_expr(SPIKED_B)
    assert reflections(a, b) == [] and detect_parity(b) is Parity.ODD
    for ts in [BENCH_TS, *_GRIDS, [0.0, -0.0, 2.0, 2.0, -2.0, -0.0, -2.0]]:
        calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
        got = identity_residuals("Eq4", a, b, N3, ts)
        assert repr(got) == repr(_twelve_reads("Eq4", a, b, N3, ts))
        assert len(calls) == len({x >= 0.0 for t in ts for x in (-t, t)})
        monkeypatch.undo()


@pytest.mark.parametrize(
    "a,b,n,code",
    [("cos(t)", "sin(t)", "3", 0), ("t", "cos(t)", "3", 0), ("cos(t)", "cos(t)", "2", 0),
     ("cos(t)", SPIKED_B, "3", 4)],
)
def test_identity_residuals_equal_twelve_reads_on_the_clis_times(monkeypatch, capsys, a, b, n, code):
    # `bsym identities` reads --samples times in (0, --t-max], none below
    # 0; the sampled parity's residuals exceed the tolerance, exit 4
    seen, orig = [], cli.identity_residuals

    def recorded(*args):
        seen.append((args, orig(*args)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "identity_residuals", recorded)
    assert cli.main(["identities", a, b, n, "--samples", "8"]) == code
    assert seen and all(len(ts) == 8 and min(ts) > 0.0 for (_, _, _, _, ts), _ in seen)
    for (ident, *args), got in seen:
        assert repr(got) == repr(_twelve_reads(ident.value, *args))


def test_an_identities_op_reads_three_states(monkeypatch):
    # the benchmark's six times are +-0.5, +-1.5 and +-3: under a certified
    # mirror both sides' reads land on the three |t|, each read once where
    # 12 states were read before; a sampled parity reads the six on their sides
    counts = _states_read(monkeypatch)
    ops = _bench_identities(1)
    for ident, a, b, n in ops:
        identity_residuals(ident, a, b, n, BENCH_TS)
    assert counts == [3] * len(ops)
    counts.clear()
    identity_residuals("Eq4", parse_expr("cos(t)"), parse_expr(SPIKED_B), N3, BENCH_TS)
    assert counts == [6]


def test_identity_residuals_of_an_empty_grid_integrate_nothing(monkeypatch):
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    assert identity_residuals("Eq4", parse_expr("cos(t)"), parse_expr("sin(t)"), N3, []) == []
    assert calls == []


@pytest.mark.parametrize("b", ["sin(t)", SPIKED_B])
def test_identity_residuals_at_signed_zeros_and_repeated_times(b):
    # t = +-0.0 reads B(0) = 0 on the side t >= 0; a repeated t reads the
    # same point twice
    a, b = parse_expr("cos(t)"), parse_expr(b)
    ts = [0.0, -0.0, 2.0, 2.0, -2.0, -0.0, -2.0]
    got = identity_residuals("Eq4", a, b, N3, ts)
    mirrored = structural_parity(b) is not None
    assert got == _fresh_residuals("Eq4", a, b, 2.0, ts, mirrored)
    assert got[:2] == [0.0, 0.0] and got[5] == 0.0
    assert got[2] == got[3] and got[4] == got[6]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_identity_residuals_reject_non_finite_times(monkeypatch, bad):
    # before any integration
    a, b = parse_expr("cos(t)"), parse_expr("sin(t)")
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    with pytest.raises(ValueError):
        identity_residuals(Identity.EQ4, a, b, N3, [0.5, bad])
    assert calls == []


@pytest.mark.parametrize(
    "ident,gen_a,gen_b",
    [
        (Identity.EQ4, random_even_source, random_odd_source),
        (Identity.EQ7, random_odd_source, random_even_source),
        (Identity.EQ8, random_even_source, random_even_source),
        (Identity.EQ9, random_even_source, random_even_source),
    ],
)
def test_identity_property_randomized(ident, gen_a, gen_b):
    rng = random.Random(hash(ident.value) & 0xFFFF)
    ts = [-3.0, -1.5, -0.5, 0.5, 1.5, 3.0]
    for _ in range(25):
        a = parse_expr(gen_a(rng))
        b = parse_expr(gen_b(rng))
        n = classify_exponent(*rng.choice(LEMMA_EXPONENTS))
        for r in identity_residuals(ident, a, b, n, ts):
            assert r <= 1e-8


# --- one path, several multipliers -------------------------------------------

def _outcome(path) -> tuple:
    """repr of a path's nodes, states and stages: every bit, signed zeros too."""
    return repr(path.ts), repr(path.ys), repr(path.ks)


@pytest.mark.parametrize("mult", [2.0, -1.0, 0.0, -2 / 3])
@pytest.mark.parametrize("t_end", [3.0, -2.5, 0.0])
def test_a_one_multiplier_path_is_the_plain_ab_integration(mult, t_end):
    # a 1-tuple gives the path of the (A, B) right-hand side written out
    # here, through the stepper alone
    a, b = parse_expr("cos(t) + t/3"), parse_expr("sin(2*t) - t^2/9")
    fa, fb = as_callable(a), as_callable(b)

    def rhs(t, A):
        return fa(t), fb(t) * math.exp(mult * A)

    want = _outcome(integrate(rhs, (0.0, 0.0), t_end, QUAD_CONTROL))
    assert _outcome(nested_path(a, b, (mult,), t_end)) == want


@pytest.mark.parametrize("gen_a, gen_b", [
    (random_even_source, random_odd_source),
    (random_odd_source, random_even_source),
    (random_even_source, random_even_source),
    (random_odd_source, random_odd_source),
])
def test_each_b_of_a_two_multiplier_path_is_its_own_paths(gen_a, gen_b):
    # B_mu and B_-mu of one (A, B, B) path agree with the (A, B) paths of
    # mu and of -mu: each B integrates its own multiplier, the second one
    # included.  Both paths land on the end node, where they agree to
    # 1e-9; between nodes the dense output holds about 1e-8
    rng = random.Random(11)
    ts = (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)
    for _ in range(6):
        a, b = parse_expr(gen_a(rng)), parse_expr(gen_b(rng))
        p, q = rng.choice([(3, 1), (2, 1), (-1, 1), (5, 3)])
        mu = (p - q) / q
        for side in (1.0, -1.0):
            grid = sorted((t for t in ts if side * t > 0.0), key=abs)
            both = nested_path(a, b, (mu, -mu), side * 3.0).values(grid)
            for k, mult in enumerate((mu, -mu)):
                own = nested_path(a, b, (mult,), side * 3.0).values(grid)
                for t, (A, *bs), (A1, B1) in zip(grid, both, own):
                    tol = (1e-9 if abs(t) == 3.0 else 1e-8) * max(1.0, abs(B1))
                    assert abs(A - A1) <= tol and abs(bs[k] - B1) <= tol


# --- stepper-level properties ---------------------------------------------------

def test_linearity_in_the_integrand():
    rng = random.Random(5)
    for _ in range(15):
        a = parse_expr(random_source(rng))
        t = rng.uniform(-3.0, 3.0)
        base = _integral_A(a, t)
        for alpha in (-2.0, 0.5, 3.0):
            scaled = BinOp("*", Const(alpha), a)
            v = _integral_A(scaled, t)
            assert v == pytest.approx(alpha * base, rel=1e-10, abs=1e-10)


def test_orientation_matches_reversed_limits():
    # int_0^{-t} = -int_{-t}^0, checked against the independent Simpson rule
    rng = random.Random(17)
    for _ in range(50):
        src = random_source(rng)
        a = parse_expr(src)
        t = rng.uniform(0.1, 3.5)
        direct = _integral_A(a, -t)
        over_reversed = simpson(lambda s, a=a: a(s), -t, 0.0, h=1e-4)
        assert direct == pytest.approx(-over_reversed, rel=1e-6, abs=1e-7)


def test_ab_values_consistent_with_pointwise():
    a, b = parse_expr("sin(t)"), parse_expr("cos(t)")
    ts = [-2.0, -0.3, 0.0, 0.7, 2.4]
    pairs = ab_values(a, b, 1.0, ts)
    for t, (av, bv) in zip(ts, pairs):
        assert av == pytest.approx(_integral_A(a, t), abs=1e-9)
        assert bv == pytest.approx(ab_values(a, b, 1.0, [t])[0][1], abs=1e-9)


def test_quad_config_validation():
    # the quadrature's control rejects a bad tolerance or minimum step
    with pytest.raises(ValueError):
        dataclasses.replace(QUAD_CONTROL, abs_tol=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(QUAD_CONTROL, min_step_fraction=0.0)


# --- signs of a and b ---------------------------------------------------------

_COEFS = ["cos(t)", "t/3", "-(sin(t))", "--t", "0.5 + t", "-(t^2/9)", "1", "-(-(exp(t/2)))"]
_T = st.floats(min_value=-2.5, max_value=2.5, allow_nan=False)


def _searched(a, b, m: float):
    """The validity-search paths, to +-2, of a problem with coefficients a
    and b and exponent n = m + 1 (none for the unit exponent)."""
    n = Fraction(m + 1.0).limit_denominator(4)
    p = ProblemSpec(a, b, classify_exponent(n.numerator, n.denominator), 1.0)
    validity_interval(p, 2.0)
    return p._searched


def _own_pairs(a, b, m: float, ts, searched):
    """(A, B) at every t on paths of the trees a and b themselves, each side
    to +-2 where `searched` holds a path reaching the side, else to the
    side's farthest t."""
    def solve(x):
        reach = 2.0 if searched and abs(x) <= 2.0 else abs(x)
        return own_path(a, b, m, math.copysign(reach, x))

    return grid_values(solve, ts)


@settings(max_examples=60, deadline=None)
@given(
    a=st.sampled_from(_COEFS),
    b=st.sampled_from(_COEFS),
    m=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0]),
    ts=st.lists(_T, min_size=1, max_size=5),
    with_searched=st.booleans(),
)
# a subnormal t once made the stepper spin its whole step budget
@example(a="cos(t)", b="cos(t)", m=-2.0, ts=[5e-324], with_searched=False)
def test_ab_values_of_negated_coefficients_negate_the_pair(a, b, m, ts, with_searched):
    # ab_values(-a, -b, m) is ab_values(a, b, -m) with both components
    # negated, and both are the values on the flipped trees' own paths
    a, b = parse_expr(a), parse_expr(b)
    na, nb = negated(a), negated(b)
    flipped, plain = ({}, {})
    if with_searched:
        flipped, plain = _searched(na, nb, m), _searched(a, b, -m)
    # copies: ab_values leaves a fresh side's path in the table it is given
    got = ab_values(na, nb, m, ts, dict(flipped))
    signed_back = ab_values(a, b, -m, ts, dict(plain))
    assert got == [(-aval, -bval) for aval, bval in signed_back]
    assert got == _own_pairs(na, nb, m, ts, flipped)


def test_a_side_reads_a_mirror_only_of_a_path_toward_its_exact_end(monkeypatch):
    # a odd: the path toward -x is the t-mirror of the path toward x; a path
    # toward a farther end is not read in its place, since its first step
    # (span/64) and its clamped last step differ
    a, b = parse_expr("sin(t)"), parse_expr("cos(t)")
    paths = count_calls(monkeypatch, "bsym.quad", "nested_path")
    for ts, ends in (([-0.8, 0.3, 0.8], [0.8]), ([-0.5, 0.3, 0.8], [0.8, -0.5])):
        paths.clear()
        assert ab_values(a, b, 2.0, ts) == _own_pairs(a, b, 2.0, ts, {})
        assert [call[3] for call in paths] == ends


@pytest.mark.parametrize("ts", [[5e-324], [-5e-324, 1e-322], [-1.5e-322, 0.0, 3e-320]])
def test_ab_values_at_subnormal_times(ts):
    # A and B grow like t from 0; a span whose 64th part underflows to 0.0
    # is one step (it once spun the 1 000 000-step budget into a StepFailure)
    a, b = parse_expr("cos(t)"), parse_expr("cos(t)")
    assert ab_values(a, b, -2.0, ts) == [(t, t) for t in ts]


def test_every_path_integrates_the_problems_own_trees(monkeypatch, tmp_path):
    # every path integrates a and b as written, top minuses included, and
    # a certified mirror still serves its side: in validity searches, in
    # solve grids past the searched paths, in a closed-form verify and in
    # the identities
    from bsym.cli import main
    from bsym.closedform import solution_values

    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    a, b = "-(sin(t))", "-(cos(t))"  # a odd, b even, both certified
    p = problem(a, b, 2, 0.5)
    validity_interval(p, 1.0)
    assert len(calls) == 1  # the side toward -1 is the mirror of the one toward 1
    for q in (p, problem(a, b, 1, 0.5)):  # n = 1 searches no path
        before = len(calls)
        # past the searched paths on both sides: the side toward -2 reads
        # the mirror of the path this call integrated toward 2
        solution_values(q, [-2.0, 0.5, 2.0])
        assert [call[3] for call in calls[before:]] == [2.0], q.n
    prob = tmp_path / "p.json"
    prob.write_text('{"a": "-(cos(t))", "b": "-(t)", "n": "3", "d": "1"}', encoding="utf-8")
    trees = {(p.a, p.b), (parse_expr("-(cos(t))"), parse_expr("-(t)"))}
    args = ["verify", "--problem", str(prob), "--case", "all", "--method", "closed"]
    before = len(calls)
    assert main([*args, "--report", str(tmp_path / "rep.json")]) == 0
    assert len(calls) > before
    before = len(calls)
    assert identity_residuals("Eq7", parse_expr(a), parse_expr(b), N2, [-1.0, 1.5]) == [0.0, 0.0]
    assert len(calls) == before + 1
    # the verify's partners are read from p1's solve, so every path is of
    # p's or the verified problem's own trees, each under its top minus
    assert {(call[0], call[1]) for call in calls} == trees
    assert all(isinstance(call[0], Neg) and isinstance(call[1], Neg) for call in calls)


# --- reflections t -> -t of paths with coefficients of structural parity ----

_ODD_CALLS, _EVEN_CALLS = ("sin", "sinh"), ("cos", "cosh")


def _combine(draw, children):
    """One node over children, as (source, parity sign): a call, a product,
    a sum of two of one parity, or a negation."""
    kind = draw(st.sampled_from(["call", "product", "sum", "neg"]))
    x, ex = draw(children)
    if kind == "call":
        func = draw(st.sampled_from(_ODD_CALLS + _EVEN_CALLS))
        return f"{func}({x})", ex if func in _ODD_CALLS else 1
    if kind == "neg":
        return f"-({x})", ex
    y, ey = draw(children)
    if kind == "sum" and ex == ey:
        return f"({x}) + ({y})", ex
    return f"({x})*({y})", ex * ey


_PARITY_TREES = st.recursive(
    st.sampled_from([("t", -1), ("0.5", 1), ("2", 1), ("t^2", 1), ("t^3", -1), ("--t", -1)]),
    lambda children: st.composite(lambda draw: _combine(draw, children))(),
    max_leaves=3,
)


@settings(max_examples=80, deadline=None)
@given(
    a=_PARITY_TREES,
    b=_PARITY_TREES,
    m=st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0]),
    end=st.builds(math.copysign, st.floats(min_value=0.1, max_value=2.0), st.sampled_from([1.0, -1.0])),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    level_fraction=st.floats(min_value=0.05, max_value=1.5),
    flip_a=st.booleans(),
    flip_b=st.booleans(),
)
def test_reflected_path_is_the_mirrored_triples_own_path(
    a, b, m, end, fractions, level_fraction, flip_a, flip_b
):
    # the path of (sa*a, sb*b, m) toward `end` is the t-mirror of the path
    # of (a, b, -eps_a*sa*m) toward -end, read at -t with A and B
    # multiplied by (-eps_a*sa, -eps_b*sb), for the structural parities
    # eps of a and b: same values, and the same first crossings, bit for
    # bit (== ignores the sign of a zero)
    (a, ea), (b, eb) = a, b
    a, b = parse_expr(a), parse_expr(b)
    assert [structural_parity(a).sign, structural_parity(b).sign] == [ea, eb]
    sa, sb = (-1.0 if flip_a else 1.0), (-1.0 if flip_b else 1.0)

    def path_or_failure(a, b, mult, t):
        try:
            return nested_path(a, b, (mult,), t)
        except (EvalError, StepFailure) as exc:
            return type(exc)

    direct = path_or_failure(
        Neg(a) if flip_a else a, Neg(b) if flip_b else b, m, end
    )
    source = path_or_failure(a, b, -ea * sa * m, -end)
    if isinstance(direct, type) or isinstance(source, type):
        assert direct == source  # the same failure on both
        return
    view = PathView(source, (-ea * sa, -eb * sb))
    assert view.t_reached == direct.t_reached
    qs = [f * end for f in sorted(fractions)] + [end]
    assert view.values(qs) == direct.values(qs)
    for k in (0, 1):
        reached = direct.y_end[k]
        for level in (level_fraction * reached, -level_fraction * reached):
            if level != 0.0:
                assert view.first_crossing(k, level) == direct.first_crossing(k, level)


@settings(max_examples=60, deadline=None)
@given(
    a=_PARITY_TREES,
    b=_PARITY_TREES,
    mults=st.lists(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0]), min_size=2, max_size=2),
    end=st.builds(math.copysign, st.floats(min_value=0.1, max_value=2.0), st.sampled_from([1.0, -1.0])),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_the_mirror_of_a_two_multiplier_path_is_the_mirrored_multipliers_path(
    a, b, mults, end, fractions
):
    # the path of (a, b, (mu1, mu2)) toward -end, read at t -> -t with A
    # multiplied by ka and each B by kb, is the path of (ka*mu1, ka*mu2),
    # in that order, toward end: ka = -eps_a, kb = -eps_b for the
    # structural parities eps of a and b
    (a, ea), (b, eb) = a, b
    a, b = parse_expr(a), parse_expr(b)
    ka, kb = -ea, -eb
    try:
        source = nested_path(a, b, tuple(mults), -end)
    except (EvalError, StepFailure) as exc:
        with pytest.raises(type(exc)):
            nested_path(a, b, tuple(ka * mu for mu in mults), end)
        return
    direct = nested_path(a, b, tuple(ka * mu for mu in mults), end)
    view = PathView(source, (ka, kb, kb))
    assert view.t_reached == direct.t_reached
    qs = [f * end for f in sorted(fractions)] + [end]
    assert view.values(qs) == direct.values(qs)


# B(t) = int_0^t b exp(2 A) of a = 0.42 cos t, b = 0.85 sin t (A = 0.42 sin t)
# by 30-digit mpmath.quad on the trees' floats 0.42 and 0.85
_MPMATH_B = {
    -1.5: 0.4218301818015862160444826,
    0.5: 0.1371708672139789151513888,
    1.5: 1.532048501107742740023676,
    3.0: 3.333242295324321823837118,
}


def test_b_between_nodes_is_as_accurate_as_at_them():
    # the quadrature's degree-7 extension reads B at t = 1.5, between the
    # nodes of the path toward 3, 5.4e-14 from the reference, and every
    # point within 1e-12; DP5's quartic read it 2.17e-8 off, and its end
    # node 1.9e-10
    a, b = parse_expr("0.42*cos(t)"), parse_expr("0.85*sin(t)")
    ts = (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)
    assert 1.5 not in nested_path(a, b, (2.0,), 3.0).ts
    got = dict(zip(ts, ab_values(a, b, 2.0, ts)))
    for t, reference in _MPMATH_B.items():
        assert abs(got[t][1] - reference) <= 2e-12, t


# --- the dense stages, evaluated on a step's first read ------------------------

@pytest.mark.parametrize("name", ["division", "overflow"])
def test_a_failure_at_a_dense_stage_raises_from_each_read_that_opens_the_step(name):
    # the loop never evaluates DOP853's dense stages, so the path returns;
    # a values read and a crossing walk each raise the typed EvalError
    # that the loop raised where it evaluated them, and the step waits for
    # its stages, so the next read raises again; other steps read as usual
    payload, step, message = dense_stage_failures()[name]
    a, b = parse_expr(payload["a"]), parse_expr(payload["b"])
    path = nested_path(a, b, (float(payload["n"]) - 1.0,), 1.05)
    inside = 0.5 * (path.ts[step] + path.ts[step + 1])
    reads = [
        lambda: path.values([inside]),
        lambda: PathView(path, (-1.0, 1.0)).values([-inside]),
        lambda: path.first_crossing(1, 1e300),
        lambda: path.values([inside]),
    ]
    for read in reads:
        with pytest.raises(EvalError) as info:
            read()
        assert str(info.value) == message
    assert path.hs[step] is not None and path.hs[:step] == [None] * step
    early = 0.5 * path.ts[1]
    assert path.values([early, path.ts[step]]) == [path.value(early), path.ys[step]]
