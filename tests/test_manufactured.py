"""Both routes against the manufactured family's exact references.

`manufactured.family()` is 200 seeded problems whose A, B, G, ends and y
are exact (see tests/manufactured.py).  Each bound below is 5 times the
value the family measured when the test was written, rounded up to one
significant digit; the miss and false-end counts are 0 exactly.  Bounds
only tighten.
"""

import math
from fractions import Fraction

import pytest

import manufactured
from bsym import parse_exponent, parse_expr
from bsym.closedform import _radicand, problem
from bsym.exponent import minus_one

CLOSED_BOUND = 2e-11  # measured 3.16e-12
END_BOUND = 3e-12  # measured 4.11e-13
ORACLE_BOUND = 4e-8  # measured 7.94e-9


@pytest.fixture(scope="module")
def family():
    return manufactured.family()


@pytest.fixture(scope="module")
def summary(family):
    return manufactured.measure(family)


def test_the_family_is_exact_at_t_0(family):
    assert len(family) == manufactured.COUNT == 200
    assert {mp.n for mp in family} == set(manufactured.EXPONENTS)
    assert any(mp.d < 0 for mp in family) and any(mp.d > 0 for mp in family)
    for mp in family:
        assert parse_expr(mp.a).source and parse_expr(mp.b).source
        # m exactly, and as the float that the package and b's text both round it to
        assert mp.m == Fraction(mp.n) - 1 and float(mp.m) == minus_one(parse_exponent(mp.n))
        # G(0) = d^(1-n) exactly, which the package reads to within one rounding
        g0, _, _ = _radicand(problem(mp.a, mp.b, mp.n, mp.d))
        assert abs(g0 - mp.G[0]) <= math.ulp(g0)
        assert mp.reference(0.0) == mp.d


def test_closed_form_values_within_bound(summary):
    assert summary["problems"] == 200
    assert summary["closed_worst"] <= CLOSED_BOUND


def test_validity_ends_within_bound_none_missed_none_false(summary):
    assert summary["misses"] == 0
    assert summary["false_ends"] == 0
    assert summary["end_worst"] <= END_BOUND


def test_oracle_values_within_bound(summary):
    assert summary["oracle_worst"] <= ORACLE_BOUND


def test_each_median_lies_between_0_and_its_worst(summary):
    for name in ("closed", "oracle", "end"):
        assert 0.0 <= summary[f"{name}_median"] <= summary[f"{name}_worst"]


def test_dropping_m_from_b_breaks_the_value_bound(family):
    # b = (B') alone integrates to B only where A = 0: every other problem
    # must read past the closed form's bound, so the bound sees a wrong b
    for mp in family:
        error = manufactured.value_error(mp, "closed", mp.without_m())
        if any(mp.A):
            assert error > CLOSED_BOUND, mp
        else:
            assert error <= CLOSED_BOUND, mp


def test_the_references_agree_with_mpmath(family):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def poly(cs, x):
        return sum(mpmath.mpf(c.numerator) / c.denominator * x**k for k, c in enumerate(cs))

    for mp in family[::5]:
        # each side's end is the float nearest G's real root nearest 0
        roots = [r.real for r in mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                                   for c in reversed(manufactured._trim(mp.G))],
                                                  maxsteps=200, extraprec=100)
                 if abs(r.imag) < 1e-20]
        for side, end in zip((-1, 1), mp.ends):
            near = [r for r in roots if 0 < side * r <= manufactured.RADIUS]
            if end is None:
                assert not near, mp
            else:
                root = min(near, key=abs)
                assert abs(end - root) <= math.ulp(end), mp
        for t in mp.interior()[::10]:
            x = mpmath.mpf(t)
            g = poly(mp.G, x)
            want = mp.sigma * mpmath.exp(poly(mp.A, x)) * mpmath.sign(g) * abs(g) ** mp.root
            assert abs(mp.reference(t) - want) <= 1e-14 * abs(want), (mp, t)
