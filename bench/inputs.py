"""Seeded input generator for the benchmark workloads.

Coefficients come from a parity-closed fragment of the bsym DSL: every
generated source is even, odd or neither by construction, and never the zero
function (sums use positive weights of atoms that are positive just right of
t = 0, and an overall sign is applied last).  The grammar lives here, apart
from the test helpers, so that editing the tests cannot silently change the
benchmark's inputs.

Each workload has a fixed composition: a list of templates (parities of a
and b, exponent class) that is cycled to the requested count.  The shape of
every coefficient (which atoms, how combined, which sign) is drawn from a
fixed structure stream; the seed draws the numeric weights, the initial
values and the order of the ops.  Two seeds thus give different problems
with the same mix of shapes, which keeps the seed-to-seed spread of the
timings small.

Inputs are plain data (strings and integers); the program receives only
these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

E, O, N = "even", "odd", "neither"

# magnitudes keep int a on [-4, 4] small, so exp((n-1)*A) stays moderate
EVEN_ATOMS = ("cos(t)", "sin(t)^2", "t^2/9", "cos(2*t)", "cosh(t/3)/2")
ODD_ATOMS = ("sin(t)", "t/3", "t^3/27", "sin(t)*cos(t)", "sin(2*t)", "sinh(t/3)/2")

EXPONENTS = {
    "even/odd": ((2, 1), (0, 1), (2, 3), (4, 3), (-2, 3)),
    "odd/odd": ((3, 1), (-1, 1), (5, 3), (1, 3), (3, 5)),
    "odd/even": ((1, 2), (3, 2), (-1, 2)),
    "one": ((1, 1),),
}
# the exponents the identity suites use; m = n - 1 stays within [-2, 4]
IDENTITY_EXPONENTS = ((-1, 1), (0, 1), (2, 1), (3, 1), (2, 3), (5, 3))

IDENTITY_PARITY = {"Eq4": (E, O), "Eq7": (O, E), "Eq8": (E, E), "Eq9": (E, E)}


@dataclass(frozen=True)
class ProblemInput:
    a: str
    b: str
    p: int
    q: int
    d: float
    exponent_class: str
    expected_cases: tuple[str, ...] = ()  # verify-all only, in catalog order

    @property
    def n_text(self) -> str:
        return str(self.p) if self.q == 1 else f"{self.p}/{self.q}"


@dataclass(frozen=True)
class IdentityInput:
    ident: str
    a: str
    b: str
    p: int
    q: int


class Draw:
    """Two random streams: `shape` is the same for every seed, `value`
    follows the seed."""

    def __init__(self, workload: str, seed):
        self.shape = random.Random(f"{workload}/shape")
        self.value = random.Random(f"{workload}/{seed}")

    def w(self, lo: float = 0.2, hi: float = 1.0) -> str:
        return f"{self.value.uniform(lo, hi):.2f}"

    def signed(self, src: str) -> str:
        return f"-({src})" if self.shape.random() < 0.5 else src


def even_source(r: Draw) -> str:
    kind, pick = r.shape.randrange(4), r.shape.choice
    if kind == 0:
        src = f"{r.w()}*{pick(EVEN_ATOMS)}"
    elif kind == 1:
        src = f"{r.w(0.2, 0.6)}*{pick(EVEN_ATOMS)} + {r.w(0.2, 0.6)}*{pick(EVEN_ATOMS)}"
    elif kind == 2:
        src = f"{r.w()}*{pick(ODD_ATOMS)}*{pick(ODD_ATOMS)}"
    else:
        src = r.w()
    return r.signed(src)


def odd_source(r: Draw) -> str:
    kind, pick = r.shape.randrange(3), r.shape.choice
    if kind == 0:
        src = f"{r.w()}*{pick(ODD_ATOMS)}"
    elif kind == 1:
        src = f"{r.w(0.2, 0.6)}*{pick(ODD_ATOMS)} + {r.w(0.2, 0.6)}*{pick(ODD_ATOMS)}"
    else:
        src = f"{r.w()}*{pick(EVEN_ATOMS)}*{pick(ODD_ATOMS)}"
    return r.signed(src)


def neither_source(r: Draw) -> str:
    if r.shape.random() < 0.25:  # only sampling can classify exp of an odd argument
        return f"{r.w(0.2, 0.6)}*exp({r.shape.choice(ODD_ATOMS)}/2)"
    return f"{even_source(r)} + {odd_source(r)}"


SOURCE = {E: even_source, O: odd_source, N: neither_source}


def _initial_value(r: Draw, cls: str, negative: bool) -> float:
    d = round(r.value.uniform(0.4, 1.8), 3)
    return -d if negative and cls != "odd/even" else d


def _shuffled(items: list, r: Draw) -> list:
    r.value.shuffle(items)
    return items


def _composition(templates, count: int):
    """Cycle the templates to `count` entries, each with its occurrence index."""
    return [(templates[i % len(templates)], i // len(templates)) for i in range(count)]


# verify-all: rows of the symmetry catalog that share a problem, with the
# cases `bsym verify --case all` must then run, in catalog order.
VERIFY_TEMPLATES = (
    (E, O, "even/odd", ("T2i", "T2iv", "T3i")),
    (O, E, "even/odd", ("T2ii", "T2iv", "T3ii")),
    (E, E, "even/odd", ("T2iii", "T2iv", "T3iii")),
    (E, O, "odd/odd", ("T3i", "T4ii", "T4iii")),
    (E, E, "odd/odd", ("T3iii", "T4ii", "T4iv")),
    (O, E, "odd/odd", ("T3ii", "T4i", "T4ii")),
    (O, O, "even/odd", ("T2iv",)),
    (E, E, "odd/even", ("T3iii",)),
)


def verify_inputs(seed, count: int) -> list[ProblemInput]:
    r = Draw("verify-all", seed)
    out = []
    for (pa, pb, cls, cases), k in _composition(VERIFY_TEMPLATES, count):
        pool = EXPONENTS[cls]
        p, q = pool[k % len(pool)]
        out.append(
            ProblemInput(
                SOURCE[pa](r), SOURCE[pb](r), p, q,
                _initial_value(r, cls, k % 2 == 1), cls, cases,
            )
        )
    return _shuffled(out, r)


# n = 1 skips the validity scan, so its ops are about twice as fast; at a
# quarter of the mix the median latency would sit in the gap between the two
# clusters and jump with small speed changes.  It gets a tenth instead.
SOLVE_TEMPLATES = tuple(
    (pa, pb, cls) for cls in EXPONENTS if cls != "one" for pa in (E, O, N) for pb in (E, O, N)
) + ((E, E, "one"), (O, O, "one"), (N, N, "one"))


def solve_inputs(seed, count: int) -> list[ProblemInput]:
    r = Draw("solve-dense", seed)
    out = []
    for (pa, pb, cls), k in _composition(SOLVE_TEMPLATES, count):
        pool = EXPONENTS[cls]
        p, q = pool[k % len(pool)]
        out.append(
            ProblemInput(
                SOURCE[pa](r), SOURCE[pb](r), p, q,
                _initial_value(r, cls, k % 2 == 1), cls,
            )
        )
    return _shuffled(out, r)


IDENTITY_TEMPLATES = tuple((ident, n) for ident in IDENTITY_PARITY for n in IDENTITY_EXPONENTS)


def identity_inputs(seed, count: int) -> list[IdentityInput]:
    r = Draw("identities", seed)
    out = []
    for (ident, (p, q)), _ in _composition(IDENTITY_TEMPLATES, count):
        pa, pb = IDENTITY_PARITY[ident]
        out.append(IdentityInput(ident, SOURCE[pa](r), SOURCE[pb](r), p, q))
    return _shuffled(out, r)


def exponent_class(p: int, q: int) -> str:
    """Parity class of the reduced p/q, computed here rather than by bsym."""
    g = gcd(p, q) or 1
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if p == q:
        return "one"
    if p % 2 == 0:
        return "even/odd"
    return "odd/even" if q % 2 == 0 else "odd/odd"
