"""Embedded Runge-Kutta stepper with continuous-extension dense output.

Shared integration core: the quadrature module drives it over the
integral-accumulator system, the direct-ODE oracle drives it over the
scalar Bernoulli equation.  Each caller passes its own `StepControl`,
which names the pair the loop runs: a `Tableau` record, the data every
loop and dense output is rendered from.  Two records exist: Dormand and
Prince's 5(4) pair with Shampine's 4th-order extension (`DP5`), which
the oracle runs, and Prince and Dormand's 8(5,3) pair with Hairer's
7th-order extension (`DOP853`), which the quadrature runs.

States are plain tuples of floats, which beats array machinery at these
sizes.  Negative spans are integrated by stepping with negative h; nodes
then appear in decreasing t order.  A run ends on t_end, at the first
accepted state with |y_0| past the caller's `limit` (`DensePath.blew_up`),
or in a `StepUnderflow` or `StepBudgetExceeded`: `errors.StepFailure`s
that carry the partial path.  An accepted state past the float range
raises OverflowError, as an overflowing stage value does.

The right-hand side is called as f(t, y_0): component 0 of the state,
the only one it reads, as a float, and it returns the derivatives of all
the components.  Every other component, such as the quadrature's B,
which never feeds back, is a pure quadrature: it gets no stage states,
only its new value and its error terms.  The adaptive loop is generated
from one template (`_KERNEL`), with every state component and stage
value in a local of its own, so a step builds no state tuple, does no
per-component zip or generator work and calls no max or min.  `_kernel`
renders it once per state dimension, checked form (`expr.CheckedForm`)
and tableau, compiled lazily, once per process: the record's rows become
the stage states, its weights the new state and its error rows the error
norm.  Its reuse stage, where the error does not read it, is evaluated
once a step is accepted, and the stages only the extension reads
(`Tableau.deferred`, DOP853's 14 to 16) on the step's first read, by the
loop's completion function (`_COMPLETE`), rendered from the same stage
code into the loop's source and handed to each path the loop makes
(`DensePath.completion`), which runs it on the `expr.Bound` it keeps.
At each stage the loop runs the form's code, the source
`CheckedForm.source` renders for the form's wrapper too: it calls the
coefficient functions inline, checks their values at the stage's time,
and assigns the form's value on the stage state to the stage.  An
`expr.Bound`, the plain data of a form and its bound values, runs as its
own form, so its checked wrapper never compiles; any other callable,
such as a test's reference system or a tracer's counting wrapper (which
may call a `Bound`), is bound as f to the call form `_CALL`, whose value
calls f.  The tableau comes from the control alone, never from the
right-hand side, so a wrapper runs the loop its caller's control names.
The record's reuse stage, f(t + h, new state), is at the time of the
stage before it, so it recomputes only the value on the new state.  Its
head stages have zero weight in the new state, the error estimates and
the dense output, and only component 0 feeds a later stage state: a form
that states its component-0 value as `CheckedForm.head` computes only
that there, on the coefficients it reads.  Per attempted step, DP5
evaluates each coefficient 1 + 5 times (the quadrature's b 1 + 4 times)
and calls f 1 + 6 times under the call form; DOP853 evaluates the
quadrature's a 1 + 11 times and b 1 + 7 times per attempt and calls
f 1 + 11 times per attempt and once more per accepted step.  Its dense
stages evaluate both coefficients, and call f, 3 times per step that a
read opens, and never on a step that none opens.  A loop's file name,
its completion function's too, is `<bsym.stepper NAME kernel dim=N
form #K>`, NAME the tableau's and K counting the loops the process has
compiled.

Every loop makes paths of the dimension's and tableau's `DensePath`
subclass (`_path_class`, file `<bsym.stepper NAME DensePath dim=N>`),
whose `values` walk unpacks a step's coefficients once and evaluates
each point's Horner form as straight-line code over locals; step i's
stored stages of component k are one tuple, `ks[i][k]` (until a read
opens the step, the stages the loop evaluated, `Tableau.kept`), and its
`_extension` builds each component's coefficients with the tableau's one
straight-line function (file `<bsym.stepper NAME steps>`).  The walk is
one template, `_DENSE_PATH`; it returns states, and a caller such as
the closed form computes what it needs from them.  Every
source is registered in `linecache`, so tracebacks and profiles show the
generated lines; each coefficient function keeps a profiler entry of its
own.  Paths (nodes, states, `blew_up` flag, and the stages once each
step is opened) are bit-identical to those of the plain component-wise
loop of their tableau, and dense values to those of the column-by-column
extension, which the tests keep as the references.

Dense output is the continuous extension of each accepted step, of
degree 4 under DP5 and 7 under DOP853, built from the stages the step
stored, so a query between nodes costs no right-hand-side evaluation
beyond DOP853's three dense stages on the first read of a step.
`DensePath.values` answers times that run outward from the path's start
in one walk over its steps, and `DensePath.first_crossing` locates
events on the same per-step polynomials, at the error scale of the
control the path was integrated at.  `grid_values` answers a grid that
straddles t = 0 from one 0-anchored path per side, split by one index
sort and a bisect, each side in one ordered walk that reads states,
which a caller's read may turn into its own values.

`PathView` is a path's t-mirror, read through t -> -t with its
components' signs changed, a view that queries its source and copies
nothing: the one place that knows how a reflection acts on a path's
values and crossings.  Its reads run its source's walk at -t, to which
it passes the signs.  The quadrature reads a problem's side
toward -t through the t-mirror of the problem's own path toward t where
`exponent.reflections` certifies it (`quad.ab_sides`); no path is kept
across problems.
The identities and the oracle need no view: under a certified mirror they
read at -t on the same path where they would read at t < 0, and
`symmetry.verify_cases` answers a certified partner from p1's values.
The crossing walk skips a step that cannot reach the level by a bound on
how far its extension moves, from the step's first stage, its change to
the end stage and each other stage's distance from the line between
them (`_reach`, from the tableau's `reach_weights`); the bound reads
every stored stage, so the walk opens its steps a run of `_RUN` at a
time.
"""

from __future__ import annotations

import itertools
import linecache
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .errors import EvalError, StepFailure
from .expr import Bound, CheckedForm

__all__ = [
    "DP5",
    "DOP853",
    "Tableau",
    "StepControl",
    "DensePath",
    "PathView",
    "StepUnderflow",
    "StepBudgetExceeded",
    "integrate",
    "grid_values",
]

State = tuple
RHS = Callable[[float, float], Sequence[float]]  # f(t, y_0)


@dataclass(frozen=True, eq=False)
class Tableau:
    """An embedded explicit Runge-Kutta pair with its continuous extension,
    as the data `_kernel` and `_path_class` render their loops from.

    Stage j (k1 first) is evaluated at t + c[j-1] * h on the state
    y + h * sum_i a[j-1][i] * k_{i+1}.  `b` weighs the stages into the new
    state.  One row of `e` weighs them into the error estimate, a
    difference of two orders (DP5); two rows are DOP853's 5th-order
    estimate's weights and its 3rd-order solution's, bhh, whose estimate
    is b.k - bhh.k, and the loop mixes the two (`_ERROR_NORMS`).  The
    stages in `head` have zero weight in the new state, every error
    estimate and the extension, so only their component 0 feeds anything.
    Stage `reuse` is f(t + h, new state) at the time of the stage before it,
    whose coefficient values it reuses; it is the next step's first stage.
    The stages the new state and the error read are evaluated at each
    attempt, the reuse stage once a step is accepted, and every other later
    one (`deferred`) on the first read of the step.  Row s of
    `dense` weighs stage s + 1 into the extension:
    y(t + th*h) = y + h * sum_s k_{s+1} * sum_j dense[s][j] * th^(j+1).
    A step's error e scales the next step by 0.9 * e**`exponent`, clamped.
    Records compare and hash by identity, so a control names its tableau
    at the cost of a pointer.
    """

    name: str
    c: tuple
    a: tuple
    b: tuple
    e: tuple
    head: tuple
    reuse: int
    dense: tuple
    exponent: float

    @cached_property
    def stored(self) -> tuple:
        """The stages with a row in the extension: what a path keeps of a step."""
        return tuple(j for j, row in enumerate(self.dense, 1) if any(row))

    @cached_property
    def attempt(self) -> int:
        """The last stage that the new state or an error estimate reads."""
        return max(j for row in (self.b, *self.e) for j, w in enumerate(row, 1) if w)

    @cached_property
    def deferred(self) -> tuple:
        """The stages past `attempt` other than `reuse`, which only the
        extension reads: a step evaluates them on its first read."""
        return tuple(j for j in range(self.attempt + 1, len(self.c) + 1) if j != self.reuse)

    @cached_property
    def kept(self) -> tuple:
        """The stored stages that an accepted step keeps before its first read."""
        return tuple(j for j in self.stored if j not in self.deferred)

    @property
    def degree(self) -> int:
        return len(self.dense[0])

    @cached_property
    def reach_weights(self) -> tuple:
        """(W0, W1, V) of `_reach`: W0 weighs |k1|, W1 |D|, D = k_e - k1 the
        change to the end stage k_e (`reuse`, f(t + h, new state)), and V[s]
        |r_s|, r_s = k_s - k1 - c_s * D, of each other later stored stage
        k_s: the part of its change that the line through k1 and k_e leaves.

        Step i's extension coefficient c_j = h * sum_s P[s][j] * k_s is
        h * (S_j * k1 + L_j * D + sum_s P[s][j] * r_s), S_j the column's
        exact sum (0 for j >= 1, up to the rounding of the stated constants)
        and L_j = sum_s P[s][j] * c_s (1/2 for j = 2, else about 0: the
        extension integrates a linear k exactly), so only the r_s, of the
        order of h^2 k'', meet the columns' large weights.  The computed c_j
        is off by at most gamma * sum_s |P[s][j] * k_s|, gamma = (n + 2) *
        2**-53 for n stored stages (Higham, Accuracy and Stability, 3.1),
        and |k_s| <= |k1| + c_s * |D| + |r_s|; the computed D and r_s of the
        bound are off by at most u * |D| and u * |r_s| + 3u * |D|, u = 2**-53.
        So W0 = sum_j (|S_j| + gamma * sum_s |P[s][j]|), W1 = (sum_j (|L_j| +
        gamma * sum_s c_s * |P[s][j]|) + 3.1u * sum V) * (1 + 1.01u) and
        V[s] = (1 + gamma) * (1 + 2.1u) * sum_j |P[s][j]| bound sum_j |c_j|,
        and the 1e-12 margin covers the rounding of the bound's own sums."""
        rows = [self.dense[j - 1] for j in self.stored]
        c = [Fraction(self.c[j - 1]) for j in self.stored]
        u = 2.0**-53
        gamma = (len(rows) + 2) * u
        w0 = sum(abs(math.fsum(column)) + gamma * sum(map(abs, column)) for column in zip(*rows))
        w1 = sum(
            abs(float(sum(Fraction(p) * cs for p, cs in zip(column, c))))
            + gamma * sum(float(cs) * abs(p) for p, cs in zip(column, c))
            for column in zip(*rows)
        )
        v = [(1.0 + gamma) * (1.0 + 2.1 * u) * sum(map(abs, self.dense[j - 1])) for j in self.lined]
        w1 = (w1 + 3.1 * u * sum(v)) * (1.0 + 1.01 * u)
        return (1.0 + 1e-12) * w0, (1.0 + 1e-12) * w1, tuple((1.0 + 1e-12) * vs for vs in v)

    @cached_property
    def lined(self) -> tuple:
        """The stored stages past k1 other than the end stage, whose r_s
        `_reach` weighs."""
        return tuple(j for j in self.stored if j not in (1, self.reuse))


# Dormand-Prince 5(4) (Hairer, Norsett and Wanner, Solving ODEs I, II.5)
# with Shampine's 4th-order continuous extension (II.6; scipy's RK45.P):
# its dense rows weigh k1, k3, .., k7, and at th = 1 they sum to b.  Its
# seventh stage is the FSAL stage; stage 2 has zero weight in every output
DP5 = Tableau(
    name="DP5",
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    a=(
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ),
    b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    # fifth-order minus embedded fourth-order weights
    e=((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),),
    head=(2,),
    reuse=7,
    dense=(
        (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
        (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
        (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
        (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
        (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
    ),
    exponent=-0.2,
)


# Prince and Dormand's 8(5,3) pair with its 7th-order continuous
# extension, in the digits of Hairer's dop853.f (Hairer, Norsett and
# Wanner, Solving ODEs I, II.10; scipy's dop853_coefficients.py holds the
# same).  Stage 13 is f(t + h, new state), whose row is b; stages 14 to 16
# serve only the extension.  Stages 2 to 5 weigh nothing in any output.
# The error rows are the 5th-order estimate's weights and the weights bhh
# of the embedded 3rd-order solution, whose estimate is b.k - bhh.k.  The
# extension is contd8's y0 + th*(F0 + (1-th)*(F1 + th*(F2 + (1-th)*(F3 +
# th*(F4 + (1-th)*(F5 + th*F6)))))), F0 = dy, F1 = h*k1 - dy, F2 = 2*dy -
# h*(k1 + k13), F3..F6 = h * d.k and dy = h * b.k, expanded in rationals
# into powers of th and rounded.  A constant integrand must integrate
# exactly, so two kinds of entries are adjusted in float: b's last weight
# is 1 minus the float sum of the others in the loop's order (the stated
# digits sum to 1.0000000000000004), and the last entry of each dense
# column j >= 1 is minus the float sum of the others (d's rows sum to as
# much as -5.3e-14).  tests/test_stepper.py derives both from the stated
# digits.
_DOP853_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 0.04471061572777224, 0.0, 0.0,
    0.0, 0.0,
)
DOP853 = Tableau(
    name="DOP853",
    c=(
        0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
        0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333,
        0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
        0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
    ),
    a=(
        (),
        (5.26001519587677318785587544488e-2,),
        (
            1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
        ),
        (
            2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2,
        ),
        (
            2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1,
        ),
        (
            3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
            1.25467687566822425016691814123e-1,
        ),
        (
            3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
            -1.7578125e-2,
        ),
        (
            3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
            1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
            8.27378916381402288758473766002e-3,
        ),
        (
            6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
            -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
            2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
        ),
        (
            4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
            -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
            1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
            -2.03312017085086261358222928593e-2,
        ),
        (
            -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
            1.09143734899672957818500254654, -8.14978701074692612513997267357,
            -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
            2.49360555267965238987089396762, -3.0467644718982195003823669022,
        ),
        (
            2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
            -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
            2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
            -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
            6.43392746015763530355970484046e-1,
        ),
        _DOP853_B[:12],
        (
            5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0, 2.53500210216624811088794765333e-1,
            -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
            1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
            7.56789766054569976138603589584e-3, -8.298e-3,
        ),
        (
            3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0, 2.83009096723667755288322961402e-2,
            5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0.0, 0.0,
            -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
            -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
        ),
        (
            -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
            7.68342119606259904184240953878, 4.06898981839711007970213554331,
            3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
            2.9475147891527723389556272149, -9.15095847217987001081870187138,
        ),
    ),
    b=_DOP853_B,
    e=(
        (
            0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
            -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
            -0.3503288487499736816886487290, 0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
            -0.2235530786388629525884427845e-1, 0.0, 0.0, 0.0, 0.0,
        ),
        (
            0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1, 0.0, 0.0, 0.0,
            0.0,
        ),
    ),
    head=(2, 3, 4, 5),
    reuse=13,
    dense=(
        (
            1.0, -10.266057073759306, 48.161850968566455, -114.93304874997833, 147.46446875669767,
            -97.06685363011368, 25.69393346270375,
        ),
        (0.0,) * 7,
        (0.0,) * 7,
        (0.0,) * 7,
        (0.0,) * 7,
        (
            0.0, 13.917653631776604, -154.78787266663716, 522.9219089608218, -456.25918840208783, -75.53193732135753,
            154.18974869023643,
        ),
        (
            0.0, 2.6056037519936095, -21.622822384626506, 2.535182028966755, 292.25417465990404, -505.40999933296894,
            231.5293791760455,
        ),
        (
            0.0, -15.018944223519684, 160.09447708973047, -474.3071826037644, 135.96036916173838, 545.1091945264187,
            -357.6391179106141,
        ),
        (
            0.0, 3.050527683318488, -38.54396729189063, 174.47140009219885, -337.0513470238771, 291.78987509083254,
            -93.40532418362432,
        ),
        (
            0.0, -1.3278744327655212, 16.661770430049543, -74.44027814126304, 140.75210016191608, -119.2562021040512,
            37.45832313645163,
        ),
        (
            0.0, 2.844533632672879, -36.55829548991012, 170.69007169147514, -345.9748485480496, 313.299553623578,
            -104.0996495089623,
        ),
        (
            0.0, 0.7657106259527866, -9.906995535619366, 46.8029919188744, -96.5198694669957, 88.74316650017616,
            -29.8402934266605,
        ),
        (
            0.0, -1.0889903364513334, 14.097013042320002, -66.68230591294363, 137.96299063474376,
            -127.82216401767992, 43.53345659001114,
        ),
        (
            0.0, 18.148505520854727, -127.63310949253875, 357.3419516129657, -500.7031507909224, 349.17035710882897,
            -96.32455395918828,
        ),
        (
            0.0, -9.194632392478356, 93.3567459327894, -282.6272618704363, 361.14007718803333, -201.85219053352347,
            39.17726167561544,
        ),
        (
            0.0, -4.436036387594893, 56.681205397766675, -261.77342902691703, 520.9742236688994, -461.17279991013964,
            149.7268362579856,
        ),
    ),
    exponent=-0.125,
)


@dataclass(frozen=True)
class StepControl:
    """Tolerances and limits of one adaptive integration.

    A step of the pair `tableau` is accepted when its error, scaled per
    component by abs_tol + rel_tol * |y|, has a norm of at most 1.  More
    than max_steps step attempts raise StepBudgetExceeded, and a step
    below min_step_fraction of the requested span raises StepUnderflow.
    The caller names the tableau: nothing chooses it from the right-hand
    side.
    """

    rel_tol: float
    abs_tol: float
    max_steps: int = 1_000_000
    min_step_fraction: float = 2.0**-40  # of the requested span
    tableau: Tableau = DP5

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


@dataclass
class DensePath:
    """Accepted nodes plus each step's stages, queryable between nodes.

    `values` evaluates the continuous extension of the bracketing step (of
    degree 4 under DP5, 7 under DOP853) at each of a run of times, walking
    the steps once; `value` is its
    one-time call.  `first_crossing` finds where a component first reaches
    a level on the same extensions.  A step's coefficients are built on its
    first query and cached, so a path queried at only a few points pays
    for only those steps; a crossing is cached once found, so a level that
    a problem's two sides read through a t-mirror is walked once.

    `integrate` returns an instance of the subclass `_path_class` renders
    for the state's dimension and the control's tableau, which defines
    `values`, `_extension` and `_reach`; `ctl` is the control the path was
    integrated at, whose tolerances `first_crossing` reads, `bound`
    the `expr.Bound` it was integrated from, and `completion` the function
    its loop renders to evaluate a step's deferred stages (None where the
    tableau defers none).  `ks[i][k]` is the tableau's
    stored stages (`Tableau.stored`; DP5's k1, k3, .., k7, DOP853's k1,
    k6, .., k16) of step i and component k, the one tuple every reader of
    the stages takes.  Until a read opens step i, it holds only the stages
    the loop evaluated (`Tableau.kept`; DOP853's k1, k6, .., k13) and
    hs[i] the step's h; the read that opens it, a `values` walk's
    `_extension` or the crossing walk, first evaluates its deferred stages
    (`Tableau.deferred`) with the step's own t, h, y_0 and stages, bit for
    bit as the loop would have, and sets hs[i] to None.
    """

    ctl: StepControl
    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    ks: list = field(default_factory=list)
    hs: list = field(default_factory=list)  # a step's h while its deferred stages wait, then None
    blew_up: bool = False  # |y_0| passed integrate's limit, ending the path early
    bound: Optional[Bound] = field(default=None, repr=False, compare=False)
    completion: Optional[Callable] = field(default=None, repr=False, compare=False)
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

    # bench/tracing.py wraps `DensePath.value` and `DensePath.value_refined`
    # by name; the one dense-output query keeps answering to both, on the
    # base class, so traced runs still start and see every subclass's calls
    value_refined = value

    def first_crossing(self, k: int, level: float) -> Optional[float]:
        """First t past ts[0] where component k reaches `level`, or None.

        Event location on the continuous extension (Hairer-Norsett-Wanner
        II.6; Shampine and Thompson 2000), step by step from ts[0], where
        y_k must differ from level.  On a step, y_k - level is a polynomial
        in the step fraction; its first root is bisected to full resolution.
        A stationary point within abs_tol + rel_tol * |y_k| of level, the
        error the path's control allowed y_k, counts as a tangent crossing,
        answered where y_k first comes within that error of the level, so
        that a touch of a double zero never answers past the zero.
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
        _reach = self._reach
        steps = len(ts) - 1
        ready = 0  # the steps before it hold all their stored stages
        for i in range(steps):
            if i == ready:  # the bound reads every stored stage
                ready = min(i + _RUN, steps)
                self._complete(i, ready)
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

    def _complete(self, lo: int, hi: int) -> None:
        """Evaluate the deferred stages of the steps lo to hi - 1 that lack
        them, in one call of the path's `completion`, which runs the bound
        form's code at each stage.  A coefficient that fails there raises its
        EvalError, and a stage value past the float range
        EvalError("integrand overflow: .."), from the read."""
        if self.completion is not None:  # a DP5 path defers nothing
            bound = self.bound
            try:
                self.completion(self, lo, hi, *bound.coefficients, *bound.env)
            except OverflowError as exc:
                raise EvalError(f"integrand overflow: {exc}") from None


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
    not change under negation either; and since a polynomial's roots do not
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
        """States at times that run outward from the start, as
        `DensePath.values`: the source's walk at -t, with its components'
        signs changed."""
        return self.source.values([-t for t in qs], self.signs)

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
    points (the derivative's roots), and each tangent touch: a stationary
    point with |p| <= tol, answered at the near edge of its band, the first
    point before it where |p| <= tol, so that a touch never answers past
    the zero it stands for."""
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
            if abs(p_lo) > tol:  # p is monotone on the piece
                while lo < (mid := 0.5 * (lo + hi)) < hi:
                    if abs(_horner(c, mid)) > tol:
                        lo = mid
                    else:
                        hi = mid
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
    `ctl` and the `Bound` and keeps step i's stages of component k as
    `ks[i][k]`, DOP853's dense stages once a read opens the step.  The
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
    kernel = _kernel(len(y0), bound.form, ctl.tableau)
    return kernel(y0, t_end, ctl, limit, bound, *bound.coefficients, *bound.env)


# The dense output and the adaptive loop, written once for every state
# dimension and tableau.  `vec<e>` expands to the tuple of e over the
# components and `sum<e>` to their sum from the first component on, with
# each `_i` suffix replaced by the component index: y_i is a state
# component, k2_i a stage value and z_i a component of the proposed new
# state.  A macro ends at the first `>`, so the comparisons inside one are
# written with `<`.  A line that is only `{name}` takes a section of
# lines rendered from the tableau, at its indentation.  Each expression
# keeps the operation order of the component-wise loops and the
# column-by-column extension kept in tests/test_stepper.py, which the
# tests require to be reproduced bit for bit.  The builtins max and min
# are written out as the comparisons they make: max(a, b) is
# `b if a < b else a` and min(a, b) is `b if b < a else a`, NaN included.
# The walk appends each time's state, its components' signs changed by a
# `PathView`'s; {open} evaluates a step's deferred stages on its first read.
_DENSE_PATH = """\
class {cls}(DensePath):
    \"""A `DensePath` of {dim}-component states under {tableau}.\"""

    def values(self, qs, signs=vec<1.0>):
        \"""States at times that run outward from ts[0], in one walk, each
        component times its sign: a `PathView`'s, else 1.0, which changes
        no float.

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
                append(vec<s_i * y_i>)
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
                    vec<{coefs}> = cached(i) or extension(i)
                    unpacked = True
                th = (t - t0) / (t1 - t0)
                vec<y_i> = vec<{horner}>
            append(vec<s_i * y_i>)
        return out

    def _extension(self, i):
        \"""Per component (y0, h*c1, ..) of step i's extension, cached.\"""
        {open}
        h = self.ts[i + 1] - self.ts[i]
        vec<y_i> = self.ys[i]
        vec<k_i> = self.ks[i]
        coefs = self._coefs[i] = vec<extension(h, y_i, k_i)>
        return coefs

    _reach = staticmethod(reach)
"""
# one component's extension and skip bound, rendered once per tableau
_STEP_FUNCTIONS = """\
def extension(h, y, stages):
    \"""(y0, h*c1, ..) of one component's extension on a step h.\"""
    {unpack} = stages
    return (
        y,
        {columns}
    )


def reach(h, stages):
    \"""A bound on sum_j |c_j| of a step's extension, from its step h
    and its stored stages of one component (`Tableau.reach_weights`).\"""
    {unpack} = stages
    d = {end} - {first}
    return abs(h) * ({reach})
"""


# The loop runs a checked form's (`expr.CheckedForm`) source inline.  f
# reads component 0 alone, so only that component has stage states.  Each
# stage evaluates and checks the form's coefficients at its time, held in
# s, and assigns the form's value at its state, held in the form's state
# name, to the kN_i.  A head stage (`Tableau.head`), whose components past
# 0 nothing reads, evaluates the form's `head` alone, on the coefficients
# that reads, where the form states one, and is a full stage otherwise.
# The reuse stage is at the time of the stage before it: it assigns only
# the value, on the coefficients evaluated there.  {trial} are the stages
# an attempt needs before its new state, whose increment b.k is d_i;
# {fsal} the reuse stage where the error reads it (DP5's k7); {error} the
# tableau's error norm; and {accept} the reuse stage where only an
# accepted step needs it (DOP853's k13), and the step's h where the tableau
# defers stages to the step's first read (`_COMPLETE`, rendered after the
# loop, which {completion} names, None where nothing is deferred).  An
# accepted step's kept stages are stored as one tuple per component.
# {params} are the form's bound arguments, the parts of `bound`, which the
# path keeps.
_KERNEL = """\
def {loop}(y0, t_end, ctl, limit, bound{params}):
    path = {cls}(ctl=ctl, bound=bound, completion={completion})
    append_t, append_y, append_k, append_h = path.ts.append, path.ys.append, path.ks.append, path.hs.append
    vec<y_i> = y0
    {first}
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

        t1 = t + h
        {trial}
        vec<z_i> = vec<y_i + h * (d_i := ({new}))>
        {fsal}
        {error}

        if not isfinite(err_norm):
            h *= 0.1
            continue
        if err_norm <= 1.0:
            # z_i - z_i is 0.0 for a finite z_i and NaN (true) otherwise:
            # finite stages whose weighted sum leaves the float range raise
            # as an overflowing stage does, since a smaller step sums them
            # to the same overflow (a non-finite stage fails the norm)
            if sum<z_i - z_i>:
                raise OverflowError("math range error")
            {accept}
            append_k(vec<{kept}>)
            t = t1
            vec<y_i> = vec<z_i>
            vec<k1_i> = vec<{reuse}>
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
                factor = 0.9 * err_norm**{exponent}
                h *= (factor if factor < 5.0 else 5.0) if 0.2 < factor else 0.2
        else:  # max(0.2, factor)
            factor = 0.9 * err_norm**{exponent}
            h *= factor if 0.2 < factor else 0.2

    return path
"""
# The error norms, by the number of the tableau's error estimates, each an
# RMS over the components, scaled by atol + rtol * max(abs(y_i), abs(z_i)),
# squares summed in component order; a leading 0.0 + would change no bit,
# since 0.0 + x == x for x >= 0 and for NaN.  One (DP5): h * e.k.  Two
# (DOP853): Hairer's mix of the 5th-order estimate err = e.k and the
# 3rd-order err3 = d - bhh.k, d = b.k the new state's increment,
# |h| * err^2 / sqrt(err^2 + 0.01 * err3^2), which
# err3 damps where it is the larger, 0 where err vanishes.  dop853.f mixes
# the sums over the components; here each component is mixed on its own,
# so that a component whose 5th-order estimate vanishes, such as A where a
# is a cubic, does not damp the others': mixing the sums put B(4) of
# a = 0.51 t^2/9 - 0.61 t^3/27, b = -0.73, m = -1 5.6e-10 off in 9 steps,
# this mix 4e-11 off in 10
_ERROR_NORMS = (
    """\
err_sq = sum<(
    h * ({e0})
    / (atol + rtol * (az_i if (ay_i := abs(y_i)) < (az_i := abs(z_i)) else ay_i))
) ** 2>
err_norm = sqrt(err_sq / {dim})
""",
    """\
vec<sc_i> = vec<atol + rtol * (az_i if (ay_i := abs(y_i)) < (az_i := abs(z_i)) else ay_i)>
err_sq = sum<(
    q5_i / sqrt(q5_i + 0.01 * ((d_i - ({e1})) / sc_i) ** 2) if (q5_i := (({e0}) / sc_i) ** 2) else 0.0
) ** 2>
err_norm = abs(h) * sqrt(err_sq / {dim})
# h scales this norm after its sums, so where finite stages leave an error
# sum past the float range (NaN or inf is true) every smaller step does
# too: the step raises as an overflowing stage does, where DP5's norm,
# scaled by h first, retries
if err_norm - err_norm and not ({finite}):
    raise OverflowError("math range error")
""",
)
# A step's deferred stages (`Tableau.deferred`), evaluated on its first
# read by the function rendered after its loop, in the loop's source: the
# loop's own stage code, {stages}, at the step's start t, its state y_0,
# its kept stages and the h it was taken with, which ts[i + 1] - t need
# not equal.  A step whose h is None has its stages: hs[i] turns None only
# once ks[i] holds every stored stage, so a stage that raises leaves the
# step to raise again on the next read.
_COMPLETE = """

def {loop}_complete(path, lo, hi{params}):
    ts, ys, ks, hs = path.ts, path.ys, path.ks, path.hs
    for i in range(lo, hi):
        h = hs[i]
        if h is None:
            continue
        t = ts[i]
        y_0 = ys[i][0]
        vec<{kept}> = ks[i]
        {stages}
        ks[i] = vec<{stored}>
        hs[i] = None
"""
# the steps the crossing walk opens per call of the completion function:
# a walk that stops early evaluates the deferred stages of at most
# _RUN - 1 steps past its answer
_RUN = 8
# a path class's `_extension` where the tableau defers stages
_OPEN = """\
if self.hs[i] is not None:
    self._complete(i, i + 1)
"""
_loops = itertools.count(1)
# the form of any callable that is no `expr.Bound`: no coefficient, the
# callable bound as f, and a value that calls it at the stage time
_CALL = CheckedForm("x", "f(s, x)", 0, "f")


def _const(value: float) -> str:
    """A tableau constant as source: its repr, which round-trips the float
    exactly, in parentheses where negative; a constant load in place of a
    global lookup at every use."""
    return f"({value!r})" if value < 0 else repr(value)


def _weighed(weights: Sequence[float], name: str = "k{}_i") -> str:
    """sum_j weights[j-1] * k_j over the nonzero weights, as source."""
    return " + ".join(f"{_const(w)} * {name.format(j)}" for j, w in enumerate(weights, 1) if w)


def _fill(template: str, **sections: str) -> str:
    """`template` with each line that is only `{name}` replaced by the
    section's lines at that line's indentation, and every other `{name}`
    by the section's text."""
    def indent(match: re.Match) -> str:
        return "".join(f"{match[1]}{line}\n" for line in sections[match[2]].splitlines())

    names = "|".join(sections)
    source = re.sub(rf"^( *)\{{({names})\}}\n", indent, template, flags=re.M)
    for name, text in sections.items():
        source = source.replace(f"{{{name}}}", text)
    return source


def _render(source: str, dim: int, filename: str, namespace: dict) -> dict:
    """Expand `source`'s macros for `dim` components, register the result
    in `linecache` under `filename`, so tracebacks and profilers show its
    lines, and execute it in `namespace`, which it returns."""

    def expand(match: re.Match) -> str:
        terms = [re.sub(r"_i\b", f"_{i}", match[2]) for i in range(dim)]
        if match[1] == "sum":
            return "(" + " + ".join(terms) + ")"
        return "(" + ", ".join(terms) + ",)"

    source = re.sub(r"(vec|sum)<(.*?)>", expand, source, flags=re.S)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _stage_tuple(stages: Sequence[int]) -> str:
    """The tuple of the stage values k<j>_i, as source."""
    return "(" + ", ".join(f"k{j}_i" for j in stages) + ")"


def _class_name(dim: int, tableau: Tableau) -> str:
    return f"DensePath{dim}{tableau.name}"


@lru_cache(maxsize=None)
def _step_functions(tableau: Tableau) -> dict:
    """`_STEP_FUNCTIONS` rendered for `tableau`'s stored stages and
    extension, compiled once: the names a path class's methods read."""
    stored = tableau.stored
    rows = [tableau.dense[j - 1] for j in stored]
    w0, w1, v = tableau.reach_weights
    first = f"e{stored[0]}"
    source = _fill(
        _STEP_FUNCTIONS,
        unpack=", ".join(f"e{j}" for j in stored),
        columns="\n".join(
            "h * (" + " + ".join(f"{_const(row[col])} * e{j}" for j, row in zip(stored, rows)) + "),"
            for col in range(tableau.degree)
        ),
        end=f"e{tableau.reuse}",
        first=first,
        reach=" + ".join(
            [f"{w0!r} * abs({first})", f"{w1!r} * abs(d)"]
            + [f"{vs!r} * abs(e{j} - {first} - {_const(tableau.c[j - 1])} * d)" for vs, j in zip(v, tableau.lined)]
        ),
    )
    return _render(source, 1, f"<bsym.stepper {tableau.name} steps>", {"__name__": __name__})


@lru_cache(maxsize=None)
def _path_class(dim: int, tableau: Tableau) -> type:
    """The `DensePath` subclass of `dim`-component paths under `tableau`:
    `_DENSE_PATH` rendered for both, with its `values` walk, `_extension`
    and `_reach`; compiled once, and shared by every loop of the
    dimension and tableau."""
    degree = tableau.degree
    source = _fill(
        _DENSE_PATH,
        open=_OPEN if tableau.deferred else "",
        cls=_class_name(dim, tableau),
        dim=str(dim),
        tableau=tableau.name,
        coefs="(" + ", ".join(["y0_i", *(f"c{j}_i" for j in range(1, degree + 1))]) + ")",
        horner="y0_i" + "".join(f" + th * (c{j}_i" for j in range(1, degree + 1)) + ")" * degree,
    )
    namespace = {
        "__name__": __name__,  # the rendered class's __module__
        "DensePath": DensePath,
        "bisect_right": bisect_right,
        **_step_functions(tableau),
    }
    filename = f"<bsym.stepper {tableau.name} DensePath dim={dim}>"
    return _render(source, dim, filename, namespace)[_class_name(dim, tableau)]


def _stage(form: CheckedForm, tableau: Tableau, j: int) -> str:
    """Stage j's lines: its time in s, its state in the form's state name,
    then the form's code, which assigns the stage's values."""
    if j == 1:
        time, state = "0.0", "y_0"
    elif j == tableau.reuse:
        time, state = "t1", "z_0"
    else:
        c = tableau.c[j - 1]
        time = "t1" if c == 1.0 else f"t + {_const(c)} * h"
        row = tableau.a[j - 1]
        terms = _weighed(row, "k{}_0")
        state = f"y_0 + h * {terms}" if sum(map(bool, row)) == 1 else f"y_0 + h * ({terms})"
    evaluate = j != tableau.reuse
    head = j in tableau.head and bool(form.head)
    lines = [f"s = {time}"] if evaluate else []
    lines.append(f"{form.state} = {state}")
    lines.append(form.source(f"k{j}_0 = " if head else f"vec<k{j}_i> = ", evaluate, head))
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _kernel(dim: int, form: CheckedForm, tableau: Tableau) -> Callable:
    """The `tableau` loop for states of `dim` components that runs the
    checked `form` at every stage, compiled once.  It takes the `Bound`
    after `limit`, then its parts, the form's bound arguments, and makes
    paths of the dimension's and tableau's `_path_class`, which keep the
    `Bound`, and where the tableau defers stages the completion function
    (path, lo, hi, <the form's bound arguments>) of the same source, which
    evaluates them on a run of a path's steps (`DensePath._complete`)."""
    attempt = tableau.attempt
    params = form.params()
    loop = f"{tableau.name.lower()}_dim{dim}"
    errors = {f"e{n}": _weighed(row) for n, row in enumerate(tableau.e)}
    accept = [_stage(form, tableau, tableau.reuse)] if tableau.reuse > attempt else []
    if tableau.deferred:
        accept.append("append_h(h)")
    # k - k is 0.0 for a finite stage value and NaN otherwise
    errors["finite"] = " + ".join(
        f"k{j}_0 - k{j}_0" if j in tableau.head and form.head else f"sum<k{j}_i - k{j}_i>"
        for j in range(1, attempt + 1)
    )
    source = _fill(
        _KERNEL + _COMPLETE if tableau.deferred else _KERNEL,
        first=_stage(form, tableau, 1),
        trial="\n".join(_stage(form, tableau, j) for j in range(2, attempt + 1) if j != tableau.reuse),
        fsal=_stage(form, tableau, tableau.reuse) if tableau.reuse <= attempt else "",
        error=_fill(_ERROR_NORMS[len(tableau.e) - 1], dim=str(dim), **errors),
        accept="\n".join(accept),
        loop=loop,
        completion=f"{loop}_complete" if tableau.deferred else "None",
        cls=_class_name(dim, tableau),
        params=params and ", " + params,
        new=_weighed(tableau.b),
        kept=_stage_tuple(tableau.kept),
        stages="\n".join(_stage(form, tableau, j) for j in tableau.deferred),
        stored=_stage_tuple(tableau.stored),
        reuse=f"k{tableau.reuse}_i",
        exponent=repr(tableau.exponent),
    )
    namespace = {
        _class_name(dim, tableau): _path_class(dim, tableau),
        "StepBudgetExceeded": StepBudgetExceeded,
        "StepUnderflow": StepUnderflow,
        "sqrt": math.sqrt,
        "isfinite": math.isfinite,
        **form.namespace,
    }
    filename = f"<bsym.stepper {tableau.name} kernel dim={dim} form #{next(_loops)}>"
    return _render(source, dim, filename, namespace)[loop]


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
