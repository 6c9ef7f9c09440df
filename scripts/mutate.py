#!/usr/bin/env python3
"""Mutation gate: would the tests notice a wrong answer?

Usage: python scripts/mutate.py

Each entry of MUTANTS replaces one exact text in one file of `src/` by a
plausible mistake.  The script copies `src/`, `tests/`, `scripts/`,
`bench/` (whose input generator a test reads) and `pyproject.toml` to a
temporary directory, checks that the tests each entry names pass there
unmutated, then applies each mutant to a fresh copy
(never to the checkout) and runs its tests, stopping at the first failure.
A mutant is killed when a test fails, and survives when all pass.

Prints one line per mutant: killed (with the first failing test) or
survived.  Every listed mutant must be killed: exits 1 when one
survives, and 2 when the unmutated tests fail, a mutant's text no longer
occurs exactly once, or pytest itself errors, since then no verdict can
be given.  Standard library only, apart from pytest for the runs.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "bench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/bsym
    old: str  # must occur exactly once in the file
    new: str
    reason: str
    tests: tuple  # pytest arguments, relative to the repository root


MUTANTS = [
    Mutant(
        "reflection-drops-r-on-a",
        "exponent.py",
        "return (r * eps_a, r * s_pow * eps_b, s)",
        "return (eps_a, r * s_pow * eps_b, s)",
        "a t-reflected partner keeps a's sign: the wrong partner problem",
        ("tests/test_symmetry.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "reflection-drops-s-power",
        "exponent.py",
        "return (r * eps_a, r * s_pow * eps_b, s)",
        "return (r * eps_a, r * eps_b, s)",
        "a y-flip ignores the sign of s^(1-p): the wrong b for odd/odd n",
        ("tests/test_symmetry.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "certify-by-sampled-parity",
        "exponent.py",
        "pa, pb = structural_parity(a0), structural_parity(b0)",
        "from .expr import detect_parity; pa, pb = detect_parity(a0), detect_parity(b0)",
        "a t-mirror is certified by a sampled parity, which is not exact",
        ("tests/test_closedform.py", "tests/test_symmetry.py"),
    ),
    Mutant(
        "pass-rule-always-true",
        "symmetry.py",
        "passed=finite and max_residual <= tol * (1.0 + y_scale),",
        "passed=True,",
        "every verification passes, whatever its residual",
        ("tests/test_symmetry.py",),
    ),
    Mutant(
        "oracle-rel-tol-1e-6",
        "oracle.py",
        "ORACLE_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-11)",
        "ORACLE_CONTROL = StepControl(rel_tol=1e-6, abs_tol=1e-11)",
        "the oracle is 10 000 times less accurate than documented",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "oracle-ignores-the-blow-up-limit",
        "oracle.py",
        "limit=_BLOWUP_THRESHOLD",
        "limit=math.inf",
        "the oracle integrates a growing solution past 1e12 to its target"
        " instead of ending it as a blow-up",
        ("tests/test_oracle.py::test_a_limit_stop_and_a_rescued_underflow_differ_in_the_last_y",),
    ),
    Mutant(
        "oracle-rescue-leaves-blew-up-unset",
        "oracle.py",
        "path.blew_up = True",
        "pass",
        "a step-size collapse at a huge |y| returns a partial path that reads"
        " as reaching its target: a grid past it raises ValueError, not the blow-up",
        ("tests/test_oracle.py::test_blow_up_marker",),
    ),
    Mutant(
        "mirror-reuses-any-longer-path",
        "quad.py",
        "if mirror and end == -t_end:",
        "if mirror and end is not None and end * t_end < 0.0 and abs(t_end) <= abs(end):",
        "a path toward a farther end serves a nearer one: different first and last steps",
        ("tests/test_quad.py::test_a_side_reads_a_mirror_only_of_a_path_toward_its_exact_end",),
    ),
    Mutant(
        "mirror-ignores-the-multiplier",
        "quad.py",
        "for _, _, ka, kb, _ in views if ka * mult == sa * mult]",
        "for _, _, ka, kb, _ in views]",
        "a side toward -t reads the mirror of the path toward t for an even a0,"
        " so B_{-m} where B_m belongs: wrong values and validity ends",
        ("tests/test_closedform.py::test_a_side_is_the_other_sides_mirror_only_where_it_keeps_the_multiplier",),
    ),
    Mutant(
        "mirror-skips-m-zero",
        "quad.py",
        "for _, _, ka, kb, _ in views if ka * mult == sa * mult]",
        "for _, _, ka, kb, _ in views if ka == sa]",
        "only an odd a0 mirrors a side, so a unit exponent's grid with a0 even"
        " integrates both sides where one path serves",
        ("tests/test_closedform.py::test_a_side_is_the_other_sides_mirror_only_where_it_keeps_the_multiplier",),
    ),
    Mutant(
        "tangent-allowance-x10",
        "stepper.py",
        "tol = abs_tol + rel_tol * (abs(y0) + vary)",
        "tol = 10 * (abs_tol + rel_tol * (abs(y0) + vary))",
        "a near miss ten times the step control's error counts as a validity end",
        ("tests/test_stepper.py",),
    ),
    Mutant(
        "tangent-allowance-ignores-the-control",
        "stepper.py",
        "abs_tol, rel_tol = self.ctl.abs_tol, self.ctl.rel_tol",
        "abs_tol, rel_tol = 1e-12, 1e-10",
        "every path counts a tangent touch at the quadrature's error scale,"
        " whatever control it was integrated at",
        ("tests/test_stepper.py",),
    ),
    Mutant(
        "closed-form-sigma-is-one",
        "closedform.py",
        "sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0",
        "sigma = 1.0",
        "an odd/odd exponent with d < 0 gets the positive branch: y has the wrong sign",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "root-exponent-drops-its-sign",
        "closedform.py",
        "classify_exponent(-n.q, n.p - n.q)",
        "classify_exponent(n.q, n.p - n.q)",
        "G is raised to 1/(n-1) instead of -1/(n-1): every closed-form value"
        " and every end's kind is wrong",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "validity-level-check-never-fires",
        "closedform.py",
        "if g0 / (m := minus_one(n)) == 0.0:",
        "if g0 / (m := minus_one(n)) is None:",
        "a level d^(1-n)/(n-1) that underflows to 0 is searched for: B(0) = 0"
        " meets it at t = 0 and no interval holds 0, an untyped ValueError",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "signed-pow-zero-base-is-zero",
        "exponent.py",
        "return 1.0 if p == 0 else 0.0",
        "return 0.0",
        "0^0 is 0 instead of 1",
        ("tests/test_exponent.py",),
    ),
    Mutant(
        "common-interval-takes-the-larger-hi",
        "symmetry.py",
        "hi, hi_kind = min(",
        "hi, hi_kind = max(",
        "the common interval ends at the farther of the two upper ends: the grid"
        " runs past one solution's validity",
        ("tests/test_symmetry.py",),
    ),
    Mutant(
        "sampled-parity-tolerance-1e-6",
        "expr.py",
        "_SAMPLE_TOL = 1e-10",
        "_SAMPLE_TOL = 1e-6",
        "a coefficient with a 1e-7 part of the other parity reads even or odd",
        ("tests/test_expr.py",),
    ),
    Mutant(
        "wrapper-reads-the-first-coefficient",
        "expr.py",
        "    f{i} = c{i}(s)\n",
        "    f{i} = c0(s)\n",
        "every value of a checked form is a's, in its wrapper and its loop: b is never evaluated",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "wrapper-drops-the-finite-check",
        "expr.py",
        "    if f{i} - f{i}:\n        raise _failed(s, None)\n",
        "",
        "an infinite or NaN coefficient reaches the stepper, which retries the step",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "wrapper-checks-only-the-first-value",
        "expr.py",
        "    if f{i} - f{i}:\n",
        "    if f0 - f0:\n",
        "an infinite b passes unchecked while a is finite",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "form-loop-stage-seven-reuses-stage-five",
        "stepper.py",
        "stage<k6; t1;",
        "reuse<k6; t1;",
        "no loop evaluates stage 6 at t + h: stages 6 and 7 read stage 5's"
        " coefficient values, or call f at stage 5's time, and every path is wrong",
        ("tests/test_checked.py", "tests/test_stepper.py"),
    ),
    Mutant(
        "form-loop-drops-b-finite-check",
        "stepper.py",
        'lines += form.source(f"{k}_0 = " if head else f"vec<{k}_i> = ", evaluate, head).splitlines()',
        'lines += form.source(f"{k}_0 = " if head else f"vec<{k}_i> = ", evaluate, head)'
        '.replace("if f1 - f1:", "if False:").splitlines()',
        "a form's loop lets an infinite b reach the form's body, and the stepper"
        " retries the step instead of raising EvalError",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "form-loop-reports-the-step-start",
        "expr.py",
        "raise _failed(s, exc) from None",
        "raise _failed(t, exc) from None",
        "a coefficient that fails in a form's loop names the time its step started"
        " from, not the time of the stage that evaluated it",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "call-form-reads-the-step-start",
        "stepper.py",
        '_CALL = CheckedForm("x", "f(s, x)", 0, "f")',
        '_CALL = CheckedForm("x", "f(t, x)", 0, "f")',
        "a plain right-hand side is called at the time its step started from at"
        " every stage, not at the stage's own time",
        ("tests/test_stepper.py",),
    ),
    Mutant(
        "view-crossing-drops-r",
        "stepper.py",
        "return None if found is None else self.r * found",
        "return found",
        "a t-reflected view reports its source's crossing on the wrong side of 0",
        ("tests/test_stepper.py", "tests/test_quad.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "view-crossing-drops-sign",
        "stepper.py",
        "found = self.source.first_crossing(k, self.signs[k] * level)",
        "found = self.source.first_crossing(k, level)",
        "a sign-flipped view looks for the level its source never reaches",
        ("tests/test_stepper.py", "tests/test_quad.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "crossing-cache-drops-level",
        "stepper.py",
        "key = (k, level)",
        "key = (k,)",
        "a path answers every level with the first level it walked",
        ("tests/test_stepper.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "second-multiplier-reads-the-first",
        "quad.py",
        'terms = ", ".join(f"f1 * exp(mult{i} * A)" for i in range(count))',
        'terms = ", ".join(f"f1 * exp(mult0 * A)" for i in range(count))',
        "every B of a path integrates the first multiplier: an identity's two"
        " sides read one wrong path alike and its residual stays 0",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "identities-mirror-without-certificate",
        "quad.py",
        "mirrored = any(r == -1.0 for r, *_ in reflections(a, b)[2])",
        "mirrored = True",
        "a sampled parity is read as a t-mirror: a failing identity reads 0",
        ("tests/test_quad.py", "tests/test_cli.py"),
    ),
    Mutant(
        "identities-drop-a-sign-from-the-multipliers",
        "quad.py",
        "tuple(sa * u for u in mults)",
        "mults",
        "an identity of -(a) integrates the paths of a: its residuals are those"
        " of another problem, which a certified mirror hides (both read 0)",
        ("tests/test_quad.py::test_identity_residuals_are_those_of_fresh_paths",),
    ),
    Mutant(
        "mirror-keeps-the-multipliers",
        "quad.py",
        "(-x, ka * mult, kb)",
        "(-x, mult, kb)",
        "a mirrored read at t < 0 reads B_mult where B_{ka*mult} belongs",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "mirror-drops-kb",
        "quad.py",
        "(-x, ka * mult, kb)",
        "(-x, ka * mult, 1.0)",
        "a mirrored read at t < 0 keeps B's sign where b's parity flips it",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "quad-rel-tol-1e-6",
        "quad.py",
        "QUAD_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-12)",
        "QUAD_CONTROL = StepControl(rel_tol=1e-6, abs_tol=1e-12)",
        "the quadrature is 10 000 times less accurate than documented",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "closed-form-drops-the-negative-radicand-sign",
        "closedform.py",
        "y = scale * (neg * pow(-g, e))",
        "y = scale * pow(-g, e)",
        "G^e of a negative radicand loses the sign its exponent class gives it: y has the wrong sign",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "minus-one-drops-the-reciprocal-check",
        "exponent.py",
        "m, _, _ = (p - q) / q, p / q, q / (p - q or 1)",
        "m, _ = (p - q) / q, p / q",
        "an n whose 1/(n-1) overflows a float is accepted: -1/(n-1) is inf",
        ("tests/test_exponent.py",),
    ),
    Mutant(
        "solve-search-radius-without-margin",
        "cli.py",
        "radius = 1.05 * max(",
        "radius = 1.0 * max(",
        "the search stops at the grid's end, so the open validity interval drops"
        " the grid's end points from the CSV",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "solve-search-radius-overflow-unchecked",
        "cli.py",
        "if radius == math.inf:",
        "if False:",
        "an overflowing search radius reaches the library, whose message names no option",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "verify-accepts-two-points",
        "cli.py",
        "if args.points < 3:",
        "if args.points < 2:",
        "verify --points 2 reaches the library's ValueError instead of the CLI's own message",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "verify-skips-the-tol-check",
        "cli.py",
        "if not 0.0 < args.tol < math.inf:",
        "if False:",
        "a verify --tol that is not positive and finite reaches the library unchecked",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "shape-binds-constants-reversed",
        "expr.py",
        "return _shape_factory(shape, len(consts))(*consts)",
        "return _shape_factory(shape, len(consts))(*consts[::-1])",
        "a tree's constants are bound in reverse order: 2*t - 1 evaluates 1*t - 2",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "shape-binds-the-first-trees-constants",
        "expr.py",
        "return _shape_factory(shape, len(consts))(*consts)",
        "return _shape_factory.__dict__.setdefault(shape, _shape_factory(shape, len(consts))(*consts))",
        "the first tree of a shape lends its bound function to every later tree"
        " of that shape: 3*t evaluates as 2*t",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "shape-reads-the-first-constant",
        "expr.py",
        'return f"k{len(consts) - 1}"',
        'return "k0"',
        "every constant of a tree reads its first: t*2 + 1 evaluates t*2 + 2",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "parser-product-right-associative",
        "expr.py",
        "right, right_depth = self._expr(level + 1)",
        "right, right_depth = self._expr(level + (level == 1))",
        "t/2/2 parses as t/(2/2)",
        ("tests/test_expr.py",),
    ),
    Mutant(
        "parser-sum-right-associative",
        "expr.py",
        "right, right_depth = self._expr(level + 1)",
        "right, right_depth = self._expr(level + (level == 2))",
        "t-1-1 parses as t-(1-1)",
        ("tests/test_expr.py",),
    ),
    Mutant(
        "binary-loop-right-associative",
        "expr.py",
        "right, right_depth = self._expr(level + 1)",
        "right, right_depth = self._expr(level)",
        "the loop reads its right operand at its own level: t-1-1 parses as t-(1-1)"
        " and t/2/2 as t/(2/2)",
        ("tests/test_expr.py::test_parse_binary_operators_are_left_associative",),
    ),
    Mutant(
        "prec-one-level",
        "expr.py",
        '_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}',
        '_PREC = {"+": 1, "-": 1, "*": 1, "/": 1}',
        "products bind no tighter than sums: 1 + 2*t parses as (1 + 2)*t; the"
        " printer moves with the table, so only a pinned tree shows it",
        ("tests/test_expr.py::test_parse_precedence_shape",),
    ),
    Mutant(
        "var-is-falsy",
        "expr.py",
        "    def __bool__(self) -> bool:",
        "    def _unused(self) -> bool:",
        "Var() is a tuple of no fields, so it reads false: `node or default`"
        " replaces the variable t",
        ("tests/test_expr.py::test_every_node_is_truthy_and_immutable",),
    ),
    Mutant(
        "ab-values-fresh-side-keeps-top-minus",
        "quad.py",
        "        if rule is None:\n",
        "        if path is not None:\n            return nested_path(a, b, (mult,), t_end)\n"
        "        if rule is None:\n",
        "a solve grid's fresh side integrates a and b with their top minuses:"
        " a tree and its negation compile two shapes, and no side reads a mirror",
        ("tests/test_quad.py::test_no_path_integrates_a_tree_with_its_top_minus",),
    ),
    Mutant(
        "integrate-runs-a-bound-form-through-the-call-loop",
        "stepper.py",
        "bound = f if isinstance(f, Bound) else Bound(_CALL, (), (f,))",
        "bound = Bound(_CALL, (), (f,))",
        "a `Bound` runs through the call form's loop, which calls its checked"
        " wrapper at every stage: the same answers, a wrapper compiled per form",
        ("tests/test_checked.py::test_untraced_runs_take_their_forms_loops_and_compile_no_wrapper",),
    ),
    Mutant(
        "walk-reads-component-zero",
        "stepper.py",
        "reach = _reach(ts[i + 1] - ts[i], ks[i][k])",
        "reach = _reach(ts[i + 1] - ts[i], ks[i][0])",
        "a crossing walk bounds B's reach on a step by A's stages: it skips the"
        " step where B reaches the level, and a validity end moves",
        ("tests/test_closedform.py::test_validity_riccati_asymptote",),
    ),
    Mutant(
        "printer-regroups-equal-precedence-right-operands",
        "expr.py",
        "right = _fmt(node.right, prec + 1)",
        'right = _fmt(node.right, prec + (node.op in "-/"))',
        "t*(3/t) prints as t * 3 / t, which reads back as (t*3)/t: another tree"
        " and another float",
        ("tests/test_expr.py::test_format_parse_on_every_operator_pair",),
    ),
    Mutant(
        "evaluator-answers-past-a-pole",
        "closedform.py",
        "ends = root.p < 0 or not neg",
        "ends = not neg",
        "an odd root carries G through its pole onto the formula's other branch,"
        " which solves no IVP: y' = y^2, y(0) = 1 reads -1 at t = 2",
        ("tests/test_closedform.py::test_the_closed_form_stops_past_a_pole",),
    ),
    Mutant(
        "closed-form-keeps-a-zero-band",
        "closedform.py",
        "if ends and not ((g > 0.0 if g0 > 0.0 else g < 0.0) and lo < r * t < hi):",
        "if ends and not ((g > 0.0 if g0 > 0.0 else g < 0.0) and lo < r * t < hi"
        " and abs(g) > 1e-13 * (abs(g0) + abs(m * (s_1 * y_1)))):",
        "the evaluator refuses a point inside the validity interval, next to its"
        " pole, where G still has G(0)'s sign: y' = y^2 at t = 1 - 1e-13",
        ("tests/test_closedform.py::test_the_closed_form_answers_next_to_its_pole",),
    ),
    Mutant(
        "evaluator-answers-at-the-zero-it-found",
        "closedform.py",
        "and lo < r * t < hi)",
        "and lo <= r * t <= hi)",
        "the point where the path's G first reaches 0, which the validity search"
        " reports as the interval's end, is answered: y' = y^2 reads 4.5e15 at t = 1",
        ("tests/test_closedform.py::test_solution_outside_validity_asymptote",),
    ),
    Mutant(
        "ab-values-keeps-a-fresh-path-to-itself",
        "closedform.py",
        "zero = (ends and path.first_crossing(1, g0 / m))",
        "zero = (ends and any(path is q for q in p._searched.values()) and path.first_crossing(1, g0 / m))",
        "the evaluator reads G's first zero only on a searched path, so a side"
        " answered by a fresh path past the search has no zero of G to stop at",
        ("tests/test_closedform.py::test_ab_values_past_the_searched_path_integrates_afresh",),
    ),
    Mutant(
        "odd-root-stops-at-its-root-boundary",
        "closedform.py",
        "ends = root.p < 0 or not neg",
        "ends = True",
        "an odd root with a positive exponent, smooth through G = 0, is refused past it",
        ("tests/test_closedform.py::test_solution_continues_through_g_zero_for_odd_root",),
    ),
    Mutant(
        "split-sign-takes-one-minus",
        "expr.py",
        "    while isinstance(e, Neg):",
        "    if isinstance(e, Neg):",
        "--t splits as -1 * -t: its paths are not the paths of t",
        ("tests/test_expr.py::test_split_sign_takes_out_every_leading_minus",),
    ),
    Mutant(
        "negated-never-unwraps",
        "expr.py",
        "return e.arg if isinstance(e, Neg) else Neg(e)",
        "return Neg(e)",
        "negating a negated tree nests a second minus: a partner's partner is"
        " not the original tree and keys other caches and paths",
        ("tests/test_expr.py::test_negated_twice_is_the_original",),
    ),
    Mutant(
        "tree-call-skips-the-check",
        "expr.py",
        "return as_callable(self)(t)",
        "return _coefficient(self)(t)",
        "calling a tree runs its unchecked function: 1/t at 0 raises"
        " ZeroDivisionError, not EvalError",
        ("tests/test_expr.py::test_eval_division_by_zero",),
    ),
    Mutant(
        "form-loop-reuse-stage-evaluates-again",
        "stepper.py",
        'evaluate = kind != "reuse"',
        "evaluate = True",
        "the FSAL stage evaluates every coefficient again at stage 6's time:"
        " the same paths, at 1 + 6 evaluations of each per attempted step",
        ("tests/test_checked.py::test_a_form_loop_evaluates_each_coefficient_five_times_per_attempt",),
    ),
    Mutant(
        "solution-values-keeps-its-paths-in-the-problem",
        "closedform.py",
        "            right = qs[-1] >= 0.0\n",
        "            right = qs[-1] >= 0.0\n            p._searched[1.0 if right else -1.0] = path\n",
        "a grid's fresh side path stays with the problem, and a later answer"
        " nearer 0 reads it, not the problem's own search path",
        ("tests/test_closedform.py::test_solution_values_leaves_its_problem_as_it_found_it",),
    ),
    Mutant(
        "verify-certifies-every-partner",
        "symmetry.py",
        "p2.d) not in certified",
        "p2.d) is None",
        "every partner is read as p1 reflected: a forced case passes with a"
        " residual of 0, and a sampled parity shares p1's values",
        ("tests/test_symmetry.py::test_an_uncertified_partner_is_solved_on_its_own_paths",),
    ),
    Mutant(
        "certified-partner-drops-s",
        "symmetry.py",
        "y1, y2 = mirrored, [s * v for v in mirrored]",
        "y1, y2 = mirrored, list(mirrored)",
        "a certified partner reads y1 where it should read s * y1: every"
        " origin and t-axis case fails",
        ("tests/test_symmetry.py::test_a_certified_case_runs_no_partner_search_or_solve",),
    ),
    Mutant(
        "certification-waives-the-t-mirror",
        "symmetry.py",
        "p2.d) not in certified",
        "p2.d) not in certified and case.relation.r == 1",
        "a t-mirror partner (r = -1) counts as certified with no view of"
        " structural parity: a parity that only sampling finds, or a forced"
        " case, reads p1's values",
        ("tests/test_oracle.py::test_a_t_mirror_is_certified_only_under_structural_parity",),
    ),
    Mutant(
        "uncertified-case-reads-the-certified-solve",
        "symmetry.py",
        "y1, y2 = solve(p1, grid), solve(p2, [r * t for t in grid])",
        "y1, y2 = mirrored or solve(p1, grid), solve(p2, [r * t for t in grid])",
        "an uncertified case after a certified one reads y1 from p1's solve on"
        " p1's own grid, not on the case's common-interval grid: other times",
        ("tests/test_symmetry.py::test_verify_cases_equals_verify_pair_in_every_mix",),
    ),
    Mutant(
        "certified-cases-read-an-uncertified-solve",
        "symmetry.py",
        "y1, y2 = solve(p1, grid), solve(p2, [r * t for t in grid])",
        "y1 = mirrored = solve(p1, grid); y2 = solve(p2, [r * t for t in grid])",
        "a certified case after an uncertified one reads p1 solved on that"
        " case's grid, not on p1's own grid, which its report names",
        ("tests/test_symmetry.py::test_verify_cases_equals_verify_pair_in_every_mix",),
    ),
    Mutant(
        "verify-passes-a-value-that-is-not-finite",
        "symmetry.py",
        "finite = all(map(math.isfinite, residuals))",
        "finite = True",
        "a NaN residual, which max() skips, or y_scale = inf lets a case pass",
        ("tests/test_symmetry.py::test_a_case_with_a_value_that_is_not_finite_fails",),
    ),
    Mutant(
        "oracle-mirror-ignores-the-exact-end",
        "oracle.py",
        "and min(ts) == -max(ts):",
        ":",
        "an even solution's side toward -T reads the path toward the other"
        " side's end, whose steps differ: other floats than its own path's",
        ("tests/test_oracle.py::test_the_exact_end_decides_which_path_is_read",),
    ),
    Mutant(
        "walk-bound-drops-k1",
        "stepper.py",
        "_W0 * abs(k1)\n        + v3",
        "v3",
        "the crossing walk's reach drops the k1 term: a step that moves by"
        " h * k1 is skipped, and a crossing on it is missed",
        ("tests/test_stepper.py::test_the_walks_reach_bounds_how_far_a_step_moves",),
    ),
    Mutant(
        "solution-overflow-check-dropped",
        "closedform.py",
        "\n    if not isfinite(y):\n",
        "\n    if False:\n",
        "a closed-form value past the float range comes back as inf, and"
        " verify reads pass",
        ("tests/test_closedform.py::test_a_solution_past_the_float_range_raises",),
    ),
    Mutant(
        "unit-solution-overflow-check-dropped",
        "closedform.py",
        "\nif not isfinite(y):\n",
        "\nif False:\n",
        "for n = 1, d * exp(A + B) past the float range comes back as inf",
        ("tests/test_closedform.py::test_a_solution_past_the_float_range_raises",),
    ),
    Mutant(
        "quad-loop-evaluates-b-at-stage-two",
        "quad.py",
        '"f0", (0,))',
        '"f0", (0, 1))',
        "the quadrature's loop evaluates b at stage 2, whose B' nothing reads:"
        " the same paths, at 1 + 5 evaluations of b per attempted step",
        ("tests/test_checked.py::test_a_form_loop_evaluates_each_coefficient_five_times_per_attempt",),
    ),
    Mutant(
        "grid-puts-zero-on-the-negative-side",
        "stepper.py",
        "zero = bisect_left(order, 0.0, key=ts.__getitem__)",
        "zero = bisect_right(order, 0.0, key=ts.__getitem__)",
        "t = 0 and -0.0 are read on the side t < 0: a grid of t >= 0 and 0"
        " integrates a path toward 0 beside its path toward its largest t",
        ("tests/test_stepper.py::test_grid_values_solves_once_per_side",),
    ),
    Mutant(
        "grid-reverses-one-side",
        "stepper.py",
        "order[:zero][::-1]",
        "order[:zero]",
        "the side t < 0 is read from its farthest point inward: the walk refuses"
        " it, and the path is integrated toward the nearest point",
        ("tests/test_stepper.py::test_grid_values_read_each_side_outward_and_scatter_back",),
    ),
    Mutant(
        "grid-raises-the-first-failure-walked",
        "closedform.py",
        "raise next(y for y in ys if isinstance(y, BsymError))",
        "raise failed[0]",
        "a grid past G's first zero raises the error of the first refused point"
        " in walk order, the nearer 0 on the side t >= 0, not the first in ts",
        ("tests/test_closedform.py::test_a_grid_past_both_zeros_raises_the_first_failing_points_error",),
    ),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(cwd: Path, tests) -> tuple:
    """(return code, first failing test or None) of one pytest run in cwd."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.M)
    return proc.returncode, failed and failed[1]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bsym-mutate-") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        _copy(clean)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = _pytest(clean, tests)
        if code != 0:
            print(f"the unmutated tests fail ({failed or f'pytest exit {code}'}): no verdict", file=sys.stderr)
            return 2
        status = 0
        for m in MUTANTS:
            work = Path(tmp) / m.name
            shutil.copytree(clean, work)
            path = work / "src" / "bsym" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: stale, the text to replace occurs {text.count(m.old)} times in {m.file}")
                status = 2
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code, failed = _pytest(work, m.tests)
            shutil.rmtree(work)
            if code == 1 and failed:
                print(f"{m.name}: killed by {failed}")
            elif code == 0:
                print(f"{m.name}: SURVIVED: {m.reason}")
                status = max(status, 1)
            else:
                print(f"{m.name}: error, pytest exit {code}")
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
