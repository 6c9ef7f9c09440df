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
        "pa, pb = structural_parity(a), structural_parity(b)",
        "from .expr import detect_parity; pa, pb = detect_parity(a), detect_parity(b)",
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
        "ORACLE_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-11, tableau=DP5)",
        "ORACLE_CONTROL = StepControl(rel_tol=1e-6, abs_tol=1e-11, tableau=DP5)",
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
        "for _, _, ka, kb, _ in reflections(a, b) if ka * mult == mult]",
        "for _, _, ka, kb, _ in reflections(a, b)]",
        "a side toward -t reads the mirror of the path toward t for an even a,"
        " so B_{-m} where B_m belongs: wrong values and validity ends",
        ("tests/test_closedform.py::test_a_side_is_the_other_sides_mirror_only_where_it_keeps_the_multiplier",),
    ),
    Mutant(
        "mirror-skips-m-zero",
        "quad.py",
        "for _, _, ka, kb, _ in reflections(a, b) if ka * mult == mult]",
        "for _, _, ka, kb, _ in reflections(a, b) if ka == 1]",
        "only an odd a mirrors a side, so a unit exponent's grid with a even"
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
        "sampled-parity-reseeds-per-draw",
        "expr.py",
        "_SAMPLE_POINTS = tuple(map(random.Random(424243).uniform, [-4.0] * 64, [4.0] * 64))",
        "_SAMPLE_POINTS = tuple(random.Random(424243).uniform(-4.0, 4.0) for _ in range(64))",
        "a fresh generator per draw makes all 64 points one: a function even at"
        " that |t| alone reads EVEN, and verify names partners that fail",
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
        "evaluate = j != tableau.reuse",
        "evaluate = j not in (tableau.reuse, tableau.reuse - 1)",
        "no loop evaluates the stage at t + h (DP5's 6, DOP853's 12): it and"
        " the reuse stage read the stage before's coefficient values, or call"
        " f at that stage's time, and every path is wrong",
        ("tests/test_checked.py", "tests/test_stepper.py"),
    ),
    Mutant(
        "form-loop-drops-b-finite-check",
        "stepper.py",
        'lines.append(form.source(f"k{j}_0 = " if head else f"vec<k{j}_i> = ", evaluate, head))',
        'lines.append(form.source(f"k{j}_0 = " if head else f"vec<k{j}_i> = ", evaluate, head)'
        '.replace("if f1 - f1:", "if False:"))',
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
        "return None if found is None else -found",
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
        "view-values-drop-signs",
        "stepper.py",
        "return self.source.values([-t for t in qs], self.signs)",
        "return self.source.values([-t for t in qs])",
        "a sign-flipped view reads its source's components with their own signs",
        ("tests/test_stepper.py", "tests/test_quad.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "view-values-read-at-plus-t",
        "stepper.py",
        "return self.source.values([-t for t in qs], self.signs)",
        "return self.source.values(qs, self.signs)",
        "a t-reflected view reads its source at the grid's own t, on the wrong side of 0",
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
        "mirrored = bool(reflections(a, b))",
        "mirrored = True",
        "a sampled parity is read as a t-mirror: a failing identity reads 0",
        ("tests/test_quad.py", "tests/test_cli.py"),
    ),
    Mutant(
        "mirror-view-drops-kb",
        "quad.py",
        "return PathView(source, mirror[0])",
        "return PathView(source, (mirror[0][0], 1))",
        "a side toward -t read as the t-mirror keeps B's sign where b's parity"
        " flips it: wrong values and validity ends for an even b",
        ("tests/test_closedform.py::test_reflected_paths_search_and_solve_as_their_own_trees",),
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
        "identity-read-takes-the-other-multiplier",
        "quad.py",
        "state[x][1 + carried[x >= 0.0].index(mult)]",
        "state[x][-1 - carried[x >= 0.0].index(mult)]",
        "a read of a two-multiplier path takes the other multiplier's B: a"
        " sampled-parity identity reads each side's wrong integral",
        ("tests/test_quad.py::test_identity_residuals_equal_twelve_reads_where_only_sampling_finds_the_parity",),
    ),
    Mutant(
        "quad-rel-tol-1e-6",
        "quad.py",
        "QUAD_CONTROL = StepControl(rel_tol=5e-12, abs_tol=5e-14, tableau=DOP853)",
        "QUAD_CONTROL = StepControl(rel_tol=1e-6, abs_tol=5e-14, tableau=DOP853)",
        "the quadrature is 200 000 times less accurate than documented",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "closed-form-drops-the-negative-radicand-sign",
        "closedform.py",
        "y = scale * (neg * math.pow(-g, e))",
        "y = scale * math.pow(-g, e)",
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
        '_check_count("--points", args.points, 3)',
        '_check_count("--points", args.points, 2)',
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
        "return _shape_factory(code, len(consts))(*consts)",
        "return _shape_factory(code, len(consts))(*consts[::-1])",
        "a tree's constants are bound in reverse order: 2*t - 1 evaluates 1*t - 2",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "shape-binds-the-first-trees-constants",
        "expr.py",
        "return _shape_factory(code, len(consts))(*consts)",
        "return _shape_factory.__dict__.setdefault(code, _shape_factory(code, len(consts))(*consts))",
        "the first tree of a shape lends its bound function to every later tree"
        " of that shape: 3*t evaluates as 2*t",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "shape-reads-the-first-constant",
        "expr.py",
        'return f"k{len(consts) - 1}", Parity.EVEN',
        'return "k0", Parity.EVEN',
        "every constant of a tree reads its first: t*2 + 1 evaluates t*2 + 2",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "walk-sum-keeps-the-left-parity",
        "expr.py",
        "parity = lp if lp is rp else None",
        "parity = lp",
        "a sum of an odd and an even term reads its left term's parity: t + 1"
        " reads ODD, certifies a t-mirror and names partners that fail",
        ("tests/test_expr.py::test_structural_rules_per_node",),
    ),
    Mutant(
        "walk-numbers-constants-right-to-left",
        "expr.py",
        "        left, lp = _describe(node.left, consts)\n        right, rp = _describe(node.right, consts)\n",
        "        right, rp = _describe(node.right, consts)\n        left, lp = _describe(node.left, consts)\n",
        "the walk reads a binary operator's right operand first: the values"
        " stay right, but 2*t - 1 compiles as (k1*t)-k0, so shape texts and"
        " profile entries change",
        ("tests/test_expr.py::test_one_walk_gives_a_trees_shape_constants_and_parity",),
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
        "known-shape-skips-the-finite-check",
        "expr.py",
        "consts.append(_number(text, off))",
        "consts.append(float(text))",
        "a text of a known shape with a 400-digit constant parses to Const(inf),"
        " which no generated code can spell, where the parser says the number is too large",
        ("tests/test_expr.py::test_a_known_shape_rejects_a_number_too_large_for_a_float",),
    ),
    Mutant(
        "known-shape-files-the-first-trees-constants",
        "expr.py",
        "_file(tree, (code, consts, parity))",
        "_file(tree, next((r for r in _records.values() if r[0] is code), (code, consts, parity)))",
        "a tree of a known shape is filed with the record of its shape's first"
        " tree while that is stored: 5*t evaluates as 2*t after 2*t was parsed",
        ("tests/test_expr.py::test_texts_of_one_shape_keep_their_own_constants",),
    ),
    Mutant(
        "known-shape-files-no-parity",
        "expr.py",
        "_file(tree, (code, consts, parity))",
        "_file(tree, (code, consts, None))",
        "a tree of a known shape is filed with no structural parity: sampling"
        " decides, and no t-mirror is certified for it",
        ("tests/test_expr.py::test_every_benchmark_text_is_filed_with_its_walks_record",),
    ),
    Mutant(
        "records-file-trees-with-a-zero",
        "expr.py",
        "if 0.0 not in record[1]:",
        "if True:",
        "a tree that holds a zero constant is filed, and its twin with the zero's"
        " sign flipped, an equal tree, reads its record: -0.0*t evaluates as 0.0*t",
        ("tests/test_expr.py::test_a_negative_zero_keeps_its_own_constants",),
    ),
    Mutant(
        "shape-cache-keeps-256-shapes",
        "expr.py",
        "@lru_cache(maxsize=_TEMPLATES)\ndef _shape_factory",
        "@lru_cache(maxsize=256)\ndef _shape_factory",
        "the compiled shapes are bounded below the templates: seed 1's identities"
        " texts compile 457 times for 278 shapes",
        ("tests/test_checked.py::test_each_shape_of_the_identities_texts_compiles_once",),
    ),
    Mutant(
        "shape-key-folds-exponents",
        "expr.py",
        'if kind == "num" and not after_caret:',
        'if kind == "num":',
        "an exponent is keyed as a constant: t^3 builds from the template of t^2"
        " and parses as t^2",
        ("tests/test_expr.py::test_exponents_stay_in_the_shape",
         "tests/test_expr.py::test_every_benchmark_text_parses_as_the_parser_parses_it"),
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
        "even-test-accepts-any-y-axis-view",
        "oracle.py",
        "even = (-1.0, 1.0, 1, 1, 1) in reflections(p.a, p.b, p.n.cls)",
        "even = any(v[:2] == (-1.0, 1.0) for v in reflections(p.a, p.b, p.n.cls))",
        "any y-axis view reads as an even solution, though only (-1, 1, 1, 1, 1)"
        " names p itself: a symmetric grid reads y(-t) as y(t) for even a or b",
        ("tests/test_symmetry.py::test_oracle_reports_equal_those_of_each_problems_own_solves",),
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
        "if ends and not ((g > 0.0 if g0 > 0.0 else g < 0.0) and lo < t < hi):",
        "if ends and not ((g > 0.0 if g0 > 0.0 else g < 0.0) and lo < t < hi"
        " and abs(g) > 1e-13 * (abs(g0) + abs(m * b))):",
        "the evaluator refuses a point inside the validity interval, next to its"
        " pole, where G still has G(0)'s sign: y' = y^2 at t = 1 - 1e-13",
        ("tests/test_closedform.py::test_the_closed_form_answers_next_to_its_pole",),
    ),
    Mutant(
        "evaluator-answers-at-the-zero-it-found",
        "closedform.py",
        "and lo < t < hi)",
        "and lo <= t <= hi)",
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
        "certification-ignores-ka",
        "symmetry.py",
        "own = (r, s, *case.signs) not in certified",
        "own = (r, s, *case.signs[1:]) not in {(r_, s_, kb, kd) for r_, s_, _, kb, kd in certified}",
        "a partner whose a2 sign no view of p1 names is certified by (r, s), kb"
        " and kd alone: a forced case reads p1's values and passes",
        ("tests/test_symmetry.py::test_oracle_reports_equal_those_of_each_problems_own_solves",),
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
        "evaluate = j != tableau.reuse",
        "evaluate = True",
        "the reuse stage evaluates every coefficient again at the time of the"
        " stage before it: the same paths, at one more evaluation of each per"
        " attempted step (DP5) or accepted step (DOP853)",
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
        "own = (r, s, *case.signs) not in certified",
        "own = (r, s, *case.signs) is None",
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
        "own = (r, s, *case.signs) not in certified",
        "own = (r, s, *case.signs) not in certified and case.relation.r == 1",
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
        '[f"{w0!r} * abs({first})", f"{w1!r} * abs(d)"]',
        '[f"{w1!r} * abs(d)"]',
        "the crossing walk's reach drops the k1 term: a step that moves by"
        " h * k1 is skipped, and a crossing on it is missed",
        ("tests/test_stepper.py::test_the_walks_reach_bounds_how_far_a_step_moves",),
    ),
    Mutant(
        "solution-overflow-check-dropped",
        "closedform.py",
        "\n                    if not math.isfinite(y):\n",
        "\n                    if False:\n",
        "a closed-form value past the float range comes back as inf, and"
        " verify reads pass",
        ("tests/test_closedform.py::test_a_solution_past_the_float_range_raises",),
    ),
    Mutant(
        "unit-solution-overflow-check-dropped",
        "closedform.py",
        "\n                if not math.isfinite(y):\n",
        "\n                if False:\n",
        "for n = 1, d * exp(A + B) past the float range comes back as inf",
        ("tests/test_closedform.py::test_a_solution_past_the_float_range_raises",),
    ),
    Mutant(
        "quad-loop-evaluates-b-at-stage-two",
        "quad.py",
        '"f0", (0,))',
        '"f0", (0, 1))',
        "the quadrature's loop evaluates b at DOP853's head stages 2 to 5,"
        " whose B' nothing reads: the same paths, at 1 + 11 evaluations of b"
        " per attempted step where 1 + 7 serve",
        ("tests/test_checked.py::test_a_form_loop_evaluates_each_coefficient_five_times_per_attempt",),
    ),
    Mutant(
        "dop853-norm-drops-err3",
        "stepper.py",
        "q5_i / sqrt(q5_i + 0.01 * ((d_i - ({e1})) / sc_i) ** 2)",
        "q5_i / sqrt(q5_i)",
        "DOP853's error norm reads its 5th-order estimate alone: other steps,"
        " which the 3rd-order estimate no longer damps",
        ("tests/test_stepper.py::test_kernel_is_bit_identical_to_the_vector_loop_dop853",),
    ),
    Mutant(
        "dop853-dense-stages-after-the-step",
        "stepper.py",
        "        t = ts[i]\n        y_0 = ys[i][0]\n",
        "        t = ts[i + 1]\n        y_0 = ys[i][0]\n",
        "DOP853's dense stages 14 to 16 are evaluated at t + h + c*h, past the"
        " step: the same nodes, but every read between them is wrong",
        ("tests/test_stepper.py::test_kernel_is_bit_identical_to_the_vector_loop_dop853",
         "tests/test_quad.py::test_b_between_nodes_is_as_accurate_as_at_them"),
    ),
    Mutant(
        "dense-stages-take-h-from-the-nodes",
        "stepper.py",
        "        h = hs[i]\n        if h is None:\n            continue\n",
        "        if hs[i] is None:\n            continue\n        h = ts[i + 1] - ts[i]\n",
        "a step's dense stages take h as ts[i + 1] - ts[i], which differs from"
        " the h the loop stepped with in its last bits on most steps: every"
        " read between the nodes is off in its last bits",
        ("tests/test_stepper.py::test_a_read_evaluates_the_dense_stages_of_the_reference_loop",),
    ),
    Mutant(
        "walk-weighs-an-unopened-step",
        "stepper.py",
        "                self._complete(i, ready)\n",
        "                self._complete(i, ready - 1)\n",
        "the crossing walk opens each run of steps but its last, and weighs"
        " that step's nine kept stages as the twelve stored ones",
        ("tests/test_stepper.py::test_a_read_evaluates_the_dense_stages_of_the_reference_loop",),
    ),
    Mutant(
        "values-read-an-unopened-step",
        "stepper.py",
        "if self.hs[i] is not None:\n",
        "if self.hs[i] is None:\n",
        "a values read builds a step's extension from its nine kept stages"
        " before any read has evaluated its dense stages",
        ("tests/test_stepper.py::test_values_match_the_per_point_value",),
    ),
    Mutant(
        "dense-stage-overflow-untyped",
        "stepper.py",
        "            except OverflowError as exc:\n",
        "            except () as exc:\n",
        "an exp(m*A) that overflows at a dense stage escapes the read as a bare"
        " OverflowError: a traceback at the command line, not exit 2",
        ("tests/test_quad.py::test_a_failure_at_a_dense_stage_raises_from_each_read_that_opens_the_step",
         "tests/test_cli.py::test_solve_with_a_failure_at_a_dense_stage_is_exit_2"),
    ),
    Mutant(
        "dense-stages-marked-before-they-run",
        "stepper.py",
        "        h = hs[i]\n        if h is None:\n            continue\n        t = ts[i]\n",
        "        h = hs[i]\n        if h is None:\n            continue\n        hs[i] = None\n        t = ts[i]\n",
        "a step counts as opened before its dense stages run: after one that"
        " fails, the next read builds the step's extension from nine stages",
        ("tests/test_quad.py::test_a_failure_at_a_dense_stage_raises_from_each_read_that_opens_the_step",),
    ),
    Mutant(
        "reach-weights-of-the-other-tableau",
        "stepper.py",
        "    w0, w1, v = tableau.reach_weights\n",
        "    w0, w1, v = (DP5 if tableau is DOP853 else DOP853).reach_weights\n",
        "a path's skip bound weighs its stages by the other tableau's W0 and V:"
        " DOP853's 11 later stages by DP5's 5 weights, so a step that reaches"
        " the level can be skipped",
        ("tests/test_stepper.py::test_the_walks_reach_bounds_how_far_a_step_moves_dop853",),
    ),
    Mutant(
        "walk-bound-drops-the-line",
        "stepper.py",
        '[f"{w0!r} * abs({first})", f"{w1!r} * abs(d)"]',
        '[f"{w0!r} * abs({first})"]',
        "the crossing walk's reach drops the D term, the change to the end"
        " stage: a step whose stages rise along a line is skipped, and a"
        " crossing on it is missed",
        ("tests/test_stepper.py::test_the_walks_reach_bounds_how_far_a_step_moves_dop853",),
    ),
    Mutant(
        "tangent-touch-answers-at-its-minimum",
        "stepper.py",
        "            if abs(p_lo) > tol:  # p is monotone on the piece\n",
        "            if False:\n",
        "a tangent touch answers at the dense polynomial's minimum, which can"
        " lie past the zero it stands for: G = cos^2 t's validity end 1.1e-11"
        " past the pole at pi/2",
        ("tests/test_closedform.py::test_validity_finds_tangent_zeros",),
    ),
    Mutant(
        "dop853-error-sum-overflow-retries",
        "stepper.py",
        'if err_norm - err_norm and not ({finite}):',
        'if False:',
        "DOP853's error sums that overflow on finite stages are retried at"
        " smaller steps: two multipliers end in a step size underflow, one in"
        " an integrand overflow",
        ("tests/test_checked.py::test_a_new_state_past_the_float_range_is_an_integrand_overflow",),
    ),
    Mutant(
        "dop853-paths-carry-no-completion",
        "stepper.py",
        'completion=f"{loop}_complete" if tableau.deferred else "None",',
        'completion="None",',
        "a DOP853 loop renders its completion function but hands its paths none:"
        " a read finds a step with its nine kept stages and no dense stages",
        ("tests/test_stepper.py::test_each_loop_compiles_one_source_that_holds_its_completion",),
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
