"""Per-layer tracing of bsym from outside the package.

Nothing under src/ is edited.  Each traced function is replaced, in every
loaded bsym module namespace that holds it, by a wrapper that records a span
(name, start, end, parent span, op id), so calls made through
`from .x import f` bindings are seen where the caller looks the name up.
`DensePath.value` and `DensePath.value_refined` are wrapped on the class.

The wrapper of `integrate` also wraps the right-hand side it is given, to
count RHS evaluations, and reads the returned path to count accepted steps.
Dormand-Prince 5(4) with first-same-as-last costs one RHS call up front and
six per step attempt, so attempts = (evals - 1) / 6.  Integrations started
inside `value_refined` are counted apart from path integrations.
"""

from __future__ import annotations

import gzip
import sys
import time
from typing import Callable

# (label, module, attribute); a dotted attribute is a method on a class
TARGETS = (
    ("expr.parse", "bsym.expr", "parse_expr"),
    ("expr.compile", "bsym.expr", "as_callable"),
    ("expr.parity", "bsym.expr", "detect_parity"),
    ("stepper.integrate", "bsym.stepper", "integrate"),
    ("stepper.scan", "bsym.stepper", "DensePath.value"),
    ("stepper.refine", "bsym.stepper", "DensePath.value_refined"),
    ("quad.nested_path", "bsym.quad", "nested_path"),
    ("quad.ab_values", "bsym.quad", "ab_values"),
    ("quad.identity", "bsym.quad", "identity_residuals"),
    ("closedform.validity", "bsym.closedform", "validity_interval"),
    ("closedform.solution_values", "bsym.closedform", "solution_values"),
    ("oracle.rk_solve", "bsym.oracle", "rk_solve"),
    ("oracle.solve_on_grid", "bsym.oracle", "solve_on_grid"),
    ("symmetry.verify_pair", "bsym.symmetry", "verify_pair"),
    ("symmetry.applicable", "bsym.symmetry", "applicable_cases"),
    ("cli.main", "bsym.cli", "main"),
)
LABELS = tuple(t[0] for t in TARGETS)
_INDEX = {label: i for i, label in enumerate(LABELS)}
_INTEGRATE = _INDEX["stepper.integrate"]
_REFINE = _INDEX["stepper.refine"]

# work counts measured at the integrate / solution_values / rk_solve wrappers
COUNTS = (
    "stepper.rhs_evals",
    "stepper.steps_attempted",
    "stepper.steps_accepted",
    "stepper.steps_rejected",
    "stepper.refine_rhs_evals",
    "closedform.points",
    "oracle.blowups",
)


class Tracer:
    """Span recorder and per-layer aggregates for one traced pass.

    Aggregates (calls, self time, errors, work counts) cover every call.
    Span records are kept in memory for whole ops until `span_limit` spans
    have been kept, which bounds memory on the scan-heavy workloads, and are
    written out by `dump`.
    """

    def __init__(self, span_limit: int = 200_000):
        self.enabled = False
        self.op = -1
        self.calls = [0] * len(LABELS)
        self.self_s = [0.0] * len(LABELS)
        self.errors = [0] * len(LABELS)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list[tuple] = []
        self.spans_total = 0
        self.span_limit = span_limit
        self._keep = True
        # open spans: [child seconds, span id, label index, parent id, start]
        self._stack: list[list] = []
        self._next_id = 0
        self._rhs = [0]
        self._observe = {  # work counts read from a call's result
            "closedform.solution_values": lambda result: self._add("closedform.points", len(result)),
            "oracle.rk_solve": lambda result: self._add("oracle.blowups", int(result.blew_up)),
        }

    def _add(self, count: str, amount: int) -> None:
        self.counts[count] += amount

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently loaded bsym modules."""
        modules = [m for name, m in sys.modules.items() if name == "bsym" or name.startswith("bsym.")]
        for label, mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), _INDEX[label]))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, _INDEX[label])
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def _wrap(self, fn: Callable, idx: int) -> Callable:
        if idx == _INTEGRATE:
            return self._wrap_integrate(fn)
        observe = self._observe.get(LABELS[idx])

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] += 1
                raise
            finally:
                self._exit(frame)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_integrate(self, fn: Callable) -> Callable:
        rhs_count = self._rhs
        counts = self.counts

        def counting(f):
            if getattr(f, "_bench_counted", False):  # a path's stored RHS
                return f

            def g(t, y):
                rhs_count[0] += 1
                return f(t, y)

            g._bench_counted = True
            return g

        def traced(f, *args, **kwargs):
            if not self.enabled:
                return fn(f, *args, **kwargs)
            under_refine = bool(self._stack) and self._stack[-1][2] == _REFINE
            before = rhs_count[0]
            path = None
            frame = self._enter(_INTEGRATE)
            try:
                path = fn(counting(f), *args, **kwargs)
            except BaseException as exc:
                self.errors[_INTEGRATE] += 1
                path = getattr(exc, "path", None)  # StepUnderflow / StepBudgetExceeded
                raise
            finally:
                self._exit(frame)
                evals = rhs_count[0] - before
                if under_refine:
                    counts["stepper.refine_rhs_evals"] += evals
                else:
                    counts["stepper.rhs_evals"] += evals
                    attempts = -(-(evals - 1) // 6) if evals else 0
                    accepted = len(path.ts) - 1 if path is not None else 0
                    counts["stepper.steps_attempted"] += attempts
                    counts["stepper.steps_accepted"] += accepted
                    counts["stepper.steps_rejected"] += attempts - accepted
            return path

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _enter(self, idx: int) -> list:
        sid = self._next_id
        self._next_id = sid + 1
        frame = [0.0, sid, idx, self._stack[-1][1] if self._stack else -1, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        child, sid, idx, parent, start = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        if self._stack:
            self._stack[-1][0] += dur
        self.spans_total += 1
        if self._keep:
            self.spans.append((sid, idx, start, end, parent, self.op))

    def begin_op(self, op: int) -> None:
        self.op = op
        self._keep = len(self.spans) < self.span_limit

    # -- results ------------------------------------------------------------

    def work_counts(self) -> dict:
        """Exact counts that must repeat across runs of the same inputs."""
        out = dict(self.counts)
        for label, calls, errors in zip(LABELS, self.calls, self.errors):
            out[f"{label}.calls"] = calls
            out[f"{label}.errors"] = errors
        return out

    def metrics(self) -> dict:
        """Per-layer metrics: calls, self seconds and errors per wrapped
        function, then the stepper and closed-form work counts."""
        out = {}
        for label, calls, self_s, errors in zip(LABELS, self.calls, self.self_s, self.errors):
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.self_s"] = (self_s, "s")
            out[f"{label}.errors"] = (errors, "count")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        attempted = self.counts["stepper.steps_attempted"]
        accepted = self.counts["stepper.steps_accepted"]
        out["stepper.accept_ratio"] = (accepted / attempted if attempted else 0.0, "frac")
        return out

    def dump(self, path) -> None:
        """Write the kept spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, idx, start, end, parent, op in self.spans:
                fh.write(f'{{"id": {sid}, "name": "{LABELS[idx]}", "start": {start!r}, '
                         f'"end": {end!r}, "parent": {parent}, "op": {op}}}\n')
