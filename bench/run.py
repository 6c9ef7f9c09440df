#!/usr/bin/env python3
"""Benchmark for bsym: one workload per process, one closed-loop client.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

The run imports bsym from src/ of the checkout it sits in, generates the
workload's inputs from --seed, sets up SETUP_REPS times (fresh import,
input generation, warm-up on fixed inputs) and then issues a fixed number of
operations one after another on one thread.  The count is sized from
--seconds at the workload's baseline rate, never below MIN_OPS, so the
problem mix is the same however fast the program is.  Every output is
checked outside the timed region.  Timings are calibrated to a reference
host speed by a probe run between operations (hostspeed.py); the
wall-clock figures are printed and stored beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs three passes, each
on a freshly imported package: traced, untraced, traced; it prints the
per-layer metrics of the last pass, the tracing overhead against the
untraced pass, and whether the two traced passes did identical work.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import workloads
from hostspeed import REF_KERNEL_S, SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # before the measured pass, and again after it
MIN_OPS = 110  # so latency_p90_ms has at least 10 samples beyond it


def load_bsym():
    """Import bsym from this checkout's src/, discarding any loaded copy so
    that every set-up starts with empty caches."""
    for name in [n for n in sys.modules if n == "bsym" or n.startswith("bsym.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bsym")
    importlib.import_module("bsym.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "bsym").resolve():
        raise ImportError(f"bsym was imported from {pkg.__file__}, not from {SRC}")
    return pkg


class State(NamedTuple):
    pkg: ModuleType
    items: list  # generated inputs
    args: list  # what each op is called with


def setup(workload, seed: int, count: int, workdir: Path, probe: SpeedProbe) -> tuple[float, State]:
    """Import, generate the inputs and warm up; returns (seconds at the
    reference host speed, state)."""
    probe.sample()
    start = time.perf_counter()
    pkg = load_bsym()
    items = workload.inputs(seed, count)
    args = workload.prepare(pkg, items, workdir)
    warm_dir = workdir / "warm-up"
    warm_dir.mkdir(exist_ok=True)
    warm_items = workload.inputs("warm-up", workload.warmup_ops)
    for arg in workload.prepare(pkg, warm_items, warm_dir):
        workload.run(pkg, arg)
    end = time.perf_counter()
    probe.sample()
    return (end - start) * probe.scale(start, end), State(pkg, items, args)


class Pass:
    """Latencies, failures, output digests and input properties of one pass.

    `wall` holds each op's wall-clock seconds, `latencies` the same at the
    reference host speed (see hostspeed.py); the metrics use the latter.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.digest = hashlib.sha256()
        self.properties: dict[str, Counter] = {}

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.wall) / sum(self.wall)

    def property_shares(self) -> dict:
        out = {}
        for prop, counter in sorted(self.properties.items()):
            total = sum(counter.values()) or 1
            out[prop] = {str(k): round(v / total, 4) for k, v in sorted(counter.items(), key=str)}
        return out


def run_pass(workload, state: State, probe: SpeedProbe, tracer: Tracer | None = None) -> Pass:
    result = Pass()
    clock = time.perf_counter
    run, pkg = workload.run, state.pkg
    spans = []
    probe.sample()
    for i, (item, arg) in enumerate(zip(state.items, state.args)):
        if tracer is not None:
            tracer.begin_op(i)
            tracer.enabled = True
        start = clock()
        try:
            output, error = run(pkg, arg), None
        except Exception as exc:  # a failed op is counted, the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        spans.append((start, end))
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                error = workload.check(pkg, item, arg, output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            result.failures.append((i, error))
        else:
            for prop, value in workload.observe(pkg, item, arg, output).items():
                counter = result.properties.setdefault(prop, Counter())
                counter.update(value if isinstance(value, (list, tuple)) else [value])
        result.digest.update(repr(None if output is None else workload.digest(output)).encode())
        if probe.due(clock()):
            probe.sample()
    probe.sample()
    result.wall = [end - start for start, end in spans]
    result.latencies = [(end - start) * probe.scale(start, end) for start, end in spans]
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    lat_ms = [x * 1e3 for x in latencies]
    return statistics.median(lat_ms), statistics.quantiles(lat_ms, n=10)[8]


def end_to_end(p: Pass) -> dict:
    attempted = len(p.latencies)
    p50, p90 = percentiles_ms(p.latencies)
    return {
        "ops_per_s": metric(p.ops_per_s, "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "latency_p90_ms": metric(p90, "ms"),
        "ok_frac": metric((attempted - len(p.failures)) / attempted, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "bsym" / "__init__.py").is_file():
        print(f"bench: no bsym package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    count = max(MIN_OPS, math.ceil(workload.ops_per_s * args.seconds))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            record = traced_run(workload, args.seed, count, workdir, tag)
        else:
            record = untraced_run(workload, args.seed, count, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = record["attempted"]
    p50, p90 = record["latency_p50_p90_ms"]
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for i, error in record["failures"][:10]:
        print(f"failed op {i}: {error}")
    print(f"inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"latency over {ops} ops at the reference host speed: p50 {p50:.3f} ms, p90 {p90:.3f} ms "
          f"({ops - math.ceil(0.9 * ops)} samples beyond p90)")
    wall = record["wall"]
    print(f"wall clock: {wall['ops_per_s']:.3f} ops/s, p50 {wall['latency_p50_ms']:.3f} ms, "
          f"p90 {wall['latency_p90_ms']:.3f} ms; speed kernel {wall['kernel_mean_ms']:.4f} ms "
          f"on average over {wall['probes']} probes, {wall['kernel_ref_ms']:.4f} ms at the reference speed")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def untraced_run(workload, seed: int, count: int, workdir: Path) -> dict:
    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPS):
        seconds, state = setup(workload, seed, count, workdir, probe)
        setup_times.append(seconds)
    p = run_pass(workload, state, probe)
    metrics = end_to_end(p)
    # set-ups spread over the run, so that one slow moment of the machine
    # does not decide setup_s
    for _ in range(SETUP_REPS):
        setup_times.append(setup(workload, seed, count, workdir, probe)[0])
    metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    return {
        "correct": not p.failures,
        "attempted": count,
        "failed": len(p.failures),
        "failures": p.failures,
        "setup_s_all": setup_times,
        "latencies_ms": [round(x * 1e3, 4) for x in p.latencies],
        "latency_p50_p90_ms": percentiles_ms(p.latencies),
        "wall": wall_record(p, probe),
        "inputs": p.property_shares(),
        "metrics": metrics,
    }


def wall_record(p: Pass, probe: SpeedProbe) -> dict:
    """The uncalibrated wall-clock figures and the host speed behind them."""
    p50, p90 = percentiles_ms(p.wall)
    return {
        "ops_per_s": p.wall_ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "probes": len(probe.times),
        "kernel_mean_ms": probe.mean_s() * 1e3,
        "kernel_ref_ms": REF_KERNEL_S * 1e3,
    }


def traced_run(workload, seed: int, count: int, workdir: Path, tag: str) -> dict:
    count = max(MIN_OPS, count // 2)  # three passes; keeps the run near 1.5x --seconds

    probe = SpeedProbe()

    def traced_pass(span_limit: int) -> tuple[Pass, Tracer]:
        _, state = setup(workload, seed, count, workdir, probe)
        tracer = Tracer(span_limit=span_limit)
        tracer.install()
        return run_pass(workload, state, probe, tracer), tracer

    # The untraced pass that the overhead is measured against sits between
    # the two traced passes, so a drift of the machine's speed over the run
    # does not favour either side.
    reference, ref_tracer = traced_pass(span_limit=0)
    _, state = setup(workload, seed, count, workdir, probe)
    base = run_pass(workload, state, probe)
    traced, tracer = traced_pass(span_limit=200_000)
    passes, tracers = [reference, traced], [ref_tracer, tracer]
    tracer.dump(OUT / f"spans-{tag}.jsonl.gz")

    counts_match = tracers[0].work_counts() == tracers[1].work_counts()
    outputs_match = len({p.digest.hexdigest() for p in (base, *passes)}) == 1
    print(f"determinism: work counts {'match' if counts_match else 'DIFFER'} across two traced passes; "
          f"outputs {'match' if outputs_match else 'DIFFER'} across untraced and traced passes")
    if not counts_match:
        a, b = tracers[0].work_counts(), tracers[1].work_counts()
        print("  differing counts: " + ", ".join(f"{k} {a[k]} vs {b[k]}" for k in a if a[k] != b[k]))
    print(f"spans kept {len(tracer.spans)} of {tracer.spans_total}")

    failures = traced.failures
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    metrics.update({
        "trace.ops_per_s_untraced": metric(base.ops_per_s, "1/s"),
        "trace.latency_p50_ms_untraced": metric(percentiles_ms(base.latencies)[0], "ms"),
        "trace.ops_per_s_traced": metric(traced.ops_per_s, "1/s"),
        "trace.overhead_frac": metric(1.0 - traced.ops_per_s / base.ops_per_s, "frac"),
        "trace.work_counts_match": metric(int(counts_match), "bool"),
        "bench.attempted": metric(count, "count"),
        "bench.failed_frac": metric(len(failures) / count, "frac"),
    })
    all_failures = base.failures + [f for p in passes for f in p.failures]
    return {
        "correct": not all_failures and counts_match and outputs_match,
        "attempted": count,
        "failed": len(failures),
        "failures": failures,
        "latency_p50_p90_ms": percentiles_ms(base.latencies),
        "wall": wall_record(base, probe),
        "inputs": traced.property_shares(),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
