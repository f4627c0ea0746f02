#!/usr/bin/env python3
"""Benchmark of sdstab, one workload per invocation.

    python3 perfbench/run.py --workload loop-dblint --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run sets up the workload several times (fresh imports, system
files, inputs from the seed), then repeats whole rounds of the workload's
operations, each round pinned to the next allowed CPU, until ``--seconds``
have passed. It checks the first round's outputs independently and every
later round's outputs against the first, and prints one JSON object as its
last line of output. With ``--trace 0`` the metrics are the end-to-end ones,
timed from each operation's fastest repeat; with ``--trace 1`` every public
function of the package is wrapped and the metrics are the per-layer ones.

Results and span traces are written to ``perfbench-out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_REPEATS = 9
# the latency tail is the highest percentile with this many operations beyond it
TAIL_BEYOND = 10


def _args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fresh_import():
    for name in [m for m in sys.modules if m == "sdstab" or m.startswith("sdstab.")]:
        del sys.modules[name]
    return importlib.import_module("sdstab")


def _cpu_pinner():
    """Pin the process to the allowed CPUs in turn. The host's slow phases
    often hold one CPU for seconds to tens of seconds while the scheduler
    keeps a busy process where it is, so each set-up and each round moves
    to the next CPU: every run meets every CPU."""
    cpus = sorted(os.sched_getaffinity(0))

    def pin(k: int):
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    return cpus, pin


def _setup(workload: str, seed: int, pin):
    import workloads
    times = []
    for k in range(SETUP_REPEATS):
        pin(k)
        t0 = time.perf_counter()
        sd = _fresh_import()
        prepared = workloads.prepare(sd, ROOT, workload, seed)
        times.append(time.perf_counter() - t0)
    return sd, prepared, statistics.median(times)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it."""
    return math.floor(100.0 * (n - TAIL_BEYOND) / n)


def _percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(values, pct))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def fastest_per_op(series) -> list[float]:
    """Each operation's fastest time over the rounds of a run. Every round
    runs the same operations in the same order, and the host slows a
    running process in bursts, so an operation's fastest repeat is the one
    the bursts missed."""
    return [min(column) for column in zip(*series)]


def end_to_end(setup_s, rounds) -> dict:
    lat = fastest_per_op(r.latencies_ms for r in rounds)
    wall = sum(fastest_per_op(r.op_walls_ms for r in rounds)) / 1e3
    return {
        "setup_s": _metric(setup_s, "s"),
        "run_wall_s": _metric(wall, "s"),
        "latency_ms.p50": _metric(statistics.median(lat), "ms"),
        "latency_ms.tail": _metric(_percentile(lat, tail_percentile(len(lat))), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, windows, counts, facts) -> dict:
    """Per-layer metrics: counts from the first round, times as the median
    over rounds."""
    first = tracer.window(*windows[0])
    all_w = [first] + [tracer.window(*w) for w in windows[1:]]
    c = counts[0]

    def med(fn):
        return statistics.median(fn(w) for w in all_w)

    def count(value):
        return _metric(value, "count")

    def secs(fn):
        return _metric(med(fn), "s")

    rhs_evals, attempted, accepted, monomials = c
    seg = "_rk.integrate_segment"
    synth_calls = first.calls("synth.synthesize_step")
    attempts = first.child_calls[("synth.synthesize_step", "synth.flow_endpoint")]
    seg_time = med(lambda w: w.time_s(seg))
    out = {
        "rk.integrate_segment.calls": count(first.calls(seg)),
        "rk.integrate_segment.self_s": secs(lambda w: w.self_s(seg)),
        "rk.rhs_evals": count(rhs_evals),
        "rk.steps_attempted": count(attempted),
        "rk.steps_accepted": count(accepted),
        "rk.steps_rejected": count(attempted - accepted),
        "rk.rhs_evals_per_s": _metric(rhs_evals / seg_time if seg_time else 0.0, "1/s"),
        "synth.synthesize_step.calls": count(synth_calls),
        "synth.synthesize_step.time_s": secs(lambda w: w.time_s("synth.synthesize_step")),
        "synth.flow_endpoint.calls": count(first.calls("synth.flow_endpoint")),
        "synth.attempts": count(attempts),
        "synth.steps_per_attempt": _metric(synth_calls / attempts if attempts else 0.0, "ratio"),
        "synth.m_derivative_estimates.calls": count(first.calls("synth.m_derivative_estimates")),
        "synth.m_derivative_estimates.time_s": secs(
            lambda w: w.time_s("synth.m_derivative_estimates")),
        "simloop.plan_interval.calls": count(first.calls("simloop.plan_interval")),
        "simloop.plan_interval.time_s": secs(lambda w: w.time_s("simloop.plan_interval")),
        "simloop.programs": count(facts.get("programs", 0)),
        "simloop.programs_per_interval.max": count(facts.get("programs_per_interval_max", 0)),
        "simloop.integrate.calls": count(first.calls("simloop.integrate")),
        "simloop.integrate.time_s": secs(lambda w: w.time_s("simloop.integrate")),
        "simloop.settle_time": _metric(facts.get("settle_time") or 0.0, "sim_s"),
        "certify.certify_point.calls": count(first.calls("certify.certify_point")),
        "certify.cold_ms": _metric(
            med(lambda w: statistics.median(w.cold_s) if w.cold_s else 0.0) * 1e3, "ms"),
        "certify.warm_us.p50": _metric(
            med(lambda w: statistics.median(w.warm_s) if w.warm_s else 0.0) * 1e6, "us"),
        "certify.monomial_value.calls": count(first.calls("certify.monomial_value")),
        "certify.rhs_fields_compiled": count(len(first.parents_with_child[
            ("certify.SystemDef.rhs", "symcalc.compile_expr")])),
    }
    for name in ("lie.lie_bracket", "lie.directional_derivative", "symcalc.simplify",
                 "symcalc.differentiate", "symcalc.compile_expr"):
        out[f"{name}.calls"] = count(first.calls(name))
        out[f"{name}.self_s"] = secs(lambda w, n=name: w.self_s(n))
    out["lie.monomial_tuples"] = count(monomials)
    out["cli.load_system.calls"] = count(first.calls("cli.load_system"))
    out["cli.load_system.time_s"] = secs(lambda w: w.time_s("cli.load_system"))
    import tracing
    for layer in tracing.LAYERS:
        out[f"layer.{layer.lstrip('_')}.self_s"] = secs(lambda w, l=layer: w.layer_self_s(l))
    out["trace.round_wall_s"] = _metric(statistics.median(hi - lo for lo, hi in windows), "s")
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "sdstab" / "__init__.py").is_file():
        print(f"no sdstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpus, pin = _cpu_pinner()
    sd, prepared, setup_s = _setup(args.workload, args.seed, pin)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(sd)
    op_counter = [-1]

    def op_started():
        op_counter[0] += 1
        if tracer is not None:
            tracer.op = op_counter[0]

    first_output = None
    digests, walls, windows, counts, rounds = [], [], [], [], []
    begin = time.perf_counter()
    while True:
        before = list(tracer.counts) if tracer else None
        pin(len(rounds))
        t0 = time.perf_counter()
        rnd = prepared.run_round(op_started)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        windows.append((t0, t1))
        if tracer:
            counts.append([a - b for a, b in zip(tracer.counts, before)])
        digests.append(prepared.digest(rnd.output))
        if first_output is None:
            first_output = rnd.output
        rnd.output = None
        rounds.append(rnd)
        if t1 - begin >= args.seconds:
            break
    metrics = None if tracer else end_to_end(setup_s, rounds)
    os.sched_setaffinity(0, cpus)
    if tracer:
        tracer.uninstall()

    problems, facts = prepared.check(first_output)
    for k, d in enumerate(digests[1:], start=2):
        if d != digests[0]:
            problems.append(f"round {k} output differs from round 1")
    if tracer:
        for k, cnt in enumerate(counts[1:], start=2):
            if cnt != counts[0]:
                problems.append(f"round {k} work counts {cnt} differ from round 1 {counts[0]}")
        metrics = per_layer(tracer, windows, counts, facts)

    attempted = sum(len(r.latencies_ms) for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... {len(problems) - 20} more check failures", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, rounds=len(rounds),
                  facts=facts,
                  round_walls_s=walls, first_round_latencies_ms=rounds[0].latencies_ms,
                  problems=problems[:100], inputs=prepared.extra)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
