#!/usr/bin/env python3
"""Check the traced work counts against cProfile.

    python3 perfbench/profile_check.py [--seed 0] [--stop-radius 0.001]

Runs one round of the loop-dblint workload under cProfile, then the same round under
the benchmark's tracer, and compares the call counts that both can see:
plan_interval, synthesize_step, flow_endpoint, m_derivative_estimates,
integrate_segment, RK step attempts (``_stages``) and rhs evaluations (the
callable built by ``VectorField.compiled``). ``--stop-radius`` replaces the
workload's stop radius; 0.001 gives the acceptance run. Exits 1 if any
count differs.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import pstats
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMPARED = ("simloop.plan_interval.calls", "synth.synthesize_step.calls",
            "synth.flow_endpoint.calls", "synth.m_derivative_estimates.calls",
            "rk.integrate_segment.calls", "rk.steps_attempted", "rk.rhs_evals")


def profiled_counts(sdstab, prepared) -> dict[str, int]:
    profile = cProfile.Profile()
    profile.runcall(prepared.run_round, lambda: None)
    stats = pstats.Stats(profile).stats
    rhs_code = next(c for c in sdstab.lie.VectorField.compiled.__code__.co_consts
                    if getattr(c, "co_name", None) == "<lambda>")
    codes = (sdstab.simloop.plan_interval.__code__,
             sdstab.synth.synthesize_step.__code__,
             sdstab.synth.flow_endpoint.__code__,
             sdstab.synth.m_derivative_estimates.__code__,
             sdstab._rk.integrate_segment.__code__,
             sdstab._rk._stages.__code__,
             rhs_code)
    out = {}
    for name, code in zip(COMPARED, codes):
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = stats[key][1] if key in stats else 0
    return out


def traced_counts(sdstab, prepared) -> dict[str, int]:
    import tracing
    tracer = tracing.Tracer()
    tracer.install(sdstab)
    try:
        t0 = time.perf_counter()
        prepared.run_round(lambda: None)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    window = tracer.window(t0, t1)
    rhs_evals, attempts, _, _ = tracer.counts
    spans = ("simloop.plan_interval", "synth.synthesize_step", "synth.flow_endpoint",
             "synth.m_derivative_estimates", "_rk.integrate_segment")
    out = {name: window.calls(span) for name, span in zip(COMPARED, spans)}
    out["rk.steps_attempted"] = attempts
    out["rk.rhs_evals"] = rhs_evals
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stop-radius", type=float, default=None)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import sdstab
    import workloads
    spec = workloads.DBLINT_LOOP
    if args.stop_radius is not None:
        spec = dataclasses.replace(spec, stop_radius=args.stop_radius)
    prepared = workloads.prepare_loop(sdstab, ROOT, args.seed, spec)
    profiled = profiled_counts(sdstab, prepared)
    traced = traced_counts(sdstab, prepared)
    ok = True
    print(f"{'count':40s} {'cProfile':>12s} {'traced':>12s}")
    for name, value in profiled.items():
        same = value == traced[name]
        ok = ok and same
        print(f"{name:40s} {value:12d} {traced[name]:12d}{'' if same else '  MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
