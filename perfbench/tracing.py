"""Per-layer tracing of sdstab from outside the package.

The tracer replaces every public function of each sdstab module with a
wrapper that records a span (name, start, end, parent span, operation id).
A ``from .x import f`` copy of a function escapes a patch made only on
module ``x``, so each function is replaced in every sdstab module that holds
it. A recursive function is recorded at its outermost call only.

Four counters need no span: RK step attempts (``sdstab._rk._stages``),
right-hand-side evaluations (a wrapper around each callable that
``SystemDef.rhs`` returns), accepted RK steps (an ``on_step`` callback
chained in front of the caller's own) and the monomial tuples that
``enumerate_monomial_products`` returns. ``certify_point`` spans are marked
cold when they are the first call on their system. Spans stay in memory
until ``write`` saves them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "symcalc", "lie", "certify", "synth", "simloop", "_rk")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        # [rhs evaluations, RK step attempts, accepted RK steps,
        #  monomial tuples returned by enumerate_monomial_products]
        self.counts = [0, 0, 0, 0]
        # indices of certify_point spans that were the first call on their system
        self.cold_spans: set[int] = set()
        self._seen_systems = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        depth = [0]
        stack = self._stack
        clock = time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[0] = 0
        return wrapper

    # --- installation -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions of every layer of ``package``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if attr == "integrate_segment":
                    fn = self._counting_segment(fn)
                elif attr == "enumerate_monomial_products":
                    fn = self._counting_monomials(fn)
                wrapper = self._span(f"{layer}.{attr}", fn)
                if attr == "certify_point":
                    wrapper = self._marking_cold(wrapper)
                original = getattr(mod, attr)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, name, wrapper)
        rk = package._rk
        self._patch(rk, "_stages", self._counting_stages(rk._stages))
        system_def = package.certify.SystemDef
        self._patch(system_def, "rhs",
                    self._span("certify.SystemDef.rhs", self._counting_rhs(system_def.rhs)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counting_stages(self, stages):
        counts = self.counts

        def counted(*args):
            counts[1] += 1
            return stages(*args)
        return counted

    def _counting_rhs(self, rhs_method):
        counts = self.counts

        def rhs(self_, u):
            fn = rhs_method(self_, u)

            def counted(x):
                counts[0] += 1
                return fn(x)
            return counted
        return rhs

    def _counting_monomials(self, enumerate_products):
        counts = self.counts

        @functools.wraps(enumerate_products)
        def enumerate_counted(*args, **kwargs):
            out = enumerate_products(*args, **kwargs)
            counts[3] += len(out)
            return out
        return enumerate_counted

    def _marking_cold(self, certify_point):
        seen, cold, names = self._seen_systems, self.cold_spans, self.span_name

        @functools.wraps(certify_point)
        def certify_marked(system, *args, **kwargs):
            if system not in seen:
                seen.add(system)
                cold.add(len(names))
            return certify_point(system, *args, **kwargs)
        return certify_marked

    def _counting_segment(self, integrate_segment):
        counts = self.counts
        signature = inspect.signature(integrate_segment)

        @functools.wraps(integrate_segment)
        def segment(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user = bound.arguments.get("on_step")

            def on_step(t, y):
                # the first call reports the start state, not a step
                if t > 0.0:
                    counts[2] += 1
                if user is not None:
                    user(t, y)
            bound.arguments["on_step"] = on_step
            return integrate_segment(*bound.args, **bound.kwargs)
        return segment

    # --- analysis -------------------------------------------------------------------

    def window(self, t_lo: float, t_hi: float) -> "Window":
        """Statistics of the spans that start within [t_lo, t_hi]."""
        n = len(self.span_name)
        starts, ends, parents, names = (
            self.span_start, self.span_end, self.span_parent, self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        w = Window()
        for i in range(n):
            if not t_lo <= starts[i] <= t_hi:
                continue
            name = self.names[names[i]]
            dur = ends[i] - starts[i]
            row = w.rows[name]
            row["calls"] += 1
            row["time_s"] += dur
            row["self_s"] += dur - child[i]
            p = parents[i]
            if p >= 0:
                pair = (self.names[names[p]], name)
                w.child_calls[pair] += 1
                w.parents_with_child[pair].add(p)
            if name == "certify.certify_point":
                (w.cold_s if i in self.cold_spans else w.warm_s).append(dur)
        return w

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines: one header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"[{self.span_name[i]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_op[i]}]\n")


class Window:
    """Span statistics over one time window of a traced run."""

    def __init__(self):
        self.rows = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        self.child_calls = defaultdict(int)
        self.parents_with_child = defaultdict(set)
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []

    def calls(self, name: str) -> int:
        return self.rows[name]["calls"] if name in self.rows else 0

    def time_s(self, name: str) -> float:
        return self.rows[name]["time_s"] if name in self.rows else 0.0

    def self_s(self, name: str) -> float:
        return self.rows[name]["self_s"] if name in self.rows else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(r["self_s"] for name, r in self.rows.items() if name.startswith(prefix))
