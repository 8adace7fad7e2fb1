"""In-memory spans and counters, and the per-layer figures drawn from them.

A span records name, start, end, parent span and op id. Spans and counts
are kept in lists until the run ends; nothing is written while ops run.
`NullTracer` has the same interface and records nothing, so untraced ops
pay one no-op context manager per public call.
"""

import contextlib
import statistics
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    op_id = None

    def span(self, name):
        return _NULL

    def add(self, name, value):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.op_id = None
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.sums = defaultdict(lambda: defaultdict(float))
        self.peaks = defaultdict(lambda: defaultdict(float))
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, value):
        self.sums[self.op_id][name] += value

    def peak(self, name, value):
        slot = self.peaks[self.op_id]
        slot[name] = max(slot[name], value)

    def self_times(self):
        """{op id: {span name: summed self time}}; self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name] += (end - start) - child[k]
        return out

    def counts(self, op):
        return {**self.sums[op], **self.peaks[op]}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tr, ops, setup_id, import_s, traced_s, untraced_s,
                  traced_scaled_s, untraced_scaled_s, host_probe_s):
    """Per-layer figures: the median over the traced ops of each op's value.

    A layer that did not run in an op reads 0 for that op. Set-up figures
    come from the spans recorded under `setup_id`. The tracing overhead
    compares scaled op times, so a host speed change between ops does not
    show as overhead.
    """
    selfs = tr.self_times()
    per_op = []
    for op in ops:
        s, c = selfs[op], tr.counts(op)
        sim_s = s["simulate.delta_ladder"] + s["simulate.policy_hedge"]
        per_op.append({
            "op.self.s": s["op"],
            "tree.solve_tree.s": s["tree.solve_tree"],
            "tree.cells_per_s": _ratio(c.get("tree.cells", 0), s["tree.solve_tree"]),
            "tree.cells": c.get("tree.cells", 0),
            "tree.shift_candidates": c.get("tree.shift_candidates", 0),
            "tree.stored_mb": c.get("tree.stored_mb", 0.0),
            "pde.solve_theta.s": s["pde.solve_theta"],
            "pde.cells_per_s": _ratio(c.get("pde.cells", 0), s["pde.solve_theta"]),
            "pde.stored_mb": c.get("pde.stored_mb", 0.0),
            "pde.policy_lookup.s": s["pde.policy_lookup"],
            "simulate.price_paths.s": s["simulate.price_paths"],
            "simulate.delta_ladder.s": s["simulate.delta_ladder"],
            "simulate.policy_hedge.s": s["simulate.policy_hedge"],
            "simulate.path_steps_per_s": _ratio(c.get("simulate.path_steps", 0), sim_s),
            "simulate.kept_ratio": _ratio(c.get("simulate.kept", 0),
                                          c.get("simulate.paths", 0)),
            "impact.solve_with_impact.s": s["impact.solve_with_impact"],
        })
    out = {name: statistics.median(row[name] for row in per_op) for name in per_op[0]}
    setup = selfs[setup_id]
    out.update({
        "op.traced_s": statistics.median(traced_s),
        "op.wall_p50_s": statistics.median(untraced_s),
        "host.probe_s": statistics.median(host_probe_s),
        "setup.import_s": import_s,
        "cli.load_config.s": setup["cli.load_config"],
        "setup.solve_theta.s": setup["pde.solve_theta"],
        "trace.overhead_ratio": (statistics.median(traced_scaled_s)
                                 / statistics.median(untraced_scaled_s) - 1.0),
    })
    return out
