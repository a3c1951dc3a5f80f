"""In-memory span tracer for rrfilt's layer boundaries, applied from outside.

The tracer wraps the names through which one rrfilt layer calls the next
(module attributes and class methods) for the duration of a ``with
patched(tracer):`` block and restores them afterwards; no rrfilt source is
touched.  Every call through a wrapped name records one span: name, start,
end (``perf_counter_ns``) and the index of the enclosing span.  Spans live in
flat typed arrays, so a traced desk-scale run (about a million spans) costs
tens of megabytes, and are written out once, at the end.

A span's self time is its duration minus the durations of its direct
children.  Execution is single-threaded and strictly nested, so the self
times of all spans add up exactly to the durations of the root spans.
"""

from __future__ import annotations

import array
import time
from contextlib import contextmanager

import numpy as np

from rrfilt import cdma, combiners, filters, harness

LAYERS = ("signalcore", "filters", "combiners", "cdma", "harness")
ROOT_SPAN = "bench.op"

# (owner, attribute, span name); the first dotted part of the name is the
# layer the callee belongs to.  Class attributes are wrapped where they are
# defined; module attributes where the caller looks them up.
BOUNDARIES = [
    (harness, "load_config", "harness.load_config"),
    (harness, "snr_sweep", "harness.snr_sweep"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "_single_run", "harness._single_run"),
    (harness, "write_csv", "harness.write_csv"),
    (harness, "write_sweep_csv", "harness.write_sweep_csv"),
    (harness, "generate_signatures", "cdma.generate_signatures"),
    (harness, "ClarkeChannel", "cdma.ClarkeChannel"),
    (cdma.ClarkeChannel, "run", "cdma.ClarkeChannel.run"),
    (harness, "qpsk_symbols", "cdma.qpsk_symbols"),
    (harness, "generate_received", "cdma.generate_received"),
    (harness, "detect_qpsk", "cdma.detect_qpsk"),
    (harness, "MmseReceiver", "cdma.MmseReceiver"),
    (cdma.MmseReceiver, "filter_for", "cdma.MmseReceiver.filter_for"),
    (combiners.SchemeA, "step", "combiners.SchemeA.step"),
    (combiners.SchemeA, "predict", "combiners.SchemeA.predict"),
    (combiners.SchemeB, "step", "combiners.SchemeB.step"),
    (combiners.SchemeB, "predict", "combiners.SchemeB.predict"),
    (combiners.Clms, "step", "combiners.Clms.step"),
    (combiners.Clms, "predict", "combiners.Clms.predict"),
    (combiners.Combiner, "update", "combiners.Combiner.update"),
    (filters.JidfFilter, "_forward", "filters.JidfFilter._forward"),
    (filters.JidfFilter, "_commit", "filters.JidfFilter._commit"),
    (filters.JidfFilter, "predict", "filters.JidfFilter.predict"),
    (filters.FullRankLms, "_forward", "filters.FullRankLms._forward"),
    (filters.FullRankLms, "_commit", "filters.FullRankLms._commit"),
    (filters.FullRankLms, "predict", "filters.FullRankLms.predict"),
    (filters, "build_hankel", "signalcore.build_hankel"),
]

# computed bytes of the complex128 Hankel regressor one call builds
# (build_hankel(samples, num_taps, interp_len)); cache misses are ignored
HANKEL_BYTES = {"signalcore.build_hankel": lambda args: args[1] * args[2] * 16}


class Tracer:
    """Records nested spans in memory; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.weight: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, weigh=None):
        """Return ``fn`` wrapped so that each call records a span ``name``;
        ``weigh(args)`` adds a per-call amount to ``self.weight[name]``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        self.weight.setdefault(name, 0)
        clock, stack = time.perf_counter_ns, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if weigh is not None:
                self.weight[name] += weigh(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self):
        """``(names, name_id, parent, duration_ns, self_ns)`` as numpy arrays."""
        if len(self._stack) != 1 or 0 in self.end:
            raise RuntimeError("trace has unclosed spans")
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        has_parent = parent >= 0
        child_ns = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        ).astype(np.int64)
        return np.array(self.names), name_id, parent, duration, duration - child_ns

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


@contextmanager
def patched(tracer: Tracer):
    """Route every name in :data:`BOUNDARIES` through ``tracer`` while the
    block runs; the original attributes are restored on exit."""
    saved = []
    try:
        for owner, attr, name in BOUNDARIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, HANKEL_BYTES.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, run_symbols: int, complexity_ops: int) -> dict:
    """Per-layer figures from a finished trace over ``run_symbols``
    run-symbols; ``complexity_ops`` is the closed-form per-symbol operation
    count of the scheme (0 when it has none)."""
    names, name_id, parent, duration, self_ns = tracer.arrays()
    span_name = names[name_id]
    layer = np.array([n.split(".", 1)[0] for n in names])[name_id]

    def select(*wanted):
        return np.isin(span_name, wanted)

    def per_call_us(mask):
        return float(duration[mask].mean()) / 1e3 if mask.any() else 0.0

    def per_rs(value):
        return float(value) / run_symbols

    forward = select("filters.JidfFilter._forward", "filters.FullRankLms._forward")
    commit = select("filters.JidfFilter._commit", "filters.FullRankLms._commit")
    f_predict = select("filters.JidfFilter.predict", "filters.FullRankLms.predict")
    steps = select("combiners.SchemeA.step", "combiners.SchemeB.step", "combiners.Clms.step")
    c_predict = select(
        "combiners.SchemeA.predict", "combiners.SchemeB.predict", "combiners.Clms.predict"
    )
    hankel = select("signalcore.build_hankel")
    signal = select(
        "cdma.generate_signatures", "cdma.ClarkeChannel", "cdma.ClarkeChannel.run",
        "cdma.qpsk_symbols", "cdma.generate_received",
    )
    received = select("cdma.generate_received")
    solve = select("cdma.MmseReceiver.filter_for")
    slicer = select("cdma.detect_qpsk")
    root = select(ROOT_SPAN)

    under_step = np.zeros(duration.size, dtype=bool)
    has_parent = parent >= 0
    under_step[has_parent] = steps[parent[has_parent]]
    step_filter_ns = duration[under_step & (layer == "filters")].sum()
    filter_busy_s = duration[forward | commit].sum() / 1e9

    out = {
        "signalcore.hankel_us_per_call": per_call_us(hankel),
        "signalcore.hankel_calls_per_run_symbol": per_rs(hankel.sum()),
        "signalcore.hankel_bytes_per_run_symbol": per_rs(
            tracer.weight.get("signalcore.build_hankel", 0)
        ),
        "filters.forward_us_per_call": per_call_us(forward),
        "filters.commit_us_per_call": per_call_us(commit),
        "filters.predict_us_per_call": per_call_us(f_predict),
        "filters.ops_per_run_symbol": float(complexity_ops),
        "filters.mops_per_s": (
            complexity_ops * run_symbols / filter_busy_s / 1e6 if filter_busy_s else 0.0
        ),
        "combiners.step_us_per_call": per_call_us(steps),
        "combiners.predict_us_per_call": per_call_us(c_predict),
        "combiners.self_us_per_call": (
            (duration[steps].sum() - step_filter_ns) / steps.sum() / 1e3 if steps.any() else 0.0
        ),
        "cdma.signal_us_per_run_symbol": per_rs(duration[signal].sum() / 1e3),
        "cdma.received_us_per_run_symbol": per_rs(duration[received].sum() / 1e3),
        "cdma.mmse_solve_us_per_call": per_call_us(solve),
        "cdma.mmse_solves_per_run_symbol": per_rs(solve.sum()),
        "cdma.slicer_us_per_run_symbol": per_rs(duration[slicer].sum() / 1e3),
        "cdma.slicer_calls_per_run_symbol": per_rs(slicer.sum()),
    }
    for name in LAYERS:
        out[f"{name}.self_us_per_run_symbol"] = per_rs(self_ns[layer == name].sum() / 1e3)
    out["trace.gap_us_per_run_symbol"] = per_rs(self_ns[root].sum() / 1e3)
    out["trace.spans_per_run_symbol"] = per_rs(duration.size)
    # self times partition the root spans exactly (integer nanoseconds)
    out["_closure_ns"] = int(self_ns.sum() - duration[root].sum())
    out["_root_s"] = float(duration[root].sum() / 1e9)
    return out
