"""Spans around calls into epursim's modules, and the per-layer metrics
computed from them.

A ``Tracer`` swaps selected public functions of the epursim modules for
wrappers that record one span per call: name, start, end, parent span and
op id.  A module that imported a function by name (``arch`` does
``from .model import accumulate_dot``) holds its own reference, so every
epursim module attribute bound to the original function is patched, not
only the defining module's.  Spans stay in memory until the run writes them
out.  A traced name that a later version of the program no longer has is
listed in ``Tracer.absent`` and the metrics that need it are left out.
"""
from __future__ import annotations

import csv
import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# The layer boundaries timed in a traced op: each module's entry points that
# the three workloads reach, plus the datapath kernels the per-layer metrics
# name.  Functions no workload calls are left out, so that removing one
# cannot turn a metric absent.
TRACED = {
    "netio": ("load_descriptor", "load_weights"),
    "presets": ("random_sequence",),
    "arch": ("simulate",),
    "model": ("accumulate_dot", "accumulate_dot_all_t", "finish_step",
              "network_infer"),
    "quant": ("quantize",),
    "sched": ("layer_traces", "reuse_analysis", "dram_traffic"),
    "energy": ("account",),
}

KERNELS = ("model.accumulate_dot", "model.accumulate_dot_all_t",
           "model.finish_step")
ROOT_SPAN = "cli.main"


def _count_dot(args):
    _acc, mat, vec = args[:3]
    return {"model.macs": mat.shape[0] * vec.shape[0]}


def _count_dot_all_t(args):
    _acc, mat, frames = args[:3]
    return {"model.macs": mat.shape[0] * frames.shape[0] * frames.shape[1]}


def _count_codes(result):
    return {"quant.codes": int(result.size)}


def _count_events(result):
    return {"sched.events": sum(len(events) for tr in result
                                for events in tr.events.values())}


# Work counted at the boundary where it happens: from the call's arguments
# (shapes only, never values) or from what it returned.
ARG_COUNTERS = {"model.accumulate_dot": _count_dot,
                "model.accumulate_dot_all_t": _count_dot_all_t}
RESULT_COUNTERS = {"quant.quantize": _count_codes,
                   "sched.layer_traces": _count_events}
MAC_NEEDS = tuple(ARG_COUNTERS) + tuple(f"{n}:count" for n in ARG_COUNTERS)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id]; parent -1 for an op root
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- patching

    def install(self) -> None:
        """Wrap every name in TRACED wherever an epursim module binds it."""
        mods = [m for n, m in sys.modules.items()
                if (n == "epursim" or n.startswith("epursim.")) and m is not None]
        for modname, fnames in TRACED.items():
            owner = sys.modules.get(f"epursim.{modname}")
            for fname in fnames:
                name = f"{modname}.{fname}"
                fn = getattr(owner, fname, None)
                if not callable(fn):
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_args = ARG_COUNTERS.get(name)
        count_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_args:
                self._count(name, count_args, args)
            if count_result:
                self._count(name, count_result, result)
            return result

        return traced

    def _count(self, name, counter, value) -> None:
        try:
            increments = counter(value)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            # the call's signature or result type changed under the counter
            self.absent.add(f"{name}:count")
            return
        for key, n in increments.items():
            self.counts[self._op][key] += n

    # -- ops

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op ``op_id``, under a root span named cli.main."""
        self._op = op_id
        try:
            return self._wrap(ROOT_SPAN, fn)(*args)
        finally:
            self._op = -1

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["index", "name", "start", "end", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([i, name, repr(start), repr(end), parent, op])

    # -- per-layer metrics

    def op_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer times and counts of one traced op.

        A layer's self time is its spans' durations minus the part their
        direct child spans cover.  A metric that needs a name in ``absent``
        is left out, also when it sums over that name and others.
        """
        index = [i for i, s in enumerate(self.spans) if s[4] == op_id]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i in index}
        child = defaultdict(float)
        for i in index:
            if self.spans[i][3] >= 0:
                child[self.spans[i][3]] += dur[i]
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        datapath = 0.0
        for i in index:
            name, parent = self.spans[i][0], self.spans[i][3]
            total[name] += dur[i]
            calls[name] += 1
            self_time[name.split(".")[0]] += dur[i] - child[i]
            if name in KERNELS and parent >= 0 and self.spans[parent][0] == "arch.simulate":
                datapath += dur[i]
        counts = self.counts[op_id]
        kernel_s = total["model.accumulate_dot"] + total["model.accumulate_dot_all_t"]
        sched_s = total["sched.layer_traces"] + total["sched.reuse_analysis"]

        specs = [
            ("model.datapath_s", KERNELS + ("arch.simulate",), lambda: datapath),
            ("model.oracle_s", ("model.network_infer",),
             lambda: total["model.network_infer"]),
            ("model.accumulate_dot_calls", ("model.accumulate_dot",),
             lambda: calls["model.accumulate_dot"]),
            ("model.accumulate_dot_all_t_calls", ("model.accumulate_dot_all_t",),
             lambda: calls["model.accumulate_dot_all_t"]),
            ("model.finish_step_calls", ("model.finish_step",),
             lambda: calls["model.finish_step"]),
            ("model.macs", MAC_NEEDS, lambda: counts["model.macs"]),
            ("model.ns_per_mac", MAC_NEEDS,
             lambda: _per(kernel_s, counts["model.macs"])),
            ("arch.simulate_s", ("arch.simulate",), lambda: total["arch.simulate"]),
            ("arch.self_s", ("arch.simulate",), lambda: self_time["arch"]),
            ("quant.quantize_s", ("quant.quantize",), lambda: total["quant.quantize"]),
            ("quant.codes", ("quant.quantize", "quant.quantize:count"),
             lambda: counts["quant.codes"]),
            ("sched.trace_s", ("sched.layer_traces",),
             lambda: total["sched.layer_traces"]),
            ("sched.reuse_s", ("sched.reuse_analysis",),
             lambda: total["sched.reuse_analysis"]),
            ("sched.events", ("sched.layer_traces", "sched.layer_traces:count"),
             lambda: counts["sched.events"]),
            ("sched.ns_per_event", ("sched.layer_traces", "sched.reuse_analysis",
                                    "sched.layer_traces:count"),
             lambda: _per(sched_s, counts["sched.events"])),
            ("netio.load_s", tuple(f"netio.{f}" for f in TRACED["netio"]),
             lambda: sum(total[f"netio.{f}"] for f in TRACED["netio"])),
            ("presets.sequence_s", ("presets.random_sequence",),
             lambda: total["presets.random_sequence"]),
            ("energy.account_s", ("energy.account",), lambda: total["energy.account"]),
            ("cli.self_s", (), lambda: self_time["cli"]),
        ]
        return {metric: value() for metric, needs, value in specs
                if not self.absent.intersection(needs)}


def _per(seconds: float, n: int) -> float:
    """Nanoseconds per unit of work; 0 when the op did none."""
    return seconds * 1e9 / n if n else 0.0
