"""Outside-in span tracing of the program's layers.

The traced run installs wrappers around public functions of each layer
before the :class:`~repro.Simulation` is built, so bound methods that the
simulation registers (``Site.receive`` with the network, ``Site.send`` with
the back-trace engine) already point at them.  Each call records one span:
name, start, end and the span open when it began (its parent).  Spans stay
in memory in flat arrays and are written out when the run ends.

A layer's self time is its spans' durations minus the durations of their
direct children.  Code that no wrapper covers (the scheduler loop, the
network's delivery path, event callbacks) counts as self time of the
nearest wrapped caller, which is ``Scheduler.run_until`` at the root.

Forked shard workers inherit the wrappers, but their spans stay in the
workers and are not collected.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class; a plain one names a module attribute that callers look
#: up at call time.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.scheduler", "Scheduler.run_until", "sim.scheduler"),
    ("repro.net.network", "Network.send", "net.network.send"),
    ("repro.site.site", "Site.send", "site.site.send"),
    ("repro.site.site", "Site.receive", "site.site.receive"),
    ("repro.site.site", "Site.mutator_add_ref", "mutator.add_ref"),
    ("repro.site.site", "Site.mutator_remove_ref", "mutator.remove_ref"),
    ("repro.site.site", "Site.mutator_send_ref", "mutator.send_ref"),
    ("repro.store.heap", "Heap.alloc", "mutator.alloc"),
    ("repro.store.heap", "Heap.sweep_ids", "store.heap.sweep"),
    ("repro.site.site", "Site.run_local_trace", "site.site.run_local_trace"),
    ("repro.gc.localtrace", "LocalCollector.plan_trace", "gc.localtrace.plan"),
    ("repro.gc.localtrace", "LocalCollector.compute", "gc.localtrace.compute"),
    ("repro.gc.localtrace", "LocalCollector.commit", "gc.localtrace.commit"),
    ("repro.gc.localtrace", "trace_clean_phase_flat", "core.distance.clean_phase.flat"),
    ("repro.gc.localtrace", "trace_clean_phase_vector", "core.distance.clean_phase.vector"),
    ("repro.gc.localtrace", "compute_outsets_bottom_up", "core.backinfo"),
    ("repro.site.site", "apply_update", "gc.update.apply"),
    ("repro.site.site", "apply_update_delta", "gc.update.apply_delta"),
    ("repro.core.collector", "BackTracingCollector.check_triggers", "core.collector.check_triggers"),
    ("repro.core.backtrace.engine", "BackTraceEngine.start_trace", "core.backtrace.handlers"),
    ("repro.core.backtrace.engine", "BackTraceEngine.handle_back_call", "core.backtrace.handlers"),
    ("repro.core.backtrace.engine", "BackTraceEngine.handle_back_call_batch", "core.backtrace.handlers"),
    ("repro.core.backtrace.engine", "BackTraceEngine.handle_back_reply", "core.backtrace.handlers"),
    ("repro.core.backtrace.engine", "BackTraceEngine.handle_back_reply_batch", "core.backtrace.handlers"),
    ("repro.core.backtrace.engine", "BackTraceEngine.handle_back_outcome", "core.backtrace.handlers"),
)

MUTATOR_SPANS = ("mutator.add_ref", "mutator.remove_ref", "mutator.send_ref", "mutator.alloc")
CLEAN_PHASE_SPANS = ("core.distance.clean_phase.flat", "core.distance.clean_phase.vector")


class SpanRecorder:
    """Spans in flat arrays: name id, start and end in ns, parent index (-1 at a root)."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        # Indices of the open spans; -1 stands for "no span open".
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def truncate(self, length: int = 0) -> None:
        """Forget every span recorded after the first ``length``.

        Call it with no span open, for instance to drop the spans of a
        set-up that ran between two timed runs.
        """
        if len(self._stack) != 1:
            raise RuntimeError("cannot drop spans while one is open")
        for column in (self.name, self.start, self.end, self.parent):
            del column[length:]

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that every call records one span called ``name``."""
        ident = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(ident)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def aggregate(self) -> Dict[str, Tuple[int, int, int]]:
        """Per span name: ``(calls, total ns, self ns)``."""
        count = len(self.name)
        starts, ends, parents = self.start, self.end, self.parent
        children = [0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
        totals: Dict[int, List[int]] = defaultdict(lambda: [0, 0, 0])
        for index in range(count):
            duration = ends[index] - starts[index]
            row = totals[self.name[index]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - children[index]
        return {self.names[ident]: tuple(row) for ident, row in totals.items()}

    def dump(self, path) -> None:
        """Write the spans out: a pickled dict of the name table and the four columns."""
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "names": list(self.names),
                    "name": self.name.tobytes(),
                    "start": self.start.tobytes(),
                    "end": self.end.tobytes(),
                    "parent": self.parent.tobytes(),
                },
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install a wrapper on every function in :data:`WRAPPED` for the block."""
    installed = []
    try:
        for module_name, path, name in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(original, name))
            installed.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Dict[str, Tuple[int, int, int]], counters: Dict[str, int], events: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, from its spans and counters."""

    def calls(name: str) -> int:
        return spans.get(name, (0, 0, 0))[0]

    def total_ns(name: str) -> int:
        return spans.get(name, (0, 0, 0))[1]

    def self_ns(*names: str) -> int:
        return sum(spans.get(name, (0, 0, 0))[2] for name in names)

    def count(name: str) -> int:
        return counters.get(name, 0)

    mutator_ops = sum(calls(name) for name in MUTATOR_SPANS)
    clean_calls = sum(calls(name) for name in CLEAN_PHASE_SPANS)
    full, fast, skipped = (
        count("gc.traces_full"),
        count("gc.traces_fast_path"),
        count("gc.traces_skipped"),
    )
    started = count("backtrace.started")
    verdicts = (
        count("backtrace.completed_garbage")
        + count("backtrace.completed_live")
        + count("backtrace.completed_timeout_live")
    )
    memo_hits = count("backinfo.union_memo_hits")
    cache_hits = count("backtrace.cache_hits")
    return {
        "sim.scheduler.events": events,
        "sim.scheduler.self_s": self_ns("sim.scheduler") / 1e9,
        "sim.scheduler.ns_per_event": _ratio(self_ns("sim.scheduler"), events),
        "net.network.send.calls": calls("net.network.send"),
        "net.network.send.self_s": self_ns("net.network.send") / 1e9,
        "net.network.send.ns_per_call": _ratio(
            self_ns("net.network.send"), calls("net.network.send")
        ),
        "net.network.msgs_dropped": count("messages.lost"),
        "site.site.receive.self_s": self_ns("site.site.receive") / 1e9,
        "site.site.send.self_s": self_ns("site.site.send") / 1e9,
        "site.site.dup_suppressed": sum(
            value
            for name, value in counters.items()
            if name.startswith("protocol.dup_suppressed.")
        ),
        "mutator.ops": mutator_ops,
        "mutator.self_s": self_ns(*MUTATOR_SPANS) / 1e9,
        "mutator.ns_per_op": _ratio(self_ns(*MUTATOR_SPANS), mutator_ops),
        "mutator.remove_ref.ns_per_call": _ratio(
            total_ns("mutator.remove_ref"), calls("mutator.remove_ref")
        ),
        "gc.localtrace.full": full,
        "gc.localtrace.fast": fast,
        "gc.localtrace.skipped": skipped,
        "gc.localtrace.skip_ratio": _ratio(skipped, full + fast + skipped),
        "gc.localtrace.plan.self_s": self_ns("gc.localtrace.plan") / 1e9,
        "gc.localtrace.compute.self_s": self_ns("gc.localtrace.compute") / 1e9,
        "gc.localtrace.commit.self_s": self_ns("gc.localtrace.commit") / 1e9,
        "core.distance.clean_phase.calls": clean_calls,
        "core.distance.clean_phase.self_s": self_ns(*CLEAN_PHASE_SPANS) / 1e9,
        "core.distance.clean_phase.ns_per_object_scanned": _ratio(
            self_ns(*CLEAN_PHASE_SPANS), count("gc.clean_objects_scanned")
        ),
        "core.distance.clean_phase.vector_calls": calls("core.distance.clean_phase.vector"),
        "core.backinfo.self_s": self_ns("core.backinfo") / 1e9,
        "core.backinfo.union_memo_hit_ratio": _ratio(
            memo_hits, memo_hits + count("backinfo.unions_computed")
        ),
        "store.heap.sweep.self_s": self_ns("store.heap.sweep") / 1e9,
        "core.collector.check_triggers.self_s": self_ns("core.collector.check_triggers") / 1e9,
        "core.backtrace.started": started,
        "core.backtrace.handlers.self_s": self_ns("core.backtrace.handlers") / 1e9,
        "core.backtrace.garbage_verdict_ratio": _ratio(
            count("backtrace.completed_garbage"), verdicts
        ),
        "core.backtrace.cache_hit_ratio": _ratio(cache_hits, cache_hits + started),
        "core.backtrace.timeouts": count("backtrace.frame_timeouts")
        + count("backtrace.outcome_timeouts"),
        "core.backtrace.iorefs_per_trace": _ratio(count("backtrace.iorefs_visited"), started),
        "gc.update.apply.self_s": self_ns("gc.update.apply") / 1e9,
        "gc.update.apply_delta.self_s": self_ns("gc.update.apply_delta") / 1e9,
        "gc.update.units_sent": count("units.UpdatePayload") + count("units.UpdateDeltaPayload"),
        "gc.update.retransmits": count("gc.update_retransmits"),
    }
