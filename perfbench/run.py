"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload churn64 --seed 3 --seconds 15 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of traced repetitions, timed
from outside around the layers' public functions (perfbench/tracing.py),
and the last traced repetition's spans go to
``.bench_build/spans-<workload>.pkl``.
The line before it describes the host and every repetition.
perfbench/README.md explains the workloads and metrics.

A run repeats the workload until ``--seconds`` of set-up and run time have
passed, with a fixed minimum of repetitions, and reports host times as
medians.  Each repetition runs its simulated interval in chunks, with a pass
of a fixed reference loop before every chunk and after the last; the
end-to-end times are given in those passes, so that the host's speed, which
drifts by tens of percent within seconds on a shared machine, cancels out.
It checks the program's outputs: a repetition whose checks fail counts as a
failed operation and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.hostinfo import host_header  # noqa: E402
from perfbench import reclaim, tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

#: Untraced repetitions every run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Untraced/traced pairs every traced run makes.
MIN_PAIRS = 1
#: Set-ups per run at least, and host seconds spent in them at least;
#: ``setup_s`` is their median.  A churn64 set-up takes milliseconds, so
#: the time floor buys it many more samples than the count alone.  A share
#: of the floor follows every repetition, so the samples span the run.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 0.25
#: Chunks each instance's simulated interval is run in, one reference pass
#: before each.
CHUNKS = 24
#: Plain sequential churn64 repetitions a traced churn64_2w run makes at
#: least, to compare the sharded engine against.
MIN_TWINS = 3
#: Where a traced run writes the spans of its last traced repetition.
SPANS_DIR = ROOT / ".bench_build"


class _Event:
    __slots__ = ("time", "seq", "kind", "payload")

    def __init__(self, time, seq, kind, payload):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload


class _Handler:
    def __init__(self):
        self.handled = 0
        self.last: Dict[int, int] = {}

    def handle(self, event: _Event) -> int:
        self.handled += 1
        self.last[event.seq % 997] = event.time
        return len(event.payload) + ((event.kind, event.seq % 64) in self.last)


#: What a reference pass keeps between iterations, made once: a pass
#: allocates only objects that die within their iteration, so it never
#: sets off a collection of the cyclic collector, whose cost would grow
#: with the simulation's heap and not with the host's speed.
_HANDLER = _Handler()
_QUEUE: List[int] = []
_KINDS = ("send", "deliver", "trace")


def reference_pass() -> float:
    """Host seconds of one pass of a fixed loop, about 10 ms on a 2020s CPU.

    A small event loop: slotted objects made and dropped, a heap, a method
    call, dict and tuple work, the interpreter work the simulator does most.
    The code is the benchmark's own, so no change to the program moves it.
    Of the loops tried, this one's time tracked the simulator's most closely.
    """
    _QUEUE.clear()
    started = time.perf_counter()
    for i in range(7000):
        event = _Event(i * 7919 % 10007, i, _KINDS[i % 3], (i, i + 1))
        heapq.heappush(_QUEUE, event.time)
        _HANDLER.handle(event)
        if len(_QUEUE) > 300:
            heapq.heappop(_QUEUE)
    return time.perf_counter() - started


class PyGcWatch:
    """The interpreter's cyclic collector, observed through ``gc.callbacks``."""

    def __init__(self):
        self.collections_gen2 = 0
        self.pause_ns = 0
        self._started = 0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter_ns()
            return
        self.pause_ns += time.perf_counter_ns() - self._started
        if info["generation"] == 2:
            self.collections_gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)


@dataclass
class Audit:
    """The sequential churn64 run in chunks, with oracle samples between them."""

    events: int
    digest: str
    counters: Dict[str, int]
    reclaim: reclaim.Reclaim


def nonzero(counters: Dict[str, int]) -> Dict[str, int]:
    return {name: value for name, value in counters.items() if value}


def summed(counters: List[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for one in counters:
        for name, value in one.items():
            total[name] = total.get(name, 0) + value
    return total


class Runner:
    """One run: repetitions of one workload, their checks and their metrics.

    Every repetition of a run does the same work: it builds and runs each
    instance of the seed (:func:`workloads.instance_seeds`) one after
    another and adds up their times, events and garbage.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reps: List[dict] = []
        self.setups: List[float] = []
        self.errors: List[str] = []
        self.audits = 0
        self.measured = 0.0

    def fail(self, label, errors: List[str]) -> None:
        self.errors.extend(f"{label}: {error}" for error in errors)

    # -- one repetition ---------------------------------------------------------

    def repetition(
        self, workload: Optional[str] = None, recorder: Optional[tracing.SpanRecorder] = None
    ) -> dict:
        """Build, run and check every instance once; with ``recorder``, traced."""
        workload = workload or self.workload
        row = {
            "rep": len(self.reps),
            "workload": workload,
            "traced": recorder is not None,
            "setup_s": 0.0,
            "wall_s": 0.0,
            "ref_s": [],
            "cpu_s": 0.0,
            "events": 0,
            "py_gc_collections_gen2": 0,
            "py_gc_pause_s": 0.0,
            "digests": [],
            "counters": [],
            "found": [],
        }
        if recorder is not None:
            recorder.truncate()
        children_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        for seed in wl.instance_seeds(workload, self.seed):
            self.run_instance(row, workload, seed, recorder)
        row["wall_refs"] = row["wall_s"] / statistics.fmean(row["ref_s"])
        if recorder is not None:
            row["spans"] = recorder.aggregate()
        if "coordination" in row:
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            row["worker_cpu_s"] = (children.ru_utime + children.ru_stime) - (
                children_0.ru_utime + children_0.ru_stime
            )
        self.measured += row["setup_s"] + row["wall_s"]
        self.reps.append(row)
        return row

    def run_instance(self, row: dict, workload: str, seed: int, recorder) -> None:
        label = f"rep {row['rep']}"
        # Earlier simulations are reference cycles: free them now, so that
        # no instance pays for its predecessor's garbage.
        gc.collect()
        mark = len(recorder) if recorder is not None else 0
        started = time.perf_counter()
        prepared = wl.build(workload, seed)
        row["setup_s"] += time.perf_counter() - started
        if recorder is not None:
            recorder.truncate(mark)
        sim = prepared.sim
        sweeps = reclaim.sweep_log(sim) if prepared.rings else contextlib.nullcontext()
        start = sim.now
        with sweeps as log, PyGcWatch() as watch:
            for chunk in range(1, CHUNKS + 1):
                row["ref_s"].append(reference_pass())
                end = start + prepared.duration * min(1.0, chunk / CHUNKS)
                cpu_0 = time.process_time()
                started = time.perf_counter()
                row["events"] += sim.run_until(end)
                row["wall_s"] += time.perf_counter() - started
                row["cpu_s"] += time.process_time() - cpu_0
            row["ref_s"].append(reference_pass())
        row["py_gc_collections_gen2"] += watch.collections_gen2
        row["py_gc_pause_s"] += watch.pause_ns / 1e9
        row["digests"].append(wl.snapshot_digest(sim))
        if hasattr(sim, "coordination_stats"):
            row["coordination"] = sim.coordination_stats()
            row["counters"].append(nonzero(sim.merged_metrics().snapshot().counters))
            prepared.close()
        else:
            row["counters"].append(nonzero(sim.metrics.snapshot().counters))
            self.fail(label, wl.accounting_errors(sim))
        if prepared.rings:
            self.fail(label, wl.safety_errors(sim) + wl.ring_errors(prepared))
            swept = reclaim.swept_at(log)
            row["found"].append(reclaim.settle(prepared.ring_births(), swept, sim.now))

    def setup_only(self) -> float:
        """Host seconds to build every instance once, without running them."""
        total = 0.0
        for seed in wl.instance_seeds(self.workload, self.seed):
            gc.collect()
            started = time.perf_counter()
            prepared = wl.build(self.workload, seed)
            total += time.perf_counter() - started
            prepared.close()
            del prepared
        return total

    def audit(self) -> Audit:
        """Sequential churn64 in chunks: the reference every churn repetition matches."""
        gc.collect()
        prepared = wl.build("churn64", self.seed)
        sim = prepared.sim
        with reclaim.sweep_log(sim) as log:
            run = reclaim.sampled_births(sim, prepared.duration, log)
        self.audits += 1
        self.fail("audit", wl.accounting_errors(sim) + wl.safety_errors(sim))
        return Audit(
            events=run.events,
            digest=wl.snapshot_digest(sim),
            counters=nonzero(sim.metrics.snapshot().counters),
            reclaim=reclaim.settle(run.births, reclaim.swept_at(log), sim.now),
        )

    def check_repeats(self, audit: Optional[Audit]) -> None:
        """Every repetition ends in one state: events, heaps and counters.

        On the churn workloads the reference is the chunked sequential audit,
        so this also checks that chunking fires the same events as one call
        and that the sharded engine matches its sequential twin.
        """
        if audit is not None:
            label, theirs = "audit", (audit.events, [audit.digest], [audit.counters])
        else:
            first = self.reps[0]
            label = f"rep {first['rep']}"
            theirs = (first["events"], first["digests"], first["counters"])
        for row in self.reps:
            mine = (row["events"], row["digests"], row["counters"])
            if mine[0] != theirs[0]:
                self.fail(f"rep {row['rep']}", [f"{mine[0]} events, {label} fired {theirs[0]}"])
            if mine[1] != theirs[1]:
                self.fail(f"rep {row['rep']}", [f"final heaps differ from {label}'s"])
            if mine[2] != theirs[2]:
                self.fail(f"rep {row['rep']}", [f"counters differ from {label}'s"])

    # -- whole runs -------------------------------------------------------------

    def enough(self, done: int, minimum: int) -> bool:
        return done >= minimum and self.measured >= self.seconds

    def setup_seconds(self) -> float:
        return sum(row["setup_s"] for row in self.reps) + sum(self.setups)

    def run_untraced(self) -> Dict[str, float]:
        while not self.enough(len(self.reps), MIN_REPS):
            self.repetition()
            floor = MIN_SETUP_SECONDS * min(1.0, len(self.reps) / MIN_REPS)
            while self.setup_seconds() < floor:
                self.setups.append(self.setup_only())
        while (
            len(self.reps) + len(self.setups) < MIN_SETUPS
            or self.setup_seconds() < MIN_SETUP_SECONDS
        ):
            self.setups.append(self.setup_only())
        # Peaks are read before the audit, which runs in this process too.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload == "churn64_2w":
            peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        audit = None if self.workload == "cycles32" else self.audit()
        self.check_repeats(audit)
        return self.end_to_end(peak_kb / 1024.0, audit)

    def run_traced(self) -> Dict[str, float]:
        recorder = tracing.SpanRecorder()
        pairs = []
        while not self.enough(len(pairs), MIN_PAIRS):
            plain = self.repetition()
            with tracing.traced(recorder):
                traced = self.repetition(recorder=recorder)
            pairs.append((plain, traced))
        SPANS_DIR.mkdir(exist_ok=True)
        recorder.dump(SPANS_DIR / f"spans-{self.workload}.pkl")
        twins = []
        if self.workload == "churn64_2w":
            twins = [self.repetition("churn64") for _ in range(max(len(pairs), MIN_TWINS))]
        audit = None if self.workload == "cycles32" else self.audit()
        self.check_repeats(audit)
        return self.per_layer(pairs, twins)

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float, audit: Optional[Audit]) -> Dict[str, float]:
        if audit is not None:
            found, counters = audit.reclaim, audit.counters
        else:
            first = self.reps[0]
            found, counters = pool(first["found"]), summed(first["counters"])
        swept = counters.get("gc.objects_swept", 0)
        return {
            "wall_refs": statistics.median(row["wall_refs"] for row in self.reps),
            "events_per_ref": statistics.median(
                row["events"] / row["wall_refs"] for row in self.reps
            ),
            "setup_s": statistics.median([row["setup_s"] for row in self.reps] + self.setups),
            "peak_rss_mb": peak_rss_mb,
            "reclaim_p50_ticks": found.p50(),
            "reclaim_p95_ticks": found.p95(),
            "float_garbage_objs_mean": found.float_mean,
            "reclaimed_frac": len(found.latencies) / found.garbage,
            "gc_units_per_reclaimed": wl.gc_units(counters) / swept,
        }

    def per_layer(self, pairs, twins: List[dict]) -> Dict[str, float]:
        plain = [plain for plain, _ in pairs]
        plain_wall = statistics.median(row["wall_s"] for row in plain)
        # The traced repetition with the median wall time stands for the run.
        traced = sorted((traced for _, traced in pairs), key=lambda row: row["wall_s"])[
            len(pairs) // 2
        ]
        metrics = tracing.layer_metrics(
            traced["spans"], summed(traced["counters"]), traced["events"]
        )
        pause = statistics.median(row["py_gc_pause_s"] for row in plain)
        metrics["py.gc.collections_gen2"] = statistics.median(
            row["py_gc_collections_gen2"] for row in plain
        )
        metrics["py.gc.pause_s"] = pause
        metrics["py.gc.pause_share"] = pause / plain_wall
        metrics["bench.trace_overhead"] = statistics.median(
            traced["wall_refs"] for _, traced in pairs
        ) / statistics.median(row["wall_refs"] for row in plain)
        metrics["bench.wall_s"] = plain_wall
        metrics["bench.events_per_s"] = statistics.median(
            row["events"] / row["wall_s"] for row in plain
        )
        metrics["bench.ref_pass_ms"] = 1000 * statistics.median(
            ref for row in plain for ref in row["ref_s"]
        )
        metrics.update(parallel_metrics(plain, twins))
        return metrics


def pool(found: List[reclaim.Reclaim]) -> reclaim.Reclaim:
    """Several instances' reclaim latencies as one sample."""
    return reclaim.Reclaim(
        sorted(latency for one in found for latency in one.latencies),
        sum(one.unreclaimed for one in found),
        statistics.fmean(one.float_mean for one in found),
    )


PARALLEL_METRICS = (
    "windows",
    "msgs_per_window",
    "ring_bytes",
    "ring_spills",
    "pipe_bytes",
    "commands",
    "coordinator_cpu_s",
    "worker_cpu_s",
    "work_inflation",
    "sync_efficiency",
)


def parallel_metrics(plain: List[dict], twins: List[dict]) -> Dict[str, float]:
    """The sharded engine's coordination, from the untraced repetitions.

    ``work_inflation`` divides the workers' CPU by the sequential engine's;
    ``sync_efficiency`` divides the sequential wall time by two workers
    times the sharded wall time.  Both sides are medians over plain,
    chunked repetitions: ``plain`` on the sharded engine and ``twins``
    of churn64 on the sequential one.  Sequential workloads report zeros.
    """
    if "coordination" not in plain[0]:
        return {f"sim.parallel.{name}": 0 for name in PARALLEL_METRICS}
    stats = plain[len(plain) // 2]["coordination"]
    worker_cpu = statistics.median(row["worker_cpu_s"] for row in plain)
    wall = statistics.median(row["wall_s"] for row in plain)
    return {
        "sim.parallel.windows": stats["windows"],
        "sim.parallel.msgs_per_window": stats["cross_shard_messages"] / max(1, stats["windows"]),
        "sim.parallel.ring_bytes": stats["ring_bytes"],
        "sim.parallel.ring_spills": stats["ring_spills"],
        "sim.parallel.pipe_bytes": stats["bytes_sent"] + stats["bytes_recv"],
        "sim.parallel.commands": stats["commands_sent"],
        "sim.parallel.coordinator_cpu_s": statistics.median(row["cpu_s"] for row in plain),
        "sim.parallel.worker_cpu_s": worker_cpu,
        "sim.parallel.work_inflation": worker_cpu
        / statistics.median(row["cpu_s"] for row in twins),
        "sim.parallel.sync_efficiency": statistics.median(row["wall_s"] for row in twins)
        / (2 * wall),
    }


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Shard workers are stopped when their simulation closes; any left by a
    run that failed part way are terminated here.  The shared-memory
    segments of the sharded engine start the interpreter's resource
    tracker, a process that would otherwise outlive the run; it exits once
    the last copy of its pipe is closed, so it is stopped after the workers.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None:
        tracker._stop()


def main(argv=None) -> int:
    main_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != main_pid:  # a forked shard worker: just go
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    host = host_header()
    runner = Runner(args.workload, args.seed, args.seconds)
    values = runner.run_traced() if args.trace else runner.run_untraced()
    skip = ("counters", "found", "spans", "coordination", "ref_s")
    print(
        json.dumps(
            {
                "host": host,
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "reps": [{k: v for k, v in row.items() if k not in skip} for row in runner.reps],
                "setups_s": runner.setups,
                "errors": runner.errors,
            }
        )
    )
    failed = {error.split(":")[0] for error in runner.errors}
    result = {
        "correct": not runner.errors,
        "attempted": len(runner.reps) + runner.audits,
        "failed": len(failed),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
