"""Self-tests of the benchmark: span arithmetic, reclaim latency, a smoke pass.

    PYTHONPATH=src python -m pytest perfbench

The smoke pass runs every workload traced and untraced on the held-out seed
and takes a few minutes.
"""

from __future__ import annotations

import gc
import json
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import GcConfig, Simulation, SimulationConfig  # noqa: E402
from repro.workloads.generators import build_ring_cycle  # noqa: E402

from perfbench import reclaim, tracing  # noqa: E402
from perfbench.run import reference_pass  # noqa: E402

HELD_OUT_SEED = 11

#: Per workload, per-layer metrics of the layers it exercises, which must
#: read above 0.  A wrapper that stops taking effect leaves its spans empty
#: and its metrics at 0.
EXERCISED = {
    "churn64": (
        "sim.scheduler.self_s",
        "net.network.send.calls",
        "net.network.send.self_s",
        "site.site.receive.self_s",
        "site.site.send.self_s",
        "mutator.ops",
        "mutator.remove_ref.ns_per_call",
        "gc.localtrace.compute.self_s",
        "core.distance.clean_phase.calls",
        "store.heap.sweep.self_s",
        "gc.update.units_sent",
        "bench.trace_overhead",
    ),
    "cycles32": (
        "sim.scheduler.self_s",
        "gc.localtrace.plan.self_s",
        "gc.localtrace.commit.self_s",
        "core.distance.clean_phase.calls",
        "core.backinfo.self_s",
        "core.collector.check_triggers.self_s",
        "core.backtrace.started",
        "core.backtrace.handlers.self_s",
        "store.heap.sweep.self_s",
        "gc.update.apply.self_s",
        "bench.trace_overhead",
    ),
    "churn64_2w": (
        "sim.scheduler.events",
        "sim.parallel.windows",
        "sim.parallel.commands",
        "sim.parallel.worker_cpu_s",
        "sim.parallel.work_inflation",
        "sim.parallel.sync_efficiency",
        "bench.trace_overhead",
    ),
}
#: Host figures every traced run reports.
HOST = ("bench.wall_s", "bench.events_per_s", "bench.ref_pass_ms")


def _recorder_with(spans):
    """A recorder holding ``(name, start, end, parent index)`` spans verbatim."""
    recorder = tracing.SpanRecorder()
    for name, start, end, parent in spans:
        recorder.name.append(recorder.name_id(name))
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
    return recorder


def test_reference_pass_sets_off_no_collection():
    # A collection in the pass would scan the simulation's objects and tie
    # the pass's time to the workload instead of the host.
    def collections() -> int:
        return sum(generation["collections"] for generation in gc.get_stats())

    gc.collect()
    before = collections()
    for _ in range(20):
        assert reference_pass() > 0
    assert collections() == before


def test_self_time_subtracts_direct_children_only():
    recorder = _recorder_with(
        [
            ("sim.scheduler", 0, 100, -1),
            # A Bundle: the outer receive calls receive once per inner payload.
            ("site.site.receive", 10, 60, 0),
            ("site.site.receive", 15, 25, 1),
            ("site.site.receive", 30, 45, 1),
            ("net.network.send", 35, 40, 3),
            ("net.network.send", 70, 80, 0),
        ]
    )
    spans = recorder.aggregate()
    assert spans["sim.scheduler"] == (1, 100, 40)
    # Outer 50 - 10 - 15 = 25, inner 10, inner 15 - 5 = 10.
    assert spans["site.site.receive"] == (3, 75, 45)
    assert spans["net.network.send"] == (2, 15, 15)
    assert sum(row[2] for row in spans.values()) == 100


def test_traced_bundles_nest_and_self_times_add_up():
    # A long deferral delay lets several control messages share a Bundle.
    config = SimulationConfig(seed=5, gc=GcConfig(defer_messages=True, defer_delay=60.0))
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        sim = Simulation.create(config)
        sim.add_sites(["A", "B", "C"])
        ring = build_ring_cycle(sim, ["A", "B", "C"])
        sim.scheduler.schedule_at(200.0, lambda: ring.make_garbage(sim), site="A")
        recorder.truncate()
        sim.run_for(2200)
    receive = recorder.name_id("site.site.receive")
    nested = [
        index
        for index in range(len(recorder))
        if recorder.name[index] == receive
        and recorder.parent[index] >= 0
        and recorder.name[recorder.parent[index]] == receive
    ]
    assert nested, "no Bundle delivery was traced"
    spans = recorder.aggregate()
    roots = [index for index in range(len(recorder)) if recorder.parent[index] < 0]
    root_time = sum(recorder.end[i] - recorder.start[i] for i in roots)
    assert sum(row[2] for row in spans.values()) == root_time
    assert [recorder.names[recorder.name[i]] for i in roots] == ["sim.scheduler"]
    # Every wrapper was removed again.
    from repro.site.site import Site

    assert not hasattr(Site.receive, "__wrapped__")


def test_settle_counts_floating_time_of_unreclaimed_objects():
    found = reclaim.settle({"a": 0.0, "b": 10.0}, {"a": 30.0}, end=100.0)
    assert found.latencies == [30.0]
    assert found.unreclaimed == 1
    assert found.float_mean == pytest.approx((30.0 + 90.0) / 100.0)


def _two_site_ring(cut_at):
    sim = Simulation.create(SimulationConfig(seed=2))
    sim.add_sites(["A", "B"])
    ring = build_ring_cycle(sim, ["A", "B"], objects_per_site=2)
    sim.scheduler.schedule_at(cut_at, lambda: ring.make_garbage(sim), site="A")
    return sim, ring


def test_ring_reclaim_latency_runs_from_cut_to_sweep():
    cut_at = 205.0
    sim, ring = _two_site_ring(cut_at)
    with reclaim.sweep_log(sim) as log:
        sim.run_for(3000)
    swept = reclaim.swept_at(log)
    assert set(ring.cycle) <= set(swept)
    found = reclaim.settle({oid: cut_at for oid in ring.cycle}, swept, sim.now)
    assert found.unreclaimed == 0
    assert found.latencies == sorted(swept[oid] - cut_at for oid in ring.cycle)
    assert all(latency > 0 for latency in found.latencies)


def test_sampled_births_land_within_half_a_sample_of_the_cut():
    cut_at = 205.0
    sim, ring = _two_site_ring(cut_at)
    with reclaim.sweep_log(sim) as log:
        run = reclaim.sampled_births(sim, 3000.0, log)
    exact = reclaim.settle({oid: cut_at for oid in ring.cycle}, reclaim.swept_at(log), sim.now)
    sampled = reclaim.settle(run.births, reclaim.swept_at(log), sim.now)
    assert set(run.births) == set(ring.cycle)
    for oid in ring.cycle:
        assert abs(run.births[oid] - cut_at) <= reclaim.SAMPLE_TICKS / 2
    assert len(sampled.latencies) == len(exact.latencies)


def session_processes(sid: int) -> list:
    """Processes, zombies included, in the session ``sid``."""
    found = []
    proc = Path("/proc")
    for entry in proc.iterdir() if proc.is_dir() else ():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:
            continue
        # After the parenthesised command: state, ppid, pgrp, session.
        if stat and int(stat[stat.rindex(")") + 2 :].split()[3]) == sid:
            found.append(stat[: stat.index(")") + 1])
    return found


def start_alone(args) -> subprocess.Popen:
    """Start ``args`` from the root as the leader of a new session.

    Its session id is its pid, and every process it starts stays in that
    session unless it is waited for.
    """
    return subprocess.Popen(
        args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def run_alone(args) -> subprocess.CompletedProcess:
    """Run ``args`` to the end; fail if any process it started outlives it."""
    with start_alone(args) as process:
        stdout, stderr = process.communicate(timeout=180)
    left = session_processes(process.pid)
    assert not left, f"processes outlived the run: {left}"
    return subprocess.CompletedProcess(args, process.returncode, stdout, stderr)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["churn64", "cycles32", "churn64_2w"])
def test_smoke_on_held_out_seed(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    spans = ROOT / ".bench_build" / f"spans-{workload}.pkl"
    if trace:
        spans.unlink(missing_ok=True)
    completed = run_alone(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(HELD_OUT_SEED),
            "--seconds",
            "0",
            "--trace",
            str(trace),
        ]
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, completed.stdout[-3000:]
    assert [name for name in result["metrics"]] == [metric["name"] for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if trace:
        for name in EXERCISED[workload] + HOST:
            assert result["metrics"][name]["value"] > 0, name
        dumped = pickle.loads(spans.read_bytes())
        assert "sim.scheduler" in dumped["names"]
        # Shard workers keep their spans, so a sharded run records none.
        assert bool(dumped["start"]) == (workload != "churn64_2w")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn64", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="reads sessions from /proc")
def test_terminated_run_stops_its_workers():
    with start_alone(
        [sys.executable, "perfbench/run.py", "--workload", "churn64_2w", "--seed",
         str(HELD_OUT_SEED), "--seconds", "0", "--trace", "0"]
    ) as process:
        # The run itself, the shared-memory tracker and two shard workers.
        deadline = time.monotonic() + 120
        while len(session_processes(process.pid)) < 4 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(session_processes(process.pid)) >= 4, "the workers never started"
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=60)
    assert process.returncode != 0
    assert not session_processes(process.pid)
