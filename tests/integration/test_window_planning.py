"""Demand-driven window planning: byte-identity and planner behaviour.

Window boundaries decide how often the coordinator synchronizes, never what
executes -- so the demand planner (EOT advertisement + quiescence jumps +
pipelined dispatch) must be byte-identical to the sequential engine, on the
same seed, at any worker count, with or without a fault-plan storm.  These
tests run both engines over an e13-shaped workload (churn burst, quiet
tail, explicit GC rounds) and compare full snapshots, trace outcomes, and
merged metrics; they also check the planner actually earned its keep:
windows that jumped past the fixed step ``horizon + min_latency``, and
fewer windows than the retired fixed-step planner needed on the same runs.
"""

import json

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.metrics import names
from repro.net.faults import FaultPlan
from repro.sim.parallel import ParallelSimulation
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

SITES = [f"s{i:02d}" for i in range(12)]
CHURN_UNTIL = 250.0
GC = dict(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
    full_trace_every_n=6,
    full_update_period=3,
)
NETWORK = dict(min_latency=5.0, max_latency=20.0, pair_rng_streams=True)
#: Windows the fixed-step planner (``horizon + min_latency`` each round)
#: planned for the seed-17 scenario, per worker count, measured at commit
#: 851fc55 before that planner was removed.
FIXED_STEP_WINDOWS = {2: 225, 4: 225}

STORM = (
    FaultPlan.loss(0.15, start=50.0, end=200.0)
    .merge(
        FaultPlan.duplication(0.2, copies=1, lag=10.0, start=50.0, end=200.0),
        FaultPlan.reorder_burst(0.3, delay=15.0, start=50.0, end=200.0),
    )
    .named("planner-storm")
)


def _run(workers, seed, fault_plan=None):
    """One full scenario; returns (snapshot_json, outcomes, metrics, stats)."""
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(**GC),
        network=NetworkConfig(**NETWORK),
        parallel_workers=workers,
    )
    sim = Simulation.create(config, fault_plan=fault_plan)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:4])
    churn = SiteChurn(sim, SITES, ChurnConfig(mean_interval=4.0))
    churn.start(until=CHURN_UNTIL)

    # Churn burst, then a quiet tail long enough for the collectors to reach
    # their quiet full-trace state (full_trace_every_n=6 at period ~100 means
    # the look-through only pays off ~600 time units after churn stops).
    sim.run_for(2000.0)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(8):
        sim.run_gc_round()
    sim.settle(quiet_time=30.0, max_rounds=3000)

    if isinstance(sim, ParallelSimulation) and sim.parallel_active:
        snapshot = json.dumps(sim.snapshot(), sort_keys=True)
        outcomes = sim.trace_outcomes
        metrics = dict(sim.merged_metrics()._counters)
        stats = sim.coordination_stats()
        sim.close()
    else:
        from repro.analysis.export import graph_snapshot

        snapshot = json.dumps(graph_snapshot(sim), sort_keys=True)
        outcomes = sim.trace_outcomes
        metrics = {k: v for k, v in sim.metrics._counters.items() if v}
        stats = None
    return snapshot, outcomes, metrics, stats


@pytest.mark.parametrize("workers", [2, 4])
def test_demand_fixed_and_sequential_are_byte_identical(workers):
    seq_snap, seq_outcomes, seq_metrics, _ = _run(1, seed=17)
    snap, outcomes, metrics, stats = _run(workers, seed=17)
    assert snap == seq_snap
    assert outcomes == seq_outcomes
    assert metrics == seq_metrics
    # The workload has a quiet tail: the planner must actually plan fewer
    # rounds than the fixed step did, by jumping past it, and overlap some
    # dispatches with draining.
    assert stats["windows"] < FIXED_STEP_WINDOWS[workers]
    assert stats["eot_jumps"] + stats["quiescence_jumps"] > 0
    assert stats["pipelined_windows"] > 0


def test_chaos_storm_demand_planner_is_byte_identical():
    seq_snap, seq_outcomes, _, _ = _run(1, seed=29, fault_plan=STORM)
    for workers in (2, 4):
        snap, outcomes, _, stats = _run(workers, seed=29, fault_plan=STORM)
        assert snap == seq_snap
        assert outcomes == seq_outcomes
        assert stats["windows"] > 0


def test_coordination_metrics_facade_mirrors_stats():
    config = SimulationConfig(
        seed=5,
        gc=GcConfig(**GC),
        network=NetworkConfig(**NETWORK),
        parallel_workers=2,
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    sim.run_for(150.0)
    stats = sim.coordination_stats()
    recorder = sim.coordination_metrics()
    merged = sim.merged_metrics()
    sim.close()

    assert recorder.count(names.PAR_WINDOWS) == stats["windows"]
    assert recorder.count(names.PAR_ALIGNS) == stats["aligns"]
    assert recorder.count(names.PAR_EOT_JUMPS) == stats["eot_jumps"]
    assert (
        recorder.count(names.PAR_QUIESCENCE_JUMPS)
        == stats["quiescence_jumps"]
    )
    assert (
        recorder.count(names.PAR_PIPELINED_WINDOWS)
        == stats["pipelined_windows"]
    )
    assert (
        recorder.count(names.PAR_CROSS_SHARD_MESSAGES)
        == stats["cross_shard_messages"]
    )
    # The coordination counters must never leak into the simulation's own
    # metrics -- merged metrics stay comparable to the sequential twin's.
    assert not any(
        name.startswith("parallel.") for name in merged._counters
    )
