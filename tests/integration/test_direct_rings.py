"""Shard-to-shard rings: byte-identity and data-path accounting.

The sharded engine moves cross-shard records through per-ordered-pair SPSC
rings in shared memory; a record that does not fit its ring spills to the
coordinator pipes, and without shared memory every record spills.  Which
path a record takes must never change what executes: every run must be
byte-identical to the sequential engine -- same snapshots, same trace
outcomes, same merged metrics -- at any worker count, under a fault-plan
storm, with rings too small for a window's traffic, and with no arena at
all.  The accounting must also be airtight: every routed message is
counted exactly once (ring or spill), and the rings actually move the
payload traffic off the pipes.
"""

import json

import pytest

import repro.sim.parallel as parallel_mod
from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
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

STORM = (
    FaultPlan.loss(0.15, start=50.0, end=200.0)
    .merge(
        FaultPlan.duplication(0.2, copies=1, lag=10.0, start=50.0, end=200.0),
        FaultPlan.reorder_burst(0.3, delay=15.0, start=50.0, end=200.0),
    )
    .named("ring-storm")
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

    sim.run_for(1200.0)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(6):
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


_SEQUENTIAL = {}


def _sequential(seed, fault_plan=None):
    key = (seed, fault_plan is not None)
    if key not in _SEQUENTIAL:
        _SEQUENTIAL[key] = _run(1, seed, fault_plan)
    return _SEQUENTIAL[key]


def _assert_conserved(stats):
    # Every routed message took exactly one path, and every record on the
    # pipes is a spill.
    assert stats["cross_shard_messages"] == (
        stats["ring_messages"] + stats["ring_spills"]
    )
    assert stats["ring_spills"] == (
        stats["payloads_packed"] + stats["payloads_pickled"]
    )


def _assert_one_round_trip(stats, workers):
    # Every window, align and broadcast is one command to each worker and
    # every site call one command to its owner: ring read limits and
    # consumption confirmations ride those commands, never extra ones.
    assert stats["commands_sent"] == (
        (stats["windows"] + stats["aligns"] + stats["broadcasts"]) * workers
        + stats["site_calls"]
    )


def _no_arena(monkeypatch):
    # Where no shared memory can be created there are no rings: the same
    # window commands run without read limits and every record takes the
    # spill path through the coordinator pipes.
    monkeypatch.setattr(parallel_mod, "create_arena", lambda *a, **k: None)


@pytest.mark.parametrize("workers", [2, 4])
def test_ring_and_pipe_twins_are_byte_identical(workers, monkeypatch):
    seq_snap, seq_outcomes, seq_metrics, _ = _sequential(19)
    ringed = _run(workers, seed=19)
    _no_arena(monkeypatch)
    piped = _run(workers, seed=19)

    for snap, outcomes, metrics, _ in (ringed, piped):
        assert snap == seq_snap
        assert outcomes == seq_outcomes
        assert metrics == seq_metrics

    ring_stats, pipe_stats = ringed[3], piped[3]
    assert ring_stats["direct_rings"] == 1
    assert pipe_stats["direct_rings"] == 0
    # Exactly the same messages were routed, whichever path carried them.
    assert (
        ring_stats["cross_shard_messages"]
        == pipe_stats["cross_shard_messages"]
        > 0
    )
    _assert_conserved(ring_stats)
    _assert_conserved(pipe_stats)
    _assert_one_round_trip(ring_stats, workers)
    _assert_one_round_trip(pipe_stats, workers)
    # The rings actually carried the traffic, and the payload bytes moved
    # off the pipes with it: what remains on the pipe per window is the
    # command/reply framing, not record payloads.
    assert ring_stats["ring_messages"] > 0
    assert ring_stats["ring_bytes"] > 0
    assert ring_stats["payload_bytes"] < pipe_stats["payload_bytes"]
    # Without an arena nothing touches a ring: every record spilled.
    assert pipe_stats["arena_bytes"] == 0
    assert pipe_stats["ring_messages"] == 0
    assert pipe_stats["ring_bytes"] == 0
    assert pipe_stats["ring_spills"] == pipe_stats["cross_shard_messages"]


def test_chaos_storm_twins_across_data_paths(monkeypatch):
    seq_snap, seq_outcomes, _, _ = _sequential(23, STORM)
    for arena in (True, False):
        if not arena:
            _no_arena(monkeypatch)
        for workers in (2, 4):
            snap, outcomes, _, stats = _run(workers, seed=23, fault_plan=STORM)
            assert snap == seq_snap
            assert outcomes == seq_outcomes
            assert stats["windows"] > 0
            assert stats["direct_rings"] == int(arena)
            _assert_one_round_trip(stats, workers)


def _run_dense(workers, ring_bytes):
    """A deliberately chatty workload: frequent full updates over many
    interlocked cycles, dense churn -- enough traffic per window to overflow
    a minimum-size ring."""
    config = SimulationConfig(
        seed=37,
        gc=GcConfig(
            local_trace_period=20.0,
            local_trace_period_jitter=5.0,
            suspicion_threshold=2,
            assumed_cycle_length=2,
            back_threshold_increment=1,
            full_trace_every_n=2,
            full_update_period=1,
        ),
        network=NetworkConfig(**NETWORK),
        parallel_workers=workers,
        ring_bytes_per_pair=ring_bytes,
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    for offset in range(6):
        build_ring_cycle(sim, SITES[offset:] + SITES[:offset])
    churn = SiteChurn(sim, SITES, ChurnConfig(mean_interval=0.5))
    churn.start(until=300.0)
    sim.run_for(400.0)
    if isinstance(sim, ParallelSimulation) and sim.parallel_active:
        snapshot = json.dumps(sim.snapshot(), sort_keys=True)
        stats = sim.coordination_stats()
        sim.close()
    else:
        from repro.analysis.export import graph_snapshot

        snapshot = json.dumps(graph_snapshot(sim), sort_keys=True)
        stats = None
    return snapshot, stats


def test_tiny_rings_spill_to_the_pipe_and_stay_identical():
    # A ring too small for a window's worth of records forces the overflow
    # path: records spill to the coordinator pipes, and the run must still
    # be byte-identical -- the two paths are interchangeable per message.
    seq_snap, _ = _run_dense(1, 1024)
    for workers in (2, 4):
        snap, stats = _run_dense(workers, 1024)
        assert snap == seq_snap
        assert stats["ring_spills"] > 0
        assert stats["ring_messages"] > 0
        _assert_conserved(stats)


def test_snapshot_and_metrics_broadcasts_are_cached_between_advances():
    # Delta exports: polling the same quiescent state again must not
    # touch the workers at all -- the second snapshot()/merged_metrics()
    # pair is served from the version-gated cache.  Advancing the clock
    # bumps the state version and forces exactly one fresh broadcast each.
    config = SimulationConfig(
        seed=7,
        gc=GcConfig(**GC),
        network=NetworkConfig(**NETWORK),
        parallel_workers=2,
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    build_ring_cycle(sim, SITES[:4])
    sim.run_for(100.0)
    assert isinstance(sim, ParallelSimulation) and sim.parallel_active
    try:
        first_snap = sim.snapshot()
        first_metrics = dict(sim.merged_metrics()._counters)
        before = sim.coordination_stats()["broadcasts"]
        again_snap = sim.snapshot()
        again_metrics = dict(sim.merged_metrics()._counters)
        unchanged = sim.coordination_stats()["broadcasts"]
        # Identical answers, zero new broadcasts.
        assert again_snap == first_snap
        assert again_metrics == first_metrics
        assert unchanged == before
        # An advance invalidates both caches: one broadcast per export kind.
        sim.run_for(50.0)
        baseline = sim.coordination_stats()["broadcasts"]
        sim.snapshot()
        sim.merged_metrics()
        after_refresh = sim.coordination_stats()["broadcasts"]
        assert after_refresh == baseline + 2
        sim.snapshot()
        sim.merged_metrics()
        assert sim.coordination_stats()["broadcasts"] == after_refresh
    finally:
        sim.close()
