"""E16 (extension) -- Sharded parallel engine: equivalence and speedup.

The sharded engine (:mod:`repro.sim.parallel`) promises two things:

1. **Determinism** -- a parallel run is indistinguishable from a sequential
   run of the same seed: same final heaps, same inref/outref tables, same
   collection survivors.  This bench (and the integration tests) verify it
   by comparing full snapshots byte for byte.
2. **Speedup** -- with enough cores, partitioning 64 sites of churn +
   periodic GC across worker processes beats one scheduler.  Windows are
   widened by a larger ``min_latency`` (the conservative lookahead bound) so
   each coordinator round trip amortizes over many events.

Wall-clock speedup is only physically possible when the host actually has
cores to spare, so the speedup acceptance is gated on ``os.cpu_count()``;
the pinned JSON (BENCH_parallel_sim.json) records the host's core count
next to the numbers so they can be read honestly.
"""

import json
import os
import time

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.harness.report import Table
from repro.sim.parallel import ParallelSimulation
from repro.workloads import ChurnConfig, SiteChurn

N_SITES = 64
DURATION = 2000.0
# Wide lookahead windows: each safe-time round trip covers ~8 time units of
# events instead of ~1, amortizing the coordinator IPC.
NETWORK = dict(min_latency=8.0, max_latency=24.0, pair_rng_streams=True)
GC = dict(local_trace_period=150.0, local_trace_period_jitter=30.0)


def _build(workers, n_sites, seed=3, gc_features=None):
    config = SimulationConfig(
        seed=seed,
        network=NetworkConfig(**NETWORK),
        gc=GcConfig(**GC, **(gc_features or {})),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sites = [f"s{i:03d}" for i in range(n_sites)]
    sim.add_sites(sites, auto_gc=True)
    churn = SiteChurn(
        sim, sites, ChurnConfig(mean_interval=3.0, send_weight=2.5)
    )
    churn.start()
    return sim


def run_engine(workers, n_sites=N_SITES, duration=DURATION, seed=3, gc_features=None):
    """One timed run; returns wall time, event throughput, and the snapshot."""
    sim = _build(workers, n_sites, seed=seed, gc_features=gc_features)
    started = time.perf_counter()
    fired = sim.run_for(duration)
    wall_seconds = time.perf_counter() - started
    coordination = None
    if isinstance(sim, ParallelSimulation):
        final = sim.snapshot()
        metrics = sim.merged_metrics()
        if sim.parallel_active:
            coordination = sim.coordination_stats()
        sim.close()
    else:
        from repro.analysis.export import graph_snapshot

        final = graph_snapshot(sim)
        metrics = sim.metrics
    row = {
        "workers": workers,
        "events": fired,
        "wall_seconds": wall_seconds,
        "events_per_sec": fired / wall_seconds if wall_seconds > 0 else 0.0,
        "churn_ops": metrics.count("churn.ops"),
        "messages": metrics.count("messages.total"),
        "snapshot": final,
    }
    if coordination is not None:
        windows = max(1, coordination["windows"])
        row.update(
            windows=coordination["windows"],
            eot_jumps=coordination["eot_jumps"],
            quiescence_jumps=coordination["quiescence_jumps"],
            pipelined_windows=coordination["pipelined_windows"],
            msgs_per_window=coordination["cross_shard_messages"] / windows,
        )
    return row


def run_comparison(n_sites=N_SITES, duration=DURATION, worker_counts=(1, 2, 4)):
    return {
        workers: run_engine(workers, n_sites=n_sites, duration=duration)
        for workers in worker_counts
    }


# -- pytest entry points -----------------------------------------------------


def test_e16_parallel_matches_sequential(benchmark, record_table):
    """CI-sized twin run: 16 sites, 2 workers, identical final snapshot."""

    def run():
        return run_comparison(n_sites=16, duration=600.0, worker_counts=(1, 2))

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E16: sequential vs sharded engine (16 sites, 600 time units)",
        ["workers", "events", "events/s", "churn ops", "msgs", "wall (s)"],
    )
    for workers, row in sorted(stats.items()):
        table.add_row(
            workers,
            row["events"],
            f"{row['events_per_sec']:.0f}",
            row["churn_ops"],
            row["messages"],
            f"{row['wall_seconds']:.3f}",
        )
    record_table("e16_parallel_engine", table)

    # Determinism is the headline requirement: every engine, same state.
    assert stats[1]["snapshot"] == stats[2]["snapshot"]
    assert stats[1]["events"] == stats[2]["events"]
    assert stats[1]["churn_ops"] == stats[2]["churn_ops"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs >= 4 physical cores; equivalence is tested above",
)
def test_e16_parallel_speedup(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert stats[1]["snapshot"] == stats[4]["snapshot"]
    assert stats[4]["wall_seconds"] * 2.0 <= stats[1]["wall_seconds"]


if __name__ == "__main__":
    # Standalone mode: emit the comparison as JSON so the repo can pin the
    # headline numbers (see BENCH_parallel_sim.json).  ``--smoke`` runs a
    # shortened window for CI.
    import sys

    try:
        from .hostinfo import host_header
    except ImportError:
        from hostinfo import host_header

    smoke = "--smoke" in sys.argv
    n_sites = 16 if smoke else N_SITES
    if "--sites" in sys.argv:
        n_sites = int(sys.argv[sys.argv.index("--sites") + 1])
    duration = 400.0 if smoke else DURATION
    stats = run_comparison(n_sites=n_sites, duration=duration)
    # The sequential baseline above uses the flat-graph kernel (the default);
    # record the legacy set-based kernel next to it so the JSON separates
    # "how much the kernel buys" from "how much the workers buy".
    legacy_seq = run_engine(
        1, n_sites=n_sites, duration=duration, gc_features=dict(flat_kernel=False)
    )
    snapshots = [row.pop("snapshot") for row in stats.values()]
    legacy_snapshot = legacy_seq.pop("snapshot")
    results = {
        "sites": n_sites,
        "duration": duration,
        "host": host_header(),
        "snapshots_identical": all(s == snapshots[0] for s in snapshots)
        and legacy_snapshot == snapshots[0],
    }
    for workers, row in sorted(stats.items()):
        key = "sequential" if workers == 1 else f"workers_{workers}"
        results[key] = row
    results["sequential_legacy_kernel"] = legacy_seq
    if legacy_seq["wall_seconds"] > 0 and stats[1]["wall_seconds"] > 0:
        results["flat_kernel_speedup"] = (
            legacy_seq["wall_seconds"] / stats[1]["wall_seconds"]
        )
    for workers in (2, 4):
        if workers in stats and stats[workers]["wall_seconds"] > 0:
            results[f"speedup_{workers}x"] = (
                stats[1]["wall_seconds"] / stats[workers]["wall_seconds"]
            )
    json.dump(results, sys.stdout, indent=2)
    print()
    if not results["snapshots_identical"]:
        sys.exit(1)
