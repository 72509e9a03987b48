"""E19 (extension) -- Persistent pool, packed wire, shared arena.

Two claims about the parallel data plane, measured separately:

1. **Throughput at scale** -- 256 sites of churn + auto GC sharded over a
   persistent worker pool.  With >= 4 physical cores the 4-worker run must
   finish in at most half the sequential wall time (the assertion is gated
   on ``os.cpu_count()``; the JSON records whatever the host produced).
2. **Coordination overhead** -- the packed wire against the pickled-list
   baseline on an identical workload.  That baseline is no longer in the
   engine; its counts are pinned in :data:`PICKLED_BASELINE`.  The packed
   side runs without a shared arena, so there are no rings and every
   cross-shard record crosses a worker pipe through the packer.  Counted
   on the coordinator side of every worker pipe: messages still pickled
   per window (the hot payload kinds all pack, so this should drop to
   zero) and cross-shard payload bytes per window.  This half is
   meaningful even on a 1-core host -- the bytes cross the pipes
   regardless of physical parallelism.

Standalone mode emits the combined BENCH_parallel_sim.json document (host
header + the regenerated E16 segment + this E19 segment):

    PYTHONPATH=src python benchmarks/bench_e19_persistent_pool.py > BENCH_parallel_sim.json

``--smoke`` shrinks every segment for CI; ``--sites N`` overrides the
throughput site count.  The regenerated document also carries
window-planner scale points (256 and 1024 sites, against the fixed-step
planner's pinned window counts), the E20 window-planning segment, the E21
direct-ring segment, and the E23 per-event hot-path segment.
"""

import os
import time
from unittest import mock

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.harness.report import Table
from repro.sim import parallel
from repro.workloads import ChurnConfig, SiteChurn

try:  # package-relative when imported by pytest, flat when run standalone
    from .hostinfo import host_header
except ImportError:  # pragma: no cover
    from hostinfo import host_header

N_SITES = 256
DURATION = 600.0
NETWORK = dict(min_latency=8.0, max_latency=24.0, pair_rng_streams=True)
GC = dict(local_trace_period=150.0, local_trace_period_jitter=30.0)

OVERHEAD_SITES = 64
OVERHEAD_DURATION = 400.0
OVERHEAD_WORKERS = 4

#: The pickled-list data path (no packed wire, arena or rings) on the
#: overhead workload (4 workers, seed 5), by (sites, duration): (16, 200)
#: is the smoke run, (16, 300) the pytest run, (64, 400) the full one.
#: Measured at commit 851fc55, the last one with that path.
PICKLED_BASELINE = {
    (16, 200.0): {
        "windows": 25,
        "pickled_msgs_per_window": 25.0,
        "payload_bytes_per_window": 2182.48,
    },
    (16, 300.0): {
        "windows": 38,
        "pickled_msgs_per_window": 22.973684210526315,
        "payload_bytes_per_window": 2089.3947368421054,
    },
    (64, 400.0): {
        "windows": 50,
        "pickled_msgs_per_window": 131.66,
        "payload_bytes_per_window": 8889.68,
    },
}

#: Windows the fixed-step planner (``horizon + min_latency`` every round)
#: needed at each planner scale point (4 workers, seed 3), by (sites,
#: duration): (64, 400) is the smoke point.  Measured at commit 851fc55,
#: the last one with that planner.
FIXED_STEP_WINDOWS = {(64, 400.0): 38, (256, 1200.0): 117, (1024, 600.0): 59}


def _build(workers, n_sites, seed=3, churn_until=None):
    config = SimulationConfig(
        seed=seed,
        network=NetworkConfig(**NETWORK),
        gc=GcConfig(**GC),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sites = [f"s{i:04d}" for i in range(n_sites)]
    sim.add_sites(sites, auto_gc=True)
    churn = SiteChurn(
        sim, sites, ChurnConfig(mean_interval=3.0, send_weight=2.5)
    )
    churn.start(until=churn_until)
    return sim


def run_throughput(workers, n_sites=N_SITES, duration=DURATION, seed=3):
    """One timed run on the persistent pool; snapshot proves the twin."""
    sim = _build(workers, n_sites, seed=seed)
    started = time.perf_counter()
    fired = sim.run_for(duration)
    wall_seconds = time.perf_counter() - started
    parallel = hasattr(sim, "coordination_stats")
    row = {
        "workers": workers,
        "events": fired,
        "wall_seconds": wall_seconds,
        "events_per_sec": fired / wall_seconds if wall_seconds > 0 else 0.0,
        "total_objects": sim.total_objects(),
    }
    if parallel and sim.parallel_active:
        stats = sim.coordination_stats()
        row["windows"] = stats["windows"]
        row["eot_jumps"] = stats["eot_jumps"]
        row["quiescence_jumps"] = stats["quiescence_jumps"]
        row["pipelined_windows"] = stats["pipelined_windows"]
        row["cross_shard_messages"] = stats["cross_shard_messages"]
        row["msgs_per_window"] = stats["cross_shard_messages"] / max(
            1, stats["windows"]
        )
        snap = sim.snapshot()
        sim.close()
    else:
        from repro.analysis.export import graph_snapshot

        snap = graph_snapshot(sim)
    row["snapshot"] = snap
    return row


def run_throughput_comparison(
    n_sites=N_SITES, duration=DURATION, worker_counts=(1, 2, 4)
):
    rows = {
        workers: run_throughput(workers, n_sites=n_sites, duration=duration)
        for workers in worker_counts
    }
    snapshots = [row.pop("snapshot") for row in rows.values()]
    results = {
        "sites": n_sites,
        "duration": duration,
        "snapshots_identical": all(s == snapshots[0] for s in snapshots),
    }
    for workers, row in sorted(rows.items()):
        key = "sequential" if workers == 1 else f"workers_{workers}"
        results[key] = row
    base = rows[1]["wall_seconds"]
    for workers in worker_counts:
        if workers != 1 and rows[workers]["wall_seconds"] > 0:
            results[f"speedup_{workers}x"] = (
                base / rows[workers]["wall_seconds"]
            )
    return results


def run_overhead(n_sites=OVERHEAD_SITES, duration=OVERHEAD_DURATION, seed=5):
    """Per-window coordination cost of the packed wire on the pipes.

    Runs without a shared arena, hence without rings: every cross-shard
    record spills through the pipe packer, which is what the pinned
    pickled-list baseline is compared against.  Ring traffic is priced
    separately in bench_e21_direct_rings.
    """
    with mock.patch.object(parallel, "create_arena", lambda *a, **k: None):
        sim = _build(OVERHEAD_WORKERS, n_sites, seed=seed)
        sim.run_for(duration)
    stats = sim.coordination_stats()
    snap = sim.snapshot()
    sim.close()
    windows = max(1, stats["windows"])
    return {
        "mode": "packed_pipe",
        "windows": stats["windows"],
        "cross_shard_messages": stats["cross_shard_messages"],
        "ring_spills": stats["ring_spills"],
        "payloads_packed": stats["payloads_packed"],
        "payloads_pickled": stats["payloads_pickled"],
        "pickled_msgs_per_window": stats["payloads_pickled"] / windows,
        "payload_bytes": stats["payload_bytes"],
        "payload_bytes_per_window": stats["payload_bytes"] / windows,
        "pipe_bytes_total": stats["bytes_sent"] + stats["bytes_recv"],
        "pipe_bytes_per_window": (stats["bytes_sent"] + stats["bytes_recv"])
        / windows,
        "snapshot": snap,
    }


def _sequential_snapshot(n_sites, duration, seed, churn_until=None):
    from repro.analysis.export import graph_snapshot

    sim = _build(1, n_sites, seed=seed, churn_until=churn_until)
    sim.run_for(duration)
    return graph_snapshot(sim)


def run_overhead_comparison(n_sites=OVERHEAD_SITES, duration=OVERHEAD_DURATION):
    packed = run_overhead(n_sites=n_sites, duration=duration)
    legacy = dict(PICKLED_BASELINE[(n_sites, duration)], pinned_at="851fc55")
    identical = packed.pop("snapshot") == _sequential_snapshot(
        n_sites, duration, seed=5
    )
    results = {
        "sites": n_sites,
        "duration": duration,
        "workers": OVERHEAD_WORKERS,
        "snapshots_identical": identical,
        "packed": packed,
        "legacy": legacy,
        # Every record crossed the pipe packer, so the pickled count
        # below covers all of them.
        "all_records_spilled": (
            packed["ring_spills"] == packed["cross_shard_messages"] > 0
        ),
    }
    # The ">= 5x drop" acceptance rides on messages still pickled per
    # window: the packed wire encodes every hot payload kind, so this goes
    # to ~zero (null ratio = nothing left to divide by).
    if packed["pickled_msgs_per_window"] > 0:
        results["pickled_msgs_per_window_drop"] = (
            legacy["pickled_msgs_per_window"] / packed["pickled_msgs_per_window"]
        )
    else:
        results["pickled_msgs_per_window_drop"] = None
    results["pickled_msgs_drop_at_least_5x"] = (
        packed["pickled_msgs_per_window"] == 0
        or results["pickled_msgs_per_window_drop"] >= 5.0
    )
    if packed["payload_bytes_per_window"] > 0:
        results["payload_bytes_per_window_drop"] = (
            legacy["payload_bytes_per_window"]
            / packed["payload_bytes_per_window"]
        )
    return results


def run_scale_point(n_sites, duration, workers=4, seed=3):
    """Demand window planning at one site-count scale, vs the fixed step.

    An e13-style steady state: churn for the first quarter of the run, then
    a quiet tail of periodic GC -- the regime the demand planner exists
    for.  Only window/jump counters are compared, against the fixed-step
    planner's pinned window count, plus the sequential twin's snapshot;
    wall time is recorded for honesty, never asserted.
    """
    churn_until = duration / 4.0
    sim = _build(workers, n_sites, seed=seed, churn_until=churn_until)
    started = time.perf_counter()
    fired = sim.run_for(duration)
    wall_seconds = time.perf_counter() - started
    stats = sim.coordination_stats()
    snap = sim.snapshot()
    sim.close()
    windows = max(1, stats["windows"])
    demand = {
        "events": fired,
        "wall_seconds": wall_seconds,
        "windows": stats["windows"],
        "eot_jumps": stats["eot_jumps"],
        "quiescence_jumps": stats["quiescence_jumps"],
        "pipelined_windows": stats["pipelined_windows"],
        "cross_shard_messages": stats["cross_shard_messages"],
        "msgs_per_window": stats["cross_shard_messages"] / windows,
    }
    fixed_windows = FIXED_STEP_WINDOWS[(n_sites, duration)]
    identical = snap == _sequential_snapshot(
        n_sites, duration, seed, churn_until=churn_until
    )
    return {
        "sites": n_sites,
        "duration": duration,
        "workers": workers,
        "churn_until": churn_until,
        "snapshots_identical": identical,
        "window_reduction": fixed_windows / windows,
        "fixed": {"windows": fixed_windows, "pinned_at": "851fc55"},
        "demand": demand,
    }


# -- pytest entry points -----------------------------------------------------


def test_e19_overhead_drop(benchmark, record_table):
    """CI-sized comparison with the pinned pickled baseline; twin + overhead."""

    def run():
        return run_overhead_comparison(n_sites=16, duration=300.0)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E19: coordination overhead per window (16 sites, 4 workers, no rings)",
        ["mode", "windows", "msgs", "pickled/win", "payload B/win", "pipe B/win"],
    )
    row = results["packed"]
    table.add_row(
        row["mode"],
        row["windows"],
        row["cross_shard_messages"],
        f"{row['pickled_msgs_per_window']:.2f}",
        f"{row['payload_bytes_per_window']:.0f}",
        f"{row['pipe_bytes_per_window']:.0f}",
    )
    row = results["legacy"]
    table.add_row(
        "legacy_pickled_lists (pinned)",
        row["windows"],
        "",
        f"{row['pickled_msgs_per_window']:.2f}",
        f"{row['payload_bytes_per_window']:.0f}",
        "",
    )
    record_table("e19_persistent_pool", table)

    assert results["snapshots_identical"]
    assert results["all_records_spilled"]
    assert results["pickled_msgs_drop_at_least_5x"]
    assert results["packed"]["payloads_pickled"] == 0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs >= 4 physical cores; overhead is measured above",
)
def test_e19_speedup_at_256_sites(benchmark):
    results = benchmark.pedantic(
        run_throughput_comparison, rounds=1, iterations=1
    )
    assert results["snapshots_identical"]
    assert results["speedup_4x"] >= 2.0


REGRESSION_TOLERANCE = 0.20


def _check_regression(results):
    """Warn (never fail) when a headline ratio degrades vs the committed
    BENCH_parallel_sim.json.

    Pure protocol ratios (byte and window-count drops) compare across
    scales; wall-clock speedups only against a baseline produced at the
    same scale (``smoke`` flag match), since the ratio depends on how much
    work each window amortizes.
    """
    import json
    import os
    import sys

    path = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_parallel_sim.json"
    )
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError):
        print("regression check: no readable BENCH_parallel_sim.json; skipping", file=sys.stderr)
        return
    scale_matched = results.get("smoke") == baseline.get("smoke")

    def segment_key(doc, segment, *keys):
        node = doc.get(segment, {})
        for key in keys:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        return node if isinstance(node, (int, float)) else None

    checks = [
        (
            "e19.payload_bytes_per_window_drop",
            ("e19", "coordination_overhead", "payload_bytes_per_window_drop"),
            True,
        ),
        ("e19.speedup_4x", ("e19", "throughput", "speedup_4x"), scale_matched),
        ("e20.window_reduction", ("e20", "window_reduction"), scale_matched),
        ("e21.delta_poll_traffic_drop", ("e21", "delta_poll_traffic_drop"), True),
        ("e21.pipe_bytes_drop", ("e21", "pipe_bytes_drop"), True),
        ("e21.speedup_4x", ("e21", "speedup_4x"), scale_matched),
        (
            "e23.ping_storm_speedup",
            ("e23", "ping_storm", "events_per_sec_speedup"),
            scale_matched,
        ),
    ]
    for label, keys, comparable in checks:
        if not comparable:
            print(f"regression check: {label} skipped (scale mismatch vs baseline)", file=sys.stderr)
            continue
        base = segment_key(baseline, *keys)
        cur = segment_key(results, *keys)
        if not base or not cur:
            continue
        if cur < base * (1.0 - REGRESSION_TOLERANCE):
            print(
                f"WARNING: {label} regressed >20%: {cur:.3f} "
                f"vs baseline {base:.3f}"
            , file=sys.stderr)
        else:
            print(
                f"regression check: {label} ok ({cur:.3f} "
                f"vs baseline {base:.3f})"
            , file=sys.stderr)


if __name__ == "__main__":
    # Standalone mode: regenerate the whole BENCH_parallel_sim.json --
    # host header, the E16 segment (engine comparison at 64 sites), the
    # E19 segment (persistent pool + overhead, plus 256- and 1024-site
    # planner scale points), the E20 segment (window planning), the E21
    # segment (direct rings + delta exports), and the E23 segment (per-event
    # hot path vs the frozen legacy engine).  ``--sites N`` overrides
    # the throughput site count; ``--check-regression`` compares headline
    # ratios (warn-only) against the committed document.
    import json
    import sys

    import bench_e16_parallel_speedup as e16
    import bench_e20_window_planning as e20
    import bench_e21_direct_rings as e21
    import bench_e23_hot_path as e23

    smoke = "--smoke" in sys.argv
    sites_override = (
        int(sys.argv[sys.argv.index("--sites") + 1])
        if "--sites" in sys.argv
        else None
    )
    e16_stats = e16.run_comparison(
        n_sites=16 if smoke else e16.N_SITES,
        duration=400.0 if smoke else e16.DURATION,
    )
    e16_snapshots = [row.pop("snapshot") for row in e16_stats.values()]
    e16_segment = {
        "sites": 16 if smoke else e16.N_SITES,
        "duration": 400.0 if smoke else e16.DURATION,
        "snapshots_identical": all(s == e16_snapshots[0] for s in e16_snapshots),
    }
    for workers, row in sorted(e16_stats.items()):
        key = "sequential" if workers == 1 else f"workers_{workers}"
        e16_segment[key] = row
    for workers in (2, 4):
        if workers in e16_stats and e16_stats[workers]["wall_seconds"] > 0:
            e16_segment[f"speedup_{workers}x"] = (
                e16_stats[1]["wall_seconds"] / e16_stats[workers]["wall_seconds"]
            )

    e19_segment = {
        "throughput": run_throughput_comparison(
            n_sites=sites_override or (32 if smoke else N_SITES),
            duration=300.0 if smoke else DURATION,
        ),
        "coordination_overhead": run_overhead_comparison(
            n_sites=16 if smoke else OVERHEAD_SITES,
            duration=200.0 if smoke else OVERHEAD_DURATION,
        ),
        "planner_scale_points": [
            run_scale_point(n_sites, duration)
            for n_sites, duration in (
                ((64, 400.0),) if smoke else ((256, 1200.0), (1024, 600.0))
            )
        ],
    }

    e20_segment = e20.run_comparison(
        duration=6000.0 if smoke else e20.DURATION
    )

    e21_segment = e21.run_comparison(
        duration=1000.0 if smoke else e21.DURATION
    )

    e23_segment = e23.run_segment(smoke=smoke)

    results = {
        "host": host_header(),
        "smoke": smoke,
        "e16": e16_segment,
        "e19": e19_segment,
        "e20": e20_segment,
        "e21": e21_segment,
        "e23": e23_segment,
    }
    json.dump(results, sys.stdout, indent=2)
    print()
    if "--check-regression" in sys.argv:
        _check_regression(results)
    ok = (
        e16_segment["snapshots_identical"]
        and e19_segment["throughput"]["snapshots_identical"]
        and e19_segment["coordination_overhead"]["snapshots_identical"]
        and e19_segment["coordination_overhead"]["all_records_spilled"]
        and e19_segment["coordination_overhead"]["pickled_msgs_drop_at_least_5x"]
        and all(
            point["snapshots_identical"]
            for point in e19_segment["planner_scale_points"]
        )
        and e20_segment["snapshots_identical"]
        and e20_segment["window_reduction"] >= (4.0 if smoke else 5.0)
        and e21_segment["snapshots_identical"]
        and e21_segment["pipe_payload_drop_at_least_5x"]
        and e21_segment["delta_poll_drop_at_least_3x"]
        and e21_segment["rings_on"]["one_round_trip_per_window"]
        and e23.segment_ok(e23_segment)
    )
    if not ok:
        sys.exit(1)
