"""E20 (extension) -- Demand-driven window planning vs the fixed step.

A coordinator that plans every safe-time window as ``horizon +
min_latency`` is sound, but blind.  A steady-state workload -- a burst of
churn followed by a long quiet tail of periodic GC ticks that provably send
nothing -- pays one coordination round trip per lookahead step forever.
The demand planner lets each shard advertise its earliest output time,
looks through provably-quiet GC-tick chains, and jumps the whole quiet
tail in one window.

Measured here at 4 workers, against the fixed-step planner's window counts
on the same seed and workload, pinned in :data:`FIXED_STEP_WINDOWS` (that
planner is no longer in the engine):

1. **Window count** -- the headline.  Window counts are a pure function of
   the event timeline and the planner (replies are drained in worker order;
   nothing is wall-clock-raced), so the >= 5x reduction is asserted
   deterministically and is NOT gated on host core count.
2. **Byte-identity** -- the sharded run must produce the same final
   snapshot as the sequential engine: window boundaries decide how often
   the coordinator synchronizes, never what executes.
3. **Wall clock** -- recorded for honesty, never asserted: fewer round
   trips help even on one core, but by how much is host-dependent.
"""

import time

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.harness.report import Table
from repro.workloads import ChurnConfig, SiteChurn

N_SITES = 16
WORKERS = 4
DURATION = 8000.0
#: Churn stops at this simulated time; the rest of the run is the quiet
#: tail of GC ticks that the demand planner collapses.
CHURN_UNTIL = 300.0
NETWORK = dict(min_latency=8.0, max_latency=24.0, pair_rng_streams=True)
#: A long full-trace cycle (16 incremental traces per full, full refresh
#: every 8 fulls) gives the quiet-tick predictor long provably-silent
#: chains to advertise.
GC = dict(
    local_trace_period=150.0,
    local_trace_period_jitter=30.0,
    full_trace_every_n=16,
    full_update_period=8,
)
REDUCTION_FLOOR = 5.0
#: Windows the fixed-step planner (``horizon + min_latency`` every round)
#: needed for this workload (16 sites, 4 workers, seed 7), by run duration:
#: 6000 is the smoke run, 8000 the full one.  Measured at commit 851fc55,
#: the last one with that planner.
FIXED_STEP_WINDOWS = {6000.0: 334, 8000.0: 448}


def _build(workers, n_sites, seed, churn_until):
    config = SimulationConfig(
        seed=seed,
        network=NetworkConfig(**NETWORK),
        gc=GcConfig(**GC),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sites = [f"s{i:03d}" for i in range(n_sites)]
    sim.add_sites(sites, auto_gc=True)
    churn = SiteChurn(sim, sites, ChurnConfig(mean_interval=7.0))
    churn.start(until=churn_until)
    return sim


def run_planner(
    workers=WORKERS,
    n_sites=N_SITES,
    duration=DURATION,
    churn_until=CHURN_UNTIL,
    seed=7,
):
    """One run; returns wall time, coordination counters, and the snapshot."""
    sim = _build(workers, n_sites, seed, churn_until)
    started = time.perf_counter()
    fired = sim.run_until(duration)
    wall_seconds = time.perf_counter() - started
    row = {
        "workers": workers,
        "events": fired,
        "wall_seconds": wall_seconds,
    }
    if getattr(sim, "parallel_active", False):
        stats = sim.coordination_stats()
        windows = max(1, stats["windows"])
        row.update(
            windows=stats["windows"],
            eot_jumps=stats["eot_jumps"],
            quiescence_jumps=stats["quiescence_jumps"],
            pipelined_windows=stats["pipelined_windows"],
            cross_shard_messages=stats["cross_shard_messages"],
            msgs_per_window=stats["cross_shard_messages"] / windows,
        )
        row["snapshot"] = sim.snapshot()
        sim.close()
    else:
        from repro.analysis.export import graph_snapshot

        row["snapshot"] = graph_snapshot(sim)
    return row


def run_comparison(
    n_sites=N_SITES,
    duration=DURATION,
    workers=WORKERS,
    churn_until=CHURN_UNTIL,
):
    """Demand at ``workers`` and the sequential twin, vs the pinned fixed step."""
    demand = run_planner(workers, n_sites, duration, churn_until)
    sequential = run_planner(1, n_sites, duration, churn_until)
    snapshots = [row.pop("snapshot") for row in (demand, sequential)]
    fixed_windows = FIXED_STEP_WINDOWS[duration]
    reduction = fixed_windows / max(1, demand["windows"])
    return {
        "sites": n_sites,
        "workers": workers,
        "duration": duration,
        "churn_until": churn_until,
        "snapshots_identical": snapshots[0] == snapshots[1],
        "fixed": {"windows": fixed_windows, "pinned_at": "851fc55"},
        "demand": demand,
        "sequential": sequential,
        "window_reduction": reduction,
        "window_reduction_at_least_5x": reduction >= REDUCTION_FLOOR,
    }


# -- pytest entry points -----------------------------------------------------


def test_e20_window_reduction(benchmark, record_table):
    """Deterministic >= 5x window reduction; identical snapshots.

    Window counts are host-independent (see module docstring), so unlike
    the wall-clock speedup benches this assertion is NOT cpu-gated.
    """
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = Table(
        "E20: window planning, demand vs the pinned fixed step "
        f"({N_SITES} sites, {WORKERS} workers, {DURATION:.0f} time units)",
        ["planner", "windows", "eot", "quiesce", "piped", "msgs/win", "wall (s)"],
    )
    row = results["demand"]
    table.add_row("fixed (pinned)", results["fixed"]["windows"], "", "", "", "", "")
    table.add_row(
        "demand",
        row["windows"],
        row["eot_jumps"],
        row["quiescence_jumps"],
        row["pipelined_windows"],
        f"{row['msgs_per_window']:.2f}",
        f"{row['wall_seconds']:.3f}",
    )
    record_table("e20_window_planning", table)

    assert results["snapshots_identical"]
    assert results["demand"]["events"] == results["sequential"]["events"]
    assert results["window_reduction_at_least_5x"], results["window_reduction"]


def _check_regression(results):
    """Warn (never fail) when the window reduction degrades vs the committed
    E20 segment of BENCH_parallel_sim.json."""
    import json
    import os
    import sys

    path = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_parallel_sim.json"
    )
    try:
        with open(path) as fh:
            baseline = json.load(fh).get("e20", {})
    except (OSError, ValueError):
        print("regression check: no readable BENCH_parallel_sim.json; skipping", file=sys.stderr)
        return
    if results.get("duration") != baseline.get("duration"):
        # Window counts scale with the quiet tail's length; a smoke run
        # against a full-length baseline would warn unconditionally.
        print(
            "regression check: window_reduction skipped "
            "(duration mismatch vs baseline)"
        , file=sys.stderr)
        return
    base = baseline.get("window_reduction")
    cur = results.get("window_reduction")
    if not base or not cur:
        return
    if cur < base * 0.80:
        print(
            f"WARNING: window_reduction regressed >20%: "
            f"{cur:.3f} vs baseline {base:.3f}"
        , file=sys.stderr)
    else:
        print(
            f"regression check: window_reduction ok "
            f"({cur:.3f} vs baseline {base:.3f})"
        , file=sys.stderr)


if __name__ == "__main__":
    # Standalone mode: emit the comparison as JSON (the combined
    # BENCH_parallel_sim.json is regenerated by bench_e19_persistent_pool).
    # ``--smoke`` shortens the tail but keeps the reduction assertion;
    # ``--check-regression`` compares (warn-only) against the committed
    # baseline when the scales match.
    import json
    import sys

    try:
        from .hostinfo import host_header
    except ImportError:
        from hostinfo import host_header

    smoke = "--smoke" in sys.argv
    results = run_comparison(duration=6000.0 if smoke else DURATION)
    results["smoke"] = smoke
    results["host"] = host_header()
    json.dump(results, sys.stdout, indent=2)
    print()
    if "--check-regression" in sys.argv:
        _check_regression(results)
    floor = 4.0 if smoke else REDUCTION_FLOOR
    if not (
        results["snapshots_identical"]
        and results["window_reduction"] >= floor
    ):
        sys.exit(1)
