"""Golden digest cells: fixed runs whose end state is pinned in ``digests.json``.

Each cell runs one deterministic scenario and reduces its end state to a
fingerprint:

- ``events`` -- scheduler events fired;
- ``snapshot`` -- blake2b of the final heaps and ioref tables of every site;
- ``counters`` -- blake2b of the nonzero metric counters, sorted by name;
- ``outcomes`` -- blake2b of the completed back traces (time, initiator site,
  trace id, verdict), plus ``traces``, their number.

The pinned values were taken from the code before object ids became tuples
(the ``churn32_4w``, ``churn32_4w_spill`` and ``chaos_storm_2w`` cells from
the code before the sharded engine dropped its alternative data paths);
any change that is meant to leave behaviour alone must reproduce them.  To
re-pin after a change that is *meant* to alter behaviour, run::

    PYTHONPATH=src python -m tests.golden.cells > tests/golden/digests.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict
from unittest import mock

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis.export import graph_snapshot
from repro.harness import chaos
from repro.workloads import ChurnConfig, GraphBuilder, SiteChurn, build_ring_cycle

DIGESTS_PATH = Path(__file__).with_name("digests.json")

CHURN_SITES = [f"s{i:02d}" for i in range(32)]
RING_SITES = [f"c{i:02d}" for i in range(12)]
RING_SPANS = (2, 3, 4, 6, 12)


def _blake(value) -> str:
    body = json.dumps(value, sort_keys=True).encode()
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def fingerprint(sim: Simulation, events: int) -> Dict[str, object]:
    """The digests of one finished run (sequential or sharded)."""
    if hasattr(sim, "merged_metrics"):
        snapshot, metrics = sim.snapshot(), sim.merged_metrics()
    else:
        snapshot, metrics = graph_snapshot(sim), sim.metrics
    counters = sorted(
        (name, value) for name, value in metrics.snapshot().counters.items() if value
    )
    outcomes = [
        (time, site, trace.initiator, trace.seq, verdict.value)
        for time, site, trace, verdict in sim.trace_outcomes
    ]
    return {
        "events": events,
        "snapshot": _blake(snapshot["sites"]),
        "counters": _blake(counters),
        "outcomes": _blake(outcomes),
        "traces": len(outcomes),
    }


def churn(workers: int, seed: int = 5, ring_bytes: int = 65536) -> Dict[str, object]:
    """The e16 shape (churn with auto GC, paired RNG streams) on 32 sites.

    ``ring_bytes`` sizes each shard-to-shard ring; at the 1024-byte minimum
    most cross-shard records do not fit and take the pipe spill path, which
    the cell asserts.
    """
    config = SimulationConfig(
        seed=seed,
        network=NetworkConfig(min_latency=8.0, max_latency=24.0, pair_rng_streams=True),
        gc=GcConfig(local_trace_period=150.0, local_trace_period_jitter=30.0),
        parallel_workers=workers,
        ring_bytes_per_pair=ring_bytes,
    )
    sim = Simulation.create(config)
    try:
        sim.add_sites(CHURN_SITES, auto_gc=True)
        SiteChurn(sim, CHURN_SITES, ChurnConfig(mean_interval=3.0, send_weight=2.5)).start(
            until=1200.0
        )
        events = sim.run_until(500.0) + sim.run_until(1500.0)
        if ring_bytes == 1024 and not sim.coordination_stats()["ring_spills"]:
            raise AssertionError("tiny-ring churn cell spilled no records")
        return fingerprint(sim, events)
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()


def rings(seed: int = 7) -> Dict[str, object]:
    """Live trees and a live spine, plus garbage rings cut loose one by one.

    Rings span 2 to 12 of the 12 sites, so local tracing alone cannot
    reclaim them: the back tracer must start traces and return verdicts.
    """
    sim = Simulation.create(SimulationConfig(seed=seed))
    sim.add_sites(RING_SITES, auto_gc=True)
    builder = GraphBuilder(sim)
    spine = []
    for site in RING_SITES:
        root = builder.obj(site, root=True)
        for _ in range(20):
            builder.link(root, builder.obj(site))
        spine.append(builder.obj(site))
        builder.link(root, spine[-1])
    builder.link_chain(spine)
    rng = random.Random(seed)
    cut = 300.0
    for j in range(40):
        span = RING_SPANS[j % len(RING_SPANS)]
        ring = build_ring_cycle(sim, rng.sample(RING_SITES, span), objects_per_site=2)
        sim.scheduler.schedule_at(
            cut + 10.0 * j,
            lambda ring=ring: ring.make_garbage(sim),
            label=f"golden-cut:{j}",
            site=ring.anchor.site,
        )
    events = sim.run_until(2200.0)
    return fingerprint(sim, events)


def chaos_storm(seed: int = 2, workers: int = 1) -> Dict[str, object]:
    """One cell of the chaos matrix under the ``storm`` plan (loss + dup + reorder).

    The case closes a sharded simulation before returning, so that run is
    fingerprinted just before its close; its event count sums what every
    ``run_until`` call fired across the shards.  The sharded cell is not the
    sequential one's twin: the case's oracle reads the coordinator's own
    site objects, which stop at the fork, so it stops after a different
    number of GC rounds.
    """
    made = []
    prints = []

    def create(config, **kwargs):
        sim = Simulation.create(config, **kwargs)
        made.append(sim)
        if workers > 1:
            fired = []
            run_until, close = sim.run_until, sim.close

            def counted_run_until(time, max_events=None):
                fired.append(run_until(time, max_events=max_events))
                return fired[-1]

            def fingerprint_then_close():
                if not prints:
                    prints.append(fingerprint(sim, sim.scheduler.events_fired + sum(fired)))
                close()

            sim.run_until, sim.close = counted_run_until, fingerprint_then_close
        return sim

    storm = next(
        plan
        for plan in chaos.standard_plans([f"s{index}" for index in range(6)])
        if plan.name == "storm"
    )
    with mock.patch.object(chaos, "Simulation", mock.Mock(create=create)):
        result = chaos.run_chaos_case(seed, storm, parallel_workers=workers)
    if not result.ok:
        raise AssertionError(f"chaos storm cell failed: {result.violations}")
    if workers > 1:
        return prints[0]
    sim = made[0]
    return fingerprint(sim, sim.scheduler.events_fired)


CELLS: Dict[str, Callable[[], Dict[str, object]]] = {
    "churn32_seq": lambda: churn(workers=1),
    "churn32_2w": lambda: churn(workers=2),
    "churn32_4w": lambda: churn(workers=4),
    "churn32_4w_spill": lambda: churn(workers=4, ring_bytes=1024),
    "rings12": rings,
    "chaos_storm": chaos_storm,
    "chaos_storm_2w": lambda: chaos_storm(workers=2),
}


def pinned() -> Dict[str, Dict[str, object]]:
    return json.loads(DIGESTS_PATH.read_text())


if __name__ == "__main__":
    json.dump({name: cell() for name, cell in CELLS.items()}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
