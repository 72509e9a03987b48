"""The benchmark's workloads: how each one is built and how its garbage is audited.

Every workload is generated from one integer seed and handed to the program
as a ready :class:`~repro.Simulation` plus the simulated interval to run.

- ``churn64`` is the E16 shape: 64 sites under per-site churn on the
  sequential engine.  Heaps start empty by design; every object is allocated
  by the churn itself.  A quiet tail after the churn stops lets leftover
  garbage show.
- ``cycles32`` is 32 sites of static live data (a wide tree per site, a live
  spine across all sites with live rings off its far half) plus garbage rings
  spanning 2 to 32 sites, each cut at a fixed cadence.  Local tracing and the
  back tracer do most of the work; the mutator does almost none.  One seed
  gives three independently laid out instances of 80 rings each, 240 rings
  in all, so that one layout's luck moves the reclaim figures less.
- ``churn64_2w`` is ``churn64`` on the sharded engine with two workers.

The checks at the bottom run after a repetition, outside its timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.analysis.export import graph_snapshot
from repro.errors import OracleError
from repro.ids import ObjectId
from repro.workloads import ChurnConfig, SiteChurn
from repro.workloads.generators import CycleWorkload, build_ring_cycle
from repro.workloads.topology import GraphBuilder

WORKLOADS = ("churn64", "cycles32", "churn64_2w")

CHURN_SITES = 64
CHURN_TICKS = 2000.0
#: Quiet tail after the churn stops, so that garbage left over is counted.
CHURN_TAIL_TICKS = 400.0

CYCLE_SITES = 32
TREE_OBJECTS = 1000
TREE_FANOUT = 8
GARBAGE_RINGS = 80
#: Instances that one cycles32 seed stands for, built and run one after another.
CYCLE_INSTANCES = 3
RING_SPANS = (2, 4, 8, 16, 32)
RING_OBJECTS_PER_SITE = 3
FIRST_CUT = 300.0
CUT_CADENCE = 10.0
#: Quiet tail after the last cut: every ring of every instance tried while
#: choosing it was swept within it.
CYCLE_TAIL_TICKS = 1500.0

#: Message kinds that are mutator traffic; every other kind is GC traffic.
MUTATOR_KINDS = ("RemoteCopy", "MutatorHop")


@dataclass
class Prepared:
    """A built workload, ready to run for ``duration`` simulated ticks."""

    sim: Simulation
    duration: float
    #: cycles32 only: each garbage ring with the time its anchor is cut.
    rings: List[CycleWorkload] = field(default_factory=list)
    cut_times: List[float] = field(default_factory=list)

    def close(self) -> None:
        closer = getattr(self.sim, "close", None)
        if closer is not None:
            closer()

    def ring_births(self) -> Dict[ObjectId, float]:
        """Every garbage-ring member with its ring's cut time."""
        return {
            oid: cut for ring, cut in zip(self.rings, self.cut_times) for oid in ring.cycle
        }


def instance_seeds(workload: str, seed: int) -> List[int]:
    """The seeds of the instances that make up one repetition of ``workload``."""
    if workload == "cycles32":
        return [seed * CYCLE_INSTANCES + index for index in range(CYCLE_INSTANCES)]
    return [seed]


def build(workload: str, seed: int) -> Prepared:
    """Build ``workload`` from ``seed``; nothing has run yet."""
    if workload == "churn64":
        return build_churn64(seed, workers=1)
    if workload == "churn64_2w":
        return build_churn64(seed, workers=2)
    if workload == "cycles32":
        return build_cycles32(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_churn64(seed: int, workers: int = 1) -> Prepared:
    config = SimulationConfig(
        seed=seed,
        network=NetworkConfig(min_latency=8.0, max_latency=24.0, pair_rng_streams=True),
        gc=GcConfig(local_trace_period=150.0, local_trace_period_jitter=30.0),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sites = [f"s{i:03d}" for i in range(CHURN_SITES)]
    sim.add_sites(sites, auto_gc=True)
    churn = SiteChurn(sim, sites, ChurnConfig(mean_interval=3.0, send_weight=2.5))
    # A deadline, not stop(): forked shard workers never see a stop() call.
    churn.start(until=CHURN_TICKS)
    return Prepared(sim=sim, duration=CHURN_TICKS + CHURN_TAIL_TICKS)


def build_cycles32(seed: int) -> Prepared:
    sim = Simulation.create(SimulationConfig(seed=seed))
    sites = [f"c{i:02d}" for i in range(CYCLE_SITES)]
    sim.add_sites(sites, auto_gc=True)
    builder = GraphBuilder(sim)
    roots = {site: _build_tree(builder, site) for site in sites}

    # A live spine across every site.  Its far half sits beyond the
    # suspicion threshold, so traces from the rings hanging off it walk
    # back along the spine and end in Live verdicts (then the cache).
    spine = [builder.obj(site) for site in sites]
    builder.link(roots[sites[0]], spine[0])
    builder.link_chain(spine)
    for i in range(CYCLE_SITES // 2, CYCLE_SITES):
        ring = [builder.obj(sites[(i + k) % CYCLE_SITES]) for k in range(4)]
        builder.link_cycle(ring)
        builder.link(spine[i], ring[0])

    rng = random.Random(seed)
    spans = [RING_SPANS[j % len(RING_SPANS)] for j in range(GARBAGE_RINGS)]
    rings: List[CycleWorkload] = []
    cut_times: List[float] = []
    for j, span in enumerate(spans):
        ring = build_ring_cycle(
            sim, rng.sample(sites, span), objects_per_site=RING_OBJECTS_PER_SITE
        )
        cut_at = FIRST_CUT + j * CUT_CADENCE
        sim.scheduler.schedule_at(
            cut_at,
            functools.partial(ring.make_garbage, sim),
            label=f"bench-cut:{j}",
            site=ring.anchor.site,
        )
        rings.append(ring)
        cut_times.append(cut_at)
    duration = cut_times[-1] + CYCLE_TAIL_TICKS
    return Prepared(sim=sim, duration=duration, rings=rings, cut_times=cut_times)


def _build_tree(builder: GraphBuilder, site: str) -> ObjectId:
    """A breadth-first tree of ``TREE_OBJECTS`` objects under a persistent root."""
    root = builder.obj(site, root=True)
    frontier = [root]
    made = 1
    while made < TREE_OBJECTS:
        parent = frontier.pop(0)
        for _ in range(min(TREE_FANOUT, TREE_OBJECTS - made)):
            child = builder.obj(site)
            builder.link(parent, child)
            frontier.append(child)
            made += 1
    return root


# -- checks shared by the audit and the timed runs ---------------------------


def snapshot_digest(sim: Simulation) -> str:
    """Digest of the final heaps and ioref tables (the ``time`` key left out)."""
    snapshot = sim.snapshot() if hasattr(sim, "snapshot") else graph_snapshot(sim)
    body = json.dumps(snapshot["sites"], sort_keys=True).encode()
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def accounting_errors(sim: Simulation) -> List[str]:
    """Per message kind, ``sent == delivered + dropped + in flight``."""
    counts = sim.metrics.snapshot().counters
    in_flight: Dict[str, int] = {}
    for message in sim.network.in_flight_messages():
        if not message.dup:
            in_flight[message.kind] = in_flight.get(message.kind, 0) + 1
    errors = []
    kinds = sorted(name[len("units."):] for name in counts if name.startswith("units."))
    for kind in kinds:
        sent = counts.get(f"messages.{kind}", 0)
        delivered = counts.get(f"messages.delivered.{kind}", 0)
        dropped = counts.get(f"messages.dropped.{kind}", 0)
        flying = in_flight.get(kind, 0)
        if sent != delivered + dropped + flying:
            errors.append(
                f"{kind}: sent {sent} != delivered {delivered} + dropped {dropped}"
                f" + in flight {flying}"
            )
    return errors


def gc_units(counts: Dict[str, int]) -> int:
    """Message units of GC traffic: every kind except mutator traffic."""
    return sum(
        value
        for name, value in counts.items()
        if name.startswith("units.") and name[len("units."):] not in MUTATOR_KINDS
    )


def safety_errors(sim: Simulation) -> List[str]:
    """The oracle's safety audit: no live path may dangle."""
    try:
        Oracle(sim).check_safety()
    except OracleError as exc:
        return [f"safety: {exc}"]
    return []


def ring_errors(prepared: Prepared) -> List[str]:
    """Every garbage object must belong to a cut ring.

    Anything else means the live structure leaked, and the workload is not
    what its metrics describe.
    """
    members = prepared.ring_births()
    stray = [oid for oid in Oracle(prepared.sim).garbage_set() if oid not in members]
    if stray:
        return [f"{len(stray)} garbage objects outside the rings, e.g. {stray[0]}"]
    return []
