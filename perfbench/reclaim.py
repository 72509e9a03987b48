"""Reclaim latency: how long garbage floats before its heap lets it go.

An object's latency runs from its garbage birth to the simulated time at
which :meth:`Heap.sweep_ids` removes it.  Sweep times are exact: the
benchmark wraps ``Heap.sweep_ids`` for the run and reads the scheduler's
clock at each call.  Birth times are exact on ``cycles32`` (the ring's cut
time) and sampled on ``churn64`` (see :func:`sampled_births`).
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.analysis import Oracle
from repro.ids import ObjectId
from repro.store.heap import Heap

#: Simulated ticks between two oracle samples on churn64: a sampled birth is
#: placed midway between the sample that first saw it and the one before.
SAMPLE_TICKS = 20.0

SweepLog = List[Tuple[float, List[ObjectId]]]


@contextmanager
def sweep_log(sim) -> Iterator[SweepLog]:
    """Record ``(time, swept ids)`` for every sweep while the block runs."""
    log: SweepLog = []
    original = Heap.sweep_ids
    scheduler = sim.scheduler

    def sweep_ids(heap, dead):
        removed = original(heap, dead)
        if removed:
            log.append((scheduler.now, removed))
        return removed

    Heap.sweep_ids = sweep_ids
    try:
        yield log
    finally:
        Heap.sweep_ids = original


def swept_at(log: SweepLog) -> Dict[ObjectId, float]:
    return {oid: when for when, removed in log for oid in removed}


@dataclass
class Reclaim:
    """Reclaim latencies of every object that became garbage in one run."""

    #: Ticks from birth to sweep, one entry per reclaimed object, sorted.
    latencies: List[float]
    unreclaimed: int
    #: Time-averaged count of objects that were garbage but not yet swept.
    float_mean: float

    @property
    def garbage(self) -> int:
        return len(self.latencies) + self.unreclaimed

    def p50(self) -> float:
        return statistics.median(self.latencies)

    def p95(self) -> float:
        return statistics.quantiles(self.latencies, n=20)[18]


def settle(births: Dict[ObjectId, float], swept: Dict[ObjectId, float], end: float) -> Reclaim:
    """Match births with sweeps; whatever was not swept by ``end`` floats on."""
    latencies: List[float] = []
    unreclaimed = 0
    floating = 0.0
    for oid, born in births.items():
        gone = swept.get(oid)
        if gone is None:
            unreclaimed += 1
            floating += end - born
        else:
            latencies.append(gone - born)
            floating += gone - born
    latencies.sort()
    return Reclaim(latencies, unreclaimed, floating / end)


@dataclass
class SampledRun:
    events: int
    births: Dict[ObjectId, float]


def sampled_births(sim, duration: float, log: SweepLog) -> SampledRun:
    """Run ``sim`` to ``duration`` in chunks, dating garbage births between chunks.

    An object the oracle first finds garbage at a sample is born midway
    since the previous sample.  An object swept before any sample saw it as
    garbage is born midway between the previous sample and its sweep.
    """
    oracle = Oracle(sim)
    births: Dict[ObjectId, float] = {}
    seen_sweeps = 0
    events = 0
    last = sim.now
    while sim.now < duration:
        target = min(duration, sim.now + SAMPLE_TICKS)
        events += sim.run_until(target)
        for when, removed in log[seen_sweeps:]:
            for oid in removed:
                births.setdefault(oid, (last + when) / 2)
        seen_sweeps = len(log)
        now = sim.now
        for oid in oracle.garbage_set():
            births.setdefault(oid, (last + now) / 2)
        last = now
    return SampledRun(events=events, births=births)
