"""Footprint guard: the long-lived per-entry and per-link state stays small.

Ref-table entries reach their table through one back-reference, not through
bound methods or closures, and each link's per-kind counter names are a
tuple of strings, which the interpreter's cyclic collector stops tracking.
Both structures number in the tens of thousands on a 64-site run, so a
regression here shows up as collector time, not as a wrong result.
"""

import gc
from types import FunctionType, MethodType

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.workloads import ChurnConfig, SiteChurn

SITES = [f"s{i}" for i in range(8)]


def _churned_sim():
    config = SimulationConfig(
        seed=4,
        network=NetworkConfig(min_latency=8.0, max_latency=24.0, pair_rng_streams=True),
        gc=GcConfig(local_trace_period=150.0, local_trace_period_jitter=30.0),
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    SiteChurn(sim, SITES, ChurnConfig(mean_interval=3.0, send_weight=2.5)).start(
        until=600.0
    )
    sim.run_until(700.0)
    return sim


def test_long_lived_state_holds_no_callables_and_untracked_names():
    sim = _churned_sim()
    gc.collect()
    entries = [
        entry
        for site in sim.sites.values()
        for table in (site.outrefs, site.inrefs)
        for entry in table.entries()
    ]
    assert len(entries) > 50
    for entry in entries:
        for name, value in vars(entry).items():
            assert not isinstance(value, (MethodType, FunctionType)), name

    links = list(sim.network._links.values())
    kind_names = [names for link in links for names in link.kind_cells.values()]
    assert len(kind_names) > 50
    for names in kind_names:
        assert type(names) is tuple and not gc.is_tracked(names)

    # Per-pair FIFO delivery: no dedup window ever opened a gap set.
    windows = [
        window
        for site in sim.sites.values()
        for table in (site._mutation_dedup, site._update_dedup)
        for window in table.values()
    ]
    assert windows
    assert all(window._pending is None for window in windows)
