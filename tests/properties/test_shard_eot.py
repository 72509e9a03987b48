"""The shard workers' lazy earliest-output-time equals the full scan.

``_shard_eot`` predicts quiet gc ticks only for ticks that could still lower
the minimum, in time order, and adds the lookahead once at the end.  These
trials build random queues -- plain events, gc ticks, cancelled events,
ties, several ticks per site -- and compare it with the formula it replaced,
which adjusted every tick and took the minimum of the per-event sums.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.parallel import _shard_eot
from repro.sim.scheduler import Scheduler

SITES = ["a", "b", "c", "d"]


def _full_scan_eot(sim, lookahead):
    period = sim.config.gc.local_trace_period
    eot = float("inf")
    for time, label, site_id in sim.scheduler.live_events():
        if site_id is not None and label is not None and label.startswith("gc-tick:"):
            time += sim.sites[site_id].quiet_gc_ticks() * period
        if time + lookahead < eot:
            eot = time + lookahead
    return eot


class _Site:
    def __init__(self, quiet):
        self.quiet = quiet
        self.calls = 0

    def quiet_gc_ticks(self):
        self.calls += 1
        return self.quiet


# Mostly small integral times, so ties and interleaved ticks are common.
times = st.one_of(
    st.integers(min_value=0, max_value=60).map(float),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
events = st.lists(
    st.tuples(
        times,
        st.sampled_from(["gc-tick:", "deliver:UpdatePayload", "churn", None]),
        st.sampled_from(SITES + [None]),
        st.booleans(),
    ),
    max_size=40,
)


@given(
    events,
    st.dictionaries(st.sampled_from(SITES), st.integers(0, 6)),
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=1e-6, max_value=50.0),
)
@settings(max_examples=600, deadline=None)
def test_lazy_eot_equals_full_scan(queue, quiet, period, lookahead):
    scheduler = Scheduler()
    for time, label, site, cancelled in queue:
        handle = scheduler.schedule_at(
            time,
            lambda: None,
            label=(label + (site or "")) if label else label,
            site=site,
        )
        if cancelled:
            handle.cancel()
    sites = {site: _Site(quiet.get(site, 0)) for site in SITES}
    sim = SimpleNamespace(
        scheduler=scheduler,
        sites=sites,
        config=SimpleNamespace(gc=SimpleNamespace(local_trace_period=period)),
    )
    expected = _full_scan_eot(sim, lookahead)
    full_calls = sum(site.calls for site in sites.values())
    for site in sites.values():
        site.calls = 0
    assert _shard_eot(sim, lookahead) == expected
    assert sum(site.calls for site in sites.values()) <= full_calls
