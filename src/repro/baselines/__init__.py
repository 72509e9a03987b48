"""Baseline distributed cycle collectors (section 7 of the paper).

Four families the paper compares against, implemented over the same
simulated substrate (sites, heaps, reference listing, network) so that
benchmark E6 measures algorithms rather than harness differences:

- :mod:`.globaltrace` -- complementary global marking [Ali85, JJ92];
- :mod:`.hughes` -- timestamp propagation with a global threshold [Hug85];
- :mod:`.migration` -- distance-heuristic controlled migration [ML95];
- :mod:`.grouptrace` -- group formation + intra-group tracing
  [LQP92, MKI+95, RJ96];
- :mod:`.centralservice` -- per-site reachability summaries shipped to a
  logically central detector [BE86, LL92];
- :mod:`.trialdeletion` -- subgraph tracing / cyclic reference counting by
  trial deletion [LJ93, JL92].

All are used with ``GcConfig(enable_backtracing=False)``: they *replace* the
paper's back tracing on top of unchanged local tracing.

Each scheme is a *driver* object constructed against a running simulation
(it registers its handlers on the sites itself) plus an explicit
``run_round``/``start_round``.  Each module registers it as a driver-style
backend: a :class:`~repro.core.collector.NullCollector` site strategy (plain
local tracing) with a ``driver_factory``, so ``GcConfig.collector =
"baseline.global"`` (and so on) selects it and
:attr:`Simulation.collector_driver` builds it.
"""

from .globaltrace import GlobalTraceCollector
from .hughes import HughesCollector
from .migration import MigrationCollector
from .grouptrace import GroupTraceCollector
from .centralservice import CentralServiceCollector
from .trialdeletion import TrialDeletionCollector

__all__ = [
    "GlobalTraceCollector",
    "HughesCollector",
    "MigrationCollector",
    "GroupTraceCollector",
    "CentralServiceCollector",
    "TrialDeletionCollector",
]
