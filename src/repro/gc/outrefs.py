"""Outref table: outgoing inter-site references.

Each entry records one remote reference held somewhere in this site's heap.
The local trace refreshes outref distances (one more than the distance of the
first inref/root that reaches them) and trims entries no longer reachable,
reporting removals and distance changes to target sites in update messages.

For *suspected* outrefs the table also stores the **inset** -- the set of
suspected inrefs the outref is locally reachable from (section 4.1) -- which
back traces consume when taking local steps.  Insets are computed by
:mod:`repro.core.backinfo` during the local trace.

Cleanliness: an outref is clean when the last local trace reached it from a
clean root/inref, when the transfer barrier cleaned it since then, or while
the insert barrier pins it (section 6.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId, TraceId


@dataclass
class OutrefEntry:
    """One outgoing reference: a remote object id plus collector state.

    ``barrier_clean`` is a property and pin/unpin notify the owning table, so
    every semantically relevant change bumps the table's mutation epoch for
    the incremental local trace.  ``traced_clean``/``distance``/``inset`` are
    written only by the local trace commit itself and stay plain fields.

    The entry reaches its table through the single ``_table`` back-reference
    (``None`` for a free-standing entry, whose epoch then just counts up)
    rather than through per-entry bound methods: the tables hold tens of
    thousands of entries, and every extra object per entry is one more for
    the interpreter's cyclic collector to scan.
    """

    target: ObjectId
    distance: int = 1
    traced_clean: bool = True
    pin_count: int = 0
    inset: FrozenSet[ObjectId] = frozenset()
    visited: Set[TraceId] = field(default_factory=set)
    back_threshold: int = 0
    reached_by_last_trace: bool = True
    # Per-entry mutation epoch for the back-trace verdict cache; fed from the
    # owning table's monotonic counter so recreated entries never alias (see
    # InrefEntry.epoch for the full rationale).
    epoch: int = 0
    _barrier_clean: bool = field(default=False, repr=False)
    _table: Optional["OutrefTable"] = field(default=None, repr=False, compare=False)

    def _changed(self) -> None:
        table = self._table
        if table is None:
            self.epoch += 1
            return
        self.epoch = table._advance_entry_epoch()
        table.bump()

    def apply_trace_state(
        self, clean: bool, distance: int, inset: FrozenSet[ObjectId]
    ) -> None:
        """Install a local trace's verdict for this outref (commit phase).

        Bumps the entry epoch only when a value actually changes, so a
        quiescent site's periodic full traces leave cached back-trace
        verdicts valid.
        """
        if (
            clean == self.traced_clean
            and distance == self.distance
            and inset == self.inset
        ):
            return
        self.traced_clean = clean
        self.distance = distance
        self.inset = inset
        self._changed()

    @property
    def barrier_clean(self) -> bool:
        return self._barrier_clean

    @barrier_clean.setter
    def barrier_clean(self, value: bool) -> None:
        if value != self._barrier_clean:
            self._barrier_clean = value
            self._changed()

    @property
    def is_clean(self) -> bool:
        """Clean outrefs stop back traces with a Live verdict."""
        return self.traced_clean or self.barrier_clean or self.pin_count > 0

    @property
    def is_suspected(self) -> bool:
        return not self.is_clean

    def pin(self) -> None:
        """Insert barrier: retain this outref, clean, until the owner has
        received the insert message (section 6.1.2)."""
        self.pin_count += 1
        self._changed()

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise GcInvariantError(f"unbalanced unpin on outref {self.target}")
        self.pin_count -= 1
        self._changed()


class OutrefTable:
    """All outrefs of one site, keyed by the remote object id."""

    def __init__(self, site_id: SiteId, initial_back_threshold: int):
        self.site_id = site_id
        self.initial_back_threshold = initial_back_threshold
        self._entries: Dict[ObjectId, OutrefEntry] = {}
        self._mutation_epoch = 0
        self._order_dirty = False
        self._entry_epoch_counter = 0

    # -- mutation epoch ----------------------------------------------------------

    @property
    def mutation_epoch(self) -> int:
        return self._mutation_epoch

    def bump(self) -> None:
        self._mutation_epoch += 1

    def _advance_entry_epoch(self) -> int:
        self._entry_epoch_counter += 1
        return self._entry_epoch_counter

    # -- basic access -----------------------------------------------------------

    def get(self, target: ObjectId) -> Optional[OutrefEntry]:
        return self._entries.get(target)

    def require(self, target: ObjectId) -> OutrefEntry:
        entry = self._entries.get(target)
        if entry is None:
            raise GcInvariantError(f"site {self.site_id} has no outref for {target}")
        return entry

    def __contains__(self, target: ObjectId) -> bool:
        return target in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[OutrefEntry]:
        """All entries in deterministic (target) order.

        The sorted order is an invariant maintained on mutation (lazily: the
        first read after an insert re-sorts, deletions preserve order), so
        per-trace consumers -- update building, the back-trace trigger check
        -- never pay a ``sorted()`` of their own.
        """
        self._ensure_order()
        return iter(self._entries.values())

    def targets(self) -> List[ObjectId]:
        """All targets, same deterministic (target) order as :meth:`entries`."""
        self._ensure_order()
        return list(self._entries)

    # -- mutation -----------------------------------------------------------------

    def ensure(self, target: ObjectId, clean: bool = True, distance: int = 1) -> OutrefEntry:
        """Get-or-create the entry for a remote reference."""
        if target.site == self.site_id:
            raise GcInvariantError(
                f"outref target {target} is local to site {self.site_id}"
            )
        entry = self._entries.get(target)
        if entry is None:
            entry = OutrefEntry(
                target=target,
                distance=distance,
                traced_clean=clean,
                back_threshold=self.initial_back_threshold,
            )
            entry._table = self
            entry.epoch = self._advance_entry_epoch()
            self._entries[target] = entry
            self._order_dirty = True
            self.bump()
        return entry

    def remove(self, target: ObjectId) -> None:
        if self._entries.pop(target, None) is not None:
            self.bump()

    # -- views ---------------------------------------------------------------------

    def _ensure_order(self) -> None:
        """Keep ``_entries`` sorted by target, re-sorting only after inserts.

        Deletions preserve order, so in steady state the views below iterate
        an already-ordered dict and callers (the per-tick back-trace trigger
        check in particular) never pay a per-call ``sorted()``.
        """
        if self._order_dirty:
            self._entries = dict(sorted(self._entries.items()))
            self._order_dirty = False

    def suspected_entries(self) -> List[OutrefEntry]:
        """Suspected entries in deterministic (target) order."""
        self._ensure_order()
        return [entry for entry in self._entries.values() if entry.is_suspected]

    def clean_entries(self) -> List[OutrefEntry]:
        self._ensure_order()
        return [entry for entry in self._entries.values() if entry.is_clean]

    def is_clean(self, target: ObjectId) -> bool:
        entry = self._entries.get(target)
        return entry is not None and entry.is_clean

    def inset_storage_units(self) -> int:
        """Total inset cardinality: the O(n_i * n_o) space of section 5.2."""
        return sum(len(entry.inset) for entry in self._entries.values())
