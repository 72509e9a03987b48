"""Inref table: incoming inter-site references.

Each entry records one local object that remote sites hold references to,
together with the *source list* (which sites, each with a distance estimate
per the distance heuristic of section 3).  The local trace uses non-garbage
inrefs as roots; back traces take *remote steps* from an inref to the
corresponding outrefs at its source sites.

Cleanliness: an inref is *clean* when its estimated distance is at or below
the suspicion threshold, or when the transfer barrier (section 6.1.1) has
cleaned it since the last local trace.  Otherwise it is *suspected*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId, TraceId

INFINITE_DISTANCE = 10**9
"""Sentinel for 'unreachable'; the paper's 'distance of garbage is infinity'."""


class _SourceMap(dict):
    """Per-source distance map that notifies its entry on every change.

    Tests and scenario builders routinely poke ``entry.sources[site] = d``
    directly; routing notification through the mapping itself means those
    writes still advance the table's distance epoch, keeping the incremental
    trace's dirty tracking airtight.
    """

    __slots__ = ("entry",)

    def __init__(self, entry: "InrefEntry", initial=()):
        super().__init__(initial)
        self.entry = entry

    def __setitem__(self, site: SiteId, distance: int) -> None:
        added = site not in self
        if not added and self.get(site) == distance:
            return
        super().__setitem__(site, distance)
        if added:
            self.entry._source_added(site)
        self.entry._distance_changed()

    def __delitem__(self, site: SiteId) -> None:
        super().__delitem__(site)
        self.entry._source_removed(site)
        self.entry._distance_changed()

    def pop(self, site, *default):
        present = site in self
        value = super().pop(site, *default)
        if present:
            self.entry._source_removed(site)
            self.entry._distance_changed()
        return value


@dataclass
class InrefEntry:
    """One incoming reference: a local object plus its remote source list.

    ``garbage`` and ``barrier_clean`` are properties so that *any* writer --
    the back-trace engine, the transfer barrier, a baseline collector --
    automatically bumps the owning table's structure epoch; distance changes
    flow through the three source-list methods and bump the distance epoch.
    The incremental local trace depends on these notifications.

    All of them reach the owning table through the single ``_table``
    back-reference (``None`` for a free-standing entry, whose epoch then
    just counts up), not through per-entry bound methods and closures.
    """

    target: ObjectId
    sources: Dict[SiteId, int] = field(default_factory=dict)
    visited: Set[TraceId] = field(default_factory=set)
    back_threshold: int = 0
    # Outset of this inref as of the last local trace (suspected outrefs
    # locally reachable from it).  The transfer barrier cleans exactly these
    # outrefs when the inref is cleaned (section 6.1.1); it is also the dual
    # of the insets stored on outrefs.
    outset: FrozenSet[ObjectId] = frozenset()
    # Per-entry mutation epoch: advanced on every semantically relevant
    # change (source list, garbage flag, barrier clean).  Table-owned entries
    # draw epochs from a table-global monotonic counter, so a deleted and
    # recreated entry can never reproduce an epoch a cached back-trace
    # verdict snapshotted from its predecessor.
    epoch: int = 0
    _garbage: bool = field(default=False, repr=False)
    _barrier_clean: bool = field(default=False, repr=False)
    _table: Optional["InrefTable"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sources, _SourceMap):
            self.sources = _SourceMap(self, self.sources)

    def _bump_epoch(self) -> None:
        table = self._table
        if table is None:
            self.epoch += 1
        else:
            self.epoch = table._advance_entry_epoch()

    def _structure_changed(self) -> None:
        self._bump_epoch()
        if self._table is not None:
            self._table.bump_structure()

    def _distance_changed(self) -> None:
        self._bump_epoch()
        if self._table is not None:
            self._table.bump_distance()

    def _source_added(self, site: SiteId) -> None:
        if self._table is not None:
            self._table._index_source_added(self.target, site)

    def _source_removed(self, site: SiteId) -> None:
        if self._table is not None:
            self._table._index_source_removed(self.target, site)

    @property
    def garbage(self) -> bool:
        return self._garbage

    @garbage.setter
    def garbage(self, value: bool) -> None:
        if value != self._garbage:
            self._garbage = value
            self._structure_changed()

    @property
    def barrier_clean(self) -> bool:
        return self._barrier_clean

    @barrier_clean.setter
    def barrier_clean(self, value: bool) -> None:
        if value != self._barrier_clean:
            self._barrier_clean = value
            self._structure_changed()

    @property
    def distance(self) -> int:
        """Estimated distance: minimum over the per-source estimates."""
        if not self.sources:
            return INFINITE_DISTANCE
        return min(self.sources.values())

    def is_clean(self, threshold: int) -> bool:
        """Clean iff within the suspicion threshold or barrier-cleaned."""
        if self.garbage:
            return False
        return self.barrier_clean or self.distance <= threshold

    def is_suspected(self, threshold: int) -> bool:
        return not self.is_clean(threshold)

    def add_source(self, site: SiteId, distance: int = 1) -> None:
        """Insert or refresh a source site.

        A *new* source is conservatively given distance 1 (section 3); an
        existing source keeps the smaller of old and offered estimates until
        the next update message re-propagates exact values.
        """
        current = self.sources.get(site)
        if current is None:
            self.sources[site] = distance
        else:
            self.sources[site] = min(current, distance)

    def set_source_distance(self, site: SiteId, distance: int) -> None:
        """Apply a distance carried by an update message (authoritative)."""
        if site not in self.sources:
            # The source may have been dropped concurrently; ignore stale news.
            return
        self.sources[site] = distance

    def remove_source(self, site: SiteId) -> None:
        self.sources.pop(site, None)

    @property
    def empty(self) -> bool:
        """True when no source remains; the entry should then be deleted."""
        return not self.sources


class InrefTable:
    """All inrefs of one site, keyed by the referenced local object."""

    def __init__(self, site_id: SiteId, suspicion_threshold: int, initial_back_threshold: int):
        self.site_id = site_id
        self._suspicion_threshold = suspicion_threshold
        self.initial_back_threshold = initial_back_threshold
        self._entries: Dict[ObjectId, InrefEntry] = {}
        self._order_dirty = False
        self._structure_epoch = 0
        self._distance_epoch = 0
        # Monotonic feed for per-entry epochs (see InrefEntry.epoch).
        self._entry_epoch_counter = 0
        # source site -> inref targets listing it; lets the full-update prune
        # in gc.update touch only inrefs sourced from the sender.
        self._by_source: Dict[SiteId, Set[ObjectId]] = {}

    # -- mutation epochs --------------------------------------------------------
    #
    # ``structure_epoch`` advances on changes that can alter which entries
    # exist or how they classify (creation, deletion, garbage flags, barrier
    # cleans, threshold moves); ``distance_epoch`` advances on distance-only
    # changes.  The split lets the incremental local trace run its cheap
    # distance-only reconciliation when nothing structural moved.

    @property
    def structure_epoch(self) -> int:
        return self._structure_epoch

    @property
    def distance_epoch(self) -> int:
        return self._distance_epoch

    def bump_structure(self) -> None:
        self._structure_epoch += 1

    def bump_distance(self) -> None:
        self._distance_epoch += 1

    def _advance_entry_epoch(self) -> int:
        self._entry_epoch_counter += 1
        return self._entry_epoch_counter

    @property
    def suspicion_threshold(self) -> int:
        return self._suspicion_threshold

    @suspicion_threshold.setter
    def suspicion_threshold(self, value: int) -> None:
        if value != self._suspicion_threshold:
            self._suspicion_threshold = value
            self.bump_structure()  # clean/suspected classification may flip

    # -- basic access ---------------------------------------------------------

    def get(self, target: ObjectId) -> Optional[InrefEntry]:
        return self._entries.get(target)

    def require(self, target: ObjectId) -> InrefEntry:
        entry = self._entries.get(target)
        if entry is None:
            raise GcInvariantError(f"site {self.site_id} has no inref for {target}")
        return entry

    def __contains__(self, target: ObjectId) -> bool:
        return target in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _ensure_order(self) -> None:
        """Keep ``_entries`` sorted by target, re-sorting only after inserts.

        Deletions preserve order, so steady-state iteration costs nothing
        extra; the sorted order is the deterministic iteration invariant the
        collector's update building relies on.
        """
        if self._order_dirty:
            self._entries = dict(sorted(self._entries.items()))
            self._order_dirty = False

    def entries(self) -> Iterator[InrefEntry]:
        """All entries in deterministic (target) order (see _ensure_order)."""
        self._ensure_order()
        return iter(self._entries.values())

    def targets(self) -> List[ObjectId]:
        self._ensure_order()
        return list(self._entries)

    def targets_from_source(self, source: SiteId) -> List[ObjectId]:
        """Inref targets whose source list includes ``source`` (sorted)."""
        return sorted(self._by_source.get(source, ()))

    # -- per-source index maintenance ---------------------------------------------

    def _index_source_added(self, target: ObjectId, source: SiteId) -> None:
        self._by_source.setdefault(source, set()).add(target)

    def _index_source_removed(self, target: ObjectId, source: SiteId) -> None:
        members = self._by_source.get(source)
        if members is not None:
            members.discard(target)
            if not members:
                del self._by_source[source]

    # -- mutation ---------------------------------------------------------------

    def ensure(self, target: ObjectId, source: SiteId, distance: int = 1) -> InrefEntry:
        """Get-or-create the entry for ``target`` and record ``source``."""
        if target.site != self.site_id:
            raise GcInvariantError(
                f"inref target {target} does not belong to site {self.site_id}"
            )
        entry = self._entries.get(target)
        if entry is None:
            entry = InrefEntry(
                target=target, back_threshold=self.initial_back_threshold
            )
            entry._table = self
            entry.epoch = self._advance_entry_epoch()
            self._entries[target] = entry
            self._order_dirty = True
            self.bump_structure()
        entry.add_source(source, distance)
        return entry

    def remove(self, target: ObjectId) -> None:
        entry = self._entries.pop(target, None)
        if entry is not None:
            for source in list(entry.sources):
                self._index_source_removed(target, source)
            self.bump_structure()

    def remove_source(self, target: ObjectId, source: SiteId) -> None:
        """Apply an update-message removal; drop the entry when empty."""
        entry = self._entries.get(target)
        if entry is None:
            return
        entry.remove_source(source)
        if entry.empty:
            del self._entries[target]
            self.bump_structure()

    # -- views used by the collector ----------------------------------------------

    def root_targets(self) -> List[ObjectId]:
        """Inref targets that serve as local-trace roots (not garbage-flagged)."""
        self._ensure_order()
        return [target for target, entry in self._entries.items() if not entry.garbage]

    def entries_by_distance(self) -> List[InrefEntry]:
        """Entries ordered by increasing distance (trace order of section 3)."""
        return sorted(
            self._entries.values(), key=lambda entry: (entry.distance, entry.target)
        )

    def clean_entries(self) -> List[InrefEntry]:
        self._ensure_order()
        return [e for e in self._entries.values() if e.is_clean(self.suspicion_threshold)]

    def suspected_entries(self) -> List[InrefEntry]:
        self._ensure_order()
        return [
            e for e in self._entries.values() if e.is_suspected(self.suspicion_threshold)
        ]

    def is_clean(self, target: ObjectId) -> bool:
        entry = self._entries.get(target)
        return entry is not None and entry.is_clean(self.suspicion_threshold)

    def reset_barrier_cleans(self) -> None:
        """Called when a local trace completes: barrier cleans expire."""
        for entry in self._entries.values():
            entry.barrier_clean = False

    def garbage_targets(self) -> List[ObjectId]:
        return [t for t, e in self._entries.items() if e.garbage]
