"""Message envelope and payload base class.

Protocol modules (insert protocol, update messages, back-trace calls, the
mutator, baseline collectors) each define their own payload dataclasses
deriving from :class:`Payload`.  The envelope adds addressing and bookkeeping
shared by all of them.

``Payload.kind()`` is the metrics key: benchmark E1 counts back-trace call,
reply, and report messages by this name to check the paper's 2E + N bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..ids import SiteId


class Payload:
    """Base class for message payloads.  Subclass per protocol message.

    Declares empty ``__slots__`` so that hot payload dataclasses (updates,
    back-trace calls, inserts) can opt into ``slots=True`` and actually shed
    their per-instance ``__dict__``; subclasses that don't opt in still get
    a ``__dict__`` automatically.
    """

    __slots__ = ()

    @classmethod
    def kind(cls) -> str:
        """Short name used for metrics aggregation."""
        return cls.__name__

    def carried_refs(self):
        """Object references this message carries to its destination.

        The omniscient oracle treats in-flight carried references as roots:
        until delivery they can still be stored into the destination's heap,
        so the objects they name must not be collected.  Payloads that ship
        references (mutator hops/copies, migration) override this.
        """
        return ()

    def with_seq(self, seq: int) -> "Payload":
        """A copy stamped with the duplicate-suppression sequence number ``seq``.

        Implemented by every payload with a ``seq`` field: the site's
        sequenced mutations, post-trace updates and whatever a collector
        lists in ``sequenced_payload_types``.  It runs once per sequenced
        message, so each builds its copy with its own constructor.
        """
        raise NotImplementedError(f"{self.kind()} carries no seq")

    def size_units(self) -> int:
        """Abstract message size for bandwidth accounting.

        The paper notes back-trace messages are "small and can be piggybacked
        on other messages"; we charge one unit per payload by default and let
        bulk payloads (e.g. object migration) override.
        """
        return 1


_envelope_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Message:
    """An addressed payload in flight.

    ``dup`` marks an envelope injected by fault-plan duplication
    (:mod:`repro.net.faults`): the copy travels and delivers like any other
    message but is accounted separately (``messages.duplicated.*`` /
    ``messages.dup_delivered.*``) so sent/delivered/dropped counters
    reconcile per payload kind.  Each copy gets its own ``uid``.
    """

    src: SiteId
    dst: SiteId
    payload: Payload
    uid: int = field(default_factory=lambda: next(_envelope_counter))
    dup: bool = False

    @property
    def kind(self) -> str:
        return self.payload.kind()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.src}->{self.dst})"
