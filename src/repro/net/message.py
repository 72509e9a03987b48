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
from typing import Optional

from ..ids import SiteId


class Payload:
    """Base class for message payloads.  Subclass per protocol message.

    Declares empty ``__slots__`` so that hot payload dataclasses (updates,
    back-trace calls, inserts) can opt into ``slots=True`` and actually shed
    their per-instance ``__dict__``; subclasses that don't opt in still get
    a ``__dict__`` automatically.

    ``_kind`` holds the class name as a plain class attribute, set once per
    subclass, so the per-message ``Message.kind`` lookup is an attribute
    read rather than a classmethod call.
    """

    __slots__ = ()
    _kind = "Payload"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._kind = cls.__name__

    @classmethod
    def kind(cls) -> str:
        """Short name used for metrics aggregation."""
        return cls._kind

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


class Message:
    """An addressed payload in flight.

    ``dup`` marks an envelope injected by fault-plan duplication
    (:mod:`repro.net.faults`): the copy travels and delivers like any other
    message but is accounted separately (``messages.duplicated.*`` /
    ``messages.dup_delivered.*``) so sent/delivered/dropped counters
    reconcile per payload kind.  Each copy gets its own ``uid``.

    A plain slotted class with a hand-written ``__init__``, because one is
    built per simulated message.  Equality and hashing are by value over all
    five fields; nothing assigns to a field after construction.
    """

    __slots__ = ("src", "dst", "payload", "uid", "dup")

    def __init__(
        self,
        src: SiteId,
        dst: SiteId,
        payload: Payload,
        uid: Optional[int] = None,
        dup: bool = False,
    ):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.uid = next(_envelope_counter) if uid is None else uid
        self.dup = dup

    def _key(self) -> tuple:
        return (self.src, self.dst, self.payload, self.uid, self.dup)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Message:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return (Message, self._key())

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, payload={self.payload!r}, "
            f"uid={self.uid!r}, dup={self.dup!r})"
        )

    @property
    def kind(self) -> str:
        return self.payload._kind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.src}->{self.dst})"
