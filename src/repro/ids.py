"""Identifier types used throughout the library.

The paper's object model names objects by site plus a per-site serial number.
References *are* object ids: a reference held at site P pointing to an object
owned by site R is simply R's object id stored inside one of P's objects.

All id types are ``NamedTuple``s: small immutable values whose equality,
hashing and ordering are the tuple's, run in C.  They hash like the plain
``(site, number)`` tuple and sort by site then number, which keeps set and
dict iteration -- and so the discrete-event simulation -- replayable.

Equality is structural: an id equals any tuple with the same fields, so
``TraceId("P", 0) == FrameId("P", 0) == ObjectId("P", 0) == ("P", 0)``.
That is safe only while no dict or set mixes id kinds, or ids with plain
tuples.  None does: every id-keyed map (heaps, ioref tables, local-trace
results, the back-trace engine's frame, record and root maps, the oracle,
the baselines) holds one kind, and the termination backend's plain
``(site, serial)`` trial keys live in maps of their own.  Keep it that way,
or key such a map by ``(kind, id)``.
"""

from __future__ import annotations

from typing import NamedTuple, Union

# Sites are identified by short strings ("P", "Q", ...) in examples and by
# generated names ("s00", "s01", ...) in workloads.  Using strings keeps
# traces and test failures readable, matching the paper's figures.
SiteId = str


class ObjectId(NamedTuple):
    """Globally unique name of an object: owning site + per-site serial.

    An :class:`ObjectId` doubles as a *reference*.  ``ObjectId.site`` tells
    whether a reference is local or remote relative to a holder.
    """

    site: SiteId
    serial: int

    def is_local_to(self, site: SiteId) -> bool:
        """Return True if this object lives at ``site``."""
        return self.site == site

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.site}.{self.serial}"


class TraceId(NamedTuple):
    """Unique id of one distributed back trace.

    The initiating site assigns the id (site + a local sequence number), as
    described in section 4.7 of the paper; uniqueness follows from the site id
    being unique and the sequence number being locally monotonic.
    """

    initiator: SiteId
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"bt:{self.initiator}:{self.seq}"


class FrameId(NamedTuple):
    """Identifies one activation frame of a back trace at one site."""

    site: SiteId
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"fr:{self.site}:{self.seq}"


Ref = ObjectId
"""Alias used where code reads better as 'reference' than 'object id'."""


def parse_object_id(text: str) -> ObjectId:
    """Parse the ``site.serial`` form produced by ``str(ObjectId)``.

    >>> parse_object_id("P.3")
    ObjectId(site='P', serial=3)
    """
    site, _, serial = text.rpartition(".")
    if not site:
        raise ValueError(f"not an object id: {text!r}")
    return ObjectId(site=site, serial=int(serial))


IdLike = Union[ObjectId, str]


def coerce_object_id(value: IdLike) -> ObjectId:
    """Accept either an :class:`ObjectId` or its string form."""
    if isinstance(value, ObjectId):
        return value
    return parse_object_id(value)
