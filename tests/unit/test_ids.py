"""Semantics of the id types: tuples with names.

``ObjectId``, ``TraceId`` and ``FrameId`` are ``NamedTuple``s, so they hash,
compare and sort exactly like the ``(site, number)`` tuple they hold.  The
tests pin what the rest of the system relies on: hash and order equal to the
plain tuple (set, dict and event order, and so every digest, depend on it),
the text forms, pickling (forked workers), immutability, the wire decoder
building real ids, and the one hazard structural equality brings --
``TraceId(s, n) == FrameId(s, n)`` -- being harmless because no map mixes
id kinds.
"""

import pickle
import random

import pytest

from repro.core.backtrace.messages import BackCall, TraceOutcome
from repro.gc.update import UpdatePayload
from repro.ids import FrameId, ObjectId, TraceId, parse_object_id
from repro.mutator.ops import RemoteCopy
from repro.net.message import Message
from repro.net.wire import WireCodec
from repro.workloads import build_ring_cycle

from ..conftest import make_sim

ID_TYPES = (ObjectId, TraceId, FrameId)
SAMPLES = [("P", 3), ("P", 12), ("Q", 0), ("s10", 2), ("s2", 7), ("s2", 40)]


@pytest.mark.parametrize("kind", ID_TYPES)
def test_hash_equals_the_plain_tuple_hash(kind):
    for site, number in SAMPLES:
        assert hash(kind(site, number)) == hash((site, number))


@pytest.mark.parametrize("kind", ID_TYPES)
def test_sorted_order_is_site_then_number(kind):
    shuffled = list(SAMPLES)
    random.Random(4).shuffle(shuffled)
    assert [tuple(i) for i in sorted(kind(*pair) for pair in shuffled)] == sorted(SAMPLES)


def test_text_forms_and_parse_round_trip():
    oid = ObjectId(site="s2", serial=7)
    assert repr(oid) == "ObjectId(site='s2', serial=7)"
    assert str(oid) == f"{oid}" == "s2.7"
    assert parse_object_id(str(oid)) == oid
    assert type(parse_object_id("a.b.4")) is ObjectId
    assert parse_object_id("a.b.4") == ObjectId("a.b", 4)
    assert repr(TraceId("P", 1)) == "TraceId(initiator='P', seq=1)"
    assert str(TraceId("P", 1)) == "bt:P:1"
    assert repr(FrameId("P", 1)) == "FrameId(site='P', seq=1)"
    assert str(FrameId("P", 1)) == "fr:P:1"


@pytest.mark.parametrize("kind", ID_TYPES)
def test_pickle_round_trip_keeps_the_type(kind):
    value = kind("s2", 7)
    copy = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    assert copy == value and type(copy) is kind


@pytest.mark.parametrize("kind", ID_TYPES)
def test_ids_are_immutable(kind):
    value = kind("P", 1)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], "Q")
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(TypeError):
        value[0] = "Q"


def test_wire_decode_builds_real_ids():
    codec = WireCodec(["P", "Q", "R"])
    payloads = [
        RemoteCopy(ref=ObjectId("P", 1), dest_holder=ObjectId("Q", 2), pin_holder="R", seq=4),
        UpdatePayload(distances=((ObjectId("R", 3), 2),), removals=(ObjectId("P", 9),)),
        BackCall(TraceId("P", 0), ObjectId("Q", 5), FrameId("R", 0), seq=1),
    ]
    batch = [(10.0, Message(src="P", dst="Q", payload=p)) for p in payloads]
    decoded = [message.payload for _, message in codec.unpack_blob(codec.pack_routed(batch))]
    assert decoded == payloads
    copy, update, call = decoded
    assert {type(copy.ref), type(copy.dest_holder)} == {ObjectId}
    assert type(update.distances[0][0]) is ObjectId and type(update.removals[0]) is ObjectId
    assert (type(call.trace_id), type(call.target), type(call.reply_to)) == (
        TraceId,
        ObjectId,
        FrameId,
    )


def test_equal_valued_trace_and_frame_ids_stay_apart_in_the_engine():
    """A cycles32-shaped ring: 3 objects at each of 8 sites, cut loose.

    Each engine numbers traces and frames from 0 at its own site, so
    ``TraceId(s, 0) == FrameId(s, 0)`` whenever a site initiates a trace.
    The engine keeps them in separate maps; a verdict must still come back
    and the ring must be reclaimed.
    """
    sites = [f"c{i}" for i in range(8)]
    sim = make_sim(sites=sites, auto_gc=True)
    ring = build_ring_cycle(sim, sites, objects_per_site=3)
    sim.run_for(300.0)
    ring.make_garbage(sim)
    collided = False
    while sim.now < 3000.0 and any(
        sim.site(oid.site).heap.maybe_get(oid) is not None for oid in ring.cycle
    ):
        sim.run_for(10.0)
        for site in sim.sites.values():
            engine = site.engine
            frames, traces = set(engine._frames), set(engine._records)
            assert all(type(key) is FrameId for key in frames)
            assert all(type(key) is TraceId for key in traces)
            assert all(type(key) is TraceId for key in engine._frames_by_trace)
            collided = collided or bool(frames & traces)
    assert collided, "no site ever held a frame and a trace with equal values"
    assert any(verdict is TraceOutcome.GARBAGE for *_, verdict in sim.trace_outcomes)
    assert all(sim.site(oid.site).heap.maybe_get(oid) is None for oid in ring.cycle)
