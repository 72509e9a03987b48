"""The ``Message`` envelope and the per-class payload ``kind``.

``Message`` is a plain slotted class; it must keep the value semantics the
frozen dataclass it replaced had -- equality and hash over all five fields,
fresh ``uid`` per envelope, pickling for forked workers, wire round trips --
and ``Message.kind`` must read the same name ``Payload.kind()`` reports for
every payload class in the package.
"""

import importlib
import pickle
import pkgutil

import repro
from repro.gc.update import UpdateAck
from repro.net.message import Message, Payload
from repro.net.wire import WireCodec


def _all_payload_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, stack = [], [Payload]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.append(sub)
            stack.append(sub)
    return found


def test_kind_is_the_class_name_for_every_payload():
    classes = _all_payload_classes()
    names = {cls.__name__ for cls in classes}
    # Mutation, update, back-trace and termination-collector payloads.
    assert {"RemoteCopy", "UpdatePayload", "BackCall", "TrialMark"} <= names
    for cls in classes:
        assert cls.kind() == cls.__name__
        assert cls._kind == cls.__name__
    assert Payload.kind() == "Payload"


def test_envelope_kind_reads_the_payload_class():
    assert Message("a", "b", UpdateAck(seq=3)).kind == "UpdateAck"
    assert str(Message("a", "b", UpdateAck(seq=3))) == "UpdateAck(a->b)"


def test_uid_is_fresh_per_envelope_unless_given():
    payload = UpdateAck(seq=1)
    first, second = Message("a", "b", payload), Message("a", "b", payload)
    assert first.uid != second.uid
    assert first != second
    assert Message("a", "b", payload, uid=41).uid == 41
    assert Message("a", "b", payload).dup is False


def test_equality_and_hash_are_by_value_over_all_fields():
    payload = UpdateAck(seq=1)
    message = Message("a", "b", payload, uid=5, dup=True)
    twin = Message(src="a", dst="b", payload=UpdateAck(seq=1), uid=5, dup=True)
    assert message == twin and hash(message) == hash(twin)
    assert hash(message) == hash(("a", "b", payload, 5, True))
    assert message != Message("a", "b", payload, uid=5, dup=False)
    assert message != Message("a", "c", payload, uid=5, dup=True)
    assert message != ("a", "b", payload, 5, True)
    assert len({message, twin}) == 1


def test_envelope_has_no_instance_dict():
    assert not hasattr(Message("a", "b", UpdateAck(seq=1)), "__dict__")


def test_pickle_round_trip_keeps_uid_and_dup():
    message = Message("a", "b", UpdateAck(seq=9), dup=True)
    clone = pickle.loads(pickle.dumps(message))
    assert clone == message
    assert (clone.uid, clone.dup) == (message.uid, True)
    assert repr(clone) == repr(message)


def test_wire_round_trip():
    codec = WireCodec(["a", "b"])
    batch = [(3.5, Message("a", "b", UpdateAck(seq=2), dup=True))]
    [(deliver_at, decoded)] = codec.unpack_blob(codec.pack_routed(batch))
    assert deliver_at == 3.5
    assert type(decoded) is Message and decoded == batch[0][1]
