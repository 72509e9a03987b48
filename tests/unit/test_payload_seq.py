"""``with_seq`` stamps a sequence number and copies every other field.

``Site.send`` and the reliable update channel build the stamped copy of a
sequenced payload with its own ``with_seq``; a field left out there would
silently drop data from every sequenced message, so each one is checked
against ``dataclasses.replace``, which copies fields by reflection.
"""

import dataclasses

import pytest

from repro.core.termination import TRIAL_PAYLOADS
from repro.gc.update import UpdateDeltaPayload, UpdatePayload
from repro.net.message import Payload
from repro.site.site import _SEQUENCED_MUTATIONS

SEQUENCED = _SEQUENCED_MUTATIONS + TRIAL_PAYLOADS + (UpdatePayload, UpdateDeltaPayload)


@pytest.mark.parametrize("cls", SEQUENCED, ids=lambda cls: cls.__name__)
def test_with_seq_matches_replace(cls):
    # A distinct marker in every field, so a dropped or swapped field shows.
    payload = cls(
        **{
            f.name: -1 if f.name == "seq" else object()
            for f in dataclasses.fields(cls)
            if f.init
        }
    )
    stamped = payload.with_seq(7)
    assert type(stamped) is cls and stamped.seq == 7
    expected = dataclasses.replace(payload, seq=7)
    for f in dataclasses.fields(cls):
        assert getattr(stamped, f.name) is getattr(expected, f.name), f.name


def test_payload_without_seq_refuses_with_seq():
    with pytest.raises(NotImplementedError):
        Payload().with_seq(1)
