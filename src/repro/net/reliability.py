"""At-least-once delivery primitives: sequence windows for duplicate
suppression.

Protocol hardening (section 4.6) turns the network's at-most-once delivery
into at-least-once for update messages (sequence-numbered, ack'd,
retransmitted) -- which makes *duplicate* delivery a first-class event every
receiver must tolerate.  Senders stamp a per-(sender, receiver) contiguous
sequence number on each protocol payload; receivers run a
:class:`DedupWindow` per sender.

The window is exact under both FIFO and non-FIFO delivery: it tracks the
highest sequence below which everything has been seen (``high_water``) plus
the sparse set of out-of-order arrivals above it, so a duplicate is detected
even when it overtakes fresher traffic.  Under per-pair FIFO delivery (the
default, assumption R1) the sparse set is never even allocated: an
in-order arrival advances ``high_water`` directly.
"""

from __future__ import annotations

from typing import Optional, Set


class DedupWindow:
    """Tracks which contiguous sequence numbers from one sender were seen.

    Sequence numbers start at 1 and are allocated contiguously by the
    sender; ``seen`` returns True for a duplicate and records first-time
    arrivals.  ``_pending`` (arrivals above a gap) exists only while such a
    gap is open.
    """

    __slots__ = ("high_water", "_pending")

    def __init__(self) -> None:
        self.high_water = 0
        self._pending: Optional[Set[int]] = None

    def seen(self, seq: int) -> bool:
        """Record ``seq``; True iff it was already delivered before."""
        high = self.high_water
        pending = self._pending
        if pending is None:
            if seq == high + 1:
                self.high_water = seq
                return False
            if seq <= high:
                return True
            self._pending = {seq}
            return False
        if seq <= high or seq in pending:
            return True
        pending.add(seq)
        while high + 1 in pending:
            high += 1
            pending.discard(high)
        self.high_water = high
        if not pending:
            self._pending = None
        return False

    def was_seen(self, seq: int) -> bool:
        """Non-marking query: was ``seq`` already recorded by :meth:`seen`?

        The delta-update gap check needs to distinguish "duplicate of a
        payload we applied" (re-ack it) from "duplicate of a payload we
        rejected as a gap" (keep refusing -- an ack would cancel the
        sender's retransmission ladder, which is the repair backstop), so
        gap-rejected sequences are deliberately never recorded.
        """
        if seq <= self.high_water:
            return True
        return self._pending is not None and seq in self._pending

    @property
    def pending_gaps(self) -> int:
        """Out-of-order arrivals still above the contiguous frontier."""
        return 0 if self._pending is None else len(self._pending)
