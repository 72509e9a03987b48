"""``DedupWindow`` against a reference model: the set of sequences seen.

The window keeps only a contiguous frontier plus the arrivals above a gap,
so each answer it gives must match what a plain set of everything recorded
would say.  Under FIFO arrival (duplicates allowed) the sparse set is never
allocated at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.reliability import DedupWindow


def _frontier(seen):
    high = 0
    while high + 1 in seen:
        high += 1
    return high


def _check_against_model(window, seen):
    high = _frontier(seen)
    assert window.high_water == high
    assert window.pending_gaps == sum(1 for seq in seen if seq > high)
    for seq in range(1, max(seen, default=0) + 3):
        assert window.was_seen(seq) == (seq in seen)


# Sequences 1..n, each delivered one to three times, in any order.
arrivals = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(
        st.integers(min_value=1, max_value=3), min_size=n, max_size=n
    ).flatmap(
        lambda copies: st.permutations(
            [seq for seq, k in enumerate(copies, start=1) for _ in range(k)]
        )
    )
)


@given(arrivals)
@settings(max_examples=300, deadline=None)
def test_any_arrival_order_matches_set_model(order):
    window = DedupWindow()
    seen = set()
    for seq in order:
        assert window.seen(seq) == (seq in seen)
        seen.add(seq)
        _check_against_model(window, seen)
    # Every sequence arrived at least once, so no gap is left open.
    assert window._pending is None


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=5)),
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_fifo_arrivals_never_allocate_the_gap_set(steps):
    # FIFO: each step either delivers the next fresh sequence or re-delivers
    # one already seen (a retransmission or fault-plan duplicate).
    window = DedupWindow()
    seen = set()
    for fresh, back in steps:
        if fresh or not seen:
            seq = len(seen) + 1
        else:
            seq = max(1, len(seen) - back)
        assert window.seen(seq) == (seq in seen)
        seen.add(seq)
        assert window._pending is None
        _check_against_model(window, seen)
