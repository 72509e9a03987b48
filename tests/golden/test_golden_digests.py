"""Re-derive every golden cell and compare it with the pinned digests.

The pins were taken before object ids became tuples, so a pass here proves
the change left events, heaps, counters and trace verdicts untouched.
"""

import pytest

from tests.golden.cells import CELLS, pinned


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_pinned_digests(name):
    assert CELLS[name]() == pinned()[name]


def test_matrix_exercises_back_tracing_and_sharding():
    digests = pinned()
    assert set(digests) == set(CELLS)
    assert digests["rings12"]["traces"] > 0
    # The sharded churn runs are byte-identical to their sequential twin,
    # also when most cross-shard records spill out of 1 KiB rings.
    for name in ("churn32_2w", "churn32_4w", "churn32_4w_spill"):
        assert digests[name] == digests["churn32_seq"]
