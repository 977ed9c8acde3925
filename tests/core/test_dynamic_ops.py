"""Property tests for partition-and-distribute dynamic slicing (Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_ops import SENTINEL, DynSliceSegment, DynStore, segment_owners
from repro.errors import GraphConstructionError
from repro.ipu.codelets import CostContext

COST = CostContext()


def _segment_starts(total: int, segment: int) -> list[int]:
    return list(range(0, total, segment))


class TestDynSlice:
    @settings(max_examples=50, deadline=None)
    @given(
        total=st.integers(1, 64),
        segment=st.integers(1, 16),
        index=st.data(),
        seed=st.integers(0, 500),
    )
    def test_matches_plain_indexing(self, total, segment, index, seed):
        """Fig. 4: distributed slice == data[index] for any layout."""
        gen = np.random.default_rng(seed)
        data = gen.integers(-1, 50, total).astype(np.int32)
        target = index.draw(st.integers(0, total - 1))
        starts = _segment_starts(total, segment)
        # Emulate one vertex per segment; pad the last segment's view.
        outs = []
        for start in starts:
            stop = min(start + segment, total)
            out = np.full((1, 1), 99, dtype=np.int32)
            DynSliceSegment().compute_all(
                {
                    "state": np.array([[0, target, 0, 0]]),
                    "data": data[start:stop].reshape(1, -1),
                    "out": out,
                },
                {"start": np.array([float(start)]), "slot": np.array([1.0])},
                COST,
            )
            outs.append(int(out[0, 0]))
        winners = [value for value in outs if value != SENTINEL]
        assert winners == [int(data[target])]

    def test_non_owner_writes_sentinel(self):
        out = np.zeros((1, 1), dtype=np.int32)
        DynSliceSegment().compute_all(
            {
                "state": np.array([[7]]),
                "data": np.array([[5, 6]], dtype=np.int32),
                "out": out,
            },
            {"start": np.array([0.0]), "slot": np.array([0.0])},
            COST,
        )
        assert out[0, 0] == SENTINEL

    def test_batched_vertices_single_owner(self):
        """All segments processed in one batched call: one owner."""
        data = np.arange(12, dtype=np.int32).reshape(4, 3)  # 4 segments of 3
        out = np.zeros((4, 1), dtype=np.int32)
        state = np.broadcast_to(np.array([[0, 0, 7, 0]]), (4, 4))
        cycles = DynSliceSegment().compute_all(
            {"state": state, "data": data, "out": out},
            {
                "start": np.array([0.0, 3.0, 6.0, 9.0]),
                "slot": np.array([2.0] * 4),
            },
            COST,
        )
        assert list(out[:, 0]) == [SENTINEL, SENTINEL, 7, SENTINEL]
        # The owner pays the dynamic access, the others only the check.
        assert cycles[2] > cycles[0]


class TestDynStore:
    @settings(max_examples=50, deadline=None)
    @given(
        total=st.integers(1, 48),
        segment=st.integers(1, 12),
        index=st.data(),
        value=st.integers(-5, 99),
    )
    def test_matches_plain_store(self, total, segment, index, value):
        data = np.zeros(total, dtype=np.int32)
        target = index.draw(st.integers(0, total - 1))
        starts = _segment_starts(total, segment)
        for start in starts:
            stop = min(start + segment, total)
            view = data[start:stop].reshape(1, -1)
            DynStore().compute_all(
                {"sel": np.array([[target, value]]), "data": view},
                {
                    "start": np.array([float(start)]),
                    "index_slot": np.array([0.0]),
                    "value_slot": np.array([1.0]),
                },
                COST,
            )
        expected = np.zeros(total, dtype=np.int32)
        expected[target] = value
        assert np.array_equal(data, expected)

    def test_const_value_store(self):
        data = np.ones((1, 4), dtype=np.int32)
        DynStore().compute_all(
            {"sel": np.array([[0, 0, 0, 2]]), "data": data},
            {
                "start": np.array([0.0]),
                "index_slot": np.array([3.0]),
                "value_slot": np.array([-1.0]),
                "const_value": np.array([0.0]),
            },
            COST,
        )
        assert list(data[0]) == [1, 1, 0, 1]

    def test_const_store_requires_const_param(self):
        with pytest.raises(GraphConstructionError, match="const_value"):
            DynStore().compute_all(
                {"sel": np.array([[0]]), "data": np.zeros((1, 2), dtype=np.int32)},
                {
                    "start": np.array([0.0]),
                    "index_slot": np.array([0.0]),
                    "value_slot": np.array([-1.0]),
                },
                COST,
            )

    def test_out_of_range_index_is_noop(self):
        data = np.zeros((1, 4), dtype=np.int32)
        DynStore().compute_all(
            {"sel": np.array([[77, 5]]), "data": data},
            {
                "start": np.array([0.0]),
                "index_slot": np.array([0.0]),
                "value_slot": np.array([1.0]),
            },
            COST,
        )
        assert data.sum() == 0


class TestSegmentOwners:
    @settings(max_examples=100, deadline=None)
    @given(
        starts=st.lists(st.integers(-5, 40), min_size=1, max_size=12),
        length=st.integers(1, 8),
        index=st.integers(-10, 50),
    )
    def test_matches_the_parallel_range_check(self, starts, length, index):
        """Unsorted, duplicate or overlapping segments: same owners."""
        starts = np.array(starts, dtype=np.float64)
        local = index - starts.astype(np.int64)
        expected = [
            (int(vertex), int(local[vertex]))
            for vertex in np.flatnonzero((local >= 0) & (local < length))
        ]
        assert sorted(segment_owners(starts)(index, length)) == expected
