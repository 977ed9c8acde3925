"""Tests for control-program nodes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.spec import IPUSpec
from repro.ipu.programs import (
    Copy,
    Execute,
    If,
    Nop,
    Repeat,
    RepeatWhileTrue,
    Sequence,
)


@pytest.fixture
def graph(toy_spec):
    return ComputeGraph(toy_spec)


class TestSequence:
    def test_flattens_iterables(self, graph):
        cs1 = graph.add_compute_set("a")
        cs2 = graph.add_compute_set("b")
        seq = Sequence([Execute(cs1)], Execute(cs2))
        assert [cs.name for cs in seq.compute_sets()] == ["a", "b"]

    def test_nested_collection(self, graph):
        cs = graph.add_compute_set("a")
        outer = Sequence(Sequence(Execute(cs)), Nop())
        assert outer.compute_sets() == (cs,)


class TestRepeat:
    def test_rejects_negative_count(self, graph):
        with pytest.raises(GraphConstructionError):
            Repeat(-1, Nop())

    def test_collects_body_compute_sets(self, graph):
        cs = graph.add_compute_set("a")
        assert Repeat(3, Execute(cs)).compute_sets() == (cs,)


class TestRepeatWhile:
    def test_condition_must_be_scalar(self, graph):
        vector = graph.add_tensor(
            "v", (3,), np.int32, mapping=TileMapping.single_tile(3)
        )
        with pytest.raises(GraphConstructionError, match="one-element"):
            RepeatWhileTrue(vector, Nop())

    def test_rejects_zero_max_iterations(self, graph):
        flag = graph.add_scalar("flag")
        with pytest.raises(GraphConstructionError):
            RepeatWhileTrue(flag, Nop(), max_iterations=0)


class TestIf:
    def test_collects_both_branches(self, graph):
        flag = graph.add_scalar("flag")
        cs1 = graph.add_compute_set("a")
        cs2 = graph.add_compute_set("b")
        node = If(flag, Execute(cs1), Execute(cs2))
        assert set(cs.name for cs in node.compute_sets()) == {"a", "b"}

    def test_else_optional(self, graph):
        flag = graph.add_scalar("flag")
        cs = graph.add_compute_set("a")
        assert If(flag, Execute(cs)).compute_sets() == (cs,)


class TestCopy:
    def test_size_mismatch_rejected(self, graph):
        a = graph.add_tensor("a", (2,), np.int32, mapping=TileMapping.single_tile(2))
        b = graph.add_tensor("b", (3,), np.int32, mapping=TileMapping.single_tile(3))
        with pytest.raises(GraphConstructionError, match="size mismatch"):
            Copy(a, b)

    def test_dtype_mismatch_rejected(self, graph):
        a = graph.add_tensor("a", (2,), np.int32, mapping=TileMapping.single_tile(2))
        b = graph.add_tensor(
            "b", (2,), np.float32, mapping=TileMapping.single_tile(2)
        )
        with pytest.raises(GraphConstructionError, match="dtype mismatch"):
            Copy(a, b)

    def test_same_tile_copy_is_exchange_free(self, graph):
        a = graph.add_tensor("a", (4,), np.int32, mapping=TileMapping.single_tile(4))
        b = graph.add_tensor("b", (4,), np.int32, mapping=TileMapping.single_tile(4))
        assert Copy(a, b).exchange_bytes() == 0

    def test_cross_tile_copy_counts_bytes(self, graph):
        a = graph.add_tensor(
            "a", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        b = graph.add_tensor(
            "b", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        assert Copy(a, b).exchange_bytes() == 16

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 40),
        segments=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        owners=st.tuples(
            st.lists(st.integers(0, 7), min_size=1, max_size=8),
            st.lists(st.integers(0, 7), min_size=1, max_size=8),
        ),
        tiles_per_ipu=st.sampled_from((None, 4)),
    )
    def test_split_matches_per_element_reference(
        self, size, segments, owners, tiles_per_ipu
    ):
        graph = ComputeGraph(IPUSpec.toy(num_tiles=8))
        src, dst = (
            graph.add_tensor(
                name,
                (size,),
                np.float64,
                mapping=TileMapping.linear_segments(size, segment, tiles),
            )
            for name, segment, tiles in zip(("src", "dst"), segments, owners)
        )

        def owner(tensor):
            flat = np.empty(size, dtype=np.int64)
            for interval in tensor.mapping.intervals:
                flat[interval.start : interval.stop] = interval.tile
            return flat

        src_tile, dst_tile = owner(src), owner(dst)
        total = int(np.count_nonzero(src_tile != dst_tile)) * 8
        inter = 0
        if tiles_per_ipu is not None:
            crossing = src_tile // tiles_per_ipu != dst_tile // tiles_per_ipu
            inter = int(np.count_nonzero(crossing)) * 8
        assert Copy(src, dst).exchange_bytes_split(tiles_per_ipu) == (total, inter)

    def test_shape_change_allowed(self, graph):
        a = graph.add_tensor("a", (2, 2), np.int32, mapping=TileMapping.single_tile(4))
        b = graph.add_tensor("b", (4,), np.int32, mapping=TileMapping.single_tile(4))
        Copy(a, b)  # no error
