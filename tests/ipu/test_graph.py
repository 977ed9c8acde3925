"""Tests for computation-graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet
from repro.ipu.graph import ComputeGraph, Connection, Vertex, exchange_account
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import Fill
from repro.ipu.spec import IPUSpec


class TestTensors:
    def test_duplicate_names_rejected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        graph.add_tensor("x", (2,), np.int32)
        with pytest.raises(GraphConstructionError, match="duplicate"):
            graph.add_tensor("x", (3,), np.int32)

    def test_lookup(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (2,), np.int32)
        assert graph.tensor("x") is tensor

    def test_lookup_missing(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        with pytest.raises(GraphConstructionError, match="no tensor"):
            graph.tensor("nope")

    def test_add_scalar_maps_to_tile(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        scalar = graph.add_scalar("flag", tile=2)
        assert scalar.size == 1
        assert scalar.mapping.tile_of(0) == 2

    def test_graph_id_stamped(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (2,), np.int32)
        assert tensor.graph_id == graph.graph_id


class TestConnections:
    def test_full_and_span(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (4,), np.int32)
        assert ComputeGraph.full(tensor).length == 4
        assert ComputeGraph.span(tensor, 1, 3).length == 2

    def test_rows_helper(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        matrix = graph.add_tensor("m", (4, 3), np.float32)
        connection = ComputeGraph.rows(matrix, 1, 3)
        assert (connection.start, connection.stop) == (3, 9)

    def test_rows_rejects_vector(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        vector = graph.add_tensor("v", (4,), np.float32)
        with pytest.raises(GraphConstructionError, match="2-D"):
            ComputeGraph.rows(vector, 0, 1)

    def test_connection_bounds(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (4,), np.int32)
        with pytest.raises(GraphConstructionError):
            Connection(tensor, 2, 6)

    def test_connection_negative_start(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (4,), np.int32)
        with pytest.raises(GraphConstructionError, match="out of bounds"):
            Connection(tensor, -1, 2)

    def test_connection_empty_span(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (4,), np.int32)
        with pytest.raises(GraphConstructionError, match="out of bounds"):
            Connection(tensor, 2, 2)

    def test_connection_inverted_span(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor("x", (4,), np.int32)
        with pytest.raises(GraphConstructionError, match="out of bounds"):
            Connection(tensor, 3, 1)


class TestVertices:
    def test_field_signature_enforced(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        with pytest.raises(GraphConstructionError, match="connects fields"):
            compute_set.add_vertex(
                Fill(), 0, {"wrong_name": ComputeGraph.full(tensor)}
            )

    def test_negative_tile_rejected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        with pytest.raises(GraphConstructionError, match="negative tile"):
            compute_set.add_vertex(Fill(), -1, {"data": ComputeGraph.full(tensor)})

    def test_codelet_names_deduplicated(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        fill = Fill()
        compute_set.add_vertex(fill, 0, {"data": ComputeGraph.span(tensor, 0, 2)})
        compute_set.add_vertex(fill, 1, {"data": ComputeGraph.span(tensor, 2, 4)})
        assert compute_set.codelets == ("Fill",)


class TestExchangeAccounting:
    def test_local_connection_free(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        compute_set = graph.add_compute_set("cs")
        vertex = compute_set.add_vertex(
            Fill(), 1, {"data": ComputeGraph.full(tensor)}
        )
        assert vertex.exchange_bytes() == 0

    def test_remote_connection_counted(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        compute_set = graph.add_compute_set("cs")
        vertex = compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}
        )
        assert vertex.exchange_bytes() == 16

    def test_partial_overlap_counted(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x",
            (4,),
            np.int32,
            mapping=TileMapping.linear_segments(4, 2, [0, 1]),
        )
        compute_set = graph.add_compute_set("cs")
        vertex = compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}
        )
        # Elements 2..3 live on tile 1: 2 * 4 bytes cross the fabric.
        assert vertex.exchange_bytes() == 8


class _ThreeInputs(Codelet):
    fields = {"a": "in", "b": "in", "c": "in"}

    def compute_all(self, views, params, cost):  # pragma: no cover
        return None


#: Two 4-tile chips: every mapping below may straddle the chip boundary.
_TILES = 8


@st.composite
def _mapping(draw, kind):
    tiles = draw(st.permutations(range(_TILES)))
    if kind == "row_blocks":
        rows = draw(st.integers(1, 9))
        cols = draw(st.integers(1, 5))
        used = draw(st.integers(1, _TILES))
        return TileMapping.row_blocks((rows, cols), tiles[:used])
    if kind == "grid_blocks":
        rows = draw(st.integers(2, 8))
        cols = draw(st.integers(2, 8))
        grid = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        return TileMapping.grid_blocks((rows, cols), grid, tiles)
    if kind == "linear_segments":
        size = draw(st.integers(1, 60))
        segment = draw(st.integers(1, 8))
        used = draw(st.integers(1, _TILES))
        return TileMapping.linear_segments(size, segment, tiles[:used])
    owners = draw(st.lists(st.integers(0, _TILES - 1), min_size=1, max_size=24))
    return TileMapping.per_element(owners)


@st.composite
def _exchange_case(draw):
    graph = ComputeGraph(IPUSpec.toy(num_tiles=_TILES))
    kinds = ("row_blocks", "grid_blocks", "linear_segments", "per_element")
    tensors = []
    for index in range(draw(st.integers(1, 3))):
        mapping = draw(_mapping(draw(st.sampled_from(kinds))))
        dtype = draw(st.sampled_from((np.int8, np.int32, np.float64)))
        tensors.append(
            graph.add_tensor(f"t{index}", (mapping.size,), dtype, mapping=mapping)
        )

    def region(tensor):
        shape = draw(st.sampled_from(("full", "single", "span")))
        if shape == "full":  # broadcast when several vertices share it
            return ComputeGraph.full(tensor)
        start = draw(st.integers(0, tensor.size - 1))
        if shape == "single":
            return ComputeGraph.span(tensor, start, start + 1)
        stop = draw(st.integers(start + 1, tensor.size))
        return ComputeGraph.span(tensor, start, stop)

    codelet = _ThreeInputs()
    vertices = [
        Vertex(
            codelet,
            draw(st.integers(0, _TILES - 1)),
            {field: region(draw(st.sampled_from(tensors))) for field in "abc"},
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return vertices, draw(st.sampled_from((None, _TILES // 2)))


def _reference_account(vertices, tiles_per_ipu):
    """Per-element brute force: expand every mapping to element -> tile."""
    total = inter = 0
    by_tensor: dict[str, int] = {}
    for vertex in vertices:
        for connection in vertex.connections.values():
            tensor = connection.tensor
            owner = np.empty(tensor.size, dtype=np.int64)
            for interval in tensor.mapping.intervals:
                owner[interval.start : interval.stop] = interval.tile
            region = owner[connection.start : connection.stop]
            itemsize = tensor.dtype.itemsize
            moved = int(np.count_nonzero(region != vertex.tile)) * itemsize
            total += moved
            if tiles_per_ipu is not None:
                crossing = region // tiles_per_ipu != vertex.tile // tiles_per_ipu
                inter += int(np.count_nonzero(crossing)) * itemsize
            if moved:
                by_tensor[tensor.name] = by_tensor.get(tensor.name, 0) + moved
    return total, inter, by_tensor


class TestExchangeAccountProperty:
    @settings(max_examples=300, deadline=None)
    @given(_exchange_case())
    def test_matches_per_element_reference(self, case):
        vertices, tiles_per_ipu = case
        total, inter, by_tensor = _reference_account(vertices, tiles_per_ipu)
        account = exchange_account(vertices, tiles_per_ipu)
        assert (account.total, account.inter_ipu) == (total, inter)
        # Key order is part of the contract (first moving connection).
        assert list(account.by_tensor.items()) == list(by_tensor.items())
        assert sum(
            vertex.exchange_bytes_split(tiles_per_ipu)[0] for vertex in vertices
        ) == total


class TestCodeletValidation:
    def test_codelet_without_fields_rejected(self):
        class Empty(Codelet):
            fields = {}

            def compute_all(self, views, params, cost):  # pragma: no cover
                return None

        with pytest.raises(GraphConstructionError, match="no fields"):
            Empty()

    def test_codelet_with_bad_direction_rejected(self):
        class Bad(Codelet):
            fields = {"x": "sideways"}

            def compute_all(self, views, params, cost):  # pragma: no cover
                return None

        with pytest.raises(GraphConstructionError, match="invalid direction"):
            Bad()
