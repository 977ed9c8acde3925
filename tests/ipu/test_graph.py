"""Tests for computation-graph construction."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompilationError, GraphConstructionError
from repro.ipu.codelets import Codelet
from repro.ipu.compiler import compile_graph
from repro.ipu.graph import ComputeGraph, ComputeSet, Connection, Vertex
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import Fill
from repro.ipu.programs import Execute
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


def _add_vertex(compute_set, codelet, tile, regions):
    compute_set.add_vertex(codelet, tile, regions)


def _add_vertices(compute_set, codelet, tile, regions):
    """A valid vertex (tile 0, element 0) first, then the given one."""
    compute_set.add_vertices(
        codelet,
        [0, tile],
        {
            field: (tensor, [0, start], [1, stop])
            for field, (tensor, start, stop) in regions.items()
        },
    )


#: The two ways to place vertices; both raise the same construction errors.
_ENTRY_POINTS = pytest.mark.parametrize(
    "place", [_add_vertex, _add_vertices], ids=["add_vertex", "add_vertices"]
)


class TestVertices:
    @_ENTRY_POINTS
    def test_field_signature_enforced(self, toy_spec, place):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        message = (
            "vertex of Fill connects fields ['wrong_name'] but the codelet "
            "declares ['data']"
        )
        with pytest.raises(GraphConstructionError, match=re.escape(message)):
            place(compute_set, Fill(), 0, {"wrong_name": (tensor, 0, 4)})
        assert compute_set.num_vertices == 0

    @_ENTRY_POINTS
    def test_negative_tile_rejected(self, toy_spec, place):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        with pytest.raises(GraphConstructionError, match="^negative tile id -1$"):
            place(compute_set, Fill(), -1, {"data": (tensor, 0, 4)})

    @_ENTRY_POINTS
    def test_out_of_bounds_region_rejected(self, toy_spec, place):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        message = "connection [2, 6) out of bounds for tensor 'x' of size 4"
        with pytest.raises(GraphConstructionError, match=re.escape(message)):
            place(compute_set, Fill(), 1, {"data": (tensor, 2, 6)})

    def test_first_offending_vertex_named(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        # Vertex 1's region is out of bounds, vertex 2's tile is negative:
        # vertex 1 is reported, as a vertex-by-vertex placement would.
        with pytest.raises(GraphConstructionError, match=re.escape("[3, 5)")):
            compute_set.add_vertices(
                Fill(), [0, 1, -2], {"data": (tensor, [0, 3, 1], [1, 5, 2])}
            )
        with pytest.raises(GraphConstructionError, match="negative tile id -2"):
            compute_set.add_vertices(
                Fill(), [0, -2, 1], {"data": (tensor, [0, 1, 3], [1, 2, 5])}
            )

    def test_columns_must_match_tile_count(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("cs")
        with pytest.raises(GraphConstructionError, match="starts has shape"):
            compute_set.add_vertices(Fill(), [0, 1], {"data": (tensor, [0, 1, 2], 3)})
        with pytest.raises(GraphConstructionError, match="param 'value'"):
            compute_set.add_vertices(
                Fill(), [0, 1], {"data": (tensor, [0, 2], [2, 4])}, {"value": [1]}
            )

    def test_vertices_view_follows_placement_order(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (6,), np.int32, mapping=TileMapping.single_tile(6)
        )
        compute_set = graph.add_compute_set("cs")
        fill = Fill()
        compute_set.add_vertices(
            fill,
            [2, 3],
            {"data": (tensor, [0, 2], [2, 4])},
            {"value": np.array([7, 8])},
        )
        compute_set.add_vertex(
            fill, 1, {"data": ComputeGraph.span(tensor, 4, 6)}, {"value": 9}
        )
        assert compute_set.num_vertices == 3
        assert [
            (v.tile, tuple(v.connections["data"][1:]), v.params["value"])
            for v in compute_set.vertices
        ] == [(2, (0, 2), 7), (3, (2, 4), 8), (1, (4, 6), 9)]
        assert type(compute_set.vertices[0].params["value"]) is int

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
        compute_set.add_vertex(
            Fill(), 1, {"data": ComputeGraph.full(tensor)}
        )
        (vertex,) = compute_set.vertices
        assert vertex.exchange_bytes() == 0

    def test_remote_connection_counted(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        compute_set = graph.add_compute_set("cs")
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}
        )
        (vertex,) = compute_set.vertices
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
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}
        )
        (vertex,) = compute_set.vertices
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
        compute_set = ComputeSet("cs", 0)
        for vertex in vertices:
            compute_set.add_vertex(vertex.codelet, vertex.tile, vertex.connections)
        account = compute_set.exchange(tiles_per_ipu)
        assert (account.total, account.inter_ipu) == (total, inter)
        # Key order is part of the contract (first moving connection).
        assert list(account.by_tensor.items()) == list(by_tensor.items())
        assert sum(
            vertex.exchange_bytes_split(tiles_per_ipu)[0] for vertex in vertices
        ) == total


class _ReadWrite(Codelet):
    fields = {"a": "in", "b": "out", "c": "inout"}

    def compute_all(self, views, params, cost):  # pragma: no cover
        return None


@st.composite
def _column_case(draw):
    """A compute set of 1-4 placement calls, each ``add_vertex`` or
    ``add_vertices``, over 1-3 tensors on up to 8 tiles; tiles repeat, and
    regions are per-vertex or shared.  Returns the graph, the compute set,
    the vertices as ``(tile, {field: (tensor, start, stop)})`` in placement
    order, and the chip size."""
    ipus = draw(st.sampled_from((1, 2)))
    graph = ComputeGraph(IPUSpec.toy(num_tiles=_TILES // ipus, num_ipus=ipus))
    kinds = ("row_blocks", "grid_blocks", "linear_segments", "per_element")
    tensors = []
    for index in range(draw(st.integers(1, 3))):
        mapping = draw(_mapping(draw(st.sampled_from(kinds))))
        dtype = draw(st.sampled_from((np.int8, np.int32, np.float64)))
        tensors.append(
            graph.add_tensor(f"t{index}", (mapping.size,), dtype, mapping=mapping)
        )

    def region(tensor):
        start = draw(st.integers(0, tensor.size - 1))
        return start, draw(st.integers(start + 1, min(tensor.size, start + 4)))

    unwritten = {tensor: 0 for tensor in tensors}  # first never-written element
    careful = draw(st.booleans())  # prefer writes no other vertex touches

    def fresh(tensor, count):
        """``count`` back-to-back regions no earlier write touched."""
        lengths = [draw(st.integers(1, 2)) for _ in range(count)]
        if unwritten[tensor] + sum(lengths) > tensor.size:
            return None
        bounds = unwritten[tensor] + np.cumsum([0, *lengths])
        unwritten[tensor] = int(bounds[-1])
        return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))

    compute_set = graph.add_compute_set("cs")
    codelet = _ReadWrite()
    expected = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(1, 4))
        tiles = [draw(st.integers(0, _TILES - 1)) for _ in range(count)]
        columns, per_vertex = {}, {}
        for field, direction in codelet.fields.items():
            tensor = draw(st.sampled_from(tensors))
            spans = None
            if direction != "in" and (careful or draw(st.booleans())):
                spans = fresh(tensor, count)
            if spans is None and (count == 1 or draw(st.booleans())):
                spans = [region(tensor)] * count  # one region every vertex shares
            if spans is None:
                spans = [region(tensor) for _ in range(count)]
            if len(set(spans)) == 1:
                columns[field] = (tensor, *spans[0])
            else:
                columns[field] = (
                    tensor, [span[0] for span in spans], [span[1] for span in spans]
                )
            per_vertex[field] = [(tensor, *span) for span in spans]
        if count == 1 and draw(st.booleans()):
            compute_set.add_vertex(
                codelet,
                tiles[0],
                {field: Connection(*columns[field]) for field in codelet.fields},
            )
        else:
            compute_set.add_vertices(codelet, tiles, columns)
        for index, tile in enumerate(tiles):
            expected.append(
                (tile, {field: per_vertex[field][index] for field in codelet.fields})
            )
    return graph, compute_set, expected, _TILES // ipus if ipus > 1 else None


def _races(expected, directions):
    """Brute force: two vertices write overlapping elements of one tensor."""
    writes = [
        (vertex, tensor, start, stop)
        for vertex, (_, regions) in enumerate(expected)
        for field, (tensor, start, stop) in regions.items()
        if directions[field] != "in"
    ]
    return any(
        tensor is other and max(start, other_start) < min(stop, other_stop)
        for at, (vertex, tensor, start, stop) in enumerate(writes)
        for (_, other, other_start, other_stop) in writes[at + 1 :]
    )


class TestColumnsProperty:
    @settings(max_examples=300, deadline=None)
    @given(_column_case())
    def test_compile_matches_per_vertex_reference(self, case):
        graph, compute_set, expected, tiles_per_ipu = case
        assert [
            (vertex.tile, {f: tuple(c) for f, c in vertex.connections.items()})
            for vertex in compute_set.vertices
        ] == expected
        vertices = compute_set.vertices
        total, inter, by_tensor = _reference_account(vertices, tiles_per_ipu)
        account = compute_set.exchange(tiles_per_ipu)
        assert (account.total, account.inter_ipu) == (total, inter)
        # Key order is part of the contract (first moving connection).
        assert list(account.by_tensor.items()) == list(by_tensor.items())
        assert sum(vertex.exchange_bytes() for vertex in compute_set.vertices) == (
            _reference_account(compute_set.vertices, None)[0]
        )
        if _races(expected, _ReadWrite.fields):
            race = r"overlapping write .*\(data race, C1\)"
            with pytest.raises(CompilationError, match=race):
                compile_graph(graph, Execute(compute_set))
            return
        plan = compile_graph(graph, Execute(compute_set)).plan_for(compute_set)
        seen: dict[int, int] = {}
        slots = []
        for tile, _ in expected:
            slots.append(seen.get(tile, 0) % graph.spec.threads_per_tile)
            seen[tile] = seen.get(tile, 0) + 1
        assert plan.worker_slots.tolist() == slots
        assert (plan.exchange_bytes, plan.inter_ipu_bytes) == (total, inter)
        assert list(plan.exchange_by_tensor.items()) == list(by_tensor.items())


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
