"""Tests for compile-time checks and execution planning."""

import numpy as np
import pytest

from repro.errors import CompilationError, TileMemoryError
from repro.ipu.compiler import compile_graph
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import Fill, VecReduce
from repro.ipu.programs import Execute, Sequence
from repro.ipu.spec import IPUSpec


def _filled_graph(spec, *, tile=0, size=4):
    graph = ComputeGraph(spec)
    tensor = graph.add_tensor(
        "x", (size,), np.int32, mapping=TileMapping.single_tile(size, tile)
    )
    compute_set = graph.add_compute_set("fill")
    compute_set.add_vertex(
        Fill(), tile, {"data": ComputeGraph.full(tensor)}, params={"value": 1}
    )
    return graph, Execute(compute_set)


class TestChecks:
    def test_unmapped_tensor_rejected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        graph.add_tensor("dangling", (4,), np.int32)
        with pytest.raises(CompilationError, match="unmapped"):
            compile_graph(graph, Sequence())

    def test_tile_out_of_range_rejected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=99)
        )
        with pytest.raises(CompilationError, match="tile 99"):
            compile_graph(graph, Sequence())

    def test_memory_budget_enforced(self):
        spec = IPUSpec(num_tiles=2, tile_memory_bytes=64)
        graph = ComputeGraph(spec)
        graph.add_tensor(
            "big", (100,), np.float64, mapping=TileMapping.single_tile(100)
        )
        with pytest.raises(TileMemoryError, match="C2"):
            compile_graph(graph, Sequence())

    def test_memory_budget_counts_all_tensors_on_tile(self):
        spec = IPUSpec(num_tiles=2, tile_memory_bytes=100)
        graph = ComputeGraph(spec)
        graph.add_tensor("a", (10,), np.float64, mapping=TileMapping.single_tile(10))
        graph.add_tensor("b", (10,), np.float64, mapping=TileMapping.single_tile(10))
        with pytest.raises(TileMemoryError):
            compile_graph(graph, Sequence())

    def test_vertex_tile_out_of_range(self, toy_spec):
        graph, _ = _filled_graph(toy_spec)
        tensor = graph.tensor("x")
        bad = graph.add_compute_set("bad")
        bad.add_vertex(
            Fill(), toy_spec.num_tiles, {"data": ComputeGraph.full(tensor)},
            params={"value": 0},
        )
        with pytest.raises(CompilationError, match="placed on tile"):
            compile_graph(graph, Execute(bad))

    def test_empty_compute_set_rejected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        empty = graph.add_compute_set("empty")
        with pytest.raises(CompilationError, match="no vertices"):
            compile_graph(graph, Execute(empty))

    def test_foreign_tensor_rejected(self, toy_spec):
        graph_a = ComputeGraph(toy_spec)
        graph_b = ComputeGraph(toy_spec)
        foreign = graph_b.add_tensor(
            "f", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph_a.add_compute_set("cs")
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(foreign)}, params={"value": 0}
        )
        with pytest.raises(CompilationError, match="another graph"):
            compile_graph(graph_a, Execute(compute_set))

    def test_overlapping_writes_rejected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("race")
        fill = Fill()
        compute_set.add_vertex(
            fill, 0, {"data": ComputeGraph.span(tensor, 0, 3)}, params={"value": 1}
        )
        compute_set.add_vertex(
            fill, 1, {"data": ComputeGraph.span(tensor, 2, 4)}, params={"value": 2}
        )
        with pytest.raises(CompilationError, match="data race"):
            compile_graph(graph, Execute(compute_set))

    def test_overlapping_reads_allowed(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        source = graph.add_tensor(
            "s", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        out = graph.add_tensor(
            "o", (2,), np.int32, mapping=TileMapping.linear_segments(2, 1, [0, 1])
        )
        compute_set = graph.add_compute_set("reduce")
        reduce = VecReduce("sum")
        for index in range(2):
            compute_set.add_vertex(
                reduce,
                index,
                {
                    "data": ComputeGraph.full(source),
                    "out": ComputeGraph.span(out, index, index + 1),
                },
            )
        compile_graph(graph, Execute(compute_set))  # no error


class TestPlans:
    def test_uniform_compute_set_is_batched(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (8,), np.int32, mapping=TileMapping.linear_segments(8, 2, range(4))
        )
        compute_set = graph.add_compute_set("fill")
        fill = Fill()
        for index in range(4):
            compute_set.add_vertex(
                fill,
                index,
                {"data": ComputeGraph.span(tensor, index * 2, index * 2 + 2)},
                params={"value": index},
            )
        compiled = compile_graph(graph, Execute(compute_set))
        plan = compiled.plan_for(compute_set)
        assert plan.batched
        assert not plan.field_plans["data"].broadcast

    def test_mixed_codelets_fall_back(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        compute_set = graph.add_compute_set("mixed")
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.span(tensor, 0, 2)}, params={"value": 1}
        )
        compute_set.add_vertex(
            VecReduce("sum"),
            0,
            {
                "data": ComputeGraph.span(tensor, 0, 2),
                "out": ComputeGraph.span(tensor, 2, 3),
            },
        )
        compiled = compile_graph(graph, Execute(compute_set))
        assert not compiled.plan_for(compute_set).batched

    def test_non_uniform_lengths_fall_back(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (5,), np.int32, mapping=TileMapping.single_tile(5)
        )
        compute_set = graph.add_compute_set("uneven")
        fill = Fill()
        compute_set.add_vertex(
            fill, 0, {"data": ComputeGraph.span(tensor, 0, 3)}, params={"value": 1}
        )
        compute_set.add_vertex(
            fill, 1, {"data": ComputeGraph.span(tensor, 3, 5)}, params={"value": 2}
        )
        compiled = compile_graph(graph, Execute(compute_set))
        assert not compiled.plan_for(compute_set).batched

    def test_broadcast_read_detected(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        source = graph.add_tensor(
            "s", (4,), np.int32, mapping=TileMapping.single_tile(4)
        )
        out = graph.add_tensor(
            "o", (2,), np.int32, mapping=TileMapping.linear_segments(2, 1, [0, 1])
        )
        compute_set = graph.add_compute_set("bcast")
        reduce = VecReduce("max")
        for index in range(2):
            compute_set.add_vertex(
                reduce,
                index,
                {
                    "data": ComputeGraph.full(source),
                    "out": ComputeGraph.span(out, index, index + 1),
                },
            )
        compiled = compile_graph(graph, Execute(compute_set))
        plan = compiled.plan_for(compute_set)
        assert plan.field_plans["data"].broadcast
        assert not plan.field_plans["out"].broadcast

    def test_exchange_bytes_planned(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        compute_set = graph.add_compute_set("remote_fill")
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}, params={"value": 1}
        )
        compiled = compile_graph(graph, Execute(compute_set))
        assert compiled.plan_for(compute_set).exchange_bytes == 16

    def test_worker_slots_round_robin(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (12,), np.int32, mapping=TileMapping.single_tile(12)
        )
        compute_set = graph.add_compute_set("many")
        fill = Fill()
        for index in range(8):
            compute_set.add_vertex(
                fill,
                0,
                {"data": ComputeGraph.span(tensor, index, index + 1)},
                params={"value": index},
            )
        compiled = compile_graph(graph, Execute(compute_set))
        slots = compiled.plan_for(compute_set).worker_slots
        # 8 vertices on one 6-thread tile: slots 0..5 then wrap to 0, 1.
        assert list(slots) == [0, 1, 2, 3, 4, 5, 0, 1]


class TestExchangeTotalsPinned:
    """Summed static exchange over every plan of a HunIPU graph.

    The expected figures were recorded with the per-interval Python scan
    that preceded the vectorized per-compute-set pass; any drift here is a
    modeled-cost change, not a refactor.
    """

    @pytest.mark.parametrize(
        ("system", "size", "cold", "warm"),
        [
            ("mk2", 16, (10980, 0), (13020, 0)),
            ("mk2", 64, (118868, 0), (151756, 0)),
            ("toy-cluster", 16, (5180, 2876), (6188, 3452)),
        ],
    )
    def test_summed_exchange_and_inter_ipu_bytes(self, system, size, cold, warm):
        from repro.core.solver import CompiledInstance
        from repro.ipu.cluster import ClusterSpec

        spec = IPUSpec.mk2() if system == "mk2" else ClusterSpec.toy().system()
        compiled = CompiledInstance(size, spec, np.dtype(np.float64), "batched")
        for engine, expected in ((compiled.engine, cold), (compiled.warm_engine, warm)):
            plans = engine.compiled.plans.values()
            assert (
                sum(plan.exchange_bytes for plan in plans),
                sum(plan.inter_ipu_bytes for plan in plans),
            ) == expected
            for plan in plans:
                assert sum(plan.exchange_by_tensor.values()) == plan.exchange_bytes
