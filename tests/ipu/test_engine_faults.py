"""Failure-injection tests: the engine must fail loudly, not silently."""

import numpy as np
import pytest

from repro.errors import ExecutionError, GraphConstructionError
from repro.ipu.codelets import Codelet
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import AddToScalar
from repro.ipu.programs import Execute


class _BadCycleShape(Codelet):
    """Returns a malformed cycle array (one entry too many)."""

    fields = {"data": "inout"}

    def compute_all(self, views, params, cost):
        views["data"][...] = 0
        return np.zeros(views["data"].shape[0] + 1)


class _NonNumericCycles(Codelet):
    fields = {"data": "inout"}

    def compute_all(self, views, params, cost):
        return np.array(["not", "cycles"])


class _Raises(Codelet):
    """Blows up mid-compute, like a buggy kernel would."""

    fields = {"data": "inout"}

    def compute_all(self, views, params, cost):
        raise RuntimeError("boom")


class _Fine(Codelet):
    fields = {"data": "inout"}

    def compute_all(self, views, params, cost):
        return np.zeros(views["data"].shape[0])


def _vertex_graph(toy_spec, codelets):
    """One compute set ``cs``: vertex *i* runs ``codelets[i]`` on tile *i*."""
    graph = ComputeGraph(toy_spec)
    count = len(codelets)
    tensor = graph.add_tensor(
        "x",
        (4 * count,),
        np.int32,
        mapping=TileMapping.linear_segments(4 * count, 4, range(count)),
    )
    compute_set = graph.add_compute_set("cs")
    for tile, codelet in enumerate(codelets):
        compute_set.add_vertex(
            codelet, tile, {"data": ComputeGraph.span(tensor, 4 * tile, 4 * tile + 4)}
        )
    return graph, Execute(compute_set)


class TestCodeletContractEnforcement:
    def test_wrong_cycle_shape_batched(self, toy_spec):
        graph, program = _vertex_graph(toy_spec, [_BadCycleShape()])
        engine = Engine(graph, program)
        with pytest.raises(ExecutionError, match="cycle array"):
            engine.run()

    def test_wrong_cycle_shape_per_tile(self, toy_spec):
        graph, program = _vertex_graph(toy_spec, [_BadCycleShape()])
        engine = Engine(graph, program, mode="per_tile")
        with pytest.raises(ExecutionError, match="cycle array"):
            engine.run()

    def test_non_numeric_cycles_rejected(self, toy_spec):
        graph, program = _vertex_graph(toy_spec, [_NonNumericCycles()])
        engine = Engine(graph, program)
        with pytest.raises((ExecutionError, ValueError)):
            engine.run()

    @pytest.mark.parametrize(
        "codelets", [(_Raises,), (_Fine, _Raises)], ids=["single", "mixed"]
    )
    @pytest.mark.parametrize("mode", ["batched", "per_tile"])
    def test_raising_codelet_wrapped_with_compute_set_name(
        self, toy_spec, mode, codelets
    ):
        """A codelet exception surfaces as ExecutionError naming the
        codelet and compute set, with the original as __cause__ — also in
        a compute set that mixes codelets."""
        graph, program = _vertex_graph(toy_spec, [cls() for cls in codelets])
        engine = Engine(graph, program, mode=mode)
        with pytest.raises(ExecutionError, match=r"_Raises.*'cs'") as excinfo:
            engine.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "boom" in str(excinfo.value)


class TestCodeletDefinition:
    def test_compute_all_below_a_bind_override_is_rejected(self):
        """The engine runs the kernel ``bind`` returns, so this
        ``compute_all`` would be silently bypassed."""
        with pytest.raises(GraphConstructionError, match="override bind"):

            class _Bypassed(AddToScalar):
                def compute_all(self, views, params, cost):
                    return np.zeros(views["out"].shape[0])

    def test_bind_override_below_a_bind_override_is_accepted(self):
        class _Rebound(AddToScalar):
            def bind(self, params, cost, tensors=None):
                return super().bind(params, cost, tensors)

        assert _Rebound().name == "_Rebound"

    def test_compute_all_below_a_compute_all_codelet_is_accepted(self):
        class _Quiet(_Fine):
            def compute_all(self, views, params, cost):
                return np.ones(views["data"].shape[0])

        assert _Quiet().name == "_Quiet"


class TestStatePollution:
    def test_failed_run_does_not_wedge_the_engine(self, toy_spec):
        """After a fault, the engine can run a fresh program cleanly."""
        graph, program = _vertex_graph(toy_spec, [_BadCycleShape()])
        engine = Engine(graph, program)
        with pytest.raises(ExecutionError):
            engine.run()
        # The profiler must not leak across runs.
        assert engine._profiler is None
