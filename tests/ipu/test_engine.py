"""Tests for the BSP engine: semantics, costs, and mode equivalence."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import Interval, TileMapping
from repro.ipu.oplib import (
    AddToScalar,
    Fill,
    ScalarCompare,
    SortRowsDescending,
    WriteScalar,
)
from repro.ipu.programs import (
    Copy,
    Execute,
    If,
    Nop,
    Program,
    Repeat,
    RepeatWhileTrue,
    Sequence,
)
from repro.ipu.spec import IPUSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _counter_graph(spec):
    """Graph with a counter and compute sets to increment/compare it."""
    graph = ComputeGraph(spec)
    counter = graph.add_scalar("counter")
    flag = graph.add_scalar("flag")
    inc = graph.add_compute_set("inc")
    inc.add_vertex(
        AddToScalar(), 0, {"out": ComputeGraph.full(counter)}, params={"value": 1}
    )
    check = graph.add_compute_set("check")
    check.add_vertex(
        ScalarCompare("lt", 5),
        0,
        {"a": ComputeGraph.full(counter), "flag": ComputeGraph.full(flag)},
    )
    return graph, counter, flag, inc, check


class TestControlFlow:
    def test_repeat_runs_fixed_count(self, toy_spec):
        graph, counter, _, inc, _ = _counter_graph(toy_spec)
        engine = Engine(graph, Repeat(7, Execute(inc)))
        engine.run()
        assert counter.read_host()[0] == 7

    def test_repeat_zero_runs_nothing(self, toy_spec):
        graph, counter, _, inc, _ = _counter_graph(toy_spec)
        engine = Engine(graph, Repeat(0, Execute(inc)))
        engine.run()
        assert counter.read_host()[0] == 0

    def test_while_loop_terminates_on_condition(self, toy_spec):
        graph, counter, flag, inc, check = _counter_graph(toy_spec)
        body = Sequence(Execute(inc), Execute(check))
        program = Sequence(Execute(check), RepeatWhileTrue(flag, body))
        engine = Engine(graph, program)
        engine.run()
        assert counter.read_host()[0] == 5

    def test_while_loop_guard_raises(self, toy_spec):
        graph, counter, flag, inc, check = _counter_graph(toy_spec)
        flag.write_host(1)
        # Body never clears the flag.
        program = RepeatWhileTrue(flag, Execute(inc), max_iterations=10)
        engine = Engine(graph, program)
        with pytest.raises(ExecutionError, match="exceeded"):
            engine.run()

    def test_if_then_branch(self, toy_spec):
        graph, counter, flag, inc, _ = _counter_graph(toy_spec)
        flag.write_host(1)
        Engine(graph, If(flag, Execute(inc))).run()
        assert counter.read_host()[0] == 1

    def test_if_else_branch(self, toy_spec):
        graph, counter, flag, inc, _ = _counter_graph(toy_spec)
        other = graph.add_scalar("other")
        dec = graph.add_compute_set("dec")
        dec.add_vertex(
            AddToScalar(), 0, {"out": ComputeGraph.full(other)}, params={"value": -1}
        )
        Engine(graph, If(flag, Execute(inc), Execute(dec))).run()
        assert counter.read_host()[0] == 0
        assert other.read_host()[0] == -1

    def test_if_without_else_skips(self, toy_spec):
        graph, counter, flag, inc, _ = _counter_graph(toy_spec)
        Engine(graph, If(flag, Execute(inc))).run()
        assert counter.read_host()[0] == 0

    def test_while_loop_overflow_message(self, toy_spec):
        graph, _, flag, inc, _ = _counter_graph(toy_spec)
        flag.write_host(1)
        engine = Engine(graph, RepeatWhileTrue(flag, Execute(inc), max_iterations=3))
        with pytest.raises(
            ExecutionError,
            match=r"^RepeatWhileTrue on 'flag' exceeded 3 iterations$",
        ):
            engine.run()

    def test_unknown_program_node_rejected_at_construction(self, toy_spec):
        class Mystery(Program):
            def compute_sets(self):
                return ()

        graph, *_ = _counter_graph(toy_spec)
        with pytest.raises(ExecutionError, match="unknown program node Mystery"):
            Engine(graph, Sequence(Nop(), Mystery()))

    def test_rebinding_buffer_between_runs_invalidates_views(self, toy_spec):
        # The bound schedule caches zero-copy views; a buffer rebind between
        # two runs must send the second run's writes to the new buffer.
        graph, counter, _, inc, _ = _counter_graph(toy_spec)
        engine = Engine(graph, Repeat(2, Execute(inc)))
        engine.run()
        old_buffer = counter.data
        counter.data = np.array([10.0], dtype=counter.dtype)
        engine.run()
        assert counter.read_host()[0] == 12
        assert old_buffer[0] == 2

    def test_nop(self, toy_spec):
        graph, *_ = _counter_graph(toy_spec)
        report = Engine(graph, Nop()).run()
        assert report.supersteps == 0

    def test_copy_moves_data_and_charges_exchange(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        a = graph.add_tensor(
            "a", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        b = graph.add_tensor(
            "b", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        a.write_host(np.array([1, 2, 3, 4]))
        report = Engine(graph, Copy(a, b)).run()
        assert list(b.read_host()) == [1, 2, 3, 4]
        assert report.exchange_bytes == 16


class TestReentrancy:
    def test_reentrant_run_raises(self, toy_spec):
        # Regression: a second run() while one was in flight silently
        # cross-wired the in-flight run's profiler/tracer/metrics state
        # (the inner run's finally nulled them out from under the outer).
        seen = []

        class Reentering(AddToScalar):
            def compute_all(self, views, params, cost):
                # Re-enter once, from inside the first superstep.
                if not seen:
                    seen.append(True)
                    with pytest.raises(ExecutionError, match="not reentrant"):
                        engine.run()
                return super().compute_all(views, params, cost)

        graph = ComputeGraph(toy_spec)
        counter = graph.add_scalar("counter")
        inc = graph.add_compute_set("inc")
        inc.add_vertex(
            Reentering(), 0, {"out": ComputeGraph.full(counter)}, params={"value": 1}
        )
        engine = Engine(graph, Repeat(3, Execute(inc)))
        report = engine.run()  # the outer run must be unharmed
        assert seen == [True]
        assert counter.read_host()[0] == 3
        assert report.supersteps > 0

    def test_engine_is_reusable_after_reentrancy_error(self, toy_spec):
        graph, counter, _, inc, _ = _counter_graph(toy_spec)
        engine = Engine(graph, Repeat(2, Execute(inc)))
        engine._running = True
        with pytest.raises(ExecutionError, match="lease one engine"):
            engine.run()
        engine._running = False
        engine.run()
        assert counter.read_host()[0] == 2


class TestLifetime:
    def test_discarded_engine_is_freed_without_a_collection(self, toy_spec):
        # The bound schedule must not reference its engine: a cycle would
        # keep every discarded engine (and its plans) alive until a full
        # garbage collection, raising peak memory for compile-per-solve use.
        graph, _, flag, inc, check = _counter_graph(toy_spec)
        program = Sequence(
            Execute(check),
            RepeatWhileTrue(flag, Sequence(Execute(inc), Execute(check))),
            If(flag, Execute(inc), Nop()),
        )
        engine = Engine(graph, program)
        engine.run(tracer=Tracer(), metrics=MetricsRegistry())
        alive = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert alive() is None
        finally:
            gc.enable()


class TestCostAccounting:
    def test_superstep_charges_all_three_phases(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (8,), np.float32, mapping=TileMapping.single_tile(8, tile=1)
        )
        compute_set = graph.add_compute_set("remote")
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}, params={"value": 1}
        )
        report = Engine(graph, Execute(compute_set)).run()
        record = report.record_named("remote")
        assert record.compute_seconds > 0
        assert record.sync_seconds > 0
        assert record.exchange_seconds > 0
        assert record.exchange_bytes == 32

    def test_compute_cost_is_slowest_tile(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x",
            (40,),
            np.float32,
            mapping=TileMapping(
                40,
                # Tile 0 gets 4 elements, tile 1 gets 36: imbalance.
                (Interval(0, 0, 4), Interval(1, 4, 40)),
            ),
        )
        compute_set = graph.add_compute_set("unbalanced")
        fill = Fill()
        compute_set.add_vertex(
            fill, 0, {"data": ComputeGraph.span(tensor, 0, 4)}, params={"value": 1}
        )
        compute_set.add_vertex(
            fill, 1, {"data": ComputeGraph.span(tensor, 4, 40)}, params={"value": 2}
        )
        report = Engine(graph, Execute(compute_set)).run()

        # Compare against a balanced split of the same total work.
        graph2 = ComputeGraph(toy_spec)
        tensor2 = graph2.add_tensor(
            "x", (40,), np.float32,
            mapping=TileMapping.linear_segments(40, 20, [0, 1]),
        )
        compute_set2 = graph2.add_compute_set("balanced")
        for index in range(2):
            compute_set2.add_vertex(
                fill,
                index,
                {"data": ComputeGraph.span(tensor2, index * 20, (index + 1) * 20)},
                params={"value": 1},
            )
        report2 = Engine(graph2, Execute(compute_set2)).run()
        unbalanced = report.record_named("unbalanced").compute_seconds
        balanced = report2.record_named("balanced").compute_seconds
        assert unbalanced > balanced  # C3: the slowest tile sets the pace

    def test_host_io_charged_through_engine(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "x", (1000,), np.float32, mapping=TileMapping.single_tile(1000)
        )
        compute_set = graph.add_compute_set("fill")
        compute_set.add_vertex(
            Fill(), 0, {"data": ComputeGraph.full(tensor)}, params={"value": 1}
        )
        engine = Engine(graph, Execute(compute_set))
        # write_tensor outside run() is free (profiler inactive)...
        engine.write_tensor(tensor, np.zeros(1000, dtype=np.float32))
        report = engine.run()
        assert report.host_io_seconds == 0.0

    def test_profiler_reset_between_runs(self, toy_spec):
        graph, counter, _, inc, _ = _counter_graph(toy_spec)
        engine = Engine(graph, Execute(inc))
        first = engine.run()
        second = engine.run()
        assert first.supersteps == second.supersteps == 1
        assert counter.read_host()[0] == 2


class TestModeEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(rows=st.integers(1, 6), seed=st.integers(0, 500))
    def test_batched_and_per_tile_agree(self, rows, seed):
        spec = IPUSpec.toy(num_tiles=4)
        cols = 8
        results = []
        for mode in ("batched", "per_tile"):
            graph = ComputeGraph(spec)
            matrix = graph.add_tensor(
                "m",
                (rows * 4, cols),
                np.int32,
                mapping=TileMapping.row_blocks((rows * 4, cols), range(4)),
            )
            compute_set = graph.add_compute_set("sort")
            sorter = SortRowsDescending()
            for tile in range(4):
                compute_set.add_vertex(
                    sorter,
                    tile,
                    {"block": ComputeGraph.rows(matrix, tile * rows, (tile + 1) * rows)},
                    params={"cols": cols},
                )
            engine = Engine(graph, Execute(compute_set), mode=mode)
            data = np.random.default_rng(seed).integers(
                -9, 9, (rows * 4, cols), dtype=np.int32
            )
            matrix.write_host(data)
            report = engine.run()
            results.append((matrix.read_host(), report.device_seconds))
        (data_a, time_a), (data_b, time_b) = results
        assert np.array_equal(data_a, data_b)
        assert time_a == pytest.approx(time_b, rel=1e-12)

    def test_unknown_mode_rejected(self, toy_spec):
        graph, _, _, inc, _ = _counter_graph(toy_spec)
        with pytest.raises(ExecutionError, match="unknown engine mode"):
            Engine(graph, Execute(inc), mode="warp")
