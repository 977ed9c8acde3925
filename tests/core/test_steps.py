"""Step-level tests: each HunIPU step against a numpy reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import build_compress, compress_rows_host
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.core.steps import (
    build_prime_update,
    build_search_reset,
    build_step1,
    build_step2,
    build_step3,
    build_step4,
)
from repro.core.steps.step4_prime_search import StatusArgmaxFinal, StatusArgmaxPartial
from repro.ipu.codelets import CostContext
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.oplib import Fill
from repro.ipu.programs import Copy, Execute, Repeat, Sequence
from repro.ipu.spec import IPUSpec


def _fresh(n, num_tiles=4, dtype=np.float64):
    spec = IPUSpec.toy(num_tiles=num_tiles)
    plan = MappingPlan.for_size(n, spec)
    graph = ComputeGraph(spec)
    state = SolverState.build(graph, plan, np.dtype(dtype), 1e-11)
    return spec, plan, graph, state


def _run(graph, program):
    return Engine(graph, program).run()


class TestStep1:
    @pytest.mark.parametrize("n", [1, 3, 8, 12])
    def test_double_subtraction_matches_numpy(self, n, rng):
        spec, plan, graph, state = _fresh(n)
        program = build_step1(graph, state, plan)
        costs = rng.uniform(1, 100, (n, n))
        state.initialize_host(costs)
        _run(graph, program)
        expected = costs - costs.min(axis=1, keepdims=True)
        expected -= expected.min(axis=0, keepdims=True)
        assert np.allclose(state.slack.read_host(), expected)

    def test_slack_non_negative_with_zero_per_line(self, rng):
        n = 10
        spec, plan, graph, state = _fresh(n)
        program = build_step1(graph, state, plan)
        state.initialize_host(rng.uniform(5, 50, (n, n)))
        _run(graph, program)
        slack = state.slack.read_host()
        assert slack.min() >= -1e-12
        assert np.all(slack.min(axis=1) <= 1e-12)  # a zero in every row
        assert np.all(slack.min(axis=0) <= 1e-12)  # a zero in every column


class TestCompressProgram:
    def test_device_compression_matches_host(self, rng):
        n = 12
        spec, plan, graph, state = _fresh(n)
        program = build_compress(graph, state, plan)
        slack = rng.choice([0.0, 1.0, 3.0], size=(n, n))
        state.initialize_host(slack)
        _run(graph, program)
        expected_compress, expected_counts = compress_rows_host(
            slack, spec.threads_per_tile, tol=1e-11
        )
        assert np.array_equal(state.compress.read_host(), expected_compress)
        assert np.array_equal(state.zero_count.read_host(), expected_counts)


class TestStep2:
    def test_initial_matching_is_valid_and_maximal_greedy(self, rng):
        n = 12
        spec, plan, graph, state = _fresh(n)
        compress = build_compress(graph, state, plan)
        step2 = build_step2(graph, state, plan)
        costs = rng.uniform(1, 50, (n, n))
        slack = costs - costs.min(axis=1, keepdims=True)
        slack -= slack.min(axis=0, keepdims=True)
        state.initialize_host(slack)
        _run(graph, Sequence(compress, step2))
        row_star = state.row_star.read_host()
        col_star = state.col_star.read_host()[:n]
        # Consistency: stars form a partial matching on zeros.
        for row, col in enumerate(row_star):
            if col >= 0:
                assert slack[row, col] <= 1e-9
                assert col_star[col] == row
        starred_cols = [c for c in row_star if c >= 0]
        assert len(starred_cols) == len(set(starred_cols))
        # Greedy maximality: no uncovered zero between two unstarred lines.
        free_rows = [r for r in range(n) if row_star[r] < 0]
        free_cols = [c for c in range(n) if col_star[c] < 0]
        for row in free_rows:
            for col in free_cols:
                assert slack[row, col] > 1e-9

    def test_tau_sweep_count_matches_max_zeros_per_row(self, rng):
        """The greedy loop runs exactly τ = max zeros-per-row sweeps."""
        n = 12
        spec, plan, graph, state = _fresh(n)
        compress = build_compress(graph, state, plan)
        step2 = build_step2(graph, state, plan)
        slack = rng.choice([0.0, 1.0], size=(n, n), p=[0.25, 0.75])
        state.initialize_host(slack)
        _run(graph, Sequence(compress, step2))
        tau = int((slack <= 1e-11).sum(axis=1).max())
        assert state.tau.read_host()[0] == tau
        assert state.step2_iter.read_host()[0] == tau

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect: SortRowsDescending sorts each compressed row as a "
            "whole, so until Step 6 recompresses, the per-segment front-packed "
            "layout zero_count describes no longer holds and ZeroStatusScan "
            "can miss uncovered zeros (ROADMAP open item)"
        ),
    )
    def test_compress_layout_survives_step2(self, rng):
        n = 12
        spec, plan, graph, state = _fresh(n)
        compress = build_compress(graph, state, plan)
        step2 = build_step2(graph, state, plan)
        slack = rng.choice([0.0, 1.0, 3.0], size=(n, n))
        state.initialize_host(slack)
        _run(graph, Sequence(compress, step2))
        expected_compress, _ = compress_rows_host(
            slack, spec.threads_per_tile, tol=1e-11
        )
        assert np.array_equal(state.compress.read_host(), expected_compress)

    def test_all_zero_matrix_gets_perfect_initial_matching(self):
        n = 8
        spec, plan, graph, state = _fresh(n)
        compress = build_compress(graph, state, plan)
        step2 = build_step2(graph, state, plan)
        state.initialize_host(np.zeros((n, n)))
        _run(graph, Sequence(compress, step2))
        row_star = state.row_star.read_host()
        assert sorted(row_star.tolist()) == list(range(n))


class TestStep3:
    def test_covers_columns_with_stars_and_counts(self):
        n = 8
        spec, plan, graph, state = _fresh(n)
        step3 = build_step3(graph, state, plan)
        state.initialize_host(np.ones((n, n)))
        stars = np.full(state.col_star.size, -1, dtype=np.int32)
        stars[2] = 0
        stars[5] = 1
        state.col_star.write_host(stars)
        _run(graph, step3)
        cover = state.col_cover.read_host()[:n]
        assert list(np.flatnonzero(cover)) == [2, 5]
        assert state.covered_count.read_host()[0] == 2
        assert state.not_done.read_host()[0] == 1

    def test_complete_assignment_clears_not_done(self):
        n = 8
        spec, plan, graph, state = _fresh(n)
        step3 = build_step3(graph, state, plan)
        state.initialize_host(np.ones((n, n)))
        stars = np.full(state.col_star.size, -1, dtype=np.int32)
        stars[:n] = np.arange(n)
        state.col_star.write_host(stars)
        _run(graph, step3)
        assert state.covered_count.read_host()[0] == n
        assert state.not_done.read_host()[0] == 0

    def test_search_reset_clears_row_state(self):
        n = 8
        spec, plan, graph, state = _fresh(n)
        reset = build_search_reset(graph, state, plan)
        state.initialize_host(np.ones((n, n)))
        state.row_cover.write_host(1)
        state.row_prime.write_host(3)
        _run(graph, reset)
        assert state.row_cover.read_host().sum() == 0
        assert np.all(state.row_prime.read_host() == -1)
        assert state.inner_cond.read_host()[0] == 1


class TestStep4:
    def _prepare(self, n, slack, row_star, row_cover, col_cover):
        spec, plan, graph, state = _fresh(n)
        compress = build_compress(graph, state, plan)
        step4 = build_step4(graph, state, plan)
        state.initialize_host(slack)
        _run(graph, compress)
        state.row_star.write_host(row_star)
        state.row_cover.write_host(row_cover)
        covers = np.zeros(state.col_cover.size, dtype=np.int32)
        covers[: n] = col_cover
        state.col_cover.write_host(covers)
        _run(graph, step4)
        return state

    def test_status_minus_one_when_all_covered(self):
        n = 4
        slack = np.ones((n, n))
        slack[0, 0] = 0.0
        state = self._prepare(
            n,
            slack,
            row_star=np.full(n, -1, dtype=np.int32),
            row_cover=np.zeros(n, dtype=np.int32),
            col_cover=np.array([1, 0, 0, 0], dtype=np.int32),  # covers the zero
        )
        assert state.max_status.read_host()[0] == -1
        assert state.flag_update.read_host()[0] == 1
        assert state.flag_aug.read_host()[0] == 0

    def test_status_one_selects_augmentable_row(self):
        n = 4
        slack = np.ones((n, n))
        slack[2, 1] = 0.0
        state = self._prepare(
            n,
            slack,
            row_star=np.full(n, -1, dtype=np.int32),
            row_cover=np.zeros(n, dtype=np.int32),
            col_cover=np.zeros(n, dtype=np.int32),
        )
        assert state.max_status.read_host()[0] == 1
        sel = state.sel.read_host()
        assert list(sel) == [1, 2, 1, -1]  # status, row, zero col, no star

    def test_status_zero_reports_star_column(self):
        n = 4
        slack = np.ones((n, n))
        slack[1, 3] = 0.0
        row_star = np.array([-1, 2, -1, -1], dtype=np.int32)  # row 1 starred at col 2
        state = self._prepare(
            n,
            slack,
            row_star=row_star,
            row_cover=np.zeros(n, dtype=np.int32),
            col_cover=np.zeros(n, dtype=np.int32),
        )
        assert state.max_status.read_host()[0] == 0
        sel = state.sel.read_host()
        assert list(sel) == [0, 1, 3, 2]

    def test_covered_rows_are_ignored(self):
        n = 4
        slack = np.ones((n, n))
        slack[0, 0] = 0.0
        state = self._prepare(
            n,
            slack,
            row_star=np.full(n, -1, dtype=np.int32),
            row_cover=np.array([1, 0, 0, 0], dtype=np.int32),
            col_cover=np.zeros(n, dtype=np.int32),
        )
        assert state.max_status.read_host()[0] == -1

    # The bound scan keeps its scan list while compress/zero_count's write
    # counters stand still; every way those tensors change must move them.

    def _two_layouts(self, n, spec):
        """Compress layouts with one zero at (0, 0), and at (2, 1)."""
        layouts = []
        for row, col in ((0, 0), (2, 1)):
            slack = np.ones((n, n))
            slack[row, col] = 0.0
            layouts.append(compress_rows_host(slack, spec.threads_per_tile, 1e-11))
        return layouts

    def _open_state(self, state, n):
        state.row_star.write_host(np.full(n, -1, dtype=np.int32))
        state.row_cover.write_host(np.zeros(n, dtype=np.int32))
        state.col_cover.write_host(np.zeros(state.col_cover.size, dtype=np.int32))

    def test_cached_scan_sees_host_writes_between_runs(self):
        n = 4
        spec, plan, graph, state = _fresh(n)
        engine = Engine(graph, build_step4(graph, state, plan))
        self._open_state(state, n)
        for (compress, counts), want in zip(
            self._two_layouts(n, spec), ([1, 0, 0, -1], [1, 2, 1, -1])
        ):
            state.compress.write_host(compress)
            state.zero_count.write_host(counts)
            engine.run()
            assert list(state.sel.read_host()) == want

    def test_cached_scan_sees_a_copy_into_compress(self):
        n = 4
        spec, plan, graph, state = _fresh(n)
        step4 = build_step4(graph, state, plan)
        spare = [
            graph.add_tensor(
                f"spare/{tensor.name}",
                tensor.shape,
                tensor.dtype,
                mapping=tensor.require_mapping(),
            )
            for tensor in (state.compress, state.zero_count)
        ]
        # The same bound scan runs twice; the copies between its runs swap
        # in the second layout.
        program = Repeat(
            2,
            Sequence(
                step4,
                Copy(spare[0], state.compress),
                Copy(spare[1], state.zero_count),
            ),
        )
        (first, first_counts), (second, second_counts) = self._two_layouts(n, spec)
        state.compress.write_host(first)
        state.zero_count.write_host(first_counts)
        spare[0].write_host(second)
        spare[1].write_host(second_counts)
        self._open_state(state, n)
        _run(graph, program)
        assert list(state.sel.read_host()) == [1, 2, 1, -1]

    @pytest.mark.parametrize(
        "written,start,stop,want",
        [
            # A star appears in row 2: its status drops from 1 to 0.
            ("row_star", 2, 3, [0, 2, 1, 0]),
            # Another writer clobbers tile 2's partial: the scan rewrites it.
            ("step4/partials", 8, 12, [1, 2, 1, -1]),
        ],
        ids=["input-row-star", "output-partials"],
    )
    def test_cached_scan_sees_foreign_writes(self, written, start, stop, want):
        # Between two runs of one bound scan neither compress nor the
        # column covers change, so only the write counters of row_star and
        # of the outputs tell the scan that its rows are stale.
        n = 4
        spec, plan, graph, state = _fresh(n)
        step4 = build_step4(graph, state, plan)
        tensor = next(t for t in graph.tensors if t.name == written)
        clobber = graph.add_compute_set("clobber")
        clobber.add_vertex(
            Fill(), 0, {"data": ComputeGraph.span(tensor, start, stop)},
            params={"value": 0 if written == "row_star" else 5},
        )
        slack = np.ones((n, n))
        slack[2, 1] = 0.0
        state.initialize_host(slack)
        _run(graph, build_compress(graph, state, plan))
        self._open_state(state, n)
        _run(graph, Repeat(2, Sequence(step4, Execute(clobber))))
        assert list(state.sel.read_host()) == want

    @settings(max_examples=100, deadline=None)
    @given(
        statuses=st.lists(st.integers(-1, 1), min_size=1, max_size=9),
        seed=st.integers(0, 1000),
    )
    def test_argmax_picks_max_status_then_lowest_row(self, statuses, seed):
        """Any tile order: max status wins, the lowest row breaks ties."""
        tiles = len(statuses)
        rows = np.random.default_rng(seed).permutation(4 * tiles)[:tiles]
        partials = np.array(
            [[s, r, 10 + r, 20 + r] for s, r in zip(statuses, rows)], dtype=np.int32
        )
        views = {
            "partials": partials.reshape(1, -1),
            "sel": np.zeros((1, 4), dtype=np.int32),
            "max_status": np.zeros((1, 1), dtype=np.int32),
            "flag_update": np.zeros((1, 1), dtype=np.int32),
            "flag_aug": np.zeros((1, 1), dtype=np.int32),
            "prime_count": np.zeros((1, 1), dtype=np.int32),
        }
        StatusArgmaxFinal().compute_all(views, {}, CostContext())
        top = max(statuses)
        row = min(r for s, r in zip(statuses, rows) if s == top)
        assert list(views["sel"][0]) == [top, row, 10 + row, 20 + row]
        assert views["flag_update"][0, 0] == (top == -1)
        assert views["flag_aug"][0, 0] == (top == 1)
        assert views["prime_count"][0, 0] == (top == 0)
        winner = np.zeros((1, 4), dtype=np.int32)
        StatusArgmaxPartial().compute_all(
            {"data": views["partials"], "out": winner}, {}, CostContext()
        )
        assert list(winner[0]) == list(views["sel"][0])

    def test_prime_update_applies_selection(self):
        n = 4
        spec, plan, graph, state = _fresh(n)
        update = build_prime_update(graph, state, plan)
        state.initialize_host(np.ones((n, n)))
        state.sel.write_host(np.array([0, 1, 3, 2], dtype=np.int32))
        covers = np.zeros(state.col_cover.size, dtype=np.int32)
        covers[2] = 1
        state.col_cover.write_host(covers)
        _run(graph, update)
        assert state.row_prime.read_host()[1] == 3
        assert state.row_cover.read_host()[1] == 1
        assert state.col_cover.read_host()[2] == 0  # star column uncovered
