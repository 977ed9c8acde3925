"""End-to-end HunIPU solver tests: optimality, certificates, fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.solver import HunIPUSolver
from repro.data.synthetic import gaussian_instance
from repro.errors import SolverError, TileMemoryError
from repro.ipu.graph import Vertex
from repro.ipu.spec import IPUSpec
from repro.lap.problem import LAPInstance
from repro.lap.validation import check_optimality, check_perfect_matching


def _optimum(costs):
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum())


@pytest.fixture(scope="module")
def toy_solver():
    return HunIPUSolver(spec=IPUSpec.toy(num_tiles=4))


class TestOptimality:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 100_000))
    def test_matches_scipy_on_random_floats(self, n, seed):
        solver = HunIPUSolver(spec=IPUSpec.toy(num_tiles=4))
        costs = np.random.default_rng(seed).uniform(0, 100, (n, n))
        result = solver.solve(LAPInstance(costs))
        check_perfect_matching(result.assignment, n)
        assert result.total_cost == pytest.approx(_optimum(costs), abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 100_000))
    def test_matches_scipy_with_heavy_ties(self, n, seed):
        """Integer matrices with few distinct values stress tie handling."""
        solver = HunIPUSolver(spec=IPUSpec.toy(num_tiles=4))
        costs = np.random.default_rng(seed).integers(0, 4, (n, n)).astype(float)
        result = solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(_optimum(costs), abs=1e-9)

    def test_identity_matrix(self, toy_solver):
        result = toy_solver.solve(LAPInstance(np.eye(6)))
        assert result.total_cost == 0.0

    def test_single_element(self, toy_solver):
        result = toy_solver.solve(LAPInstance(np.array([[42.0]])))
        assert result.total_cost == 42.0
        assert list(result.assignment) == [0]

    def test_constant_matrix(self, toy_solver):
        result = toy_solver.solve(LAPInstance(np.full((7, 7), 3.0)))
        assert result.total_cost == 21.0

    def test_negative_costs_allowed(self, toy_solver):
        costs = np.array([[-5.0, 1.0], [2.0, -3.0]])
        result = toy_solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(-8.0)

    def test_mk2_spec_medium_instance(self):
        solver = HunIPUSolver()
        costs = np.random.default_rng(7).uniform(1, 640, (64, 64))
        result = solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(_optimum(costs), rel=1e-9)

    def test_large_negative_offset_stays_optimal(self, toy_solver):
        # Regression: normalization used to divide by max(|c|) without
        # shifting first, so costs like -1e12 + {0..9} collapsed below the
        # solver's tolerance and ties were broken arbitrarily (observed:
        # total -7999999999976 vs optimum -7999999999995 on this seed).
        rng = np.random.default_rng(42)
        costs = -1e12 + rng.integers(0, 10, (8, 8)).astype(np.float64)
        result = toy_solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(_optimum(costs), abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 10),
        offset=st.sampled_from([-1e12, -1e9, 1e9, 1e12]),
        seed=st.integers(0, 10_000),
    )
    def test_offset_invariance(self, n, offset, seed):
        # Shifting every cost by a constant shifts the optimum by n*offset
        # but must not change which permutation wins.
        solver = HunIPUSolver(spec=IPUSpec.toy(num_tiles=4))
        base = np.random.default_rng(seed).integers(0, 10, (n, n))
        costs = offset + base.astype(np.float64)
        result = solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(_optimum(costs), abs=1e-3)


class TestDualCertificate:
    def test_terminal_slack_certifies_optimality(self, toy_solver):
        costs = np.random.default_rng(3).uniform(1, 50, (10, 10))
        instance = LAPInstance(costs)
        result = toy_solver.solve(instance, return_slack=True)
        check_optimality(
            instance, result, final_slack=result.stats["final_slack"]
        )

    def test_slack_not_returned_by_default(self, toy_solver):
        result = toy_solver.solve(LAPInstance(np.eye(4)))
        assert "final_slack" not in result.stats


class TestDeviceModel:
    def test_device_time_positive_and_composed_of_steps(self, toy_solver):
        costs = np.random.default_rng(5).uniform(1, 100, (12, 12))
        result = toy_solver.solve(LAPInstance(costs))
        steps = result.stats["step_seconds"]
        assert result.device_time_s > 0
        assert sum(steps.values()) <= result.device_time_s * 1.001
        assert steps["step1"] > 0
        assert steps["compress"] > 0

    def test_bigger_matrices_take_longer(self):
        solver = HunIPUSolver()
        rng = np.random.default_rng(6)
        small = solver.solve(LAPInstance(rng.uniform(1, 320, (32, 32))))
        large = solver.solve(LAPInstance(rng.uniform(1, 1280, (128, 128))))
        assert large.device_time_s > small.device_time_s

    def test_iteration_counters_reported(self, toy_solver):
        costs = np.random.default_rng(8).uniform(1, 100, (16, 16))
        result = toy_solver.solve(LAPInstance(costs))
        assert result.stats["augmentations"] >= 1
        assert result.iterations == (
            result.stats["augmentations"] + result.stats["slack_updates"]
        )

    def test_float32_mode_solves(self):
        solver = HunIPUSolver(spec=IPUSpec.toy(num_tiles=4), dtype=np.float32)
        costs = np.random.default_rng(9).uniform(1, 100, (12, 12))
        result = solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(_optimum(costs), rel=1e-4)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(SolverError, match="dtype"):
            HunIPUSolver(dtype=np.int32)

    def test_paper_scale_modeled_time_is_pinned(self):
        """Gaussian n=512, k=100: the ROADMAP's paper-scale anchor.

        Host work is incremental at this size (most Step 6 recompressions
        rewrite a few rows), so a host-side shortcut that moved a single
        charge or branch would show here, beyond the identity matrix's n.
        """
        instance = gaussian_instance(512, 100, seed=0)
        result = HunIPUSolver().solve(instance)
        assert result.device_time_s.hex() == "0x1.bf06d3b72ba72p-5"
        assert result.stats["profile"].supersteps == 71117
        assert result.total_cost == pytest.approx(_optimum(instance.costs))

    def test_paper_scale_float64_hits_tile_memory_limit(self):
        """C2 reproduced: n=8192 float64 cannot fit 624 KiB tiles."""
        solver = HunIPUSolver(dtype=np.float64)
        with pytest.raises(TileMemoryError):
            solver.compiled_for(8192)


class TestReuse:
    def test_compiled_instance_cached(self, toy_solver):
        first = toy_solver.compiled_for(8)
        second = toy_solver.compiled_for(8)
        assert first is second

    def test_repeated_solves_same_size_are_independent(self, toy_solver):
        rng = np.random.default_rng(11)
        for _ in range(3):
            costs = rng.uniform(0, 10, (9, 9))
            result = toy_solver.solve(LAPInstance(costs))
            assert result.total_cost == pytest.approx(_optimum(costs), abs=1e-7)

    def test_per_tile_mode_identical_results_and_costs(self):
        costs = np.random.default_rng(12).uniform(1, 30, (18, 18))
        batched = HunIPUSolver(spec=IPUSpec.toy(num_tiles=6))
        per_tile = HunIPUSolver(spec=IPUSpec.toy(num_tiles=6), engine_mode="per_tile")
        result_a = batched.solve(LAPInstance(costs))
        result_b = per_tile.solve(LAPInstance(costs))
        assert np.array_equal(result_a.assignment, result_b.assignment)
        assert result_a.device_time_s == pytest.approx(
            result_b.device_time_s, rel=1e-12
        )


class TestAblationVariants:
    def test_compression_off_same_answer_slower_model(self):
        costs = np.random.default_rng(13).uniform(1, 1000, (48, 48))
        on = HunIPUSolver().solve(LAPInstance(costs))
        off = HunIPUSolver(use_compression=False).solve(LAPInstance(costs))
        assert on.total_cost == pytest.approx(off.total_cost)
        assert off.device_time_s >= on.device_time_s

    def test_custom_col_segment_same_answer(self):
        costs = np.random.default_rng(14).uniform(1, 100, (20, 20))
        base = HunIPUSolver(spec=IPUSpec.toy(num_tiles=4)).solve(LAPInstance(costs))
        custom = HunIPUSolver(
            spec=IPUSpec.toy(num_tiles=4), col_segment_size=8
        ).solve(LAPInstance(costs))
        assert base.total_cost == pytest.approx(custom.total_cost)


class TestColumnStorage:
    def test_batched_compile_builds_no_vertex_objects(self, monkeypatch):
        """Graph build, compile, bind and a solve stay on the columns."""
        built = []
        post_init = Vertex.__post_init__

        def counting(vertex):
            built.append(vertex.codelet.name)
            post_init(vertex)

        monkeypatch.setattr(Vertex, "__post_init__", counting)
        solver = HunIPUSolver()
        compiled = solver.compiled_for(64)
        for engine in (compiled.engine, compiled.warm_engine):
            assert engine.compiled.check_report is None  # check="off"
            assert all(plan.batched for plan in engine.compiled.plans.values())
        costs = np.random.default_rng(3).integers(0, 100, (64, 64)).astype(float)
        result = solver.solve(LAPInstance(costs))
        assert result.total_cost == pytest.approx(_optimum(costs))
        assert built == []
        # The counter is live: the per-vertex view builds vertices on demand.
        compute_set = compiled.graph.compute_sets[0]
        assert len(compute_set.vertices) == len(built) == compute_set.num_vertices
