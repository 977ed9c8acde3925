"""Warm-start & incremental re-solve: exactness, seeds, and the delta policy.

The load-bearing property: a warm-started solve is still an *exact* solver.
Seeding only changes how much work Step 1/Step 2 have left to do — subtract
the seeded potentials (any row/col minimum subtraction keeps slack >= 0),
pre-star still-feasible pairs, and let the usual Munkres loop finish the
job.  So the differential suite here demands the warm optimal cost be
**bit-identical** to the cold one across drift magnitudes, and — the
metamorphic case — that even a stale garbage seed cannot break optimality,
only cost extra supersteps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.solver import HunIPUSolver
from repro.core.warmstart import WarmStart, changed_rows
from repro.errors import SolverError
from repro.lap.problem import LAPInstance


def _grid_costs(rng, size, *, lo=0, hi=64):
    """Integer-valued float costs: sums are exact, optima bit-comparable."""
    return rng.integers(lo, hi, size=(size, size)).astype(np.float64)


def _oracle(instance):
    rows, cols = linear_sum_assignment(instance.costs)
    return float(instance.costs[rows, cols].sum())


class TestWarmStartObject:
    def test_from_solution_reconstructs_tight_duals(self):
        rng = np.random.default_rng(0)
        solver = HunIPUSolver()
        instance = LAPInstance(_grid_costs(rng, 8))
        result = solver.solve(instance, capture_warm_start=True)
        warm = result.stats["warm_start"]
        assert warm.size == 8
        # Complementary slackness: u_i + v_j == C[i, star(i)] on the
        # matching, and u_i + v_j <= C everywhere (within tolerance).
        u, v = warm.row_potential, warm.col_potential
        slack = instance.costs - u[:, None] - v[None, :]
        assert slack.min() >= -1e-9
        for row, col in enumerate(warm.row_star):
            assert abs(slack[row, col]) <= 1e-9

    def test_validate_rejects_wrong_shape(self):
        warm = WarmStart(
            row_potential=np.zeros(4),
            col_potential=np.zeros(4),
            row_star=np.zeros(4, dtype=np.int64),
            costs=np.zeros((4, 4)),
        )
        with pytest.raises(SolverError):
            warm.validate(5)

    def test_validate_rejects_nonfinite(self):
        warm = WarmStart(
            row_potential=np.array([0.0, np.inf]),
            col_potential=np.zeros(2),
            row_star=np.array([0, 1]),
            costs=np.zeros((2, 2)),
        )
        with pytest.raises(SolverError):
            warm.validate(2)

    def test_validate_rejects_out_of_range_star(self):
        warm = WarmStart(
            row_potential=np.zeros(2),
            col_potential=np.zeros(2),
            row_star=np.array([0, 7]),
            costs=np.zeros((2, 2)),
        )
        with pytest.raises(SolverError):
            warm.validate(2)

    def test_changed_rows(self):
        previous = np.arange(16, dtype=np.float64).reshape(4, 4)
        current = previous.copy()
        current[1, 2] += 1.0
        current[3] += 5.0
        np.testing.assert_array_equal(changed_rows(previous, current), [1, 3])


class TestWarmExactness:
    @given(
        size=st.integers(min_value=4, max_value=14),
        drift=st.integers(min_value=0, max_value=14),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_warm_cost_bit_identical_to_cold(self, size, drift, seed):
        """Differential: warm == cold == scipy across drift magnitudes."""
        rng = np.random.default_rng(seed)
        solver = HunIPUSolver()
        base = LAPInstance(_grid_costs(rng, size))
        first = solver.solve(base, capture_warm_start=True)
        warm_seed = first.stats["warm_start"]

        costs = base.costs.copy()
        rows = rng.choice(size, size=min(drift, size), replace=False)
        costs[rows] = _grid_costs(rng, size)[: len(rows)]
        drifted = LAPInstance(costs)

        cold = HunIPUSolver().solve(drifted)
        warm = solver.solve(drifted, warm_start=warm_seed)
        assert warm.stats["warm_start_used"] is True
        assert warm.total_cost == cold.total_cost  # bit-identical
        assert warm.total_cost == _oracle(drifted)  # integer costs: exact
        # The warm assignment is a permutation achieving that optimum.
        assert sorted(warm.assignment.tolist()) == list(range(size))
        assert drifted.total_cost(warm.assignment) == cold.total_cost

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_stale_garbage_seed_stays_exact(self, seed):
        """Metamorphic: a seed with no relation to the instance cannot
        corrupt the result — only cost extra supersteps."""
        rng = np.random.default_rng(seed)
        size = 9
        instance = LAPInstance(_grid_costs(rng, size))
        garbage = WarmStart(
            row_potential=rng.normal(scale=100.0, size=size),
            col_potential=rng.normal(scale=100.0, size=size),
            row_star=rng.permutation(size).astype(np.int64),
            costs=rng.random((size, size)),
        )
        warm = HunIPUSolver().solve(instance, warm_start=garbage)
        assert warm.total_cost == _oracle(instance)
        assert sorted(warm.assignment.tolist()) == list(range(size))

    def test_identical_resubmit_is_cheap(self):
        rng = np.random.default_rng(3)
        solver = HunIPUSolver()
        instance = LAPInstance(_grid_costs(rng, 16))
        first = solver.solve(instance, capture_warm_start=True)
        again = solver.solve(
            instance, warm_start=first.stats["warm_start"]
        )
        assert again.total_cost == first.total_cost
        # An unchanged instance re-solved from its own duals should need a
        # small fraction of the cold superstep count.
        assert again.stats["supersteps"] < first.stats["supersteps"] / 4

    def test_warm_resolve_step_seconds_are_floats(self):
        # An unchanged n=24 instance re-solved warm runs no Step 4-6
        # superstep; those empty totals must still be floats, not int 0.
        rng = np.random.default_rng(0)
        solver = HunIPUSolver()
        instance = LAPInstance(_grid_costs(rng, 24))
        first = solver.resolve(instance, None)
        again = solver.resolve(instance, first.stats["warm_start"])
        assert again.stats["resolve"]["mode"] == "warm"
        step_seconds = again.stats["step_seconds"]
        assert step_seconds["step6"] == 0.0
        assert all(type(value) is float for value in step_seconds.values())


class TestResolvePolicy:
    def test_no_seed_falls_back_cold(self):
        rng = np.random.default_rng(0)
        solver = HunIPUSolver()
        result = solver.resolve(LAPInstance(_grid_costs(rng, 8)), None)
        assert result.stats["resolve"]["mode"] == "cold"
        assert result.stats["resolve"]["reason"] == "no_seed"
        assert "warm_start" in result.stats  # always captured for the next tick

    def test_size_mismatch_falls_back_cold(self):
        rng = np.random.default_rng(1)
        solver = HunIPUSolver()
        first = solver.resolve(LAPInstance(_grid_costs(rng, 8)), None)
        seed = first.stats["warm_start"]
        other = solver.resolve(LAPInstance(_grid_costs(rng, 12)), seed)
        assert other.stats["resolve"]["mode"] == "cold"
        assert other.stats["resolve"]["reason"] == "size_mismatch"

    def test_small_delta_goes_warm(self):
        rng = np.random.default_rng(2)
        solver = HunIPUSolver()
        first = solver.resolve(LAPInstance(_grid_costs(rng, 10)), None)
        costs = first.stats["warm_start"].costs.copy()
        costs[4] = _grid_costs(rng, 10)[0]
        second = solver.resolve(LAPInstance(costs), first.stats["warm_start"])
        assert second.stats["resolve"]["mode"] == "warm"
        assert second.stats["resolve"]["changed_rows"] == 1
        assert second.total_cost == _oracle(LAPInstance(costs))

    def test_large_delta_falls_back_cold(self):
        rng = np.random.default_rng(4)
        solver = HunIPUSolver()
        first = solver.resolve(LAPInstance(_grid_costs(rng, 10)), None)
        costs = _grid_costs(rng, 10)  # every row redrawn
        second = solver.resolve(
            LAPInstance(costs),
            first.stats["warm_start"],
            max_changed_fraction=0.5,
        )
        assert second.stats["resolve"]["mode"] == "cold"
        assert second.stats["resolve"]["reason"] == "delta_too_large"
        assert second.total_cost == _oracle(LAPInstance(costs))

    def test_fallback_counter_increments(self):
        from repro.obs.metrics import MetricsRegistry

        rng = np.random.default_rng(5)
        metrics = MetricsRegistry()
        solver = HunIPUSolver(metrics=metrics)
        solver.resolve(LAPInstance(_grid_costs(rng, 8)), None)
        assert metrics.counter("solver.resolve_cold_fallbacks").value == 1
