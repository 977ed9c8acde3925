"""Tests for the batched multi-instance solving engine (repro.batch)."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.batch import BatchSolver, GroupReport, choose_target, pad_instance_costs
from repro.batch.solver import _restrict_result
from repro.baselines import ScipySolver
from repro.core.solver import HunIPUSolver
from repro.errors import SolverError
from repro.lap.problem import LAPInstance
from repro.lap.validation import check_optimality
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _oracle_cost(instance: LAPInstance) -> float:
    rows, cols = linear_sum_assignment(instance.costs)
    return float(instance.costs[rows, cols].sum())


class TestChooseTarget:
    def test_cached_size_never_pads(self):
        assert choose_target(8, cached=frozenset({8, 10})) == 8

    def test_pads_up_to_cached_shape(self):
        assert choose_target(7, cached=frozenset({8})) == 7 + 1

    def test_never_pads_down(self):
        assert choose_target(9, cached=frozenset({8})) == 9

    def test_candidate_exactly_at_limit_is_admitted(self):
        # Regression: 20 * 1.15 == 22.999999999999996 in binary floating
        # point, so a cached size-23 engine — exactly at the padding limit
        # — was rejected and the request recompiled its own graph.
        assert choose_target(20, cached=frozenset({23}), pad_limit=1.15) == 23

    @pytest.mark.parametrize(
        "size,pad_limit",
        [(20, 1.15), (8, 1.25), (40, 1.1), (100, 1.03), (64, 1.25)],
    )
    def test_exact_boundary_is_always_admitted(self, size, pad_limit):
        # For any boundary that is exactly an integer, the candidate at
        # size * pad_limit must be admitted regardless of float rounding.
        from fractions import Fraction

        boundary = Fraction(size) * Fraction(str(pad_limit))
        assert boundary.denominator == 1, "test wants an exact-integer boundary"
        candidate = int(boundary)
        assert choose_target(
            size, cached=frozenset({candidate}), pad_limit=pad_limit
        ) == candidate
        # ...and the next integer above the boundary must still be rejected.
        assert choose_target(
            size, cached=frozenset({candidate + 1}), pad_limit=pad_limit
        ) == size

    def test_popular_size_attracts_padding(self):
        counts = {8: 1, 9: 5}
        assert choose_target(8, cached=frozenset(), counts=counts) == 9


class TestPadInstanceCosts:
    def test_noop_at_same_size(self, rng):
        costs = rng.normal(size=(5, 5))
        assert pad_instance_costs(costs, 5) is costs

    def test_rejects_shrinking(self, rng):
        with pytest.raises(SolverError, match="pad size"):
            pad_instance_costs(rng.normal(size=(5, 5)), 4)

    def test_blocks(self, rng):
        costs = rng.normal(size=(4, 4))
        padded = pad_instance_costs(costs, 7)
        assert padded.shape == (7, 7)
        np.testing.assert_array_equal(padded[:4, :4], costs)
        assert (padded[4:, 4:] == 0).all()
        # Off-diagonal blocks strictly exceed every real entry AND zero, so
        # crossings into the padding block are never optimal.
        pad = padded[0, 4]
        assert (padded[:4, 4:] == pad).all()
        assert (padded[4:, :4] == pad).all()
        assert pad > max(float(costs.max()), 0.0)

    def test_pad_exceeds_max_at_huge_magnitude(self, rng):
        costs = rng.normal(size=(4, 4)) * 1e16
        padded = pad_instance_costs(costs, 6)
        assert padded[:4, 4:].min() > float(costs.max())

    def test_pad_positive_for_negative_costs(self, rng):
        costs = -np.abs(rng.normal(size=(4, 4))) - 100.0
        padded = pad_instance_costs(costs, 6)
        assert padded[0, 4] > 0.0

    @pytest.mark.parametrize("offset", [0.0, -50.0, 1e12])
    def test_padded_optimum_restricts_exactly(self, rng, offset):
        costs = rng.normal(size=(5, 5)) * 3.0 + offset
        padded = pad_instance_costs(costs, 8)
        rows, cols = linear_sum_assignment(padded)
        head = cols[np.argsort(rows)][:5]
        assert (head < 5).all()
        assert float(padded[np.arange(5), head].sum()) == pytest.approx(
            _oracle_cost(LAPInstance(costs)), rel=1e-12
        )


class TestGroupingPolicy:
    def test_groups_by_size(self, toy_spec, rng):
        solver = BatchSolver(HunIPUSolver(toy_spec), pad_to_cached=False)
        instances = [
            LAPInstance(rng.uniform(0, 5, (n, n))) for n in (6, 9, 6, 9, 6)
        ]
        result = solver.solve_batch(instances)
        assert [(g.size, g.instances) for g in result.groups] == [(6, 3), (9, 2)]
        assert all(g.padded == 0 for g in result.groups)

    def test_pads_to_cached_size(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        hunipu.compiled_for(8)
        result = BatchSolver(hunipu).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (7, 7))) for _ in range(3)]
        )
        assert [(g.size, g.padded) for g in result.groups] == [(8, 3)]
        assert set(hunipu._compiled) == {8}

    def test_pads_minority_to_majority_size(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        sizes = [8, 8, 8, 7]
        result = BatchSolver(hunipu).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (n, n))) for n in sizes]
        )
        assert [(g.size, g.instances, g.padded) for g in result.groups] == [
            (8, 4, 1)
        ]
        assert set(hunipu._compiled) == {8}

    def test_respects_pad_limit(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        hunipu.compiled_for(16)
        # 9 * 1.25 < 16, so 9 must NOT be padded up to the cached 16.
        result = BatchSolver(hunipu).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (9, 9)))]
        )
        assert [(g.size, g.padded) for g in result.groups] == [(9, 0)]

    def test_cached_sizes_never_pad(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        hunipu.compiled_for(7)
        hunipu.compiled_for(8)
        result = BatchSolver(hunipu).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (7, 7)))]
        )
        assert [(g.size, g.padded) for g in result.groups] == [(7, 0)]

    def test_pad_to_cached_off_disables_padding(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        hunipu.compiled_for(8)
        result = BatchSolver(hunipu, pad_to_cached=False).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (7, 7)))]
        )
        assert [(g.size, g.padded) for g in result.groups] == [(7, 0)]

    def test_rejects_bad_pad_limit(self, toy_spec):
        with pytest.raises(SolverError, match="pad_limit"):
            BatchSolver(HunIPUSolver(toy_spec), pad_limit=0.5)


class TestFastPath:
    def test_bit_identical_to_sequential_solves(self, toy_spec, rng):
        instances = [
            LAPInstance(rng.normal(size=(8, 8)) * 10 - 5, name=f"i{k}")
            for k in range(6)
        ]
        sequential = HunIPUSolver(toy_spec).solve_many(instances)
        batched = BatchSolver(HunIPUSolver(toy_spec)).solve_batch(instances)
        for seq, bat in zip(sequential, batched.results):
            np.testing.assert_array_equal(seq.assignment, bat.assignment)
            assert seq.total_cost == bat.total_cost  # exact, not approx
            assert seq.stats["supersteps"] == bat.stats["supersteps"]
            # The batch path profiles at the same depth as solve().
            assert bat.stats["profile"].records == seq.stats["profile"].records
            assert bat.stats["step_seconds"] == seq.stats["step_seconds"]

    def test_results_in_input_order(self, toy_spec, rng):
        sizes = [9, 6, 9, 6]
        instances = [
            LAPInstance(rng.uniform(0, 5, (n, n)), name=f"inst{k}")
            for k, n in enumerate(sizes)
        ]
        result = BatchSolver(
            HunIPUSolver(toy_spec), pad_to_cached=False
        ).solve_batch(instances)
        assert [r.size for r in result.results] == sizes

    def test_padded_instances_still_optimal(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        hunipu.compiled_for(8)
        instances = [
            LAPInstance(rng.normal(size=(7, 7)) - 3.0, name=f"p{k}")
            for k in range(3)
        ]
        result = BatchSolver(hunipu).solve_batch(instances)
        for instance, solved in zip(instances, result.results):
            assert solved.size == instance.size
            assert solved.total_cost == pytest.approx(
                _oracle_cost(instance), abs=1e-9
            )
            assert solved.stats["padded_from"] == 7
            assert solved.stats["padded_to"] == 8
            check_optimality(instance, solved)
            direct = HunIPUSolver(toy_spec).solve(
                LAPInstance(pad_instance_costs(instance.costs, 8))
            )
            assert solved.stats["profile"].records == direct.stats["profile"].records
            assert solved.stats["supersteps"] == direct.stats["supersteps"]

    def test_negative_cost_padding_stays_optimal(self, toy_spec, rng):
        hunipu = HunIPUSolver(toy_spec)
        hunipu.compiled_for(7)
        instances = [
            LAPInstance(-np.abs(rng.normal(size=(6, 6))) - 5.0) for _ in range(3)
        ]
        result = BatchSolver(hunipu).solve_batch(instances)
        for instance, solved in zip(instances, result.results):
            assert solved.total_cost == pytest.approx(
                _oracle_cost(instance), abs=1e-9
            )

    def test_empty_batch(self, toy_spec):
        result = BatchSolver(HunIPUSolver(toy_spec)).solve_batch([])
        assert result.results == ()
        assert result.groups == ()
        assert result.instances_per_second == 0.0

    def test_accepts_generators(self, toy_spec, rng):
        result = BatchSolver(HunIPUSolver(toy_spec)).solve_batch(
            LAPInstance(rng.uniform(0, 5, (6, 6))) for _ in range(2)
        )
        assert result.instances == 2

    def test_solve_all_returns_plain_list(self, toy_spec, rng):
        instances = [LAPInstance(rng.uniform(0, 5, (6, 6))) for _ in range(2)]
        results = BatchSolver(HunIPUSolver(toy_spec)).solve_all(instances)
        assert len(results) == 2
        assert results[0].solver == "hunipu"

    def test_wall_time_is_per_instance(self, toy_spec, rng):
        result = BatchSolver(HunIPUSolver(toy_spec)).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (6, 6))) for _ in range(2)]
        )
        for solved in result.results:
            assert 0 < solved.wall_time_s < result.wall_seconds

    def test_tracer_receives_batch_events(self, toy_spec, rng):
        tracer = Tracer()
        hunipu = HunIPUSolver(toy_spec, tracer=tracer)
        BatchSolver(hunipu).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (6, 6)))]
        )
        kinds = [event.kind for event in tracer.events]
        assert "batch_start" in kinds and "batch_end" in kinds


class TestGenericFallback:
    def test_scipy_facade_with_mixed_sizes(self, rng):
        instances = [
            LAPInstance(rng.normal(size=(n, n)), name=f"g{k}")
            for k, n in enumerate([5, 7, 5])
        ]
        result = BatchSolver(ScipySolver(), pad_to_cached=False).solve_batch(
            instances
        )
        for instance, solved in zip(instances, result.results):
            assert solved.total_cost == pytest.approx(
                _oracle_cost(instance), abs=1e-9
            )
        assert [(g.size, g.instances) for g in result.groups] == [(5, 2), (7, 1)]

    def test_generic_padding_restricts(self, rng):
        # Force padding by making 7 the batch-majority size.
        instances = [
            LAPInstance(rng.normal(size=(7, 7))) for _ in range(2)
        ] + [LAPInstance(rng.normal(size=(6, 6)), name="straggler")]
        result = BatchSolver(ScipySolver()).solve_batch(instances)
        straggler = result.results[2]
        assert straggler.size == 6
        assert straggler.stats["padded_to"] == 7
        assert straggler.total_cost == pytest.approx(
            _oracle_cost(instances[2]), abs=1e-9
        )


class TestMetricsAndReporting:
    def test_batch_metrics_recorded(self, toy_spec, rng):
        registry = MetricsRegistry()
        hunipu = HunIPUSolver(toy_spec, metrics=registry)
        hunipu.compiled_for(8)
        BatchSolver(hunipu).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (8, 8))) for _ in range(3)]
            + [LAPInstance(rng.uniform(0, 5, (7, 7)))]
        )
        assert registry.get("batch.instances").value == 4
        assert registry.get("batch.groups").value == 1
        assert registry.get("batch.padded_instances").value == 1
        # Every member runs through solve(), and each reuses the graph.
        assert registry.get("solver.solves").value == 4
        assert registry.get("solver.compile_cache_hits").value == 4
        assert registry.get("batch.last_instances_per_second").value > 0
        assert registry.get("batch.group_device_seconds").count == 1

    def test_metrics_override_registry(self, toy_spec, rng):
        registry = MetricsRegistry()
        batch = BatchSolver(HunIPUSolver(toy_spec), metrics=registry)
        batch.solve_batch([LAPInstance(rng.uniform(0, 5, (6, 6)))])
        assert registry.get("batch.instances").value == 1

    def test_uses_solver_registry_even_when_empty(self, toy_spec):
        registry = MetricsRegistry()  # empty => falsy; must still be used
        batch = BatchSolver(HunIPUSolver(toy_spec, metrics=registry))
        assert batch.metrics is registry

    def test_summary_is_json_ready(self, toy_spec, rng):
        import json

        result = BatchSolver(HunIPUSolver(toy_spec)).solve_batch(
            [LAPInstance(rng.uniform(0, 5, (6, 6)))]
        )
        summary = result.summary()
        json.dumps(summary)
        assert summary["instances"] == 1
        assert summary["groups"][0]["size"] == 6

    def test_group_report_derived_quantities(self):
        group = GroupReport(
            size=8,
            instances=4,
            padded=0,
            compile_cache_hit=True,
            run_seconds=0.2,
            device_seconds=0.4,
        )
        assert group.device_seconds_per_instance == pytest.approx(0.1)
        assert dataclasses.replace(group, instances=0).device_seconds_per_instance == 0.0


class TestRestriction:
    def test_restriction_guard_raises_on_crossing(self, rng):
        from repro.lap.result import AssignmentResult

        instance = LAPInstance(rng.normal(size=(3, 3)))
        crossed = AssignmentResult(
            assignment=np.array([0, 4, 2, 1, 3]),
            total_cost=0.0,
            solver="test",
        )
        with pytest.raises(SolverError, match="padding"):
            _restrict_result(crossed, instance, 5)
