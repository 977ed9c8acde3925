"""Differential tests across the two profiling depths.

Detailed (per-compute-set) and deep (per-tile) profiling must tell the
same story: both accumulate the run totals and the per-name records
through the same statements in the same order, so supersteps, compute
cycles, phase seconds, byte volumes and every ``StepRecord`` are
**bit-identical** — exact ``==``, not approx.  A drift here means turning
on per-tile attribution changed what was measured.
"""

import pytest

from repro.core.solver import HunIPUSolver
from repro.data.synthetic import uniform_instance


def _reports(size, engine_mode, seed=11):
    """Solve the same instance at each depth; return the two reports."""
    instance = uniform_instance(size, 1, seed=seed)
    reports = {}
    for depth in ("detailed", "deep"):
        solver = HunIPUSolver(
            engine_mode=engine_mode, profile_tiles=depth == "deep"
        )
        compiled = solver.compiled_for(size)
        reports[depth] = solver._run_engine(compiled, instance)
    return reports


@pytest.mark.parametrize("engine_mode", ["batched", "per_tile"])
@pytest.mark.parametrize("size", [8, 16, 32])
class TestBitIdenticalTotals:
    def test_headline_totals_identical(self, size, engine_mode):
        reports = _reports(size, engine_mode)
        detailed, deep = reports["detailed"], reports["deep"]
        assert deep.supersteps == detailed.supersteps
        assert deep.compute_cycles == detailed.compute_cycles
        assert deep.phase_compute_seconds == detailed.phase_compute_seconds
        assert deep.phase_sync_seconds == detailed.phase_sync_seconds
        assert deep.phase_exchange_seconds == detailed.phase_exchange_seconds
        assert deep.device_seconds == detailed.device_seconds
        assert deep.exchange_bytes == detailed.exchange_bytes
        assert deep.inter_ipu_bytes == detailed.inter_ipu_bytes

    def test_detailed_and_deep_records_identical(self, size, engine_mode):
        reports = _reports(size, engine_mode)
        detailed = {r.name: r for r in reports["detailed"].records}
        deep = {r.name: r for r in reports["deep"].records}
        assert detailed.keys() == deep.keys()
        for name, record in detailed.items():
            assert deep[name] == record  # dataclass field-wise equality


@pytest.mark.parametrize("engine_mode", ["batched", "per_tile"])
class TestDeepAttributionConsistency:
    """Per-tile attribution must re-sum to the aggregate totals."""

    def test_per_set_cycles_sum_to_aggregate(self, engine_mode):
        report = _reports(16, engine_mode)["deep"]
        tiles = report.tiles
        assert tiles is not None
        # Charged cycles per compute set accumulate the identical stream
        # as the StepRecords -> exact equality per name and in total.
        by_name = {stats.name: stats for stats in tiles.compute_sets}
        for record in report.records:
            assert by_name[record.name].compute_cycles == record.compute_cycles
        assert tiles.compute_cycles == report.compute_cycles

    def test_series_aligns_with_superstep_timeline(self, engine_mode):
        report = _reports(16, engine_mode)["deep"]
        tiles = report.tiles
        # Every engine superstep (copies included) appears in the series;
        # `supersteps` counts the compute-only subset.
        assert len(tiles.series) == report.supersteps
        compute_samples = [s for s in tiles.series if s.straggler_tile >= 0]
        assert len(compute_samples) == tiles.supersteps
        assert sum(s.total_seconds for s in tiles.series) == pytest.approx(
            report.device_seconds
        )

    def test_exchange_by_tensor_totals(self, engine_mode):
        report = _reports(16, engine_mode)["deep"]
        tiles = report.tiles
        per_set_total = sum(
            sum(stats.exchange_by_tensor.values()) for stats in tiles.compute_sets
        )
        assert sum(tiles.exchange_by_tensor.values()) == per_set_total
        assert per_set_total == report.exchange_bytes


def test_solver_facade_deep_profile_reaches_stats():
    solver = HunIPUSolver(profile_tiles=True)
    result = solver.solve(uniform_instance(8, 1, seed=0))
    report = result.stats["profile"]
    assert report.tiles is not None
    assert report.tiles.tiles_used > 0
    assert report.tiles.compute_cycles == report.compute_cycles
