"""Smoke + shape tests: every experiment harness runs at quick scale."""

import pytest

from repro.bench.ablations import mapping_exchange_bytes, run_ablations
from repro.bench.batch import run_batch_bench
from repro.bench.figure5 import run_figure5
from repro.bench.recording import BenchScale
from repro.bench.table1 import run_table1
from repro.bench.table2 import run_table2
from repro.bench.table3 import run_table3

QUICK = BenchScale.named("quick")


@pytest.fixture(scope="module")
def table2_result():
    return run_table2(QUICK)


@pytest.fixture(scope="module")
def figure5_result():
    return run_figure5(QUICK)


class TestTable1:
    def test_counts_exact(self):
        result = run_table1(QUICK)
        assert any("OK" in note for note in result.shape_notes)
        assert "1004" in result.tables[0]


class TestTable2:
    def test_uniform_distribution_variant(self):
        """§V-A's omitted companion: uniform data behaves the same."""
        result = run_table2(QUICK, distribution="uniform")
        assert "uniform" in result.tables[0]
        gains = [
            cpu.device_time_s / ipu.device_time_s
            for cpu, ipu in zip(
                result.records_for("cpu-munkres"), result.records_for("hunipu")
            )
        ]
        assert gains  # ran end to end; shapes checked at default scale

    def test_unknown_distribution_rejected(self):
        import pytest as _pytest

        from repro.errors import InvalidProblemError

        with _pytest.raises(InvalidProblemError, match="distribution"):
            run_table2(QUICK, distribution="cauchy")

    def test_grid_complete(self, table2_result):
        cells = len(QUICK.table2_sizes) * len(QUICK.table2_k)
        assert len(table2_result.records) == 2 * cells

    def test_both_solvers_present(self, table2_result):
        assert table2_result.records_for("cpu-munkres")
        assert table2_result.records_for("hunipu")

    def test_formats(self, table2_result):
        text = table2_result.format()
        assert "Table II" in text
        assert "gain" in text


class TestFigure5:
    def test_hunipu_dominates(self, figure5_result):
        assert any(
            "HunIPU faster than FastHA in every cell (OK)" in note
            for note in figure5_result.shape_notes
        )

    def test_panels_per_size(self, figure5_result):
        # One rendered chart + one numeric grid per matrix size.
        assert len(figure5_result.tables) == 2 * len(QUICK.figure5_sizes)
        assert "legend" in figure5_result.tables[0]

    def test_runtimes_recorded_for_both(self, figure5_result):
        fast = figure5_result.records_for("fastha")
        ipu = figure5_result.records_for("hunipu")
        assert len(fast) == len(ipu) > 0
        assert all(record.device_time_s > 0 for record in fast + ipu)


class TestTable3:
    def test_runs_and_dominates(self):
        result = run_table3(QUICK)
        assert any("HunIPU faster in every cell (OK)" in n for n in result.shape_notes)
        # Three sub-tables: HighSchool, Voles, MultiMagna.
        assert len(result.tables) == 3
        assert "MultiMagna" in result.tables[2]


class TestBatch:
    @pytest.fixture(scope="class")
    def batch_result(self):
        return run_batch_bench(QUICK)

    def test_all_paths_recorded(self, batch_result):
        assert batch_result.records_for("hunipu-batch")
        assert batch_result.records_for("hunipu-batch-mixed")

    def test_mixed_stream_padded_into_one_group(self, batch_result):
        (mixed,) = batch_result.records_for("hunipu-batch-mixed")
        assert mixed.extra["groups"] == 1
        assert mixed.extra["padded_instances"] > 0

    def test_formats(self, batch_result):
        text = batch_result.format()
        assert "Batch throughput" in text
        assert "inst/s" in text


class TestAblations:
    def test_runs_with_six_studies(self):
        result = run_ablations(QUICK)
        assert len(result.tables) == 6
        assert any("compression" in note for note in result.shape_notes)

    def test_mapping_exchange_analysis(self):
        assert mapping_exchange_bytes(64, 16, "1d") == 0
        assert mapping_exchange_bytes(64, 16, "2d") > 0

    def test_mapping_analysis_rejects_unknown(self):
        with pytest.raises(ValueError):
            mapping_exchange_bytes(64, 16, "3d")
