"""Unit tests of the static BSP constraint checker (C1–C4).

Each test builds a small hand-made graph that violates exactly one
constraint and asserts the checker reports precisely that — code,
severity, compute set, tensor, tile and the offending interval.
"""

import numpy as np
import pytest

from repro.check import (
    CheckConfig,
    Diagnostic,
    check_document,
    check_graph,
    check_report_to_dict,
)
from repro.errors import CompilationError, ConstraintError
from repro.ipu.codelets import Codelet
from repro.ipu.compiler import compile_graph
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import Fill
from repro.ipu.programs import Execute
from repro.obs.export import SchemaError, validate_document


class _Writer(Codelet):
    fields = {"out": "out"}

    def compute_all(self, views, params, cost):  # pragma: no cover
        views["out"][...] = 1
        return np.zeros(views["out"].shape[0])


class _Reader(Codelet):
    fields = {"data": "in"}

    def compute_all(self, views, params, cost):  # pragma: no cover
        return np.zeros(views["data"].shape[0])


class _DynLocal(Codelet):
    """Stand-in partition-and-distribute kernel (runtime-indexed)."""

    fields = {"data": "inout"}
    dynamic_access = True
    local_fields = ("data",)

    def compute_all(self, views, params, cost):  # pragma: no cover
        return np.zeros(views["data"].shape[0])


def _graph_with_tensor(toy_spec, size=8, tile=0, dtype=np.float32):
    graph = ComputeGraph(toy_spec)
    tensor = graph.add_tensor(
        "x", (size,), dtype, mapping=TileMapping.single_tile(size, tile)
    )
    return graph, tensor


class TestWriteWriteRace:
    def test_overlapping_writes_rejected(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("racy_ww")
        writer = _Writer()
        cs.add_vertex(writer, 0, {"out": ComputeGraph.span(tensor, 0, 5)})
        cs.add_vertex(writer, 1, {"out": ComputeGraph.span(tensor, 3, 8)})

        report = check_graph(graph)
        assert not report.ok
        (diag,) = report.errors
        assert diag.code == "C1.WRITE_WRITE"
        assert diag.severity == "error"
        assert diag.compute_set == "racy_ww"
        assert diag.tensor == "x"
        assert diag.interval == (3, 5)
        assert diag.tile == 0
        assert diag.constraint == "C1"

    def test_disjoint_writes_clean(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("split")
        fill = Fill()
        cs.add_vertex(fill, 0, {"data": ComputeGraph.span(tensor, 0, 4)},
                      params={"value": 1})
        cs.add_vertex(fill, 1, {"data": ComputeGraph.span(tensor, 4, 8)},
                      params={"value": 2})
        assert check_graph(graph).clean

    def test_many_races_truncated(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("pileup")
        writer = _Writer()
        for tile in range(12):
            cs.add_vertex(
                writer, tile % 4, {"out": ComputeGraph.full(tensor)}
            )
        report = check_graph(graph)
        ww = [d for d in report.diagnostics if d.code == "C1.WRITE_WRITE"]
        truncated = [d for d in report.diagnostics if d.code == "C1.TRUNCATED"]
        assert len(ww) == 8
        assert len(truncated) == 1
        assert "suppressed" in truncated[0].message


class TestReadWriteRace:
    def test_read_of_written_region_rejected(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("racy_rw")
        cs.add_vertex(_Writer(), 0, {"out": ComputeGraph.span(tensor, 0, 4)})
        cs.add_vertex(_Reader(), 1, {"data": ComputeGraph.span(tensor, 2, 6)})

        report = check_graph(graph)
        assert not report.ok
        (diag,) = report.errors
        assert diag.code == "C1.READ_WRITE"
        assert diag.compute_set == "racy_rw"
        assert diag.tensor == "x"
        assert diag.interval == (2, 4)

    def test_inout_vertex_not_self_racing(self, toy_spec):
        """A vertex may read-modify-write its own region (inout fields)."""
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("rmw")
        cs.add_vertex(Fill(), 0, {"data": ComputeGraph.full(tensor)},
                      params={"value": 0})
        assert check_graph(graph).clean

    def test_reader_in_other_compute_set_is_fine(self, toy_spec):
        """Supersteps are barriers: write then read across sets is legal."""
        graph, tensor = _graph_with_tensor(toy_spec)
        write = graph.add_compute_set("write")
        write.add_vertex(_Writer(), 0, {"out": ComputeGraph.full(tensor)})
        read = graph.add_compute_set("read")
        read.add_vertex(_Reader(), 1, {"data": ComputeGraph.full(tensor)})
        assert check_graph(graph).clean


class TestMemory:
    def test_tile_overflow_rejected(self, toy_spec):
        # 20000 float64 on one toy tile = 160000 bytes > the 64 KiB budget.
        graph = ComputeGraph(toy_spec)
        graph.add_tensor(
            "big", (20000,), np.float64,
            mapping=TileMapping.single_tile(20000, tile=0),
        )
        report = check_graph(graph)
        assert not report.ok
        (diag,) = report.errors
        assert diag.code == "C2.TILE_MEMORY"
        assert diag.tile == 0
        assert diag.tensor == "big"
        assert str(toy_spec.tile_memory_bytes) in diag.message

    def test_headroom_warning(self, toy_spec):
        # 60000 bytes fits 65536 but crosses the 20 % headroom mark.
        graph = ComputeGraph(toy_spec)
        graph.add_tensor(
            "snug", (15000,), np.float32,
            mapping=TileMapping.single_tile(15000, tile=1),
        )
        report = check_graph(graph, config=CheckConfig(memory_headroom=0.2))
        assert report.ok and not report.clean
        (diag,) = report.warnings
        assert diag.code == "C2.HEADROOM"
        assert diag.tile == 1

    def test_unmapped_tensor_reported(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        graph.add_tensor("floating", (4,), np.int32)
        report = check_graph(graph)
        (diag,) = report.errors
        assert diag.code == "C2.UNMAPPED"
        assert diag.tensor == "floating"

    def test_vertex_state_counts_toward_budget(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec, size=8)
        cs = graph.add_compute_set("cs")
        reader = _Reader()
        for _ in range(10):
            cs.add_vertex(reader, 0, {"data": ComputeGraph.full(tensor)})
        # Tensor alone: 32 bytes.  State: 10 * (60000 + 16) blows the budget.
        config = CheckConfig(vertex_state_bytes=60000)
        report = check_graph(graph, config=config)
        (diag,) = report.errors
        assert diag.code == "C2.TILE_MEMORY"
        assert "vertex state" in diag.message


class TestBalanceLint:
    def test_skewed_compute_set_flagged(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "v", (64,), np.float32,
            mapping=TileMapping.single_tile(64, tile=3),
        )
        cs = graph.add_compute_set("skewed")
        reader = _Reader()
        cs.add_vertex(reader, 0, {"data": ComputeGraph.span(tensor, 0, 60)})
        cs.add_vertex(reader, 1, {"data": ComputeGraph.span(tensor, 60, 62)})
        cs.add_vertex(reader, 2, {"data": ComputeGraph.span(tensor, 62, 64)})
        report = check_graph(graph)
        (diag,) = report.warnings
        assert diag.code == "C3.IMBALANCE"
        assert diag.severity == "warning"
        assert diag.compute_set == "skewed"
        assert diag.tile == 0
        assert report.ok  # lint only

    def test_balanced_compute_set_clean(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "v", (8,), np.float32, mapping=TileMapping.single_tile(8)
        )
        cs = graph.add_compute_set("even")
        reader = _Reader()
        cs.add_vertex(reader, 0, {"data": ComputeGraph.span(tensor, 0, 4)})
        cs.add_vertex(reader, 1, {"data": ComputeGraph.span(tensor, 4, 8)})
        assert check_graph(graph).clean


class TestIPUImbalanceLint:
    """C3.IPU_IMBALANCE: per-chip work skew on multi-IPU systems."""

    def _skewed_cluster_graph(self):
        """Tiles level enough individually, but chip 0 carries 8x chip 1."""
        from repro.ipu.cluster import ClusterSpec

        spec = ClusterSpec.toy(num_tiles=4, num_ipus=2).system()
        graph = ComputeGraph(spec)
        tensor = graph.add_tensor(
            "v", (45,), np.float32,
            mapping=TileMapping.single_tile(45, tile=7),
        )
        cs = graph.add_compute_set("chip_skewed")
        reader = _Reader()
        # Chip 0 (tiles 0-3): 10 elements each; chip 1 (tile 4): 5.
        for tile in range(4):
            cs.add_vertex(
                reader, tile,
                {"data": ComputeGraph.span(tensor, tile * 10, tile * 10 + 10)},
            )
        cs.add_vertex(reader, 4, {"data": ComputeGraph.span(tensor, 40, 45)})
        return graph

    def test_chip_skew_flagged(self):
        graph = self._skewed_cluster_graph()
        # Tile ratio is 10/9; chip ratio is 40/22.5 — only the chip-level
        # statistic crosses a 1.5x threshold.
        report = check_graph(graph, config=CheckConfig(imbalance_threshold=1.5))
        codes = [diag.code for diag in report.warnings]
        assert codes == ["C3.IPU_IMBALANCE"]
        (diag,) = report.warnings
        assert diag.severity == "warning"
        assert diag.compute_set == "chip_skewed"
        assert diag.tile == 0  # first tile of the overloaded chip
        assert "IPU 0" in diag.message
        assert report.ok  # lint only

    def test_default_threshold_keeps_it_quiet(self):
        graph = self._skewed_cluster_graph()
        assert check_graph(graph).clean

    def test_single_chip_never_emits_ipu_code(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "v", (64,), np.float32,
            mapping=TileMapping.single_tile(64, tile=3),
        )
        cs = graph.add_compute_set("skewed")
        reader = _Reader()
        cs.add_vertex(reader, 0, {"data": ComputeGraph.span(tensor, 0, 60)})
        cs.add_vertex(reader, 1, {"data": ComputeGraph.span(tensor, 60, 64)})
        report = check_graph(graph, config=CheckConfig(imbalance_threshold=1.5))
        assert all(d.code != "C3.IPU_IMBALANCE" for d in report.warnings)

    def test_balanced_cluster_clean(self):
        from repro.ipu.cluster import ClusterSpec

        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        graph = ComputeGraph(spec)
        tensor = graph.add_tensor(
            "v", (16,), np.float32, mapping=TileMapping.single_tile(16)
        )
        cs = graph.add_compute_set("even")
        reader = _Reader()
        for tile in range(4):
            cs.add_vertex(
                reader, tile,
                {"data": ComputeGraph.span(tensor, tile * 4, tile * 4 + 4)},
            )
        assert check_graph(graph, config=CheckConfig(imbalance_threshold=1.1)).clean


class TestDynamicOpLint:
    def test_foreign_segment_flagged(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "seg", (8,), np.float32,
            mapping=TileMapping.single_tile(8, tile=1),
        )
        cs = graph.add_compute_set("dyn")
        cs.add_vertex(_DynLocal(), 0, {"data": ComputeGraph.full(tensor)})
        report = check_graph(graph)
        (diag,) = report.warnings
        assert diag.code == "C4.NONLOCAL"
        assert diag.tensor == "seg"
        assert diag.tile == 0  # the vertex's tile, not the segment's
        assert diag.interval == (0, 8)

    def test_partial_segment_counts_clipped_foreign_intervals(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        # tile 0: [0, 4) and [8, 12); tile 1: [4, 8).
        tensor = graph.add_tensor(
            "seg", (12,), np.float32,
            mapping=TileMapping.linear_segments(12, 4, [0, 1]),
        )
        cs = graph.add_compute_set("dyn")
        cs.add_vertex(_DynLocal(), 1, {"data": ComputeGraph.span(tensor, 2, 10)})
        cs.add_vertex(_DynLocal(), 0, {"data": ComputeGraph.span(tensor, 3, 8)})
        first, second = check_graph(graph).warnings
        # Tile 1 reads [2, 4) and [8, 10) remotely; the first is reported.
        assert (first.tile, first.interval) == (1, (2, 4))
        assert "but 4 element(s) live on other tiles" in first.message
        # Tile 0 reads only [4, 8) remotely.
        assert (second.tile, second.interval) == (0, (4, 8))
        assert "but 4 element(s) live on other tiles" in second.message

    def test_local_segment_clean(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "seg", (8,), np.float32,
            mapping=TileMapping.single_tile(8, tile=2),
        )
        cs = graph.add_compute_set("dyn")
        cs.add_vertex(_DynLocal(), 2, {"data": ComputeGraph.full(tensor)})
        assert check_graph(graph).clean


class TestProgramRestriction:
    def test_unreachable_compute_sets_skipped(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        racy = graph.add_compute_set("racy")
        writer = _Writer()
        racy.add_vertex(writer, 0, {"out": ComputeGraph.full(tensor)})
        racy.add_vertex(writer, 1, {"out": ComputeGraph.full(tensor)})
        clean = graph.add_compute_set("clean")
        clean.add_vertex(_Reader(), 0, {"data": ComputeGraph.full(tensor)})

        assert not check_graph(graph).ok
        restricted = check_graph(graph, program=Execute(clean))
        assert restricted.ok
        assert restricted.compute_sets_checked == 1


class TestReportApi:
    def _racy_report(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("racy")
        writer = _Writer()
        cs.add_vertex(writer, 0, {"out": ComputeGraph.full(tensor)})
        cs.add_vertex(writer, 1, {"out": ComputeGraph.full(tensor)})
        return check_graph(graph)

    def test_raise_if_failed(self, toy_spec):
        report = self._racy_report(toy_spec)
        with pytest.raises(ConstraintError, match="C1.WRITE_WRITE"):
            report.raise_if_failed()

    def test_warnings_not_fatal_by_default(self, toy_spec):
        graph = ComputeGraph(toy_spec)
        tensor = graph.add_tensor(
            "seg", (8,), np.float32,
            mapping=TileMapping.single_tile(8, tile=1),
        )
        cs = graph.add_compute_set("dyn")
        cs.add_vertex(_DynLocal(), 0, {"data": ComputeGraph.full(tensor)})
        report = check_graph(graph)
        report.raise_if_failed()  # warnings only: no raise
        with pytest.raises(ConstraintError):
            report.raise_if_failed(include_warnings=True)

    def test_by_constraint_and_format(self, toy_spec):
        report = self._racy_report(toy_spec)
        assert report.by_constraint() == {"C1": 1}
        assert "C1.WRITE_WRITE" in report.format_text()
        assert "compute set 'racy'" in report.diagnostics[0].format()

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(code="C1.X", severity="fatal", message="nope")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="memory_headroom"):
            CheckConfig(memory_headroom=1.5)
        with pytest.raises(ValueError, match="imbalance_threshold"):
            CheckConfig(imbalance_threshold=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            CheckConfig(vertex_state_bytes=-1)


class TestDocumentExport:
    def test_document_validates(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("racy")
        writer = _Writer()
        cs.add_vertex(writer, 0, {"out": ComputeGraph.full(tensor)})
        cs.add_vertex(writer, 1, {"out": ComputeGraph.full(tensor)})
        report = check_graph(graph)

        document = check_document({"toy racy": report}, meta={"sizes": [8]})
        validate_document(document)
        assert document["schema"] == "repro.check/1"
        assert document["ok"] is False
        (entry,) = document["reports"]
        assert entry["label"] == "toy racy"
        assert entry["by_constraint"] == {"C1": 1}
        (diag,) = entry["diagnostics"]
        assert diag["code"] == "C1.WRITE_WRITE"
        assert diag["interval"] == [0, 8]

    def test_inconsistent_ok_flag_rejected(self, toy_spec):
        graph, _ = _graph_with_tensor(toy_spec)
        document = check_document({"clean": check_graph(graph)})
        document["ok"] = False  # disagrees with the all-ok reports
        with pytest.raises(SchemaError):
            validate_document(document)

    def test_report_to_dict_round_trip_counts(self, toy_spec):
        graph, _ = _graph_with_tensor(toy_spec)
        report = check_graph(graph)
        payload = check_report_to_dict(report)
        assert payload["ok"] is True
        assert payload["tensors_checked"] == 1
        assert payload["diagnostics"] == []


class TestCompilerAndEngineWiring:
    def _rw_racy(self, toy_spec):
        """Passes the compiler's write-overlap check, fails the checker."""
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("rw")
        cs.add_vertex(_Writer(), 0, {"out": ComputeGraph.span(tensor, 0, 4)})
        cs.add_vertex(_Reader(), 1, {"data": ComputeGraph.span(tensor, 2, 6)})
        return graph, Execute(cs)

    def test_strict_engine_rejects(self, toy_spec):
        graph, program = self._rw_racy(toy_spec)
        compile_graph(graph, program)  # compiles fine without the checker
        with pytest.raises(ConstraintError, match="C1.READ_WRITE"):
            Engine(graph, program, check="strict")

    def test_warn_engine_keeps_report(self, toy_spec):
        graph, program = self._rw_racy(toy_spec)
        engine = Engine(graph, program, check="warn")
        report = engine.compiled.check_report
        assert report is not None and not report.ok

    def test_off_is_default(self, toy_spec):
        graph, program = self._rw_racy(toy_spec)
        assert Engine(graph, program).compiled.check_report is None

    def test_unknown_mode_rejected(self, toy_spec):
        graph, program = self._rw_racy(toy_spec)
        with pytest.raises(CompilationError, match="check mode"):
            compile_graph(graph, program, check="loose")

    def test_strict_accepts_clean_graph(self, toy_spec):
        graph, tensor = _graph_with_tensor(toy_spec)
        cs = graph.add_compute_set("fill")
        cs.add_vertex(Fill(), 0, {"data": ComputeGraph.full(tensor)},
                      params={"value": 3})
        engine = Engine(graph, Execute(cs), check="strict")
        assert engine.compiled.check_report.clean
