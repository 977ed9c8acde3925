"""Tests for the cluster layer: ClusterSpec, the inter-IPU link cost
model, hierarchical reduces, and the profiler's external-sync charging."""

import dataclasses

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.ipu.cluster import (
    IPU_LINK_BANDWIDTH_BYTES_PER_S,
    IPU_LINK_LATENCY_S,
    IPU_LINK_SYNC_CYCLES,
    ClusterSpec,
)
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import VecReduce, build_reduce, chip_slices, fold_per_chip
from repro.ipu.programs import Copy, Execute, Sequence
from repro.ipu.spec import IPUSpec


class TestClusterSpec:
    def test_defaults_are_published_link_numbers(self):
        cluster = ClusterSpec()
        assert cluster.link_bandwidth_bytes_per_s == IPU_LINK_BANDWIDTH_BYTES_PER_S
        assert cluster.link_latency_s == IPU_LINK_LATENCY_S
        assert cluster.inter_sync_cycles == IPU_LINK_SYNC_CYCLES
        # An order of magnitude below the on-chip fabric, per the
        # microbenchmarking paper.
        assert (
            cluster.link_bandwidth_bytes_per_s
            < cluster.chip.exchange_bandwidth_bytes_per_s / 10
        )

    def test_rejects_multi_chip_chip(self):
        with pytest.raises(ValueError, match="single-chip"):
            ClusterSpec(chip=IPUSpec.toy(num_ipus=2))

    def test_rejects_zero_ipus(self):
        with pytest.raises(ValueError, match="at least one"):
            ClusterSpec(chip=IPUSpec.toy(), num_ipus=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("link_bandwidth_bytes_per_s", 0.0),
            ("link_bandwidth_bytes_per_s", -1.0),
            ("link_latency_s", -1e-9),
            ("inter_sync_cycles", -1),
        ],
    )
    def test_rejects_bad_link_parameters(self, field, value):
        with pytest.raises(ValueError):
            ClusterSpec(chip=IPUSpec.toy(), **{field: value})

    def test_total_tiles(self):
        assert ClusterSpec.toy(num_tiles=4, num_ipus=2).total_tiles == 8
        assert ClusterSpec.m2000().total_tiles == 4 * 1472

    def test_system_flattens_to_spec(self):
        cluster = ClusterSpec.toy(num_tiles=4, num_ipus=2)
        spec = cluster.system()
        assert isinstance(spec, IPUSpec)
        assert spec.num_ipus == 2
        assert spec.num_tiles == 4  # per chip; tiles stay flat-addressed
        assert spec.total_tiles == 8
        assert spec.inter_ipu_bandwidth_bytes_per_s == cluster.link_bandwidth_bytes_per_s
        assert spec.inter_ipu_latency_s == cluster.link_latency_s
        assert spec.inter_ipu_sync_cycles == cluster.inter_sync_cycles

    def test_system_of_single_chip_matches_chip(self):
        """A 1-IPU cluster is the chip — the golden traces must not move."""
        chip = IPUSpec.toy(num_tiles=4)
        system = ClusterSpec(chip=chip, num_ipus=1).system()
        assert system == dataclasses.replace(
            chip,
            inter_ipu_bandwidth_bytes_per_s=IPU_LINK_BANDWIDTH_BYTES_PER_S,
            inter_ipu_latency_s=IPU_LINK_LATENCY_S,
            inter_ipu_sync_cycles=IPU_LINK_SYNC_CYCLES,
        )


class TestSpecLinkFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("inter_ipu_bandwidth_bytes_per_s", 0.0),
            ("inter_ipu_bandwidth_bytes_per_s", -5.0),
            ("inter_ipu_latency_s", -1e-6),
            ("inter_ipu_sync_cycles", -1),
        ],
    )
    def test_spec_validates_link_fields(self, field, value):
        with pytest.raises(ValueError):
            IPUSpec(**{field: value})

    def test_inter_sync_extra_seconds(self):
        spec = IPUSpec.mk2()
        assert spec.inter_ipu_sync_extra_seconds() == pytest.approx(
            spec.inter_ipu_sync_cycles / spec.clock_hz
        )

    def test_exchange_includes_link_latency(self):
        spec = IPUSpec.mk2()
        # One cross-chip byte still pays the full microsecond of latency.
        assert spec.exchange_seconds(0, inter_ipu_bytes=1) >= spec.inter_ipu_latency_s


class TestChipSlices:
    def test_single_chip_is_one_slice(self):
        assert chip_slices([0, 1, 2, 3], 4) == [(0, 0, 4)]

    def test_contiguous_chips(self):
        assert chip_slices([0, 1, 4, 5], 4) == [(0, 0, 2), (1, 2, 4)]
        assert chip_slices([2, 4, 8], 4) == [(0, 0, 1), (1, 1, 2), (2, 2, 3)]

    def test_interleaved_chips_return_none(self):
        assert chip_slices([0, 4, 1], 4) is None
        assert chip_slices([4, 0, 4], 4) is None

    def test_empty(self):
        assert chip_slices([], 4) == []


class TestHierarchicalReduce:
    def _reduce(self, spec, tiles, data, op):
        graph = ComputeGraph(spec)
        source = graph.add_tensor(
            "src",
            (len(data),),
            np.float32,
            mapping=TileMapping.linear_segments(
                len(data), len(data) // len(tiles), tiles
            ),
        )
        out = graph.add_tensor(
            "out", (1,), np.float32, mapping=TileMapping.single_tile(1)
        )
        program = build_reduce(graph, source, op, out, "r")
        source.write_host(np.asarray(data, dtype=np.float32))
        Engine(graph, program).run()
        return graph, program, float(out.read_host()[0])

    @pytest.mark.parametrize("op", ["min", "max", "sum"])
    def test_multi_chip_reduce_is_three_stage_and_exact(self, op):
        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        data = [3.0, -7.0, 11.0, 2.0, 5.0, -1.0, 0.0, 9.0]
        graph, program, got = self._reduce(spec, [0, 1, 2, 3], data, op)
        assert isinstance(program, Sequence)
        assert len(program.programs) == 3  # partial -> ipu -> final
        assert "r/ipu_partials" in [t.name for t in graph.tensors]
        expected = {"min": min, "max": max, "sum": sum}[op](data)
        assert got == expected

    def test_single_chip_reduce_stays_two_stage(self):
        spec = IPUSpec.toy(num_tiles=4)
        data = [3.0, -7.0, 11.0, 2.0, 5.0, -1.0, 0.0, 9.0]
        graph, program, got = self._reduce(spec, [0, 1, 2, 3], data, "min")
        assert len(program.programs) == 2
        assert "r/ipu_partials" not in [t.name for t in graph.tensors]
        assert got == min(data)

    def test_hierarchical_matches_flat_bitwise(self):
        """Regrouping min over chips must not change a single bit."""
        rng = np.random.default_rng(3)
        data = rng.uniform(-1e6, 1e6, 16).astype(np.float32)
        flat_spec = IPUSpec.toy(num_tiles=4)
        multi_spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        _, _, flat = self._reduce(flat_spec, [0, 1, 2, 3], list(data), "min")
        _, _, hier = self._reduce(multi_spec, [0, 1, 2, 3], list(data), "min")
        assert np.float32(flat).tobytes() == np.float32(hier).tobytes()

    def test_reduce_rejects_vector_target_multi_chip(self):
        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        graph = ComputeGraph(spec)
        source = graph.add_tensor(
            "src", (4,), np.float32, mapping=TileMapping.single_tile(4)
        )
        out = graph.add_tensor(
            "out", (2,), np.float32, mapping=TileMapping.single_tile(2)
        )
        with pytest.raises(GraphConstructionError, match="scalar"):
            build_reduce(graph, source, "min", out, "bad")


# Two 2-tile chips whose partial tiles interleave: chips 0, 1, 0, 1.
_INTERLEAVED = [0, 2, 1, 3]
_DATA = [3.0, -7.0, 11.0, 2.0, 5.0, -1.0, 0.0, 9.0]


def _via_build_reduce(graph, out):
    source = graph.add_tensor(
        "src",
        (len(_DATA),),
        np.float32,
        mapping=TileMapping.linear_segments(len(_DATA), 2, _INTERLEAVED),
    )
    source.write_host(np.asarray(_DATA, dtype=np.float32))
    return build_reduce(graph, source, "min", out, "r")


def _via_fold_per_chip(graph, out):
    partials = graph.add_tensor(
        "r/partials",
        (len(_INTERLEAVED),),
        np.float32,
        mapping=TileMapping.per_element(_INTERLEAVED),
    )
    partials.write_host(np.asarray(_DATA, dtype=np.float32).reshape(-1, 2).min(1))
    codelet = VecReduce("min")
    final_input, stages = fold_per_chip(
        graph, partials, codelet, "r/ipu_partials", "r/ipu"
    )
    final = graph.add_compute_set("r/final")
    final.add_vertex(
        codelet,
        0,
        {"data": ComputeGraph.full(final_input), "out": ComputeGraph.full(out)},
    )
    return Sequence(*stages, Execute(final))


class TestInterleavedChipsStayFlat:
    @pytest.mark.parametrize("build", [_via_build_reduce, _via_fold_per_chip])
    def test_final_stage_reads_the_tile_partials(self, build):
        """With no contiguous per-chip slices there is no per-chip stage:
        the final stage combines every tile's partial, exactly."""
        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        assert chip_slices(_INTERLEAVED, spec.num_tiles) is None
        graph = ComputeGraph(spec)
        out = graph.add_tensor(
            "out", (1,), np.float32, mapping=TileMapping.single_tile(1)
        )
        program = build(graph, out)
        Engine(graph, program).run()
        assert "r/ipu_partials" not in [t.name for t in graph.tensors]
        assert "r/ipu" not in [cs.name for cs in graph.compute_sets]
        final = program.programs[-1].compute_set
        assert final.name == "r/final"
        assert final.vertices[0].connections["data"].tensor.name == "r/partials"
        assert float(out.read_host()[0]) == min(_DATA)


class TestInterSyncCharging:
    def _cross_chip_copy_report(self, spec):
        graph = ComputeGraph(spec)
        src = graph.add_tensor(
            "src", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        dst = graph.add_tensor(
            "dst",
            (4,),
            np.int32,
            mapping=TileMapping.single_tile(4, tile=spec.num_tiles),
        )
        return Engine(graph, Copy(src, dst)).run()

    def test_cross_chip_superstep_counts_external_sync(self):
        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        report = self._cross_chip_copy_report(spec)
        assert report.inter_ipu_syncs == 1
        assert report.inter_ipu_bytes == 16

    def test_external_sync_surcharges_phase_sync(self):
        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        report = self._cross_chip_copy_report(spec)
        expected = (
            report.supersteps * spec.sync_seconds()
            + report.inter_ipu_syncs * spec.inter_ipu_sync_extra_seconds()
        )
        assert report.phase_seconds["sync"] == pytest.approx(expected)

    def test_on_chip_superstep_pays_no_surcharge(self):
        spec = ClusterSpec.toy(num_tiles=2, num_ipus=2).system()
        graph = ComputeGraph(spec)
        src = graph.add_tensor(
            "src", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        dst = graph.add_tensor(
            "dst", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        report = Engine(graph, Copy(src, dst)).run()
        assert report.inter_ipu_syncs == 0
        assert report.phase_seconds["sync"] == pytest.approx(
            report.supersteps * spec.sync_seconds()
        )

    def test_single_ipu_sync_unchanged(self):
        """Single-chip phase_sync must stay the exact pre-cluster product
        (bit-identity of the committed profile artifacts depends on it)."""
        spec = IPUSpec.toy(num_tiles=4)
        graph = ComputeGraph(spec)
        src = graph.add_tensor(
            "src", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        dst = graph.add_tensor(
            "dst", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=3)
        )
        report = Engine(graph, Copy(src, dst)).run()
        assert report.inter_ipu_syncs == 0
        assert report.phase_seconds["sync"] == report.supersteps * spec.sync_seconds()
