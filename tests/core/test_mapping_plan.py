"""Tests for HunIPU's data-to-tile plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping_plan import COL_SEGMENT_SIZE, MappingPlan
from repro.errors import MappingError
from repro.ipu.spec import IPUSpec


class TestRowPlan:
    def test_exact_balance_at_power_of_two(self):
        plan = MappingPlan.for_size(8192, IPUSpec.mk2())
        assert plan.num_row_tiles == 1024  # largest divisor of 8192 <= 1472
        assert plan.rows_per_tile == 8

    def test_one_row_per_tile_when_small(self):
        plan = MappingPlan.for_size(512, IPUSpec.mk2())
        assert plan.num_row_tiles == 512
        assert plan.rows_per_tile == 1

    def test_prime_size_falls_back_gracefully(self):
        plan = MappingPlan.for_size(1009, IPUSpec.mk2())  # prime
        assert plan.num_row_tiles == 1009
        assert plan.rows_per_tile == 1

    def test_rejects_zero(self):
        with pytest.raises(MappingError):
            MappingPlan.for_size(0, IPUSpec.mk2())

    @settings(max_examples=50, deadline=None)
    @given(size=st.integers(1, 4000), tiles=st.integers(1, 64))
    def test_rows_always_exactly_balanced(self, size, tiles):
        plan = MappingPlan.for_size(size, IPUSpec(num_tiles=tiles))
        assert plan.num_row_tiles * plan.rows_per_tile == size
        assert plan.num_row_tiles <= tiles or plan.num_row_tiles == size

    def test_row_block_ranges(self):
        plan = MappingPlan.for_size(12, IPUSpec(num_tiles=4))
        starts, stops = plan.row_regions(1)
        assert starts.tolist() == [0, 3, 6, 9]
        assert stops.tolist() == [3, 6, 9, 12]
        starts, stops = plan.row_regions(12)
        assert starts.tolist() == [0, 36, 72, 108]
        assert stops.tolist() == [36, 72, 108, 144]


class TestColumnPlan:
    def test_default_segment_size_is_32(self):
        plan = MappingPlan.for_size(100, IPUSpec.mk2())
        assert plan.col_segment_size == COL_SEGMENT_SIZE == 32

    def test_segment_count(self):
        plan = MappingPlan.for_size(100, IPUSpec.mk2())
        assert plan.num_col_segments == 4  # ceil(100 / 32)

    def test_col_segment_ranges_clamp(self):
        plan = MappingPlan.for_size(100, IPUSpec.mk2())
        assert plan.col_segment(3) == (96, 100)

    def test_override_segment_size(self):
        plan = MappingPlan.for_size(100, IPUSpec.mk2(), col_segment_size=50)
        assert plan.num_col_segments == 2

    def test_rejects_bad_segment_size(self):
        with pytest.raises(MappingError):
            MappingPlan.for_size(100, IPUSpec.mk2(), col_segment_size=0)


class TestMappings:
    def test_matrix_mapping_rows_local(self):
        plan = MappingPlan.for_size(16, IPUSpec(num_tiles=4))
        mapping = plan.matrix_mapping()
        # Row 5 (elements 80..96) lives on tile 1 (rows 4..8).
        assert mapping.tile_of(5 * 16) == 1

    def test_row_state_aligned_with_matrix(self):
        plan = MappingPlan.for_size(16, IPUSpec(num_tiles=4))
        matrix = plan.matrix_mapping()
        state = plan.row_state_mapping()
        for row in range(16):
            assert state.tile_of(row) == matrix.tile_of(row * 16)

    def test_col_state_segments_of_32(self):
        plan = MappingPlan.for_size(100, IPUSpec.mk2())
        mapping = plan.col_state_mapping()
        lengths = [iv.length for iv in mapping.intervals]
        assert lengths == [32, 32, 32, 4]
