"""Data-to-tile planning for HunIPU (§IV-A, §IV-E).

Two layout decisions drive the whole algorithm:

* the slack matrix and all *row-indexed* state use the **1D decomposition**:
  whole rows per tile, with an **equal number of rows on every used tile**
  (the paper enforces this for BSP balance, C3).  We realize "equal" exactly
  by using the largest tile count that divides ``n`` — on the Mk2's 1472
  tiles that means e.g. 1024 tiles × 8 rows for n = 8192;
* all *column-indexed* state (``col_cover``, ``col_star``) is split into
  fixed **32-element segments**, one per tile (§IV-E's empirically chosen
  size), so cover updates and their reduction run in parallel.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import MappingError
from repro.ipu.mapping import TileMapping
from repro.ipu.spec import IPUSpec

__all__ = ["MappingPlan", "COL_SEGMENT_SIZE"]

#: §IV-E: "we empirically find that 32 works well regardless of the data and
#: the architecture" (fixed at compile time, as the footnote requires).
COL_SEGMENT_SIZE = 32


@dataclasses.dataclass(frozen=True)
class MappingPlan:
    """Where HunIPU's tensors live for one problem size on one device.

    Attributes
    ----------
    size:
        The matrix dimension ``n``.
    row_tiles:
        Tiles holding row blocks (tile ``t`` owns rows
        ``[t * rows_per_tile, (t+1) * rows_per_tile)``).
    rows_per_tile:
        Identical on every row tile (exact balance).
    col_segment_size:
        Elements per column-state segment (32).
    """

    size: int
    row_tiles: tuple[int, ...]
    rows_per_tile: int
    col_segment_size: int = COL_SEGMENT_SIZE

    @classmethod
    def for_size(
        cls,
        size: int,
        spec: IPUSpec,
        *,
        col_segment_size: int = COL_SEGMENT_SIZE,
    ) -> "MappingPlan":
        """Plan the 1D decomposition of an ``n``-row matrix on ``spec``.

        Picks the largest tile count not exceeding the device (or the row
        count) that divides ``n`` evenly, so each tile gets exactly
        ``n / tiles`` rows.  ``col_segment_size`` overrides the paper's 32
        for the segment-size ablation benchmark.

        On a multi-IPU system (``spec.num_ipus > 1``) with ``n`` divisible
        by the chip count, the decomposition is **chip-aligned**: every
        chip owns the same contiguous band of ``n / num_ipus`` rows on the
        same number of tiles, so per-chip work is exactly level and each
        chip's row tiles are consecutive in ``row_tiles`` — the shape the
        hierarchical (intra- then inter-IPU) reduces require.  Other sizes
        fall back to the flat single-device split.
        """
        if size < 1:
            raise MappingError("matrix size must be positive")
        if col_segment_size < 1:
            raise MappingError("column segment size must be positive")
        if spec.num_ipus > 1 and size % spec.num_ipus == 0:
            rows_per_chip = size // spec.num_ipus
            per_chip = min(spec.num_tiles, rows_per_chip)
            while rows_per_chip % per_chip:
                per_chip -= 1
            return cls(
                size=size,
                row_tiles=tuple(
                    chip * spec.num_tiles + tile
                    for chip in range(spec.num_ipus)
                    for tile in range(per_chip)
                ),
                rows_per_tile=rows_per_chip // per_chip,
                col_segment_size=col_segment_size,
            )
        tiles = min(size, spec.total_tiles)
        while size % tiles:
            tiles -= 1
        return cls(
            size=size,
            row_tiles=tuple(range(tiles)),
            rows_per_tile=size // tiles,
            col_segment_size=col_segment_size,
        )

    # ------------------------------------------------------------------
    # Derived mappings
    # ------------------------------------------------------------------

    @property
    def num_row_tiles(self) -> int:
        return len(self.row_tiles)

    @property
    def num_col_segments(self) -> int:
        return -(-self.size // self.col_segment_size)

    def matrix_mapping(self) -> TileMapping:
        """Row-block mapping for ``(n, n)`` matrices (slack, compress)."""
        return TileMapping.row_blocks((self.size, self.size), self.row_tiles)

    def row_state_mapping(self) -> TileMapping:
        """Per-row state vectors, aligned with the matrix row blocks."""
        return TileMapping.row_blocks((self.size, 1), self.row_tiles)

    def row_threads_mapping(self, threads: int) -> TileMapping:
        """Per-row-per-thread state (zero counts), aligned with rows."""
        return TileMapping.row_blocks((self.size, threads), self.row_tiles)

    def col_state_mapping(self) -> TileMapping:
        """32-element segments for column state (§IV-E).

        Segments land on the row tiles in order — identical to the old
        ``range(...)`` assignment on one chip (row tiles *are* 0..t−1
        there), and spread across every chip of a sharded plan so column
        state is partitioned like the rows are.
        """
        tiles = self.row_tiles[: self.num_col_segments] or self.row_tiles[:1]
        return TileMapping.linear_segments(
            self.size, self.col_segment_size, tiles
        )

    def row_regions(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(starts, stops)`` of every row tile's block, in
        ``row_tiles`` order, for a row-major tensor of ``width`` elements
        per row (``n`` for the matrices, 1 for row state)."""
        starts = np.arange(self.num_row_tiles, dtype=np.int64) * (
            self.rows_per_tile * width
        )
        return starts, starts + self.rows_per_tile * width

    def col_segment(self, segment_index: int) -> tuple[int, int]:
        """Global column range of one column-state segment."""
        start = segment_index * self.col_segment_size
        return start, min(start + self.col_segment_size, self.size)
