"""Tile mappings: where a tensor's elements live on the chip.

Poplar requires every tensor to be explicitly mapped to tile memory (§III-A:
"each tensor must explicitly map to the tile's memory").  As in Poplar, a
mapping here is a set of non-overlapping intervals over the *flattened*
element index space, each interval owned by one tile.

The constructors cover the strategies discussed in the paper:

* :meth:`TileMapping.row_blocks` — the **1D decomposition** (§IV-A): whole
  rows per tile, balanced so every used tile holds the same number of rows
  (±1 when the row count does not divide evenly; HunIPU proper enforces an
  exactly equal split by choosing the tile count).
* :meth:`TileMapping.grid_blocks` — the **2D decomposition** considered and
  rejected in §IV-A; kept for the ablation benchmark.
* :meth:`TileMapping.linear_segments` — fixed-size segments round-robined
  over tiles, used for ``col_cover``/``col_star`` with 32-element segments
  (§IV-E).
* :meth:`TileMapping.single_tile` — everything on one tile, used for small
  host-visible scalars and the final stage of partition-and-distribute
  dynamic slicing (§IV-G).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from repro.errors import MappingError

__all__ = ["Interval", "TileMapping"]


@dataclasses.dataclass(frozen=True)
class Interval:
    """A contiguous run ``[start, stop)`` of flattened elements on ``tile``."""

    tile: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.tile < 0:
            raise MappingError(f"negative tile id {self.tile}")
        if not 0 <= self.start < self.stop:
            raise MappingError(
                f"invalid interval [{self.start}, {self.stop}) on tile {self.tile}"
            )

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclasses.dataclass(frozen=True)
class TileMapping:
    """An exact cover of ``[0, size)`` by tile-owned intervals.

    Intervals are stored sorted by ``start``; adjacency is not merged, so a
    mapping retains the segment structure it was built with (which the
    compression and dynamic-op code relies on).
    """

    size: int
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise MappingError("cannot map an empty tensor")
        intervals = tuple(sorted(self.intervals, key=lambda iv: iv.start))
        cursor = 0
        for interval in intervals:
            if interval.start != cursor:
                raise MappingError(
                    f"mapping has a gap or overlap at element {cursor} "
                    f"(next interval starts at {interval.start})"
                )
            cursor = interval.stop
        if cursor != self.size:
            raise MappingError(
                f"mapping covers [0, {cursor}) but the tensor has {self.size} "
                "elements"
            )
        object.__setattr__(self, "intervals", intervals)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def single_tile(cls, size: int, tile: int = 0) -> "TileMapping":
        """Map the whole tensor to one tile."""
        return cls(size, (Interval(tile, 0, size),))

    @classmethod
    def row_blocks(
        cls, shape: tuple[int, int], tiles: Sequence[int]
    ) -> "TileMapping":
        """1D decomposition: contiguous row blocks, one block per tile.

        Rows are spread as evenly as possible over ``tiles`` in order; the
        first ``rows % len(tiles)`` tiles receive one extra row.  Tiles
        beyond the row count receive nothing and are dropped.
        """
        rows, cols = shape
        if rows <= 0 or cols <= 0:
            raise MappingError(f"invalid 2-D shape {shape}")
        tiles = list(tiles)
        if not tiles:
            raise MappingError("row_blocks needs at least one tile")
        used = min(len(tiles), rows)
        base, extra = divmod(rows, used)
        intervals = []
        row_cursor = 0
        for index in range(used):
            block_rows = base + (1 if index < extra else 0)
            start = row_cursor * cols
            stop = (row_cursor + block_rows) * cols
            intervals.append(Interval(tiles[index], start, stop))
            row_cursor += block_rows
        return cls(rows * cols, tuple(intervals))

    @classmethod
    def linear_segments(
        cls,
        size: int,
        segment_size: int,
        tiles: Sequence[int],
    ) -> "TileMapping":
        """Fixed-size segments assigned round-robin over ``tiles``.

        Used for the 32-element ``col_cover``/``col_star`` segments of
        §IV-E.  The final segment may be shorter.
        """
        if segment_size <= 0:
            raise MappingError("segment_size must be positive")
        tiles = list(tiles)
        if not tiles:
            raise MappingError("linear_segments needs at least one tile")
        intervals = []
        for index, start in enumerate(range(0, size, segment_size)):
            stop = min(start + segment_size, size)
            intervals.append(Interval(tiles[index % len(tiles)], start, stop))
        return cls(size, tuple(intervals))

    @classmethod
    def per_element(cls, tiles: Sequence[int]) -> "TileMapping":
        """One element per tile, in order — used for per-tile partial-reduce
        scratch vectors (element *i* lives where stage *i* computes it)."""
        tiles = list(tiles)
        if not tiles:
            raise MappingError("per_element needs at least one tile")
        intervals = tuple(
            Interval(tile, index, index + 1) for index, tile in enumerate(tiles)
        )
        return cls(len(tiles), intervals)

    @classmethod
    def grid_blocks(
        cls,
        shape: tuple[int, int],
        tile_grid: tuple[int, int],
        tiles: Sequence[int],
    ) -> "TileMapping":
        """2D decomposition: a ``(tr, tc)`` grid of blocks over the matrix.

        Each block becomes ``block_rows`` intervals (one per row fragment),
        all owned by the block's tile — which is exactly why §IV-A rejects
        this strategy: a tile sees only a column slice of each of its rows.
        """
        rows, cols = shape
        grid_rows, grid_cols = tile_grid
        if grid_rows <= 0 or grid_cols <= 0:
            raise MappingError(f"invalid tile grid {tile_grid}")
        if grid_rows > rows or grid_cols > cols:
            raise MappingError(
                f"tile grid {tile_grid} is finer than the matrix {shape}"
            )
        tiles = list(tiles)
        if len(tiles) < grid_rows * grid_cols:
            raise MappingError(
                f"grid needs {grid_rows * grid_cols} tiles, got {len(tiles)}"
            )
        row_bounds = _even_bounds(rows, grid_rows)
        col_bounds = _even_bounds(cols, grid_cols)
        intervals = []
        for block_row in range(grid_rows):
            for row in range(row_bounds[block_row], row_bounds[block_row + 1]):
                for block_col in range(grid_cols):
                    tile = tiles[block_row * grid_cols + block_col]
                    start = row * cols + col_bounds[block_col]
                    stop = row * cols + col_bounds[block_col + 1]
                    intervals.append(Interval(tile, start, stop))
        return cls(rows * cols, tuple(intervals))

    # ------------------------------------------------------------------
    # Interval arrays (cached: a mapping is frozen, and re-mapping a
    # tensor swaps in a new TileMapping object)
    # ------------------------------------------------------------------

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """Interval starts, ascending (``int64``)."""
        return np.array([iv.start for iv in self.intervals], dtype=np.int64)

    @functools.cached_property
    def stops(self) -> np.ndarray:
        """Interval stops, aligned with :attr:`starts` (``int64``)."""
        return np.array([iv.stop for iv in self.intervals], dtype=np.int64)

    @functools.cached_property
    def tiles(self) -> np.ndarray:
        """Owning tile per interval, aligned with :attr:`starts` (``int64``)."""
        return np.array([iv.tile for iv in self.intervals], dtype=np.int64)

    def foreign_elements(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        tiles: np.ndarray,
        tiles_per_ipu: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Elements of each region ``[starts[i], stops[i])``, read from
        ``tiles[i]``, that live on another tile — and on another chip
        (all three ``int64`` arrays).

        This is the one interval-overlap pass behind all static exchange
        accounting.  Returns ``(foreign, inter_ipu)`` per-region ``int64``
        counts; ``inter_ipu`` counts elements whose owning chip
        (``tile // tiles_per_ipu``) differs from the reader's, and is all
        zero when ``tiles_per_ipu`` is ``None`` (single-IPU accounting).
        Pass at least one region; each must be non-empty and lie within
        ``[0, size)``.
        """
        # Interval i overlaps [start, stop) iff stops[i] > start and
        # starts[i] < stop; on a sorted exact cover that is an index range.
        first = np.searchsorted(self.stops, starts, "right")
        counts = np.searchsorted(self.starts, stops, "left") - first
        offsets = np.cumsum(counts) - counts
        region = np.repeat(np.arange(len(starts)), counts)
        interval = first[region] + np.arange(int(counts.sum())) - offsets[region]
        overlap = np.minimum(self.stops[interval], stops[region]) - np.maximum(
            self.starts[interval], starts[region]
        )
        owner = self.tiles[interval]
        reader = tiles[region]
        foreign = np.add.reduceat(np.where(owner != reader, overlap, 0), offsets)
        if tiles_per_ipu is None:
            return foreign, np.zeros_like(foreign)
        cross = owner // tiles_per_ipu != reader // tiles_per_ipu
        inter = np.add.reduceat(np.where(cross, overlap, 0), offsets)
        return foreign, inter

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tiles_used(self) -> tuple[int, ...]:
        """Distinct tiles holding at least one element, ascending."""
        return tuple(sorted({interval.tile for interval in self.intervals}))

    def tile_of(self, flat_index: int) -> int:
        """Owning tile of one flattened element index."""
        if not 0 <= flat_index < self.size:
            raise MappingError(
                f"element {flat_index} out of range for size {self.size}"
            )
        index = int(np.searchsorted(self.stops, flat_index, "right"))
        return self.intervals[index].tile

    def bytes_per_tile(self, itemsize: int) -> dict[int, int]:
        """Bytes of this tensor resident on each used tile."""
        totals: dict[int, int] = {}
        for interval in self.intervals:
            totals[interval.tile] = (
                totals.get(interval.tile, 0) + interval.length * itemsize
            )
        return totals

    def intervals_on_tile(self, tile: int) -> tuple[Interval, ...]:
        """All intervals owned by ``tile`` (possibly empty)."""
        return tuple(iv for iv in self.intervals if iv.tile == tile)

    def max_tile(self) -> int:
        """Largest tile id referenced (for compile-time range checks)."""
        return max(interval.tile for interval in self.intervals)

    def as_uniform_blocks(self) -> tuple[int, tuple[int, ...]] | None:
        """If every interval has equal length and a distinct tile, return
        ``(block_length, tiles_in_order)``; else ``None``.

        The vectorized engine uses this to reshape a tensor into a
        ``(num_tiles, block)`` view and run a batched codelet over all tiles
        at once.
        """
        lengths = {interval.length for interval in self.intervals}
        if len(lengths) != 1:
            return None
        tiles = tuple(interval.tile for interval in self.intervals)
        if len(set(tiles)) != len(tiles):
            return None
        return lengths.pop(), tiles

    def __len__(self) -> int:
        return len(self.intervals)


def _even_bounds(total: int, parts: int) -> list[int]:
    """Split ``range(total)`` into ``parts`` near-equal pieces; boundaries."""
    base, extra = divmod(total, parts)
    bounds = [0]
    for index in range(parts):
        bounds.append(bounds[-1] + base + (1 if index < extra else 0))
    return bounds
