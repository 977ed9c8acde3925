"""Step 4 — search for an uncovered zero to prime (§IV-F).

Every row is classified into the three-state ``zero_status`` of the paper
(−1: no uncovered zero; 0: uncovered zero and a star in the row; 1:
uncovered zero, no star — an augmenting path can start here) by scanning
only the *compressed* zero positions.  A two-stage arg-max reduction picks
the acting row (max status, lowest row index on ties) and its uncovered
zero column, plus the column of the row's star — everything the three
outcomes need:

* max = −1 → Step 6 (no uncovered zeros anywhere);
* max = 1  → Step 5 (augment from the selected row);
* max = 0  → prime the zero, cover its row, uncover its star's column, and
  rerun Step 4 (built here as :func:`build_prime_update`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.compression import segment_bounds
from repro.core.dynamic_ops import DynStore, segment_owners
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import fold_per_chip
from repro.ipu.programs import Execute, Program, Sequence

__all__ = [
    "ZeroStatusScan",
    "StatusArgmaxPartial",
    "StatusArgmaxFinal",
    "PrimeRowUpdate",
    "build_step4",
    "build_prime_update",
]


class ZeroStatusScan(Codelet):
    """Classify each local row by scanning its compressed zero positions.

    One worker thread per row (§IV-F); only stored zero positions are
    examined, which is the compression payoff — cost scales with the number
    of zeros, not with n.  The per-tile arg-max over the freshly computed
    statuses is fused into the same vertex (``partial`` emits
    ``[status, global_row, zero_col, star_col]``).

    The bound kernel (:class:`_BoundScan`) charges and writes exactly what
    :meth:`compute_all` does, but re-derives a row only when its inputs
    changed since the previous superstep.
    """

    fields = {
        "compress": "in",
        "zero_count": "in",
        "row_cover": "in",
        "row_star": "in",
        "col_cover": "in",
        "zero_status": "out",
        "zero_col": "out",
        "partial": "out",
    }

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext, tensors=None):
        return _BoundScan(params, cost, tensors)


class _BoundScan:
    """:class:`ZeroStatusScan` bound to one plan, with host-side caching.

    The scan list (each row's populated segment-front slots), the zeros it
    holds and the charged cycles depend only on ``compress`` and
    ``zero_count``, so they are kept until either tensor's write counter
    moves.  Each row's first uncovered zero also depends on ``col_cover``,
    which is compared with the previous call's copy: a prime uncovers one
    column, and only the rows listing it are looked at.  With one row per
    tile, the outputs are then rewritten only for those rows and for rows
    whose cover changed since the previous call, as long as the write
    counters show that nothing else wrote the outputs or ``row_star``;
    otherwise every row is rewritten.  Without ``tensors`` (the stateless
    :meth:`ZeroStatusScan.compute_all`) every call starts from scratch.

    Each segment is read up to the largest ``zero_count`` among all rows
    of the batch, not the row's own count.  While ``compress`` holds stale
    entries beyond a row's count (after Step 2's row sort, until the first
    recompress), a vertex therefore sees entries that depend on the other
    vertices in its batch, and ``per_tile`` runs can differ from batched
    ones.

    A rebuild follows every recompression, though one changes the zeros
    of only a few rows: re-deriving just those rows still needs most of a
    rebuild's array operations (the diff against a kept list, the charge,
    the rows' first open entries), and saves too little for its state.
    """

    def __init__(self, params, cost: CostContext, tensors) -> None:
        self.cols = int(params["cols"][0])
        self.threads = int(params["threads"][0])
        # Each column's segment and its rank within it: slot ``c`` of a
        # row is populated iff ``rank[c] < zero_count[segment[c]]``.
        self.segment = np.empty(self.cols, dtype=np.intp)
        self.rank = np.empty(self.cols, dtype=np.intp)
        for thread, (start, stop) in enumerate(
            segment_bounds(self.cols, self.threads)
        ):
            self.segment[start:stop] = thread
            self.rank[start:stop] = np.arange(stop - start)
        self.row_length = 0  # of the codes buffer, allocated by ``_gather``
        self.open: np.ndarray | None = None
        self.row0 = params["row0"].astype(np.int64)
        self.full_scan = (
            params.get("full_scan") is not None and params["full_scan"][0]
        )
        self.cost = cost
        self.inputs = (
            None if tensors is None else (tensors["compress"], tensors["zero_count"])
        )
        self.key: tuple[int, int] | None = None
        #: The tail's outputs and ``row_star``: while only this kernel
        #: wrote the outputs and ``row_star`` is unchanged, a call rewrites
        #: just the rows whose first open zero or row cover moved.
        self.watched = (
            None
            if tensors is None
            else tuple(
                tensors[field]
                for field in ("zero_status", "zero_col", "partial", "row_star")
            )
        )
        self.expected: tuple[int, ...] | None = None
        self.cover: np.ndarray | None = None  # row covers at the last call

    def __call__(self, views) -> np.ndarray:
        covers = views["col_cover"][0]  # identical broadcast row
        moved = None  # rows whose first open entry moved; None: any row
        if self.inputs is None:
            self._gather(views, covers)
        else:
            compress, zero_count = self.inputs
            key = (compress.writes, zero_count.writes)
            if key != self.key:
                self._gather(views, covers)
                self.key = key
            else:
                moved = self._refresh(covers)
        row_cover, row_star = views["row_cover"], views["row_star"]
        partial = views["partial"]
        if row_cover.shape[1] == 1:
            # One row per tile (n <= 1472 on a Mk2): every output is one
            # column, and each tile's row is its own arg-max winner.
            cover = row_cover[:, 0]
            if moved is not None and self._outputs_intact():
                flipped = (cover != self.cover).nonzero()[0].tolist()
                self.cover[:] = cover
                self._update_rows(views, moved + flipped)
            else:
                row_star = row_star[:, 0]
                found = np.maximum(self.codes[self.first], -1)
                found = np.where(cover, -1, found)
                status = np.where(found < 0, -1, row_star < 0)
                views["zero_status"][:, 0] = status
                views["zero_col"][:, 0] = found
                partial[:, 0] = status
                partial[:, 1] = self.row0
                partial[:, 2] = found
                partial[:, 3] = row_star
                self.cover = cover.copy()
            if self.watched is not None:
                # The engine bumps each output once after this superstep.
                zero_status, zero_col, partials, stars = self.watched
                self.expected = (
                    zero_status.writes + 1,
                    zero_col.writes + 1,
                    partials.writes + 1,
                    stars.writes,
                )
            return self.cycles
        found = np.maximum(self.codes[self.first], -1).reshape(row_cover.shape)
        found = np.where(row_cover, -1, found)
        status = np.where(found < 0, -1, row_star < 0)
        views["zero_status"][...] = status
        views["zero_col"][...] = found
        # Fused per-tile arg-max (max status, lowest local row on ties).
        best = status.argmax(axis=1)
        take = np.arange(len(best))
        partial[:, 0] = status[take, best]
        partial[:, 1] = self.row0 + best
        partial[:, 2] = found[take, best]
        partial[:, 3] = row_star[take, best]
        return self.cycles

    def _outputs_intact(self) -> bool:
        """Whether the outputs still hold this kernel's last values."""
        watched = self.watched
        return watched is not None and self.expected == tuple(
            tensor.writes for tensor in watched
        )

    def _update_rows(self, views, rows: list[int]) -> None:
        """Rewrite the one-row-per-tile outputs of ``rows`` only."""
        cover, star = views["row_cover"], views["row_star"]
        zero_status, zero_col = views["zero_status"], views["zero_col"]
        partial = views["partial"]
        for row in rows:
            code = self.codes.item(self.first.item(row))
            col = -1 if cover.item(row, 0) else max(code, -1)
            status = -1 if col < 0 else int(star.item(row, 0) < 0)
            zero_status[row, 0] = partial[row, 0] = status
            zero_col[row, 0] = partial[row, 2] = col

    def _gather(self, views, covers) -> None:
        """Rebuild the scan list, the charge and every row's first open zero."""
        cols, threads, cost = self.cols, self.threads, self.cost
        compress = views["compress"]
        batch = compress.shape[0]
        rows = compress.shape[1] // cols
        counts = views["zero_count"]
        # Touch only each segment's populated front slots — the
        # compression payoff: work scales with the zero count, not n.
        occupancy = counts.reshape(-1, threads).max(axis=0)
        take = np.flatnonzero(self.rank < occupancy[self.segment])
        listed = compress.reshape(-1, cols)[:, take]
        status_cycles, row_scan_cycles = _row_cycles(cost, rows)
        if self.full_scan:
            # Compression ablation: charge what scanning the raw slack
            # rows would cost (the computation itself is unchanged).
            work = rows * np.asarray(cost.scan_cycles(cols)) * np.ones(batch)
        else:
            zeros_scanned = (listed >= 0).reshape(batch, -1).sum(axis=1)
            per_zero = cost.cycles_per_dynamic_access + cost.cycles_per_alu_op
            work = zeros_scanned * per_zero + status_cycles
        self.cycles = np.ceil(work / cost.threads_per_tile) + row_scan_cycles
        # Column codes per row: the listed entries (a column, or -1 for an
        # empty slot, always covered), then a closing -2 (always open), so
        # every row has an open entry.  ``first`` holds the flat index of
        # each row's first open entry (flat order within a row is slot
        # order); its code, or -1 for the closer, is the row's zero column.
        length = listed.shape[1] + 1
        if length != self.row_length:
            self.row_length = length
            codes = np.empty((len(listed), length), dtype=listed.dtype)
            codes[:, -1] = -2
            self.codes = codes.reshape(-1)
            self.base = np.arange(0, len(self.codes), length)
        self.codes.reshape(-1, length)[:, :-1] = listed
        if self.open is None:
            width = len(covers)
            self.open = np.empty(width + 2, dtype=covers.dtype)
            self.open[width:] = (0, 1)  # codes -2 and -1 index these two
            self.open_cols = self.open[:width]
        self.open_cols[:] = covers
        self.first = self._first_open()

    def _refresh(self, covers) -> list[int] | None:
        """Apply the columns whose cover changed since the previous call.

        Returns the rows whose first open entry moved, or ``None`` after a
        full pass.
        """
        changed = (self.open_cols != covers).nonzero()[0].tolist()
        if not changed:
            return []
        self.open_cols[:] = covers
        newly_covered = len(changed) * 8 > len(covers)
        for col in changed:
            newly_covered = newly_covered or covers.item(col) != 0
        if newly_covered:
            # A column was covered (or many changed): one full pass.
            self.first = self._first_open()
            return None
        # Only uncovered columns: a row listing one may now find it first.
        first, row_length = self.first, self.row_length
        moved = []
        for col in changed:
            for entry in (self.codes == col).nonzero()[0].tolist():
                row = entry // row_length
                if entry < first.item(row):
                    first[row] = entry
                    moved.append(row)
        return moved

    def _first_open(self) -> np.ndarray:
        """Flat index of each row's first entry in an uncovered column."""
        is_open = self.open[self.codes].reshape(-1, self.row_length) == 0
        return is_open.argmax(axis=1) + self.base


# Charges that depend only on a plan's shape, priced once per shape.


@functools.lru_cache(maxsize=64)
def _row_cycles(cost: CostContext, rows: int) -> tuple[float, np.ndarray]:
    """The status scan's per-row status cost and its row-scan cycles."""
    return (
        rows * 2 * cost.cycles_per_alu_op,
        np.asarray(cost.segmented(cost.scan_cycles(rows))),
    )


@functools.lru_cache(maxsize=64)
def _combine_cycles(cost: CostContext, tiles: int) -> float:
    """Cycles to scan ``tiles`` arg-max 4-tuples."""
    return float(np.asarray(cost.scan_cycles(tiles * 4)))


class _Winner:
    """Offset of the ``[status, row, ...]`` 4-tuple with max status, lowest
    row on ties, in one vertex's flat row of 4-tuples.

    Rows are distinct, so the order is total.  When rows increase along
    the tuples, as every tile-ordered partial row does, the first top
    status is the lowest row, and one ``argmax`` finds it.  The row
    sequence last seen increasing is kept, so only a new one is checked.
    """

    def __init__(self) -> None:
        self.increasing: bytes | None = None

    def __call__(self, partials: np.ndarray) -> int:
        status, rows = partials[0::4], partials[1::4]
        seen = rows.tobytes()
        if seen != self.increasing:
            if not (rows[1:] > rows[:-1]).all():
                ties = np.flatnonzero(status == status.max())
                return 4 * int(ties[rows[ties].argmin()])
            self.increasing = seen
        return 4 * int(status.argmax())


class StatusArgmaxPartial(Codelet):
    """Per-chip combine of the tile winners (max status, lowest row on ties).

    The intra-IPU stage of the hierarchical Step-4 reduction
    (:func:`~repro.ipu.oplib.fold_per_chip`): each chip folds its own
    tiles' ``[status, row, zero_col, star_col]`` partials into one winner,
    on a tile of that chip, so only one 4-tuple per chip ever crosses
    IPU-Links.  The order (status descending, row ascending) is a total
    order over distinct rows, so composing this stage with
    :class:`StatusArgmaxFinal` selects exactly the same row as the flat
    single-stage arg-max — bit-identical control flow on every branch.
    """

    fields = {"data": "in", "out": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        data, out = views["data"], views["out"]
        winner = _Winner()
        for vertex, partials in enumerate(data):
            at = winner(partials)
            out[vertex] = partials[at : at + 4]
        return np.full(len(data), _combine_cycles(cost, data.shape[1] // 4))


class StatusArgmaxFinal(Codelet):
    """Combine the per-tile winners (max status, lowest row on ties).

    Also emits the two branch predicates of §IV-F in the same pass (fused,
    like a specialized Poplar reduction vertex would be) and counts the
    primes the 0-branch is about to take.
    """

    fields = {
        "partials": "in",
        "sel": "out",
        "max_status": "out",
        "flag_update": "out",
        "flag_aug": "out",
        "prime_count": "inout",
    }

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext, tensors=None):
        cycles = np.empty(0)  # one shape per plan: priced on the first call
        winner = _Winner()

        def final(views) -> np.ndarray:
            nonlocal cycles
            flat = views["partials"]
            sel, max_status = views["sel"], views["max_status"]
            flag_update, flag_aug = views["flag_update"], views["flag_aug"]
            prime_count = views["prime_count"]
            for vertex, partials in enumerate(flat):
                at = winner(partials)
                sel[vertex] = partials[at : at + 4]
                status = partials.item(at)
                max_status[vertex, 0] = status
                flag_update[vertex, 0] = status == -1
                flag_aug[vertex, 0] = status == 1
                if status == 0:
                    prime_count[vertex, 0] += 1
            if len(cycles) != len(flat):
                cycles = np.full(len(flat), _combine_cycles(cost, flat.shape[1] // 4))
            return cycles

        return final


class PrimeRowUpdate(Codelet):
    """Owner-side of the prime action: record the prime, cover the row."""

    fields = {"sel": "in", "row_prime": "inout", "row_cover": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext, tensors=None):
        owners = segment_owners(params["start"])
        checks = np.full(len(params["start"]), 2.0 * cost.cycles_per_alu_op)
        owner_cycles = 2 * cost.cycles_per_dynamic_access

        def prime_rows(views) -> np.ndarray:
            sel, row_prime = views["sel"], views["row_prime"]
            row_cover = views["row_cover"]
            col = sel.item(0, 2)
            cycles = checks.copy()
            for vertex, local in owners(sel.item(0, 1), row_prime.shape[1]):
                row_prime[vertex, local] = col
                row_cover[vertex, local] = 1
                cycles[vertex] += owner_cycles
            return cycles

        return prime_rows


def build_step4(
    graph: ComputeGraph,
    state: SolverState,
    plan: MappingPlan,
    *,
    use_compression: bool = True,
) -> Program:
    """Build the status scan + arg-max + branch flags program.

    ``use_compression=False`` charges Step 4 as if it scanned the raw slack
    rows (the §IV-B ablation); the computed result is identical.
    """
    n = plan.size
    tiles = plan.num_row_tiles
    partials = graph.add_tensor(
        "step4/partials",
        (tiles, 4),
        np.int32,
        mapping=TileMapping.linear_segments(tiles * 4, 4, plan.row_tiles),
    )
    cs_scan = graph.add_compute_set("step4/status_scan")
    cs_final = graph.add_compute_set("step4/argmax_final")

    threads = graph.spec.threads_per_tile
    rows = plan.row_regions(1)
    partial_regions = partials.require_mapping()
    cs_scan.add_vertices(
        ZeroStatusScan(),
        plan.row_tiles,
        {
            "compress": (state.compress, *plan.row_regions(n)),
            "zero_count": (state.zero_count, *plan.row_regions(threads)),
            "row_cover": (state.row_cover, *rows),
            "row_star": (state.row_star, *rows),
            "col_cover": ComputeGraph.full(state.col_cover),
            "zero_status": (state.zero_status, *rows),
            "zero_col": (state.zero_col, *rows),
            "partial": (partials, partial_regions.starts, partial_regions.stops),
        },
        params={
            "cols": n,
            "threads": threads,
            "row0": rows[0],
            "full_scan": 0 if use_compression else 1,
        },
    )
    # Hierarchical arg-max (§IV-F on a cluster): the lexicographic order is
    # associative over distinct rows — same selection, same branches, bit
    # for bit.
    final_input, stages = fold_per_chip(
        graph,
        partials,
        StatusArgmaxPartial(),
        "step4/ipu_partials",
        "step4/argmax_ipu",
    )
    cs_final.add_vertex(
        StatusArgmaxFinal(),
        0,
        {
            "partials": ComputeGraph.full(final_input),
            "sel": ComputeGraph.full(state.sel),
            "max_status": ComputeGraph.full(state.max_status),
            "flag_update": ComputeGraph.full(state.flag_update),
            "flag_aug": ComputeGraph.full(state.flag_aug),
            "prime_count": ComputeGraph.full(state.prime_count),
        },
    )
    return Sequence(Execute(cs_scan), *stages, Execute(cs_final))


def build_prime_update(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build the max-status-0 action: prime, cover row, uncover star column."""
    cs_rows = graph.add_compute_set("step4/prime_rows")
    rows = plan.row_regions(1)
    cs_rows.add_vertices(
        PrimeRowUpdate(),
        plan.row_tiles,
        {
            "sel": ComputeGraph.full(state.sel),
            "row_prime": (state.row_prime, *rows),
            "row_cover": (state.row_cover, *rows),
        },
        params={"start": rows[0]},
    )
    cs_cols = graph.add_compute_set("step4/prime_cols")
    mapping = state.col_cover.require_mapping()
    cs_cols.add_vertices(
        DynStore(),
        mapping.tiles,
        {
            "sel": ComputeGraph.full(state.sel),
            "data": (state.col_cover, mapping.starts, mapping.stops),
        },
        params={
            "start": mapping.starts,
            "index_slot": 3,
            "value_slot": -1,
            "const_value": 0,
        },
    )
    return Sequence(Execute(cs_rows), Execute(cs_cols))
