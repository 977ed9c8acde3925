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
from repro.core.dynamic_ops import DynStore
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import chip_slices
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

    def bind(self, params, cost: CostContext):
        cols = int(params["cols"][0])
        threads = int(params["threads"][0])
        bounds = segment_bounds(cols, threads)
        row0 = params["row0"].astype(np.int64)
        full_scan = params.get("full_scan") is not None and params["full_scan"][0]
        per_zero = cost.cycles_per_dynamic_access + cost.cycles_per_alu_op

        def scan(views) -> np.ndarray:
            compress = views["compress"]
            batch = compress.shape[0]
            rows = compress.shape[1] // cols
            positions = compress.reshape(batch, rows, cols)
            counts = views["zero_count"].reshape(batch, rows, threads)
            covers = views["col_cover"][0]  # identical broadcast row
            # Touch only each segment's populated front slots — the
            # compression payoff: work scales with the zero count, not n.
            occupancy = counts.reshape(-1, threads).max(axis=0).tolist()
            parts = [
                positions[..., start : start + occ]
                for (start, stop), occ in zip(bounds, occupancy)
                if stop > start and occ > 0
            ]
            if parts:
                pos = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
                flat = pos.reshape(batch * rows, -1)
                valid = flat >= 0
                open_col = np.take(covers, flat, mode="clip") == 0
                hit = valid & open_col
                has_zero = hit.any(axis=1)
                first = hit.argmax(axis=1)
                found_col = flat[np.arange(flat.shape[0]), first]
                has_zero = has_zero.reshape(batch, rows)
                found_col = found_col.reshape(batch, rows)
                zeros_scanned = valid.sum(axis=1).reshape(batch, rows).sum(axis=1)
            else:
                has_zero = np.zeros((batch, rows), dtype=bool)
                found_col = np.full((batch, rows), -1, dtype=np.int64)
                zeros_scanned = np.zeros(batch, dtype=np.int64)
            has_zero = has_zero & (views["row_cover"] == 0)
            found_col = np.where(has_zero, found_col, -1)
            starred = views["row_star"] >= 0
            status = np.where(has_zero, np.where(starred, 0, 1), -1)
            views["zero_status"][...] = status
            views["zero_col"][...] = found_col
            # Fused per-tile arg-max (max status, lowest local row on ties).
            best = status.argmax(axis=1)
            take = np.arange(batch)
            partial = views["partial"]
            partial[:, 0] = status[take, best]
            partial[:, 1] = row0 + best
            partial[:, 2] = found_col[take, best]
            partial[:, 3] = views["row_star"][take, best]
            status_cycles, row_scan_cycles = _row_cycles(cost, rows)
            if full_scan:
                # Compression ablation: charge what scanning the raw slack
                # rows would cost (the computation itself is unchanged).
                work = rows * np.asarray(cost.scan_cycles(cols)) * np.ones(batch)
            else:
                work = zeros_scanned * per_zero + status_cycles
            return np.ceil(work / cost.threads_per_tile) + row_scan_cycles

        return scan


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


class StatusArgmaxPartial(Codelet):
    """Per-chip combine of the tile winners (max status, lowest row on ties).

    The intra-IPU stage of the hierarchical Step-4 reduction: each chip
    folds its own tiles' ``[status, row, zero_col, star_col]`` partials
    into one winner, on a tile of that chip, so only one 4-tuple per chip
    ever crosses IPU-Links.  The order (status descending, row ascending)
    is a total order over distinct rows, so composing this stage with
    :class:`StatusArgmaxFinal` selects exactly the same row as the flat
    single-stage arg-max — bit-identical control flow on every branch.
    """

    fields = {"partials": "in", "winner": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        flat = views["partials"]
        batch = flat.shape[0]
        tiles = flat.shape[1] // 4
        partials = flat.reshape(batch, tiles, 4)
        size_bound = np.int64(partials[..., 1].max() + 2)
        score = partials[..., 0].astype(np.int64) * (2 * size_bound) - partials[..., 1]
        best = score.argmax(axis=1)
        take = np.arange(batch)
        views["winner"][...] = partials[take, best]
        return np.full(batch, _combine_cycles(cost, tiles))


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
        flat = views["partials"]
        batch = flat.shape[0]
        tiles = flat.shape[1] // 4
        partials = flat.reshape(batch, tiles, 4)
        # Lexicographic argmax: status descending, then row ascending.
        size_bound = np.int64(partials[..., 1].max() + 2)
        score = partials[..., 0].astype(np.int64) * (2 * size_bound) - partials[..., 1]
        best = score.argmax(axis=1)
        take = np.arange(batch)
        views["sel"][...] = partials[take, best]
        status = partials[take, best, 0]
        views["max_status"][:, 0] = status
        views["flag_update"][:, 0] = status == -1
        views["flag_aug"][:, 0] = status == 1
        views["prime_count"][:, 0] += status == 0
        return np.full(batch, _combine_cycles(cost, tiles))


class PrimeRowUpdate(Codelet):
    """Owner-side of the prime action: record the prime, cover the row."""

    fields = {"sel": "in", "row_prime": "inout", "row_cover": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext):
        starts = params["start"].astype(np.int64)
        check_cycles = 2.0 * cost.cycles_per_alu_op
        owner_cycles = 2 * cost.cycles_per_dynamic_access

        def prime_rows(views) -> np.ndarray:
            sel = views["sel"][0]
            row, col = int(sel[1]), int(sel[2])
            length = views["row_prime"].shape[1]
            local = row - starts
            owns = (local >= 0) & (local < length)
            cycles = np.full(len(starts), check_cycles)
            owners = np.flatnonzero(owns)
            if len(owners):
                views["row_prime"][owners, local[owners]] = col
                views["row_cover"][owners, local[owners]] = 1
                cycles[owners] += owner_cycles
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

    scan = ZeroStatusScan()
    threads = graph.spec.threads_per_tile
    for index, tile in enumerate(plan.row_tiles):
        row_start, row_stop = plan.row_block(index)
        cs_scan.add_vertex(
            scan,
            tile,
            {
                "compress": ComputeGraph.rows(state.compress, row_start, row_stop),
                "zero_count": ComputeGraph.span(
                    state.zero_count, row_start * threads, row_stop * threads
                ),
                "row_cover": ComputeGraph.span(state.row_cover, row_start, row_stop),
                "row_star": ComputeGraph.span(state.row_star, row_start, row_stop),
                "col_cover": ComputeGraph.full(state.col_cover),
                "zero_status": ComputeGraph.span(
                    state.zero_status, row_start, row_stop
                ),
                "zero_col": ComputeGraph.span(state.zero_col, row_start, row_stop),
                "partial": ComputeGraph.span(partials, index * 4, (index + 1) * 4),
            },
            params={
                "cols": n,
                "threads": threads,
                "row0": row_start,
                "full_scan": 0 if use_compression else 1,
            },
        )
    slices = (
        chip_slices(plan.row_tiles, graph.spec.num_tiles)
        if graph.spec.num_ipus > 1
        else None
    )
    if slices is not None and len(slices) > 1:
        # Hierarchical arg-max (§IV-F on a cluster): each chip folds its own
        # tiles' partials into one winner locally, so only one 4-tuple per
        # chip crosses IPU-Links into the final stage.  The lexicographic
        # order is associative over distinct rows — same selection, same
        # branches, bit for bit.
        ipu_partials = graph.add_tensor(
            "step4/ipu_partials",
            (len(slices), 4),
            np.int32,
            mapping=TileMapping.linear_segments(
                len(slices) * 4,
                4,
                [plan.row_tiles[start] for _, start, _ in slices],
            ),
        )
        cs_ipu = graph.add_compute_set("step4/argmax_ipu")
        for index, (_, start, stop) in enumerate(slices):
            cs_ipu.add_vertex(
                StatusArgmaxPartial(),
                plan.row_tiles[start],
                {
                    "partials": ComputeGraph.span(partials, start * 4, stop * 4),
                    "winner": ComputeGraph.span(
                        ipu_partials, index * 4, (index + 1) * 4
                    ),
                },
            )
        final_input = ipu_partials
        stages = [Execute(cs_scan), Execute(cs_ipu), Execute(cs_final)]
    else:
        final_input = partials
        stages = [Execute(cs_scan), Execute(cs_final)]
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
    return Sequence(*stages)


def build_prime_update(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build the max-status-0 action: prime, cover row, uncover star column."""
    cs_rows = graph.add_compute_set("step4/prime_rows")
    prime = PrimeRowUpdate()
    for index, tile in enumerate(plan.row_tiles):
        row_start, row_stop = plan.row_block(index)
        cs_rows.add_vertex(
            prime,
            tile,
            {
                "sel": ComputeGraph.full(state.sel),
                "row_prime": ComputeGraph.span(state.row_prime, row_start, row_stop),
                "row_cover": ComputeGraph.span(state.row_cover, row_start, row_stop),
            },
            params={"start": row_start},
        )
    cs_cols = graph.add_compute_set("step4/prime_cols")
    store = DynStore()
    mapping = state.col_cover.require_mapping()
    for interval in mapping.intervals:
        cs_cols.add_vertex(
            store,
            interval.tile,
            {
                "sel": ComputeGraph.full(state.sel),
                "data": ComputeGraph.span(
                    state.col_cover, interval.start, interval.stop
                ),
            },
            params={
                "start": interval.start,
                "index_slot": 3,
                "value_slot": -1,
                "const_value": 0,
            },
        )
    return Sequence(Execute(cs_rows), Execute(cs_cols))
