"""Step 6 — slack matrix update (§IV-H).

Finds the minimum uncovered slack value Δ and applies the paper's update
rule — add Δ to the doubly-covered entries, subtract Δ from the doubly
uncovered ones — which creates at least one new uncovered zero.  On the
device this is:

1. a per-tile segmented minimum over the uncovered part of the local row
   block (six threads, pairwise two-float loads),
2. a two-stage reduce of the per-tile partials into Δ,
3. a parallel update of every row block (Δ broadcast via vertex reads), and
4. a re-compression of the slack matrix (the compress compute set is simply
   executed again).
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import AddToScalar, build_reduce
from repro.ipu.programs import Execute, Program, Sequence

__all__ = ["UncoveredMinPartial", "SlackUpdate", "build_step6"]


class UncoveredMinPartial(Codelet):
    """Per-tile minimum over uncovered entries of the local row block.

    Covered rows are skipped entirely; uncovered rows are scanned with the
    six-segment, two-float-per-load pattern of §IV-H.  Emits +inf when the
    tile has no uncovered element (a later reduce ignores it).
    """

    fields = {"block": "in", "row_cover": "in", "col_cover": "in", "partial": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        batch = block.shape[0]
        rows = block.shape[1] // cols
        shaped = block.reshape(batch, rows, cols)
        open_rows = views["row_cover"] == 0
        open_cols = views["col_cover"][0][:cols] == 0
        # Minimum over the open columns first (a copy of those columns
        # only), then over the open rows of each vertex.
        row_min = np.compress(open_cols, shaped, axis=2).min(axis=2, initial=np.inf)
        views["partial"][:, 0] = np.where(open_rows, row_min, np.inf).min(axis=1)
        work = open_rows.sum(axis=1) * np.asarray(cost.scan_cycles(cols))
        return np.ceil(work / cost.threads_per_tile) + cost.cycles_per_alu_op


class SlackUpdate(Codelet):
    """Apply the Δ update: ``S += Δ * (row_covered + col_covered − 1)``.

    The rank-one form is exactly the paper's rule — +Δ where both line
    covers hold, −Δ where neither does, unchanged otherwise — applied as
    one streaming pass with paired loads.  A row's addend is one of two
    patterns, ``Δ·c`` for a covered row and ``Δ·(c − 1)`` for an open
    one (``c`` the column covers), the same products the rank-one form
    makes.
    """

    fields = {"block": "inout", "row_cover": "in", "col_cover": "in", "delta": "in"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        batch = block.shape[0]
        rows = block.shape[1] // cols
        shaped = block.reshape(batch, rows, cols)
        delta = views["delta"][0, 0]
        col_sign = (views["col_cover"][0][:cols] != 0).astype(block.dtype)
        covered_rows = (views["row_cover"] != 0)[:, :, None]
        shaped += np.where(covered_rows, delta * col_sign, delta * (col_sign - 1.0))
        work = rows * cols * (cost.cycles_per_load2 / 2 + 2 * cost.cycles_per_alu_op)
        return np.full(batch, float(np.asarray(cost.segmented(work))))


def build_step6(
    graph: ComputeGraph,
    state: SolverState,
    plan: MappingPlan,
    recompress: Program,
) -> Program:
    """Build Step 6; ``recompress`` is the shared compression program."""
    n = plan.size
    tiles = plan.num_row_tiles
    partials = graph.add_tensor(
        "step6/partials",
        (tiles,),
        state.dtype,
        mapping=TileMapping.per_element(plan.row_tiles),
    )
    cs_partial = graph.add_compute_set("step6/min_partial")
    cs_update = graph.add_compute_set("step6/update")
    block = (state.slack, *plan.row_regions(n))
    row_cover = (state.row_cover, *plan.row_regions(1))
    col_cover = ComputeGraph.full(state.col_cover)
    index = np.arange(tiles)
    cs_partial.add_vertices(
        UncoveredMinPartial(),
        plan.row_tiles,
        {
            "block": block,
            "row_cover": row_cover,
            "col_cover": col_cover,
            "partial": (partials, index, index + 1),
        },
        params={"cols": n},
    )
    cs_update.add_vertices(
        SlackUpdate(),
        plan.row_tiles,
        {
            "block": block,
            "row_cover": row_cover,
            "col_cover": col_cover,
            "delta": ComputeGraph.full(state.delta),
        },
        params={"cols": n},
    )
    reduce_delta = build_reduce(
        graph, partials, "min", state.delta, "step6/delta"
    )
    cs_count = graph.add_compute_set("step6/count")
    cs_count.add_vertex(
        AddToScalar(), 0, {"out": ComputeGraph.full(state.update_count)},
        params={"value": 1},
    )
    return Sequence(
        Execute(cs_partial),
        reduce_delta,
        Execute(cs_update),
        recompress,
        Execute(cs_count),
    )
