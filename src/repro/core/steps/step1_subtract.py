"""Step 1 — initial subtraction (§IV-C).

Computes the slack matrix ``S = C - rowmin - colmin`` with Poplar-style
reduce + subtract compute sets:

1. per-tile **row minimum** reduce (rows are tile-local, no exchange);
2. parallel subtraction of the row minima (six-thread segments, paired
   64-bit float loads);
3. per-tile **partial column minima**, combined on one tile (the only
   cross-tile reduction), then broadcast back by the subtraction vertices'
   reads.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import ColPartialMin, RowMin, SubtractColMin, SubtractRowMin
from repro.ipu.programs import Execute, Program, Sequence

__all__ = ["ColMinCombine", "build_step1"]


class ColMinCombine(Codelet):
    """Combine per-tile partial column minima into the global column minima."""

    fields = {"partials": "in", "colmin": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        partials = views["partials"]
        batch = partials.shape[0]
        tiles = partials.shape[1] // cols
        views["colmin"][...] = partials.reshape(batch, tiles, cols).min(axis=1)
        return np.full(
            batch, float(np.asarray(cost.segmented(cost.scan_cycles(tiles * cols))))
        )


def build_step1(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build Step 1's compute sets; returns the program to execute them."""
    n = plan.size
    tiles = plan.num_row_tiles
    row_mins = graph.add_tensor(
        "step1/row_mins", (n,), state.dtype, mapping=plan.row_state_mapping()
    )
    col_partials = graph.add_tensor(
        "step1/col_partials",
        (tiles, n),
        state.dtype,
        mapping=TileMapping.row_blocks((tiles, n), plan.row_tiles),
    )
    col_mins = graph.add_tensor(
        "step1/col_mins", (n,), state.dtype, mapping=TileMapping.single_tile(n)
    )

    cs_row_min = graph.add_compute_set("step1/row_min")
    cs_sub_row = graph.add_compute_set("step1/sub_row")
    cs_col_partial = graph.add_compute_set("step1/col_partial")
    cs_col_final = graph.add_compute_set("step1/col_final")
    cs_sub_col = graph.add_compute_set("step1/sub_col")

    row_tiles = plan.row_tiles
    block = (state.slack, *plan.row_regions(n))
    mins = (row_mins, *plan.row_regions(1))
    partial_blocks = col_partials.require_mapping()
    cs_row_min.add_vertices(
        RowMin(), row_tiles, {"block": block, "mins": mins}, params={"cols": n}
    )
    cs_sub_row.add_vertices(
        SubtractRowMin(),
        row_tiles,
        {"block": block, "mins": mins},
        params={"cols": n},
    )
    cs_col_partial.add_vertices(
        ColPartialMin(),
        row_tiles,
        {
            "block": block,
            "partial": (col_partials, partial_blocks.starts, partial_blocks.stops),
        },
        params={"cols": n},
    )
    cs_sub_col.add_vertices(
        SubtractColMin(),
        row_tiles,
        {"block": block, "colmin": ComputeGraph.full(col_mins)},
        params={"cols": n},
    )
    cs_col_final.add_vertex(
        ColMinCombine(),
        0,
        {
            "partials": ComputeGraph.full(col_partials),
            "colmin": ComputeGraph.full(col_mins),
        },
        params={"cols": n},
    )
    return Sequence(
        Execute(cs_row_min),
        Execute(cs_sub_row),
        Execute(cs_col_partial),
        Execute(cs_col_final),
        Execute(cs_sub_col),
    )
