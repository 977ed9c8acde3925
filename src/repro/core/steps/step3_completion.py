"""Step 3 — completion assessment (§IV-E).

Updates ``col_cover`` from ``col_star`` in parallel over the 32-element
segments, sum-reduces the cover bits, and decides whether the assignment is
complete (``covered_count == n``).  The segment mapping is the whole point:
a naive single-tile layout would exchange both vectors on every iteration.

Also provides :func:`build_search_reset`, the per-search reset (uncover all
rows, erase all primes, arm the inner loop) that runs whenever Step 3 says
the algorithm must keep searching.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.oplib import Fill, ScalarCompare, WriteScalar, build_reduce
from repro.ipu.programs import Execute, Program, Sequence

__all__ = ["CoverFromStar", "build_step3", "build_search_reset"]


class CoverFromStar(Codelet):
    """``col_cover[j] = 1`` iff column *j* holds a starred zero."""

    fields = {"col_star": "in", "col_cover": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        stars = views["col_star"]
        views["col_cover"][...] = (stars >= 0).astype(views["col_cover"].dtype)
        return np.full(
            stars.shape[0],
            float(np.asarray(cost.segmented(stars.shape[1] * cost.cycles_per_alu_op))),
        )


def build_step3(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build Step 3: cover update + covered-column count + not_done flag."""
    cs_cover = graph.add_compute_set("step3/cover")
    mapping = state.col_star.require_mapping()
    cs_cover.add_vertices(
        CoverFromStar(),
        mapping.tiles,
        {
            "col_star": (state.col_star, mapping.starts, mapping.stops),
            "col_cover": (state.col_cover, mapping.starts, mapping.stops),
        },
    )
    reduce_covered = build_reduce(
        graph, state.col_cover, "sum", state.covered_count, "step3/covered"
    )
    cs_check = graph.add_compute_set("step3/check")
    cs_check.add_vertex(
        ScalarCompare("lt", plan.size),
        0,
        {
            "a": ComputeGraph.full(state.covered_count),
            "flag": ComputeGraph.full(state.not_done),
        },
    )
    return Sequence(Execute(cs_cover), reduce_covered, Execute(cs_check))


def build_search_reset(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Uncover all rows, erase all primes, and arm the inner search loop."""
    cs_rows = graph.add_compute_set("step3/reset_rows")
    cs_primes = graph.add_compute_set("step3/reset_primes")
    rows = plan.row_regions(1)
    cs_rows.add_vertices(
        Fill(), plan.row_tiles, {"data": (state.row_cover, *rows)}, params={"value": 0}
    )
    cs_primes.add_vertices(
        Fill(), plan.row_tiles, {"data": (state.row_prime, *rows)}, params={"value": -1}
    )
    cs_arm = graph.add_compute_set("step3/arm_inner")
    cs_arm.add_vertex(
        WriteScalar(), 0, {"out": ComputeGraph.full(state.inner_cond)},
        params={"value": 1},
    )
    return Sequence(Execute(cs_rows), Execute(cs_primes), Execute(cs_arm))
