"""Step 2 — initial matching (§IV-D, Fig. 2).

Race-free parallel starring of the initial zeros:

1. sum the per-segment zero counts into per-row counts;
2. max-reduce them into τ, the largest zero count of any row;
3. sort every row of the compress matrix **descending** in parallel (the
   ``-1`` padding sinks to the back, zero positions pack to the front);
4. loop τ times: dynamically slice column *k* of the sorted compress matrix
   (one candidate zero per row) and let a single serial vertex star the
   candidates in row order — the serialization is what makes the
   cover/star updates race-free (challenge C1) while only τ ≪ n sweeps are
   ever needed.
"""

from __future__ import annotations

import numpy as np

from repro.core.compression import RowZeroSum
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.oplib import (
    GatherColumn,
    ScalarBinaryCompare,
    SortRowsDescending,
    WriteScalar,
    AddToScalar,
    build_reduce,
)
from repro.ipu.programs import Execute, Program, RepeatWhileTrue, Sequence

__all__ = ["GreedyStarColumn", "build_step2"]


class GreedyStarColumn(Codelet):
    """Serially star one candidate zero per row (the τ-sweep body).

    ``cand[i]`` is row *i*'s *k*-th zero position (or −1).  Rows are
    processed in index order; a candidate is starred iff its row and column
    are both still free.  Single worker thread — the whole point is a
    deterministic, race-free order.
    """

    fields = {"cand": "in", "row_star": "inout", "col_star": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        batch = views["cand"].shape[0]
        cand = views["cand"][0]
        row_star = views["row_star"][0]
        col_star = views["col_star"][0]
        for row, col in enumerate(cand):
            if col >= 0 and row_star[row] < 0 and col_star[col] < 0:
                row_star[row] = col
                col_star[col] = row
        return np.full(batch, 4.0 * cost.cycles_per_alu_op * len(cand))


def build_step2(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build Step 2; returns its program."""
    n = plan.size
    threads = graph.spec.threads_per_tile

    cs_count = graph.add_compute_set("step2/row_zeros")
    cs_sort = graph.add_compute_set("step2/sort")
    cs_gather = graph.add_compute_set("step2/gather")
    cs_greedy = graph.add_compute_set("step2/greedy")
    cs_init_iter = graph.add_compute_set("step2/init_iter")
    cs_inc = graph.add_compute_set("step2/inc")
    cs_check = graph.add_compute_set("step2/check")

    candidates = graph.add_tensor(
        "step2/candidates", (n,), np.int32, mapping=plan.row_state_mapping()
    )

    row_tiles = plan.row_tiles
    rows = plan.row_regions(1)
    block = (state.compress, *plan.row_regions(n))
    cs_count.add_vertices(
        RowZeroSum(),
        row_tiles,
        {
            "zero_count": (state.zero_count, *plan.row_regions(threads)),
            "row_zeros": (state.row_zeros, *rows),
        },
        params={"threads": threads},
    )
    cs_sort.add_vertices(
        SortRowsDescending(), row_tiles, {"block": block}, params={"cols": n}
    )
    cs_gather.add_vertices(
        GatherColumn(),
        row_tiles,
        {
            "block": block,
            "index": ComputeGraph.full(state.step2_iter),
            "out": (candidates, *rows),
        },
        params={"cols": n},
    )
    cs_greedy.add_vertex(
        GreedyStarColumn(),
        0,
        {
            "cand": ComputeGraph.full(candidates),
            "row_star": ComputeGraph.full(state.row_star),
            "col_star": ComputeGraph.full(state.col_star),
        },
    )
    cs_init_iter.add_vertex(
        WriteScalar(), 0, {"out": ComputeGraph.full(state.step2_iter)},
        params={"value": 0},
    )
    cs_inc.add_vertex(
        AddToScalar(), 0, {"out": ComputeGraph.full(state.step2_iter)},
        params={"value": 1},
    )
    cs_check.add_vertex(
        ScalarBinaryCompare("lt"),
        0,
        {
            "a": ComputeGraph.full(state.step2_iter),
            "b": ComputeGraph.full(state.tau),
            "flag": ComputeGraph.full(state.step2_cond),
        },
    )

    reduce_tau = build_reduce(graph, state.row_zeros, "max", state.tau, "step2/tau")
    sweep = Sequence(
        Execute(cs_gather), Execute(cs_greedy), Execute(cs_inc), Execute(cs_check)
    )
    return Sequence(
        Execute(cs_count),
        reduce_tau,
        Execute(cs_sort),
        Execute(cs_init_iter),
        Execute(cs_check),
        RepeatWhileTrue(state.step2_cond, sweep, max_iterations=n + 1),
    )
