"""Warm-start seeding — potential subtraction and pre-starring.

Two small programs bolted in front of the cold pipeline when a
:class:`~repro.core.warmstart.WarmStart` seed is loaded:

* **seed subtraction** — subtract the seeded row/column potentials from the
  uploaded costs (same subtraction codelets as Step 1, different operand
  tensors).  The regular Step 1 then runs as a *repair* pass: when the
  seed is still tight its row/column minima are all zero and it is an
  exact no-op; when the instance drifted it restores ``slack >= 0``, so
  every downstream invariant holds for any seed.
* **pre-starring** — after compression, each tile checks whether its rows'
  previous star columns are still zeros of the new slack (a dynamic,
  tile-local lookup) and publishes the survivors as candidates; the serial
  tile-0 starring vertex from Step 2 then stars them race-free.  Step 2's
  τ-sweep afterwards only has to match the rows the drift invalidated.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.core.steps.step2_initial_match import GreedyStarColumn
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.oplib import SubtractColMin, SubtractRowMin
from repro.ipu.programs import Execute, Program, Sequence

__all__ = ["SeedFeasible", "build_seed_subtract", "build_prestar"]


class SeedFeasible(Codelet):
    """Keep each row's previous star column iff it is still a zero.

    ``seed[i]`` is row *i*'s previous star column (−1 when unmatched).
    The row's slack at that column is fetched with a runtime-indexed load
    (charged at the dynamic-access rate, C4) and the candidate survives
    only when it lies within the zero tolerance.
    """

    fields = {"block": "in", "seed": "in", "out": "out"}
    dynamic_access = True
    local_fields = ("block", "out")

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        tol = float(params["tol"][0])
        block = views["block"]
        batch = block.shape[0]
        rows = block.shape[1] // cols
        shaped = block.reshape(batch, rows, cols)
        seed = views["seed"].astype(np.int64)
        clipped = np.clip(seed, 0, cols - 1)
        values = np.take_along_axis(shaped, clipped[:, :, None], axis=2)[:, :, 0]
        alive = (seed >= 0) & (np.abs(values) <= tol)
        views["out"][...] = np.where(alive, seed, -1).astype(views["out"].dtype)
        return np.full(batch, float(rows * cost.cycles_per_dynamic_access))


def build_seed_subtract(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Subtract the seeded potentials from every tile's slack block."""
    n = plan.size
    cs_sub_row = graph.add_compute_set("warm/sub_row_potential")
    cs_sub_col = graph.add_compute_set("warm/sub_col_potential")
    block = (state.slack, *plan.row_regions(n))
    cs_sub_row.add_vertices(
        SubtractRowMin(),
        plan.row_tiles,
        {"block": block, "mins": (state.row_potential, *plan.row_regions(1))},
        params={"cols": n},
    )
    cs_sub_col.add_vertices(
        SubtractColMin(),
        plan.row_tiles,
        {"block": block, "colmin": ComputeGraph.full(state.col_potential)},
        params={"cols": n},
    )
    return Sequence(Execute(cs_sub_row), Execute(cs_sub_col))


def build_prestar(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Re-star the previous matching's still-feasible pairs."""
    n = plan.size
    cs_feasible = graph.add_compute_set("warm/seed_feasible")
    cs_star = graph.add_compute_set("warm/seed_star")
    rows = plan.row_regions(1)
    cs_feasible.add_vertices(
        SeedFeasible(),
        plan.row_tiles,
        {
            "block": (state.slack, *plan.row_regions(n)),
            "seed": (state.seed_star, *rows),
            "out": (state.seed_cand, *rows),
        },
        params={"cols": n, "tol": state.tol},
    )
    cs_star.add_vertex(
        GreedyStarColumn(),
        0,
        {
            "cand": ComputeGraph.full(state.seed_cand),
            "row_star": ComputeGraph.full(state.row_star),
            "col_star": ComputeGraph.full(state.col_star),
        },
    )
    return Sequence(Execute(cs_feasible), Execute(cs_star))
