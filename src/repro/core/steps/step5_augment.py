"""Step 5 — path augmentation (§IV-G, Fig. 3).

Starting from the selected status-1 row (an uncovered zero with no star in
its row), the algorithm alternately walks prime → star-in-column →
prime-in-row, recording every visited prime in the ``green`` arrays.  Both
per-hop lookups — ``col_star[cur_col]`` and ``row_prime[pending_row]`` —
are runtime-indexed reads of *distributed* tensors, performed with the
partition-and-distribute dynamic slice of Fig. 4 (every segment checks the
index; the owner emits its element into a ≤-num-tiles temporary that a
single tile absorbs).

The reverse pass then walks the green arrays back to front, starring each
recorded (row, column) pair; overwriting ``row_star``/``col_star`` along the
path simultaneously removes the displaced stars, which is exactly the
"convert all the prime edges to star edges and discard all the initial star
edges" of §II-A2.
"""

from __future__ import annotations

import numpy as np

from repro.core.dynamic_ops import DynSliceSegment, DynStore
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import ScalarCompare, WriteScalar
from repro.ipu.programs import Execute, If, Program, RepeatWhileTrue, Sequence
from repro.ipu.tensor import Tensor

__all__ = [
    "PathInit",
    "TraceAbsorb",
    "TraceAdvance",
    "ReadGreen",
    "build_step5",
]


class PathInit(Codelet):
    """Arm the trace: current position := Step 4's selection."""

    fields = {
        "sel": "in",
        "path_state": "out",
        "path_active": "out",
        "aug_count": "inout",
    }

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        sel = views["sel"][0]
        state = views["path_state"]
        state[:, 0] = sel[1]  # cur_row
        state[:, 1] = sel[2]  # cur_col
        state[:, 2] = -1  # pending_row
        state[:, 3] = 0  # green_len
        views["path_active"][:, 0] = 1
        views["aug_count"][:, 0] += 1
        return np.full(state.shape[0], 6.0 * cost.cycles_per_alu_op)


class TraceAbsorb(Codelet):
    """Absorb a col_star dynamic slice: append the prime, test for a star.

    ``cands`` holds one value per segment: the owner's ``col_star`` entry
    (≥ −1), sentinel −2 elsewhere — so the max is the owner's value.  The
    current (row, col) prime is appended to the green arrays; if the column
    has no star (−1) the path is complete and the trace loop stops.
    """

    fields = {
        "cands": "in",
        "path_state": "inout",
        "path_active": "out",
        "green_rows": "inout",
        "green_cols": "inout",
    }

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        starred_row = int(views["cands"][0].max())
        state = views["path_state"]
        length = int(state[0, 3])
        views["green_rows"][0, length] = state[0, 0]
        views["green_cols"][0, length] = state[0, 1]
        state[0, 3] = length + 1
        state[0, 2] = starred_row
        views["path_active"][:, 0] = 1 if starred_row >= 0 else 0
        work = views["cands"].shape[1] + 2 * cost.cycles_per_dynamic_access
        return np.full(state.shape[0], float(work))


class TraceAdvance(Codelet):
    """Absorb a row_prime dynamic slice: hop to the displaced star's row."""

    fields = {"cands": "in", "path_state": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        prime_col = int(views["cands"][0].max())
        state = views["path_state"]
        state[0, 0] = state[0, 2]
        state[0, 1] = prime_col
        work = views["cands"].shape[1] + cost.cycles_per_alu_op
        return np.full(state.shape[0], float(work))


class ReadGreen(Codelet):
    """Reverse pass: pop the last green (row, col) pair into ``aug_sel``."""

    fields = {
        "green_rows": "in",
        "green_cols": "in",
        "rev_index": "inout",
        "aug_sel": "out",
    }

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        index = int(views["rev_index"][0, 0]) - 1
        views["aug_sel"][:, 0] = views["green_rows"][0, index]
        views["aug_sel"][:, 1] = views["green_cols"][0, index]
        views["rev_index"][:, 0] = index
        return np.full(
            views["aug_sel"].shape[0],
            2.0 * cost.cycles_per_dynamic_access + cost.cycles_per_alu_op,
        )


class CopyPathLength(Codelet):
    """Load the recorded path length into the reverse-pass counter."""

    fields = {"path_state": "in", "rev_index": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        views["rev_index"][:, 0] = views["path_state"][:, 3]
        return np.full(views["rev_index"].shape[0], cost.cycles_per_alu_op)


def _build_dyn_slice(
    graph: ComputeGraph,
    name: str,
    source: Tensor,
    state_tensor: Tensor,
    slot: int,
) -> tuple[Program, Tensor]:
    """Fig. 4's scatter phase: one slice vertex per segment of ``source``."""
    mapping = source.require_mapping()
    cands = graph.add_tensor(
        f"{name}/cands",
        (len(mapping),),
        np.int32,
        mapping=TileMapping.per_element(mapping.tiles.tolist()),
    )
    compute_set = graph.add_compute_set(name)
    index = np.arange(len(mapping))
    compute_set.add_vertices(
        DynSliceSegment(),
        mapping.tiles,
        {
            "state": ComputeGraph.full(state_tensor),
            "data": (source, mapping.starts, mapping.stops),
            "out": (cands, index, index + 1),
        },
        params={"start": mapping.starts, "slot": slot},
    )
    return Execute(compute_set), cands


def build_step5(
    graph: ComputeGraph, state: SolverState, plan: MappingPlan
) -> Program:
    """Build the full augmentation program (trace + reverse starring)."""
    n = plan.size

    cs_init = graph.add_compute_set("step5/init")
    cs_init.add_vertex(
        PathInit(),
        0,
        {
            "sel": ComputeGraph.full(state.sel),
            "path_state": ComputeGraph.full(state.path_state),
            "path_active": ComputeGraph.full(state.path_active),
            "aug_count": ComputeGraph.full(state.aug_count),
        },
    )

    slice_star, star_cands = _build_dyn_slice(
        graph, "step5/slice_col_star", state.col_star, state.path_state, slot=1
    )
    cs_absorb = graph.add_compute_set("step5/absorb")
    cs_absorb.add_vertex(
        TraceAbsorb(),
        0,
        {
            "cands": ComputeGraph.full(star_cands),
            "path_state": ComputeGraph.full(state.path_state),
            "path_active": ComputeGraph.full(state.path_active),
            "green_rows": ComputeGraph.full(state.green_rows),
            "green_cols": ComputeGraph.full(state.green_cols),
        },
    )
    slice_prime, prime_cands = _build_dyn_slice(
        graph, "step5/slice_row_prime", state.row_prime, state.path_state, slot=2
    )
    cs_advance = graph.add_compute_set("step5/advance")
    cs_advance.add_vertex(
        TraceAdvance(),
        0,
        {
            "cands": ComputeGraph.full(prime_cands),
            "path_state": ComputeGraph.full(state.path_state),
        },
    )
    trace_body = Sequence(
        slice_star,
        Execute(cs_absorb),
        If(state.path_active, Sequence(slice_prime, Execute(cs_advance))),
    )

    cs_rev_init = graph.add_compute_set("step5/rev_init")
    cs_rev_init.add_vertex(
        CopyPathLength(),
        0,
        {
            "path_state": ComputeGraph.full(state.path_state),
            "rev_index": ComputeGraph.full(state.rev_index),
        },
    )
    cs_rev_check = graph.add_compute_set("step5/rev_check")
    cs_rev_check.add_vertex(
        ScalarCompare("gt", 0),
        0,
        {
            "a": ComputeGraph.full(state.rev_index),
            "flag": ComputeGraph.full(state.rev_cond),
        },
    )
    cs_read_green = graph.add_compute_set("step5/read_green")
    cs_read_green.add_vertex(
        ReadGreen(),
        0,
        {
            "green_rows": ComputeGraph.full(state.green_rows),
            "green_cols": ComputeGraph.full(state.green_cols),
            "rev_index": ComputeGraph.full(state.rev_index),
            "aug_sel": ComputeGraph.full(state.aug_sel),
        },
    )
    cs_star_rows = graph.add_compute_set("step5/star_rows")
    rows = plan.row_regions(1)
    cs_star_rows.add_vertices(
        DynStore(),
        plan.row_tiles,
        {"sel": ComputeGraph.full(state.aug_sel), "data": (state.row_star, *rows)},
        params={"start": rows[0], "index_slot": 0, "value_slot": 1},
    )
    cs_star_cols = graph.add_compute_set("step5/star_cols")
    cols = state.col_star.require_mapping()
    cs_star_cols.add_vertices(
        DynStore(),
        cols.tiles,
        {
            "sel": ComputeGraph.full(state.aug_sel),
            "data": (state.col_star, cols.starts, cols.stops),
        },
        params={"start": cols.starts, "index_slot": 1, "value_slot": 0},
    )
    cs_end = graph.add_compute_set("step5/end_inner")
    cs_end.add_vertex(
        WriteScalar(), 0, {"out": ComputeGraph.full(state.inner_cond)},
        params={"value": 0},
    )

    reverse_body = Sequence(
        Execute(cs_read_green),
        Execute(cs_star_rows),
        Execute(cs_star_cols),
        Execute(cs_rev_check),
    )
    return Sequence(
        Execute(cs_init),
        RepeatWhileTrue(state.path_active, trace_body, max_iterations=n + 1),
        Execute(cs_rev_init),
        Execute(cs_rev_check),
        RepeatWhileTrue(state.rev_cond, reverse_body, max_iterations=n + 1),
        Execute(cs_end),
    )
