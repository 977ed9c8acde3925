"""HunIPU's device-resident state.

One :class:`SolverState` owns every tensor the six steps touch, created on a
single :class:`~repro.ipu.graph.ComputeGraph` with the mappings from
:class:`~repro.core.mapping_plan.MappingPlan`:

==================  ============================  ===========================
tensor              shape / dtype                 mapping
==================  ============================  ===========================
slack               (n, n) float                  1D row blocks
compress            (n, n) int32                  1D row blocks (Fig. 1)
zero_count          (n, threads) int32            row blocks
row_zeros           (n,) int32                    row blocks
row_star/prime/...  (n,) int32                    row blocks
col_star, col_cover (n,) int32                    32-element segments (§IV-E)
green_rows/cols     (n+1,) int32                  tile 0 (path trace, §IV-G)
row_potential       (n,) float                    1D row blocks (warm-start)
col_potential       (n,) float                    tile 0 (warm-start)
seed_star/cand      (n,) int32                    1D row blocks (warm-start)
scalars             (1,) int32/float              tile 0
==================  ============================  ===========================

Conventions: star/prime columns are ``-1`` when absent; covers are 0/1
int32; ``zero_status`` follows §IV-F (−1 / 0 / 1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.mapping_plan import MappingPlan
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.tensor import Tensor

__all__ = ["SolverState"]


@dataclasses.dataclass
class SolverState:
    """Tensor handles for one compiled HunIPU instance."""

    plan: MappingPlan
    dtype: np.dtype
    tol: float

    slack: Tensor
    compress: Tensor
    zero_count: Tensor
    row_zeros: Tensor

    row_star: Tensor
    row_prime: Tensor
    row_cover: Tensor
    zero_status: Tensor
    zero_col: Tensor

    col_star: Tensor
    col_cover: Tensor

    # Warm-start seed (zero / −1 on cold solves; see repro.core.warmstart).
    row_potential: Tensor
    col_potential: Tensor
    seed_star: Tensor
    seed_cand: Tensor

    green_rows: Tensor
    green_cols: Tensor
    path_state: Tensor  # [cur_row, cur_col, pending_row, green_len]
    aug_sel: Tensor  # [row, col] being starred during the reverse pass
    sel: Tensor  # [status, row, col, star_col] from Step 4's argmax

    # Scalars (all on tile 0).
    tau: Tensor
    step2_iter: Tensor
    step2_cond: Tensor
    covered_count: Tensor
    not_done: Tensor
    inner_cond: Tensor
    max_status: Tensor
    flag_update: Tensor
    flag_aug: Tensor
    path_active: Tensor
    rev_index: Tensor
    rev_cond: Tensor
    delta: Tensor
    aug_count: Tensor
    update_count: Tensor
    prime_count: Tensor

    @classmethod
    def build(
        cls,
        graph: ComputeGraph,
        plan: MappingPlan,
        dtype: np.dtype,
        tol: float,
    ) -> "SolverState":
        """Allocate and map every tensor on ``graph``."""
        n = plan.size
        threads = graph.spec.threads_per_tile
        matrix_map = plan.matrix_mapping()
        row_map = plan.row_state_mapping()
        col_map = plan.col_state_mapping()

        def matrix(name: str, kind) -> Tensor:
            return graph.add_tensor(name, (n, n), kind, mapping=matrix_map)

        def row_vec(name: str) -> Tensor:
            return graph.add_tensor(name, (n,), np.int32, mapping=row_map)

        # Column state is padded to a whole number of 32-element segments so
        # every segment vertex sees the same region length (keeps the
        # compute sets uniform; padding columns never hold stars or covers).
        n_padded = plan.num_col_segments * plan.col_segment_size
        col_map_padded = TileMapping.linear_segments(
            n_padded,
            plan.col_segment_size,
            [interval.tile for interval in col_map.intervals],
        )

        def col_vec(name: str) -> Tensor:
            return graph.add_tensor(
                name, (n_padded,), np.int32, mapping=col_map_padded
            )

        def on_tile0(name: str, size: int) -> Tensor:
            return graph.add_tensor(
                name, (size,), np.int32, mapping=TileMapping.single_tile(size)
            )

        return cls(
            plan=plan,
            dtype=np.dtype(dtype),
            tol=tol,
            slack=matrix("slack", dtype),
            compress=matrix("compress", np.int32),
            zero_count=graph.add_tensor(
                "zero_count",
                (n, threads),
                np.int32,
                mapping=plan.row_threads_mapping(threads),
            ),
            row_zeros=row_vec("row_zeros"),
            row_star=row_vec("row_star"),
            row_prime=row_vec("row_prime"),
            row_cover=row_vec("row_cover"),
            zero_status=row_vec("zero_status"),
            zero_col=row_vec("zero_col"),
            col_star=col_vec("col_star"),
            col_cover=col_vec("col_cover"),
            row_potential=graph.add_tensor(
                "warm/row_potential", (n,), dtype, mapping=row_map
            ),
            col_potential=graph.add_tensor(
                "warm/col_potential",
                (n,),
                dtype,
                mapping=TileMapping.single_tile(n),
            ),
            seed_star=row_vec("warm/seed_star"),
            seed_cand=row_vec("warm/seed_cand"),
            green_rows=on_tile0("green_rows", n + 1),
            green_cols=on_tile0("green_cols", n + 1),
            path_state=on_tile0("path_state", 4),
            aug_sel=on_tile0("aug_sel", 2),
            sel=on_tile0("sel", 4),
            tau=graph.add_scalar("tau"),
            step2_iter=graph.add_scalar("step2_iter"),
            step2_cond=graph.add_scalar("step2_cond"),
            covered_count=graph.add_scalar("covered_count"),
            not_done=graph.add_scalar("not_done"),
            inner_cond=graph.add_scalar("inner_cond"),
            max_status=graph.add_scalar("max_status"),
            flag_update=graph.add_scalar("flag_update"),
            flag_aug=graph.add_scalar("flag_aug"),
            path_active=graph.add_scalar("path_active"),
            rev_index=graph.add_scalar("rev_index"),
            rev_cond=graph.add_scalar("rev_cond"),
            delta=graph.add_tensor(
                "delta", (1,), dtype, mapping=TileMapping.single_tile(1)
            ),
            aug_count=graph.add_scalar("aug_count"),
            update_count=graph.add_scalar("update_count"),
            prime_count=graph.add_scalar("prime_count"),
        )

    def initialize_host(self, costs: np.ndarray) -> None:
        """(Re)set every state tensor for a fresh solve.

        Copies ``costs`` straight into the slack tensor's element buffer and
        refills every other tensor with its pre-Step-1 value in place.
        Resetting everything (not just what Step 1 overwrites) is what makes
        a compiled instance reusable across solves of the same size.
        """
        np.copyto(self.slack.data, costs, casting="same_kind")
        self.compress.data.fill(-1)
        self.row_potential.data.fill(0)
        self.col_potential.data.fill(0)
        self.seed_star.data.fill(-1)
        self.seed_cand.data.fill(-1)
        self.zero_count.data.fill(0)
        self.row_zeros.data.fill(0)
        self.row_star.data.fill(-1)
        self.row_prime.data.fill(-1)
        self.row_cover.data.fill(0)
        self.zero_status.data.fill(0)
        self.zero_col.data.fill(-1)
        self.col_star.data.fill(-1)
        self.col_cover.data.fill(0)
        self.green_rows.data.fill(-1)
        self.green_cols.data.fill(-1)
        self.path_state.data.fill(0)
        self.aug_sel.data.fill(0)
        self.sel.data.fill(0)
        for scalar in (
            self.tau,
            self.step2_iter,
            self.step2_cond,
            self.covered_count,
            self.inner_cond,
            self.max_status,
            self.flag_update,
            self.flag_aug,
            self.path_active,
            self.rev_index,
            self.rev_cond,
            self.aug_count,
            self.update_count,
            self.prime_count,
        ):
            scalar.data.fill(0)
        self.delta.data.fill(0)
        self.not_done.data.fill(1)

    def load_seed(
        self,
        row_potential: np.ndarray,
        col_potential: np.ndarray,
        row_star: np.ndarray,
    ) -> None:
        """Upload a warm-start seed (call after :meth:`initialize_host`).

        Potentials arrive already mapped into the current instance's
        normalized units; the previous matching is clipped to int32.
        """
        np.copyto(self.row_potential.data, row_potential, casting="same_kind")
        np.copyto(self.col_potential.data, col_potential, casting="same_kind")
        self.seed_star.data[...] = np.asarray(row_star, dtype=np.int32)
