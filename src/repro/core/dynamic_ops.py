"""Partition-and-distribute dynamic tensor operations (§IV-G, Fig. 4).

The IPU's static graph has no efficient native dynamic indexing (challenge
C4): an index computed at run time could address memory on any tile.  The
paper's solution partitions the tensor into per-tile segments whose bounds
are compile-time constants; on a dynamic access every segment vertex checks
*in parallel* whether the index falls in its range, and only the owner acts:

* **dynamic slice** (:class:`DynSliceSegment`) — each segment writes either
  its element or a sentinel into a small temporary tensor (one slot per
  segment, at most 1472 — small enough for a single tile, as Fig. 4 notes);
  a follow-up vertex on that tile reduces the temporaries;
* **dynamic update** (:class:`DynStore`) — the owning segment writes the
  value; everyone else does nothing.

Costs: every vertex pays the range check plus (owner only) one dynamic
access; the broadcast of the index scalar is exchange traffic, all of which
the engine charges from the static plan.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet, CostContext

__all__ = ["SENTINEL", "DynSliceSegment", "DynStore"]

#: Written by non-owning segments during a dynamic slice.  Distinct from -1,
#: which is a legitimate "no star / no prime" value in HunIPU's state.
SENTINEL = -2


class DynSliceSegment(Codelet):
    """One segment's side of a distributed dynamic slice.

    Fields: ``state`` (small int vector holding the runtime index at
    position ``slot``), ``data`` (the local segment), ``out`` (this
    segment's slot in the temporary gather tensor).

    Params: ``start`` — the segment's global offset; ``slot`` — which
    element of ``state`` carries the index.
    """

    fields = {"state": "in", "data": "in", "out": "out"}
    dynamic_access = True
    local_fields = ("data",)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext):
        slot = int(params["slot"][0])
        starts = params["start"].astype(np.int64)
        check_cycles = 2.0 * cost.cycles_per_alu_op

        def dyn_slice(views) -> np.ndarray:
            data = views["data"]
            batch, length = data.shape
            index = int(views["state"][0, slot])
            local = index - starts
            owns = (local >= 0) & (local < length)
            out = views["out"]
            out[:, 0] = SENTINEL
            cycles = np.full(batch, check_cycles)
            owner_rows = np.flatnonzero(owns)
            if len(owner_rows):
                out[owner_rows, 0] = data[owner_rows, local[owner_rows]]
                cycles[owner_rows] += cost.cycles_per_dynamic_access
            return cycles

        return dyn_slice


class DynStore(Codelet):
    """One segment's side of a distributed dynamic update.

    Fields: ``sel`` (small int vector: index at ``index_slot``, value at
    ``value_slot``), ``data`` (the local segment, updated in place by the
    owner).

    Params: ``start`` — segment offset; ``index_slot``; ``value_slot`` —
    position of the value in ``sel``, or ``-1`` to store the compile-time
    ``const_value`` instead.
    """

    fields = {"sel": "in", "data": "inout"}
    dynamic_access = True
    local_fields = ("data",)

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext):
        index_slot = int(params["index_slot"][0])
        value_slot = int(params["value_slot"][0])
        if value_slot < 0 and "const_value" not in params:
            raise GraphConstructionError(
                "DynStore with value_slot=-1 requires a const_value param"
            )
        const_value = int(params["const_value"][0]) if value_slot < 0 else None
        starts = params["start"].astype(np.int64)
        check_cycles = 2.0 * cost.cycles_per_alu_op

        def dyn_store(views) -> np.ndarray:
            data = views["data"]
            batch, length = data.shape
            sel = views["sel"][0]
            value = const_value if value_slot < 0 else int(sel[value_slot])
            local = int(sel[index_slot]) - starts
            owns = (local >= 0) & (local < length)
            cycles = np.full(batch, check_cycles)
            owner_rows = np.flatnonzero(owns)
            if len(owner_rows):
                data[owner_rows, local[owner_rows]] = value
                cycles[owner_rows] += cost.cycles_per_dynamic_access
            return cycles

        return dyn_store
