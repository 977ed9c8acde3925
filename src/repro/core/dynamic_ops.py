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
the engine charges from the static plan.  The simulator finds the owner by
bisecting the segment starts (:func:`segment_owners`), so its host work per
call does not grow with the number of segments; the charge still covers
every segment's check.
"""

from __future__ import annotations

import bisect
from typing import Callable

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet, CostContext

__all__ = ["SENTINEL", "DynSliceSegment", "DynStore", "segment_owners"]

#: Written by non-owning segments during a dynamic slice.  Distinct from -1,
#: which is a legitimate "no star / no prime" value in HunIPU's state.
SENTINEL = -2


def segment_owners(
    starts: np.ndarray,
) -> Callable[[int, int], list[tuple[int, int]]]:
    """Bind-time owner lookup over per-vertex segment ``starts``.

    The returned ``owners(index, length)`` lists ``(vertex, local)`` for
    every vertex whose segment ``[start, start + length)`` holds ``index``
    — exactly the vertices whose parallel range check succeeds — with two
    bisections over the sorted starts.
    """
    order = np.argsort(starts, kind="stable")
    sorted_starts = starts[order].astype(np.int64).tolist()
    vertices = order.tolist()

    def owners(index: int, length: int) -> list[tuple[int, int]]:
        lo = bisect.bisect_right(sorted_starts, index - length)
        hi = bisect.bisect_right(sorted_starts, index, lo)
        return [
            (vertices[at], index - sorted_starts[at]) for at in range(lo, hi)
        ]

    return owners


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

    def bind(self, params, cost: CostContext, tensors=None):
        slot = int(params["slot"][0])
        owners = segment_owners(params["start"])
        checks = np.full(len(params["start"]), 2.0 * cost.cycles_per_alu_op)
        access = cost.cycles_per_dynamic_access

        def dyn_slice(views) -> np.ndarray:
            data = views["data"]
            out = views["out"]
            out[:, 0] = SENTINEL
            cycles = checks.copy()
            for vertex, local in owners(int(views["state"][0, slot]), data.shape[1]):
                out[vertex, 0] = data[vertex, local]
                cycles[vertex] += access
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

    def bind(self, params, cost: CostContext, tensors=None):
        index_slot = int(params["index_slot"][0])
        value_slot = int(params["value_slot"][0])
        if value_slot < 0 and "const_value" not in params:
            raise GraphConstructionError(
                "DynStore with value_slot=-1 requires a const_value param"
            )
        const_value = int(params["const_value"][0]) if value_slot < 0 else None
        owners = segment_owners(params["start"])
        checks = np.full(len(params["start"]), 2.0 * cost.cycles_per_alu_op)
        access = cost.cycles_per_dynamic_access

        def dyn_store(views) -> np.ndarray:
            data = views["data"]
            sel = views["sel"][0]
            value = const_value if value_slot < 0 else int(sel[value_slot])
            cycles = checks.copy()
            for vertex, local in owners(int(sel[index_slot]), data.shape[1]):
                data[vertex, local] = value
                cycles[vertex] += access
            return cycles

        return dyn_store
