"""Generic codelets and graph-building helpers (the "poplibs" layer).

Poplar ships reusable operator libraries (reduce, sort, elementwise) that the
paper's Steps 1, 2 and 6 lean on ("we apply the Poplar's reduce operation",
§IV-C; "Poplar's sort operation", §IV-D).  This module is the simulator's
equivalent: small stateless codelets with explicit cycle formulas, plus
:func:`build_reduce`, the standard distributed reduction pattern: two-stage
(per-tile partial → single-tile final) on one chip, three-stage (per-tile →
per-IPU → global) when the partials span a multi-IPU cluster.

:func:`fold_per_chip` is the one place the per-IPU stage is built.  It
serves :func:`build_reduce` (Step 2's τ, Step 3's covered-column count,
Step 6's Δ) and Step 4's arg-max, whose records are 4-tuples.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.programs import Execute, Program, Sequence
from repro.ipu.tensor import Tensor

__all__ = [
    "Fill",
    "VecReduce",
    "RowMin",
    "SubtractRowMin",
    "ColPartialMin",
    "SubtractColMin",
    "SortRowsDescending",
    "GatherColumn",
    "WriteScalar",
    "AddToScalar",
    "ScalarCompare",
    "ScalarBinaryCompare",
    "build_reduce",
    "chip_slices",
    "fold_per_chip",
]

_REDUCE_OPS = {
    "min": (np.min, np.minimum),
    "max": (np.max, np.maximum),
    "sum": (np.sum, np.add),
}


class Fill(Codelet):
    """Set every element of the connected region to the ``value`` param."""

    fields = {"data": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        data = views["data"]
        data[...] = params["value"][:, None]
        length = data.shape[1]
        return np.full(
            data.shape[0], cost.segmented(length / 2 * cost.cycles_per_load2)
        )


class VecReduce(Codelet):
    """Reduce a vector region to one element with ``op`` (min/max/sum).

    The operation is part of the codelet identity (and of its name), because
    Poplar specializes reduce vertices per operation at compile time.
    """

    fields = {"data": "in", "out": "out"}

    def __init__(self, op: str) -> None:
        if op not in _REDUCE_OPS:
            raise GraphConstructionError(f"unknown reduce op {op!r}")
        self.op = op
        super().__init__()

    @property
    def name(self) -> str:
        return f"VecReduce[{self.op}]"

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext, tensors=None):
        _, reduce_ufunc = _REDUCE_OPS[self.op]
        cycles = np.empty(0)  # one shape per plan: priced on the first call

        def reduce(views) -> np.ndarray:
            nonlocal cycles
            data = views["data"]
            views["out"][:, 0] = reduce_ufunc.reduce(data, axis=1)
            if len(cycles) != len(data):
                cycles = np.asarray(
                    cost.segmented(cost.scan_cycles(data.shape[1]))
                ) * np.ones(len(data))
            return cycles

        return reduce


class RowMin(Codelet):
    """Per-row minimum of a row block (Step 1's row reduce, §IV-C)."""

    fields = {"block": "in", "mins": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        rows = block.shape[1] // cols
        views["mins"][...] = block.reshape(-1, rows, cols).min(axis=2)
        return np.asarray(
            cost.segmented(rows * cost.scan_cycles(cols))
        ) * np.ones(block.shape[0])


class SubtractRowMin(Codelet):
    """Subtract each row's minimum (2-float loads, six-segment split)."""

    fields = {"block": "inout", "mins": "in"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        rows = block.shape[1] // cols
        shaped = block.reshape(-1, rows, cols)
        shaped -= views["mins"].reshape(-1, rows, 1)
        work = rows * cols * (cost.cycles_per_load2 / 2 + cost.cycles_per_alu_op)
        return np.asarray(cost.segmented(work)) * np.ones(block.shape[0])


class ColPartialMin(Codelet):
    """Per-tile column-wise partial minimum over a row block (Step 1)."""

    fields = {"block": "in", "partial": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        rows = block.shape[1] // cols
        views["partial"][...] = block.reshape(-1, rows, cols).min(axis=1)
        return np.asarray(
            cost.segmented(cost.scan_cycles(rows * cols))
        ) * np.ones(block.shape[0])


class SubtractColMin(Codelet):
    """Subtract the global column minima (broadcast read) from a row block."""

    fields = {"block": "inout", "colmin": "in"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        rows = block.shape[1] // cols
        shaped = block.reshape(-1, rows, cols)
        shaped -= views["colmin"].reshape(block.shape[0], 1, cols)
        work = rows * cols * (cost.cycles_per_load2 / 2 + cost.cycles_per_alu_op)
        return np.asarray(cost.segmented(work)) * np.ones(block.shape[0])


class SortRowsDescending(Codelet):
    """Sort each row of a block descending (Step 2's compress-matrix sort)."""

    fields = {"block": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        rows = block.shape[1] // cols
        shaped = block.reshape(-1, rows, cols)
        shaped.sort(axis=2)
        shaped[...] = shaped[:, :, ::-1]
        work = rows * cost.sort_cycles(cols)
        return np.asarray(cost.segmented(work)) * np.ones(block.shape[0])


class GatherColumn(Codelet):
    """Dynamic slice of one column out of a local row block (C4).

    The column index arrives in a one-element tensor written at run time
    (typically a loop counter), so every access is a runtime-indexed load —
    charged at the dynamic-access rate.
    """

    fields = {"block": "in", "index": "in", "out": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        cols = int(params["cols"][0])
        block = views["block"]
        rows = block.shape[1] // cols
        column = views["index"][:, 0].astype(np.int64)
        shaped = block.reshape(-1, rows, cols)
        views["out"][...] = shaped[np.arange(shaped.shape[0]), :, column]
        work = rows * cost.cycles_per_dynamic_access
        return np.full(block.shape[0], float(work))


class WriteScalar(Codelet):
    """Write the compile-time ``value`` param into a one-element tensor."""

    fields = {"out": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        views["out"][:, 0] = params["value"]
        return np.full(views["out"].shape[0], cost.cycles_per_alu_op)


class AddToScalar(Codelet):
    """Add the compile-time ``value`` param to a one-element tensor."""

    fields = {"out": "inout"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        return self.bind(params, cost)(views)

    def bind(self, params, cost: CostContext, tensors=None):
        value = cycles = np.empty(0)  # cast and priced on the first call

        def add(views) -> np.ndarray:
            nonlocal value, cycles
            out = views["out"]
            if len(cycles) != len(out):
                value = params["value"].astype(out.dtype)
                cycles = np.full(len(out), cost.cycles_per_alu_op)
            out[:, 0] += value
            return cycles

        return add


class ScalarCompare(Codelet):
    """Write ``flag = (a <op> threshold)`` for scalar tensors.

    ``op`` and ``threshold`` are codelet identity (compile-time), matching
    how branch predicates are built into static graphs.
    """

    fields = {"a": "in", "flag": "out"}

    _OPS = {
        "eq": np.equal,
        "ne": np.not_equal,
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
    }

    def __init__(self, op: str, threshold: float) -> None:
        if op not in self._OPS:
            raise GraphConstructionError(f"unknown comparison {op!r}")
        self.op = op
        self.threshold = threshold
        super().__init__()

    @property
    def name(self) -> str:
        return f"ScalarCompare[{self.op},{self.threshold}]"

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        result = self._OPS[self.op](views["a"][:, 0], self.threshold)
        views["flag"][:, 0] = result.astype(views["flag"].dtype)
        return np.full(views["a"].shape[0], cost.cycles_per_alu_op)


class ScalarBinaryCompare(Codelet):
    """Write ``flag = (a <op> b)`` for two scalar tensors."""

    fields = {"a": "in", "b": "in", "flag": "out"}

    _OPS = ScalarCompare._OPS

    def __init__(self, op: str) -> None:
        if op not in self._OPS:
            raise GraphConstructionError(f"unknown comparison {op!r}")
        self.op = op
        super().__init__()

    @property
    def name(self) -> str:
        return f"ScalarBinaryCompare[{self.op}]"

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        result = self._OPS[self.op](views["a"][:, 0], views["b"][:, 0])
        views["flag"][:, 0] = result.astype(views["flag"].dtype)
        return np.full(views["a"].shape[0], cost.cycles_per_alu_op)


def chip_slices(
    tiles: "list[int] | tuple[int, ...]", num_tiles_per_ipu: int
) -> list[tuple[int, int, int]] | None:
    """Group an ordered tile list into per-chip index slices.

    Returns ``[(chip, start, stop), ...]`` where ``tiles[start:stop]`` all
    live on ``chip`` (``tile // num_tiles_per_ipu``), or ``None`` when the
    chips are interleaved (a chip's tiles are not consecutive in the list)
    — the shape hierarchical reduces need each chip's partials contiguous.
    """
    slices: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    start = 0
    for index, tile in enumerate(tiles):
        chip = tile // num_tiles_per_ipu
        if not slices:
            slices.append((chip, 0, 1))
            seen.add(chip)
        elif chip == slices[-1][0]:
            slices[-1] = (chip, start, index + 1)
        else:
            if chip in seen:
                return None  # interleaved — chip appears twice
            start = index
            slices.append((chip, start, index + 1))
            seen.add(chip)
    return slices


def fold_per_chip(
    graph: ComputeGraph,
    partials: Tensor,
    codelet: Codelet,
    tensor_name: str,
    set_name: str,
) -> tuple[Tensor, tuple[Program, ...]]:
    """The per-chip stage of a hierarchical combine, when there is one.

    ``partials`` holds one record per interval of its tile mapping, each
    ``partials.size // len(tiles)`` elements wide.  When those tiles span
    two or more chips and each chip's records are contiguous, compute set
    ``set_name`` places one ``codelet`` vertex per chip on that chip's first
    tile: its ``data`` field reads the chip's records and its ``out`` field
    writes one record of the new tensor ``tensor_name``.  That stage needs
    only on-chip exchange and an internal sync, so the caller's final stage,
    which reads one record per chip, is the only superstep that crosses
    IPU-Links.

    Returns ``(tensor_name's tensor, (Execute(stage),))``, or
    ``(partials, ())`` on one chip or when the chips are interleaved; the
    caller's final stage then combines ``partials`` directly (the flat
    two-stage form).
    """
    tiles = [interval.tile for interval in partials.require_mapping().intervals]
    slices = chip_slices(tiles, graph.spec.num_tiles)
    if slices is None or len(slices) < 2:
        return partials, ()
    width = partials.size // len(tiles)
    heads = [tiles[start] for _, start, _ in slices]
    folded = graph.add_tensor(
        tensor_name,
        (len(slices), *partials.shape[1:]),
        partials.dtype,
        mapping=TileMapping.linear_segments(len(slices) * width, width, heads),
    )
    stage = graph.add_compute_set(set_name)
    records = np.array([(start, stop) for _, start, stop in slices]) * width
    offsets = np.arange(len(slices)) * width
    stage.add_vertices(
        codelet,
        heads,
        {
            "data": (partials, records[:, 0], records[:, 1]),
            "out": (folded, offsets, offsets + width),
        },
    )
    return folded, (Execute(stage),)


def build_reduce(
    graph: ComputeGraph,
    source: Tensor,
    op: str,
    out: Tensor,
    name: str,
    *,
    stage_tile: int = 0,
) -> Program:
    """Distributed reduction of ``source`` into scalar ``out``.

    Stage 1 places one partial-reduce vertex on every tile that owns a piece
    of ``source`` (its result element is mapped to that same tile, so stage 1
    is exchange-free).  The final stage (``{name}/final``) reduces the
    partials vector on ``stage_tile``, paying exchange for the remote
    partials — the same pattern Poplar's ``popops::reduce`` lowers to for
    small outputs.

    On a cluster, :func:`fold_per_chip` first reduces each chip's partials
    on a tile of that chip (``{name}/ipu``), so the final stage combines one
    value per chip.  min/max/sum over the solver's dtypes are associative
    here (min/max always; the only summed tensors are integer counts), so
    the grouping change is bit-identical to the flat reduce.
    """
    if out.size != 1:
        raise GraphConstructionError("reduce target must be a scalar tensor")
    mapping = source.require_mapping()
    partials = graph.add_tensor(
        f"{name}/partials",
        (len(mapping),),
        source.dtype,
        mapping=TileMapping.per_element(mapping.tiles.tolist()),
    )
    stage1 = graph.add_compute_set(f"{name}/partial")
    codelet = VecReduce(op)
    index = np.arange(len(mapping))
    stage1.add_vertices(
        codelet,
        mapping.tiles,
        {
            "data": (source, mapping.starts, mapping.stops),
            "out": (partials, index, index + 1),
        },
    )
    final_input, stages = fold_per_chip(
        graph, partials, codelet, f"{name}/ipu_partials", f"{name}/ipu"
    )
    stage_final = graph.add_compute_set(f"{name}/final")
    stage_final.add_vertex(
        codelet,
        stage_tile,
        {
            "data": ComputeGraph.full(final_input),
            "out": ComputeGraph.full(out),
        },
    )
    return Sequence(Execute(stage1), *stages, Execute(stage_final))
