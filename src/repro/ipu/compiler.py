"""Compile-time checking and execution planning.

The Poplar compiler is where the IPU's static-graph discipline bites: shapes,
mappings, memory budgets and exchange schedules are all fixed before the
first cycle runs (§III-A).  :func:`compile_graph` reproduces the checks that
matter for algorithm design:

* every tensor referenced by the program is **mapped**, to in-range tiles;
* per-tile SRAM budgets hold (challenge C2 — :class:`TileMemoryError`);
* vertex connections are in range and write regions never overlap within a
  compute set (Poplar's data-race guarantee, §III-A);
* per compute set, a static **exchange budget** (bytes each vertex must move
  because a connected interval lives on another tile) is precomputed.

It also builds an :class:`ExecutionPlan` per compute set.  When a compute
set is *uniform* — a single codelet, and per field one tensor whose
equal-length regions are back-to-back in vertex order or one shared
broadcast region — the plan exposes zero-copy ``(num_vertices, region)``
views, which is what lets the engine run 1472 vertices as one numpy call.
Any other compute set runs vertex by vertex.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import TYPE_CHECKING, Callable, Literal

import numpy as np

from repro.errors import CompilationError, TileMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.check.checker import CheckConfig
    from repro.check.report import CheckReport
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph, ComputeSet, FieldColumns
from repro.ipu.programs import Copy, Program
from repro.ipu.spec import IPUSpec
from repro.ipu.tensor import Tensor
from repro.obs.spans import child_span

__all__ = ["FieldPlan", "ExecutionPlan", "CompiledGraph", "compile_graph"]

logger = logging.getLogger(__name__)

#: Accepted values of ``compile_graph``'s / ``Engine``'s ``check`` argument.
CHECK_MODES = ("off", "warn", "strict")


@dataclasses.dataclass
class FieldPlan:
    """How the engine views one codelet field for a whole batch.

    The field's regions are equal length and either back-to-back in vertex
    order or, for a read-only field, one region every vertex shares
    (``broadcast``).  Either way the batch is a view of tensor memory:
    zero copy, and valid for the tensor's lifetime.
    """

    tensor: Tensor
    starts: np.ndarray  # (num_vertices,) region starts
    length: int
    broadcast: bool = False

    def gather(self) -> np.ndarray:
        """The ``(num_vertices, length)`` batch view of tensor memory."""
        flat = self.tensor.flat()
        base = int(self.starts[0])
        count = len(self.starts)
        if self.broadcast:
            return np.broadcast_to(
                flat[base : base + self.length], (count, self.length)
            )
        return flat[base : base + count * self.length].reshape(count, self.length)


@dataclasses.dataclass
class ExecutionPlan:
    """Precomputed schedule for one compute set.

    ``batched`` plans run every vertex in a single :meth:`Codelet.compute_all`
    call over views of tensor memory; any other compute set falls back to a
    per-vertex loop.  Exchange bytes and the vertex->tile assignment are
    compile-time constants either way.
    """

    compute_set: ComputeSet
    codelet: Codelet | None  # None => mixed codelets, per-vertex fallback
    field_plans: dict[str, FieldPlan]
    param_arrays: dict[str, np.ndarray]
    vertex_tiles: np.ndarray
    exchange_bytes: int
    inter_ipu_bytes: int
    worker_slots: np.ndarray  # (num_vertices,) round-robin slot per tile
    #: Static exchange bytes attributed to each tensor the compute set
    #: touches (values sum to ``exchange_bytes``).
    exchange_by_tensor: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Sorted chips this compute set runs vertices on (``tile // num_tiles``
    #: per used tile).  ``(0,)`` on any single-IPU device.
    ipus: tuple[int, ...] = (0,)
    #: Tensors some vertex writes (``out``/``inout`` fields), in first-write
    #: order; the engine bumps their :attr:`~repro.ipu.tensor.Tensor.writes`.
    written: tuple[Tensor, ...] = ()
    _slot_keys: np.ndarray | None = dataclasses.field(default=None, repr=False)
    _single_slot_per_key: bool = dataclasses.field(default=False, repr=False)

    def __post_init__(self) -> None:
        stride = int(self.worker_slots.max(initial=0)) + 1
        keys = self.vertex_tiles.astype(np.int64) * stride + self.worker_slots
        # Compact the key space so bincount stays small.
        _, compact = np.unique(keys, return_inverse=True)
        self._slot_keys = compact
        self._single_slot_per_key = len(np.unique(compact)) == len(compact)
        # Compact tile ids the same way, for per-tile cycle statistics.
        tiles_in_use, tile_keys = np.unique(
            self.vertex_tiles, return_inverse=True
        )
        self._tile_keys = tile_keys
        #: Sorted unique physical tile ids, aligned with
        #: :meth:`tile_cycle_totals` output (deep profiler attribution).
        self.tile_ids = tiles_in_use

    @property
    def batched(self) -> bool:
        return self.codelet is not None

    @property
    def codelet_names(self) -> str:
        """Sorted distinct codelet names joined by ``/`` (the label of a
        codelet fault)."""
        return "/".join(sorted(self.compute_set.codelets))

    def batch_views(self) -> dict[str, np.ndarray]:
        """Every field's batch view, keyed by field name.

        Tensor buffers are fixed for a tensor's lifetime, so the engine
        builds these once and reuses them on every execution.
        """
        return {
            field: field_plan.gather()
            for field, field_plan in self.field_plans.items()
        }

    def slowest_slot(self, overhead: float) -> Callable[[np.ndarray], float]:
        """The BSP compute-phase charge as a function of vertex cycles.

        Each vertex costs its cycles plus ``overhead``.  Vertices landing
        on the same tile are dealt round-robin to the tile's worker
        threads; the tile finishes when its fullest slot drains, and the
        superstep finishes when the slowest tile does (C3).  With one
        vertex per slot that is the slowest vertex, and the overhead is
        added after the maximum: rounding is monotonic, so
        ``max(c) + overhead`` equals ``max(c + overhead)`` bit for bit.
        """
        # ``item(argmax())`` is the maximum, at a third of the cost of a
        # NumPy max reduction on arrays this small.
        if not self._single_slot_per_key:
            keys = self._slot_keys

            def busiest_slot(vertex_cycles: np.ndarray) -> float:
                totals = np.bincount(keys, weights=vertex_cycles + overhead)
                return totals.item(totals.argmax())

            return busiest_slot
        if len(self._slot_keys) == 1:
            return lambda vertex_cycles: vertex_cycles.item(0) + overhead
        return (
            lambda vertex_cycles: vertex_cycles.item(vertex_cycles.argmax())
            + overhead
        )

    def tile_cycle_totals(self, vertex_cycles: np.ndarray) -> np.ndarray:
        """Summed cycles per tile in use (for load-balance diagnostics)."""
        return np.bincount(self._tile_keys, weights=vertex_cycles)


@dataclasses.dataclass
class CompiledGraph:
    """The immutable artifact the engine executes."""

    graph: ComputeGraph
    program: Program
    plans: dict[int, ExecutionPlan]
    cost_context: CostContext
    memory_per_tile: dict[int, int]
    #: Populated when compiled with ``check != "off"`` (C1–C4 findings).
    check_report: "CheckReport | None" = None

    @property
    def spec(self) -> IPUSpec:
        return self.graph.spec

    def plan_for(self, compute_set: ComputeSet) -> ExecutionPlan:
        return self.plans[compute_set.cs_id]


def compile_graph(
    graph: ComputeGraph,
    program: Program,
    *,
    check: Literal["off", "warn", "strict"] = "off",
    check_config: "CheckConfig | None" = None,
) -> CompiledGraph:
    """Validate ``graph`` + ``program`` and build execution plans.

    ``check`` additionally runs the static BSP constraint checker
    (:mod:`repro.check`) over the compiled program: ``"warn"`` logs every
    finding, ``"strict"`` raises :class:`~repro.errors.ConstraintError` on
    C1/C2 errors (lint warnings are still only logged).  The report is kept
    on :attr:`CompiledGraph.check_report` either way.  ``check_config``
    tunes headroom and lint thresholds.

    Raises
    ------
    CompilationError
        For unmapped tensors, out-of-range tiles, foreign tensors, or
        overlapping write regions.
    TileMemoryError
        When mapped tensors exceed a tile's SRAM budget (C2).
    ConstraintError
        Under ``check="strict"`` when the checker finds C1/C2 violations.
    """
    if check not in CHECK_MODES:
        raise CompilationError(
            f"unknown check mode {check!r}, expected one of {CHECK_MODES}"
        )
    spec = graph.spec
    _check_tensors(graph)
    memory_per_tile = _check_memory(graph)
    _check_copies(program)
    plans: dict[int, ExecutionPlan] = {}
    compute_sets = _reachable_compute_sets(graph, program)
    with child_span("compile.plans", compute_sets=len(compute_sets)):
        for compute_set in compute_sets:
            _check_vertices(graph, compute_set, spec)
            written = _check_write_overlaps(compute_set)
            plan = _build_plan(compute_set, spec)
            plan.written = written
            plans[compute_set.cs_id] = plan
    cost = CostContext(threads_per_tile=spec.threads_per_tile)
    check_report = None
    if check != "off":
        from repro.check.checker import check_graph as run_check

        with child_span("compile.check"):
            check_report = run_check(graph, program, check_config)
        for diagnostic in check_report.diagnostics:
            logger.warning("constraint check: %s", diagnostic.format())
        if check == "strict":
            check_report.raise_if_failed()
    return CompiledGraph(
        graph, program, plans, cost, memory_per_tile, check_report
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def _reachable_compute_sets(
    graph: ComputeGraph, program: Program
) -> tuple[ComputeSet, ...]:
    reachable: dict[int, ComputeSet] = {}
    owned = set(graph.compute_sets)
    for compute_set in program.compute_sets():
        if owned and compute_set not in owned:
            raise CompilationError(
                f"compute set {compute_set.name!r} does not belong to this graph"
            )
        reachable[compute_set.cs_id] = compute_set
    return tuple(reachable.values())


def _check_tensors(graph: ComputeGraph) -> None:
    for tensor in graph.tensors:
        mapping = tensor.mapping
        if mapping is None:
            raise CompilationError(
                f"tensor {tensor.name!r} is unmapped; every tensor must be "
                "explicitly placed on tiles"
            )
        if mapping.max_tile() >= graph.spec.total_tiles:
            raise CompilationError(
                f"tensor {tensor.name!r} maps to tile {mapping.max_tile()} "
                f"but the system has {graph.spec.total_tiles} tiles"
            )


def _check_memory(graph: ComputeGraph) -> dict[int, int]:
    per_tile: dict[int, int] = {}
    for tensor in graph.tensors:
        for tile, nbytes in tensor.require_mapping().bytes_per_tile(
            tensor.dtype.itemsize
        ).items():
            per_tile[tile] = per_tile.get(tile, 0) + nbytes
    budget = graph.spec.tile_memory_bytes
    for tile, used in sorted(per_tile.items()):
        if used > budget:
            raise TileMemoryError(
                f"tile {tile} holds {used} bytes of tensor data, exceeding "
                f"the {budget}-byte SRAM budget (C2)"
            )
    return per_tile


def _check_copies(program: Program) -> None:
    stack: list[Program] = [program]
    while stack:
        node = stack.pop()
        if isinstance(node, Copy):
            node.source.require_mapping()
            node.destination.require_mapping()
        for attr in ("programs", "body", "then_body", "else_body"):
            child = getattr(node, attr, None)
            if child is None:
                continue
            if isinstance(child, Program):
                stack.append(child)
            else:
                stack.extend(child)


def _check_vertices(
    graph: ComputeGraph, compute_set: ComputeSet, spec: IPUSpec
) -> None:
    if not compute_set.blocks:
        raise CompilationError(
            f"compute set {compute_set.name!r} has no vertices"
        )
    for block in compute_set.blocks:
        beyond = np.flatnonzero(block.tiles >= spec.total_tiles)
        # Vertex by vertex: the block's first vertex's tile comes before
        # its fields (which every vertex of the block shares).
        if not len(beyond) or beyond[0] > 0:
            for field, (tensor, _, _) in block.connections.items():
                if tensor.graph_id != graph.graph_id:
                    raise CompilationError(
                        f"vertex field {field!r} in {compute_set.name!r} connects "
                        f"to tensor {tensor.name!r} from another graph"
                    )
                tensor.require_mapping()
        if len(beyond):
            raise CompilationError(
                f"vertex of {block.codelet.name} in {compute_set.name!r} "
                f"placed on tile {block.tiles[beyond[0]]}, system has "
                f"{spec.total_tiles}"
            )


def _check_write_overlaps(compute_set: ComputeSet) -> tuple[Tensor, ...]:
    """Reject overlapping write regions; return the tensors written.

    Per written tensor, the regions sorted by start overlap somewhere iff
    some region starts before its predecessor stops.
    """
    regions: dict[Tensor, list[tuple[np.ndarray, np.ndarray]]] = {}
    for block in compute_set.blocks:
        directions = block.codelet.fields
        for field, (tensor, starts, stops) in block.connections.items():
            if directions[field] != "in":
                regions.setdefault(tensor, []).append((starts, stops))
    for tensor, parts in regions.items():
        starts, stops = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(starts, kind="stable")
        if (starts[order[1:]] < stops[order[:-1]]).any():
            raise CompilationError(
                f"compute set {compute_set.name!r} has overlapping write "
                f"regions on tensor {tensor.name!r} (data race, C1)"
            )
    return tuple(regions)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def _build_plan(compute_set: ComputeSet, spec: IPUSpec) -> ExecutionPlan:
    blocks = compute_set.blocks
    tiles_per_ipu = spec.num_tiles if spec.num_ipus > 1 else None
    account = compute_set.exchange(tiles_per_ipu)
    vertex_tiles = compute_set.tiles
    ipus = (0,)
    if tiles_per_ipu is not None:
        ipus = tuple(np.unique(vertex_tiles // tiles_per_ipu).tolist())
    names = compute_set.codelets

    def plan(codelet, field_plans, param_arrays) -> ExecutionPlan:
        return ExecutionPlan(
            compute_set,
            codelet,
            field_plans,
            param_arrays,
            vertex_tiles,
            account.total,
            account.inter_ipu,
            _assign_worker_slots(vertex_tiles, spec.threads_per_tile),
            account.by_tensor,
            ipus,
        )

    if len(names) != 1:
        return plan(None, {}, {})
    codelet = blocks[0].codelet

    field_plans: dict[str, FieldPlan] = {}
    for field, direction in codelet.fields.items():
        field_plan = _plan_field(
            [block.connections[field] for block in blocks], direction
        )
        if field_plan is None:
            return plan(None, {}, {})
        field_plans[field] = field_plan

    param_names = sorted({name for block in blocks for name in block.params})
    param_arrays = {
        name: np.concatenate(
            [
                np.broadcast_to(
                    np.asarray(block.params.get(name, 0), dtype=np.float64),
                    block.tiles.shape,
                )
                for block in blocks
            ]
        )
        for name in param_names
    }
    return plan(codelet, field_plans, param_arrays)


def _plan_field(columns: list[FieldColumns], direction: str) -> FieldPlan | None:
    """A batch view of one field's regions across the blocks, if any."""
    tensor = columns[0][0]
    if any(other.name != tensor.name for other, _, _ in columns):
        return None
    starts = np.concatenate([starts for _, starts, _ in columns])
    lengths = np.concatenate([stops - starts for _, starts, stops in columns])
    length = int(lengths[0])
    if (lengths != length).any():
        return None
    broadcast = (
        direction == "in"
        and len(starts) > 1
        and bool(np.all(starts == starts[0]))
    )
    contiguous = bool(
        np.all(starts == starts[0] + np.arange(len(starts)) * length)
    )
    if not (broadcast or contiguous):
        return None
    return FieldPlan(
        tensor=tensor, starts=starts, length=length, broadcast=broadcast
    )


def _assign_worker_slots(vertex_tiles: np.ndarray, threads: int) -> np.ndarray:
    """Deal same-tile vertices round-robin onto worker threads.

    A vertex's slot is its rank among the earlier vertices on its tile,
    modulo ``threads``: a stable sort groups each tile's vertices in
    placement order, and the rank is the offset from the group's head.
    """
    order = np.argsort(vertex_tiles, kind="stable")
    grouped = vertex_tiles[order]
    position = np.arange(len(grouped))
    head = np.ones(len(grouped), dtype=bool)
    head[1:] = grouped[1:] != grouped[:-1]
    rank = position - np.maximum.accumulate(np.where(head, position, 0))
    slots = np.empty(len(vertex_tiles), dtype=np.int64)
    slots[order] = rank % threads
    return slots
