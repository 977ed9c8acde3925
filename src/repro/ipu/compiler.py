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
set is *uniform* — a single codelet, equal-length regions per field — the
plan exposes zero-copy ``(num_vertices, region)`` views (or a gather/scatter
fallback), which is what lets the engine run 1472 vertices as one numpy
call.
"""

from __future__ import annotations

import dataclasses
import logging
import operator
from typing import TYPE_CHECKING, Callable, Literal

import numpy as np

from repro.errors import CompilationError, TileMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.check.checker import CheckConfig
    from repro.check.report import CheckReport
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph, ComputeSet, Connection, Vertex, exchange_account
from repro.ipu.programs import Copy, Program
from repro.ipu.spec import IPUSpec
from repro.ipu.tensor import Tensor
from repro.obs.spans import child_span

__all__ = ["FieldPlan", "ExecutionPlan", "CompiledGraph", "compile_graph"]

logger = logging.getLogger(__name__)

_VERSION = operator.attrgetter("version")

#: Accepted values of ``compile_graph``'s / ``Engine``'s ``check`` argument.
CHECK_MODES = ("off", "warn", "strict")


@dataclasses.dataclass
class FieldPlan:
    """How the engine materializes one codelet field for a whole batch.

    ``contiguous`` fields alias tensor memory directly (regions are equal
    length and back-to-back in vertex order) — zero copy.  Non-contiguous
    uniform fields are gathered into a scratch array before compute and
    scattered back afterwards when written.
    """

    tensor: Tensor
    starts: np.ndarray  # (num_vertices,) region starts
    length: int
    direction: str
    contiguous: bool
    broadcast: bool = False
    _cached_view: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _cached_version: int = dataclasses.field(
        default=-1, repr=False, compare=False
    )

    @property
    def aliases_memory(self) -> bool:
        """True when :meth:`gather` returns a view (no copy, no scatter)."""
        return self.contiguous or self.broadcast

    def gather(self) -> np.ndarray:
        """Materialize the ``(num_vertices, length)`` batch view.

        Aliasing views (contiguous/broadcast) are built once and cached,
        keyed on :attr:`Tensor.version`: in-place writes keep the view
        valid, but rebinding the tensor's buffer to a new array bumps the
        version and forces a rebuild — a stale view would otherwise keep
        reading (and writing) the orphaned old buffer.
        """
        if (
            self._cached_view is not None
            and self._cached_version == self.tensor.version
        ):
            return self._cached_view
        view = self._build_view()
        if self.aliases_memory:
            self._cached_view = view
            self._cached_version = self.tensor.version
        return view

    def _build_view(self) -> np.ndarray:
        flat = self.tensor.flat()
        if self.broadcast:
            base = int(self.starts[0])
            return np.broadcast_to(
                flat[base : base + self.length], (len(self.starts), self.length)
            )
        if self.contiguous:
            base = int(self.starts[0])
            count = len(self.starts)
            return flat[base : base + count * self.length].reshape(
                count, self.length
            )
        rows = [flat[start : start + self.length] for start in self.starts]
        return np.stack(rows)

    def scatter(self, batch: np.ndarray) -> None:
        """Write a gathered batch back (no-op for aliasing views)."""
        if self.contiguous or self.broadcast or self.direction == "in":
            return
        flat = self.tensor.flat()
        for row, start in enumerate(self.starts):
            flat[start : start + self.length] = batch[row]


@dataclasses.dataclass
class ExecutionPlan:
    """Precomputed schedule for one compute set.

    ``batched`` plans run every vertex in a single :meth:`Codelet.compute_all`
    call; non-uniform compute sets fall back to a per-vertex loop.  Exchange
    bytes and the vertex->tile assignment are compile-time constants either
    way.
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
        self._view_tensors = tuple(
            field_plan.tensor for field_plan in self.field_plans.values()
        )
        self._needs_scatter = any(
            not field_plan.aliases_memory
            for field_plan in self.field_plans.values()
        )
        self._cached_batch: dict[str, np.ndarray] = {}
        self._cached_versions: tuple[int, ...] | None = None

    @property
    def batched(self) -> bool:
        return self.codelet is not None

    @property
    def aliases_memory(self) -> bool:
        """True when every field's batch view aliases tensor memory."""
        return not self._needs_scatter

    def batch_views(self) -> tuple[dict[str, np.ndarray], bool]:
        """Gather all field views; second element tells whether any field
        needs a scatter-back after compute (i.e. was copied, not aliased).

        When every field aliases tensor memory the whole dict is cached,
        keyed on the participating tensors' buffer versions — rebinding any
        tensor's buffer (:attr:`repro.ipu.tensor.Tensor.version`) drops the
        cache so repeated executions never read a stale view.  Steady-state
        runs (no rebinds) still cost no allocation.
        """
        versions = tuple(map(_VERSION, self._view_tensors))
        if versions == self._cached_versions:
            return self._cached_batch, False
        views = {
            field: field_plan.gather()
            for field, field_plan in self.field_plans.items()
        }
        if not self._needs_scatter:
            self._cached_batch = views
            self._cached_versions = versions
        return views, self._needs_scatter

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
    for compute_set in program.compute_sets():
        if graph.compute_sets and compute_set not in graph.compute_sets:
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
    if not compute_set.vertices:
        raise CompilationError(
            f"compute set {compute_set.name!r} has no vertices"
        )
    for vertex in compute_set.vertices:
        if vertex.tile >= spec.total_tiles:
            raise CompilationError(
                f"vertex of {vertex.codelet.name} in {compute_set.name!r} "
                f"placed on tile {vertex.tile}, system has {spec.total_tiles}"
            )
        for field, connection in vertex.connections.items():
            if connection.tensor.graph_id != graph.graph_id:
                raise CompilationError(
                    f"vertex field {field!r} in {compute_set.name!r} connects "
                    f"to tensor {connection.tensor.name!r} from another graph"
                )
            connection.tensor.require_mapping()


def _check_write_overlaps(compute_set: ComputeSet) -> tuple[Tensor, ...]:
    """Reject overlapping write regions; return the tensors written."""
    regions: dict[str, list[tuple[int, int]]] = {}
    written: list[Tensor] = []
    for vertex in compute_set.vertices:
        for field, connection in vertex.connections.items():
            if vertex.codelet.fields[field] == "in":
                continue
            spans = regions.get(connection.tensor.name)
            if spans is None:
                spans = regions[connection.tensor.name] = []
                written.append(connection.tensor)
            spans.append((connection.start, connection.stop))
    for tensor_name, spans in regions.items():
        spans.sort()
        for (_, prev_stop), (next_start, _) in zip(spans, spans[1:]):
            if next_start < prev_stop:
                raise CompilationError(
                    f"compute set {compute_set.name!r} has overlapping write "
                    f"regions on tensor {tensor_name!r} (data race, C1)"
                )
    return tuple(written)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def _build_plan(compute_set: ComputeSet, spec: IPUSpec) -> ExecutionPlan:
    plan = _build_plan_inner(compute_set, spec)
    if spec.num_ipus > 1:
        plan.ipus = tuple(
            sorted({int(tile) // spec.num_tiles for tile in plan.tile_ids})
        )
    return plan


def _build_plan_inner(compute_set: ComputeSet, spec: IPUSpec) -> ExecutionPlan:
    vertices = compute_set.vertices
    tiles_per_ipu = spec.num_tiles if spec.num_ipus > 1 else None
    account = exchange_account(vertices, tiles_per_ipu)
    vertex_tiles = np.array([vertex.tile for vertex in vertices], dtype=np.int64)

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
        )

    codelet_names = {vertex.codelet.name for vertex in vertices}
    if len(codelet_names) != 1:
        return plan(None, {}, {})
    codelet = vertices[0].codelet

    field_plans: dict[str, FieldPlan] = {}
    for field, direction in codelet.fields.items():
        field_plan = _plan_field(vertices, field, direction)
        if field_plan is None:
            return plan(None, {}, {})
        field_plans[field] = field_plan

    param_names: set[str] = set()
    for vertex in vertices:
        param_names.update(vertex.params)
    param_arrays = {
        name: np.array(
            [vertex.params.get(name, 0) for vertex in vertices], dtype=np.float64
        )
        for name in sorted(param_names)
    }
    return plan(codelet, field_plans, param_arrays)


def _plan_field(
    vertices: list[Vertex], field: str, direction: str
) -> FieldPlan | None:
    connections: list[Connection] = [v.connections[field] for v in vertices]
    tensors = {connection.tensor.name for connection in connections}
    if len(tensors) != 1:
        return None
    lengths = {connection.length for connection in connections}
    if len(lengths) != 1:
        return None
    length = lengths.pop()
    starts = np.array([connection.start for connection in connections], dtype=np.int64)
    contiguous = bool(
        np.all(starts == starts[0] + np.arange(len(starts)) * length)
    )
    broadcast = (
        direction == "in"
        and len(starts) > 1
        and bool(np.all(starts == starts[0]))
    )
    return FieldPlan(
        tensor=connections[0].tensor,
        starts=starts,
        length=length,
        direction=direction,
        contiguous=contiguous and not broadcast,
        broadcast=broadcast,
    )


def _assign_worker_slots(vertex_tiles: np.ndarray, threads: int) -> np.ndarray:
    """Deal same-tile vertices round-robin onto worker threads."""
    slots = np.zeros(len(vertex_tiles), dtype=np.int64)
    seen: dict[int, int] = {}
    for index, tile in enumerate(vertex_tiles):
        count = seen.get(int(tile), 0)
        slots[index] = count % threads
        seen[int(tile)] = count + 1
    return slots
