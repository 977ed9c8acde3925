"""Static analysis of :class:`~repro.ipu.graph.ComputeGraph` against C1–C4.

The paper's design rests on four IPU constraints (§III); until now the
simulator honored them by convention only.  :func:`check_graph` proves them
per graph, before any superstep runs:

* **C1 — no atomics / no races.**  Within one compute set (one BSP
  superstep) vertices execute in unspecified order with no synchronization,
  so two vertices writing overlapping regions of a tensor
  (``C1.WRITE_WRITE``), or one reading a region another writes
  (``C1.READ_WRITE``), is a data race.  Detection is exact interval overlap
  over :class:`~repro.ipu.graph.Connection` spans, per tensor, with the
  owning tile of the overlap reported.  A vertex may freely read and write
  its *own* region (that is what ``inout`` fields are).
* **C2 — 624 KiB per-tile SRAM.**  Sums every tensor interval mapped to a
  tile plus a per-vertex state estimate (descriptor + one pointer per
  connection, the Poplar "always-live" overhead the plain tensor sum
  misses) and compares against the spec budget, optionally derated by a
  headroom fraction (``C2.TILE_MEMORY`` error / ``C2.HEADROOM`` warning).
* **C3 — BSP balance lint.**  A superstep costs as much as its slowest
  tile, so a compute set whose per-tile static work (connected elements) is
  badly skewed wastes the machine.  ``C3.IMBALANCE`` flags max/mean ratios
  above a threshold (default 2.0; HunIPU's own compute sets are all 1.0).
  On a multi-IPU device the same lint runs a second time at chip
  granularity: ``C3.IPU_IMBALANCE`` flags a cluster whose per-chip work
  totals are skewed even when every chip is internally balanced (the
  cluster waits on its busiest chip at each external sync).
* **C4 — dynamic-op misuse lint.**  Partition-and-distribute codelets
  (:attr:`~repro.ipu.codelets.Codelet.dynamic_access`) only make sense when
  each segment vertex *owns* its segment; a dynamic vertex whose
  ``local_fields`` region lives (partly) on another tile turns every
  runtime-indexed access into exchange traffic (``C4.NONLOCAL``).

Races and memory overflows are **errors**; balance and dynamic-op findings
are **warnings** (lints).  See :mod:`repro.check.report` for severities and
the report/JSON shapes, and docs/checking.md for the full rule reference.
"""

from __future__ import annotations

import bisect
import dataclasses

import numpy as np

from repro.check.report import CheckReport, Diagnostic
from repro.ipu.graph import ComputeGraph, ComputeSet
from repro.ipu.programs import Program

__all__ = ["CheckConfig", "check_graph"]

#: Spans per (compute set, tensor) pair above which race detection reports
#: only the first few overlaps verbatim — diagnostics must stay readable
#: even on adversarial graphs with thousands of colliding vertices.
_MAX_RACE_DIAGNOSTICS_PER_TENSOR = 8


@dataclasses.dataclass(frozen=True)
class CheckConfig:
    """Tunables of one checker pass.

    Attributes
    ----------
    memory_headroom:
        Fraction of the per-tile SRAM budget held in reserve.  Usage above
        ``budget * (1 - memory_headroom)`` but still under the hard budget
        is a ``C2.HEADROOM`` warning; above the hard budget is an error.
    vertex_state_bytes:
        Estimated always-live bytes per vertex (descriptor, worker state).
    connection_state_bytes:
        Estimated always-live bytes per vertex connection (region pointer).
    imbalance_threshold:
        ``C3.IMBALANCE`` fires when a compute set's max/mean per-tile
        static work exceeds this ratio (over the tiles it actually uses).
    """

    memory_headroom: float = 0.0
    vertex_state_bytes: int = 64
    connection_state_bytes: int = 16
    imbalance_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.memory_headroom < 1.0:
            raise ValueError(
                f"memory_headroom must be in [0, 1), got {self.memory_headroom}"
            )
        if self.vertex_state_bytes < 0 or self.connection_state_bytes < 0:
            raise ValueError("state byte estimates must be non-negative")
        if self.imbalance_threshold < 1.0:
            raise ValueError(
                f"imbalance_threshold must be >= 1.0, got "
                f"{self.imbalance_threshold}"
            )


def check_graph(
    graph: ComputeGraph,
    program: Program | None = None,
    config: CheckConfig | None = None,
) -> CheckReport:
    """Run every constraint pass over ``graph`` and collect diagnostics.

    With a ``program``, only compute sets reachable from it are analyzed
    (matching what :func:`repro.ipu.compiler.compile_graph` would execute);
    without one, every compute set in the graph is.  The pass never raises
    on findings — call :meth:`CheckReport.raise_if_failed` to enforce.
    """
    config = config if config is not None else CheckConfig()
    if program is not None:
        seen: dict[int, ComputeSet] = {}
        for compute_set in program.compute_sets():
            seen[compute_set.cs_id] = compute_set
        compute_sets: tuple[ComputeSet, ...] = tuple(seen.values())
    else:
        compute_sets = graph.compute_sets

    diagnostics: list[Diagnostic] = []
    for compute_set in compute_sets:
        diagnostics.extend(_check_races(compute_set))
        diagnostics.extend(_check_balance(compute_set, config, graph.spec))
        diagnostics.extend(_check_dynamic_ops(compute_set))
    diagnostics.extend(_check_memory(graph, compute_sets, config))
    return CheckReport(
        diagnostics=tuple(diagnostics),
        compute_sets_checked=len(compute_sets),
        tensors_checked=len(graph.tensors),
        vertices_checked=sum(len(cs.vertices) for cs in compute_sets),
    )


# ----------------------------------------------------------------------
# C1 — race detection
# ----------------------------------------------------------------------


def _owning_tile(connection, position: int) -> int | None:
    """Tile holding flat element ``position`` of the connection's tensor."""
    mapping = connection.tensor.mapping
    return None if mapping is None else mapping.tile_of(position)


def _check_races(compute_set: ComputeSet) -> list[Diagnostic]:
    """Write-write and read-write interval overlap across distinct vertices."""
    writes: dict[str, list[tuple[int, int, int]]] = {}
    reads: dict[str, list[tuple[int, int, int]]] = {}
    connections: dict[str, object] = {}
    for vertex_id, vertex in enumerate(compute_set.vertices):
        for field, connection in vertex.connections.items():
            direction = vertex.codelet.fields[field]
            span = (connection.start, connection.stop, vertex_id)
            connections.setdefault(connection.tensor.name, connection)
            if direction in ("out", "inout"):
                writes.setdefault(connection.tensor.name, []).append(span)
            if direction in ("in", "inout"):
                reads.setdefault(connection.tensor.name, []).append(span)

    diagnostics: list[Diagnostic] = []
    for tensor_name, write_spans in writes.items():
        connection = connections[tensor_name]
        emitted = 0
        write_spans.sort()
        # Write-write: after sorting by start, any overlap shows up between
        # a span and the furthest-reaching earlier span.
        reach_stop = write_spans[0][1]
        reach_vertex = write_spans[0][2]
        for start, stop, vertex_id in write_spans[1:]:
            if start < reach_stop and vertex_id != reach_vertex:
                overlap = (start, min(stop, reach_stop))
                if emitted < _MAX_RACE_DIAGNOSTICS_PER_TENSOR:
                    diagnostics.append(
                        Diagnostic(
                            code="C1.WRITE_WRITE",
                            severity="error",
                            message=(
                                f"vertices {reach_vertex} and {vertex_id} both "
                                f"write elements [{overlap[0]}, {overlap[1]}) "
                                f"of {tensor_name!r} in one superstep "
                                "(unordered writes, C1)"
                            ),
                            compute_set=compute_set.name,
                            tensor=tensor_name,
                            tile=_owning_tile(connection, overlap[0]),
                            interval=overlap,
                        )
                    )
                emitted += 1
            if stop > reach_stop:
                reach_stop, reach_vertex = stop, vertex_id

        # Read-write: bisect each read into the sorted writes.
        write_starts = [span[0] for span in write_spans]
        for read_start, read_stop, reader in reads.get(tensor_name, ()):
            index = bisect.bisect_right(write_starts, read_start) - 1
            index = max(index, 0)
            while index < len(write_spans) and write_spans[index][0] < read_stop:
                w_start, w_stop, writer = write_spans[index]
                index += 1
                if writer == reader or w_stop <= read_start:
                    continue
                overlap = (max(w_start, read_start), min(w_stop, read_stop))
                if emitted < _MAX_RACE_DIAGNOSTICS_PER_TENSOR:
                    diagnostics.append(
                        Diagnostic(
                            code="C1.READ_WRITE",
                            severity="error",
                            message=(
                                f"vertex {reader} reads elements "
                                f"[{overlap[0]}, {overlap[1]}) of "
                                f"{tensor_name!r} while vertex {writer} "
                                "writes them in the same superstep "
                                "(read-write race, C1)"
                            ),
                            compute_set=compute_set.name,
                            tensor=tensor_name,
                            tile=_owning_tile(connection, overlap[0]),
                            interval=overlap,
                        )
                    )
                emitted += 1
        if emitted > _MAX_RACE_DIAGNOSTICS_PER_TENSOR:
            diagnostics.append(
                Diagnostic(
                    code="C1.TRUNCATED",
                    severity="error",
                    message=(
                        f"{emitted - _MAX_RACE_DIAGNOSTICS_PER_TENSOR} further "
                        f"race(s) on {tensor_name!r} suppressed"
                    ),
                    compute_set=compute_set.name,
                    tensor=tensor_name,
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# C2 — per-tile memory
# ----------------------------------------------------------------------


def _check_memory(
    graph: ComputeGraph,
    compute_sets: tuple[ComputeSet, ...],
    config: CheckConfig,
) -> list[Diagnostic]:
    """Resident bytes per tile: mapped tensor intervals + vertex state."""
    diagnostics: list[Diagnostic] = []
    tensor_bytes: dict[int, int] = {}
    largest: dict[int, tuple[int, str]] = {}  # tile -> (bytes, tensor name)
    for tensor in graph.tensors:
        if tensor.mapping is None:
            diagnostics.append(
                Diagnostic(
                    code="C2.UNMAPPED",
                    severity="error",
                    message=(
                        f"tensor {tensor.name!r} has no tile mapping; its "
                        "residency cannot be accounted"
                    ),
                    tensor=tensor.name,
                )
            )
            continue
        for tile, nbytes in tensor.mapping.bytes_per_tile(
            tensor.dtype.itemsize
        ).items():
            tensor_bytes[tile] = tensor_bytes.get(tile, 0) + nbytes
            if nbytes > largest.get(tile, (0, ""))[0]:
                largest[tile] = (nbytes, tensor.name)

    # The graph is static: every vertex of every compute set is resident for
    # the whole program, so state overheads accumulate across compute sets.
    state_bytes: dict[int, int] = {}
    for compute_set in compute_sets:
        for vertex in compute_set.vertices:
            cost = config.vertex_state_bytes + config.connection_state_bytes * len(
                vertex.connections
            )
            state_bytes[vertex.tile] = state_bytes.get(vertex.tile, 0) + cost

    budget = graph.spec.tile_memory_bytes
    soft_budget = int(budget * (1.0 - config.memory_headroom))
    for tile in sorted(set(tensor_bytes) | set(state_bytes)):
        used = tensor_bytes.get(tile, 0) + state_bytes.get(tile, 0)
        if used <= soft_budget:
            continue
        heaviest = largest.get(tile, (0, None))[1]
        if used > budget:
            diagnostics.append(
                Diagnostic(
                    code="C2.TILE_MEMORY",
                    severity="error",
                    message=(
                        f"tile {tile} holds {used} resident bytes "
                        f"({tensor_bytes.get(tile, 0)} tensor + "
                        f"{state_bytes.get(tile, 0)} vertex state), over the "
                        f"{budget}-byte SRAM budget (C2)"
                        + (
                            f"; largest tensor: {heaviest!r}"
                            if heaviest
                            else ""
                        )
                    ),
                    tensor=heaviest,
                    tile=tile,
                )
            )
        else:
            diagnostics.append(
                Diagnostic(
                    code="C2.HEADROOM",
                    severity="warning",
                    message=(
                        f"tile {tile} holds {used} resident bytes, within "
                        f"the {budget}-byte budget but past the "
                        f"{config.memory_headroom:.0%} headroom mark "
                        f"({soft_budget} bytes)"
                    ),
                    tensor=heaviest,
                    tile=tile,
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# C3 — load-balance lint
# ----------------------------------------------------------------------


def _check_balance(
    compute_set: ComputeSet, config: CheckConfig, spec=None
) -> list[Diagnostic]:
    """Static per-tile work skew (connected elements as the cost proxy).

    With a multi-IPU ``spec`` the same statistic is additionally computed
    at chip granularity: a compute set can be perfectly level inside each
    chip yet leave one chip with far more total work, and the external
    sync barrier makes the whole cluster wait on it (``C3.IPU_IMBALANCE``).
    """
    per_tile: dict[int, int] = {}
    for vertex in compute_set.vertices:
        work = sum(conn.length for conn in vertex.connections.values())
        per_tile[vertex.tile] = per_tile.get(vertex.tile, 0) + work
    diagnostics: list[Diagnostic] = []
    if len(per_tile) >= 2:
        peak = max(per_tile.values())
        mean = sum(per_tile.values()) / len(per_tile)
        if mean > 0 and peak / mean > config.imbalance_threshold:
            busiest = max(per_tile, key=per_tile.get)
            diagnostics.append(
                Diagnostic(
                    code="C3.IMBALANCE",
                    severity="warning",
                    message=(
                        f"static work is skewed {peak / mean:.2f}x over "
                        f"{len(per_tile)} tiles (threshold "
                        f"{config.imbalance_threshold:.2f}); the superstep "
                        f"waits on tile {busiest} with {peak} connected "
                        "elements (C3)"
                    ),
                    compute_set=compute_set.name,
                    tile=busiest,
                )
            )
    if spec is not None and spec.num_ipus > 1:
        per_chip: dict[int, int] = {}
        for tile, work in per_tile.items():
            chip = tile // spec.num_tiles
            per_chip[chip] = per_chip.get(chip, 0) + work
        if len(per_chip) >= 2:
            peak = max(per_chip.values())
            mean = sum(per_chip.values()) / len(per_chip)
            if mean > 0 and peak / mean > config.imbalance_threshold:
                busiest = max(per_chip, key=per_chip.get)
                diagnostics.append(
                    Diagnostic(
                        code="C3.IPU_IMBALANCE",
                        severity="warning",
                        message=(
                            f"static work is skewed {peak / mean:.2f}x over "
                            f"{len(per_chip)} IPUs (threshold "
                            f"{config.imbalance_threshold:.2f}); the cluster "
                            f"waits on IPU {busiest} with {peak} connected "
                            "elements at every external sync (C3)"
                        ),
                        compute_set=compute_set.name,
                        tile=busiest * spec.num_tiles,
                    )
                )
    return diagnostics


# ----------------------------------------------------------------------
# C4 — dynamic-op misuse lint
# ----------------------------------------------------------------------


def _check_dynamic_ops(compute_set: ComputeSet) -> list[Diagnostic]:
    """Partition-and-distribute vertices must own their declared segments."""
    diagnostics: list[Diagnostic] = []
    for vertex_id, vertex in enumerate(compute_set.vertices):
        codelet = vertex.codelet
        if not getattr(codelet, "dynamic_access", False):
            continue
        for field in getattr(codelet, "local_fields", ()):
            connection = vertex.connections.get(field)
            if connection is None:
                continue
            mapping = connection.tensor.mapping
            if mapping is None:
                continue
            first = int(np.searchsorted(mapping.stops, connection.start, "right"))
            last = int(np.searchsorted(mapping.starts, connection.stop, "left"))
            remote = np.flatnonzero(mapping.tiles[first:last] != vertex.tile)
            if remote.size:
                lo = np.maximum(mapping.starts[first + remote], connection.start)
                hi = np.minimum(mapping.stops[first + remote], connection.stop)
                foreign = int((hi - lo).sum())
                first_foreign = (int(lo[0]), int(hi[0]))
                diagnostics.append(
                    Diagnostic(
                        code="C4.NONLOCAL",
                        severity="warning",
                        message=(
                            f"dynamic-op vertex {vertex_id} "
                            f"({codelet.name}) on tile {vertex.tile} "
                            f"declares field {field!r} as its local segment "
                            f"but {foreign} element(s) live on other tiles; "
                            "every runtime-indexed access becomes exchange "
                            "traffic (C4)"
                        ),
                        compute_set=compute_set.name,
                        tensor=connection.tensor.name,
                        tile=vertex.tile,
                        interval=first_foreign,
                    )
                )
    return diagnostics
