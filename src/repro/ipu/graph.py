"""The static computation graph: tensors, vertices, compute sets.

Mirrors the Poplar abstraction the paper describes (§III-A): a graph of
tensors (explicitly tile-mapped) and vertices (codelet instances placed on
tiles, wired to tensor *regions*), grouped into **compute sets** that execute
as one BSP superstep each.  Everything — shapes, mappings, connections,
loop structure — is fixed when the graph is built; the engine only ever
interprets a compiled, static object (C4: no runtime graph surgery).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet
from repro.ipu.mapping import TileMapping
from repro.ipu.spec import IPUSpec
from repro.ipu.tensor import Tensor

__all__ = [
    "Connection",
    "Vertex",
    "ExchangeAccount",
    "exchange_account",
    "ComputeSet",
    "ComputeGraph",
]

_graph_ids = itertools.count()


@dataclasses.dataclass(frozen=True)
class Connection:
    """A vertex field wired to flat elements ``[start, stop)`` of a tensor."""

    tensor: Tensor
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop <= self.tensor.size:
            raise GraphConstructionError(
                f"connection [{self.start}, {self.stop}) out of bounds for "
                f"tensor {self.tensor.name!r} of size {self.tensor.size}"
            )

    @property
    def length(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        return self.length * self.tensor.dtype.itemsize


@dataclasses.dataclass(frozen=True)
class Vertex:
    """One codelet instance placed on ``tile``.

    ``connections`` maps each codelet field to a :class:`Connection`;
    ``params`` holds per-vertex compile-time scalars (segment bounds, row
    offsets...) that become parameter arrays in the batched compute call.
    """

    codelet: Codelet
    tile: int
    connections: Mapping[str, Connection]
    params: Mapping[str, float | int] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tile < 0:
            raise GraphConstructionError(f"negative tile id {self.tile}")
        expected = set(self.codelet.fields)
        got = set(self.connections)
        if expected != got:
            raise GraphConstructionError(
                f"vertex of {self.codelet.name} connects fields {sorted(got)} "
                f"but the codelet declares {sorted(expected)}"
            )

    def exchange_bytes(self) -> int:
        """Bytes this vertex moves over the fabric in one execution.

        A connected region interval resident on the vertex's own tile is a
        local SRAM access; every other interval must be fetched (inputs) or
        written back (outputs) through the exchange.  This is the static
        quantity the Poplar compiler plans ahead of time.
        """
        return exchange_account((self,), tiles_per_ipu=None).total

    def exchange_bytes_split(
        self, tiles_per_ipu: int | None
    ) -> tuple[int, int]:
        """Exchange bytes as ``(total, inter_ipu)``.

        ``inter_ipu`` counts the subset of bytes whose owning tile sits on
        a different chip than the vertex (chip = ``tile // tiles_per_ipu``);
        pass ``None`` for single-IPU accounting (inter is then 0).
        """
        account = exchange_account((self,), tiles_per_ipu)
        return account.total, account.inter_ipu


@dataclasses.dataclass(frozen=True)
class ExchangeAccount:
    """Static exchange traffic of a group of vertices.

    ``by_tensor`` attributes ``total`` to tensor names (values sum to
    ``total``); keys appear in the order of the first connection — vertex
    by vertex, field by field — that moves any byte of that tensor.
    """

    total: int
    inter_ipu: int
    by_tensor: dict[str, int]


def exchange_account(
    vertices: Iterable[Vertex], tiles_per_ipu: int | None
) -> ExchangeAccount:
    """Exchange bytes of ``vertices`` in one pass per connected tensor.

    A connected interval resident on the vertex's own tile is local; every
    other overlapping interval crosses the fabric, and crosses an IPU-Link
    too when its chip (``tile // tiles_per_ipu``) differs from the
    vertex's.  Connections are grouped by tensor and each group is counted
    with one vectorized :meth:`TileMapping.foreign_elements` call, so a
    compute set costs O(connections + overlaps) numpy work instead of a
    Python scan of every mapping interval per connection.
    """
    rows: dict[Tensor, list[tuple[int, int, int, int]]] = {}
    order = itertools.count()
    for vertex in vertices:
        for connection in vertex.connections.values():
            rows.setdefault(connection.tensor, []).append(
                (connection.start, connection.stop, vertex.tile, next(order))
            )
    total = 0
    inter_ipu = 0
    first_moved: list[tuple[int, str, int]] = []
    for tensor, tensor_rows in rows.items():
        starts, stops, tiles, positions = np.array(tensor_rows, dtype=np.int64).T
        foreign, inter = tensor.require_mapping().foreign_elements(
            starts, stops, tiles, tiles_per_ipu
        )
        moved = int(foreign.sum()) * tensor.dtype.itemsize
        if not moved:
            continue
        total += moved
        inter_ipu += int(inter.sum()) * tensor.dtype.itemsize
        first = int(positions[np.flatnonzero(foreign)[0]])
        first_moved.append((first, tensor.name, moved))
    by_tensor: dict[str, int] = {}
    for _, name, moved in sorted(first_moved):
        by_tensor[name] = by_tensor.get(name, 0) + moved
    return ExchangeAccount(total, inter_ipu, by_tensor)


class ComputeSet:
    """A group of vertices executing in one BSP superstep.

    Poplar guarantees no two vertices in a compute set race on a tensor; the
    compiler enforces a conservative version of that here (write regions
    must not overlap across vertices).
    """

    def __init__(self, name: str, cs_id: int) -> None:
        self.name = name
        self.cs_id = cs_id
        self.vertices: list[Vertex] = []

    def add_vertex(
        self,
        codelet: Codelet,
        tile: int,
        connections: Mapping[str, Connection],
        params: Mapping[str, float | int] | None = None,
    ) -> Vertex:
        """Place one codelet instance on ``tile`` and wire its fields."""
        vertex = Vertex(codelet, tile, dict(connections), dict(params or {}))
        self.vertices.append(vertex)
        return vertex

    @property
    def codelets(self) -> tuple[str, ...]:
        """Distinct codelet names present (ordered by first appearance)."""
        seen: dict[str, None] = {}
        for vertex in self.vertices:
            seen.setdefault(vertex.codelet.name, None)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeSet({self.name!r}, vertices={len(self.vertices)}, "
            f"codelets={self.codelets})"
        )


class ComputeGraph:
    """A static computation graph bound to one device spec.

    Typical construction::

        graph = ComputeGraph(IPUSpec.mk2())
        slack = graph.add_tensor("slack", (n, n), np.float32)
        slack.set_mapping(TileMapping.row_blocks((n, n), range(tiles)))
        cs = graph.add_compute_set("row_min")
        cs.add_vertex(RowMin(), tile, {...}, params={"cols": n})

    The graph is then compiled (:func:`repro.ipu.compiler.compile_graph`)
    and executed by :class:`repro.ipu.engine.Engine`.
    """

    def __init__(self, spec: IPUSpec) -> None:
        self.spec = spec
        self.graph_id = next(_graph_ids)
        self._tensors: dict[str, Tensor] = {}
        self._compute_sets: list[ComputeSet] = []

    # ------------------------------------------------------------------
    # Tensors
    # ------------------------------------------------------------------

    def add_tensor(
        self,
        name: str,
        shape: Sequence[int],
        dtype: np.dtype | type = np.float32,
        mapping: TileMapping | None = None,
    ) -> Tensor:
        """Create a named tensor; names are unique within the graph."""
        if name in self._tensors:
            raise GraphConstructionError(f"duplicate tensor name {name!r}")
        tensor = Tensor(name, tuple(int(dim) for dim in shape), np.dtype(dtype))
        tensor.graph_id = self.graph_id
        if mapping is not None:
            tensor.set_mapping(mapping)
        self._tensors[name] = tensor
        return tensor

    def add_scalar(
        self, name: str, dtype: np.dtype | type = np.int32, tile: int = 0
    ) -> Tensor:
        """A one-element tensor on ``tile`` (loop counters, flags, deltas)."""
        return self.add_tensor(
            name, (1,), dtype, mapping=TileMapping.single_tile(1, tile)
        )

    def tensor(self, name: str) -> Tensor:
        """Look up a tensor by name."""
        try:
            return self._tensors[name]
        except KeyError:
            raise GraphConstructionError(f"no tensor named {name!r}") from None

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return tuple(self._tensors.values())

    # ------------------------------------------------------------------
    # Compute sets
    # ------------------------------------------------------------------

    def add_compute_set(self, name: str) -> ComputeSet:
        """Create a compute set; executing it is one BSP superstep."""
        compute_set = ComputeSet(name, len(self._compute_sets))
        self._compute_sets.append(compute_set)
        return compute_set

    @property
    def compute_sets(self) -> tuple[ComputeSet, ...]:
        return tuple(self._compute_sets)

    # ------------------------------------------------------------------
    # Convenience wiring
    # ------------------------------------------------------------------

    @staticmethod
    def full(tensor: Tensor) -> Connection:
        """A connection spanning the whole tensor."""
        return Connection(tensor, 0, tensor.size)

    @staticmethod
    def span(tensor: Tensor, start: int, stop: int) -> Connection:
        """A connection to flat elements ``[start, stop)``."""
        return Connection(tensor, start, stop)

    @staticmethod
    def rows(tensor: Tensor, row_start: int, row_stop: int) -> Connection:
        """A connection to a contiguous row block of a 2-D tensor."""
        if tensor.ndim != 2:
            raise GraphConstructionError(
                f"rows() needs a 2-D tensor, {tensor.name!r} has shape "
                f"{tensor.shape}"
            )
        cols = tensor.shape[1]
        return Connection(tensor, row_start * cols, row_stop * cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeGraph(tensors={len(self._tensors)}, "
            f"compute_sets={len(self._compute_sets)}, spec_tiles={self.spec.num_tiles})"
        )
