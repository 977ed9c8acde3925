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
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.codelets import Codelet
from repro.ipu.mapping import TileMapping
from repro.ipu.spec import IPUSpec
from repro.ipu.tensor import Tensor

__all__ = [
    "Connection",
    "Vertex",
    "VertexBlock",
    "ExchangeAccount",
    "exchange_account",
    "ComputeSet",
    "ComputeGraph",
]

_graph_ids = itertools.count()


class _Region(NamedTuple):
    tensor: Tensor
    start: int
    stop: int


class Connection(_Region):
    """A vertex field wired to flat elements ``[start, stop)`` of a tensor.

    A ``(tensor, start, stop)`` triple, so it is also a one-vertex (or
    shared) region in :meth:`ComputeSet.add_vertices`.
    """

    __slots__ = ()

    def __new__(cls, tensor: Tensor, start: int, stop: int) -> "Connection":
        if not 0 <= start < stop <= tensor.size:
            raise _region_error(tensor, start, stop)
        return super().__new__(cls, tensor, start, stop)

    @property
    def length(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        return self.length * self.tensor.dtype.itemsize


def _region_error(tensor: Tensor, start: int, stop: int) -> GraphConstructionError:
    return GraphConstructionError(
        f"connection [{start}, {stop}) out of bounds for "
        f"tensor {tensor.name!r} of size {tensor.size}"
    )


def _tile_error(tile: int) -> GraphConstructionError:
    return GraphConstructionError(f"negative tile id {tile}")


def _fields_error(
    codelet: Codelet, fields: Iterable[str]
) -> GraphConstructionError | None:
    expected = set(codelet.fields)
    got = set(fields)
    if expected == got:
        return None
    return GraphConstructionError(
        f"vertex of {codelet.name} connects fields {sorted(got)} "
        f"but the codelet declares {sorted(expected)}"
    )


#: One field's regions as columns: ``(tensor, starts, stops)``, each
#: ``(k,)`` ``int64`` array holding one region per vertex of a block.
FieldColumns = tuple[Tensor, np.ndarray, np.ndarray]


@dataclasses.dataclass(frozen=True)
class Vertex:
    """One codelet instance placed on ``tile``.

    ``connections`` maps each codelet field to a :class:`Connection`;
    ``params`` holds per-vertex compile-time scalars (segment bounds, row
    offsets...) that become parameter arrays in the batched compute call.
    Compute sets store vertices as columns (:class:`VertexBlock`); a
    ``Vertex`` is the one-vertex view of them.
    """

    codelet: Codelet
    tile: int
    connections: Mapping[str, Connection]
    params: Mapping[str, float | int] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tile < 0:
            raise _tile_error(self.tile)
        error = _fields_error(self.codelet, self.connections)
        if error is not None:
            raise error

    def exchange_bytes(self) -> int:
        """Bytes this vertex moves over the fabric in one execution.

        A connected region interval resident on the vertex's own tile is a
        local SRAM access; every other interval must be fetched (inputs) or
        written back (outputs) through the exchange.  This is the static
        quantity the Poplar compiler plans ahead of time.
        """
        return self.exchange_bytes_split(tiles_per_ipu=None)[0]

    def exchange_bytes_split(
        self, tiles_per_ipu: int | None
    ) -> tuple[int, int]:
        """Exchange bytes as ``(total, inter_ipu)``.

        ``inter_ipu`` counts the subset of bytes whose owning tile sits on
        a different chip than the vertex (chip = ``tile // tiles_per_ipu``);
        pass ``None`` for single-IPU accounting (inter is then 0).
        """
        compute_set = ComputeSet(self.codelet.name, cs_id=0)
        compute_set.add_vertex(self.codelet, self.tile, self.connections)
        account = compute_set.exchange(tiles_per_ipu)
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
    columns: Iterable[tuple[Tensor, np.ndarray, ...]], tiles_per_ipu: int | None
) -> ExchangeAccount:
    """Exchange bytes of connection ``columns`` in one pass per tensor.

    Each column is ``(tensor, starts, stops, tiles, order)``: aligned
    ``int64`` arrays of regions, the tile of the vertex reading each one,
    and each connection's rank in vertex-by-vertex, field-by-field order
    (which orders ``by_tensor``).  A connected interval resident on the
    vertex's own tile is local; every other overlapping interval crosses
    the fabric, and crosses an IPU-Link too when its chip
    (``tile // tiles_per_ipu``) differs from the vertex's.  Columns are
    grouped by tensor and each group is counted with one vectorized
    :meth:`TileMapping.foreign_elements` call, so a compute set costs
    O(connections + overlaps) numpy work.
    """
    grouped: dict[Tensor, list[tuple[np.ndarray, ...]]] = {}
    for tensor, *arrays in columns:
        grouped.setdefault(tensor, []).append(arrays)
    total = 0
    inter_ipu = 0
    first_moved: list[tuple[int, str, int]] = []
    for tensor, parts in grouped.items():
        starts, stops, tiles, order = (
            np.concatenate(column) for column in zip(*parts)
        )
        foreign, inter = tensor.require_mapping().foreign_elements(
            starts, stops, tiles, tiles_per_ipu
        )
        moved = int(foreign.sum()) * tensor.dtype.itemsize
        if not moved:
            continue
        total += moved
        inter_ipu += int(inter.sum()) * tensor.dtype.itemsize
        first_moved.append((int(order[foreign > 0].min()), tensor.name, moved))
    by_tensor: dict[str, int] = {}
    for _, name, moved in sorted(first_moved):
        by_tensor[name] = by_tensor.get(name, 0) + moved
    return ExchangeAccount(total, inter_ipu, by_tensor)


@dataclasses.dataclass(frozen=True)
class VertexBlock:
    """The vertices one :meth:`ComputeSet.add_vertices` call placed.

    Vertex ``i`` of the block runs ``codelet`` on ``tiles[i]``; field
    ``f`` reads ``connections[f] = (tensor, starts, stops)`` at
    ``[starts[i], stops[i])``, and param ``p`` is ``params[p]`` (a scalar
    every vertex shares) or ``params[p][i]``.  ``offset`` is the index of
    the block's first vertex in its compute set.
    """

    codelet: Codelet
    tiles: np.ndarray
    connections: dict[str, FieldColumns]
    params: dict[str, object]
    offset: int

    def vertices(self) -> Iterator[Vertex]:
        """The block as one :class:`Vertex` per column entry."""
        for index, tile in enumerate(self.tiles.tolist()):
            yield Vertex(
                self.codelet,
                tile,
                {
                    field: Connection(tensor, starts.item(index), stops.item(index))
                    for field, (tensor, starts, stops) in self.connections.items()
                },
                {
                    name: value if np.ndim(value) == 0 else value.item(index)
                    for name, value in self.params.items()
                },
            )


def _column(value, count: int, what: str) -> np.ndarray:
    """``value`` as a fresh ``(count,)`` array; a scalar is shared."""
    if np.ndim(value) == 0:
        return np.full(count, value, dtype=np.int64)
    column = np.array(value, dtype=np.int64)
    if column.shape != (count,):
        raise GraphConstructionError(
            f"{what} has shape {column.shape}, expected a scalar or ({count},)"
        )
    return column


def _param_column(value, count: int, name: str) -> np.ndarray:
    """A per-vertex param as a ``(count,)`` array of its own dtype."""
    column = np.array(value)
    if column.shape != (count,):
        raise GraphConstructionError(
            f"param {name!r} has shape {column.shape}, expected a scalar or "
            f"({count},)"
        )
    return column


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of ``mask``, or ``None``."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


class ComputeSet:
    """A group of vertices executing in one BSP superstep.

    Vertices are stored as columns, one :class:`VertexBlock` per
    :meth:`add_vertices` call, in call order; :attr:`vertices` is a
    per-vertex view built on first access.  Poplar guarantees no two
    vertices in a compute set race on a tensor; the compiler enforces a
    conservative version of that here (write regions must not overlap
    across vertices).
    """

    def __init__(self, name: str, cs_id: int) -> None:
        self.name = name
        self.cs_id = cs_id
        self.blocks: list[VertexBlock] = []
        self.num_vertices = 0
        self._vertices: tuple[Vertex, ...] | None = None
        self._tiles: np.ndarray | None = None

    def add_vertices(
        self,
        codelet: Codelet,
        tiles: Sequence[int] | np.ndarray,
        connections: Mapping[str, tuple[Tensor, object, object]],
        params: Mapping[str, object] | None = None,
    ) -> None:
        """Place ``len(tiles)`` instances of ``codelet``, one per tile entry.

        ``connections`` maps every codelet field to ``(tensor, starts,
        stops)``: ``(k,)`` arrays with one region per vertex, or scalars
        every vertex shares (a :class:`Connection` is such a triple).
        ``params`` maps names to a scalar or a ``(k,)`` array.  Raises
        :class:`GraphConstructionError` naming the first offending vertex
        (out-of-bounds region, negative tile, fields that differ from the
        codelet's).
        """
        tiles = np.array(tiles, dtype=np.int64).reshape(-1)
        count = len(tiles)
        columns: dict[str, FieldColumns] = {}
        errors: list[tuple[int, GraphConstructionError]] = []  # check order
        for field, (tensor, starts, stops) in connections.items():
            starts = _column(starts, count, f"field {field!r} starts")
            stops = _column(stops, count, f"field {field!r} stops")
            bad = _first((starts < 0) | (starts >= stops) | (stops > tensor.size))
            if bad is not None:
                errors.append(
                    (bad, _region_error(tensor, starts.item(bad), stops.item(bad)))
                )
            columns[field] = (tensor, starts, stops)
        bad = _first(tiles < 0)
        if bad is not None:
            errors.append((bad, _tile_error(tiles.item(bad))))
        mismatch = _fields_error(codelet, columns)
        if mismatch is not None:
            errors.append((0, mismatch))
        if errors:
            raise min(errors, key=lambda error: error[0])[1]
        if not count:
            return
        values = {
            name: value if np.ndim(value) == 0 else _param_column(value, count, name)
            for name, value in (params or {}).items()
        }
        self.blocks.append(
            VertexBlock(codelet, tiles, columns, values, self.num_vertices)
        )
        self.num_vertices += count
        self._vertices = self._tiles = None

    def add_vertex(
        self,
        codelet: Codelet,
        tile: int,
        connections: Mapping[str, Connection],
        params: Mapping[str, float | int] | None = None,
    ) -> None:
        """Place one codelet instance on ``tile`` and wire its fields."""
        self.add_vertices(codelet, (tile,), connections, params)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """Every vertex in placement order (built on first access)."""
        if self._vertices is None:
            self._vertices = tuple(
                vertex for block in self.blocks for vertex in block.vertices()
            )
        return self._vertices

    @property
    def tiles(self) -> np.ndarray:
        """Each vertex's tile, in placement order."""
        if self._tiles is None:
            self._tiles = np.concatenate(
                [block.tiles for block in self.blocks]
                or [np.empty(0, dtype=np.int64)]
            )
        return self._tiles

    def field_columns(self) -> Iterator[tuple[Tensor, np.ndarray, ...]]:
        """Every block's fields as :func:`exchange_account` columns."""
        width = max((len(block.connections) for block in self.blocks), default=0)
        for block in self.blocks:
            order = (block.offset + np.arange(len(block.tiles))) * width
            for slot, (tensor, starts, stops) in enumerate(
                block.connections.values()
            ):
                yield tensor, starts, stops, block.tiles, order + slot

    def exchange(self, tiles_per_ipu: int | None) -> ExchangeAccount:
        """Static exchange traffic of one execution of this compute set."""
        return exchange_account(self.field_columns(), tiles_per_ipu)

    @property
    def codelets(self) -> tuple[str, ...]:
        """Distinct codelet names present (ordered by first appearance)."""
        return tuple(dict.fromkeys(block.codelet.name for block in self.blocks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeSet({self.name!r}, vertices={self.num_vertices}, "
            f"codelets={self.codelets})"
        )


class ComputeGraph:
    """A static computation graph bound to one device spec.

    Typical construction::

        graph = ComputeGraph(IPUSpec.mk2())
        slack = graph.add_tensor("slack", (n, n), np.float32)
        slack.set_mapping(TileMapping.row_blocks((n, n), range(tiles)))
        mins = graph.add_tensor("mins", (n,), np.float32)
        mins.set_mapping(TileMapping.row_blocks((n, 1), range(tiles)))
        cs = graph.add_compute_set("row_min")
        rows = np.arange(tiles + 1) * (n // tiles)  # row-block bounds
        cs.add_vertices(
            RowMin(),
            range(tiles),
            {
                "block": (slack, rows[:-1] * n, rows[1:] * n),
                "mins": (mins, rows[:-1], rows[1:]),
            },
            params={"cols": n},
        )

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
