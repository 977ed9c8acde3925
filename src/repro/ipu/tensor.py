"""Tensors of the static computation graph.

A :class:`Tensor` is a named, typed, statically-shaped array variable with an
explicit :class:`~repro.ipu.mapping.TileMapping` (§III-A).  Its element
buffer is owned by the tensor and fixed for its lifetime, as tile SRAM is
placed once at compile time; vertices connect to *regions* (flat-index
intervals) of tensors, and the engine materializes those regions as numpy
views once, so compute happens in place, just as tile SRAM is updated in
place on the real device.

Shapes and dtypes are fixed at graph-construction time; the compiler rejects
unmapped tensors.  Supported dtypes mirror what the paper's kernels need:
``float32`` for slack values (with the 2-float-per-load accounting),
``int32`` for indices/status flags, and ``int8`` for boolean covers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import GraphConstructionError
from repro.ipu.mapping import TileMapping

__all__ = ["Tensor", "SUPPORTED_DTYPES"]

SUPPORTED_DTYPES = (np.float32, np.float64, np.int32, np.int64, np.int8)


@dataclasses.dataclass(eq=False)
class Tensor:
    """One graph variable.

    Instances are created through :meth:`repro.ipu.graph.ComputeGraph.add_tensor`
    rather than directly, so names are unique per graph and mappings are
    validated against the device spec at compile time.  The element
    buffer (:attr:`data`) is allocated once and never rebound: every write
    lands in place, so views the engine binds stay valid for the tensor's
    lifetime.
    """

    name: str
    shape: tuple[int, ...]
    dtype: np.dtype
    mapping: TileMapping | None = None
    graph_id: int = -1
    #: Content write counter: the engine bumps it after every superstep or
    #: :class:`~repro.ipu.programs.Copy` that writes the tensor, and at the
    #: start of every run (host writes happen between runs).  A bound
    #: kernel may keep host-side data derived from the tensor's contents
    #: for as long as this value is unchanged.
    writes: int = dataclasses.field(default=0, init=False, repr=False)

    @property
    def data(self) -> np.ndarray:
        """The element buffer (read-only attribute; write its contents)."""
        return self._data

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphConstructionError("tensors must be named")
        if not self.shape or any(dim <= 0 for dim in self.shape):
            raise GraphConstructionError(
                f"tensor {self.name!r} has invalid shape {self.shape}"
            )
        dtype = np.dtype(self.dtype)
        if dtype.type not in SUPPORTED_DTYPES:
            raise GraphConstructionError(
                f"tensor {self.name!r} has unsupported dtype {dtype}"
            )
        self.dtype = dtype
        self._data = np.zeros(self.shape, dtype=dtype)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total element count."""
        return int(math.prod(self.shape))

    @property
    def nbytes(self) -> int:
        """Total byte footprint."""
        return self.size * self.dtype.itemsize

    @property
    def ndim(self) -> int:
        return len(self.shape)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def set_mapping(self, mapping: TileMapping) -> "Tensor":
        """Attach a tile mapping; its cover must match the tensor size."""
        if mapping.size != self.size:
            raise GraphConstructionError(
                f"mapping covers {mapping.size} elements but tensor "
                f"{self.name!r} has {self.size}"
            )
        self.mapping = mapping
        return self

    def require_mapping(self) -> TileMapping:
        """The mapping, or a construction error if missing."""
        if self.mapping is None:
            raise GraphConstructionError(
                f"tensor {self.name!r} has no tile mapping"
            )
        return self.mapping

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def flat(self) -> np.ndarray:
        """The flattened element buffer (a writable view)."""
        return self.data.reshape(-1)

    def region(self, start: int, stop: int) -> np.ndarray:
        """Writable view of flat elements ``[start, stop)``."""
        if not 0 <= start < stop <= self.size:
            raise GraphConstructionError(
                f"region [{start}, {stop}) out of bounds for tensor "
                f"{self.name!r} of size {self.size}"
            )
        return self.flat()[start:stop]

    def write_host(self, values: np.ndarray | float | int) -> None:
        """Host-side write of the whole tensor (outside the device clock)."""
        array = np.asarray(values, dtype=self.dtype)
        if array.shape not in ((), self.shape):
            array = array.reshape(self.shape)
        self.data[...] = array

    def read_host(self) -> np.ndarray:
        """Host-side copy of the tensor contents."""
        return self.data.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mapped = "mapped" if self.mapping is not None else "unmapped"
        return (
            f"Tensor({self.name!r}, shape={self.shape}, dtype={self.dtype}, "
            f"{mapped})"
        )
