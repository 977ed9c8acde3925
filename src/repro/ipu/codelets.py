"""Codelets: the per-tile compute kernels of the simulated IPU.

On a real IPU a *codelet* is a C++ class compiled to tile code; a *vertex* is
one instance of a codelet wired to tensor regions and placed on a tile
(§III-A).  Here a codelet is a Python class with

* a **field signature** — named connections, each ``"in"``, ``"out"`` or
  ``"inout"``;
* a **batched compute rule** :meth:`Codelet.compute_all`, which receives one
  2-D view per field (``(num_vertices, region_length)``, vertex *v*'s region
  in row *v*) plus per-vertex parameter arrays, performs the computation in
  place, and returns the modeled **cycle count per vertex**.

The batched rule lets the engine run a whole compute set (one vertex per
tile, often 1472 of them) as a handful of numpy operations while charging
each tile its own cycle count — which is what makes simulating n=512
matrices tractable in pure Python without giving up per-tile cost fidelity
(BSP challenge C3: a superstep costs as much as its slowest tile).

Cycle formulas use :class:`CostContext`, which carries the spec-derived
constants; the headline modeling choices follow the paper:

* a worker retrieves **two float32 values per load issue** (§IV-C, §IV-H);
* tile work divides across the ``threads_per_tile`` workers only when the
  codelet is written to segment its data (the six-segment row split of
  §IV-B); serial codelets charge a single worker;
* dynamic (runtime-indexed) accesses cost extra cycles per element (C4).
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Callable, Mapping

import numpy as np

from repro.errors import GraphConstructionError

__all__ = ["CostContext", "Codelet", "FIELD_DIRECTIONS"]

FIELD_DIRECTIONS = ("in", "out", "inout")


@dataclasses.dataclass(frozen=True)
class CostContext:
    """Constants shared by every codelet cost formula.

    Attributes
    ----------
    threads_per_tile:
        Hardware workers available to a segmented codelet.
    cycles_per_load2:
        Cycles to load a 64-bit word (two float32 / two int32) from SRAM,
        throughput-amortized.
    cycles_per_alu_op:
        Cycles per scalar ALU operation (compare, add, select).
    cycles_per_dynamic_access:
        Extra cycles per runtime-indexed element access (C4).
    vertex_overhead_cycles:
        Fixed cost of starting one vertex (worker dispatch).
    """

    threads_per_tile: int = 6
    cycles_per_load2: float = 1.0
    cycles_per_alu_op: float = 1.0
    cycles_per_dynamic_access: float = 3.0
    vertex_overhead_cycles: float = 20.0

    def segmented(self, work_cycles: np.ndarray | float) -> np.ndarray | float:
        """Divide ``work_cycles`` across the tile's workers (six-segment
        schemes, §IV-B); always at least one cycle of residue per vertex."""
        return np.ceil(np.asarray(work_cycles, dtype=np.float64) / self.threads_per_tile)

    def scan_cycles(self, elements: np.ndarray | float) -> np.ndarray | float:
        """Cycles for a linear scan: paired loads plus one compare each."""
        elements = np.asarray(elements, dtype=np.float64)
        return elements / 2.0 * self.cycles_per_load2 + elements * self.cycles_per_alu_op

    def sort_cycles(self, length: float) -> float:
        """Cycles for an in-tile sort of ``length`` keys (comparison sort)."""
        if length <= 1:
            return float(self.cycles_per_alu_op)
        return 2.0 * length * math.log2(length) * self.cycles_per_alu_op


class Codelet(abc.ABC):
    """Base class for compute kernels.

    Subclasses define :attr:`fields` (mapping field name to direction) and
    implement :meth:`compute_all`.  Codelets are stateless; all run-time
    information arrives through views and parameter arrays, so one codelet
    instance can serve every vertex in a graph.
    """

    #: Field name -> "in" | "out" | "inout".
    fields: Mapping[str, str] = {}

    #: True for partition-and-distribute kernels that perform runtime-indexed
    #: accesses (§IV-G / challenge C4); the static checker
    #: (:mod:`repro.check`) lints their placement.
    dynamic_access: bool = False

    #: Fields a ``dynamic_access`` codelet requires to be resident on the
    #: vertex's own tile (the "segment" side of partition-and-distribute);
    #: a non-local region there turns every dynamic access into exchange
    #: traffic, which is exactly what C4 forbids.
    local_fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        if not self.fields:
            raise GraphConstructionError(
                f"codelet {type(self).__name__} declares no fields"
            )
        for name, direction in self.fields.items():
            if direction not in FIELD_DIRECTIONS:
                raise GraphConstructionError(
                    f"codelet {type(self).__name__} field {name!r} has "
                    f"invalid direction {direction!r}"
                )

    @property
    def name(self) -> str:
        """Codelet name used in profiler reports."""
        return type(self).__name__

    def bind(
        self, params: Mapping[str, np.ndarray], cost: CostContext
    ) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
        """:meth:`compute_all` with ``params`` and ``cost`` fixed.

        Both are compile-time constants, so the engine binds each compute
        set once, when it builds its schedule, and calls the result with
        the views on every superstep.  A codelet whose compute rule derives
        values from its params overrides this to derive them once, and
        implements :meth:`compute_all` as ``self.bind(params, cost)(views)``
        so both entry points run the same code.
        """
        return lambda views: self.compute_all(views, params, cost)

    @abc.abstractmethod
    def compute_all(
        self,
        views: Mapping[str, np.ndarray],
        params: Mapping[str, np.ndarray],
        cost: CostContext,
    ) -> np.ndarray:
        """Run every vertex of a compute set at once.

        Parameters
        ----------
        views:
            For each field, a ``(num_vertices, region_length)`` array whose
            row *v* aliases (or will be scattered back to) vertex *v*'s
            connected region.  ``out``/``inout`` rows must be written in
            place.
        params:
            For each vertex parameter, a ``(num_vertices,)`` array.
        cost:
            Cost constants.

        Returns
        -------
        numpy.ndarray
            ``(num_vertices,)`` float array of modeled cycles per vertex.
        """

    # Convenience used by several subclasses --------------------------------

    @staticmethod
    def num_vertices(views: Mapping[str, np.ndarray]) -> int:
        """Vertex count of the batch (rows of any field view)."""
        first = next(iter(views.values()))
        return int(first.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<codelet {self.name}>"
