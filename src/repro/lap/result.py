"""Result type shared by every LSAP solver in the library.

All solvers — HunIPU on the simulated IPU, the CPU baselines, and FastHA on
the SIMT simulator — return an :class:`AssignmentResult`, so benchmark code
can treat them uniformly.  The result carries both the wall-clock time of the
(simulated) run and, for the hardware-simulating solvers, the *modeled device
time*, which is the paper-comparable number.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np

from repro.errors import SolverError

__all__ = ["AssignmentResult"]


@dataclasses.dataclass(frozen=True)
class AssignmentResult:
    """An assignment produced by a solver, with provenance.

    Attributes
    ----------
    assignment:
        ``(n,)`` int array; ``assignment[i]`` is the column (task) assigned
        to row (agent) ``i``.  Always a permutation of ``0..n-1``.
    total_cost:
        Sum of the cost matrix entries along the assignment.
    solver:
        Name of the producing solver (``"hunipu"``, ``"cpu-munkres"``, ...).
    device_time_s:
        Modeled time on the simulated device, in seconds.  ``None`` for
        solvers without a device model (e.g. the scipy oracle).
    wall_time_s:
        Host wall-clock seconds spent producing the result.
    iterations:
        Number of outer algorithm iterations (augmentations + slack
        updates), when the solver tracks it.
    stats:
        Free-form solver statistics (profiler output, kernel counts, ...).
    """

    assignment: np.ndarray
    total_cost: float
    solver: str
    device_time_s: float | None = None
    wall_time_s: float = 0.0
    iterations: int = 0
    stats: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64).copy()
        if assignment.ndim != 1:
            raise SolverError(
                f"assignment must be 1-D, got shape {assignment.shape}"
            )
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "total_cost", float(self.total_cost))

    @property
    def size(self) -> int:
        """Number of assigned agents."""
        return int(self.assignment.shape[0])

    @property
    def row_for_column(self) -> np.ndarray:
        """Inverse view: ``row_for_column[j]`` is the row assigned column j."""
        inverse = np.empty(self.size, dtype=np.int64)
        inverse[self.assignment] = np.arange(self.size)
        return inverse

    def matching_matrix(self) -> np.ndarray:
        """The binary matching matrix ``M`` of §II (``M[i, j] == 1`` iff
        row ``i`` is matched to column ``j``)."""
        matrix = np.zeros((self.size, self.size), dtype=np.int8)
        matrix[np.arange(self.size), self.assignment] = 1
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        device = (
            f", device_time_s={self.device_time_s:.6f}"
            if self.device_time_s is not None
            else ""
        )
        return (
            f"AssignmentResult(solver={self.solver!r}, size={self.size}, "
            f"total_cost={self.total_cost:.6g}{device})"
        )
