"""Batched multi-instance solving (see docs/batching.md).

:class:`BatchSolver` solves a stream of LAP instances through the wrapped
solver's ``solve``, grouped by compiled shape, with stragglers padded onto
shared binaries when profitable (:func:`solve_at_size` is the single
pad → solve → restrict step), and flushes metrics once per batch.
:func:`load_batch_file` reads instance batches from ``.npy`` / ``.npz`` /
``.json`` files for ``repro solve --batch``.
"""

from repro.batch.io import load_batch_file
from repro.batch.solver import (
    BatchResult,
    BatchSolver,
    GroupReport,
    choose_target,
    pad_instance_costs,
    solve_at_size,
)

__all__ = [
    "BatchResult",
    "BatchSolver",
    "GroupReport",
    "choose_target",
    "load_batch_file",
    "pad_instance_costs",
    "solve_at_size",
]
