"""Control programs: the static execution structure of a graph.

Poplar composes compute sets into *programs* — sequences, repeats,
conditional branches — all declared at compile time (§III-A: "each
operation, including loop and branching ... must be defined at compile
time").  Data-dependent iteration is expressed with
:class:`RepeatWhileTrue`, whose condition is a one-element tensor written by
the body's own compute sets, so control never leaves the device.

The engine interprets the program tree; each :class:`Execute` is one BSP
superstep (compute + sync + exchange).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence as SequenceType

from repro.errors import GraphConstructionError
from repro.ipu.graph import ComputeSet
from repro.ipu.tensor import Tensor

__all__ = [
    "Program",
    "Execute",
    "Sequence",
    "Repeat",
    "RepeatWhileTrue",
    "If",
    "Copy",
    "Nop",
]


class Program:
    """Base class of all program nodes (marker; nodes are dataclasses)."""

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        """Every compute set reachable from this node (for compilation)."""
        raise NotImplementedError


def _require_scalar(tensor: Tensor, role: str) -> None:
    if tensor.size != 1:
        raise GraphConstructionError(
            f"{role} must be a one-element tensor, {tensor.name!r} has "
            f"{tensor.size} elements"
        )


@dataclasses.dataclass(frozen=True)
class Execute(Program):
    """Run one compute set as a BSP superstep."""

    compute_set: ComputeSet

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        return (self.compute_set,)


@dataclasses.dataclass(frozen=True)
class Sequence(Program):
    """Run child programs in order."""

    programs: tuple[Program, ...]

    def __init__(self, *programs: Program | SequenceType[Program]) -> None:
        flattened: list[Program] = []
        for item in programs:
            if isinstance(item, Program):
                flattened.append(item)
            else:
                flattened.extend(item)
        object.__setattr__(self, "programs", tuple(flattened))

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        found: list[ComputeSet] = []
        for program in self.programs:
            found.extend(program.compute_sets())
        return tuple(found)


@dataclasses.dataclass(frozen=True)
class Repeat(Program):
    """Run ``body`` a fixed number of times (compile-time trip count)."""

    count: int
    body: Program

    def __post_init__(self) -> None:
        if self.count < 0:
            raise GraphConstructionError(f"negative repeat count {self.count}")

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        return self.body.compute_sets()


@dataclasses.dataclass(frozen=True)
class RepeatWhileTrue(Program):
    """Run ``body`` while the scalar ``condition`` tensor is non-zero.

    The condition is sampled before each iteration, from device memory —
    the body is responsible for eventually writing zero.  ``max_iterations``
    is a simulation safety net, not a device feature: exceeding it raises
    :class:`repro.errors.ExecutionError` (a real device would simply hang).
    """

    condition: Tensor
    body: Program
    max_iterations: int = 10_000_000

    def __post_init__(self) -> None:
        _require_scalar(self.condition, "RepeatWhileTrue condition")
        if self.max_iterations < 1:
            raise GraphConstructionError("max_iterations must be positive")

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        return self.body.compute_sets()


@dataclasses.dataclass(frozen=True)
class If(Program):
    """Branch on a scalar tensor: non-zero runs ``then_body``."""

    condition: Tensor
    then_body: Program
    else_body: Program | None = None

    def __post_init__(self) -> None:
        _require_scalar(self.condition, "If condition")

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        found = list(self.then_body.compute_sets())
        if self.else_body is not None:
            found.extend(self.else_body.compute_sets())
        return tuple(found)


@dataclasses.dataclass(frozen=True)
class Copy(Program):
    """Whole-tensor copy; inter-tile bytes go through the exchange.

    Shapes may differ as long as element counts and dtypes match (Poplar's
    ``prog.Copy`` behaves the same way on flattened views).
    """

    source: Tensor
    destination: Tensor

    def __post_init__(self) -> None:
        if self.source.size != self.destination.size:
            raise GraphConstructionError(
                f"copy size mismatch: {self.source.name!r} has "
                f"{self.source.size} elements, {self.destination.name!r} has "
                f"{self.destination.size}"
            )
        if self.source.dtype != self.destination.dtype:
            raise GraphConstructionError(
                f"copy dtype mismatch: {self.source.dtype} vs "
                f"{self.destination.dtype}"
            )

    def exchange_bytes(self) -> int:
        """Bytes that cross tile boundaries (same-tile spans are local)."""
        total, _ = self.exchange_bytes_split(tiles_per_ipu=None)
        return total

    def exchange_bytes_split(self, tiles_per_ipu: int | None) -> tuple[int, int]:
        """Copy traffic as ``(total, inter_ipu)`` (see Vertex's variant)."""
        src_map = self.source.require_mapping()
        dst_map = self.destination.require_mapping()
        itemsize = self.source.dtype.itemsize
        # Each destination interval reads its span of the source from the
        # tile that owns it.
        foreign, inter = src_map.foreign_elements(
            dst_map.starts, dst_map.stops, dst_map.tiles, tiles_per_ipu
        )
        return int(foreign.sum()) * itemsize, int(inter.sum()) * itemsize

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        return ()


@dataclasses.dataclass(frozen=True)
class Nop(Program):
    """Do nothing (placeholder branch body)."""

    def compute_sets(self) -> tuple[ComputeSet, ...]:
        return ()
