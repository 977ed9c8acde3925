"""End-to-end graph alignment: GRAMPA similarity → Hungarian matching.

This is the paper's use case (§V-C): compute pairwise node similarities
with GRAMPA, then let a Hungarian solver pick the 1-to-1 correspondence of
maximum total similarity.  Any LSAP solver with the library's ``solve``
facade plugs in, so Table III's HunIPU-vs-FastHA comparison is one function
called twice.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Protocol, Sequence

import networkx as nx
import numpy as np

from repro.alignment.evaluation import node_correctness
from repro.alignment.grampa import DEFAULT_ETA, grampa_similarity
from repro.alignment.noise import NoisyCopy
from repro.errors import InvalidProblemError
from repro.lap.problem import LAPInstance
from repro.lap.result import AssignmentResult

__all__ = [
    "LSAPSolver",
    "AlignmentResult",
    "align",
    "align_many",
    "align_noisy_copy",
]


class LSAPSolver(Protocol):
    """Anything with a ``solve(LAPInstance) -> AssignmentResult`` method."""

    name: str

    def solve(self, instance: LAPInstance) -> AssignmentResult:  # pragma: no cover
        ...


@dataclasses.dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one graph-alignment run."""

    mapping: np.ndarray  # mapping[i] = matched node of the second graph
    solver: str
    lap_result: AssignmentResult
    similarity_size: int
    padded_size: int  # size actually solved (≠ similarity_size for FastHA)

    @property
    def device_time_s(self) -> float | None:
        """Modeled Hungarian device time (what Table III reports)."""
        return self.lap_result.device_time_s


def _similarity_instance(
    first: nx.Graph,
    second: nx.Graph,
    *,
    eta: float,
    pad_power_of_two: bool,
    name: str,
) -> tuple[LAPInstance, int]:
    """Build the LAP instance for one graph pair; returns (instance, n)."""
    n = first.number_of_nodes()
    if second.number_of_nodes() != n:
        raise InvalidProblemError(
            "alignment requires equal node counts, got "
            f"{n} and {second.number_of_nodes()}"
        )
    similarity = grampa_similarity(first, second, eta=eta)
    if pad_power_of_two:
        # §V-C: "we pad the similarity matrix by filling it with 0-rows and
        # -columns to the nearest 2^m size".  Padding happens on the
        # *similarity* (zero = worst possible match), so after the
        # max-minus-similarity transform the padding never attracts
        # original nodes.
        target = 1 << max(0, (similarity.shape[0] - 1)).bit_length()
        padded = np.zeros((target, target), dtype=similarity.dtype)
        padded[: similarity.shape[0], : similarity.shape[1]] = similarity
        similarity = padded
    return LAPInstance.from_similarity(similarity, name=name), n


def _alignment_result(
    solver: LSAPSolver, n: int, instance_size: int, result: AssignmentResult
) -> AlignmentResult:
    return AlignmentResult(
        mapping=result.assignment[:n],
        solver=solver.name,
        lap_result=result,
        similarity_size=n,
        padded_size=instance_size,
    )


def align(
    first: nx.Graph,
    second: nx.Graph,
    solver: LSAPSolver,
    *,
    eta: float = DEFAULT_ETA,
    pad_power_of_two: bool = False,
) -> AlignmentResult:
    """Align two equal-sized graphs with GRAMPA + the given LSAP solver.

    ``pad_power_of_two`` applies the paper's zero-row/column padding before
    solving (required for FastHA, §V-C); the returned mapping is always for
    the original n nodes.
    """
    return align_many([(first, second)], solver, eta=eta,
                      pad_power_of_two=pad_power_of_two)[0]


def align_many(
    pairs: Iterable[tuple[nx.Graph, nx.Graph]],
    solver: LSAPSolver,
    *,
    eta: float = DEFAULT_ETA,
    pad_power_of_two: bool = False,
) -> list[AlignmentResult]:
    """Align a stream of graph pairs through the batched solving path.

    This is the paper's repeated-alignment workload (§I): every pair's
    similarity instance is built up front, then all instances go through
    :class:`repro.batch.BatchSolver` so same-sized pairs share one compiled
    graph.  Batch-level padding is disabled here —
    the alignment-specific power-of-two padding (``pad_power_of_two``) is
    already applied on the similarity side where its semantics (zero
    similarity = worst match) are well-defined, and ``padded_size`` in the
    results must reflect exactly that.
    """
    from repro.batch import BatchSolver

    prepared: list[tuple[LAPInstance, int]] = [
        _similarity_instance(
            first,
            second,
            eta=eta,
            pad_power_of_two=pad_power_of_two,
            name=f"alignment[{index}]",
        )
        for index, (first, second) in enumerate(pairs)
    ]
    batch = BatchSolver(solver, pad_to_cached=False)
    solved: Sequence[AssignmentResult] = batch.solve_batch(
        instance for instance, _ in prepared
    ).results
    return [
        _alignment_result(solver, n, instance.size, result)
        for (instance, n), result in zip(prepared, solved)
    ]


def align_noisy_copy(
    original: nx.Graph,
    noisy: NoisyCopy,
    solver: LSAPSolver,
    *,
    eta: float = DEFAULT_ETA,
    pad_power_of_two: bool = False,
) -> tuple[AlignmentResult, float]:
    """Align a graph with its noisy copy; also score node correctness."""
    result = align(
        original, noisy.copy, solver, eta=eta, pad_power_of_two=pad_power_of_two
    )
    accuracy = node_correctness(result.mapping, noisy.truth)
    return result, accuracy
