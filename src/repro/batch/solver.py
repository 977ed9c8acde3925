"""The batched multi-instance solving engine.

The paper's motivating workloads "run the Hungarian algorithm hundreds of
times" per task (§I, §V-D); on a real IPU the Poplar binary is compiled once
per shape and re-executed with fresh data, so a stream should compile as few
shapes as it can.  :class:`BatchSolver` accepts a stream of
:class:`~repro.lap.problem.LAPInstance`\\ s and

* **groups** them by solved shape, so each shape compiles at most once;
* **pads stragglers** up to a nearby already-compiled (or majority) size
  when profitable, so odd sizes ride existing binaries instead of
  compiling their own — see :func:`pad_instance_costs` for why the padded
  optimum restricts exactly to the original instance,

and then solves every member through the wrapped solver's own ``solve``
(:func:`solve_at_size`).  There is one execution path for every solver
facade: the batch adds the grouping and padding policy, nothing else.

Results are returned in input order and are bit-identical to one-by-one
``solve`` calls for instances that are not padded; padded instances return
the restriction of the padded optimum, which is the exact optimum of the
original instance.
"""

from __future__ import annotations

import dataclasses
import logging
from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.solver import HunIPUSolver
from repro.errors import SolverError
from repro.lap.problem import LAPInstance
from repro.lap.rectangular import padding_value
from repro.lap.result import AssignmentResult
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.spans import child_span
from repro.obs.timing import wall_timer

__all__ = [
    "BatchSolver",
    "BatchResult",
    "GroupReport",
    "choose_target",
    "pad_instance_costs",
    "solve_at_size",
]

logger = logging.getLogger(__name__)


def choose_target(
    size: int,
    *,
    cached: frozenset[int] | set[int],
    counts: Mapping[int, int] | None = None,
    pad_limit: float = 1.25,
) -> int:
    """The solved size an instance of ``size`` should ride.

    Shared padding policy of the batch engine and the serving layer's warm
    engine pool: pad up to the smallest target ``t`` with ``size < t <=
    size * pad_limit`` that either already has a compiled graph (``cached``)
    or occurs more often in the current stream (``counts``) than ``size``
    does — both cases where reusing an existing/shared binary beats
    compiling a new one.  Sizes that are themselves cached never pad.
    """
    if size in cached:
        return size
    counts = counts if counts is not None else {}
    # The float product can round *below* the exact rational limit (e.g.
    # 20 * 1.15 == 22.999999999999996), silently rejecting a candidate that
    # sits exactly at ``size * pad_limit``.  Nudge the threshold up by a
    # relative epsilon so the boundary candidate stays admissible without
    # ever letting a genuinely-above-limit integer through (the next
    # integer is >= limit + 1, far beyond the nudge).
    limit = size * pad_limit * (1.0 + 1e-12) + 1e-9
    candidates = sorted(cached | set(counts))
    own_count = counts.get(size, 0)
    for candidate in candidates:
        if candidate <= size or candidate > limit:
            continue
        if candidate in cached or counts.get(candidate, 0) > own_count:
            return candidate
    return size


def pad_instance_costs(costs: np.ndarray, target: int) -> np.ndarray:
    """Embed an ``(s, s)`` cost matrix into ``(target, target)``.

    The construction keeps the padded optimum exactly restrictable: the two
    off-diagonal blocks (real row × padding column and padding row × real
    column) are filled with a value strictly above ``max(max(C), 0)``, and
    the padding × padding block with zeros.  Uncrossing any assignment that
    matches a real row to a padding column strictly lowers the total
    (``C[i, j] < 2 * pad`` for every entry, including negative ones since
    ``pad > 0``), so *every* optimum of the padded matrix assigns real rows
    to real columns — the head of the padded assignment is the optimum of
    ``costs``, and padding rows sweep up the padding columns at zero cost.

    Note this is deliberately *not* zero padding (which would make padding
    columns the cheapest option and attract real rows) and not plain
    ``max + 1`` (which rounds away at large magnitudes; see
    :func:`repro.lap.rectangular.padding_value`).
    """
    size = costs.shape[0]
    if target < size:
        raise SolverError(f"cannot pad size {size} down to {target}")
    if target == size:
        return costs
    pad = max(padding_value(costs), 1.0)
    padded = np.zeros((target, target), dtype=np.float64)
    padded[:size, :size] = costs
    padded[:size, size:] = pad
    padded[size:, :size] = pad
    return padded


@dataclasses.dataclass(frozen=True)
class GroupReport:
    """What one shape group cost (feeds ``batch.*`` metrics and reports)."""

    size: int  # solved (compiled) size
    instances: int
    padded: int  # how many members were padded up to ``size``
    compile_cache_hit: bool  # a compiled graph for ``size`` already existed
    run_seconds: float  # wall time of the members' solves
    device_seconds: float  # summed modeled device time

    @property
    def device_seconds_per_instance(self) -> float:
        return self.device_seconds / self.instances if self.instances else 0.0


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Outcome of one :meth:`BatchSolver.solve_batch` call.

    ``results`` is in input order; ``groups`` is ordered by solved size.
    """

    results: tuple[AssignmentResult, ...]
    groups: tuple[GroupReport, ...]
    wall_seconds: float

    @property
    def instances(self) -> int:
        return len(self.results)

    @property
    def device_seconds(self) -> float:
        return sum(group.device_seconds for group in self.groups)

    @property
    def instances_per_second(self) -> float:
        """Host-side throughput of the batch (simulation wall clock)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instances / self.wall_seconds

    def summary(self) -> dict[str, Any]:
        """JSON-ready batch summary (the CLI and bench harness print this)."""
        return {
            "instances": self.instances,
            "groups": [dataclasses.asdict(group) for group in self.groups],
            "wall_seconds": self.wall_seconds,
            "device_seconds": self.device_seconds,
            "instances_per_second": self.instances_per_second,
            "padded_instances": sum(group.padded for group in self.groups),
            "compile_cache_hits": sum(
                1 for group in self.groups if group.compile_cache_hit
            ),
        }


class BatchSolver:
    """Solve a stream of LAP instances, grouped and padded by compiled shape.

    Parameters
    ----------
    solver:
        Any library solver facade; defaults to a fresh
        :class:`~repro.core.solver.HunIPUSolver`.  Every instance is solved
        through its ``solve`` method.
    pad_to_cached:
        Allow padding an instance up to a nearby size that is already
        compiled (or that the batch majority uses), trading a slightly
        larger device run for a saved graph compilation.
    pad_limit:
        Maximum allowed linear growth when padding (``target <= size *
        pad_limit``).  The device run grows roughly quadratically with the
        padded size, so the default keeps the overhead bounded by ~56%
        while still merging near-miss sizes.
    metrics:
        Registry receiving ``batch.*`` instruments; defaults to the
        solver's registry when it has one, else the library default.
    """

    def __init__(
        self,
        solver=None,
        *,
        pad_to_cached: bool = True,
        pad_limit: float = 1.25,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.solver = solver if solver is not None else HunIPUSolver()
        if pad_limit < 1.0:
            raise SolverError(f"pad_limit must be >= 1.0, got {pad_limit}")
        self.pad_to_cached = pad_to_cached
        self.pad_limit = float(pad_limit)
        if metrics is None:
            # Note: an empty MetricsRegistry is falsy (it has __len__), so
            # this must be an identity check, not ``or``.
            metrics = getattr(self.solver, "metrics", None)
            if metrics is None:
                metrics = default_registry()
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve_batch(self, instances: Iterable[LAPInstance]) -> BatchResult:
        """Solve every instance; results come back in input order."""
        items = list(instances)
        tracer = getattr(self.solver, "tracer", None)
        tracing = tracer is not None and tracer.enabled
        if tracing:
            tracer.event("batch_start", instances=len(items))
        with child_span("batch.solve", instances=len(items)) as span:
            with wall_timer() as timer:
                results: list[AssignmentResult | None] = [None] * len(items)
                groups: list[GroupReport] = []
                for target, members in self._plan_groups(items):
                    groups.append(self._run_group(target, members, results))
            span.set(groups=len(groups))
        if tracing:
            tracer.event(
                "batch_end",
                instances=len(items),
                groups=len(groups),
                wall_seconds=timer.seconds,
            )
        batch = BatchResult(
            results=tuple(results),  # type: ignore[arg-type]
            groups=tuple(groups),
            wall_seconds=timer.seconds,
        )
        self._record_metrics(batch)
        logger.info(
            "batch solved: %d instances in %d groups, %.1f instances/s, "
            "%.6f s modeled device time",
            batch.instances,
            len(batch.groups),
            batch.instances_per_second,
            batch.device_seconds,
        )
        return batch

    def solve_all(self, instances: Iterable[LAPInstance]) -> list[AssignmentResult]:
        """Convenience: :meth:`solve_batch` returning just the results."""
        return list(self.solve_batch(instances).results)

    # ------------------------------------------------------------------
    # Grouping / padding policy
    # ------------------------------------------------------------------

    def _plan_groups(
        self, items: Sequence[LAPInstance]
    ) -> list[tuple[int, list[tuple[int, LAPInstance]]]]:
        """Deterministically assign each instance a solved size.

        An instance of size ``s`` is padded up to the smallest target ``t``
        with ``s < t <= s * pad_limit`` that either already has a compiled
        graph or occurs more often in this batch than ``s`` does — both
        cases where riding an existing/shared binary beats compiling one
        for ``s``.  Sizes that are themselves cached never pad.
        """
        counts: dict[int, int] = {}
        for instance in items:
            counts[instance.size] = counts.get(instance.size, 0) + 1
        cached = set(getattr(self.solver, "_compiled", ()) or ())

        targets: dict[int, int] = {}
        for size in counts:
            if not self.pad_to_cached:
                targets[size] = size
            else:
                targets[size] = choose_target(
                    size, cached=cached, counts=counts, pad_limit=self.pad_limit
                )

        groups: dict[int, list[tuple[int, LAPInstance]]] = {}
        for index, instance in enumerate(items):
            groups.setdefault(targets[instance.size], []).append((index, instance))
        return sorted(groups.items())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run_group(
        self,
        target: int,
        members: list[tuple[int, LAPInstance]],
        results: list[AssignmentResult | None],
    ) -> GroupReport:
        """Solve every member of one shape group at the group's size."""
        cache_hit = target in (getattr(self.solver, "_compiled", ()) or ())
        device_seconds = 0.0
        run_start = perf_counter()
        for index, instance in members:
            result = solve_at_size(self.solver, instance, target)
            if result.device_time_s is not None:
                device_seconds += result.device_time_s
            results[index] = result
        run_seconds = perf_counter() - run_start
        return GroupReport(
            size=target,
            instances=len(members),
            padded=sum(1 for _, instance in members if instance.size != target),
            compile_cache_hit=cache_hit,
            run_seconds=run_seconds,
            device_seconds=device_seconds,
        )

    def _record_metrics(self, batch: BatchResult) -> None:
        metrics = self.metrics
        metrics.counter("batch.batches", "solve_batch calls completed").inc()
        metrics.counter("batch.instances", "instances solved via the batch path").inc(
            batch.instances
        )
        metrics.counter("batch.groups", "shape groups executed").inc(len(batch.groups))
        metrics.counter(
            "batch.padded_instances", "instances padded up to a shared size"
        ).inc(sum(group.padded for group in batch.groups))
        metrics.gauge(
            "batch.last_instances_per_second",
            "throughput of the most recent batch (host wall clock)",
        ).set(batch.instances_per_second)
        for group in batch.groups:
            metrics.histogram(
                "batch.group_device_seconds",
                "modeled device seconds per shape group",
            ).observe(group.device_seconds)


def solve_at_size(solver, instance: LAPInstance, target: int) -> AssignmentResult:
    """Solve ``instance`` as a ``target``-size problem through ``solver.solve``.

    An instance already of size ``target`` is solved as is; a smaller one is
    padded with :func:`pad_instance_costs`, solved, and restricted back to
    its own rows and columns (``stats["padded_from"]`` /
    ``stats["padded_to"]`` record the padding).
    """
    if instance.size == target:
        return solver.solve(instance)
    padded = LAPInstance(
        pad_instance_costs(instance.costs, target),
        name=f"{instance.name}-batchpad{target}",
    )
    return _restrict_result(solver.solve(padded), instance, target)


def _restrict_result(
    result: AssignmentResult, instance: LAPInstance, target: int
) -> AssignmentResult:
    """Drop the padding rows/columns from a padded solve's result.

    By the :func:`pad_instance_costs` construction every optimum assigns
    real rows to real columns, so the head of the assignment *is* the
    optimum of the original instance; hitting the guard below would mean
    the padding block was constructed wrong.
    """
    size = instance.size
    head = np.asarray(result.assignment[:size])
    if head.max(initial=-1) >= size:
        raise SolverError(
            f"padded solve (size {target}) matched a real row to a padding "
            f"column for {instance.name!r}; padding construction violated"
        )
    stats = dict(result.stats)
    stats["padded_from"] = size
    stats["padded_to"] = target
    return dataclasses.replace(
        result,
        assignment=head,
        total_cost=instance.total_cost(head),
        stats=stats,
    )
