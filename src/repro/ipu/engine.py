"""The BSP execution engine.

Runs a compiled program.  Each :class:`Execute` node runs its compute set
as one Bulk-Synchronous-Parallel superstep (§III-A): the **compute** phase
runs every vertex (batched numpy when the plan allows, per-vertex
otherwise) and costs as much as the slowest tile's busiest worker slot; the
**sync** phase costs a fixed barrier; the **exchange** phase costs the
compute set's statically planned byte volume over the fabric.

Like Poplar, the engine fixes everything it can before the first cycle: the
constructor binds the program tree into a flat *schedule* — a tuple of
closures, one per :class:`Execute` or :class:`Copy`, with each control-flow
node holding its body's flattened tuple.  Every bound step carries its
plan, codelet, params and the superstep's sync and exchange seconds
(:func:`~repro.ipu.profiler.fixed_charges`), so a run does no tree walk
and no per-superstep cost-model work beyond the compute phase.  Every step
charges its superstep the same way, by adding its scalars into the
profiler (:meth:`~repro.ipu.profiler.Profiler.add`), which keeps one
:class:`~repro.ipu.profiler.StepRecord` per compute set.  A step builds a
:class:`~repro.ipu.profiler.SuperstepCharge` record only when the run has
observers (the per-tile accumulator of ``profile_tiles=True``, a tracer or
a metrics registry), and hands it to each in turn.  Tensor buffers are
fixed for a tensor's lifetime, so a batched compute set binds its views
once, with its schedule step.  Each step also bumps the content write
counter (:attr:`~repro.ipu.tensor.Tensor.writes`) of every tensor it writes, and a
run's start bumps all of them, so bound kernels can key host-side caches on
those counters (:meth:`~repro.ipu.codelets.Codelet.bind`).

Two execution modes exist:

* ``"batched"`` (default) — uniform compute sets run as one
  :meth:`~repro.ipu.codelets.Codelet.compute_all` call over all vertices;
* ``"per_tile"`` — every vertex runs individually (batch of one).

Both should produce identical tensor contents and cycle charges, and the
identity matrix in the test suite compares them.  They can differ today:
Step 4's status scan reads each segment's slots up to the batch-wide
``zero_count`` maximum, and after Step 2's row sort ``compress`` holds
stale entries beyond a row's count, so what one vertex sees depends on
the vertices batched with it (the Step 2 layout defect on the ROADMAP).
"""

from __future__ import annotations

import logging
from typing import Callable, Literal

import numpy as np

from repro.errors import ExecutionError
from repro.ipu.compiler import CompiledGraph, ExecutionPlan, compile_graph
from repro.ipu.graph import ComputeGraph, ComputeSet
from repro.ipu.profiler import ProfileReport, Profiler, SuperstepCharge, fixed_charges
from repro.obs.metrics import IMBALANCE_RATIO_BUCKETS, MetricsRegistry
from repro.obs.spans import child_span
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.ipu.programs import (
    Copy,
    Execute,
    If,
    Nop,
    Program,
    Repeat,
    RepeatWhileTrue,
    Sequence,
)
from repro.ipu.tensor import Tensor

__all__ = ["Engine"]

logger = logging.getLogger(__name__)

#: A bound schedule step: runs one superstep or one control-flow node.
Step = Callable[[], None]


class Engine:
    """Executes one compiled graph; reusable across runs.

    Parameters
    ----------
    graph, program:
        The static graph and its top-level program.  Compilation happens in
        the constructor, so construction raises on invalid graphs.
    mode:
        ``"batched"`` or ``"per_tile"`` (see module docstring).
    check:
        ``"off"`` (default), ``"warn"`` or ``"strict"`` — whether the
        static BSP constraint checker (:mod:`repro.check`) runs over the
        compiled program.  ``"strict"`` makes C1/C2 violations a
        construction-time :class:`~repro.errors.ConstraintError`; the
        report is available as ``engine.compiled.check_report``.
    check_config:
        Optional :class:`repro.check.CheckConfig` tuning the checker.
    """

    def __init__(
        self,
        graph: ComputeGraph,
        program: Program,
        *,
        mode: Literal["batched", "per_tile"] = "batched",
        check: Literal["off", "warn", "strict"] = "off",
        check_config=None,
    ) -> None:
        if mode not in ("batched", "per_tile"):
            raise ExecutionError(f"unknown engine mode {mode!r}")
        self.compiled: CompiledGraph = compile_graph(
            graph, program, check=check, check_config=check_config
        )
        self.mode = mode
        #: Profilers reused (via reset) across runs, so repeated solves on
        #: a compiled graph pay no per-run construction; ``_profiler`` is only
        #: non-None while a run is in flight.
        self._owned_profiler = Profiler(self.compiled.spec)
        #: Deep (per-tile) profiler, built on first ``profile_tiles=True``
        #: run — its per-tile arrays cost ~tiles*3 float64s, so runs that
        #: never go deep never pay for them.
        self._deep_profiler: Profiler | None = None
        self._profiler: Profiler | None = None
        self._metrics: MetricsRegistry | None = None
        self._run = _RunState()
        self._running = False
        self._schedule = self._bind(self.compiled.program)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        tracer: NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        profile_tiles: bool = False,
    ) -> ProfileReport:
        """Execute the program once and return the cost report.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) records per-superstep
        and control-flow events; ``metrics`` receives per-superstep
        histogram observations.  Both default to off, which costs one
        attribute check per superstep.

        The report always carries one :class:`~repro.ipu.profiler.StepRecord`
        per compute set.  ``profile_tiles=True`` selects the deep profiler:
        everything the detailed mode reports plus per-tile attribution on
        :attr:`ProfileReport.tiles` (straggler counts, occupancy, an
        imbalance time series, per-tensor exchange bytes).  Both depths
        produce bit-identical run totals and records.
        """
        if self._running:
            # A second run() while one is in flight (another thread, or a
            # callback re-entering the engine) would silently cross-wire
            # the in-flight run's profiler/tracer/metrics state — and the
            # finally-block below would then null them out from under the
            # first run.  Engines hold mutable device state; concurrency
            # wants one engine per thread (the warm pool's lease model).
            raise ExecutionError(
                "engine is not reentrant; lease one engine per thread"
            )
        self._running = True
        run = self._run
        run.tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        if profile_tiles:
            if self._deep_profiler is None:
                self._deep_profiler = Profiler(self.compiled.spec, tiles=True)
            self._profiler = self._deep_profiler
        else:
            self._profiler = self._owned_profiler
        self._profiler.reset()
        # Host writes happen between runs: no derived data survives one.
        for tensor in self.compiled.graph.tensors:
            tensor.writes += 1
        run.tracing = run.tracer.enabled
        logger.debug("engine run start: mode=%s, tracing=%s", self.mode, run.tracing)
        observers = list(self._profiler.observers)
        if run.tracing:
            observers.append(self._trace_superstep)
        if metrics is not None:
            observers.append(self._observe_superstep)
        run.observers = tuple(observers)
        run.add = self._profiler.add
        try:
            with child_span("engine.run", mode=self.mode) as span:
                for step in self._schedule:
                    step()
                report = self._profiler.report()
                span.set(
                    supersteps=report.supersteps,
                    device_seconds=report.device_seconds,
                )
            logger.debug(
                "engine run done: %d supersteps, %.6f s device time",
                report.supersteps,
                report.device_seconds,
            )
            return report
        finally:
            self._profiler = None
            self._metrics = None
            run.tracer = NULL_TRACER
            run.tracing = False
            run.observers = ()
            run.add = None
            self._running = False

    # ------------------------------------------------------------------
    # Binding: program tree -> flat schedule (once, at construction)
    # ------------------------------------------------------------------

    def _bind(self, program: Program) -> tuple[Step, ...]:
        """Flatten ``program`` into bound steps; control flow nests tuples."""
        if isinstance(program, Sequence):
            return tuple(
                step for child in program.programs for step in self._bind(child)
            )
        if isinstance(program, Execute):
            return (self._bind_execute(program.compute_set),)
        if isinstance(program, Repeat):
            return (self._bind_repeat(program.count, self._bind(program.body)),)
        if isinstance(program, RepeatWhileTrue):
            return (self._bind_while(program, self._bind(program.body)),)
        if isinstance(program, If):
            then_steps = self._bind(program.then_body)
            else_steps = self._bind(program.else_body or Nop())
            return (self._bind_if(program.condition, then_steps, else_steps),)
        if isinstance(program, Copy):
            return (self._bind_copy(program),)
        if isinstance(program, Nop):
            return ()
        raise ExecutionError(f"unknown program node {type(program).__name__}")

    # Bound steps reach the in-flight run only through ``self._run``, never
    # through ``self``: an engine -> schedule -> engine cycle would keep
    # every discarded engine alive until a full garbage collection.

    @staticmethod
    def _bind_repeat(count: int, body: tuple[Step, ...]) -> Step:
        def repeat() -> None:
            for _ in range(count):
                for step in body:
                    step()

        return repeat

    def _bind_while(
        self, program: RepeatWhileTrue, body: tuple[Step, ...]
    ) -> Step:
        condition = program.condition
        name = condition.name
        max_iterations = program.max_iterations
        run = self._run

        def repeat_while_true() -> None:
            tracer = run.tracer if run.tracing else None
            if tracer is not None:
                tracer.loop_enter(name)
            iterations = 0
            while condition.data.item(0) != 0:
                iterations += 1
                if iterations > max_iterations:
                    raise ExecutionError(
                        f"RepeatWhileTrue on {name!r} "
                        f"exceeded {max_iterations} iterations"
                    )
                if tracer is not None:
                    tracer.loop_iter(name, iterations)
                for step in body:
                    step()
            if tracer is not None:
                tracer.loop_exit(name, iterations)

        return repeat_while_true

    def _bind_if(
        self,
        condition: Tensor,
        then_steps: tuple[Step, ...],
        else_steps: tuple[Step, ...],
    ) -> Step:
        name = condition.name
        run = self._run

        def branch() -> None:
            if condition.data.item(0) != 0:
                if run.tracing:
                    run.tracer.branch(name, "then")
                for step in then_steps:
                    step()
            else:
                if run.tracing:
                    run.tracer.branch(name, "else")
                for step in else_steps:
                    step()

        return branch

    def _bind_copy(self, copy: Copy) -> Step:
        spec = self.compiled.spec
        source, destination = copy.source, copy.destination
        total, inter = copy.exchange_bytes_split(
            spec.num_tiles if spec.num_ipus > 1 else None
        )
        # Copy traffic lands in the destination tensor; attribute it there
        # so per-tensor totals still sum to exchange_bytes.
        charge = SuperstepCharge(
            f"copy/{source.name}->{destination.name}",
            0.0,
            0.0,
            *fixed_charges(spec, total, inter),
            total,
            inter,
            exchange_by_tensor={destination.name: total} if total else None,
        )
        scalars = charge[:7]
        run = self._run

        def copy_step() -> None:
            destination.flat()[:] = source.flat()
            destination.writes += 1
            run.add(*scalars)
            for observer in run.observers:
                observer(charge)

        return copy_step

    def _bind_execute(self, compute_set: ComputeSet) -> Step:
        plan = self.compiled.plan_for(compute_set)
        spec = self.compiled.spec
        cost = self.compiled.cost_context
        name = compute_set.name
        codelet_name = "/".join(
            sorted({vertex.codelet.name for vertex in compute_set.vertices})
        )
        if plan.batched and self.mode == "batched":
            kernel = plan.codelet.bind(
                plan.param_arrays,
                cost,
                {field: fp.tensor for field, fp in plan.field_plans.items()},
            )
            views = plan.batch_views()
        else:
            kernel = self._bind_per_vertex(plan)
            views = None
        shape = (len(compute_set.vertices),)
        overhead = cost.vertex_overhead_cycles
        slowest_slot = plan.slowest_slot(overhead)
        clock_hz = spec.clock_hz
        sync_seconds, exchange_seconds = fixed_charges(
            spec, plan.exchange_bytes, plan.inter_ipu_bytes
        )
        exchange_bytes, inter_ipu_bytes = plan.exchange_bytes, plan.inter_ipu_bytes
        tile_ids, by_tensor, ipus = plan.tile_ids, plan.exchange_by_tensor, plan.ipus
        tile_totals = plan.tile_cycle_totals
        written = plan.written
        run = self._run

        def execute() -> None:
            # The one place a codelet fault becomes an ExecutionError that
            # names the compute set, with the original chained as the cause.
            try:
                cycles = np.asarray(kernel(views), dtype=np.float64)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"codelet {codelet_name} failed in compute set "
                    f"{name!r}: {exc}"
                ) from exc
            if cycles.shape != shape:
                raise ExecutionError(
                    f"codelet {codelet_name} returned cycle array of "
                    f"shape {cycles.shape}, expected {shape}"
                )
            # After the compute phase, so a kernel never keys data derived
            # from a tensor on a count that predates its own write.
            for tensor in written:
                tensor.writes += 1
            compute_cycles = slowest_slot(cycles)
            compute_seconds = compute_cycles / clock_hz
            run.add(
                name,
                compute_cycles,
                compute_seconds,
                sync_seconds,
                exchange_seconds,
                exchange_bytes,
                inter_ipu_bytes,
            )
            observers = run.observers
            if not observers:
                return
            charge = SuperstepCharge(
                name,
                compute_cycles,
                compute_seconds,
                sync_seconds,
                exchange_seconds,
                exchange_bytes,
                inter_ipu_bytes,
                tile_ids,
                tile_totals(cycles + overhead),
                by_tensor,
                ipus,
            )
            for observer in observers:
                observer(charge)

        return execute

    # ------------------------------------------------------------------
    # Compute phase
    # ------------------------------------------------------------------

    def _bind_per_vertex(self, plan: ExecutionPlan) -> Callable[[None], np.ndarray]:
        """Fallback: run each vertex as its own batch of one.

        Used for compute sets with mixed codelets or with regions that are
        not one view of tensor memory, and for the whole graph in
        ``per_tile`` mode.  The returned kernel takes no views (``None``):
        it slices each vertex's regions itself.
        """
        cost = self.compiled.cost_context
        vertices = tuple(
            (
                vertex.codelet,
                vertex.codelet.bind(
                    {
                        key: np.array([value], dtype=np.float64)
                        for key, value in vertex.params.items()
                    },
                    cost,
                    {field: c.tensor for field, c in vertex.connections.items()},
                ),
                tuple(
                    (field, c.tensor, c.start, c.stop)
                    for field, c in vertex.connections.items()
                ),
            )
            for vertex in plan.compute_set.vertices
        )

        def run_per_vertex(unused: None) -> np.ndarray:
            cycles = np.zeros(len(vertices), dtype=np.float64)
            for index, (codelet, kernel, connections) in enumerate(vertices):
                views = {
                    field: tensor.region(start, stop).reshape(1, -1)
                    for field, tensor, start, stop in connections
                }
                vertex_cycles = np.asarray(kernel(views), dtype=np.float64)
                if vertex_cycles.shape != (1,):
                    raise ExecutionError(
                        f"codelet {codelet.name} returned cycle array of "
                        f"shape {vertex_cycles.shape} for a single vertex"
                    )
                cycles[index] = vertex_cycles[0]
            return cycles

        return run_per_vertex

    # ------------------------------------------------------------------
    # Superstep observers
    # ------------------------------------------------------------------

    def _trace_superstep(self, charge: SuperstepCharge) -> None:
        # Multi-IPU attribution only on clusters, so single-chip trace
        # events (and golden traces) keep their exact historical shape.
        multi_ipu = self.compiled.spec.num_ipus > 1
        fields = dict(
            total_seconds=charge.total_seconds,
            compute_seconds=charge.compute_seconds,
            sync_seconds=charge.sync_seconds,
            exchange_seconds=charge.exchange_seconds,
            exchange_bytes=charge.exchange_bytes,
        )
        if charge.tile_ids is not None:
            peak, mean, imbalance = _tile_stats(charge.tile_cycles)
            fields.update(
                tiles_in_use=len(charge.tile_ids),
                max_tile_cycles=peak,
                mean_tile_cycles=mean,
                imbalance=imbalance,
            )
        if multi_ipu:
            fields["inter_ipu_bytes"] = charge.inter_ipu_bytes
            if charge.tile_ids is not None:
                fields["ipus"] = list(charge.ipus)
        self._run.tracer.superstep(charge.name, **fields)

    def _observe_superstep(self, charge: SuperstepCharge) -> None:
        """Feed the opt-in per-superstep instruments (see docs/observability.md)."""
        metrics = self._metrics
        assert metrics is not None
        metrics.counter("engine.supersteps", "BSP supersteps executed").inc()
        metrics.histogram(
            "engine.exchange_bytes", "exchange-phase bytes per superstep"
        ).observe(charge.exchange_bytes)
        if charge.tile_ids is not None:
            peak, _, imbalance = _tile_stats(charge.tile_cycles)
            metrics.histogram(
                "engine.tile_imbalance",
                "max/mean compute cycles over tiles in use, per superstep",
                buckets=IMBALANCE_RATIO_BUCKETS,
            ).observe(imbalance)
            metrics.histogram(
                "engine.tile_compute_cycles",
                "slowest-tile compute cycles per superstep",
            ).observe(peak)


class _RunState:
    """What bound steps read of the in-flight run (set by :meth:`Engine.run`).

    ``add`` is the profiler's accumulation routine, which every step calls
    with its superstep's scalars.  ``observers`` receive a
    :class:`SuperstepCharge` record of every superstep, built only when
    there is one; ``tracing`` caches ``tracer.enabled``.
    """

    __slots__ = ("tracer", "tracing", "observers", "add")

    def __init__(self) -> None:
        self.tracer: NullTracer = NULL_TRACER
        self.tracing = False
        self.observers: tuple[Callable[[SuperstepCharge], None], ...] = ()
        self.add: Callable[..., None] | None = None


def _tile_stats(tile_cycles: np.ndarray) -> tuple[float, float, float]:
    """``(max, mean, max/mean)`` of a superstep's per-tile cycle totals.

    The ratio is the load imbalance the paper's C3 constraint (the slowest
    tile gates the superstep) makes worth watching; 1.0 is perfect balance.
    """
    peak = float(tile_cycles.max(initial=0.0))
    mean = float(tile_cycles.mean()) if len(tile_cycles) else 0.0
    return peak, mean, (peak / mean if mean > 0 else 1.0)
