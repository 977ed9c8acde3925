"""HunIPU — the paper's contribution, assembled (§IV).

:class:`HunIPUSolver` builds one static computation graph per problem size
(compiled instances are cached and reused, mirroring how Poplar binaries are
compiled once per shape) and drives it with a fully on-device control
program::

    Step 1 (subtract)  →  compress  →  Step 2 (initial matching)
    while not all columns covered:            # Step 3 decides
        reset row covers / primes
        loop:                                  # Step 4 classifies rows
            max status −1 → Step 6 (slack update + re-compress)
            max status  1 → Step 5 (augment), back to Step 3
            max status  0 → prime, cover row, uncover star column

Costs are normalized to [0, 1] on the host before upload — shifted by the
matrix minimum, then scaled by the spread (the assignment is invariant under
positive affine maps) — so the zero tolerance is a compile-time constant
that holds for negative-cost and large-offset instances alike; results are
certified by a perfect-matching check, and the terminal slack matrix is
available as a dual certificate.
"""

from __future__ import annotations

import logging
from typing import Iterable, Literal

import numpy as np

from repro.core.compression import build_compress
from repro.core.mapping_plan import MappingPlan
from repro.core.state import SolverState
from repro.core.steps import (
    build_prestar,
    build_prime_update,
    build_search_reset,
    build_seed_subtract,
    build_step1,
    build_step2,
    build_step3,
    build_step4,
    build_step5,
    build_step6,
)
from repro.core.warmstart import WarmStart, changed_rows
from repro.errors import SolverError
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.programs import If, RepeatWhileTrue, Sequence
from repro.ipu.spec import IPUSpec
from repro.lap.problem import LAPInstance
from repro.lap.result import AssignmentResult
from repro.lap.validation import check_perfect_matching
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.timing import wall_timer
from repro.obs.trace import NULL_TRACER, NullTracer

__all__ = ["HunIPUSolver", "CompiledInstance", "WarmStart", "normalize_costs"]

logger = logging.getLogger(__name__)

#: Zero tolerance on normalized ([0, 1]) costs, per working precision.
#: :func:`normalize_costs` guarantees the uploaded matrix really lives in
#: [0, 1] (shift-then-scale), so these constants hold regardless of the
#: instance's sign or magnitude.
_TOLERANCES = {np.dtype(np.float64): 1e-11, np.dtype(np.float32): 2e-6}


def normalize_costs(costs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Affine-map ``costs`` onto [0, 1]: subtract the min, divide by the spread.

    Returns ``(normalized, shift, scale)`` with
    ``costs == normalized * scale + shift`` (up to rounding).  Scaling by
    ``abs(costs).max()`` alone — the previous scheme — lands negative-cost
    instances in [-1, 1] and collapses large-offset instances (for example
    ``-1e12 + small``) to a sliver around ±1, both of which break the
    compile-time zero tolerance; the shift keeps the spread, which is all
    the assignment depends on, at full precision.  Constant matrices map to
    all zeros with ``scale == 1``.
    """
    shift = float(costs.min())
    scale = float(costs.max()) - shift
    if not scale > 0:
        scale = 1.0
    return (costs - shift) / scale, shift, scale


class CompiledInstance:
    """A compiled HunIPU graph for one matrix size (reusable)."""

    def __init__(
        self,
        size: int,
        spec: IPUSpec,
        dtype: np.dtype,
        engine_mode: Literal["batched", "per_tile"],
        *,
        col_segment_size: int | None = None,
        use_compression: bool = True,
    ) -> None:
        self.size = size
        if col_segment_size is None:
            self.plan = MappingPlan.for_size(size, spec)
        else:
            self.plan = MappingPlan.for_size(
                size, spec, col_segment_size=col_segment_size
            )
        self.graph = ComputeGraph(spec)
        tol = _TOLERANCES[np.dtype(dtype)]
        self.state = SolverState.build(self.graph, self.plan, np.dtype(dtype), tol)
        state, plan = self.state, self.plan

        step1 = build_step1(self.graph, state, plan)
        compress = build_compress(self.graph, state, plan)
        step2 = build_step2(self.graph, state, plan)
        step3 = build_step3(self.graph, state, plan)
        reset = build_search_reset(self.graph, state, plan)
        step4 = build_step4(self.graph, state, plan, use_compression=use_compression)
        prime_update = build_prime_update(self.graph, state, plan)
        step5 = build_step5(self.graph, state, plan)
        step6 = build_step6(self.graph, state, plan, compress)

        inner = RepeatWhileTrue(
            state.inner_cond,
            Sequence(
                step4,
                If(
                    state.flag_update,
                    step6,
                    If(state.flag_aug, step5, prime_update),
                ),
            ),
            max_iterations=8 * size + 64,
        )
        main = RepeatWhileTrue(
            state.not_done,
            Sequence(step3, If(state.not_done, Sequence(reset, inner))),
            max_iterations=size + 2,
        )
        self.program = Sequence(step1, compress, step2, main)
        self.engine = Engine(self.graph, self.program, mode=engine_mode)

        self._engine_mode: Literal["batched", "per_tile"] = engine_mode
        self._warm_program: Sequence | None = None
        self._warm_engine: Engine | None = None

    @property
    def warm_program(self) -> Sequence:
        """The warm-start program (built on first use).

        Subtract the seeded potentials, let Step 1 repair the reduction
        (exact no-op on a tight seed), then pre-star the still-feasible
        previous matching before the τ-sweep.  It shares every tensor and
        step sub-program with the cold path and adds no tensor; its
        compute sets come after every cold one, so cold-only users never
        pay for them and the cold ids do not depend on it.
        """
        if self._warm_program is None:
            step1, compress, step2, main = self.program.programs
            seed_subtract = build_seed_subtract(self.graph, self.state, self.plan)
            prestar = build_prestar(self.graph, self.state, self.plan)
            self._warm_program = Sequence(
                seed_subtract, step1, compress, prestar, step2, main
            )
        return self._warm_program

    @property
    def warm_engine(self) -> Engine:
        """The warm-start engine (compiled on first use)."""
        if self._warm_engine is None:
            self._warm_engine = Engine(
                self.graph, self.warm_program, mode=self._engine_mode
            )
        return self._warm_engine

    def memory_report(self) -> dict[str, float]:
        """Tile-memory usage of the compiled instance (C2 visibility).

        Returns the busiest tile's byte count, the budget, the utilization
        fraction, and the tile count in use — the numbers that decide
        whether a size/dtype combination fits the device at all.
        """
        per_tile = self.engine.compiled.memory_per_tile
        budget = self.graph.spec.tile_memory_bytes
        busiest = max(per_tile.values())
        return {
            "tiles_used": float(len(per_tile)),
            "busiest_tile_bytes": float(busiest),
            "tile_budget_bytes": float(budget),
            "utilization": busiest / budget,
        }


class HunIPUSolver:
    """The IPU-optimized Hungarian algorithm on the simulated Mk2.

    Parameters
    ----------
    spec:
        Device spec; defaults to the paper's Colossus Mk2 GC200.
    dtype:
        Working precision of the slack matrix.  The paper uses float32
        (their two-floats-per-load trick requires it); float64 is the
        default here so optimality is certifiable against float64 oracles.
        Note that float64 at paper-scale sizes (n = 8192) overflows the
        624 KiB tile budget — a faithful reproduction of challenge C2.
    engine_mode:
        ``"batched"`` (fast) or ``"per_tile"`` (reference execution).
    col_segment_size:
        Override of the paper's 32-element column-state segments (§IV-E
        footnote); used by the segment-size ablation benchmark.
    use_compression:
        Disable to model Step 4 without the matrix compression of §IV-B
        (full-row scans instead of zero-position scans); the compression
        ablation benchmark flips this.
    tracer:
        A :class:`repro.obs.trace.Tracer` receiving per-superstep and
        control-flow events from every solve; defaults to the disabled
        :data:`~repro.obs.trace.NULL_TRACER` (near-zero overhead).
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry` for solver metrics.
        Compile-cache and convergence counters always land in the
        library's default registry when none is given; per-superstep
        engine histograms are only fed with an explicit registry.
    profile_tiles:
        Deep-profile every solve: the result's ``stats["profile"]`` report
        carries per-tile attribution on its ``tiles`` field (stragglers,
        occupancy, imbalance over time, per-tensor exchange bytes).  Off
        by default — the per-tile bookkeeping costs a few arrays per
        superstep.

    Example
    -------
    >>> import numpy as np
    >>> from repro.lap import LAPInstance
    >>> solver = HunIPUSolver()
    >>> result = solver.solve(LAPInstance(np.array([[4.0, 1.0], [2.0, 3.0]])))
    >>> result.total_cost
    3.0
    """

    name = "hunipu"

    def __init__(
        self,
        spec: IPUSpec | None = None,
        dtype: np.dtype | type = np.float64,
        engine_mode: Literal["batched", "per_tile"] = "batched",
        *,
        col_segment_size: int | None = None,
        use_compression: bool = True,
        tracer: NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        profile_tiles: bool = False,
    ) -> None:
        self.spec = spec if spec is not None else IPUSpec.mk2()
        self.dtype = np.dtype(dtype)
        if self.dtype not in _TOLERANCES:
            raise SolverError(f"unsupported working dtype {self.dtype}")
        self.engine_mode: Literal["batched", "per_tile"] = engine_mode
        self.col_segment_size = col_segment_size
        self.use_compression = use_compression
        self.profile_tiles = profile_tiles
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Explicit registry => per-superstep engine instruments too.
        self._engine_metrics = metrics
        self.metrics = metrics if metrics is not None else default_registry()
        self._compiled: dict[int, CompiledInstance] = {}

    def compiled_for(self, size: int) -> CompiledInstance:
        """Compile (or fetch the cached) instance for ``size``."""
        instance = self._compiled.get(size)
        if instance is None:
            logger.info("compiling HunIPU graph for n=%d (%s)", size, self.dtype)
            self.metrics.counter(
                "solver.compile_cache_misses", "graphs compiled from scratch"
            ).inc()
            instance = CompiledInstance(
                size,
                self.spec,
                self.dtype,
                self.engine_mode,
                col_segment_size=self.col_segment_size,
                use_compression=self.use_compression,
            )
            self._compiled[size] = instance
        else:
            self.metrics.counter(
                "solver.compile_cache_hits", "solves reusing a compiled graph"
            ).inc()
        return instance

    def solve(
        self,
        instance: LAPInstance,
        *,
        return_slack: bool = False,
        warm_start: WarmStart | None = None,
        capture_warm_start: bool = False,
    ) -> AssignmentResult:
        """Solve ``instance`` on the simulated IPU.

        ``device_time_s`` in the result is the modeled on-device time (the
        number comparable with the paper's measurements).  With
        ``return_slack=True`` the terminal slack matrix (rescaled back to
        the instance's units) is included under ``stats["final_slack"]``
        for dual-certificate checking.

        A ``warm_start`` seed (see :mod:`repro.core.warmstart`) routes the
        solve through the seeded program: potentials are subtracted before
        Step 1's repair pass and the previous matching is pre-starred, so
        a near-identical instance converges in far fewer supersteps while
        the optimality certificate is unchanged.  ``capture_warm_start``
        attaches the seed for the *next* solve under
        ``stats["warm_start"]``.
        """
        with wall_timer() as timer:
            compiled = self.compiled_for(instance.size)
            normalized, shift, scale = normalize_costs(instance.costs)
            compiled.state.initialize_host(normalized)
            if warm_start is not None:
                warm_start.validate(instance.size)
                # Map instance-unit potentials onto the normalized costs:
                # u' + v' must equal (u + v - shift) / scale so the seeded
                # slack matches (C - u - v) / scale on unchanged entries.
                compiled.state.load_seed(
                    (warm_start.row_potential - shift) / scale,
                    warm_start.col_potential / scale,
                    warm_start.row_star,
                )
                self.metrics.counter(
                    "solver.warm_solves", "solves seeded from a warm start"
                ).inc()
            report = self._run_engine(compiled, instance, warm=warm_start is not None)
        result = self._build_result(
            compiled,
            instance,
            report,
            scale,
            timer.seconds,
            return_slack=return_slack,
            warm=warm_start is not None,
            capture_warm_start=capture_warm_start,
        )
        stats = result.stats
        self.metrics.counter("solver.solves", "HunIPU solves completed").inc()
        self.metrics.counter(
            "solver.augmentations", "augmenting paths applied (Step 5)"
        ).inc(stats["augmentations"])
        self.metrics.counter(
            "solver.slack_updates", "slack updates applied (Step 6)"
        ).inc(stats["slack_updates"])
        self.metrics.counter("solver.primes", "zeros primed (Step 4)").inc(
            stats["primes"]
        )
        logger.info(
            "solved n=%d: %d supersteps, %d augmentations, %d slack updates, "
            "%.6f s modeled device time",
            instance.size,
            report.supersteps,
            stats["augmentations"],
            stats["slack_updates"],
            report.device_seconds,
        )
        return result

    def resolve(
        self,
        instance: LAPInstance,
        prev: WarmStart | None,
        *,
        max_changed_fraction: float = 0.5,
        return_slack: bool = False,
    ) -> AssignmentResult:
        """Incrementally re-solve a drifted instance from a previous seed.

        The changed-row set is computed host-side against the seed's
        costs; when the drift is small the seeded program only has to
        re-match the invalidated rows.  Falls back to a cold solve when
        the seed is missing, shape-incompatible, or more than
        ``max_changed_fraction`` of the rows changed (a large delta makes
        the stale potentials worthless and the repair pass pure overhead).

        The returned result always carries ``stats["warm_start"]`` — the
        seed for the next call — and ``stats["resolve"]`` describing the
        routing decision.  Warm or cold, the result is certified exactly
        like any other solve (perfect matching on a valid reduction).
        """
        reason = None
        changed = None
        if prev is None:
            reason = "no_seed"
        elif prev.size != instance.size:
            reason = "size_mismatch"
        else:
            changed = changed_rows(prev.costs, instance.costs)
            if len(changed) > max_changed_fraction * instance.size:
                reason = "delta_too_large"
        warm = reason is None
        result = self.solve(
            instance,
            return_slack=return_slack,
            warm_start=prev if warm else None,
            capture_warm_start=True,
        )
        if not warm:
            self.metrics.counter(
                "solver.resolve_cold_fallbacks",
                "resolve() calls routed to a cold solve",
            ).inc()
        result.stats["resolve"] = {
            "mode": "warm" if warm else "cold",
            "reason": reason,
            "changed_rows": None if changed is None else int(len(changed)),
        }
        return result

    def _run_engine(
        self,
        compiled: CompiledInstance,
        instance: LAPInstance,
        *,
        warm: bool = False,
    ):
        """Run the compiled program once (state must already be loaded).

        ``warm=True`` runs the seeded program instead of the cold one.
        """
        if self.tracer.enabled:
            self.tracer.event(
                "solve_start",
                solver=self.name,
                size=instance.size,
                instance=instance.name,
                dtype=str(self.dtype),
                engine_mode=self.engine_mode,
                warm=warm,
            )
        engine = compiled.warm_engine if warm else compiled.engine
        return engine.run(
            tracer=self.tracer,
            metrics=self._engine_metrics,
            profile_tiles=self.profile_tiles,
        )

    def _build_result(
        self,
        compiled: CompiledInstance,
        instance: LAPInstance,
        report,
        scale: float,
        wall: float,
        *,
        return_slack: bool = False,
        warm: bool = False,
        capture_warm_start: bool = False,
    ) -> AssignmentResult:
        """Read back device state and package an :class:`AssignmentResult`."""
        state = compiled.state
        assignment = state.row_star.read_host().astype(np.int64)
        check_perfect_matching(assignment, instance.size)
        augmentations = int(state.aug_count.read_host()[0])
        updates = int(state.update_count.read_host()[0])
        primes = int(state.prime_count.read_host()[0])
        if self.tracer.enabled:
            self.tracer.event(
                "solve_end",
                solver=self.name,
                size=instance.size,
                supersteps=report.supersteps,
                augmentations=augmentations,
                slack_updates=updates,
                primes=primes,
                device_seconds=report.device_seconds,
            )
        stats: dict[str, object] = {
            "supersteps": report.supersteps,
            "exchange_bytes": report.exchange_bytes,
            "augmentations": augmentations,
            "slack_updates": updates,
            "primes": primes,
            "host_io_s": self.spec.host_io_seconds(state.slack.nbytes),
            "profile": report,
        }
        # The paper's steps only: data movement ("copy") is not a step.
        step_seconds = report.step_seconds()
        del step_seconds["copy"]
        stats["step_seconds"] = step_seconds
        stats["warm_start_used"] = warm
        if return_slack or capture_warm_start:
            final_slack = state.slack.read_host().astype(np.float64) * scale
            if return_slack:
                stats["final_slack"] = final_slack
            if capture_warm_start:
                stats["warm_start"] = WarmStart.from_solution(
                    instance.costs, final_slack, assignment
                )
        return AssignmentResult(
            assignment=assignment,
            total_cost=instance.total_cost(assignment),
            solver=self.name,
            device_time_s=report.device_seconds,
            wall_time_s=wall,
            iterations=augmentations + updates,
            stats=stats,
        )

    def solve_many(
        self, instances: "Iterable[LAPInstance]"
    ) -> list[AssignmentResult]:
        """Solve a stream of instances, reusing compiled graphs per size.

        The paper's motivating applications (shape matching, repeated graph
        alignment) "run the Hungarian algorithm hundreds of times" (§I);
        on a real IPU the binary is compiled once per shape and re-executed
        with new data, which is exactly what this models: the first
        instance of each size pays graph construction, the rest only pay
        execution.

        :class:`repro.batch.BatchSolver` runs each instance through
        :meth:`solve` too; on top it groups a mixed-size stream by compiled
        shape and pads stragglers onto already-compiled sizes.
        """
        return [self.solve(instance) for instance in instances]
