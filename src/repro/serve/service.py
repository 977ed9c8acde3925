"""The concurrent assignment-solving service.

:class:`SolverService` is the front door that turns the repo's solvers —
the HunIPU engine behind a :class:`~repro.serve.pool.WarmEnginePool`, the
scipy oracle, and the FastHA baseline — into one concurrent, deadline-aware
endpoint:

* **Admission control**: a bounded queue; when it is full, submissions are
  rejected immediately with the typed reason ``queue_full`` (backpressure
  is explicit, callers never block on admission).  Shutdown and invalid
  requests are rejected the same way; *every* submitted request terminates
  as completed-or-typed-rejected — none are lost.
* **Micro-batching**: a worker that dequeues an engine-bound request
  coalesces queued same-shape engine-bound requests (up to ``max_batch``,
  optionally lingering ``batch_window_s`` for more to arrive) and runs the
  whole group through :class:`repro.batch.BatchSolver` on one warm engine
  lease — one compile-cache lookup and bulk-staged uploads for the group.
* **Routing and graceful degradation** (:mod:`repro.serve.router`): engine
  faults retry once with exponential backoff and then descend the
  tier's backend ladder; deadline-pressed requests skip ladder legs
  preemptively.  Fallbacks are flagged ``degraded`` with a reason, and the
  degradation counters in the stats export account for every one.
* **Observability**: per-request latency histograms, queue-depth gauge and
  admission/reject/fallback counters in a
  :class:`~repro.obs.metrics.MetricsRegistry`, plus the schema-versioned
  ``repro.serve/1`` stats document
  (:meth:`SolverService.stats_document`, validated by
  :func:`repro.obs.export.validate_serve_stats`).

Deadlines are best-effort in a cooperative simulator: an expired request is
rejected at dequeue (it never wastes a worker), a running solve is not
preempted — if it finishes past its deadline the response is completed with
``deadline_missed=True``.  The *preemptive* router keeps that case rare by
degrading requests whose budget is smaller than the engine's estimated
latency.
"""

from __future__ import annotations

import contextlib
import logging
import threading
from collections import deque
from time import monotonic, sleep

from repro.baselines.fastha import FastHASolver
from repro.baselines.scipy_reference import ScipySolver
from repro.batch.solver import BatchSolver
from repro.errors import ExecutionError, InvalidProblemError, ReproError, SolverError
from repro.lap.approx import solve_auction
from repro.lap.problem import LAPInstance
from repro.lap.result import AssignmentResult
from repro.obs.export import SERVE_SCHEMA
from repro.obs.metrics import (
    LATENCY_SECONDS_BUCKETS,
    MetricsRegistry,
    default_registry,
    metrics_to_prometheus_text,
)
from repro.obs.spans import NULL_SPANS, NullSpanTracer, child_span, correlation_scope
from repro.serve.pool import WarmEnginePool
from repro.serve.request import RejectReason, SolveRequest, SolveResponse, Ticket
from repro.serve.router import LatencyEstimator, Router
from repro.serve.sessions import SessionStore
from repro.serve.stats import RequestLedger

__all__ = ["SolverService"]

logger = logging.getLogger(__name__)

#: Verification tolerance against the scipy optimum (same scale as the
#: library's differential tests).
_VERIFY_ABS = 1e-6
_VERIFY_REL = 1e-9


class SolverService:
    """Concurrent LSAP solving over a warm engine pool.

    Parameters
    ----------
    workers:
        Worker threads executing requests.
    queue_capacity:
        Bound of the admission queue; submissions beyond it are rejected
        with ``queue_full``.
    max_batch:
        Micro-batch ceiling: how many same-shape engine-bound requests one
        worker coalesces into a single :class:`~repro.batch.BatchSolver`
        run.
    batch_window_s:
        Optional linger: a worker holding fewer than ``max_batch`` requests
        waits up to this long for more same-shape arrivals before running.
        ``0`` (default) coalesces only what is already queued, which keeps
        latency minimal and tests deterministic.
    pool:
        The warm engine pool; built from ``solver_factory`` /
        ``memory_budget_bytes`` when omitted.
    router:
        Routing/degradation policy; a default :class:`Router` when omitted.
    verify:
        When True, every completed result is checked against the scipy
        optimum before the response resolves; mismatches surface as
        ``internal_error`` rejections (and a ``serve.verify_failures``
        counter) instead of silently wrong answers.
    metrics:
        Registry for ``serve.*`` instruments (shared with the pool unless
        the pool was passed in pre-built).
    spans:
        Span sink for per-request span trees
        (:class:`~repro.obs.spans.SpanCollector`).  Defaults to
        :data:`~repro.obs.spans.NULL_SPANS` — disabled, near-zero cost.
        Every request is tagged with a ``req-<id>`` correlation id either
        way, so log lines stay greppable even without span tracing.
    sessions:
        Optional :class:`~repro.serve.sessions.SessionStore`.  When set,
        engine-bound requests carrying a ``session_id`` skip micro-batching
        and run through the solver's warm-start path, seeded from the
        session's previous solve (see ``docs/serving.md``).
    approx_seed:
        Seed of the approximate tier's auction bidding order
        (:func:`repro.lap.approx.solve_auction`); a fixed seed keeps
        approximate responses bit-identical across service restarts for
        the same instance.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        queue_capacity: int = 64,
        max_batch: int = 8,
        batch_window_s: float = 0.0,
        pool: WarmEnginePool | None = None,
        solver_factory=None,
        memory_budget_bytes: int | None = None,
        router: Router | None = None,
        verify: bool = False,
        metrics: MetricsRegistry | None = None,
        spans: NullSpanTracer = NULL_SPANS,
        sessions: SessionStore | None = None,
        approx_seed: int = 0,
    ) -> None:
        if workers < 1:
            raise SolverError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise SolverError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if max_batch < 1:
            raise SolverError(f"max_batch must be >= 1, got {max_batch}")
        self.metrics = metrics if metrics is not None else default_registry()
        if pool is None:
            pool_kwargs = {"metrics": self.metrics}
            if memory_budget_bytes is not None:
                pool_kwargs["memory_budget_bytes"] = memory_budget_bytes
            pool = WarmEnginePool(solver_factory, **pool_kwargs)
        self.pool = pool
        self.router = router if router is not None else Router(LatencyEstimator())
        self.verify = verify
        self.spans = spans
        self.sessions = sessions
        self.approx_seed = int(approx_seed)
        self.max_batch = int(max_batch)
        self.batch_window_s = float(batch_window_s)
        self.queue_capacity = int(queue_capacity)

        self._scipy = ScipySolver()
        self._fastha = FastHASolver()
        self._queue: deque[Ticket] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._draining = True
        self._next_id = 0
        self.ledger = RequestLedger()
        self._stats_lock = threading.Lock()
        self._peak_queue_depth = 0
        self._batches = 0
        self._coalesced = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()
        logger.info(
            "SolverService up: %d workers, queue capacity %d, max batch %d",
            workers,
            queue_capacity,
            max_batch,
        )

    # ------------------------------------------------------------------
    # Submission / admission control
    # ------------------------------------------------------------------

    def submit(
        self,
        instance: LAPInstance,
        *,
        tier: str = "auto",
        deadline_s: float | None = None,
        session_id: str | None = None,
    ) -> Ticket:
        """Submit one instance; returns immediately with a :class:`Ticket`.

        Admission is non-blocking: a full queue, a closed service, or an
        invalid request resolves the ticket *rejected* with a typed reason
        right away.

        Every submission — admitted or not — is stamped with a
        ``req-<id>`` correlation id carried by its request, its response,
        its span tree, and (via :func:`repro.obs.spans.correlation_scope`)
        every log line it causes.
        """
        now = monotonic()
        with self._cond:
            request_id = self._next_id
            self._next_id += 1
        correlation_id = f"req-{request_id:06d}"
        with correlation_scope(correlation_id):
            return self._admit(
                instance, tier, deadline_s, request_id, correlation_id, now,
                session_id,
            )

    def _admit(
        self,
        instance: LAPInstance,
        tier: str,
        deadline_s: float | None,
        request_id: int,
        correlation_id: str,
        now: float,
        session_id: str | None = None,
    ) -> Ticket:
        try:
            request = SolveRequest(
                instance=instance,
                tier=tier,
                deadline_s=deadline_s,
                request_id=request_id,
                submitted_at=now,
                correlation_id=correlation_id,
                session_id=session_id,
            )
        except InvalidProblemError as exc:
            fallback_request = SolveRequest(
                instance=instance,
                request_id=request_id,
                submitted_at=now,
                correlation_id=correlation_id,
            )
            ticket = Ticket(fallback_request)
            self._open_root_span(ticket)
            return self._reject_ticket(ticket, "invalid", str(exc), admitted=False)
        ticket = Ticket(request)
        self._open_root_span(ticket)
        with self._cond:
            if self._stopping:
                return self._reject_ticket(
                    ticket, "shutdown", "service is shutting down", admitted=False
                )
            if len(self._queue) >= self.queue_capacity:
                return self._reject_ticket(
                    ticket,
                    "queue_full",
                    f"admission queue at capacity ({self.queue_capacity})",
                    admitted=False,
                )
            # Count the admission before the append: once a worker can see
            # the ticket it may complete (and decrement in_flight) at any
            # moment, and the accounting must never go transiently negative.
            self.ledger.admit()
            # The queue span must exist before the append: the moment a
            # worker can see the ticket it may dequeue it and end the span.
            if self.spans.enabled:
                ticket.spans.queue = self.spans.start(
                    "queue",
                    correlation_id=correlation_id,
                    parent=ticket.spans.root,
                    depth=len(self._queue),
                )
            self._queue.append(ticket)
            depth = len(self._queue)
            self._cond.notify()
        with self._stats_lock:
            self._peak_queue_depth = max(self._peak_queue_depth, depth)
        self.metrics.counter("serve.submitted", "requests admitted or rejected").inc()
        self.metrics.gauge("serve.queue_depth", "admission queue depth").set(depth)
        logger.debug(
            "admitted request %d (tier=%s, n=%d, depth=%d)",
            request_id,
            request.tier,
            request.size,
            depth,
        )
        return ticket

    def _open_root_span(self, ticket: Ticket) -> None:
        """Open the per-request root span (name ``request``)."""
        if not self.spans.enabled:
            return
        request = ticket.request
        ticket.spans.root = self.spans.start(
            "request",
            correlation_id=request.correlation_id,
            root=True,
            request_id=request.request_id,
            tier=request.tier,
            size=request.size,
        )

    def solve(
        self,
        instance: LAPInstance,
        *,
        tier: str = "auto",
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> SolveResponse:
        """Blocking convenience: submit and wait for the response."""
        return self.submit(instance, tier=tier, deadline_s=deadline_s).response(
            timeout
        )

    def _reject_ticket(
        self, ticket: Ticket, code: str, detail: str, *, admitted: bool = True
    ) -> Ticket:
        """Resolve ``ticket`` as rejected and account for it.

        ``admitted=False`` marks admission-time rejections: the request was
        never counted in flight, so rejection is what *makes* it submitted.
        """
        response = SolveResponse(
            request_id=ticket.request_id,
            status="rejected",
            reject=RejectReason(code, detail),
            correlation_id=ticket.request.correlation_id,
        )
        if ticket._resolve(response):
            self.ledger.reject(code, admitted=admitted)
            self.metrics.counter(
                f"serve.rejected.{code}", f"requests rejected: {code}"
            ).inc()
            if self.spans.enabled:
                spans = ticket.spans
                if spans.queue is not None:
                    self.spans.end(spans.queue, "rejected")
                if spans.execute is not None:
                    self.spans.end(spans.execute, "rejected")
                if spans.root is not None:
                    spans.root.set(reject=code)
                    self.spans.end(spans.root, "rejected")
            logger.info("rejected request %d: %s (%s)", ticket.request_id, code, detail)
        return ticket

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return  # stopping and drained
                if self._stopping and not self._draining:
                    ticket = self._queue.popleft()
                    self._cond.notify()
                    self._reject_ticket(ticket, "shutdown", "service closed")
                    continue
                head = self._take_live_ticket_locked()
            if head is None:
                continue
            try:
                self._dispatch(head)
            except Exception:  # pragma: no cover - backstop, must not die
                logger.exception("worker crashed on request %d", head.request_id)
                self._reject_ticket(
                    head, "internal_error", "unexpected worker failure"
                )

    def _take_live_ticket_locked(self) -> Ticket | None:
        """Pop the next ticket, terminally resolving dead ones in passing."""
        while self._queue:
            ticket = self._queue.popleft()
            self.metrics.gauge(
                "serve.queue_depth", "admission queue depth"
            ).set(len(self._queue))
            if ticket.cancelled:
                self._reject_ticket(ticket, "cancelled", "cancelled while queued")
                continue
            if ticket.request.expired():
                self._reject_ticket(
                    ticket,
                    "deadline_expired",
                    f"deadline ({ticket.request.deadline_s:.3f}s) expired "
                    "while queued",
                )
                continue
            return ticket
        return None

    def _dispatch(self, head: Ticket) -> None:
        """Plan, micro-batch, and execute starting from ``head``."""
        with correlation_scope(head.request.correlation_id):
            self._mark_dequeued(head)
            now = monotonic()
            plan = self.router.plan(head.request, self.pool.warm_sizes(), now)
            if (
                self.sessions is not None
                and head.request.session_id
                and plan.backend == "hunipu"
            ):
                # Session traffic runs solo on an engine of the request's
                # own size — warm-start seeds are shape-exact, so neither
                # micro-batching nor pad-to-cached applies.
                with self._stats_lock:
                    self._batches += 1
                self._execute_engine_session(head, plan)
                return
            batch = [head]
            if plan.backend == "hunipu" and self.max_batch > 1:
                batch += self._coalesce(head, plan)
            if len(batch) > 1:
                with self._stats_lock:
                    self._coalesced += len(batch) - 1
                self.metrics.histogram(
                    "serve.batch_size",
                    "engine micro-batch sizes",
                    buckets=tuple(float(2**i) for i in range(0, 8)),
                ).observe(len(batch))
            with self._stats_lock:
                self._batches += 1
            if plan.backend == "hunipu":
                self._execute_engine_batch(batch, plan)
            else:
                for ticket in batch:
                    self._execute_ladder(ticket, plan, lease=None)

    def _mark_dequeued(self, ticket: Ticket) -> None:
        """A worker picked the ticket up: close ``queue``, open ``execute``."""
        if not self.spans.enabled:
            return
        spans = ticket.spans
        if spans.queue is not None:
            self.spans.end(spans.queue)
        if spans.root is not None and spans.execute is None:
            spans.execute = self.spans.start(
                "execute",
                correlation_id=ticket.request.correlation_id,
                parent=spans.root,
            )

    def _execute_scope(self, ticket: Ticket):
        """Context manager making the ticket's ``execute`` span ambient.

        Inside it, :func:`repro.obs.spans.child_span` calls from deep
        layers (the batch solver, the BSP engine, the pool's compile path)
        attach to this request's tree.  A no-op when spans are disabled.
        """
        if self.spans.enabled and ticket.spans.execute is not None:
            return self.spans.activate(ticket.spans.execute)
        return contextlib.nullcontext()

    def _coalesce(self, head: Ticket, plan) -> list[Ticket]:
        """Pull queued engine-bound tickets that share ``head``'s shape.

        With a positive ``batch_window_s`` the worker lingers for more
        same-shape arrivals until the window closes or the batch fills.
        """
        gathered: list[Ticket] = []
        window_ends = monotonic() + self.batch_window_s
        while True:
            with self._cond:
                keep: deque[Ticket] = deque()
                while self._queue and len(gathered) < self.max_batch - 1:
                    candidate = self._queue.popleft()
                    if candidate.cancelled or candidate.request.expired():
                        # Re-route through the terminal resolution path.
                        keep.append(candidate)
                        continue
                    candidate_plan = self.router.plan(
                        candidate.request, self.pool.warm_sizes(), monotonic()
                    )
                    if (
                        candidate_plan.backend == "hunipu"
                        and candidate_plan.engine_target == plan.engine_target
                    ):
                        self._mark_dequeued(candidate)
                        gathered.append(candidate)
                    else:
                        keep.append(candidate)
                # Preserve arrival order for everything we did not take.
                keep.extend(self._queue)
                self._queue.clear()
                self._queue.extend(keep)
                if self._queue:
                    self._cond.notify()
            remaining = window_ends - monotonic()
            if len(gathered) >= self.max_batch - 1 or remaining <= 0:
                return gathered
            with self._cond:
                self._cond.wait(timeout=remaining)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_engine_batch(self, tickets: list[Ticket], plan) -> None:
        """Run an engine micro-batch; on faults, fall back per request.

        The head ticket's ``execute`` span is ambient for the shared work
        (pool lease, batch solve, engine run), so the per-step engine story
        hangs off the request that triggered the batch; members record the
        shared run via their ``batched`` attribute.
        """
        head = tickets[0]
        with self._execute_scope(head):
            lease = self.pool.acquire(plan.engine_target)
            try:
                started = monotonic()
                try:
                    batch_solver = BatchSolver(
                        lease.solver, pad_limit=self.router.pad_limit
                    )
                    outcome = batch_solver.solve_batch(
                        [ticket.request.instance for ticket in tickets]
                    )
                except ExecutionError as exc:
                    logger.warning(
                        "engine micro-batch of %d failed (%s); degrading per request",
                        len(tickets),
                        exc,
                    )
                    # Each member gets re-attempted individually — that is one
                    # engine retry per request, and the accounting must show it.
                    self.ledger.retried(len(tickets))
                    self.metrics.counter(
                        "serve.retries", "engine retries after faults"
                    ).inc(len(tickets))
                    sleep(self.router.backoff_s(0))
                    for ticket in tickets:
                        self._execute_ladder(ticket, plan, lease=lease)
                    return
                elapsed = monotonic() - started
                per_request = elapsed / len(tickets)
                self.router.estimator.observe(
                    "hunipu", plan.engine_target, per_request
                )
                for ticket, result in zip(tickets, outcome.results):
                    self._complete(
                        ticket,
                        result,
                        backend="hunipu",
                        plan=plan,
                        retries=0,
                        batched=len(tickets),
                        service_s=per_request,
                    )
            finally:
                lease.release()

    def _execute_engine_session(self, ticket: Ticket, plan) -> None:
        """Run a session-bound request through the warm-start path.

        Looks up the session's previous seed, leases an engine at the
        request's exact size, and lets :meth:`HunIPUSolver.resolve` pick
        warm or cold (the changed-row delta decides).  The captured seed
        for the next solve is recorded back into the store either way.
        Engine faults descend the regular backend ladder.
        """
        request = ticket.request
        assert self.sessions is not None and request.session_id
        with self._execute_scope(ticket):
            seed = self.sessions.get(request.session_id, request.size)
            lease = self.pool.acquire(request.size)
            try:
                started = monotonic()
                try:
                    with child_span(
                        "session.resolve",
                        session=request.session_id,
                        seed_hit=seed is not None,
                    ) as span:
                        result = lease.solver.resolve(request.instance, seed)
                        span.set(mode=result.stats["resolve"]["mode"])
                except ReproError as exc:
                    logger.warning(
                        "session solve failed for request %d (%s); "
                        "descending ladder",
                        request.request_id,
                        exc,
                    )
                    self._execute_ladder(ticket, plan, lease=lease)
                    return
                service_s = monotonic() - started
                self.router.estimator.observe("hunipu", request.size, service_s)
                # The seed is process-internal state, not response payload.
                next_seed = result.stats.pop("warm_start", None)
                self.sessions.record(
                    request.session_id,
                    next_seed,
                    supersteps=int(result.stats["supersteps"]),
                    warm_used=bool(result.stats["warm_start_used"]),
                )
                self._complete(
                    ticket,
                    result,
                    backend="hunipu",
                    plan=plan,
                    retries=0,
                    batched=1,
                    service_s=service_s,
                )
            finally:
                lease.release()

    def _execute_ladder(self, ticket: Ticket, plan, lease) -> None:
        """Walk one ticket down its backend ladder (engine leg first).

        Each leg runs inside a ``backend.<name>`` child span of the
        ticket's ``execute`` span; a leg that raises is recorded with
        ``status="error"`` before the ladder descends, so degraded and
        fallback journeys leave a complete span tree.
        """
        request = ticket.request
        retries = 0
        descended_on_error = False
        with correlation_scope(request.correlation_id), self._execute_scope(ticket):
            for position, backend in enumerate(plan.ladder):
                started = monotonic()
                try:
                    with child_span(f"backend.{backend}", position=position):
                        if backend == "hunipu":
                            result, retries = self._engine_attempts(
                                request, plan, lease
                            )
                        elif backend == "fastha":
                            result = self._fastha_solve(request.instance)
                        elif backend == "approx":
                            result = solve_auction(
                                request.instance, seed=self.approx_seed
                            )
                        else:
                            result = self._scipy.solve(request.instance)
                except ReproError as exc:
                    logger.warning(
                        "backend %s failed for request %d (%s); descending ladder",
                        backend,
                        request.request_id,
                        exc,
                    )
                    descended_on_error = True
                    continue
                service_s = monotonic() - started
                self.router.estimator.observe(backend, request.size, service_s)
                fallback_reason = None
                if plan.preempted:
                    fallback_reason = "deadline"
                elif descended_on_error or position > 0:
                    fallback_reason = "engine_error"
                self._complete(
                    ticket,
                    result,
                    backend=backend,
                    plan=plan,
                    retries=retries,
                    batched=1,
                    service_s=service_s,
                    fallback_reason=fallback_reason,
                )
                return
        # Every ladder leg failed — the scipy backstop raising is not an
        # expected state, but the request must still terminate.
        self._reject_ticket(
            ticket, "internal_error", "every backend in the ladder failed"
        )

    def _engine_attempts(self, request: SolveRequest, plan, lease):
        """The engine leg: initial try plus retries with backoff."""
        owned = lease is None
        if owned:
            lease = self.pool.acquire(plan.engine_target)
        try:
            attempts = 1 + self.router.max_retries
            for attempt in range(attempts):
                try:
                    batch_solver = BatchSolver(
                        lease.solver, pad_limit=self.router.pad_limit
                    )
                    outcome = batch_solver.solve_batch([request.instance])
                    return outcome.results[0], attempt
                except ExecutionError:
                    if attempt + 1 >= attempts:
                        raise
                    backoff = self.router.backoff_s(attempt)
                    self.ledger.retried()
                    self.metrics.counter(
                        "serve.retries", "engine retries after faults"
                    ).inc()
                    logger.info(
                        "engine fault on request %d, retrying in %.3f s",
                        request.request_id,
                        backoff,
                    )
                    sleep(backoff)
            raise AssertionError("unreachable")  # pragma: no cover
        finally:
            if owned:
                lease.release()

    def _fastha_solve(self, instance: LAPInstance) -> AssignmentResult:
        """FastHA as an *exact* backend.

        ``FastHASolver.solve_padded`` zero-pads and returns the padded
        problem's result (the paper's timing semantics); a serving fallback
        must answer the original instance, so non-2^m sizes go through the
        batch engine's exact-restriction padding instead.
        """
        if instance.is_power_of_two:
            return self._fastha.solve(instance)
        from repro.batch.solver import _restrict_result, pad_instance_costs

        target = 1 << (instance.size - 1).bit_length()
        padded = LAPInstance(
            pad_instance_costs(instance.costs, target),
            name=f"{instance.name}-servepad{target}",
        )
        return _restrict_result(self._fastha.solve(padded), instance, target)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(
        self,
        ticket: Ticket,
        result: AssignmentResult,
        *,
        backend: str,
        plan,
        retries: int,
        batched: int,
        service_s: float,
        fallback_reason: str | None = None,
    ) -> None:
        request = ticket.request
        if fallback_reason is None and plan.preempted:
            fallback_reason = "deadline"
        gap_bound: float | None = None
        if backend == "approx":
            gap_bound = float(result.stats.get("gap_bound", 0.0))
        if self.verify:
            verify_span = None
            if self.spans.enabled and ticket.spans.execute is not None:
                verify_span = self.spans.start(
                    "verify",
                    correlation_id=request.correlation_id,
                    parent=ticket.spans.execute,
                )
            verified = self._verified(
                request.instance, result, gap_bound=gap_bound
            )
            if verify_span is not None:
                self.spans.end(verify_span, "ok" if verified else "error")
            if not verified:
                self.metrics.counter(
                    "serve.verify_failures", "results that failed scipy verification"
                ).inc()
                self._reject_ticket(
                    ticket,
                    "internal_error",
                    f"result from {backend} failed scipy verification",
                )
                return
        now = monotonic()
        latency = now - request.submitted_at
        degraded = fallback_reason is not None
        deadline_missed = request.expired(now)
        response = SolveResponse(
            request_id=request.request_id,
            status="completed",
            result=result,
            backend=backend,
            degraded=degraded,
            fallback_reason=fallback_reason,
            retries=retries,
            batched=batched,
            queue_wait_s=max(0.0, latency - service_s),
            service_s=service_s,
            latency_s=latency,
            deadline_missed=deadline_missed,
            correlation_id=request.correlation_id,
            gap_bound=gap_bound,
        )
        if not ticket._resolve(response):
            return  # already terminally resolved (e.g. raced cancellation)
        self.ledger.complete(
            backend=backend,
            tier=request.tier,
            latency_s=latency,
            fallback_reason=fallback_reason,
            deadline_missed=deadline_missed,
            gap_bound=gap_bound,
        )
        self.metrics.counter("serve.completed", "requests completed").inc()
        if gap_bound is not None:
            self.metrics.counter(
                "serve.approx.responses",
                "requests answered by the approximate (auction) backend",
            ).inc()
            self.metrics.histogram(
                "serve.approx.gap_bound",
                "certified optimality-gap bound of approximate responses",
                buckets=(0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0),
            ).observe(gap_bound)
        if degraded:
            self.metrics.counter(
                "serve.fallbacks", "requests served by a fallback backend"
            ).inc()
        self.metrics.histogram(
            "serve.latency_seconds",
            "end-to-end request latency",
            buckets=LATENCY_SECONDS_BUCKETS,
        ).observe(latency)
        if self.spans.enabled:
            spans = ticket.spans
            if spans.queue is not None:
                self.spans.end(spans.queue)  # normally closed at dequeue
            if spans.execute is not None:
                spans.execute.set(
                    backend=backend, batched=batched, retries=retries
                )
                if gap_bound is not None:
                    spans.execute.set(gap_bound=gap_bound)
                self.spans.end(spans.execute)
            if spans.root is not None:
                spans.root.set(
                    backend=backend, degraded=degraded, latency_s=latency
                )
                self.spans.end(spans.root, "ok")

    @staticmethod
    def _verified(
        instance: LAPInstance,
        result: AssignmentResult,
        *,
        gap_bound: float | None = None,
    ) -> bool:
        """Check ``result`` against the scipy oracle.

        Exact backends (``gap_bound is None``) must match the optimum to
        within float tolerance.  Approximate results must not *beat* the
        optimum and must stay within their own certified gap bound —
        verification failing here means the certificate lied, which the
        property suite treats as a hard bug.
        """
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(instance.costs)
        optimum = float(instance.costs[rows, cols].sum())
        tolerance = _VERIFY_ABS + _VERIFY_REL * abs(optimum)
        if gap_bound is None:
            return abs(result.total_cost - optimum) <= tolerance
        excess = result.total_cost - optimum
        return -tolerance <= excess <= gap_bound + tolerance

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admission and shut the workers down.

        ``drain=True`` (default) lets workers finish everything queued;
        ``drain=False`` rejects queued requests with ``shutdown``.
        """
        with self._cond:
            self._stopping = True
            self._draining = drain
            self._cond.notify_all()
        for thread in self._workers:
            thread.join(timeout)
        logger.info("SolverService closed (drain=%s)", drain)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """Request counts plus the service's batching and queue counters."""
        with self._stats_lock:
            counters = {
                "batches": self._batches,
                "coalesced": self._coalesced,
                "peak_queue_depth": self._peak_queue_depth,
            }
        return {**self.ledger.document_blocks()["requests"], **counters}

    def stats_document(self, meta: dict | None = None) -> dict:
        """The schema-versioned ``repro.serve/1`` stats export."""
        with self._stats_lock:
            batching = {"batches": self._batches, "coalesced": self._coalesced}
            peak_depth = self._peak_queue_depth
        document = {
            "schema": SERVE_SCHEMA,
            "meta": {
                "workers": len(self._workers),
                "queue_capacity": self.queue_capacity,
                "max_batch": self.max_batch,
                "batch_window_s": self.batch_window_s,
                "verify": self.verify,
                **(meta or {}),
            },
            **self.ledger.document_blocks(),
            "queue": {"depth": self.queue_depth(), "peak_depth": peak_depth},
            "batching": batching,
            "pool": self.pool.stats(),
            "estimator": self.router.estimator.snapshot(),
        }
        if self.sessions is not None:
            document["sessions"] = self.sessions.stats()
        return document

    def prometheus_text(self) -> str:
        """Prometheus text-format exposition of the service's registry.

        Covers every ``serve.*`` / ``pool.*`` instrument the service and
        its pool emit (scrape-ready; see ``docs/serving.md``).
        """
        return metrics_to_prometheus_text(self.metrics)
