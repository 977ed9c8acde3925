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
  coalesces the queued requests the router sends to the same engine shape
  (up to ``max_batch``), leases one warm engine of that shape, and walks
  each member down its backend ladder on that lease, so the group shares
  one compiled graph.  A session-bound request is a batch of one at its
  own size.
* **Routing and graceful degradation** (:mod:`repro.serve.router`): every
  request, batched or not, runs through one ladder walk.  Its engine leg
  solves at the router's ``engine_target``, retries engine faults with
  exponential backoff (each retry counted once, in the ledger and in the
  response) and then descends the tier's backend ladder;
  deadline-pressed requests skip ladder legs preemptively.  Fallbacks are
  flagged ``degraded`` with a reason, and the degradation counters in the
  stats export account for every one.
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
import dataclasses
import logging
import threading
from collections import deque
from time import monotonic, sleep

from repro.baselines.fastha import FastHASolver
from repro.baselines.scipy_reference import ScipySolver
from repro.batch.solver import solve_at_size
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
from repro.serve.request import (
    RejectReason,
    SolveRequest,
    SolveResponse,
    Ticket,
    verify_answer,
)
from repro.serve.router import LatencyEstimator, RoutePlan, Router
from repro.serve.sessions import SessionStore
from repro.serve.stats import RequestLedger

__all__ = ["SolverService"]

logger = logging.getLogger(__name__)


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
        Micro-batch ceiling: how many queued requests bound for the same
        engine shape one worker runs on a single warm engine lease.  Only
        what is already queued is coalesced; a worker never lingers for
        more arrivals.
    pool:
        The warm engine pool; built from ``solver_factory`` /
        ``memory_budget_bytes`` when omitted.
    router:
        Routing/degradation policy; a default :class:`Router` when omitted.
    verify:
        When True, every completed result is checked against the scipy
        optimum (:func:`~repro.serve.request.verify_answer`) before the
        response resolves; mismatches surface as ``internal_error``
        rejections (and a ``serve.verify_failures`` counter) instead of
        silently wrong answers.
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
        engine-bound requests carrying a ``session_id`` run as a batch of
        one on an engine of their own size, through the solver's
        warm-start path, seeded from the session's previous solve (see
        ``docs/serving.md``).
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
            # It opens at the root's start, so the admission wait (this
            # lock, the ledger) is inside it and the children tile the root.
            if self.spans.enabled:
                ticket.spans.queue = self.spans.start(
                    "queue",
                    correlation_id=correlation_id,
                    parent=ticket.spans.root,
                    at=ticket.spans.root.start_s,
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
                self._end_spans(ticket, "rejected", reject=code)
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
            if head is not None:
                self._dispatch(head)

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
        """Plan and micro-batch from ``head``, then walk each ticket's ladder.

        An engine-bound batch leases one engine at the head's
        ``engine_target`` inside the head's ``execute`` scope, so a
        ``pool.compile`` lands in the head request's tree; every member
        then runs its own ladder walk on that lease.
        """
        with correlation_scope(head.request.correlation_id):
            batch = [(head, None)]  # every ticket taken, for the backstop
            try:
                self._mark_dequeued(head)
                plan = self.router.plan(
                    head.request, self.pool.warm_sizes(), monotonic()
                )
                session = plan.backend == "hunipu" and self._session_bound(head.request)
                if session:
                    # Warm-start seeds are shape-exact, so a session
                    # request runs alone on an engine of its own size.
                    plan = dataclasses.replace(plan, engine_target=head.request.size)
                batch = [(head, plan)]
                if plan.backend == "hunipu" and not session and self.max_batch > 1:
                    batch += self._coalesce(plan.engine_target)
                with self._stats_lock:
                    self._batches += 1
                    self._coalesced += len(batch) - 1
                if len(batch) > 1:
                    self.metrics.histogram(
                        "serve.batch_size",
                        "engine micro-batch sizes",
                        buckets=tuple(float(2**i) for i in range(0, 8)),
                    ).observe(len(batch))
                if plan.backend != "hunipu":
                    self._execute_ladder(head, plan, lease=None)
                    return
                with self._execute_scope(head):
                    lease = self.pool.acquire(plan.engine_target)
                try:
                    for ticket, ticket_plan in batch:
                        self._execute_ladder(
                            ticket, ticket_plan, lease, batched=len(batch)
                        )
                finally:
                    lease.release()
            except Exception:  # pragma: no cover - backstop, must not die
                logger.exception("worker crashed on request %d", head.request_id)
                for ticket, _ in batch:
                    self._reject_ticket(
                        ticket, "internal_error", "unexpected worker failure"
                    )

    def _session_bound(self, request: SolveRequest) -> bool:
        """True when the engine leg solves ``request`` from its session's seed."""
        return self.sessions is not None and bool(request.session_id)

    def _mark_dequeued(self, ticket: Ticket) -> None:
        """A worker picked the ticket up: close ``queue``, open ``execute``.

        ``execute`` opens at the instant ``queue`` closed, so the two
        children tile the root with no gap between them.
        """
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
                at=None if spans.queue is None else spans.queue.end_s,
            )

    def _end_spans(self, ticket: Ticket, status: str, **root_attributes) -> None:
        """Close a request's open spans; the root ends where its last child did.

        A ``queue`` span already closed at dequeue keeps its status
        (:meth:`~repro.obs.spans.SpanCollector.end` is idempotent).
        """
        spans = ticket.spans
        last = None
        for child in (spans.queue, spans.execute):
            if child is not None:
                self.spans.end(child, status)
                last = child
        if spans.root is not None:
            spans.root.set(**root_attributes)
            self.spans.end(
                spans.root, status, at=None if last is None else last.end_s
            )

    def _execute_scope(self, ticket: Ticket):
        """Context manager making the ticket's ``execute`` span ambient.

        Inside it, :func:`repro.obs.spans.child_span` calls from deep
        layers (the BSP engine, the pool's compile path) attach to this
        request's tree.  A no-op when spans are disabled.
        """
        if self.spans.enabled and ticket.spans.execute is not None:
            return self.spans.activate(ticket.spans.execute)
        return contextlib.nullcontext()

    def _coalesce(self, engine_target: int) -> list[tuple[Ticket, RoutePlan]]:
        """Pull queued tickets the router sends to the ``engine_target`` engine.

        Each comes back with its own plan, so a member keeps its own
        tier's ladder.  Session-bound tickets are left queued: they run
        alone.
        """
        gathered: list[tuple[Ticket, RoutePlan]] = []
        with self._cond:
            keep: deque[Ticket] = deque()
            while self._queue and len(gathered) < self.max_batch - 1:
                candidate = self._queue.popleft()
                if (
                    candidate.cancelled
                    or candidate.request.expired()
                    or self._session_bound(candidate.request)
                ):
                    # Re-route through the terminal resolution path, or
                    # leave for a worker of its own.
                    keep.append(candidate)
                    continue
                candidate_plan = self.router.plan(
                    candidate.request, self.pool.warm_sizes(), monotonic()
                )
                if (
                    candidate_plan.backend == "hunipu"
                    and candidate_plan.engine_target == engine_target
                ):
                    self._mark_dequeued(candidate)
                    gathered.append((candidate, candidate_plan))
                else:
                    keep.append(candidate)
            # Preserve arrival order for everything we did not take.
            keep.extend(self._queue)
            self._queue.clear()
            self._queue.extend(keep)
            if self._queue:
                self._cond.notify()
        return gathered

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_ladder(self, ticket: Ticket, plan, lease, *, batched: int = 1) -> None:
        """Walk one ticket down its backend ladder (engine leg first).

        Each attempt at a leg runs inside a ``backend.<name>`` child span
        of the ticket's ``execute`` span; an attempt that raises is
        recorded with ``status="error"``.  The engine leg solves on
        ``lease`` (the batch's engine) and makes ``1 + router.max_retries``
        attempts on :class:`~repro.errors.ExecutionError`, backing off
        between them and counting each retry once, in the ledger and in
        the response.  Any other failure, or the last engine fault,
        descends the ladder, so degraded and fallback journeys leave a
        complete span tree.
        """
        request = ticket.request
        retries = 0
        descended_on_error = False
        with correlation_scope(request.correlation_id), self._execute_scope(ticket):
            for position, backend in enumerate(plan.ladder):
                engine = backend == "hunipu"
                attempts = 1 + self.router.max_retries if engine else 1
                started = monotonic()
                for attempt in range(attempts):
                    if attempt:
                        backoff = self.router.backoff_s(attempt - 1)
                        retries += 1
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
                    try:
                        with child_span(
                            f"backend.{backend}", position=position, attempt=attempt
                        ):
                            result = self._solve_on(backend, request, plan, lease)
                    except ExecutionError as exc:
                        error = exc
                        continue  # retry; past the last attempt, descend
                    except ReproError as exc:
                        error = exc
                        break
                    service_s = monotonic() - started
                    # ``Router.plan`` reads the engine estimate at the
                    # target shape, so that is where it is fed.
                    self.router.estimator.observe(
                        backend,
                        plan.engine_target if engine else request.size,
                        service_s,
                    )
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
                        batched=batched,
                        service_s=service_s,
                        fallback_reason=fallback_reason,
                    )
                    return
                logger.warning(
                    "backend %s failed for request %d (%s); descending ladder",
                    backend,
                    request.request_id,
                    error,
                )
                descended_on_error = True
        # Every ladder leg failed — the scipy backstop raising is not an
        # expected state, but the request must still terminate.
        self._reject_ticket(
            ticket, "internal_error", "every backend in the ladder failed"
        )

    def _solve_on(
        self, backend: str, request: SolveRequest, plan, lease
    ) -> AssignmentResult:
        """One attempt at ``backend``; the engine leg solves on ``lease``."""
        instance = request.instance
        if backend == "fastha":
            return self._fastha_solve(instance)
        if backend == "approx":
            return solve_auction(instance, seed=self.approx_seed)
        if backend != "hunipu":
            return self._scipy.solve(instance)
        if not self._session_bound(request):
            return solve_at_size(lease.solver, instance, plan.engine_target)
        # A session request: let :meth:`HunIPUSolver.resolve` pick warm or
        # cold from the session's previous seed (the changed-row delta
        # decides), and record the seed it captures for the next solve.
        seed = self.sessions.get(request.session_id, request.size)
        with child_span(
            "session.resolve", session=request.session_id, seed_hit=seed is not None
        ) as span:
            result = lease.solver.resolve(instance, seed)
            span.set(mode=result.stats["resolve"]["mode"])
        # The seed is process-internal state, not response payload.
        next_seed = result.stats.pop("warm_start", None)
        self.sessions.record(
            request.session_id,
            next_seed,
            supersteps=int(result.stats["supersteps"]),
            warm_used=bool(result.stats["warm_start_used"]),
        )
        return result

    def _fastha_solve(self, instance: LAPInstance) -> AssignmentResult:
        """FastHA as an *exact* backend.

        ``FastHASolver.solve_padded`` zero-pads and returns the padded
        problem's result (the paper's timing semantics); a serving fallback
        must answer the original instance, so non-2^m sizes go through the
        batch engine's exact-restriction padding instead.
        """
        target = 1 << (instance.size - 1).bit_length()
        return solve_at_size(self._fastha, instance, target)

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
            verified = verify_answer(
                request.instance,
                result.assignment,
                result.total_cost,
                gap_bound=gap_bound,
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
            execute = ticket.spans.execute
            if execute is not None:
                execute.set(backend=backend, batched=batched, retries=retries)
                if gap_bound is not None:
                    execute.set(gap_bound=gap_bound)
            self._end_spans(
                ticket, "ok", backend=backend, degraded=degraded, latency_s=latency
            )

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
