"""Multi-process serving: worker pool, supervisor, and re-dispatch.

One :class:`SolverService` scales across threads but stays pinned to one
Python process (and one GIL).  :class:`WorkerPool` runs **N worker
processes** (``multiprocessing`` *spawn* context — no inherited locks, no
fork-unsafe state), each owning a full private service stack: warm engine
pool, router, latency estimator, verification, and the approximate tier.

Sharding
--------
Requests are routed to ``size % workers``: each worker's warm pool then
sees a stable slice of the shape distribution, so compile-cache hit rates
stay as high as the single-process service's instead of every worker
cold-compiling every shape.  When the home shard is down, the request
walks to the next live worker (deterministically, so seeded load runs
stay reproducible).

Supervision
-----------
The supervisor owns three invariants, exercised by the fault-injection
battery in ``tests/serve/test_workers.py``:

* **Nothing is lost.**  Every submitted request terminates as a completed
  wire response or a typed reject — including requests that were on a
  worker when it died (SIGKILL, ``os._exit``, segfault).  The monitor
  thread detects death by process liveness, re-dispatches the dead
  worker's in-flight requests to live workers (bounded by
  ``max_redispatch``), and rejects with the typed code ``worker_lost``
  when the budget is exhausted or no live worker remains.
* **Workers come back.**  A dead worker is restarted with exponential
  backoff (fresh process, fresh task queue — the old queue may hold
  half-consumed state).  Restart counts and exit codes are exported.
* **Correlation survives.**  The pool-level correlation id rides the task
  payload and is stamped back onto the wire response by whichever worker
  (or re-dispatch) finally answers; clients never see an id change.

Wire format
-----------
Responses cross the process boundary as plain dicts in the
``repro.solve-response/1`` wire schema (validated by
:func:`repro.obs.export.validate_solve_response`) — the same documents the
HTTP front-end returns, so the HTTP layer is a thin codec over this pool.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import threading
from time import monotonic, sleep

import numpy as np

from repro.obs.export import _WIRE_ONLY_REJECT_CODES, SOLVE_RESPONSE_SCHEMA
from repro.obs.metrics import (
    LATENCY_SECONDS_BUCKETS,
    MetricsRegistry,
    metrics_to_prometheus_text,
)
from repro.serve.request import REJECT_CODES
from repro.serve.stats import RequestLedger

__all__ = ["PoolTicket", "WorkerPool", "reject_document", "wire_response"]

logger = logging.getLogger(__name__)

#: Default ceiling on re-dispatches of one request after worker deaths.
_MAX_REDISPATCH = 2

#: Liveness poll cadence of the monitor thread (seconds).
_MONITOR_INTERVAL_S = 0.02

#: How long ``close()`` waits for a worker to exit before terminating it.
_JOIN_TIMEOUT_S = 5.0


def wire_response(
    response,
    *,
    request_id: int,
    correlation_id: str,
    tier: str,
    worker: int | None = None,
) -> dict:
    """Flatten a :class:`~repro.serve.request.SolveResponse` to the wire.

    The pool-level ``request_id`` / ``correlation_id`` override the
    worker-local ones — the ids a client correlates on must survive
    re-dispatch to a different worker process.
    """
    if response.reject is not None:
        return reject_document(
            request_id=request_id,
            correlation_id=correlation_id,
            tier=tier,
            code=response.reject.code,
            detail=response.reject.detail,
            worker=worker,
        )
    return {
        "schema": SOLVE_RESPONSE_SCHEMA,
        "request_id": int(request_id),
        "correlation_id": correlation_id,
        "status": response.status,
        "tier": tier,
        "backend": response.backend,
        "degraded": response.degraded,
        "fallback_reason": response.fallback_reason,
        "retries": response.retries,
        "queue_wait_s": response.queue_wait_s,
        "service_s": response.service_s,
        "latency_s": response.latency_s,
        "deadline_missed": response.deadline_missed,
        "gap_bound": response.gap_bound,
        "worker": worker,
        "assignment": [int(c) for c in response.result.assignment],
        "total_cost": float(response.result.total_cost),
        "reject": None,
    }


def reject_document(
    *,
    request_id: int,
    correlation_id: str,
    tier: str | None,
    code: str,
    detail: str,
    worker: int | None = None,
) -> dict:
    """The typed-reject wire document, wherever the reject was decided.

    The service's rejects (via :func:`wire_response`), the supervisor's
    own and the HTTP front-end's pre-submission ones all go through here,
    so every rejected reply carries the same keys.
    """
    assert code in REJECT_CODES + _WIRE_ONLY_REJECT_CODES, code
    return {
        "schema": SOLVE_RESPONSE_SCHEMA,
        "request_id": int(request_id),
        "correlation_id": correlation_id,
        "status": "rejected",
        "tier": tier,
        "backend": None,
        "degraded": False,
        "fallback_reason": None,
        "retries": 0,
        "queue_wait_s": 0.0,
        "service_s": 0.0,
        "latency_s": 0.0,
        "deadline_missed": False,
        "gap_bound": None,
        "worker": worker,
        "assignment": None,
        "total_cost": None,
        "reject": {"code": code, "detail": detail},
    }


def _worker_main(worker_index: int, config: dict, task_queue, result_queue) -> None:
    """Entry point of one worker process (must be importable for spawn).

    Builds a private :class:`~repro.serve.service.SolverService` and
    serves tasks until a ``("stop",)`` message arrives.  A dispatcher
    pulls messages and submits tickets (admission control included — a
    full worker queue produces typed ``queue_full`` rejects, not
    blocking); waiter threads block on ticket resolution and post wire
    responses, so the worker overlaps as many solves as its service has
    threads.
    """
    from repro.errors import ReproError
    from repro.lap.problem import LAPInstance
    from repro.serve.service import SolverService

    fault_spec = config.get("fault_spec")
    solver_factory = None
    if fault_spec and worker_index in fault_spec.get(
        "workers", range(config["workers"])
    ):
        from repro.serve.faults import flaky_factory

        spec = {k: v for k, v in fault_spec.items() if k != "workers"}
        solver_factory = flaky_factory(**spec)

    service = SolverService(
        workers=config.get("threads", 2),
        queue_capacity=config.get("queue_capacity", 64),
        max_batch=config.get("max_batch", 8),
        verify=config.get("verify", False),
        approx_seed=config.get("approx_seed", 0),
        solver_factory=solver_factory,
    )
    try:
        service.pool.warm(config.get("warm_sizes", ()))
    except ReproError:  # pragma: no cover - warmup is best-effort
        logger.exception("worker %d warmup failed", worker_index)

    pending: queue.Queue = queue.Queue()

    def waiter() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            task, ticket = item
            response = ticket.response()
            result_queue.put(
                (
                    "result",
                    worker_index,
                    task["task_id"],
                    wire_response(
                        response,
                        request_id=task["task_id"],
                        correlation_id=task["correlation_id"],
                        tier=task["tier"],
                        worker=worker_index,
                    ),
                )
            )

    waiters = [
        threading.Thread(target=waiter, daemon=True)
        for _ in range(config.get("threads", 2))
    ]
    for thread in waiters:
        thread.start()

    result_queue.put(("ready", worker_index, os.getpid()))
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "stats":
            result_queue.put(
                ("stats", worker_index, message[1], service.stats_document())
            )
            continue
        task = message[1]
        try:
            instance = LAPInstance(
                np.asarray(task["costs"], dtype=np.float64),
                name=task.get("name", f"task-{task['task_id']}"),
            )
            ticket = service.submit(
                instance,
                tier=task["tier"],
                deadline_s=task["deadline_s"],
                session_id=task.get("session_id"),
            )
            pending.put((task, ticket))
        except ReproError as exc:
            result_queue.put(
                (
                    "result",
                    worker_index,
                    task["task_id"],
                    reject_document(
                        request_id=task["task_id"],
                        correlation_id=task["correlation_id"],
                        tier=task.get("tier", "auto"),
                        code="invalid",
                        detail=str(exc),
                        worker=worker_index,
                    ),
                )
            )
    for _ in waiters:
        pending.put(None)
    for thread in waiters:
        thread.join(timeout=_JOIN_TIMEOUT_S)
    service.close()


class PoolTicket:
    """Future-like handle for one :meth:`WorkerPool.submit` call.

    ``response()`` blocks until the pool delivers the terminal
    ``repro.solve-response/1`` wire document (a plain dict).
    """

    def __init__(self, request_id: int, correlation_id: str) -> None:
        self.request_id = request_id
        self.correlation_id = correlation_id
        self._done = threading.Event()
        self._response: dict | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def response(self, timeout: float | None = None) -> dict:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout} s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, document: dict) -> bool:
        if self._done.is_set():
            return False
        self._response = document
        self._done.set()
        return True


class _WorkerHandle:
    """Supervisor-side state of one worker slot (survives restarts)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: multiprocessing.Process | None = None
        self.task_queue = None
        self.ready = False
        self.pid: int | None = None
        self.restarts = 0
        self.consecutive_failures = 0
        self.restart_at = 0.0  # monotonic deadline of the next restart try
        self.last_exit_code: int | None = None
        self.last_stats: dict | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _InFlight:
    """One submitted request's supervisor-side record."""

    __slots__ = ("task", "ticket", "worker", "attempts", "submitted_at", "tier")

    def __init__(self, task: dict, ticket: PoolTicket, worker: int) -> None:
        self.task = task
        self.ticket = ticket
        self.worker = worker
        self.attempts = 0
        self.submitted_at = monotonic()
        self.tier = task["tier"]


class WorkerPool:
    """N spawn-context worker processes behind one supervisor.

    Parameters
    ----------
    workers:
        Worker process count.
    threads:
        Service worker threads *inside* each worker process.
    verify:
        Verify every completed result against the scipy oracle inside the
        worker (same semantics as :class:`~repro.serve.service.SolverService`).
    warm_sizes:
        Shapes each worker pre-compiles at startup (sharding means a
        worker only actually serves the sizes congruent to its index, but
        warming is cheap and keeps startup simple).
    max_redispatch:
        How many times one request may be re-dispatched after worker
        deaths before it is rejected ``worker_lost``.
    restart_backoff_s:
        Base of the per-worker exponential restart backoff
        (``base * 2**consecutive_failures``).  Tests pin this high to
        create a "no live workers" window deterministically.
    fault_spec:
        Fault-injection config forwarded to
        :func:`repro.serve.faults.flaky_factory` inside selected workers —
        a plain dict (picklable across spawn, unlike a factory closure).
        The optional ``"workers"`` key restricts injection to those worker
        indices.
    approx_seed:
        Forwarded to each worker's service (approximate-tier determinism
        is preserved across process restarts).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        threads: int = 2,
        queue_capacity: int = 64,
        max_batch: int = 8,
        verify: bool = False,
        warm_sizes: tuple[int, ...] = (),
        max_redispatch: int = _MAX_REDISPATCH,
        restart_backoff_s: float = 0.05,
        fault_spec: dict | None = None,
        approx_seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.max_redispatch = int(max_redispatch)
        self.restart_backoff_s = float(restart_backoff_s)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._config = {
            "workers": self.workers,
            "threads": int(threads),
            "queue_capacity": int(queue_capacity),
            "max_batch": int(max_batch),
            "verify": bool(verify),
            "warm_sizes": tuple(warm_sizes),
            "fault_spec": fault_spec,
            "approx_seed": int(approx_seed),
        }
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._lock = threading.Lock()
        self._next_id = 0
        self._inflight: dict[int, _InFlight] = {}
        self._stats_waiters: dict[tuple[int, int], tuple[threading.Event, list]] = {}
        self._closed = False
        # Pool-level accounting (authoritative: workers may die, the
        # supervisor's books may not).
        self.ledger = RequestLedger()
        self._redispatched = 0

        self._handles = [_WorkerHandle(index) for index in range(self.workers)]
        for handle in self._handles:
            self._start_worker(handle)
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="pool-monitor", daemon=True
        )
        self._collector.start()
        self._monitor.start()
        logger.info(
            "WorkerPool up: %d processes x %d threads (spawn)",
            self.workers,
            threads,
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _start_worker(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker slot with a fresh task queue and process."""
        handle.task_queue = self._ctx.Queue()
        handle.ready = False
        handle.process = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.index,
                self._config,
                handle.task_queue,
                self._result_queue,
            ),
            name=f"pool-worker-{handle.index}",
            daemon=True,
        )
        handle.process.start()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker has reported ready (built its service)."""
        deadline = monotonic() + timeout
        while monotonic() < deadline:
            with self._lock:
                if all(handle.ready for handle in self._handles):
                    return
            sleep(0.01)
        raise TimeoutError(f"workers not ready within {timeout} s")

    def worker_pids(self) -> dict[int, int | None]:
        """Live worker index → OS pid (None while restarting)."""
        with self._lock:
            return {
                handle.index: (handle.process.pid if handle.alive else None)
                for handle in self._handles
            }

    def healthy(self) -> bool:
        """True when every worker slot is alive and ready."""
        with self._lock:
            return all(handle.alive and handle.ready for handle in self._handles)

    # ------------------------------------------------------------------
    # Submission and routing
    # ------------------------------------------------------------------

    def shard_of(self, size: int) -> int:
        """Home worker of a shape: stable sharding keeps pools warm."""
        return size % self.workers

    def _route(self, size: int) -> _WorkerHandle | None:
        """Home shard if alive, else the next live worker; None if none."""
        home = self.shard_of(size)
        for offset in range(self.workers):
            handle = self._handles[(home + offset) % self.workers]
            if handle.alive and handle.ready:
                return handle
        return None

    def submit(
        self,
        costs,
        *,
        tier: str = "auto",
        deadline_s: float | None = None,
        session_id: str | None = None,
        name: str | None = None,
        correlation_id: str | None = None,
    ) -> PoolTicket:
        """Dispatch one solve to its shard; never blocks on workers.

        Always returns a ticket; admission failures (pool closed, no live
        worker) resolve it immediately with a typed reject.
        """
        costs = np.asarray(costs, dtype=np.float64)
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        self.ledger.admit()
        if correlation_id is None:
            correlation_id = f"req-{request_id:06d}"
        ticket = PoolTicket(request_id, correlation_id)
        task = {
            "task_id": request_id,
            "costs": costs,
            "name": name or f"req-{request_id:06d}",
            "tier": tier,
            "deadline_s": deadline_s,
            "session_id": session_id,
            "correlation_id": correlation_id,
        }
        self.metrics.counter("serve.pool_proc.submitted", "pool submissions").inc()
        size = int(costs.shape[0]) if costs.ndim == 2 else 0
        # Check for shutdown under the lock close() sweeps in-flight work
        # with, so a request is either swept or never registered.
        with self._lock:
            handle = None if self._closed else self._route(size)
            if handle is not None:
                self._inflight[request_id] = _InFlight(task, ticket, handle.index)
            elif self._closed:
                code, detail = "shutdown", "worker pool is shut down"
            else:
                code, detail = "worker_lost", "no live worker available"
        if handle is None:
            self._resolve(
                ticket,
                reject_document(
                    request_id=request_id,
                    correlation_id=correlation_id,
                    tier=tier,
                    code=code,
                    detail=detail,
                ),
            )
            return ticket
        handle.task_queue.put(("task", task))
        return ticket

    def solve(self, costs, *, timeout: float | None = 60.0, **kwargs) -> dict:
        """Blocking convenience: submit and wait for the wire response."""
        return self.submit(costs, **kwargs).response(timeout)

    # ------------------------------------------------------------------
    # Supervisor threads
    # ------------------------------------------------------------------

    def _collect_loop(self) -> None:
        """Drain worker results and resolve tickets / stats waiters."""
        while True:
            try:
                message = self._result_queue.get(timeout=0.05)
            except queue.Empty:
                if self._closed and not self._inflight:
                    return
                continue
            kind = message[0]
            if kind == "ready":
                _, index, pid = message
                with self._lock:
                    handle = self._handles[index]
                    handle.ready = True
                    handle.pid = pid
                    handle.consecutive_failures = 0
                continue
            if kind == "stats":
                _, index, token, document = message
                with self._lock:
                    self._handles[index].last_stats = document
                    waiter = self._stats_waiters.pop((index, token), None)
                if waiter is not None:
                    event, slot = waiter
                    slot.append(document)
                    event.set()
                continue
            if kind == "result":
                _, index, task_id, document = message
                with self._lock:
                    entry = self._inflight.pop(task_id, None)
                if entry is None:
                    continue  # duplicate after re-dispatch; first one won
                self._resolve(entry.ticket, document, entry=entry)

    def _monitor_loop(self) -> None:
        """Detect dead workers, re-dispatch their in-flight, restart them."""
        while not self._closed:
            sleep(_MONITOR_INTERVAL_S)
            now = monotonic()
            dead: list[_WorkerHandle] = []
            with self._lock:
                for handle in self._handles:
                    if handle.process is None or handle.alive:
                        continue
                    if handle.ready or handle.restart_at == 0.0:
                        # Fresh death (not an already-scheduled restart).
                        handle.last_exit_code = handle.process.exitcode
                        handle.ready = False
                        handle.consecutive_failures += 1
                        backoff = self.restart_backoff_s * (
                            2.0 ** (handle.consecutive_failures - 1)
                        )
                        handle.restart_at = now + backoff
                        dead.append(handle)
                        logger.warning(
                            "worker %d died (exit %s); restart in %.3f s",
                            handle.index,
                            handle.last_exit_code,
                            backoff,
                        )
                    elif now >= handle.restart_at:
                        handle.restarts += 1
                        handle.restart_at = 0.0
                        self.metrics.counter(
                            "serve.pool_proc.restarts", "worker restarts"
                        ).inc()
                        self._start_worker(handle)
            for handle in dead:
                self.metrics.counter(
                    "serve.pool_proc.worker_deaths", "worker process deaths"
                ).inc()
                self._redispatch_from(handle.index)

    def _redispatch_from(self, worker_index: int) -> None:
        """Re-dispatch (or typed-reject) a dead worker's in-flight work."""
        with self._lock:
            orphans = [
                entry
                for entry in self._inflight.values()
                if entry.worker == worker_index
            ]
        for entry in orphans:
            task = entry.task
            entry.attempts += 1
            deadline = task["deadline_s"]
            expired = (
                deadline is not None
                and monotonic() - entry.submitted_at >= deadline
            )
            with self._lock:
                target = (
                    None
                    if (expired or entry.attempts > self.max_redispatch)
                    else self._route(int(task["costs"].shape[0]))
                )
                if target is not None:
                    entry.worker = target.index
                else:
                    self._inflight.pop(task["task_id"], None)
            if target is None:
                code = "deadline_expired" if expired else "worker_lost"
                detail = (
                    f"deadline expired after worker {worker_index} died"
                    if expired
                    else (
                        f"worker {worker_index} died; "
                        f"re-dispatch budget ({self.max_redispatch}) exhausted "
                        "or no live worker"
                    )
                )
                self._resolve(
                    entry.ticket,
                    reject_document(
                        request_id=task["task_id"],
                        correlation_id=task["correlation_id"],
                        tier=task["tier"],
                        code=code,
                        detail=detail,
                    ),
                    entry=entry,
                    pop_inflight=False,
                )
                continue
            with self._lock:
                self._redispatched += 1
            self.metrics.counter(
                "serve.pool_proc.redispatched",
                "requests re-dispatched after a worker death",
            ).inc()
            logger.info(
                "re-dispatching request %d (attempt %d) from dead worker %d "
                "to worker %d",
                task["task_id"],
                entry.attempts,
                worker_index,
                target.index,
            )
            target.task_queue.put(("task", task))

    # ------------------------------------------------------------------
    # Terminal accounting
    # ------------------------------------------------------------------

    def _resolve(
        self,
        ticket: PoolTicket,
        document: dict,
        *,
        entry: _InFlight | None = None,
        pop_inflight: bool = True,
    ) -> None:
        if pop_inflight and entry is not None:
            with self._lock:
                self._inflight.pop(ticket.request_id, None)
        if not ticket._resolve(document):
            return
        latency = (
            monotonic() - entry.submitted_at if entry is not None else 0.0
        )
        if document["status"] == "completed":
            gap = document.get("gap_bound")
            self.ledger.complete(
                backend=document["backend"],
                tier=document["tier"],
                latency_s=latency,
                fallback_reason=(
                    (document.get("fallback_reason") or "engine_error")
                    if document.get("degraded")
                    else None
                ),
                deadline_missed=bool(document.get("deadline_missed")),
                gap_bound=None if gap is None else float(gap),
            )
            self.ledger.retried(int(document.get("retries", 0)))
        else:
            self.ledger.reject(document["reject"]["code"])
        if document["status"] == "completed":
            self.metrics.counter(
                "serve.pool_proc.completed", "pool requests completed"
            ).inc()
            self.metrics.histogram(
                "serve.pool_proc.latency_seconds",
                "pool end-to-end latency",
                buckets=LATENCY_SECONDS_BUCKETS,
            ).observe(latency)
        else:
            self.metrics.counter(
                f"serve.pool_proc.rejected.{document['reject']['code']}",
                "pool requests rejected",
            ).inc()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def worker_stats(self, timeout: float = 2.0) -> dict[int, dict | None]:
        """Poll every live worker's ``repro.serve/1`` document.

        Dead or unresponsive workers report their last known snapshot
        (None if never polled) — stats must never hang the caller.
        """
        token = 0
        waiters: list[tuple[int, threading.Event, list]] = []
        with self._lock:
            self._stats_token = getattr(self, "_stats_token", 0) + 1
            token = self._stats_token
            for handle in self._handles:
                if not (handle.alive and handle.ready):
                    continue
                event = threading.Event()
                slot: list = []
                self._stats_waiters[(handle.index, token)] = (event, slot)
                waiters.append((handle.index, event, slot))
        for index, _, _ in waiters:
            self._handles[index].task_queue.put(("stats", token))
        deadline = monotonic() + timeout
        for index, event, slot in waiters:
            event.wait(max(0.0, deadline - monotonic()))
        with self._lock:
            for index, event, slot in waiters:
                self._stats_waiters.pop((index, token), None)
            return {
                handle.index: handle.last_stats for handle in self._handles
            }

    def stats_document(self, meta: dict | None = None) -> dict:
        """Pool-level ``repro.serve/1`` document (supervisor's books).

        The accounting invariant (submitted == completed + rejected +
        in_flight) holds at the supervisor, regardless of worker deaths;
        per-worker engine-pool blocks are aggregated from the most recent
        worker snapshots.
        """
        from repro.obs.export import SERVE_SCHEMA

        blocks = self.ledger.document_blocks()
        with self._lock:
            redispatched = self._redispatched
            workers_block = {
                str(handle.index): {
                    "alive": handle.alive,
                    "ready": handle.ready,
                    "pid": handle.pid,
                    "restarts": handle.restarts,
                    "last_exit_code": handle.last_exit_code,
                }
                for handle in self._handles
            }
            engine_pool = {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "resident_bytes": 0,
                "shapes": [],
            }
            for handle in self._handles:
                doc = handle.last_stats
                if not doc:
                    continue
                block = doc.get("pool", {})
                for key in ("hits", "misses", "evictions", "resident_bytes"):
                    engine_pool[key] += int(block.get(key, 0))
                engine_pool["shapes"] = sorted(
                    set(engine_pool["shapes"]) | set(block.get("shapes", []))
                )
        return {
            "schema": SERVE_SCHEMA,
            "meta": {
                "workers": self.workers,
                "queue_capacity": self._config["queue_capacity"],
                "max_batch": self._config["max_batch"],
                "verify": self._config["verify"],
                "mode": "multiprocess",
                **(meta or {}),
            },
            **blocks,
            "queue": {"depth": blocks["requests"]["in_flight"], "peak_depth": 0},
            "batching": {"batches": 0, "coalesced": 0},
            "pool": engine_pool,
            "estimator": {},
            "supervisor": {
                "redispatched": redispatched,
                "restarts": sum(
                    block["restarts"] for block in workers_block.values()
                ),
                "workers": workers_block,
            },
        }

    def prometheus_text(self) -> str:
        """Pool-level ``serve.pool_proc.*`` metrics in exposition format."""
        return metrics_to_prometheus_text(self.metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, timeout: float = _JOIN_TIMEOUT_S) -> None:
        """Stop workers; outstanding requests get typed ``shutdown`` rejects."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans = list(self._inflight.values())
            self._inflight.clear()
        for entry in orphans:
            self._resolve(
                entry.ticket,
                reject_document(
                    request_id=entry.task["task_id"],
                    correlation_id=entry.task["correlation_id"],
                    tier=entry.tier,
                    code="shutdown",
                    detail="worker pool is shutting down",
                ),
                pop_inflight=False,
            )
        for handle in self._handles:
            if handle.alive:
                try:
                    handle.task_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(timeout)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(1.0)
        self._monitor.join(timeout=1.0)
        self._collector.join(timeout=1.0)
        logger.info("WorkerPool closed")

    def __enter__(self) -> "WorkerPool":
        self.wait_ready()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
