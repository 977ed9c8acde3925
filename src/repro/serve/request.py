"""Request/response types of the serving layer.

A :class:`SolveRequest` wraps one LAP instance with the serving metadata the
router and admission controller act on — a **quality tier** and an optional
**deadline** — and a :class:`SolveResponse` records how the service disposed
of it.  The cardinal invariant of the subsystem is that *every* submitted
request ends in exactly one of two terminal states:

* ``completed`` — an :class:`~repro.lap.result.AssignmentResult` is attached,
  possibly served by a fallback backend (``degraded=True``, never silently);
* ``rejected`` — a typed :class:`RejectReason` is attached (queue full,
  deadline expired, cancelled, shutdown, invalid input, internal error).

Nothing is ever dropped on the floor; the ``repro.serve/1`` stats validator
(:func:`repro.obs.export.validate_serve_stats`) enforces the accounting.
"""

from __future__ import annotations

import dataclasses
import threading
from time import monotonic
from typing import Any

import numpy as np

from repro.errors import InvalidProblemError
from repro.lap.problem import LAPInstance
from repro.lap.result import AssignmentResult

__all__ = [
    "QUALITY_TIERS",
    "REJECT_CODES",
    "RejectReason",
    "RequestSpans",
    "SolveRequest",
    "SolveResponse",
    "Ticket",
    "verify_answer",
]

#: Answer tolerance against the scipy optimum, absolute plus relative (the
#: scale of the library's differential tests).
_VERIFY_ABS = 1e-6
_VERIFY_REL = 1e-9

#: Quality/latency tiers a request can declare:
#:
#: ``"ipu"``
#:     The paper path: solve on the warm HunIPU engine pool, full device
#:     model.  Falls back (flagged degraded) only on engine faults.
#: ``"auto"``
#:     Balanced (default): the engine when the deadline budget allows it,
#:     descending the degradation ladder (engine → FastHA → scipy)
#:     preemptively when it does not.
#: ``"fast"``
#:     Latency-first: straight to the scipy backend, no device model.
#: ``"approx"``
#:     Deadline-first: the seeded auction solver
#:     (:func:`repro.lap.approx.solve_auction`), which trades exactness for
#:     speed and reports a certified optimality-gap bound on every
#:     response (``SolveResponse.gap_bound``).
QUALITY_TIERS = ("ipu", "auto", "fast", "approx")

#: Closed set of typed rejection codes (the stats export groups by these).
#: ``worker_lost`` is the multi-process pool's code: the owning worker
#: process died mid-request and the re-dispatch budget ran out (or no live
#: worker was available to take the request).
REJECT_CODES = (
    "queue_full",
    "deadline_expired",
    "cancelled",
    "shutdown",
    "invalid",
    "internal_error",
    "worker_lost",
)


@dataclasses.dataclass(frozen=True)
class RejectReason:
    """Why a request was rejected; ``code`` is one of :data:`REJECT_CODES`."""

    code: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.code not in REJECT_CODES:
            raise ValueError(
                f"unknown reject code {self.code!r}, expected one of "
                f"{REJECT_CODES}"
            )


@dataclasses.dataclass(frozen=True)
class SolveRequest:
    """One admitted unit of work.

    ``deadline_s`` is a *relative* budget in seconds from submission; the
    service stamps the absolute monotonic deadline at admission time.
    """

    instance: LAPInstance
    tier: str = "auto"
    deadline_s: float | None = None
    request_id: int = -1
    submitted_at: float = dataclasses.field(default=0.0, compare=False)
    #: Correlation id shared by every span and log line of this request
    #: (``req-<id>`` stamped by the service at submission).
    correlation_id: str = dataclasses.field(default="", compare=False)
    #: Client-chosen session id linking repeated solves of a drifting
    #: instance; with a session store enabled, engine-bound follow-ups are
    #: warm-started from the session's previous solve.
    session_id: str | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.tier not in QUALITY_TIERS:
            raise InvalidProblemError(
                f"unknown quality tier {self.tier!r}, expected one of "
                f"{QUALITY_TIERS}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise InvalidProblemError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    @property
    def size(self) -> int:
        return self.instance.size

    @property
    def deadline_at(self) -> float | None:
        """Absolute monotonic deadline (None = no deadline)."""
        if self.deadline_s is None:
            return None
        return self.submitted_at + self.deadline_s

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds of deadline budget left (None = unbounded)."""
        deadline = self.deadline_at
        if deadline is None:
            return None
        return deadline - (now if now is not None else monotonic())

    def expired(self, now: float | None = None) -> bool:
        remaining = self.remaining(now)
        return remaining is not None and remaining <= 0


@dataclasses.dataclass(frozen=True)
class SolveResponse:
    """Terminal disposition of one request."""

    request_id: int
    status: str  # "completed" | "rejected"
    result: AssignmentResult | None = None
    reject: RejectReason | None = None
    backend: str | None = None  # solver that produced ``result``
    degraded: bool = False  # served by a fallback backend
    fallback_reason: str | None = None  # "engine_error" | "deadline"
    retries: int = 0
    batched: int = 1  # size of the micro-batch this rode in
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    deadline_missed: bool = False  # completed, but after its deadline
    correlation_id: str = ""  # mirrors the request's span/log correlation id
    #: Certified optimality-gap ceiling for approximate-tier results:
    #: ``total_cost - OPT <= gap_bound`` (0.0 = certified exact).  ``None``
    #: for exact backends, which are bit-identical to the scipy optimum.
    gap_bound: float | None = None

    def __post_init__(self) -> None:
        if self.status not in ("completed", "rejected"):
            raise ValueError(f"unknown response status {self.status!r}")
        if self.status == "completed" and self.result is None:
            raise ValueError("completed responses must carry a result")
        if self.status == "rejected" and self.reject is None:
            raise ValueError("rejected responses must carry a typed reason")

    @property
    def ok(self) -> bool:
        return self.status == "completed"


class RequestSpans:
    """Span handles of one request's journey through the service.

    The service opens ``root`` (name ``request``) at submission, ``queue``
    on a successful enqueue (backdated to the root's start), and
    ``execute`` when a worker picks the ticket up (at the instant ``queue``
    closes); each is ended exactly once on whichever terminal path the
    request takes (complete, reject, degrade), the root at the instant its
    last child closes, so the children tile the root.  ``None`` slots mean
    the request never reached that stage (e.g. admission rejects have no
    ``execute`` span).
    """

    __slots__ = ("root", "queue", "execute")

    def __init__(self) -> None:
        self.root: Any | None = None
        self.queue: Any | None = None
        self.execute: Any | None = None


class Ticket:
    """Handle returned by :meth:`repro.serve.SolverService.submit`.

    ``response()`` blocks until the request reaches a terminal state.
    ``cancel()`` succeeds only while the request is still queued; a request
    already picked up by a worker runs to completion.
    """

    def __init__(self, request: SolveRequest) -> None:
        self.request = request
        self.spans = RequestSpans()
        self._done = threading.Event()
        self._response: SolveResponse | None = None
        self._cancelled = False
        self._lock = threading.Lock()

    @property
    def request_id(self) -> int:
        return self.request.request_id

    def cancel(self) -> bool:
        """Request cancellation; True if the mark landed while queued."""
        with self._lock:
            if self._done.is_set():
                return False
            self._cancelled = True
            return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def done(self) -> bool:
        return self._done.is_set()

    def response(self, timeout: float | None = None) -> SolveResponse:
        """Wait for the terminal response.

        Raises
        ------
        TimeoutError
            When ``timeout`` elapses first (the request itself is *not*
            cancelled by this — call :meth:`cancel`).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout} s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, response: SolveResponse) -> bool:
        """Attach the terminal response (service-internal); idempotent."""
        with self._lock:
            if self._done.is_set():
                return False
            self._response = response
            self._done.set()
            return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"Ticket(id={self.request_id}, n={self.request.size}, {state})"


def verify_answer(
    instance: LAPInstance,
    assignment,
    total_cost: float,
    *,
    gap_bound: float | None = None,
) -> bool:
    """Check one served answer against the scipy optimum.

    The assignment must be a permutation that achieves ``total_cost``.
    Exact answers (``gap_bound is None``) must match the optimum to within
    float tolerance.  Approximate answers must not *beat* the optimum and
    must stay within their own certified gap bound; failing here means the
    certificate lied, which the property suite treats as a hard bug.
    """
    from scipy.optimize import linear_sum_assignment

    assignment = np.asarray(assignment)
    if not np.array_equal(np.sort(assignment), np.arange(instance.size)):
        return False
    rows, cols = linear_sum_assignment(instance.costs)
    optimum = float(instance.costs[rows, cols].sum())
    tolerance = _VERIFY_ABS + _VERIFY_REL * abs(optimum)
    bound = tolerance if gap_bound is None else gap_bound + tolerance
    if not -tolerance <= total_cost - optimum <= bound:
        return False
    return abs(instance.total_cost(assignment) - total_cost) <= tolerance
