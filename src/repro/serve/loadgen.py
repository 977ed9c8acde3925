"""Synthetic load generator for :class:`~repro.serve.service.SolverService`.

Drives the service with a seeded, reproducible workload — mixed shapes,
mixed quality tiers, mixed deadlines — in either of the two classic load
models:

* **closed loop** — ``concurrency`` client threads each submit their next
  request as soon as the previous response lands (throughput-bound; what
  the serve benchmark uses to measure warm-pool speedup);
* **open loop** — requests arrive at a fixed ``rate`` regardless of
  completions (latency-under-load; what exposes admission-control
  backpressure, since arrivals do not slow down when the queue fills).

Every response is independently re-verified against the scipy optimum (the
load generator trusts nothing the service says), and the resulting
:class:`LoadReport` carries the acceptance-criteria numbers directly:
``lost`` (must be 0), ``verify_failures`` (must be 0), the degradation
breakdown, and p50/p95/p99 latency.
"""

from __future__ import annotations

import dataclasses
import threading
from time import monotonic, sleep
from typing import Sequence

import numpy as np

from repro.lap.problem import LAPInstance
from repro.serve.request import SolveResponse, verify_answer
from repro.serve.service import SolverService
from repro.serve.stats import latency_summary

__all__ = [
    "LoadReport",
    "WorkItem",
    "arrival_schedule",
    "generate_workload",
    "plan_routes",
    "run_http_load",
    "run_load",
]

#: Default shape mix: small/medium sizes with one repeat-heavy shape so the
#: warm pool and micro-batching both get traffic.
DEFAULT_SHAPES = (8, 8, 8, 12, 16, 16, 24, 32)

#: Default tier mix (drawn per request): mostly balanced, some pinned.
DEFAULT_TIER_WEIGHTS = {"auto": 0.6, "ipu": 0.25, "fast": 0.15}

#: Default deadline mix: fraction with no deadline / a loose one / a tight
#: one (seconds).  Tight deadlines exercise the preemptive degradation path.
DEFAULT_DEADLINES = ((None, 0.5), (2.0, 0.3), (0.02, 0.2))


@dataclasses.dataclass(frozen=True)
class WorkItem:
    """One scripted request: the instance plus its serving metadata."""

    instance: LAPInstance
    tier: str
    deadline_s: float | None
    #: Session id for drifting-stream traffic (None = independent request).
    session_id: str | None = None


def generate_workload(
    count: int,
    *,
    seed: int = 0,
    shapes: Sequence[int] = DEFAULT_SHAPES,
    tier_weights: dict[str, float] | None = None,
    deadlines: Sequence[tuple[float | None, float]] = DEFAULT_DEADLINES,
    cost_scale: float = 100.0,
    session_streams: int = 0,
    session_drift_rows: int = 2,
) -> list[WorkItem]:
    """A seeded list of :class:`WorkItem`\\ s (same seed → same workload).

    With ``session_streams > 0``, every other item belongs to one of that
    many drifting-cost sessions: each session keeps a base matrix and
    perturbs ``session_drift_rows`` random rows per visit, submitting under
    a stable ``session_id`` on the engine tier — the traffic shape the
    warm-start session cache is built for.
    """
    rng = np.random.default_rng(seed)
    session_bases: list[np.ndarray] = []
    if session_streams > 0:
        for _ in range(session_streams):
            size = int(rng.choice(np.asarray(shapes)))
            session_bases.append(rng.random((size, size)) * cost_scale)
    weights = tier_weights if tier_weights is not None else DEFAULT_TIER_WEIGHTS
    tiers = list(weights)
    tier_p = np.asarray([weights[t] for t in tiers], dtype=np.float64)
    tier_p = tier_p / tier_p.sum()
    deadline_values = [d for d, _ in deadlines]
    deadline_p = np.asarray([p for _, p in deadlines], dtype=np.float64)
    deadline_p = deadline_p / deadline_p.sum()
    items: list[WorkItem] = []
    for index in range(count):
        if session_streams > 0 and index % 2 == 0:
            stream = (index // 2) % session_streams
            base = session_bases[stream]
            size = base.shape[0]
            drift = min(session_drift_rows, size)
            rows = rng.choice(size, size=drift, replace=False)
            base[rows] = rng.random((drift, size)) * cost_scale
            items.append(
                WorkItem(
                    instance=LAPInstance(
                        base.copy(), name=f"load-{index}-sess{stream}-n{size}"
                    ),
                    tier="ipu",
                    deadline_s=None,
                    session_id=f"sess-{stream}",
                )
            )
            continue
        size = int(rng.choice(np.asarray(shapes)))
        costs = rng.random((size, size)) * cost_scale
        items.append(
            WorkItem(
                instance=LAPInstance(costs, name=f"load-{index}-n{size}"),
                tier=tiers[int(rng.choice(len(tiers), p=tier_p))],
                deadline_s=deadline_values[
                    int(rng.choice(len(deadline_values), p=deadline_p))
                ],
            )
        )
    return items


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """Outcome of one :func:`run_load` run."""

    mode: str
    submitted: int
    completed: int
    rejected: dict[str, int]
    degraded: int
    deadline_missed: int
    verify_failures: int
    lost: int  # submitted requests with no terminal response — must be 0
    backends: dict[str, int]
    wall_seconds: float
    latency: dict
    #: Approximate-tier summary: responses carrying a gap bound, plus the
    #: mean/max of those bounds (zeros when no approximate traffic ran).
    approx: dict = dataclasses.field(default_factory=dict)
    responses: tuple[SolveResponse, ...] = dataclasses.field(
        default=(), repr=False, compare=False
    )

    @property
    def throughput(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def summary(self) -> dict:
        """JSON-ready summary (benchmark records and the CLI print this)."""
        return {
            "mode": self.mode,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": dict(self.rejected),
            "degraded": self.degraded,
            "deadline_missed": self.deadline_missed,
            "verify_failures": self.verify_failures,
            "lost": self.lost,
            "backends": dict(self.backends),
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput,
            "latency_seconds": self.latency,
            "approx": dict(self.approx),
        }


def arrival_schedule(count: int, rate: float) -> list[float]:
    """Deterministic open-loop arrival offsets (seconds from start).

    Uniform spacing at ``rate`` requests/second — a pure function of its
    arguments, so two runs with the same workload offer byte-identical
    schedules (pinned by ``tests/serve/test_load.py``).
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    interval = 1.0 / float(rate)
    return [index * interval for index in range(count)]


def plan_routes(
    workload: Sequence[WorkItem], *, workers: int | None = None
) -> list[dict]:
    """The deterministic routing decisions for ``workload``.

    For each item: the router's ladder on a cold estimator (no latency
    history — what every fresh service starts from) and, when ``workers``
    is given, the multi-process home shard (``size % workers``).  Used by
    the load-determinism regression test: same seeded workload → same
    decisions, run after run.
    """
    from repro.serve.router import Router

    router = Router()
    decisions = []
    for item in workload:
        plan = router.plan(_probe_request(item), frozenset(), 0.0)
        decision = {
            "tier": item.tier,
            "size": item.instance.size,
            "ladder": plan.ladder,
            "engine_target": plan.engine_target,
        }
        if workers is not None:
            decision["shard"] = item.instance.size % workers
        decisions.append(decision)
    return decisions


def _probe_request(item: WorkItem):
    """A real :class:`SolveRequest` frozen at submission time zero."""
    from repro.serve.request import SolveRequest

    return SolveRequest(
        instance=item.instance,
        tier=item.tier,
        deadline_s=item.deadline_s,
        submitted_at=0.0,
    )


def run_load(
    service: SolverService,
    workload: Sequence[WorkItem],
    *,
    mode: str = "closed",
    concurrency: int = 8,
    rate: float | None = None,
    verify: bool = True,
    response_timeout: float = 120.0,
    submitters: int = 1,
) -> LoadReport:
    """Replay ``workload`` against ``service`` and account for every request.

    Parameters
    ----------
    mode:
        ``"closed"`` (``concurrency`` threads, submit-on-completion) or
        ``"open"`` (fixed arrival ``rate`` per second).
    verify:
        Re-check every completed response against scipy (independent of the
        service's own ``verify`` flag).
    submitters:
        Open-loop submitter threads.  One thread cannot *offer* thousands
        of arrivals per second once the submit path itself costs tens of
        microseconds; the schedule is pre-split round-robin across
        ``submitters`` threads so high offered rates are genuinely offered
        (the schedule itself — :func:`arrival_schedule` — is unchanged).
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode requires a positive rate")

    responses: list[SolveResponse | None] = [None] * len(workload)
    started = monotonic()

    if mode == "closed":
        cursor = {"next": 0}
        cursor_lock = threading.Lock()

        def client() -> None:
            while True:
                with cursor_lock:
                    index = cursor["next"]
                    if index >= len(workload):
                        return
                    cursor["next"] = index + 1
                item = workload[index]
                ticket = service.submit(
                    item.instance,
                    tier=item.tier,
                    deadline_s=item.deadline_s,
                    session_id=item.session_id,
                )
                responses[index] = ticket.response(response_timeout)

        threads = [
            threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
            for i in range(max(1, concurrency))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        schedule = arrival_schedule(len(workload), float(rate))
        tickets: list = [None] * len(workload)

        def submitter(slot: int) -> None:
            for index in range(slot, len(workload), max(1, submitters)):
                item = workload[index]
                delay = started + schedule[index] - monotonic()
                if delay > 0:
                    sleep(delay)
                tickets[index] = service.submit(
                    item.instance,
                    tier=item.tier,
                    deadline_s=item.deadline_s,
                    session_id=item.session_id,
                )

        submit_threads = [
            threading.Thread(
                target=submitter, args=(slot,), name=f"loadgen-open-{slot}",
                daemon=True,
            )
            for slot in range(max(1, submitters))
        ]
        for thread in submit_threads:
            thread.start()
        for thread in submit_threads:
            thread.join()
        for index, ticket in enumerate(tickets):
            if ticket is None:
                continue  # counted as lost below
            try:
                responses[index] = ticket.response(response_timeout)
            except TimeoutError:
                responses[index] = None  # counted as lost below

    wall_seconds = monotonic() - started

    completed = 0
    degraded = 0
    deadline_missed = 0
    verify_failures = 0
    lost = 0
    rejected: dict[str, int] = {}
    backends: dict[str, int] = {}
    latencies: list[float] = []
    gap_bounds: list[float] = []
    for item, response in zip(workload, responses):
        if response is None:
            lost += 1
            continue
        if response.ok:
            completed += 1
            backend = response.backend or "unknown"
            backends[backend] = backends.get(backend, 0) + 1
            latencies.append(response.latency_s)
            if response.degraded:
                degraded += 1
            if response.deadline_missed:
                deadline_missed += 1
            if response.gap_bound is not None:
                gap_bounds.append(response.gap_bound)
            if verify and not verify_answer(
                item.instance,
                response.result.assignment,
                response.result.total_cost,
                gap_bound=response.gap_bound,
            ):
                verify_failures += 1
        else:
            assert response.reject is not None
            rejected[response.reject.code] = rejected.get(response.reject.code, 0) + 1

    return LoadReport(
        mode=mode,
        submitted=len(workload),
        completed=completed,
        rejected=dict(sorted(rejected.items())),
        degraded=degraded,
        deadline_missed=deadline_missed,
        verify_failures=verify_failures,
        lost=lost,
        backends=dict(sorted(backends.items())),
        wall_seconds=wall_seconds,
        latency=latency_summary(latencies),
        approx=_gap_summary(gap_bounds),
        responses=tuple(r for r in responses if r is not None),
    )


def _gap_summary(gap_bounds: Sequence[float]) -> dict:
    """Summary of the certified gap bounds observed in one load run."""
    if not gap_bounds:
        return {"responses": 0, "mean_gap_bound": 0.0, "max_gap_bound": 0.0}
    return {
        "responses": len(gap_bounds),
        "mean_gap_bound": float(sum(gap_bounds) / len(gap_bounds)),
        "max_gap_bound": float(max(gap_bounds)),
    }


def run_http_load(
    url: str,
    workload: Sequence[WorkItem],
    *,
    rate: float,
    submitters: int = 16,
    timeout: float = 120.0,
    verify: bool = True,
) -> dict:
    """Open-loop load over the HTTP front-end; returns a JSON-ready report.

    Each submitter thread owns a round-robin slice of the deterministic
    :func:`arrival_schedule` and POSTs ``/solve`` synchronously (stdlib
    ``urllib``, one request in flight per thread — ``submitters`` bounds
    the client-side concurrency).  The report carries the numbers the
    serve benchmark's committed trajectory is made of: offered vs achieved
    rate, shed (typed-429) fraction, client-observed p50/p99, and the
    per-tier certified-gap summary.
    """
    from repro.serve.http import HttpClient

    schedule = arrival_schedule(len(workload), rate)
    outcomes: list[tuple[int, dict, float] | None] = [None] * len(workload)
    client = HttpClient(url, timeout=timeout)
    started = monotonic()

    def submitter(slot: int) -> None:
        for index in range(slot, len(workload), max(1, submitters)):
            item = workload[index]
            delay = started + schedule[index] - monotonic()
            if delay > 0:
                sleep(delay)
            sent = monotonic()
            try:
                status, document = client.solve(
                    item.instance.costs,
                    tier=item.tier,
                    deadline_s=item.deadline_s,
                    session_id=item.session_id,
                    name=item.instance.name,
                )
            except Exception:  # noqa: BLE001 - a lost reply is "lost"
                continue
            outcomes[index] = (status, document, monotonic() - sent)

    threads = [
        threading.Thread(
            target=submitter, args=(slot,), name=f"httpload-{slot}", daemon=True
        )
        for slot in range(max(1, submitters))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = monotonic() - started

    completed = 0
    lost = 0
    verify_failures = 0
    rejected: dict[str, int] = {}
    backends: dict[str, int] = {}
    statuses: dict[str, int] = {}
    latencies: list[float] = []
    gap_by_tier: dict[str, list[float]] = {}
    for item, outcome in zip(workload, outcomes):
        if outcome is None:
            lost += 1
            continue
        status, document, latency = outcome
        statuses[str(status)] = statuses.get(str(status), 0) + 1
        if document.get("status") == "completed":
            completed += 1
            latencies.append(latency)
            backend = document.get("backend") or "unknown"
            backends[backend] = backends.get(backend, 0) + 1
            gap = document.get("gap_bound")
            if gap is not None:
                gap_by_tier.setdefault(document.get("tier", "?"), []).append(
                    float(gap)
                )
            if verify and not verify_answer(
                item.instance,
                document["assignment"],
                float(document["total_cost"]),
                gap_bound=gap,
            ):
                verify_failures += 1
        else:
            code = document.get("reject", {}).get("code", "unknown")
            rejected[code] = rejected.get(code, 0) + 1
    shed = rejected.get("queue_full", 0)
    return {
        "offered_rps": rate,
        "achieved_rps": completed / wall_seconds if wall_seconds > 0 else 0.0,
        "submitted": len(workload),
        "completed": completed,
        "rejected": dict(sorted(rejected.items())),
        "shed": shed,
        "shed_rate": shed / len(workload) if workload else 0.0,
        "lost": lost,
        "verify_failures": verify_failures,
        "backends": dict(sorted(backends.items())),
        "http_statuses": dict(sorted(statuses.items())),
        "wall_seconds": wall_seconds,
        "latency_seconds": latency_summary(latencies),
        "gap_by_tier": {
            tier: _gap_summary(bounds)
            for tier, bounds in sorted(gap_by_tier.items())
        },
    }
