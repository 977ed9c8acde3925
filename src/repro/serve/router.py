"""Routing and graceful degradation policy.

Every request declares a quality tier (:data:`repro.serve.request.QUALITY_TIERS`)
and optionally a deadline; the router turns that into a **backend ladder** —
an ordered tuple of backends to try:

==========  =============================================
tier        ladder
==========  =============================================
``ipu``     ``hunipu`` → ``scipy``
``auto``    ``hunipu`` → ``fastha`` → ``scipy``
``fast``    ``scipy``
``approx``  ``approx`` → ``scipy``
==========  =============================================

Two mechanisms move a request *down* its ladder, and both flag the response
``degraded`` (results are never silently dropped or silently re-routed):

* **Preemptive deadline routing** — per-(backend, shape) latency is tracked
  as a thread-safe EWMA; when the remaining deadline budget is smaller than
  the engine's estimated latency, the router starts the request further down
  the ladder (``fallback_reason="deadline"``).
* **Fault fallback** — when an engine run raises
  :class:`~repro.errors.ExecutionError`, the ladder's engine leg retries
  ``max_retries`` times after an exponential backoff, then descends the
  ladder (``fallback_reason="engine_error"``).  Batched or not, each
  request walks its own ladder, so a retry is counted once, for the
  request that faulted.

The exact backends (``hunipu``, ``fastha``, ``scipy``) always return the
true optimum; "degraded" means the request was not served by the backend
its tier asked for.  The **approximate** backend
(:func:`repro.lap.approx.solve_auction`) is the final degradation rung: when
the latency estimator predicts that even the fastest *exact* tier will miss
the request's deadline, the router routes to the auction solver, whose
response carries a certified optimality-gap bound
(``SolveResponse.gap_bound``) — the load tests verify every response either
matches the scipy optimum exactly or stays within its reported bound.

The router also picks the engine **target shape**: a request may ride a
warm engine of a slightly larger size (the batch engine's padding policy,
:func:`repro.batch.solver.choose_target`) instead of compiling its own.
The service leases its engine at that shape, solves there
(:func:`repro.batch.solver.solve_at_size`) and feeds the engine's latency
estimate back under it, the key :meth:`Router.plan` reads.
"""

from __future__ import annotations

import dataclasses
import logging
import threading

from repro.batch.solver import choose_target

__all__ = ["LatencyEstimator", "RoutePlan", "Router"]

logger = logging.getLogger(__name__)

#: Backend identifiers (also the keys of the stats export's breakdown).
BACKENDS = ("hunipu", "fastha", "scipy", "approx")

_LADDERS = {
    "ipu": ("hunipu", "scipy"),
    "auto": ("hunipu", "fastha", "scipy"),
    "fast": ("scipy",),
    # The approximate tier still keeps the scipy oracle as a fault
    # backstop — the auction solver is not expected to raise, but every
    # ladder ends in a leg that cannot.
    "approx": ("approx", "scipy"),
}


class LatencyEstimator:
    """Thread-safe EWMA of per-(backend, shape) service latency.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1].
    max_extrapolation:
        Cap on how far an unseen shape may be extrapolated from the nearest
        observed one: when ``max(size, seen) / min(size, seen)`` exceeds
        this factor, :meth:`estimate` returns None (unknown) instead of a
        quadratic guess.  An unbounded guess from one tiny warm shape can
        claim a large cold shape takes ~0, or — worse — claim a distant
        shape misses its deadline and preempt it off the engine it asked
        for.
    """

    def __init__(
        self, alpha: float = 0.3, *, max_extrapolation: float = 4.0
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if max_extrapolation < 1:
            raise ValueError(
                f"max_extrapolation must be >= 1, got {max_extrapolation}"
            )
        self.alpha = alpha
        self.max_extrapolation = float(max_extrapolation)
        self._lock = threading.Lock()
        self._ewma: dict[tuple[str, int], float] = {}

    def observe(self, backend: str, size: int, seconds: float) -> None:
        key = (backend, size)
        with self._lock:
            previous = self._ewma.get(key)
            if previous is None:
                self._ewma[key] = seconds
            else:
                self._ewma[key] = (
                    self.alpha * seconds + (1 - self.alpha) * previous
                )

    def estimate(self, backend: str, size: int) -> float | None:
        """Expected service seconds, or None before the first observation."""
        with self._lock:
            exact = self._ewma.get((backend, size))
            if exact is not None:
                return exact
            # Unseen shape: scale the nearest observed shape of the same
            # backend quadratically (solve work grows ~n^2 per iteration) —
            # but only within ``max_extrapolation``; beyond it the guess is
            # noise and None ("unknown") is the honest answer.
            best: float | None = None
            best_gap = None
            for (seen_backend, seen_size), value in self._ewma.items():
                if seen_backend != backend:
                    continue
                ratio = max(size, seen_size) / min(size, seen_size)
                if ratio > self.max_extrapolation:
                    continue
                gap = abs(seen_size - size)
                if best_gap is None or gap < best_gap:
                    best_gap = gap
                    best = value * (size / seen_size) ** 2
            return best

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                f"{backend}/n={size}": value
                for (backend, size), value in sorted(self._ewma.items())
            }


@dataclasses.dataclass(frozen=True)
class RoutePlan:
    """The router's decision for one request."""

    ladder: tuple[str, ...]  # backends in degradation order
    engine_target: int  # shape the engine leg should solve at (>= size)
    preempted: bool = False  # ladder head was skipped for deadline reasons
    estimate_s: float | None = None  # engine latency estimate that decided it

    @property
    def backend(self) -> str:
        return self.ladder[0]


class Router:
    """Maps (tier, deadline, shape) to a backend ladder.

    Parameters
    ----------
    estimator:
        Shared latency estimator (the service feeds completions back in).
    pad_limit:
        Maximum linear growth when padding a request onto a warm engine
        shape (same semantics as :class:`repro.batch.BatchSolver`).
    backoff_base_s:
        First-retry backoff; retry ``k`` sleeps ``backoff_base_s * 2**k``.
    max_retries:
        Engine retries before descending the ladder (the spec'd policy is
        one retry with exponential backoff).
    """

    def __init__(
        self,
        estimator: LatencyEstimator | None = None,
        *,
        pad_limit: float = 1.25,
        backoff_base_s: float = 0.005,
        max_retries: int = 1,
    ) -> None:
        self.estimator = estimator if estimator is not None else LatencyEstimator()
        self.pad_limit = float(pad_limit)
        self.backoff_base_s = float(backoff_base_s)
        self.max_retries = int(max_retries)

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based): exponential doubling."""
        return self.backoff_base_s * (2.0**attempt)

    def plan(self, request, warm_sizes: frozenset[int], now: float) -> RoutePlan:
        """Build the ladder for ``request`` given the warm pool's shapes."""
        ladder = _LADDERS[request.tier]
        engine_target = choose_target(
            request.size, cached=warm_sizes, pad_limit=self.pad_limit
        )
        if "hunipu" not in ladder:
            return RoutePlan(ladder=ladder, engine_target=engine_target)

        remaining = request.remaining(now)
        if remaining is None or request.tier == "ipu":
            # No deadline pressure (or the tier pins the engine): run the
            # full ladder.
            return RoutePlan(ladder=ladder, engine_target=engine_target)

        estimate = self.estimator.estimate("hunipu", engine_target)
        if estimate is None or estimate <= remaining:
            return RoutePlan(
                ladder=ladder, engine_target=engine_target, estimate_s=estimate
            )
        # The engine can't make the deadline: degrade preemptively.  Drop
        # ladder legs whose estimate also exceeds the budget.  The
        # approximate tier is appended as the terminal deadline rung, so a
        # request whose budget is too small for *every* exact tier lands on
        # the auction solver (bounded suboptimality, reported gap) instead
        # of blowing its deadline on an exact solve it asked us to avoid.
        trimmed = list(ladder[1:])
        if "approx" not in trimmed:
            trimmed.append("approx")
        logger.info(
            "preemptive degradation for request %d: engine estimate %.4fs "
            "exceeds remaining budget %.4fs",
            request.request_id,
            estimate,
            remaining,
        )
        while len(trimmed) > 1:
            leg_estimate = self.estimator.estimate(trimmed[0], request.size)
            if leg_estimate is not None and leg_estimate > remaining:
                trimmed.pop(0)
            else:
                break
        return RoutePlan(
            ladder=tuple(trimmed),
            engine_target=engine_target,
            preempted=True,
            estimate_s=estimate,
        )
