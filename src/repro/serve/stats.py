"""Request books and latency summaries for the serving layer.

:class:`RequestLedger` is the one place ``repro.serve/1`` request
accounting lives: :class:`repro.serve.SolverService` and
:class:`repro.serve.WorkerPool` both record every request transition in
one and merge its :meth:`~RequestLedger.document_blocks` into their
``stats_document()``.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

__all__ = ["RequestLedger", "latency_summary", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) of ``values`` by linear interpolation.

    Matches ``numpy.percentile(values, q)`` (the default ``linear``
    interpolation) without the numpy dependency in the hot stats path.
    ``values`` may arrive in any order: sortedness is checked in one O(n)
    pass and the input is sorted defensively when it is not — the historic
    signature took pre-sorted input and silently returned wrong answers
    otherwise.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        values = sorted(values)
    position = (len(values) - 1) * (q / 100.0)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(values[lower])
    weight = position - lower
    # One-product lerp, not lo*(1-w) + hi*w: the two-product form can
    # round outside [lo, hi] when lo == hi (w*lo + (1-w)*lo need not
    # re-sum to lo in floating point).  Anchor at the nearer endpoint
    # like numpy's lerp does (w >= 0.5 interpolates back from hi):
    # anchoring at the far end loses relative precision when the result
    # is near the close end — e.g. q→100 with a large-magnitude lo.
    lo, hi = float(values[lower]), float(values[upper])
    if weight < 0.5:
        return lo + weight * (hi - lo)
    return hi - (hi - lo) * (1.0 - weight)


def latency_summary(latencies: Sequence[float]) -> dict:
    """JSON-ready p50/p95/p99 + mean/max summary of a latency sample."""
    ordered = sorted(latencies)
    count = len(ordered)
    return {
        "count": count,
        "mean": (sum(ordered) / count) if count else 0.0,
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "max": ordered[-1] if count else 0.0,
    }


class RequestLedger:
    """Thread-safe request accounting behind a ``repro.serve/1`` document.

    A request is admitted (:meth:`admit`), then ends exactly once as
    completed (:meth:`complete`) or rejected (:meth:`reject`); a request
    refused at the door is rejected with ``admitted=False``.  Each
    transition moves all of its counts under one lock, so every snapshot
    balances: ``submitted == completed + rejected + in_flight``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._degraded = 0
        self._deadline_missed = 0
        self._in_flight = 0
        self._rejected: dict[str, int] = {}
        self._backends: dict[str, int] = {}
        self._tiers: dict[str, int] = {}
        self._fallbacks = {"engine_error": 0, "deadline": 0, "retries": 0}
        # Approximate-tier responses and their gap-bound mass, per tier.
        self._approx_counts: dict[str, int] = {}
        self._approx_gap_sum: dict[str, float] = {}
        self._approx_gap_max = 0.0
        self._latencies: list[float] = []

    def admit(self) -> None:
        """A request entered the system and is now in flight."""
        with self._lock:
            self._submitted += 1
            self._in_flight += 1

    def reject(self, code: str, *, admitted: bool = True) -> None:
        """A request ended rejected with the typed reason ``code``.

        ``admitted=False`` marks a rejection at the door: the request was
        never in flight, so the rejection is what makes it submitted.
        """
        with self._lock:
            if admitted:
                self._in_flight -= 1
            else:
                self._submitted += 1
            self._rejected[code] = self._rejected.get(code, 0) + 1

    def complete(
        self,
        *,
        backend: str,
        tier: str,
        latency_s: float,
        fallback_reason: str | None = None,
        deadline_missed: bool = False,
        gap_bound: float | None = None,
    ) -> None:
        """An in-flight request ended completed by ``backend``."""
        with self._lock:
            self._in_flight -= 1
            self._completed += 1
            self._backends[backend] = self._backends.get(backend, 0) + 1
            self._tiers[tier] = self._tiers.get(tier, 0) + 1
            if fallback_reason is not None:
                self._degraded += 1
                self._fallbacks[fallback_reason] = (
                    self._fallbacks.get(fallback_reason, 0) + 1
                )
            if deadline_missed:
                self._deadline_missed += 1
            if gap_bound is not None:
                self._approx_counts[tier] = self._approx_counts.get(tier, 0) + 1
                self._approx_gap_sum[tier] = (
                    self._approx_gap_sum.get(tier, 0.0) + gap_bound
                )
                self._approx_gap_max = max(self._approx_gap_max, gap_bound)
            self._latencies.append(latency_s)

    def retried(self, count: int = 1) -> None:
        """``count`` engine retries happened after faults."""
        with self._lock:
            self._fallbacks["retries"] += count

    def document_blocks(self) -> dict:
        """The ``requests`` / ``latency_seconds`` / ``backends`` / ``tiers`` /
        ``fallbacks`` / ``approx`` blocks of a ``repro.serve/1`` document."""
        with self._lock:
            requests = {
                "submitted": self._submitted,
                "completed": self._completed,
                "degraded": self._degraded,
                "deadline_missed": self._deadline_missed,
                "rejected": dict(sorted(self._rejected.items())),
                "in_flight": self._in_flight,
            }
            backends = dict(sorted(self._backends.items()))
            tiers = dict(sorted(self._tiers.items()))
            fallbacks = dict(self._fallbacks)
            counts = dict(sorted(self._approx_counts.items()))
            gap_sums = dict(self._approx_gap_sum)
            gap_max = self._approx_gap_max
            latencies = list(self._latencies)
        responses = sum(counts.values())
        return {
            "requests": requests,
            "latency_seconds": latency_summary(latencies),
            "backends": backends,
            "tiers": tiers,
            "fallbacks": fallbacks,
            "approx": {
                "responses": responses,
                "mean_gap_bound": (
                    sum(gap_sums.values()) / responses if responses else 0.0
                ),
                "max_gap_bound": gap_max,
                "by_tier": {
                    tier: {
                        "responses": count,
                        "mean_gap_bound": gap_sums[tier] / count,
                    }
                    for tier, count in counts.items()
                },
            },
        }
