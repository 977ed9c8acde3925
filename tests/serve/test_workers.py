"""Fault-injection battery for the multi-process worker pool.

The supervisor's three invariants under real process death:

* nothing is lost — a request on a worker when it dies (``os._exit`` from
  the crash-mode flaky engine, or a raw SIGKILL) terminates as a completed
  response via re-dispatch or as a typed ``worker_lost`` reject;
* workers come back — dead workers restart with backoff and the restart
  counter is exported;
* correlation survives — the client-visible correlation id rides through
  re-dispatch to whichever worker finally answers.

The module-scoped pool injects ``crashes_before_success=1`` into worker 0
only, so shard-0 engine traffic kills a real spawned process mid-request
while worker 1 stays clean for re-dispatch.  Spawning is slow; everything
that can share the pool does.
"""

import os
import signal
from time import monotonic, sleep

import numpy as np
import pytest

from repro.obs.export import (
    SchemaError,
    validate_serve_stats,
    validate_solve_response,
)
from repro.serve.faults import CRASH_EXIT_CODE, FlakyEngineSolver
from repro.serve.request import RejectReason, SolveResponse
from repro.serve.workers import PoolTicket, WorkerPool, reject_document, wire_response

_RNG = np.random.default_rng(7)


def _costs(size: int) -> np.ndarray:
    return _RNG.random((size, size)) * 100.0


def _wait(predicate, timeout: float = 30.0, interval: float = 0.05) -> bool:
    deadline = monotonic() + timeout
    while monotonic() < deadline:
        if predicate():
            return True
        sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def crash_pool():
    """2 workers; worker 0's first engine run kills its process."""
    pool = WorkerPool(
        workers=2,
        threads=2,
        verify=True,
        warm_sizes=(8, 9),
        restart_backoff_s=0.05,
        fault_spec={"crashes_before_success": 1, "workers": [0]},
    )
    pool.wait_ready()
    yield pool
    pool.close()


# ----------------------------------------------------------------------
# Fault-schedule unit tests (no process to kill)
# ----------------------------------------------------------------------


def test_fault_decision_crash_schedule():
    solver = FlakyEngineSolver(crashes_before_success=2)
    assert [solver._fault_decision() for _ in range(3)] == [
        "crash", "crash", "ok",
    ]
    assert solver.crashes_injected == 2
    assert solver.faults_injected == 0


def test_fault_decision_crash_takes_priority_over_raise():
    solver = FlakyEngineSolver(
        crashes_before_success=1, failures_before_success=2
    )
    assert [solver._fault_decision() for _ in range(3)] == [
        "crash", "raise", "ok",
    ]


def test_crash_rate_is_validated():
    with pytest.raises(ValueError):
        FlakyEngineSolver(crash_rate=1.5)
    assert 0 < CRASH_EXIT_CODE < 128  # distinguishable from signal deaths


def test_reject_document_is_schema_valid():
    document = reject_document(
        request_id=3,
        correlation_id="corr-3",
        tier="auto",
        code="worker_lost",
        detail="no live worker available",
    )
    validate_solve_response(document)
    # The service's rejects reach the wire through the same builder.
    rejected = SolveResponse(
        request_id=9, status="rejected", reject=RejectReason("queue_full", "full")
    )
    wired = wire_response(
        rejected, request_id=3, correlation_id="corr-3", tier="auto", worker=1
    )
    validate_solve_response(wired)
    assert wired.keys() == document.keys()
    assert wired["worker"] == 1 and wired["reject"]["code"] == "queue_full"
    with pytest.raises(AssertionError):
        reject_document(
            request_id=4,
            correlation_id="corr-4",
            tier="auto",
            code="not-a-code",
            detail="",
        )


# ----------------------------------------------------------------------
# Live-pool battery (shared spawned pool)
# ----------------------------------------------------------------------


def test_clean_worker_completes_and_validates(crash_pool):
    """Shard 1 has no fault injection: a plain completed wire response."""
    document = crash_pool.solve(
        _costs(9), tier="ipu", correlation_id="corr-clean"
    )
    validate_solve_response(document)
    assert document["status"] == "completed"
    assert document["correlation_id"] == "corr-clean"
    assert sorted(document["assignment"]) == list(range(9))


def test_crash_mid_request_redispatches_with_correlation_id(crash_pool):
    """Worker 0 dies mid-solve; the request completes elsewhere, same id."""
    before = crash_pool.stats_document()["supervisor"]
    document = crash_pool.solve(
        _costs(8), tier="ipu", correlation_id="corr-crash", timeout=60.0
    )
    validate_solve_response(document)
    assert document["status"] == "completed", document.get("reject")
    assert document["correlation_id"] == "corr-crash"
    assert sorted(document["assignment"]) == list(range(8))
    after = crash_pool.stats_document()["supervisor"]
    assert after["redispatched"] >= before["redispatched"] + 1
    # The dead worker restarts (backoff is tiny here).
    assert _wait(
        lambda: crash_pool.stats_document()["supervisor"]["restarts"]
        >= before["restarts"] + 1
    )
    assert _wait(crash_pool.healthy, timeout=60.0)


def test_sigkill_idle_worker_restarts_and_serves(crash_pool):
    """A raw SIGKILL (no Python involved) is detected and recovered."""
    assert _wait(crash_pool.healthy, timeout=60.0)
    victim = crash_pool.worker_pids()[1]
    restarts_before = crash_pool.stats_document()["supervisor"]["workers"][
        "1"
    ]["restarts"]
    os.kill(victim, signal.SIGKILL)
    assert _wait(
        lambda: crash_pool.stats_document()["supervisor"]["workers"]["1"][
            "restarts"
        ]
        >= restarts_before + 1,
        timeout=60.0,
    )
    assert _wait(
        lambda: crash_pool.worker_pids()[1] not in (None, victim)
        and crash_pool.healthy(),
        timeout=60.0,
    )
    document = crash_pool.solve(_costs(9), tier="fast", timeout=60.0)
    assert document["status"] == "completed"


def test_stats_document_validates_and_balances(crash_pool):
    document = crash_pool.stats_document()
    validate_serve_stats(document)
    requests = document["requests"]
    assert requests["submitted"] == (
        requests["completed"]
        + sum(requests["rejected"].values())
        + requests["in_flight"]
    )
    supervisor = document["supervisor"]
    assert set(supervisor["workers"]) == {"0", "1"}
    assert document["meta"]["mode"] == "multiprocess"


def test_sharding_is_stable(crash_pool):
    assert crash_pool.shard_of(8) == 0
    assert crash_pool.shard_of(9) == 1
    assert crash_pool.shard_of(11) == crash_pool.shard_of(11 + 2)


# ----------------------------------------------------------------------
# No-live-worker window and shutdown (private single-worker pool)
# ----------------------------------------------------------------------


def test_no_live_worker_rejects_typed_then_shutdown():
    """With the only worker dead and backoff huge, submits reject typed."""
    pool = WorkerPool(
        workers=1, threads=1, warm_sizes=(), restart_backoff_s=120.0
    )
    try:
        pool.wait_ready()
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        assert _wait(lambda: not pool.healthy(), timeout=30.0)
        document = pool.solve(_costs(5), tier="fast", timeout=30.0)
        validate_solve_response(document)
        assert document["status"] == "rejected"
        assert document["reject"]["code"] == "worker_lost"
        # The books still balance with zero live workers.
        validate_serve_stats(pool.stats_document())
    finally:
        pool.close()
    after_close = pool.solve(_costs(5), tier="fast", timeout=5.0)
    assert after_close["reject"]["code"] == "shutdown"


def test_stats_balance_while_a_ticket_resolves(monkeypatch):
    """A snapshot taken as a ticket resolves (caller already woken, books
    not yet closed) must still account for every request, and so must one
    taken as a submit to a closed pool is rejected."""
    pool = WorkerPool(workers=1, threads=1, warm_sizes=())
    statuses: list[str] = []
    errors: list[SchemaError] = []
    original = PoolTicket._resolve

    def checked(ticket, document):
        try:
            validate_serve_stats(pool.stats_document())
        except SchemaError as exc:
            errors.append(exc)
        statuses.append(document["status"])
        return original(ticket, document)

    monkeypatch.setattr(PoolTicket, "_resolve", checked)
    try:
        pool.wait_ready()
        document = pool.solve(_costs(6), tier="fast", timeout=60.0)
        assert document["status"] == "completed"
    finally:
        pool.close()
    after_close = pool.solve(_costs(6), tier="fast", timeout=5.0)
    assert after_close["reject"]["code"] == "shutdown"
    assert statuses == ["completed", "rejected"]
    assert not errors, errors
    final = pool.stats_document()
    validate_serve_stats(final)
    assert final["requests"]["submitted"] == 2
    assert final["requests"]["in_flight"] == 0


def test_schema_error_is_importable():
    """The battery's validators raise the typed SchemaError, not asserts."""
    with pytest.raises(SchemaError):
        validate_solve_response({"schema": "repro.solve-response/1"})
