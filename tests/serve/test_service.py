"""Tests for SolverService: admission, deadlines, fallback, accounting."""

import threading
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.core.solver import HunIPUSolver
from repro.errors import ExecutionError
from repro.lap.problem import LAPInstance
from repro.obs.export import validate_document
from repro.obs.metrics import MetricsRegistry
from repro.serve import SolverService, WarmEnginePool, flaky_factory
from repro.serve import service as service_module


def _instance(size=6, seed=0, name="t"):
    costs = np.random.default_rng(seed).random((size, size)) * 10
    return LAPInstance(costs, name=name)


def _optimum(instance):
    rows, cols = linear_sum_assignment(instance.costs)
    return float(instance.costs[rows, cols].sum())


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _gated_factory(gate: threading.Event):
    """Engines whose runs block until ``gate`` is set (deterministic tests)."""

    class GatedSolver(HunIPUSolver):
        def _run_engine(self, compiled, instance, **kwargs):
            gate.wait(timeout=30.0)
            return super()._run_engine(compiled, instance, **kwargs)

    return GatedSolver


def _gated_service(gate, **kwargs):
    metrics = MetricsRegistry()
    pool = WarmEnginePool(_gated_factory(gate), metrics=metrics)
    defaults = {"workers": 1, "max_batch": 1, "metrics": metrics, "pool": pool}
    defaults.update(kwargs)
    return SolverService(**defaults)


class TestSolving:
    def test_each_tier_returns_the_optimum(self):
        instance = _instance(seed=1)
        with SolverService(workers=2) as service:
            for tier in ("ipu", "auto", "fast"):
                response = service.solve(instance, tier=tier, timeout=60.0)
                assert response.ok
                assert response.result.total_cost == pytest.approx(
                    _optimum(instance), abs=1e-6
                )

    def test_fast_tier_skips_the_engine(self):
        with SolverService(workers=1) as service:
            response = service.solve(_instance(), tier="fast", timeout=60.0)
        assert response.backend == "scipy"
        assert not response.degraded

    def test_invalid_tier_is_typed_rejected(self):
        with SolverService(workers=1) as service:
            ticket = service.submit(_instance(), tier="bogus")
            response = ticket.response(5.0)
        assert not response.ok
        assert response.reject.code == "invalid"

    def test_micro_batch_coalesces_same_shape(self):
        gate = threading.Event()
        service = _gated_service(gate, max_batch=8, queue_capacity=32)
        try:
            instance = _instance(seed=2)
            blocker = service.submit(instance, tier="ipu")
            assert _wait_until(lambda: service.queue_depth() == 0)
            tickets = [
                service.submit(_instance(seed=10 + i), tier="ipu")
                for i in range(4)
            ]
            gate.set()
            responses = [blocker.response(60.0)] + [
                t.response(60.0) for t in tickets
            ]
        finally:
            gate.set()
            service.close()
        assert all(r.ok for r in responses)
        assert max(r.batched for r in responses) >= 2
        stats = service.stats()
        assert stats["coalesced"] >= 1


class TestAdmissionControl:
    def test_queue_full_is_typed_rejected(self):
        gate = threading.Event()
        service = _gated_service(gate, queue_capacity=2)
        try:
            blocker = service.submit(_instance(seed=3), tier="ipu")
            assert _wait_until(lambda: service.queue_depth() == 0)
            queued = [service.submit(_instance(seed=4 + i)) for i in range(2)]
            overflow = service.submit(_instance(seed=9))
            rejection = overflow.response(1.0)
            assert not rejection.ok
            assert rejection.reject.code == "queue_full"
            assert "capacity" in rejection.reject.detail
            gate.set()
            assert blocker.response(60.0).ok
            assert all(t.response(60.0).ok for t in queued)
        finally:
            gate.set()
            service.close()
        document = service.stats_document()
        validate_document(document)
        assert document["requests"]["rejected"]["queue_full"] == 1
        assert document["requests"]["in_flight"] == 0

    def test_cancel_while_queued(self):
        gate = threading.Event()
        service = _gated_service(gate, queue_capacity=8)
        try:
            blocker = service.submit(_instance(seed=5), tier="ipu")
            assert _wait_until(lambda: service.queue_depth() == 0)
            victim = service.submit(_instance(seed=6))
            assert victim.cancel()
            gate.set()
            assert blocker.response(60.0).ok
            response = victim.response(60.0)
        finally:
            gate.set()
            service.close()
        assert not response.ok
        assert response.reject.code == "cancelled"

    def test_deadline_expires_while_queued(self):
        gate = threading.Event()
        service = _gated_service(gate, queue_capacity=8)
        try:
            blocker = service.submit(_instance(seed=7), tier="ipu")
            assert _wait_until(lambda: service.queue_depth() == 0)
            victim = service.submit(_instance(seed=8), deadline_s=0.01)
            time.sleep(0.05)
            gate.set()
            assert blocker.response(60.0).ok
            response = victim.response(60.0)
        finally:
            gate.set()
            service.close()
        assert not response.ok
        assert response.reject.code == "deadline_expired"

    def test_submit_after_close_is_shutdown_rejected(self):
        service = SolverService(workers=1)
        service.close()
        response = service.submit(_instance()).response(1.0)
        assert not response.ok
        assert response.reject.code == "shutdown"
        validate_document(service.stats_document())

    def test_close_without_drain_rejects_queued(self):
        gate = threading.Event()
        service = _gated_service(gate, queue_capacity=8)
        blocker = service.submit(_instance(seed=9), tier="ipu")
        assert _wait_until(lambda: service.queue_depth() == 0)
        queued = [service.submit(_instance(seed=20 + i)) for i in range(2)]
        closer = threading.Thread(
            target=service.close, kwargs={"drain": False}, daemon=True
        )
        closer.start()
        time.sleep(0.05)
        gate.set()
        closer.join(30.0)
        assert blocker.response(60.0).ok  # in-flight work still finishes
        codes = {t.response(60.0).reject.code for t in queued}
        assert codes == {"shutdown"}
        validate_document(service.stats_document())


class TestDegradation:
    def test_permanent_engine_fault_falls_back(self):
        metrics = MetricsRegistry()
        pool = WarmEnginePool(
            flaky_factory(failures_before_success=10**9), metrics=metrics
        )
        instance = _instance(seed=10)
        with SolverService(workers=1, pool=pool, metrics=metrics) as service:
            response = service.solve(instance, tier="auto", timeout=60.0)
        assert response.ok
        assert response.degraded
        assert response.fallback_reason == "engine_error"
        assert response.backend in ("fastha", "scipy")
        assert response.result.total_cost == pytest.approx(
            _optimum(instance), abs=1e-6
        )
        document = service.stats_document()
        validate_document(document)
        assert document["fallbacks"]["engine_error"] == 1
        assert document["requests"]["degraded"] == 1

    def test_single_fault_recovers_on_retry(self):
        metrics = MetricsRegistry()
        pool = WarmEnginePool(
            flaky_factory(failures_before_success=1), metrics=metrics
        )
        instance = _instance(seed=11)
        with SolverService(workers=1, pool=pool, metrics=metrics) as service:
            response = service.solve(instance, tier="ipu", timeout=60.0)
        assert response.ok
        assert response.backend == "hunipu"
        assert not response.degraded  # retried, but served by the right backend
        document = service.stats_document()
        validate_document(document)
        assert response.retries == 1 == document["fallbacks"]["retries"]

    def test_batch_member_fault_retries_only_that_member(self):
        gate = threading.Event()
        runs: list[str] = []
        faulted: set[str] = set()

        class OneFaultSolver(_gated_factory(gate)):
            def _run_engine(self, compiled, instance, **kwargs):
                runs.append(instance.name)
                if instance.name == "member-2" and instance.name not in faulted:
                    faulted.add(instance.name)
                    raise ExecutionError("injected fault on one batch member")
                return super()._run_engine(compiled, instance, **kwargs)

        metrics = MetricsRegistry()
        service = SolverService(
            workers=1,
            max_batch=4,
            metrics=metrics,
            pool=WarmEnginePool(OneFaultSolver, metrics=metrics),
        )
        try:
            blocker = service.submit(_instance(seed=50, name="blocker"), tier="ipu")
            assert _wait_until(lambda: service.queue_depth() == 0)
            tickets = [
                service.submit(_instance(seed=51 + i, name=f"member-{i}"), tier="ipu")
                for i in range(4)
            ]
            gate.set()
            assert blocker.response(60.0).ok
            responses = [t.response(60.0) for t in tickets]
        finally:
            gate.set()
            service.close()
        assert all(r.ok and r.backend == "hunipu" for r in responses)
        assert not any(r.degraded for r in responses)
        assert [r.batched for r in responses] == [4, 4, 4, 4]
        assert len([name for name in runs if name.startswith("member-")]) == 5
        document = service.stats_document()
        validate_document(document)
        assert document["fallbacks"]["retries"] == 1 == sum(r.retries for r in responses)

    def test_degraded_results_are_still_optimal(self):
        pool = WarmEnginePool(flaky_factory(failures_before_success=10**9))
        instances = [_instance(seed=30 + i, name=f"deg-{i}") for i in range(5)]
        with SolverService(workers=2, pool=pool) as service:
            tickets = [service.submit(inst) for inst in instances]
            responses = [t.response(60.0) for t in tickets]
        for instance, response in zip(instances, responses):
            assert response.ok and response.degraded
            assert response.result.total_cost == pytest.approx(
                _optimum(instance), abs=1e-6
            )

    def test_verification_failure_is_never_silent(self, monkeypatch):
        monkeypatch.setattr(
            service_module, "verify_answer", lambda *args, **kwargs: False
        )
        with SolverService(workers=1, verify=True) as service:
            response = service.solve(_instance(), timeout=60.0)
        assert not response.ok
        assert response.reject.code == "internal_error"
        assert "verification" in response.reject.detail
        validate_document(service.stats_document())


class TestStats:
    def test_document_accounts_for_everything(self):
        with SolverService(workers=2, verify=True) as service:
            tickets = [
                service.submit(_instance(seed=40 + i), tier=tier)
                for i, tier in enumerate(("ipu", "auto", "fast", "auto"))
            ]
            responses = [t.response(60.0) for t in tickets]
        assert all(r.ok for r in responses)
        document = service.stats_document(meta={"suite": "unit"})
        validate_document(document)
        requests = document["requests"]
        assert requests["submitted"] == 4
        assert requests["completed"] == 4
        assert requests["in_flight"] == 0
        assert sum(document["backends"].values()) == 4
        assert document["meta"]["suite"] == "unit"
        assert document["latency_seconds"]["count"] == 4
        assert document["pool"]["hits"] + document["pool"]["misses"] > 0

    def test_constructor_validates_limits(self):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            SolverService(workers=0)
        with pytest.raises(SolverError):
            SolverService(workers=1, queue_capacity=0)
        with pytest.raises(SolverError):
            SolverService(workers=1, max_batch=0)
