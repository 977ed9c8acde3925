"""Tests for the warm-start session cache and its service routing."""

import threading
import time

import numpy as np
import pytest

from repro.core.solver import HunIPUSolver
from repro.lap.problem import LAPInstance
from repro.obs.metrics import MetricsRegistry
from repro.serve.loadgen import generate_workload, run_load
from repro.serve.pool import WarmEnginePool
from repro.serve.sessions import SessionStore
from repro.serve.service import SolverService


def _warm_for(size, seed=0):
    rng = np.random.default_rng(seed)
    result = HunIPUSolver().solve(
        LAPInstance(rng.random((size, size))), capture_warm_start=True
    )
    return result.stats["warm_start"]


class TestSessionStore:
    def test_miss_then_hit(self):
        store = SessionStore()
        assert store.get("a", 8) is None
        warm = _warm_for(8)
        store.record("a", warm, supersteps=100, warm_used=False)
        assert store.get("a", 8) is warm
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_size_mismatch_is_a_miss(self):
        store = SessionStore()
        store.record("a", _warm_for(8), supersteps=100, warm_used=False)
        assert store.get("a", 12) is None
        assert store.stats()["misses"] == 1

    def test_lru_eviction(self):
        store = SessionStore(capacity=2)
        store.record("a", _warm_for(8, 1), supersteps=10, warm_used=False)
        store.record("b", _warm_for(8, 2), supersteps=10, warm_used=False)
        store.get("a", 8)  # refresh a; b becomes LRU
        store.record("c", _warm_for(8, 3), supersteps=10, warm_used=False)
        assert len(store) == 2
        assert store.get("b", 8) is None
        assert store.get("a", 8) is not None
        assert store.stats()["evictions"] == 1

    def test_supersteps_saved_accumulates_vs_cold_baseline(self):
        store = SessionStore()
        warm = _warm_for(8)
        store.record("a", warm, supersteps=500, warm_used=False)  # cold baseline
        store.record("a", warm, supersteps=120, warm_used=True)
        store.record("a", warm, supersteps=80, warm_used=True)
        stats = store.stats()
        assert stats["warm_solves"] == 2
        assert stats["supersteps_saved"] == (500 - 120) + (500 - 80)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SessionStore(capacity=0)

    def test_metrics_flow(self):
        metrics = MetricsRegistry()
        store = SessionStore(metrics=metrics)
        store.get("a", 8)
        store.record("a", _warm_for(8), supersteps=100, warm_used=False)
        store.get("a", 8)
        assert metrics.counter("serve.sessions.misses").value == 1
        assert metrics.counter("serve.sessions.hits").value == 1


class TestServiceSessions:
    def test_session_followups_go_warm(self):
        rng = np.random.default_rng(0)
        sessions = SessionStore()
        costs = rng.random((8, 8))
        with SolverService(workers=1, sessions=sessions) as service:
            for _ in range(4):
                costs[rng.choice(8, size=2, replace=False)] = rng.random((2, 8))
                ticket = service.submit(
                    LAPInstance(costs.copy()), tier="ipu", session_id="s1"
                )
                response = ticket.response(60.0)
                assert response.ok
                assert response.backend == "hunipu"
        stats = sessions.stats()
        assert stats["sessions"] == 1
        assert stats["misses"] == 1  # only the first visit
        assert stats["hits"] == 3
        assert stats["warm_solves"] == 3

    def test_session_request_is_never_coalesced(self):
        gate = threading.Event()

        class GatedSolver(HunIPUSolver):
            def _run_engine(self, compiled, instance, **kwargs):
                gate.wait(timeout=30.0)
                return super()._run_engine(compiled, instance, **kwargs)

        rng = np.random.default_rng(3)
        costs = rng.random((8, 8))
        sessions = SessionStore()
        service = SolverService(
            workers=1,
            max_batch=4,
            sessions=sessions,
            pool=WarmEnginePool(GatedSolver, metrics=MetricsRegistry()),
        )
        try:
            first = service.submit(
                LAPInstance(costs.copy()), tier="ipu", session_id="s"
            )
            deadline = time.monotonic() + 10.0
            while service.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.005)
            # Queued behind the running first solve: a plain request that
            # heads the next batch, then the session's same-shape follow-up.
            plain = service.submit(LAPInstance(rng.random((8, 8))), tier="ipu")
            costs[0] = rng.random(8)
            follow = service.submit(
                LAPInstance(costs.copy()), tier="ipu", session_id="s"
            )
            gate.set()
            responses = [t.response(60.0) for t in (first, plain, follow)]
        finally:
            gate.set()
            service.close()
        assert all(r.ok and r.backend == "hunipu" for r in responses)
        assert [r.batched for r in responses] == [1, 1, 1]
        assert sessions.stats()["warm_solves"] == 1

    def test_sessions_block_in_stats_document(self):
        sessions = SessionStore()
        with SolverService(workers=1, sessions=sessions) as service:
            rng = np.random.default_rng(1)
            service.submit(
                LAPInstance(rng.random((8, 8))), tier="ipu", session_id="x"
            ).response(60.0)
            document = service.stats_document()
        assert "sessions" in document
        assert document["sessions"]["sessions"] == 1

    def test_no_store_ignores_session_id(self):
        with SolverService(workers=1) as service:
            rng = np.random.default_rng(2)
            response = service.submit(
                LAPInstance(rng.random((8, 8))), tier="ipu", session_id="x"
            ).response(60.0)
            assert response.ok
            assert "sessions" not in service.stats_document()

    def test_session_results_verify_against_scipy(self):
        sessions = SessionStore()
        workload = generate_workload(
            20, seed=7, shapes=(8, 12), session_streams=2
        )
        assert any(item.session_id for item in workload)
        with SolverService(workers=2, sessions=sessions) as service:
            report = run_load(
                service, workload, mode="closed", concurrency=2, verify=True
            )
        assert report.lost == 0
        assert report.verify_failures == 0
        assert report.completed == len(workload)
        assert sessions.stats()["warm_solves"] > 0


class TestLoadgenSessions:
    def test_session_items_interleave(self):
        workload = generate_workload(10, seed=0, session_streams=2)
        session_items = [item for item in workload if item.session_id]
        assert len(session_items) == 5  # every other item
        assert {item.session_id for item in session_items} == {
            "sess-0",
            "sess-1",
        }
        # Session traffic pins the engine tier and carries no deadline.
        assert all(item.tier == "ipu" for item in session_items)
        assert all(item.deadline_s is None for item in session_items)

    def test_streams_keep_a_stable_shape(self):
        workload = generate_workload(12, seed=3, session_streams=1)
        sizes = {
            item.instance.size for item in workload if item.session_id
        }
        assert len(sizes) == 1

    def test_no_streams_means_no_session_ids(self):
        workload = generate_workload(6, seed=0)
        assert all(item.session_id is None for item in workload)
