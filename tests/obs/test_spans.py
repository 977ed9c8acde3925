"""Unit, concurrency-stress, and overhead tests for repro.obs.spans."""

import threading
from time import perf_counter

import pytest

from repro.obs.spans import (
    NULL_SPANS,
    SpanCollector,
    child_span,
    correlation_scope,
    current_correlation_id,
    current_span,
)


class FakeClock:
    """Deterministic monotonic clock for exact duration assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSpanBasics:
    def test_start_end_records_duration(self):
        clock = FakeClock()
        spans = SpanCollector(clock=clock)
        span = spans.start("request", correlation_id="req-1")
        clock.advance(2.5)
        spans.end(span)
        assert span.finished
        assert span.duration_s == pytest.approx(2.5)
        assert spans.finished() == [span]

    def test_end_is_idempotent(self):
        clock = FakeClock()
        spans = SpanCollector(clock=clock)
        span = spans.start("x", correlation_id="c")
        spans.end(span)
        first_end = span.end_s
        clock.advance(1.0)
        spans.end(span, "error")
        assert span.end_s == first_end
        assert span.status == "ok"
        assert len(spans) == 1

    def test_explicit_parent_and_correlation_inheritance(self):
        spans = SpanCollector()
        root = spans.start("request", correlation_id="req-7")
        kid = spans.start("queue", parent=root)
        assert kid.parent_id == root.span_id
        assert kid.correlation_id == "req-7"

    def test_anonymous_spans_get_generated_correlation(self):
        spans = SpanCollector()
        a = spans.start("a")
        b = spans.start("b")
        assert a.correlation_id != b.correlation_id
        assert a.correlation_id.startswith("span-")

    def test_attributes_and_set_chain(self):
        spans = SpanCollector()
        span = spans.start("x", correlation_id="c", size=16).set(backend="hunipu")
        assert span.attributes == {"size": 16, "backend": "hunipu"}
        assert span.to_dict()["attributes"] == {"size": 16, "backend": "hunipu"}

    def test_root_flag_detaches_from_ambient(self):
        spans = SpanCollector()
        with spans.span("outer", correlation_id="outer-1"):
            detached = spans.start("request", correlation_id="req-1", root=True)
            nested = spans.start("nested")
            spans.end(detached)
            spans.end(nested)
        assert detached.parent_id is None
        assert nested.parent_id is not None


class TestAmbientPropagation:
    def test_span_context_sets_and_restores_current(self):
        spans = SpanCollector()
        assert current_span() is None
        with spans.span("request", correlation_id="req-1") as span:
            assert current_span() is span
            assert current_correlation_id() == "req-1"
        assert current_span() is None
        assert current_correlation_id() is None

    def test_nested_spans_build_a_tree(self):
        spans = SpanCollector()
        with spans.span("request", correlation_id="req-1") as root:
            with spans.span("execute") as execute:
                with child_span("engine.run", mode="compressed") as leaf:
                    pass
        assert execute.parent_id == root.span_id
        assert leaf.parent_id == execute.span_id
        assert leaf.correlation_id == "req-1"
        tree = spans.tree("req-1")
        assert tree["name"] == "request"
        assert tree["children"][0]["name"] == "execute"
        assert tree["children"][0]["children"][0]["name"] == "engine.run"
        assert tree["children"][0]["children"][0]["attributes"]["mode"] == (
            "compressed"
        )

    def test_exception_marks_error_and_restores_context(self):
        spans = SpanCollector()
        with pytest.raises(RuntimeError):
            with spans.span("request", correlation_id="req-1"):
                raise RuntimeError("boom")
        assert current_span() is None
        (span,) = spans.finished()
        assert span.status == "error"
        assert span.finished

    def test_activate_adopts_without_ending(self):
        spans = SpanCollector()
        span = spans.start("request", correlation_id="req-9")
        with spans.activate(span):
            assert current_span() is span
            with child_span("inner") as inner:
                pass
        assert not span.finished  # activate never closes
        assert inner.parent_id == span.span_id
        spans.end(span)

    def test_child_span_without_active_is_shared_noop(self):
        with child_span("engine.run") as a:
            with child_span("deeper") as b:
                assert a is b  # the shared null span
        assert a.set(x=1) is a
        assert a.attributes == {}

    def test_correlation_scope_without_spans(self):
        assert current_correlation_id() is None
        with correlation_scope("req-42"):
            assert current_correlation_id() == "req-42"
        assert current_correlation_id() is None

    def test_active_span_wins_over_correlation_scope(self):
        spans = SpanCollector()
        with correlation_scope("req-outer"):
            with spans.span("request", correlation_id="req-inner"):
                assert current_correlation_id() == "req-inner"
            assert current_correlation_id() == "req-outer"

    def test_thread_isolation(self):
        spans = SpanCollector()
        seen = {}

        def worker():
            seen["span"] = current_span()
            seen["correlation"] = current_correlation_id()

        with spans.span("request", correlation_id="req-1"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["span"] is None
        assert seen["correlation"] is None


class TestNullDiscipline:
    def test_null_spans_disabled_and_inert(self):
        assert NULL_SPANS.enabled is False
        span = NULL_SPANS.start("x", correlation_id="c")
        assert span.set(a=1) is span
        NULL_SPANS.end(span, "error")
        with NULL_SPANS.span("y") as inner:
            assert inner is span
        with NULL_SPANS.activate(span):
            pass
        assert current_span() is None


class TestCompileSpans:
    def test_plan_building_and_checker_are_children_of_the_compile(self):
        from repro.core.solver import HunIPUSolver
        from repro.ipu.compiler import compile_graph

        compiled = HunIPUSolver().compiled_for(8)
        spans = SpanCollector()
        with spans.span("pool.compile", correlation_id="req-1") as parent:
            compile_graph(compiled.graph, compiled.program, check="warn")
        children = spans.children(parent)
        assert [child.name for child in children] == [
            "compile.plans",
            "compile.check",
        ]
        plans, check = children
        assert plans.attributes["compute_sets"] == len(
            compiled.engine.compiled.plans
        )
        assert plans.correlation_id == check.correlation_id == "req-1"
        assert plans.finished and check.finished


class TestViews:
    def test_coverage_full_tree(self):
        clock = FakeClock()
        spans = SpanCollector(clock=clock)
        root = spans.start("request", correlation_id="req-1")
        queue = spans.start("queue", parent=root)
        clock.advance(0.4)
        spans.end(queue)
        execute = spans.start("execute", parent=root)
        clock.advance(0.6)
        spans.end(execute)
        spans.end(root)
        assert spans.coverage("req-1") == pytest.approx(1.0)

    def test_coverage_partial(self):
        clock = FakeClock()
        spans = SpanCollector(clock=clock)
        root = spans.start("request", correlation_id="req-1")
        child = spans.start("queue", parent=root)
        clock.advance(0.5)
        spans.end(child)
        clock.advance(0.5)  # unaccounted second half
        spans.end(root)
        assert spans.coverage("req-1") == pytest.approx(0.5)

    def test_coverage_childless_root_and_missing(self):
        spans = SpanCollector()
        root = spans.start("request", correlation_id="req-1")
        spans.end(root)
        assert spans.coverage("req-1") == 1.0
        assert spans.coverage("req-nope") == 0.0

    def test_roots_and_by_correlation(self):
        spans = SpanCollector()
        a = spans.start("request", correlation_id="req-a")
        kid = spans.start("queue", parent=a)
        b = spans.start("request", correlation_id="req-b")
        for span in (kid, a, b):
            spans.end(span)
        assert {s.correlation_id for s in spans.roots()} == {"req-a", "req-b"}
        assert [s.name for s in spans.by_correlation("req-a")] == [
            "queue", "request"
        ]


class TestConcurrencyStress:
    def test_many_workers_one_collector(self):
        """Satellite: overlapping spans from many threads, one sink.

        Every span id must be unique, every parent edge must stay within
        its own request tree, and nothing may be lost or torn.
        """
        spans = SpanCollector()
        workers = 8
        per_worker = 50
        barrier = threading.Barrier(workers)
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for index in range(per_worker):
                    correlation = f"req-{worker_id}-{index}"
                    with spans.span(
                        "request", correlation_id=correlation, root=True
                    ):
                        with spans.span("queue"):
                            pass
                        with spans.span("execute"):
                            with child_span("engine.run"):
                                pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        finished = spans.finished()
        assert len(finished) == workers * per_worker * 4
        ids = [span.span_id for span in finished]
        assert len(set(ids)) == len(ids)
        by_id = {span.span_id: span for span in finished}
        for span in finished:
            assert span.finished and span.end_s >= span.start_s
            if span.parent_id is None:
                assert span.name == "request"
            else:
                parent = by_id[span.parent_id]
                assert parent.correlation_id == span.correlation_id
        for worker_id in range(workers):
            for index in range(per_worker):
                correlation = f"req-{worker_id}-{index}"
                tree = spans.tree(correlation)
                assert tree is not None
                assert [c["name"] for c in tree["children"]] == [
                    "queue", "execute"
                ]
                assert spans.coverage(correlation) <= 1.0


class TestOverheadBudget:
    def test_disabled_child_span_is_cheap(self):
        """Acceptance: disabled spans add <5% to an uninstrumented solve.

        Measured structurally instead of a brittle A/B wall-clock diff: the
        per-call cost of a no-op :func:`child_span` entry/exit (what every
        deep-layer hook costs when untraced), times a generous multiple of
        the hooks an engine-backed solve actually hits (~3 per solve), must
        sit far inside 5% of one small solve's wall time.
        """
        from repro.core.solver import HunIPUSolver
        from repro.data.synthetic import gaussian_instance

        instance = gaussian_instance(16, 100, seed=0)
        solver = HunIPUSolver()
        solver.solve(instance)  # compile outside the timed window
        started = perf_counter()
        solver.solve(instance)
        solve_seconds = perf_counter() - started

        calls = 10_000
        started = perf_counter()
        for _ in range(calls):
            with child_span("engine.run"):
                pass
        per_call = (perf_counter() - started) / calls

        hooks_per_solve = 100  # ~30x the real hook count — generous slack
        assert per_call * hooks_per_solve < 0.05 * solve_seconds, (
            f"no-op child_span costs {per_call * 1e6:.2f}us/call; "
            f"{hooks_per_solve} calls would eat >=5% of a "
            f"{solve_seconds * 1e3:.1f}ms solve"
        )
