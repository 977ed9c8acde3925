"""End-to-end request span trees through the serving pipeline.

The tentpole acceptance criteria: drive a :class:`SolverService` built with
a :class:`SpanCollector` through a load-generator run and require that
*every* admitted-or-rejected request produced a span tree whose root
carries the ``req-`` correlation id and whose direct children account for
>= 95% of the measured latency — on completed, degraded, and rejected
paths alike.
"""

from repro.data.synthetic import gaussian_instance
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanCollector
from repro.serve import (
    SolverService,
    WarmEnginePool,
    flaky_factory,
    generate_workload,
    run_load,
)


def _service(spans, **kwargs):
    metrics = MetricsRegistry()
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("pool", WarmEnginePool(None, metrics=metrics))
    return SolverService(metrics=metrics, spans=spans, **kwargs)


class TestLoadGenSpanTrees:
    def test_every_request_yields_a_complete_tree(self):
        spans = SpanCollector()
        service = _service(spans, max_batch=4)
        try:
            service.pool.warm([8, 12, 16])
            workload = generate_workload(30, seed=3, shapes=(8, 8, 12, 16))
            report = run_load(service, workload, concurrency=4, verify=False)
        finally:
            service.close()

        assert report.lost == 0
        responses = report.responses
        assert len(responses) == 30
        roots = {span.correlation_id: span for span in spans.roots()}
        for response in responses:
            correlation = response.correlation_id
            assert correlation.startswith("req-")
            root = roots[correlation]
            assert root.name == "request"
            assert root.attributes["request_id"] == response.request_id
            expected = "ok" if response.ok else "rejected"
            assert root.status == expected
            # Leaf spans must explain >= 95% of the measured latency.
            assert spans.coverage(correlation) >= 0.95
            children = {s.name for s in spans.children(root)}
            if response.ok:
                assert children == {"queue", "execute"}
                execute = next(
                    s for s in spans.children(root) if s.name == "execute"
                )
                assert execute.attributes["backend"] == response.backend
                assert execute.attributes["batched"] == response.batched
        # Every span of the run is finished — nothing leaks open.
        assert all(span.finished for span in spans.finished())

    def test_engine_requests_link_to_engine_run_spans(self):
        spans = SpanCollector()
        service = _service(spans)
        try:
            service.pool.warm([8])
            response = service.solve(
                gaussian_instance(8, 10, seed=1), tier="ipu", timeout=60.0
            )
        finally:
            service.close()
        assert response.ok and response.backend == "hunipu"
        tree = spans.tree(response.correlation_id)
        assert tree is not None

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        flattened = list(names(tree))
        # The request span tree reaches down into the engine's own story,
        # through the ladder's engine leg.
        assert "engine.run" in flattened
        leg = next(node for node in _walk(tree) if node["name"] == "backend.hunipu")
        engine = next(
            node
            for node in _walk(leg)
            if node["name"] == "engine.run"
        )
        assert engine["correlation_id"] == response.correlation_id
        assert engine["attributes"]["supersteps"] > 0

    def test_degraded_paths_keep_complete_trees(self):
        spans = SpanCollector()
        metrics = MetricsRegistry()
        pool = WarmEnginePool(
            flaky_factory(1.0, seed=0), metrics=metrics
        )
        service = SolverService(
            workers=1, pool=pool, metrics=metrics, spans=spans
        )
        try:
            response = service.solve(
                gaussian_instance(8, 10, seed=2), tier="ipu", timeout=60.0
            )
        finally:
            service.close()
        assert response.ok and response.degraded
        correlation = response.correlation_id
        assert spans.coverage(correlation) >= 0.95
        names = [s.name for s in spans.by_correlation(correlation)]
        # The failed engine leg is recorded (status error), then the
        # fallback leg, and the tree still closes.
        assert "backend.hunipu" in names
        statuses = {
            s.name: s.status for s in spans.by_correlation(correlation)
        }
        assert statuses["backend.hunipu"] == "error"
        assert statuses["request"] == "ok"

    def test_admission_reject_has_root_with_reject_attr(self):
        spans = SpanCollector()
        service = _service(spans, workers=1)
        service.close()  # shut down -> every submit rejects
        ticket = service.submit(gaussian_instance(8, 10, seed=0))
        response = ticket.response(5.0)
        assert response.status == "rejected"
        assert response.reject.code == "shutdown"
        root = spans.tree(response.correlation_id)
        assert root is not None
        assert root["status"] == "rejected"
        assert root["attributes"]["reject"] == "shutdown"
        assert spans.coverage(response.correlation_id) == 1.0

    def test_invalid_request_still_traced(self):
        spans = SpanCollector()
        service = _service(spans, workers=1)
        try:
            ticket = service.submit(
                gaussian_instance(8, 10, seed=0), tier="warp"
            )
            response = ticket.response(5.0)
        finally:
            service.close()
        assert response.reject.code == "invalid"
        root = spans.tree(response.correlation_id)
        assert root["attributes"]["reject"] == "invalid"

    def test_null_spans_service_records_nothing(self):
        service = _service(NULL_SPANS, workers=1)
        try:
            response = service.solve(
                gaussian_instance(8, 10, seed=0), tier="fast", timeout=30.0
            )
        finally:
            service.close()
        assert response.ok
        assert response.correlation_id.startswith("req-")


class TestSpansDocumentRoundTrip:
    def test_export_validates_and_round_trips(self, tmp_path):
        import json

        from repro.obs.export import (
            perfetto_from_documents,
            spans_to_dict,
            validate_document,
            validate_perfetto,
            write_json,
        )

        spans = SpanCollector()
        service = _service(spans, workers=2)
        try:
            workload = generate_workload(12, seed=5, shapes=(8, 12))
            run_load(service, workload, concurrency=3, verify=False)
        finally:
            service.close()
        document = spans_to_dict(spans, meta={"seed": 5})
        validate_document(document)
        path = write_json(tmp_path / "spans.json", document)
        loaded = json.loads(path.read_text())
        validate_document(loaded)
        assert loaded == document
        perfetto = perfetto_from_documents(spans_document=loaded)
        validate_perfetto(perfetto)
        assert perfetto["traceEvents"]


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)
