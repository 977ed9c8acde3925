"""HTTP conformance battery: the server never crashes, rejects are typed.

Runs the stdlib front-end over a :class:`ServiceAdapter` (in-process
service — no spawn cost), then throws the malformed-input catalogue at
``/solve``: broken JSON, non-square and NaN matrices, a missing
``deadline_s`` key, oversized matrices and bodies, wrong paths, wrong
methods.  Every one must come back as a typed 4xx/5xx JSON document in the
``repro.solve-response/1`` schema with a correlation id — and the server
must keep answering afterwards (the final health check is the point).
"""

import json
import re

import numpy as np
import pytest

from repro.obs.export import (
    validate_serve_stats,
    validate_solve_response,
)
from repro.serve import (
    STATUS_OF_REJECT,
    HttpClient,
    HttpFrontend,
    ServiceAdapter,
    SolverService,
)
from repro.serve.workers import reject_document

_RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def frontend():
    service = SolverService(workers=2, verify=True)
    front = HttpFrontend(ServiceAdapter(service))
    yield front
    front.close()
    service.close()


@pytest.fixture(scope="module")
def client(frontend):
    return HttpClient(frontend.url)


def _assert_typed_reject(status, document, code):
    assert status == STATUS_OF_REJECT[code], (status, document)
    validate_solve_response(document)
    assert document["status"] == "rejected"
    assert document["reject"]["code"] == code
    assert document["correlation_id"]  # never empty, never missing
    # Front-end rejects share the one builder's key set with every other.
    template = reject_document(
        request_id=0, correlation_id="c", tier=None, code=code, detail=""
    )
    assert document.keys() == template.keys()


def test_happy_path_solves_and_validates(client):
    status, document = client.solve(
        _RNG.random((6, 6)) * 10.0, tier="auto", deadline_s=None
    )
    assert status == 200
    validate_solve_response(document)
    assert document["status"] == "completed"
    assert sorted(document["assignment"]) == list(range(6))
    assert document["total_cost"] == pytest.approx(
        float(
            np.asarray(document["total_cost"])
        )  # self-consistent JSON number
    )


def test_approx_tier_reports_gap_bound(client):
    status, document = client.solve(
        _RNG.random((8, 8)) * 10.0, tier="approx", deadline_s=None
    )
    assert status == 200
    validate_solve_response(document)
    assert document["status"] == "completed"
    assert document["backend"] == "approx"
    assert document["gap_bound"] is not None
    assert document["gap_bound"] >= 0.0


def test_malformed_json_is_typed_400(client):
    status, document = client.solve_raw(b"{not json at all")
    _assert_typed_reject(status, document, "bad_json")


def test_non_object_body_is_typed_400(client):
    status, document = client.solve_raw(b"[1, 2, 3]")
    _assert_typed_reject(status, document, "bad_json")


def test_missing_deadline_key_is_typed_400(client):
    body = json.dumps({"costs": [[1.0, 2.0], [3.0, 4.0]]}).encode()
    status, document = client.solve_raw(body)
    _assert_typed_reject(status, document, "missing_deadline")


def test_non_square_matrix_is_typed_400(client):
    body = json.dumps(
        {"costs": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "deadline_s": None}
    ).encode()
    status, document = client.solve_raw(body)
    _assert_typed_reject(status, document, "invalid")


def test_nan_cost_is_typed_400(client):
    body = (
        b'{"costs": [[1.0, NaN], [2.0, 3.0]], "deadline_s": null}'
    )
    status, document = client.solve_raw(body)
    # Python's json parses NaN; schema validation must still refuse it.
    _assert_typed_reject(status, document, "invalid")


def test_oversized_matrix_is_typed_400(client):
    n = 513  # one past _MAX_MATRIX_N; rejected before full validation
    row = [0.0] * n
    body = json.dumps({"costs": [row] * n, "deadline_s": None}).encode()
    status, document = client.solve_raw(body)
    _assert_typed_reject(status, document, "oversized")


def test_oversized_body_is_typed_413(frontend):
    small = HttpClient(frontend.url)
    huge = b" " * (frontend.max_body_bytes + 1)
    status, document = small.solve_raw(huge)
    _assert_typed_reject(status, document, "body_too_large")


def test_unknown_path_is_typed_404(client):
    status, payload = client._request("/nope")
    document = json.loads(payload)
    _assert_typed_reject(status, document, "not_found")


def test_wrong_method_is_typed_405(client):
    status, payload = client._request("/solve", method="DELETE")
    document = json.loads(payload)
    _assert_typed_reject(status, document, "bad_method")


def test_negative_deadline_is_typed_400(client):
    body = json.dumps(
        {"costs": [[1.0, 2.0], [3.0, 4.0]], "deadline_s": -1.0}
    ).encode()
    status, document = client.solve_raw(body)
    _assert_typed_reject(status, document, "invalid")


def test_unknown_tier_is_typed_400(client):
    body = json.dumps(
        {
            "costs": [[1.0, 2.0], [3.0, 4.0]],
            "deadline_s": None,
            "tier": "warp-speed",
        }
    ).encode()
    status, document = client.solve_raw(body)
    _assert_typed_reject(status, document, "invalid")


def test_metrics_parses_as_prometheus(client):
    status, text = client.metrics()
    assert status == 200
    lines = [line for line in text.splitlines() if line.strip()]
    assert lines, "metrics exposition must not be empty"
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?\s[-+0-9.eE]+(\s\d+)?$'
    )
    for line in lines:
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
        else:
            assert sample.match(line), f"unparseable sample line: {line!r}"


def test_stats_document_validates_over_http(client):
    status, document = client.stats()
    assert status == 200
    validate_serve_stats(document)
    assert document["meta"]["transport"] == "http"


def test_healthz_reports_ok(client):
    status, document = client.healthz()
    assert status == 200
    assert document["ok"] is True


def test_server_survives_the_whole_battery(client):
    """After every malformed request above, the server still solves."""
    status, document = client.solve(
        np.arange(9.0).reshape(3, 3), tier="fast", deadline_s=None
    )
    assert status == 200
    assert document["status"] == "completed"
