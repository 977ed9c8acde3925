"""Concurrency tests for the shared ``repro.serve/1`` request ledger."""

import random
import sys
import threading

from repro.obs.export import SERVE_SCHEMA, validate_serve_stats
from repro.serve.stats import RequestLedger

_POOL_BLOCK = {
    "hits": 0, "misses": 0, "evictions": 0, "resident_bytes": 0, "shapes": [],
}


def _document(ledger: RequestLedger) -> dict:
    return {
        "schema": SERVE_SCHEMA,
        "meta": {},
        **ledger.document_blocks(),
        "pool": _POOL_BLOCK,
    }


def _drive(ledger: RequestLedger, seed: int, operations: int, tally: dict) -> None:
    """Random transitions; only requests this thread admitted are closed."""
    rng = random.Random(seed)
    open_requests = 0
    for _ in range(operations):
        roll = rng.random()
        if roll < 0.4 or open_requests == 0:
            ledger.admit()
            open_requests += 1
        elif roll < 0.7:
            approx = rng.random() < 0.3
            ledger.complete(
                backend="approx" if approx else rng.choice(("hunipu", "scipy")),
                tier=rng.choice(("auto", "ipu", "fast", "approx")),
                latency_s=rng.random(),
                fallback_reason=rng.choice((None, None, "engine_error", "deadline")),
                deadline_missed=rng.random() < 0.1,
                gap_bound=rng.random() if approx else None,
            )
            open_requests -= 1
            tally["completed"] += 1
        elif roll < 0.85:
            ledger.reject(rng.choice(("queue_full", "deadline_expired")))
            open_requests -= 1
            tally["rejected"] += 1
        elif roll < 0.95:
            ledger.reject("invalid", admitted=False)
            tally["rejected"] += 1
        else:
            ledger.retried(rng.randint(1, 3))
    for _ in range(open_requests):
        ledger.reject("shutdown")
        tally["rejected"] += 1


def test_every_concurrent_snapshot_validates():
    ledger = RequestLedger()
    tallies = [{"completed": 0, "rejected": 0} for _ in range(8)]
    workers = [
        threading.Thread(target=_drive, args=(ledger, seed, 3000, tallies[seed]))
        for seed in range(8)
    ]
    snapshots = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: expose torn updates
    try:
        for thread in workers:
            thread.start()
        while any(thread.is_alive() for thread in workers):
            validate_serve_stats(_document(ledger))
            snapshots += 1
        for thread in workers:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert snapshots > 0
    final = _document(ledger)
    validate_serve_stats(final)
    requests = final["requests"]
    assert requests["in_flight"] == 0
    assert requests["completed"] == sum(t["completed"] for t in tallies)
    assert sum(requests["rejected"].values()) == sum(t["rejected"] for t in tallies)
    assert final["latency_seconds"]["count"] == requests["completed"]


def test_blocks_of_an_empty_ledger_validate():
    document = _document(RequestLedger())
    validate_serve_stats(document)
    assert document["approx"] == {
        "responses": 0, "mean_gap_bound": 0.0, "max_gap_bound": 0.0, "by_tier": {},
    }
