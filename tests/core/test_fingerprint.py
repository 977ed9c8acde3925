"""Pinned modeled behaviour of whole solves, recorded before Step 4 went incremental.

Step 4's host work may be computed incrementally (cached scan lists,
owner lookups) only as long as everything the model charges and every
answer stays bit-identical.  This module pins that: for a seeded corpus
(random integers, heavy ties, Gaussian at k = 1 and 100, one padded
rectangular case) across engine modes, cold/warm, 1/2 IPUs, one and
several rows per tile, the deep profiler and the compression ablation, the canonical fingerprint of each
solve must equal the one committed in ``tests/golden/solve_fingerprint.json``:
assignment, cost, ``device_seconds``, supersteps, exchange and inter-IPU
bytes, and every :class:`~repro.ipu.profiler.StepRecord` field (floats
compared by ``float.hex``).

Every solve here also runs with :func:`checked_scan` installed, so each
``step4/status_scan`` superstep is compared with the stateless
``ZeroStatusScan().compute_all`` on the same views.

Re-record (only for a deliberate cost-model change)::

    PYTHONPATH=src python -m tests.core.test_fingerprint
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.solver import HunIPUSolver
from repro.core.steps.step4_prime_search import ZeroStatusScan
from repro.data.synthetic import gaussian_cost_matrix
from repro.ipu.cluster import ClusterSpec
from repro.ipu.spec import IPUSpec
from repro.lap.problem import LAPInstance
from repro.lap.rectangular import padding_value

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "solve_fingerprint.json"

SIZES = (8, 17, 64)

#: Solver settings per configuration; "warm" also re-solves a drifted copy.
CONFIGS = {
    "batched": {},
    "per_tile": {"engine_mode": "per_tile"},
    "deep": {"profile_tiles": True},
    "no_compression": {"use_compression": False},
    "ipus2": {"spec": "cluster2"},
    "toy_tiles": {"spec": "toy4"},  # several rows per tile
    "warm": {},
}


def _costs(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "ints":
        return rng.integers(0, 1000, (size, size)).astype(np.float64)
    if kind == "ties":
        return rng.integers(0, 3, (size, size)).astype(np.float64)
    if kind == "gauss1":
        return gaussian_cost_matrix(size, 1, rng)
    if kind == "gauss100":
        return gaussian_cost_matrix(size, 100, rng)
    assert kind == "rect", kind
    # 12 agents for 17 tasks, padded square the way solve_rectangular does.
    work = rng.integers(0, 100, (size - 5, size)).astype(np.float64)
    padded = np.full((size, size), padding_value(work))
    padded[: size - 5] = work
    return padded


CASES = [
    (kind, size)
    for size in SIZES
    for kind in ("ints", "ties", "gauss1", "gauss100")
] + [("rect", 17)]


def _case_id(kind: str, size: int) -> str:
    return f"{kind}-n{size}"


def _runs() -> list[tuple[str, str, int]]:
    """Every (configuration, kind, size); per-tile mode skips n=64 (~7 s)."""
    return [
        (config, kind, size)
        for config in CONFIGS
        for kind, size in CASES
        if not (config == "per_tile" and size == 64)
    ]


def _solver(config: str) -> HunIPUSolver:
    options = dict(CONFIGS[config])
    if options.get("spec") == "cluster2":
        options["spec"] = ClusterSpec(num_ipus=2).system()
    elif options.get("spec") == "toy4":
        options["spec"] = IPUSpec.toy(num_tiles=4)
    return HunIPUSolver(**options)


def _solve(config: str, kind: str, size: int):
    seed = 1000 * size + sorted({k for k, _ in CASES}).index(kind)
    costs = _costs(kind, size, seed)
    solver = _solver(config)
    if config != "warm":
        return solver.solve(LAPInstance(costs))
    first = solver.solve(LAPInstance(costs), capture_warm_start=True)
    drifted = costs.copy()
    rows = np.random.default_rng(seed + 1).choice(size, max(1, size // 8), False)
    drifted[rows] = drifted[rows][:, ::-1]
    result = solver.resolve(LAPInstance(drifted), first.stats["warm_start"])
    assert result.stats["resolve"]["mode"] == "warm"
    return result


def fingerprint(result) -> dict:
    """Canonical, JSON-ready fingerprint of one solve."""
    report = result.stats["profile"]
    records = [
        [
            record.name,
            record.executions,
            record.compute_seconds.hex(),
            record.sync_seconds.hex(),
            record.exchange_seconds.hex(),
            record.exchange_bytes,
            record.inter_ipu_bytes,
            record.inter_ipu_syncs,
            float(record.compute_cycles).hex(),
        ]
        for record in report.records
    ]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    return {
        "assignment": [int(col) for col in result.assignment],
        "cost": float(result.total_cost).hex(),
        "device_seconds": float(report.device_seconds).hex(),
        "supersteps": report.supersteps,
        "exchange_bytes": report.exchange_bytes,
        "inter_ipu_bytes": report.inter_ipu_bytes,
        "records": len(records),
        "records_sha256": digest,
    }


@pytest.fixture
def checked_scan(monkeypatch):
    """Check every status-scan superstep against the stateless reference."""
    bind = ZeroStatusScan.bind
    calls = []

    def checked_bind(self, params, cost, tensors=None):
        kernel = bind(self, params, cost, tensors)
        if tensors is None:  # compute_all itself: the reference
            return kernel

        def scan(views):
            cycles = kernel(views)
            reference = {name: np.array(view) for name, view in views.items()}
            expected = ZeroStatusScan().compute_all(reference, params, cost)
            for name in ("zero_status", "zero_col", "partial"):
                np.testing.assert_array_equal(views[name], reference[name])
            np.testing.assert_array_equal(cycles, expected)
            calls.append(len(cycles))
            return cycles

        return scan

    monkeypatch.setattr(ZeroStatusScan, "bind", checked_bind)
    return calls


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "config,kind,size",
    _runs(),
    ids=[f"{config}-{_case_id(kind, size)}" for config, kind, size in _runs()],
)
def test_fingerprint_matches_recording(config, kind, size, golden, checked_scan):
    got = fingerprint(_solve(config, kind, size))
    assert checked_scan, "no status-scan superstep was checked"
    want = golden[f"{config}/{_case_id(kind, size)}"]
    assert got == want


def record(path: pathlib.Path = GOLDEN) -> None:
    """Write the fingerprint of every (configuration, case) pair."""
    table = {
        f"{config}/{_case_id(kind, size)}": fingerprint(_solve(config, kind, size))
        for config, kind, size in _runs()
    }
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record()
