"""The identity matrix: pinned modeled behaviour of whole solves.

Host work may be done incrementally (cached scan lists, owner lookups)
only while every charge and every answer stays bit-identical.  A seeded
corpus (random integers, heavy ties, Gaussian at k = 1 and 100, at n = 8,
17 and 64, plus a padded rectangle at n = 17) runs in each configuration
of :data:`CONFIGS`: batched, per-tile (n = 64 skipped) with the detailed
and the deep profiler, the deep profiler, the compression ablation, 2 and
4 IPUs, a 4-tile spec, warm ``resolve`` of a drifted copy, and
:func:`repro.batch.solve_at_size` at ``n + 3``.  Each configuration keeps
one solver, so every compiled engine runs again on the next case of its
size.  Three checks run:

1. every solve's fingerprint (assignment, cost, ``device_seconds``,
   supersteps, byte volumes and every ``StepRecord`` field, floats by
   ``float.hex``) equals its row in ``tests/golden/solve_fingerprint.json``,
   and the padded solve also equals a direct solve of the padded matrix;
2. every codelet class that overrides ``bind``, found by walking
   :class:`~repro.ipu.codelets.Codelet`'s subclasses, is shadow-checked:
   each bound call is compared with ``compute_all`` on copies of the views
   taken before the call (every ``out``/``inout`` field and the cycles);
3. invariants across configurations, read from the recording alone (live
   runs equal their rows): deep equals its detailed twin, the placement
   and ablation rows give batched's answer, every cost is scipy's optimum,
   and per-tile equals batched except where ROADMAP item 9 says it cannot
   yet (strict ``xfail``).

Re-record (only for a deliberate cost-model change)::

    PYTHONPATH=src python -m tests.core.test_fingerprint
"""

from __future__ import annotations

import collections
import hashlib
import json
import pathlib

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.batch import pad_instance_costs, solve_at_size
from repro.core.solver import HunIPUSolver
from repro.core.steps.step4_prime_search import PrimeRowUpdate, _BoundScan
from repro.data.synthetic import gaussian_cost_matrix
from repro.errors import ExecutionError
from repro.ipu.cluster import ClusterSpec
from repro.ipu.codelets import Codelet
from repro.ipu.spec import IPUSpec
from repro.lap.problem import LAPInstance
from repro.lap.rectangular import padding_value
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "solve_fingerprint.json"

SIZES = (8, 17, 64)

#: Padding added on the ``padded`` axis.
PAD = 3

#: Solver settings per configuration; "warm" also re-solves a drifted copy,
#: "padded" solves at ``n + PAD``, and "traced" runs every superstep through
#: the subscriber path that builds a ``SuperstepCharge`` record.
CONFIGS = {
    "batched": {},
    "per_tile": {"engine_mode": "per_tile"},
    "per_tile_deep": {"engine_mode": "per_tile", "profile_tiles": True},
    "deep": {"profile_tiles": True},
    "no_compression": {"use_compression": False},
    "ipus2": {"spec": ClusterSpec(num_ipus=2).system()},
    "ipus4": {"spec": ClusterSpec(num_ipus=4).system()},
    "toy_tiles": {"spec": IPUSpec.toy(num_tiles=4)},  # several rows per tile
    "warm": {},
    "padded": {},
    "traced": {},  # plus a live Tracer and an explicit MetricsRegistry
}

#: Configurations that change only charges or placement: same answer.
SAME_ANSWER = ("no_compression", "ipus2", "ipus4", "toy_tiles")

#: ``per_tile`` rows that differ from ``batched`` (see the xfail reason).
PER_TILE_DIVERGES = {
    "ints-n8", "ints-n17", "ties-n8", "ties-n17", "gauss100-n17", "gauss1-n17"
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
    """Every (configuration, kind, size); per-tile modes skip n=64 (~7 s)."""
    return [
        (config, kind, size)
        for config in CONFIGS
        for kind, size in CASES
        if not (config.startswith("per_tile") and size == 64)
    ]


def _matrices(kind: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """A case's cost matrix and the drifted copy the warm row re-solves."""
    seed = 1000 * size + sorted({k for k, _ in CASES}).index(kind)
    costs = _costs(kind, size, seed)
    drifted = costs.copy()
    rows = np.random.default_rng(seed + 1).choice(size, max(1, size // 8), False)
    drifted[rows] = drifted[rows][:, ::-1]
    return costs, drifted


def _solver(config: str) -> HunIPUSolver:
    options = dict(CONFIGS[config])
    if config == "traced":
        options.update(tracer=Tracer(), metrics=MetricsRegistry())
    return HunIPUSolver(**options)


def _solve(solver: HunIPUSolver, config: str, kind: str, size: int):
    costs, drifted = _matrices(kind, size)
    if config == "padded":
        return solve_at_size(solver, LAPInstance(costs), size + PAD)
    if config != "warm":
        return solver.solve(LAPInstance(costs))
    first = solver.solve(LAPInstance(costs), capture_warm_start=True)
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


def bound_kernel_classes() -> list[type[Codelet]]:
    """Every codelet class of the package that overrides :meth:`Codelet.bind`."""
    found, pending = [], [Codelet]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        overrides = cls is not Codelet and "bind" in vars(cls)
        if overrides and cls.__module__.startswith("repro."):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def install_shadow_check(monkeypatch) -> collections.Counter:
    """Shadow-check every bound kernel; return checked calls per class."""
    checks: collections.Counter = collections.Counter()
    for cls in bound_kernel_classes():
        monkeypatch.setattr(cls, "bind", _checked(vars(cls)["bind"], checks))
    return checks


def _checked(bind, checks: collections.Counter):
    def checked_bind(self, params, cost, tensors=None):
        kernel = bind(self, params, cost, tensors)
        if tensors is None:  # compute_all itself: the reference
            return kernel
        written = [field for field, way in self.fields.items() if way != "in"]

        def checked(views):
            reference = {field: view.copy() for field, view in views.items()}
            cycles = kernel(views)
            expected = self.compute_all(reference, params, cost)
            # Bitwise: tobytes() is also far cheaper than array_equal here.
            for field in written:
                got, want = views[field].tobytes(), reference[field].tobytes()
                assert got == want, (self.name, field)
            assert cycles.tobytes() == expected.tobytes(), (self.name, "cycles")
            checks[self.name] += 1
            return cycles

        return checked

    return checked_bind


@pytest.fixture(scope="module")
def shadow_check():
    with pytest.MonkeyPatch.context() as patch:
        yield install_shadow_check(patch)


@pytest.fixture(scope="module")
def solvers(shadow_check) -> dict[str, HunIPUSolver]:
    """One solver per configuration, shared by its cases.

    Engines bind their kernels when they compile, so the solvers are built
    under the shadow check.  Sharing them pays each compile once and runs
    every engine again on new data, as repeated solving does.
    """
    return {config: _solver(config) for config in CONFIGS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "config,kind,size",
    _runs(),
    ids=[f"{config}-{_case_id(kind, size)}" for config, kind, size in _runs()],
)
def test_fingerprint_matches_recording(
    config, kind, size, golden, solvers, shadow_check
):
    before = shadow_check.copy()
    tracer = solvers[config].tracer
    traced_before = tracer.superstep_count() if tracer.enabled else 0
    result = _solve(solvers[config], config, kind, size)
    assert golden[f"{config}/{_case_id(kind, size)}"] == fingerprint(result)
    if config == "traced":  # the tracer saw every superstep
        traced = tracer.superstep_count() - traced_before
        assert traced == result.stats["profile"].supersteps
    checked = shadow_check - before
    assert set(checked) == {cls.__name__ for cls in bound_kernel_classes()}
    if config == "padded":
        costs, _ = _matrices(kind, size)
        direct = solvers[config].solve(
            LAPInstance(pad_instance_costs(costs, size + PAD))
        )
        assert result.stats["profile"].records == direct.stats["profile"].records
        assert direct.assignment[:size].tolist() == result.assignment.tolist()


@pytest.mark.parametrize("kind,size", CASES, ids=[_case_id(*c) for c in CASES])
def test_recordings_agree_across_configurations(kind, size, golden):
    case = _case_id(kind, size)
    rows = {
        config: golden[f"{config}/{case}"]
        for config in CONFIGS
        if f"{config}/{case}" in golden
    }
    batched = rows["batched"]
    assert rows["deep"] == batched
    assert rows["traced"] == batched
    if "per_tile" in rows:
        assert rows["per_tile_deep"] == rows["per_tile"]
    for config in SAME_ANSWER:
        assert rows[config]["assignment"] == batched["assignment"], config
        assert rows[config]["cost"] == batched["cost"], config
    costs, drifted = _matrices(kind, size)
    for config, row in rows.items():
        matrix = drifted if config == "warm" else costs
        optimum = matrix[linear_sum_assignment(matrix)].sum()
        assert float.fromhex(row["cost"]) == optimum, config


ITEM9 = pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 9): the first status scan after Step 2 "
    "sees stale compress slots, read up to _BoundScan._gather's batch-wide "
    "zero_count maximum, so a vertex's scan depends on its batch",
)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, marks=ITEM9) if case in PER_TILE_DIVERGES else case
        for case in (_case_id(kind, size) for kind, size in CASES if size != 64)
    ],
)
def test_per_tile_recording_equals_batched(case, golden):
    assert golden[f"per_tile/{case}"] == golden[f"batched/{case}"]


def _stale_gather(gather):
    """A skipped invalidation: rebuild on the first call only."""

    def stale(self, views, covers):
        if self.inputs is None or self.key is None:
            gather(self, views, covers)
        else:
            self._refresh(covers)

    return stale


def _sticky_bind(bind):
    """A stateless kernel that keeps its first ``sel`` across calls."""

    def sticky(self, params, cost, tensors=None):
        kernel = bind(self, params, cost, tensors)
        if tensors is None:
            return kernel
        kept = {}

        def prime_rows(views):
            kept.setdefault("sel", views["sel"].copy())
            return kernel({**views, "sel": kept["sel"]})

        return prime_rows

    return sticky


@pytest.mark.parametrize(
    "target,attribute,mutate",
    [
        (_BoundScan, "_gather", _stale_gather),
        (PrimeRowUpdate, "bind", _sticky_bind),
    ],
    ids=["scan-skips-invalidation", "prime-keeps-selection"],
)
def test_shadow_check_catches_mutation(monkeypatch, target, attribute, mutate):
    monkeypatch.setattr(target, attribute, mutate(vars(target)[attribute]))
    install_shadow_check(monkeypatch)
    with pytest.raises(ExecutionError) as failure:
        _solve(HunIPUSolver(), "batched", "ints", 17)
    assert isinstance(failure.value.__cause__, AssertionError)


def record(path: pathlib.Path = GOLDEN) -> None:
    """Write the fingerprint of every (configuration, case) pair."""
    solvers = {config: _solver(config) for config in CONFIGS}
    table = {
        f"{config}/{_case_id(kind, size)}": fingerprint(
            _solve(solvers[config], config, kind, size)
        )
        for config, kind, size in _runs()
    }
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record()
