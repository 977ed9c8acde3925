"""Continuous perf-regression harness: trend store, budgets, comparison.

ROADMAP item 1 (the vectorized turbo backend, target >= 10x) needs two
instruments before any perf-critical change lands: a **trajectory** —
benchmark numbers recorded per commit so speedups are provable — and a
**gate** — a comparison against committed baselines that fails CI when a
change regresses beyond budget.  This module is both:

* :class:`PerfStore` — an append-only, schema-versioned (``repro.perf/1``)
  trend store.  Each run records a benchmark key, instance-shape params,
  a metrics map, and context (git revision, timestamp, scale, machine).
* :func:`run_suite` — the built-in deterministic measurement suite
  (single solves and the batch path at quick shapes), timed with the
  **alternating-round minimum** estimator (:func:`alternating_minimum`):
  scheduler noise only ever adds time, so each task's minimum over
  alternating rounds is the closest observation of its true cost, and
  alternating keeps slow system phases from biasing one task.
* :func:`compare_runs` — noise-aware budget checking.  Metrics carry
  per-kind tolerance bands (:data:`DEFAULT_BUDGETS`): wall-clock is noisy
  and gets a generous ratio band; **modeled** device time is deterministic
  and gets a near-exact relative tolerance; superstep counts must match
  exactly.  A deterministic metric drifting even slightly is a real
  modeled-cost change, never noise — that split is what makes the gate
  usable on shared CI runners.
* :func:`calibrate` — the host-speed reference.  Each suite run times a
  fixed interpreter-and-small-NumPy loop alongside its legs and keeps the
  result in its context (``calibration_s``); the comparison states wall
  and throughput metrics at the baseline's host speed, so a shared host
  drifting between two runs does not read as a regression.

The ``repro perf`` CLI (``record`` / ``compare`` / ``report``) fronts this
module; ``docs/profiling.md`` documents the workflow and budget tuning.
"""

from __future__ import annotations

import dataclasses
import datetime
import gc
import json
import math
import pathlib
import statistics
import subprocess
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.obs.export import (
    PERF_SCHEMA,
    to_jsonable,
    validate_bench_record,
    validate_perf_document,
    write_json,
)
from repro.obs.timing import wall_timer

__all__ = [
    "AlternatingTiming",
    "alternating_minimum",
    "calibrate",
    "Budget",
    "DEFAULT_BUDGETS",
    "PerfStore",
    "MetricComparison",
    "ComparisonReport",
    "compare_runs",
    "run_suite",
    "runs_from_bench_document",
    "git_revision",
    "format_report",
    "format_trend",
]

#: Default location of the committed trend store.
DEFAULT_STORE = pathlib.Path("benchmarks/results/PERF_trends.json")


# ----------------------------------------------------------------------
# Timing estimator
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AlternatingTiming:
    """Per-round wall seconds of one task under alternating timing."""

    rounds: tuple[float, ...]

    @property
    def best(self) -> float:
        """The minimum round — the ``timeit``-style noise-robust estimate."""
        return min(self.rounds)


def alternating_minimum(
    tasks: Mapping[str, Callable[[], float]], rounds: int
) -> dict[str, AlternatingTiming]:
    """Time ``tasks`` over ``rounds`` alternating rounds; keep every round.

    Each task callable runs one round and returns its measured wall
    seconds (callers time however fits — a plain wall timer, or a harness
    that reports its own wall).  Tasks alternate within each round
    (A B A B ... rather than A A ... B B ...), so a slow system phase hits
    every task instead of biasing whichever one it overlapped.  Use
    ``.best`` (the minimum) as the estimate: noise only ever adds time.
    """
    if rounds < 1:
        raise ValueError(f"need at least one timing round, got {rounds}")
    walls: dict[str, list[float]] = {name: [] for name in tasks}
    for _ in range(rounds):
        for name, task in tasks.items():
            walls[name].append(float(task()))
    return {
        name: AlternatingTiming(tuple(rounds_list))
        for name, rounds_list in walls.items()
    }


#: Operands and length of the calibration loop.
_CAL_X = np.arange(64.0)
_CAL_Y = np.ones(64)
_CAL_ROUNDS = 300


def calibrate() -> float:
    """Wall seconds of one short, fixed calibration loop on this host.

    The loop mixes interpreter work with small NumPy calls, the two costs
    the suite's legs are made of, and touches nothing of the program under
    test.  On a shared host its time follows the host's speed, which can
    drift by more than half within a minute; scaling a leg by the ratio of
    two runs' calibrations removes that drift, while a change to the
    program still shows in full.  One call takes about a millisecond;
    :func:`run_suite` keeps the median of the calls around its tasks.
    """
    with wall_timer() as timer:
        acc = 0.0
        for step in range(_CAL_ROUNDS):
            acc += float(((_CAL_X + _CAL_Y) * 0.5).max()) + len({"step": step})
    return timer.seconds


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Budget:
    """Tolerance band for one metric kind.

    ``kind`` is one of:

    * ``"wall"`` — wall-clock seconds, lower is better, noisy: fail when
      ``fresh / baseline > max_ratio``;
    * ``"model"`` — modeled (deterministic) quantity: fail when the
      relative difference exceeds ``rel_tol`` in *either* direction, since
      any drift is a real modeled-cost change (an improvement should be
      re-recorded, not silently absorbed);
    * ``"exact"`` — integer-valued determinism (superstep counts): any
      difference fails;
    * ``"throughput"`` — higher is better, noisy: fail when
      ``baseline / fresh > max_ratio``.
    """

    kind: str
    max_ratio: float = 1.6
    rel_tol: float = 1e-6

    def check(self, baseline: float, fresh: float) -> tuple[bool, float]:
        """Return ``(ok, ratio)`` where ratio > 1 means fresh is worse."""
        if self.kind == "exact":
            return fresh == baseline, fresh / baseline if baseline else math.inf
        if self.kind == "model":
            ok = math.isclose(fresh, baseline, rel_tol=self.rel_tol, abs_tol=0.0)
            return ok, fresh / baseline if baseline else math.inf
        if baseline <= 0 or fresh <= 0:
            return False, math.inf
        if self.kind == "throughput":
            ratio = baseline / fresh
        else:  # "wall"
            ratio = fresh / baseline
        return ratio <= self.max_ratio, ratio


#: Metric-name -> budget policy applied by :func:`compare_runs`.  Metrics
#: without an entry are informational (recorded, never gating).
DEFAULT_BUDGETS: dict[str, Budget] = {
    "wall_seconds": Budget("wall"),
    "wall_per_instance_s": Budget("wall"),
    "device_seconds": Budget("model"),
    "supersteps": Budget("exact"),
    "exchange_bytes": Budget("exact"),
    "cold_supersteps": Budget("exact"),
    "supersteps_saved_ratio": Budget("model"),
    "instances_per_second": Budget("throughput"),
}


def budgets_with_ratio(max_ratio: float) -> dict[str, Budget]:
    """The default policy with every noisy band widened to ``max_ratio``."""
    return {
        name: (
            dataclasses.replace(budget, max_ratio=max_ratio)
            if budget.kind in ("wall", "throughput")
            else budget
        )
        for name, budget in DEFAULT_BUDGETS.items()
    }


# ----------------------------------------------------------------------
# Trend store
# ----------------------------------------------------------------------


def git_revision() -> str:
    """Short git revision of the working tree (``"unknown"`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


def _context(scale: str, rounds: int, source: str) -> dict[str, Any]:
    import platform

    return {
        "git_rev": git_revision(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scale": scale,
        "rounds": rounds,
        "source": source,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class PerfStore:
    """Append-only ``repro.perf/1`` trend store backed by one JSON file."""

    def __init__(self, path: pathlib.Path | str = DEFAULT_STORE) -> None:
        self.path = pathlib.Path(path)
        if self.path.exists():
            document = json.loads(self.path.read_text())
            validate_perf_document(document)
            self.document: dict[str, Any] = document
        else:
            self.document = {
                "schema": PERF_SCHEMA,
                "meta": {"description": "benchmark trend store (repro perf)"},
                "runs": [],
            }

    @property
    def runs(self) -> list[dict[str, Any]]:
        return self.document["runs"]

    def append(self, runs: Iterable[Mapping[str, Any]]) -> int:
        """Append runs (validated as a whole document); returns how many."""
        added = [to_jsonable(run) for run in runs]
        self.document["runs"].extend(added)
        validate_perf_document(self.document)
        return len(added)

    def save(self) -> pathlib.Path:
        return write_json(self.path, self.document)

    def latest(self, benchmark: str) -> dict[str, Any] | None:
        """The most recently appended run for ``benchmark`` (None if absent)."""
        for run in reversed(self.runs):
            if run["benchmark"] == benchmark:
                return run
        return None

    def benchmarks(self) -> tuple[str, ...]:
        """Distinct benchmark keys, ordered by first appearance."""
        seen: dict[str, None] = {}
        for run in self.runs:
            seen.setdefault(run["benchmark"], None)
        return tuple(seen)


# ----------------------------------------------------------------------
# The built-in measurement suite
# ----------------------------------------------------------------------

#: Back-to-back runs of each task in one round of :func:`run_suite`.
_REPEATS = 3

#: Per-scale shapes of the built-in suite: single-solve sizes, the batch
#: stream ``(size, count)`` and the cold-compile sizes.  Quick mirrors the
#: bench grids' smoke shapes so CI runs in seconds.
_SUITE_SHAPES = {
    "quick": {
        "solve_sizes": (16, 32),
        "batch": (16, 12),
        "compile_sizes": (64, 128),
    },
    "default": {
        "solve_sizes": (32, 64),
        "batch": (32, 60),
        "compile_sizes": (128, 256),
    },
}


def run_suite(
    scale: str = "quick", rounds: int = 3, *, seed: int = 7
) -> list[dict[str, Any]]:
    """Measure the built-in suite; returns ``repro.perf/1`` run rows.

    Every benchmark reports ``wall_seconds``: the alternating-round
    minimum, where each round runs a task :data:`_REPEATS` times back to
    back and keeps the fastest, so one preempted run cannot fail a
    one-round comparison.
    A :func:`calibrate` call runs just before and just after every task of
    every round, outside the task's timing; their median is the run's
    ``context["calibration_s"]``, the host speed the comparison scales by
    (on a busy 2-core host the median tracked the legs' drift better
    than the minimum or the mean).
    Solve legs add ``device_seconds`` (modeled, deterministic),
    ``supersteps`` (exact) and the informational
    ``host_us_per_superstep`` (wall over supersteps); the batch benchmark adds
    ``instances_per_second``.  Their graphs are pre-compiled before timing
    so rounds measure execution, not the one-off compile.  The
    ``compile/n{size}`` legs time exactly that compile — graph build plus
    :func:`~repro.ipu.compiler.compile_graph` on a fresh solver — and
    report the summed static ``exchange_bytes`` of its plans (exact).
    """
    from repro.batch import BatchSolver
    from repro.core.solver import HunIPUSolver
    from repro.data.synthetic import uniform_instance

    shapes = _SUITE_SHAPES.get(scale)
    if shapes is None:
        raise ValueError(
            f"unknown perf suite scale {scale!r}; "
            f"pick one of {tuple(_SUITE_SHAPES)}"
        )
    context = _context(scale, rounds, "suite")
    runs: list[dict[str, Any]] = []

    solver = HunIPUSolver()
    results: dict[str, Any] = {}
    tasks: dict[str, Callable[[], float]] = {}
    for size in shapes["solve_sizes"]:
        solver.compiled_for(size)
        instance = uniform_instance(size, 1, seed=seed)

        def _solve_round(instance=instance, key=f"solve/n{size}") -> float:
            with wall_timer() as timer:
                results[key] = solver.solve(instance)
            return timer.seconds

        tasks[f"solve/n{size}"] = _solve_round

    # Warm-start leg: re-solve a 2-row drift of the largest single-solve
    # shape from the previous solution's duals.  Superstep counts (warm
    # and cold) are deterministic, so the warm-vs-cold savings gate
    # exactly — a change that erodes the warm path's advantage fails the
    # compare rather than slipping through as noise.
    warm_size = max(shapes["solve_sizes"])
    warm_base = uniform_instance(warm_size, 1, seed=seed + 50)
    warm_seed_state = solver.solve(
        warm_base, capture_warm_start=True
    ).stats["warm_start"]
    drift_costs = warm_base.costs.copy()
    drift_source = uniform_instance(warm_size, 1, seed=seed + 51).costs
    drift_costs[:2] = drift_source[:2]
    from repro.lap.problem import LAPInstance

    warm_drifted = LAPInstance(drift_costs, name=f"perf-warm-n{warm_size}")
    warm_cold_result = HunIPUSolver().solve(warm_drifted)
    warm_key = f"resolve/n{warm_size}"

    def _warm_round() -> float:
        with wall_timer() as timer:
            results[warm_key] = solver.solve(
                warm_drifted, warm_start=warm_seed_state
            )
        return timer.seconds

    tasks[warm_key] = _warm_round

    batch_size, batch_count = shapes["batch"]
    batch_path = BatchSolver(HunIPUSolver())
    batch_path.solver.compiled_for(batch_size)
    stream = [
        uniform_instance(batch_size, 1, seed=seed + 100 + index)
        for index in range(batch_count)
    ]

    def _batch_round() -> float:
        results["batch"] = batch_path.solve_batch(stream)
        return results["batch"].wall_seconds

    tasks[f"batch/n{batch_size}x{batch_count}"] = _batch_round

    for size in shapes["compile_sizes"]:

        def _compile_round(size=size, key=f"compile/n{size}") -> float:
            # A compile is short next to a full collection of the heap the
            # earlier legs left behind; collect that garbage first so no
            # round is charged for it.
            results.pop(key, None)
            gc.collect()
            with wall_timer() as timer:
                results[key] = HunIPUSolver().compiled_for(size)
            return timer.seconds

        tasks[f"compile/n{size}"] = _compile_round

    calibrate()  # a process's first calls run cold; keep none of them
    calibrations: list[float] = []

    def calibrated(task: Callable[[], float]) -> Callable[[], float]:
        def run() -> float:
            calibrations.append(calibrate())
            seconds = min(task() for _ in range(_REPEATS))
            calibrations.append(calibrate())
            return seconds

        return run

    timings = alternating_minimum(
        {name: calibrated(task) for name, task in tasks.items()}, rounds
    )
    context["calibration_s"] = statistics.median(calibrations)

    for size in shapes["solve_sizes"]:
        key = f"solve/n{size}"
        result = results[key]
        runs.append(
            {
                "benchmark": key,
                "params": {"n": size, "seed": seed},
                "metrics": {
                    "wall_seconds": timings[key].best,
                    "device_seconds": result.device_time_s,
                    "supersteps": result.stats["supersteps"],
                    "host_us_per_superstep": (
                        timings[key].best / result.stats["supersteps"] * 1e6
                    ),
                },
                "context": context,
            }
        )
    warm_result = results[warm_key]
    warm_steps = int(warm_result.stats["supersteps"])
    cold_steps = int(warm_cold_result.stats["supersteps"])
    runs.append(
        {
            "benchmark": warm_key,
            "params": {"n": warm_size, "drift_rows": 2, "seed": seed},
            "metrics": {
                "wall_seconds": timings[warm_key].best,
                "device_seconds": warm_result.device_time_s,
                "supersteps": warm_steps,
                "cold_supersteps": cold_steps,
                "supersteps_saved_ratio": (cold_steps - warm_steps) / cold_steps,
            },
            "context": context,
        }
    )
    batch_key = f"batch/n{batch_size}x{batch_count}"
    batch = results["batch"]
    wall = timings[batch_key].best
    runs.append(
        {
            "benchmark": batch_key,
            "params": {"n": batch_size, "count": batch_count, "seed": seed},
            "metrics": {
                "wall_seconds": wall,
                "wall_per_instance_s": wall / batch_count,
                "instances_per_second": batch_count / wall,
                "device_seconds": batch.device_seconds,
                "supersteps": sum(
                    result.stats["supersteps"] for result in batch.results
                ),
            },
            "context": context,
        }
    )
    for size in shapes["compile_sizes"]:
        key = f"compile/n{size}"
        plans = results[key].engine.compiled.plans.values()
        runs.append(
            {
                "benchmark": key,
                "params": {"n": size},
                "metrics": {
                    "wall_seconds": timings[key].best,
                    "exchange_bytes": sum(plan.exchange_bytes for plan in plans),
                },
                "context": context,
            }
        )
    return runs


def runs_from_bench_document(
    document: Mapping[str, Any], *, rounds: int = 1
) -> list[dict[str, Any]]:
    """Convert a ``repro.bench-run/1`` document into perf trend rows.

    Each bench record becomes one run keyed
    ``bench/<experiment>/<solver>``, carrying its wall (and modeled
    device) seconds — how full benchmark harness output feeds the same
    trend store as the built-in suite.
    """
    validate_bench_record(document)
    context = _context(str(document.get("scale", "unknown")), rounds, "bench")
    runs = []
    for record in document["records"]:
        metrics: dict[str, Any] = {"wall_seconds": float(record["wall_time_s"])}
        if record.get("device_time_s") is not None:
            metrics["device_seconds"] = float(record["device_time_s"])
        for key in ("wall_per_instance_s", "instances_per_second"):
            value = record.get("extra", {}).get(key)
            if value is not None:
                metrics[key] = float(value)
        runs.append(
            {
                "benchmark": f"bench/{record['experiment']}/{record['solver']}",
                "params": dict(record["params"]),
                "metrics": metrics,
                "context": context,
            }
        )
    return runs


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MetricComparison:
    """One metric of one benchmark, fresh vs baseline."""

    benchmark: str
    metric: str
    baseline: float
    fresh: float
    ratio: float
    kind: str
    ok: bool
    #: Factor applied to the fresh value to state it at the baseline's
    #: host speed (1.0 when either run lacks a calibration).
    host_scale: float = 1.0

    @property
    def status(self) -> str:
        return "ok" if self.ok else "REGRESSION"


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one ``repro perf compare`` pass."""

    comparisons: tuple[MetricComparison, ...]
    missing_baselines: tuple[str, ...]
    skipped_metrics: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(comparison.ok for comparison in self.comparisons)

    @property
    def regressions(self) -> tuple[MetricComparison, ...]:
        return tuple(c for c in self.comparisons if not c.ok)


def compare_runs(
    store: PerfStore,
    fresh_runs: Iterable[Mapping[str, Any]],
    budgets: Mapping[str, Budget] | None = None,
    *,
    inject_slowdown: float = 1.0,
) -> ComparisonReport:
    """Diff ``fresh_runs`` against each benchmark's latest stored baseline.

    Metrics with no budget entry are informational (listed in
    ``skipped_metrics``); benchmarks with no baseline pass but are listed
    in ``missing_baselines`` so a silently empty store is visible.

    When both runs carry ``context["calibration_s"]``, fresh wall and
    throughput values are first stated at the baseline's host speed (wall
    times by baseline over fresh calibration, throughput by its inverse);
    a run without one compares unscaled.

    ``inject_slowdown`` multiplies the fresh noisy (wall/throughput)
    metrics by a synthetic factor — the gate's self-test: a compare that
    cannot fail is no gate, so CI injects 2x and requires a non-zero exit.
    """
    budgets = DEFAULT_BUDGETS if budgets is None else budgets
    comparisons: list[MetricComparison] = []
    missing: list[str] = []
    skipped: list[str] = []
    for fresh in fresh_runs:
        benchmark = fresh["benchmark"]
        baseline_run = store.latest(benchmark)
        if baseline_run is None:
            missing.append(benchmark)
            continue
        baseline_metrics = baseline_run["metrics"]
        host_scale = _host_scale(baseline_run, fresh)
        for metric, fresh_value in fresh["metrics"].items():
            budget = budgets.get(metric)
            if budget is None:
                skipped.append(f"{benchmark}:{metric}")
                continue
            if metric not in baseline_metrics:
                skipped.append(f"{benchmark}:{metric}")
                continue
            fresh_value = float(fresh_value)
            scale = 1.0
            if budget.kind in ("wall", "throughput"):
                scale = host_scale if budget.kind == "wall" else 1.0 / host_scale
                fresh_value *= scale
                if budget.kind == "throughput":
                    fresh_value /= inject_slowdown
                else:
                    fresh_value *= inject_slowdown
            baseline_value = float(baseline_metrics[metric])
            ok, ratio = budget.check(baseline_value, fresh_value)
            comparisons.append(
                MetricComparison(
                    benchmark=benchmark,
                    metric=metric,
                    baseline=baseline_value,
                    fresh=fresh_value,
                    ratio=ratio,
                    kind=budget.kind,
                    ok=ok,
                    host_scale=scale,
                )
            )
    return ComparisonReport(
        comparisons=tuple(comparisons),
        missing_baselines=tuple(missing),
        skipped_metrics=tuple(skipped),
    )


def _host_scale(baseline: Mapping[str, Any], fresh: Mapping[str, Any]) -> float:
    """Baseline over fresh calibration, or 1.0 if either run has none."""
    base = baseline.get("context", {}).get("calibration_s")
    now = fresh.get("context", {}).get("calibration_s")
    if not base or not now:
        return 1.0
    return float(base) / float(now)


def format_report(report: ComparisonReport) -> str:
    """Human-readable comparison table plus verdict line."""
    lines = [
        f"{'benchmark':<22} {'metric':<22} {'baseline':>14} {'fresh':>14} "
        f"{'ratio':>8} {'host':>6} {'kind':<11} status"
    ]
    for row in report.comparisons:
        lines.append(
            f"{row.benchmark:<22} {row.metric:<22} {row.baseline:>14.6g} "
            f"{row.fresh:>14.6g} {row.ratio:>8.3f} {row.host_scale:>6.3f} "
            f"{row.kind:<11} {row.status}"
        )
    for benchmark in report.missing_baselines:
        lines.append(f"{benchmark:<22} (no baseline in store - recorded runs only)")
    verdict = (
        "PASS: all metrics within budget"
        if report.ok
        else f"FAIL: {len(report.regressions)} metric(s) beyond budget"
    )
    lines.append(verdict)
    return "\n".join(lines)


def format_trend(store: PerfStore, benchmark: str | None = None) -> str:
    """Per-benchmark trend table (git rev, wall, modeled seconds) over runs."""
    names = (benchmark,) if benchmark else store.benchmarks()
    lines = []
    for name in names:
        rows = [run for run in store.runs if run["benchmark"] == name]
        if not rows:
            lines.append(f"{name}: no recorded runs")
            continue
        lines.append(f"{name} ({len(rows)} run(s)):")
        lines.append(
            f"  {'git_rev':<10} {'timestamp':<26} {'wall s':>12} "
            f"{'device s':>12} {'supersteps':>11}"
        )
        for run in rows:
            metrics = run["metrics"]
            context = run["context"]
            timestamp = str(context["timestamp"])[:25]
            supersteps = metrics.get("supersteps")
            lines.append(
                f"  {context['git_rev']:<10} {timestamp:<26} "
                f"{metrics.get('wall_seconds', float('nan')):>12.6f} "
                f"{metrics.get('device_seconds', float('nan')):>12.6f} "
                f"{supersteps if supersteps is not None else '-':>11}"
            )
    return "\n".join(lines)
