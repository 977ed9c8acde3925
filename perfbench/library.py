"""In-process workloads: ``solve-warm`` and ``cold-compile``.

Both are closed loops of one library caller over a fixed, seeded set of
random integer cost matrices.  ``solve-warm`` reuses one
:class:`HunIPUSolver` whose single shape was compiled during set-up;
``cold-compile`` builds a fresh solver per call, so every solve pays graph
build and ``compile_graph``.

Every solve is followed by the calibration loop of
:func:`measure.calibrate`; a solve's wall time is reported at the
reference host speed, scaled by the reference over the mean of the two
calibrations on either side of it.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

import numpy as np

from measure import (
    Outcome,
    answer_ok,
    calibrate,
    first_half,
    import_seconds,
    mean,
    optimum,
    pct,
    record_setup,
    result_fingerprint,
    scaled_seconds,
    vm_hwm_mb,
)
from tracing import SpanRecorder, install, solve_layers


@dataclasses.dataclass(frozen=True)
class Solve:
    """One timed call: which instance, how long, and what came back."""

    slot: int
    latency_s: float
    #: Reference over measured host speed around this call.
    scale: float
    total_cost: float
    fingerprint: tuple

    @property
    def normalized_s(self) -> float:
        return self.latency_s * self.scale


def _closed_loop(solve, instances, seconds: float, cal_calls: int, cal_ref: float) -> list[Solve]:
    """Cycle ``instances`` through ``solve`` until ``seconds`` have passed."""
    records = []
    before_cal = calibrate(cal_calls)
    started = perf_counter()
    index = 0
    while True:
        slot = index % len(instances)
        before = perf_counter()
        result = solve(instances[slot])
        after = perf_counter()
        after_cal = calibrate(cal_calls)
        records.append(
            Solve(
                slot,
                after - before,
                2 * cal_ref / (before_cal + after_cal),
                result.total_cost,
                result_fingerprint(result),
            )
        )
        before_cal = after_cal
        index += 1
        if after - started >= seconds:
            return records


def timed_solves(solve, instances, cal_ref: float) -> list[Solve]:
    """Solve each instance once, calibrating before and after the lot."""
    before_cal = calibrate(4)
    timed = []
    for slot, instance in enumerate(instances):
        before = perf_counter()
        result = solve(instance)
        timed.append((slot, perf_counter() - before, result))
    scale = 2 * cal_ref / (before_cal + calibrate(4))
    return [
        Solve(slot, latency, scale, result.total_cost, result_fingerprint(result))
        for slot, latency, result in timed
    ]


def run(name: str, seed: int, seconds: float, recorder: SpanRecorder | None, spec: dict) -> Outcome:
    const = spec["constants"][name]
    cal_ref = spec["constants"]["calibration_ms"] / 1e3
    cold = name == "cold-compile"
    n = const["n"]
    out = Outcome()

    constants = spec["constants"]
    imports, _ = import_seconds(
        "repro.core.solver", first_half(constants["import_repeats"]), constants
    )
    from repro.core.solver import HunIPUSolver
    from repro.lap.problem import LAPInstance

    # Only the last set-up's solver stays alive; the loops use it.
    built: list = []

    def ready() -> None:
        built[:] = [HunIPUSolver()]
        if not cold:
            built[0].compiled_for(n)

    if recorder is not None:
        install(recorder)
    raw_ready, ready_s = scaled_seconds(ready, const["setup_repeats"], cal_ref)
    if recorder is not None:
        recorder.uninstall()
    solver = built[0]

    # Inputs and reference optima, outside every timed phase.
    rng = np.random.default_rng(seed)
    matrices = [
        rng.integers(0, const["cost_high"], (n, n)).astype(np.float64)
        for _ in range(const["instances"])
    ]
    instances = [
        LAPInstance(costs, name=f"{name}-{i}") for i, costs in enumerate(matrices)
    ]
    best = [optimum(costs) for costs in matrices]
    warmup_n = const.get("warmup_n", n)
    warmup = LAPInstance(
        rng.integers(0, const["cost_high"], (warmup_n, warmup_n)).astype(np.float64)
    )

    if cold:
        last = {}

        def solve(instance):
            last["solver"] = HunIPUSolver()
            return last["solver"].solve(instance)

        HunIPUSolver().solve(warmup)
    else:

        def solve(instance):
            return solver.solve(instance)

        solver.solve(warmup)

    loop = (solve, instances)
    cal = (const["calibration_calls"], cal_ref)
    if recorder is None:
        records = _closed_loop(*loop, seconds, *cal)
        traced = []
    else:
        # Same instances, first untraced, then traced: the two halves give
        # the tracing overhead.
        records = _closed_loop(*loop, seconds / 2, *cal)
        install(recorder)
        try:
            traced = _closed_loop(*loop, seconds / 2, *cal)
        finally:
            recorder.uninstall()
    peak_rss = vm_hwm_mb()
    imports += import_seconds(
        "repro.core.solver", constants["import_repeats"] // 2, constants
    )[0]
    record_setup(out, imports, ready_s, f"; raw {statistics.median(raw_ready):.4f} s")

    # Correctness and determinism, outside the timed phase.
    limit_s = const["latency_limit_ms"] / 1e3
    first: dict[int, tuple] = {}
    verdicts = []
    for record in records + traced:
        correct = answer_ok(
            matrices[record.slot],
            record.fingerprint[-1],
            record.total_cost,
            best[record.slot],
        )
        verdicts.append(correct)
        if not correct:
            out.problems.append(f"instance {record.slot}: wrong answer")
        if first.setdefault(record.slot, record.fingerprint) != record.fingerprint:
            out.problems.append(
                f"instance {record.slot}: device time or profiler counts changed on repeat"
            )
    compiled = last["solver"] if cold else solver
    if result_fingerprint(compiled.solve(instances[0])) != first[0]:
        out.problems.append(
            "instance 0: re-solve on the compiled graph differs from the timed solve"
        )
    # Modeled device time and profiler counts cover a fixed set of
    # instances, however many the timed loop reached, so they repeat
    # exactly for a seed.  Missing ones are solved now, on the compiled
    # graph (warm and cold solves are bit-identical, checked above).
    modeled = []
    for slot in range(const["device_instances"]):
        if slot not in first:
            extra = compiled.solve(instances[slot])
            if not answer_ok(matrices[slot], extra.assignment, extra.total_cost, best[slot]):
                out.problems.append(f"instance {slot}: wrong answer")
            first[slot] = result_fingerprint(extra)
        modeled.append(first[slot])
    out.attempted = len(verdicts)
    out.failed = verdicts.count(False)

    # End-to-end metrics come from the untraced loop only.
    samples = len(records)
    latencies = [record.normalized_s for record in records]
    busy = sum(latencies)
    in_limit = sum(
        1
        for verdict, latency in zip(verdicts, latencies)
        if verdict and latency <= limit_s
    )
    out.e2e("solves_per_s", sum(verdicts[:samples]) / busy, "1/s", samples)
    out.e2e("latency_p50_ms", pct(latencies, 50) * 1e3, "ms", samples)
    out.e2e("latency_p90_ms", pct(latencies, 90) * 1e3, "ms", samples)
    out.e2e("goodput_rps", in_limit / busy, "1/s", samples)
    out.e2e("ok_frac", in_limit / samples, "fraction", samples)
    out.e2e("device_ms", mean([fp[0] for fp in modeled]) * 1e3, "ms", len(modeled))
    out.e2e("peak_rss_mb", peak_rss, "MB", 1)
    raw = [record.latency_s for record in records]
    out.notes.append(
        f"raw wall: p50 {pct(raw, 50) * 1e3:.3f} ms, p90 {pct(raw, 90) * 1e3:.3f} ms,"
        f" {samples / sum(raw):.4f} solves/s; host speed scale median"
        f" {statistics.median(record.scale for record in records):.3f}"
    )

    if recorder is not None:
        solve_layer_metrics(out, recorder.spans, traced, modeled)
        # Both halves start at instance 0: compare them on their common
        # prefix, so that the instance mix does not pass for overhead.
        common = min(len(records), len(traced))
        out.layer(
            "trace.overhead_frac",
            sum(record.normalized_s for record in traced[:common])
            / sum(record.normalized_s for record in records[:common])
            - 1.0,
            "fraction",
            common,
        )
    return out


def solve_layer_metrics(out: Outcome, spans: list, traced: list[Solve], fingerprints: list) -> None:
    """Solver, compiler, engine and profiler metrics of traced solves.

    ``traced`` holds the solves that ran under the recorder; their summed
    wall time is split into host self time, graph build, compile and
    engine run, and what is left is the residual.  Times are scaled to the
    reference host speed by the median scale of those solves.
    """
    totals = solve_layers(spans)
    solves = max(totals["solves"], 1)
    loop_wall = sum(record.latency_s for record in traced)
    accounted = (
        totals["host_s"] + totals["graph_build_s"] + totals["compile_s"] + totals["engine_s"]
    )
    ms = 1e3 * statistics.median(record.scale for record in traced)
    out.layer("solver.graph_build_ms", mean(totals["build_calls"]) * ms, "ms", len(totals["build_calls"]))
    out.layer("compiler.compile_ms", mean(totals["compile_calls"]) * ms, "ms", len(totals["compile_calls"]))
    out.layer("compiler.vertices", mean(totals["vertices"]), "count", len(totals["vertices"]))
    out.layer("engine.run_ms", totals["engine_s"] / solves * ms, "ms", totals["solves"])
    out.layer(
        "engine.host_us_per_superstep",
        totals["engine_s"] / max(totals["supersteps"], 1) * 1e3 * ms,
        "us",
        totals["supersteps"],
    )
    out.layer("engine.share", totals["engine_s"] / loop_wall, "fraction", totals["solves"])
    out.layer("solver.host_ms", totals["host_s"] / solves * ms, "ms", totals["solves"])
    count = len(fingerprints)
    out.layer("profiler.supersteps", mean([fp[1] for fp in fingerprints]), "count", count)
    out.layer("profiler.exchange_mb", mean([fp[2] for fp in fingerprints]) / 1e6, "MB", count)
    out.layer("profiler.step4_ms", mean([fp[3] for fp in fingerprints]) * 1e3, "ms", count)
    out.layer("profiler.step6_ms", mean([fp[4] for fp in fingerprints]) * 1e3, "ms", count)
    residual = loop_wall - accounted
    out.layer("trace.residual_ms", residual / solves * ms, "ms", totals["solves"])
    out.layer("trace.residual_frac", residual / loop_wall, "fraction", totals["solves"])
    out.notes.append(
        "solve wall (raw) %.3f ms/solve = host %.3f + graph build %.3f + compile %.3f"
        " + engine %.3f + residual %.3f"
        % tuple(
            value / solves * 1e3
            for value in (
                loop_wall,
                totals["host_s"],
                totals["graph_build_s"],
                totals["compile_s"],
                totals["engine_s"],
                residual,
            )
        )
    )
