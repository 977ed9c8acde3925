"""Batch-throughput benchmark — BatchSolver vs sequential solve_many.

The paper's motivating workloads "run the Hungarian algorithm hundreds of
times" per task (§I).  This harness solves the same stream of same-sized
instances twice, sequentially
(:meth:`~repro.core.solver.HunIPUSolver.solve_many`) and through
:class:`repro.batch.BatchSolver`, verifies the results are bit-identical,
and reports the per-instance wall-clock ratio.  Both paths run every
instance through ``solve`` on a pre-compiled graph, so the ratio measures
the batch's grouping overhead and reads about 1.0; the batch's gain is the
compile it saves on mixed-size streams.  A mixed-size stream exercises the
pad-to-cached-size policy on top.
"""

from __future__ import annotations

import numpy as np

from repro.batch import BatchSolver
from repro.bench.harness import ExperimentResult, format_grid
from repro.bench.recording import BenchScale, RunRecord
from repro.core.solver import HunIPUSolver
from repro.data.synthetic import uniform_instance
from repro.obs.perf import alternating_minimum
from repro.obs.timing import wall_timer

__all__ = ["run_batch_bench"]

#: (instance size, stream length, straggler size, timing rounds) per scale
#: level.  The default stream satisfies the >= 50-instance acceptance bar;
#: quick is the smoke-test size used by the test suite.
_GRID = {
    "quick": (16, 12, 15, 2),
    "default": (32, 60, 31, 5),
    "paper": (64, 200, 63, 7),
}


def run_batch_bench(scale: BenchScale | None = None, *, seed: int = 0) -> ExperimentResult:
    """Measure batch vs sequential throughput at the given scale.

    Both paths solve the identical stream; timing alternates
    sequential/batch over several rounds and reports each path's best
    round (the standard ``timeit`` minimum estimator — scheduler noise
    only ever adds time, so the minimum is the closest observation of
    each path's true cost, and alternating keeps slow system phases from
    biasing one side).
    """
    scale = scale if scale is not None else BenchScale.from_env()
    size, count, straggler_size, rounds = _GRID[scale.name]
    instances = [
        uniform_instance(size, 1, seed=seed + index) for index in range(count)
    ]

    # Both paths get a pre-compiled graph, so the comparison isolates the
    # per-instance overhead (the one-off compile would otherwise dominate
    # either side it lands on).
    sequential_solver = HunIPUSolver()
    sequential_solver.compiled_for(size)
    batch_path = BatchSolver(HunIPUSolver())
    batch_path.solver.compiled_for(size)

    outcome: dict[str, object] = {}

    def _sequential_round() -> float:
        with wall_timer() as sequential_timer:
            outcome["sequential"] = sequential_solver.solve_many(instances)
        return sequential_timer.seconds

    def _batch_round() -> float:
        outcome["batch"] = batch_path.solve_batch(instances)
        return outcome["batch"].wall_seconds

    timings = alternating_minimum(
        {"sequential": _sequential_round, "batch": _batch_round}, rounds
    )
    sequential_results = outcome["sequential"]
    batch = outcome["batch"]
    sequential_rounds = list(timings["sequential"].rounds)
    batch_rounds = list(timings["batch"].rounds)
    sequential_wall = timings["sequential"].best
    batch_wall = timings["batch"].best

    identical = all(
        np.array_equal(seq.assignment, bat.assignment)
        and seq.total_cost == bat.total_cost
        for seq, bat in zip(sequential_results, batch.results)
    )
    sequential_per_instance = sequential_wall / count
    batch_per_instance = batch_wall / count
    speedup = sequential_per_instance / batch_per_instance
    device_seconds = sum(r.device_time_s for r in sequential_results)

    params = {"n": size, "count": count}
    records = [
        RunRecord(
            "batch",
            "hunipu-sequential",
            params,
            device_seconds,
            sequential_wall,
            extra={
                "wall_per_instance_s": sequential_per_instance,
                "instances_per_second": count / sequential_wall,
                "round_walls_s": sequential_rounds,
            },
        ),
        RunRecord(
            "batch",
            "hunipu-batch",
            params,
            batch.device_seconds,
            batch_wall,
            extra={
                "wall_per_instance_s": batch_per_instance,
                "instances_per_second": count / batch_wall,
                "speedup_vs_sequential": speedup,
                "groups": len(batch.groups),
                "round_walls_s": batch_rounds,
            },
        ),
    ]

    # Mixed-size stream: stragglers one short of the compiled size must ride
    # the existing binary via padding instead of compiling their own graph.
    mixed = [
        uniform_instance(straggler_size, 1, seed=seed + 1000 + index)
        for index in range(max(2, count // 10))
    ] + instances[: max(2, count // 10)]
    mixed_batch = batch_path.solve_batch(mixed)
    padded = sum(group.padded for group in mixed_batch.groups)
    records.append(
        RunRecord(
            "batch",
            "hunipu-batch-mixed",
            {"sizes": f"{straggler_size}+{size}", "count": len(mixed)},
            mixed_batch.device_seconds,
            mixed_batch.wall_seconds,
            extra={
                "groups": len(mixed_batch.groups),
                "padded_instances": padded,
                "instances_per_second": mixed_batch.instances_per_second,
            },
        )
    )

    table = format_grid(
        f"Batch throughput: {count} x n={size} uniform instances, "
        f"best of {rounds} alternating rounds (pre-compiled on both paths)",
        ["sequential", "batch"],
        ["wall s", "wall ms/inst", "inst/s"],
        {
            ("sequential", "wall s"): sequential_wall,
            ("sequential", "wall ms/inst"): sequential_per_instance * 1e3,
            ("sequential", "inst/s"): count / sequential_wall,
            ("batch", "wall s"): batch_wall,
            ("batch", "wall ms/inst"): batch_per_instance * 1e3,
            ("batch", "inst/s"): count / batch_wall,
        },
        row_header="path",
    )

    notes = (
        f"batch results bit-identical to sequential solves "
        f"({'OK' if identical else 'MISMATCH'})",
        # Both loops run the same solve() per instance, so the ratio is run
        # noise around 1.0; it is reported, not judged.
        f"sequential / batch wall per instance: {speedup:.2f} "
        "(same solve() per instance on both paths)",
        f"mixed stream solved in {len(mixed_batch.groups)} group(s) with "
        f"{padded} padded instance(s) "
        f"({'OK' if len(mixed_batch.groups) == 1 and padded > 0 else 'CHECK'})",
    )
    return ExperimentResult("batch", scale.name, tuple(records), (table,), notes)
