"""Batch-throughput benchmark: BatchSolver on a same-size and a mixed stream.

The paper's motivating workloads "run the Hungarian algorithm hundreds of
times" per task (§I).  This harness solves a stream of same-sized
instances through :class:`repro.batch.BatchSolver` on a pre-compiled graph
and reports the best round's wall time per instance.  A mixed-size stream
exercises the pad-to-cached-size policy on top: the batch's gain is the
compile it saves there, since every member runs through ``solve`` either
way.
"""

from __future__ import annotations

from repro.batch import BatchSolver
from repro.bench.harness import ExperimentResult, format_grid
from repro.bench.recording import BenchScale, RunRecord
from repro.core.solver import HunIPUSolver
from repro.data.synthetic import uniform_instance

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
    """Measure batch throughput at the given scale.

    The same-size stream is timed over several rounds and reports its best
    round (the standard ``timeit`` minimum estimator: scheduler noise only
    ever adds time).  The graph is compiled before the first round, so the
    one-off compile does not land in any of them.
    """
    scale = scale if scale is not None else BenchScale.from_env()
    size, count, straggler_size, rounds = _GRID[scale.name]
    instances = [
        uniform_instance(size, 1, seed=seed + index) for index in range(count)
    ]
    batch_path = BatchSolver(HunIPUSolver())
    batch_path.solver.compiled_for(size)

    round_walls = []
    for _ in range(rounds):
        batch = batch_path.solve_batch(instances)
        round_walls.append(batch.wall_seconds)
    batch_wall = min(round_walls)
    records = [
        RunRecord(
            "batch",
            "hunipu-batch",
            {"n": size, "count": count},
            batch.device_seconds,
            batch_wall,
            extra={
                "wall_per_instance_s": batch_wall / count,
                "instances_per_second": count / batch_wall,
                "groups": len(batch.groups),
                "round_walls_s": round_walls,
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
        f"Batch throughput: {count} x n={size} uniform instances (best of "
        f"{rounds} rounds, pre-compiled) and a {len(mixed)}-instance mixed stream",
        ["batch", "mixed"],
        ["wall s", "wall ms/inst", "inst/s"],
        {
            ("batch", "wall s"): batch_wall,
            ("batch", "wall ms/inst"): batch_wall / count * 1e3,
            ("batch", "inst/s"): count / batch_wall,
            ("mixed", "wall s"): mixed_batch.wall_seconds,
            ("mixed", "wall ms/inst"): mixed_batch.wall_seconds / len(mixed) * 1e3,
            ("mixed", "inst/s"): mixed_batch.instances_per_second,
        },
        row_header="stream",
        width=13,
    )

    notes = (
        f"mixed stream solved in {len(mixed_batch.groups)} group(s) with "
        f"{padded} padded instance(s) "
        f"({'OK' if len(mixed_batch.groups) == 1 and padded > 0 else 'CHECK'})",
    )
    return ExperimentResult("batch", scale.name, tuple(records), (table,), notes)
