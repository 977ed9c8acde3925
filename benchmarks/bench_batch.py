"""Batch-engine benchmark: BatchSolver throughput on same-size and mixed streams."""

from __future__ import annotations

from repro.batch import BatchSolver
from repro.bench.batch import run_batch_bench
from repro.core.solver import HunIPUSolver
from repro.data.synthetic import uniform_instance


def test_batch_stream_throughput(benchmark):
    """Micro-benchmark: one pre-compiled batch of 20 n=16 instances."""
    instances = [uniform_instance(16, 1, seed=index) for index in range(20)]
    solver = BatchSolver(HunIPUSolver())
    solver.solver.compiled_for(16)
    batch = benchmark(solver.solve_batch, instances)
    assert batch.instances == 20
    assert len(batch.groups) == 1


def test_report_batch(benchmark, scale, save_report):
    result = benchmark.pedantic(run_batch_bench, args=(scale,), rounds=1, iterations=1)
    save_report("batch", result)
    assert all("CHECK" not in note for note in result.shape_notes)
