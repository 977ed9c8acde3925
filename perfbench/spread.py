"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload solve-warm --seeds 1-10
    python3 perfbench/spread.py --workload serve-http --seeds 11-15 --trace 1
    python3 perfbench/spread.py --workload cold-compile --seeds 1-3 --repeat

Each seed is one fresh ``perfbench/run.py`` process with the run length of
``BENCHMARK.json``.  For every metric the report gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound; an end-to-end metric whose spread is not below a third of
its bound is flagged.  ``--repeat`` runs every seed
twice and requires the deterministic metrics (``device_ms`` and the
``profiler.*`` counts) to be bit-identical between the two runs.
Exits non-zero on a failed run, a flagged spread or a repeat mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("device_ms", "profiler.")


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _run(benchmark: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    print(f"  seed {seed} ({wall:.1f} s): " + ", ".join(
        f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
        if entry["value"] or trace == 0
    ), flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    bounds = {entry["name"]: entry.get("bound") for entry in benchmark["end_to_end"]}
    runs = {seed: _run(benchmark, args.workload, seed, seconds, args.trace) for seed in _seeds(args.seeds)}

    failed = False
    if args.repeat:
        for seed, first in runs.items():
            again = _run(benchmark, args.workload, seed, seconds, args.trace)
            for name, entry in first["metrics"].items():
                if name.startswith(DETERMINISTIC) and entry != again["metrics"][name]:
                    print(f"REPEAT MISMATCH seed {seed} {name}: {entry} vs {again['metrics'][name]}")
                    failed = True
        print("repeat: deterministic metrics " + ("DIFFER" if failed else "bit-identical"))

    print(f"{args.workload}: {len(runs)} runs of {seconds} s, trace {args.trace}")
    for name in next(iter(runs.values()))["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs.values()]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = bound is not None and spread >= bound / 3
        failed |= flag
        print(
            f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
            f"  spread {spread:7.2%}" + (f"  bound {bound:.0%}" if bound is not None else "")
            + ("  <-- spread >= bound/3" if flag else "")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
