"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-warm --seed 1 --seconds 20 --trace 0

Workloads: ``solve-warm``, ``cold-compile`` (in-process library calls) and
``serve-http`` (the multi-process serving stack); see
``perfbench/README.md``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it wraps each layer's public
callables, reports the per-layer metrics, and writes the recorded spans
under the build directory (``$CARGO_TARGET_DIR``, default ``.bench_build``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table with each metric's unit and sample count.  The exit
code is 0 only when every answer was correct, 1 on a wrong answer or a
determinism mismatch, and 2 when the program under test is missing.

The measurement runs in a child process of this one.  This process stays
its subreaper, so that processes the child leaves behind (the
``multiprocessing`` resource tracker of the serving stack outlives the
process that started it) become this process's children, and it waits
until every one has ended before it exits.
"""

from __future__ import annotations

import argparse
import json
import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("solve-warm", "cold-compile", "serve-http")

#: Environment variable that marks the measuring child process.
_CHILD_ENV = "PERFBENCH_MEASURE"

#: ``prctl`` option that makes orphaned descendants this process's children.
_PR_SET_CHILD_SUBREAPER = 36


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Turn a termination request into SystemExit, so that the finally
    # blocks stop the processes started below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if os.environ.get(_CHILD_ENV) == "1":
        return _run(args)
    return _supervise(sys.argv[1:] if argv is None else argv)


def _supervise(argv: list[str], grace_s: float = 10.0) -> int:
    """Run the measurement in a child process; return its exit code once it
    and every process it left behind have ended."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without a subreaper only the direct child is waited for
    env = dict(os.environ, **{_CHILD_ENV: "1"})
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv], env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        _reap_children(grace_s)


def _child_pids() -> list[int]:
    """Process ids whose parent is this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_children(grace_s: float) -> None:
    """Wait for every child to end: ``grace_s`` to end on its own (the
    resource tracker cleans up, then exits when its pipe closes), then
    after SIGTERM, then after SIGKILL."""
    for sent in (None, signal.SIGTERM, signal.SIGKILL):
        pending = _child_pids()
        for pid in pending if sent is not None else ():
            try:
                os.kill(pid, sent)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + (grace_s if sent is None else 2.0)
        while pending and time.monotonic() < deadline:
            for pid in pending:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            time.sleep(0.02)
            pending = _child_pids()
        if not pending:
            return


def _run(args: argparse.Namespace) -> int:
    from measure import ROOT, SRC, Metric, load_spec

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()

    from tracing import SpanRecorder

    recorder = SpanRecorder() if args.trace else None
    if args.workload in ("solve-warm", "cold-compile"):
        import library as module
    else:
        import serving as module
    outcome = module.run(args.workload, args.seed, args.seconds, recorder, spec)

    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {}
    for entry in benchmark[kind]:
        # A per-layer metric this workload does not exercise reads 0 with
        # no samples.
        metric = measured.get(entry["name"]) or Metric(0.0, entry["unit"], 0)
        if args.trace == 0 and entry["name"] not in measured:
            raise RuntimeError(f"end-to-end metric {entry['name']} was not measured")
        if metric.unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {metric.unit} != {entry['unit']}")
        metrics[entry["name"]] = metric

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric.value:14.6g} {metric.unit:9s} n={metric.samples}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems[:20]:
        print(f"  PROBLEM: {problem}")
    if recorder is not None:
        target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        if not target.is_absolute():
            target = ROOT / target
        path = target / "perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(path)
        print(f"  spans: {len(recorder.spans)} written to {path}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
