"""Shared measurement helpers: the result record, percentiles, memory,
set-up timing and answer checks.

Everything here runs in the benchmark process; nothing is imported into
the program under test.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: Answer tolerance of ``repro.serve.loadgen`` (absolute + relative).
VERIFY_ABS = 1e-6
VERIFY_REL = 1e-9

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


#: Operands of the calibration loop.
_CAL_X = np.arange(64.0)
_CAL_Y = np.ones(64)

#: Rounds of one calibration call.
CAL_ROUNDS = 1500


def _cal_loop(rounds: int) -> float:
    """CPU seconds this thread spends on ``rounds`` of the calibration loop."""
    started = time.thread_time()
    acc = 0.0
    for step in range(rounds):
        acc += float(((_CAL_X + _CAL_Y) * 0.5).max()) + len({"step": step})
    return time.thread_time() - started


def calibrate(calls: int = 1) -> float:
    """Mean seconds of one calibration call, over ``calls`` calls.

    The loop mixes interpreter work with small NumPy calls, the two costs
    the program's host time is made of, and touches nothing of the program
    under test.  On a shared host its time follows the host's speed, which
    was seen to drift by more than 50% within minutes; scaling a timing by
    the reference over the calibration measured next to it removes that
    drift, while any change to the program still shows in full.  It counts
    this thread's CPU time, so waiting for the interpreter lock held by
    another thread does not read as a slow host.
    """
    return sum(_cal_loop(CAL_ROUNDS) for _ in range(calls)) / calls


class HostSampler:
    """Calibrates in a background thread while an open loop runs.

    Every ``period_s`` it times a short slice of the calibration loop
    (about a millisecond, so it holds the interpreter lock only briefly)
    and keeps ``(time, seconds per full calibration call)``.
    """

    _SLICE = 300

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-sampler")

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            seconds = _cal_loop(self._SLICE) * CAL_ROUNDS / self._SLICE
            self.samples.append((time.perf_counter(), seconds))

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float, reference: float, pad: float = 1.0) -> float:
        """Reference over the median calibration within ``pad`` of [start, end]."""
        times = [t for t, _ in self.samples]
        low = bisect.bisect_left(times, start - pad)
        high = bisect.bisect_right(times, end + pad)
        window = [seconds for _, seconds in self.samples[low:high]]
        if not window:
            # A phase shorter than one sampling period stays unscaled.
            window = [seconds for _, seconds in self.samples] or [reference]
        return reference / statistics.median(window)


def load_spec() -> dict:
    with open(HERE / "spec.json") as handle:
        return json.load(handle)


@dataclasses.dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and whether its answers held."""

    end_to_end: dict[str, Metric] = dataclasses.field(default_factory=dict)
    per_layer: dict[str, Metric] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    #: Extra lines for the human-readable report (not part of the JSON).
    notes: list[str] = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def e2e(self, name: str, value: float, unit: str, samples: int) -> None:
        self.end_to_end[name] = Metric(float(value), unit, int(samples))

    def layer(self, name: str, value: float, unit: str, samples: int) -> None:
        self.per_layer[name] = Metric(float(value), unit, int(samples))


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0.0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def import_seconds(modules: str, repeats: int, constants: dict) -> tuple[list[float], list[float]]:
    """Times of ``repeats`` fresh interpreters that import ``modules``,
    scaled to the reference host speed, and the scale each was taken at.

    Import cost is the part of set-up that a process pays once, so it is
    measured in child interpreters (started and waited for here) rather
    than once in this process.  Right before each, a child interpreter
    imports the fixed ``reference_import`` modules, which are third-party
    and never the program under test, and the import's wall time is
    multiplied by ``reference_import_ms`` over that child's wall time.  The
    host's speed drifts by 40% and more over tens of minutes.  This
    thread's calibration loop is not used: a child may run on the other
    core, and the loop slowed down about twice as much as imports did in
    a slow phase of the host, so it over-corrected them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    reference_s = constants["reference_import_ms"] / 1e3

    def child(names: str) -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {names}"],
            env=env,
            check=True,
            timeout=120,
        )
        return time.perf_counter() - started

    times, scales = [], []
    for _ in range(repeats):
        scales.append(reference_s / child(constants["reference_import"]))
        times.append(child(modules) * scales[-1])
    return times, scales


def first_half(repeats: int) -> int:
    """Imports timed before set-up; the other ``repeats // 2`` are timed
    after the measured phase, so that their median spans the run."""
    return (repeats + 1) // 2


def record_setup(out: "Outcome", imports: list[float], ready: list[float], note: str) -> None:
    """``setup_s``: median import time plus median time to ready."""
    out.e2e(
        "setup_s",
        statistics.median(imports) + statistics.median(ready),
        "s",
        len(imports) + len(ready),
    )
    out.notes.append(
        f"setup: import {statistics.median(imports):.4f} s (median of {len(imports)}),"
        f" ready {statistics.median(ready):.4f} s (median of {len(ready)}{note})"
    )


def scaled_seconds(action, repeats: int, reference: float) -> tuple[list[float], list[float]]:
    """Wall times of ``repeats`` calls of ``action`` in this thread, raw and
    scaled to the reference host speed by the calibrations on each side."""
    raw, scaled = [], []
    before = calibrate(2)
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        raw.append(time.perf_counter() - started)
        after = calibrate(2)
        scaled.append(raw[-1] * 2 * reference / (before + after))
        before = after
    return raw, scaled


def optimum(costs: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum())


def answer_ok(
    costs: np.ndarray,
    assignment,
    total_cost: float,
    best: float,
    gap_bound: float | None = None,
) -> bool:
    """The loadgen rule: exact answers hit the optimum, approx ones stay
    within their certified ``gap_bound``; the assignment is a permutation
    that achieves the claimed cost."""
    tolerance = VERIFY_ABS + VERIFY_REL * abs(best)
    excess = total_cost - best
    if gap_bound is None:
        if abs(excess) > tolerance:
            return False
    elif not -tolerance <= excess <= gap_bound + tolerance:
        return False
    assignment = np.asarray(assignment, dtype=np.int64)
    n = costs.shape[0]
    if assignment.shape != (n,) or not np.array_equal(
        np.sort(assignment), np.arange(n)
    ):
        return False
    achieved = float(costs[np.arange(n), assignment].sum())
    return abs(achieved - total_cost) <= tolerance


def result_fingerprint(result) -> tuple:
    """The deterministic part of a HunIPU result: modeled device time and
    profiler counts, compared bit for bit across repeats."""
    stats = result.stats
    steps = stats.get("step_seconds", {})
    return (
        result.device_time_s,
        int(stats["supersteps"]),
        int(stats["exchange_bytes"]),
        steps.get("step4"),
        steps.get("step6"),
        tuple(int(c) for c in result.assignment),
    )
