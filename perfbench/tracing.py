"""Span recording around the public callables of each layer.

The benchmark adds no tracing inside the program: :func:`install` wraps
module attributes from the outside, records one span per call (name,
start, end, parent, request id) in memory, and :func:`uninstall` puts the
originals back.  Self time of a span is its duration minus its children.

Wrapped callables, one per layer boundary:

* ``repro.core.solver.HunIPUSolver.solve`` -> ``solver.solve``
* ``repro.core.solver.HunIPUSolver.compiled_for`` -> ``solver.compiled_for``
* ``repro.ipu.engine.compile_graph`` (the name ``Engine.__init__`` calls)
  -> ``compiler.compile_graph``
* ``repro.ipu.engine.Engine.run`` -> ``engine.run``
* ``repro.serve.workers.WorkerPool.submit`` -> ``pool.submit``
* ``repro.serve.workers.PoolTicket.response`` -> ``pool.response``

Worker processes are spawned and never see these wrappers; serve layers
inside them are read from response documents and stats instead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "request": request,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, request=None, **attrs) -> None:
        """Record a span whose times were taken elsewhere (the load driver)."""
        self.spans.append(
            {
                "id": next(self._ids),
                "name": name,
                "parent": None,
                "request": request,
                "start": start,
                "end": end,
                "attrs": attrs,
            }
        )

    def clear(self) -> None:
        self.spans = []

    def wrap(self, owner, attr: str, name: str, annotate=None, request_of=None) -> None:
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            request = request_of(args) if request_of is not None else None
            with recorder.span(name, request) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(record, args, result)
                return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _vertices(compiled) -> int:
    return sum(len(plan.vertex_tiles) for plan in compiled.plans.values())


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.core.solver as solver_mod
    import repro.ipu.engine as engine_mod
    import repro.serve.workers as workers_mod

    def on_compile(record, args, compiled):
        record["attrs"]["vertices"] = _vertices(compiled)

    def on_run(record, args, report):
        record["attrs"]["supersteps"] = int(report.supersteps)

    def on_submit(record, args, ticket):
        record["request"] = ticket.request_id

    recorder.wrap(solver_mod.HunIPUSolver, "solve", "solver.solve")
    recorder.wrap(solver_mod.HunIPUSolver, "compiled_for", "solver.compiled_for")
    recorder.wrap(engine_mod, "compile_graph", "compiler.compile_graph", on_compile)
    recorder.wrap(engine_mod.Engine, "run", "engine.run", on_run)
    recorder.wrap(workers_mod.WorkerPool, "submit", "pool.submit", on_submit)
    recorder.wrap(
        workers_mod.PoolTicket,
        "response",
        "pool.response",
        request_of=lambda args: args[0].request_id,
    )


def span_cost_s(count: int = 2000) -> float:
    """Calibrated wall cost of recording one span."""
    probe = SpanRecorder()
    started = time.perf_counter()
    for _ in range(count):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - started) / count


def _duration(record: dict) -> float:
    return record["end"] - record["start"]


def solve_layers(spans: list[dict]) -> dict:
    """Per-layer totals of the in-process solve path.

    Returns sums over every ``solver.solve`` span: solve wall, its self
    time, graph build (``compiled_for`` minus its compile child), compile
    and engine time, supersteps, plus per-call compile statistics over all
    spans (set-up compiles included).
    """
    children: dict[int, list[dict]] = {}
    for record in spans:
        if record["parent"] is not None and record["end"] is not None:
            children.setdefault(record["parent"], []).append(record)

    def self_time(record: dict) -> float:
        return _duration(record) - sum(
            _duration(child) for child in children.get(record["id"], ())
        )

    totals = {
        "solves": 0,
        "solve_s": 0.0,
        "host_s": 0.0,
        "graph_build_s": 0.0,
        "compile_s": 0.0,
        "engine_s": 0.0,
        "supersteps": 0,
    }
    for record in spans:
        if record["name"] != "solver.solve" or record["end"] is None:
            continue
        totals["solves"] += 1
        totals["solve_s"] += _duration(record)
        totals["host_s"] += self_time(record)
        for child in children.get(record["id"], ()):
            if child["name"] == "solver.compiled_for":
                totals["graph_build_s"] += self_time(child)
                for grandchild in children.get(child["id"], ()):
                    if grandchild["name"] == "compiler.compile_graph":
                        totals["compile_s"] += _duration(grandchild)
            elif child["name"] == "engine.run":
                totals["engine_s"] += _duration(child)
                totals["supersteps"] += child["attrs"].get("supersteps", 0)

    builds, compiles, vertices = [], [], []
    for record in spans:
        if record["end"] is None:
            continue
        if record["name"] == "compiler.compile_graph":
            compiles.append(_duration(record))
            vertices.append(record["attrs"]["vertices"])
        elif record["name"] == "solver.compiled_for":
            kids = [
                child
                for child in children.get(record["id"], ())
                if child["name"] == "compiler.compile_graph"
            ]
            if kids:
                builds.append(self_time(record))
    totals["build_calls"] = builds
    totals["compile_calls"] = compiles
    totals["vertices"] = vertices
    return totals
