"""Schema-versioned JSON export of traces, metrics, profiles, bench runs.

Every document is stamped with a ``schema`` string so downstream tooling
can dispatch and evolve safely:

==============================  ================================================
schema                          produced by
==============================  ================================================
``repro.trace/1``               :func:`trace_to_dict` (tracer events + summary)
``repro.metrics/1``             :func:`metrics_to_dict` (registry snapshot)
``repro.profile/1``             :func:`profile_report_to_dict` (BSP cost report)
``repro.bench-run/1``           :func:`experiment_result_to_dict` /
                                :func:`write_bench_record` (``BENCH_*.json``)
``repro.check/1``               :func:`repro.check.check_document` (static BSP
                                constraint-check reports, C1–C4)
``repro.serve/1``               ``stats_document()`` of
                                :class:`repro.serve.SolverService` and
                                :class:`repro.serve.WorkerPool` (request
                                accounting from one
                                :class:`repro.serve.stats.RequestLedger`)
``repro.spans/1``               :func:`spans_to_dict` (request-correlated span
                                trees from :class:`repro.obs.spans.SpanCollector`)
``repro.golden-trace/1``        ``tests/test_golden_trace.py`` (the committed
                                bit-exact control-flow fingerprint)
``repro.tile-profile/1``        :func:`tile_profile_to_dict` (deep-profiling
                                per-tile attribution)
``repro.perf/1``                :mod:`repro.obs.perf` (benchmark trend store)
``repro.stream/1``              :mod:`repro.bench.stream` (``BENCH_stream.json``:
                                warm-vs-cold supersteps per drifting tick)
``repro.multi/1``               :mod:`repro.bench.multi` (``BENCH_multi.json``:
                                the 1/2/4-IPU scaling curve and crossover)
``repro.solve-request/1``       HTTP ``POST /solve`` body
                                (:mod:`repro.serve.http`)
``repro.solve-response/1``      HTTP ``/solve`` reply
                                (:func:`repro.serve.workers.wire_response`)
==============================  ================================================

Beyond the schema-stamped documents, :func:`perfetto_from_documents` merges
a spans document and/or a trace document into Chrome trace-event JSON — the
``{"traceEvents": [...]}`` format Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` load directly — putting request-level spans and the
engine's per-superstep BSP slices on one timeline.
:func:`validate_perfetto` checks that shape (it is not schema-stamped, so
it is not dispatched through :func:`validate_document`).

Validation is one table, ``_SCHEMAS``: each stamp maps to a path label, a
declarative shape (required keys, optional blocks, list-row and map-value
shapes, typed leaves) and an optional post-check.  One walker checks the
shape; the post-checks hold only the cross-field invariants the documents
exist to claim (nothing lost in ``repro.serve/1``, per-tick sums in
``repro.stream/1``, oracle-optimal rows in ``repro.multi/1``, ...).  Every
failure, including malformed input a post-check trips over, raises
:class:`SchemaError` with a path-qualified message.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import pathlib
from typing import Any, Callable, Mapping

import numpy as np

from repro.ipu.profiler import ProfileReport, StepRecord, TileProfile
from repro.obs.spans import SPAN_STATUSES

__all__ = [
    "SchemaError",
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "PROFILE_SCHEMA",
    "BENCH_SCHEMA",
    "CHECK_SCHEMA",
    "SERVE_SCHEMA",
    "TILE_SCHEMA",
    "PERF_SCHEMA",
    "STREAM_SCHEMA",
    "MULTI_SCHEMA",
    "to_jsonable",
    "profile_report_to_dict",
    "profile_report_from_dict",
    "tile_profile_to_dict",
    "validate_tile_profile",
    "validate_perf_document",
    "trace_to_dict",
    "metrics_to_dict",
    "experiment_result_to_dict",
    "write_bench_record",
    "write_json",
    "validate_document",
    "validate_trace",
    "validate_profile",
    "validate_bench_record",
    "validate_serve_stats",
    "SOLVE_REQUEST_SCHEMA",
    "SOLVE_RESPONSE_SCHEMA",
    "validate_solve_request",
    "validate_solve_response",
    "SPANS_SCHEMA",
    "GOLDEN_SCHEMA",
    "spans_to_dict",
    "validate_spans",
    "perfetto_from_documents",
    "validate_perfetto",
]

TRACE_SCHEMA = "repro.trace/1"
METRICS_SCHEMA = "repro.metrics/1"
PROFILE_SCHEMA = "repro.profile/1"
BENCH_SCHEMA = "repro.bench-run/1"
CHECK_SCHEMA = "repro.check/1"
SERVE_SCHEMA = "repro.serve/1"
SPANS_SCHEMA = "repro.spans/1"
GOLDEN_SCHEMA = "repro.golden-trace/1"
TILE_SCHEMA = "repro.tile-profile/1"
PERF_SCHEMA = "repro.perf/1"
STREAM_SCHEMA = "repro.stream/1"
MULTI_SCHEMA = "repro.multi/1"
SOLVE_REQUEST_SCHEMA = "repro.solve-request/1"
SOLVE_RESPONSE_SCHEMA = "repro.solve-response/1"


class SchemaError(ValueError):
    """A document failed schema validation."""


# ----------------------------------------------------------------------
# JSON coercion
# ----------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-encodable Python types.

    Numpy scalars/arrays become Python numbers/lists; dataclasses become
    dicts; anything else unencodable falls back to ``repr`` (export must
    never crash a benchmark run over an exotic ``stats`` entry).
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, pathlib.Path):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    return repr(value)


def write_json(path: pathlib.Path | str, document: Mapping[str, Any]) -> pathlib.Path:
    """Serialize ``document`` (coerced via :func:`to_jsonable`) to ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(document), indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# ProfileReport
# ----------------------------------------------------------------------


def profile_report_to_dict(report: ProfileReport) -> dict[str, Any]:
    """``repro.profile/1`` document for one BSP cost report.

    The phase headers (``compute_cycles``, ``phase_seconds``) are emitted
    when the report carries them (reports produced by this version always
    do); documents from older exports omit them and round-trip through the
    sum-of-records fallback.
    """
    document = {
        "schema": PROFILE_SCHEMA,
        "supersteps": report.supersteps,
        "host_io_seconds": report.host_io_seconds,
        "device_seconds": report.device_seconds,
        "exchange_bytes": report.exchange_bytes,
        "inter_ipu_bytes": report.inter_ipu_bytes,
        "inter_ipu_syncs": report.inter_ipu_syncs,
        "records": [
            {
                field.name: getattr(record, field.name)
                for field in dataclasses.fields(record)
            }
            for record in report.records
        ],
    }
    if report.phase_compute_seconds is not None:
        document["compute_cycles"] = report.compute_cycles
        document["phase_seconds"] = report.phase_seconds
    return document


def profile_report_from_dict(document: Mapping[str, Any]) -> ProfileReport:
    """Rebuild a :class:`ProfileReport` from its exported form."""
    validate_profile(document)
    records = tuple(
        StepRecord(
            name=row["name"],
            executions=int(row["executions"]),
            compute_seconds=float(row["compute_seconds"]),
            sync_seconds=float(row["sync_seconds"]),
            exchange_seconds=float(row["exchange_seconds"]),
            exchange_bytes=int(row["exchange_bytes"]),
            inter_ipu_bytes=int(row["inter_ipu_bytes"]),
            inter_ipu_syncs=int(row.get("inter_ipu_syncs", 0)),
            compute_cycles=float(row.get("compute_cycles", 0.0)),
        )
        for row in document["records"]
    )
    phases = document.get("phase_seconds")
    return ProfileReport(
        records=records,
        supersteps=int(document["supersteps"]),
        host_io_seconds=float(document["host_io_seconds"]),
        compute_cycles=float(document.get("compute_cycles", 0.0)),
        inter_ipu_syncs=int(document.get("inter_ipu_syncs", 0)),
        phase_compute_seconds=(
            float(phases["compute"]) if phases is not None else None
        ),
        phase_sync_seconds=float(phases["sync"]) if phases is not None else None,
        phase_exchange_seconds=(
            float(phases["exchange"]) if phases is not None else None
        ),
    )


def tile_profile_to_dict(
    tiles: TileProfile,
    meta: Mapping[str, Any] | None = None,
    *,
    heatmap_width: int | None = None,
    include_heatmap: bool = False,
    max_series: int | None = None,
) -> dict[str, Any]:
    """``repro.tile-profile/1`` document for one deep-profiled run.

    ``tiles`` lists only non-idle tiles (a quick solve touches a handful
    of the 1472).  ``include_heatmap`` adds the dense 2-D cycle grid;
    ``max_series`` truncates the per-superstep series (the truncation is
    recorded in ``series_truncated`` so it is never silent).
    """
    active = np.flatnonzero(tiles.tile_active_supersteps)
    series = [dataclasses.asdict(sample) for sample in tiles.series]
    truncated = 0
    if max_series is not None and len(series) > max_series:
        truncated = len(series) - max_series
        series = series[:max_series]
    document: dict[str, Any] = {
        "schema": TILE_SCHEMA,
        "meta": dict(meta) if meta else {},
        "total_tiles": tiles.total_tiles,
        "supersteps": tiles.supersteps,
        "compute_cycles": tiles.compute_cycles,
        "vertex_cycles": tiles.vertex_cycles,
        "tiles_used": tiles.tiles_used,
        "occupancy": tiles.occupancy(),
        "imbalance_over_time": tiles.imbalance_over_time(),
        "stragglers": tiles.stragglers(),
        "tiles": [
            {
                "tile": int(tile),
                "cycles": float(tiles.tile_cycles[tile]),
                "active_supersteps": int(tiles.tile_active_supersteps[tile]),
                "straggler_supersteps": int(tiles.tile_straggler_count[tile]),
            }
            for tile in active
        ],
        "compute_sets": [
            dataclasses.asdict(stats) for stats in tiles.compute_sets
        ],
        "exchange_by_tensor": dict(tiles.exchange_by_tensor),
        "series": series,
        "series_truncated": truncated,
    }
    if include_heatmap:
        document["heatmap"] = tiles.heatmap(heatmap_width)
    return document


# ----------------------------------------------------------------------
# Traces and metrics
# ----------------------------------------------------------------------


def trace_to_dict(
    tracer: "Tracer",
    report: ProfileReport | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """``repro.trace/1`` document: events + summary (+ optional profile).

    Embedding the run's :class:`ProfileReport` makes the trace
    self-validating: ``summary.supersteps`` must equal
    ``profile.supersteps`` and per-step totals must agree with
    ``by_prefix`` sums (the smoke test enforces both).
    """
    document: dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "meta": dict(meta) if meta else {},
        "summary": tracer.summary(),
        "events": [event.to_dict() for event in tracer.events],
    }
    if report is not None:
        document["profile"] = profile_report_to_dict(report)
    return document


def metrics_to_dict(registry: "MetricsRegistry") -> dict[str, Any]:
    """``repro.metrics/1`` document for one registry snapshot."""
    return {"schema": METRICS_SCHEMA, "metrics": registry.snapshot()}


# ----------------------------------------------------------------------
# Request spans
# ----------------------------------------------------------------------


def spans_to_dict(
    collector: "SpanCollector", meta: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """``repro.spans/1`` document: every *finished* span of a collector.

    Spans still open when the export runs are omitted (their count is
    recorded in ``meta.unfinished`` so a truncated export is visible, never
    silent).
    """
    finished = collector.finished()
    open_count = getattr(collector, "_next_id", len(finished)) - len(finished)
    document = {
        "schema": SPANS_SCHEMA,
        "meta": {"unfinished": max(0, open_count), **(dict(meta) if meta else {})},
        "spans": [span.to_dict() for span in finished],
    }
    return document


# ----------------------------------------------------------------------
# Perfetto / Chrome trace-event timeline
# ----------------------------------------------------------------------

#: Synthetic process ids of the merged timeline's two tracks.
_PERFETTO_REQUEST_PID = 1
_PERFETTO_ENGINE_PID = 2
#: Engine-process thread ids: 1 is the superstep lane, 2 the straggler
#: lane, and multi-IPU traces add one lane per chip starting here.
_PERFETTO_IPU_TID_BASE = 3


def _perfetto_meta(pid: int, name: str) -> dict[str, Any]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }


def perfetto_from_documents(
    spans_document: Mapping[str, Any] | None = None,
    trace_document: Mapping[str, Any] | None = None,
    tile_document: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Merge spans, a BSP trace, and/or a tile profile into Chrome trace JSON.

    * Request spans become ``"X"`` (complete) events on the *requests*
      process (pid 1), one thread lane per correlation id, with the span
      attributes in ``args``.  Timestamps are rebased so the earliest span
      starts at 0.
    * The trace document's supersteps become back-to-back slices on the
      *engine (modeled)* process (pid 2).  Supersteps carry per-superstep
      *charges*, not wall timestamps, so the engine lane is the modeled
      device timeline: slice ``k`` starts where slice ``k-1`` ended.  When
      the spans document contains an ``engine.run`` span the engine lane is
      offset to start at that span's start, linking the request tree to the
      superstep slices it triggered.  Multi-IPU traces (superstep events
      carrying ``ipus``/``inter_ipu_bytes`` attribution) additionally get
      one lane per chip — each superstep's slice mirrored into the lanes of
      the chips it ran on — and an *inter-IPU exchange bytes* counter
      tracking cross-chip traffic per superstep.
    * A ``repro.tile-profile/1`` document adds two more tracks on the
      engine process: a *straggler tiles* lane (one slice per compute
      superstep, named after the tile that gated it, lasting the compute
      phase) and a ``tile imbalance`` counter (``"C"`` events).  The tile
      series advances by the same per-superstep ``total_seconds`` as the
      superstep lane, so the tracks line up exactly.

    Load the result at https://ui.perfetto.dev or ``chrome://tracing``.
    """
    if spans_document is None and trace_document is None and tile_document is None:
        raise SchemaError(
            "perfetto export needs a spans and/or trace and/or tile document"
        )
    events: list[dict[str, Any]] = []

    engine_offset_s = 0.0
    if spans_document is not None:
        validate_spans(spans_document)
        spans = spans_document["spans"]
        if spans:
            base = min(span["start_s"] for span in spans)
            lanes: dict[str, int] = {}
            for span in spans:
                lane = lanes.setdefault(span["correlation_id"], len(lanes) + 1)
                args = {
                    "correlation_id": span["correlation_id"],
                    "span_id": span["span_id"],
                    "parent_id": span["parent_id"],
                    "status": span["status"],
                    **to_jsonable(span.get("attributes", {})),
                }
                events.append(
                    {
                        "name": span["name"],
                        "cat": "request",
                        "ph": "X",
                        "ts": (span["start_s"] - base) * 1e6,
                        "dur": max(0.0, (span["end_s"] - span["start_s"]) * 1e6),
                        "pid": _PERFETTO_REQUEST_PID,
                        "tid": lane,
                        "args": args,
                    }
                )
                if span["name"] == "engine.run" and engine_offset_s == 0.0:
                    engine_offset_s = span["start_s"] - base
            events.append(_perfetto_meta(_PERFETTO_REQUEST_PID, "requests"))
            for correlation_id, lane in lanes.items():
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": _PERFETTO_REQUEST_PID,
                        "tid": lane,
                        "args": {"name": correlation_id},
                    }
                )

    if trace_document is not None:
        validate_trace(trace_document)
        cursor_s = engine_offset_s
        ipu_lanes: set[int] = set()
        inter_bytes_seen = False
        for event in trace_document["events"]:
            if event["kind"] != "superstep":
                continue
            duration_s = float(event.get("total_seconds", 0.0))
            args = {
                key: to_jsonable(value)
                for key, value in event.items()
                if key not in ("kind", "name")
            }
            events.append(
                {
                    "name": event["name"],
                    "cat": "superstep",
                    "ph": "X",
                    "ts": cursor_s * 1e6,
                    "dur": duration_s * 1e6,
                    "pid": _PERFETTO_ENGINE_PID,
                    "tid": 1,
                    "args": args,
                }
            )
            # Multi-IPU traces attribute each superstep to the chips it ran
            # on: mirror the slice into one lane per chip so per-IPU
            # occupancy reads directly off the timeline, and feed the
            # cross-chip byte counter.
            for chip in event.get("ipus", ()):
                lane = _PERFETTO_IPU_TID_BASE + int(chip)
                ipu_lanes.add(lane)
                events.append(
                    {
                        "name": event["name"],
                        "cat": "superstep",
                        "ph": "X",
                        "ts": cursor_s * 1e6,
                        "dur": duration_s * 1e6,
                        "pid": _PERFETTO_ENGINE_PID,
                        "tid": lane,
                        "args": {"ipu": int(chip)},
                    }
                )
            if "inter_ipu_bytes" in event:
                inter_bytes_seen = True
                events.append(
                    {
                        "name": "inter-IPU exchange bytes",
                        "ph": "C",
                        "ts": cursor_s * 1e6,
                        "pid": _PERFETTO_ENGINE_PID,
                        "args": {"bytes": int(event["inter_ipu_bytes"])},
                    }
                )
            cursor_s += duration_s
        if inter_bytes_seen:
            # Close the counter series at zero so the last value does not
            # extend past the end of the run.
            events.append(
                {
                    "name": "inter-IPU exchange bytes",
                    "ph": "C",
                    "ts": cursor_s * 1e6,
                    "pid": _PERFETTO_ENGINE_PID,
                    "args": {"bytes": 0},
                }
            )
        events.append(_perfetto_meta(_PERFETTO_ENGINE_PID, "engine (modeled)"))
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PERFETTO_ENGINE_PID,
                "tid": 1,
                "args": {"name": "BSP supersteps"},
            }
        )
        for lane in sorted(ipu_lanes):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PERFETTO_ENGINE_PID,
                    "tid": lane,
                    "args": {"name": f"IPU {lane - _PERFETTO_IPU_TID_BASE}"},
                }
            )

    if tile_document is not None:
        validate_tile_profile(tile_document)
        cursor_s = engine_offset_s
        for sample in tile_document["series"]:
            duration_s = float(sample["total_seconds"])
            straggler = int(sample["straggler_tile"])
            if straggler >= 0:
                events.append(
                    {
                        "name": f"tile {straggler}",
                        "cat": "straggler",
                        "ph": "X",
                        "ts": cursor_s * 1e6,
                        "dur": float(sample["compute_seconds"]) * 1e6,
                        "pid": _PERFETTO_ENGINE_PID,
                        "tid": 2,
                        "args": {
                            "superstep": sample["name"],
                            "max_tile_cycles": sample["max_tile_cycles"],
                            "mean_tile_cycles": sample["mean_tile_cycles"],
                            "imbalance": sample["imbalance"],
                        },
                    }
                )
                events.append(
                    {
                        "name": "tile imbalance",
                        "ph": "C",
                        "ts": cursor_s * 1e6,
                        "pid": _PERFETTO_ENGINE_PID,
                        "args": {"max_over_mean": float(sample["imbalance"])},
                    }
                )
            cursor_s += duration_s
        if trace_document is None:
            events.append(_perfetto_meta(_PERFETTO_ENGINE_PID, "engine (modeled)"))
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PERFETTO_ENGINE_PID,
                "tid": 2,
                "args": {"name": "straggler tiles"},
            }
        )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Benchmark run records
# ----------------------------------------------------------------------


def experiment_result_to_dict(result: "ExperimentResult") -> dict[str, Any]:
    """``repro.bench-run/1`` document for one experiment harness run."""
    from repro.bench.recording import environment_summary

    return {
        "schema": BENCH_SCHEMA,
        "experiment": result.experiment,
        "scale": result.scale,
        "environment": environment_summary(),
        "records": [
            {
                "experiment": record.experiment,
                "solver": record.solver,
                "params": to_jsonable(record.params),
                "device_time_s": record.device_time_s,
                "wall_time_s": record.wall_time_s,
                "extra": to_jsonable(record.extra),
            }
            for record in result.records
        ],
        "shape_notes": list(result.shape_notes),
    }


def write_bench_record(
    result: "ExperimentResult", directory: pathlib.Path | str
) -> pathlib.Path:
    """Write ``BENCH_<experiment>.json`` for ``result`` into ``directory``."""
    directory = pathlib.Path(directory)
    return write_json(
        directory / f"BENCH_{result.experiment}.json",
        experiment_result_to_dict(result),
    )


# ----------------------------------------------------------------------
# Validation: one schema table, one walker, named cross-field post-checks
# ----------------------------------------------------------------------


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class _Leaf:
    """A scalar that must pass ``test``."""

    def __init__(self, test: Callable[[Any], bool], expected: str) -> None:
        self.test = test
        self.expected = expected

    def check(self, value: Any, path: str) -> None:
        if not self.test(value):
            raise SchemaError(f"{path}: expected {self.expected}, got {value!r}")


class _OneOf:
    """A scalar drawn from a fixed vocabulary."""

    def __init__(self, values: tuple, noun: str) -> None:
        self.values = values
        self.noun = noun

    def check(self, value: Any, path: str) -> None:
        if value not in self.values:
            raise SchemaError(f"{path}: unknown {self.noun} {value!r}")


class _Opt:
    """Marks an :class:`_Obj` field as optional (checked only when present)."""

    def __init__(self, shape: Any) -> None:
        self.shape = shape


class _Obj:
    """An object: positional names are required keys; keyword names are
    required keys with a nested shape, or optional ones wrapped in
    :class:`_Opt`."""

    def __init__(self, *keys: str, **fields: Any) -> None:
        self.keys = keys + tuple(
            key for key, shape in fields.items() if not isinstance(shape, _Opt)
        )
        self.fields = {
            key: shape.shape if isinstance(shape, _Opt) else shape
            for key, shape in fields.items()
        }

    def check(self, value: Any, path: str) -> None:
        _require(isinstance(value, Mapping), path, "expected an object")
        for key in self.keys:
            _require(key in value, f"{path}.{key}", "missing required key")
        for key, shape in self.fields.items():
            if key in value:
                shape.check(value[key], f"{path}.{key}")


class _Map:
    """An object with free-form keys whose values share one shape."""

    def __init__(self, values: Any = None, *, nonempty: bool = False) -> None:
        self.values = values
        self.nonempty = nonempty

    def check(self, value: Any, path: str) -> None:
        _require(isinstance(value, Mapping), path, "expected an object")
        _require(
            bool(value) or not self.nonempty, path, "expected a non-empty object"
        )
        if self.values is not None:
            for name, item in value.items():
                self.values.check(item, f"{path}.{name}")


class _List:
    """A list whose rows share one shape."""

    def __init__(self, rows: Any = None, *, nonempty: bool = False) -> None:
        self.rows = rows
        self.nonempty = nonempty

    def check(self, value: Any, path: str) -> None:
        _require(isinstance(value, list), path, "expected a list")
        _require(bool(value) or not self.nonempty, path, "expected a non-empty list")
        if self.rows is not None:
            for index, row in enumerate(value):
                self.rows.check(row, f"{path}[{index}]")


_NUMBER = _Leaf(_is_number, "a number")
_POSITIVE_INT = _Leaf(
    lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v > 0,
    "a positive integer",
)
_COUNT = _Leaf(
    lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0,
    "a non-negative integer",
)


def _at_least_zero(what: str) -> _Leaf:
    return _Leaf(lambda v: _is_number(v) and v >= 0.0, f"a non-negative {what}")


#: Reject codes minted by the HTTP layer itself (the request never reached
#: the service, so they are not in ``repro.serve.request.REJECT_CODES``).
_WIRE_ONLY_REJECT_CODES = (
    "bad_json",
    "missing_deadline",
    "oversized",
    "body_too_large",
    "not_found",
    "bad_method",
)


def _profile_checks(document: Mapping[str, Any]) -> None:
    executions = sum(int(row["executions"]) for row in document["records"])
    _require(
        executions == int(document["supersteps"]),
        "profile.supersteps",
        f"record executions sum to {executions}, "
        f"header says {document['supersteps']}",
    )


def _trace_checks(document: Mapping[str, Any]) -> None:
    summary = document["summary"]
    supersteps = 0
    for index, event in enumerate(document["events"]):
        if event["kind"] == "superstep":
            supersteps += 1
            _SUPERSTEP_EVENT.check(event, f"trace.events[{index}]")
    _require(
        supersteps == int(summary["supersteps"]),
        "trace.summary.supersteps",
        f"{supersteps} superstep events, summary says {summary['supersteps']}",
    )
    if "profile" in document:
        validate_profile(document["profile"])
        _require(
            int(document["profile"]["supersteps"]) == int(summary["supersteps"]),
            "trace.profile.supersteps",
            "trace and embedded profile disagree on superstep count",
        )


def _check_checks(document: Mapping[str, Any]) -> None:
    any_error = False
    for index, report in enumerate(document["reports"]):
        errors = sum(
            1 for diagnostic in report["diagnostics"]
            if diagnostic["severity"] == "error"
        )
        _require(
            bool(report["ok"]) == (errors == 0),
            f"check.reports[{index}].ok",
            f"ok={report['ok']!r} but the report lists {errors} error(s)",
        )
        any_error = any_error or errors > 0
    _require(
        bool(document["ok"]) == (not any_error),
        "check.ok",
        "document ok flag disagrees with its reports",
    )


def _serve_checks(document: Mapping[str, Any]) -> None:
    """Nothing lost, and completed requests fully attributed."""
    requests = document["requests"]
    completed = int(requests["completed"])
    accounted = (
        completed + sum(requests["rejected"].values()) + int(requests["in_flight"])
    )
    _require(
        int(requests["submitted"]) == accounted,
        "serve.requests",
        f"submitted={requests['submitted']} but completed+rejected+in_flight"
        f"={accounted}; requests were lost or double-counted",
    )
    _require(
        int(requests["degraded"]) <= completed,
        "serve.requests.degraded",
        "more degraded requests than completed ones",
    )
    for block in ("backends", "tiers"):
        total = sum(document[block].values())
        _require(
            total == completed,
            f"serve.{block}",
            f"{block} account for {total} requests, completed says {completed}",
        )
    if "approx" in document:
        approx = document["approx"]
        _require(
            float(approx["mean_gap_bound"]) <= float(approx["max_gap_bound"]) + 1e-12,
            "serve.approx.mean_gap_bound",
            "mean gap bound exceeds the max gap bound",
        )
        tier_total = sum(
            int(block["responses"]) for block in approx["by_tier"].values()
        )
        _require(
            tier_total == int(approx["responses"]),
            "serve.approx.by_tier",
            f"per-tier responses sum to {tier_total}, "
            f"total says {approx['responses']}",
        )
        served = document["backends"].get("approx", 0)
        _require(
            int(approx["responses"]) == served,
            "serve.approx.responses",
            f"approx block reports {approx['responses']} responses but the "
            f"backends breakdown served {served}",
        )
    if "sessions" in document:
        _require(
            int(document["sessions"]["warm_solves"])
            <= int(document["sessions"]["hits"]),
            "serve.sessions.warm_solves",
            "more warm solves than seed hits",
        )


def _solve_request_checks(document: Mapping[str, Any]) -> None:
    costs = document["costs"]
    n = len(costs)
    for index, row in enumerate(costs):
        _require(
            isinstance(row, list) and len(row) == n,
            f"solve-request.costs[{index}]",
            f"expected a row of length {n} (square matrix)",
        )
        for value in row:
            _require(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value),
                f"solve-request.costs[{index}]",
                f"expected finite numbers, got {value!r}",
            )
    from repro.serve.request import QUALITY_TIERS

    tier = document.get("tier", "auto")
    _require(
        tier in QUALITY_TIERS,
        "solve-request.tier",
        f"unknown tier {tier!r}, expected one of {QUALITY_TIERS}",
    )


def _solve_response_checks(document: Mapping[str, Any]) -> None:
    if document["status"] == "completed":
        _COMPLETED_RESPONSE.check(document, "solve-response")
        return
    reject = document.get("reject")
    _require(
        isinstance(reject, Mapping) and "code" in reject,
        "solve-response.reject",
        "rejected responses must carry a typed reject object",
    )
    from repro.serve.request import REJECT_CODES

    _require(
        reject["code"] in REJECT_CODES + _WIRE_ONLY_REJECT_CODES,
        "solve-response.reject.code",
        f"unknown reject code {reject['code']!r}",
    )


def _stream_checks(document: Mapping[str, Any]) -> None:
    """Totals are the per-tick sums and every warm tick matched cold."""
    cold_total = 0
    warm_total = 0
    for index, tick in enumerate(document["ticks"]):
        path = f"stream.ticks[{index}]"
        _require(
            int(tick["saved"]) == tick["cold_supersteps"] - tick["warm_supersteps"],
            f"{path}.saved",
            "saved != cold_supersteps - warm_supersteps",
        )
        _require(
            tick["costs_equal"] is True,
            f"{path}.costs_equal",
            "warm result not bit-identical to the cold optimal cost",
        )
        _require(
            tick["scipy_optimal"] is True,
            f"{path}.scipy_optimal",
            "tick result disagreed with the scipy oracle",
        )
        cold_total += tick["cold_supersteps"]
        warm_total += tick["warm_supersteps"]
    totals = document["totals"]
    _require(
        int(totals["cold_supersteps"]) == cold_total
        and int(totals["warm_supersteps"]) == warm_total,
        "stream.totals",
        "totals disagree with the per-tick sums",
    )
    _require(
        int(totals["supersteps_saved"]) == cold_total - warm_total,
        "stream.totals.supersteps_saved",
        "supersteps_saved != cold - warm",
    )
    expected_fraction = (cold_total - warm_total) / cold_total
    _require(
        abs(float(totals["saved_fraction"]) - expected_fraction) < 1e-9,
        "stream.totals.saved_fraction",
        f"saved_fraction inconsistent (expected {expected_fraction})",
    )


def _multi_checks(document: Mapping[str, Any]) -> None:
    """Oracle-optimal rows, no cross-chip traffic on one chip, sorted sizes,
    and crossovers that name a row."""
    sizes_by_ipus: dict[int, list[int]] = {}
    for index, row in enumerate(document["rows"]):
        path = f"multi.rows[{index}]"
        _require(
            row["optimal"] is True,
            f"{path}.optimal",
            "row disagreed with the scipy oracle",
        )
        if row["ipus"] == 1:
            _require(
                int(row["inter_ipu_bytes"]) == 0 and int(row["inter_ipu_syncs"]) == 0,
                f"{path}.inter_ipu_bytes",
                "single-IPU rows cannot carry cross-chip traffic",
            )
        sizes_by_ipus.setdefault(row["ipus"], []).append(row["size"])
    for ipus, sizes in sizes_by_ipus.items():
        _require(
            sizes == sorted(set(sizes)),
            "multi.rows",
            f"sizes for ipus={ipus} must be strictly increasing",
        )
    for key, size in document["crossover"].items():
        path = f"multi.crossover[{key!r}]"
        ipus = int(key)
        _require(ipus in sizes_by_ipus, path, f"no rows for ipus={ipus}")
        _require(
            size is None or int(size) in sizes_by_ipus[ipus],
            path,
            f"crossover size {size} not among the rows for ipus={ipus}",
        )


def _spans_checks(document: Mapping[str, Any]) -> None:
    """Unique ids, parents present and in the child's request, end >= start."""
    seen: dict[Any, Mapping[str, Any]] = {}
    for index, span in enumerate(document["spans"]):
        path = f"spans.spans[{index}]"
        span_id = span["span_id"]
        _require(
            span_id not in seen, f"{path}.span_id", f"duplicate span id {span_id}"
        )
        seen[span_id] = span
        _require(
            float(span["end_s"]) >= float(span["start_s"]),
            f"{path}.end_s",
            f"span ends ({span['end_s']}) before it starts ({span['start_s']})",
        )
    for index, span in enumerate(document["spans"]):
        parent_id = span["parent_id"]
        if parent_id is None:
            continue
        path = f"spans.spans[{index}].parent_id"
        parent = seen.get(parent_id)
        _require(parent is not None, path, f"parent span {parent_id} not in document")
        _require(
            parent["correlation_id"] == span["correlation_id"],
            path,
            f"parent {parent_id} has correlation id "
            f"{parent['correlation_id']!r}, child has "
            f"{span['correlation_id']!r}",
        )


def _tile_checks(document: Mapping[str, Any]) -> None:
    """Tile cycles sum to the vertex total, per-tensor bytes sum exactly to
    each compute set's and the run's, and the series holds one compute
    entry per superstep (copies carry ``straggler_tile == -1``)."""
    total_tiles = int(document["total_tiles"])
    tiles = document["tiles"]
    _require(
        len(tiles) == int(document["tiles_used"]),
        "tile-profile.tiles_used",
        f"{len(tiles)} non-idle tiles listed, header says {document['tiles_used']}",
    )
    for index, row in enumerate(tiles):
        _require(
            0 <= int(row["tile"]) < total_tiles,
            f"tile-profile.tiles[{index}].tile",
            f"tile {row['tile']} out of range for {total_tiles} tiles",
        )
    cycle_sum = sum(float(row["cycles"]) for row in tiles)
    _require(
        math.isclose(
            cycle_sum, float(document["vertex_cycles"]), rel_tol=1e-9, abs_tol=1e-9
        ),
        "tile-profile.vertex_cycles",
        f"tile cycles sum to {cycle_sum}, header says {document['vertex_cycles']}",
    )
    totals_by_tensor: dict[str, int] = {}
    for index, stats in enumerate(document["compute_sets"]):
        per_tensor = stats["exchange_by_tensor"]
        attributed = sum(int(moved) for moved in per_tensor.values())
        _require(
            attributed == int(stats["exchange_bytes"]),
            f"tile-profile.compute_sets[{index}].exchange_by_tensor",
            f"per-tensor bytes sum to {attributed}, compute set moved "
            f"{stats['exchange_bytes']}",
        )
        for tensor, moved in per_tensor.items():
            totals_by_tensor[tensor] = totals_by_tensor.get(tensor, 0) + int(moved)
    _require(
        totals_by_tensor
        == {key: int(value) for key, value in document["exchange_by_tensor"].items()},
        "tile-profile.exchange_by_tensor",
        "run-level per-tensor bytes disagree with the per-compute-set sums",
    )
    compute_entries = sum(
        1 for sample in document["series"] if int(sample["straggler_tile"]) >= 0
    )
    supersteps = int(document["supersteps"])
    if int(document.get("series_truncated", 0)) > 0:
        _require(
            compute_entries <= supersteps,
            "tile-profile.series",
            f"{compute_entries} compute entries exceed the "
            f"{supersteps} compute supersteps",
        )
    else:
        _require(
            compute_entries == supersteps,
            "tile-profile.series",
            f"{compute_entries} compute entries for {supersteps} compute "
            f"supersteps (and the series is not truncated)",
        )
    if "heatmap" in document:
        heatmap = document["heatmap"]
        _require(
            int(heatmap["width"]) * int(heatmap["rows"]) >= total_tiles,
            "tile-profile.heatmap",
            "grid smaller than the tile count",
        )


def _perfetto_checks(document: Mapping[str, Any]) -> None:
    for index, event in enumerate(document["traceEvents"]):
        if event["ph"] == "X":
            _COMPLETE_EVENT.check(event, f"perfetto.traceEvents[{index}]")


_SUPERSTEP_EVENT = _Obj("name", "total_seconds")
_COMPLETED_RESPONSE = _Obj(
    "backend", "latency_s",
    assignment=_Leaf(
        lambda v: isinstance(v, list)
        and all(isinstance(col, int) for col in v)
        and sorted(v) == list(range(len(v))),
        "a permutation of 0..n-1",
    ),
    total_cost=_NUMBER,
    gap_bound=_Opt(_Leaf(
        lambda v: v is None or (_is_number(v) and v >= 0.0),
        "a non-negative number or null",
    )),
)
_COMPLETE_EVENT = _Obj(
    "pid", "tid", ts=_at_least_zero("timestamp"), dur=_at_least_zero("duration")
)

#: schema stamp -> (path label, shape, cross-field post-check or None).
_SCHEMAS: dict[str, tuple[str, _Obj, Callable[[Mapping[str, Any]], None] | None]] = {
    TRACE_SCHEMA: ("trace", _Obj(
        summary=_Obj(
            "supersteps", "step_seconds", "loops", "branches",
            tile_imbalance=_Obj("mean", "max"),
        ),
        events=_List(_Obj("seq", "kind")),
    ), _trace_checks),
    METRICS_SCHEMA: ("metrics", _Obj(metrics=_Map(_Obj(
        type=_OneOf(("counter", "gauge", "histogram"), "instrument type"),
    ))), None),
    PROFILE_SCHEMA: ("profile", _Obj(
        "supersteps", "host_io_seconds", "device_seconds",
        records=_List(_Obj(
            "name", "executions", "compute_seconds", "sync_seconds",
            "exchange_seconds", "exchange_bytes", "inter_ipu_bytes",
        )),
    ), _profile_checks),
    BENCH_SCHEMA: ("bench", _Obj(
        "experiment", "scale",
        records=_List(_Obj("experiment", "solver", "params", "wall_time_s")),
    ), None),
    CHECK_SCHEMA: ("check", _Obj("ok", reports=_List(_Obj(
        "label", "ok", "compute_sets_checked",
        diagnostics=_List(_Obj(
            "code", "message", severity=_OneOf(("error", "warning"), "severity"),
        )),
    ))), _check_checks),
    SERVE_SCHEMA: ("serve", _Obj(
        "meta",
        requests=_Obj(
            "submitted", "completed", "degraded", "in_flight",
            rejected=_Map(_COUNT),
        ),
        latency_seconds=_Obj("count", "p50", "p95", "p99"),
        backends=_Map(_COUNT),
        tiers=_Map(_COUNT),
        fallbacks=_Obj("engine_error", "deadline", "retries"),
        pool=_Obj("hits", "misses", "evictions", "resident_bytes", "shapes"),
        approx=_Opt(_Obj(
            responses=_COUNT,
            mean_gap_bound=_at_least_zero("gap bound"),
            max_gap_bound=_at_least_zero("gap bound"),
            by_tier=_Map(_Obj("mean_gap_bound", responses=_COUNT)),
        )),
        sessions=_Opt(_Obj(
            "capacity", "sessions", "hits", "misses", "warm_solves",
            "supersteps_saved",
        )),
    ), _serve_checks),
    SOLVE_REQUEST_SCHEMA: ("solve-request", _Obj(
        costs=_List(nonempty=True),
        deadline_s=_Leaf(
            lambda v: v is None or (_is_number(v) and math.isfinite(v) and v > 0),
            "a positive number or null",
        ),
        session_id=_Opt(_Leaf(
            lambda v: v is None or isinstance(v, str), "a string or null"
        )),
    ), _solve_request_checks),
    SOLVE_RESPONSE_SCHEMA: ("solve-response", _Obj(
        "request_id", "correlation_id",
        status=_OneOf(("completed", "rejected"), "status"),
    ), _solve_response_checks),
    STREAM_SCHEMA: ("stream", _Obj(
        meta=_Obj("size", "ticks", "drift_rows", "seed", "scale", "audit"),
        ticks=_List(_Obj(
            "tick", "changed_rows", "saved", "costs_equal", "scipy_optimal",
            mode=_OneOf(("warm", "cold"), "mode"),
            cold_supersteps=_POSITIVE_INT,
            warm_supersteps=_POSITIVE_INT,
        ), nonempty=True),
        totals=_Obj(
            "cold_supersteps", "warm_supersteps", "supersteps_saved",
            "saved_fraction",
        ),
    ), _stream_checks),
    MULTI_SCHEMA: ("multi", _Obj(
        meta=_Obj("scale", "chip_tiles", "ipus", "sizes"),
        rows=_List(_Obj(
            "supersteps", "device_seconds", "compute_seconds", "sync_seconds",
            "exchange_seconds", "inter_ipu_bytes", "inter_ipu_syncs",
            "inter_overhead_seconds", "optimal",
            ipus=_POSITIVE_INT,
            size=_POSITIVE_INT,
        ), nonempty=True),
        crossover=_Map(),
    ), _multi_checks),
    SPANS_SCHEMA: ("spans", _Obj("meta", spans=_List(_Obj(
        "span_id", "name", "correlation_id", "parent_id", "start_s", "end_s",
        status=_OneOf(SPAN_STATUSES, "status"),
    ))), _spans_checks),
    GOLDEN_SCHEMA: ("golden", _Obj(
        "instance", "total_cost", "augmentations",
        supersteps=_POSITIVE_INT, loops=_Map(), branches=_Map(),
    ), None),
    TILE_SCHEMA: ("tile-profile", _Obj(
        "total_tiles", "supersteps", "compute_cycles", "vertex_cycles",
        "tiles_used", "occupancy", "stragglers",
        tiles=_List(_Obj(
            "tile", "cycles", "active_supersteps", "straggler_supersteps",
        )),
        compute_sets=_List(_Obj(
            "name", "executions", "compute_cycles", "vertex_cycles",
            "tiles_in_use", "exchange_bytes", exchange_by_tensor=_Map(),
        )),
        exchange_by_tensor=_Map(),
        series=_List(_Obj(
            "name", "compute_seconds", "total_seconds", "max_tile_cycles",
            "mean_tile_cycles", "imbalance", "straggler_tile",
        )),
        heatmap=_Opt(_Obj("width", "rows", "total_tiles", "cycles")),
    ), _tile_checks),
    PERF_SCHEMA: ("perf", _Obj("meta", runs=_List(_Obj(
        "benchmark", "params",
        metrics=_Map(_NUMBER, nonempty=True),
        context=_Obj("git_rev", "timestamp", "scale", calibration_s=_Opt(_NUMBER)),
    ))), None),
}
_PERFETTO = _Obj(traceEvents=_List(_Obj("name", "ph")))


def _check(
    document: Any,
    label: str,
    shape: _Obj,
    post_check: Callable[[Mapping[str, Any]], None] | None,
    stamp: str | None,
) -> None:
    """Walk ``shape``, then run ``post_check``.

    Post-checks read fields the shape does not type (``int(...)`` of a
    string, a dict where a list belongs); any error that raises is turned
    into a :class:`SchemaError` here, so validating outside input never
    escapes as a ``TypeError`` or ``ValueError``.
    """
    _require(isinstance(document, Mapping), label, "expected an object")
    if stamp is not None:
        _require("schema" in document, f"{label}.schema", "missing required key")
        _require(
            document["schema"] == stamp,
            f"{label}.schema",
            f"expected {stamp!r}, got {document['schema']!r}",
        )
    shape.check(document, label)
    if post_check is None:
        return
    try:
        post_check(document)
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
        raise SchemaError(
            f"{label}: malformed document ({type(exc).__name__}: {exc})"
        ) from exc


def _validate(stamp: str, document: Mapping[str, Any]) -> None:
    label, shape, post_check = _SCHEMAS[stamp]
    _check(document, label, shape, post_check, stamp)


def validate_trace(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.trace/1`` document."""
    _validate(TRACE_SCHEMA, document)


def validate_profile(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.profile/1`` document."""
    _validate(PROFILE_SCHEMA, document)


def validate_bench_record(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.bench-run/1`` document."""
    _validate(BENCH_SCHEMA, document)


def validate_serve_stats(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.serve/1`` document (nothing lost, all attributed)."""
    _validate(SERVE_SCHEMA, document)


def validate_solve_request(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.solve-request/1`` wire document.

    ``deadline_s`` is a *required key* (explicitly ``null`` for no
    deadline): forcing clients to state their latency intent is what makes
    the deadline-aware routing honest.
    """
    _validate(SOLVE_REQUEST_SCHEMA, document)


def validate_solve_response(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.solve-response/1`` wire document."""
    _validate(SOLVE_RESPONSE_SCHEMA, document)


def validate_spans(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.spans/1`` document."""
    _validate(SPANS_SCHEMA, document)


def validate_tile_profile(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.tile-profile/1`` document."""
    _validate(TILE_SCHEMA, document)


def validate_perf_document(document: Mapping[str, Any]) -> None:
    """Validate a ``repro.perf/1`` trend-store document."""
    _validate(PERF_SCHEMA, document)


def validate_perfetto(document: Mapping[str, Any]) -> None:
    """Validate Chrome trace-event / Perfetto JSON.

    It carries no ``schema`` stamp, so :func:`validate_document` does not
    dispatch it: a ``traceEvents`` list whose members carry a phase, and
    whose ``"X"`` events carry non-negative microsecond timestamps.
    """
    _check(document, "perfetto", _PERFETTO, _perfetto_checks, None)


def validate_document(document: Mapping[str, Any]) -> str:
    """Dispatch on the ``schema`` stamp; returns the schema name."""
    _require(isinstance(document, Mapping), "document", "expected an object")
    _require("schema" in document, "document.schema", "missing required key")
    schema = document["schema"]
    _require(
        isinstance(schema, str) and schema in _SCHEMAS,
        "document.schema",
        f"unknown schema {schema!r}",
    )
    _validate(schema, document)
    return schema
