"""Serving workload: ``serve-http``.

One :class:`HttpFrontend` in front of a :class:`WorkerPool` with one
worker process, pre-warmed with every shape of the ``generate_workload``
mix, driven open loop from at most ``nproc`` client connections at a
fixed rate from ``spec.json`` (never recomputed from a capacity probe),
well below the stack's capacity.

The load driver here is the benchmark's own: every request is timed from
its due time, so a stall in the generator or the stack counts against the
requests it delays, and the generator's own lateness is reported.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
from time import perf_counter, sleep

import numpy as np

from library import solve_layer_metrics, timed_solves
from measure import (
    HostSampler,
    Outcome,
    answer_ok,
    first_half,
    import_seconds,
    record_setup,
    mean,
    optimum,
    pct,
    vm_hwm_mb,
)
from tracing import SpanRecorder, install, span_cost_s

#: Lead time between building the schedule and its first due time.
_LEAD_S = 0.05

#: Reject codes that are load shedding by design; any other reject fails.
_SHED_CODES = ("queue_full", "deadline_expired")


def _start_stack(const: dict, shapes: tuple[int, ...]):
    """Spawn the pool and front-end; returns ``(seconds, pool, frontend, client)``."""
    from repro.serve import HttpClient, HttpFrontend, WorkerPool

    started = perf_counter()
    pool = WorkerPool(
        workers=const["workers"], threads=const["threads"], warm_sizes=shapes
    )
    frontend = client = None
    try:
        pool.wait_ready()
        frontend = HttpFrontend(pool)
        client = HttpClient(frontend.url, timeout=const["drain_timeout_s"])
        status, _ = client.healthz()
        if status != 200:
            raise RuntimeError(f"front-end unhealthy: HTTP {status}")
    except BaseException:
        _stop_stack(pool, frontend)
        raise
    return perf_counter() - started, pool, frontend, client


def _stop_stack(pool, frontend) -> None:
    if frontend is not None:
        frontend.close()
    pool.close()


def _worker_counters(pool) -> dict[str, int]:
    """Summed batching and engine-pool counters of every worker."""
    totals = {"batches": 0, "coalesced": 0, "hits": 0, "misses": 0}
    shapes: set[int] = set()
    for document in pool.worker_stats().values():
        if not document:
            continue
        for key in ("batches", "coalesced"):
            totals[key] += int(document["batching"][key])
        for key in ("hits", "misses"):
            totals[key] += int(document["pool"][key])
        shapes |= {int(size) for size in document["pool"]["shapes"]}
    totals["shapes"] = shapes
    return totals


def _http_open_loop(client, bodies, offsets, connections: int) -> list:
    """Send ``bodies`` on schedule from ``connections`` threads.

    Returns one ``(due, sent, done, document)`` per request, ``document``
    None on a transport error.
    """
    records: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    start = perf_counter() + _LEAD_S

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            try:
                _, document = client.solve_raw(bodies[index])
            except (OSError, ValueError):
                document = None
            records[index] = (due, sent, perf_counter(), document)

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def run(name: str, seed: int, seconds: float, recorder: SpanRecorder | None, spec: dict) -> Outcome:
    from repro.batch.solver import choose_target
    from repro.obs.export import SOLVE_REQUEST_SCHEMA
    from repro.serve import generate_workload
    from repro.serve.loadgen import arrival_schedule
    from repro.serve.router import Router

    const = spec["constants"]["serve"]
    cal_ref = spec["constants"]["calibration_ms"] / 1e3
    rate = const["rate_rps"]
    slo_s = const["slo_ms"] / 1e3
    connections = max(1, min(const["connections"], os.cpu_count() or 1))
    shapes = tuple(const["shapes"])
    out = Outcome()

    # Inputs and reference optima first: neither is part of set-up.
    count = max(1, int(round(rate * seconds)))
    items = generate_workload(
        count,
        seed=seed,
        shapes=shapes,
        tier_weights={"auto": 1.0},
        deadlines=((slo_s, 1.0),),
    )
    matrices = [item.instance.costs for item in items]
    best = [optimum(costs) for costs in matrices]
    offsets = arrival_schedule(count, rate)
    bodies = [
        json.dumps(
            {
                "schema": SOLVE_REQUEST_SCHEMA,
                "costs": costs.tolist(),
                "tier": "auto",
                "deadline_s": slo_s,
            }
        ).encode()
        for costs in matrices
    ]
    rng = np.random.default_rng([seed, 1])
    warmups = [rng.random((size, size)) * 100.0 for size in shapes]

    # Most of set-up is the worker process starting, on either core, whose
    # speed this thread's calibration does not see; the stack start is
    # scaled like the imports, by the reference imports timed just before.
    constants = spec["constants"]
    imports, scales = import_seconds(
        "repro.serve", first_half(constants["import_repeats"]), constants
    )
    ready = []
    stack = None
    for _ in range(const["setup_repeats"]):
        if stack is not None:
            _stop_stack(stack[1], stack[2])
        stack = _start_stack(const, shapes)
        ready.append(stack[0] * statistics.median(scales))
    _, pool, frontend, client = stack

    try:
        # Untimed warm-up through the pool: one request per shape, so each
        # warm engine has run once and the latency estimator has seen
        # every shape.
        for costs in warmups:
            pool.solve(costs, tier="auto", deadline_s=None)
        before = _worker_counters(pool)
        if recorder is not None:
            install(recorder)
            recorder.clear()
        timed_from = perf_counter()
        try:
            with HostSampler() as sampler:
                records = _http_open_loop(client, bodies, offsets, connections)
        finally:
            if recorder is not None:
                recorder.uninstall()
        timed_wall = perf_counter() - timed_from
        after = _worker_counters(pool)
        supervisor = pool.stats_document()["supervisor"]
        peak_rss = vm_hwm_mb() + sum(
            vm_hwm_mb(pid) for pid in pool.worker_pids().values() if pid is not None
        )
    finally:
        _stop_stack(pool, frontend)
    later, later_scales = import_seconds(
        "repro.serve", constants["import_repeats"] // 2, constants
    )
    imports += later
    scales += later_scales
    record_setup(out, imports, ready, ", pool spawn to front-end healthy")

    # Verification, outside the timed phase.  Rates are per second of the
    # timed phase as it ran, first due time to last answer; latencies are
    # scaled to the reference host speed measured around each request.
    finished = [done for _, _, done, _ in records if done is not None]
    phase_s = max(finished, default=records[-1][0]) - records[0][0]
    completed, rejected, latencies, raw = [], {}, [], []
    in_slo = lost = 0
    for index, (due, sent, done, document) in enumerate(records):
        if document is None:
            lost += 1
            continue
        if document["status"] != "completed":
            code = document["reject"]["code"]
            rejected[code] = rejected.get(code, 0) + 1
            continue
        if not answer_ok(
            matrices[index],
            document["assignment"],
            document["total_cost"],
            best[index],
            document["gap_bound"],
        ):
            out.problems.append(f"request {index}: wrong answer from {document['backend']}")
            continue
        scale = sampler.scale(due, done, cal_ref)
        completed.append((index, due, sent, done, document, scale))
        raw.append(done - due)
        latencies.append((done - due) * scale)
        in_slo += done - due <= slo_s
    if lost:
        out.problems.append(f"{lost} requests got no answer")
    # Wrong, lost and refused-for-a-fault requests failed; load shedding
    # (queue_full, deadline_expired) counts only against ok_frac.
    out.attempted = count
    out.failed = count - len(completed) - sum(rejected.get(code, 0) for code in _SHED_CODES)

    out.e2e("solves_per_s", len(completed) / phase_s, "1/s", count)
    out.e2e("latency_p50_ms", pct(latencies, 50) * 1e3, "ms", len(latencies))
    out.e2e("latency_p90_ms", pct(latencies, 90) * 1e3, "ms", len(latencies))
    out.e2e("goodput_rps", in_slo / phase_s, "1/s", count)
    out.e2e("ok_frac", in_slo / count, "fraction", count)
    out.notes.append(
        f"raw wall: p50 {pct(raw, 50) * 1e3:.3f} ms, p90 {pct(raw, 90) * 1e3:.3f} ms;"
        f" host speed scale median"
        f" {statistics.median(c[-1] for c in completed) if completed else 0.0:.3f}"
        f" ({len(sampler.samples)} samples); reference-import scale median"
        f" {statistics.median(scales):.3f}"
    )

    # Modeled device time of the mix: an in-process replay of requests
    # (the worker's results carry no device time).  The same number of
    # requests of every shape, so that the mean does not follow the seed's
    # shape mix.
    from repro.core.solver import HunIPUSolver
    from repro.lap.problem import LAPInstance

    picked: dict[int, list[int]] = {}
    for index, costs in enumerate(matrices):
        slots = picked.setdefault(costs.shape[0], [])
        if len(slots) < const["replay_per_shape"]:
            slots.append(index)
    replay_index = sorted(index for slots in picked.values() for index in slots)
    replay = [LAPInstance(matrices[i], name=f"replay-{i}") for i in replay_index]
    replay_solver = HunIPUSolver()
    if recorder is not None:
        install(recorder)
    try:
        replayed = timed_solves(replay_solver.solve, replay, cal_ref)
    finally:
        if recorder is not None:
            recorder.uninstall()
    for record in replayed:
        index = replay_index[record.slot]
        if not answer_ok(matrices[index], record.fingerprint[-1], record.total_cost, best[index]):
            out.problems.append(f"replay of request {index}: wrong answer")
    again = timed_solves(replay_solver.solve, replay[:1], cal_ref)
    if again[0].fingerprint != replayed[0].fingerprint:
        out.problems.append("replay: device time or profiler counts changed on repeat")
    fingerprints = [record.fingerprint for record in replayed]
    out.e2e("device_ms", mean([fp[0] for fp in fingerprints]) * 1e3, "ms", len(fingerprints))
    out.e2e("peak_rss_mb", peak_rss, "MB", 1 + const["workers"])

    if recorder is None:
        return out

    # Each answered request as a span from due time to answer, under the
    # pool's request id, so it lines up with the pool spans of the request.
    for _, due, sent, done, document, _ in completed:
        recorder.add("loadgen.request", due, done, request=document["request_id"], sent=sent)
    solve_layer_metrics(out, recorder.spans, replayed, fingerprints)
    documents = [c[4] for c in completed]
    scales = {c[4]["request_id"]: c[-1] for c in completed}
    service = [d["service_s"] * scales[d["request_id"]] for d in documents]
    waits = [d["queue_wait_s"] * scales[d["request_id"]] for d in documents]
    approx = [
        (c[4]["total_cost"] - best[c[0]]) / best[c[0]]
        for c in completed
        if c[4]["gap_bound"] is not None
    ]
    engine_sizes = [
        matrices[c[0]].shape[0] for c in completed if c[4]["backend"] == "hunipu"
    ]
    pad_limit = Router().pad_limit
    padded = sum(
        1
        for size in engine_sizes
        if choose_target(size, cached=frozenset(after["shapes"]), pad_limit=pad_limit) != size
    )
    batches = after["batches"] - before["batches"]
    members = batches + after["coalesced"] - before["coalesced"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    out.layer("service.service_ms_p50", pct(service, 50) * 1e3, "ms", len(service))
    out.layer("service.queue_wait_p90_ms", pct(waits, 90) * 1e3, "ms", len(waits))
    out.layer("batch.size_mean", members / batches if batches else 0.0, "count", batches)
    out.layer(
        "batch.padded_frac",
        padded / len(engine_sizes) if engine_sizes else 0.0,
        "fraction",
        len(engine_sizes),
    )
    out.layer("service.reject_frac", sum(rejected.values()) / count, "fraction", count)
    for code in _SHED_CODES:
        out.layer(f"service.reject_frac.{code}", rejected.get(code, 0) / count, "fraction", count)
    out.layer("service.approx_frac", len(approx) / count, "fraction", count)
    out.layer("approx.gap_mean", mean(approx), "fraction", len(approx))
    out.layer("pool.hit_ratio", hits / lookups if lookups else 0.0, "fraction", lookups)
    out.layer("workers.redispatched", supervisor["redispatched"], "count", 1)
    out.layer(
        "loadgen.lag_p90_ms",
        pct([sent - due for due, sent, *_ in records], 90) * 1e3,
        "ms",
        count,
    )
    overhead = [
        (done - sent - d["latency_s"]) * scale for _, _, sent, done, d, scale in completed
    ]
    out.layer("http.overhead_ms_p50", pct(overhead, 50) * 1e3, "ms", len(overhead))
    ipc = _ipc_from_spans(recorder.spans, documents, scales)
    out.layer("workers.ipc_ms_p50", pct(ipc, 50) * 1e3, "ms", len(ipc))
    timed_spans = sum(1 for record in recorder.spans if record["name"].startswith("pool."))
    out.layer(
        "trace.overhead_frac",
        timed_spans * span_cost_s() / timed_wall,
        "fraction",
        timed_spans,
    )
    return out


def _ipc_from_spans(spans: list, documents: list, scales: dict) -> list[float]:
    """Pool ticket latency (submit call to response return) minus the
    worker-reported ``latency_s``, matched on the pool request id and
    scaled like the request's latency."""
    submitted: dict = {}
    answered: dict = {}
    for record in spans:
        if record["name"] == "pool.submit":
            submitted[record["request"]] = record["start"]
        elif record["name"] == "pool.response":
            answered[record["request"]] = record["end"]
    return [
        (answered[d["request_id"]] - submitted[d["request_id"]] - d["latency_s"])
        * scales[d["request_id"]]
        for d in documents
        if d["request_id"] in submitted and d["request_id"] in answered
    ]
