#!/usr/bin/env python
"""CI smoke: HTTP front-end over 2 worker processes, with crash recovery.

Boots the multi-process pool with crash injection on worker 0 (its first
engine run calls ``os._exit`` mid-request — a real process death), serves
a seeded open-loop workload over real HTTP, and asserts the supervisor's
contract end to end:

* zero lost requests — every submission terminated completed or typed;
* zero gap-aware scipy verification failures;
* the crashed worker was detected, its in-flight work re-dispatched, and
  the worker restarted (the pool is healthy again at the end);
* the pool's ``repro.serve/1`` stats document validates on every poll
  while load is running (requests mid-flight must still balance) and at
  the end.

Exit code 0 on success; any broken invariant raises.  Artifacts
(``serve-http-stats.json``) are written to the working directory.
"""

from __future__ import annotations

import json
import sys
import threading
from time import monotonic, sleep

from repro.obs.export import SchemaError, to_jsonable, validate_serve_stats
from repro.serve import (
    HttpFrontend,
    WorkerPool,
    generate_workload,
    run_http_load,
)


def main() -> int:
    pool = WorkerPool(
        workers=2,
        threads=2,
        verify=True,
        warm_sizes=(8, 9, 12),
        restart_backoff_s=0.05,
        fault_spec={"crashes_before_success": 1, "workers": [0]},
    )
    frontend = None
    try:
        pool.wait_ready()
        frontend = HttpFrontend(pool)
        print(f"serving on {frontend.url} — pids {pool.worker_pids()}")

        # Even-sized engine-tier shapes land on shard 0 = the crashing
        # worker; the rest keeps worker 1 busy so re-dispatch has a home.
        workload = generate_workload(
            60,
            seed=0,
            shapes=(8, 9, 12),
            tier_weights={"auto": 0.4, "ipu": 0.3, "fast": 0.15, "approx": 0.15},
            deadlines=((None, 0.8), (0.5, 0.2)),
        )
        # Poll the pool's stats while the load runs: each mid-run snapshot
        # must account for every request, including those in flight.
        load_done = threading.Event()
        polls = []
        failures = []

        def poll_stats() -> None:
            while not load_done.is_set():
                try:
                    validate_serve_stats(pool.stats_document())
                except SchemaError as exc:
                    failures.append(exc)
                    return
                polls.append(monotonic())
                sleep(0.01)

        poller = threading.Thread(target=poll_stats, daemon=True)
        poller.start()
        try:
            report = run_http_load(frontend.url, workload, rate=120.0, submitters=8)
        finally:
            load_done.set()
            poller.join()
        print(json.dumps(to_jsonable(report), indent=2))
        assert not failures, f"mid-run stats snapshot invalid: {failures[0]}"
        assert polls, "no stats poll completed while load was running"
        print(f"{len(polls)} mid-run stats snapshots schema-valid")

        assert report["lost"] == 0, f"lost requests: {report['lost']}"
        assert report["verify_failures"] == 0, (
            f"verification failures: {report['verify_failures']}"
        )
        assert report["completed"] > 0, "nothing completed"

        # The injected crash really happened and was recovered from.
        deadline = monotonic() + 60.0
        supervisor = pool.stats_document()["supervisor"]
        while monotonic() < deadline and not (
            supervisor["restarts"] >= 1 and pool.healthy()
        ):
            sleep(0.1)
            supervisor = pool.stats_document()["supervisor"]
        assert supervisor["restarts"] >= 1, (
            f"no worker restart recorded: {supervisor}"
        )
        assert pool.healthy(), "pool not healthy after recovery"
        print(
            f"recovered: restarts={supervisor['restarts']} "
            f"redispatched={supervisor['redispatched']}"
        )

        document = pool.stats_document()
        validate_serve_stats(document)
        with open("serve-http-stats.json", "w", encoding="utf-8") as handle:
            json.dump(to_jsonable(document), handle, indent=2)
        print("serve-http-stats.json written and schema-valid")
        return 0
    finally:
        if frontend is not None:
            frontend.close()
        pool.close()


if __name__ == "__main__":
    sys.exit(main())
