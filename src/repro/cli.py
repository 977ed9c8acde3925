"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the common workflows without writing any code:

* ``info`` — the simulated device specs and library version;
* ``solve`` — solve one synthetic instance with any solver and print the
  result + modeled device time; ``--trace out.json`` writes a
  schema-versioned event trace (HunIPU only); ``--batch FILE`` solves a
  whole stream of instances (``.npy`` / ``.npz`` / ``.json``) through
  :class:`repro.batch.BatchSolver` and prints per-group statistics;
* ``profile`` — solve one instance on HunIPU with full instrumentation and
  print the per-step BSP table, the modeled critical-path breakdown, and
  imbalance/convergence diagnostics; ``--tiles`` runs the deep (per-tile)
  profiler and prints straggler/occupancy attribution, ``--heatmap
  OUT.json`` writes the ``repro.tile-profile/1`` document with the dense
  per-tile cycle grid, and ``--json`` embeds the tile document alongside
  the trace and metrics;
* ``perf`` — the continuous perf-regression harness over the
  ``repro.perf/1`` trend store (``benchmarks/results/PERF_trends.json``):
  ``record`` appends fresh suite measurements (or ``--ingest``\\ s
  ``BENCH_*.json`` run records), ``compare`` re-measures and diffs against
  each benchmark's latest baseline with noise-aware budgets (exits
  non-zero on regression — the CI perf gate), ``report`` prints trends;
* ``trace`` — run one span-traced HunIPU solve and export the merged
  request-span + BSP-superstep timeline as Chrome trace-event / Perfetto
  JSON (``--perfetto out.json``); ``--convert TRACE.json`` converts an
  existing ``repro.trace/1`` document instead of solving;
* ``run`` — regenerate one (or all) of the paper's tables/figures at a
  chosen scale, printing the paper-layout report and optionally saving the
  text report and machine-readable ``BENCH_*.json`` run records;
* ``check`` — audit every graph the HunIPU solver builds (all six Munkres
  steps, compression on/off, the batch path) against the paper's four IPU
  constraints (C1 races, C2 tile memory, C3 balance, C4 dynamic ops) and
  optionally write a schema-versioned ``repro.check/1`` report; exits
  non-zero on any C1/C2 error, which is what the CI gate keys on;
* ``serve`` — boot the concurrent :class:`repro.serve.SolverService`, drive
  it with a seeded synthetic workload (mixed shapes/tiers/deadlines,
  optional fault injection), verify every response against scipy, and
  optionally write schema-versioned ``repro.serve/1`` stats (periodically,
  with ``--stats-interval``, for ``repro top`` to watch), a
  ``repro.spans/1`` span-tree document (``--spans``), and a Prometheus
  text-format metrics dump (``--prom``); exits non-zero if any request is
  lost or unverified, which is what the serve smoke CI job keys on;
* ``stats`` — Prometheus text-format (or JSON) exposition of a metrics
  registry: from a ``repro.metrics/1`` document (``--input``) or from a
  quick instrumented solve;
* ``top`` — live console over a ``repro.serve/1`` stats file: queue depth,
  per-tier throughput, reject reasons, and latency percentiles redrawn in
  place every ``--interval`` seconds;
* ``validate`` — run files through the schema-versioned document
  validators (:func:`repro.obs.export.validate_document`); the CI
  schema-lint job keys on its exit code.

Every command accepts ``--log-level`` / ``-v`` (logs go to stderr, so
stdout stays machine-readable).
"""

from __future__ import annotations

import argparse
import logging
import pathlib
import sys
from typing import Callable, Sequence

from repro import __version__

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)

_EXPERIMENTS = (
    "table1", "table2", "figure5", "table3", "ablations", "batch", "serve",
    "stream", "multi",
)
_SOLVERS = ("hunipu", "cpu", "fastha", "date-nagi", "lapjv", "scipy")
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _add_logging_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=None,
        help="logging verbosity (overrides -v)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v for info, -vv for debug logging",
    )


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=128, help="matrix size n")
    parser.add_argument(
        "--k", type=float, default=100, help="value-range multiplier (costs in [1, k*n])"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--distribution", choices=("gaussian", "uniform"), default="gaussian"
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HunIPU reproduction: Hungarian algorithm on a simulated IPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="show device specs and version")
    _add_logging_args(info)

    solve = sub.add_parser("solve", help="solve one synthetic LAP instance")
    _add_instance_args(solve)
    solve.add_argument("--solver", choices=_SOLVERS, default="hunipu")
    solve.add_argument(
        "--ipus",
        type=int,
        default=1,
        metavar="N",
        help="shard the solve across N simulated IPUs behind IPU-Links "
        "(hunipu solver only; n must be divisible by N to engage)",
    )
    solve.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="write a structured event trace (hunipu solver only)",
    )
    solve.add_argument(
        "--batch",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="solve a stream of instances from FILE (.npy/.npz/.json) "
        "through the batch engine instead of one synthetic instance",
    )
    _add_logging_args(solve)

    profile = sub.add_parser(
        "profile",
        help="solve one instance on HunIPU and print per-step diagnostics",
    )
    _add_instance_args(profile)
    profile.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="also write trace + profile + metrics as JSON",
    )
    profile.add_argument(
        "--tiles",
        action="store_true",
        help="deep profile: per-tile cycle attribution, stragglers, and "
        "occupancy (embedded in --json output when both are given)",
    )
    profile.add_argument(
        "--heatmap",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="write a repro.tile-profile/1 document with the dense per-tile "
        "cycle heatmap grid (implies --tiles)",
    )
    _add_logging_args(profile)

    perf = sub.add_parser(
        "perf",
        help="record and gate benchmark trends (repro.perf/1 store)",
    )
    perf.add_argument(
        "perf_action",
        choices=("record", "compare", "report"),
        metavar="ACTION",
        help="record: append fresh suite measurements to the store; "
        "compare: re-measure and diff against the latest baselines "
        "(exits non-zero on regression); report: print stored trends",
    )
    perf.add_argument(
        "--store",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results/PERF_trends.json"),
        metavar="FILE",
        help="trend store path (default: %(default)s)",
    )
    perf.add_argument(
        "--scale",
        choices=("quick", "default"),
        default="quick",
        help="suite shape for record/compare (default: %(default)s)",
    )
    perf.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="alternating timing rounds per benchmark (default: %(default)s)",
    )
    perf.add_argument(
        "--ingest",
        type=pathlib.Path,
        action="append",
        default=None,
        metavar="BENCH.json",
        help="(record) also ingest run records from a repro.bench/1 "
        "document; repeatable",
    )
    perf.add_argument(
        "--budget-ratio",
        type=float,
        default=None,
        metavar="RATIO",
        help="(compare) widen the noise-sensitive wall/throughput budgets "
        "to this max ratio (model/exact budgets stay tight)",
    )
    perf.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="(compare) multiply fresh wall metrics by FACTOR — a "
        "self-test hook; the gate must fail for FACTOR >= 2",
    )
    perf.add_argument(
        "--benchmark",
        default=None,
        metavar="NAME",
        help="(report) restrict the trend report to one benchmark",
    )
    _add_logging_args(perf)

    trace = sub.add_parser(
        "trace",
        help="span-trace one HunIPU solve and export a Perfetto timeline",
    )
    _add_instance_args(trace)
    trace.add_argument(
        "--perfetto",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="write the merged Chrome trace-event / Perfetto timeline",
    )
    trace.add_argument(
        "--spans",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="also write the raw repro.spans/1 span-tree document",
    )
    trace.add_argument(
        "--convert",
        type=pathlib.Path,
        default=None,
        metavar="TRACE.json",
        help="convert an existing repro.trace/1 document instead of solving",
    )
    _add_logging_args(trace)

    run = sub.add_parser("run", help="regenerate a paper table/figure")
    run.add_argument(
        "experiment", choices=_EXPERIMENTS + ("all",), help="which experiment"
    )
    run.add_argument(
        "--scale", choices=("quick", "default", "paper"), default="default"
    )
    run.add_argument(
        "--distribution",
        choices=("gaussian", "uniform"),
        default="gaussian",
        help="synthetic data distribution (table2 / figure5 only)",
    )
    run.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="directory to save the report text into",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="also save BENCH_<experiment>.json run records (needs --output)",
    )
    _add_logging_args(run)

    check = sub.add_parser(
        "check",
        help="audit the solver's graphs against the C1-C4 IPU constraints",
    )
    check.add_argument(
        "--size",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="matrix size to audit (repeatable; default: 8, 13, 32)",
    )
    check.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="write the repro.check/1 report document",
    )
    check.add_argument(
        "--headroom",
        type=float,
        default=0.0,
        help="fraction of tile SRAM held in reserve (C2 soft budget)",
    )
    check.add_argument(
        "--imbalance-threshold",
        type=float,
        default=2.0,
        help="max/mean static-work ratio before C3.IMBALANCE fires",
    )
    check.add_argument(
        "--no-batch",
        action="store_true",
        help="skip auditing the batch-solver path",
    )
    check.add_argument(
        "--strict-warnings",
        action="store_true",
        help="exit non-zero on lint warnings (C3/C4) too, not just errors",
    )
    _add_logging_args(check)

    serve = sub.add_parser(
        "serve",
        help="boot the solving service and drive it with synthetic load",
    )
    serve.add_argument(
        "--requests", type=int, default=200, help="workload size"
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument(
        "--max-batch", type=int, default=8, help="micro-batch coalescing ceiling"
    )
    serve.add_argument(
        "--shapes",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="matrix size in the workload mix (repeatable; default: a "
        "small/medium mix)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed loop (submit-on-completion) or open loop (fixed rate)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=100.0,
        help="open-loop arrival rate in requests/s",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="closed-loop client threads (default: 2x workers)",
    )
    serve.add_argument(
        "--inject-faults",
        type=float,
        default=0.0,
        metavar="RATE",
        help="seeded engine-fault probability per run (exercises the "
        "degradation ladder)",
    )
    serve.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="warm-pool idle memory budget (0 disables engine reuse)",
    )
    serve.add_argument(
        "--no-warm",
        action="store_true",
        help="skip pre-compiling the workload shapes before the run",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="re-check every completed response against the scipy optimum",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=None,
        nargs="?",
        const=256,
        metavar="CAPACITY",
        help="enable the warm-start session cache (LRU capacity; "
        "default 256 when the flag is given bare)",
    )
    serve.add_argument(
        "--session-streams",
        type=int,
        default=0,
        metavar="N",
        help="route every other workload item through one of N drifting-"
        "cost sessions (requires --sessions)",
    )
    serve.add_argument(
        "--session-drift-rows",
        type=int,
        default=2,
        metavar="K",
        help="rows re-drawn per session visit (with --session-streams)",
    )
    serve.add_argument(
        "--expect-fallbacks",
        action="store_true",
        help="exit non-zero unless the degradation path was exercised "
        "(use with --inject-faults)",
    )
    serve.add_argument(
        "--stats",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="write the schema-versioned repro.serve/1 stats document",
    )
    serve.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="S",
        help="rewrite --stats every S seconds during the run "
        "(what `repro top` watches)",
    )
    serve.add_argument(
        "--spans",
        type=pathlib.Path,
        default=None,
        metavar="OUT.json",
        help="trace every request and write the repro.spans/1 document",
    )
    serve.add_argument(
        "--prom",
        type=pathlib.Path,
        default=None,
        metavar="OUT.prom",
        help="write the service metrics in Prometheus text format",
    )
    serve.add_argument(
        "--http",
        nargs="?",
        const="127.0.0.1:0",
        default=None,
        metavar="HOST:PORT",
        help="serve over HTTP with a multi-process worker pool "
        "(--workers becomes the process count; port 0 picks a free one)",
    )
    serve.add_argument(
        "--worker-threads",
        type=int,
        default=2,
        metavar="N",
        help="service threads inside each worker process (with --http)",
    )
    serve.add_argument(
        "--forever",
        action="store_true",
        help="with --http: serve until interrupted instead of driving a "
        "synthetic workload",
    )
    serve.add_argument(
        "--approx-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="bidding-order seed of the approximate (auction) tier",
    )
    serve.add_argument(
        "--crash-faults",
        type=float,
        default=0.0,
        metavar="RATE",
        help="with --http: seeded probability that an engine run kills its "
        "worker process (exercises supervisor re-dispatch/restart)",
    )
    _add_logging_args(serve)

    stats = sub.add_parser(
        "stats",
        help="expose a metrics registry in Prometheus text format",
    )
    stats.add_argument(
        "--input",
        type=pathlib.Path,
        default=None,
        metavar="METRICS.json",
        help="a repro.metrics/1 document to expose (default: run a quick "
        "instrumented solve and expose its registry)",
    )
    stats.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format (default: prom)",
    )
    stats.add_argument(
        "--size", type=int, default=32, help="solve size when no --input"
    )
    stats.add_argument("--seed", type=int, default=0)
    _add_logging_args(stats)

    top = sub.add_parser(
        "top",
        help="live console over a repro.serve/1 stats file",
    )
    top.add_argument(
        "stats_file",
        type=pathlib.Path,
        help="stats document to watch (see `repro serve --stats-interval`)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N redraws (default: run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    _add_logging_args(top)

    validate = sub.add_parser(
        "validate",
        help="validate schema-versioned JSON documents (CI schema lint)",
    )
    validate.add_argument(
        "files",
        type=pathlib.Path,
        nargs="+",
        help="documents to run through validate_document",
    )
    _add_logging_args(validate)
    return parser


def _cmd_info() -> int:
    from repro.gpu.spec import GPUSpec
    from repro.ipu.spec import IPUSpec

    ipu = IPUSpec.mk2()
    gpu = GPUSpec.a100()
    print(f"repro {__version__} — HunIPU reproduction (ICDE 2024)")
    print(
        f"IPU  : Colossus Mk2 GC200 — {ipu.num_tiles} tiles x "
        f"{ipu.threads_per_tile} threads, {ipu.tile_memory_bytes // 1024} KiB "
        f"SRAM/tile, {ipu.clock_hz / 1e9:.3f} GHz, "
        f"{ipu.exchange_bandwidth_bytes_per_s / 1e12:.0f} TB/s exchange"
    )
    print(
        f"GPU  : {gpu.name} — {gpu.sm_count} SMs, "
        f"{gpu.global_bandwidth_bytes_per_s / 1e12:.3f} TB/s HBM, "
        f"{gpu.kernel_launch_s * 1e6:.0f} us/launch"
    )
    print("CPU  : AMD EPYC 7742 (2.25 GHz, serial cost model)")
    return 0


def _make_solver(name: str, **kwargs):
    from repro.baselines import (
        CPUHungarianSolver,
        DateNagiSolver,
        FastHASolver,
        LAPJVSolver,
        ScipySolver,
    )
    from repro.core import HunIPUSolver

    factories: dict[str, Callable] = {
        "hunipu": HunIPUSolver,
        "cpu": CPUHungarianSolver,
        "fastha": FastHASolver,
        "date-nagi": DateNagiSolver,
        "lapjv": LAPJVSolver,
        "scipy": ScipySolver,
    }
    return factories[name](**kwargs)


def _generate_instance(args: argparse.Namespace):
    from repro.data.synthetic import gaussian_instance, uniform_instance

    generate = gaussian_instance if args.distribution == "gaussian" else uniform_instance
    return generate(args.size, args.k, seed=args.seed)


def _cmd_solve_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchSolver, load_batch_file

    instances = load_batch_file(args.batch)
    solver = _make_solver(args.solver)
    batch = BatchSolver(solver).solve_batch(instances)
    print(f"batch file    : {args.batch}")
    print(f"solver        : {args.solver}")
    print(f"instances     : {batch.instances} in {len(batch.groups)} group(s)")
    for group in batch.groups:
        cache = "cache hit" if group.compile_cache_hit else "compiled"
        print(
            f"  group n={group.size:<5d}: {group.instances} instance(s), "
            f"{group.padded} padded, {cache}, "
            f"run {group.run_seconds:.4f} s"
        )
    for instance, result in zip(instances, batch.results):
        print(f"  {instance.name}: cost {result.total_cost:.6g}")
    if batch.device_seconds > 0:
        print(f"device time   : {batch.device_seconds * 1e3:.4f} ms (modeled)")
    print(f"wall time     : {batch.wall_seconds:.4f} s (simulation)")
    print(f"throughput    : {batch.instances_per_second:.1f} instances/s")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, trace_to_dict, write_json

    if args.batch is not None:
        if args.trace is not None:
            print(
                "error: --trace records a single solve and cannot be "
                "combined with --batch",
                file=sys.stderr,
            )
            return 2
        return _cmd_solve_batch(args)
    if args.trace is not None and args.solver != "hunipu":
        print(
            f"error: --trace instruments the simulated IPU and needs "
            f"--solver hunipu (got {args.solver!r})",
            file=sys.stderr,
        )
        return 2
    ipus = getattr(args, "ipus", 1)
    if ipus < 1:
        print(f"error: --ipus must be >= 1 (got {ipus})", file=sys.stderr)
        return 2
    if ipus > 1 and args.solver != "hunipu":
        print(
            f"error: --ipus shards the simulated IPU solver and needs "
            f"--solver hunipu (got {args.solver!r})",
            file=sys.stderr,
        )
        return 2

    instance = _generate_instance(args)
    tracer = Tracer() if args.trace is not None else None
    solver_kwargs = {"tracer": tracer} if tracer is not None else {}
    if ipus > 1:
        from repro.ipu import ClusterSpec

        solver_kwargs["spec"] = ClusterSpec.m2000(num_ipus=ipus).system()
    solver = _make_solver(args.solver, **solver_kwargs)
    if args.solver == "fastha" and not instance.is_power_of_two:
        result = solver.solve_padded(instance)
    else:
        result = solver.solve(instance)
    print(f"instance      : {instance.name} ({args.distribution})")
    print(f"seed          : {args.seed}")
    print(f"solver        : {result.solver}")
    print(f"optimal cost  : {result.total_cost:.6g}")
    if result.device_time_s is not None:
        print(f"device time   : {result.device_time_s * 1e3:.4f} ms (modeled)")
    print(f"wall time     : {result.wall_time_s:.4f} s (simulation)")
    if result.iterations:
        print(f"iterations    : {result.iterations}")
    if tracer is not None:
        report = result.stats.get("profile")
        path = write_json(
            args.trace,
            trace_to_dict(
                tracer,
                report,
                meta={
                    "instance": instance.name,
                    "distribution": args.distribution,
                    "size": args.size,
                    "seed": args.seed,
                    "solver": result.solver,
                },
            ),
        )
        print(f"trace written : {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core import HunIPUSolver
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        metrics_to_dict,
        trace_to_dict,
        write_json,
    )
    from repro.obs.export import tile_profile_to_dict, validate_document

    profile_tiles = args.tiles or args.heatmap is not None
    instance = _generate_instance(args)
    tracer = Tracer()
    metrics = MetricsRegistry()
    solver = HunIPUSolver(
        tracer=tracer, metrics=metrics, profile_tiles=profile_tiles
    )
    result = solver.solve(instance)
    report = result.stats["profile"]
    summary = tracer.summary()

    print(f"instance      : {instance.name} ({args.distribution}, seed={args.seed})")
    print(f"optimal cost  : {result.total_cost:.6g}")
    print()
    print(report.format_table())
    print()
    print(report.format_critical_path())
    print()
    if profile_tiles and report.tiles is not None:
        print(report.tiles.format_table())
        print()
    imbalance = summary["tile_imbalance"]
    loops = summary["loops"]
    print("diagnostics")
    print(f"  supersteps          : {report.supersteps}")
    print(f"  device time         : {report.device_seconds * 1e3:.4f} ms (modeled)")
    print(f"  exchange volume     : {report.exchange_bytes} bytes")
    print(
        f"  tile imbalance      : {imbalance['mean']:.3f} mean, "
        f"{imbalance['max']:.3f} worst (max/mean cycles per superstep)"
    )
    print(f"  augmentations       : {result.stats['augmentations']}")
    print(f"  slack updates       : {result.stats['slack_updates']}")
    print(f"  primes              : {result.stats['primes']}")
    path_loop = loops.get("path_active")
    if path_loop:
        print(
            f"  augmenting paths    : mean length "
            f"{path_loop['mean_iterations']:.1f}, max {path_loop['max_iterations']}"
        )
    inner_loop = loops.get("inner_cond")
    if inner_loop:
        print(
            f"  step-4 search loop  : {inner_loop['entries']} entries, "
            f"mean {inner_loop['mean_iterations']:.1f} iterations"
        )
    meta = {
        "instance": instance.name,
        "distribution": args.distribution,
        "size": args.size,
        "seed": args.seed,
        "solver": result.solver,
    }
    tile_document = None
    if profile_tiles and report.tiles is not None:
        tile_document = tile_profile_to_dict(
            report.tiles, meta=meta, include_heatmap=args.heatmap is not None
        )
        validate_document(tile_document)
    if args.heatmap is not None and tile_document is not None:
        path = write_json(args.heatmap, tile_document)
        print(f"\ntile heatmap written : {path}")
    if args.json is not None:
        document = trace_to_dict(tracer, report, meta=meta)
        document["metrics"] = metrics_to_dict(metrics)["metrics"]
        if tile_document is not None:
            document["tiles"] = tile_document
        path = write_json(args.json, document)
        print(f"\nprofile JSON written : {path}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json

    from repro.obs.perf import (
        PerfStore,
        budgets_with_ratio,
        compare_runs,
        format_report,
        format_trend,
        run_suite,
        runs_from_bench_document,
    )

    store = PerfStore(args.store)

    if args.perf_action == "report":
        if not store.runs:
            print(f"no runs recorded in {store.path}")
            return 0
        print(format_trend(store, args.benchmark))
        return 0

    if args.perf_action == "record":
        runs = run_suite(args.scale, args.rounds)
        for bench_path in args.ingest or ():
            document = json.loads(bench_path.read_text())
            runs.extend(runs_from_bench_document(document, rounds=args.rounds))
        added = store.append(runs)
        path = store.save()
        print(f"recorded {added} run(s) to {path}")
        for run in runs:
            metrics = run["metrics"]
            print(
                f"  {run['benchmark']:<22} wall "
                f"{metrics['wall_seconds'] * 1e3:.3f} ms"
                + (
                    f", device {metrics['device_seconds'] * 1e3:.4f} ms"
                    if "device_seconds" in metrics
                    else ""
                )
            )
        return 0

    assert args.perf_action == "compare"
    budgets = (
        budgets_with_ratio(args.budget_ratio)
        if args.budget_ratio is not None
        else None
    )
    fresh = run_suite(args.scale, args.rounds)
    report = compare_runs(
        store, fresh, budgets, inject_slowdown=args.inject_slowdown
    )
    print(f"comparing against baselines in {store.path}")
    if args.inject_slowdown != 1.0:
        print(f"(self-test: fresh wall metrics slowed {args.inject_slowdown}x)")
    print(format_report(report))
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        SpanCollector,
        Tracer,
        perfetto_from_documents,
        spans_to_dict,
        trace_to_dict,
        validate_document,
        validate_perfetto,
        write_json,
    )

    if args.perfetto is None and args.spans is None:
        print(
            "error: nothing to write — pass --perfetto OUT.json (and/or "
            "--spans OUT.json)",
            file=sys.stderr,
        )
        return 2

    if args.convert is not None:
        if args.spans is not None:
            print(
                "error: --convert re-exports an existing trace document; "
                "it records no spans (--spans needs a live solve)",
                file=sys.stderr,
            )
            return 2
        trace_document = json.loads(args.convert.read_text())
        validate_document(trace_document)
        perfetto = perfetto_from_documents(trace_document=trace_document)
        validate_perfetto(perfetto)
        path = write_json(args.perfetto, perfetto)
        print(f"converted     : {args.convert}")
        print(f"events        : {len(perfetto['traceEvents'])}")
        print(f"perfetto written : {path}")
        print("load at https://ui.perfetto.dev or chrome://tracing")
        return 0

    from repro.core import HunIPUSolver

    instance = _generate_instance(args)
    spans = SpanCollector()
    tracer = Tracer()
    solver = HunIPUSolver(tracer=tracer)
    correlation_id = "req-000000"
    with spans.span(
        "request",
        correlation_id=correlation_id,
        root=True,
        size=args.size,
        seed=args.seed,
    ) as root:
        result = solver.solve(instance)
        root.set(cost=result.total_cost)
    report = result.stats.get("profile")
    meta = {
        "instance": instance.name,
        "distribution": args.distribution,
        "size": args.size,
        "seed": args.seed,
        "solver": result.solver,
    }
    spans_document = spans_to_dict(spans, meta=meta)
    trace_document = trace_to_dict(tracer, report, meta=meta)
    validate_document(spans_document)
    validate_document(trace_document)

    print(f"instance      : {instance.name} ({args.distribution}, seed={args.seed})")
    print(f"optimal cost  : {result.total_cost:.6g}")
    print(f"spans         : {len(spans)} ({correlation_id})")
    if report is not None:
        print(f"supersteps    : {report.supersteps}")
    if args.spans is not None:
        path = write_json(args.spans, spans_document)
        print(f"spans written : {path}")
    if args.perfetto is not None:
        perfetto = perfetto_from_documents(
            spans_document=spans_document, trace_document=trace_document
        )
        validate_perfetto(perfetto)
        path = write_json(args.perfetto, perfetto)
        print(f"perfetto written : {path}")
        print("load at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        METRICS_SCHEMA,
        MetricsRegistry,
        metrics_to_dict,
        snapshot_to_prometheus_text,
        validate_document,
    )

    if args.input is not None:
        document = json.loads(args.input.read_text())
        if document.get("schema") != METRICS_SCHEMA:
            print(
                f"error: {args.input} is {document.get('schema')!r}, "
                f"expected {METRICS_SCHEMA!r}",
                file=sys.stderr,
            )
            return 2
        validate_document(document)
        snapshot = document["metrics"]
    else:
        from repro.core import HunIPUSolver
        from repro.data.synthetic import gaussian_instance

        registry = MetricsRegistry()
        instance = gaussian_instance(args.size, 100, seed=args.seed)
        HunIPUSolver(metrics=registry).solve(instance)
        document = metrics_to_dict(registry)
        snapshot = document["metrics"]
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        sys.stdout.write(snapshot_to_prometheus_text(snapshot))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.console import run_top

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    iterations = 1 if args.once else args.iterations
    return run_top(
        str(args.stats_file), interval=args.interval, iterations=iterations
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    import json

    from repro.obs import SchemaError, validate_document, validate_perfetto

    failures = 0
    for path in args.files:
        try:
            document = json.loads(path.read_text())
            if isinstance(document, dict) and "traceEvents" in document:
                # Chrome trace-event / Perfetto output carries no repro
                # schema stamp; check it against the trace-event shape.
                validate_perfetto(document)
                label = "trace-event"
            else:
                validate_document(document)
                label = document.get("schema")
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, SchemaError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"OK   {path} ({label})")
    if failures:
        print(f"{failures} document(s) failed validation", file=sys.stderr)
    return 0 if failures == 0 else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench import (
        run_ablations,
        run_batch_bench,
        run_figure5,
        run_multi_bench,
        run_serve_bench,
        run_stream_bench,
        run_table1,
        run_table2,
        run_table3,
    )
    from repro.bench.recording import BenchScale, save_bench_json

    if args.json and args.output is None:
        print("error: --json needs --output DIR to know where to write",
              file=sys.stderr)
        return 2

    scale = BenchScale.named(args.scale)
    runners: dict[str, Callable] = {
        "table1": lambda: run_table1(scale),
        "table2": lambda: run_table2(scale, distribution=args.distribution),
        "figure5": lambda: run_figure5(scale, distribution=args.distribution),
        "table3": lambda: run_table3(scale),
        "ablations": lambda: run_ablations(scale),
        "batch": lambda: run_batch_bench(scale),
        "serve": lambda: run_serve_bench(scale),
        "stream": lambda: run_stream_bench(scale),
        "multi": lambda: run_multi_bench(scale),
    }
    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    written: list[pathlib.Path] = []
    for name in names:
        logger.info("running experiment %s at scale %s", name, scale.name)
        result = runners[name]()
        text = result.format()
        print(text)
        print()
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            path = args.output / f"{name}.txt"
            path.write_text(text + "\n")
            written.append(path)
            if args.json:
                written.append(save_bench_json(result, args.output))
    if written:
        print("results written to:")
        for path in written:
            print(f"  {path}")
    else:
        print("results not saved (pass --output DIR to keep them)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CheckConfig, check_document
    from repro.check.audit import DEFAULT_AUDIT_SIZES, audit_solver
    from repro.obs import validate_document, write_json

    sizes = tuple(args.size) if args.size else DEFAULT_AUDIT_SIZES
    config = CheckConfig(
        memory_headroom=args.headroom,
        imbalance_threshold=args.imbalance_threshold,
    )
    entries = audit_solver(
        sizes, config=config, include_batch=not args.no_batch
    )
    failed = 0
    for entry in entries:
        report = entry.report
        if report.clean:
            verdict = "OK"
        elif report.ok:
            verdict = f"OK ({len(report.warnings)} warning(s))"
        else:
            verdict = "FAIL"
        print(f"{verdict:<20s} {entry.label}")
        for diagnostic in report.diagnostics:
            print(f"    {diagnostic.format()}")
        if not report.ok or (args.strict_warnings and report.warnings):
            failed += 1
    print(
        f"\nchecked {len(entries)} graph(s) over sizes "
        f"{', '.join(str(size) for size in sizes)}: "
        + ("all constraints hold" if failed == 0 else f"{failed} graph(s) failed")
    )
    if args.json is not None:
        document = check_document(
            {entry.label: entry.report for entry in entries},
            meta={
                "sizes": list(sizes),
                "memory_headroom": args.headroom,
                "imbalance_threshold": args.imbalance_threshold,
                "batch_path": not args.no_batch,
            },
        )
        validate_document(document)
        path = write_json(args.json, document)
        print(f"report written : {path}")
    return 0 if failed == 0 else 1


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """``repro serve --http``: the multi-process HTTP serving mode."""
    import time

    from repro.obs import validate_document, write_json
    from repro.serve import HttpFrontend, WorkerPool, generate_workload
    from repro.serve.loadgen import DEFAULT_SHAPES, run_http_load

    host, _, port_text = args.http.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --http expects HOST:PORT, got {args.http!r}",
            file=sys.stderr,
        )
        return 2
    shapes = tuple(args.shapes) if args.shapes else DEFAULT_SHAPES
    fault_spec = None
    if args.inject_faults > 0 or args.crash_faults > 0:
        fault_spec = {
            "failure_rate": args.inject_faults,
            "crash_rate": args.crash_faults,
            "seed": args.seed,
        }
    pool = WorkerPool(
        workers=args.workers,
        threads=args.worker_threads,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        verify=args.verify,
        warm_sizes=() if args.no_warm else tuple(sorted(set(shapes))),
        fault_spec=fault_spec,
        approx_seed=args.approx_seed,
    )
    try:
        pool.wait_ready()
        frontend = HttpFrontend(pool, host=host, port=int(port_text))
    except Exception:
        pool.close()
        raise
    meta = {"seed": args.seed, "transport": "http", "shapes": sorted(set(shapes))}
    try:
        print(
            f"http serving  : {frontend.url} "
            f"({args.workers} worker processes x {args.worker_threads} threads)"
        )
        if args.forever:
            print("endpoints     : /solve /healthz /metrics /stats  (Ctrl-C stops)")
            try:
                while True:
                    time.sleep(1.0)
                    if args.stats is not None and args.stats_interval:
                        write_json(args.stats, pool.stats_document(meta))
            except KeyboardInterrupt:
                print("interrupted; shutting down")
            return 0
        workload = generate_workload(
            args.requests,
            seed=args.seed,
            shapes=shapes,
            tier_weights={"auto": 0.5, "ipu": 0.2, "fast": 0.15, "approx": 0.15},
        )
        report = run_http_load(
            frontend.url, workload, rate=args.rate, verify=args.verify
        )
        document = pool.stats_document(meta)
        validate_document(document)
        print(
            f"completed     : {report['completed']}/{report['submitted']} "
            f"({report['achieved_rps']:.1f} req/s achieved of "
            f"{report['offered_rps']:.1f} offered)"
        )
        print(
            f"rejected      : {sum(report['rejected'].values())} "
            f"{report['rejected']}  shed rate {report['shed_rate']:.3f}"
        )
        latency = report["latency_seconds"]
        print(
            f"latency       : p50 {latency['p50'] * 1e3:.2f} ms, "
            f"p99 {latency['p99'] * 1e3:.2f} ms"
        )
        for tier, gap in report["gap_by_tier"].items():
            print(
                f"gap[{tier:<6}]   : {gap['responses']} responses, "
                f"mean {gap['mean_gap_bound']:.3g}, max {gap['max_gap_bound']:.3g}"
            )
        supervisor = document["supervisor"]
        print(
            f"supervisor    : restarts {supervisor['restarts']}, "
            f"redispatched {supervisor['redispatched']}"
        )
        if args.stats is not None:
            path = write_json(args.stats, document)
            print(f"stats written : {path}")
        if args.prom is not None:
            args.prom.parent.mkdir(parents=True, exist_ok=True)
            args.prom.write_text(pool.prometheus_text())
            print(f"prom written  : {args.prom}")
        failures = []
        if report["lost"] > 0:
            failures.append(f"{report['lost']} request(s) lost without a reply")
        if report["verify_failures"] > 0:
            failures.append(
                f"{report['verify_failures']} response(s) failed verification"
            )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 0 if not failures else 1
    finally:
        frontend.close()
        pool.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.obs import (
        NULL_SPANS,
        SpanCollector,
        spans_to_dict,
        validate_document,
        write_json,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import (
        SessionStore,
        SolverService,
        WarmEnginePool,
        flaky_factory,
        generate_workload,
        run_load,
    )
    from repro.serve.loadgen import DEFAULT_SHAPES

    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.inject_faults <= 1.0:
        print("error: --inject-faults must be in [0, 1]", file=sys.stderr)
        return 2
    if not 0.0 <= args.crash_faults <= 1.0:
        print("error: --crash-faults must be in [0, 1]", file=sys.stderr)
        return 2
    if args.http is not None:
        return _cmd_serve_http(args)
    if args.forever:
        print("error: --forever requires --http", file=sys.stderr)
        return 2
    if args.crash_faults > 0:
        print("error: --crash-faults requires --http", file=sys.stderr)
        return 2
    if args.stats_interval is not None and args.stats_interval <= 0:
        print("error: --stats-interval must be positive", file=sys.stderr)
        return 2
    if args.stats_interval is not None and args.stats is None:
        print(
            "error: --stats-interval needs --stats OUT.json to know where "
            "to write",
            file=sys.stderr,
        )
        return 2
    if args.sessions is not None and args.sessions < 1:
        print("error: --sessions capacity must be >= 1", file=sys.stderr)
        return 2
    if args.session_streams > 0 and args.sessions is None:
        print(
            "error: --session-streams needs --sessions to enable the "
            "warm-start cache",
            file=sys.stderr,
        )
        return 2

    shapes = tuple(args.shapes) if args.shapes else DEFAULT_SHAPES
    metrics = MetricsRegistry()
    spans = SpanCollector() if args.spans is not None else NULL_SPANS
    factory = (
        flaky_factory(args.inject_faults, seed=args.seed)
        if args.inject_faults > 0
        else None
    )
    pool_kwargs = {"metrics": metrics}
    if args.memory_budget is not None:
        pool_kwargs["memory_budget_bytes"] = args.memory_budget
    pool = WarmEnginePool(factory, **pool_kwargs)
    if not args.no_warm:
        pool.warm(sorted(set(shapes)))
    sessions = (
        SessionStore(capacity=args.sessions, metrics=metrics)
        if args.sessions is not None
        else None
    )
    service = SolverService(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        pool=pool,
        metrics=metrics,
        spans=spans,
        sessions=sessions,
        approx_seed=args.approx_seed,
    )
    serve_meta = {
        "seed": args.seed, "mode": args.mode, "shapes": sorted(set(shapes))
    }
    stop_writer = threading.Event()

    def _write_stats_loop() -> None:
        # Periodic rewrite of the stats document so `repro top` (or any
        # other poller) can watch the run live.
        while not stop_writer.wait(args.stats_interval):
            try:
                write_json(args.stats, service.stats_document(meta=serve_meta))
            except OSError:  # pragma: no cover - disk full etc.
                logger.exception("periodic stats write failed")

    writer = None
    if args.stats_interval is not None:
        writer = threading.Thread(
            target=_write_stats_loop, name="serve-stats-writer", daemon=True
        )
        writer.start()
    try:
        workload = generate_workload(
            args.requests,
            seed=args.seed,
            shapes=shapes,
            session_streams=args.session_streams,
            session_drift_rows=args.session_drift_rows,
        )
        report = run_load(
            service,
            workload,
            mode=args.mode,
            concurrency=(
                args.concurrency if args.concurrency else args.workers * 2
            ),
            rate=args.rate,
            verify=args.verify,
        )
    finally:
        service.close()
        stop_writer.set()
        if writer is not None:
            writer.join(timeout=5.0)
    document = service.stats_document(
        meta={"seed": args.seed, "mode": args.mode, "shapes": sorted(set(shapes))}
    )
    validate_document(document)

    summary = report.summary()
    print(f"workload      : {report.submitted} requests, seed {args.seed}, "
          f"{args.mode} loop, shapes {sorted(set(shapes))}")
    print(f"completed     : {report.completed} "
          f"({report.throughput:.1f} req/s over {report.wall_seconds:.3f} s)")
    print(f"rejected      : {sum(report.rejected.values())} {report.rejected}")
    print(f"degraded      : {report.degraded} "
          f"(fallbacks {document['fallbacks']})")
    print(f"lost          : {report.lost}")
    latency = summary["latency_seconds"]
    print(
        f"latency       : p50 {latency['p50'] * 1e3:.2f} ms, "
        f"p95 {latency['p95'] * 1e3:.2f} ms, p99 {latency['p99'] * 1e3:.2f} ms"
    )
    pool_stats = document["pool"]
    print(
        f"warm pool     : {pool_stats['hits']} hits, "
        f"{pool_stats['misses']} misses, {pool_stats['evictions']} evictions"
    )
    if "sessions" in document:
        session_stats = document["sessions"]
        print(
            f"sessions      : {session_stats['sessions']} live, "
            f"{session_stats['hits']} hits / {session_stats['misses']} misses, "
            f"{session_stats['warm_solves']} warm solves, "
            f"{session_stats['supersteps_saved']} supersteps saved"
        )
    if args.verify:
        verdict = "all optimal" if report.verify_failures == 0 else (
            f"{report.verify_failures} MISMATCH(ES)"
        )
        print(f"verification  : {report.completed} checked against scipy, {verdict}")
    if args.stats is not None:
        path = write_json(args.stats, document)
        print(f"stats written : {path}")
    if args.spans is not None:
        spans_document = spans_to_dict(spans, meta=serve_meta)
        validate_document(spans_document)
        path = write_json(args.spans, spans_document)
        print(
            f"spans written : {path} ({len(spans_document['spans'])} spans)"
        )
    if args.prom is not None:
        args.prom.parent.mkdir(parents=True, exist_ok=True)
        args.prom.write_text(service.prometheus_text())
        print(f"prom written  : {args.prom}")

    failures = []
    if report.lost > 0:
        failures.append(f"{report.lost} request(s) lost without a response")
    if report.verify_failures > 0:
        failures.append(
            f"{report.verify_failures} response(s) failed scipy verification"
        )
    fallbacks = document["fallbacks"]
    if (
        args.expect_fallbacks
        and fallbacks["engine_error"] + fallbacks["retries"] == 0
    ):
        failures.append(
            "degradation path never exercised (expected with --expect-fallbacks)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.obs.logging_setup import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging(
        getattr(args, "log_level", None), verbose=getattr(args, "verbose", 0)
    )
    if args.command == "info":
        return _cmd_info()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "validate":
        return _cmd_validate(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
