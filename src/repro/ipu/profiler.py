"""Execution profiling: per-compute-set and per-tile BSP phase accounting.

The engine reports, for every superstep, the three BSP phase costs the
paper reasons about (§III-A): compute (slowest tile), synchronization
(fixed), and exchange (bytes over the fabric).  The profiler aggregates
them by compute set name, which is how HunIPU's per-step costs (Step 1 ...
Step 6) surface in benchmark output.  :meth:`Profiler.add` is the one
accumulation routine: the engine calls it directly when the profiler is a
run's only subscriber, and builds a :class:`SuperstepCharge` record only
for opt-in subscribers, whose profiler entry (:meth:`Profiler.record`)
passes the record's scalars to the same routine.

Two profiling depths exist, selected when the engine runs:

* **detailed** (default) — per-compute-set :class:`StepRecord` accounting;
  every solve, batch and served request runs it;
* **deep** (``tiles=True``) — everything in detailed *plus* per-tile,
  per-superstep attribution (:class:`TileProfile`): compute cycles per
  tile, occupancy and straggler counts, an imbalance time series, and
  per-tensor exchange-byte attribution.

Both depths accumulate the run totals and the per-name records through the
*same* statements in the same order, so the headline numbers
(``supersteps``, ``compute_cycles``, ``device_seconds``, byte volumes) and
every :class:`StepRecord` are bit-identical across depths — the invariant
the differential tests pin.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

from repro.ipu.spec import IPUSpec
from repro.obs.trace import STEP_PREFIXES

__all__ = [
    "StepRecord",
    "SuperstepCharge",
    "Profiler",
    "ProfileReport",
    "TileProfile",
    "TileComputeSetStats",
    "SuperstepSample",
]


@dataclasses.dataclass
class StepRecord:
    """Aggregate cost of all executions of one compute set (or copy)."""

    name: str
    executions: int = 0
    compute_seconds: float = 0.0
    sync_seconds: float = 0.0
    exchange_seconds: float = 0.0
    exchange_bytes: int = 0
    inter_ipu_bytes: int = 0
    #: Supersteps of this set that moved cross-chip bytes and therefore
    #: paid the external (inter-IPU) sync barrier on top of the on-chip
    #: one.  Always 0 on a single-IPU device.
    inter_ipu_syncs: int = 0
    #: Raw charged compute cycles (pre-conversion), accumulated in
    #: execution order — the quantity the deep profiler's per-compute-set
    #: accounting must match bit-for-bit.
    compute_cycles: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.sync_seconds + self.exchange_seconds


class SuperstepCharge(typing.NamedTuple):
    """One executed superstep: the record every superstep sink consumes.

    When an opt-in subscriber (the per-tile accumulator, a tracer or a
    metrics registry) is present, the engine builds exactly one per
    superstep and hands it to each subscriber in turn, the profiler
    first; without one it builds none.  Its first seven fields are the
    arguments of :meth:`Profiler.add`, in order.  Sync and exchange
    seconds come from :func:`fixed_charges`, priced once per compute set or
    copy when the engine binds its schedule; only the compute phase varies
    at run time.
    """

    name: str
    compute_cycles: float
    compute_seconds: float
    sync_seconds: float
    exchange_seconds: float
    exchange_bytes: int = 0
    #: Subset of ``exchange_bytes`` that crosses chip boundaries; any
    #: cross-chip byte also makes the superstep pay the external barrier.
    inter_ipu_bytes: int = 0
    #: Compute supersteps only: the sorted physical tiles in use.
    tile_ids: np.ndarray | None = None
    #: Per-tile cycle totals aligned with ``tile_ids``; computed only when a
    #: subscriber needs them (deep profiling, tracing, metrics).
    tile_cycles: np.ndarray | None = None
    #: Static exchange bytes per tensor (values sum to ``exchange_bytes``).
    exchange_by_tensor: typing.Mapping[str, int] | None = None
    #: Chips the superstep runs vertices on.
    ipus: tuple[int, ...] = (0,)

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.sync_seconds + self.exchange_seconds


def fixed_charges(
    spec: IPUSpec, exchange_bytes: int, inter_ipu_bytes: int = 0
) -> tuple[float, float]:
    """``(sync_seconds, exchange_seconds)`` of a superstep moving these bytes.

    In the BSP cost model (§III-A) both depend only on the statically
    planned exchange, so they are fixed per compute set.  A superstep that
    moves any cross-chip bytes pays the external (inter-IPU) barrier on top
    of the on-chip one; purely local supersteps sync each chip
    independently at the normal cost.
    """
    sync_seconds = spec.sync_seconds()
    if inter_ipu_bytes > 0:
        sync_seconds += spec.inter_ipu_sync_extra_seconds()
    return sync_seconds, spec.exchange_seconds(exchange_bytes, inter_ipu_bytes)


# ----------------------------------------------------------------------
# Per-tile attribution (deep mode)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TileComputeSetStats:
    """Per-tile view of one compute set, accumulated over its executions."""

    name: str
    executions: int
    #: Charged (slowest-slot) compute cycles, accumulated per execution in
    #: run order — bit-identical to the matching ``StepRecord``'s
    #: ``compute_cycles``.
    compute_cycles: float
    #: Total vertex work across all tiles (>= charged cycles * 1 tile).
    vertex_cycles: float
    tiles_in_use: int
    exchange_bytes: int
    #: Static exchange bytes attributed to each tensor this set touches,
    #: summed over executions.
    exchange_by_tensor: dict[str, int]


@dataclasses.dataclass(frozen=True)
class SuperstepSample:
    """One compute superstep in the deep profile's time series."""

    name: str
    compute_seconds: float
    total_seconds: float
    max_tile_cycles: float
    mean_tile_cycles: float
    imbalance: float
    straggler_tile: int


@dataclasses.dataclass(frozen=True)
class TileProfile:
    """Immutable per-tile attribution snapshot of one deep-profiled run.

    ``tile_cycles`` counts each tile's own vertex work (what the tile
    actually executed); ``compute_cycles`` is the run's *charged* compute
    total (each superstep costs its slowest tile's busiest slot).  Summed
    over every tile, ``tile_cycles.sum()`` normally exceeds the charged
    total, and the charged total normally exceeds any single tile's work:
    the gap between ``compute_cycles`` and ``tile_cycles.max()`` is the
    price of stragglers.
    """

    total_tiles: int
    supersteps: int
    compute_cycles: float
    tile_cycles: np.ndarray
    tile_active_supersteps: np.ndarray
    tile_straggler_count: np.ndarray
    compute_sets: tuple[TileComputeSetStats, ...]
    series: tuple[SuperstepSample, ...]
    exchange_by_tensor: dict[str, int]

    @property
    def tiles_used(self) -> int:
        """Tiles that executed at least one vertex."""
        return int(np.count_nonzero(self.tile_active_supersteps))

    @property
    def vertex_cycles(self) -> float:
        """Total vertex work summed over every tile."""
        return float(self.tile_cycles.sum())

    def stragglers(self, k: int = 5) -> list[dict[str, float | int]]:
        """The ``k`` tiles that most often gated a superstep (C3).

        Sorted by straggler count (times the tile held the per-superstep
        cycle maximum), ties broken by total cycles.
        """
        order = np.lexsort((self.tile_cycles, self.tile_straggler_count))
        rows = []
        for tile in reversed(order[-k:]):
            if self.tile_straggler_count[tile] == 0 and not rows:
                break
            rows.append(
                {
                    "tile": int(tile),
                    "straggler_supersteps": int(self.tile_straggler_count[tile]),
                    "active_supersteps": int(self.tile_active_supersteps[tile]),
                    "cycles": float(self.tile_cycles[tile]),
                }
            )
        return rows

    def occupancy(self) -> dict[str, float]:
        """How evenly the run kept tiles busy.

        ``mean_active_fraction`` is the mean over *used* tiles of the
        fraction of compute supersteps each was active in; ``imbalance`` is
        the max/mean ratio of per-tile cycle totals over used tiles (1.0
        means perfectly level work).
        """
        used = self.tile_active_supersteps > 0
        if not used.any() or self.supersteps == 0:
            return {
                "tiles_used": 0.0,
                "mean_active_fraction": 0.0,
                "imbalance": 1.0,
            }
        active = self.tile_active_supersteps[used] / self.supersteps
        cycles = self.tile_cycles[used]
        mean_cycles = float(cycles.mean())
        return {
            "tiles_used": float(used.sum()),
            "mean_active_fraction": float(active.mean()),
            "imbalance": float(cycles.max() / mean_cycles) if mean_cycles > 0 else 1.0,
        }

    def imbalance_over_time(self) -> dict[str, float]:
        """Aggregate of the per-superstep max/mean tile-cycle ratio.

        Copy supersteps (no per-tile compute, ``straggler_tile == -1``)
        are excluded so they cannot dilute the statistic.
        """
        values = np.array(
            [s.imbalance for s in self.series if s.straggler_tile >= 0]
        )
        if not len(values):
            return {"mean": 1.0, "max": 1.0, "supersteps": 0.0}
        return {
            "mean": float(values.mean()),
            "max": float(values.max()),
            "supersteps": float(len(values)),
        }

    def heatmap(self, width: int | None = None) -> dict[str, object]:
        """Per-tile cycle totals as a 2-D grid (for heatmap rendering).

        Tiles are laid out row-major in tile-id order, ``width`` columns
        per row (default: the squarest grid).  Unpopulated trailing cells
        are zero, like idle tiles.
        """
        if width is None:
            width = max(1, int(math.ceil(math.sqrt(self.total_tiles))))
        rows = int(math.ceil(self.total_tiles / width))
        grid = np.zeros(rows * width, dtype=np.float64)
        grid[: self.total_tiles] = self.tile_cycles
        return {
            "width": width,
            "rows": rows,
            "total_tiles": self.total_tiles,
            "cycles": grid.reshape(rows, width).tolist(),
        }

    def format_table(self, k: int = 8) -> str:
        """Human-readable straggler/occupancy table."""
        occupancy = self.occupancy()
        lines = [
            f"{'tile':>6} {'straggler supersteps':>21} {'active supersteps':>18} "
            f"{'cycles':>14}"
        ]
        for row in self.stragglers(k):
            lines.append(
                f"{row['tile']:>6} {row['straggler_supersteps']:>21} "
                f"{row['active_supersteps']:>18} {row['cycles']:>14.1f}"
            )
        lines.append(
            f"{int(occupancy['tiles_used'])} tile(s) used, "
            f"mean active fraction {occupancy['mean_active_fraction']:.3f}, "
            f"cycle imbalance {occupancy['imbalance']:.3f}"
        )
        return "\n".join(lines)


class _TileAccumulator:
    """Mutable per-tile accounting behind a deep-mode :class:`Profiler`."""

    def __init__(self, total_tiles: int) -> None:
        self.total_tiles = total_tiles
        self.reset()

    def reset(self) -> None:
        self.compute_cycles = 0.0
        self.supersteps = 0
        self.tile_cycles = np.zeros(self.total_tiles, dtype=np.float64)
        self.tile_active = np.zeros(self.total_tiles, dtype=np.int64)
        self.tile_straggler = np.zeros(self.total_tiles, dtype=np.int64)
        self.compute_sets: dict[str, dict[str, object]] = {}
        self.series: list[SuperstepSample] = []
        self.exchange_by_tensor: dict[str, int] = {}

    def record(self, charge: SuperstepCharge) -> None:
        name = charge.name
        compute_cycles = charge.compute_cycles
        exchange_by_tensor = charge.exchange_by_tensor
        tile_ids = charge.tile_ids
        tile_cycles = charge.tile_cycles
        if exchange_by_tensor:
            for tensor, moved in exchange_by_tensor.items():
                self.exchange_by_tensor[tensor] = (
                    self.exchange_by_tensor.get(tensor, 0) + moved
                )
        row = self.compute_sets.get(name)
        if row is None:
            row = {
                "executions": 0,
                "compute_cycles": 0.0,
                "vertex_cycles": 0.0,
                "tiles_in_use": 0,
                "exchange_bytes": 0,
                "exchange_by_tensor": {},
            }
            self.compute_sets[name] = row
        row["executions"] += 1
        row["compute_cycles"] += compute_cycles
        row["exchange_bytes"] += charge.exchange_bytes
        if exchange_by_tensor:
            per_tensor = row["exchange_by_tensor"]
            for tensor, moved in exchange_by_tensor.items():
                per_tensor[tensor] = per_tensor.get(tensor, 0) + moved
        if tile_ids is None or tile_cycles is None or len(tile_ids) == 0:
            # Copies carry no per-tile compute, but they still consume
            # modeled device time; keeping them in the series (straggler
            # -1) lets timeline exports stay aligned with the superstep
            # lane.  ``supersteps`` stays compute-only.
            self.series.append(
                SuperstepSample(
                    name=name,
                    compute_seconds=charge.compute_seconds,
                    total_seconds=charge.total_seconds,
                    max_tile_cycles=0.0,
                    mean_tile_cycles=0.0,
                    imbalance=1.0,
                    straggler_tile=-1,
                )
            )
            return
        self.compute_cycles += compute_cycles
        self.supersteps += 1
        vertex_cycles = float(tile_cycles.sum())
        row["vertex_cycles"] += vertex_cycles
        row["tiles_in_use"] = max(row["tiles_in_use"], len(tile_ids))
        np.add.at(self.tile_cycles, tile_ids, tile_cycles)
        self.tile_active[tile_ids] += 1
        straggler_index = int(np.argmax(tile_cycles))
        straggler = int(tile_ids[straggler_index])
        self.tile_straggler[straggler] += 1
        peak = float(tile_cycles[straggler_index])
        mean = vertex_cycles / len(tile_ids)
        self.series.append(
            SuperstepSample(
                name=name,
                compute_seconds=charge.compute_seconds,
                total_seconds=charge.total_seconds,
                max_tile_cycles=peak,
                mean_tile_cycles=mean,
                imbalance=peak / mean if mean > 0 else 1.0,
                straggler_tile=straggler,
            )
        )

    def snapshot(self) -> TileProfile:
        return TileProfile(
            total_tiles=self.total_tiles,
            supersteps=self.supersteps,
            compute_cycles=self.compute_cycles,
            tile_cycles=self.tile_cycles.copy(),
            tile_active_supersteps=self.tile_active.copy(),
            tile_straggler_count=self.tile_straggler.copy(),
            compute_sets=tuple(
                TileComputeSetStats(
                    name=name,
                    executions=int(row["executions"]),
                    compute_cycles=float(row["compute_cycles"]),
                    vertex_cycles=float(row["vertex_cycles"]),
                    tiles_in_use=int(row["tiles_in_use"]),
                    exchange_bytes=int(row["exchange_bytes"]),
                    exchange_by_tensor=dict(row["exchange_by_tensor"]),
                )
                for name, row in self.compute_sets.items()
            ),
            series=tuple(self.series),
            exchange_by_tensor=dict(self.exchange_by_tensor),
        )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _prefix_of(name: str, prefixes: tuple[str, ...]) -> str | None:
    """The first of ``prefixes`` that ``name`` starts with, if any."""
    for prefix in prefixes:
        if name.startswith(prefix):
            return prefix
    return None


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Immutable snapshot of a finished run.

    ``compute_cycles`` and the ``phase_*_seconds`` headers are accumulated
    through one code path shared by both profiling depths, so they are
    bit-identical between detailed and deep runs of the same program.
    Reports rebuilt from old exported documents (without phase
    headers) fall back to summing their records.
    """

    records: tuple[StepRecord, ...]
    supersteps: int
    #: Kept for the ``repro.profile/1`` document; an engine run charges no
    #: host I/O (the solver prices the readback as ``stats["host_io_s"]``).
    host_io_seconds: float = 0.0
    compute_cycles: float = 0.0
    #: Supersteps that paid the external (cross-chip) sync barrier.
    inter_ipu_syncs: int = 0
    phase_compute_seconds: float | None = None
    phase_sync_seconds: float | None = None
    phase_exchange_seconds: float | None = None
    tiles: TileProfile | None = None

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Whole-run modeled seconds per BSP phase."""
        if self.phase_compute_seconds is None:
            return {
                "compute": sum(r.compute_seconds for r in self.records),
                "sync": sum(r.sync_seconds for r in self.records),
                "exchange": sum(r.exchange_seconds for r in self.records),
            }
        return {
            "compute": self.phase_compute_seconds,
            "sync": self.phase_sync_seconds,
            "exchange": self.phase_exchange_seconds,
        }

    @property
    def device_seconds(self) -> float:
        """Total modeled on-device time (the paper-comparable number)."""
        phases = self.phase_seconds
        return phases["compute"] + phases["sync"] + phases["exchange"]

    @property
    def exchange_bytes(self) -> int:
        return sum(record.exchange_bytes for record in self.records)

    @property
    def inter_ipu_bytes(self) -> int:
        """Exchange bytes that crossed chip boundaries (multi-IPU)."""
        return sum(record.inter_ipu_bytes for record in self.records)

    @functools.cached_property
    def _by_name(self) -> dict[str, StepRecord]:
        # Records is a snapshot (never mutated), so caching the index is
        # safe; the tuple is kept as the ordered display form.
        return {record.name: record for record in self.records}

    def record_named(self, name: str) -> StepRecord:
        """The record for one compute set name (KeyError if absent)."""
        record = self._by_name.get(name)
        if record is None:
            raise KeyError(name)
        return record

    def get(self, name: str, default: StepRecord | None = None) -> StepRecord | None:
        """The record for ``name``, or ``default`` when absent."""
        return self._by_name.get(name, default)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def by_prefix(self, prefix: str) -> float:
        """Summed seconds of every record whose name starts with ``prefix``.

        HunIPU names its compute sets ``step1/...``, ``step4/...`` etc., so
        ``by_prefix("step6")`` is the modeled cost of the slack update.
        """
        return sum(
            (
                record.total_seconds
                for record in self.records
                if record.name.startswith(prefix)
            ),
            0.0,
        )

    def step_seconds(
        self, prefixes: typing.Iterable[str] = STEP_PREFIXES
    ) -> dict[str, float]:
        """:meth:`by_prefix` for every prefix, in one pass over the records.

        Each total adds the same records in the same order as
        :meth:`by_prefix`, so the values are bit-identical to it.  The
        prefixes must be disjoint (no record name matches two).
        """
        prefixes = tuple(prefixes)
        totals = dict.fromkeys(prefixes, 0.0)
        for record in self.records:
            prefix = _prefix_of(record.name, prefixes)
            if prefix is not None:
                totals[prefix] += record.total_seconds
        return totals

    def summary(self) -> list[dict[str, float | int | str]]:
        """Per-record rows sorted by total time descending.

        Each row carries the phase seconds, byte volume, and
        ``pct_of_device`` — the record's share of the run's total modeled
        device time — so the dominant step reads off the first row.
        """
        device = self.device_seconds
        rows = []
        for record in sorted(
            self.records, key=lambda r: r.total_seconds, reverse=True
        ):
            rows.append(
                {
                    "name": record.name,
                    "executions": record.executions,
                    "compute_seconds": record.compute_seconds,
                    "sync_seconds": record.sync_seconds,
                    "exchange_seconds": record.exchange_seconds,
                    "total_seconds": record.total_seconds,
                    "exchange_bytes": record.exchange_bytes,
                    "pct_of_device": (
                        100.0 * record.total_seconds / device if device > 0 else 0.0
                    ),
                }
            )
        return rows

    def critical_path(
        self, prefixes: typing.Iterable[str] = STEP_PREFIXES
    ) -> dict[str, typing.Any]:
        """Which step and which BSP phase bound the run.

        Groups records by step-name prefix and splits each group into its
        compute/sync/exchange seconds; the *bounding* step is the group
        with the largest total, and the bounding phase is that group's
        largest phase.  ``phase_seconds`` and ``dominant_phase`` give the
        same answer for the whole run.  Records matching no prefix are
        reported under ``"other"``.
        """
        prefixes = tuple(prefixes)
        groups: dict[str, dict[str, float]] = {
            prefix: {"compute": 0.0, "sync": 0.0, "exchange": 0.0, "total": 0.0}
            for prefix in prefixes
        }
        groups["other"] = {"compute": 0.0, "sync": 0.0, "exchange": 0.0, "total": 0.0}
        for record in self.records:
            for prefix in prefixes:
                if record.name.startswith(prefix):
                    group = groups[prefix]
                    break
            else:
                group = groups["other"]
            group["compute"] += record.compute_seconds
            group["sync"] += record.sync_seconds
            group["exchange"] += record.exchange_seconds
            group["total"] += record.total_seconds
        device = self.device_seconds
        for group in groups.values():
            group["share"] = group["total"] / device if device > 0 else 0.0
        bounding_prefix = max(groups, key=lambda name: groups[name]["total"])
        bounding = groups[bounding_prefix]
        bounding_phase = max(
            ("compute", "sync", "exchange"), key=lambda phase: bounding[phase]
        )
        phases = self.phase_seconds
        dominant_phase = max(phases, key=phases.get)
        return {
            "steps": groups,
            "bounding_step": bounding_prefix,
            "bounding_phase": bounding_phase,
            "phase_seconds": phases,
            "dominant_phase": dominant_phase,
        }

    def format_critical_path(self) -> str:
        """Human-readable critical-path breakdown."""
        analysis = self.critical_path()
        lines = [
            f"{'step':<12} {'compute ms':>12} {'sync ms':>10} "
            f"{'exchange ms':>12} {'total ms':>10} {'share':>7}"
        ]
        steps = sorted(
            analysis["steps"].items(), key=lambda kv: kv[1]["total"], reverse=True
        )
        for name, group in steps:
            if group["total"] <= 0:
                continue
            lines.append(
                f"{name:<12} {group['compute'] * 1e3:>12.4f} "
                f"{group['sync'] * 1e3:>10.4f} "
                f"{group['exchange'] * 1e3:>12.4f} "
                f"{group['total'] * 1e3:>10.4f} {group['share'] * 100:>6.1f}%"
            )
        lines.append(
            f"bounded by {analysis['bounding_step']} "
            f"({analysis['bounding_phase']} phase); run-wide dominant phase: "
            f"{analysis['dominant_phase']}"
        )
        return "\n".join(lines)

    def format_table(self) -> str:
        """Human-readable per-step table (sorted by total time descending)."""
        lines = [
            f"{'compute set':<32} {'execs':>8} {'compute ms':>12} "
            f"{'exchange ms':>12} {'sync ms':>10} {'total ms':>10} {'% dev':>7}"
        ]
        for row in self.summary():
            lines.append(
                f"{row['name']:<32} {row['executions']:>8} "
                f"{row['compute_seconds'] * 1e3:>12.4f} "
                f"{row['exchange_seconds'] * 1e3:>12.4f} "
                f"{row['sync_seconds'] * 1e3:>10.4f} "
                f"{row['total_seconds'] * 1e3:>10.4f} "
                f"{row['pct_of_device']:>6.1f}%"
            )
        lines.append(
            f"{'TOTAL':<32} {self.supersteps:>8} "
            f"{'':>12} {'':>12} {'':>10} {self.device_seconds * 1e3:>10.4f} "
            f"{100.0 if self.records else 0.0:>6.1f}%"
        )
        return "\n".join(lines)


class Profiler:
    """Mutable accumulator of a run's superstep records.

    :meth:`add` keeps the run-total scalars and one :class:`StepRecord`
    per compute set name; :meth:`record`, the subscriber form, feeds it a
    record's scalars.  ``tiles=True`` (deep mode) adds the per-tile
    accumulator to :attr:`sinks`.

    Every depth and both engine paths run :meth:`add` unchanged, so the
    totals and records of a report are bit-identical across them; deep
    mode only adds per-tile attribution.  Exchange seconds are summed per
    superstep from each record's plan-time charge: the cost model is not
    linear in bytes (overlapping transfers + a setup constant that vanishes
    for empty exchanges), so no run total can stand in.
    """

    def __init__(self, spec: IPUSpec, *, tiles: bool = False) -> None:
        self._spec = spec
        #: Records still accumulating, and records already handed to a
        #: report (frozen: a later charge to one continues from a copy).
        self._records: dict[str, StepRecord] = {}
        self._reported: dict[str, StepRecord] = {}
        self._supersteps = 0
        self._inter_syncs = 0
        self._agg_compute_cycles = 0.0
        self._agg_exchange_seconds = 0.0
        self._tiles = _TileAccumulator(spec.total_tiles) if tiles else None

    def reset(self) -> None:
        """Clear accumulated charges so the profiler can serve another run.

        Reports are immutable snapshots (see :meth:`report`), so an engine
        can keep one profiler alive across back-to-back solves instead of
        constructing a fresh one per run.
        """
        self._records = {}
        self._reported = {}
        self._supersteps = 0
        self._inter_syncs = 0
        self._agg_compute_cycles = 0.0
        self._agg_exchange_seconds = 0.0
        if self._tiles is not None:
            self._tiles.reset()

    @property
    def sinks(self) -> tuple[typing.Callable[[SuperstepCharge], None], ...]:
        """The superstep subscribers this profiler contributes.

        Always :meth:`record`; deep mode adds the per-tile accumulator.
        """
        if self._tiles is None:
            return (self.record,)
        return (self.record, self._tiles.record)

    def record(self, charge: SuperstepCharge) -> None:
        """Accumulate one superstep record (the always-on subscriber)."""
        self.add(*charge[:7])

    def add(
        self,
        name: str,
        compute_cycles: float,
        compute_seconds: float,
        sync_seconds: float,
        exchange_seconds: float,
        exchange_bytes: int,
        inter_ipu_bytes: int,
    ) -> None:
        """Accumulate one superstep's scalars: the one accounting routine.

        The arguments are the first seven fields of a
        :class:`SuperstepCharge`, in order.  :meth:`record` and
        :meth:`record_superstep` reach this through the record; the engine
        calls it directly when the profiler is a run's only subscriber, so
        the record is built only for opt-in subscribers.
        """
        self._supersteps += 1
        self._agg_compute_cycles += compute_cycles
        record = self._records.get(name)
        if record is None:
            previous = self._reported.get(name)
            record = self._records[name] = (
                StepRecord(name)
                if previous is None
                else dataclasses.replace(previous)
            )
        record.executions += 1
        record.compute_seconds += compute_seconds
        record.sync_seconds += sync_seconds
        record.compute_cycles += compute_cycles
        # Most supersteps move nothing.  An empty exchange charges exactly
        # 0.0 s (inter-IPU bytes are a subset of the exchange), and adding
        # zero to these non-negative sums is a bitwise no-op, so skipping
        # it changes no total.
        if exchange_bytes:
            self._agg_exchange_seconds += exchange_seconds
            record.exchange_seconds += exchange_seconds
            record.exchange_bytes += exchange_bytes
            if inter_ipu_bytes > 0:
                self._inter_syncs += 1
                record.inter_ipu_bytes += inter_ipu_bytes
                record.inter_ipu_syncs += 1

    def record_superstep(
        self,
        name: str,
        compute_cycles: float,
        exchange_bytes: int,
        inter_ipu_bytes: int = 0,
        *,
        tile_ids: np.ndarray | None = None,
        tile_cycles: np.ndarray | None = None,
        exchange_by_tensor: typing.Mapping[str, int] | None = None,
    ) -> SuperstepCharge:
        """Price one superstep from its raw quantities and feed :attr:`sinks`.

        The direct-use form of the engine's path: ``inter_ipu_bytes`` is the
        cross-chip subset of the exchange (see :func:`fixed_charges`);
        deep profilers also take the superstep's per-tile cycle totals
        (``tile_ids``/``tile_cycles``) and per-tensor exchange attribution.
        Returns the record.
        """
        sync_seconds, exchange_seconds = fixed_charges(
            self._spec, exchange_bytes, inter_ipu_bytes
        )
        charge = SuperstepCharge(
            name,
            compute_cycles,
            self._spec.cycles_to_seconds(compute_cycles),
            sync_seconds,
            exchange_seconds,
            exchange_bytes,
            inter_ipu_bytes,
            tile_ids,
            tile_cycles,
            exchange_by_tensor,
        )
        for sink in self.sinks:
            sink(charge)
        return charge

    @property
    def supersteps(self) -> int:
        return self._supersteps

    def report(self) -> ProfileReport:
        """Snapshot the accumulated costs (later charges do not change it)."""
        # Multiplication (not per-superstep float accumulation) keeps the
        # sync phase bit-identical across profiling depths; the external
        # barrier surcharge is a second exact multiple.
        phase_sync = self._supersteps * self._spec.sync_seconds()
        if self._inter_syncs:
            phase_sync += (
                self._inter_syncs * self._spec.inter_ipu_sync_extra_seconds()
            )
        # Hand the records over instead of copying them: after a report
        # the profiler never mutates them again (see :meth:`add`).  The
        # union keeps first-execution order and the newest values.
        records = self._reported | self._records
        self._reported, self._records = records, {}
        return ProfileReport(
            records=tuple(records.values()),
            supersteps=self._supersteps,
            compute_cycles=self._agg_compute_cycles,
            inter_ipu_syncs=self._inter_syncs,
            phase_compute_seconds=self._spec.cycles_to_seconds(
                self._agg_compute_cycles
            ),
            phase_sync_seconds=phase_sync,
            phase_exchange_seconds=self._agg_exchange_seconds,
            tiles=self._tiles.snapshot() if self._tiles is not None else None,
        )
