"""Property tests for the slack-matrix compression scheme (§IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compression
from repro.core.compression import (
    CompressRows,
    RowZeroSum,
    compress_rows_host,
    segment_bounds,
)
from repro.ipu.codelets import CostContext
from repro.ipu.tensor import Tensor

COST = CostContext()


class TestSegmentBounds:
    def test_even_split(self):
        assert segment_bounds(12, 6) == [
            (0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 12)
        ]

    def test_uneven_split_front_loads(self):
        bounds = segment_bounds(8, 6)
        lengths = [stop - start for start, stop in bounds]
        assert lengths == [2, 2, 1, 1, 1, 1]

    def test_fewer_columns_than_threads(self):
        bounds = segment_bounds(2, 6)
        lengths = [stop - start for start, stop in bounds]
        assert lengths == [1, 1, 0, 0, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(cols=st.integers(1, 100), threads=st.integers(1, 8))
    def test_bounds_partition_columns(self, cols, threads):
        bounds = segment_bounds(cols, threads)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == cols
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start


class TestHostCompression:
    def test_figure1_example(self):
        """The worked example of Fig. 1 (12-wide row, 6 threads)."""
        row = np.array([[13, 0, 0, 0, 0, 1, 60, 7, 22, 8, 2, 0]], dtype=float)
        compress, counts = compress_rows_host(row, 6, tol=0.0)
        assert list(compress[0]) == [1, -1, 2, 3, 4, -1, -1, -1, -1, -1, 11, -1]
        assert list(counts[0]) == [1, 2, 1, 0, 0, 1]

    def test_no_zeros(self):
        slack = np.ones((3, 6))
        compress, counts = compress_rows_host(slack, 6, tol=1e-9)
        assert np.all(compress == -1)
        assert counts.sum() == 0

    def test_all_zeros(self):
        slack = np.zeros((2, 6))
        compress, counts = compress_rows_host(slack, 6, tol=1e-9)
        assert counts.sum() == 12
        # Every position is recorded exactly once.
        recorded = sorted(p for p in compress.reshape(-1) if p >= 0)
        assert recorded == sorted(list(range(6)) * 2)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 40),
        threads=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    def test_roundtrip_recovers_zero_set(self, rows, cols, threads, seed):
        gen = np.random.default_rng(seed)
        slack = gen.choice([0.0, 1.0, 2.0], size=(rows, cols), p=[0.3, 0.4, 0.3])
        compress, counts = compress_rows_host(slack, threads, tol=1e-12)
        for row in range(rows):
            recorded = {int(p) for p in compress[row] if p >= 0}
            actual = set(np.flatnonzero(slack[row] == 0.0).tolist())
            assert recorded == actual
            assert counts[row].sum() == len(actual)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 30),
        seed=st.integers(0, 1000),
    )
    def test_counts_match_segment_ground_truth(self, rows, cols, seed):
        gen = np.random.default_rng(seed)
        slack = gen.choice([0.0, 5.0], size=(rows, cols))
        compress, counts = compress_rows_host(slack, 6, tol=0.0)
        for thread, (start, stop) in enumerate(segment_bounds(cols, 6)):
            expected = (slack[:, start:stop] == 0.0).sum(axis=1)
            assert np.array_equal(counts[:, thread], expected)


class TestDeviceCodelet:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 25),
        seed=st.integers(0, 1000),
    )
    def test_codelet_matches_host_reference(self, rows, cols, seed):
        gen = np.random.default_rng(seed)
        slack = gen.choice([0.0, 1.0], size=(rows, cols))
        expected_compress, expected_counts = compress_rows_host(slack, 6, tol=1e-9)
        compress = np.zeros((1, rows * cols), dtype=np.int32)
        counts = np.zeros((1, rows * 6), dtype=np.int32)
        CompressRows().compute_all(
            {
                "block": slack.reshape(1, -1),
                "compress": compress,
                "zero_count": counts,
            },
            {
                "cols": np.array([float(cols)]),
                "threads": np.array([6.0]),
                "tol": np.array([1e-9]),
            },
            COST,
        )
        assert np.array_equal(compress.reshape(rows, cols), expected_compress)
        assert np.array_equal(counts.reshape(rows, 6), expected_counts)

    def test_batched_compression_independent_rows(self):
        """Two vertices' blocks must not interfere."""
        block = np.array(
            [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]
        )  # two vertices, 1x4 rows
        compress = np.zeros((2, 4), dtype=np.int32)
        counts = np.zeros((2, 6), dtype=np.int32)
        CompressRows().compute_all(
            {"block": block, "compress": compress, "zero_count": counts},
            {
                "cols": np.array([4.0, 4.0]),
                "threads": np.array([6.0, 6.0]),
                "tol": np.array([0.0, 0.0]),
            },
            COST,
        )
        assert {int(p) for p in compress[0] if p >= 0} == {0, 2}
        assert {int(p) for p in compress[1] if p >= 0} == {1, 3}

    def test_row_zero_sum(self):
        counts = np.array([[1, 2, 0, 0, 1, 0, 3, 0, 0, 0, 0, 1]], dtype=np.int32)
        row_zeros = np.zeros((1, 2), dtype=np.int32)
        RowZeroSum().compute_all(
            {"zero_count": counts, "row_zeros": row_zeros},
            {"threads": np.array([6.0])},
            COST,
        )
        assert list(row_zeros[0]) == [4, 4]


TOL = 1e-9


class _Plan:
    """A compress compute set of ``batch`` vertices of ``rows`` rows each,
    run the way the engine runs a bound kernel: views fixed, and both
    outputs' write counters bumped after every call."""

    def __init__(self, batch, rows, cols, slack, *, bound=True):
        self.cols = cols
        self.block = Tensor("slack", (batch * rows * cols,), np.dtype(np.float64))
        self.compress = Tensor("compress", (batch * rows * cols,), np.dtype(np.int32))
        self.counts = Tensor("zero_count", (batch * rows * 6,), np.dtype(np.int32))
        self.block.write_host(slack)
        tensors = {
            "block": self.block,
            "compress": self.compress,
            "zero_count": self.counts,
        }
        self.views = {field: t.data.reshape(batch, -1) for field, t in tensors.items()}
        params = {
            "cols": np.full(batch, float(cols)),
            "threads": np.full(batch, 6.0),
            "tol": np.full(batch, TOL),
        }
        self.kernel = CompressRows().bind(params, COST, tensors if bound else None)

    @property
    def slack(self) -> np.ndarray:
        return self.block.data.reshape(-1, self.cols)

    def run(self) -> np.ndarray:
        cycles = self.kernel(self.views)
        self.compress.writes += 1
        self.counts.writes += 1
        return cycles

    def assert_matches_host(self) -> None:
        expected_compress, expected_counts = compress_rows_host(self.slack, 6, TOL)
        assert np.array_equal(self.compress.data.reshape(-1, self.cols), expected_compress)
        assert np.array_equal(self.counts.data.reshape(-1, 6), expected_counts)


def _spy_passes(monkeypatch) -> list:
    """Record each compaction: ``None`` for a full pass, else its rows."""
    seen = []
    compact = compression._compact

    def spy(mask, compress, zero_count, segment, start, rows=None):
        seen.append(None if rows is None else rows.tolist())
        compact(mask, compress, zero_count, segment, start, rows)

    monkeypatch.setattr(compression, "_compact", spy)
    return seen


@pytest.fixture
def passes(monkeypatch):
    return _spy_passes(monkeypatch)


def _slack(rng, shape):
    """Entries at zero, exactly at the tolerance, just above it, or large."""
    choices = np.array([0.0, TOL, np.nextafter(TOL, 1.0), 1.0, 7.0])
    return choices[rng.integers(0, len(choices), shape)]


class TestBoundCompression:
    """The bound kernel rewrites only rows whose zero set changed."""

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 3),
        rows=st.integers(1, 4),
        cols=st.integers(1, 20),
        seed=st.integers(0, 10_000),
    )
    def test_edit_sequence_matches_host_reference(self, batch, rows, cols, seed):
        rng = np.random.default_rng(seed)
        plan = _Plan(batch, rows, cols, _slack(rng, (batch * rows, cols)))
        with pytest.MonkeyPatch.context() as patch:
            seen = _spy_passes(patch)
            reference = plan.run()
            plan.assert_matches_host()
            for step in range(12):
                edit = step % 4
                slack = plan.slack
                if edit == 1:  # one row
                    row = rng.integers(len(slack))
                    slack[row] = _slack(rng, cols)
                elif edit == 2:  # many rows
                    picked = rng.choice(len(slack), (len(slack) + 1) // 2, replace=False)
                    slack[picked] = _slack(rng, (len(picked), cols))
                elif edit == 3:  # one entry crosses the tolerance edge
                    row, col = rng.integers(len(slack)), rng.integers(cols)
                    edge = slack[row, col] <= TOL
                    slack[row, col] = np.nextafter(TOL, 1.0) if edge else TOL
                cycles = plan.run()
                plan.assert_matches_host()
                assert cycles.tobytes() == reference.tobytes()
        # One full pass, on the first call; every later one is incremental.
        assert seen[0] is None
        assert None not in seen[1:]

    def test_only_changed_rows_are_rewritten(self, passes):
        rng = np.random.default_rng(3)
        plan = _Plan(2, 3, 13, _slack(rng, (6, 13)))
        plan.run()
        plan.run()  # nothing changed: no compaction at all
        plan.slack[4, 2] = 0.0 if plan.slack[4, 2] > TOL else 1.0
        plan.run()
        plan.assert_matches_host()
        assert passes == [None, [4]]

    def test_outside_write_forces_full_pass(self, passes):
        rng = np.random.default_rng(5)
        plan = _Plan(2, 2, 12, _slack(rng, (4, 12)))
        plan.run()
        # Another kernel (Step 2's row sort) writes compress, and the
        # engine bumps its counter: the next call recompacts every row.
        plan.compress.data[...] = 9
        plan.compress.writes += 1
        plan.run()
        plan.assert_matches_host()
        assert passes == [None, None]

    def test_unbound_kernel_keeps_no_state(self, passes):
        rng = np.random.default_rng(7)
        plan = _Plan(2, 2, 9, _slack(rng, (4, 9)), bound=False)
        plan.run()
        plan.compress.data[...] = 9  # no counter tells the kernel
        plan.run()
        plan.assert_matches_host()
        assert passes == [None, None]
        assert plan.kernel.mask is None and plan.kernel.expected is None
