"""Tests for graph tensors."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.ipu.mapping import TileMapping
from repro.ipu.tensor import Tensor


class TestConstruction:
    def test_basic(self):
        tensor = Tensor("t", (2, 3), np.dtype(np.float32))
        assert tensor.size == 6
        assert tensor.nbytes == 24
        assert tensor.ndim == 2
        assert np.all(tensor.data == 0)

    def test_rejects_unnamed(self):
        with pytest.raises(GraphConstructionError):
            Tensor("", (2,), np.dtype(np.float32))

    def test_rejects_zero_dim(self):
        with pytest.raises(GraphConstructionError):
            Tensor("t", (2, 0), np.dtype(np.float32))

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(GraphConstructionError, match="unsupported"):
            Tensor("t", (2,), np.dtype(np.complex128))


class TestMapping:
    def test_set_mapping_checks_size(self):
        tensor = Tensor("t", (4,), np.dtype(np.int32))
        with pytest.raises(GraphConstructionError, match="mapping covers"):
            tensor.set_mapping(TileMapping.single_tile(3))

    def test_require_mapping_raises_when_unmapped(self):
        tensor = Tensor("t", (4,), np.dtype(np.int32))
        with pytest.raises(GraphConstructionError, match="no tile mapping"):
            tensor.require_mapping()

    def test_set_mapping_returns_self(self):
        tensor = Tensor("t", (4,), np.dtype(np.int32))
        assert tensor.set_mapping(TileMapping.single_tile(4)) is tensor


class TestViews:
    def test_region_is_writable_view(self):
        tensor = Tensor("t", (2, 2), np.dtype(np.float64))
        tensor.region(1, 3)[:] = 7.0
        assert tensor.data[0, 1] == 7.0
        assert tensor.data[1, 0] == 7.0

    def test_region_bounds_checked(self):
        tensor = Tensor("t", (2, 2), np.dtype(np.float64))
        with pytest.raises(GraphConstructionError):
            tensor.region(0, 5)
        with pytest.raises(GraphConstructionError):
            tensor.region(3, 3)

    def test_host_write_scalar_broadcast(self):
        tensor = Tensor("t", (2, 2), np.dtype(np.int32))
        tensor.write_host(-1)
        assert np.all(tensor.data == -1)

    def test_host_write_reshapes(self):
        tensor = Tensor("t", (2, 2), np.dtype(np.int32))
        tensor.write_host(np.arange(4))
        assert tensor.data[1, 1] == 3

    def test_host_read_is_copy(self):
        tensor = Tensor("t", (2,), np.dtype(np.int32))
        copy = tensor.read_host()
        copy[0] = 9
        assert tensor.data[0] == 0


class TestFixedBuffer:
    """A tensor's buffer is allocated once; only its contents change."""

    def test_data_cannot_be_rebound(self):
        tensor = Tensor("t", (4,), np.dtype(np.int32))
        with pytest.raises(AttributeError):
            tensor.data = np.ones(4, dtype=np.int32)

    def test_host_write_keeps_the_buffer(self):
        tensor = Tensor("t", (4,), np.dtype(np.int32))
        buffer = tensor.data
        tensor.write_host(np.arange(4))
        assert tensor.data is buffer
        assert buffer.tolist() == [0, 1, 2, 3]
