"""Tests for the shared assignment-result type."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lap.result import AssignmentResult


def _result(assignment, cost=0.0, **kwargs):
    return AssignmentResult(
        assignment=np.asarray(assignment), total_cost=cost, solver="test", **kwargs
    )


class TestConstruction:
    def test_assignment_frozen(self):
        result = _result([1, 0])
        with pytest.raises(ValueError):
            result.assignment[0] = 5

    def test_rejects_matrix_assignment(self):
        with pytest.raises(SolverError):
            _result(np.zeros((2, 2), dtype=int))

    def test_size(self):
        assert _result([2, 0, 1]).size == 3

    def test_total_cost_coerced_to_float(self):
        assert isinstance(_result([0], cost=np.float32(3)).total_cost, float)


class TestViews:
    def test_row_for_column_inverse(self):
        result = _result([2, 0, 1])
        assert list(result.row_for_column) == [1, 2, 0]

    def test_matching_matrix_is_permutation_matrix(self):
        result = _result([1, 2, 0])
        matrix = result.matching_matrix()
        assert matrix.sum() == 3
        assert np.all(matrix.sum(axis=0) == 1)
        assert np.all(matrix.sum(axis=1) == 1)
        assert matrix[0, 1] == 1
