"""Shared fixtures: the paper's running example and small problem instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems import (
    FacilityLocationProblem,
    GraphColoringProblem,
    JobSchedulingProblem,
    KPartitionProblem,
    SetCoverProblem,
)


@pytest.fixture
def paper_constraints():
    """The 5-variable, 2-constraint system from Figure 1(a) / Equation 4."""
    matrix = np.array([[1, 1, -1, 0, 0], [0, 0, 1, 1, -1]], dtype=np.int64)
    bound = np.array([0, 1], dtype=np.int64)
    particular = np.array([0, 0, 0, 1, 0], dtype=np.int8)
    return matrix, bound, particular


@pytest.fixture
def paper_basis():
    """The homogeneous basis of Equation 4 (up to sign/order)."""
    return np.array(
        [
            [-1, 1, 0, 0, 0],
            [-1, 0, -1, 1, 0],
            [1, 0, 1, 0, 1],
        ],
        dtype=np.int64,
    )


@pytest.fixture
def small_flp():
    return FacilityLocationProblem.random(2, 1, seed=0, name="flp-small")


@pytest.fixture
def small_jsp():
    return JobSchedulingProblem([3, 5, 2], 2, name="jsp-small")


@pytest.fixture
def small_scp():
    return SetCoverProblem(
        subsets=[{0, 1}, {1, 2}, {0, 2}],
        costs=[2, 3, 4],
        num_elements=3,
        name="scp-small",
    )
