"""Damped Gauss-Newton: which failures the step-halving line search absorbs."""

import numpy as np
import pytest

from lowrank_rep.errors import DomainViolation
from lowrank_rep.gaussnewton import refine_least_squares


def _refine(from_vector):
    # minimize ||1 - x||^2 from x = 0; the full Gauss-Newton step is x = 1
    return refine_least_squares(
        np.zeros(1),
        np.ones(1),
        value_fn=lambda x: x,
        jacobian_fn=lambda x: np.eye(1),
        from_vector=from_vector,
    )


def test_domain_violation_halves_the_step():
    def from_vector(x):
        if x[0] > 0.75:
            raise DomainViolation(f"x = {x[0]} outside (-inf, 0.75]")
        return x

    x, info = _refine(from_vector)
    assert 0.5 <= x[0] <= 0.75
    assert not info["converged"]


def test_non_numerics_error_propagates():
    def from_vector(x):
        if x[0] != 0.0:
            raise TypeError("a bug, not a failed step")
        return x

    with pytest.raises(TypeError, match="a bug"):
        _refine(from_vector)
