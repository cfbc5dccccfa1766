"""Damped Gauss-Newton refinement for manifold least squares.

Shared by the block-model and biclustering pipelines: both project a noisy
block matrix onto its rank-r representation by minimizing
||target - Sigma(theta)||_F^2 over the chart, starting from the first class
ordering whose truncation has chart coordinates (fit_with_permutation).
"""

from itertools import permutations

import numpy as np

from .errors import NumericsError, ProjectionFailed
from .matkit import vec

__all__ = ["refine_least_squares", "fit_with_permutation"]

GRAD_TOL = 1e-10
MAX_ITER = 100
MAX_HALVINGS = 30


def refine_least_squares(x0, target_vec, value_fn, jacobian_fn, from_vector):
    """Minimize ||target_vec - value_fn(theta)||_2^2 over chart vectors.

    from_vector turns a raw vector into a validated chart point and may
    raise a NumericsError on domain violations; such steps are halved like
    any failed step.  Any other exception propagates.
    Stops when ||J^T residual||_2 <= 1e-10, after 100 iterations, or when 30
    halvings cannot improve the objective.

    Returns (theta, info) with info = {iterations, grad_norm, converged}.
    """
    x = np.asarray(x0, dtype=float).copy()
    theta = from_vector(x)
    res = target_vec - value_fn(theta)
    obj = float(res @ res)
    grad_norm = np.inf
    for it in range(MAX_ITER):
        J = jacobian_fn(theta)
        grad = J.T @ res
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRAD_TOL:
            return theta, {"iterations": it, "grad_norm": grad_norm, "converged": True}
        step = np.linalg.lstsq(J, res, rcond=None)[0]
        t = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            try:
                cand_theta = from_vector(x + t * step)
            except NumericsError:
                t *= 0.5
                continue
            cand_res = target_vec - value_fn(cand_theta)
            cand_obj = float(cand_res @ cand_res)
            if cand_obj < obj:
                x = x + t * step
                theta, res, obj = cand_theta, cand_res, cand_obj
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no descent direction left at this resolution
            return theta, {
                "iterations": it,
                "grad_norm": grad_norm,
                "converged": grad_norm <= GRAD_TOL,
            }
    return theta, {
        "iterations": MAX_ITER,
        "grad_norm": grad_norm,
        "converged": grad_norm <= GRAD_TOL,
    }


def fit_with_permutation(k, start, value_fn, jacobian_fn, from_vector):
    """Least-squares chart fit from the first class ordering with a start.

    start(idx) returns (initial chart point, target matrix) for the class
    ordering idx, or raises a NumericsError.  Orderings of range(k) are
    tried lexicographically; the first that starts is refined against
    vec(target) by refine_least_squares, which gets the other arguments.
    Returns (theta, idx); raises ProjectionFailed when no ordering starts.
    """
    for perm in permutations(range(k)):
        idx = np.array(perm, dtype=np.int64)
        try:
            init, target = start(idx)
        except NumericsError:
            continue
        theta, _ = refine_least_squares(
            init.as_vector(), vec(target), value_fn, jacobian_fn, from_vector
        )
        return theta, idx
    raise ProjectionFailed(
        f"no ordering of the {k} classes admits a representer with a PD top block"
    )
