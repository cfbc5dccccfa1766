"""The least-squares chart fit that both studies run.

The block-model projection and the biclustering fit both minimize
||T - Sigma(theta)||_F over the rank-r chart.  The rank-r truncation of T
is the Frobenius-nearest rank-r matrix (Eckart-Young), so its chart point
is the fit and no iterative refinement is needed.  The fit takes the
target's own class order.  A truncation whose basis admits no positive
definite leading block has no chart point, and the fit raises the chart's
error (DegenerateTopBlock or RankMismatch); inside a study replicate that
excludes the replicate (mc.run_study).
"""

import numpy as np

from .rectrep import theta_of_sigma_rect
from .symrep import _eig_by_magnitude, theta_of_sigma

__all__ = ["fit_sym", "fit_rect"]


def fit_sym(T, r):
    """Chart point of the magnitude-ordered rank-r truncation of (T + T^T)/2."""
    T = np.asarray(T, dtype=float)
    lam, V = _eig_by_magnitude(0.5 * (T + T.T))
    return theta_of_sigma((V[:, :r] * lam[:r]) @ V[:, :r].T, r)


def fit_rect(T, r):
    """Chart point of the rank-r truncated SVD of T."""
    U, s, Vt = np.linalg.svd(np.asarray(T, dtype=float), full_matrices=False)
    return theta_of_sigma_rect((U[:, :r] * s[:r]) @ Vt[:r, :], r)
