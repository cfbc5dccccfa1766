"""The first class ordering whose least-squares fit has chart coordinates.

The block-model projection and the biclustering fit both minimize
||target - Sigma(theta)||_F over the rank-r chart.  The rank-r truncation of
the target is the Frobenius-nearest rank-r matrix (Eckart-Young-Mirsky), so
its chart coordinates are the fit and no iterative refinement is needed.
Those coordinates exist only when the leading r x r block of the
truncation's basis admits a positive definite representer, which depends on
which classes come first.  first_admissible finds the first such ordering.
"""

from itertools import permutations

import numpy as np

from .errors import NumericsError, ProjectionFailed

__all__ = ["first_admissible"]


def first_admissible(k, r, chart_point):
    """First ordering of range(k) whose chart point exists, and that point.

    chart_point(idx) returns the chart point of the target with its classes
    in the order idx, or raises a NumericsError.  The ordered r-prefixes of
    range(k) are scanned lexicographically, each followed by the remaining
    classes in ascending order.  When admissibility depends only on the
    first r classes, as for a leading-block chart, this is the first
    admissible ordering of all k! in lexicographic order, at k!/(k-r)!
    trials at most.  Returns (theta, idx); raises ProjectionFailed when no
    ordering admits a chart point.
    """
    for prefix in permutations(range(k), r):
        idx = np.array(prefix, dtype=np.int64)
        idx = np.concatenate([idx, np.setdiff1d(np.arange(k), idx)])
        try:
            return chart_point(idx), idx
        except NumericsError:
            continue
    raise ProjectionFailed(
        f"no ordering of the {k} classes admits a representer with a PD top block"
    )
