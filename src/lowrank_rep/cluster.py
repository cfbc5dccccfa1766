"""Clustering utilities: Lloyd's k-means with restarts, label alignment.

Labels are integers in range(k).  Alignment between an estimated and a true
assignment solves the linear assignment problem on their k x k confusion
matrix exactly (Jonker-Volgenant shortest augmenting paths), polynomial in
k.  It runs through scipy.sparse.csgraph rather than
scipy.optimize.linear_sum_assignment: on a 2-core machine, importing
scipy.optimize added 0.12-0.18 s to a CLI process's start-up, and
scipy.sparse.csgraph 4-8 ms.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import DimensionMismatch, TooFewPoints
from .rngs import substream

__all__ = [
    "ClusterAssignment",
    "KmeansResult",
    "kmeans",
    "align_labels",
    "relabel",
]

MAX_LLOYD_ITER = 200


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster ids in range(k) for each of n items."""

    labels: np.ndarray = field(repr=False)
    k: int = 0

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise DimensionMismatch("labels must be a vector")
        labels = labels.astype(np.int64)
        if self.k < 1:
            raise DimensionMismatch(f"need k >= 1, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise DimensionMismatch(
                f"labels must lie in [0, {self.k}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.labels.size

    def counts(self):
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class KmeansResult:
    assignment: ClusterAssignment
    centroids: np.ndarray = field(repr=False)
    objective: float = 0.0


def _sq_dists(rows, centroids):
    # ||x - c||^2 for all pairs, n x k
    return (
        np.sum(rows**2, axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )


def _kmeanspp_init(rows, k, gen):
    n = rows.shape[0]
    centers = np.empty((k, rows.shape[1]))
    idx = int(gen.integers(n))
    centers[0] = rows[idx]
    d2 = np.sum((rows - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(gen.integers(n))  # all points coincide with a center
        else:
            idx = int(gen.choice(n, p=d2 / total))
        centers[j] = rows[idx]
        d2 = np.minimum(d2, np.sum((rows - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(rows, k, centers):
    n = rows.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(MAX_LLOYD_ITER):
        d2 = _sq_dists(rows, centers)
        new_labels = np.argmin(d2, axis=1)
        # empty-cluster repair: reseed at the worst-fit point
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            worst = int(np.argmax(d2[np.arange(n), new_labels]))
            centers[j] = rows[worst]
            new_labels[worst] = j
            d2[:, j] = np.sum((rows - centers[j]) ** 2, axis=1)
            counts = np.bincount(new_labels, minlength=k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = rows[labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    d2 = _sq_dists(rows, centers)
    obj = float(np.sum(d2[np.arange(n), labels]))
    return labels, centers, obj


def kmeans(rows, k, restarts=20, seed=0):
    """Best-of-restarts Lloyd k-means with k-means++ seeding.

    Deterministic given (rows, k, restarts, seed): restart t draws from its
    own derived stream, and ties in the objective break toward the earliest
    restart.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    n = rows.shape[0]
    if k < 1:
        raise DimensionMismatch(f"need k >= 1, got {k}")
    if n < k:
        raise TooFewPoints(f"{n} rows for k={k} clusters")
    best = None
    for t in range(restarts):
        gen = substream(seed, 3, t)
        centers = _kmeanspp_init(rows, k, gen)
        labels, centers, obj = _lloyd(rows, k, centers.copy())
        if best is None or obj < best[2]:
            best = (labels, centers, obj)
    labels, centers, obj = best
    return KmeansResult(
        assignment=ClusterAssignment(labels, k),
        centroids=centers,
        objective=obj,
    )


def align_labels(est, truth):
    """Label permutation minimizing the Hamming distance to the truth.

    Returns (perm, hamming) where perm[j] is the estimated label matched to
    true label j and hamming counts the disagreements after that matching.
    A maximum-weight matching on the confusion matrix, so exact at any k.
    """
    if est.n != truth.n:
        raise DimensionMismatch(f"length mismatch {est.n} vs {truth.n}")
    if est.k != truth.k:
        raise DimensionMismatch(f"k mismatch {est.k} vs {truth.k}")
    k = est.k
    # confusion[s, t] = #items with true label s and estimated label t
    pair_ids = truth.labels * k + est.labels
    confusion = np.bincount(pair_ids, minlength=k * k).reshape(k, k)
    # all weights positive: the sparse graph is complete bipartite, and
    # confusion + 1 has the same maximum-weight matchings as confusion
    _, perm = min_weight_full_bipartite_matching(
        csr_array(confusion + 1), maximize=True
    )
    perm = perm.astype(np.int64)
    agree = int(confusion[np.arange(k), perm].sum())
    return perm, est.n - agree


def relabel(est, perm):
    """Rewrite estimated labels into the true labeling matched by perm.

    perm comes from align_labels: est label perm[j] becomes label j.
    """
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return ClusterAssignment(inverse[est.labels], est.k)
