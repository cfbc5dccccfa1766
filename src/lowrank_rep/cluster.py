"""Clustering utilities: balanced assignments, Lloyd's k-means with
restarts, label alignment.

k-means runs its restarts stacked in one k-means++ and one Lloyd pass; each
restart keeps its own random stream and gets the labels, centroids and
objective it would get alone.

Labels are integers in range(k).  Alignment between an estimated and a true
assignment solves the linear assignment problem on their k x k confusion
matrix exactly (Jonker-Volgenant shortest augmenting paths), polynomial in
k.  It runs through scipy.sparse.csgraph rather than
scipy.optimize.linear_sum_assignment, imported on the first call, so that
only the kinds that align labels (the two studies) load it.  On a 2-core
machine, once the sparse spectral step has loaded scipy.sparse.linalg,
importing scipy.sparse.csgraph adds 3-5 ms and 1 MiB, scipy.optimize
0.23-0.28 s and 17 MiB.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, TooFewPoints
from .rngs import substream

__all__ = [
    "ClusterAssignment",
    "balanced_assignment",
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


def balanced_assignment(n, pi):
    """Deterministic membership with class sizes proportional to pi.

    Largest-remainder rounding; labels laid out in sorted blocks.  n must
    be an integer >= 0 and pi a vector of positive proportions summing to 1
    (DimensionMismatch otherwise); this is the one check of the studies'
    proportions.
    """
    if not isinstance(n, Integral) or n < 0:
        raise DimensionMismatch(f"need an integer n >= 0, got {n!r}")
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or not np.all(pi > 0.0) or abs(pi.sum() - 1.0) > 1e-12:
        raise DimensionMismatch(
            f"proportions must be positive and sum to 1, got {pi.tolist()}"
        )
    K = pi.size
    counts = np.floor(pi * n).astype(np.int64)
    short = n - counts.sum()
    if short > 0:
        frac = pi * n - np.floor(pi * n)
        for j in np.argsort(-frac, kind="stable")[:short]:
            counts[j] += 1
    return ClusterAssignment(np.repeat(np.arange(K), counts), K)


@dataclass(frozen=True)
class KmeansResult:
    assignment: ClusterAssignment
    centroids: np.ndarray = field(repr=False)
    objective: float = 0.0


def _sq_dists(rows, row_sq, centers):
    # ||x - c||^2 for every row and every centre of each restart, (T, n, k),
    # summed as ||x||^2 - 2 x.c + ||c||^2; row_sq holds ||x||^2 repeated
    # over the k columns, so its sum runs over whole contiguous slices.
    # matmul makes one BLAS product per restart, the call a 2-D product
    # makes, so each slice has the bits of a restart run alone.
    d2 = -2.0 * rows @ centers.transpose(0, 2, 1)
    d2 += row_sq
    d2 += np.sum(centers**2, axis=2)[:, None, :]
    return d2


def _kmeanspp_init(rows, k, gens):
    # Step j picks centre j of every restart at once; restart t draws only
    # from gens[t].  A pick is Generator.choice(n, p=d2 / total) written
    # out: the same uniform, the same cdf, and its searchsorted-right index
    # as the count of cdf <= u.
    n = rows.shape[0]
    centers = np.empty((len(gens), k, rows.shape[1]))
    centers[:, 0] = rows[[gen.integers(n) for gen in gens]]
    d2 = np.sum((rows - centers[:, :1]) ** 2, axis=2)
    for j in range(1, k):
        total = d2.sum(axis=1)
        flat = total <= 0.0  # all points coincide with a centre
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
        u = [0.0 if f else gen.random() for gen, f in zip(gens, flat)]
        idx = np.count_nonzero(cdf <= np.array(u)[:, None], axis=1)
        for t in np.flatnonzero(flat):
            idx[t] = gens[t].integers(n)
        centers[:, j] = rows[idx]
        d2 = np.minimum(d2, np.sum((rows - centers[:, j, None]) ** 2, axis=2))
    return centers


def _repair_empty(rows, d2, labels, centers):
    # one restart's (n, k) slices, edited in place: reseed each empty
    # cluster at the worst-fit point
    n, k = d2.shape
    for j in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
        worst = int(np.argmax(d2[np.arange(n), labels]))
        centers[j] = rows[worst]
        labels[worst] = j
        d2[:, j] = np.sum((rows - centers[j]) ** 2, axis=1)


def _centroids(rows, labels, centers):
    # Cluster means of each restart, bit-equal to members.mean(axis=0); an
    # empty cluster keeps its centre.  mean adds a block of >= 2 columns row
    # by row, which np.bincount does in row order.  A single column it sums
    # pairwise, which np.add.reduceat does over each cluster's run of
    # members behind a 0.0.
    T = labels.shape[0]
    k, d = centers.shape[1:]
    ids = (np.arange(T)[:, None] * k + labels).ravel()
    counts = np.bincount(ids, minlength=T * k)
    filled = counts > 0
    sums = np.zeros((T * k, d))
    if d == 1:
        members = np.tile(rows[:, 0], T)[np.argsort(ids, kind="stable")]
        starts = (np.cumsum(counts) - counts)[filled]
        padded = np.insert(members, starts, 0.0)
        sums[filled, 0] = np.add.reduceat(padded, starts + np.arange(starts.size))
    else:
        for c in range(d):
            weights = np.tile(rows[:, c], T)
            sums[:, c] = np.bincount(ids, weights=weights, minlength=T * k)
    out = centers.reshape(T * k, d).copy()
    out[filled] = sums[filled] / counts[filled, None]
    return out.reshape(T, k, d)


def _lloyd(rows, k, centers):
    # Lloyd iterations of all restarts in one stack, centers (T, k, d) in
    # place.  Each restart takes the steps it would take alone and leaves
    # the active set once its labels stop changing.
    T, n = centers.shape[0], rows.shape[0]
    row_sq = np.repeat(np.sum(rows**2, axis=1)[:, None], k, axis=1)
    labels = np.full((T, n), -1, dtype=np.int64)
    active = np.arange(T)
    for _ in range(MAX_LLOYD_ITER):
        live = centers[active]
        d2 = _sq_dists(rows, row_sq, live)
        new_labels = np.argmin(d2, axis=2)
        counts = np.bincount(
            (np.arange(active.size)[:, None] * k + new_labels).ravel(),
            minlength=active.size * k,
        )
        for a in np.flatnonzero((counts.reshape(-1, k) == 0).any(axis=1)):
            _repair_empty(rows, d2[a], new_labels[a], live[a])
        centers[active] = live
        moved = np.any(new_labels != labels[active], axis=1)
        active = active[moved]
        if active.size == 0:
            break
        labels[active] = new_labels[moved]
        centers[active] = _centroids(rows, labels[active], live[moved])
    d2 = _sq_dists(rows, row_sq, centers)
    obj = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return labels, obj


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
    if restarts < 1:
        raise DimensionMismatch(f"need restarts >= 1, got {restarts}")
    if n < k:
        raise TooFewPoints(f"{n} rows for k={k} clusters")
    if not np.isfinite(rows).all():
        # k-means++ weights would be NaN (Generator.choice refused them)
        raise NonFiniteInput("k-means rows must be finite")
    gens = [substream(seed, 3, t) for t in range(restarts)]
    centers = _kmeanspp_init(rows, k, gens)
    labels, obj = _lloyd(rows, k, centers)
    best = int(np.argmin(obj))
    return KmeansResult(
        assignment=ClusterAssignment(labels[best], k),
        centroids=centers[best],
        objective=float(obj[best]),
    )


def align_labels(est, truth):
    """Label permutation minimizing the Hamming distance to the truth.

    Returns (perm, hamming) where perm[j] is the estimated label matched to
    true label j and hamming counts the disagreements after that matching.
    A maximum-weight matching on the confusion matrix, so exact at any k.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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
