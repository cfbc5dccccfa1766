"""k-means and label-alignment tests.

Alignment answers are cross-checked by brute force over all k! label
permutations (k <= 6), so the constructed instances double as oracles.
The stacked k-means is checked bit for bit against the per-restart loop of
helpers.py (Generator.choice seeding, one Lloyd loop per restart).
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowrank_rep.cluster import (
    ClusterAssignment,
    align_labels,
    balanced_assignment,
    kmeans,
    relabel,
)
from lowrank_rep.errors import DimensionMismatch, NonFiniteInput, TooFewPoints

from helpers import loop_kmeans, rng


def brute_hamming(est, truth):
    # d_H minimized over every relabeling of the truth
    best = None
    for perm in permutations(range(truth.k)):
        ham = int(np.sum(est.labels != np.asarray(perm)[truth.labels]))
        if best is None or ham < best:
            best = ham
    return best


# ---- assignments ----


def test_assignment_validates_range():
    with pytest.raises(DimensionMismatch):
        ClusterAssignment(np.array([0, 1, 2]), 2)
    with pytest.raises(DimensionMismatch):
        ClusterAssignment(np.array([-1, 0]), 2)
    with pytest.raises(DimensionMismatch):
        ClusterAssignment(np.array([0, 1]), 0)


def test_assignment_counts():
    a = ClusterAssignment(np.array([0, 2, 2, 1, 2]), 4)
    assert a.n == 5
    assert np.array_equal(a.counts(), [1, 1, 3, 0])


@pytest.mark.parametrize(
    "pi",
    [
        [-0.2, 0.6, 0.6],
        [0.0, 0.5, 0.5],
        [np.nan, 0.5, 0.5],
        [np.inf, 0.5, 0.5],
        [0.2, 0.3, 0.4],
        [0.5, 0.5, 0.5],
        [],
        [[0.5, 0.5]],
    ],
)
def test_balanced_assignment_rejects_bad_proportions(pi):
    # a bad proportion must raise a typed error before np.repeat sees counts
    with pytest.raises(DimensionMismatch, match="proportions"):
        balanced_assignment(60, np.array(pi, dtype=float))


@pytest.mark.parametrize("n", [-1, 60.0, 60.5, np.nan])
def test_balanced_assignment_rejects_bad_size(n):
    with pytest.raises(DimensionMismatch, match="integer n"):
        balanced_assignment(n, np.full(3, 1.0 / 3.0))


def test_balanced_assignment_takes_numpy_and_zero_sizes():
    pi = np.full(3, 1.0 / 3.0)
    assert np.array_equal(balanced_assignment(np.int64(7), pi).counts(), [3, 2, 2])
    assert balanced_assignment(0, pi).n == 0


def test_balanced_assignment_takes_roundoff_sums():
    # proportions written to a few digits sum to 1 only up to roundoff
    pi = np.array([0.7, 0.1, 0.1, 0.1])
    assert pi.sum() != 1.0
    assert np.array_equal(balanced_assignment(10, pi).counts(), [7, 1, 1, 1])


# ---- kmeans ----


def test_kmeans_k1_is_mean():
    gen = rng(10)
    rows = gen.normal(size=(40, 3))
    res = kmeans(rows, 1, seed=0)
    assert np.allclose(res.centroids[0], rows.mean(axis=0), atol=1e-12)
    oracle = float(np.sum((rows - rows.mean(axis=0)) ** 2))
    assert abs(res.objective - oracle) <= 1e-10 * (1.0 + oracle)
    assert np.array_equal(res.assignment.labels, np.zeros(40, dtype=np.int64))


def test_kmeans_k_equals_n_zero_objective():
    gen = rng(11)
    rows = gen.normal(size=(8, 2))
    res = kmeans(rows, 8, seed=1)
    assert res.objective <= 1e-12


def test_kmeans_separated_clouds():
    gen = rng(12)
    rows = np.vstack(
        [gen.normal(size=(30, 2)) * 0.1, gen.normal(size=(25, 2)) * 0.1 + 10.0]
    )
    truth = ClusterAssignment(np.repeat([0, 1], [30, 25]), 2)
    res = kmeans(rows, 2, seed=2)
    _, ham = align_labels(res.assignment, truth)
    assert ham == 0


def test_kmeans_centroids_are_cluster_means():
    gen = rng(13)
    rows = gen.normal(size=(60, 2))
    res = kmeans(rows, 4, seed=3)
    for j in range(4):
        members = rows[res.assignment.labels == j]
        assert members.shape[0] > 0
        assert np.allclose(res.centroids[j], members.mean(axis=0), atol=1e-10)


def test_kmeans_deterministic():
    gen = rng(14)
    rows = gen.normal(size=(50, 3))
    a = kmeans(rows, 3, seed=7)
    b = kmeans(rows, 3, seed=7)
    assert np.array_equal(a.assignment.labels, b.assignment.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.objective == b.objective


def test_kmeans_objective_invariant_under_row_permutation():
    gen = rng(15)
    rows = gen.normal(size=(45, 2))
    perm = gen.permutation(45)
    a = kmeans(rows, 3, seed=4)
    b = kmeans(rows[perm], 3, seed=4)
    assert abs(a.objective - b.objective) <= 1e-9 * (1.0 + a.objective)


@st.composite
def kmeans_inputs(draw):
    """(rows, k, restarts, seed): n <= 400 rows of 1-4 columns, k in
    1..min(6, n), 1-25 restarts.  Rows are Gaussian, rounded to a coarse
    grid (distance ties), or copies of a few points; with fewer distinct
    points than k, k-means++ meets total d^2 = 0 and Lloyd empty clusters."""
    n = draw(st.integers(1, 400))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(6, n)))
    restarts = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = rng(seed)
    rows = gen.normal(size=(n, d))
    style = draw(st.sampled_from(["gaussian", "rounded", "copies"]))
    if style == "rounded":
        rows = np.round(rows, draw(st.integers(0, 1)))
    elif style == "copies":
        distinct = draw(st.integers(1, min(k + 1, n)))
        rows = np.round(rows[gen.integers(0, distinct, size=n)], 1)
    return rows, k, restarts, int(gen.integers(2**31))


def assert_matches_loop_oracle(rows, k, restarts, seed):
    res = kmeans(rows, k, restarts=restarts, seed=seed)
    labels, centroids, objective = loop_kmeans(rows, k, restarts, seed)
    assert np.array_equal(res.assignment.labels, labels)
    assert np.array_equal(res.centroids, centroids)
    assert res.objective == objective


@given(kmeans_inputs())
# three equal points: every k-means++ pick after the first has total d^2 = 0,
# and Lloyd reseeds two empty clusters
@example((np.zeros((3, 2)), 3, 4, 0))
@example((np.zeros((5, 1)), 3, 2, 1))
# k = n, and a single column with ties at cluster midpoints
@example((np.arange(6.0)[:, None], 6, 25, 2))
@example((np.repeat([0.1, 0.2, 0.3], [10, 1, 10])[:, None], 2, 25, 3))
@settings(max_examples=120, deadline=None)
def test_kmeans_matches_loop_oracle(case):
    assert_matches_loop_oracle(*case)


@pytest.mark.parametrize("d, k", [(1, 2), (2, 3), (3, 3)])
def test_kmeans_matches_loop_oracle_at_study_size(d, k):
    # the shape of the studies' spectral embeddings: n = 1200, 20 restarts
    gen = rng(20 + d)
    means = gen.normal(size=(k, d)) * 0.05
    rows = means[gen.integers(0, k, size=1200)] + gen.normal(size=(1200, d)) * 0.02
    assert_matches_loop_oracle(rows, k, 20, 7)


def test_kmeans_too_few_points():
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((2, 2)), 3, seed=0)


@pytest.mark.parametrize("restarts", [0, -1])
def test_kmeans_rejects_no_restarts(restarts):
    rows = rng(22).normal(size=(20, 2))
    with pytest.raises(DimensionMismatch, match="restarts"):
        kmeans(rows, 3, restarts=restarts, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_nonfinite_rows(bad):
    rows = rng(21).normal(size=(20, 2))
    rows[3, 1] = bad
    with pytest.raises(NonFiniteInput, match="finite"):
        kmeans(rows, 2, restarts=3, seed=0)


# ---- alignment ----


def test_align_identity():
    truth = ClusterAssignment(np.array([0, 1, 2, 0, 1, 2]), 3)
    perm, ham = align_labels(truth, truth)
    assert np.array_equal(perm, [0, 1, 2])
    assert ham == 0


def test_align_swap():
    truth = ClusterAssignment(np.array([0, 0, 1, 1, 1]), 2)
    est = ClusterAssignment(1 - truth.labels, 2)
    perm, ham = align_labels(est, truth)
    assert np.array_equal(perm, [1, 0])
    assert ham == 0
    assert np.array_equal(relabel(est, perm).labels, truth.labels)


def test_align_three_mismatches():
    truth = ClusterAssignment(np.repeat([0, 1, 2], 5), 3)
    # relabel truth by the cycle 0->1->2->0, then corrupt one slot per class
    est_labels = (truth.labels + 1) % 3
    est_labels[0] = 0
    est_labels[5] = 1
    est_labels[10] = 2
    est = ClusterAssignment(est_labels, 3)
    perm, ham = align_labels(est, truth)
    assert ham == 3
    assert ham == brute_hamming(est, truth)
    assert np.array_equal(perm, [1, 2, 0])


def test_align_matches_brute_force_randomized():
    gen = rng(16)
    for _ in range(20):
        k = int(gen.integers(2, 5))
        n = int(gen.integers(k, 30))
        truth = ClusterAssignment(gen.integers(0, k, size=n), k)
        est = ClusterAssignment(gen.integers(0, k, size=n), k)
        _, ham = align_labels(est, truth)
        assert ham == brute_hamming(est, truth)
        # the identity relabeling is always a candidate
        assert ham <= int(np.sum(est.labels != truth.labels))


def test_align_relabel_consistency():
    gen = rng(17)
    truth = ClusterAssignment(gen.integers(0, 3, size=40), 3)
    est = ClusterAssignment(gen.integers(0, 3, size=40), 3)
    perm, ham = align_labels(est, truth)
    aligned = relabel(est, perm)
    assert int(np.sum(aligned.labels != truth.labels)) == ham


def test_align_matches_brute_force_up_to_six_classes():
    # concentrated confusions (mostly one cyclic relabeling, some noise) make
    # ties and near-ties in the matching weight common
    gen = rng(18)
    for _ in range(60):
        k = int(gen.integers(1, 7))
        n = int(gen.integers(k, 40))
        truth = ClusterAssignment(gen.integers(0, k, size=n), k)
        shift = int(gen.integers(k))
        noisy = gen.random(n) < gen.uniform(0.0, 0.6)
        labels = np.where(noisy, gen.integers(0, k, size=n), (truth.labels + shift) % k)
        est = ClusterAssignment(labels, k)
        perm, ham = align_labels(est, truth)
        assert ham == brute_hamming(est, truth)
        assert sorted(perm.tolist()) == list(range(k))
        assert int(np.sum(relabel(est, perm).labels != truth.labels)) == ham


def test_align_eleven_classes():
    # beyond any exhaustive search: 11! orderings
    gen = rng(19)
    truth = ClusterAssignment(np.repeat(np.arange(11), 4), 11)
    shuffle = gen.permutation(11)
    labels = shuffle[truth.labels]
    labels[[0, 9]] = labels[[9, 0]]  # one swapped pair of items
    perm, ham = align_labels(ClusterAssignment(labels, 11), truth)
    assert ham == 2
    assert np.array_equal(perm, shuffle)


def test_align_shape_checks():
    a = ClusterAssignment(np.array([0, 1]), 2)
    b = ClusterAssignment(np.array([0, 1, 0]), 2)
    with pytest.raises(DimensionMismatch):
        align_labels(a, b)
