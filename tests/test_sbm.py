"""Block-model pipeline tests.

Oracles: binomial tail bounds for sampling, the full-matrix broadcast-index
formula for the streamed edge draws, dense eigh for the Lanczos span,
explicit loops over index pairs for the class tally, log-likelihood, score
and Fisher matrix, finite differences for the score, the closed-form
saturated estimator at full rank, and the law-of-large-numbers bridge
between the finite-sample Fisher and its n-free limit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowrank_rep.cluster import ClusterAssignment, align_labels, relabel
from lowrank_rep.errors import (
    DimensionMismatch,
    EmptyBlock,
    ProbabilityOutOfRange,
    RankMismatch,
)
from lowrank_rep.matkit import duplication_pinv, vec, vech
from lowrank_rep.rngs import generator
from lowrank_rep.sbm import (
    DENSE_EIG_MAX,
    BlockCounts,
    SbmExperimentConfig,
    SbmModel,
    asymptotic_cov_J,
    balanced_assignment,
    block_counts,
    block_mean_estimator,
    clip_probabilities,
    one_step,
    project_to_manifold,
    sample_adjacency,
    sbm_experiment,
    sbm_fisher,
    sbm_log_likelihood,
    sbm_score,
    spectral_cluster_sbm,
)
from lowrank_rep.sbm import _leading_eigvecs, _symv_operator
from lowrank_rep.symrep import ThetaSym, dsigma, sigma_of_theta, theta_of_sigma

from helpers import fd_jacobian, rng

# rank-2 K=3 block matrix with entries well inside (0,1)
SIGMA_R2 = np.outer([0.7, 0.5, 0.6], [0.7, 0.5, 0.6]) + 0.1 * np.outer(
    [1.0, -1.0, 0.5], [1.0, -1.0, 0.5]
)
# full-rank K=2 case
SIGMA_FULL = np.array([[0.6, 0.3], [0.3, 0.5]])


def uniform_model(Sigma, r, n):
    K = Sigma.shape[0]
    pi = np.full(K, 1.0 / K)
    return SbmModel(Sigma, balanced_assignment(n, pi), r, pi)


def shuffled_model(seed, n):
    # unsorted labels: pairs i<j fall into both (s,t) and (t,s)
    tau = ClusterAssignment(rng(seed).permutation(np.arange(n) % 3), 3)
    return SbmModel(SIGMA_R2, tau, 2, np.full(3, 1.0 / 3.0))


# ---- model validation ----


def test_model_checks_rank():
    with pytest.raises(RankMismatch):
        uniform_model(SIGMA_R2, 3, 30)
    with pytest.raises(RankMismatch):
        uniform_model(SIGMA_FULL, 1, 30)


def test_model_checks_probability_range():
    with pytest.raises(ProbabilityOutOfRange):
        uniform_model(np.array([[1.2, 0.3], [0.3, 0.5]]), 2, 30)


def test_balanced_assignment_counts():
    tau = balanced_assignment(601, np.full(3, 1.0 / 3.0))
    assert tau.n == 601
    assert sorted(tau.counts()) == [200, 200, 201]
    assert np.array_equal(tau.labels, np.sort(tau.labels))


# ---- sampling ----


def test_adjacency_symmetric_zero_diagonal():
    model = uniform_model(SIGMA_R2, 2, 60)
    A = sample_adjacency(model, 0)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert set(np.unique(A)) <= {0, 1}


def test_adjacency_deterministic_per_seed():
    model = uniform_model(SIGMA_R2, 2, 50)
    assert np.array_equal(sample_adjacency(model, 9), sample_adjacency(model, 9))
    assert not np.array_equal(sample_adjacency(model, 9), sample_adjacency(model, 10))


def test_adjacency_sparse_limit_edge_count():
    # p = 0.001 on 1225 pairs: mean 1.225, sd ~ 1.107; 5 sd band
    model = uniform_model(np.array([[0.001]]), 1, 50)
    A = sample_adjacency(model, 3)
    edges = int(A.sum()) // 2
    assert abs(edges - 1.225) <= 5 * 1.107


def test_adjacency_block_frequencies():
    n = 400
    model = uniform_model(SIGMA_FULL, 2, n)
    A = sample_adjacency(model, 4)
    c = block_counts(A, model.tau0)
    freq = c.m / c.npairs
    # independent Bernoulli draws per block: unordered pairs, so the ordered
    # within-class count is halved
    draws = c.npairs - np.diag(np.diag(c.npairs)) / 2
    sd = np.sqrt(SIGMA_FULL * (1 - SIGMA_FULL) / draws)
    assert np.all(np.abs(freq - SIGMA_FULL) <= 4 * sd)


@pytest.mark.parametrize("seed", [12, 13])
def test_adjacency_matches_broadcast_index_oracle(seed):
    model = shuffled_model(seed, 45)
    labels = model.tau0.labels
    P = SIGMA_R2[labels[:, None], labels[None, :]]
    upper = np.triu(generator(seed).random((45, 45)) < P, 1).astype(np.int8)
    oracle = upper + upper.T
    A = sample_adjacency(model, seed)
    assert A.dtype == oracle.dtype
    assert np.array_equal(A, oracle)


@given(
    k=st.integers(1, 4),
    n=st.integers(1, 800),
    seed=st.integers(0, 2**32 - 1),
)
# one block is 2**17 // n rows: n = 362 fills exactly one block, 363 is the
# first size that spills into a second, and the prime 401 ends on a short one
@example(k=2, n=1, seed=0)
@example(k=3, n=2, seed=1)
@example(k=4, n=362, seed=2)
@example(k=3, n=363, seed=3)
@example(k=4, n=401, seed=4)
@settings(max_examples=40, deadline=None)
def test_streamed_adjacency_matches_full_matrix_oracle(k, n, seed):
    # shuffled labels (empty classes allowed) and a random symmetric truth
    gen = rng(seed)
    labels = gen.integers(0, k, n)
    S = np.triu(gen.uniform(0.02, 0.98, size=(k, k)))
    S = S + np.triu(S, 1).T
    sv = np.linalg.svd(S, compute_uv=False)
    r = int(np.sum(sv > 1e-9 * sv[0]))
    model = SbmModel(S, ClusterAssignment(labels, k), r, np.full(k, 1.0 / k))
    P = S[labels[:, None], labels[None, :]]
    upper = np.triu(generator(seed).random((n, n)) < P, 1).astype(np.int8)
    oracle = upper + upper.T
    A = sample_adjacency(model, seed)
    assert A.dtype == oracle.dtype
    assert np.array_equal(A, oracle)


# ---- spectral clustering ----


@pytest.mark.parametrize("n", [401, 600])
def test_lanczos_span_matches_dense_eigh(n):
    assert n > DENSE_EIG_MAX  # the eigsh branch
    model = shuffled_model(n, n)
    A = sample_adjacency(model, 21)
    V = _leading_eigvecs(A, 2, 21)
    lam, W = np.linalg.eigh(A.astype(float))
    W = W[:, np.argsort(-np.abs(lam), kind="stable")[:2]]
    assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-12
    sin_theta = np.linalg.norm(W - V @ (V.T @ W), 2)
    assert sin_theta < 1e-10


def test_symv_operator_matches_matmul():
    Af = sample_adjacency(shuffled_model(14, 500), 14).astype(float)
    op = _symv_operator(Af)
    for x in rng(15).standard_normal((3, 500)):
        y = Af @ x
        assert np.linalg.norm(op.matvec(x) - y) <= 1e-12 * np.linalg.norm(y)


def test_spectral_two_cliques():
    n1, n2 = 12, 8
    A = np.zeros((n1 + n2, n1 + n2), dtype=np.int8)
    A[:n1, :n1] = 1
    A[n1:, n1:] = 1
    np.fill_diagonal(A, 0)
    truth = ClusterAssignment(np.repeat([0, 1], [n1, n2]), 2)
    tau_hat = spectral_cluster_sbm(A, 1, 2, seed=0)
    _, ham = align_labels(tau_hat, truth)
    assert ham == 0


def test_spectral_single_class():
    model = uniform_model(SIGMA_R2, 2, 30)
    A = sample_adjacency(model, 1)
    tau_hat = spectral_cluster_sbm(A, 1, 1, seed=0)
    assert np.array_equal(tau_hat.labels, np.zeros(30, dtype=np.int64))


def test_spectral_recovery_rate_strong_signal():
    # strong assortative signal at n = 600: exact recovery nearly always
    S = np.full((3, 3), 0.1) + np.diag([0.6, 0.6, 0.6])
    model = uniform_model(S, 3, 600)
    good = 0
    for i in range(100):
        A = sample_adjacency(model, 1000 + i)
        tau_hat = spectral_cluster_sbm(A, 3, 3, seed=1000 + i)
        _, ham = align_labels(tau_hat, model.tau0)
        good += ham == 0
    assert good >= 95


# ---- class-pair tally and block means ----


@st.composite
def labelled_graphs(draw):
    """Unsorted labels, possibly with empty and singleton classes, and a
    symmetric 0/1 adjacency with zero diagonal."""
    k = draw(st.integers(1, 4))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), max_size=14)), dtype=np.int64)
    n = labels.size
    upper = np.triu(rng(draw(st.integers(0, 2**32 - 1))).random((n, n)) < 0.5, 1)
    A = upper.astype(np.int8)
    return A + A.T, ClusterAssignment(labels, k)


def loop_tally(A, tau):
    m = np.zeros((tau.k, tau.k), dtype=np.int64)
    npairs = np.zeros((tau.k, tau.k), dtype=np.int64)
    for i in range(tau.n):
        for j in range(tau.n):
            if i != j:
                s, t = tau.labels[i], tau.labels[j]
                m[s, t] += A[i, j]
                npairs[s, t] += 1
    return m, npairs


@given(labelled_graphs())
@example((np.zeros((0, 0), dtype=np.int8), ClusterAssignment(np.zeros(0), 2)))
@example((np.zeros((1, 1), dtype=np.int8), ClusterAssignment(np.array([1]), 3)))
@settings(max_examples=80, deadline=None)
def test_block_counts_matches_pair_loop(graph):
    A, tau = graph
    c = block_counts(A, tau)
    m, npairs = loop_tally(A, tau)
    assert c.m.dtype == np.int64 and c.npairs.dtype == np.int64
    assert np.array_equal(c.m, m)
    assert np.array_equal(c.npairs, npairs)


@given(labelled_graphs())
@settings(max_examples=60, deadline=None)
def test_block_mean_rejects_classes_without_pairs(graph):
    A, tau = graph
    counts = block_counts(A, tau)
    if np.any(tau.counts() < 2):
        with pytest.raises(EmptyBlock):
            block_mean_estimator(counts)
    else:
        m, npairs = loop_tally(A, tau)
        assert np.array_equal(block_mean_estimator(counts), m / npairs)


def test_block_counts_shape_mismatch():
    tau = ClusterAssignment(np.zeros(3, dtype=np.int64), 1)
    with pytest.raises(DimensionMismatch):
        block_counts(np.zeros((4, 4), dtype=np.int8), tau)


def test_block_mean_all_ones_single_class():
    n = 6
    A = 1 - np.eye(n, dtype=np.int8)
    tau = ClusterAssignment(np.zeros(n, dtype=np.int64), 1)
    assert np.array_equal(block_mean_estimator(block_counts(A, tau)), [[1.0]])


def test_block_mean_concentrates():
    n = 500
    model = uniform_model(SIGMA_R2, 2, n)
    A = sample_adjacency(model, 6)
    est = block_mean_estimator(block_counts(A, model.tau0))
    assert np.array_equal(est, est.T)
    counts = model.tau0.counts().astype(float)
    pairs = np.outer(counts, counts)
    np.fill_diagonal(pairs, counts * (counts - 1))
    sd = np.sqrt(SIGMA_R2 * (1 - SIGMA_R2) / pairs)
    assert np.all(np.abs(est - SIGMA_R2) <= 4 * sd)


def test_block_mean_empty_class():
    A = np.zeros((4, 4), dtype=np.int8)
    tau = ClusterAssignment(np.array([0, 0, 0, 0]), 2)  # class 1 absent
    with pytest.raises(EmptyBlock):
        block_mean_estimator(block_counts(A, tau))


def test_block_mean_singleton_class():
    A = np.zeros((3, 3), dtype=np.int8)
    tau = ClusterAssignment(np.array([0, 0, 1]), 2)  # class 1 has no pairs
    with pytest.raises(EmptyBlock):
        block_mean_estimator(block_counts(A, tau))


def test_clip_probabilities():
    S = np.array([[0.0, 0.5], [0.5, 1.0]])
    C = clip_probabilities(S)
    assert C[0, 0] == 1e-4 and C[1, 1] == 1.0 - 1e-4 and C[0, 1] == 0.5


# ---- projection ----


def test_project_recovers_exact_point():
    theta = theta_of_sigma(SIGMA_R2, 2)
    out = project_to_manifold(sigma_of_theta(theta), 2)
    assert np.allclose(out.as_vector(), theta.as_vector(), atol=1e-8)


def test_project_beats_truth_and_is_stationary():
    gen = rng(21)
    theta = theta_of_sigma(SIGMA_R2, 2)
    noise = gen.normal(size=(3, 3)) * 1e-3
    target = sigma_of_theta(theta) + 0.5 * (noise + noise.T)
    out = project_to_manifold(target, 2)
    fit = np.linalg.norm(sigma_of_theta(out) - target)
    ref = np.linalg.norm(sigma_of_theta(theta) - target)
    assert fit <= ref + 1e-12
    grad = dsigma(out).T @ vec(target - sigma_of_theta(out))
    assert np.linalg.norm(grad) <= 1e-8


# ---- likelihood, score, Fisher ----


def sampled_instance(seed, n=40):
    model = uniform_model(SIGMA_R2, 2, n)
    A = sample_adjacency(model, seed)
    theta = theta_of_sigma(SIGMA_R2, 2)
    return model, A, theta


def pair_terms(theta, tau):
    """(i, j, S_st, D^T vec(E_st)) for every index pair i < j."""
    S = sigma_of_theta(theta)
    D = dsigma(theta)
    K = S.shape[0]
    for i in range(tau.n):
        for j in range(i + 1, tau.n):
            s, t = tau.labels[i], tau.labels[j]
            E = np.zeros((K, K))
            E[s, t] = 1.0
            yield i, j, S[s, t], D.T @ vec(E)


def shuffled_instance(seed, n=30):
    model = shuffled_model(seed, n)
    return model.tau0, sample_adjacency(model, seed), theta_of_sigma(SIGMA_R2, 2)


def test_log_likelihood_matches_pair_loop():
    tau, A, theta = shuffled_instance(34)
    oracle = sum(
        np.log(p) if A[i, j] else np.log1p(-p) for i, j, p, _ in pair_terms(theta, tau)
    )
    got = sbm_log_likelihood(theta, block_counts(A, tau))
    assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_score_matches_pair_loop():
    tau, A, theta = shuffled_instance(35)
    oracle = sum(
        (A[i, j] - p) / (p * (1.0 - p)) * x for i, j, p, x in pair_terms(theta, tau)
    )
    got = sbm_score(theta, block_counts(A, tau))
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_score_zero_at_exact_edge_fractions():
    # Sigma = 1/2 and exactly half of all pairs present: score vanishes
    theta = theta_of_sigma(np.array([[0.5]]), 1)
    tau = ClusterAssignment(np.zeros(4, dtype=np.int64), 1)
    A = np.zeros((4, 4), dtype=np.int8)
    for i, j in [(0, 1), (0, 2), (0, 3)]:
        A[i, j] = A[j, i] = 1
    assert np.array_equal(sbm_score(theta, block_counts(A, tau)), np.zeros(1))


def test_score_matches_finite_difference():
    model, A, theta = sampled_instance(30)
    counts = block_counts(A, model.tau0)
    x = theta.as_vector()

    def loglik(v):
        return np.array([sbm_log_likelihood(ThetaSym.from_vector(3, 2, v), counts)])

    fd = fd_jacobian(loglik, x)[0]
    g = sbm_score(theta, counts)
    assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


def test_probability_range_guard():
    bad = ThetaSym.from_vector(1, 1, np.array([1.5]))  # Sigma = [1.5]
    tau = ClusterAssignment(np.zeros(3, dtype=np.int64), 1)
    counts = block_counts(np.zeros((3, 3), dtype=np.int8), tau)
    with pytest.raises(ProbabilityOutOfRange):
        sbm_score(bad, counts)
    with pytest.raises(ProbabilityOutOfRange):
        sbm_fisher(bad, counts)
    with pytest.raises(ProbabilityOutOfRange):
        sbm_log_likelihood(bad, counts)


def brute_fisher(theta, tau):
    return sum(np.outer(x, x) / (p * (1.0 - p)) for _, _, p, x in pair_terms(theta, tau))


def test_fisher_matches_brute_force():
    model, A, theta = sampled_instance(31, n=30)
    F = sbm_fisher(theta, block_counts(A, model.tau0))
    B = brute_fisher(theta, model.tau0)
    assert np.linalg.norm(F - B) <= 1e-10 * np.linalg.norm(B)


def test_fisher_matches_brute_force_shuffled_labels():
    tau, A, theta = shuffled_instance(36)
    F = sbm_fisher(theta, block_counts(A, tau))
    B = brute_fisher(theta, tau)
    assert np.linalg.norm(F - B) <= 1e-10 * np.linalg.norm(B)


def test_fisher_psd():
    model, A, theta = sampled_instance(32, n=50)
    F = sbm_fisher(theta, block_counts(A, model.tau0))
    assert np.array_equal(F, F.T)
    lam = np.linalg.eigvalsh(F)
    assert lam[0] >= -1e-10 * np.linalg.norm(F, 2)


def test_fisher_no_pairs_is_zero():
    theta = theta_of_sigma(np.array([[0.5]]), 1)
    tau = ClusterAssignment(np.zeros(1, dtype=np.int64), 1)
    counts = block_counts(np.zeros((1, 1), dtype=np.int8), tau)
    assert np.array_equal(sbm_fisher(theta, counts), np.zeros((1, 1)))


# ---- one-step estimator ----


def test_one_step_fixed_point_at_zero_score():
    theta = theta_of_sigma(np.array([[0.5]]), 1)
    tau = ClusterAssignment(np.zeros(4, dtype=np.int64), 1)
    A = np.zeros((4, 4), dtype=np.int8)
    for i, j in [(0, 1), (0, 2), (0, 3)]:
        A[i, j] = A[j, i] = 1
    out = one_step(theta, block_counts(A, tau))
    assert np.array_equal(out.as_vector(), theta.as_vector())


def test_one_step_defining_equation():
    model, A, theta = sampled_instance(33, n=60)
    counts = block_counts(A, model.tau0)
    out = one_step(theta, counts)
    F = sbm_fisher(theta, counts)
    g = sbm_score(theta, counts)
    lhs = F @ (out.as_vector() - theta.as_vector())
    assert np.linalg.norm(lhs - g) <= 1e-9 * (1.0 + np.linalg.norm(g))


def test_one_step_matches_saturated_estimator_at_full_rank():
    # at r = K the block edge fractions are the exact likelihood maximizer
    model = uniform_model(SIGMA_FULL, 2, 80)
    A = sample_adjacency(model, 5)
    counts = block_counts(A, model.tau0)
    naive = block_mean_estimator(counts)
    theta_tilde = project_to_manifold(clip_probabilities(naive), 2)
    theta_hat = one_step(theta_tilde, counts)
    assert np.linalg.norm(sigma_of_theta(theta_hat) - naive) <= 1e-6


# ---- limiting covariance ----


def test_cov_J_permutation_argument():
    theta = theta_of_sigma(SIGMA_R2, 2)
    pi = np.array([0.5, 0.3, 0.2])
    Pi = np.array([2, 0, 1])
    direct = asymptotic_cov_J(theta, pi[Pi])
    via_arg = asymptotic_cov_J(theta, pi, Pi)
    assert np.allclose(via_arg, direct, atol=1e-14)


def test_cov_J_matches_scaled_fisher():
    # (1/n^2) Fisher at n = 5000 with balanced classes approaches J
    theta = theta_of_sigma(SIGMA_R2, 2)
    pi = np.array([0.4, 0.35, 0.25])
    sizes = balanced_assignment(5000, pi).counts()
    # the Fisher reads only the pair counts; no 5000 x 5000 graph needed
    pairs = BlockCounts(
        m=np.zeros((3, 3), dtype=np.int64),
        npairs=np.outer(sizes, sizes) - np.diag(sizes),
    )
    F = sbm_fisher(theta, pairs)
    J = asymptotic_cov_J(theta, pi)
    err = np.linalg.norm(F / 5000.0**2 - J, 2) / np.linalg.norm(J, 2)
    assert err <= 0.02


def test_cov_J_full_rank_matches_block_mean_covariance():
    # delta-method covariance of the half-vectorized fit equals the
    # covariance of the independent per-block edge fractions
    K = 3
    S = np.array([[0.6, 0.3, 0.2], [0.3, 0.5, 0.25], [0.2, 0.25, 0.55]])
    pi = np.array([0.5, 0.3, 0.2])
    theta = theta_of_sigma(S, K)
    J = asymptotic_cov_J(theta, pi)
    D = dsigma(theta)
    Dp = duplication_pinv(K)
    C = Dp @ D @ np.linalg.solve(J, D.T) @ Dp.T
    oracle = np.zeros((C.shape[0], C.shape[0]))
    idx = 0
    for j in range(K):
        for i in range(j, K):
            if i == j:
                oracle[idx, idx] = 2 * S[i, i] * (1 - S[i, i]) / pi[i] ** 2
            else:
                oracle[idx, idx] = S[i, j] * (1 - S[i, j]) / (pi[i] * pi[j])
            idx += 1
    assert np.linalg.norm(C - oracle) <= 1e-10 * np.linalg.norm(oracle)


# ---- experiment harness ----


def test_experiment_zero_replicates():
    config = SbmExperimentConfig(SIGMA_R2, r=2, n_values=(200,), replicates=0)
    (summary,) = sbm_experiment(config, base_seed=0)
    assert summary.replicates == 0
    assert summary.excluded == 0
    assert np.isnan(summary.mean_mse_main)


def test_experiment_smoke():
    config = SbmExperimentConfig(SIGMA_R2, r=2, n_values=(300,), replicates=5)
    (summary,) = sbm_experiment(config, base_seed=77)
    assert summary.n == 300
    assert summary.replicates == 5
    assert len(summary.rows) == 5
    kept = [row for row in summary.rows if not row["excluded_flag"]]
    assert len(kept) == 5 - summary.excluded
    for row in kept:
        assert row["z"].shape == (5,)
        assert row["aligned_hamming"] == 0
        assert np.isfinite(row["mse_main"]) and np.isfinite(row["mse_naive"])


def test_experiment_full_rank_mse_equivalence():
    # at r = K the refit collapses to the edge fractions, so both tracked
    # errors coincide replicate by replicate
    config = SbmExperimentConfig(SIGMA_FULL, r=2, n_values=(200,), replicates=20)
    (summary,) = sbm_experiment(config, base_seed=11)
    assert summary.excluded <= 2
    assert summary.mean_mse_main <= summary.mean_mse_naive * 1.05
    assert summary.mean_mse_main >= summary.mean_mse_naive * 0.95
