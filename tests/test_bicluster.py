"""Biclustering pipeline tests.

Oracles: exact reconstruction at zero noise, the one-hot product
Z_row Sigma0 Z_col^T for the sampler mean, Generator.normal for the
in-place Gaussian noise, CLT and moment bounds for the
samplers, a hand-derived closed form for the limiting covariance under
uniform proportions, and a direct Monte Carlo check that the standardized
estimation errors have identity covariance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_rep.bicluster import (
    BiclusterExperimentConfig,
    BiclusterModel,
    asymptotic_cov_G,
    bicluster_experiment,
    block_means,
    sample_data,
    spectral_cocluster,
)
from lowrank_rep.cluster import (
    ClusterAssignment,
    align_labels,
    balanced_assignment,
    relabel,
)
from lowrank_rep.errors import (
    ConfigError,
    DegenerateTopBlock,
    DimensionMismatch,
    EmptyBlock,
    RankMismatch,
)
from lowrank_rep.gaussnewton import fit_rect
from lowrank_rep.matkit import vec
from lowrank_rep.mc import invsqrt_pd
from lowrank_rep.rectrep import (
    dsigma_rect,
    sigma_of_theta_rect,
    theta_of_sigma_rect,
)

from helpers import normal_sample_data, rng

# rank-2 3x3 block means with well-separated rows and columns
SIGMA_B = np.outer([1.0, 2.0, 3.0], [1.0, 0.5, 2.0]) + np.outer(
    [2.0, -1.0, 1.0], [0.5, 2.0, -1.0]
)


def uniform_bimodel(m, n, sigma2, Sigma=SIGMA_B):
    p1, p2 = Sigma.shape
    return BiclusterModel(
        Sigma,
        balanced_assignment(m, np.full(p1, 1.0 / p1)),
        balanced_assignment(n, np.full(p2, 1.0 / p2)),
        sigma2,
    )


# ---- model ----


def test_model_validates_dimensions():
    with pytest.raises(DimensionMismatch):
        BiclusterModel(
            SIGMA_B,
            balanced_assignment(30, np.full(2, 0.5)),  # k=2 vs p1=3
            balanced_assignment(30, np.full(3, 1.0 / 3.0)),
            1.0,
        )
    with pytest.raises(DimensionMismatch):
        uniform_bimodel(30, 30, -1.0)


# ---- sampling ----


def test_sample_zero_noise_is_exact_signal():
    model = uniform_bimodel(9, 12, 0.0)
    Y = sample_data(model, 0)
    expect = SIGMA_B[model.tau0.labels][:, model.gamma0.labels]
    assert np.array_equal(Y, expect)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_sample_mean_matches_one_hot_product(seed):
    # shuffled labels, entries of both signs spanning 1e-3 .. 1e3
    gen = rng(seed)
    p1, p2 = gen.integers(1, 5, size=2)
    m, n = gen.integers(1, 901, size=2)
    Sigma = gen.choice([-1.0, 1.0], size=(p1, p2)) * 10.0 ** gen.uniform(
        -3, 3, size=(p1, p2)
    )
    tau = ClusterAssignment(gen.integers(0, p1, m), p1)
    gamma = ClusterAssignment(gen.integers(0, p2, n), p2)
    Zr = np.zeros((m, p1))
    Zr[np.arange(m), tau.labels] = 1.0
    Zc = np.zeros((n, p2))
    Zc[np.arange(n), gamma.labels] = 1.0
    Y = sample_data(BiclusterModel(Sigma, tau, gamma, 0.0), seed)
    assert np.array_equal(Y, Zr @ Sigma @ Zc.T)


@given(
    st.integers(1, 300) | st.just(1201),
    st.integers(1, 300),
    st.floats(1e-6, 1e3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_gaussian_sample_matches_normal_oracle(m, n, sigma2, seed):
    # scaling standard normals in place reproduces normal(0, s) + mean bit
    # for bit
    gen = rng(seed)
    p1, p2 = min(3, m), min(3, n)
    Sigma = gen.normal(size=(p1, p2))
    tau = ClusterAssignment(gen.integers(0, p1, m), p1)
    gamma = ClusterAssignment(gen.integers(0, p2, n), p2)
    model = BiclusterModel(Sigma, tau, gamma, sigma2)
    Y = sample_data(model, seed)
    want = normal_sample_data(model, seed)
    assert np.array_equal(Y.view(np.int64), want.view(np.int64))


def test_sample_deterministic():
    model = uniform_bimodel(20, 25, 1.0)
    assert np.array_equal(sample_data(model, 5), sample_data(model, 5))
    assert not np.array_equal(sample_data(model, 5), sample_data(model, 6))


def test_sample_matched_permutation_invariance():
    # permuting class identities and Sigma0 together leaves Y unchanged
    gen = rng(40)
    m, n = 21, 18
    model = uniform_bimodel(m, n, 0.81)
    pr, pc = gen.permutation(3), gen.permutation(3)
    inv_r = np.argsort(pr)
    inv_c = np.argsort(pc)
    permuted = BiclusterModel(
        SIGMA_B[np.ix_(inv_r, inv_c)],
        ClusterAssignment(pr[model.tau0.labels], 3),
        ClusterAssignment(pc[model.gamma0.labels], 3),
        0.81,
    )
    assert np.array_equal(sample_data(model, 11), sample_data(permuted, 11))


def test_sample_block_mean_clt():
    model = uniform_bimodel(90, 120, 0.25)
    Y = sample_data(model, 7)
    B = block_means(Y, model.tau0, model.gamma0)
    counts = np.outer(model.tau0.counts(), model.gamma0.counts())
    assert np.all(np.abs(B - SIGMA_B) <= 4 * 0.5 / np.sqrt(counts))


def test_sample_entry_variance():
    model = uniform_bimodel(400, 400, 0.49)
    for noise in ("gaussian", "uniform"):
        Y = sample_data(model, 8, noise=noise)
        resid = Y - SIGMA_B[model.tau0.labels][:, model.gamma0.labels]
        assert abs(resid.var() - 0.49) <= 0.1 * 0.49
        if noise == "uniform":
            assert np.max(np.abs(resid)) <= np.sqrt(3 * 0.49) + 1e-12


def test_sample_rejects_unknown_noise():
    model = uniform_bimodel(10, 10, 1.0)
    for noise in ("cauchy", "rademacher", ""):
        with pytest.raises(DimensionMismatch):
            sample_data(model, 0, noise=noise)


# ---- co-clustering ----


def test_cocluster_noiseless_exact():
    model = uniform_bimodel(40, 33, 0.0)
    Y = sample_data(model, 0)
    tau_hat, gamma_hat = spectral_cocluster(Y, 2, 3, 3, seed=0)
    _, ham_r = align_labels(tau_hat, model.tau0)
    _, ham_c = align_labels(gamma_hat, model.gamma0)
    assert ham_r == 0 and ham_c == 0


def test_cocluster_single_classes():
    model = BiclusterModel(
        np.array([[2.0]]),
        balanced_assignment(8, np.ones(1)),
        balanced_assignment(6, np.ones(1)),
        0.1,
    )
    Y = sample_data(model, 1)
    tau_hat, gamma_hat = spectral_cocluster(Y, 1, 1, 1, seed=0)
    assert np.array_equal(tau_hat.labels, np.zeros(8, dtype=np.int64))
    assert np.array_equal(gamma_hat.labels, np.zeros(6, dtype=np.int64))


def test_cocluster_recovery_rate_moderate_noise():
    model = uniform_bimodel(400, 400, 1.0)
    good = 0
    for i in range(100):
        Y = sample_data(model, 500 + i)
        tau_hat, gamma_hat = spectral_cocluster(Y, 2, 3, 3, seed=500 + i)
        _, ham_r = align_labels(tau_hat, model.tau0)
        _, ham_c = align_labels(gamma_hat, model.gamma0)
        good += (ham_r + ham_c) == 0
    assert good >= 95


# ---- block means ----


def test_block_means_constant_input():
    tau = ClusterAssignment(np.array([0, 0, 1, 1, 1]), 2)
    gamma = ClusterAssignment(np.array([0, 1, 1, 0]), 2)
    B = block_means(np.full((5, 4), 3.25), tau, gamma)
    assert np.array_equal(B, np.full((2, 2), 3.25))


def test_block_means_noiseless_recovers_truth():
    model = uniform_bimodel(15, 21, 0.0)
    Y = sample_data(model, 0)
    B = block_means(Y, model.tau0, model.gamma0)
    assert np.allclose(B, SIGMA_B, atol=1e-12)


def test_block_means_empty_class():
    tau = ClusterAssignment(np.zeros(4, dtype=np.int64), 2)
    gamma = ClusterAssignment(np.array([0, 1, 0]), 2)
    with pytest.raises(EmptyBlock):
        block_means(np.ones((4, 3)), tau, gamma)


def test_block_means_permutation_equivariant():
    gen = rng(41)
    model = uniform_bimodel(24, 30, 0.5)
    Y = sample_data(model, 3)
    B = block_means(Y, model.tau0, model.gamma0)
    pr, pc = gen.permutation(3), gen.permutation(3)
    B_perm = block_means(
        Y,
        ClusterAssignment(pr[model.tau0.labels], 3),
        ClusterAssignment(pc[model.gamma0.labels], 3),
    )
    for s in range(3):
        for t in range(3):
            assert B_perm[pr[s], pc[t]] == B[s, t]


def test_block_mean_variance_oracle():
    # variance of a block mean across replicates ~ sigma2 / block size
    model = uniform_bimodel(30, 20, 1.0)
    vals = []
    for i in range(400):
        Y = sample_data(model, 6000 + i)
        vals.append(block_means(Y, model.tau0, model.gamma0)[0, 0])
    target = 1.0 / (10 * 7)  # class sizes 10 and 7
    assert abs(np.var(vals, ddof=1) - target) <= 0.3 * target


# ---- least-squares fit ----


def test_lse_recovers_exact_point():
    theta = theta_of_sigma_rect(SIGMA_B, 2)
    out = fit_rect(sigma_of_theta_rect(theta), 2)
    assert np.allclose(out.as_vector(), theta.as_vector(), atol=1e-8)


def test_lse_beats_truth_and_is_stationary():
    gen = rng(42)
    theta = theta_of_sigma_rect(SIGMA_B, 2)
    target = sigma_of_theta_rect(theta) + 1e-3 * gen.normal(size=(3, 3))
    out = fit_rect(target, 2)
    fit = np.linalg.norm(sigma_of_theta_rect(out) - target)
    ref = np.linalg.norm(sigma_of_theta_rect(theta) - target)
    assert fit <= ref + 1e-12
    grad = dsigma_rect(out).T @ vec(target - sigma_of_theta_rect(out))
    assert np.linalg.norm(grad) <= 1e-8


def test_lse_with_degenerate_top_block_fails():
    # column 0 is zero, so the right basis in the target's own column order
    # has a singular top block: no chart point, and no reordering
    T = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.5, 0.5]])
    with pytest.raises(DegenerateTopBlock):
        fit_rect(T, 2)


def test_lse_without_admissible_permutation_fails():
    with pytest.raises(RankMismatch):
        fit_rect(np.zeros((3, 3)), 2)


# ---- limiting covariance ----


def test_cov_G_uniform_closed_form():
    theta = theta_of_sigma_rect(SIGMA_B, 2)
    sigma2 = 0.25
    G = asymptotic_cov_G(theta, np.full(3, 1 / 3), np.full(3, 1 / 3), sigma2)
    D = dsigma_rect(theta)
    closed = sigma2 * 9 * np.linalg.inv(D.T @ D)
    assert np.linalg.norm(G - closed) <= 1e-12 * np.linalg.norm(closed)


def test_cov_G_psd_and_permutation_spectrum():
    # Relabelling the row classes (the rows of Sigma0 and the entries of w
    # together, theta recomputed) permutes the entries of M and leaves phi,
    # so G is conjugated by a permutation and keeps its spectrum.  A
    # permutation of w alone at fixed theta, or a column relabelling, which
    # moves phi, is no such conjugation: here they move the spectrum by up
    # to 29% and 40% of the largest eigenvalue, so neither is asserted.
    w = np.array([0.5, 0.3, 0.2])
    pi = np.array([0.25, 0.35, 0.4])
    G = asymptotic_cov_G(theta_of_sigma_rect(SIGMA_B, 2), w, pi, 1.0)
    lam = np.linalg.eigvalsh(G)
    assert lam[0] >= -1e-10 * lam[-1]
    for perm in ([2, 0, 1], [1, 2, 0], [1, 0, 2], [0, 2, 1]):
        theta = theta_of_sigma_rect(SIGMA_B[perm], 2)
        lam_perm = np.linalg.eigvalsh(asymptotic_cov_G(theta, w[perm], pi, 1.0))
        assert np.max(np.abs(lam_perm - lam)) <= 1e-12 * lam[-1]


def test_cov_G_matches_monte_carlo():
    # standardized least-squares errors with known labels: covariance -> I
    w = np.array([0.5, 0.3, 0.2])
    pi = np.array([0.25, 0.35, 0.4])
    sigma2 = 0.49
    m, n = 150, 120
    model = BiclusterModel(
        SIGMA_B, balanced_assignment(m, w), balanced_assignment(n, pi), sigma2
    )
    theta0 = theta_of_sigma_rect(SIGMA_B, 2)
    G_invhalf = invsqrt_pd(asymptotic_cov_G(theta0, w, pi, sigma2))
    zs = []
    for i in range(400):
        Y = sample_data(model, 9000 + i)
        theta_hat = fit_rect(block_means(Y, model.tau0, model.gamma0), 2)
        zs.append(
            np.sqrt(m * n) * (G_invhalf @ (theta_hat.as_vector() - theta0.as_vector()))
        )
    zs = np.asarray(zs)
    assert np.linalg.norm(np.cov(zs.T) - np.eye(8), 2) <= 0.4
    assert np.linalg.norm(zs.mean(axis=0)) <= 0.5


# ---- experiment harness ----


def test_experiment_zero_replicates():
    config = BiclusterExperimentConfig(
        SIGMA_B, r=2, sizes=((100, 100),), replicates=0
    )
    (summary,) = bicluster_experiment(config, base_seed=0)
    assert summary.replicates == 0
    assert summary.excluded == 0
    assert np.isnan(summary.mean_mse_main)
    assert np.isnan(summary.exact_recovery)


def test_experiment_rejects_no_kmeans_restarts():
    # zero restarts would fail every replicate's k-means; the config
    # refuses the value, and every other bad design scalar, at construction
    faults = [("kmeans_restarts", v) for v in (0, -1)]
    faults += [("sizes", v) for v in (((0, 60),), ((-1, 60),), ())]
    faults += [("sizes", v) for v in (((100,),), ((100, 60, 5),), (100,))]
    faults += [("replicates", -1), ("sigma2", np.nan), ("noise", "cauchy")]
    # a float, even a whole one, or a NaN is refused, not truncated by int()
    faults += [("sizes", v) for v in (((100.7, 60),), ((100, np.nan),), ((100.0, 60),))]
    faults += [("replicates", 2.5), ("kmeans_restarts", 2.5)]
    for key, value in faults:
        with pytest.raises(ConfigError, match=key):
            BiclusterExperimentConfig(
                SIGMA_B, **{"r": 2, "sizes": ((100, 100),), key: value}
            )
    # study() builds the truth at each size before any replicate runs:
    # balanced_assignment refuses bad proportions, the model a wrong count
    bad = [
        ([-0.2, 0.6, 0.6], "proportions"),
        ([np.nan, 0.5, 0.5], "proportions"),
        ([0.2, 0.3, 0.4], "proportions"),
        ([0.5, 0.5], "assignments have k"),
    ]
    for key in ("w", "pi"):
        for probs, match in bad:
            config = BiclusterExperimentConfig(
                SIGMA_B, **{"r": 2, "sizes": ((100, 100),), key: probs}
            )
            with pytest.raises(DimensionMismatch, match=match):
                config.study()


def test_experiment_config_takes_numpy_integers():
    config = BiclusterExperimentConfig(
        SIGMA_B,
        r=2,
        sizes=((np.int64(100), np.int32(60)),),
        replicates=np.int64(3),
        kmeans_restarts=np.int16(5),
    )
    assert config.sizes == ((100, 60),)
    assert all(type(v) is int for v in config.sizes[0])


def test_experiment_smoke():
    config = BiclusterExperimentConfig(
        SIGMA_B, r=2, sizes=((120, 100),), replicates=5, sigma2=0.25
    )
    (summary,) = bicluster_experiment(config, base_seed=21)
    assert summary.fields == {"m": 120, "n": 100}
    assert len(summary.rows) == 5
    kept = [row for row in summary.rows if not row["excluded_flag"]]
    assert len(kept) == 5 - summary.excluded
    exact = sum(row["aligned_hamming"] == 0 for row in summary.rows)
    assert summary.exact_recovery == exact / 5
    for row in kept:
        assert row["z"].shape == (8,)
        assert row["aligned_hamming"] == 0


def test_experiment_full_rank_fit_matches_block_means():
    # r = p2: the representation spans every 3x3 matrix reachable by the
    # chart, so the fit reproduces the block means and both errors agree
    full = SIGMA_B + np.diag([0.7, 0.9, 1.1])
    assert np.linalg.matrix_rank(full) == 3
    config = BiclusterExperimentConfig(
        full, r=3, sizes=((90, 90),), replicates=10, sigma2=0.01
    )
    (summary,) = bicluster_experiment(config, base_seed=3)
    kept = [row for row in summary.rows if not row["excluded_flag"]]
    assert kept
    for row in kept:
        assert abs(row["mse_main"] - row["mse_naive"]) <= 1e-6 * (
            1.0 + row["mse_naive"]
        )
