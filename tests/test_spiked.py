"""Spiked covariance tests.

Oracles: hand-evaluated covariance and likelihood values, finite
differences for the score and Hessian, the direct Kronecker assembly of
the Fisher matrix, the least-squares (projection) characterization of
the component means, binomial/CLT bands for the Monte Carlo pieces, and
the analytic bracket plus closed form for the Laplace ball mass at a
single entry, and the per-support loop of helpers.py for the stacked limit
posterior.
"""

import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowrank_rep import spiked
from lowrank_rep.cayley import Phi, cayley_map
from lowrank_rep.errors import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    EnumerationTooLarge,
    NotPositiveDefinite,
    SingularFisher,
    SupportViolation,
)
from lowrank_rep.matkit import (
    commutation_matrix,
    duplication_matrix,
    kron,
    sin_theta,
    vech,
)
from lowrank_rep.spiked import (
    LimitPosterior,
    PosteriorComponent,
    SpikedModel,
    SupportSet,
    _enumerate_supports,
    _frame_of_rows,
    _information,
    _log_pi_p,
    _log_size_prior,
    fisher_spiked,
    gamma_bounds,
    gamma_mc,
    lan_remainder,
    lan_remainder_study,
    limit_posterior,
    log_likelihood,
    omega_of_theta,
    prior_log_density,
    sample_gaussian,
    sample_limit_posterior,
    sin_theta_tail,
    sin_theta_tail_study,
)
from lowrank_rep.symrep import ThetaSym, dsigma, sigma_of_theta

from helpers import (
    chart_points,
    dense_cayley_frame,
    dense_cayley_jacobian,
    edge_point,
    fd_jacobian,
    loop_limit_posterior,
    random_core_sym,
    random_theta_sym,
    rng,
)


def canonical_theta():
    # p=8, r=2 with A0 supported on rows {1, 4} of the free block
    A0 = np.zeros((6, 2))
    A0[1] = (0.42, -0.21)
    A0[4] = (0.18, 0.33)
    M0 = np.array([[2.2, 0.4], [0.4, 1.6]])
    return ThetaSym(Phi(8, 2, A0.ravel(order="F")), vech(M0))


def sparse_r1_model(seed, n=300):
    gen = rng(1000 + seed)
    A = np.zeros((7, 1))
    A[2, 0] = gen.uniform(0.3, 0.6)
    A[5, 0] = -gen.uniform(0.2, 0.5)
    theta = ThetaSym(Phi(8, 1, A.ravel(order="F")), [gen.uniform(1.0, 3.0)])
    return SpikedModel(theta, n, (2, 5))


# ---- model and support types ----


def test_model_rejects_nonzero_row_outside_support():
    A = np.zeros((6, 2))
    A[1] = (0.4, -0.2)
    A[2] = (0.1, 0.0)
    theta = ThetaSym(Phi(8, 2, A.ravel(order="F")), vech(np.eye(2)))
    with pytest.raises(SupportViolation):
        SpikedModel(theta, 100, (1, 4))


def test_model_requires_pd_core():
    theta = ThetaSym(Phi(5, 1, np.zeros(4)), [-0.5])
    with pytest.raises(NotPositiveDefinite):
        SpikedModel(theta, 100, ())


def test_model_normalizes_support():
    m = SpikedModel(canonical_theta(), 100, (4, 1, 4))
    assert m.support0 == (1, 4)
    assert (m.p, m.r, m.d) == (8, 2, 15)


def test_model_rejects_bad_sample_count():
    with pytest.raises(ConfigError):
        SpikedModel(canonical_theta(), 0, (1, 4))


def test_model_builds_omega0_once(monkeypatch):
    calls = []

    def counted(theta):
        calls.append(theta)
        return omega_of_theta(theta)

    monkeypatch.setattr(spiked, "omega_of_theta", counted)
    theta = canonical_theta()
    model = SpikedModel(theta, 400, (1, 4))
    assert model.omega0 is model.omega0
    assert np.array_equal(
        model.omega0.view(np.int64), omega_of_theta(theta).view(np.int64)
    )
    # every caller shares the array, so no caller may write to it
    with pytest.raises(ValueError):
        model.omega0[0, 0] += 1.0
    limit_posterior(sample_gaussian(model.omega0, 400, 3)[1], model, cap=3)
    assert len(calls) == 1
    # omega0 is derived state: equality, hashing and repr see the same
    # fields as before it was stored
    assert [f.name for f in fields(SpikedModel) if f.compare] == [
        "theta0",
        "n",
        "support0",
    ]
    hashed = [f for f in fields(SpikedModel) if (f.compare if f.hash is None else f.hash)]
    assert [f.name for f in hashed] == ["theta0", "n", "support0"]
    assert SpikedModel(theta, 400, (4, 1)) == model
    assert replace(model, n=401) != model
    assert "omega0" not in repr(model)
    assert replace(model, n=401).omega0 is not model.omega0


def test_selector_picks_support_rows_then_core():
    # p=5, r=2: free rows {0,1,2}; S={0,2} selects phi positions
    # {0, 2, 3, 5} (column-major) and all three core coordinates.
    S = SupportSet(5, 2, (0, 2))
    F = S.selector
    assert F.shape == (9, 7)
    picked = F.T @ np.arange(9.0)
    assert picked.tolist() == [0.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]
    assert np.array_equal(F.T @ F, np.eye(7))


def test_selector_empty_support_keeps_core_only():
    S = SupportSet(5, 2, ())
    assert S.dim == 3
    assert S.columns == [6, 7, 8]


# ---- covariance map and sampling ----


def test_omega_identity_at_zero_core():
    theta = ThetaSym(Phi(6, 2, 0.3 * np.ones(8) / 4.0), np.zeros(3))
    assert np.array_equal(omega_of_theta(theta), np.eye(6))


def test_omega_hand_example():
    # a = 0.5: u = (0.6, 0.8), Sigma = 2 u u^T
    theta = ThetaSym(Phi(2, 1, [0.5]), [2.0])
    expected = np.array([[1.72, 0.96], [0.96, 2.28]])
    assert np.max(np.abs(omega_of_theta(theta) - expected)) < 1e-12


def test_omega_eigenvalues_shift_by_one():
    # core magnitudes below 1 keep Sigma + I positive definite even with
    # negative core eigenvalues
    theta = random_theta_sym(rng(7), 7, 3, min_mag=0.2, max_mag=0.8)
    lam_sigma = np.linalg.eigvalsh(sigma_of_theta(theta))
    lam_omega = np.linalg.eigvalsh(omega_of_theta(theta))
    assert np.max(np.abs(lam_omega - (lam_sigma + 1.0))) < 1e-10


def test_omega_rejects_indefinite():
    theta = ThetaSym(Phi(2, 1, [0.0]), [-2.0])
    with pytest.raises(NotPositiveDefinite):
        omega_of_theta(theta)


def test_sample_cov_concentrates():
    # operator-norm deviation for Omega = I stays within 4 sqrt(p/n)
    _, omega_hat = sample_gaussian(np.eye(4), 4000, 31)
    assert np.linalg.norm(omega_hat - np.eye(4), 2) < 4.0 * math.sqrt(4 / 4000)


def test_sample_single_draw_is_rank_one():
    Y, omega_hat = sample_gaussian(np.eye(5), 1, 4)
    assert np.array_equal(omega_hat, np.outer(Y[:, 0], Y[:, 0]) / 1.0)
    lam = np.sort(np.abs(np.linalg.eigvalsh(omega_hat)))
    assert lam[-2] < 1e-12 * lam[-1]


def test_sample_deterministic_per_seed():
    Y1, O1 = sample_gaussian(np.eye(3), 40, 9)
    Y2, O2 = sample_gaussian(np.eye(3), 40, 9)
    Y3, _ = sample_gaussian(np.eye(3), 40, 10)
    assert np.array_equal(Y1, Y2) and np.array_equal(O1, O2)
    assert not np.array_equal(Y1, Y3)


def test_sample_rejects_indefinite_covariance():
    with pytest.raises(NotPositiveDefinite):
        sample_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, 0)


# ---- likelihood ----


def test_log_likelihood_hand_value():
    # p=1, n=2, Omega = Omega_hat = 1
    val = log_likelihood(np.eye(1), np.eye(1), 2)
    assert abs(val - (-math.log(2.0 * math.pi) - 1.0)) < 1e-14


def test_log_likelihood_peaks_at_sample_cov():
    gen = rng(12)
    B = gen.standard_normal((3, 3))
    omega_hat = B @ B.T + 0.5 * np.eye(3)
    best = log_likelihood(omega_hat, omega_hat, 6)
    for _ in range(20):
        E = gen.standard_normal((3, 3))
        E = 0.05 * (E + E.T)
        assert log_likelihood(omega_hat + E, omega_hat, 6) < best


def test_log_likelihood_linear_in_n():
    gen = rng(13)
    B = gen.standard_normal((4, 4))
    omega_hat = B @ B.T + np.eye(4)
    one = log_likelihood(np.eye(4) * 1.7, omega_hat, 2)
    five = log_likelihood(np.eye(4) * 1.7, omega_hat, 10)
    assert abs(five - 5.0 * one) < 1e-12 * abs(five)


def test_log_likelihood_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        log_likelihood(np.diag([1.0, -1.0]), np.eye(2), 3)


def test_score_vanishes_at_truth():
    # gradient of theta -> l(Omega(theta)) at theta0 with Omega_hat = Omega0
    theta0 = canonical_theta()
    omega0 = omega_of_theta(theta0)

    def ll(v):
        t = ThetaSym.from_vector(8, 2, v)
        return np.array([log_likelihood(omega_of_theta(t), omega0, 50)])

    grad = fd_jacobian(ll, theta0.as_vector(), h=1e-6)
    assert np.max(np.abs(grad)) < 1e-5


# ---- Fisher information ----


def test_fisher_identity_covariance_closed_form():
    # zero core makes Omega0 = I, so the sandwich collapses to (1/2) D^T D.
    # At p = r there is no phi block and the collapsed matrix stays PD.
    theta = ThetaSym(Phi(3, 3, np.zeros(0)), np.zeros(6))
    D = dsigma(theta)
    assert np.max(np.abs(fisher_spiked(theta) - 0.5 * D.T @ D)) < 1e-12


def test_fisher_singular_at_zero_core_for_tall_frames():
    # with p > r a zero core freezes Sigma in the phi directions, so the
    # information degenerates and the PD gate refuses it
    theta = ThetaSym(Phi(6, 2, 0.25 * np.ones(8) / 3.0), np.zeros(3))
    with pytest.raises(NotPositiveDefinite):
        fisher_spiked(theta)


@given(chart_points())
@example(edge_point(2, 1))
@example(edge_point(4, 3))
@settings(max_examples=60, deadline=None)
def test_fisher_matches_direct_kronecker(point):
    # (1/2) D^T (K kron K) D with D = [(I + K_pp)(U M kron I) DU, (U kron U) D_r]
    # assembled from dense factors only
    phi, gen = point
    p, r = phi.p, phi.r
    theta = ThetaSym(phi, vech(random_core_sym(gen, r, pd=True)))
    U = cayley_map(phi).matrix
    D = np.hstack(
        [
            (np.eye(p * p) + commutation_matrix(p, p))
            @ kron(U @ theta.core, np.eye(p))
            @ dense_cayley_jacobian(phi),
            kron(U, U) @ duplication_matrix(r),
        ]
    )
    K = np.linalg.inv(omega_of_theta(theta))
    direct = 0.5 * D.T @ kron(K, K) @ D
    got = fisher_spiked(theta)
    assert np.linalg.norm(got - direct) <= 1e-13 * np.linalg.norm(direct)


def _dense_score(theta, omega_hat):
    # D^T vec(K (omega_hat - Omega) K) with the full p^2 x d Jacobian
    omega = omega_of_theta(theta)
    K = np.linalg.inv(omega)
    return dsigma(theta).T @ (K @ (omega_hat - omega) @ K).ravel(order="F")


def _random_sample_cov(gen, p):
    B = gen.normal(size=(p, 2 * p))
    return B @ B.T / (2 * p) + 0.5 * np.eye(p)


@given(chart_points())
@example(edge_point(2, 1))
@example(edge_point(4, 3))
@settings(max_examples=60, deadline=None)
def test_score_matches_dense_dsigma(point):
    phi, gen = point
    theta = ThetaSym(phi, vech(random_core_sym(gen, phi.r, pd=True)))
    omega_hat = _random_sample_cov(gen, phi.p)
    _, got = _information(theta, omega_of_theta(theta), omega_hat)
    direct = _dense_score(theta, omega_hat)
    assert np.linalg.norm(got - direct) <= 1e-13 * np.linalg.norm(direct)


def workload_model(p):
    # the truth of the spiked-p48 benchmark workload at any p: r=2, n=400,
    # rows 1 and 4 of A0 active
    A0 = np.zeros((p - 2, 2))
    A0[1] = (0.42, -0.21)
    A0[4] = (0.18, 0.33)
    theta = ThetaSym(Phi(p, 2, A0.ravel(order="F")), [2.2, 0.4, 1.6])
    return SpikedModel(theta, 400, (1, 4))


def test_fisher_and_score_match_dense_oracle_at_p48():
    model = workload_model(48)
    theta, omega = model.theta0, model.omega0
    _, omega_hat = sample_gaussian(omega, model.n, 0)
    F, score = _information(theta, omega, omega_hat)
    D = dsigma(theta)
    K = np.linalg.inv(omega)
    direct = 0.5 * D.T @ kron(K, K) @ D
    assert np.linalg.norm(F - direct) <= 1e-13 * np.linalg.norm(direct)
    assert np.array_equal(fisher_spiked(theta), F)
    direct = _dense_score(theta, omega_hat)
    assert np.linalg.norm(score - direct) <= 1e-13 * np.linalg.norm(direct)


def test_fisher_pd_on_random_models():
    gen = rng(41)
    for _ in range(100):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p, 3) + 1))
        theta = random_theta_sym(gen, p, r, pd=True)
        lam_min = float(np.linalg.eigvalsh(fisher_spiked(theta)).min())
        assert lam_min > 0.0


def test_fisher_matches_fd_hessian():
    # Hessian of the log-likelihood at (theta0, Omega_hat = Omega0) is
    # exactly -n times the per-sample information.
    gen = rng(3)
    p, r, n = 5, 2, 7
    theta0 = random_theta_sym(gen, p, r, pd=True)
    omega0 = omega_of_theta(theta0)
    v0 = theta0.as_vector()
    d = v0.size
    h = 1e-4

    def ll(v):
        return log_likelihood(
            omega_of_theta(ThetaSym.from_vector(p, r, v)), omega0, n
        )

    H = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            H[i, j] = H[j, i] = (
                ll(v0 + ei + ej)
                - ll(v0 + ei - ej)
                - ll(v0 - ei + ej)
                + ll(v0 - ei - ej)
            ) / (4.0 * h * h)
    target = -n * fisher_spiked(theta0)
    rel = np.linalg.norm(H - target) / np.linalg.norm(target)
    assert rel < 1e-4


# ---- sparsity prior ----


def test_prior_empty_support_value():
    # S = empty, A = 0: only the size prior and the core Laplace term
    theta = ThetaSym(Phi(5, 1, np.zeros(4)), [1.3])
    a_const, n = 1.5, 50
    got = prior_log_density(theta, (), a_const, n)
    log_q = -1 * math.log(n) - a_const * math.log(4)
    z = sum(math.exp(t * log_q) for t in range(5))
    assert abs(got - (-math.log(z) - 2.0 * 1.3)) < 1e-12


def test_prior_size_ratio():
    # pi_p(t+1) / pi_p(t) = n^{-r} (p - r)^{-a}
    p, r, a_const, n = 9, 2, 0.7, 40
    for t in range(p - r):
        diff = _log_pi_p(t + 1, p, r, a_const, n) - _log_pi_p(t, p, r, a_const, n)
        assert abs(diff - (-r * math.log(n) - a_const * math.log(p - r))) < 1e-12


def test_size_prior_entries_match_per_size_calls():
    for p, r, a_const, n in ((2, 2, 1.0, 10), (9, 2, 0.7, 40), (48, 2, 1.0, 400), (30, 3, 2.5, 7)):
        table = _log_size_prior(p, r, a_const, n)
        assert table.shape == (p - r + 1,)
        for t in range(p - r + 1):
            assert _log_pi_p(t, p, r, a_const, n) == table[t]
        assert abs(np.logaddexp.reduce(table)) < 1e-12


def test_prior_rejects_rows_off_support():
    A = np.zeros((4, 1))
    A[0, 0] = 0.3
    A[2, 0] = 0.2
    theta = ThetaSym(Phi(5, 1, A.ravel(order="F")), [1.0])
    with pytest.raises(SupportViolation):
        prior_log_density(theta, (0,), 1.0, 30)


def test_prior_rejects_indefinite_core():
    theta = ThetaSym(Phi(5, 1, np.zeros(4)), [-1.0])
    with pytest.raises(DomainViolation):
        prior_log_density(theta, (), 1.0, 30)


def test_gamma_bounds_certificate():
    # Monte Carlo estimate sits inside the analytic bracket
    for s in (1, 2, 3):
        for r in (1, 2):
            est, se = gamma_mc(s, r)
            lower, upper = gamma_bounds(s, r)
            assert lower <= est <= upper
            assert se < 0.005


def test_gamma_single_entry_matches_closed_form():
    # rs = 1: the ball is the interval (-1, 1), mass 1 - exp(-2)
    est, se = gamma_mc(1, 1)
    assert abs(est - (1.0 - math.exp(-2.0))) < 5.0 * se


def test_gamma_empty_support_is_one():
    assert gamma_mc(0, 3) == (1.0, 0.0)
    assert gamma_bounds(0, 3) == (1.0, 1.0)


def test_gamma_cached_and_deterministic():
    assert gamma_mc(2, 1) == gamma_mc(2, 1)


# ---- limit posterior ----


def test_single_component_at_minimal_cap():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    _, omega_hat = sample_gaussian(model.omega0, 400, 3)
    lp = limit_posterior(omega_hat, model, cap=2)
    assert len(lp.components) == 1
    assert lp.components[0].weight == 1.0
    assert lp.components[0].support.indices == (1, 4)


def test_zero_innovation_centers_every_component_at_truth():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    lp = limit_posterior(model.omega0, model, cap=3)
    v0 = model.theta0.as_vector()
    for comp in lp.components:
        expected = comp.support.selector.T @ v0
        assert np.max(np.abs(comp.mean - expected)) == 0.0


def test_weights_and_covariances_on_random_instances():
    # p=8, r=1, true support size 2, cap 3: 6 components
    for seed in range(5):
        model = sparse_r1_model(seed)
        _, omega_hat = sample_gaussian(model.omega0, model.n, 2000 + seed)
        lp = limit_posterior(omega_hat, model, cap=3)
        assert len(lp.components) == 6
        w = np.array([c.weight for c in lp.components])
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)
        for comp in lp.components:
            assert np.linalg.eigvalsh(comp.cov).min() > 0.0


def test_component_mean_solves_whitened_least_squares():
    # the explicit mean formula coincides with the projection of the
    # whitened observation onto the selected columns
    model = SpikedModel(canonical_theta(), 150, (1, 4))
    _, omega_hat = sample_gaussian(model.omega0, 150, 8)
    lp = limit_posterior(omega_hat, model, cap=3)

    omega0 = model.omega0
    lam, V = np.linalg.eigh(omega0)
    inv_half = (V * lam**-0.5) @ V.T
    W = kron(inv_half, inv_half)
    scale = math.sqrt(model.n / 2.0)
    Z0 = scale * W @ dsigma(model.theta0)
    eps = scale * W @ (omega_hat - omega0).ravel(order="F")
    target = Z0 @ model.theta0.as_vector() + eps
    for comp in lp.components:
        Z0S = Z0 @ comp.support.selector
        lsq = np.linalg.lstsq(Z0S, target, rcond=None)[0]
        assert np.max(np.abs(comp.mean - lsq)) < 1e-9
        info = Z0S.T @ Z0S
        assert np.max(np.abs(info @ comp.cov - np.eye(comp.support.dim))) < 1e-8


def test_posterior_weight_concentrates_on_true_support():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    _, omega_hat = sample_gaussian(model.omega0, 400, 3)
    lp = limit_posterior(omega_hat, model, cap=3)
    assert lp.components[0].support.indices == (1, 4)
    assert lp.components[0].weight > 0.99


def test_limit_posterior_at_p512_fits_in_memory():
    # r=2, cap=3, true support of size 2: 510 - 2 + 1 = 509 components.
    # The p^2 x d DSigma alone would take 2.1 GB here.
    model = workload_model(512)
    _, omega_hat = sample_gaussian(model.omega0, model.n, 0)
    tracemalloc.start()
    try:
        lp = limit_posterior(omega_hat, model, cap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lp.components) == 509
    assert abs(sum(c.weight for c in lp.components) - 1.0) <= 1e-12
    assert peak < 300 * 2**20


@st.composite
def posterior_cases(draw):
    """(model, omega_hat, cap, a_const): a random PD model with r in 1..3 and
    p <= 14, at a cap that gives one, two or three support sizes."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r + 1, 14))
    pmr = p - r
    s0 = draw(st.integers(0, min(3, pmr)))
    groups = draw(st.integers(1, min(3, pmr - s0 + 1)))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    support0 = tuple(sorted(gen.choice(pmr, s0, replace=False).tolist()))
    A = np.zeros((pmr, r))
    if s0:
        A[list(support0)] = gen.normal(size=(s0, r))
        A *= gen.uniform(0.05, 0.9) / np.linalg.norm(A, 2)
    theta = ThetaSym(
        Phi(p, r, A.ravel(order="F")), vech(random_core_sym(gen, r, pd=True))
    )
    model = SpikedModel(theta, draw(st.integers(20, 600)), support0)
    _, omega_hat = sample_gaussian(model.omega0, model.n, int(gen.integers(2**31)))
    a_const = draw(st.sampled_from([0.5, 1.0, 2.5]))
    return model, omega_hat, s0 + groups - 1, a_const


@given(posterior_cases())
@settings(max_examples=60, deadline=None)
def test_stacked_posterior_matches_per_support_loop(case):
    model, omega_hat, cap, a_const = case
    lp = limit_posterior(omega_hat, model, cap, a_const)
    oracle = loop_limit_posterior(omega_hat, model, cap, a_const)
    assert len(lp.components) == len(oracle.components)
    for got, want in zip(lp.components, oracle.components):
        assert got.support == want.support
        assert got.weight == want.weight
        assert type(got.weight) is float
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.cov, want.cov)


def test_gamma_mc_runs_once_per_support_size(monkeypatch):
    # the spiked-p48 workload: 45 supports of sizes 2 and 3
    sizes = []

    def counted(size, r):
        sizes.append(size)
        return gamma_mc(size, r)

    monkeypatch.setattr(spiked, "gamma_mc", counted)
    model = workload_model(48)
    lp = limit_posterior(sample_gaussian(model.omega0, model.n, 0)[1], model, cap=3)
    assert len(lp.components) == 45
    assert sizes == [2, 3]


@pytest.mark.parametrize(
    "bad_row, first", [(2, (2, 5)), (0, (0, 2, 5)), (3, (2, 3, 5)), (6, (2, 5, 6))]
)
def test_singular_information_names_first_failing_support(bad_row, first):
    # p=8, r=1, support0 (2, 5), cap 3: sizes 2 then 3, with five supports
    # of size 3; a negative diagonal entry at a row fails every support
    # that holds it
    model = sparse_r1_model(0)
    supports = _enumerate_supports(model, 3)
    assert [s.size for s in supports] == [2, 3, 3, 3, 3, 3]
    I_per = np.eye(model.d)
    I_per[bad_row, bad_row] = -1.0
    with pytest.raises(SingularFisher, match=rf"S={re.escape(str(first))} "):
        spiked._mixture(
            model,
            supports,
            I_per,
            np.zeros(model.d),
            _log_size_prior(model.p, model.r, 1.0, model.n),
        )


def _posterior(*components):
    # (support indices, covariance) pairs at p=8, r=1, equal weights
    return LimitPosterior(
        8,
        1,
        [
            PosteriorComponent(
                SupportSet(8, 1, idx), 1.0 / len(components), np.zeros(len(C)), C
            )
            for idx, C in components
        ],
    )


def test_posterior_reports_first_non_pd_covariance():
    not_pd = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite, match=r"S=\(1, 2\) not PD"):
        _posterior(((0, 1), np.eye(3)), ((1, 2), not_pd), ((2, 3), not_pd))
    # the first failure in component order, whatever the dimension groups
    asym = np.eye(2) + np.array([[0.0, 1e-9], [0.0, 0.0]])
    with pytest.raises(NotPositiveDefinite, match=r"S=\(1, 2\) not PD"):
        _posterior(((0,), np.eye(2)), ((1, 2), not_pd), ((3,), asym))
    with pytest.raises(NotPositiveDefinite, match="not symmetric"):
        _posterior(((0,), np.eye(2)), ((3,), asym), ((1, 2), not_pd))


def test_posterior_rejects_asymmetric_covariance_in_a_group():
    asym = np.eye(3)
    asym[2, 0] = 2e-10
    with pytest.raises(NotPositiveDefinite, match="not symmetric"):
        _posterior(((0, 1), np.eye(3)), ((1, 2), asym))
    # within the 1e-10 tolerance the check passes
    asym[2, 0] = 5e-11
    _posterior(((0, 1), np.eye(3)), ((1, 2), asym))


def test_posterior_rejects_non_square_covariance():
    # a covariance that is not a square matrix is reported as not PD, in
    # component order, before the stacked checks see its shape
    for bad in (np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2))):
        with pytest.raises(NotPositiveDefinite, match=r"S=\(1, 2\) not PD"):
            _posterior(((0,), np.eye(2)), ((1, 2), bad), ((3,), np.eye(2)))


def test_enumeration_guard():
    theta = ThetaSym(Phi(30, 1, np.zeros(29)), [2.0])
    model = SpikedModel(theta, 50, ())
    with pytest.raises(EnumerationTooLarge):
        limit_posterior(np.eye(30), model, cap=20)


def test_cap_below_true_support_rejected():
    model = SpikedModel(canonical_theta(), 100, (1, 4))
    with pytest.raises(ConfigError):
        limit_posterior(model.omega0, model, cap=1)


# ---- sampler ----


def test_sampler_off_support_rows_exactly_zero():
    model = SpikedModel(canonical_theta(), 300, (1, 4))
    _, omega_hat = sample_gaussian(model.omega0, 300, 5)
    lp = limit_posterior(omega_hat, model, cap=2)
    draws = sample_limit_posterior(lp, 500, 77)
    off_cols = [j * 6 + i for j in range(2) for i in (0, 2, 3, 5)]
    assert np.all(draws[:, off_cols] == 0.0)
    assert np.any(draws[:, [1, 4, 7, 10]] != 0.0)


def test_sampler_mean_matches_component():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    _, omega_hat = sample_gaussian(model.omega0, 400, 3)
    lp = limit_posterior(omega_hat, model, cap=2)
    comp = lp.components[0]
    draws = sample_limit_posterior(lp, 4000, 55)
    emp = (draws @ comp.support.selector).mean(axis=0)
    z = np.abs(emp - comp.mean) / np.sqrt(np.diag(comp.cov) / 4000.0)
    assert np.max(z) < 4.0


def test_sampler_component_frequencies():
    S1 = SupportSet(4, 1, (0,))
    S2 = SupportSet(4, 1, (1,))
    mk = lambda S, w: PosteriorComponent(
        S, w, np.zeros(S.dim), np.eye(S.dim)
    )
    lp = LimitPosterior(4, 1, (mk(S1, 0.3), mk(S2, 0.7)))
    draws = sample_limit_posterior(lp, 5000, 21)
    f1 = float(np.mean(draws[:, 0] != 0.0))
    assert abs(f1 - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / 5000.0)


def test_sampler_deterministic_and_empty():
    model = SpikedModel(canonical_theta(), 200, (1, 4))
    lp = limit_posterior(model.omega0, model, cap=2)
    a = sample_limit_posterior(lp, 50, 3)
    b = sample_limit_posterior(lp, 50, 3)
    assert np.array_equal(a, b)
    assert sample_limit_posterior(lp, 0, 3).shape == (0, 15)


# ---- local expansion remainder ----


def test_lan_zero_at_truth():
    theta0 = canonical_theta()
    _, omega_hat = sample_gaussian(omega_of_theta(theta0), 100, 2)
    assert lan_remainder(theta0, theta0, omega_hat, 100) == 0.0


def test_lan_cubic_scaling():
    # at Omega_hat = Omega0 the remainder is the cubic Taylor tail, so
    # halving the step divides it by roughly 8
    theta0 = canonical_theta()
    omega0 = omega_of_theta(theta0)
    u = rng(21).standard_normal(theta0.d)
    u /= np.linalg.norm(u)
    vals = []
    for t in (0.02, 0.01, 0.005):
        theta = ThetaSym.from_vector(8, 2, theta0.as_vector() + t * u)
        vals.append(abs(lan_remainder(theta, theta0, omega0, 400)))
    for hi, lo in zip(vals, vals[1:]):
        assert 5.0 < hi / lo < 11.0


def test_lan_medians_decrease_with_sample_size():
    medians = lan_remainder_study(canonical_theta(), [100, 400, 1600], 60, 909)
    assert medians[0] > medians[1] > medians[2]
    assert medians[0] > 2.0 * medians[1]


# ---- sin-theta tail ----


def test_tail_zero_for_draws_at_truth():
    theta0 = canonical_theta()
    U0 = cayley_map(theta0.phi).matrix
    draws = np.tile(theta0.as_vector(), (10, 1))
    assert sin_theta_tail(draws, U0, 1.0, 2, 8, 200) == 0.0


def test_tail_fraction_in_unit_interval_and_monotone_in_radius():
    model = SpikedModel(canonical_theta(), 200, (1, 4))
    _, omega_hat = sample_gaussian(model.omega0, 200, 11)
    lp = limit_posterior(omega_hat, model, cap=2)
    draws = sample_limit_posterior(lp, 400, 13)
    U0 = cayley_map(model.theta0.phi).matrix
    small = sin_theta_tail(draws, U0, 0.3, 2, 8, 200)
    large = sin_theta_tail(draws, U0, 1.8, 2, 8, 200)
    assert 0.0 <= large <= small <= 1.0


_TAIL_BLOCK = np.array([[1.4, 0.2], [-0.3, 0.9], [0.5, 0.1]])


@given(chart_points(), st.one_of(st.just(1.0), st.floats(1.0, 1e3)))
@example(edge_point(2, 1), 1.0)
@example(edge_point(4, 3), 1.0)
@example(edge_point(3, 2), 1e3)
@example(edge_point(12, 3), 1e3)
@example((Phi(5, 2, (_TAIL_BLOCK / 2.0).ravel(order="F")), None), 2.0)
@settings(max_examples=200, deadline=None)
def test_tail_frame_valid_outside_chart_ball(point, scale):
    # Gaussian tail draws can leave ||A||_2 < 1 (here up to 1e3); there the
    # frame that sin_theta_tail uses still matches the dense
    # (I + X)(I - X)^{-1} I_{p x r} and stays orthonormal
    phi, _ = point
    U = _frame_of_rows(scale * phi.A)
    dense = dense_cayley_frame(phi, scale)
    assert np.linalg.norm(U - dense) <= 1e-13 * np.linalg.norm(dense)
    assert np.max(np.abs(U.T @ U - np.eye(phi.r))) <= 1e-12


def test_tail_study_decreases_with_sample_size():
    model = SpikedModel(canonical_theta(), 200, (1, 4))
    fractions = sin_theta_tail_study(
        model, [200, 800, 3200], 1.2, cap=3,
        draws_per_dataset=400, datasets=12, base_seed=505,
    )
    assert fractions[0] > fractions[1] > fractions[2]
    assert fractions[0] > 0.1
