"""Spiked covariance tests.

Oracles: hand-evaluated covariance and likelihood values, the dense p x p
Omega, slogdet and solve of helpers.py for the chart log-likelihood,
finite differences for the score and Hessian, the direct Kronecker
assembly of the Fisher matrix, the least-squares (projection)
characterization of the component means, binomial/CLT bands for the Monte
Carlo pieces, and the analytic bracket plus closed form for the Laplace
ball mass at a single entry, the dense Cholesky draw of helpers.py for the
row-sparse data draw, and the per-support loop of helpers.py for the
stacked limit posterior.
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
from lowrank_rep.rngs import substream
from lowrank_rep.spiked import (
    LimitPosterior,
    PosteriorComponent,
    SpikedModel,
    SupportSet,
    _enumerate_supports,
    _frame_of_rows,
    _information,
    _inside_unit_ball,
    _log_size_prior,
    fisher_spiked,
    gamma_mc,
    lan_remainder,
    lan_remainder_study,
    limit_posterior,
    log_likelihood,
    sample_data,
    sample_limit_posterior,
    sin_theta_tail,
    sin_theta_tail_study,
)
from lowrank_rep.symrep import ThetaSym, dsigma, sigma_of_theta

from helpers import (
    EDGE_NORM,
    chart_points,
    dense_cayley_frame,
    dense_cayley_jacobian,
    dense_information,
    dense_log_likelihood,
    edge_point,
    fd_jacobian,
    gamma_bounds,
    loop_limit_posterior,
    loop_sample_limit_posterior,
    omega_min_eig,
    omega_of_theta,
    random_core_sym,
    random_theta_sym,
    rng,
    sample_gaussian,
    selector,
    svd_inside_unit_ball,
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


def data_with_sample_cov(omega, n):
    # p x n data whose sample covariance Y Y^T / n is omega up to roundoff,
    # for n a multiple of p: the scaled Cholesky factor, repeated
    p = omega.shape[0]
    return np.tile(math.sqrt(p) * np.linalg.cholesky(omega), n // p)


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


def test_model_holds_only_its_inputs():
    # no derived p x p covariance: the model's fields are its inputs, and
    # equality, hashing and repr see exactly these
    assert [f.name for f in fields(SpikedModel)] == ["theta0", "n", "support0"]
    hashed = [f for f in fields(SpikedModel) if (f.compare if f.hash is None else f.hash)]
    assert [f.name for f in hashed] == ["theta0", "n", "support0"]
    theta = canonical_theta()
    model = SpikedModel(theta, 400, (1, 4))
    assert SpikedModel(theta, 400, (4, 1)) == model
    assert replace(model, n=401) != model


def test_selector_picks_support_rows_then_core():
    # p=5, r=2: free rows {0,1,2}; S={0,2} selects phi positions
    # {0, 2, 3, 5} (column-major) and all three core coordinates.
    S = SupportSet(5, 2, (0, 2))
    F = selector(S)
    assert F.shape == (9, 7)
    picked = F.T @ np.arange(9.0)
    assert picked.tolist() == [0.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]
    assert np.array_equal(F.T @ F, np.eye(7))


def test_selector_empty_support_keeps_core_only():
    S = SupportSet(5, 2, ())
    assert S.dim == 3
    assert S.columns == [6, 7, 8]
    assert np.array_equal(selector(S), np.eye(9)[:, 6:])


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
    # fisher_spiked keeps the same gate; at p = r with M < -I its blocks
    # alone would pass, since V = (I + M)^{-1} < 0 gives V kron V > 0
    with pytest.raises(NotPositiveDefinite):
        fisher_spiked(ThetaSym(Phi(1, 1, np.zeros(0)), [-2.0]))


@given(chart_points(p_max=12), st.floats(0.5, 3.0))
@example((Phi(3, 3, np.zeros(0)), rng(0)), 2.5)
@settings(max_examples=100, deadline=None)
def test_omega_gate_matches_dense_eigenvalues(point, max_mag):
    # the r x r core gives the smallest eigenvalue of Sigma + I; cores with
    # negative eigenvalues below -1 make it indefinite.  The chart
    # likelihood's I + M gate fires exactly where the dense Omega is not PD
    phi, gen = point
    theta = ThetaSym(phi, vech(random_core_sym(gen, phi.r, max_mag=max_mag)))
    dense = float(
        np.linalg.eigvalsh(sigma_of_theta(theta) + np.eye(phi.p)).min()
    )
    assert abs(omega_min_eig(theta) - dense) <= 1e-12
    Y = gen.normal(size=(phi.p, 3))
    if dense > 1e-9:
        omega_of_theta(theta)
        log_likelihood(theta, Y)
    elif dense < -1e-9:
        with pytest.raises(NotPositiveDefinite):
            omega_of_theta(theta)
        with pytest.raises(NotPositiveDefinite):
            log_likelihood(theta, Y)


def test_sample_cov_concentrates():
    # operator-norm deviation for Omega = I stays within 4 sqrt(p/n)
    theta = ThetaSym(Phi(4, 1, np.zeros(3)), [0.0])
    Y = sample_data(theta, 4000, 31)
    omega_hat = Y @ Y.T / 4000
    assert np.linalg.norm(omega_hat - np.eye(4), 2) < 4.0 * math.sqrt(4 / 4000)


def test_sample_single_draw_is_rank_one():
    Y = sample_data(canonical_theta(), 1, 4)
    assert Y.shape == (8, 1)
    lam = np.sort(np.abs(np.linalg.eigvalsh(Y @ Y.T)))
    assert lam[-2] < 1e-12 * lam[-1]


def test_sample_deterministic_per_seed():
    Y1 = sample_data(canonical_theta(), 40, 9)
    Y2 = sample_data(canonical_theta(), 40, 9)
    Y3 = sample_data(canonical_theta(), 40, 10)
    assert np.array_equal(Y1, Y2)
    assert not np.array_equal(Y1, Y3)


def test_sample_rejects_indefinite_covariance():
    # Omega = diag(-1, 1): the core -2 sits on the first row
    with pytest.raises(NotPositiveDefinite):
        sample_data(ThetaSym(Phi(2, 1, [0.0]), [-2.0]), 5, 0)
    with pytest.raises(ConfigError):
        sample_data(canonical_theta(), 0, 0)


@st.composite
def row_sparse_thetas(draw):
    """A chart point with r in 1..3, p <= 64, a random set of active rows of
    A and a core whose Sigma + I is PD (a PD core, or magnitudes below 1)."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r + 1, 64))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    active = draw(st.lists(st.integers(0, p - r - 1), max_size=6, unique=True))
    A = np.zeros((p - r, r))
    if active:
        A[active] = gen.normal(size=(len(active), r))
        A *= draw(st.floats(0.05, 0.99)) / np.linalg.norm(A, 2)
    pd = draw(st.booleans())
    core = random_core_sym(gen, r, pd=pd, max_mag=3.0 if pd else 0.9)
    return ThetaSym(Phi(p, r, A.ravel(order="F")), vech(core))


@given(row_sparse_thetas(), st.integers(1, 300), st.integers(0, 2**63 - 1))
@example(canonical_theta(), 400, 0)
@example(ThetaSym(Phi(4, 3, [0.5, -0.2, 0.1]), vech(np.diag([2.0, 1.0, 0.5]))), 3, 7)
@settings(max_examples=100, deadline=None)
def test_sample_data_matches_dense_cholesky_draw(theta, n, seed):
    # the row-sparse draw reads the same normals as the dense L Z.  Outside
    # the rows N (the top r, and r + a for each active row a) both are
    # those normals, bit for bit; inside, the |N| x |N| Cholesky factor and
    # product may sum in another order than the dense ones (seen up to
    # 2.7e-16 of the largest entry)
    got = sample_data(theta, n, seed)
    want, _ = sample_gaussian(omega_of_theta(theta), n, seed)
    r = theta.r
    rows = np.r_[0:r, r + np.flatnonzero(theta.phi.A.any(axis=1))]
    assert np.array_equal(np.delete(got, rows, axis=0), np.delete(want, rows, axis=0))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---- likelihood ----


def test_log_likelihood_hand_value():
    # p=1, n=2, Omega = Omega_hat = 1: the dense formula, and the chart
    # form at p = r = 1 with a zero core and data (1, 1)
    val = dense_log_likelihood(np.eye(1), np.eye(1), 2)
    assert abs(val - (-math.log(2.0 * math.pi) - 1.0)) < 1e-14
    theta = ThetaSym(Phi(1, 1, np.zeros(0)), [0.0])
    chart = log_likelihood(theta, np.ones((1, 2)))
    assert abs(chart - (-math.log(2.0 * math.pi) - 1.0)) < 1e-14


def test_log_likelihood_peaks_at_sample_cov():
    gen = rng(12)
    B = gen.standard_normal((3, 3))
    omega_hat = B @ B.T + 0.5 * np.eye(3)
    best = dense_log_likelihood(omega_hat, omega_hat, 6)
    for _ in range(20):
        E = gen.standard_normal((3, 3))
        E = 0.05 * (E + E.T)
        assert dense_log_likelihood(omega_hat + E, omega_hat, 6) < best


def test_log_likelihood_linear_in_n():
    # the dense formula in n at a fixed Omega_hat, and the chart form on
    # the data repeated five times, which keeps Y Y^T / n
    gen = rng(13)
    B = gen.standard_normal((4, 4))
    omega_hat = B @ B.T + np.eye(4)
    one = dense_log_likelihood(np.eye(4) * 1.7, omega_hat, 2)
    five = dense_log_likelihood(np.eye(4) * 1.7, omega_hat, 10)
    assert abs(five - 5.0 * one) < 1e-12 * abs(five)
    theta = canonical_theta()
    Y = gen.standard_normal((8, 3))
    one = log_likelihood(theta, Y)
    five = log_likelihood(theta, np.tile(Y, 5))
    assert abs(five - 5.0 * one) < 1e-12 * abs(five)


def test_log_likelihood_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        dense_log_likelihood(np.diag([1.0, -1.0]), np.eye(2), 3)
    # Omega = diag(-1, 1): I + M = -1
    with pytest.raises(NotPositiveDefinite):
        log_likelihood(ThetaSym(Phi(2, 1, [0.0]), [-2.0]), np.ones((2, 3)))


def test_log_likelihood_rejects_data_of_wrong_shape():
    theta = canonical_theta()
    for bad in (np.ones((7, 5)), np.ones((9, 5)), np.ones(8)):
        with pytest.raises(DimensionMismatch):
            log_likelihood(theta, bad)
        with pytest.raises(DimensionMismatch):
            lan_remainder(theta, theta, bad)


@st.composite
def likelihood_cases(draw):
    """(theta, Y): r in 1..3, p in r..12, a random set of exactly zero rows
    of A, a symmetric core whose eigenvalues keep I + M at least 0.2 from
    singular (either sign), and n in 1..30 columns of Gaussian data."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r, 12))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    A = gen.normal(size=(p - r, r))
    if p > r:
        A[draw(st.lists(st.integers(0, p - r - 1), unique=True))] = 0.0
    if A.any():
        A *= draw(st.floats(0.0, EDGE_NORM)) / np.linalg.norm(A, 2)
    lam = [
        draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 0.8))
        if draw(st.booleans())
        else draw(st.floats(-3.0, -1.2) | st.floats(1.2, 3.0))
        for _ in range(r)
    ]
    Q, _ = np.linalg.qr(gen.normal(size=(r, r)))
    core = (Q * lam) @ Q.T
    theta = ThetaSym(Phi(p, r, A.ravel(order="F")), vech(0.5 * (core + core.T)))
    return theta, gen.normal(size=(p, draw(st.integers(1, 30))))


def _likelihood_case(p, r, A, core, n, seed):
    theta = ThetaSym(Phi(p, r, np.ravel(A, order="F")), vech(np.asarray(core)))
    return theta, rng(seed).normal(size=(p, n))


# p=9, r=2 with rows 0, 2, 3 and 5 of A exactly zero
_ZERO_ROWS_A = np.zeros((7, 2))
_ZERO_ROWS_A[[1, 4, 6]] = [[0.3, -0.2], [0.1, 0.4], [-0.25, 0.05]]


@given(likelihood_cases())
@example(_likelihood_case(3, 3, np.zeros(0), np.diag([2.0, 0.5, -0.4]), 7, 1))
@example(_likelihood_case(9, 2, _ZERO_ROWS_A, np.diag([1.5, 0.7]), 11, 2))
@example((canonical_theta(), rng(3).normal(size=(8, 1))))
@example(_likelihood_case(5, 2, 0.2 * np.ones(6), [[-0.6, 0.2], [0.2, 1.4]], 6, 4))
@example(_likelihood_case(4, 2, 0.2 * np.ones(4), np.diag([-2.0, 1.0]), 4, 5))
@settings(max_examples=200, deadline=None)
def test_chart_log_likelihood_matches_dense(case):
    # the Woodbury form on the rows where U is nonzero against the dense
    # slogdet and solve of Omega; where I + M is not PD, both refuse.  The
    # examples: p = r, exactly zero rows of A, n = 1, an indefinite M with
    # I + M PD, and an I + M that is not PD
    theta, Y = case
    n = Y.shape[1]
    if np.linalg.eigvalsh(np.eye(theta.r) + theta.core)[0] <= 0.0:
        with pytest.raises(NotPositiveDefinite):
            log_likelihood(theta, Y)
        with pytest.raises(NotPositiveDefinite):
            dense_log_likelihood(omega_of_theta(theta), Y @ Y.T / n, n)
        return
    want = dense_log_likelihood(omega_of_theta(theta), Y @ Y.T / n, n)
    assert abs(log_likelihood(theta, Y) - want) <= 1e-12 * abs(want)


def test_score_vanishes_at_truth():
    # gradient of theta -> l(theta; Y) at theta0 for data whose Y Y^T / n
    # is Omega0 up to roundoff
    theta0 = canonical_theta()
    Y = data_with_sample_cov(omega_of_theta(theta0), 48)

    def ll(v):
        return np.array([log_likelihood(ThetaSym.from_vector(8, 2, v), Y)])

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


@given(chart_points())
@example(edge_point(2, 1))
@example(edge_point(4, 3))
@settings(max_examples=60, deadline=None)
def test_score_matches_dense_dsigma(point):
    phi, gen = point
    theta = ThetaSym(phi, vech(random_core_sym(gen, phi.r, pd=True)))
    Y = gen.normal(size=(phi.p, 2 * phi.p))
    _, _, got = _information(theta, Y)
    direct = _dense_score(theta, Y @ Y.T / (2 * phi.p))
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
    theta = model.theta0
    omega = omega_of_theta(theta)
    Y, omega_hat = sample_gaussian(omega, model.n, 0)
    F_J, B, score = _information(theta, Y)
    D = dsigma(theta)
    K = np.linalg.inv(omega)
    direct = 0.5 * D.T @ kron(K, K) @ D
    F = fisher_spiked(theta)
    assert np.linalg.norm(F - direct) <= 1e-13 * np.linalg.norm(direct)
    # the blocks sit in F as they came: F_J at the active rows (1, 4) and
    # mu, B at every zero row
    cols = SupportSet(48, 2, (1, 4)).columns
    assert np.array_equal(F[np.ix_(cols, cols)], F_J)
    assert np.array_equal(F[np.ix_([7, 53], [7, 53])], B)
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
    # Hessian of the chart log-likelihood at theta0, for data whose
    # Y Y^T / n is Omega0 up to roundoff, is -n times the per-sample
    # information.
    gen = rng(3)
    p, r, n = 5, 2, 10
    theta0 = random_theta_sym(gen, p, r, pd=True)
    Y = data_with_sample_cov(omega_of_theta(theta0), n)
    v0 = theta0.as_vector()
    d = v0.size
    h = 1e-4

    def ll(v):
        return log_likelihood(ThetaSym.from_vector(p, r, v), Y)

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
    # S = empty: the size prior at t = 0 is -log z_n, z_n = sum_t q^t
    p, r, a_const, n = 5, 1, 1.5, 50
    log_q = -1 * math.log(n) - a_const * math.log(4)
    z = sum(math.exp(t * log_q) for t in range(5))
    assert abs(_log_size_prior(p, r, a_const, n)[0] + math.log(z)) < 1e-12


def test_prior_size_ratio():
    # pi_p(t+1) / pi_p(t) = n^{-r} (p - r)^{-a}
    p, r, a_const, n = 9, 2, 0.7, 40
    table = _log_size_prior(p, r, a_const, n)
    assert table.shape == (p - r + 1,)
    for t in range(p - r):
        diff = table[t + 1] - table[t]
        assert abs(diff - (-r * math.log(n) - a_const * math.log(p - r))) < 1e-12


@pytest.mark.parametrize("p, r", [(2, 1), (3, 2), (5, 1), (5, 2), (49, 2), (1000, 1), (1000, 3)])
@pytest.mark.parametrize("a_const", [1e-300, 1e-9, 0.7, 1.0, 400.0])
@pytest.mark.parametrize("n", [1, 2, 400, 10**9])
def test_size_prior_closed_form_matches_logsumexp(p, r, a_const, n):
    # the grid holds q = 1 (n = 1, p - r = 1), q -> 1 (n = 1, tiny a_const)
    # and q^t underflowing to 0 (n = 1e9 or a_const = 400)
    from scipy.special import logsumexp

    t = np.arange(p - r + 1)
    log_q = -r * math.log(n) - a_const * math.log(p - r)
    expected = t * log_q - logsumexp(t * log_q)
    got = _log_size_prior(p, r, a_const, n)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


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


def test_gamma_memory_is_bounded_by_its_blocks(monkeypatch):
    # the 100 000 draws at (|S|, r) = (12, 3) take 27 MiB at once; drawn
    # and tested in blocks they stay far below that
    monkeypatch.setattr(spiked, "_GAMMA_CACHE", {})
    tracemalloc.start()
    try:
        gamma_mc(12, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("size, r", [(1, 1), (4, 1), (1, 3), (2, 3), (3, 3), (5, 2)])
def test_gamma_unit_ball_matches_svd_at_its_draws(size, r):
    # |S| = 1, r = 1, and |S| below, at and above r, at gamma_mc's own draws
    gen = substream(spiked.GAMMA_SEED, size, r)
    A = gen.laplace(0.0, spiked.LAPLACE_SCALE, size=(spiked.GAMMA_DRAWS, size, r))
    inside = svd_inside_unit_ball(A)
    assert np.array_equal(_inside_unit_ball(A), inside)
    assert gamma_mc(size, r)[0] == float(np.mean(inside))


@st.composite
def matrix_stacks(draw):
    """A stack of s x r Laplace matrices, s, r <= 4, spread around ||A||_2 = 1."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    return gen.laplace(0.0, draw(st.floats(0.05, 1.0)), size=shape)


# ||A||_2 = 1 exactly, as a square, a wide and a tall matrix
UNIT_NORM = (
    np.array([[[1.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [-1.0, 0.0]]]),
    np.full((1, 1, 4), 0.5),
    np.full((1, 4, 1), 0.5),
)


def test_unit_ball_edges():
    # open ball: the unit sphere is outside, 1e-9 inside it is inside
    assert _inside_unit_ball(np.zeros((1, 2, 3))).all()
    for A in UNIT_NORM:
        assert not _inside_unit_ball(A).any()
        assert _inside_unit_ball((1.0 - 1e-9) * A).all()


@settings(max_examples=60, deadline=None)
@given(A=matrix_stacks())
@example(A=np.zeros((1, 2, 3)))
@example(A=UNIT_NORM[0])
@example(A=UNIT_NORM[1])
@example(A=UNIT_NORM[2])
@example(A=(1.0 - 1e-9) * UNIT_NORM[0])
def test_unit_ball_matches_svd(A):
    assert np.array_equal(_inside_unit_ball(A), svd_inside_unit_ball(A))


# ---- limit posterior ----


def test_single_component_at_minimal_cap():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    lp = limit_posterior(sample_data(model.theta0, 400, 3), model, cap=2)
    assert len(lp.components) == 1
    assert lp.components[0].weight == 1.0
    assert lp.components[0].support.indices == (1, 4)


def test_zero_innovation_centers_every_component_at_truth():
    # data whose sample covariance is Omega0 up to roundoff: the score is
    # roundoff, and so is each mean's distance from the truth
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    Y = data_with_sample_cov(omega_of_theta(model.theta0), 400)
    lp = limit_posterior(Y, model, cap=3)
    v0 = model.theta0.as_vector()
    for comp in lp.components:
        expected = selector(comp.support).T @ v0
        assert np.max(np.abs(comp.mean - expected)) <= 1e-12


def test_weights_and_covariances_on_random_instances():
    # p=8, r=1, true support size 2, cap 3: 6 components
    for seed in range(5):
        model = sparse_r1_model(seed)
        lp = limit_posterior(sample_data(model.theta0, model.n, 2000 + seed), model, cap=3)
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
    Y = sample_data(model.theta0, 150, 8)
    lp = limit_posterior(Y, model, cap=3)

    omega_hat = Y @ Y.T / 150
    omega0 = omega_of_theta(model.theta0)
    lam, V = np.linalg.eigh(omega0)
    inv_half = (V * lam**-0.5) @ V.T
    W = kron(inv_half, inv_half)
    scale = math.sqrt(model.n / 2.0)
    Z0 = scale * W @ dsigma(model.theta0)
    eps = scale * W @ (omega_hat - omega0).ravel(order="F")
    target = Z0 @ model.theta0.as_vector() + eps
    for comp in lp.components:
        Z0S = Z0 @ selector(comp.support)
        lsq = np.linalg.lstsq(Z0S, target, rcond=None)[0]
        assert np.max(np.abs(comp.mean - lsq)) < 1e-9
        info = Z0S.T @ Z0S
        assert np.max(np.abs(info @ comp.cov - np.eye(comp.support.dim))) < 1e-8


def test_posterior_weight_concentrates_on_true_support():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    lp = limit_posterior(sample_data(model.theta0, 400, 3), model, cap=3)
    assert lp.components[0].support.indices == (1, 4)
    assert lp.components[0].weight > 0.99


def test_limit_posterior_at_p1024_keeps_no_dense_information():
    # the dense d x d information alone would take 32 MiB here
    model = workload_model(1024)
    Y = sample_data(model.theta0, model.n, 0)
    tracemalloc.start()
    try:
        lp = limit_posterior(Y, model, cap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lp.components) == 1021
    assert peak < 32 * 2**20


def test_limit_posterior_at_p512_fits_in_memory():
    # r=2, cap=3, true support of size 2: 510 - 2 + 1 = 509 components.
    # The p^2 x d DSigma alone would take 2.1 GB here.
    model = workload_model(512)
    Y = sample_data(model.theta0, model.n, 0)
    tracemalloc.start()
    try:
        lp = limit_posterior(Y, model, cap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lp.components) == 509
    assert abs(sum(c.weight for c in lp.components) - 1.0) <= 1e-12
    assert peak < 300 * 2**20


def test_spiked_job_at_p2048_forms_no_p_by_p_array():
    # the model, the draw and the posterior together stay below the size
    # of one p x p float64 array, 32 MiB at p = 2048
    tracemalloc.start()
    try:
        model = workload_model(2048)
        lp = limit_posterior(sample_data(model.theta0, model.n, 0), model, cap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lp.components) == 2045
    assert peak < 2048 * 2048 * 8


def _posterior_case(r, p, s0, groups, zero_row, seed, n, a_const):
    # a PD model on p, r with a random support0 of size s0, at a cap that
    # gives `groups` support sizes; zero_row leaves the first row of
    # support0 exactly zero
    pmr = p - r
    gen = rng(seed)
    support0 = tuple(sorted(gen.choice(pmr, s0, replace=False).tolist()))
    A = np.zeros((pmr, r))
    if s0:
        A[list(support0)] = gen.normal(size=(s0, r))
        if zero_row:
            A[support0[0]] = 0.0
    if A.any():
        A *= gen.uniform(0.05, 0.9) / np.linalg.norm(A, 2)
    theta = ThetaSym(
        Phi(p, r, A.ravel(order="F")), vech(random_core_sym(gen, r, pd=True))
    )
    model = SpikedModel(theta, n, support0)
    Y = sample_data(model.theta0, model.n, int(gen.integers(2**31)))
    return model, Y, s0 + groups - 1, a_const


@st.composite
def posterior_cases(draw):
    """(model, Y, cap, a_const): a random PD model with r in 1..3 and
    p <= 64, at a cap that gives one, two or three support sizes; support0
    may be empty or hold an exactly zero row."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r + 1, 64))
    s0 = draw(st.integers(0, min(3, p - r)))
    return _posterior_case(
        r,
        p,
        s0,
        draw(st.integers(1, min(3, p - r - s0 + 1))),
        s0 > 0 and draw(st.booleans()),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(20, 600)),
        draw(st.sampled_from([0.5, 1.0, 2.5])),
    )


def _assert_close(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@given(posterior_cases())
@example(_posterior_case(3, 64, 0, 3, False, 1, 400, 1.0))
@example(_posterior_case(3, 64, 3, 2, True, 2, 600, 2.5))
@example(_posterior_case(2, 48, 2, 2, False, 3, 400, 1.0))
@example(_posterior_case(1, 9, 1, 3, True, 4, 50, 0.5))
@settings(max_examples=60, deadline=None)
def test_stacked_posterior_matches_per_support_loop(case):
    # the blocks against the dense d x d information and a per-support loop
    # over its submatrices: the summation order differs, so agreement is to
    # 1e-12 relative
    model, Y, cap, a_const = case
    theta = model.theta0
    F, score = dense_information(theta, omega_of_theta(theta), Y @ Y.T / model.n)
    _assert_close(fisher_spiked(theta), F)
    _assert_close(_information(theta, Y)[2], score)
    lp = limit_posterior(Y, model, cap, a_const)
    oracle = loop_limit_posterior(Y, model, cap, a_const)
    assert len(lp.components) == len(oracle.components)
    for got, want in zip(lp.components, oracle.components):
        assert got.support == want.support
        assert abs(got.weight - want.weight) <= 1e-12 * want.weight
        assert type(got.weight) is float
        _assert_close(got.mean, want.mean)
        _assert_close(got.cov, want.cov)


def test_gamma_mc_runs_once_per_support_size(monkeypatch):
    # the spiked-p48 workload: 45 supports of sizes 2 and 3
    sizes = []

    def counted(size, r):
        sizes.append(size)
        return gamma_mc(size, r)

    monkeypatch.setattr(spiked, "gamma_mc", counted)
    model = workload_model(48)
    lp = limit_posterior(sample_data(model.theta0, model.n, 0), model, cap=3)
    assert len(lp.components) == 45
    assert sizes == [2, 3]


@pytest.mark.parametrize(
    "bad_row, first", [(2, (2, 5)), (0, (0, 2, 5)), (3, (0, 2, 5)), (6, (0, 2, 5))]
)
def test_singular_information_names_first_failing_support(bad_row, first):
    # p=8, r=1, support0 (2, 5), cap 3: sizes 2 then 3, with five supports
    # of size 3.  A negative entry on the block of bad_row fails every
    # support that holds that block: F_J for the active rows 2 and 5, held
    # by every support, and the block B shared by all the zero rows, first
    # held by (0, 2, 5)
    model = sparse_r1_model(0)
    supports = _enumerate_supports(model, 3)
    assert [s.size for s in supports] == [2, 3, 3, 3, 3, 3]
    F_J, B = np.eye(3), np.eye(1)
    if bad_row in model.support0:
        F_J[model.support0.index(bad_row), model.support0.index(bad_row)] = -1.0
    else:
        B[0, 0] = -1.0
    with pytest.raises(SingularFisher, match=rf"S={re.escape(str(first))} "):
        spiked._mixture(
            model,
            supports,
            F_J,
            B,
            np.zeros(model.d),
            _log_size_prior(model.p, model.r, 1.0, model.n),
        )


def test_singular_shared_block_names_support0_holding_a_zero_row():
    # support0 (2, 3, 5) with row 3 exactly zero: a non-PD B fails support0
    # itself; with cap = |support0| and no zero row, B is never factored
    model = replace(sparse_r1_model(0), support0=(2, 3, 5))
    supports = _enumerate_supports(model, 3)
    B = -np.eye(1)
    args = (np.zeros(model.d), _log_size_prior(model.p, model.r, 1.0, model.n))
    with pytest.raises(SingularFisher, match=r"S=\(2, 3, 5\) "):
        spiked._mixture(model, supports, np.eye(3), B, *args)
    model = sparse_r1_model(0)
    log_w, _, _ = spiked._mixture(
        model, _enumerate_supports(model, 2), np.eye(3), B, *args
    )
    assert log_w.shape == (1,)


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
        limit_posterior(sample_data(model.theta0, 100, 0), model, cap=1)


def test_posterior_rejects_data_of_wrong_shape():
    model = SpikedModel(canonical_theta(), 100, (1, 4))
    for bad in (np.ones((7, 100)), np.ones((8, 0)), np.ones(8)):
        with pytest.raises(DimensionMismatch):
            limit_posterior(bad, model, cap=2)


# ---- sampler ----


def test_sampler_off_support_rows_exactly_zero():
    model = SpikedModel(canonical_theta(), 300, (1, 4))
    lp = limit_posterior(sample_data(model.theta0, 300, 5), model, cap=2)
    draws = sample_limit_posterior(lp, 500, 77)
    off_cols = [j * 6 + i for j in range(2) for i in (0, 2, 3, 5)]
    assert np.all(draws[:, off_cols] == 0.0)
    assert np.any(draws[:, [1, 4, 7, 10]] != 0.0)


def test_sampler_mean_matches_component():
    model = SpikedModel(canonical_theta(), 400, (1, 4))
    lp = limit_posterior(sample_data(model.theta0, 400, 3), model, cap=2)
    comp = lp.components[0]
    draws = sample_limit_posterior(lp, 4000, 55)
    emp = (draws @ selector(comp.support)).mean(axis=0)
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


def test_sampler_matches_per_component_loop():
    # one pass per run of equal dimensions reads the stream positions of one
    # standard_normal call per component; only the products round apart
    model = workload_model(12)
    lp = limit_posterior(sample_data(model.theta0, model.n, 7), model, cap=4)
    # flatten the weights so that every component draws
    comps = [replace(c, weight=1.0 / len(lp.components)) for c in lp.components]
    lp = LimitPosterior(lp.p, lp.r, comps)
    # runs of one dimension that are not contiguous: 9, 7, 9
    mixed = LimitPosterior(
        lp.p, lp.r, [replace(comps[k], weight=1.0 / 3) for k in (1, 0, 3)]
    )
    for post in (lp, mixed):
        got = sample_limit_posterior(post, 3000, 91)
        want = loop_sample_limit_posterior(post, 3000, 91)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sampler_deterministic_and_empty():
    model = SpikedModel(canonical_theta(), 200, (1, 4))
    lp = limit_posterior(sample_data(model.theta0, 200, 0), model, cap=2)
    a = sample_limit_posterior(lp, 50, 3)
    b = sample_limit_posterior(lp, 50, 3)
    assert np.array_equal(a, b)
    assert sample_limit_posterior(lp, 0, 3).shape == (0, 15)


# ---- local expansion remainder ----


def test_lan_zero_at_truth():
    theta0 = canonical_theta()
    assert lan_remainder(theta0, theta0, sample_data(theta0, 100, 2)) == 0.0


def test_lan_matches_dense_quadratic_form():
    # the block quadratic form against delta^T F delta with the dense F
    theta0 = canonical_theta()
    omega0 = omega_of_theta(theta0)
    Y, omega_hat = sample_gaussian(omega0, 200, 4)
    u = rng(22).standard_normal(theta0.d)
    theta = ThetaSym.from_vector(8, 2, theta0.as_vector() + 0.01 * u)
    F, g = dense_information(theta0, omega0, omega_hat)
    delta = theta.as_vector() - theta0.as_vector()
    diff = dense_log_likelihood(
        omega_of_theta(theta), omega_hat, 200
    ) - dense_log_likelihood(omega0, omega_hat, 200)
    want = diff - 100.0 * float(g @ delta) + 100.0 * float(delta @ F @ delta)
    got = lan_remainder(theta, theta0, Y)
    assert abs(got - want) <= 1e-10 * max(abs(diff), 1.0)


def test_lan_remainder_at_p2048_forms_no_p_by_p_array():
    # one p x p float64 array is 32 MiB here; Omega_hat = Y Y^T / n alone
    # would reach it
    model = workload_model(2048)
    theta0 = model.theta0
    Y = sample_data(theta0, model.n, 0)
    u = rng(23).standard_normal(theta0.d)
    u /= np.linalg.norm(u)
    theta = ThetaSym.from_vector(2048, 2, theta0.as_vector() + u / 20)
    tracemalloc.start()
    try:
        R = lan_remainder(theta, theta0, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(R)
    assert peak < 2048 * 2048 * 8


def test_lan_cubic_scaling():
    # at Omega_hat = Omega0 (up to roundoff) the remainder is the cubic
    # Taylor tail, so halving the step divides it by roughly 8
    theta0 = canonical_theta()
    Y = data_with_sample_cov(omega_of_theta(theta0), 400)
    u = rng(21).standard_normal(theta0.d)
    u /= np.linalg.norm(u)
    vals = []
    for t in (0.02, 0.01, 0.005):
        theta = ThetaSym.from_vector(8, 2, theta0.as_vector() + t * u)
        vals.append(abs(lan_remainder(theta, theta0, Y)))
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
    lp = limit_posterior(sample_data(model.theta0, 200, 11), model, cap=2)
    draws = sample_limit_posterior(lp, 400, 13)
    U0 = cayley_map(model.theta0.phi).matrix
    small = sin_theta_tail(draws, U0, 0.3, 2, 8, 200)
    large = sin_theta_tail(draws, U0, 1.8, 2, 8, 200)
    assert 0.0 <= large <= small <= 1.0


def test_tail_matches_per_draw_loop():
    # oracle: map and measure one draw at a time, as 2-D calls; the draws
    # include Gaussian blocks far outside the chart ball
    model = SpikedModel(canonical_theta(), 200, (1, 4))
    lp = limit_posterior(sample_data(model.theta0, 200, 11), model, cap=2)
    draws = sample_limit_posterior(lp, 300, 17)
    gen = rng(18)
    scales = gen.uniform(0.5, 50.0, size=(30, 1))
    draws[::10, :12] = gen.normal(size=(30, 12)) * scales
    draws[5] = model.theta0.as_vector()
    U0 = cayley_map(model.theta0.phi).matrix
    blocks = [row[:12].reshape((6, 2), order="F") for row in draws]
    dists = [sin_theta(_frame_of_rows(A), U0).dist_spectral for A in blocks]
    for m_const in (0.0, 0.3, 1.2, 40.0):
        threshold = m_const * np.sqrt(2 * np.log(8) / 200)
        expected = sum(d > threshold for d in dists) / len(dists)
        assert sin_theta_tail(draws, U0, m_const, 2, 8, 200) == expected


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
