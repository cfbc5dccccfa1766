"""Symmetric representation: frozen values, extraction, Jacobian, certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from lowrank_rep import (
    GateNotMet,
    Phi,
    ThetaSym,
    cayley_map,
    commutation_matrix,
    duplication_matrix,
    dsigma,
    inverse_perturbation_certificate,
    kron,
    regularity_bounds,
    sigma_of_theta,
    subspace_equivalence_certificates,
    taylor_certificate_sym,
    theta_of_sigma,
    unvech,
    vech,
)
from lowrank_rep.errors import (
    DegenerateTopBlock,
    NotPositiveDefinite,
    RankMismatch,
    SingularGram,
)

from helpers import (
    chart_points,
    dense_cayley_jacobian,
    edge_point,
    fd_jacobian,
    random_core_sym,
    random_phi,
    random_theta_sym,
    rng,
)


# ------------------------------------------------------------------- sigma


def test_sigma_frozen_2x2():
    theta = ThetaSym(Phi(2, 1, [0.5]), [2.0])
    expect = np.array([[0.72, 0.96], [0.96, 1.28]])
    assert np.allclose(sigma_of_theta(theta), expect, atol=1e-14)


def test_sigma_zero_core():
    theta = ThetaSym(random_phi(rng(30), 5, 2), np.zeros(3))
    assert np.allclose(sigma_of_theta(theta), 0.0)


def test_sigma_rank_r():
    gen = rng(31)
    for _ in range(20):
        theta = random_theta_sym(gen, 7, 3)
        s = np.linalg.svd(sigma_of_theta(theta), compute_uv=False)
        assert s[2] > 1e-6
        assert s[3] < 1e-12 * s[0]


def test_sigma_symmetric_exactly():
    theta = random_theta_sym(rng(32), 6, 2)
    S = sigma_of_theta(theta)
    assert np.array_equal(S, S.T)


# -------------------------------------------------------------- extraction


def test_extraction_frozen():
    Sigma = np.array([[0.72, 0.96], [0.96, 1.28]])
    theta = theta_of_sigma(Sigma, 1)
    assert np.allclose(theta.phi.values, [0.5], atol=1e-12)
    assert np.allclose(theta.mu, [2.0], atol=1e-12)


def test_round_trips_100():
    gen = rng(33)
    for _ in range(100):
        theta = random_theta_sym(gen, 8, 3)
        Sigma = sigma_of_theta(theta)
        back = theta_of_sigma(Sigma, 3)
        v0, v1 = theta.as_vector(), back.as_vector()
        assert np.linalg.norm(v1 - v0) <= 1e-8 * max(np.linalg.norm(v0), 1.0)


def test_round_trip_negative_eigenvalues():
    # indefinite cores must survive the magnitude-ordered extraction
    gen = rng(34)
    theta = ThetaSym(random_phi(gen, 6, 2), vech(np.diag([2.0, -1.0])))
    back = theta_of_sigma(sigma_of_theta(theta), 2)
    assert np.allclose(back.as_vector(), theta.as_vector(), atol=1e-10)


def test_extraction_rank_too_low():
    Sigma = np.diag([1.0, 0.5, 0.0])
    with pytest.raises(RankMismatch):
        theta_of_sigma(Sigma, 3)


def test_extraction_rank_too_high():
    Sigma = np.diag([1.0, 0.5, 0.2])
    with pytest.raises(RankMismatch):
        theta_of_sigma(Sigma, 2)


def test_extraction_magnitude_tie_at_cut():
    # |lambda_2| = |lambda_3| with opposite signs: ambiguous subspace
    Sigma = np.diag([2.0, 1.0, -1.0])
    with pytest.raises(RankMismatch):
        theta_of_sigma(Sigma, 2)


def test_extraction_degenerate_top_block():
    # rank-1 Sigma whose eigenvector has zero leading coordinate
    v = np.array([0.0, 0.6, 0.8])
    with pytest.raises(DegenerateTopBlock):
        theta_of_sigma(np.outer(v, v), 1)


def test_extraction_square_case_identity_frame():
    gen = rng(35)
    M = gen.normal(size=(4, 4))
    M = M + M.T + 8.0 * np.eye(4)
    theta = theta_of_sigma(M, 4)
    assert theta.phi.values.size == 0
    assert np.allclose(unvech(theta.mu, 4), M, atol=1e-12)


# ----------------------------------------------------------------- jacobian


def test_dsigma_finite_difference():
    gen = rng(36)
    for _ in range(10):
        theta = random_theta_sym(gen, 6, 2)
        D = dsigma(theta)

        def f(v, p=theta.p, r=theta.r):
            t = ThetaSym.from_vector(p, r, v)
            return sigma_of_theta(t).reshape(-1, order="F")

        fd = fd_jacobian(f, theta.as_vector())
        assert np.linalg.norm(D - fd) / np.linalg.norm(D) < 1e-6


@given(chart_points())
@example(edge_point(2, 1))
@example(edge_point(4, 3))
@settings(max_examples=60, deadline=None)
def test_dsigma_phi_block_matches_dense_oracle(point):
    # (I + K_pp)(U M kron I) DU with every factor dense
    phi, gen = point
    p, r = phi.p, phi.r
    theta = ThetaSym(phi, vech(random_core_sym(gen, r)))
    U = cayley_map(phi).matrix
    dense = (
        (np.eye(p * p) + commutation_matrix(p, p))
        @ kron(U @ theta.core, np.eye(p))
        @ dense_cayley_jacobian(phi)
    )
    got = dsigma(theta)[:, : (p - r) * r]
    assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_dsigma_mu_block_identity():
    # D_mu Sigma applied to vech(E) gives vec(U E U^T)
    gen = rng(37)
    theta = random_theta_sym(gen, 5, 2)
    U = cayley_map(theta.phi).matrix
    D = dsigma(theta)
    n_phi = (theta.p - theta.r) * theta.r
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        E = unvech(e, 2)
        got = D[:, n_phi + k]
        expect = (U @ E @ U.T).reshape(-1, order="F")
        assert np.allclose(got, expect, atol=1e-12)


def test_dsigma_square_case_is_duplication():
    theta = ThetaSym(Phi(3, 3, np.zeros(0)), vech(np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(dsigma(theta), duplication_matrix(3), atol=1e-15)


# ------------------------------------------------------------- certificates


def test_taylor_sym_trivial():
    theta = random_theta_sym(rng(38), 6, 2)
    cert = taylor_certificate_sym(theta, theta)
    assert cert.observed == 0.0 and cert.passed


def test_taylor_sym_random_pairs():
    gen = rng(39)
    for _ in range(200):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p, 3) + 1))
        theta0 = random_theta_sym(gen, p, r)
        step = gen.normal(size=theta0.d)
        step *= gen.uniform(0.0, 0.2) / max(np.linalg.norm(step), 1e-12)
        try:
            theta = ThetaSym.from_vector(p, r, theta0.as_vector() + step)
        except Exception:
            continue
        cert = taylor_certificate_sym(theta, theta0)
        assert cert.passed, f"failed: {cert}"


def test_taylor_sym_quadratic_scaling():
    gen = rng(40)
    theta0 = random_theta_sym(gen, 6, 2)
    direction = gen.normal(size=theta0.d)
    direction /= np.linalg.norm(direction)
    obs = []
    for t in [1e-2, 5e-3, 2.5e-3]:
        theta = ThetaSym.from_vector(6, 2, theta0.as_vector() + t * direction)
        obs.append(taylor_certificate_sym(theta, theta0).observed)
    assert obs[1] < obs[0] / 4 * 1.5
    assert obs[2] < obs[1] / 4 * 1.5


def test_inverse_perturbation_trivial():
    theta = random_theta_sym(rng(41), 5, 2, pd=True)
    cert = inverse_perturbation_certificate(theta, theta)
    assert cert.passed


def test_inverse_perturbation_close_pair():
    gen = rng(42)
    for _ in range(50):
        theta0 = random_theta_sym(gen, 6, 2, pd=True, min_mag=0.5)
        # moderate chart norm keeps the admissibility gate wide
        if np.linalg.norm(theta0.phi.A, 2) > 0.5:
            continue
        step = gen.normal(size=theta0.d)
        step *= 1e-4 / np.linalg.norm(step)
        theta = ThetaSym.from_vector(6, 2, theta0.as_vector() + step)
        cert = inverse_perturbation_certificate(theta, theta0)
        assert not isinstance(cert, GateNotMet)
        assert cert.passed, f"failed: {cert}"


def test_inverse_perturbation_far_pair_gate():
    gen = rng(43)
    theta0 = ThetaSym(random_phi(gen, 6, 2, max_norm=0.3), vech(np.eye(2)))
    theta = ThetaSym(random_phi(gen, 6, 2, max_norm=0.3), vech(10.0 * np.eye(2)))
    cert = inverse_perturbation_certificate(theta, theta0)
    assert isinstance(cert, GateNotMet)
    assert cert.observed_gate > cert.gate_bound


def test_inverse_perturbation_requires_pd():
    gen = rng(44)
    phi = random_phi(gen, 5, 2)
    indefinite = ThetaSym(phi, vech(np.diag([1.0, -1.0])))
    pd = ThetaSym(phi, vech(np.eye(2)))
    with pytest.raises(NotPositiveDefinite):
        inverse_perturbation_certificate(indefinite, pd)


def test_subspace_trivial():
    phi = random_phi(rng(45), 6, 2)
    c1, c2, c3 = subspace_equivalence_certificates(phi, phi)
    assert c1.observed == 0.0 and c1.passed
    assert c2.observed == 0.0 and c2.passed
    assert not isinstance(c3, GateNotMet) and c3.passed


def test_subspace_close_pairs():
    gen = rng(46)
    count = 0
    for _ in range(300):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p - 1, 3) + 1))
        phi0 = random_phi(gen, p, r, max_norm=0.7)
        step = gen.normal(size=(p - r) * r)
        step *= 1e-3 / np.linalg.norm(step)
        try:
            phi = Phi(p, r, phi0.values + step)
        except Exception:
            continue
        c1, c2, c3 = subspace_equivalence_certificates(phi, phi0)
        assert c1.passed and c2.passed
        assert not isinstance(c3, GateNotMet)
        assert c3.passed
        count += 1
    assert count >= 200


def test_subspace_distant_pair_gate():
    phi0 = Phi(4, 1, [0.0, 0.0, 0.0])
    phi = Phi(4, 1, [0.9, 0.0, 0.0])
    c1, c2, c3 = subspace_equivalence_certificates(phi, phi0)
    assert c1.passed and c2.passed
    assert isinstance(c3, GateNotMet)


# --------------------------------------------------------------- regularity


def test_regularity_frozen_r1():
    theta0 = ThetaSym(Phi(2, 1, [0.0]), [1.0])
    sigma_min, inv_gram = regularity_bounds(theta0)
    # the lower bound sits in the observed slot, the observed value in bound
    assert sigma_min.observed == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert sigma_min.bound >= sigma_min.observed * (1 - 1e-12)
    assert inv_gram.bound == pytest.approx(1.0 + 65.0 / 8.0, abs=1e-12)
    assert sigma_min.passed and inv_gram.passed


def test_regularity_random_models():
    gen = rng(47)
    for _ in range(100):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p - 1, 3) + 1))
        theta0 = random_theta_sym(gen, p, r)
        sigma_min, inv_gram = regularity_bounds(theta0)
        assert sigma_min.passed, f"sigma_min failed at p={p}, r={r}"
        assert inv_gram.passed, f"inv_gram failed at p={p}, r={r}"


def test_regularity_rejects_singular_core():
    # the same error type as regularity_bound_rect for the same rank test
    theta0 = ThetaSym(random_phi(rng(48), 5, 2), vech(np.diag([1.0, 0.0])))
    with pytest.raises(SingularGram, match="core numerically singular"):
        regularity_bounds(theta0)
