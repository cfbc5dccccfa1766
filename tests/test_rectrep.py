"""Rectangular representation: frozen values, round trips, certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowrank_rep import (
    Phi,
    ThetaRect,
    cayley_map,
    commutation_matrix,
    dsigma_rect,
    kron,
    regularity_bound_rect,
    sigma_of_theta_rect,
    sin_theta,
    taylor_certificate_rect,
    theta_of_sigma_rect,
    unvec,
)
from lowrank_rep.errors import RankMismatch, SingularGram

from helpers import (
    chart_points,
    dense_cayley_jacobian,
    edge_point,
    fd_jacobian,
    gamma_matrix,
    random_phi,
    random_theta_rect,
    rng,
)


def test_sigma_rect_zero_core():
    theta = ThetaRect(3, random_phi(rng(50), 5, 2), np.zeros(6))
    assert np.allclose(sigma_of_theta_rect(theta), 0.0)


def test_sigma_rect_frozen():
    theta = ThetaRect(1, Phi(2, 1, [0.5]), [3.0])
    assert np.allclose(sigma_of_theta_rect(theta), [[1.8, 2.4]], atol=1e-14)


def test_sigma_rect_rank():
    gen = rng(51)
    for _ in range(20):
        theta = random_theta_rect(gen, 5, 7, 2)
        s = np.linalg.svd(sigma_of_theta_rect(theta), compute_uv=False)
        assert s[1] > 1e-6
        assert s[2] < 1e-12 * s[0]


def test_extraction_frozen():
    theta = theta_of_sigma_rect(np.array([[1.8, 2.4]]), 1)
    assert np.allclose(theta.phi.values, [0.5], atol=1e-12)
    assert np.allclose(theta.mu, [3.0], atol=1e-12)


def test_round_trips_100():
    gen = rng(52)
    for _ in range(100):
        theta = random_theta_rect(gen, 5, 7, 2)
        back = theta_of_sigma_rect(sigma_of_theta_rect(theta), 2)
        v0, v1 = theta.as_vector(), back.as_vector()
        assert np.linalg.norm(v1 - v0) <= 1e-8 * max(np.linalg.norm(v0), 1.0)


def test_extraction_rank_mismatch():
    M = np.outer([1.0, 2.0, 3.0], [0.5, 0.5])
    with pytest.raises(RankMismatch):
        theta_of_sigma_rect(M, 2)


def test_right_subspace_matches_chart_frame():
    gen = rng(53)
    for _ in range(20):
        theta = random_theta_rect(gen, 6, 5, 2)
        Sigma = sigma_of_theta_rect(theta)
        _, _, Vt = np.linalg.svd(Sigma, full_matrices=False)
        U = cayley_map(theta.phi).matrix
        q, _ = np.linalg.qr(Vt[:2, :].T)
        assert sin_theta(q, U).dist_frobenius < 1e-8


def test_dsigma_rect_finite_difference():
    gen = rng(54)
    for _ in range(10):
        theta = random_theta_rect(gen, 4, 6, 2)
        D = dsigma_rect(theta)

        def f(v, p1=theta.p1, p2=theta.p2, r=theta.r):
            t = ThetaRect.from_vector(p1, p2, r, v)
            return sigma_of_theta_rect(t).reshape(-1, order="F")

        fd = fd_jacobian(f, theta.as_vector())
        assert np.linalg.norm(D - fd) / np.linalg.norm(D) < 1e-6


def test_dsigma_rect_mu_block_identity():
    gen = rng(55)
    theta = random_theta_rect(gen, 3, 5, 2)
    U = cayley_map(theta.phi).matrix
    D = dsigma_rect(theta)
    n_phi = (theta.p2 - theta.r) * theta.r
    for k in range(theta.p1 * theta.r):
        e = np.zeros(theta.p1 * theta.r)
        e[k] = 1.0
        E = unvec(e, (theta.p1, theta.r))
        assert np.allclose(
            D[:, n_phi + k], (E @ U.T).reshape(-1, order="F"), atol=1e-13
        )


def test_dsigma_rect_phi_block_at_zero():
    p1, p2, r = 3, 5, 2
    gen = rng(56)
    M = gen.normal(size=(p1, r))
    theta = ThetaRect(p1, Phi(p2, r, np.zeros((p2 - r) * r)), M.reshape(-1, order="F"))
    D = dsigma_rect(theta)
    n_phi = (p2 - r) * r
    E1 = np.eye(p2)[:, :r]
    expect = (
        commutation_matrix(p2, p1)
        @ kron(M, np.eye(p2))
        @ (2.0 * kron(E1.T, np.eye(p2)) @ gamma_matrix(p2, r))
    )
    assert np.allclose(D[:, :n_phi], expect, atol=1e-12)


@given(chart_points(), st.integers(1, 12))
@example(edge_point(2, 1), 1)
@example(edge_point(4, 3), 5)
@settings(max_examples=60, deadline=None)
def test_dsigma_rect_phi_block_matches_dense_oracle(point, p1):
    # K_{p2 p1} (M kron I_{p2}) DU with every factor dense
    phi, gen = point
    p2, r = phi.p, phi.r
    M = gen.normal(size=(p1, r))
    theta = ThetaRect(p1, phi, M.reshape(-1, order="F"))
    dense = (
        commutation_matrix(p2, p1)
        @ kron(M, np.eye(p2))
        @ dense_cayley_jacobian(phi)
    )
    got = dsigma_rect(theta)[:, : (p2 - r) * r]
    assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_taylor_rect_trivial():
    theta = random_theta_rect(rng(57), 4, 6, 2)
    cert = taylor_certificate_rect(theta, theta)
    assert cert.observed == 0.0 and cert.passed


def test_taylor_rect_random_pairs():
    gen = rng(58)
    for _ in range(200):
        p1 = int(gen.integers(1, 6))
        p2 = int(gen.integers(2, 8))
        r = int(gen.integers(1, min(p1, p2, 3) + 1))
        theta0 = random_theta_rect(gen, p1, p2, r)
        step = gen.normal(size=theta0.d)
        step *= gen.uniform(0.0, 0.2) / max(np.linalg.norm(step), 1e-12)
        try:
            theta = ThetaRect.from_vector(p1, p2, r, theta0.as_vector() + step)
        except Exception:
            continue
        cert = taylor_certificate_rect(theta, theta0)
        assert cert.passed, f"failed: {cert}"


def test_taylor_rect_quadratic_scaling():
    gen = rng(59)
    theta0 = random_theta_rect(gen, 4, 6, 2)
    direction = gen.normal(size=theta0.d)
    direction /= np.linalg.norm(direction)
    obs = []
    for t in [1e-2, 5e-3, 2.5e-3]:
        theta = ThetaRect.from_vector(4, 6, 2, theta0.as_vector() + t * direction)
        obs.append(taylor_certificate_rect(theta, theta0).observed)
    assert obs[1] < obs[0] / 4 * 1.5
    assert obs[2] < obs[1] / 4 * 1.5


def test_regularity_rect_frozen_r1():
    theta0 = ThetaRect(1, Phi(2, 1, [0.0]), [1.0])
    cert = regularity_bound_rect(theta0)
    assert cert.bound == pytest.approx(1.0 + 9.0 / 4.0, abs=1e-12)
    assert cert.passed


def test_regularity_rect_random():
    gen = rng(60)
    for _ in range(100):
        p1 = int(gen.integers(1, 6))
        p2 = int(gen.integers(2, 8))
        r = int(gen.integers(1, min(p1, p2, 3) + 1))
        theta0 = random_theta_rect(gen, p1, p2, r)
        cert = regularity_bound_rect(theta0)
        assert cert.passed, f"failed at ({p1}, {p2}, {r}): {cert}"


def test_regularity_rect_rejects_singular_core():
    # the same error type as symrep.regularity_bounds for the same rank test
    M = np.outer([1.0, 2.0, -1.0], [1.0, 0.5])
    theta0 = ThetaRect(3, random_phi(rng(62), 5, 2), M.reshape(-1, order="F"))
    with pytest.raises(SingularGram, match="core rank deficient"):
        regularity_bound_rect(theta0)


def test_regularity_rect_near_boundary():
    gen = rng(61)
    A = gen.normal(size=(3, 2))
    A *= 0.95 / np.linalg.norm(A, 2)
    theta0 = ThetaRect(
        4, Phi(5, 2, A.reshape(-1, order="F")), gen.normal(size=8)
    )
    assert regularity_bound_rect(theta0).passed
