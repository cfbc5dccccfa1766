"""Shared construction and oracle helpers for the test suite.

Finite differences here are the independent check on every hand-derived
Jacobian: plain central differences, no reuse of package derivative code.
The dense (I - X) solve is the oracle for the closed-form frame, the dense
Kronecker/Gamma Jacobian the oracle for the structured one, and a
per-support loop the oracle for the stacked limit posterior.
"""

import math

import numpy as np
from hypothesis import strategies as st

from lowrank_rep import Phi, ThetaRect, ThetaSym, gamma_matrix, kron, skew_embed, vech
from lowrank_rep.rngs import generator

# Largest ||A||_2 drawn by the chart property tests: far inside the 1e-12
# domain margin, close enough to 1 to exercise the chart boundary.
EDGE_NORM = 1.0 - 1e-6


def rng(seed):
    return generator(seed)


def random_phi(gen, p, r, max_norm=0.9, min_norm=0.05):
    """Chart point with ||A||_2 drawn uniformly in [min_norm, max_norm]."""
    if p == r:
        return Phi(p, r, np.zeros(0))
    A = gen.normal(size=(p - r, r))
    target = gen.uniform(min_norm, max_norm)
    A *= target / np.linalg.norm(A, 2)
    return Phi(p, r, A.reshape(-1, order="F"))


def random_core_sym(gen, r, pd=False, min_mag=0.4, max_mag=3.0):
    """Symmetric r x r core with eigenvalue magnitudes in [min_mag, max_mag]."""
    Q, _ = np.linalg.qr(gen.normal(size=(r, r)))
    mags = gen.uniform(min_mag, max_mag, size=r)
    signs = np.ones(r) if pd else gen.choice([-1.0, 1.0], size=r)
    return (Q * (signs * mags)) @ Q.T


def random_theta_sym(gen, p, r, pd=False, **kw):
    return ThetaSym(random_phi(gen, p, r), vech(random_core_sym(gen, r, pd=pd, **kw)))


def random_theta_rect(gen, p1, p2, r, min_sv=0.4, max_sv=2.5):
    """Rectangular chart point with full-column-rank M."""
    M = gen.normal(size=(p1, r))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    M = (U * gen.uniform(min_sv, max_sv, size=r)) @ Vt
    return ThetaRect(p1, random_phi(gen, p2, r), M.reshape(-1, order="F"))


def fd_jacobian(f, x, h=None):
    """Central-difference Jacobian of a vector-valued f at x."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.max(np.abs(x), initial=0.0))
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.column_stack(cols) if cols else np.zeros((np.size(f(x)), 0))


def rel_err(approx, exact):
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / denom


@st.composite
def chart_points(draw, r_max=3, p_max=12):
    """(phi, gen): r in 1..r_max, p in r+1..p_max, ||A||_2 in [0, EDGE_NORM].

    gen is a generator seeded by the draw, for any further random inputs.
    """
    r = draw(st.integers(1, r_max))
    p = draw(st.integers(r + 1, p_max))
    norm = draw(st.floats(0.0, EDGE_NORM))
    return _scaled_point(p, r, norm, draw(st.integers(0, 2**32 - 1)))


def edge_point(p, r, seed=0):
    """A chart_points value with ||A||_2 = EDGE_NORM, for explicit examples."""
    return _scaled_point(p, r, EDGE_NORM, seed)


def _scaled_point(p, r, norm, seed):
    gen = rng(seed)
    A = gen.normal(size=(p - r, r))
    A *= norm / np.linalg.norm(A, 2)
    return Phi(p, r, A.reshape(-1, order="F")), gen


def dense_cayley_frame(phi, scale):
    """(I + X)(I - X)^{-1} I_{p x r} with X = scale * skew_embed(phi), dense.

    Scaling X entrywise rounds exactly like embedding scale * phi.A, so
    scale > 1 reaches blocks outside the chart ball, which Phi rejects.
    """
    X = scale * skew_embed(phi)
    eye = np.eye(phi.p)
    Z = np.linalg.solve(eye - X, eye[:, : phi.r])
    return Z + X @ Z


def dense_cayley_jacobian(phi):
    """DU = 2 (S[:, :r]^T kron S) Gamma with S = (I - X)^{-1}, all dense."""
    p, r = phi.p, phi.r
    S = np.linalg.inv(np.eye(p) - skew_embed(phi))
    return 2.0 * kron(S[:, :r].T, S) @ gamma_matrix(p, r)


def loop_limit_posterior(omega_hat, model, cap, a_const=1.0):
    """Oracle for spiked.limit_posterior: one support at a time, with its own
    Cholesky, solve, matvecs, gamma_mc call and Python-float log weight."""
    from lowrank_rep.spiked import (
        LimitPosterior,
        PosteriorComponent,
        _enumerate_supports,
        _information,
        _log_size_prior,
        gamma_mc,
        omega_of_theta,
    )

    theta0 = model.theta0
    n = model.n
    v0 = theta0.as_vector()
    I_per, score = _information(theta0, omega_of_theta(theta0), omega_hat)
    half_score = 0.5 * n * score
    log_size_prior = _log_size_prior(model.p, model.r, a_const, n)
    supports = _enumerate_supports(model, cap)
    means, covs, log_w = [], [], np.empty(len(supports))
    for k, sup in enumerate(supports):
        cols = sup.columns
        I_S = n * I_per[np.ix_(cols, cols)]
        I_S = 0.5 * (I_S + I_S.T)
        L = np.linalg.cholesky(I_S)
        logdet = 2.0 * float(np.log(np.diag(L)).sum())
        cov = np.linalg.solve(I_S, np.eye(sup.dim))
        cov = 0.5 * (cov + cov.T)
        mean = v0[cols] + cov @ half_score[cols]
        gamma_est, _ = gamma_mc(sup.size, model.r)
        log_w[k] = (
            log_size_prior[sup.size]
            - math.log(math.comb(model.p - model.r, sup.size))
            - math.log(gamma_est)
            + 0.5 * (sup.dim * math.log(2.0 * math.pi) - logdet)
            + 0.5 * float(mean @ I_S @ mean)
        )
        means.append(mean)
        covs.append(cov)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return LimitPosterior(
        model.p,
        model.r,
        tuple(
            PosteriorComponent(sup, float(wk), mean, cov)
            for sup, wk, mean, cov in zip(supports, w, means, covs)
        ),
    )
