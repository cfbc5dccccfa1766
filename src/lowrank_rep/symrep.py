"""Symmetric low-rank representation Sigma(theta) = U(phi) M(mu) U(phi)^T.

theta = (phi, mu) with phi the Cayley chart coordinates of the frame and
mu = vech(M) the free entries of the symmetric r x r core.  The chart has
dimension d = (p - r) r + r (r + 1) / 2 and identifies every symmetric
rank-r matrix whose leading eigenvector block can be rotated to a positive
definite top block, which holds outside a measure-zero set.

When p = r the frame is the identity and the representation reduces to
Sigma = M(mu); all operations honor that degenerate case.
"""

from dataclasses import dataclass, field

import numpy as np

from .cayley import (
    Certificate,
    GateNotMet,
    Phi,
    StiefelPlus,
    _top_block_frame,
    cayley_inverse,
    cayley_jacobian,
    cayley_map,
)
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    NotPositiveDefinite,
)
from .matkit import (
    _inv_gram_norm,
    duplication_matrix,
    kron,
    sin_theta,
    spectral_norm,
    unvech,
    vech,
)

__all__ = [
    "ThetaSym",
    "sigma_of_theta",
    "theta_of_sigma",
    "dsigma",
    "taylor_certificate_sym",
    "inverse_perturbation_certificate",
    "subspace_equivalence_certificates",
    "RegularityReport",
    "regularity_bounds",
]

@dataclass(frozen=True)
class ThetaSym:
    """Chart point of the symmetric representation."""

    phi: Phi
    mu: np.ndarray = field(repr=False)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float)).ravel()
        r = self.phi.r
        if mu.size != r * (r + 1) // 2:
            raise DimensionMismatch(
                f"mu length {mu.size} != r(r+1)/2 = {r * (r + 1) // 2}"
            )
        object.__setattr__(self, "mu", mu)

    @property
    def p(self):
        return self.phi.p

    @property
    def r(self):
        return self.phi.r

    @property
    def d(self):
        r = self.r
        return (self.p - r) * r + r * (r + 1) // 2

    @property
    def core(self):
        """The symmetric r x r core matrix M(mu)."""
        return unvech(self.mu, self.r)

    def as_vector(self):
        """Concatenation [phi; mu], the coordinate order used by Jacobians."""
        return np.concatenate([self.phi.values, self.mu])

    @classmethod
    def from_vector(cls, p, r, vector):
        vector = np.atleast_1d(np.asarray(vector, dtype=float)).ravel()
        n_phi = (p - r) * r
        if vector.size != n_phi + r * (r + 1) // 2:
            raise DimensionMismatch(
                f"theta vector length {vector.size} wrong for (p, r) = ({p}, {r})"
            )
        return cls(Phi(p, r, vector[:n_phi]), vector[n_phi:])


def sigma_of_theta(theta):
    """Sigma(theta) = U(phi) M(mu) U(phi)^T, exactly symmetric."""
    U = cayley_map(theta.phi).matrix
    S = U @ theta.core @ U.T
    return 0.5 * (S + S.T)


def _eig_by_magnitude(Sigma):
    lam, V = np.linalg.eigh(Sigma)
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], V[:, order]


def theta_of_sigma(Sigma, r):
    """Chart coordinates of a symmetric matrix with numerical rank r.

    Keeps the r eigenvalues of largest magnitude, rotates the retained basis
    so its top block is symmetric PD, and inverts the Cayley chart.  Raises
    RankMismatch when the numerical rank (relative tolerance 1e-9) is not
    exactly r, and DegenerateTopBlock when no admissible rotation exists.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {Sigma.shape}")
    p = Sigma.shape[0]
    if not (1 <= r <= p):
        raise DimensionMismatch(f"need 1 <= r <= p, got r={r}, p={p}")
    dev = np.max(np.abs(Sigma - Sigma.T), initial=0.0)
    if dev > 1e-10 * (1.0 + np.max(np.abs(Sigma), initial=0.0)):
        raise AsymmetricInput(f"asymmetry {dev:.3e}")
    Sigma = 0.5 * (Sigma + Sigma.T)

    lam, V = _eig_by_magnitude(Sigma)
    U, _ = _top_block_frame(np.abs(lam), V, r)
    phi = cayley_inverse(StiefelPlus(U))
    M = U.T @ Sigma @ U
    return ThetaSym(phi, vech(0.5 * (M + M.T)))


def dsigma(theta):
    """Jacobian of vec(Sigma(theta)) in theta = [phi; mu], shape p^2 x d.

    The phi block is (I + K_pp)(U M kron I) DU: column k is vec(B + B^T)
    with B = dU_k (U M)^T, computed without the p^2 x p^2 factors.  For
    p > r the result is Fortran-ordered: each column is one contiguous block.
    """
    p, r = theta.p, theta.r
    U = cayley_map(theta.phi).matrix
    d_mu = kron(U, U) @ duplication_matrix(r)
    if p == r:
        return d_mu
    # row k of DU^T is vec(dU_k), so this reshape gives dU_k^T as r x p
    dU_t = cayley_jacobian(theta.phi).T.reshape(-1, r, p)
    B_t = (U @ theta.core) @ dU_t
    # B + B^T is symmetric, so its row-major ravel is its vec
    rows = (B_t + B_t.transpose(0, 2, 1)).reshape(-1, p * p)
    return np.concatenate([rows, d_mu.T]).T


def _theta_pair_check(theta, theta0):
    if (theta.p, theta.r) != (theta0.p, theta0.r):
        raise DimensionMismatch("chart points live on different (p, r)")


def taylor_certificate_sym(theta, theta0):
    """First-order Taylor remainder certificate for Sigma(theta):

    ||Sigma(theta) - Sigma(theta0) - mat(DSigma(theta0) dtheta)||_F
        <= 16 (1 + ||M0||_2) ||dtheta||_2^2.
    """
    _theta_pair_check(theta, theta0)
    p = theta.p
    delta = theta.as_vector() - theta0.as_vector()
    R = sigma_of_theta(theta) - sigma_of_theta(theta0)
    R -= (dsigma(theta0) @ delta).reshape((p, p), order="F")
    m0 = spectral_norm(theta0.core)
    return Certificate(
        label="sym_taylor_remainder",
        observed=float(np.linalg.norm(R)),
        bound=16.0 * (1.0 + m0) * float(np.linalg.norm(delta)) ** 2,
    )


def inverse_perturbation_certificate(theta, theta0):
    """Gated reverse bound: small ||Sigma - Sigma0||_F forces small ||dtheta||.

    Requires both cores positive definite.  When the perturbation exceeds
    the gate the bound is vacuous and a GateNotMet marker is returned.
    """
    _theta_pair_check(theta, theta0)
    for name, t in (("M", theta), ("M0", theta0)):
        lam_min = float(np.linalg.eigvalsh(t.core)[0])
        if lam_min <= 0.0:
            raise NotPositiveDefinite(f"{name}: lambda_min = {lam_min:.3e}")
    lam0 = np.linalg.eigvalsh(theta0.core)
    lam_r, lam_1 = float(lam0[0]), float(lam0[-1])
    a0 = spectral_norm(theta0.phi.A)
    dsig = float(np.linalg.norm(sigma_of_theta(theta) - sigma_of_theta(theta0)))
    gate = (1.0 - a0**2) ** 2 * lam_r / (4.0 * np.sqrt(2.0) * (1.0 + a0**2) ** 2)
    if dsig > gate:
        return GateNotMet(
            label="sym_inverse_perturbation", observed_gate=dsig, gate_bound=gate
        )
    factor = 1.0 + 16.0 * np.sqrt(2.0) * (1.0 + lam_1) * (1.0 + a0**2) / (
        lam_r * (1.0 - a0**2)
    )
    delta = theta.as_vector() - theta0.as_vector()
    return Certificate(
        label="sym_inverse_perturbation",
        observed=float(np.linalg.norm(delta)),
        bound=factor * dsig,
    )


def subspace_equivalence_certificates(phi, phi0):
    """Sin-theta versus chart-coordinate equivalence certificates.

    Returns (c1, c2, c3):
      c1: ||sin Theta||_F <= 4 ||phi - phi0||_2, always;
      c2: ||sin Theta||_F <= sqrt(2) ||U - U0||_F, always;
      c3: gated reverse bound ||phi - phi0||_2 <=
          sqrt(2) [1 + 32 sqrt(2) (1 + a0^2)^2 / (1 - a0^2)^2] ||sin Theta||_F,
          returned as GateNotMet when ||sin Theta||_F exceeds
          (1 - a0^2)^2 / (8 (1 + a0^2)^2), with a0 = ||A0||_2.
    """
    if (phi.p, phi.r) != (phi0.p, phi0.r):
        raise DimensionMismatch("chart points live on different (p, r)")
    U = cayley_map(phi).matrix
    U0 = cayley_map(phi0).matrix
    sf = sin_theta(U, U0).dist_frobenius
    dphi = float(np.linalg.norm(phi.values - phi0.values))
    c1 = Certificate(label="sin_theta_vs_phi", observed=sf, bound=4.0 * dphi)
    c2 = Certificate(
        label="sin_theta_vs_frame",
        observed=sf,
        bound=np.sqrt(2.0) * float(np.linalg.norm(U - U0)),
    )
    a0 = spectral_norm(phi0.A)
    gate = (1.0 - a0**2) ** 2 / (8.0 * (1.0 + a0**2) ** 2)
    if sf > gate:
        c3 = GateNotMet(
            label="phi_vs_sin_theta", observed_gate=sf, gate_bound=gate
        )
    else:
        factor = np.sqrt(2.0) * (
            1.0 + 32.0 * np.sqrt(2.0) * (1.0 + a0**2) ** 2 / (1.0 - a0**2) ** 2
        )
        c3 = Certificate(label="phi_vs_sin_theta", observed=dphi, bound=factor * sf)
    return c1, c2, c3


@dataclass(frozen=True)
class RegularityReport:
    """Observed conditioning of DSigma next to the closed-form guarantees.

    sigma_min_cert encodes the lower bound sigma_min_observed >=
    sigma_min_bound, so there observed/bound sit in swapped positions to fit
    the common pass rule observed <= bound (1 + 1e-9).  inv_gram_cert is the
    usual direction.
    """

    sigma_min_observed: float
    sigma_min_bound: float
    inv_gram_norm_observed: float
    inv_gram_norm_bound: float
    sigma_min_cert: Certificate
    inv_gram_cert: Certificate


def regularity_bounds(theta0):
    """Lower bound on sigma_min(D_phi Sigma) and upper bound on
    ||(DSigma^T DSigma)^{-1}||_2 at a chart point with nonsingular core.

    Both constants depend only on r, the singular values of M0, and
    a0 = ||A0||_2; the r = 1 and r >= 2 branches differ.
    """
    p, r = theta0.p, theta0.r
    if p == r:
        raise DimensionMismatch("regularity bounds need r < p (phi nonempty)")
    sv_M = np.linalg.svd(theta0.core, compute_uv=False)
    if sv_M[-1] <= 1e-12 * max(sv_M[0], 1.0):
        raise NotPositiveDefinite(f"core numerically singular: {sv_M[-1]:.3e}")
    sr, s1 = float(sv_M[-1]), float(sv_M[0])
    a0 = spectral_norm(theta0.phi.A)

    D = dsigma(theta0)
    n_phi = (p - r) * r
    sigma_min_observed = float(
        np.linalg.svd(D[:, :n_phi], compute_uv=False)[-1]
    )
    if r >= 2:
        sigma_min_bound = 2.0 * np.sqrt(2.0) * sr * (1.0 - a0**2) / (1.0 + a0**2) ** 2
        inv_bound = 1.0 + (1.0 + 64.0 * s1**2) * (1.0 + a0**2) ** 4 / (
            8.0 * sr**2 * (1.0 - a0**2) ** 2
        )
    else:
        sigma_min_bound = 2.0 * np.sqrt(2.0) * sr / (1.0 + a0**2)
        inv_bound = 1.0 + (1.0 + 64.0 * s1**2) * (1.0 + a0**2) ** 2 / (8.0 * sr**2)

    inv_observed = _inv_gram_norm(D)
    sigma_min_cert = Certificate(
        label="dsigma_phi_sigma_min_lower",
        observed=sigma_min_bound,  # lower bound: pass iff bound <= observed
        bound=sigma_min_observed,
    )
    inv_gram_cert = Certificate(
        label="inv_gram_norm_upper",
        observed=inv_observed,
        bound=inv_bound,
    )
    return RegularityReport(
        sigma_min_observed=sigma_min_observed,
        sigma_min_bound=sigma_min_bound,
        inv_gram_norm_observed=inv_observed,
        inv_gram_norm_bound=inv_bound,
        sigma_min_cert=sigma_min_cert,
        inv_gram_cert=inv_gram_cert,
    )
