"""Rectangular low-rank representation Sigma(theta) = M(mu) U(phi)^T.

Sigma is p1 x p2 of rank at most r.  The right factor U(phi) lives in
O_plus(p2, r) through the Cayley chart and M(mu) is an unrestricted p1 x r
matrix stored column-stacked, so d = (p2 - r) r + p1 r.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cayley import (
    Certificate,
    Phi,
    StiefelPlus,
    _top_block_frame,
    cayley_inverse,
)
from .errors import DimensionMismatch, SingularGram
from .matkit import _inv_gram_norm, _read_only, kron, spectral_norm, unvec, vec

__all__ = [
    "ThetaRect",
    "sigma_of_theta_rect",
    "theta_of_sigma_rect",
    "dsigma_rect",
    "taylor_certificate_rect",
    "regularity_bound_rect",
]

@dataclass(frozen=True)
class ThetaRect:
    """Chart point: phi over (p2, r), mu = vec(M) with M of shape p1 x r.

    Construction copies mu, read-only.  Sigma(theta) and DSigma(theta) are
    computed on first use and kept, read-only, for the lifetime of the point.
    """

    p1: int
    phi: Phi
    mu: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.p1 < 1:
            raise DimensionMismatch(f"need p1 >= 1, got {self.p1}")
        mu = np.array(self.mu, dtype=float).ravel()
        if mu.size != self.p1 * self.r:
            raise DimensionMismatch(
                f"mu length {mu.size} != p1 r = {self.p1 * self.r}"
            )
        object.__setattr__(self, "mu", _read_only(mu))

    @property
    def p2(self):
        return self.phi.p

    @property
    def r(self):
        return self.phi.r

    @property
    def d(self):
        return (self.p2 - self.r) * self.r + self.p1 * self.r

    @property
    def core(self):
        """The p1 x r factor M(mu)."""
        return unvec(self.mu, (self.p1, self.r))

    def as_vector(self):
        return np.concatenate([self.phi.values, self.mu])

    @classmethod
    def from_vector(cls, p1, p2, r, vector):
        vector = np.atleast_1d(np.asarray(vector, dtype=float)).ravel()
        n_phi = (p2 - r) * r
        if vector.size != n_phi + p1 * r:
            raise DimensionMismatch(
                f"theta vector length {vector.size} wrong for ({p1}, {p2}, {r})"
            )
        return cls(p1, Phi(p2, r, vector[:n_phi]), vector[n_phi:])

    @cached_property
    def sigma(self):
        """Sigma(theta); see sigma_of_theta_rect."""
        return _read_only(self.core @ self.phi.frame.matrix.T)

    @cached_property
    def jacobian(self):
        """DSigma(theta), (p1 p2) x d; see dsigma_rect."""
        p1, p2, r = self.p1, self.p2, self.r
        d_mu = kron(self.phi.frame.matrix, np.eye(p1))
        if p2 == r:
            return _read_only(d_mu)
        dU = self.phi.jacobian.reshape(p2, r, -1, order="F")
        # C[i, l, k] = sum_j M[i, j] dU_k[l, j]
        C = np.tensordot(self.core, dU, axes=(1, 1))
        return _read_only(np.hstack([C.reshape(p1 * p2, -1, order="F"), d_mu]))


def sigma_of_theta_rect(theta):
    """Sigma(theta) = M(mu) U(phi)^T, a p1 x p2 matrix of rank <= r;
    theta.sigma."""
    return theta.sigma


def theta_of_sigma_rect(Sigma, r):
    """Chart coordinates of a p1 x p2 matrix with numerical rank r.

    SVD Sigma = V1 Lambda V2^T, rotate V2 to a PD top block, absorb the
    rotation into M.  Singular-value ties at the cut are rejected.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2:
        raise DimensionMismatch("expected a matrix")
    p1, p2 = Sigma.shape
    if not (1 <= r <= min(p1, p2)):
        raise DimensionMismatch(f"need 1 <= r <= min(p1, p2), got r={r}")
    V1, s, V2t = np.linalg.svd(Sigma, full_matrices=False)
    U, rotate = _top_block_frame(s, V2t.T, r)
    M = rotate(V1[:, :r] @ np.diag(s[:r]))
    phi = cayley_inverse(StiefelPlus(U))
    return ThetaRect(p1, phi, vec(M))


def dsigma_rect(theta):
    """Jacobian of vec(Sigma(theta)), shape (p1 p2) x d.

    D_phi = K_{p2 p1} (M kron I_{p2}) DU(phi),  D_mu = U kron I_{p1}.
    Column k of D_phi is vec(M dU_k^T), computed without forming K or the
    Kronecker factor.  Returns theta.jacobian.
    """
    return theta.jacobian


def taylor_certificate_rect(theta, theta0):
    """||Sigma - Sigma0 - mat(DSigma(theta0) dtheta)||_F
    <= (4 + 8 ||M0||_2) ||dtheta||_2^2."""
    if (theta.p1, theta.p2, theta.r) != (theta0.p1, theta0.p2, theta0.r):
        raise DimensionMismatch("chart points live on different dimensions")
    delta = theta.as_vector() - theta0.as_vector()
    R = sigma_of_theta_rect(theta) - sigma_of_theta_rect(theta0)
    R -= unvec(dsigma_rect(theta0) @ delta, (theta.p1, theta.p2))
    m0 = spectral_norm(theta0.core)
    return Certificate(
        label="rect_taylor_remainder",
        observed=float(np.linalg.norm(R)),
        bound=(4.0 + 8.0 * m0) * float(np.linalg.norm(delta)) ** 2,
    )


def regularity_bound_rect(theta0):
    """Upper bound on ||(DSigma^T DSigma)^{-1}||_2 for the rectangular chart.

    Requires M0 of full column rank; r = 1 and r >= 2 branches differ.
    Returns the Certificate rect_inv_gram_norm_upper.
    """
    sv_M = np.linalg.svd(theta0.core, compute_uv=False)
    if sv_M.size < theta0.r or sv_M[-1] <= 1e-12 * max(sv_M[0], 1.0):
        raise SingularGram(f"core rank deficient: sigma_r = {sv_M[-1]:.3e}")
    sr, s1 = float(sv_M[-1]), float(sv_M[0])
    a0 = theta0.phi.norm
    if theta0.r >= 2:
        bound = 1.0 + (1.0 + 8.0 * s1**2) * (1.0 + a0**2) ** 4 / (
            4.0 * sr**2 * (1.0 - a0**2) ** 2
        )
    else:
        bound = 1.0 + (1.0 + 8.0 * s1**2) * (1.0 + a0**2) ** 2 / (4.0 * sr**2)
    return Certificate(
        label="rect_inv_gram_norm_upper",
        observed=_inv_gram_norm(dsigma_rect(theta0)),
        bound=bound,
    )
