"""Biclustering pipeline for block-mean matrices with low-rank structure.

Data model: Y = P0 Sigma0 Q0^T + E with E iid mean-zero noise of variance
sigma2, row classes of proportions w, column classes of proportions pi.
Estimation: spectral co-clustering, per-block means, then a least-squares
fit of the rank-r rectangular representation (gaussnewton.fit_rect, the
chart point of the truncated SVD).  The standardized errors sqrt(mn)
G^{-1/2} (theta_hat - theta0) are asymptotically standard normal.

The middle factor of G is the limiting covariance of the vectorized block
means: block (s,t) averages about (m w_s)(n pi_t) entries, so
sqrt(mn) (Sigma_hat - Sigma0)_st has variance sigma2 / (w_s pi_t).
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .cluster import (
    ClusterAssignment,
    align_labels,
    balanced_assignment,
    kmeans,
    relabel,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyBlock,
    NotPositiveDefinite,
    SingularGram,
)
from .gaussnewton import fit_rect
from .matkit import vec
from .mc import Study, StudySize, invsqrt_pd, run_study
from .rectrep import dsigma_rect, sigma_of_theta_rect, theta_of_sigma_rect
from .rngs import generator, substream

__all__ = [
    "BiclusterModel",
    "sample_data",
    "spectral_cocluster",
    "block_means",
    "asymptotic_cov_G",
    "BiclusterExperimentConfig",
    "bicluster_experiment",
]

GRAM_COND_MAX = 1e12
# full SVD below this size, Lanczos above
DENSE_SVD_MAX = 400
NOISE_KINDS = ("gaussian", "uniform")


@dataclass(frozen=True)
class BiclusterModel:
    """Ground truth: block means, row/column memberships, noise variance."""

    Sigma0: np.ndarray = field(repr=False)
    tau0: ClusterAssignment = None
    gamma0: ClusterAssignment = None
    sigma2: float = 1.0

    def __post_init__(self):
        S = np.asarray(self.Sigma0, dtype=float)
        if S.ndim != 2:
            raise DimensionMismatch("Sigma0 must be a matrix")
        p1, p2 = S.shape
        if self.tau0.k != p1 or self.gamma0.k != p2:
            raise DimensionMismatch(
                f"assignments have k = ({self.tau0.k}, {self.gamma0.k}), "
                f"Sigma0 is {p1} x {p2}"
            )
        if self.sigma2 < 0:
            raise DimensionMismatch(f"need sigma2 >= 0, got {self.sigma2}")
        object.__setattr__(self, "Sigma0", S)

    @property
    def p1(self):
        return self.Sigma0.shape[0]

    @property
    def p2(self):
        return self.Sigma0.shape[1]

    @property
    def m(self):
        return self.tau0.n

    @property
    def n(self):
        return self.gamma0.n


def _one_hot(assignment):
    Z = np.zeros((assignment.n, assignment.k))
    Z[np.arange(assignment.n), assignment.labels] = 1.0
    return Z


def sample_data(model, seed, noise="gaussian"):
    """Signal-plus-noise sample, deterministic per seed.

    noise picks the mean-zero family, scaled to variance sigma2 = s^2:
    gaussian, or uniform on [-sqrt(3) s, sqrt(3) s].
    """
    if noise not in NOISE_KINDS:
        raise DimensionMismatch(f"unknown noise family {noise!r}")
    # take along axis 1 keeps the gather C-ordered; Sigma0[tau][:, gamma]
    # would be F-ordered and slow down the sum with the C-ordered noise
    mean = np.take(model.Sigma0[model.tau0.labels], model.gamma0.labels, axis=1)
    s = float(np.sqrt(model.sigma2))
    gen = generator(seed)
    shape = (model.m, model.n)
    if s == 0.0:
        return mean
    if noise == "gaussian":
        # normal(0, s) is 0 + s z: scaling the standard draws in place gives
        # the same values without a second m x n array
        E = gen.standard_normal(shape)
        E *= s
    else:
        half = np.sqrt(3.0) * s
        E = gen.uniform(-half, half, size=shape)
    E += mean
    return E


# =====================================================================
# co-clustering and block means
# =====================================================================


def _leading_singular_vecs(Y, r, seed):
    if min(Y.shape) <= DENSE_SVD_MAX or r >= min(Y.shape) - 1:
        U, _, Vt = np.linalg.svd(Y, full_matrices=False)
        return U[:, :r], Vt[:r, :].T
    import scipy.sparse.linalg

    v0 = substream(seed, 7).standard_normal(min(Y.shape))
    U, s, Vt = scipy.sparse.linalg.svds(Y, k=r, v0=v0)
    order = np.argsort(-s, kind="stable")
    return U[:, order], Vt[order, :].T


def spectral_cocluster(Y, r, p1, p2, seed, restarts=20):
    """Row and column labels from the leading singular vector rows."""
    Y = np.asarray(Y, dtype=float)
    m, n = Y.shape
    if not (1 <= r <= min(p1, p2)) or p1 > m or p2 > n:
        raise DimensionMismatch(
            f"need r <= min(p1, p2), p1 <= m, p2 <= n; got "
            f"r={r}, p1={p1}, p2={p2}, shape={Y.shape}"
        )
    U, V = _leading_singular_vecs(Y, r, seed)
    # disjoint integer streams for the two k-means passes
    tau_hat = kmeans(U, p1, restarts=restarts, seed=2 * seed).assignment
    gamma_hat = kmeans(V, p2, restarts=restarts, seed=2 * seed + 1).assignment
    return tau_hat, gamma_hat


def block_means(Y, tau_hat, gamma_hat):
    """Per-block averages of Y; the least-squares block matrix given labels."""
    Y = np.asarray(Y, dtype=float)
    counts_r = tau_hat.counts()
    counts_c = gamma_hat.counts()
    if np.any(counts_r == 0) or np.any(counts_c == 0):
        raise EmptyBlock(
            f"empty classes: rows {np.flatnonzero(counts_r == 0)}, "
            f"columns {np.flatnonzero(counts_c == 0)}"
        )
    sums = _one_hot(tau_hat).T @ Y @ _one_hot(gamma_hat)
    return sums / np.outer(counts_r, counts_c)


# =====================================================================
# limiting covariance
# =====================================================================


def asymptotic_cov_G(theta, w, pi, sigma2):
    """Limiting covariance G of sqrt(mn) (theta_hat - theta0).

    G = H^{-1} D^T diag(sigma2 vec(V)) D H^{-1} with H = D^T D and
    V_st = 1 / (w_s pi_t), the variance profile of the standardized block
    means (block (s,t) holds a w_s pi_t fraction of the mn entries).
    Symmetric PSD; raises
    NotPositiveDefinite when the profile or G overflows (a huge sigma2).
    """
    w = np.asarray(w, dtype=float)
    pi = np.asarray(pi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        profile = sigma2 / np.outer(w, pi)
    if not np.all(np.isfinite(profile)):
        raise NotPositiveDefinite(
            f"noise profile sigma2 / (w_s pi_t) overflows at sigma2 = {sigma2:.3g}"
        )
    D = dsigma_rect(theta)
    H = D.T @ D
    s = np.linalg.svd(H, compute_uv=False)
    if s[0] > GRAM_COND_MAX * max(s[-1], 1e-300):
        raise SingularGram(
            f"Gram condition number {s[0] / max(s[-1], 1e-300):.3e} exceeds 1e12"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        inner = D.T @ (vec(profile)[:, None] * D)
    G = np.linalg.solve(H, np.linalg.solve(H, inner).T)
    if not np.all(np.isfinite(G)):
        raise NotPositiveDefinite(f"covariance G overflows at sigma2 = {sigma2:.3g}")
    return 0.5 * (G + G.T)


# =====================================================================
# Monte Carlo harness
# =====================================================================


@dataclass(frozen=True)
class BiclusterExperimentConfig:
    """Study design: truth, noise level, data sizes (m, n), replicates.

    w and pi default to uniform proportions; memberships are laid out by
    balanced_assignment at each size, which checks them.  The sizes and
    counts (integers in range), sigma2 and noise are checked here and raise
    ConfigError at construction.
    """

    Sigma0: np.ndarray = field(repr=False)
    r: int = 1
    sizes: tuple = ((200, 200),)
    replicates: int = 100
    sigma2: float = 1.0
    w: np.ndarray = field(default=None, repr=False)
    pi: np.ndarray = field(default=None, repr=False)
    noise: str = "gaussian"
    kmeans_restarts: int = 20

    def __post_init__(self):
        S = np.asarray(self.Sigma0, dtype=float)
        object.__setattr__(self, "Sigma0", S)
        p1, p2 = S.shape
        w = np.full(p1, 1.0 / p1) if self.w is None else np.asarray(self.w, float)
        pi = np.full(p2, 1.0 / p2) if self.pi is None else np.asarray(self.pi, float)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "pi", pi)
        sizes = tuple(tuple(size) for size in self.sizes)
        flat = [v for size in sizes for v in size]
        if not sizes or not all(isinstance(v, Integral) for v in flat):
            raise ConfigError(f"need integer sizes (m, n), at least one; got {sizes}")
        if min(flat) < 1:
            raise ConfigError(f"need sizes m, n >= 1, got {sizes}")
        sizes = tuple((int(m), int(n)) for m, n in sizes)
        object.__setattr__(self, "sizes", sizes)
        if not isinstance(self.replicates, Integral) or self.replicates < 0:
            raise ConfigError(f"need integer replicates >= 0, got {self.replicates}")
        if not isinstance(self.kmeans_restarts, Integral) or self.kmeans_restarts < 1:
            raise ConfigError(
                f"need integer kmeans_restarts >= 1, got {self.kmeans_restarts}"
            )
        if not 0.0 < self.sigma2 < np.inf:
            raise ConfigError(f"need a finite sigma2 > 0, got {self.sigma2}")
        if self.noise not in NOISE_KINDS:
            kinds = " or ".join(NOISE_KINDS)
            raise ConfigError(f"noise must be {kinds}, got {self.noise!r}")

    @property
    def p1(self):
        return self.Sigma0.shape[0]

    @property
    def p2(self):
        return self.Sigma0.shape[1]

    def study(self):
        """The mc.Study of this design: the chart point of Sigma0, G^{-1/2}
        as standardizer, and one replicate pipeline per (m, n) size.  The
        truth model is built and validated at every size here, so a bad
        design raises before any replicate runs."""
        sizes = tuple(_study_size(self, m, n) for m, n in self.sizes)
        theta0 = theta_of_sigma_rect(self.Sigma0, self.r)
        G = asymptotic_cov_G(theta0, self.w, self.pi, self.sigma2)
        return Study(theta0, invsqrt_pd(G), sigma_of_theta_rect, sizes)


def _study_size(config, m, n):
    tau0 = balanced_assignment(m, config.w)
    gamma0 = balanced_assignment(n, config.pi)
    model = BiclusterModel(config.Sigma0, tau0, gamma0, config.sigma2)

    def mse(Sigma):
        return m * n * float(np.linalg.norm(Sigma - config.Sigma0) ** 2)

    def sample(seed):
        return sample_data(model, seed, noise=config.noise)

    def replicate(Y, seed, row):
        tau_hat, gamma_hat = spectral_cocluster(
            Y, config.r, config.p1, config.p2, seed, restarts=config.kmeans_restarts
        )
        perm_r, ham_r = align_labels(tau_hat, tau0)
        perm_c, ham_c = align_labels(gamma_hat, gamma0)
        row["aligned_hamming"] = ham_r + ham_c
        Sigma_hat = block_means(
            Y, relabel(tau_hat, perm_r), relabel(gamma_hat, perm_c)
        )
        row["mse_naive"] = mse(Sigma_hat)
        # a fit with no chart point raises, which excludes the replicate
        return fit_rect(Sigma_hat, config.r)

    scale = float(np.sqrt(m * n))
    return StudySize({"m": m, "n": n}, scale, mse, sample, replicate)


def bicluster_experiment(config, base_seed):
    """Full pipeline per replicate, summarized per (m, n) size.

    Replicate i uses seed base_seed + i.  Replicates with imperfect
    co-clustering or numerical failures are flagged and excluded from the
    normality statistics; their count is reported (mc.run_study).
    """
    return run_study(config.study(), config.replicates, base_seed)
