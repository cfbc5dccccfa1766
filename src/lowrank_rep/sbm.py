"""Stochastic block model pipeline.

Estimation runs in four steps: (I) spectral clustering of the adjacency
matrix, (II) block-mean initial estimator of the probability matrix,
(III) least-squares fit of the rank-r representation (gaussnewton.fit_sym,
the chart point of the rank-r truncation), and (IV) a single Newton ascent
step on the profile likelihood.  The one-step estimator is asymptotically
normal with covariance J^{-1}/n^2 where J is assembled in asymptotic_cov_J,
and the Monte Carlo harness standardizes errors accordingly.
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
    AsymmetricInput,
    ConfigError,
    DimensionMismatch,
    EmptyBlock,
    ProbabilityOutOfRange,
    RankMismatch,
    SingularFisher,
)
from .gaussnewton import fit_sym
from .mc import Study, StudySize, run_study, sqrt_psd
from .rngs import generator, substream
from .symrep import (
    ThetaSym,
    _eig_by_magnitude,
    dsigma,
    sigma_of_theta,
    theta_of_sigma,
)
from .matkit import vec

__all__ = [
    "SbmModel",
    "BlockCounts",
    "sample_adjacency",
    "spectral_cluster_sbm",
    "block_counts",
    "block_mean_estimator",
    "clip_probabilities",
    "sbm_score",
    "sbm_fisher",
    "one_step",
    "asymptotic_cov_J",
    "SbmExperimentConfig",
    "sbm_experiment",
]

# block probabilities entering score/Fisher must stay inside (EPS, 1-EPS)
PROB_EPS = 1e-6
# finite-sample block means are clipped into this range before the projection
CLIP_LO = 1e-4
FISHER_COND_MAX = 1e12
# full eigendecomposition below this size; Lanczos above
DENSE_EIG_MAX = 400


@dataclass(frozen=True)
class SbmModel:
    """Ground truth: block probabilities, memberships, rank."""

    Sigma0: np.ndarray = field(repr=False)
    tau0: ClusterAssignment = None
    r: int = 1

    def __post_init__(self):
        S = np.asarray(self.Sigma0, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise DimensionMismatch(f"Sigma0 must be square, got {S.shape}")
        K = S.shape[0]
        if np.max(np.abs(S - S.T), initial=0.0) > 1e-12:
            raise AsymmetricInput("Sigma0 must be symmetric")
        if S.min() <= 0.0 or S.max() >= 1.0:
            raise ProbabilityOutOfRange(
                f"entries must lie strictly inside (0,1), got "
                f"[{S.min():.3g}, {S.max():.3g}]"
            )
        if self.tau0.k != K:
            raise DimensionMismatch(f"tau0 has k={self.tau0.k}, Sigma0 has K={K}")
        sv = np.linalg.svd(S, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        if rank != self.r:
            raise RankMismatch(f"rank(Sigma0) = {rank} != r = {self.r}")
        object.__setattr__(self, "Sigma0", S)

    @property
    def K(self):
        return self.Sigma0.shape[0]

    @property
    def n(self):
        return self.tau0.n


@dataclass(frozen=True)
class BlockCounts:
    """Edge counts m[s,t] and pair counts npairs[s,t] over ordered index
    pairs (i, j), i != j, with labels (s, t): m = Z^T A Z and npairs =
    n n^T - diag(n) for class sizes n, both symmetric int64.  Every
    unordered pair is counted twice, hence the factor 1/2 in the score
    and Fisher."""

    m: np.ndarray = field(repr=False)
    npairs: np.ndarray = field(repr=False)


# =====================================================================
# sampling and clustering
# =====================================================================


def _word_thresholds(P):
    # t with w < t exactly when (w >> 11) 2^-53 < P, for every 64-bit word w
    # and 0 < P < 1: P 2^53 and its ceiling are exact, and t < 2^64
    return np.ceil(np.asarray(P) * 2.0**53).astype(np.uint64) << np.uint64(11)


def sample_adjacency(model, seed):
    """Symmetric 0/1 adjacency (int8) with zero diagonal, Bernoulli edges.

    Stream contract: the seed's generator yields n^2 uniforms u in
    row-major order, and edge {i, j} with i < j is present when
    u[i, j] < Sigma0[tau_i, tau_j]; the diagonal and the lower triangle of
    the stream are drawn but unused.  Generator.random is (w >> 11) 2^-53
    for the raw 64-bit word w, so for 0 < P < 1 the test u < P is
    w < ceil(P 2^53) 2^11, read from one K x n table of integer
    thresholds.  The raw words are drawn in row blocks of about 2^17
    values, so no n x n word array is formed; the only n x n arrays are
    bool (one byte per entry), and only the strict upper triangle is
    written before the transpose fills the lower one.
    """
    tau = model.tau0.labels
    n = tau.size
    bits = generator(seed).bit_generator
    table = _word_thresholds(model.Sigma0)[:, tau]
    A = np.zeros((n, n), dtype=bool)
    step = max(1, 2**17 // max(n, 1))
    # the strict upper triangle of one diagonal block
    upper = np.triu(np.ones((min(step, n),) * 2, dtype=bool), 1)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        w = bits.random_raw((i1 - i0, n))
        np.less(w[:, i0:], table[tau[i0:i1], i0:], out=A[i0:i1, i0:])
        A[i0:i1, i0:i1] &= upper[: i1 - i0, : i1 - i0]
    A |= A.T
    return A.view(np.int8)


def _symv_operator(Af):
    """x -> Af @ x for a symmetric C-ordered float64 Af, by BLAS dsymv.

    dsymv runs in the BLAS that ARPACK links (numpy's dot would go through
    a second BLAS library with its own thread pool) and reads one triangle
    of Af.  Af.T is the F-contiguous view of the symmetric Af, so f2py
    passes it without copying; a C-ordered argument is copied per call.
    """
    import scipy.sparse.linalg
    from scipy.linalg.blas import dsymv

    Ft = Af.T
    return scipy.sparse.linalg.LinearOperator(
        Af.shape, matvec=lambda x: dsymv(1.0, Ft, x), dtype=float
    )


def _leading_eigvecs(A, r, seed):
    n = A.shape[0]
    # one float copy per replicate: an int8 operator would re-cast per matvec
    Af = A.astype(float)
    if n <= DENSE_EIG_MAX or r >= n - 1:
        return _eig_by_magnitude(Af)[1][:, :r]
    import scipy.sparse.linalg

    v0 = substream(seed, 7).standard_normal(n)
    lam, V = scipy.sparse.linalg.eigsh(_symv_operator(Af), k=r, which="LM", v0=v0)
    order = np.argsort(-np.abs(lam), kind="stable")
    return V[:, order]


def spectral_cluster_sbm(A, r, K, seed, restarts=20):
    """k-means labels from the rows of the r leading-magnitude eigenvectors."""
    n = A.shape[0]
    if not (1 <= r <= K <= n):
        raise DimensionMismatch(f"need 1 <= r <= K <= n, got r={r}, K={K}, n={n}")
    V = _leading_eigvecs(A, r, seed)
    return kmeans(V, K, restarts=restarts, seed=seed).assignment


def block_counts(A, tau):
    """BlockCounts of a 0/1 adjacency with zero diagonal, given labels.

    The only path from (A, labels) to likelihood statistics; computed once
    per replicate.  m sums the rows, then the columns, of each class in
    exact int64 arithmetic (one O(n^2) pass, no BLAS call).
    """
    if A.shape != (tau.n, tau.n):
        raise DimensionMismatch(f"A is {A.shape}, labels have n={tau.n}")
    members = [tau.labels == s for s in range(tau.k)]
    rows = np.stack([A[mask].sum(axis=0, dtype=np.int64) for mask in members])
    m = np.stack([rows[:, mask].sum(axis=1) for mask in members], axis=1)
    sizes = tau.counts()
    return BlockCounts(m=m, npairs=np.outer(sizes, sizes) - np.diag(sizes))


def block_mean_estimator(counts):
    """Within-block edge fractions m / npairs: the maximum likelihood
    estimator of the block probabilities given the labels.

    Entry (s,t) averages A over all pairs i != j with labels (s,t) in either
    order; a class with fewer than two members has no within-class pairs.
    Values can hit 0 or 1 on finite samples; they are reported untouched
    and clipped downstream (clip_probabilities).
    """
    short = np.flatnonzero(np.diag(counts.npairs) == 0)
    if short.size:
        raise EmptyBlock(f"classes with fewer than two members: {short}")
    return counts.m / counts.npairs


def clip_probabilities(Sigma):
    """Clip block probabilities into [1e-4, 1 - 1e-4] for the likelihood."""
    return np.clip(Sigma, CLIP_LO, 1.0 - CLIP_LO)


# =====================================================================
# likelihood machinery
# =====================================================================


def _checked_probs(theta):
    S = sigma_of_theta(theta)
    if S.min() <= PROB_EPS or S.max() >= 1.0 - PROB_EPS:
        raise ProbabilityOutOfRange(
            f"Sigma(theta) entries in [{S.min():.3g}, {S.max():.3g}] leave "
            f"({PROB_EPS}, {1 - PROB_EPS})"
        )
    return S


def sbm_score(theta, counts):
    """Gradient of the log-likelihood in theta (length d).  The tally is
    symmetric, as is every dsigma column, so halving it gives the i<j sum."""
    S = _checked_probs(theta)
    W = 0.5 * (counts.m - counts.npairs * S) / (S * (1.0 - S))
    return dsigma(theta).T @ vec(W)


def sbm_fisher(theta, counts):
    """Fisher information of theta given labels; symmetric PSD d x d.
    Reads only counts.npairs (ordered pairs, hence the factor 1/2)."""
    S = _checked_probs(theta)
    W = 0.5 * counts.npairs / (S * (1.0 - S))
    D = dsigma(theta)
    F = D.T @ (vec(W)[:, None] * D)
    F = 0.5 * (F + F.T)
    s = np.linalg.svd(F, compute_uv=False)
    if s[0] > FISHER_COND_MAX * max(s[-1], 1e-300):
        raise SingularFisher(
            f"condition number {s[0] / max(s[-1], 1e-300):.3e} exceeds 1e12"
        )
    return F


def one_step(theta_tilde, counts):
    """Single Newton ascent step from the projected initial estimator:
    theta_hat = theta_tilde + Fisher^{-1} score, both from the tally."""
    F = sbm_fisher(theta_tilde, counts)
    g = sbm_score(theta_tilde, counts)
    try:
        step = np.linalg.solve(F, g)
    except np.linalg.LinAlgError as exc:
        raise SingularFisher(str(exc)) from exc
    return ThetaSym.from_vector(
        theta_tilde.p, theta_tilde.r, theta_tilde.as_vector() + step
    )


def asymptotic_cov_J(theta, pi):
    """Limiting information matrix J of the one-step estimator.

    J = sum_{s,t} pi_s pi_t x_st x_st^T / (2 S_st (1 - S_st)) with
    x_st = DSigma^T vec(E_st); the errors n (theta_hat - theta_0) are
    asymptotically N(0, J^{-1}).  A caller with permuted labels passes the
    permuted proportions.
    """
    S = _checked_probs(theta)
    pi = np.asarray(pi, dtype=float)
    W = np.outer(pi, pi) / (2.0 * S * (1.0 - S))
    D = dsigma(theta)
    J = D.T @ (vec(W)[:, None] * D)
    return 0.5 * (J + J.T)


# =====================================================================
# Monte Carlo harness
# =====================================================================


@dataclass(frozen=True)
class SbmExperimentConfig:
    """Study design: truth, sizes, replicate count.

    pi defaults to uniform proportions; memberships are laid out by
    balanced_assignment at each n, which checks pi.  The sizes and counts
    must be integers in range; they are checked here and raise ConfigError
    at construction.
    """

    Sigma0: np.ndarray = field(repr=False)
    r: int = 1
    n_values: tuple = (400,)
    replicates: int = 100
    pi: np.ndarray = field(default=None, repr=False)
    kmeans_restarts: int = 20

    def __post_init__(self):
        S = np.asarray(self.Sigma0, dtype=float)
        object.__setattr__(self, "Sigma0", S)
        K = S.shape[0]
        pi = np.full(K, 1.0 / K) if self.pi is None else np.asarray(self.pi, float)
        object.__setattr__(self, "pi", pi)
        n_values = tuple(self.n_values)
        if not n_values or not all(isinstance(v, Integral) for v in n_values):
            raise ConfigError(f"need integer n_values, at least one; got {n_values}")
        if min(n_values) < 1:
            raise ConfigError(f"need n_values >= 1, got {n_values}")
        object.__setattr__(self, "n_values", tuple(int(v) for v in n_values))
        if not isinstance(self.replicates, Integral) or self.replicates < 0:
            raise ConfigError(f"need integer replicates >= 0, got {self.replicates}")
        if not isinstance(self.kmeans_restarts, Integral) or self.kmeans_restarts < 1:
            raise ConfigError(
                f"need integer kmeans_restarts >= 1, got {self.kmeans_restarts}"
            )

    @property
    def K(self):
        return self.Sigma0.shape[0]

    def study(self):
        """The mc.Study of this design: the chart point of Sigma0, J^{1/2}
        as standardizer, and one replicate pipeline per network size.  The
        truth model is built and validated at every size here, so a bad
        design raises before any replicate runs."""
        sizes = tuple(_study_size(self, n) for n in self.n_values)
        theta0 = theta_of_sigma(self.Sigma0, self.r)
        J_half = sqrt_psd(asymptotic_cov_J(theta0, self.pi))
        return Study(theta0, J_half, sigma_of_theta, sizes)


def _study_size(config, n):
    tau0 = balanced_assignment(n, config.pi)
    model = SbmModel(config.Sigma0, tau0, config.r)

    def mse(Sigma):
        return n * float(np.linalg.norm(Sigma - config.Sigma0) ** 2)

    def sample(seed):
        return sample_adjacency(model, seed)

    def replicate(A, seed, row):
        tau_hat = spectral_cluster_sbm(
            A, config.r, config.K, seed, restarts=config.kmeans_restarts
        )
        perm, ham = align_labels(tau_hat, tau0)
        row["aligned_hamming"] = ham
        counts = block_counts(A, relabel(tau_hat, perm))
        Sigma_naive = block_mean_estimator(counts)
        row["mse_naive"] = mse(Sigma_naive)
        # a fit with no chart point raises, which excludes the replicate
        theta_tilde = fit_sym(clip_probabilities(Sigma_naive), config.r)
        return one_step(theta_tilde, counts)

    return StudySize({"n": n}, n, mse, sample, replicate)


def sbm_experiment(config, base_seed):
    """Run the full pipeline per replicate and summarize per network size.

    Replicate i of every size uses seed base_seed + i; replicates whose
    clustering is not exactly recovered, or that fail numerically, are
    flagged, counted, and excluded from the normality statistics
    (mc.run_study).
    """
    return run_study(config.study(), config.replicates, base_seed)
