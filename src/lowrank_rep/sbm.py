"""Stochastic block model pipeline.

Estimation runs in four steps: (I) spectral clustering of the adjacency
matrix, (II) block-mean initial estimator of the probability matrix,
(III) least-squares projection onto the rank-r representation, and (IV) a
single Newton ascent step on the profile likelihood.  The one-step
estimator is asymptotically normal with covariance J^{-1}/n^2 where J is
assembled in asymptotic_cov_J, and the Monte Carlo harness standardizes
errors accordingly.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from .cluster import ClusterAssignment, align_labels, kmeans, relabel
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    EmptyBlock,
    NumericsError,
    ProbabilityOutOfRange,
    ProjectionFailed,
    RankMismatch,
    SingularFisher,
)
from .gaussnewton import refine_least_squares
from .mc import sqrt_psd, summarize_replicates
from .rngs import generator, replicate_seed, substream
from .symrep import ThetaSym, dsigma, sigma_of_theta, theta_of_sigma
from .matkit import vec

__all__ = [
    "SbmModel",
    "BlockCounts",
    "sample_adjacency",
    "spectral_cluster_sbm",
    "block_counts",
    "block_mean_estimator",
    "clip_probabilities",
    "project_to_manifold",
    "sbm_log_likelihood",
    "sbm_score",
    "sbm_fisher",
    "one_step",
    "asymptotic_cov_J",
    "SbmExperimentConfig",
    "sbm_experiment",
    "balanced_assignment",
]

# block probabilities entering score/Fisher must stay inside (EPS, 1-EPS)
PROB_EPS = 1e-6
# finite-sample block means are clipped into this range before refitting
CLIP_LO = 1e-4
FISHER_COND_MAX = 1e12
# full eigendecomposition below this size; Lanczos above
DENSE_EIG_MAX = 400


@dataclass(frozen=True)
class SbmModel:
    """Ground truth: block probabilities, memberships, rank, proportions."""

    Sigma0: np.ndarray = field(repr=False)
    tau0: ClusterAssignment = None
    r: int = 1
    pi: np.ndarray = field(default=None, repr=False)

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
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (K,) or pi.min() <= 0 or abs(pi.sum() - 1.0) > 1e-12:
            raise DimensionMismatch("pi must be a positive length-K probability vector")
        object.__setattr__(self, "Sigma0", S)
        object.__setattr__(self, "pi", pi)

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
    unordered pair is counted twice, hence the factor 1/2 in the
    log-likelihood, score and Fisher."""

    m: np.ndarray = field(repr=False)
    npairs: np.ndarray = field(repr=False)


def balanced_assignment(n, pi):
    """Deterministic membership with class sizes proportional to pi.

    Largest-remainder rounding; labels laid out in sorted blocks.
    """
    pi = np.asarray(pi, dtype=float)
    K = pi.size
    counts = np.floor(pi * n).astype(np.int64)
    short = n - counts.sum()
    if short > 0:
        frac = pi * n - np.floor(pi * n)
        for j in np.argsort(-frac, kind="stable")[:short]:
            counts[j] += 1
    return ClusterAssignment(np.repeat(np.arange(K), counts), K)


# =====================================================================
# sampling and clustering
# =====================================================================


def sample_adjacency(model, seed):
    """Symmetric 0/1 adjacency (int8) with zero diagonal, Bernoulli edges.

    Stream contract: the seed's generator yields n^2 uniforms u in
    row-major order, and edge {i, j} with i < j is present when
    u[i, j] < Sigma0[tau_i, tau_j]; the diagonal and the lower triangle of
    the stream are drawn but unused.  The uniforms are drawn in row blocks
    of about 2^17 values, so no n x n float array is formed; the only
    n x n arrays are bool (one byte per entry).
    """
    tau = model.tau0.labels
    n = tau.size
    gen = generator(seed)
    up = np.empty((n, n), dtype=bool)
    step = max(1, 2**17 // max(n, 1))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        u = gen.random((i1 - i0, n))
        # columns j < i0 lie below the diagonal and are zeroed by triu
        np.less(
            u[:, i0:], model.Sigma0[tau[i0:i1]][:, tau[i0:]], out=up[i0:i1, i0:]
        )
    A = np.triu(up, 1)
    A |= A.T
    return A.view(np.int8)


def _symv_operator(Af):
    """x -> Af @ x for a symmetric C-ordered float64 Af, by BLAS dsymv.

    dsymv runs in the BLAS that ARPACK links (numpy's dot would go through
    a second BLAS library with its own thread pool) and reads one triangle
    of Af.  Af.T is the F-contiguous view of the symmetric Af, so f2py
    passes it without copying; a C-ordered argument is copied per call.
    """
    Ft = Af.T
    return scipy.sparse.linalg.LinearOperator(
        Af.shape, matvec=lambda x: dsymv(1.0, Ft, x), dtype=float
    )


def _leading_eigvecs(A, r, seed):
    n = A.shape[0]
    # one float copy per replicate: an int8 operator would re-cast per matvec
    Af = A.astype(float)
    if n <= DENSE_EIG_MAX or r >= n - 1:
        lam, V = np.linalg.eigh(Af)
        order = np.argsort(-np.abs(lam), kind="stable")
        return V[:, order[:r]]
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
# manifold projection
# =====================================================================


def _rank_r_truncation(T, r):
    lam, V = np.linalg.eigh(0.5 * (T + T.T))
    order = np.argsort(-np.abs(lam), kind="stable")[:r]
    return (V[:, order] * lam[order]) @ V[:, order].T


def _project_with_permutation(Sigma_tilde, r):
    T = np.asarray(Sigma_tilde, dtype=float)
    K = T.shape[0]
    init = None
    for perm in permutations(range(K)):
        idx = np.array(perm, dtype=np.int64)
        T_perm = T[np.ix_(idx, idx)]
        try:
            init = theta_of_sigma(_rank_r_truncation(T_perm, r), r)
        except NumericsError:
            continue
        target = T_perm
        break
    if init is None:
        raise ProjectionFailed(
            f"no row/column permutation of the {K}x{K} input admits a "
            f"rank-{r} representer with a PD top block"
        )
    theta, _ = refine_least_squares(
        init.as_vector(),
        vec(target),
        lambda th: vec(sigma_of_theta(th)),
        dsigma,
        lambda v: ThetaSym.from_vector(K, r, v),
    )
    return theta, idx


def project_to_manifold(Sigma_tilde, r):
    """Least-squares fit of the rank-r representation to a block matrix.

    Initializes from the chart coordinates of the best rank-r approximation;
    when the leading-block rotation degenerates, simultaneous row/column
    permutations of Sigma_tilde are tried in lexicographic order until one
    admits a representer.  If a non-identity permutation is needed, the fit
    targets that permuted matrix (no unpermuted representer exists in the
    chart); callers sensitive to ordering should reorder classes first.
    Refined by damped Gauss-Newton.
    """
    theta, _ = _project_with_permutation(Sigma_tilde, r)
    return theta


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


def sbm_log_likelihood(theta, counts):
    """Bernoulli log-likelihood of the graph given labels, each pair i<j once:
    half the sum over the ordered-pair tally."""
    S = _checked_probs(theta)
    m, npairs = counts.m, counts.npairs
    return 0.5 * float(np.sum(m * np.log(S) + (npairs - m) * np.log1p(-S)))


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


def asymptotic_cov_J(theta, pi, Pi=None):
    """Limiting information matrix J of the one-step estimator.

    J = sum_{s,t} q_s q_t x_st x_st^T / (2 S_st (1 - S_st)) with q = Pi pi
    and x_st = DSigma^T vec(E_st); the errors n (theta_hat - theta_0) are
    asymptotically N(0, J^{-1}).  Pi is an optional label permutation
    (array form: q[s] = pi[Pi[s]]).
    """
    S = _checked_probs(theta)
    pi = np.asarray(pi, dtype=float)
    q = pi if Pi is None else pi[np.asarray(Pi, dtype=np.int64)]
    W = np.outer(q, q) / (2.0 * S * (1.0 - S))
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
    balanced_assignment at each n.
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
        pi = (
            np.full(K, 1.0 / K)
            if self.pi is None
            else np.asarray(self.pi, dtype=float)
        )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))

    @property
    def K(self):
        return self.Sigma0.shape[0]


def sbm_experiment(config, base_seed):
    """Run the full pipeline per replicate and summarize per network size.

    Replicate i of every size uses seed base_seed + i (counter-based
    streams, so replicates are independent and order-free).  Replicates
    whose clustering is not exactly recovered, or that fail numerically,
    are flagged, counted, and excluded from the normality statistics.
    """
    theta0 = theta_of_sigma(config.Sigma0, config.r)
    theta0_vec = theta0.as_vector()
    d = theta0.d
    J = asymptotic_cov_J(theta0, config.pi)
    J_half = sqrt_psd(J)
    summaries = []
    for n in config.n_values:
        tau0 = balanced_assignment(n, config.pi)
        model = SbmModel(config.Sigma0, tau0, config.r, config.pi)
        rows = []
        for i in range(config.replicates):
            seed = replicate_seed(base_seed, i)
            row = {
                "replicate": i,
                "n": n,
                "aligned_hamming": -1,
                "excluded_flag": 1,
                "z": None,
                "mse_main": np.nan,
                "mse_naive": np.nan,
            }
            try:
                A = sample_adjacency(model, seed)
                tau_hat = spectral_cluster_sbm(
                    A, config.r, config.K, seed, restarts=config.kmeans_restarts
                )
                perm, ham = align_labels(tau_hat, tau0)
                row["aligned_hamming"] = ham
                counts = block_counts(A, relabel(tau_hat, perm))
                Sigma_naive = block_mean_estimator(counts)
                row["mse_naive"] = n * float(
                    np.linalg.norm(Sigma_naive - config.Sigma0) ** 2
                )
                theta_tilde, proj_perm = _project_with_permutation(
                    clip_probabilities(Sigma_naive), config.r
                )
                if np.any(proj_perm != np.arange(config.K)):
                    # fit targeted a permuted matrix; labels no longer match
                    rows.append(row)
                    continue
                theta_hat = one_step(theta_tilde, counts)
                row["z"] = n * (J_half @ (theta_hat.as_vector() - theta0_vec))
                row["mse_main"] = n * float(
                    np.linalg.norm(sigma_of_theta(theta_hat) - config.Sigma0) ** 2
                )
                row["excluded_flag"] = 1 if ham > 0 else 0
            except NumericsError:
                pass  # flagged and counted via excluded_flag
            rows.append(row)
        summaries.append(summarize_replicates(n, d, rows))
    return summaries
