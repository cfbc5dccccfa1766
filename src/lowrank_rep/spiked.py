"""Sparse spiked covariance model on the chart: Omega(theta) = I + U M U^T.

Pieces, in dependency order: the Gaussian data draw, the log-likelihood
and its per-sample Fisher information, the sparsity prior over supports of
A, and the limiting mixture-of-normals posterior over (support, chart
coordinates) together with a sampler and two seeded diagnostics
(local-asymptotic-normality remainder, sin-theta tail fractions).

U has orthonormal columns and is zero outside the rows N (the top r, and
r + a for each nonzero row a of A), so Omega is read through the r x r
core: the PD gate is on I + M, Omega^{-1} = I - U M (I + M)^{-1} U^T by
Woodbury, and the data enter as the p x n matrix Y.  No function here
forms a p x p matrix; fisher_spiked alone assembles a dense d x d one.

Scaling convention used throughout the posterior block: the information
attached to a support S is the full-sample quantity n F_S^T I_per F_S,
where I_per is the per-sample Fisher information, and the innovation
feeding the component mean is half the full-sample score at theta0.
Component covariances then contract at rate 1/n and the Gaussian weight
exponents grow linearly in n, which is why all weights are assembled in
log space and normalized after a max shift.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, groupby

import numpy as np

from .cayley import _frame_of_rows, _jacobian_columns
from .errors import (
    ConfigError,
    DimensionMismatch,
    EnumerationTooLarge,
    NotPositiveDefinite,
    SingularFisher,
    SupportViolation,
)
from .matkit import _sin_theta_spectral, duplication_matrix, kron
from .rngs import generator, replicate_seed, substream
from .symrep import ThetaSym

# Hard cap on the number of enumerated supports.
ENUM_MAX = 100_000

# Monte Carlo settings for the restricted-Laplace normalizer gamma(|S|).
# The seed is internal so cached estimates are identical across runs.
GAMMA_DRAWS = 100_000
GAMMA_SEED = 20_260_822
GAMMA_BLOCK = 2**14  # draws held at once; the stream is read in order
LAPLACE_SCALE = 0.5  # density exp(-2|x|) per coordinate


# =====================================================================
# model and support types
# =====================================================================


@dataclass(frozen=True)
class SpikedModel:
    """Ground truth for the sparse spiked covariance model.

    theta0 is the chart point of the low-rank part Sigma0, n the sample
    size, and support0 the set of rows of A0 allowed to be nonzero
    (indices into the bottom (p - r) rows).  Rows outside support0 must
    be exactly zero; the core M(mu0) must be positive definite so that
    Omega0 has r eigenvalues strictly above 1.
    """

    theta0: ThetaSym
    n: int
    support0: tuple = field(default=())

    def __post_init__(self):
        if int(self.n) < 1:
            raise ConfigError(f"sample size n must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        sup = tuple(sorted({int(i) for i in self.support0}))
        pmr = self.theta0.p - self.theta0.r
        if sup and not (0 <= sup[0] and sup[-1] < pmr):
            raise DimensionMismatch(
                f"support indices {sup} outside range(0, {pmr})"
            )
        object.__setattr__(self, "support0", sup)
        A = self.theta0.phi.A
        outside = [i for i in range(pmr) if i not in sup]
        if outside and np.any(A[outside] != 0.0):
            bad = [i for i in outside if np.any(A[i] != 0.0)]
            raise SupportViolation(
                f"rows {bad} of A0 are nonzero but not in support0={sup}"
            )
        core_min = float(np.linalg.eigvalsh(self.theta0.core).min())
        if core_min <= 0.0:
            raise NotPositiveDefinite(
                f"core M(mu0) has smallest eigenvalue {core_min:.3e} <= 0"
            )

    @property
    def p(self):
        return self.theta0.p

    @property
    def r(self):
        return self.theta0.r

    @property
    def d(self):
        return self.theta0.d


@dataclass(frozen=True)
class SupportSet:
    """A sorted subset S of the free rows of A.

    Its coordinates theta_S are the phi coordinates of the rows in S
    (column-major over the columns of A) followed by all of mu, at the
    positions `columns` of theta.
    """

    p: int
    r: int
    indices: tuple

    def __post_init__(self):
        if not (1 <= self.r <= self.p):
            raise DimensionMismatch(f"need 1 <= r <= p, got ({self.p}, {self.r})")
        idx = tuple(sorted({int(i) for i in self.indices}))
        pmr = self.p - self.r
        if idx and not (0 <= idx[0] and idx[-1] < pmr):
            raise DimensionMismatch(f"support {idx} outside range(0, {pmr})")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self):
        return len(self.indices)

    @property
    def dim(self):
        """Number of selected coordinates, |S| r + r(r+1)/2."""
        return len(self.indices) * self.r + self.r * (self.r + 1) // 2

    @property
    def columns(self):
        """Positions of the selected coordinates inside theta."""
        pmr = self.p - self.r
        n_phi = pmr * self.r
        cols = [i + j * pmr for j in range(self.r) for i in self.indices]
        cols.extend(range(n_phi, n_phi + self.r * (self.r + 1) // 2))
        return cols


@dataclass(frozen=True)
class PosteriorComponent:
    """One mixture component: support, weight, mean and covariance of theta_S."""

    support: SupportSet
    weight: float
    mean: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LimitPosterior:
    """Mixture of support-restricted normals over chart coordinates.

    Off-support coordinates carry a point mass at zero, so a draw is a
    Gaussian draw in the support's columns and zero elsewhere.
    """

    p: int
    r: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        w = np.array([c.weight for c in self.components])
        if w.size == 0:
            raise ConfigError("limit posterior needs at least one component")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ConfigError(
                f"weights must be nonnegative and sum to 1, got sum {w.sum()!r}"
            )
        # Both checks run stacked over the covariances of one shape; the
        # first failing component in component order is reported, and an
        # asymmetric covariance before a non-PD one, as a loop would.  A
        # covariance that is not a square matrix is not PD.
        asym = np.zeros(w.size, dtype=bool)
        not_pd = np.zeros(w.size, dtype=bool)
        for shape, ks in _groups(np.shape(c.cov) for c in self.components):
            if len(shape) != 2 or shape[0] != shape[1]:
                not_pd[ks] = True
                continue
            C = np.stack([self.components[k].cov for k in ks])
            asym[ks] = (
                np.max(np.abs(C - C.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
                > 1e-10
            )
            try:
                np.linalg.cholesky(C)
            except np.linalg.LinAlgError:
                not_pd[ks] = _cholesky_fails(C)
        bad = np.flatnonzero(asym | not_pd)
        if bad.size:
            k = bad[0]
            if asym[k]:
                raise NotPositiveDefinite("component covariance not symmetric")
            raise NotPositiveDefinite(
                f"component covariance for S={self.components[k].support.indices}"
                " not PD"
            )

    @property
    def d(self):
        return (self.p - self.r) * self.r + self.r * (self.r + 1) // 2


# =====================================================================
# covariance map, sampling, likelihood, Fisher information
# =====================================================================


def sample_data(theta, n, seed):
    """p x n data: n iid centered Gaussian columns with covariance Omega(theta).

    Omega = U M U^T + I, and its Cholesky factor L, are the identity outside
    the rows N where the frame U is nonzero, so L Z for the normals Z of
    generator(seed) is Z except Y[N] = L[N, N] Z[N]: no p x p array.
    """
    if int(n) < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    U = theta.phi.frame.matrix
    rows = np.flatnonzero(U.any(axis=1))
    S = U[rows] @ theta.core @ U[rows].T
    try:
        L = np.linalg.cholesky(0.5 * (S + S.T) + np.eye(rows.size))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance for sampling is not PD") from exc
    Y = generator(seed).standard_normal((theta.p, int(n)))
    Y[rows] = L @ Y[rows]
    return Y


def log_likelihood(theta, Y):
    """Gaussian log-likelihood of the p x n data Y under Omega(theta):
    -(n/2) (p log 2 pi + logdet Omega + tr(Omega^{-1} Y Y^T / n)).

    logdet Omega = logdet(I + M), and by Woodbury n tr(Omega^{-1} Y Y^T / n)
    = ||Y||_F^2 - tr(M (I + M)^{-1} W^T W) with W = Y[N]^T U[N].  One eigh
    I + M = Q diag(lam) Q^T gives the PD gate, the logdet, and that trace
    term as sum_j (1 - 1/lam_j) ||W Q_j||^2: O(|N| n r) after the O(p n)
    norm.
    """
    if np.ndim(Y) != 2 or Y.shape[0] != theta.p:
        raise DimensionMismatch(f"data shape {np.shape(Y)} needs {theta.p} rows")
    p, n = Y.shape
    U = theta.phi.frame.matrix
    lam, Q = np.linalg.eigh(np.eye(theta.r) + theta.core)
    if lam[0] <= 0.0:
        raise NotPositiveDefinite(f"I + M has eigenvalue {lam[0]:.3e} <= 0")
    rows = np.flatnonzero(U.any(axis=1))
    WQ = Y[rows].T @ (U[rows] @ Q)
    n_trace = float(np.vdot(Y, Y)) - float((1.0 - 1.0 / lam) @ (WQ * WQ).sum(axis=0))
    logdet = float(np.log(lam).sum())
    return -(n / 2.0) * (p * math.log(2.0 * math.pi) + logdet) - n_trace / 2.0


def _active_rows(A):
    # Rows of A that are not exactly zero.  Each other row moves the frame
    # in one row only, so its coordinates form their own block of the
    # Fisher information, the same block for every such row.
    return tuple(np.flatnonzero(np.any(A != 0.0, axis=1)).tolist())


def _block_layout(A):
    # Where the Fisher's blocks sit in theta at A: the active rows, the
    # coordinates J of block F_J (the active rows' phi coordinates
    # column-major, as SupportSet.columns, then mu), and a (z, r) array
    # whose row holds the r coordinates a + b (p - r) of one zero row a,
    # the coordinates of one copy of block B.
    pmr, r = A.shape
    active = _active_rows(A)
    cols = SupportSet(pmr + r, r, active).columns
    zero = np.setdiff1d(np.arange(pmr), active)
    return active, cols, zero[:, None] + pmr * np.arange(r)


def _information(theta, Y=None):
    # Per-sample Fisher (1/2) DSigma^T (K kron K) DSigma and score
    # DSigma^T vec(K (omega_hat - omega) K) at theta, with K = omega^{-1},
    # omega = Sigma(theta) + I and omega_hat = Y Y^T / n for the p x n data
    # Y, without forming DSigma.  A phi direction moves Sigma by X_k Q^T +
    # Q X_k^T, with X_k = dU_k and Q = U M, and a mu direction by U E_m U^T,
    # with E_m = unvech(e_m).  With V = U^T K U, R_k = U^T K X_k and
    # P_k = M R_k, every entry is a trace of r x r products:
    #   F_kl = tr(P_k P_l) + tr(M V M X_k^T K X_l),
    #   F_km = <R_k M V, E_m>,   F_mn = (1/2) tr(V E_m V E_n),
    # and the score is 2 <C Q, X_k> for phi and <U^T C U, E_m> for mu, with
    # C = K (omega_hat - omega) K.  K enters only through Woodbury,
    # K = I - U W U^T with W = M (I + M)^{-1}, so V = (I + M)^{-1} and
    # K U = U V.
    #
    # For an exactly zero row a of A, dU_k = 2 e_{r+a} G[b, :] with
    # G = (I + A^T A)^{-1}, and U[r+a] = 0, so K e_{r+a} = e_{r+a} and
    # R_k = 0: the row's r coordinates couple to nothing else, and every
    # zero row carries the same block B = 4 G M V M G and the score
    # 4 (C U M)[r+a] G.  The dense Fisher is therefore blockdiag(F_J, I kron
    # B) up to the order of coordinates, where J holds the phi coordinates
    # of the active rows and then mu, laid out as _block_layout gives them.
    # With a fixed number of active rows this costs O(p r^2), plus O(p n r)
    # for the score.  Returns (F_J, B, score); score is None when Y is None.
    # I + M, F_J, and B when some row is zero, must pass the eigvalsh PD gate.
    p, r = theta.p, theta.r
    A = theta.phi.A
    Z = theta.phi.factor
    U = theta.phi.frame.matrix
    G = Z[:r]
    M = theta.core
    V = np.linalg.inv(np.eye(r) + M)
    W = M @ V
    MVM = W @ M
    KU = U @ V
    active = list(_active_rows(A))
    dup = duplication_matrix(r)
    # X[b, i, k] = dU_k[i, b] for the columns k of the active rows
    X = _jacobian_columns(A, Z, active).reshape(r, p, -1)
    n_J = X.shape[2]
    R = np.einsum("ia,bik->abk", KU, X)
    P = np.einsum("ac,cbk->abk", M, R)
    XG = np.tensordot(MVM, X, axes=(1, 0))
    KX = X - np.matmul(U, np.matmul(W, np.matmul(U.T, X)))
    F_phi = P.reshape(r * r, n_J).T @ P.transpose(1, 0, 2).reshape(r * r, n_J)
    F_phi += XG.reshape(r * p, n_J).T @ KX.reshape(r * p, n_J)
    RMV = np.einsum("ack,cb->bak", R, M @ V).reshape(r * r, n_J)
    F_cross = RMV.T @ dup
    F_mu = 0.5 * dup.T @ kron(V, V) @ dup
    F_J = np.block([[F_phi, F_cross], [F_cross.T, F_mu]])
    F_J = 0.5 * (F_J + F_J.T)
    B = 4.0 * G @ MVM @ G.T
    B = 0.5 * (B + B.T)
    gated = [np.eye(r) + M, F_J] + [B] * (len(active) < p - r)
    lam_min = min(float(np.linalg.eigvalsh(F).min()) for F in gated)
    if lam_min <= 0.0:
        raise NotPositiveDefinite(
            f"I + M or Fisher information has eigenvalue {lam_min:.3e} <= 0"
        )
    if Y is None:
        return F_J, B, None
    # omega K U = U, and K U = U V is zero outside the rows N where U is,
    # so omega_hat K U = Y (Y[N]^T (K U)[N]) / n: no p x p temporary
    rows = np.flatnonzero(U.any(axis=1))
    DKU = Y @ (Y[rows].T @ KU[rows]) / Y.shape[1] - U
    CQ = (DKU - U @ (W @ (U.T @ DKU))) @ M
    score_A = 4.0 * CQ[r:] @ G.T
    score_J = 2.0 * CQ.T.reshape(r * p) @ X.reshape(r * p, n_J)
    score_A[active] = score_J.reshape(r, -1).T
    score_mu = dup.T @ (KU.T @ DKU).ravel(order="F")
    return F_J, B, np.concatenate([score_A.ravel(order="F"), score_mu])


def fisher_spiked(theta0):
    """Per-sample Fisher information (1/2) DSigma^T (Om^{-1} x Om^{-1}) DSigma.

    Positive definite everywhere on the chart domain; a nonpositive
    eigenvalue signals a bug upstream rather than a bad input.  Assembled
    from its blocks: F_J for the active rows of A and mu, and the r x r
    block B at every exactly zero row.
    """
    F_J, B, _ = _information(theta0)
    _, cols, zc = _block_layout(theta0.phi.A)
    F = np.zeros((theta0.d, theta0.d))
    F[np.ix_(cols, cols)] = F_J
    F[zc[:, :, None], zc[:, None, :]] = B
    return F


# =====================================================================
# sparsity prior
# =====================================================================


def _log_size_prior(p, r, a_const, n):
    # Support-size prior q^t / z_n for every t = 0..p-r, q = n^{-r} (p-r)^{-a};
    # z_n = sum_t q^t = (1 - q^{p-r+1}) / (1 - q), or p - r + 1 at q = 1.
    pmr = p - r
    if pmr == 0:
        return np.zeros(1)
    log_q = -r * math.log(n) - a_const * math.log(pmr)
    z = math.expm1((pmr + 1) * log_q) / math.expm1(log_q) if log_q else pmr + 1
    return np.arange(pmr + 1) * log_q - math.log(z)


_GAMMA_CACHE = {}


def _inside_unit_ball(A):
    """Whether each matrix of the stack A (draws x s x r) has ||A_k||_2 < 1.

    ||A_k||_2 < 1 exactly when I - G_k is positive definite, G_k the
    smaller Gram matrix (A^T A, or A A^T when s < r).  One Cholesky runs
    over the whole stack at once, each of the m(m+1)/2 entries a vector
    over the draws, m = min(s, r); a draw is inside when every pivot is
    > 0.  Draws already outside get pivot 1 so that no NaN is formed.
    """
    X = A if A.shape[1] >= A.shape[2] else A.swapaxes(1, 2)
    m = X.shape[2]
    cols = [X[:, :, j] for j in range(m)]
    inside = np.ones(A.shape[0], dtype=bool)
    L = {}
    for j in range(m):
        for i in range(j, m):
            v = float(i == j) - np.einsum("ns,ns->n", cols[i], cols[j])
            for k in range(j):
                v -= L[i, k] * L[j, k]
            if i == j:
                inside &= v > 0.0
                L[j, j] = np.sqrt(np.where(inside, v, 1.0))
            else:
                L[i, j] = v / L[j, j]
    return inside


def gamma_mc(size, r):
    """Monte Carlo estimate of gamma(|S|), the mass the unrestricted
    Laplace law of vec(A_S) puts on the spectral unit ball.

    Per coordinate the Laplace density exp(-2|x|) integrates to one, so
    the restricted-Laplace normalizer equals the probability that a
    |S| x r matrix of iid Laplace(scale 1/2) entries has spectral norm
    below 1, estimated from GAMMA_DRAWS matrices drawn from a stream of
    GAMMA_SEED.  The draws are made and tested GAMMA_BLOCK at a time, in
    stream order, so they are the values one call for all of them gives.
    Returns (estimate, standard error); cached per (size, r), and
    deterministic because the seed is fixed.
    """
    size = int(size)
    if size < 0:
        raise ConfigError(f"support size must be >= 0, got {size}")
    if size == 0:
        return 1.0, 0.0
    key = (size, int(r))
    if key not in _GAMMA_CACHE:
        gen = substream(GAMMA_SEED, size, int(r))
        inside = 0
        for start in range(0, GAMMA_DRAWS, GAMMA_BLOCK):
            shape = (min(GAMMA_BLOCK, GAMMA_DRAWS - start), size, int(r))
            # no name holds a block, so only one is alive at a time
            hit = _inside_unit_ball(gen.laplace(0.0, LAPLACE_SCALE, size=shape))
            inside += int(np.count_nonzero(hit))
        est = inside / GAMMA_DRAWS
        se = math.sqrt(est * (1.0 - est) / float(GAMMA_DRAWS))
        _GAMMA_CACHE[key] = (est, se)
    return _GAMMA_CACHE[key]


# =====================================================================
# limiting mixture-of-normals posterior
# =====================================================================


def _enumerate_supports(model, cap):
    s0 = len(model.support0)
    if cap < s0:
        raise ConfigError(f"cap {cap} below true support size {s0}")
    pmr = model.p - model.r
    rest = [i for i in range(pmr) if i not in model.support0]
    max_extra = min(cap - s0, len(rest))
    total = sum(math.comb(len(rest), e) for e in range(max_extra + 1))
    if total > ENUM_MAX:
        raise EnumerationTooLarge(
            f"{total} supports exceed the cap of {ENUM_MAX}"
        )
    out = []
    for extra in range(max_extra + 1):
        for sub in combinations(rest, extra):
            out.append(
                SupportSet(model.p, model.r, model.support0 + sub)
            )
    return out


def _groups(keys):
    """(key, positions) for each distinct key, in order of first appearance."""
    out = {}
    for k, key in enumerate(keys):
        out.setdefault(key, []).append(k)
    return [(key, np.array(ks)) for key, ks in out.items()]


def _cholesky_fails(stack):
    # Per matrix of a stack whose stacked Cholesky failed as a whole: does
    # its own factorization fail.  Only error paths come here.
    fails = np.zeros(len(stack), dtype=bool)
    for k, M in enumerate(stack):
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            fails[k] = True
    return fails


def _mixture(model, supports, F_J, B, half_score, log_size_prior):
    """Log weights, means and covariances of the components over supports.

    Every support holds the active rows of A0 (the rows that are not exactly
    zero, all inside support0) and the core; each of its other rows is
    exactly zero.  So I_S is blockdiag(n F_J, I kron n B) up to the order of
    its coordinates, and every component shares (n F_J)^{-1} and
    (n B)^{-1}: a zero row's mean is (n B)^{-1} h_a for its slice h_a of
    the half score, and logdet I_S = logdet(n F_J) + z logdet(n B) with z
    the number of zero rows in S.  Each support size runs as one vectorized
    pass that scatters the two blocks into the coordinate order of its
    supports.  A SingularFisher names the first support, in enumeration
    order, whose information is not PD.  Returns (log_w, means, covs) with
    one entry of means and covs per support.
    """
    n, r = model.n, model.r
    pmr = model.p - r
    n_mu = r * (r + 1) // 2
    active, cols, _ = _block_layout(model.theta0.phi.A)
    info_J, info_B = n * F_J, n * B
    log_2pi = math.log(2.0 * math.pi)
    try:
        L_J = np.linalg.cholesky(info_J)
    except np.linalg.LinAlgError as exc:
        raise SingularFisher(
            f"information for S={supports[0].indices} is not PD"
        ) from exc
    cov_J = np.linalg.solve(info_J, np.eye(len(cols)))
    cov_J = 0.5 * (cov_J + cov_J.T)
    mean_J = model.theta0.as_vector()[cols] + cov_J @ half_score[cols]
    quad_J = float(mean_J @ info_J @ mean_J)
    logdet_J = 2.0 * float(np.log(np.diag(L_J)).sum())
    first_zero = next((s for s in supports if s.size > len(active)), None)
    if first_zero is not None:
        try:
            L_B = np.linalg.cholesky(info_B)
        except np.linalg.LinAlgError as exc:
            raise SingularFisher(
                f"information for S={first_zero.indices} is not PD"
            ) from exc
        logdet_B = 2.0 * float(np.log(np.diag(L_B)).sum())
        cov_B = np.linalg.solve(info_B, np.eye(r))
        cov_B = 0.5 * (cov_B + cov_B.T)
        # row a of mean_rows is the mean of zero row a; A0 is zero there
        mean_rows = half_score[: pmr * r].reshape(r, pmr).T @ cov_B
        quad_rows = np.einsum("ai,ij,aj->a", mean_rows, info_B, mean_rows)
    row_active = np.zeros(pmr, dtype=bool)
    row_active[list(active)] = True
    log_w = np.empty(len(supports))
    means, covs = [], []
    for size, ks in _groups(sup.size for sup in supports):
        g, z, dim = ks.size, size - len(active), supports[ks[0]].dim
        idx = np.array([supports[k].indices for k in ks], dtype=np.intp)
        is_active = row_active[idx]
        # positions inside S: row at place t, column b sits at t + b size
        t_J = np.nonzero(is_active)[1].reshape(g, 1, -1)
        pos_J = np.concatenate(
            [
                (t_J + size * np.arange(r)[:, None]).reshape(g, -1),
                np.broadcast_to(size * r + np.arange(n_mu), (g, n_mu)),
            ],
            axis=1,
        )
        pos_Z = np.nonzero(~is_active)[1].reshape(g, z, 1) + size * np.arange(r)
        rows_Z = idx[~is_active].reshape(g, z)
        at = np.arange(g)[:, None, None]
        cov = np.zeros((g, dim, dim))
        mean = np.empty((g, dim))
        cov[at, pos_J[:, :, None], pos_J[:, None, :]] = cov_J
        mean[at[:, :, 0], pos_J] = mean_J
        quad = np.full(g, quad_J)
        logdet = logdet_J
        if z:
            cov[at[..., None], pos_Z[..., None], pos_Z[:, :, None, :]] = cov_B
            mean[at, pos_Z] = mean_rows[rows_Z]
            quad += quad_rows[rows_Z].sum(axis=1)
            logdet += z * logdet_B
        gamma_est, _ = gamma_mc(size, r)
        if gamma_est == 0.0:
            raise ConfigError(
                f"gamma(|S|) is 0 at |S|={size}, r={r}: none of the "
                f"GAMMA_DRAWS={GAMMA_DRAWS} Laplace draws lies inside the "
                f"unit ball; lower cap below {size}"
            )
        log_prior = (
            log_size_prior[size]
            - math.log(math.comb(pmr, size))
            - math.log(gamma_est)
        )
        log_w[ks] = log_prior + 0.5 * (dim * log_2pi - logdet) + 0.5 * quad
        means.extend(mean)
        covs.extend(cov)
    return log_w, means, covs


def limit_posterior(Y, model, cap, a_const=1.0):
    """Limiting posterior over (support, chart coordinates) given p x n data Y.

    Enumerates every support containing support0 with size at most cap.
    A component's information is the full-sample quantity
    I_S = n F_S^T I_per F_S, its mean is theta0_S plus I_S^{-1} times the
    selected half of the full-sample score (n/2) DSigma^T
    vec(Om0^{-1}(Y Y^T / n - Om0) Om0^{-1}), and its log weight combines
    the support prior, the gamma normalizer, and the Gaussian evidence
    (1/2)(d_S log 2pi - logdet I_S) + (1/2) mean^T I_S mean.
    """
    if a_const <= 0.0:
        raise ConfigError(f"prior exponent a_const must be > 0, got {a_const}")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != model.p or Y.shape[1] < 1:
        raise DimensionMismatch(
            f"data shape {Y.shape} needs {model.p} rows and a column"
        )
    F_J, B, score = _information(model.theta0, Y)
    supports = _enumerate_supports(model, cap)
    log_w, means, covs = _mixture(
        model,
        supports,
        F_J,
        B,
        0.5 * model.n * score,
        _log_size_prior(model.p, model.r, a_const, model.n),
    )
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    components = tuple(
        PosteriorComponent(sup, wk, mean, cov)
        for sup, wk, mean, cov in zip(supports, w.tolist(), means, covs)
    )
    return LimitPosterior(model.p, model.r, components)


def sample_limit_posterior(lp, draws, seed):
    """Draws from the mixture as full-length coordinate vectors.

    Rows of A outside a component's support come back exactly zero.  The
    raw vectors are returned without chart-domain validation: a Gaussian
    tail draw may leave the open ball ||A||_2 < 1, and downstream
    consumers evaluate the frame map directly from the rows.
    """
    draws = int(draws)
    if draws < 0:
        raise ConfigError(f"draw count must be >= 0, got {draws}")
    gen = generator(seed)
    weights = np.array([c.weight for c in lp.components])
    out = np.zeros((draws, lp.d))
    if draws == 0:
        return out
    which = gen.choice(len(lp.components), size=draws, p=weights)
    # A run of consecutive components of one dimension draws in one pass:
    # its draws, sorted by component, read the same stream positions as one
    # standard_normal call per component.  Each component's covariance is
    # factored in its own coordinate order.
    start = 0
    for dim, run in groupby(c.mean.size for c in lp.components):
        stop = start + sum(1 for _ in run)
        rows = np.flatnonzero((which >= start) & (which < stop))
        start = stop
        if rows.size == 0:
            continue
        rows = rows[np.argsort(which[rows], kind="stable")]
        used, k = np.unique(which[rows], return_inverse=True)
        comps = [lp.components[j] for j in used]
        L = np.linalg.cholesky(np.stack([c.cov for c in comps]))
        z = gen.standard_normal((rows.size, dim))
        mean = np.stack([c.mean for c in comps])
        cols = np.array([c.support.columns for c in comps])
        out[rows[:, None], cols[k]] = mean[k] + np.einsum("nij,nj->ni", L[k], z)
    return out


# =====================================================================
# diagnostics
# =====================================================================


def lan_remainder(theta, theta0, Y):
    """Remainder of the quadratic log-likelihood expansion around theta0.

    R_n = [l(Omega(theta)) - l(Omega0)]
          - (n/2) vec(Omega_hat - Om0)^T (Om0^{-1} x Om0^{-1}) DSigma0 delta
          + (n/2) delta^T I_per delta,
    with delta = theta - theta0 and Omega_hat = Y Y^T / n.  Exactly zero
    at theta = theta0, and invariant under adding a constant to the
    log-likelihood because only the difference of two evaluations enters.
    The likelihoods, score and information all read Y itself, so no
    p x p array is formed.
    """
    if (theta.p, theta.r) != (theta0.p, theta0.r):
        raise DimensionMismatch("chart points live on different (p, r)")
    diff = log_likelihood(theta, Y) - log_likelihood(theta0, Y)
    n = Y.shape[1]
    F_J, B, g = _information(theta0, Y)
    delta = theta.as_vector() - theta0.as_vector()
    # delta^T I_per delta from the blocks: the active coordinates against
    # F_J, each zero row's r coordinates against B
    _, cols, zc = _block_layout(theta0.phi.A)
    delta_J, rows = delta[cols], delta[zc]
    quad = delta_J @ F_J @ delta_J + np.einsum("ai,ij,aj->", rows, B, rows)
    return diff - (n / 2.0) * float(g @ delta) + (n / 2.0) * float(quad)


def sin_theta_tail(draws, U0, m_const, s, p, n):
    """Fraction of posterior draws whose subspace leaves the contraction ball.

    The event is ||sin Theta(U(phi), U0)||_2 > m_const sqrt(s log(p) / n)
    where phi is the leading block of each draw.
    """
    U0 = np.asarray(getattr(U0, "matrix", U0), dtype=float)
    if U0.shape[0] != p:
        raise DimensionMismatch(f"frame has {U0.shape[0]} rows, expected p={p}")
    r = U0.shape[1]
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] == 0:
        raise ConfigError("tail fraction needs at least one draw")
    n_phi = (p - r) * r
    threshold = m_const * math.sqrt(s * math.log(p) / n)
    # the F-order (p - r) x r block of every draw, mapped in one stacked pass
    A = draws[:, :n_phi].reshape((-1, r, p - r)).transpose(0, 2, 1)
    dist = _sin_theta_spectral(_frame_of_rows(A), U0)
    return np.count_nonzero(dist > threshold) / draws.shape[0]


def lan_remainder_study(theta0, n_values, replicates, base_seed):
    """Median |R_n| at local alternatives, one entry per sample size.

    For each replicate a unit direction u is drawn once (shared across
    sample sizes) and the alternative is theta0 + u / sqrt(n), so the
    medians trace the n ||delta||^3 envelope and shrink like 1 / sqrt(n).
    Replicate seeds are reused across sample sizes (common random
    numbers).
    """
    v0 = theta0.as_vector()
    medians = []
    for n in n_values:
        vals = []
        for i in range(int(replicates)):
            seed = replicate_seed(base_seed, i)
            u = substream(seed, 5).standard_normal(v0.size)
            u /= np.linalg.norm(u)
            theta = ThetaSym.from_vector(
                theta0.p, theta0.r, v0 + u / math.sqrt(n)
            )
            Y = sample_data(theta0, n, seed)
            vals.append(abs(lan_remainder(theta, theta0, Y)))
        medians.append(float(np.median(vals)))
    return medians


def sin_theta_tail_study(
    model,
    n_values,
    m_const,
    cap,
    draws_per_dataset,
    datasets,
    base_seed,
):
    """Pooled tail fractions of the limit posterior, one per sample size.

    The ball radius is held fixed at the rate scale of the smallest
    sample size in the sweep.  Matching the radius to each n would divide
    both it and the posterior spread by the same factor, leaving the
    fraction constant; with the radius pinned, posterior contraction is
    visible as mass leaving a fixed ball as n grows.  Dataset seeds are
    shared across sample sizes.
    """
    n_ref = min(n_values)
    U0 = model.theta0.phi.frame.matrix
    s = max(len(model.support0), 1)
    fractions = []
    for n in n_values:
        model_n = replace(model, n=int(n))
        all_draws = []
        for i in range(int(datasets)):
            seed = replicate_seed(base_seed, i)
            Y = sample_data(model.theta0, n, seed)
            lp = limit_posterior(Y, model_n, cap)
            draw_seed = int(substream(seed, 17).integers(2**63))
            all_draws.append(
                sample_limit_posterior(lp, draws_per_dataset, draw_seed)
            )
        pooled = np.vstack(all_draws)
        fractions.append(
            sin_theta_tail(pooled, U0, m_const, s, model.p, n_ref)
        )
    return fractions
