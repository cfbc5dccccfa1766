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
log space and normalized after a max shift.  Rows of A0 outside its
active rows are exactly zero, so the information is block diagonal
(_information returns the blocks and where they sit) and every component's
mean is one vector, the one-step estimate from theta0, read at its
support's columns.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, groupby
from numbers import Integral

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
        if not isinstance(self.n, Integral) or self.n < 1:
            raise ConfigError(f"need an integer sample size n >= 1, got {self.n}")
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
    """One mixture component: its support and weight.  Its mean is the
    posterior's center read at support.columns."""

    support: SupportSet
    weight: float


@dataclass(frozen=True)
class LimitPosterior:
    """Mixture of support-restricted normals over chart coordinates.

    Every support holds the rows `active` of A0, and its other rows are
    zero in A0, so every component's covariance is cov_J on the
    coordinates SupportSet(p, r, active).columns, in that order, and the
    r x r cov_B on the r coordinates of each other row of its support
    (cov_B is None when no support has such a row).  Every component's
    mean is the length-d center read at its support's columns.
    Off-support coordinates carry a point mass at zero, so a draw is a
    Gaussian draw in the support's columns and zero elsewhere.
    """

    components: tuple
    active: tuple
    center: np.ndarray = field(repr=False)
    cov_J: np.ndarray = field(repr=False)
    cov_B: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        w = np.array([c.weight for c in self.components])
        if w.size == 0:
            raise ConfigError("limit posterior needs at least one component")
        if not np.isfinite(w).all() or w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-9:
            raise ConfigError(
                f"weights must be finite, nonnegative and sum to 1, got {w.sum()!r}"
            )
        if np.shape(self.center) != (self.d,) or not np.isfinite(self.center).all():
            raise ConfigError(f"center must be a finite vector of length {self.d}")
        r = self.components[0].support.r
        blocks = [("cov_J", self.cov_J, len(self.active) * r + r * (r + 1) // 2)]
        if self.cov_B is not None or any(
            c.support.size > len(self.active) for c in self.components
        ):
            blocks.append(("cov_B", self.cov_B, r))
        for name, C, m in blocks:
            if np.shape(C) != (m, m) or not np.isfinite(C).all():
                raise NotPositiveDefinite(f"{name} is not a finite {m} x {m} array")
            if np.max(np.abs(C - C.T)) > 1e-10:
                raise NotPositiveDefinite(f"{name} is not symmetric")
            try:
                np.linalg.cholesky(C)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"{name} is not PD") from exc

    @property
    def d(self):
        p, r = self.components[0].support.p, self.components[0].support.r
        return (p - r) * r + r * (r + 1) // 2


# =====================================================================
# covariance map, sampling, likelihood, Fisher information
# =====================================================================


def sample_data(theta, n, seed):
    """p x n data: n iid centered Gaussian columns with covariance Omega(theta).

    Omega = U M U^T + I, and its Cholesky factor L, are the identity outside
    the rows N where the frame U is nonzero, so L Z for the normals Z of
    generator(seed) is Z except Y[N] = L[N, N] Z[N]: no p x p array.
    """
    if not isinstance(n, Integral) or n < 1:
        raise ConfigError(f"need an integer n >= 1 samples, got {n}")
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
    # B) up to the order of coordinates.  The layout (active, cols, zc) says
    # where the blocks sit in theta: the active rows (those not exactly
    # zero), the coordinates J of F_J (the active rows' phi coordinates
    # column-major, as SupportSet.columns, then mu), and a (z, r) array
    # whose row holds the r coordinates a + b (p - r) of one zero row a.
    # With a fixed number of active rows this costs O(p r^2), plus O(p n r)
    # for the score.  Returns (layout, F_J, B, score); score is None when Y
    # is None.  I + M, F_J, and B when some row is zero, must pass the
    # eigvalsh PD gate.
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
    nonzero = np.any(A != 0.0, axis=1)
    active = tuple(np.flatnonzero(nonzero).tolist())
    zc = np.flatnonzero(~nonzero)[:, None] + (p - r) * np.arange(r)
    layout = (active, SupportSet(p, r, active).columns, zc)
    dup = duplication_matrix(r)
    # X[b, i, k] = dU_k[i, b] for the columns k of the active rows
    X = _jacobian_columns(A, Z, nonzero).reshape(r, p, -1)
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
        return layout, F_J, B, None
    # omega K U = U, and K U = U V is zero outside the rows N where U is,
    # so omega_hat K U = Y (Y[N]^T (K U)[N]) / n: no p x p temporary
    rows = np.flatnonzero(U.any(axis=1))
    DKU = Y @ (Y[rows].T @ KU[rows]) / Y.shape[1] - U
    CQ = (DKU - U @ (W @ (U.T @ DKU))) @ M
    score_A = 4.0 * CQ[r:] @ G.T
    score_J = 2.0 * CQ.T.reshape(r * p) @ X.reshape(r * p, n_J)
    score_A[nonzero] = score_J.reshape(r, -1).T
    score_mu = dup.T @ (KU.T @ DKU).ravel(order="F")
    return layout, F_J, B, np.concatenate([score_A.ravel(order="F"), score_mu])


def fisher_spiked(theta0):
    """Per-sample Fisher information (1/2) DSigma^T (Om^{-1} x Om^{-1}) DSigma.

    Positive definite everywhere on the chart domain; a nonpositive
    eigenvalue signals a bug upstream rather than a bad input.  Assembled
    from its blocks: F_J for the active rows of A and mu, and the r x r
    block B at every exactly zero row.
    """
    (_, cols, zc), F_J, B, _ = _information(theta0)
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
    if not math.isfinite(log_q):
        raise ConfigError(f"prior exponent a_const={a_const} makes log q non-finite")
    z = math.expm1((pmr + 1) * log_q) / math.expm1(log_q) if log_q else pmr + 1
    # a size whose log q^t overflows gets log prior -inf: weight 0
    with np.errstate(over="ignore"):
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
    if not isinstance(cap, Integral) or cap < s0:
        raise ConfigError(f"need an integer cap >= true support size {s0}, got {cap}")
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


def _mixture(model, supports, layout, F_J, B, half_score, log_size_prior):
    """Log weights of the components over supports, the center their means
    are read from, and the two covariance blocks they share.

    Every support holds the active rows of A0 (the rows that are not exactly
    zero, all inside support0) and the core; each of its other rows is
    exactly zero.  So I_S is blockdiag(n F_J, I kron n B) up to the order of
    its coordinates, as the layout from _information places the blocks, and
    every component shares (n F_J)^{-1} and (n B)^{-1}.  Each component's
    mean is therefore one vector read at its support's columns: the center
    theta0 + blockdiag((n F_J)^{-1}, I kron (n B)^{-1}) h, the one-step
    estimate from theta0 for the half score h, which at a zero row a is
    m_a = h_a (n B)^{-1}.  logdet I_S = logdet(n F_J) + z logdet(n B) with
    z the number of zero rows in S, and the quadratic term adds m_a n B m_a
    over those rows to the F_J block's.  The supports come in ascending
    size, and each size runs as one vectorized pass over its supports' zero
    rows.  A SingularFisher names the first support, in enumeration order,
    whose information is not PD.  Returns (log_w, center, cov_J, cov_B);
    cov_B is None when no support has a zero row, and center then holds
    theta0's zeros at the zero rows.
    """
    n, r = model.n, model.r
    pmr = model.p - r
    active, cols, zc = layout
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
    center = model.theta0.as_vector()
    center[cols] += cov_J @ half_score[cols]
    quad_J = float(center[cols] @ info_J @ center[cols])
    logdet_J = 2.0 * float(np.log(np.diag(L_J)).sum())
    first_zero = next((s for s in supports if s.size > len(active)), None)
    cov_B = None
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
        # A0 is zero at the zero rows, so their center is m_a alone
        m = half_score[zc] @ cov_B
        center[zc] = m
        quad_rows = np.zeros(pmr)
        quad_rows[zc[:, 0]] = np.einsum("ai,ij,aj->a", m, info_B, m)
    log_w = np.empty(len(supports))
    start = 0
    for size, run in groupby(sup.size for sup in supports):
        stop = start + sum(1 for _ in run)
        g, z, dim = stop - start, size - len(active), supports[start].dim
        quad = np.full(g, quad_J)
        logdet = logdet_J
        if z:
            idx = np.array([s.indices for s in supports[start:stop]])
            rows_Z = idx[~np.isin(idx, active)].reshape(g, z)
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
        log_w[start:stop] = log_prior + 0.5 * (dim * log_2pi - logdet) + 0.5 * quad
        start = stop
    return log_w, center, cov_J, cov_B


def limit_posterior(Y, model, cap, a_const=1.0):
    """Limiting posterior over (support, chart coordinates) given p x n data Y.

    Enumerates every support containing support0 with size at most cap.
    A component's information is the full-sample quantity
    I_S = n F_S^T I_per F_S, its mean is theta0_S plus I_S^{-1} times the
    selected half of the full-sample score (n/2) DSigma^T
    vec(Om0^{-1}(Y Y^T / n - Om0) Om0^{-1}), and its log weight combines
    the support prior, the gamma normalizer, and the Gaussian evidence
    (1/2)(d_S log 2pi - logdet I_S) + (1/2) mean^T I_S mean.  Every
    component shares the two covariance blocks of LimitPosterior, and its
    mean is the posterior's center at the support's columns.
    """
    if not 0.0 < a_const < math.inf:
        raise ConfigError(f"need a finite prior exponent a_const > 0, got {a_const}")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != model.p or Y.shape[1] < 1:
        raise DimensionMismatch(
            f"data shape {Y.shape} needs {model.p} rows and a column"
        )
    layout, F_J, B, score = _information(model.theta0, Y)
    supports = _enumerate_supports(model, cap)
    log_w, center, cov_J, cov_B = _mixture(
        model,
        supports,
        layout,
        F_J,
        B,
        0.5 * model.n * score,
        _log_size_prior(model.p, model.r, a_const, model.n),
    )
    if not math.isfinite(log_w.max()):
        raise ConfigError(
            f"prior exponent a_const={a_const} leaves no support of size <= "
            f"cap={cap} a finite log weight"
        )
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    components = tuple(map(PosteriorComponent, supports, w.tolist()))
    return LimitPosterior(components, layout[0], center, cov_J, cov_B)


def sample_limit_posterior(lp, draws, seed):
    """Draws from the mixture as full-length coordinate vectors.

    Rows of A outside a component's support come back exactly zero.  The
    raw vectors are returned without chart-domain validation: a Gaussian
    tail draw may leave the open ball ||A||_2 < 1, and downstream
    consumers evaluate the frame map directly from the rows.
    """
    if not isinstance(draws, Integral) or draws < 0:
        raise ConfigError(f"need an integer draw count >= 0, got {draws}")
    gen = generator(seed)
    weights = np.array([c.weight for c in lp.components])
    out = np.zeros((draws, lp.d))
    if draws == 0:
        return out
    which = gen.choice(len(lp.components), size=draws, p=weights)
    # A run of consecutive components of one dimension, so of one size,
    # draws in one pass: its draws, sorted by component, read the same
    # stream positions as one standard_normal call per component.  A
    # component's covariance is cov_J and cov_B at ascending positions with
    # zeros between, so its lower Cholesky factor is theirs there too.
    # S.columns ascend, so inside theta_S F_J's coordinates come in F_J's
    # order, and the others hold column b of each zero row, b-major.
    L_J = np.linalg.cholesky(lp.cov_J)
    L_B = None if lp.cov_B is None else np.linalg.cholesky(lp.cov_B)
    S0 = lp.components[0].support
    cols_J = SupportSet(S0.p, S0.r, lp.active).columns
    start = 0
    for _, run in groupby(len(c.support.indices) for c in lp.components):
        stop = start + sum(1 for _ in run)
        rows = np.flatnonzero((which >= start) & (which < stop))
        start = stop
        if rows.size == 0:
            continue
        rows = rows[np.argsort(which[rows], kind="stable")]
        used, k = np.unique(which[rows], return_inverse=True)
        cols = np.array([lp.components[j].support.columns for j in used])
        in_J = np.isin(cols, cols_J)
        pos_J = np.nonzero(in_J)[1].reshape(used.size, -1)
        pos_Z = np.nonzero(~in_J)[1].reshape(used.size, S0.r, -1).swapaxes(1, 2)
        z = gen.standard_normal((rows.size, cols.shape[1]))
        x = lp.center[cols][k]
        at = np.arange(rows.size)[:, None]
        x[at, pos_J[k]] += z[at, pos_J[k]] @ L_J.T
        if pos_Z.shape[1]:
            at = at[..., None]
            x[at, pos_Z[k]] += z[at, pos_Z[k]] @ L_B.T
        out[rows[:, None], cols[k]] = x
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
    (_, cols, zc), F_J, B, g = _information(theta0, Y)
    delta = theta.as_vector() - theta0.as_vector()
    # delta^T I_per delta from the blocks: the active coordinates against
    # F_J, each zero row's r coordinates against B
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
    if not isinstance(replicates, Integral) or replicates < 1 or not len(n_values):
        raise ConfigError(f"need replicates, sizes >= 1: {replicates=}, {n_values=}")
    v0 = theta0.as_vector()
    medians = []
    for n in n_values:
        vals = []
        for i in range(replicates):
            seed = replicate_seed(base_seed, i)
            # drawn first: sample_data refuses an n that is not an integer >= 1
            Y = sample_data(theta0, n, seed)
            u = substream(seed, 5).standard_normal(v0.size)
            u /= np.linalg.norm(u)
            theta = ThetaSym.from_vector(
                theta0.p, theta0.r, v0 + u / math.sqrt(n)
            )
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
    n_ref = min(n_values, default=0)
    if not isinstance(datasets, Integral) or min(datasets, n_ref) < 1:
        raise ConfigError(f"need datasets, sizes >= 1: {datasets=}, {n_values=}")
    U0 = model.theta0.phi.frame.matrix
    s = max(len(model.support0), 1)
    fractions = []
    for n in n_values:
        model_n = replace(model, n=n)
        all_draws = []
        for i in range(datasets):
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
