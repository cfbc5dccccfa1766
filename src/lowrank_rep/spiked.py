"""Sparse spiked covariance model on the chart: Omega(theta) = Sigma(theta) + I.

Pieces, in dependency order: the induced covariance map and Gaussian
sampling, the log-likelihood and its per-sample Fisher information, the
sparsity prior over supports of A, and the limiting mixture-of-normals
posterior over (support, chart coordinates) together with a sampler and
two seeded diagnostics (local-asymptotic-normality remainder, sin-theta
tail fractions).

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
from itertools import combinations

import numpy as np
from scipy.special import logsumexp

from .cayley import _frame_of_rows, cayley_jacobian, cayley_map
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    EnumerationTooLarge,
    NotPositiveDefinite,
    SingularFisher,
    SupportViolation,
)
from .matkit import _sin_theta_spectral, duplication_matrix, kron, spectral_norm
from .rngs import generator, replicate_seed, substream
from .symrep import ThetaSym, sigma_of_theta

# Hard cap on the number of enumerated supports.
ENUM_MAX = 100_000

# Monte Carlo settings for the restricted-Laplace normalizer gamma(|S|).
# The seed is internal so cached estimates are identical across runs.
GAMMA_DRAWS = 100_000
GAMMA_SEED = 20_260_822
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
    # Omega0 = Sigma(theta0) + I, built and PD-checked once per model
    omega0: np.ndarray = field(init=False, compare=False, repr=False)

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
        # read-only: every caller shares this one array
        omega0 = omega_of_theta(self.theta0)
        omega0.flags.writeable = False
        object.__setattr__(self, "omega0", omega0)

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
    """A sorted subset S of the free rows of A, with its coordinate selector.

    The selector F is the 0/1 matrix of shape d x d_S whose columns pick
    the phi coordinates of the rows in S (column-major over the columns
    of A) followed by all of mu, so theta_S = F^T theta.
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

    @property
    def selector(self):
        d = (self.p - self.r) * self.r + self.r * (self.r + 1) // 2
        F = np.zeros((d, self.dim))
        for k, c in enumerate(self.columns):
            F[c, k] = 1.0
        return F


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

    Off-support coordinates carry a point mass at zero, so a draw is the
    selector image of a Gaussian draw in the selected coordinates.
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


def omega_of_theta(theta):
    """Covariance Sigma(theta) + I, verified positive definite."""
    Om = sigma_of_theta(theta) + np.eye(theta.p)
    lam_min = float(np.linalg.eigvalsh(Om).min())
    if lam_min <= 0.0:
        raise NotPositiveDefinite(
            f"Sigma(theta) + I has smallest eigenvalue {lam_min:.3e} <= 0"
        )
    return Om


def sample_gaussian(omega, n, seed):
    """n iid centered Gaussian columns with covariance omega.

    Returns (data, sample_cov) where sample_cov = data data^T / n without
    mean centering.
    """
    omega = np.asarray(omega, dtype=float)
    if int(n) < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    try:
        L = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance for sampling is not PD") from exc
    Y = L @ generator(seed).standard_normal((omega.shape[0], int(n)))
    return Y, Y @ Y.T / float(n)


def log_likelihood(omega, omega_hat, n):
    """Gaussian log-likelihood -(n/2) logdet(2 pi Omega) - (n/2) tr(Omega_hat Omega^{-1})."""
    omega = np.asarray(omega, dtype=float)
    omega_hat = np.asarray(omega_hat, dtype=float)
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0.0:
        raise NotPositiveDefinite("likelihood needs a PD covariance")
    p = omega.shape[0]
    trace_term = float(np.trace(np.linalg.solve(omega, omega_hat)))
    return -(n / 2.0) * (p * math.log(2.0 * math.pi) + logdet) - (n / 2.0) * trace_term


def _information(theta, omega, omega_hat=None):
    # Per-sample Fisher (1/2) DSigma^T (K kron K) DSigma and score
    # DSigma^T vec(K (omega_hat - omega) K) at theta, with K = omega^{-1}
    # and omega = Sigma(theta) + I, without forming DSigma.  A phi direction
    # moves Sigma by X_k Y^T + Y X_k^T, with X_k = dU_k and Y = U M, and a mu
    # direction by U E_m U^T, with E_m = unvech(e_m).  With V = U^T K U,
    # R_k = U^T K X_k and P_k = M R_k, every entry is a trace of r x r
    # products:
    #   F_kl = tr(P_k P_l) + tr(M V M X_k^T K X_l),
    #   F_km = <R_k M V, E_m>,   F_mn = (1/2) tr(V E_m V E_n),
    # and the score is 2 <B Y, X_k> for phi and <U^T B U, E_m> for mu, with
    # B = K (omega_hat - omega) K.  Returns (F, score); score is None when
    # omega_hat is None.  F must pass the eigvalsh PD gate.
    p, r = theta.p, theta.r
    U = cayley_map(theta.phi).matrix
    M = theta.core
    K = np.linalg.inv(omega)
    KU = K @ U
    V = U.T @ KU
    dup = duplication_matrix(r)
    # X[b, i, k] = dU_k[i, b]: column k of DU is vec(dU_k), column-major
    X = cayley_jacobian(theta.phi).reshape(r, p, -1)
    n_phi = X.shape[2]
    R = np.einsum("ia,bik->abk", KU, X)
    P = np.einsum("ac,cbk->abk", M, R)
    XG = np.tensordot(M @ V @ M, X, axes=(1, 0))
    KX = np.matmul(K, X)
    F_phi = P.reshape(r * r, n_phi).T @ P.transpose(1, 0, 2).reshape(r * r, n_phi)
    F_phi += XG.reshape(r * p, n_phi).T @ KX.reshape(r * p, n_phi)
    RMV = np.einsum("ack,cb->bak", R, M @ V).reshape(r * r, n_phi)
    F_cross = RMV.T @ dup
    F_mu = 0.5 * dup.T @ kron(V, V) @ dup
    F = np.block([[F_phi, F_cross], [F_cross.T, F_mu]])
    F = 0.5 * (F + F.T)
    lam_min = float(np.linalg.eigvalsh(F).min())
    if lam_min <= 0.0:
        raise NotPositiveDefinite(
            f"Fisher information smallest eigenvalue {lam_min:.3e} <= 0"
        )
    if omega_hat is None:
        return F, None
    DKU = (np.asarray(omega_hat, dtype=float) - omega) @ KU
    BY = K @ DKU @ M
    score_phi = 2.0 * BY.T.reshape(r * p) @ X.reshape(r * p, n_phi)
    score_mu = dup.T @ (KU.T @ DKU).ravel(order="F")
    return F, np.concatenate([score_phi, score_mu])


def fisher_spiked(theta0):
    """Per-sample Fisher information (1/2) DSigma^T (Om^{-1} x Om^{-1}) DSigma.

    Positive definite everywhere on the chart domain; a nonpositive
    eigenvalue signals a bug upstream rather than a bad input.
    """
    return _information(theta0, omega_of_theta(theta0))[0]


# =====================================================================
# sparsity prior
# =====================================================================


def _log_size_prior(p, r, a_const, n):
    # Support-size prior n^{-rt} (p-r)^{-at} / z_n for every t = 0..p-r,
    # with the normalizer summed exactly (finite geometric series).
    pmr = p - r
    if pmr == 0:
        return np.zeros(1)
    log_q = -r * math.log(n) - a_const * math.log(pmr)
    t = np.arange(pmr + 1)
    return t * log_q - float(logsumexp(log_q * t))


def _log_pi_p(t, p, r, a_const, n):
    # log prior of support size t; see _log_size_prior
    pmr = p - r
    if not (0 <= t <= pmr):
        raise ConfigError(f"support size {t} outside 0..{pmr}")
    return float(_log_size_prior(p, r, a_const, n)[t])


def prior_log_density(theta, support, a_const, n):
    """Log prior density of theta given its support, up to the gamma(|S|)
    normalizer of the restricted Laplace factor and the core indicator
    normalizer.

    Sum of the support-size prior (uniform over subsets of each size),
    the Laplace factor exp(-2 ||vec(A_S)||_1) restricted to the spectral
    unit ball, and the Laplace factor exp(-2 ||mu||_1) restricted to PD
    cores.
    """
    if a_const <= 0.0:
        raise ConfigError(f"prior exponent a_const must be > 0, got {a_const}")
    if not isinstance(support, SupportSet):
        support = SupportSet(theta.p, theta.r, tuple(support))
    if (support.p, support.r) != (theta.p, theta.r):
        raise DimensionMismatch("support and theta live on different (p, r)")
    A = theta.phi.A
    outside = [i for i in range(theta.p - theta.r) if i not in support.indices]
    if outside and np.any(A[outside] != 0.0):
        raise SupportViolation(
            f"rows outside S={support.indices} are not exactly zero"
        )
    A_S = A[list(support.indices)]
    if A_S.size and spectral_norm(A_S) >= 1.0:
        raise DomainViolation("||A_S||_2 must be < 1")
    core_min = float(np.linalg.eigvalsh(theta.core).min())
    if core_min <= 0.0:
        raise DomainViolation(
            f"core M(mu) has smallest eigenvalue {core_min:.3e} <= 0"
        )
    s = support.size
    return (
        _log_pi_p(s, theta.p, theta.r, a_const, n)
        - math.log(math.comb(theta.p - theta.r, s))
        - 2.0 * float(np.abs(A_S).sum())
        - 2.0 * float(np.abs(theta.mu).sum())
    )


_GAMMA_CACHE = {}


def gamma_mc(size, r, draws=GAMMA_DRAWS, seed=GAMMA_SEED):
    """Monte Carlo estimate of gamma(|S|), the mass the unrestricted
    Laplace law of vec(A_S) puts on the spectral unit ball.

    Per coordinate the Laplace density exp(-2|x|) integrates to one, so
    the restricted-Laplace normalizer equals the probability that a
    |S| x r matrix of iid Laplace(scale 1/2) entries has spectral norm
    below 1.  Returns (estimate, standard error); cached per argument
    tuple, and deterministic because the seed is fixed.
    """
    size = int(size)
    if size < 0:
        raise ConfigError(f"support size must be >= 0, got {size}")
    if size == 0:
        return 1.0, 0.0
    key = (size, int(r), int(draws), int(seed))
    if key not in _GAMMA_CACHE:
        gen = substream(seed, size, int(r))
        A = gen.laplace(0.0, LAPLACE_SCALE, size=(int(draws), size, int(r)))
        top = np.linalg.svd(A, compute_uv=False)[:, 0]
        est = float(np.mean(top < 1.0))
        se = math.sqrt(est * (1.0 - est) / float(draws))
        _GAMMA_CACHE[key] = (est, se)
    return _GAMMA_CACHE[key]


def gamma_bounds(size, r):
    """Analytic bracket for gamma(|S|):

    exp{-(1/2) r|S| log(r|S|) - (2 - log 2) r|S|} <= gamma(|S|) <= 1.
    """
    size = int(size)
    if size < 0:
        raise ConfigError(f"support size must be >= 0, got {size}")
    if size == 0:
        return 1.0, 1.0
    rs = float(int(r) * size)
    lower = math.exp(-0.5 * rs * math.log(rs) - (2.0 - math.log(2.0)) * rs)
    return lower, 1.0


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


def _mixture(model, supports, I_per, half_score, log_size_prior):
    """Log weights, means and covariances of the components over supports.

    Supports of one size share d_S, so each size group runs as one stacked
    computation: a fancy index gathers every I_S, and the numpy.linalg
    gufuncs call the same LAPACK routine per matrix that a per-support loop
    would, so each result is bit for bit the loop's.  Groups run in
    ascending size, the enumeration order, so a SingularFisher names the
    first support whose information is not PD.  Returns (log_w, means,
    covs) with one entry of means and covs per support.
    """
    n, r = model.n, model.r
    v0 = model.theta0.as_vector()
    log_2pi = math.log(2.0 * math.pi)
    log_w = np.empty(len(supports))
    means, covs = [], []
    for size, ks in _groups(sup.size for sup in supports):
        group = [supports[k] for k in ks]
        dim = group[0].dim
        # F_S^T I_per F_S for the 0/1 selector F_S is a submatrix
        cols = np.array([sup.columns for sup in group])
        I_S = n * I_per[cols[:, :, None], cols[:, None, :]]
        I_S = 0.5 * (I_S + I_S.swapaxes(1, 2))
        try:
            L = np.linalg.cholesky(I_S)
        except np.linalg.LinAlgError as exc:
            first = group[int(np.argmax(_cholesky_fails(I_S)))]
            raise SingularFisher(
                f"information for S={first.indices} is not PD"
            ) from exc
        logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        # the right-hand side gets the stack's ndim: numpy < 2 reads a b of
        # one dimension fewer than a as a stack of vectors
        cov = np.linalg.solve(I_S, np.eye(dim)[None])
        cov = 0.5 * (cov + cov.swapaxes(1, 2))
        mean = v0[cols] + np.matmul(cov, half_score[cols][:, :, None])[:, :, 0]
        quad = np.matmul(np.matmul(mean[:, None, :], I_S), mean[:, :, None])
        gamma_est, _ = gamma_mc(size, r)
        log_prior = (
            log_size_prior[size]
            - math.log(math.comb(model.p - r, size))
            - math.log(gamma_est)
        )
        log_w[ks] = (
            log_prior + 0.5 * (dim * log_2pi - logdet) + 0.5 * quad[:, 0, 0]
        )
        means.extend(mean)
        covs.extend(cov)
    return log_w, means, covs


def limit_posterior(omega_hat, model, cap, a_const=1.0):
    """Limiting posterior over (support, chart coordinates).

    Enumerates every support containing support0 with size at most cap.
    A component's information is the full-sample quantity
    I_S = n F_S^T I_per F_S, its mean is theta0_S plus I_S^{-1} times the
    selected half of the full-sample score (n/2) DSigma^T
    vec(Om0^{-1}(Omega_hat - Om0) Om0^{-1}), and its log weight combines
    the support prior, the gamma normalizer, and the Gaussian evidence
    (1/2)(d_S log 2pi - logdet I_S) + (1/2) mean^T I_S mean.
    """
    if a_const <= 0.0:
        raise ConfigError(f"prior exponent a_const must be > 0, got {a_const}")
    omega_hat = np.asarray(omega_hat, dtype=float)
    if omega_hat.shape != (model.p, model.p):
        raise DimensionMismatch(
            f"omega_hat shape {omega_hat.shape} != ({model.p}, {model.p})"
        )
    I_per, score = _information(model.theta0, model.omega0, omega_hat)
    supports = _enumerate_supports(model, cap)
    log_w, means, covs = _mixture(
        model,
        supports,
        I_per,
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
    for k, comp in enumerate(lp.components):
        rows = np.flatnonzero(which == k)
        if rows.size == 0:
            continue
        L = np.linalg.cholesky(comp.cov)
        z = gen.standard_normal((rows.size, comp.mean.size))
        out[np.ix_(rows, comp.support.columns)] = comp.mean[None, :] + z @ L.T
    return out


# =====================================================================
# diagnostics
# =====================================================================


def lan_remainder(theta, theta0, omega_hat, n):
    """Remainder of the quadratic log-likelihood expansion around theta0.

    R_n = [l(Omega(theta)) - l(Omega0)]
          - (n/2) vec(Omega_hat - Om0)^T (Om0^{-1} x Om0^{-1}) DSigma0 delta
          + (n/2) delta^T I_per delta,
    with delta = theta - theta0.  Exactly zero at theta = theta0, and
    invariant under adding a constant to the log-likelihood because only
    the difference of two evaluations enters.
    """
    if (theta.p, theta.r) != (theta0.p, theta0.r):
        raise DimensionMismatch("chart points live on different (p, r)")
    Om0 = omega_of_theta(theta0)
    diff = log_likelihood(omega_of_theta(theta), omega_hat, n) - log_likelihood(
        Om0, omega_hat, n
    )
    I_per, g = _information(theta0, Om0, omega_hat)
    delta = theta.as_vector() - theta0.as_vector()
    return diff - (n / 2.0) * float(g @ delta) + (n / 2.0) * float(
        delta @ I_per @ delta
    )


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
    Om0 = omega_of_theta(theta0)
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
            _, omega_hat = sample_gaussian(Om0, n, seed)
            vals.append(abs(lan_remainder(theta, theta0, omega_hat, n)))
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
    a_const=1.0,
    n_ref=None,
):
    """Pooled tail fractions of the limit posterior, one per sample size.

    The ball radius is held fixed at the rate scale of n_ref (default:
    the smallest sample size in the sweep).  Matching the radius to each
    n would divide both it and the posterior spread by the same factor,
    leaving the fraction constant; with the radius pinned, posterior
    contraction is visible as mass leaving a fixed ball as n grows.
    Dataset seeds are shared across sample sizes.
    """
    if n_ref is None:
        n_ref = min(n_values)
    U0 = cayley_map(model.theta0.phi).matrix
    s = max(len(model.support0), 1)
    fractions = []
    for n in n_values:
        model_n = replace(model, n=int(n))
        all_draws = []
        for i in range(int(datasets)):
            seed = replicate_seed(base_seed, i)
            _, omega_hat = sample_gaussian(model.omega0, int(n), seed)
            lp = limit_posterior(omega_hat, model_n, cap, a_const)
            draw_seed = int(substream(seed, 17).integers(2**63))
            all_draws.append(
                sample_limit_posterior(lp, draws_per_dataset, draw_seed)
            )
        pooled = np.vstack(all_draws)
        fractions.append(
            sin_theta_tail(pooled, U0, m_const, s, model.p, n_ref)
        )
    return fractions
