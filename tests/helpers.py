"""Shared construction and oracle helpers for the test suite.

Finite differences here are the independent check on every hand-derived
Jacobian: plain central differences, no reuse of package derivative code.
The dense (I - X) solve is the oracle for the closed-form frame, the dense
Kronecker/Gamma Jacobian the oracle for the structured one, the dense p x p
Omega and its slogdet and solve the oracle for the chart log-likelihood of
the spiked model, the dense d x d Fisher and a per-support loop the oracle
for the block limit posterior, the dense 0/1 selector the oracle for the
scattered component means, the dense Cholesky draw the oracle for the
row-sparse spiked draw, the sum over the block tally the oracle for the
block-model score, a per-restart
loop the oracle for the stacked k-means, float uniforms and Generator.normal
the oracles for the samplers that avoid them, an analytic bracket the
oracle for the Monte Carlo Laplace ball mass, and a batched SVD the oracle
for its stacked-Cholesky unit-ball test.
"""

import math

import numpy as np
from hypothesis import strategies as st

from lowrank_rep import (
    Phi,
    ThetaRect,
    ThetaSym,
    commutation_matrix,
    kron,
    sigma_of_theta,
    vech,
)
from lowrank_rep.errors import NotPositiveDefinite
from lowrank_rep.rngs import generator, substream

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


def skew_embed(phi):
    """Skew-symmetric p x p matrix X = [[0, -A^T], [A, 0]] of a chart point."""
    X = np.zeros((phi.p, phi.p))
    X[phi.r :, : phi.r] = phi.A
    X[: phi.r, phi.r :] = -phi.A.T
    return X


def dense_cayley_frame(phi, scale):
    """(I + X)(I - X)^{-1} I_{p x r} with X = scale * skew_embed(phi), dense.

    Scaling X entrywise rounds exactly like embedding scale * phi.A, so
    scale > 1 reaches blocks outside the chart ball, which Phi rejects.
    """
    X = scale * skew_embed(phi)
    eye = np.eye(phi.p)
    Z = np.linalg.solve(eye - X, eye[:, : phi.r])
    return Z + X @ Z


def gamma_matrix(p, r):
    """Constant p^2 x (p - r) r matrix with Gamma vec(A) = vec(X), the
    skew embedding of a chart point.

    Gamma = (I - K_pp)(E1 kron E2), where E1 selects the first r coordinates
    and E2 the trailing p - r.  It does not depend on the chart point, and
    its spectral norm equals sqrt(2) whenever r < p.
    """
    E1 = np.eye(p)[:, :r]  # Theta_1^T, p x r
    E2 = np.eye(p)[:, r:]  # Theta_2^T, p x (p - r)
    G = kron(E1, E2)
    return G - commutation_matrix(p, p) @ G


def dense_cayley_jacobian(phi):
    """DU = 2 (S[:, :r]^T kron S) Gamma with S = (I - X)^{-1}, all dense."""
    p, r = phi.p, phi.r
    S = np.linalg.inv(np.eye(p) - skew_embed(phi))
    return 2.0 * kron(S[:, :r].T, S) @ gamma_matrix(p, r)


def omega_min_eig(theta):
    """Smallest eigenvalue of Sigma(theta) + I from the r x r core: U has
    orthonormal columns, so the spectrum is 1 + lambda(M), and also 1 when
    r < p."""
    lam_min = 1.0 + float(np.linalg.eigvalsh(theta.core)[0])
    return lam_min if theta.r == theta.p else min(lam_min, 1.0)


def omega_of_theta(theta):
    """The dense p x p covariance Sigma(theta) + I of the spiked model,
    verified positive definite by omega_min_eig."""
    lam_min = omega_min_eig(theta)
    if lam_min <= 0.0:
        raise NotPositiveDefinite(
            f"Sigma(theta) + I has smallest eigenvalue {lam_min:.3e} <= 0"
        )
    return sigma_of_theta(theta) + np.eye(theta.p)


def dense_log_likelihood(omega, omega_hat, n):
    """Oracle for spiked.log_likelihood: the Gaussian log-likelihood
    -(n/2) logdet(2 pi Omega) - (n/2) tr(Omega_hat Omega^{-1}) from the
    dense slogdet and solve of the p x p omega."""
    omega = np.asarray(omega, dtype=float)
    omega_hat = np.asarray(omega_hat, dtype=float)
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0.0:
        raise NotPositiveDefinite("likelihood needs a PD covariance")
    p = omega.shape[0]
    trace_term = float(np.trace(np.linalg.solve(omega, omega_hat)))
    return -(n / 2.0) * (p * math.log(2.0 * math.pi) + logdet) - (n / 2.0) * trace_term


def selector(support):
    """The d x d_S 0/1 matrix F whose columns pick the coordinates of a
    spiked.SupportSet out of theta, so theta_S = F^T theta."""
    d = (support.p - support.r) * support.r + support.r * (support.r + 1) // 2
    F = np.zeros((d, support.dim))
    F[support.columns, np.arange(support.dim)] = 1.0
    return F


def sbm_log_likelihood(theta, counts):
    """Oracle for sbm.sbm_score: the Bernoulli log-likelihood of the graph
    given labels, each pair i<j once, as half the sum over the ordered-pair
    tally; sbm's probability range guard applies."""
    from lowrank_rep.sbm import _checked_probs

    S = _checked_probs(theta)
    m, npairs = counts.m, counts.npairs
    return 0.5 * float(np.sum(m * np.log(S) + (npairs - m) * np.log1p(-S)))


def dense_information(theta, omega, omega_hat=None):
    """Oracle for spiked._information: the dense d x d per-sample Fisher
    (1/2) DSigma^T (K kron K) DSigma and the score DSigma^T vec(K (omega_hat
    - omega) K), K = inv(omega), from the full Jacobian of the frame and the
    r x r trace formulas documented in spiked._information.  Returns
    (F, score), score None without omega_hat."""
    from lowrank_rep import cayley_jacobian, cayley_map, duplication_matrix

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
    if omega_hat is None:
        return F, None
    DKU = (np.asarray(omega_hat, dtype=float) - omega) @ KU
    BY = K @ DKU @ M
    score_phi = 2.0 * BY.T.reshape(r * p) @ X.reshape(r * p, n_phi)
    score_mu = dup.T @ (KU.T @ DKU).ravel(order="F")
    return F, np.concatenate([score_phi, score_mu])


def sample_gaussian(omega, n, seed):
    """Oracle for spiked.sample_data: n iid centered Gaussian columns with
    covariance omega, drawn through the dense Cholesky factor of omega.

    Returns (data, sample_cov) where sample_cov = data data^T / n without
    mean centering.
    """
    L = np.linalg.cholesky(omega)
    Y = L @ generator(seed).standard_normal((omega.shape[0], int(n)))
    return Y, Y @ Y.T / float(n)


def gamma_bounds(size, r):
    """Analytic bracket for the Laplace ball mass gamma(|S|) of
    spiked.gamma_mc:

    exp{-(1/2) r|S| log(r|S|) - (2 - log 2) r|S|} <= gamma(|S|) <= 1.
    """
    size = int(size)
    if size == 0:
        return 1.0, 1.0
    rs = float(int(r) * size)
    lower = math.exp(-0.5 * rs * math.log(rs) - (2.0 - math.log(2.0)) * rs)
    return lower, 1.0


def svd_inside_unit_ball(A):
    """Oracle for spiked._inside_unit_ball: one LAPACK SVD per matrix of
    the stack A, inside when the largest singular value is < 1."""
    return np.linalg.svd(A, compute_uv=False)[:, 0] < 1.0


def loop_limit_posterior(Y, model, cap, a_const=1.0):
    """Oracle for spiked.limit_posterior: the dense information of
    dense_information at the dense sample covariance Y Y^T / n, then one
    support at a time, with its own submatrix, Cholesky, solve, matvecs,
    gamma_mc call and Python-float log weight.  Returns one
    (support, weight, mean, covariance) tuple per support."""
    from lowrank_rep.spiked import _enumerate_supports, _log_size_prior, gamma_mc

    theta0 = model.theta0
    n = model.n
    v0 = theta0.as_vector()
    omega_hat = Y @ Y.T / Y.shape[1]
    I_per, score = dense_information(theta0, omega_of_theta(theta0), omega_hat)
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
    return list(zip(supports, w.tolist(), means, covs))


def component_cov(lp, comp):
    """The dense covariance of comp's theta_S: lp.cov_J on the active rows'
    coordinates and mu, lp.cov_B on each other row of the support, zero
    between, in the coordinate order of comp.support.columns."""
    from lowrank_rep.spiked import SupportSet

    S = comp.support
    place = {col: k for k, col in enumerate(S.columns)}
    cov = np.zeros((S.dim, S.dim))
    J = [place[col] for col in SupportSet(S.p, S.r, lp.active).columns]
    cov[np.ix_(J, J)] = lp.cov_J
    for i in set(S.indices) - set(lp.active):
        Z = [place[i + b * (S.p - S.r)] for b in range(S.r)]
        cov[np.ix_(Z, Z)] = lp.cov_B
    return cov


def loop_sample_limit_posterior(lp, draws, seed):
    """Oracle for spiked.sample_limit_posterior: one Cholesky factor of the
    dense component_cov, one standard_normal call and one scatter per
    component, in component order."""
    gen = generator(seed)
    weights = np.array([c.weight for c in lp.components])
    out = np.zeros((draws, lp.d))
    which = gen.choice(len(lp.components), size=draws, p=weights)
    for k, comp in enumerate(lp.components):
        rows = np.flatnonzero(which == k)
        if rows.size == 0:
            continue
        L = np.linalg.cholesky(component_cov(lp, comp))
        cols = comp.support.columns
        z = gen.standard_normal((rows.size, len(cols)))
        out[np.ix_(rows, cols)] = lp.center[cols][None, :] + z @ L.T
    return out


def float_sample_adjacency(model, seed):
    """Oracle for sbm.sample_adjacency: row blocks of Generator.random
    uniforms compared with the gathered probabilities, then np.triu."""
    tau = model.tau0.labels
    n = tau.size
    gen = generator(seed)
    up = np.empty((n, n), dtype=bool)
    step = max(1, 2**17 // max(n, 1))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        u = gen.random((i1 - i0, n))
        np.less(
            u[:, i0:], model.Sigma0[tau[i0:i1]][:, tau[i0:]], out=up[i0:i1, i0:]
        )
    A = np.triu(up, 1)
    A |= A.T
    return A.view(np.int8)


def normal_sample_data(model, seed):
    """Oracle for bicluster.sample_data with Gaussian noise:
    Generator.normal(0, s) plus the block mean."""
    mean = np.take(model.Sigma0[model.tau0.labels], model.gamma0.labels, axis=1)
    s = float(np.sqrt(model.sigma2))
    return mean + generator(seed).normal(0.0, s, size=(model.m, model.n))


def _loop_sq_dists(rows, centroids):
    # ||x - c||^2 for all pairs, n x k
    return (
        np.sum(rows**2, axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )


def _loop_kmeanspp_init(rows, k, gen):
    n = rows.shape[0]
    centers = np.empty((k, rows.shape[1]))
    idx = int(gen.integers(n))
    centers[0] = rows[idx]
    d2 = np.sum((rows - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(gen.integers(n))  # all points coincide with a center
        else:
            idx = int(gen.choice(n, p=d2 / total))
        centers[j] = rows[idx]
        d2 = np.minimum(d2, np.sum((rows - centers[j]) ** 2, axis=1))
    return centers


def _loop_lloyd(rows, k, centers, max_iter=200):
    n = rows.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _loop_sq_dists(rows, centers)
        new_labels = np.argmin(d2, axis=1)
        # empty-cluster repair: reseed at the worst-fit point
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            worst = int(np.argmax(d2[np.arange(n), new_labels]))
            centers[j] = rows[worst]
            new_labels[worst] = j
            d2[:, j] = np.sum((rows - centers[j]) ** 2, axis=1)
            counts = np.bincount(new_labels, minlength=k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = rows[labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    d2 = _loop_sq_dists(rows, centers)
    obj = float(np.sum(d2[np.arange(n), labels]))
    return labels, centers, obj


def loop_kmeans(rows, k, restarts=20, seed=0):
    """Oracle for cluster.kmeans: one restart at a time, each seeded by
    Generator.choice and run through its own Lloyd loop; the first restart
    with the smallest objective wins.  Returns (labels, centroids, objective)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    best = None
    for t in range(restarts):
        gen = substream(seed, 3, t)
        centers = _loop_kmeanspp_init(rows, k, gen)
        labels, centers, obj = _loop_lloyd(rows, k, centers.copy())
        if best is None or obj < best[2]:
            best = (labels, centers, obj)
    return best
