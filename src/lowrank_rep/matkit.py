"""Matrix vectorization calculus and subspace distances.

Layout conventions used by the whole package:
  * vec stacks columns (Fortran order);
  * vech stacks the lower triangle column by column, diagonal included;
  * kron is the standard Kronecker product, so (C^T kron B) vec(M) = vec(B M C);
  * canonical angles between column spans are arccos of the singular values
    of U^T V, clipped into [0, 1] before arccos so roundoff never yields NaN.

Commutation and duplication matrices are materialized densely and cost
O(p^2 q^2) memory.  The chart Jacobians (cayley_jacobian, dsigma,
dsigma_rect) fold the permutation and Kronecker actions in directly, and
the spiked Fisher information and score are traces of r x r blocks of the
frame derivative, so they never form DSigma at all.  No hot path forms a
p^2 x p^2 matrix; the dense matrices here serve as test oracles for those
structured paths.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch, NotOrthonormal, SingularGram

__all__ = [
    "vec",
    "unvec",
    "vech",
    "unvech",
    "commutation_matrix",
    "duplication_matrix",
    "duplication_pinv",
    "kron",
    "sin_theta",
    "SinThetaResult",
    "spectral_norm",
]

# Symmetry is checked relative to max-norm scale; see vech.
SYMMETRY_RTOL = 1e-10
# Orthonormality tolerance for frames entering sin_theta.
ORTHONORMAL_TOL = 1e-8


def vec(M):
    """Column-stacking vectorization of a matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"vec expects a matrix, got ndim={M.ndim}")
    return M.reshape(-1, order="F").copy()


def unvec(v, shape):
    """Inverse of vec for a given (rows, cols) shape."""
    v = np.asarray(v, dtype=float)
    rows, cols = shape
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape length {v.size} into {shape}")
    return v.reshape((rows, cols), order="F").copy()


def _check_symmetric(S, what="vech"):
    scale = 1.0 + np.max(np.abs(S), initial=0.0)
    dev = np.max(np.abs(S - S.T), initial=0.0)
    if dev > SYMMETRY_RTOL * scale:
        raise AsymmetricInput(
            f"{what}: asymmetry {dev:.3e} exceeds {SYMMETRY_RTOL * scale:.3e}"
        )


def _tril_colmajor(r):
    # (rows, cols) of the lower triangle walked column by column; note that
    # np.tril_indices walks it row by row, which is the wrong order here
    cols = np.repeat(np.arange(r), np.arange(r, 0, -1))
    rows = np.concatenate([np.arange(j, r) for j in range(r)])
    return rows, cols


def vech(S):
    """Half-vectorization: lower triangle of a symmetric matrix, stacked
    column by column with the diagonal included.

    Raises AsymmetricInput when ||S - S^T||_max > 1e-10 * (1 + ||S||_max).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"vech expects a square matrix, got {S.shape}")
    _check_symmetric(S)
    rows, cols = _tril_colmajor(S.shape[0])
    return S[rows, cols].copy()


def unvech(v, r):
    """Symmetric r x r matrix whose vech equals v."""
    v = np.asarray(v, dtype=float)
    if v.size != r * (r + 1) // 2:
        raise DimensionMismatch(
            f"unvech: length {v.size} incompatible with r={r}"
        )
    S = np.zeros((r, r))
    rows, cols = _tril_colmajor(r)
    S[rows, cols] = v
    S[cols, rows] = v
    return S


def commutation_matrix(p, q):
    """K_pq with K_pq vec(M) = vec(M^T) for every p x q matrix M."""
    if p < 1 or q < 1:
        raise DimensionMismatch(f"commutation_matrix needs p, q >= 1, got ({p}, {q})")
    K = np.zeros((p * q, p * q))
    i = np.repeat(np.arange(p), q)
    j = np.tile(np.arange(q), p)
    # vec(M) places (i, j) at i + j p; vec(M^T) places it at j + i q.
    K[j + i * q, i + j * p] = 1.0
    return K


def _vech_index(i, j, r):
    # position of entry (i, j), i >= j, in the column-stacked lower triangle
    return j * r - j * (j - 1) // 2 + (i - j)


def duplication_matrix(r):
    """D_r with D_r vech(S) = vec(S) for symmetric S."""
    if r < 1:
        raise DimensionMismatch(f"duplication_matrix needs r >= 1, got {r}")
    D = np.zeros((r * r, r * (r + 1) // 2))
    for j in range(r):
        for i in range(r):
            D[i + j * r, _vech_index(max(i, j), min(i, j), r)] = 1.0
    return D


def duplication_pinv(r):
    """Moore-Penrose pseudoinverse of D_r; maps vec(S) back to vech(S)."""
    D = duplication_matrix(r)
    return np.linalg.solve(D.T @ D, D.T)


def kron(A, B):
    """Kronecker product in the layout that makes
    (C^T kron B) vec(M) = vec(B M C)."""
    return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))


@dataclass(frozen=True)
class SinThetaResult:
    """Canonical angles between two column spans.

    angles are nondecreasing (cosines nonincreasing).  dist_spectral is the
    sine of the largest angle; dist_frobenius is the Frobenius norm of the
    vector of sines, which equals ||U U^T - V V^T||_F / sqrt(2) for
    orthonormal U, V of equal width.
    """

    angles: np.ndarray
    dist_spectral: float
    dist_frobenius: float


def _check_frame(U, name, stacked=False):
    # one tall frame, or with stacked=True a stack of them over axis 0
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 + stacked:
        kind = "a stack of matrices" if stacked else "a matrix"
        raise DimensionMismatch(f"{name} must be {kind}")
    if U.shape[-2] < U.shape[-1]:
        raise DimensionMismatch(f"{name} must be tall, got {U.shape}")
    G = U.swapaxes(-1, -2) @ U
    dev = np.max(np.abs(G - np.eye(U.shape[-1])), initial=0.0)
    if dev > ORTHONORMAL_TOL:
        raise NotOrthonormal(
            f"{name}: ||U^T U - I||_max = {dev:.3e} > {ORTHONORMAL_TOL:.1e}"
        )
    return U


def sin_theta(U, V):
    """Canonical angles and sin-theta distances between span(U) and span(V).

    Both inputs must have orthonormal columns of the same shape.  Angles are
    arccos of the clipped singular values of U^T V; the distances come from
    the singular values of (I - U U^T) V, which resolve small angles far
    below the sqrt(eps) floor that 1 - cos^2 would impose.
    """
    U = _check_frame(U, "U")
    V = _check_frame(V, "V")
    if U.shape != V.shape:
        raise DimensionMismatch(f"shape mismatch {U.shape} vs {V.shape}")
    if np.array_equal(U, V):
        zeros = np.zeros(U.shape[1])
        return SinThetaResult(angles=zeros, dist_spectral=0.0, dist_frobenius=0.0)
    C = U.T @ V
    s = np.clip(np.linalg.svd(C, compute_uv=False), 0.0, 1.0)
    angles = np.arccos(s)
    sines = np.clip(np.linalg.svd(V - U @ C, compute_uv=False), 0.0, 1.0)
    return SinThetaResult(
        angles=angles,
        dist_spectral=float(sines.max(initial=0.0)),
        dist_frobenius=float(np.sqrt(np.sum(sines**2))),
    )


def _sin_theta_spectral(Us, V):
    """dist_spectral of sin_theta(U, V) for every frame U of the stack Us.

    One stacked pass with the products and SVD that sin_theta runs per
    frame, so each distance has its bits.
    """
    Us = _check_frame(Us, "U", stacked=True)
    V = _check_frame(V, "V")
    if Us.shape[1:] != V.shape:
        raise DimensionMismatch(f"shape mismatch {Us.shape[1:]} vs {V.shape}")
    C = Us.swapaxes(1, 2) @ V
    sines = np.clip(np.linalg.svd(V - Us @ C, compute_uv=False), 0.0, 1.0)
    dist = sines.max(axis=1, initial=0.0)
    dist[np.all(Us == V, axis=(1, 2))] = 0.0
    return dist


def _read_only(a):
    # a itself, made read-only: a chart point's coordinates and the
    # quantities it keeps are shared by every caller that holds the point
    a.flags.writeable = False
    return a


def spectral_norm(M):
    """Largest singular value; 0 for an empty matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def _inv_gram_norm(D):
    gram = D.T @ D
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularGram(
            f"gram numerically rank deficient: sigma = {s[-1]:.3e} vs {s[0]:.3e}"
        )
    return float(np.linalg.norm(np.linalg.inv(gram), 2))
