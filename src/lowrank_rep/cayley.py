"""Cayley chart on tall orthonormal frames with a positive definite top block.

The chart covers O_plus(p, r), the set of p x r orthonormal frames U whose
leading r x r block is symmetric positive definite.  A frame is encoded by
the free matrix A of shape (p - r) x r through

    U(phi) = (I + X) (I - X)^{-1} I_{p x r},      phi = vec(A),

where X is the skew-symmetric embedding of A (block [[0, -A^T], [A, 0]]).
The chart is a bijection onto O_plus as long as ||A||_2 < 1, and I - X is
nonsingular for every A, with condition number at most sqrt(2).

No p x p matrix is formed: with G = (I_r + A^T A)^{-1}, the inverse of the
r x r Schur complement of I - X (the low-rank Cayley form of Wen & Yin 2013),
    Z = (I - X)^{-1} I_{p x r} = [G; A G],   U = 2 Z - I_{p x r},
    (I - X)^{-1} [0; I_{p-r}] = [0; I_{p-r}] - Z A^T,
so the frame costs O(p r^2) and its Jacobian O(p^2 r^2), its own size.

All certificate constants here and downstream are explicit and hold
non-asymptotically; a Certificate records the observed quantity next to its
bound so callers can audit slack.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateTopBlock,
    DimensionMismatch,
    DomainViolation,
    InaccurateSolve,
    RankMismatch,
    TopBlockNotPD,
)
from .matkit import (
    _check_frame,
    _read_only,
    spectral_norm,
    unvec,
    vec,
)

__all__ = [
    "Phi",
    "StiefelPlus",
    "Certificate",
    "GateNotMet",
    "cayley_map",
    "cayley_inverse",
    "cayley_jacobian",
    "taylor_certificate_U",
    "lipschitz_certificate_A",
]

# Open-domain guard: reject ||A||_2 >= 1 - DOMAIN_MARGIN.
DOMAIN_MARGIN = 1e-12
# Top block counts as positive definite when lambda_min(sym part) > this.
TOP_BLOCK_TOL = 1e-14
# Relative residual accepted from the (I - X) solve, on the chart ball.
SOLVE_RTOL = 1e-10
# Relative magnitude threshold defining the numerical rank of an input.
RANK_RTOL = 1e-9
# Smallest singular value of a basis top block we agree to rotate through.
TOP_BLOCK_MIN = 1e-8

# Certificates pass with a hair of headroom for roundoff in the bound itself.
CERT_RTOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """An observed quantity paired with its proven bound."""

    label: str
    observed: float
    bound: float

    @property
    def slack(self):
        return self.bound - self.observed

    @property
    def passed(self):
        return self.observed <= self.bound * (1.0 + CERT_RTOL)


@dataclass(frozen=True)
class GateNotMet:
    """Marker returned when a gated bound's precondition fails.

    The bound is then vacuous, not violated; batteries report these as
    not-applicable rather than as failures.
    """

    label: str
    observed_gate: float
    gate_bound: float


@dataclass(frozen=True)
class Phi:
    """Chart coordinates: p, r, and values = vec(A) of length (p - r) r.

    Construction copies values, read-only, and validates ||A||_2 < 1 - 1e-12
    (DomainViolation otherwise).  A, norm = ||A||_2 and the frame quantities
    below are computed on first use and kept, read-only, for the lifetime of
    the point.
    """

    p: int
    r: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (1 <= self.r <= self.p):
            raise DimensionMismatch(f"need 1 <= r <= p, got p={self.p}, r={self.r}")
        v = np.array(self.values, dtype=float).ravel()
        if v.size != (self.p - self.r) * self.r:
            raise DimensionMismatch(
                f"phi length {v.size} != (p - r) r = {(self.p - self.r) * self.r}"
            )
        object.__setattr__(self, "values", _read_only(v))
        if self.norm >= 1.0 - DOMAIN_MARGIN:
            raise DomainViolation(
                f"||A||_2 = {self.norm:.17g} outside the open chart domain"
            )

    @cached_property
    def A(self):
        return _read_only(unvec(self.values, (self.p - self.r, self.r)))

    @cached_property
    def norm(self):
        """||A||_2."""
        return spectral_norm(self.A)

    @cached_property
    def factor(self):
        """Z = (I - X)^{-1} I_{p x r} = [G; A G], p x r."""
        return _read_only(_frame_factor(self.A))

    @cached_property
    def frame(self):
        """The frame U(phi) = 2 Z - I_{p x r}, validated once."""
        return StiefelPlus(_frame_from_factor(self.factor))

    @cached_property
    def jacobian(self):
        """DU(phi), shape (p r) x ((p - r) r); see cayley_jacobian."""
        return _read_only(_jacobian_columns(self.A, self.factor, slice(None)))


@dataclass(frozen=True)
class StiefelPlus:
    """Orthonormal p x r frame whose top r x r block is symmetric PD."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        U = _check_frame(_read_only(np.array(self.matrix, dtype=float)), "frame")
        if U.shape[1] < 1:
            raise DimensionMismatch(f"frame needs r >= 1 columns, got {U.shape}")
        object.__setattr__(self, "matrix", U)
        _check_top_block(U)

    @property
    def p(self):
        return self.matrix.shape[0]

    @property
    def r(self):
        return self.matrix.shape[1]


def _check_top_block(U):
    r = U.shape[1]
    Q1 = U[:r, :]
    sym = 0.5 * (Q1 + Q1.T)
    asym = np.max(np.abs(Q1 - Q1.T), initial=0.0)
    if asym > 1e-8:
        raise TopBlockNotPD(f"top block asymmetry {asym:.3e}")
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    if lam_min <= TOP_BLOCK_TOL:
        raise TopBlockNotPD(f"lambda_min(top block) = {lam_min:.3e}")
    return Q1


def _as_frame_matrix(U):
    return U.matrix if isinstance(U, StiefelPlus) else _check_frame(U, "frame")


def _top_block_frame(mags, V, r):
    """Rotate the basis Vr = V[:, :r] of the r largest magnitudes (eigenvalue
    magnitudes or singular values, nonincreasing) to a PD-top-block frame.

    Raises RankMismatch unless exactly r magnitudes exceed RANK_RTOL times
    the largest, and DegenerateTopBlock when the top block of Vr is
    numerically singular.  With W1 s W2^T the SVD of that block, returns
    (U, rotate): U = Vr W2 W1^T and rotate(B) = B W2 W1^T for other factors.
    """
    tol = RANK_RTOL * mags[0] if mags[0] > 0 else 0.0
    if mags[r - 1] <= tol:
        raise RankMismatch(
            f"numerical rank below r={r}: magnitude {r} = {mags[r - 1]:.3e}"
        )
    if r < mags.size and mags[r] > tol:
        raise RankMismatch(
            f"numerical rank above r={r}: magnitude {r + 1} = {mags[r]:.3e}; "
            "a magnitude tie at the cut makes the retained subspace ambiguous"
        )
    Vr = V[:, :r]
    W1, s, W2t = np.linalg.svd(Vr[:r, :])
    if s[-1] < TOP_BLOCK_MIN:
        raise DegenerateTopBlock(
            f"sigma_min of the leading block = {s[-1]:.3e}; the subspace has "
            "no representative with a PD top block at this tolerance"
        )

    def rotate(B):
        return B @ W2t.T @ W1.T

    return rotate(Vr), rotate


def _frame_factor(A):
    # Z = C G with C = [I; A], G = (C^T C)^{-1}, for one (p - r) x r block or
    # a stack of them over leading axes; matmul and solve treat each block
    # as a 2-D call would.  R = I - C^T Z is the residual of
    # (I - X) Z = I_{p x r} without A^T A rounded, so the correction Z R
    # holds Z to roundoff also where ||A||_2 >> 1.  R itself rounds at
    # eps ||A||^2: the tolerance grows by max(1, ||A||_F^2 / r), 1 on the
    # ball, and each block is held to its own.
    r = A.shape[-1]
    # size-1 leading axes: solve reads eye as matrices, also on numpy 1.x
    eye = np.eye(r)[(None,) * (A.ndim - 2)]
    C = np.empty(A.shape[:-2] + (r + A.shape[-2], r))
    C[..., :r, :] = eye
    C[..., r:, :] = A
    Ct = C.swapaxes(-1, -2)
    Z = C @ np.linalg.solve(Ct @ C, eye)
    R = eye - Ct @ Z
    tol = SOLVE_RTOL * r**0.5
    # the norm of the whole stack bounds each block's; only past tol are
    # the blocks measured one by one
    if np.vdot(R, R) ** 0.5 > tol:
        resid = np.sqrt((R * R).sum((-2, -1)))
        bad = resid > tol * np.maximum(1.0, (A * A).sum((-2, -1)) / r)
        if bad.any():
            raise InaccurateSolve(
                f"(I - X) solve: residual {resid[bad].flat[0]:.3e} > {tol:.3e} "
                "max(1, ||A||_F^2 / r)"
            )
    return Z + Z @ R


def _frame_from_factor(Z):
    # U = (I + X) Z = 2 Z - I_{p x r} from Z = _frame_factor(A), for one
    # p x r factor or a stack of them
    return 2.0 * Z - np.eye(*Z.shape[-2:])


def _frame_of_rows(A):
    # the frame U for any real (p - r) x r block A, or a stack of blocks,
    # also outside the chart ball; callers that need a chart point check
    # the domain
    return _frame_from_factor(_frame_factor(A))


def cayley_map(phi):
    """Frame U(phi) = (I + X)(I - X)^{-1} I_{p x r}, phi.frame."""
    return phi.frame


def cayley_inverse(U):
    """Chart coordinates of a frame in O_plus.

    Accepts a StiefelPlus or a raw orthonormal array; raises TopBlockNotPD
    when the leading block is not symmetric positive definite.
    """
    M = _as_frame_matrix(U)
    p, r = M.shape
    Q1 = _check_top_block(M)
    Q2 = M[r:, :]
    # A = Q2 (I + Q1)^{-1}; I + Q1 is symmetric PD so the solve is stable.
    A = np.linalg.solve(np.eye(r) + Q1.T, Q2.T).T
    return Phi(p, r, vec(A))


def cayley_jacobian(phi):
    """Jacobian DU(phi) of vec(U(phi)), shape (p r) x ((p - r) r).

    DU = 2 [I_{p x r}^T (I - X)^{-T} kron (I - X)^{-1}] Gamma, and
    ||DU||_2 <= 2 sqrt(2) uniformly over the chart domain.

    Column k = a + b (p - r) is the direction dA = e_a e_b^T, for which
    dX = e_{r+a} e_b^T - e_b e_{r+a}^T touches two entries.  With
    S = (I - X)^{-1} and Z = S I_{p x r} the column is vec(2 S dX Z), the
    vec of 2 (S[:, r+a] Z[b, :] - S[:, b] Z[r+a, :]) read as outer
    products.  Only the trailing columns [0; I] - Z A^T of S are formed,
    and neither the Kronecker factor nor Gamma.  Returns phi.jacobian.
    """
    return phi.jacobian


def _jacobian_columns(A, Z, rows):
    # The columns of DU for the directions dA = e_a e_b^T with a in rows (an
    # index or slice into the rows of A), ordered a + b len(rows) as in
    # cayley_jacobian; Z = _frame_factor(A).  For an exactly zero row a the
    # column is 2 e_{r+a} Z[b, :], since Z[r+a] = A[a] G vanishes.
    p, r = Z.shape
    a = np.arange(p - r)[rows]
    # the columns r + a of S = (I - X)^{-1}: e_{r+a} - Z A[a]^T
    S_tail = np.zeros((p, a.size))
    S_tail[r + a, np.arange(a.size)] = 1.0
    S_tail -= Z @ A[rows].T
    # T[i, j, a, b] is entry (i, j) of the column for direction (a, b)
    T = np.einsum("ia,bj->ijab", S_tail, Z[:r])
    T -= np.einsum("ib,aj->ijab", Z, Z[r:][rows])
    return 2.0 * T.reshape(p * r, -1, order="F")


def taylor_certificate_U(phi, phi0):
    """Lipschitz and first-order remainder certificates for the chart map.

    Returns (lipschitz, remainder):
      ||U - U0||_F <= 2 sqrt(2) ||phi - phi0||_2
      ||U - U0 - mat(DU(phi0)(phi - phi0))||_F <= 8 ||phi - phi0||_2^2
    """
    if (phi.p, phi.r) != (phi0.p, phi0.r):
        raise DimensionMismatch("chart points live on different (p, r)")
    U = cayley_map(phi).matrix
    U0 = cayley_map(phi0).matrix
    delta = phi.values - phi0.values
    dnorm = float(np.linalg.norm(delta))
    diff = U - U0
    lip = Certificate(
        label="cayley_lipschitz_U",
        observed=float(np.linalg.norm(diff)),
        bound=2.0 * np.sqrt(2.0) * dnorm,
    )
    lin = unvec(cayley_jacobian(phi0) @ delta, (phi.p, phi.r))
    rem = Certificate(
        label="cayley_taylor_remainder_U",
        observed=float(np.linalg.norm(diff - lin)),
        bound=8.0 * dnorm * dnorm,
    )
    return lip, rem


def lipschitz_certificate_A(U, U0):
    """Certificate for the inverse chart: ||A(U) - A(U0)||_F <= 2 ||U - U0||_F."""
    M = _as_frame_matrix(U)
    M0 = _as_frame_matrix(U0)
    if M.shape != M0.shape:
        raise DimensionMismatch(f"shape mismatch {M.shape} vs {M0.shape}")
    A = cayley_inverse(M).A
    A0 = cayley_inverse(M0).A
    return Certificate(
        label="cayley_inverse_lipschitz_A",
        observed=float(np.linalg.norm(A - A0)),
        bound=2.0 * float(np.linalg.norm(M - M0)),
    )
