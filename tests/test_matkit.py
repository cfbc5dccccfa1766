"""Vectorization calculus: frozen small cases plus brute-force identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_rep import (
    commutation_matrix,
    duplication_matrix,
    duplication_pinv,
    kron,
    sin_theta,
    spectral_norm,
    unvec,
    unvech,
    vec,
    vech,
)
from lowrank_rep.errors import AsymmetricInput, DimensionMismatch, NotOrthonormal
from lowrank_rep.matkit import _sin_theta_spectral

from helpers import rng


# ---------------------------------------------------------------- vec / vech


def test_vec_scalar():
    assert vec(np.array([[5.0]])) == np.array([5.0])


def test_vec_2x2_column_order():
    M = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(M), np.array([1.0, 2.0, 3.0, 4.0]))


def test_unvec_inverts_vec():
    gen = rng(0)
    M = gen.normal(size=(3, 5))
    assert np.array_equal(unvec(vec(M), (3, 5)), M)


def test_vech_2x2():
    S = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(vech(S), np.array([1.0, 2.0, 3.0]))


def test_vech_column_order_3x3():
    S = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    # columns of the lower triangle: (11,21,31), (22,32), (33)
    assert np.array_equal(vech(S), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))


def test_vech_rejects_asymmetric():
    with pytest.raises(AsymmetricInput):
        vech(np.array([[1.0, 2.0], [2.1, 3.0]]))


def test_vech_tolerates_roundoff_asymmetry():
    S = np.array([[1.0, 2.0], [2.0, 3.0]])
    S[0, 1] += 1e-12
    vech(S)  # within 1e-10 * (1 + max) so this must not raise


def test_unvech_round_trip():
    gen = rng(1)
    for r in range(1, 7):
        v = gen.normal(size=r * (r + 1) // 2)
        S = unvech(v, r)
        assert np.array_equal(S, S.T)
        assert np.array_equal(vech(S), v)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_vech_unvech_property(r, seed):
    v = rng(seed).normal(size=r * (r + 1) // 2)
    assert np.array_equal(vech(unvech(v, r)), v)


# ------------------------------------------------- commutation / duplication


def brute_commutation(p, q):
    # independent oracle: one basis matrix at a time
    K = np.zeros((p * q, p * q))
    for i in range(p):
        for j in range(q):
            E = np.zeros((p, q))
            E[i, j] = 1.0
            K[:, i + j * p] = vec(E.T)
    return K


def test_commutation_trivial():
    assert np.array_equal(commutation_matrix(1, 1), np.eye(1))


def test_commutation_2x2_swaps_middle():
    K = commutation_matrix(2, 2)
    expect = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(K, expect)


def test_commutation_matches_brute_force():
    for p in range(1, 5):
        for q in range(1, 5):
            assert np.array_equal(commutation_matrix(p, q), brute_commutation(p, q))


def test_commutation_transpose_identity():
    gen = rng(2)
    for p in range(1, 7):
        for q in range(1, 7):
            M = gen.normal(size=(p, q))
            assert np.allclose(
                commutation_matrix(p, q) @ vec(M), vec(M.T), rtol=0, atol=0
            )


def test_commutation_inverse_pair():
    K23 = commutation_matrix(2, 3)
    K32 = commutation_matrix(3, 2)
    assert np.array_equal(K32 @ K23, np.eye(6))


def test_duplication_1():
    assert np.array_equal(duplication_matrix(1), np.eye(1))


def test_duplication_2_rows():
    D = duplication_matrix(2)
    expect = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    assert np.array_equal(D, expect)


def test_duplication_maps_vech_to_vec():
    gen = rng(3)
    for r in range(1, 7):
        S = gen.normal(size=(r, r))
        S = S + S.T
        assert np.allclose(duplication_matrix(r) @ vech(S), vec(S), atol=1e-14)


def test_duplication_pinv_projector():
    # D_p D_p^dagger is the symmetrizer (I + K_pp) / 2
    for p in range(1, 7):
        D = duplication_matrix(p)
        proj = D @ duplication_pinv(p)
        sym = 0.5 * (np.eye(p * p) + commutation_matrix(p, p))
        assert np.max(np.abs(proj - sym)) < 1e-12


# ----------------------------------------------------------------- kronecker


def test_kron_identity_layout():
    gen = rng(4)
    A = gen.normal(size=(3, 4))
    B = gen.normal(size=(2, 5))
    M = gen.normal(size=(5, 4))
    # (C^T kron B) vec(M) = vec(B M C) with C = A^T
    lhs = kron(A, B) @ vec(M)
    rhs = vec(B @ M @ A.T)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_kron_small_frozen():
    A = np.array([[1.0, 2.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    expect = np.array([[0.0, 1.0, 0.0, 2.0], [1.0, 0.0, 2.0, 0.0]])
    assert np.array_equal(kron(A, B), expect)


# ----------------------------------------------------------------- sin_theta


def test_sin_theta_same_span_zero():
    U = np.eye(4)[:, :2]
    res = sin_theta(U, U)
    assert np.allclose(res.angles, 0.0)
    assert res.dist_spectral == 0.0
    assert res.dist_frobenius == 0.0


def test_sin_theta_orthogonal_spans():
    U = np.eye(4)[:, :1]
    V = np.eye(4)[:, 1:2]
    res = sin_theta(U, V)
    assert np.allclose(res.angles, np.pi / 2)
    assert res.dist_spectral == pytest.approx(1.0)
    assert res.dist_frobenius == pytest.approx(1.0)


def test_sin_theta_projection_identity():
    # ||U U^T - V V^T||_F = sqrt(2) * dist_frobenius
    gen = rng(5)
    for _ in range(20):
        U, _ = np.linalg.qr(gen.normal(size=(6, 2)))
        V, _ = np.linalg.qr(gen.normal(size=(6, 2)))
        res = sin_theta(U, V)
        gap = np.linalg.norm(U @ U.T - V @ V.T)
        assert gap == pytest.approx(np.sqrt(2.0) * res.dist_frobenius, abs=1e-10)


def test_sin_theta_rotation_invariant():
    gen = rng(6)
    U, _ = np.linalg.qr(gen.normal(size=(7, 3)))
    V, _ = np.linalg.qr(gen.normal(size=(7, 3)))
    base = sin_theta(U, V)
    for _ in range(10):
        Q1, _ = np.linalg.qr(gen.normal(size=(3, 3)))
        Q2, _ = np.linalg.qr(gen.normal(size=(3, 3)))
        res = sin_theta(U @ Q1, V @ Q2)
        assert abs(res.dist_frobenius - base.dist_frobenius) < 1e-10
        assert abs(res.dist_spectral - base.dist_spectral) < 1e-10


def test_sin_theta_angles_nondecreasing_and_clipped():
    gen = rng(7)
    for _ in range(20):
        U, _ = np.linalg.qr(gen.normal(size=(5, 2)))
        V, _ = np.linalg.qr(gen.normal(size=(5, 2)))
        res = sin_theta(U, V)
        assert np.all(np.diff(res.angles) >= -1e-15)
        assert np.all(np.isfinite(res.angles))


def test_sin_theta_near_identical_no_nan():
    U = np.eye(3)[:, :2]
    V = U.copy()
    V[2, 0] = 1e-9  # slightly off-orthonormal but inside tolerance
    res = sin_theta(U, V)
    assert np.all(np.isfinite(res.angles))


def test_sin_theta_rejects_nonorthonormal():
    with pytest.raises(NotOrthonormal):
        sin_theta(np.ones((3, 2)), np.eye(3)[:, :2])


def test_sin_theta_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        sin_theta(np.eye(4)[:, :2], np.eye(3)[:, :2])


def test_sin_theta_spectral_is_sin_theta_per_frame():
    gen = rng(8)
    V, _ = np.linalg.qr(gen.normal(size=(7, 3)))
    Us = np.stack([np.linalg.qr(gen.normal(size=(7, 3)))[0] for _ in range(30)])
    Us[3] = V  # equal frames take sin_theta's exact-zero shortcut
    dists = _sin_theta_spectral(Us, V)
    assert dists[3] == 0.0
    for U, dist in zip(Us, dists):
        assert dist == sin_theta(U, V).dist_spectral


def test_sin_theta_spectral_validates_every_frame():
    V = np.eye(4)[:, :2]
    Us = np.stack([V, V])
    Us[1, 0, 0] = 2.0
    with pytest.raises(NotOrthonormal):
        _sin_theta_spectral(Us, V)
    with pytest.raises(DimensionMismatch):
        _sin_theta_spectral(V, V)
    with pytest.raises(DimensionMismatch):
        _sin_theta_spectral(np.stack([np.eye(3)[:, :2]]), V)


def test_spectral_norm_empty():
    assert spectral_norm(np.zeros((0, 3))) == 0.0
