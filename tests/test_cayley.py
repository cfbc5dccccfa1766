"""Cayley chart: frozen values, round trips, Jacobian oracle, certificates,
and the read-only chart quantities each chart point keeps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowrank_rep import (
    Phi,
    StiefelPlus,
    ThetaRect,
    ThetaSym,
    cayley_inverse,
    cayley_jacobian,
    cayley_map,
    dsigma,
    dsigma_rect,
    lipschitz_certificate_A,
    sigma_of_theta,
    sigma_of_theta_rect,
    spectral_norm,
    taylor_certificate_U,
    vec,
)
from lowrank_rep.cayley import _frame_factor, _frame_of_rows, _jacobian_columns
from lowrank_rep.cli import run as cli_run
from lowrank_rep.errors import (
    DimensionMismatch,
    DomainViolation,
    InaccurateSolve,
    NotOrthonormal,
    NumericsError,
    TopBlockNotPD,
)

from helpers import (
    chart_points,
    dense_cayley_jacobian,
    edge_point,
    fd_jacobian,
    gamma_matrix,
    random_phi,
    rng,
    skew_embed,
)


# ------------------------------------------------------------------- domain


def test_phi_rejects_norm_at_one():
    with pytest.raises(DomainViolation):
        Phi(2, 1, [1.0])


def test_phi_rejects_just_inside_margin():
    with pytest.raises(DomainViolation):
        Phi(2, 1, [1.0 - 1e-13])


def test_phi_accepts_near_boundary():
    Phi(2, 1, [1.0 - 1e-9])


def test_phi_empty_when_square():
    phi = Phi(3, 3, np.zeros(0))
    assert phi.A.shape == (0, 3)
    assert spectral_norm(phi.A) == 0.0


def test_phi_length_check():
    with pytest.raises(DimensionMismatch):
        Phi(4, 2, [0.1, 0.2, 0.3])


# ----------------------------------------------- read-only chart quantities


def test_chart_points_copy_their_coordinates():
    # writing into the caller's arrays after construction must not move
    # the point: ||A||_2 = 12.2 here would leave the chart domain
    v = np.zeros(6)
    phi = Phi(5, 2, v)
    v[:] = 5.0
    assert not np.shares_memory(phi.values, v)
    assert np.array_equal(phi.values, np.zeros(6))
    assert np.array_equal(cayley_map(phi).matrix, np.eye(5)[:, :2])
    mu = np.array([1.0, 0.0, 1.0])
    theta = ThetaSym(phi, mu)
    mu[:] = [1.0, 3.0, 1.0]  # an indefinite core, had theta kept mu
    assert np.linalg.eigvalsh(theta.core)[0] == 1.0
    nu = np.ones(6)
    rect = ThetaRect(3, phi, nu)
    nu[:] = 0.0
    assert np.array_equal(rect.mu, np.ones(6))
    for held in (phi.values, theta.mu, rect.mu):
        with pytest.raises(ValueError):
            held[0] = 2.0


def test_frame_copies_its_matrix():
    # a frame that kept the caller's array would be zeroed after its checks
    # passed, and cayley_inverse would then find no PD top block
    U = np.eye(3)[:, :2].copy()
    f = StiefelPlus(U)
    U[:] = 0.0
    assert np.array_equal(f.matrix, np.eye(3)[:, :2])
    assert np.array_equal(cayley_inverse(f).values, np.zeros(2))
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 2.0


def memo_case(p, r, p1, norm, seed):
    """(theta, rect) sharing one phi with ||A||_2 = norm (0 when p = r)."""
    gen = rng(seed)
    A = gen.normal(size=(p - r, r))
    if A.size:
        A *= norm / np.linalg.norm(A, 2)
    phi = Phi(p, r, A.reshape(-1, order="F"))
    theta = ThetaSym(phi, gen.normal(size=r * (r + 1) // 2))
    return theta, ThetaRect(p1, phi, gen.normal(size=p1 * r))


@st.composite
def memo_points(draw):
    """memo_case over p <= 10, r <= 3 with p = r allowed, ||A||_2 <= 0.99."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r, 10))
    return memo_case(
        p,
        r,
        draw(st.integers(1, 10)),
        draw(st.floats(0.0, 0.99)),
        draw(st.integers(0, 2**32 - 1)),
    )


@given(memo_points())
@settings(max_examples=150, deadline=None)
@example(memo_case(10, 3, 10, 0.99, 1))
@example(memo_case(3, 3, 2, 0.0, 2))
def test_memoized_chart_quantities_match_fresh_and_are_read_only(case):
    theta, rect = case
    phi = theta.phi
    held = {
        "values": phi.values,
        "A": phi.A,
        "factor": phi.factor,
        "frame": cayley_map(phi).matrix,
        "DU": cayley_jacobian(phi),
        "mu": theta.mu,
        "Sigma": sigma_of_theta(theta),
        "DSigma": dsigma(theta),
        "mu_rect": rect.mu,
        "Sigma_rect": sigma_of_theta_rect(rect),
        "DSigma_rect": dsigma_rect(rect),
    }
    for name, value in held.items():
        assert not value.flags.writeable, name
    # each call returns the one kept array
    assert cayley_map(phi) is phi.frame
    assert cayley_jacobian(phi) is held["DU"]
    assert sigma_of_theta(theta) is held["Sigma"]
    assert dsigma(theta) is held["DSigma"]
    assert dsigma_rect(rect) is held["DSigma_rect"]

    # fresh recomputations from copies of the coordinates, bit for bit
    A = np.array(phi.A)
    U = _frame_of_rows(A)
    assert np.array_equal(held["frame"], U)
    assert np.array_equal(held["factor"], _frame_factor(A))
    assert np.array_equal(held["DU"], _jacobian_columns(A, _frame_factor(A), slice(None)))
    S = U @ theta.core @ U.T
    assert np.array_equal(held["Sigma"], 0.5 * (S + S.T))
    assert np.array_equal(held["Sigma_rect"], rect.core @ U.T)
    fresh_phi = Phi(phi.p, phi.r, np.array(phi.values))
    fresh = ThetaSym(fresh_phi, np.array(theta.mu))
    assert np.array_equal(held["DSigma"], dsigma(fresh))
    fresh_rect = ThetaRect(rect.p1, fresh_phi, np.array(rect.mu))
    assert np.array_equal(held["DSigma_rect"], dsigma_rect(fresh_rect))

# --------------------------------------------------------------- skew embed


def test_skew_embed_frozen():
    X = skew_embed(Phi(3, 1, [0.2, 0.3]))
    expect = np.array([[0.0, -0.2, -0.3], [0.2, 0.0, 0.0], [0.3, 0.0, 0.0]])
    assert np.array_equal(X, expect)


def test_skew_embed_antisymmetric():
    gen = rng(10)
    for _ in range(50):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, p + 1))
        X = skew_embed(random_phi(gen, p, r))
        assert np.array_equal(X, -X.T)


# ------------------------------------------------------------------ the map


def test_cayley_map_at_zero():
    U = cayley_map(Phi(5, 2, np.zeros(6))).matrix
    assert np.allclose(U, np.eye(5)[:, :2], atol=1e-15)


def test_cayley_map_frozen_half():
    U = cayley_map(Phi(2, 1, [0.5])).matrix
    assert np.allclose(U.ravel(), [0.6, 0.8], atol=1e-15)


def test_cayley_map_orthonormal():
    gen = rng(11)
    for _ in range(50):
        p = int(gen.integers(2, 10))
        r = int(gen.integers(1, min(p, 4) + 1))
        U = cayley_map(random_phi(gen, p, r)).matrix
        assert np.max(np.abs(U.T @ U - np.eye(r))) < 1e-12


def test_cayley_map_top_block_formula():
    # top block equals (I - A^T A)(I + A^T A)^{-1}
    gen = rng(12)
    for _ in range(20):
        phi = random_phi(gen, 6, 2)
        A = phi.A
        U = cayley_map(phi).matrix
        AtA = A.T @ A
        expect = (np.eye(2) - AtA) @ np.linalg.inv(np.eye(2) + AtA)
        assert np.allclose(U[:2, :], expect, atol=1e-12)


def test_cayley_map_bottom_block_formula():
    # bottom block equals 2 A (I + A^T A)^{-1}
    gen = rng(13)
    for _ in range(20):
        phi = random_phi(gen, 6, 2)
        A = phi.A
        U = cayley_map(phi).matrix
        expect = 2.0 * A @ np.linalg.inv(np.eye(2) + A.T @ A)
        assert np.allclose(U[2:, :], expect, atol=1e-12)


def test_cayley_map_square_case():
    U = cayley_map(Phi(3, 3, np.zeros(0))).matrix
    assert np.array_equal(U, np.eye(3))


def _inaccurate_solve(monkeypatch):
    # every np.linalg.solve answer is off by a relative 1e-6, far above the
    # 1e-10 residual the chart solves accept
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: exact(a, b) * (1.0 + 1e-6))


def test_solve_residual_failure_is_typed(monkeypatch):
    _inaccurate_solve(monkeypatch)
    assert issubclass(InaccurateSolve, NumericsError)
    with pytest.raises(InaccurateSolve):
        cayley_map(Phi(4, 2, [0.1, 0.2, -0.1, 0.3]))
    with pytest.raises(InaccurateSolve):
        cayley_jacobian(Phi(4, 2, [0.1, 0.2, -0.1, 0.3]))


def test_stacked_solve_residual_failure_is_typed(monkeypatch):
    _inaccurate_solve(monkeypatch)
    with pytest.raises(InaccurateSolve, match=r"\(I - X\) solve: residual"):
        _frame_of_rows(np.full((5, 3, 2), 0.1))


def test_solve_residual_failure_exits_three(monkeypatch, tmp_path, capsys):
    config = tmp_path / "battery.cfg"
    config.write_text("p=4\nr=2\ndraws=1\nseed=1\n", encoding="utf-8")
    _inaccurate_solve(monkeypatch)
    code = cli_run(
        ["check-bounds", "--config", str(config), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
    assert "numerical failure: (I - X) solve: residual" in capsys.readouterr().err


@given(
    chart_points(),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
    st.booleans(),
)
@example(edge_point(2, 1), [1.0], False)
@example(edge_point(12, 3), [1e-3, 1.0, 1e3], True)
@settings(max_examples=100, deadline=None)
def test_frame_of_a_stack_is_each_block_alone(point, scales, two_axes):
    # a stack over leading axes maps each block with the bits of a 2-D
    # call, on the chart ball and far outside it
    phi, _ = point
    blocks = np.stack([s * phi.A for s in scales])
    if two_axes:
        blocks = np.stack([blocks, -blocks])
    frames = _frame_of_rows(blocks)
    assert frames.shape == blocks.shape[:-2] + (phi.p, phi.r)
    for idx in np.ndindex(blocks.shape[:-2]):
        assert np.array_equal(frames[idx], _frame_of_rows(blocks[idx]))


# ------------------------------------------------------------------ inverse


def test_inverse_at_identity():
    phi = cayley_inverse(np.eye(4)[:, :2])
    assert np.allclose(phi.values, 0.0)


def test_inverse_frozen_half():
    phi = cayley_inverse(np.array([[0.6], [0.8]]))
    assert np.allclose(phi.values, [0.5], atol=1e-15)


def test_round_trips():
    gen = rng(14)
    for _ in range(50):
        p = int(gen.integers(2, 10))
        r = int(gen.integers(1, min(p, 4) + 1))
        phi = random_phi(gen, p, r)
        back = cayley_inverse(cayley_map(phi))
        assert np.max(np.abs(back.values - phi.values), initial=0.0) < 1e-10


def test_frame_round_trip():
    gen = rng(15)
    for _ in range(20):
        phi = random_phi(gen, 7, 3)
        U = cayley_map(phi)
        U2 = cayley_map(cayley_inverse(U)).matrix
        assert np.max(np.abs(U2 - U.matrix)) < 1e-10


def test_inverse_rejects_negative_top_block():
    with pytest.raises(TopBlockNotPD):
        cayley_inverse(np.array([[-0.6], [0.8]]))


def test_inverse_rejects_nonorthonormal():
    with pytest.raises(NotOrthonormal):
        cayley_inverse(np.array([[0.5], [0.5]]))


def test_stiefel_plus_validates():
    with pytest.raises(TopBlockNotPD):
        StiefelPlus(np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 0.0]])[:, :2])


# -------------------------------------------------------------------- gamma


def test_gamma_frozen_2_1():
    G = gamma_matrix(2, 1)
    assert G.shape == (4, 1)
    assert np.array_equal(G.ravel(), [0.0, 1.0, -1.0, 0.0])


def test_gamma_reproduces_skew_embedding():
    gen = rng(16)
    for p, r in [(3, 1), (5, 2), (6, 3), (4, 4)]:
        phi = random_phi(gen, p, r)
        G = gamma_matrix(p, r)
        assert np.allclose(G @ phi.values, vec(skew_embed(phi)), atol=1e-14)


def test_gamma_spectral_norm_sqrt2():
    for p, r in [(2, 1), (5, 2), (8, 3)]:
        s = np.linalg.svd(gamma_matrix(p, r), compute_uv=False)
        assert s[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        # uniform singular values: Gamma^T Gamma = 2 I
        assert s[-1] == pytest.approx(np.sqrt(2.0), abs=1e-12)


# ----------------------------------------------------------------- jacobian


def embed_direction(v, p, r):
    # independent skew embedding for test directions of any magnitude
    A = np.asarray(v, dtype=float).reshape((p - r, r), order="F")
    X = np.zeros((p, p))
    X[r:, :r] = A
    X[:r, r:] = -A.T
    return X


def test_jacobian_at_zero_closed_form():
    p, r = 5, 2
    phi0 = Phi(p, r, np.zeros((p - r) * r))
    DU = cayley_jacobian(phi0)
    for k in range((p - r) * r):
        e = np.zeros((p - r) * r)
        e[k] = 1.0
        X = embed_direction(e, p, r)
        expect = 2.0 * X[:, :r]  # 2 X e_k applied to I_{p x r}
        assert np.allclose(DU[:, k], vec(expect), atol=1e-14)


@given(chart_points())
@example(edge_point(2, 1))
@example(edge_point(4, 3))
@settings(max_examples=60, deadline=None)
def test_jacobian_matches_dense_oracle(point):
    phi, _ = point
    dense = dense_cayley_jacobian(phi)
    got = cayley_jacobian(phi)
    assert got.shape == dense.shape
    assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_jacobian_finite_difference():
    gen = rng(17)
    for _ in range(10):
        p = int(gen.integers(3, 8))
        r = int(gen.integers(1, 3 + 1))
        if r >= p:
            r = p - 1
        phi = random_phi(gen, p, r, max_norm=0.7)
        DU = cayley_jacobian(phi)
        fd = fd_jacobian(
            lambda v: cayley_map(Phi(p, r, v)).matrix.reshape(-1, order="F"),
            phi.values,
        )
        denom = max(np.linalg.norm(DU), 1e-12)
        assert np.linalg.norm(DU - fd) / denom < 1e-6


def test_jacobian_norm_bound():
    gen = rng(18)
    for _ in range(50):
        phi = random_phi(gen, 7, 2, max_norm=0.95)
        s = np.linalg.svd(cayley_jacobian(phi), compute_uv=False)
        assert s[0] <= 2.0 * np.sqrt(2.0) * (1.0 + 1e-9)


def test_jacobian_closed_form_linearization():
    # mat(DU(phi0) delta) = 2 (I-X0)^{-1} (X - X0) (I-X0)^{-1} I_{p x r}
    gen = rng(19)
    p, r = 6, 2
    phi0 = random_phi(gen, p, r, max_norm=0.6)
    delta = 0.3 * gen.normal(size=(p - r) * r)
    X0 = skew_embed(phi0)
    Xd = embed_direction(delta, p, r)
    S0 = np.linalg.inv(np.eye(p) - X0)
    expect = 2.0 * S0 @ Xd @ S0[:, :r]
    got = (cayley_jacobian(phi0) @ delta).reshape((p, r), order="F")
    assert np.allclose(got, expect, atol=1e-12)


# ------------------------------------------------------------- certificates


def test_taylor_certificates_at_zero_delta():
    phi = random_phi(rng(20), 6, 2)
    lip, rem = taylor_certificate_U(phi, phi)
    assert lip.observed == 0.0 and rem.observed == 0.0
    assert lip.passed and rem.passed


def test_taylor_certificates_random_pairs():
    gen = rng(21)
    for _ in range(200):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p - 1, 3) + 1))
        phi0 = random_phi(gen, p, r, max_norm=0.8)
        step = gen.normal(size=(p - r) * r)
        step *= gen.uniform(0.0, 0.3) / max(np.linalg.norm(step), 1e-12)
        try:
            phi = Phi(p, r, phi0.values + step)
        except DomainViolation:
            continue
        lip, rem = taylor_certificate_U(phi, phi0)
        assert lip.passed, f"lipschitz failed: {lip}"
        assert rem.passed, f"remainder failed: {rem}"


def test_taylor_remainder_quadratic_scaling():
    gen = rng(22)
    phi0 = random_phi(gen, 6, 2, max_norm=0.5)
    direction = gen.normal(size=8)
    direction /= np.linalg.norm(direction)
    rems = []
    for t in [1e-2, 5e-3, 2.5e-3]:
        _, rem = taylor_certificate_U(Phi(6, 2, phi0.values + t * direction), phi0)
        rems.append(rem.observed)
    # halving the step should quarter the remainder, within 50% slack
    assert rems[1] < rems[0] / 4 * 1.5
    assert rems[2] < rems[1] / 4 * 1.5


def test_inverse_lipschitz_certificate():
    gen = rng(23)
    for _ in range(200):
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p - 1, 3) + 1))
        U = cayley_map(random_phi(gen, p, r, max_norm=0.85))
        V = cayley_map(random_phi(gen, p, r, max_norm=0.85))
        cert = lipschitz_certificate_A(U, V)
        assert cert.passed, f"failed: {cert}"


def test_certificate_slack_sign():
    phi0 = random_phi(rng(24), 5, 2, max_norm=0.4)
    phi = Phi(5, 2, phi0.values * 0.9)
    lip, rem = taylor_certificate_U(phi, phi0)
    assert lip.slack >= 0.0
    assert rem.slack >= 0.0
