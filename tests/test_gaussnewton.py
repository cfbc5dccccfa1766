"""Least-squares chart fits in closed form, and the ordering fallback.

project_to_manifold and lse_theta return the chart point of the rank-r
truncation.  Two oracles check them: the gradient J^T res of the
least-squares objective vanishes at the returned point, and the prefix scan
of gaussnewton.first_admissible picks the same class ordering as a full
enumeration of all k! orderings.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowrank_rep.bicluster import lse_theta
from lowrank_rep.errors import NumericsError, ProjectionFailed
from lowrank_rep.gaussnewton import first_admissible
from lowrank_rep.matkit import vec
from lowrank_rep.rectrep import dsigma_rect, sigma_of_theta_rect, theta_of_sigma_rect
from lowrank_rep.sbm import project_to_manifold
from lowrank_rep.symrep import dsigma, sigma_of_theta, theta_of_sigma

from helpers import random_theta_rect, random_theta_sym, rng

GRAD_TOL = 1e-10


def sym_truncation(T, r):
    lam, V = np.linalg.eigh(0.5 * (T + T.T))
    keep = np.argsort(-np.abs(lam), kind="stable")[:r]
    return (V[:, keep] * lam[keep]) @ V[:, keep].T


def svd_truncation(T, r):
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    return (U[:, :r] * s[:r]) @ Vt[:r]


def admits_identity_order(chart_point):
    try:
        chart_point()
    except NumericsError:
        return False
    return True


# ---- stationarity: the truncation's chart point is the least-squares fit ----


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    r_frac=st.floats(0.0, 1.0),
    noise=st.floats(1e-3, 0.5),
)
@settings(max_examples=150, deadline=None)
def test_project_is_stationary_and_beats_truth(seed, k, r_frac, noise):
    gen = rng(seed)
    r = 1 + int(r_frac * (k - 1))
    truth = random_theta_sym(gen, k, r)
    E = gen.normal(size=(k, k))
    target = sigma_of_theta(truth) + noise * 0.5 * (E + E.T)
    # a target whose truncation needs a class reordering is fitted permuted
    assume(
        admits_identity_order(lambda: theta_of_sigma(sym_truncation(target, r), r))
    )
    out = project_to_manifold(target, r)
    res = vec(target - sigma_of_theta(out))
    assert np.linalg.norm(dsigma(out).T @ res) <= GRAD_TOL
    ref = np.linalg.norm(target - sigma_of_theta(truth))
    assert np.linalg.norm(res) <= ref * (1 + 1e-12) + 1e-14


@given(
    seed=st.integers(0, 2**32 - 1),
    p1=st.integers(1, 5),
    p2=st.integers(1, 5),
    r_frac=st.floats(0.0, 1.0),
    noise=st.floats(1e-3, 0.5),
)
@settings(max_examples=150, deadline=None)
def test_lse_is_stationary_and_beats_truth(seed, p1, p2, r_frac, noise):
    gen = rng(seed)
    r = 1 + int(r_frac * (min(p1, p2) - 1))
    truth = random_theta_rect(gen, p1, p2, r)
    target = sigma_of_theta_rect(truth) + noise * gen.normal(size=(p1, p2))
    assume(
        admits_identity_order(
            lambda: theta_of_sigma_rect(svd_truncation(target, r), r)
        )
    )
    out = lse_theta(target, r)
    res = vec(target - sigma_of_theta_rect(out))
    assert np.linalg.norm(dsigma_rect(out).T @ res) <= GRAD_TOL
    ref = np.linalg.norm(target - sigma_of_theta_rect(truth))
    assert np.linalg.norm(res) <= ref * (1 + 1e-12) + 1e-14


# ---- ordering fallback: prefix scan against full enumeration ----


def enumerate_first(k, chart_point):
    """First of all k! orderings, lexicographically, with a chart point."""
    for perm in permutations(range(k)):
        idx = np.array(perm, dtype=np.int64)
        try:
            return chart_point(idx), idx
        except NumericsError:
            continue
    return None, None


def fallback_target(gen, k, rank, zero_rows, square):
    """k x k (symmetric if square) or 3 x k target of the given rank with
    zero_rows classes emptied (zero rows and columns, or zero columns)."""
    rows = k if square else 3
    L = gen.normal(size=(rows, rank))
    R = gen.normal(size=(k, rank))
    T = L @ np.diag(gen.choice([-1.0, 1.0], size=rank)) @ L.T if square else L @ R.T
    empty = gen.choice(k, size=zero_rows, replace=False)
    T[:, empty] = 0.0
    if square:
        T[empty, :] = 0.0
    return T


@pytest.mark.parametrize("square", [True, False], ids=["project", "lse"])
def test_prefix_scan_matches_full_enumeration(square):
    gen = rng(90 if square else 91)
    fallbacks = failures = 0
    for _ in range(120):
        k = int(gen.integers(2, 7))
        r = int(gen.integers(1, min(k, 3) + 1))
        rank = int(gen.integers(max(r - 1, 1), min(k, r + 1) + 1))
        T = fallback_target(gen, k, rank, int(gen.integers(0, k)), square)
        if square:
            fit = project_to_manifold

            def chart_point(idx):
                return theta_of_sigma(sym_truncation(T[np.ix_(idx, idx)], r), r)
        else:
            fit, trunc = lse_theta, svd_truncation(T, r)

            def chart_point(idx):
                return theta_of_sigma_rect(trunc[:, idx], r)

        want, want_idx = enumerate_first(k, chart_point)
        if want is None:
            failures += 1
            with pytest.raises(ProjectionFailed):
                first_admissible(k, r, chart_point)
            with pytest.raises(ProjectionFailed):
                fit(T, r)
            continue
        got, idx = first_admissible(k, r, chart_point)
        assert np.array_equal(idx, want_idx), (T, r)
        assert np.array_equal(got.as_vector(), want.as_vector())
        assert np.array_equal(fit(T, r).as_vector(), want.as_vector())
        fallbacks += int(not np.array_equal(idx, np.arange(k)))
    # the instances exercise both the fallback and the failure
    assert fallbacks >= 10 and failures >= 10


def test_first_admissible_lists_prefixes_then_ascending_rest():
    seen = []

    def chart_point(idx):
        seen.append(idx.tolist())
        raise ProjectionFailed("never admissible")

    with pytest.raises(ProjectionFailed):
        first_admissible(4, 2, chart_point)
    assert len(seen) == 12
    assert seen[:4] == [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2], [1, 0, 2, 3]]
    assert seen[-1] == [3, 2, 0, 1]


def test_first_admissible_propagates_other_errors():
    def chart_point(idx):
        raise TypeError("a bug, not an inadmissible ordering")

    with pytest.raises(TypeError, match="a bug"):
        first_admissible(3, 1, chart_point)
