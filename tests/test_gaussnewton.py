"""The least-squares chart fits, fit_sym and fit_rect.

Each returns the chart point of the rank-r truncation of its target.  The
oracle: the gradient J^T res of the least-squares objective vanishes at the
returned point, and the fit is no farther from the target than the truth.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowrank_rep.errors import NumericsError
from lowrank_rep.gaussnewton import fit_rect, fit_sym
from lowrank_rep.matkit import vec
from lowrank_rep.rectrep import dsigma_rect, sigma_of_theta_rect
from lowrank_rep.symrep import dsigma, sigma_of_theta

from helpers import random_theta_rect, random_theta_sym, rng

GRAD_TOL = 1e-10


def fit_or_none(fit, target, r):
    # a truncation with no chart point in the target's class order raises
    try:
        return fit(target, r)
    except NumericsError:
        return None


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
    out = fit_or_none(fit_sym, target, r)
    assume(out is not None)
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
    out = fit_or_none(fit_rect, target, r)
    assume(out is not None)
    res = vec(target - sigma_of_theta_rect(out))
    assert np.linalg.norm(dsigma_rect(out).T @ res) <= GRAD_TOL
    ref = np.linalg.norm(target - sigma_of_theta_rect(truth))
    assert np.linalg.norm(res) <= ref * (1 + 1e-12) + 1e-14
