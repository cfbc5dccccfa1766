"""Monte Carlo experiment scaffolding shared by the sbm and bicluster studies.

A study standardizes per-replicate estimation errors against the theoretical
asymptotic covariance, then reports how far the empirical covariance of the
standardized errors is from the identity, per-coordinate 95% interval
coverage, scaled MSE tallies and the exact-recovery rate.  Replicates whose
clustering step is not exactly recovered, or that fail outright (a
NumericsError, such as a fit with no chart point in the true class order),
are counted and excluded from the normality statistics, which condition on
strong consistency.  A bad design never reaches a replicate: the experiment
configs and the study they build raise it first.  run_study is the one
replicate driver of both studies.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericsError
from .rngs import replicate_seed

__all__ = [
    "MonteCarloSummary", "Study", "StudySize", "run_study",
    "sqrt_psd", "invsqrt_pd", "summarize_replicates", "Z_975",
]

# two-sided 95% normal quantile
Z_975 = 1.959963984540054


def sqrt_psd(M):
    """Symmetric PSD square root via eigendecomposition."""
    lam, V = np.linalg.eigh(0.5 * (M + M.T))
    lam = np.clip(lam, 0.0, None)
    return (V * np.sqrt(lam)) @ V.T


def invsqrt_pd(M):
    """Symmetric inverse square root; eigenvalues floored at 1e-12 times
    the top one."""
    lam, V = np.linalg.eigh(0.5 * (M + M.T))
    lam = np.clip(lam, 1e-12 * max(lam[-1], 0.0) + 1e-300, None)
    return (V / np.sqrt(lam)) @ V.T


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregates for one study size, as its CSV summary line prints them.

    fields are the size's row fields ({"n": n} or {"m": m, "n": n}).  The
    normality statistics cover the included replicates only; exact_recovery
    is the fraction of all replicates with aligned_hamming 0.  rows carries
    every replicate's CSV-ready record in replicate order (excluded ones
    included, flagged).
    """

    fields: dict
    replicates: int
    excluded: int
    cov_opnorm_dev_from_I: float = np.nan
    coverage: np.ndarray = field(default=None, repr=False)
    mean_mse_main: float = np.nan
    mean_mse_naive: float = np.nan
    exact_recovery: float = np.nan
    rows: list = field(default_factory=list, repr=False)


def summarize_replicates(fields, d, rows):
    """Build a MonteCarloSummary of one size from per-replicate records.

    Each row is a dict with at least keys 'excluded_flag', 'z' (length-d
    array or None), 'aligned_hamming', 'mse_main', 'mse_naive'.
    """
    included = [
        row for row in rows if not row["excluded_flag"] and row["z"] is not None
    ]
    excluded = len(rows) - len(included)
    if included:
        z = np.vstack([row["z"] for row in included])
        if z.shape[0] > 1:
            zc = z - z.mean(axis=0)
            cov = zc.T @ zc / (z.shape[0] - 1)
            dev = float(np.linalg.norm(cov - np.eye(d), 2))
        else:
            dev = np.nan
        coverage = np.mean(np.abs(z) <= Z_975, axis=0)
        mse_main = float(np.mean([row["mse_main"] for row in included]))
        mse_naive = float(np.mean([row["mse_naive"] for row in included]))
    else:
        dev = np.nan
        coverage = np.full(d, np.nan)
        mse_main = np.nan
        mse_naive = np.nan
    recovery = (
        float(np.mean([row["aligned_hamming"] == 0 for row in rows]))
        if rows
        else np.nan
    )
    return MonteCarloSummary(
        fields=fields,
        replicates=len(rows),
        excluded=excluded,
        cov_opnorm_dev_from_I=dev,
        coverage=coverage,
        mean_mse_main=mse_main,
        mean_mse_naive=mse_naive,
        exact_recovery=recovery,
        rows=list(rows),
    )


@dataclass(frozen=True)
class StudySize:
    """One data size: its row fields ({"n": n} or {"m": m, "n": n}), the z
    scale, mse(Sigma), the scaled squared error to the truth, sample(seed),
    which draws a data set from the truth model, and replicate(data, seed,
    row), which records aligned_hamming and mse_naive in row as soon as
    each is known and returns the estimated chart point."""

    fields: dict
    scale: float
    mse: Callable
    sample: Callable
    replicate: Callable


@dataclass(frozen=True)
class Study:
    """True chart point, standardizer W (z = scale W (theta_hat - theta0)),
    chart-to-matrix map, and one StudySize per data size."""

    theta0: object
    standardizer: np.ndarray = field(repr=False)
    sigma_of_theta: Callable
    sizes: tuple


def run_study(study, replicates, base_seed):
    """Run and summarize every size of a study.

    Replicate i of every size uses seed base_seed + i.  A replicate is
    excluded when its labels are not exactly recovered or it raises a
    NumericsError; a failed row keeps the fields recorded before the
    failure.
    """
    theta0_vec = study.theta0.as_vector()
    summaries = []
    for size in study.sizes:
        rows = []
        for i in range(replicates):
            row = {
                "replicate": i,
                **size.fields,
                "aligned_hamming": -1,
                "excluded_flag": 1,
                "z": None,
                "mse_main": np.nan,
                "mse_naive": np.nan,
            }
            seed = replicate_seed(base_seed, i)
            try:
                # data stays referenced until the next draw replaces it, so
                # the allocator reuses its pages instead of trimming the heap
                # and faulting them in again (about 10% of a bicluster run)
                data = size.sample(seed)
                theta_hat = size.replicate(data, seed, row)
                delta = theta_hat.as_vector() - theta0_vec
                row["z"] = size.scale * (study.standardizer @ delta)
                row["mse_main"] = size.mse(study.sigma_of_theta(theta_hat))
                row["excluded_flag"] = int(row["aligned_hamming"] > 0)
            except NumericsError:
                pass  # stays excluded, with the fields recorded so far
            rows.append(row)
        summaries.append(summarize_replicates(size.fields, study.theta0.d, rows))
    return summaries
