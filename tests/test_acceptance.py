"""Acceptance suite: one test, one printed verdict line, per shipped claim.

The gates and their tolerances:
 1. closed-form certificate battery, 200 seeded instances per bound at
    p <= 10, r <= 3, zero failures at multiplicative slack 1 + 1e-9, < 30 s
 2. analytic Jacobians match central differences at rel err <= 1e-6,
    50 points per representation, < 10 s
 3. representation round trips theta -> Sigma -> theta at rel err <= 1e-8,
    100 instances per representation
 4. commutation / duplication identities exact (or <= 1e-12 for the
    pseudoinverse form) at every p, q, r <= 6
 5. block model one-step study (K=3, r=2, n=1200, 500 replicates):
    ||cov(z) - I||_2 <= 0.15 and per-coordinate 95% coverage in [0.92, 0.975]
 6. rank-deficient refit beats the naive block means: one-sided paired t
    at level 0.01 on n * ||Sigma_hat - Sigma0||_F^2; full-rank control case
    equal within 5%
 7. biclustering study (3x3 blocks, r=2, m=n=800, 500 replicates): the
    criterion-5 gates plus exact co-clustering recovery >= 95%
 8. spiked covariance: Fisher PD on 100 models, posterior weights
    normalized to 1 +/- 1e-12, LAN remainder medians strictly decreasing
    in n, sin-theta tail fraction strictly decreasing in n
 9. reruns with identical config and seed are byte-identical
"""

import math
import time

import numpy as np
from scipy import stats

from lowrank_rep.bicluster import BiclusterExperimentConfig, bicluster_experiment
from lowrank_rep.cayley import Phi, GateNotMet, cayley_jacobian, cayley_map
from lowrank_rep.cli import _battery_instance, run as cli_run
from lowrank_rep.matkit import commutation_matrix, duplication_matrix, duplication_pinv, vec, vech
from lowrank_rep.rngs import substream
from lowrank_rep.sbm import SbmExperimentConfig, sbm_experiment
from lowrank_rep.spiked import (
    SpikedModel,
    fisher_spiked,
    lan_remainder_study,
    limit_posterior,
    sample_data,
    sin_theta_tail_study,
)
from lowrank_rep.symrep import ThetaSym, dsigma, sigma_of_theta, theta_of_sigma
from lowrank_rep.rectrep import (
    ThetaRect,
    dsigma_rect,
    sigma_of_theta_rect,
    theta_of_sigma_rect,
)

from helpers import (
    random_phi,
    random_theta_rect,
    random_theta_sym,
    fd_jacobian,
    rel_err,
    rng,
)

# committed study truths; entries chosen so spectral clustering recovers
# the classes essentially always at the study sizes
SBM_SIGMA = np.array([[0.8, 0.1], [0.1, 0.7], [0.45, 0.55]])
SBM_SIGMA = SBM_SIGMA @ SBM_SIGMA.T
RANK1_SIGMA = np.outer([0.5, 0.7], [0.5, 0.7])
FULLRANK_SIGMA = np.array([[0.6, 0.3], [0.3, 0.5]])
BIC_SIGMA = np.outer([1.0, 2.0, 3.0], [1.0, 0.5, 2.0]) + np.outer(
    [2.0, -1.0, 1.0], [0.5, 2.0, -1.0]
)


def spiked_theta0():
    A0 = np.zeros((6, 2))
    A0[1] = (0.42, -0.21)
    A0[4] = (0.18, 0.33)
    M0 = np.array([[2.2, 0.4], [0.4, 1.6]])
    return ThetaSym(Phi(8, 2, A0.ravel(order="F")), vech(M0))


def test_criterion_1_certificate_battery():
    """200 instances per closed-form bound, 100% pass at 1 + 1e-9."""
    t0 = time.monotonic()
    per_label = {}
    for i in range(200):
        for cert in _battery_instance(substream(2026, i), 10, 3):
            tally = per_label.setdefault(cert.label, [0, 0, 0])
            if isinstance(cert, GateNotMet):
                tally[1] += 1
            elif cert.passed:
                tally[0] += 1
            else:
                tally[2] += 1
    elapsed = time.monotonic() - t0
    assert len(per_label) == 12
    for label, (passed, gated, failed) in sorted(per_label.items()):
        assert failed == 0, f"{label}: {failed} certificate failures"
        assert passed + gated == 200, f"{label}: wrong instance count"
        assert passed > 0, f"{label}: never applicable"
    assert elapsed < 30.0
    total = sum(sum(t) for t in per_label.values())
    print(f"criterion 1: PASS ({total} checks, 0 failures, {elapsed:.1f}s)")


def test_criterion_2_jacobians_match_finite_differences():
    """DU and DSigma (sym, rect) vs central differences, rel <= 1e-6."""
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        gen = rng(3000 + i)
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(3, p - 1) + 1))

        phi = random_phi(gen, p, r)
        fd = fd_jacobian(
            lambda v: cayley_map(Phi(p, r, v)).matrix.ravel(order="F"),
            phi.values,
        )
        worst = max(worst, rel_err(fd, cayley_jacobian(phi)))

        theta = random_theta_sym(gen, p, r)
        fd = fd_jacobian(
            lambda v: sigma_of_theta(ThetaSym.from_vector(p, r, v)).ravel(order="F"),
            theta.as_vector(),
        )
        worst = max(worst, rel_err(fd, dsigma(theta)))

        p1 = int(gen.integers(r, 9))
        rect = random_theta_rect(gen, p1, p, r)
        fd = fd_jacobian(
            lambda v: sigma_of_theta_rect(
                ThetaRect.from_vector(p1, p, r, v)
            ).ravel(order="F"),
            rect.as_vector(),
        )
        worst = max(worst, rel_err(fd, dsigma_rect(rect)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"criterion 2: PASS (worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_round_trips():
    """theta -> Sigma -> theta at rel err <= 1e-8, 100 instances each."""
    worst = 0.0
    for i in range(100):
        gen = rng(4000 + i)
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(3, p) + 1))
        theta = random_theta_sym(gen, p, r)
        back = theta_of_sigma(sigma_of_theta(theta), r)
        worst = max(worst, rel_err(back.as_vector(), theta.as_vector()))

        p2 = int(gen.integers(max(r, 2), 9))
        p1 = int(gen.integers(r, 9))
        rect = random_theta_rect(gen, p1, p2, r)
        back = theta_of_sigma_rect(sigma_of_theta_rect(rect), r)
        worst = max(worst, rel_err(back.as_vector(), rect.as_vector()))
    assert worst <= 1e-8
    print(f"criterion 3: PASS (worst rel err {worst:.2e})")


def test_criterion_4_matrix_calculus_identities():
    """Commutation and duplication identities at every p, q, r <= 6."""
    gen = rng(7)
    for p in range(1, 7):
        for q in range(1, 7):
            M = gen.normal(size=(p, q))
            K = commutation_matrix(p, q)
            assert np.array_equal(K @ vec(M), vec(M.T))
    for r in range(1, 7):
        S = gen.normal(size=(r, r))
        S = S + S.T
        assert np.array_equal(duplication_matrix(r) @ vech(S), vec(S))
    worst = 0.0
    for p in range(1, 7):
        D = duplication_matrix(p)
        lhs = D @ duplication_pinv(p)
        rhs = 0.5 * (np.eye(p * p) + commutation_matrix(p, p))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12
    print(f"criterion 4: PASS (pseudoinverse identity within {worst:.2e})")


def test_criterion_5_sbm_normality_surrogate():
    """K=3, r=2, n=1200, 500 replicates at the committed base seed."""
    t0 = time.monotonic()
    config = SbmExperimentConfig(SBM_SIGMA, r=2, n_values=(1200,), replicates=500)
    (summary,) = sbm_experiment(config, base_seed=0)
    elapsed = time.monotonic() - t0
    dev = summary.cov_opnorm_dev_from_I
    cmin = float(np.min(summary.coverage))
    cmax = float(np.max(summary.coverage))
    assert dev <= 0.15, f"covariance deviation {dev:.4f} > 0.15"
    assert cmin >= 0.92 and cmax <= 0.975, f"coverage [{cmin}, {cmax}]"
    assert elapsed < 600.0
    print(
        f"criterion 5: PASS (dev {dev:.4f} <= 0.15, coverage "
        f"[{cmin:.3f}, {cmax:.3f}] in [0.92, 0.975], {elapsed:.0f}s)"
    )


def test_criterion_6_rank_deficient_efficiency_gain():
    """Refit MSE beats naive block means; full-rank control ties within 5%."""
    config = SbmExperimentConfig(RANK1_SIGMA, r=1, n_values=(1200,), replicates=500)
    (summary,) = sbm_experiment(config, base_seed=0)
    kept = [row for row in summary.rows if not row["excluded_flag"]]
    refit = np.array([row["mse_main"] for row in kept])
    naive = np.array([row["mse_naive"] for row in kept])
    test = stats.ttest_rel(refit, naive, alternative="less")
    assert refit.mean() < naive.mean()
    assert test.pvalue < 0.01, f"paired t p-value {test.pvalue:.3g}"

    control = SbmExperimentConfig(
        FULLRANK_SIGMA, r=2, n_values=(1200,), replicates=500
    )
    (csum,) = sbm_experiment(control, base_seed=0)
    ratio = csum.mean_mse_main / csum.mean_mse_naive
    assert abs(ratio - 1.0) <= 0.05, f"full-rank control ratio {ratio:.4f}"
    print(
        f"criterion 6: PASS (refit {refit.mean():.4f} < naive {naive.mean():.4f}, "
        f"p {test.pvalue:.2g} < 0.01; control ratio {ratio:.4f})"
    )


def test_criterion_7_bicluster_normality_surrogate():
    """3x3 blocks, r=2, m=n=800, 500 replicates at the committed base seed."""
    t0 = time.monotonic()
    config = BiclusterExperimentConfig(
        BIC_SIGMA, r=2, sizes=((800, 800),), replicates=500, sigma2=1.0
    )
    (summary,) = bicluster_experiment(config, base_seed=1230)
    elapsed = time.monotonic() - t0
    dev = summary.cov_opnorm_dev_from_I
    cmin = float(np.min(summary.coverage))
    cmax = float(np.max(summary.coverage))
    recovery = float(np.mean([row["aligned_hamming"] == 0 for row in summary.rows]))
    assert dev <= 0.15, f"covariance deviation {dev:.4f} > 0.15"
    assert cmin >= 0.92 and cmax <= 0.975, f"coverage [{cmin}, {cmax}]"
    assert recovery >= 0.95, f"exact recovery {recovery:.3f} < 0.95"
    assert elapsed < 600.0
    print(
        f"criterion 7: PASS (dev {dev:.4f} <= 0.15, coverage "
        f"[{cmin:.3f}, {cmax:.3f}], recovery {recovery:.3f} >= 0.95, {elapsed:.0f}s)"
    )


def test_criterion_8_spiked_covariance_surrogates():
    """Fisher PD, weight normalization, LAN decay, sin-theta tail decay."""
    for i in range(100):
        gen = rng(5000 + i)
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(3, p) + 1))
        theta = random_theta_sym(gen, p, r, pd=True)
        lam_min = float(np.linalg.eigvalsh(fisher_spiked(theta))[0])
        assert lam_min > 0.0, f"Fisher not PD at instance {i}"

    worst_norm = 0.0
    for seed in range(3):
        gen = rng(1000 + seed)
        A = np.zeros((7, 1))
        A[2, 0] = gen.uniform(0.3, 0.6)
        A[5, 0] = -gen.uniform(0.2, 0.5)
        theta = ThetaSym(Phi(8, 1, A.ravel(order="F")), [gen.uniform(1.0, 3.0)])
        model = SpikedModel(theta, 300, (2, 5))
        lp = limit_posterior(sample_data(model.theta0, 300, 40 + seed), model, cap=3)
        worst_norm = max(
            worst_norm, abs(sum(c.weight for c in lp.components) - 1.0)
        )
    assert worst_norm <= 1e-12

    medians = lan_remainder_study(spiked_theta0(), [100, 400, 1600], 60, 909)
    assert medians[0] > medians[1] > medians[2], f"LAN medians {medians}"

    model = SpikedModel(spiked_theta0(), 200, (1, 4))
    fractions = sin_theta_tail_study(
        model, [200, 800, 3200], 1.2, cap=3,
        draws_per_dataset=400, datasets=12, base_seed=505,
    )
    assert fractions[0] > fractions[1] > fractions[2], f"tail {fractions}"
    print(
        f"criterion 8: PASS (Fisher PD x100, weight sums within {worst_norm:.1e}, "
        f"LAN medians {[round(m, 4) for m in medians]} decreasing, "
        f"tail fractions {[round(f, 4) for f in fractions]} decreasing)"
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    """Same config and seed twice: output files agree byte for byte."""
    cfg = tmp_path / "sbm.cfg"
    cfg.write_text(
        "K=3\nSigma0=0.65,0.15,0.415,0.15,0.5,0.43,0.415,0.43,0.505\n"
        "r=2\nn_values=300\nreplicates=4\nseed=17\n",
        encoding="utf-8",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_run(["sbm-sim", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_run(["sbm-sim", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    bat = tmp_path / "battery.cfg"
    bat.write_text("p=6\nr=2\ndraws=8\nseed=29\n", encoding="utf-8")
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_run(["check-bounds", "--config", str(bat), "--out", str(c)]) == 0
    assert cli_run(["check-bounds", "--config", str(bat), "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    print("criterion 9: PASS (sbm-sim and check-bounds reruns byte-identical)")
