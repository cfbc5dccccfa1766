"""End-to-end tests of the command line front end.

Every test but the bad-value table and the zero-gamma case shells out to
`python3 -m lowrank_rep.cli` the way a user would, so argument handling, exit
codes, and the CSV contract are all exercised through the real entry point.
Those two call `cli.run` in-process, so that an exception escaping it fails
the test rather than showing up as exit status 1, the status of a failed
gate.  A RuntimeWarning raised in this process fails the test that raised
it.
"""

import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lowrank_rep
from lowrank_rep import cayley, cli
from lowrank_rep.rngs import substream
from lowrank_rep.spiked import SupportSet

from helpers import selector

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# the child imports the same package as this process, installed or not
PACKAGE_ROOT = str(Path(lowrank_rep.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lowrank_rep.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    """Split output into (header, data rows, comment lines)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, data, comments


SBM_CFG = """
K=3
Sigma0=0.65,0.15,0.415,0.15,0.5,0.43,0.415,0.43,0.505
r=2
n_values=300
replicates={reps}
seed=4
"""

SPIKED_CFG = """
p=6
r=1
A0=0,0.4,0,-0.3,0
mu=2.0
n=400
cap=3
seed=9
"""


# ---- argument and config validation ----


def test_missing_config_flag_exits_two():
    out = run_cli("check-bounds")
    assert out.returncode == 2


def test_unknown_kind_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=5\n")
    out = run_cli("frobnicate", "--config", cfg)
    assert out.returncode == 2


def test_missing_config_file_exits_two(tmp_path):
    out = run_cli("check-bounds", "--config", str(tmp_path / "absent.cfg"))
    assert out.returncode == 2
    assert "config error" in out.stderr


def test_unknown_key_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=5\nr=2\nbogus=1\n")
    out = run_cli("check-bounds", "--config", cfg)
    assert out.returncode == 2
    assert "bogus" in out.stderr


def test_non_integer_value_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=abc\n")
    out = run_cli("check-bounds", "--config", cfg)
    assert out.returncode == 2


def test_duplicate_key_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=5\np=6\n")
    out = run_cli("check-bounds", "--config", cfg)
    assert out.returncode == 2


def test_malformed_line_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "just words\n")
    out = run_cli("check-bounds", "--config", cfg)
    assert out.returncode == 2


def test_comments_and_blanks_ignored(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        "# full battery, small\n\np=4  # max dimension\nr=2\ndraws=3\nseed=1\n",
    )
    out_csv = tmp_path / "b.csv"
    out = run_cli("check-bounds", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    assert out_csv.exists()


# ---- check-bounds ----


def test_check_bounds_small_battery(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=5\nr=2\ndraws=12\nseed=3\n")
    out_csv = tmp_path / "battery.csv"
    out = run_cli("check-bounds", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    header, data, comments = read_csv(out_csv)
    assert header == ["instance", "label", "status", "observed", "bound"]
    assert all(row[2] in ("pass", "gated") for row in data)
    # every certificate family shows up in the sweep
    labels = {row[1] for row in data}
    assert "cayley_taylor_remainder_U" in labels
    assert "sym_taylor_remainder" in labels
    assert "rect_taylor_remainder" in labels
    assert "dsigma_phi_sigma_min_lower" in labels
    assert any("failed=0" in ln for ln in comments)


def test_check_bounds_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=5\nr=2\ndraws=6\nseed=11\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("check-bounds", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("check-bounds", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_bounds_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=5\nr=2\ndraws=6\nseed=11\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("check-bounds", "--config", cfg, "--out", str(a))
    run_cli("check-bounds", "--config", cfg, "--seed", "12", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()
    # the summary comment reports the effective seed
    _, _, comments = read_csv(b)
    assert any("seed=12" in ln for ln in comments)


def test_check_bounds_r_must_stay_below_p(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=3\nr=3\ndraws=2\n")
    assert run_cli("check-bounds", "--config", cfg).returncode == 2


def test_battery_instance_maps_each_chart_point_once(monkeypatch):
    # an instance has two distinct chart points, phi and phi0, and needs
    # DU only at phi0; every certificate reads the quantities they keep
    calls = Counter()
    for name in ("_frame_factor", "_jacobian_columns"):
        original = getattr(cayley, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cayley, name, counted)
    for i in range(5):
        calls.clear()
        cli._battery_instance(substream(0, i), 10, 3)
        assert calls == {"_frame_factor": 2, "_jacobian_columns": 1}


# ---- sbm-sim ----


def test_sbm_zero_replicates_header_only(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SBM_CFG.format(reps=0))
    out_csv = tmp_path / "sbm.csv"
    out = run_cli("sbm-sim", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    text = out_csv.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("replicate,n,aligned_hamming,excluded_flag,z_1")
    assert text.endswith("\n")


def test_sbm_small_run_schema(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SBM_CFG.format(reps=3))
    out_csv = tmp_path / "sbm.csv"
    out = run_cli("sbm-sim", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    header, data, comments = read_csv(out_csv)
    d = 5  # (3 - 2) * 2 + 3 free core entries
    assert header == (
        ["replicate", "n", "aligned_hamming", "excluded_flag"]
        + [f"z_{j + 1}" for j in range(d)]
        + ["mse_onestep", "mse_naive"]
    )
    assert [row[0] for row in data] == ["0", "1", "2"]
    for row in data:
        assert row[1] == "300"
        float(row[-1])  # parseable throughout
    assert any("mean_mse_onestep=" in ln for ln in comments)
    assert any("cov_opnorm_dev_from_I=" in ln for ln in comments)


def test_sbm_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SBM_CFG.format(reps=3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sbm-sim", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("sbm-sim", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_sbm_impossible_gate_exits_one(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg", SBM_CFG.format(reps=2) + "max_cov_dev=0.0\n"
    )
    out = run_cli("sbm-sim", "--config", cfg, "--out", str(tmp_path / "s.csv"))
    assert out.returncode == 1
    assert "gate failed" in out.stderr


def test_sbm_sigma0_wrong_length_exits_two(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        "K=3\nSigma0=0.5,0.5\nr=2\nn_values=100\nreplicates=1\n",
    )
    assert run_cli("sbm-sim", "--config", cfg).returncode == 2


def test_sbm_rank_deficient_sigma0_exits_two(tmp_path):
    # a full-rank matrix declared as rank 1 is a configuration problem
    cfg = write_config(
        tmp_path / "c.cfg",
        "K=2\nSigma0=0.6,0.3,0.3,0.5\nr=1\nn_values=100\nreplicates=1\n",
    )
    out = run_cli("sbm-sim", "--config", cfg)
    assert out.returncode == 2
    assert "config error" in out.stderr


# ---- bicluster-sim ----


BIC_CFG = """
p1=3
p2=3
Sigma0=2,4.5,0,1.5,-1,5,3.5,3.5,5
r=2
sizes=120x100
replicates={reps}
sigma2=0.25
seed=6
"""


def test_bicluster_zero_replicates_header_only(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", BIC_CFG.format(reps=0))
    out_csv = tmp_path / "b.csv"
    out = run_cli("bicluster-sim", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("replicate,m,n,aligned_hamming")


def test_bicluster_small_run_schema(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", BIC_CFG.format(reps=2))
    out_csv = tmp_path / "b.csv"
    out = run_cli("bicluster-sim", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    header, data, comments = read_csv(out_csv)
    d = 8  # (3 - 2) * 2 + 3 * 2 rectangular core entries
    assert header == (
        ["replicate", "m", "n", "aligned_hamming", "excluded_flag"]
        + [f"z_{j + 1}" for j in range(d)]
        + ["mse_lse", "mse_naive"]
    )
    assert len(data) == 2
    assert data[0][1] == "120" and data[0][2] == "100"
    assert any("exact_recovery=" in ln for ln in comments)


def test_bicluster_bad_sizes_token_exits_two(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg", BIC_CFG.format(reps=1).replace("120x100", "120,100")
    )
    assert run_cli("bicluster-sim", "--config", cfg).returncode == 2


def test_bicluster_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", BIC_CFG.format(reps=2))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("bicluster-sim", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("bicluster-sim", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


# ---- spiked-limit-posterior ----


def test_spiked_component_table(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SPIKED_CFG)
    out_csv = tmp_path / "lp.csv"
    out = run_cli("spiked-limit-posterior", "--config", cfg, "--out", str(out_csv))
    assert out.returncode == 0
    header, data, comments = read_csv(out_csv)
    d = 6  # (6 - 1) * 1 + 1
    assert header == ["component", "support", "size", "weight"] + [
        f"mean_{j + 1}" for j in range(d)
    ]
    # supersets of the true support {1, 3} up to size 3: itself plus one
    # extra row from the other three
    assert len(data) == 4
    weights = np.array([float(row[3]) for row in data])
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert (weights >= 0).all()
    sizes = [int(row[2]) for row in data]
    assert sizes == sorted(sizes)
    # the true support (rows 1 and 3 of A0) appears and is flagged on top
    assert any(row[1] == "1;3" for row in data)
    assert any("support0=1;3" in ln for ln in comments)
    assert any("weight_sum=" in ln for ln in comments)


def test_spiked_rerun_and_seed_override(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SPIKED_CFG)
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli("spiked-limit-posterior", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("spiked-limit-posterior", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    run_cli("spiked-limit-posterior", "--config", cfg, "--seed", "10", "--out", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_spiked_unreachable_weight_gate_exits_one(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SPIKED_CFG + "min_support0_weight=1.1\n")
    out = run_cli("spiked-limit-posterior", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert out.returncode == 1
    assert "gate failed" in out.stderr


def test_spiked_support_missing_active_row_exits_two(tmp_path):
    # A0 has a nonzero row outside the declared support
    cfg = write_config(tmp_path / "c.cfg", SPIKED_CFG + "support=1\n")
    out = run_cli("spiked-limit-posterior", "--config", cfg)
    assert out.returncode == 2


def test_spiked_cap_below_support_size_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SPIKED_CFG.replace("cap=3", "cap=1"))
    assert run_cli("spiked-limit-posterior", "--config", cfg).returncode == 2


def test_spiked_enumeration_blowup_exits_three(tmp_path):
    zeros = ",".join(["0"] * 39)
    cfg = write_config(
        tmp_path / "c.cfg", f"p=40\nr=1\nA0={zeros}\nmu=2.0\nn=100\nseed=1\n"
    )
    out = run_cli("spiked-limit-posterior", "--config", cfg)
    assert out.returncode == 3
    assert "numerical failure" in out.stderr


def test_spiked_zero_gamma_exits_two(tmp_path, capsys):
    # p=16, r=3, one active row, cap=12: no Laplace draw of a support of
    # size 10 lies inside the unit ball, so gamma(10) is 0 and the weight of
    # such a support has no logarithm
    A0 = np.zeros((13, 3))
    A0[1] = (0.3, 0.1, 0.2)
    text = (
        f"p=16\nr=3\nA0={','.join(map(repr, A0.ravel().tolist()))}\n"
        "mu=2,0,0,2,0,2\nn=200\ncap=12\n"
    )
    cfg = write_config(tmp_path / "c.cfg", text)
    out_csv = tmp_path / "lp.csv"
    argv = ["spiked-limit-posterior", "--config", cfg, "--out", str(out_csv)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    for part in ("|S|=10", "r=3", "GAMMA_DRAWS", "lower cap"):
        assert part in err
    assert not out_csv.exists()


_MEAN_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1.7e308]
    ),
)


@st.composite
def scattered_components(draw):
    """(center, supports): a center of one (p, r), r in 1..3, and up to
    four supports."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r + 1, 9))
    d = (p - r) * r + r * (r + 1) // 2
    center = np.array(draw(st.lists(_MEAN_ENTRIES, min_size=d, max_size=d)))
    supports = [
        SupportSet(p, r, tuple(draw(st.sets(st.integers(0, p - r - 1)))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return center, supports


@given(scattered_components())
# a -0.0 at every column: each must print as 0, as in the selector product
@example(
    (np.array([-0.0, -0.0, -0.0]), [SupportSet(3, 1, (1,)), SupportSet(3, 1, ())])
)
@settings(max_examples=200, deadline=None)
def test_scattered_means_match_selector_product(case):
    # each row's cells, joined from the center's cells as the spiked job
    # formats them, are the bytes of the selector times the support mean
    center, supports = case
    for S, cells in zip(supports, cli._mean_cells(center, supports), strict=True):
        dense = selector(S) @ center[S.columns]
        assert cells == ",".join("%.17g" % v for v in dense)
        assert "-0" not in cells.split(",")


# the layers perfbench/tracer.py reads from sys.modules when it traces a run
LAYERS = (
    "rngs",
    "matkit",
    "cayley",
    "symrep",
    "rectrep",
    "cluster",
    "sbm",
    "gaussnewton",
    "bicluster",
    "mc",
    "spiked",
    "cli",
)

START_UP_PROBE = """
import sys
import lowrank_rep.cli as cli

def scipy_loaded():
    return [m for m in ("scipy.special", "scipy.sparse", "scipy.linalg") if m in sys.modules]

print(scipy_loaded())
bounds, spiked, out = sys.argv[1:]
for kind, cfg in (("check-bounds", bounds), ("spiked-limit-posterior", spiked)):
    assert cli.run([kind, "--config", cfg, "--out", out]) == 0, kind
print(scipy_loaded())
print(" ".join(m.split(".")[1] for m in sys.modules if m.startswith("lowrank_rep.")))
"""


def test_cli_import_leaves_out_scipy_special(tmp_path):
    # importing scipy.sparse, scipy.linalg and scipy.special took 0.3 s and
    # 31 MiB of every CLI process start; check-bounds and the spiked kind
    # never call scipy, so they never load it
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    bounds = write_config(tmp_path / "b.cfg", "p=4\nr=2\ndraws=2\nseed=1\n")
    spiked = write_config(tmp_path / "s.cfg", SPIKED_CFG)
    out = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, bounds, spiked, str(tmp_path / "o.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    after_import, after_jobs, layers = out.stdout.strip().splitlines()
    assert after_import == after_jobs == "[]"
    assert set(LAYERS) <= set(layers.split())


# ---- bad values: every one is a config error (exit 2), found before the run ----

BAD_BASES = {
    "sbm-sim": {
        "K": "3",
        "Sigma0": "0.65,0.15,0.415,0.15,0.5,0.43,0.415,0.43,0.505",
        "r": "2",
        "n_values": "60",
        "replicates": "1",
    },
    "bicluster-sim": {
        "p1": "3",
        "p2": "3",
        "Sigma0": "2,4.5,0,1.5,-1,5,3.5,3.5,5",
        "r": "2",
        "sizes": "30x30",
        "replicates": "1",
        "sigma2": "0.25",
    },
    "spiked-limit-posterior": {
        "p": "4",
        "r": "1",
        "A0": "0.4,0,-0.3",
        "mu": "2.0",
        "n": "100",
        "cap": "2",
    },
}
NONFINITE = ("nan", "inf", "-inf")


def _first_entry(kind, key, bad):
    """The base list of `key` with its first entry replaced by `bad`."""
    return ",".join([bad] + BAD_BASES[kind][key].split(",")[1:])


def _bad_cases():
    sbm, bic, spk = "sbm-sim", "bicluster-sim", "spiked-limit-posterior"
    cases = [(sbm, {"K": v}) for v in ("0", "-1", "nan", "2")]
    cases += [
        (sbm, {"Sigma0": _first_entry(sbm, "Sigma0", v)})
        for v in NONFINITE + ("0", "-1", "1.5")
    ]
    cases += [(sbm, {"Sigma0": "0.5,0.2,0.2,0.5"})]
    cases += [(sbm, {"r": v}) for v in ("0", "-1", "4", "nan")]
    cases += [(sbm, {"n_values": v}) for v in ("0", "-1", "nan", "")]
    cases += [
        (sbm, {"pi": v})
        for v in ("nan,0.5,0.5", "inf,0.5,0.5", "-inf,0.5,0.5", "0,0.5,0.5")
        + ("-1,1,1", "0.5,0.5", "0.2,0.3,0.4")
    ]
    # a two-class design whose proportions do not sum to one
    cases += [(sbm, {"K": "2", "Sigma0": "0.6,0.3,0.3,0.5", "pi": "0.5,0.7"})]
    for key in ("p1", "p2"):
        cases += [(bic, {key: v}) for v in ("0", "-1", "nan")]
    cases += [
        (bic, {"Sigma0": _first_entry(bic, "Sigma0", v)}) for v in NONFINITE
    ]
    cases += [(bic, {"Sigma0": "1,2,3"})]
    cases += [(bic, {"r": v}) for v in ("0", "-1", "3", "4", "nan")]
    cases += [(bic, {"sizes": v}) for v in ("0x30", "-1x30", "nanx30", "30")]
    # finite but so large that the noise profile or G overflows
    cases += [(bic, {"sigma2": v}) for v in NONFINITE + ("0", "-1", "1e307", "1e308")]
    for key in ("w", "pi"):
        cases += [
            (bic, {key: v})
            for v in ("nan,0.5,0.5", "inf,0.5,0.5", "-inf,0.5,0.5", "0,0.5,0.5")
            + ("-1,1,1", "0.5,0.5", "0.3,0.3,0.3")
        ]
    cases += [(bic, {"p1": "2", "Sigma0": "2,4.5,0,1.5,-1,5", "w": "0.3,0.3"})]
    cases += [(bic, {"min_exact_recovery": v}) for v in NONFINITE]
    cases += [(bic, {"noise": v}) for v in ("rademacher", "cauchy", "")]
    for kind in (sbm, bic):
        cases += [(kind, {"replicates": v}) for v in ("-1", "nan")]
        cases += [(kind, {"kmeans_restarts": v}) for v in ("0", "-1", "nan")]
        cases += [(kind, {"seed": v}) for v in ("-1", "nan")]
        for key in ("max_cov_dev", "coverage_lo", "coverage_hi"):
            cases += [(kind, {key: v}) for v in NONFINITE]
    cases += [(spk, {"mu": v}) for v in NONFINITE]
    cases += [(spk, {"A0": _first_entry(spk, "A0", v)}) for v in NONFINITE]
    cases += [(spk, {"a_const": v}) for v in NONFINITE + ("1e308",)]
    cases += [(spk, {"min_support0_weight": "nan"}), (spk, {"seed": "-1"})]
    return [
        pytest.param(kind, overrides, id=f"{kind}:{overrides}")
        for kind, overrides in cases
    ]


# a numpy warning ahead of the config error (e.g. sigma2 = 1e307 overflowing
# the noise profile) fails the case
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, overrides", _bad_cases())
def test_bad_value_exits_two_before_the_run(kind, overrides, tmp_path, capsys):
    text = "".join(f"{k}={v}\n" for k, v in {**BAD_BASES[kind], **overrides}.items())
    cfg = write_config(tmp_path / "c.cfg", text)
    out_csv = tmp_path / "out.csv"
    assert cli.run([kind, "--config", cfg, "--out", str(out_csv)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_negative_seed_flag_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "p=4\nr=2\ndraws=1\n")
    out = run_cli("check-bounds", "--config", cfg, "--seed", "-1")
    assert out.returncode == 2
    assert "config error" in out.stderr


def _run_and_read(kind, text, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", text)
    out_csv = tmp_path / "out.csv"
    assert cli.run([kind, "--config", cfg, "--out", str(out_csv)]) == 0
    assert capsys.readouterr().err == ""
    header, data, _ = read_csv(out_csv)
    return [dict(zip(header, row)) for row in data]


def _rank_one_csv(k):
    v = np.linspace(0.2, 0.7, k)
    return ",".join(repr(float(x)) for x in np.outer(v, v).ravel())


def test_eleven_sbm_classes_run_and_align(tmp_path, capsys):
    # 11! label orderings: alignment is an assignment problem, not a search
    text = f"K=11\nSigma0={_rank_one_csv(11)}\nr=1\nn_values=220\nreplicates=3\n"
    rows = _run_and_read("sbm-sim", text, tmp_path, capsys)
    assert len(rows) == 3
    assert all(int(row["aligned_hamming"]) >= 0 for row in rows)


@pytest.mark.parametrize("p1, p2", [(11, 3), (3, 11)])
def test_eleven_bicluster_classes_run_and_align(p1, p2, tmp_path, capsys):
    gen = np.random.default_rng(5)
    Sigma0 = gen.normal(size=(p1, 2)) @ gen.normal(size=(2, p2))
    text = (
        f"p1={p1}\np2={p2}\nSigma0={','.join(repr(float(x)) for x in Sigma0.ravel())}\n"
        "r=2\nsizes=110x110\nreplicates=2\nsigma2=0.25\n"
    )
    rows = _run_and_read("bicluster-sim", text, tmp_path, capsys)
    assert len(rows) == 2
    assert all(int(row["aligned_hamming"]) >= 0 for row in rows)


# ---- malformed configs of every kind: exit 2, no exception, no CSV ----

FUZZ_BASES = {**BAD_BASES, "check-bounds": {"p": "4", "r": "2", "draws": "1"}}
REQUIRED_KEYS = {
    "check-bounds": (),
    "sbm-sim": ("K", "Sigma0", "r", "n_values", "replicates"),
    "bicluster-sim": ("p1", "p2", "Sigma0", "r", "sizes", "replicates"),
    "spiked-limit-posterior": ("p", "r", "A0", "mu", "n"),
}
_STUDY_NUMBERS = (
    "replicates", "kmeans_restarts", "seed", "max_cov_dev", "coverage_lo",
    "coverage_hi",
)
NUMERIC_KEYS = {
    "check-bounds": ("p", "r", "draws", "seed"),
    "sbm-sim": ("K", "Sigma0", "r", "n_values", "pi") + _STUDY_NUMBERS,
    "bicluster-sim": (
        "p1", "p2", "Sigma0", "r", "sizes", "sigma2", "w", "pi",
        "min_exact_recovery",
    ) + _STUDY_NUMBERS,
    "spiked-limit-posterior": (
        "p", "r", "A0", "mu", "support", "n", "cap", "a_const", "seed",
        "min_support0_weight",
    ),
}
# list keys and the length the base config needs
LIST_LENGTHS = {
    "check-bounds": {},
    "sbm-sim": {"Sigma0": 9, "pi": 3},
    "bicluster-sim": {"Sigma0": 9, "w": 3, "pi": 3},
    "spiked-limit-posterior": {"A0": 3, "mu": 1},
}
SIZE_KEYS = {
    "check-bounds": ("p", "draws"),
    "sbm-sim": ("K", "n_values", "replicates", "kmeans_restarts"),
    "bicluster-sim": ("p1", "p2", "sizes", "replicates", "kmeans_restarts"),
    "spiked-limit-posterior": ("p", "n", "cap"),
}
# every base config has p, K or min(p1, p2) equal to 3 or 4, so r >= 4 is
# r >= p for the first two kinds and r > K, r > min(p1, p2) for the studies
BAD_RANKS = st.integers(4, 9)
_NOT_A_NUMBER = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "+inf", "NaN", "Infinity"]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
)


@st.composite
def malformed_configs(draw):
    """(kind, key=value dict) with exactly one fault from a fixed list."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    cfg = dict(FUZZ_BASES[kind])
    faults = ["unknown_key", "not_a_number", "rank_too_large", "negative_size"]
    if REQUIRED_KEYS[kind]:
        faults.append("missing_key")
    if LIST_LENGTHS[kind]:
        faults.append("wrong_length")
    fault = draw(st.sampled_from(faults))
    if fault == "unknown_key":
        name = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789"))
        cfg["x_" + name] = draw(st.sampled_from(["1", "", "abc", "nan"]))
    elif fault == "missing_key":
        del cfg[draw(st.sampled_from(REQUIRED_KEYS[kind]))]
    elif fault == "not_a_number":
        key = draw(st.sampled_from(NUMERIC_KEYS[kind]))
        tokens = cfg.get(key, "1").split(",")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_NOT_A_NUMBER)
        cfg[key] = ",".join(tokens)
    elif fault == "wrong_length":
        key = draw(st.sampled_from(sorted(LIST_LENGTHS[kind])))
        want = LIST_LENGTHS[kind][key]
        # an empty optional list reads as absent, so it is not a fault
        shortest = 0 if key in REQUIRED_KEYS[kind] else 1
        length = draw(st.integers(shortest, want + 3).filter(lambda k: k != want))
        cfg[key] = ",".join(["0.3"] * length)
    elif fault == "rank_too_large":
        cfg["r"] = str(draw(BAD_RANKS))
    elif fault == "negative_size":
        key = draw(st.sampled_from(SIZE_KEYS[kind]))
        v = draw(st.integers(-(10**6), -1))
        cfg[key] = draw(st.sampled_from([f"{v}x30", f"30x{v}"])) if key == "sizes" else str(v)
    return kind, cfg


@given(malformed_configs())
@settings(max_examples=300, deadline=None)
def test_malformed_config_exits_two(tmp_path_factory, case):
    kind, cfg = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path = write_config(tmp / "c.cfg", "".join(f"{k}={v}\n" for k, v in cfg.items()))
    out_csv = tmp / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.run([kind, "--config", path, "--out", str(out_csv)])
    assert status == 2, err.getvalue()
    assert "config error:" in err.getvalue()
    assert not out_csv.exists()


# ---- CSV writer ----

_CELLS = st.one_of(
    st.text(alphabet="ab;%_-0123456789", max_size=6),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -2.5e-310,
         1e300, -1e-300, np.float64(-0.0), np.float64(1e-300)]
    ),
)


@given(st.lists(st.lists(_CELLS, min_size=1, max_size=6), max_size=8))
@settings(max_examples=200, deadline=None)
def test_csv_rows_match_per_cell_format(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_csv(path, ["h"], rows, ["k=v"])
    expected = "h\n" + "".join(
        ",".join(cli._fmt(v) for v in row) + "\n" for row in rows
    ) + "# k=v\n"
    assert path.read_bytes() == expected.encode("utf-8")
