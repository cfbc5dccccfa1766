"""End-to-end tests of the command line front end.

Every test shells out to `python3 -m lowrank_rep.cli` the way a user would,
so argument handling, exit codes, and the CSV contract are all exercised
through the real entry point.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowrank_rep

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
