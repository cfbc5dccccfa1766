"""Command line front end: certificate sweeps and simulation studies.

Subcommands
-----------
check-bounds            certificate battery over seeded random chart points
sbm-sim                 block model estimator study (CSV rows + summary)
bicluster-sim           biclustering estimator study (CSV rows + summary)
spiked-limit-posterior  mixture table of the sparse spiked limit posterior

Configuration is a flat text file of key=value lines; '#' starts a comment
and blank lines are ignored.  --seed and --out override the corresponding
config keys.  All output is CSV (UTF-8, comma separated, '.' decimal, LF
line endings) with floats printed at 17 significant digits; run summaries
are appended as '#'-prefixed key=value comment lines.

The front end only parses: types, finiteness, and the entry counts that
shape Sigma0 and A0.  Every other check of a value lives in the library
type that owns it (the experiment configs, balanced_assignment for the
proportions, the truth models, the chart points), so a library caller gets
the same typed error; a NumericsError raised while a run is built from its
config is reported as a configuration error.

Exit status: 0 when every requested certificate and acceptance gate passes,
1 when a gate or certificate fails, 2 on configuration errors, 3 on
numerical failures.  Diagnostics go to stderr.

Reruns with identical configuration and seed produce byte-identical output
files: every random draw flows through counter-based streams derived from
the run seed, and formatting is locale-independent.
"""

import argparse
import math
import sys
from operator import ge, le

import numpy as np

from . import bicluster, matkit, mc, rectrep, sbm, spiked, symrep
from .cayley import GateNotMet, Phi, cayley_map
from .cayley import lipschitz_certificate_A, taylor_certificate_U
from .errors import ConfigError, NumericsError
from .rngs import substream

__all__ = ["main", "run"]

KINDS = ("check-bounds", "sbm-sim", "bicluster-sim", "spiked-limit-posterior")


# =====================================================================
# Config file handling
# =====================================================================


def parse_config(path):
    """Read a flat key=value file into a dict of raw strings."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def _check_keys(cfg, allowed):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _get(cfg, key, default, parse, expected):
    """parse(cfg[key]), or default when the key is absent (None: required)."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {expected}, got {cfg[key]!r}")


def _finite_float(text):
    # nan and inf parse as floats, but no model or gate is defined at them
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _each(parse):
    return lambda text: tuple(parse(tok) for tok in text.split(",") if tok.strip())


def _get_int(cfg, key, default=None):
    return _get(cfg, key, default, int, "integer")


def _get_float(cfg, key, default=None):
    return _get(cfg, key, default, _finite_float, "finite number")


def _get_ints(cfg, key, default=None):
    return _get(cfg, key, default, _each(int), "comma-separated integers")


def _get_floats(cfg, key, default=None):
    return _get(
        cfg, key, default, _each(_finite_float), "comma-separated finite numbers"
    )


def _get_sizes(cfg, key):
    """Parse '800x600,1200x1200' into ((800, 600), (1200, 1200))."""
    sizes = []
    for tok in cfg.get(key, "").split(","):
        tok = tok.strip()
        if not tok:
            continue
        m, sep, n = tok.partition("x")
        try:
            if not sep:
                raise ValueError(tok)
            sizes.append((int(m), int(n)))
        except ValueError:
            raise ConfigError(f"key {key!r}: expected MxN tokens, got {tok!r}")
    if not sizes:
        raise ConfigError(f"missing required key {key!r}")
    return tuple(sizes)


def _resolve_seed(cfg, override):
    seed = int(override) if override is not None else _get_int(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"need seed >= 0, got {seed}")
    return seed


def _resolve_out(cfg, override, fallback):
    return override if override is not None else cfg.get("out", fallback)


# =====================================================================
# CSV output
# =====================================================================


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _fmt_code(kind):
    # the %-conversion that prints a value of this type as _fmt does
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_csv(path, header, rows, comments):
    """Data rows first, then '#'-prefixed summary lines.  LF throughout.

    Each row goes through one %-template, built once per tuple of cell
    types, which prints the same bytes as joining _fmt over its cells.
    """
    templates = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = ",".join(map(_fmt_code, kinds)) + "\n"
                templates[kinds] = template
            fh.write(template % row)
        for line in comments:
            fh.write("# " + line + "\n")


def _kv_line(pairs):
    return " ".join(f"{key}={_fmt(value)}" for key, value in pairs)


# =====================================================================
# check-bounds: certificate battery
# =====================================================================
# Each instance draws a base chart point and a second point inside the
# chart ball, then evaluates every closed-form certificate at the pair.
# The second point interpolates toward an independent draw, so both
# near-tangent and far pairs occur; gated certificates whose precondition
# fails at far pairs are reported as 'gated', never as failures.


def _random_phi(gen, p, r):
    # ||A||_2 uniform on [0.05, 0.92]: inside the chart ball, off its centre
    A = gen.standard_normal((p - r, r))
    target = 0.05 + (0.92 - 0.05) * float(gen.random())
    A *= target / max(matkit.spectral_norm(A), 1e-300)
    return Phi(p, r, A.ravel(order="F"))


def _random_pd_vech(gen, r):
    lam = gen.uniform(0.4, 3.0, size=r)
    Q, _ = np.linalg.qr(gen.standard_normal((r, r)))
    return matkit.vech((Q * lam) @ Q.T)


def _random_rect_vec(gen, p1, r):
    # full column rank with smallest singular value bounded away from 0
    G = gen.standard_normal((p1, r))
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    return ((U * np.clip(s, 0.3, None)) @ Vt).ravel(order="F")


def _battery_instance(gen, p_max, r_max):
    """One seeded instance: all certificates at a random chart-point pair."""
    p = int(gen.integers(2, p_max + 1))
    r = int(gen.integers(1, min(r_max, p - 1) + 1))
    t = float(10.0 ** gen.uniform(-3.0, 0.0))
    phi0 = _random_phi(gen, p, r)
    phi1 = _random_phi(gen, p, r)
    phi = Phi(p, r, (1.0 - t) * phi0.values + t * phi1.values)

    # symmetric chart pair; convex mixing keeps the cores positive definite
    mu0 = _random_pd_vech(gen, r)
    mu1 = _random_pd_vech(gen, r)
    theta0 = symrep.ThetaSym(phi0, mu0)
    theta = symrep.ThetaSym(phi, (1.0 - t) * mu0 + t * mu1)

    p1 = int(gen.integers(r, p_max + 1))
    nu0 = _random_rect_vec(gen, p1, r)
    nu1 = _random_rect_vec(gen, p1, r)
    rect0 = rectrep.ThetaRect(p1, phi0, nu0)
    rect = rectrep.ThetaRect(p1, phi, (1.0 - t) * nu0 + t * nu1)

    certs = []
    certs.extend(taylor_certificate_U(phi, phi0))
    U = cayley_map(phi).matrix
    U0 = cayley_map(phi0).matrix
    certs.append(lipschitz_certificate_A(U, U0))
    certs.append(symrep.taylor_certificate_sym(theta, theta0))
    certs.append(symrep.inverse_perturbation_certificate(theta, theta0))
    certs.extend(symrep.subspace_equivalence_certificates(phi, phi0))
    certs.extend(symrep.regularity_bounds(theta0))
    certs.append(rectrep.taylor_certificate_rect(rect, rect0))
    certs.append(rectrep.regularity_bound_rect(rect0))
    return certs


def _run_check_bounds(cfg, seed_override, out_override):
    _check_keys(cfg, {"p", "r", "draws", "seed", "out"})
    p_max = _get_int(cfg, "p", 8)
    r_max = _get_int(cfg, "r", 3)
    draws = _get_int(cfg, "draws", 200)
    seed = _resolve_seed(cfg, seed_override)
    out = _resolve_out(cfg, out_override, "check_bounds.csv")
    if p_max < 2:
        raise ConfigError(f"need p >= 2, got {p_max}")
    if not 1 <= r_max <= p_max - 1:
        raise ConfigError(f"need 1 <= r <= p - 1, got r={r_max}, p={p_max}")
    if draws < 0:
        raise ConfigError(f"need draws >= 0, got {draws}")

    rows = []
    passed = gated = failed = 0
    for i in range(draws):
        for cert in _battery_instance(substream(seed, i), p_max, r_max):
            if isinstance(cert, GateNotMet):
                gated += 1
                rows.append(
                    [i, cert.label, "gated", cert.observed_gate, cert.gate_bound]
                )
            else:
                ok = cert.passed
                passed += int(ok)
                failed += int(not ok)
                status = "pass" if ok else "fail"
                rows.append([i, cert.label, status, cert.observed, cert.bound])
                if not ok:
                    print(
                        f"certificate failed: instance={i} label={cert.label} "
                        f"observed={cert.observed!r} bound={cert.bound!r}",
                        file=sys.stderr,
                    )

    comments = [
        _kv_line([("p", p_max), ("r", r_max), ("draws", draws), ("seed", seed)]),
        _kv_line(
            [
                ("checks", passed + gated + failed),
                ("passed", passed),
                ("gated", gated),
                ("failed", failed),
            ]
        ),
    ]
    _write_csv(out, ["instance", "label", "status", "observed", "bound"], rows, comments)
    return failed == 0


# =====================================================================
# Simulation studies
# =====================================================================


def _as_config_error(build, what):
    """Model construction from config values; failures are config errors."""
    try:
        return build()
    except ConfigError:
        raise
    except NumericsError as exc:
        raise ConfigError(f"invalid {what}: {exc}")


def _z_row(row, d):
    z = row["z"]
    return [float("nan")] * d if z is None else [float(v) for v in z]


def _summary_pairs(summary, mse_name):
    pairs = list(summary.fields.items())
    pairs += [
        ("replicates", summary.replicates),
        ("excluded", summary.excluded),
        ("cov_opnorm_dev_from_I", summary.cov_opnorm_dev_from_I),
    ]
    pairs += [(f"coverage_{j + 1}", c) for j, c in enumerate(summary.coverage)]
    pairs += [
        (f"mean_mse_{mse_name}", summary.mean_mse_main),
        ("mean_mse_naive", summary.mean_mse_naive),
    ]
    return pairs


def _gate_lines(gates):
    """Summary lines for (name, passed, observed, bound) gates; each failure
    is also reported on stderr.  Returns (every gate passed, lines)."""
    ok = True
    lines = []
    for name, good, observed, bound in gates:
        # NaN comparisons are False, so empty studies fail loud, not silent
        good = bool(good)
        ok = ok and good
        lines.append(
            _kv_line(
                [
                    ("gate", name),
                    ("observed", observed),
                    ("bound", bound),
                    ("status", "pass" if good else "fail"),
                ]
            )
        )
        if not good:
            print(
                f"gate failed: {name} observed={observed!r} bound={bound!r}",
                file=sys.stderr,
            )
    return ok, lines


# keys that every study kind takes
_STUDY_KEYS = {
    "replicates",
    "kmeans_restarts",
    "seed",
    "out",
    "max_cov_dev",
    "coverage_lo",
    "coverage_hi",
}


def _study_counts(cfg):
    """The replicate count and k-means restarts, as config fields."""
    return {
        "replicates": _get_int(cfg, "replicates"),
        "kmeans_restarts": _get_int(cfg, "kmeans_restarts", 20),
    }


def _gate_bounds(cfg):
    """Bounds of the gate keys present, in report order."""
    bounds = {}
    if "max_cov_dev" in cfg:
        bounds["max_cov_dev"] = _get_float(cfg, "max_cov_dev")
    if "coverage_lo" in cfg or "coverage_hi" in cfg:
        bounds["coverage_lo"] = _get_float(cfg, "coverage_lo", 0.0)
        bounds["coverage_hi"] = _get_float(cfg, "coverage_hi", 1.0)
    if "min_exact_recovery" in cfg:
        bounds["min_exact_recovery"] = _get_float(cfg, "min_exact_recovery")
    return bounds


def _run_study(cfg, config, mse_name, seed, out, report_recovery=False):
    """Run the Monte Carlo study of an experiment config and write its CSV.

    Gate bounds are parsed, and the truth model is built and validated at
    every size (failures are config errors), before any replicate runs.
    Rows are replicate, the size columns, aligned_hamming, excluded_flag,
    z_1..z_d, mse_<mse_name> and mse_naive; then one summary line per size
    (with exact_recovery if report_recovery) and one line per gate.  With
    zero replicates only the header is written.  Returns whether every gate
    passed.
    """
    bounds = _gate_bounds(cfg)
    study = _as_config_error(config.study, "study truth")
    d = study.theta0.d
    lead = ["replicate", *study.sizes[0].fields, "aligned_hamming", "excluded_flag"]
    header = lead + [f"z_{j + 1}" for j in range(d)]
    header += [f"mse_{mse_name}", "mse_naive"]
    if config.replicates == 0:
        _write_csv(out, header, [], [])
        return True
    summaries = mc.run_study(study, config.replicates, seed)

    rows = [
        [row[key] for key in lead]
        + _z_row(row, d)
        + [row["mse_main"], row["mse_naive"]]
        for summary in summaries
        for row in summary.rows
    ]
    comments = []
    for summary in summaries:
        pairs = _summary_pairs(summary, mse_name)
        if report_recovery:
            pairs.append(("exact_recovery", summary.exact_recovery))
        comments.append(_kv_line(pairs))
    # per gate: the worst value over all sizes, and how it must compare
    checks = {
        "max_cov_dev": (max(s.cov_opnorm_dev_from_I for s in summaries), le),
        "coverage_lo": (min(float(np.min(s.coverage)) for s in summaries), ge),
        "coverage_hi": (max(float(np.max(s.coverage)) for s in summaries), le),
        "min_exact_recovery": (min(s.exact_recovery for s in summaries), ge),
    }
    gates = []
    for name, bound in bounds.items():
        observed, passes = checks[name]
        gates.append((name, passes(observed, bound), observed, bound))
    ok, gate_lines = _gate_lines(gates)
    _write_csv(out, header, rows, comments + gate_lines)
    return ok


def _run_sbm_sim(cfg, seed_override, out_override):
    _check_keys(cfg, {"K", "Sigma0", "r", "n_values", "pi"} | _STUDY_KEYS)
    K = _get_int(cfg, "K")
    vals = _get_floats(cfg, "Sigma0")
    if K < 1 or len(vals) != K * K:
        raise ConfigError(f"Sigma0 needs {K * K} entries (row-major), got {len(vals)}")
    pi = _get_floats(cfg, "pi", ())
    config = sbm.SbmExperimentConfig(
        Sigma0=np.array(vals).reshape(K, K),
        r=_get_int(cfg, "r"),
        n_values=_get_ints(cfg, "n_values"),
        pi=np.array(pi) if pi else None,
        **_study_counts(cfg),
    )
    seed = _resolve_seed(cfg, seed_override)
    out = _resolve_out(cfg, out_override, "sbm_sim.csv")
    return _run_study(cfg, config, "onestep", seed, out)


def _run_bicluster_sim(cfg, seed_override, out_override):
    allowed = {"p1", "p2", "Sigma0", "r", "sizes", "sigma2", "w", "pi", "noise"}
    _check_keys(cfg, allowed | {"min_exact_recovery"} | _STUDY_KEYS)
    p1 = _get_int(cfg, "p1")
    p2 = _get_int(cfg, "p2")
    vals = _get_floats(cfg, "Sigma0")
    if p1 < 1 or p2 < 1 or len(vals) != p1 * p2:
        raise ConfigError(
            f"Sigma0 needs {p1 * p2} entries (row-major), got {len(vals)}"
        )
    w = _get_floats(cfg, "w", ())
    pi = _get_floats(cfg, "pi", ())
    config = bicluster.BiclusterExperimentConfig(
        Sigma0=np.array(vals).reshape(p1, p2),
        r=_get_int(cfg, "r"),
        sizes=_get_sizes(cfg, "sizes"),
        sigma2=_get_float(cfg, "sigma2", 1.0),
        w=np.array(w) if w else None,
        pi=np.array(pi) if pi else None,
        noise=cfg.get("noise", "gaussian"),
        **_study_counts(cfg),
    )
    seed = _resolve_seed(cfg, seed_override)
    out = _resolve_out(cfg, out_override, "bicluster_sim.csv")
    return _run_study(cfg, config, "lse", seed, out, report_recovery=True)


# =====================================================================
# spiked-limit-posterior
# =====================================================================


def _mean_cells(comp, d):
    """A component's mean_1..mean_d cells, joined: its support mean in the
    support's columns and 0 elsewhere, the bytes of the dense product of
    the d x d_S 0/1 selector with the mean.  That product starts every sum
    from +0.0, so a -0.0 entry of the mean prints as 0; adding 0.0 does the
    same here.  The support's columns ascend, so the cells between two of
    them are one run of '0,'.
    """
    parts = []
    prev = -1
    for col, value in zip(comp.support.columns, (comp.mean + 0.0).tolist()):
        parts.append("0," * (col - prev - 1) + "%.17g" % value)
        prev = col
    return ",".join(parts) + ",0" * (d - 1 - prev)


def _run_spiked(cfg, seed_override, out_override):
    allowed = {
        "p",
        "r",
        "A0",
        "mu",
        "support",
        "n",
        "cap",
        "a_const",
        "seed",
        "out",
        "min_support0_weight",
    }
    _check_keys(cfg, allowed)
    p = _get_int(cfg, "p")
    r = _get_int(cfg, "r")
    if not 1 <= r < p:
        raise ConfigError(f"need 1 <= r < p, got p={p}, r={r}")
    vals = _get_floats(cfg, "A0")
    if len(vals) != (p - r) * r:
        raise ConfigError(
            f"A0 needs {(p - r) * r} entries (row-major), got {len(vals)}"
        )
    A0 = np.array(vals).reshape(p - r, r)
    mu = np.array(_get_floats(cfg, "mu"))
    n = _get_int(cfg, "n")
    cap = _get_int(cfg, "cap", p - r)
    a_const = _get_float(cfg, "a_const", 1.0)
    if "support" in cfg:
        support = _get_ints(cfg, "support", ())
    else:
        support = tuple(int(i) for i in np.flatnonzero(np.any(A0 != 0.0, axis=1)))
    seed = _resolve_seed(cfg, seed_override)
    out = _resolve_out(cfg, out_override, "spiked_limit_posterior.csv")
    gate = "min_support0_weight"
    bound = _get_float(cfg, gate) if gate in cfg else None

    model = _as_config_error(
        lambda: spiked.SpikedModel(
            symrep.ThetaSym(Phi(p, r, A0.ravel(order="F")), mu),
            n=n,
            support0=support,
        ),
        "spiked model",
    )
    # one synthetic dataset from the model itself drives the posterior
    Y = spiked.sample_data(model.theta0, n, seed)
    lp = spiked.limit_posterior(Y, model, cap, a_const=a_const)

    header = ["component", "support", "size", "weight"]
    header += [f"mean_{j + 1}" for j in range(model.d)]
    rows = []
    support0_weight = 0.0
    for idx, comp in enumerate(lp.components):
        support = ";".join(str(j) for j in comp.support.indices)
        cells = _mean_cells(comp, model.d)
        rows.append([idx, support, comp.support.size, comp.weight, cells])
        if comp.support.indices == model.support0:
            support0_weight = float(comp.weight)
    top = max(lp.components, key=lambda c: c.weight)

    comments = [
        _kv_line(
            [
                ("p", p),
                ("r", r),
                ("n", n),
                ("cap", cap),
                ("a_const", a_const),
                ("seed", seed),
            ]
        ),
        _kv_line(
            [
                ("components", len(lp.components)),
                ("weight_sum", float(sum(c.weight for c in lp.components))),
                ("support0", ";".join(str(j) for j in model.support0)),
                ("support0_weight", support0_weight),
                ("top_support", ";".join(str(j) for j in top.support.indices)),
                ("top_weight", float(top.weight)),
            ]
        ),
    ]
    gates = [] if bound is None else [
        (gate, support0_weight >= bound, support0_weight, bound)
    ]
    ok, gate_lines = _gate_lines(gates)
    _write_csv(out, header, rows, comments + gate_lines)
    return ok


# =====================================================================
# Entry point
# =====================================================================

_RUNNERS = {
    "check-bounds": _run_check_bounds,
    "sbm-sim": _run_sbm_sim,
    "bicluster-sim": _run_bicluster_sim,
    "spiked-limit-posterior": _run_spiked,
}


# built once: building the parser costs several times what a parse does
_PARSER = argparse.ArgumentParser(
    prog="lowrank-rep",
    description="Certificate sweeps and simulation studies for the "
    "low-rank chart representations.",
)
_PARSER.add_argument("kind", choices=KINDS)
_PARSER.add_argument("--config", required=True, help="key=value config file")
_PARSER.add_argument("--seed", type=int, default=None, help="override config seed")
_PARSER.add_argument("--out", default=None, help="override output CSV path")


def run(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        ok = _RUNNERS[args.kind](cfg, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
