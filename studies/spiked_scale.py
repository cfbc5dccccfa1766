"""Scale study of the spiked limit posterior.

    python3 studies/spiked_scale.py                 # writes BENCH_spiked_scale.json
    python3 studies/spiked_scale.py --out scale.json

Times the data draw `sample_data` and a warm `limit_posterior` at the
spiked-p48 benchmark truth grown to dimension p (r=2, n=400, rows 1 and 4
of A0 active, cap=3, so p - 3 components) for p = 256, 512, 1024, 2048 and
4096, and records the posterior's tracemalloc peak.  The block
`_information` is timed next to the dense d x d oracle of tests/helpers.py
at the dense Omega of the same file, the "before"; the oracle runs only at
p <= 1024, because its time grows as p^3 and its memory as p^2, and only
where the test dependencies that tests/helpers.py imports (hypothesis) are
installed.  `lan_remainder` is timed at the first alternative that
`lan_remainder_study` builds at base seed 0: theta0 + u / sqrt(n) for its
unit direction u, on its data draw.  At every p a fresh
process also runs the same truth end to end through `lowrank_rep.cli.run`
(spiked-limit-posterior, seed 0): one untimed job to load the imports and
the gamma cache, then the median of three timed jobs; its ru_maxrss is the
process's peak resident memory.

Each BLAS thread setting (1, and the library default) runs in a fresh
process, since OpenBLAS fixes its thread count when it loads.  The output
records the environment of each: core count, BLAS builds and the thread
count OpenBLAS reports.  Needs only numpy and scipy, and runs from the root
of a source checkout.
"""

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
P_VALUES = (256, 512, 1024, 2048, 4096)
DENSE_P_MAX = 1024
CLI_REPEATS = 3
CAP = 3
REPEATS = 5


def workload_model(p):
    # the spiked-p48 truth at any p, as tests/test_spiked.py::workload_model
    import numpy as np

    from lowrank_rep.cayley import Phi
    from lowrank_rep.spiked import SpikedModel
    from lowrank_rep.symrep import ThetaSym

    A0 = np.zeros((p - 2, 2))
    A0[1] = (0.42, -0.21)
    A0[4] = (0.18, 0.33)
    theta = ThetaSym(Phi(p, 2, A0.ravel(order="F")), [2.2, 0.4, 1.6])
    return SpikedModel(theta, 400, (1, 4))


def _timed(fn, repeats):
    # median wall time of repeats calls, after one warm-up call
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cli_job(p):
    """Median wall time of warm CLI jobs at the workload truth of dimension p,
    and the peak resident memory of this process."""
    from lowrank_rep import cli

    theta = workload_model(p).theta0
    config = (
        f"p={p}\nr=2\nA0={','.join(map(repr, theta.phi.A.ravel().tolist()))}\n"
        f"mu={','.join(map(repr, theta.mu.tolist()))}\nn=400\ncap={CAP}\nseed=0\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "job.cfg")
        path.write_text(config)
        jobs = itertools.count()

        def job():
            # a fresh output path per job: rewriting a file measures the disk
            out = Path(tmp, f"{next(jobs)}.csv")
            argv = ["spiked-limit-posterior", "--config", str(path), "--out", str(out)]
            if cli.run(argv) != 0:
                raise RuntimeError(f"CLI job failed at p={p}")

        elapsed = _timed(job, CLI_REPEATS)
    return {
        "cli_job_s": elapsed,
        "cli_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _fresh_cli_job(p, env):
    # Spawned from the small parent process, not from measure(): Linux starts
    # a child's ru_maxrss at the peak of the process it was forked from.
    cmd = [sys.executable, __file__, "--cli-job", str(p)]
    out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure():
    """One row per p of P_VALUES, in this process."""
    import numpy as np

    from lowrank_rep.rngs import replicate_seed, substream
    from lowrank_rep.spiked import (
        _information,
        lan_remainder,
        limit_posterior,
        sample_data,
    )
    from lowrank_rep.symrep import ThetaSym

    try:
        from helpers import dense_information, omega_of_theta
    except ImportError as exc:
        print(f"no dense oracle: {exc}", file=sys.stderr)
        dense_information = None

    rows = []
    for p in P_VALUES:
        model = workload_model(p)
        theta = model.theta0
        draw = lambda: sample_data(theta, model.n, 0)  # noqa: E731
        Y = draw()
        posterior = lambda: limit_posterior(Y, model, CAP)  # noqa: E731
        repeats = REPEATS if p <= DENSE_P_MAX else 3
        row = {
            "p": p,
            "components": len(posterior().components),
            "sample_data_s": _timed(draw, repeats),
            "limit_posterior_s": _timed(posterior, repeats),
            "limit_posterior_peak_mib": _peak_mib(posterior),
            "information_s": _timed(lambda: _information(theta, Y), repeats),
        }
        # replicate 0 of lan_remainder_study(theta, [n], 1, 0)
        seed = replicate_seed(0, 0)
        u = substream(seed, 5).standard_normal(theta.d)
        u /= np.linalg.norm(u)
        alt = ThetaSym.from_vector(p, 2, theta.as_vector() + u / math.sqrt(model.n))
        Y_lan = sample_data(theta, model.n, seed)
        lan = lambda: lan_remainder(alt, theta, Y_lan)  # noqa: E731
        row["lan_remainder_s"] = _timed(lan, repeats)
        if dense_information is not None and p <= DENSE_P_MAX:
            omega, omega_hat = omega_of_theta(theta), Y @ Y.T / model.n
            dense = lambda: dense_information(theta, omega, omega_hat)  # noqa: E731
            row["dense_information_s"] = _timed(dense, 3)
            row["dense_information_peak_mib"] = _peak_mib(dense)
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    return rows


def child(cli_p=None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    if cli_p is not None:
        print(json.dumps(cli_job(cli_p)))
        return
    from run import environment

    rows = measure()
    print(json.dumps({"env": environment(), "rows": rows}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_spiked_scale.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cli-job", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child or args.cli_job is not None:
        child(args.cli_job)
        return 0
    runs = []
    for threads in ("1", "default"):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads != "default":
            env["OPENBLAS_NUM_THREADS"] = threads
        cmd = [sys.executable, __file__, "--child"]
        out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["blas_threads"] = threads
        runs.append(result)
        for row in result["rows"]:
            row.update(_fresh_cli_job(row["p"], env))
            dense = row.get("dense_information_s", math.nan)
            print(
                f"threads={threads} p={row['p']} components={row['components']} "
                f"sample_data={row['sample_data_s']:.4f}s "
                f"limit_posterior={row['limit_posterior_s']:.4f}s "
                f"peak={row['limit_posterior_peak_mib']:.1f}MiB "
                f"information={row['information_s']:.4f}s dense={dense:.4f}s "
                f"lan_remainder={row['lan_remainder_s']:.4f}s "
                f"cli_job={row.get('cli_job_s', math.nan):.3f}s "
                f"rss={row.get('cli_peak_rss_mib', math.nan):.0f}MiB"
            )
    Path(args.out).write_text(
        json.dumps({"study": "spiked_scale", "cap": CAP, "runs": runs}, indent=2)
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
