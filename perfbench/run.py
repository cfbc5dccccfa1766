"""lowrank-rep benchmark: closed-loop CLI jobs, one workload per process.

    python3 perfbench/run.py --workload sbm-onestep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from
`src/`, never from an installed copy.  One client calls
`lowrank_rep.cli.run(argv)` in this process, job after job, for `--seconds`
seconds; each job writes a fresh CSV in the benchmark's own temp directory,
which is checked and deleted.  See workloads.py for the workloads and
checks, tracer.py for `--trace 1`, README.md for the metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as wl
from tracer import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
# fresh processes per setup_s sample; their median is reported
SETUP_PROBES = 5
RUN_SECONDS = 20  # as in BENCHMARK.json
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_cli():
    """Import lowrank_rep.cli from this checkout's src/ or exit 2."""
    if not (SRC / "lowrank_rep" / "cli.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from lowrank_rep import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"benchmark: imported {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


# =====================================================================
# environment
# =====================================================================


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            try:
                handle = ctypes.CDLL(lib, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue  # not loaded in this process
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def environment():
    """What the numbers depend on besides the code: cores, BLAS, versions."""
    import numpy
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _openblas_threads(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


# =====================================================================
# jobs
# =====================================================================


class Client:
    """Runs CLI jobs of one workload, each into a fresh output path."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.workload = workload
        self.workdir = Path(workdir)
        self.config = self.workdir / "workload.cfg"
        self.config.write_text(workload.config, encoding="utf-8")
        self.jobs = 0

    def run_job(self, seed):
        """Run one job.  Returns (seconds, exit status, output path)."""
        self.jobs += 1
        out = self.workdir / f"job-{self.jobs}.csv"
        argv = [
            self.workload.kind,
            "--config",
            str(self.config),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
        t0 = time.perf_counter()
        try:
            # looked up per job so that a traced cli.run is the one called
            code = self.cli.run(argv)
        except Exception:
            # any escaping exception fails the job's units, not the run
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        return time.perf_counter() - t0, code, out

    def reference_job(self):
        """The warm-up job: the reference seed, checked cell by cell."""
        _, code, out = self.run_job(wl.REFERENCE_SEED)
        check = wl.check_job(self.workload, out, code)
        problems = check.problems + (
            wl.compare_reference(self.workload, out) if code == 0 else []
        )
        out.unlink(missing_ok=True)
        return problems


def _percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Loop:
    """Closed loop: the next job starts when the previous one is checked."""

    def __init__(self, client, seed):
        self.client = client
        self.seed = seed
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.replicates = 0
        self.exact = 0
        self.csv_bytes = 0

    def step(self):
        """Run, check and delete one job; returns its wall seconds."""
        workload = self.client.workload
        seed = workload.job_seed(self.seed, len(self.times))
        seconds, code, out = self.client.run_job(seed)
        check = wl.check_job(workload, out, code)
        if out.exists():
            self.csv_bytes += out.stat().st_size
            out.unlink()
        self.times.append(seconds)
        self.attempted += check.units
        self.failed += len(check.failed_units)
        self.replicates += check.replicates
        self.exact += check.exact_recoveries
        self.problems += [f"seed {seed}: {p}" for p in check.problems]
        return seconds


# =====================================================================
# setup time: fresh processes to the end of one warm-up job
# =====================================================================


def probe_setup(workload_name):
    """Child side: import, run the warm-up job, report the clock."""
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        problems = Client(cli, wl.WORKLOADS[workload_name], tmp).reference_job()
    print(json.dumps({"done": time.monotonic(), "problems": problems}))


def measure_setup(workload_name):
    """Median seconds from spawning a fresh process to the end of its
    warm-up job, over SETUP_PROBES processes, and any problems seen."""
    samples, problems = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload_name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            problems.append(f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(report["done"] - t0)
        problems += report["problems"]
    if not samples:
        raise SystemExit(f"benchmark: every setup probe failed: {problems[-1]}")
    return statistics.median(samples), samples, problems


# =====================================================================
# the two kinds of run
# =====================================================================


def end_to_end(cli, workload, seed, seconds, workdir):
    setup_s, setup_samples, problems = measure_setup(workload.name)
    client = Client(cli, workload, workdir)
    problems += client.reference_job()
    loop = Loop(client, seed)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        loop.step()
    problems += loop.problems

    times = sorted(loop.times)
    tail, beyond = _percentile(times, workload.tail_pct)
    units = len(times) * workload.units_per_job
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (units / math.fsum(times), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(times), "ms"),
        "job_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        "units_per_s": f"{units} units in {math.fsum(times):.2f} s of {len(times)} jobs",
        "job_ms_p50": f"{len(times)} jobs",
        "job_ms_tail": f"p{workload.tail_pct} of {len(times)} jobs, {beyond} beyond it",
        "peak_rss_mib": "ru_maxrss of this process",
    }
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit:<4}  ({notes[name]})")
    error_rate = loop.failed / max(loop.attempted, 1)
    print(
        f"  {'error_rate':<13} {error_rate:12.4f} {'':<4}  "
        f"({loop.failed} of {loop.attempted} units failed)"
    )
    return problems, loop.attempted, loop.failed, metrics


def traced(cli, workload, seed, seconds, workdir):
    """Alternate traced and untraced jobs; per-layer metrics come from the
    traced ones, the tracing overhead from the ratio of their mean times."""
    client = Client(cli, workload, workdir)
    problems = client.reference_job()
    tracer = Tracer()
    loop = Loop(client, seed)
    spent = {True: [], False: []}
    units_traced = replicates = exact = csv_bytes = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not spent[True] or not spent[False]:
        on = len(loop.times) % 2 == 0
        before = (loop.replicates, loop.exact, loop.csv_bytes)
        if on:
            tracer.keep_spans = not spent[True]
            tracer.install()
        try:
            spent[on].append(loop.step())
        finally:
            tracer.uninstall()
            tracer.end_job()
        if on:
            units_traced += workload.units_per_job
            replicates += loop.replicates - before[0]
            exact += loop.exact - before[1]
            csv_bytes += loop.csv_bytes - before[2]
    problems += loop.problems

    overhead = statistics.fmean(spent[True]) / statistics.fmean(spent[False]) - 1.0
    values = tracer.metrics(
        units_traced,
        {
            "cluster.exact_recovery": exact / replicates if replicates else 0.0,
            "cli.csv_bytes": csv_bytes / units_traced,
            "trace.overhead_pct": 100.0 * overhead,
        },
    )
    units = dict(per_layer_metrics())
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    spans_path = WORK / f"spans-{workload.name}.json"
    tracer.write_spans(spans_path)
    print(
        f"workload {workload.name} traced: {len(spent[True])} traced and "
        f"{len(spent[False])} untraced jobs, {units_traced} traced units, "
        f"overhead {100.0 * overhead:+.1f}%, spans of the first traced job "
        f"in {spans_path.relative_to(ROOT)}"
    )
    if tracer.lost:
        print(f"  lost coverage (metrics read -1): {', '.join(tracer.lost)}")
    print(f"  {'function, per unit':<40} {'calls':>9} {'self_ms':>9} {'incl_ms':>9}")
    for name, self_s in tracer.self_s.most_common():
        print(
            f"  {name:<40} {tracer.calls[name] / units_traced:9.4g} "
            f"{1e3 * self_s / units_traced:9.4f} "
            f"{1e3 * tracer.total_s[name] / units_traced:9.4f}"
        )
    print("  per-layer metrics (zeros omitted):")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:<40} {value:14.6g} {unit}")
    errors = ", ".join(f"{k}={v}" for k, v in sorted(tracer.errors.items()))
    print(f"  exceptions escaping traced calls: {errors or 'none'}")
    return problems, loop.attempted, loop.failed, metrics


def run_workload(args):
    cli = import_cli()
    workload = wl.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        kind = traced if args.trace else end_to_end
        problems, attempted, failed, metrics = kind(
            cli, workload, args.seed, args.seconds, tmp
        )
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
    elif args.self_test:
        import selftest

        return selftest.main(import_cli())
    elif args.workload == "all":
        return run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        parser.error("give --workload or --self-test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
