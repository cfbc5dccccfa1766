"""Self-test of the benchmark itself: `python3 perfbench/run.py --self-test`.

1. Traced call counts repeat exactly in two traced runs at the same seed.
2. A named function that the program no longer defines is reported as lost
   coverage, and its metrics read -1 instead of 0.
3. The reference comparison accepts roundoff and rejects real changes.
4. BENCHMARK.json lists exactly the metrics the benchmark reports.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import ROOT, WORK, Client, Loop
from tracer import LOST, Tracer, per_layer_metrics

JOBS = {"sbm-onestep": 2, "bicluster-lse": 2, "spiked-p48": 1, "bounds-battery": 5}
SEED = 11


def traced_calls(cli, workload, workdir):
    """Call counts of JOBS[workload] traced jobs at SEED, in a fresh tracer,
    after the untraced warm-up job that a traced run also starts with."""
    client = Client(cli, workload, workdir)
    client.reference_job()
    tracer = Tracer()
    loop = Loop(client, SEED)
    tracer.install()
    try:
        for _ in range(JOBS[workload.name]):
            loop.step()
            tracer.end_job()
    finally:
        tracer.uninstall()
    if loop.problems:
        raise AssertionError(f"{workload.name}: {loop.problems[:3]}")
    return dict(tracer.calls)


def check_counts_repeat(cli, workdir):
    for workload in wl.WORKLOADS.values():
        first = traced_calls(cli, workload, workdir)
        second = traced_calls(cli, workload, workdir)
        if not first or first != second:
            diff = {k for k in first.keys() | second.keys() if first.get(k) != second.get(k)}
            raise AssertionError(f"{workload.name}: call counts differ in {sorted(diff)}")


def check_lost_coverage():
    from lowrank_rep import sbm

    original = sbm.block_counts
    del sbm.block_counts  # as if a refactor had removed it
    try:
        tracer = Tracer()
        tracer.discover()
    finally:
        sbm.block_counts = original
    if tracer.lost != ["sbm.block_counts"]:
        raise AssertionError(f"lost coverage reported as {tracer.lost}")
    values = tracer.metrics(1, {})
    if values["sbm.block_counts.self_ms"] != LOST:
        raise AssertionError("a removed function reads as measured time")
    fresh = Tracer()
    fresh.discover()
    if fresh.lost:
        raise AssertionError(f"coverage lost at this commit: {fresh.lost}")


def check_reference_tolerance(workdir):
    workload = wl.WORKLOADS["sbm-onestep"]
    table = wl.read_table(workload.reference_path())
    col = table.header.index("z_1")

    def compare_with(cell, column=col):
        rows = [list(r) for r in table.rows]
        rows[0][column] = cell
        path = Path(workdir) / "perturbed.csv"
        lines = [",".join(table.header)] + [",".join(r) for r in rows]
        lines += ["# " + c for c in table.comments]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return wl.compare_reference(workload, path)

    z = float(table.rows[0][col])
    if compare_with(repr(z * (1 + 1e-9))):
        raise AssertionError("a roundoff-level change was rejected")
    if not compare_with(repr(z * (1 + 1e-5))):
        raise AssertionError("a change beyond 1e-6 relative was accepted")
    if not compare_with("1", table.header.index("aligned_hamming")):
        raise AssertionError("a changed integer column was accepted")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != per_layer_metrics():
        raise AssertionError("BENCHMARK.json per_layer differs from the tracer's")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")


def main(cli):
    WORK.mkdir(exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        checks = (
            ("traced call counts repeat", lambda: check_counts_repeat(cli, tmp)),
            ("removed functions show as lost coverage", check_lost_coverage),
            ("reference tolerance", lambda: check_reference_tolerance(tmp)),
            ("BENCHMARK.json matches", check_benchmark_json),
        )
        for name, check in checks:
            try:
                check()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit("run as: python3 perfbench/run.py --self-test")
