"""The four benchmark workloads: CLI configurations and output checks.

Each workload is one `lowrank-rep` subcommand at a fixed configuration.  A
job is one CLI invocation; job j of a run uses CLI seed
`workload_seed + j * units_per_job`, so the replicate seeds of different
jobs never overlap.  A unit is one replicate, battery instance or posterior
table.

Every job's CSV is checked for invariants that hold at any seed
(`check_job`).  The reference job at REFERENCE_SEED is also compared cell by
cell against the tables in `reference/` (`compare_reference`), which
`make_reference.py` generates from the program.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
# criterion-2 tolerance: floats may move at roundoff level, not beyond
FLOAT_RTOL = 1e-6
# absolute floor, as a share of the column's largest magnitude, for cells
# whose value is itself at roundoff level (remainders, near-zero means)
FLOAT_FLOOR = 1e-12
WEIGHT_SUM_TOL = 1e-12
BATTERY_CERTS_PER_INSTANCE = 12


def _csv_floats(matrix):
    return ",".join(repr(float(v)) for v in np.asarray(matrix).ravel())


# truths of acceptance criteria 5 and 7 (tests/test_acceptance.py)
_SBM_FACTOR = np.array([[0.8, 0.1], [0.1, 0.7], [0.45, 0.55]])
SBM_SIGMA = _SBM_FACTOR @ _SBM_FACTOR.T
BIC_SIGMA = np.outer([1.0, 2.0, 3.0], [1.0, 0.5, 2.0]) + np.outer(
    [2.0, -1.0, 1.0], [0.5, 2.0, -1.0]
)
SPIKED_P, SPIKED_R = 48, 2
_SPIKED_A0 = np.zeros((SPIKED_P - SPIKED_R, SPIKED_R))
_SPIKED_A0[1] = (0.42, -0.21)
_SPIKED_A0[4] = (0.18, 0.33)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI kind at a fixed config."""

    name: str
    kind: str
    config: str
    units_per_job: int
    rows_per_unit: int
    header: tuple
    exact_cols: frozenset  # integer and status columns: must match exactly
    # percentile reported as job_ms_tail, fixed per workload so that runs
    # compare; at 20 s it leaves at least ten jobs beyond it (README.md)
    tail_pct: int
    why: str = field(default="", compare=False)

    @property
    def rows_per_job(self):
        return self.units_per_job * self.rows_per_unit

    def job_seed(self, workload_seed, job):
        return workload_seed + job * self.units_per_job

    def reference_path(self):
        return REFERENCE_DIR / f"{self.name}.csv"


def _study_header(size_cols, d, main):
    return tuple(
        ["replicate", *size_cols, "aligned_hamming", "excluded_flag"]
        + [f"z_{j + 1}" for j in range(d)]
        + [f"mse_{main}", "mse_naive"]
    )


_SPIKED_D = (SPIKED_P - SPIKED_R) * SPIKED_R + SPIKED_R * (SPIKED_R + 1) // 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sbm-onestep",
            kind="sbm-sim",
            config=(
                f"K=3\nSigma0={_csv_floats(SBM_SIGMA)}\nr=2\n"
                "n_values=1200\nreplicates=4\n"
            ),
            units_per_job=4,
            rows_per_unit=1,
            header=_study_header(["n"], 5, "onestep"),
            exact_cols=frozenset(
                {"replicate", "n", "aligned_hamming", "excluded_flag"}
            ),
            tail_pct=85,
            why="headline SBM study at the criterion-5 truth (K=3, r=2, "
            "n=1200): sbm, cluster and rngs do the work, the chart layers "
            "almost none (p=3)",
        ),
        Workload(
            name="bicluster-lse",
            kind="bicluster-sim",
            config=(
                f"p1=3\np2=3\nSigma0={_csv_floats(BIC_SIGMA)}\nr=2\n"
                "sizes=800x800\nreplicates=8\nsigma2=1\n"
            ),
            units_per_job=8,
            rows_per_unit=1,
            header=_study_header(["m", "n"], 8, "lse"),
            exact_cols=frozenset(
                {"replicate", "m", "n", "aligned_hamming", "excluded_flag"}
            ),
            tail_pct=90,
            why="criterion-7 biclustering study (800x800, r=2): the only "
            "workload running bicluster, rectrep and svds; k-means is a third "
            "of its work",
        ),
        Workload(
            name="spiked-p48",
            kind="spiked-limit-posterior",
            config=(
                f"p={SPIKED_P}\nr={SPIKED_R}\n"
                f"A0={_csv_floats(_SPIKED_A0)}\n"
                "mu=2.2,0.4,1.6\nn=400\ncap=3\n"
            ),
            units_per_job=1,
            rows_per_unit=45,
            header=tuple(
                ["component", "support", "size", "weight"]
                + [f"mean_{j + 1}" for j in range(_SPIKED_D)]
            ),
            exact_cols=frozenset({"component", "support", "size"}),
            tail_pct=80,
            why="limit posterior at p=48, r=2 (45 components): dense "
            "commutation/kron/dsigma/fisher_spiked calculus does ~90% of the "
            "work and sets peak memory",
        ),
        Workload(
            name="bounds-battery",
            kind="check-bounds",
            config="p=10\nr=3\ndraws=10\n",
            units_per_job=10,
            rows_per_unit=BATTERY_CERTS_PER_INSTANCE,
            header=("instance", "label", "status", "observed", "bound"),
            exact_cols=frozenset({"instance", "label", "status"}),
            tail_pct=90,
            why="criterion-1 certificate battery (p<=10, r<=3): ~40 tiny "
            "chart calls per instance, bound by per-call overhead; each job "
            "writes a fresh CSV path",
        ),
    )
}


# =====================================================================
# CSV reading
# =====================================================================


@dataclass
class Table:
    header: list
    rows: list  # list of lists of cell strings
    comments: list  # '#' lines with the '# ' prefix removed


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty output file")
    header = lines[0].split(",")
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line[2:])
        elif comments:
            raise ValueError("data row after summary lines")
        else:
            rows.append(line.split(","))
    return Table(header, rows, comments)


# =====================================================================
# invariants that hold at any seed
# =====================================================================


@dataclass
class JobCheck:
    """Outcome of checking one job's output."""

    units: int
    failed_units: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    replicates: int = 0
    exact_recoveries: int = 0  # replicates with aligned_hamming == 0

    def fail_all(self, problem):
        self.problems.append(problem)
        self.failed_units.update(range(self.units))

    def fail(self, unit, problem=None):
        self.failed_units.add(unit)
        if problem is not None:
            self.problems.append(problem)


def check_job(workload, path, exit_code):
    """Check one job's CSV; returns a JobCheck.

    A unit fails when the job exits non-zero, its output check fails, it is
    a replicate with aligned_hamming=-1 or with excluded_flag=1 and
    aligned_hamming=0, or it is a battery instance with a 'fail' row.
    Problems (wrong schema, non-finite z on an included row, 'fail' rows,
    unnormalized weights) make the run incorrect; failed units are counted.
    """
    res = JobCheck(workload.units_per_job)
    if exit_code != 0:
        res.fail_all(f"exit status {exit_code}")
        return res
    try:
        table = read_table(path)
    except (OSError, ValueError) as exc:
        res.fail_all(f"unreadable output: {exc}")
        return res
    if tuple(table.header) != workload.header:
        res.fail_all("unexpected header")
        return res
    if len(table.rows) != workload.rows_per_job or any(
        len(row) != len(table.header) for row in table.rows
    ):
        res.fail_all(f"expected {workload.rows_per_job} full rows")
        return res
    try:
        _KIND_CHECKS[workload.kind](workload, table, res)
    except ValueError as exc:
        res.fail_all(f"malformed cell: {exc}")
    return res


def _check_study(workload, table, res):
    col = {name: i for i, name in enumerate(table.header)}
    z_cols = [i for name, i in col.items() if name.startswith("z_")]
    for unit, row in enumerate(table.rows):
        if int(row[col["replicate"]]) != unit:
            res.fail(unit, f"row {unit}: replicate {row[col['replicate']]}")
        ham = int(row[col["aligned_hamming"]])
        excluded = int(row[col["excluded_flag"]])
        res.replicates += 1
        res.exact_recoveries += int(ham == 0)
        if ham == -1 or (excluded == 1 and ham == 0):
            res.fail(unit)
        if excluded == 0 and not all(math.isfinite(float(row[i])) for i in z_cols):
            res.fail(unit, f"replicate {unit}: non-finite z on an included row")


def _check_posterior(workload, table, res):
    col = {name: i for i, name in enumerate(table.header)}
    weights = [float(row[col["weight"]]) for row in table.rows]
    if [int(row[col["component"]]) for row in table.rows] != list(
        range(len(table.rows))
    ):
        res.fail(0, "components not numbered 0..k-1")
    if not all(math.isfinite(w) and 0.0 <= w <= 1.0 for w in weights):
        res.fail(0, "posterior weight outside [0, 1]")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        res.fail(0, f"posterior weights sum to {total!r}")


def _check_battery(workload, table, res):
    col = {name: i for i, name in enumerate(table.header)}
    per_instance = [0] * workload.units_per_job
    for row in table.rows:
        unit = int(row[col["instance"]])
        if not 0 <= unit < workload.units_per_job:
            res.fail_all(f"instance {unit} out of range")
            return
        per_instance[unit] += 1
        status = row[col["status"]]
        if status == "fail":
            res.fail(unit, f"instance {unit}: certificate {row[col['label']]} failed")
        elif status not in ("pass", "gated"):
            res.fail(unit, f"instance {unit}: status {status!r}")
    for unit, count in enumerate(per_instance):
        if count != workload.rows_per_unit:
            res.fail(unit, f"instance {unit}: {count} certificate rows")


_KIND_CHECKS = {
    "sbm-sim": _check_study,
    "bicluster-sim": _check_study,
    "spiked-limit-posterior": _check_posterior,
    "check-bounds": _check_battery,
}


# =====================================================================
# comparison against the reference tables
# =====================================================================


def _floats_agree(a, b, floor):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + floor


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _values_agree(got, want, exact, floor=0.0):
    if exact or not (_is_number(got) and _is_number(want)):
        return got == want
    return _floats_agree(float(got), float(want), floor)


def _comment_pairs(line):
    return [tok.partition("=")[::2] for tok in line.split()]


def compare_reference(workload, path):
    """Cell-by-cell comparison with the reference table.  Returns problems.

    Integer and status columns must match exactly, floats to FLOAT_RTOL
    relative (with a roundoff floor scaled to the column).  Summary lines
    compare key by key: integers exactly, floats to the same tolerance.
    """
    try:
        got, want = read_table(path), read_table(workload.reference_path())
    except (OSError, ValueError) as exc:
        return [f"cannot compare with reference: {exc}"]
    if got.header != want.header or len(got.rows) != len(want.rows):
        return ["header or row count differs from the reference"]
    problems = []
    for j, name in enumerate(want.header):
        exact = name in workload.exact_cols
        column = [row[j] for row in want.rows]
        floor = 0.0
        if not exact:
            finite = [abs(v) for v in map(float, column) if math.isfinite(v)]
            floor = FLOAT_FLOOR * max(finite, default=0.0)
        for i, (g_row, w_cell) in enumerate(zip(got.rows, column)):
            if not _values_agree(g_row[j], w_cell, exact, floor):
                problems.append(
                    f"row {i} column {name}: {g_row[j]} != reference {w_cell}"
                )
    if len(got.comments) != len(want.comments):
        problems.append("summary line count differs from the reference")
    for g_line, w_line in zip(got.comments, want.comments):
        g_pairs, w_pairs = _comment_pairs(g_line), _comment_pairs(w_line)
        if [k for k, _ in g_pairs] != [k for k, _ in w_pairs]:
            problems.append(f"summary keys differ: {g_line!r}")
            continue
        for (key, g), (_, w) in zip(g_pairs, w_pairs):
            integral = not any(c in g + w for c in ".eEn")
            if not _values_agree(g, w, integral):
                problems.append(f"summary {key}: {g} != reference {w}")
    return problems
