"""Regenerate the reference tables in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs each workload's job at the reference seed with the program in this
checkout's src/ and keeps its CSV.  The committed tables come from the
commit that introduced the benchmark; regenerate them only when a change
is meant to alter the output, and say so in CHANGES.md.
"""

import sys

import workloads as wl
from run import import_cli


def main():
    cli = import_cli()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS.values():
        config = wl.REFERENCE_DIR / f"{workload.name}.cfg"
        config.write_text(workload.config, encoding="utf-8")
        out = workload.reference_path()
        out.unlink(missing_ok=True)
        argv = [workload.kind, "--config", str(config), "--out", str(out)]
        code = cli.run(argv + ["--seed", str(wl.REFERENCE_SEED)])
        config.unlink()
        problems = wl.check_job(workload, out, code).problems
        if problems:
            print(f"{workload.name}: {problems}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
