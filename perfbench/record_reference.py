"""Record the reference outputs and exact counts of every benchmark input.

Usage (from the repository root):

    python3 perfbench/record_reference.py

Each argv every workload can generate runs once untraced and once traced;
the key outputs and the exact counts of the traced run are written afresh
to ``perfbench/reference.json``.  The reference-free checks (slope range,
error bound, Newton defect, byte-identical repeats) must pass on every
argv, or nothing is written.  Re-record only at a commit whose outputs are
known to be right.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, argv_key


def record(cli, workload, workdir: Path) -> dict:
    runner = run.Runner(cli, workload, {}, workdir)
    entries = {}
    for argv in workload.all_argvs():
        plain = runner.run(argv)
        traced = runner.run(argv, traced=True)
        problems = [p for r in (plain, traced) for p in r.problems if p != run.NO_REFERENCE]
        if problems:
            raise SystemExit(f"{argv_key(argv)}: {problems}")
        entries[argv_key(argv)] = {
            "outputs": traced.outputs,
            "counts": {name: fn(traced) for name, fn in run.COUNTED.items()},
        }
        print(f"{workload.name}: {argv_key(argv)}", file=sys.stderr)
    return entries


def main() -> int:
    cli = run.load_dklab_cli()
    signal.signal(signal.SIGALRM, run._on_alarm)
    data = {"environment": run.environment("all", -1), "workloads": {}}
    run.OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_ROOT))
    try:
        for name in sorted(WORKLOADS):
            data["workloads"][name] = record(cli, WORKLOADS[name], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
