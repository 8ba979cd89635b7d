"""dklab benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-standard --seed 0 --seconds 60 --trace 0

Each run is one process and one workload.  It imports ``dklab`` from
``src/`` next to this directory and runs real experiments back to back
through ``dklab.cli.main(argv)``, the path the ``dklab`` command takes: a
closed loop with one client and no added threads.  Each operation writes
into a fresh directory under ``.bench_out/`` and is checked against
references recorded per input (see ``workloads.py``); a failed check, an
exception, a nonzero exit or a timeout counts as a failed operation and the
run goes on.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (a fresh
interpreter importing ``dklab.cli`` and validating the run's argv lists,
median of several), ``op_s`` (mean seconds of one operation; the median
and a tail percentile are printed too), ``site_steps_per_s`` (all site
steps over all operation seconds), ``peak_rss_mb`` and ``ok_frac``
(1 - fail_frac).
``--trace 1`` alternates untraced and traced operations on the same argv
and prints the per-layer metrics of ``spans.py`` plus the tracing overhead.
The last line of standard output is the JSON result; the lines before it
are a readable table, the pinned environment and any failures.
"""

from __future__ import annotations

import os

# Pinned before numpy loads.  One BLAS thread is the steadier choice on a
# small shared host; it matters (soliton-wide on a 2-core host: about 1.1 s
# per operation with one thread, 0.8 s with two).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, argv_key  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_SAMPLES = 5
# A hang (such as a non-advancing stride) is cut here and recorded as a
# failed operation; the slowest workload takes about 4 s per operation.
OP_TIMEOUT_S = 30.0
# No operation starts after this, so a run ends well within 180 s even
# when operations time out.
HARD_STOP_S = 100.0
TAIL_SAMPLES = 10  # samples required beyond a reported tail percentile
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

SETUP_CODE = """
import contextlib, io, json, sys
from dklab import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.parse_and_validate(argv + ["--out", "unused"])
"""


NO_REFERENCE = "no recorded reference for this argv"


class OpTimeout(Exception):
    """Raised by the interval timer when an operation overruns."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:g} s")


@dataclass
class OpResult:
    argv: list
    seconds: float
    problems: list = field(default_factory=list)
    outputs: dict | None = None
    bytes_written: int = 0
    site_steps: int = 0
    trace: spans.OpTrace | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(argvs: list[list[str]]) -> list[float]:
    """Fresh-interpreter import of dklab.cli plus validation of every argv,
    timed from spawn to exit; the first (byte-compiling) run is dropped."""
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(argvs)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        # The interval timer bounds the wait: subprocess.run's own timeout
        # polls the child in steps of up to 50 ms, which would quantise the
        # measurement.  On OpTimeout, subprocess.run kills and reaps the child.
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True,
                           stdout=subprocess.DEVNULL)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if i:
            samples.append(time.perf_counter() - start)
    return samples


def _digest_outputs(outdir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


class Runner:
    """Runs and checks operations of one workload in this process."""

    def __init__(self, cli, workload, references: dict, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.references = references
        self.workdir = workdir
        self.tracer = spans.Tracer()
        self.first_digest: dict[str, str] = {}
        self.count = 0

    def run(self, argv: list[str], traced: bool = False) -> OpResult:
        self.count += 1
        outdir = self.workdir / f"op{self.count}"
        stderr = io.StringIO()
        problems = []
        if traced:
            self.tracer.begin()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv + ["--out", str(outdir)])
            if rc != 0:
                problems.append(f"exit code {rc}: {stderr.getvalue().strip()}")
        except OpTimeout as exc:
            problems.append(f"timeout: {exc}")
        except Exception:  # a crashing operation must not end the run
            problems.append("exception: " + traceback.format_exc(limit=3).strip())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            trace = self.tracer.end(seconds) if traced else None
        result = OpResult(argv, seconds, problems, trace=trace)
        if result.ok:
            self._check(result, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return result

    def _check(self, result: OpResult, outdir: Path) -> None:
        key = argv_key(result.argv)
        try:
            result.outputs = self.workload.outputs(outdir)
            result.problems += self.workload.invariants(outdir, result.outputs)
            ref = self.references.get(key)
            if ref is None:
                result.problems.append(NO_REFERENCE)
            else:
                result.problems += self.workload.check(result.outputs, ref["outputs"])
            result.site_steps = self.workload.site_steps(result.outputs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"unreadable output: {exc!r}")
        digest, result.bytes_written = _digest_outputs(outdir)
        if self.first_digest.setdefault(key, digest) != digest:
            result.problems.append("output bytes differ from an earlier run of the same argv")


# -- statistics ---------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least TAIL_SAMPLES samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            ordered = sorted(values)
            return p, ordered[math.ceil(p / 100.0 * n) - 1]  # nearest rank
    return None


def _op_seconds(results: list[OpResult]) -> list[float]:
    # A failed operation counts as missing any latency limit.
    return [r.seconds if r.ok else OP_TIMEOUT_S for r in results]


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    h = hashlib.sha256()
    for path in sorted((SRC / "dklab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "dklab_commit": commit,
        "dklab_src_sha256": h.hexdigest()[:16],
    }


# -- reports ------------------------------------------------------------------


def end_to_end(results, setup, workload_label: str) -> tuple[dict, list[str]]:
    # Means, not medians: on a shared 2-core host the speed switches between
    # phases of 5-25 s (one sweep-standard operation takes 1.0 s in one and
    # 2.1 s in another, with no steal time), and a run's median lands on one
    # phase or the other while its mean weighs them by time.  Over ten 35 s
    # sweep-standard runs, the run values spread by 0.22 of their median
    # with the mean and 0.33 with the median.
    secs = _op_seconds(results)
    done = [r for r in results if r.ok and r.site_steps]
    rate = sum(r.site_steps for r in done) / sum(r.seconds for r in done) if done else 0.0
    failed = sum(not r.ok for r in results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (statistics.fmean(secs), "s"),
        "site_steps_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / len(results), "fraction"),
    }
    tail = tail_percentile(secs)
    tail_text = (f"p{tail[0]:g}={tail[1]:.4f} s" if tail
                 else f"no tail percentile (needs >= {4 * TAIL_SAMPLES} ops)")
    lines = [
        f"{'metric':<18}{'value':>14}  {'unit':<5} samples",
        f"{'setup_s':<18}{metrics['setup_s'][0]:>14.4f}  {'s':<5} n={len(setup)} (median)",
        f"{'op_s':<18}{metrics['op_s'][0]:>14.4f}  {'s':<5} n={len(secs)} "
        f"(mean; median={statistics.median(secs):.4f} s, {tail_text})",
        f"{'site_steps_per_s':<18}{metrics['site_steps_per_s'][0]:>14.4g}  {'1/s':<5} "
        f"n={len(done)} (total over op seconds; {workload_label})",
        "op seconds in order: " + " ".join(f"{v:.3f}" for v in secs),
        f"{'peak_rss_mb':<18}{peak_rss_mb:>14.1f}  {'MB':<5} n=1 (process peak)",
        f"{'fail_frac':<18}{failed / len(results):>14.4f}  {'frac':<5} "
        f"n={len(results)} ({failed} failed; reported as ok_frac = 1 - fail_frac)",
    ]
    return metrics, lines


# Per-layer metrics: (name, layer, statistic, attribute, unit).  "mean" is
# an exact per-operation count, averaged over one pass through the run's argv
# list so that it repeats exactly for a seed; "median" is taken over traced
# operations; "per_unit" is busy time (or computed bytes) per unit of work
# over all traced operations, scaled as given.
LAYER_METRICS = (
    ("integrators.verlet.steps", "integrators.verlet", "mean", "units", "count"),
    ("integrators.verlet.busy_s", "integrators.verlet", "median", "busy", "s"),
    ("integrators.verlet.us_per_step", "integrators.verlet", "per_unit", ("busy", 1e6), "us"),
    ("integrators.verlet.bytes_per_step_computed", "integrators.verlet", "per_unit",
     ("bytes_computed", 1.0), "B"),
    ("integrators.rk4.steps", "integrators.rk4", "mean", "units", "count"),
    ("integrators.rk4.busy_s", "integrators.rk4", "median", "busy", "s"),
    ("integrators.rk4.self_s", "integrators.rk4", "median", "self_time", "s"),
    ("dnls_models.rhs.calls", "dnls_models.rhs", "mean", "units", "count"),
    ("dnls_models.rhs.busy_s", "dnls_models.rhs", "median", "busy", "s"),
    ("dnls_models.rhs.us_per_call", "dnls_models.rhs", "per_unit", ("busy", 1e6), "us"),
    ("approximation.sample.calls", "approximation.sample", "mean", "units", "count"),
    ("approximation.sample.busy_s", "approximation.sample", "median", "busy", "s"),
    ("approximation.run_justification.self_s", "approximation.run_justification", "median",
     "self_time", "s"),
    ("solitons.solve_soliton.calls", "solitons.solve_soliton", "mean", "calls", "count"),
    ("solitons.solve_soliton.busy_s", "solitons.solve_soliton", "median", "busy", "s"),
    ("solitons.newton.iterations", "solitons.solve_soliton", "mean", "units", "count"),
    ("solitons.newton.ms_per_iteration", "solitons.solve_soliton", "per_unit", ("busy", 1e3),
     "ms"),
    ("lattice_core.observers.busy_s", "lattice_core.observers", "median", "busy", "s"),
    ("cli.write.busy_s", "cli.write", "median", "busy", "s"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(untraced, traced, cycle_len: int, workload, tracer) -> tuple[dict, list[str]]:
    traced = [r for r in traced if r.ok]  # a failed operation's trace is partial
    traces = [r.trace for r in traced]
    cycle = traces[:cycle_len]
    missing = set(tracer.missing)
    for trace in traces:
        missing |= {name for name in workload.expected if not trace.calls_by_name.get(name)}
    missing_layers = {t.layer for t in spans.TARGETS if t.name in missing}

    metrics = {}
    for name, layer, statistic, attr, unit in LAYER_METRICS:
        if layer in missing_layers:
            continue  # reported as MISSING below, never as zero
        if statistic == "mean":
            values = [getattr(t.layers[layer], attr) for t in cycle]
            value = sum(values) / len(values) if values else 0.0
        elif statistic == "median":
            value = _median([getattr(t.layers[layer], attr) for t in traces])
        else:
            attr, scale = attr
            units = sum(t.layers[layer].units for t in traces)
            value = scale * sum(getattr(t.layers[layer], attr) for t in traces) / units if units else 0.0
        metrics[name] = (value, unit)
    byte_counts = [r.bytes_written for r in traced[:cycle_len]]
    metrics["cli.write.bytes"] = (sum(byte_counts) / max(1, len(byte_counts)), "B")
    op_traced = statistics.fmean([t.wall for t in traces]) if traces else 0.0
    op_untraced = statistics.fmean([r.seconds for r in untraced])
    metrics["cli.op.self_s"] = (_median([t.wall - t.child_time for t in traces]), "s")
    metrics["trace.op_s"] = (op_traced, "s")
    metrics["trace.overhead_s"] = (op_traced - op_untraced, "s")
    metrics["trace.missing_names"] = (len(missing), "count")

    lines = [f"{'layer metric':<46}{'value':>14}  unit"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<46}{value:>14.6g}  {unit}")
    lines.append(f"traced ops n={len(traces)}, untraced ops n={len(untraced)}; "
                 f"tracing overhead {op_traced - op_untraced:+.4f} s per op "
                 f"({op_traced:.4f} traced vs {op_untraced:.4f} untraced)")
    absent = [layer for layer in spans.LAYERS
              if not any(t.layers[layer].calls for t in traces) and layer not in missing_layers]
    for layer in spans.LAYERS:
        if layer not in missing_layers and layer not in absent:
            share = _median([t.layers[layer].busy / t.wall for t in traces])
            lines.append(f"share of traced op_s: {layer:<34}{share:8.3f}")
    lines.append("absent (never called, as this workload intends): " + (", ".join(absent) or "none"))
    for name in sorted(missing):
        lines.append(f"MISSING boundary {name}: not found or never called")
    return metrics, lines


COUNTED = {
    "integrators.verlet.steps": lambda r: r.trace.layers["integrators.verlet"].units,
    "integrators.rk4.steps": lambda r: r.trace.layers["integrators.rk4"].units,
    "dnls_models.rhs.calls": lambda r: r.trace.layers["dnls_models.rhs"].units,
    "solitons.newton.iterations": lambda r: r.trace.layers["solitons.solve_soliton"].units,
    "cli.write.bytes": lambda r: r.bytes_written,
}


def count_flags(traced, references) -> list[str]:
    """Exact counts must repeat for every repeat of an argv in the run and
    match the counts recorded with the reference outputs."""
    flags = []
    seen: dict[str, dict] = {}
    for r in traced:
        key = argv_key(r.argv)
        counts = {name: fn(r) for name, fn in COUNTED.items()}
        first = seen.setdefault(key, counts)
        for name, value in counts.items():
            if value != first[name]:
                flags.append(f"{name} is {value} on a repeat of [{key}], first run {first[name]}")
        ref = references.get(key, {}).get("counts", {})
        for name, value in ref.items():
            if counts.get(name) != value:
                flags.append(f"{name} is {counts.get(name)} on [{key}], recorded {value}")
    return flags


# -- entry point --------------------------------------------------------------


def load_dklab_cli():
    if not (SRC / "dklab" / "cli.py").is_file():
        raise SystemExit(f"run.py: no dklab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from dklab import cli

    if Path(cli.__file__).resolve().parent != SRC / "dklab":
        raise SystemExit(f"run.py: imported dklab from {cli.__file__}, not from {SRC}")
    return cli


def load_references(workload: str) -> dict:
    if not REFERENCE.is_file():
        raise SystemExit(f"run.py: missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())["workloads"].get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_dklab_cli()
    workload = WORKLOADS[args.workload]
    references = load_references(workload.name)
    argvs = workload.draw(random.Random(args.seed))
    env = environment(workload.name, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    setup = [] if args.trace else measure_setup(argvs)
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    runner = Runner(cli, workload, references, workdir)
    untraced: list[OpResult] = []
    traced: list[OpResult] = []
    try:
        # No warm-up operation: the package has no lazy set-up beyond its
        # imports, which setup_s measures, and a user's CLI call is always a
        # first call.  Every argv runs at least once (traced and untraced
        # with --trace 1), so byte-identity and exact counts are checked on
        # each input.  The next operation starts only if it is expected to
        # end less than half an operation past --seconds.
        start = time.perf_counter()
        last = 0.0
        i = 0
        while i < len(argvs) or time.perf_counter() - start + last / 2 < args.seconds:
            if time.perf_counter() - start >= HARD_STOP_S:
                break
            op_start = time.perf_counter()
            op_argv = argvs[i % len(argvs)]
            untraced.append(runner.run(op_argv))
            if args.trace:
                traced.append(runner.run(op_argv, traced=True))
            last = time.perf_counter() - op_start
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = untraced + traced
    failed = sum(not r.ok for r in results)
    print("# env " + json.dumps(env, sort_keys=True))
    for r in results:
        for problem in r.problems:
            print(f"FAIL [{argv_key(r.argv)}]: {problem}")
    label = ("ring sites x Newton iterations" if workload.name == "soliton-wide"
             else "chain sites x Verlet steps")
    if args.trace:
        spans_path = OUT_ROOT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([
            {"op": n, "argv": argv_key(r.argv), "wall": r.trace.wall, "spans": r.trace.spans}
            for n, r in enumerate(traced)]) + "\n")
        print(f"# spans of {len(traced)} traced operations in {spans_path.relative_to(ROOT)}")
        metrics, lines = per_layer(untraced, traced, len(argvs), workload, runner.tracer)
        flags = count_flags(traced, references)
        metrics["trace.count_flags"] = (len(flags), "count")
        lines += [f"FLAG {text}" for text in flags]
    else:
        metrics, lines = end_to_end(untraced, setup, label)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
