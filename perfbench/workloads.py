"""The four benchmark workloads: input generation, work accounting and the
per-operation correctness gate.

Every program input is drawn, with the workload seed, from a small finite
set whose key outputs were recorded at the commit that defined the
benchmark (``reference.json``, rebuilt by ``record_reference.py``).  The
program receives only the generated argv.

Why these four (ROADMAP items 1-5 all need them):

* ``sweep-standard``: the paper's headline error-scaling sweep.  Verlet at
  129 sites is bound by per-call overhead; its three eps points are where
  ensemble batching acts.
* ``justify-generalized``: one O(eps^3) point with 1e5 steps, where the
  envelope stencil (RK4 and ``rhs``) dominates and sweep batching is
  bypassed.
* ``chain-wide``: the same Verlet layer at 16385 sites, where arithmetic,
  not call overhead, dominates; a per-call-overhead cut should not move it.
* ``soliton-wide``: the dense Newton solve at N = 1024, the only workload
  where ``solitons`` does the work and where peak memory should move.

BENCHMARK.json gates only ``sweep-standard`` and ``chain-wide``, which
between them call every measured layer.  The host's speed drifts by up to
2x over tens of seconds, so a run needs 60 s to average it out, and the
run budget allows that for two workloads.  ``justify-generalized`` and
``soliton-wide`` run by name, untraced or traced, like the gated two.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Program seeds with recorded references, for the workloads whose seed
# only perturbs initial data.
PROGRAM_SEEDS = tuple(range(16))

SWEEP_EPS = (0.1, 0.05, 0.025)
JUSTIFY_SITES = 2 * 64 + 1  # the justify subcommand's default --n 64
DT = 1e-3

# soliton-wide: Omega_s on a grid of step 1.5/48 (exact in binary) over
# [1.5, 3.0), split into six strata of eight points.  Each run takes one
# point per stratum, single-site and two-site seeds alternating, so every
# run mixes Newton iteration counts the same way whatever the seed.
OMEGA_STEP = 1.5 / 48
OMEGA_STRATA = 6
OMEGA_PER_STRATUM = 8
SOLITON_N = 1024
SOLITON_PATTERNS = ("0", "0:1,1:-1")

# Relative tolerance on the recorded key outputs: far above reordered
# floating-point sums, far below any change of the computed trajectory.
REL_TOL = 1e-6
SLOPE_RANGE = (0.8, 1.2)
COERCIVITY_FACTOR = 4.0
NEWTON_DEFECT_MAX = 1e-10


def _steps(t_end: float) -> int:
    return max(1, int(round(t_end / DT)))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


# -- justify workloads ---------------------------------------------------------


def _sweep_argv(seed: int) -> list[str]:
    return ["justify", "--sweep", ",".join(map(repr, SWEEP_EPS)), "--rho-rule", "eps",
            "--c0-scale", "0.5", "--seed", str(seed)]


def _generalized_argv(seed: int) -> list[str]:
    return ["justify", "--regime", "generalized", "--epsilon", "0.1",
            "--amplitude-scale", "0.5", "--c0-scale", "0.5", "--seed", str(seed)]


def _justify_outputs(outdir: Path) -> dict:
    summary = _read_json(outdir / "summary.json")
    out = {"sup_error": [pt["sup_error"] for pt in summary["points"]]}
    if "slope" in summary:
        out["slope"] = summary["slope"]
    return out


def _justify_invariants(outdir: Path, outputs: dict) -> list[str]:
    problems = []
    slope = outputs.get("slope")
    if slope is not None and not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        problems.append(f"slope={slope!r} outside {SLOPE_RANGE}")
    reports = sorted(outdir.glob("report_eps*.csv"))
    if len(reports) != len(outputs["sup_error"]):
        problems.append(f"{len(reports)} report CSVs for {len(outputs['sup_error'])} points")
    for path in reports:
        for line in path.read_text().splitlines()[2:]:
            _, err, q, _ = (float(v) for v in line.split(","))
            if not err <= COERCIVITY_FACTOR * q * (1.0 + 1e-12):
                problems.append(f"{path.name}: error_norm {err!r} > 4 Q = {4.0 * q!r}")
                break
    return problems


def _justify_check(outputs: dict, ref: dict) -> list[str]:
    problems = []
    if len(outputs["sup_error"]) != len(ref["sup_error"]):
        problems.append(f"{len(outputs['sup_error'])} sweep points, reference has "
                        f"{len(ref['sup_error'])}")
    for i, (v, r) in enumerate(zip(outputs["sup_error"], ref["sup_error"])):
        if not _close(v, r):
            problems.append(f"sup_error[{i}]={v!r} differs from reference {r!r}")
    if "slope" in ref:
        slope = outputs.get("slope")
        if slope is None or not _close(slope, ref["slope"]):
            problems.append(f"slope={slope!r} differs from reference {ref['slope']!r}")
    return problems


# -- chain-wide ---------------------------------------------------------------

CHAIN_N = 8192
CHAIN_T_END = 20.0


def _chain_argv(seed: int) -> list[str]:
    return ["simulate-dkg", "--n", str(CHAIN_N), "--init", "random", "--amplitude", "0.1",
            "--t-end", repr(CHAIN_T_END), "--stride", "1000", "--seed", str(seed)]


def _chain_outputs(outdir: Path) -> dict:
    summary = _read_json(outdir / "summary.json")
    return {"energy_drift_abs": summary["energy_drift_abs"],
            "energy_initial": summary["energy_initial"]}


def _no_invariants(outdir: Path, outputs: dict) -> list[str]:
    return []


def _chain_check(outputs: dict, ref: dict) -> list[str]:
    return [f"{key}={outputs[key]!r} differs from reference {ref[key]!r}"
            for key in ref if not _close(outputs[key], ref[key])]


# -- soliton-wide -------------------------------------------------------------


def _soliton_argv(omega_index: int) -> list[str]:
    stratum = omega_index // OMEGA_PER_STRATUM
    omega = 1.5 + OMEGA_STEP * omega_index
    return ["soliton", "--n", str(SOLITON_N), "--omega-s", repr(omega),
            "--seed-sites", SOLITON_PATTERNS[stratum % 2]]


def _soliton_outputs(outdir: Path) -> dict:
    profile = _read_json(outdir / "soliton.json")
    return {"norm": math.sqrt(math.fsum(a * a for a in profile["A"])),
            "newton_residual": profile["newton_residual"],
            "iterations": profile["iterations"]}


def _soliton_invariants(outdir: Path, outputs: dict) -> list[str]:
    # The defect sits at rounding level, so it is held to the acceptance
    # threshold rather than compared relatively.
    if not outputs["newton_residual"] <= NEWTON_DEFECT_MAX:
        return [f"Newton defect {outputs['newton_residual']!r} > {NEWTON_DEFECT_MAX}"]
    return []


def _soliton_check(outputs: dict, ref: dict) -> list[str]:
    problems = []
    if not _close(outputs["norm"], ref["norm"]):
        problems.append(f"profile norm {outputs['norm']!r} differs from reference "
                        f"{ref['norm']!r}")
    if outputs["iterations"] != ref["iterations"]:
        problems.append(f"{outputs['iterations']} Newton iterations, reference has "
                        f"{ref['iterations']}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    # Every argv the workload can generate; references cover exactly these.
    all_argvs: Callable[[], list[list[str]]]
    # The argv list of one run, drawn with the workload seed.
    draw: Callable[[random.Random], list[list[str]]]
    # Chain sites x Verlet steps (or ring sites x Newton iterations) of one
    # successful operation.
    site_steps: Callable[[dict], int]
    outputs: Callable[[Path], dict]
    # Checks that need no reference; they run on every operation, also
    # when references are recorded.
    invariants: Callable[[Path, dict], list[str]]
    # Comparison of the key outputs with the recorded reference.
    check: Callable[[dict, dict], list[str]]
    # Wrapped names (spans.Target.name) every operation must call.
    expected: frozenset


_JUSTIFY_EXPECTED = frozenset({
    "dklab.approximation._advance_verlet", "dklab.approximation._rk4_step",
    "dklab.approximation.rhs", "dklab.approximation.leading_order",
    "dklab.approximation.error_energy", "dklab.approximation.run_justification",
    "dklab.solitons.solve_soliton", "dklab.cli._write_json",
    "dklab.approximation.JustificationReport.write_csv",
})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-standard",
            lambda: [_sweep_argv(s) for s in PROGRAM_SEEDS],
            lambda rng: [_sweep_argv(s) for s in rng.sample(PROGRAM_SEEDS, 3)],
            lambda out: JUSTIFY_SITES * sum(_steps(1.0 / e) for e in SWEEP_EPS),
            _justify_outputs,
            _justify_invariants,
            _justify_check,
            _JUSTIFY_EXPECTED,
        ),
        Workload(
            "justify-generalized",
            lambda: [_generalized_argv(s) for s in PROGRAM_SEEDS],
            lambda rng: [_generalized_argv(s) for s in rng.sample(PROGRAM_SEEDS, 2)],
            lambda out: JUSTIFY_SITES * _steps(1.0 / 0.1**2),
            _justify_outputs,
            _justify_invariants,
            _justify_check,
            _JUSTIFY_EXPECTED,
        ),
        Workload(
            "chain-wide",
            lambda: [_chain_argv(s) for s in PROGRAM_SEEDS],
            lambda rng: [_chain_argv(s) for s in rng.sample(PROGRAM_SEEDS, 3)],
            lambda out: (2 * CHAIN_N + 1) * _steps(CHAIN_T_END),
            _chain_outputs,
            _no_invariants,
            _chain_check,
            frozenset({
                "dklab.integrators._advance_verlet", "dklab.cli.energy_dkg",
                "dklab.cli.l2_norm", "dklab.cli._write_json",
                "dklab.integrators.Trajectory.write_csv",
                "dklab.lattice_core.LatticeState.write_csv",
            }),
        ),
        Workload(
            "soliton-wide",
            lambda: [_soliton_argv(i) for i in range(OMEGA_STRATA * OMEGA_PER_STRATUM)],
            lambda rng: [_soliton_argv(k * OMEGA_PER_STRATUM + rng.randrange(OMEGA_PER_STRATUM))
                         for k in range(OMEGA_STRATA)],
            lambda out: (2 * SOLITON_N + 1) * out["iterations"],
            _soliton_outputs,
            _soliton_invariants,
            _soliton_check,
            frozenset({
                "dklab.solitons.solve_soliton", "dklab.cli._write_json",
                "dklab.solitons.SolitonProfile.write_csv",
            }),
        ),
    )
}


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)
