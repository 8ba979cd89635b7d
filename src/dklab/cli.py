"""Command-line entry point.

One experiment = one subcommand run into one output directory.  Every
output file embeds a hash of the effective configuration, and re-running
with the same configuration reproduces files byte for byte (fixed summation
order, sweep points run one after another and write in a fixed order).

Subcommands
-----------
simulate-dkg      integrate the chain, streaming energy/norm diagnostics
simulate-dnls     integrate an envelope model, streaming the conserved norm
justify           co-integrate chain + envelope, report the error history;
                  accepts an eps sweep and fits the scaling exponent
justify-extended  same on the extended horizon A |log rho| / rho, checked
                  against a reference constant measured on the plain horizon
normalform        square-root coefficients (Omega, b_m) + decay certificate
thresholds        smallness constants of the normal-form step
soliton           Newton-solve a stationary envelope profile
breather-return   period-return errors of the constructed breather
sweep             alias of ``justify --sweep``

``justify``, ``sweep`` and ``justify-extended`` share their options and
build every run through ``_justify_config``; ``justify-extended`` adds
``--alpha``, ``--big-a`` and ``--c-const``, the other two ``--sweep``,
``--c0-scale`` and ``--svg``.  ``--sweep`` takes distinct eps values and no
``--rho``.  A horizon shorter than one step or longer than
``integrators.MAX_STEPS`` steps is refused before the chain is integrated.

Configuration values may come from a flat key-value file (``--config``,
lines of ``name = value`` with ``#`` comments, names matching the long
option names); explicit command-line flags override file values.

Exit codes: 0 success, 1 errors (bad input or config file, unusable output
directory, numerical failure, memory), each printed as one ``dklab: error:``
line, 2 when a requested bound check did not hold.  The output directory is
created before any work, so a run that fails before writing leaves it empty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import approximation, integrators, normal_form, solitons
from .dnls_models import (
    EnvelopeState,
    GeneralizedDnls,
    NormalFormDnls,
    StandardDnls,
    l2_conserved,
    warn_outside_asymptotic_range,
)
from .errors import BlowUpError, NewtonDivergenceError, NewtonSingularError
from .lattice_core import LatticeState, ModelParams, energy_dkg, l2_norm, write_csv

__all__ = ["ExperimentConfig", "parse_and_validate", "run", "main"]

try:  # version for --version and output metadata
    from importlib.metadata import version as _dist_version

    _VERSION = _dist_version("dklab")
except Exception:  # pragma: no cover - missing metadata in odd installs
    _VERSION = "0.1.0"


class _CliError(Exception):
    """Invalid command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code policy out of argparse's hands
        raise _CliError(message)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict
    outdir: Path
    seed: int
    config_hash: str


# -- parsing -------------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise _CliError(f"{path}:{lineno}: empty key")
        pairs[key.replace("_", "-")] = value
    return pairs


def _config_tokens(pairs: dict[str, str], parser: argparse.ArgumentParser) -> list[str]:
    """Turn file pairs into CLI tokens understood by ``parser`` (placed
    before the user's flags so that explicit flags win)."""
    known = {}
    for action in parser._actions:  # noqa: SLF001 - argparse has no public API for this
        for opt in action.option_strings:
            if opt.startswith("--"):
                known[opt[2:]] = action
    tokens: list[str] = []
    for key, value in pairs.items():
        action = known.get(key)
        if action is None:
            raise _CliError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):  # noqa: SLF001
            if value.lower() in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
            elif value.lower() not in ("0", "false", "no", "off"):
                raise _CliError(f"config key {key!r} expects a boolean, got {value!r}")
        else:
            tokens.extend([f"--{key}", value])
    return tokens


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="out", help="output directory (default: out)")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    sp.add_argument("--config", default=None, help="flat key=value config file")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _CliError(f"--sweep expects a comma-separated float list, got {text!r}") from exc


def _seed_sites(text: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            site, sign = tok.split(":", 1)
            out[int(site)] = float(sign)
        else:
            out[int(tok)] = 1.0
    if not out:
        raise _CliError(f"no seed sites in {text!r}")
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="dklab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dklab {_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate-dkg", help="integrate the chain")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=0.05)
    p.add_argument("--n", type=int, default=64, help="half-size N (2N+1 sites)")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--init", choices=("breather", "onehot", "random"), default="breather")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--omega-s", type=float, default=1.5)
    p.add_argument("--save-states", action="store_true",
                   help="also stream full states to states.jsonl")
    _add_common(p)

    p = sub.add_parser("simulate-dnls", help="integrate an envelope model")
    p.add_argument("--model", choices=("standard", "generalized", "normalform"),
                   default="standard")
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--dt", type=float, default=None,
                   help="default 1e-3 * min(1, 1/nu), resolving the nonlinear "
                        "frequency shift")
    p.add_argument("--t-end", type=float, default=10.0,
                   help="horizon in the model's own clock")
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--init", choices=("soliton", "onehot"), default="soliton")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--omega-s", type=float, default=1.5)
    _add_common(p)

    for name, help_text in (
        ("justify", "error-scaling experiment"),
        ("sweep", "alias of justify --sweep"),
        ("justify-extended", "extended-horizon error bound check"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--regime", choices=tuple(approximation.REGIME_EXPONENTS),
                       default="standard")
        p.add_argument("--rho-rule", choices=tuple(_RHO_RULES), default=None,
                       help="rho = eps or eps^2, the window top of the standard or "
                            "generalized regime; only the regime's own rule is accepted")
        p.add_argument("--rho", type=float, default=None,
                       help="explicit rho (single-eps runs only)")
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--tau0", type=float, default=1.0,
                       help="plain horizon tau0/rho (justify-extended measures C on it)")
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--stride", type=int, default=100)
        p.add_argument("--omega-s", type=float, default=1.5)
        p.add_argument("--amplitude-scale", type=float, default=1.0,
                       help="scale applied to the unit-nonlinearity soliton profile")
        p.add_argument("--a0", choices=("soliton", "onehot"), default="soliton")
        if name == "justify-extended":
            p.add_argument("--alpha", type=float, default=0.5)
            p.add_argument("--big-a", type=float, default=0.5, help="horizon constant A")
            p.add_argument("--c-const", type=float, default=None,
                           help="reference constant C; measured from a plain-horizon run "
                                "if omitted")
        else:
            p.add_argument("--sweep", type=_float_list, default=None,
                           help="comma-separated distinct eps values (overrides --epsilon)")
            p.add_argument("--c0-scale", type=float, default=0.0,
                           help="initial chain perturbation in units of the error scale")
            p.add_argument("--svg", action="store_true", help="emit a log-log SVG plot")
        _add_common(p)

    p = sub.add_parser("normalform", help="square-root coefficients and decay table")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n", type=int, default=32)
    _add_common(p)

    p = sub.add_parser("thresholds", help="normal-form smallness constants")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="small couplings keep f(eps) > 1 with fitted constants")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--c-zeta0", type=float, default=None,
                   help="decay constant of the quadratic seeds (default: fitted)")
    p.add_argument("--c-h1", type=float, default=1.0,
                   help="decay constant of the quartic seeds (no fit available)")
    _add_common(p)

    p = sub.add_parser("soliton", help="stationary envelope profile by Newton")
    p.add_argument("--omega-s", type=float, default=1.5)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--seed-sites", type=_seed_sites, default={0: 1.0},
                   help="e.g. '0' or '0:1,1:-1'")
    _add_common(p)

    p = sub.add_parser("breather-return", help="period-return errors of the breather")
    p.add_argument("--omega-s", type=float, default=1.5)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--periods", type=int, default=3)
    p.add_argument("--dt", type=float, default=1e-3)
    _add_common(p)

    return parser


def _non_finite(value) -> bool:
    """True when a parsed option value is, or holds, a non-finite float."""
    if isinstance(value, dict):  # --seed-sites
        value = list(value.values())
    if isinstance(value, list):  # --sweep
        return any(map(_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def _validate(command: str, params: dict) -> None:
    for name, value in params.items():
        if _non_finite(value):
            raise _CliError(f"--{name.replace('_', '-')} {value} must be finite")
    eps = params.get("epsilon")
    if eps is not None and not (0.0 < eps < 0.5):
        raise _CliError(
            f"--epsilon {eps} out of range: the diagonal-free normalisation "
            "restricts the coupling to (0, 1/2)"
        )
    rho = params.get("rho")
    if rho is not None and not (0.0 < rho <= 1.0):
        raise _CliError(f"--rho {rho} must lie in (0, 1]")
    if params.get("dt") is not None and not (0.0 < params["dt"] <= integrators.MAX_DT):
        raise _CliError(
            f"--dt {params['dt']} must lie in (0, {integrators.MAX_DT}] to resolve the unit "
            "carrier frequency"
        )
    if params.get("n") is not None and params["n"] < 1:
        raise _CliError("--n must be a positive integer")
    if command in ("justify", "sweep", "justify-extended"):
        sweep = params.get("sweep")
        if sweep is not None:
            if not sweep:
                raise _CliError("--sweep needs at least one eps value")
            if len(set(sweep)) < len(sweep):
                raise _CliError(f"--sweep {sweep} repeats an eps value")
            if params["rho"] is not None:
                raise _CliError("--sweep takes no --rho (single-eps runs only); use --rho-rule")
        if params.get("svg") and len(sweep or []) < 3:
            raise _CliError("--svg needs a --sweep of at least 3 eps values to fit a slope")
        c_const = params.get("c_const")
        if c_const is not None and c_const <= 0.0:
            raise _CliError(f"--c-const {c_const} must be positive")
        horizon = "T0star" if command == "justify-extended" else "T0"
        for e in sweep or [params["epsilon"]]:
            _justify_config(params, e, 0, np.zeros(3, dtype=complex), horizon).validate()
            if params["a0"] == "soliton":  # refuses eps Omega_s > MAX_EPS_OMEGA
                solitons.carrier_shift(e, params["omega_s"])


# --rho-rule value -> the regime whose window top eps^(p-1) it names
_RHO_RULES = {"eps": "standard", "eps2": "generalized"}


def _rho_for(params: dict, eps: float) -> float:
    if params.get("rho") is not None:
        return params["rho"]
    regime = _RHO_RULES.get(params.get("rho_rule"), params["regime"])
    return approximation.window_top(regime, eps)


def parse_and_validate(argv=None) -> ExperimentConfig:
    """Parse argv (with optional config-file merge, file < flags), validate
    against the module-level preconditions, and print the effective
    configuration as JSON."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # First pass just to locate --config and the subcommand.
    ns = parser.parse_args(argv)
    if ns.config:
        sub_idx = argv.index(ns.command)
        pairs = _read_config_file(ns.config)
        sub_parser = parser._subparsers._group_actions[-1].choices[ns.command]  # noqa: SLF001
        tokens = _config_tokens(pairs, sub_parser)
        argv = argv[: sub_idx + 1] + tokens + argv[sub_idx + 1 :]
        ns = parser.parse_args(argv)
    if ns.seed < 0:
        raise _CliError(f"--seed {ns.seed} must be non-negative")

    params = {
        k: v for k, v in vars(ns).items() if k not in ("command", "out", "seed", "config")
    }
    if ns.command == "simulate-dnls" and params.get("dt") is None:
        nu = params["nu"] if params["model"] == "standard" else 1.0
        # nu <= 0 keeps 1e-3 so that StandardDnls refuses nu, not the step
        params["dt"] = 1e-3 * min(1.0, 1.0 / nu) if nu > 0.0 else 1e-3
    _validate(ns.command, params)
    hashable = dict(sorted(params.items()))
    hashable["command"] = ns.command
    hashable["seed"] = ns.seed
    digest = hashlib.sha256(
        json.dumps(hashable, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    cfg = ExperimentConfig(
        command=ns.command,
        params=params,
        outdir=Path(ns.out),
        seed=ns.seed,
        config_hash=digest,
    )
    effective = dict(hashable)
    effective["out"] = str(cfg.outdir)
    effective["config_hash"] = digest
    print(json.dumps(effective, sort_keys=True))
    return cfg


# -- output helpers ------------------------------------------------------------


def _write_json(path: Path, payload: dict, config_hash: str) -> None:
    body = {"config_hash": config_hash}
    body.update(payload)
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def _write_svg_loglog(
    path: Path,
    points: list[tuple[float, float]],
    slope: float,
    intercept: float,
    config_hash: str,
) -> None:
    """Minimal deterministic log-log scatter with the fitted line."""
    width, height, pad = 640, 480, 60
    lx = [math.log10(p[0]) for p in points]
    ly = [math.log10(p[1]) for p in points]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x0, x1 = x0 - 0.1 * (x1 - x0 + 1e-9), x1 + 0.1 * (x1 - x0 + 1e-9)
    y0, y1 = y0 - 0.1 * (y1 - y0 + 1e-9), y1 + 0.1 * (y1 - y0 + 1e-9)

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    ln10 = math.log(10.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- config_hash={config_hash} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-20}" text-anchor="middle" font-size="14">log10 eps</text>',
        f'<text x="18" y="{height//2}" font-size="14" transform="rotate(-90 18 {height//2})" text-anchor="middle">log10 sup error</text>',
    ]
    fx0, fx1 = x0 + 0.05 * (x1 - x0), x1 - 0.05 * (x1 - x0)
    fy0 = (slope * (fx0 * ln10) + intercept) / ln10
    fy1 = (slope * (fx1 * ln10) + intercept) / ln10
    lines.append(
        f'<line x1="{sx(fx0):.2f}" y1="{sy(fy0):.2f}" x2="{sx(fx1):.2f}" '
        f'y2="{sy(fy1):.2f}" stroke="steelblue" stroke-width="1.5"/>'
    )
    for px, py in zip(lx, ly):
        lines.append(
            f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="4" fill="crimson"/>'
        )
    lines.append(
        f'<text x="{width-pad}" y="{pad-10}" text-anchor="end" font-size="14">'
        f"slope {slope:.3f}</text>"
    )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


def _soliton_envelope(onehot: bool, amplitude: float, omega_s: float, n_half: int) -> np.ndarray:
    """``amplitude`` times a one-hot or a unit-nonlinearity soliton envelope."""
    if onehot:
        a0 = np.zeros(2 * n_half + 1, dtype=complex)
        a0[n_half] = amplitude
        return a0
    profile = solitons.solve_soliton(omega_s, 1.0, n_half)
    return amplitude * profile.A.astype(complex)


# -- subcommand bodies ----------------------------------------------------------


def _write_run(cfg: ExperimentConfig, traj: integrators.Trajectory, summary: dict) -> None:
    traj.write_csv(cfg.outdir / "trajectory.csv", cfg.config_hash)
    _write_json(cfg.outdir / "final_state.json", traj.final.to_json_dict(), cfg.config_hash)
    traj.final.write_csv(cfg.outdir / "final_state.csv", f"config_hash={cfg.config_hash}")
    _write_json(cfg.outdir / "summary.json", summary, cfg.config_hash)


def _cmd_simulate_dkg(cfg: ExperimentConfig) -> int:
    p = cfg.params
    icfg = integrators.IntegratorConfig(p["dt"], p["t_end"], p["stride"])
    mp = ModelParams(p["epsilon"], p["rho"], p["n"])
    if p["init"] == "breather":
        profile = solitons.solve_soliton(p["omega_s"], p["rho"] / p["epsilon"], p["n"])
        state0 = solitons.build_breather_initial(profile, p["epsilon"], p["rho"])
        if p["amplitude"] != 1.0:
            state0 = LatticeState(p["amplitude"] * state0.x, p["amplitude"] * state0.y)
    elif p["init"] == "onehot":
        x = np.zeros(mp.n_sites)
        x[p["n"]] = p["amplitude"]
        state0 = LatticeState(x, np.zeros(mp.n_sites))
    else:
        rng = np.random.default_rng(cfg.seed)
        state0 = LatticeState(
            p["amplitude"] * rng.standard_normal(mp.n_sites),
            p["amplitude"] * rng.standard_normal(mp.n_sites),
        )
    observers = [
        lambda t, s: {
            "energy": energy_dkg(s, mp.epsilon, mp.rho),
            "norm_x": l2_norm(s.x),
            "norm_y": l2_norm(s.y),
        }
    ]
    with contextlib.ExitStack() as stack:
        if p["save_states"]:
            states = stack.enter_context(open(cfg.outdir / "states.jsonl", "w"))
            states.write(json.dumps({"config_hash": cfg.config_hash}) + "\n")

            def stream(t, state):
                states.write(json.dumps(state.to_json_dict()) + "\n")
                return {}

            observers.append(stream)
        traj = integrators.integrate(state0, mp, icfg, observers)
    energy = traj.diagnostics["energy"]
    _write_run(cfg, traj, {
        "t_end": float(traj.times[-1]),
        "energy_initial": float(energy[0]),
        "energy_drift_abs": float(np.max(np.abs(energy - energy[0]))),
        "samples": len(traj.times),
    })
    return 0


def _cmd_simulate_dnls(cfg: ExperimentConfig) -> int:
    p = cfg.params
    icfg = integrators.IntegratorConfig(p["dt"], p["t_end"], p["stride"])
    n_half = p["n"]
    if p["model"] == "standard":
        model = StandardDnls(p["nu"])
    elif p["model"] == "generalized":
        model = GeneralizedDnls(p["delta"], p["epsilon"])
    else:
        coeffs = normal_form.sqrt_circulant(n_half, p["epsilon"])
        b2 = float(coeffs.b[1]) if n_half >= 2 else None
        model = NormalFormDnls(coeffs.Omega, float(coeffs.b[0]), b2)
    if p["model"] != "normalform":
        warn_outside_asymptotic_range(model, p["epsilon"])
    a0 = _soliton_envelope(p["init"] == "onehot", p["amplitude"], p["omega_s"], n_half)
    env0 = EnvelopeState(a0, 0.0)
    observers = [lambda t, s: {"norm_sq": l2_conserved(s.a)}]
    traj = integrators.integrate(env0, model, icfg, observers)
    norm_sq = traj.diagnostics["norm_sq"]
    _write_run(cfg, traj, {
        "model": p["model"],
        "clock": traj.clock,
        "t_end": float(traj.times[-1]),
        "norm_sq_initial": float(norm_sq[0]),
        "norm_sq_drift_rel": float(
            np.max(np.abs(norm_sq - norm_sq[0])) / max(norm_sq[0], 1e-300)
        ),
    })
    return 0


def _justify_config(
    params: dict, eps: float, seed: int, a0: np.ndarray, horizon: str = "T0"
) -> approximation.JustificationConfig:
    """The run of one eps point of the justify family on the given horizon."""
    return approximation.JustificationConfig(
        epsilon=eps,
        rho=_rho_for(params, eps),
        a0=a0,
        regime=params["regime"],
        horizon=horizon,
        tau0=params["tau0"],
        big_a=params.get("big_a", 0.5),
        alpha=params.get("alpha", 0.5),
        dt=params["dt"],
        sample_stride=params["stride"],
        c0_scale=params.get("c0_scale", 0.0),
        seed=seed,
    )


def _justify_envelope(p: dict) -> np.ndarray:
    return _soliton_envelope(p["a0"] == "onehot", p["amplitude_scale"], p["omega_s"], p["n"])


def _eps_tag(eps: float) -> str:
    return repr(eps).replace(".", "p").replace("-", "m")


def _run_justify_sweep(cfg: ExperimentConfig) -> int:
    p = cfg.params
    eps_list = p.get("sweep") or [p["epsilon"]]
    jconfigs = [_justify_config(p, e, cfg.seed, _justify_envelope(p)) for e in eps_list]
    reports = [approximation.run_justification(jc) for jc in jconfigs]

    # fit before any write, so a failed fit leaves the output directory empty
    payload: dict = {"points": [r.summary_dict() for r in reports]}
    if len(reports) >= 3:
        pairs = [(r.config.epsilon, r.sup_error) for r in reports]
        slope, r2 = approximation.fit_scaling_exponent(pairs)
        payload["slope"] = slope
        payload["r2"] = r2
        if p.get("svg"):
            ln = np.log([pt[0] for pt in pairs])
            lv = np.log([pt[1] for pt in pairs])
            intercept = float(np.mean(lv) - slope * np.mean(ln))
            _write_svg_loglog(
                cfg.outdir / "sweep.svg", pairs, slope, intercept, cfg.config_hash
            )
    for eps, report in zip(eps_list, reports):
        report.write_csv(cfg.outdir / f"report_eps{_eps_tag(eps)}.csv", cfg.config_hash)
    _write_json(cfg.outdir / "summary.json", payload, cfg.config_hash)
    write_csv(
        cfg.outdir / "sweep.csv",
        ("epsilon", "rho", "sup_error", "bound_scale", "ratio"),
        [(r.config.epsilon, r.config.rho, r.sup_error, r.bound_scale, r.ratio) for r in reports],
        [f"config_hash={cfg.config_hash}"],
    )
    return 0


def _cmd_justify_extended(cfg: ExperimentConfig) -> int:
    p = cfg.params
    eps = p["epsilon"]
    a0 = _justify_envelope(p)
    c_const = p["c_const"]
    measured_from = "supplied"
    if c_const is None:
        c_const = approximation.run_justification(_justify_config(p, eps, cfg.seed, a0)).ratio
        measured_from = "plain-horizon run"
    ext = approximation.run_justification(_justify_config(p, eps, cfg.seed, a0, "T0star"))
    bound = c_const * ext.bound_scale
    holds = bool(ext.sup_error <= bound)
    ext.write_csv(cfg.outdir / "extended.csv", cfg.config_hash)
    _write_json(
        cfg.outdir / "extended.json",
        {
            "epsilon": eps,
            "rho": ext.config.rho,
            "alpha": p["alpha"],
            "A": p["big_a"],
            "t_end": float(ext.times[-1]),
            "c_const": c_const,
            "c_const_source": measured_from,
            "sup_error": ext.sup_error,
            "bound": bound,
            "holds": holds,
        },
        cfg.config_hash,
    )
    return 0 if holds else 2


def _cmd_normalform(cfg: ExperimentConfig) -> int:
    p = cfg.params
    coeffs = normal_form.sqrt_circulant(p["n"], p["epsilon"])
    cert = normal_form.decay_certificate(coeffs)
    payload = coeffs.to_json_dict()
    payload["decay_certificate"] = {
        "C_fit": cert.C_fit,
        "holds": cert.holds,
        "max_at": cert.max_at,
        "m_checked": cert.m_checked,
    }
    _write_json(cfg.outdir / "normalform.json", payload, cfg.config_hash)
    write_csv(
        cfg.outdir / "decay.csv",
        ("m", "b_m", "decay_scale"),
        coeffs.decay_table(),
        [f"config_hash={cfg.config_hash}"],
    )
    return 0


def _cmd_thresholds(cfg: ExperimentConfig) -> int:
    p = cfg.params
    coeffs = normal_form.sqrt_circulant(p["n"], p["epsilon"])
    c_zeta0 = p.get("c_zeta0")
    if c_zeta0 is None:
        cert = normal_form.decay_certificate(coeffs)
        c_zeta0 = cert.C_fit if cert.C_fit > 0.0 else 1.0
    consts = normal_form.thresholds(c_zeta0, p["c_h1"], p["epsilon"], coeffs.Omega)
    _write_json(cfg.outdir / "thresholds.json", consts.to_json_dict(), cfg.config_hash)
    return 0


def _cmd_soliton(cfg: ExperimentConfig) -> int:
    p = cfg.params
    profile = solitons.solve_soliton(p["omega_s"], p["nu"], p["n"], p["seed_sites"])
    profile.write_csv(cfg.outdir / "soliton.csv", f"config_hash={cfg.config_hash}")
    _write_json(cfg.outdir / "soliton.json", profile.to_json_dict(), cfg.config_hash)
    return 0


def _cmd_breather_return(cfg: ExperimentConfig) -> int:
    p = cfg.params
    rho = p["epsilon"] * p["nu"]
    profile = solitons.solve_soliton(p["omega_s"], p["nu"], p["n"])
    report = solitons.breather_return_error(
        profile, p["epsilon"], rho, p["periods"], p["dt"]
    )
    write_csv(
        cfg.outdir / "breather_return.csv",
        ("k", "t", "return_error"),
        zip(range(1, len(report.times) + 1), report.times.tolist(), report.errors.tolist()),
        [f"config_hash={cfg.config_hash}"],
    )
    _write_json(
        cfg.outdir / "breather_return.json",
        {
            "period": report.period,
            "omega_fit": report.omega_fit,
            "epsilon": p["epsilon"],
            "rho": rho,
            "errors": report.errors.tolist(),
        },
        cfg.config_hash,
    )
    return 0


_COMMANDS = {
    "simulate-dkg": _cmd_simulate_dkg,
    "simulate-dnls": _cmd_simulate_dnls,
    "justify": _run_justify_sweep,
    "sweep": _run_justify_sweep,
    "justify-extended": _cmd_justify_extended,
    "normalform": _cmd_normalform,
    "thresholds": _cmd_thresholds,
    "soliton": _cmd_soliton,
    "breather-return": _cmd_breather_return,
}


def run(config: ExperimentConfig) -> int:
    """Create the output directory, then execute a validated configuration.
    Returns 0 on success, 2 when a requested bound check failed; a run that
    raises before it writes leaves the directory empty."""
    config.outdir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    try:
        return run(parse_and_validate(argv))
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (
        _CliError,
        ValueError,  # RegimeError, ThresholdError, LinAlgError, UnicodeDecodeError
        BlowUpError,
        NewtonSingularError,
        NewtonDivergenceError,
        OSError,  # unreadable --config, unusable --out
        MemoryError,  # an --n whose arrays cannot be allocated
    ) as exc:
        print(f"dklab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
