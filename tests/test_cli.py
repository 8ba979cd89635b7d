"""Command-line interface: parsing, validation, outputs, determinism."""

import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import dklab
from dklab.cli import main, parse_and_validate
from dklab.integrators import MAX_STEPS
from dklab.solitons import MAX_NEWTON_N


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_dir_bytes(root):
    blobs = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            blobs[str(path.relative_to(root))] = path.read_bytes()
    return blobs


class TestParsing:
    def test_justify_defaults(self, capsys):
        cfg = parse_and_validate(["justify"])
        eff = json.loads(capsys.readouterr().out)
        assert cfg.command == "justify"
        assert eff["epsilon"] == 0.05
        assert eff["rho_rule"] is None  # defaults to eps for the standard regime
        assert eff["regime"] == "standard"
        assert eff["n"] == 64
        assert eff["tau0"] == 1.0
        assert eff["dt"] == 1e-3
        assert "config_hash" in eff

    def test_epsilon_range_rejected(self, capsys):
        for command in ("justify", "thresholds"):
            code, _, err = run_cli([command, "--epsilon", "0.6"], capsys)
            assert code == 1
            assert "(0, 1/2)" in err

    def test_regime_violation_rejected(self, capsys):
        # rho = eps^3 is below the standard-regime window eps^2 < rho <= eps
        code, _, err = run_cli(
            ["justify", "--epsilon", "0.1", "--rho", "0.001"], capsys
        )
        assert code == 1
        assert "regime" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command,flag", [
        ("simulate-dkg", "--t-end"),
        ("simulate-dnls", "--t-end"),
        ("justify", "--tau0"),
        ("justify-extended", "--big-a"),
    ])
    def test_non_finite_option_rejected(self, command, flag, value, capsys):
        # a non-finite horizon used to reach int(round(t_end / dt)) and end
        # in an OverflowError or ValueError traceback
        code, _, err = run_cli([command, flag, value], capsys)
        assert code == 1
        assert f"{flag} {value} must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate-dkg", "--n", "4", "--t-end", "1e12"],
        ["simulate-dnls", "--n", "4", "--t-end", "1e12"],
        ["justify", "--n", "4", "--tau0", "1e12"],
        ["justify-extended", "--epsilon", "0.1", "--n", "4", "--tau0", "0.01",
         "--dt", "0.01", "--big-a", "1e12"],
        ["breather-return", "--nu", "1e-9", "--periods", "3000000000", "--n", "4"],
    ], ids=lambda argv: argv[0])
    def test_step_ceiling(self, argv, tmp_path, capsys):
        # finite horizons of 1e13-1e16 steps used to run without bound, and
        # breather-return to allocate one float per period (22 GiB for these arguments)
        start = time.perf_counter()
        code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert time.perf_counter() - start < 10.0
        assert code == 1
        assert re.search(r"needs \d[\d.e+]* steps", err)
        assert f"ceiling of {MAX_STEPS} steps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["justify", "--epsilon", "0.1", "--tau0", "1e-6"],
        ["justify-extended", "--epsilon", "0.1", "--n", "16", "--tau0", "0.05",
         "--dt", "5e-3", "--big-a", "1e-6", "--c-const", "0.3"],
    ], ids=lambda argv: argv[0])
    def test_horizon_shorter_than_step_rejected(self, argv, tmp_path, capsys):
        # both used to run one step of dt, past their horizons of 1e-5 and
        # 2.3e-5, and exit 0
        code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 1
        assert re.search(r"t_end=\S+ must be >= dt=", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["soliton", "breather-return"])
    def test_newton_size_ceiling(self, command, tmp_path, capsys):
        # a 200001 x 200001 dense Jacobian would take 320 GB
        start = time.perf_counter()
        code, _, err = run_cli([command, "--n", "100000", "--out", str(tmp_path)], capsys)
        assert time.perf_counter() - start < 10.0
        assert code == 1
        assert "200001x200001 Newton Jacobian" in err
        assert f"ceiling of N={MAX_NEWTON_N}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sweep,extra", [
        (",", []),
        ("0.1,abc", []),
        ("0.1,0.1,0.1", []),
        ("0.1,0.09,0.08", ["--rho", "0.05"]),
    ])
    def test_bad_sweep_rejected(self, sweep, extra, tmp_path, capsys):
        # three of these used to exit 0: on --epsilon alone, on one eps three
        # times, or with one rho for every eps
        code, _, err = run_cli(
            ["justify", "--sweep", sweep, *extra, "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "--sweep" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(["justify", "--frobnicate", "1"], capsys)
        assert code == 1
        assert "error" in err

    def test_soliton_band_interior_rejected(self, capsys):
        code, _, err = run_cli(["soliton", "--omega-s", "0.5"], capsys)
        assert code == 1
        assert "band" in err

    @pytest.mark.parametrize("command", [
        ["soliton"], ["breather-return", "--periods", "2"], ["simulate-dkg", "--init", "breather"],
    ], ids=lambda argv: argv[0])
    def test_no_profile_below_band(self, command, tmp_path, capsys):
        # Newton used to collapse onto the zero profile and report success,
        # so breather-return exited 0 with return errors of rounding size
        code, _, err = run_cli(
            [*command, "--omega-s", "-1.5", "--n", "8", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "below -1 only the zero profile exists" in err
        assert "Traceback" not in err

    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.startswith("dklab ")

    def test_config_file_merge_and_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("epsilon = 0.07\nn = 16  # half-size\n")
        parse_and_validate(
            ["justify", "--config", str(cfg_file), "--n", "24", "--out", str(tmp_path)]
        )
        eff = json.loads(capsys.readouterr().out)
        assert eff["epsilon"] == 0.07  # from file
        assert eff["n"] == 24  # flag overrides file

    def test_coercivity_epsilon_rejected_for_justify(self, capsys):
        code, _, err = run_cli(["justify", "--epsilon", "0.3"], capsys)
        assert code == 1
        assert "coercive" in err

    @pytest.mark.parametrize("stride", ["0", "-1"])
    @pytest.mark.parametrize(
        "command", ["justify", "sweep", "justify-extended", "simulate-dkg", "simulate-dnls"]
    )
    def test_nonpositive_stride_rejected(self, command, stride, tmp_path, capsys):
        code, _, err = run_cli(
            [command, "--stride", stride, "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert f"stride {stride}" in err

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("frobnicate = 1\n")
        code, _, err = run_cli(["justify", "--config", str(cfg_file)], capsys)
        assert code == 1
        assert "frobnicate" in err


class TestNormalformCommand:
    def test_outputs(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["normalform", "--epsilon", "0.1", "--n", "32", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads((tmp_path / "normalform.json").read_text())
        assert payload["N"] == 32
        assert len(payload["b"]) == 32
        assert payload["b"][0] == pytest.approx(-0.05, abs=5e-3)
        assert payload["decay_certificate"]["holds"] is True
        lines = (tmp_path / "decay.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "m,b_m,decay_scale"
        assert len(lines) == 2 + 32


class TestThresholdsCommand:
    def test_outputs(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["thresholds", "--epsilon", "1e-3", "--n", "16", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads((tmp_path / "thresholds.json").read_text())
        assert payload["f_eps"] > 1.0
        assert payload["Omega"] < payload["gamma"] < 2 * payload["Omega"]
        assert payload["rho_star"] > 0.0

    def test_threshold_violation_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["thresholds", "--epsilon", "0.45", "--n", "16", "--c-zeta0", "1.0",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "threshold" in err


class TestSolitonCommand:
    def test_outputs(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["soliton", "--omega-s", "1.5", "--nu", "1.0", "--n", "16",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        meta = json.loads((tmp_path / "soliton.json").read_text())
        assert meta["newton_residual"] <= 1e-10
        assert meta["iterations"] <= 10
        rows = (tmp_path / "soliton.csv").read_text().splitlines()
        assert rows[1] == "j,A"
        assert len(rows) == 2 + 33

    def test_multi_site_seed_spec(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["soliton", "--omega-s", "2.0", "--seed-sites", "0:1,1:-1",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        meta = json.loads((tmp_path / "soliton.json").read_text())
        A = meta["A"]
        assert A[16] > 0.0 > A[17]


class TestSimulateCommands:
    def test_simulate_dkg(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate-dkg", "--epsilon", "0.05", "--rho", "0.05", "--n", "16",
             "--t-end", "2.0", "--stride", "200", "--save-states",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        rel_drift = summary["energy_drift_abs"] / abs(summary["energy_initial"])
        assert rel_drift < 1e-6
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "t,energy,norm_x,norm_y"
        final = json.loads((tmp_path / "final_state.json").read_text())
        assert final["t"] == pytest.approx(2.0)
        states = (tmp_path / "states.jsonl").read_text().splitlines()
        assert json.loads(states[0])["config_hash"]  # hash header row
        assert len(states) == 1 + summary["samples"]
        del final["config_hash"]
        assert json.loads(states[-1]) == final

    def test_simulate_dnls_generalized(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate-dnls", "--model", "generalized", "--delta", "1.0",
             "--epsilon", "0.1", "--n", "16", "--t-end", "2.0",
             "--init", "onehot", "--amplitude", "0.5", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["clock"] == "slow"
        assert summary["norm_sq_drift_rel"] < 1e-10

    def test_simulate_dnls_default_step_shrinks_with_nu(self, capsys):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")  # nu > 1 warns by design
            cfg = parse_and_validate(
                ["simulate-dnls", "--model", "standard", "--nu", "2.0"]
            )
        capsys.readouterr()
        assert cfg.params["dt"] == pytest.approx(5e-4)

    def test_simulate_dnls_normalform(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate-dnls", "--model", "normalform", "--epsilon", "0.2",
             "--n", "16", "--t-end", "2.0", "--init", "onehot",
             "--amplitude", "0.5", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["clock"] == "fast"
        assert summary["norm_sq_drift_rel"] < 1e-10


class TestJustifyCommands:
    def test_single_run_outputs(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["justify", "--epsilon", "0.1", "--n", "32", "--tau0", "0.1",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["points"]) == 1
        pt = summary["points"][0]
        assert pt["epsilon"] == 0.1
        assert pt["rho"] == 0.1
        assert pt["sup_error"] > 0.0
        csvs = list(tmp_path.glob("report_eps*.csv"))
        assert len(csvs) == 1

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_generalized_default_rho_at_window_top(self, tmp_path, capsys):
        # rho = eps * eps is one ulp above eps**2 here and used to be refused
        eps = 0.06395319443893904
        code, _, err = run_cli(
            ["justify", "--regime", "generalized", "--epsilon", repr(eps), "--n", "16",
             "--tau0", "0.05", "--dt", "5e-3", "--out", str(tmp_path)], capsys
        )
        assert code == 0, err
        pt = json.loads((tmp_path / "summary.json").read_text())["points"][0]
        assert pt["rho"] == eps * eps != eps**2

    def test_onehot_initial_envelope(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["justify", "--epsilon", "0.1", "--n", "16", "--tau0", "0.05",
             "--a0", "onehot", "--amplitude-scale", "0.5", "--dt", "5e-3",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        pt = json.loads((tmp_path / "summary.json").read_text())["points"][0]
        assert pt["sup_error"] > 0.0

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["justify", "--epsilon", "0.1", "--n", "16", "--tau0", "0.05",
                "--dt", "5e-3", "--stride", "10"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(args + ["--out", str(d1)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(d2)], capsys)[0] == 0
        assert read_dir_bytes(d1) == read_dir_bytes(d2)

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_sweep_alias_matches_justify_sweep(self, tmp_path, capsys):
        args = ["--sweep", "0.1,0.09,0.08", "--n", "16", "--tau0", "0.05",
                "--dt", "5e-3", "--stride", "10", "--svg"]
        justify, alias = tmp_path / "justify", tmp_path / "sweep"
        code, _, _ = run_cli(["justify"] + args + ["--out", str(justify)], capsys)
        assert code == 0
        code, _, _ = run_cli(["sweep"] + args + ["--out", str(alias)], capsys)
        assert code == 0
        b_justify = read_dir_bytes(justify)
        b_alias = read_dir_bytes(alias)
        # the config hash differs (different command name); compare payloads
        def strip(blobs):
            return {
                name: b"\n".join(
                    ln for ln in blob.split(b"\n") if b"config_hash" not in ln
                )
                for name, blob in blobs.items()
            }
        assert strip(b_justify) == strip(b_alias)
        assert "sweep.svg" in b_justify
        slope = json.loads((justify / "summary.json").read_text())["slope"]
        assert np.isfinite(slope)

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_sweep_rerun_gives_identical_bytes(self, tmp_path, capsys):
        # the same sweep twice: outputs identical to the byte, config hashes included
        args = ["sweep", "--sweep", "0.1,0.09,0.08", "--n", "16", "--tau0", "0.05",
                "--dt", "5e-3", "--stride", "10"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
        assert read_dir_bytes(first) == read_dir_bytes(second)

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_outputs_without_compiler_match_compiled(self, tmp_path, capsys):
        # a process that finds no cc and no cached extension runs the numpy
        # Verlet loop, stencil and RK4 stages; its files must equal this
        # process's byte for byte
        commands = {
            "justify": ["justify", "--sweep", "0.1,0.09,0.08", "--n", "16", "--tau0", "0.05",
                        "--dt", "5e-3", "--stride", "10"],
            "justify-extended": ["justify-extended", "--epsilon", "0.1", "--n", "16",
                                 "--tau0", "0.05", "--dt", "5e-3", "--big-a", "0.05"],
            "dkg": ["simulate-dkg", "--n", "64", "--t-end", "2"],
            # 1201 sites: the compiled Verlet loop runs three strips
            "dkg-strips": ["simulate-dkg", "--n", "600", "--t-end", "1"],
            "dnls-generalized": ["simulate-dnls", "--model", "generalized", "--n", "16",
                                 "--t-end", "1"],
            "dnls-normalform": ["simulate-dnls", "--model", "normalform", "--epsilon", "0.2",
                                "--n", "16", "--t-end", "1"],
            "breather-return": ["breather-return", "--epsilon", "0.1", "--n", "32",
                                "--periods", "1", "--dt", "5e-3"],
        }
        script = (
            "import sys\n"
            "from dklab import cli, integrators\n"
            "for name, argv in COMMANDS.items():\n"
            "    assert cli.main(argv + ['--out', sys.argv[1] + '/' + name]) == 0\n"
            "print(integrators.verlet_backend())\n"
        ).replace("COMMANDS", repr(commands))
        path = os.pathsep.join(
            d for d in os.environ.get("PATH", "").split(os.pathsep)
            if not any(os.path.exists(os.path.join(d, cc)) for cc in ("cc", "gcc"))
        )
        src = str(Path(dklab.__file__).resolve().parent.parent)
        env = dict(
            os.environ,
            PATH=path,
            XDG_CACHE_HOME=str(tmp_path / "cache"),
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        hidden = tmp_path / "hidden"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(hidden)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "numpy"
        assert not (tmp_path / "cache").exists()

        here = tmp_path / "here"
        for name, argv in commands.items():
            assert run_cli(argv + ["--out", str(here / name)], capsys)[0] == 0
        assert read_dir_bytes(hidden) == read_dir_bytes(here)

    def test_justify_extended_short(self, tmp_path, capsys):
        shared = ["--epsilon", "0.1", "--n", "32", "--tau0", "0.2"]
        code, _, _ = run_cli(
            ["justify-extended", *shared, "--alpha", "0.5", "--big-a", "0.05",
             "--out", str(tmp_path / "extended")],
            capsys,
        )
        payload = json.loads((tmp_path / "extended" / "extended.json").read_text())
        assert payload["c_const_source"] == "plain-horizon run"
        assert code == (0 if payload["holds"] else 2)
        # the measured constant is the ratio of the plain justify run
        assert run_cli(["justify", *shared, "--out", str(tmp_path / "plain")], capsys)[0] == 0
        plain = json.loads((tmp_path / "plain" / "summary.json").read_text())
        assert payload["c_const"] == plain["points"][0]["ratio"]

    def test_breather_return_cmd(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["breather-return", "--epsilon", "0.1", "--n", "32", "--periods", "1",
             "--dt", "5e-3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads((tmp_path / "breather_return.json").read_text())
        assert payload["errors"][0] < 1.0
        rows = (tmp_path / "breather_return.csv").read_text().splitlines()
        assert rows[1] == "k,t,return_error"

    def test_out_of_range_initial_state_exits_one(self, tmp_path, capsys):
        # the chain starts near 1.2e7 > BLOWUP_LIMIT; the run must stop before
        # its first step, so no overflow warning is ever raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                ["justify", "--a0", "onehot", "--amplitude-scale", "1e3",
                 "--out", str(tmp_path)],
                capsys,
            )
        assert code == 1
        assert "initial state out of range" in err

    def test_breather_return_blowup_exits_one(self, tmp_path, capsys):
        # the two breather runs (eps * Omega_s = 50 and 100) used to blow up;
        # the regime gate now refuses them before any step.  The onehot chain
        # of amplitude 100 still leaves the blow-up guard, with no overflow
        # warning on the way
        for argv, message in (
            (["breather-return", "--omega-s", "1000", "--dt", "0.05", "--periods", "1"],
             "eps*Omega_s=50 (eps=0.05, Omega_s=1000.0) exceeds"),
            (["breather-return", "--omega-s", "2000", "--n", "8", "--periods", "1"],
             "eps*Omega_s=100 (eps=0.05, Omega_s=2000.0) exceeds"),
            (["simulate-dkg", "--n", "4", "--init", "onehot", "--amplitude", "100",
              "--dt", "0.1", "--t-end", "1"],
             "state blew up during integration"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
            assert code == 1
            assert message in err
            assert "Traceback" not in err

    def test_breather_return_regime_gate_edge(self, tmp_path, capsys):
        # eps * Omega_s = 0.05 * 10 is exactly MAX_EPS_OMEGA = 0.5 and runs
        shared = ["breather-return", "--epsilon", "0.05", "--n", "16", "--periods", "1"]
        code, _, _ = run_cli([*shared, "--omega-s", "10", "--out", str(tmp_path / "in")], capsys)
        assert code == 0
        code, _, err = run_cli(
            [*shared, "--omega-s", "10.5", "--out", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert "eps*Omega_s=0.525" in err
        assert "limit 0.5" in err
        assert "Traceback" not in err


def assert_one_error_line(code, err, *fragments):
    lines = err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("dklab: error:"), err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in lines[0]


class TestExitContract:
    """Every failing input exits 1 through main's one handler."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config(self, kind, tmp_path, capsys):
        # all three used to end in a traceback
        path = tmp_path / "exp.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(
            ["justify", "--config", str(path), "--out", str(tmp_path / "out")], capsys
        )
        assert_one_error_line(code, err)
        assert not (tmp_path / "out").exists()

    def test_unusable_out_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # the directory used to be made after the runs, so a bad --out
        # surfaced as a traceback once all the work was done
        calls = []
        monkeypatch.setattr(
            "dklab.approximation.run_justification", lambda config: calls.append(config)
        )
        (tmp_path / "file").write_text("")
        code, _, err = run_cli(
            ["justify", "--tau0", "0.05", "--out", str(tmp_path / "file" / "x")], capsys
        )
        assert_one_error_line(code, err, "Not a directory")
        assert calls == []

    @pytest.mark.parametrize("nu", ["0", "-1"])
    def test_simulate_dnls_nonpositive_nu(self, nu, tmp_path, capsys):
        # --nu 0 used to divide by zero deriving the default step; --nu -1
        # blamed a "--dt -0.001" that was never passed
        code, _, err = run_cli(
            ["simulate-dnls", "--nu", nu, "--n", "4", "--out", str(tmp_path)], capsys
        )
        assert_one_error_line(code, err, f"nu={float(nu)} must be positive and finite")
        assert "--dt" not in err

    @pytest.mark.parametrize("argv,fragment", [
        (["justify", "--c0-scale", "-1", "--tau0", "0.05"], "c0_scale=-1.0"),
        (["justify-extended", "--c-const", "0", "--epsilon", "0.2", "--big-a", "0.01"],
         "--c-const 0.0"),
        (["justify-extended", "--c-const", "-1", "--epsilon", "0.2", "--big-a", "0.01"],
         "--c-const -1.0"),
        (["justify", "--sweep", "0.1,0.05", "--svg", "--tau0", "0.05"], "--svg"),
        (["justify", "--seed", "-1", "--c0-scale", "1", "--tau0", "0.05"], "--seed -1"),
        (["justify", "--rho-rule", "eps2", "--epsilon", "0.06395319443893904"],
         "violates the standard regime eps^2 << rho <= eps"),
        (["justify", "--omega-s", "100", "--n", "32", "--tau0", "0.2", "--dt", "5e-3"],
         "eps*Omega_s=5 (eps=0.05, Omega_s=100.0) exceeds the small-amplitude limit 0.5"),
    ], ids=["c0-scale", "c-const-zero", "c-const-negative", "svg-two-points", "seed",
            "rho-rule-eps2-edge", "omega-s-soliton"])
    def test_ignored_or_misreported_inputs_refused(self, argv, fragment, tmp_path, capsys):
        # these used to exit 0 (c0-scale, svg, rho-rule-eps2-edge at rho =
        # eps * eps just above eps**2, omega-s-soliton with error ratio
        # 5384), exit 2 on a bound no run can meet (c-const) or name no
        # option (seed)
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "out")], capsys)
        assert_one_error_line(code, err, fragment)
        assert not (tmp_path / "out").exists()

    def test_failed_sweep_fit_leaves_out_empty(self, tmp_path, capsys):
        # the three report CSVs used to be written before the slope fit failed
        code, _, err = run_cli(
            ["justify", "--a0", "onehot", "--amplitude-scale", "0", "--sweep", "0.1,0.09,0.08",
             "--n", "16", "--tau0", "0.05", "--dt", "5e-3", "--out", str(tmp_path)], capsys
        )
        assert_one_error_line(code, err, "scaling fits need strictly positive data")
        assert list(tmp_path.iterdir()) == []

    def test_allocation_failure(self, tmp_path, capsys, monkeypatch):
        # injected: a real allocation this large could be granted and then
        # exhaust the machine's memory
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr("dklab.solitons.solve_soliton", refuse)
        code, _, err = run_cli(["soliton", "--out", str(tmp_path)], capsys)
        assert_one_error_line(code, err, "Unable to allocate 14.6 TiB")
