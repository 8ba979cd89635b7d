"""Command-line interface: parsing, validation, outputs, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dklab
from dklab.cli import main, parse_and_validate


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
        code, _, err = run_cli(["justify", "--epsilon", "0.6"], capsys)
        assert code == 1
        assert "(0, 1/2)" in err

    def test_regime_violation_rejected(self, capsys):
        # rho = eps^3 is below the standard-regime window eps^2 < rho <= eps
        code, _, err = run_cli(
            ["justify", "--epsilon", "0.1", "--rho", "0.001"], capsys
        )
        assert code == 1
        assert "regime" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(["justify", "--frobnicate", "1"], capsys)
        assert code == 1
        assert "error" in err

    def test_soliton_band_interior_rejected(self, capsys):
        code, _, err = run_cli(["soliton", "--omega-s", "0.5"], capsys)
        assert code == 1
        assert "band" in err

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
    @pytest.mark.parametrize("command", ["justify", "sweep", "justify-extended"])
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
    def test_sweep_parallel_matches_serial(self, tmp_path, capsys, monkeypatch):
        args = ["--sweep", "0.1,0.09,0.08", "--n", "16", "--tau0", "0.05",
                "--dt", "5e-3", "--stride", "10", "--svg"]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        code, _, _ = run_cli(["justify"] + args + ["--out", str(serial)], capsys)
        assert code == 0
        monkeypatch.setenv("DKLAB_WORKERS", "3")
        code, _, _ = run_cli(["sweep"] + args + ["--out", str(parallel)], capsys)
        assert code == 0
        b_serial = read_dir_bytes(serial)
        b_parallel = read_dir_bytes(parallel)
        # the config hash differs (different command name); compare payloads
        def strip(blobs):
            return {
                name: b"\n".join(
                    ln for ln in blob.split(b"\n") if b"config_hash" not in ln
                )
                for name, blob in blobs.items()
            }
        assert strip(b_serial) == strip(b_parallel)
        assert "sweep.svg" in b_serial
        slope = json.loads((serial / "summary.json").read_text())["slope"]
        assert np.isfinite(slope)

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_sweep_worker_count_does_not_change_bytes(self, tmp_path, capsys, monkeypatch):
        # same command, different pool sizes: outputs identical to the byte,
        # config hashes included (the worker count is environment, not config)
        args = ["sweep", "--sweep", "0.1,0.09,0.08", "--n", "16", "--tau0", "0.05",
                "--dt", "5e-3", "--stride", "10"]
        one, many = tmp_path / "w1", tmp_path / "w3"
        monkeypatch.setenv("DKLAB_WORKERS", "1")
        assert run_cli(args + ["--out", str(one)], capsys)[0] == 0
        monkeypatch.setenv("DKLAB_WORKERS", "3")
        assert run_cli(args + ["--out", str(many)], capsys)[0] == 0
        assert read_dir_bytes(one) == read_dir_bytes(many)

    @pytest.mark.filterwarnings("ignore:envelope magnitude")
    def test_outputs_without_compiler_match_compiled(self, tmp_path, capsys):
        # a process that finds no cc and no cached kernel runs the numpy
        # Verlet loop; its files must equal this process's byte for byte
        commands = {
            "justify": ["justify", "--sweep", "0.1,0.09,0.08", "--n", "16", "--tau0", "0.05",
                        "--dt", "5e-3", "--stride", "10"],
            "dkg": ["simulate-dkg", "--n", "64", "--t-end", "2"],
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
        code, _, _ = run_cli(
            ["justify-extended", "--epsilon", "0.1", "--n", "32", "--tau0", "0.2",
             "--alpha", "0.5", "--big-a", "0.05", "--out", str(tmp_path)],
            capsys,
        )
        payload = json.loads((tmp_path / "extended.json").read_text())
        assert payload["c_const_source"] == "plain-horizon run"
        assert code == (0 if payload["holds"] else 2)

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
        # dt = 0.05 does not resolve the chain at Omega_s = 1000
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(
                ["breather-return", "--omega-s", "1000", "--dt", "0.05",
                 "--periods", "1", "--out", str(tmp_path)],
                capsys,
            )
        assert code == 1
        assert "blew up" in err
