"""Whole-file bytes of every JSON file the program writes.

Each case runs one subcommand with its numerical work replaced by fixed
results, as ``test_csv.py`` does for the CSV files, and compares the
complete text with a literal (generated by the writer this one replaced).
The floats are chosen where ``repr`` changes form (-0.0, 5e-324, 1e16,
1e-05, 0.1 + 0.2).  The properties below compare ``cli._write_json`` with
``json.dumps(..., indent=2, sort_keys=True)`` on arbitrary payloads.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dklab import approximation, cli, integrators, normal_form, solitons
from dklab.approximation import JustificationReport
from dklab.dnls_models import EnvelopeState
from dklab.integrators import Trajectory
from dklab.lattice_core import WRITE_CHUNK, FloatText, LatticeState
from dklab.solitons import BreatherReturnReport, SolitonProfile


def _run_command(argv, tmp_path, capsys):
    cfg = cli.parse_and_validate(argv + ["--out", str(tmp_path)])
    capsys.readouterr()
    return cli.run(dataclasses.replace(cfg, config_hash="cafe"))


def _report(config):
    times = 0.5 * np.arange(3)
    errors = np.array([0.0, 2.5e-3, 1e-300]) + config.epsilon**2
    return JustificationReport(config, times, errors, np.sqrt(np.arange(3.0)))


def _simulate_chain(path, monkeypatch, capsys):
    x = np.array([0.1, -0.0, 1e16])
    final = LatticeState(x, np.array([5e-324, 1e-5, -1.5]), 0.1 + 0.2)
    diagnostics = {"energy": np.array([1.0, 1.0 + 2**-52, 1.0 - 2**-53]),
                   "norm_x": np.array([0.5, 0.25, 1e-5]), "norm_y": np.zeros(3)}
    traj = Trajectory(0.1 * np.arange(3), final, diagnostics)
    monkeypatch.setattr(integrators, "integrate", lambda *args: traj)
    argv = ["simulate-dkg", "--init", "onehot", "--n", "1", "--t-end", "0.2"]
    assert _run_command(argv, path, capsys) == 0


def _simulate_envelope(path, monkeypatch, capsys):
    final = EnvelopeState(np.array([1.0 + 2.0j, -0.5j, 1e-5 - 0.0j]) / 3.0, 1e16)
    traj = Trajectory(np.array([0.0, 0.5]), final, {"norm_sq": np.array([2.0, 2.0 + 1e-15])},
                      "slow")
    monkeypatch.setattr(integrators, "integrate", lambda *args: traj)
    argv = ["simulate-dnls", "--init", "onehot", "--n", "1", "--t-end", "0.5"]
    assert _run_command(argv, path, capsys) == 0


def write_final_state_chain(path, monkeypatch, capsys):
    _simulate_chain(path, monkeypatch, capsys)
    return path / "final_state.json"


def write_summary_chain(path, monkeypatch, capsys):
    _simulate_chain(path, monkeypatch, capsys)
    return path / "summary.json"


def write_final_state_envelope(path, monkeypatch, capsys):
    _simulate_envelope(path, monkeypatch, capsys)
    return path / "final_state.json"


def write_summary_envelope(path, monkeypatch, capsys):
    _simulate_envelope(path, monkeypatch, capsys)
    return path / "summary.json"


def write_summary_justify(path, monkeypatch, capsys):
    monkeypatch.setattr(approximation, "run_justification", lambda cfg, a0: _report(cfg))
    argv = ["justify", "--epsilon", "0.1", "--a0", "onehot", "--n", "2"]
    assert _run_command(argv, path, capsys) == 0
    return path / "summary.json"


def write_summary_sweep(path, monkeypatch, capsys):
    monkeypatch.setattr(approximation, "run_justification", lambda cfg, a0: _report(cfg))
    argv = ["sweep", "--sweep", "0.1,0.05,0.025", "--rho-rule", "eps", "--a0", "onehot",
            "--n", "2"]
    assert _run_command(argv, path, capsys) == 0
    return path / "summary.json"


def write_extended(path, monkeypatch, capsys):
    monkeypatch.setattr(approximation, "run_justification", lambda cfg, a0: _report(cfg))
    argv = ["justify-extended", "--epsilon", "0.1", "--a0", "onehot", "--n", "2",
            "--big-a", "0.05", "--c-const", "0.5"]
    assert _run_command(argv, path, capsys) == 0
    return path / "extended.json"


def write_soliton(path, monkeypatch, capsys):
    profile = SolitonProfile(np.array([0.25, 1.0, -0.0]) / 3.0, 1.5, 1.0, 5e-324, 3)
    monkeypatch.setattr(solitons, "solve_soliton", lambda *args: profile)
    assert _run_command(["soliton", "--n", "1"], path, capsys) == 0
    return path / "soliton.json"


def _coeffs():
    return normal_form.NormalFormCoeffs(2, 0.1, 1.0, np.array([-0.05, 0.1 / 3.0]), np.ones(5))


def write_normalform(path, monkeypatch, capsys):
    monkeypatch.setattr(normal_form, "sqrt_circulant", lambda n, eps: _coeffs())
    assert _run_command(["normalform", "--epsilon", "0.1", "--n", "2"], path, capsys) == 0
    return path / "normalform.json"


def write_thresholds(path, monkeypatch, capsys):
    monkeypatch.setattr(normal_form, "sqrt_circulant", lambda n, eps: _coeffs())
    argv = ["thresholds", "--epsilon", "1e-3", "--n", "2", "--c-zeta0", "0.5"]
    assert _run_command(argv, path, capsys) == 0
    return path / "thresholds.json"


def write_breather_return(path, monkeypatch, capsys):
    period = 2.0 * np.pi / 3.0
    errors = np.array([1e-3, 2.5e-3, 1e16]) / 3.0
    report = BreatherReturnReport(period, 3.0, period * np.arange(1, 4), errors)
    monkeypatch.setattr(solitons, "solve_soliton", lambda *args: None)
    monkeypatch.setattr(solitons, "breather_return_error", lambda *args: report)
    argv = ["breather-return", "--n", "2", "--periods", "3"]
    assert _run_command(argv, path, capsys) == 0
    return path / "breather_return.json"


CASES = {
    "final_state_chain": (
        write_final_state_chain,
        '{\n'
        '  "config_hash": "cafe",\n'
        '  "t": 0.30000000000000004,\n'
        '  "x": [\n'
        '    0.1,\n'
        '    -0.0,\n'
        '    1e+16\n'
        '  ],\n'
        '  "y": [\n'
        '    5e-324,\n'
        '    1e-05,\n'
        '    -1.5\n'
        '  ]\n'
        '}\n'
    ),
    "summary_chain": (
        write_summary_chain,
        '{\n'
        '  "config_hash": "cafe",\n'
        '  "energy_drift_abs": 2.220446049250313e-16,\n'
        '  "energy_initial": 1.0,\n'
        '  "samples": 3,\n'
        '  "t_end": 0.2\n'
        '}\n'
    ),
    "final_state_envelope": (
        write_final_state_envelope,
        '{\n'
        '  "config_hash": "cafe",\n'
        '  "im": [\n'
        '    0.6666666666666666,\n'
        '    -0.16666666666666666,\n'
        '    0.0\n'
        '  ],\n'
        '  "re": [\n'
        '    0.3333333333333333,\n'
        '    -0.0,\n'
        '    3.3333333333333333e-06\n'
        '  ],\n'
        '  "tau": 1e+16\n'
        '}\n'
    ),
    "summary_envelope": (
        write_summary_envelope,
        '{\n'
        '  "clock": "slow",\n'
        '  "config_hash": "cafe",\n'
        '  "model": "standard",\n'
        '  "norm_sq_drift_rel": 4.440892098500626e-16,\n'
        '  "norm_sq_initial": 2.0,\n'
        '  "t_end": 0.5\n'
        '}\n'
    ),
    "summary_justify": (
        write_summary_justify,
        '{\n'
        '  "config_hash": "cafe",\n'
        '  "points": [\n'
        '    {\n'
        '      "A": 0.5,\n'
        '      "alpha": 0.5,\n'
        '      "bound_scale": 0.10000000000000002,\n'
        '      "epsilon": 0.1,\n'
        '      "horizon": "T0",\n'
        '      "ratio": 0.125,\n'
        '      "regime": "standard",\n'
        '      "rho": 0.1,\n'
        '      "slope_contribution": [\n'
        '        -2.3025850929940455,\n'
        '        -4.382026634673881\n'
        '      ],\n'
        '      "sup_error": 0.012500000000000002,\n'
        '      "t_end": 1.0,\n'
        '      "tau0": 1.0\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    "summary_sweep": (
        write_summary_sweep,
        '{\n'
        '  "config_hash": "cafe",\n'
        '  "points": [\n'
        '    {\n'
        '      "A": 0.5,\n'
        '      "alpha": 0.5,\n'
        '      "bound_scale": 0.10000000000000002,\n'
        '      "epsilon": 0.1,\n'
        '      "horizon": "T0",\n'
        '      "ratio": 0.125,\n'
        '      "regime": "standard",\n'
        '      "rho": 0.1,\n'
        '      "slope_contribution": [\n'
        '        -2.3025850929940455,\n'
        '        -4.382026634673881\n'
        '      ],\n'
        '      "sup_error": 0.012500000000000002,\n'
        '      "t_end": 1.0,\n'
        '      "tau0": 1.0\n'
        '    },\n'
        '    {\n'
        '      "A": 0.5,\n'
        '      "alpha": 0.5,\n'
        '      "bound_scale": 0.05000000000000001,\n'
        '      "epsilon": 0.05,\n'
        '      "horizon": "T0",\n'
        '      "ratio": 0.1,\n'
        '      "regime": "standard",\n'
        '      "rho": 0.05,\n'
        '      "slope_contribution": [\n'
        '        -2.995732273553991,\n'
        '        -5.298317366548036\n'
        '      ],\n'
        '      "sup_error": 0.005000000000000001,\n'
        '      "t_end": 1.0,\n'
        '      "tau0": 1.0\n'
        '    },\n'
        '    {\n'
        '      "A": 0.5,\n'
        '      "alpha": 0.5,\n'
        '      "bound_scale": 0.025000000000000005,\n'
        '      "epsilon": 0.025,\n'
        '      "horizon": "T0",\n'
        '      "ratio": 0.12499999999999999,\n'
        '      "regime": "standard",\n'
        '      "rho": 0.025,\n'
        '      "slope_contribution": [\n'
        '        -3.6888794541139363,\n'
        '        -5.768320995793772\n'
        '      ],\n'
        '      "sup_error": 0.003125,\n'
        '      "t_end": 1.0,\n'
        '      "tau0": 1.0\n'
        '    }\n'
        '  ],\n'
        '  "r2": 0.9666076686929939,\n'
        '  "slope": 1.0\n'
        '}\n'
    ),
    "extended": (
        write_extended,
        '{\n'
        '  "A": 0.05,\n'
        '  "alpha": 0.5,\n'
        '  "bound": 0.15811388300841897,\n'
        '  "c_const": 0.5,\n'
        '  "c_const_source": "supplied",\n'
        '  "config_hash": "cafe",\n'
        '  "epsilon": 0.1,\n'
        '  "holds": true,\n'
        '  "rho": 0.1,\n'
        '  "sup_error": 0.012500000000000002,\n'
        '  "t_end": 1.0\n'
        '}\n'
    ),
    "soliton": (
        write_soliton,
        '{\n'
        '  "A": [\n'
        '    0.08333333333333333,\n'
        '    0.3333333333333333,\n'
        '    -0.0\n'
        '  ],\n'
        '  "Omega_s": 1.5,\n'
        '  "config_hash": "cafe",\n'
        '  "iterations": 3,\n'
        '  "newton_residual": 5e-324,\n'
        '  "nu": 1.0\n'
        '}\n'
    ),
    "normalform": (
        write_normalform,
        '{\n'
        '  "N": 2,\n'
        '  "Omega": 1.0,\n'
        '  "b": [\n'
        '    -0.05,\n'
        '    0.03333333333333333\n'
        '  ],\n'
        '  "config_hash": "cafe",\n'
        '  "decay_certificate": {\n'
        '    "C_fit": 0.8333333333333333,\n'
        '    "holds": true,\n'
        '    "m_checked": 0,\n'
        '    "max_at": 2\n'
        '  },\n'
        '  "epsilon": 0.1\n'
        '}\n'
    ),
    "thresholds": (
        write_thresholds,
        '{\n'
        '  "C_h1": 1.0,\n'
        '  "C_star": 0.888832500001491,\n'
        '  "C_zeta0": 0.5,\n'
        '  "Omega": 1.0,\n'
        '  "config_hash": "cafe",\n'
        '  "epsilon": 0.001,\n'
        '  "f_eps": 2.072335041681109,\n'
        '  "gamma": 1.5174525451305474,\n'
        '  "rho_star": 0.0031518572276172203,\n'
        '  "rho_star_approx": 0.0042022097089061735\n'
        '}\n'
    ),
    "breather_return": (
        write_breather_return,
        '{\n'
        '  "config_hash": "cafe",\n'
        '  "epsilon": 0.05,\n'
        '  "errors": [\n'
        '    0.0003333333333333333,\n'
        '    0.0008333333333333334,\n'
        '    3333333333333333.5\n'
        '  ],\n'
        '  "omega_fit": 3.0,\n'
        '  "period": 2.0943951023931953,\n'
        '  "rho": 0.05\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_json_bytes(name, tmp_path, monkeypatch, capsys):
    write, expected = CASES[name]
    assert write(tmp_path, monkeypatch, capsys).read_bytes().decode() == expected


# -- the writer against json.dumps ------------------------------------------------

# floats where repr changes form, the extremes, and the values JSON spells
# differently from repr
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, 1e22,
                  1.7976931348623157e308, math.nan, math.inf, -math.inf)
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS[:10])
scalars = (floats | floats.map(np.float64) | st.booleans() | st.none() | st.integers()
           | st.text() | st.sampled_from(["a\nb", 'q"uote\\', "é \U0001f600", ""]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def long_floats(draw, special=floats):
    """A float list longer than one write chunk (or just short of it),
    seeded with values drawn from ``special``."""
    n = draw(st.sampled_from([WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1, 2 * WRITE_CHUNK + 3]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    values = (values * 10.0 ** np.arange(-20, 21).repeat(n // 41 + 1)[:n]).tolist()
    for value in draw(st.lists(special, max_size=3)):
        values[draw(st.integers(0, n - 1))] = value
    return values


top_values = json_values | st.lists(floats) | st.lists(finite) | long_floats()


# a FloatText of finite values is the one vector _write_json streams in chunks
float_texts = (st.lists(finite, min_size=1) | long_floats(finite)).map(FloatText)


def _chunk_floats(n):
    """n finite floats of mixed sign and magnitude: exactly n // WRITE_CHUNK
    full chunks when n is a multiple of it."""
    return np.geomspace(1e-20, 1e20, n) * (-1.0) ** np.arange(n)


@given(st.dictionaries(st.text(), top_values | float_texts, max_size=5))
@example(payload={"x": FloatText(_chunk_floats(WRITE_CHUNK))})
@example(payload={"x": FloatText(_chunk_floats(2 * WRITE_CHUNK)), "y": [0.5]})
@settings(max_examples=150)
def test_write_json_matches_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    cli._write_json(path, payload, "cafe")
    plain = {k: v.values.tolist() if isinstance(v, FloatText) else v for k, v in payload.items()}
    body = {"config_hash": "cafe", **plain}
    assert path.read_bytes().decode() == json.dumps(body, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("values", [[], [1.0, math.nan], [math.inf, -0.0], [5e-324, 1e16]])
def test_write_json_float_text_matches_json_dumps(tmp_path, text_by, values):
    # a FloatText writes its chunks only when every entry is finite, by
    # either path; across a chunk boundary too
    for path in ("kernel", "repr"):
        for entries in (values, values + _chunk_floats(WRITE_CHUNK + 1).tolist()):
            with text_by(path):
                cli._write_json(tmp_path / "out.json", {"x": FloatText(entries), "y": entries},
                                "cafe")
            body = {"config_hash": "cafe", "x": entries, "y": entries}
            expected = json.dumps(body, indent=2, sort_keys=True) + "\n"
            assert (tmp_path / "out.json").read_text() == expected, path


# tracemalloc peak of cli._write_run on the input below when it wrote with
# json.dumps of the whole file and one str.format per CSV row: 4613494 B
# under pytest, after a first call.  The chunked writers reach 301796 B with
# the compiled float_text, which keeps no text (1324084 B with repr, which
# keeps x's and y's); they must not need more than the old ones did.
WRITE_RUN_PEAK_BEFORE = 4_613_494


def _write_run_peak(outdir, n):
    """tracemalloc peak of a second ``cli._write_run`` of a random n-site
    chain state with 21 samples."""
    rng = np.random.default_rng(0)
    x, y = 0.1 * rng.standard_normal((2, n))
    times = np.linspace(0.0, 20.0, 21)
    diagnostics = {k: rng.standard_normal(21) for k in ("energy", "norm_x", "norm_y")}
    cfg = cli.ExperimentConfig("simulate-dkg", {}, outdir, 0, "cafe")
    summary = {"t_end": 20.0, "energy_initial": 1.0, "energy_drift_abs": 1e-9, "samples": 21}
    cli._write_run(cfg, Trajectory(times, LatticeState(x, y, 20.0), diagnostics), summary)
    traj = Trajectory(times, LatticeState(x, y, 20.0), diagnostics)
    tracemalloc.start()
    try:
        cli._write_run(cfg, traj, summary)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_run_peak_memory(tmp_path):
    n = 2 * 8192 + 1  # the chain-wide benchmark's ring
    assert _write_run_peak(tmp_path, n) <= WRITE_RUN_PEAK_BEFORE


# Bytes of writer peak per added chain site.  With the compiled float_text
# no text is held past its write: about 0 B per site.  Text held as chunks
# of WRITE_CHUNK floats, as repr's path holds it, takes about 41 B per site
# (two vectors of about 21 B per float); one str object and list slot per
# float took about 187 B.
WRITE_RUN_BYTES_PER_SITE = 64


def test_write_run_peak_grows_by_chunk_text(tmp_path):
    small, large = 2 * 8192 + 1, 2 * 65536 + 1
    growth = _write_run_peak(tmp_path, large) - _write_run_peak(tmp_path, small)
    assert growth <= WRITE_RUN_BYTES_PER_SITE * (large - small)


@pytest.mark.parametrize("n", [3, WRITE_CHUNK - 1, 2 * WRITE_CHUNK + 1])
def test_state_line_matches_json_dumps(tmp_path, text_by, n):
    # a states.jsonl line written chunk by chunk has json.dumps's bytes, on
    # floats where repr changes form and across chunk boundaries
    forms = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, -1.5e300, 2.0]
    x = np.resize(forms, n)
    state = LatticeState(x, -x[::-1], 0.1 + 0.2)
    for path in ("kernel", "repr"):
        with open(tmp_path / "states.jsonl", "w") as fh, text_by(path):
            cli._write_state_line(fh, state)
        expected = json.dumps(state.to_json_dict()) + "\n"
        assert (tmp_path / "states.jsonl").read_text() == expected, path


def _state_line_peak(path, n):
    """tracemalloc peak of writing the ``states.jsonl`` line of a random
    n-site chain state, after a first line."""
    rng = np.random.default_rng(0)
    x, y = 0.1 * rng.standard_normal((2, n))
    with open(path, "w") as fh:
        cli._write_state_line(fh, LatticeState(x, y, 20.0))
        state = LatticeState(x, y, 20.0)
        tracemalloc.start()
        try:
            cli._write_state_line(fh, state)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_state_line_peak_grows_by_chunk_text(tmp_path):
    # a line of json.dumps(state.to_json_dict()) held a Python float, a list
    # slot and the encoder's text per entry, about 130 B per added site; the
    # chunked line holds the state's text, two vectors of about 21 B per
    # float, with repr, and one chunk at a time (about 0 B per site) with the
    # compiled float_text
    small, large = 2 * 8192 + 1, 2 * 65536 + 1
    path = tmp_path / "states.jsonl"
    growth = _state_line_peak(path, large) - _state_line_peak(path, small)
    assert growth <= WRITE_RUN_BYTES_PER_SITE * (large - small)
