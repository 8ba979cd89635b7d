"""Whole-file bytes of every CSV the program writes.

Each case writes one file from a small fixed input, built from numpy arrays
as the program builds it, and compares the complete text with a literal.
The three files that ``dklab.cli`` writes itself are produced by running
their subcommands with the numerical work replaced by fixed results.  A
property compares ``lattice_core.write_csv`` with the per-row ``"{!r},..."``
formatter it replaced.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dklab import approximation, cli, normal_form, solitons
from dklab.approximation import JustificationReport
from dklab.dnls_models import EnvelopeState
from dklab.integrators import Trajectory
from dklab.lattice_core import WRITE_CHUNK, FloatText, LatticeState, write_csv
from dklab.solitons import BreatherReturnReport, SolitonProfile



def _report():
    config = approximation.JustificationConfig(epsilon=0.1, rho=0.1)
    times = 0.5 * np.arange(3)
    errors = np.array([0.0, 2.5e-3, 1e-300])
    return JustificationReport(config, times, errors, np.sqrt(np.arange(3.0)))


def _run_command(argv, tmp_path, capsys):
    cfg = cli.parse_and_validate(argv + ["--out", str(tmp_path)])
    capsys.readouterr()
    assert cli.run(dataclasses.replace(cfg, config_hash="cafe")) == 0


def write_trajectory(path, monkeypatch, capsys):
    diagnostics = {"norm": np.sqrt(np.arange(3.0)), "energy": np.array([1.0, -0.0, 5e-324])}
    Trajectory(0.1 * np.arange(3), None, diagnostics).write_csv(path / "t.csv", config_hash="cafe")
    return path / "t.csv"


def write_report(path, monkeypatch, capsys):
    _report().write_csv(path / "r.csv", config_hash="cafe")
    return path / "r.csv"


def write_soliton(path, monkeypatch, capsys):
    profile = SolitonProfile(np.array([0.25, 1.0, 0.25]) / 3.0, 1.5, 1.0, 0.0, 3)
    profile.write_csv(path / "s.csv", "config_hash=cafe")
    return path / "s.csv"


def write_lattice(path, monkeypatch, capsys):
    x = np.array([0.1, -0.0, 1e308])
    state = LatticeState(x, -0.5 * x[::-1], 0.1 + 0.2)
    state.write_csv(path / "l.csv", "config_hash=cafe")
    return path / "l.csv"


def write_envelope(path, monkeypatch, capsys):
    a = np.array([1.0 + 2.0j, -0.5j, 1.0]) / 3.0
    EnvelopeState(a, 0.5).write_csv(path / "e.csv", "config_hash=cafe")
    return path / "e.csv"


def write_sweep(path, monkeypatch, capsys):
    monkeypatch.setattr(approximation, "run_justification", lambda cfg, a0: _report())
    _run_command(["justify", "--epsilon", "0.1", "--a0", "onehot", "--n", "2"], path, capsys)
    return path / "sweep.csv"


def write_decay(path, monkeypatch, capsys):
    coeffs = normal_form.NormalFormCoeffs(2, 0.1, 1.0, np.array([-0.05, 0.1 / 3.0]), np.ones(5))
    monkeypatch.setattr(normal_form, "sqrt_circulant", lambda n, eps: coeffs)
    _run_command(["normalform", "--epsilon", "0.1", "--n", "2"], path, capsys)
    return path / "decay.csv"


def write_breather_return(path, monkeypatch, capsys):
    period = 2.0 * np.pi / 3.0
    errors = np.array([1e-3, 2.5e-3]) / 3.0
    report = BreatherReturnReport(period, 3.0, period * np.arange(1, 3), errors)
    monkeypatch.setattr(solitons, "solve_soliton", lambda *args: None)
    monkeypatch.setattr(solitons, "breather_return_error", lambda *args: report)
    _run_command(["breather-return", "--n", "2", "--periods", "2"], path, capsys)
    return path / "breather_return.csv"


CASES = {
    "trajectory": (
        write_trajectory,
        "# config_hash=cafe\n"
        "t,energy,norm\n"
        "0.0,1.0,0.0\n"
        "0.1,-0.0,1.0\n"
        "0.2,5e-324,1.4142135623730951\n"
    ),
    "report": (
        write_report,
        "# config_hash=cafe\n"
        "t,error_norm,Q,bound_scale\n"
        "0.0,0.0,0.0,0.10000000000000002\n"
        "0.5,0.0025,1.0,0.10000000000000002\n"
        "1.0,1e-300,1.4142135623730951,0.10000000000000002\n"
    ),
    "soliton": (
        write_soliton,
        "# config_hash=cafe\n"
        "j,A\n"
        "-1,0.08333333333333333\n"
        "0,0.3333333333333333\n"
        "1,0.08333333333333333\n"
    ),
    "lattice_state": (
        write_lattice,
        "# config_hash=cafe\n"
        "# t=0.30000000000000004\n"
        "j,x,y\n"
        "-1,0.1,-5e+307\n"
        "0,-0.0,0.0\n"
        "1,1e+308,-0.05\n"
    ),
    "envelope_state": (
        write_envelope,
        "# config_hash=cafe\n"
        "# tau=0.5\n"
        "j,re,im\n"
        "-1,0.3333333333333333,0.6666666666666666\n"
        "0,-0.0,-0.16666666666666666\n"
        "1,0.3333333333333333,0.0\n"
    ),
    "sweep": (
        write_sweep,
        "# config_hash=cafe\n"
        "epsilon,rho,sup_error,bound_scale,ratio\n"
        "0.1,0.1,0.0025,0.10000000000000002,0.024999999999999994\n"
    ),
    "decay": (
        write_decay,
        "# config_hash=cafe\n"
        "m,b_m,decay_scale\n"
        "1,-0.05,0.2\n"
        "2,0.03333333333333333,0.04000000000000001\n"
    ),
    "breather_return": (
        write_breather_return,
        "# config_hash=cafe\n"
        "k,t,return_error\n"
        "1,2.0943951023931953,0.0003333333333333333\n"
        "2,4.1887902047863905,0.0008333333333333334\n"
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_csv_bytes(name, tmp_path, monkeypatch, capsys):
    write, expected = CASES[name]
    assert write(tmp_path, monkeypatch, capsys).read_bytes().decode() == expected


# -- the writer against the per-row formatter it replaced --------------------------


def _per_row(path, header, rows, comments):
    line = ",".join(["{!r}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line.format(*row))


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 1e16, 1e-5, 1e-4, math.nan, math.inf, -math.inf)
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
columns = st.sampled_from(["floats", "float_text", "ints"])


@given(st.lists(columns, min_size=1, max_size=4),
       st.sampled_from([0, 1, 5, WRITE_CHUNK - 1, WRITE_CHUNK, 2 * WRITE_CHUNK + 1]),
       st.integers(0, 2**32 - 1), st.lists(floats, max_size=4),
       st.lists(st.text(alphabet=st.characters(blacklist_categories=["Cc", "Cs"])), max_size=2))
@example(kinds=["ints", "float_text", "float_text"], n_rows=2 * WRITE_CHUNK + 1, seed=0,
         specials=[-0.0, 1e16, 1e-5, math.nan], comments=[])
@settings(max_examples=60)
def test_write_csv_matches_per_row_format(tmp_path_factory, text_by, kinds, n_rows, seed,
                                          specials, comments):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(kinds), n_rows)) * 10.0 ** rng.integers(-20, 21, n_rows)
    if n_rows:
        values.flat[rng.integers(0, values.size, len(specials))] = specials
    cols = [range(-(n_rows // 2), n_rows - n_rows // 2) if kind == "ints"
            else FloatText(v) if kind == "float_text" else v.tolist()
            for kind, v in zip(kinds, values)]
    header = [f"c{i}" for i in range(len(kinds))]
    rows = zip(*(c.values.tolist() if isinstance(c, FloatText) else c for c in cols))
    path = tmp_path_factory.mktemp("csv")
    _per_row(path / "old.csv", header, rows, comments)
    for text_path in ("kernel", "repr"):
        with text_by(text_path):
            write_csv(path / "new.csv", header, cols, comments)
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes(), text_path


def test_write_csv_of_more_columns_than_one_kernel_call_takes(tmp_path, text_by):
    # float_text takes up to 8 columns; a file of more (and one of a column
    # that is neither a FloatText nor a range) is written chunk by chunk
    values = np.random.default_rng(3).standard_normal((9, WRITE_CHUNK + 3))
    header = [f"c{i}" for i in range(10)]
    for cols in ([range(len(values[0])), *map(FloatText, values)],
                 [FloatText(values[0]), values[1].tolist()]):
        rows = zip(*(c.values.tolist() if isinstance(c, FloatText) else c for c in cols))
        _per_row(tmp_path / "old.csv", header[:len(cols)], rows, ["c"])
        for text_path in ("kernel", "repr"):
            with text_by(text_path):
                write_csv(tmp_path / "new.csv", header[:len(cols)], cols, ["c"])
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
