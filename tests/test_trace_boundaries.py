"""The layer boundaries that the benchmark's tracer wraps (``perfbench/spans.py``)
exist and are called by small runs of the two gated workloads' commands.

A wrapped name that stops being called drops its layer's metrics from a
traced benchmark run, so a refactor that moves work past a boundary fails
here first.
"""

import importlib
import time
from pathlib import Path

import pytest

from dklab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload, argv", [
    ("sweep-standard", ["justify", "--sweep", "0.1,0.09,0.08", "--n", "32", "--tau0", "0.05",
                        "--dt", "5e-3", "--stride", "10"]),
    ("chain-wide", ["simulate-dkg", "--n", "16", "--init", "random", "--amplitude", "0.1",
                    "--t-end", "1"]),
], ids=["sweep-standard", "chain-wide"])
def test_traced_boundaries_called(workload, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    tracer.begin()
    start = time.perf_counter()
    try:
        code = main(argv + ["--out", str(tmp_path)])
    finally:
        trace = tracer.end(time.perf_counter() - start)
    assert code == 0, capsys.readouterr().err
    assert tracer.missing == set()
    expected = workloads.WORKLOADS[workload].expected
    assert {name for name in expected if not trace.calls_by_name.get(name)} == set()
