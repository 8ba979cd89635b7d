"""Layer tracing from outside the package.

The tracer replaces module-level names (and class methods) that ``dklab``
looks up at call time with timing wrappers, and restores the originals
afterwards.  Nothing inside ``src/`` is edited.  Per operation it keeps:

* one span for each layer call made directly by the operation (name,
  start, end, parent ``op``), and
* aggregated counters for every layer: calls, work units, busy time and
  self time (busy time minus the time covered by nested wrapped calls).

Hot inner calls (``rhs`` runs ~41k times per generalized justification)
are only aggregated, never kept as one span each.

A wrapped name that no longer exists, or that a workload expects but the
operation never called, is reported as *missing* so that a refactor which
moves work past a boundary cannot read as a speed-up.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# Array passes of one step of the numpy Verlet kernel
# (dklab.integrators._advance_verlet): each line of the loop body reads or
# writes whole float64/int64 arrays of the ring length.
#   y += half*f (5)  x += dt*y (5)  take up (3)  take dn (3)  f += tmp (3)
#   f *= eps (2)  f -= x (3)  x*x (3)  tmp *= x (3)  tmp *= rho (2)
#   f -= tmp (3)  y += half*f (5)
VERLET_PASSES_PER_STEP = 40
BYTES_PER_ELEMENT = 8


def _verlet_units(args, kwargs, result):
    n_steps = kwargs["n_steps"] if "n_steps" in kwargs else args[6]
    return int(n_steps)


def _verlet_bytes(args, kwargs, result):
    sites = len(args[0])
    return _verlet_units(args, kwargs, result) * sites * VERLET_PASSES_PER_STEP * BYTES_PER_ELEMENT


def _newton_units(args, kwargs, result):
    return int(result.iterations)


def _one(args, kwargs, result):
    return 1


def _zero(args, kwargs, result):
    # error_energy belongs to the sample layer's busy time, but one sample
    # is counted once, at its leading_order call.
    return 0


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``owner`` is a module path, optionally followed by
    ``:Class`` for a method; ``units`` counts the work of one call."""

    layer: str
    owner: str
    attr: str
    units: object = _one
    bytes_computed: object = None

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}".replace(":", ".")


TARGETS = (
    Target("integrators.verlet", "dklab.approximation", "_advance_verlet",
           _verlet_units, _verlet_bytes),
    Target("integrators.verlet", "dklab.integrators", "_advance_verlet",
           _verlet_units, _verlet_bytes),
    Target("integrators.rk4", "dklab.approximation", "_rk4_step"),
    Target("dnls_models.rhs", "dklab.approximation", "rhs"),
    Target("approximation.sample", "dklab.approximation", "leading_order"),
    Target("approximation.sample", "dklab.approximation", "error_energy", _zero),
    Target("approximation.run_justification", "dklab.approximation",
           "run_justification"),
    Target("solitons.solve_soliton", "dklab.solitons", "solve_soliton", _newton_units),
    Target("lattice_core.observers", "dklab.cli", "energy_dkg"),
    Target("lattice_core.observers", "dklab.cli", "l2_norm"),
    Target("cli.write", "dklab.cli", "_write_json"),
    Target("cli.write", "dklab.integrators:Trajectory", "write_csv"),
    Target("cli.write", "dklab.lattice_core:LatticeState", "write_csv"),
    Target("cli.write", "dklab.approximation:JustificationReport", "write_csv"),
    Target("cli.write", "dklab.solitons:SolitonProfile", "write_csv"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


def _resolve_owner(owner: str):
    """The module or class holding a wrapped name, or None if it is gone."""
    module_path, _, cls = owner.partition(":")
    obj = importlib.import_module(module_path)
    return getattr(obj, cls, None) if cls else obj


@dataclass
class LayerStats:
    calls: int = 0
    units: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    bytes_computed: int = 0


@dataclass
class OpTrace:
    """Counters and top-level spans of one traced operation."""

    wall: float = 0.0
    child_time: float = 0.0
    layers: dict = field(default_factory=dict)  # layer -> LayerStats
    calls_by_name: dict = field(default_factory=dict)  # Target.name -> calls
    spans: list = field(default_factory=list)  # (name, start, end) under the op


class Tracer:
    """Installs timing wrappers around ``TARGETS`` for one operation at a
    time.  Wrappers are removed between operations, so untraced operations
    run the package unmodified."""

    def __init__(self):
        self.missing: set[str] = set()  # names absent at install time
        self._saved: list = []
        self._per_target: list = []
        self._stack: list[float] = [0.0]
        self._spans: list = []
        self._t0 = 0.0

    def _wrap(self, target: Target, fn, stats: LayerStats):
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter
        units = target.units
        bytes_computed = target.bytes_computed
        t0 = self._t0

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                stack[-1] += elapsed
                stats.calls += 1
                stats.busy += elapsed
                stats.self_time += elapsed - child
                if returned:
                    stats.units += units(args, kwargs, result)
                    if bytes_computed is not None:
                        stats.bytes_computed += bytes_computed(args, kwargs, result)
                if len(stack) == 1:
                    spans.append((target.name, start - t0, end - t0))

        wrapper.__wrapped__ = fn
        return wrapper

    def begin(self) -> None:
        self._stack[:] = [0.0]
        self._spans.clear()
        self._saved = []
        self._per_target = []
        self._t0 = time.perf_counter()
        for target in TARGETS:
            owner = _resolve_owner(target.owner)
            original = None if owner is None else vars(owner).get(target.attr)
            if original is None:
                self.missing.add(target.name)
                continue
            stats = LayerStats()
            self._per_target.append((target, stats))
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original, stats))

    def end(self, wall: float) -> OpTrace:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        op = OpTrace(wall=wall, child_time=self._stack[0], spans=list(self._spans))
        op.layers = {layer: LayerStats() for layer in LAYERS}
        for target, stats in self._per_target:
            total = op.layers[target.layer]
            total.calls += stats.calls
            total.units += stats.units
            total.busy += stats.busy
            total.self_time += stats.self_time
            total.bytes_computed += stats.bytes_computed
            op.calls_by_name[target.name] = stats.calls
        return op
