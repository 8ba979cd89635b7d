"""Time steppers and the trajectory driver.

Two methods cover the two flows in the package:

* Stoermer-Verlet (velocity form) for the second-order chain.  Symplectic,
  time-reversible, energy error O(dt^2) with no secular drift, which is what
  the long horizons (up to ~1/rho fast-time units) require.
* Classical RK4 for the first-order envelope flows, whose Hamiltonian
  structure is not separable in real coordinates; the squared l2 norm is
  monitored as the accuracy proxy instead.

Every stepped run goes through one stride loop, ``_strides``, which both
``integrate`` and ``approximation.run_justification`` iterate.  ``integrate``
advances an initial state to ``t_end``, recording every ``observer_stride``
steps: the state's type picks the advance (Verlet for a :class:`LatticeState`,
RK4 for an :class:`EnvelopeState`) and the type of the recorded states.
Observers receive (t, state) read-only at every recorded sample and return
named diagnostics (``{}`` for one that only streams the states to disk); the
trajectory keeps those and the last state, ``Trajectory.final``.  An initial
state or recorded sample with a non-finite entry or an entry beyond 1e6 in
magnitude aborts the run with :class:`BlowUpError` before any observer sees
it.  The hard quartic potential makes the exact flow global, so a recorded
sample that trips the guard always means the discretisation failed.
:func:`step_count` turns every horizon into steps and refuses more than
``MAX_STEPS``.

Times in a trajectory are in the model's own clock: fast time for the chain
and the normal-form envelope, slow time for the multiscale envelopes.

The chain's step loop ``_advance_verlet``, the envelope step ``_rk4_step``
(one call per step for the four stencils of ``dnls_models.rhs`` and the
stages) and the blow-up guard run compiled kernels of the extension
``dklab._kernels``, which :mod:`dklab._native` builds from ``_kernels.c`` on
first use (never at import). The Verlet kernel makes two passes over the
ring per step, as ``_advance_verlet_numpy`` does; a ring of 2304 sites or
more advances instead block by block in L1 time tiles of up to 32 steps when
a call runs 2 steps or more. Its loops are ones gcc vectorises, with AVX-512
and AVX2 clones picked at load time on x86-64, where a tile's step is one
pass over vectors of 8 or 4 sites. The kernels perform numpy's
operations in the same order, so they are bit-identical to
``_advance_verlet_numpy``, ``_rk4_step_numpy`` and np.max(np.abs(arr)),
except that the RK4 step's NaNs can differ in sign (no output byte does). The
complex ones (the RK4 step, an envelope's guard) run only when
:func:`dklab._native.complex_exact` has found their arithmetic equal to
numpy's. Without that, without the
extension, or when the arrays are not equal-length, contiguous, native
float64 (chain) or complex128 (envelope) vectors of 3 or more sites, the
numpy forms run instead, silently. :func:`verlet_backend` reports whether
the process has the kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from . import _native
from .errors import BlowUpError
from .dnls_models import DnlsModel, EnvelopeState, _rhs_numpy
from .lattice_core import FloatText, LatticeState, ModelParams, neighbor_sum, write_csv

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "step_dkg_verlet",
    "step_envelope_rk4",
    "integrate",
    "verlet_backend",
    "step_count",
    "BLOWUP_LIMIT",
    "MAX_STEPS",
    "MAX_DT",
]

BLOWUP_LIMIT = 1.0e6
# Far above the longest run in the tests and the benchmark (1.6e6 steps), far
# below a horizon typed with a few digits too many.
MAX_STEPS = 10**8
# The longest step that resolves the unit carrier frequency of the chain.
MAX_DT = 0.1

Observer = Callable[[float, object], Mapping[str, float]]


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt that cover t_end, at least one.

    Raises ValueError when that exceeds ``MAX_STEPS``.
    """
    steps = t_end / dt
    if not steps < MAX_STEPS + 0.5:
        raise ValueError(
            f"the horizon t_end={t_end:g} needs {steps:.6g} steps of dt={dt:g}, "
            f"above the ceiling of {MAX_STEPS} steps"
        )
    return max(1, int(round(steps)))


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and recording stride.

    dt must resolve the unit carrier frequency of the chain, hence the
    hard cap dt <= ``MAX_DT``.
    """

    dt: float
    t_end: float
    observer_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt <= MAX_DT):
            raise ValueError(
                f"dt={self.dt} must lie in (0, {MAX_DT}]: larger steps do not "
                "resolve the unit-frequency oscillation"
            )
        if self.t_end < self.dt:
            raise ValueError(f"t_end={self.t_end} must be >= dt={self.dt}")
        if self.observer_stride < 1:
            raise ValueError(f"stride {self.observer_stride} must be >= 1")
        step_count(self.t_end, self.dt)

    @property
    def n_steps(self) -> int:
        return step_count(self.t_end, self.dt)


@dataclass
class Trajectory:
    """Recorded samples of one integration.

    ``final`` is the last recorded state.  ``diagnostics`` maps each observer
    output name to an array aligned with ``times``.
    """

    times: np.ndarray
    final: Union[LatticeState, EnvelopeState]
    diagnostics: dict[str, np.ndarray]
    clock: str = "fast"

    def write_csv(self, path, config_hash: str | None = None) -> None:
        names = sorted(self.diagnostics)
        columns = map(FloatText, [self.times] + [self.diagnostics[n] for n in names])
        comments = [f"config_hash={config_hash}"] if config_hash else []
        write_csv(path, ["t"] + names, columns, comments)


# -- low-level kernels -------------------------------------------------------


def _dkg_force(x: np.ndarray, epsilon: float, rho: float) -> np.ndarray:
    return -x - rho * x**3 + epsilon * neighbor_sum(x)


def verlet_backend() -> str:
    """``"compiled"`` when this process runs the compiled kernels of
    ``dklab._kernels`` (``_advance_verlet`` always, ``rhs`` and ``_rk4_step``
    when ``_native.complex_exact()`` holds), ``"numpy"`` when it falls back
    to their numpy forms.  Builds the extension if it is not built yet."""
    return "numpy" if _native.kernels() is None else "compiled"


def _advance_verlet(
    x: np.ndarray,
    y: np.ndarray,
    f: np.ndarray,
    epsilon: float,
    rho: float,
    dt: float,
    n_steps: int,
) -> None:
    """Advance (x, y) in place by n_steps velocity-Verlet steps.

    ``f`` must hold the force at the incoming x and holds the force at the
    outgoing x on return.  Runs the compiled ``advance_verlet`` when it is
    available and the arrays are equal-length, contiguous, writeable native
    float64 vectors of 3 or more sites, else ``_advance_verlet_numpy``; both
    give bit-identical x, y and f.  The compiled loop makes numpy's two
    passes per step, except on rings of 2304 sites or more in calls of 2
    steps or more, which it advances in L1 time tiles of blocks of 1024
    sites; with AVX-512 or AVX2 it steps a tile in one pass over vectors of
    8 or 4 sites, storing x, y and f once per step.  At 16385 sites a
    site-step takes about 0.42 ns in 1000-step calls with AVX-512 (0.52 ns
    in two passes per tile step) and 0.65 ns with AVX2 (0.69 ns).
    """
    kernels = _native.kernels()
    if kernels is None or not kernels.advance_verlet(x, y, f, epsilon, rho, dt, n_steps):
        _advance_verlet_numpy(x, y, f, epsilon, rho, dt, n_steps)


def _advance_verlet_numpy(
    x: np.ndarray,
    y: np.ndarray,
    f: np.ndarray,
    epsilon: float,
    rho: float,
    dt: float,
    n_steps: int,
) -> None:
    """The numpy form of ``_advance_verlet``, and the reference the C kernel
    must match bit for bit."""
    half = 0.5 * dt
    for _ in range(n_steps):
        y += half * f
        x += dt * y
        f[:] = (neighbor_sum(x) * epsilon - x) - x * x * x * rho
        y += half * f


def _rk4_step(a: np.ndarray, model: DnlsModel, h: float) -> np.ndarray:
    """One classical RK4 step of the model's envelope flow a' = rhs(model, a).

    Runs the compiled ``rk4`` when ``_native.complex_exact()`` holds and
    ``a`` is a contiguous complex128 vector of 3 or more sites, else
    ``_rk4_step_numpy``; both give the same finite results and NaN
    positions, bit for bit, but a NaN's sign can differ (never an output
    byte; the ``_kernels.c`` header gives a case).
    """
    if _native.complex_exact():
        out = np.empty(len(a), complex)
        if _native.kernels().rk4(a, out, h, *model.coefficients):
            return out
    return _rk4_step_numpy(a, model, h)


def _rk4_step_numpy(a: np.ndarray, model: DnlsModel, h: float) -> np.ndarray:
    """The numpy form of ``_rk4_step``, and the reference the compiled
    ``rk4`` must match bit for bit."""
    k1 = _rhs_numpy(model, a)
    k2 = _rhs_numpy(model, a + (0.5 * h) * k1)
    k3 = _rhs_numpy(model, a + (0.5 * h) * k2)
    k4 = _rhs_numpy(model, a + h * k3)
    return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- public single steps -----------------------------------------------------


def step_dkg_verlet(state: LatticeState, params: ModelParams, dt: float) -> LatticeState:
    """One velocity-Verlet step of the chain with force
    F_j = -x_j - rho x_j^3 + eps (x_{j+1} + x_{j-1}).

    Stepping with -dt from the result recovers the input to rounding
    (time reversibility).
    """
    x = state.x.copy()
    y = state.y.copy()
    f = _dkg_force(x, params.epsilon, params.rho)
    _advance_verlet(x, y, f, params.epsilon, params.rho, dt, 1)
    return LatticeState(x, y, state.t + dt)


def step_envelope_rk4(env: EnvelopeState, model: DnlsModel, dt: float) -> EnvelopeState:
    """One classical fourth-order step of the model's envelope flow."""
    a = _rk4_step(env.a, model, dt)
    return EnvelopeState(a, env.tau + dt)


# -- driver -------------------------------------------------------------------


def _check_sane(arrs: Iterable[np.ndarray], t_last_good: float, initial: bool = False) -> None:
    """Raise BlowUpError when an array has a non-finite entry or one beyond
    ``BLOWUP_LIMIT`` in magnitude.  The compiled ``sup_abs`` takes float64
    vectors, and complex128 ones when ``_native.complex_exact()`` holds; it
    returns np.max(np.abs(arr)), so both paths decide alike."""
    kernels = _native.kernels()
    complex_ok = _native.complex_exact()
    for arr in arrs:
        m = None if kernels is None else kernels.sup_abs(arr, complex_ok)
        if m is None:
            m = np.max(np.abs(arr)) if arr.size else 0.0
        if not math.isfinite(m) or m > BLOWUP_LIMIT:
            what = "initial state out of range" if initial else "state blew up during integration"
            raise BlowUpError(what, t_last_good)


def _strides(advance: Callable[[int], tuple], config: IntegratorConfig, t0: float):
    """Run ``config``'s steps as ``advance(k)`` calls of at most
    ``observer_stride`` steps, where ``advance(k)`` takes k steps of
    ``config.dt`` and returns the state's arrays; after each call, guard the
    arrays and yield ``(t, arrays)`` with t = t0 + (steps done) * dt."""
    n_steps, dt = config.n_steps, config.dt
    done = 0
    t_good = t0
    while done < n_steps:
        k = min(config.observer_stride, n_steps - done)
        arrays = advance(k)
        done += k
        t = t0 + done * dt
        _check_sane(arrays, t_good)
        yield t, arrays
        t_good = t


def integrate(
    state0: Union[LatticeState, EnvelopeState],
    system: Union[ModelParams, DnlsModel],
    config: IntegratorConfig,
    observers: Sequence[Observer] = (),
) -> Trajectory:
    """Advance state0 to t_end, recording every observer_stride steps.

    A :class:`LatticeState` with :class:`ModelParams` runs Verlet, an
    :class:`EnvelopeState` with a :class:`DnlsModel` runs RK4.  The initial
    state is always recorded; so is the final one, which the trajectory keeps
    as ``final``.  Observers must be reentrant per run: at every recorded
    sample they receive the current time and a freshly constructed immutable
    state, so an observer can also stream the states to disk.  Each observer
    returns the same names at every sample (``{}`` when it only streams);
    ``diagnostics`` holds one array per name of the first sample.
    """
    dt = config.dt
    if isinstance(state0, LatticeState):
        if not isinstance(system, ModelParams):
            raise TypeError("a LatticeState requires ModelParams")
        make, t0, clock = LatticeState, state0.t, "fast"
        x, y = state0.x.copy(), state0.y.copy()
        _check_sane((x, y), t0, initial=True)
        f = _dkg_force(x, system.epsilon, system.rho)

        def advance(k: int) -> tuple:
            _advance_verlet(x, y, f, system.epsilon, system.rho, dt, k)
            return x, y

    elif isinstance(state0, EnvelopeState):
        make, t0, clock = EnvelopeState, state0.tau, system.clock
        a = state0.a.copy()
        _check_sane((a,), t0, initial=True)

        def advance(k: int) -> tuple:
            nonlocal a
            for _ in range(k):
                a = _rk4_step(a, system, dt)
            return (a,)

    else:
        raise TypeError(f"cannot integrate state of type {type(state0)!r}")

    times: list[float] = []
    diag_rows: list[Mapping[str, float]] = []

    def record(t: float, state) -> None:
        row: dict[str, float] = {}
        for obs in observers:
            row.update(obs(t, state))
        times.append(t)
        diag_rows.append(row)

    record(t0, state0)
    state = state0
    for t, arrays in _strides(advance, config, t0):
        state = make(*arrays, t)
        record(t, state)

    diagnostics = {name: np.array([row[name] for row in diag_rows]) for name in diag_rows[0]}
    return Trajectory(np.array(times), state, diagnostics, clock)
