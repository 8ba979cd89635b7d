"""Time steppers and trajectory drivers.

Two schemes cover the two flows in the package:

* Stoermer-Verlet (velocity form) for the second-order chain.  Symplectic,
  time-reversible, energy error O(dt^2) with no secular drift, which is what
  the long horizons (up to ~1/rho fast-time units) require.
* Classical RK4 for the first-order envelope flows, whose Hamiltonian
  structure is not separable in real coordinates; the squared l2 norm is
  monitored as the accuracy proxy instead.

``integrate`` advances an initial state to ``t_end``, recording every
``observer_stride`` steps.  Observers receive (t, state) read-only and
return named diagnostics.  An initial state or recorded sample with a
non-finite entry or an entry beyond 1e6 in magnitude aborts the run with
:class:`BlowUpError`.  The hard quartic potential makes the exact flow
global, so a recorded sample that trips the guard always means the
discretisation failed.

Times in a trajectory are in the model's own clock: fast time for the chain
and the normal-form envelope, slow time for the multiscale envelopes.

The chain's step loop, ``_advance_verlet``, runs a C kernel (``_verlet.c``,
shipped next to this file) when it can.  The kernel is compiled on first use,
never at import, with the system ``cc -O2 -ffp-contract=off -shared -fPIC``
into ``$XDG_CACHE_HOME/dklab/`` (default ``~/.cache/dklab/``) under a name
keyed on the source, the flags and the machine type.  It performs the numpy
loop's operations in the same order, so its results are bit-identical to
``_advance_verlet_numpy``, which stays as the reference.  When there is no
compiler, the cache cannot be written, the library does not load, or the
arrays are not equal-length, contiguous, writeable float64 vectors, the
numpy loop runs instead, silently.  :func:`verlet_backend` reports which of
the two the process uses.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import BlowUpError
from .dnls_models import DnlsModel, EnvelopeState, rhs
from .lattice_core import LatticeState, ModelParams, neighbor_sum, write_csv

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "step_dkg_verlet",
    "step_envelope_rk4",
    "integrate",
    "verlet_backend",
    "BLOWUP_LIMIT",
]

BLOWUP_LIMIT = 1.0e6

Observer = Callable[[float, object], Mapping[str, float]]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, recording stride and scheme tag.

    dt must resolve the unit carrier frequency of the chain, hence the
    hard cap dt <= 0.1.
    """

    dt: float
    t_end: float
    observer_stride: int = 1
    scheme: str = "verlet"

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.1):
            raise ValueError(
                f"dt={self.dt} must lie in (0, 0.1]: larger steps do not "
                "resolve the unit-frequency oscillation"
            )
        if self.t_end < self.dt:
            raise ValueError(f"t_end={self.t_end} must be >= dt={self.dt}")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be a positive integer")
        if self.scheme not in ("verlet", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class Trajectory:
    """Recorded samples of one integration.

    ``snapshots`` is empty when the driver was asked not to retain states
    (long runs stream to disk instead).  ``diagnostics`` maps each observer
    output name to an array aligned with ``times``.
    """

    times: np.ndarray
    snapshots: list
    diagnostics: dict[str, np.ndarray]
    clock: str = "fast"

    def write_csv(self, path, config_hash: str | None = None) -> None:
        names = sorted(self.diagnostics)
        rows = np.column_stack([self.times] + [self.diagnostics[n] for n in names]).tolist()
        comments = [f"config_hash={config_hash}"] if config_hash else []
        write_csv(path, ["t"] + names, rows, comments)


# -- low-level kernels -------------------------------------------------------


def _dkg_force(x: np.ndarray, epsilon: float, rho: float) -> np.ndarray:
    return -x - rho * x**3 + epsilon * neighbor_sum(x)


_KERNEL_SOURCE = Path(__file__).with_name("_verlet.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _compiled_kernel():
    """The C step loop of ``_verlet.c``, loaded through ctypes, or None.

    Built on the first call into the cache directory.  The compiler writes a
    temporary file that is then renamed into place, so a process never loads
    a library another process is still writing.
    """
    import ctypes
    import subprocess

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no usable home directory: never write into the cwd
        return None
    cache = Path(base, "dklab")
    try:
        source = _KERNEL_SOURCE.read_bytes()
        key = hashlib.sha256(
            b"\0".join([source, " ".join(_KERNEL_FLAGS).encode(), platform.machine().encode()])
        ).hexdigest()[:16]
        lib = cache / f"_verlet-{key}.so"
        if not lib.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(
                    [cc, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                    check=True, capture_output=True, timeout=120,
                )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(lib)).dklab_advance_verlet
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    fn.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
    )
    fn.restype = None
    return fn


def verlet_backend() -> str:
    """``"compiled"`` when ``_advance_verlet`` runs the C kernel on float64
    vectors in this process, ``"numpy"`` when it falls back to the numpy loop.
    Builds the kernel if it is not built yet."""
    return "numpy" if _compiled_kernel() is None else "compiled"


def _kernel_accepts(x, y, f) -> bool:
    n = len(x)
    return all(
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.ndim == 1
        and a.shape[0] == n
        and a.flags.c_contiguous
        and a.flags.writeable
        for a in (x, y, f)
    )


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
    outgoing x on return.  Runs the compiled kernel when it is available
    and the arrays suit it, else ``_advance_verlet_numpy``; both give
    bit-identical x, y and f.
    """
    kernel = _compiled_kernel()
    if kernel is not None and _kernel_accepts(x, y, f):
        kernel(x.ctypes.data, y.ctypes.data, f.ctypes.data, len(x), epsilon, rho, dt, n_steps)
    else:
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
    must match bit for bit.

    It builds its periodic index maps and its scratch buffer once per call,
    before the step loop, so the loop itself allocates nothing.
    """
    n = len(x)
    up = np.arange(1, n + 1) % n
    dn = np.arange(-1, n - 1) % n
    tmp = np.empty(n)
    half = 0.5 * dt
    for _ in range(n_steps):
        y += half * f
        x += dt * y
        # force(x) into f
        np.take(x, up, out=f)
        np.take(x, dn, out=tmp)
        f += tmp
        f *= epsilon
        f -= x
        np.multiply(x, x, out=tmp)
        tmp *= x
        tmp *= rho
        f -= tmp
        y += half * f


def _rk4_step(a: np.ndarray, fun, h: float) -> np.ndarray:
    k1 = fun(a)
    k2 = fun(a + (0.5 * h) * k1)
    k3 = fun(a + (0.5 * h) * k2)
    k4 = fun(a + h * k3)
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
    a = _rk4_step(env.a, lambda z: rhs(model, z), dt)
    return EnvelopeState(a, env.tau + dt)


# -- driver -------------------------------------------------------------------


def _check_sane(arrs: Iterable[np.ndarray], t_last_good: float, initial: bool = False) -> None:
    for arr in arrs:
        m = np.max(np.abs(arr)) if arr.size else 0.0
        if not np.isfinite(m) or m > BLOWUP_LIMIT:
            what = "initial state out of range" if initial else "state blew up during integration"
            raise BlowUpError(what, t_last_good)


def integrate(
    state0: Union[LatticeState, EnvelopeState],
    system: Union[ModelParams, DnlsModel],
    config: IntegratorConfig,
    observers: Sequence[Observer] = (),
    keep_snapshots: bool = True,
    sample_sink: Callable[[float, object, Mapping[str, float]], None] | None = None,
) -> Trajectory:
    """Advance state0 to t_end, recording every observer_stride steps.

    The initial state is always recorded; so is the final one.  Observers
    must be reentrant per run: they receive the current time and a freshly
    constructed immutable state.  ``sample_sink`` is called with
    (t, state, diagnostics) at every recorded sample, which lets callers
    stream long runs to disk with ``keep_snapshots=False``.
    """
    is_lattice = isinstance(state0, LatticeState)
    if is_lattice and not isinstance(system, ModelParams):
        raise TypeError("a LatticeState requires ModelParams")
    if not is_lattice and not isinstance(state0, EnvelopeState):
        raise TypeError(f"cannot integrate state of type {type(state0)!r}")
    if is_lattice and config.scheme != "verlet":
        raise ValueError("the chain flow uses the 'verlet' scheme")
    if not is_lattice and config.scheme != "rk4":
        raise ValueError("envelope flows use the 'rk4' scheme")

    times: list[float] = []
    snaps: list = []
    diag_rows: list[Mapping[str, float]] = []
    t0 = state0.t if is_lattice else state0.tau
    clock = "fast" if is_lattice or system.clock == "fast" else "slow"

    def record(t: float, state) -> None:
        row: dict[str, float] = {}
        for obs in observers:
            row.update(obs(t, state))
        times.append(t)
        diag_rows.append(row)
        if keep_snapshots:
            snaps.append(state)
        if sample_sink is not None:
            sample_sink(t, state, row)

    _check_sane((state0.x, state0.y) if is_lattice else (state0.a,), t0, initial=True)
    record(t0, state0)
    n_steps = config.n_steps
    stride = config.observer_stride
    dt = config.dt

    if is_lattice:
        x = state0.x.copy()
        y = state0.y.copy()
        f = _dkg_force(x, system.epsilon, system.rho)
        done = 0
        t_good = t0
        while done < n_steps:
            k = min(stride, n_steps - done)
            _advance_verlet(x, y, f, system.epsilon, system.rho, dt, k)
            done += k
            t = t0 + done * dt
            _check_sane((x, y), t_good)
            record(t, LatticeState(x, y, t))
            t_good = t
    else:
        a = state0.a.copy()
        fun = lambda z: rhs(system, z)  # noqa: E731
        done = 0
        t_good = t0
        while done < n_steps:
            k = min(stride, n_steps - done)
            for _ in range(k):
                a = _rk4_step(a, fun, dt)
            done += k
            t = t0 + done * dt
            _check_sane((a,), t_good)
            record(t, EnvelopeState(a, t))
            t_good = t

    names: set[str] = set()
    for row in diag_rows:
        names.update(row)
    diagnostics = {
        name: np.array([row.get(name, np.nan) for row in diag_rows]) for name in names
    }
    return Trajectory(np.array(times), snaps, diagnostics, clock)
