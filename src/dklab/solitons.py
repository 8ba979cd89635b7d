"""Stationary envelope solitons and approximate chain breathers.

A stationary envelope a_j(tau) = A_j e^{i Omega_s tau} of the standard
envelope equation satisfies the real algebraic system

    -2 Omega_s A_j + 3 nu A_j^3 = A_{j+1} + A_{j-1},

with a spatially localized solution only for frequencies above the linear
band, Omega_s > 1.  In the uncoupled caricature (neighbours zeroed) the
nontrivial roots are +-sqrt(2 Omega_s / (3 nu)); seeding Newton's method
with such roots on a few sites and zero elsewhere continues them to
localized profiles on the coupled ring.  The tails decay geometrically
with alternating sign: the linearized tail recursion
A_{j+1} + 2 Omega_s A_j + A_{j-1} = 0 has root -lambda with
lambda = Omega_s - sqrt(Omega_s^2 - 1) in (0, 1), so |A_{j+1}/A_j| tends to
lambda.  Below the band, Omega_s < -1, only the zero profile exists for
nu > 0: at the site of largest |A_j| the left side has magnitude at least
2 |Omega_s| |A_j| > 2 |A_j|, more than the right side can reach.  So
Omega_s <= 1 is refused.

A profile lifted through the two-harmonic ansatz at t = 0 gives chain
initial data for an approximate breather.  With tau = eps t the envelope
a = A e^{i Omega_s eps t} turns both harmonics of the ansatz, a e^{it} and
a^3 e^{3it}, into functions of (1 + eps Omega_s) t, so the breather has the
carrier frequency 1 + eps Omega_s and the period

    T = 2 pi / (1 + eps Omega_s),

exactly, with no envelope run.  It is time-periodic to the accuracy of the
envelope approximation, i.e. over horizons of order 1/rho, and only while
eps Omega_s, the shift of the carrier frequency, stays small:
``carrier_shift`` refuses eps Omega_s > ``MAX_EPS_OMEGA`` here and in the
justify family's soliton runs.  The chain run of the period-return errors
goes through :func:`dklab.integrators.integrate` and its blow-up guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import NewtonDivergenceError, NewtonSingularError, RegimeError
from .approximation import leading_order
from .dnls_models import StandardDnls, rhs
from .integrators import MAX_DT, IntegratorConfig, integrate, step_count
from .lattice_core import FloatText, LatticeState, ModelParams, _frozen_vector, write_csv

__all__ = [
    "SolitonProfile",
    "BreatherReturnReport",
    "stationary_defect",
    "solve_soliton",
    "check_profile",
    "seed_signs",
    "tail_decay_ratios",
    "build_breather_initial",
    "breather_plan",
    "breather_return_error",
    "carrier_shift",
    "MAX_NEWTON_N",
    "MAX_EPS_OMEGA",
]

_DEFECT_ACCEPT = 1e-10
_NEWTON_TOL = 1e-12
# Largest half-size N for the dense Newton Jacobian (425 MB peak RSS at N=2048).
MAX_NEWTON_N = 2048
# Largest carrier-frequency shift eps * Omega_s of a breather-return run.
MAX_EPS_OMEGA = 0.5
# Newton iteration budget of solve_soliton.
MAX_NEWTON_ITERATIONS = 50
# First flank site m of tail_decay_ratios, clear of the soliton's core.
TAIL_START = 3


@dataclass(frozen=True)
class SolitonProfile:
    """Real stationary envelope profile with its frequency and solve
    metadata.  The phase gauge is fixed by realness."""

    A: np.ndarray
    Omega_s: float
    nu: float
    newton_residual: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen_vector(self.A, "A", float))
        check_profile(self.Omega_s, self.nu, self.n_half)
        if self.newton_residual > _DEFECT_ACCEPT:
            raise ValueError(
                f"profile defect {self.newton_residual:.2e} exceeds {_DEFECT_ACCEPT}"
            )

    @property
    def n_half(self) -> int:
        return len(self.A) // 2

    @cached_property
    def text(self) -> FloatText:
        """A as :class:`FloatText`, which the writers of the profile's CSV and
        JSON files share."""
        return FloatText(self.A)

    def to_json_dict(self) -> dict:
        return {**self.to_json_payload(), "A": self.A.tolist()}

    def to_json_payload(self) -> dict:
        """:meth:`to_json_dict` with A as :attr:`text`, for
        ``cli._write_json``."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "A": self.text}

    def write_csv(self, path, header_comment: str | None = None) -> None:
        """Columns j, A; A is :attr:`text`."""
        comments = [header_comment] if header_comment else []
        sites = range(-self.n_half, len(self.A) - self.n_half)
        write_csv(path, ("j", "A"), (sites, self.text), comments)


def stationary_defect(A: np.ndarray, Omega_s: float, nu: float) -> np.ndarray:
    """D_j = -2 Omega_s A_j + 3 nu A_j^3 - A_{j+1} - A_{j-1}."""
    A = np.asarray(A, dtype=float)
    return -2.0 * Omega_s * A + 3.0 * nu * (A * A * A) - np.roll(A, -1) - np.roll(A, 1)


def seed_signs(seed_sites: Union[Iterable[int], Mapping[int, float]], N: int) -> dict[int, float]:
    """The seed's sign on each site of ``seed_sites`` (sites, or a mapping
    {site: sign}); ValueError for a zero sign or a site outside [-N, N].  It
    allocates nothing, so a caller can check seeds before any work."""
    if isinstance(seed_sites, Mapping):
        out = {int(j): float(np.sign(s)) for j, s in seed_sites.items()}
        if any(s == 0.0 for s in out.values()):
            raise ValueError("seed signs must be nonzero")
    else:
        out = {int(j): 1.0 for j in seed_sites}
    for j in out:
        if not (-N <= j <= N):
            raise ValueError(f"seed site {j} outside [-{N}, {N}]")
    return out


def check_profile(Omega_s: float, nu: float, N: int) -> None:
    """Refuse, with ValueError, a stationary profile on 2N+1 sites that
    :func:`solve_soliton` would not solve: Omega_s <= 1, nu <= 0 or N above
    ``MAX_NEWTON_N``.  It allocates nothing, so a caller can check a profile
    before any work."""
    if Omega_s <= 1.0:
        raise ValueError(
            f"Omega_s={Omega_s} is not above the linear band [-1, 1]: localized "
            "profiles need Omega_s > 1, and below -1 only the zero profile exists"
        )
    if nu <= 0.0:
        raise ValueError(f"nu={nu} must be positive")
    if N > MAX_NEWTON_N:
        n = 2 * N + 1
        raise ValueError(
            f"N={N} needs a dense {n}x{n} Newton Jacobian ({8e-9 * n * n:.3g} GB), "
            f"above the ceiling of N={MAX_NEWTON_N}"
        )


def solve_soliton(
    Omega_s: float,
    nu: float,
    N: int,
    seed_sites: Union[Iterable[int], Mapping[int, float]] = (0,),
) -> SolitonProfile:
    """Newton-solve the stationary system from an uncoupled-caricature seed.

    ``seed_sites`` is a set of signed site indices, or a mapping
    {site: sign} for multi-site profiles with prescribed sign patterns; the
    seed amplitude on each listed site is sign * sqrt(2 Omega_s / (3 nu)).
    An empty seed returns the trivial zero profile.  Convergence is
    quadratic near a nondegenerate solution; a numerically singular
    Jacobian raises :class:`NewtonSingularError`, and failure to reach a
    defect of 1e-10 within ``MAX_NEWTON_ITERATIONS`` raises
    :class:`NewtonDivergenceError` carrying the last iterate.  A profile that
    :func:`check_profile` refuses, or seeds that :func:`seed_signs` refuses,
    raise ValueError before anything is allocated.
    """
    check_profile(Omega_s, nu, N)
    n = 2 * N + 1
    seeds = seed_signs(seed_sites, N)
    A = np.zeros(n)
    amp = math.sqrt(2.0 * Omega_s / (3.0 * nu))
    for j, sign in seeds.items():
        A[j + N] = sign * amp

    if not seeds:
        return SolitonProfile(A, Omega_s, nu, 0.0, 0)

    off = np.zeros((n, n))
    idx = np.arange(n)
    off[idx, (idx + 1) % n] = 1.0
    off[idx, (idx - 1) % n] = 1.0

    defect = stationary_defect(A, Omega_s, nu)
    for it in range(1, MAX_NEWTON_ITERATIONS + 1):
        jac = np.diag(-2.0 * Omega_s + 9.0 * nu * A**2) - off
        try:
            step = np.linalg.solve(jac, defect)
        except np.linalg.LinAlgError as exc:
            raise NewtonSingularError(
                f"singular Jacobian at iteration {it} (Omega_s={Omega_s}, nu={nu})"
            ) from exc
        A = A - step
        defect = stationary_defect(A, Omega_s, nu)
        res = float(np.max(np.abs(defect)))
        if res <= _NEWTON_TOL:
            return SolitonProfile(A, Omega_s, nu, res, it)
    res = float(np.max(np.abs(defect)))
    if res <= _DEFECT_ACCEPT:
        return SolitonProfile(A, Omega_s, nu, res, MAX_NEWTON_ITERATIONS)
    raise NewtonDivergenceError(
        f"no convergence in {MAX_NEWTON_ITERATIONS} iterations "
        f"(Omega_s={Omega_s}, nu={nu}, seeds={sorted(seeds)})",
        A,
        res,
    )


def tail_decay_ratios(profile: SolitonProfile) -> np.ndarray:
    """|A_{m+1}| / |A_m| along the decaying flank, for m = ``TAIL_START``..
    while the amplitudes stay well above rounding.  For single-humped
    profiles these approach Omega_s - sqrt(Omega_s^2 - 1).

    Sites near the antipode of the ring are excluded: there the two tails
    running around the ring meet and the ratio bends away from the
    infinite-chain value.
    """
    N = profile.n_half
    center = N  # storage index of site 0
    flank = np.abs(profile.A[center:])
    stop = N - max(3, N // 4)  # keep clear of the antipodal meeting point
    ratios = []
    for m in range(TAIL_START, stop):
        if flank[m] < 1e-12 or flank[m + 1] < 1e-14:
            break
        ratios.append(flank[m + 1] / flank[m])
    return np.array(ratios)


def build_breather_initial(
    profile: SolitonProfile, epsilon: float, rho: float
) -> LatticeState:
    """Chain initial data for the approximate breather: the two-harmonic
    ansatz at t = 0 evaluated on the profile.  Requires rho = eps * nu,
    the balance the profile was solved under.  For a real profile the
    initial velocity vanishes identically (even-in-time breather)."""
    if abs(rho - epsilon * profile.nu) > 1e-12 * max(1.0, rho):
        raise ValueError(
            f"rho={rho} must equal eps*nu={epsilon * profile.nu} for this profile"
        )
    a = profile.A.astype(complex)
    adot = rhs(StandardDnls(profile.nu), a)
    ans = leading_order(a, adot, rho, epsilon, 0.0)
    return LatticeState(ans.X, ans.Xdot, 0.0)


def carrier_shift(epsilon: float, Omega_s: float) -> float:
    """eps * Omega_s, the carrier-frequency shift of a soliton envelope on
    the chain; RegimeError above ``MAX_EPS_OMEGA``, outside the
    small-amplitude regime."""
    eps_omega = epsilon * Omega_s
    if eps_omega > MAX_EPS_OMEGA:
        raise RegimeError(
            f"eps*Omega_s={eps_omega:g} (eps={epsilon}, Omega_s={Omega_s}) "
            f"exceeds the small-amplitude limit {MAX_EPS_OMEGA}"
        )
    return eps_omega


@dataclass
class BreatherReturnReport:
    """Return errors ||xi(kT) - xi(0)|| + ||xi'(kT) - xi'(0)|| for
    k = 1..n_periods, with the period T = 2 pi / (1 + eps Omega_s).
    ``omega_fit`` holds the profile's Omega_s, which fixes T."""

    period: float
    omega_fit: float
    times: np.ndarray
    errors: np.ndarray


def breather_plan(
    epsilon: float, Omega_s: float, rho: float, n_periods: int, dt: float = 1e-3
) -> tuple[float, IntegratorConfig]:
    """The period T = 2 pi / (1 + eps Omega_s) of the breather of a profile
    with ``Omega_s``, and the chain's steps over ``n_periods`` periods.

    Refuses eps Omega_s above ``MAX_EPS_OMEGA``, outside the small-amplitude
    regime, then fewer than one period, then horizons beyond tau0/rho with
    tau0 = 1, past which the envelope approximation no longer controls the
    error, then runs of more than ``MAX_STEPS`` steps in all.  The step is
    snapped to divide the period exactly, so :func:`dklab.integrators.integrate`
    records the chain at kT without interpolation.  It allocates nothing, so
    a caller can check a run before any work.
    """
    period = 2.0 * math.pi / (1.0 + carrier_shift(epsilon, Omega_s))
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if n_periods * period > 1.0 / rho + 1e-9:
        raise RegimeError(
            f"{n_periods} periods of T={period:.4f} exceed the validity "
            f"horizon 1/rho={1.0 / rho:.4f}"
        )
    # no fewer steps than IntegratorConfig's largest step MAX_DT needs
    steps = max(step_count(period, dt), math.ceil(period / MAX_DT))
    h = period / steps
    return period, IntegratorConfig(h, n_periods * steps * h, steps)


def breather_return_error(
    profile: SolitonProfile,
    epsilon: float,
    rho: float,
    n_periods: int,
    dt: float = 1e-3,
) -> BreatherReturnReport:
    """Integrate the chain from the constructed breather and report the
    mismatch with the initial state after each period
    T = 2 pi / (1 + eps Omega_s) of the stationary envelope, over the steps
    of :func:`breather_plan`, which refuses the run before any work.
    """
    period, config = breather_plan(epsilon, profile.Omega_s, rho, n_periods, dt)
    state0 = build_breather_initial(profile, epsilon, rho)
    x0, y0 = state0.x, state0.y
    traj = integrate(state0, ModelParams(epsilon, rho, profile.n_half), config, [
        lambda t, s: {"error": np.linalg.norm(s.x - x0) + np.linalg.norm(s.y - y0)}
    ])
    errors = traj.diagnostics["error"][1:]
    times = period * np.arange(1, n_periods + 1)
    return BreatherReturnReport(period, profile.Omega_s, times, errors)
