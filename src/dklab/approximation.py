"""Two-harmonic envelope approximation of the chain and its error control.

The slowly modulated approximation of the chain displacement is

    X_j(t) = a_j(tau) e^{it} + conj(a_j) e^{-it}
             + rho/8 [ a_j(tau)^3 e^{3it} + conj(a_j)^3 e^{-3it} ],

with tau = eps t and the envelope a(tau) evolving under one of the
slow-clock models of :mod:`dklab.dnls_models`.  The third-harmonic
correction removes the leading non-resonant cubic defect; what remains when
X is substituted into the chain equation is the residual

    Res_j = X_j'' + X_j + rho X_j^3 - eps (X_{j+1} + X_{j-1}),

which this module evaluates along two independent routes:

* ``residual_direct``   -- assemble X'' from exact chain-rule derivatives of
  the envelope (a' from the model right-hand side, a'' from
  :func:`dklab.dnls_models.second_derivative`) and evaluate the defect as
  written above;
* ``residual_expanded`` -- the term-by-term expansion of the same defect
  into its seven harmonic groups (carrier group, shifted-cube group, three
  cross terms from the cube of the two-harmonic sum, the second-derivative
  third-harmonic group, and the pure ninth-harmonic group).

The two are algebraically identical whenever the envelope satisfies the
matching model, so their agreement to rounding is the strongest
transcription check in the package.

For a chain trajectory xi(t) with error y = xi - X, the quadratic form

    E = 1/2 sum_j [ y'_j^2 + y_j^2 + 3 rho X_j^2 y_j^2 - 2 eps y_j y_{j+1} ]

is coercive for eps < 1/4, with ||y'||^2 + ||y||^2 <= 4 E, and evolves at
the rate

    dE/dt = sum_j [ -y'_j Res_j + 3 rho X_j X'_j y_j^2
                    - 3 rho X_j y_j^2 y'_j - rho y_j^3 y'_j ],

so Q = sqrt(E) obeys a Gronwall-type differential inequality.  The
``run_justification`` harness co-integrates chain and envelope from matched
initial data and measures sup_t (||xi - X|| + ||xi' - X'||) against the
theoretical scale rho^-1 eps^p (p = 2 standard, p = 3 generalized) over the
horizon tau0/rho, or rho^(-1-alpha) eps^p over the extended horizon
A |log rho| / rho.  The constants in those bounds are never asserted:
sweeps over eps fit the observed scaling exponent instead.

The two regimes are one family, indexed by p in ``REGIME_EXPONENTS``
= {"standard": 2, "generalized": 3}: rho lies in (eps^p, eps^(p-1)] on the
horizon tau0/rho, in (eps^(p/(1+alpha)), eps^(p-1)] with
0 < alpha < 1/(p-1) on the extended one, and the envelope's cubic
coefficient is rho/eps^(p-1) (nu or delta).  eps^2 is eps * eps throughout:
in the window ends, the default rho eps^(p-1) and delta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RegimeError
from .dnls_models import DnlsModel, GeneralizedDnls, StandardDnls, rhs, second_derivative
from .integrators import (
    IntegratorConfig, _advance_verlet, _check_sane, _dkg_force, _rk4_step, _strides
)
from .lattice_core import l2_norm, neighbor_sum, write_csv

__all__ = [
    "AnsatzSample",
    "JustificationConfig",
    "JustificationReport",
    "REGIME_EXPONENTS",
    "envelope_model",
    "window_top",
    "leading_order",
    "residual_direct",
    "residual_expanded",
    "error_energy",
    "error_energy_rate",
    "run_justification",
    "fit_scaling_exponent",
]

# Longest envelope RK4 substep of run_justification, in slow time.
ENVELOPE_SUBSTEP = 1e-3

REGIME_EXPONENTS = {"standard": 2, "generalized": 3}


def window_top(regime: str, epsilon: float) -> float:
    """eps^(p-1), the top of the regime's rho window and the CLI's default
    rho, as a product of p-1 factors, so that eps^2 is eps * eps."""
    if regime not in REGIME_EXPONENTS:
        raise RegimeError(f"unknown regime {regime!r}")
    return math.prod([epsilon] * (REGIME_EXPONENTS[regime] - 1))


def envelope_model(regime: str, epsilon: float, rho: float) -> DnlsModel:
    """The slow-clock envelope model of ``regime`` at (eps, rho), with cubic
    coefficient rho/eps^(p-1): nu = rho/eps or delta = rho/eps^2."""
    coefficient = rho / window_top(regime, epsilon)
    if regime == "standard":
        return StandardDnls(coefficient)
    return GeneralizedDnls(coefficient, epsilon)


@dataclass(frozen=True)
class AnsatzSample:
    """Two-harmonic approximation X and its exact time derivative at one
    instant.  Xdot is assembled analytically, never finite-differenced."""

    X: np.ndarray
    Xdot: np.ndarray
    t: float

    def __post_init__(self):
        if self.X.shape != self.Xdot.shape:
            raise ValueError("X and Xdot must have equal shapes")


def leading_order(
    a: np.ndarray, adot: np.ndarray, rho: float, epsilon: float, t: float
) -> AnsatzSample:
    """Evaluate the two-harmonic ansatz and its exact t-derivative.

    ``a`` is the envelope at tau = eps*t and ``adot`` the model right-hand
    side at ``a``.  The derivative uses d/dt a(eps t) = eps a'(tau):

        X'_j = (i a_j + eps a'_j) e^{it} + c.c.
               + rho/8 (3 i a_j^3 + 3 eps a_j^2 a'_j) e^{3it} + c.c.

    The conjugate-pair structure makes X and X' exactly real.
    """
    a = np.asarray(a, dtype=complex)
    adot = np.asarray(adot, dtype=complex)
    e1 = complex(np.exp(1j * t))
    e3 = complex(np.exp(3j * t))
    x = 2.0 * np.real(a * e1) + 0.25 * rho * np.real(a**3 * e3)
    xdot = 2.0 * np.real((1j * a + epsilon * adot) * e1) + 0.25 * rho * np.real(
        3.0 * (1j * a**3 + epsilon * a**2 * adot) * e3
    )
    return AnsatzSample(x, xdot, t)


def _ansatz_acceleration(
    a: np.ndarray,
    adot: np.ndarray,
    addot: np.ndarray,
    rho: float,
    epsilon: float,
    t: float,
) -> np.ndarray:
    """Exact X'' from envelope derivatives:

        X''_j = (eps^2 a'' + 2 i eps a' - a) e^{it} + c.c.
                + rho/8 (eps^2 (a^3)'' + 6 i eps (a^3)' - 9 a^3) e^{3it} + c.c.
    """
    e1 = complex(np.exp(1j * t))
    e3 = complex(np.exp(3j * t))
    cube_d = 3.0 * a**2 * adot
    cube_dd = 6.0 * a * adot**2 + 3.0 * a**2 * addot
    g1 = epsilon**2 * addot + 2j * epsilon * adot - a
    g3 = epsilon**2 * cube_dd + 6j * epsilon * cube_d - 9.0 * a**3
    return 2.0 * np.real(g1 * e1) + 0.25 * rho * np.real(g3 * e3)


def residual_direct(
    a: np.ndarray, regime: str, epsilon: float, rho: float, t: float
) -> np.ndarray:
    """Chain defect of the ansatz, Res = X'' + X + rho X^3 - eps (X_+ + X_-),
    with X'' assembled from exact derivatives of the ``regime``'s envelope."""
    model = envelope_model(regime, epsilon, rho)
    a = np.asarray(a, dtype=complex)
    adot = rhs(model, a)
    addot = second_derivative(a, model)
    x = leading_order(a, adot, rho, epsilon, t).X
    xdd = _ansatz_acceleration(a, adot, addot, rho, epsilon, t)
    return xdd + x + rho * x**3 - epsilon * neighbor_sum(x)


def residual_expanded(
    a: np.ndarray, regime: str, epsilon: float, rho: float, t: float
) -> np.ndarray:
    """The same defect written out in its seven harmonic groups.

    For the standard model the carrier group is eps^2 (a'' e^{it} + c.c.);
    for the generalized model the next-nearest linear terms survive in it:
    eps^2/4 [(4 a'' + a_{++} + 2a + a_{--}) e^{it} + c.c.].  (Realness of
    the defect forces the conjugate group to carry the same factor 4 on
    conj(a''); transcriptions that drop it break the identity with
    ``residual_direct`` at order eps^2.)

    Identical to ``residual_direct`` up to rounding; kept as an independent
    transcription for cross-validation.
    """
    model = envelope_model(regime, epsilon, rho)
    a = np.asarray(a, dtype=complex)
    adot = rhs(model, a)
    addot = second_derivative(a, model)
    e1 = complex(np.exp(1j * t))
    e3 = complex(np.exp(3j * t))
    u = 2.0 * np.real(a * e1)  # a e^{it} + c.c.
    w = 2.0 * np.real(a**3 * e3)  # a^3 e^{3it} + c.c.

    if regime == "standard":
        g_carrier = epsilon**2 * 2.0 * np.real(addot * e1)
    else:
        lin2 = np.roll(a, -2) + 2.0 * a + np.roll(a, 2)
        g_carrier = 0.5 * epsilon**2 * np.real((4.0 * addot + lin2) * e1)

    ap3 = np.roll(a, -1) ** 3 + np.roll(a, 1) ** 3
    g_shift_cube = -0.25 * epsilon * rho * np.real(ap3 * e3)
    g_cross_sq = 0.375 * rho**2 * u**2 * w
    g_phase = 4.5 * epsilon * rho * np.real(1j * a**2 * adot * e3)
    g_cross_lin = (3.0 / 64.0) * rho**3 * u * w**2
    cube_dd = 6.0 * a * adot**2 + 3.0 * a**2 * addot
    g_third_dd = 0.25 * epsilon**2 * rho * np.real(cube_dd * e3)
    g_ninth = (rho**4 / 512.0) * w**3
    return (
        g_carrier
        + g_shift_cube
        + g_cross_sq
        + g_phase
        + g_cross_lin
        + g_third_dd
        + g_ninth
    )


def error_energy(
    y: np.ndarray, ydot: np.ndarray, X: np.ndarray, epsilon: float, rho: float
) -> tuple[float, float]:
    """Error energy E and its square root Q.

    Coercivity needs eps < 1/4; then ||ydot||^2 + ||y||^2 <= 4 E on any
    input, which callers may rely on when converting Q bounds into norm
    bounds.
    """
    if not (0.0 <= epsilon < 0.25):
        raise ValueError(
            f"epsilon={epsilon} must lie in [0, 1/4): the error energy is "
            "only coercive there"
        )
    y = np.asarray(y, dtype=float)
    ydot = np.asarray(ydot, dtype=float)
    X = np.asarray(X, dtype=float)
    e = 0.5 * float(
        np.sum(
            ydot * ydot
            + y * y
            + 3.0 * rho * X * X * y * y
            - 2.0 * epsilon * y * np.roll(y, -1)
        )
    )
    return e, math.sqrt(max(e, 0.0))


def error_energy_rate(
    y: np.ndarray,
    ydot: np.ndarray,
    X: np.ndarray,
    Xdot: np.ndarray,
    Res: np.ndarray,
    rho: float,
) -> float:
    """dE/dt along the error flow:
    sum_j [ -y'_j Res_j + 3 rho X_j X'_j y_j^2 - 3 rho X_j y_j^2 y'_j
            - rho y_j^3 y'_j ]."""
    return float(
        np.sum(
            -ydot * Res
            + 3.0 * rho * X * Xdot * y * y
            - 3.0 * rho * X * y * y * ydot
            - rho * y**3 * ydot
        )
    )


def fit_scaling_exponent(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(eps), with R^2.

    Needs at least three strictly positive pairs.
    """
    if len(pairs) < 3:
        raise ValueError("need at least 3 (eps, value) pairs to fit a slope")
    eps = np.array([p[0] for p in pairs], dtype=float)
    val = np.array([p[1] for p in pairs], dtype=float)
    if np.any(eps <= 0.0) or np.any(val <= 0.0):
        raise ValueError("scaling fits need strictly positive data")
    lx, ly = np.log(eps), np.log(val)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), r2


# -- justification harness -----------------------------------------------------


@dataclass(frozen=True)
class JustificationConfig:
    """One co-integration experiment.

    ``regime`` selects the envelope model and the rho window through its
    exponent p (``REGIME_EXPONENTS``).  ``horizon`` is 'T0' for the span
    tau0/rho or 'T0star' for the extended span A |log rho| / rho (with the
    exponent penalty alpha).  The chain starts exactly on the ansatz unless
    ``c0_scale`` > 0, which adds a seeded random perturbation of l2 size
    c0_scale * rho^-1 eps^p to exercise imperfect initial data.
    """

    epsilon: float
    rho: float
    a0: np.ndarray
    regime: str = "standard"
    horizon: str = "T0"
    tau0: float = 1.0
    big_a: float = 0.5
    alpha: float = 0.5
    dt: float = 1e-3
    sample_stride: int = 100
    c0_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a0", np.asarray(self.a0, dtype=complex))

    @property
    def t_end(self) -> float:
        if self.horizon == "T0":
            return self.tau0 / self.rho
        return self.big_a * abs(math.log(self.rho)) / self.rho

    @property
    def bound_scale(self) -> float:
        p = REGIME_EXPONENTS[self.regime]
        if self.horizon == "T0":
            return self.epsilon**p / self.rho
        return self.epsilon**p * self.rho ** (-1.0 - self.alpha)

    @property
    def plan(self) -> IntegratorConfig:
        """The chain's steps: dt, the horizon ``t_end`` and the sample stride."""
        return IntegratorConfig(self.dt, self.t_end, self.sample_stride)

    def validate(self) -> None:
        eps, rho = self.epsilon, self.rho
        if not (0.0 < eps < 0.25):
            raise RegimeError(
                f"epsilon={eps} must lie in (0, 1/4) so the error energy is coercive"
            )
        hi = window_top(self.regime, eps)
        p = REGIME_EXPONENTS[self.regime]
        if self.horizon not in ("T0", "T0star"):
            raise RegimeError(f"unknown horizon {self.horizon!r}")
        if self.horizon == "T0star":
            amax = 1.0 / (p - 1)
            if not (0.0 < self.alpha < amax):
                raise RegimeError(
                    f"alpha={self.alpha} must lie in (0, {amax}) for the "
                    f"extended-horizon {self.regime} regime"
                )
            if self.big_a <= 0.0:
                raise RegimeError("A must be positive")
        if self.tau0 <= 0.0:
            raise RegimeError("tau0 must be positive")
        if self.c0_scale < 0.0:
            raise RegimeError(f"c0_scale={self.c0_scale} must be non-negative")
        top = "eps" if p == 2 else f"eps^{p - 1}"
        if self.horizon == "T0":
            lo, bottom = hi * eps, f"eps^{p}"
        else:
            lo, bottom = eps ** (p / (1.0 + self.alpha)), f"eps^({p}/(1+alpha))"
        if not (lo < rho <= hi):
            raise RegimeError(
                f"rho={rho} violates the {self.regime} regime {bottom} << rho <= {top} "
                f"at eps={eps} (allowed interval ({lo:g}, {hi:g}])"
            )
        if len(self.a0) != 0 and (len(self.a0) % 2 == 0 or len(self.a0) < 3):
            raise RegimeError("a0 must have odd length >= 3")
        try:
            self.plan  # IntegratorConfig checks dt, the stride and the horizon
        except ValueError as exc:
            raise RegimeError(str(exc)) from exc


@dataclass
class JustificationReport:
    """Sampled error history of one justification run of ``config``.

    ``error_norm`` is ||xi - X|| + ||xi' - X'|| and Q = sqrt(E) the energy
    measure on the same grid; consistency with coercivity
    (error_norm <= 4 Q up to rounding) holds sample-wise.  ``ratio`` is
    ``sup_error``, the largest error_norm, divided by the theoretical scale
    ``bound_scale`` of the config.
    """

    config: JustificationConfig
    times: np.ndarray
    error_norm: np.ndarray
    Q: np.ndarray

    @property
    def sup_error(self) -> float:
        return float(np.max(self.error_norm))

    @property
    def bound_scale(self) -> float:
        return self.config.bound_scale

    @property
    def ratio(self) -> float:
        return self.sup_error / self.bound_scale

    def summary_dict(self) -> dict:
        c = self.config
        return {
            "epsilon": c.epsilon,
            "rho": c.rho,
            "regime": c.regime,
            "horizon": c.horizon,
            "tau0": c.tau0,
            "A": c.big_a,
            "alpha": c.alpha,
            "t_end": float(self.times[-1]),
            "bound_scale": self.bound_scale,
            "sup_error": self.sup_error,
            "ratio": self.ratio,
            "slope_contribution": [math.log(c.epsilon), math.log(self.sup_error)]
            if self.sup_error > 0.0
            else None,
        }

    def write_csv(self, path, config_hash: str | None = None) -> None:
        scale = np.full(len(self.times), self.bound_scale)
        rows = np.column_stack((self.times, self.error_norm, self.Q, scale)).tolist()
        comments = [f"config_hash={config_hash}"] if config_hash else []
        write_csv(path, ("t", "error_norm", "Q", "bound_scale"), rows, comments)


def run_justification(config: JustificationConfig) -> JustificationReport:
    """Co-integrate chain and envelope from matched initial data and sample
    the approximation error on a uniform grid.

    The chain advances with velocity Verlet on the fast clock, over the steps
    of ``config.plan`` and through the stride loop that :func:`integrate`
    also runs; between samples the envelope advances by exactly eps * (elapsed fast
    time) in RK4 substeps no longer than ``ENVELOPE_SUBSTEP``, so the two
    clocks stay commensurate and the ansatz never needs interpolation.  Chain
    and envelope share the ``BLOWUP_LIMIT`` guard of :func:`integrate`, from
    the initial state on.
    """
    config.validate()
    plan = config.plan
    eps, rho, dt = config.epsilon, config.rho, plan.dt
    model = envelope_model(config.regime, eps, rho)

    a = config.a0.astype(complex)
    norm_a = l2_norm(a)
    if norm_a > 0.0:
        edge = max(abs(a[0]), abs(a[-1]))
        if edge > 1e-12 * max(1.0, norm_a):
            warnings.warn(
                f"envelope magnitude {edge:.2e} at the chain boundary exceeds "
                "1e-12: the periodic chain may no longer emulate the infinite "
                "one; increase N",
                stacklevel=2,
            )

    adot = rhs(model, a)
    start = leading_order(a, adot, rho, eps, 0.0)
    x = start.X.copy()
    y = start.Xdot.copy()
    if config.c0_scale > 0.0:
        rng = np.random.default_rng(config.seed)
        size = config.c0_scale * config.bound_scale
        for arr in (x, y):
            u = rng.standard_normal(len(arr))
            arr += (0.5 * size / np.linalg.norm(u)) * u

    _check_sane((x, y, a), 0.0, initial=True)
    f = _dkg_force(x, eps, rho)
    fun = lambda z: rhs(model, z)  # noqa: E731

    def advance(k: int) -> tuple:
        nonlocal a
        _advance_verlet(x, y, f, eps, rho, dt, k)
        dtau = eps * dt * k
        m_sub = max(1, int(math.ceil(dtau / ENVELOPE_SUBSTEP)))
        h = dtau / m_sub
        for _ in range(m_sub):
            a = _rk4_step(a, fun, h)
        return x, y, a

    def sample(t: float):
        adot_s = rhs(model, a)
        ans = leading_order(a, adot_s, rho, eps, t)
        yv = x - ans.X
        yd = y - ans.Xdot
        err = float(np.linalg.norm(yv) + np.linalg.norm(yd))
        _, q = error_energy(yv, yd, ans.X, eps, rho)
        return err, q

    rows = [(0.0, *sample(0.0))]
    rows += [(t, *sample(t)) for t, _ in _strides(advance, plan, 0.0)]
    times, errors, qs = (np.array(col) for col in zip(*rows))
    return JustificationReport(config, times, errors, qs)
