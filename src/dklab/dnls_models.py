"""Envelope equations of discrete nonlinear Schrodinger type.

Three models drive the complex envelope of the unit-frequency carrier on
the chain.  All three are one periodic stencil,

    a' = -i [c0 a + c1 (a_+ + a_-) + c2 (a_++ + a_--) + g |a|^2 a],

with a_+- the nearest and a_++/-- the next-nearest periodic neighbours;
each model class carries its ``coefficients`` (c0, c1, c2, g):

    model                c0      c1    c2         g
    standard (tau)       0       1/2   0          -3 nu/2
    generalized (tau)    eps/4   1/2   eps/8      -3 eps delta/2
    normal form (t)      Omega   b1    b2 or 0    3/4

The slow-clock (tau = eps t) models arise from the two-harmonic multiscale
reduction with nu = rho/eps resp. delta = rho/eps^2; the fast-clock model
is the flow of the truncated resonant normal form (see
:mod:`dklab.normal_form`).

``rhs`` runs the stencil, |a| included, as the compiled kernel ``flow`` of
the extension ``dklab._kernels`` (built and loaded by :mod:`dklab._native`)
when :func:`dklab._native.complex_exact` has found the kernels' complex
arithmetic equal to numpy's in this process and ``a`` is a contiguous
complex128 vector of 3 or more sites; otherwise, and for
``second_derivative``, it runs the numpy ``_flow``.  Both perform the same
operations in the same order, so finite results and the positions of NaNs
agree bit for bit; only a NaN's sign can differ, as an operation on two
NaNs returns one of them by operand order, and no output byte shows it
(the writers spell every NaN alike).  Each model computes its
``coefficients`` once.

Every right-hand side conserves the squared l2 norm of the envelope, is
equivariant under cyclic shifts, and is invariant under global phase
rotation.  Chain-rule second derivatives are available in closed form so
that residual evaluations never resort to numerical differentiation.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _native
from .lattice_core import FloatText, _frozen_vector, l2_norm, neighbor_sum, read_csv, write_csv

__all__ = [
    "EnvelopeState",
    "StandardDnls",
    "GeneralizedDnls",
    "NormalFormDnls",
    "DnlsModel",
    "rhs",
    "rhs_standard",
    "rhs_generalized",
    "rhs_normalform",
    "second_derivative",
    "l2_conserved",
    "warn_outside_asymptotic_range",
]


@dataclass(frozen=True)
class EnvelopeState:
    """Complex envelope on the chain at its model's clock time.

    ``tau`` is slow time eps*t for the standard/generalized models and fast
    time t for the normal-form models; the integrator records which clock a
    model uses.
    """

    a: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen_vector(self.a, "a", complex))
        n = len(self.a)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"chain length must be odd and >= 3, got {n}")
        if not np.isfinite(self.tau):
            raise ValueError("time must be finite")
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def n_sites(self) -> int:
        return len(self.a)

    @property
    def n_half(self) -> int:
        return len(self.a) // 2

    @functools.cached_property
    def text(self) -> tuple[FloatText, FloatText]:
        """The real and imaginary parts as :class:`FloatText`, which the
        writers of a final state's CSV and JSON files share."""
        return FloatText(self.a.real), FloatText(self.a.imag)

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "re": self.a.real.tolist(),
            "im": self.a.imag.tolist(),
        }

    def to_json_payload(self) -> dict:
        """:meth:`to_json_dict` with the parts as :attr:`text`, for
        ``cli._write_json``."""
        return {"tau": self.tau, "re": self.text[0], "im": self.text[1]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "EnvelopeState":
        a = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
        return cls(a, float(d["tau"]))

    def write_csv(self, path, header_comment: str | None = None) -> None:
        comments = [c for c in (header_comment, f"tau={self.tau!r}") if c]
        write_csv(path, ("j", "re", "im"), (range(-self.n_half, self.n_half + 1), *self.text),
                  comments)

    @classmethod
    def read_csv(cls, path) -> "EnvelopeState":
        meta, rows = read_csv(path)
        a = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        return cls(a, float(meta.get("tau", 0.0)))


@dataclass(frozen=True)
class StandardDnls:
    """2i a' + 3 nu |a|^2 a = a_+ + a_-  on the slow clock."""

    nu: float
    clock = "slow"

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"nu={self.nu} must be positive and finite")
        if self.nu > 1.0:
            warnings.warn(
                f"nu={self.nu} > 1 lies outside the asymptotic range of the "
                "standard envelope reduction; run proceeds",
                stacklevel=3,  # past the dataclass __init__, to the code building the model
            )

    @functools.cached_property
    def coefficients(self) -> tuple[float, float, float, float]:
        return 0.0, 0.5, 0.0, -1.5 * self.nu


@dataclass(frozen=True)
class GeneralizedDnls:
    """2i a' + 3 eps delta |a|^2 a = a_+ + a_- + eps/4 (a_++ + 2a + a_--)
    on the slow clock."""

    delta: float
    epsilon: float
    clock = "slow"

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta={self.delta} must be positive and finite")
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon={self.epsilon} must lie in (0, 1/2)")
        if self.delta > 1.0:
            warnings.warn(
                f"delta={self.delta} > 1 lies outside the asymptotic range of "
                "the generalized envelope reduction; run proceeds",
                stacklevel=3,
            )

    @functools.cached_property
    def coefficients(self) -> tuple[float, float, float, float]:
        eps = self.epsilon
        return 0.25 * eps, 0.5, 0.125 * eps, -1.5 * eps * self.delta


@dataclass(frozen=True)
class NormalFormDnls:
    """Flow of the truncated normal-form Hamiltonian, on the fast clock.

    b1 (and b2, when the next-to-leading truncation is used) are the
    off-diagonal entries of the square root of the coupling matrix; they
    are non-positive for couplings in [0, 1/2).
    """

    Omega: float
    b1: float
    b2: float | None = None
    clock = "fast"

    def __post_init__(self):
        if not (np.isfinite(self.Omega) and self.Omega > 0.0):
            raise ValueError(f"Omega={self.Omega} must be positive")
        if not (np.isfinite(self.b1) and self.b1 <= 0.0):
            raise ValueError(f"b1={self.b1} must be <= 0")
        if self.b2 is not None and not (np.isfinite(self.b2) and self.b2 <= 0.0):
            raise ValueError(f"b2={self.b2} must be <= 0 when present")

    @functools.cached_property
    def coefficients(self) -> tuple[float, float, float, float]:
        return self.Omega, self.b1, 0.0 if self.b2 is None else self.b2, 0.75


DnlsModel = Union[StandardDnls, GeneralizedDnls, NormalFormDnls]


def warn_outside_asymptotic_range(model: DnlsModel, epsilon: float) -> None:
    """Warn when the cubic coefficient degenerates against the coupling.

    The reductions are derived for eps << nu <= 1 (standard) and
    eps << delta <= 1 (generalized); values outside are legitimate
    exploratory runs, so this never raises.
    """
    if isinstance(model, StandardDnls) and model.nu <= epsilon:
        warnings.warn(
            f"nu={model.nu} <= eps={epsilon}: the standard envelope reduction "
            "degenerates here (asymptotic range is eps << nu <= 1)",
            stacklevel=2,
        )
    elif isinstance(model, GeneralizedDnls) and model.delta <= epsilon:
        warnings.warn(
            f"delta={model.delta} <= eps={epsilon}: the generalized envelope "
            "reduction degenerates here (asymptotic range is eps << delta <= 1)",
            stacklevel=2,
        )


# -- right-hand sides --------------------------------------------------------


def _flow(coefficients, v: np.ndarray, cubic: np.ndarray) -> np.ndarray:
    """-i [c0 v + c1 (v_+ + v_-) + c2 (v_++ + v_--) + cubic]; the c0 and c2
    terms are skipped when their coefficient is zero."""
    c0, c1, c2, _ = coefficients
    grad = c1 * neighbor_sum(v)
    if c0:
        grad += c0 * v
    if c2:
        grad += c2 * neighbor_sum(v, 2)
    grad += cubic
    return -1j * grad


def rhs(model: DnlsModel, a: np.ndarray) -> np.ndarray:
    """a' = -i [c0 a + c1 (a_+ + a_-) + c2 (a_++ + a_--) + g |a|^2 a] with
    the model's coefficients.

    Runs the compiled ``flow`` when ``_native.complex_exact()`` holds and
    ``a`` is a contiguous complex128 vector of 3 or more sites, else
    ``_rhs_numpy``; both give the same finite results and NaN positions,
    bit for bit, but a NaN's sign can differ (never an output byte).
    """
    if _native.complex_exact():
        out = np.empty(len(a), complex)
        if _native.kernels().flow(a, out, *model.coefficients):
            return out
    return _rhs_numpy(model, a)


def _rhs_numpy(model: DnlsModel, a: np.ndarray) -> np.ndarray:
    """The numpy form of ``rhs``, which the compiled ``flow`` must match."""
    c = model.coefficients
    return _flow(c, a, c[3] * np.abs(a) ** 2 * a)


def rhs_standard(a: np.ndarray, nu: float) -> np.ndarray:
    """a' = -(i/2) (a_+ + a_- - 3 nu |a|^2 a)."""
    return rhs(StandardDnls(nu), a)


def rhs_generalized(a: np.ndarray, delta: float, epsilon: float) -> np.ndarray:
    """a' = -(i/2) [a_+ + a_- + eps/4 (a_++ + 2a + a_--) - 3 eps delta |a|^2 a]."""
    return rhs(GeneralizedDnls(delta, epsilon), a)


def rhs_normalform(
    psi: np.ndarray, Omega: float, b1: float, b2: float | None = None
) -> np.ndarray:
    """Minus i times the gradient of the truncated normal-form energy with
    respect to conj(psi); the b2 term is omitted when b2 is None."""
    return rhs(NormalFormDnls(Omega, b1, b2), psi)


def second_derivative(a: np.ndarray, model: DnlsModel) -> np.ndarray:
    """Exact second time derivative a'' obtained by differentiating the
    model's right-hand side along itself: the same stencil applied to a',
    with d/dt (|a|^2 a) = 2|a|^2 a' + a^2 conj(a') as the cubic term.

    No finite differences are involved, so the result is accurate to
    rounding; residual evaluations rely on that.
    """
    coefficients = model.coefficients
    ad = rhs(model, a)
    cubic = coefficients[3] * (2.0 * np.abs(a) ** 2 * ad + a**2 * np.conj(ad))
    return _flow(coefficients, ad, cubic)


def l2_conserved(a: np.ndarray) -> float:
    """Squared l2 norm, the conserved quantity tracked during integration."""
    return l2_norm(a) ** 2
