"""Linear normal form of the chain: spectral square root of the coupling
matrix, canonical coordinates, effective Hamiltonians, smallness thresholds.

The harmonic part of the chain Hamiltonian is (1/2) y.y + (1/2) Ax.x with
the circulant symmetric matrix

    A = I - eps (S + S^T),        S = cyclic shift by one site,

whose normal-mode frequencies are omega_j = sqrt(1 - 2 eps cos(2 pi j / n))
for a ring of n = 2N+1 sites.  The canonical transformation q = A^(1/4) x,
p = A^(-1/4) y turns the harmonic energy into
(1/2) p.A^(1/2) p + (1/2) q.A^(1/2) q; splitting A^(1/2) into its diagonal
Omega*I plus off-diagonal part exposes one isochronous oscillator of
frequency Omega per site plus exponentially weak all-to-all couplings b_m
between sites a distance m apart, |b_m| <= C (2 eps)^m.

Everything here is computed spectrally: circulants diagonalise in the
discrete Fourier basis, so A^(1/2) is exact to rounding for every
eps < 1/2.  The binomial series (I - eps T)^(1/2) = sum_l C(1/2,l) (-eps T)^l
is retained only as an independent validation route
(:func:`sqrt_circulant_series`); it converges slowly near eps = 1/2.

On a ring the decay statement needs one caveat: b_m = b_{n-m}, so near
m ~ N the two geodesics around the ring contribute comparably and the raw
ratio |b_{m+1}/b_m| flattens.  The decay certificate therefore checks
ratios only where the short geodesic dominates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ThresholdError
from .lattice_core import FloatText, LatticeState, _frozen_vector

__all__ = [
    "NormalFormCoeffs",
    "DecayCertificate",
    "ThresholdConstants",
    "mode_frequencies",
    "sqrt_circulant",
    "sqrt_circulant_series",
    "decay_certificate",
    "linear_transform",
    "h0_energy_normal_coords",
    "keff_energy",
    "h_omega",
    "thresholds",
]

# Slack of the decay certificate's ratio test |b_{m+1}| / |b_m| <= 2 eps (1 + tol).
DECAY_TOLERANCE = 0.1


def _omega_fft_order(N: int, epsilon: float) -> np.ndarray:
    n = 2 * N + 1
    k = np.arange(n)
    return np.sqrt(1.0 - 2.0 * epsilon * np.cos(2.0 * np.pi * k / n))


def mode_frequencies(N: int, epsilon: float) -> np.ndarray:
    """Normal-mode frequencies omega_j = sqrt(1 - 2 eps cos(2 pi j/(2N+1))),
    returned for j = -N..N.  All lie in [sqrt(1-2 eps), sqrt(1+2 eps)] and
    are positive for eps < 1/2."""
    if not (0.0 <= epsilon < 0.5):
        raise ValueError(f"epsilon={epsilon} must lie in [0, 1/2)")
    n = 2 * N + 1
    j = np.arange(-N, N + 1)
    return np.sqrt(1.0 - 2.0 * epsilon * np.cos(2.0 * np.pi * j / n))


@dataclass(frozen=True)
class NormalFormCoeffs:
    """First row of A^(1/2): diagonal entry Omega (equal to the arithmetic
    mean of the mode frequencies) and off-diagonal entries b_1..b_N."""

    N: int
    epsilon: float
    Omega: float
    b: np.ndarray
    omega_modes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _frozen_vector(self.b, "b", float))
        object.__setattr__(
            self, "omega_modes", _frozen_vector(self.omega_modes, "omega_modes", float)
        )
        if len(self.b) != self.N or len(self.omega_modes) != 2 * self.N + 1:
            raise ValueError("coefficient arrays have inconsistent lengths")

    @cached_property
    def text(self) -> FloatText:
        """b as :class:`FloatText`, which the writers of the coefficients'
        JSON file and of their decay table share."""
        return FloatText(self.b)

    def to_json_dict(self) -> dict:
        return {**self.to_json_payload(), "b": self.b.tolist()}

    def to_json_payload(self) -> dict:
        """:meth:`to_json_dict` with b as :attr:`text`, for
        ``cli._write_json``."""
        return {"N": self.N, "epsilon": self.epsilon, "Omega": self.Omega, "b": self.text}

    def decay_table(self) -> list[tuple[int, float, float]]:
        """Rows (m, b_m, (2 eps)^m) for decay plots."""
        twoe = 2.0 * self.epsilon
        return [(m, float(self.b[m - 1]), twoe**m) for m in range(1, self.N + 1)]


def sqrt_circulant(N: int, epsilon: float) -> NormalFormCoeffs:
    """First row of A^(1/2) by inverse DFT of the mode frequencies.

    The result is validated on the spot: squaring the computed circulant
    (again spectrally) must reproduce A to 1e-12, and the first row must be
    symmetric, b_m = b_{n-m}.
    """
    if not (0.0 <= epsilon < 0.5):
        raise ValueError(f"epsilon={epsilon} must lie in [0, 1/2)")
    n = 2 * N + 1
    om = _omega_fft_order(N, epsilon)
    row = np.fft.ifft(om).real
    # symmetry of the circulant first row
    asym = np.max(np.abs(row[1:] - row[:0:-1]))
    if asym > 1e-13:
        raise RuntimeError(f"square-root row lost symmetry ({asym:.2e})")
    # reconstruction check: eigenvalues of the squared circulant vs A's row
    a_row = np.fft.ifft(np.fft.fft(row) ** 2).real
    target = np.zeros(n)
    target[0] = 1.0
    target[1] = -epsilon
    target[-1] = -epsilon
    err = np.max(np.abs(a_row - target))
    if err > 1e-12:
        raise RuntimeError(f"square-root reconstruction error {err:.2e} exceeds 1e-12")
    return NormalFormCoeffs(
        N=N,
        epsilon=epsilon,
        Omega=float(row[0]),
        b=row[1 : N + 1],
        omega_modes=mode_frequencies(N, epsilon),
    )


def sqrt_circulant_series(N: int, epsilon: float, order: int = 6) -> np.ndarray:
    """First row of A^(1/2) from the truncated binomial series
    sum_{l<=order} C(1/2,l) (-eps)^l T^l with T = S + S^T.

    Validation route only: the truncation error is O((2 eps)^(order+1)).
    Powers of T are accumulated as circular convolutions of first rows.
    """
    n = 2 * N + 1
    row_t = np.zeros(n)
    row_t[1] = 1.0
    row_t[-1] = 1.0
    fft_t = np.fft.fft(row_t)
    pow_fft = np.ones(n, dtype=complex)  # T^0
    out = np.zeros(n)
    out[0] = 1.0
    coef = 1.0
    for l in range(1, order + 1):
        coef *= (0.5 - (l - 1)) / l  # binomial(1/2, l), iteratively
        pow_fft = pow_fft * fft_t
        out += coef * (-epsilon) ** l * np.fft.ifft(pow_fft).real
    return out


class DecayCertificate(NamedTuple):
    C_fit: float
    holds: bool
    max_at: int
    m_checked: int


def decay_certificate(coeffs: NormalFormCoeffs) -> DecayCertificate:
    """Measure the exponential decay |b_m| <= C (2 eps)^m.

    C_fit is the largest |b_m| / (2 eps)^m over m where b_m is resolved
    above the rounding floor of the spectral computation (the true decay is
    geometric, so far coefficients are pure FFT noise ~1e-16 and would make
    the quotient blow up spuriously).  The certificate holds when that max
    sits at small m and every ratio |b_{m+1}| / |b_m| stays below
    2 eps (1 + ``DECAY_TOLERANCE``) on the ring segment where the short geodesic
    dominates (the wrap-around mirror b_m = b_{n-m} pollutes ratios near
    m ~ N, so those are excluded) and above the same noise floor.
    """
    eps = coeffs.epsilon
    twoe = 2.0 * eps
    b = coeffs.b
    N = coeffs.N
    n = 2 * N + 1
    if twoe == 0.0 or N == 0:
        return DecayCertificate(0.0, True, 0, 0)

    floor = 1e-14 * max(1.0, abs(coeffs.Omega))
    m = np.arange(1, N + 1)
    weights = twoe ** m.astype(float)
    usable = (weights > 1e-300) & (np.abs(b) > floor)
    if not np.any(usable):
        return DecayCertificate(0.0, True, 0, 0)
    ratios_c = np.abs(b[usable]) / weights[usable]
    c_fit = float(np.max(ratios_c))
    max_at = int(m[usable][np.argmax(ratios_c)])

    # exclude m where the long-way-around geodesic contributes > 5%:
    # (2 eps)^(n-2m) <= 0.05  <=>  n - 2m >= ln 0.05 / ln(2 eps)
    if twoe < 1.0:
        margin = math.log(0.05) / math.log(twoe)
        m_hi = int(math.floor((n - margin) / 2.0)) - 1  # check pairs (m, m+1), m+1 <= (n-margin)/2
    else:
        m_hi = 0
    holds = max_at <= 3
    m_checked = 0
    bound = twoe * (1.0 + DECAY_TOLERANCE)
    for mm in range(1, min(m_hi, N - 1) + 1):
        lo, hi = abs(b[mm - 1]), abs(b[mm])
        if lo < floor or hi < floor:
            break
        m_checked = mm
        if hi > bound * lo:
            holds = False
            break
    return DecayCertificate(c_fit, holds, max_at, m_checked)


def _fourier_multiply(v: np.ndarray, mult: np.ndarray) -> np.ndarray:
    return np.fft.ifft(mult * np.fft.fft(v)).real


def linear_transform(
    state: LatticeState, coeffs: NormalFormCoeffs, direction: str = "forward"
) -> LatticeState:
    """Canonical change of variables q = A^(1/4) x, p = A^(-1/4) y (forward)
    and its exact inverse, applied as Fourier multipliers omega^(+-1/2)."""
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    if state.n_half != coeffs.N:
        raise ValueError("state and coefficients have different chain sizes")
    om = _omega_fft_order(coeffs.N, coeffs.epsilon)
    quarter = np.sqrt(om)
    if direction == "forward":
        q = _fourier_multiply(state.x, quarter)
        p = _fourier_multiply(state.y, 1.0 / quarter)
    else:
        q = _fourier_multiply(state.x, 1.0 / quarter)
        p = _fourier_multiply(state.y, quarter)
    return LatticeState(q, p, state.t)


def h0_energy_normal_coords(state: LatticeState, coeffs: NormalFormCoeffs) -> float:
    """Harmonic energy (1/2) p.A^(1/2) p + (1/2) q.A^(1/2) q evaluated in the
    canonical coordinates (q, p) produced by :func:`linear_transform`."""
    om = _omega_fft_order(coeffs.N, coeffs.epsilon)
    q, p = state.x, state.y
    aq = _fourier_multiply(q, om)
    ap = _fourier_multiply(p, om)
    return 0.5 * float(np.dot(p, ap) + np.dot(q, aq))


def keff_energy(psi: np.ndarray, coeffs: NormalFormCoeffs, order: int = 1) -> float:
    """Truncated normal-form energy in complex coordinates.

    Order 1:  (Omega + 2 b1) sum |psi|^2 - b1 sum |psi_{j+1} - psi_j|^2
              + 3/8 sum |psi|^4.
    Order 2 adds the next-nearest coupling:
              + 2 b2 sum |psi|^2 - b2 sum |psi_{j+2} - psi_j|^2.
    """
    psi = np.asarray(psi, dtype=complex)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if order == 2 and coeffs.N < 2:
        raise ValueError("order 2 requires N >= 2")
    b1 = float(coeffs.b[0])
    mag2 = np.abs(psi) ** 2
    val = (coeffs.Omega + 2.0 * b1) * float(np.sum(mag2))
    val -= b1 * float(np.sum(np.abs(np.roll(psi, -1) - psi) ** 2))
    val += 0.375 * float(np.sum(mag2**2))
    if order == 2:
        b2 = float(coeffs.b[1])
        val += 2.0 * b2 * float(np.sum(mag2))
        val -= b2 * float(np.sum(np.abs(np.roll(psi, -2) - psi) ** 2))
    return val


def h_omega(psi: np.ndarray, Omega: float) -> float:
    """Resonant linear energy Omega sum |psi_j|^2, conserved by the
    normal-form flows (global phase invariance)."""
    psi = np.asarray(psi, dtype=complex)
    return Omega * float(np.sum(np.abs(psi) ** 2))


@dataclass(frozen=True)
class ThresholdConstants:
    """Constructive constants of the one-step normal form.

    ``rho_star`` is the smallness threshold on the squared-amplitude scale,
    computed from the displayed exact formulas; ``rho_star_approx`` is its
    closed-form small-coupling limit Omega / (64 C_h1 (1+e)).
    """

    C_zeta0: float
    C_h1: float
    epsilon: float
    Omega: float
    f_eps: float
    gamma: float
    C_star: float
    rho_star: float
    rho_star_approx: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def thresholds(
    C_zeta0: float, C_h1: float, epsilon: float, Omega: float
) -> ThresholdConstants:
    """Smallness constants of the first normalising step.

        f(eps)   = (3 Omega / (64 C_zeta0)) (1-2eps) [1-(2eps)^(3/4)] / sqrt(2eps)
        gamma    = 2 Omega (1 - 1/(2 f))            (in (Omega, 2 Omega) iff f > 1)
        C_star   = 4 C_h1 / (3 gamma (1-2eps) [1-(2eps)^(3/4)])
        rho_star = 1 / (96 (1+e) C_star)
        rho_star_approx = Omega / (64 C_h1 (1+e))

    ``rho_star_approx`` is the eps -> 0 limit of ``rho_star``: f -> inf, so
    gamma -> 2 Omega and the shape factor (1-2eps)[1-(2eps)^(3/4)] -> 1,
    giving C_star -> 2 C_h1 / (3 Omega).

    Requires f(eps) > 1; larger couplings are past the construction's
    validity threshold and raise :class:`ThresholdError`.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon={epsilon} must lie in (0, 1/2)")
    if C_zeta0 <= 0.0 or C_h1 <= 0.0 or Omega <= 0.0:
        raise ValueError("C_zeta0, C_h1 and Omega must be positive")
    twoe = 2.0 * epsilon
    shape = (1.0 - twoe) * (1.0 - twoe**0.75)
    f_eps = (3.0 * Omega / (64.0 * C_zeta0)) * shape / math.sqrt(twoe)
    if f_eps <= 1.0:
        raise ThresholdError(
            f"f(eps)={f_eps:.4g} <= 1 at eps={epsilon}: coupling beyond the "
            "normal-form validity threshold"
        )
    gamma = 2.0 * Omega * (1.0 - 1.0 / (2.0 * f_eps))
    C_star = 4.0 * C_h1 / (3.0 * gamma * shape)
    rho_star = 1.0 / (96.0 * (1.0 + math.e) * C_star)
    rho_star_approx = Omega / (64.0 * C_h1 * (1.0 + math.e))
    return ThresholdConstants(
        C_zeta0=C_zeta0,
        C_h1=C_h1,
        epsilon=epsilon,
        Omega=Omega,
        f_eps=f_eps,
        gamma=gamma,
        C_star=C_star,
        rho_star=rho_star,
        rho_star_approx=rho_star_approx,
    )
