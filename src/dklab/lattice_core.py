"""Periodic Klein-Gordon chain: state types, norms, energy, rescaling.

The model is a chain of 2N+1 identical anharmonic oscillators with a hard
quartic on-site potential and weak nearest-neighbour coupling,

    xi_j'' + xi_j + rho * xi_j^3 = eps * (xi_{j+1} + xi_{j-1}),

under periodic boundary conditions.  Two small parameters enter: the
coupling ``eps`` (restricted to (0, 1/2) by the normalisation below) and the
squared-amplitude scale ``rho`` in (0, 1].

Index convention
----------------
Sites carry indices j = -N..N.  Arrays are stored zero-based with storage
index i = j + N, so site j=0 sits at the middle of the array.  All public
APIs (CSV columns, seed-site arguments) use the signed site index j;
periodic wrap means j and j + (2N+1) name the same site.

The raw model with a full discrete Laplacian,

    x_j'' + x_j + x_j^3 = eps_raw * (x_{j+1} - 2 x_j + x_{j-1}),

is equivalent to the diagonal-free normalisation above after rescaling
amplitude and time; :func:`rescale_to_standard` returns the mapped coupling
eps = eps_raw / (1 + 2 eps_raw) together with the amplitude and time
factors.  The map is a bijection from (0, inf) onto (0, 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import NamedTuple

import numpy as np

__all__ = [
    "LatticeState",
    "ModelParams",
    "RescaledCoupling",
    "cyclic_shift",
    "neighbor_sum",
    "l2_norm",
    "energy_dkg",
    "rescale_to_standard",
    "write_csv",
    "read_csv",
]


def _frozen_vector(seq, name: str, dtype) -> np.ndarray:
    arr = np.asarray(seq, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def cyclic_shift(arr: np.ndarray, k: int = 1) -> np.ndarray:
    """Apply the cyclic site permutation k times: (shift a)_j = a_{j+k}."""
    return np.roll(arr, -k)


def neighbor_sum(arr: np.ndarray, k: int = 1) -> np.ndarray:
    """Periodic pair sum a_{j+k} + a_{j-k} of a 1-D array (0 <= k <= len),
    bit-identical to ``np.roll(arr, -k) + np.roll(arr, k)``."""
    n = len(arr)
    padded = np.concatenate((arr[n - k:], arr, arr[:k]))
    return padded[2 * k:] + padded[:n]


def write_csv(path, header, rows, comments=()) -> None:
    """Write one ``# {c}`` line per comment, the comma-joined header, then
    one line per row.  Rows hold Python scalars, written by ``repr``, so
    floats use shortest round-trip decimals."""
    line = ",".join(["{!r}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line.format(*row))


def read_csv(path) -> tuple[dict[str, str], list[list[str]]]:
    """Read a file of :func:`write_csv`: ``meta`` maps each ``# key=value``
    comment to its value, ``rows`` holds the fields of every line after the
    header."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = list(takewhile(lambda line: line.startswith("#"), lines))
    meta = dict(c[1:].strip().split("=", 1) for c in comments if "=" in c)
    return meta, [line.split(",") for line in lines[len(comments) + 1:]]


def l2_norm(seq) -> float:
    """Euclidean norm sqrt(sum |s_j|^2) of a real or complex sequence."""
    arr = np.asarray(seq)
    if not np.all(np.isfinite(arr)):
        raise ValueError("l2_norm: sequence contains non-finite entries")
    return float(np.linalg.norm(arr))


@dataclass(frozen=True)
class LatticeState:
    """Displacements and velocities of the periodic chain at fast time t.

    Immutable after construction; the arrays are copied and marked
    read-only, so instances are safe to share across threads.
    """

    x: np.ndarray
    y: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_vector(self.x, "x", float))
        object.__setattr__(self, "y", _frozen_vector(self.y, "y", float))
        if self.x.shape != self.y.shape:
            raise ValueError(
                f"x and y must have equal length, got {len(self.x)} and {len(self.y)}"
            )
        n = len(self.x)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"chain length must be odd and >= 3, got {n}")
        if not np.isfinite(self.t):
            raise ValueError("time must be finite")
        object.__setattr__(self, "t", float(self.t))

    @property
    def n_sites(self) -> int:
        return len(self.x)

    @property
    def n_half(self) -> int:
        """N for a chain of 2N+1 sites."""
        return len(self.x) // 2

    def site(self, j: int) -> tuple[float, float]:
        """(x_j, y_j) at signed site index j, with periodic wrap."""
        i = (j + self.n_half) % self.n_sites
        return float(self.x[i]), float(self.y[i])

    def shifted(self, k: int = 1) -> "LatticeState":
        return LatticeState(cyclic_shift(self.x, k), cyclic_shift(self.y, k), self.t)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"t": self.t, "x": self.x.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LatticeState":
        return cls(np.array(d["x"], dtype=float), np.array(d["y"], dtype=float), float(d["t"]))

    def write_csv(self, path, header_comment: str | None = None) -> None:
        """Columns j, x, y; floats use shortest round-trip decimals."""
        comments = [c for c in (header_comment, f"t={self.t!r}") if c]
        sites = range(-self.n_half, self.n_half + 1)
        write_csv(path, ("j", "x", "y"), zip(sites, self.x.tolist(), self.y.tolist()), comments)

    @classmethod
    def read_csv(cls, path) -> "LatticeState":
        meta, rows = read_csv(path)
        x = np.array([float(r[1]) for r in rows])
        y = np.array([float(r[2]) for r in rows])
        return cls(x, y, float(meta.get("t", 0.0)))


@dataclass(frozen=True)
class ModelParams:
    """Chain parameters: coupling eps in (0, 1/2), amplitude scale rho in
    (0, 1], half-size N (2N+1 sites)."""

    epsilon: float
    rho: float
    N: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(
                f"epsilon={self.epsilon} out of range: the diagonal-free "
                "normalisation restricts the coupling to (0, 1/2)"
            )
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho={self.rho} must lie in (0, 1]")
        if self.N < 1:
            raise ValueError(f"N={self.N} must be a positive integer")

    @property
    def n_sites(self) -> int:
        return 2 * self.N + 1


def energy_dkg(state: LatticeState, epsilon: float, rho: float = 1.0) -> float:
    """Conserved energy of the chain,

        H = 1/2 sum_j [ y_j^2 + x_j^2 - 2 eps x_{j+1} x_j ] + rho/4 sum_j x_j^4,

    with periodic wrap in the coupling term.  Exactly invariant under the
    cyclic shift of (x, y).
    """
    if not (0.0 <= epsilon < 0.5):
        raise ValueError(f"epsilon={epsilon} must lie in [0, 1/2)")
    x, y = state.x, state.y
    quad = 0.5 * float(np.sum(y * y + x * x - 2.0 * epsilon * x * np.roll(x, -1)))
    quart = 0.25 * rho * float(np.sum(x**4))
    return quad + quart


class RescaledCoupling(NamedTuple):
    epsilon: float
    amplitude_factor: float
    time_factor: float


def rescale_to_standard(epsilon_raw: float) -> RescaledCoupling:
    """Map the raw coupling of the full-Laplacian model to the diagonal-free
    normalisation.

    Returns eps = eps_raw/(1+2 eps_raw) in (0, 1/2), the amplitude factor
    (1+2 eps_raw)^(-1/2) and the time dilation factor (1+2 eps_raw)^(1/2).
    The map is strictly increasing, hence invertible.
    """
    if not (epsilon_raw > 0.0 and np.isfinite(epsilon_raw)):
        raise ValueError(f"epsilon_raw={epsilon_raw} must be positive and finite")
    g = 1.0 + 2.0 * epsilon_raw
    return RescaledCoupling(epsilon_raw / g, g**-0.5, g**0.5)
