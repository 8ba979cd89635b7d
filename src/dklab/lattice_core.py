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
from functools import cached_property
from itertools import takewhile
from typing import Iterator, NamedTuple

import numpy as np

from . import _native

__all__ = [
    "FloatText",
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


# Entries of a float list (JSON) or rows (CSV) that a bulk writer joins and
# writes at a time, so no writer holds a whole file's text; also the floats
# of one FloatText chunk, so a chunk's text is one write.
WRITE_CHUNK = 2048


class FloatText:
    """A float vector and its text: :meth:`chunks` gives the shortest
    round-trip decimals (``float.__repr__``) of the entries, ``WRITE_CHUNK``
    entries per chunk joined by a writer's separator, so a writer holds one
    string per chunk, not one per float.  With the compiled kernels
    (:func:`dklab._native.kernels`) each chunk is one ``float_text`` call,
    made as the chunk is written, and no text is kept.  Without them the
    chunks are formatted with ``float.__repr__`` on first use, newline-joined,
    and kept, so a vector that two files share is formatted once, and a
    writer's separator replaces the newlines."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)

    def chunks(self, sep: str = "\n") -> Iterator[str]:
        module = _native.kernels()
        if module is None:
            return (chunk.replace("\n", sep) for chunk in self._repr_chunks)
        v = self.values
        return (_float_text(module, v[i:i + WRITE_CHUNK], sep)
                for i in range(0, len(v), WRITE_CHUNK))

    @cached_property
    def _repr_chunks(self) -> list[str]:
        v = self.values
        return ["\n".join(map(float.__repr__, v[i:i + WRITE_CHUNK].tolist()))
                for i in range(0, len(v), WRITE_CHUNK)]


def _float_text(module, values: np.ndarray, sep: str) -> str:
    """``sep.join(map(float.__repr__, values))``, one kernel call; repr's
    own line where the kernel declines (a compiler without 128-bit
    integers)."""
    text = module.float_text(values, sep)
    return sep.join(map(float.__repr__, values.tolist())) if text is None else text


def write_csv(path, header, columns, comments=()) -> None:
    """Write one ``# {c}`` line per comment, the comma-joined header, then
    one line per row: the fields of ``columns`` zipped and comma-joined,
    ``WRITE_CHUNK`` rows per write, each field its ``repr``, so floats use
    shortest round-trip decimals.  A column is a :class:`FloatText`, a
    ``range`` or a sequence of Python scalars.  Where the compiled kernels
    load and every column is a FloatText or a range, a write's rows are one
    ``float_text`` call on the columns' slices.  Otherwise each write splits
    one newline-joined :meth:`~FloatText.chunks` chunk of each FloatText and
    formats the other columns' slices, so no column's text is held one
    string per float."""
    columns = list(columns)
    n_rows = min(map(len, columns), default=0)
    kernel_rows = all(isinstance(c, (FloatText, range)) for c in columns)
    module = _native.kernels() if kernel_rows else None
    texts = [c.chunks() if isinstance(c, FloatText) else None for c in columns]
    with open(path, "w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, WRITE_CHUNK):
            stop = min(start + WRITE_CHUNK, n_rows)
            rows = None
            if module is not None:
                rows = module.float_text(tuple(_csv_slice(c, start, stop) for c in columns), "\n")
            if rows is None:
                fields = [map(repr, c[start:stop]) if t is None else next(t).split("\n")
                          for c, t in zip(columns, texts)]
                rows = "\n".join(map(",".join, zip(*fields)))
            fh.write(rows + "\n")


def _csv_slice(column, start: int, stop: int) -> np.ndarray:
    """Entries start..stop-1 of a FloatText's values, or of a range as int64."""
    if isinstance(column, FloatText):
        return column.values[start:stop]
    part = column[start:stop]
    return np.arange(part.start, part.stop, part.step, dtype=np.int64)


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
    read-only, so instances are safe to share across threads, and their
    text (:attr:`text`) is formatted on first use and kept.
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

    @cached_property
    def text(self) -> tuple[FloatText, FloatText]:
        """x and y as :class:`FloatText`, which the writers of a final state's
        CSV and JSON files share."""
        return FloatText(self.x), FloatText(self.y)

    def to_json_dict(self) -> dict:
        return {"t": self.t, "x": self.x.tolist(), "y": self.y.tolist()}

    def to_json_payload(self) -> dict:
        """:meth:`to_json_dict` with x and y as :attr:`text`, for
        ``cli._write_json``."""
        return {"t": self.t, "x": self.text[0], "y": self.text[1]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LatticeState":
        return cls(np.array(d["x"], dtype=float), np.array(d["y"], dtype=float), float(d["t"]))

    def write_csv(self, path, header_comment: str | None = None) -> None:
        """Columns j, x, y; x and y are :attr:`text`."""
        comments = [c for c in (header_comment, f"t={self.t!r}") if c]
        write_csv(path, ("j", "x", "y"), (range(-self.n_half, self.n_half + 1), *self.text),
                  comments)

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
