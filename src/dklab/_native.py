"""Build and load ``dklab._kernels``, the CPython extension compiled from
``_kernels.c`` (shipped next to this file), and probe its complex arithmetic.

The extension is built on the first call of :func:`kernels`, never at
import, with the system ``cc -O3 -ffp-contract=off -fno-math-errno -shared
-fPIC`` against the running interpreter's headers and linked with ``-lm``,
whose ``fma`` rounds once on every CPU, into ``$XDG_CACHE_HOME/dklab/``
(default ``~/.cache/dklab/``).  ``-fno-math-errno`` changes no result, as
no ``sqrt`` argument in the kernels is negative, and lets gcc vectorise the
square root of numpy's complex |a|.
Its file name carries a hash of the source, the
flags, the machine type and the interpreter's extension suffix, so a changed
source or another interpreter builds its own library.  The flags name no
instruction set: with GCC on x86-64 the loops carry AVX-512, AVX2 or FMA
clones that the dynamic loader selects on the CPU that loads the library, so
one library per machine type is safe.  The compiler writes a temporary file
that is then renamed into place, so a process never loads a library another
process is still writing.  Each load marks its library as used now (its
modification time) and removes the ``_kernels-*`` libraries of the cache
that no load has marked for ``STALE_DAYS`` days, ignoring any OSError, as
other processes may load, build or prune alongside: so an edited source
leaves no library behind for good, while two source trees that share one
cache, such as a parent and a changed tree timed in turn, keep each other's
library and never rebuild it inside a timed run.  Nothing is printed: the
compiler's output is captured.

The entry points and their callers:

- ``advance_verlet``: the chain's Verlet steps (``integrators._advance_verlet``);
- ``flow``: the dNLS stencil (``dnls_models.rhs``);
- ``rk4``: the envelope RK4 step (``integrators._rk4_step``);
- ``ansatz``: the two-harmonic ansatz (``approximation.leading_order``);
- ``energy_density``: the error energy's summand (``approximation.error_energy``);
- ``sup_abs``: the blow-up guard's max |entry| (``integrators._check_sane``);
- ``float_text``: the ``float.__repr__`` text of float vectors and of CSV
  rows (``lattice_core.FloatText.chunks`` and ``lattice_core.write_csv``,
  through which the JSON and ``states.jsonl`` writers of ``cli`` take it).

When there is no ``cc``, no ``Python.h``, no writable cache, or the library
does not import, :func:`kernels` returns None and every caller runs its
numpy form (``float.__repr__`` for ``float_text``) instead; no option or
environment variable selects the path.

Real arithmetic in the kernels is numpy's by construction.  Complex
arithmetic is numpy's only where numpy's CPU dispatch computes |a| as
hi sqrt(fma(q, q, 1)) and fuses its complex products (by a promoted real
factor too), as on x86-64 with FMA.  So :func:`complex_exact` runs
:func:`probe` once per process, on the first kernel use that needs it, never
at import; it compares the complex kernels (``ansatz``, ``sup_abs``, ``flow``
and ``rk4``) with numpy on a fixed vector.
When they differ, callers run the numpy forms of ``rhs``, of the RK4 step,
of the ansatz and of the complex blow-up guard.  ``float_text`` is not
behind the probe: it is integer arithmetic only (the digits of a double's
bits, in 128-bit integers), so its text is Python's on every CPU, and
``tests/test_float_text.py`` compares it with ``float.__repr__``.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC", "-lm")
STALE_DAYS = 7


@functools.cache
def kernels():
    """The ``dklab._kernels`` module of this process, or None."""
    import sysconfig

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no usable home directory: never write into the cwd
        return None
    return load(Path(base, "dklab"), sysconfig.get_paths()["include"])


@functools.cache
def complex_exact() -> bool:
    """True when this process's kernels compute numpy's complex arithmetic
    bit for bit, as :func:`probe` finds on its first call; False without
    kernels."""
    module = kernels()
    return module is not None and probe(module)


def probe(module) -> bool:
    """Compare the complex kernels of ``module`` with numpy, bit for bit, on
    every pair of parts from +-0.0, subnormals, +-1e+-100 and a few plain
    values, followed by 64 entries of scattered signs, mantissas and
    magnitudes; ``sup_abs`` takes each entry between two zeros, so it returns
    the entry's |a|, and ``rk4`` steps the entries below 1e50, whose stages
    stay finite."""
    import numpy as np

    # the numpy references; imported here, as approximation imports the
    # modules that import this one
    from .approximation import _ansatz_numpy
    from .dnls_models import NormalFormDnls, _rhs_numpy
    from .integrators import _rk4_step_numpy

    parts = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-100, -1e-100,
             1e100, -1e100, 1.0, -0.5, 3.0]
    # float arithmetic only: a numpy function the program does not call
    # would add its code pages to the process's memory
    scattered = [((i * 0.6180339887498949) % 1.0 - 0.5) * 10.0 ** (i % 9 - 4)
                 for i in range(1, 129)]
    a = np.empty(len(parts) ** 2 + 64, complex)  # set by parts: arithmetic would flip -0.0
    a.real = [p for p in parts for _ in parts] + scattered[:64]
    a.imag = parts * len(parts) + scattered[64:]
    adot = a[::-1].copy()
    ring = a[np.maximum(abs(a.real), abs(a.imag)) < 1e50]
    rho, eps, t, h = 0.3, 0.07, 1.7, 0.05
    e1, e3 = complex(np.exp(1j * t)), complex(np.exp(3j * t))
    model = NormalFormDnls(1.2, -0.3, -0.05)  # c0, c1, c2 and g all nonzero

    def same(u, v):
        return u.dtype == v.dtype and u.tobytes() == v.tobytes()

    x, xdot = np.empty((2, len(a)))
    k, step = np.empty(len(a), complex), np.empty(len(ring), complex)
    return (
        same(np.array([module.sup_abs(np.array([0j, v, 0j]), True) for v in a]), np.abs(a))
        and module.ansatz(a, adot, x, xdot, e1, e3, rho, eps)
        and all(map(same, (x, xdot), _ansatz_numpy(a, adot, e1, e3, rho, eps)))
        and module.flow(a, k, *model.coefficients)
        and same(k, _rhs_numpy(model, a))
        and module.rk4(ring, step, h, *model.coefficients)
        and same(step, _rk4_step_numpy(ring, model, h))
    )


def load(cache: Path, include: str):
    """Build ``_kernels.c`` with the Python headers in ``include`` into
    ``cache`` unless it is built there already, and import it; None when
    that fails.  The build machinery is imported here, not at import."""
    import hashlib
    import importlib.machinery
    import importlib.util
    import platform
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    flags = (*FLAGS, f"-I{include}")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    try:
        key = hashlib.sha256(
            b"\0".join([
                SOURCE.read_bytes(),
                " ".join(flags).encode(),
                platform.machine().encode(),
                suffix.encode(),
            ])
        ).hexdigest()[:16]
        lib = cache / f"_kernels-{key}{suffix}"
        if not lib.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache)
            os.close(fd)
            try:
                subprocess.run(
                    [cc, str(SOURCE), *flags, "-o", tmp],  # -lm after the source
                    check=True, capture_output=True, timeout=120,
                )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        loader = importlib.machinery.ExtensionFileLoader("dklab._kernels", str(lib))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader("dklab._kernels", loader)
        )
        loader.exec_module(module)
    except (OSError, ImportError, subprocess.SubprocessError):
        return None
    prune(cache, lib)
    return module


def prune(cache: Path, lib: Path) -> None:
    """Mark ``lib`` as used now and remove the libraries of ``cache`` that
    were last marked ``STALE_DAYS`` days ago or more; every OSError is
    ignored."""
    import contextlib
    import time

    now = time.time()
    with contextlib.suppress(OSError):
        os.utime(lib, (now, now))
    with contextlib.suppress(OSError):
        for old in cache.glob("_kernels-*"):
            with contextlib.suppress(OSError):
                if old != lib and old.stat().st_mtime <= now - STALE_DAYS * 86400:
                    old.unlink()
