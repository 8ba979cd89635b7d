"""Build and load ``dklab._kernels``, the CPython extension compiled from
``_kernels.c`` (shipped next to this file).

The extension is built on the first call of :func:`kernels`, never at
import, with the system ``cc -O3 -ffp-contract=off -shared -fPIC`` against
the running interpreter's headers, into ``$XDG_CACHE_HOME/dklab/`` (default
``~/.cache/dklab/``).  Its file name carries a hash of the source, the
flags, the machine type and the interpreter's extension suffix, so a changed
source or another interpreter builds its own library.  The flags name no
instruction set: with GCC on x86-64 the Verlet loop carries an AVX2 clone
that the dynamic loader selects on the CPU that loads the library, so one
library per machine type is safe.  The compiler writes a temporary file that
is then renamed into place, so a process never loads a library another
process is still writing.  Nothing is printed: the compiler's output is
captured.

When there is no ``cc``, no ``Python.h``, no writable cache, or the library
does not import, :func:`kernels` returns None and every caller runs its
numpy form instead; no option or environment variable selects the path.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def kernels():
    """The ``dklab._kernels`` module of this process, or None."""
    import sysconfig

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no usable home directory: never write into the cwd
        return None
    return load(Path(base, "dklab"), sysconfig.get_paths()["include"])


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
                    [cc, *flags, "-o", tmp, str(SOURCE)],
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
    return module
