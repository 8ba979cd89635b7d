"""Shared test settings and fixtures.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's own hash, so every run checks the same cases, and no
per-example deadline applies, since wall-clock jitter on a loaded machine
would otherwise fail correct code.
"""

import contextlib

import pytest
from hypothesis import settings

from dklab import _native

settings.register_profile("dklab", derandomize=True, deadline=None, database=None)
settings.load_profile("dklab")


@pytest.fixture(scope="session")
def text_by():
    """``text_by(path)``, a context manager under which the writers format
    floats by the compiled ``float_text`` (path "kernel", where it builds)
    or, with ``_native.kernels`` returning None, by ``float.__repr__`` (path
    "repr"), as where the extension does not build."""

    @contextlib.contextmanager
    def by(path):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if path == "repr":
                monkeypatch.setattr(_native, "kernels", lambda: None)
            yield

    return by
