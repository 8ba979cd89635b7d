"""Shared test settings.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's own hash, so every run checks the same cases, and no
per-example deadline applies, since wall-clock jitter on a loaded machine
would otherwise fail correct code.
"""

from hypothesis import settings

settings.register_profile("dklab", derandomize=True, deadline=None, database=None)
settings.load_profile("dklab")
