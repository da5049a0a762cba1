"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with no per-example deadline, since timings
drift on a loaded host, and a bounded number of examples per test.
"""

from hypothesis import settings

settings.register_profile("padicgz", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("padicgz")
