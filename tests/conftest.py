"""Shared fixtures."""

import pytest
from hypothesis import settings

import rfridge._blas

# the same examples on every run, so two runs of the suite agree
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def trial_pool(monkeypatch):
    """Report one BLAS thread, so run_trials at threads >= 2 runs trials at once.

    Under numpy's default threading BLAS already uses every core and
    run_trials keeps one trial in flight; a thread-invariance test would then
    compare the in-order route with itself.
    """
    monkeypatch.setattr(rfridge._blas, "threads", lambda: 1)
