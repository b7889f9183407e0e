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

    A sweep whose every fit solves normal equations needs no help: run_trials
    pins BLAS to one thread, process-wide for the call and restored
    afterwards, and pools its trials.  A sweep with a thin SVD keeps the BLAS
    threads (pinning it waits on ROADMAP item 1), so under numpy's default
    threading BLAS already uses every core and run_trials keeps one trial in
    flight; a thread-invariance test would then compare the in-order route
    with itself.  Where BLAS cannot be pinned, every sweep is in that case.
    """
    monkeypatch.setattr(rfridge._blas, "threads", lambda: 1)
