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

    A sweep with no ridgeless point (every lam above 1e-6) needs no help:
    run_trials pins BLAS to one thread, process-wide for the call and
    restored afterwards, and pools its trials.  A sweep with a point at
    lam <= 1e-6 keeps the BLAS threads (pinning it waits on ROADMAP item 1),
    so under numpy's default threading BLAS already uses every core and
    run_trials keeps one trial in flight; a thread-invariance test would then
    compare the in-order route with itself.  Where BLAS cannot be pinned,
    every sweep is in that case.
    """
    monkeypatch.setattr(rfridge._blas, "threads", lambda: 1)


@pytest.fixture
def two_blas_threads():
    """BLAS at two threads whatever the suite runs at, and the suite's count after.

    Skips where numpy's BLAS cannot be pinned to one thread.
    """
    if rfridge._blas._getter is None or rfridge._blas._setter is None:
        pytest.skip("numpy's BLAS cannot be pinned to one thread")
    before = rfridge._blas._getter()
    rfridge._blas._setter(2)
    yield
    rfridge._blas._setter(before)
