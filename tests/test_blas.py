"""The BLAS thread count behind run_trials' core budget and pin, and output that ignores both."""

import json
import os
import subprocess
import sys

import pytest

from rfridge import _blas, simulate
from rfridge.activations import Activation
from rfridge.simulate import SimConfig, TargetKind, run_trials

# the CLI call at --threads 1 and 2 in one process, and the BLAS count after
SCRIPT = """
import contextlib, io, json, sys
from rfridge import _blas
from rfridge.cli import main

outs = []
for threads in ("1", "2"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(sys.argv[1:] + ["--threads", threads]) == 0
    outs.append(buf.getvalue())
print(json.dumps({"outs": outs, "blas": _blas.threads()}))
"""

COMPARE = ["compare", "--d", "20", "--n", "40", "--N", "60", "--activation", "relu",
           "--tau-sq", "0.1", "--trials", "4", "--seed", "3", "--n-test", "1000",
           "--sweep", "lambda", "--grid", "0,1e-3,1e-1"]
# every fit of this sweep solves normal equations, so run_trials pins BLAS
SIMULATE = ["simulate", "--d", "100", "--n", "300", "--n-test", "1000", "--lambda", "1e-3",
            "--tau-sq", "0.5", "--trials", "2", "--seed", "1", "--sweep", "psi1", "--grid", "2,4"]

# every penalty is above 1e-6, so run_trials pins BLAS for the sweep's one thin
# SVD per trial; at this shape that SVD's last bits differ at one and two BLAS
# threads, so the sweep's bytes did too before it was pinned
RIDGE_PATH = ["compare", "--d", "100", "--n", "300", "--N", "600", "--activation", "relu",
              "--tau-sq", "0.5", "--trials", "2", "--seed", "5", "--sweep", "lambda",
              "--grid", "1e-5,1e-3,1e-1"]

needs_getter = pytest.mark.skipif(
    _blas._getter is None, reason="numpy's BLAS exports no thread-count getter")
needs_pin = pytest.mark.skipif(
    _blas._getter is None or _blas._setter is None,
    reason="numpy's BLAS cannot be pinned to one thread")


def _run(argv, blas_threads):
    """The outputs of SCRIPT on argv, with OPENBLAS_NUM_THREADS set to blas_threads or unset."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_threads_reads_the_count_on_every_call(monkeypatch):
    counts = iter([2, 1])
    monkeypatch.setattr(_blas, "_getter", lambda: next(counts))
    assert [_blas.threads(), _blas.threads()] == [2, 1]


def test_threads_falls_back_to_usable_cores(monkeypatch):
    monkeypatch.setattr(_blas, "_getter", None)
    monkeypatch.setattr(_blas, "cores", lambda: 7)
    assert _blas.threads() == 7


@needs_getter
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_compare_output_ignores_thread_budget(blas_threads):
    # the lambda sweep holds 0, so its trials keep the BLAS threads: in order
    # both times under two, in order then in parallel under one
    got = _run(COMPARE, blas_threads)
    one, two = got["outs"]
    assert one == two
    assert len(one.splitlines()) == 4
    # OpenBLAS caps the variable at the cores it may run on
    assert got["blas"] == min(blas_threads, _blas.cores())


@needs_pin
def test_gram_route_output_ignores_budget_and_blas_threads():
    # the same bytes at --threads 1 and 2, with OPENBLAS_NUM_THREADS=1 and unset
    outs = [out for blas_threads in (1, None) for out in _run(SIMULATE, blas_threads)["outs"]]
    assert len(outs[0].splitlines()) == 3
    assert outs == [outs[0]] * 4


@needs_pin
def test_positive_penalty_sweep_ignores_budget_and_blas_threads():
    # the same bytes at --threads 1 and 2, with OPENBLAS_NUM_THREADS=1 and unset
    outs = [out for blas_threads in (1, None) for out in _run(RIDGE_PATH, blas_threads)["outs"]]
    assert len(outs[0].splitlines()) == 4
    assert outs == [outs[0]] * 4


GRAM_SWEEP = SimConfig(d=20, n=40, N=30, lam=1e-3, activation=Activation.relu(),
                       target=TargetKind.linear(), trials=2, n_test=1000)


@needs_pin
@pytest.mark.usefixtures("two_blas_threads")
def test_run_trials_restores_the_blas_count(monkeypatch):
    seen = []
    real = simulate.run_trial

    def spy(*args, **kwargs):
        seen.append(_blas.threads())
        return real(*args, **kwargs)

    def fail(*args, **kwargs):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(simulate, "run_trial", spy)
    run_trials(GRAM_SWEEP, threads=2)
    assert seen == [1, 1]
    assert _blas.threads() == 2
    monkeypatch.setattr(simulate, "run_trial", fail)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_trials(GRAM_SWEEP, threads=2)
    assert _blas.threads() == 2


@needs_pin
def test_a_pinned_run_trials_rebinds_no_name_of_blas(monkeypatch):
    # the pin's state lives in one object, so every name of the module keeps
    # its object while the pin holds and after it is lifted
    names = dict(vars(_blas))

    def kept() -> bool:
        return vars(_blas).keys() == names.keys() and all(
            vars(_blas)[k] is v for k, v in names.items())

    real = simulate.run_trial
    inside = []

    def spy(*args, **kwargs):
        inside.append(kept())
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "run_trial", spy)
    run_trials(GRAM_SWEEP, threads=2)
    assert inside == [True, True]
    assert kept()


@needs_pin
@pytest.mark.usefixtures("two_blas_threads")
def test_overlapping_pins_hold_until_the_last_one_closes():
    # two run_trials calls in two threads open and close their pins interleaved
    first, second = _blas.one_thread(), _blas.one_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert _blas.threads() == 1
    second.__exit__(None, None, None)
    assert _blas.threads() == 2


def test_one_thread_pins_nothing_without_a_setter(monkeypatch):
    monkeypatch.setattr(_blas, "_setter", None)
    before = _blas.threads()
    with _blas.one_thread() as pinned:
        assert not pinned
        assert _blas.threads() == before
