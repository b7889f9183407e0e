"""The BLAS thread count behind run_trials' core budget, and output that ignores the budget."""

import json
import os
import subprocess
import sys

import pytest

from rfridge import _blas

# compare at --threads 1 and 2 runs its trials in order both times under two
# BLAS threads, and in order then in parallel under one; it must print the same
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


def test_threads_reads_the_count_on_every_call(monkeypatch):
    counts = iter([2, 1])
    monkeypatch.setattr(_blas, "_getter", lambda: next(counts))
    assert [_blas.threads(), _blas.threads()] == [2, 1]


def test_threads_falls_back_to_usable_cores(monkeypatch):
    monkeypatch.setattr(_blas, "_getter", None)
    monkeypatch.setattr(_blas, "cores", lambda: 7)
    assert _blas.threads() == 7


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_compare_output_ignores_thread_budget(blas_threads):
    if _blas._getter is None:
        pytest.skip("numpy's BLAS exports no thread-count getter, so the count cannot be set")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": str(blas_threads)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, *COMPARE], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    one, two = got["outs"]
    assert one == two
    assert len(one.splitlines()) == 4
    # OpenBLAS caps the variable at the cores it may run on
    assert got["blas"] == min(blas_threads, _blas.cores())
