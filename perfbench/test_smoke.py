"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the seed code passes the correctness check, that tracing leaves no
wrapped function behind, that the traced run shows today's call structure,
and that the benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_outputs_correct(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0.0, m["name"]


def traced_pass(name):
    w = worker.build(name, 0, "tiny", threads=2)
    with tracer.Tracer() as tr:
        p = worker.run_pass(w)
    return p, tr, tracer.layer_metrics(tr.spans, tr.counts(), p.pass_s, p.theory_rows, 2)


def test_tracing_restores_every_binding():
    before = tracer.bindings()
    for name in worker.WORKLOADS:
        traced_pass(name)
    after = tracer.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_theory_curve_structure():
    p, tr, m = traced_pass("theory-curve")
    rows = worker.SIZES["tiny"]["points"]
    assert p.theory_rows == rows
    assert m["selfconsistent.solve_at.per_point"][0] == 2.0
    assert m["selfconsistent.fixed_point_map.calls"][0] > 0
    assert m["risk.optimal_lambda.profile_evals"][0] > 64
    assert m["simulate.run_trial.self_s"][0] == 0.0
    # every traced second is some span's self time or the unwrapped remainder
    wall, self_sum, rest = (m[k][0] for k in ("trace.wall_s", "trace.self_sum_s", "trace.unwrapped_s"))
    assert abs(wall - self_sum - rest) <= 1e-9 * wall + 1e-6


@pytest.mark.parametrize("name, paths", [
    ("sim-psi1", {"primal", "dual"}),
    ("compare-lambda", {"dual", "svd"}),
])
def test_simulation_structure(name, paths):
    _, tr, m = traced_pass(name)
    used = {p for p in ("primal", "dual", "svd") if m[f"simulate.ridge_fit.{p}.calls"][0] > 0}
    assert used == paths
    pools = {s.id for s in tr.spans if s.name == "simulate.run_trials"}
    trials = [s for s in tr.spans if s.name == "simulate.run_trial"]
    assert trials and all(s.parent in pools for s in trials)
    assert 0.0 < m["simulate.run_trials.busy_frac"][0] <= 1.0


def test_self_time_subtracts_covered_interval_not_summed_children():
    spans = [
        tracer.Span(0, "pool", None, 0.0, 10.0),
        tracer.Span(1, "a", 0, 1.0, 9.0),
        tracer.Span(2, "b", 0, 2.0, 8.0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(2.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sim-psi1", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
