"""Command-line interface: subcommands, formats, exit codes, round-trips."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rfridge.cli
import rfridge.selfconsistent
import rfridge.simulate
from rfridge.cli import (
    COLUMNS,
    SweepSpec,
    format_value,
    main,
    new_record,
    read_records,
    records_equal,
    write_records,
)
from rfridge.risk import TargetSpec, test_error as theory_test_error, theory_point
from rfridge.selfconsistent import SpectralParams
from test_selfconsistent import _chi_50_digits

RELU_MU_STAR_SQ = (math.pi - 2.0) / (4.0 * math.pi)
RELU_ZETA_SQ = math.pi / (math.pi - 2.0)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SIM_ARGS = [
    "--d", "40", "--n", "80", "--N", "50", "--lambda", "1e-3",
    "--activation", "relu", "--target", "linear", "--tau-sq", "0.1",
    "--trials", "3", "--seed", "1", "--n-test", "1200",
]


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_relu(capsys):
    code, out, _ = run_cli(["stats", "--activation", "relu"], capsys)
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["command"] == "stats"
    assert rec["mu0"] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
    assert rec["mu1"] == 0.5
    assert rec["mu_star_sq"] == pytest.approx(RELU_MU_STAR_SQ, rel=1e-14)
    assert rec["zeta_sq"] == pytest.approx(RELU_ZETA_SQ, rel=1e-12)
    assert rec["converged"] == 1
    assert math.isnan(rec["quadrature_gap"])


def test_stats_identity_degenerate(capsys):
    code, _, err = run_cli(["stats", "--activation", "identity"], capsys)
    assert code == 2
    assert "DegenerateActivation" in err


def test_stats_shifted_relu(capsys):
    code, out, _ = run_cli(["stats", "--activation", "shifted_relu:0.7"], capsys)
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["activation"] == "shifted_relu:0.7"
    c = 0.7
    assert rec["mu1"] == pytest.approx(0.5 * math.erfc(c / math.sqrt(2.0)), rel=1e-12)


def test_stats_custom_expression(tmp_path, capsys):
    expr = tmp_path / "act.txt"
    expr.write_text("np.tanh(u)\n")
    code, out, _ = run_cli(
        ["stats", "--activation", "custom", "--expr-file", str(expr), "--order", "128"],
        capsys,
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["order"] == 128
    assert 0.60 < rec["mu1"] < 0.61
    assert rec["quadrature_gap"] < 1e-12
    assert rec["converged"] == 1


def test_stats_custom_kink_needs_breakpoints(tmp_path, capsys):
    expr = tmp_path / "act.txt"
    expr.write_text("np.abs(u)\n")
    code, _, err = run_cli(
        ["stats", "--activation", "custom", "--expr-file", str(expr)], capsys
    )
    assert code == 3
    assert "doubling" in err

    # with the kink declared, quadrature succeeds and then degeneracy
    # (mu1 = 0 for an even function) is detected instead
    code2, _, err2 = run_cli(
        [
            "stats", "--activation", "custom", "--expr-file", str(expr),
            "--breakpoints", "0",
        ],
        capsys,
    )
    assert code2 == 2
    assert "DegenerateActivation" in err2


def test_stats_unknown_activation(capsys):
    code, _, _ = run_cli(["stats", "--activation", "selu"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def test_theory_ridgeless_sweep_marks_threshold(capsys):
    code, out, _ = run_cli(
        [
            "theory", "--variant", "ridgeless", "--zeta-sq", "2.7519",
            "--psi2", "3", "--rho", "2", "--sweep", "psi1", "--grid", "1,2,3,4",
        ],
        capsys,
    )
    assert code == 0
    recs = read_records(out, from_text=True)
    assert len(recs) == 4
    infinite = [r for r in recs if math.isinf(r["theory_bias_B"])]
    assert len(infinite) == 1
    assert infinite[0]["psi1"] == 3
    for r in recs:
        if not math.isinf(r["theory_bias_B"]):
            assert r["theory_bias_B"] > 0.0
            assert r["theory_risk_R"] > 0.0


def test_theory_certifies_a_tiny_chi(capsys):
    # chi is about -8e-13 here, so the oracle's tests must scale with |chi|
    z, p1, p2, lb = 148.857, 1.35716e-10, 1.24268e-10, 0.00209165
    code, out, err = run_cli(
        [
            "theory", "--zeta-sq", str(z), "--psi1", str(p1), "--psi2", str(p2),
            "--lambda-bar", str(lb), "--rho", "1",
        ],
        capsys,
    )
    assert code == 0, err
    assert math.isfinite(read_records(out, from_text=True)[0]["theory_risk_R"])
    point = theory_point(z, p1, p2, lb)
    ref = _chi_50_digits(SpectralParams(z, p1, p2), point.xi.imag)
    assert point.chi.real == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("argv", [
    ["theory", "--variant", "ridgeless", "--zeta-sq", "1", "--psi1", "2", "--psi2", "2",
     "--f1-sq", "1"],
    ["compare", "--d", "20", "--n", "40", "--N", "40", "--lambda", "0", "--trials", "3",
     "--n-test", "1000"],
])
def test_threshold_rows_carry_an_infinite_test_error(argv, capsys):
    # a zero weight times an infinite factor must not turn the test error into nan
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    rec = read_records(out, from_text=True)[0]
    assert rec["theory_bias_B"] == rec["theory_var_V"] == math.inf
    assert rec["theory_test_error"] == math.inf
    if argv[0] == "compare":
        assert rec["z_test_error"] == -math.inf


def test_theory_general_agrees_with_wide_variant(capsys):
    sweep = ["--sweep", "lambda", "--min", "0.05", "--max", "2.0",
             "--points", "5", "--spacing", "log"]
    code_g, out_g, _ = run_cli(
        ["theory", "--variant", "general", "--zeta-sq", str(RELU_ZETA_SQ),
         "--psi1", "1e6", "--psi2", "3", "--rho", "2"] + sweep,
        capsys,
    )
    code_w, out_w, _ = run_cli(
        ["theory", "--variant", "wide", "--zeta-sq", str(RELU_ZETA_SQ),
         "--psi2", "3", "--rho", "2"] + sweep,
        capsys,
    )
    assert code_g == 0 and code_w == 0
    general = read_records(out_g, from_text=True)
    wide = read_records(out_w, from_text=True)
    assert len(general) == len(wide) == 5
    for g, w in zip(general, wide):
        assert g["lambda_bar"] == pytest.approx(w["lambda_bar"], rel=1e-12)
        assert g["theory_bias_B"] == pytest.approx(w["theory_bias_B"], rel=1e-3)
        assert g["theory_var_V"] == pytest.approx(w["theory_var_V"], rel=1e-3)


def test_theory_finite_mode_penalty_conversion(capsys):
    code, out, _ = run_cli(
        ["theory", "--variant", "general", "--activation", "relu", "--d", "200",
         "--n", "600", "--N", "400", "--lambda", "1e-3", "--rho", "2"],
        capsys,
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["psi1"] == 2
    assert rec["psi2"] == 3
    assert rec["lambda_bar"] == pytest.approx(1e-3 / RELU_MU_STAR_SQ, rel=1e-12)
    assert rec["zeta_sq"] == pytest.approx(RELU_ZETA_SQ, rel=1e-12)


def test_theory_with_target_powers_emits_curves(capsys):
    # 50-digit reference for this exact configuration
    code, out, _ = run_cli(
        ["theory", "--activation", "relu", "--d", "200", "--n", "600",
         "--N", "1200", "--lambda", "1e-3", "--f1-sq", "1", "--tau-sq", "0.5"],
        capsys,
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["rho"] == 2
    assert rec["theory_test_error"] == pytest.approx(0.73072692301788929, rel=1e-9)
    assert rec["theory_train_error"] == pytest.approx(
        1.5 * 0.018580725627344777, rel=1e-9
    )
    assert rec["theory_norm_msq"] == pytest.approx(
        1.5 * 0.25864195978251087, rel=1e-9
    )


def count_solves(monkeypatch) -> list:
    """Record every solve_at call, through whichever rfridge module binds it."""
    original = rfridge.selfconsistent.solve_at
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rfridge") and getattr(module, "solve_at", None) is original:
            monkeypatch.setattr(module, "solve_at", counting)
    return calls


def test_theory_general_row_solves_once(capsys, monkeypatch):
    calls = count_solves(monkeypatch)
    code, out, _ = run_cli(
        ["theory", "--zeta-sq", "1.0", "--psi2", "3", "--lambda-bar", "0.1",
         "--f1-sq", "1", "--tau-sq", "0.5", "--sweep", "psi1", "--grid", "2,4,8"],
        capsys,
    )
    assert code == 0
    recs = read_records(out, from_text=True)
    assert len(recs) == 3
    assert all(math.isfinite(r["theory_train_error"]) for r in recs)
    assert len(calls) == 3


def test_compare_general_row_solves_once(capsys, monkeypatch):
    calls = count_solves(monkeypatch)
    code, out, _ = run_cli(
        ["compare", "--d", "20", "--n", "40", "--N", "30", "--activation", "relu",
         "--tau-sq", "0.1", "--trials", "2", "--n-test", "1000", "--threads", "1",
         "--sweep", "lambda", "--grid", "0,1e-3,1e-1"],
        capsys,
    )
    assert code == 0
    recs = read_records(out, from_text=True)
    assert [r["variant"] for r in recs] == ["ridgeless", "general", "general"]
    assert len(calls) == 2


THEORY_CELLS = ("theory_bias_B", "theory_var_V", "theory_risk_R",
                "theory_test_error", "theory_train_error", "theory_norm_msq")
POINT_FLAGS = {"psi1": "--psi1", "psi2": "--psi2", "lambda": "--lambda-bar", "rho": "--rho"}
ROW_KEYS = {"psi1": "psi1", "psi2": "psi2", "lambda": "lambda_bar", "rho": "rho"}


@pytest.mark.parametrize("param, grid", [
    ("psi1", ["--min", "0.5", "--max", "10", "--points", "15", "--spacing", "log"]),
    ("psi2", ["--grid", "0.5,1,1.5,2,2.5,4,8"]),
    ("lambda", ["--grid", "1e-5,1e-4,1e-3,1e-2,1e-1,1"]),
    ("rho", ["--grid", "0.5,1,2,4"]),
])
def test_sweep_rows_match_single_point_calls(param, grid, capsys):
    # each row is the single point's computation, so the cells are equal exactly
    point = {"--psi1": "2", "--psi2": "3", "--lambda-bar": "0.01"}
    powers = ["--f1-sq", "1", "--tau-sq", "0.5"]

    def theory(flags, extra):
        argv = ["theory", "--activation", "relu", *[tok for kv in flags.items() for tok in kv]]
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 0, err
        return read_records(out, from_text=True)

    sweep_flags = {k: v for k, v in point.items() if k != POINT_FLAGS[param]}
    rows = theory(sweep_flags, powers + ["--sweep", param, *grid])
    assert len(rows) > 3
    for row in rows:
        value = repr(row[ROW_KEYS[param]])
        ref = theory({**point, POINT_FLAGS[param]: value}, powers)[0]
        assert row[ROW_KEYS[param]] == ref[ROW_KEYS[param]]
        for cell in THEORY_CELLS:
            assert row[cell] == ref[cell], (cell, value)


def test_theory_test_error_cell_is_the_library_value(capsys):
    code, out, _ = run_cli(
        ["theory", "--zeta-sq", "1.0", "--psi1", "2", "--psi2", "3", "--lambda-bar", "0.1",
         "--f1-sq", "1", "--fstar-sq", "0.2", "--tau-sq", "0.5"],
        capsys,
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    target = TargetSpec(f1_sq=1.0, fstar_sq=0.2, tau_sq=0.5)
    assert rec["theory_test_error"] == theory_test_error(target, 1.0, 2.0, 3.0, 0.1)


def test_theory_without_rho_reports_factors_only(capsys):
    code, out, _ = run_cli(
        ["theory", "--variant", "general", "--zeta-sq", "1.0", "--psi1", "2",
         "--psi2", "3", "--lambda-bar", "0.1"],
        capsys,
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["theory_bias_B"] == pytest.approx(0.72189188183649126, rel=1e-10)
    assert math.isnan(rec["theory_risk_R"])


def test_theory_rejects_mixed_parametrizations(capsys):
    code, _, err = run_cli(
        ["theory", "--variant", "general", "--activation", "relu", "--d", "200",
         "--n", "600", "--N", "400", "--lambda", "1e-3", "--psi1", "2",
         "--rho", "2"],
        capsys,
    )
    assert code == 2
    assert "not both" in err


# ---------------------------------------------------------------------------
# simulate / compare
# ---------------------------------------------------------------------------

def test_simulate_realized_ratios_and_stats(capsys):
    code, out, _ = run_cli(["simulate"] + SIM_ARGS + ["--threads", "2"], capsys)
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["command"] == "simulate"
    assert rec["model"] == "random_features"
    assert rec["psi1"] == 1.25
    assert rec["psi2"] == 2
    assert rec["trials"] == 3
    assert rec["lambda_bar"] == pytest.approx(1e-3 / RELU_MU_STAR_SQ, rel=1e-12)
    assert rec["sim_test_error_mean"] > 0.0
    assert rec["sim_test_error_sem"] > 0.0
    assert rec["sim_norm_msq_mean"] == pytest.approx(
        rec["mu_star_sq"] * rec["sim_norm_sq_mean"], rel=1e-12
    )
    # theory columns stay empty in pure simulation output
    assert math.isnan(rec["theory_bias_B"])


@pytest.mark.usefixtures("trial_pool")
def test_simulate_thread_count_invariance(capsys):
    _, out1, _ = run_cli(["simulate"] + SIM_ARGS + ["--threads", "1"], capsys)
    _, out8, _ = run_cli(["simulate"] + SIM_ARGS + ["--threads", "8"], capsys)
    assert out1 == out8


LAMBDA_GRID = "0,1e-7,1e-5,1e-3,1e-2,1e-1,1"
SIM_CELLS = tuple(c for c in COLUMNS if c.startswith("sim_"))


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
@pytest.mark.usefixtures("trial_pool")
def test_lambda_sweep_rows_match_single_point_calls(model, capsys):
    # a lambda sweep draws and factors each trial once for the whole grid
    base = ["simulate", "--d", "40", "--n", "80", "--N", "100", "--activation", "relu",
            "--tau-sq", "0.1", "--trials", "3", "--seed", "1", "--n-test", "1200",
            "--model", model]
    sweep = base + ["--sweep", "lambda", "--grid", LAMBDA_GRID]
    code, out, err = run_cli(sweep + ["--threads", "1"], capsys)
    assert code == 0, err
    _, out2, _ = run_cli(sweep + ["--threads", "2"], capsys)
    assert out2 == out
    lines = out.splitlines()
    rows = read_records(out, from_text=True)
    assert [float(r["lambda"]) for r in rows] == [float(v) for v in LAMBDA_GRID.split(",")]
    for line, row in zip(lines[1:], rows):
        code, single, err = run_cli(base + ["--lambda", repr(row["lambda"]), "--threads", "1"],
                                    capsys)
        assert code == 0, err
        if row["lambda"] <= 1e-6:
            assert line == single.splitlines()[1]
            continue
        ref = read_records(single, from_text=True)[0]
        assert records_equal({c: v for c, v in row.items() if c not in SIM_CELLS},
                             {c: v for c, v in ref.items() if c not in SIM_CELLS})
        for c in SIM_CELLS:
            assert row[c] == pytest.approx(ref[c], rel=1e-10, abs=0.0), c


def _count_sample_sphere(monkeypatch) -> list:
    original = rfridge.simulate.sample_sphere
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(rfridge.simulate, "sample_sphere", counting)
    return calls


def test_lambda_sweep_draws_each_trial_once(capsys, monkeypatch):
    calls = _count_sample_sphere(monkeypatch)
    code, out, _ = run_cli(
        ["simulate", "--d", "20", "--n", "40", "--N", "30", "--activation", "relu",
         "--trials", "8", "--n-test", "1000", "--threads", "2",
         "--sweep", "lambda", "--grid", LAMBDA_GRID],
        capsys,
    )
    assert code == 0
    assert len(read_records(out, from_text=True)) == 7
    # Theta, X and the test inputs: three draws per trial, not per (trial, lambda)
    assert len(calls) == 3 * 8


# d = 20, n = 40: the psi1 grid puts N below, at and above n
SHAPE_BASE = ["--d", "20", "--activation", "relu", "--tau-sq", "0.1", "--trials", "3",
              "--seed", "2", "--n-test", "1000"]
SHAPE_SWEEPS = {
    "psi1": (["--n", "40", "--sweep", "psi1", "--grid", "1,2,3.5"], "--N", "N"),
    "psi2": (["--N", "40", "--sweep", "psi2", "--grid", "1,2,3.5"], "--n", "n"),
}


@pytest.mark.parametrize("lam", ["0", "1e-3"])
@pytest.mark.parametrize("param", ["psi1", "psi2"])
@pytest.mark.usefixtures("trial_pool")
def test_shape_sweep_rows_match_single_point_calls(param, lam, capsys):
    # a psi1 / psi2 sweep draws each trial once at its largest shape
    sweep_args, point_flag, size_key = SHAPE_SWEEPS[param]
    base = ["simulate", *SHAPE_BASE, "--lambda", lam]
    code, out, err = run_cli(base + sweep_args + ["--threads", "1"], capsys)
    assert code == 0, err
    _, out2, _ = run_cli(base + sweep_args + ["--threads", "2"], capsys)
    assert out2 == out
    rows = read_records(out, from_text=True)
    assert [r[size_key] for r in rows] == [20, 40, 70]
    for row in rows:
        code, single, err = run_cli(
            base + sweep_args[:2] + [point_flag, str(row[size_key]), "--threads", "1"], capsys)
        assert code == 0, err
        ref = read_records(single, from_text=True)[0]
        assert records_equal({c: v for c, v in row.items() if c not in SIM_CELLS},
                             {c: v for c, v in ref.items() if c not in SIM_CELLS})
        interpolating = float(lam) == 0.0 and row["N"] >= row["n"]
        for c in SIM_CELLS:
            # an interpolating ridgeless fit trains to rounding noise (~1e-25)
            abs_tol = 1e-20 if interpolating and c.startswith("sim_train_error") else 0.0
            assert row[c] == pytest.approx(ref[c], rel=1e-10, abs=abs_tol), c


def test_compare_psi1_sweep_rows_match_single_point_calls(capsys):
    sweep_args, point_flag, size_key = SHAPE_SWEEPS["psi1"]
    base = ["compare", *SHAPE_BASE, "--lambda", "1e-3", "--n", "40", "--threads", "2"]
    code, out, err = run_cli(base + sweep_args[2:], capsys)
    assert code == 0, err
    rows = read_records(out, from_text=True)
    assert [r["N"] for r in rows] == [20, 40, 70]
    for row in rows:
        code, single, err = run_cli(base + [point_flag, str(row[size_key])], capsys)
        assert code == 0, err
        ref = read_records(single, from_text=True)[0]
        for c in SIM_CELLS + THEORY_CELLS:
            assert row[c] == pytest.approx(ref[c], rel=1e-10, abs=0.0), c
        # z divides a small difference by the SEM, which magnifies the theory's 1e-10
        for q in ("test_error", "train_error", "norm_msq"):
            assert row[f"z_{q}"] == pytest.approx(ref[f"z_{q}"], rel=1e-6, abs=1e-8), q


def test_psi1_sweep_draws_each_trial_once(capsys, monkeypatch):
    calls = _count_sample_sphere(monkeypatch)
    code, out, _ = run_cli(
        ["simulate", "--d", "20", "--n", "40", "--activation", "relu", "--lambda", "1e-3",
         "--trials", "8", "--n-test", "1000", "--threads", "2",
         "--sweep", "psi1", "--grid", "0.5,1,2,4,6"],
        capsys,
    )
    assert code == 0
    assert len(read_records(out, from_text=True)) == 5
    # Theta, X and the test inputs once per trial at N = 120, not once per (trial, N)
    assert len(calls) == 3 * 8


@pytest.mark.parametrize("flags, env, message", [
    (["--threads", "0"], None, "--threads must be a positive integer, got 0"),
    (["--threads", "-3"], None, "--threads must be a positive integer, got -3"),
    ([], "0", "RFRIDGE_THREADS must be a positive integer, got '0'"),
    ([], "x", "RFRIDGE_THREADS must be a positive integer, got 'x'"),
    ([], "1.5", "RFRIDGE_THREADS must be a positive integer, got '1.5'"),
])
def test_bad_thread_counts_are_usage_errors(flags, env, message, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("RFRIDGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("RFRIDGE_THREADS", env)
    code, out, err = run_cli(["simulate"] + SIM_ARGS + flags, capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("n_test", ["0", "-5"])
def test_bad_test_set_sizes_are_usage_errors(n_test, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the configuration must be rejected before any draw")

    monkeypatch.setattr(rfridge.cli, "run_trials", no_draw)
    code, out, err = run_cli(["simulate"] + SIM_ARGS + ["--n-test", n_test], capsys)
    assert code == 2
    assert out == ""
    assert f"n_test must be a positive integer, got {n_test}" in err


def test_runtime_imports_numpy_only():
    # scipy happens to be installed where the tests run; mpmath and hypothesis
    # are test extras.  None of them may be imported by the library or the CLI.
    code = (
        "import sys, rfridge.cli\n"
        "assert rfridge.cli.main(['simulate'] + sys.argv[1:] + ['--threads', '1']) == 0\n"
        "assert rfridge.cli.main(['theory', '--activation', 'relu', '--psi1', '2',"
        " '--psi2', '3', '--lambda-bar', '0.01', '--f1-sq', '1', '--tau-sq', '0.5']) == 0\n"
        "extras = ('scipy', 'mpmath', 'hypothesis')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in extras))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *SIM_ARGS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_thread_default_is_the_usable_cores(capsys, monkeypatch):
    seen = []
    original = rfridge.cli.run_trials

    def recording(configs, threads=None):
        seen.append(threads)
        return original(configs, threads)

    monkeypatch.setattr(rfridge.cli, "run_trials", recording)
    monkeypatch.delenv("RFRIDGE_THREADS", raising=False)
    monkeypatch.setattr(rfridge.cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    code, _, err = run_cli(["simulate"] + SIM_ARGS, capsys)
    assert code == 0, err
    assert seen == [3]


@pytest.mark.usefixtures("trial_pool")
def test_simulate_env_thread_default(capsys, monkeypatch):
    monkeypatch.setenv("RFRIDGE_THREADS", "2")
    code, out, _ = run_cli(["simulate"] + SIM_ARGS, capsys)
    assert code == 0
    _, out1, _ = run_cli(["simulate"] + SIM_ARGS + ["--threads", "1"], capsys)
    assert out == out1


def test_simulate_sweep_rounds_feature_counts(capsys):
    code, out, _ = run_cli(
        ["simulate", "--d", "40", "--n", "80", "--lambda", "1e-3",
         "--activation", "relu", "--target", "linear", "--trials", "2",
         "--seed", "0", "--n-test", "1000", "--threads", "1",
         "--sweep", "psi1", "--grid", "0.5,1"],
        capsys,
    )
    assert code == 0
    recs = read_records(out, from_text=True)
    assert [r["N"] for r in recs] == [20, 40]
    assert [r["psi1"] for r in recs] == [0.5, 1]


def test_simulate_jsonl_format(capsys):
    code, out, _ = run_cli(
        ["simulate"] + SIM_ARGS + ["--threads", "1", "--format", "jsonl"], capsys
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["command"] == "simulate"
    assert obj["d"] == 40
    assert isinstance(obj["sim_test_error_mean"], float)

    _, out_csv, _ = run_cli(["simulate"] + SIM_ARGS + ["--threads", "1"], capsys)
    rec = read_records(out_csv, from_text=True)[0]
    assert obj["sim_test_error_mean"] == pytest.approx(
        rec["sim_test_error_mean"], rel=1e-15
    )


def test_simulate_gaussian_covariates_model(capsys):
    code, out, _ = run_cli(
        ["simulate"] + SIM_ARGS + ["--threads", "1", "--model", "gaussian_covariates"],
        capsys,
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["model"] == "gaussian_covariates"
    assert rec["fstar_sq"] == 0
    assert rec["sim_test_error_mean"] > 0.0


def test_simulate_rejects_asymptotic_flags(capsys):
    code, _, err = run_cli(
        ["simulate", "--psi1", "2", "--psi2", "3", "--lambda-bar", "0.1",
         "--activation", "relu", "--target", "linear", "--trials", "2"],
        capsys,
    )
    assert code == 2

    code2, _, err2 = run_cli(
        ["simulate"] + SIM_ARGS + ["--sweep", "rho", "--grid", "1,2"], capsys
    )
    assert code2 == 2
    assert "rho" in err2


def test_sweep_spec_validation(capsys):
    base = ["theory", "--variant", "ridgeless", "--zeta-sq", "1", "--psi2", "3",
            "--rho", "1", "--sweep", "psi1"]
    code, _, _ = run_cli(base + ["--grid", "1,2", "--min", "1"], capsys)
    assert code == 2
    code, _, _ = run_cli(base + ["--min", "2", "--max", "1", "--points", "3"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        base + ["--min", "0", "--max", "1", "--points", "3", "--spacing", "log"],
        capsys,
    )
    assert code == 2
    code, _, _ = run_cli(base + ["--grid", "1,1,2"], capsys)
    assert code == 2
    code, _, err = run_cli(base[:-2] + ["--psi1", "2", "--points", "3"], capsys)
    assert code == 2
    assert "--points" in err


def test_sweep_grid_values_are_python_floats(capsys):
    args = argparse.Namespace(sweep="psi1", grid=None, min=0.5, max=10.0, points=4,
                              spacing="log")
    assert all(type(v) is float for v in SweepSpec.from_args(args).values)
    args.spacing = "linear"
    assert all(type(v) is float for v in SweepSpec.from_args(args).values)
    code, _, err = run_cli(
        ["theory", "--psi2", "3", "--lambda-bar", "0.01", "--rho", "2", "--sweep", "psi1",
         "--min", "1", "--max", "1", "--points", "3"],
        capsys,
    )
    assert code == 2
    assert "got (1.0, 1.0, 1.0)" in err
    assert "np.float64" not in err


def test_compare_z_scores(capsys):
    code, out, _ = run_cli(["compare"] + SIM_ARGS + ["--threads", "2"], capsys)
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["command"] == "compare"
    assert rec["variant"] == "general"
    assert math.isfinite(rec["z_test_error"])
    assert math.isfinite(rec["z_train_error"])
    assert math.isfinite(rec["z_norm_msq"])
    assert rec["theory_test_error"] > 0.0
    gap = rec["sim_test_error_mean"] - rec["theory_test_error"]
    assert rec["z_test_error"] == pytest.approx(
        gap / rec["sim_test_error_sem"], rel=1e-12
    )


def test_compare_ridgeless_route(capsys):
    args = [a for a in SIM_ARGS]
    args[args.index("--lambda") + 1] = "0"
    code, out, _ = run_cli(["compare"] + args + ["--threads", "1"], capsys)
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["variant"] == "ridgeless"
    assert math.isfinite(rec["theory_bias_B"])
    assert math.isfinite(rec["z_test_error"])
    # no training theory at the ridgeless endpoint
    assert math.isnan(rec["theory_train_error"])
    assert math.isnan(rec["z_train_error"])


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

def test_phase_verdicts(capsys):
    code, out, _ = run_cli(
        ["phase", "--activation", "relu", "--psi2", "2", "--sweep", "rho",
         "--grid", "1.3,5.5"],
        capsys,
    )
    assert code == 0
    recs = read_records(out, from_text=True)
    assert recs[0]["verdict"] == "interior lambda_star"
    assert recs[0]["lambda_star"] > 0.0
    assert recs[1]["verdict"] == "optimal lambda_bar = 0"
    assert recs[1]["lambda_star"] < 0.0
    for r in recs:
        assert r["rho_star"] == pytest.approx(RELU_ZETA_SQ, rel=1e-10)
        assert r["zeta_star_sq"] == pytest.approx(r["rho"], rel=1e-10)


def test_phase_single_point_with_explicit_zeta(capsys):
    code, out, _ = run_cli(
        ["phase", "--zeta-sq", "1.5", "--psi2", "4", "--rho", "0.8"], capsys
    )
    assert code == 0
    rec = read_records(out, from_text=True)[0]
    assert rec["zeta_sq"] == 1.5
    assert rec["verdict"] == "interior lambda_star"


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_out_file_round_trip(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    code, stdout, _ = run_cli(
        ["simulate"] + SIM_ARGS + ["--threads", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert stdout == ""
    from_file = read_records(str(out_path))

    _, inline, _ = run_cli(["simulate"] + SIM_ARGS + ["--threads", "1"], capsys)
    from_text = read_records(inline, from_text=True)
    assert len(from_file) == len(from_text) == 1
    assert records_equal(from_file[0], from_text[0])

    # records -> csv -> records is the identity under records_equal
    rewritten = tmp_path / "again.csv"
    write_records(from_file, COLUMNS, "csv", str(rewritten))
    again = read_records(str(rewritten))
    assert records_equal(from_file[0], again[0])


def test_read_records_parses_jsonl_like_csv(capsys):
    # the psi1 = 3 row sits on the threshold: inf factors next to nan cells
    argv = ["theory", "--variant", "ridgeless", "--zeta-sq", "2.7519", "--psi2", "3",
            "--rho", "2", "--sweep", "psi1", "--grid", "2,3"]
    _, out_csv, _ = run_cli(argv, capsys)
    _, out_jsonl, _ = run_cli(argv + ["--format", "jsonl"], capsys)
    from_csv = read_records(out_csv, from_text=True)
    from_jsonl = read_records(out_jsonl, from_text=True)
    assert len(from_csv) == len(from_jsonl) == 2
    assert math.isinf(from_jsonl[1]["theory_bias_B"])
    assert math.isnan(from_jsonl[1]["theory_test_error"])
    assert all(records_equal(a, b) for a, b in zip(from_csv, from_jsonl))
    # a single JSONL row is one record, not a header with no data
    assert len(read_records(out_jsonl.splitlines()[0] + "\n", from_text=True)) == 1


def test_records_equal_treats_nan_as_equal():
    a = new_record(COLUMNS, command="x")
    b = new_record(COLUMNS, command="x")
    assert records_equal(a, b)
    a["psi1"] = 1.0
    assert not records_equal(a, b)


def test_format_value_conventions():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(40) == "40"
    assert format_value("relu") == "relu"
    assert float(format_value(math.pi)) == math.pi
    assert format_value(float("inf")) == "inf"
