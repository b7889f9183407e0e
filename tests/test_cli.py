"""Command-line interface: subcommands, formats, exit codes, round-trips."""

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rfridge.activations
import rfridge.cli
import rfridge.risk
import rfridge.simulate
from rfridge.cli import (
    COLUMNS,
    Table,
    _sweep_values,
    _z_scores,
    format_value,
    main,
    read_records,
    records_equal,
    write_records,
)
from rfridge.risk import TargetSpec, risk_general
from rfridge.selfconsistent import solve_at
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
    # the quadrature cuts at 0 when given no breakpoint, so this kink lies off the cut
    off_cut = tmp_path / "off_cut.txt"
    off_cut.write_text("np.abs(u - 0.5) + u\n")
    code, _, err = run_cli(
        ["stats", "--activation", "custom", "--expr-file", str(off_cut)], capsys
    )
    assert code == 3
    assert "doubling" in err

    expr = tmp_path / "act.txt"
    expr.write_text("np.abs(u)\n")

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
    point = solve_at(z, p1, p2, lb)
    ref = _chi_50_digits(z, p1, p2, point.xi.imag)
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


@pytest.mark.parametrize("variant, psi", [("wide", "--psi2"), ("lsamp", "--psi1")])
def test_closed_forms_keep_a_tiny_psi(variant, psi, capsys):
    # the denominator is about -psi, so no absolute floor may call it vanishing
    code, out, err = run_cli(["theory", "--variant", variant, "--zeta-sq", "1", psi, "1e-20",
                              "--lambda-bar", "0.1", "--rho", "2"], capsys)
    assert code == 0, err
    (rec,) = read_records(out, from_text=True)
    assert rec["theory_bias_B"] == pytest.approx(1.0, rel=1e-12)
    assert rec["theory_var_V"] == pytest.approx(0.0, abs=1e-12)


def test_a_tiny_psi1_keeps_the_ridgeless_variance_positive(capsys):
    # chi is about -psi1 / (1 + zeta_sq), which -b - sqrt(b^2 - 4ac) cancelled to -0.0
    code, out, err = run_cli(["theory", "--variant", "ridgeless", "--psi1", "1e-20", "--psi2",
                              "3", "--rho", "2"], capsys)
    assert code == 0, err
    (rec,) = read_records(out, from_text=True)
    assert 0.0 < rec["theory_var_V"] < 1e-19
    assert rec["theory_bias_B"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_vanishing_wide_variance_is_written_as_positive_zero(fmt, capsys):
    # at lambda_bar = 1e30 and zeta_sq = 1e-140 omega is about -1e-170, so V's
    # numerator underflows to 0, over a negative denominator
    code, out, err = run_cli(["theory", "--variant", "wide", "--zeta-sq", "1e-140", "--psi2", "3",
                              "--lambda-bar", "1e30", "--rho", "2", "--format", fmt], capsys)
    assert code == 0, err
    if fmt == "jsonl":
        assert repr(json.loads(out)["theory_var_V"]) == "0.0"
    else:
        header, row = csv.reader(io.StringIO(out))
        assert row[header.index("theory_var_V")] == "0"


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
    """Record every row that enters a batched solve."""
    original = rfridge.risk._AxisBatch
    calls = []

    def counting(rows):
        calls.extend(rows)
        return original(rows)

    monkeypatch.setattr(rfridge.risk, "_AxisBatch", counting)
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


def test_a_chi_disagreement_is_an_invariant_violation(capsys, monkeypatch):
    # the oracle's chi of an ordinary row moved 1e-6 relative from the solve's:
    # the row is refused with exit code 4, and nothing is written
    original = rfridge.risk._AxisBatch

    def shifted(rows):
        batch = original(rows)
        batch.oracle = batch.oracle * (1.0 + 1e-6)
        return batch

    monkeypatch.setattr(rfridge.risk, "_AxisBatch", shifted)
    code, out, err = run_cli(
        ["theory", "--zeta-sq", "1.0", "--psi1", "2", "--psi2", "3", "--lambda-bar", "0.1",
         "--rho", "2"],
        capsys,
    )
    chi = solve_at(1.0, 2.0, 3.0, 0.1).chi.real
    assert (code, out) == (4, "")
    assert err.startswith(f"invariant violation: fixed-point chi = {chi!r} vs quartic-oracle chi = ")
    assert err.endswith(" at (zeta_sq=1.0, psi1=2.0, psi2=3.0, lambda_bar=0.1)\n")


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
    code, compare_out, _ = run_cli(["compare"] + SIM_ARGS + ["--threads", "1"], capsys)
    assert code == 0
    rows = read_records(out, from_text=True) + read_records(compare_out, from_text=True)
    assert [r["command"] for r in rows] == ["theory", "compare"]
    for rec in rows:
        target = TargetSpec(f1_sq=rec["f1_sq"], fstar_sq=rec["fstar_sq"], tau_sq=rec["tau_sq"])
        dec = risk_general(rec["zeta_sq"], rec["psi1"], rec["psi2"], rec["lambda_bar"])
        assert rec["theory_test_error"] == dec.test_error(target)
        assert rec["theory_train_error"] == dec.train_error(target)
        assert rec["theory_norm_msq"] == dec.norm_msq(target)


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


@pytest.mark.parametrize("shape, message", [
    pytest.param(["--d", "200", "--n", "600", "--N", "400", "--lambda", "1e-3", "--psi1", "2"],
                 "not both", id="mixed"),
    pytest.param(["--n", "300", "--lambda", "1e-3", "--sweep", "psi1", "--grid", "1,2"],
                 "--d >= 1, got None", id="no-d-psi1-sweep"),
    pytest.param(["--N", "300", "--lambda", "1e-3", "--sweep", "psi2", "--grid", "1,2"],
                 "--d >= 1, got None", id="no-d-psi2-sweep"),
    pytest.param(["--d", "0", "--n", "300", "--N", "300", "--lambda", "1e-3"],
                 "--d >= 1, got 0", id="d-0"),
    pytest.param([], "no shape parameters given", id="no-shape"),
])
def test_theory_rejects_bad_shape_flags(shape, message, capsys):
    code, out, err = run_cli(
        ["theory", "--variant", "general", "--activation", "relu", *shape, "--rho", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, name", [
    (["theory", "--variant", "ridgeless", "--zeta-sq", "1", "--psi1", "-1", "--psi2", "2"],
     "psi1"),
    (["theory", "--variant", "wide", "--zeta-sq", "1", "--psi2", "-3", "--lambda-bar", "0.1"],
     "psi2"),
    (["theory", "--variant", "ridgeless", "--zeta-sq", "nan", "--psi1", "2", "--psi2", "3"],
     "zeta_sq"),
    (["theory", "--variant", "lsamp", "--zeta-sq", "-1", "--psi1", "2", "--lambda-bar", "0.1"],
     "zeta_sq"),
    (["phase", "--zeta-sq", "1", "--psi2", "-3"], "psi2"),
    (["phase", "--zeta-sq", "-1", "--psi2", "3"], "zeta_sq"),
])
def test_closed_forms_reject_bad_shapes(argv, name, capsys):
    # the closed forms apply the rule of the general solve: finite and > 0
    code, out, err = run_cli(argv + ["--rho", "1"], capsys)
    assert code == 2
    assert out == ""
    assert f"{name} must be finite and positive" in err


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


def _record_streams(monkeypatch) -> list:
    """The (trial, purpose) of every keyed stream the simulator opens."""
    original = rfridge.simulate.substream
    opened = []

    def recording(seed, trial_index, purpose):
        opened.append((trial_index, purpose))
        return original(seed, trial_index, purpose)

    monkeypatch.setattr(rfridge.simulate, "substream", recording)
    return opened


# a random-features trial opens each of these streams once, and reads its
# rows as the draw asks for them
DRAW_STREAMS = ("theta", "x", "noise", "test")


def test_lambda_sweep_draws_each_trial_once(capsys, monkeypatch):
    opened = _record_streams(monkeypatch)
    code, out, _ = run_cli(
        ["simulate", "--d", "20", "--n", "40", "--N", "30", "--activation", "relu",
         "--trials", "8", "--n-test", "1000", "--threads", "2",
         "--sweep", "lambda", "--grid", LAMBDA_GRID],
        capsys,
    )
    assert code == 0
    assert len(read_records(out, from_text=True)) == 7
    # each stream once per trial, not once per (trial, lambda)
    assert sorted(opened) == sorted((t, p) for t in range(8) for p in DRAW_STREAMS)


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
    opened = _record_streams(monkeypatch)
    code, out, _ = run_cli(
        ["simulate", "--d", "20", "--n", "40", "--activation", "relu", "--lambda", "1e-3",
         "--trials", "8", "--n-test", "1000", "--threads", "2",
         "--sweep", "psi1", "--grid", "0.5,1,2,4,6"],
        capsys,
    )
    assert code == 0
    assert len(read_records(out, from_text=True)) == 5
    # each stream once per trial, read up to N = 120, not once per (trial, N)
    assert sorted(opened) == sorted((t, p) for t in range(8) for p in DRAW_STREAMS)


@pytest.mark.parametrize("flags, env, message", [
    (["--threads", "0"], None, "--threads must be a positive integer, got 0"),
    (["--threads", "-3"], None, "--threads must be a positive integer, got -3"),
    # RFRIDGE_THREADS no longer sets the budget, nor rescues a bad --threads
    (["--threads", "0"], "2", "--threads must be a positive integer, got 0"),
])
def test_bad_thread_counts_are_usage_errors(flags, env, message, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("RFRIDGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("RFRIDGE_THREADS", env)
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli(["simulate"] + SIM_ARGS + flags, capsys)
    assert code == 2
    assert out == ""
    assert message in err


def _no_draw(*args, **kwargs):
    raise AssertionError("the configuration must be rejected before any draw")


@pytest.mark.parametrize("seed", [str(-1), str(2**64)])
def test_a_seed_outside_one_uint64_word_is_a_usage_error(seed, capsys, monkeypatch):
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli(["simulate"] + SIM_ARGS + ["--seed", seed], capsys)
    assert (code, out) == (2, "")
    assert f"seed must be an integer in [0, 2**64), got {seed}" in err


@pytest.mark.parametrize("n_test", ["0", "-5"])
def test_bad_test_set_sizes_are_usage_errors(n_test, capsys, monkeypatch):
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli(["simulate"] + SIM_ARGS + ["--n-test", n_test], capsys)
    assert code == 2
    assert out == ""
    assert f"n_test must be a positive integer, got {n_test}" in err


@pytest.mark.parametrize("flags, rows, line", [
    (["--n", "60", "--n-test", "500"], 1, "n_test = 500 (--n-test)"),
    (["--n", "60"], 1, "n_test = 600 (the --n-test default, 10 n)"),
    # n = 60 and 120: only the first point falls below 1000
    (["--sweep", "psi2", "--grid", "3,6"], 2,
     "the smallest n_test of the sweep = 600 (the --n-test default, 10 n)"),
], ids=["given", "default", "psi2-sweep"])
def test_a_small_test_set_is_one_line_naming_its_flag(flags, rows, line, capsys):
    # one stderr line per call, with no SmallTestSetWarning and no source
    # line of the CLI module; stdout is the rows as ever
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["simulate", "--d", "20", "--N", "40", "--lambda", "1e-3",
                                  "--trials", "2", "--threads", "1", *flags], capsys)
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, rfridge.simulate.SmallTestSetWarning)]
    assert len(out.splitlines()) == 1 + rows
    assert err == f"warning: {line} is below 1000; per-trial test errors will be noisy\n"
    assert "cli.py" not in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("trials", ["1", "0"])
def test_fewer_than_two_trials_are_refused_before_drawing(command, trials, capsys, monkeypatch):
    # aggregate needs two trials for a standard error
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli([command] + SIM_ARGS + ["--trials", trials], capsys)
    assert code == 2
    assert out == ""
    assert f"--trials must be >= 2 for a standard error, got {trials}" in err


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
def test_linear_target_simulates_at_d_1(model, capsys):
    # the linear target has no nonlinear power at any d
    code, out, err = run_cli(
        ["simulate", "--model", model, "--d", "1", "--n", "5", "--N", "5", "--lambda", "1e-3",
         "--trials", "2", "--n-test", "1000"],
        capsys,
    )
    assert code == 0, err
    (rec,) = read_records(out, from_text=True)
    assert (rec["d"], rec["fstar_sq"], rec["trials"]) == (1, 0.0, 2)


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
def test_custom_activation_is_integrated_once_at_order(model, tmp_path, capsys, monkeypatch):
    # the surrogate draws take the moments measured at --order
    expr = tmp_path / "act.txt"
    expr.write_text("np.tanh(1.2*u)\n")
    orders = []
    raw_moments = rfridge.activations._raw_moments
    monkeypatch.setattr(rfridge.activations, "_raw_moments",
                        lambda activation, order: orders.append(order) or raw_moments(activation, order))
    code, out, err = run_cli(
        ["compare", "--model", model, "--activation", "custom", "--expr-file", str(expr),
         "--order", "96", "--d", "20", "--n", "60", "--N", "40", "--lambda", "1e-3",
         "--trials", "2", "--n-test", "1000"],
        capsys,
    )
    assert code == 0, err
    assert orders == [96, 192]
    (rec,) = read_records(out, from_text=True)
    assert rec["model"] == model and math.isfinite(rec["z_test_error"])


def test_runtime_imports_numpy_only():
    # scipy happens to be installed where the tests run; mpmath and hypothesis
    # are test extras.  None of them may be imported by the library, the CLI
    # or optimal_lambda.
    code = (
        "import sys, rfridge.cli\n"
        "assert rfridge.cli.main(['simulate'] + sys.argv[1:] + ['--threads', '1']) == 0\n"
        "assert rfridge.cli.main(['theory', '--activation', 'relu', '--psi1', '2',"
        " '--psi2', '3', '--lambda-bar', '0.01', '--f1-sq', '1', '--tau-sq', '0.5']) == 0\n"
        # the stationarity polynomial's roots and polish in optimal_lambda
        "import rfridge.risk\n"
        "assert 0.0 < rfridge.risk.optimal_lambda(2.0, 2.0, 2.0, 3.0, 10.0)[0] < 10.0\n"
        "extras = ('scipy', 'mpmath', 'hypothesis')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in extras))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *SIM_ARGS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_thread_default_is_the_usable_cores(capsys, monkeypatch):
    # the CLI passes no budget, and run_trials' default is the usable cores
    seen, pools = [], []
    original = rfridge.cli.run_trials

    def recording(configs, threads=None):
        seen.append(threads)
        return original(configs, threads)

    class Pool(rfridge.simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(rfridge.cli, "run_trials", recording)
    monkeypatch.setattr(rfridge.simulate, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(rfridge._blas, "cores", lambda: 3)
    monkeypatch.setattr(rfridge._blas, "threads", lambda: 1)
    code, _, err = run_cli(["simulate"] + SIM_ARGS, capsys)
    assert code == 0, err
    assert seen == [None]
    assert pools == [3]


@pytest.mark.usefixtures("trial_pool")
def test_simulate_env_thread_default(capsys, monkeypatch):
    # the default budget, the usable cores, runs trials at once (one BLAS
    # thread each) and writes what one thread writes
    monkeypatch.setattr(rfridge._blas, "cores", lambda: 2)
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


@pytest.mark.parametrize("target", ["linear_plus_quad", "linear_plus_cross"])
def test_simulate_refuses_a_nonlinear_target_at_d_1_before_drawing(target, capsys, monkeypatch):
    # both targets read x_2, which d = 1 does not have
    draws = []
    monkeypatch.setattr(rfridge.simulate, "sample_sphere", lambda *args: draws.append(args))
    code, out, err = run_cli(
        ["simulate", "--d", "1", "--n", "5", "--N", "5", "--lambda", "1e-3", "--target", target,
         "--trials", "2", "--n-test", "1000"],
        capsys,
    )
    assert code == 2 and out == "" and draws == []
    assert err == f"error: ValueError: the {target} target needs d >= 2, got d = 1\n"


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
    for flags, message in (
        (["--min", "1", "--max", "2", "--points", "0"], "--points must be >= 1, got 0"),
        (["--min", "1"], "a sweep needs --grid or all of --min/--max/--points"),
    ):
        code, out, err = run_cli(base + flags, capsys)
        assert (code, out) == (2, "")
        assert message in err
    # a range numpy would turn into nan or inf is refused by flag, without a warning
    for spacing, lo, hi, message in (
        ("log", "1", "-1", "log spacing needs --max > 0, got -1.0"),
        ("log", "1", "0", "log spacing needs --max > 0, got 0.0"),
        ("log", "1", "inf", "--max must be finite, got inf"),
        ("linear", "1", "inf", "--max must be finite, got inf"),
        ("linear", "-inf", "1", "--min must be finite, got -inf"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                base + [f"--min={lo}", f"--max={hi}", "--points", "3", "--spacing", spacing],
                capsys)
        assert (code, out) == (2, "")
        assert message in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["simulate", "--d", "10", "--n", "20", "--lambda", "1e-3", "--trials", "2",
                  "--n-test", "1000", "--sweep", "psi1", "--grid", "1,inf"],
                 "psi1 = inf gives no finite --N at --d 10", id="simulate-psi1-inf"),
    pytest.param(["theory", "--d", "10", "--n", "20", "--lambda", "1e-3", "--sweep", "psi1",
                  "--grid", "1,inf"],
                 "psi1 = inf gives no finite --N at --d 10", id="theory-psi1-inf"),
    pytest.param(["simulate", "--d", "10", "--N", "20", "--lambda", "1e-3", "--trials", "2",
                  "--n-test", "1000", "--sweep", "psi2", "--grid=-inf,1"],
                 "psi2 = -inf gives no finite --n at --d 10", id="simulate-psi2-minus-inf"),
    # finite, but the size it gives at d = 10 is not
    pytest.param(["theory", "--d", "10", "--N", "20", "--lambda", "1e-3", "--sweep", "psi2",
                  "--grid", "1,1e308"],
                 "psi2 = 1e+308 gives no finite --n at --d 10", id="theory-psi2-huge"),
    # finite, but the size it gives at d = 10 rounds below 1
    pytest.param(["simulate", "--d", "10", "--n", "20", "--lambda", "1e-3", "--trials", "2",
                  "--n-test", "1000", "--sweep", "psi1", "--grid", "0.01,1"],
                 "psi1 = 0.01 gives --N 0 at --d 10, below 1", id="simulate-psi1-rounds-to-0"),
    pytest.param(["theory", "--d", "10", "--N", "20", "--lambda", "1e-3", "--sweep", "psi2",
                  "--grid=-1,1"],
                 "psi2 = -1.0 gives --n -10 at --d 10, below 1", id="theory-psi2-negative"),
    pytest.param(["simulate", "--d", "10", "--n", "20", "--lambda", "1e-3", "--trials", "2",
                  "--n-test", "1000", "--sweep", "psi1", "--grid", "1,nan,2"],
                 "sweep grid entry 2 is nan", id="simulate-grid-nan"),
    pytest.param(["theory", "--psi2", "3", "--lambda-bar", "0.01", "--rho", "2", "--sweep",
                  "psi1", "--min", "nan", "--max", "2", "--points", "3"],
                 "--min must be finite, got nan", id="theory-min-nan"),
])
def test_a_sweep_value_that_is_not_finite_is_refused(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_a_rho_sweep_runs_through_inf(capsys):
    code, out, _ = run_cli(THEORY_RATIO[:-2] + ["--sweep", "rho", "--grid", "1,inf"], capsys)
    assert code == 0
    recs = read_records(out, from_text=True)
    assert [rec["rho"] for rec in recs] == [1.0, math.inf]
    # the noiseless unit target weighs the bias alone
    assert recs[1]["theory_risk_R"] == recs[1]["theory_bias_B"]


def test_sweep_grid_values_are_python_floats(capsys):
    args = argparse.Namespace(sweep="psi1", grid=None, min=0.5, max=10.0, points=4,
                              spacing="log")
    assert all(type(v) is float for v in _sweep_values(args))
    args.spacing = "linear"
    assert all(type(v) is float for v in _sweep_values(args))
    code, _, err = run_cli(
        ["theory", "--psi2", "3", "--lambda-bar", "0.01", "--rho", "2", "--sweep", "psi1",
         "--min", "1", "--max", "1", "--points", "3"],
        capsys,
    )
    assert code == 2
    assert "got (1.0, 1.0, 1.0)" in err
    assert "np.float64" not in err


THEORY_RATIO = ["theory", "--psi1", "2", "--psi2", "3", "--lambda-bar", "0.01", "--rho", "2"]
THEORY_FINITE = ["theory", "--d", "40", "--n", "80", "--N", "50", "--lambda", "1e-3", "--rho", "2"]


@pytest.mark.parametrize("argv, flag, param", [
    pytest.param(THEORY_RATIO, "--psi1", "psi1", id="theory-ratio-psi1"),
    pytest.param(THEORY_RATIO, "--psi2", "psi2", id="theory-ratio-psi2"),
    pytest.param(THEORY_RATIO, "--lambda-bar", "lambda", id="theory-ratio-lambda"),
    pytest.param(THEORY_RATIO, "--rho", "rho", id="theory-ratio-rho"),
    pytest.param(THEORY_FINITE, "--N", "psi1", id="theory-finite-psi1"),
    pytest.param(THEORY_FINITE, "--n", "psi2", id="theory-finite-psi2"),
    pytest.param(THEORY_FINITE, "--lambda", "lambda", id="theory-finite-lambda"),
    pytest.param(["simulate"] + SIM_ARGS, "--N", "psi1", id="simulate-psi1"),
    pytest.param(["simulate"] + SIM_ARGS, "--n", "psi2", id="simulate-psi2"),
    pytest.param(["simulate"] + SIM_ARGS, "--lambda", "lambda", id="simulate-lambda"),
    pytest.param(["compare"] + SIM_ARGS, "--N", "psi1", id="compare-psi1"),
    pytest.param(["compare"] + SIM_ARGS, "--n", "psi2", id="compare-psi2"),
    pytest.param(["compare"] + SIM_ARGS, "--lambda", "lambda", id="compare-lambda"),
    pytest.param(["phase", "--zeta-sq", "2", "--psi2", "3", "--rho", "1"], "--rho", "rho",
                 id="phase-rho"),
    pytest.param(["phase", "--zeta-sq", "2", "--psi2", "3", "--rho", "1"], "--psi2", "psi2",
                 id="phase-psi2"),
])
def test_flag_of_the_swept_parameter_is_a_usage_error(argv, flag, param, capsys):
    # the sweep sets the parameter at every point, so a value for it would be dropped
    code, out, err = run_cli(argv + ["--sweep", param, "--grid", "1,2"], capsys)
    assert code == 2
    assert out == ""
    assert f"{flag} conflicts with sweeping {param}" in err


def test_a_row_that_is_not_finite_fails_the_sweep_alone(capsys):
    # psi1 psi2 lambda_bar overflows at the second row only; its quartic is not
    # finite, and the sweep exits 2 with that row's error and writes nothing
    argv = ["theory", "--zeta-sq", "1", "--psi1", "2", "--psi2", "3", "--rho", "2",
            "--sweep", "lambda"]
    code, out, err = run_cli(argv + ["--grid", "0.01,1e308"], capsys)
    assert code == 2
    assert out == ""
    assert (
        "ValueError: the product psi1 psi2 lambda_bar = inf overflowed the quartic in chi "
        "at psi1 = 2.0, psi2 = 3.0, zeta_sq = 1.0"
    ) in err
    code, out, err = run_cli(argv + ["--grid", "0.01"], capsys)
    assert code == 0, err


def test_a_polynomial_that_overflows_is_named(capsys):
    # the quartic's coefficients are finite, but dividing them by the leading
    # one overflows its companion matrix
    code, out, err = run_cli(
        ["theory", "--zeta-sq", "0.5", "--psi1", "1e154", "--psi2", "1e154",
         "--lambda-bar", "1e-300", "--rho", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: ValueError: the quartic in chi overflowed its companion matrix at "
        "psi1 = 1e+154, psi2 = 1e+154, zeta_sq = 0.5, psi1 psi2 lambda_bar = 100000000.0\n"
    )


def test_a_product_that_underflows_is_named(capsys):
    code, out, err = run_cli(
        ["theory", "--zeta-sq", "1", "--psi1", "1e-200", "--psi2", "1e-200",
         "--lambda-bar", "1e-10", "--rho", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: ValueError: the product psi1 psi2 lambda_bar = 0.0 underflowed, leaving the "
        "target xi = i sqrt(psi1 psi2 lambda_bar) on the real axis, at psi1 = 1e-200, "
        "psi2 = 1e-200, lambda_bar = 1e-10, zeta_sq = 1.0\n"
    )


def test_a_refused_row_keeps_its_validation_error_in_a_sweep(capsys):
    # the first row's lambda_bar is negative and its quartic not finite: the
    # refusal names the parameter, not the overflow
    code, out, err = run_cli(
        ["theory", "--psi1", "2", "--psi2", "3", "--rho", "2", "--f1-sq", "1",
         "--tau-sq", "0.5", "--sweep", "lambda", "--grid=-1e308,0.01"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: ValueError: lambda_bar must be finite and positive, got -1e+308\n"


def test_a_failing_solve_names_its_grid_point(capsys):
    # the library's message names xi only; the CLI adds the sweep's grid point
    code, out, err = run_cli(
        ["theory", "--activation", "relu", "--psi2", "3", "--lambda-bar", "1e-12",
         "--f1-sq", "1", "--tau-sq", "0.5", "--sweep", "psi1", "--grid", "2,3,4"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err == (
        "numerical failure: 1 admissible quartic roots give 0 distinct checked points; "
        "best relative map residual 3.010e-11 (xi = 3e-06j) at psi1 = 3.0, psi2 = 3.0, "
        "lambda_bar = 1e-12\n"
    )


# a threshold row (N = n, so E0 cancels; its terms are finite) and, at a larger
# penalty, a row that does not converge
THRESHOLD_THEN_UNSOLVED = ["theory", "--zeta-sq", "16441957.981804013", "--psi1",
                           "0.08198621106232101", "--psi2", "0.08198621106232101",
                           "--sweep", "lambda", "--grid", "1e-30,1e-10"]
# a row whose E0 overflows (it evaluates to -inf, its term size to inf) and, at a
# larger penalty, a row that does not converge
OVERFLOW_THEN_UNSOLVED = ["theory", "--zeta-sq", "4.862192383837208e-09",
                          "--psi1", "4.799336511647023e+71", "--psi2", "3.2515795221935407e+92",
                          "--sweep", "lambda", "--grid", "9.44904761712989e-66,9.449047617129916e-10"]
OVERFLOWED = ("error: ValueError: the decomposition at chi = -1.0583074824132803e+65 overflowed "
              "the float range at zeta_sq = 4.862192383837208e-09, psi1 = 4.799336511647023e+71, "
              "psi2 = 3.2515795221935407e+92, lambda_bar = 9.44904761712989e-66\n")


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(
        ["theory", "--activation", "relu", "--psi2", "3", "--lambda-bar", "1e-12", "--f1-sq", "1",
         "--tau-sq", "0.5", "--sweep", "psi1", "--grid", "1e-320,3"], 2,
        "error: ValueError: the product psi1 psi2 lambda_bar = 0.0 underflowed, leaving the "
        "target xi = i sqrt(psi1 psi2 lambda_bar) on the real axis, at psi1 = 1e-320, "
        "psi2 = 3.0, lambda_bar = 1e-12, zeta_sq = 2.7519383938841093\n",
        id="refused-then-unsolved"),
    pytest.param(
        THRESHOLD_THEN_UNSOLVED + ["--f1-sq", "1", "--tau-sq", "0.5"], 3,
        "numerical failure: E0 vanished: the training error and norm diverge at the "
        "interpolation threshold\n",
        id="threshold-then-unsolved"),
    pytest.param(
        THRESHOLD_THEN_UNSOLVED + ["--rho", "1"], 3,
        "numerical failure: 0 admissible quartic roots give 0 distinct checked points; best "
        "relative map residual inf (xi = 8.198621106232102e-07j) at "
        "psi1 = 0.08198621106232101, psi2 = 0.08198621106232101, lambda_bar = 1e-10\n",
        id="threshold-without-powers-then-unsolved"),
    pytest.param(OVERFLOW_THEN_UNSOLVED + ["--f1-sq", "1", "--tau-sq", "0.5"], 2, OVERFLOWED,
                 id="overflow-then-unsolved"),
    pytest.param(OVERFLOW_THEN_UNSOLVED + ["--rho", "1"], 2, OVERFLOWED,
                 id="overflow-without-powers-then-unsolved"),
])
def test_the_earliest_failing_row_raises(argv, code, err, capsys):
    # the first row fails first, whatever fails after it; a threshold row
    # fails only where target powers ask for its training error, and a row
    # whose risk polynomials overflow is refused with or without them
    assert run_cli(argv, capsys) == (code, "", err)


@pytest.mark.parametrize("argv", [
    # the oracle's quintic is not finite
    ["theory", "--zeta-sq", "1e104", "--psi1", "1", "--psi2", "3", "--lambda-bar", "1e-3",
     "--rho", "2", "--f1-sq", "1", "--tau-sq", "0.5"],
    # E2's coefficient (psi1 - 1) zeta^3 overflows, so V is inf
    ["theory", "--zeta-sq", "1e97", "--psi1", "1e64", "--psi2", "1", "--lambda-bar", "1e-5",
     "--rho", "2", "--f1-sq", "1", "--tau-sq", "0.5"],
    # E0 evaluates to -inf and its term size to inf, which is no threshold
    ["theory", "--zeta-sq", "1.9740783612521176e+23", "--psi1", "4.9296884383088217e+95",
     "--psi2", "4.636450426954126e+52", "--lambda-bar", "9.158752038260847e-33", "--rho", "2"],
    ["theory", "--zeta-sq", "1.9740783612521176e+23", "--psi1", "4.9296884383088217e+95",
     "--psi2", "4.636450426954126e+52", "--lambda-bar", "9.158752038260847e-33", "--rho", "2",
     "--f1-sq", "1", "--tau-sq", "0.5"],
    ["theory", "--variant", "wide", "--zeta-sq", "1e200", "--psi2", "3", "--lambda-bar", "0.01",
     "--rho", "2"],
    ["theory", "--variant", "lsamp", "--zeta-sq", "1e200", "--psi1", "3", "--lambda-bar", "0.01",
     "--rho", "2"],
    ["theory", "--variant", "ridgeless", "--zeta-sq", "1e104", "--psi1", "2", "--psi2", "3",
     "--rho", "2"],
    ["phase", "--zeta-sq", "1e200", "--psi2", "3", "--rho", "2"],
], ids=["quintic", "variance", "e0", "e0-with-powers", "wide", "lsamp", "ridgeless", "phase"])
def test_an_overflowing_row_is_refused(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ValueError: ") and "overflowed" in err


def test_the_cli_imports_no_private_rfridge_name():
    # the CLI is a layer over rfridge's public names (a dunder like __version__
    # is public), and risk.theory_columns holds the theory rows' formulas
    tree = ast.parse(open(rfridge.cli.__file__, encoding="utf-8").read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names]
    private = [(module, name) for module, name in imported
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    assert imported and private == []
    formulas = {"attempt", "risk_general", "risk_ridgeless", "risk_wide", "risk_large_sample"}
    assert formulas.isdisjoint(name for _, name in imported)


# each theory variant's parameters, with ratios and with finite sizes
TAKES = {"general": ("psi1", "psi2", "lambda"), "ridgeless": ("psi1", "psi2"),
         "wide": ("psi2", "lambda"), "lsamp": ("psi1", "lambda")}
SHAPE_FLAGS = {
    "ratio": {"psi1": ["--psi1", "2"], "psi2": ["--psi2", "3"], "lambda": ["--lambda-bar", "0.01"]},
    "finite": {"psi1": ["--N", "80"], "psi2": ["--n", "120"], "lambda": ["--lambda", "1e-3"]},
}


@pytest.mark.parametrize("mode", ["ratio", "finite"])
@pytest.mark.parametrize("variant", list(TAKES))
def test_each_theory_variant_takes_its_own_parameters(variant, mode, capsys):
    flags, takes = SHAPE_FLAGS[mode], TAKES[variant]
    base = ["theory", "--variant", variant, "--rho", "2"] + (["--d", "40"] if mode == "finite" else [])

    def given(params):
        return base + [token for param in params for token in flags[param]]

    code, out, err = run_cli(given(takes), capsys)
    assert code == 0, err
    assert len(read_records(out, from_text=True)) == 1
    for param in takes:
        others = [p for p in takes if p != param]
        code, out, err = run_cli(given(others), capsys)
        assert (code, out) == (2, "")
        assert f"{flags[param][0]} is required (or sweep {param})" in err
        code, out, err = run_cli(given(others) + ["--sweep", param, "--grid", "1,2"], capsys)
        assert code == 0, err
        assert len(read_records(out, from_text=True)) == 2
    for param in set(flags) - set(takes):
        code, out, err = run_cli(given(takes) + flags[param], capsys)
        assert (code, out) == (2, "")
        assert f"theory --variant {variant} takes no {flags[param][0]}" in err
        code, out, err = run_cli(given(takes) + ["--sweep", param, "--grid", "1,2"], capsys)
        assert (code, out) == (2, "")
        assert f"theory --variant {variant} cannot sweep {param}" in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("flag", ["--N", "--n", "--lambda"])
def test_simulations_need_every_size(command, flag, capsys):
    at = SIM_ARGS.index(flag)
    code, out, err = run_cli([command] + SIM_ARGS[:at] + SIM_ARGS[at + 2:], capsys)
    assert (code, out) == (2, "")
    assert f"{flag} is required" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--psi2", "3"], "--rho is required (or sweep rho)", id="no-rho"),
    pytest.param(["--rho", "1"], "--psi2 is required (or sweep psi2)", id="no-psi2"),
    pytest.param(["--rho", "1", "--psi2", "3", "--sweep", "psi1", "--grid", "1,2"],
                 "phase cannot sweep psi1", id="sweep-psi1"),
    pytest.param(["--rho", "1", "--psi2", "3", "--sweep", "lambda", "--grid", "1,2"],
                 "phase cannot sweep lambda", id="sweep-lambda"),
])
def test_phase_takes_rho_and_psi2(argv, message, capsys):
    code, out, err = run_cli(["phase", "--zeta-sq", "2"] + argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command", ["simulate", "theory"])
def test_a_sweep_that_rounds_two_values_to_one_size_is_a_usage_error(command, capsys):
    # both psi1 values give N = 10 at d = 10, so the rows would be identical
    code, out, err = run_cli(
        [command, "--d", "10", "--n", "30", "--lambda", "0.01", "--sweep", "psi1",
         "--grid", "0.5,1,1.01"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "psi1 = 1.0 and 1.01 both give --N 10 at --d 10" in err


def test_the_parser_is_built_once_and_reused(capsys):
    # consecutive calls with different subcommands and flags print what calls
    # with a freshly built parser print
    calls = [
        THEORY_RATIO,
        ["phase", "--zeta-sq", "2", "--psi2", "3", "--sweep", "rho", "--grid", "1,2"],
        ["theory", "--variant", "wide", "--psi2", "3", "--lambda-bar", "0.1", "--format", "jsonl"],
        ["stats", "--activation", "identity"],
        THEORY_RATIO + ["--sweep", "psi1", "--grid", "1,2"],
        ["theory", "--variant", "lsamp", "--psi1", "2", "--lambda-bar", "0.1", "--rho", "3"],
    ]
    assert rfridge.cli.build_parser() is rfridge.cli.build_parser()
    reused = [run_cli(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        rfridge.cli.build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0]


def test_a_bad_grid_entry_is_named_with_its_position(capsys):
    code, out, err = run_cli(
        ["theory", "--psi2", "3", "--lambda-bar", "0.01", "--rho", "2", "--sweep", "psi1",
         "--grid", "1,,2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--grid entry 2 is not a number: ''" in err


def test_the_theory_curve_varies_only_psi1_and_theory_cells(capsys, monkeypatch):
    # on the benchmark's curve every other cell is shared by the 161 rows, so
    # write_records formats it once
    written = []
    write = rfridge.cli.write_records
    monkeypatch.setattr(rfridge.cli, "write_records",
                        lambda table, *rest: written.append(table) or write(table, *rest))
    code = main(["theory", "--activation", "relu", "--psi2", "3", "--lambda-bar", "0.0110078",
                 "--f1-sq", "1", "--tau-sq", "0.5", "--sweep", "psi1", "--min", "0.5",
                 "--max", "10", "--points", "161", "--spacing", "log"])
    out = capsys.readouterr().out
    assert code == 0
    [table] = written
    assert table.rows == 161
    per_row = [c for c in COLUMNS if isinstance(table.cells[c], list)]
    assert per_row == ["psi1", "theory_bias_B", "theory_var_V", "theory_risk_R",
                       "theory_test_error", "theory_train_error", "theory_norm_msq"]
    assert all(len(table.cells[c]) == 161 for c in per_row)
    assert table.cells["rho"] == 2.0
    assert out == _csv_per_cell(table)


@pytest.mark.parametrize("argv, flag", [
    pytest.param(THEORY_RATIO[:-1] + ["nan"], "--rho", id="theory-rho"),
    pytest.param(["theory", "--psi1", "2", "--psi2", "nan", "--lambda-bar", "0.01"], "--psi2",
                 id="theory-psi2"),
    pytest.param(THEORY_FINITE[:-4] + ["--lambda", "nan"], "--lambda", id="theory-lambda"),
    pytest.param(["phase", "--zeta-sq", "1", "--psi2", "nan", "--rho", "1"], "--psi2",
                 id="phase-psi2"),
    pytest.param(["simulate"] + SIM_ARGS[:7] + ["nan"] + SIM_ARGS[8:], "--lambda",
                 id="simulate-lambda"),
])
def test_a_nan_flag_is_refused_and_named(argv, flag, capsys, monkeypatch):
    # a record holds nan for a flag not given: a nan flag would read as absent
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"{flag} is nan" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["stats", "--activation", "shifted_relu:nan"],
                 "shifted_relu needs a finite shift, got nan", id="stats-nan"),
    pytest.param(["stats", "--activation", "shifted_relu:inf"],
                 "shifted_relu needs a finite shift, got inf", id="stats-inf"),
    # the closed form's second moment overflows
    pytest.param(["stats", "--activation", "shifted_relu:-1e300"],
                 "activation moments are not finite: mu_star_sq = nan", id="stats-overflow"),
    pytest.param(["simulate", "--activation", "shifted_relu:nan", "--d", "20", "--n", "60",
                  "--N", "40", "--lambda", "1e-3", "--trials", "2", "--n-test", "1000"],
                 "shifted_relu needs a finite shift, got nan", id="simulate-nan"),
])
def test_a_non_finite_shift_is_refused(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(rfridge.cli, "run_trials", _no_draw)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("activation", [[], ["--activation", "relu"],
                                        ["--activation", "shifted_relu:0.3"]])
@pytest.mark.parametrize("flags, message", [
    pytest.param(["--expr-file", "/nonexistent"], "--expr-file needs --activation custom",
                 id="expr-file"),
    pytest.param(["--breakpoints", "0"], "--breakpoints needs --activation custom",
                 id="breakpoints"),
])
def test_custom_activation_flags_need_a_custom_activation(activation, flags, message, capsys):
    code, out, err = run_cli(THEORY_RATIO + activation + flags, capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("flag, value", [("--expr-file", "/nonexistent"), ("--breakpoints", "0")])
def test_zeta_sq_and_a_custom_activation_flag_are_a_usage_error(flag, value, capsys):
    code, out, err = run_cli(THEORY_RATIO + ["--zeta-sq", "2", flag, value], capsys)
    assert (code, out) == (2, "")
    assert f"give either --zeta-sq or {flag}, not both" in err


def test_a_bad_breakpoint_is_named_with_its_position(tmp_path, capsys):
    expr = tmp_path / "act.txt"
    expr.write_text("np.maximum(u, 0.0)\n")
    code, out, err = run_cli(["stats", "--activation", "custom", "--expr-file", str(expr),
                              "--breakpoints", "0,x"], capsys)
    assert (code, out) == (2, "")
    assert "--breakpoints entry 2 is not a number: 'x'" in err


@pytest.mark.parametrize("breakpoints, message", [
    ("nan", "custom activation breakpoint 1 is not finite: nan"),
    ("0,inf", "custom activation breakpoint 2 is not finite: inf"),
])
def test_a_non_finite_breakpoint_is_refused_by_position(breakpoints, message, tmp_path, capsys):
    expr = tmp_path / "act.txt"
    expr.write_text("np.maximum(u, 0.0)\n")
    code, out, err = run_cli(["stats", "--activation", "custom", "--expr-file", str(expr),
                              "--breakpoints", breakpoints], capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("spec, shift", [("shifted_relu:abc", "abc"), ("shifted_relu:", "")])
def test_a_shift_that_is_not_a_number_is_named(spec, shift, capsys):
    code, out, err = run_cli(["stats", "--activation", spec], capsys)
    assert (code, out) == (2, "")
    assert f"--activation shift is not a number: {shift!r}" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["phase", "--psi2", "2", "--rho", "1"], id="phase"),
    pytest.param(THEORY_RATIO, id="theory"),
])
@pytest.mark.parametrize("activation", ["shifted_relu:0.3", "relu"])
def test_zeta_sq_and_an_activation_together_are_a_usage_error(argv, activation, capsys):
    # --zeta-sq would silently replace the activation's ratio, even relu's
    code, out, err = run_cli(argv + ["--activation", activation, "--zeta-sq", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "give either --zeta-sq or --activation, not both" in err


def test_activation_defaults_to_relu_except_in_phase(capsys):
    code, out, err = run_cli(THEORY_RATIO, capsys)
    assert code == 0, err
    rec = read_records(out, from_text=True)[0]
    assert rec["activation"] == "relu"
    assert rec["zeta_sq"] == pytest.approx(RELU_ZETA_SQ, rel=1e-12)
    code, out, err = run_cli(["phase", "--psi2", "2", "--rho", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "phase needs --zeta-sq or --activation" in err


@pytest.mark.parametrize("expr, out, message", [
    pytest.param("np.tanh(u)", "missing/out.csv", "cannot write --out", id="unwritable-out"),
    pytest.param(None, None, "cannot read --expr-file", id="missing-expr-file"),
    pytest.param("np.tanh(u", None, "is not an expression", id="syntax-error"),
    pytest.param("foo(u)", None, "name 'foo' is not defined", id="undefined-name"),
])
def test_file_and_expression_errors_are_usage_errors(expr, out, message, tmp_path, capsys):
    path = tmp_path / "act.txt"
    if expr is not None:
        path.write_text(expr + "\n")
    argv = ["stats", "--activation", "custom", "--expr-file", str(path)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert message in err


def test_an_order_past_the_cap_is_refused_before_any_rule_is_built(tmp_path, capsys,
                                                                   monkeypatch):
    def leggauss(order):
        raise AssertionError(f"leggauss({order}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    path = tmp_path / "act.txt"
    path.write_text("np.tanh(u)\n")
    for command in (["stats"], ["theory", "--psi1", "2", "--psi2", "3", "--lambda-bar", "0.01"]):
        code, out, err = run_cli(
            command + ["--activation", "custom", "--expr-file", str(path), "--order", "1025"],
            capsys)
        assert (code, out) == (2, "")
        assert "--order must be <= 1024, got 1025" in err
    # the same range holds for a built-in activation, which has no rule to build
    code, out, err = run_cli(["stats", "--activation", "relu", "--order", "5000"], capsys)
    assert (code, out) == (2, "")
    assert "--order must be <= 1024, got 5000" in err


def test_a_custom_activation_needs_its_file_and_an_order_of_at_least_1(tmp_path, capsys):
    code, out, err = run_cli(["stats", "--activation", "custom"], capsys)
    assert (code, out) == (2, "")
    assert "--activation custom needs --expr-file" in err
    path = tmp_path / "act.txt"
    path.write_text("np.tanh(u)\n")
    code, out, err = run_cli(
        ["stats", "--activation", "custom", "--expr-file", str(path), "--order", "0"], capsys)
    assert (code, out) == (2, "")
    assert "order must be >= 1, got 0" in err
    for activation in ("relu", "shifted_relu:0.5"):
        code, out, err = run_cli(["stats", "--activation", activation, "--order", "0"], capsys)
        assert (code, out) == (2, "")
        assert "--order must be >= 1, got 0" in err


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


def test_compare_refuses_its_theory_before_any_trial(capsys, monkeypatch):
    def run_trials(*args):
        raise AssertionError("run_trials was called")

    monkeypatch.setattr(rfridge.cli, "run_trials", run_trials)
    code, out, err = run_cli(
        ["compare", "--d", "20", "--n", "60", "--N", "60", "--lambda", "1e-12", "--trials", "2",
         "--n-test", "1000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: "), err


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


def _z(diff: float, sem: float) -> float:
    """The z-score rule of one row: diff / sem, and 0 or an infinity when sem is 0."""
    if sem > 0.0:
        return diff / sem
    return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)


def _same_float(a: float, b: float) -> bool:
    return math.isnan(a) and math.isnan(b) or (a == b and math.copysign(1, a) == math.copysign(1, b))


@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=6))
@example([(0.0, 0.0), (-0.0, 0.0), (1.5, 0.0), (-2.0, 0.0), (-0.0, 0.5), (1.0, 0.5),
          (math.nan, 0.0), (math.inf, 1.0), (-math.inf, 0.0), (0.3, -1.0), (0.3, math.nan)])
def test_z_scores_are_the_per_row_rule(pairs):
    diff, sem = map(np.array, zip(*pairs))
    z = _z_scores(diff, sem).tolist()
    assert all(_same_float(v, _z(d, s)) for (d, s), v in zip(pairs, z))


def test_compare_z_scores_are_the_per_row_rule(capsys):
    # lambda = 0 is a ridgeless row: only its test error is scored
    args = SIM_ARGS[:SIM_ARGS.index("--lambda")] + SIM_ARGS[SIM_ARGS.index("--lambda") + 2:]
    code, out, err = run_cli(["compare"] + args + ["--sweep", "lambda", "--grid", "0,1e-3,1e-1"],
                             capsys)
    assert code == 0, err
    records = read_records(out, from_text=True)
    assert [rec["variant"] for rec in records] == ["ridgeless", "general", "general"]
    for rec in records:
        scored = ("test_error",) if rec["variant"] == "ridgeless" else (
            "test_error", "train_error", "norm_msq")
        for q in ("test_error", "train_error", "norm_msq"):
            expected = (_z(rec[f"sim_{q}_mean"] - rec[f"theory_{q}"], rec[f"sim_{q}_sem"])
                        if q in scored else math.nan)
            assert _same_float(rec[f"z_{q}"], expected), (rec["lambda"], q)


# a custom activation's cell names its expression; this one holds every
# character CSV quotes or the row template escapes
_ODD_EXPR = '(np.tanh(u) + 0 * (u % 7)\n + 0 * len("a,b"))'


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", [
    pytest.param(["stats"], id="stats"),
    pytest.param(["theory", "--psi2", "3", "--lambda-bar", "0.01", "--rho", "2", "--sweep", "psi1",
                  "--grid", "1,2,4"], id="theory"),
    pytest.param(["simulate", "--d", "20", "--n", "40", "--lambda", "1e-3",
                  "--trials", "2", "--n-test", "1000", "--sweep", "psi1", "--grid", "1,2"],
                 id="simulate"),
])
def test_a_custom_activation_cell_is_its_expression(argv, fmt, tmp_path, capsys):
    cells = []
    for expr in ("np.tanh(u)", _ODD_EXPR):
        path = tmp_path / "act.txt"
        path.write_text(f"  {expr}\n")
        code, out, err = run_cli(argv + ["--activation", "custom", "--expr-file", str(path),
                                         "--format", fmt], capsys)
        assert code == 0, err
        records = read_records(out, from_text=True)
        assert len(records) == (1 if argv[0] == "stats" else len(argv[-1].split(",")))
        assert {rec["activation"] for rec in records} == {f"custom:{expr}"}
        cells.append(records[0]["activation"])
    assert cells[0] != cells[1]


def test_a_library_custom_activation_without_expression_is_labelled_custom():
    assert rfridge.activations.Activation.custom(np.tanh).label() == "custom"
    assert rfridge.activations.Activation.custom(np.tanh, expr="np.tanh(u)").label() == (
        "custom:np.tanh(u)")


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
    write_records(_table_of(from_file), "csv", str(rewritten))
    again = read_records(str(rewritten))
    assert records_equal(from_file[0], again[0])
    with pytest.raises(ValueError, match="^empty CSV input$"):
        read_records("", from_text=True)
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        write_records(_table_of(from_file), "xml", None)


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
    a = dict(Table(COLUMNS, 1, command="x").cells)
    b = dict(Table(COLUMNS, 1, command="x").cells)
    assert records_equal(a, b)
    a["psi1"] = 1.0
    assert not records_equal(a, b)


def test_a_new_table_is_its_own_copy():
    a = Table(COLUMNS, 2, command="theory", psi1=[2.0, 3.0], psi2=None)
    assert math.isnan(a.cells["psi2"])
    a.cells["psi2"] = 3.0
    a.update({"variant": "general"})
    b = Table(COLUMNS, 1)
    assert b.cells["command"] == b.cells["variant"] == ""
    assert math.isnan(b.cells["psi1"]) and math.isnan(b.cells["psi2"])
    assert b.cells["tool_version"] == rfridge.__version__
    assert list(b.cells) == list(COLUMNS)
    assert a.column("psi1") == [2.0, 3.0]
    assert a.column("command") == ["theory", "theory"]
    with pytest.raises(KeyError, match="unknown column 'no_such_column'"):
        Table(COLUMNS, 1, no_such_column=1.0)


def _table_of(records, columns=COLUMNS) -> Table:
    """records as a table with every column per row."""
    return Table(columns, len(records), **{c: [rec[c] for rec in records] for c in columns})


def _records_of(table: Table) -> list[dict]:
    return [dict(zip(table.columns, row)) for row in zip(*map(table.column, table.columns))]


def _csv_per_cell(table: Table) -> str:
    """The reference CSV rule: csv.writer over format_value, one cell at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for rec in _records_of(table):
        writer.writerow([format_value(rec[c]) for c in table.columns])
    return buffer.getvalue()


def _jsonl_per_row(table: Table) -> str:
    """The reference JSONL rule: one json.dumps per row, converting every cell."""
    lines = []
    for rec in _records_of(table):
        row = {}
        for c in table.columns:
            v = rec[c]
            if isinstance(v, (bool, np.bool_, int, np.integer)):
                v = int(v)
            elif isinstance(v, (float, np.floating)):
                v = float(v) if math.isfinite(v) else format_value(v)
            row[c] = v
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


_CELLS = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.floats().map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(alphabet='ab ,"\n\r%', max_size=5),  # "" among them
    st.sampled_from([5e-324, 2**53, 2**53 + 1, float(2**53), 2**64]),
)
# equal to one another, but not all written alike
_EQUAL = (0, 0.0, -0.0, False, np.bool_(False), np.int64(0), np.float64(-0.0))


@st.composite
def _tables(draw):
    columns = tuple(draw(st.lists(st.text(alphabet='c,"\n%', max_size=3), min_size=1,
                                  max_size=5, unique=True)))
    rows = draw(st.integers(min_value=0, max_value=4))
    cells = {}
    for c in columns:
        kind = draw(st.sampled_from(("shared", "copies", "equal", "free")))
        if kind == "shared":
            cells[c] = draw(_CELLS)
        elif kind == "equal":
            cells[c] = draw(st.lists(st.sampled_from(_EQUAL), min_size=rows, max_size=rows))
        elif kind == "free":
            cells[c] = draw(st.lists(_CELLS, min_size=rows, max_size=rows))
        else:
            # one value, a distinct object in every row
            value = draw(_CELLS)
            cells[c] = [pickle.loads(pickle.dumps(value)) for _ in range(rows)]
    return Table(columns, rows, **cells)


def _written(table, fmt) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        write_records(table, fmt, None)
    return out.getvalue()


@given(_tables())
# one field alone in a row is quoted when empty, shared or not
@example(Table(("c",), 2, c=["x", ""]))
@example(Table(("c",), 2, c=""))
@example(Table(("c", "d"), 2, c=[0.0, -0.0], d=""))
def test_csv_output_is_the_per_cell_rule(table):
    assert _written(table, "csv") == _csv_per_cell(table)


@given(_tables())
@example(Table(("c",), 2, c=["x", ""]))
@example(Table(("c",), 1, c=""))
@example(Table(("c", "d"), 3, c=[math.inf, -math.inf, math.nan], d=np.float64(math.nan)))
def test_jsonl_output_is_the_per_row_rule(table):
    assert _written(table, "jsonl") == _jsonl_per_row(table)


def test_a_theory_row_with_a_quoted_percent_label_is_the_per_cell_rule(tmp_path, capsys,
                                                                       monkeypatch):
    # a shared cell is written into the row template once: its quotes and its
    # % must come out as csv.writer writes them
    expr = tmp_path / "act.txt"
    expr.write_text("np.tanh(u)\n")
    monkeypatch.setattr(rfridge.activations.Activation, "label", lambda self: 'tanh,"50%"')
    written = []
    write = rfridge.cli.write_records
    monkeypatch.setattr(rfridge.cli, "write_records",
                        lambda table, *rest: written.append(table) or write(table, *rest))
    code, out, err = run_cli(
        ["theory", "--activation", "custom", "--expr-file", str(expr), "--psi2", "3",
         "--lambda-bar", "0.01", "--rho", "2", "--sweep", "psi1", "--grid", "1,2,4"],
        capsys,
    )
    assert code == 0, err
    assert out == _csv_per_cell(written[0])
    assert '"tanh,""50%"""' in out.splitlines()[1]
    assert [rec["activation"] for rec in read_records(out, from_text=True)] == ['tanh,"50%"'] * 3


def test_format_value_conventions():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(40) == "40"
    assert format_value("relu") == "relu"
    assert float(format_value(math.pi)) == math.pi
    assert format_value(float("inf")) == "inf"


@pytest.mark.parametrize("value,text", [
    ("relu", "relu"),
    (True, "1"),
    (False, "0"),
    (np.bool_(True), "1"),
    (np.bool_(False), "0"),
    (40, "40"),
    (np.int64(-7), "-7"),
    (0.1, "0.10000000000000001"),
    (np.float64(0.1), "0.10000000000000001"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
    (-0.0, "-0"),
    (2.5e-29, "2.4999999999999999e-29"),
])
def test_format_value_text_per_type(value, text):
    # plain floats take a shortcut; every type must keep its cell text
    assert format_value(value) == text
