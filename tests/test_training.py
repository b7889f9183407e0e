"""Training-objective and coefficient-norm asymptotics."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfridge.selfconsistent
from rfridge.risk import (
    ChiDisagreement,
    TargetSpec,
    ThresholdSingularity,
    risk_general,
    risk_ridgeless,
)
from rfridge.selfconsistent import solve_at
from rfridge.training import TrainingAsymptotics, training_theory

RELU_ZETA_SQ = math.pi / (math.pi - 2.0)
RELU_MU_STAR_SQ = (math.pi - 2.0) / (4.0 * math.pi)
LAM_BAR = 1e-3 / RELU_MU_STAR_SQ

# 50-digit references at (rho=2, relu zeta_sq, psi1=6, psi2=3, lambda=1e-3).
REF_L = 0.018580725627344777
REF_A = 0.25864195978251087


def test_frozen_values():
    out = training_theory(2.0, RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    assert out.L == pytest.approx(REF_L, rel=1e-9)
    assert out.A == pytest.approx(REF_A, rel=1e-9)


def test_huge_penalty_freezes_estimator_at_zero():
    # with a_hat pinned to zero the whole target power stays in the residual
    out = training_theory(2.0, RELU_ZETA_SQ, 6.0, 3.0, 1e6)
    assert out.L == pytest.approx(1.0, abs=1e-4)
    assert out.A <= 1e-6


def test_pure_noise_weights():
    rho = 0.0
    out = training_theory(rho, RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    point = solve_at(RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    expected = point.nu2.imag * math.sqrt(LAM_BAR * 6.0 / 3.0)
    assert out.L == pytest.approx(expected, rel=1e-12)


def test_pure_signal_weights():
    out = training_theory(math.inf, RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    point = solve_at(RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    chi = point.chi.real
    expected = (
        point.nu2.imag
        * math.sqrt(LAM_BAR * 6.0 / 3.0)
        / (1.0 - chi * RELU_ZETA_SQ)
    )
    assert out.L == pytest.approx(expected, rel=1e-12)


def test_interpolating_regime_trains_to_zero():
    # more features than samples and a vanishing penalty: the fit interpolates
    out = training_theory(2.0, RELU_ZETA_SQ, 6.0, 3.0, 1e-8)
    assert out.L <= 1e-3


def test_underparametrized_regime_keeps_residual():
    out = training_theory(2.0, RELU_ZETA_SQ, 0.5, 3.0, 1e-8)
    assert out.L > 0.1


def test_norm_factor_peaks_near_threshold():
    grid = np.geomspace(0.1, 30.0, 40)
    vals = [
        training_theory(2.0, RELU_ZETA_SQ, p1, 3.0, LAM_BAR).A for p1 in grid
    ]
    diffs = np.diff(vals)
    k = int(np.argmax(vals))
    assert 0 < k < len(grid) - 1
    assert 1.0 <= grid[k] <= 6.0
    # unimodal: rises up to the peak, falls after it
    assert np.all(diffs[:k] > 0.0)
    assert np.all(diffs[k:] < 0.0)


def test_validates_inputs():
    with pytest.raises(ValueError):
        training_theory(2.0, 1.0, 2.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        training_theory(-1.0, 1.0, 2.0, 3.0, 0.1)


@pytest.mark.parametrize("target", [
    TargetSpec(0.0, fstar_sq=0.3, tau_sq=0.5),
    TargetSpec(1.0, fstar_sq=0.2, tau_sq=0.5),
    TargetSpec(1.5),
], ids=["rho-0", "rho-finite", "rho-inf"])
def test_train_and_norm_weigh_the_training_theory(target):
    dec = risk_general(RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    asym = training_theory(target.rho, RELU_ZETA_SQ, 6.0, 3.0, LAM_BAR)
    assert dec.train_error(target) == pytest.approx(
        target.total_power * asym.L, rel=1e-14, abs=0.0
    )
    assert dec.norm_msq(target) == pytest.approx(target.total_power * asym.A, rel=1e-14, abs=0.0)


def test_threshold_decomposition_has_no_training_error():
    dec = risk_ridgeless(1.0, 2.0, 2.0)
    target = TargetSpec(1.0, tau_sq=0.5)
    assert dec.threshold_singular
    assert dec.test_error(target) == math.inf
    for quantity in (dec.train_error, dec.norm_msq):
        with pytest.raises(ThresholdSingularity):
            quantity(target)


@pytest.mark.parametrize("quantity", [
    pytest.param(risk_general, id="risk_general"),
    pytest.param(partial(training_theory, 2.0), id="training_theory"),
])
def test_chi_cross_check_guards_every_quantity(quantity, monkeypatch):
    certify = rfridge.selfconsistent._AxisBatch._certify_arrays

    def perturbed(batch, *args):
        certify(batch, *args)
        batch.oracle *= 1.0 + 1e-6

    monkeypatch.setattr(rfridge.selfconsistent._AxisBatch, "_certify_arrays", perturbed)
    with pytest.raises(ChiDisagreement):
        quantity(1.0, 2.0, 3.0, 0.1)


@pytest.mark.parametrize("lambda_bar", [1e-9, LAM_BAR, 1e3], ids=["tiny", "relu-1e-3", "large"])
def test_theory_values_are_python_numbers(lambda_bar):
    # the direct route starts from numpy's roots; nothing numpy may leak out
    point = solve_at(RELU_ZETA_SQ, 6.0, 3.0, lambda_bar)
    for value in (point.xi, point.nu1, point.nu2, point.chi):
        assert type(value) is complex
    assert type(point.residual) is float
    out = training_theory(2.0, RELU_ZETA_SQ, 6.0, 3.0, lambda_bar)
    assert type(out.L) is float and type(out.A) is float
    dec = risk_general(RELU_ZETA_SQ, 6.0, 3.0, lambda_bar)
    assert type(dec.bias_B) is float and type(dec.var_V) is float


@settings(max_examples=25, deadline=None)
@given(
    log_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)),
    log_p1=st.floats(min_value=math.log(0.2), max_value=math.log(8.0)),
    log_p2=st.floats(min_value=math.log(0.2), max_value=math.log(8.0)),
    log_lam=st.floats(min_value=math.log(1e-3), max_value=math.log(5.0)),
    rho=st.sampled_from([0.0, 0.5, 2.0, math.inf]),
)
def test_outputs_nonnegative_and_finite(log_z, log_p1, log_p2, log_lam, rho):
    out = training_theory(
        rho, math.exp(log_z), math.exp(log_p1), math.exp(log_p2), math.exp(log_lam)
    )
    assert isinstance(out, TrainingAsymptotics)
    assert math.isfinite(out.L) and out.L >= 0.0
    assert math.isfinite(out.A) and out.A >= 0.0
    # the objective never retains more than the full target power
    assert out.L <= 1.0 + 1e-9


@pytest.mark.parametrize("psi1, psi2, L", [(2.0, 1e-13, 0.0), (1e-14, 2.0, 1.0)])
def test_tiny_shape_ratio_is_not_the_interpolation_threshold(psi1, psi2, L):
    # E0 scales with min(psi1, psi2), as the numerator does; with no samples
    # the fit interpolates (L = 0), with no features it fits nothing (L = 1)
    out = training_theory(2.0, RELU_ZETA_SQ, psi1, psi2, 0.01)
    assert out.L == pytest.approx(L, abs=1e-9)
    assert 0.0 <= out.A <= 1e-9
