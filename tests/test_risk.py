"""Risk decomposition, limit formulas, phase boundary, penalty optimization."""

import collections
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfridge.risk
from rfridge.risk import (
    INF,
    NonUnimodalWarning,
    PhaseQuantities,
    RiskDecomposition,
    TargetSpec,
    optimal_lambda,
    ridgeless_chi,
    risk_general,
    risk_large_sample,
    risk_ridgeless,
    risk_wide,
    theory_columns,
    wide_omega,
    wide_phase,
    wide_risk_in_omega,
)
from rfridge.selfconsistent import (
    InvariantViolation,
    NoConvergence,
    _AxisBatch,
    attempt,
    require_positive,
    solve_at,
)

RELU_ZETA_SQ = math.pi / (math.pi - 2.0)
RELU_MU_STAR_SQ = (math.pi - 2.0) / (4.0 * math.pi)

# Extended-precision references (50-digit arithmetic, frozen).
REF_B = 0.72189188183649126  # zeta_sq=1, psi=(2,3), lambda_bar=0.1
REF_V = 0.69910272373268442
REF_R_RHO2 = 0.71429549580188898
REF_TEST_ERROR = 0.73072692301788929  # relu, psi1=6, psi2=3, lambda=1e-3, tau_sq=0.5
REF_WIDE_OMEGA = -16.615777094165048  # relu zeta_sq, psi2=10, lambda_bar=0.05
REF_WIDE_B = 0.0035372286515088564
REF_WIDE_V = 0.097657240637706754
REF_LSAMP_OMEGA = -0.36602540378443865  # zeta_sq=1, psi1=1, lambda_bar=1
REF_LSAMP_B = 0.65470053837925153
REF_RHO_STAR = 2.7519383938841087  # relu zeta_sq, any psi2


def test_general_frozen_decomposition():
    dec = risk_general(1.0, 2.0, 3.0, 0.1)
    assert dec.bias_B == pytest.approx(REF_B, rel=1e-10)
    assert dec.var_V == pytest.approx(REF_V, rel=1e-10)
    assert dec.risk_at(2.0) == pytest.approx(REF_R_RHO2, rel=1e-10)
    assert not dec.threshold_singular


def test_general_rho_endpoints():
    dec = risk_general(1.0, 2.0, 3.0, 0.1)
    assert dec.risk_at(0.0) == pytest.approx(dec.var_V, rel=1e-14)
    assert dec.risk_at(INF) == pytest.approx(dec.bias_B, rel=1e-14)


def test_general_validates_inputs():
    with pytest.raises(ValueError):
        risk_general(1.0, 2.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        risk_general(1.0, 2.0, 3.0, -0.5)


def test_risk_at_validates_rho():
    dec = RiskDecomposition(1.0, 2.0, math.nan, math.nan, math.nan, math.nan)
    with pytest.raises(ValueError):
        dec.risk_at(-0.5)
    assert dec.risk_at(0.0) == 2.0
    assert dec.risk_at(INF) == 1.0
    assert dec.risk_at(1.0) == pytest.approx(1.5, abs=1e-15)


def test_target_spec_rho_derivation():
    t = TargetSpec(f1_sq=1.0, fstar_sq=0.25, tau_sq=0.25)
    assert t.rho == pytest.approx(2.0, abs=1e-15)
    assert t.total_power == pytest.approx(1.5, abs=1e-15)
    assert TargetSpec(f1_sq=1.0).rho == INF
    assert TargetSpec(f1_sq=0.0, tau_sq=1.0).rho == 0.0


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec(f1_sq=0.0)
    with pytest.raises(ValueError):
        TargetSpec(f1_sq=-1.0, tau_sq=0.5)


def test_test_error_frozen_value():
    lam_bar = 1e-3 / RELU_MU_STAR_SQ
    target = TargetSpec(f1_sq=1.0, fstar_sq=0.0, tau_sq=0.5)
    err = risk_general(RELU_ZETA_SQ, 6.0, 3.0, lam_bar).test_error(target)
    assert err == pytest.approx(REF_TEST_ERROR, rel=1e-10)


def test_test_error_reduces_to_weighted_risk_without_fstar():
    target = TargetSpec(f1_sq=1.0, tau_sq=0.5)
    dec = risk_general(1.0, 2.0, 3.0, 0.1)
    err = dec.test_error(target)
    assert err == pytest.approx(1.5 * dec.risk_at(2.0), rel=1e-12)


def test_test_error_offsets_by_unlearnable_power():
    target = TargetSpec(f1_sq=0.0, fstar_sq=2.0)
    dec = risk_general(1.0, 2.0, 3.0, 0.1)
    err = dec.test_error(target)
    assert err == pytest.approx(2.0 * dec.var_V + 2.0, rel=1e-12)


def test_general_approaches_ridgeless():
    dec = risk_general(RELU_ZETA_SQ, 1.0, 3.0, 1e-8)
    ref = risk_ridgeless(RELU_ZETA_SQ, 1.0, 3.0)
    assert dec.bias_B == pytest.approx(ref.bias_B, rel=1e-4)
    assert dec.var_V == pytest.approx(ref.var_V, rel=1e-4)


def test_ridgeless_chi_closed_form():
    # chi solves zeta^2 chi^2 + (psi zeta^2 - zeta^2 - 1) chi - psi = 0 with
    # psi = min(psi1, psi2), on the negative branch.
    for z, p1, p2 in [(1.0, 2.0, 3.0), (2.7519, 0.4, 0.9), (0.3, 5.0, 1.2)]:
        chi = ridgeless_chi(z, p1, p2)
        psi = min(p1, p2)
        res = z * chi * chi + (psi * z - z - 1.0) * chi - psi
        assert abs(res) <= 1e-12 * (1.0 + abs(chi) ** 2)
        assert chi < 0.0
        # symmetric in the shapes through min()
        assert chi == ridgeless_chi(z, p2, p1)


def test_ridgeless_interpolation_threshold_diverges():
    dec = risk_ridgeless(RELU_ZETA_SQ, 2.0, 2.0)
    assert dec.threshold_singular
    assert math.isinf(dec.bias_B) and math.isinf(dec.var_V)
    assert dec.risk_at(1.0) == INF


def test_ridgeless_vanishing_width():
    dec = risk_ridgeless(RELU_ZETA_SQ, 1e-6, 3.0)
    assert dec.bias_B == pytest.approx(1.0, abs=1e-3)
    assert dec.var_V <= 1e-3


def test_ridgeless_vanishing_zeta():
    # with no linear amplitude the spectrum decouples: chi -> -min(psi1, psi2)
    chi = ridgeless_chi(1e-6, 2.0, 3.0)
    assert chi == pytest.approx(-2.0, abs=1e-4)


def test_ridgeless_risk_decreasing_in_width_past_threshold():
    psi2 = 3.0
    grid = np.geomspace(1.02 * psi2, 100.0 * psi2, 30)
    for rho in (1.0, INF):
        vals = [risk_ridgeless(RELU_ZETA_SQ, p, psi2).risk_at(rho) for p in grid]
        assert np.all(np.diff(vals) < 0.0)


def test_wide_frozen_values():
    omega = wide_omega(RELU_ZETA_SQ, 10.0, 0.05)
    assert omega == pytest.approx(REF_WIDE_OMEGA, rel=1e-13)
    dec = risk_wide(RELU_ZETA_SQ, 10.0, 0.05)
    assert dec.bias_B == pytest.approx(REF_WIDE_B, rel=1e-12)
    assert dec.var_V == pytest.approx(REF_WIDE_V, rel=1e-12)
    # the closed forms carry no training factors
    target = TargetSpec(1.0)
    assert math.isnan(dec.train_error(target)) and math.isnan(dec.norm_msq(target))


def test_wide_matches_general_at_large_width():
    dec = risk_general(RELU_ZETA_SQ, 1e6, 3.0, 0.3)
    ref = risk_wide(RELU_ZETA_SQ, 3.0, 0.3)
    assert dec.bias_B == pytest.approx(ref.bias_B, rel=1e-3)
    assert dec.var_V == pytest.approx(ref.var_V, rel=1e-3)


def test_wide_large_penalty_kills_variance():
    dec = risk_wide(RELU_ZETA_SQ, 3.0, 1e6)
    assert dec.bias_B == pytest.approx(1.0, abs=1e-3)
    assert dec.var_V <= 1e-3


def test_large_sample_frozen_values():
    omega = wide_omega(1.0, 1.0, 1.0)
    assert omega == pytest.approx(REF_LSAMP_OMEGA, rel=1e-14)
    dec = risk_large_sample(1.0, 1.0, 1.0)
    assert dec.bias_B == pytest.approx(REF_LSAMP_B, rel=1e-12)
    assert dec.var_V == 0.0


def test_large_sample_matches_general_at_many_samples():
    dec = risk_general(RELU_ZETA_SQ, 2.0, 1e6, 0.5)
    ref = risk_large_sample(RELU_ZETA_SQ, 2.0, 0.5)
    assert dec.bias_B == pytest.approx(ref.bias_B, rel=1e-3)
    assert dec.var_V <= 1e-3


def test_large_sample_large_penalty_bias_to_one():
    dec = risk_large_sample(RELU_ZETA_SQ, 2.0, 1e6)
    assert dec.bias_B == pytest.approx(1.0, abs=1e-3)


def test_wide_omega_monotone_in_penalty():
    grid = np.geomspace(1e-6, 1e3, 200)
    vals = [wide_omega(RELU_ZETA_SQ, 3.0, lb) for lb in grid]
    assert np.all(np.diff(vals) > 0.0)
    assert all(v < 0.0 for v in vals)
    assert wide_omega(RELU_ZETA_SQ, 3.0, 0.0) < vals[0]


def test_wide_omega_validates_penalty():
    with pytest.raises(ValueError):
        wide_omega(1.0, 2.0, -0.1)
    with pytest.raises(ValueError):
        wide_omega(1.0, 2.0, math.inf)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: wide_omega(1.0, -3.0, 0.1), "psi"),
        (lambda: wide_omega(-1.0, 2.0, 0.1), "zeta_sq"),
        (lambda: wide_omega(math.nan, 2.0, 0.1), "zeta_sq"),
        (lambda: ridgeless_chi(1.0, -1.0, 2.0), "psi1"),
        (lambda: ridgeless_chi(1.0, 2.0, 0.0), "psi2"),
        (lambda: ridgeless_chi(math.nan, 2.0, 3.0), "zeta_sq"),
    ],
)
def test_closed_form_helpers_reject_bad_shapes(call, name):
    # a negative psi would otherwise pick the positive root, a nan pass through
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        call()


def test_wide_risk_reparametrization_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = float(rng.uniform(0.2, 5.0))
        psi2 = float(rng.uniform(0.3, 8.0))
        lb = float(10.0 ** rng.uniform(-4, 1))
        rho = float(10.0 ** rng.uniform(-1, 1))
        via_dec = risk_wide(z, psi2, lb).risk_at(rho)
        via_omega = wide_risk_in_omega(wide_omega(z, psi2, lb), rho, psi2)
        assert via_dec == pytest.approx(via_omega, rel=1e-10)


def test_phase_frozen_rho_star():
    for psi2 in (2.0, 10.0):
        ph = wide_phase(RELU_ZETA_SQ, psi2, 1.0)
        assert ph.rho_star == pytest.approx(REF_RHO_STAR, rel=1e-12)


def _reference_phase(zeta_sq, psi2, rho):
    """rho_star, zeta_star_sq and lambda_star as expressions in wide_phase's
    omega0 and omega1."""
    ph = wide_phase(zeta_sq, psi2, rho)
    w0, w1, z = ph.omega0, ph.omega1, zeta_sq
    return (
        (w0 * w0 - w0) / ((1.0 - psi2) * w0 + psi2),
        (w1 * w1 - w1) / ((1.0 - psi2) * w1 + psi2),
        (z * psi2 - z * w1 * psi2 + z * w1 + w1 - w1 * w1) / ((w1 * w1 - w1) * psi2),
    )


def test_phase_critical_identities():
    # omega0 and omega1 satisfy the same quadratic relation with zeta_sq and
    # rho, so rho_star = zeta_sq, zeta_star_sq = rho and lambda_star =
    # (zeta_sq - rho) / (rho psi2) are their expressions in the omegas, on
    # 1,000 log-uniform rows over 1e-1..1e1: rho_star and zeta_star_sq within
    # 1e-12 relative, lambda_star, which cancels near the boundary, within
    # 1e-12 of the size of its terms; the penalty vanishes at rho = rho_star
    rng = np.random.default_rng(16)
    for z, psi2, rho in (10.0 ** rng.uniform(-1.0, 1.0, (1000, 3))).tolist():
        ph = wide_phase(z, psi2, rho)
        rho_star, zeta_star_sq, lambda_star = _reference_phase(z, psi2, rho)
        assert ph.rho_star == pytest.approx(rho_star, rel=1e-12, abs=0.0)
        assert ph.zeta_star_sq == pytest.approx(zeta_star_sq, rel=1e-12, abs=0.0)
        assert abs(ph.lambda_star - lambda_star) <= 1e-12 * (z + rho) / (rho * psi2)

    ph = wide_phase(RELU_ZETA_SQ, 2.0, REF_RHO_STAR)
    assert ph.omega1 == pytest.approx(ph.omega0, rel=1e-8)
    assert abs(ph.lambda_star) <= 1e-10


def test_phase_sign_flips_at_rho_star():
    for psi2 in (2.0, 10.0):
        below = wide_phase(RELU_ZETA_SQ, psi2, 0.8 * REF_RHO_STAR)
        above = wide_phase(RELU_ZETA_SQ, psi2, 1.25 * REF_RHO_STAR)
        assert below.lambda_star > 0.0
        assert above.lambda_star < 0.0


def test_phase_omega1_is_stationary_point_of_wide_risk():
    rho = 0.5 * REF_RHO_STAR
    ph = wide_phase(RELU_ZETA_SQ, 2.0, rho)
    h = 1e-4 * abs(ph.omega1)
    r0 = wide_risk_in_omega(ph.omega1, rho, 2.0)
    assert wide_risk_in_omega(ph.omega1 + h, rho, 2.0) >= r0
    assert wide_risk_in_omega(ph.omega1 - h, rho, 2.0) >= r0


def test_phase_refuses_omegas_that_miss_their_quadratics(monkeypatch):
    original = rfridge.risk.wide_omega
    monkeypatch.setattr(rfridge.risk, "wide_omega", lambda *args: 1.01 * original(*args))
    with pytest.raises(InvariantViolation, match="^phase quadratic residuals too large: "):
        wide_phase(RELU_ZETA_SQ, 2.0, 2.0)


def test_phase_validates_rho():
    with pytest.raises(ValueError):
        wide_phase(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        wide_phase(1.0, 2.0, math.inf)


def test_optimal_lambda_interior_regime():
    rho = 0.5 * REF_RHO_STAR
    ph = wide_phase(RELU_ZETA_SQ, 2.0, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonUnimodalWarning)
        lb_opt, r_opt = optimal_lambda(rho, RELU_ZETA_SQ, 1e4, 2.0, 5.0)
    # at width 1e4 the finite-shape optimum sits within 1% of the wide limit
    assert lb_opt == pytest.approx(ph.lambda_star, rel=1e-2)
    rless = risk_ridgeless(RELU_ZETA_SQ, 1e4, 2.0).risk_at(rho)
    assert r_opt < rless - 1e-3


def test_optimal_lambda_boundary_regime():
    rho = 2.0 * REF_RHO_STAR
    lb_opt, r_opt = optimal_lambda(rho, RELU_ZETA_SQ, 1e4, 2.0, 5.0)
    assert lb_opt == 0.0
    rless = risk_ridgeless(RELU_ZETA_SQ, 1e4, 2.0).risk_at(rho)
    assert r_opt == pytest.approx(rless, rel=1e-12)


def _golden_reference(rho, zeta_sq, psi1, psi2, lambda_max):
    """optimal_lambda's answer by golden-section search over the best bracket
    of a 64-point log pre-scan, down to a 1e-9 wide bracket, and the
    pre-scan's best index."""
    def profile(lb):
        if lb <= 0.0:
            return risk_ridgeless(zeta_sq, psi1, psi2).risk_at(rho)
        return risk_general(zeta_sq, psi1, psi2, lb).risk_at(rho)

    grid = np.concatenate(([0.0], np.geomspace(lambda_max * 1e-6, lambda_max, 63)))
    values = [profile(lb) for lb in grid]
    best = int(np.argmin(values))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = profile(x1), profile(x2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = profile(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = profile(x2)
    return min([(grid[best], values[best]), (x1, f1), (x2, f2)], key=lambda t: t[1]), best


@pytest.mark.parametrize("rho, zeta_sq, psi1, psi2, lambda_max, bracket", [
    # the benchmark's point, below rho* = 2.75
    (2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0, "interior"),
    # below rho*, wide: the optimum approaches the wide-limit lambda_star
    (0.5 * REF_RHO_STAR, RELU_ZETA_SQ, 100.0, 2.0, 10.0, "interior"),
    # above rho*, still an interior optimum at small width
    (2.0 * REF_RHO_STAR, RELU_ZETA_SQ, 5.0, 2.0, 10.0, "interior"),
    # above rho*, wide: the interpolator (lambda_bar = 0) wins
    (2.0 * REF_RHO_STAR, RELU_ZETA_SQ, 100.0, 2.0, 10.0, "zero"),
    # above rho*: an optimum below the second grid point, bracket [0, grid[2]]
    (2.0 * REF_RHO_STAR, RELU_ZETA_SQ, 22.0, 2.0, 1e4, "touches zero"),
    (2.0 * REF_RHO_STAR, RELU_ZETA_SQ, 20.0, 2.0, 2e4, "touches zero"),
    # another activation and a wider penalty range
    (0.5, 0.5, 1.5, 3.0, 100.0, "interior"),
])
def test_optimal_lambda_matches_a_dense_golden_search(
        rho, zeta_sq, psi1, psi2, lambda_max, bracket, monkeypatch):
    (ref_lb, ref_r), best = _golden_reference(rho, zeta_sq, psi1, psi2, lambda_max)
    assert {0: "zero", 1: "touches zero"}.get(best, "interior") == bracket
    calls = []
    original = rfridge.risk.risk_general

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rfridge.risk, "risk_general", counting)
    lb_opt, r_opt = optimal_lambda(rho, zeta_sq, psi1, psi2, lambda_max)
    assert abs(lb_opt - ref_lb) <= 1e-6
    assert r_opt == pytest.approx(ref_r, rel=1e-12, abs=0.0)
    if bracket == "zero":
        assert lb_opt == 0.0
    # golden-section search took 30 risk_general calls; the stationary points
    # are solved in one batch and need none
    assert len(calls) <= 15


def test_optimal_lambda_ends_where_lambda_bar_is_beyond_1e6_resolution(monkeypatch):
    # almost pure noise: the optimum is near 1.8e13, where adjacent floats lie
    # 2e-3 apart, so a search that waits for a 1e-6 wide bracket never ends;
    # R is flat to rounding there
    calls = []
    original = rfridge.risk.risk_general

    def counting(*args):
        calls.append(args)
        assert len(calls) <= 100, "the search does not end"
        return original(*args)

    monkeypatch.setattr(rfridge.risk, "risk_general", counting)
    lb_opt, r_opt = optimal_lambda(1e-13, RELU_ZETA_SQ, 2.0, 3.0, 1e15)
    assert 1e13 < lb_opt < 1e15
    assert r_opt <= original(RELU_ZETA_SQ, 2.0, 3.0, 1e15).risk_at(1e-13)


def test_optimal_lambda_beside_the_interpolation_threshold():
    # rows with lambda_bar near 2e-9 fail to converge at this shape
    # (risk_general raises NoConvergence there); R has no stationary point
    # in (0, 1e-3) and falls toward lambda_max from the huge ridgeless R
    psi1, psi2 = 3.0, 3.0 * (1.0 + 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonUnimodalWarning)
        lb_opt, r_opt = optimal_lambda(2.0, RELU_ZETA_SQ, psi1, psi2, 1e-3)
    assert (lb_opt, r_opt) == (1e-3, risk_general(RELU_ZETA_SQ, psi1, psi2, 1e-3).risk_at(2.0))
    columns, errors = theory_columns(["general"] * 40, [RELU_ZETA_SQ] * 40, [psi1] * 40,
                                     [psi2] * 40, np.geomspace(1e-7, 1e-3, 40), [2.0] * 40)
    assert errors == {}
    profile = columns["risk_R"].tolist()
    assert all(b < a for a, b in zip(profile, profile[1:]))
    assert risk_ridgeless(RELU_ZETA_SQ, psi1, psi2).risk_at(2.0) > 1e8 > profile[0]


def test_optimal_lambda_counts_no_minimum_from_ridgeless_rounding():
    # the ridgeless closed form sits about 1e-14 below risk_general's values,
    # which are flat to rounding up to lambda_bar = 1e-7; R has no stationary
    # point in (0, 10), so lambda_max is the one minimum
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonUnimodalWarning)
        lb_opt, r_opt = optimal_lambda(2.0, 1000.0, 1000.0, 0.001, 10.0)
    assert (lb_opt, r_opt) == (10.0, risk_general(1000.0, 1000.0, 0.001, 10.0).risk_at(2.0))


def test_optimal_lambda_validates_lambda_max():
    with pytest.raises(ValueError):
        optimal_lambda(1.0, 1.0, 2.0, 3.0, 0.0)


def test_lambda_bar_inverts_the_solved_chi():
    # optimal_lambda maps its stationary chi back through the quartic
    rng = np.random.default_rng(5)
    zeta_sq, psi1, psi2, lambda_bar = (
        np.exp(rng.uniform(math.log(lo), math.log(hi), 3000))
        for lo, hi in ((1e-2, 10.0), (1e-2, 1e3), (1e-2, 1e3), (1e-8, 1e4))
    )
    batch = _AxisBatch(np.array([zeta_sq, psi1, psi2, lambda_bar]).T)
    assert batch.point_errors == {} and batch.chi_errors == {}
    back = rfridge.risk._lambda_bar(batch.chi, zeta_sq, psi1, psi2)
    assert (np.abs(back - lambda_bar) <= 1e-10 * lambda_bar + 1e-12).all()


@pytest.mark.parametrize("rho, psi1, psi2, lambda_max, rows", [
    pytest.param(2.0, 2.0, 3.0, 10.0, 2, id="below-rho-star"),
    pytest.param(2.0 * REF_RHO_STAR, 2.0, 3.0, 10.0, 2, id="above-rho-star"),
    # no stationary point lies in (0, 1e-20): only lambda_max is solved, and
    # its R equals the ridgeless R to rounding, so lambda_bar = 0 wins
    pytest.param(6.0, 100.0, 2.0, 1e-20, 1, id="tiny-lambda-max"),
])
def test_optimal_lambda_solves_its_stationary_rows_in_one_batch(
        rho, psi1, psi2, lambda_max, rows, monkeypatch):
    # the stationary points come from a polynomial in chi; only they and
    # lambda_max are solved, as one batch
    batches = []
    original = rfridge.risk._AxisBatch

    def counting(rows):
        batches.append(len(rows))
        return original(rows)

    monkeypatch.setattr(rfridge.risk, "_AxisBatch", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnimodalWarning)
        lb_opt, r_opt = optimal_lambda(rho, RELU_ZETA_SQ, psi1, psi2, lambda_max)
    assert batches == [rows]
    if rows == 1:
        assert (lb_opt, r_opt) == (0.0, risk_ridgeless(RELU_ZETA_SQ, psi1, psi2).risk_at(rho))


def test_optimal_lambda_refuses_a_chi_the_solve_does_not_certify(monkeypatch):
    original = rfridge.risk._lambda_bar
    monkeypatch.setattr(rfridge.risk, "_lambda_bar", lambda *args: 1.01 * original(*args))
    with pytest.raises(InvariantViolation, match="certified chi = .* differs from the searched"):
        optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)


def test_optimal_lambda_refuses_an_unfactorable_s_by_name(monkeypatch):
    stacked = rfridge.risk._stacked_roots
    monkeypatch.setattr(rfridge.risk, "_stacked_roots", lambda polys: (
        stacked(polys)[0], np.ones(len(polys), dtype=bool)))
    with pytest.raises(ValueError) as info:
        optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)
    assert str(info.value) == (
        "the stationarity polynomial S overflowed its companion matrix at rho = 2.0, "
        f"zeta_sq = {RELU_ZETA_SQ!r}, psi1 = 2.0, psi2 = 3.0")


@pytest.mark.parametrize("args, expected", [
    # the Newton polish of S overflows its Horner sums
    ((49358894.074580714, 70180002241501.71, 4.94543321032133e-10, 5.981290050310234e+39, 10.0),
     (0.0, 0.999999979245684)),
    # a root of S maps back to a penalty through a denominator that underflows to 0
    ((1.886356317467773e-06, 4.0179456193230326e+49, 7.19459458935035e-51,
      1.4643014873229725e-91, 10.0), (0.0, 1.886352759134329e-06)),
], ids=["polish", "penalty"])
def test_optimal_lambda_does_not_warn_where_a_term_overflows(args, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_lambda(*args) == expected


def _flip_nu2(monkeypatch):
    """Solve every row, then move its nu2 to the lower half plane, which makes
    the residual's mass m, and so two training factors, negative."""
    original = rfridge.risk._AxisBatch

    def flipped(rows):
        batch = original(rows)
        batch.t2 = -batch.t2
        return batch

    monkeypatch.setattr(rfridge.risk, "_AxisBatch", flipped)


def test_negative_training_factors_are_an_invariant_violation(monkeypatch):
    _flip_nu2(monkeypatch)
    with pytest.raises(InvariantViolation) as info:
        risk_general(1.0, 2.0, 3.0, 0.1)
    assert re.fullmatch(r"negative training factors \(-[^,]+, -[^,]+, [^,]+, [^,]+\) at "
                        r"psi1=2\.0, psi2=3\.0, lambda_bar=0\.1", str(info.value))


def test_optimal_lambda_raises_a_stationary_rows_solve_error(monkeypatch):
    # every pair misses the map residual, so each row of the one batch fails to
    # converge: the error raised is that of the stationary row, at the optimum
    lb_opt, _ = optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)
    assert 0.0 < lb_opt < 10.0
    monkeypatch.setattr(rfridge.selfconsistent, "_residual", lambda t1, *rest: np.ones_like(t1))
    with pytest.raises(NoConvergence, match="best relative map residual 1.000e[+]00") as info:
        optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)
    assert info.value.xi == complex(0.0, math.sqrt(2.0 * 3.0 * lb_opt))


def test_optimal_lambda_raises_the_batchs_first_decomposition_error(monkeypatch):
    # every row solves and certifies, so the stationary row passes its checks;
    # then the first row's negative training factors are raised
    lb_opt, _ = optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)
    _flip_nu2(monkeypatch)
    with pytest.raises(InvariantViolation, match=re.escape(f"lambda_bar={lb_opt}") + "$"):
        optimal_lambda(2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)


def test_a_two_dip_profile_warns_once_and_returns_the_global_minimum(monkeypatch):
    # no seeded search has found a risk profile with two local minima, so one
    # is forced: a candidate at half the optimal penalty, and the ridgeless
    # endpoint read between the optimum's R and that candidate's
    args = (2.0, RELU_ZETA_SQ, 2.0, 3.0, 10.0)
    lb_opt, r_opt = optimal_lambda(*args)
    extra = solve_at(RELU_ZETA_SQ, 2.0, 3.0, 0.5 * lb_opt).chi.real
    r_extra = risk_general(RELU_ZETA_SQ, 2.0, 3.0, 0.5 * lb_opt).risk_at(2.0)
    assert r_extra > r_opt
    stationary = rfridge.risk._stationary_chis
    monkeypatch.setattr(RiskDecomposition, "risk_at", lambda self, rho: 0.5 * (r_opt + r_extra))
    # _stationary_chis can return a root twice; with every root, the optimum's
    # among them, returned twice the optimum must still count as a minimum
    for copies in (1, 2):
        monkeypatch.setattr(rfridge.risk, "_stationary_chis",
                            lambda *shape: np.append(np.tile(stationary(*shape), copies), extra))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert optimal_lambda(*args) == (lb_opt, r_opt)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [(
            NonUnimodalWarning,
            "risk profile has 2 local minima on [0, lambda_max]; "
            "the reported optimum is the global one",
            __file__,
        )]


@settings(max_examples=12, deadline=None)
@given(
    log_rho=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)),
    log_p1=st.floats(min_value=math.log(0.2), max_value=math.log(20.0)),
    log_p2=st.floats(min_value=math.log(0.2), max_value=math.log(20.0)),
    log_max=st.floats(min_value=0.0, max_value=math.log(1e3)),
)
@example(log_rho=math.log(10.0), log_z=math.log(0.2), log_p1=math.log(0.2),
         log_p2=math.log(0.2), log_max=math.log(1e3))
def test_optimal_lambda_agrees_with_golden_search(log_rho, log_z, log_p1, log_p2, log_max):
    shape = tuple(map(math.exp, (log_rho, log_z, log_p1, log_p2, log_max)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnimodalWarning)
        (ref_lb, ref_r), _ = _golden_reference(*shape)
        lb_opt, r_opt = optimal_lambda(*shape)
    assert r_opt == pytest.approx(ref_r, rel=1e-12, abs=0.0)
    # R is flat to rounding within about sqrt(eps) relative of its minimum,
    # so neither search pins lambda_bar down more closely than that
    assert abs(lb_opt - ref_lb) <= 1e-5 * (1.0 + ref_lb)


@settings(max_examples=25, deadline=None)
@given(
    log_z=st.floats(min_value=math.log(0.2), max_value=math.log(5.0)),
    log_p1=st.floats(min_value=math.log(0.2), max_value=math.log(8.0)),
    log_p2=st.floats(min_value=math.log(0.2), max_value=math.log(8.0)),
    log_lam=st.floats(min_value=math.log(1e-3), max_value=math.log(5.0)),
)
def test_decomposition_factors_nonnegative(log_z, log_p1, log_p2, log_lam):
    dec = risk_general(
        math.exp(log_z), math.exp(log_p1), math.exp(log_p2), math.exp(log_lam)
    )
    if not dec.threshold_singular:
        assert dec.bias_B > 0.0
        assert dec.var_V >= -1e-12
        lo, hi = sorted((dec.bias_B, dec.var_V))
        assert lo - 1e-12 <= dec.risk_at(1.0) <= hi + 1e-12


# |nu| ~ psi / |xi| is large at these points, so an absolute 1e-12 map residual
# would lie below rounding; the relative stop reaches them, and they equal the
# ridgeless closed form already.
@pytest.mark.parametrize("zeta_sq, psi1, psi2, ridgeless_R", [
    (1.0, 3.0, 1.0, 0.713525),
    (0.01, 1.0, 3.0, 0.992646),
])
def test_tiny_penalty_with_large_nu_reaches_the_ridgeless_risk(zeta_sq, psi1, psi2, ridgeless_R):
    dec = risk_general(zeta_sq, psi1, psi2, 1e-9)
    assert dec.risk_at(1.0) == pytest.approx(ridgeless_R, abs=1e-6)
    assert dec.risk_at(1.0) == pytest.approx(
        risk_ridgeless(zeta_sq, psi1, psi2).risk_at(1.0), rel=1e-6
    )


@pytest.mark.parametrize("psi1, psi2", [(2.0, 1e-13), (1e-14, 2.0)])
def test_tiny_shape_ratio_is_not_the_interpolation_threshold(psi1, psi2):
    # E0, E1 and E2 all scale with min(psi1, psi2), so only E0's own terms
    # tell whether it cancels; the limit of no samples or no features is
    # B = 1, V = 0, as at a shape ratio of 1e-11
    dec = risk_general(RELU_ZETA_SQ, psi1, psi2, 0.01)
    assert not dec.threshold_singular
    assert dec.bias_B == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= dec.var_V <= 1e-9
    assert dec.risk_at(2.0) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_huge_penalty_reaches_the_null_predictor():
    # at lambda_bar = 1e60 the quartic's coefficients span ~1e61 and eigvals
    # returns its tiny root as 0.0; Newton on the quartic restores chi ~ -1e-60
    dec = risk_general(RELU_ZETA_SQ, 2.0, 3.0, 1e60)
    assert dec.bias_B == pytest.approx(1.0, rel=1e-12)
    assert 0.0 <= dec.var_V <= 1e-12
    assert dec.risk_at(2.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


def _assert_first_order(limit, general, near, far):
    """B and V close on the limit linearly in lambda_bar, 1/psi1 or 1/psi2: a
    point 100x closer to it shrinks their relative gap 100x, down to rounding."""
    decs = general(near), general(far)
    for quantity in ("bias_B", "var_V"):
        target = getattr(limit, quantity)
        near_gap, far_gap = (
            abs(getattr(dec, quantity) - target) / max(1.0, abs(target)) for dec in decs
        )
        assert far_gap <= 0.02 * near_gap + 1e-11
        assert far_gap <= 1e-5


LOG_TENTH_TO_TEN = st.floats(min_value=math.log(0.1), max_value=math.log(10.0))
LOG_LAMBDA_BAR = st.floats(min_value=math.log(1e-3), max_value=math.log(10.0))


@settings(max_examples=40, deadline=None)
@given(
    log_z=LOG_TENTH_TO_TEN,
    log_p1=LOG_TENTH_TO_TEN,
    log_ratio=st.floats(min_value=math.log(1.5), max_value=math.log(10.0)),
    wider=st.booleans(),
)
def test_general_risk_tends_to_ridgeless_as_the_penalty_vanishes(log_z, log_p1, log_ratio, wider):
    # away from the interpolation threshold psi1 = psi2
    z, psi1 = math.exp(log_z), math.exp(log_p1)
    psi2 = psi1 * math.exp(-log_ratio if wider else log_ratio)
    _assert_first_order(risk_ridgeless(z, psi1, psi2),
                        lambda lb: risk_general(z, psi1, psi2, lb), 1e-6, 1e-8)


@settings(max_examples=40, deadline=None)
@given(log_z=LOG_TENTH_TO_TEN, log_p2=LOG_TENTH_TO_TEN, log_lam=LOG_LAMBDA_BAR)
def test_general_risk_tends_to_the_wide_limit(log_z, log_p2, log_lam):
    z, psi2, lb = math.exp(log_z), math.exp(log_p2), math.exp(log_lam)
    _assert_first_order(risk_wide(z, psi2, lb),
                        lambda psi1: risk_general(z, psi1, psi2, lb), 1e5, 1e7)


@settings(max_examples=40, deadline=None)
@given(log_z=LOG_TENTH_TO_TEN, log_p1=LOG_TENTH_TO_TEN, log_lam=LOG_LAMBDA_BAR)
def test_general_risk_tends_to_the_large_sample_limit(log_z, log_p1, log_lam):
    z, psi1, lb = math.exp(log_z), math.exp(log_p1), math.exp(log_lam)
    _assert_first_order(risk_large_sample(z, psi1, lb),
                        lambda psi2: risk_general(z, psi1, psi2, lb), 1e5, 1e7)


# (variant, zeta_sq, psi1, psi2, lambda_bar, rho): every formula, with rho nan,
# finite and inf, and rows that fail validation, the solve, the closed form,
# the overflow rule, rho's validation and, with powers, at the threshold
THEORY_TABLE = [
    ("general", RELU_ZETA_SQ, 2.0, 3.0, 0.01, 2.0),
    ("general", 1.0, 2.0, 3.0, 0.1, math.nan),
    ("ridgeless", RELU_ZETA_SQ, 2.0, 3.0, math.nan, 2.0),
    ("ridgeless", RELU_ZETA_SQ, 3.0, 3.0, math.nan, INF),
    ("wide", RELU_ZETA_SQ, math.nan, 3.0, 0.01, 0.5),
    ("wide", RELU_ZETA_SQ, math.nan, 3.0, 0.0, 2.0),
    ("lsamp", RELU_ZETA_SQ, 3.0, math.nan, 0.01, math.nan),
    ("lsamp", 1.0, 1.0, math.nan, 1.0, INF),
    # N = n: E0 cancels with finite terms, a threshold row
    ("general", 16441957.981804013, 0.08198621106232101, 0.08198621106232101, 1e-30, 1.0),
    ("general", RELU_ZETA_SQ, 3.0, 3.0, 1e-12, INF),
    ("general", 1e97, 1e64, 1.0, 1e-5, 2.0),
    ("general", RELU_ZETA_SQ, -1.0, 3.0, 0.01, 2.0),
    ("general", RELU_ZETA_SQ, 2.0, 3.0, 0.01, -1.0),
    ("ridgeless", 1e104, 2.0, 3.0, math.nan, 2.0),
    ("ridgeless", RELU_ZETA_SQ, 2.0, 0.0, math.nan, 2.0),
    ("wide", 1e200, math.nan, 3.0, 0.01, 2.0),
    ("wide", RELU_ZETA_SQ, math.nan, 3.0, 0.01, -1.0),
    ("wide", RELU_ZETA_SQ, math.nan, 3.0, -1.0, 2.0),
    ("lsamp", 1e120, 3.0, math.nan, 0.01, math.nan),
    ("lsamp", math.nan, 3.0, math.nan, 0.01, 2.0),
]


# The closed forms one row at a time in Python floats, as the scalar
# risk_ridgeless computed them before it became a batch of one, and as
# risk_wide and risk_large_sample compute them: the per-row reference of
# theory_columns' closed-form rows.

def _reference_finite_terms(terms, quantity, **row):
    """The floats terms() returns, each finite; where one is not, or a Python
    float power overflows (OverflowError), the row's overflow error."""
    try:
        values = terms()
    except OverflowError:
        values = (math.nan,)
    if all(map(math.isfinite, values)):
        return values
    raise rfridge.risk._overflow(quantity, **row)


def _reference_negative_root(a, b, c):
    """The negative root of a w^2 + b w + c (a > 0 > c): 2c / (sqrt(D) - b)
    where b < 0 and the discriminant D is finite, else (-b - sqrt(D)) / 2a."""
    d = math.sqrt(b * b - 4.0 * a * c)
    return 2.0 * c / (d - b) if b < 0.0 and d < INF else (-b - d) / (2.0 * a)


def _reference_ridgeless(zeta_sq, psi1, psi2):
    """risk_ridgeless: B = E1/E0 and V = E2/E0 at the ridgeless chi, or the
    threshold where E0 vanishes; an overflow off the threshold is refused."""
    require_positive(zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
    psi = min(psi1, psi2)
    chi = _reference_negative_root(zeta_sq, psi * zeta_sq - zeta_sq - 1.0, -psi)
    e0, e1, e2, size = rfridge.risk._e_polynomials(chi, zeta_sq, psi1, psi2)
    if rfridge.risk._e0_vanishes(e0, size):
        return RiskDecomposition(INF, INF, math.nan, math.nan, math.nan, math.nan, True)
    with np.errstate(all="ignore"):
        bias, var = np.divide((e1, e2), e0).tolist()
    if not np.isfinite((e0, e1, e2, bias, var)).all():
        raise rfridge.risk._overflow(f"the decomposition at chi = {chi!r}",
                                     zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
    return RiskDecomposition(bias, var, math.nan, math.nan, math.nan, math.nan)


def _reference_omega(zeta_sq, psi, lambda_bar):
    """wide_omega: the negative root of the limits' quadratic in omega."""
    if not (math.isfinite(lambda_bar) and lambda_bar >= 0.0):
        raise ValueError(f"lambda_bar must be finite and >= 0, got {lambda_bar}")
    a = lambda_bar * psi + 1.0
    b = psi * zeta_sq - zeta_sq - lambda_bar * psi - 1.0
    return _reference_negative_root(a, b, -psi * zeta_sq)


def _reference_denominator(omega, psi):
    return (psi - 1.0) * omega**3 + (1.0 - 3.0 * psi) * omega**2 + 3.0 * psi * omega - psi


def _reference_wide(zeta_sq, psi2, lambda_bar):
    """risk_wide: an overflow is refused by name, and a zero V is +0.0."""
    require_positive(zeta_sq=zeta_sq, psi2=psi2)
    omega = _reference_omega(zeta_sq, psi2, lambda_bar)
    den, bias_num, var_num = _reference_finite_terms(
        lambda: (_reference_denominator(omega, psi2), psi2 * omega - psi2, omega**3 - omega**2),
        "the wide-limit decomposition", zeta_sq=zeta_sq, psi2=psi2, lambda_bar=lambda_bar)
    var = var_num / den
    return RiskDecomposition(bias_num / den, 0.0 if var == 0.0 else var, *[math.nan] * 4)


def _reference_large_sample(zeta_sq, psi1, lambda_bar):
    """risk_large_sample: V is 0, and an overflow is refused as in risk_wide."""
    require_positive(zeta_sq=zeta_sq, psi1=psi1)
    omega = _reference_omega(zeta_sq, psi1, lambda_bar)
    den, num = _reference_finite_terms(
        lambda: (_reference_denominator(omega, psi1),
                 (omega**3 - omega**2) / zeta_sq + psi1 * omega - psi1),
        "the large-sample decomposition", zeta_sq=zeta_sq, psi1=psi1, lambda_bar=lambda_bar)
    return RiskDecomposition(num / den, 0.0, *[math.nan] * 4)


def _single_call(variant, zeta_sq, psi1, psi2, lambda_bar):
    calls = {"general": (risk_general, zeta_sq, psi1, psi2, lambda_bar),
             "ridgeless": (_reference_ridgeless, zeta_sq, psi1, psi2),
             "wide": (_reference_wide, zeta_sq, psi2, lambda_bar),
             "lsamp": (_reference_large_sample, zeta_sq, psi1, lambda_bar)}
    return attempt(*calls[variant])


def _closed_form_box(seed, rows):
    """rows log-uniform rows per closed form over 1e-160..1e160, each with the
    parameters its variant takes (nan elsewhere) and rho from a few values;
    the first tenth of the ridgeless rows have psi1 = psi2."""
    rng = np.random.default_rng(seed)
    zeta_sq, psi1, psi2, lambda_bar = 10.0 ** rng.uniform(-160.0, 160.0, (4, 3 * rows))
    psi1[:rows // 10] = psi2[:rows // 10]
    lambda_bar[:rows] = math.nan
    psi1[rows:2 * rows] = math.nan
    psi2[2 * rows:] = math.nan
    variant = ["ridgeless"] * rows + ["wide"] * rows + ["lsamp"] * rows
    rho = rng.choice([math.nan, 0.5, 2.0, INF], 3 * rows)
    return list(zip(variant, *(c.tolist() for c in (zeta_sq, psi1, psi2, lambda_bar, rho))))


def _assert_rows_are_single_calls(table, powers) -> set:
    """Each general row of theory_columns' table is risk_general's and each
    closed-form row the per-row reference's, cell by cell bitwise and error
    by error; returns the names of the errors' types."""
    columns, errors = theory_columns(*zip(*table), powers)
    expected = {}
    for k, (variant, *row, rho) in enumerate(table):
        dec = _single_call(variant, *row)
        cells = {} if isinstance(dec, Exception) else {"bias_B": dec.bias_B, "var_V": dec.var_V}
        if cells and not math.isnan(rho):
            cells["risk_R"] = attempt(dec.risk_at, rho)
        if cells and powers is not None:
            cells["test_error"] = dec.test_error(powers)
            general = variant == "general"
            cells["train_error"] = attempt(dec.train_error, powers) if general else math.nan
            cells["norm_msq"] = attempt(dec.norm_msq, powers) if general else math.nan
        # the closed form's, else rho's, else the threshold's training error
        failure = next((v for v in [dec, *cells.values()] if isinstance(v, Exception)), None)
        if failure is not None:
            expected[k] = failure
            continue
        for name, value in cells.items():
            assert repr(columns[name][k].item()) == repr(value), (k, name)
    assert sorted(errors) == sorted(expected)
    for k, error in expected.items():
        assert (type(errors[k]), str(errors[k])) == (type(error), str(error)), k
    assert set(columns) == {"bias_B", "var_V", "risk_R"} | (
        {"test_error", "train_error", "norm_msq"} if powers else set())
    # a row without an error at psi1 = psi2 (the box's first rows) at the threshold
    assert table is THEORY_TABLE or any(
        columns["bias_B"][k] == INF for k in range(100) if k not in expected)
    assert {row[0] for k, row in enumerate(table) if k not in expected} >= {
        "ridgeless", "wide", "lsamp"}
    return {type(e).__name__ for e in expected.values()}


@pytest.mark.parametrize("powers", [None, TargetSpec(1.0, fstar_sq=0.2, tau_sq=0.5)])
def test_theory_columns_are_each_rows_single_calls(powers):
    kinds = _assert_rows_are_single_calls(THEORY_TABLE, powers)
    assert kinds >= {"NoConvergence", "ValueError"} | (
        {"ThresholdSingularity"} if powers else set())


@pytest.mark.parametrize("powers", [None, TargetSpec(1.0, fstar_sq=0.2, tau_sq=0.5)])
def test_theory_columns_of_a_closed_form_box_are_the_reference_rows(powers):
    # each closed form keeps and refuses rows, and psi1 = psi2 reaches the threshold
    kinds = _assert_rows_are_single_calls(_closed_form_box(31, 1000), powers)
    assert kinds == {"ValueError"}


def _mp_negative_root(a, b, c):
    """The negative root of a w^2 + b w + c (a > 0 > c) at mpmath's working
    precision, in the form that does not cancel at b's sign."""
    d = mpmath.sqrt(b * b - 4 * a * c)
    return 2 * c / (d - b) if b < 0 else (-b - d) / (2 * a)


def test_closed_forms_at_a_tiny_psi_match_60_digits():
    # the rows of the closed-form box whose denominator, about -psi, an
    # absolute floor 1e-12 (1 + |numerators|) refused as vanishing: each is
    # kept, and B and V are those of the same closed form at 60 digits, with
    # omega from its quadratic, to 1e-12 of |B| + |V|
    mpmath.mp.dps = 60
    floored = collections.Counter()
    for variant, zeta_sq, psi1, psi2, lambda_bar, _ in _closed_form_box(31, 1000)[1000:]:
        wide = variant == "wide"
        psi = psi2 if wide else psi1
        try:
            omega = _reference_omega(zeta_sq, psi, lambda_bar)
            den = _reference_denominator(omega, psi)
            cubic = omega**3 - omega**2
        except OverflowError:
            continue
        nums = (psi * omega - psi, cubic) if wide else (cubic / zeta_sq + psi * omega - psi, 0.0)
        if not (math.isfinite(den) and abs(den) < 1e-12 * (1.0 + sum(map(abs, nums)))):
            continue
        floored[variant] += 1
        dec = (risk_wide if wide else risk_large_sample)(zeta_sq, psi, lambda_bar)
        z, p, lb = map(mpmath.mpf, (zeta_sq, psi, lambda_bar))
        w = _mp_negative_root(lb * p + 1, p * z - z - lb * p - 1, -p * z)
        den = (p - 1) * w**3 + (1 - 3 * p) * w**2 + 3 * p * w - p
        bias = ((p * w - p) if wide else ((w**3 - w**2) / z + p * w - p)) / den
        var = (w**3 - w**2) / den if wide else 0
        error = abs(dec.bias_B - bias) + abs(dec.var_V - var)
        assert error <= 1e-12 * (abs(bias) + abs(var)), (variant, zeta_sq, psi, lambda_bar)
    assert floored == {"wide": 451, "lsamp": 439}


def test_the_limits_denominator_is_negative_far_from_cancellation():
    # _limit_decomposition's den = (1 + a)^3 (x^2 - psi) < 0 with a = -omega:
    # on seeded log-uniform rows (every tenth penalty 0) whose terms are
    # finite, den is negative and at least 0.3 of the sum of its terms' sizes
    rng = np.random.default_rng(11)
    n = 250_000
    zeta_sq = 10.0 ** rng.uniform(-30.0, 30.0, n)
    psi = 10.0 ** rng.uniform(-160.0, 160.0, n)
    lambda_bar = 10.0 ** rng.uniform(-300.0, 300.0, n)
    lambda_bar[::10] = 0.0
    with np.errstate(all="ignore"):
        omega = rfridge.risk._negative_root(lambda_bar * psi + 1.0,
                                            psi * zeta_sq - zeta_sq - lambda_bar * psi - 1.0,
                                            -psi * zeta_sq)
        terms = ((psi - 1.0) * omega**3, (1.0 - 3.0 * psi) * omega**2, 3.0 * psi * omega, -psi)
        den = terms[0] + terms[1] + terms[2] + terms[3]
        size = sum(map(np.abs, terms))
    finite = np.isfinite(den) & np.isfinite(size)
    assert finite.sum() > 150_000
    assert (den[finite] < 0.0).all()
    assert (np.abs(den[finite]) >= 0.3 * size[finite]).all()


def test_closed_form_roots_at_a_tiny_psi_match_80_digits():
    # ridgeless_chi, wide_omega and wide_phase's omega0 and omega1 are the
    # negative roots of quadratics whose b is negative at psi < 1, where
    # -b - sqrt(b^2 - 4ac) cancels: on 2,000 rows with psi log-uniform over
    # 1e-30..1 and the rest over 1e-6..1e6 (every tenth penalty 0), each is
    # within 2e-15 relative of the root at 80 digits
    mpmath.mp.dps = 80
    rng = np.random.default_rng(3)
    zeta_sq, lambda_bar, other = 10.0 ** rng.uniform(-6.0, 6.0, (3, 2000))
    psi = 10.0 ** rng.uniform(-30.0, 0.0, 2000)
    lambda_bar[::10] = 0.0
    for row in zip(*(v.tolist() for v in (zeta_sq, psi, lambda_bar, other))):
        z, p, lb, o = row
        Z, P, L, O = map(mpmath.mpf, row)
        phase = wide_phase(z, p, o)
        for got, root in (
            (wide_omega(z, p, lb), _mp_negative_root(L * P + 1, P * Z - Z - L * P - 1, -P * Z)),
            (ridgeless_chi(z, p, o), _mp_negative_root(Z, min(P, O) * Z - Z - 1, -min(P, O))),
            (phase.omega0, _mp_negative_root(1, P * Z - Z - 1, -P * Z)),
            (phase.omega1, _mp_negative_root(1, P * O - O - 1, -P * O)),
        ):
            assert abs(got - root) <= 2e-15 * abs(root), row


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(len(THEORY_TABLE))), with_powers=st.booleans())
def test_theory_columns_of_a_shuffled_table_are_its_shuffled_columns(order, with_powers):
    # a row's cells and error do not depend on where the other variants' rows sit
    powers = TargetSpec(1.0, fstar_sq=0.2, tau_sq=0.5) if with_powers else None
    columns, errors = theory_columns(*zip(*THEORY_TABLE), powers)
    shuffled, moved = theory_columns(*zip(*(THEORY_TABLE[k] for k in order)), powers)
    assert list(shuffled) == list(columns)
    for name, column in columns.items():
        assert repr(shuffled[name].tolist()) == repr(column[order].tolist()), name
    assert sorted(moved) == [j for j, k in enumerate(order) if k in errors]
    for j, error in moved.items():
        assert (type(error), str(error)) == (type(errors[order[j]]), str(errors[order[j]])), j


def test_theory_columns_refuses_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown theory variant 'wild'"):
        theory_columns(["wild"], [1.0], [2.0], [3.0], [0.01], [2.0])


def _box(seed, lo, hi, n):
    rng = np.random.default_rng(seed)
    return [10.0 ** rng.uniform(lo, hi, n) for _ in range(4)]


def _pinned_box():
    # psi1 = 1 and psi2 = 1 on two blocks of rows, across 320 decades
    zeta_sq, psi1, psi2, lambda_bar = _box(3, -160.0, 160.0, 4000)
    psi1[:400] = 1.0
    psi2[400:800] = 1.0
    return zeta_sq, psi1, psi2, lambda_bar


@pytest.mark.parametrize("columns", [_box(12, -100.0, 100.0, 3000), _pinned_box()],
                         ids=["box-1e100", "box-1e160-pinned"])
def test_an_overflowing_row_is_refused_never_silent(columns):
    # a row off the threshold has finite factors, and a threshold row has a
    # finite E0 and term size: an overflow is a ValueError naming the row
    rows = np.array(columns).T.tolist()
    risks = rfridge.risk._RiskColumns(rows)
    overflowed = 0
    for k, row in enumerate(rows):
        error = risks.errors.get(k)
        if isinstance(error, ValueError) and "overflowed the float range" in str(error):
            overflowed += 1
        if error is not None:
            continue
        if risks.threshold[k]:
            with np.errstate(all="ignore"):
                e0, _, _, size = rfridge.risk._e_polynomials(risks.chi[k], *row[:3])
            assert math.isfinite(e0) and math.isfinite(size), row
        else:
            assert np.isfinite(risks.factors[k]).all(), row
    assert overflowed > 0


@pytest.mark.parametrize("call, args, message", [
    (risk_ridgeless, (1e104, 2.0, 3.0),
     "the decomposition at chi = -1.0 overflowed the float range at zeta_sq = 1e+104, "
     "psi1 = 2.0, psi2 = 3.0"),
    (risk_wide, (1e200, 3.0, 0.01),
     "the wide-limit decomposition overflowed the float range at zeta_sq = 1e+200, "
     "psi2 = 3.0, lambda_bar = 0.01"),
    # omega**3 raises OverflowError in Python's float power, not inf
    (risk_wide, (1e120, 3.0, 0.01),
     "the wide-limit decomposition overflowed the float range at zeta_sq = 1e+120, "
     "psi2 = 3.0, lambda_bar = 0.01"),
    (risk_large_sample, (1e120, 3.0, 0.01),
     "the large-sample decomposition overflowed the float range at zeta_sq = 1e+120, "
     "psi1 = 3.0, lambda_bar = 0.01"),
    (wide_phase, (1e200, 3.0, 2.0),
     "the phase quantities overflowed the float range at zeta_sq = 1e+200, psi2 = 3.0, "
     "rho = 2.0"),
    (optimal_lambda, (2.0, 1e60, 2.0, 3.0, 10.0),
     "the stationarity polynomial S overflowed the float range at rho = 2.0, "
     "zeta_sq = 1e+60, psi1 = 2.0, psi2 = 3.0"),
    # S is finite, but its coefficients over the leading one are not
    (optimal_lambda, (9607612922.43606, 1.4916215572159867e-53, 6.7695822045027344e+50,
                      3.180504919876717e+34, 10.0),
     "the stationarity polynomial S overflowed its companion matrix at rho = 9607612922.43606, "
     "zeta_sq = 1.4916215572159867e-53, psi1 = 6.7695822045027344e+50, "
     "psi2 = 3.180504919876717e+34"),
], ids=["ridgeless", "wide", "wide-power", "lsamp-power", "phase", "optimal-lambda",
        "optimal-lambda-companion"])
def test_closed_forms_refuse_an_overflow_by_name(call, args, message):
    # the same words whether the arguments are Python floats or the numpy
    # scalars that hold them
    for given in (args, [np.float64(v) for v in args]):
        with pytest.raises(ValueError) as info:
            call(*given)
        assert str(info.value) == message
