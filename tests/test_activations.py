"""Hermite statistics: closed forms, quadrature certification, degeneracy guards."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfridge.activations import (
    Activation,
    DegenerateActivation,
    QuadratureFailure,
    hermite_stats,
    normal_expectation,
)

# Closed-form ReLU moments under a standard Gaussian input.
RELU_MU0 = 1.0 / math.sqrt(2.0 * math.pi)
RELU_MU1 = 0.5
RELU_MU_STAR_SQ = (math.pi - 2.0) / (4.0 * math.pi)
RELU_ZETA_SQ = math.pi / (math.pi - 2.0)


def test_relu_closed_form_values():
    stats = hermite_stats(Activation.relu())
    assert stats.mu0 == pytest.approx(RELU_MU0, abs=1e-15)
    assert stats.mu1 == pytest.approx(RELU_MU1, abs=1e-15)
    assert stats.mu_star_sq == pytest.approx(RELU_MU_STAR_SQ, abs=1e-15)
    assert stats.zeta_sq == pytest.approx(RELU_ZETA_SQ, rel=1e-14)
    assert stats.zeta == pytest.approx(math.sqrt(RELU_ZETA_SQ), rel=1e-14)
    assert stats.mu_star == pytest.approx(math.sqrt(RELU_MU_STAR_SQ), rel=1e-14)


def test_relu_quadrature_matches_closed_form():
    # Bypass the closed-form shortcut by wrapping ReLU as a custom activation.
    act = Activation.custom(lambda u: np.maximum(u, 0.0), breakpoints=(0.0,))
    stats = hermite_stats(act)
    assert stats.mu0 == pytest.approx(RELU_MU0, abs=1e-10)
    assert stats.mu1 == pytest.approx(RELU_MU1, abs=1e-10)
    assert stats.mu_star_sq == pytest.approx(RELU_MU_STAR_SQ, abs=1e-10)
    assert stats.quadrature_gap is not None and stats.quadrature_gap <= 1e-8


def test_kinked_custom_without_breakpoints_fails_certification():
    # the window is cut at 0 when no breakpoint is given, so the kink lies off it
    act = Activation.custom(lambda u: np.maximum(u - 0.5, 0.0))
    with pytest.raises(QuadratureFailure):
        hermite_stats(act)


def test_shifted_relu_closed_forms():
    c = 0.7
    stats = hermite_stats(Activation.shifted_relu(c))
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    Phi = 0.5 * math.erfc(c / math.sqrt(2.0))
    mu0 = phi - c * Phi
    mu1 = Phi
    second = (1.0 + c * c) * Phi - c * phi
    assert stats.mu0 == pytest.approx(mu0, abs=1e-14)
    assert stats.mu1 == pytest.approx(mu1, abs=1e-14)
    assert stats.mu_star_sq == pytest.approx(second - mu0**2 - mu1**2, abs=1e-14)

    # Quadrature must reproduce the same numbers once the kink is declared.
    quad = hermite_stats(
        Activation.custom(lambda u: np.maximum(u - c, 0.0), breakpoints=(c,))
    )
    assert quad.mu0 == pytest.approx(stats.mu0, abs=1e-12)
    assert quad.mu1 == pytest.approx(stats.mu1, abs=1e-12)
    assert quad.mu_star_sq == pytest.approx(stats.mu_star_sq, abs=1e-12)


def test_shifted_relu_at_zero_equals_relu():
    a = hermite_stats(Activation.shifted_relu(0.0))
    b = hermite_stats(Activation.relu())
    assert a.mu0 == pytest.approx(b.mu0, abs=1e-15)
    assert a.mu1 == pytest.approx(b.mu1, abs=1e-15)
    assert a.mu_star_sq == pytest.approx(b.mu_star_sq, abs=1e-15)


def test_identity_is_degenerate():
    with pytest.raises(DegenerateActivation):
        hermite_stats(Activation.identity())


def test_constant_custom_is_degenerate():
    act = Activation.custom(lambda u: np.ones_like(u))
    with pytest.raises(DegenerateActivation):
        hermite_stats(act)


def test_pure_linear_custom_is_degenerate():
    act = Activation.custom(lambda u: 3.0 * u + 1.0)
    with pytest.raises(DegenerateActivation):
        hermite_stats(act)


def test_stats_override_skips_quadrature():
    act = Activation.custom(lambda u: u, stats=(0.1, 0.5, 0.25))
    stats = hermite_stats(act)
    assert stats.mu0 == 0.1
    assert stats.mu1 == 0.5
    assert stats.mu_star_sq == 0.25
    assert stats.zeta_sq == pytest.approx(0.25 / 0.25, abs=1e-15)
    assert stats.quadrature_gap is None


def test_stats_override_still_validated():
    act = Activation.custom(lambda u: u, stats=(0.0, 0.0, 1.0))
    with pytest.raises(DegenerateActivation):
        hermite_stats(act)


@pytest.mark.parametrize("c, label", [
    (0.7, "shifted_relu:0.7"),
    (0.3, "shifted_relu:0.3"),
    (-2.0, "shifted_relu:-2"),
    (1e-300, "shifted_relu:1e-300"),
    # six significant digits would give 0.123457 and 1.23457e+06
    (0.1234567, "shifted_relu:0.1234567"),
    (0.1234568, "shifted_relu:0.1234568"),
    (1234567.0, "shifted_relu:1234567.0"),
    (0.1 + 0.2, "shifted_relu:0.30000000000000004"),
])
def test_a_shifted_relu_label_parses_back_to_its_shift(c, label):
    assert Activation.shifted_relu(c).label() == label
    assert float(label.split(":", 1)[1]) == c


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_shifted_relu_refuses_a_non_finite_shift(c):
    with pytest.raises(ValueError, match="shifted_relu needs a finite shift"):
        Activation.shifted_relu(c)


@pytest.mark.parametrize("stats, named", [
    ((math.nan, 0.5, 0.25), "mu0 = nan"),
    ((0.1, math.nan, 0.25), "mu1 = nan"),
    ((0.1, 0.5, math.inf), "mu_star_sq = inf"),
    # finite moments whose ratio mu1^2 / mu_star_sq overflows, and whose mu1 /
    # mu_star overflows too
    ((0.0, 1e200, 1.0), "zeta_sq = inf"),
    ((0.0, 1e305, 1e-9), "zeta_sq = inf"),
])
def test_non_finite_stats_are_refused_by_name(stats, named):
    act = Activation.custom(lambda u: u, stats=stats)
    with pytest.raises(ValueError, match=f"^activation moments are not finite: {named}$"):
        hermite_stats(act)


@pytest.mark.parametrize("breakpoints, named", [
    ((math.nan,), "breakpoint 1 is not finite: nan"),
    ((0.0, math.inf), "breakpoint 2 is not finite: inf"),
    ((-1.0, 0.0, -math.inf), "breakpoint 3 is not finite: -inf"),
])
def test_a_non_finite_breakpoint_is_refused_by_position(breakpoints, named):
    # the quadrature keeps only the breakpoints inside its window, so a nan
    # one would be dropped without a word
    with pytest.raises(ValueError, match=f"^custom activation {named}$"):
        Activation.custom(np.tanh, breakpoints=breakpoints)


def test_a_shifted_relu_whose_closed_form_overflows_is_refused():
    # the second moment is inf, so mu_star_sq = inf - inf
    with pytest.raises(ValueError, match="mu_star_sq = nan"):
        hermite_stats(Activation.shifted_relu(-1e300))


def test_quadrature_polynomial_exactness():
    # the split rule with 64 nodes per piece integrates low-degree polynomials exactly.
    assert normal_expectation(lambda u: np.ones_like(u)) == pytest.approx(1.0, abs=1e-14)
    assert normal_expectation(lambda u: u) == pytest.approx(0.0, abs=1e-14)
    assert normal_expectation(lambda u: u * u) == pytest.approx(1.0, abs=1e-13)
    assert normal_expectation(lambda u: u**4) == pytest.approx(3.0, abs=1e-12)


def test_piecewise_quadrature_handles_kink():
    val = normal_expectation(
        lambda u: np.abs(u), order=64, breakpoints=(0.0,)
    )
    assert val == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-13)


@pytest.mark.parametrize("fn, breakpoints", [
    pytest.param(np.tanh, (), id="tanh"),
    pytest.param(lambda u: np.abs(u - 0.7) + u, (0.7,), id="kink"),
    pytest.param(np.sin, (), id="sin"),
])
@pytest.mark.parametrize("order", [64, 256, 1024])
def test_a_stacked_integrand_sums_each_row_as_a_lone_call(fn, breakpoints, order):
    lone = [normal_expectation(g, order, breakpoints)
            for g in (fn, lambda u: u * fn(u), lambda u: fn(u) ** 2)]
    stacked = normal_expectation(lambda u: (fn(u), u * fn(u), fn(u) ** 2), order, breakpoints)
    assert all(type(m) is float for m in lone)
    assert stacked.shape == (3,)
    assert stacked.tolist() == lone


@pytest.mark.parametrize("breakpoints, pieces", [((), 2), ((0.7,), 2), ((-1.0, 1.0), 3)])
def test_a_certified_custom_activation_builds_one_rule_per_order(breakpoints, pieces,
                                                                  monkeypatch):
    # one rule and one evaluation of sigma per piece give all three moments at
    # the order and at its doubling; sigma runs once more at the window edge
    orders, calls = [], []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda order: orders.append(order) or leggauss(order))
    stats = hermite_stats(
        Activation.custom(lambda u: calls.append(np.size(u)) or np.tanh(u), breakpoints))
    assert stats.quadrature_gap <= 1e-8
    assert orders == [64, 128]
    assert calls == [64] * pieces + [128] * pieces + [2]


def test_smooth_custom_activation_tanh():
    stats = hermite_stats(Activation.custom(np.tanh))
    # E[G tanh(G)] > 0 and the residual variance is strictly positive.
    assert stats.mu0 == pytest.approx(0.0, abs=1e-12)
    assert 0.6 < stats.mu1 < 0.61
    assert stats.mu_star_sq > 0.01
    assert stats.quadrature_gap is not None and stats.quadrature_gap <= 1e-8


def test_activation_call_shapes():
    act = Activation.relu()
    x = np.array([[-1.0, 2.0], [0.5, -0.25]])
    out = act(x)
    assert out.shape == x.shape
    assert np.all(out == np.maximum(x, 0.0))

    # Scalar-only evaluators are handled through a vectorized fallback.
    scalar_act = Activation.custom(lambda u: math.tanh(u))
    out2 = scalar_act(x)
    assert out2.shape == x.shape
    assert out2[0, 1] == pytest.approx(math.tanh(2.0), abs=1e-15)


def _counting(fn):
    """fn, and the list of the arguments it has been called with."""
    calls = []

    def evaluate(u):
        calls.append(u)
        return fn(u)

    return evaluate, calls


def test_a_raising_evaluator_runs_once_more_on_one_scalar():
    def broken(u):
        if np.ndim(u):
            raise ValueError("evaluator is broken")
        raise TypeError("the scalar probe failed too")

    # the array call's error surfaces, not the probe's, after one scalar call
    evaluate, calls = _counting(broken)
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    with pytest.raises(ValueError, match="evaluator is broken"):
        Activation.custom(evaluate)(x)
    assert len(calls) == 2
    assert calls[0] is not None and np.shape(calls[0]) == x.shape
    assert np.ndim(calls[1]) == 0 and calls[1] == x[0, 0]


def test_a_scalar_only_evaluator_runs_pointwise():
    evaluate, calls = _counting(math.tanh)
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    out = Activation.custom(evaluate)(x)
    assert np.array_equal(out, np.vectorize(math.tanh)(x))
    # the array call that raised, the one-scalar probe, then every element
    assert len(calls) == 2 + x.size
    assert all(np.ndim(u) == 0 for u in calls[1:])


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.2, max_value=5.0),
    offset=st.floats(min_value=-2.0, max_value=2.0),
)
def test_affine_image_of_relu(scale, offset):
    # sigma(u) = a relu(u) + b shifts mu0 by b, scales mu1 and mu_star linearly.
    act = Activation.custom(
        lambda u: scale * np.maximum(u, 0.0) + offset, breakpoints=(0.0,)
    )
    stats = hermite_stats(act)
    assert stats.mu0 == pytest.approx(scale * RELU_MU0 + offset, rel=1e-9, abs=1e-9)
    assert stats.mu1 == pytest.approx(scale * RELU_MU1, rel=1e-9)
    assert stats.mu_star_sq == pytest.approx(scale**2 * RELU_MU_STAR_SQ, rel=1e-9)
    # zeta is invariant under positive rescaling.
    assert stats.zeta_sq == pytest.approx(RELU_ZETA_SQ, rel=1e-8)


def test_order_doubling_certificate_rejects_low_order():
    # tanh is smooth but the certificate still flags an under-resolved rule.
    with pytest.raises(QuadratureFailure):
        hermite_stats(Activation.custom(np.tanh), order=16)
    stats = hermite_stats(Activation.custom(np.tanh), order=128)
    assert stats.quadrature_gap is not None
    assert stats.quadrature_gap < 1e-12
    assert hermite_stats(Activation.relu()).quadrature_gap is None


@pytest.mark.parametrize("fn", [
    lambda u: np.tanh(2 * u), lambda u: np.tanh(5 * u), lambda u: 1 / (1 + np.exp(-(4 * u - 2))),
], ids=["tanh(2u)", "tanh(5u)", "sigmoid(4u-2)"])
def test_steep_smooth_activations_certify_at_the_default_order(fn):
    assert hermite_stats(Activation.custom(fn)).quadrature_gap <= 1e-8


def test_smooth_moments_match_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def moment(f):
        density = lambda u: f(u) * mpmath.exp(-u * u / 2) / mpmath.sqrt(2 * mpmath.pi)
        return mpmath.quad(density, [-mpmath.inf, -2, 0, 2, mpmath.inf])

    with mpmath.workdps(30):
        m0 = moment(mpmath.tanh)
        m1 = moment(lambda u: u * mpmath.tanh(u))
        m2 = moment(lambda u: mpmath.tanh(u) ** 2)
        mu_star_sq = m2 - m0**2 - m1**2
    stats = hermite_stats(Activation.custom(np.tanh))
    assert stats.mu0 == pytest.approx(float(m0), abs=1e-12)
    assert stats.mu1 == pytest.approx(float(m1), abs=1e-12)
    assert stats.mu_star_sq == pytest.approx(float(mu_star_sq), abs=1e-12)


@pytest.mark.parametrize("order", [186, 512])
def test_high_orders_certify(order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = hermite_stats(Activation.custom(lambda u: np.tanh(2.0 * u)), order=order)
    assert stats.quadrature_gap <= 1e-8
    assert stats.mu1 == pytest.approx(hermite_stats(
        Activation.custom(lambda u: np.tanh(2.0 * u))).mu1, abs=1e-12)


@pytest.mark.parametrize("breakpoints", [(), (0.0,)])
def test_an_integrand_alive_at_the_window_edge_fails_certification(breakpoints):
    # E[sigma(G)^2] = E[exp(G^2 / 2)] + ... is infinite, yet the moments the
    # window |u| <= 13 holds agree on doubling the order
    act = Activation.custom(lambda u: np.exp(u * u / 4) + u, breakpoints=breakpoints)
    with pytest.raises(QuadratureFailure, match=r"window edge \|u\| = 13"):
        hermite_stats(act)


def test_an_order_past_the_cap_is_refused_before_any_rule_is_built(monkeypatch):
    def leggauss(order):
        raise AssertionError(f"leggauss({order}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    with pytest.raises(ValueError, match="^order must be <= 1024, got 1025$"):
        hermite_stats(Activation.custom(np.tanh), order=1025)


@pytest.mark.parametrize("breakpoints", [(), (0.0,)])
def test_non_finite_moments_fail_certification(breakpoints):
    act = Activation.custom(lambda u: np.where(np.abs(u) > 8.0, np.inf, np.tanh(u)),
                            breakpoints=breakpoints)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="^moments are not finite at order 64 "):
            hermite_stats(act)
