"""Quartic solver and scalar quartic oracle: frozen values, invariants, agreement."""

import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfridge.selfconsistent
from rfridge.risk import ChiDisagreement, ridgeless_chi, theory_point
from rfridge.selfconsistent import (
    InconsistentChi,
    NoConvergence,
    RootSelectionAmbiguous,
    SingularDenominator,
    SpectralParams,
    chi_scalar_oracle,
    fixed_point_map,
    nu_from_chi,
    solve_at,
)

# Extended-precision references, frozen from a 50-digit evaluation of the
# same equations (damped iteration to 1e-40, root tracked over 4000 nodes).
MAP_REF = (0.1865381322013723j, 0.2895519742991764j)
CHI_TRACKED = -1.17092773058736536  # zeta_sq=2.7519, psi=(2,3), lambda_bar=0.01
CHI_PLAIN = -1.049821365663834615  # zeta_sq=1, psi=(2,3), lambda_bar=0.1

PARAMS_A = SpectralParams(zeta_sq=2.7519, psi1=2.0, psi2=3.0)


def _quartic(z, p1, p2, u_sq, chi):
    b1 = z * p1 - z - 1.0
    b2 = z * p2 - z - 1.0
    P1 = z * chi**2 + b1 * chi - p1
    P2 = z * chi**2 + b2 * chi - p2
    return P1 * P2 + u_sq * chi * (1.0 - z * chi) ** 2


def test_map_at_origin_matches_large_xi_asymptote():
    K = 10.0
    f1, f2 = fixed_point_map(0.0, 0.0, complex(0.0, K), PARAMS_A)
    assert f1 == pytest.approx(complex(0.0, PARAMS_A.psi1 / K), abs=1e-15)
    assert f2 == pytest.approx(complex(0.0, PARAMS_A.psi2 / K), abs=1e-15)


def test_map_frozen_pair():
    f1, f2 = fixed_point_map(0.1j, 0.2j, 10.0j, PARAMS_A)
    assert f1 == pytest.approx(MAP_REF[0], abs=1e-15)
    assert f2 == pytest.approx(MAP_REF[1], abs=1e-15)


def test_map_singular_denominator():
    params = SpectralParams(zeta_sq=1.0, psi1=2.0, psi2=3.0)
    with pytest.raises(SingularDenominator):
        fixed_point_map(1.0j, -1.0j * (1.0 - 1e-16), 10.0j, params)


def test_solve_at_residual_within_tolerance():
    point = solve_at(10.0j, PARAMS_A)
    assert point.residual <= 1e-12
    f1, f2 = fixed_point_map(point.nu1, point.nu2, 10.0j, PARAMS_A)
    assert abs(f1 - point.nu1) <= 1e-12
    assert abs(f2 - point.nu2) <= 1e-12
    assert point.nu1.imag > 0.0 and point.nu2.imag > 0.0


def test_solve_at_large_xi_asymptote():
    K = 1e6
    point = solve_at(complex(0.0, K), PARAMS_A)
    assert abs(complex(0.0, K) * point.nu1 + PARAMS_A.psi1) <= 1e-3
    assert abs(complex(0.0, K) * point.nu2 + PARAMS_A.psi2) <= 1e-3


def test_solve_at_symmetric_shapes_give_equal_components():
    params = SpectralParams(zeta_sq=1.7, psi1=2.5, psi2=2.5)
    point = solve_at(1.3j, params)
    assert abs(point.nu1 - point.nu2) <= 1e-12 * abs(point.nu1)


def test_solve_at_swap_symmetry():
    xi = 0.7j
    a = solve_at(xi, PARAMS_A)
    b = solve_at(xi, PARAMS_A.swapped())
    assert abs(a.nu1 - b.nu2) <= 1e-12 * abs(a.nu1)
    assert abs(a.nu2 - b.nu1) <= 1e-12 * abs(a.nu2)


def test_solve_at_chi_matches_tracked_reference():
    lam_bar = 0.01
    u = math.sqrt(PARAMS_A.psi1 * PARAMS_A.psi2 * lam_bar)
    point = solve_at(complex(0.0, u), PARAMS_A)
    assert point.chi.real == pytest.approx(CHI_TRACKED, rel=1e-9)
    assert abs(point.chi.imag) <= 1e-9


def test_solve_at_norm_bound_holds():
    for h in (0.3, 1.0, 30.0):
        point = solve_at(complex(0.0, h), PARAMS_A)
        assert abs(point.nu1) <= (1.0 + 1e-9) * PARAMS_A.psi1 / h
        assert abs(point.nu2) <= (1.0 + 1e-9) * PARAMS_A.psi2 / h


def test_solve_at_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        solve_at(complex(1.0, 0.0), PARAMS_A)
    with pytest.raises(ValueError):
        solve_at(-2.0j, PARAMS_A)


def _chi_50_digits(params, u):
    """chi at xi = i u from a 50-digit solve that never starts from solve_at's answer.

    With x = -chi and s = zeta^2 x / (1 + zeta^2 x) + x, the quartic over
    (1 + zeta^2 x)^2 reads h(x) = (psi1 - s)(psi2 - s) - u^2 x.  The pair
    nu_k = i (psi_k - s) / u lies in the upper half plane exactly when
    s < min(psi1, psi2), that is for x in (0, x_max); there both factors are
    positive and falling, so h falls from psi1 psi2 > 0 to -u^2 x_max < 0 and
    has exactly one root.  Bisection in log x brackets it within a factor 2,
    and Newton, kept inside the bracket, finishes it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z, p1, p2, u = (mpmath.mpf(v) for v in (params.zeta_sq, params.psi1, params.psi2, u))
        m = min(p1, p2)
        b = 1 + z - z * m
        # the positive root of s(x) = m, that is of z x^2 + b x - m = 0
        x_max = 2 * m / (b + mpmath.sqrt(b * b + 4 * z * m))

        def h(x):
            s = z * x / (1 + z * x) + x
            ds = z / (1 + z * x) ** 2 + 1
            return (p1 - s) * (p2 - s) - u * u * x, -ds * (p1 + p2 - 2 * s) - u * u

        lo, hi = x_max * mpmath.mpf(10) ** -250, x_max
        assert h(lo)[0] > 0
        while hi > 2 * lo:
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if h(mid)[0] > 0 else (lo, mid)
        x, eps = hi, mpmath.mpf(10) ** -25
        for _ in range(200):
            f, df = h(x)
            if f == 0 or hi - lo <= eps * hi:
                return float(-x)
            lo, hi = (x, hi) if f > 0 else (lo, x)
            step = f / df
            if abs(step) <= eps * x:
                return float(-(x - step))
            x = x - step if lo < x - step < hi else (lo + hi) / 2
        raise AssertionError("the 50-digit reference did not converge")


def test_theory_points_over_the_wide_box_match_50_digits():
    # zeta_sq in [1e-3, 1e3], psi1 and psi2 in [1e-14, 1e6] and lambda_bar in
    # [1e-12, 1e60], log-uniform: tiny components, tiny chi and quartic
    # coefficients spanning ~1e50, where a residual that is not relative to
    # |nu| cannot tell a wrong root from the right one
    box = np.log([[1e-3, 1e3], [1e-14, 1e6], [1e-14, 1e6], [1e-12, 1e60]])
    points = np.exp(np.random.default_rng(7).uniform(box[:, 0], box[:, 1], (1000, 4)))
    outcomes = collections.Counter()
    for z, p1, p2, lb in points.tolist():
        try:
            point = theory_point(z, p1, p2, lb)
        except (NoConvergence, RootSelectionAmbiguous, ChiDisagreement) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        ref = _chi_50_digits(SpectralParams(z, p1, p2), point.xi.imag)
        assert point.chi.real == pytest.approx(ref, rel=1e-13, abs=0.0), (z, p1, p2, lb)
        outcomes["solved"] += 1
    assert outcomes == {"solved": 1000}


def test_a_perturbed_quartic_coefficient_never_yields_a_different_point(monkeypatch):
    # a root of a wrong quartic gives a pair that fails the coupled map's
    # residual: it is rejected, never rescued, and never turns into a value
    xi = complex(0.0, math.sqrt(2.0 * 3.0 * 0.01))
    truth = solve_at(xi, PARAMS_A)
    coeffs = rfridge.selfconsistent._quartic_coeffs
    outcomes = collections.Counter()
    for index in range(5):
        for factor in (1.001, 2.0, -1.0, 0.0, 10.0, 1e-3):
            def perturbed(*args, index=index, factor=factor):
                row = coeffs(*args).copy()
                row[:, index] *= factor
                return row

            monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", perturbed)
            try:
                point = solve_at(xi, PARAMS_A)
            except NoConvergence:
                outcomes["NoConvergence"] += 1
                continue
            assert point.chi == pytest.approx(truth.chi, rel=1e-10), (index, factor)
            outcomes["unchanged"] += 1
    assert outcomes == {"NoConvergence": 30}


@pytest.mark.parametrize("fault", ["no admissible root", "two admissible roots",
                                   "residual misses tol"])
def test_direct_route_failures_raise_no_convergence(fault, monkeypatch):
    xi = complex(0.0, math.sqrt(2.0 * 3.0 * 0.01))
    residuals = []
    residual = rfridge.selfconsistent._residual

    def checked(*args):
        residuals.append(residual(*args))
        if fault == "residual misses tol":
            return 10.0 * rfridge.selfconsistent._TOL
        # a gate that passes every pair lets a second, distinct one through
        return 0.0 if fault == "two admissible roots" else residuals[-1]

    monkeypatch.setattr(rfridge.selfconsistent, "_residual", checked)
    if fault == "no admissible root":
        monkeypatch.setattr(rfridge.selfconsistent.np, "roots",
                            lambda coeffs: np.array([1.0 + 1.0j, 1.0 - 1.0j, 2.0, 3.0]))
    elif fault == "two admissible roots":
        # each root gains a copy 1e-6 relative away, as if polished short of it;
        # a copy made through np.roots would be polished back onto the root
        negative = rfridge.selfconsistent._negative_roots
        monkeypatch.setattr(rfridge.selfconsistent, "_negative_roots", lambda coeffs: [
            chi * f for f in (1.0, 1.0 + 1e-6) for chi in negative(coeffs)])
    with pytest.raises(NoConvergence, match="admissible quartic roots") as info:
        solve_at(xi, PARAMS_A)
    assert info.value.xi == xi
    assert len(residuals) == {"no admissible root": 0, "two admissible roots": 2}.get(fault, 1)


def test_duplicate_roots_polish_to_one_point(monkeypatch):
    xi = complex(0.0, math.sqrt(2.0 * 3.0 * 0.01))
    expected = solve_at(xi, PARAMS_A)
    roots = np.roots
    monkeypatch.setattr(rfridge.selfconsistent.np, "roots",
                        lambda coeffs: np.concatenate([roots(coeffs), roots(coeffs)]))
    assert solve_at(xi, PARAMS_A) == expected


def test_no_convergence_carries_xi(monkeypatch):
    # a quartic whose constant term has the wrong sign has no admissible root
    # whose pair solves the coupled map; the error names the count and residual
    coeffs = rfridge.selfconsistent._quartic_coeffs

    def flipped(*args):
        row = coeffs(*args).copy()
        row[:, 4] *= -1.0
        return row

    monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", flipped)
    xi = 0.4j
    with pytest.raises(NoConvergence, match=r"give 0 distinct checked points; "
                       r"best relative map residual") as info:
        solve_at(xi, PARAMS_A)
    assert info.value.xi == xi


def test_solve_at_solves_the_axis_and_rejects_other_xi():
    on_axis = solve_at(0.4j, PARAMS_A)
    assert on_axis.chi.real == pytest.approx(_chi_50_digits(PARAMS_A, 0.4), rel=1e-10, abs=0.0)
    with pytest.raises(ValueError, match="imaginary axis"):
        solve_at(0.1 + 0.4j, PARAMS_A)


def test_spectral_params_validation():
    with pytest.raises(ValueError):
        SpectralParams(zeta_sq=0.0, psi1=1.0, psi2=1.0)
    with pytest.raises(ValueError):
        SpectralParams(zeta_sq=1.0, psi1=-2.0, psi2=1.0)
    with pytest.raises(ValueError):
        SpectralParams(zeta_sq=1.0, psi1=1.0, psi2=math.inf)


def test_oracle_frozen_value_and_quartic_residual():
    params = SpectralParams(zeta_sq=1.0, psi1=2.0, psi2=3.0)
    chi = chi_scalar_oracle(params, 0.1)
    assert chi == pytest.approx(CHI_PLAIN, rel=1e-11)
    res = _quartic(1.0, 2.0, 3.0, 2.0 * 3.0 * 0.1, chi)
    assert abs(res) <= 1e-10 * max(1.0, abs(chi))


def test_oracle_tracks_through_coexisting_negative_roots():
    # At these parameters the quartic has two real negative roots, so the
    # sign filter alone cannot identify chi; the branch certificate does.
    lam_bar = 0.01
    z, p1, p2 = PARAMS_A.zeta_sq, PARAMS_A.psi1, PARAMS_A.psi2
    u_sq = p1 * p2 * lam_bar
    b1 = z * p1 - z - 1.0
    b2 = z * p2 - z - 1.0
    coeffs = [
        z * z,
        z * (b1 + b2) + u_sq * z * z,
        b1 * b2 - z * (p1 + p2) - 2.0 * u_sq * z,
        -b1 * p2 - b2 * p1 + u_sq,
        p1 * p2,
    ]
    roots = np.roots(coeffs)
    real_negative = sorted(
        r.real for r in roots if abs(r.imag) < 1e-9 and r.real < 0.0
    )
    assert len(real_negative) == 2

    chi = chi_scalar_oracle(PARAMS_A, lam_bar)
    assert chi == pytest.approx(CHI_TRACKED, rel=1e-11)
    assert chi == pytest.approx(real_negative[1], rel=1e-9)
    assert abs(chi - real_negative[0]) > 0.5


def test_oracle_large_lambda_drives_chi_to_zero_from_below():
    chi = chi_scalar_oracle(PARAMS_A, 1e8)
    assert -1e-6 < chi < 0.0


def test_oracle_small_lambda_approaches_ridgeless_root():
    for params in (PARAMS_A, SpectralParams(zeta_sq=1.0, psi1=0.5, psi2=4.0)):
        chi = chi_scalar_oracle(params, 1e-10)
        ref = ridgeless_chi(params.zeta_sq, params.psi1, params.psi2)
        assert chi == pytest.approx(ref, abs=1e-6)


def _path_start(params, u_target):
    """Start of a tracking path down to u_target: a decade above it, and high
    enough that chi sits on its large-|xi| asymptote -psi1 psi2 / u^2."""
    height = 10.0 * (params.psi1 + params.psi2) * max(1.0, math.sqrt(params.zeta_sq))
    return max(100.0, 10.0 * u_target, height)


def _roots_loop_oracle(params, lambda_bar, steps=192):
    """Reference oracle: one np.roots call per path node, tracked node by node."""
    z, p1, p2 = params.zeta_sq, params.psi1, params.psi2
    u_target = math.sqrt(p1 * p2 * lambda_bar)
    u_start = _path_start(params, u_target)
    chi = complex(-p1 * p2 / (u_start * u_start), 0.0)
    ratio = u_target / u_start
    displacement = 0.0
    roots = None
    for k in range(1, steps + 1):
        u = u_start * ratio ** (k / steps)
        u_sq = u * u
        b1 = z * p1 - z - 1.0
        b2 = z * p2 - z - 1.0
        coeffs = [
            z * z,
            z * (b1 + b2) + u_sq * z * z,
            b1 * b2 - z * (p1 + p2) - 2.0 * u_sq * z,
            -b1 * p2 - b2 * p1 + u_sq,
            p1 * p2,
        ]
        roots = np.roots(np.array(coeffs))
        nearest = roots[np.argmin(np.abs(roots - chi))]
        displacement = abs(nearest - chi)
        chi = nearest
    if abs(chi.imag) > 1e-9 or chi.real > 1e-12:
        raise RootSelectionAmbiguous(f"tracked root {chi} is not admissible")
    resolution = 10.0 * displacement + 1e-13 * (1.0 + abs(chi))
    for r in roots:
        if abs(r - chi) < 1e-16:
            continue
        if abs(r.imag) <= 1e-9 and r.real <= 1e-12 and abs(r - chi) < resolution:
            raise RootSelectionAmbiguous(f"roots {chi} and {r} both admissible")
    # the oracle's polish, on the quartic of the last node (the target up to rounding)
    return rfridge.selfconsistent._polish_root(coeffs, chi.real)


def _outcome(oracle, params, lambda_bar):
    try:
        return oracle(params, lambda_bar)
    except Exception as exc:  # the reference and the oracle must fail alike
        return type(exc)


def _assert_same_outcome(got, expected, where):
    # the references solve the last node of their path, the oracle the target
    # itself, so values agree to rounding rather than bitwise
    if isinstance(expected, type):
        assert got is expected, where
    else:
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0), where


def test_oracle_matches_the_roots_loop():
    rng = np.random.default_rng(20191)
    failures = 0
    for _ in range(200):
        params = SpectralParams(
            zeta_sq=math.exp(rng.uniform(math.log(0.01), math.log(100.0))),
            psi1=math.exp(rng.uniform(math.log(0.01), math.log(1e4))),
            psi2=math.exp(rng.uniform(math.log(0.01), math.log(1e3))),
        )
        lambda_bar = math.exp(rng.uniform(math.log(1e-9), math.log(1e4)))
        expected = _outcome(_roots_loop_oracle, params, lambda_bar)
        _assert_same_outcome(_outcome(chi_scalar_oracle, params, lambda_bar), expected,
                             (params, lambda_bar))
        failures += isinstance(expected, type)
    # the box must exercise the value path, not only the failure path
    assert failures < 20


def _tracking_oracle(params, lambda_bar, steps=192):
    """Reference oracle: all path nodes solved in one batched eigvals call, and
    the root followed node by node by nearest-neighbor continuity."""
    sc = rfridge.selfconsistent
    z, p1, p2 = params.zeta_sq, params.psi1, params.psi2
    u_target = math.sqrt(p1 * p2 * lambda_bar)
    u_start = _path_start(params, u_target)
    chi = complex(-p1 * p2 / (u_start * u_start), 0.0)
    ratio = u_target / u_start
    nodes = [u_start * ratio ** (k / steps) for k in range(1, steps + 1)]
    coeffs = sc._quartic_coeffs(z, p1, p2, [u * u for u in nodes])
    companion = np.zeros((steps, 4, 4))
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    displacement = 0.0
    roots = None
    for roots in np.linalg.eigvals(companion).tolist():
        nearest = min(roots, key=lambda r: abs(r - chi))
        displacement = abs(nearest - chi)
        chi = nearest
    if abs(chi.imag) > 1e-9 or chi.real > 1e-12:
        raise RootSelectionAmbiguous(f"tracked root {chi} is not admissible")
    resolution = 10.0 * displacement + 1e-13 * (1.0 + abs(chi))
    for r in roots:
        if abs(r - chi) < 1e-16:
            continue
        if abs(r.imag) <= 1e-9 and r.real <= 1e-12 and abs(r - chi) < resolution:
            raise RootSelectionAmbiguous(f"roots {chi} and {r} both admissible")
    # the oracle's polish, on the quartic of the last node (the target up to rounding)
    return sc._polish_root(coeffs[-1].tolist(), chi.real)


def test_oracle_equals_the_tracking_reference_over_the_stress_box():
    # zeta_sq in [0.01, 100], psi1 in [0.01, 1e4], psi2 in [0.01, 1e3] and
    # lambda_bar in [1e-9, 1e8], log-uniform
    box = np.log([[0.01, 100.0], [0.01, 1e4], [0.01, 1e3], [1e-9, 1e8]])
    points = np.exp(np.random.default_rng(9).uniform(box[:, 0], box[:, 1], (2000, 4)))
    values = 0
    for z, p1, p2, lb in points.tolist():
        params = SpectralParams(z, p1, p2)
        expected = _outcome(_tracking_oracle, params, lb)
        _assert_same_outcome(_outcome(chi_scalar_oracle, params, lb), expected, (z, p1, p2, lb))
        values += not isinstance(expected, type)
    assert values >= 1900


def _synthetic_quartic(n_coeffs):
    """A stand-in for _quartic_coeffs whose u = 0 polynomial is N = n_coeffs.

    Row k is N + u_sq[k] D with D = chi (1 - zeta^2 chi)^2, the structure the
    certificate relies on; only the N of the real quartic is replaced.
    """
    def coeffs(zeta_sq, psi1, psi2, u_sq):
        d = np.array([0.0, zeta_sq * zeta_sq, -2.0 * zeta_sq, 1.0, 0.0])
        return np.asarray(n_coeffs, dtype=float) + np.asarray(u_sq, dtype=float)[:, None] * d
    return coeffs


# zeta_sq = psi1 = psi2 = 1, so lambda_bar = u^2 at the target
UNIT_PARAMS = SpectralParams(zeta_sq=1.0, psi1=1.0, psi2=1.0)


def test_oracle_certificate_rejects_a_branch_that_turns(monkeypatch):
    # N = ((chi + 1)^2 + 0.01) (chi + 3) (chi + 4): g = -N/D dips to about 0.015
    # near chi = -1 and falls to 0 at chi = -3, so at u^2 = 0.01 the only real
    # roots lie left of the dip, and the branch from 0- turned off the axis
    n = np.polymul(np.polymul([1.0, 2.0, 1.01], [1.0, 3.0]), [1.0, 4.0])
    monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", _synthetic_quartic(n))
    coeffs = rfridge.selfconsistent._quartic_coeffs(1.0, 1.0, 1.0, [0.01])[0]
    real_negative = [r.real for r in np.roots(coeffs) if r.imag == 0.0 and r.real < 0.0]
    assert real_negative and max(real_negative) < -2.0
    with pytest.raises(RootSelectionAmbiguous, match="turns"):
        chi_scalar_oracle(UNIT_PARAMS, 0.01)
    # tracking ends off the real axis at the same point
    assert _outcome(_tracking_oracle, UNIT_PARAMS, 0.01) is RootSelectionAmbiguous
    # above the dip the branch has not turned yet, and both oracles agree
    chi = chi_scalar_oracle(UNIT_PARAMS, 0.05)
    assert chi == _tracking_oracle(UNIT_PARAMS, 0.05) and -1.0 < chi < 0.0


def test_oracle_without_an_admissible_root_is_ambiguous(monkeypatch):
    # N = ((chi + 1)^2 + 1) (chi^2 + 1) > 0 keeps g = -N/D above 0.25 on chi < 0
    # and negative on chi > 0, so at u^2 = 0.01 all four roots are complex
    n = np.polymul([1.0, 2.0, 2.0], [1.0, 0.0, 1.0])
    monkeypatch.setattr(rfridge.selfconsistent, "_quartic_coeffs", _synthetic_quartic(n))
    assert all(r.imag != 0.0 for r in np.roots(rfridge.selfconsistent._quartic_coeffs(
        1.0, 1.0, 1.0, [0.01])[0]))
    with pytest.raises(RootSelectionAmbiguous, match="no real non-positive root"):
        chi_scalar_oracle(UNIT_PARAMS, 0.01)
    assert _outcome(_tracking_oracle, UNIT_PARAMS, 0.01) is RootSelectionAmbiguous


def test_oracle_factors_at_most_two_polynomials(monkeypatch):
    # a count, not a timing: the target quartic and the quintic, where
    # tracking a path factors one quartic per node
    roots = np.roots
    polynomials = []

    def counting(p):
        polynomials.append(len(p) - 1)
        return roots(p)

    expected = chi_scalar_oracle(PARAMS_A, 0.01)
    monkeypatch.setattr(np, "roots", counting)
    assert chi_scalar_oracle(PARAMS_A, 0.01) == expected
    assert polynomials == [4, 5]


def test_oracle_rejects_bad_lambda():
    with pytest.raises(ValueError):
        chi_scalar_oracle(PARAMS_A, 0.0)
    with pytest.raises(ValueError):
        chi_scalar_oracle(PARAMS_A, -1.0)


def test_nu_from_chi_roundtrip():
    zeta_sq = math.pi / (math.pi - 2.0)
    params = SpectralParams(zeta_sq=zeta_sq, psi1=2.0, psi2=3.0)
    lam_bar = 1e-3 / ((math.pi - 2.0) / (4.0 * math.pi))
    chi = chi_scalar_oracle(params, lam_bar)
    nu1, nu2 = nu_from_chi(chi, params, lam_bar)
    u = math.sqrt(params.psi1 * params.psi2 * lam_bar)
    point = solve_at(complex(0.0, u), params)
    assert abs(nu1 - point.nu1) <= 1e-8 * max(1.0, abs(point.nu1))
    assert abs(nu2 - point.nu2) <= 1e-8 * max(1.0, abs(point.nu2))
    assert abs(nu1 * nu2 - chi) <= 1e-10 * max(1.0, abs(chi))


def test_nu_from_chi_symmetric_pair():
    params = SpectralParams(zeta_sq=1.3, psi1=2.0, psi2=2.0)
    chi = chi_scalar_oracle(params, 0.5)
    nu1, nu2 = nu_from_chi(chi, params, 0.5)
    assert nu1 == nu2
    assert nu1.imag == pytest.approx(math.sqrt(-chi), rel=1e-9)


def test_nu_from_chi_rejects_wrong_branch():
    chi = chi_scalar_oracle(PARAMS_A, 0.01)
    with pytest.raises(InconsistentChi):
        nu_from_chi(chi * 1.05, PARAMS_A, 0.01)


def test_nu_from_chi_rejects_a_tiny_chi_ten_times_off():
    # chi is about -1e-9 here, so a bound absolute below |chi| = 1 would take
    # a chi ten times too large
    params = SpectralParams(zeta_sq=1.0, psi1=2.0, psi2=3.0)
    chi = chi_scalar_oracle(params, 1e9)
    assert -1e-8 < chi < -1e-10
    nu_from_chi(chi, params, 1e9)
    with pytest.raises(InconsistentChi):
        nu_from_chi(10.0 * chi, params, 1e9)


def test_nu_from_chi_rejects_positive_chi():
    with pytest.raises(ValueError):
        nu_from_chi(0.3, PARAMS_A, 0.01)
    with pytest.raises(ValueError):
        nu_from_chi(-1.0, PARAMS_A, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    log_z=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_p1=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_p2=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    log_lam=st.floats(min_value=math.log(1e-4), max_value=math.log(10.0)),
)
# equal shapes near the threshold, where each component of the pair cancels
@example(log_z=-2.0, log_p1=0.0, log_p2=0.0, log_lam=-9.0)
def test_routes_agree_and_invariants_hold(log_z, log_p1, log_p2, log_lam):
    params = SpectralParams(
        zeta_sq=math.exp(log_z), psi1=math.exp(log_p1), psi2=math.exp(log_p2)
    )
    lam_bar = math.exp(log_lam)
    u = math.sqrt(params.psi1 * params.psi2 * lam_bar)

    point = solve_at(complex(0.0, u), params)
    assert point.residual <= 1e-12
    assert point.nu1.imag > 0.0 and point.nu2.imag > 0.0

    chi = chi_scalar_oracle(params, lam_bar)
    assert abs(point.chi.real - chi) <= 1e-14 * abs(chi)

    swapped = solve_at(complex(0.0, u), params.swapped())
    assert abs(point.nu1 - swapped.nu2) <= 1e-12 * abs(point.nu1)
    assert abs(point.nu2 - swapped.nu1) <= 1e-12 * abs(point.nu2)


@pytest.mark.parametrize(
    "zeta_sq,psi1,psi2",
    [(2.7519, 1.0, 2.0), (1.0, 3.0, 0.5), (5.0, 4.0, 4.0), (1.0, 1.0, 2.0)],
)
def test_im_nu1_over_u_strictly_decreasing(zeta_sq, psi1, psi2):
    # Im nu1(iu) itself is not monotone in general; the ratio Im nu1(iu)/u is,
    # being a weighted average of 1/(s^2+u^2) against a positive measure.
    params = SpectralParams(zeta_sq=zeta_sq, psi1=psi1, psi2=psi2)
    grid = np.geomspace(0.05, 50.0, 50)
    vals = [solve_at(complex(0.0, u), params).nu1.imag / u for u in grid]
    diffs = np.diff(vals)
    assert np.all(diffs < 0.0)
