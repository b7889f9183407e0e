"""Finite-dimensional simulator: fits, measurement conventions, keyed RNG."""

import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfridge._blas
import rfridge.simulate
from rfridge.activations import Activation, DegenerateActivation
from rfridge.simulate import (
    IllConditionedWarning,
    InsufficientTrials,
    SimConfig,
    SmallTestSetWarning,
    TargetKind,
    TrialResult,
    aggregate,
    build_design,
    nonlinear_power,
    ridge_fit,
    ridge_path,
    run_trial,
    run_trials,
    sample_sphere,
    substream,
)

RELU = Activation.relu()


def _small_config(**kw):
    base = dict(
        d=40,
        n=60,
        N=50,
        lam=1e-3,
        activation=RELU,
        target=TargetKind.linear(),
        tau_sq=0.1,
        trials=2,
        seed=3,
        n_test=1000,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# sampling and design
# ---------------------------------------------------------------------------

def test_sphere_rows_have_exact_radius():
    X = sample_sphere(50, 2000, np.random.default_rng(0))
    norms = np.linalg.norm(X, axis=1)
    assert np.allclose(norms, math.sqrt(50), rtol=1e-12, atol=0.0)


def test_sphere_moments():
    X = sample_sphere(10, 200_000, np.random.default_rng(1))
    # coordinates are centered with unit variance and uncorrelated
    assert abs(X[:, 0].mean()) < 0.02
    assert abs((X[:, 0] ** 2).mean() - 1.0) < 0.02
    assert abs((X[:, 0] * X[:, 1]).mean()) < 0.02


def test_build_design_hand_instance():
    s = math.sqrt(2.0)
    X = np.array([[1.0, 1.0], [-1.0, 1.0]])
    Theta = np.array([[s, 0.0], [0.0, -s]])
    Z = build_design(X, Theta, RELU)
    expected = np.array([[1.0 / s, 0.0], [0.0, 0.0]])
    assert np.allclose(Z, expected, atol=1e-15)


def test_build_design_dimension_mismatch():
    with pytest.raises(ValueError):
        build_design(np.zeros((3, 4)), np.zeros((2, 5)), RELU)


# ---------------------------------------------------------------------------
# ridge_fit
# ---------------------------------------------------------------------------

def test_ridge_fit_hand_instance():
    # Z = I, d = 2, lam = 1: (I + I) a = Z^T y / sqrt(2), so a = y / (2 sqrt(2))
    y = np.array([1.0, -2.0])
    fit = ridge_fit(np.eye(2), y, lam=1.0, psi1_d=1.0, psi2_d=1.0)
    assert fit.solver_path == "primal"
    assert np.allclose(fit.a_hat, y / (2.0 * math.sqrt(2.0)), atol=1e-15)


def test_ridge_fit_zero_targets_give_zero_coefficients():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((8, 5))
    for lam in (0.0, 1e-3):
        fit = ridge_fit(Z, np.zeros(8), lam, psi1_d=5.0 / 4.0, psi2_d=2.0)
        assert np.all(fit.a_hat == 0.0)


def test_ridgeless_is_minimum_norm():
    rng = np.random.default_rng(3)
    d, n, N = 3, 5, 9
    Z = rng.standard_normal((n, N))
    y = rng.standard_normal(n)
    fit = ridge_fit(Z, y, 0.0, psi1_d=N / d, psi2_d=n / d)
    assert fit.solver_path == "svd"
    expected = np.linalg.pinv(Z) @ y / math.sqrt(d)
    assert np.allclose(fit.a_hat, expected, rtol=1e-10, atol=1e-12)


def test_svd_path_matches_direct_solve_at_tiny_lambda():
    rng = np.random.default_rng(4)
    d, n, N = 10, 25, 15
    Z = rng.standard_normal((n, N)) / math.sqrt(d)
    y = rng.standard_normal(n)
    lam = 1e-7
    fit = ridge_fit(Z, y, lam, psi1_d=N / d, psi2_d=n / d)
    assert fit.solver_path == "svd"
    c = lam * (N / d) * (n / d)
    direct = np.linalg.solve(Z.T @ Z + c * np.eye(N), Z.T @ y) / math.sqrt(d)
    assert np.allclose(fit.a_hat, direct, rtol=1e-8, atol=1e-12)


def test_primal_and_dual_agree():
    rng = np.random.default_rng(5)
    d, n = 20, 37
    lam = 0.1
    for N in (11, 80):
        Z = rng.standard_normal((n, N)) / math.sqrt(d)
        y = rng.standard_normal(n)
        fit = ridge_fit(Z, y, lam, psi1_d=N / d, psi2_d=n / d)
        assert fit.solver_path == ("primal" if N <= n else "dual")
        c = lam * (N / d) * (n / d)
        other = (
            Z.T @ np.linalg.solve(Z @ Z.T + c * np.eye(n), y) / math.sqrt(d)
            if N <= n
            else np.linalg.solve(Z.T @ Z + c * np.eye(N), Z.T @ y) / math.sqrt(d)
        )
        assert np.allclose(fit.a_hat, other, rtol=1e-8, atol=1e-12)


def test_fit_minimizes_the_objective():
    rng = np.random.default_rng(6)
    d, n, N = 30, 50, 40
    lam = 0.5
    X = sample_sphere(d, n, rng)
    Theta = sample_sphere(d, N, rng)
    Z = build_design(X, Theta, RELU)
    y = X[:, 0] + 0.3 * rng.standard_normal(n)
    fit = ridge_fit(Z, y, lam, psi1_d=N / d, psi2_d=n / d)

    def objective(a):
        r = y - math.sqrt(d) * (Z @ a)
        return float(r @ r) / n + N * lam / d * float(a @ a)

    base = objective(fit.a_hat)
    for _ in range(10):
        delta = rng.standard_normal(N)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert objective(fit.a_hat + delta) > base


def test_huge_penalty_shrinks_coefficients():
    rng = np.random.default_rng(7)
    d, n, N = 10, 20, 15
    Z = rng.standard_normal((n, N)) / math.sqrt(d)
    y = rng.standard_normal(n)
    lam = 1e6
    fit = ridge_fit(Z, y, lam, psi1_d=N / d, psi2_d=n / d)
    c = lam * (N / d) * (n / d)
    assert np.linalg.norm(fit.a_hat) <= np.linalg.norm(Z.T @ y) / (c * math.sqrt(d))


def test_ridge_fit_validates_inputs():
    Z = np.eye(3)
    with pytest.raises(ValueError):
        ridge_fit(Z, np.zeros(2), 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ridge_fit(Z, np.zeros(3), -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ridge_fit(Z, np.zeros(3), 0.1, 1.0, 2.0)  # N/psi1_d != n/psi2_d


def test_ill_conditioned_system_warns():
    Z = np.diag([1.0, 0.0])
    d = 3000.0
    with pytest.warns(IllConditionedWarning):
        ridge_fit(Z, np.array([1.0, 0.0]), 2e-6, psi1_d=2.0 / d, psi2_d=2.0 / d)


# ---------------------------------------------------------------------------
# penalty sweeps: one factorization for every lambda
# ---------------------------------------------------------------------------

SWEEP_LAMS = (0.0, 1e-7, 1e-5, 1e-3, 1e-1, 10.0)
MEASURED = ("test_error", "train_error", "penalty", "coef_norm_sq")


def test_ridge_path_matches_ridge_fit():
    rng = np.random.default_rng(8)
    d, n = 10, 30
    for N in (20, 45):
        Z = rng.standard_normal((n, N)) / math.sqrt(d)
        y = rng.standard_normal(n)
        fits = ridge_path(Z, y, SWEEP_LAMS, N / d, n / d)
        for lam, fit in zip(SWEEP_LAMS, fits):
            single = ridge_fit(Z, y, lam, N / d, n / d)
            assert fit.solver_path == "svd"
            if lam <= 1e-6:
                assert np.array_equal(fit.a_hat, single.a_hat) and fit.cond == single.cond
            else:
                gap = np.linalg.norm(fit.a_hat - single.a_hat)
                assert gap <= 1e-10 * np.linalg.norm(single.a_hat)
                assert fit.cond == pytest.approx(single.cond, rel=1e-8)


def test_ridge_path_validates_every_penalty():
    with pytest.raises(ValueError):
        ridge_path(np.eye(3), np.zeros(3), (0.0, -0.1), 1.0, 1.0)
    with pytest.raises(ValueError):
        ridge_path(np.eye(3), np.zeros(3), (0.0, math.nan), 1.0, 1.0)


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
@pytest.mark.parametrize("N", [40, 70])
@pytest.mark.usefixtures("trial_pool")
def test_sweep_trials_match_single_point_trials(model, N):
    cfg = _small_config(model=model, N=N, trials=3)
    sweep = [replace(cfg, lam=lam) for lam in SWEEP_LAMS]
    swept = run_trials(sweep, threads=2)
    assert swept == run_trials(sweep, threads=1)
    assert len(swept) == len(SWEEP_LAMS)
    for lam, trials in zip(SWEEP_LAMS, swept):
        single = run_trials(replace(cfg, lam=lam), threads=1)
        assert [r.trial_index for r in trials] == [0, 1, 2]
        if lam <= 1e-6:
            assert trials == single
            continue
        for a, b in zip(trials, single):
            assert a.solver_path == "svd"
            assert a.cond == pytest.approx(b.cond, rel=1e-8)
            for q in MEASURED:
                assert getattr(a, q) == pytest.approx(getattr(b, q), rel=1e-10, abs=0.0), q


def test_ill_conditioned_sweep_still_warns():
    # cond is the normal-matrix ratio on both sides of lam = 1e-6, so once the
    # mean component (here relu shifted up by 1e4) dwarfs the smallest singular
    # value at N = n, the ridgeless row warns as well as the one at 2e-6
    lifted = Activation.custom(lambda u: np.maximum(u, 0.0) + 1e4, breakpoints=(0.0,))
    cfg = _small_config(d=20, n=40, N=40, activation=lifted)
    with pytest.warns(IllConditionedWarning):
        ridgeless, tiny = run_trials([replace(cfg, lam=0.0), replace(cfg, lam=2e-6)], threads=2)
    assert all(r.cond > 1e12 for r in ridgeless)
    assert all(r.cond > 1e12 for r in tiny)
    for a, b in zip(ridgeless, tiny):
        assert a.cond == pytest.approx(b.cond, rel=0.2)


def test_ridgeless_cond_is_normal_matrix_ratio():
    # singular values 1 and 1e-7: the normal matrix has condition number 1e14
    Z = np.diag([1.0, 1e-7])
    with pytest.warns(IllConditionedWarning):
        fit = ridge_fit(Z, np.ones(2), 0.0, 1.0, 1.0)
    assert fit.cond == pytest.approx(1e14, rel=1e-9)


EPS = np.finfo(float).eps
COND_LAMS = (2e-6, 1e-3, 1.0, 1e6)


def _lifted_relu_design(N):
    # relu shifted up by 1e4: the mean component dwarfs the rest of the spectrum
    lifted = Activation.custom(lambda u: np.maximum(u, 0.0) + 1e4, breakpoints=(0.0,))
    X = sample_sphere(20, 40, np.random.default_rng(21))
    Theta = sample_sphere(20, N, np.random.default_rng(22))
    return build_design(X, Theta, lifted), N / 20, 40 / 20


def _assert_cond_contract(Z, psi1_d, psi2_d, lam):
    """cond bounds the exact ratio, is exact above 1e12, and warns iff the exact ratio does.

    The exact ratio is (s_max^2 + c) / (s_min^2 + c) from the singular values
    of Z, one reference for both ridge_fit and ridge_path.  It agrees with
    eigvalsh of the normal matrix up to eigvalsh's rounding of lambda_min,
    about eps lambda_max, i.e. eps * ratio relative.  Returns ridge_fit's
    cond and the exact ratio.
    """
    n, N = Z.shape
    y = np.ones(n)
    c = lam * psi1_d * psi2_d
    G = Z.T @ Z if N <= n else Z @ Z.T
    ev = np.linalg.eigvalsh(G + c * np.eye(len(G)))
    s = np.linalg.svd(Z, compute_uv=False)
    exact = (s[0] ** 2 + c) / (s[-1] ** 2 + c)
    assert exact == pytest.approx(ev[-1] / ev[0], rel=1e-12 + 4 * EPS * exact)
    routes = (
        lambda: ridge_fit(Z, y, lam, psi1_d, psi2_d),
        lambda: ridge_path(Z, y, (lam,), psi1_d, psi2_d)[0],
    )
    conds = []
    for fit_once in routes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_once()
        assert fit.cond >= exact * (1.0 - 1e-12 - 4 * EPS * exact)
        if fit.cond > 1e12 or exact > 1e12:
            assert fit.cond == pytest.approx(exact, rel=1e-8)
        warned = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
        assert len(warned) == (exact > 1e12)
        conds.append(fit.cond)
    return conds[0], exact


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=12),
    N=st.integers(min_value=2, max_value=12),
    lam=st.sampled_from(COND_LAMS),
)
def test_cond_bounds_the_exact_ratio_on_random_designs(seed, n, N, lam):
    d = 10
    Z = np.random.default_rng(seed).standard_normal((n, N)) / math.sqrt(d)
    _assert_cond_contract(Z, N / d, n / d, lam)
    _assert_cond_contract(Z.T, n / d, N / d, lam)  # the other of primal and dual


@pytest.mark.parametrize("lam", COND_LAMS)
def test_cond_bounds_the_exact_ratio_on_structured_designs(lam):
    # singular values 1 and 1e-7, as a tall (primal) and a wide (dual) design
    tall = np.array([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]])
    _assert_cond_contract(tall, 1.0, 1.5, lam)
    _assert_cond_contract(tall.T, 1.5, 1.0, lam)
    # a flat spectrum: the bound exceeds 1e12 at 2e-6 while the exact ratio does not
    _assert_cond_contract(500.0 * np.eye(16), 1.0, 1.0, lam)
    for N in (30, 40, 60):
        _assert_cond_contract(*_lifted_relu_design(N), lam)


def test_cond_cases_reach_every_branch_of_the_rule():
    # exact although no warning: the bound (2e12) is above 1e12, the ratio is not
    fit_cond, exact = _assert_cond_contract(500.0 * np.eye(16), 1.0, 1.0, 2e-6)
    assert exact < 1e12 and fit_cond == exact
    # exact and warning
    fit_cond, exact = _assert_cond_contract(*_lifted_relu_design(40), 2e-6)
    assert exact > 1e12
    # the bound itself, strictly above the exact ratio
    fit_cond, exact = _assert_cond_contract(*_lifted_relu_design(30), 1.0)
    assert fit_cond > exact * (1.0 + 1e-4)


def test_ill_conditioned_warning_points_at_the_caller():
    y = np.ones(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ridge_fit(np.diag([1.0, 1e-7]), y, 0.0, 1.0, 1.0)
        ridge_path(np.diag([1.0, 1e-7]), y, (0.0,), 1.0, 1.0)
        ridge_fit(np.diag([1.0, 0.0]), y, 2e-6, 2.0 / 3000, 2.0 / 3000)
    warned = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
    assert len(warned) == 3
    assert all(w.filename == __file__ for w in warned)


def _shape_sweep(param, lam, model="random_features"):
    # d = 20, the other size 40: psi1 crosses N = n, psi2 crosses n = N; the
    # default n_test = 10 n grows with n, so a psi2 sweep nests test rows too
    field = "N" if param == "psi1" else "n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallTestSetWarning)
        return [
            _small_config(**{"d": 20, "n": 40, "N": 40, "lam": lam, "trials": 3,
                             "n_test": None, "model": model, field: size})
            for size in (24, 40, 64)
        ]


def _assert_trials_match(swept, single, interpolating):
    assert [r.trial_index for r in swept] == [r.trial_index for r in single]
    for a, b in zip(swept, single):
        assert a.solver_path == b.solver_path
        assert a.cond == pytest.approx(b.cond, rel=1e-6)
        for q in MEASURED:
            # an interpolating ridgeless fit trains to rounding noise (~1e-25)
            abs_tol = 1e-20 if interpolating and q == "train_error" else 0.0
            assert getattr(a, q) == pytest.approx(getattr(b, q), rel=1e-10, abs=abs_tol), q


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("param", ["psi1", "psi2"])
@pytest.mark.usefixtures("trial_pool")
def test_shape_sweep_trials_match_single_point_trials(param, lam):
    sweep = _shape_sweep(param, lam)
    assert sweep[-1].n_test == 10 * sweep[-1].n
    swept = run_trials(sweep, threads=2)
    assert swept == run_trials(sweep, threads=1)
    assert len(swept) == len(sweep)
    for cfg, trials in zip(sweep, swept):
        interpolating = lam == 0.0 and cfg.N >= cfg.n
        _assert_trials_match(trials, run_trials(cfg, threads=1), interpolating)


@pytest.mark.parametrize("param", ["psi1", "psi2"])
@pytest.mark.usefixtures("trial_pool")
def test_gaussian_covariates_shape_sweep_draws_each_point(param):
    # the surrogate's draws do not nest, so each shape draws as a single point does
    sweep = _shape_sweep(param, 1e-3, model="gaussian_covariates")
    assert run_trials(sweep, threads=2) == [run_trials(cfg, threads=1) for cfg in sweep]


def test_sweep_points_of_one_shape_and_penalty_fit_as_a_single_point():
    # two grid points that round to one shape at one penalty take ridge_fit's
    # path and cond, not ridge_path's SVD
    cfg = _small_config()
    assert run_trial([cfg, cfg], 0) == [run_trial(cfg, 0)] * 2


def test_sweep_configs_may_differ_only_in_shape_and_penalty():
    cfg = _small_config()
    with pytest.raises(ValueError, match="tau_sq"):
        run_trials([cfg, replace(cfg, tau_sq=0.5)])
    with pytest.raises(ValueError, match="seed"):
        run_trial([cfg, replace(cfg, N=70, seed=4)], 0)
    with pytest.raises(ValueError):
        run_trials([])


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def test_target_evaluations():
    X = np.array([[2.0, 3.0, 1.0], [-1.0, 0.5, 2.0]])
    lin = TargetKind.linear(beta_norm=2.0)
    assert np.allclose(lin.evaluate(X), [4.0, -2.0])
    quad = TargetKind.linear_plus_quad()
    assert np.allclose(quad.evaluate(X), [2.0 + 1.5, -1.0 + 0.0])
    cross = TargetKind.linear_plus_cross()
    assert np.allclose(
        cross.evaluate(X), [2.0 + 6.0 / math.sqrt(2.0), -1.0 - 0.5 / math.sqrt(2.0)]
    )


def test_target_validation():
    with pytest.raises(ValueError):
        TargetKind("cubic")
    with pytest.raises(ValueError):
        TargetKind("linear_plus_quad", beta_norm=2.0)
    with pytest.raises(ValueError):
        TargetKind.linear(beta_norm=0.0)
    assert TargetKind.linear(3.0).f1_sq == 9.0


def test_nonlinear_power_exact_values():
    assert nonlinear_power(TargetKind.linear(), 100) == 0.0
    assert nonlinear_power(TargetKind.linear_plus_quad(), 100) == pytest.approx(
        99.0 / 204.0, abs=1e-15
    )
    assert nonlinear_power(TargetKind.linear_plus_cross(), 100) == pytest.approx(
        100.0 / 204.0, abs=1e-15
    )
    with pytest.raises(ValueError):
        nonlinear_power(TargetKind.linear(), 1)


def test_nonlinear_power_matches_monte_carlo():
    # E[f^2] = 1 + excess on the sphere; check by direct sampling at small d
    d = 10
    rng = np.random.default_rng(8)
    for target in (TargetKind.linear_plus_quad(), TargetKind.linear_plus_cross()):
        chunk_means = []
        for _ in range(20):
            X = sample_sphere(d, 50_000, rng)
            chunk_means.append(float(np.mean(target.evaluate(X) ** 2)))
        chunk_means = np.array(chunk_means)
        mc = chunk_means.mean()
        sem = chunk_means.std(ddof=1) / math.sqrt(len(chunk_means))
        expected = 1.0 + nonlinear_power(target, d)
        assert abs(mc - expected) <= 4.0 * sem


# ---------------------------------------------------------------------------
# keyed randomness
# ---------------------------------------------------------------------------

def test_substreams_are_deterministic_and_distinct():
    a = substream(9, 2, "theta").standard_normal(8)
    b = substream(9, 2, "theta").standard_normal(8)
    c = substream(9, 2, "x").standard_normal(8)
    e = substream(9, 3, "theta").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, e)
    with pytest.raises(KeyError):
        substream(9, 2, "unknown")


def test_feature_rows_nest_across_widths():
    small = sample_sphere(12, 5, substream(4, 1, "theta"))
    large = sample_sphere(12, 9, substream(4, 1, "theta"))
    assert np.array_equal(large[:5], small)


def test_wider_model_trains_no_worse_at_tiny_penalty():
    # nested feature rows span nested column spaces, so the near-ridgeless
    # training objective cannot increase with width
    results = [
        run_trial(_small_config(N=N, lam=1e-8, n_test=1000), 0) for N in (20, 45, 70)
    ]
    errs = [r.train_error for r in results]
    assert errs[0] >= errs[1] - 1e-10
    assert errs[1] >= errs[2] - 1e-10


def test_run_trial_bitwise_deterministic():
    cfg = _small_config()
    r1 = run_trial(cfg, 1)
    r2 = run_trial(cfg, 1)
    assert r1 == r2


@pytest.mark.usefixtures("trial_pool")
def test_run_trials_thread_count_invariance():
    cfg = _small_config(trials=4)
    serial = run_trials(cfg, threads=1)
    threaded = run_trials(cfg, threads=4)
    assert serial == threaded
    assert [r.trial_index for r in serial] == [0, 1, 2, 3]


@pytest.mark.parametrize("blas_threads, in_flight", [(2, 1), (1, 2)])
def test_run_trials_budget_counts_blas_threads(monkeypatch, blas_threads, in_flight):
    # threads is a core budget: each trial's BLAS calls take blas_threads of it
    lock = threading.Lock()
    running, peak = [0], [0]
    second = threading.Event()

    def spy(point, t):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            if running[0] == 2:
                second.set()
        second.wait(timeout=0.5)  # a pooled second trial starts meanwhile
        with lock:
            running[0] -= 1
        return t

    monkeypatch.setattr(rfridge._blas, "threads", lambda: blas_threads)
    monkeypatch.setattr(rfridge.simulate, "run_trial", spy)
    assert run_trials(_small_config(trials=2), threads=2) == [0, 1]
    assert peak[0] == in_flight


# ---------------------------------------------------------------------------
# trials and measurement
# ---------------------------------------------------------------------------

def test_trial_solver_paths():
    assert run_trial(_small_config(N=50), 0).solver_path == "primal"
    assert run_trial(_small_config(N=70), 0).solver_path == "dual"
    assert run_trial(_small_config(lam=0.0), 0).solver_path == "svd"


def test_train_error_includes_penalty():
    r = run_trial(_small_config(), 0)
    assert r.penalty == pytest.approx(
        50 * 1e-3 / 40 * r.coef_norm_sq, rel=1e-12
    )
    assert r.train_error >= r.penalty


def test_huge_penalty_test_error_is_target_power():
    # with a_hat ~ 0 the test error is the raw second moment of the target
    d = 100
    cfg = SimConfig(
        d=d,
        n=200,
        N=150,
        lam=1e9,
        activation=RELU,
        target=TargetKind.linear_plus_quad(),
        trials=1,
        seed=11,
        n_test=6000,
    )
    r = run_trial(cfg, 0)
    expected = 1.0 + nonlinear_power(cfg.target, d)
    assert r.test_error == pytest.approx(expected, abs=0.15)
    assert r.coef_norm_sq <= 1e-12


def test_training_error_below_test_error_when_underparametrized():
    cfg = _small_config(tau_sq=0.0, lam=1e-8, N=20)
    r = run_trial(cfg, 0)
    assert r.train_error < r.test_error


def test_config_validation_and_defaults():
    with pytest.raises(ValueError):
        _small_config(d=0)
    with pytest.raises(ValueError):
        _small_config(lam=-1.0)
    with pytest.raises(ValueError):
        _small_config(trials=0)
    with pytest.raises(ValueError):
        _small_config(tau_sq=-0.5)
    with pytest.raises(ValueError):
        _small_config(model="kernel")
    for bad in (0, -5, 1500.0, 2.5):
        with pytest.raises(ValueError, match="n_test must be a positive integer"):
            _small_config(n_test=bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = SimConfig(
            d=20,
            n=150,
            N=30,
            lam=0.1,
            activation=RELU,
            target=TargetKind.linear(),
            seed=0,
        )
    assert cfg.n_test == 1500
    assert cfg.psi1_d == pytest.approx(1.5)
    assert cfg.psi2_d == pytest.approx(7.5)


def test_small_test_set_warns():
    with pytest.warns(SmallTestSetWarning):
        _small_config(n_test=500)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _trial_with(value: float, index: int = 0) -> TrialResult:
    return TrialResult(
        trial_index=index,
        test_error=value,
        train_error=value,
        penalty=0.0,
        coef_norm_sq=value,
        solver_path="primal",
        cond=1.0,
    )


def test_aggregate_hand_values():
    agg = aggregate([_trial_with(1.0, 0), _trial_with(3.0, 1)])
    assert agg.n_trials == 2
    assert agg.test_error_mean == pytest.approx(2.0, abs=1e-15)
    # sample std of {1,3} is sqrt(2), sem = sqrt(2)/sqrt(2) = 1
    assert agg.test_error_sem == pytest.approx(1.0, abs=1e-15)
    assert agg.coef_norm_sq_mean == pytest.approx(2.0, abs=1e-15)


def test_aggregate_identical_trials_zero_sem():
    agg = aggregate([_trial_with(0.7, i) for i in range(5)])
    assert agg.test_error_sem == 0.0
    assert agg.train_error_sem == 0.0


def test_aggregate_matches_numpy_formulas():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(20)
    agg = aggregate([_trial_with(float(v), i) for i, v in enumerate(vals)])
    assert agg.test_error_mean == pytest.approx(float(vals.mean()), abs=1e-15)
    assert agg.test_error_sem == pytest.approx(
        float(vals.std(ddof=1) / math.sqrt(20)), abs=1e-15
    )


def test_aggregate_requires_two_trials():
    with pytest.raises(InsufficientTrials):
        aggregate([_trial_with(1.0)])


# ---------------------------------------------------------------------------
# gaussian covariates surrogate
# ---------------------------------------------------------------------------

def test_gaussian_covariates_trial_runs():
    cfg = _small_config(model="gaussian_covariates")
    r = run_trial(cfg, 0)
    assert math.isfinite(r.test_error) and r.test_error > 0.0
    assert math.isfinite(r.train_error) and r.train_error > 0.0
    assert r == run_trial(cfg, 0)


def test_gaussian_covariates_rejects_nonlinear_target():
    cfg = _small_config(
        model="gaussian_covariates", target=TargetKind.linear_plus_quad()
    )
    with pytest.raises(ValueError):
        run_trial(cfg, 0)


def test_gaussian_covariates_rejects_degenerate_activation():
    cfg = _small_config(
        model="gaussian_covariates", activation=Activation.identity()
    )
    with pytest.raises(DegenerateActivation):
        run_trial(cfg, 0)


def test_run_trials_dispatches_on_model():
    cfg = _small_config(model="gaussian_covariates", trials=2)
    results = run_trials(cfg)
    assert results == [run_trial(cfg, t) for t in range(2)]


def test_run_trial_draws_the_configured_model():
    cfg = _small_config(model="gaussian_covariates")
    surrogate = run_trial(cfg, 0)
    assert surrogate == run_trials(cfg, 1)[0]
    assert surrogate.test_error != run_trial(replace(cfg, model="random_features"), 0).test_error
