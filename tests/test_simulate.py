"""Finite-dimensional simulator: fits, measurement conventions, keyed RNG."""

import math
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfridge._blas
import rfridge.activations
import rfridge.simulate
from rfridge.activations import (
    Activation,
    DegenerateActivation,
    QuadratureFailure,
    hermite_stats,
)
from rfridge.simulate import (
    IllConditionedWarning,
    InsufficientTrials,
    SimConfig,
    SmallTestSetWarning,
    TargetKind,
    Trials,
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


def _part(trials: Trials, points=slice(None), columns=slice(None)) -> Trials:
    """The table of some points (rows) and trials (columns) of trials."""
    return Trials(**{k: v[points] if k == "solver_path" else v[points, columns]
                     for k, v in vars(trials).items()})


def _assert_same(a: Trials, b: Trials) -> None:
    """a and b hold the same bits, field by field."""
    for k, v in vars(a).items():
        assert np.array_equal(v, vars(b)[k]), k


def _pinned_trial(config, trial_index: int) -> Trials:
    """run_trial under the one-thread BLAS pin run_trials holds for a sweep with no lam <= 1e-6."""
    with rfridge._blas.one_thread():
        return run_trial(config, trial_index)


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


def _traced_peak(fn):
    """fn's result and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("activation, sigma", [
    (RELU, lambda u: np.maximum(u, 0.0)),
    (Activation.shifted_relu(0.5), lambda u: np.maximum(u - 0.5, 0.0)),
    (Activation.identity(), lambda u: u),
], ids=["relu", "shifted_relu", "identity"])
def test_build_design_allocates_only_its_output(activation, sigma):
    # the product, the activation and both scalings share one n x N buffer,
    # and round as the out-of-place expression does
    rng = np.random.default_rng(5)
    X = sample_sphere(100, 1000, rng)
    Theta = sample_sphere(100, 2000, rng)
    Z, peak = _traced_peak(lambda: build_design(X, Theta, activation))
    assert Z.shape == (1000, 2000)
    assert peak <= 1.2 * Z.nbytes
    assert np.array_equal(Z, sigma(X @ Theta.T / 10.0) / 10.0)


# ---------------------------------------------------------------------------
# ridge_fit
# ---------------------------------------------------------------------------

def test_ridge_fit_hand_instance():
    # Z = I, d = 2, lam = 1: (I + I) a = Z^T y / sqrt(2), so a = y / (2 sqrt(2))
    y = np.array([1.0, -2.0])
    fit = ridge_fit(np.eye(2), y, lam=1.0, d=2)
    assert fit.solver_path == "primal"
    assert np.allclose(fit.a_hat, y / (2.0 * math.sqrt(2.0)), atol=1e-15)


def test_ridge_fit_zero_targets_give_zero_coefficients():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((8, 5))
    for lam in (0.0, 1e-3):
        fit = ridge_fit(Z, np.zeros(8), lam, d=4)
        assert np.all(fit.a_hat == 0.0)


def test_ridgeless_is_minimum_norm():
    rng = np.random.default_rng(3)
    d, n, N = 3, 5, 9
    Z = rng.standard_normal((n, N))
    y = rng.standard_normal(n)
    fit = ridge_fit(Z, y, 0.0, d)
    assert fit.solver_path == "svd"
    expected = np.linalg.pinv(Z) @ y / math.sqrt(d)
    assert np.allclose(fit.a_hat, expected, rtol=1e-10, atol=1e-12)


def test_svd_path_matches_direct_solve_at_tiny_lambda():
    rng = np.random.default_rng(4)
    d, n, N = 10, 25, 15
    Z = rng.standard_normal((n, N)) / math.sqrt(d)
    y = rng.standard_normal(n)
    lam = 1e-7
    fit = ridge_fit(Z, y, lam, d)
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
        fit = ridge_fit(Z, y, lam, d)
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
    fit = ridge_fit(Z, y, lam, d)

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
    fit = ridge_fit(Z, y, lam, d)
    c = lam * (N / d) * (n / d)
    assert np.linalg.norm(fit.a_hat) <= np.linalg.norm(Z.T @ y) / (c * math.sqrt(d))


def test_ridge_fit_validates_inputs():
    Z = np.eye(3)
    with pytest.raises(ValueError, match=r"^y has shape \(2,\), expected \(3,\)$"):
        ridge_fit(Z, np.zeros(2), 0.1, 3)
    with pytest.raises(ValueError, match="^lam must be finite and >= 0, got -0.1$"):
        ridge_fit(Z, np.zeros(3), -0.1, 3)
    for d in (0, -3.0, math.nan, math.inf):
        for lam in (0.0, 0.1):
            with pytest.raises(ValueError, match=f"^d must be finite and > 0, got {d}$"):
                ridge_fit(Z, np.zeros(3), lam, d)
        with pytest.raises(ValueError, match=f"^d must be finite and > 0, got {d}$"):
            ridge_path(Z, np.zeros(3), (0.0, 0.1), d)


def test_ill_conditioned_system_warns():
    Z = np.diag([1.0, 0.0])
    d = 3000.0
    with pytest.warns(IllConditionedWarning):
        ridge_fit(Z, np.array([1.0, 0.0]), 2e-6, d)


# ---------------------------------------------------------------------------
# penalty sweeps: one factorization for every lambda
# ---------------------------------------------------------------------------

SWEEP_LAMS = (0.0, 1e-7, 1e-5, 1e-3, 1e-1, 10.0)
MEASURED = ("test_error", "train_error", "penalty", "norm_sq")


def test_ridge_path_matches_ridge_fit():
    rng = np.random.default_rng(8)
    d, n = 10, 30
    for N in (20, 45):
        Z = rng.standard_normal((n, N)) / math.sqrt(d)
        y = rng.standard_normal(n)
        fits = ridge_path(Z, y, SWEEP_LAMS, d)
        for lam, fit in zip(SWEEP_LAMS, fits):
            single = ridge_fit(Z, y, lam, d)
            assert fit.solver_path == "svd"
            if lam <= 1e-6:
                assert np.array_equal(fit.a_hat, single.a_hat) and fit.cond == single.cond
            else:
                gap = np.linalg.norm(fit.a_hat - single.a_hat)
                assert gap <= 1e-10 * np.linalg.norm(single.a_hat)
                assert fit.cond == pytest.approx(single.cond, rel=1e-8)


def test_ridge_path_validates_every_penalty():
    with pytest.raises(ValueError):
        ridge_path(np.eye(3), np.zeros(3), (0.0, -0.1), 3)
    with pytest.raises(ValueError):
        ridge_path(np.eye(3), np.zeros(3), (0.0, math.nan), 3)


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
@pytest.mark.parametrize("N", [40, 70])
@pytest.mark.usefixtures("trial_pool")
def test_sweep_trials_match_single_point_trials(model, N):
    cfg = _small_config(model=model, N=N, trials=3)
    sweep = [replace(cfg, lam=lam) for lam in SWEEP_LAMS]
    swept = run_trials(sweep, threads=2)
    _assert_same(swept, run_trials(sweep, threads=1))
    assert swept.test_error.shape == (len(SWEEP_LAMS), 3)
    for k, lam in enumerate(SWEEP_LAMS):
        single = run_trials(replace(cfg, lam=lam), threads=1)
        if lam <= 1e-6:
            _assert_same(_part(swept, slice(k, k + 1)), single)
            continue
        assert swept.solver_path[k] == "svd"
        assert swept.cond[k] == pytest.approx(single.cond[0], rel=1e-8)
        for q in MEASURED:
            expected = getattr(single, q)[0]
            assert getattr(swept, q)[k] == pytest.approx(expected, rel=1e-10, abs=0.0), q


def test_ill_conditioned_sweep_still_warns():
    # cond is the normal-matrix ratio on both sides of lam = 1e-6, so once the
    # mean component (here relu shifted up by 1e4) dwarfs the smallest singular
    # value at N = n, the ridgeless row warns as well as the one at 2e-6
    lifted = Activation.custom(lambda u: np.maximum(u, 0.0) + 1e4, breakpoints=(0.0,))
    cfg = _small_config(d=20, n=40, N=40, activation=lifted)
    with pytest.warns(IllConditionedWarning):
        trials = run_trials([replace(cfg, lam=0.0), replace(cfg, lam=2e-6)], threads=2)
    ridgeless, tiny = trials.cond
    assert (ridgeless > 1e12).all() and (tiny > 1e12).all()
    assert ridgeless == pytest.approx(tiny, rel=0.2)


def test_ridgeless_cond_is_normal_matrix_ratio():
    # singular values 1 and 1e-7: the normal matrix has condition number 1e14
    Z = np.diag([1.0, 1e-7])
    with pytest.warns(IllConditionedWarning):
        fit = ridge_fit(Z, np.ones(2), 0.0, 2)
    assert fit.cond == pytest.approx(1e14, rel=1e-9)


EPS = np.finfo(float).eps
COND_LAMS = (2e-6, 1e-3, 1.0, 1e6)


def _lifted_relu_design(N):
    # relu shifted up by 1e4: the mean component dwarfs the rest of the spectrum
    lifted = Activation.custom(lambda u: np.maximum(u, 0.0) + 1e4, breakpoints=(0.0,))
    X = sample_sphere(20, 40, np.random.default_rng(21))
    Theta = sample_sphere(20, N, np.random.default_rng(22))
    return build_design(X, Theta, lifted), 20


def _assert_cond_contract(Z, d, lam):
    """cond bounds the exact ratio, is exact above 1e12, and warns iff the exact ratio does.

    The exact ratio is (s_max^2 + c) / (s_min^2 + c) from the singular values
    of Z, one reference for both ridge_fit and ridge_path.  It agrees with
    eigvalsh of the normal matrix up to eigvalsh's rounding of lambda_min,
    about eps lambda_max, i.e. eps * ratio relative.  Returns ridge_fit's
    cond and the exact ratio.
    """
    n, N = Z.shape
    y = np.ones(n)
    c = lam * (N / d) * (n / d)
    G = Z.T @ Z if N <= n else Z @ Z.T
    ev = np.linalg.eigvalsh(G + c * np.eye(len(G)))
    s = np.linalg.svd(Z, compute_uv=False)
    exact = (s[0] ** 2 + c) / (s[-1] ** 2 + c)
    assert exact == pytest.approx(ev[-1] / ev[0], rel=1e-12 + 4 * EPS * exact)
    routes = (
        lambda: ridge_fit(Z, y, lam, d),
        lambda: ridge_path(Z, y, (lam,), d)[0],
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
    _assert_cond_contract(Z, d, lam)
    _assert_cond_contract(Z.T, d, lam)  # the other of primal and dual


@pytest.mark.parametrize("lam", COND_LAMS)
def test_cond_bounds_the_exact_ratio_on_structured_designs(lam):
    # singular values 1 and 1e-7, as a tall (primal) and a wide (dual) design
    tall = np.array([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]])
    _assert_cond_contract(tall, 2, lam)
    _assert_cond_contract(tall.T, 2, lam)
    # a flat spectrum: the bound exceeds 1e12 at 2e-6 while the exact ratio does not
    _assert_cond_contract(500.0 * np.eye(16), 16, lam)
    for N in (30, 40, 60):
        _assert_cond_contract(*_lifted_relu_design(N), lam)


def test_cond_cases_reach_every_branch_of_the_rule():
    # exact although no warning: the bound (2e12) is above 1e12, the ratio is not
    fit_cond, exact = _assert_cond_contract(500.0 * np.eye(16), 16, 2e-6)
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
        ridge_fit(np.diag([1.0, 1e-7]), y, 0.0, 2)
        ridge_path(np.diag([1.0, 1e-7]), y, (0.0,), 2)
        ridge_fit(np.diag([1.0, 0.0]), y, 2e-6, 3000)
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


def _assert_trials_match(swept, k, single, interpolating):
    """Point k of swept matches the lone point of single, trial by trial."""
    assert swept.solver_path[k] == single.solver_path[0]
    assert swept.cond[k] == pytest.approx(single.cond[0], rel=1e-6)
    for q in MEASURED:
        # an interpolating ridgeless fit trains to rounding noise (~1e-25)
        abs_tol = 1e-20 if interpolating and q == "train_error" else 0.0
        expected = getattr(single, q)[0]
        assert getattr(swept, q)[k] == pytest.approx(expected, rel=1e-10, abs=abs_tol), q


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("param", ["psi1", "psi2"])
@pytest.mark.usefixtures("trial_pool")
def test_shape_sweep_trials_match_single_point_trials(param, lam):
    sweep = _shape_sweep(param, lam)
    assert sweep[-1].n_test == 10 * sweep[-1].n
    swept = run_trials(sweep, threads=2)
    _assert_same(swept, run_trials(sweep, threads=1))
    assert swept.test_error.shape == (len(sweep), 3)
    for k, cfg in enumerate(sweep):
        interpolating = lam == 0.0 and cfg.N >= cfg.n
        _assert_trials_match(swept, k, run_trials(cfg, threads=1), interpolating)


@pytest.mark.parametrize("param", ["psi1", "psi2"])
@pytest.mark.usefixtures("trial_pool")
def test_gaussian_covariates_shape_sweep_draws_each_point(param):
    # the surrogate's draws do not nest, so each shape draws as a single point does
    sweep = _shape_sweep(param, 1e-3, model="gaussian_covariates")
    swept = run_trials(sweep, threads=2)
    for k, cfg in enumerate(sweep):
        _assert_same(_part(swept, slice(k, k + 1)), run_trials(cfg, threads=1))


class _KeptBuffer:
    """relu written into one buffer per shape, returned by every call of that shape."""

    def __init__(self):
        self.buffers = {}

    def __call__(self, u):
        return np.maximum(u, 0.0, out=self.buffers.setdefault(np.shape(u), np.empty(np.shape(u))))


def _full_matrix_test_errors(sweep, trial_index):
    """Each point's test error from its whole n_test x N test feature matrix.

    The draws are made here from the trial's streams, as one-shot arrays, and
    every point is fit by ridge_fit, so the sweep must hold one penalty.
    """
    cfg = sweep[0]
    d, seed, sqrt_d = cfg.d, cfg.seed, math.sqrt(cfg.d)
    errors = []
    if cfg.model == "random_features":
        # one draw at the largest shape; each point is scored on its prefix
        n, N, n_test = (max(getattr(c, size) for c in sweep) for size in ("n", "N", "n_test"))
        Theta = sample_sphere(d, N, substream(seed, trial_index, "theta"))
        X = sample_sphere(d, n, substream(seed, trial_index, "x"))
        noise = substream(seed, trial_index, "noise").standard_normal(n)
        y = cfg.target.evaluate(X) + math.sqrt(cfg.tau_sq) * noise
        Z = build_design(X, Theta, cfg.activation)
        X_test = sample_sphere(d, n_test, substream(seed, trial_index, "test"))
        target = cfg.target.evaluate(X_test)
        features = cfg.activation(X_test @ Theta.T / sqrt_d)
        for c in sweep:
            a_hat = ridge_fit(Z[:c.n, :c.N], y[:c.n], c.lam, c.d).a_hat
            residual = target[:c.n_test] - features[:c.n_test, :c.N] @ a_hat
            errors.append(float(np.mean(residual ** 2)))
        return errors
    stats = hermite_stats(cfg.activation)
    beta = cfg.target.beta_norm
    for c in sweep:
        Theta = sample_sphere(d, c.N, substream(seed, trial_index, "theta"))
        rng_w = substream(seed, trial_index, "w")
        X = substream(seed, trial_index, "x").standard_normal((c.n, d))
        W = rng_w.standard_normal((c.n, c.N))
        U = stats.mu0 + stats.mu1 * (X @ Theta.T) / sqrt_d + stats.mu_star * W
        noise = substream(seed, trial_index, "noise").standard_normal(c.n)
        y = beta * X[:, 0] + math.sqrt(c.tau_sq) * noise
        X_test = substream(seed, trial_index, "test").standard_normal((c.n_test, d))
        W_test = rng_w.standard_normal((c.n_test, c.N))
        U_test = stats.mu0 + stats.mu1 * (X_test @ Theta.T) / sqrt_d + stats.mu_star * W_test
        a_hat = ridge_fit(U / sqrt_d, y, c.lam, c.d).a_hat
        errors.append(float(np.mean((beta * X_test[:, 0] - U_test @ a_hat) ** 2)))
    return errors


@pytest.mark.parametrize("model, activation", [
    ("random_features", RELU),
    ("random_features", Activation.custom(_KeptBuffer())),
    # the surrogate uses the activation's moments only
    ("gaussian_covariates", RELU),
], ids=["random_features", "random_features-kept-buffer", "gaussian_covariates"])
@pytest.mark.parametrize("param, n_test", [
    # 1000 rows end in a partial block, 100 fit in one
    ("psi1", 1000), ("psi1", 100),
    # the default 10 n gives 240, 400 and 640 rows: each point stops at its own row
    ("psi2", None),
])
def test_streamed_test_errors_match_the_full_matrix(model, activation, param, n_test):
    field = "N" if param == "psi1" else "n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallTestSetWarning)
        sweep = [
            _small_config(**{"d": 20, "n": 40, "N": 40, "n_test": n_test, "model": model,
                             "activation": activation, field: size})
            for size in (24, 40, 64)
        ]
    for trial_index in (0, 1):
        streamed = run_trial(sweep, trial_index).test_error[:, 0].tolist()
        full = _full_matrix_test_errors(sweep, trial_index)
        assert streamed == pytest.approx(full, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
def test_test_features_are_never_materialised(model):
    # one n_test x N float64 matrix is 128 MB here; a trial stays far below it
    n_test, N = 20000, 800
    cfg = _small_config(d=20, n=100, N=N, n_test=n_test, model=model, trials=1)
    _, peak = _traced_peak(lambda: run_trial(cfg, 0))
    assert peak < n_test * N * 8 / 4


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
def test_test_inputs_are_drawn_block_by_block(model):
    # the n_test x d test inputs are 32 MB here; a trial draws them a block at a time
    n_test, d = 20000, 200
    cfg = _small_config(d=d, n=100, N=100, n_test=n_test, model=model, trials=1)
    _, peak = _traced_peak(lambda: run_trial(cfg, 0))
    assert peak < n_test * d * 8 / 4


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
def test_test_pass_holds_one_block_at_a_time(model):
    # a block's features are freed before the next block is built, and the
    # surrogate draws its rows of W_test an eighth of a block at a time
    N = 1000
    cfg = _small_config(d=20, n=100, N=N, n_test=4 * rfridge.simulate._BLOCK, model=model)
    _, _, test_rows = rfridge.simulate._drawer(cfg)(0, (cfg.n, N, cfg.n_test))
    a_hat = np.full(N, 1.0 / N)
    points = [(a_hat, cfg.n_test), (a_hat[: N // 2], 600)]
    _, peak = _traced_peak(lambda: rfridge.simulate._test_errors(test_rows, points))
    block = rfridge.simulate._BLOCK * N * 8
    assert peak < 1.25 * block


@pytest.mark.parametrize("model", ["random_features", "gaussian_covariates"])
def test_a_trial_drops_its_design_before_its_test_pass(monkeypatch, model):
    # a pool holds one design or one test block per trial in flight, not both
    cfg = _small_config(model=model)
    designs = []
    drawer, test_errors = rfridge.simulate._drawer, rfridge.simulate._test_errors

    def recording_drawer(config):
        draw = drawer(config)

        def recording_draw(trial_index, shape):
            Z, y, test_rows = draw(trial_index, shape)
            designs.append(weakref.ref(Z))
            return Z, y, test_rows

        return recording_draw

    def checked_test_errors(test_rows, points):
        assert designs[-1]() is None
        return test_errors(test_rows, points)

    monkeypatch.setattr(rfridge.simulate, "_drawer", recording_drawer)
    monkeypatch.setattr(rfridge.simulate, "_test_errors", checked_test_errors)
    run_trial([cfg, replace(cfg, lam=1e-1), replace(cfg, N=70)], 0)
    assert len(designs) == (1 if model == "random_features" else 2)


def test_sweep_points_of_one_shape_and_penalty_fit_as_a_single_point():
    # two grid points that round to one shape at one penalty take ridge_fit's
    # path and cond, not ridge_path's SVD
    cfg = _small_config()
    both, single = run_trial([cfg, cfg], 0), run_trial(cfg, 0)
    for k in (0, 1):
        _assert_same(_part(both, slice(k, k + 1)), single)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_one_uint64_word_is_refused(seed):
    message = rf"^seed must be an integer in \[0, 2\*\*64\), got {seed}$"
    with pytest.raises(ValueError, match=message):
        _small_config(seed=seed)


def test_the_largest_seed_keys_its_streams():
    cfg = _small_config(seed=2**64 - 1)
    assert np.isfinite(run_trial(cfg, 0).test_error).all()


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
    # the linear target has no nonlinear power at any d; the other two need d >= 2
    assert nonlinear_power(TargetKind.linear(), 1) == 0.0
    for target in (TargetKind.linear_plus_quad(), TargetKind.linear_plus_cross()):
        with pytest.raises(ValueError, match="^d must be >= 2, got 1$"):
            nonlinear_power(target, 1)


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


@pytest.mark.parametrize("draw", [
    lambda rng, rows: sample_sphere(7, rows, rng),
    # the surrogate's test inputs
    lambda rng, rows: rng.standard_normal((rows, 7)),
], ids=["sample_sphere", "standard_normal"])
def test_block_draws_equal_one_draw(draw):
    # the test pass draws its rows in blocks of 256 from one stream
    whole = draw(substream(6, 2, "test"), 1000)
    rng = substream(6, 2, "test")
    blocks = [draw(rng, min(256, 1000 - lo)) for lo in range(0, 1000, 256)]
    assert np.array_equal(np.concatenate(blocks), whole)


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
    errs = [r.train_error[0, 0] for r in results]
    assert errs[0] >= errs[1] - 1e-10
    assert errs[1] >= errs[2] - 1e-10


def test_run_trial_bitwise_deterministic():
    cfg = _small_config()
    _assert_same(run_trial(cfg, 1), run_trial(cfg, 1))


@pytest.mark.usefixtures("trial_pool")
def test_run_trials_thread_count_invariance():
    # column t is trial t, whether the trials ran in order or in a pool
    cfg = _small_config(trials=4)
    for threads in (1, 4):
        trials = run_trials(cfg, threads=threads)
        assert trials.test_error.shape == (1, 4)
        assert all(v.flags.c_contiguous for k, v in vars(trials).items() if k != "solver_path")
        for t in range(4):
            _assert_same(_part(trials, columns=slice(t, t + 1)), _pinned_trial(cfg, t))


@pytest.mark.parametrize("blas_threads, in_flight", [(2, 1), (1, 2)])
def test_run_trials_budget_counts_blas_threads(monkeypatch, blas_threads, in_flight):
    # threads is a core budget: each trial's BLAS calls take blas_threads of it
    # in a sweep with a ridgeless point, which keeps the BLAS threads
    cfg = _small_config(lam=0.0, trials=2)
    _assert_in_flight(monkeypatch, cfg, blas_threads, 2, in_flight, run_trial)


@pytest.mark.parametrize("threads, trials", [(2, 3), (3, 2)])
@pytest.mark.usefixtures("two_blas_threads")
def test_run_trials_pools_a_gram_route_sweep_at_any_blas_count(monkeypatch, threads, trials):
    # every fit solves normal equations, so BLAS is pinned to one thread and
    # min(threads, trials) trials run at once
    cfg = _small_config(trials=trials)
    _assert_in_flight(monkeypatch, cfg, None, threads, 2, _pinned_trial)


@pytest.mark.parametrize("threads, trials", [(2, 3), (3, 2)])
@pytest.mark.usefixtures("two_blas_threads")
def test_run_trials_pools_a_positive_penalty_sweep_at_any_blas_count(
    monkeypatch, threads, trials
):
    # two penalties on one shape fit from one thin SVD; neither is ridgeless,
    # so BLAS is pinned to one thread as for the normal equations
    cfg = _small_config(trials=trials)
    sweep = [cfg, replace(cfg, lam=1e-1)]
    _assert_in_flight(monkeypatch, sweep, None, threads, 2, _pinned_trial)


@pytest.mark.usefixtures("two_blas_threads")
def test_run_trials_keeps_the_blas_threads_for_a_sweep_with_a_ridgeless_point(monkeypatch):
    # lam = 0 beside the positive penalties: BLAS keeps its two threads, which
    # fill the budget of two cores, so the trials run in order
    cfg = _small_config(trials=2)
    sweep = [cfg, replace(cfg, lam=1e-1), replace(cfg, lam=0.0)]
    _assert_in_flight(monkeypatch, sweep, None, 2, 1, run_trial)


@pytest.mark.usefixtures("two_blas_threads")
def test_a_pinned_pool_draws_its_trials_at_once(monkeypatch):
    # both trials of a pool of two are inside their draws before either fits
    cfg = _small_config(trials=2)
    in_order = run_trials(cfg, threads=1)
    meet = threading.Barrier(2, timeout=10.0)
    drawer = rfridge.simulate._drawer

    def meeting_drawer(config):
        draw = drawer(config)

        def meeting_draw(trial_index, shape):
            meet.wait()  # raises BrokenBarrierError if the other trial never draws
            return draw(trial_index, shape)

        return meeting_draw

    monkeypatch.setattr(rfridge.simulate, "_drawer", meeting_drawer)
    monkeypatch.setattr(rfridge._blas, "cores", lambda: 2)
    _assert_same(run_trials(cfg, threads=2), in_order)


def test_run_trials_keeps_the_budget_rule_where_blas_cannot_be_pinned(monkeypatch):
    monkeypatch.setattr(rfridge._blas, "_setter", None)
    _assert_in_flight(monkeypatch, _small_config(trials=2), 2, 2, 1, run_trial)


@pytest.mark.usefixtures("trial_pool")
def test_run_trials_counts_no_budget_past_the_usable_cores(monkeypatch):
    # each worker holds a design, so a budget past the cores only costs memory
    pools = []

    class InOrder:
        """Records max_workers and maps in order on the calling thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(rfridge.simulate, "ThreadPoolExecutor", InOrder)
    monkeypatch.setattr(rfridge._blas, "cores", lambda: 2)
    cfg = _small_config(trials=8)
    trials = run_trials(cfg, threads=64)
    assert pools == [2]
    _assert_same(_part(trials, columns=slice(7, 8)), _pinned_trial(cfg, 7))


@pytest.mark.parametrize("threads", [0, -4, 1.5, "2"])
def test_run_trials_refuses_a_threads_that_is_not_a_positive_integer(threads, monkeypatch):
    # refused before any draw, not run silently one trial at a time
    opened = []
    monkeypatch.setattr(rfridge.simulate, "substream", lambda *args: opened.append(args))
    with pytest.raises(ValueError, match="^threads must be a positive integer, got "):
        run_trials(_small_config(), threads=threads)
    assert opened == []


def _assert_in_flight(monkeypatch, cfg, blas_threads, threads, in_flight, lone_trial):
    """run_trials(cfg, threads) under a reported BLAS count has in_flight trials at once.

    cfg is a config or a sweep of them.  A blas_threads of None leaves the
    BLAS count as it is.  The usable cores are reported as threads, so the
    budget is threads on any machine.  The columns must equal lone_trial(cfg, t).
    """
    lock = threading.Lock()
    running, peak = [0], [0]
    second = threading.Event()
    real = rfridge.simulate.run_trial

    def spy(point, t, **bound):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            if running[0] == 2:
                second.set()
        second.wait(timeout=0.5)  # a pooled second trial starts meanwhile
        with lock:
            running[0] -= 1
        return real(point, t, **bound)

    if blas_threads is not None:
        monkeypatch.setattr(rfridge._blas, "threads", lambda: blas_threads)
    monkeypatch.setattr(rfridge._blas, "cores", lambda: threads)
    monkeypatch.setattr(rfridge.simulate, "run_trial", spy)
    trials = run_trials(cfg, threads=threads)
    assert peak[0] == in_flight
    for t in range(rfridge.simulate._sweep(cfg)[0].trials):
        _assert_same(_part(trials, columns=slice(t, t + 1)), lone_trial(cfg, t))


# ---------------------------------------------------------------------------
# trials and measurement
# ---------------------------------------------------------------------------

def test_trial_solver_paths():
    assert run_trial(_small_config(N=50), 0).solver_path == ("primal",)
    assert run_trial(_small_config(N=70), 0).solver_path == ("dual",)
    assert run_trial(_small_config(lam=0.0), 0).solver_path == ("svd",)


def test_train_error_includes_penalty():
    r = run_trial(_small_config(), 0)
    assert r.penalty[0, 0] == pytest.approx(50 * 1e-3 / 40 * r.norm_sq[0, 0], rel=1e-12)
    assert r.train_error[0, 0] >= r.penalty[0, 0]


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
    assert r.test_error[0, 0] == pytest.approx(expected, abs=0.15)
    assert r.norm_sq[0, 0] <= 1e-12


def test_training_error_below_test_error_when_underparametrized():
    cfg = _small_config(tau_sq=0.0, lam=1e-8, N=20)
    r = run_trial(cfg, 0)
    assert r.train_error[0, 0] < r.test_error[0, 0]


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


@pytest.mark.parametrize("trials", [0, -1, 2.0, 1.5, "2"])
def test_trials_must_be_a_positive_integer(trials):
    # a float count would reach run_trials' range() as a bare TypeError
    with pytest.raises(ValueError, match=rf"^trials must be a positive integer, got {trials!r}$"):
        _small_config(trials=trials)


def test_small_test_set_warns():
    with pytest.warns(SmallTestSetWarning) as caught:
        _small_config(n_test=500)
    # attributed to the line that built the config, not the generated __init__
    assert all(w.filename == __file__ for w in caught)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _table(*rows) -> Trials:
    """Points whose trials measure rows (penalty 0), on the primal path at cond 1."""
    values = np.array(rows, dtype=float)
    return Trials(values, values, np.zeros_like(values), values, np.ones_like(values),
                  solver_path=("primal",) * len(values))


def test_aggregate_hand_values():
    agg = aggregate(_table([1.0, 3.0], [2.0, 2.0]))
    assert list(agg) == [f"{q}_{stat}" for q in MEASURED for stat in ("mean", "sem")]
    assert all(v.shape == (2,) for v in agg.values())
    assert agg["test_error_mean"].tolist() == [2.0, 2.0]
    # sample std of {1,3} is sqrt(2), sem = sqrt(2)/sqrt(2) = 1
    assert agg["test_error_sem"][0] == pytest.approx(1.0, abs=1e-15)
    assert agg["norm_sq_mean"][0] == pytest.approx(2.0, abs=1e-15)
    assert agg["penalty_mean"].tolist() == agg["penalty_sem"].tolist() == [0.0, 0.0]


def test_aggregate_identical_trials_zero_sem():
    agg = aggregate(_table([0.7] * 5))
    assert agg["test_error_sem"][0] == 0.0
    assert agg["train_error_sem"][0] == 0.0


def test_aggregate_matches_numpy_formulas():
    # each row to the bits of np.mean and np.std(ddof=1) / sqrt(n) of a 1-D array
    rng = np.random.default_rng(12)
    for count in (2, 3, 20, 129, 300):
        rows = rng.standard_normal((3, count))
        agg = aggregate(_table(*rows))
        for k, row in enumerate(rows):
            assert agg["test_error_mean"][k] == float(np.mean(row))
            assert agg["test_error_sem"][k] == float(np.std(row, ddof=1) / math.sqrt(count))


def test_aggregate_requires_two_trials():
    with pytest.raises(InsufficientTrials, match="^need at least 2 trials for a standard error"):
        aggregate(_table([1.0]))


# ---------------------------------------------------------------------------
# gaussian covariates surrogate
# ---------------------------------------------------------------------------

def test_gaussian_covariates_trial_runs():
    cfg = _small_config(model="gaussian_covariates")
    r = run_trial(cfg, 0)
    assert math.isfinite(r.test_error[0, 0]) and r.test_error[0, 0] > 0.0
    assert math.isfinite(r.train_error[0, 0]) and r.train_error[0, 0] > 0.0
    _assert_same(r, run_trial(cfg, 0))


def test_surrogate_features_round_as_the_out_of_place_expression():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((600, 20))
    Theta = sample_sphere(20, 40, rng)
    # W is drawn in blocks of rows, continuing one stream
    W = substream(1, 0, "w").standard_normal((600, 40))
    stats = hermite_stats(RELU)
    expected = stats.mu0 + stats.mu1 * (X @ Theta.T) / math.sqrt(20) + stats.mu_star * W
    U = rfridge.simulate._surrogate_features(X, Theta, substream(1, 0, "w"), stats)
    assert np.array_equal(U, expected)


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
    for t in range(2):
        _assert_same(_part(results, columns=slice(t, t + 1)), _pinned_trial(cfg, t))


def test_run_trial_draws_the_configured_model():
    cfg = _small_config(model="gaussian_covariates")
    surrogate = _pinned_trial(cfg, 0)
    _assert_same(surrogate, _part(run_trials(cfg, 1), columns=slice(0, 1)))
    features = run_trial(replace(cfg, model="random_features"), 0)
    assert surrogate.test_error[0, 0] != features.test_error[0, 0]


def test_surrogate_measures_the_activation_once_per_call(monkeypatch):
    # a custom activation without stats is integrated at order 64 and its
    # doubling once per run_trials or run_trial call, not once per draw
    orders = []
    raw_moments = rfridge.activations._raw_moments
    monkeypatch.setattr(rfridge.activations, "_raw_moments",
                        lambda activation, order: orders.append(order) or raw_moments(activation, order))
    cfg = _small_config(model="gaussian_covariates", activation=Activation.custom(np.tanh),
                        trials=3)
    trials = run_trials(cfg, threads=1)
    assert orders == [64, 128]
    orders.clear()
    swept = _pinned_trial([cfg, replace(cfg, N=70)], 2)
    _assert_same(_part(swept, slice(0, 1)), _part(trials, columns=slice(2, 3)))
    assert orders == [64, 128]


def test_surrogate_quadrature_failure_raises_before_any_draw(monkeypatch):
    # a kink off the cut at 0, given no breakpoint, fails the certificate
    opened = []
    monkeypatch.setattr(rfridge.simulate, "substream", lambda *args: opened.append(args))
    cfg = _small_config(model="gaussian_covariates",
                        activation=Activation.custom(lambda u: np.abs(u - 0.5) + u), trials=3)
    with pytest.raises(QuadratureFailure):
        run_trials(cfg)
    with pytest.raises(QuadratureFailure):
        run_trial(cfg, 0)
    assert opened == []
