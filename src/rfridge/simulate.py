"""Finite-dimensional Monte Carlo of ridge-regularized random-features regression.

One trial draws feature directions and data at finite (d, n, N), fits the
penalized least-squares coefficients, and measures test error on a fresh
sample, the training objective, and the coefficient norm.  Aggregation over
trials produces means with standard errors for comparison against the
asymptotic theory.

Randomness is counter-based and fully keyed: trial ``t`` of a run with seed
``s`` draws from Philox4x64 streams keyed by the 64-bit pair
(s, 8 t + purpose), with purpose ids theta=0, x=1, noise=2, test=3, w=4.
Trials are therefore independent of execution order and thread count.  Each
stream is consumed row by row, so a random-features draw with more features,
samples or test points extends the rows of a smaller one drawn under the same
key (prefix nesting).  A sweep over N or n relies on this: it draws each trial
once at the sweep's largest shape and fits every point on prefix slices of
that draw.  The one exception is sample_sphere redrawing a row whose norm is
below 1e-12, which happens with probability about 0 and breaks the nesting
for that trial only.  The Gaussian-covariates draws do not nest (the noise
matrices are drawn row-major, the training one before the test one from the
same stream), so that model draws once per shape.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _blas
from .activations import Activation, hermite_stats


class InsufficientTrials(ValueError):
    """Aggregation needs at least two trials for a standard error."""


class IllConditionedWarning(UserWarning):
    """The linear system behind the fit had condition number above 1e12."""


class SmallTestSetWarning(UserWarning):
    """n_test below 1000 makes per-trial test errors noisy."""


_PURPOSE = {"theta": 0, "x": 1, "noise": 2, "test": 3, "w": 4}


def substream(seed: int, trial_index: int, purpose: str) -> np.random.Generator:
    """Independent generator for one (trial, purpose) slot of a seeded run."""
    key = [np.uint64(seed), np.uint64(8 * trial_index + _PURPOSE[purpose])]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TargetKind:
    """Regression target on the sphere of radius sqrt(d).

    linear:            f(x) = beta_norm * x_1
    linear_plus_quad:  f(x) = x_1 + (x_1^2 - 1) / 2
    linear_plus_cross: f(x) = x_1 + x_1 x_2 / sqrt(2)

    The linear component always has power beta_norm^2 (1 for the nonlinear
    targets); the quadratic additions carry dimension-dependent excess power
    given by nonlinear_power, vanishing like 1/2 as d grows.
    """

    name: str
    beta_norm: float = 1.0

    _KNOWN = ("linear", "linear_plus_quad", "linear_plus_cross")

    def __post_init__(self):
        if self.name not in self._KNOWN:
            raise ValueError(f"unknown target {self.name!r}, expected one of {self._KNOWN}")
        if self.name != "linear" and self.beta_norm != 1.0:
            raise ValueError("only the linear target takes a beta_norm")
        if not (math.isfinite(self.beta_norm) and self.beta_norm > 0.0):
            raise ValueError(f"beta_norm must be finite and positive, got {self.beta_norm}")

    @classmethod
    def linear(cls, beta_norm: float = 1.0) -> "TargetKind":
        return cls("linear", beta_norm)

    @classmethod
    def linear_plus_quad(cls) -> "TargetKind":
        return cls("linear_plus_quad")

    @classmethod
    def linear_plus_cross(cls) -> "TargetKind":
        return cls("linear_plus_cross")

    @property
    def f1_sq(self) -> float:
        return self.beta_norm * self.beta_norm

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        x1 = X[:, 0]
        if self.name == "linear":
            return self.beta_norm * x1
        if self.name == "linear_plus_quad":
            return x1 + (x1 * x1 - 1.0) / 2.0
        return x1 + x1 * X[:, 1] / math.sqrt(2.0)


def nonlinear_power(target: TargetKind, d: int) -> float:
    """Exact power of the non-linear target component at dimension d.

    Computed from the sphere moments E[x1^2] = 1, E[x1^4] = 3d/(d+2),
    E[x1^2 x2^2] = d/(d+2): the quadratic term of linear_plus_quad carries
    (d-1)/(2(d+2)) and the cross term of linear_plus_cross d/(2(d+2)).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if target.name == "linear":
        return 0.0
    if target.name == "linear_plus_quad":
        return (d - 1.0) / (2.0 * (d + 2.0))
    return d / (2.0 * (d + 2.0))


@dataclass(frozen=True)
class SimConfig:
    """One finite-dimensional experiment: shape, penalty, activation, target, RNG seed.

    The penalty enters the objective as (N lambda / d) ||a||^2; all theory
    conversions downstream use the realized ratios N/d and n/d, never nominal
    ones.  n_test defaults to 10 n.
    """

    d: int
    n: int
    N: int
    lam: float
    activation: Activation
    target: TargetKind
    tau_sq: float = 0.0
    trials: int = 1
    seed: int = 0
    n_test: int | None = None
    model: str = "random_features"

    def __post_init__(self):
        for name in ("d", "n", "N"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.tau_sq) and self.tau_sq >= 0.0):
            raise ValueError(f"tau_sq must be finite and >= 0, got {self.tau_sq}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.model not in ("random_features", "gaussian_covariates"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n_test is None:
            object.__setattr__(self, "n_test", 10 * self.n)
        if not (isinstance(self.n_test, (int, np.integer)) and self.n_test >= 1):
            raise ValueError(f"n_test must be a positive integer, got {self.n_test!r}")
        if self.n_test < 1000:
            warnings.warn(
                f"n_test = {self.n_test} is small; per-trial test errors will be noisy",
                SmallTestSetWarning,
                stacklevel=2,
            )

    @property
    def psi1_d(self) -> float:
        return self.N / self.d

    @property
    def psi2_d(self) -> float:
        return self.n / self.d


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with solver provenance and conditioning.

    cond is an upper bound on the condition number of the fit's normal matrix
    (primal or dual, whichever was solved), exact when above 1e12 and on the
    ridgeless (lam <= 1e-6) branch; see ridge_fit and ridge_path.
    """

    a_hat: np.ndarray
    solver_path: str
    cond: float


@dataclass(frozen=True)
class TrialResult:
    """Measured errors of one trial.

    train_error is the full objective value (mean squared residual plus
    penalty); penalty and coef_norm_sq are reported separately so the
    coefficient-norm asymptotics can be checked on their own.  solver_path
    and cond are those of the trial's FitResult.
    """

    trial_index: int
    test_error: float
    train_error: float
    penalty: float
    coef_norm_sq: float
    solver_path: str
    cond: float


@dataclass(frozen=True)
class AggregateResult:
    """Across-trial means and standard errors of the mean."""

    n_trials: int
    test_error_mean: float
    test_error_sem: float
    train_error_mean: float
    train_error_sem: float
    penalty_mean: float
    penalty_sem: float
    coef_norm_sq_mean: float
    coef_norm_sq_sem: float


def sample_sphere(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count i.i.d. rows uniform on the sphere of radius sqrt(d)."""
    X = rng.standard_normal((count, d))
    norms = np.linalg.norm(X, axis=1)
    # a zero draw has probability ~0 but would poison the normalization
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        X[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(X, axis=1)
    return X * (math.sqrt(d) / norms)[:, None]


def build_design(X: np.ndarray, Theta: np.ndarray, activation: Activation) -> np.ndarray:
    """Design matrix Z = sigma(X Theta^T / sqrt(d)) / sqrt(d), shape (n, N)."""
    d = X.shape[1]
    if Theta.shape[1] != d:
        raise ValueError(f"dimension mismatch: X has d={d}, Theta has d={Theta.shape[1]}")
    return _features(X, Theta, activation) / math.sqrt(d)


def _features(X: np.ndarray, Theta: np.ndarray, activation: Activation) -> np.ndarray:
    """sigma(X Theta^T / sqrt(d)), scaling the product in place.

    The in-place division rounds exactly as the out-of-place one and saves a
    temporary of the output's size.  The activation stays out of place: a
    custom evaluator may return its input or a buffer it keeps.
    """
    P = X @ Theta.T
    P /= math.sqrt(X.shape[1])
    return activation(P)


def _fit_scale(
    Z: np.ndarray, y: np.ndarray, lams: Sequence[float], psi1_d: float, psi2_d: float
) -> float:
    """sqrt(d) for a fit of y on Z, after checking shapes, penalties and ratios."""
    n, N = Z.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    for lam in lams:
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
    d = N / psi1_d
    if abs(d - n / psi2_d) > 1e-9 * max(1.0, d):
        raise ValueError(
            f"inconsistent ratios: N/psi1_d = {d} but n/psi2_d = {n / psi2_d}"
        )
    return math.sqrt(d)


# Above this condition number a fit warns, and reports the exact value.
_COND_LIMIT = 1e12


def _warn_if_ill_conditioned(cond: float) -> None:
    """Warn at the caller of the public fit function that called this one."""
    if cond > _COND_LIMIT:
        warnings.warn(
            f"linear system condition number {cond:.3e} exceeds 1e12",
            IllConditionedWarning,
            stacklevel=3,
        )


def _exact_cond(s: np.ndarray, c: float) -> float:
    """The normal matrix's condition number from the singular values s of Z, at penalty c."""
    return float((s[0] * s[0] + c) / (s[-1] * s[-1] + c))


def _svd_fits(
    Z: np.ndarray, y: np.ndarray, lams: Sequence[float], psi1_d: float, psi2_d: float
) -> list[FitResult]:
    """ridge_path without the conditioning warning."""
    sqrt_d = _fit_scale(Z, y, lams, psi1_d, psi2_d)
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    cutoff = 1e-10 * s[0] if s.size else 0.0
    keep = s > cutoff
    s_kept = s[keep]
    Uty_kept = U[:, keep].T @ y
    V_kept = Vt[keep].T
    Uty = U.T @ y
    fro_sq = float(s @ s)
    fits = []
    for lam in lams:
        c = lam * psi1_d * psi2_d
        if lam <= 1e-6:
            coef = (s_kept / (s_kept * s_kept + c)) * Uty_kept
            a_hat = V_kept @ coef / sqrt_d
            cond = float((s[0] / s_kept[-1]) ** 2) if s_kept.size else 1.0
        else:
            a_hat = Vt.T @ ((s / (s * s + c)) * Uty) / sqrt_d
            cond = (fro_sq + c) / c
            if cond > _COND_LIMIT:
                cond = _exact_cond(s, c)
        fits.append(FitResult(a_hat=a_hat, solver_path="svd", cond=cond))
    return fits


def ridge_path(
    Z: np.ndarray, y: np.ndarray, lams: Sequence[float], psi1_d: float, psi2_d: float
) -> list[FitResult]:
    """The ridge_fit objective at every penalty in lams, from one thin SVD of Z.

    With c = lam psi1_d psi2_d, each component is shrunk by s / (s^2 + c).
    For lam <= 1e-6 (including the exact ridgeless case lam = 0) components
    below 1e-10 * sigma_max are dropped first, which at lam = 0 is exactly the
    minimum-norm pseudo-inverse solution, and cond is (s_max / s_kept_min)^2,
    the condition number of the normal matrix on the kept subspace.  Above
    1e-6 every component is kept and cond is the same certified bound as
    ridge_fit's, (sum s^2 + c) / c, replaced by the exact
    (s_max^2 + c) / (s_min^2 + c) when the bound exceeds 1e12.  A sweep row
    thus reports the cond of a ridge_fit call of the same point.
    """
    fits = _svd_fits(Z, y, lams, psi1_d, psi2_d)
    for fit in fits:
        _warn_if_ill_conditioned(fit.cond)
    return fits


def ridge_fit(
    Z: np.ndarray, y: np.ndarray, lam: float, psi1_d: float, psi2_d: float
) -> FitResult:
    """Minimize (1/n) ||y - sqrt(d) Z a||^2 + (N lam / d) ||a||^2.

    The normal equations are (Z^T Z + lam psi1_d psi2_d I) a = Z^T y / sqrt(d),
    solved in whichever of the primal (N x N) or dual (n x n) dimension is
    smaller.  With c = lam psi1_d psi2_d the normal matrix M has
    lambda_min >= c and lambda_max <= ||Z||_F^2 + c, so cond is the certified
    bound (||Z||_F^2 + c) / c, read off the trace of the Gram; only when that
    bound exceeds 1e12 is it replaced by the exact ratio
    (s_max^2 + c) / (s_min^2 + c) from the singular values of Z, as in
    ridge_path.
    For lam <= 1e-6 (including the exact ridgeless case lam = 0) the fit is
    the singular-value one of ridge_path.
    """
    if lam <= 1e-6:
        (fit,) = _svd_fits(Z, y, (lam,), psi1_d, psi2_d)
        _warn_if_ill_conditioned(fit.cond)
        return fit
    sqrt_d = _fit_scale(Z, y, (lam,), psi1_d, psi2_d)
    n, N = Z.shape
    c = lam * psi1_d * psi2_d
    primal = N <= n
    M = Z.T @ Z if primal else Z @ Z.T
    cond = (float(np.trace(M)) + c) / c
    M[np.diag_indices_from(M)] += c
    if primal:
        a_hat = np.linalg.solve(M, Z.T @ y) / sqrt_d
    else:
        a_hat = Z.T @ np.linalg.solve(M, y) / sqrt_d
    if cond > _COND_LIMIT:
        cond = _exact_cond(np.linalg.svd(Z, compute_uv=False), c)
    _warn_if_ill_conditioned(cond)
    return FitResult(a_hat=a_hat, solver_path="primal" if primal else "dual", cond=cond)


# A trial's draw: training design Z, targets y, test features, test target.
_Draw = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# The sizes a draw depends on: (n, N, n_test).
_Shape = tuple[int, int, int]


def _prefix(draw: _Draw, shape: _Shape) -> _Draw:
    """The draw of a smaller shape, as prefix slices of a nested one."""
    n, N, n_test = shape
    Z, y, test_features, test_target = draw
    return Z[:n, :N], y[:n], test_features[:n_test, :N], test_target[:n_test]


def _measure(config: SimConfig, fit: FitResult, draw: _Draw, trial_index: int) -> TrialResult:
    Z, y, test_features, test_target = draw
    residual = y - math.sqrt(config.d) * (Z @ fit.a_hat)
    coef_norm_sq = float(fit.a_hat @ fit.a_hat)
    penalty = config.N * config.lam / config.d * coef_norm_sq
    train_error = float(residual @ residual) / config.n + penalty
    test_error = float(np.mean((test_target - test_features @ fit.a_hat) ** 2))
    return TrialResult(
        trial_index=trial_index,
        test_error=test_error,
        train_error=train_error,
        penalty=penalty,
        coef_norm_sq=coef_norm_sq,
        solver_path=fit.solver_path,
        cond=fit.cond,
    )


def _random_features_draw(config: SimConfig, trial_index: int, shape: _Shape) -> _Draw:
    n, N, n_test = shape
    d = config.d
    Theta = sample_sphere(d, N, substream(config.seed, trial_index, "theta"))
    X = sample_sphere(d, n, substream(config.seed, trial_index, "x"))
    noise = substream(config.seed, trial_index, "noise").standard_normal(n)
    y = config.target.evaluate(X) + math.sqrt(config.tau_sq) * noise
    Z = build_design(X, Theta, config.activation)
    X_test = sample_sphere(d, n_test, substream(config.seed, trial_index, "test"))
    test_features = _features(X_test, Theta, config.activation)
    return Z, y, test_features, config.target.evaluate(X_test)


def _gaussian_covariates_draw(config: SimConfig, trial_index: int, shape: _Shape) -> _Draw:
    if config.target.name != "linear":
        raise ValueError("the gaussian covariates surrogate is defined for the linear target only")
    stats = hermite_stats(config.activation)  # raises DegenerateActivation if mu_star = 0
    n, N, n_test = shape
    d = config.d
    sqrt_d = math.sqrt(d)
    Theta = sample_sphere(d, N, substream(config.seed, trial_index, "theta"))
    rng_w = substream(config.seed, trial_index, "w")
    X = substream(config.seed, trial_index, "x").standard_normal((n, d))
    W = rng_w.standard_normal((n, N))
    U = stats.mu0 + stats.mu1 * (X @ Theta.T) / sqrt_d + stats.mu_star * W
    noise = substream(config.seed, trial_index, "noise").standard_normal(n)
    y = config.target.beta_norm * X[:, 0] + math.sqrt(config.tau_sq) * noise
    X_test = substream(config.seed, trial_index, "test").standard_normal((n_test, d))
    W_test = rng_w.standard_normal((n_test, N))
    U_test = stats.mu0 + stats.mu1 * (X_test @ Theta.T) / sqrt_d + stats.mu_star * W_test
    return U / sqrt_d, y, U_test, config.target.beta_norm * X_test[:, 0]


def _sweep(config: SimConfig | Sequence[SimConfig]) -> tuple[SimConfig, ...]:
    """The configs of a sweep (one for a lone config), checked to differ only in shape and lam."""
    configs = (config,) if isinstance(config, SimConfig) else tuple(config)
    if not configs:
        raise ValueError("a sweep needs at least one config")
    fixed = ("d", "activation", "target", "tau_sq", "trials", "seed", "model")
    for other in configs[1:]:
        for name in fixed:
            if getattr(other, name) != getattr(configs[0], name):
                raise ValueError(f"sweep configs differ in {name}; only n, N, n_test and lam may vary")
    return configs


def run_trial(
    config: SimConfig | Sequence[SimConfig], trial_index: int
) -> TrialResult | list[TrialResult]:
    """One trial of config.model: draw, fit, measure.

    Test error is measured against the noiseless target on a fresh test
    sample.  Noise variates are drawn even when tau_sq = 0 (then scaled away)
    so that configurations differing only in noise level share all other
    randomness.  Given a sweep, a sequence of configs that differ only in n,
    N, n_test and lam, the result is one TrialResult per config.  Points of
    one shape share a draw and are fit together: by ridge_fit at one distinct
    penalty, by ridge_path from one factorization at several.  A
    random-features trial is drawn once at the sweep's largest shape, and
    every point fits on prefix slices of that draw.

    The "gaussian_covariates" model is the matched surrogate: covariates are
    u = mu0 + mu1 Theta x / sqrt(d) + mu_star w with Gaussian x and w, keeping
    only the activation's moment profile; the target must be linear.  The
    ridge objective and measurements coincide with the random-features ones
    under Z = U / sqrt(d).  The training noise matrix is drawn from the "w"
    stream first, the test noise matrix second; test inputs come from the
    "test" stream.  These draws do not nest across shapes, so a sweep draws
    once per distinct (n, N, n_test) and shares that draw only among the
    penalties of one shape.
    """
    configs = _sweep(config)
    nested = configs[0].model == "random_features"
    draw = _random_features_draw if nested else _gaussian_covariates_draw
    groups: dict[_Shape, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.n, c.N, c.n_test), []).append(i)
    if nested:
        largest = tuple(max(sizes) for sizes in zip(*groups))
        full = draw(configs[0], trial_index, largest)
    results = [None] * len(configs)
    for shape, members in groups.items():
        first = configs[members[0]]
        data = _prefix(full, shape) if nested else draw(first, trial_index, shape)
        Z, y = data[0], data[1]
        lams = [configs[i].lam for i in members]
        if len(set(lams)) == 1:
            fits = [ridge_fit(Z, y, lams[0], first.psi1_d, first.psi2_d)] * len(lams)
        else:
            fits = ridge_path(Z, y, lams, first.psi1_d, first.psi2_d)
        for i, fit in zip(members, fits):
            results[i] = _measure(configs[i], fit, data, trial_index)
    return results[0] if isinstance(config, SimConfig) else results


def run_trials(
    config: SimConfig | Sequence[SimConfig], threads: int | None = None
) -> list:
    """All trials of a config, in trial order, within a budget of threads cores.

    Each BLAS call already uses _blas.threads() cores, so threads // that many
    trials run at once: one at a time (BLAS parallel inside each) under
    numpy's default threading, several when BLAS is held to fewer threads
    than the budget, e.g. by OPENBLAS_NUM_THREADS=1.  Per-trial randomness is
    keyed, not sequential, so at a fixed BLAS thread count the result is
    identical for any budget.  Given a sweep (a sequence of configs, see
    run_trial), each trial is drawn once for all of them, and the result is
    one list of trials per config, in the order of the sweep.
    """
    configs = _sweep(config)
    point = configs[0] if isinstance(config, SimConfig) else configs
    indices = range(configs[0].trials)
    workers = max(1, min(len(indices), (threads or 1) // _blas.threads()))
    if workers == 1:
        results = [run_trial(point, t) for t in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: run_trial(point, t), indices))
    return results if isinstance(config, SimConfig) else [list(per) for per in zip(*results)]


def _mean_sem(values: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    return m, sem


def aggregate(results: Sequence[TrialResult]) -> AggregateResult:
    """Means and standard errors across at least two trials."""
    if len(results) < 2:
        raise InsufficientTrials(
            f"need at least 2 trials for a standard error, got {len(results)}"
        )
    test = np.array([r.test_error for r in results])
    train = np.array([r.train_error for r in results])
    pen = np.array([r.penalty for r in results])
    norm = np.array([r.coef_norm_sq for r in results])
    te = _mean_sem(test)
    tr = _mean_sem(train)
    pe = _mean_sem(pen)
    no = _mean_sem(norm)
    return AggregateResult(
        n_trials=len(results),
        test_error_mean=te[0],
        test_error_sem=te[1],
        train_error_mean=tr[0],
        train_error_sem=tr[1],
        penalty_mean=pe[0],
        penalty_sem=pe[1],
        coef_norm_sq_mean=no[0],
        coef_norm_sq_sem=no[1],
    )
