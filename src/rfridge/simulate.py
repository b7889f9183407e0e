"""Finite-dimensional Monte Carlo of ridge-regularized random-features regression.

One trial draws feature directions and data at finite (d, n, N), fits the
penalized least-squares coefficients, and measures test error on a fresh
sample, the training objective, and the coefficient norm.  The test sample is
drawn, featurized and scored in blocks of rows, so a trial holds its design
and a few blocks, never the n_test x d test inputs nor an n_test x N feature
matrix.  Aggregation over trials produces means with standard errors for
comparison against the asymptotic theory.

Randomness is counter-based and fully keyed: trial ``t`` of a run with seed
``s`` draws from Philox4x64 streams keyed by the 64-bit pair
(s, 8 t + purpose), with purpose ids theta=0, x=1, noise=2, test=3, w=4.
Trials are therefore independent of execution order and thread count.  Each
stream is consumed row by row, so a random-features draw with more features,
samples or test points extends the rows of a smaller one drawn under the same
key (prefix nesting).  A sweep over N or n relies on this: it draws each trial
once at the sweep's largest shape and fits every point on prefix slices of
that draw.  The test pass relies on it too: it draws the test rows block by
block from one stream, and gets the rows of a single draw.  The one exception
is sample_sphere redrawing a row whose norm is below 1e-12, which happens
with probability about 0 and breaks the nesting for that trial only.  The
Gaussian-covariates draws do not nest (the noise matrices are drawn
row-major, the training one before the test one from the same stream), so
that model draws once per shape.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _blas
from .activations import Activation, HermiteStats, hermite_stats


class InsufficientTrials(ValueError):
    """Aggregation needs at least two trials for a standard error."""


class IllConditionedWarning(UserWarning):
    """The linear system behind the fit had condition number above 1e12."""


class SmallTestSetWarning(UserWarning):
    """n_test below 1000 makes per-trial test errors noisy."""


# the fewest test points SimConfig takes without SmallTestSetWarning
SMALL_TEST_SET = 1000


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
    The linear target has none at any d; the other two need d >= 2.
    """
    if target.name == "linear":
        return 0.0
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
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
        for name in ("d", "n", "N", "trials"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        # the nonlinear targets read x_1 and x_2 (nonlinear_power's d >= 2)
        if self.target.name != "linear" and self.d < 2:
            raise ValueError(f"the {self.target.name} target needs d >= 2, got d = {self.d}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.tau_sq) and self.tau_sq >= 0.0):
            raise ValueError(f"tau_sq must be finite and >= 0, got {self.tau_sq}")
        # substream keys each run with the seed as one uint64 word
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.model not in ("random_features", "gaussian_covariates"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n_test is None:
            object.__setattr__(self, "n_test", 10 * self.n)
        if not (isinstance(self.n_test, (int, np.integer)) and self.n_test >= 1):
            raise ValueError(f"n_test must be a positive integer, got {self.n_test!r}")
        if self.n_test < SMALL_TEST_SET:
            warnings.warn(
                f"n_test = {self.n_test} is small; per-trial test errors will be noisy",
                SmallTestSetWarning,
                # past __post_init__ and the generated __init__, to the caller
                stacklevel=3,
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


# the Trials fields aggregate reduces
_MEASURES = ("test_error", "train_error", "penalty", "norm_sq")


@dataclass(frozen=True, eq=False)
class Trials:
    """Measured errors of a sweep's trials: row i is point i, column t trial t.

    Each measure, and the cond of each fit (FitResult), is a C-contiguous
    (points, trials) array.  train_error is the full objective value (mean
    squared residual plus penalty); penalty and norm_sq = ||a_hat||^2 are
    reported separately so the coefficient-norm asymptotics can be checked
    on their own.  solver_path holds one path per point, the one every
    trial of that point takes.
    """

    test_error: np.ndarray
    train_error: np.ndarray
    penalty: np.ndarray
    norm_sq: np.ndarray
    cond: np.ndarray
    solver_path: tuple[str, ...]


# The test rows a trial scores at once.  A block's inputs, features and
# temporaries are a few _BLOCK x N arrays, whatever n_test is; much larger
# blocks bring back the memory streaming saves, much smaller ones pay numpy's
# per-call overhead.
_BLOCK = 256


def sample_sphere(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count i.i.d. rows uniform on the sphere of radius sqrt(d).

    Each row is drawn and scaled on its own, so successive calls on one
    stream return the rows of a single call of their total count (unless a
    row is redrawn, see the module docstring).
    """
    X = rng.standard_normal((count, d))
    norms = np.linalg.norm(X, axis=1)
    # a zero draw has probability ~0 but would poison the normalization
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        X[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(X, axis=1)
    X *= (math.sqrt(d) / norms)[:, None]
    return X


def build_design(X: np.ndarray, Theta: np.ndarray, activation: Activation) -> np.ndarray:
    """Design matrix Z = sigma(X Theta^T / sqrt(d)) / sqrt(d), shape (n, N).

    A built-in activation builds Z in the one n x N buffer of the product.
    A custom one divides out of place, since its evaluator may return a
    buffer it keeps.
    """
    d = X.shape[1]
    if Theta.shape[1] != d:
        raise ValueError(f"dimension mismatch: X has d={d}, Theta has d={Theta.shape[1]}")
    F = _features(X, Theta, activation)
    if activation.kind == "custom":
        return F / math.sqrt(d)
    F /= math.sqrt(d)
    return F


def _features(X: np.ndarray, Theta: np.ndarray, activation: Activation) -> np.ndarray:
    """sigma(X Theta^T / sqrt(d)), in the product's buffer for a built-in activation.

    The in-place steps round exactly as out-of-place ones and save
    temporaries of the output's size.
    """
    P = X @ Theta.T
    P /= math.sqrt(X.shape[1])
    return activation._in_place(P)


def _surrogate_features(
    X: np.ndarray, Theta: np.ndarray, rng_w: np.random.Generator, stats: HermiteStats
) -> np.ndarray:
    """u = mu0 + mu1 X Theta^T / sqrt(d) + mu_star W, in the product's buffer.

    The rows of the Gaussian W are drawn from rng_w in order, _BLOCK // 8 at
    a time, so W is never held whole and adds an eighth of a block to a test
    block.  The steps run in the order of the out-of-place expression and
    round exactly as it does.
    """
    U = X @ Theta.T
    U *= stats.mu1
    U /= math.sqrt(X.shape[1])
    U += stats.mu0
    step = _BLOCK // 8
    for lo in range(0, len(U), step):
        rows = U[lo : lo + step]
        W = rng_w.standard_normal(rows.shape)
        W *= stats.mu_star
        rows += W
        # freed before the next rows are drawn, so one chunk is alive at a time
        del W
    return U


def _fit_scale(Z: np.ndarray, y: np.ndarray, lams: Sequence[float], d: float) -> float:
    """sqrt(d) for a fit of y on Z, after checking shapes, penalties and d."""
    n, N = Z.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    for lam in lams:
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"d must be finite and > 0, got {d}")
    return math.sqrt(d)


# Above this condition number a fit warns, and reports the exact value.
_COND_LIMIT = 1e12

# A penalty at or below this is ridgeless: it is fit from a thin SVD of the
# design, and the last bits of that SVD move with the BLAS thread count.
_RIDGELESS = 1e-6


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


def _svd_fits(Z: np.ndarray, y: np.ndarray, lams: Sequence[float], d: float) -> list[FitResult]:
    """ridge_path without the conditioning warning."""
    sqrt_d = _fit_scale(Z, y, lams, d)
    n, N = Z.shape
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
        c = lam * (N / d) * (n / d)
        if lam <= _RIDGELESS:
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


def ridge_path(Z: np.ndarray, y: np.ndarray, lams: Sequence[float], d: float) -> list[FitResult]:
    """The ridge_fit objective at every penalty in lams, from one thin SVD of Z.

    With c = lam (N/d) (n/d), each component is shrunk by s / (s^2 + c).
    For lam <= 1e-6 (including the exact ridgeless case lam = 0) components
    below 1e-10 * sigma_max are dropped first, which at lam = 0 is exactly the
    minimum-norm pseudo-inverse solution, and cond is (s_max / s_kept_min)^2,
    the condition number of the normal matrix on the kept subspace.  Above
    1e-6 every component is kept and cond is the same certified bound as
    ridge_fit's, (sum s^2 + c) / c, replaced by the exact
    (s_max^2 + c) / (s_min^2 + c) when the bound exceeds 1e12.  A sweep row
    thus reports the cond of a ridge_fit call of the same point.
    """
    fits = _svd_fits(Z, y, lams, d)
    for fit in fits:
        _warn_if_ill_conditioned(fit.cond)
    return fits


def ridge_fit(Z: np.ndarray, y: np.ndarray, lam: float, d: float) -> FitResult:
    """Minimize (1/n) ||y - sqrt(d) Z a||^2 + (N lam / d) ||a||^2, with (n, N) = Z.shape.

    The normal equations are (Z^T Z + c I) a = Z^T y / sqrt(d) with
    c = lam (N/d) (n/d), solved in whichever of the primal (N x N) or dual
    (n x n) dimension is smaller.  The normal matrix M has
    lambda_min >= c and lambda_max <= ||Z||_F^2 + c, so cond is the certified
    bound (||Z||_F^2 + c) / c, read off the trace of the Gram; only when that
    bound exceeds 1e12 is it replaced by the exact ratio
    (s_max^2 + c) / (s_min^2 + c) from the singular values of Z, as in
    ridge_path.
    For lam <= 1e-6 (including the exact ridgeless case lam = 0) the fit is
    the singular-value one of ridge_path.
    """
    if lam <= _RIDGELESS:
        (fit,) = _svd_fits(Z, y, (lam,), d)
        _warn_if_ill_conditioned(fit.cond)
        return fit
    sqrt_d = _fit_scale(Z, y, (lam,), d)
    n, N = Z.shape
    c = lam * (N / d) * (n / d)
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


# A trial's draw: training design Z, targets y, and test_rows(count), which
# draws the next count test rows and returns their features, at the draw's
# full width, and their noiseless targets.
_TestRows = Callable[[int], tuple[np.ndarray, np.ndarray]]
_Draw = tuple[np.ndarray, np.ndarray, _TestRows]
# The sizes a draw depends on: (n, N, n_test).
_Shape = tuple[int, int, int]


def _test_errors(test_rows: _TestRows, points: Sequence[tuple[np.ndarray, int]]) -> list[float]:
    """Mean squared test error of each (a_hat, n_test) point, in row blocks.

    A point is scored on the first n_test test rows and the first a_hat.size
    feature columns.  Blocks of _BLOCK rows are drawn in order, each
    once, and serve every point before the next one is drawn, so neither the
    test inputs nor an n_test x N feature matrix is ever formed, and
    test_rows may return a buffer it reuses.
    """
    sums = [0.0] * len(points)
    rows = max(n_test for _, n_test in points)
    for lo in range(0, rows, _BLOCK):
        hi = min(lo + _BLOCK, rows)
        F, target = test_rows(hi - lo)
        for k, (a_hat, n_test) in enumerate(points):
            stop = min(hi, n_test) - lo
            if stop > 0:
                r = target[:stop] - F[:stop, : a_hat.size] @ a_hat
                sums[k] += float(r @ r)
        # freed before the next block is built, so one block is alive at a time
        del F, target
    return [total / n_test for total, (_, n_test) in zip(sums, points)]


def _measure(config: SimConfig, fit: FitResult, Z: np.ndarray, y: np.ndarray) -> tuple:
    """(train_error, penalty, norm_sq) of a fit of y on Z."""
    residual = y - math.sqrt(config.d) * (Z @ fit.a_hat)
    norm_sq = float(fit.a_hat @ fit.a_hat)
    penalty = config.N * config.lam / config.d * norm_sq
    return float(residual @ residual) / config.n + penalty, penalty, norm_sq


def _random_features_draw(config: SimConfig, trial_index: int, shape: _Shape) -> _Draw:
    n, N, _ = shape
    d = config.d
    Theta = sample_sphere(d, N, substream(config.seed, trial_index, "theta"))
    X = sample_sphere(d, n, substream(config.seed, trial_index, "x"))
    noise = substream(config.seed, trial_index, "noise").standard_normal(n)
    y = config.target.evaluate(X) + math.sqrt(config.tau_sq) * noise
    Z = build_design(X, Theta, config.activation)
    rng_test = substream(config.seed, trial_index, "test")

    def test_rows(count: int) -> tuple[np.ndarray, np.ndarray]:
        X_test = sample_sphere(d, count, rng_test)
        return _features(X_test, Theta, config.activation), config.target.evaluate(X_test)

    return Z, y, test_rows


def _gaussian_covariates_draw(
    config: SimConfig, stats: HermiteStats, trial_index: int, shape: _Shape
) -> _Draw:
    n, N, _ = shape
    d = config.d
    beta = config.target.beta_norm
    Theta = sample_sphere(d, N, substream(config.seed, trial_index, "theta"))
    rng_w = substream(config.seed, trial_index, "w")
    X = substream(config.seed, trial_index, "x").standard_normal((n, d))
    U = _surrogate_features(X, Theta, rng_w, stats)
    U /= math.sqrt(d)
    noise = substream(config.seed, trial_index, "noise").standard_normal(n)
    y = beta * X[:, 0] + math.sqrt(config.tau_sq) * noise
    rng_test = substream(config.seed, trial_index, "test")

    def test_rows(count: int) -> tuple[np.ndarray, np.ndarray]:
        # the "w" stream's test rows follow its training matrix
        X_test = rng_test.standard_normal((count, d))
        return _surrogate_features(X_test, Theta, rng_w, stats), beta * X_test[:, 0]

    return U, y, test_rows


def _drawer(config: SimConfig) -> Callable[[int, _Shape], _Draw]:
    """config.model's draw as draw(trial_index, shape), checked before any draw.

    The surrogate's activation moments are measured here, once, and not
    again by each draw.
    """
    if config.model == "random_features":
        return functools.partial(_random_features_draw, config)
    if config.target.name != "linear":
        raise ValueError("the gaussian covariates surrogate is defined for the linear target only")
    stats = hermite_stats(config.activation)  # raises DegenerateActivation if mu_star = 0
    return functools.partial(_gaussian_covariates_draw, config, stats)


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
    config: SimConfig | Sequence[SimConfig],
    trial_index: int,
    *,
    _draw: Callable[[int, _Shape], _Draw] | None = None,
) -> Trials:
    """One trial of config.model: draw, fit, measure.

    Test error is measured against the noiseless target on a fresh test
    sample.  Every point of a draw is fit and measured on its training slice
    first, and the design is dropped; then one pass draws the test rows in
    blocks of _BLOCK, builds each block's features once at the draw's full
    width and scores every point on it (_test_errors).  A trial thus holds
    its design and one Gram or factorization of it while it fits, and one
    _BLOCK x N block while it scores: never the n_test x d test inputs nor
    an n_test x N feature matrix.  Noise variates are drawn even when
    tau_sq = 0 (then scaled away) so that configurations differing only in
    noise level share all other randomness.  The result is a Trials of one
    column, with one row per config of a sweep (a sequence of configs that
    differ only in n, N, n_test and lam; a lone config is a sweep of one
    point).  Points of one shape share a draw and are fit together: by
    ridge_fit at one distinct penalty, by ridge_path from one
    factorization at several.  A random-features trial is drawn once at the
    sweep's largest shape, and every point fits on prefix slices of that
    draw.  _draw is the draw run_trials binds once for all its trials.  Its
    bits follow the BLAS thread count it runs at; run_trials gives column t
    at one BLAS thread unless some point of the sweep is ridgeless
    (lam <= 1e-6), so a lone trial matches it under _blas.one_thread().

    The "gaussian_covariates" model is the matched surrogate: covariates are
    u = mu0 + mu1 Theta x / sqrt(d) + mu_star w with Gaussian x and w, keeping
    only the activation's moment profile (hermite_stats at its default order,
    measured once per call before any draw, so a custom activation should
    carry the stats measured at the order it needs); the target must be
    linear.  The ridge objective and measurements coincide with the
    random-features ones under Z = U / sqrt(d).  The training noise matrix is
    drawn from the "w" stream first, the test noise matrix second, both in
    row blocks; test inputs come from the "test" stream, in the test pass's
    blocks.  These draws do not nest across shapes, so a sweep draws once per
    distinct (n, N, n_test) and shares that draw, and its test pass, only
    among the penalties of one shape.
    """
    configs = _sweep(config)
    draw = _drawer(configs[0]) if _draw is None else _draw
    # the indices of the sweep's configs, by shape (n, N, n_test), in sweep order
    groups: dict[_Shape, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.n, c.N, c.n_test), []).append(i)
    if configs[0].model == "random_features":
        largest = tuple(max(sizes) for sizes in zip(*groups))
        draws = [(largest, list(groups.items()))]
    else:
        draws = [(shape, [(shape, members)]) for shape, members in groups.items()]
    rows = [None] * len(configs)
    for draw_shape, shapes in draws:
        Z_full, y_full, test_rows = draw(trial_index, draw_shape)
        fitted = []
        for (n, N, _), members in shapes:
            Z, y = Z_full[:n, :N], y_full[:n]
            lams = [configs[i].lam for i in members]
            if len(set(lams)) == 1:
                fits = [ridge_fit(Z, y, lams[0], configs[0].d)] * len(lams)
            else:
                fits = ridge_path(Z, y, lams, configs[0].d)
            fitted += [(i, fit, _measure(configs[i], fit, Z, y)) for i, fit in zip(members, fits)]
        # the design is dropped before the test pass, so a trial holds one or the other
        del Z_full, y_full, Z, y
        test_errors = _test_errors(
            test_rows, [(fit.a_hat, configs[i].n_test) for i, fit, _ in fitted]
        )
        for (i, fit, measured), test_error in zip(fitted, test_errors):
            rows[i] = (test_error, *measured, fit.cond, fit.solver_path)
    *measures, paths = zip(*rows)
    return Trials(*(np.array(m, dtype=float)[:, None] for m in measures), solver_path=paths)


def run_trials(config: SimConfig | Sequence[SimConfig], threads: int | None = None) -> Trials:
    """All trials of a sweep (see run_trial), within a budget of threads cores.

    Column t of the result is run_trial(config, t), for t in trial order.
    The budget defaults to the cores this process may run on (_blas.cores()),
    and a larger one counts only those.
    A sweep with no ridgeless point (every lam above 1e-6) pins BLAS to one
    thread for the whole call (_blas.one_thread) and runs min(threads,
    trials) of its trials at once, each drawing, fitting and scoring on its
    own worker, so the pool holds one design per trial in flight.  That
    holds for one penalty per shape (ridge_fit's normal equations) and for
    several (ridge_path's thin SVD) alike.  The pin is process-wide while
    the call runs, and the count found before it is set again when the call
    returns or raises (or, where calls overlap in threads, when the last of
    them does); a lone run_trial gives column t under the same pin.  Such a
    sweep is thus identical at any budget and any BLAS thread count.

    A sweep with a point at lam <= 1e-6 keeps the BLAS threads, as does
    any sweep where numpy's BLAS cannot be pinned.  Each trial in flight
    then takes the _blas.threads() cores one of its BLAS calls may use, so
    threads // that many trials run at once: one at a time (BLAS parallel
    inside each) under numpy's default threading, several when BLAS is held
    to fewer threads than the budget, e.g. by OPENBLAS_NUM_THREADS=1.  The
    ridgeless training error is rounding noise of the thin SVD, whose last
    bits move with the BLAS thread count, so these sweeps are identical at
    any budget only at a fixed BLAS thread count; pinning them waits on a
    benchmark reference that allows for that noise (ROADMAP item 1).
    Per-trial randomness is keyed, not sequential.  The draw is checked,
    and the surrogate's activation moments measured, once before any trial.
    Each trial is drawn once for every point of the sweep.  A threads that
    is not a positive integer is a ValueError, raised before any draw.
    """
    if not (threads is None or (isinstance(threads, (int, np.integer)) and threads >= 1)):
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    configs = _sweep(config)
    draw = _drawer(configs[0])
    indices = range(configs[0].trials)
    budget = _blas.cores() if threads is None else min(threads, _blas.cores())
    ridgeless = any(c.lam <= _RIDGELESS for c in configs)
    pin = contextlib.nullcontext() if ridgeless else _blas.one_thread()
    with pin:
        workers = max(1, min(len(indices), budget // _blas.threads()))
        trial = functools.partial(run_trial, configs, _draw=draw)
        if workers == 1:
            parts = [trial(t) for t in indices]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(trial, indices))
    columns = (np.hstack([getattr(part, f) for part in parts]) for f in (*_MEASURES, "cond"))
    return Trials(*columns, solver_path=parts[0].solver_path)


def aggregate(trials: Trials) -> dict[str, np.ndarray]:
    """Each point's mean and standard error of the mean across at least two trials.

    The keys are "<measure>_mean" and "<measure>_sem" for every measure but
    cond, each one entry per point.  Each row is reduced as np.mean and
    np.std(ddof=1) / sqrt(trials) reduce a 1-D array, so to the same bits.
    """
    count = trials.test_error.shape[1]
    if count < 2:
        raise InsufficientTrials(f"need at least 2 trials for a standard error, got {count}")
    stats = {}
    for name in _MEASURES:
        values = getattr(trials, name)
        stats[f"{name}_mean"] = np.mean(values, axis=1)
        stats[f"{name}_sem"] = np.std(values, axis=1, ddof=1) / math.sqrt(count)
    return stats
