"""Gaussian moment statistics of pointwise activation functions.

Everything downstream of the data model is controlled by three moments of the
activation sigma against a standard normal G:

    mu0 = E[sigma(G)],  mu1 = E[G sigma(G)],  mu_star_sq = E[sigma(G)^2] - mu0^2 - mu1^2,

i.e. the constant and linear Hermite coefficients and the residual nonlinear
power.  Built-in activations use closed forms; custom activations are handled
by quadrature with a doubling certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class DegenerateActivation(ValueError):
    """The activation has no usable linear or nonlinear component."""


class QuadratureFailure(ArithmeticError):
    """hermite_stats could not certify a custom activation's quadrature moments:
    one is not finite, one moves when the order doubles, or an integrand is not
    negligible at the window edge |u| = 13."""


_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Integration window |u| <= 13: the normal density there is ~2e-37, which drops
# nothing of a polynomially bounded activation; hermite_stats checks the rest.
_TRUNCATION = 13.0
# hermite_stats' bound on a moment's move and on each integrand at the edge
_TOLERANCE = 1e-8
# The largest order hermite_stats takes: it also integrates at twice the
# order, and numpy's leggauss(n) factors a dense n x n matrix.
MAX_ORDER = 1024


def _normal_pdf(u: float) -> float:
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def _normal_cdf(u: float) -> float:
    return 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))


@dataclass(frozen=True)
class Activation:
    """A pointwise activation, constructed through one of the factory methods.

    ``breakpoints`` lists locations where the function has a kink; the
    quadrature cuts its window at each, so every piece it integrates is
    smooth.  ``stats`` lets a custom activation supply closed-form moments
    (mu0, mu1, mu_star_sq) and skip quadrature entirely.  ``expr``, the text
    a custom evaluator was built from (if any), tells custom activations
    apart in ``label``.
    """

    kind: str
    shift: float = 0.0
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    stats: tuple[float, float, float] | None = None
    breakpoints: tuple[float, ...] = ()
    expr: str = ""

    @classmethod
    def relu(cls) -> "Activation":
        return cls(kind="relu", breakpoints=(0.0,))

    @classmethod
    def identity(cls) -> "Activation":
        return cls(kind="identity")

    @classmethod
    def shifted_relu(cls, c: float) -> "Activation":
        """sigma(u) = max(u - c, 0), with its kink at u = c; c must be finite."""
        if not math.isfinite(c):
            raise ValueError(f"shifted_relu needs a finite shift, got {c}")
        return cls(kind="shifted_relu", shift=float(c), breakpoints=(float(c),))

    @classmethod
    def custom(
        cls,
        evaluator: Callable[[np.ndarray], np.ndarray],
        breakpoints: Sequence[float] = (),
        stats: tuple[float, float, float] | None = None,
        expr: str = "",
    ) -> "Activation":
        """An activation given by evaluator, built from the text expr if given;
        every breakpoint must be finite."""
        kinks = tuple(float(b) for b in breakpoints)
        for position, b in enumerate(kinks, 1):
            if not math.isfinite(b):
                raise ValueError(f"custom activation breakpoint {position} is not finite: {b}")
        return cls(
            kind="custom",
            evaluator=evaluator,
            stats=None if stats is None else tuple(float(s) for s in stats),
            breakpoints=kinks,
            expr=expr,
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind != "custom":
            return self._in_place(x.copy())
        assert self.evaluator is not None, "custom activation without evaluator"
        try:
            out = np.asarray(self.evaluator(x), dtype=float)
        except (TypeError, ValueError) as exc:
            # a scalar-only evaluator fails on arrays; one that also fails on
            # a single element is broken, and its own error surfaces
            if x.size:
                try:
                    self.evaluator(x.flat[0])
                except (TypeError, ValueError):
                    raise exc from None
            out = None
        if out is None or out.shape != x.shape:
            # evaluator is scalar-only; fall back to a pointwise loop
            out = np.vectorize(self.evaluator, otypes=[float])(x)
        return out

    def _in_place(self, x: np.ndarray) -> np.ndarray:
        """sigma(x) written over the float array x, for a built-in activation.

        Rounds exactly as the out-of-place call.  A custom evaluator runs out
        of place, and its result may be a buffer it keeps.
        """
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=x)
        if self.kind == "shifted_relu":
            np.subtract(x, self.shift, out=x)
            return np.maximum(x, 0.0, out=x)
        if self.kind == "identity":
            return x
        return self(x)

    def label(self) -> str:
        if self.kind == "shifted_relu":
            # :g keeps six digits, so a shift it does not round-trip is its repr
            short = f"{self.shift:g}"
            return f"shifted_relu:{short if float(short) == self.shift else repr(self.shift)}"
        if self.expr:
            return f"{self.kind}:{self.expr}"
        return self.kind


@dataclass(frozen=True)
class HermiteStats:
    """First two Hermite coefficients and the nonlinear residual of an activation.

    zeta = mu1 / mu_star is the linear-to-nonlinear amplitude ratio; the
    asymptotic formulas consume zeta_sq.  ``quadrature_gap`` records the
    doubling-certificate disagreement when the moments came from quadrature
    (None for closed forms).
    """

    mu0: float
    mu1: float
    mu_star_sq: float
    zeta: float
    zeta_sq: float
    quadrature_gap: float | None = None

    @property
    def mu_star(self) -> float:
        return math.sqrt(self.mu_star_sq)


def normal_expectation(
    fn: Callable[[np.ndarray], np.ndarray],
    order: int = 64,
    breakpoints: Sequence[float] = (),
) -> float | np.ndarray:
    """E[fn(G)] for standard normal G, by split Gauss-Legendre quadrature.

    The window |u| <= 13 is cut at each breakpoint inside it, or at 0 when it
    holds none, and on each piece an order-``order`` Gauss-Legendre rule
    integrates fn(u) * pdf(u).  That is spectrally accurate for fn smooth
    between the cuts.  What fn carries outside the window is dropped;
    hermite_stats checks that it is negligible.  An fn may return one row per
    integrand, each summed as a lone call sums it, into an array: hermite_stats
    gets all three moments from one rule and one evaluation of sigma per piece.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    cuts = sorted(b for b in breakpoints if -_TRUNCATION < b < _TRUNCATION) or [0.0]
    edges = [-_TRUNCATION] + cuts + [_TRUNCATION]
    t, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0.0:
            continue
        u = 0.5 * (b - a) * t + 0.5 * (b + a)
        pdf = np.exp(-0.5 * u * u) / _SQRT_2PI
        vals = np.asarray(fn(u), dtype=float)
        # values that are not finite give a moment that is not, which
        # hermite_stats reports; the sum itself does not warn
        with np.errstate(invalid="ignore", over="ignore"):
            total = total + 0.5 * (b - a) * np.array([w @ (r * pdf) for r in np.atleast_2d(vals)])
    return float(total[0]) if vals.ndim < 2 else total


def _raw_moments(activation: Activation, order: int) -> tuple[float, float, float]:
    def rows(u):
        s = activation(u)
        return s, u * s, s ** 2
    return tuple(float(m) for m in normal_expectation(rows, order, activation.breakpoints))


def hermite_stats(activation: Activation, order: int = 64) -> HermiteStats:
    """Compute (mu0, mu1, mu_star_sq, zeta) for an activation.

    Built-ins use closed forms.  Custom activations are integrated by
    normal_expectation at ``order`` (at most MAX_ORDER, else ValueError) and
    certified by recomputing at 2*order.  QuadratureFailure is raised when a
    moment is not finite, when sigma, u sigma or sigma^2 times the normal
    density exceeds 1e-8 at the window edge |u| = 13, or when any moment
    moves by more than 1e-8.  Raises ValueError, naming them,
    when mu0, mu1 or mu_star_sq is not finite, and DegenerateActivation when
    |mu1| or mu_star_sq falls below 1e-10; the asymptotic theory needs both a
    linear and a nonlinear component.
    """
    gap: float | None = None
    if activation.kind == "relu":
        mu0 = 1.0 / _SQRT_2PI
        mu1 = 0.5
        second = 0.5
    elif activation.kind == "identity":
        mu0, mu1, second = 0.0, 1.0, 1.0
    elif activation.kind == "shifted_relu":
        c = activation.shift
        mu0 = _normal_pdf(c) - c * _normal_cdf(-c)
        mu1 = _normal_cdf(-c)
        second = (1.0 + c * c) * _normal_cdf(-c) - c * _normal_pdf(c)
    elif activation.stats is not None:
        return _finalize(*activation.stats, gap)
    else:
        if order > MAX_ORDER:
            raise ValueError(f"order must be <= {MAX_ORDER}, got {order}")
        lo = _raw_moments(activation, order)
        hi = _raw_moments(activation, 2 * order)
        gap = max(abs(a - b) for a, b in zip(lo, hi))
        if not math.isfinite(gap):
            raise QuadratureFailure(
                f"moments are not finite at order {order} {lo} or its doubling {2 * order} {hi}"
            )
        u = np.array([-_TRUNCATION, _TRUNCATION])
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = activation(u)
            edge = np.max(np.abs([sigma, u * sigma, sigma * sigma])) * _normal_pdf(_TRUNCATION)
        if not edge <= _TOLERANCE:
            raise QuadratureFailure(
                f"an integrand times the normal density is {edge:.3e} at the window edge "
                f"|u| = {_TRUNCATION:g}, above {_TOLERANCE:g}; supply closed-form stats "
                "for this activation"
            )
        if gap > _TOLERANCE:
            raise QuadratureFailure(
                f"moments moved by {gap:.3e} when doubling order {order}; "
                "supply breakpoints or closed-form stats for this activation"
            )
        mu0, mu1, second = lo
    return _finalize(mu0, mu1, second - mu0 * mu0 - mu1 * mu1, gap)


def _finalize(mu0: float, mu1: float, mu_star_sq: float, gap: float | None) -> HermiteStats:
    moments = {"mu0": mu0, "mu1": mu1, "mu_star_sq": mu_star_sq}
    bad = [f"{name} = {v}" for name, v in moments.items() if not math.isfinite(v)]
    if bad:
        # a closed form that overflows (shifted_relu far out) or stats given as nan
        raise ValueError(f"activation moments are not finite: {', '.join(bad)}")
    if abs(mu1) < 1e-10:
        raise DegenerateActivation(
            f"activation has no linear component (mu1 = {mu1:.3e})"
        )
    if mu_star_sq < 1e-10:
        raise DegenerateActivation(
            f"activation has no nonlinear component (mu_star_sq = {mu_star_sq:.3e})"
        )
    zeta = mu1 / math.sqrt(mu_star_sq)
    if not math.isfinite(zeta * zeta):
        # mu1^2 / mu_star_sq overflows: the theory would run at zeta_sq = inf
        raise ValueError(f"activation moments are not finite: zeta_sq = {zeta * zeta}")
    return HermiteStats(
        mu0=mu0,
        mu1=mu1,
        mu_star_sq=mu_star_sq,
        zeta=zeta,
        zeta_sq=zeta * zeta,
        quadrature_gap=gap,
    )
