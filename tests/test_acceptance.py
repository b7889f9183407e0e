"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Criteria 1 to 5 check exact properties of the asymptotic formulas (closed
forms, solver cross-validation, limit consistency, ridgeless structure, the
optimal-penalty phase transition).  Criteria 6 to 9 compare finite-dimensional
Monte Carlo means against the asymptotic predictions within
max(3 SEM, 10% relative).  Criterion 10 re-runs the structural property pack
end to end.  Every test asserts its own wall-time budget, so a full pass also
certifies the advertised runtimes.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rfridge import _blas
from rfridge.activations import Activation, hermite_stats
from rfridge.cli import COLUMNS, Table, main, read_records, records_equal, write_records
from rfridge.risk import (
    TargetSpec,
    _e_polynomials,
    ridgeless_chi,
    risk_general,
    risk_large_sample,
    risk_ridgeless,
    risk_wide,
    wide_omega,
    wide_phase,
    wide_risk_in_omega,
)
from rfridge.selfconsistent import chi_scalar_oracle, solve_at
from rfridge.simulate import (
    SimConfig,
    TargetKind,
    Trials,
    aggregate,
    build_design,
    nonlinear_power,
    ridge_fit,
    run_trial,
    run_trials,
    sample_sphere,
)
from rfridge.training import training_theory

RELU = Activation.relu()
RELU_STATS = hermite_stats(RELU)
MS2 = RELU_STATS.mu_star_sq
Z2 = RELU_STATS.zeta_sq
LAM = 1e-3
LAM_BAR = LAM / MS2
# results are bitwise identical at any thread count; this only sets the speed
THREADS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


@contextmanager
def _criterion(capsys, number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"
            )
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {label}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def _point_stats(config: SimConfig) -> dict:
    """aggregate's mean and SEM of every measure at config, a sweep of one point."""
    stats = aggregate(run_trials(config, threads=THREADS))
    return {key: values[0] for key, values in stats.items()}


def _column(trials: Trials, t: int) -> Trials:
    """Trial t of every point of trials."""
    return Trials(**{k: v if k == "solver_path" else v[:, t : t + 1]
                     for k, v in vars(trials).items()})


def _same_bits(a: Trials, b: Trials) -> bool:
    return all(np.array_equal(v, vars(b)[k]) for k, v in vars(a).items())


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _argmin_scalar(fn, lo: float, hi: float, tol: float = 1e-9) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def test_criterion_1_relu_statistics(capsys):
    with _criterion(capsys, 1, "relu Hermite statistics", budget=1.0):
        ref_ms2 = (math.pi - 2.0) / (4.0 * math.pi)
        ref_z2 = math.pi / (math.pi - 2.0)
        closed = hermite_stats(RELU)
        assert closed.mu1 == 0.5
        assert abs(closed.mu_star_sq - ref_ms2) <= 1e-16
        assert abs(closed.zeta_sq - ref_z2) <= 1e-12
        assert closed.quadrature_gap is None

        quad = hermite_stats(
            Activation.custom(lambda u: np.maximum(u, 0.0), breakpoints=(0.0,)),
            order=64,
        )
        assert abs(quad.mu0 - closed.mu0) <= 1e-10
        assert abs(quad.mu1 - 0.5) <= 1e-10
        assert abs(quad.mu_star_sq - ref_ms2) <= 1e-10
        assert quad.quadrature_gap is not None and quad.quadrature_gap <= 1e-8


def test_criterion_2_solver_cross_validation(capsys):
    with _criterion(
        capsys, 2, "fixed-point chi vs quartic oracle on 200 tuples", budget=30.0
    ):
        rng = np.random.default_rng(202)
        for _ in range(200):
            z = 10.0 ** rng.uniform(-1.0, 1.0)
            psi1 = 10.0 ** rng.uniform(-1.0, 1.0)
            psi2 = 10.0 ** rng.uniform(-1.0, 1.0)
            lb = 10.0 ** rng.uniform(-4.0, 1.0)
            point = solve_at(z, psi1, psi2, lb)
            assert point.residual <= 1e-12
            chi_oracle = chi_scalar_oracle(z, psi1, psi2, lb)
            assert abs(point.chi.real - chi_oracle) <= 1e-8 * max(1.0, abs(chi_oracle))


def test_criterion_3_limit_consistency(capsys):
    with _criterion(
        capsys, 3, "general risk matches ridgeless, wide, large-sample", budget=10.0
    ):
        rng = np.random.default_rng(303)
        for _ in range(20):
            z = 10.0 ** rng.uniform(-1.0, 1.0)
            rho = 10.0 ** rng.uniform(-1.0, 1.0)
            lb = 10.0 ** rng.uniform(-4.0, 1.0)

            psi1 = psi2 = 1.0
            while abs(psi1 - psi2) < 0.1:
                psi1 = 10.0 ** rng.uniform(-1.0, 1.0)
                psi2 = 10.0 ** rng.uniform(-1.0, 1.0)
            gen = risk_general(z, psi1, psi2, 1e-8)
            rless = risk_ridgeless(z, psi1, psi2)
            assert _rel_gap(gen.bias_B, rless.bias_B) <= 1e-4
            assert _rel_gap(gen.var_V, rless.var_V) <= 1e-4

            psi2_w = 10.0 ** rng.uniform(-1.0, 1.0)
            gen = risk_general(z, 1e6, psi2_w, lb)
            wide = risk_wide(z, psi2_w, lb)
            assert _rel_gap(gen.bias_B, wide.bias_B) <= 1e-3
            assert _rel_gap(gen.var_V, wide.var_V) <= 1e-3

            psi1_l = 10.0 ** rng.uniform(-1.0, 1.0)
            gen = risk_general(z, psi1_l, 1e6, lb)
            lsamp = risk_large_sample(z, psi1_l, lb)
            assert _rel_gap(gen.bias_B, lsamp.bias_B) <= 1e-3
            assert gen.var_V <= 1e-3
            assert _rel_gap(gen.risk_at(rho), lsamp.risk_at(rho)) <= 1e-3


def test_criterion_4_ridgeless_structure(capsys):
    with _criterion(
        capsys, 4, "ridgeless endpoints, threshold zero, monotone decrease", budget=5.0
    ):
        for z in (0.5, Z2, 5.0):
            for psi2 in (0.5, 3.0):
                narrow = risk_ridgeless(z, 1e-6, psi2)
                assert abs(narrow.bias_B - 1.0) <= 1e-3
                assert abs(narrow.var_V) <= 1e-3

            for psi in (0.5, 1.0, 3.0):
                chi = ridgeless_chi(z, psi, psi)
                e0, e1, e2, _ = _e_polynomials(chi, z, psi, psi)
                assert abs(e0) <= 1e-8 * (1.0 + abs(e1) + abs(e2))

        for psi2 in (0.5, 3.0):
            grid = np.geomspace(1.01 * psi2, 100.0 * psi2, 100)
            decs = [risk_ridgeless(Z2, p, psi2) for p in grid]
            bias = np.array([dec.bias_B for dec in decs])
            var = np.array([dec.var_V for dec in decs])
            assert np.all(np.diff(bias) < 0.0)
            assert np.all(np.diff(var) < 0.0)


def test_criterion_5_phase_transition(capsys):
    with _criterion(
        capsys, 5, "wide-limit phase transition and penalty boundary", budget=10.0
    ):
        z = math.pi / (math.pi - 2.0)
        ratios = (0.3, 0.45, 0.6, 0.75, 0.9, 1.15, 1.5, 2.0, 2.5, 3.0)
        for psi2 in (2.0, 10.0):
            rho_star = wide_phase(z, psi2, 1.0).rho_star
            for ratio in ratios:
                rho = ratio * rho_star
                ph = wide_phase(z, psi2, rho)

                r0 = ph.omega0**2 + (psi2 * z - z - 1.0) * ph.omega0 - psi2 * z
                b1 = psi2 * rho - rho - 1.0
                r1 = ph.omega1**2 + b1 * ph.omega1 - psi2 * rho
                assert abs(r0) <= 1e-10 * (1.0 + ph.omega0**2)
                assert abs(r1) <= 1e-10 * (1.0 + ph.omega1**2)

                if ratio < 1.0:
                    assert ph.lambda_star > 0.0
                    hi = max(4.0 * ph.lambda_star, 1.0)
                    lb_num = _argmin_scalar(
                        lambda lb: risk_wide(z, psi2, lb).risk_at(rho), 0.0, hi
                    )
                    assert abs(lb_num - ph.lambda_star) <= 1e-3
                else:
                    assert ph.lambda_star <= 0.0
                    lb_num = _argmin_scalar(
                        lambda lb: risk_wide(z, psi2, lb).risk_at(rho), 0.0, 1.0
                    )
                    assert lb_num <= 1e-6


def test_criterion_6_double_descent_reproduction(capsys):
    with _criterion(capsys, 6, "double-descent reproduction at d = 200", budget=600.0):
        target = TargetSpec(1.0)
        for psi1 in (0.5, 1.0, 2.0, 4.0, 6.0, 10.0):
            config = SimConfig(
                d=200,
                n=600,
                N=round(psi1 * 200),
                lam=LAM,
                activation=RELU,
                target=TargetKind.linear(),
                tau_sq=0.0,
                trials=20,
                seed=7,
                n_test=6000,
            )
            agg = _point_stats(config)
            theory = risk_general(Z2, config.psi1_d, config.psi2_d, LAM_BAR).test_error(target)
            tol = max(3.0 * agg["test_error_sem"], 0.10 * theory)
            assert abs(agg["test_error_mean"] - theory) <= tol

        grid = np.geomspace(0.5, 10.0, 161)
        curve = np.array(
            [risk_general(Z2, p, 3.0, LAM_BAR).test_error(target) for p in grid]
        )
        peaks = [
            i
            for i in range(1, grid.size - 1)
            if curve[i] > curve[i - 1] and curve[i] > curve[i + 1]
        ]
        assert len(peaks) == 1
        assert 1.0 < grid[peaks[0]] < 4.5
        assert np.all(np.diff(curve[peaks[0] :]) < 0.0)


def test_criterion_7_equivalence_targets(capsys):
    with _criterion(capsys, 7, "nonlinear-target equivalence at d = 100", budget=600.0):
        d, n = 100, 300
        cases = [
            (TargetKind.linear(), 0.5),
            (TargetKind.linear_plus_quad(), 0.0),
            (TargetKind.linear_plus_cross(), 0.0),
        ]
        for target, tau_sq in cases:
            spec = TargetSpec(1.0, fstar_sq=nonlinear_power(target, d), tau_sq=tau_sq)
            for ratio in (0.5, 2.0, 4.0):
                config = SimConfig(
                    d=d,
                    n=n,
                    N=round(ratio * n),
                    lam=LAM,
                    activation=RELU,
                    target=target,
                    tau_sq=tau_sq,
                    trials=20,
                    seed=11,
                )
                agg = _point_stats(config)
                theory = risk_general(
                    Z2, config.psi1_d, config.psi2_d, LAM_BAR
                ).test_error(spec)
                tol = max(3.0 * agg["test_error_sem"], 0.10 * theory)
                assert abs(agg["test_error_mean"] - theory) <= tol


def test_criterion_8_gaussian_covariates_equivalence(capsys):
    with _criterion(capsys, 8, "gaussian-covariates equivalence", budget=300.0):
        d, n = 100, 300
        spec = TargetSpec(1.0, tau_sq=0.5)
        for ratio in (0.5, 2.0, 4.0):
            config = SimConfig(
                d=d,
                n=n,
                N=round(ratio * n),
                lam=LAM,
                activation=RELU,
                target=TargetKind.linear(),
                tau_sq=0.5,
                trials=20,
                seed=13,
                model="gaussian_covariates",
            )
            agg = _point_stats(config)
            theory = risk_general(Z2, config.psi1_d, config.psi2_d, LAM_BAR).test_error(spec)
            tol = max(3.0 * agg["test_error_sem"], 0.10 * theory)
            assert abs(agg["test_error_mean"] - theory) <= tol


def test_criterion_9_training_asymptotics(capsys):
    with _criterion(
        capsys, 9, "training error and coefficient norm at d = 200", budget=600.0
    ):
        d, n = 200, 600
        power = 1.0 + 0.5
        for psi1 in (0.5, 2.0, 6.0):
            config = SimConfig(
                d=d,
                n=n,
                N=round(psi1 * d),
                lam=LAM,
                activation=RELU,
                target=TargetKind.linear(),
                tau_sq=0.5,
                trials=20,
                seed=17,
            )
            agg = _point_stats(config)
            asym = training_theory(2.0, Z2, config.psi1_d, config.psi2_d, LAM_BAR)

            theory_train = power * asym.L
            tol = max(3.0 * agg["train_error_sem"], 0.10 * theory_train)
            assert abs(agg["train_error_mean"] - theory_train) <= tol

            theory_norm = power * asym.A
            sim_norm = MS2 * agg["norm_sq_mean"]
            tol = max(3.0 * MS2 * agg["norm_sq_sem"], 0.10 * theory_norm)
            assert abs(sim_norm - theory_norm) <= tol


@pytest.mark.usefixtures("trial_pool")
def test_criterion_10_property_pack(capsys, tmp_path):
    with _criterion(
        capsys, 10, "invariants, determinism, and csv round-trip", budget=120.0
    ):
        rng = np.random.default_rng(1010)

        for _ in range(20):
            z = 10.0 ** rng.uniform(-1.0, 1.0)
            psi1 = 10.0 ** rng.uniform(-1.0, 1.0)
            psi2 = 10.0 ** rng.uniform(-1.0, 1.0)
            # the penalty whose target xi = i u has u log-uniform in [1e-2, 1e2]
            lb = 10.0 ** rng.uniform(-4.0, 4.0) / (psi1 * psi2)
            point = solve_at(z, psi1, psi2, lb)
            assert point.nu1.imag > 0.0 and point.nu2.imag > 0.0
            assert point.residual <= 1e-12
            swapped = solve_at(z, psi2, psi1, lb)
            assert abs(swapped.nu1 - point.nu2) <= 1e-12
            assert abs(swapped.nu2 - point.nu1) <= 1e-12

        for _ in range(20):
            z = 10.0 ** rng.uniform(-1.0, 1.0)
            psi2 = 10.0 ** rng.uniform(-1.0, 1.0)
            rho = 10.0 ** rng.uniform(-1.0, 1.0)
            lb = 10.0 ** rng.uniform(-4.0, 1.0)
            direct = risk_wide(z, psi2, lb).risk_at(rho)
            reparam = wide_risk_in_omega(wide_omega(z, psi2, lb), rho, psi2)
            assert abs(direct - reparam) <= 1e-10 * (1.0 + abs(direct))

        lb_grid = np.geomspace(1e-6, 100.0, 200)
        for z, psi in ((Z2, 0.5), (0.7, 3.0)):
            omegas = np.array([wide_omega(z, psi, lb) for lb in lb_grid])
            assert np.all(np.diff(omegas) > 0.0)

        d, n = 20, 37
        for N in (11, 80):
            X = sample_sphere(d, n, rng)
            Theta = sample_sphere(d, N, rng)
            Z = build_design(X, Theta, RELU)
            y = rng.standard_normal(n)
            c = LAM * (N / d) * (n / d)
            a_primal = np.linalg.solve(Z.T @ Z + c * np.eye(N), Z.T @ y) / math.sqrt(d)
            a_dual = Z.T @ np.linalg.solve(Z @ Z.T + c * np.eye(n), y) / math.sqrt(d)
            fit = ridge_fit(Z, y, LAM, d)
            scale = np.linalg.norm(a_primal)
            assert np.linalg.norm(a_primal - a_dual) <= 1e-8 * scale
            assert np.linalg.norm(fit.a_hat - a_primal) <= 1e-8 * scale

        config = SimConfig(
            d=30,
            n=45,
            N=60,
            lam=LAM,
            activation=RELU,
            target=TargetKind.linear(),
            tau_sq=0.1,
            trials=4,
            seed=99,
            n_test=1000,
        )
        first = run_trial(config, 2)
        assert _same_bits(first, run_trial(config, 2))
        for threads in (1, 4):
            trials = run_trials(config, threads=threads)
            for t in range(config.trials):
                # run_trials pins BLAS to one thread for this Gram-route config
                with _blas.one_thread():
                    assert _same_bits(_column(trials, t), run_trial(config, t))

        argv = [
            "theory",
            "--psi2",
            "3",
            "--lambda-bar",
            f"{LAM_BAR!r}",
            "--rho",
            "2",
            "--sweep",
            "psi1",
            "--grid",
            "0.5,1,2,3,4",
            "--format",
            "csv",
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        records = read_records(text, from_text=True)
        assert len(records) == 5
        path = str(tmp_path / "roundtrip.csv")
        table = Table(COLUMNS, len(records), **{c: [rec[c] for rec in records] for c in COLUMNS})
        write_records(table, "csv", path)
        reread = read_records(path)
        assert len(reread) == len(records)
        assert all(records_equal(a, b) for a, b in zip(records, reread))
