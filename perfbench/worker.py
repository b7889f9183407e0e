"""One benchmark workload, run in a fresh process with rfridge on the path.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1
        --threads K [--size full|tiny]

A closed loop with a single caller: each pass runs the workload's jobs one
after another, and the next pass starts when the previous one has returned.
Outputs are checked after every pass, outside the timed interval.  The last
line of stdout is one JSON object with the metrics, the pass times and the
attempted / failed row counts; run.py turns it into the benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rfridge.cli as cli
from rfridge import risk
from rfridge.activations import Activation, hermite_stats

import tracer as tracing

REFERENCE = Path(__file__).with_name("reference.json")
WORKLOADS = ("theory-curve", "sim-psi1", "compare-lambda")

# criterion 6's theory curve; the seed moves psi2 and lambda_bar by up to 5%.
# At 20% the fixed-point work of a pass moved by up to 17% between seeds.
PSI2 = 3.0
LAMBDA_BAR = 0.0110078
SIM_COMMON = ["--activation", "relu", "--target", "linear", "--tau-sq", "0.5"]
SIZES = {
    "full": {
        "points": 161,
        "sim-psi1": dict(d=200, n=600, n_test=6000, grid="0.5,1,2,4,6", trials=8, spot="2"),
        "compare-lambda": dict(
            d=100, n=300, N=600, grid="0,1e-5,1e-4,1e-3,1e-2,1e-1,1", trials=8, spot="1e-3"
        ),
    },
    "tiny": {
        "points": 9,
        "sim-psi1": dict(d=40, n=120, n_test=1200, grid="0.5,4", trials=3, spot="4"),
        "compare-lambda": dict(d=40, n=120, N=240, grid="0,1e-3,1e-1", trials=3, spot="1e-3"),
    },
}
THEORY_CELLS = (
    "theory_bias_B", "theory_var_V", "theory_risk_R",
    "theory_test_error", "theory_train_error", "theory_norm_msq",
)
SIM_CELLS = (
    "sim_test_error_mean", "sim_test_error_sem", "sim_train_error_mean", "sim_train_error_sem",
    "sim_penalty_mean", "sim_penalty_sem", "sim_norm_sq_mean", "sim_norm_sq_sem",
    "sim_norm_msq_mean", "sim_norm_msq_sem",
)
# (simulated mean, its SEM, theory) checked by the criteria 6-9 rule
# |sim - theory| <= max(3 SEM, REL_FLOOR |theory|).  The criteria's 10% floor
# fails unchanged code on 2 of 40 seeds of compare-lambda (8 trials at d = 100,
# lambda up to 1, deviations up to 13.5%); 25% still catches gross breakage.
REL_FLOOR = 0.25
RULE = (
    ("sim_test_error_mean", "sim_test_error_sem", "theory_test_error"),
    ("sim_train_error_mean", "sim_train_error_sem", "theory_train_error"),
    ("sim_norm_msq_mean", "sim_norm_msq_sem", "theory_norm_msq"),
)
INT_COLUMNS = ("d", "n", "N", "trials", "seed")
THEORY_RTOL = 1e-10
SIM_RTOL = 1e-8
# optimal_lambda's golden-section search stops at a 1e-6 wide bracket
LAMBDA_OPT_ATOL = 1e-6
# set-up: fresh interpreter -> import rfridge.cli -> one stats call.  Samples
# are spread over the run, two before every pass and two after the last,
# because the machine's start-up speed drifts over seconds.
SETUP_CODE = "import rfridge.cli; rfridge.cli.main(['stats', '--activation', 'relu'])"
SETUP_SAMPLES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    key: str  # reference entry: workload/size, used for seed 0 only
    argv: list[str]  # the CLI call, without its thread count
    threads: list[str]
    rows: int  # rows the CLI call must write
    spot: list[str] | None  # one grid point, run at 1 and at all threads
    trials: int | None  # per grid point of a simulation
    optimal_lambda: tuple | None  # (rho, zeta_sq, psi1, psi2, lambda_max)


def theory_params(seed: int) -> tuple[float, float]:
    # drawn for seed 0 too, so every seed loads the same numpy modules
    u = np.random.default_rng(seed).uniform(-0.05, 0.05, size=2)
    if seed == 0:
        return PSI2, LAMBDA_BAR
    return PSI2 * (1.0 + float(u[0])), LAMBDA_BAR * (1.0 + float(u[1]))


def build(name: str, seed: int, size: str, threads: int) -> Workload:
    sizes = SIZES[size]
    if name == "theory-curve":
        psi2, lambda_bar = theory_params(seed)
        argv = [
            "theory", "--activation", "relu", "--psi2", repr(psi2), "--lambda-bar", repr(lambda_bar),
            "--f1-sq", "1", "--tau-sq", "0.5", "--sweep", "psi1", "--min", "0.5", "--max", "10",
            "--points", str(sizes["points"]), "--spacing", "log",
        ]
        zeta_sq = hermite_stats(Activation.relu()).zeta_sq
        return Workload(name, f"{name}/{size}", argv, [], sizes["points"], None, None,
                        (2.0, zeta_sq, 2.0, psi2, 10.0))
    s = sizes[name]
    if name == "sim-psi1":
        base = ["simulate", *SIM_COMMON, "--d", str(s["d"]), "--n", str(s["n"]),
                "--n-test", str(s["n_test"]), "--lambda", "1e-3", "--sweep", "psi1"]
    elif name == "compare-lambda":
        base = ["compare", *SIM_COMMON, "--d", str(s["d"]), "--n", str(s["n"]),
                "--N", str(s["N"]), "--sweep", "lambda"]
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    base += ["--trials", str(s["trials"]), "--seed", str(seed)]
    return Workload(
        name, f"{name}/{size}", base + ["--grid", s["grid"]], ["--threads", str(threads)],
        len(s["grid"].split(",")), base + ["--grid", s["spot"]], s["trials"], None,
    )


def run_cli(argv) -> tuple[int | None, str]:
    """In-process CLI call; an escaping exception counts like a non-zero exit."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - reported, then counted as failed rows
        traceback.print_exc()
        code = None
    return code, buf.getvalue()


def parse_rows(text: str) -> list[dict[str, str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], r)) for r in rows[1:]] if rows else []


def _num(text: str) -> float:
    return float(text) if text else math.nan


def _same_cell(column: str, got: str, ref: str, ref_row: dict) -> bool:
    if got == ref:
        return True
    if column in INT_COLUMNS:
        return False
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False  # a string cell that differs
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    if column.startswith("z_"):
        # z = (sim mean - theory) / sem inherits the SEM-scaled error of the mean
        q = column[2:]
        scale = abs(b) + abs(_num(ref_row[f"sim_{q}_mean"]) / _num(ref_row[f"sim_{q}_sem"]))
        return abs(a - b) <= SIM_RTOL * scale
    rtol = SIM_RTOL if column.startswith("sim_") else THEORY_RTOL
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _rule_holds(row: dict, mean: str, sem: str, theory: str) -> bool:
    sim, err, th = _num(row[mean]), _num(row[sem]), _num(row[theory])
    if math.isnan(th):
        return True  # the ridgeless row has no training theory
    return abs(sim - th) <= max(3.0 * err, REL_FLOOR * abs(th))


class Checker:
    """Counts rows attempted and rows failed against the seed-0 reference or the rules."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.reference = None
        if seed == 0 and REFERENCE.exists():
            entry = json.loads(REFERENCE.read_text()).get(workload.key)
            if entry is not None and entry["argv"] == workload.argv:
                self.reference = entry
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def cli_rows(self, code, text):
        rows = parse_rows(text) if code == 0 else []
        if len(rows) != self.workload.rows:
            self.attempted += self.workload.rows
            self.failed += self.workload.rows
            return
        ref_rows = parse_rows(self.reference["csv"]) if self.reference else None
        for i, row in enumerate(rows):
            if ref_rows is not None:
                ref = ref_rows[i]
                ok = row.keys() == ref.keys() and all(
                    _same_cell(c, row[c], ref[c], ref) for c in ref
                )
            else:
                ok = self._row_ok(row)
            self.count(ok)

    def _row_ok(self, row) -> bool:
        command = row["command"]
        if command == "theory":
            return all(math.isfinite(_num(row[c])) for c in THEORY_CELLS)
        if int(row["trials"]) != self.workload.trials:
            return False
        if not all(math.isfinite(_num(row[c])) for c in SIM_CELLS):
            return False
        if command == "compare":
            return math.isfinite(_num(row["theory_test_error"])) and all(
                _rule_holds(row, *r) for r in RULE
            )
        return True

    def optimal_lambda(self, result):
        if result is None:
            return self.count(False)
        lb, r = result
        if self.reference is not None:
            ref_lb, ref_r = self.reference["optimal_lambda"]
            ok = abs(lb - ref_lb) <= LAMBDA_OPT_ATOL and abs(r - ref_r) <= THEORY_RTOL * abs(ref_r)
        else:
            ok = math.isfinite(r) and 0.0 <= lb <= self.workload.optimal_lambda[4]
        self.count(ok)


@dataclass(frozen=True)
class Pass:
    cli_s: float
    pass_s: float
    work: int  # curve rows, or Monte Carlo trials summed over grid points
    theory_rows: int  # general-variant rows, the base of solve_at.per_point
    code: int | None
    text: str
    lambda_opt: tuple | None


def run_pass(w: Workload) -> Pass:
    t0 = time.perf_counter()
    code, text = run_cli(w.argv + w.threads)
    t1 = time.perf_counter()
    lambda_opt = None
    if w.optimal_lambda is not None:
        try:
            lambda_opt = risk.optimal_lambda(*w.optimal_lambda)
        except Exception:  # noqa: BLE001 - reported, then counted as a failed row
            traceback.print_exc()
    t2 = time.perf_counter()
    rows = parse_rows(text) if code == 0 else []
    if w.name == "theory-curve":
        work = len(rows)
    else:
        work = sum(int(r["trials"]) for r in rows)
    theory_rows = sum(1 for r in rows if r.get("variant") == "general")
    return Pass(t1 - t0, t2 - t0, work, theory_rows, code, text, lambda_opt)


def setup_samples() -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up call exited with {done.returncode}")
    return times


def quartiles(values) -> dict:
    q1, q2, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    w = build(args.workload, args.seed, args.size, args.threads)
    checker = Checker(w, args.seed)

    def check(p: Pass):
        checker.cli_rows(p.code, p.text)
        if w.optimal_lambda is not None:
            checker.optimal_lambda(p.lambda_opt)

    # untimed: thread-count invariance of one grid point, which also warms up
    # the simulation path; the theory path warms up on a two-point curve
    if w.spot is not None:
        one = run_cli(w.spot + ["--threads", "1"])
        many = run_cli(w.spot + ["--threads", str(args.threads)])
        checker.count(one[0] == 0 and one == many)
    else:
        run_cli(w.argv[: w.argv.index("--points") + 1] + ["2", "--spacing", "log"])

    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            with tracing.Tracer() as tr:
                p = run_pass(w)
            traced.append((p, tracing.layer_metrics(
                tr.spans, tr.counts(), p.pass_s, p.theory_rows, args.threads)))
        else:
            if not args.trace:
                setup += setup_samples()
            p = run_pass(w)
            plain.append(p)
        check(p)
        enough = len(traced) >= 1 if args.trace else len(plain) >= 1
        if enough and time.perf_counter() - start >= args.seconds:
            break
    if not args.trace:
        setup += setup_samples()

    plain_s = [p.pass_s for p in plain]
    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "pass_s": plain_s,
        "pass_quartiles": quartiles(plain_s),
        "setup_s": setup,
        "reference_used": checker.reference is not None,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"].get("blas"),
    }
    if args.trace:
        layer = {}
        for name, (_, unit) in traced[0][1].items():
            layer[name] = (float(np.median([m[name][0] for _, m in traced])), unit)
        overhead = np.median([p.pass_s for p, _ in traced]) / np.median(plain_s) - 1.0
        layer["trace.overhead_frac"] = (float(overhead), "ratio")
        result["traced_pass_s"] = [p.pass_s for p, _ in traced]
        result["metrics"] = layer
    else:
        result["metrics"] = {
            "setup_s": (quartiles(setup)["median"], "s"),
            "work_per_s": (float(np.median([p.work / p.cli_s for p in plain])), "1/s"),
            "pass_s": (quartiles(plain_s)["median"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
