"""rfridge benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload theory-curve|sim-psi1|compare-lambda
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; rfridge is imported from ./src, not
from an installed copy.  The workload runs in a fresh worker process
(worker.py) with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
removed from its environment, so the library's default threading is what
gets measured, and simulations run with --threads equal to the usable cores.

With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see tracer.py).  The line before the
result records provenance: git SHA, cores, Python / numpy / BLAS, the
removed variables, the seed and every pass time with median and quartiles.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 160.0


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rfridge benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "rfridge" / "cli.py").is_file():
        print(f"error: no rfridge sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    removed = {k: env.pop(k) for k in BLAS_VARS if k in env}
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))

    metrics = {}
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--threads", str(nproc), "--size", args.size,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
    if not args.trace:
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}

    provenance = {
        "git_sha": git_sha(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "removed_env": removed,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "reference_used": result["reference_used"],
        "pass_s": result["pass_s"],
        "pass_quartiles": result["pass_quartiles"],
        "setup_s": result["setup_s"],
    }
    if "traced_pass_s" in result:
        provenance["traced_pass_s"] = result["traced_pass_s"]
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
