"""Write reference.json: seed-0 outputs of every workload, at both sizes.

    PYTHONPATH=src python3 perfbench/make_reference.py

The seed-0 correctness check compares every cell of a run against these
outputs, so regenerate them only when a change to the program is meant to
move its results, and say so with the change.
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> int:
    reference = {}
    for size in worker.SIZES:
        for name in worker.WORKLOADS:
            w = worker.build(name, 0, size, threads=1)
            p = worker.run_pass(w)
            if p.code != 0:
                print(f"error: {w.key} exited with {p.code}", file=sys.stderr)
                return 1
            entry = {"argv": w.argv, "csv": p.text}
            if w.optimal_lambda is not None:
                entry["optimal_lambda"] = list(p.lambda_opt)
            reference[w.key] = entry
    worker.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
