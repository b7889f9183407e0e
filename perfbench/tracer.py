"""Per-layer tracing of rfridge from outside the package.

The tracer replaces public functions of the rfridge modules with wrappers
that record spans (name, start, end, parent) or plain call counts, and puts
every original back afterwards.  A function is wrapped at every module
attribute that binds it, so ``solve_at`` is traced whether it is reached
through ``rfridge.risk``, ``rfridge.training`` or ``rfridge.selfconsistent``.

Spans opened on a worker thread of the ``run_trials`` pool, whose own span
stack is empty, take the enclosing ``run_trials`` span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# (layer, home module, function, kind).  "span" records timed spans, "count"
# only counts calls: fixed_point_map runs millions of times per pass, and a
# span per call would cost more than the function itself.
WRAPPED = (
    ("cli", "rfridge.cli", "main", "span"),
    ("cli", "rfridge.cli", "write_records", "span"),
    ("activations", "rfridge.activations", "hermite_stats", "span"),
    ("selfconsistent", "rfridge.selfconsistent", "solve_at", "span"),
    ("selfconsistent", "rfridge.selfconsistent", "chi_scalar_oracle", "span"),
    ("selfconsistent", "rfridge.selfconsistent", "fixed_point_map", "count"),
    ("risk", "rfridge.risk", "risk_general", "span"),
    ("risk", "rfridge.risk", "risk_ridgeless", "span"),
    ("risk", "rfridge.risk", "optimal_lambda", "span"),
    ("training", "rfridge.training", "training_theory", "span"),
    ("simulate", "rfridge.simulate", "run_trials", "span"),
    ("simulate", "rfridge.simulate", "run_trial", "span"),
    ("simulate", "rfridge.simulate", "sample_sphere", "span"),
    ("simulate", "rfridge.simulate", "build_design", "span"),
    ("simulate", "rfridge.simulate", "ridge_fit", "span"),
    ("simulate", "rfridge.simulate", "aggregate", "span"),
)

POOL_SPAN = "simulate.run_trials"


def _note(name, args, kwargs, result):
    """Extra detail a span carries: rows drawn, or the ridge solver path taken."""
    if name == "simulate.sample_sphere":
        return args[1] if len(args) > 1 else kwargs["count"]
    if name == "simulate.ridge_fit":
        return result.solver_path
    return None


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def rfridge_modules():
    return [m for k, m in list(sys.modules.items()) if k == "rfridge" or k.startswith("rfridge.")]


def bindings() -> dict:
    """Every (module, attribute) -> object of the loaded rfridge modules."""
    return {(m.__name__, k): v for m in rfridge_modules() for k, v in vars(m).items()}


class Tracer:
    """Context manager: wraps on enter, restores every original on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._counters = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._pool_parent: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def counts(self) -> dict[str, int]:
        # next() on an itertools.count returns how many calls came before it
        return {name: next(c) for name, c in self._counters.items()}

    def __enter__(self):
        modules = rfridge_modules()
        for layer, home, func, kind in WRAPPED:
            original = getattr(sys.modules[home], func)
            name = f"{layer}.{func}"
            wrapper = self._span(name, original) if kind == "span" else self._count(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def _count(self, name, fn):
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not tracer._main:
                parent = tracer._pool_parent
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            outer_pool = tracer._pool_parent
            if name == POOL_SPAN:
                tracer._pool_parent = sid
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._pool_parent = outer_pool
                note = _note(name, args, kwargs, result) if result is not None else None
                tracer.spans.append(Span(sid, name, parent, start, end, note))

        return wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - _covered(children.get(s.id, ())) for s in spans}


def _ms_quantile(durations, q: int) -> float:
    """q-th percentile of durations in ms (0 without spans)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, counts, wall_s: float, theory_rows: int, threads: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by name, as (value, unit) pairs."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(name, note=None):
        return [s for s in by_name.get(name, ()) if note is None or s.note == note]

    def calls(name, note=None):
        return len(pick(name, note))

    def total(name):
        return sum(s.duration for s in pick(name))

    def self_s(name, note=None):
        return sum(selfs[s.id] for s in pick(name, note))

    def ms(name, q):
        return _ms_quantile([s.duration for s in pick(name)], q)

    m = {}
    sc = "selfconsistent.solve_at"
    m[f"{sc}.calls"] = (calls(sc), "count")
    m[f"{sc}.self_s"] = (self_s(sc), "s")
    m[f"{sc}.ms_p50"] = (ms(sc, 50), "ms")
    m[f"{sc}.ms_p90"] = (ms(sc, 90), "ms")
    # solves made inside CLI calls per general-variant theory row they wrote
    cli_ids = {s.id for s in pick("cli.main")}
    parent_of = {s.id: s.parent for s in spans}

    def under_cli(s):
        p = s.parent
        while p is not None:
            if p in cli_ids:
                return True
            p = parent_of.get(p)
        return False

    cli_solves = sum(1 for s in pick(sc) if under_cli(s))
    m[f"{sc}.per_point"] = (cli_solves / theory_rows if theory_rows else 0.0, "solves/row")
    oc = "selfconsistent.chi_scalar_oracle"
    m[f"{oc}.calls"] = (calls(oc), "count")
    m[f"{oc}.self_s"] = (self_s(oc), "s")
    m[f"{oc}.ms_p50"] = (ms(oc, 50), "ms")
    m["selfconsistent.fixed_point_map.calls"] = (counts.get("selfconsistent.fixed_point_map", 0), "count")

    m["risk.risk_general.calls"] = (calls("risk.risk_general"), "count")
    m["risk.risk_general.self_s"] = (self_s("risk.risk_general"), "s")
    m["risk.risk_ridgeless.calls"] = (calls("risk.risk_ridgeless"), "count")
    opt_ids = {s.id for s in pick("risk.optimal_lambda")}
    m["risk.optimal_lambda.profile_evals"] = (
        sum(1 for s in spans
            if s.parent in opt_ids and s.name in ("risk.risk_general", "risk.risk_ridgeless")),
        "count",
    )
    m["risk.optimal_lambda.s"] = (total("risk.optimal_lambda"), "s")
    m["training.training_theory.calls"] = (calls("training.training_theory"), "count")
    m["training.training_theory.self_s"] = (self_s("training.training_theory"), "s")

    ss = "simulate.sample_sphere"
    rows = sum(s.note or 0 for s in pick(ss))
    trials = calls("simulate.run_trial")
    m[f"{ss}.calls"] = (calls(ss), "count")
    m[f"{ss}.rows"] = (rows, "count")
    m[f"{ss}.self_s"] = (self_s(ss), "s")
    m[f"{ss}.rows_per_trial"] = (rows / trials if trials else 0.0, "rows/trial")
    m["simulate.build_design.self_s"] = (self_s("simulate.build_design"), "s")
    rf = "simulate.ridge_fit"
    m[f"{rf}.calls"] = (calls(rf), "count")
    m[f"{rf}.self_s"] = (self_s(rf), "s")
    for path in ("primal", "dual", "svd"):
        m[f"{rf}.{path}.calls"] = (calls(rf, path), "count")
        m[f"{rf}.{path}.self_s"] = (self_s(rf, path), "s")
    m["simulate.run_trial.ms_p50"] = (ms("simulate.run_trial", 50), "ms")
    m["simulate.run_trial.self_s"] = (self_s("simulate.run_trial"), "s")
    pool_s = total("simulate.run_trials")
    m["simulate.run_trials.s"] = (pool_s, "s")
    m["simulate.aggregate.self_s"] = (self_s("simulate.aggregate"), "s")
    busy = total("simulate.run_trial")
    m["simulate.run_trials.busy_frac"] = (busy / (pool_s * threads) if pool_s else 0.0, "ratio")

    m["activations.hermite_stats.calls"] = (calls("activations.hermite_stats"), "count")
    m["activations.hermite_stats.s"] = (total("activations.hermite_stats"), "s")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.self_s"] = (self_s("cli.main") + self_s("cli.write_records"), "s")
    m["cli.write_records.s"] = (total("cli.write_records"), "s")

    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.self_sum_s"] = (sum(selfs.values()), "s")
    m["trace.unwrapped_s"] = (wall_s - _covered(roots), "s")
    return m
