"""Command-line front end: sweeps over theory curves, simulations, and comparisons.

Five subcommands share one flat column layout so their outputs concatenate and
join cleanly:

  stats     activation moment statistics
  theory    asymptotic curves (general / ridgeless / wide / lsamp variants)
  simulate  finite-dimensional Monte Carlo
  compare   simulation and theory side by side with z-scores
  phase     optimal-penalty phase quantities and verdict

Shape parameters are given either as finite sizes (--d --n --N --lambda) or as
asymptotic ratios (--psi1 --psi2 --lambda-bar); mixing the two groups is an
error.  Each subcommand fills one Table, held by column: _grid reads the
flags as one point whose swept parameter holds the list of its values, and
_point_cells turns that into the shape, rho and target-power columns, a cell
shared by every row unless the sweep sets it, nan where a flag was not given.
The penalty conversion lambda_bar = lambda / mu_star_sq happens there, at the
CLI boundary, exactly once; in asymptotic mode the regularization axis
already is lambda_bar.  Exit codes: 0 success, 2 argument, file or domain
error, 3 numerical failure, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .activations import (
    MAX_ORDER,
    Activation,
    DegenerateActivation,
    QuadratureFailure,
    hermite_stats,
)
from .risk import (
    ChiDisagreement,
    TargetSpec,
    ThresholdSingularity,
    theory_columns,
    wide_phase,
)
from .selfconsistent import (
    InvariantViolation,
    NoConvergence,
    RootSelectionAmbiguous,
)
from .simulate import (
    SMALL_TEST_SET,
    SimConfig,
    SmallTestSetWarning,
    TargetKind,
    aggregate,
    nonlinear_power,
    run_trials,
)

NAN = float("nan")
INF = float("inf")
_NON_FINITE = {"inf": INF, "-inf": -INF, "nan": NAN}

# one fixed, ordered layout per table kind; every writer and reader uses these
COLUMNS = (
    "command",
    "variant",
    "model",
    "target",
    "activation",
    "d",
    "n",
    "N",
    "lambda",
    "psi1",
    "psi2",
    "lambda_bar",
    "zeta_sq",
    "mu_star_sq",
    "f1_sq",
    "fstar_sq",
    "tau_sq",
    "rho",
    "theory_bias_B",
    "theory_var_V",
    "theory_risk_R",
    "theory_test_error",
    "theory_train_error",
    "theory_norm_msq",
    "sim_test_error_mean",
    "sim_test_error_sem",
    "sim_train_error_mean",
    "sim_train_error_sem",
    "sim_penalty_mean",
    "sim_penalty_sem",
    "sim_norm_sq_mean",
    "sim_norm_sq_sem",
    "sim_norm_msq_mean",
    "sim_norm_msq_sem",
    "trials",
    "z_test_error",
    "z_train_error",
    "z_norm_msq",
    "seed",
    "tool_version",
)

STATS_COLUMNS = (
    "command",
    "activation",
    "order",
    "mu0",
    "mu1",
    "mu_star_sq",
    "zeta",
    "zeta_sq",
    "quadrature_gap",
    "converged",
    "tool_version",
)

PHASE_COLUMNS = (
    "command",
    "zeta_sq",
    "psi2",
    "rho",
    "omega0",
    "omega1",
    "rho_star",
    "zeta_star_sq",
    "lambda_star",
    "verdict",
    "tool_version",
)


@functools.cache
def _unknown(columns: tuple) -> dict:
    """Every cell of columns unknown: "" for text, nan for numbers, and the version."""
    text = ("command", "variant", "model", "target", "activation", "verdict")
    cells = {c: "" if c in text else NAN for c in columns}
    if "tool_version" in cells:
        cells["tool_version"] = __version__
    return cells


class Table:
    """The rows a command writes, held by column.

    cells maps each of columns to one cell that every row shares, or to a
    list of one cell per row; a column given no cell, or None, is unknown
    (_unknown).  rows is explicit: a table may have no per-row column.
    """

    def __init__(self, columns: tuple, rows: int, **cells):
        self.columns, self.rows = columns, rows
        self.cells = dict(_unknown(columns))
        self.update(cells)

    def update(self, cells: dict) -> None:
        for c, v in cells.items():
            if c not in self.cells:
                raise KeyError(f"unknown column {c!r}")
            if v is not None:
                self.cells[c] = v

    def column(self, c: str) -> list:
        """The cells of column c, one per row."""
        v = self.cells[c]
        return v if isinstance(v, list) else [v] * self.rows


def format_value(v) -> str:
    """CSV cell: 17 significant digits, '.' decimal, 'inf'/'nan' literals."""
    # most cells are plain floats; this is the branch below, without the checks
    if type(v) is float:
        return "%.17g" % v
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _json_cell(v):
    """A cell as JSONL writes it: integers and booleans as ints, non-finite floats as text."""
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        # strict JSON has no inf/nan literals
        return float(v) if math.isfinite(v) else format_value(v)
    return v


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted only where csv.writer quotes it."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        # csv.writer holds the quoting rule; only such rare fields pay for a call to it
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text])
        return buffer.getvalue()[:-1]
    return text


def _csv_body(table: Table) -> str:
    """The CSV rows of table from one %-template: a shared cell is formatted once
    into the template (%-escaped), a per-row column of plain floats is a %.17g
    field and any other a %s of its formatted cells."""
    parts, varying = [], []
    for c in table.columns:
        v = table.cells[c]
        if not isinstance(v, list):
            parts.append(_csv_field(format_value(v)).replace("%", "%%"))
        elif set(map(type, v)) <= {float}:
            parts.append("%.17g")
            varying.append(v)
        else:
            parts.append("%s")
            varying.append([_csv_field(text) for text in map(format_value, v)])
    if len(parts) == 1:
        # csv quotes the one empty field of a row, which would read back as no row
        parts = ['""' if part == "" else part for part in parts]
        varying = [['""' if text == "" else text for text in column] for column in varying]
    template = ",".join(parts) + "\n"
    return "".join([template % row for row in (zip(*varying) if varying else [()] * table.rows)])


def write_records(table: Table, fmt: str, out_path: str | None) -> None:
    """Serialize a table to CSV (header mandatory) or JSONL, to a file or stdout.

    A shared cell is formatted once, whatever the number of rows; the rows
    exist one by one only as JSONL's dicts, built here."""
    buffer = io.StringIO()
    if fmt == "csv":
        csv.writer(buffer, lineterminator="\n").writerow(table.columns)
        buffer.write(_csv_body(table))
    elif fmt == "jsonl":
        cells = [[_json_cell(x) for x in v] if isinstance(v, list) else [_json_cell(v)] * table.rows
                 for v in map(table.cells.get, table.columns)]
        buffer.writelines(json.dumps(dict(zip(table.columns, row))) + "\n" for row in zip(*cells))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    text = buffer.getvalue()
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from exc


def read_records(path_or_text: str, from_text: bool = False) -> list[dict]:
    """Parse CSV or JSONL written by write_records back into records.

    JSONL input is recognized by its leading '{'; the 'inf' / '-inf' / 'nan'
    strings that stand in for non-finite values there come back as floats.
    """
    if from_text:
        text = path_or_text
    else:
        with open(path_or_text, encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        return [
            {k: _NON_FINITE.get(v, v) if isinstance(v, str) else v
             for k, v in json.loads(line).items()}
            for line in text.splitlines()
            if line.strip()
        ]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV input")
    header = rows[0]
    return [dict(zip(header, map(_parse_cell, row))) for row in rows[1:]]


def records_equal(a: dict, b: dict) -> bool:
    """Dict equality where nan compares equal to nan."""
    if a.keys() != b.keys():
        return False
    for k in a:
        va, vb = a[k], b[k]
        if isinstance(va, float) and isinstance(vb, (int, float)):
            if math.isnan(va) and math.isnan(float(vb)):
                continue
            if float(va) != float(vb):
                return False
        elif va != vb:
            return False
    return True


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# the grid-point key and flag each swept parameter sets: with finite sizes, then
# with ratios.  With finite sizes a swept psi1 or psi2 resizes N or n at fixed d.
_SWEEPS = {
    "psi1": (("N", "--N"), ("psi1", "--psi1")),
    "psi2": (("n", "--n"), ("psi2", "--psi2")),
    "lambda": (("lam", "--lambda"), ("lambda_bar", "--lambda-bar")),
    "rho": (("rho", "--rho"), ("rho", "--rho")),
}

# the parameters each command, and each theory variant, takes: every one must be
# given or swept, and giving or sweeping any other is a usage error; theory may
# also be given or sweep rho
_TAKES = {
    "general": ("psi1", "psi2", "lambda"),
    "ridgeless": ("psi1", "psi2"),
    "wide": ("psi2", "lambda"),
    "lsamp": ("psi1", "lambda"),
    "simulate": ("psi1", "psi2", "lambda"),
    "compare": ("psi1", "psi2", "lambda"),
    "phase": ("rho", "psi2"),
}


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """The comma-separated numbers of a flag; a bad entry is named by its position."""
    values = []
    for position, tok in enumerate(text.split(","), 1):
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"{flag} entry {position} is not a number: {tok!r}") from None
    return tuple(values)


def _sweep_values(args) -> tuple[float, ...] | None:
    """The --sweep grid as Python floats, strictly increasing and never nan; None
    without --sweep."""
    if args.sweep is None:
        if any(v is not None for v in (args.grid, args.min, args.max, args.points)):
            raise ValueError("--grid/--min/--max/--points given without --sweep")
        return None
    if args.grid is not None:
        if args.min is not None or args.max is not None or args.points is not None:
            raise ValueError("give either --grid or --min/--max/--points, not both")
        values = _floats(args.grid, "--grid")
    else:
        if args.min is None or args.max is None or args.points is None:
            raise ValueError("a sweep needs --grid or all of --min/--max/--points")
        if args.points < 1:
            raise ValueError(f"--points must be >= 1, got {args.points}")
        # refused here, by flag, before numpy turns them into nan with a warning
        for flag, v in (("--min", args.min), ("--max", args.max)):
            if not math.isfinite(v):
                raise ValueError(f"{flag} must be finite, got {v}")
            if args.spacing == "log" and v <= 0:
                raise ValueError(f"log spacing needs {flag} > 0, got {v}")
        spaced = np.geomspace if args.spacing == "log" else np.linspace
        values = tuple(spaced(args.min, args.max, args.points).tolist())
    for position, v in enumerate(values, 1):
        if math.isnan(v):
            raise ValueError(f"sweep grid entry {position} is nan, got {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep grid must be strictly increasing, got {values}")
    return values


def _add_output_opts(p):
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_activation_opts(p):
    # None tells a default relu apart from an explicit flag, which --zeta-sq excludes
    p.add_argument("--activation", default=None,
                   help="relu (the default) | identity | shifted_relu:C | custom (with --expr-file)")
    p.add_argument("--expr-file", default=None, help="file with a numpy expression in u")
    p.add_argument("--breakpoints", default=None, help="comma-separated kink locations of a custom activation")
    p.add_argument("--order", type=int, default=64,
                   help=f"quadrature nodes per piece for custom activations (1 to {MAX_ORDER})")


def _add_shape_opts(p):
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--psi1", type=float, default=None)
    p.add_argument("--psi2", type=float, default=None)
    p.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=None)


def _add_sweep_opts(p):
    p.add_argument("--sweep", choices=tuple(_SWEEPS), default=None)
    p.add_argument("--grid", default=None, help="comma-separated values for the swept parameter")
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")


def parse_activation(args) -> Activation:
    spec = args.activation or "relu"
    for flag, value in (("--expr-file", args.expr_file), ("--breakpoints", args.breakpoints)):
        if value is not None and spec != "custom":
            raise ValueError(f"{flag} needs --activation custom")
    if args.order < 1:
        raise ValueError(f"--order must be >= 1, got {args.order}")
    if args.order > MAX_ORDER:
        raise ValueError(f"--order must be <= {MAX_ORDER}, got {args.order}")
    if spec == "relu":
        return Activation.relu()
    if spec == "identity":
        return Activation.identity()
    if spec.startswith("shifted_relu:"):
        shift = spec.split(":", 1)[1]
        try:
            c = float(shift)
        except ValueError:
            raise ValueError(f"--activation shift is not a number: {shift!r}") from None
        return Activation.shifted_relu(c)
    if spec == "custom":
        if args.expr_file is None:
            raise ValueError("--activation custom needs --expr-file")
        try:
            with open(args.expr_file, encoding="utf-8") as fh:
                expr = fh.read().strip()
        except OSError as exc:
            raise ValueError(f"cannot read --expr-file: {exc}") from exc
        try:
            code = compile(expr, args.expr_file, "eval")
        except SyntaxError as exc:
            raise ValueError(f"--expr-file {args.expr_file} is not an expression: {exc.msg}") from exc
        breakpoints = _floats(args.breakpoints, "--breakpoints") if args.breakpoints else ()

        def evaluate(u):
            try:
                return eval(code, {"np": np, "math": math, "u": u})
            except NameError as exc:
                raise ValueError(f"--expr-file {args.expr_file}: {exc}") from exc

        return Activation.custom(evaluate, breakpoints=breakpoints, expr=expr)
    raise ValueError(f"unknown activation {spec!r}")


def _finite(args, parser, command: str) -> bool:
    """True for finite sizes (--d --n --N --lambda), False for ratios."""
    has_finite = any(v is not None for v in (args.d, args.n, args.N, args.lam))
    has_asym = any(v is not None for v in (args.psi1, args.psi2, args.lambda_bar))
    if has_finite and has_asym:
        parser.error("give either finite sizes (--d --n --N --lambda) or ratios "
                     "(--psi1 --psi2 --lambda-bar), not both")
    if command in ("simulate", "compare") and not has_finite:
        parser.error(f"{command} needs finite sizes --d --n --N --lambda")
    if not has_finite and not has_asym:
        parser.error("no shape parameters given")
    if has_finite:
        # every grid point divides by d or scales it
        _require(parser, args.d is not None and args.d >= 1,
                 f"finite sizes need --d >= 1, got {args.d}")
    return has_finite


def _require(parser, cond: bool, message: str):
    if not cond:
        parser.error(message)


def _grid(args, parser, finite: bool) -> tuple[dict, int]:
    """The sweep grid as one point, and its number of rows: the flags as given,
    with the swept parameter's key holding the list of its values.

    The point holds d, n, N, lam and rho with finite sizes and psi1, psi2,
    lambda_bar and rho with ratios; a flag that was not given (or that the
    command lacks) is None.  A table holds nan for "not given", so a flag
    given as nan fails.  Each parameter the command or theory variant takes
    (_TAKES) must be given or swept, but not both, and any other must be
    neither.  A swept psi1 or psi2 resizes N or n at fixed d; a grid value
    whose size is not finite or rounds below 1, and two that round to one
    size, fail.
    """
    values = _sweep_values(args)
    name = args.variant if args.command == "theory" else args.command
    who = f"theory --variant {name}" if args.command == "theory" else name
    takes = _TAKES[name]
    sets = {param: keys[0 if finite else 1] for param, keys in _SWEEPS.items()}
    given = vars(args)
    point = {key: given.get(key) for key, _ in sets.values()}
    if finite:
        point["d"] = args.d
    for param, (key, flag) in sets.items():
        swept, optional = param == args.sweep, param == "rho" and args.command == "theory"
        _require(parser, point[key] is None or not math.isnan(point[key]), f"{flag} is nan")
        if param in takes:
            _require(parser, point[key] is not None or swept, f"{flag} is required (or sweep {param})")
        elif not optional:
            _require(parser, not swept, f"{who} cannot sweep {param}; it takes {', '.join(takes)}")
            _require(parser, point[key] is None, f"{who} takes no {flag}")
        _require(parser, point[key] is None or not swept, f"{flag} conflicts with sweeping {param}")
    if values is None:
        return point, 1
    key, flag = sets[args.sweep]
    if key in ("N", "n"):
        for v in values:
            _require(parser, math.isfinite(v * args.d),
                     f"{args.sweep} = {v!r} gives no finite {flag} at --d {args.d}")
        sizes = [int(round(v * args.d)) for v in values]
        for v, size in zip(values, sizes):
            _require(parser, size >= 1,
                     f"{args.sweep} = {v!r} gives {flag} {size} at --d {args.d}, below 1")
        for a, b, size, same in zip(values, values[1:], sizes, sizes[1:]):
            _require(parser, size != same,
                     f"{args.sweep} = {a!r} and {b!r} both give {flag} {size} at --d {args.d}")
        values = sizes
    point[key] = list(values)
    return point, len(values)


def _zeta_sq_or_activation(args, parser, finite: bool = False):
    """(activation, zeta_sq, mu_star_sq): from --zeta-sq if given, else the activation.

    --zeta-sq leaves no activation and mu_star_sq nan, so only ratios can use it,
    and giving --activation as well is an error.  A custom activation comes
    back holding the moments measured here at --order, so no later call
    integrates it again.
    """
    if vars(args).get("zeta_sq") is not None:
        for flag, value in (("--activation", args.activation), ("--expr-file", args.expr_file),
                            ("--breakpoints", args.breakpoints)):
            _require(parser, value is None, f"give either --zeta-sq or {flag}, not both")
        _require(parser, not finite,
                 "--zeta-sq only makes sense with ratio flags; finite sizes need an "
                 "activation for the penalty conversion")
        return None, args.zeta_sq, NAN
    activation = parse_activation(args)
    stats = hermite_stats(activation, order=args.order)
    if activation.kind == "custom":
        activation = replace(activation, stats=(stats.mu0, stats.mu1, stats.mu_star_sq))
    return activation, stats.zeta_sq, stats.mu_star_sq


def _over(value, scale):
    """value / scale, entry by entry for a list; None stays None."""
    if value is None:
        return None
    return [v / scale for v in value] if isinstance(value, list) else value / scale


def _point_cells(point, mu_star_sq: float, power_cells: dict) -> dict:
    """The shape, rho and target-power cells of a _grid point: power_cells, which
    every row shares, with the point's shape; None where unknown.  The swept
    parameter's cells are lists, one cell per row.

    Finite sizes give psi1 = N/d, psi2 = n/d and lambda_bar = lambda / mu_star_sq.
    A swept or given --rho replaces the powers' own.
    """
    if "d" in point:
        d, n, N, lam = point["d"], point["n"], point["N"], point["lam"]
        cells = {**power_cells, "d": d, "n": n, "N": N, "lambda": lam,
                 "psi1": _over(N, d), "psi2": _over(n, d), "lambda_bar": _over(lam, mu_star_sq)}
    else:
        cells = {**power_cells, **{key: point[key] for key in ("psi1", "psi2", "lambda_bar")}}
    if point["rho"] is not None:
        cells["rho"] = point["rho"]
    return cells


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_stats(args, parser) -> int:
    activation = parse_activation(args)
    stats = hermite_stats(activation, order=args.order)
    write_records(Table(STATS_COLUMNS, 1, command="stats", activation=activation.label(),
                        order=args.order, converged=1, **asdict(stats)),
                  args.format, args.out)
    return 0


def _theory_cells(table: Table, powers: TargetSpec | None) -> None:
    """Fill the theory_* columns of table with what risk.theory_columns makes of
    its variant, zeta_sq, psi1, psi2, lambda_bar and rho columns (nan where not
    given) and the target powers.  The earliest failing row raises; a solve
    that fails names its grid point for main."""
    columns, errors = theory_columns(*map(table.column, (
        "variant", "zeta_sq", "psi1", "psi2", "lambda_bar", "rho")), powers)
    if errors:
        k = min(errors)
        if isinstance(errors[k], (NoConvergence, RootSelectionAmbiguous)):
            errors[k].grid_point = " at " + ", ".join(
                f"{key} = {table.column(key)[k]!r}" for key in ("psi1", "psi2", "lambda_bar"))
        raise errors[k]
    table.update({f"theory_{c}": column.tolist() for c, column in columns.items()})


def cmd_theory(args, parser) -> int:
    finite = _finite(args, parser, "theory")
    point, rows = _grid(args, parser, finite)
    activation, zeta_sq, mu_star_sq = _zeta_sq_or_activation(args, parser, finite)
    powers = None
    if args.f1_sq is not None or args.fstar_sq is not None or args.tau_sq_theory is not None:
        powers = TargetSpec(f1_sq=args.f1_sq if args.f1_sq is not None else 0.0,
                            fstar_sq=args.fstar_sq or 0.0, tau_sq=args.tau_sq_theory or 0.0)
    power_cells = {} if powers is None else {"rho": powers.rho, **asdict(powers)}
    table = Table(COLUMNS, rows, command="theory", variant=args.variant,
                  activation=None if activation is None else activation.label(),
                  zeta_sq=zeta_sq, mu_star_sq=mu_star_sq,
                  **_point_cells(point, mu_star_sq, power_cells))
    _theory_cells(table, powers)
    write_records(table, args.format, args.out)
    return 0


def _simulation_table(args, parser, command) -> tuple[Table, list[SimConfig], TargetSpec]:
    """The grid's table without its simulation cells, one row per grid point;
    the config of each row; and the target powers the rows share: every config
    of the sweep has the same d, target and tau_sq."""
    _finite(args, parser, command)
    _require(parser, args.trials >= 2,
             f"--trials must be >= 2 for a standard error, got {args.trials}")
    _require(parser, args.threads is None or args.threads >= 1,
             f"--threads must be a positive integer, got {args.threads}")
    point, rows = _grid(args, parser, True)
    target = TargetKind(args.target, args.beta_norm)
    activation, zeta_sq, mu_star_sq = _zeta_sq_or_activation(args, parser)
    table = Table(COLUMNS, rows, command=command, model=args.model, target=target.name,
                  activation=activation.label(), zeta_sq=zeta_sq, mu_star_sq=mu_star_sq,
                  seed=args.seed, trials=args.trials, **_point_cells(point, mu_star_sq, {}))
    shared = dict(activation=activation, target=target, tau_sq=args.tau_sq, trials=args.trials,
                  seed=args.seed, n_test=args.n_test, model=args.model)
    # the warning names the flag once, not a line of this module per config
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallTestSetWarning)
        configs = [SimConfig(d=d, n=n, N=N, lam=lam, **shared)
                   for d, n, N, lam in zip(*map(table.column, ("d", "n", "N", "lambda")))]
    n_test = {config.n_test for config in configs}
    if min(n_test) < SMALL_TEST_SET:
        which = "n_test" if len(n_test) == 1 else "the smallest n_test of the sweep"
        source = "--n-test" if args.n_test is not None else "the --n-test default, 10 n"
        print(f"warning: {which} = {min(n_test)} ({source}) is below {SMALL_TEST_SET}; "
              "per-trial test errors will be noisy", file=sys.stderr)
    powers = TargetSpec(f1_sq=target.f1_sq, fstar_sq=nonlinear_power(target, args.d),
                        tau_sq=args.tau_sq)
    # simulate and compare take no --rho: the powers' own is every row's
    table.update({"rho": powers.rho, **asdict(powers)})
    return table, configs, powers


def _simulation_cells(table: Table, configs: list[SimConfig], threads: int | None) -> None:
    """Fill the sim_* columns of table, one row per config, within threads cores."""
    # keyed streams give trial t nested data across the grid: run_trials draws it once
    stats = aggregate(run_trials(configs, threads))
    cells = {f"sim_{key}": values.tolist() for key, values in stats.items()}
    mu_star_sq = table.cells["mu_star_sq"]
    for stat in ("mean", "sem"):
        cells[f"sim_norm_msq_{stat}"] = [mu_star_sq * v for v in cells[f"sim_norm_sq_{stat}"]]
    table.update(cells)


def cmd_simulate(args, parser) -> int:
    table, configs, _ = _simulation_table(args, parser, "simulate")
    _simulation_cells(table, configs, args.threads)
    write_records(table, args.format, args.out)
    return 0


def _z_scores(diff: np.ndarray, sem: np.ndarray) -> np.ndarray:
    """diff / sem elementwise, overflowing to inf without a warning; where sem is
    not positive, 0 for a zero diff and an infinity of diff's sign otherwise."""
    with np.errstate(all="ignore"):
        return np.where(sem > 0.0, diff / sem,
                        np.where(diff == 0.0, 0.0, np.copysign(INF, diff)))


def cmd_compare(args, parser) -> int:
    table, configs, powers = _simulation_table(args, parser, "compare")
    general = [lam > 0.0 for lam in table.column("lambda")]
    table.update({"variant": ["general" if g else "ridgeless" for g in general]})
    # a refused theory row is refused before any trial is drawn
    _theory_cells(table, powers)
    _simulation_cells(table, configs, args.threads)
    for q in ("test_error", "train_error", "norm_msq"):
        z = _z_scores(np.subtract(table.column(f"sim_{q}_mean"), table.column(f"theory_{q}")),
                      np.array(table.column(f"sim_{q}_sem"), dtype=float))
        # the ridgeless endpoint has no training theory to score against
        table.update({f"z_{q}": (z if q == "test_error" else np.where(general, z, NAN)).tolist()})
    write_records(table, args.format, args.out)
    return 0


def cmd_phase(args, parser) -> int:
    # the ratio is never assumed
    _require(parser, args.zeta_sq is not None or args.activation is not None,
             "phase needs --zeta-sq or --activation")
    _, zeta_sq, _ = _zeta_sq_or_activation(args, parser)
    point, rows = _grid(args, parser, False)
    table = Table(PHASE_COLUMNS, rows, command="phase", zeta_sq=zeta_sq, psi2=point["psi2"],
                  rho=point["rho"])
    phases = [wide_phase(zeta_sq, psi2, rho)
              for psi2, rho in zip(table.column("psi2"), table.column("rho"))]
    cells = {f.name: [getattr(pq, f.name) for pq in phases] for f in fields(phases[0])}
    cells["verdict"] = ["interior lambda_star" if pq.lambda_star > 0.0
                        else "optimal lambda_bar = 0" for pq in phases]
    table.update(cells)
    write_records(table, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rfridge parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rfridge",
        description="Asymptotic theory and Monte Carlo for random-features ridge regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="activation moment statistics")
    _add_activation_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("theory", help="asymptotic risk curves")
    p.add_argument("--variant", choices=("general", "ridgeless", "wide", "lsamp"),
                   default="general")
    p.add_argument("--zeta-sq", dest="zeta_sq", type=float, default=None)
    p.add_argument("--rho", type=float, default=None,
                   help="signal-to-noise ratio (accepts inf)")
    p.add_argument("--f1-sq", dest="f1_sq", type=float, default=None)
    p.add_argument("--fstar-sq", dest="fstar_sq", type=float, default=None)
    p.add_argument("--tau-sq", dest="tau_sq_theory", type=float, default=None)
    _add_activation_opts(p)
    _add_shape_opts(p)
    _add_sweep_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_theory)

    for name in ("simulate", "compare"):
        p = sub.add_parser(name, help=f"{name} finite-dimensional experiments")
        p.add_argument("--target", choices=("linear", "linear_plus_quad", "linear_plus_cross"),
                       default="linear")
        p.add_argument("--beta-norm", dest="beta_norm", type=float, default=1.0)
        p.add_argument("--tau-sq", dest="tau_sq", type=float, default=0.0)
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-test", dest="n_test", type=int, default=None)
        p.add_argument("--model", choices=("random_features", "gaussian_covariates"),
                       default="random_features")
        p.add_argument("--threads", type=int, default=None,
                       help="cores to use (default and at most the usable cores); a sweep with no "
                            "ridgeless point (every lambda > 1e-6) pins BLAS to one "
                            "thread for the run, restored afterwards, and runs threads "
                            "trials at a time; a sweep with one keeps the BLAS threads and "
                            "runs threads // (BLAS threads) at a time, so in order under "
                            "numpy's default BLAS threading and in parallel with "
                            "OPENBLAS_NUM_THREADS=1; if the BLAS count cannot be read it "
                            "is taken to be the usable cores and nothing is pinned")
        _add_activation_opts(p)
        _add_shape_opts(p)
        _add_sweep_opts(p)
        _add_output_opts(p)
        p.set_defaults(func=cmd_simulate if name == "simulate" else cmd_compare)

    p = sub.add_parser("phase", help="optimal-penalty phase quantities")
    p.add_argument("--zeta-sq", dest="zeta_sq", type=float, default=None)
    _add_activation_opts(p)
    p.add_argument("--psi2", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    _add_sweep_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_phase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return exc.code if isinstance(exc.code, int) else 2
    except (DegenerateActivation, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (
        NoConvergence,
        RootSelectionAmbiguous,
        QuadratureFailure,
        ThresholdSingularity,
    ) as exc:
        # a sweep's failing solve names its grid point, which the library's message does not
        print(f"numerical failure: {exc}{getattr(exc, 'grid_point', '')}", file=sys.stderr)
        return 3
    except (InvariantViolation, ChiDisagreement) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
