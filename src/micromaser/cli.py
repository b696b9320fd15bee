"""Command line front end: steady distributions, pump sweeps, comparisons.

Configuration comes from a JSON document (--config PATH, or '-' for standard
input) overridden by flags; kappa = 1 by default so every rate is reported
in cavity-loss units.  Output is CSV (17 significant digits) or JSON
({config_echo, rows}, indented by two spaces per level), deterministic
and byte-stable for a fixed config; the constant columns of each output row
(a steady cell, or a model's sweep along the pump axis) are encoded once
into the fixed text between its list columns, and each row's lines are one
join of that text with the texts of its list columns.  A list column of
finite floats or of ints is formatted in one %-formatting call, and a list
that several rows share (a sweep's pump column) once per output.
Exit codes: 0 full success, 2 when some sweep points failed (rows for the
rest are still emitted), 1 on configuration errors and, without a
traceback, on an output its reader closed early (`| head`) or that could
not be written, flushed or closed (one stderr line, `cannot write output
'<path, or stdout>': <error>`).

This module checks only what the library cannot know: the JSON types (a
string or true/false where a number belongs), empty model and pump lists,
unknown keys, models and options, and `workers` (accepted, checked and
echoed, but ignored).  The models, their constructors and the options each
takes, with their defaults, are the table models.MODELS.  Every range, and
its message, is the library's:
RunConfig maps the words (`truncation` "auto" and `cutoff` "off" to None;
`cutoff` "auto" keeps each model's own), calls steady.check_axis_options
(kappa, truncation, cutoff) and, once, PumpParameters.from_pump on the
whole pump axis (g tau_bar, each pump's rate r), and builds each model
once on them, so that its constructor judges its options (a ValueError
becomes a ConfigError); that model is solved over the whole pump axis in
one pass (steady.solve_pump_axis).  Rows and error lines come in grid
order (model, then pump).  The argument parser is built once per process
(build_parser), which saves about 1 ms only for a caller that runs main
more than once in one process; parse_args keeps no state in it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from .fock import TruncatedSpace, is_integer
from .models import MODEL_NAMES, MODELS
from .observables import distribution_distance
from .pump import PumpParameters
from .steady import check_axis_options, solve_pump_axis

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CLOSED = 1  # the reader closed the output before the last row
EXIT_WRITE = 1  # writing, flushing or closing the output failed
EXIT_PARTIAL = 2

STEADY_COLUMNS = ("model", "g_tau_bar", "pump_A_over_kappa", "n", "p_n", "negative_flag")
SWEEP_COLUMNS = (
    "model",
    "g_tau_bar",
    "pump_A_over_kappa",
    "mean_n",
    "variance",
    "mandel_Q",
    "linewidth_D",
    "normalized_D",
    "status",
)
COMPARE_COLUMNS = (
    "model_pair",
    "g_tau_bar",
    "pump_A_over_kappa",
    "total_variation",
    "delta_mean_n",
    "delta_mandel_Q",
    "status",
)
LINEWIDTH_COLUMNS = (
    "model",
    "g_tau_bar",
    "pump_A_over_kappa",
    "mean_n",
    "linewidth_D",
    "normalized_D",
    "status",
)
# each per-pump column of sweep and linewidth -> the PumpAxis field it holds
POINT_FIELDS = {
    "mean_n": "mean_n",
    "variance": "variance",
    "mandel_Q": "mandel_Q",
    "linewidth_D": "D",
    "normalized_D": "normalized_D",
    "status": "status",
}


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 1."""


def _number(name: str, value) -> float:
    """A JSON number as a float; a string or true/false is no number here.
    An integer past the float range is +-inf, as JSON 1e400 is, for the
    library to name."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_int(value):
    """Integral floats (JSON 2.0) become ints; anything else is kept as is."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _option(given: dict, name: str, default):
    """A model option: its default unless given, else a JSON number where the
    pump sets the default (None) or an integral float as an int."""
    if name not in given:
        return default
    return _number(name, given[name]) if default is None else _as_int(given[name])


# The config's words for truncation and cutoff, as solve_pump_axis takes them.
_WORDS = {"truncation": {"auto": None}, "cutoff": {"auto": "auto", "off": None}}


def _library_value(name: str, value):
    """A truncation or cutoff as solve_pump_axis takes it: a word mapped by
    _WORDS, a number as it is, for the library to judge."""
    words = _WORDS[name]
    if not isinstance(value, str) and value is not None:
        return value
    if value not in words:
        choices = ", ".join(map(repr, words))
        raise ConfigError(f"{name} must be {choices} or a number, got {value!r}")
    return words[value]


@dataclass(frozen=True)
class ModelSpec:
    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.name!r}; choose from {', '.join(MODEL_NAMES)}")
        bad = set(self.options) - set(MODELS[self.name].options)
        if bad:
            raise ConfigError(f"model {self.name!r} does not take option(s) {sorted(bad)}")


@dataclass(frozen=True)
class RunConfig:
    models: tuple
    g_tau_bar: float
    pump: tuple
    kappa: float = 1.0
    truncation: int | str = "auto"
    cutoff: int | str = "auto"
    workers: int = 4
    # made by __post_init__: solve_pump_axis's options, and each spec's model
    axis_options: dict = field(init=False, repr=False, compare=False)
    built: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.models:
            raise ConfigError("at least one model is required")
        if not self.pump:
            raise ConfigError("at least one pump value is required")
        options = {name: _library_value(name, getattr(self, name)) for name in _WORDS}
        try:  # the library's own checks, of every pump at once
            check_axis_options(self.kappa, **options)
            params = PumpParameters.from_pump(np.asarray(self.pump), self.g_tau_bar, self.kappa)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not is_integer(self.workers) or self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")
        object.__setattr__(self, "axis_options", options)
        built, pumps = [], len(self.pump)  # one build per spec, the model solved
        for spec in self.models:
            record = MODELS[spec.name]
            try:
                options = {key: _option(spec.options, key, v) for key, v in record.options.items()}
                model = record.build(params, TruncatedSpace(1), **options)
                if (held := model.pump_count()) != pumps:
                    held = f"the model's rates hold [{held}] pump rows"
                    raise ValueError(f"{held}, not one per pump ({pumps})")
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model {spec.name!r}: {exc}") from None
            built.append(model)
        object.__setattr__(self, "built", tuple(built))

    def echo(self) -> dict:
        """The config keys (the init fields) with their values, in order."""
        echo = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        models = [{"name": spec.name, **spec.options} for spec in self.models]
        return {**echo, "models": models, "pump": list(self.pump)}


# The most pumps a START:STOP:STEPS range makes: far above any grid a sweep
# is run on, and checked before linspace allocates the whole axis.
MAX_PUMP_STEPS = 1_000_000


def _pump_range(start: float, stop: float, steps: int) -> tuple:
    """`steps` values from start to stop, both included."""
    if steps < 1:
        raise ConfigError(f"pump range needs at least 1 step, got {steps}")
    if steps > MAX_PUMP_STEPS:
        raise ConfigError(f"pump range takes at most {MAX_PUMP_STEPS} steps, got {steps}")
    for end, value in (("start", start), ("stop", stop), ("stop - start", stop - start)):
        if not math.isfinite(value):
            raise ConfigError(f"pump range {end} must be finite, got {value}")
    return tuple(float(v) for v in np.linspace(start, stop, steps))


def parse_pump_spec(text: str) -> tuple:
    """'START:STOP:STEPS' -> an inclusive linspace; a bare float -> one point."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"pump spec must be VALUE or START:STOP:STEPS, got {text!r}")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"cannot parse pump spec {text!r}: {exc}") from None
    return _pump_range(start, stop, steps)


def _normalize_models(raw) -> tuple:
    if not isinstance(raw, list):
        raise ConfigError(f"models must be a list of model names or objects, got {raw!r}")
    specs = []
    for item in raw:
        if isinstance(item, str):
            specs.append(ModelSpec(item))
        elif isinstance(item, dict):
            if "name" not in item:
                raise ConfigError(f"model entry missing 'name': {item!r}")
            options = {k: v for k, v in item.items() if k != "name"}
            specs.append(ModelSpec(item["name"], options))
        else:
            raise ConfigError(f"model entry must be a name or an object, got {item!r}")
    return tuple(specs)


def _normalize_pump(raw) -> tuple:
    if isinstance(raw, str):
        return parse_pump_spec(raw)
    if isinstance(raw, dict):
        keys = {"start", "stop", "steps"}
        missing, unknown = keys - set(raw), set(raw) - keys
        if missing:
            raise ConfigError(f"pump range object missing {sorted(missing)}")
        if unknown:
            raise ConfigError(f"unknown pump range key(s): {sorted(unknown)}")
        start = _number("pump.start", raw["start"])
        stop = _number("pump.stop", raw["stop"])
        steps = _as_int(raw["steps"])
        if not is_integer(steps):
            raise ConfigError(f"pump.steps must be an integer, got {raw['steps']!r}")
        return _pump_range(start, stop, steps)
    if isinstance(raw, (list, tuple)):
        if set(map(type, raw)) <= {float}:  # as JSON gives most lists: nothing to check
            return tuple(raw)
        return tuple(_number(f"pump[{i}]", v) for i, v in enumerate(raw))
    if isinstance(raw, (bool, int, float)):
        return (_number("pump", raw),)
    raise ConfigError(f"cannot interpret pump specification {raw!r}")


def load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        try:
            if args.config == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.config, encoding="utf-8") as fh:
                    data = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON, UTF-8 and int-digit errors
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
    unknown = set(data) - {f.name for f in fields(RunConfig) if f.init}
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    # a --pump text is parsed below, as a config string is
    flags = dict(models=args.model, g_tau_bar=args.gtau, pump=args.pump, workers=args.workers)
    data.update({key: value for key, value in flags.items() if value is not None})
    for key, flag in (("models", "--model"), ("g_tau_bar", "--gtau"), ("pump", "--pump")):
        if key not in data:
            raise ConfigError(f"no {key} given (config {key!r} or {flag})")
    config = RunConfig(
        models=_normalize_models(data["models"]),
        g_tau_bar=_number("g_tau_bar", data["g_tau_bar"]),
        pump=_normalize_pump(data["pump"]),
        kappa=_number("kappa", data.get("kappa", 1.0)),
        truncation=_as_int(data.get("truncation", "auto")),
        cutoff=_as_int(data.get("cutoff", "auto")),
        workers=_as_int(data.get("workers", 4)),
    )
    if args.command == "compare" and len(config.models) < 2:
        raise ConfigError("compare needs at least 2 models")
    return config


def _solve_grid(config: RunConfig, command: str, linewidth: bool = False) -> tuple[list, int]:
    """Per model, its PumpAxis, solved in one pass (solve_pump_axis); each
    failed cell (n_max 0) is reported on stderr under the command's name,
    in grid order."""
    options = dict(linewidth=linewidth, **config.axis_options)
    grid = [solve_pump_axis(model, config.kappa, **options) for model in config.built]
    failures = 0
    for spec, axis in zip(config.models, grid):
        failed = np.flatnonzero(axis.n_max == 0).tolist()
        failures += len(failed)
        for i in failed:
            error = axis.status[i][len("error: ") :]
            print(f"{command}: {spec.name} at pump {config.pump[i]}: {error}", file=sys.stderr)
    return grid, failures


def run_steady(config: RunConfig, command: str) -> tuple[list[dict], int]:
    """One row per solved cell, its distribution held in the n, p_n and
    negative_flag columns as equal-length lists: one output line per level."""
    grid, failures = _solve_grid(config, command)
    rows = [
        {
            "model": spec.name,
            "g_tau_bar": config.g_tau_bar,
            "pump_A_over_kappa": pump_value,
            "n": range(p.size),
            "p_n": p.tolist(),
            "negative_flag": (p < 0).astype(int).tolist(),
        }
        for spec, axis in zip(config.models, grid)
        for pump_value, p in zip(config.pump, axis.p)
        if p is not None
    ]
    return rows, failures


def run_points(config: RunConfig, command: str) -> tuple[list[dict], int]:
    """Moments and linewidth of every cell, for sweep and linewidth: one row
    per model, each per-pump column a list along the pump axis (one output
    line per pump), read from its field (POINT_FIELDS); each command's
    output picks its own columns."""
    grid, failures = _solve_grid(config, command, linewidth=True)
    rows, pumps = [], list(config.pump)
    for spec, axis in zip(config.models, grid):
        row = {"model": spec.name, "g_tau_bar": config.g_tau_bar, "pump_A_over_kappa": pumps}
        for column, name in POINT_FIELDS.items():
            values = getattr(axis, name)
            row[column] = values.tolist() if isinstance(values, np.ndarray) else values
        rows.append(row)
    return rows, failures


def run_compare(config: RunConfig, command: str) -> tuple[list[dict], int]:
    """One row per model pair and pump: the total-variation distance of the
    two distributions and the differences of their moments, which are read
    from each model's columns."""
    grid, failures = _solve_grid(config, command)
    means = [axis.mean_n.tolist() for axis in grid]
    mandel_qs = [axis.mandel_Q.tolist() for axis in grid]
    rows: list[dict] = []
    for k, p in enumerate(config.pump):
        for i, spec_a in enumerate(config.models):
            for j, spec_b in enumerate(config.models[i + 1 :], start=i + 1):
                status_a, status_b = grid[i].status[k], grid[j].status[k]
                row = {
                    "model_pair": f"{spec_a.name}|{spec_b.name}",
                    "g_tau_bar": config.g_tau_bar,
                    "pump_A_over_kappa": p,
                    "total_variation": None,
                    "delta_mean_n": None,
                    "delta_mandel_Q": None,
                    "status": "ok",
                }
                if status_a != "ok" or status_b != "ok":
                    row["status"] = status_a if status_a != "ok" else status_b
                    rows.append(row)
                    continue
                row["total_variation"] = distribution_distance(grid[i].p[k], grid[j].p[k])
                row["delta_mean_n"] = means[i][k] - means[j][k]
                q_a, q_b = mandel_qs[i][k], mandel_qs[j][k]
                if math.isnan(q_a) or math.isnan(q_b):
                    row["status"] = "undefined: Mandel Q needs a nonzero mean"
                else:
                    row["delta_mandel_Q"] = q_a - q_b
                rows.append(row)
    return rows, failures


# Output.  A row's cells are scalars, except that a column may hold a list
# (or range): such a row stands for one output line per entry, its scalar
# cells repeated on each.  Non-finite floats are missing values (JSON null,
# empty CSV cell), as None is.


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.16e}" if math.isfinite(value) else ""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_cell(value) -> str:
    """The text json.dumps gives a scalar, with non-finite floats as null."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)  # None, True, False


@dataclass
class _Format:
    """How one output lays out its lines.  `cell` gives the text of a cell
    (a scalar, or one entry of a list) as it stands in a line, and `exact`,
    per type, a function that gives the texts of a list of values of that
    type (every one finite, for float) as `cell` does, in one or a few C
    calls.  A line is `head`, then each cell's text followed by its entry of
    `seps`: a separator, or the end of the line after the last cell.
    `counts` caches the texts of 0, 1, 2, ... for a counting column, and
    `last` holds each column's last list with its texts, so a list that
    several rows share is formatted once."""

    cell: Callable
    exact: dict
    head: str
    seps: list
    counts: list = field(default_factory=list)
    last: dict = field(default_factory=dict)


def _one_call(directive: str) -> Callable:
    """The texts of a list of values from one %-formatting call: directive,
    which writes no comma, once per value, joined by commas and split on
    them."""
    return lambda values: (",".join([directive] * len(values)) % tuple(values)).split(",")


def _each(text: Callable) -> Callable:
    """The texts of a list of values, text(value) for each."""
    return lambda values: list(map(text, values))


def _texts(values, fmt: _Format) -> list:
    """The text of each list entry: the cached counts for range(n), else
    the exact function where one applies."""
    if isinstance(values, range) and values == range(len(values)):
        fmt.counts.extend(map(int.__repr__, range(len(fmt.counts), len(values))))
        # copied by iteration: with a slice, a steady JSON run of 35,000
        # levels peaked 0.9 MB higher in resident memory (glibc malloc)
        return list(islice(fmt.counts, len(values)))
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= fmt.exact.keys():
        (kind,) = kinds
        if kind is not float or all(map(math.isfinite, values)):
            return fmt.exact[kind](values)
    return list(map(fmt.cell, values))


def _row_text(row: dict, columns: tuple, fmt: _Format) -> str:
    """The output lines of one row as one string.  The scalar cells are
    encoded once, into the fixed text around the list columns; the lines
    are one join of that fixed text, repeated, with the entry texts of
    each list column, interleaved by C iterators."""
    fixed, texts, lines = [fmt.head], [], 1
    # the texts of the last row's lists that this row does not share are freed first
    fmt.last = {col: held for col, held in fmt.last.items() if held[0] is row[col]}
    for col, sep in zip(columns, fmt.seps, strict=True):
        value = row[col]
        if isinstance(value, (list, range)):
            last = fmt.last.get(col)
            if last is None or last[0] is not value:
                last = fmt.last[col] = (value, _texts(value, fmt))
            texts.append(last[1])
            fixed.append(sep)
            lines = len(value)
        else:
            fixed[-1] += fmt.cell(value) + sep
    pieces = [repeat(fixed[0], lines)]
    for text, after in zip(texts, fixed[1:]):
        pieces += (text, repeat(after, lines))
    return "".join(chain.from_iterable(zip(*pieces, strict=True)))


def write_csv(rows: list[dict], columns: tuple, stream) -> None:
    line: list[str] = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")

    @functools.cache
    def quoted(text: str) -> str:
        writer.writerow(["", text])  # the csv module's quoting of a cell in a line
        return line.pop()[1:-1]

    fmt = _Format(
        cell=lambda value: quoted(_csv_cell(value)),
        exact={float: _one_call("%.16e"), int: _one_call("%d"), str: _each(quoted)},
        head="",
        seps=[","] * (len(columns) - 1) + ["\n"],
    )
    writer.writerow(columns)
    stream.write(line.pop())
    for row in rows:
        stream.write(_row_text(row, columns, fmt))


def write_json(rows: list[dict], columns: tuple, config: RunConfig, command: str, stream) -> None:
    """{config_echo, rows}, byte for byte as the json module writes it with
    indent=2: the short echo through json.dumps, then each row's lines as
    they are made.  A line starts with the ",\n" that separates it from the
    line before; the first line drops the comma."""
    echo = json.dumps({"command": command, **config.echo()}, indent=2, allow_nan=False)
    keys = [f"      {encode_basestring_ascii(col)}: " for col in columns]
    fmt = _Format(
        cell=_json_cell,
        exact={  # one "%r" call is slower than float.__repr__ on each value
            float: _each(float.__repr__),
            int: _one_call("%d"),
            str: _each(encode_basestring_ascii),
        },
        head=",\n    {\n" + keys[0],
        seps=[",\n" + key for key in keys[1:]] + ["\n    }"],
    )
    stream.write('{\n  "config_echo": ' + echo.replace("\n", "\n  ") + ',\n  "rows": [')
    first = True
    for row in rows:
        text = _row_text(row, columns, fmt)
        if text:
            stream.write(text[1:] if first else text)
            first = False
    stream.write("]\n}\n" if first else "\n  ]\n}\n")


# command -> (runner, the columns its output keeps from each row)
_COMMANDS = {
    "steady": (run_steady, STEADY_COLUMNS),
    "sweep": (run_points, SWEEP_COLUMNS),
    "compare": (run_compare, COMPARE_COLUMNS),
    "linewidth": (run_points, LINEWIDTH_COLUMNS),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (see the module docstring)."""
    parser = _Parser(
        prog="micromaser",
        description="Steady states and observables of five pumped-cavity models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("steady", "photon-number distribution per (model, pump) point"),
        ("sweep", "moments and linewidth across pump values"),
        ("compare", "pairwise distribution distances between models"),
        ("linewidth", "phase-diffusion rate across pump values"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config path, or '-' for stdin")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        cmd.add_argument(
            "--model",
            action="append",
            help=f"model name ({', '.join(MODEL_NAMES)}); repeatable",
        )
        cmd.add_argument("--gtau", type=float, help="coupling-time product g tau_bar")
        cmd.add_argument(
            "--pump",
            help="pump value or START:STOP:STEPS range (A/kappa units)",
        )
        cmd.add_argument(
            "--workers", type=int, help="accepted and echoed, but ignored: cells run on one thread"
        )
    return parser


def _open_output(path: str, stack: contextlib.ExitStack):
    try:
        return stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad flags (code 1 via _Parser) and on --help (0);
        # surface both as return codes so embedding callers get an int
        return int(exc.code or 0)
    with contextlib.ExitStack() as stack:
        try:
            config = load_config(args)
            runner, columns = _COMMANDS[args.command]
            # opened before the solve, so an unwritable path costs no solve
            stream = sys.stdout if not args.out else _open_output(args.out, stack)
            rows, failures = runner(config, args.command)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        # each row goes to the output as it is made: no copy of the whole text
        try:
            if args.format == "json":
                write_json(rows, columns, config, args.command, stream)
            else:
                write_csv(rows, columns, stream)
            stream.flush()
            stack.close()  # an --out file's close can fail as a write does
        except OSError as exc:
            if stream is sys.stdout:
                import os

                # stdout now points at devnull, so the interpreter's last flush
                # of what is still buffered cannot fail again (Python docs,
                # "Note on SIGPIPE"); no signal handler, since callers run
                # main in process
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            with contextlib.suppress(OSError):
                stack.close()  # the --out file's last flush fails again; it is closed
            if isinstance(exc, BrokenPipeError):
                return EXIT_CLOSED
            print(f"cannot write output {args.out or 'stdout'!r}: {exc}", file=sys.stderr)
            return EXIT_WRITE
    return EXIT_PARTIAL if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
