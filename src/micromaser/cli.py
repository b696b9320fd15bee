"""Command line front end: steady distributions, pump sweeps, comparisons.

Configuration comes from a JSON document (--config PATH, or '-' for standard
input) overridden by flags; kappa = 1 by default so every rate is reported
in cavity-loss units.  Output is CSV (17 significant digits) or JSON
({config_echo, rows}, indented by two spaces per level), deterministic
and byte-stable for a fixed config; the constant columns of each output row
(a steady cell, or a model's sweep along the pump axis) are encoded once
into the fixed text between its list columns, and each row's lines are one
join of that text with the texts of its list columns.
Exit codes: 0 full success, 2 when some sweep points failed (rows for the
rest are still emitted), 1 on configuration errors and, without a
traceback, on an output its reader closed early (`| head`).  Every model is
built once while the configuration is read, so a model option its
constructor rejects is a configuration error.  Each model is then solved over its whole
pump axis in one pass (steady.solve_pump_axis), model by model on the
calling thread, and its per-pump columns go to the output rows as lists;
rows and error lines come in grid order (model, then pump).  The `cutoff`
"auto" keeps each model's own cutoff; "off" drops it, an integer replaces it.
The `workers` setting is accepted, checked and echoed, but ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from .fock import TruncatedSpace
from .measures import TimeMeasure, build_basis
from .models import (
    EXACT,
    HEURISTIC,
    MODEL_NAMES,
    POST4,
    UNIFORM,
    WEAK,
    exact_model,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    uniform_model,
    weak_coupling_model,
)
from .observables import distribution_distance
from .pump import PumpParameters
from .steady import solve_pump_axis

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CLOSED = 1  # the reader closed the output before the last row
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
    "frequency_pull",
    "status",
)


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 1."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(name: str, value) -> float:
    """A JSON number as a float; a string or true/false is no number here."""
    if not _is_real(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_int(value):
    """Integral floats (JSON 2.0) become ints; anything else is kept as is."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@dataclass(frozen=True)
class ModelSpec:
    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ConfigError(
                f"unknown model {self.name!r}; choose from {', '.join(MODEL_NAMES)}"
            )
        bad = set(self.options) - set(_MODELS[self.name].__kwdefaults__ or ())
        if bad:
            raise ConfigError(
                f"model {self.name!r} does not take option(s) {sorted(bad)}"
            )


@dataclass(frozen=True)
class RunConfig:
    models: tuple
    g_tau_bar: float
    pump: tuple
    kappa: float = 1.0
    truncation: int | str = "auto"
    cutoff: int | str = "auto"
    workers: int = 4

    def __post_init__(self):
        if not self.models:
            raise ConfigError("at least one model is required")
        if not 0 < self.g_tau_bar < math.inf:
            raise ConfigError(f"g_tau_bar must be positive and finite, got {self.g_tau_bar}")
        if not self.pump:
            raise ConfigError("at least one pump value is required")
        if not all(0 <= p < math.inf for p in self.pump):
            raise ConfigError("pump values must be nonnegative and finite")
        if not 0 < self.kappa < math.inf:
            raise ConfigError(f"kappa must be positive and finite, got {self.kappa}")
        top = max(self.pump)
        try:  # (g tau_bar)^2 may underflow to 0, or r overflow
            PumpParameters.from_pump(top, self.g_tau_bar, self.kappa)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"pump rate r = pump * kappa / (2 g_tau_bar^2) is not finite at pump {top}"
            ) from None
        if self.truncation != "auto":
            if not _is_int(self.truncation) or self.truncation < 1:
                raise ConfigError(
                    f"truncation must be 'auto' or a positive integer, "
                    f"got {self.truncation!r}"
                )
        if self.cutoff not in ("auto", "off"):
            if not _is_int(self.cutoff) or self.cutoff < 0:
                raise ConfigError(
                    f"cutoff must be 'auto', 'off' or a nonnegative integer, "
                    f"got {self.cutoff!r}"
                )
        if not _is_int(self.workers) or self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")
        # the model constructors judge the option values
        for spec in self.models:
            try:
                _model_builder(spec, self)(self.pump[0], TruncatedSpace(1))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model {spec.name!r}: {exc}") from None

    def echo(self) -> dict:
        return {
            "models": [
                {"name": spec.name, **spec.options} for spec in self.models
            ],
            "g_tau_bar": self.g_tau_bar,
            "pump": list(self.pump),
            "kappa": self.kappa,
            "truncation": self.truncation,
            "cutoff": self.cutoff,
            "workers": self.workers,
        }


def _pump_range(start: float, stop: float, steps: int) -> tuple:
    """`steps` values from start to stop, both included."""
    if steps < 1:
        raise ConfigError(f"pump range needs at least 1 step, got {steps}")
    return tuple(float(v) for v in np.linspace(start, stop, steps))


def parse_pump_spec(text: str) -> tuple:
    """'START:STOP:STEPS' -> an inclusive linspace; a bare float -> one point."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) == 3:
            return _pump_range(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"cannot parse pump spec {text!r}: {exc}") from None
    raise ConfigError(f"pump spec must be VALUE or START:STOP:STEPS, got {text!r}")


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
        if not _is_int(steps):
            raise ConfigError(f"pump.steps must be an integer, got {raw['steps']!r}")
        return _pump_range(start, stop, steps)
    if isinstance(raw, (list, tuple)):
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
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
    known = {"models", "g_tau_bar", "pump", "kappa", "truncation", "cutoff", "workers"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    if args.model:
        data["models"] = list(args.model)
    if args.gtau is not None:
        data["g_tau_bar"] = args.gtau
    if args.pump is not None:
        data["pump"] = args.pump
    if args.workers is not None:
        data["workers"] = args.workers
    if "models" not in data:
        raise ConfigError("no models given (config 'models' or --model)")
    if "g_tau_bar" not in data:
        raise ConfigError("no g_tau_bar given (config 'g_tau_bar' or --gtau)")
    if "pump" not in data:
        raise ConfigError("no pump values given (config 'pump' or --pump)")
    g_tau_bar = _number("g_tau_bar", data["g_tau_bar"])
    kappa = _number("kappa", data.get("kappa", 1.0))
    config = RunConfig(
        models=_normalize_models(data["models"]),
        g_tau_bar=g_tau_bar,
        pump=_normalize_pump(data["pump"]),
        kappa=kappa,
        truncation=_as_int(data.get("truncation", "auto")),
        cutoff=_as_int(data.get("cutoff", "auto")),
        workers=_as_int(data.get("workers", 4)),
    )
    if args.command == "compare" and len(config.models) < 2:
        raise ConfigError("compare needs at least 2 models")
    return config


# One entry per model.  Its keyword options, with their defaults, are the keys
# ModelSpec accepts; it checks their types and returns model(params, space),
# building the polynomial basis of a weak series of order other than 3 once.
_FROM_PUMP = object()  # a heuristic default that the pump sets: a JSON null stays an error


def _option(key: str, value, ok, kind: str):
    if value is _FROM_PUMP or ok(value):
        return value
    raise ValueError(f"{key} must be {kind}, got {value!r}")


def _weak(*, order=3):
    order = _option("order", _as_int(order), _is_int, "an integer")
    if order == 3:
        return weak_coupling_model
    basis = build_basis(TimeMeasure.exponential(), order)
    return lambda params, space: general_weak_model(params, basis, order, space)


def _uniform(*, order=1):
    order = _option("order", _as_int(order), _is_int, "an integer")
    return lambda params, space: uniform_model(params, space, order=order)


def _heuristic(*, gain=_FROM_PUMP, beta=_FROM_PUMP, ordering="aa_dag"):
    gain = _option("gain", gain, _is_real, "a number")
    beta = _option("beta", beta, _is_real, "a number")
    return lambda params, space: heuristic_model(
        params.gain_rate if gain is _FROM_PUMP else np.full(np.shape(params.r), float(gain)),
        4.0 * params.u if beta is _FROM_PUMP else float(beta),
        space,
        ordering=ordering,
    )


_MODELS = {
    EXACT: lambda: exact_model,
    POST4: lambda: fourth_order_model,
    WEAK: _weak,
    UNIFORM: _uniform,
    HEURISTIC: _heuristic,
}


def _model_builder(spec: ModelSpec, config: RunConfig):
    """build(pumps, space): the spec's model for one pump value or a (P, 1)
    column of them, on a space."""
    model = _MODELS[spec.name](**spec.options)
    return lambda pumps, space: model(
        PumpParameters.from_pump(pumps, config.g_tau_bar, config.kappa), space
    )


def _solve_grid(config: RunConfig, command: str, linewidth: bool = False) -> tuple[list, int]:
    """Per model, its PumpAxis, solved in one pass (solve_pump_axis); each
    failed cell is reported on stderr under the command's name, in grid
    order."""
    grid = [
        solve_pump_axis(
            _model_builder(spec, config),
            config.pump,
            config.kappa,
            truncation=None if config.truncation == "auto" else config.truncation,
            cutoff=None if config.cutoff == "off" else config.cutoff,
            linewidth=linewidth,
        )
        for spec in config.models
    ]
    failures = 0
    for spec, axis in zip(config.models, grid):
        for pump_value, status in zip(config.pump, axis.status):
            if status.startswith("error: "):
                failures += 1
                error = status[len("error: ") :]
                print(f"{command}: {spec.name} at pump {pump_value}: {error}", file=sys.stderr)
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
    line per pump); each command's output picks its own columns."""
    grid, failures = _solve_grid(config, command, linewidth=True)
    rows = [
        {
            "model": spec.name,
            "g_tau_bar": config.g_tau_bar,
            "pump_A_over_kappa": list(config.pump),
            "mean_n": axis.mean_n.tolist(),
            "variance": axis.variance.tolist(),
            "mandel_Q": axis.mandel_Q.tolist(),
            "linewidth_D": axis.D.tolist(),
            "normalized_D": axis.normalized_D.tolist(),
            "frequency_pull": axis.frequency_pull.tolist(),
            "status": axis.status,
        }
        for spec, axis in zip(config.models, grid)
    ]
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
    per type, a function that gives the same text for every value of that
    type (every finite one, for float) in one C call.  A line is `head`,
    then each cell's text followed by its entry of `seps`: a separator, or
    the end of the line after the last cell.  `counts` caches the texts of
    0, 1, 2, ... for a counting column."""

    cell: Callable
    exact: dict
    head: str
    seps: list
    counts: list = field(default_factory=list)


def _texts(values, fmt: _Format) -> Iterable[str]:
    """The text of each list entry: the cached counts for range(n), else
    the exact builtin where one applies."""
    if isinstance(values, range) and values == range(len(values)):
        fmt.counts.extend(map(int.__repr__, range(len(fmt.counts), len(values))))
        return islice(fmt.counts, len(values))
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= fmt.exact.keys():
        (kind,) = kinds
        if kind is not float or all(map(math.isfinite, values)):
            return map(fmt.exact[kind], values)
    return map(fmt.cell, values)


def _row_text(row: dict, columns: tuple, fmt: _Format) -> str:
    """The output lines of one row as one string.  The scalar cells are
    encoded once, into the fixed text around the list columns; the lines
    are one join of that fixed text, repeated, with the entry texts of
    each list column, interleaved by C iterators."""
    fixed, texts, lines = [fmt.head], [], 1
    for col, sep in zip(columns, fmt.seps, strict=True):
        value = row[col]
        if isinstance(value, (list, range)):
            texts.append(_texts(value, fmt))
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
        exact={float: "{:.16e}".format, int: int.__repr__, str: quoted},
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
        exact={float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii},
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


def build_parser() -> argparse.ArgumentParser:
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
            type=parse_pump_spec,
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
        except BrokenPipeError:
            import os

            # stdout now points at devnull, so the interpreter's last flush of
            # what is still buffered cannot fail again (Python docs, "Note on
            # SIGPIPE"); no signal handler, since callers run main in process
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_CLOSED
    return EXIT_PARTIAL if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
