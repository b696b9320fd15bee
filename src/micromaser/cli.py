"""Command line front end: steady distributions, pump sweeps, comparisons.

Configuration comes from a JSON document (--config PATH, or '-' for standard
input) overridden by flags; kappa = 1 by default so every rate is reported
in cavity-loss units.  Output is CSV (17 significant digits) or JSON
({config_echo, rows}, indented by two spaces per level), deterministic
and byte-stable for a fixed config; each (model, pump) cell is encoded once
into a row template and only its per-level columns are filled line by line.
Exit codes: 0 full success, 2 when some sweep points failed (rows for the
rest are still emitted), 1 on configuration errors.  Every model is built
once while the configuration is read, so a model option its constructor
rejects is a configuration error.  Cells run in grid order on the calling
thread; the `workers` setting is accepted, checked and echoed, but ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
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
    GeneratorModel,
    exact_model,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    uniform_model,
    weak_coupling_model,
)
from .observables import linewidth, moments, distribution_distance
from .pump import PumpParameters
from .steady import (
    SteadyStateError,
    choose_truncation,
    expansion_cutoff,
    recurrence_steady,
)

EXIT_OK = 0
EXIT_CONFIG = 1
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


def _as_int(value):
    """Integral floats (JSON 2.0) become ints; anything else is kept as is."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


_MODEL_OPTION_KEYS = {
    EXACT: set(),
    POST4: set(),
    WEAK: {"order"},
    UNIFORM: {"order"},
    HEURISTIC: {"ordering", "gain", "beta"},
}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ConfigError(
                f"unknown model {self.name!r}; choose from {', '.join(MODEL_NAMES)}"
            )
        bad = set(self.options) - _MODEL_OPTION_KEYS[self.name]
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
                _build_model(spec, self, self.pump[0], TruncatedSpace(1))
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


def parse_pump_spec(text: str) -> tuple:
    """'START:STOP:STEPS' -> an inclusive linspace; a bare float -> one point."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
            if steps < 1:
                raise ConfigError(f"pump range needs at least 1 step, got {steps}")
            return tuple(float(v) for v in np.linspace(start, stop, steps))
    except ValueError as exc:
        raise ConfigError(f"cannot parse pump spec {text!r}: {exc}") from None
    raise ConfigError(f"pump spec must be VALUE or START:STOP:STEPS, got {text!r}")


def _normalize_models(raw) -> tuple:
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
        missing = {"start", "stop", "steps"} - set(raw)
        if missing:
            raise ConfigError(f"pump range object missing {sorted(missing)}")
        return parse_pump_spec(f"{raw['start']}:{raw['stop']}:{raw['steps']}")
    if isinstance(raw, (int, float)):
        return (float(raw),)
    if isinstance(raw, (list, tuple)):
        try:
            return tuple(float(v) for v in raw)
        except (TypeError, ValueError):
            raise ConfigError(f"pump list must contain numbers, got {raw!r}") from None
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
    try:
        g_tau_bar = float(data["g_tau_bar"])
        kappa = float(data.get("kappa", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric field: {exc}") from None
    return RunConfig(
        models=_normalize_models(data["models"]),
        g_tau_bar=g_tau_bar,
        pump=_normalize_pump(data["pump"]),
        kappa=kappa,
        truncation=_as_int(data.get("truncation", "auto")),
        cutoff=_as_int(data.get("cutoff", "auto")),
        workers=_as_int(data.get("workers", 4)),
    )


def _model_order(spec: ModelSpec, default: int) -> int:
    order = _as_int(spec.options.get("order", default))
    if not _is_int(order):
        raise ValueError(f"order must be an integer, got {order!r}")
    return order


def _model_real(spec: ModelSpec, key: str, default: float) -> float:
    value = spec.options.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _build_model(spec: ModelSpec, config: RunConfig, pump_value: float, space: TruncatedSpace) -> GeneratorModel:
    params = PumpParameters.from_pump(pump_value, config.g_tau_bar, config.kappa)
    if spec.name == EXACT:
        return exact_model(params, space)
    if spec.name == POST4:
        return fourth_order_model(params, space)
    if spec.name == WEAK:
        order = _model_order(spec, 3)
        if order == 3:
            return weak_coupling_model(params, space)
        basis = build_basis(TimeMeasure.exponential(), order)
        return general_weak_model(params, basis, order, space)
    if spec.name == UNIFORM:
        return uniform_model(params, space, order=_model_order(spec, 1))
    gain = _model_real(spec, "gain", params.gain_rate)
    beta = _model_real(spec, "beta", 4.0 * params.u)
    return heuristic_model(gain, beta, space, ordering=spec.options.get("ordering", "aa_dag"))


def _point_cutoff(spec: ModelSpec, config: RunConfig) -> int | None:
    if config.cutoff == "auto" and spec.name in (WEAK, POST4):
        return expansion_cutoff(config.g_tau_bar)
    return None if config.cutoff in ("auto", "off") else config.cutoff


@dataclass
class PointResult:
    spec: ModelSpec
    pump_value: float
    stats: object = None
    model: GeneratorModel | None = None
    error: str | None = None


def solve_point(spec: ModelSpec, config: RunConfig, pump_value: float) -> PointResult:
    """Steady distribution for one (model, pump) cell; errors become row status."""
    try:
        cutoff = _point_cutoff(spec, config)
        if config.truncation == "auto":
            probe = _build_model(spec, config, pump_value, TruncatedSpace(1))
            space = choose_truncation(probe, config.kappa)
        else:
            space = TruncatedSpace(config.truncation)
        model = _build_model(spec, config, pump_value, space)
        stats = recurrence_steady(model.gain_ratio(config.kappa), space, cutoff=cutoff)
        return PointResult(spec, pump_value, stats=stats, model=model)
    except (SteadyStateError, ValueError) as exc:
        return PointResult(spec, pump_value, error=str(exc))


def _solve_grid(config: RunConfig, command: str) -> tuple[list[PointResult], int]:
    """All (model, pump) cells, in grid order on the calling thread; each
    failed cell is reported on stderr under the command's name."""
    cells = [(spec, p) for spec in config.models for p in config.pump]
    results = [solve_point(spec, config, p) for spec, p in cells]
    failed = [res for res in results if res.error is not None]
    for res in failed:
        print(
            f"{command}: {res.spec.name} at pump {res.pump_value}: {res.error}",
            file=sys.stderr,
        )
    return results, len(failed)


def run_steady(config: RunConfig, command: str) -> tuple[list[dict], int]:
    """One row per solved cell, its distribution held in the n, p_n and
    negative_flag columns as equal-length lists: one output line per level."""
    results, failures = _solve_grid(config, command)
    rows = [
        {
            "model": res.spec.name,
            "g_tau_bar": config.g_tau_bar,
            "pump_A_over_kappa": res.pump_value,
            "n": range(res.stats.p.size),
            "p_n": res.stats.p.tolist(),
            "negative_flag": (res.stats.p < 0).astype(int).tolist(),
        }
        for res in results
        if res.error is None
    ]
    return rows, failures


def _point_row(res: PointResult, config: RunConfig) -> dict:
    """Every per-point column of sweep and linewidth; each command's output
    picks its own columns from it."""
    row = dict.fromkeys(SWEEP_COLUMNS + LINEWIDTH_COLUMNS)
    row.update(
        model=res.spec.name,
        g_tau_bar=config.g_tau_bar,
        pump_A_over_kappa=res.pump_value,
        status="ok",
    )
    if res.error is not None:
        row["status"] = f"error: {res.error}"
        return row
    mom = moments(res.stats.p)
    row["mean_n"] = mom.mean_n
    row["variance"] = mom.variance
    row["mandel_Q"] = None if math.isnan(mom.mandel_q) else mom.mandel_q
    try:
        lw = linewidth(res.model, res.stats.p, config.kappa)
    except ValueError as exc:
        row["status"] = f"undefined: {exc}"
        return row
    row["linewidth_D"] = lw.D
    row["normalized_D"] = lw.normalized_D
    row["frequency_pull"] = lw.frequency_pull
    return row


def run_points(config: RunConfig, command: str) -> tuple[list[dict], int]:
    """Moments and linewidth per (model, pump) cell, for sweep and linewidth."""
    results, failures = _solve_grid(config, command)
    return [_point_row(res, config) for res in results], failures


def run_compare(config: RunConfig, command: str) -> tuple[list[dict], int]:
    if len(config.models) < 2:
        raise ConfigError("compare needs at least 2 models")
    results, failures = _solve_grid(config, command)
    by_cell = {(id(res.spec), res.pump_value): res for res in results}
    rows: list[dict] = []
    for p in config.pump:
        for i, spec_a in enumerate(config.models):
            for spec_b in config.models[i + 1 :]:
                res_a = by_cell[(id(spec_a), p)]
                res_b = by_cell[(id(spec_b), p)]
                row = {
                    "model_pair": f"{spec_a.name}|{spec_b.name}",
                    "g_tau_bar": config.g_tau_bar,
                    "pump_A_over_kappa": p,
                    "total_variation": None,
                    "delta_mean_n": None,
                    "delta_mandel_Q": None,
                    "status": "ok",
                }
                if res_a.error is not None or res_b.error is not None:
                    bad = res_a.error or res_b.error
                    row["status"] = f"error: {bad}"
                    rows.append(row)
                    continue
                row["total_variation"] = distribution_distance(res_a.stats.p, res_b.stats.p)
                mom_a, mom_b = moments(res_a.stats.p), moments(res_b.stats.p)
                row["delta_mean_n"] = mom_a.mean_n - mom_b.mean_n
                if math.isnan(mom_a.mandel_q) or math.isnan(mom_b.mandel_q):
                    row["status"] = "undefined: Mandel Q needs a nonzero mean"
                else:
                    row["delta_mandel_Q"] = mom_a.mandel_q - mom_b.mandel_q
                rows.append(row)
    return rows, failures


# Output.  A row's cells are scalars, except that a column may hold a list
# (or range) of numbers: such a row stands for one output line per entry,
# its scalar cells repeated on each.  Non-finite floats are missing values
# (JSON null, empty CSV cell).


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


# A format: its cell text, and for a list of finite values of one type, the
# builtin that gives the same text in one C call per value.
_CSV = (_csv_cell, {float: "{:.16e}".format, int: int.__repr__})
_JSON = (_json_cell, {float: float.__repr__, int: int.__repr__})


def _texts(values, fmt) -> Iterable[str]:
    """The cell text of each value, by the exact builtin where one applies."""
    cell, exact = fmt
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= exact.keys() and all(map(math.isfinite, values)):
        return map(exact[kinds.pop()], values)
    return map(cell, values)


def _lines(row: dict, columns: tuple, fmt, template) -> list[str]:
    """The output lines of one row.  `template` lays out a line from its
    cell texts: the scalar cells, encoded once (with '%' escaped), and "%s"
    for each list column; the list entries are then filled in line by line."""
    cell = fmt[0]
    listed = [col for col in columns if isinstance(row[col], (list, range))]
    text = template(
        ["%s" if col in listed else cell(row[col]).replace("%", "%%") for col in columns]
    )
    if not listed:
        return [text % ()]
    entries = zip(*(_texts(row[col], fmt) for col in listed), strict=True)
    return [text % values for values in entries]


def write_csv(rows: list[dict], columns: tuple, stream) -> None:
    line: list[str] = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")

    def template(cells: list) -> str:
        writer.writerow(cells)  # the csv module's quoting
        return line.pop()

    stream.write(template(columns))
    for row in rows:
        stream.write("".join(_lines(row, columns, _CSV, template)))


def write_json(rows: list[dict], columns: tuple, config: RunConfig, command: str, stream) -> None:
    """{config_echo, rows}, byte for byte as the json module writes it with
    indent=2: the short echo through json.dumps, the rows from templates."""
    echo = json.dumps({"command": command, **config.echo()}, indent=2, allow_nan=False)
    keys = [f"      {encode_basestring_ascii(col)}: " for col in columns]

    def template(cells: list) -> str:
        return "    {\n" + ",\n".join(map(str.__add__, keys, cells)) + "\n    }"

    body = ",\n".join(text for row in rows for text in _lines(row, columns, _JSON, template))
    stream.write('{\n  "config_echo": ' + echo.replace("\n", "\n  ") + ',\n  "rows": ')
    stream.write(f"[\n{body}\n  ]\n}}\n" if rows else "[]\n}\n")


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad flags (code 1 via _Parser) and on --help (0);
        # surface both as return codes so embedding callers get an int
        return int(exc.code or 0)
    try:
        config = load_config(args)
        runner, columns = _COMMANDS[args.command]
        rows, failures = runner(config, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    buffer = io.StringIO()
    if args.format == "json":
        write_json(rows, columns, config, args.command, buffer)
    else:
        write_csv(rows, columns, buffer)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PARTIAL if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
