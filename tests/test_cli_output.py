"""Byte oracle for the CLI writers.

The reference is the writer the CLI used before rows were written from
per-cell templates: one dict per output line, `json.dumps(indent=2)` and
`csv.writer` over `_format_cell`.  Every command, in both formats, must
print exactly what the reference prints for the same rows.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from micromaser import cli
from micromaser.cli import EXIT_OK, EXIT_PARTIAL, main


def _scrub(value):
    """Non-finite floats become missing values (JSON null, empty CSV cell)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _format_cell(value) -> str:
    value = _scrub(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def reference_csv(rows, columns) -> str:
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[col]) for col in columns])
    return stream.getvalue()


def reference_json(rows, columns, config, command) -> str:
    payload = {
        "config_echo": {"command": command, **config.echo()},
        "rows": [{col: _scrub(row[col]) for col in columns} for row in rows],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def reference(rows, columns, config, command, fmt) -> str:
    if fmt == "json":
        return reference_json(rows, columns, config, command)
    return reference_csv(rows, columns)


def per_level(rows):
    """Each row with list columns as one dict per entry."""
    out = []
    for row in rows:
        listed = [col for col, value in row.items() if isinstance(value, (list, range))]
        if not listed:
            out.append(row)
            continue
        for values in zip(*(row[col] for col in listed), strict=True):
            out.append({**row, **dict(zip(listed, values))})
    return out


def reference_rows(config, command):
    """The rows each command gave the writers, as one dict per line; steady's
    are built level by level from the solved cells."""
    if command != "steady":
        return per_level(cli._COMMANDS[command][0](config, command)[0])
    grid, _ = cli._solve_grid(config, command)
    return [
        {
            "model": spec.name,
            "g_tau_bar": config.g_tau_bar,
            "pump_A_over_kappa": pump_value,
            "n": n,
            "p_n": float(p_n),
            "negative_flag": int(p_n < 0),
        }
        for spec, axis in zip(config.models, grid)
        for pump_value, p in zip(config.pump, axis.p)
        if p is not None
        for n, p_n in enumerate(p)
    ]


CASES = {
    # post4 past its validity window: negative p_n, negative_flag 1
    "post4_negative": (
        {"models": ["post4", "exact"], "g_tau_bar": 0.15, "pump": 5.0,
         "truncation": 16, "cutoff": "off"},
        EXIT_OK,
    ),
    # weak_lindblad fails every cell at g tau_bar 0.5; exact at pump 0 is
    # "undefined" in sweep and linewidth, and its Mandel Q is missing
    "failed_cell_and_pump_zero": (
        {"models": ["exact", "weak_lindblad"], "g_tau_bar": 0.5, "pump": [0, 0.9]},
        EXIT_PARTIAL,
    ),
    # every cell fails: steady has no rows at all
    "no_rows": (
        {"models": ["weak_lindblad", "post4"], "g_tau_bar": 0.5, "pump": [3.0],
         "truncation": 20},
        EXIT_PARTIAL,
    ),
    # model options, kappa and workers nest in the echo
    "options": (
        {
            "models": [
                {"name": "heuristic", "ordering": "a_dag_a", "gain": 2, "beta": 0.01},
                {"name": "uniform_lindblad", "order": 2},
                {"name": "weak_lindblad", "order": 7},
            ],
            "g_tau_bar": 0.1,
            "pump": {"start": 0, "stop": 4, "steps": 5},
            "kappa": 2.0,
            "workers": 3,
        },
        EXIT_OK,
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["steady", "sweep", "compare", "linewidth"])
@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_reference_writer(case, command, fmt, tmp_path, capsys):
    raw, want_code = CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    argv = [command, "--config", str(path), "--format", fmt]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want_code
    config = cli.load_config(cli.build_parser().parse_args(argv))
    rows = reference_rows(config, command)
    capsys.readouterr()
    assert out == reference(rows, cli._COMMANDS[command][1], config, command, fmt)
    if command == "steady" and case == "post4_negative":
        assert any(row["negative_flag"] == 1 and row["p_n"] < 0 for row in rows)
    if command == "steady" and case == "failed_cell_and_pump_zero":
        assert rows and {row["model"] for row in rows} == {"exact"}
    if command == "steady" and case == "no_rows":
        assert rows == []
        if fmt == "json":
            assert out.endswith('\n  "rows": []\n}\n')
        else:
            assert out == ",".join(cli.STEADY_COLUMNS) + "\n"
    if command == "sweep" and case == "failed_cell_and_pump_zero":
        assert rows[0]["status"].startswith("undefined") and math.isnan(rows[0]["mandel_Q"])


NAN, INF = math.nan, math.inf
SHARED = [0.1, 2.5e-300, -3.0, 1e22]  # one list object in several rows and columns

SYNTHETIC = [
    {
        "model": 'odd, "quoted" 100%s model',
        "g_tau_bar": 0.15,
        "pump_A_over_kappa": INF,
        "n": range(5),
        "p_n": [0.5, NAN, -INF, -0.0, 1e-300],
        "negative_flag": [0, 0, 1, 0, 0],
    },
    {
        "model": "exact",
        "g_tau_bar": 0.15,
        "pump_A_over_kappa": 0.9,
        "n": [7],
        "p_n": [np.float64(0.25)],
        "negative_flag": [True],
    },
    {
        "model": "heuristic",
        "g_tau_bar": np.float64(0.15),
        "pump_A_over_kappa": -NAN,
        "n": 3,
        "p_n": None,
        "negative_flag": 'error: "a, b" at 50% of %(x)s\nsecond line',
    },
    {
        # string lists, as in the status column of a sweep row per model
        "model": ["x, y", 'say "hi"', "", "100%s", "line\nbreak", "ok"],
        "g_tau_bar": 0.15,
        "pump_A_over_kappa": [0.5, None, NAN, 1.0, -INF, 2.0],
        "n": range(6),
        "p_n": [0.25, 0.5, None, 0.125, 0.125, 0.0],
        "negative_flag": 1,
    },
    {
        # a float list with one NaN next to an all-finite one; an int list
        "model": "shared",
        "g_tau_bar": 0.15,
        "pump_A_over_kappa": SHARED,
        "n": [3, -2, 10**20, 0],
        "p_n": [0.5, 1.5, NAN, 0.25],
        "negative_flag": [0.5, 1.5, 2.0, -0.0],
    },
    {
        # the same list object as the row before, and as another column;
        # a NumPy float among floats
        "model": "shared",
        "g_tau_bar": 0.15,
        "pump_A_over_kappa": SHARED,
        "n": range(4),
        "p_n": SHARED,
        "negative_flag": [0.125, np.float64(0.375), 1.0, 5e-324],
    },
]


# Texts that a row template marking its holes in band would misread: '%'
# directives, NUL, and what CSV must quote (comma, quote, newline).
MARKERS = ["%s", "%%", "\x00", "a,b", 'say "hi"', "one\ntwo", "%s,%%\x00\"\n"]

IN_BAND = [
    {
        "model": text,
        "g_tau_bar": text,
        "pump_A_over_kappa": 0.5,
        "n": range(len(MARKERS)),
        "p_n": MARKERS,
        "negative_flag": [text] * len(MARKERS),
    }
    for text in MARKERS
] + [
    {
        "model": "%s",
        "g_tau_bar": "%%",
        "pump_A_over_kappa": "\x00",
        "n": "a,b",
        "p_n": 'say "hi"',
        "negative_flag": "one\ntwo",
    }
]


def write(rows, fmt, columns=cli.STEADY_COLUMNS) -> str:
    config = cli.RunConfig(models=(cli.ModelSpec("exact"),), g_tau_bar=0.15, pump=(0.9,))
    stream = io.StringIO()
    if fmt == "json":
        cli.write_json(rows, columns, config, "steady", stream)
    else:
        cli.write_csv(rows, columns, stream)
    return stream.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows", [SYNTHETIC, IN_BAND, []], ids=["edge_cells", "in_band_markers", "empty"]
)
def test_writers_match_reference_on_edge_cells(rows, fmt):
    """Non-finite floats (scalar and in lists), None, numpy floats, bools,
    ints, and strings (scalar and in lists) that need CSV quoting, hold '%'
    directives or NUL; a list object that several rows share, and float
    lists with and without a NaN."""
    config = cli.RunConfig(models=(cli.ModelSpec("exact"),), g_tau_bar=0.15, pump=(0.9,))
    want = reference(per_level(rows), cli.STEADY_COLUMNS, config, "steady", fmt)
    assert write(rows, fmt) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nan_and_none_give_the_same_bytes(fmt):
    """A missing value prints the same whether a float column holds NaN or
    None, as a scalar cell and as a list entry."""

    def rows(missing):
        return [
            {
                "model": "exact",
                "g_tau_bar": missing,
                "pump_A_over_kappa": [0.5, 1.0, 1.5],
                "n": range(3),
                "p_n": [0.25, missing, 0.75],
                "negative_flag": [missing] * 3,
            }
        ]

    with_nan = write(rows(NAN), fmt)
    assert with_nan == write(rows(None), fmt)
    assert ("null" if fmt == "json" else "1.0000000000000000e+00,1,,") in with_nan
