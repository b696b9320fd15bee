import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from micromaser import cli, models
from micromaser.cli import (
    EXIT_CLOSED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_WRITE,
    MAX_PUMP_STEPS,
    ModelSpec,
    RunConfig,
    main,
    parse_pump_spec,
)
from micromaser.fock import TruncatedSpace
from micromaser.measures import TimeMeasure, build_basis
from micromaser.models import (
    exact_model,
    general_weak_model,
    heuristic_model,
    uniform_model,
)
from micromaser.pump import PumpParameters
from micromaser.steady import MAX_TRUNCATION, PumpAxis, solve_pump_axis

from conftest import checkout_env


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_parse_pump_spec_grid_and_scalar():
    assert parse_pump_spec("0.9") == (0.9,)
    grid = parse_pump_spec("0.5:2.0:4")
    assert grid == (0.5, 1.0, 1.5, 2.0)
    with pytest.raises(ValueError):
        parse_pump_spec("1:2")
    with pytest.raises(ValueError):
        parse_pump_spec("2:1:0")


def test_steady_csv_shape_and_normalization(capsys):
    code, out, _ = run_cli(
        ["steady", "--model", "exact", "--gtau", "0.15", "--pump", "0.9"], capsys
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert list(rows[0].keys()) == [
        "model",
        "g_tau_bar",
        "pump_A_over_kappa",
        "n",
        "p_n",
        "negative_flag",
    ]
    p = [float(r["p_n"]) for r in rows]
    assert sum(p) == pytest.approx(1.0, abs=1e-12)
    assert all(r["negative_flag"] == "0" for r in rows)
    assert [int(r["n"]) for r in rows] == list(range(len(rows)))
    assert "\r" not in out


def test_steady_empty_pump_gives_vacuum(capsys):
    for model in models.MODEL_NAMES:
        code, out, _ = run_cli(
            ["steady", "--model", model, "--gtau", "0.15", "--pump", "0"], capsys
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert float(rows[0]["p_n"]) == 1.0
        assert all(float(r["p_n"]) == 0.0 for r in rows[1:])


def test_steady_post4_flags_negative_levels(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "models": [{"name": "post4"}],
                "g_tau_bar": 0.15,
                "pump": 5.0,
                "truncation": 16,
                "cutoff": "off",
            }
        )
    )
    code, out, _ = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    rows = parse_csv(out)
    flagged = [int(r["n"]) for r in rows if r["negative_flag"] == "1"]
    # gain ratio goes negative past n + 1 > 1 / (4 u); alternates afterwards
    assert flagged
    assert min(flagged) == 12
    for r in rows:
        assert (float(r["p_n"]) < 0) == (r["negative_flag"] == "1")


def test_sweep_json_echo_and_rows(capsys):
    code, out, _ = run_cli(
        [
            "sweep",
            "--model",
            "exact",
            "--gtau",
            "0.03",
            "--pump",
            "0.5:1.5:3",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config_echo"]["command"] == "sweep"
    assert doc["config_echo"]["pump"] == [0.5, 1.0, 1.5]
    assert doc["config_echo"]["models"] == [{"name": "exact"}]
    assert len(doc["rows"]) == 3
    assert all(r["status"] == "ok" for r in doc["rows"])
    means = [r["mean_n"] for r in doc["rows"]]
    assert means == sorted(means)


def test_sweep_pump_zero_marks_linewidth_undefined(capsys):
    code, out, _ = run_cli(
        ["sweep", "--model", "exact", "--gtau", "0.15", "--pump", "0"], capsys
    )
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert float(row["mean_n"]) == 0.0
    assert row["mandel_Q"] == ""
    assert row["linewidth_D"] == ""
    assert row["status"].startswith("undefined")


def test_byte_stability_and_format_agreement(capsys):
    argv = ["sweep", "--model", "exact", "--model", "heuristic", "--gtau", "0.15",
            "--pump", "0.5:2.0:4", "--workers", "3"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    code3, out3, _ = run_cli(argv + ["--workers", "1"], capsys)
    assert out3 == out1
    code4, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    csv_rows = parse_csv(out1)
    json_rows = json.loads(json_out)["rows"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        for key, jval in j.items():
            cval = c[key]
            if isinstance(jval, float):
                parsed = float(cval)
                assert parsed == pytest.approx(jval, rel=1e-15, abs=0.0)
            elif jval is None:
                assert cval == ""
            else:
                assert cval == str(jval)


def test_compare_exact_heuristic_agree(capsys):
    code, out, _ = run_cli(
        [
            "compare",
            "--model",
            "exact",
            "--model",
            "heuristic",
            "--gtau",
            "0.15",
            "--pump",
            "0.9",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["model_pair"] == "exact|heuristic"
    assert row["total_variation"] < 1e-8
    assert abs(row["delta_mean_n"]) < 1e-7
    assert row["status"] == "ok"


def test_compare_exact_vs_weak_disagree_at_strong_coupling(capsys):
    code, out, _ = run_cli(
        [
            "compare",
            "--model",
            "exact",
            "--model",
            "weak_lindblad",
            "--gtau",
            "0.15",
            "--pump",
            "2.0",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["total_variation"] > 0.05


def test_compare_model_with_itself_is_zero(capsys):
    code, out, _ = run_cli(
        [
            "compare",
            "--model",
            "exact",
            "--model",
            "exact",
            "--gtau",
            "0.15",
            "--pump",
            "0.9",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["total_variation"] == 0.0
    assert row["delta_mean_n"] == 0.0
    assert row["delta_mandel_Q"] == 0.0


def test_compare_requires_two_models(capsys):
    code, _, err = run_cli(
        ["compare", "--model", "exact", "--gtau", "0.15", "--pump", "0.9"], capsys
    )
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_linewidth_pump_zero_row_is_undefined(capsys):
    code, out, _ = run_cli(
        ["linewidth", "--model", "exact", "--gtau", "0.15", "--pump", "0"], capsys
    )
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["linewidth_D"] == ""
    assert row["normalized_D"] == ""
    assert row["status"].startswith("undefined")


def test_linewidth_normalization_column(capsys):
    code, out, _ = run_cli(
        ["linewidth", "--model", "heuristic", "--gtau", "0.15", "--pump", "0.9"],
        capsys,
    )
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    d = float(row["linewidth_D"])
    mean = float(row["mean_n"])
    assert float(row["normalized_D"]) == pytest.approx(d * mean, rel=1e-12)


def test_unknown_model_is_config_error(capsys):
    code, _, err = run_cli(
        ["steady", "--model", "exactt", "--gtau", "0.15", "--pump", "0.9"], capsys
    )
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_bad_pump_spec_is_config_error(capsys):
    code, _, err = run_cli(
        ["steady", "--model", "exact", "--gtau", "0.15", "--pump", "oops"], capsys
    )
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["exact"], "g_tau_bar": 0.15,
                               "pump": 0.9, "truncaton": 30}))
    code, _, err = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "truncaton" in err


def test_bad_model_option_rejected_at_config_time(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "models": [{"name": "uniform_lindblad", "order": 7}],
                "g_tau_bar": 0.15,
                "pump": 0.9,
            }
        )
    )
    code, _, err = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "order" in err
    # q is not a model option: no CLI model reads it
    for name in ("exact", "weak_lindblad"):
        cfg.write_text(
            json.dumps({"models": [{"name": name, "q": 0.3}], "g_tau_bar": 0.15, "pump": 0.9})
        )
        code, _, err = run_cli(["steady", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert "'q'" in err


BASE_CONFIG = {"models": ["exact"], "g_tau_bar": 0.15, "pump": 0.9}
HUGE = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "override",
    [
        {"models": [{"name": "uniform_lindblad", "order": "x"}]},
        {"models": [{"name": "heuristic", "gain": "abc"}]},
        {"models": [{"name": "heuristic", "gain": None}]},
        {"models": [{"name": "heuristic", "beta": "nan"}]},
        {"models": [{"name": "heuristic", "ordering": "a_a"}]},
        {"models": [{"name": "heuristic", "gain": True}]},
        {"models": [{"name": "heuristic", "beta": False}]},
        {"models": [{"name": "heuristic", "gain": "1e0"}]},
        {"models": [{"name": "heuristic", "beta": "4e-2"}]},
        {"models": [{"name": "uniform_lindblad", "order": 1.7}]},
        {"models": [{"name": "uniform_lindblad", "order": True}]},
        {"models": [{"name": "weak_lindblad", "order": 0}]},
        {"models": [{"name": "weak_lindblad", "order": 65}]},
        {"pump": [1, "nan"]},
        {"pump": "inf"},
        {"pump": True},
        {"pump": [True, 2]},
        {"pump": {"start": 0.5, "stop": 1.0, "steps": 2, "stpes": 9}},
        {"pump": {"start": "0.5", "stop": 1.0, "steps": 2}},
        {"pump": {"start": 0.5, "stop": 1.0, "steps": 2.5}},
        {"kappa": "inf"},
        {"kappa": True},
        {"g_tau_bar": "inf"},
        {"g_tau_bar": True},
        {"g_tau_bar": 1e-200},
        {"pump": [1.0, 1e308]},
        {"truncation": True},
        {"cutoff": True},
        {"workers": "abc"},
        {"workers": 2.5},
        *(
            pytest.param(override, id=f"huge {name}")
            for name, override in [
                ("pump entry", {"pump": [0.5, HUGE]}),
                ("negative pump entry", {"pump": [0.5, -HUGE]}),
                ("pump", {"pump": HUGE}),
                ("pump.start", {"pump": {"start": HUGE, "stop": 1, "steps": 3}}),
                ("pump.stop", {"pump": {"start": 0, "stop": HUGE, "steps": 3}}),
                ("pump.steps", {"pump": {"start": 0, "stop": 1, "steps": HUGE}}),
                ("g_tau_bar", {"g_tau_bar": HUGE}),
                ("kappa", {"kappa": HUGE}),
                ("truncation", {"truncation": HUGE}),
                ("negative cutoff", {"cutoff": -HUGE}),
                ("gain", {"models": [{"name": "heuristic", "gain": HUGE}]}),
                ("beta", {"models": [{"name": "heuristic", "beta": HUGE}]}),
                ("weak order", {"models": [{"name": "weak_lindblad", "order": HUGE}]}),
                ("uniform order", {"models": [{"name": "uniform_lindblad", "order": HUGE}]}),
            ]
        ),
    ],
    ids=json.dumps,
)
def test_bad_config_value_is_one_line_config_error(override, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, **override}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override, message",
    [
        ({"g_tau_bar": "0.15"}, "g_tau_bar must be a number, got '0.15'"),
        ({"kappa": "2"}, "kappa must be a number, got '2'"),
        ({"kappa": None}, "kappa must be a number, got None"),
        ({"pump": ["1.0"]}, "pump[0] must be a number, got '1.0'"),
        ({"pump": [0.5, False]}, "pump[1] must be a number, got False"),
        (
            {"pump": {"start": "0.5", "stop": 1.0, "steps": 2}},
            "pump.start must be a number, got '0.5'",
        ),
        (
            {"pump": {"start": 0.5, "stop": True, "steps": 2}},
            "pump.stop must be a number, got True",
        ),
    ],
    ids=json.dumps,
)
def test_config_numbers_must_be_json_numbers(override, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, **override}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")


@pytest.mark.parametrize("truncation", [10**15, 2**22 + 1])
def test_truncation_above_the_ceiling_is_a_config_error(truncation, tmp_path, capsys):
    # 10**15 levels would fail allocating 7 PiB of level tables
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "truncation": truncation}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    message = f"truncation must be an integer in 1..4194304, got {truncation}"
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")


def _raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _axis_error(kappa=1.0, truncation=None, cutoff="auto") -> str:
    """The message solve_pump_axis fails every cell with."""
    params = PumpParameters.from_pump(np.array([0.9]), 0.15)
    model = exact_model(params, TruncatedSpace(1))
    (status,) = solve_pump_axis(model, kappa, truncation=truncation, cutoff=cutoff).status
    assert status.startswith("error: ")
    return status[len("error: ") :]


PARAMS = PumpParameters.from_pump(0.9, 0.15)
UNIFORM = "model 'uniform_lindblad': "
WEAK_BASIS, SPACE = build_basis(TimeMeasure.exponential(), 3), TruncatedSpace(1)


@pytest.mark.parametrize(
    "override, library",
    [
        ({"kappa": 0.0}, lambda: _axis_error(kappa=0.0)),
        ({"kappa": -1.0}, lambda: _axis_error(kappa=-1.0)),
        ({"kappa": math.inf}, lambda: _axis_error(kappa=math.inf)),
        ({"g_tau_bar": -0.15}, lambda: _raised(lambda: PumpParameters.from_pump(0.9, -0.15))),
        ({"g_tau_bar": 1e200}, lambda: _raised(lambda: PumpParameters.from_pump(0.9, 1e200))),
        ({"g_tau_bar": 1e-200}, lambda: _raised(lambda: PumpParameters.from_pump(0.9, 1e-200))),
        (
            {"pump": [0.5, -1.0]},
            lambda: _raised(lambda: PumpParameters.from_pump(np.array([0.5, -1.0]), 0.15)),
        ),
        (
            {"pump": [1.0, 1e308]},
            lambda: _raised(lambda: PumpParameters.from_pump(np.array([1.0, 1e308]), 0.15)),
        ),
        ({"truncation": 0}, lambda: _axis_error(truncation=0)),
        ({"truncation": 2.5}, lambda: _axis_error(truncation=2.5)),
        ({"truncation": True}, lambda: _axis_error(truncation=True)),
        ({"truncation": 2**22 + 1}, lambda: _axis_error(truncation=2**22 + 1)),
        ({"kappa": HUGE}, lambda: _axis_error(kappa=math.inf)),
        ({"g_tau_bar": HUGE}, lambda: _raised(lambda: PumpParameters.from_pump(0.9, math.inf))),
        (
            {"pump": [0.5, HUGE]},
            lambda: _raised(lambda: PumpParameters.from_pump(np.array([0.5, math.inf]), 0.15)),
        ),
        (
            {"models": [{"name": "heuristic", "gain": HUGE}]},
            lambda: "model 'heuristic': "
            + _raised(lambda: heuristic_model(np.array([math.inf]), 0.1, TruncatedSpace(1))),
        ),
        ({"cutoff": -1}, lambda: _axis_error(cutoff=-1)),
        ({"cutoff": 2.5}, lambda: _axis_error(cutoff=2.5)),
        ({"cutoff": True}, lambda: _axis_error(cutoff=True)),
        (
            {"models": [{"name": "uniform_lindblad", "order": 7}]},
            lambda: UNIFORM + _raised(lambda: uniform_model(PARAMS, TruncatedSpace(1), order=7)),
        ),
        (
            {"models": [{"name": "uniform_lindblad", "order": 1.5}]},
            lambda: UNIFORM + _raised(lambda: uniform_model(PARAMS, TruncatedSpace(1), order=1.5)),
        ),
        (
            {"models": [{"name": "uniform_lindblad", "order": True}]},
            lambda: UNIFORM + _raised(lambda: uniform_model(PARAMS, TruncatedSpace(1), order=True)),
        ),
        (
            {"models": [{"name": "weak_lindblad", "order": 0}]},
            lambda: "model 'weak_lindblad': "
            + _raised(
                lambda: general_weak_model(
                    PARAMS, build_basis(TimeMeasure.exponential(), 0), 0, TruncatedSpace(1)
                )
            ),
        ),
        *(
            (
                {"models": [{"name": "weak_lindblad", "order": order}]},
                lambda order=order: "model 'weak_lindblad': "
                + _raised(lambda: general_weak_model(PARAMS, WEAK_BASIS, order, SPACE)),
            )
            for order in (65, 2.5, True)
        ),
    ],
    ids=lambda value: json.dumps(value)[:60] if isinstance(value, dict) else "library",
)
def test_the_cli_prints_the_library_message(override, library, tmp_path, capsys):
    """Each range lives in one library check, which RunConfig calls: the
    config error is the message the library raises (a model option's behind
    the model's name), and none of them offers Python's None."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, **override}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {library()}\n")
    assert "None" not in err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"truncation": "x"}, "truncation must be 'auto' or a number, got 'x'"),
        ({"truncation": "off"}, "truncation must be 'auto' or a number, got 'off'"),
        ({"cutoff": "x"}, "cutoff must be 'auto', 'off' or a number, got 'x'"),
    ],
    ids=json.dumps,
)
def test_truncation_and_cutoff_words(override, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, **override}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")


def test_truncation_at_the_ceiling_is_accepted():
    # constructed only: solving it takes seconds and hundreds of MB
    config = RunConfig((ModelSpec("exact"),), 0.15, (1.0,), truncation=2**22)
    assert config.truncation == MAX_TRUNCATION == 2**22


@pytest.mark.parametrize(
    "spec, message",
    [
        ("1:2:0", "pump range needs at least 1 step, got 0"),
        ("1:2", "pump spec must be VALUE or START:STOP:STEPS, got '1:2'"),
        ("1:2:x", "cannot parse pump spec '1:2:x': invalid literal for int() with base 10: 'x'"),
        ("1:1e400:3", "pump range stop must be finite, got inf"),
        ("inf:1:3", "pump range start must be finite, got inf"),
        ("nan:1:3", "pump range start must be finite, got nan"),
        ("0:1:" + "1" + "0" * 30, f"pump range takes at most 1000000 steps, got {10**30}"),
    ],
)
def test_bad_pump_flag_prints_the_spec_message(spec, message, tmp_path, capsys):
    want = (EXIT_CONFIG, "", f"config error: {message}\n")
    flag = ["sweep", "--model", "exact", "--gtau", "0.15", "--pump", spec]
    assert run_cli(flag, capsys) == want
    # the flag's text takes the path a config string takes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "pump": spec}))
    assert run_cli(["sweep", "--config", str(cfg)], capsys) == want


@pytest.mark.parametrize(
    "pump, message",
    [
        ({"start": 0, "stop": math.inf, "steps": 3}, "pump range stop must be finite, got inf"),
        ({"start": -HUGE, "stop": 1, "steps": 3}, "pump range start must be finite, got -inf"),
        (
            {"start": -1e308, "stop": 1e308, "steps": 3},
            "pump range stop - start must be finite, got inf",
        ),
    ],
    ids=["stop inf", "start -huge", "width inf"],
)
def test_a_pump_range_object_names_its_non_finite_end(pump, message, tmp_path, capsys):
    """Checked before linspace, which would warn and make NaN pumps."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "pump": pump}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")


@pytest.mark.parametrize("steps", [MAX_PUMP_STEPS + 1, 10**30])
def test_a_pump_range_past_the_ceiling_fails_before_linspace(steps, tmp_path, capsys):
    """The ceiling sits far above any grid run (2,000 pumps per model on
    the largest benchmark grid, 32,000 planned) and is checked before the
    pump axis is allocated."""
    assert MAX_PUMP_STEPS > 32_000
    message = f"pump range takes at most {MAX_PUMP_STEPS} steps, got {steps}"
    cfg = tmp_path / "cfg.json"
    pump = {"start": 0.5, "stop": 1.0, "steps": steps}
    cfg.write_text(json.dumps({**BASE_CONFIG, "pump": pump}))
    flag = ["sweep", "--model", "exact", "--gtau", "0.15", "--pump", f"0.5:1:{steps}"]
    for argv in (flag, ["sweep", "--config", str(cfg)]):
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")
        assert peak < 1e6  # a pump axis at the ceiling alone is 8 MB


def test_an_unreadable_config_is_a_config_error(tmp_path, capsys):
    """Integers past Python's digit limit, and bytes that are not UTF-8,
    fail while the document is read."""
    cfg = tmp_path / "cfg.json"
    for text in ('{"pump": [' + "9" * 5000 + "]}", b'{"models": ["\xff"]}'):
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"config error: cannot read config {str(cfg)!r}: ")
        assert err.count("\n") == 1


def test_each_weak_spec_builds_its_basis_once(monkeypatch, tmp_path, capsys):
    degrees = []
    build_basis = models.build_basis

    def counting(measure, degree):
        degrees.append(degree)
        return build_basis(measure, degree)

    monkeypatch.setattr(models, "build_basis", counting)
    specs = ["weak_lindblad", {"name": "weak_lindblad", "order": 5}, "exact"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "models": specs, "pump": [0.5, 3.0]}))
    for command in ("sweep", "compare"):
        degrees.clear()
        code, _, err = run_cli([command, "--config", str(cfg)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert degrees == [3, 5]


@pytest.mark.parametrize("command", ["steady", "sweep", "compare", "linewidth"])
def test_each_spec_is_built_once_per_command(command, monkeypatch, tmp_path, capsys):
    """The model RunConfig builds to judge its options is the one solved:
    every builder of MODELS is called once per spec, not again for the
    solve."""
    calls = []
    for name, record in models.MODELS.items():

        def counting(*args, name=name, build=getattr(models, record.builder), **kwargs):
            calls.append(name)
            return build(*args, **kwargs)

        monkeypatch.setattr(models, record.builder, counting)
    specs = [*models.MODEL_NAMES, {"name": "weak_lindblad", "order": 5}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "models": specs, "pump": [0.5, 3.0]}))
    code, _, err = run_cli([command, "--config", str(cfg)], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert calls == [*models.MODEL_NAMES, "weak_lindblad"]


def test_a_constructor_that_ignores_the_pump_is_a_config_error(monkeypatch, capsys):
    """A model with scalar rates is one pump; on an axis of three it used to
    end in NumPy's IndexError (boolean index did not match).  RunConfig,
    where the pump axis and the model meet, refuses it; on one pump it is
    that pump's model."""

    def scalar(params, space, **options):
        return heuristic_model(2.0, 0.1, space)

    monkeypatch.setattr(models, models.MODELS["heuristic"].builder, scalar)
    argv = ["sweep", "--model", "heuristic", "--gtau", "0.15", "--pump"]
    message = "the model's rates hold [1] pump rows, not one per pump (3)"
    code, out, err = run_cli(argv + ["0.5:2:3"], capsys)
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: model 'heuristic': {message}\n")
    code, out, err = run_cli(argv + ["0.5"], capsys)
    assert (code, err, len(parse_csv(out))) == (EXIT_OK, "", 1)


def test_every_point_column_reads_a_pump_axis_field():
    fields = {f.name for f in dataclasses.fields(PumpAxis)}
    for columns in (cli.SWEEP_COLUMNS, cli.LINEWIDTH_COLUMNS):
        assert columns[:3] == ("model", "g_tau_bar", "pump_A_over_kappa")
        assert set(columns[3:]) <= cli.POINT_FIELDS.keys()
    assert set(cli.POINT_FIELDS.values()) <= fields


def test_a_sweep_computes_its_pump_parameters_once(monkeypatch, capsys):
    """The parameters that RunConfig checks are the ones every model is
    built and solved on: one from_pump for the whole grid."""
    calls = []
    from_pump = PumpParameters.from_pump.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_pump(cls, *args, **kwargs)

    monkeypatch.setattr(PumpParameters, "from_pump", classmethod(counting))
    argv = ["sweep", "--gtau", "0.15", "--pump", "0.5:3:6"]
    for name in ("exact", "weak_lindblad", "heuristic"):
        argv += ["--model", name]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert len(parse_csv(out)) == 18
    assert len(calls) == 1


def test_pump_range_object_takes_integral_float_steps(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    echoes = []
    for steps in (2, 2.0):
        pump = {"start": 0.5, "stop": 1.0, "steps": steps}
        cfg.write_text(json.dumps({**BASE_CONFIG, "pump": pump}))
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--format", "json"], capsys)
        assert code == EXIT_OK
        echoes.append(json.loads(out)["config_echo"]["pump"])
    assert echoes == [[0.5, 1.0], [0.5, 1.0]]


def test_models_that_are_not_a_list_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG, "models": "exact"}))
    code, out, err = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: models must be a list of model names or objects, got 'exact'\n"


def test_weak_series_runs_at_order_30(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    model = {"name": "weak_lindblad", "order": 30}
    cfg.write_text(json.dumps({**BASE_CONFIG, "models": [model], "pump": [0.5, 3.0]}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert err == ""
    assert len(parse_csv(out)) == 2


def test_heuristic_gain_and_beta_take_ints_as_reals(tmp_path, capsys):
    outputs = []
    for gain, beta in ((2, 1), (2.0, 1.0)):
        cfg = tmp_path / "cfg.json"
        model = {"name": "heuristic", "gain": gain, "beta": beta}
        cfg.write_text(json.dumps({**BASE_CONFIG, "models": [model]}))
        code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


UNUSABLE = "expansion models unusable at g tau_bar = 0.5 (cutoff 0 < 1)"


@pytest.mark.parametrize("command", ["steady", "sweep"])
def test_rows_and_error_lines_follow_grid_order(command, tmp_path, capsys):
    # pumps out of order, and failed models between good ones: rows and
    # error lines still run model by model, each over the pumps as given
    cfg = tmp_path / "cfg.json"
    pumps = [2.0, 0.5, 1.0]
    models = ["weak_lindblad", "exact", "post4", "heuristic"]
    cfg.write_text(json.dumps({"models": models, "g_tau_bar": 0.5, "pump": pumps}))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == EXIT_PARTIAL
    failed = ("weak_lindblad", "post4")
    assert err.splitlines() == [
        f"{command}: {name} at pump {p}: {UNUSABLE}" for name in failed for p in pumps
    ]
    cells = [(r["model"], float(r["pump_A_over_kappa"])) for r in parse_csv(out)]
    if command == "steady":
        cells = list(dict.fromkeys(cells))  # one line per level
        models = [name for name in models if name not in failed]
    assert cells == [(name, p) for name in models for p in pumps]


def test_partial_failure_keeps_good_rows_and_exits_2(capsys):
    # weak expansion is unusable at g tau_bar = 0.5 (cutoff < 1); exact is fine.
    # Warnings are errors under pytest here, so this also proves none fires.
    code, out, err = run_cli(
        [
            "sweep",
            "--model",
            "exact",
            "--model",
            "weak_lindblad",
            "--gtau",
            "0.5",
            "--pump",
            "0.9",
        ],
        capsys,
    )
    assert code == EXIT_PARTIAL
    rows = parse_csv(out)
    models = {r["model"] for r in rows}
    assert "exact" in models
    ok_rows = [r for r in rows if r["status"] == "ok"]
    assert ok_rows and all(r["model"] == "exact" for r in ok_rows)
    assert "weak_lindblad" in err


@pytest.mark.parametrize("truncation", ["auto", 20])
@pytest.mark.parametrize("command", ["steady", "sweep"])
def test_unusable_expansion_models_fail_on_both_truncation_routes(
    command, truncation, tmp_path, capsys
):
    # default cutoff 0.2 / 0.5**2 < 1: a fixed truncation must not print a vacuum
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"models": ["weak_lindblad", "post4"], "g_tau_bar": 0.5, "pump": [3.0],
             "truncation": truncation}
        )
    )
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == EXIT_PARTIAL
    names = ("weak_lindblad", "post4")
    assert err.splitlines() == [f"{command}: {name} at pump 3.0: {UNUSABLE}" for name in names]
    statuses = [(r["model"], r["status"]) for r in parse_csv(out)]
    assert statuses == ([] if command == "steady" else [(n, f"error: {UNUSABLE}") for n in names])


@pytest.mark.parametrize("command", ["steady", "sweep", "compare", "linewidth"])
def test_a_series_cutoff_past_the_ceiling_fails_each_cell_on_one_line(command, tmp_path, capsys):
    """At g tau_bar 1e-150 the series models' cutoff (2e299 levels) sets
    n_max; it used to end in a "Maximum allowed size exceeded" traceback.
    A fixed truncation with the models' own cutoff fills only its levels."""
    names, pumps = ("post4", "weak_lindblad"), (1.0, 2.0)
    argv = [command, "--gtau", "1e-150", "--pump", "1:2:2"]
    for name in names:
        argv += ["--model", name]
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_PARTIAL
    message = "the model's cutoff 2e+299 passes the truncation ceiling 4194304"
    assert err.splitlines() == [
        f"{command}: {name} at pump {p}: {message}" for name in names for p in pumps
    ]
    assert peak < 1e6
    cfg = tmp_path / "cfg.json"
    fixed = {"models": list(names), "g_tau_bar": 1e-150, "pump": list(pumps), "truncation": 50}
    cfg.write_text(json.dumps(fixed))
    assert run_cli([command, "--config", str(cfg)], capsys)[::2] == (EXIT_OK, "")


def test_stderr_holds_only_the_cell_error_lines():
    # a fresh interpreter shows warnings as Python prints them, with no pytest filter
    proc = subprocess.run(
        [sys.executable, "-m", "micromaser.cli", "steady", "--model", "weak_lindblad",
         "--gtau", "0.5", "--pump", "3"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == EXIT_PARTIAL
    assert proc.stderr == f"steady: weak_lindblad at pump 3.0: {UNUSABLE}\n"


def test_config_from_stdin(monkeypatch, capsys):
    cfg = {"models": ["exact"], "g_tau_bar": 0.15, "pump": [0.9]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cfg)))
    code, out, _ = run_cli(["steady", "--config", "-"], capsys)
    assert code == EXIT_OK
    assert parse_csv(out)


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["exact"], "g_tau_bar": 0.15, "pump": 0.5}))
    code, out, _ = run_cli(
        ["sweep", "--config", str(cfg), "--pump", "1.5", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config_echo"]["pump"] == [1.5]


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["steady", "--model", "exact", "--gtau", "0.15", "--pump", "0.9"]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    target = tmp_path / "steady.csv"
    code2 = main(argv + ["--out", str(target)])
    captured = capsys.readouterr()
    assert code2 == EXIT_OK
    assert captured.out == ""
    assert target.read_text() == out


def test_unwritable_out_is_config_error_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output was opened")

    monkeypatch.setattr(cli, "solve_pump_axis", no_solve)
    target = tmp_path / "missing" / "x.csv"
    argv = ["steady", "--model", "exact", "--gtau", "0.15", "--pump", "0.9"]
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: cannot write output {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_json_is_parseable_and_ends_with_newline(capsys):
    code, out, _ = run_cli(
        ["steady", "--model", "exact", "--gtau", "0.15", "--pump", "0.9",
         "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    assert out.endswith("\n")
    doc = json.loads(out)
    assert set(doc) == {"config_echo", "rows"}


def test_cli_import_loads_no_scipy():
    # scipy is imported where the dense oracle and quadrature need it, so a
    # CLI start skips it (about 0.5 s and 30 MB)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, micromaser.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, env=checkout_env(),
    )
    assert proc.stdout == "[]\n"


def test_a_closed_stdout_ends_the_run_quietly():
    # the reader is gone before the first row is written, as after `| head -1`
    with subprocess.Popen(
        [sys.executable, "-m", "micromaser.cli", "steady", "--model", "exact",
         "--gtau", "0.1", "--pump", "0.5:3:200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=checkout_env(),
    ) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == EXIT_CLOSED == 1
    assert stderr == b""


class FullFile(io.StringIO):
    """An output whose `failing` method raises ENOSPC once, as on a full
    disk; its close closes it first, as a file's close does."""

    def __init__(self, failing: str, fd: int | None = None):
        super().__init__()
        self.failing, self.fd = failing, fd

    def _fail(self, method: str) -> None:
        if self.failing == method:
            self.failing = None
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        self._fail("write")
        return super().write(text)

    def flush(self):
        self._fail("flush")
        super().flush()

    def close(self):
        super().close()
        self._fail("close")

    def fileno(self):
        return self.fd


FULL = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
STEADY = ["steady", "--model", "exact", "--gtau", "0.15", "--pump", "0.9"]


@pytest.mark.parametrize("failing", ["write", "flush", "close"])
def test_an_out_file_that_cannot_be_written_is_one_error_line(failing, capsys, monkeypatch):
    full = FullFile(failing)
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: full, raising=False)
    code, out, err = run_cli(STEADY + ["--out", "x.csv"], capsys)
    assert (code, out, err) == (EXIT_WRITE, "", f"cannot write output 'x.csv': {FULL}\n")
    assert EXIT_WRITE == 1
    assert full.closed


def test_a_full_stdout_is_one_error_line_and_then_devnull(tmp_path, capsys):
    """stdout is pointed at devnull, so the interpreter's last flush of what
    it still buffers cannot fail again."""
    with open(tmp_path / "held", "w") as held, pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdout", FullFile("write", held.fileno()))
        code = main(STEADY)
        redirected = os.fstat(held.fileno()).st_rdev
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        EXIT_WRITE,
        "",
        f"cannot write output 'stdout': {FULL}\n",
    )
    assert redirected == os.stat(os.devnull).st_rdev


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_stdout", [False, True])
def test_a_full_device_ends_the_run_with_one_line(to_stdout):
    argv = [sys.executable, "-m", "micromaser.cli", *STEADY]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            argv if to_stdout else argv + ["--out", "/dev/full"],
            stdout=full if to_stdout else subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=checkout_env(),
        )
    target = "stdout" if to_stdout else "/dev/full"
    assert (proc.returncode, proc.stdout) == (EXIT_WRITE, None if to_stdout else "")
    assert proc.stderr == f"cannot write output {target!r}: {FULL}\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "micromaser.cli", "steady", "--model", "heuristic",
         "--gtau", "0.15", "--pump", "0.9"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("model,")
