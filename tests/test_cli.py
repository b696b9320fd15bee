import csv
import io
import json
import subprocess
import sys

import pytest

from micromaser import cli
from micromaser.cli import (
    EXIT_CLOSED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
    parse_pump_spec,
)

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
    for model in ("exact", "post4", "weak_lindblad", "uniform_lindblad", "heuristic"):
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
