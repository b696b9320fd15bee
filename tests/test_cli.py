import csv
import io
import json
import subprocess
import sys
import threading

import pytest

from micromaser import cli
from micromaser.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
    parse_pump_spec,
)


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
        {"models": [{"name": "uniform_lindblad", "order": 1.7}]},
        {"models": [{"name": "uniform_lindblad", "order": True}]},
        {"models": [{"name": "weak_lindblad", "order": 0}]},
        {"models": [{"name": "weak_lindblad", "order": 30}]},
        {"pump": [1, "nan"]},
        {"pump": "inf"},
        {"kappa": "inf"},
        {"g_tau_bar": "inf"},
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


def test_cells_run_in_grid_order_on_the_calling_thread(monkeypatch, capsys):
    calls = []
    solve = cli.solve_point

    def recording(spec, config, pump_value):
        calls.append((threading.get_ident(), spec.name, pump_value))
        return solve(spec, config, pump_value)

    monkeypatch.setattr(cli, "solve_point", recording)
    code, _, _ = run_cli(
        ["sweep", "--model", "exact", "--model", "heuristic", "--gtau", "0.15",
         "--pump", "0.5:2.0:4", "--workers", "3"],
        capsys,
    )
    assert code == EXIT_OK
    assert {ident for ident, _, _ in calls} == {threading.get_ident()}
    assert [(name, p) for _, name, p in calls] == [
        (name, p) for name in ("exact", "heuristic") for p in (0.5, 1.0, 1.5, 2.0)
    ]


def test_partial_failure_keeps_good_rows_and_exits_2(capsys):
    # weak expansion is unusable at g tau_bar = 0.5 (cutoff < 1); exact is fine
    with pytest.warns(UserWarning):
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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "micromaser.cli", "steady", "--model", "heuristic",
         "--gtau", "0.15", "--pump", "0.9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("model,")
