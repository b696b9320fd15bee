"""The pump-axis solve against the one-cell public route, bit for bit.

The CLI solves each model over its whole pump axis at once: a staged
truncation search, one recurrence and one band linewidth per group of
pumps that share n_max.  Here every cell is solved again on its own,
from the public constructors and choose_truncation + recurrence_steady +
moments + linewidth(model, p), and every number must be equal, not close.
"""

import json
import math

import numpy as np
import pytest

from micromaser import (
    POST4,
    WEAK,
    PumpParameters,
    SteadyStateError,
    TimeMeasure,
    TruncatedSpace,
    assemble,
    averaged_pump_superoperator,
    build_basis,
    choose_truncation,
    exact_model,
    expansion_cutoff,
    fourth_order_generator,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    kraus_operators,
    lindblad_C_S,
    lindblad_ops,
    linewidth,
    moments,
    recurrence_steady,
    sixth_order_superoperator,
    solve_pump_axis,
    uniform_model,
    weak_coupling_model,
)
from micromaser import models, steady
from micromaser.models import GeneratorModel
from micromaser.cli import EXIT_OK, EXIT_PARTIAL, main


def build(model: dict, params: PumpParameters, space: TruncatedSpace):
    name = model["name"]
    if name == "exact":
        return exact_model(params, space)
    if name == POST4:
        return fourth_order_model(params, space)
    if name == WEAK:
        order = model.get("order", 3)
        if order == 3:
            return weak_coupling_model(params, space)
        basis = build_basis(TimeMeasure.exponential(), order)
        return general_weak_model(params, basis, order, space)
    if name == "uniform_lindblad":
        return uniform_model(params, space, order=model.get("order", 1))
    return heuristic_model(
        float(model.get("gain", params.gain_rate)),
        float(model.get("beta", 4.0 * params.u)),
        space,
        ordering=model.get("ordering", "aa_dag"),
    )


def one_cell(model: dict, raw: dict, pump: float) -> dict:
    """One (model, pump) cell through the public one-row functions."""
    g_tau_bar, kappa = raw["g_tau_bar"], raw.get("kappa", 1.0)
    truncation, cutoff = raw.get("truncation", "auto"), raw.get("cutoff", "auto")
    params = PumpParameters.from_pump(pump, g_tau_bar, kappa)
    try:
        if cutoff == "auto":
            cutoff = expansion_cutoff(g_tau_bar) if model["name"] in (WEAK, POST4) else None
        elif cutoff == "off":
            cutoff = None
        if truncation == "auto":
            space = choose_truncation(build(model, params, TruncatedSpace(1)), kappa)
        else:
            space = TruncatedSpace(truncation)
        solved = build(model, params, space)
        stats = recurrence_steady(solved.gain_ratio(kappa), space, cutoff=cutoff)
    except (SteadyStateError, ValueError) as exc:
        return {"error": str(exc)}
    mom = moments(stats.p)
    cell = {
        "p": stats.p.tolist(),
        "mean_n": mom.mean_n,
        "variance": mom.variance,
        "mandel_Q": None if math.isnan(mom.mandel_q) else mom.mandel_q,
        "linewidth_D": None,
    }
    try:
        cell["linewidth_D"] = linewidth(solved, stats.p, kappa).D
    except ValueError as exc:
        cell["undefined"] = str(exc)
    return cell


def models_of(raw):
    return [m if isinstance(m, dict) else {"name": m} for m in raw["models"]]


CONFIGS = {
    # every model, with options; pump 0 leaves the linewidth undefined
    "options": {
        "models": [
            "exact",
            "post4",
            {"name": "weak_lindblad", "order": 5},
            "weak_lindblad",
            {"name": "uniform_lindblad", "order": 2},
            "uniform_lindblad",
            {"name": "heuristic", "gain": 2.5, "beta": 0.05, "ordering": "a_dag_a"},
            {"name": "heuristic", "ordering": "a_dag_a"},
            "heuristic",
        ],
        "g_tau_bar": 0.15,
        "pump": [0.0, 0.3, 1.1, 2.5, 4.0, 0.3],
    },
    # a fixed truncation: post4 without cutoff has negative weights, and
    # its signed weight fails to normalize at some pumps
    "fixed": {
        "models": ["post4", "exact", {"name": "weak_lindblad", "order": 5}, "heuristic"],
        "g_tau_bar": 0.15,
        "pump": [0.5, 5.0, 9.0, 0.0, 40.0],
        "truncation": 30,
        "cutoff": "off",
        "kappa": 2.0,
    },
    # a fixed truncation above the expansion cutoff (8 here), which the
    # expansion models still apply by default
    "expansion_fixed": {
        "models": ["post4", "weak_lindblad", "exact"],
        "g_tau_bar": 0.15,
        "pump": [0.5, 3.0],
        "truncation": 30,
    },
    # an explicit cutoff below the searched truncation
    "cutoff": {
        "models": ["exact", "post4", "uniform_lindblad", "heuristic"],
        "g_tau_bar": 0.15,
        "pump": [0.5, 1.5, 5.0],
        "cutoff": 4,
    },
    # the expansion models fail every cell, and the search gives up at its
    # hard cap for some pumps only
    "failures": {
        "models": ["exact", "weak_lindblad", "post4", {"name": "heuristic", "beta": 0.0}],
        "g_tau_bar": 0.5,
        "pump": [0.0, 0.9, 3.0, 1.2],
    },
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_grid_solve_equals_the_one_cell_route(name, tmp_path, capsys):
    raw = CONFIGS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    want = [(m, p, one_cell(m, raw, p)) for m in models_of(raw) for p in raw["pump"]]
    errors = [(m, p, cell["error"]) for m, p, cell in want if "error" in cell]
    results = {}
    for command in ("steady", "sweep"):
        code = main([command, "--config", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == (EXIT_PARTIAL if errors else EXIT_OK)
        assert captured.err.splitlines() == [
            f"{command}: {m['name']} at pump {float(p)}: {error}" for m, p, error in errors
        ]
        results[command] = json.loads(captured.out)["rows"]
    distributions = []  # one per solved cell, in grid order; n = 0 starts the next
    for row in results["steady"]:
        if row["n"] == 0:
            distributions.append([])
        distributions[-1].append(row["p_n"])
    assert distributions == [cell["p"] for _, _, cell in want if "error" not in cell]
    assert len(results["sweep"]) == len(want)
    for (model, pump, cell), row in zip(want, results["sweep"]):
        assert (row["model"], row["pump_A_over_kappa"]) == (model["name"], pump)
        if "error" in cell:
            assert row["status"] == f"error: {cell['error']}"
            continue
        for col in ("mean_n", "variance", "mandel_Q", "linewidth_D"):
            assert row[col] == cell[col], col
        status = f"undefined: {cell['undefined']}" if "undefined" in cell else "ok"
        assert row["status"] == status


def test_the_configs_reach_every_failure_and_undefined_path():
    cells = [
        one_cell(m, raw, p) for raw in CONFIGS.values() for m in models_of(raw) for p in raw["pump"]
    ]
    assert {cell["error"].split()[0] for cell in cells if "error" in cell} == {
        "expansion",  # expansion models unusable at this coupling
        "no",  # no truncation below the hard cap
        "signed",  # the signed weight does not normalize
    }
    assert any("undefined" in cell for cell in cells)
    assert any(min(cell.get("p", [0])) < 0 for cell in cells)


# The one-pump code as it stood before the pump axis was solved in one pass,
# kept as an independent reference: one 1-D ladder per pump.


def ladder_1d(ratios):
    with np.errstate(divide="ignore"):
        logs = np.concatenate(([0.0], np.cumsum(np.log(np.abs(ratios)))))
    signs = np.concatenate(([1.0], np.cumprod(np.sign(ratios))))
    return logs - np.max(logs[np.isfinite(logs)]), signs


def truncation_1d(ratio, tail_tol=1e-10, n_max=16, hard_cap=4096):
    while n_max <= hard_cap:
        ratios = np.asarray(ratio(np.arange(n_max)), dtype=float)
        u = np.exp(ladder_1d(ratios)[0])
        ok = u < tail_tol * np.cumsum(u)
        if ok[-1] and ratios[-1] < 1.0:
            return int(np.argmax(ok))
        n_max *= 2
    return 0


def recurrence_1d(ratio, n_max):
    logs, signs = ladder_1d(np.asarray(ratio(np.arange(n_max)), dtype=float))
    filled = signs * np.exp(logs)
    return filled / filled.sum()


@pytest.mark.parametrize("g_tau_bar", [0.03, 0.15, 0.6])
def test_pump_axis_equals_the_one_dimensional_ladder(g_tau_bar):
    kappa = 1.0
    pumps = np.concatenate(([0.0], np.linspace(0.1, 9.0, 41)))

    def build(pump_values, space):
        return exact_model(PumpParameters.from_pump(pump_values, g_tau_bar, kappa), space)

    axis = solve_pump_axis(build, pumps, kappa, linewidth=True)
    for k, pump in enumerate(pumps):
        ratio = build(float(pump), TruncatedSpace(1)).gain_ratio(kappa)
        n_max = truncation_1d(ratio)
        p = recurrence_1d(ratio, n_max)
        assert axis.p[k].tolist() == p.tolist()
        assert axis.n_max[k] == n_max
        mom = moments(p)
        assert (axis.mean_n[k], axis.variance[k]) == (mom.mean_n, mom.variance)
        if pump == 0.0:
            assert math.isnan(axis.mandel_Q[k]) and math.isnan(axis.D[k])
            assert axis.status[k].startswith("undefined: ")
            continue
        assert axis.mandel_Q[k] == mom.mandel_q
        root = np.sqrt(np.arange(1.0, p.size))
        model = build(float(pump), TruncatedSpace(n_max))
        deriv = root @ model.apply_band(root * p[1:], 1, kappa)
        mean = float(p @ np.arange(p.size))
        assert axis.D[k] == -2.0 * deriv / mean
        assert axis.normalized_D[k] == linewidth(model, p, kappa).normalized_D
        assert axis.status[k] == "ok"


COLUMNS = ("n_max", "mean_n", "variance", "mandel_Q", "D", "normalized_D", "frequency_pull")


def axis_numbers(axis):
    """Every entry of a solved pump axis, its float columns as their bits."""
    p = [None if row is None else row.tolist() for row in axis.p]
    return axis.status, p, [getattr(axis, col).tobytes() for col in COLUMNS]


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_pieces_of_the_pump_axis_give_the_same_cells(budget, monkeypatch):
    """Search stages and blocks taken in pieces of at most BLOCK_ENTRIES
    levels: every cell as from one piece, one model build per axis, and no
    piece (a view of the model at some of its rows) larger than that."""
    kappa = 1.0
    pumps = np.concatenate(([0.0], np.linspace(0.2, 6.0, 23), [3.0]))

    def exact(pump_values, space):
        return exact_model(PumpParameters.from_pump(pump_values, 0.15, kappa), space)

    def saturating(pump_values, space):  # beta 0 gives up at the hard cap above threshold
        return heuristic_model(2.0 * pump_values * kappa, 0.0, space)

    builds, sizes = [], []

    def counted(build):
        def wrapped(pump_values, space):
            builds.append(len(pump_values))
            return build(pump_values, space)

        return wrapped

    view = GeneratorModel.at

    def counted_view(model, rows, space):
        sizes.append((len(rows), space.dim))
        return view(model, rows, space)

    for build, truncation in ((exact, None), (exact, 20), (saturating, None)):
        whole = solve_pump_axis(build, pumps, kappa, truncation=truncation, linewidth=True)
        with monkeypatch.context() as patch:
            patch.setattr(steady, "BLOCK_ENTRIES", budget)
            patch.setattr(GeneratorModel, "at", counted_view)
            parts = solve_pump_axis(
                counted(build), pumps, kappa, truncation=truncation, linewidth=True
            )
        assert axis_numbers(parts) == axis_numbers(whole)
    assert builds == [len(pumps)] * 3
    assert any(rows > 1 for rows, _ in sizes) == (budget > 32)
    # a block holds rows x dim levels; a search piece (on the build's space,
    # dim 2) serves a search stage of at least 16 levels
    assert all(rows <= max(1, budget // (16 if dim == 2 else dim)) for rows, dim in sizes)


def test_level_functions_run_per_search_stage_not_per_block(monkeypatch):
    """One exact model serves the pump axis: its feed table is evaluated
    once per truncation-search stage and once for the linewidth band, its
    dephasing once, however many blocks (here 12, one per pump) read them."""
    calls = {"sin_sin_average": 0, "cos_cos_average": 0}
    for name in calls:

        def counted(*args, name=name, average=getattr(models, name)):
            calls[name] += 1
            return average(*args)

        monkeypatch.setattr(models, name, counted)
    pumps = np.linspace(0.5, 8.0, 12)
    axis = solve_pump_axis(
        lambda values, space: exact_model(PumpParameters.from_pump(values, 0.03), space),
        pumps,
        1.0,
        linewidth=True,
    )
    assert axis.status == ["ok"] * 12
    assert len(set(axis.n_max.tolist())) == 12  # one block per pump
    # stages at START, 2 START, ... up to the first that holds the largest n_max
    stages = int(np.ceil(np.log2((axis.n_max.max() + 1) / steady.START))) + 1
    assert stages == 9
    assert calls["sin_sin_average"] <= stages + 1
    assert calls["cos_cos_average"] <= 3  # one dephasing table: three averages


def test_an_invalid_gain_column_fails_every_cell_on_one_line():
    """The model is built once for the whole axis, so a build error names
    one offending value, not the whole column of pumps."""
    axis = solve_pump_axis(
        lambda values, space: heuristic_model(1.0 - values, 0.1, space),
        np.linspace(0.5, 3.0, 6),
        1.0,
    )
    message = "error: gain and beta must be nonnegative and finite, got -0.5, 0.1"
    assert axis.status == [message] * 6


@pytest.mark.parametrize(
    "option, message",
    [
        ({"truncation": 0}, "truncation must be None or a positive integer, got 0"),
        ({"truncation": -3}, "truncation must be None or a positive integer, got -3"),
        ({"cutoff": -2}, "cutoff must be None, 'auto' or a nonnegative integer, got -2"),
    ],
)
def test_an_invalid_truncation_or_cutoff_fails_every_cell_on_one_line(option, message):
    """The CLI rejects these at config time; a library caller gets the
    argument's own message in every cell, not a search's or NumPy's."""
    axis = solve_pump_axis(
        lambda values, space: exact_model(PumpParameters.from_pump(values, 0.1), space),
        [1.0, 2.0],
        1.0,
        **option,
    )
    assert axis.status == [f"error: {message}"] * 2
    assert axis.p == [None, None]


def test_recurrence_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match=r"^cutoff must be None or a nonnegative integer, got -1$"):
        recurrence_steady(lambda n: np.full(n.shape, 0.5), TruncatedSpace(8), cutoff=-1)


@pytest.mark.parametrize("pumps", [3, 9])
def test_dense_forms_refuse_a_pump_column(pumps):
    """With as many pumps as rows of an operator (3) or of a superoperator
    (9), a column of rates would broadcast into a wrong dense operator."""
    space = TruncatedSpace(2)
    params = PumpParameters.from_pump(np.linspace(0.5, 2.0, pumps)[:, None], 0.15)
    models = [
        exact_model(params, space),
        fourth_order_model(params, space),
        weak_coupling_model(params, space),
        uniform_model(params, space),
        heuristic_model(params.gain_rate, 0.1, space),
    ]
    rho = np.diag([0.5, 0.3, 0.2])
    for model in models:
        with pytest.raises(ValueError, match="one pump value"):
            assemble(model, 1.0)
        with pytest.raises(ValueError, match="one pump value"):
            model.apply(rho, 1.0)
    for model in models[2:]:
        with pytest.raises(ValueError, match="one pump value"):
            lindblad_ops(model)
    for dense in (
        lambda: averaged_pump_superoperator(params, space),
        lambda: lindblad_C_S(params, 0.15, space),
        lambda: sixth_order_superoperator(params, space),
        lambda: fourth_order_generator(params, space),
        lambda: kraus_operators(params, 0.15, 1e-3, space),
    ):
        with pytest.raises(ValueError, match="one pump value"):
            dense()
