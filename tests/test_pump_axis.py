"""The pump-axis solve against the one-cell public route, bit for bit.

The CLI solves each model over its whole pump axis at once: a staged
truncation search, one recurrence and one band linewidth per group of
pumps that share n_max.  Here every cell is solved again on its own,
from the public constructors and the one-row functions: the truncation
search on one row (truncation_levels), recurrence_steady, moments and the
band linewidth on one row (band_derivatives, linewidth_columns), and every number must be
equal, not close.
"""

import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

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
    build_basis,
    exact_model,
    expansion_cutoff,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    moments,
    recurrence_steady,
    solve_pump_axis,
    uniform_model,
    weak_coupling_model,
)
from micromaser import models, steady
from micromaser.models import GeneratorModel
from micromaser.observables import band_derivatives, linewidth_columns
from micromaser.oracle import (
    averaged_pump_superoperator,
    fourth_order_generator,
    kraus_operators,
    lindblad_C_S,
    sixth_order_superoperator,
)
from micromaser.cli import EXIT_OK, EXIT_PARTIAL, main

from test_golden import CASES


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


def searched_space(model, kappa: float) -> TruncatedSpace:
    """The truncation search's n_max for a model of one pump."""
    n_max = int(steady.truncation_levels(model, kappa)[0])
    if n_max == 0:
        message = f"no truncation below {steady.HARD_CAP} resolves the distribution tail"
        raise SteadyStateError(message)
    return TruncatedSpace(n_max)


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
            space = searched_space(build(model, params, TruncatedSpace(1)), kappa)
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
    slope = band_derivatives(solved, stats.p[None], kappa)
    width = linewidth_columns(slope, np.array([mom.mean_n]), kappa)
    if width.undefined:
        cell["undefined"] = width.undefined[0]
    else:
        cell["linewidth_D"] = float(width.D[0])
    return cell


def models_of(raw):
    return [m if isinstance(m, dict) else {"name": m} for m in raw["models"]]


# the golden CLI cases, and a fixed truncation above the expansion cutoff
# (8 here), which the expansion models still apply by default
CONFIGS = {
    **CASES,
    "expansion_fixed": {
        "models": ["post4", "weak_lindblad", "exact"],
        "g_tau_bar": 0.15,
        "pump": [0.5, 3.0],
        "truncation": 30,
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
    model = exact_model(PumpParameters.from_pump(pumps, g_tau_bar, kappa), TruncatedSpace(1))
    axis = solve_pump_axis(model, kappa, linewidth=True)
    for k, pump in enumerate(pumps):
        params = PumpParameters.from_pump(float(pump), g_tau_bar, kappa)
        ratio = exact_model(params, TruncatedSpace(1)).gain_ratio(kappa)
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
        model = exact_model(params, TruncatedSpace(n_max))
        deriv = root @ model.apply_band(root * p[1:], 1, kappa)
        mean = float(p @ np.arange(p.size))
        assert axis.D[k] == -2.0 * deriv / mean
        assert axis.normalized_D[k] == axis.D[k] * mean / kappa
        assert axis.status[k] == "ok"


COLUMNS = ("n_max", "mean_n", "variance", "mandel_Q", "D", "normalized_D")


def axis_numbers(axis):
    """Every entry of a solved pump axis, its float columns as their bits."""
    p = [None if row is None else row.tolist() for row in axis.p]
    return axis.status, p, [getattr(axis, col).tobytes() for col in COLUMNS]


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_pieces_of_the_pump_axis_give_the_same_cells(budget, monkeypatch):
    """Search stages and blocks taken in pieces of at most BLOCK_ENTRIES
    levels: every cell as from one piece, and no piece (a view of the model
    at some of its rows) larger than that."""
    kappa = 1.0
    pumps = np.concatenate(([0.0], np.linspace(0.2, 6.0, 23), [3.0]))
    params = PumpParameters.from_pump(pumps, 0.15, kappa)

    def saturating(params, space):  # beta 0 gives up at the hard cap above threshold
        return heuristic_model(2.0 * params.gain_rate, 0.0, space)

    sizes = []
    view = GeneratorModel.at

    def counted_view(model, rows, space):
        sizes.append((len(rows), space.dim))
        return view(model, rows, space)

    for build, truncation in ((exact_model, None), (exact_model, 20), (saturating, None)):
        options = dict(truncation=truncation, linewidth=True)
        whole = solve_pump_axis(build(params, TruncatedSpace(1)), kappa, **options)
        with monkeypatch.context() as patch:
            patch.setattr(steady, "BLOCK_ENTRIES", budget)
            patch.setattr(GeneratorModel, "at", counted_view)
            parts = solve_pump_axis(build(params, TruncatedSpace(1)), kappa, **options)
        assert axis_numbers(parts) == axis_numbers(whole)
    assert any(rows > 1 for rows, _ in sizes) == (budget > 32)
    # a block holds rows x dim levels; a search piece (on the build's space,
    # dim 2) serves a search stage of at least 16 levels
    assert all(rows <= max(1, budget // (16 if dim == 2 else dim)) for rows, dim in sizes)


def test_level_functions_run_per_search_stage_not_per_block(monkeypatch):
    """One exact model serves the pump axis: its feed table is evaluated
    once per truncation-search stage and once for the linewidth band, its
    dephasing once.  The level vectors, which no model owns (the levels'
    own, and the loss factors of the linewidth band), are built once per
    process, however many blocks (here 12, one per pump) read them."""
    monkeypatch.setattr(models, "_LEVELS", {})  # as a fresh process holds them
    calls = dict.fromkeys(("sin_sin_average", "cos_cos_average", "level_vectors", "band_levels"), 0)
    for name in calls:

        def counted(*args, name=name, fn=getattr(models, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(models, name, counted)
    params = PumpParameters.from_pump(np.linspace(0.5, 8.0, 12), 0.03)
    axis = solve_pump_axis(exact_model(params, TruncatedSpace(1)), 1.0, linewidth=True)
    assert axis.status == ["ok"] * 12
    assert len(set(axis.n_max.tolist())) == 12  # one block per pump
    # stages at START, 2 START, ... up to the first that holds the largest n_max
    stages = int(np.ceil(np.log2((axis.n_max.max() + 1) / steady.START))) + 1
    assert stages == 9
    assert calls["sin_sin_average"] <= stages + 1
    assert calls["cos_cos_average"] <= 3  # one dephasing table: three averages
    assert calls["level_vectors"] == calls["band_levels"] == 1


def test_an_invalid_gain_column_is_one_build_error_on_one_line():
    """The model is built once for the whole axis, so a build error names
    one offending value, not the whole column of pumps.  At g tau_bar 0.5
    the gain A equals the pump exactly."""
    params = PumpParameters.from_pump(np.linspace(0.5, 3.0, 6), 0.5)
    message = "^gain must be nonnegative and finite, got -0.5$"
    with pytest.raises(ValueError, match=message):
        heuristic_model(1.0 - params.gain_rate, 0.1, TruncatedSpace(1))


@pytest.mark.parametrize(
    "option, message",
    [
        ({"truncation": 0}, "truncation must be an integer in 1..4194304, got 0"),
        ({"truncation": -3}, "truncation must be an integer in 1..4194304, got -3"),
        ({"cutoff": -2}, "cutoff must be a nonnegative integer, got -2"),
        ({"truncation": True}, "truncation must be an integer in 1..4194304, got True"),
        ({"truncation": 2.5}, "truncation must be an integer in 1..4194304, got 2.5"),
        ({"cutoff": True}, "cutoff must be a nonnegative integer, got True"),
        ({"cutoff": 2.5}, "cutoff must be a nonnegative integer, got 2.5"),
    ],
)
def test_an_invalid_truncation_or_cutoff_fails_every_cell_on_one_line(option, message):
    """The CLI rejects these at config time; a library caller gets the
    argument's own message in every cell, not a search's or NumPy's.  A
    bool or a float is not an integer, as TruncatedSpace holds."""
    model = exact_model(PumpParameters.from_pump(np.array([1.0, 2.0]), 0.1), TruncatedSpace(1))
    axis = solve_pump_axis(model, 1.0, **option)
    assert axis.status == [f"error: {message}"] * 2
    assert axis.p == [None, None]


@pytest.mark.parametrize("truncation", [steady.MAX_TRUNCATION + 1, 10**15])
def test_a_truncation_past_the_ceiling_fails_every_cell_before_any_table(truncation):
    """At 10**15 the level tables would take 7 PiB; the limit is checked
    before any level is evaluated."""
    model = exact_model(PumpParameters.from_pump(np.array([1.0, 2.0]), 0.1), TruncatedSpace(1))
    tracemalloc.start()
    try:
        axis = solve_pump_axis(model, 1.0, truncation=truncation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = f"error: truncation must be an integer in 1..4194304, got {truncation}"
    assert axis.status == [message] * 2
    assert axis.p == [None, None]
    assert peak < 1e5


@pytest.mark.parametrize("build", [fourth_order_model, weak_coupling_model])
def test_a_model_cutoff_past_the_ceiling_fails_every_cell_before_any_table(build):
    """At g tau_bar 1e-150 a series model's cutoff 0.2 / (g tau_bar)^2 is
    2e299 levels.  The search takes it as n_max, so it meets the ceiling of
    an explicit truncation too; it used to end in NumPy's "Maximum allowed
    size exceeded".  A fixed truncation with the model's cutoff fills only
    the truncation's levels."""
    model = build(PumpParameters.from_pump(np.array([1.0, 2.0]), 1e-150), TruncatedSpace(1))
    tracemalloc.start()
    try:
        axis = solve_pump_axis(model, 1.0, linewidth=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = "error: the model's cutoff 2e+299 passes the truncation ceiling 4194304"
    assert axis.status == [message] * 2
    assert axis.p == [None, None]
    assert peak < 1e5
    fixed = solve_pump_axis(model, 1.0, truncation=50, cutoff="auto", linewidth=True)
    assert fixed.status == ["ok"] * 2
    assert fixed.n_max.tolist() == [50, 50]


def test_recurrence_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match=r"^cutoff must be a nonnegative integer, got -1$"):
        recurrence_steady(lambda n: np.full(n.shape, 0.5), TruncatedSpace(8), cutoff=-1)


@pytest.mark.parametrize("cutoff", [True, 2.5])
def test_recurrence_rejects_a_cutoff_that_is_not_an_integer(cutoff):
    """True would cut at level 1 and 2.5 fill three levels, both converged."""
    message = f"^cutoff must be a nonnegative integer, got {cutoff!r}$"
    with pytest.raises(ValueError, match=message):
        recurrence_steady(lambda n: np.full(n.shape, 0.5), TruncatedSpace(8), cutoff=cutoff)


@pytest.mark.parametrize("truncation", [None, 8])
@pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.0, -1.0])
def test_a_kappa_that_is_not_positive_and_finite_fails_every_cell(kappa, truncation):
    """Checked before the truncation is searched: no NumPy warning, no row
    read off a zero or NaN ratio."""
    axis_model = exact_model(PumpParameters.from_pump(np.array([3.0, 8.0]), 0.1), TruncatedSpace(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        axis = solve_pump_axis(axis_model, kappa, truncation=truncation, linewidth=True)
    positive = f"kappa must be positive and finite, got {kappa}"
    assert axis.status == [f"error: {positive}"] * 2
    assert axis.p == [None, None]
    model = exact_model(PumpParameters.from_pump(3.0, 0.1), TruncatedSpace(8))
    for call in (lambda: model.gain_ratio(kappa), lambda: model.ratio_rows(kappa, 8)):
        with pytest.raises(ValueError, match=f"^{re.escape(positive)}$"):
            call()
    if kappa != 0.0:  # the loss-free generator is a generator
        nonnegative = re.escape(f"kappa must be nonnegative and finite, got {kappa}")
        for call in (
            lambda: assemble(model, kappa),
            lambda: model.apply(np.eye(9), kappa),
            lambda: model.apply_band(np.ones(8), 1, kappa),
        ):
            with pytest.raises(ValueError, match=f"^{nonnegative}$"):
                call()


@pytest.mark.parametrize("pumps", [3, 9])
def test_dense_forms_refuse_a_pump_column(pumps):
    """With as many pumps as rows of an operator (3) or of a superoperator
    (9), a column of rates would broadcast into a wrong dense operator.  The
    oracle's builders refuse it here, the models' dense forms in
    test_conformance."""
    space = TruncatedSpace(2)
    params = PumpParameters.from_pump(np.linspace(0.5, 2.0, pumps)[:, None], 0.15)
    for dense in (
        lambda: averaged_pump_superoperator(params, space),
        lambda: lindblad_C_S(params, 0.15, space),
        lambda: sixth_order_superoperator(params, space),
        lambda: fourth_order_generator(params, space),
        lambda: kraus_operators(params, 0.15, 1e-3, space),
    ):
        with pytest.raises(ValueError, match="one pump value"):
            dense()


def test_one_pump_entries_refuse_a_pump_column():
    """The one-pump entries read a single row: on a column of two pumps
    they used to fail on NumPy's unpacking and broadcasting.  A (1, 1)
    column is one pump, and its axis is what its scalar gives."""
    space = TruncatedSpace(18)
    model = exact_model(PumpParameters.from_pump(np.array([[0.5], [3.0]]), 0.15), space)
    p = np.full(19, 1 / 19)
    for entry, shape in (
        (lambda: moments(np.stack((p, p))), "populations of shape (2, 19)"),
        (lambda: recurrence_steady(model.gain_ratio(1.0), space), "ratios of shape (2, 18)"),
    ):
        message = re.escape(f"one pump value needed, got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            entry()
    one = exact_model(PumpParameters.from_pump(np.array([[3.0]]), 0.15), space)
    alone = exact_model(PumpParameters.from_pump(3.0, 0.15), space)
    stats = recurrence_steady(one.gain_ratio(1.0), space)
    assert stats.p.tolist() == recurrence_steady(alone.gain_ratio(1.0), space).p.tolist()
    assert moments(stats.p[None]) == moments(stats.p)
    column, scalar = (
        solve_pump_axis(exact_model(PumpParameters.from_pump(pump, 0.15), space), 1.0, linewidth=True)
        for pump in (np.array([[3.0]]), 3.0)
    )
    assert column.n_max.tolist() == [65]
    assert axis_numbers(column) == axis_numbers(scalar)


def test_a_model_on_a_one_dimensional_rate_holds_one_row_per_pump():
    """A 1-D rate is one value per pump, held as a (P, 1) column, so a
    model built on it outside solve_pump_axis is a model of P pumps.  It
    used to broadcast the rates along the levels: recurrence_steady gave
    [0.5, 0.25, 0.25], pump 1.0's ratio at level 0 and pump 3.0's at
    level 1, where the two alone give [0.6, 0.3, 0.1] and
    [0.25, 0.375, 0.375]."""
    space = TruncatedSpace(2)
    pumps = PumpParameters.from_pump(np.array([1.0, 3.0]), 0.5)
    model = exact_model(pumps, space)
    assert [rate.shape for rate in model.feed_terms.rates] == [(2, 1)]
    message = re.escape("one pump value needed, got ratios of shape (2, 2)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        recurrence_steady(model.gain_ratio(1.0), space)
    rows = model.ratio_rows(1.0, 2)
    for row, pump in zip(rows, (1.0, 3.0)):
        alone = exact_model(PumpParameters.from_pump(pump, 0.5), space)
        assert row.tolist() == alone.ratio_rows(1.0, 2)[0].tolist()
        want = recurrence_steady(alone.gain_ratio(1.0), space).p
        assert steady.recurrence_rows(row[None], space.dim)[0][0].tolist() == want.tolist()


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2, 1, 1)])
def test_rates_of_any_other_shape_are_refused_by_the_model(shape):
    """Rates that are not one per pump, 1-D or a (P, 1) column, are refused
    by the model: a (2, 3) array of pump rates used to be read as 6 pumps
    that each said "ok"."""
    params = PumpParameters(0.15, np.full(shape, 10.0))
    message = f"a rate holds one value per pump, 1-D or a (P, 1) column, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exact_model(params, TruncatedSpace(2))


def test_the_rates_give_the_number_of_pumps():
    """A model with scalar rates is one pump.  Rates of two lengths are no
    pump axis: the solve and the search raise, before any level is
    evaluated."""
    alone = solve_pump_axis(heuristic_model(2.0, 0.1, TruncatedSpace(1)), 1.0, linewidth=True)
    assert alone.status == ["ok"]
    two, three = (
        exact_model(PumpParameters.from_pump(np.linspace(0.5, 2.0, n), 0.15), TruncatedSpace(1))
        for n in (2, 3)
    )
    mixed = replace(two, dephasing_terms=three.dephasing_terms)
    message = re.escape("the model's rates hold [2, 3] pump rows, not one pump axis")
    for solve in (solve_pump_axis, steady.truncation_levels):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(mixed, 1.0)
    assert not two.feed_terms.tables


def test_a_scalar_rate_is_an_axis_of_one_pump():
    """solve_pump_axis on one pump value is the one-row functions on that
    pump, bit for bit."""
    params = PumpParameters.from_pump(2.0, 0.15)
    axis = solve_pump_axis(exact_model(params, TruncatedSpace(1)), 1.0, linewidth=True)
    space = searched_space(exact_model(params, TruncatedSpace(1)), 1.0)
    model = exact_model(params, space)
    stats = recurrence_steady(model.gain_ratio(1.0), space)
    mom = moments(stats.p)
    slope = band_derivatives(model, stats.p[None], 1.0)
    width = linewidth_columns(slope, np.array([mom.mean_n]), 1.0)
    assert axis.status == ["ok"]
    assert axis.n_max.tolist() == [space.n_max]
    assert axis.p[0].tolist() == stats.p.tolist()
    assert [axis.mean_n[0], axis.variance[0], axis.mandel_Q[0]] == [
        mom.mean_n,
        mom.variance,
        mom.mandel_q,
    ]
    assert [axis.D[0], axis.normalized_D[0]] == [width.D[0], width.normalized_D[0]]
