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


# The search as it stood before a stage skipped rows or handed its ladders
# to the blocks, kept as an independent reference: every stage ladders every
# unresolved row from level 0, and each block ladders its rows again.


def staged_search(model, kappa, tail_tol=1e-10, start=16, hard_cap=4096):
    """Each row's n_max (0: unresolved) and the length of the stage that
    resolved it."""
    levels, stages = np.zeros((2, model.pump_count()), dtype=int)
    todo, length = np.arange(model.pump_count()), start
    while todo.size and length <= hard_cap:
        ratios = model.at(todo, model.space).ratio_rows(kappa, length)
        with np.errstate(divide="ignore"):
            steps = np.cumsum(np.log(np.abs(ratios)), axis=1)
        logs = np.concatenate((np.zeros((len(todo), 1)), steps), axis=1)
        logs -= np.max(logs, axis=1, keepdims=True, where=np.isfinite(logs), initial=-np.inf)
        u = np.exp(logs)
        ok = u < tail_tol * np.cumsum(u, axis=1)
        done = ok[:, -1] & (ratios[:, -1] < 1.0)
        levels[todo[done]], stages[todo[done]] = np.argmax(ok[done], axis=1), length
        todo, length = todo[~done], 2 * length
    return levels, stages


def ladder_cell(model, row, kappa, n_max, top):
    """The populations of one row on levels 0..n_max, filled up to the
    cutoff top, from its own 1-D ladder."""
    filled = min(n_max, n_max if top is None else top)
    ratios = model.at(np.array([row]), model.space).ratio_rows(kappa, filled)[0]
    logs, signs = ladder_1d(ratios)
    p = np.zeros(n_max + 1)
    p[: filled + 1] = signs * np.exp(logs)
    p[: filled + 1] /= p[: filled + 1].sum()
    return p


def paths(model, kappa, top, levels, stages, tail_tol=1e-10):
    """The ways the rows of a searched axis take through the stages: a
    stage that skips a row (its last ratio is not below 1), one that
    ladders it without resolving it, one whose top population is below
    tail_tol while its last ratio is not below 1 (only that ratio keeps
    the row open), a row resolved by the first stage that ladders it, one
    whose block shifts its ladder by its own peak (the stage's ladder peaks
    past its filled levels, or a ratio there is negative) or by its
    stage's, and a row no stage resolves."""
    found = set()
    for row, (n_max, stage) in enumerate(zip(levels.tolist(), stages.tolist())):
        if not n_max:
            found.add("unresolved")
            stage = 8192
        lasts = []
        for length in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
            if length < stage:
                ratios = model.at(np.array([row]), model.space).ratio_rows(kappa, length)[0]
                u = np.exp(ladder_1d(ratios)[0])
                if ratios[-1] >= 1.0 and u[-1] < tail_tol * np.cumsum(u)[-1]:
                    found.add("small top, rising ratio")
                lasts.append(ratios[-1])
        found |= {"skipped" if last >= 1.0 else "laddered" for last in lasts}
        if n_max:
            found.add("first live stage" if all(last >= 1.0 for last in lasts) else "later stage")
            ratios = model.at(np.array([row]), model.space).ratio_rows(kappa, stage)[0]
            filled = min(n_max, n_max if top is None else top)
            own = np.argmax(ladder_1d(ratios)[0]) > filled or (ratios[:filled] < 0).any()
            found.add("own shift" if own else "stage's shift")
    return found


DISCRETE = TimeMeasure.discrete([1.0], [1.0])

# (build, g tau_bar, pumps, cutoff, the paths its rows must take)
SEARCHES = {
    "first_live_stage": (
        exact_model, 0.15, np.linspace(0.0, 3.0, 16), None, {"first live stage", "stage's shift"}
    ),
    # the ratio stays at 1 or above up to level 1,943: stages 16 to 1,024
    # skip the row, 2,048 ladders it, 4,096 resolves it (n_max 2,235)
    "skipped_stages": (exact_model, 0.03, [8.0], None, {"skipped", "laddered", "later stage"}),
    # the strict xfail's trapping dip: resolved at n_max 106
    "trapping_dip": (
        lambda params, space: exact_model(params, space, DISCRETE), 0.3, [200.0], None, set()
    ),
    # a dip at n_max 145, while the stage's ladder peaks at level 479
    "peak_past_n_max": (
        lambda params, space: exact_model(params, space, DISCRETE),
        0.25, [115.0], None, {"own shift"},
    ),
    # the stage of 128 levels finds a top population below TAIL_TOL at the
    # trapping dip near level 110, where the ratio has risen past 1 again:
    # only the last-ratio rule keeps the row open, and it resolves near 420
    "rising_ratio": (
        lambda params, space: exact_model(params, space, DISCRETE),
        0.3, [700.0], None, {"small top, rising ratio", "skipped"},
    ),
    # an explicit cutoff below the peak of the ladders at pumps 3 and 6
    "cutoff_below_peak": (exact_model, 0.15, [1.0, 3.0, 6.0], 5, {"own shift", "stage's shift"}),
    # post4 without its own cutoff is searched, and its ratios turn negative
    "negative_ratios": (
        lambda params, space: replace(fourth_order_model(params, space), cutoff=None),
        0.1, np.linspace(0.5, 20.0, 6), None, {"own shift"},
    ),
    # ratio gain / kappa at every level: 2 skips every stage, 0.999 is
    # laddered by every stage and never resolved, 0.95 and 0.5 resolve
    "unresolved": (
        lambda params, space: heuristic_model(np.array([2.0, 0.999, 0.95, 0.5]), 0.0, space),
        0.15, [1.0] * 4, None, {"unresolved", "skipped", "laddered"},
    ),
}


@pytest.mark.parametrize("name", list(SEARCHES))
def test_each_block_takes_the_populations_of_the_old_search(name):
    """Skipping the stages a row cannot finish, and filling a block from
    the ladder of the stage that resolved its rows, give the levels and
    the cells of the search that ladders every row at every stage and
    every block again, bit for bit, on rows that take every path."""
    build, g_tau_bar, pumps, top, want = SEARCHES[name]
    kappa = 1.0
    model = build(PumpParameters.from_pump(np.asarray(pumps), g_tau_bar, kappa), TruncatedSpace(1))
    levels, stages = staged_search(model, kappa)
    assert paths(model, kappa, top, levels, stages) >= want
    axis = solve_pump_axis(model, kappa, cutoff=top, linewidth=True)
    assert steady.truncation_levels(model, kappa).tolist() == levels.tolist()
    assert axis.n_max.tolist() == levels.tolist()
    if name == "trapping_dip":
        assert levels.tolist() == [106]
    for row, n_max in enumerate(levels.tolist()):
        if not n_max:
            assert axis.p[row] is None and axis.status[row].startswith("error: no truncation")
            continue
        p = ladder_cell(model, row, kappa, n_max, top)
        assert axis.p[row].tolist() == p.tolist()
        mom = moments(p)
        assert (axis.mean_n[row], axis.variance[row]) == (mom.mean_n, mom.variance)


COLUMNS = ("n_max", "mean_n", "variance", "mandel_Q", "D", "normalized_D")


def axis_numbers(axis):
    """Every entry of a solved pump axis, its float columns as their bits."""
    p = [None if row is None else row.tolist() for row in axis.p]
    return axis.status, p, [getattr(axis, col).tobytes() for col in COLUMNS]


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_pieces_of_the_pump_axis_give_the_same_cells(budget, monkeypatch):
    """Search stages and blocks taken in pieces of at most BLOCK_ENTRIES
    levels: every cell as from one piece, and no piece larger than that (a
    block, a view of the model at some of its rows; a search stage piece,
    the ratios of some rows on the stage's levels)."""
    kappa = 1.0
    pumps = np.concatenate(([0.0], np.linspace(0.2, 6.0, 23), [3.0]))
    params = PumpParameters.from_pump(pumps, 0.15, kappa)

    def saturating(params, space):  # beta 0 gives up at the hard cap above threshold
        return heuristic_model(2.0 * params.gain_rate, 0.0, space)

    blocks, pieces = [], []  # (rows, levels) of each block and each search stage piece
    view, ratio_rows = GeneratorModel.at, GeneratorModel.ratio_rows

    def counted_view(model, rows, space):
        blocks.append((len(rows), space.dim))
        return view(model, rows, space)

    def counted_ratios(model, kappa, length, start=0, rows=None):
        if rows is not None:
            pieces.append((len(rows), length))
        return ratio_rows(model, kappa, length, start, rows)

    for build, truncation in ((exact_model, None), (exact_model, 20), (saturating, None)):
        options = dict(truncation=truncation, linewidth=True)
        whole = solve_pump_axis(build(params, TruncatedSpace(1)), kappa, **options)
        with monkeypatch.context() as patch:
            patch.setattr(steady, "BLOCK_ENTRIES", budget)
            patch.setattr(GeneratorModel, "at", counted_view)
            patch.setattr(GeneratorModel, "ratio_rows", counted_ratios)
            parts = solve_pump_axis(build(params, TruncatedSpace(1)), kappa, **options)
        assert axis_numbers(parts) == axis_numbers(whole)
    assert blocks and pieces
    sizes = blocks + pieces
    assert any(rows > 1 for rows, _ in sizes) == (budget > 32)
    assert all(rows <= max(1, budget // width) for rows, width in sizes)


def test_level_functions_run_per_search_stage_not_per_block(monkeypatch):
    """One exact model serves the pump axis: each of its tables is
    evaluated once per model, whatever the number of search stages and
    blocks.  Band 0 is built on HARD_CAP levels at the first stage's read,
    and every later stage slices it; the feed table of the linewidth band
    once more; the dephasing once (three averages).  The level vectors,
    which no model owns (the levels' own, and the loss factors of the
    linewidth band), are built once per process, however many blocks (here
    12, one per pump) read them."""
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
    assert calls["sin_sin_average"] == 2  # the feed tables of bands 0 and 1
    assert calls["cos_cos_average"] == 3  # one dephasing table: three averages
    assert calls["level_vectors"] == calls["band_levels"] == 1


def test_tables_grown_past_the_hard_cap_give_the_same_axis():
    """A model whose tables a fixed truncation past HARD_CAP grew first
    (band 0 past the table its first read builds) solves a searched axis
    bit for bit as a fresh model does."""
    params = PumpParameters.from_pump(np.linspace(0.5, 8.0, 12), 0.03)
    grown = exact_model(params, TruncatedSpace(1))
    solve_pump_axis(grown, 1.0, truncation=5000, linewidth=True)
    assert grown.feed_terms.tables[0][0] > steady.HARD_CAP
    fresh = exact_model(params, TruncatedSpace(1))
    want = axis_numbers(solve_pump_axis(fresh, 1.0, linewidth=True))
    assert axis_numbers(solve_pump_axis(grown, 1.0, linewidth=True)) == want


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


@pytest.mark.parametrize(
    "build, g_tau_bar",
    [(exact_model, 1e153), (exact_model, 1.3e154)]
    + [(uniform_model, g_tau_bar) for g_tau_bar in (1e76, 1e100, 1e149, 1.3e154)],
)
def test_exact_solves_without_a_warning_at_the_largest_coupling(build, g_tau_bar):
    """Near the largest g tau_bar that check_g_tau_bar admits, the
    exponential measure's averages square arguments past the float range on
    the ratio table's 4,096 levels; 1 / (1 + inf) = 0 is their limit, so
    every cell is solved with no warning (an error in this suite).  The
    uniform model's projections divide by D^(k+1), D = 1 + (g tau_bar)^2 y,
    which passes the float range from g tau_bar 1e76 on, and take their
    limit 0 there: the vacuum, as exact gives."""
    params = PumpParameters.from_pump(np.array([1.0, 5.0]), g_tau_bar)
    for truncation in (5, None):
        model = build(params, TruncatedSpace(1))
        axis = solve_pump_axis(model, 1.0, truncation=truncation, linewidth=True)
        assert [s.startswith("undefined: mean photon number") for s in axis.status] == [True] * 2


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
