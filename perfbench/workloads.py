"""The four benchmark workloads: generated inputs, the runs they drive, and
the checks their outputs must pass.

Each workload is a closed loop with one caller: the next run starts only
after the previous one has returned.  The seed moves every pump value by at
most a tenth of a grid step, so the inputs differ between seeds while the
work size barely does.  The program sees only the generated config.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from micromaser import cli
from micromaser.fock import TruncatedSpace
from micromaser.models import (
    assemble,
    exact_model,
    fourth_order_model,
    heuristic_model,
    uniform_model,
    weak_coupling_model,
)
from micromaser.observables import linewidth, linewidth_fd
from micromaser.pump import PumpParameters
from micromaser.steady import nullspace_steady, recurrence_steady

DEFAULT_SEED = 0
JITTER = 0.2  # width of the seed's move of each pump value, in grid steps
KAPPA = 1.0

# Tolerances of the correctness gate.
REF_RTOL = 1e-8  # against the reference rows at the default seed
IDENTITY_RTOL = 1e-9  # mandel_Q and normalized_D against the row's own moments
SUM_TOL = 1e-9  # |sum_n p_n - 1| for every steady distribution
AGREE_RTOL = 1e-8  # exact against heuristic mean_n (beta = 4 (g tau_bar)^2)
DUAL_P_TOL = 1e-10  # recurrence against nullspace populations
DUAL_D_RTOL = 1e-6  # linewidth against linewidth_fd

LARGE_MODELS = ("exact", "uniform_lindblad", "heuristic")
ALL_MODELS = ("exact", "post4", "weak_lindblad", "uniform_lindblad", "heuristic")

# Values each checked cell reports, per command; the reference stores these.
COLUMNS = {
    "sweep": ("mean_n", "variance", "mandel_Q", "linewidth_D", "normalized_D"),
    "steady": ("n_max", "mean_n", "second_moment", "p_0"),
    "dense": ("mean_n", "linewidth_D", "linewidth_fd_D"),
}
REFERENCE_CELLS = 200  # at most this many cells are stored row by row


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "steady" through the CLI, "dense" through the API
    models: tuple
    g_tau_bar: float
    pump: tuple  # (start, stop, steps)
    smoke_pump: tuple
    fmt: str = "csv"
    n_max: int = 0  # dense route truncation
    smoke_n_max: int = 0


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("sweep_large", "sweep", LARGE_MODELS, 0.03, (0.5, 8.0, 12), (0.5, 1.0, 2)),
        Workload("sweep_small", "sweep", ALL_MODELS, 0.15, (0.2, 3.0, 2000), (0.2, 3.0, 3)),
        Workload(
            "steady_large", "steady", LARGE_MODELS, 0.03, (0.5, 8.0, 12), (0.5, 1.0, 2), fmt="json"
        ),
        Workload(
            "dense_oracle", "dense", ALL_MODELS, 0.05, (1.98, 2.02, 1), (1.98, 2.02, 1),
            n_max=30, smoke_n_max=6,
        ),
    )
}


def pump_grid(start: float, stop: float, steps: int, seed: int) -> tuple:
    """`steps` pump values near linspace(start, stop, steps), each moved by
    the seed within JITTER/2 of a grid step and kept inside [start, stop];
    a single value is drawn uniformly from [start, stop]."""
    rng = random.Random(seed)
    if steps == 1:
        return (start + (stop - start) * rng.random(),)
    step = (stop - start) / (steps - 1)
    return tuple(
        min(stop, max(start, start + i * step + JITTER * step * (rng.random() - 0.5)))
        for i in range(steps)
    )


@dataclass(frozen=True)
class Inputs:
    """One generated input: what a single run of the workload receives."""

    workload: Workload
    pump: tuple
    workers: int
    n_max: int

    @property
    def command(self) -> str:
        return self.workload.command

    @property
    def cells(self) -> list:
        return [(m, p) for m in self.workload.models for p in self.pump]

    def config_text(self) -> str:
        return json.dumps(
            {
                "models": list(self.workload.models),
                "g_tau_bar": self.workload.g_tau_bar,
                "pump": list(self.pump),
                "workers": self.workers,
            }
        )

    def argv(self) -> list:
        return [self.command, "--config", "-", "--format", self.workload.fmt]

    def with_workers(self, workers: int) -> "Inputs":
        return replace(self, workers=workers)


def make_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    start, stop, steps = workload.smoke_pump if smoke else workload.pump
    nproc = len(os.sched_getaffinity(0))
    return Inputs(
        workload=workload,
        pump=pump_grid(start, stop, steps, seed),
        workers=min(2, nproc),
        n_max=workload.smoke_n_max if smoke else workload.n_max,
    )


@dataclass
class RunOutput:
    code: int
    text: str = ""
    stderr: str = ""
    elapsed: float = math.nan
    dense: list | None = None


@dataclass(frozen=True)
class DenseResult:
    model: str
    populations: np.ndarray  # diagonal of the nullspace steady state
    recurrence: np.ndarray
    direct: object  # LinewidthResult
    finite_difference: object


def _dense_builders(params: PumpParameters):
    return {
        "exact": lambda space: exact_model(params, space),
        "post4": lambda space: fourth_order_model(params, space),
        "weak_lindblad": lambda space: weak_coupling_model(params, space),
        "uniform_lindblad": lambda space: uniform_model(params, space),
        "heuristic": lambda space: heuristic_model(params.gain_rate, 4.0 * params.u, space),
    }


def dense_route(inputs: Inputs) -> list:
    """assemble -> nullspace_steady -> recurrence_steady -> linewidth and
    linewidth_fd for every model, at one pump value and a fixed truncation."""
    space = TruncatedSpace(inputs.n_max)
    params = PumpParameters.from_pump(inputs.pump[0], inputs.workload.g_tau_bar, KAPPA)
    builders = _dense_builders(params)
    results = []
    for name in inputs.workload.models:
        model = builders[name](space)
        generator = assemble(model, KAPPA)
        rho = nullspace_steady(generator)
        stats = recurrence_steady(model.gain_ratio(KAPPA), space)
        results.append(
            DenseResult(
                name,
                np.diagonal(rho).real.copy(),
                stats.p,
                linewidth(generator, rho, KAPPA),
                linewidth_fd(generator, rho, KAPPA),
            )
        )
    return results


def run_once(inputs: Inputs, around=None) -> RunOutput:
    """One in-process run; `around(fn)` may wrap the call (the tracer's root span)."""
    if inputs.command == "dense":
        route = dense_route if around is None else around(dense_route)
        try:
            start = time.perf_counter()
            results = route(inputs)
            elapsed = time.perf_counter() - start
        except Exception:  # a crashed run loses every cell, the benchmark goes on
            traceback.print_exc()
            return RunOutput(code=-1)
        return RunOutput(code=0, elapsed=elapsed, dense=results)
    main = cli.main if around is None else around(cli.main)
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(inputs.config_text())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(inputs.argv())
            elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        return RunOutput(code=-1, stderr=err.getvalue())
    finally:
        sys.stdin = saved_stdin
    return RunOutput(code=code, text=out.getvalue(), stderr=err.getvalue(), elapsed=elapsed)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol)


def _parse_sweep(inputs: Inputs, text: str):
    """Per-cell values of a sweep CSV; None marks a cell that failed."""
    cells = inputs.cells
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != cli.SWEEP_COLUMNS or len(rows) - 1 != len(cells):
        return [None] * len(cells)
    values = []
    for row, (model, pump) in zip(rows[1:], cells):
        rec = dict(zip(cli.SWEEP_COLUMNS, row))
        try:
            nums = [float(rec[col]) for col in COLUMNS["sweep"]]
            ok = (
                rec["model"] == model
                and float(rec["pump_A_over_kappa"]) == pump
                and float(rec["g_tau_bar"]) == inputs.workload.g_tau_bar
                and rec["status"] == "ok"
                and all(math.isfinite(v) for v in nums)
            )
        except ValueError:
            ok = False
        if ok:
            mean_n, variance, mandel_q, d_rate, normalized = nums
            ok = _close(mandel_q + 1.0, variance / mean_n, IDENTITY_RTOL) and _close(
                normalized, d_rate * mean_n / KAPPA, IDENTITY_RTOL
            )
        values.append(nums if ok else None)
    return values


def _parse_steady(inputs: Inputs, text: str):
    """Per-cell (n_max, mean, second moment, p_0) of a steady JSON document."""
    cells = inputs.cells
    groups: dict = {}
    try:
        for row in json.loads(text)["rows"]:
            groups.setdefault((row["model"], row["pump_A_over_kappa"]), []).append(row)
    except (ValueError, KeyError, TypeError):
        return [None] * len(cells)
    if [cell for cell in cells if cell in groups] != list(groups):
        return [None] * len(cells)  # rows for unknown cells, or out of order
    values = []
    for cell in cells:
        group = groups.get(cell)
        if group is None:
            values.append(None)
            continue
        p = np.array([row["p_n"] for row in group], dtype=float)
        n = np.arange(p.size, dtype=float)
        ok = (
            [row["n"] for row in group] == list(range(p.size))
            and all(row["negative_flag"] == int(row["p_n"] < 0) for row in group)
            and all(row["g_tau_bar"] == inputs.workload.g_tau_bar for row in group)
            and abs(p.sum() - 1.0) <= SUM_TOL
        )
        values.append([float(p.size - 1), float(n @ p), float((n * n) @ p), float(p[0])] if ok else None)
    return values


def _parse_dense(inputs: Inputs, results: list):
    values = []
    for res, model in zip(results, inputs.workload.models):
        ok = (
            res.model == model
            and float(np.abs(res.populations - res.recurrence).max()) <= DUAL_P_TOL
            and abs(res.recurrence.sum() - 1.0) <= SUM_TOL
            and abs(res.direct.D - res.finite_difference.D)
            <= DUAL_D_RTOL * abs(res.finite_difference.D)
        )
        mean_n = float(np.arange(res.populations.size) @ res.populations)
        values.append([mean_n, res.direct.D, res.finite_difference.D] if ok else None)
    return values + [None] * (len(inputs.cells) - len(values))


def cell_values(inputs: Inputs, out: RunOutput) -> list:
    """Checked per-cell values of one run; None where a cell failed.

    A cell fails when its row is missing or its status is not ok, when it
    breaks an invariant, or when the run exits with a nonzero code.
    """
    cells = inputs.cells
    if out.code != 0:
        return [None] * len(cells)
    if inputs.command == "dense":
        values = _parse_dense(inputs, out.dense)
    elif inputs.command == "sweep":
        values = _parse_sweep(inputs, out.text)
    else:
        values = _parse_steady(inputs, out.text)
    _check_exact_heuristic(inputs, values)
    return values


def _check_exact_heuristic(inputs: Inputs, values: list) -> None:
    """The heuristic model with beta = 4 (g tau_bar)^2 reproduces the exact
    photon statistics, so the two mean photon numbers agree at every pump."""
    models = inputs.workload.models
    if "exact" not in models or "heuristic" not in models:
        return
    col = COLUMNS[inputs.command].index("mean_n")
    k = len(inputs.pump)
    ex, he = models.index("exact") * k, models.index("heuristic") * k
    for i in range(k):
        a, b = values[ex + i], values[he + i]
        if a is not None and b is not None and not _close(a[col], b[col], AGREE_RTOL):
            values[ex + i] = values[he + i] = None


def summarize(inputs: Inputs, values: list) -> dict:
    """Reference record: up to REFERENCE_CELLS cells at an even stride, plus
    every column summed per model so that no cell escapes the comparison."""
    stride = max(1, len(values) // REFERENCE_CELLS)
    k = len(inputs.pump)
    sums = {}
    for m, model in enumerate(inputs.workload.models):
        block = values[m * k : (m + 1) * k]
        if all(v is not None for v in block):
            sums[model] = [float(s) for s in np.sum(block, axis=0)]
    return {
        "cells": {str(i): values[i] for i in range(0, len(values), stride)},
        "sums": sums,
    }


def reference_failures(inputs: Inputs, values: list, reference: dict) -> set:
    """Cells that disagree with the reference beyond REF_RTOL."""
    bad = set()
    for key, expected in reference["cells"].items():
        got = values[int(key)]
        if got is None or not all(_close(g, e, REF_RTOL) for g, e in zip(got, expected)):
            bad.add(int(key))
    k = len(inputs.pump)
    mine = summarize(inputs, values)["sums"]
    for m, model in enumerate(inputs.workload.models):
        expected = reference["sums"].get(model)
        got = mine.get(model)
        if got is None or expected is None or not all(
            _close(g, e, REF_RTOL) for g, e in zip(got, expected)
        ):
            bad.update(range(m * k, (m + 1) * k))
    return bad
