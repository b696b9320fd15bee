"""Steady states: detailed-balance recurrence and block nullspace solver.

Every model in this package drives the photon-number populations with
nearest-neighbour birth-death rates (gain G(n) up, kappa (n+1) down from
n+1), so the steady distribution obeys p_{n+1} = ratio(n) p_n with
ratio = G(n) / (kappa (n+1)).  The recurrence is exact for the truncated
generators, including the models whose ratio turns negative; the
nullspace path is the independent cross-check.  Its blocks are the offsets
n - m, which a phase-covariant generator never couples (checked on its
nonzero entries; a generator that couples two offsets is one block), each
solved as a dense array of its own entries.  It solves their eigenvalues
in ascending order of a Gershgorin bound on them,
min_i (|a_ii| - sum_{j != i} |a_ij|) over a block's rows or its columns,
whichever is larger; it stops at the first bound above twice what the
answer still needs (GAP_TOL * ||S|| once it holds a kernel, else the second
smallest |eigenvalue| so far; with return_info always the latter).  ||S||
is the largest absolute row sum, which the same Gershgorin sums hold.  Only
the block that holds the steady state gets eigenvectors.  It uses NumPy
alone (np.linalg.eigvals, eig), so the nullspace route never loads scipy.

A model built on a pump axis, a PumpParameters with one rate per pump, is
solved in one pass (solve_pump_axis) and comes back as columns (PumpAxis):
one entry per pump for the status, the populations, n_max, the moments and
the linewidth.  The pump enters a model only through per-pump rates
multiplied in last (models.PairTerms), so one model, built by the caller
on a (P, 1) column of them, serves every pump:

  once per process the level vectors (models.levels), which blocks slice;
  once per axis    the model's pump count and cutoff; the column
                   arithmetic (photon_columns: variance and Mandel Q;
                   linewidth_columns: D and normalized_D); the statuses
                   and the list of populations, from masks and index
                   arrays (a Python loop visits only failed and undefined
                   cells);
  once per stage   the pumps are laddered in pieces (_ladder, read from
                   the model's ratio table, built once on HARD_CAP levels)
                   and each row is given its n_max.  A fixed truncation or
                   a model cutoff is one stage, every row at that n_max;
                   else the truncation search doubles in stages over the
                   rows not yet resolved, ladders only those whose ratio at
                   the stage's last level is below 1 (no other can resolve
                   there), and its tail test gives each row it resolves
                   its n_max;
  once per block   the rows of one stage piece at one n_max form a block
                   (_ladder_blocks), which does only the work whose bits
                   depend on its row length: its populations, the piece's
                   magnitudes on its filled levels over their sum where its
                   ladder peaks within them, else recurrence_rows on its
                   ratios cut to them; and each row's dot products
                   (moment_sums: <n>, <n^2>; band_derivatives: f'(0) on a
                   view of the model at its solved rows, GeneratorModel.at,
                   largest n_max first, so that the first sizes the
                   linewidth band's table).

A stage piece holds at most BLOCK_ENTRIES levels in all, so memory does not
grow with the pump axis, and its arrays are freed before the next piece is
laddered.  Each row takes only elementwise ufuncs, cumulative sums along
the row, sums over exactly its own filled levels, and dot products of its
own, so every number is bit for bit what its pump gives alone: an axis of
one pump (a scalar r) is the one-pump route.  recurrence_steady and
observables.moments, which take any ratio and any distribution, are the
one-row case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .fock import Superoperator, TruncatedSpace, is_integer, unvec, vec_entries
from .models import HARD_CAP
from .observables import band_derivatives, linewidth_columns, moment_sums, photon_columns
from .pump import check_kappa, check_one_pump


START = 16  # n_max of the truncation search's first stage
# Largest explicit truncation solve_pump_axis (and the CLI) takes.  A sweep
# of exact and heuristic at two pumps there peaks at about 0.7 GB; far above
# it the level tables cannot be allocated (7 PiB at 10**15).
MAX_TRUNCATION = 2**22
# top-level weight below which a truncation resolves the tail; the search and
# recurrence_steady's `converged` flag read this one number
TAIL_TOL = 1e-10
# nullspace_steady: the steady eigenvalue lies within ZERO_TOL * ||S|| of 0,
# and no second one within GAP_TOL * ||S|| (||S|| the largest absolute row sum)
ZERO_TOL = 1e-10
GAP_TOL = 1e-8
# pumps x levels one search stage or recurrence block holds at once (a float
# array of it is 2 MB), whatever the length of the pump axis
BLOCK_ENTRIES = 1 << 18


class SteadyStateError(RuntimeError):
    """No usable steady state at the requested truncation."""


class DegenerateSteadyStateError(SteadyStateError):
    """More than one eigenvalue indistinguishable from zero."""


@dataclass(frozen=True)
class PhotonStatistics:
    """Normalized photon-number distribution with its diagnostics.

    `negative` lists (n, p_n) pairs with p_n < 0: legitimate output for the
    fourth-order model, whose distribution is not a probability.  `converged`
    records whether the top of the filled range carries negligible weight
    (a hard cutoff counts as converged by construction).
    """

    p: np.ndarray = field(repr=False)
    negative: tuple = ()
    converged: bool = True


def _model_cutoff(model) -> int | None:
    """model.cutoff.  One below 1 leaves a series model no valid level, so it
    fails on the truncation search and a fixed truncation alike."""
    if model.cutoff is not None and model.cutoff < 1:
        raise SteadyStateError(
            f"expansion models unusable at g tau_bar = {model.params.g_tau_bar} "
            f"(cutoff {model.cutoff} < 1)"
        )
    return model.cutoff


def _ladder(ratios: np.ndarray) -> tuple:
    """The ladders p_0 = 1, p_{n+1} = ratios[:, n] p_n, one per row, as
    their magnitudes |p_n| over each row's largest, and the first level at
    which each row peaks.  They are summed in log space, each step
    log|ratio| written into the ladder and accumulated there, so a long
    ladder cannot overflow; a row with a NaN or +inf log, which no ratio
    that is finite gives, comes out NaN from there on."""
    logs = np.zeros((len(ratios), ratios.shape[1] + 1))
    steps = np.abs(ratios, out=logs[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0; inf - inf
        np.log(steps, out=steps)
        steps.cumsum(axis=1, out=steps)
        peak = logs.argmax(axis=1)
        logs -= logs.max(axis=1, keepdims=True)
    return np.exp(logs, out=logs), peak


def _top_level(n_max: int, cutoff: int | None) -> int:
    """The last level a recurrence fills: n_max, or the cutoff below it."""
    return n_max if cutoff is None else min(cutoff, n_max)


def _no_state(ratios: np.ndarray, total: float | None) -> str:
    """Why a row of ratios has no state: the first of them that is not
    finite, else its signed weight total (None: no truncation resolved it)."""
    bad = np.flatnonzero(~np.isfinite(ratios))
    if bad.size:
        n = int(bad[0])
        return f"ratio p_{n + 1}/p_{n} = {ratios[n]:g} is not finite; the recurrence defines no state here"
    if total is None:
        return f"no truncation below {HARD_CAP} resolves the distribution tail"
    return (
        f"signed distribution weight {total:g} is not positive; "
        "the recurrence does not define a normalizable state here"
    )


def _normalized(filled: np.ndarray, dim: int) -> tuple:
    """The rows of filled over their sums, zero padded to dim levels, and
    the sums; a row whose sum is not positive is left zero."""
    weight = filled.sum(axis=1)
    p = np.zeros((len(filled), dim))
    np.divide(filled, weight[:, None], out=p[:, : filled.shape[1]], where=weight[:, None] > 0)
    return p, weight


def recurrence_rows(ratios: np.ndarray, dim: int) -> tuple:
    """The populations of recurrence_steady for every row of ratios, the
    ratios at the levels 0..n_top-1 (n_top < dim), at once, as a (rows, dim)
    array, and each row's signed weight: a row whose weight is not positive
    (or NaN, as a ratio that is not finite leaves it) has no state and is
    left zero.  Signs are tracked only where some ratio is negative:
    elsewhere each is 1 (or 0 or NaN, as its magnitude).

    Every step is an elementwise ufunc, a cumulative sum or product along
    the row, or a sum over exactly the row's filled levels, so each row
    comes out bit for bit as it does alone.
    """
    filled = _ladder(ratios)[0]
    if (ratios < 0).any():  # sign(p_n), p_0 > 0
        filled[:, 1:] *= np.cumprod(np.sign(ratios), axis=1)
    return _normalized(filled, dim)


def recurrence_steady(ratio, space: TruncatedSpace, cutoff: int | None = None) -> PhotonStatistics:
    """Solve p_{n+1} = ratio(n) p_n on the space, normalize by the signed sum.

    ratio may go negative (expansion models); products are accumulated in
    log space with separate sign tracking so long ladders cannot overflow.
    cutoff zeroes every p_n beyond it.  Without one, `converged` says
    whether the top level holds at most TAIL_TOL.  This is the one-row case
    of recurrence_rows; a weight that is not positive, or a ratio that is
    not finite, is a SteadyStateError.
    """
    _check_cutoff(cutoff)
    n = np.arange(_top_level(space.n_max, cutoff))
    ratios = np.atleast_2d(np.asarray(ratio(n), dtype=float))
    check_one_pump(len(ratios) == 1, "ratios", ratios)
    (p,), (weight,) = recurrence_rows(ratios, space.dim)
    if not weight > 0:
        raise SteadyStateError(_no_state(ratios[0], weight))
    if cutoff is not None and cutoff <= space.n_max:
        converged = True
    else:
        # occupancy of the top level, the truncation search's criterion
        converged = bool(abs(p[-1]) <= TAIL_TOL)
    negative = tuple((int(n), float(p[n])) for n in np.flatnonzero(p < 0))
    return PhotonStatistics(p, negative=negative, converged=converged)


def _pieces(rows: np.ndarray, width: int) -> list:
    """rows in consecutive slices of at most BLOCK_ENTRIES // width (and at
    least one) of them."""
    size = max(1, BLOCK_ENTRIES // width)
    return [rows[i : i + size] for i in range(0, len(rows), size)]


def _pinned(model) -> int | None:
    """The model's own cutoff, which pins its truncation (the tail of a
    truncated series is an artifact), or None; one past MAX_TRUNCATION, the
    ceiling of an explicit truncation, is a SteadyStateError."""
    cutoff = _model_cutoff(model)
    if cutoff is not None and cutoff > MAX_TRUNCATION:
        raise SteadyStateError(
            f"the model's cutoff {cutoff:.4g} passes the truncation ceiling {MAX_TRUNCATION}"
        )
    return cutoff


class _Block(NamedTuple):
    """Some pumps of one n_max: their rows, n_max, populations and signed
    weights."""

    rows: np.ndarray
    n_max: int
    p: np.ndarray
    weight: np.ndarray


def _tail_levels(u: np.ndarray) -> np.ndarray:
    """The search's tail test on the magnitudes u of a stage's ladders:
    each row's n_max, its first level whose population is below TAIL_TOL
    of those up to it, where the stage's last level passes too; else 0."""
    # lower levels may underflow to 0, so compare without dividing
    tail = u.cumsum(axis=1)
    tail *= TAIL_TOL
    ok = u < tail
    return np.where(ok[:, -1], ok.argmax(axis=1), 0)  # >= 1: ok[:, 0] is False


def _ladder_blocks(model, kappa: float, rows: np.ndarray, length: int, resolve, top) -> list:
    """The blocks of the pump rows `rows`, one stage piece laddered on
    `length` levels; resolve(u) gives each row's n_max from its ladder's
    magnitudes u, 0 for a row that gets no block.  A row's block fills its
    levels 0..t (t its n_max, or the cutoff top below it).  Where its
    ladder peaks within them, the ladder's shift is the block's own, so its
    populations are u there over their sum; any other row, or one with a
    negative ratio (u holds no sign), runs recurrence_rows on its ratios
    cut to t.  The piece's arrays die as it returns."""
    ratios = model.ratio_rows(kappa, length, rows=rows)
    u, peak = _ladder(ratios)
    levels = resolve(u)
    signed = (ratios < 0).any(axis=1)
    blocks = []
    for level in np.unique(levels[levels > 0]).tolist():
        t = _top_level(level, top)
        local = (levels == level).nonzero()[0]
        shared = (peak[local] <= t) & ~signed[local]
        reused, own = local[shared], local[~shared]
        if reused.size:
            blocks.append(_Block(rows[reused], level, *_normalized(u[reused, : t + 1], level + 1)))
        if own.size:
            blocks.append(_Block(rows[own], level, *recurrence_rows(ratios[own, :t], level + 1)))
    return blocks


def _blocks(model, kappa: float, fixed: int | None, top):
    """Every block of the model's pump rows (_ladder_blocks).  At a fixed
    n_max each piece is laddered on its filled levels and every row takes
    that n_max: one stage.  Else the search's stages double from START to
    HARD_CAP; each ladders the rows not yet resolved whose ratio at its last
    level is below 1, and its tail test (_tail_levels) gives each row it
    resolves its n_max.  A row that no stage resolves gets no block."""
    pumps = model.pump_count()
    if fixed is not None:
        same = lambda u: np.full(len(u), fixed)
        for rows in _pieces(np.arange(pumps), fixed + 1):
            yield from _ladder_blocks(model, kappa, rows, _top_level(fixed, top), same, top)
        return
    todo, length, live = np.arange(pumps), START, np.ones(pumps, dtype=bool)
    while todo.size and length <= HARD_CAP:
        last = model.ratio_rows(kappa, length, length - 1)[:, 0]
        for rows in _pieces(todo[last[todo] < 1.0], length):
            for block in _ladder_blocks(model, kappa, rows, length, _tail_levels, top):
                live[block.rows] = False
                yield block
        todo = todo[live[todo]]
        length *= 2


def truncation_levels(model, kappa: float) -> np.ndarray:
    """The n_max of each of the model's pump rows (GeneratorModel.pump_count),
    read from its block (_blocks); 0 marks a row whose tail no ladder up to
    HARD_CAP resolves.  A model with a cutoff of its own is pinned to it
    (_pinned; one past MAX_TRUNCATION is raised before any table is built).
    Every other row takes the smallest n_max whose steady distribution has
    p_{n_max} < TAIL_TOL and a last ratio below 1, found by doubling the
    ladder from START, each row's ladder shifted by its own maximum as it
    would be alone."""
    levels = np.zeros(model.pump_count(), dtype=int)
    for block in _blocks(model, kappa, _pinned(model), None):
        levels[block.rows] = block.n_max
    return levels


def _check_cutoff(cutoff) -> None:
    """The rule for a cutoff: None or a nonnegative integer."""
    if cutoff is not None and not (is_integer(cutoff) and cutoff >= 0):
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")


def check_axis_options(kappa: float, truncation, cutoff) -> None:
    """ValueError unless kappa is positive and finite, truncation None or an
    integer from 1 to MAX_TRUNCATION, and cutoff None, "auto" or a
    nonnegative integer: solve_pump_axis's check, and the CLI's."""
    check_kappa(kappa, zero=False)
    if not (truncation is None or is_integer(truncation) and 1 <= truncation <= MAX_TRUNCATION):
        raise ValueError(
            f"truncation must be an integer in 1..{MAX_TRUNCATION}, got {truncation!r}"
        )
    if cutoff != "auto":
        _check_cutoff(cutoff)


@dataclass(frozen=True)
class PumpAxis:
    """One model solved along its pump axis, as columns with one entry per
    pump in order.  `status` is "ok", "error: <why there is no state>" or
    "undefined: <why there is no linewidth>"; `p` holds each pump's
    populations, None where the cell failed, as n_max is 0 there and only
    there; a numeric column is NaN where its cell has no value."""

    status: list
    p: list
    n_max: np.ndarray
    mean_n: np.ndarray
    variance: np.ndarray
    mandel_Q: np.ndarray
    D: np.ndarray
    normalized_D: np.ndarray


def solve_pump_axis(
    model,
    kappa: float,
    truncation: int | None = None,
    cutoff: int | str | None = None,
    linewidth: bool = False,
) -> PumpAxis:
    """Steady state, moments and (with linewidth=True) band linewidth of one
    model at every pump value, as one PumpAxis.

    model is built on one rate per pump, on any space (exact_model(params,
    space), ..., params.r a scalar for one pump, or 1-D as from_pump makes
    it from an array of pumps), and its rates give the number of pumps
    (GeneratorModel.pump_count).  truncation None runs the truncation search
    (truncation_levels), an integer fixes n_max.  cutoff is
    recurrence_steady's: an integer zeroes every level beyond it, None
    keeps them all, and "auto" takes the model's own cutoff.  Either way
    the axis reads each pump's n_max and populations from its block
    (_blocks), and runs the moments, and the band linewidth of its solved
    rows, per block (see the module docstring).  Each cell is bit for bit
    what its pump gives alone, as an axis of one pump (a scalar r): there
    is no other one-pump route.  An error that no pump escapes
    (check_axis_options, a model cutoff below 1 or past MAX_TRUNCATION)
    fails every cell with its message; a cell without a state names why
    (_no_state).
    """
    pumps = model.pump_count()
    try:
        check_axis_options(kappa, truncation, cutoff)
        fixed = _pinned(model) if truncation is None else truncation
        top = _model_cutoff(model) if cutoff == "auto" else cutoff
    except (SteadyStateError, ValueError) as exc:
        columns = np.full((5, pumps), np.nan)
        return PumpAxis([f"error: {exc}"] * pumps, [None] * pumps, np.zeros(pumps, int), *columns)
    blocks = list(_blocks(model, kappa, fixed, top))
    # each row's n_max, signed weight, <n>, <n^2> and f'(0); 0 or NaN where it has no block
    levels = np.zeros(pumps, dtype=int)
    weight, mean, second, slope = np.full((4, pumps), np.nan)
    for block in blocks:
        levels[block.rows] = block.n_max
        weight[block.rows] = block.weight
        mean[block.rows], second[block.rows] = moment_sums(block.p)
    if linewidth:  # largest n_max first, so the first sizes the band's table
        for block in sorted(blocks, key=lambda block: -block.n_max):
            ok = block.weight > 0  # a failed row gets no linewidth: copies only where one fails
            rows, p = (block.rows, block.p) if ok.all() else (block.rows[ok], block.p[ok])
            slope[rows] = band_derivatives(model.at(rows, TruncatedSpace(block.n_max)), p, kappa)
    solved = weight > 0  # a row the search left unresolved has weight NaN
    populations = np.full(pumps, None, dtype=object)
    if blocks:
        rows = np.concatenate([block.rows for block in blocks])
        views = chain.from_iterable(block.p for block in blocks)  # each row of each block
        populations[rows] = np.fromiter(views, dtype=object, count=len(rows))
    populations[~solved] = None  # a block's row whose weight is not positive
    mean, variance, mandel_q = photon_columns(*np.where(solved, [mean, second], np.nan))
    width = linewidth_columns(slope, mean, kappa)  # all NaN without the linewidth
    status = ["ok"] * pumps  # then each failed or undefined cell's own
    for i, why in (width.undefined if linewidth else {}).items():
        status[i] = f"undefined: {why}"
    failed = np.flatnonzero(~solved)
    for i, n_max, total in zip(failed.tolist(), levels[failed].tolist(), weight[failed].tolist()):
        # the ratios its state would read: its filled levels, or the search's
        ratios = model.ratio_rows(kappa, _top_level(n_max, top) if n_max else HARD_CAP, rows=[i])
        status[i] = f"error: {_no_state(ratios[0], total if n_max else None)}"
    columns = mean, variance, mandel_q, *width[:2]
    return PumpAxis(status, populations.tolist(), np.where(solved, levels, 0), *columns)


def _block_labels(generator: Superoperator) -> tuple:
    """The decoupled blocks of a generator on column-stacked matrices: their
    number and each vec index's block; the Gershgorin margins
    |a_ii| - sum_{j != i} |a_ij| of its rows and (second row of the array)
    of its columns; and its largest absolute row sum
    ||S|| = max_i sum_j |a_ij|.

    A phase-covariant generator maps the entries of each offset n - m only
    to that offset, so the blocks are the offsets, numbered in order of
    their least index: 0, -1, ..., 1 - dim, then 1, ..., dim - 1.  The
    generator's nonzero entries (row-major) show whether any of them couples
    two offsets; a generator with one that does is one block.  The same
    entries give the sums of |a_ij| (np.bincount) and the diagonal.  Every
    eigenvalue of a block lies in a disc |z - a_ii| <= sum_{j != i} |a_ij|
    of one of its rows, and in one of its columns' discs, so no |eigenvalue|
    of the block is below the larger of its rows' least margin and its
    columns' (a margin is negative where its disc holds zero, NaN where the
    generator has a NaN).
    """
    dim = generator.space.dim
    size = dim * dim
    rows, cols = generator.rows, generator.cols
    m, n = vec_entries(dim)
    offset = n - m
    if np.array_equal(offset[rows], offset[cols]):
        n_blocks, labels = 2 * dim - 1, np.where(offset > 0, dim - 1 + offset, -offset)
    else:
        n_blocks, labels = 1, np.zeros(size, dtype=int)
    magnitudes = np.abs(generator.values)
    sums = np.stack((np.bincount(rows, magnitudes, size), np.bincount(cols, magnitudes, size)))
    diagonal = np.zeros(size)
    on = rows == cols
    diagonal[rows[on]] = magnitudes[on]
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, as for a NaN entry
        margins = diagonal - (sums - diagonal)
    return n_blocks, labels, margins, sums[0].max()


def _block_matrix(generator: Superoperator, idx: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The block on the ascending vec indices idx as a dense array: what
    mat[np.ix_(idx, idx)] reads, from the entries the mask `entries` picks,
    all of whose rows and columns lie in the block."""
    where = np.zeros(generator.space.dim**2, dtype=int)
    where[idx] = np.arange(len(idx))
    block = np.zeros((len(idx), len(idx)), dtype=generator.values.dtype)
    rows, cols = where[generator.rows[entries]], where[generator.cols[entries]]
    block[rows, cols] = generator.values[entries]
    return block


def nullspace_steady(generator: Superoperator, return_info: bool = False):
    """Steady density matrix from the eigenvector of the generator with the
    smallest |eigenvalue|; Hermitized and trace normalized.

    The blocks are the offsets n - m of the vec indices, which a
    phase-covariant generator does not couple; a generator with an entry
    that couples two offsets is one block (_block_labels).  A block is
    solved as a dense k x k array built from its own entries
    (_block_matrix), so no (n_max+1)^2 square array is formed unless the
    generator is one block.  Each block's
    Gershgorin bound, the larger of its rows' and its columns' least
    margin, is at most the smallest |eigenvalue| it holds.  Blocks get
    their eigenvalue solves (np.linalg.eigvals) one at a time in ascending
    order of bound, until the next bound exceeds twice what the answer
    still needs: GAP_TOL * ||S|| once a kernel (|eigenvalue| <=
    ZERO_TOL * ||S||) is found and return_info is off,
    else the second smallest |eigenvalue| solved so far (twice: room for
    the rounding of the bounds and of eigvals).  No block left unsolved
    can then hold an eigenvalue that changes a decision, a message or
    return_info, so the zero and gap tests on the union of the solved
    spectra decide as the whole spectrum would.  Only the block holding
    the smallest |eigenvalue| gets an eigenvector solve (one
    np.linalg.eig), and its smallest-|eigenvalue| vector, zero on every
    other block, is the steady state: complex if the generator or that
    block's eigenvectors are.  return_info's eigenvalue comes from that
    eig, its gap from the union.

    ||S|| is the largest absolute row sum, which the Gershgorin sums
    already hold and return_info reports as "norm"; it bounds every
    |eigenvalue| and grows with the largest rate, not, as the Frobenius
    norm does, with the number of entries.  Raises SteadyStateError when no eigenvalue sits
    within ZERO_TOL * ||S||, and DegenerateSteadyStateError when a second
    one sits within GAP_TOL * ||S|| (no unique steady state).
    """
    n_blocks, labels, margins, scale = _block_labels(generator)
    members = np.argsort(labels, kind="stable")  # block 0's indices, then 1's, ...
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n_blocks))))
    bounds = np.minimum.reduceat(margins[:, members], starts[:-1], axis=1).max(axis=0)
    starts = starts.tolist()
    entry_labels = labels[generator.rows]  # an entry's row and column share a block
    solved, blocks, spectra = [], [], []  # each solved block's indices, matrix, eigenvalues
    least = [np.inf, np.inf]  # the two smallest |eigenvalue|s solved so far
    # a block with an inf or NaN entry has a NaN or -inf bound and goes first:
    # its eigvals raises, as it would in any order
    for b in np.argsort(np.where(np.isnan(bounds), -np.inf, bounds), kind="stable").tolist():
        kernel = least[0] <= ZERO_TOL * scale
        if bounds[b] > 2 * (GAP_TOL * scale if kernel and not return_info else least[1]):
            break
        solved.append(members[starts[b] : starts[b + 1]])
        blocks.append(_block_matrix(generator, solved[-1], entry_labels == b))
        spectra.append(np.linalg.eigvals(blocks[-1]))
        least = sorted(least + np.abs(spectra[-1]).tolist())[:2]
    lam = np.concatenate(spectra)
    # lam[i] is an eigenvalue of the block solved[owner[i]]
    owner = np.repeat(np.arange(len(solved)), [len(s) for s in spectra])
    order = np.argsort(np.abs(lam))
    smallest = abs(lam[order[0]])
    if smallest > ZERO_TOL * scale:
        raise SteadyStateError(
            f"smallest |eigenvalue| {smallest:.3e} exceeds "
            f"{ZERO_TOL:g} * ||S|| = {ZERO_TOL * scale:.3e}"
        )
    if len(lam) > 1 and abs(lam[order[1]]) <= GAP_TOL * scale:
        raise DegenerateSteadyStateError(
            f"second eigenvalue {abs(lam[order[1]]):.3e} also lies within "
            f"{GAP_TOL:g} * ||S||; steady state is not unique"
        )
    idx = solved[owner[order[0]]]
    block_lam, vecs = np.linalg.eig(blocks[owner[order[0]]])
    j = np.argmin(np.abs(block_lam))
    steady = np.zeros(generator.space.dim**2, dtype=np.result_type(generator.values, vecs))
    steady[idx] = vecs[:, j]
    rho = unvec(steady, generator.space)
    rho = 0.5 * (rho + rho.conj().T)
    trace = float(np.trace(rho).real)
    if abs(trace) < 1e-12 * np.linalg.norm(rho) * rho.shape[0]:
        raise SteadyStateError("nullspace vector is traceless; not a state")
    rho = rho / trace
    if return_info:
        info = {
            "eigenvalue": complex(block_lam[j]),
            "gap": float(abs(lam[order[1]])) if len(lam) > 1 else np.inf,
            "norm": float(scale),
        }
        return rho, info
    return rho
