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
                   linewidth_columns: D and normalized_D) and the statuses;
  once per stage   the truncation search (truncation_levels) takes the
                   model's own cutoff where it has one, else doubles in
                   stages over the rows not yet resolved; a stage that
                   reaches past the model's ratio table evaluates it once,
                   and reads only the magnitudes of the ladder;
  once per block   the pumps that share an n_max form one block, taken
                   largest first (so the first sizes the linewidth band's
                   table), and only the work whose bits depend on its
                   row length: a view of the model on its space
                   (GeneratorModel.at), whose ratios and band are slices of
                   the shared tables times the block's own rate rows, the
                   recurrence (recurrence_rows) and each row's dot products
                   (moment_sums: <n>, <n^2>; band_derivatives: f'(0)).

A stage or a block takes its rows in pieces of at most BLOCK_ENTRIES levels
in all, so memory does not grow with the pump axis.  Each row takes only
elementwise ufuncs, cumulative sums along the row, sums over exactly its
own filled levels, and dot products of its own, so every number is bit for
bit what its pump gives alone: an axis of one pump (a scalar r) is the
one-pump route.  recurrence_steady and observables.moments, which take any
ratio and any distribution, are the one-row case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _log_magnitudes(ratios: np.ndarray) -> np.ndarray:
    """log|p_n| of p_0 = 1, p_{n+1} = ratios[:, n] p_n, one ladder per row,
    each row's logs shifted so that its largest finite one is 0."""
    with np.errstate(divide="ignore"):
        steps = np.log(np.abs(ratios))
    logs = np.zeros((len(ratios), ratios.shape[1] + 1))
    np.cumsum(steps, axis=1, out=logs[:, 1:])
    logs -= np.max(logs, axis=1, keepdims=True, where=np.isfinite(logs), initial=-np.inf)
    return logs


def _signs(ratios: np.ndarray) -> np.ndarray:
    """sign(p_n) of the same ladders."""
    return np.concatenate((np.ones((len(ratios), 1)), np.cumprod(np.sign(ratios), axis=1)), axis=1)


def _ratio_rows(ratio, n: int) -> np.ndarray:
    """ratio(0..n-1) as one row per pump row (a model with scalar rates has one)."""
    return np.atleast_2d(np.asarray(ratio(np.arange(n)), dtype=float))


def _top_level(space: TruncatedSpace, cutoff: int | None) -> int:
    """The last level a recurrence fills: n_max, or the cutoff below it."""
    return space.n_max if cutoff is None else min(cutoff, space.n_max)


_UNRESOLVED = f"no truncation below {HARD_CAP} resolves the distribution tail"


def _not_normalizable(total: float) -> str:
    return (
        f"signed distribution weight {total:g} is not positive; "
        "the recurrence does not define a normalizable state here"
    )


def recurrence_rows(ratios: np.ndarray, dim: int) -> tuple:
    """The populations of recurrence_steady for every row of ratios, the
    ratios at the levels 0..n_top-1 (n_top < dim), at once, as a (rows, dim)
    array, and each row's signed weight: a row whose weight is not positive
    has no state and is left zero.  Signs are tracked only where some
    ratio is negative: elsewhere each is 1 (or 0 or NaN, as its magnitude).

    Every step is an elementwise ufunc, a cumulative sum or product along
    the row, or a sum over exactly the row's filled levels, so each row
    comes out bit for bit as it does alone.
    """
    filled = np.exp(_log_magnitudes(ratios))
    if (ratios < 0).any():
        filled *= _signs(ratios)
    weight = filled.sum(axis=1)
    p = np.zeros((len(filled), dim))
    np.divide(filled, weight[:, None], out=p[:, : filled.shape[1]], where=weight[:, None] > 0)
    return p, weight


def recurrence_steady(ratio, space: TruncatedSpace, cutoff: int | None = None) -> PhotonStatistics:
    """Solve p_{n+1} = ratio(n) p_n on the space, normalize by the signed sum.

    ratio may go negative (expansion models); products are accumulated in
    log space with separate sign tracking so long ladders cannot overflow.
    cutoff zeroes every p_n beyond it.  Without one, `converged` says
    whether the top level holds at most TAIL_TOL.  This is the one-row case
    of recurrence_rows.
    """
    _check_cutoff(cutoff)
    ratios = _ratio_rows(ratio, _top_level(space, cutoff))
    check_one_pump(len(ratios) == 1, "ratios", ratios)
    (p,), (weight,) = recurrence_rows(ratios, space.dim)
    if not weight > 0:
        raise SteadyStateError(_not_normalizable(weight))
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


def truncation_levels(model, kappa: float) -> np.ndarray:
    """The n_max of each of the model's pump rows (GeneratorModel.pump_count); 0 marks a
    row whose tail no ladder up to HARD_CAP resolves.

    A model with a cutoff of its own is pinned to it: the tail of a
    truncated series is an artifact.  A cutoff past MAX_TRUNCATION, the
    ceiling of an explicit truncation, is a SteadyStateError, raised before
    any table is built.  Every other row takes the smallest n_max whose
    steady distribution has p_{n_max} < TAIL_TOL and a last ratio below 1,
    found by doubling the ladder from START.

    The doubling runs in stages: every unresolved row at START levels,
    then the rest at twice that, and so on, each row's ladder shifted by its
    own maximum as it would be alone.  A stage reads the model's ratio
    table (evaluated once per stage that reaches further) for each piece of
    its unresolved rows (_pieces), and needs only the magnitudes of the
    ladder.
    """
    rows = model.pump_count()
    cutoff = _model_cutoff(model)
    if cutoff is not None:
        if cutoff > MAX_TRUNCATION:
            raise SteadyStateError(
                f"the model's cutoff {cutoff:.4g} passes the truncation ceiling {MAX_TRUNCATION}"
            )
        return np.full(rows, cutoff)
    levels, todo = np.zeros(rows, dtype=int), np.arange(rows)
    n_max = START
    while todo.size and n_max <= HARD_CAP:
        for part in _pieces(todo, n_max):
            ratios = model.at(part, model.space).ratio_rows(kappa, n_max)
            u = np.exp(_log_magnitudes(ratios))
            # lower levels may underflow to 0, so compare without dividing
            ok = u < TAIL_TOL * np.cumsum(u, axis=1)
            done = ok[:, -1] & (ratios[:, -1] < 1.0)
            levels[part[done]] = np.argmax(ok[done], axis=1)  # >= 1: ok[:, 0] is False
        todo = todo[levels[todo] == 0]
        n_max *= 2
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
    populations (None where the cell failed); a numeric column is NaN where
    its cell has no value, and n_max is 0 there."""

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
    keeps them all, and "auto" takes the model's own cutoff.  The pumps that
    share an n_max form one block, taken in pieces (_pieces), the largest
    n_max first: one view of the model (GeneratorModel.at), one recurrence
    (recurrence_rows) and the dot products of its rows (moment_sums,
    band_derivatives) per piece; the column arithmetic (photon_columns,
    linewidth_columns) and the statuses run once per axis.  Each cell is
    bit for bit what its pump gives alone, as an axis of one pump (a scalar
    r): there is no other one-pump route.  An error that no pump escapes
    (check_axis_options, a model cutoff below 1 or past MAX_TRUNCATION)
    fails every cell with its message.
    """
    pumps = model.pump_count()
    populations = [None] * pumps
    n_maxes = np.zeros(pumps, dtype=int)
    try:
        check_axis_options(kappa, truncation, cutoff)
        if truncation is None:
            levels = truncation_levels(model, kappa)
        else:
            levels = np.full(pumps, truncation)
        top = _model_cutoff(model) if cutoff == "auto" else cutoff
    except (SteadyStateError, ValueError) as exc:
        columns = np.full((5, pumps), np.nan)
        return PumpAxis([f"error: {exc}"] * pumps, populations, n_maxes, *columns)
    # each row's signed weight, <n>, <n^2> and f'(0); NaN where it has no block
    weight, mean, second, slope = np.full((4, pumps), np.nan)
    for n_max in np.unique(levels[levels > 0]).tolist()[::-1]:
        space = TruncatedSpace(n_max)
        for rows in _pieces(np.flatnonzero(levels == n_max), space.dim):
            block = model.at(rows, space)
            ratios = block.ratio_rows(kappa, _top_level(space, top))
            p, weight[rows] = recurrence_rows(ratios, space.dim)
            mean[rows], second[rows] = moment_sums(p)
            if linewidth:
                slope[rows] = band_derivatives(block, p, kappa)
            for i, row in zip(rows.tolist(), p):
                populations[i] = row
    solved = weight > 0  # a row the search left unresolved has weight NaN
    n_maxes[solved] = levels[solved]
    mean, variance, mandel_q = photon_columns(*np.where(solved, [mean, second], np.nan))
    width = linewidth_columns(slope, mean, kappa)  # all NaN without the linewidth
    undefined = width.undefined if linewidth else {}
    status = []
    for i, (ok, total) in enumerate(zip(solved.tolist(), weight.tolist())):
        if ok:
            status.append(f"undefined: {undefined[i]}" if i in undefined else "ok")
        else:
            populations[i] = None
            status.append(f"error: {_not_normalizable(total) if levels[i] else _UNRESOLVED}")
    return PumpAxis(status, populations, n_maxes, mean, variance, mandel_q, *width[:2])


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
