"""Steady states: detailed-balance recurrence and dense nullspace solver.

Every model in this package drives the photon-number populations with
nearest-neighbour birth-death rates (gain G(n) up, kappa (n+1) down from
n+1), so the steady distribution obeys p_{n+1} = ratio(n) p_n with
ratio = G(n) / (kappa (n+1)).  The recurrence is exact for the truncated
generators, including the models whose ratio turns negative; the dense
nullspace path is the independent cross-check.  It splits the dense
generator into decoupled blocks (one per offset n - m for a phase-covariant
model) and solves their eigenvalues in ascending order of a Gershgorin
bound on them, min_i (|a_ii| - sum_{j != i} |a_ij|) over a block's rows or
its columns, whichever is larger; it stops at the first bound above twice
what the answer still needs (GAP_TOL * ||S|| once it holds a kernel, else
the second smallest |eigenvalue| so far; with return_info always the
latter).  Only the block that holds the steady state gets eigenvectors; a
matrix with no zero coupling is one block and gets one full eig.

A pump axis is solved in one pass (solve_pump_axis), and comes back as
columns (PumpAxis): one entry per pump for the status, the populations,
n_max, the moments and the linewidth.  The pump enters a model only through
per-pump rates multiplied in last (models.PairTerms), so one model, built
once per axis on a (P, 1) column of them, serves every pump:

  once per axis    the model build, its cutoff;
  once per stage   the truncation search (truncation_levels) takes the
                   model's own cutoff where it has one, else doubles in
                   stages over the rows not yet resolved; a stage that
                   reaches past the model's ratio table evaluates it once,
                   and reads only the magnitudes of the ladder;
  once per block   the pumps that share an n_max form one block, taken
                   largest first (so the first sizes the linewidth band's
                   table): a view of the model on its space
                   (GeneratorModel.at), whose ratios and band are slices of
                   the shared tables times the block's own rate rows, the
                   recurrence (recurrence_rows), the moments
                   (moment_columns) and the band linewidth (band_linewidths),
                   the last two on one mean per row.

A stage or a block takes its rows in pieces of at most BLOCK_ENTRIES levels
in all, so memory does not grow with the pump axis.  Each row takes only
elementwise ufuncs, cumulative sums along the row, sums over exactly its
own filled levels, and dot products of its own, so every number is bit for
bit what the one-pump functions (choose_truncation, recurrence_steady,
moments, linewidth) give; they are the one-row case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import TruncatedSpace
from .observables import band_linewidths, moment_columns
from .superop import Superoperator, unvec


START = 16  # n_max of the truncation search's first stage
HARD_CAP = 4096  # largest n_max the truncation search tries
# top-level weight below which a truncation resolves the tail; the search and
# recurrence_steady's `converged` flag read this one number
TAIL_TOL = 1e-10
# nullspace_steady: the steady eigenvalue lies within ZERO_TOL * ||S|| of 0,
# and no second one within GAP_TOL * ||S||
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
    n_cut: int | None
    negative: tuple = ()
    converged: bool = True

    @property
    def has_negative(self) -> bool:
        return len(self.negative) > 0


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
    logs = np.concatenate((np.zeros((len(ratios), 1)), np.cumsum(steps, axis=1)), axis=1)
    top = np.max(logs, axis=1, keepdims=True, where=np.isfinite(logs), initial=-np.inf)
    return logs - top


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
    has no state and is left zero.

    Every step is an elementwise ufunc, a cumulative sum or product along
    the row, or a sum over exactly the row's filled levels, so each row
    comes out bit for bit as it does alone.
    """
    filled = _signs(ratios) * np.exp(_log_magnitudes(ratios))
    weight = filled.sum(axis=1)
    good = weight > 0
    p = np.zeros((len(filled), dim))
    p[good, : filled.shape[1]] = filled[good] / weight[good, None]
    return p, weight


def recurrence_steady(ratio, space: TruncatedSpace, cutoff: int | None = None) -> PhotonStatistics:
    """Solve p_{n+1} = ratio(n) p_n on the space, normalize by the signed sum.

    ratio may go negative (expansion models); products are accumulated in
    log space with separate sign tracking so long ladders cannot overflow.
    cutoff zeroes every p_n beyond it.  Without one, `converged` says
    whether the top level holds at most TAIL_TOL.  This is the one-row case
    of recurrence_rows.
    """
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be None or a nonnegative integer, got {cutoff!r}")
    (p,), (weight,) = recurrence_rows(_ratio_rows(ratio, _top_level(space, cutoff)), space.dim)
    if not weight > 0:
        raise SteadyStateError(_not_normalizable(weight))
    if cutoff is not None and cutoff <= space.n_max:
        converged = True
    else:
        # occupancy of the top level, the choose_truncation criterion
        converged = bool(abs(p[-1]) <= TAIL_TOL)
    negative = tuple((int(n), float(p[n])) for n in np.flatnonzero(p < 0))
    return PhotonStatistics(p, n_cut=cutoff, negative=negative, converged=converged)


def _pieces(rows: np.ndarray, width: int) -> list:
    """rows in consecutive slices of at most BLOCK_ENTRIES // width (and at
    least one) of them."""
    size = max(1, BLOCK_ENTRIES // width)
    return [rows[i : i + size] for i in range(0, len(rows), size)]


def truncation_levels(model, rows: int, kappa: float) -> np.ndarray:
    """choose_truncation's n_max for each of the model's `rows` pump rows; 0
    marks a row whose tail no ladder up to HARD_CAP resolves.

    The doubling runs in stages: every unresolved row at START levels,
    then the rest at twice that, and so on, each row's ladder shifted by its
    own maximum as it would be alone.  A stage reads the model's ratio
    table (evaluated once per stage that reaches further) for each piece of
    its unresolved rows (_pieces), and needs only the magnitudes of the
    ladder.
    """
    cutoff = _model_cutoff(model)
    if cutoff is not None:
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


def choose_truncation(model, kappa: float) -> TruncatedSpace:
    """Smallest n_max whose steady distribution has p_{n_max} < TAIL_TOL.

    A model with a cutoff of its own is pinned to it instead: the tail of a
    truncated series is an artifact.  Every other model grows the ladder by
    doubling from START until the tail criterion is met, and raises
    SteadyStateError past HARD_CAP.  This is the one-row case of
    truncation_levels.
    """
    n_max = int(truncation_levels(model, 1, kappa)[0])
    if n_max == 0:
        raise SteadyStateError(_UNRESOLVED)
    return TruncatedSpace(n_max)


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
    frequency_pull: np.ndarray


def solve_pump_axis(
    build,
    pumps,
    kappa: float,
    truncation: int | None = None,
    cutoff: int | str | None = None,
    linewidth: bool = False,
) -> PumpAxis:
    """Steady state, moments and (with linewidth=True) band linewidth of one
    model at every pump value, as one PumpAxis.

    build(pumps, space) returns the model for a (P, 1) column of pump values
    on a space; it is called once, for the whole axis.  truncation None
    runs the truncation search of choose_truncation (truncation_levels), an
    integer fixes n_max.  cutoff is recurrence_steady's: an integer zeroes
    every level beyond it, None keeps them all, and "auto" takes the model's
    own cutoff.  The pumps that share an n_max form one block, taken in
    pieces (_pieces), the largest n_max first: one view of the model
    (GeneratorModel.at), one recurrence (recurrence_rows), one
    moment_columns and one band_linewidths per piece, the last two sharing
    each row's mean.  Each cell is bit for bit what choose_truncation,
    recurrence_steady, moments and linewidth give for its pump alone.  An
    error that no pump escapes (a model build, a model cutoff below 1, a
    kappa that is not positive, a truncation below 1, a negative cutoff)
    fails every cell with its message.
    """
    pumps = np.asarray(pumps, dtype=float).reshape(-1, 1)
    # a row the search left unresolved (level 0) keeps this error
    status = [f"error: {_UNRESOLVED}"] * len(pumps)
    populations = [None] * len(pumps)
    n_maxes = np.zeros(len(pumps), dtype=int)
    values = np.full((6, len(pumps)), np.nan)  # the float columns of PumpAxis, in order
    try:
        if truncation is not None and truncation < 1:
            raise ValueError(f"truncation must be None or a positive integer, got {truncation!r}")
        if cutoff not in (None, "auto") and cutoff < 0:
            raise ValueError(
                f"cutoff must be None, 'auto' or a nonnegative integer, got {cutoff!r}"
            )
        model = build(pumps, TruncatedSpace(1))
        if truncation is None:
            levels = truncation_levels(model, len(pumps), kappa)
        else:
            levels = np.full(len(pumps), truncation)
        top = _model_cutoff(model) if cutoff == "auto" else cutoff
        if not kappa > 0:
            raise ValueError("kappa must be positive")
    except (SteadyStateError, ValueError) as exc:
        return PumpAxis([f"error: {exc}"] * len(pumps), populations, n_maxes, *values)
    # the largest block first: it sizes the level tables in one evaluation
    for n_max in np.unique(levels[levels > 0]).tolist()[::-1]:
        space = TruncatedSpace(n_max)
        for rows in _pieces(np.flatnonzero(levels == n_max), n_max + 1):
            block = model.at(rows, space)
            ratios = block.ratio_rows(kappa, _top_level(space, top))
            p, weight = recurrence_rows(ratios, space.dim)
            solved = weight > 0
            columns = moment_columns(p)
            undefined = {}
            if linewidth:
                width = band_linewidths(block, p, columns[0], kappa)
                columns += width[:3]
                undefined = width.undefined
            n_maxes[rows[solved]] = n_max
            values[: len(columns), rows[solved]] = np.array(columns)[:, solved]
            for i, row, ok, total in zip(rows.tolist(), p, solved.tolist(), weight.tolist()):
                if ok:
                    populations[i] = row
                    status[i] = "ok"
                else:
                    status[i] = f"error: {_not_normalizable(total)}"
            for j, reason in undefined.items():
                if solved[j]:
                    status[rows[j]] = f"undefined: {reason}"
    return PumpAxis(status, populations, n_maxes, *values)


def _block_labels(mat: np.ndarray) -> tuple:
    """connected_components(mat != 0, connection="weak") of a square matrix,
    and the Gershgorin margins |a_ii| - sum_{j != i} |a_ij| of its rows and
    (second row of the array) of its columns.

    One flat scan reads the pattern: np.flatnonzero lists the nonzero
    entries row by row, which is already the order of a CSR pattern, and
    costs a fraction of the 2-D nonzero scan a sparse constructor would
    make.  The same entries give the sums of |a_ij| (np.bincount).  Every
    eigenvalue of a block lies in a disc |z - a_ii| <= sum_{j != i} |a_ij|
    of one of its rows, and in one of its columns' discs, so no |eigenvalue|
    of the block is below the larger of its rows' least margin and its
    columns' (a margin is negative where its disc holds zero, NaN where the
    matrix has a NaN).
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    size = len(mat)
    rows, cols = np.divmod(np.flatnonzero(mat != 0), size)
    indptr = np.searchsorted(rows, np.arange(size + 1))
    pattern = csr_array((np.ones(cols.size, dtype=bool), cols, indptr), shape=mat.shape)
    n_blocks, labels = connected_components(pattern, connection="weak")
    magnitudes = np.abs(mat[rows, cols])
    sums = np.stack((np.bincount(rows, magnitudes, size), np.bincount(cols, magnitudes, size)))
    diagonal = np.abs(np.diagonal(mat))
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, as for a NaN entry
        return n_blocks, labels, diagonal - (sums - diagonal)


def nullspace_steady(generator: Superoperator, return_info: bool = False):
    """Steady density matrix from the eigenvector of the dense generator
    with the smallest |eigenvalue|; Hermitized and trace normalized.

    The generator's nonzero pattern splits it into decoupled blocks (one per
    offset n - m for the phase-covariant models here), the weakly connected
    components of that pattern; a matrix that no zero entry splits is one
    block.  Each block's Gershgorin bound, the larger of its rows' and its
    columns' least margin (_block_labels), is at most the smallest
    |eigenvalue| it holds.  Blocks get their eigenvalue solves
    (np.linalg.eigvals) one at a time in ascending order of bound, until the
    next bound exceeds twice what the answer still needs: GAP_TOL * ||S||
    once a kernel (|eigenvalue| <= ZERO_TOL * ||S||) is found and
    return_info is off, else the second smallest |eigenvalue| solved so
    far (twice: room for the rounding of the bounds and of eigvals).  No
    block left unsolved can then hold an eigenvalue that changes a
    decision, a message or return_info, so the zero and gap tests on the
    union of the solved spectra decide as the whole spectrum would.  Only
    the block holding the smallest |eigenvalue| gets an eigenvector solve
    (one scipy.linalg.eig), and its smallest-|eigenvalue| vector, zero on
    every other block, is the steady state: complex if the matrix or that
    block's eigenvectors are.  return_info's eigenvalue comes from that
    eig, its gap from the union.

    Raises SteadyStateError when no eigenvalue sits within ZERO_TOL times
    the Frobenius norm, and DegenerateSteadyStateError when a second one
    sits within GAP_TOL times the norm (no unique steady state).
    """
    # imported here: at module level scipy would add about 0.5 s to every `import micromaser`
    import scipy.linalg

    mat = generator.matrix
    scale = np.linalg.norm(mat)
    n_blocks, labels, margins = _block_labels(mat)
    members = np.argsort(labels, kind="stable")  # block 0's indices, then 1's, ...
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n_blocks))))
    bounds = np.minimum.reduceat(margins[:, members], starts[:-1], axis=1).max(axis=0)
    starts = starts.tolist()
    solved, spectra = [], []  # the indices of each block solved, its eigenvalues
    least = [np.inf, np.inf]  # the two smallest |eigenvalue|s solved so far
    # a block with an inf or NaN entry has a NaN or -inf bound and goes first:
    # its eigvals raises, as it would in any order
    for b in np.argsort(np.where(np.isnan(bounds), -np.inf, bounds), kind="stable").tolist():
        kernel = least[0] <= ZERO_TOL * scale
        if bounds[b] > 2 * (GAP_TOL * scale if kernel and not return_info else least[1]):
            break
        solved.append(members[starts[b] : starts[b + 1]])
        spectra.append(np.linalg.eigvals(mat[np.ix_(solved[-1], solved[-1])]))
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
    block_lam, vecs = scipy.linalg.eig(mat[np.ix_(idx, idx)])
    j = np.argmin(np.abs(block_lam))
    steady = np.zeros(len(mat), dtype=np.result_type(mat, vecs))
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
