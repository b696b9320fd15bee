"""Steady states: detailed-balance recurrence and dense nullspace solver.

Every model in this package drives the photon-number populations with
nearest-neighbour birth-death rates (gain G(n) up, kappa (n+1) down from
n+1), so the steady distribution obeys p_{n+1} = ratio(n) p_n with
ratio = G(n) / (kappa (n+1)).  The recurrence is exact for the truncated
generators, including the models whose ratio turns negative; the dense
nullspace path is the independent cross-check.  It solves each decoupled
block of the dense generator (one per offset n - m for a phase-covariant
model) with its own eig; a matrix with no zero coupling is one block and
gets one full eig.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fock import TruncatedSpace
from .superop import Superoperator, unvec


class SteadyStateError(RuntimeError):
    """No usable steady state at the requested truncation."""


class DegenerateSteadyStateError(SteadyStateError):
    """More than one eigenvalue indistinguishable from zero."""


class CutoffWarning(UserWarning):
    pass


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


def _cutoff_index(g_tau_bar: float) -> int:
    if g_tau_bar <= 0:
        raise ValueError("g_tau_bar must be positive")
    return int(np.floor(0.2 / g_tau_bar**2))


def default_cutoff(g_tau_bar: float) -> int:
    """Truncation index 0.2 / (g tau_bar)^2 for the expansion models.

    The fourth-order gain turns negative near 0.25 / (g tau_bar)^2; cutting
    at 80 percent of that keeps the series models inside their validity
    window.  A cutoff below 1 means the coupling is too strong for them.
    """
    n = _cutoff_index(g_tau_bar)
    if n < 1:
        warnings.warn(
            f"expansion cutoff {n} < 1 at g tau_bar = {g_tau_bar}; "
            "the series models are unusable here",
            CutoffWarning,
            stacklevel=2,
        )
    return n


def expansion_cutoff(g_tau_bar: float) -> int:
    """default_cutoff for a run: SteadyStateError, and no warning, where it
    is below 1.  The truncation search and a fixed truncation share this
    check, so an unusable expansion model fails its cell on either route.
    """
    n = _cutoff_index(g_tau_bar)
    if n < 1:
        raise SteadyStateError(
            f"expansion models unusable at g tau_bar = {g_tau_bar} (cutoff {n} < 1)"
        )
    return n


def _log_ladder(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|p_n| and sign(p_n) of p_0 = 1, p_{n+1} = ratios[n] p_n, with the
    logs shifted so that the largest finite one is 0."""
    with np.errstate(divide="ignore"):
        logs = np.concatenate(([0.0], np.cumsum(np.log(np.abs(ratios)))))
    signs = np.concatenate(([1.0], np.cumprod(np.sign(ratios))))
    return logs - np.max(logs[np.isfinite(logs)]), signs


def recurrence_steady(
    ratio, space: TruncatedSpace, cutoff: int | None = None, tail_tol: float = 1e-10
) -> PhotonStatistics:
    """Solve p_{n+1} = ratio(n) p_n on the space, normalize by the signed sum.

    ratio may go negative (expansion models); products are accumulated in
    log space with separate sign tracking so long ladders cannot overflow.
    cutoff zeroes every p_n beyond it.
    """
    n_top = space.n_max if cutoff is None else min(cutoff, space.n_max)
    p = np.zeros(space.dim)
    if n_top == 0:
        p[0] = 1.0
        return PhotonStatistics(p=p, n_cut=cutoff, converged=True)
    logs, signs = _log_ladder(np.asarray(ratio(np.arange(n_top)), dtype=float))
    filled = signs * np.exp(logs)
    norm = filled.sum()
    if not norm > 0:
        raise SteadyStateError(
            f"signed distribution weight {norm:g} is not positive; "
            "the recurrence does not define a normalizable state here"
        )
    filled /= norm
    p[: n_top + 1] = filled
    negative = tuple((int(n), float(v)) for n, v in enumerate(filled) if v < 0)
    if cutoff is not None and cutoff <= space.n_max:
        converged = True
    else:
        # occupancy of the top level, matching the choose_truncation criterion
        converged = bool(abs(filled[-1]) <= tail_tol)
    return PhotonStatistics(p=p, n_cut=cutoff, negative=negative, converged=converged)


def choose_truncation(
    model,
    kappa: float,
    tail_tol: float = 1e-10,
    start: int = 16,
    hard_cap: int = 4096,
) -> TruncatedSpace:
    """Smallest n_max whose steady distribution has p_{n_max} < tail_tol.

    Expansion models (weak_lindblad, post4) are pinned to expansion_cutoff
    instead: their tails are artifacts of the truncated series.  Everything
    else grows the ladder by doubling until the tail criterion is met.
    """
    from .models import POST4, WEAK  # local import keeps module cycle open

    if model.name in (WEAK, POST4):
        return TruncatedSpace(expansion_cutoff(model.params.g_tau_bar))
    ratio = model.gain_ratio(kappa)
    n_max = start
    while n_max <= hard_cap:
        ratios = np.asarray(ratio(np.arange(n_max)), dtype=float)
        u = np.exp(_log_ladder(ratios)[0])
        # lower levels may underflow to 0, so compare without dividing
        ok = u < tail_tol * np.cumsum(u)
        if ok[-1] and ratios[-1] < 1.0:
            return TruncatedSpace(int(np.argmax(ok)))
        n_max *= 2
    raise SteadyStateError(
        f"no truncation below {hard_cap} resolves the distribution tail"
    )


def nullspace_steady(
    generator: Superoperator,
    zero_tol: float = 1e-10,
    gap_tol: float = 1e-8,
    return_info: bool = False,
):
    """Steady density matrix from the eigenvector of the dense generator
    with the smallest |eigenvalue|; Hermitized and trace normalized.

    The generator's nonzero pattern splits it into decoupled blocks (one per
    offset n - m for the phase-covariant models here).  Each block gets its
    own dense eig, and the spectrum is the union of theirs; a matrix that no
    zero entry splits is one block and gets one full eig.  The chosen block
    eigenvector, zero on every other block, is the steady state.

    Raises SteadyStateError when no eigenvalue sits within zero_tol times
    the Frobenius norm, and DegenerateSteadyStateError when a second one
    sits within gap_tol times the norm (no unique steady state).
    """
    # imported here: at module level it would add 30-50 ms to every `import micromaser`
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    mat = generator.matrix
    scale = np.linalg.norm(mat)
    # a sparse pattern: csgraph reads a dense one through masked arrays, ~3x slower
    n_blocks, labels = connected_components(csr_array(mat != 0), connection="weak")
    members = np.argsort(labels, kind="stable")  # block 0's indices, then 1's, ...
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=n_blocks))))
    solved = [
        scipy.linalg.eig(mat[np.ix_(idx, idx)]) for idx in np.split(members, starts[1:-1])
    ]
    lam = np.concatenate([block_lam for block_lam, _ in solved])
    order = np.argsort(np.abs(lam))
    smallest = abs(lam[order[0]])
    if smallest > zero_tol * scale:
        raise SteadyStateError(
            f"smallest |eigenvalue| {smallest:.3e} exceeds "
            f"{zero_tol:g} * ||S|| = {zero_tol * scale:.3e}"
        )
    if len(lam) > 1 and abs(lam[order[1]]) <= gap_tol * scale:
        raise DegenerateSteadyStateError(
            f"second eigenvalue {abs(lam[order[1]]):.3e} also lies within "
            f"{gap_tol:g} * ||S||; steady state is not unique"
        )
    # entry order[0] of lam is column order[0] - first of its block's vectors;
    # complex only if some block is, as one full eig would return it
    block = labels[members[order[0]]]
    first, stop = starts[block], starts[block + 1]
    steady = np.zeros(len(lam), dtype=np.result_type(*(v for _, v in solved)))
    steady[members[first:stop]] = solved[block][1][:, order[0] - first]
    rho = unvec(steady, generator.space)
    rho = 0.5 * (rho + rho.conj().T)
    trace = float(np.trace(rho).real)
    if abs(trace) < 1e-12 * np.linalg.norm(rho) * rho.shape[0]:
        raise SteadyStateError("nullspace vector is traceless; not a state")
    rho = rho / trace
    if return_info:
        info = {
            "eigenvalue": complex(lam[order[0]]),
            "gap": float(abs(lam[order[1]])) if len(lam) > 1 else np.inf,
            "norm": float(scale),
        }
        return rho, info
    return rho
