"""Moments, phase-diffusion linewidth, and distribution distances.

The linewidth is read off the initial decay of the field correlation:
with f(t) = tr[a* e^{St}(a rho_ss)] the generator fixes f'(0)/f(0) = -D/2,
so D = -2 Re tr[a* S(a rho_ss)] / <n>.  Every model's band is real (no
model is detuned), so for a real state f'(0) is real.
Loss alone gives D = kappa exactly, truncation notwithstanding, which the
tests lean on.  `linewidth` takes the assembled generator and a density
matrix; its independent check, `linewidth_fd`, takes the same quotient
through the phi1 series of (e^{S delta} - 1)/delta on that generator.  For
a diagonal state a rho_ss and its image fill only the offset-1 band, which
is all `band_derivatives` touches: given a model and one row of populations
per pump, it gives each row's f'(0) in O(n_max) time and memory, and
`linewidth_columns` turns those and the means into D; the pump axis
(steady.solve_pump_axis) runs the first per block, the second once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .fock import Superoperator
from .models import GeneratorModel, levels
from .pump import check_kappa, check_one_pump, check_rates


@dataclass(frozen=True)
class PhotonMoments:
    mean_n: float
    variance: float
    mandel_q: float


def _row_dots(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """vector @ row for each row, as it comes out alone.  A stack of 1 x w
    by w x 1 products reaches the same BLAS dot product per row that
    ndarray.dot does; rows @ vector would be one matrix-vector product,
    which sums in another order."""
    return np.matmul(rows[:, None, :], vector[:, None])[:, 0, 0]


def moment_sums(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<n> and <n^2> of each row of the 2-D populations p: one dot product
    per row with the level vectors n and n * n (models.levels), so each
    row's sums are bit for bit its own."""
    size = p.shape[1]
    held = levels(size)
    return _row_dots(held.n[:size], p), _row_dots(held.n2[:size], p)


def photon_columns(mean: np.ndarray, second: np.ndarray) -> tuple:
    """Mean, variance and Mandel Q, as columns, from the columns <n> and
    <n^2>.  The variance squares each mean with Python's float ** (NumPy's
    square differs from it in the last bit for some means), as pow mapped
    over the column."""
    variance = second - list(map(pow, mean.tolist(), repeat(2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        mandel_q = np.where(mean > 0, variance / mean - 1.0, math.nan)
    return mean, variance, mandel_q


def moment_columns(populations: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance and Mandel Q of each row of populations, as columns:
    moment_sums, then photon_columns, so every row is bit for bit what
    moments gives it alone."""
    return photon_columns(*moment_sums(np.atleast_2d(np.asarray(populations, dtype=float))))


def moments(p: np.ndarray) -> PhotonMoments:
    """Mean, variance and Mandel Q of a photon-number distribution.

    Q = variance / mean - 1 (0 for a Poissonian, negative sub-Poissonian);
    nan when the mean vanishes.  This is the one-row case of moment_columns.
    """
    check_one_pump(len(np.atleast_2d(p)) == 1, "populations", p)
    mean, variance, mandel_q = (float(column[0]) for column in moment_columns(p))
    return PhotonMoments(mean_n=mean, variance=variance, mandel_q=mandel_q)


def semiclassical_intensity(gain: float, kappa: float, beta: float) -> float:
    """Rate-equation photon number: gain clamps the saturated pump against
    the loss, (gain/kappa - 1)/beta above threshold and 0 below."""
    check_rates("gain", gain, None)
    check_kappa(kappa, zero=False)
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if gain <= kappa:
        return 0.0
    return (gain / kappa - 1.0) / beta


def distribution_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance of two distributions, each 1-D or one row
    (as moments takes them); the shorter array is zero padded."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, values in (("p", p), ("q", q)):
        check_one_pump(len(np.atleast_2d(values)) == 1, name, values)
    size = max(p.size, q.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.size] = p
    qq[: q.size] = q
    return 0.5 * float(np.abs(pp - qq).sum())


@dataclass(frozen=True)
class LinewidthResult:
    D: float
    normalized_D: float
    mean_n: float


MEAN_N_FLOOR = 1e-6


def _lower(rho: np.ndarray) -> np.ndarray:
    """a rho as a row shift, (a rho)_{mn} = sqrt(m+1) rho_{m+1,n}."""
    out = np.zeros(rho.shape, dtype=np.result_type(rho, float))
    out[:-1] = np.sqrt(np.arange(1.0, rho.shape[0]))[:, None] * rho[1:]
    return out


def _assembled(generator, rho_ss) -> np.ndarray:
    """rho_ss as the (d, d) array that the assembled generator acts on."""
    if not isinstance(generator, Superoperator):
        raise TypeError("a density matrix needs the assembled generator, assemble(model, kappa)")
    return generator._operand(rho_ss)


def _below_floor(mean_n: float) -> str:
    return f"mean photon number {mean_n:.3e} is below {MEAN_N_FLOOR:g}; the linewidth is undefined"


class LinewidthColumns(NamedTuple):
    """D and normalized_D per row, NaN where the linewidth is undefined;
    `undefined` maps each such row to the reason."""

    D: np.ndarray
    normalized_D: np.ndarray
    undefined: dict


def linewidth_columns(deriv: np.ndarray, mean_n: np.ndarray, kappa: float) -> LinewidthColumns:
    """D = -2 Re f'(0) / <n> and normalized_D of each row from its f'(0)
    (band_derivatives) and mean (moment_columns); undefined below
    MEAN_N_FLOOR."""
    low = mean_n < MEAN_N_FLOOR
    mean = np.where(low, math.nan, mean_n)
    d_rate = -2.0 * deriv.real / mean
    below = zip(np.flatnonzero(low).tolist(), mean_n[low].tolist())
    undefined = {i: _below_floor(m) for i, m in below}
    return LinewidthColumns(d_rate, d_rate * mean / kappa, undefined)


def _one_row(width: LinewidthColumns, mean_n: float) -> LinewidthResult:
    """The one row of width as a LinewidthResult; ValueError if undefined."""
    if width.undefined:
        raise ValueError(width.undefined[0])
    return LinewidthResult(
        D=float(width.D[0]),
        normalized_D=float(width.normalized_D[0]),
        mean_n=mean_n,
    )


def _dense_linewidth(image_fn, rho_ss: np.ndarray, kappa: float) -> LinewidthResult:
    """f'(0) = tr[a* X], where X = image_fn(a rho_ss), and <n>, of the state
    rho_ss / tr rho_ss: both sums are divided by the real trace, which
    leaves a unit-trace state's bits alone.  ValueError for a trace that is
    zero (to rounding, as nullspace_steady judges it) or not finite."""
    check_kappa(kappa, zero=False)
    trace = float(np.trace(rho_ss).real)
    if not (math.isfinite(trace) and abs(trace) >= 1e-12 * np.linalg.norm(rho_ss) * len(rho_ss)):
        raise ValueError(f"rho_ss has trace {trace}; a state needs a finite trace that is not zero")
    root = np.sqrt(np.arange(1.0, rho_ss.shape[0]))
    deriv = root @ np.diagonal(image_fn(_lower(rho_ss)), offset=1) / trace
    populations = np.real(np.diagonal(rho_ss))
    mean_n = float(populations @ np.arange(populations.size)) / trace
    return _one_row(linewidth_columns(np.array([deriv]), np.array([mean_n]), kappa), mean_n)


def band_derivatives(model: GeneratorModel, p: np.ndarray, kappa: float) -> np.ndarray:
    """f'(0) = tr[a* S(a diag(p))] for each row of the 2-D populations p,
    one per pump row of the model.  One apply_band serves every row; the
    dot products stay per row, so each row comes out bit for bit as it
    does alone."""
    check_kappa(kappa, zero=False)
    # (a diag(p))_{m,m+1} = sqrt(m+1) p_{m+1}; tr[a* X] sums sqrt(m+1) X_{m,m+1}
    root = levels(p.shape[1]).root[: p.shape[1] - 1]
    return _row_dots(root, model.apply_band(root * p[:, 1:], 1, kappa))


def linewidth(generator: Superoperator, rho_ss: np.ndarray, kappa: float) -> LinewidthResult:
    """Phase-diffusion rate D of the steady density matrix rho_ss, from the
    assembled generator (pump and loss together, `assemble`).
    normalized_D = D <n> / kappa is 1 for pure loss and tends to the
    interaction-free value far above threshold."""
    rho_ss = _assembled(generator, rho_ss)
    return _dense_linewidth(generator.apply, rho_ss, kappa)


def linewidth_fd(generator: Superoperator, rho_ss: np.ndarray, kappa: float) -> LinewidthResult:
    """First-difference variant on the assembled generator: S becomes
    (e^{S delta} - 1)/delta, delta = 1e-6 / ||S|| with ||S|| the Frobenius
    norm of its entries, through the series
    S + delta S^2/2 + delta^2 S^3/6 + delta^3 S^4/24 (no cancellation)."""
    rho_ss = _assembled(generator, rho_ss)
    norm = float(np.linalg.norm(generator.values))
    if norm == 0.0:
        raise ValueError("the generator is zero, so the step 1e-6 / ||S|| is undefined")
    delta = 1e-6 / norm

    def quotient(w):
        w = generator.apply(w)
        total = np.zeros_like(w)
        factor = 1.0
        for order in range(1, 5):
            factor /= order  # delta^{k-1} / k!
            total = total + factor * w
            if order < 4:
                w = delta * generator.apply(w)
        return total

    return _dense_linewidth(quotient, rho_ss, kappa)
