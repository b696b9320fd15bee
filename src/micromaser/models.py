"""Master-equation models for the pumped cavity on a truncated Fock space.

Five generators share the same loss term kappa D[a] and differ in how the
atom-induced gain is treated:

  exact            measure-averaged pump, all orders in g tau
  post4            fourth-order expansion of the average (not Lindblad)
  weak_lindblad    weak-coupling series on orthonormal time polynomials,
                   any order up to 64 (closed form at the default 3)
  uniform_lindblad all-orders Lindblad set from degree-0/1/2 projections
  heuristic        single saturated-gain Lindblad operator

Every one of them commutes with the phase rotation exp(i theta a* a), so it
acts on rho_{m,n} one band m - n at a time and is fixed by two pair
functions:

  feed      F(m, n)  rate at which rho_{m,n} feeds rho_{m+1,n+1}
  dephasing H(m, n)  extra decay of rho_{m,n}, zero when m = n

With g_n = F(n, n) below the top level and 0 at n_max (gain out of the
space is truncated, which keeps the generator trace preserving),

  (L rho)_{mn} = [H(m,n) - (g_m + g_n)/2 - kappa (m + n)/2] rho_{mn}
                 + F(m-1, n-1) rho_{m-1,n-1}
                 + kappa sqrt((m+1)(n+1)) rho_{m+1,n+1}.

GeneratorModel derives everything else from F and H: the detailed-balance
ratio F(n, n) / (kappa (n+1)), `apply_band` (the generator on one band
rho_{m,m+k} as a vector, O(n_max)), the matrix-free `apply` (evaluated only
at the nonzero entries of a density matrix) and the dense `assemble`.  The
CLI linewidth needs only the offset-1 band of a diagonal state, so it runs
on `apply_band` in O(n_max) time and memory.  A Lindblad model with
one-quantum gain operators S_k (first subdiagonal s_k) and diagonal
operators diag(c_k) has F = sum_k s_k(m) s_k(n) and
H = -sum_k (c_k(m) - c_k(n))^2 / 2; it keeps only those O(n_max) vectors.

Each model states its truncation rule in `cutoff`: the series models (post4,
weak_lindblad) hold up to expansion_cutoff, the others have a physical tail.

The independent dense references live in `oracle`, which no product module
imports: the explicit operator lists (`oracle.lindblad_ops(model)`, built
from those vectors and summed through `oracle.dissipator_matrix`), the
series generators `fourth_order_generator` and `sixth_order_superoperator`,
and `oracle.averaged_pump_superoperator`.

Polynomial occurrences of a a* in the series models use the plain truncated
product (zero at the top entry) so that expansion identities and trace
preservation hold exactly on the whole space; diagonal operator functions
(cos, sinc, rational kernels) act with the exact eigenvalues n+1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock import TruncatedSpace
from .measures import MAX_DEGREE, OrthoBasis, TimeMeasure, expansion_coeffs
from .pump import PumpParameters, cos_cos_average, scalar_rate, sin_sin_average
from .superop import Superoperator

EXACT = "exact"
POST4 = "post4"
WEAK = "weak_lindblad"
UNIFORM = "uniform_lindblad"
HEURISTIC = "heuristic"

MODEL_NAMES = (EXACT, POST4, WEAK, UNIFORM, HEURISTIC)


@dataclass(frozen=True)
class ExactPump:
    """Pair functions of the measure-averaged pump.

    They are those of the average of the instantaneous dissipators of the
    cosine/gain split, which agrees with r <M_tau - 1> everywhere except the
    top-level column, where it reflects instead of leaking: the result is
    trace preserving on the whole truncated space.
    """

    r: float
    g_tau_bar: float
    measure: TimeMeasure

    def _alpha(self, n):
        return self.g_tau_bar * np.sqrt(np.asarray(n, dtype=float) + 1.0)

    def feed(self, m, n):
        return self.r * sin_sin_average(self.measure, self._alpha(m), self._alpha(n))

    def dephasing(self, m, n):
        am, an = self._alpha(m), self._alpha(n)
        cc = functools.partial(cos_cos_average, self.measure)
        return self.r * (cc(am, an) - 0.5 * (cc(am, am) + cc(an, an)))


@dataclass(frozen=True)
class FourthOrderPump:
    """Pump expanded to fourth order in g tau: linear gain A with quartic
    correction B; not of Lindblad form (!), kept for comparison."""

    gain: float
    quartic: float
    n_max: int

    def feed(self, m, n):
        ym = np.asarray(m, dtype=float) + 1.0
        yn = np.asarray(n, dtype=float) + 1.0
        root = np.sqrt(ym * yn)
        return self.gain * root - 2.0 * self.quartic * (root * (ym + yn))

    def dephasing(self, m, n):
        # P = a a* with the truncated zero at the top entry
        pm, pn = (np.where(np.asarray(k) < self.n_max, k + 1.0, 0.0) for k in (m, n))
        return -1.5 * self.quartic * (pm - pn) ** 2


@dataclass
class GeneratorModel:
    """One gain treatment bound to a space, in the band normal form.

    feed(m, n) and dephasing(m, n) are the model's pair functions (see the
    module docstring); feed holds at any level n, which is what truncation
    searches extrapolate with.  lindblad, given for a manifestly Lindblad
    model, holds (rate, gain_elements, diagonals, merge) as passed to
    `_lindblad_model`: the O(n_max) data from which `oracle.lindblad_ops`
    builds its pump-side Lindblad operators.  cutoff is the last level a
    series model is valid at, None for a model whose tail is physical.
    """

    name: str
    space: TruncatedSpace
    params: PumpParameters | None
    feed: Callable
    dephasing: Callable
    lindblad: tuple | None = None
    cutoff: int | None = None

    @property
    def manifest_lindblad(self) -> bool:
        return self.lindblad is not None

    def _require_one_pump(self) -> None:
        """ValueError for a model built on a (P, 1) column of pump values:
        its band functions have one row per pump, and the dense forms (apply,
        assemble, oracle.lindblad_ops) act at one pump value."""
        scalar_rate(self.gain_fn(0))

    def gain_fn(self, n):
        """One-quantum gain rate F(n, n) out of level n, for any n."""
        n = np.asarray(n, dtype=float)
        return self.feed(n, n)

    def gain_ratio(self, kappa: float):
        """Detailed-balance ratio p_{n+1}/p_n = F(n, n) / (kappa (n+1))."""
        if kappa <= 0:
            raise ValueError("kappa must be positive")

        def ratio(n):
            n = np.asarray(n, dtype=float)
            return self.gain_fn(n) / (kappa * (n + 1.0))

        return ratio

    def _moves(self, m: np.ndarray, n: np.ndarray, kappa: float) -> tuple:
        """The generator on the entries (m, n), as (sources, level shift of
        their target, rate) per move: decay in place, feed one level up,
        loss one level down."""
        top = self.space.n_max
        gain_out = self.gain_fn(np.arange(top + 1))
        gain_out[..., top] = 0.0  # gain out of the top level is truncated
        decay = self.dephasing(m, n) - 0.5 * (
            gain_out[..., m] + gain_out[..., n] + kappa * (m + n)
        )
        up = (m < top) & (n < top)
        down = (m > 0) & (n > 0)
        return (
            (slice(None), 0, decay),
            (up, 1, self.feed(m[up], n[up])),
            (down, -1, kappa * np.sqrt(m[down] * n[down])),
        )

    def apply_band(self, band: np.ndarray, k: int, kappa: float) -> np.ndarray:
        """Generator action on the band rho_{m,m+k}, given and returned as a
        vector over the rows m of that band in increasing order (or one such
        vector per pump row of the model, along the last axis).  The
        generator keeps every band to itself, so this costs O(n_max).

        It reads only F and H, not the moves `assemble` scatters: in band k
        only the first entry has m = 0 or n = 0 and only the last has m or
        n = n_max, so loss leaves every entry but the first and feed every
        entry but the last, and each move is one slice."""
        band = np.asarray(band)
        m = np.arange(max(0, -k), self.space.dim - max(0, k))
        if band.shape[-1:] != m.shape:
            raise ValueError(f"band {k} holds {m.size} entries, got shape {band.shape}")
        n = m + k
        gain_out = self.gain_fn(np.arange(self.space.dim))
        gain_out[..., -1] = 0.0  # gain out of the top level is truncated
        decay = self.dephasing(m, n) - 0.5 * (
            gain_out[..., m] + gain_out[..., n] + kappa * (m + n)
        )
        out = np.zeros(band.shape, dtype=np.result_type(band.dtype, float))
        out += decay * band
        out[..., 1:] += self.feed(m[:-1], n[:-1]) * band[..., :-1]
        out[..., :-1] += kappa * np.sqrt(m[1:] * n[1:]) * band[..., 1:]
        return out

    def apply(self, rho: np.ndarray, kappa: float) -> np.ndarray:
        """Generator action on a density matrix.  F and H are evaluated only
        at the nonzero entries of rho, so one band costs O(n_max) beyond the
        scan that finds them."""
        self._require_one_pump()
        rho = np.asarray(rho)
        m, n = np.nonzero(rho)
        vals = rho[m, n]
        out = np.zeros(rho.shape, dtype=np.result_type(rho.dtype, float))
        for sel, shift, rate in self._moves(m, n, kappa):
            out[m[sel] + shift, n[sel] + shift] += rate * vals[sel]
        return out


def assemble(model: GeneratorModel, kappa: float) -> Superoperator:
    """Dense generator: the model's band coefficients plus loss at rate kappa."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    model._require_one_pump()
    d = model.space.dim
    pos = np.arange(d * d)  # column-stacked vec index of the entry (m, n)
    m, n = pos % d, pos // d
    mat = np.zeros((d * d, d * d))
    for sel, shift, rate in model._moves(m, n, kappa):
        src = pos[sel]
        mat[src + shift * (d + 1), src] = rate
    return Superoperator(model.space, mat)


def expansion_cutoff(g_tau_bar: float) -> int:
    """Last level 0.2 / (g tau_bar)^2 of the series models: their gain turns
    negative near 0.25 / (g tau_bar)^2, and 80 percent of that keeps them
    inside their validity window.  Below 1 no level is valid."""
    if g_tau_bar <= 0:
        raise ValueError("g_tau_bar must be positive")
    return int(np.floor(0.2 / g_tau_bar**2))


def _lindblad_model(
    name: str,
    space: TruncatedSpace,
    params: PumpParameters | None,
    rate: float,
    gain_elements: Callable,
    diagonals: list,
    merge: bool = False,
    cutoff: int | None = None,
) -> GeneratorModel:
    """Model with Lindblad operators sqrt(rate) S_k and sqrt(rate) diag(c_k).

    gain_elements(n) returns the list of s_k(n) = <n+1|S_k|n>, valid at any
    level n; diagonals lists the vectors c_k on the levels of the space;
    merge asks the dense list to quadrature-sum proportional operators.
    """

    def feed(m, n):
        return rate * sum(sm * sn for sm, sn in zip(gain_elements(m), gain_elements(n)))

    def dephasing(m, n):
        zero = np.zeros(np.broadcast(m, n).shape)
        return -0.5 * rate * sum(((c[m] - c[n]) ** 2 for c in diagonals), zero)

    return GeneratorModel(
        name=name,
        space=space,
        params=params,
        feed=feed,
        dephasing=dephasing,
        lindblad=(rate, gain_elements, diagonals, merge),
        cutoff=cutoff,
    )


def _truncated_p(space: TruncatedSpace) -> np.ndarray:
    """Diagonal of the plain product a a*: n+1 with a zero at the top."""
    p = np.arange(1.0, space.dim + 1.0)
    p[-1] = 0.0
    return p


def exact_model(
    params: PumpParameters,
    space: TruncatedSpace,
    measure: TimeMeasure | None = None,
) -> GeneratorModel:
    """All-orders model from the measure averages of the pump split."""
    if measure is None:
        measure = TimeMeasure.exponential()
    pump = ExactPump(params.r, params.g_tau_bar, measure)
    return GeneratorModel(
        name=EXACT,
        space=space,
        params=params,
        feed=pump.feed,
        dephasing=pump.dephasing,
    )


def fourth_order_model(params: PumpParameters, space: TruncatedSpace) -> GeneratorModel:
    pump = FourthOrderPump(params.gain_rate, params.saturation_rate, space.n_max)
    return GeneratorModel(
        name=POST4,
        space=space,
        params=params,
        feed=pump.feed,
        dephasing=pump.dephasing,
        cutoff=expansion_cutoff(params.g_tau_bar),
    )


def weak_coupling_model(params: PumpParameters, space: TruncatedSpace) -> GeneratorModel:
    """Fourth-order-accurate Lindblad set for the exponential measure.

    Gain family (u = (g tau_bar)^2, P = a a*):
        S0 = sqrt(r) g tau_bar a* (1 - u P)
        S1 = -sqrt(r) g tau_bar a* (1 - 3 u P)
        S2 = sqrt(10 r) (g tau_bar)^3 a* P
    plus one diagonal operator sqrt(6 r) u P (identity part dropped), which
    leaves photon statistics alone and only widens the line.
    """
    gt, u = params.g_tau_bar, params.u

    def gain_elements(n):
        y = np.asarray(n, dtype=float) + 1.0  # eigenvalue of P below the top
        root = gt * np.sqrt(y)
        return [root * (1.0 - u * y), -root * (1.0 - 3.0 * u * y), math.sqrt(10.0) * u * root * y]

    diagonals = [-math.sqrt(6.0) * u * _truncated_p(space)]
    cutoff = expansion_cutoff(gt)
    return _lindblad_model(WEAK, space, params, params.r, gain_elements, diagonals, cutoff=cutoff)


def general_weak_model(
    params: PumpParameters,
    basis: OrthoBasis,
    order: int,
    space: TruncatedSpace,
) -> GeneratorModel:
    """Series-truncated Lindblad set for an arbitrary interaction-time measure.

    The cosine and gain parts of the pump split are expanded to `order` in
    g tau and projected onto the orthonormal polynomials of the measure:
    x^j = sum_k a_jk f_k turns each series coefficient into Lindblad
    operators C_k (diagonal, identity parts dropped) and S_k (one-quantum
    gain).  With the exponential measure and order 3 this reproduces the
    closed-form set of weak_coupling_model.
    """
    if not 1 <= order <= MAX_DEGREE:
        raise ValueError(f"series order must be in 1..{MAX_DEGREE}, got {order}")
    k_top = min(order, basis.degree)
    coeff_table = [expansion_coeffs(basis, j) for j in range(order + 1)]
    gt = params.g_tau_bar
    # per channel k: coefficients of P^m in C_k (even j) and in S_k / a* (odd j)
    c_polys, s_polys = [], []
    for k in range(k_top + 1):
        polys = (np.zeros(order // 2 + 1), np.zeros(order // 2 + 1))
        for j in range(max(k, 1), order + 1):  # j = 0 is the identity, dropped
            term = float(coeff_table[j][k]) * gt**j * (-1.0) ** (j // 2) / math.factorial(j)
            polys[j % 2][j // 2] += term
        c_polys.append(polys[0])
        s_polys.append(polys[1])
    s_polys = [s for s in s_polys if np.any(s)]
    p = _truncated_p(space)
    diagonals = [np.polynomial.polynomial.polyval(p, c) for c in c_polys if np.any(c)]

    def gain_elements(n):
        y = np.asarray(n, dtype=float) + 1.0
        return [np.sqrt(y) * np.polynomial.polynomial.polyval(y, s) for s in s_polys]

    cutoff = expansion_cutoff(gt)
    return _lindblad_model(
        WEAK, space, params, params.r, gain_elements, diagonals, merge=True, cutoff=cutoff
    )


def exponential_projections(alpha, k_max: int) -> list:
    """(<f_k cos(alpha x)>, <f_k sin(alpha x)>) over e^{-x} dx, k = 0..k_max:
    Re and Im of z0 w^k = (1 + i alpha)(-i alpha (1 + i alpha))^k / D^(k+1),
    D = 1 + alpha^2, in real arithmetic (D^(k+1) must stay finite)."""
    alpha = np.asarray(alpha, dtype=float)
    den = 1.0 + alpha**2
    re, im, scale = np.ones_like(alpha), alpha, den
    out = [(re / scale, im / scale)]
    for _ in range(k_max):
        # times (1 + i alpha), then -i alpha: this grouping keeps k <= 1
        # bitwise equal to 1/D, alpha/D, 2 alpha^2/D^2, -alpha (1 - alpha^2)/D^2
        re, im = re - alpha * im, im + alpha * re
        re, im = alpha * im, -alpha * re
        scale = scale * den
        out.append((re / scale, im / scale))
    return out


def uniform_model(
    params: PumpParameters,
    space: TruncatedSpace,
    order: int = 1,
) -> GeneratorModel:
    """All-orders Lindblad set from polynomial projections of the pump split.

    Exponential measure only.  The gain family keeps the sin projections of
    degree k <= order (0, 1 or 2), the cosine family those of degree
    k < max(1, order).  The identity part of each diagonal operator is dropped.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"uniform expansion order must be 0, 1 or 2, got {order}")
    g_tau_bar = params.g_tau_bar

    def gain_elements(n):
        alpha = g_tau_bar * np.sqrt(np.asarray(n, dtype=float) + 1.0)
        return [sin for _, sin in exponential_projections(alpha, order)]

    levels = np.arange(1, space.dim + 1, dtype=float)  # n+1 with exact top
    cos_k = exponential_projections(g_tau_bar * np.sqrt(levels), max(1, order) - 1)
    diagonals = [cos for cos, _ in cos_k]
    return _lindblad_model(UNIFORM, space, params, params.r, gain_elements, diagonals)


def heuristic_model(
    gain: float,
    beta: float,
    space: TruncatedSpace,
    ordering: str = "aa_dag",
) -> GeneratorModel:
    """Single saturated-gain operator sqrt(A) a* (1 + beta X)^(-1/2).

    X = a a* (default) places the saturation after the photon is added and
    reproduces the all-orders photon statistics when beta = 4 (g tau_bar)^2;
    X = a* a evaluates it before.  gain may be a (P, 1) column, one per pump.
    """
    if not (np.all((0.0 <= gain) & (gain < math.inf)) and 0.0 <= beta < math.inf):
        raise ValueError(f"gain and beta must be nonnegative and finite, got {gain}, {beta}")
    if ordering not in ("aa_dag", "a_dag_a"):
        raise ValueError(f"ordering must be 'aa_dag' or 'a_dag_a', got {ordering!r}")
    shift = 1.0 if ordering == "aa_dag" else 0.0

    def gain_elements(n):
        n = np.asarray(n, dtype=float)
        return [np.sqrt((n + 1.0) / (1.0 + beta * (n + shift)))]

    return _lindblad_model(HEURISTIC, space, None, gain, gain_elements, [])
