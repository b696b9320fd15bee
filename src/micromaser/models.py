"""Master-equation models for the pumped cavity on a truncated Fock space.

Five generators share the same loss term kappa D[a] and differ in how the
atom-induced gain is treated:

  exact            measure-averaged pump, all orders in g tau
  post4            fourth-order expansion of the average (not Lindblad)
  weak_lindblad    weak-coupling series on orthonormal time polynomials,
                   any order up to 64 (3 by default)
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
rho_{m,m+k} as a vector, O(n_max)), `assemble`, the nonzero entries of the
generator on column-stacked density matrices (at most three per column, so
O(n_max^2)), which the dense linewidths take, and `apply`, the assembled
generator's action on a density matrix.  The CLI linewidth needs only the
offset-1 band of a diagonal state, so it runs on `apply_band` in O(n_max)
time and memory.  A Lindblad model with one-quantum gain operators S_k
(first subdiagonal s_k) and diagonal operators diag(c_k) has
F = sum_k s_k(m) s_k(n) and H = -sum_k (c_k(m) - c_k(n))^2 / 2; it keeps
only the functions s_k and c_k.

The pump and the levels are split in every model.  F and H are each one
PairTerms, the one type for a pair function: a sum of terms
rate_t * level_t(y_m, y_n), where rate_t is a scalar (one pump) or one
value per pump, held as a (P, 1) column, and level_t a pump-free function
of the a a* eigenvalues y = n + 1 of the two levels, with its band tables.
exact has
F = r <sin sin> and H = r (...); the Lindblad models F = rate sum_k s s and
H = (-rate/2) sum_k (c_m - c_n)^2 (rate = A for heuristic); post4 has two
feed terms, A sqrt(y_m y_n) - 2B (...).  So one model serves a whole pump
axis: its level functions are evaluated once per band offset into a table
(band 0 on at least HARD_CAP levels at its first read, so every stage of
the truncation search slices it; another band on the length of its largest
block, which the linewidth band solves first), and each stage or block of
pumps slices the table and multiplies its own rate rows in last
(`GeneratorModel.at`, `ratio_rows`, `apply_band`).  Tables hold the exact
eigenvalues at every level; where H reads the truncated product a a*
(truncated_top), the term at the top level is applied to the block's last
band entry, as the truncated gain out of the top level is.  The vectors of
the levels alone (`levels`, and apply_band's `band_levels`) depend on no
model: one module table holds them, built once on at least HARD_CAP levels.

Each model states its truncation rule in `cutoff`: the series models (post4,
weak_lindblad) hold up to expansion_cutoff, the others have a physical tail.

MODELS is the one table of models (MODEL_NAMES its names): each name maps
to its constructor and the options the CLI takes, with their defaults.  The
CLI, the demos and the conformance tests read it, so a new model is one
entry plus its level functions.

The independent dense references live in `oracle`, which no product module
imports: the explicit operator lists (`oracle.lindblad_ops(model)`, built
from those functions and summed through `oracle.dissipator_matrix`), the
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
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fock import Superoperator, TruncatedSpace, is_integer, vec_entries
from .measures import MAX_DEGREE, OrthoBasis, TimeMeasure, build_basis, expansion_coeffs
from .pump import PumpParameters, check_g_tau_bar, check_kappa, check_rates
from .pump import cos_cos_average, scalar_rate, sin_sin_average

EXACT = "exact"
POST4 = "post4"
WEAK = "weak_lindblad"
UNIFORM = "uniform_lindblad"
HEURISTIC = "heuristic"


def _grown(cache: dict, key, length: int, build: Callable, least: int = 0) -> tuple:
    """The arrays build(np.arange(size)) held in cache[key], size >= length;
    a request past them builds on max(length, 2 * size, least) levels.
    build acts elementwise in the level, so callers read slices of them."""
    size, held = cache.get(key, (0, None))
    if held is None or size < length:
        size = max(length, 2 * size, least)
        held = build(np.arange(size))
        for array in held:
            array.flags.writeable = False  # callers hold slices of it
        cache[key] = (size, held)
    return held


HARD_CAP = 4096  # largest n_max the truncation search (steady) tries
_LEVELS = {}  # "levels" -> Levels, band width k -> band_levels, all on >= HARD_CAP levels


class Levels(NamedTuple):
    """Vectors of the levels n alone, as floats (levels)."""

    n: np.ndarray
    n2: np.ndarray  # n * n
    up: np.ndarray  # n + 1
    root: np.ndarray  # sqrt(n + 1), the matrix element <n|a|n + 1>


def level_vectors(n: np.ndarray) -> Levels:
    n = n.astype(float)
    return Levels(n, n * n, n + 1.0, np.sqrt(n + 1.0))


def band_levels(m: np.ndarray, k: int) -> tuple:
    """m + n and sqrt(m n) at the pairs (m, n = m + k) of band k: times kappa,
    loss out of rho_{m,n} and from it into rho_{m-1,n-1}."""
    return m + (m + k), np.sqrt(m * (m + k))


def levels(length: int) -> Levels:
    """level_vectors of at least `length` levels, held in _LEVELS."""
    return _grown(_LEVELS, "levels", length, level_vectors, HARD_CAP)


def _view(obj, **changes):
    """A shallow copy of obj with the attributes `changes` (cheaper than copy.copy)."""
    view = object.__new__(type(obj))
    view.__dict__.update(vars(obj), **changes)
    return view


def _pump_column(rate):
    """PairTerms' rule for a rate: a scalar is one pump and stays as it is;
    an array holds one value per pump, 1-D or a (P, 1) column, and is held
    as that column.  Any other shape is a ValueError."""
    if np.ndim(rate) == 0:
        return rate
    if np.shape(rate)[1:] not in ((), (1,)):
        raise ValueError(
            f"a rate holds one value per pump, 1-D or a (P, 1) column, got shape {np.shape(rate)}"
        )
    return np.reshape(rate, (-1, 1))


class PairTerms:
    """A pair function sum_t rates[t] * fn(y_m, y_n)[t], with its level tables.

    The pump enters only through rates, one per term: a scalar (one pump),
    or one value per pump, held as a (P, 1) column (_pump_column, checked
    once here, not again in the views); fn is pump free and returns one
    array per rate, reading the levels m and n only through their a a*
    eigenvalues y.  The rates are multiplied in last, so a row of a column
    of rates gives bit for bit what that rate alone gives.

    The table of band k holds fn at the pairs (i, i + k) with the exact
    eigenvalues y = level + 1, i = 0, 1, ...: built on the length first
    asked for (band 0 on at least HARD_CAP), a request past it evaluates fn
    once on twice the length it held (or the length asked for, if more), and
    every shorter one is a slice.  An entry's value does not depend on its
    position in the table, so a slice is what fn gives on that band alone.
    The views rows(idx) share the tables.
    """

    def __init__(self, rates: tuple, fn: Callable):
        self.rates = tuple(map(_pump_column, rates))
        self.fn = fn
        self.tables = {}  # k -> (length, one array per term)

    def __call__(self, ym, yn) -> np.ndarray:
        return functools.reduce(operator.add, map(operator.mul, self.rates, self.fn(ym, yn)))

    def band(self, k: int, length: int, top: tuple | None = None, start: int = 0) -> np.ndarray:
        """The pair function on the pairs (i, i + k) of band k, i from start
        up to length, read from its table; top, a pair (y_m, y_n) of
        one-entry arrays, replaces the eigenvalues of the last pair."""
        build = lambda i: tuple(self.fn(i + 1.0, i + 1.0 + k))
        # band 0 is built once on the search's levels: every stage slices it
        table = _grown(self.tables, k, length, build, 0 if k else HARD_CAP)
        levels = [t[start:length] for t in table]
        if top is not None:
            levels = [np.concatenate((t[:-1], end)) for t, end in zip(levels, self.fn(*top))]
        return functools.reduce(operator.add, map(operator.mul, self.rates, levels))

    def rows(self, idx) -> "PairTerms":
        """The terms at the pump rows idx, sharing these tables; a scalar
        rate stays as it is."""
        return _view(self, rates=tuple(r if np.ndim(r) == 0 else r[idx] for r in self.rates))


def _y(n) -> np.ndarray:
    """Eigenvalue n + 1 of a a* at the levels n."""
    return np.asarray(n, dtype=float) + 1.0


@dataclass
class GeneratorModel:
    """One gain treatment bound to a space, in the band normal form.

    feed_terms and dephasing_terms hold the pair functions F and H (see the
    module docstring) as pump-side rates times pump-free level functions of
    the a a* eigenvalues y of the two levels; feed(m, n) and dephasing(m, n)
    evaluate them, rates included.  F reads the exact eigenvalue y = n + 1
    at every level, which is what truncation searches extrapolate with.  H
    does too, unless truncated_top is set: then it reads the truncated
    product a a*, whose eigenvalue at the top level of the space is 0.
    lindblad, given for a manifestly Lindblad model, holds the pair
    (gain_elements, diagonals) passed to `_lindblad_model`: the level
    functions from which `oracle.lindblad_ops` builds its pump-side Lindblad
    operators.  cutoff is the last level a series model is valid at, None
    for a model whose tail is physical.

    A model built on one rate per pump has one row per pump.
    `at(rows, space)` is the model of some of them on another space: it
    shares the level tables, so the level functions are evaluated once per
    model and band however many blocks read them.
    """

    name: str
    space: TruncatedSpace
    params: PumpParameters | None
    feed_terms: PairTerms
    dephasing_terms: PairTerms
    truncated_top: bool = False
    lindblad: tuple | None = None
    cutoff: int | None = None

    def _require_one_pump(self) -> None:
        """ValueError for a model built on an array of pump values, even of
        one: its band functions have one row per pump, and the dense forms
        (apply, assemble, oracle.lindblad_ops) act at one scalar pump value.
        Only the rates carry the pump, so only their shapes are read."""
        for rate in self.feed_terms.rates + self.dephasing_terms.rates:
            scalar_rate(rate)

    def pump_count(self) -> int:
        """The number of pumps its rates hold: the length of each array rate
        (a (P, 1) column by PairTerms' rule), or 1 where every rate is a
        scalar.  Rates of two lengths are a ValueError: no pump axis."""
        rates = self.feed_terms.rates + self.dephasing_terms.rates
        pumps, *more = held = sorted({len(rate) for rate in rates if np.ndim(rate)} or {1})
        if more:
            raise ValueError(f"the model's rates hold {held} pump rows, not one pump axis")
        return pumps

    def at(self, rows, space: TruncatedSpace) -> "GeneratorModel":
        """The model at its pump rows `rows` (an index array) on `space`,
        sharing this model's level tables."""
        return _view(
            self,
            space=space,
            feed_terms=self.feed_terms.rows(rows),
            dephasing_terms=self.dephasing_terms.rows(rows),
        )

    def diagonal_y(self, n) -> np.ndarray:
        """The a a* eigenvalues that H reads at the levels n of the space."""
        y = _y(n)
        return np.where(np.asarray(n) < self.space.n_max, y, 0.0) if self.truncated_top else y

    def feed(self, m, n):
        """F(m, n), the rate at which rho_{m,n} feeds rho_{m+1,n+1}."""
        return self.feed_terms(_y(m), _y(n))

    def dephasing(self, m, n):
        """H(m, n), the extra decay of rho_{m,n}."""
        return self.dephasing_terms(self.diagonal_y(m), self.diagonal_y(n))

    def gain_fn(self, n):
        """One-quantum gain rate F(n, n) out of level n, for any n."""
        n = np.asarray(n, dtype=float)
        return self.feed(n, n)

    def gain_ratio(self, kappa: float):
        """Detailed-balance ratio p_{n+1}/p_n = F(n, n) / (kappa (n+1))."""
        check_kappa(kappa, zero=False)

        def ratio(n):
            n = np.asarray(n, dtype=float)
            return self.gain_fn(n) / (kappa * (n + 1.0))

        return ratio

    def ratio_rows(self, kappa: float, length: int, start: int = 0, rows=None) -> np.ndarray:
        """gain_ratio(kappa) at the levels start..length-1, one row per pump
        row (or per row of the index array rows), read from the level table
        of band 0.  A ratio past the float range is inf (or NaN), with no
        warning: the steady solve fails its cell, naming that ratio."""
        check_kappa(kappa, zero=False)
        loss = kappa * levels(length).up[start:length]
        terms = self.feed_terms if rows is None else self.feed_terms.rows(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.atleast_2d(terms.band(0, length, start=start) / loss)

    def apply_band(self, band: np.ndarray, k: int, kappa: float) -> np.ndarray:
        """Generator action on the band rho_{m,m+k}, given and returned as a
        vector over the rows m of that band in increasing order (or one such
        vector per pump row of the model, along the last axis).  The
        generator keeps every band to itself, so this costs O(n_max).

        It reads F and H from the level tables of band |k| (both are
        symmetric in m and n), with the truncated top of H applied to the
        last entry, not the moves `assemble` scatters: in band k only the
        first entry has m = 0 or n = 0 and only the last has m or n = n_max,
        so loss leaves every entry but the first and feed every entry but
        the last, and each move is one slice.  The level factors of loss,
        band_levels of band |k|, are held in _LEVELS."""
        check_kappa(kappa, zero=True)
        band = np.asarray(band)
        dim, width = self.space.dim, abs(k)
        size = max(0, dim - width)
        if band.shape[-1:] != (size,):
            raise ValueError(f"band {k} holds {size} entries, got shape {band.shape}")
        # band -k holds the values of band k, entry by entry
        build = functools.partial(band_levels, k=width)
        pair_sum, pair_root = _grown(_LEVELS, width, size, build, HARD_CAP)
        gain_out = self.feed_terms.band(0, dim)
        gain_out[..., -1] = 0.0  # gain out of the top level is truncated
        top = None
        if self.truncated_top and size:
            top = (self.diagonal_y([size - 1]), self.diagonal_y([dim - 1]))
        decay = self.dephasing_terms.band(width, size, top) - 0.5 * (
            gain_out[..., :size] + gain_out[..., width:] + kappa * pair_sum[:size]
        )
        out = np.zeros(band.shape, dtype=np.result_type(band.dtype, float))
        out += decay * band
        out[..., 1:] += self.feed_terms.band(width, max(0, size - 1)) * band[..., :-1]
        out[..., :-1] += kappa * pair_root[1:size] * band[..., 1:]
        return out

    def apply(self, rho: np.ndarray, kappa: float) -> np.ndarray:
        """Generator action on a density matrix: the action of
        assemble(self, kappa)."""
        return assemble(self, kappa).apply(rho)


def assemble(model: GeneratorModel, kappa: float) -> Superoperator:
    """The generator on column-stacked density matrices: the model's band
    coefficients plus loss at rate kappa, as the entries (target, source,
    rate) of its three moves, at most three per column: decay in place,
    feed one level up, loss one level down."""
    check_kappa(kappa, zero=True)
    model._require_one_pump()
    d, top = model.space.dim, model.space.n_max
    pos = np.arange(d * d)
    m, n = vec_entries(d)
    gain_out = model.gain_fn(np.arange(d))
    gain_out[top] = 0.0  # gain out of the top level is truncated
    decay = model.dephasing(m, n) - 0.5 * (gain_out[m] + gain_out[n] + kappa * (m + n))
    up = (m < top) & (n < top)
    down = (m > 0) & (n > 0)
    return Superoperator(
        model.space,
        np.concatenate((pos, pos[up] + d + 1, pos[down] - d - 1)),
        np.concatenate((pos, pos[up], pos[down])),
        np.concatenate((decay, model.feed(m[up], n[up]), kappa * np.sqrt(m[down] * n[down]))),
    )


def expansion_cutoff(g_tau_bar: float) -> int:
    """Last level 0.2 / (g tau_bar)^2 of the series models: their gain turns
    negative near 0.25 / (g tau_bar)^2, and 80 percent of that keeps them
    inside their validity window.  Below 1 no level is valid."""
    check_g_tau_bar(g_tau_bar)
    return int(np.floor(0.2 / g_tau_bar**2))


def _lindblad_model(
    name: str,
    space: TruncatedSpace,
    params: PumpParameters | None,
    rate,
    gain_elements: Callable,
    diagonals: Callable,
    truncated_top: bool = False,
    cutoff: int | None = None,
) -> GeneratorModel:
    """Model with Lindblad operators sqrt(rate) S_k and sqrt(rate) diag(c_k):
    F = rate sum_k s_k(m) s_k(n), H = (-rate/2) sum_k (c_k(m) - c_k(n))^2.

    gain_elements(y) returns the list of s_k(n) = <n+1|S_k|n> and
    diagonals(y) the list of c_k(n), both as functions of the eigenvalue y
    of a a* at level n; truncated_top makes the diagonals read the truncated
    product a a* (see GeneratorModel).  GeneratorModel.lindblad keeps the
    pair (gain_elements, diagonals).
    """

    def feed(ym, yn):
        return (sum(sm * sn for sm, sn in zip(gain_elements(ym), gain_elements(yn))),)

    def dephasing(ym, yn):
        zero = np.zeros(np.broadcast(ym, yn).shape)
        return (sum(((cm - cn) ** 2 for cm, cn in zip(diagonals(ym), diagonals(yn))), zero),)

    return GeneratorModel(
        name=name,
        space=space,
        params=params,
        feed_terms=PairTerms((rate,), feed),
        dephasing_terms=PairTerms((-0.5 * rate,), dephasing),
        truncated_top=truncated_top,
        lindblad=(gain_elements, diagonals),
        cutoff=cutoff,
    )


def exact_model(
    params: PumpParameters,
    space: TruncatedSpace,
    measure: TimeMeasure | None = None,
) -> GeneratorModel:
    """All-orders model from the measure averages of the pump split.

    Its pair functions are those of the average of the instantaneous
    dissipators of the cosine/gain split, F = r <sin sin> and
    H = r (<cos cos>(m, n) - (<cos cos>(m, m) + <cos cos>(n, n)) / 2) at the
    arguments g tau_bar sqrt(y) x.  That agrees with r <M_tau - 1>
    everywhere except the top-level column, where it reflects instead of
    leaking: the result is trace preserving on the whole truncated space.
    """
    if measure is None:
        measure = TimeMeasure.exponential()
    g_tau_bar = params.g_tau_bar

    def feed(ym, yn):
        return (sin_sin_average(measure, g_tau_bar * np.sqrt(ym), g_tau_bar * np.sqrt(yn)),)

    def dephasing(ym, yn):
        am, an = g_tau_bar * np.sqrt(ym), g_tau_bar * np.sqrt(yn)
        cc = functools.partial(cos_cos_average, measure)
        return (cc(am, an) - 0.5 * (cc(am, am) + cc(an, an)),)

    return GeneratorModel(
        name=EXACT,
        space=space,
        params=params,
        feed_terms=PairTerms((params.r,), feed),
        dephasing_terms=PairTerms((params.r,), dephasing),
    )


def fourth_order_model(params: PumpParameters, space: TruncatedSpace) -> GeneratorModel:
    """Pump expanded to fourth order in g tau: linear gain A with quartic
    correction B; not of Lindblad form (!), kept for comparison.
    F = A sqrt(y_m y_n) - 2B sqrt(y_m y_n) (y_m + y_n) and
    H = -1.5 B (y_m - y_n)^2, where H reads the truncated product a a*."""

    def feed(ym, yn):
        root = np.sqrt(ym * yn)
        return root, root * (ym + yn)

    def dephasing(ym, yn):
        return ((ym - yn) ** 2,)

    gain, quartic = params.gain_rate, params.saturation_rate
    return GeneratorModel(
        name=POST4,
        space=space,
        params=params,
        feed_terms=PairTerms((gain, -2.0 * quartic), feed),
        dephasing_terms=PairTerms((-1.5 * quartic,), dephasing),
        truncated_top=True,
        cutoff=expansion_cutoff(params.g_tau_bar),
    )


def check_series_order(order) -> None:
    """The rule for the weak-coupling series order: an integer in 1..MAX_DEGREE,
    the degrees an OrthoBasis reaches."""
    if not (is_integer(order) and 1 <= order <= MAX_DEGREE):
        raise ValueError(f"series order must be an integer in 1..{MAX_DEGREE}, got {order!r}")


def general_weak_model(
    params: PumpParameters, basis: OrthoBasis, order: int, space: TruncatedSpace
) -> GeneratorModel:
    """Series-truncated Lindblad set for an arbitrary interaction-time measure.

    The cosine and gain parts of the pump split are expanded to `order` in
    g tau and projected onto the orthonormal polynomials of the measure:
    x^j = sum_k a_jk f_k turns each series coefficient into Lindblad
    operators C_k (diagonal, identity parts dropped) and S_k (one-quantum
    gain).  weak_coupling_model, the table's weak_lindblad, is this series
    on the exponential measure.
    """
    check_series_order(order)
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
    c_polys = [c for c in c_polys if np.any(c)]

    def gain_elements(y):
        return [np.sqrt(y) * np.polynomial.polynomial.polyval(y, s) for s in s_polys]

    def diagonals(y):
        return [np.polynomial.polynomial.polyval(y, c) for c in c_polys]

    return _lindblad_model(
        WEAK,
        space,
        params,
        params.r,
        gain_elements,
        diagonals,
        truncated_top=True,
        cutoff=expansion_cutoff(gt),
    )


def weak_coupling_model(params: PumpParameters, space: TruncatedSpace, order=3) -> GeneratorModel:
    """The weak-coupling series to `order` on the exponential measure:
    general_weak_model on that measure's basis, built per call.

    At order 3 this is the fourth-order-accurate Lindblad set: gain
    operators a* times polynomials of degree 1 in P = a a*, whose generator
    carries the quartic expansion plus a sixth-order remainder, and one
    diagonal operator proportional to u P (u = (g tau_bar)^2, identity part
    dropped), which leaves photon statistics alone and only widens the line.
    """
    check_series_order(order)  # before the basis can name it a degree
    return general_weak_model(params, build_basis(TimeMeasure.exponential(), order), order, space)


# MODELS' weak builder: weak_coupling_model under a private name that wrappers of the
# public names (a tracer counting builds) leave alone, so a build counts once, as general_weak_model
_weak_series = weak_coupling_model


def exponential_projections(alpha, k_max: int) -> list:
    """(<f_k cos(alpha x)>, <f_k sin(alpha x)>) over e^{-x} dx, k = 0..k_max:
    Re and Im of z0 w^k = (1 + i alpha)(-i alpha (1 + i alpha))^k / D^(k+1),
    D = 1 + alpha^2, in real arithmetic.  Neither exceeds
    |z0 w^k| / D^(k+1) = alpha^k / D^((k+1)/2) < 1/alpha, and where D^(k+1)
    passes the float range (alpha past 2e51 at k = 2) both are taken as
    their limit, 0."""
    alpha = np.asarray(alpha, dtype=float)

    def projection(re, im, scale):
        return tuple(np.where(np.isinf(scale), 0.0, part / scale) for part in (re, im))

    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: the limit
        den = 1.0 + alpha**2
        re, im, scale = np.ones_like(alpha), alpha, den
        out = [projection(re, im, scale)]
        for _ in range(k_max):
            # times (1 + i alpha), then -i alpha: this grouping keeps k <= 1
            # bitwise equal to 1/D, alpha/D, 2 alpha^2/D^2, -alpha (1 - alpha^2)/D^2
            re, im = re - alpha * im, im + alpha * re
            re, im = alpha * im, -alpha * re
            scale = scale * den
            out.append(projection(re, im, scale))
    return out


def uniform_model(params: PumpParameters, space: TruncatedSpace, order=1) -> GeneratorModel:
    """All-orders Lindblad set from polynomial projections of the pump split.

    Exponential measure only.  The gain family keeps the sin projections of
    degree k <= order (0, 1 or 2), the cosine family those of degree
    k < max(1, order).  The identity part of each diagonal operator is
    dropped; the diagonals read a a* with its exact top eigenvalue.
    """
    if not (is_integer(order) and order in (0, 1, 2)):  # True == 1 and 2.0 == 2
        raise ValueError(f"uniform expansion order must be 0, 1 or 2, got {order!r}")
    g_tau_bar = params.g_tau_bar

    def gain_elements(y):
        return [sin for _, sin in exponential_projections(g_tau_bar * np.sqrt(y), order)]

    def diagonals(y):
        cos_k = exponential_projections(g_tau_bar * np.sqrt(y), max(1, order) - 1)
        return [cos for cos, _ in cos_k]

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
    X = a* a evaluates it before.  gain may hold one value per pump.
    """
    check_rates("gain", gain, None)  # names one value, not the whole pump column
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    if ordering not in ("aa_dag", "a_dag_a"):
        raise ValueError(f"ordering must be 'aa_dag' or 'a_dag_a', got {ordering!r}")
    shift = 0.0 if ordering == "aa_dag" else 1.0  # eigenvalue of X is y - shift

    def gain_elements(y):
        return [np.sqrt(y / (1.0 + beta * (y - shift)))]

    return _lindblad_model(HEURISTIC, space, None, gain, gain_elements, lambda y: [])


def heuristic_from_pump(params, space, gain=None, beta=None, ordering="aa_dag") -> GeneratorModel:
    """heuristic_model at gain A and beta 4 (g tau_bar)^2, exact's photon
    statistics, unless given; a given gain holds at every pump."""
    gain = params.gain_rate if gain is None else np.full(np.shape(params.r), gain)
    beta = 4.0 * params.u if beta is None else beta
    return heuristic_model(gain, beta, space, ordering=ordering)


@dataclass(frozen=True)
class ModelRecord:
    """One model of MODELS: the function of this module named `builder`
    makes it, build(params, space, **options), on one pump or a pump axis;
    options maps each option the CLI takes to its default, None for a real
    number that the pump sets."""

    builder: str
    options: dict

    def build(self, params, space, **options) -> GeneratorModel:
        # looked up per call, so that a patched module attribute is the one called
        return globals()[self.builder](params, space, **options)


MODELS = {
    EXACT: ModelRecord("exact_model", {}),
    POST4: ModelRecord("fourth_order_model", {}),
    WEAK: ModelRecord("_weak_series", {"order": 3}),
    UNIFORM: ModelRecord("uniform_model", {"order": 1}),
    HEURISTIC: ModelRecord("heuristic_from_pump", dict(gain=None, beta=None, ordering="aa_dag")),
}
MODEL_NAMES = tuple(MODELS)
