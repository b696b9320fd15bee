"""Independent dense references that the tests compare with the band route
and `assemble`; no module of the package imports this one, the package
namespace included, so its readers import it as `micromaser.oracle`.
Operators, density checks, the single-atom map and its Kraus sets, the
averaged pump, Lindblad operator lists and the series generators, as
explicit matrices; `from_matrix` takes a generator's matrix, dense or
sparse, into the entries that a `fock.Superoperator` holds.

vec(rho) stacks columns (Fortran order, `fock.vec`), so A rho B maps to
(B^T kron A) vec(rho) and L rho L* to (conj(L) kron L); kron products are
formed sparse.

Not every check here is independent of the band route.  `models.assemble`
scatters the generator's moves into entries (`apply` is their action),
while `apply_band` takes each move as a slice of the band, but both read
the same pair functions F and H (the model's level functions and rates,
evaluated directly where `apply_band` slices their tables), so a wrong F
or H passes a comparison of them.  The Lindblad operator lists are built
from the same level functions too.  What checks F and H themselves is the
comparison with the operators built here from first principles: the
averaged pump superoperator, the Kraus sets and the kron formula of the
quartic generator, and, for `exact` at any truncation, the Jaynes-Cummings
blocks of `jaynes_cummings_band`, which need no matrix at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import Superoperator, TruncatedSpace, vec
from .measures import TimeMeasure
from .models import GeneratorModel
from .pump import PumpParameters, check_kappa, cos_cos_average, scalar_rate, sin_sin_average

# Acceptance thresholds for density-matrix validation (double precision
# with O(dim^3) linear algebra behind it).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_FLOOR = -1e-10

LEAK_WARN_TOL = 1e-10
GEOMETRIC_TOL = 1e-14  # geometric weight below which regularized_trace stops
MERGE_TOL = 1e-12  # relative residual under which merge_proportional merges


def annihilation(space: TruncatedSpace) -> np.ndarray:
    """Photon annihilation operator a, <n-1|a|n> = sqrt(n)."""
    a = np.zeros((space.dim, space.dim))
    for n in range(space.n_max):
        a[n, n + 1] = np.sqrt(n + 1.0)
    return a


def creation(space: TruncatedSpace) -> np.ndarray:
    """Photon creation operator, transpose of `annihilation`."""
    return annihilation(space).T.copy()


def number(space: TruncatedSpace) -> np.ndarray:
    """Photon number operator diag(0, 1, ..., n_max)."""
    return np.diag(np.arange(space.dim, dtype=float))


def phi_squared(space: TruncatedSpace) -> np.ndarray:
    """diag(n+1): spectrum of a a* with the exact eigenvalue kept at the top.

    The plain product a @ a.T has a zero at the (n_max, n_max) entry because
    the ladder is cut; diagonal operator functions built from this matrix
    stay exact on every level, pushing all truncation error into tail mass.
    """
    return np.diag(np.arange(1, space.dim + 1, dtype=float))


def phi_fn(space: TruncatedSpace, f) -> np.ndarray:
    """Diagonal operator f(sqrt(n+1)) from a scalar or vectorized callable f."""
    vals = f(np.sqrt(np.arange(1, space.dim + 1, dtype=float)))
    return np.diag(np.asarray(vals, dtype=float))


@dataclass(frozen=True)
class DensityReport:
    """Defect sizes of a candidate density matrix; reported, never clipped."""

    trace_defect: float
    hermiticity_defect: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return (
            self.trace_defect <= TRACE_TOL
            and self.hermiticity_defect <= HERMITICITY_TOL
            and self.min_eigenvalue >= POSITIVITY_FLOOR
        )


def validate_density(rho: np.ndarray) -> DensityReport:
    """Measure trace, hermiticity and positivity defects of rho."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    trace_defect = abs(rho.trace() - 1.0)
    herm_defect = np.abs(rho - rho.conj().T).max()
    # smallest eigenvalue of the Hermitian part; negative values are the signal
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    return DensityReport(float(trace_defect), float(herm_defect), min_eig)


def column_trace_defects(generator: Superoperator) -> tuple[float, float]:
    """Column sums of the trace functional on a generator: (interior max,
    boundary max).

    The boundary figure collects columns whose source entry touches the
    top level n_max, where truncation leaks are reported rather than
    hidden; a trace-preserving generator has both equal to zero.
    """
    d = generator.space.dim
    trace_row = np.zeros(d * d)
    trace_row[:: d + 1] = 1.0
    col_sums = np.abs(trace_row @ generator.matrix)
    grid = col_sums.reshape((d, d), order="F")  # [row index m, col index n]
    interior = float(grid[: d - 1, : d - 1].max()) if d > 1 else 0.0
    boundary = float(max(grid[d - 1, :].max(), grid[:, d - 1].max()))
    return interior, boundary


def _kron(a: np.ndarray, b: np.ndarray):
    """Sparse a kron b; the operators here are banded, so this is O(nnz)."""
    from scipy.sparse import kron  # here: scipy costs every import 0.5 s

    return kron(a, b, format="csr")


def _anticommutator(op: np.ndarray):
    """Sparse matrix of rho -> op rho + rho op."""
    eye = np.eye(op.shape[0])
    return _kron(eye, op) + _kron(op.T, eye)


def from_matrix(space: TruncatedSpace, matrix) -> Superoperator:
    """The Superoperator of an (n_max+1)^2 square matrix, dense or scipy
    sparse, from its nonzero entries; ValueError for another shape."""
    from scipy.sparse import coo_array

    d2 = space.dim**2
    if np.shape(matrix) != (d2, d2):
        raise ValueError(f"superoperator for n_max={space.n_max} must be {d2}x{d2}")
    coo = coo_array(matrix)
    return Superoperator(space, coo.row, coo.col, coo.data)


def left_mult(op: np.ndarray) -> np.ndarray:
    """Matrix of rho -> op rho."""
    return _kron(np.eye(op.shape[0]), op).toarray()


def right_mult(op: np.ndarray) -> np.ndarray:
    """Matrix of rho -> rho op."""
    return _kron(op.T, np.eye(op.shape[0])).toarray()


def sandwich(op: np.ndarray) -> np.ndarray:
    """Matrix of rho -> op rho op*."""
    return _kron(op.conj(), op).toarray()


def dissipator_matrix(op: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_x x rho x* - (x* x rho + rho x* x)/2 over the
    operators x = op, *more: their dissipators summed sparse, made dense once."""
    first, *rest = (
        _kron(x.conj(), x) - 0.5 * _anticommutator(x.conj().T @ x) for x in (op, *more)
    )
    return sum(rest, first).toarray()


def apply_dissipator(op: np.ndarray, opd_op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Action of the dissipator of `op` on a density matrix (no kron needed)."""
    return op @ rho @ op.conj().T - 0.5 * (opd_op @ rho + rho @ opd_op)


def loss_dissipator(kappa: float, space: TruncatedSpace) -> Superoperator:
    """Cavity damping at rate kappa: kappa (a rho a* - {a* a, rho}/2)."""
    check_kappa(kappa, zero=True)
    return from_matrix(space, kappa * dissipator_matrix(annihilation(space)))


class TruncationLeakWarning(UserWarning):
    """Probability pushed past the top Fock level by a pump application."""


def cos_op(space: TruncatedSpace, g_tau: float) -> np.ndarray:
    """Diagonal cos(g tau phi), entries cos(g tau sqrt(n+1))."""
    return phi_fn(space, lambda y: np.cos(g_tau * y))


def sin_shift_op(space: TruncatedSpace, g_tau: float) -> np.ndarray:
    """One-quantum gain g tau a* sinc(g tau phi), entries sin(g tau sqrt(n+1))
    on the first subdiagonal; the transition out of n_max is truncated."""
    s = np.zeros((space.dim, space.dim))
    n = np.arange(space.n_max)
    s[n + 1, n] = np.sin(g_tau * np.sqrt(n + 1.0))
    return s


def jcp_map(rho: np.ndarray, g_tau: float) -> np.ndarray:
    """Apply the single-atom pump map (see `pump`) for one interaction time g*tau.

    Trace lost through the truncation boundary (population at n_max that
    the gain would push out of the space) is warned about above
    LEAK_WARN_TOL, not clipped.
    """
    rho = np.asarray(rho)
    space = TruncatedSpace(rho.shape[0] - 1)
    c = cos_op(space, g_tau)
    s = sin_shift_op(space, g_tau)
    out = c @ rho @ c + s @ rho @ s.T
    leak = float(np.sin(g_tau * np.sqrt(space.n_max + 1.0)) ** 2 * rho[-1, -1].real)
    if leak > LEAK_WARN_TOL:
        warnings.warn(
            f"pump map leaked probability {leak:.3e} past n_max={space.n_max}",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return out


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of the coarse-grained pump over a step dt."""

    operators: tuple
    dt: float

    def completeness_defect(self) -> np.ndarray:
        """sum_i Omega_i* Omega_i - 1; the (n_max, n_max) entry reports the
        truncation boundary and is not expected to vanish."""
        dim = self.operators[0].shape[0]
        acc = -np.eye(dim, dtype=complex)
        for om in self.operators:
            acc = acc + om.conj().T @ om
        return acc


def kraus_operators(
    params: PumpParameters, g_tau: float, dt: float, space: TruncatedSpace
) -> KrausSet:
    """Kraus set {sqrt(1 - r dt) 1, sqrt(r dt) cos part, sqrt(r dt) gain part}
    for a fixed interaction time: the node-sum set of a single node at g tau."""
    one_node = PumpParameters(g_tau, params.r)
    return riemann_kraus_operators(one_node, TimeMeasure.discrete([1.0], [1.0]), dt, space)


def riemann_kraus_operators(
    params: PumpParameters, measure: TimeMeasure, dt: float, space: TruncatedSpace
) -> KrausSet:
    """Kraus set for a measure with nodes: every node x_j carries
    both branches scaled by sqrt of its weight.  r*dt must lie in (0, 1) so
    the no-atom branch stays a proper Kraus operator."""
    rdt = scalar_rate(params.r) * dt
    if not 0.0 < rdt < 1.0:
        raise ValueError(f"r*dt must lie in (0, 1), got {rdt}")
    if measure.nodes is None:
        raise ValueError("node-sum Kraus sets need a measure with nodes")
    ops = [np.sqrt(1.0 - rdt) * np.eye(space.dim)]
    for x_j, w_j in zip(measure.nodes, measure.weights):
        g_tau = params.g_tau_bar * x_j
        ops.append(np.sqrt(rdt * w_j) * cos_op(space, g_tau))
        ops.append(np.sqrt(rdt * w_j) * sin_shift_op(space, g_tau))
    return KrausSet(tuple(ops), dt)


def regularized_trace(g_tau: float, q: float) -> float:
    """Geometric-weighted average sum_n (1-q) q^n cos(g tau sqrt(n+1)).

    Partial sums run until the geometric envelope drops below GEOMETRIC_TOL,
    so the divergence of the plain trace over the infinite ladder never enters.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    total = 0.0
    weight = 1.0 - q
    n = 0
    while weight > GEOMETRIC_TOL:
        total += weight * np.cos(g_tau * np.sqrt(n + 1.0))
        weight *= q
        n += 1
    return total


def lindblad_C_S(
    params: PumpParameters, g_tau: float, space: TruncatedSpace, q: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Traceless-cosine / gain split of the pump at a fixed interaction time.

    C = sqrt(r) (cos(g tau phi) - w 1) with w the regularized trace of
    weight q in (0, 1), and S = sqrt(r) g tau a* sinc(g tau phi).  Used as
    Lindblad operators they reproduce the pump generator; the identity shift
    in C cancels there, so the generator does not depend on q.
    """
    sq = np.sqrt(scalar_rate(params.r))
    w = regularized_trace(g_tau, q)
    c = sq * (cos_op(space, g_tau) - w * np.eye(space.dim))
    s = sq * sin_shift_op(space, g_tau)
    return c, s


def pump_average_tables(
    params: PumpParameters, space: TruncatedSpace, measure: TimeMeasure | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tables cc[m,n] = <cos(a_m x) cos(a_n x)>, ss[m,n] = <sin(a_m x) sin(a_n x)>
    with a_n = g tau_bar sqrt(n+1); they carry the whole averaged pump."""
    if measure is None:
        measure = TimeMeasure.exponential()
    alpha = params.g_tau_bar * np.sqrt(np.arange(1, space.dim + 1, dtype=float))
    cc = cos_cos_average(measure, alpha[:, None], alpha[None, :])
    ss = sin_sin_average(measure, alpha[:, None], alpha[None, :])
    return cc, ss


def averaged_pump_superoperator(
    params: PumpParameters, space: TruncatedSpace, measure: TimeMeasure | None = None
) -> Superoperator:
    """Exact coarse-grained pump generator r * <M_tau - 1> as a dense matrix.

    This is the raw average of the pump map: probability the gain would
    push past n_max simply leaves the space, so columns sourced from the
    top level are not trace preserving (the defect is the reported leak).
    """
    r = scalar_rate(params.r)
    cc, ss = pump_average_tables(params, space, measure)
    # <c (x) c> is diagonal with entries cc; <s (x) s> is the two-sided shift
    # |n+1><n| weighted by ss at its source, which has no image of the top level
    shift = np.eye(space.dim, k=-1)
    mat = np.diag(vec(cc)) + sandwich(shift) * vec(ss)[None, :] - np.eye(space.dim**2)
    return from_matrix(space, r * mat)


def merge_proportional(ops: list) -> list:
    """Quadrature-sum Lindblad operators that are proportional to each other;
    the assembled generator is unchanged, the list just gets shorter."""
    merged: list[tuple[np.ndarray, float]] = []  # (unit direction, sum of c^2)
    for op in ops:
        v = op.reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        for i, (unit, weight) in enumerate(merged):
            coeff = np.vdot(unit.reshape(-1), v)
            if np.linalg.norm(v - coeff * unit.reshape(-1)) <= MERGE_TOL * norm:
                merged[i] = (unit, weight + abs(coeff) ** 2)
                break
        else:
            merged.append((op / norm, norm**2))
    return [unit * math.sqrt(weight) for unit, weight in merged]


def lindblad_ops(model: GeneratorModel) -> list:
    """Pump-side Lindblad operators sqrt(rate) S_k and sqrt(rate) diag(c_k)
    of a model (loss excluded), built from its `lindblad` level functions on
    the levels of its space (rate is the model's one feed rate), one per
    level function and unmerged (merge_proportional shortens the list);
    empty for a model that is not manifestly Lindblad."""
    model._require_one_pump()
    if model.lindblad is None:
        return []
    gain_elements, diagonals = model.lindblad
    (rate,) = model.feed_terms.rates
    scale = math.sqrt(rate)
    levels = np.arange(model.space.dim)
    gains = [scale * np.diag(s, -1) for s in gain_elements(levels[:-1] + 1.0)]
    return gains + [scale * np.diag(c) for c in diagonals(model.diagonal_y(levels))]


def fourth_order_generator(params: PumpParameters, space: TruncatedSpace) -> Superoperator:
    """Dense pump generator truncated at fourth order in g tau (no loss):
    A (D[a*] with P = a a*) + B (3 P rho P + {P^2, rho}/2 - 2 a*{P, rho} a)."""
    scalar_rate(params.r)
    a = annihilation(space)
    ad = a.T
    p = a @ ad  # truncated product: top diagonal entry is zero
    p2 = p @ p
    lin = _kron(ad, ad) - 0.5 * _anticommutator(p)
    quart = (
        3.0 * _kron(p, p)
        + 0.5 * _anticommutator(p2)
        - 2.0 * (_kron(a.T, ad @ p) + _kron((p @ a).T, ad))
    )
    mat = params.gain_rate * lin + params.saturation_rate * quart
    return from_matrix(space, mat)


def sixth_order_superoperator(params: PumpParameters, space: TruncatedSpace) -> Superoperator:
    """The sixth-order remainder carried by the fourth-order-accurate
    Lindblad set: 20 r (g tau_bar)^6 (a*aa* rho aa*a - {(aa*)^3, rho}/2)."""
    a = annihilation(space)
    ad = a.T
    p = a @ ad
    coeff = 20.0 * scalar_rate(params.r) * params.u**3
    mat = coeff * (_kron((p @ a).T, ad @ p) - 0.5 * _anticommutator(p @ p @ p))
    return from_matrix(space, mat)


def jaynes_cummings_band(
    g_tau_bar: float, r: float, kappa: float, n_max: int, nodes, weights
) -> tuple[np.ndarray, float]:
    """Steady populations p_0..p_n_max and linewidth D of the resonant
    micromaser from its Jaynes-Cummings blocks, averaged <.> over the
    interaction times x = tau / tau_bar at the nodes with their weights
    (np.polynomial.laguerre.laggauss for the exponential measure).  NumPy
    only, in O(n_max * nodes), sharing no code with the models, the pump
    averages or the band route.

    An atom entering excited turns |e, n> into cos(a_n x) |e, n> -
    i sin(a_n x) |g, n+1>, with a_n = g tau_bar sqrt(n+1).  So the gain out
    of n is G(n) = r <sin^2(a_n x)>, and detailed balance against the loss
    gives p_{n+1} / p_n = G(n) / (kappa (n+1)).  On the band rho_{m,m+1} the
    atoms feed r <sin(a_{m-1} x) sin(a_m x)> rho_{m-1,m} in and dephase at
    r (<cos(a_m x) cos(a_{m+1} x)> - 1), summed here as
    -r <sin^2((a_{m+1} - a_m) x/2) + sin^2((a_{m+1} + a_m) x/2)>, which does
    not cancel.  f'(0) = tr[a* S(a diag(p))] takes the untruncated generator
    S on diag(p), zero above n_max, and D = -2 f'(0) / <n>.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = np.arange(n_max + 1.0)
    a = g_tau_bar * np.sqrt(n + 1.0)[:, None]  # a_0 .. a_n_max, one row per level
    sines = np.sin(a * x)
    gain = r * (sines**2 @ w)
    log_p = np.concatenate(([0.0], np.cumsum(np.log(gain[:-1] / (kappa * n[1:])))))
    p = np.exp(log_p - log_p.max())
    p /= p.sum()
    band = np.sqrt(n[1:]) * p[1:]  # (a diag(p))_{m,m+1}, m = 0 .. n_max - 1
    half_gap, half_sum = 0.5 * (a[1:] - a[:-1]) * x, 0.5 * (a[1:] + a[:-1]) * x
    dephasing = -r * ((np.sin(half_gap) ** 2 + np.sin(half_sum) ** 2) @ w)
    image = np.zeros(n_max + 1)  # S(a diag(p)) on the band, m = 0 .. n_max
    image[:-1] += (dephasing - kappa * (n[:-1] + 0.5)) * band
    image[1:] += r * ((sines[:-1] * sines[1:]) @ w) * band
    image[:-2] += kappa * np.sqrt(n[1:-1] * n[2:]) * band[1:]
    return p, -2.0 * float(np.sqrt(n + 1.0) @ image) / float(n @ p)
