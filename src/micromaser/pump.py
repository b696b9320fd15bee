"""Single-atom pump map, its Kraus sets, and interaction-time averages.

An excited two-level atom crossing the cavity for a time tau updates the
field as

    rho -> cos(g tau phi) rho cos(g tau phi)
           + (g tau)^2 a* sinc(g tau phi) rho sinc(g tau phi) a

with phi^2 = a a* (eigenvalue n+1).  Averaging over the arrival statistics
(rate r) and the interaction-time measure gives the coarse-grained pump
generator r * integral dp(tau) (M_tau - 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import TruncatedSpace, phi_fn
from .measures import TimeMeasure
from .superop import Superoperator, sandwich, vec

LEAK_WARN_TOL = 1e-10


class TruncationLeakWarning(UserWarning):
    """Probability pushed past the top Fock level by a pump application."""


@dataclass(frozen=True)
class PumpParameters:
    """Pump rate r, coupling g, mean interaction time tau_bar.

    q in (0, 1) weights the geometric trace regularization used when the
    cosine part of the pump is split off as a Lindblad operator
    (lindblad_C_S); assembled generators are independent of it, and
    from_pump keeps its default.  r may be a (P, 1) column, one rate per
    pump value: the band functions of a model built from it then broadcast
    to (pumps, levels), which is how a whole pump axis is solved at once.
    The dense operators need a scalar r (scalar_rate).
    """

    g: float
    tau_bar: float
    r: float | np.ndarray
    q: float = 0.5

    def __post_init__(self):
        r = np.asarray(self.r)
        if self.g <= 0 or self.tau_bar <= 0 or not np.all((0.0 <= r) & (r < np.inf)):
            raise ValueError("g and tau_bar must be positive, r nonnegative and finite")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")

    @property
    def g_tau_bar(self) -> float:
        return self.g * self.tau_bar

    @property
    def u(self) -> float:
        """Square of the coupling-time product, (g tau_bar)^2."""
        return self.g_tau_bar**2

    @property
    def gain_rate(self) -> float:
        """Linear gain A = 2 r (g tau_bar)^2."""
        return 2.0 * self.r * self.u

    @property
    def saturation_rate(self) -> float:
        """Quartic coefficient B = (g tau_bar)^2 A."""
        return self.u * self.gain_rate

    @classmethod
    def from_pump(cls, pump: float, g_tau_bar: float, kappa: float = 1.0) -> "PumpParameters":
        """Parameters with linear gain A = pump * kappa (pump is A/kappa)."""
        r = pump * kappa / (2.0 * g_tau_bar**2)
        return cls(g=g_tau_bar, tau_bar=1.0, r=r)


def scalar_rate(rate):
    """rate itself, if it is a scalar.  The dense operators act at one pump
    value; a (P, 1) column of per-pump rates would broadcast into them row
    by row, so it is refused."""
    if np.ndim(rate) != 0:
        raise ValueError(
            f"dense operators need one pump value, got rates of shape {np.shape(rate)}"
        )
    return rate


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
    """Apply the single-atom pump map for one interaction time g*tau.

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
    for a fixed interaction time; r*dt must lie in (0, 1) so the no-atom
    branch stays a proper Kraus operator."""
    rdt = scalar_rate(params.r) * dt
    if not 0.0 < rdt < 1.0:
        raise ValueError(f"r*dt must lie in (0, 1), got {rdt}")
    ops = (
        np.sqrt(1.0 - rdt) * np.eye(space.dim),
        np.sqrt(rdt) * cos_op(space, g_tau),
        np.sqrt(rdt) * sin_shift_op(space, g_tau),
    )
    return KrausSet(ops, dt)


def riemann_kraus_operators(
    params: PumpParameters, measure: TimeMeasure, dt: float, space: TruncatedSpace
) -> KrausSet:
    """Kraus set for a discrete/quadrature measure: every node tau_j carries
    both branches scaled by sqrt of its weight."""
    rdt = scalar_rate(params.r) * dt
    if not 0.0 < rdt < 1.0:
        raise ValueError(f"r*dt must lie in (0, 1), got {rdt}")
    if measure.kind == "exponential":
        raise ValueError("node-sum Kraus sets need a discrete or quadrature measure")
    ops = [np.sqrt(1.0 - rdt) * np.eye(space.dim)]
    for x_j, w_j in zip(measure.nodes, measure.weights):
        g_tau = params.g_tau_bar * x_j
        ops.append(np.sqrt(rdt * w_j) * cos_op(space, g_tau))
        ops.append(np.sqrt(rdt * w_j) * sin_shift_op(space, g_tau))
    return KrausSet(tuple(ops), dt)


def regularized_trace(g_tau: float, q: float, tol: float = 1e-14) -> float:
    """Geometric-weighted average sum_n (1-q) q^n cos(g tau sqrt(n+1)).

    Partial sums run until the geometric envelope drops below tol, so the
    divergence of the plain trace over the infinite ladder never enters.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    total = 0.0
    weight = 1.0 - q
    n = 0
    while weight > tol:
        total += weight * np.cos(g_tau * np.sqrt(n + 1.0))
        weight *= q
        n += 1
    return total


def lindblad_C_S(
    params: PumpParameters, g_tau: float, space: TruncatedSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Traceless-cosine / gain split of the pump at a fixed interaction time.

    C = sqrt(r) (cos(g tau phi) - w 1) with w the regularized trace, and
    S = sqrt(r) g tau a* sinc(g tau phi).  Used as Lindblad operators they
    reproduce the pump generator; the identity shift in C cancels there.
    """
    sq = np.sqrt(scalar_rate(params.r))
    w = regularized_trace(g_tau, params.q)
    c = sq * (cos_op(space, g_tau) - w * np.eye(space.dim))
    s = sq * sin_shift_op(space, g_tau)
    return c, s


def cos_cos_average(measure: TimeMeasure, alpha, beta):
    """<cos(alpha x) cos(beta x)> over the measure; closed Lorentzian form
    for the exponential measure, node sums otherwise."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if measure.kind == "exponential":
        return 0.5 * (
            1.0 / (1.0 + (alpha - beta) ** 2) + 1.0 / (1.0 + (alpha + beta) ** 2)
        )
    x, w = measure.nodes, measure.weights
    return np.einsum(
        "j,...j->...",
        w,
        np.cos(alpha[..., None] * x) * np.cos(beta[..., None] * x),
    )


def sin_sin_average(measure: TimeMeasure, alpha, beta):
    """<sin(alpha x) sin(beta x)> over the measure."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if measure.kind == "exponential":
        return 0.5 * (
            1.0 / (1.0 + (alpha - beta) ** 2) - 1.0 / (1.0 + (alpha + beta) ** 2)
        )
    x, w = measure.nodes, measure.weights
    return np.einsum(
        "j,...j->...",
        w,
        np.sin(alpha[..., None] * x) * np.sin(beta[..., None] * x),
    )


def pump_average_tables(
    params: PumpParameters, space: TruncatedSpace, measure: TimeMeasure | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tables cc[m,n] = <cos(a_m x) cos(a_n x)>, ss[m,n] = <sin(a_m x) sin(a_n x)>
    with a_n = g tau_bar sqrt(n+1); they carry the whole averaged pump."""
    if measure is None:
        measure = TimeMeasure.exponential(params.tau_bar)
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
    return Superoperator(space, r * mat)
