"""Pump parameters and the interaction-time averages of the pump.

An excited two-level atom crossing the cavity for a time tau updates the
field as

    rho -> cos(g tau phi) rho cos(g tau phi)
           + (g tau)^2 a* sinc(g tau phi) rho sinc(g tau phi) a

with phi^2 = a a* (eigenvalue n+1).  Averaging over the arrival statistics
(rate r) and the interaction-time measure gives the coarse-grained pump
generator r * integral dp(tau) (M_tau - 1), whose pair functions need only
the averages of cos cos and sin sin computed here.  With g tau =
(g tau_bar) x, x = tau / tau_bar, it reads only g tau_bar, r and the
measure in x, which is all that PumpParameters and TimeMeasure hold.  The
map itself, its Kraus sets and the dense average are in `oracle`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import TimeMeasure


def check_kappa(kappa: float, *, zero: bool) -> None:
    """The rule for the loss rate kappa: positive and finite, or zero too
    where `zero` allows a loss-free generator."""
    if not (0.0 <= kappa if zero else 0.0 < kappa) or not kappa < math.inf:
        kind = "nonnegative" if zero else "positive"
        raise ValueError(f"kappa must be {kind} and finite, got {kappa}")


def check_g_tau_bar(g_tau_bar: float) -> None:
    """The rule for g tau_bar: positive and finite, and so its square u,
    which every model reads; a subnormal u counts as zero, so that 1/u (in
    r = A / (2u)) is finite too."""
    g = float(g_tau_bar) if 0.0 < g_tau_bar < math.inf else math.nan
    if not sys.float_info.min <= g * g < math.inf:  # float ** raises on overflow
        raise ValueError(f"g_tau_bar and its square must be positive and finite, got {g_tau_bar}")


def check_rates(name: str, rates, pumps) -> None:
    """The rule for a pump-side rate (r, or a gain A): every value
    nonnegative and finite.  The first that is not is named, with its pump
    where the pumps are given."""
    rates = np.asarray(rates)
    bad = ~((0.0 <= rates) & (rates < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        at = "" if pumps is None else f" at pump {np.ravel(pumps)[i]}"
        raise ValueError(f"{name} must be nonnegative and finite, got {rates.flat[i]}{at}")


@dataclass(frozen=True, eq=False)
class PumpParameters:
    """Coupling-time product g tau_bar and pump rate r.

    g and tau_bar enter the pump only as their product, and the interaction
    time only as x = tau / tau_bar (see measures), so nothing else is stored.
    r is a scalar (one pump) or holds one rate per pump value (1-D, as
    from_pump makes it from an array, list or tuple of pumps).  A model
    built on such r holds it as a (P, 1) column (models.PairTerms), whose
    band functions then broadcast to (pumps, levels), which is how
    solve_pump_axis solves a whole pump axis at once.  The dense operators
    need a scalar r (scalar_rate).  Two parameters are equal when
    g tau_bar, the shape of r and its values are.
    """

    g_tau_bar: float
    r: float | np.ndarray

    def __post_init__(self):
        check_g_tau_bar(self.g_tau_bar)
        check_rates("pump rate r", self.r, None)

    def _values(self) -> tuple:
        r = np.asarray(self.r)
        return self.g_tau_bar, r.shape, tuple(r.ravel().tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

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
        """Parameters with linear gain A = pump * kappa (pump is A/kappa); a
        pump whose r is negative or not finite (overflow too) is named."""
        check_kappa(kappa, zero=False)
        check_g_tau_bar(g_tau_bar)
        if isinstance(pump, (list, tuple)):  # one rate per pump, as for an array
            pump = np.asarray(pump, dtype=float)
        with np.errstate(over="ignore"):
            r = pump * kappa / (2.0 * g_tau_bar**2)
        check_rates("pump rate r", r, pump)
        return cls(g_tau_bar, r)


def check_one_pump(one: bool, name: str, values) -> None:
    """The message of every entry that acts at one pump value (the dense
    operators, recurrence_steady and moments): ValueError unless `one`, the
    entry's rule read from the values `name`, holds."""
    if not one:
        raise ValueError(f"one pump value needed, got {name} of shape {np.shape(values)}")


def scalar_rate(rate):
    """rate itself, if it is a scalar.  The dense operators act at one pump
    value; a (P, 1) column of per-pump rates would broadcast into them row
    by row, so it is refused."""
    check_one_pump(np.ndim(rate) == 0, "rates", rate)
    return rate


def cos_cos_average(measure: TimeMeasure, alpha, beta):
    """<cos(alpha x) cos(beta x)> over the measure; closed Lorentzian form
    for the exponential measure, node sums otherwise."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if measure.nodes is None:
        with np.errstate(over="ignore"):  # a square past the float range: 1 / inf = 0, its limit
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
    if measure.nodes is None:
        with np.errstate(over="ignore"):  # a square past the float range: 1 / inf = 0, its limit
            return 0.5 * (
                1.0 / (1.0 + (alpha - beta) ** 2) - 1.0 / (1.0 + (alpha + beta) ** 2)
            )
    x, w = measure.nodes, measure.weights
    return np.einsum(
        "j,...j->...",
        w,
        np.sin(alpha[..., None] * x) * np.sin(beta[..., None] * x),
    )

