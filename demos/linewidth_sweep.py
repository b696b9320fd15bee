"""Phase-diffusion linewidth across the threshold region.

D <n> / kappa is exactly 1 for an empty (loss-only) cavity and stays within
a factor two of 1 all the way up: the Schawlow-Townes scale kappa/<n> is the
whole story up to an order-unity correction.  The regression-formula value,
taken on the one nonzero band, is cross-checked against a finite-difference
derivative on the full density matrix at every point.
"""

import numpy as np

from micromaser import (
    EXACT,
    MODELS,
    UNIFORM,
    WEAK,
    PumpParameters,
    TruncatedSpace,
    assemble,
    linewidth_fd,
    solve_pump_axis,
)

KAPPA = 1.0
G_TAU_BAR = 0.03
PUMPS = (0.5, 0.9, 1.2, 1.6)

builders = {name: MODELS[name].build for name in (EXACT, WEAK, UNIFORM)}

# each model over the whole pump axis in one pass, band linewidth included
params = PumpParameters.from_pump(np.array(PUMPS), G_TAU_BAR, KAPPA)
solved = {
    name: solve_pump_axis(build(params, TruncatedSpace(1)), KAPPA, linewidth=True)
    for name, build in builders.items()
}

print(f"g tau_bar = {G_TAU_BAR}; linewidth D in units of kappa\n")
print(f"{'A/kappa':>8s} {'model':18s} {'mean_n':>10s} {'D':>12s} "
      f"{'D*mean/kappa':>13s} {'fd check':>10s}")

for k, pump in enumerate(PUMPS):
    for name, build in builders.items():
        axis = solved[name]
        p, mean_n, d_rate = axis.p[k], float(axis.mean_n[k]), float(axis.D[k])
        # the check: one model at this pump, on the full density matrix
        space = TruncatedSpace(p.size - 1)
        model = build(PumpParameters.from_pump(pump, G_TAU_BAR, KAPPA), space)
        fd = linewidth_fd(assemble(model, KAPPA), np.diag(p), KAPPA)
        rel = abs(d_rate - fd.D) / fd.D
        print(f"{pump:8.2f} {name:18s} {mean_n:10.3f} {d_rate:12.5e} "
              f"{axis.normalized_D[k]:13.4f} {rel:10.1e}")
    print()

limit = 0.2 / G_TAU_BAR**2
print("the intensity is forgiving: at pump 1.6 the weak model still nails")
print("mean_n.  the linewidth is not: D rests on a near-cancellation in the")
print("coherence decay that the quartic truncation breaks once")
print("4 (g tau_bar)^2 mean_n approaches 1 (0.6 at pump 1.6, D off 300x).")
print(f"past A/kappa ~ 2 the distribution also hits the validity cutoff")
print(f"0.2/(g tau_bar)^2 = {limit:.0f} and even mean_n goes wrong.")
