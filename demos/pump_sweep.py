"""Sweep the pump through threshold and watch the laser turn on.

Below A = kappa the cavity holds a few thermal-looking photons; above it
the mean follows the semiclassical intensity (A/kappa - 1)/(4 (g tau_bar)^2)
and the Mandel Q relaxes toward the far-above-threshold value
kappa / (A - kappa).
"""

import numpy as np

from micromaser import (
    PumpParameters,
    TruncatedSpace,
    exact_model,
    semiclassical_intensity,
    solve_pump_axis,
)

KAPPA = 1.0
G_TAU_BAR = 0.03
PUMPS = (0.5, 0.8, 0.9, 1.0, 1.1, 1.3, 1.6, 2.0, 3.0, 4.0, 5.0)

print(f"exact model, g tau_bar = {G_TAU_BAR}\n")
print(f"{'A/kappa':>8s} {'n_max':>6s} {'mean_n':>10s} {'semiclassical':>13s} "
      f"{'Mandel Q':>9s} {'kappa/(A-k)':>11s}")

# the whole pump axis in one pass: one truncation search, then one
# recurrence and one set of moments per group of pumps that share n_max
params = PumpParameters.from_pump(np.array(PUMPS), G_TAU_BAR, KAPPA)
axis = solve_pump_axis(exact_model(params, TruncatedSpace(1)), KAPPA)
for k, pump in enumerate(PUMPS):
    sc = semiclassical_intensity(params.gain_rate[k], KAPPA, 4 * params.u)
    q_far = KAPPA / (pump - KAPPA) if pump > 1.2 else float("nan")
    print(f"{pump:8.2f} {axis.n_max[k]:6d} {axis.mean_n[k]:10.3f} {sc:13.3f} "
          f"{axis.mandel_Q[k]:9.4f} {q_far:11.4f}")

print("\nthe Q maximum sits near threshold; far above, Q -> kappa/(A - kappa)")
