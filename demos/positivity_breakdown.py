"""Where the quartic expansion stops being a quantum map.

Two symptoms of the same disease.  First, the steady recurrence of the
quartic (post4) model produces negative occupation probabilities beyond
n + 1 = 1/(4 (g tau_bar)^2), because its gain turns negative there.  Second,
the generator is not completely positive: evolving a legitimate state can
create negative density-matrix eigenvalues.  The Lindblad-form models built
from the same expansion order have neither problem, by construction.
"""

import numpy as np
import scipy.linalg
import scipy.special

from micromaser import (
    MODELS,
    POST4,
    WEAK,
    PumpParameters,
    TruncatedSpace,
    assemble,
    recurrence_steady,
    unvec,
    vec,
)
from micromaser.oracle import validate_density

KAPPA = 1.0

# --- symptom 1: negative p_n in the steady recurrence --------------------
G_TAU_BAR = 0.15
PUMP = 5.0  # strong pump, mean photon number near 44 in the full model
params = PumpParameters.from_pump(PUMP, G_TAU_BAR, KAPPA)
space = TruncatedSpace(16)
boundary = 0.25 / G_TAU_BAR**2

post4 = MODELS[POST4].build(params, space)
weak = MODELS[WEAK].build(params, space)
s_post4 = recurrence_steady(post4.gain_ratio(KAPPA), space)
s_weak = recurrence_steady(weak.gain_ratio(KAPPA), space)

print(f"g tau_bar = {G_TAU_BAR}, pump A/kappa = {PUMP}; "
      f"gain sign flips at n + 1 = {boundary:.1f}\n")
print(f"{'n':>3s} {'post4 p_n':>13s} {'weak p_n':>13s}")
for n in range(space.dim):
    mark = "  <-- negative" if s_post4.p[n] < 0 else ""
    print(f"{n:3d} {s_post4.p[n]:13.4e} {s_weak.p[n]:13.4e}{mark}")
print(f"\npost4 negative levels: {[n for n, _ in s_post4.negative]}")
print(f"weak model minimum p_n: {s_weak.p.min():.3e} (never negative)\n")

# --- symptom 2: evolution breaks positivity -------------------------------
params2 = PumpParameters.from_pump(1.5, 0.25, KAPPA)
space2 = TruncatedSpace(15)
alpha = 1.5
levels = np.arange(space2.dim)
amp = np.exp(-abs(alpha) ** 2 / 2) * alpha**levels / np.sqrt(
    scipy.special.factorial(levels)
)
rho0 = np.outer(amp, amp.conj())
rho0 /= np.trace(rho0).real

T_EVOLVE = 0.2  # long enough for the defect to grow, short of the blow-up
for name in (POST4, WEAK):
    gen = assemble(MODELS[name].build(params2, space2), KAPPA)
    prop = scipy.linalg.expm(T_EVOLVE * gen.matrix)
    evolved = unvec(prop @ vec(rho0), space2)
    evolved /= np.trace(evolved).real
    rep = validate_density(evolved)
    print(f"{name:16s} coherent state after t = {T_EVOLVE}/kappa: "
          f"min eigenvalue {rep.min_eigenvalue:+.3e}")
