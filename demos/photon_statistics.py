"""Compare the steady photon statistics of all five pump models at one
operating point.

The exact measure-averaged model and the rational-gain shortcut agree to
machine precision; the polynomial expansions drift once (g tau_bar)^2 (n+1)
is no longer small.
"""

from micromaser import (
    EXACT,
    MODELS,
    PumpParameters,
    TruncatedSpace,
    distribution_distance,
    moments,
    recurrence_steady,
)

KAPPA = 1.0
G_TAU_BAR = 0.15
PUMP = 0.9  # A / kappa, just below threshold

params = PumpParameters.from_pump(PUMP, G_TAU_BAR, KAPPA)
space = TruncatedSpace(30)

# every model of the table at its default options (heuristic: beta = 4 (g tau_bar)^2)
models = {name: record.build(params, space) for name, record in MODELS.items()}

print(f"operating point: g tau_bar = {G_TAU_BAR}, pump A/kappa = {PUMP}")
print(f"derived rates: A = {params.gain_rate:.4f}, B = {params.saturation_rate:.6f}, "
      f"r = {params.r:.2f} atoms per unit time\n")

results = {}
for name, model in models.items():
    # expansion models keep their validity cutoff, the rest run to n_max
    results[name] = recurrence_steady(model.gain_ratio(KAPPA), space, cutoff=model.cutoff)

print(f"{'model':18s} {'mean_n':>9s} {'variance':>10s} {'Mandel Q':>9s} {'TV to exact':>12s}")
p_exact = results[EXACT].p
for name, stats in results.items():
    mom = moments(stats.p)
    tv = distribution_distance(stats.p, p_exact)
    print(f"{name:18s} {mom.mean_n:9.4f} {mom.variance:10.4f} "
          f"{mom.mandel_q:9.4f} {tv:12.3e}")

print("\nfirst ten levels of the exact distribution:")
for n in range(10):
    bar = "#" * int(round(60 * p_exact[n] / p_exact.max()))
    print(f"  p_{n:<2d} {p_exact[n]:.6f} {bar}")
