"""The machinery behind the Lindblad expansions: polynomials orthonormal
under the interaction-time distribution, and the finite-time Kraus channels
the expansions are derived from.

For the exponential waiting-time distribution the orthonormal family is the
Laguerre one, with an exact three-term recurrence; for any other
distribution the builder derives the recurrence from its nodes.  The
monomial coefficients printed here come from that recurrence, and the Gram
matrix integrates them through the moments as an independent check.
"""

import math

import numpy as np

from micromaser import (
    PumpParameters,
    TimeMeasure,
    TruncatedSpace,
    build_basis,
    cross_moment_identity,
    expansion_coeffs,
    kraus_operators,
)

# orthonormal polynomials of the exponential measure
measure = TimeMeasure.exponential()
basis = build_basis(measure, 4)
print("orthonormal polynomials of the exponential waiting-time measure")
for k in range(4):
    terms = " + ".join(
        f"{c:+.4g} x^{j}" for j, c in enumerate(basis.coeffs[k]) if abs(c) > 1e-14
    )
    print(f"  f_{k}(x) = {terms}")

gram = np.array(
    [[basis.inner(basis.coeffs[i], basis.coeffs[j])
      for j in range(basis.degree + 1)]
     for i in range(basis.degree + 1)]
)
print(f"Gram matrix defect |<f_i, f_j> - delta_ij| max: "
      f"{np.abs(gram - np.eye(basis.degree + 1)).max():.2e}")

# the expansion coefficients a_nk of x^n obey sum_k a_nk a_mk = (n+m)!
print("\ncross-moment identity sum_k a_nk a_mk = (n+m)!:")
for n, m in ((1, 1), (2, 1), (2, 2), (3, 1)):
    got = cross_moment_identity(basis, n, m)
    print(f"  n={n}, m={m}: {got:12.4f}  vs  {math.factorial(n + m):>6d}")

print("\nexpansion of x^3 in the basis:", np.round(expansion_coeffs(basis, 3), 6))

# a two-point interaction-time distribution works just as well
two_point = TimeMeasure.discrete([0.5, 1.5], [0.5, 0.5])
basis2 = build_basis(two_point, 1)
print("\ntwo-atom-velocity distribution, first polynomial:",
      np.round(basis2.coeffs[1], 6))

# finite-time Kraus channels resolve the identity on the interior
params = PumpParameters(g_tau_bar=1.0, r=8.0)
space = TruncatedSpace(12)
kraus = kraus_operators(params, g_tau=0.4, dt=0.05, space=space)
defect = kraus.completeness_defect()
d = space.dim
print(f"\nKraus channel with {len(kraus.operators)} operators: "
      f"interior completeness defect {np.abs(defect[:d-1, :d-1]).max():.2e}")
print(f"boundary entry (truncation leak, expected): {defect[d-1, d-1].real:.2e}")
