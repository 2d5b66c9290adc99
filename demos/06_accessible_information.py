"""Lower-bounding the accessible information by direct search.

The accessible information of an encoding is the best index information
any measurement can extract. For two equiprobable pure states it is known
exactly: the symmetric projective measurement attains ln 2 - H2(p) with
p = (1 - sqrt(1 - s^2)) / 2 (Levitin 1995), which makes a good benchmark
for the rank-one POVM search.
"""

import numpy as np

from qbound import (Ensemble, holevo_chi, maximize_mutual_info, pure_state,
                    two_state_reference)


def two_state_ensemble(overlap):
    alpha = np.arccos(overlap) / 2.0
    return Ensemble([0.5, 0.5],
                    [pure_state([np.cos(alpha), np.sin(alpha)]),
                     pure_state([np.cos(alpha), -np.sin(alpha)])])


print("Two equiprobable pure states with overlap s:")
print("%8s %12s %12s %12s %10s" %
      ("s", "search", "exact", "chi", "|dev|"))
for s in (0.0, 0.3, 1 / np.sqrt(2), np.cos(np.pi / 8), 0.95):
    ens = two_state_ensemble(float(s))
    res = maximize_mutual_info(ens, budget=12_000, restarts=3, seed=17)
    exact = two_state_reference(float(s))
    print("%8.4f %12.8f %12.8f %12.8f %10.1e" %
          (s, res.best_value, exact, holevo_chi(ens),
           abs(res.best_value - exact)))

print("""
The search value is always a certified lower bound (it is the index
information of an explicitly constructed complete POVM), stays within
1e-4 of the exact value here, and never crosses the Holevo quantity.
The returned measurement itself is available as res.best_measurement.""")

res = maximize_mutual_info(two_state_ensemble(0.5), budget=8_000, restarts=3,
                           seed=17)
print("Best measurement found for s=0.5 has %d outcomes; improvement trace:"
      % res.best_measurement.size)
for evals, value in res.trace[-4:]:
    print("  after %5d evaluations: %.8f" % (evals, value))
