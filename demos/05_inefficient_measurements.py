"""Where the purification bound breaks: inefficient measurements.

If the observer only learns which GROUP of outcomes fired, the final
state is a group average and the entropy gain can turn negative. The
classic construction: a basis measurement unbiased to the eigenbasis of
rho, with all outcomes merged, leaves the observer maximally mixed --
index information zero, entropy gain negative.

Mixing that unbiased measurement with a commuting (classical) one, with
outcome j of either parent in one group (what ``mix_measurements``
returns), yields points where BOTH gains are positive yet the index
information exceeds the entropy gain, violating the efficient-measurement
ordering.
"""

import numpy as np

from qbound import (Measurement, coarse_grain, info_gain_f, mix_measurements,
                    mutual_information, pure_state)
from qbound.qobjects import Ensemble

ensemble = Ensemble([0.75, 0.25], [pure_state([1, 0]), pure_state([0, 1])])
z_basis = Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
plus = np.outer([1, 1], [1, 1]) / 2.0
x_basis = Measurement([plus, np.eye(2) - plus])

print("Encoding: 3/4 |0><0| + 1/4 |1><1|  (rho = diag(3/4, 1/4))\n")

print("Fully merged X-basis measurement (outcome discarded):")
merged_x = Measurement(x_basis.kraus, groups=[[0, 1]])
a = coarse_grain(merged_x, ensemble)
print("  info_i = %.3e (nothing learned about the symbol)"
      % mutual_information(a))
print("  info_f = %+.6f (final state is maximally mixed: entropy went UP)\n"
      % info_gain_f(a))

print("Sweep of the X/Z mixture with outcomes merged across parents:")
print("%8s %10s %10s %12s" % ("lam(X)", "info_i", "info_f", "violation?"))
violations = 0
for lam in np.linspace(0.0, 1.0, 21):
    a = coarse_grain(mix_measurements(x_basis, z_basis, float(lam)), ensemble)
    ii, ff = mutual_information(a), info_gain_f(a)
    bad = ii > ff + 1e-8 and ii > 1e-8 and ff > 1e-8
    violations += bad
    mark = "  <-- info_i > info_f > 0" if bad else ""
    print("%8.2f %10.6f %10.6f %12s%s" % (lam, ii, ff, str(bad), mark))

print("\n%d sweep points violate the efficient-measurement ordering." % violations)
assert violations > 0
