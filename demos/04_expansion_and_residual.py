"""Computing the admittance expansion and measuring its residual decay.

The expansion is a finite list of homogeneous terms y_0, y_{-1}, ...;
substituting the truncation into the full symbol equation leaves a
remainder whose size, along the scaling ray (xi, s) -> (L xi, L s),
falls like L^{-N} for an order-N truncation. The fitted slope is the
order check.
"""

import numpy as np

from anisosplit import expand, node_count, presets, riccati_residual
from anisosplit.oracle import draw_probe_points

m = presets.heterogeneous_full()

exp = expand(m, sign=1, eta=1, order=2)
print("branch +, eta=1, order 2")
for d in exp.forms:
    print(f"  degree {d:+d}: {node_count(exp.term(d))} nodes")

# eta=1 keeps the depth-derivative term in the generator equation; the
# eta=0 terms differ from it starting at degree -1 once the medium
# depends on x3.
exp0 = expand(m, sign=1, eta=0, order=2)
print("eta=0 vs eta=1 share y0:", exp0.term(0) is exp.term(0))

pts = draw_probe_points(m, 4, np.random.default_rng(1))
print("\nresidual decay along the scaling ray:")
print("order   fitted slope   rms at L=64")
for order in (1, 2):
    rep = riccati_residual(expand(m, 1, 1, order), points=pts)
    at64 = rep.rms[list(rep.lambdas).index(64.0)]
    print(f"  {order}     {rep.slope:+.3f}        {at64:.3e}")
print("(expected slopes -1, -2)")
