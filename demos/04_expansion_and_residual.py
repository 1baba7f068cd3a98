"""Computing the admittance expansion and checking it degree by degree.

The expansion is a finite list of homogeneous terms y_0, y_{-1}, ...;
substituting the truncation into the full symbol equation leaves a
remainder R whose summands are homogeneous too, so along the scaling
ray (xi, s) -> (L xi, L s) it is a sum of degree parts L^d R_d. An
order-N truncation must cancel every R_d with d > -N to float rounding;
the first part left, R_{-N}, makes the remainder fall like L^{-N}.
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
print("\nresidual by degree (rms R_d / rms of its summands) and its slope:")
print("order   worst cancelled   degree -N   fitted slope   rms at L=64")
for order in (1, 2):
    rep = riccati_residual(expand(m, 1, 1, order), points=pts)
    worst = max(r for d, r in rep.ratios.items() if d > -order)
    at64 = rep.rms[list(rep.lambdas).index(64.0)]
    print(
        f"  {order}     {worst:.1e}           {rep.ratios[-order]:.2e}    "
        f"{rep.slope:+.3f}         {at64:.3e}"
    )
print("(cancelled degrees at float rounding; expected slopes -1, -2)")
