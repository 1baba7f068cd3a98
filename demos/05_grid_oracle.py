"""Checking the expansion against a matrix Riccati solve on a grid.

For a depth-independent medium the admittance operator can be computed
non-perturbatively: discretize the transverse directions, build the
2n^2 x 2n^2 systems matrix, and split its spectrum with the matrix sign
function: the projectors (I +- sign A)/2 span the down- and up-going
invariant subspaces, and each admittance is read off its projector.
Successive truncations of the symbol expansion must approach that
operator.
"""

import numpy as np

from anisosplit import TransverseGrid, expand, grid_riccati_oracle, operator_distance, presets

TAU = 2 * np.pi

m = presets.transverse_anisotropic()
grid = TransverseGrid(16, TAU, TAU)
s = 40.0  # large real s separates the branch spectra cleanly

res = grid_riccati_oracle(m, grid, s)
print(f"spectral gap between branches: {res.gap:.2f}")
print(f"matrix Riccati residual (+): {res.riccati_rel_plus:.2e}")
print(f"matrix Riccati residual (-): {res.riccati_rel_minus:.2e}")

exp = expand(m, sign=1, eta=0, order=2)
print("\ntruncation order vs distance to the invariant-subspace operator:")
for k in (0, 1, 2):
    d = operator_distance(exp.series(k), res.y_plus, grid, s)
    print(f"  order {k}: {d:.3e}")
print("(each order should shave roughly a factor 1/s)")
