"""Diagonal gauges of the splitting and the symbol parametrix.

The splitting matrix is only fixed up to a diagonal symbol factor.
Constant gauges relabel the one-way components without touching the
generators; the impedance gauge rescales the columns so the pressure
row of the composition matrix becomes (1, 1).
"""

import numpy as np

from anisosplit import (
    NormalizationSpec,
    VarId,
    apply_normalization,
    compose_degree_part,
    draw_probe_points,
    eval_expr,
    expand,
    presets,
    split_symbols,
    symbol_inverse,
    symbol_total,
)

m = presets.heterogeneous_full()
split = split_symbols(expand(m, 1, 1, 2), expand(m, -1, 1, 2))

# The split's generators g+- and composition matrix ell are degree ->
# SymbolForm maps; symbol_total sums one into a single expression.
# Constant diag(m, m') gauge: generators are invariant.
spec = NormalizationSpec(kind="constant", m=2 + 1j, mprime=0.5 - 0.25j)
out = apply_normalization(split, spec)
pts = np.asarray(draw_probe_points(m, 10, np.random.default_rng(2)), dtype=complex)
env = {
    VarId.X1: pts[:, 0].real, VarId.X2: pts[:, 1].real, VarId.X3: pts[:, 2].real,
    VarId.XI1: pts[:, 3].real, VarId.XI2: pts[:, 4].real, VarId.S: pts[:, 5],
}
gap = np.max(np.abs(eval_expr(symbol_total(out.g_symbol(1)) - symbol_total(split.g_symbol(1)), env)))
print(f"constant gauge, change in g+: {gap:.2e} (should vanish)")

# Impedance gauge on a homogeneous medium: the composition matrix rows
# become (1, 1) and (1/y0+, 1/y0-). The entries stay in quotient form
# symbolically, but evaluate to the displayed matrix.
hm = presets.homogeneous_anisotropic()
hsplit = split_symbols(expand(hm, 1, 0, 2), expand(hm, -1, 0, 2))
imp = apply_normalization(hsplit, NormalizationSpec(kind="impedance"))
henv = {VarId.X1: 0.0, VarId.X2: 0.0, VarId.X3: 0.0, VarId.XI1: 0.8, VarId.XI2: -0.6, VarId.S: 1.2 + 0.4j}
row = [eval_expr(symbol_total(imp.ell_forms[0][j]), henv) for j in range(2)]
print(f"impedance gauge, pressure row at a probe: {row[0]:.12f}, {row[1]:.12f}")

# Parametrix: a two-term inverse of the admittance symbol cancels the
# composition to the retained depth. Symbols here are degree -> SymbolForm
# maps (graded by powers of rho^(1/2)); the top term is inverted in closed
# form, (A + B rho^(1/2))^-1 = (A - B rho^(1/2)) / (A^2 - B^2 rho).
exp = expand(m, 1, 1, 2)
y = exp.forms
z = symbol_inverse(y, 2)
c = {d: compose_degree_part(z, y, d).lower() for d in (0, -1)}
resid0 = np.max(np.abs(eval_expr(c[0], env) - 1.0))
resid1 = np.max(np.abs(eval_expr(c[-1], env)))
print(f"\nparametrix: |z#y - 1| at degree 0: {resid0:.2e}, degree -1: {resid1:.2e}")
