"""The systems symbols and the leading admittance.

For a homogeneous medium the admittance symbol satisfies an exact
scalar quadratic, so the degree-0 term of the expansion can be checked
against plain root finding.
"""

import numpy as np

from anisosplit import (
    VarId,
    eval_expr,
    gamma1,
    leading_term,
    presets,
    quad_oracle,
    systems_symbols,
    to_text,
)

m = presets.homogeneous_anisotropic()

# The first-order system coefficients as symbols a11, a12, a21, a22,
# each a degree -> SymbolForm map; lower() gives a form's expression.
sym = systems_symbols(m)
print("a21 (degree 1):", to_text(sym.a21[1].lower()))

# gamma1 = sqrt(a33 (s^2 kappa + Qt xi.xi)) is the square root every
# branch shares; leading_term adds the skew part and the branch sign.
# Every expression carries its homogeneity degree in (xi, s) from
# construction.
g = gamma1(m)
print("gamma1 degree:", g.degree)

xi = np.array([0.8, -0.6])
s = 1.2 + 0.4j
env = {VarId.X1: 0.0, VarId.X2: 0.0, VarId.X3: 0.0, VarId.XI1: xi[0], VarId.XI2: xi[1], VarId.S: s}

y_plus = eval_expr(leading_term(m, 1), env)
y_minus = eval_expr(leading_term(m, -1), env)
print("y0+ =", y_plus)
print("y0- =", y_minus)

# Independent check: the two roots of a21 y^2 + (a22 - a11) y - a12 = 0,
# labelled by the sign of the would-be one-way generator.
roots = quad_oracle(m, xi[None, :], s)
print("quadratic roots:", roots.y_plus[0], roots.y_minus[0])
print("relative gap +:", abs(y_plus - roots.y_plus[0]) / abs(y_plus))
print("relative gap -:", abs(y_minus - roots.y_minus[0]) / abs(y_minus))

# Duality: the sum of the branches is skew data only, the difference is
# 2 gamma1 / s.
gv = eval_expr(g, env)
print("y0+ - y0- vs 2 gamma1/s:", y_plus - y_minus, 2 * gv / s)
