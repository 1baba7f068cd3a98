"""Tour of the expression layer: parse, evaluate, differentiate, fold.

Every coefficient and symbol term in the package is one of these
immutable expression nodes, so this is the vocabulary everything else
speaks.
"""

import numpy as np

from anisosplit import VarId, diff, eval_expr, free_vars, node_count, parse, to_text

# Parse a formula in the six variables x1 x2 x3 xi1 xi2 s. Imaginary
# literals use a trailing i.
e = parse("sqrt(s^2 + xi1^2 + xi2^2) + 0.5i * x1 * xi2")
print("expression:", to_text(e))
print("free variables:", sorted(v.name for v in free_vars(e)))

# Scalar evaluation: bind every free variable.
env = {VarId.X1: 0.3, VarId.XI1: 0.8, VarId.XI2: -0.6, VarId.S: 1.2 + 0.4j}
print("value at one point:", eval_expr(e, env))

# Vectorized evaluation: any binding may be an ndarray; results broadcast.
xs = np.linspace(0.0, 1.0, 5)
env_vec = {VarId.X1: xs, VarId.XI1: 0.8, VarId.XI2: -0.6, VarId.S: 1.2 + 0.4j}
print("values along x1:", np.round(eval_expr(e, env_vec), 4))

# Differentiation is symbolic and prunes branches that cannot depend on
# the variable.
de = diff(e, VarId.XI1)
print("d/dxi1:", to_text(de))
print("d/dx3 is the zero node:", to_text(diff(e, VarId.X3)))

# Equal-form subtrees are interned: building the same formula twice
# yields the very same node, and differences of identical forms fold to
# zero during construction.
a = parse("x1 * xi2 + sin(x3)")
b = parse("x1 * xi2 + sin(x3)")
print("reparsed formula is the same object:", a is b)

big = parse("(x1*xi2 + sin(x3)) - (x1*xi2 + sin(x3)) + s")
print("identical-form cancellation:", to_text(big))

# The constructors are the one normal form: each node folds constants,
# prunes 0 and 1 and pulls constants to the front as it is built, so
# there is no separate simplification pass to run afterwards.
messy = parse("2*(3*x1) + 0*x2 - x3^1*1 + sqrt(xi1)^2")
print("folded at construction:", to_text(messy), "nodes:", node_count(messy))
