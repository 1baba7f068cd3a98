"""Gauge transformations of the split system.

A diagonal symbol N = diag(n+, n-) renormalizes the split variables
u -> N u. The generators and composition maps transform as

    G~ = N o G o N^-1 - eta (d3 N) o N^-1,      L~ = L o N^-1,

entrywise in the diagonal slots, with everything carried out in the
truncated symbol calculus. Two stock choices are provided: a constant
diagonal diag(m, m'), and the impedance gauge n+- = y+- (first power of
the admittance), which for homogeneous media turns row 0 of L~ into
exact ones over the admittances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import VarId, const, eval_expr, mul, neg, recip, simplify
from .expansion import SplitSymbols
from .symbols import PolyhomSymbol, _d3_symbol, compose, compose_degree_part

__all__ = [
    "NormalizationError",
    "NormalizationSpec",
    "symbol_inverse",
    "apply_normalization",
    "apply_normalization_symbols",
]


class NormalizationError(Exception):
    pass


_PROBE_POINTS = (
    (0.31, 0.77, 0.13, 0.9, -0.4, 1.1 + 0.3j),
    (0.62, 0.18, 0.55, -0.7, 0.8, 0.8 - 0.2j),
    (0.05, 0.41, 0.93, 0.3, 1.1, 1.4 + 0.0j),
    (0.88, 0.66, 0.27, -1.2, -0.5, 0.6 + 0.5j),
    (0.47, 0.09, 0.71, 0.2, -0.9, 1.0 - 0.4j),
    (0.74, 0.52, 0.39, 1.0, 0.6, 0.9 + 0.1j),
)


def _ellipticity_probe(top_expr):
    vals = []
    for x1, x2, x3, xi1, xi2, s in _PROBE_POINTS:
        env = {
            VarId.X1: x1,
            VarId.X2: x2,
            VarId.X3: x3,
            VarId.XI1: xi1,
            VarId.XI2: xi2,
            VarId.S: s,
        }
        vals.append(abs(complex(eval_expr(top_expr, env))))
    if min(vals) < 1e-12 * (1.0 + max(vals)):
        raise NormalizationError(
            "top-degree term is not elliptic (vanishes at a probe point)"
        )


def symbol_inverse(y: PolyhomSymbol, order: int) -> PolyhomSymbol:
    """Parametrix of a polyhomogeneous symbol: z with z o y ~ 1.

    The top term must be elliptic (probed numerically; degenerate tops
    raise). The result has top degree -deg(y) and ``order`` correction
    terms below it, built by cancelling compose(z, y) degree by degree.
    Also a right parametrix to the same truncation order.
    """
    if y.is_zero:
        raise NormalizationError("cannot invert the zero symbol")
    if order < 0:
        raise NormalizationError("order must be nonnegative")
    top = y.top_degree
    ytop = y.terms[top]
    _ellipticity_probe(ytop)
    inv_top = simplify(recip(ytop))
    z_terms = {-top: inv_top}
    for r in range(1, order + 1):
        resid = compose_degree_part(z_terms, y.terms, -r)
        z_terms[-top - r] = simplify(mul(neg(inv_top), resid))
    return PolyhomSymbol(z_terms, floor=-top - order)


@dataclass(frozen=True)
class NormalizationSpec:
    """Choice of diagonal gauge.

    kind "constant": n+ = m, n- = mprime (nonzero complex constants).
    kind "impedance": n+- = y+- taken from the split being transformed
    (admittance power p = 1). The transform uses the split's own eta.
    """

    kind: str
    m: complex = 1.0 + 0j
    mprime: complex = 1.0 + 0j

    def __post_init__(self):
        if self.kind not in ("constant", "impedance"):
            raise NormalizationError(f"unknown normalization kind {self.kind!r}")
        if self.kind == "constant" and (self.m == 0 or self.mprime == 0):
            raise NormalizationError("constant gauge factors must be nonzero")

    def diagonal(self, split: SplitSymbols):
        if self.kind == "constant":
            floor = -split.order
            return (
                PolyhomSymbol({0: const(self.m)}, floor=floor),
                PolyhomSymbol({0: const(self.mprime)}, floor=floor),
            )
        return (split.ell[0][0], split.ell[0][1])


def apply_normalization_symbols(
    split: SplitSymbols, n_plus: PolyhomSymbol, n_minus: PolyhomSymbol
) -> SplitSymbols:
    """Transform a split by an explicit diagonal (n+, n-)."""
    order = split.order
    diag = (n_plus, n_minus)
    inv = tuple(symbol_inverse(n, order) for n in diag)

    g_out = []
    for n, ninv, g in zip(diag, inv, (split.g_plus, split.g_minus)):
        floor_g = 1 - order
        inner = compose(n, g, floor_g - ninv.top_degree)
        gt = compose(inner, ninv, floor_g)
        if split.eta:
            d3n = _d3_symbol(n)
            if not d3n.is_zero:
                gt = gt - compose(d3n, ninv, floor_g)
        g_out.append(gt)

    floor_l = -order + min(inv[0].top_degree, inv[1].top_degree)
    ell_out = tuple(
        tuple(compose(split.ell[i][j], inv[j], floor_l) for j in range(2))
        for i in range(2)
    )
    return SplitSymbols(
        medium=split.medium,
        eta=split.eta,
        order=order,
        g_plus=g_out[0],
        g_minus=g_out[1],
        ell=ell_out,
    )


def apply_normalization(split: SplitSymbols, spec: NormalizationSpec) -> SplitSymbols:
    """Transform a split by a stock gauge choice."""
    n_plus, n_minus = spec.diagonal(split)
    if n_plus.is_zero or n_minus.is_zero:
        raise NormalizationError("gauge diagonal must be invertible")
    return apply_normalization_symbols(split, n_plus, n_minus)
