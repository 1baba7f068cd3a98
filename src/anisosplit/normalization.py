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

import numpy as np

from .expr import ZERO, VarId, _cyclic_gc_paused, const, eval_expr
from .expansion import SplitSymbols
from .oracle import _probe_env
from .symbols import SymbolForm, _compose, compose_degree_part, radicand

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
    vals = np.abs(eval_expr(top_expr, _probe_env(_PROBE_POINTS)))
    if np.min(vals) < 1e-12 * (1.0 + np.max(vals)):
        raise NormalizationError(
            "top-degree term is not elliptic (vanishes at a probe point)"
        )


def symbol_inverse(y: dict, order: int) -> dict:
    """Parametrix of a graded symbol: z with y o z ~ 1 and z o y ~ 1.

    ``y`` maps degree -> SymbolForm (as ``SplitSymbols.ell_forms``), and
    so does the result. The top term must be elliptic (probed
    numerically; degenerate tops raise). The result has top degree
    -deg(y), the form inverse of y's top term, and ``order`` correction
    terms below it, built by cancelling y o z degree by degree; it is
    also a left parametrix to the same truncation order. Cancelling
    y o z differentiates z in x only, as every later composition with z
    in a gauge transform does, so those derivatives are built once.
    """
    y = {d: f for d, f in y.items() if f.terms}
    if not y:
        raise NormalizationError("cannot invert the zero symbol")
    if order < 0:
        raise NormalizationError("order must be nonnegative")
    top = max(y)
    _ellipticity_probe(y[top].lower())
    inv_top = y[top]._power(-1)
    z = {-top: inv_top}
    for r in range(1, order + 1):
        f = -(inv_top * compose_degree_part(y, z, -r))
        if f.terms:
            z[-top - r] = f
    return z


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
        """(n+, n-) as degree -> SymbolForm maps."""
        if self.kind == "constant":
            rho = radicand(split.medium)
            return tuple({0: SymbolForm(rho, {0: const(v)})} for v in (self.m, self.mprime))
        return split.ell_forms[0]


def apply_normalization_symbols(split: SplitSymbols, n_plus: dict, n_minus: dict) -> SplitSymbols:
    """Transform a split by an explicit diagonal (n+, n-), each a degree
    -> SymbolForm map.

    Every step runs on forms (``compose_degree_part``, and
    ``SymbolForm.diff`` for d3 n); the result is built from the
    transformed forms, which ``SplitSymbols`` lowers once. A generator
    takes one composition with n^-1, as (n o g - eta d3 n) o n^-1. The
    cyclic collector is paused while the compositions build their nodes
    and the result lowers them: with it on, rescanning the live DAGs
    took more than half of an impedance gauge at order 3.
    """
    order = split.order
    floor_g = 1 - order
    diag = (n_plus, n_minus)
    with _cyclic_gc_paused():
        inv = tuple(symbol_inverse(n, order) for n in diag)
        g_forms = []
        for n, ninv, g in zip(diag, inv, split.g_forms):
            floor = floor_g - max(ninv)
            inner = _compose(n, g, floor)
            if split.eta:
                for d, f in n.items():
                    if d >= floor:
                        inner[d] = inner.get(d, ZERO) - f.diff(VarId.X3)
            g_forms.append(_compose(inner, ninv, floor_g))
        floor_l = -order + min(max(z) for z in inv)
        ell_forms = tuple(
            tuple(_compose(row[j], inv[j], floor_l) for j in range(2)) for row in split.ell_forms
        )
        return SplitSymbols(
            medium=split.medium,
            eta=split.eta,
            order=order,
            g_forms=tuple(g_forms),
            ell_forms=ell_forms,
            ell_floor=floor_l,
        )


def apply_normalization(split: SplitSymbols, spec: NormalizationSpec) -> SplitSymbols:
    """Transform a split by a stock gauge choice."""
    return apply_normalization_symbols(split, *spec.diagonal(split))
