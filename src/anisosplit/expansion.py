"""Asymptotic expansion of the acoustic admittance symbol.

The admittance operator maps the pressure trace to the vertical velocity
trace and satisfies an operator Riccati equation driven by the 2x2
systems symbols. Its symbol y has a polyhomogeneous expansion
y ~ y_0 + y_-1 + ... with y_d homogeneous of degree d in (xi, s). This
module builds the expansion two independent ways:

* a generic degree collector that extracts the degree -n part of the
  full symbol equation and solves for the next term (the ground truth
  used by ``expand``), and
* the boxed closed-form recursion (``closed_form_step``), kept as a
  cross-check.

The switch eta in {0, 1} selects the approximate (eta=0, depth
derivative of the splitting dropped) or true-amplitude (eta=1)
decomposition; it enters the recursion through an eta * d/dx3 term and
is baked into an expansion at construction.

Sign convention: sign=+1 is the down-going branch. The principal square
root gives Re gamma1 > 0 for Re s > 0, and the degree-1 split symbol
g_1^+ = alpha33^-1 (s y_0^+ + i xi_mu alpha_{3 mu}) then has positive
real part, i.e. exp(-x3 G^+) decays with increasing depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import (
    Expr,
    VarId,
    ZERO,
    const,
    diff,
    ipow,
    mul,
    neg,
    node_count,
    recip,
    simplify,
    sqrt_,
    variable,
)
from .medium import MediumSpec, schur
from .symbols import (
    PolyhomSymbol,
    SymbolError,
    SymbolTerm,
    _d3_symbol,
    _multi_indices,
    compose,
    compose_degree_part,
    homogeneity_check,
    systems_symbols,
    x_derivative,
    xi_derivative,
)

__all__ = [
    "ExpansionError",
    "AdmittanceExpansion",
    "SplitSymbols",
    "gamma1",
    "leading_term",
    "riccati_degree_part",
    "collector_step",
    "closed_form_step",
    "expand",
    "split_symbols",
    "MAX_ORDER",
]

MAX_ORDER = 6

_XI1 = variable(VarId.XI1)
_XI2 = variable(VarId.XI2)
_S = variable(VarId.S)


class ExpansionError(Exception):
    pass


def gamma1(m: MediumSpec) -> SymbolTerm:
    """Degree-1 vertical symbol alpha33^(1/2) (s^2 kappa + Qt xi.xi)^(1/2).

    Principal branch throughout; for Re s > 0 with |arg s| < pi/2 the
    radicand stays off the closed negative real axis (evaluation raises
    if an argument ever lands on the cut).
    """

    def build():
        sd = schur(m)
        xis = (_XI1, _XI2)
        form = ZERO
        for mu in range(2):
            for nu in range(2):
                form = form + sd.Qt[mu][nu] * xis[mu] * xis[nu]
        rad = ipow(_S, 2) * m.kappa + form
        return SymbolTerm(simplify(sqrt_(m.alpha[2][2]) * sqrt_(rad)), 1)

    return m._cache("gamma1", build)


def _antisym_drift(m: MediumSpec) -> Expr:
    # i xi_mu (alpha_{3 mu} - alpha_{mu 3})
    return simplify(
        const(1j)
        * (
            _XI1 * (m.alpha[2][0] - m.alpha[0][2])
            + _XI2 * (m.alpha[2][1] - m.alpha[1][2])
        )
    )


def _check_sign(sign):
    if sign not in (1, -1):
        raise ExpansionError("sign must be +1 (down-going) or -1 (up-going)")


def leading_term(m: MediumSpec, sign: int) -> SymbolTerm:
    """Degree-0 admittance symbol s^-1 (-(1/2) i xi_mu (a_{3mu}-a_{mu3}) +- gamma1)."""
    _check_sign(sign)

    def build():
        g = gamma1(m)
        e = recip(_S) * (const(-0.5) * _antisym_drift(m) + const(sign) * g.expr)
        return SymbolTerm(simplify(e), 0)

    return m._cache(f"y0[{sign}]", build)


# ---------------------------------------------------------------------------
# the degree collector


def _generator_terms(m: MediumSpec, y_terms: dict) -> dict:
    """Graded generator symbol a21 y + a22, i.e.
    s alpha33^-1 y + i xi_mu alpha_{3 mu} alpha33^-1.

    Maps degree -> expression: y_j contributes at degree j + 1, and a22
    joins the degree-1 slot.
    """
    A = systems_symbols(m)
    a21 = A.a21.term(1)
    out = {j + 1: simplify(mul(a21, yj)) for j, yj in y_terms.items()}
    out[1] = simplify(out.get(1, ZERO) + A.a22.term(1))
    return out


def riccati_degree_part(m: MediumSpec, eta: int, y_terms: dict, d: int) -> Expr:
    """Degree-d part of the full admittance symbol equation.

    With y complete through all retained degrees this evaluates to ~0
    for every cancelled degree; with terms through degree -n it gives
    (for d = -n) the inhomogeneity that determines y_{-n-1}.
    """
    A = systems_symbols(m)
    acc = compose_degree_part(y_terms, _generator_terms(m, y_terms), d)
    acc = acc - compose_degree_part(A.a11.terms, y_terms, d)
    acc = acc - A.a12.term(d)
    if eta and d in y_terms:
        acc = acc - diff(y_terms[d], VarId.X3)
    return simplify(acc)


def collector_step(m: MediumSpec, eta: int, sign: int, y_terms: dict, n: int) -> Expr:
    """Solve the degree -n balance for y_{-n-1} (generic path)."""
    _check_sign(sign)
    e = riccati_degree_part(m, eta, y_terms, -n)
    g = gamma1(m)
    pref = simplify(mul(const(-sign), m.alpha[2][2] * recip(const(2) * g.expr)))
    return simplify(mul(pref, e))


# ---------------------------------------------------------------------------
# the closed-form recursion (independent of the collector)


def closed_form_step(m: MediumSpec, eta: int, sign: int, y_terms: dict, n: int) -> Expr:
    """Boxed recursion for y_{-n-1} given terms through degree -n.

    n = 0 uses the first-correction formula (with the divergence of the
    Schur complement); n >= 1 uses the general one with the quadratic
    sum over y_j y_k and the multi-index tail.
    """
    _check_sign(sign)
    if n < 0 or any(j < -n or j > 0 for j in y_terms):
        raise ExpansionError("closed_form_step needs exactly the terms y_0 .. y_{-n}")
    a33 = m.alpha[2][2]
    inv33 = recip(a33)
    f1 = simplify(m.alpha[0][2] * inv33)
    f2 = simplify(m.alpha[1][2] * inv33)
    a22_sym = simplify(const(1j) * (_XI1 * m.alpha[2][0] + _XI2 * m.alpha[2][1]) * inv33)
    g = gamma1(m)
    pref = simplify(mul(const(sign), a33 * recip(const(2) * g.expr)))

    def transport(y):
        t = diff(mul(f1, y), VarId.X1) + diff(mul(f2, y), VarId.X2)
        if eta:
            t = t + diff(y, VarId.X3)
        return t

    if n == 0:
        sd = schur(m)
        y0 = y_terms[0]
        brace = neg(recip(_S) * const(1j) * (sd.dQ[0] * _XI1 + sd.dQ[1] * _XI2))
        brace = brace + transport(y0)
        b1 = simplify(_S * inv33 * y0 + a22_sym)
        for beta in _multi_indices(1):
            tail = mul(const(-1j), mul(xi_derivative(y0, beta), x_derivative(b1, beta)))
            brace = brace - tail
        return simplify(mul(pref, brace))

    brace = transport(y_terms[-n])
    quad = ZERO
    for j in range(-n, 0):
        k = -n - 1 - j
        if -n <= k <= -1:
            quad = quad + mul(y_terms[j], y_terms[k])
    brace = brace - simplify(_S * inv33 * quad)
    for kk in range(1, n + 2):
        coeff_i = (-1j) ** kk
        for beta in _multi_indices(kk):
            bfact = math.factorial(beta[0]) * math.factorial(beta[1])
            for j in range(-n, 1):
                mdeg = kk - n - 1 - j
                if mdeg < -n or mdeg > 0:
                    continue
                inner = simplify(_S * inv33 * y_terms[mdeg])
                if mdeg == 0:
                    inner = simplify(inner + a22_sym)
                tail = mul(
                    const(coeff_i / bfact),
                    mul(xi_derivative(y_terms[j], beta), x_derivative(inner, beta)),
                )
                brace = brace - tail
    return simplify(mul(pref, brace))


# ---------------------------------------------------------------------------
# expansion container and driver


@dataclass(frozen=True, eq=False)
class AdmittanceExpansion:
    """Terms y_0 .. y_{-order} of one branch, with eta baked in."""

    medium: MediumSpec
    sign: int
    eta: int
    order: int
    gamma1: SymbolTerm
    terms: tuple  # SymbolTerm, degrees 0, -1, ..., -order

    def term(self, degree: int) -> Expr:
        for t in self.terms:
            if t.degree == degree:
                return t.expr
        return ZERO

    def term_map(self, trunc: int | None = None) -> dict:
        trunc = self.order if trunc is None else trunc
        return {t.degree: t.expr for t in self.terms if t.degree >= -trunc}

    def series(self, trunc: int | None = None) -> PolyhomSymbol:
        trunc = self.order if trunc is None else trunc
        if trunc > self.order:
            raise ExpansionError(f"truncation {trunc} exceeds expansion order {self.order}")
        return PolyhomSymbol(self.term_map(trunc), floor=-trunc)


def expand(
    m: MediumSpec,
    sign: int,
    eta: int,
    order: int,
    *,
    node_cap: int = 200_000,
    check_terms: bool = True,
) -> AdmittanceExpansion:
    """Build the admittance expansion to the requested order.

    Terms come from the degree collector; each is simplified, capped in
    DAG size, and (by default) smoke-tested for homogeneity at its
    declared degree. ``closed_form_step`` is deliberately not used here
    so the two paths stay independent.
    """
    _check_sign(sign)
    if eta not in (0, 1):
        raise ExpansionError("eta must be 0 or 1")
    if not 0 <= order <= MAX_ORDER:
        raise ExpansionError(f"order must be between 0 and {MAX_ORDER}")
    g = gamma1(m)
    y_terms = {0: leading_term(m, sign).expr}
    for n in range(order):
        nxt = collector_step(m, eta, sign, y_terms, n)
        size = node_count(nxt)
        if size > node_cap:
            raise ExpansionError(
                f"term of degree {-n - 1} has {size} nodes (cap {node_cap})"
            )
        if check_terms:
            rep = homogeneity_check(SymbolTerm(nxt, -n - 1), trials=4, tol=1e-7, box=m.box)
            if not rep.passed:
                raise ExpansionError(
                    f"degree {-n - 1} term failed the homogeneity smoke test "
                    f"(max rel error {rep.max_rel_error:.3e})"
                )
        y_terms[-n - 1] = nxt
    terms = tuple(SymbolTerm(y_terms[-k], -k) for k in range(order + 1))
    return AdmittanceExpansion(medium=m, sign=sign, eta=eta, order=order, gamma1=g, terms=terms)


# ---------------------------------------------------------------------------
# split symbols


@dataclass(frozen=True, eq=False)
class SplitSymbols:
    """Splitting data built from the two admittance branches.

    g_plus / g_minus generate the two one-way evolutions; ell is the 2x2
    composition matrix (row 0 the admittance symbols, row 1 ones),
    d3_ell its entrywise depth derivative, and p the entrywise
    composition ell o diag(g_plus, g_minus). Leading degrees: p has top
    degree 1 while d3_ell has top degree 0, one order lower.
    """

    medium: MediumSpec
    eta: int
    order: int
    g_plus: PolyhomSymbol
    g_minus: PolyhomSymbol
    ell: tuple
    d3_ell: tuple
    p: tuple

    def y_symbol(self, sign: int) -> PolyhomSymbol:
        _check_sign(sign)
        return self.ell[0][0] if sign > 0 else self.ell[0][1]

    def g_symbol(self, sign: int) -> PolyhomSymbol:
        _check_sign(sign)
        return self.g_plus if sign > 0 else self.g_minus


def split_symbols(plus: AdmittanceExpansion, minus: AdmittanceExpansion) -> SplitSymbols:
    """Assemble the splitting symbols from the two branches."""
    if plus.sign != 1 or minus.sign != -1:
        raise ExpansionError("split_symbols expects (plus, minus) branches in that order")
    if plus.medium is not minus.medium:
        raise ExpansionError("branches must share one medium")
    if plus.eta != minus.eta or plus.order != minus.order:
        raise ExpansionError("branches must share eta and order")
    order = plus.order
    floor_ell = -order
    ell = (
        (plus.series(), minus.series()),
        (
            PolyhomSymbol({0: const(1)}, floor=floor_ell),
            PolyhomSymbol({0: const(1)}, floor=floor_ell),
        ),
    )
    d3_ell = tuple(tuple(_d3_symbol(entry) for entry in row) for row in ell)
    floor_p = 1 - order
    g_plus, g_minus = (
        PolyhomSymbol(_generator_terms(branch.medium, branch.term_map()), floor=floor_p)
        for branch in (plus, minus)
    )
    p = tuple(
        tuple(
            compose(ell[i][j], (g_plus, g_minus)[j], floor_p)
            for j in range(2)
        )
        for i in range(2)
    )
    return SplitSymbols(
        medium=plus.medium,
        eta=plus.eta,
        order=order,
        g_plus=g_plus,
        g_minus=g_minus,
        ell=ell,
        d3_ell=d3_ell,
        p=p,
    )
