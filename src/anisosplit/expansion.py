"""Asymptotic expansion of the acoustic admittance symbol.

The admittance operator maps the pressure trace to the vertical velocity
trace and satisfies an operator Riccati equation driven by the 2x2
systems symbols. Its symbol y has a polyhomogeneous expansion
y ~ y_0 + y_-1 + ... with y_d homogeneous of degree d in (xi, s). A
generic degree collector extracts the degree -n part of the full symbol
equation and solves for the next term. ``expand`` runs it on
``SymbolForm``s, sums of rho^(d/2) P_d with rho = s^2 kappa + Qt xi.xi
and P_d free of rho^(1/2): the recursion never differentiates a square
root, and each term's expression is built once, when its form is
lowered. The step functions also accept and return plain expressions.

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

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial

from .expr import (
    Expr,
    VarId,
    ZERO,
    _eval_walked,
    _walk,
    const,
    recip,
    simplify,
    sqrt_,
    variable,
)
from .medium import MediumSpec
from .symbols import (
    PolyhomSymbol,
    SymbolForm,
    SymbolTerm,
    _d3_symbol,
    _homogeneity_check,
    _partial,
    _tidy,
    compose,
    compose_degree_part,
    radicand,
    systems_symbols,
)

__all__ = [
    "ExpansionError",
    "AdmittanceExpansion",
    "SplitSymbols",
    "gamma1",
    "leading_term",
    "riccati_degree_part",
    "collector_step",
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
        rho = radicand(m).expr
        return SymbolTerm(simplify(sqrt_(m.alpha[2][2]) * sqrt_(rho)), 1)

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


@dataclass(frozen=True)
class _Kit:
    """The recursion's fixed inputs in one term type (Expr or SymbolForm):
    the graded systems symbols and alpha33 / (2 gamma1)."""

    a11: dict
    a12: dict
    a21: object
    a22: object
    a33_over_2gamma: object


def _kit(m: MediumSpec, forms: bool) -> _Kit:
    """The medium's recursion inputs as expressions, or lifted to forms."""

    def build():
        A = systems_symbols(m)
        kit = _Kit(
            a11=A.a11.terms,
            a12=A.a12.terms,
            a21=A.a21.term(1),
            a22=A.a22.term(1),
            a33_over_2gamma=m.alpha[2][2] * recip(const(2) * gamma1(m).expr),
        )
        if not forms:
            return kit
        rho = radicand(m)

        def lift(e):
            return SymbolForm.lift(rho, e)

        return _Kit(
            a11={d: lift(e) for d, e in kit.a11.items()},
            a12={d: lift(e) for d, e in kit.a12.items()},
            a21=lift(kit.a21),
            a22=lift(kit.a22),
            a33_over_2gamma=lift(kit.a33_over_2gamma),
        )

    return m._cache("form_kit" if forms else "expr_kit", build)


def _uses_forms(y_terms: dict) -> bool:
    return any(isinstance(t, SymbolForm) for t in y_terms.values())


def _generator_terms(kit: _Kit, y_terms: dict) -> dict:
    """Graded generator symbol a21 y + a22, i.e.
    s alpha33^-1 y + i xi_mu alpha_{3 mu} alpha33^-1.

    Maps degree -> term: y_j contributes at degree j + 1, and a22
    joins the degree-1 slot.
    """
    out = {j + 1: _tidy(kit.a21 * yj) for j, yj in y_terms.items()}
    out[1] = _tidy(out.get(1, ZERO) + kit.a22)
    return out


def riccati_degree_part(m: MediumSpec, eta: int, y_terms: dict, d: int):
    """Degree-d part of the full admittance symbol equation.

    With y complete through all retained degrees this evaluates to ~0
    for every cancelled degree; with terms through degree -n it gives
    (for d = -n) the inhomogeneity that determines y_{-n-1}. The terms
    are all expressions or all SymbolForms; the result has their type.
    """
    kit = _kit(m, _uses_forms(y_terms))
    acc = compose_degree_part(y_terms, _generator_terms(kit, y_terms), d)
    acc = acc - compose_degree_part(kit.a11, y_terms, d)
    acc = acc - kit.a12.get(d, ZERO)
    if eta and d in y_terms:
        acc = acc - _partial(y_terms[d], VarId.X3)
    return _tidy(acc)


def collector_step(m: MediumSpec, eta: int, sign: int, y_terms: dict, n: int):
    """Solve the degree -n balance for y_{-n-1} (expressions in,
    expression out; SymbolForms in, SymbolForm out)."""
    _check_sign(sign)
    e = riccati_degree_part(m, eta, y_terms, -n)
    pref = _tidy(const(-sign) * _kit(m, _uses_forms(y_terms)).a33_over_2gamma)
    return _tidy(pref * e)


# ---------------------------------------------------------------------------
# expansion container and driver


@dataclass(frozen=True, eq=False)
class AdmittanceExpansion:
    """Terms y_0 .. y_{-order} of one branch, with eta baked in.

    ``terms`` holds each term as one expression; ``forms`` holds the
    same terms as SymbolForms (the leading term lifted from its
    expression).
    """

    medium: MediumSpec
    sign: int
    eta: int
    order: int
    gamma1: SymbolTerm
    terms: tuple  # SymbolTerm, degrees 0, -1, ..., -order
    forms: tuple  # SymbolForm, the same degrees

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


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector while terms are built.

    An expansion allocates hundreds of thousands of long-lived nodes, and
    every full collection rescans all of them: about a fifth of an
    order-5 expand. Reference counting still frees acyclic garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_term(e: Expr, degree: int, node_cap: int, smoke_test: bool, box):
    """Cap a term's DAG size and, with ``smoke_test``, check its
    homogeneity, both from one walk of the DAG."""
    walk = _walk([e])
    size = len(walk[0])
    if size > node_cap:
        raise ExpansionError(f"term of degree {degree} has {size} nodes (cap {node_cap})")
    if smoke_test:
        rep = _homogeneity_check(
            SymbolTerm(e, degree), partial(_eval_walked, e, walk), 4, 1e-7, None, box
        )
        if not rep.passed:
            raise ExpansionError(
                f"degree {degree} term failed the homogeneity smoke test "
                f"(max rel error {rep.max_rel_error:.3e})"
            )


def expand(
    m: MediumSpec,
    sign: int,
    eta: int,
    order: int,
    *,
    node_cap: int = 1_500_000,
    check_terms: bool = True,
) -> AdmittanceExpansion:
    """Build the admittance expansion to the requested order.

    The collector runs on SymbolForms; each correction is lowered to one
    expression once, capped in DAG size, and (by default) smoke-tested
    for homogeneity at its declared degree. The leading term is
    ``leading_term``'s expression itself.
    """
    _check_sign(sign)
    if eta not in (0, 1):
        raise ExpansionError("eta must be 0 or 1")
    if not 0 <= order <= MAX_ORDER:
        raise ExpansionError(f"order must be between 0 and {MAX_ORDER}")
    y0 = leading_term(m, sign).expr
    forms = {0: SymbolForm.lift(radicand(m), y0)}
    terms = [SymbolTerm(y0, 0)]
    with _cyclic_gc_paused():
        for n in range(order):
            form = collector_step(m, eta, sign, forms, n)
            nxt = form.lower()
            _check_term(nxt, -n - 1, node_cap, check_terms, m.box)
            forms[-n - 1] = form
            terms.append(SymbolTerm(nxt, -n - 1))
    return AdmittanceExpansion(
        medium=m,
        sign=sign,
        eta=eta,
        order=order,
        gamma1=gamma1(m),
        terms=tuple(terms),
        forms=tuple(forms.values()),
    )


# ---------------------------------------------------------------------------
# split symbols


@dataclass(frozen=True, eq=False)
class SplitSymbols:
    """Splitting data built from the two admittance branches.

    g_plus / g_minus generate the two one-way evolutions; ell is the 2x2
    composition matrix (row 0 the admittance symbols, row 1 ones),
    d3_ell its entrywise depth derivative, and p the entrywise
    composition ell o diag(g_plus, g_minus). Leading degrees: p has top
    degree 1 while d3_ell has top degree 0, one order lower. The
    marchers read only g+- and ell, so d3_ell and p are built on first
    access and kept. p is composed from ``g_compact``: g+- written for
    symbolic composition (the same values as g+-), truncated one degree
    above the floor of ell.
    """

    medium: MediumSpec
    eta: int
    order: int
    g_plus: PolyhomSymbol
    g_minus: PolyhomSymbol
    ell: tuple
    g_compact: tuple = field(repr=False)

    @cached_property
    def d3_ell(self) -> tuple:
        return tuple(tuple(_d3_symbol(entry) for entry in row) for row in self.ell)

    @cached_property
    def p(self) -> tuple:
        return tuple(
            tuple(compose(e, g, e.low_degree + 1) for e, g in zip(row, self.g_compact))
            for row in self.ell
        )

    def g_symbol(self, sign: int) -> PolyhomSymbol:
        _check_sign(sign)
        return self.g_plus if sign > 0 else self.g_minus


def _generator_symbol(branch: AdmittanceExpansion, floor: int, monomials: bool) -> PolyhomSymbol:
    """g = a21 y + a22 of one branch. The top term comes from the
    expressions, like the leading term; the lower ones are lowered from
    the forms a21 y_j (see ``SymbolForm.lower`` for ``monomials``)."""
    m = branch.medium
    g = _generator_terms(_kit(m, False), {0: branch.term(0)})
    a21 = _kit(m, True).a21
    for t, f in zip(branch.terms[1:], branch.forms[1:]):
        g[t.degree + 1] = (a21 * f).lower(monomials=monomials)
    return PolyhomSymbol(g, floor=floor)


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
    floor_p = 1 - order
    # g+- are quantized, so they get the lowering with few nodes that
    # depend on both x and xi; p is composed symbolically, so it gets the
    # compact one (the same values, a much smaller derivative DAG)
    g_plus, g_minus = (_generator_symbol(b, floor_p, True) for b in (plus, minus))
    return SplitSymbols(
        medium=plus.medium,
        eta=plus.eta,
        order=order,
        g_plus=g_plus,
        g_minus=g_minus,
        ell=ell,
        g_compact=tuple(_generator_symbol(b, floor_p, False) for b in (plus, minus)),
    )
