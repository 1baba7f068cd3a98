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
lowered. The step functions take and return SymbolForms; acceptance
criterion 3 checks this collector, step by step, against the closed-form
recursion.

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

from dataclasses import dataclass
from functools import cached_property, partial

from .expr import (
    Expr,
    VarId,
    ZERO,
    _cyclic_gc_paused,
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
    """The recursion's fixed inputs as SymbolForms: the graded systems
    symbols and alpha33 / (2 gamma1)."""

    a11: dict
    a12: dict
    a21: SymbolForm
    a22: SymbolForm
    a33_over_2gamma: SymbolForm


def _kit(m: MediumSpec) -> _Kit:
    """The medium's recursion inputs lifted to forms, built once per medium."""

    def build():
        A = systems_symbols(m)
        rho = radicand(m)

        def lift(e):
            return SymbolForm.lift(rho, e)

        return _Kit(
            a11={d: lift(e) for d, e in A.a11.terms.items()},
            a12={d: lift(e) for d, e in A.a12.terms.items()},
            a21=lift(A.a21.term(1)),
            a22=lift(A.a22.term(1)),
            a33_over_2gamma=lift(m.alpha[2][2] * recip(const(2) * gamma1(m).expr)),
        )

    return m._cache("form_kit", build)


def _generator_terms(kit: _Kit, y_terms: dict) -> dict:
    """Graded generator symbol a21 y + a22, i.e.
    s alpha33^-1 y + i xi_mu alpha_{3 mu} alpha33^-1.

    Maps degree -> form: y_j contributes at degree j + 1, and a22
    joins the degree-1 slot.
    """
    out = {j + 1: kit.a21 * yj for j, yj in y_terms.items()}
    out[1] = out.get(1, ZERO) + kit.a22
    return out


def riccati_degree_part(m: MediumSpec, eta: int, y_terms: dict, d: int) -> SymbolForm:
    """Degree-d part of the full admittance symbol equation.

    ``y_terms`` maps degree -> SymbolForm (as in ``AdmittanceExpansion.forms``).
    With y complete through all retained degrees the result evaluates
    to ~0 for every cancelled degree; with terms through degree -n it
    gives (for d = -n) the inhomogeneity that determines y_{-n-1}.
    Above degree 1 nothing contributes and the result is the zero form.
    """
    kit = _kit(m)
    acc = SymbolForm(radicand(m), {})
    acc = acc + compose_degree_part(y_terms, _generator_terms(kit, y_terms), d)
    acc = acc - compose_degree_part(kit.a11, y_terms, d)
    acc = acc - kit.a12.get(d, ZERO)
    if eta and d in y_terms:
        acc = acc - y_terms[d].diff(VarId.X3)
    return acc


def collector_step(m: MediumSpec, eta: int, sign: int, y_terms: dict, n: int) -> SymbolForm:
    """Solve the degree -n balance for y_{-n-1}, SymbolForms in and out.

    This is the collector ``expand`` runs; the test suite checks it
    against the closed-form recursion (acceptance criterion 3).
    """
    _check_sign(sign)
    e = riccati_degree_part(m, eta, y_terms, -n)
    return (-sign) * _kit(m).a33_over_2gamma * e


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
    access and kept; p is truncated one degree above the floor of ell.
    g+- are written once, in the compact form the expansion's terms
    lower to, and serve both composition and quantization (a kernel
    build separates their x-by-xi products itself).
    """

    medium: MediumSpec
    eta: int
    order: int
    g_plus: PolyhomSymbol
    g_minus: PolyhomSymbol
    ell: tuple

    @cached_property
    def d3_ell(self) -> tuple:
        return tuple(tuple(_d3_symbol(entry) for entry in row) for row in self.ell)

    @cached_property
    def p(self) -> tuple:
        return tuple(
            tuple(compose(e, g, e.low_degree + 1) for e, g in zip(row, (self.g_plus, self.g_minus)))
            for row in self.ell
        )

    def g_symbol(self, sign: int) -> PolyhomSymbol:
        _check_sign(sign)
        return self.g_plus if sign > 0 else self.g_minus


def _generator_symbol(branch: AdmittanceExpansion, floor: int) -> PolyhomSymbol:
    """g = a21 y + a22 of one branch. The top term is built from the
    expressions, like the leading term; the lower ones are lowered once
    from the forms a21 y_j."""
    m = branch.medium
    A = systems_symbols(m)
    g = {1: simplify(simplify(A.a21.term(1) * branch.term(0)) + A.a22.term(1))}
    a21 = _kit(m).a21
    for t, f in zip(branch.terms[1:], branch.forms[1:]):
        g[t.degree + 1] = (a21 * f).lower()
    return PolyhomSymbol(g, floor=floor)


def split_symbols(plus: AdmittanceExpansion, minus: AdmittanceExpansion) -> SplitSymbols:
    """Assemble the splitting symbols from the two branches.

    Each generator g+- = a21 y+- + a22 is lowered once, term by term from
    the branch's forms. The marchers quantize these very symbols, and
    ``p`` and the gauge transforms compose them.
    """
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
    g_plus, g_minus = (_generator_symbol(b, 1 - order) for b in (plus, minus))
    return SplitSymbols(
        medium=plus.medium,
        eta=plus.eta,
        order=order,
        g_plus=g_plus,
        g_minus=g_minus,
        ell=ell,
    )
