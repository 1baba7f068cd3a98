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
real part, i.e. exp(-x3 G^+) decays with increasing depth. The collector's
factor alpha33/(2 gamma1) is odd in rho^(1/2), a11, a21, a22 are free of it,
and +, * and ``diff`` keep grade parity, so y^-_d = sigma(y^+_d), sigma the
flip rho^(1/2) -> -rho^(1/2) (``SymbolForm.flip_root``): the - branch is
the + collector's run, flipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    ONE,
    S,
    XI1,
    XI2,
    Expr,
    VarId,
    ZERO,
    _cyclic_gc_paused,
    _intern,
    const,
    node_count,
    recip,
    sqrt_,
)
from .medium import MediumSpec
from .symbols import (
    SymbolForm,
    compose_degree_part,
    radicand,
    symbol_total,
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


class ExpansionError(Exception):
    pass


def gamma1(m: MediumSpec) -> Expr:
    """Degree-1 vertical symbol alpha33^(1/2) (s^2 kappa + Qt xi.xi)^(1/2).

    Principal branch throughout; for Re s > 0 with |arg s| < pi/2 the
    radicand stays off the closed negative real axis (evaluation raises
    if an argument ever lands on the cut).
    """
    return m._cache("gamma1", lambda: sqrt_(m.alpha[2][2]) * sqrt_(radicand(m).expr))


def _antisym_drift(m: MediumSpec) -> Expr:
    # i xi_mu (alpha_{3 mu} - alpha_{mu 3})
    return const(1j) * (
        XI1 * (m.alpha[2][0] - m.alpha[0][2]) + XI2 * (m.alpha[2][1] - m.alpha[1][2])
    )


def _check_sign(sign):
    if sign not in (1, -1):
        raise ExpansionError("sign must be +1 (down-going) or -1 (up-going)")


def leading_term(m: MediumSpec, sign: int) -> Expr:
    """Degree-0 admittance symbol s^-1 (-(1/2) i xi_mu (a_{3mu}-a_{mu3}) +- gamma1)."""
    _check_sign(sign)

    return m._cache(
        f"y0[{sign}]",
        lambda: recip(S) * (const(-0.5) * _antisym_drift(m) + const(sign) * gamma1(m)),
    )


# ---------------------------------------------------------------------------
# the degree collector


def _a33_over_2gamma(m: MediumSpec) -> SymbolForm:
    """alpha33 / (2 gamma1) as a form, built once per medium."""
    return m._cache(
        "a33_over_2gamma",
        lambda: SymbolForm.lift(radicand(m), m.alpha[2][2] * recip(const(2) * gamma1(m))),
    )


def _generator_terms(m: MediumSpec, y_terms: dict) -> dict:
    """Graded generator symbol a21 y + a22, i.e.
    s alpha33^-1 y + i xi_mu alpha_{3 mu} alpha33^-1.

    Maps degree -> form: y_j contributes at degree j + 1, and a22
    joins the degree-1 slot.
    """
    A = systems_symbols(m)
    out = {j + 1: A.a21[1] * yj for j, yj in y_terms.items()}
    out[1] = out.get(1, ZERO) + A.a22.get(1, ZERO)
    return out


def riccati_degree_part(m: MediumSpec, eta: int, y_terms: dict, d: int) -> SymbolForm:
    """Degree-d part of the full admittance symbol equation.

    ``y_terms`` maps degree -> SymbolForm (as in ``AdmittanceExpansion.forms``).
    With y complete through all retained degrees the result evaluates
    to ~0 for every cancelled degree; with terms through degree -n it
    gives (for d = -n) the inhomogeneity that determines y_{-n-1}.
    Above degree 1 nothing contributes and the result is the zero form.
    """
    A = systems_symbols(m)
    acc = SymbolForm(radicand(m), {})
    acc = acc + compose_degree_part(y_terms, _generator_terms(m, y_terms), d)
    acc = acc - compose_degree_part(A.a11, y_terms, d)
    acc = acc - A.a12.get(d, ZERO)
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
    return (-sign) * _a33_over_2gamma(m) * e


# ---------------------------------------------------------------------------
# expansion container and driver


@dataclass(frozen=True, eq=False)
class AdmittanceExpansion:
    """Terms y_0 .. y_{-order} of one branch, with eta baked in.

    ``forms`` maps each degree 0 .. -order to its term as a SymbolForm;
    it is the one stored representation. ``term(d)`` is its expression,
    each form lowered once (the leading term lowers to the expression it
    was lifted from). The - corrections are flipped + forms, sharing their DAG.
    """

    medium: MediumSpec
    sign: int
    eta: int
    order: int
    forms: dict  # degree -> SymbolForm, degrees 0, -1, ..., -order

    def __post_init__(self):
        if sorted(self.forms) != list(range(-self.order, 1)):
            raise ExpansionError(f"forms must cover degrees 0 .. {-self.order}")

    def term(self, degree: int) -> Expr:
        f = self.forms.get(degree)
        return ZERO if f is None else f.lower()

    def series(self, trunc: int | None = None) -> dict:
        """y_0 + ... + y_{-trunc} as a degree -> SymbolForm map (the
        whole expansion by default), ready to quantize."""
        trunc = self.order if trunc is None else trunc
        if not 0 <= trunc <= self.order:
            raise ExpansionError(
                f"truncation {trunc} is outside 0 .. {self.order}, the expansion order"
            )
        return {-k: self.forms[-k] for k in range(trunc + 1)}


def _check_term(e: Expr, degree: int, node_cap: int, check_degree: bool):
    """Cap a term's DAG size and, with ``check_degree``, check that its
    structural degree (``Expr.degree``, proved as the nodes were built)
    is the declared one. ZERO is homogeneous of every degree. Nothing is
    evaluated.

    Every live node is in the intern table, so the table's size bounds
    the term's node count: the term is walked (``node_count``) only when
    the table holds more than ``node_cap`` nodes, and the cap raises in
    exactly the cases an exact count over every term would."""
    if len(_intern) > node_cap:
        size = node_count(e)
        if size > node_cap:
            raise ExpansionError(f"term of degree {degree} has {size} nodes (cap {node_cap})")
    if check_degree and e is not ZERO and e.degree != degree:
        raise ExpansionError(
            f"term declared at degree {degree} has structural degree {e.degree}"
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
    expression once and capped in DAG size. With ``check_terms`` (the
    default) its structural degree must equal its declared degree, a
    comparison, not an evaluation: every node carries its degree from
    construction. The leading term is ``leading_term``'s expression
    itself. The collector runs with sign +1 and sign -1 flips its forms
    (module docstring), so a - call after a live + one reruns on interned nodes.
    """
    _check_sign(sign)
    if eta not in (0, 1):
        raise ExpansionError("eta must be 0 or 1")
    if not 0 <= order <= MAX_ORDER:
        raise ExpansionError(f"order must be between 0 and {MAX_ORDER}")
    forms = {0: SymbolForm.lift(radicand(m), leading_term(m, 1))}
    with _cyclic_gc_paused():
        for n in range(order):
            form = collector_step(m, eta, 1, forms, n)
            _check_term(form.lower(), -n - 1, node_cap, check_terms)
            forms[-n - 1] = form
    if sign < 0:
        forms = {d: f.flip_root() for d, f in forms.items()}
        forms[0] = SymbolForm.lift(radicand(m), leading_term(m, -1))
    return AdmittanceExpansion(medium=m, sign=sign, eta=eta, order=order, forms=forms)


# ---------------------------------------------------------------------------
# split symbols


@dataclass(frozen=True, eq=False)
class SplitSymbols:
    """Splitting data built from the two admittance branches.

    ``g_forms`` (+, -) generate the two one-way evolutions and
    ``ell_forms`` is the 2x2 composition matrix (row 0 the admittance
    symbols, row 1 ones), every entry a degree -> SymbolForm map; the
    generators hold degrees 1 .. 1 - order and ell stops at
    ``ell_floor``. These forms are the one stored representation: the
    gauge transforms compose them, the marchers quantize them (a kernel
    build separates their x-by-xi products itself), and
    ``order_claim_check`` measures the orders of ell o g and d3 ell from
    their lowered terms by Taylor jets. Construction lowers every form
    once, so those checks build no DAG node.
    """

    medium: MediumSpec
    eta: int
    order: int
    g_forms: tuple
    ell_forms: tuple
    ell_floor: int

    def __post_init__(self):
        for forms in (*self.g_forms, *self.ell_forms[0], *self.ell_forms[1]):
            for f in forms.values():
                f.lower()

    def g_symbol(self, sign: int) -> dict:
        """The generator of one branch, a degree -> SymbolForm map."""
        _check_sign(sign)
        return self.g_forms[0] if sign > 0 else self.g_forms[1]


def _generator_forms(branch: AdmittanceExpansion) -> dict:
    """g = a21 y + a22 of one branch as a degree -> SymbolForm map. The
    top term is built from the expressions, like the leading term, and
    lifted, so it lowers to that expression; the lower ones are the
    forms a21 y_j."""
    m = branch.medium
    A = systems_symbols(m)
    a21 = A.a21[1]
    top = a21.lower() * branch.term(0) + symbol_total(A.a22)
    forms = {1: SymbolForm.lift(radicand(m), top)}
    for d, f in branch.forms.items():
        if d < 0 and f.terms:
            forms[d + 1] = a21 * f
    return forms


def split_symbols(plus: AdmittanceExpansion, minus: AdmittanceExpansion) -> SplitSymbols:
    """Assemble the splitting symbols from the two branches' forms.

    g+- = a21 y+- + a22 and ell row 0 (the branches' own forms, zero
    forms left out) are forms; row 1 is the grade-0 one. The marchers
    quantize the generators, and the gauge transforms compose them.
    """
    if plus.sign != 1 or minus.sign != -1:
        raise ExpansionError("split_symbols expects (plus, minus) branches in that order")
    if plus.medium is not minus.medium:
        raise ExpansionError("branches must share one medium")
    if plus.eta != minus.eta or plus.order != minus.order:
        raise ExpansionError("branches must share eta and order")
    row0 = tuple({d: f for d, f in b.forms.items() if f.terms} for b in (plus, minus))
    row1 = {0: SymbolForm(radicand(plus.medium), {0: ONE})}
    return SplitSymbols(
        medium=plus.medium,
        eta=plus.eta,
        order=plus.order,
        g_forms=tuple(_generator_forms(b) for b in (plus, minus)),
        ell_forms=(row0, (row1, row1)),
        ell_floor=-plus.order,
    )
