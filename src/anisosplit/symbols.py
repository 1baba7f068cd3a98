"""Polyhomogeneous symbol calculus on the transverse torus.

Symbols are finite sums of terms, each an expression that is (jointly)
homogeneous of an integer degree in (xi1, xi2, s). The Laplace parameter
s scales like a wavenumber, so "degree" always means joint degree in
(xi, s). Composition follows the transverse Kohn-Nirenberg rule

    r ~ sum_beta (1/beta!) (d_xi^beta p) ((1/i) d_x^beta q),

with beta a 2-multi-index over (xi1, xi2)/(x1, x2); the target degree of
each contribution is deg p - |beta| + deg q, and a floor truncates the
sum. Quantization realizes a symbol as an operator on periodic grid
fields through the discrete inverse Fourier sum (the unmatched -N/2
Nyquist row/column of the input spectrum is always projected out).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .expr import (
    ONE,
    Expr,
    VarId,
    ZERO,
    _consumer_counts,
    _cyclic_gc_paused,
    _run,
    _walk,
    const,
    diff,
    eval_expr,
    free_vars,
    ipow,
    mul,
    neg,
    recip,
    simplify,
    sqrt_,
    sub,
    variable,
)
from .medium import MediumSpec, _coefficients, schur

__all__ = [
    "SymbolTerm",
    "SymbolForm",
    "PolyhomSymbol",
    "SymbolMatrix22",
    "TransverseGrid",
    "SymbolError",
    "systems_symbols",
    "compose",
    "compose_degree_part",
    "quantize_apply",
    "quantize_matrix",
    "homogeneity_check",
    "HomogeneityReport",
    "xi_derivative",
    "x_derivative",
    "random_smooth_field",
]


class SymbolError(Exception):
    pass


@dataclass(frozen=True)
class SymbolTerm:
    """One homogeneous component: an expression and its declared degree."""

    expr: Expr
    degree: int


def _is_zero_expr(e: Expr) -> bool:
    return e.op == "const" and e.data == 0


class PolyhomSymbol:
    """A finite polyhomogeneous sum with strictly decreasing degrees.

    ``terms`` maps degree -> expression (at most one term per degree;
    exact-zero expressions are dropped). ``low_degree`` is the truncation
    floor: degrees below it are unknown, not zero.
    """

    __slots__ = ("terms", "low_degree")

    def __init__(self, terms, floor=None):
        clean = {}
        for d, e in dict(terms).items():
            if isinstance(e, SymbolTerm):
                if e.degree != d:
                    raise SymbolError(f"term degree {e.degree} filed under {d}")
                e = e.expr
            if not isinstance(e, Expr):
                raise SymbolError("symbol terms must be expressions")
            if not _is_zero_expr(e):
                clean[int(d)] = e
        self.terms = dict(sorted(clean.items(), reverse=True))
        if floor is None:
            floor = min(self.terms) if self.terms else 0
        self.low_degree = int(floor)
        if self.terms and min(self.terms) < self.low_degree:
            raise SymbolError("term below the truncation floor")

    @classmethod
    def from_term(cls, expr, degree, floor=None):
        return cls({int(degree): expr}, floor=degree if floor is None else floor)

    @classmethod
    def zero(cls, floor=0):
        return cls({}, floor=floor)

    @property
    def top_degree(self):
        return max(self.terms) if self.terms else None

    @property
    def is_zero(self):
        return not self.terms

    def term(self, degree) -> Expr:
        return self.terms.get(degree, ZERO)

    def total(self) -> Expr:
        """The plain sum of all retained terms (no grading)."""
        acc = ZERO
        for _, e in self.terms.items():
            acc = acc + e
        return acc

    def truncate(self, floor) -> "PolyhomSymbol":
        return PolyhomSymbol({d: e for d, e in self.terms.items() if d >= floor}, floor=floor)

    def __add__(self, other):
        if not isinstance(other, PolyhomSymbol):
            return NotImplemented
        out = dict(self.terms)
        for d, e in other.terms.items():
            out[d] = simplify(out[d] + e) if d in out else e
        return PolyhomSymbol(out, floor=max(self.low_degree, other.low_degree))

    def __sub__(self, other):
        return self + other.scale(const(-1))

    def scale(self, factor, degree_shift=0) -> "PolyhomSymbol":
        """Multiply every term by a fixed expression of known degree."""
        factor = factor if isinstance(factor, Expr) else const(factor)
        return PolyhomSymbol(
            {d + degree_shift: simplify(mul(factor, e)) for d, e in self.terms.items()},
            floor=self.low_degree + degree_shift,
        )

    def eval(self, env):
        vals = [eval_expr(e, env) for e in self.terms.values()]
        if not vals:
            return 0j
        acc = vals[0]
        for v in vals[1:]:
            acc = acc + v
        return acc

    def __repr__(self):
        degs = ", ".join(str(d) for d in self.terms)
        return f"PolyhomSymbol(degrees=[{degs}], floor={self.low_degree})"


@dataclass(frozen=True)
class SymbolMatrix22:
    """2x2 matrix of polyhomogeneous symbols (entries row-major)."""

    a11: PolyhomSymbol
    a12: PolyhomSymbol
    a21: PolyhomSymbol
    a22: PolyhomSymbol


# ---------------------------------------------------------------------------
# derivatives in the calculus


def _partial(t, v: VarId):
    """One partial derivative of a term, an Expr or a SymbolForm."""
    return t.diff(v) if isinstance(t, SymbolForm) else diff(t, v)


def _is_zero(t) -> bool:
    """Exact zero of a term, an Expr or a SymbolForm."""
    return not t.terms if isinstance(t, SymbolForm) else _is_zero_expr(t)


def _tidy(t):
    """Simplify an Expr; a SymbolForm is already in normal form."""
    return simplify(t) if isinstance(t, Expr) else t


def xi_derivative(e, beta):
    b1, b2 = beta
    for _ in range(b1):
        e = _partial(e, VarId.XI1)
    for _ in range(b2):
        e = _partial(e, VarId.XI2)
    return e


def x_derivative(e, beta):
    b1, b2 = beta
    for _ in range(b1):
        e = _partial(e, VarId.X1)
    for _ in range(b2):
        e = _partial(e, VarId.X2)
    return e


def _d3_symbol(sym: PolyhomSymbol) -> PolyhomSymbol:
    """Termwise depth derivative d/dx3 (degrees and floor unchanged)."""
    return PolyhomSymbol(
        {d: simplify(diff(e, VarId.X3)) for d, e in sym.terms.items()},
        floor=sym.low_degree,
    )


def _multi_indices(total):
    return [(i, total - i) for i in range(total + 1)]


def compose_degree_part(p_terms, q_terms, d):
    """Degree-d part of the composition of two graded term maps.

    ``p_terms``/``q_terms`` map degree -> term, all Exprs or all
    SymbolForms. Collects every (1/beta!) d_xi^beta p_j *
    ((1/i) d_x)^beta q_k with j - |beta| + k = d; the result has the
    terms' type, or is ZERO when nothing contributes.
    """
    acc = ZERO
    for j, pj in p_terms.items():
        for k, qk in q_terms.items():
            r = j + k - d
            if r < 0:
                continue
            if r > 0 and not (free_vars(qk) & {VarId.X1, VarId.X2}):
                continue  # x-independent right factor: only beta = 0 survives
            for beta in _multi_indices(r):
                dp = xi_derivative(pj, beta)
                if _is_zero(dp):
                    continue
                dq = x_derivative(qk, beta)
                if _is_zero(dq):
                    continue
                coeff = (-1j) ** r / (math.factorial(beta[0]) * math.factorial(beta[1]))
                acc = acc + const(coeff) * (dp * dq)
    return _tidy(acc)


def compose(p: PolyhomSymbol, q: PolyhomSymbol, floor) -> PolyhomSymbol:
    """Asymptotic composition p o q truncated at the given floor."""
    if p.is_zero or q.is_zero:
        return PolyhomSymbol.zero(floor)
    top = p.top_degree + q.top_degree
    out = {}
    for d in range(top, floor - 1, -1):
        e = compose_degree_part(p.terms, q.terms, d)
        if not _is_zero_expr(e):
            out[d] = e
    return PolyhomSymbol(out, floor=floor)


# ---------------------------------------------------------------------------
# systems symbols


def systems_symbols(m: MediumSpec) -> SymbolMatrix22:
    """Left symbols of the 2x2 first-order system acting on (v3, p).

    Exactly six homogeneous components are nonzero in general:
    a11 degree 1 and 0, a12 degree 1 and 0, a21 degree 1, a22 degree 1.
    For homogeneous media the degree-0 pieces fold away to empty. Built
    once per medium from its coefficient record and cached on it.
    """

    def build():
        xi1, xi2, s = variable(VarId.XI1), variable(VarId.XI2), variable(VarId.S)
        c = _coefficients(m)
        i = const(1j)

        a11_1 = simplify(i * (xi1 * c.f[0] + xi2 * c.f[1]))
        a11_0 = simplify(diff(c.f[0], VarId.X1) + diff(c.f[1], VarId.X2))

        dQ = schur(m).dQ
        qform = ZERO
        for mu in range(2):
            for nu in range(2):
                xim = xi1 if mu == 0 else xi2
                xin = xi1 if nu == 0 else xi2
                qform = qform + c.Q[mu][nu] * xim * xin
        a12_1 = simplify(s * c.kappa + recip(s) * qform)
        a12_0 = simplify(const(-1) * recip(s) * i * (dQ[0] * xi1 + dQ[1] * xi2))

        a21_1 = simplify(s * c.inv33)
        # one inv33 factor outside the sum, not i xi_mu g_mu: the expansion
        # terms, and so the text `anisosplit expand` writes, follow this form
        a22_1 = simplify(i * (xi1 * m.alpha[2][0] + xi2 * m.alpha[2][1]) * c.inv33)

        return SymbolMatrix22(
            a11=PolyhomSymbol({1: a11_1, 0: a11_0}, floor=0),
            a12=PolyhomSymbol({1: a12_1, 0: a12_0}, floor=0),
            a21=PolyhomSymbol({1: a21_1}, floor=1),
            a22=PolyhomSymbol({1: a22_1}, floor=1),
        )

    return m._cache("systems_symbols", build)


# ---------------------------------------------------------------------------
# the rho-graded normal form

_NOT_A_FORM = "expression is not a sum of rho^(d/2) times rho-free expressions"
_XI1, _XI2, _S = (variable(v) for v in (VarId.XI1, VarId.XI2, VarId.S))
_X12 = frozenset((VarId.X1, VarId.X2))
_XI12 = frozenset((VarId.XI1, VarId.XI2))


def _accumulate(out: dict, key, term: Expr):
    out[key] = out[key] + term if key in out else term


class Radicand:
    """rho = s^2 kappa + Qt xi.xi of one medium, so gamma1 = alpha33^(1/2) rho^(1/2).

    ``expr`` is rho as one simplified expression and ``root`` its square
    root, shared by gamma1 and by every lowered form.
    """

    def __init__(self, kappa: Expr, Qt):
        xis = (_XI1, _XI2)
        form = ZERO
        for mu in range(2):
            for nu in range(2):
                form = form + Qt[mu][nu] * xis[mu] * xis[nu]
        self.expr = simplify(ipow(_S, 2) * kappa + form)
        self.root = sqrt_(self.expr)
        self._grad = {}

    def grad(self, v: VarId) -> Expr:
        """d rho / dv, cached."""
        if v not in self._grad:
            self._grad[v] = diff(self.expr, v)
        return self._grad[v]

    def power(self, d: int) -> Expr:
        """rho^(d/2) as one node."""
        return ipow(self.expr, d // 2) if d % 2 == 0 else ipow(self.root, d)


def radicand(m: MediumSpec) -> Radicand:
    """The medium's Radicand, built once and cached on it."""
    return m._cache("radicand", lambda: Radicand(m.kappa, schur(m).Qt))


class SymbolForm:
    """A symbol term graded by powers of rho^(1/2).

    ``terms`` maps a grade d to an expression P_d free of rho^(1/2) (a
    polynomial in xi, Laurent in s, with x-dependent coefficients); the
    form stands for sum_d rho^(d/2) P_d, rho the medium's Radicand. The
    admittance terms' only irrational (xi, s)-dependence is a power of
    rho^(1/2), so +, -, * and ``diff`` act by closed rules: products add
    grades, like grades merge, and d rho^(d/2) = (d/2) rho^(d/2 - 1) d rho
    moves a part two grades down. No square root is differentiated and
    no quotient rule runs; ``lower`` builds the one expression. Grades
    are not unique (rho^(d/2) = rho * rho^(d/2 - 1)); exact-zero parts
    are dropped.
    """

    __slots__ = ("rho", "terms", "_dcache")

    def __init__(self, rho: Radicand, terms: dict):
        self.rho = rho
        self.terms = {d: p for d, p in terms.items() if not _is_zero_expr(p)}
        self._dcache = {}

    @classmethod
    def lift(cls, rho: Radicand, e: Expr) -> "SymbolForm":
        """The form of an expression in which rho^(1/2) occurs only as
        ``rho.root``, under +, -, *, / and integer powers (a divisor or a
        negative power with it must have a single grade). Anything else
        raises SymbolError."""
        forms = {}
        for node in _walk([e])[0]:
            args = [forms[a] for a in node.args]
            op = node.op
            if node is rho.root:
                f = cls(rho, {1: ONE})
            elif all(a.terms.keys() <= {0} for a in args):
                f = cls(rho, {0: node})
            elif op == "add":
                f = args[0] + args[1]
            elif op == "sub":
                f = args[0] - args[1]
            elif op == "mul":
                f = args[0] * args[1]
            elif op == "neg":
                f = -args[0]
            elif op == "div":
                f = args[0] * args[1]._power(-1)
            elif op == "recip":
                f = args[0]._power(-1)
            elif op == "pow":
                f = args[0]._power(node.data)
            else:
                raise SymbolError(_NOT_A_FORM)
            forms[node] = f
        return forms[e]

    def _power(self, n: int) -> "SymbolForm":
        if len(self.terms) == 1:
            ((d, p),) = self.terms.items()
            return SymbolForm(self.rho, {n * d: ipow(p, n)})
        if n < 0:
            raise SymbolError(_NOT_A_FORM)
        out = SymbolForm(self.rho, {0: ONE})
        for _ in range(n):
            out = out * self
        return out

    def _operand(self, other):
        if isinstance(other, SymbolForm):
            if other.rho is not self.rho:
                raise SymbolError("forms over different media do not combine")
            return other
        if isinstance(other, (int, float, complex)):
            other = const(other)
        if isinstance(other, Expr):
            return SymbolForm.lift(self.rho, other)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for d, p in o.terms.items():
            _accumulate(out, d, p)
        return SymbolForm(self.rho, out)

    __radd__ = __add__

    def __neg__(self):
        return SymbolForm(self.rho, {d: neg(p) for d, p in self.terms.items()})

    def __sub__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        out = {}
        for d1, p1 in self.terms.items():
            for d2, p2 in o.terms.items():
                _accumulate(out, d1 + d2, mul(p1, p2))
        return SymbolForm(self.rho, out)

    __rmul__ = __mul__

    def diff(self, v: VarId) -> "SymbolForm":
        """d/dv, cached per variable: each P_d by ``diff``, and
        d rho^(d/2) = (d/2) rho^(d/2 - 1) d rho one grade pair down."""
        if v not in self._dcache:
            out = {}
            grad = self.rho.grad(v)
            for d, p in self.terms.items():
                _accumulate(out, d, diff(p, v))
                if d and not _is_zero_expr(grad):
                    _accumulate(out, d - 2, mul(const(d / 2), mul(p, grad)))
            self._dcache[v] = SymbolForm(self.rho, out)
        return self._dcache[v]

    @property
    def free_vars(self) -> frozenset:
        fv = set()
        for d, p in self.terms.items():
            fv |= p.free_vars
            if d:
                fv |= self.rho.expr.free_vars
        return frozenset(fv)

    def lower(self) -> Expr:
        """The form as one expression, sum over d of rho^(d/2) P_d, each
        rho^(d/2) one shared node. This one expression serves symbolic
        composition and quantization alike: a kernel build separates the
        x-by-xi products of each P_d itself (``_KernelPlan``)."""
        acc = ZERO
        for d in sorted(self.terms):
            acc = acc + self.rho.power(d) * self.terms[d]
        return acc


# ---------------------------------------------------------------------------
# transverse grid and quantization


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform periodic grid on [0,L1) x [0,L2), n a power of two >= 4."""

    n: int
    L1: float
    L2: float

    def __post_init__(self):
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise SymbolError("grid size must be a power of two, at least 4")
        if not (self.L1 > 0 and self.L2 > 0):
            raise SymbolError("grid periods must be positive")

    def x_axes(self):
        return (
            np.arange(self.n) * (self.L1 / self.n),
            np.arange(self.n) * (self.L2 / self.n),
        )

    def xi_axes(self):
        k = np.fft.fftfreq(self.n) * self.n  # 0..n/2-1, -n/2..-1
        return (2 * np.pi / self.L1) * k, (2 * np.pi / self.L2) * k

    def x_mesh(self):
        x1, x2 = self.x_axes()
        return np.meshgrid(x1, x2, indexing="ij")

    def xi_mesh(self):
        w1, w2 = self.xi_axes()
        return np.meshgrid(w1, w2, indexing="ij")

    def nyquist_mask(self):
        """True on modes kept by quantization (both indices != -n/2 row)."""
        keep = np.ones(self.n, dtype=bool)
        keep[self.n // 2] = False
        return np.logical_and.outer(keep, keep)

    def sample(self, e: Expr, x3, s) -> np.ndarray:
        """Values of a xi-free expression (a medium field or a pointwise
        symbol) on the x-grid at depth x3 and Laplace parameter s, as a
        read-only (n, n) view."""
        X1g, X2g = self.x_mesh()
        env = {VarId.X1: X1g, VarId.X2: X2g, VarId.X3: complex(x3), VarId.S: complex(s)}
        return np.broadcast_to(np.asarray(eval_expr(e, env), dtype=np.complex128), X1g.shape)

    def operator(self, sym, s) -> "_GridOperator":
        """The quantized symbol at Laplace parameter s as an operator on
        this grid's fields (see ``_GridOperator``)."""
        return _GridOperator(sym, self, s)


def _term_exprs(sym):
    if isinstance(sym, PolyhomSymbol):
        return list(sym.terms.values())
    if isinstance(sym, SymbolTerm):
        return [sym.expr]
    if isinstance(sym, Expr):
        return [sym]
    raise SymbolError(f"cannot quantize {type(sym).__name__}")


def _symbol_total(sym) -> Expr:
    acc = ZERO
    for e in _term_exprs(sym):
        acc = acc + e
    return acc


# Entries per row block of a kernel build: small enough that the block's
# intermediates stay in cache, large enough to amortize per-block overhead.
_BLOCK_ENTRIES = 2**14


def _is_mixed(node: Expr) -> bool:
    return bool(node.free_vars & _X12) and bool(node.free_vars & _XI12)


def _form_product(p: dict, q: dict, rank: dict) -> dict:
    out = {}
    for (a1, b1, t1), c1 in p.items():
        for (a2, b2, t2), c2 in q.items():
            atoms = tuple(sorted(t1 + t2, key=rank.__getitem__)) if t1 and t2 else t1 or t2
            _accumulate(out, (a1 + a2, b1 + b2, atoms), mul(c1, c2))
    return out


def _separate(node: Expr, forms: dict, rank: dict):
    """The separated form of a node that depends on xi, or None.

    A form maps a key (a, b, atoms) to a coefficient expression free of
    xi; the key stands for xi1^a xi2^b times the product of ``atoms``,
    xi-only nodes that are not polynomial in xi, in DAG (``rank``)
    order, and the node is the sum over keys of coefficient times key.
    Sums, negation, products and non-negative integer powers of
    separable operands are expanded; any other xi-only node is an atom
    of its own. A quotient, reciprocal or negative power of a node that
    depends on x and xi is never separated, so its zero check runs entry
    by entry.
    """
    op = node.op
    if op == "var":
        return {(1, 0, ()) if node.data is VarId.XI1 else (0, 1, ()): ONE}
    # an operand free of xi is its own coefficient of the empty key; one
    # that depends on xi and is not separable has no form (None)
    args = [forms.get(a) if a.free_vars & _XI12 else {(0, 0, ()): a} for a in node.args]
    expands = op in ("add", "sub", "neg", "mul") or (op == "pow" and node.data > 0)
    if not expands or any(f is None for f in args):
        return None if node.free_vars & _X12 else {(0, 0, (node,)): ONE}
    if op == "neg":
        return {k: neg(c) for k, c in args[0].items()}
    if op == "pow":
        out = args[0]
        for _ in range(node.data - 1):
            out = _form_product(out, args[0], rank)
    elif op == "mul":
        out = _form_product(args[0], args[1], rank)
    else:
        out = dict(args[0])
        for k, c in args[1].items():
            if op == "add":
                _accumulate(out, k, c)
            else:
                out[k] = sub(out[k], c) if k in out else neg(c)
    return {k: c for k, c in out.items() if not _is_zero_expr(c)}


def _xi_product(key) -> Expr:
    a, b, atoms = key
    acc = mul(ipow(_XI1, a), ipow(_XI2, b))
    for f in atoms:
        acc = mul(acc, f)
    return acc


class _KernelPlan:
    """How a kernel build evaluates one symbol, worked out once per symbol.

    Nodes free of xi or free of x are evaluated once per build, on the
    x-grid or the xi-lattice. Every node that depends on xi is held, when
    it can be, in separated form (``_separate``): a sum over keys
    xi1^a xi2^b (times xi-only atoms such as a square root free of x) of
    xi-free coefficients, with products and non-negative powers expanded.
    This is the one place that decides how a symbol is written for its
    kernel, so any symbol, as lowered or composed, gets the separation. A
    separable node that depends on x and xi stands for X(x) @ Xi(xi),
    one column of X and one row of Xi per key. ``factors`` holds the
    separable nodes read by a non-separable one or at the root; each row
    block computes them as matrix products X[rows] @ Xi, then runs
    ``entrywise``, the remaining mixed nodes in DAG order, through
    ``expr._run`` with power chains. ``reads`` counts their argument
    slots.
    """

    def __init__(self, sym):
        self.total = total = _symbol_total(sym)
        order, _ = _walk([total])
        rank = {nd: i for i, nd in enumerate(order)}
        forms = {}
        self.entrywise = entrywise = []
        with _cyclic_gc_paused():
            for nd in order:
                if nd.free_vars & _XI12:
                    form = _separate(nd, forms, rank)
                    if form is None:
                        entrywise.append(nd)
                    else:
                        forms[nd] = form
        read = [a for nd in entrywise for a in nd.args] + [total]
        self.factors = {}  # separable node -> ([x coefficient], [xi product])
        for nd in dict.fromkeys(read):
            if _is_mixed(nd) and nd in forms:
                form = forms[nd]
                self.factors[nd] = (list(form.values()), [_xi_product(k) for k in form])
        self.reads = _consumer_counts(entrywise)
        # the fixed nodes a block reads, in DAG order
        leaves = list(dict.fromkeys(a for a in read if not _is_mixed(a)))
        self.row_leaves = [nd for nd in leaves if nd.free_vars & _X12]
        self.other_leaves = [nd for nd in leaves if not nd.free_vars & _X12]
        fixed = list(leaves)
        for xs, xis in self.factors.values():
            fixed += xs + xis
        self.fixed = _walk(fixed)
        self.fixed_keep = set(fixed)


def _kernel_rows(sym, grid: TransverseGrid, x3, s, out: np.ndarray):
    """Fill ``out`` (n^2 x n^2) with the quantized symbol (a symbol or
    its ``_KernelPlan``), one row block of the x-grid at a time, yielding
    each finished block (a view).

    Nodes free of xi or free of x are evaluated once; separable x-and-xi
    nodes become small matrix products and only the rest is evaluated
    entry by entry (see ``_KernelPlan``). Separation and the power
    chains reorder sums and products, so entries agree with a direct
    evaluation of the symbol to rounding, not bit for bit; each entry
    comes out the same whatever the block size. A caller may overwrite a
    yielded block in place before resuming, so a row-wise transform is
    applied while the block is still in cache.
    """
    plan = sym if isinstance(sym, _KernelPlan) else _KernelPlan(sym)
    n = grid.n
    size = n * n
    X1g, X2g = grid.x_mesh()
    x1, x2 = X1g.ravel(), X2g.ravel()
    W1g, W2g = grid.xi_mesh()
    bound = {
        VarId.X1: x1[:, None].astype(np.complex128),
        VarId.X2: x2[:, None].astype(np.complex128),
        VarId.X3: complex(x3),
        VarId.XI1: W1g.ravel()[None, :].astype(np.complex128),
        VarId.XI2: W2g.ravel()[None, :].astype(np.complex128),
        VarId.S: complex(s),
    }
    whole = {}
    order, nref = plan.fixed
    _run(order, dict(nref), plan.fixed_keep, bound, whole)
    factors = {}
    for nd, (xs, xis) in plan.factors.items():
        X = np.empty((size, len(xs)), dtype=np.complex128)
        Xi = np.empty((len(xis), size), dtype=np.complex128)
        for j, (c, k) in enumerate(zip(xs, xis)):
            X[:, j : j + 1] = whole[c]
            Xi[j : j + 1] = whole[k]
        factors[nd] = (X, Xi)
    # exp(i x.xi) / n^2 is the product of a table over (x, xi1) and
    # one over (x, xi2)
    w1, w2 = grid.xi_axes()
    e1 = np.exp(1j * np.outer(x1, w1)) / n**2
    e2 = np.exp(1j * np.outer(x2, w2))
    nyquist = ~grid.nyquist_mask().ravel()
    other = {nd: whole[nd] for nd in plan.other_leaves}
    step = max(1, _BLOCK_ENTRIES // size)
    for r0 in range(0, size, step):
        r1 = min(r0 + step, size)
        vals = dict(other)
        for nd in plan.row_leaves:
            vals[nd] = whole[nd][r0:r1]
        for nd, (X, Xi) in factors.items():
            vals[nd] = X[r0:r1] @ Xi
        _run(plan.entrywise, dict(plan.reads), {plan.total}, bound, vals, power_chains=True)
        block = out[r0:r1]
        np.multiply(e1[r0:r1, :, None], e2[r0:r1, None, :], out=block.reshape(-1, n, n))
        block *= vals[plan.total]
        block[:, nyquist] = 0.0
        yield block


def quantize_matrix(sym, grid: TransverseGrid, x3, s) -> np.ndarray:
    """Dense n^2 x n^2 matrix of the quantized symbol at fixed (x3, s).

    Row index flattens the x-grid, column index the xi-lattice; Nyquist
    columns are zero. Applying it to a flattened FFT of a field realizes
    the operator.

    The result takes n^4 * 16 bytes (16 MB at n=32). It is built in row
    blocks of a fixed number of entries, so no other n^4-sized array is
    allocated, and nothing is cached between calls. Parts of the symbol
    that are sums of x-only times xi-only products are evaluated as
    small matrix products, and integer powers as chains of products
    (see ``_KernelPlan``), so entries match a direct evaluation of the
    symbol to rounding (about 1e-15 norm-relative), not bit for bit.
    """
    n = grid.n
    out = np.empty((n * n, n * n), dtype=np.complex128)
    for _ in _kernel_rows(sym, grid, x3, s, out):
        pass
    return out


def _physical_kernel(sym, grid: TransverseGrid, x3, s) -> np.ndarray:
    """Quantized symbol (or its kernel plan) composed with the forward 2D
    DFT: grid values in, grid values out.

    The DFT matrix kron(F, F) is symmetric, so right-multiplying by it is
    an fft2 of each kernel row; each row block is transformed in place
    as soon as it is built.
    """
    n = grid.n
    out = np.empty((n * n, n * n), dtype=np.complex128)
    for block in _kernel_rows(sym, grid, x3, s, out):
        block[...] = np.fft.fft2(block.reshape(-1, n, n)).reshape(block.shape)
    return out


def _kept_by_depth(store: OrderedDict, x3, depth_free: bool, build):
    """``build()`` for depth x3, kept in ``store`` beside the value read
    before it: an RK4 step reads its start depth (the previous step's
    end), its midpoint twice and its end. A depth-free value is built
    once, under the key None."""
    key = None if depth_free else round(float(x3), 12)
    got = store.get(key)
    if got is None:
        if len(store) == 2:
            store.popitem(last=False)
        got = store[key] = build()
    else:
        store.move_to_end(key)
    return got


class _GridOperator:
    """A quantized symbol acting on grid fields at a fixed s.

    How it acts is decided once, from the symbol's free variables: free
    of xi, by pointwise multiplication; free of x, as a Fourier
    multiplier; otherwise through its physical kernel. Every path
    projects out the Nyquist row/column of the input spectrum.

    ``kernel`` serves any symbol, since a dense segment exponential needs
    the matrix; ``multiplier`` gives a Fourier multiplier's values on the
    spectrum, whose exponential is diagonal. The kernel plan is made on
    first need, and the two kernels read last are kept
    (``_kept_by_depth``). A symbol free of x3 has one kernel and one
    multiplier for every depth, each evaluated once and kept in the same
    store.
    """

    def __init__(self, sym, grid: TransverseGrid, s):
        self.sym = sym
        self.grid = grid
        self.s = complex(s)
        self.total = total = _symbol_total(sym)
        if _is_mixed(total):
            self.kind = "kernel"
        else:
            self.kind = "multiplier" if total.free_vars & _XI12 else "pointwise"
        self.depth_free = VarId.X3 not in total.free_vars
        self._plan = None
        self._kernels = OrderedDict()

    def kernel(self, x3) -> np.ndarray:
        """The n^2 x n^2 physical kernel at depth x3 (``_physical_kernel``)."""

        def build():
            if self._plan is None:
                self._plan = _KernelPlan(self.sym)
            return _physical_kernel(self._plan, self.grid, x3, self.s)

        return _kept_by_depth(self._kernels, x3, self.depth_free, build)

    def apply(self, field, x3) -> np.ndarray:
        """The operator at depth x3 applied to an (n, n) field, or to each
        field of a (k, n, n) stack in one product."""
        values = np.asarray(field, dtype=np.complex128)
        n = self.grid.n
        if values.shape[-2:] != (n, n) or values.ndim not in (2, 3):
            raise SymbolError(f"field shape {values.shape} does not match grid {n}")
        if self.kind == "kernel":
            K = self.kernel(x3)
            if values.ndim == 2:
                return (K @ values.ravel()).reshape(values.shape)
            return (K @ values.reshape(-1, n * n).T).T.reshape(values.shape)
        uhat = np.where(self.grid.nyquist_mask(), np.fft.fft2(values), 0.0)
        if self.kind == "pointwise":
            return self.grid.sample(self.total, x3, self.s) * np.fft.ifft2(uhat)
        return np.fft.ifft2(self.multiplier(x3) * uhat)

    def multiplier(self, x3) -> np.ndarray:
        """A Fourier multiplier's values on the (n, n) xi-mesh at depth x3,
        Nyquist row/column included (read-only when kept)."""
        got = self._kernels.get("multiplier") if self.depth_free else None
        if got is None:
            W1g, W2g = self.grid.xi_mesh()
            env = {VarId.XI1: W1g, VarId.XI2: W2g, VarId.X3: complex(x3), VarId.S: self.s}
            got = np.asarray(eval_expr(self.total, env))
            if self.depth_free:
                # beside the one depth-free kernel (key None), so neither
                # is ever evicted
                got.setflags(write=False)
                self._kernels["multiplier"] = got
        return got


def quantize_apply(sym, field, grid: TransverseGrid, x3, s):
    """Apply the quantized symbol to a grid field or a stack of them.

    ``field`` is an (n, n) complex array or a (k, n, n) stack of k
    fields. A symbol free of xi acts by pointwise multiplication, one
    free of x by a Fourier multiplier, any other through its physical
    kernel (``quantize_matrix`` composed with the forward DFT), built
    once for all the fields; it matches the spectral product
    ``quantize_matrix(sym) @ fft2(u)`` to about 1e-15 relative. See
    ``_GridOperator``.
    """
    return grid.operator(sym, s).apply(field, x3)


def spectral_derivative(values, grid: TransverseGrid, axis: int):
    """Exact discrete d/dx_mu on the torus (fftfreq convention, Nyquist kept)."""
    w1, w2 = grid.xi_axes()
    u = np.fft.fft2(np.asarray(values, dtype=np.complex128))
    if axis == 1:
        u = u * (1j * w1)[:, None]
    elif axis == 2:
        u = u * (1j * w2)[None, :]
    else:
        raise SymbolError("axis must be 1 or 2")
    return np.fft.ifft2(u)


def random_smooth_field(grid: TransverseGrid, rng, decay: float = 3.0) -> np.ndarray:
    """Band-limited random probe field (Nyquist-free by construction)."""
    n = grid.n
    k = np.fft.fftfreq(n) * n
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    radius = np.sqrt(K1**2 + K2**2)
    spec = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    spec *= np.exp(-((radius / (n / 2 / decay)) ** 2))
    spec = np.where(grid.nyquist_mask(), spec, 0.0)
    return np.fft.ifft2(spec)


# ---------------------------------------------------------------------------
# homogeneity checking


@dataclass(frozen=True)
class HomogeneityReport:
    degree: int
    trials: int
    max_rel_error: float
    tol: float

    @property
    def passed(self):
        return self.max_rel_error <= self.tol


def homogeneity_check(
    term: SymbolTerm,
    trials: int = 16,
    tol: float = 1e-9,
    rng=None,
    box=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
) -> HomogeneityReport:
    """Euler-style scaling test: term(x, lam*xi, lam*s) vs lam^deg * term.

    Draws random points with |xi| of order one and Re s > 0, scales by
    lam in {2, 5, 10}, and reports the worst relative mismatch. All
    trials and scales are evaluated together in one array pass.
    """
    return _homogeneity_check(term, lambda env: eval_expr(term.expr, env), trials, tol, rng, box)


def _homogeneity_check(term, evaluate, trials, tol, rng, box) -> HomogeneityReport:
    """``homogeneity_check`` with the term evaluated by ``evaluate(env)``."""
    if rng is None:
        rng = np.random.default_rng(2024)
    if trials <= 0:
        return HomogeneityReport(term.degree, trials, 0.0, tol)
    pts = []
    for _ in range(trials):
        x = [rng.uniform(lo, hi) for lo, hi in box]
        xi = rng.uniform(-1.5, 1.5, size=2)
        if np.hypot(*xi) < 0.3:
            xi = xi + np.array([0.7, -0.4])
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(-1.2, 1.2)
        pts.append((*x, *xi, r * complex(np.cos(th), np.sin(th))))
    p = np.array(pts)  # (trials, 6): x1 x2 x3 xi1 xi2 s
    lam = np.array([1.0, 2.0, 5.0, 10.0])  # column 0 is the base point
    env = {v: p[:, k : k + 1].real for k, v in enumerate((VarId.X1, VarId.X2, VarId.X3))}
    for k, v in ((3, VarId.XI1), (4, VarId.XI2), (5, VarId.S)):
        env[v] = p[:, k : k + 1] * lam
    vals = np.broadcast_to(evaluate(env), (trials, lam.size))
    got = vals[:, 1:]
    want = lam[1:] ** term.degree * vals[:, :1]
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
    rel[(np.abs(want) < 1e-30) & (np.abs(got) < 1e-30)] = 0.0
    worst = float(rel.max())
    return HomogeneityReport(term.degree, trials, worst, tol)
