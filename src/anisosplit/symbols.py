"""Polyhomogeneous symbol calculus on the transverse torus.

A graded symbol is a degree -> SymbolForm map, a finite sum of terms,
each (jointly) homogeneous of an integer degree in (xi1, xi2, s). The
Laplace parameter s scales like a wavenumber, so "degree" always means
joint degree in (xi, s). Composition follows the transverse
Kohn-Nirenberg rule

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
    S,
    XI1,
    XI2,
    Expr,
    VarId,
    ZERO,
    _bind,
    _consumer_counts,
    _cyclic_gc_paused,
    _is_const,
    _node,
    _run,
    _walk,
    const,
    diff,
    eval_expr,
    ipow,
    mul,
    neg,
    recip,
    sqrt_,
    sub,
)
from .medium import MediumSpec, _coefficients, schur

__all__ = [
    "SymbolForm",
    "SymbolMatrix22",
    "TransverseGrid",
    "SymbolError",
    "systems_symbols",
    "compose_degree_part",
    "quantize_apply",
    "symbol_total",
    "xi_derivative",
    "x_derivative",
    "random_smooth_field",
]


class SymbolError(Exception):
    pass


@dataclass(frozen=True)
class SymbolMatrix22:
    """2x2 matrix of graded symbols (entries row-major), each a degree ->
    SymbolForm map holding its nonzero terms only."""

    a11: dict
    a12: dict
    a21: dict
    a22: dict


# ---------------------------------------------------------------------------
# composition in the calculus


def xi_derivative(f: SymbolForm, beta) -> SymbolForm:
    b1, b2 = beta
    for _ in range(b1):
        f = f.diff(VarId.XI1)
    for _ in range(b2):
        f = f.diff(VarId.XI2)
    return f


def x_derivative(f: SymbolForm, beta) -> SymbolForm:
    b1, b2 = beta
    for _ in range(b1):
        f = f.diff(VarId.X1)
    for _ in range(b2):
        f = f.diff(VarId.X2)
    return f


def _multi_indices(total):
    return [(i, total - i) for i in range(total + 1)]


def compose_degree_part(p_terms, q_terms, d):
    """Degree-d part of the composition of two graded form maps.

    ``p_terms``/``q_terms`` map degree -> SymbolForm. Collects every
    (1/beta!) d_xi^beta p_j * ((1/i) d_x)^beta q_k with
    j - |beta| + k = d; the result is a SymbolForm, or ZERO when nothing
    contributes.
    """
    acc = ZERO
    for j, pj in p_terms.items():
        for k, qk in q_terms.items():
            r = j + k - d
            if r < 0:
                continue
            if r > 0 and not (qk.free_vars & _X12):
                continue  # x-independent right factor: only beta = 0 survives
            for beta in _multi_indices(r):
                dp = xi_derivative(pj, beta)
                if not dp.terms:
                    continue
                dq = x_derivative(qk, beta)
                if not dq.terms:
                    continue
                coeff = (-1j) ** r / (math.factorial(beta[0]) * math.factorial(beta[1]))
                acc = acc + const(coeff) * (dp * dq)
    return acc


def _compose(p: dict, q: dict, floor: int) -> dict:
    """p o q of two degree -> SymbolForm maps, truncated at ``floor``."""
    out = {}
    if p and q:
        for d in range(max(p) + max(q), floor - 1, -1):
            f = compose_degree_part(p, q, d)
            if f is not ZERO and f.terms:
                out[d] = f
    return out


# ---------------------------------------------------------------------------
# systems symbols


def systems_symbols(m: MediumSpec) -> SymbolMatrix22:
    """Left symbols of the 2x2 first-order system acting on (v3, p).

    Exactly six homogeneous components are nonzero in general:
    a11 degree 1 and 0, a12 degree 1 and 0, a21 degree 1, a22 degree 1.
    Each entry maps degree -> SymbolForm, every nonzero term lifted once
    (so it lowers to the expression it was built as). Zero terms are
    left out: for homogeneous media the degree-0 parts of a11 and a12
    are absent, a11 is empty when also alpha13 = alpha23 = 0, and a22
    when alpha31 = alpha32 = 0. Built once per medium from its
    coefficient record and cached on it.
    """

    def build():
        c = _coefficients(m)
        i = const(1j)

        a11_1 = i * (XI1 * c.f[0] + XI2 * c.f[1])
        a11_0 = diff(c.f[0], VarId.X1) + diff(c.f[1], VarId.X2)

        dQ = schur(m).dQ
        qform = ZERO
        for mu in range(2):
            for nu in range(2):
                xim = XI1 if mu == 0 else XI2
                xin = XI1 if nu == 0 else XI2
                qform = qform + c.Q[mu][nu] * xim * xin
        a12_1 = S * c.kappa + recip(S) * qform
        a12_0 = const(-1) * recip(S) * i * (dQ[0] * XI1 + dQ[1] * XI2)

        a21_1 = S * c.inv33
        # one inv33 factor outside the sum, not i xi_mu g_mu: the expansion
        # terms, and so the text `anisosplit expand` writes, follow this form
        a22_1 = i * (XI1 * m.alpha[2][0] + XI2 * m.alpha[2][1]) * c.inv33

        rho = radicand(m)

        def graded(terms):
            return {d: SymbolForm.lift(rho, e) for d, e in terms.items() if not _is_const(e, 0)}

        return SymbolMatrix22(
            a11=graded({1: a11_1, 0: a11_0}),
            a12=graded({1: a12_1, 0: a12_0}),
            a21=graded({1: a21_1}),
            a22=graded({1: a22_1}),
        )

    return m._cache("systems_symbols", build)


# ---------------------------------------------------------------------------
# the rho-graded normal form

_NOT_A_FORM = "expression is not a sum of rho^(d/2) times rho-free expressions"
_X12 = frozenset((VarId.X1, VarId.X2))
_XI12 = frozenset((VarId.XI1, VarId.XI2))


def _accumulate(out: dict, key, term: Expr):
    out[key] = out[key] + term if key in out else term


class Radicand:
    """rho = s^2 kappa + Qt xi.xi of one medium, so gamma1 = alpha33^(1/2) rho^(1/2).

    ``expr`` is rho as one expression and ``root`` its square root,
    shared by gamma1, every lowered form and every kernel plan.
    """

    def __init__(self, kappa: Expr, Qt):
        xis = (XI1, XI2)
        form = ZERO
        for mu in range(2):
            for nu in range(2):
                form = form + Qt[mu][nu] * xis[mu] * xis[nu]
        self.expr = ipow(S, 2) * kappa + form
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
    no quotient rule runs; ``lower`` builds the one expression, once.
    Grades are not unique (rho^(d/2) = rho * rho^(d/2 - 1)); exact-zero
    parts are dropped.
    """

    __slots__ = ("rho", "terms", "_dcache", "_expr")

    def __init__(self, rho: Radicand, terms: dict):
        self.rho = rho
        self.terms = {d: p for d, p in terms.items() if not _is_const(p, 0)}
        self._dcache = {}
        self._expr = None

    @classmethod
    def lift(cls, rho: Radicand, e: Expr) -> "SymbolForm":
        """The form of an expression in which rho^(1/2) occurs only as
        ``rho.root``, under +, -, *, / and integer powers. Anything else
        raises SymbolError. The form lowers to ``e`` itself."""
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
        forms[e]._expr = e
        return forms[e]

    def _power(self, n: int) -> "SymbolForm":
        """f^n. A single grade keeps one grade. Otherwise a negative power
        inverts f = A + B rho^(1/2), with the even grades folded into A and
        the odd ones into B (both free of rho^(1/2)), as
        (A - B rho^(1/2)) recip(A^2 - B^2 rho), and multiplies that out.
        A^2 - B^2 rho is f times A - B rho^(1/2), so that conjugate must
        not vanish either (for the leading admittance y0+- it is y0-+)."""
        if len(self.terms) == 1:
            ((d, p),) = self.terms.items()
            return SymbolForm(self.rho, {n * d: ipow(p, n)})
        if n < 0:
            if not self.terms:
                raise SymbolError("the zero form has no inverse")
            a = b = ZERO
            for d, p in self.terms.items():
                if d % 2:
                    b = b + self.rho.power(d - 1) * p
                else:
                    a = a + self.rho.power(d) * p
            den = recip(a * a - b * b * self.rho.expr)
            return SymbolForm(self.rho, {0: a * den, 1: neg(b * den)})._power(-n)
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
                if d and not _is_const(grad, 0):
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
        rho^(d/2) one shared node, built on the first call and kept. It
        serves printing, jets and the pointwise and multiplier paths; a
        kernel build works from the grades themselves (``_horner``)."""
        if self._expr is None:
            acc = ZERO
            for d in sorted(self.terms):
                acc = acc + self.rho.power(d) * self.terms[d]
            self._expr = acc
        return self._expr


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
        if not all(math.isfinite(L) and L > 0 for L in (self.L1, self.L2)):
            raise SymbolError("grid periods must be finite and positive")

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


def _graded(sym) -> dict:
    # a degree -> SymbolForm map, checked
    if not isinstance(sym, dict) or not all(isinstance(f, SymbolForm) for f in sym.values()):
        raise SymbolError(f"{type(sym).__name__} is not an Expr or a degree -> SymbolForm map")
    return sym


def symbol_total(sym) -> Expr:
    """The plain sum of a graded symbol, a degree -> SymbolForm map, as
    one expression: its lowered terms added top degree first. An Expr is
    returned as it is; anything else raises SymbolError."""
    if isinstance(sym, Expr):
        return sym
    acc = ZERO
    for d in sorted(_graded(sym), reverse=True):
        acc = acc + sym[d].lower()
    return acc


def _horner(sym) -> Expr:
    """What a kernel build evaluates: an Expr as it is (one grade); for a
    degree -> SymbolForm map, sum_d rho^(d/2) P_d, like grades merged
    across degrees, by Horner's rule in r = rho^(1/2) for the grades >= 0
    and in recip(r) for the others; a missing grade costs one multiply.
    The Horner nodes are built by ``_node``, which pulls no constant out."""
    if isinstance(sym, Expr):
        return sym
    forms = [sym[d] for d in sorted(_graded(sym), reverse=True)]
    grades = sum(forms[1:], forms[0]).terms if forms else {}
    if not grades.keys() - {0}:
        return grades.get(0, ZERO)

    def chain(step, ds):
        acc = grades[ds[0]]
        for d in ds[1:]:
            acc = _node("mul", (step, acc))
            if d in grades:
                acc = _node("add", (grades[d], acc))
        return acc

    root = forms[0].rho.root
    parts = []
    if max(grades) >= 0:
        parts.append(chain(root, range(max(grades), -1, -1)))
    if min(grades) < 0:
        inv = recip(root)
        parts.append(_node("mul", (inv, chain(inv, range(min(grades), 0)))))
    return parts[0] if len(parts) == 1 else _node("add", tuple(parts))


# Entries per block of a kernel build: small enough that the block's
# intermediates stay in cache and each 64 KB block temporary stays under
# glibc's default 128 KB mmap threshold. Order-2 g+ on a 2-core host, ms
# per build (cold first / warm): n = 16 heterogeneous_full 13-20 / 9-11
# (2**13: 14-21 / 10-15, 2**14: 15-20 / 12); n = 32
# transverse_anisotropic 87-97 / 78-118 (2**13: 83-103 / 74-98, 2**14:
# 111-124 / 69-79). 2**14 is slower for the cold n = 32 build and for
# the n = 16 builds a depth march makes at every stage depth; 2**13 is
# within this host's noise.
_BLOCK_ENTRIES = 2**12


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
    return {k: c for k, c in out.items() if not _is_const(c, 0)}


def _xi_product(key) -> Expr:
    a, b, atoms = key
    acc = mul(ipow(XI1, a), ipow(XI2, b))
    for f in atoms:
        acc = mul(acc, f)
    return acc


class _KernelPlan:
    """How a kernel build evaluates one symbol, worked out once per symbol.

    It evaluates ``total``, the symbol by Horner's rule in its grades
    (``_horner``). Nodes free of xi or free of x are evaluated once per
    build, on the x-grid or the xi-lattice. Every node that depends on xi
    is held, when it can be, in separated form (``_separate``): a sum over
    keys xi1^a xi2^b (times xi-only atoms such as a square root free of
    x) of xi-free coefficients, with products and non-negative powers
    expanded. A separable node that depends on x and xi stands for
    X(x) @ Xi(xi), one column of X and one row of Xi per key. ``factors``
    holds the separable nodes read by a non-separable one or at the root;
    each block of xi rows computes them as Xi[rows] @ X, then runs
    ``entrywise``, the remaining mixed nodes in DAG order (for g+-: the
    square root, its reciprocal and the Horner products and sums),
    through ``expr._run``. ``reads`` counts their argument slots.
    """

    def __init__(self, sym):
        self.total = total = _horner(sym)
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
        self.xi_leaves = [nd for nd in leaves if nd.free_vars & _XI12]
        self.other_leaves = [nd for nd in leaves if not nd.free_vars & _XI12]
        fixed = leaves + [nd for xs, xis in self.factors.values() for nd in xs + xis]
        self.fixed = _walk(fixed)
        self.fixed_keep = set(fixed)


def _spectral_kernel(sym, grid: TransverseGrid, x3, s) -> np.ndarray:
    """The quantized symbol (or its ``_KernelPlan``) at fixed (x3, s) as
    the dense n^2 x n^2 spectral matrix S: rows over the x-grid, columns
    over the xi-lattice, entries sym(x, xi) exp(i x.xi) / n^2, Nyquist
    columns zero, so S @ fft2(u) applies it to a grid field u. S takes
    n^4 * 16 bytes (16 MB at n=32) and is returned as the transpose of an
    array built in blocks of xi rows, a fixed number of entries each, so
    no other n^4-sized array is allocated. The xi side of a separated
    node multiplies a real view of its x side, in real arithmetic: half
    the flops of a complex product when the xi side is real, as the xi
    monomials are.

    Separation and Horner's rule (``_KernelPlan``) reorder sums and
    products, so entries agree with a direct evaluation of the symbol to
    rounding (about 1e-15 norm-relative), not bit for bit; each entry
    comes out the same whatever the block size.
    """
    plan = sym if isinstance(sym, _KernelPlan) else _KernelPlan(sym)
    n = grid.n
    size = n * n
    T = np.empty((size, size), dtype=np.complex128)  # S transposed
    X1g, X2g = grid.x_mesh()
    W1g, W2g = grid.xi_mesh()
    w1, w2 = W1g.ravel(), W2g.ravel()
    bound = _bind({
        VarId.X1: X1g.ravel()[None, :], VarId.X2: X2g.ravel()[None, :], VarId.X3: x3,
        VarId.XI1: w1[:, None], VarId.XI2: w2[:, None], VarId.S: s,
    })
    whole = {}
    order, nref = plan.fixed
    _run(order, dict(nref), plan.fixed_keep, bound, whole)
    factors = {}
    for nd, (xs, xis) in plan.factors.items():
        XT = np.vstack([np.broadcast_to(whole[c], (1, size)) for c in xs])
        XiT = np.hstack([np.broadcast_to(whole[k], (size, 1)) for k in xis])
        im = XiT.imag.any(axis=0)  # a xi column a + ib: a against x row X, b against iX
        XT = np.vstack([XT, 1j * XT[im]]).view(np.float64)
        factors[nd] = (np.hstack([XiT.real, XiT.imag[:, im]]), XT)
    # exp(i x.xi) / n^2 is the product of a table over (xi, x1) and
    # one over (xi, x2)
    a1, a2 = grid.x_axes()
    e1 = np.exp(1j * np.outer(w1, a1)) / n**2
    e2 = np.exp(1j * np.outer(w2, a2))
    nyquist = ~grid.nyquist_mask().ravel()
    step = max(1, _BLOCK_ENTRIES // size)
    for k0 in range(0, size, step):
        k1 = min(k0 + step, size)
        vals = {nd: whole[nd] for nd in plan.other_leaves}
        vals.update((nd, whole[nd][k0:k1]) for nd in plan.xi_leaves)
        vals.update((nd, (Xi[k0:k1] @ X).view(np.complex128)) for nd, (Xi, X) in factors.items())
        _run(plan.entrywise, dict(plan.reads), {plan.total}, bound, vals)
        block = T[k0:k1]
        np.multiply(e1[k0:k1, :, None], e2[k0:k1, None, :], out=block.reshape(-1, n, n))
        block *= vals[plan.total]
        block[nyquist[k0:k1]] = 0.0
    return T.T


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

    The symbol is an Expr or a degree -> SymbolForm map, taken as its
    ``symbol_total``. How it acts is decided once, from the symbol's free variables: free
    of xi, by pointwise multiplication; free of x, as a Fourier
    multiplier; otherwise as S @ fft2(u), S its spectral kernel. Every
    path projects out the Nyquist row/column of the input spectrum.

    ``values(x3)`` is what it acts by at depth x3: a pointwise symbol's
    samples on the x-grid, a Fourier multiplier's values on the xi-mesh,
    Nyquist row/column included, or S (``_spectral_kernel``). The values
    at the two depths read last are kept (``_kept_by_depth``); a symbol
    free of x3 is evaluated once for every depth. The kernel plan is
    made from the symbol as given, on first need.
    """

    def __init__(self, sym, grid: TransverseGrid, s):
        self.grid = grid
        self.s = complex(s)
        self.sym = sym
        self.total = total = symbol_total(sym)
        if _is_mixed(total):
            self.kind = "kernel"
        else:
            self.kind = "multiplier" if total.free_vars & _XI12 else "pointwise"
        self.depth_free = VarId.X3 not in total.free_vars
        self._plan = None
        self._kept = OrderedDict()

    def values(self, x3) -> np.ndarray:
        """What the operator acts by at depth x3 (see the class)."""

        def build():
            if self.kind == "pointwise":
                return self.grid.sample(self.total, x3, self.s)
            if self.kind == "multiplier":
                W1g, W2g = self.grid.xi_mesh()
                env = {VarId.XI1: W1g, VarId.XI2: W2g, VarId.X3: complex(x3), VarId.S: self.s}
                return np.asarray(eval_expr(self.total, env))
            if self._plan is None:
                self._plan = _KernelPlan(self.sym)
            return _spectral_kernel(self._plan, self.grid, x3, self.s)

        return _kept_by_depth(self._kept, x3, self.depth_free, build)

    def apply(self, field, x3) -> np.ndarray:
        """The operator at depth x3 applied to an (n, n) field, or to each
        field of a (k, n, n) stack in one product."""
        values = np.asarray(field, dtype=np.complex128)
        n = self.grid.n
        if values.shape[-2:] != (n, n) or values.ndim not in (2, 3):
            raise SymbolError(f"field shape {values.shape} does not match grid {n}")
        uhat = np.where(self.grid.nyquist_mask(), np.fft.fft2(values), 0.0)
        if self.kind == "kernel":
            return (uhat.reshape(-1, n * n) @ self.values(x3).T).reshape(values.shape)
        if self.kind == "pointwise":
            return self.values(x3) * np.fft.ifft2(uhat)
        return np.fft.ifft2(self.values(x3) * uhat)


def quantize_apply(sym, field, grid: TransverseGrid, x3, s):
    """Apply the quantized symbol to a grid field or a stack of them.

    ``sym`` is an Expr or a graded symbol (a degree -> SymbolForm map,
    quantized as its ``symbol_total``). ``field`` is an (n, n) complex
    array or a (k, n, n) stack of k fields. A symbol free of xi acts by
    pointwise multiplication, one free of x by a Fourier multiplier, any
    other through its spectral kernel, built once for all the fields.
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
