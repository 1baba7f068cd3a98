"""Symbolic expression kernel for material fields and operator symbols.

The vocabulary is deliberately small: six variables (three spatial
coordinates ``x1 x2 x3``, two transverse wavenumbers ``xi1 xi2``, one
Laplace parameter ``s``), complex constants, ``+ - * /``, integer powers,
unary negation, and the functions ``sqrt exp sin cos`` plus ``recip``
(reciprocal). Expressions are immutable and interned: structurally
identical subtrees are the same Python object, so trees built by the
recursion machinery are really DAGs and repeated subexpressions cost
nothing extra to store or evaluate.

The constructors are the one normal form: ``add``, ``sub``, ``mul``,
``neg``, ``ipow`` and ``recip`` fold constants, prune 0 and 1, cancel
``x - x`` and pull constants to the front as each node is built, so a
node's form depends only on how it was built, never on what the process
built before. There is no separate simplification pass. Each node also
carries its homogeneity degree in (xi1, xi2, s), derived from its
arguments' degrees as it is built (``Expr.degree``).

Evaluation accepts scalars or numpy arrays per variable and broadcasts;
values are coerced to complex128. The square root is the principal
branch and any argument on the closed negative real axis (including 0
and -1) raises ``SqrtDomainError``; division by zero raises rather than
producing inf/NaN. Evaluation memoizes over the shared DAG per call and
frees intermediates as soon as their last consumer has run, so large
kernels evaluate on full grids without holding every node's array alive.

Thread-safety note: the intern table, the free-variable table and the
per-node derivative caches are shared mutable dictionaries. Mutations
are single dict operations (atomic under the GIL); a race can at worst duplicate work, never
corrupt a result. Evaluation itself is pure and keeps all scratch state
per call.
"""

from __future__ import annotations

import cmath
import gc
import re
import weakref
from contextlib import contextmanager
from enum import Enum

import numpy as np

__all__ = [
    "VarId",
    "Expr",
    "ExprError",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "DivisionByZeroError",
    "SqrtDomainError",
    "const",
    "variable",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "ipow",
    "recip",
    "sqrt_",
    "exp_",
    "sin_",
    "cos_",
    "parse",
    "to_text",
    "eval_expr",
    "taylor_eval",
    "diff",
    "free_vars",
    "node_count",
    "ZERO",
    "ONE",
    "X1",
    "X2",
    "X3",
    "XI1",
    "XI2",
    "S",
]

class VarId(Enum):
    """The six admissible variables."""

    X1 = "x1"
    X2 = "x2"
    X3 = "x3"
    XI1 = "xi1"
    XI2 = "xi2"
    S = "s"

    # members are singletons compared by identity; Enum's own hash is a
    # Python-level call, and variable sets are hashed on every new node
    __hash__ = object.__hash__


class ExprError(Exception):
    """Base class for expression kernel errors."""


class ParseError(ExprError):
    """Syntax or vocabulary error; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ExprError):
    """Base class for evaluation errors."""


class UnboundVariableError(EvalError):
    pass


class DivisionByZeroError(EvalError):
    pass


class SqrtDomainError(EvalError):
    """sqrt argument on the closed negative real axis."""


class Expr:
    """Immutable, interned expression node.

    ``op`` is one of const, var, the unary ops, the binary ops, or
    ``pow`` (integer exponent held in ``data``). Identity is structural:
    two equal trees are the same object, so ``is`` comparison and
    id-keyed memoization are sound.

    ``degree`` is the node's homogeneity degree in (xi1, xi2, s), or
    None when the rules cannot prove it homogeneous (``_degree``). It is
    set once, when the node is built, from its arguments' degrees.
    """

    __slots__ = ("op", "args", "data", "free_vars", "degree", "_dcache", "_ref", "__weakref__")

    def __init__(self, op, args, data):
        self.op = op
        self.args = args
        self.data = data
        if op == "var":
            fv = frozenset((data,))
            self.degree = 1 if data in _XI_S else 0
        elif len(args) == 1:
            fv = args[0].free_vars
            self.degree = _degree(op, args[0].degree, None, data)
        elif args:
            a, b = args
            fv = a.free_vars | b.free_vars
            self.degree = _degree(op, a.degree, b.degree, data)
        else:
            fv = frozenset()
            self.degree = 0
        # at most 2^6 distinct sets exist; share one object per set
        self.free_vars = _FREE_VARS.setdefault(fv, fv)
        self._dcache = None  # {VarId: derivative}, made on first use

    # Operator sugar so formulas read naturally in the calculus modules.
    # An operand that is neither an Expr nor a number is left to its own
    # type's reflected operator (NotImplemented), so other term types can
    # combine with expressions.
    def __add__(self, other):
        return add(self, other) if _coercible(other) else NotImplemented

    def __radd__(self, other):
        return add(other, self) if _coercible(other) else NotImplemented

    def __sub__(self, other):
        return sub(self, other) if _coercible(other) else NotImplemented

    def __rsub__(self, other):
        return sub(other, self) if _coercible(other) else NotImplemented

    def __mul__(self, other):
        return mul(self, other) if _coercible(other) else NotImplemented

    def __rmul__(self, other):
        return mul(other, self) if _coercible(other) else NotImplemented

    def __truediv__(self, other):
        return div(self, other) if _coercible(other) else NotImplemented

    def __rtruediv__(self, other):
        return div(other, self) if _coercible(other) else NotImplemented

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return ipow(self, n)

    def __repr__(self):
        return f"Expr({to_text(self)})"


_FREE_VARS: "dict[frozenset, frozenset]" = {}
_XI_S = frozenset((VarId.XI1, VarId.XI2, VarId.S))


def _degree(op, da, db, data):
    """Homogeneity degree of an ``op`` node whose arguments have degrees
    ``da`` (and ``db``): constants and x1, x2, x3 have degree 0, xi1,
    xi2 and s degree 1. Sums need equal degrees, products add them,
    quotients subtract them, ``pow k`` multiplies by k, ``sqrt`` halves
    and ``recip`` negates; ``exp``, ``sin`` and ``cos`` need degree 0.
    Anything else, and any None, gives None. The halves ``sqrt`` makes
    are exact as floats; an integral degree is kept as an int."""
    if da is None:
        return None
    if op == "mul" or op == "div":
        if db is None:
            return None
        d = da + db if op == "mul" else da - db
    elif op == "add" or op == "sub":
        return da if da == db else None
    elif op == "neg":
        return da
    elif op == "recip":
        d = -da
    elif op == "pow":
        d = da * data
    elif op == "sqrt":
        d = da / 2
    else:  # exp, sin, cos
        return 0 if da == 0 else None
    return int(d) if d.__class__ is float and d.is_integer() else d


class _InternRef(weakref.ref):
    """Weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _forget(ref):
    # called when an interned node dies; a newer node may hold the key
    if _intern.get(ref.key) is ref:
        del _intern[ref.key]


# key -> weak reference to the one node with that structure (a plain dict
# of keyed weak references: a WeakValueDictionary costs about twice as much
# per insertion, and node construction is the expansion's inner loop)
_intern: "dict[tuple, _InternRef]" = {}


def _node(op, args, data=None):
    # The key holds the arguments' table references, one per live node, so
    # equality of keys is structural equality of the trees. It does not
    # hold the arguments themselves: a node whose cached derivative reaches
    # back to it (d sqrt(u) = du / (2 sqrt(u))) would otherwise be held by
    # that derivative's key for good, and a dead DAG would leave the table
    # one level per collection. The price: live nodes are no longer
    # reachable from the table, so a full collection over a large live DAG
    # takes about twice as long.
    if len(args) == 2:
        key = (op, data, args[0]._ref, args[1]._ref)
    elif args:
        key = (op, data, args[0]._ref)
    else:
        key = (op, data)
    ref = _intern.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = Expr(op, args, data)
        ref = node._ref = _InternRef(node, _forget)
        ref.key = key
        _intern[key] = ref
    return node


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector while many nodes are built.

    An expansion or a kernel plan allocates hundreds of thousands of
    long-lived nodes, and every full collection rescans all of them:
    about a fifth of an order-5 expand and two fifths of the order-4
    kernel plan of ``heterogeneous_full``. Reference counting still
    frees acyclic garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _coercible(v) -> bool:
    return isinstance(v, (Expr, int, float, complex))


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, complex)):
        return const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def const(value) -> Expr:
    c = complex(value)
    if not cmath.isfinite(c):
        raise ExprError(f"constant {c} is not finite")
    return _node("const", (), c)


def variable(v: VarId) -> Expr:
    if not isinstance(v, VarId):
        raise TypeError("variable() expects a VarId")
    return _node("var", (), v)


ZERO = const(0)
ONE = const(1)

X1 = variable(VarId.X1)
X2 = variable(VarId.X2)
X3 = variable(VarId.X3)
XI1 = variable(VarId.XI1)
XI2 = variable(VarId.XI2)
S = variable(VarId.S)


def _is_const(e, value=None):
    if e.op != "const":
        return False
    return True if value is None else e.data == value


def add(a: Expr, b: Expr) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if b.op == "const":  # constants normalize to the left
        a, b = b, a
    if a.op == "const":
        if b.op == "const":
            return const(a.data + b.data)
        if a.data == 0:
            return b
        # fold into a constant-led sum: c + (d + y) -> (c + d) + y
        if b.op == "add" and b.args[0].op == "const":
            return add(const(a.data + b.args[0].data), b.args[1])
    return _node("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if a.op == "const" and b.op == "const":
        return const(a.data - b.data)
    if _is_const(b, 0):
        return a
    if a is b:
        return ZERO
    if _is_const(a, 0):
        return neg(b)
    if b.op == "const":
        return add(const(-b.data), a)
    return _node("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if a.op == "const" and b.op == "const":
        return const(a.data * b.data)
    if b.op == "const":
        a, b = b, a
    if a.op == "const":
        if a.data == 0:
            return ZERO
        if a.data == 1:
            return b
        if a.data == -1:
            return neg(b)
        if b.op == "mul" and b.args[0].op == "const":
            return mul(const(a.data * b.args[0].data), b.args[1])
        return _node("mul", (a, b))
    # pull a nested constant to the front: x * (c * y) -> c * (x * y)
    if b.op == "mul" and b.args[0].op == "const":
        return mul(b.args[0], mul(a, b.args[1]))
    if a.op == "mul" and a.args[0].op == "const":
        return mul(a.args[0], mul(a.args[1], b))
    if a is b:
        return ipow(a, 2)
    return _node("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(b, 0):
        raise DivisionByZeroError("division by constant zero")
    if b.op == "const":
        return mul(const(1 / b.data), a)
    if _is_const(a, 0):
        return ZERO
    return _node("div", (a, b))


def neg(a: Expr) -> Expr:
    a = _as_expr(a)
    if a.op == "const":
        return const(-a.data)
    if a.op == "neg":
        return a.args[0]
    return _node("neg", (a,))


def ipow(a: Expr, n: int) -> Expr:
    a = _as_expr(a)
    if isinstance(n, float) and not n.is_integer():
        raise TypeError("pow exponent must be an integer")
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if a.op == "const" and not (a.data == 0 and n < 0):
        try:
            return const(a.data**n)
        except OverflowError:
            raise ExprError(f"constant {a.data}^{n} is not finite") from None
    if a.op == "pow":
        return ipow(a.args[0], a.data * n)
    if a.op == "sqrt" and n == 2:
        # (principal sqrt z)^2 == z identically
        return a.args[0]
    return _node("pow", (a,), n)


def recip(a: Expr) -> Expr:
    a = _as_expr(a)
    if _is_const(a, 0):
        raise DivisionByZeroError("reciprocal of constant zero")
    if a.op == "const":
        return const(1 / a.data)
    if a.op == "recip":
        return a.args[0]
    return _node("recip", (a,))


def _fold_unary(op, a):
    # a constant folds through the evaluator itself, so a folded constant
    # has the bits eval_expr gives the unfolded node
    a = _as_expr(a)
    if a.op == "const":
        try:
            return const(_EVAL[op](None, [a.data]))
        except EvalError:
            pass
    return _node(op, (a,))


def sqrt_(a: Expr) -> Expr:
    return _fold_unary("sqrt", a)


def exp_(a: Expr) -> Expr:
    return _fold_unary("exp", a)


def sin_(a: Expr) -> Expr:
    return _fold_unary("sin", a)


def cos_(a: Expr) -> Expr:
    return _fold_unary("cos", a)


def free_vars(e: Expr) -> frozenset:
    return e.free_vars


def node_count(e: Expr) -> int:
    """Number of distinct DAG nodes reachable from e."""
    seen = {e}
    stack = [e]
    while stack:
        for a in stack.pop().args:
            if a not in seen:
                seen.add(a)
                stack.append(a)
    return len(seen)


# ---------------------------------------------------------------------------
# evaluation


def _ev_sqrt(node, vals):
    v = vals[0]
    bad = np.logical_and(np.equal(np.imag(v), 0.0), np.less_equal(np.real(v), 0.0))
    if np.any(bad):
        raise SqrtDomainError("sqrt argument on the closed negative real axis")
    return np.sqrt(v)


def _ev_div(node, vals):
    d = vals[1]
    if np.any(np.equal(d, 0)):
        raise DivisionByZeroError("division by zero")
    return vals[0] / d


def _ev_recip(node, vals):
    d = vals[0]
    if np.any(np.equal(d, 0)):
        raise DivisionByZeroError("reciprocal of zero")
    return 1.0 / d


def _ev_pow(node, vals):
    v = vals[0]
    if node.data < 0 and np.any(np.equal(v, 0)):
        raise DivisionByZeroError("zero base with negative exponent")
    return v ** node.data


_EVAL = {
    "add": lambda n, v: v[0] + v[1],
    "sub": lambda n, v: v[0] - v[1],
    "mul": lambda n, v: v[0] * v[1],
    "div": _ev_div,
    "neg": lambda n, v: -v[0],
    "pow": _ev_pow,
    "sqrt": _ev_sqrt,
    "exp": lambda n, v: np.exp(v[0]),
    "sin": lambda n, v: np.sin(v[0]),
    "cos": lambda n, v: np.cos(v[0]),
    "recip": _ev_recip,
}


def _walk(roots, enter=None):
    """(order, nref): the nodes reachable from ``roots``, each after its
    arguments (shared nodes once), and per node the number of argument
    slots of those nodes that read it. Nodes hash by identity, so they
    key the dicts themselves. With ``enter``, a root or an argument is
    visited only when ``enter(node)`` is true.

    The walk is depth first, last argument first, and holds only the
    current path: one (node, iterator over its remaining arguments) pair
    per level. ``nref`` is also its visited set: a node is entered when
    it is first counted, and a root is entered unless an earlier root
    read it (a root keeps a count of 0 while it is walked, removed at
    the end if nothing read it). A root read by another root is emitted
    once.

    This is the one post-order traversal of a DAG: evaluation, printing
    and ``diff`` all read their node order from it."""
    order = []
    nref = {}
    for root in roots:
        if root in nref or (enter is not None and not enter(root)):
            continue
        nref[root] = 0
        args = reversed(root.args)
        path = [(root, args if enter is None else filter(enter, args))]
        while path:
            node, args = path[-1]
            for a in args:
                n = nref.get(a)
                if n is not None:
                    nref[a] = n + 1
                    continue
                nref[a] = 1
                args = reversed(a.args)
                path.append((a, args if enter is None else filter(enter, args)))
                break
            else:
                path.pop()
                order.append(node)
    for root in roots:
        if nref.get(root) == 0:
            del nref[root]
    return order, nref


def _bind(env: dict) -> dict:
    # {VarId: value} with every value carried in complex128
    bound = {}
    for k, v in env.items():
        if not isinstance(k, VarId):
            raise TypeError("env keys must be VarId")
        if isinstance(v, np.ndarray):
            bound[k] = v.astype(np.complex128, copy=False)
        elif isinstance(v, (int, float, complex, np.number)):
            bound[k] = complex(v)
        else:
            bound[k] = np.asarray(v, dtype=np.complex128)
    return bound


def eval_expr(e: Expr, env: dict):
    """Evaluate ``e`` with variables bound per ``env`` ({VarId: value}).

    Values may be scalars or numpy arrays (broadcast elementwise);
    everything is carried in complex128. Pure and deterministic:
    repeated calls with the same inputs give bit-identical output.
    """
    order, nref = _walk([e])
    vals = {}
    _run(order, nref, {e}, _bind(env), vals)
    return vals[e]


def _consumer_counts(nodes):
    # per node, how many argument slots of ``nodes`` read it
    nref = {}
    for node in nodes:
        for a in node.args:
            nref[a] = nref.get(a, 0) + 1
    return nref


def _run(nodes, nref, keep, bound, vals, jets=frozenset()):
    """Evaluate ``nodes`` (each after its arguments) into ``vals``.

    This is the one loop that evaluates DAG nodes to arrays: ``eval_expr``
    runs it on a whole DAG, a kernel build on the x-and-xi nodes of each
    block, ``taylor_eval`` on a DAG with Taylor jets. ``vals`` maps
    nodes to values and may already hold the values of arguments outside
    ``nodes``. ``nref`` counts, per node, the argument slots of ``nodes``
    that read it; it is consumed, and a value is freed after its last
    reader unless the node is in ``keep``. ``jets`` is a set of seeded
    ``VarId``s: the operations of the nodes that depend on one act on
    jets (``_jet_op``), and a variable node reads its bound value, a jet
    when the variable is seeded.
    """
    for node in nodes:
        op = node.op
        args = node.args
        if jets and op != "var" and not jets.isdisjoint(node.free_vars):
            v = _jet_op(
                node,
                [vals[a] for a in args],
                [not jets.isdisjoint(a.free_vars) for a in args],
            )
        # the arithmetic ops inline (the same operations _EVAL applies)
        elif op == "mul":
            v = vals[args[0]] * vals[args[1]]
        elif op == "add":
            v = vals[args[0]] + vals[args[1]]
        elif op == "const":
            v = node.data
        elif op == "sub":
            v = vals[args[0]] - vals[args[1]]
        elif op == "var":
            try:
                v = bound[node.data]
            except KeyError:
                raise UnboundVariableError(f"variable {node.data.value} is unbound") from None
        else:
            v = _EVAL[op](node, [vals[a] for a in args])
        vals[node] = v
        for a in args:
            r = nref[a] - 1
            nref[a] = r
            if r == 0 and a not in keep:
                del vals[a]  # free intermediates eagerly


# ---------------------------------------------------------------------------
# Taylor-mode evaluation
#
# A jet is an array of shape (degree + 1, directions, *point shape) holding
# the truncated Taylor coefficients f_k = (d/dt)^k f(p + t u) / k! at t = 0
# along each seeded direction u. Coefficient 0 of a nonlinear op goes through
# ``_EVAL``, so jets raise the same typed errors as ``eval_expr``; the higher
# coefficients follow the standard recurrences (Griewank & Walther,
# "Evaluating Derivatives", SIAM 2008, ch. 13).


def _tail(p, q, k):
    # sum_{j=1}^{k} p_j q_{k-j}
    return np.sum(p[1 : k + 1] * q[k - 1 :: -1], axis=0)


def _plus_plain(a, b):
    # jet a plus a plain value b, which only enters coefficient 0
    out = np.empty(np.broadcast_shapes(a.shape, np.shape(b)), dtype=np.complex128)
    out[...] = a
    out[0] += b
    return out


def _conv(a, b):
    # truncated Cauchy product: c_k = sum_i a_i b_{k-i}
    out = a[0] * b
    n = a.shape[0]
    for i in range(1, n):
        out[i:] += a[i] * b[: n - i]
    return out


def _weighted(a):
    # j * a_j: the coefficients of t * da/dt
    return a * np.arange(a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 1))


def _jet_div(node, a, b, a_jet):
    # c = a / b with b a jet: b_0 c_k = a_k - sum_{j>=1} b_j c_{k-j}
    out = np.empty(np.broadcast_shapes(np.shape(a), b.shape), dtype=np.complex128)
    out[0] = _EVAL["div"](node, [a[0] if a_jet else a, b[0]])
    for k in range(1, out.shape[0]):
        num = -_tail(b, out, k)
        if a_jet:
            num += a[k]
        out[k] = num / b[0]
    return out


def _jet_recip(node, a):
    out = np.empty(a.shape, dtype=np.complex128)
    out[0] = _EVAL["recip"](node, [a[0]])
    for k in range(1, a.shape[0]):
        out[k] = -_tail(a, out, k) / a[0]
    return out


def _jet_pow(node, a):
    n = node.data
    if n < 0:
        # k a_0 c_k = sum_{j=1}^{k} ((n + 1) j - k) a_j c_{k-j}; a_0 != 0 once
        # coefficient 0 has been evaluated
        out = np.empty(a.shape, dtype=np.complex128)
        out[0] = _EVAL["pow"](node, [a[0]])
        ja = _weighted(a)
        for k in range(1, a.shape[0]):
            out[k] = ((n + 1) * _tail(ja, out, k) - k * _tail(a, out, k)) / (k * a[0])
        return out
    # binary powering needs no division, so a zero base is harmless
    out, base = None, a
    while True:
        if n & 1:
            out = base if out is None else _conv(out, base)
        n >>= 1
        if not n:
            break
        base = _conv(base, base)
    out = out.copy() if out is a else out
    out[0] = _EVAL["pow"](node, [a[0]])
    return out


def _jet_sqrt(node, a):
    # 2 c_0 c_k = a_k - sum_{j=1}^{k-1} c_j c_{k-j}
    out = np.empty(a.shape, dtype=np.complex128)
    out[0] = _EVAL["sqrt"](node, [a[0]])
    for k in range(1, a.shape[0]):
        out[k] = (a[k] - np.sum(out[1:k] * out[k - 1 : 0 : -1], axis=0)) / (2 * out[0])
    return out


def _jet_exp(node, a):
    # k c_k = sum_{j=1}^{k} j a_j c_{k-j}
    out = np.empty(a.shape, dtype=np.complex128)
    out[0] = _EVAL["exp"](node, [a[0]])
    ja = _weighted(a)
    for k in range(1, a.shape[0]):
        out[k] = _tail(ja, out, k) / k
    return out


def _jet_sin_cos(node, a):
    # sin and cos advance together: k s_k = sum j a_j c_{k-j}, k c_k = -sum j a_j s_{k-j}
    sn = np.empty(a.shape, dtype=np.complex128)
    cs = np.empty(a.shape, dtype=np.complex128)
    sn[0] = np.sin(a[0])
    cs[0] = np.cos(a[0])
    ja = _weighted(a)
    for k in range(1, a.shape[0]):
        sn[k] = _tail(ja, cs, k) / k
        cs[k] = -_tail(ja, sn, k) / k
    out = sn if node.op == "sin" else cs
    out[0] = _EVAL[node.op](node, [a[0]])
    return out


_JET_UNARY = {
    "neg": lambda node, a: -a,
    "recip": _jet_recip,
    "pow": _jet_pow,
    "sqrt": _jet_sqrt,
    "exp": _jet_exp,
    "sin": _jet_sin_cos,
    "cos": _jet_sin_cos,
}


def _jet_op(node, vals, jets):
    # a node with at least one jet argument
    op = node.op
    if len(vals) == 1:
        return _JET_UNARY[op](node, vals[0])
    a, b = vals
    ja, jb = jets
    if op == "add":
        if ja and jb:
            return a + b
        return _plus_plain(a, b) if ja else _plus_plain(b, a)
    if op == "sub":
        if ja and jb:
            return a - b
        return _plus_plain(a, -b) if ja else _plus_plain(-b, a)
    if op == "mul":
        return _conv(a, b) if ja and jb else a * b
    # div: dividing a jet by a plain value scales every coefficient
    return _jet_div(node, a, b, ja) if jb else _EVAL["div"](node, [a, b])


def taylor_eval(roots, env: dict, seeds: dict, degree: int) -> list:
    """Truncated Taylor coefficients of ``roots`` along seeded directions.

    ``seeds`` maps each seeded variable to its components along the k
    directions u_1 .. u_k (a length-k sequence, the same k for every
    seeded variable). For each root the result is an array of shape
    ``(degree + 1, k, *shape)`` whose entry ``[j, d]`` is
    (d/dt)^j root(env + t u_d) / j! at t = 0; ``shape`` has as many
    axes as the widest env value. The DAG is walked once for all roots.

    Nodes that depend on no seeded variable are evaluated as plain values,
    as in ``eval_expr``; which nodes those are is read from each node's
    ``free_vars`` as it is evaluated, so no set of jet nodes is built.
    Coefficient 0 of every other node is computed by the same evaluation
    functions, so a zero divisor or a sqrt on the closed negative real
    axis raises the same typed error.
    """
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValueError("degree must be a non-negative integer")
    bound = _bind(env)
    dirs = {}
    for k, u in seeds.items():
        if not isinstance(k, VarId):
            raise TypeError("seed keys must be VarId")
        dirs[k] = np.asarray(u, dtype=np.complex128).ravel()
    counts = {u.size for u in dirs.values()}
    if len(counts) != 1 or 0 in counts:
        raise ValueError("seeds need the same positive number of directions per variable")
    ndir = counts.pop()
    ndim = max((np.ndim(v) for v in bound.values()), default=0)
    seeded = frozenset(dirs)

    def lift(v):
        # a plain value as a jet: every coefficient past the zeroth is 0
        shape = np.shape(v)
        shape = (1,) * (ndim - len(shape)) + shape
        jet = np.zeros((degree + 1, ndir) + shape, dtype=np.complex128)
        jet[0] = np.reshape(v, shape)
        return jet

    for var in dirs.keys() & bound.keys():
        jet = bound[var] = lift(bound[var])
        if degree:
            jet[1] = dirs[var].reshape((ndir,) + (1,) * ndim)
    roots = list(roots)
    order, nref = _walk(roots)
    vals = {}
    _run(order, nref, set(roots), bound, vals, jets=seeded)
    return [lift(vals[r]) if seeded.isdisjoint(r.free_vars) else vals[r] for r in roots]


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, v: VarId) -> Expr:
    """Exact partial derivative with respect to one variable.

    Derivatives are cached per node per variable; thanks to interning the
    cache is shared by every expression that reuses a subtree. The
    derivative of an exp or sqrt node holds the node (exp(u) du and
    du / (2 sqrt(u))), and so may a derivative built from one; such an
    entry is a reference cycle, which the cyclic collector frees with the
    node, as intern-table keys do not hold nodes.
    """
    if not isinstance(v, VarId):
        raise TypeError("diff expects a VarId")
    if v not in e.free_vars:
        return ZERO
    if e._dcache is not None and v in e._dcache:
        return e._dcache[v]
    # the nodes that depend on v and have no cached derivative; a node
    # free of v has derivative ZERO, never cached
    order, _ = _walk(
        [e], lambda a: v in a.free_vars and (a._dcache is None or v not in a._dcache)
    )
    for node in order:
        op = node.op
        if op == "var":
            d = ONE
        else:
            a = node.args[0]
            da = a._dcache[v] if v in a.free_vars else ZERO
            if op == "neg":
                d = neg(da)
            elif op == "sqrt":
                d = div(da, mul(const(2), node))
            elif op == "exp":
                d = mul(node, da)
            elif op == "sin":
                d = mul(cos_(a), da)
            elif op == "cos":
                d = neg(mul(sin_(a), da))
            elif op == "recip":
                d = neg(div(da, ipow(a, 2)))
            elif op == "pow":
                d = mul(const(node.data), mul(ipow(a, node.data - 1), da))
            else:
                b = node.args[1]
                db = b._dcache[v] if v in b.free_vars else ZERO
                if op == "add":
                    d = add(da, db)
                elif op == "sub":
                    d = sub(da, db)
                elif op == "mul":
                    d = add(mul(da, b), mul(a, db))
                else:  # div
                    d = div(sub(mul(da, b), mul(a, db)), ipow(b, 2))
        if node._dcache is None:
            node._dcache = {}
        node._dcache[v] = d
    return e._dcache[v]


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?P<imag>i)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=;]))"
)
# a binding statement starts with a name followed by "="
_BINDING_RE = re.compile(r"\s*=")
# binding names: "_" and a decimal index, never a variable or function name
_BIND_NAME_RE = re.compile(r"_[0-9]+")

_FUNCTIONS = {"sqrt": sqrt_, "exp": exp_, "sin": sin_, "cos": cos_, "recip": recip}
_VAR_NAMES = {v.value: v for v in VarId}


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tok = None
        self.kind = None
        self.tok_pos = 0
        self.names = None  # binding name -> node, once a binding is read
        self.advance()

    def advance(self):
        text = self.text
        n = len(text)
        pos = self.pos
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            self.tok, self.kind, self.tok_pos = None, "end", pos
            self.pos = pos
            return
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            self.kind = "num"
            self.tok = m.group("num")
            self.tok_pos = m.start("num")
        elif m.group("ident") is not None:
            self.kind = "ident"
            self.tok = m.group("ident")
            self.tok_pos = m.start("ident")
        else:
            self.kind = "op"
            self.tok = m.group("op")
            self.tok_pos = m.start("op")
        self.pos = m.end()

    def expect_op(self, ch):
        if self.kind != "op" or self.tok != ch:
            raise ParseError(f"expected {ch!r}", self.tok_pos)
        self.advance()

    def at_binding(self):
        return self.kind == "ident" and _BINDING_RE.match(self.text, self.pos) is not None


def _parse_number(tok):
    if tok.endswith("i"):
        return complex(0.0, float(tok[:-1]))
    return complex(float(tok))


def _at(pos, fn, *args):
    # fn(*args) for the parser: a constant that folds to inf or nan (an
    # ExprError that is not an EvalError) is a ParseError at ``pos``
    try:
        return fn(*args)
    except EvalError:
        raise
    except ExprError as exc:
        raise ParseError(str(exc), pos) from None


def _parse_expr(ts):
    node = _parse_term(ts)
    while ts.kind == "op" and ts.tok in "+-":
        op, pos = ts.tok, ts.tok_pos
        ts.advance()
        rhs = _parse_term(ts)
        node = _at(pos, add if op == "+" else sub, node, rhs)
    return node


def _parse_term(ts):
    node = _parse_unary(ts)
    while ts.kind == "op" and ts.tok in "*/":
        op, pos = ts.tok, ts.tok_pos
        ts.advance()
        rhs = _parse_unary(ts)
        node = _at(pos, mul if op == "*" else div, node, rhs)
    return node


def _parse_unary(ts):
    if ts.kind == "op" and ts.tok == "-":
        ts.advance()
        return neg(_parse_unary(ts))
    return _parse_power(ts)


def _parse_power(ts):
    base = _parse_atom(ts)
    if ts.kind == "op" and ts.tok == "^":
        pos = ts.tok_pos
        ts.advance()
        return _at(pos, ipow, base, _parse_exponent(ts))
    return base


def _parse_exponent(ts):
    if ts.kind == "op" and ts.tok == "(":
        ts.advance()
        n = _parse_exponent(ts)
        ts.expect_op(")")
        return n
    sign = 1
    if ts.kind == "op" and ts.tok == "-":
        ts.advance()
        sign = -1
    if ts.kind != "num":
        raise ParseError("expected integer exponent", ts.tok_pos)
    val = _parse_number(ts.tok)
    if val.imag != 0 or val.real != int(val.real):
        raise ParseError("exponent must be an integer", ts.tok_pos)
    ts.advance()
    return sign * int(val.real)


def _parse_atom(ts):
    if ts.kind == "num":
        node = _at(ts.tok_pos, const, _parse_number(ts.tok))
        ts.advance()
        return node
    if ts.kind == "ident":
        name = ts.tok
        pos = ts.tok_pos
        ts.advance()
        if ts.kind == "op" and ts.tok == "(":
            fn = _FUNCTIONS.get(name)
            if fn is None:
                raise ParseError(f"unknown function {name!r}", pos)
            ts.advance()
            arg = _parse_expr(ts)
            ts.expect_op(")")
            return _at(pos, fn, arg)
        v = _VAR_NAMES.get(name)
        if v is not None:
            return variable(v)
        bound = ts.names.get(name) if ts.names else None
        if bound is not None:
            return bound
        if _BIND_NAME_RE.fullmatch(name):
            raise ParseError(f"undefined name {name!r}", pos)
        raise ParseError(f"unknown identifier {name!r}", pos)
    if ts.kind == "op" and ts.tok == "(":
        ts.advance()
        node = _parse_expr(ts)
        ts.expect_op(")")
        return node
    raise ParseError("expected a number, variable, function call, or '('", ts.tok_pos)


def _parse_binding(ts):
    name, pos = ts.tok, ts.tok_pos
    if not _BIND_NAME_RE.fullmatch(name):
        raise ParseError(f"cannot bind {name!r}: binding names are _1, _2, ...", pos)
    if ts.names is None:
        ts.names = {}
    elif name in ts.names:
        raise ParseError(f"name {name!r} is bound twice", pos)
    ts.advance()
    ts.expect_op("=")
    node = _parse_expr(ts)
    ts.expect_op(";")
    ts.names[name] = node  # bound after its own expression is read


def parse(text: str) -> Expr:
    """Parse DSL text into an expression tree.

    Grammar (EBNF; also documented in the README):

        program  = { binding } expr ;
        binding  = name "=" expr ";" ;
        name     = "_" digit { digit } ;
        expr     = term { ("+" | "-") term } ;
        term     = unary { ("*" | "/") unary } ;
        unary    = "-" unary | power ;
        power    = atom [ "^" exponent ] ;
        exponent = [ "-" ] integer | "(" exponent ")" ;
        atom     = number | variable | name | function "(" expr ")" | "(" expr ")" ;
        function = "sqrt" | "exp" | "sin" | "cos" | "recip" ;
        variable = "x1" | "x2" | "x3" | "xi1" | "xi2" | "s" ;
        number   = decimal or scientific literal, optional "i" suffix ;

    A binding names the node of its expression for the statements after
    it; ``to_text`` writes one per shared DAG node. Whitespace, newlines
    included, is insignificant. A name used before or without its
    binding, bound twice, or of another form than ``_1``, ``_2``, ...
    is an error, and so are a binding after the result expression and a
    program of bindings only.

    Errors carry the byte offset of the offending token; input nested
    deeper than the interpreter's recursion limit is a ``ParseError`` too.
    """
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    ts = _Tokens(text)
    try:
        while ts.at_binding():
            _parse_binding(ts)
        if ts.names and ts.kind == "end":
            raise ParseError("expected the result expression after the bindings", ts.tok_pos)
        node = _parse_expr(ts)
    except RecursionError:
        raise ParseError("expression nested too deeply", ts.tok_pos) from None
    if ts.kind != "end":
        if ts.at_binding():
            raise ParseError("binding after the result expression", ts.tok_pos)
        raise ParseError(f"unexpected trailing input {ts.tok!r}", ts.tok_pos)
    return node


# ---------------------------------------------------------------------------
# printing

_PREC = {
    "add": 10,
    "sub": 10,
    "mul": 20,
    "div": 20,
    "neg": 25,
    "pow": 30,
}


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return repr(int(x))
    return repr(x)


def _fmt_const(c: complex) -> tuple[str, int]:
    # returns (text, precedence of the produced fragment)
    if c.imag == 0:
        if c.real < 0:
            return _fmt_real(c.real), _PREC["neg"]
        return _fmt_real(c.real), 40
    if c.real == 0:
        if c.imag < 0:
            return f"-{_fmt_real(-c.imag)}i", _PREC["neg"]
        return f"{_fmt_real(c.imag)}i", 40
    op = "-" if c.imag < 0 else "+"
    return f"({_fmt_real(c.real)} {op} {_fmt_real(abs(c.imag))}i)", 40


_BINARY_SYM = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def to_text(e: Expr) -> str:
    """Render to DSL text; ``parse(to_text(e))`` is evaluation-equivalent.
    A reciprocal prints as ``recip(a)``, not as a division, so the
    expansion terms read back as the very same DAG.

    Each non-leaf node read by two or more consumers is printed once, as
    a binding line ``_k = <text>;`` in DAG post-order, and read by name
    after that; every other node is printed inline at its one use. The
    last line is the result expression. A DAG with no shared non-leaf
    node prints as one expression, as a tree. The text grows with the
    number of DAG nodes, not with the tree: for ``heterogeneous_full``
    (+ branch, eta 1), y_-3 (5 979 nodes) prints to 45 KB and y_-4
    (36 058 nodes) to 0.32 MB in 0.09-0.20 s on a shared 2-core
    machine, where their trees would print to 9.9 MB and 550 MB. A
    node's text is dropped as soon as its last consumer is rendered.
    """
    order, nref = _walk([e])
    done = {}  # node -> (unparenthesized text or binding name, precedence)
    lines = []

    def arg(a, ctx):
        text, prec = done[a]
        return f"({text})" if prec < ctx else text

    for node in order:
        op = node.op
        if op == "const":
            text, prec = _fmt_const(node.data)
        elif op == "var":
            text, prec = node.data.value, 40
        elif op in ("sqrt", "exp", "sin", "cos", "recip"):
            text, prec = f"{op}({arg(node.args[0], 0)})", 40
        elif op == "neg":
            text = "-" + arg(node.args[0], _PREC["neg"] + 1)
            prec = _PREC["neg"]
        elif op == "pow":
            n = node.data
            exp = str(n) if n >= 0 else f"(-{-n})"
            text = arg(node.args[0], _PREC["pow"] + 1) + "^" + exp
            prec = _PREC["pow"]
        else:
            p = _PREC[op]
            text = arg(node.args[0], p) + _BINARY_SYM[op] + arg(node.args[1], p + 1)
            prec = p
        if node.args and nref.get(node, 0) > 1:
            name = f"_{len(lines) + 1}"
            lines.append(f"{name} = {text};")
            text, prec = name, 40
        done[node] = (text, prec)
        for a in node.args:
            nref[a] -= 1
            if nref[a] == 0:
                del done[a]
    lines.append(done[e][0])
    return "\n".join(lines)
