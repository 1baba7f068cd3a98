import configparser
import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anisosplit import expand, presets
from anisosplit import expr as expr_module
from anisosplit.expr import (
    ONE,
    S,
    X1,
    X2,
    XI1,
    ZERO,
    DivisionByZeroError,
    ExprError,
    ParseError,
    SqrtDomainError,
    UnboundVariableError,
    VarId,
    add,
    const,
    cos_,
    diff,
    div,
    eval_expr,
    exp_,
    free_vars,
    ipow,
    mul,
    neg,
    parse,
    recip,
    sin_,
    sqrt_,
    sub,
    taylor_eval,
    to_text,
)
import test_cli
from helpers import stack_walk

ENV = {
    VarId.X1: 0.7,
    VarId.X2: -1.3,
    VarId.X3: 0.4,
    VarId.XI1: 1.1,
    VarId.XI2: -0.6,
    VarId.S: 1.2 + 0.5j,
}


def _rand_expr(rng, depth=4):
    """Random expression over all six variables, safe to evaluate near ENV."""
    leaves = [X1, X2, XI1, S, const(rng.uniform(0.5, 2.0)), ONE]
    if depth == 0:
        return leaves[rng.integers(len(leaves))]
    k = rng.integers(7)
    a = _rand_expr(rng, depth - 1)
    b = _rand_expr(rng, depth - 1)
    if k == 0:
        return add(a, b)
    if k == 1:
        return sub(a, b)
    if k == 2:
        return mul(a, b)
    if k == 3:
        return sin_(a)
    if k == 4:
        return cos_(a)
    if k == 5:
        # exp of a damped argument to keep magnitudes tame
        return exp_(mul(const(0.1), a))
    return add(mul(const(0.5), a), b)


def test_parse_eval_matches_direct_arithmetic():
    e = parse("2*x1 + x2^2 - 3/(s + 1) + xi1*xi2")
    want = (
        2 * ENV[VarId.X1]
        + ENV[VarId.X2] ** 2
        - 3 / (ENV[VarId.S] + 1)
        + ENV[VarId.XI1] * ENV[VarId.XI2]
    )
    assert eval_expr(e, ENV) == pytest.approx(want)


def test_imaginary_literal_suffix():
    e = parse("2i*s + 0.5i")
    want = 2j * ENV[VarId.S] + 0.5j
    assert eval_expr(e, ENV) == pytest.approx(want)


def test_functions_evaluate():
    e = parse("sqrt(x1) * exp(x2) + sin(xi1) - cos(xi2)")
    want = (
        np.sqrt(ENV[VarId.X1]) * np.exp(ENV[VarId.X2])
        + np.sin(ENV[VarId.XI1])
        - np.cos(ENV[VarId.XI2])
    )
    assert eval_expr(e, ENV) == pytest.approx(want)


def test_parse_recip():
    e = parse("recip(x1)")
    assert e is recip(X1)
    assert eval_expr(e, ENV) == pytest.approx(1 / ENV[VarId.X1], rel=1e-15)
    r = recip(add(mul(X1, S), sin_(X2)))
    assert eval_expr(parse(to_text(r)), ENV) == pytest.approx(eval_expr(r, ENV), rel=1e-15)


def test_interning_identical_sources():
    a = parse("x1*x1 + sin(x2)")
    b = parse("  x1 * x1+sin( x2 )")
    assert a is b


def test_interning_constructed_vs_parsed():
    assert add(mul(X1, X1), sin_(X2)) is parse("x1*x1 + sin(x2)")


def test_constant_folding():
    assert parse("2*3 + 1") is const(7)
    assert mul(ZERO, S) is ZERO
    assert mul(ONE, S) is S
    assert add(S, ZERO) is S
    assert neg(neg(S)) is S


def test_add_folds_a_constant_into_a_constant_led_sum():
    assert parse("1 + x1 + 2") is add(const(3), X1)
    assert to_text(parse("1 + x1 + 2")) == "3 + x1"
    assert parse("x1 - 1 + 1") is X1
    assert add(const(2), add(const(-2), S)) is S
    assert sub(add(const(1), S), const(4)) is add(const(-3), S)


def test_round_trip_through_text():
    rng = np.random.default_rng(42)
    for _ in range(60):
        e = _rand_expr(rng)
        assert parse(to_text(e)) is e


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    e = parse("sin(x1)*cos(x2) + s*xi1 - x1/(2 + cos(x2))")
    xs = rng.uniform(-2, 2, size=12)
    ys = rng.uniform(-2, 2, size=12)
    env = dict(ENV)
    env[VarId.X1] = xs
    env[VarId.X2] = ys
    got = eval_expr(e, env)
    for k in range(12):
        env_k = dict(ENV)
        env_k[VarId.X1] = xs[k]
        env_k[VarId.X2] = ys[k]
        assert got[k] == pytest.approx(eval_expr(e, env_k))


def test_diff_against_finite_differences():
    rng = np.random.default_rng(2024)
    h = 1e-6
    for _ in range(40):
        e = _rand_expr(rng)
        v = [VarId.X1, VarId.X2, VarId.XI1][rng.integers(3)]
        d = diff(e, v)
        env = dict(ENV)
        env[v] = ENV[v] + h
        up = eval_expr(e, env)
        env[v] = ENV[v] - h
        dn = eval_expr(e, env)
        fd = (up - dn) / (2 * h)
        got = eval_expr(d, ENV)
        assert abs(got - fd) <= 1e-5 * (1 + abs(fd))


def test_diff_quotient_and_sqrt_rules():
    e = div(sin_(X1), add(const(2), ipow(X1, 2)))
    x = 0.37
    d = eval_expr(diff(e, VarId.X1), {VarId.X1: x})
    want = (np.cos(x) * (2 + x * x) - np.sin(x) * 2 * x) / (2 + x * x) ** 2
    assert d == pytest.approx(want, rel=1e-12)

    g = sqrt_(add(const(1), ipow(X1, 2)))
    dg = eval_expr(diff(g, VarId.X1), {VarId.X1: x})
    assert dg == pytest.approx(x / np.sqrt(1 + x * x), rel=1e-12)


def test_diff_prunes_absent_variables():
    e = parse("sin(x1)*exp(x1) + 7")
    assert diff(e, VarId.X2) is ZERO
    assert diff(const(5), VarId.X1) is ZERO


def test_free_vars():
    e = parse("sin(x1) + s*xi2")
    assert free_vars(e) == frozenset({VarId.X1, VarId.XI2, VarId.S})
    assert free_vars(const(4)) == frozenset()


def test_degree_rules():
    # the homogeneity degree in (xi1, xi2, s) each node gets when built
    assert parse("s + 1").degree is None
    assert exp_(S).degree is None and sin_(parse("xi1/x1")).degree is None
    assert exp_(X1).degree == 0 and cos_(parse("xi1/s")).degree == 0
    assert const(2.5).degree == 0 and X2.degree == 0 and XI1.degree == 1
    assert sqrt_(S).degree == 0.5
    assert sqrt_(parse("s^2 + xi1^2")).degree == 1
    assert type(sqrt_(S).degree) is float and type(mul(sqrt_(S), sqrt_(XI1)).degree) is int
    assert ipow(parse("xi1 + s"), 3).degree == 3 and ipow(sqrt_(S), -3).degree == -1.5
    assert div(X1, ipow(S, 2)).degree == -2 and div(S, parse("s + 1")).degree is None
    assert recip(parse("x1*xi2")).degree == -1 and neg(S).degree == 1
    assert parse("s*x1 - xi2").degree == 1 and parse("s*xi1 + s").degree is None
    assert mul(parse("s + 1"), S).degree is None and recip(parse("s + 1")).degree is None


def test_node_count_counts_shared_nodes_once():
    e = parse("(sin(x1) + s)*(sin(x1) + s) + sin(x1)/xi2")
    assert expr_module.node_count(e) == len(expr_module._walk([e])[0]) == 8


@pytest.fixture(scope="module")
def order_four_terms():
    # y_0 .. y_-4 of both branches of two heterogeneous media
    return {
        (preset.__name__, sign): [exp.term(-k) for k in range(5)]
        for preset in (presets.heterogeneous_full, presets.dual_path_medium)
        for sign in (1, -1)
        for exp in [expand(preset(), sign, 1, 4)]
    }


def _assert_walks_agree(roots, enter=None):
    order, nref = expr_module._walk(roots, enter)
    want_order, want_nref = stack_walk(roots, enter)
    assert len(order) == len(want_order)
    assert all(a is b for a, b in zip(order, want_order))
    assert nref == want_nref


def test_walk_matches_the_stack_walk_oracle(order_four_terms):
    for terms in order_four_terms.values():
        for e in terms:
            _assert_walks_agree([e])
            for v in (VarId.X3, VarId.XI1, VarId.S):
                # diff's predicate: the nodes that depend on v, uncached
                _assert_walks_agree(
                    [e], lambda a: v in a.free_vars and (a._dcache is None or v not in a._dcache)
                )
        y0, y1, y2, y3, y4 = terms
        inner = y3.args[0]  # read by y_-3
        assert inner.args
        # shared, repeated, and a root that a later or an earlier root reads
        _assert_walks_agree([y2, y4, y2, y0, y1, y4])
        _assert_walks_agree([inner, y1, y3, y2])
        _assert_walks_agree([y3, y0, inner, y3])
        _assert_walks_agree([inner, y3, inner], lambda a: VarId.S in a.free_vars)


def test_walk_counts_roots_only_where_an_argument_reads_them():
    a = add(X1, S)
    b = mul(a, sin_(a))
    assert a.args == (X1, S) and b.args == (a, sin_(a))
    # last argument first; a root that an earlier or a later root reads
    # is emitted once, a repeated root once
    for roots in ([a, b, a], [b, a], [b, b, a]):
        order, nref = expr_module._walk(roots)
        assert order == [S, X1, a, sin_(a), b]
        assert nref == {S: 1, X1: 1, a: 2, sin_(a): 1}


def test_walk_of_a_deep_chain_does_not_recurse():
    e = X1
    for _ in range(100_000):
        e = add(sin_(e), X2)
    order, nref = expr_module._walk([e])
    assert len(order) == 200_002 and order[-1] is e
    want_order, want_nref = stack_walk([e])
    assert all(a is b for a, b in zip(order, want_order))
    assert nref == want_nref
    assert expr_module.node_count(e) == 200_002
    assert nref[X2] == 100_000 and nref[X1] == 1


def test_walk_peak_memory_stays_near_its_result(order_four_terms):
    # the walk holds only the current path besides what it returns: no
    # visited set, and no stack entry per argument slot
    e = order_four_terms[("heterogeneous_full", 1)][4]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = expr_module._walk([e])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 36_058
    assert peak - base < 1.6 * (kept - base)


def test_identical_subtrees_cancel():
    # interning makes equal-form subtrees the same node, so the
    # difference collapses structurally; commuted forms stay distinct
    assert sub(mul(X1, X2), mul(X1, X2)) is ZERO
    e = sub(mul(X1, X2), mul(X2, X1))
    assert eval_expr(e, ENV) == pytest.approx(0.0)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("x1 + * 2")
    assert "5" in str(exc.value) or "offset" in str(exc.value).lower()


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ParseError):
        parse("x1 + y")


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_expr(parse("x1 + x3"), {VarId.X1: 1.0})


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        div(ONE, ZERO)
    with pytest.raises(DivisionByZeroError):
        eval_expr(recip(X1), {VarId.X1: 0.0})


def test_sqrt_rejects_branch_cut():
    # closed negative real axis, including the origin
    with pytest.raises(SqrtDomainError):
        eval_expr(sqrt_(X1), {VarId.X1: -4.0})
    with pytest.raises(SqrtDomainError):
        eval_expr(sqrt_(X1), {VarId.X1: 0.0})
    v = eval_expr(sqrt_(X1), {VarId.X1: -4.0 + 1e-9j})
    assert v.real > 0


_FOLD_CONSTANTS = [0.7, -1.3, 2.5j, 1e-3 - 4j, -2.0 + 1e-12j, 3.0 + 0.5j, -0.25 - 0.75j, 40.0]


@pytest.mark.parametrize("fn", [sqrt_, exp_, sin_, cos_], ids=["sqrt", "exp", "sin", "cos"])
def test_folded_constant_is_the_evaluated_node(fn):
    op = fn.__name__.rstrip("_")
    for c in _FOLD_CONSTANTS:
        if op == "sqrt" and c.imag == 0 and c.real <= 0:
            continue
        folded = fn(const(c))
        assert folded.op == "const"
        want = eval_expr(expr_module._node(op, (const(c),)), {})
        assert np.complex128(folded.data).tobytes() == np.complex128(want).tobytes()


@pytest.mark.parametrize("c", [-4.0, -1.0, -1e-300, 0.0])
def test_sqrt_keeps_a_constant_on_the_branch_cut_unfolded(c):
    e = sqrt_(const(c))
    assert e.op == "sqrt"
    with pytest.raises(SqrtDomainError):
        eval_expr(e, {})


def test_sqrt_principal_branch():
    v = eval_expr(sqrt_(S), {VarId.S: -1.0 + 1j})
    assert v == pytest.approx(np.sqrt(complex(-1.0, 1.0)))
    assert v.real > 0


def test_ipow_negative_exponent():
    e = ipow(X1, -2)
    assert eval_expr(e, {VarId.X1: 2.0}) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# printer: rendering each DAG node once must not change a byte


def _recursive_to_text(e):
    """The tree-recursive printer the DAG printer replaced (test oracle)."""
    prec_of = {"add": 10, "sub": 10, "mul": 20, "div": 20, "neg": 25, "pow": 30}

    def real(x):
        return repr(int(x)) if x == int(x) and abs(x) < 1e16 else repr(x)

    def fmt_const(c):
        if c.imag == 0:
            return real(c.real), (25 if c.real < 0 else 40)
        if c.real == 0:
            if c.imag < 0:
                return f"-{real(-c.imag)}i", 25
            return f"{real(c.imag)}i", 40
        op = "-" if c.imag < 0 else "+"
        return f"({real(c.real)} {op} {real(abs(c.imag))}i)", 40

    def go(node, ctx):
        op = node.op
        if op == "const":
            text, prec = fmt_const(node.data)
        elif op == "var":
            text, prec = node.data.value, 40
        elif op in ("sqrt", "exp", "sin", "cos", "recip"):
            text, prec = f"{op}({go(node.args[0], 0)})", 40
        elif op == "neg":
            text, prec = "-" + go(node.args[0], 26), 25
        elif op == "pow":
            n = node.data
            exp = str(n) if n >= 0 else f"(-{-n})"
            text, prec = go(node.args[0], 31) + "^" + exp, 30
        else:
            sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[op]
            p = prec_of[op]
            text, prec = go(node.args[0], p) + sym + go(node.args[1], p + 1), p
        return f"({text})" if prec < ctx else text

    return go(e, 0)


def _assert_round_trip(e):
    # the let-bound text reads back to a DAG that evaluates bit for bit
    # like e, to the node the tree text reads to, and prints the same text
    text = to_text(e)
    back = parse(text)
    assert back is parse(_recursive_to_text(e))
    assert np.array_equal(eval_expr(back, ENV), eval_expr(e, ENV))
    assert to_text(back) == text
    return text


@pytest.mark.parametrize("eta", [0, 1])
def test_to_text_matches_recursive_printer_on_expansion_terms(eta):
    # expansion terms share nodes, so they print with binding lines
    ex = expand(presets.heterogeneous_full(), 1, eta, 2)
    for k in range(3):
        text = _assert_round_trip(ex.term(-k))
        assert text.startswith("_1 = ")
        assert len(text) < len(_recursive_to_text(ex.term(-k)))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eta", [0, 1])
def test_term_text_round_trip_through_order_four(sign, eta):
    ex = expand(presets.heterogeneous_full(), sign, eta, 4)
    for k in range(5):
        term = ex.term(-k)
        start = time.perf_counter()
        text = to_text(term)
        elapsed = time.perf_counter() - start
        assert parse(text) is term
    # y_-4: 37 038 nodes at eta 1, a 439 MB tree
    assert len(text) <= 2**20 and elapsed < 1.0


def test_to_text_matches_recursive_printer_on_every_op():
    shared = add(mul(X1, S), sin_(X2))
    cases = [
        recip(shared),
        mul(recip(X1), recip(add(X1, XI1))),
        neg(ipow(X1, 3)),
        neg(ipow(shared, -2)),
        ipow(neg(X1), 2),
        ipow(sub(X1, X2), -3),
        div(sub(X1, neg(X2)), mul(XI1, div(S, X2))),
        sub(X1, sub(X2, S)),
        sub(sub(X1, X2), S),
        div(X1, div(X2, S)),
        add(const(-2.5), mul(const(-3), X1)),
        add(const(2j), mul(const(-0.5j), S)),
        mul(const(1.5 - 2j), sqrt_(add(const(1 + 0.25j), XI1))),
        ipow(const(-2) + X1, 2),
        exp_(neg(cos_(div(S, const(1e20))))),
        add(const(1e20), X1),
        const(-7),
        const(-1j),
        const(3 + 4j),
        const(1e-300),
    ]
    # no shared non-leaf node (x1 is a shared leaf): printed as a tree
    for e in cases:
        assert to_text(e) == _recursive_to_text(e)
        assert eval_expr(parse(to_text(e)), ENV) == pytest.approx(eval_expr(e, ENV), rel=1e-12)
    # a shared non-leaf node gets one binding line
    text = _assert_round_trip(mul(shared, mul(shared, X2)))
    assert text == "_1 = x1*s + sin(x2);\n_1*(_1*x2)"


def test_to_text_binds_shared_nodes_in_post_order():
    a = add(X1, S)
    b = mul(a, sin_(a))
    e = sub(mul(b, cos_(b)), neg(a))
    text = _assert_round_trip(e)
    assert text == "_1 = x1 + s;\n_2 = _1*sin(_1);\n_2*cos(_2) - -_1"


def test_to_text_is_the_tree_text_without_shared_nodes():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        e = _rand_expr(rng)
        order, nref = expr_module._walk([e])
        if all(nref.get(node, 0) < 2 for node in order if node.args):
            assert to_text(e) == _recursive_to_text(e)
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("_1 = x1 + s;\n_2*_1", 13, "undefined name '_2'"),
        ("_1 = _1 + s;\n_1", 5, "undefined name '_1'"),
        ("_1 = x1;\n_1 = s;\n_1", 9, "bound twice"),
        ("x1 = 2;\nx1", 0, "cannot bind 'x1'"),
        ("_1 = s;\nsqrt = 2;\n_1", 8, "cannot bind 'sqrt'"),
        ("_1 = s;\nxi2 = _1;\n_1", 8, "cannot bind 'xi2'"),
        ("_1 = s;\n_1*x1\n_2 = x2;", 14, "binding after the result"),
        ("_1 = x1;\n_2 = _1*s;", 19, "expected the result"),
        ("_1 = x1\n_2 = _1*s;\n_2", 8, "expected ';'"),
    ],
)
def test_parse_binding_errors_carry_the_offset(text, offset, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == offset
    assert message in str(info.value)


@pytest.mark.parametrize(
    "text, offset",
    [("1e400", 0), ("x1*1e400", 3), ("1e308*10", 5), ("10^400", 2), ("x2 + 1/1e-320", 6)],
)
def test_parse_rejects_non_finite_constants_at_their_token(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == offset
    assert "not finite" in str(info.value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
def test_const_rejects_non_finite_values(value):
    with pytest.raises(ExprError, match="not finite"):
        const(value)


def test_parse_bindings_share_their_nodes():
    e = parse("_1 = sin(x1) + s;\n_2 = _1^2;\n_2 - 3*_1")
    a = add(sin_(X1), S)
    assert e is sub(ipow(a, 2), mul(const(3), a))
    # whitespace is insignificant: one line reads the same
    assert parse("_1 = sin(x1) + s; _2 = _1^2; _2 - 3*_1") is e


def _medium_fields():
    """Every [medium] kappa, alpha entry and rho entry of the example
    config and of the configs in tests/test_cli.py."""
    root = Path(__file__).resolve().parent.parent
    texts = [(root / "demos" / "example.cfg").read_text()]
    texts += [v for v in vars(test_cli).values() if isinstance(v, str) and "[medium]" in v]
    fields = []
    for text in texts:
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        med = cp["medium"]
        fields.append(med["kappa"])
        for key in ("alpha", "rho"):
            if key in med:
                fields += [p.strip() for p in med[key].split(",")]
    return fields


def test_medium_fields_parse_as_before():
    # the tree text of each field as the grammar without bindings read it
    before = {
        "1 + 0.2*sin(x1)*cos(x3)": "1 + 0.2*(sin(x1)*cos(x3))",
        "2 + 0.2*sin(x1)*cos(x2)": "2 + 0.2*(sin(x1)*cos(x2))",
        "0.4 + 0.1*sin(x3)": "0.4 + 0.1*sin(x3)",
        "1.5 + 0.2*sin(x3)": "1.5 + 0.2*sin(x3)",
    }
    fields = _medium_fields()
    assert set(before) <= set(fields)
    for text in fields:
        e = parse(text)
        if text in before:
            assert _recursive_to_text(e) == before[text]
            assert to_text(e) == before[text]
        else:
            assert e is const(float(text))


def test_to_text_deep_chain_at_default_recursion_limit():
    e = X1
    for _ in range(5000):
        e = sin_(e)
    assert sys.getrecursionlimit() < 5000
    assert to_text(e) == "sin(" * 5000 + "x1" + ")" * 5000


def test_parse_too_deeply_nested_is_parse_error():
    text = "(" * 5000 + "x1" + ")" * 5000
    with pytest.raises(ParseError) as info:
        parse(text)
    assert 0 < info.value.offset < 5000


def test_import_leaves_recursion_limit_alone():
    code = (
        "import sys; before = sys.getrecursionlimit(); import anisosplit; "
        "print(before, sys.getrecursionlimit())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    before, after = out.stdout.split()
    assert before == after


@pytest.mark.parametrize("fn", [sin_, exp_, sqrt_], ids=["sin", "exp", "sqrt"])
def test_dead_dag_leaves_the_intern_table_in_one_collection(fn):
    # the derivative cached on an exp or sqrt node holds the node; a table
    # key that held a node's arguments would keep such a node in the table
    # for good, and free any other dead DAG one level per collection
    while gc.collect():
        pass  # garbage of earlier tests may still be leaving the table
    baseline = len(expr_module._intern)
    e = X1 + X2
    for k in range(60):
        e = fn(e * const(0.5 + k)) * X1 + X2
    d = diff(e, VarId.X1)
    assert len(expr_module._intern) > baseline + 500
    del e, d
    gc.collect()
    assert len(expr_module._intern) == baseline


def test_equal_variable_sets_share_one_object():
    a = add(mul(X1, S), XI1)
    b = div(sin_(XI1), sub(S, ipow(X1, 3)))
    assert a is not b
    assert a.free_vars is b.free_vars
    assert sin_(X2).free_vars is X2.free_vars
    assert len(expr_module._FREE_VARS) <= 64


# ---------------------------------------------------------------------------
# Taylor-mode evaluation against repeated symbolic differentiation

_JET_DIRS = np.array([[1.0, 0.0], [0.6, 0.8], [-0.3, 1.2]])
_JET_DEGREE = 4

_JET_CASES = {
    "add": add(mul(X1, X2), sin_(X1)),
    "sub": sub(ipow(X1, 2), mul(X2, XI1)),
    "mul": mul(add(mul(X1, X2), const(2.0)), add(sin_(X1), X2)),
    "div": div(add(mul(X1, X1), X2), add(cos_(X2), add(X1, const(3.0)))),
    "recip": recip(add(X1, add(mul(X2, X2), const(2.0)))),
    "pow": ipow(add(mul(X1, X2), ONE), 5),
    "pow_negative": ipow(add(X1, add(mul(const(2.0), X2), const(3.0))), -3),
    "sqrt": sqrt_(add(mul(X1, X1), add(X2, const(3.0)))),
    "exp": exp_(mul(X1, X2)),
    "sin": sin_(add(mul(X1, X2), X1)),
    "cos": cos_(sub(X1, mul(X2, X2))),
    "neg": neg(mul(X1, exp_(X2))),
    # XI1 is not seeded: these nodes mix plain values into jets
    "plain_mix": add(
        sub(mul(add(X1, mul(const(3.0), XI1)), sin_(XI1)), div(XI1, X2)),
        sub(recip(add(XI1, X1)), sub(XI1, X1)),
    ),
    "plain_divisor": div(sin_(X1), add(XI1, const(2.0))),
    "plain_numerator": div(cos_(XI1), add(X2, const(2.0))),
}


def _jet_env(rng, n=7):
    return {
        VarId.X1: rng.uniform(0.3, 1.5, n),
        VarId.X2: rng.uniform(0.3, 1.5, n),
        VarId.XI1: rng.uniform(0.5, 1.0, n),
    }


def _directional_coefficients(e, env, u, degree):
    # c_k = (u . grad)^k e / k!, by repeated symbolic diff
    out, g = [], e
    for k in range(degree + 1):
        v = np.broadcast_to(np.asarray(eval_expr(g, env)), (len(env[VarId.X1]),))
        out.append(v / math.factorial(k))
        g = add(mul(const(u[0]), diff(g, VarId.X1)), mul(const(u[1]), diff(g, VarId.X2)))
    return np.array(out)


@pytest.mark.parametrize("case", sorted(_JET_CASES))
def test_taylor_eval_matches_repeated_diff(case):
    e = _JET_CASES[case]
    env = _jet_env(np.random.default_rng(41))
    seeds = {VarId.X1: _JET_DIRS[:, 0], VarId.X2: _JET_DIRS[:, 1]}
    (jet,) = taylor_eval([e], env, seeds, _JET_DEGREE)
    assert jet.shape == (_JET_DEGREE + 1, len(_JET_DIRS), 7)
    for d, u in enumerate(_JET_DIRS):
        want = _directional_coefficients(e, env, u, _JET_DEGREE)
        for k in range(_JET_DEGREE + 1):
            scale = np.max(np.abs(want[k]))
            assert np.max(np.abs(jet[k, d] - want[k])) <= 1e-12 * scale, (case, d, k)


def test_taylor_eval_root_without_seeded_variables():
    env = _jet_env(np.random.default_rng(42))
    e = mul(sin_(XI1), XI1)
    jet, other = taylor_eval([e, X1], env, {VarId.X1: [1.0, 0.5]}, 3)
    assert jet.shape == (4, 2, 7)
    assert np.array_equal(jet[0, 0], eval_expr(e, env))
    assert np.array_equal(jet[0, 1], eval_expr(e, env))
    assert not np.any(jet[1:])
    assert np.array_equal(other[1], np.broadcast_to([[1.0], [0.5]], (2, 7)))


def test_taylor_eval_zeroth_coefficient_is_eval_expr():
    rng = np.random.default_rng(43)
    env = {v: ENV[v] + rng.uniform(-0.1, 0.1, 5) for v in ENV}
    seeds = {VarId.XI1: [1.0, 0.0], VarId.S: [0.5, 1.0]}
    for _ in range(20):
        e = _rand_expr(rng)
        (jet,) = taylor_eval([e], env, seeds, 2)
        want = np.broadcast_to(np.asarray(eval_expr(e, env)), (5,))
        assert np.array_equal(jet[0, 0], want) and np.array_equal(jet[0, 1], want)


def test_taylor_eval_zero_base_positive_power():
    (jet,) = taylor_eval([ipow(X1, 3)], {VarId.X1: 0.0}, {VarId.X1: [2.0]}, 4)
    assert np.array_equal(jet[:, 0], [0, 0, 0, 8, 0])


@pytest.mark.parametrize(
    "e, value, error",
    [
        (recip(X1), 0.0, DivisionByZeroError),
        (div(XI1, X1), 0.0, DivisionByZeroError),
        (div(X1, sub(X1, XI1)), 1.1, DivisionByZeroError),
        (ipow(X1, -2), 0.0, DivisionByZeroError),
        (sqrt_(X1), -4.0, SqrtDomainError),
        (sqrt_(X1), 0.0, SqrtDomainError),
    ],
)
def test_taylor_eval_raises_like_eval_expr(e, value, error):
    env = {VarId.X1: value, VarId.XI1: 1.1}
    with pytest.raises(error):
        eval_expr(e, env)
    with pytest.raises(error):
        taylor_eval([e], env, {VarId.X1: [1.0]}, 3)


def test_taylor_eval_argument_checks():
    with pytest.raises(ValueError):
        taylor_eval([X1], {VarId.X1: 1.0}, {VarId.X1: [1.0]}, -1)
    with pytest.raises(ValueError):
        taylor_eval([X1], {VarId.X1: 1.0, VarId.X2: 1.0}, {VarId.X1: [1.0], VarId.X2: [1.0, 0.0]}, 1)
    with pytest.raises(UnboundVariableError):
        taylor_eval([add(X1, X2)], {VarId.X1: 1.0}, {VarId.X1: [1.0]}, 1)
