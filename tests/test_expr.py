import numpy as np
import pytest

from anisosplit.expr import (
    ONE,
    S,
    X1,
    X2,
    XI1,
    ZERO,
    DivisionByZeroError,
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
    node_count,
    parse,
    recip,
    simplify,
    sin_,
    sqrt_,
    sub,
    to_text,
)

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


def test_simplify_preserves_value_and_is_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(40):
        e = _rand_expr(rng)
        s1 = simplify(e)
        assert eval_expr(s1, ENV) == pytest.approx(eval_expr(e, ENV), rel=1e-10)
        assert simplify(s1) is s1
        assert node_count(s1) <= node_count(e) + 2


def test_identical_subtrees_cancel():
    # interning makes equal-form subtrees the same node, so the
    # difference collapses structurally; commuted forms stay distinct
    assert sub(mul(X1, X2), mul(X1, X2)) is ZERO
    e = sub(mul(X1, X2), mul(X2, X1))
    assert eval_expr(simplify(e), ENV) == pytest.approx(0.0)


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


def test_sqrt_principal_branch():
    v = eval_expr(sqrt_(S), {VarId.S: -1.0 + 1j})
    assert v == pytest.approx(np.sqrt(complex(-1.0, 1.0)))
    assert v.real > 0


def test_ipow_negative_exponent():
    e = ipow(X1, -2)
    assert eval_expr(e, {VarId.X1: 2.0}) == pytest.approx(0.25)
