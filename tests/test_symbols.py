import numpy as np
import pytest

from anisosplit import (
    PolyhomSymbol,
    SymbolError,
    SymbolTerm,
    TransverseGrid,
    VarId,
    compose,
    compose_degree_part,
    eval_expr,
    homogeneity_check,
    parse,
    quantize_apply,
    quantize_matrix,
    random_smooth_field,
    spectral_derivative,
    systems_symbols,
)
from anisosplit import expand, presets, symbols
from anisosplit.expr import ZERO, diff, mul, sub
from anisosplit.symbols import _BLOCK_ENTRIES, x_derivative, xi_derivative

from helpers import field_rel, random_points, rel_err

TAU = 2 * np.pi

ENV = {
    VarId.X1: 0.4,
    VarId.X2: 1.1,
    VarId.X3: 0.7,
    VarId.XI1: 0.9,
    VarId.XI2: -0.5,
    VarId.S: 1.3 + 0.4j,
}


def _sym(pairs, floor=None):
    return PolyhomSymbol({d: parse(t) for d, t in pairs.items()}, floor=floor)


def test_polyhom_bookkeeping():
    y = _sym({1: "s*x1", 0: "sin(x1)", -1: "xi1/s^2"}, floor=-2)
    assert y.top_degree == 1
    assert y.term(-1) is parse("xi1/s^2")
    assert y.term(-2) is ZERO
    assert not y.is_zero
    assert PolyhomSymbol.zero(floor=-1).is_zero


def test_polyhom_rejects_term_below_floor():
    with pytest.raises(SymbolError):
        _sym({0: "1", -3: "x1"}, floor=-1)


def test_polyhom_addition_aligns_degrees():
    a = _sym({1: "s", -1: "x1"}, floor=-1)
    b = _sym({1: "2*s", 0: "xi1"}, floor=-1)
    c = a + b
    assert eval_expr(c.term(1), ENV) == pytest.approx(3 * ENV[VarId.S])
    assert c.term(0) is parse("xi1")
    assert c.term(-1) is parse("x1")


def test_polyhom_truncate_drops_low_degrees():
    y = _sym({1: "s", 0: "x1", -1: "xi2"}, floor=-2)
    t = y.truncate(0)
    assert t.term(1) is parse("s")
    assert t.term(0) is parse("x1")
    assert t.term(-1) is ZERO
    assert t.low_degree == 0


def test_derivative_helpers():
    e = parse("xi1^2 * sin(x1) + xi2*x2")
    assert xi_derivative(e, (1, 0)) is diff(e, VarId.XI1)
    d2 = x_derivative(e, (0, 2))
    assert eval_expr(d2, ENV) == pytest.approx(
        eval_expr(diff(diff(e, VarId.X2), VarId.X2), ENV)
    )


def test_compose_with_x_independent_right_factor_is_product():
    p = _sym({1: "s + 1i*xi1*x1", 0: "sin(x1)*cos(x2)"})
    q = _sym({0: "s/(s+1)", -1: "xi1/s^2"}, floor=-1)
    c = compose(p, q, floor=-1)
    for d in (1, 0, -1):
        acc = ZERO
        for dp in (1, 0):
            for dq in (0, -1):
                if dp + dq == d:
                    acc = acc + mul(p.term(dp), q.term(dq))
        assert eval_expr(c.term(d), ENV) == pytest.approx(eval_expr(acc, ENV))


def test_compose_first_order_left_factor_exact_rule():
    # p = xi1 composed with f(x): p o f = xi1 f - i d1 f, nothing else
    p = PolyhomSymbol.from_term(parse("xi1"), 1)
    f = parse("sin(2*x1)*cos(x2)")
    q = PolyhomSymbol.from_term(f, 0)
    c = compose(p, q, floor=0)
    want1 = mul(parse("xi1"), f)
    want0 = mul(parse("-1i"), diff(f, VarId.X1))
    assert eval_expr(c.term(1), ENV) == pytest.approx(eval_expr(want1, ENV))
    assert eval_expr(c.term(0), ENV) == pytest.approx(eval_expr(want0, ENV))


def test_compose_degree_part_beta_factorials():
    # p = xi1^3 against f(x1): degree 0 part carries (1/i d_x1)^3 / 3!
    p = {3: parse("xi1^3")}
    f = parse("exp(0.3*x1)")
    q = {0: f}
    got = compose_degree_part(p, q, 0)
    want = mul(
        parse("1/6"),
        mul(
            parse("6"),  # d^3/dxi^3 xi1^3
            mul(parse("(0-1i)^3"), diff(diff(diff(f, VarId.X1), VarId.X1), VarId.X1)),
        ),
    )
    assert eval_expr(got, ENV) == pytest.approx(eval_expr(want, ENV))


def test_compose_associative_up_to_floor():
    p = _sym({1: "1i*xi1 + s*sin(x1)"})
    q = _sym({0: "cos(x1) + x2"})
    r = _sym({0: "exp(0.2*x2) + sin(x1)"})
    floor = -2
    left = compose(compose(p, q, floor), r, floor)
    right = compose(p, compose(q, r, floor), floor)
    for d in range(1, floor - 1, -1):
        lv = eval_expr(left.term(d), ENV)
        rv = eval_expr(right.term(d), ENV)
        assert lv == pytest.approx(rv, rel=1e-10, abs=1e-12)


def test_systems_symbols_values(hom_medium):
    A = systems_symbols(hom_medium)
    a = np.array([[2, 0.3, 0.4], [0.1, 1.8, 0.2], [0.5, 0.3, 1.5]])
    kap = 0.8
    xi = np.array([ENV[VarId.XI1], ENV[VarId.XI2]])
    s = ENV[VarId.S]
    inv33 = 1 / a[2, 2]
    Q = a[:2, :2] - np.outer(a[:2, 2], a[2, :2]) * inv33

    got11 = eval_expr(A.a11.term(1), ENV)
    assert got11 == pytest.approx(1j * (xi @ a[:2, 2]) * inv33)
    got12 = eval_expr(A.a12.total(), ENV)
    assert got12 == pytest.approx(s * kap + (xi @ Q @ xi) / s)
    got21 = eval_expr(A.a21.term(1), ENV)
    assert got21 == pytest.approx(s * inv33)
    got22 = eval_expr(A.a22.term(1), ENV)
    assert got22 == pytest.approx(1j * (a[2, :2] @ xi) * inv33)


def test_systems_symbols_zero_order_terms_vanish_for_constant_medium(hom_medium):
    A = systems_symbols(hom_medium)
    assert A.a11.term(0) is ZERO
    assert A.a12.term(0) is ZERO


def test_systems_symbols_divergence_terms(het_medium):
    A = systems_symbols(het_medium)
    pts = random_points(np.random.default_rng(1), 12)
    from helpers import eval_at
    from anisosplit import schur
    from anisosplit.expr import add, recip

    f1 = mul(het_medium.entry(1, 3), recip(het_medium.alpha33()))
    f2 = mul(het_medium.entry(2, 3), recip(het_medium.alpha33()))
    want = add(diff(f1, VarId.X1), diff(f2, VarId.X2))
    assert rel_err(eval_at(A.a11.term(0), pts), eval_at(want, pts)) <= 1e-12

    sd = schur(het_medium)
    want12 = sub(ZERO, mul(parse("1i/s"), add(mul(sd.dQ[0], parse("xi1")), mul(sd.dQ[1], parse("xi2")))))
    got12 = eval_at(A.a12.term(0), pts)
    assert rel_err(got12, eval_at(want12, pts)) <= 1e-12


def test_grid_requires_power_of_two():
    with pytest.raises(SymbolError):
        TransverseGrid(6, TAU, TAU)
    with pytest.raises(SymbolError):
        TransverseGrid(2, TAU, TAU)
    with pytest.raises(SymbolError):
        TransverseGrid(8, -1.0, TAU)


def test_quantize_identity():
    grid = TransverseGrid(8, TAU, TAU)
    rng = np.random.default_rng(4)
    u = random_smooth_field(grid, rng)
    out = quantize_apply(parse("1"), u, grid, 0.0, 1.0 + 0.2j)
    assert rel_err(out, u) <= 1e-12


def test_quantize_x_multiplier():
    grid = TransverseGrid(8, TAU, TAU)
    rng = np.random.default_rng(5)
    u = random_smooth_field(grid, rng)
    X1g, _ = grid.x_mesh()
    out = quantize_apply(parse("sin(x1)"), u, grid, 0.0, 1.0)
    assert rel_err(out, np.sin(X1g) * u) <= 1e-12


def test_quantize_fourier_multiplier_is_spectral_derivative():
    grid = TransverseGrid(16, TAU, TAU)
    rng = np.random.default_rng(6)
    u = random_smooth_field(grid, rng)
    out = quantize_apply(parse("1i*xi1"), u, grid, 0.0, 1.0)
    want = spectral_derivative(u, grid, 1)
    assert rel_err(out, want) <= 1e-11


def test_spectral_derivative_exact_on_trig_modes():
    grid = TransverseGrid(16, TAU, TAU)
    X1g, X2g = grid.x_mesh()
    u = np.exp(1j * (2 * X1g - 3 * X2g))
    d1 = spectral_derivative(u, grid, 1)
    d2 = spectral_derivative(u, grid, 2)
    assert rel_err(d1, 2j * u) <= 1e-12
    assert rel_err(d2, -3j * u) <= 1e-12


def test_quantize_matrix_consistent_with_apply():
    grid = TransverseGrid(8, TAU, TAU)
    rng = np.random.default_rng(7)
    u = random_smooth_field(grid, rng)
    sym = parse("sin(x1)*1i*xi2 + s*cos(x2)")
    mat = quantize_matrix(sym, grid, 0.3, 1.1 + 0.5j)
    want = (mat @ np.fft.fft2(u).ravel()).reshape(u.shape)
    got = quantize_apply(sym, u, grid, 0.3, 1.1 + 0.5j)
    assert rel_err(got, want) <= 1e-11


MIXED = "(2 + sin(x1)*cos(x2 + x3))*sqrt(s^2 + xi1^2 + 0.5*xi2^2) + 1i*xi1*cos(x1 - x2)/s"


def _single_shot_quantize(sym, grid, x3, s):
    # reference: all n^2 x n^2 entries in one broadcast evaluation
    n = grid.n
    X1g, X2g = grid.x_mesh()
    W1g, W2g = grid.xi_mesh()
    x1, x2, w1, w2 = X1g.ravel(), X2g.ravel(), W1g.ravel(), W2g.ravel()
    env = {
        VarId.X1: x1[:, None],
        VarId.X2: x2[:, None],
        VarId.X3: complex(x3),
        VarId.XI1: w1[None, :],
        VarId.XI2: w2[None, :],
        VarId.S: complex(s),
    }
    vals = np.broadcast_to(np.asarray(eval_expr(sym, env)), (n * n, n * n))
    phase = np.exp(1j * (np.outer(x1, w1) + np.outer(x2, w2))) / n**2
    return np.where(grid.nyquist_mask().ravel()[None, :], vals * phase, 0.0)


@pytest.mark.parametrize("n, several_blocks", [(8, False), (16, True), (32, True)])
def test_blocked_quantize_matrix_equals_single_shot(n, several_blocks):
    # several_blocks: a row block holds fewer rows than the grid has
    assert (n**4 > _BLOCK_ENTRIES) == several_blocks
    grid = TransverseGrid(n, TAU, TAU)
    sym = parse(MIXED)
    got = quantize_matrix(sym, grid, 0.4, 1.3 + 0.2j)
    assert np.array_equal(got, _single_shot_quantize(sym, grid, 0.4, 1.3 + 0.2j))


def test_quantize_apply_stack_matches_per_field():
    grid = TransverseGrid(8, TAU, TAU)
    rng = np.random.default_rng(17)
    fields = np.stack([random_smooth_field(grid, rng) for _ in range(3)])
    # pointwise, Fourier-multiplier and dense-kernel paths
    for text in ("sin(x1)*s", "1i*xi1 + s", MIXED):
        sym = parse(text)
        got = quantize_apply(sym, fields, grid, 0.2, 1.1 + 0.3j)
        assert got.shape == fields.shape
        for g, u in zip(got, fields):
            assert field_rel(g, quantize_apply(sym, u, grid, 0.2, 1.1 + 0.3j)) <= 1e-13


def test_quantize_apply_rejects_bad_field_shapes():
    grid = TransverseGrid(8, TAU, TAU)
    for shape in ((4, 4), (8,), (2, 2, 8, 8)):
        with pytest.raises(SymbolError):
            quantize_apply(parse(MIXED), np.zeros(shape), grid, 0.0, 1.0)


def test_quantize_linearity():
    grid = TransverseGrid(8, TAU, TAU)
    rng = np.random.default_rng(8)
    u = random_smooth_field(grid, rng)
    v = random_smooth_field(grid, rng)
    sym = parse("x1*1i*xi1 + 2")
    a, b = 1.7 - 0.3j, 0.4 + 1.1j
    got = quantize_apply(sym, a * u + b * v, grid, 0.0, 1.0)
    want = a * quantize_apply(sym, u, grid, 0.0, 1.0) + b * quantize_apply(
        sym, v, grid, 0.0, 1.0
    )
    assert rel_err(got, want) <= 1e-11


def test_quantize_composition_matches_matrix_product():
    # Op(p o q) agrees with Op(p) Op(q) when the composition series
    # terminates (polynomial left factor) and the probe field is narrow
    # enough that multiplying by one trig mode cannot reach Nyquist
    grid = TransverseGrid(8, TAU, TAU)
    s = 1.2 + 0.3j
    p = PolyhomSymbol.from_term(parse("1i*xi1"), 1)
    q = PolyhomSymbol.from_term(parse("sin(x1)*cos(x2)"), 0)
    comp = compose(p, q, floor=0)
    rng = np.random.default_rng(9)
    spec = np.zeros((8, 8), dtype=complex)
    for k1 in (-2, -1, 0, 1, 2):
        for k2 in (-2, -1, 0, 1, 2):
            spec[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
    u = np.fft.ifft2(spec)
    got = quantize_apply(comp, u, grid, 0.0, s)
    want = quantize_apply(p, quantize_apply(q, u, grid, 0.0, s), grid, 0.0, s)
    assert field_rel(got, want) <= 1e-12


def test_random_smooth_field_band_limited():
    grid = TransverseGrid(16, TAU, TAU)
    u = random_smooth_field(grid, np.random.default_rng(10))
    spec = np.fft.fft2(u)
    # fft round trip leaves only roundoff in the projected Nyquist slots
    assert np.max(np.abs(spec[~grid.nyquist_mask()])) <= 1e-12 * np.max(np.abs(spec))
    k = np.fft.fftfreq(16) * 16
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    outer = np.sqrt(K1**2 + K2**2) > 6
    inner = np.sqrt(K1**2 + K2**2) <= 2
    assert np.max(np.abs(spec[outer])) < 1e-2 * np.max(np.abs(spec[inner]))


def test_homogeneity_check_passes_for_true_degree():
    term = SymbolTerm(parse("sqrt(s^2 + xi1^2 + xi2^2)"), 1)
    rep = homogeneity_check(term)
    assert rep.passed


def test_homogeneity_check_rejects_mixed_degrees():
    term = SymbolTerm(parse("s + 1"), 1)
    rep = homogeneity_check(term)
    assert not rep.passed


def _scalar_homogeneity(term, trials, rng, box):
    """The point-by-point loop the batched check replaced (test oracle):
    one scalar evaluation per trial point and scale."""
    worst = 0.0
    for _ in range(trials):
        x = [rng.uniform(lo, hi) for lo, hi in box]
        xi = rng.uniform(-1.5, 1.5, size=2)
        if np.hypot(*xi) < 0.3:
            xi = xi + np.array([0.7, -0.4])
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(-1.2, 1.2)
        s = r * complex(np.cos(th), np.sin(th))
        env = {VarId.X1: x[0], VarId.X2: x[1], VarId.X3: x[2],
               VarId.XI1: xi[0], VarId.XI2: xi[1], VarId.S: s}
        base = eval_expr(term.expr, env)
        for lam in (2.0, 5.0, 10.0):
            scaled = dict(env)
            scaled[VarId.XI1] = lam * xi[0]
            scaled[VarId.XI2] = lam * xi[1]
            scaled[VarId.S] = lam * s
            got = eval_expr(term.expr, scaled)
            want = lam**term.degree * base
            rel = abs(got - want) / max(abs(want), 1e-30)
            if abs(want) < 1e-30 and abs(got) < 1e-30:
                rel = 0.0
            worst = max(worst, rel)
    return worst


def test_batched_homogeneity_check_matches_scalar_loop(het_medium):
    ex = expand(het_medium, 1, 1, 3)
    for k in (1, 2, 3):
        term = SymbolTerm(ex.term(-k), -k)
        rep = homogeneity_check(term, trials=4, tol=1e-7, rng=np.random.default_rng(5), box=het_medium.box)
        want = _scalar_homogeneity(term, 4, np.random.default_rng(5), het_medium.box)
        assert rep.passed and want <= 1e-7
        assert abs(rep.max_rel_error - want) <= 1e-12


def test_batched_homogeneity_check_matches_scalar_loop_on_failure():
    term = SymbolTerm(parse("s + 1"), 1)
    rep = homogeneity_check(term)
    want = _scalar_homogeneity(term, 16, np.random.default_rng(2024), ((0.0, 1.0),) * 3)
    assert not rep.passed and want > 1e-9
    assert abs(rep.max_rel_error - want) <= 1e-9 * want


def test_homogeneity_check_without_trials_passes():
    rep = homogeneity_check(SymbolTerm(parse("s + 1"), 1), trials=0)
    assert rep.passed
    assert rep.max_rel_error == 0.0


def test_homogeneity_check_evaluates_term_in_one_call(monkeypatch, het_medium):
    term = SymbolTerm(expand(het_medium, 1, 1, 2).term(-2), -2)
    calls = []

    def counting(e, env):
        calls.append(e)
        return eval_expr(e, env)

    monkeypatch.setattr(symbols, "eval_expr", counting)
    assert homogeneity_check(term, trials=4).passed
    assert calls == [term.expr]
