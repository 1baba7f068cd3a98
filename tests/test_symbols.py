import os
import subprocess
import sys

import numpy as np
import pytest

from anisosplit import (
    SymbolError,
    SymbolForm,
    TransverseGrid,
    VarId,
    compose_degree_part,
    eval_expr,
    parse,
    quantize_apply,
    random_smooth_field,
    spectral_derivative,
    split_symbols,
    symbol_total,
    systems_symbols,
)
from anisosplit import expand, presets, symbols
from anisosplit.expr import DivisionByZeroError, SqrtDomainError, ZERO, diff, mul, sub
from anisosplit.symbols import (
    _BLOCK_ENTRIES,
    _compose,
    _spectral_kernel,
    radicand,
    x_derivative,
    xi_derivative,
)

import helpers
from helpers import (
    field_rel,
    homogeneity_check,
    random_points,
    rel_err,
    single_shot_quantize,
)

TAU = 2 * np.pi

ENV = {
    VarId.X1: 0.4,
    VarId.X2: 1.1,
    VarId.X3: 0.7,
    VarId.XI1: 0.9,
    VarId.XI2: -0.5,
    VarId.S: 1.3 + 0.4j,
}


RHO = radicand(presets.heterogeneous_full())


def _forms(pairs):
    """A degree -> SymbolForm map of expressions free of rho^(1/2) (one grade)."""
    return {d: SymbolForm.lift(RHO, parse(t)) for d, t in pairs.items()}


def _value(forms, d):
    return eval_expr(forms[d].lower(), ENV) if d in forms else 0.0


def test_derivative_helpers():
    e = parse("xi1^2 * sin(x1) + xi2*x2")
    (f,) = _forms({0: "xi1^2 * sin(x1) + xi2*x2"}).values()
    assert xi_derivative(f, (1, 0)) is f.diff(VarId.XI1)
    d2 = x_derivative(f, (0, 2))
    assert eval_expr(d2.lower(), ENV) == pytest.approx(
        eval_expr(diff(diff(e, VarId.X2), VarId.X2), ENV)
    )


def test_compose_with_x_independent_right_factor_is_product():
    p = _forms({1: "s + 1i*xi1*x1", 0: "sin(x1)*cos(x2)"})
    q = _forms({0: "s/(s+1)", -1: "xi1/s^2"})
    c = _compose(p, q, -1)
    for d in (1, 0, -1):
        acc = 0.0
        for dp in (1, 0):
            for dq in (0, -1):
                if dp + dq == d:
                    acc = acc + _value(p, dp) * _value(q, dq)
        assert _value(c, d) == pytest.approx(acc)


def test_compose_first_order_left_factor_exact_rule():
    # p = xi1 composed with f(x): p o f = xi1 f - i d1 f, nothing else
    f = parse("sin(2*x1)*cos(x2)")
    c = _compose(_forms({1: "xi1"}), _forms({0: "sin(2*x1)*cos(x2)"}), -3)
    want1 = mul(parse("xi1"), f)
    want0 = mul(parse("-1i"), diff(f, VarId.X1))
    assert sorted(c) == [0, 1]
    assert _value(c, 1) == pytest.approx(eval_expr(want1, ENV))
    assert _value(c, 0) == pytest.approx(eval_expr(want0, ENV))


def test_compose_degree_part_beta_factorials():
    # p = xi1^3 against f(x1): degree 0 part carries (1/i d_x1)^3 / 3!
    p = _forms({3: "xi1^3"})
    f = parse("exp(0.3*x1)")
    q = _forms({0: "exp(0.3*x1)"})
    got = compose_degree_part(p, q, 0).lower()
    want = mul(
        parse("1/6"),
        mul(
            parse("6"),  # d^3/dxi^3 xi1^3
            mul(parse("(0-1i)^3"), diff(diff(diff(f, VarId.X1), VarId.X1), VarId.X1)),
        ),
    )
    assert eval_expr(got, ENV) == pytest.approx(eval_expr(want, ENV))


def test_compose_associative_up_to_floor():
    p = _forms({1: "1i*xi1 + s*sin(x1)"})
    q = _forms({0: "cos(x1) + x2"})
    r = _forms({0: "exp(0.2*x2) + sin(x1)"})
    floor = -2
    left = _compose(_compose(p, q, floor), r, floor)
    right = _compose(p, _compose(q, r, floor), floor)
    for d in range(1, floor - 1, -1):
        assert _value(left, d) == pytest.approx(_value(right, d), rel=1e-10, abs=1e-12)


def test_systems_symbols_values(hom_medium):
    A = systems_symbols(hom_medium)
    a = np.array([[2, 0.3, 0.4], [0.1, 1.8, 0.2], [0.5, 0.3, 1.5]])
    kap = 0.8
    xi = np.array([ENV[VarId.XI1], ENV[VarId.XI2]])
    s = ENV[VarId.S]
    inv33 = 1 / a[2, 2]
    Q = a[:2, :2] - np.outer(a[:2, 2], a[2, :2]) * inv33

    got11 = eval_expr(A.a11[1].lower(), ENV)
    assert got11 == pytest.approx(1j * (xi @ a[:2, 2]) * inv33)
    got12 = eval_expr(symbol_total(A.a12), ENV)
    assert got12 == pytest.approx(s * kap + (xi @ Q @ xi) / s)
    got21 = eval_expr(A.a21[1].lower(), ENV)
    assert got21 == pytest.approx(s * inv33)
    got22 = eval_expr(A.a22[1].lower(), ENV)
    assert got22 == pytest.approx(1j * (a[2, :2] @ xi) * inv33)


def test_systems_symbols_zero_order_terms_vanish_for_constant_medium(hom_medium):
    A = systems_symbols(hom_medium)
    assert 0 not in A.a11 and 0 not in A.a12


def test_systems_symbols_divergence_terms(het_medium):
    A = systems_symbols(het_medium)
    pts = random_points(np.random.default_rng(1), 12)
    from helpers import eval_at, lowered
    from anisosplit import schur
    from anisosplit.expr import add, recip

    f1 = mul(het_medium.entry(1, 3), recip(het_medium.alpha33()))
    f2 = mul(het_medium.entry(2, 3), recip(het_medium.alpha33()))
    want = add(diff(f1, VarId.X1), diff(f2, VarId.X2))
    assert rel_err(eval_at(lowered(A.a11).get(0, ZERO), pts), eval_at(want, pts)) <= 1e-12

    sd = schur(het_medium)
    want12 = sub(ZERO, mul(parse("1i/s"), add(mul(sd.dQ[0], parse("xi1")), mul(sd.dQ[1], parse("xi2")))))
    got12 = eval_at(lowered(A.a12).get(0, ZERO), pts)
    assert rel_err(got12, eval_at(want12, pts)) <= 1e-12


def test_grid_requires_power_of_two():
    with pytest.raises(SymbolError):
        TransverseGrid(6, TAU, TAU)
    with pytest.raises(SymbolError):
        TransverseGrid(2, TAU, TAU)
    with pytest.raises(SymbolError):
        TransverseGrid(8, -1.0, TAU)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(SymbolError, match="finite and positive"):
            TransverseGrid(8, TAU, bad)


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
    mat = single_shot_quantize(sym, grid, 0.3, 1.1 + 0.5j)
    want = (mat @ np.fft.fft2(u).ravel()).reshape(u.shape)
    got = quantize_apply(sym, u, grid, 0.3, 1.1 + 0.5j)
    assert rel_err(got, want) <= 1e-11


MIXED = "(2 + sin(x1)*cos(x2 + x3))*sqrt(s^2 + xi1^2 + 0.5*xi2^2) + 1i*xi1*cos(x1 - x2)/s"


@pytest.mark.parametrize("n, several_blocks", [(8, False), (16, True), (32, True)])
def test_blocked_quantize_matrix_equals_single_shot(monkeypatch, n, several_blocks):
    # several_blocks: a row block holds fewer rows than the grid has
    assert (n**4 > _BLOCK_ENTRIES) == several_blocks
    grid = TransverseGrid(n, TAU, TAU)
    sym = parse(MIXED)
    got = _spectral_kernel(sym, grid, 0.4, 1.3 + 0.2j)
    # separation reorders sums, so the DAG-order oracle agrees to rounding;
    # the block size changes no entry
    assert field_rel(got, single_shot_quantize(sym, grid, 0.4, 1.3 + 0.2j)) <= 1e-14
    monkeypatch.setattr(symbols, "_BLOCK_ENTRIES", n**4)
    assert np.array_equal(got, _spectral_kernel(sym, grid, 0.4, 1.3 + 0.2j))


PRESETS = ("transverse_anisotropic", "heterogeneous_full", "dual_path_medium")


@pytest.fixture(scope="module")
def splits():
    """name, order -> split_symbols of that preset at eta 1, made once."""
    made = {}

    def get(name, order):
        if (name, order) not in made:
            m = getattr(presets, name)()
            made[name, order] = split_symbols(expand(m, 1, 1, order), expand(m, -1, 1, order))
        return made[name, order]

    return get


@pytest.fixture(scope="module")
def order2_splits(splits):
    return {name: splits(name, 2) for name in PRESETS}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize(
    "name, x3",
    [("transverse_anisotropic", 0.0), ("heterogeneous_full", 0.3), ("dual_path_medium", 0.2)],
)
def test_separated_kernel_matches_single_shot_oracle(order2_splits, name, x3, n):
    grid = TransverseGrid(n, TAU, TAU)
    for sign in (1, -1):
        g = order2_splits[name].g_symbol(sign)
        got = _spectral_kernel(g, grid, x3, 1.5 + 0.3j)
        assert field_rel(got, single_shot_quantize(g, grid, x3, 1.5 + 0.3j)) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", PRESETS)
def test_graded_kernel_matches_the_plain_sum(splits, name, order):
    # the plan of the graded map (Horner's rule in rho^(+-1/2)) against
    # the plan of its plain sum, the expression route
    for n in (8, 16):
        grid = TransverseGrid(n, TAU, TAU)
        g = splits(name, order).g_symbol(1)
        got = _spectral_kernel(g, grid, 0.3, 1.5 + 0.3j)
        want = _spectral_kernel(symbol_total(g), grid, 0.3, 1.5 + 0.3j)
        assert field_rel(got, want) <= 1e-14


def _plan_shape(sym):
    """(entrywise nodes, total rank of the factors) of a symbol's plan."""
    plan = symbols._KernelPlan(sym)
    return len(plan.entrywise), sum(len(xs) for xs, _ in plan.factors.values())


def _assert_graded(plan):
    # every grade is separated: only the root, its reciprocal and the
    # Horner products and sums are evaluated entry by entry
    ops = [nd.op for nd in plan.entrywise]
    assert set(ops) <= {"sqrt", "recip", "mul", "add"}
    assert ops.count("sqrt") == 1 and ops.count("recip") <= 1


@pytest.mark.filterwarnings("error")
def test_separated_kernel_of_order2_g_plus_has_few_entrywise_nodes(order2_splits):
    plan = symbols._KernelPlan(order2_splits["transverse_anisotropic"].g_symbol(1))
    assert len(plan.entrywise) <= 18
    _assert_graded(plan)
    assert plan.factors  # the rest is separated


def test_kernel_plans_of_order2_generators_are_small(order2_splits):
    # g+- are lowered once, compactly; the plan separates their x-by-xi
    # products itself, so few nodes are evaluated per kernel entry
    bounds = {"transverse_anisotropic": 18, "heterogeneous_full": 18, "dual_path_medium": 18}
    for name, bound in bounds.items():
        for sign in (1, -1):
            plan = symbols._KernelPlan(order2_splits[name].g_symbol(sign))
            assert len(plan.entrywise) <= bound, (name, sign)
            _assert_graded(plan)


def test_kernel_plans_of_order3_generators_are_small(splits):
    sp = splits("heterogeneous_full", 3)
    for sign in (1, -1):
        plan = symbols._KernelPlan(sp.g_symbol(sign))
        assert len(plan.entrywise) <= 26
        assert sum(len(xs) for xs, _ in plan.factors.values()) <= 187
        _assert_graded(plan)


def test_kernel_plan_of_admittance_series_is_small():
    # a symbol no one wrote for its kernel gets the same separation
    series = expand(presets.transverse_anisotropic(), 1, 1, 2).series(2)
    assert _plan_shape(series)[0] <= 18


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        "(cos(x1)*xi1 + sin(x2)*xi2 + s)*(x1*xi1^2 + xi2)",
        "exp(xi1)*x1",
        "sqrt(xi1^2 + 2)*cos(x1)",
    ],
)
def test_kernel_of_xi_polynomials_and_atoms_separates_fully(text):
    # products of many-key forms expand; a xi-only node that is not a
    # polynomial is one atom of the key
    sym = parse(text)
    assert not symbols._KernelPlan(sym).entrywise
    grid = TransverseGrid(16, TAU, TAU)
    got = _spectral_kernel(sym, grid, 0.2, 1.1 + 0.4j)
    assert field_rel(got, single_shot_quantize(sym, grid, 0.2, 1.1 + 0.4j)) <= 1e-14


DETERMINISM = """
import hashlib
import numpy as np
from anisosplit import TransverseGrid, expand, presets, split_symbols
from anisosplit.symbols import _spectral_kernel
m = presets.heterogeneous_full()
g = split_symbols(expand(m, 1, 1, 2), expand(m, -1, 1, 2)).g_symbol(1)
K = _spectral_kernel(g, TransverseGrid(8, 2 * np.pi, 2 * np.pi), 0.3, 1.5 + 0.3j)
print(hashlib.sha256(K.tobytes()).hexdigest())
"""


def test_kernel_is_the_same_in_fresh_processes():
    # a column order taken from id() or from set iteration would differ
    # between processes, and so would the rounding of the kernel
    hashes = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", DETERMINISM], capture_output=True, text=True, check=True, env=env
        )
        hashes.append(out.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


@pytest.mark.filterwarnings("error")
def test_kernel_without_separable_nodes_matches_oracle():
    # every mixed node is a quotient, a power or a sum of those
    sym = parse("((2 + cos(x1))/(s^2 + xi1^2 + xi2^2))^(-3) + (sin(x2 - x3)/(s + xi2^2))^3")
    assert not symbols._KernelPlan(sym).factors
    grid = TransverseGrid(16, TAU, TAU)
    got = _spectral_kernel(sym, grid, 0.2, 1.1 + 0.4j)
    assert field_rel(got, single_shot_quantize(sym, grid, 0.2, 1.1 + 0.4j)) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, error",
    [
        ("1/(x1 - xi1) + s", DivisionByZeroError),
        ("(x1 - xi1)^(-3)", DivisionByZeroError),
        # expanding the product must not cancel a divisor that depends on xi
        ("(x1 - xi1)*(x1 - xi1)^(-1) + s", DivisionByZeroError),
        ("sqrt(x1 - xi1 - 1)", SqrtDomainError),
    ],
)
def test_kernel_build_raises_typed_evaluation_errors(text, error):
    # x1 = xi1 = 0 and x1 = 0, xi1 = 1 are grid points
    with pytest.raises(error):
        _spectral_kernel(parse(text), TransverseGrid(8, TAU, TAU), 0.0, 1.0)


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


def test_quantize_apply_takes_expressions_and_form_maps_only():
    grid = TransverseGrid(8, TAU, TAU)
    u = np.ones((8, 8), dtype=complex)
    for sym in ((parse(MIXED), 1), {1: parse(MIXED)}):
        with pytest.raises(SymbolError):
            quantize_apply(sym, u, grid, 0.0, 1.0)
    forms = _forms({1: "1i*xi1*x1", 0: "sin(x2)"})
    got = quantize_apply(forms, u, grid, 0.0, 1.0)
    assert symbol_total(forms) is parse("1i*xi1*x1") + parse("sin(x2)")
    assert field_rel(got, quantize_apply(symbol_total(forms), u, grid, 0.0, 1.0)) == 0.0


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
    p = _forms({1: "1i*xi1"})
    q = _forms({0: "sin(x1)*cos(x2)"})
    comp = _compose(p, q, 0)
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
    rep = homogeneity_check(parse("sqrt(s^2 + xi1^2 + xi2^2)"), 1)
    assert rep.passed


def test_homogeneity_check_rejects_mixed_degrees():
    rep = homogeneity_check(parse("s + 1"), 1)
    assert not rep.passed


def _scalar_homogeneity(e, degree, trials, rng, box):
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
        base = eval_expr(e, env)
        for lam in (2.0, 5.0, 10.0):
            scaled = dict(env)
            scaled[VarId.XI1] = lam * xi[0]
            scaled[VarId.XI2] = lam * xi[1]
            scaled[VarId.S] = lam * s
            got = eval_expr(e, scaled)
            want = lam**degree * base
            rel = abs(got - want) / max(abs(want), 1e-30)
            if abs(want) < 1e-30 and abs(got) < 1e-30:
                rel = 0.0
            worst = max(worst, rel)
    return worst


def test_batched_homogeneity_check_matches_scalar_loop(het_medium):
    ex = expand(het_medium, 1, 1, 3)
    for k in (1, 2, 3):
        e = ex.term(-k)
        rep = homogeneity_check(e, -k, trials=4, tol=1e-7, rng=np.random.default_rng(5), box=het_medium.box)
        want = _scalar_homogeneity(e, -k, 4, np.random.default_rng(5), het_medium.box)
        assert rep.passed and want <= 1e-7
        assert abs(rep.max_rel_error - want) <= 1e-12


def test_batched_homogeneity_check_matches_scalar_loop_on_failure():
    e = parse("s + 1")
    rep = homogeneity_check(e, 1)
    want = _scalar_homogeneity(e, 1, 16, np.random.default_rng(2024), ((0.0, 1.0),) * 3)
    assert not rep.passed and want > 1e-9
    assert abs(rep.max_rel_error - want) <= 1e-9 * want


def test_homogeneity_check_without_trials_passes():
    rep = homogeneity_check(parse("s + 1"), 1, trials=0)
    assert rep.passed
    assert rep.max_rel_error == 0.0


def test_homogeneity_check_evaluates_term_in_one_call(monkeypatch, het_medium):
    e = expand(het_medium, 1, 1, 2).term(-2)
    calls = []

    def counting(e, env):
        calls.append(e)
        return eval_expr(e, env)

    monkeypatch.setattr(helpers, "eval_expr", counting)
    assert homogeneity_check(e, -2, trials=4).passed
    assert calls == [e]
