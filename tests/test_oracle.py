import gc
import math
from dataclasses import replace

import numpy as np
import pytest

from anisosplit import (
    OracleError,
    SpectralGapError,
    TransverseGrid,
    VarId,
    eval_expr,
    expand,
    grid_riccati_oracle,
    operator_distance,
    order_claim_check,
    quad_oracle,
    riccati_residual,
    split_symbols,
    taylor_eval,
)
from anisosplit import expr, oracle, presets
from anisosplit.oracle import (
    DEFAULT_LAMBDAS,
    _jet_directions,
    _matrix_sign,
    _along_ray,
    _mixed_partials,
    _order_claim_parts,
    _residual_parts,
    draw_probe_points,
    fit_loglog,
)

from helpers import (
    eig_grid_admittance,
    eval_at,
    field_rel,
    kron_systems_blocks,
    oracle_riccati_degree_part,
    oracle_x_derivative,
    oracle_xi_derivative,
    probe_env,
    rel_err,
    scaling_env,
    single_shot_kernel,
    symbolic_order_claim,
    symbolic_residual_rms,
    two_pass_jets,
)

TAU = 2 * np.pi


def test_fit_loglog_recovers_power_law():
    lam = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    vals = 3.7 * lam**-2.5
    slope, intercept, dev = fit_loglog(lam, vals)
    assert slope == pytest.approx(-2.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.7, rel=1e-12)
    assert dev <= 1e-12


def test_fit_loglog_needs_two_scales():
    with pytest.raises(OracleError):
        fit_loglog([4.0], [1.0])
    with pytest.raises(OracleError, match="two distinct scales"):
        fit_loglog([4.0, 4.0], [1.0, 2.0])


def test_draw_probe_points_ranges(het_medium):
    pts = draw_probe_points(het_medium, 50, np.random.default_rng(1))
    assert len(pts) == 50
    for x1, x2, x3, xi1, xi2, s in pts:
        for v, (lo, hi) in zip((x1, x2, x3), het_medium.box):
            assert lo <= v <= hi
        assert 0.5 <= np.hypot(xi1, xi2) <= 1.5
        assert s.real > 0


def test_draw_probe_points_deterministic(het_medium):
    a = draw_probe_points(het_medium, 5, np.random.default_rng(3))
    b = draw_probe_points(het_medium, 5, np.random.default_rng(3))
    assert a == b


def test_residual_slope_tracks_order(het_medium):
    lambdas = [4.0, 16.0, 64.0]
    pts = draw_probe_points(het_medium, 4, np.random.default_rng(4))
    rep = riccati_residual(expand(het_medium, 1, 1, 1), points=pts, lambdas=lambdas)
    assert rep.expected_slope == -1.0
    assert abs(rep.slope + 1.0) <= 0.3
    assert rep.passed
    rep2 = riccati_residual(expand(het_medium, 1, 1, 2), points=pts, lambdas=lambdas)
    assert abs(rep2.slope + 2.0) <= 0.3
    # at a fixed scale the deeper expansion leaves a smaller residual
    assert rep2.rms[-1] < rep.rms[-1]


def test_residual_report_describe(het_medium):
    pts = draw_probe_points(het_medium, 3, np.random.default_rng(5))
    rep = riccati_residual(
        expand(het_medium, 1, 0, 1), points=pts, lambdas=[4.0, 16.0, 64.0]
    )
    text = rep.describe()
    assert "slope" in text


def test_residual_of_exact_sum_passes_at_rounding_level(hom_medium):
    # homogeneous medium: the truncated sum solves the equation exactly, so
    # every degree, -N included, cancels and the rebuilt rms is 0
    pts = draw_probe_points(hom_medium, 4, np.random.default_rng(5))
    rep = riccati_residual(expand(hom_medium, 1, 0, 2), points=pts, lambdas=[4.0, 16.0, 64.0])
    assert list(rep.ratios) == [1, 0, -1, -2]
    assert all(r <= oracle._ROUNDING_RTOL for r in rep.ratios.values())
    assert rep.rms == (0.0, 0.0, 0.0)
    assert rep.passed
    assert "exact" in rep.describe() and "[ok]" in rep.describe()


def test_correct_order_four_residual_passes_on_any_scales():
    # the verdict reads the degree parts, so the scales cannot move it: the
    # slope fit that decided it before failed this correct expansion on
    # lam = (4, 8, 16) and on (1, 2)
    m = presets.heterogeneous_full()
    pts = draw_probe_points(m, 6, np.random.default_rng(202))
    exp = expand(m, 1, 0, 4)
    reps = [
        riccati_residual(exp, points=pts, lambdas=lam)
        for lam in ((4.0, 8.0, 16.0), (1.0, 2.0), DEFAULT_LAMBDAS)
    ]
    for rep in reps:
        assert rep.passed, rep.describe()
        assert rep.ratios == reps[0].ratios
        assert rep.slope == fit_loglog(rep.lambdas, rep.rms)[0]
    assert list(reps[0].ratios) == [1, 0, -1, -2, -3, -4]
    assert reps[0].ratios[-4] > 1e-3  # the first uncancelled degree


def test_passing_order_four_report_gives_the_slope_as_information():
    # over all scales the small scales pull the slope of a correct
    # order-4 residual away from -4 (-4.372 here); the report must not
    # read as if it were held to -4
    m = presets.heterogeneous_full()
    pts = draw_probe_points(m, 6, np.random.default_rng(202))
    rep = riccati_residual(expand(m, 1, 1, 4), points=pts)
    assert rep.passed and rep.expected_slope == -4.0
    text = rep.describe()
    assert "expected" not in text and "[FAIL]" not in text
    assert f"degree -4 at {rep.ratios[-4]:.2e} [ok]; for information" in text
    assert text.endswith(f"the log-log slope over all scales is {rep.slope:+.3f}")


def test_rounding_rule_does_not_excuse_a_real_residual(het_medium):
    pts = draw_probe_points(het_medium, 4, np.random.default_rng(4))
    rep = riccati_residual(expand(het_medium, 1, 1, 1), points=pts, lambdas=[4.0, 16.0, 64.0])
    assert rep.passed and rep.ratios[-1] > 1e-3
    assert "degree -1 at" in rep.describe()
    # a degree above -N above the rounding floor fails, and the report names it
    floor = oracle._ROUNDING_RTOL
    bad = replace(rep, ratios={**rep.ratios, 0: 2 * floor})
    assert not bad.passed
    assert "degree +0 does not cancel" in bad.describe() and "[FAIL]" in bad.describe()
    assert replace(rep, ratios={**rep.ratios, 0: floor}).passed
    # the slope is information only: it never fails the check
    assert replace(rep, slope=5.0).passed


def test_residual_names_a_wrong_term_at_its_degree(het_medium):
    # y_-3 off by one part in a million: the slope fit passed it (-2.906),
    # but y_-3 is solved from the degree -2 balance, which no longer cancels
    exp = expand(het_medium, 1, 1, 3)
    pts = draw_probe_points(het_medium, 6, np.random.default_rng(202))
    wrong = replace(exp, forms={**exp.forms, -3: (1 + 1e-6) * exp.forms[-3]})
    rep = riccati_residual(wrong, points=pts)
    failed = [d for d, r in rep.ratios.items() if d > -3 and r > oracle._ROUNDING_RTOL]
    assert failed == [-2]
    assert 1e-8 < rep.ratios[-2] < 1e-5
    assert not rep.passed
    assert "degree -2 does not cancel" in rep.describe() and "[FAIL]" in rep.describe()


def test_residual_window_does_not_excuse_a_wrong_term(het_medium):
    exp = expand(het_medium, 1, 1, 3)
    pts = draw_probe_points(het_medium, 6, np.random.default_rng(202))
    assert riccati_residual(exp, points=pts).passed
    wrong = replace(exp, forms={**exp.forms, -3: 2 * exp.forms[-3]})
    rep = riccati_residual(wrong, points=pts)
    # the failed degree stays in the rms, so the slope shows it too
    assert abs(rep.slope + 2.0) <= 0.3
    assert not rep.passed


@pytest.mark.parametrize("preset", ["heterogeneous_full", "up_down_symmetric"])
@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_residual_degree_parts_match_symbolic_oracle(preset, eta, order):
    # for d >= -N the cap |beta| <= N + 1 truncates nothing, so each R_d is
    # the whole degree-d part of the equation, as the expression collector
    # builds it
    m = getattr(presets, preset)()
    exp = expand(m, 1, eta, order)
    pts = draw_probe_points(m, 6, np.random.default_rng(202))
    degrees, parts, sizes = _residual_parts(exp, probe_env(pts))
    terms = {d: exp.term(d) for d in exp.forms}
    rms = lambda v: np.sqrt(np.mean(np.abs(v) ** 2))
    for d in range(1, -order - 1, -1):
        row = list(degrees).index(d)
        want = eval_at(oracle_riccati_degree_part(m, eta, terms, d), pts)
        assert rms(parts[row] - want) <= oracle._ROUNDING_RTOL * rms(sizes[row]), d


def test_quad_oracle_matches_numpy_roots(hom_medium):
    rng = np.random.default_rng(6)
    xi = rng.uniform(-1.5, 1.5, size=(10, 2))
    s = 1.1 + 0.3j
    roots = quad_oracle(hom_medium, xi, s)
    a = np.array([[2, 0.3, 0.4], [0.1, 1.8, 0.2], [0.5, 0.3, 1.5]])
    kap = 0.8
    inv33 = 1 / a[2, 2]
    Q = a[:2, :2] - np.outer(a[:2, 2], a[2, :2]) * inv33
    for k in range(10):
        a11 = 1j * (xi[k] @ a[:2, 2]) * inv33
        a12 = s * kap + (xi[k] @ Q @ xi[k]) / s
        a21 = s * inv33
        a22 = 1j * (a[2, :2] @ xi[k]) * inv33
        pair = np.roots([a21, a22 - a11, -a12])
        gen = a21 * pair + a22
        plus = pair[0] if gen[0].real > 0 else pair[1]
        minus = pair[1] if gen[0].real > 0 else pair[0]
        assert roots.y_plus[k] == pytest.approx(plus, rel=1e-12)
        assert roots.y_minus[k] == pytest.approx(minus, rel=1e-12)


def test_quad_oracle_generators(hom_medium):
    xi = np.array([[0.7, -0.2], [1.1, 0.4]])
    roots = quad_oracle(hom_medium, xi, 0.9 + 0.2j)
    assert np.all(roots.g_plus.real > 0)
    assert np.all(roots.g_minus.real < 0)


def test_quad_oracle_preconditions(het_medium, hom_medium):
    with pytest.raises(OracleError):
        quad_oracle(het_medium, [[1.0, 0.0]], 1.0)
    with pytest.raises(OracleError):
        quad_oracle(hom_medium, [[1.0, 0.0]], -1.0)
    with pytest.raises(OracleError):
        quad_oracle(hom_medium, [[1.0, 0.0]], 2j)
    with pytest.raises(OracleError):
        quad_oracle(hom_medium, [[1.0, 0.0, 0.0]], 1.0)


def test_grid_oracle_agrees_with_symbol(hom_medium):
    grid = TransverseGrid(8, TAU, TAU)
    s = 1.2 + 0.4j
    res = grid_riccati_oracle(hom_medium, grid, s)
    assert res.gap > 0
    assert res.riccati_rel_plus <= 1e-10
    assert res.riccati_rel_minus <= 1e-10
    # a constant-coefficient medium diagonalizes in Fourier: the matrix
    # admittance IS the quantized leading symbol
    exp = expand(hom_medium, 1, 0, 0)
    d = operator_distance(exp.series(0), res.y_plus, grid, s)
    assert d <= 1e-10


def test_grid_oracle_transverse_medium():
    m = presets.transverse_anisotropic()
    grid = TransverseGrid(8, TAU, TAU)
    res = grid_riccati_oracle(m, grid, 40.0)
    assert res.gap > 0
    assert res.riccati_rel_plus <= 1e-8
    assert res.cond_plus < 1e6


@pytest.mark.parametrize(
    "medium, s",
    [(presets.homogeneous_anisotropic, 1.2 + 0.4j), (presets.transverse_anisotropic, 40.0)],
)
def test_grid_oracle_matches_scipy_eig(medium, s):
    # the oracle's sign-function split against scipy's eigensolver, on the
    # oracle's own blocks
    import scipy.linalg

    res = grid_riccati_oracle(medium(), TransverseGrid(8, TAU, TAU), s)
    lam, phi = scipy.linalg.eig(np.block([list(res.blocks[:2]), list(res.blocks[2:])]))
    nearest = np.min(np.abs(lam[:, None] - res.eigenvalues[None, :]), axis=1)
    assert np.max(nearest) <= 1e-12 * np.max(np.abs(lam))
    N = res.y_plus.shape[0]
    for mask, got in ((lam.real > 0, res.y_plus), (lam.real < 0, res.y_minus)):
        want = phi[:N, mask] @ np.linalg.inv(phi[N:, mask])
        assert field_rel(got, want) <= 1e-12


def x_varying_coupling():
    # depth-free, with every coupling alpha13, alpha31, alpha23, alpha32
    # varying in x, so each of f1, f2, g1, g2 is a genuine field
    from anisosplit import load_medium

    alpha = [
        "1.6 + 0.1*sin(x2)", "0.1", "0.2 + 0.1*sin(x1)",
        "0.1", "1.4", "0.15*cos(x1 - x2)",
        "0.3*cos(x2)", "-0.2 + 0.1*sin(x1)", "1.2 + 0.1*cos(x1)",
    ]
    return load_medium(
        {"kappa": "1 + 0.1*cos(x1 + x2)", "alpha": ", ".join(alpha), "box": presets._BOX}
    )


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("s", [40.0, 1.2 + 0.4j])
@pytest.mark.parametrize("medium", [presets.transverse_anisotropic, x_varying_coupling])
def test_grid_oracle_blocks_match_kronecker_reference(medium, s, n):
    # the oracle's matrix is the spectral systems action on unit fields;
    # dense Kronecker derivative matrices give the same blocks
    m = medium()
    grid = TransverseGrid(n, TAU, TAU)
    got = grid_riccati_oracle(m, grid, s).blocks
    for block, want in zip(got, kron_systems_blocks(m, grid, complex(s))):
        assert field_rel(block, want) <= 1e-14


def test_grid_oracle_matches_eig_reference_at_benchmark_size():
    # the sign-function split against a dense eigendecomposition of the
    # same 512 x 512 matrix (n = 16)
    m = presets.transverse_anisotropic()
    res = grid_riccati_oracle(m, TransverseGrid(16, TAU, TAU), 40.0)
    lam, y_plus, y_minus = eig_grid_admittance(res.blocks)
    assert field_rel(res.y_plus, y_plus) <= 1e-10
    assert field_rel(res.y_minus, y_minus) <= 1e-10
    assert res.eigenvalues.shape == lam.shape
    nearest = np.min(np.abs(lam[:, None] - res.eigenvalues[None, :]), axis=1)
    assert np.max(nearest) <= 1e-10 * np.max(np.abs(lam))
    assert res.riccati_rel_plus <= 1e-13
    assert res.riccati_rel_minus <= 1e-13


def test_matrix_sign_of_a_diagonalizable_matrix():
    rng = np.random.default_rng(31)
    lam = np.concatenate([rng.uniform(0.1, 3.0, 5), -rng.uniform(0.1, 3.0, 4)])
    lam = lam + 1j * rng.uniform(-5.0, 5.0, lam.size)
    V = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    want = V @ np.diag(np.sign(lam.real)) @ np.linalg.inv(V)
    got = _matrix_sign(V @ np.diag(lam) @ np.linalg.inv(V))
    assert field_rel(got, want) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_grid_oracle_thin_gap_is_typed(hom_medium):
    with pytest.raises(SpectralGapError):
        grid_riccati_oracle(hom_medium, TransverseGrid(8, TAU, TAU), 1.2 + 0.4j, gap_rtol=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diagonal", [(1.0, -1.0, 1j), (1.0, 0.0, -1.0)])
def test_matrix_sign_failures_are_typed(diagonal):
    # an eigenvalue on the imaginary axis makes a later iterate singular;
    # a singular matrix fails at the first inverse
    with pytest.raises(SpectralGapError):
        _matrix_sign(np.diag(np.array(diagonal, dtype=complex)))


@pytest.mark.filterwarnings("error")
def test_matrix_sign_gives_up_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_SIGN_MAX_ITER", 1)
    with pytest.raises(SpectralGapError, match="converge"):
        _matrix_sign(np.diag(np.array([3.0, -0.5 + 2j], dtype=complex)))


def test_grid_oracle_rejects_depth_dependence(het_medium):
    grid = TransverseGrid(8, TAU, TAU)
    with pytest.raises(OracleError):
        grid_riccati_oracle(het_medium, grid, 1.0)


def test_grid_oracle_rejects_aperiodic_box():
    from anisosplit import load_medium

    m = load_medium(
        {
            "kappa": "1 + 0.1*sin(x1)",
            "alpha": "1,0,0,0,1,0,0,0,1",
            "box": "0, 5, 0, 5, 0, 5",
        }
    )
    grid = TransverseGrid(8, 5.0, 5.0)  # sin(x1) has period 2 pi, not 5
    with pytest.raises(OracleError, match="periodic"):
        grid_riccati_oracle(m, grid, 1.0)


def test_grid_oracle_rejects_left_half_plane(hom_medium):
    grid = TransverseGrid(8, TAU, TAU)
    with pytest.raises(OracleError):
        grid_riccati_oracle(hom_medium, grid, -2.0)


def test_operator_distance_zero_for_matching_operator(hom_medium):
    grid = TransverseGrid(8, TAU, TAU)
    s = 1.0 + 0.1j
    exp = expand(hom_medium, 1, 0, 0)
    mat = single_shot_kernel(exp.series(0), grid, 0.0, s)
    assert operator_distance(exp.series(0), mat, grid, s) <= 1e-12


def test_operator_distance_detects_scaling(hom_medium):
    grid = TransverseGrid(8, TAU, TAU)
    s = 1.0 + 0.1j
    exp = expand(hom_medium, 1, 0, 0)
    mat = 1.01 * single_shot_kernel(exp.series(0), grid, 0.0, s)
    d = operator_distance(exp.series(0), mat, grid, s)
    assert 0.005 <= d <= 0.02


def test_operator_distance_needs_a_probe(hom_medium):
    grid = TransverseGrid(8, TAU, TAU)
    exp = expand(hom_medium, 1, 0, 0)
    with pytest.raises(OracleError):
        operator_distance(exp.series(0), np.eye(64), grid, 1.0, probes=0)


def test_order_claim_on_heterogeneous_split(het_split):
    pts = draw_probe_points(het_split.medium, 5, np.random.default_rng(7))
    rep = order_claim_check(het_split, points=pts, lambdas=[4.0, 16.0, 64.0])
    assert rep.passed
    assert abs(rep.p_slope - 1.0) <= 0.3
    assert abs(rep.d3_slope - 0.0) <= 0.3


def test_order_claim_depth_free_split(hom_split):
    # constant medium: d3 ell vanishes identically, reported as None
    pts = draw_probe_points(hom_split.medium, 5, np.random.default_rng(8))
    rep = order_claim_check(hom_split, points=pts, lambdas=[4.0, 16.0, 64.0])
    assert rep.d3_slope is None
    assert rep.passed


@pytest.mark.parametrize(
    "preset", ["heterogeneous_full", "depth_varying_unit_a33", "dual_path_medium"]
)
@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_order_claim_jets_match_symbolic_composition(preset, eta, order):
    m = getattr(presets, preset)()
    split = split_symbols(expand(m, 1, eta, order), expand(m, -1, eta, order))
    pts = draw_probe_points(m, 5, np.random.default_rng(order))
    (degrees, p), d3 = _order_claim_parts(split, probe_env(pts))
    p_sym, _, _ = symbolic_order_claim(split, probe_env(pts))
    if order == 0:
        # p is its degree-1 part y_0 g_1 alone
        assert list(p_sym) == [1]
    # each degree part against the symbolic composition's
    assert set(p_sym) <= set(degrees.tolist())
    for d, got in zip(degrees, p):
        want = eval_at(p_sym[d], pts) if d in p_sym else 0.0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(p)), d
    # and the sums rebuilt along the scaling ray against the symbolic values
    lam = np.asarray(DEFAULT_LAMBDAS)
    _, p_want, d3_want = symbolic_order_claim(split, scaling_env(pts, lam))
    assert rel_err(_along_ray(lam, degrees, p).T, p_want) <= 1e-12
    assert (d3 is None) == (d3_want is None)
    if d3 is not None:
        assert rel_err(_along_ray(lam, *d3).T, d3_want) <= 1e-12


def _both_parts(plus, minus, envs) -> list:
    # every array of _residual_parts and _order_claim_parts at orders 1-4,
    # each order a truncation of the order-4 expansions
    arrays = []
    for order in range(1, 5):
        up, down = (replace(e, order=order, forms=e.series(order)) for e in (plus, minus))
        split = split_symbols(up, down)
        for env in envs:
            p, d3 = _order_claim_parts(split, env)
            arrays += [*_residual_parts(up, env), *p, *(d3 or [None])]
    return arrays


@pytest.mark.parametrize(
    "preset", ["heterogeneous_full", "dual_path_medium", "transverse_anisotropic"]
)
@pytest.mark.parametrize("eta", [0, 1])
def test_one_pass_jets_match_two_passes_bitwise(preset, eta, monkeypatch):
    # transverse_anisotropic's ell is free of x3: the order claim seeds no x3
    m = getattr(presets, preset)()
    plus, minus = expand(m, 1, eta, 4), expand(m, -1, eta, 4)
    envs = [probe_env(draw_probe_points(m, 6, rng)) for rng in (None, np.random.default_rng(202))]
    one = _both_parts(plus, minus, envs)
    monkeypatch.setattr(oracle, "_jets", two_pass_jets)
    two = _both_parts(plus, minus, envs)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("check", ["riccati_residual", "order_claim_check"])
def test_each_order_check_runs_one_taylor_pass(het_medium, monkeypatch, check):
    plus = expand(het_medium, 1, 1, 2)
    arg = plus if check == "riccati_residual" else split_symbols(plus, expand(het_medium, -1, 1, 2))
    calls = []

    def spy(*args):
        calls.append(args)
        return taylor_eval(*args)

    monkeypatch.setattr(oracle, "taylor_eval", spy)
    assert getattr(oracle, check)(arg).passed
    assert len(calls) == 1


@pytest.mark.parametrize("check", ["order_claim_check", "riccati_residual"])
def test_order_claim_at_order_4_keeps_no_dag_nodes(check):
    m = presets.heterogeneous_full()
    plus = expand(m, 1, 1, 4)
    split = split_symbols(plus, expand(m, -1, 1, 4))
    pts = draw_probe_points(m, 6, np.random.default_rng(404))
    gc.collect()
    before = set(expr._intern)
    if check == "order_claim_check":
        rep = order_claim_check(split, points=pts)
        assert abs(rep.p_slope - 1.0) <= 0.3
        assert abs(rep.d3_slope - 0.0) <= 0.3
    else:
        rep = riccati_residual(plus, points=pts)
    gc.collect()
    # no node outlives the call; key sets, not lengths, so that a node
    # freed during the call cannot hide one left behind (a failure shows
    # the count: printing the keys would print whole DAGs)
    left = len(set(expr._intern) - before)
    assert left == 0
    assert rep.passed


def test_default_lambda_grid_is_dyadic():
    assert DEFAULT_LAMBDAS == (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


# ---------------------------------------------------------------------------
# Taylor-mode residual


def test_fit_loglog_needs_distinct_positive_scales():
    with pytest.raises(OracleError):
        fit_loglog([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
    with pytest.raises(OracleError):
        fit_loglog([0.0, 4.0, 8.0], [1.0, 2.0, 3.0])
    with pytest.raises(OracleError):
        fit_loglog([-4.0, 4.0], [1.0, 2.0])
    with pytest.raises(OracleError):
        fit_loglog([4.0, 8.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("points", [[], [(0.1, 0.2, 0.3, 1.0, 0.0)], np.zeros((2, 6, 1))])
def test_riccati_residual_rejects_bad_probe_sets(het_medium, points):
    with pytest.raises(OracleError):
        riccati_residual(expand(het_medium, 1, 0, 1), points=points, lambdas=[4.0, 16.0])


@pytest.mark.parametrize("space", ["xi", "x"])
def test_mixed_partials_from_jets_match_symbolic_derivatives(het_medium, space):
    y = expand(het_medium, 1, 1, 1).term(-1)
    env = scaling_env(draw_probe_points(het_medium, 5, np.random.default_rng(8)), [1.0, 3.0])
    dirs = _jet_directions(4)
    if space == "xi":
        seeds, derivative = {VarId.XI1: dirs[:, 0], VarId.XI2: dirs[:, 1]}, oracle_xi_derivative
    else:
        seeds, derivative = {VarId.X1: dirs[:, 0], VarId.X2: dirs[:, 1]}, oracle_x_derivative
    (jet,) = taylor_eval([y], env, seeds, 4)
    parts = _mixed_partials(jet, dirs, 4)
    assert len(parts) == 15
    for beta, got in parts.items():
        want = eval_expr(derivative(y, beta), env) / (
            math.factorial(beta[0]) * math.factorial(beta[1])
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), beta


@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("order", [1, 2])
def test_riccati_residual_matches_symbolic_oracle(het_medium, eta, order):
    lam = np.asarray(DEFAULT_LAMBDAS)
    # on up_down_symmetric alpha33 varies in x2, so a11's degree-0 part
    # d1 f1 + d2 f2 is nonzero; on heterogeneous_full it vanishes
    for m in (het_medium, presets.up_down_symmetric()):
        exp = expand(m, 1, eta, order)
        for seed in (202, 11):
            pts = draw_probe_points(m, 6, np.random.default_rng(seed))
            rep = riccati_residual(exp, points=pts)
            want = symbolic_residual_rms(exp, pts, lam)
            rel = np.abs(np.asarray(rep.rms) - want) / want
            # the cancellation floor grows like lam^(order + 1) * eps
            assert np.all(rel[lam <= 64] <= 1e-9), rel
            assert np.all(rel <= 1e-6), rel
            slope, _, _ = fit_loglog(lam, want)
            assert abs(rep.slope - slope) < 5e-4
