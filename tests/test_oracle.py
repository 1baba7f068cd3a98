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
    taylor_eval,
)
from anisosplit import oracle, presets
from anisosplit.oracle import (
    DEFAULT_LAMBDAS,
    _jet_directions,
    _matrix_sign,
    _mixed_partials,
    _scaling_env,
    draw_probe_points,
    fit_loglog,
)
from anisosplit.symbols import x_derivative, xi_derivative

from helpers import dft2_matrix, eig_grid_admittance, field_rel, symbolic_residual_rms

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
    # the residual is rounding that grows like the summands (slope +1)
    pts = draw_probe_points(hom_medium, 4, np.random.default_rng(5))
    rep = riccati_residual(expand(hom_medium, 1, 0, 2), points=pts, lambdas=[4.0, 16.0, 64.0])
    assert rep.slope == pytest.approx(1.0, abs=0.01)
    assert rep.at_rounding_level
    assert rep.passed
    assert "rounding" in rep.describe() and "[ok]" in rep.describe()


def test_order_four_residual_fits_from_lambda_eight():
    # lam = 4 is pre-asymptotic at order 4 (local slope about -8.6 to
    # lam = 8), so from order 4 on the fit starts at lam = 8
    m = presets.heterogeneous_full()
    pts = draw_probe_points(m, 6, np.random.default_rng(202))
    rep = riccati_residual(expand(m, 1, 0, 4), points=pts, lambdas=DEFAULT_LAMBDAS)
    assert rep.fit_from == 8.0 and rep.lambdas == DEFAULT_LAMBDAS
    assert abs(rep.slope + 4.0) <= 0.3 and rep.passed
    assert "fit over lam >= 8" in rep.describe()
    allfit, _, _ = fit_loglog(rep.lambdas, rep.rms)
    assert abs(allfit + 4.0) > 0.3  # what the fit over every scale gave
    # below order 4 every scale is fitted, and the text is unchanged
    low = riccati_residual(expand(m, 1, 0, 3), points=pts, lambdas=DEFAULT_LAMBDAS)
    assert low.fit_from == 4.0
    assert low.slope == fit_loglog(low.lambdas, low.rms)[0]
    assert "fit over" not in low.describe()


def test_rounding_rule_does_not_excuse_a_real_residual(het_medium):
    pts = draw_probe_points(het_medium, 4, np.random.default_rng(4))
    rep = riccati_residual(expand(het_medium, 1, 1, 1), points=pts, lambdas=[4.0, 16.0, 64.0])
    assert not rep.at_rounding_level
    bad = replace(rep, expected_slope=-3.0)
    assert not bad.passed
    assert "[FAIL]" in bad.describe()
    # the rule holds only when every scale is at rounding level
    eps = np.finfo(float).eps
    mixed = replace(bad, rms=(eps, eps, 1e-3), term_rms=(1.0, 1.0, 1.0))
    assert not mixed.at_rounding_level
    assert replace(mixed, rms=(eps, eps, eps)).passed
    assert not replace(mixed, term_rms=()).at_rounding_level


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
    from anisosplit import quantize_matrix

    exp = expand(hom_medium, 1, 0, 0)
    mat = quantize_matrix(exp.series(0), grid, 0.0, s) @ dft2_matrix(grid.n)
    assert operator_distance(exp.series(0), mat, grid, s) <= 1e-12


def test_operator_distance_detects_scaling(hom_medium):
    grid = TransverseGrid(8, TAU, TAU)
    s = 1.0 + 0.1j
    from anisosplit import quantize_matrix

    exp = expand(hom_medium, 1, 0, 0)
    mat = 1.01 * (quantize_matrix(exp.series(0), grid, 0.0, s) @ dft2_matrix(grid.n))
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
    env = _scaling_env(draw_probe_points(het_medium, 5, np.random.default_rng(8)), [1.0, 3.0])
    dirs = _jet_directions(4)
    if space == "xi":
        seeds, derivative = {VarId.XI1: dirs[:, 0], VarId.XI2: dirs[:, 1]}, xi_derivative
    else:
        seeds, derivative = {VarId.X1: dirs[:, 0], VarId.X2: dirs[:, 1]}, x_derivative
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
    exp = expand(het_medium, 1, eta, order)
    lam = np.asarray(DEFAULT_LAMBDAS)
    for seed in (202, 11):
        pts = draw_probe_points(het_medium, 6, np.random.default_rng(seed))
        rep = riccati_residual(exp, points=pts)
        want = symbolic_residual_rms(exp, pts, lam)
        rel = np.abs(np.asarray(rep.rms) - want) / want
        # the cancellation floor grows like lam^(order + 1) * eps
        assert np.all(rel[lam <= 64] <= 1e-9), rel
        assert np.all(rel <= 1e-6), rel
        slope, _, _ = fit_loglog(lam, want)
        assert abs(rep.slope - slope) < 5e-4
