import numpy as np
import pytest

from anisosplit import (
    PropagationError,
    TransverseGrid,
    Wavefield,
    apply_systems_operator,
    build_rhs,
    decompose_homogeneous,
    full_solve,
    oneway_solve,
    quad_oracle,
    quantize_apply,
    random_smooth_field,
    recompose,
    systems_symbols,
)
from anisosplit import presets, quantize_matrix
from anisosplit.propagate import _physical_kernel

from helpers import dft2_matrix, field_rel

TAU = 2 * np.pi


@pytest.fixture(scope="module")
def grid8():
    return TransverseGrid(8, TAU, TAU)


def test_wavefield_shape_check(grid8):
    with pytest.raises(PropagationError):
        Wavefield(values=np.zeros((4, 4)), grid=grid8)
    w = Wavefield(values=np.zeros((8, 8)), grid=grid8, component="v3")
    assert w.values.dtype == np.complex128
    assert w.norm == 0.0
    w2 = w.with_values(np.ones((8, 8)), x3=0.5)
    assert w2.x3 == 0.5
    assert w2.component == "v3"


def test_wavefield_round_trips_through_quantize(grid8):
    rng = np.random.default_rng(1)
    w = Wavefield(values=random_smooth_field(grid8, rng), grid=grid8, s=1.2 + 0.1j)
    from anisosplit import parse

    out = quantize_apply(parse("sin(x1)"), w, grid8, 0.0, w.s)
    assert isinstance(out, Wavefield)
    assert out.component == w.component
    X1g, _ = grid8.x_mesh()
    assert field_rel(out.values, np.sin(X1g) * w.values) <= 1e-12


def test_build_rhs_injection_only_passes_through(grid8):
    m = presets.unit_isotropic()
    rng = np.random.default_rng(2)
    q = random_smooth_field(grid8, rng)
    n1, n2 = build_rhs(m, grid8, 1.3 + 0.2j, 0.0, q=q)
    assert field_rel(n1, q) <= 1e-14
    assert np.max(np.abs(n2)) == 0.0


def test_build_rhs_vertical_force_unit_medium(grid8):
    # alpha = I: f3 contributes only v2 = f3, so n1 = 0, n2 = f3
    m = presets.unit_isotropic()
    rng = np.random.default_rng(3)
    f3 = random_smooth_field(grid8, rng)
    n1, n2 = build_rhs(m, grid8, 1.0, 0.0, f=(None, None, f3))
    assert np.max(np.abs(n1)) <= 1e-14
    assert field_rel(n2, f3) <= 1e-14


def test_build_rhs_transverse_force_is_divergence(grid8):
    # alpha = I: f1 enters as -s^-1 d1 f1 in the first slot only
    m = presets.unit_isotropic()
    s = 1.7 - 0.4j
    rng = np.random.default_rng(4)
    f1 = random_smooth_field(grid8, rng)
    n1, n2 = build_rhs(m, grid8, s, 0.0, f=(f1, None, None))
    from anisosplit import spectral_derivative

    want = -spectral_derivative(f1, grid8, 1) / s
    assert field_rel(n1, want) <= 1e-13
    assert np.max(np.abs(n2)) == 0.0


def test_apply_systems_operator_matches_mode_matrices(grid8):
    # constant coefficients: the spectral operator acts per mode through
    # the 2x2 degree-1 symbol matrix
    m = presets.homogeneous_anisotropic()
    s = 1.2 + 0.4j
    rng = np.random.default_rng(5)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    r1, r2 = apply_systems_operator(m, grid8, s, 0.0, v3, p)

    A = systems_symbols(m)
    r1_sym = quantize_apply(A.a11, v3, grid8, 0.0, s) + quantize_apply(
        A.a12, p, grid8, 0.0, s
    )
    r2_sym = quantize_apply(A.a21, v3, grid8, 0.0, s) + quantize_apply(
        A.a22, p, grid8, 0.0, s
    )
    assert field_rel(r1, r1_sym) <= 1e-11
    assert field_rel(r2, r2_sym) <= 1e-11


def test_full_solve_zero_interval_is_identity(grid8):
    m = presets.homogeneous_anisotropic()
    rng = np.random.default_rng(6)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    recs = full_solve(m, grid8, 1.0 + 0.2j, v3, p, 0.3, 0.3, steps=4)
    assert len(recs) >= 1
    x3, v3b, pb = recs[-1]
    assert x3 == 0.3
    assert field_rel(v3b, v3) <= 1e-14
    assert field_rel(pb, p) <= 1e-14


def test_full_solve_exact_vs_rk4(grid8):
    m = presets.homogeneous_anisotropic()
    s = 1.2 + 0.4j
    rng = np.random.default_rng(7)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    _, ve, pe = full_solve(m, grid8, s, v3, p, 0.0, 0.4, method="exact")[-1]
    _, vr, pr = full_solve(m, grid8, s, v3, p, 0.0, 0.4, steps=400, method="rk4")[-1]
    assert field_rel(ve, vr) <= 1e-8
    assert field_rel(pe, pr) <= 1e-8


def test_full_solve_reverse_direction_inverts(grid8):
    m = presets.homogeneous_anisotropic()
    s = 1.1 + 0.3j
    rng = np.random.default_rng(8)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    _, vf, pf = full_solve(m, grid8, s, v3, p, 0.0, 0.5, method="exact")[-1]
    _, vb, pb = full_solve(m, grid8, s, vf, pf, 0.5, 0.0, method="exact")[-1]
    assert field_rel(vb, v3) <= 1e-10
    assert field_rel(pb, p) <= 1e-10


def test_full_solve_records_requested_depths(grid8):
    m = presets.homogeneous_anisotropic()
    rng = np.random.default_rng(9)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    recs = full_solve(
        m, grid8, 1.0, v3, p, 0.0, 1.0, method="exact", record=[0.75, 0.25]
    )
    depths = [r[0] for r in recs]
    assert depths == [0.0, 0.25, 0.75, 1.0]
    with pytest.raises(PropagationError):
        full_solve(m, grid8, 1.0, v3, p, 0.0, 1.0, record=[2.0])


def test_full_solve_heterogeneous_converges(grid8):
    # rk4 on a transversely varying medium: halving the step should not
    # change the answer at this resolution
    m = presets.transverse_anisotropic()
    s = 2.0 + 0.5j
    rng = np.random.default_rng(10)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    _, va, pa = full_solve(m, grid8, s, v3, p, 0.0, 0.3, steps=60, method="rk4")[-1]
    _, vb, pb = full_solve(m, grid8, s, v3, p, 0.0, 0.3, steps=120, method="rk4")[-1]
    assert field_rel(va, vb) <= 1e-6
    assert field_rel(pa, pb) <= 1e-6


def test_full_solve_method_validation(grid8):
    m = presets.heterogeneous_full()
    z = np.zeros((8, 8))
    with pytest.raises(PropagationError):
        full_solve(m, grid8, 1.0, z, z, 0.0, 1.0, method="exact")
    with pytest.raises(PropagationError):
        full_solve(m, grid8, 1.0, z, z, 0.0, 1.0, method="magic")
    with pytest.raises(PropagationError):
        full_solve(m, grid8, 1.0, z, z, 0.0, 1.0, steps=0)


def test_decompose_recompose_round_trip(grid8, hom_split):
    m = hom_split.medium
    s = 1.2 + 0.4j
    rng = np.random.default_rng(11)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    u_plus, u_minus = decompose_homogeneous(m, v3, p, grid8, s)
    v3b, pb = recompose(hom_split, u_plus, u_minus, grid8, s)
    assert field_rel(v3b, v3) <= 1e-10
    assert field_rel(pb, p) <= 1e-10


def test_decomposition_isolates_oneway_content(grid8, hom_split):
    # pure down-going data: the up-going component is numerically zero
    m = hom_split.medium
    s = 1.1 + 0.2j
    rng = np.random.default_rng(12)
    u = random_smooth_field(grid8, rng)
    v3, p = recompose(hom_split, u, np.zeros_like(u), grid8, s)
    up, um = decompose_homogeneous(m, v3, p, grid8, s)
    assert field_rel(up, u) <= 1e-10
    assert np.linalg.norm(um) <= 1e-10 * np.linalg.norm(u)


@pytest.mark.parametrize("n", [8, 16])
def test_physical_kernel_matches_dense_dft_product(het_split, n):
    grid = TransverseGrid(n, TAU, TAU)
    g = het_split.g_symbol(1)
    s = 1.5 + 0.3j
    want = quantize_matrix(g, grid, 0.25, s) @ dft2_matrix(n)
    assert field_rel(_physical_kernel(g, grid, 0.25, s), want) <= 1e-13


def test_oneway_down_going_decays(grid8, hom_split):
    # real positive s: the one-way generator is accretive, so the
    # down-going field loses energy monotonically
    rng = np.random.default_rng(13)
    u = random_smooth_field(grid8, rng)
    recs = oneway_solve(
        hom_split, 1, grid8, 3.0, u, 0.0, 0.6, steps=48, record=[0.2, 0.4]
    )
    norms = [np.linalg.norm(v) for _, v in recs]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_oneway_expmid_matches_rk4(grid8, hom_split):
    s = 1.2 + 0.4j
    rng = np.random.default_rng(14)
    u = random_smooth_field(grid8, rng)
    _, ua = oneway_solve(hom_split, 1, grid8, s, u, 0.0, 0.5, method="expmid")[-1]
    _, ub = oneway_solve(hom_split, 1, grid8, s, u, 0.0, 0.5, steps=300, method="rk4")[-1]
    assert field_rel(ua, ub) <= 1e-8


def test_oneway_trunc_controls_corrections(grid8):
    # a heterogeneous split: truncating to order 0 must change the
    # answer, and trunc beyond the split order is rejected
    m = presets.transverse_anisotropic()
    from anisosplit import expand, split_symbols

    sp = split_symbols(expand(m, 1, 0, 1), expand(m, -1, 0, 1))
    rng = np.random.default_rng(15)
    u = random_smooth_field(grid8, rng)
    s = 4.0
    _, u0 = oneway_solve(sp, 1, grid8, s, u, 0.0, 0.3, steps=40, trunc=0)[-1]
    _, u1 = oneway_solve(sp, 1, grid8, s, u, 0.0, 0.3, steps=40, trunc=1)[-1]
    assert field_rel(u0, u1) > 1e-6
    with pytest.raises(PropagationError):
        oneway_solve(sp, 1, grid8, s, u, 0.0, 0.3, trunc=5)


def test_oneway_rejects_bad_sign(grid8, hom_split):
    u = np.zeros((8, 8))
    with pytest.raises(Exception):
        oneway_solve(hom_split, 0, grid8, 1.0, u, 0.0, 0.1)


def test_rk4_blowup_guard(grid8):
    # stepping the full system across a huge interval with a handful of
    # steps sends the growing family out of range; the guard must trip
    m = presets.homogeneous_anisotropic()
    rng = np.random.default_rng(16)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    with pytest.raises(PropagationError, match="blew up|blow|diverg"):
        full_solve(m, grid8, 30.0, v3, p, 0.0, 100.0, steps=8, method="rk4")
