import weakref

import numpy as np
import pytest

from anisosplit import (
    PropagationError,
    TransverseGrid,
    VarId,
    apply_systems_operator,
    decompose_homogeneous,
    full_solve,
    oneway_solve,
    quad_oracle,
    quantize_apply,
    random_smooth_field,
    recompose,
    symbol_total,
    systems_symbols,
)
from anisosplit import presets
from anisosplit import symbols
from anisosplit.symbols import _spectral_kernel

from helpers import dft2_matrix, field_rel, single_shot_quantize

TAU = 2 * np.pi


@pytest.fixture(scope="module")
def grid8():
    return TransverseGrid(8, TAU, TAU)


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
def test_physical_kernel_matches_dense_dft_product(het_split, monkeypatch, n):
    # the grid-to-grid kernel that expmid exponentiates over [0, 0.5] is
    # the spectral matrix at the midpoint composed with the dense 2D DFT
    import scipy.linalg

    seen = []

    def recording(A):
        seen.append(A)
        return np.eye(len(A))

    monkeypatch.setattr(scipy.linalg, "expm", recording)
    grid = TransverseGrid(n, TAU, TAU)
    s = 1.5 + 0.3j
    u = random_smooth_field(grid, np.random.default_rng(20))
    oneway_solve(het_split, 1, grid, s, u, 0.0, 0.5, steps=1, method="expmid")
    want = single_shot_quantize(het_split.g_symbol(1), grid, 0.25, s) @ dft2_matrix(n)
    (A,) = seen
    assert field_rel(A / -0.5, want) <= 1e-13


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


def test_oneway_trunc_keeps_the_top_generator_forms(grid8):
    # trunc = the split order quantizes the whole generator and trunc = 0
    # its top form alone, which is the order-0 split's generator: both
    # marches agree bit for bit
    from anisosplit import expand, split_symbols

    m = presets.transverse_anisotropic()
    sp = split_symbols(expand(m, 1, 0, 2), expand(m, -1, 0, 2))
    sp0 = split_symbols(expand(m, 1, 0, 0), expand(m, -1, 0, 0))
    assert symbol_total(sp0.g_symbol(1)) is sp.g_forms[0][1].lower()
    u = random_smooth_field(grid8, np.random.default_rng(16))

    def march(split, trunc):
        return oneway_solve(split, 1, grid8, 4.0, u, 0.0, 0.3, steps=8, trunc=trunc)[-1][1]

    assert np.array_equal(march(sp, sp.order), march(sp, None))
    assert np.array_equal(march(sp, 0), march(sp0, None))


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


@pytest.mark.parametrize("method", ["rk4", "expmid"])
def test_oneway_records_requested_depths(grid8, hom_split, method):
    rng = np.random.default_rng(17)
    u = random_smooth_field(grid8, rng)
    recs = oneway_solve(
        hom_split, 1, grid8, 1.2, u, 0.0, 0.5, steps=10, method=method, record=[0.3, 0.1]
    )
    assert [r[0] for r in recs] == [0.0, 0.1, 0.3, 0.5]
    assert all(len(r) == 2 and r[1].shape == (8, 8) for r in recs)
    assert field_rel(recs[0][1], u) == 0.0
    with pytest.raises(PropagationError):
        oneway_solve(hom_split, 1, grid8, 1.2, u, 0.0, 0.5, method=method, record=[0.7])


@pytest.mark.parametrize("method", ["rk4", "expmid"])
def test_oneway_blowup_guard(grid8, hom_split, method):
    # the up-going generator has negative real part, so marching it down
    # grows the field like exp(|Re G| x3); the guard must trip
    rng = np.random.default_rng(18)
    u = random_smooth_field(grid8, rng)
    with pytest.raises(PropagationError, match="blew up"):
        oneway_solve(hom_split, -1, grid8, 30.0, u, 0.0, 1.0, steps=8, method=method)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("sign", [1, -1])
def test_expmid_multiplier_matches_dense_exponential(hom_split, monkeypatch, n, sign):
    # a Fourier-multiplier generator steps by its diagonal exponential:
    # the same segment map as expm of the projected kernel, Nyquist modes
    # of the input included, with no kernel built
    import scipy.linalg

    grid = TransverseGrid(n, TAU, TAU)
    s = 1.2 + 0.4j
    rng = np.random.default_rng(19)
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a, b = 0.1, 0.6
    op = grid.operator(hom_split.g_symbol(sign), s)
    assert op.kind == "multiplier"
    K = single_shot_quantize(hom_split.g_symbol(sign), grid, 0.5 * (a + b), s) @ dft2_matrix(n)
    want = scipy.linalg.expm(-(b - a) * K) @ u.ravel()

    def no_kernel(*args):
        raise AssertionError("a multiplier segment built a kernel")

    monkeypatch.setattr(symbols, "_spectral_kernel", no_kernel)
    _, got = oneway_solve(hom_split, sign, grid, s, u, a, b, method="expmid")[-1]
    assert field_rel(got.ravel(), want) <= 1e-13


def test_expmid_overflow_is_typed_error(grid8, hom_split):
    # over 100 depth units the up-going segment exponential overflows
    # inside the exponential itself, before the guard sees the field: it
    # must surface as PropagationError, with no numpy warning on the way
    import warnings

    u = random_smooth_field(grid8, np.random.default_rng(18))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match="overflowed"):
            oneway_solve(hom_split, -1, grid8, 30.0, u, 0.0, 100.0, method="expmid")


def test_expmid_kernel_overflow_is_typed_error(grid8):
    # the same on an x-dependent generator, whose dense expm overflows
    # inside its own products
    import warnings

    from anisosplit import expand, split_symbols

    m = presets.transverse_anisotropic()
    sp = split_symbols(expand(m, 1, 0, 1), expand(m, -1, 0, 1))
    assert grid8.operator(sp.g_symbol(-1), 30.0).kind == "kernel"
    u = random_smooth_field(grid8, np.random.default_rng(18))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match="overflowed"):
            oneway_solve(sp, -1, grid8, 30.0, u, 0.0, 100.0, method="expmid")


def _reference_rk4(rhs, u, a, b, steps):
    # reference: classical RK4 written out for one array, one segment
    h = (b - a) / steps
    x3 = a
    for _ in range(steps):
        k1 = rhs(x3, u)
        k2 = rhs(x3 + h / 2, u - h / 2 * k1)
        k3 = rhs(x3 + h / 2, u - h / 2 * k2)
        k4 = rhs(x3 + h, u - h * k3)
        u = u - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x3 += h
    return u


def test_shared_rk4_is_bit_identical_to_per_solver_loops(grid8, het_split):
    m = het_split.medium
    s = 2.0 + 0.5j
    rng = np.random.default_rng(19)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)

    def systems(x3, f):
        return np.stack(apply_systems_operator(m, grid8, s, x3, f[0], f[1]))

    want = _reference_rk4(systems, np.stack([v3, p]), 0.0, 0.3, 6)
    _, vg, pg = full_solve(m, grid8, s, v3, p, 0.0, 0.3, steps=6, method="rk4")[-1]
    assert np.array_equal(np.stack([vg, pg]), want)

    g = het_split.g_symbol(1)
    u = random_smooth_field(grid8, rng)
    kernels = {}

    def one_way(x3, f):
        if x3 not in kernels:
            kernels[x3] = _spectral_kernel(g, grid8, x3, s)
        fhat = np.where(grid8.nyquist_mask(), np.fft.fft2(f), 0.0)
        return (fhat.reshape(1, -1) @ kernels[x3].T).reshape(f.shape)

    want = _reference_rk4(one_way, u, 0.0, 0.3, 6)
    _, got = oneway_solve(het_split, 1, grid8, s, u, 0.0, 0.3, steps=6, method="rk4")[-1]
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "medium, depths, samples",
    [
        pytest.param(presets.transverse_anisotropic, 1, 10, id="transverse_anisotropic-1"),
        pytest.param(presets.heterogeneous_full, 9, 90, id="heterogeneous_full-9"),
        # six of its ten fields depend on x3
        pytest.param(presets.depth_varying_unit_a33, 9, 6 * 9 + 4, id="depth_varying_unit_a33-9"),
    ],
)
def test_full_solve_samples_each_coefficient_once_per_depth(
    monkeypatch, grid8, medium, depths, samples
):
    # a 4-step rk4 march reads 9 distinct stage depths; each of the ten
    # coefficient fields is sampled once at each, or once in all if it
    # is free of x3
    m = medium()
    rng = np.random.default_rng(29)
    v3 = random_smooth_field(grid8, rng)
    p = random_smooth_field(grid8, rng)
    sample = TransverseGrid.sample
    calls = []

    def counting(self, e, x3, s):
        calls.append(x3)
        return sample(self, e, x3, s)

    monkeypatch.setattr(TransverseGrid, "sample", counting)
    full_solve(m, grid8, 2.0 + 0.5j, v3, p, 0.0, 0.3, steps=4, method="rk4")
    assert len(calls) == samples
    assert len(set(calls)) == depths


def _count_kernel_builds(monkeypatch):
    built = []
    alive = []

    def counting(sym, grid, x3, s):
        k = _spectral_kernel(sym, grid, x3, s)
        built.append(x3)
        alive.append(weakref.ref(k))
        assert sum(r() is not None for r in alive) <= 2
        return k

    monkeypatch.setattr(symbols, "_spectral_kernel", counting)
    return built


def test_depth_varying_rk4_march_keeps_two_kernels(monkeypatch, grid8, het_split):
    # 8 RK4 steps read kernels at 17 distinct depths (start, midpoint and
    # end of each step, the end shared with the next step's start)
    built = _count_kernel_builds(monkeypatch)
    u = random_smooth_field(grid8, np.random.default_rng(23))
    oneway_solve(het_split, 1, grid8, 2.0, u, 0.0, 0.5, steps=8, method="rk4")
    assert len(built) == 17


def test_depth_free_rk4_march_builds_one_kernel(monkeypatch, grid8):
    # a generator free of x3 that depends on both x and xi acts through
    # its kernel, and one kernel serves every depth
    from anisosplit import expand, split_symbols

    m = presets.transverse_anisotropic()
    sp = split_symbols(expand(m, 1, 0, 1), expand(m, -1, 0, 1))
    free = symbol_total(sp.g_symbol(1)).free_vars
    assert VarId.X3 not in free and {VarId.X1, VarId.XI1} <= free
    built = _count_kernel_builds(monkeypatch)
    u = random_smooth_field(grid8, np.random.default_rng(24))
    oneway_solve(sp, 1, grid8, 2.0, u, 0.0, 0.5, steps=8, method="rk4")
    assert len(built) == 1


def _march_counting_multiplier(monkeypatch, grid, split, s, u):
    """An 8-step rk4 march of a split's Fourier-multiplier g+ over
    [0, 0.5]: how often the multiplier is evaluated, the march's result,
    and the same march with the multiplier evaluated afresh at every
    stage."""
    from anisosplit.expr import eval_expr

    total = symbol_total(split.g_symbol(1))
    assert grid.operator(total, s).kind == "multiplier"
    W1g, W2g = grid.xi_mesh()
    keep = grid.nyquist_mask()

    def fresh(x3, f):
        env = {VarId.XI1: W1g, VarId.XI2: W2g, VarId.X3: complex(x3), VarId.S: complex(s)}
        return np.fft.ifft2(eval_expr(total, env) * np.where(keep, np.fft.fft2(f), 0.0))

    want = _reference_rk4(fresh, u, 0.0, 0.5, 8)
    calls = []

    def counting(e, env):
        calls.append(e)
        return eval_expr(e, env)

    monkeypatch.setattr(symbols, "eval_expr", counting)
    _, got = oneway_solve(split, 1, grid, s, u, 0.0, 0.5, steps=8, method="rk4")[-1]
    return len(calls), got, want


def test_depth_free_multiplier_is_evaluated_once_per_march(monkeypatch, grid8, hom_split):
    # a generator free of x and x3 is one Fourier multiplier at every
    # RK4 stage depth: evaluated once, with the same result bit for bit
    assert VarId.X3 not in symbol_total(hom_split.g_symbol(1)).free_vars
    u = random_smooth_field(grid8, np.random.default_rng(25))
    calls, got, want = _march_counting_multiplier(monkeypatch, grid8, hom_split, 2.0 + 0.5j, u)
    assert calls == 1
    assert np.array_equal(got, want)


def test_depth_varying_multiplier_is_evaluated_once_per_depth(monkeypatch, grid8):
    # a medium that varies with x3 only has a g+ free of x that varies
    # with depth: 8 RK4 steps read it at 17 distinct depths, each
    # evaluated once, with the same result bit for bit
    from anisosplit import expand, load_medium, split_symbols

    box = f"0,{presets.TAU!r},0,{presets.TAU!r},0,{presets.TAU!r}"
    alpha = "1.6, 0.1, 0.3, 0.1, 1.5, 0.1, 0.1, 0.2, 1.2"
    m = load_medium({"kappa": "1 + 0.3*sin(x3)", "alpha": alpha, "box": box})
    sp = split_symbols(expand(m, 1, 1, 2), expand(m, -1, 1, 2))
    assert VarId.X3 in symbol_total(sp.g_symbol(1)).free_vars
    u = random_smooth_field(grid8, np.random.default_rng(26))
    calls, got, want = _march_counting_multiplier(monkeypatch, grid8, sp, 2.0 + 0.5j, u)
    assert calls == 17
    assert np.array_equal(got, want)
