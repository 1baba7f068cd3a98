"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"CRITERION n PASS/FAIL" line with the measured quantities; assertions
carry the same numbers so a red run is self-describing.
"""

import time

import numpy as np

from anisosplit import (
    NormalizationSpec,
    SymbolForm,
    TransverseGrid,
    VarId,
    apply_normalization,
    collector_step,
    decompose_homogeneous,
    eval_expr,
    expand,
    full_solve,
    grid_riccati_oracle,
    leading_term,
    oneway_solve,
    operator_distance,
    order_claim_check,
    quad_oracle,
    recompose,
    riccati_residual,
    schur,
    split_symbols,
    symbol_inverse,
    symbol_total,
)
from anisosplit import presets
from anisosplit.expr import ZERO, diff, mul, parse
from anisosplit.oracle import DEFAULT_LAMBDAS, draw_probe_points, fit_loglog
from anisosplit.symbols import radicand

from helpers import (
    closed_form_step,
    depth_derivative_leading,
    eval_at,
    lowered,
    oracle_x_derivative,
    oracle_xi_derivative,
    probe_env,
    rel_err,
)

TAU = 2 * np.pi


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_homogeneous_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_root = 0.0
    worst_higher = 0.0
    for _ in range(20):
        m = presets.random_homogeneous(rng)
        xi = np.stack(
            [rng.uniform(-1.5, 1.5, 100), rng.uniform(-1.5, 1.5, 100)], axis=-1
        )
        s = rng.uniform(0.7, 1.4, 100) * np.exp(1j * rng.uniform(-1.1, 1.1, 100))
        roots = quad_oracle(m, xi, s)
        env = {
            VarId.X1: 0.0,
            VarId.X2: 0.0,
            VarId.X3: 0.0,
            VarId.XI1: xi[:, 0],
            VarId.XI2: xi[:, 1],
            VarId.S: s,
        }
        for sign, want in ((1, roots.y_plus), (-1, roots.y_minus)):
            got = eval_expr(leading_term(m, sign), env)
            worst_root = max(worst_root, rel_err(got, want))
            exp = expand(m, sign, 0, 4)
            for d in (-1, -2, -3, -4):
                term = exp.term(d)
                if term is ZERO:
                    continue
                vals = np.abs(np.asarray(eval_expr(term, env)))
                worst_higher = max(worst_higher, float(np.max(vals)))
    dt = time.perf_counter() - t0
    ok = worst_root <= 1e-12 and worst_higher <= 1e-12 and dt < 10.0
    _verdict(
        1,
        ok,
        f"leading vs quadratic roots {worst_root:.3e} (<=1e-12), "
        f"higher terms {worst_higher:.3e} (<=1e-12), {dt:.2f}s (<10s)",
    )


def test_criterion_02_residual_order():
    t0 = time.perf_counter()
    m = presets.heterogeneous_full()
    pts = draw_probe_points(m, 6, np.random.default_rng(202))
    details = []
    ok = True
    for eta in (0, 1):
        at64 = []
        for order in (1, 2, 3):
            rep = riccati_residual(
                expand(m, 1, eta, order), points=pts, lambdas=DEFAULT_LAMBDAS
            )
            slope_ok = abs(rep.slope + order) <= 0.3
            ok = ok and slope_ok
            at64.append(rep.rms[list(DEFAULT_LAMBDAS).index(64.0)])
            details.append(f"eta={eta} N={order} slope {rep.slope:+.3f}")
        ok = ok and at64[0] > at64[1] > at64[2]
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _verdict(2, ok, "; ".join(details) + f"; lam=64 strictly decreasing; {dt:.1f}s (<10s)")


def test_criterion_03_dual_path_agreement():
    t0 = time.perf_counter()
    m = presets.dual_path_medium()
    pts = draw_probe_points(m, 200, np.random.default_rng(5))
    env = probe_env(pts)
    worst = 0.0
    for sign in (1, -1):
        terms = {0: SymbolForm.lift(radicand(m), leading_term(m, sign))}
        for n in range(4):
            a_step = collector_step(m, 1, sign, terms, n)
            b_step = closed_form_step(m, 1, sign, {d: f.lower() for d, f in terms.items()}, n)
            va = np.broadcast_to(np.asarray(eval_expr(a_step.lower(), env)), (len(pts),))
            vb = np.broadcast_to(np.asarray(eval_expr(b_step, env)), (len(pts),))
            scale = np.maximum(np.abs(va), 1e-30)
            worst = max(worst, float(np.max(np.abs(va - vb) / scale)))
            terms[-n - 1] = a_step
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 120.0
    _verdict(
        3,
        ok,
        f"collector vs closed form, orders to 4, both signs: {worst:.3e} "
        f"(<=1e-8), {dt:.1f}s (<2min)",
    )


def test_criterion_04_symmetrized_schur_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    min_quad = np.inf
    for _ in range(20):
        m = presets.random_medium(rng)
        x = np.stack([rng.uniform(lo, hi, 1000) for lo, hi in m.box], axis=-1)
        xi = rng.uniform(-2.0, 2.0, size=(1000, 2))
        xi[np.hypot(xi[:, 0], xi[:, 1]) < 1e-2] += 0.5
        env = {VarId.X1: x[:, 0], VarId.X2: x[:, 1], VarId.X3: x[:, 2]}

        def ev(e):
            return np.broadcast_to(np.asarray(eval_expr(e, env)), (1000,)).real

        sd = schur(m)
        qt = (
            ev(sd.Qt[0][0]) * xi[:, 0] ** 2
            + (ev(sd.Qt[0][1]) + ev(sd.Qt[1][0])) * xi[:, 0] * xi[:, 1]
            + ev(sd.Qt[1][1]) * xi[:, 1] ** 2
        )
        a = [[ev(m.alpha[i][j]) for j in range(3)] for i in range(3)]
        zeta3 = -0.5 * ((a[2][0] + a[0][2]) * xi[:, 0] + (a[2][1] + a[1][2]) * xi[:, 1]) / a[2][2]
        zeta = [xi[:, 0], xi[:, 1], zeta3]
        azz = sum(a[i][j] * zeta[i] * zeta[j] for i in range(3) for j in range(3))
        worst = max(worst, float(np.max(np.abs(qt - azz) / np.maximum(np.abs(azz), 1e-30))))
        min_quad = min(min_quad, float(np.min(qt)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and min_quad > 0 and dt < 5.0
    _verdict(
        4,
        ok,
        f"Qt xi.xi vs alpha zeta.zeta {worst:.3e} (<=1e-12), min form value "
        f"{min_quad:.3e} (>0), {dt:.2f}s (<5s)",
    )


def test_criterion_05_depth_order_claim():
    t0 = time.perf_counter()
    m = presets.depth_varying_unit_a33()
    split = split_symbols(expand(m, 1, 1, 2), expand(m, -1, 1, 2))
    pts = draw_probe_points(m, 6, np.random.default_rng(505))
    rep = order_claim_check(split, points=pts, lambdas=DEFAULT_LAMBDAS)
    slopes_ok = abs(rep.p_slope - 1.0) <= 0.2 and abs(rep.d3_slope - 0.0) <= 0.2

    worst_dzy = 0.0
    for sign in (1, -1):
        exact = diff(leading_term(m, sign), VarId.X3)
        hand = depth_derivative_leading(m, sign)
        worst_dzy = max(worst_dzy, rel_err(eval_at(hand, pts), eval_at(exact, pts)))
    dt = time.perf_counter() - t0
    ok = slopes_ok and worst_dzy <= 1e-9 and dt < 60.0
    _verdict(
        5,
        ok,
        f"p slope {rep.p_slope:+.3f} (1 +- 0.2), d3 ell slope {rep.d3_slope:+.3f} "
        f"(0 +- 0.2), leading depth derivative vs closed form {worst_dzy:.3e} "
        f"(<=1e-9), {dt:.1f}s (<1min)",
    )


def test_criterion_06_grid_oracle_convergence():
    t0 = time.perf_counter()
    m = presets.transverse_anisotropic()
    grid = TransverseGrid(16, TAU, TAU)
    s = 40.0
    res = grid_riccati_oracle(m, grid, s)
    exp = expand(m, 1, 0, 2)
    dists = [operator_distance(exp.series(k), res.y_plus, grid, s) for k in (0, 1, 2)]
    monotone = dists[0] >= dists[1] >= dists[2]
    resid_ok = max(res.riccati_rel_plus, res.riccati_rel_minus) <= 1e-8
    dt = time.perf_counter() - t0
    ok = monotone and resid_ok and dt < 300.0
    _verdict(
        6,
        ok,
        f"distances {dists[0]:.3e} >= {dists[1]:.3e} >= {dists[2]:.3e}, oracle "
        f"riccati residual {max(res.riccati_rel_plus, res.riccati_rel_minus):.3e} "
        f"(<=1e-8), {dt:.1f}s (<5min)",
    )


def test_criterion_07_isotropic_and_symmetric_reduction():
    m = presets.isotropic_heterogeneous()
    pts = draw_probe_points(m, 50, np.random.default_rng(707))
    env = probe_env(pts)
    a33 = eval_at(m.alpha33(), pts)
    kap = eval_at(m.kappa, pts)
    sd = schur(m)
    xi1, xi2 = env[VarId.XI1], env[VarId.XI2]
    qxx = (
        eval_at(sd.Q[0][0], pts) * xi1 * xi1
        + (eval_at(sd.Q[0][1], pts) + eval_at(sd.Q[1][0], pts)) * xi1 * xi2
        + eval_at(sd.Q[1][1], pts) * xi2 * xi2
    )
    s = env[VarId.S]
    want = np.sqrt(a33 * (s * s * kap + qxx)) / s
    worst = max(
        rel_err(eval_at(leading_term(m, 1), pts), want),
        rel_err(eval_at(leading_term(m, -1), pts), -want),
    )

    msym = presets.up_down_symmetric()
    sd2 = schur(msym)
    rng = np.random.default_rng(708)
    x = rng.uniform(0, TAU, (200, 3))
    env2 = {VarId.X1: x[:, 0], VarId.X2: x[:, 1], VarId.X3: x[:, 2]}
    qt_q_gap = 0.0
    for i in range(2):
        for j in range(2):
            q = np.broadcast_to(np.asarray(eval_expr(sd2.Q[i][j], env2)), (200,))
            qt = np.broadcast_to(np.asarray(eval_expr(sd2.Qt[i][j], env2)), (200,))
            qt_q_gap = max(qt_q_gap, float(np.max(np.abs(q - qt))))
    ok = worst <= 1e-12 and qt_q_gap == 0.0
    _verdict(
        7,
        ok,
        f"isotropic leading reduction {worst:.3e} (<=1e-12), symmetric-alpha "
        f"Qt vs Q max gap {qt_q_gap:.1e} (exact)",
    )


def _composition_residual_rms(z_total, y_total, points, lambdas, beta_cap):
    """Numeric composition series of z against y minus one on a scaling ray."""
    minus_i = parse("0-1i")
    acc = ZERO
    fact = [1.0, 1.0, 2.0, 6.0, 24.0]
    for b1 in range(beta_cap + 1):
        for b2 in range(beta_cap + 1 - b1):
            zd = oracle_xi_derivative(z_total, (b1, b2))
            yd = oracle_x_derivative(y_total, (b1, b2))
            if zd is ZERO or yd is ZERO:
                continue
            coeff = parse(f"{1.0 / (fact[b1] * fact[b2])!r}")
            phase = minus_i
            term = mul(mul(coeff, zd), yd)
            for _ in range(b1 + b2):
                term = mul(phase, term)
            acc = acc + term
    resid = acc - parse("1")
    pts = np.asarray(points, dtype=complex)
    lam = np.asarray(lambdas, dtype=float)
    env = {
        VarId.X1: pts[:, 0].real[:, None],
        VarId.X2: pts[:, 1].real[:, None],
        VarId.X3: pts[:, 2].real[:, None],
        VarId.XI1: pts[:, 3].real[:, None] * lam[None, :],
        VarId.XI2: pts[:, 4].real[:, None] * lam[None, :],
        VarId.S: pts[:, 5][:, None] * lam[None, :],
    }
    vals = np.asarray(eval_expr(resid, env))
    return np.sqrt(np.mean(np.abs(vals) ** 2, axis=0))


def test_criterion_08_parametrix_and_impedance():
    m = presets.heterogeneous_full()
    exp = expand(m, 1, 1, 2)
    z = symbol_inverse(exp.forms, 2)
    z_total = sum((f.lower() for f in z.values()), ZERO)
    pts = draw_probe_points(m, 6, np.random.default_rng(808))
    rms = _composition_residual_rms(z_total, symbol_total(exp.series()), pts, DEFAULT_LAMBDAS, 4)
    slope, _, _ = fit_loglog(DEFAULT_LAMBDAS, rms)
    slope_ok = abs(slope + 3.0) <= 0.3

    worst_imp = 0.0
    rng = np.random.default_rng(809)
    for hm in (presets.homogeneous_anisotropic(), presets.random_homogeneous(rng)):
        sp = split_symbols(expand(hm, 1, 0, 2), expand(hm, -1, 0, 2))
        out = apply_normalization(sp, NormalizationSpec(kind="impedance"))
        hpts = draw_probe_points(hm, 25, rng)
        ones = np.ones(25)
        yp = eval_at(leading_term(hm, 1), hpts)
        ym = eval_at(leading_term(hm, -1), hpts)
        worst_imp = max(
            worst_imp,
            rel_err(eval_at(symbol_total(out.ell_forms[0][0]), hpts), ones),
            rel_err(eval_at(symbol_total(out.ell_forms[0][1]), hpts), ones),
            rel_err(eval_at(symbol_total(out.ell_forms[1][0]), hpts), 1 / yp),
            rel_err(eval_at(symbol_total(out.ell_forms[1][1]), hpts), 1 / ym),
        )
    ok = slope_ok and worst_imp <= 1e-12
    _verdict(
        8,
        ok,
        f"parametrix residual slope {slope:+.3f} (-3 +- 0.3), impedance "
        f"composition matrix vs displayed form {worst_imp:.3e} (<=1e-12)",
    )


def test_criterion_09_propagation_exactness():
    t0 = time.perf_counter()
    m = presets.homogeneous_anisotropic()
    grid = TransverseGrid(8, TAU, TAU)  # 49 active Fourier modes
    s = 1.2 + 0.4j
    rng = np.random.default_rng(909)
    from anisosplit import random_smooth_field

    v3 = random_smooth_field(grid, rng)
    p = random_smooth_field(grid, rng)

    u_plus, u_minus = decompose_homogeneous(m, v3, p, grid, s)
    sp = split_symbols(expand(m, 1, 0, 0), expand(m, -1, 0, 0))
    v3b, pb = recompose(sp, u_plus, u_minus, grid, s)
    round_trip = max(
        float(np.linalg.norm(v3b - v3) / np.linalg.norm(v3)),
        float(np.linalg.norm(pb - p) / np.linalg.norm(p)),
    )

    a, b = 0.0, 0.7
    _, vf, pf = full_solve(m, grid, s, v3, p, a, b, method="exact")[-1]
    down_full, _ = decompose_homogeneous(m, vf, pf, grid, s)
    _, down_one = oneway_solve(sp, 1, grid, s, u_plus, a, b, method="expmid")[-1]
    oneway_err = float(np.linalg.norm(down_one - down_full) / np.linalg.norm(down_full))
    dt = time.perf_counter() - t0
    ok = oneway_err <= 1e-8 and round_trip <= 1e-10 and dt < 30.0
    _verdict(
        9,
        ok,
        f"one-way vs projected full solution {oneway_err:.3e} (<=1e-8), "
        f"decompose/recompose round trip {round_trip:.3e} (<=1e-10), {dt:.1f}s (<30s)",
    )


def test_criterion_10_constant_gauge_invariance():
    m = presets.heterogeneous_full()
    spec = NormalizationSpec(kind="constant", m=2 + 1j, mprime=0.5 - 0.25j)
    pts = draw_probe_points(m, 20, np.random.default_rng(1010))
    worst = 0.0
    for eta in (0, 1):
        sp = split_symbols(expand(m, 1, eta, 2), expand(m, -1, eta, 2))
        out = apply_normalization(sp, spec)
        for before, after in zip(sp.g_forms, out.g_forms):
            before, after = lowered(before), lowered(after)
            for d in set(before) | set(after):
                va = eval_at(before.get(d, ZERO), pts)
                vb = eval_at(after.get(d, ZERO), pts)
                scale = float(np.max(np.abs(va))) or 1.0
                worst = max(worst, float(np.max(np.abs(vb - va)) / scale))
    # the split representation carries the generators as the two diagonal
    # slots; off-diagonal entries are identically absent by construction
    ok = worst <= 1e-10
    _verdict(
        10,
        ok,
        f"constant diag(m, m') gauge: generator change {worst:.3e} (<=1e-10) "
        f"for eta in {{0,1}}, off-diagonal structurally zero",
    )
