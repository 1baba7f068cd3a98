import numpy as np
import pytest

from anisosplit import (
    ExpansionError,
    SymbolForm,
    VarId,
    collector_step,
    eval_expr,
    expand,
    gamma1,
    leading_term,
    quad_oracle,
    riccati_degree_part,
    schur,
    split_symbols,
)
from anisosplit import presets
from anisosplit.expr import ZERO, diff, mul, parse, recip, sub
from anisosplit.oracle import depth_derivative_leading, draw_probe_points
from anisosplit.symbols import radicand

from helpers import closed_form_step, closed_form_values, eval_at, probe_env, rel_err


def test_gamma_known_value():
    # unit isotropic medium: gamma = sqrt(s^2 + |xi|^2)
    m = presets.unit_isotropic()
    g = gamma1(m)
    assert g.degree == 1
    env = {
        VarId.X1: 0.0,
        VarId.X2: 0.0,
        VarId.X3: 0.0,
        VarId.XI1: 0.8,
        VarId.XI2: -0.6,
        VarId.S: 1.4,
    }
    got = complex(eval_expr(g.expr, env))
    assert got == pytest.approx(np.sqrt(2.96), rel=1e-15)
    assert got == pytest.approx(1.7204650534085253, rel=1e-15)


def test_gamma_general_form(het_medium):
    # gamma^2 == alpha33 (s^2 kappa + Qt xi.xi) pointwise
    g = gamma1(het_medium)
    sd = schur(het_medium)
    pts = draw_probe_points(het_medium, 25, np.random.default_rng(1))
    env = probe_env(pts)
    a33 = eval_at(het_medium.alpha33(), pts)
    kap = eval_at(het_medium.kappa, pts)
    s = env[VarId.S]
    xi1, xi2 = env[VarId.XI1], env[VarId.XI2]
    qt = (
        eval_at(sd.Qt[0][0], pts) * xi1 * xi1
        + (eval_at(sd.Qt[0][1], pts) + eval_at(sd.Qt[1][0], pts)) * xi1 * xi2
        + eval_at(sd.Qt[1][1], pts) * xi2 * xi2
    )
    got = eval_at(g.expr, pts) ** 2
    assert rel_err(got, a33 * (s * s * kap + qt)) <= 1e-12


def test_gamma_cached_per_medium(het_medium):
    assert gamma1(het_medium) is gamma1(het_medium)


def test_leading_terms_solve_scalar_quadratic():
    rng = np.random.default_rng(2025)
    for _ in range(6):
        m = presets.random_homogeneous(rng)
        xi = rng.uniform(-1.5, 1.5, size=(20, 2))
        s = complex(rng.uniform(0.7, 1.4), rng.uniform(-0.8, 0.8))
        roots = quad_oracle(m, xi, s)
        env = {
            VarId.X1: 0.0,
            VarId.X2: 0.0,
            VarId.X3: 0.0,
            VarId.XI1: xi[:, 0],
            VarId.XI2: xi[:, 1],
            VarId.S: s,
        }
        yp = eval_expr(leading_term(m, 1).expr, env)
        ym = eval_expr(leading_term(m, -1).expr, env)
        assert rel_err(yp, roots.y_plus) <= 1e-12
        assert rel_err(ym, roots.y_minus) <= 1e-12


def test_leading_duality(het_medium):
    # y0+ + y0- = -i xi_mu (a_{3mu} - a_{mu3}) / s and y0+ - y0- = 2 gamma / s
    pts = draw_probe_points(het_medium, 30, np.random.default_rng(3))
    env = probe_env(pts)
    yp = eval_at(leading_term(het_medium, 1).expr, pts)
    ym = eval_at(leading_term(het_medium, -1).expr, pts)
    a = het_medium.entry
    drift = (
        eval_at(sub(a(3, 1), a(1, 3)), pts) * env[VarId.XI1]
        + eval_at(sub(a(3, 2), a(2, 3)), pts) * env[VarId.XI2]
    )
    s = env[VarId.S]
    assert rel_err(yp + ym, -1j * drift / s) <= 1e-12
    g = eval_at(gamma1(het_medium).expr, pts)
    assert rel_err(yp - ym, 2 * g / s) <= 1e-12


def test_leading_branch_signs(het_medium):
    # the would-be one-way generator s y0 / a33 + a22_1 has Re > 0 on the
    # plus branch and Re < 0 on the minus branch
    pts = draw_probe_points(het_medium, 30, np.random.default_rng(4))
    env = probe_env(pts)
    a33 = eval_at(het_medium.alpha33(), pts)
    a = het_medium.entry
    a22 = (
        1j
        * (
            eval_at(a(3, 1), pts) * env[VarId.XI1]
            + eval_at(a(3, 2), pts) * env[VarId.XI2]
        )
        / a33
    )
    s = env[VarId.S]
    gp = s * eval_at(leading_term(het_medium, 1).expr, pts) / a33 + a22
    gm = s * eval_at(leading_term(het_medium, -1).expr, pts) / a33 + a22
    assert np.all(gp.real > 0)
    assert np.all(gm.real < 0)


def test_isotropic_leading_reduction():
    # alpha = a(x) I: y0 = +- sqrt(a33 (s^2 kappa + Q xi.xi)) / s with no drift
    m = presets.isotropic_heterogeneous()
    pts = draw_probe_points(m, 25, np.random.default_rng(5))
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
    assert rel_err(eval_at(leading_term(m, 1).expr, pts), want) <= 1e-12
    assert rel_err(eval_at(leading_term(m, -1).expr, pts), -want) <= 1e-12


@pytest.mark.parametrize("eta", [0, 1])
def test_per_degree_balance(het_medium, eta, het_expansion_pair):
    # each graded component of the symbol equation cancels once the next
    # term is in place; evaluate every balanced degree at probe points
    order = 2
    if eta == 1:
        exp = het_expansion_pair[0]
    else:
        exp = expand(het_medium, 1, eta, order)
    terms = {t.degree: f for t, f in zip(exp.terms, exp.forms)}
    pts = draw_probe_points(het_medium, 20, np.random.default_rng(6))
    env = probe_env(pts)
    for d in range(1, 1 - order, -1):
        bal = riccati_degree_part(het_medium, eta, terms, d)
        vals = np.broadcast_to(np.asarray(eval_expr(bal.lower(), env)), (len(pts),))
        assert np.max(np.abs(vals)) <= 1e-8, f"degree {d} balance"


def test_degree_part_above_the_top_is_the_zero_form(het_medium, het_expansion_pair):
    exp = het_expansion_pair[0]
    terms = {t.degree: f for t, f in zip(exp.terms, exp.forms)}
    bal = riccati_degree_part(het_medium, 1, terms, 2)
    assert isinstance(bal, SymbolForm) and not bal.terms


def test_homogeneous_corrections_vanish(hom_medium):
    exp = expand(hom_medium, 1, 0, 4)
    for t in exp.terms:
        if t.degree < 0:
            assert t.expr is ZERO


def test_collector_equals_closed_form():
    m = presets.dual_path_medium()
    pts = draw_probe_points(m, 40, np.random.default_rng(7))
    env = probe_env(pts)
    for sign in (1, -1):
        terms = {0: SymbolForm.lift(radicand(m), leading_term(m, sign).expr)}
        for n in range(0, 3):
            a_step = collector_step(m, 1, sign, terms, n)
            b_step = closed_form_step(m, 1, sign, {d: f.lower() for d, f in terms.items()}, n)
            va = np.broadcast_to(np.asarray(eval_expr(a_step.lower(), env)), (len(pts),))
            vb = np.broadcast_to(np.asarray(eval_expr(b_step, env)), (len(pts),))
            scale = np.maximum(np.abs(va), 1e-30)
            assert np.max(np.abs(va - vb) / scale) <= 1e-8, f"sign {sign} step {n}"
            terms[-n - 1] = a_step


def test_collector_equals_closed_form_to_order_six():
    # the collector's terms against the closed-form recursion through
    # y_-6; the closed form takes its derivatives from Taylor jets (the
    # symbolic one needs millions of nodes past order 4), and agrees with
    # the symbolic closed form where both are cheap
    m = presets.dual_path_medium()
    pts = draw_probe_points(m, 12, np.random.default_rng(7))
    exp = expand(m, 1, 1, 6, check_terms=False)
    terms = exp.term_map()
    for n in range(6):
        known = {d: terms[d] for d in range(0, -n - 1, -1)}
        got = closed_form_values(m, 1, 1, known, n, pts)
        assert rel_err(got, eval_at(terms[-n - 1], pts)) <= 1e-8, f"step {n}"
        if n <= 2:
            symbolic = eval_at(closed_form_step(m, 1, 1, known, n), pts)
            assert rel_err(got, symbolic) <= 1e-12, f"step {n}"


def test_eta_shifts_first_correction(het_medium):
    # y_{-1}(eta=1) - y_{-1}(eta=0) = sign * a33/(2 gamma) * d3 y0
    pts = draw_probe_points(het_medium, 25, np.random.default_rng(8))
    for sign in (1, -1):
        e0 = expand(het_medium, sign, 0, 1)
        e1 = expand(het_medium, sign, 1, 1)
        got = eval_at(e1.term(-1), pts) - eval_at(e0.term(-1), pts)
        corr = mul(
            mul(het_medium.alpha33(), recip(mul(2, gamma1(het_medium).expr))),
            diff(leading_term(het_medium, sign).expr, VarId.X3),
        )
        want = sign * eval_at(corr, pts)
        assert rel_err(got, want) <= 1e-10


def test_depth_free_medium_eta_irrelevant():
    m = presets.transverse_anisotropic()
    e0 = expand(m, 1, 0, 2)
    e1 = expand(m, 1, 1, 2)
    pts = draw_probe_points(m, 15, np.random.default_rng(9))
    for d in (0, -1, -2):
        assert rel_err(eval_at(e1.term(d), pts), eval_at(e0.term(d), pts)) <= 1e-12


def test_depth_derivative_of_leading_term():
    # with alpha33 constant the closed depth-derivative formula is exact
    m = presets.depth_varying_unit_a33()
    pts = draw_probe_points(m, 25, np.random.default_rng(10))
    for sign in (1, -1):
        exact = diff(leading_term(m, sign).expr, VarId.X3)
        hand = depth_derivative_leading(m, sign)
        assert hand.degree == 0
        assert rel_err(eval_at(hand.expr, pts), eval_at(exact, pts)) <= 1e-9


def test_expand_parameter_validation(hom_medium):
    with pytest.raises(ExpansionError):
        expand(hom_medium, 0, 0, 1)
    with pytest.raises(ExpansionError):
        expand(hom_medium, 1, 2, 1)
    with pytest.raises(ExpansionError):
        expand(hom_medium, 1, 0, -1)
    with pytest.raises(ExpansionError):
        expand(hom_medium, 1, 0, 99)


def test_expand_node_cap(het_medium):
    with pytest.raises(ExpansionError, match="node"):
        expand(het_medium, 1, 1, 3, node_cap=50)


def test_expansion_series_and_truncation(het_expansion_pair):
    exp = het_expansion_pair[0]
    full = exp.series()
    assert full.top_degree == 0
    assert full.low_degree == -2
    t1 = exp.series(1)
    assert t1.low_degree == -1
    assert t1.term(-2) is ZERO
    assert set(exp.term_map(0)) == {0}
    with pytest.raises(ExpansionError):
        exp.series(5)


def test_split_symbols_structure(het_split):
    sp = het_split
    # row 1 of the composition matrix is identically one
    assert sp.ell[1][0].term(0) is parse("1")
    assert sp.ell[1][1].term(0) is parse("1")
    # column entries start from the admittances
    pts = draw_probe_points(sp.medium, 10, np.random.default_rng(11))
    assert rel_err(
        eval_at(sp.ell[0][0].term(0), pts),
        eval_at(leading_term(sp.medium, 1).expr, pts),
    ) <= 1e-12
    # generator relation g_d = s a33^-1 y_{d-1} (+ a22 at degree 1)
    a33 = eval_at(sp.medium.alpha33(), pts)
    env = probe_env(pts)
    a = sp.medium.entry
    a22 = (
        1j
        * (eval_at(a(3, 1), pts) * env[VarId.XI1] + eval_at(a(3, 2), pts) * env[VarId.XI2])
        / a33
    )
    got = eval_at(sp.g_plus.term(1), pts)
    want = env[VarId.S] / a33 * eval_at(leading_term(sp.medium, 1).expr, pts) + a22
    assert rel_err(got, want) <= 1e-12
    # p has top degree 1 and respects the truncation floor
    assert sp.p[0][0].top_degree <= 1
    assert sp.p[0][0].low_degree == 1 - sp.order


def test_split_symbols_builds_p_and_d3_ell_on_first_access(het_expansion_pair):
    from anisosplit.symbols import _d3_symbol, compose

    plus, minus = het_expansion_pair
    sp = split_symbols(plus, minus)
    assert "p" not in vars(sp) and "d3_ell" not in vars(sp)
    # composed from g+- themselves, as when built eagerly
    want = compose(sp.ell[0][1], sp.g_minus, 1 - sp.order)
    assert sp.p[0][1].terms.keys() == want.terms.keys()
    assert all(sp.p[0][1].terms[d] is e for d, e in want.terms.items())
    assert sp.p is sp.p
    assert sp.d3_ell[0][0].terms == _d3_symbol(sp.ell[0][0]).terms


def test_split_symbols_rejects_mismatched_pair(het_medium):
    plus = expand(het_medium, 1, 0, 1)
    minus_wrong_eta = expand(het_medium, -1, 1, 1)
    with pytest.raises(ExpansionError):
        split_symbols(plus, minus_wrong_eta)
    minus_wrong_order = expand(het_medium, -1, 0, 2)
    with pytest.raises(ExpansionError):
        split_symbols(plus, minus_wrong_order)
    with pytest.raises(ExpansionError):
        split_symbols(plus, plus)


def test_every_term_is_homogeneous_of_its_degree(het_expansion_pair):
    from anisosplit import homogeneity_check

    for t in het_expansion_pair[0].terms:
        rep = homogeneity_check(t, trials=3)
        assert rep.passed
