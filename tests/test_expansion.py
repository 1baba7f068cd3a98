import gc
from dataclasses import fields, replace

import numpy as np
import pytest

from anisosplit import (
    AdmittanceExpansion,
    ExpansionError,
    Expr,
    NormalizationSpec,
    SplitSymbols,
    SymbolForm,
    VarId,
    apply_normalization,
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
from anisosplit import expansion as expansion_module
from anisosplit import expr as expr_module
from anisosplit import presets
from anisosplit import symbols as symbols_module
from anisosplit.expansion import _check_term
from anisosplit.expr import S, ZERO, diff, mul, node_count, parse, recip, sub
from anisosplit.oracle import draw_probe_points
from anisosplit.symbols import radicand

from helpers import (
    closed_form_step,
    closed_form_values,
    depth_derivative_leading,
    eval_at,
    field_rel,
    homogeneity_check,
    probe_env,
    rel_err,
    symbolic_order_claim,
)


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
    got = complex(eval_expr(g, env))
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
    got = eval_at(g, pts) ** 2
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
        yp = eval_expr(leading_term(m, 1), env)
        ym = eval_expr(leading_term(m, -1), env)
        assert rel_err(yp, roots.y_plus) <= 1e-12
        assert rel_err(ym, roots.y_minus) <= 1e-12


def test_leading_duality(het_medium):
    # y0+ + y0- = -i xi_mu (a_{3mu} - a_{mu3}) / s and y0+ - y0- = 2 gamma / s
    pts = draw_probe_points(het_medium, 30, np.random.default_rng(3))
    env = probe_env(pts)
    yp = eval_at(leading_term(het_medium, 1), pts)
    ym = eval_at(leading_term(het_medium, -1), pts)
    a = het_medium.entry
    drift = (
        eval_at(sub(a(3, 1), a(1, 3)), pts) * env[VarId.XI1]
        + eval_at(sub(a(3, 2), a(2, 3)), pts) * env[VarId.XI2]
    )
    s = env[VarId.S]
    assert rel_err(yp + ym, -1j * drift / s) <= 1e-12
    g = eval_at(gamma1(het_medium), pts)
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
    gp = s * eval_at(leading_term(het_medium, 1), pts) / a33 + a22
    gm = s * eval_at(leading_term(het_medium, -1), pts) / a33 + a22
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
    assert rel_err(eval_at(leading_term(m, 1), pts), want) <= 1e-12
    assert rel_err(eval_at(leading_term(m, -1), pts), -want) <= 1e-12


@pytest.mark.parametrize("eta", [0, 1])
def test_per_degree_balance(het_medium, eta, het_expansion_pair):
    # each graded component of the symbol equation cancels once the next
    # term is in place; evaluate every balanced degree at probe points
    order = 2
    if eta == 1:
        exp = het_expansion_pair[0]
    else:
        exp = expand(het_medium, 1, eta, order)
    pts = draw_probe_points(het_medium, 20, np.random.default_rng(6))
    env = probe_env(pts)
    for d in range(1, 1 - order, -1):
        bal = riccati_degree_part(het_medium, eta, exp.forms, d)
        vals = np.broadcast_to(np.asarray(eval_expr(bal.lower(), env)), (len(pts),))
        assert np.max(np.abs(vals)) <= 1e-8, f"degree {d} balance"


def test_degree_part_above_the_top_is_the_zero_form(het_medium, het_expansion_pair):
    bal = riccati_degree_part(het_medium, 1, het_expansion_pair[0].forms, 2)
    assert isinstance(bal, SymbolForm) and not bal.terms


def test_homogeneous_corrections_vanish(hom_medium):
    exp = expand(hom_medium, 1, 0, 4)
    for d in exp.forms:
        if d < 0:
            assert exp.term(d) is ZERO


def test_collector_equals_closed_form():
    m = presets.dual_path_medium()
    pts = draw_probe_points(m, 40, np.random.default_rng(7))
    env = probe_env(pts)
    for sign in (1, -1):
        terms = {0: SymbolForm.lift(radicand(m), leading_term(m, sign))}
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
    exp = expand(m, 1, 1, 6)
    terms = {d: exp.term(d) for d in exp.forms}
    for n in range(6):
        known = {d: terms[d] for d in range(0, -n - 1, -1)}
        got = closed_form_values(m, 1, 1, known, n, pts)
        assert rel_err(got, eval_at(terms[-n - 1], pts)) <= 1e-8, f"step {n}"
        if n <= 2:
            symbolic = eval_at(closed_form_step(m, 1, 1, known, n), pts)
            assert rel_err(got, symbolic) <= 1e-12, f"step {n}"


CONJUGATION_PRESETS = (
    "heterogeneous_full",
    "dual_path_medium",
    "transverse_anisotropic",
    "up_down_symmetric",
    "depth_varying_unit_a33",
    "isotropic_heterogeneous",
    "homogeneous_anisotropic",
)


@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("name", CONJUGATION_PRESETS)
def test_minus_branch_is_the_flipped_plus_branch(name, eta):
    # the collector's own - run, from the lifted - leading term, is the
    # oracle for expand's - branch, which flips the + collector's forms
    m = getattr(presets, name)()
    pts = draw_probe_points(m, 12, np.random.default_rng(17))
    own = {0: SymbolForm.lift(radicand(m), leading_term(m, -1))}
    for n in range(4):
        own[-n - 1] = collector_step(m, eta, -1, own, n)
    got = expand(m, -1, eta, 4)
    assert got.term(0) is leading_term(m, -1)
    for d in range(0, -5, -1):
        want = eval_at(own[d].lower(), pts)
        assert field_rel(eval_at(got.term(d), pts), want) <= 1e-14, d


def test_minus_expand_runs_only_the_plus_collector(het_medium, monkeypatch):
    signs = []

    def spy(m, eta, sign, y_terms, n):
        signs.append(sign)
        return collector_step(m, eta, sign, y_terms, n)

    monkeypatch.setattr(expansion_module, "collector_step", spy)
    expand(het_medium, -1, 1, 3)
    expand(het_medium, -1, 0, 2)
    assert signs == [1] * 5


def test_split_shares_the_plus_dag():
    # the - branch and the split add next to nothing to the intern
    # table once the + expansion is built (two collector runs doubled it)
    m = presets.heterogeneous_full()
    gc.collect()
    start = len(expr_module._intern)
    plus = expand(m, 1, 1, 4)
    gc.collect()
    plus_only = len(expr_module._intern) - start
    split = split_symbols(plus, expand(m, -1, 1, 4))
    gc.collect()
    both = len(expr_module._intern) - start
    assert split.order == 4
    assert both <= 1.05 * plus_only, (both, plus_only)


def test_eta_shifts_first_correction(het_medium):
    # y_{-1}(eta=1) - y_{-1}(eta=0) = sign * a33/(2 gamma) * d3 y0
    pts = draw_probe_points(het_medium, 25, np.random.default_rng(8))
    for sign in (1, -1):
        e0 = expand(het_medium, sign, 0, 1)
        e1 = expand(het_medium, sign, 1, 1)
        got = eval_at(e1.term(-1), pts) - eval_at(e0.term(-1), pts)
        corr = mul(
            mul(het_medium.alpha33(), recip(mul(2, gamma1(het_medium)))),
            diff(leading_term(het_medium, sign), VarId.X3),
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
        exact = diff(leading_term(m, sign), VarId.X3)
        hand = depth_derivative_leading(m, sign)
        assert hand.degree == 0
        assert rel_err(eval_at(hand, pts), eval_at(exact, pts)) <= 1e-9


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


def test_node_cap_raises_at_the_exact_size(het_medium):
    # the first term over the cap is named with its exact node count,
    # and a cap equal to a term's size admits it
    y3 = expand(het_medium, 1, 1, 3).term(-3)
    size = node_count(y3)
    expand(het_medium, 1, 1, 3, node_cap=size)
    with pytest.raises(ExpansionError, match=f"degree -3 has {size} nodes \\(cap {size - 1}\\)"):
        expand(het_medium, 1, 1, 3, node_cap=size - 1)
    y1 = expand(het_medium, 1, 1, 1).term(-1)
    with pytest.raises(ExpansionError, match=f"degree -1 has {node_count(y1)} nodes \\(cap 50\\)"):
        expand(het_medium, 1, 1, 3, node_cap=50)


def test_node_cap_walks_no_term_while_the_intern_table_is_within_it(het_medium, monkeypatch):
    # every live node is interned, so a table no larger than the cap
    # bounds every term, and no term is counted
    calls = []

    def spy(e):
        calls.append(e)
        return node_count(e)

    monkeypatch.setattr(expansion_module, "node_count", spy)
    cap = len(expr_module._intern) + 100_000
    exp = expand(het_medium, 1, 1, 3, node_cap=cap)
    assert len(expr_module._intern) <= cap
    assert calls == []
    # a cap below the table size counts each new term exactly
    expand(het_medium, 1, 1, 3, node_cap=len(expr_module._intern) - 1)
    assert calls == [exp.term(-1), exp.term(-2), exp.term(-3)]


def test_expansion_series_and_truncation(het_expansion_pair):
    exp = het_expansion_pair[0]
    full = exp.series()
    assert list(full) == [0, -1, -2]
    assert all(full[d] is exp.forms[d] for d in full)
    assert list(exp.series(1)) == [0, -1]
    assert list(exp.series(0)) == [0]
    for bad in (5, -1):
        with pytest.raises(ExpansionError):
            exp.series(bad)


def test_forms_are_the_one_stored_representation():
    # expressions are views of the stored forms, lowered once: a lifted
    # form lowers to its own expression, and every term, generator and
    # ell entry is its form's lowering
    m = presets.heterogeneous_full()
    y0 = leading_term(m, 1)
    assert SymbolForm.lift(radicand(m), y0).lower() is y0
    plus, minus = expand(m, 1, 1, 3), expand(m, -1, 1, 3)
    assert sorted(plus.forms) == [-3, -2, -1, 0]
    # an expansion stores its forms and no expression view of them
    assert {f.name for f in fields(AdmittanceExpansion)} == {"medium", "sign", "eta", "order", "forms"}
    for d, f in plus.forms.items():
        assert plus.term(d) is f.lower()
    doubled = replace(plus, forms={**plus.forms, -3: 2 * plus.forms[-3]})
    assert all(doubled.term(d) is plus.term(d) for d in (0, -1, -2))
    assert doubled.term(-3) is doubled.forms[-3].lower() is not plus.term(-3)
    pts = draw_probe_points(m, 5, np.random.default_rng(24))
    assert rel_err(eval_at(doubled.term(-3), pts), 2 * eval_at(plus.term(-3), pts)) <= 1e-12
    split = split_symbols(plus, minus)
    gauges = [NormalizationSpec(kind="impedance"), NormalizationSpec(kind="constant", m=2, mprime=0.5j)]
    # a split stores forms and the ell floor, and no expression
    names = {f.name for f in fields(SplitSymbols)}
    assert names == {"medium", "eta", "order", "g_forms", "ell_forms", "ell_floor"}
    for sp in [split] + [apply_normalization(split, g) for g in gauges]:
        assert sp.g_symbol(1) is sp.g_forms[0] and sp.g_symbol(-1) is sp.g_forms[1]
        for name in names - {"medium"}:
            assert not isinstance(getattr(sp, name), Expr)
        for g in sp.g_forms:
            assert min(g) >= 1 - sp.order
            assert all(isinstance(f, SymbolForm) and f.terms for f in g.values())
        for e in (*sp.ell_forms[0], *sp.ell_forms[1]):
            assert min(e) >= sp.ell_floor
            assert all(isinstance(f, SymbolForm) and f.terms for f in e.values())
    assert split.ell_floor == -3
    assert split.ell_forms[0][0][0].lower() is y0


def test_split_symbols_structure(het_split):
    sp = het_split
    # row 1 of the composition matrix is identically one
    assert sp.ell_forms[1][0][0].lower() is parse("1")
    assert sp.ell_forms[1][1][0].lower() is parse("1")
    # column entries start from the admittances
    pts = draw_probe_points(sp.medium, 10, np.random.default_rng(11))
    assert rel_err(
        eval_at(sp.ell_forms[0][0][0].lower(), pts),
        eval_at(leading_term(sp.medium, 1), pts),
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
    got = eval_at(sp.g_forms[0][1].lower(), pts)
    want = env[VarId.S] / a33 * eval_at(leading_term(sp.medium, 1), pts) + a22
    assert rel_err(got, want) <= 1e-12
    # the order claim's p = ell o g+ has top degree 1 and respects the
    # truncation floor
    p, _, _ = symbolic_order_claim(sp, env)
    assert max(p) <= 1
    assert min(p) >= 1 - sp.order


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
    exp = het_expansion_pair[0]
    for d in exp.forms:
        assert exp.term(d).degree == d
        assert homogeneity_check(exp.term(d), d, trials=3).passed


NAMED_PRESETS = (
    presets.unit_isotropic,
    presets.homogeneous_anisotropic,
    presets.heterogeneous_full,
    presets.dual_path_medium,
    presets.depth_varying_unit_a33,
    presets.transverse_anisotropic,
    presets.isotropic_heterogeneous,
    presets.up_down_symmetric,
)


@pytest.mark.parametrize("preset", NAMED_PRESETS, ids=lambda p: p.__name__)
def test_numeric_oracle_passes_exactly_where_the_structural_degree_matches(preset):
    # each term against its declared degree and one below it: the
    # scaling test passes exactly where _check_term accepts the term
    m = preset()
    for sign in (1, -1):
        for eta in (0, 1):
            exp = expand(m, sign, eta, 4)
            for d in exp.forms:
                e = exp.term(d)
                for claim in (d, d - 1):
                    rep = homogeneity_check(e, claim, trials=4, tol=1e-7, box=m.box)
                    assert rep.passed == (e is ZERO or e.degree == claim), (sign, eta, d, claim)


def test_check_term_rejects_planted_faults(het_expansion_pair):
    y2 = het_expansion_pair[0].term(-2)
    cap = 1_500_000
    _check_term(y2, -2, cap, True)
    for e, declared in ((y2 + S * y2, -2), (parse("s + 1"), 1), (y2, -1), (y2, -3)):
        with pytest.raises(ExpansionError, match="structural degree"):
            _check_term(e, declared, cap, True)
        _check_term(e, declared, cap, False)  # check_terms=False skips it
    for declared in (0, 1, -3, -6):
        _check_term(ZERO, declared, cap, True)
    with pytest.raises(ExpansionError, match="nodes"):
        _check_term(y2, -2, 10, False)


def test_expand_evaluates_nothing(monkeypatch):
    # the degree check is a comparison: with evaluation disabled a fresh
    # heterogeneous medium still expands, every term checked
    m = presets.random_medium(np.random.default_rng(26))

    def no_eval(*args, **kwargs):
        raise AssertionError("expand evaluated a DAG")

    monkeypatch.setattr(expr_module, "_run", no_eval)
    monkeypatch.setattr(symbols_module, "_run", no_eval)
    exp = expand(m, 1, 1, 3)
    assert [exp.term(d).degree for d in (0, -1, -2, -3)] == [0, -1, -2, -3]
