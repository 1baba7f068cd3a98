"""The rho-graded normal form (SymbolForm) that ``expand`` runs the collector on."""

import numpy as np
import pytest

from anisosplit import SymbolError, SymbolForm, VarId, eval_expr, expand, schur
from anisosplit import presets
from anisosplit.expr import ZERO, diff, exp_, mul, parse, recip, sqrt_
from anisosplit.oracle import draw_probe_points
from anisosplit.symbols import radicand

from helpers import eval_at, oracle_terms, probe_env, rel_err

ALL_VARS = (VarId.X1, VarId.X2, VarId.X3, VarId.XI1, VarId.XI2, VarId.S)


def _fixed_x_env(m, x, rng, count):
    """Points at one fixed x with random xi (|xi| <= 1.5) and s (Re s > 0)."""
    xi = rng.uniform(-1.5, 1.5, size=(count, 2))
    s = rng.uniform(0.6, 1.5, count) * np.exp(1j * rng.uniform(-1.0, 1.0, count))
    return {
        VarId.X1: x[0],
        VarId.X2: x[1],
        VarId.X3: x[2],
        VarId.XI1: xi[:, 0],
        VarId.XI2: xi[:, 1],
        VarId.S: s,
    }


def _rho_monomial_basis(m, env, keys):
    sd = schur(m)
    xi = (env[VarId.XI1], env[VarId.XI2])
    rho = env[VarId.S] ** 2 * eval_expr(m.kappa, env) + sum(
        eval_expr(sd.Qt[i][j], env) * xi[i] * xi[j] for i in range(2) for j in range(2)
    )
    return np.stack(
        [xi[0] ** a * xi[1] ** b * env[VarId.S] ** c * np.sqrt(rho) ** d for a, b, c, d in keys],
        axis=1,
    )


@pytest.mark.parametrize("k", [0, 1, 2])
def test_terms_are_sums_of_monomials_in_xi_s_and_rho_root(k):
    # The hypothesis behind the form: at fixed x, y_-k of the expression
    # collector is a finite sum of xi1^a xi2^b s^c rho^(d/2). Fit the
    # coefficients at random (xi, s), then check them at fresh (xi, s);
    # dropping one parity of d must not fit.
    m = presets.heterogeneous_full()
    y = oracle_terms(m, 1, 1, 2)[-k]
    low = -4 * k - 3 if k else -1  # lowest rho power the recursion reaches
    top = 4 * k + 4  # highest xi degree it reaches
    keys = [
        (a, b, -k - d - a - b, d)
        for d in (low, low + 1)
        for a in range(top + 1)
        for b in range(top + 1 - a)
    ]
    rng = np.random.default_rng(40 + k)
    for _ in range(2):
        x = rng.uniform(0.0, 2.0 * np.pi, 3)
        fit_env = _fixed_x_env(m, x, rng, 4 * len(keys))
        check_env = _fixed_x_env(m, x, rng, 200)
        basis, fresh = _rho_monomial_basis(m, fit_env, keys), _rho_monomial_basis(m, check_env, keys)
        want = eval_expr(y, check_env)
        coef, *_ = np.linalg.lstsq(basis, eval_expr(y, fit_env), rcond=None)
        assert np.max(np.abs(fresh @ coef - want)) <= 1e-10 * np.max(np.abs(want))
        half = [i for i, key in enumerate(keys) if key[3] == low + (k > 0)]
        coef, *_ = np.linalg.lstsq(basis[:, half], eval_expr(y, fit_env), rcond=None)
        assert np.max(np.abs(fresh[:, half] @ coef - want)) >= 1e-3 * np.max(np.abs(want))


@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "name", ["heterogeneous_full", "transverse_anisotropic", "dual_path_medium"]
)
def test_lowered_terms_match_expression_collector(name, sign, eta):
    m = getattr(presets, name)()
    pts = draw_probe_points(m, 30, np.random.default_rng(3))
    want = oracle_terms(m, sign, eta, 4)
    got = expand(m, sign, eta, 4)
    for d in range(0, -5, -1):
        assert rel_err(eval_at(got.term(d), pts), eval_at(want[d], pts)) <= 1e-12, d


@pytest.mark.parametrize(
    "medium",
    [presets.unit_isotropic, presets.homogeneous_anisotropic,
     lambda: presets.random_homogeneous(np.random.default_rng(11))],
)
def test_homogeneous_corrections_are_exact_zero(medium):
    m = medium()
    for sign in (1, -1):
        for eta in (0, 1):
            exp = expand(m, sign, eta, 6)
            for t, f in zip(exp.terms[1:], exp.forms[1:]):
                assert t.expr is ZERO
                assert not f.terms


@pytest.fixture(scope="module")
def het_forms():
    return expand(presets.heterogeneous_full(), 1, 1, 2).forms


def _values(e, env):
    return np.broadcast_to(np.asarray(eval_expr(e, env)), (len(env[VarId.S]),))


@pytest.mark.parametrize("v", ALL_VARS, ids=lambda v: v.value)
def test_form_derivative_matches_expression_derivative(het_forms, v):
    env = probe_env(draw_probe_points(presets.heterogeneous_full(), 25, np.random.default_rng(4)))
    for f in het_forms:
        got = _values(f.diff(v).lower(), env)
        want = _values(diff(f.lower(), v), env)
        assert rel_err(got, want) <= 1e-11


def test_form_products_and_sums_match_expressions(het_forms):
    env = probe_env(draw_probe_points(presets.heterogeneous_full(), 25, np.random.default_rng(5)))
    y0, y1, y2 = het_forms
    field = parse("1 + 0.3*sin(x1)*cos(x3)")
    cases = [
        (y1 * y2, mul(y1.lower(), y2.lower())),
        (y0 * y0, mul(y0.lower(), y0.lower())),
        (y1 + y2, y1.lower() + y2.lower()),
        (y2 - y0, y2.lower() - y0.lower()),
        (field * y2, mul(field, y2.lower())),
        (2.5 * y1, mul(parse("2.5"), y1.lower())),
    ]
    for form, expr in cases:
        assert rel_err(_values(form.lower(), env), _values(expr, env)) <= 1e-12


def test_lift_round_trips_and_rejects_non_forms():
    m = presets.heterogeneous_full()
    rho = radicand(m)
    env = probe_env(draw_probe_points(m, 10, np.random.default_rng(8)))
    y0 = expand(m, -1, 0, 0).term(0)
    form = SymbolForm.lift(rho, y0)
    assert sorted(form.terms) == [0, 1]
    assert rel_err(_values(form.lower(), env), _values(y0, env)) <= 1e-14
    # rho^(1/2) only under +, -, *, / by one grade and integer powers
    for bad in (exp_(rho.root), sqrt_(rho.root), recip(rho.root + parse("xi1"))):
        with pytest.raises(SymbolError):
            SymbolForm.lift(rho, bad)
