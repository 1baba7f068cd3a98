import numpy as np
import pytest

from anisosplit import (
    NormalizationError,
    NormalizationSpec,
    SymbolForm,
    apply_normalization,
    apply_normalization_symbols,
    const,
    expand,
    leading_term,
    parse,
    split_symbols,
    symbol_inverse,
    symbol_total,
)
from anisosplit import presets
from anisosplit.expr import ZERO
from anisosplit.oracle import draw_probe_points
from anisosplit.symbols import _compose, radicand

from helpers import eval_at, lowered, oracle_normalization, rel_err


def _forms(m, pairs):
    rho = radicand(m)
    return {d: SymbolForm.lift(rho, parse(t)) for d, t in pairs.items()}


def test_symbol_inverse_of_constant_symbol(het_medium):
    z = symbol_inverse(_forms(het_medium, {0: "2"}), 2)
    assert list(z) == [0]
    assert z[0].lower() is parse("0.5")


def test_symbol_inverse_pointwise_for_x_independent(het_medium):
    # no x-dependence: composition is plain multiplication, so the
    # parametrix is the literal reciprocal of the top term
    y = _forms(het_medium, {1: "s + 1i*xi1"})
    z = symbol_inverse(y, 2)
    pts = [(0.1, 0.2, 0.3, 0.9, -0.4, 1.2 + 0.5j)]
    assert rel_err(eval_at(z[-1].lower(), pts), 1.0 / eval_at(y[1].lower(), pts)) <= 1e-14
    assert list(z) == [-1]


def test_symbol_inverse_of_zero_symbol_raises(het_medium):
    with pytest.raises(NormalizationError):
        symbol_inverse({0: SymbolForm(radicand(het_medium), {})}, 2)


def test_symbol_inverse_cancels_composition(het_expansion_pair):
    exp = het_expansion_pair[0]
    y = exp.forms
    order = 2
    z = symbol_inverse(y, order)
    pts = draw_probe_points(exp.medium, 20, np.random.default_rng(1))
    for c in (_compose(z, y, -order), _compose(y, z, -order)):
        assert rel_err(eval_at(c[0].lower(), pts), np.ones(20)) <= 1e-12
        for d in (-1, -2):
            vals = np.abs(eval_at(c[d].lower(), pts))
            assert np.max(vals) <= 1e-10, f"degree {d}"


def test_symbol_inverse_top_degree(het_expansion_pair):
    y = het_expansion_pair[0].forms
    z = symbol_inverse(y, 2)
    assert max(z) == -max(y)


def test_spec_validation():
    with pytest.raises(NormalizationError):
        NormalizationSpec(kind="weird")
    with pytest.raises(NormalizationError):
        NormalizationSpec(kind="constant", m=0)
    with pytest.raises(NormalizationError):
        NormalizationSpec(kind="constant", mprime=0)


@pytest.mark.parametrize("eta", [0, 1])
def test_constant_gauge_fixes_generators(eta, het_medium, het_split):
    # scalars commute and have zero depth derivative, so G~ = G
    if eta == 1:
        split = het_split
    else:
        split = split_symbols(expand(het_medium, 1, eta, 2), expand(het_medium, -1, eta, 2))
    spec = NormalizationSpec(kind="constant", m=2 + 1j, mprime=0.5 - 0.25j)
    out = apply_normalization(split, spec)
    pts = draw_probe_points(split.medium, 15, np.random.default_rng(2))
    for before, after in zip(split.g_forms, out.g_forms):
        before, after = lowered(before), lowered(after)
        for d in set(before) | set(after):
            va = eval_at(before.get(d, ZERO), pts)
            vb = eval_at(after.get(d, ZERO), pts)
            assert np.max(np.abs(vb - va)) <= 1e-10 * np.max(1 + np.abs(va))


def test_constant_gauge_scales_composition_columns(het_split):
    m, mp = 2 + 1j, 0.5 - 0.25j
    out = apply_normalization(het_split, NormalizationSpec(kind="constant", m=m, mprime=mp))
    pts = draw_probe_points(het_split.medium, 12, np.random.default_rng(3))
    for i in range(2):
        for j, c in ((0, m), (1, mp)):
            got = lowered(out.ell_forms[i][j])
            for d, f in het_split.ell_forms[i][j].items():
                want = eval_at(f.lower(), pts) / c
                assert rel_err(eval_at(got.get(d, ZERO), pts), want) <= 1e-12


def test_impedance_gauge_on_homogeneous_medium(hom_split):
    # L~ = [[1, 1], [1/y0+, 1/y0-]] exactly in constant coefficients
    out = apply_normalization(hom_split, NormalizationSpec(kind="impedance"))
    m = hom_split.medium
    pts = draw_probe_points(m, 15, np.random.default_rng(4))
    assert rel_err(eval_at(symbol_total(out.ell_forms[0][0]), pts), np.ones(15)) <= 1e-12
    assert rel_err(eval_at(symbol_total(out.ell_forms[0][1]), pts), np.ones(15)) <= 1e-12
    yp = eval_at(leading_term(m, 1), pts)
    ym = eval_at(leading_term(m, -1), pts)
    assert rel_err(eval_at(symbol_total(out.ell_forms[1][0]), pts), 1 / yp) <= 1e-12
    assert rel_err(eval_at(symbol_total(out.ell_forms[1][1]), pts), 1 / ym) <= 1e-12


def test_impedance_gauge_generators_homogeneous(hom_split):
    # scalar symbols of a constant medium commute: G~ = G again
    out = apply_normalization(hom_split, NormalizationSpec(kind="impedance"))
    pts = draw_probe_points(hom_split.medium, 12, np.random.default_rng(5))
    got = eval_at(symbol_total(out.g_symbol(1)), pts)
    want = eval_at(symbol_total(hom_split.g_symbol(1)), pts)
    assert rel_err(got, want) <= 1e-12


def test_gauge_round_trip(het_medium):
    # conjugate by N, then by its parametrix: retained degrees return
    split = split_symbols(expand(het_medium, 1, 0, 2), expand(het_medium, -1, 0, 2))
    n_plus, n_minus = split.ell_forms[0]
    fwd = apply_normalization_symbols(split, n_plus, n_minus)
    back = apply_normalization_symbols(
        fwd, symbol_inverse(n_plus, split.order), symbol_inverse(n_minus, split.order)
    )
    pts = draw_probe_points(het_medium, 12, np.random.default_rng(6))
    for orig, got in zip(split.g_forms, back.g_forms):
        got = lowered(got)
        for d in sorted(orig, reverse=True):
            va = eval_at(orig[d].lower(), pts)
            vb = eval_at(got.get(d, ZERO), pts)
            assert np.max(np.abs(vb - va)) <= 1e-9 * np.max(1 + np.abs(va)), f"degree {d}"


def test_normalized_split_keeps_shape(het_split):
    out = apply_normalization(het_split, NormalizationSpec(kind="impedance"))
    assert out.order == het_split.order
    assert out.eta == het_split.eta
    assert out.medium is het_split.medium
    assert all(min(g) >= 1 - het_split.order for g in out.g_forms)


@pytest.mark.parametrize("kind", ["impedance", "constant"])
@pytest.mark.parametrize("eta", [0, 1])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_forms_gauge_matches_expression_oracle(het_medium, order, eta, kind):
    # every transformed term against the gauge built on expressions; the
    # error is relative to the entry's largest term, since the lower terms
    # of the impedance gauge's ell row 0 are rounding-level values
    split = split_symbols(expand(het_medium, 1, eta, order), expand(het_medium, -1, eta, order))
    if kind == "impedance":
        spec = NormalizationSpec(kind="impedance")
        diag = [lowered(n) for n in split.ell_forms[0]]
    else:
        spec = NormalizationSpec(kind="constant", m=2 + 1j, mprime=0.5 - 0.25j)
        diag = [{0: const(c)} for c in (spec.m, spec.mprime)]
    out = apply_normalization(split, spec)
    g_plus, g_minus, ell, ell_floor = oracle_normalization(split, *diag)
    assert out.ell_floor == ell_floor
    pts = draw_probe_points(het_medium, 12, np.random.default_rng(7))
    pairs = [(out.g_forms[0], g_plus), (out.g_forms[1], g_minus)]
    pairs += [(out.ell_forms[i][j], ell[i][j]) for i in range(2) for j in range(2)]
    for got, want in pairs:
        assert sorted(got) == sorted(want)
        scale = max(np.max(np.abs(eval_at(e, pts))) for e in want.values())
        for d, e in want.items():
            gap = np.max(np.abs(eval_at(got[d].lower(), pts) - eval_at(e, pts)))
            assert gap <= 1e-12 * scale, (d, gap / scale)
