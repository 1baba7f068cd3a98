import numpy as np
import pytest

from anisosplit import (
    NormalizationError,
    NormalizationSpec,
    PolyhomSymbol,
    SymbolForm,
    apply_normalization,
    apply_normalization_symbols,
    const,
    expand,
    leading_term,
    parse,
    split_symbols,
    symbol_inverse,
)
from anisosplit import presets
from anisosplit.oracle import draw_probe_points
from anisosplit.symbols import _compose, radicand

from helpers import eval_at, oracle_normalization, rel_err


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
    for before, after in ((split.g_plus, out.g_plus), (split.g_minus, out.g_minus)):
        for d in set(before.terms) | set(after.terms):
            va = eval_at(before.term(d), pts)
            vb = eval_at(after.term(d), pts)
            assert np.max(np.abs(vb - va)) <= 1e-10 * np.max(1 + np.abs(va))


def test_constant_gauge_scales_composition_columns(het_split):
    m, mp = 2 + 1j, 0.5 - 0.25j
    out = apply_normalization(het_split, NormalizationSpec(kind="constant", m=m, mprime=mp))
    pts = draw_probe_points(het_split.medium, 12, np.random.default_rng(3))
    for i in range(2):
        for d, e in het_split.ell[i][0].terms.items():
            assert rel_err(eval_at(out.ell[i][0].term(d), pts), eval_at(e, pts) / m) <= 1e-12
        for d, e in het_split.ell[i][1].terms.items():
            assert rel_err(eval_at(out.ell[i][1].term(d), pts), eval_at(e, pts) / mp) <= 1e-12


def test_impedance_gauge_on_homogeneous_medium(hom_split):
    # L~ = [[1, 1], [1/y0+, 1/y0-]] exactly in constant coefficients
    out = apply_normalization(hom_split, NormalizationSpec(kind="impedance"))
    m = hom_split.medium
    pts = draw_probe_points(m, 15, np.random.default_rng(4))
    assert rel_err(eval_at(out.ell[0][0].total(), pts), np.ones(15)) <= 1e-12
    assert rel_err(eval_at(out.ell[0][1].total(), pts), np.ones(15)) <= 1e-12
    yp = eval_at(leading_term(m, 1).expr, pts)
    ym = eval_at(leading_term(m, -1).expr, pts)
    assert rel_err(eval_at(out.ell[1][0].total(), pts), 1 / yp) <= 1e-12
    assert rel_err(eval_at(out.ell[1][1].total(), pts), 1 / ym) <= 1e-12


def test_impedance_gauge_generators_homogeneous(hom_split):
    # scalar symbols of a constant medium commute: G~ = G again
    out = apply_normalization(hom_split, NormalizationSpec(kind="impedance"))
    pts = draw_probe_points(hom_split.medium, 12, np.random.default_rng(5))
    got = eval_at(out.g_plus.total(), pts)
    want = eval_at(hom_split.g_plus.total(), pts)
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
    for orig, got in ((split.g_plus, back.g_plus), (split.g_minus, back.g_minus)):
        for d in sorted(orig.terms, reverse=True):
            va = eval_at(orig.term(d), pts)
            vb = eval_at(got.term(d), pts)
            assert np.max(np.abs(vb - va)) <= 1e-9 * np.max(1 + np.abs(va)), f"degree {d}"


def test_normalized_split_keeps_shape(het_split):
    out = apply_normalization(het_split, NormalizationSpec(kind="impedance"))
    assert out.order == het_split.order
    assert out.eta == het_split.eta
    assert out.medium is het_split.medium
    assert out.g_plus.low_degree == 1 - het_split.order


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
        diag = split.ell[0]
    else:
        spec = NormalizationSpec(kind="constant", m=2 + 1j, mprime=0.5 - 0.25j)
        diag = [PolyhomSymbol({0: const(c)}, floor=-order) for c in (spec.m, spec.mprime)]
    out = apply_normalization(split, spec)
    g_plus, g_minus, ell = oracle_normalization(split, *diag)
    pts = draw_probe_points(het_medium, 12, np.random.default_rng(7))
    pairs = [(out.g_plus, g_plus), (out.g_minus, g_minus)]
    pairs += [(out.ell[i][j], ell[i][j]) for i in range(2) for j in range(2)]
    for got, want in pairs:
        assert sorted(got.terms) == sorted(want.terms)
        assert got.low_degree == want.low_degree
        scale = max(np.max(np.abs(eval_at(e, pts))) for e in want.terms.values())
        for d, e in want.terms.items():
            gap = np.max(np.abs(eval_at(got.terms[d], pts) - eval_at(e, pts)))
            assert gap <= 1e-12 * scale, (d, gap / scale)
