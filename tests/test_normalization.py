import numpy as np
import pytest

from anisosplit import (
    NormalizationError,
    NormalizationSpec,
    PolyhomSymbol,
    apply_normalization,
    apply_normalization_symbols,
    compose,
    expand,
    leading_term,
    parse,
    split_symbols,
    symbol_inverse,
)
from anisosplit import presets
from anisosplit.expr import ZERO
from anisosplit.oracle import draw_probe_points

from helpers import eval_at, rel_err


def test_symbol_inverse_of_constant_symbol():
    y = PolyhomSymbol({0: parse("2")}, floor=0)
    z = symbol_inverse(y, 2)
    assert z.term(0) is parse("0.5")
    for d in (-1, -2):
        assert z.term(d) is ZERO


def test_symbol_inverse_pointwise_for_x_independent():
    # no x-dependence: composition is plain multiplication, so the
    # parametrix is the literal reciprocal of the top term
    y = PolyhomSymbol({1: parse("s + 1i*xi1")}, floor=1)
    z = symbol_inverse(y, 2)
    pts = [(0.1, 0.2, 0.3, 0.9, -0.4, 1.2 + 0.5j)]
    assert rel_err(
        eval_at(z.term(-1), pts), 1.0 / eval_at(y.term(1), pts)
    ) <= 1e-14
    assert z.term(-2) is ZERO


def test_symbol_inverse_cancels_composition(het_expansion_pair):
    exp = het_expansion_pair[0]
    y = exp.series()
    order = 2
    z = symbol_inverse(y, order)
    c = compose(z, y, floor=-order)
    pts = draw_probe_points(exp.medium, 20, np.random.default_rng(1))
    assert rel_err(eval_at(c.term(0), pts), np.ones(20)) <= 1e-12
    for d in (-1, -2):
        vals = np.abs(eval_at(c.term(d), pts))
        assert np.max(vals) <= 1e-10, f"degree {d}"


def test_symbol_inverse_top_degree(het_expansion_pair):
    y = het_expansion_pair[0].series()
    z = symbol_inverse(y, 2)
    assert z.top_degree == -y.top_degree


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
    n_plus = split.ell[0][0]
    n_minus = split.ell[0][1]
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
