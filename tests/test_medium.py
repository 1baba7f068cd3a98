import numpy as np
import pytest

from anisosplit import (
    MediumError,
    MediumSpec,
    VarId,
    eval_expr,
    is_depth_independent,
    is_homogeneous,
    load_medium,
    parse,
    schur,
    validate,
)
from anisosplit import presets

from helpers import rel_err


def _constant_medium(alpha_rows, kappa="1"):
    sec = {"kappa": kappa, "alpha": ", ".join(str(v) for v in alpha_rows)}
    return load_medium(sec)


def test_load_requires_exactly_one_material_matrix():
    with pytest.raises(MediumError):
        load_medium({"kappa": "1"})
    with pytest.raises(MediumError):
        load_medium(
            {
                "kappa": "1",
                "alpha": "1,0,0,0,1,0,0,0,1",
                "rho": "1,0,0,0,1,0,0,0,1",
            }
        )


def test_load_rejects_wrong_entry_count():
    with pytest.raises(MediumError):
        load_medium({"kappa": "1", "alpha": "1,0,0,0,1,0"})


def test_material_entries_reject_symbol_variables():
    with pytest.raises(MediumError):
        load_medium({"kappa": "1 + s", "alpha": "1,0,0,0,1,0,0,0,1"})
    with pytest.raises(MediumError):
        load_medium({"kappa": "1", "alpha": "xi1,0,0,0,1,0,0,0,1"})


def test_validation_rejects_negative_kappa():
    with pytest.raises(MediumError, match="validation failed"):
        load_medium({"kappa": "-1", "alpha": "1,0,0,0,1,0,0,0,1"})


def test_validation_rejects_indefinite_alpha():
    # sym part has a negative eigenvalue
    with pytest.raises(MediumError, match="validation failed"):
        load_medium({"kappa": "1", "alpha": "1,3,0,3,1,0,0,0,1"})


def test_validation_rejects_nonpositive_alpha33():
    with pytest.raises(MediumError, match="validation failed"):
        load_medium({"kappa": "1", "alpha": "1,0,0,0,1,0,0,0,-2"})


def test_validate_report_on_good_medium():
    m = presets.heterogeneous_full()
    rep = validate(m)
    assert rep.passed
    assert rep.kappa_min > 0
    assert rep.rho_eig_min > 0
    assert "kappa range" in rep.describe()


def test_entry_accessor_is_one_based():
    m = _constant_medium([2, 0.3, 0.4, 0.1, 1.8, 0.2, 0.5, 0.3, 1.5])
    assert eval_expr(m.entry(1, 2), {}) == pytest.approx(0.3)
    assert eval_expr(m.entry(3, 1), {}) == pytest.approx(0.5)
    assert m.alpha33() is m.entry(3, 3)


def test_rho_route_inverts_density():
    rho = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.2], [0.0, 0.2, 1.5]])
    sec = {"kappa": "1", "rho": ", ".join(str(v) for v in rho.ravel())}
    m = load_medium(sec)
    assert m.alpha_from_rho
    got = np.array([[complex(eval_expr(m.alpha[i][j], {})) for j in range(3)] for i in range(3)])
    assert rel_err(got, np.linalg.inv(rho)) <= 1e-12


def test_rho_route_heterogeneous_matches_pointwise_inverse():
    sec = {
        "kappa": "1",
        "rho": "2 + 0.3*sin(x1), 0.1, 0, 0.1, 1.5, 0, 0, 0, 1 + 0.2*cos(x2)",
    }
    m = load_medium(sec)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(0, 1, 3)
        env = {VarId.X1: x[0], VarId.X2: x[1], VarId.X3: x[2]}
        rho = np.array(
            [
                [2 + 0.3 * np.sin(x[0]), 0.1, 0],
                [0.1, 1.5, 0],
                [0, 0, 1 + 0.2 * np.cos(x[1])],
            ]
        )
        got = np.array(
            [[complex(eval_expr(m.alpha[i][j], env)) for j in range(3)] for i in range(3)]
        )
        assert rel_err(got, np.linalg.inv(rho)) <= 1e-10


def test_schur_complement_known_matrix():
    # alpha = [[2,0,1],[0,2,0],[1,0,1]] eliminates to Q = diag(1, 2)
    m = _constant_medium([2, 0, 1, 0, 2, 0, 1, 0, 1])
    sd = schur(m)
    Q = np.array([[complex(eval_expr(sd.Q[i][j], {})) for j in range(2)] for i in range(2)])
    assert rel_err(Q, np.diag([1.0, 2.0])) <= 1e-14


def test_schur_matches_block_elimination_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = np.diag(rng.uniform(1.2, 2.2, 3)) + rng.uniform(-0.25, 0.25, (3, 3))
        m = _constant_medium(list(a.ravel()))
        sd = schur(m)
        got = np.array(
            [[complex(eval_expr(sd.Q[i][j], {})) for j in range(2)] for i in range(2)]
        )
        want = a[:2, :2] - np.outer(a[:2, 2], a[2, :2]) / a[2, 2]
        assert rel_err(got, want) <= 1e-12


def test_symmetrized_schur_form_identity():
    # Qt xi.xi == alpha zeta.zeta with zeta3 = -alpha33^-1 (a_{3mu}+a_{mu3}) xi_mu / 2
    m = presets.heterogeneous_full()
    sd = schur(m)
    rng = np.random.default_rng(17)
    for _ in range(30):
        x = rng.uniform(0, 2 * np.pi, 3)
        xi = rng.uniform(-2, 2, 2)
        env = {VarId.X1: x[0], VarId.X2: x[1], VarId.X3: x[2]}
        a = np.array(
            [[complex(eval_expr(m.alpha[i][j], env)).real for j in range(3)] for i in range(3)]
        )
        qt = np.array(
            [[complex(eval_expr(sd.Qt[i][j], env)).real for j in range(2)] for i in range(2)]
        )
        zeta3 = -0.5 * (a[2, :2] + a[:2, 2]) @ xi / a[2, 2]
        zeta = np.array([xi[0], xi[1], zeta3])
        assert xi @ qt @ xi == pytest.approx(zeta @ a @ zeta, rel=1e-12, abs=1e-12)


def test_symmetrized_schur_positive_for_valid_media():
    m = presets.heterogeneous_full()
    sd = schur(m)
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.uniform(0, 2 * np.pi, 3)
        xi = rng.uniform(-2, 2, 2)
        if abs(xi[0]) + abs(xi[1]) < 1e-3:
            continue
        env = {VarId.X1: x[0], VarId.X2: x[1], VarId.X3: x[2]}
        qt = np.array(
            [[complex(eval_expr(sd.Qt[i][j], env)).real for j in range(2)] for i in range(2)]
        )
        assert xi @ qt @ xi > 0


def test_symmetric_alpha_collapses_qt_to_q():
    # bit-exact equality: the symmetrized entries differ from Q only by
    # exact power-of-two scalings, which IEEE rounding commutes with
    m = presets.up_down_symmetric()
    sd = schur(m)
    rng = np.random.default_rng(29)
    x = rng.uniform(0, 2 * np.pi, (50, 3))
    env = {VarId.X1: x[:, 0], VarId.X2: x[:, 1], VarId.X3: x[:, 2]}
    for i in range(2):
        for j in range(2):
            q = np.broadcast_to(np.asarray(eval_expr(sd.Q[i][j], env)), (50,))
            qt = np.broadcast_to(np.asarray(eval_expr(sd.Qt[i][j], env)), (50,))
            assert float(np.max(np.abs(q - qt))) == 0.0


def test_schur_divergence_entries():
    m = presets.heterogeneous_full()
    sd = schur(m)
    from anisosplit import diff
    from anisosplit.expr import add

    for nu in range(2):
        want = add(diff(sd.Q[0][nu], VarId.X1), diff(sd.Q[1][nu], VarId.X2))
        assert sd.dQ[nu] is want


def test_schur_is_cached_per_medium():
    m = presets.heterogeneous_full()
    assert schur(m) is schur(m)


def test_homogeneity_predicates():
    assert is_homogeneous(presets.homogeneous_anisotropic())
    assert not is_homogeneous(presets.heterogeneous_full())
    assert is_depth_independent(presets.transverse_anisotropic())
    assert not is_depth_independent(presets.heterogeneous_full())


def test_box_parsing_and_default_bounds():
    m = load_medium(
        {
            "kappa": "1",
            "alpha": "1,0,0,0,1,0,0,0,1",
            "box": "0, 1, 0, 2, -1, 1",
        }
    )
    assert m.box == ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))


def test_bound_overrides_enforced():
    with pytest.raises(MediumError, match="validation failed"):
        load_medium(
            {
                "kappa": "1",
                "alpha": "1,0,0,0,1,0,0,0,1",
                "kappa0": "2",
            }
        )


def test_medium_spec_frozen():
    m = presets.unit_isotropic()
    with pytest.raises(AttributeError):
        m.kappa = parse("2")


def test_validation_catches_complex_valued_entry():
    spec = MediumSpec(kappa=parse("1"), alpha=presets.unit_isotropic().alpha)
    bad = MediumSpec(
        kappa=parse("1 + 2i"),
        alpha=spec.alpha,
    )
    rep = validate(bad)
    assert not rep.passed
