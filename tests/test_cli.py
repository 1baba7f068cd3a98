import configparser
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

import anisosplit
from anisosplit.cli import run
from helpers import probe_env, term_blocks

HOM = """
[medium]
kappa = 0.8
alpha = 2, 0.3, 0.4, 0.1, 1.8, 0.2, 0.5, 0.3, 1.5
box = 0, 6.283185307179586, 0, 6.283185307179586, 0, 6.283185307179586

[grid]
n = 8

[expansion]
order = 1
eta = 0
sign = both
points = 3

[oracle]
s = 1.2+0.4i
count = 20

[run]
seed = 11
"""

HET = """
[medium]
kappa = 1 + 0.2*sin(x1)*cos(x3)
alpha = 2 + 0.2*sin(x1)*cos(x2), 0.3, 0.4 + 0.1*sin(x3), 0.1, 1.8, 0.2, 0.5, 0.3, 1.5 + 0.2*sin(x3)
box = 0, 6.283185307179586, 0, 6.283185307179586, 0, 6.283185307179586

[expansion]
order = 1
eta = 1
sign = +
points = 3

[residual]
orders = 1
points = 3
lambdas = 4,16,64

[run]
seed = 3
"""


def _cfg(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _outputs(out_dir):
    man = json.loads((out_dir / "manifest.json").read_text())
    return man, {f["name"]: f["sha256"] for f in man["outputs"]}


def test_medium_check_success(tmp_path, capsys):
    code = run(["medium-check", _cfg(tmp_path, HOM), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "kappa range" in capsys.readouterr().out
    man, outs = _outputs(tmp_path / "o")
    assert "medium_report.txt" in outs
    assert man["status"] == "ok"


def test_medium_check_validation_failure(tmp_path):
    bad = "[medium]\nkappa = -1\nalpha = 1,0,0,0,1,0,0,0,1\n"
    code = run(["medium-check", _cfg(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == 1
    report = (tmp_path / "o" / "medium_report.txt").read_text()
    assert "FAIL" in report


def test_missing_config_is_usage_error(tmp_path):
    assert run(["expand", str(tmp_path / "nope.ini")]) == 2


def test_malformed_config_is_usage_error(tmp_path):
    assert run(["expand", _cfg(tmp_path, "not an ini file [")]) == 2


def test_missing_medium_section_is_usage_error(tmp_path):
    assert run(["expand", _cfg(tmp_path, "[grid]\nn = 8\n")]) == 2


def test_unknown_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", _cfg(tmp_path, HOM)])
    assert exc.value.code == 2


def test_expand_outputs_and_formatting(tmp_path):
    out = tmp_path / "o"
    assert run(["expand", _cfg(tmp_path, HOM), "--out", str(out)]) == 0
    man, outs = _outputs(out)
    assert {"expansion_plus.csv", "expansion_minus.csv", "terms_plus.txt", "terms_minus.txt"} <= set(outs)
    lines = (out / "expansion_plus.csv").read_text().splitlines()
    assert lines[0].startswith("degree,pt0_re,pt0_im")
    # 17 significant digits, scientific
    cell = lines[1].split(",")[1]
    assert re.fullmatch(r"-?\d\.\d{17}e[+-]\d+", cell)


def _het_probe_env(points):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(HET)
    m = anisosplit.load_medium(cp["medium"])
    return probe_env(anisosplit.draw_probe_points(m, points, np.random.default_rng(3)))


def test_expand_term_files_parse_to_the_written_values(tmp_path):
    out = tmp_path / "o"
    text = HET.replace("order = 1\n", "order = 2\n").replace("sign = +\n", "sign = both\n")
    assert run(["expand", _cfg(tmp_path, text), "--out", str(out)]) == 0
    env = _het_probe_env(3)
    for tag in ("plus", "minus"):
        rows = (out / f"expansion_{tag}.csv").read_text().splitlines()[1:]
        written = {int(r.split(",")[0]): [float(c) for c in r.split(",")[1:]] for r in rows}
        blocks = term_blocks((out / f"terms_{tag}.txt").read_text())
        assert [d for _, d, _ in blocks] == [0, -1, -2]
        assert all(block.startswith("_1 = ") for _, _, block in blocks)  # shared nodes bound
        for _, d, block in blocks:
            v = np.broadcast_to(anisosplit.eval_expr(anisosplit.parse(block), env), (3,))
            assert [float(f"{x:.17e}") for p in zip(v.real, v.imag) for x in p] == written[d]


def test_normalize_gauge_terms_parse_to_the_written_values(tmp_path):
    out = tmp_path / "o"
    text = HET.replace("order = 1\n", "order = 2\n")
    assert run(["normalize", "--kind", "impedance", _cfg(tmp_path, text), "--out", str(out)]) == 0
    env = _het_probe_env(4)
    rows = (out / "normalize.csv").read_text().splitlines()[1:]
    rms = {(r.split(",")[0], int(r.split(",")[1])): float(r.split(",")[2]) for r in rows}
    blocks = term_blocks((out / "gauge_terms.txt").read_text())
    sections = {sec for sec, _, _ in blocks}
    assert {"g_plus", "g_minus", "ell[0][0]", "ell[1][1]"} <= sections
    checked = 0
    for sec, d, block in blocks:
        v = np.broadcast_to(anisosplit.eval_expr(anisosplit.parse(block), env), (4,))
        assert np.all(np.isfinite(v))
        if sec in ("g_plus", "g_minus"):
            assert float(f"{float(np.sqrt(np.mean(np.abs(v) ** 2))):.17e}") == rms[(sec, d)]
            checked += 1
    assert checked >= 4


def test_expand_order_four_writes_small_term_files(tmp_path):
    out = tmp_path / "o"
    text = HET.replace("order = 1\n", "order = 4\n")
    assert run(["expand", _cfg(tmp_path, text), "--out", str(out)]) == 0
    terms = out / "terms_plus.txt"
    assert terms.stat().st_size < 2**20  # the tree text was hundreds of MB
    _, d, block = term_blocks(terms.read_text())[-1]
    assert d == -4
    row = (out / "expansion_plus.csv").read_text().splitlines()[-1].split(",")
    v = np.broadcast_to(anisosplit.eval_expr(anisosplit.parse(block), _het_probe_env(3)), (3,))
    assert [float(f"{x:.17e}") for p in zip(v.real, v.imag) for x in p] == [float(c) for c in row[1:]]


def test_manifest_hashes_every_output(tmp_path):
    out = tmp_path / "o"
    run(["expand", _cfg(tmp_path, HOM), "--out", str(out)])
    man, outs = _outputs(out)
    files = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(outs) == files
    for name, digest in outs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert man["seed"] == 11
    assert "numpy" in man["versions"]


def test_manifest_version_matches_package_metadata(tmp_path):
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
    assert anisosplit.__version__ == declared
    out = tmp_path / "o"
    run(["expand", _cfg(tmp_path, HOM), "--out", str(out)])
    man, _ = _outputs(out)
    assert man["versions"]["anisosplit"] == declared
    assert man["versions"]["scipy"] == scipy.__version__


def test_identical_config_and_seed_bit_identical(tmp_path):
    cfg = _cfg(tmp_path, HET)
    run(["residual", cfg, "--out", str(tmp_path / "a")])
    run(["residual", cfg, "--out", str(tmp_path / "b")])
    fa = (tmp_path / "a" / "residual.csv").read_bytes()
    fb = (tmp_path / "b" / "residual.csv").read_bytes()
    assert fa == fb


def test_seed_override_changes_probes(tmp_path):
    cfg = _cfg(tmp_path, HOM)
    run(["expand", cfg, "--out", str(tmp_path / "a")])
    run(["expand", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
    fa = (tmp_path / "a" / "expansion_plus.csv").read_bytes()
    fb = (tmp_path / "b" / "expansion_plus.csv").read_bytes()
    assert fa != fb
    _, outs_b = _outputs(tmp_path / "b")
    man_b, _ = _outputs(tmp_path / "b")
    assert man_b["seed"] == 99


def test_residual_csv_layout(tmp_path):
    out = tmp_path / "o"
    assert run(["residual", _cfg(tmp_path, HET), "--out", str(out)]) == 0
    lines = (out / "residual.csv").read_text().splitlines()
    assert lines[0] == "order,lambda,residual,slope,sign"
    assert len(lines) == 1 + 3  # one sign, one order, three lambdas


def test_residual_through_order_three(tmp_path):
    out = tmp_path / "o"
    cfg = _cfg(tmp_path, HET.replace("orders = 1\n", "orders = 1, 2, 3\n"))
    assert run(["residual", cfg, "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "residual.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    for r in rows:
        assert abs(float(r[3]) + int(r[0])) <= 0.3


def test_residual_checks_every_configured_sign(tmp_path, monkeypatch):
    import dataclasses

    from anisosplit import oracle

    real = oracle.riccati_residual

    def up_going_fails(exp, **kw):
        rep = real(exp, **kw)
        return dataclasses.replace(rep, slope=5.0) if exp.sign < 0 else rep

    cfg = _cfg(tmp_path, HET.replace("sign = +\n", "sign = both\n"))
    assert run(["residual", cfg, "--out", str(tmp_path / "a")]) == 0
    rows = [l.split(",") for l in (tmp_path / "a" / "residual.csv").read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["1"] * 3 + ["-1"] * 3
    monkeypatch.setattr(oracle, "riccati_residual", up_going_fails)
    assert run(["residual", cfg, "--out", str(tmp_path / "b")]) == 1


def test_residual_example_config_passes(tmp_path, capsys):
    example = Path(__file__).resolve().parents[1] / "demos" / "example.cfg"
    assert run(["residual", str(example), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and out.count("[ok]") == 4  # two signs, two orders


def test_residual_failed_check_exits_one(tmp_path, monkeypatch):
    from anisosplit.oracle import ResidualReport

    monkeypatch.setattr(ResidualReport, "passed", property(lambda self: False))
    out = tmp_path / "o"
    assert run(["residual", _cfg(tmp_path, HET), "--out", str(out)]) == 1
    man, outs = _outputs(out)
    assert man["status"] == "failed"
    assert "residual.csv" in outs


def test_oracle_quad_on_heterogeneous_fails(tmp_path):
    code = run(["oracle", "quad", _cfg(tmp_path, HET), "--out", str(tmp_path / "o")])
    assert code == 1


def test_oracle_quad_csv(tmp_path):
    out = tmp_path / "o"
    assert run(["oracle", "quad", _cfg(tmp_path, HOM), "--out", str(out)]) == 0
    lines = (out / "oracle_quad.csv").read_text().splitlines()
    assert lines[0].startswith("xi1,xi2,s_re,s_im")
    assert len(lines) == 21
    worst = max(float(l.split(",")[-1]) for l in lines[1:])
    assert worst <= 1e-10


def test_oracle_without_kind_is_usage_error(tmp_path):
    cfg = _cfg(tmp_path, HOM.replace("s = 1.2+0.4i", "s = 1.2"))
    assert run(["oracle", cfg, "--out", str(tmp_path / "o")]) == 2


def test_oracle_grid_csv(tmp_path):
    out = tmp_path / "o"
    assert run(["oracle", "grid", _cfg(tmp_path, HOM), "--out", str(out)]) == 0
    lines = (out / "oracle_grid.csv").read_text().splitlines()
    assert lines[0] == "order,distance"
    assert len(lines) >= 2


def test_order_claim_outputs(tmp_path):
    out = tmp_path / "o"
    assert run(["order-claim", _cfg(tmp_path, HET), "--out", str(out)]) == 0
    head = (out / "order_claim.csv").read_text().splitlines()[0]
    assert head == "quantity,slope,expected"
    scaling = (out / "order_claim_scaling.csv").read_text().splitlines()
    assert scaling[0] == "lambda,p_rms,d3_rms"


def test_normalize_constant(tmp_path):
    out = tmp_path / "o"
    code = run(
        [
            "normalize",
            "--kind",
            "constant:2+1i,0.5",
            _cfg(tmp_path, HOM),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, outs = _outputs(out)
    assert "normalize.csv" in outs
    assert "gauge_terms.txt" in outs


def test_normalize_impedance(tmp_path):
    assert (
        run(
            [
                "normalize",
                "--kind",
                "impedance",
                _cfg(tmp_path, HOM),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        == 0
    )


def test_normalize_requires_kind(tmp_path):
    assert run(["normalize", _cfg(tmp_path, HOM), "--out", str(tmp_path / "o")]) == 2
    assert (
        run(
            [
                "normalize",
                "--kind",
                "constant:1",
                _cfg(tmp_path, HOM),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        == 2
    )


def test_propagate_full_traces(tmp_path):
    cfg = _cfg(
        tmp_path,
        HOM
        + """
[propagation]
a = 0
b = 0.4
steps = 24
s = 1.2+0.4i
solver = full
record_depths = 0.2
v3 = sin(x1) + 0.3*cos(x2)
p = cos(x1)*sin(x2)
""",
    )
    out = tmp_path / "o"
    assert run(["propagate", cfg, "--out", str(out)]) == 0
    _, outs = _outputs(out)
    assert "trace_p_00.csv" in outs
    assert "depths_v3.csv" in outs
    lines = (out / "trace_p_00.csv").read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 1 + 64


def _trace(path, n):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    values = np.empty((n, n), dtype=np.complex128)
    values[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    return values


def test_propagate_initial_data_is_the_expression_on_the_grid(tmp_path):
    v3, p = "sin(x1)*cos(2*x2) + 0.1*x3", "exp(0.3*cos(x1 - x2))/s"
    text = HET + f"""
[grid]
n = 8

[propagation]
a = 0.1
b = 0.2
steps = 2
s = 2+0.5i
solver = full
v3 = {v3}
p = {p}
"""
    out = tmp_path / "o"
    assert run(["propagate", _cfg(tmp_path, text), "--out", str(out)]) == 0
    grid = anisosplit.TransverseGrid(8, 2 * np.pi, 2 * np.pi)
    for name, e in (("v3", v3), ("p", p)):
        want = grid.sample(anisosplit.parse(e), 0.1, 2 + 0.5j)
        assert np.array_equal(_trace(out / f"trace_{name}_00.csv", 8), want)


def test_propagate_oneway(tmp_path):
    cfg = _cfg(
        tmp_path,
        HOM
        + """
[propagation]
a = 0
b = 0.4
steps = 24
s = 1.2+0.4i
solver = oneway
sign = +
method = expmid
u = sin(x1)
""",
    )
    out = tmp_path / "o"
    assert run(["propagate", cfg, "--out", str(out)]) == 0
    _, outs = _outputs(out)
    assert "trace_u_plus_00.csv" in outs


def test_propagate_requires_b(tmp_path):
    cfg = _cfg(tmp_path, HOM + "\n[propagation]\na = 0\n")
    assert run(["propagate", cfg, "--out", str(tmp_path / "o")]) == 2


PROPAGATION = "\n[propagation]\na = 0\nb = 0.4\nsteps = 4\ns = 1.2\n"


def test_zero_probe_count_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, HOM.replace("count = 20", "count = 0"))
    assert run(["oracle", "quad", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error: bad value for 'count':" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,extra", [("seed = -1", []), ("seed = 11", ["--seed", "-1"])], ids=["config", "flag"]
)
def test_negative_seed_is_config_error(tmp_path, capsys, text, extra):
    cfg = _cfg(tmp_path, HOM.replace("seed = 11", text))
    assert run(["expand", cfg, "--out", str(tmp_path / "o"), *extra]) == 2
    assert "error: bad value for 'seed':" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,text",
    [
        (["expand"], HOM.replace("order = 1", "order = 9")),
        (["residual"], HET.replace("orders = 1\n", "orders = 1, 9\n")),
        (["oracle", "grid"], HOM.replace("n = 8", "n = 12")),
        (["propagate"], HOM + PROPAGATION.replace("steps = 4", "steps = 0")),
        (["expand"], HOM.replace("points = 3", "points = 0")),
        (["residual"], HET.replace("lambdas = 4,16,64", "lambdas =")),
        (["propagate"], HOM + PROPAGATION + "v3 = sin(x1) + xi1\n"),
        (["oracle", "grid"], HOM.replace("count = 20", "orders =")),
        (["propagate"], HOM + PROPAGATION + "method = foo\n"),
        (["propagate"], HOM + PROPAGATION + "record_depths = 0.2, 3\n"),
        (["oracle", "quad"], HOM.replace("s = 1.2+0.4i", "s = -1")),
    ],
    ids=[
        "order", "orders", "grid-n", "steps", "points", "lambdas", "unbound-field", "no-orders",
        "method", "record-depth", "oracle-s",
    ],
)
def test_out_of_range_values_exit_two_before_any_work(tmp_path, capsys, argv, text):
    out = tmp_path / "o"
    assert run([*argv, _cfg(tmp_path, text), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "check failed" not in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_unread_section_values_do_not_change_exit_code(tmp_path):
    text = HOM + "\n[residual]\norders = x\n" + PROPAGATION.replace("steps = 4", "steps = 0")
    assert run(["expand", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 0


def test_subcommand_dependent_defaults():
    import configparser

    from anisosplit.cli import _options

    cp = configparser.ConfigParser()
    cp.read_string("[propagation]\nb = 1\n")
    assert _options(cp, "oracle", kind="quad").s == 1
    assert _options(cp, "oracle", kind="grid").s == 40
    assert _options(cp, "propagation").method == "auto"
    cp.set("propagation", "solver", "oneway")
    assert _options(cp, "propagation").method == "rk4"


@pytest.mark.parametrize(
    "typo,warning",
    [
        (("order = 1\n", "order = 1\nordre = 3\n"), "warning: unknown key 'ordre' in [expansion]"),
        (("[run]", "[expansions]\norder = 3\n\n[run]"), "warning: unknown section [expansions]"),
    ],
    ids=["key", "section"],
)
def test_unknown_key_or_section_warns_and_runs_unchanged(tmp_path, capsys, typo, warning):
    assert run(["expand", _cfg(tmp_path, HOM, "a.ini"), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""
    typoed = _cfg(tmp_path, HOM.replace(*typo), "b.ini")
    assert run(["expand", typoed, "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err.splitlines() == [warning]
    assert _outputs(tmp_path / "a")[1] == _outputs(tmp_path / "b")[1]


def test_example_config_has_no_unknown_keys(capsys):
    from anisosplit.cli import _read_config, _warn_unknown

    _warn_unknown(_read_config(str(Path(__file__).resolve().parents[1] / "demos" / "example.cfg")))
    assert capsys.readouterr().err == ""


def test_readme_key_table_matches_cli_table():
    from anisosplit.cli import _KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set()
    for section, keys in re.findall(r"^\| `\[(\w+)\]` \| ([^|]*) \|", readme, re.M):
        documented |= {(section, key) for key in re.findall(r"`(\w+)`", keys)}
    assert documented == {(section, key) for section, key, *_ in _KEYS}


def test_fingerprint_runs_cover_every_subcommand(tmp_path):
    # tests/cli_fingerprint.py is the byte-identity check of refactors;
    # a subcommand it never runs could change its output unseen
    from anisosplit.cli import _HANDLERS
    from cli_fingerprint import _runs

    covered = {argv[0] for _, argv in _runs(tmp_path)}
    assert covered >= set(_HANDLERS)
