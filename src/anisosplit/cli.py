"""Command-line entry point.

One executable wires config files to every operation:

    anisosplit medium-check cfg      validate a medium description
    anisosplit expand cfg            tabulate expansion terms
    anisosplit residual cfg          residual scaling slopes per order
    anisosplit oracle quad cfg       homogeneous quadratic-root check
    anisosplit oracle grid cfg       invariant-subspace grid oracle
    anisosplit order-claim cfg       measured orders of p and d3 ell
    anisosplit normalize --kind K cfg   gauge-transform the split
    anisosplit propagate cfg         depth stepping, traces per depth

Configs are INI-style; expression values are handed verbatim to the
expression parser. Every key the command line reads is one row of
``_KEYS``: (section, key, parse, default, check). ``_options`` reads one
section through that table, and a subcommand reads only the sections it
uses, each before its work starts; a value that fails its parse or its
check is a config error. The keys of [medium] are
``medium.MEDIUM_KEYS``, which ``load_medium`` parses. Each section or
key that no row names prints one ``warning: unknown ...`` line on stderr
and is otherwise ignored. Outputs land under --out as CSV files with fixed
17-significant-digit scientific formatting plus a manifest.json listing
every artifact with its content hash; identical config and seed give
bit-identical outputs. Exit codes: 0 success, 1 a check or validation
failed, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from . import __version__, oracle
from .expansion import MAX_ORDER, ExpansionError, expand, leading_term, split_symbols
from .expr import ExprError, ParseError, VarId, eval_expr, free_vars, parse, to_text
from .medium import MEDIUM_KEYS, MediumError, load_medium, validate
from .normalization import NormalizationError, NormalizationSpec, apply_normalization
from .oracle import (
    DEFAULT_LAMBDAS,
    OracleError,
    _check_lambdas,
    _check_s,
    _probe_env,
    draw_probe_points,
    grid_riccati_oracle,
    operator_distance,
    order_claim_check,
    quad_oracle,
)
from .propagate import PropagationError, _check_method, _segments, full_solve, oneway_solve
from .symbols import SymbolError, TransverseGrid, random_smooth_field


class ConfigError(Exception):
    """Malformed or incomplete configuration (a usage error, exit 2)."""


def _read_config(path: str) -> configparser.ConfigParser:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return cp


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="anisosplit",
        description="wave-splitting toolkit for anisotropic acoustic media",
    )
    ap.add_argument("subcommand", choices=_HANDLERS)
    ap.add_argument(
        "rest",
        nargs="+",
        metavar="[kind] config",
        help="oracle takes a kind (quad|grid) before the config path",
    )
    ap.add_argument("--out", default=None, help="output directory (default: out)")
    ap.add_argument("--seed", type=int, default=None, help="probe seed override")
    ap.add_argument(
        "--kind",
        default=None,
        help="normalize: constant:m,m' or impedance",
    )
    return ap.parse_args(argv)


def _complex_value(text: str) -> complex:
    """Constant through the expression DSL, so '1.2+0.4i' works."""
    try:
        e = parse(str(text))
    except ExprError as exc:
        raise ConfigError(f"bad complex constant {text!r}: {exc}") from None
    if free_vars(e):
        raise ConfigError(f"complex constant {text!r} contains variables")
    return complex(eval_expr(e, {}))


def _list_of(cast):
    return lambda text: [cast(v) for v in str(text).split(",") if v.strip()]


def _sign_value(text: str) -> int:
    t = str(text).strip()
    if t in ("+", "+1", "1", "plus", "down"):
        return 1
    if t in ("-", "-1", "minus", "up"):
        return -1
    raise ConfigError(f"bad sign {t!r} (use + or -)")


def _signs(text: str) -> tuple:
    return (1, -1) if text.strip() == "both" else (_sign_value(text),)


# ---------------------------------------------------------------------------
# the config table. A check raises ValueError, or the library error of the
# rule it reuses; a ConfigError it raises keeps its own message.


def _at_least(low):
    def check(value):
        if value < low:
            raise ValueError(f"must be at least {low}")

    return check


def _check_orders(orders):
    if not orders:
        raise ValueError("no orders given")
    for order in orders:
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} is not between 0 and {MAX_ORDER}")


def _check_eta(eta):
    if eta not in (0, 1):
        raise ConfigError("eta must be 0 or 1")


def _check_solver(solver):
    if solver not in ("full", "oneway"):
        raise ConfigError(f"unknown solver {solver!r} (use full or oneway)")


def _grid_rule(field):
    # TransverseGrid's own validation, of one field in an otherwise valid grid
    return lambda value: TransverseGrid(**{"n": 4, "L1": 1.0, "L2": 1.0, field: value})


def _check_field(e):
    unbound = free_vars(e) - {VarId.X1, VarId.X2, VarId.X3, VarId.S}
    if unbound:
        names = ", ".join(sorted(v.value for v in unbound))
        raise ValueError(f"{names} unbound: initial data may use x1, x2, x3 and s only")


_REQUIRED = object()  # default of a key that must be given
_REQUIRED_SECTIONS = ("medium", "propagation")
# a default picked by the value of an earlier key of the same section
_Per = namedtuple("_Per", "key values")
# a check that also reads earlier keys of the same section
_Reads = namedtuple("_Reads", "keys check")

# (section, key, parse, default, check); a parse that returns None gives
# the default, as an absent key does
_KEYS = (
    # medium.load_medium parses these
    *(("medium", key, str, None, None) for key in MEDIUM_KEYS),
    ("grid", "n", int, 16, _grid_rule("n")),
    ("grid", "l1", float, math.tau, _grid_rule("L1")),
    ("grid", "l2", float, math.tau, _grid_rule("L2")),
    ("expansion", "order", int, 2, lambda order: _check_orders([order])),
    ("expansion", "eta", int, 0, _check_eta),
    ("expansion", "sign", _signs, (1, -1), None),
    ("expansion", "points", int, 4, _at_least(1)),
    ("residual", "orders", _list_of(int), (1, 2, 3), _check_orders),
    ("residual", "lambdas", _list_of(float), DEFAULT_LAMBDAS, _check_lambdas),
    ("residual", "points", int, 6, _at_least(1)),
    ("oracle", "kind", str.strip, "", None),
    ("oracle", "s", _complex_value, _Per("kind", {"quad": 1 + 0j, "grid": 40 + 0j}), _check_s),
    ("oracle", "count", int, 100, _at_least(1)),
    ("oracle", "gap_rtol", float, 1e-6, None),
    ("oracle", "orders", _list_of(int), (0, 1, 2), _check_orders),
    ("propagation", "a", float, 0.0, None),
    ("propagation", "b", float, _REQUIRED, None),
    ("propagation", "steps", int, 64, _at_least(1)),
    ("propagation", "s", _complex_value, 1 + 0j, None),
    ("propagation", "solver", str.strip, "full", _check_solver),
    ("propagation", "method", lambda text: text.strip() or None,
     _Per("solver", {"full": "auto", "oneway": "rk4"}),
     _Reads(("solver",), lambda method, solver: _check_method(solver, method))),
    ("propagation", "record_depths", _list_of(float), (),
     _Reads(("a", "b"), lambda record, a, b: _segments(a, b, record))),
    ("propagation", "sign", _sign_value, 1, None),
    ("propagation", "v3", parse, None, _check_field),
    ("propagation", "p", parse, None, _check_field),
    ("propagation", "u", parse, None, _check_field),
    ("run", "seed", int, 0, _at_least(0)),
    ("run", "out", str, "out", None),
)
_TABLE = {sec: {key: spec for s, key, *spec in _KEYS if s == sec} for sec, *_ in _KEYS}


def _options(cfg, section, **overrides):
    """Every ``_KEYS`` key of one config section as a typed attribute: a
    given value (an override that is not None replaces the config text)
    through the row's parse and check, any other at the row's default."""
    if not cfg.has_section(section) and section in _REQUIRED_SECTIONS:
        raise ConfigError(f"missing required section [{section}]")
    raw = dict(cfg.items(section)) if cfg.has_section(section) else {}
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    values = {}
    for key, (parse_value, default, check) in _TABLE[section].items():
        try:
            value = parse_value(raw[key]) if key in raw else None
            if value is not None and isinstance(check, _Reads):
                check.check(value, *(values[k] for k in check.keys))
            elif value is not None and check is not None:
                check(value)
        except ExprError as exc:
            raise ConfigError(f"bad expression for '{key}': {exc}") from None
        except (ValueError, TypeError, OracleError, PropagationError, SymbolError) as exc:
            raise ConfigError(f"bad value for '{key}': {exc}") from None
        if value is None and default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        if value is None:
            per = isinstance(default, _Per)
            value = default.values.get(values[default.key]) if per else default
        values[key] = value
    return SimpleNamespace(**values)


def _warn_unknown(cfg):
    for section in cfg.sections():
        if section not in _TABLE:
            print(f"warning: unknown section [{section}]", file=sys.stderr)
            continue
        for key in cfg[section]:
            if key not in _TABLE[section]:
                print(f"warning: unknown key '{key}' in [{section}]", file=sys.stderr)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, complex):
        raise TypeError("split complex into re/im columns")
    return f"{float(v):.17e}"


class _Emitter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header, rows):
        path = self.out_dir / name
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
                fh.write("\n")
        self.files.append(path)
        return path

    def text(self, name: str, content: str):
        path = self.out_dir / name
        path.write_text(content)
        self.files.append(path)
        return path

    def manifest(self, info: dict):
        outputs = []
        for p in self.files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            outputs.append({"name": p.name, "sha256": digest})
        info = dict(info)
        info["outputs"] = outputs
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
        return path


def _versions():
    return {
        "anisosplit": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# shared loaders


def _load_medium_checked(cfg):
    given = {k: v for k, v in vars(_options(cfg, "medium")).items() if v is not None}
    try:
        return load_medium(given)
    except ParseError as exc:
        raise ConfigError(f"bad expression in [medium]: {exc}") from None
    except MediumError as exc:
        if "validation failed" in str(exc):
            raise
        raise ConfigError(f"bad [medium] section: {exc}") from None


def _load_split(m, order, eta):
    return split_symbols(expand(m, 1, eta, order), expand(m, -1, eta, order))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_medium_check(cfg, em, seed, kind):
    try:
        m = _load_medium_checked(cfg)
    except MediumError as exc:
        em.text("medium_report.txt", str(exc) + "\n")
        print(exc)
        return 1
    report = validate(m)
    em.text("medium_report.txt", report.describe() + "\n")
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_expand(cfg, em, seed, kind):
    m = _load_medium_checked(cfg)
    ex = _options(cfg, "expansion")
    n_points = ex.points
    points = draw_probe_points(m, n_points, np.random.default_rng(seed))
    env = _probe_env(points)
    for sign in ex.sign:
        tag = "plus" if sign > 0 else "minus"
        exp = expand(m, sign, ex.eta, ex.order)
        header = ["degree"]
        for k in range(n_points):
            header += [f"pt{k}_re", f"pt{k}_im"]
        rows = []
        dump = []
        for t in exp.terms:
            vals = np.broadcast_to(
                np.asarray(eval_expr(t.expr, env)), (n_points,)
            )
            row = [t.degree]
            for v in vals:
                row += [v.real, v.imag]
            rows.append(row)
            dump.append(f"degree {t.degree}:\n{to_text(t.expr)}\n")
        em.csv(f"expansion_{tag}.csv", header, rows)
        em.text(f"terms_{tag}.txt", "\n".join(dump))
        print(f"sign {tag}: {ex.order + 1} terms written")
    return 0


def _cmd_residual(cfg, em, seed, kind):
    m = _load_medium_checked(cfg)
    ex = _options(cfg, "expansion")
    res = _options(cfg, "residual")
    points = draw_probe_points(m, res.points, np.random.default_rng(seed))
    rows = []
    failed = False
    for sign in ex.sign:
        for order in res.orders:
            exp = expand(m, sign, ex.eta, order)
            rep = oracle.riccati_residual(exp, points=points, lambdas=res.lambdas)
            for lam, rms in zip(rep.lambdas, rep.rms):
                rows.append([order, lam, rms, rep.slope, sign])
            print(f"sign {sign:+d} order {order}: {rep.describe()}")
            failed = failed or not rep.passed
    em.csv("residual.csv", ["order", "lambda", "residual", "slope", "sign"], rows)
    return 1 if failed else 0


def _cmd_oracle(cfg, em, seed, kind):
    opts = _options(cfg, "oracle", kind=kind)
    if opts.kind == "quad":
        return _oracle_quad(cfg, em, seed, opts)
    if opts.kind == "grid":
        return _oracle_grid(cfg, em, seed, opts)
    raise ConfigError("oracle needs a kind: quad or grid")


def _oracle_quad(cfg, em, seed, opts):
    m = _load_medium_checked(cfg)
    s, count = opts.s, opts.count
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-2.0, 2.0, size=(count, 2))
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
    rel_p = np.abs(yp - roots.y_plus) / np.abs(roots.y_plus)
    rel_m = np.abs(ym - roots.y_minus) / np.abs(roots.y_minus)
    rows = []
    for k in range(count):
        rows.append(
            [
                xi[k, 0],
                xi[k, 1],
                s.real,
                s.imag,
                roots.y_plus[k].real,
                roots.y_plus[k].imag,
                roots.y_minus[k].real,
                roots.y_minus[k].imag,
                rel_p[k],
                rel_m[k],
            ]
        )
    em.csv(
        "oracle_quad.csv",
        [
            "xi1",
            "xi2",
            "s_re",
            "s_im",
            "y_plus_re",
            "y_plus_im",
            "y_minus_re",
            "y_minus_im",
            "rel_err_plus",
            "rel_err_minus",
        ],
        rows,
    )
    worst = float(max(rel_p.max(), rel_m.max()))
    print(f"quad oracle: worst relative mismatch {worst:.3e} over {count} probes")
    return 0


def _oracle_grid(cfg, em, seed, opts):
    m = _load_medium_checked(cfg)
    g = _options(cfg, "grid")
    grid = TransverseGrid(g.n, g.l1, g.l2)
    s, orders = opts.s, opts.orders
    result = grid_riccati_oracle(m, grid, s, gap_rtol=opts.gap_rtol)
    print(
        f"gap {result.gap:.3e}, cond {result.cond_plus:.3e}/{result.cond_minus:.3e}, "
        f"riccati rel {result.riccati_rel_plus:.3e}/{result.riccati_rel_minus:.3e}"
    )
    exp = expand(m, 1, 0, max(orders))
    rows = []
    for order in orders:
        d = operator_distance(exp.series(order), result.y_plus, grid, s)
        rows.append([order, d])
        print(f"order {order}: operator distance {d:.6e}")
    em.csv("oracle_grid.csv", ["order", "distance"], rows)
    return 0


def _cmd_order_claim(cfg, em, seed, kind):
    m = _load_medium_checked(cfg)
    ex = _options(cfg, "expansion")
    res = _options(cfg, "residual")
    split = _load_split(m, ex.order, ex.eta)
    points = draw_probe_points(m, res.points, np.random.default_rng(seed))
    rep = order_claim_check(split, points=points, lambdas=res.lambdas)
    print(rep.describe())
    rows = [
        ["p", "" if rep.p_slope is None else _fmt(rep.p_slope), _fmt(rep.p_expected)],
        [
            "d3_ell",
            "" if rep.d3_slope is None else _fmt(rep.d3_slope),
            _fmt(rep.d3_expected),
        ],
    ]
    em.csv("order_claim.csv", ["quantity", "slope", "expected"], rows)
    scaling = []
    for k, lam in enumerate(rep.lambdas):
        scaling.append(
            [
                lam,
                rep.p_rms[k] if rep.p_rms else 0.0,
                rep.d3_rms[k] if rep.d3_rms else 0.0,
            ]
        )
    em.csv("order_claim_scaling.csv", ["lambda", "p_rms", "d3_rms"], scaling)
    return 0


def _parse_norm_kind(text):
    if not text:
        raise ConfigError("normalize needs --kind constant:m,m' or --kind impedance")
    if text == "impedance":
        return NormalizationSpec(kind="impedance")
    if text.startswith("constant:"):
        parts = text[len("constant:") :].split(",")
        if len(parts) != 2:
            raise ConfigError("constant kind needs two scalars: constant:m,m'")
        return NormalizationSpec(
            kind="constant",
            m=_complex_value(parts[0]),
            mprime=_complex_value(parts[1]),
        )
    raise ConfigError(f"unknown normalization kind {text!r}")


def _cmd_normalize(cfg, em, seed, kind):
    m = _load_medium_checked(cfg)
    ex = _options(cfg, "expansion")
    spec = _parse_norm_kind(kind)
    split = _load_split(m, ex.order, ex.eta)
    out = apply_normalization(split, spec)
    env = _probe_env(draw_probe_points(m, max(ex.points, 4), np.random.default_rng(seed)))
    rows = []
    dump = []
    for tag, before, after in (
        ("g_plus", split.g_plus, out.g_plus),
        ("g_minus", split.g_minus, out.g_minus),
    ):
        for d in sorted(set(before.terms) | set(after.terms), reverse=True):
            va = np.atleast_1d(eval_expr(before.term(d), env))
            vb = np.atleast_1d(eval_expr(after.term(d), env))
            rows.append(
                [
                    tag,
                    d,
                    float(np.sqrt(np.mean(np.abs(vb) ** 2))),
                    float(np.max(np.abs(vb - va))),
                ]
            )
        dump.append(f"{tag} transformed terms:")
        for d, e in after.terms.items():
            dump.append(f"  degree {d}: {to_text(e)}")
    for i in range(2):
        for j in range(2):
            dump.append(f"ell[{i}][{j}] transformed terms:")
            for d, e in out.ell[i][j].terms.items():
                dump.append(f"  degree {d}: {to_text(e)}")
    em.csv(
        "normalize.csv",
        ["entry", "degree", "rms_after", "max_change"],
        rows,
    )
    em.text("gauge_terms.txt", "\n".join(dump) + "\n")
    print(f"gauge {spec.kind}: wrote {len(rows)} generator rows")
    return 0


def _cmd_propagate(cfg, em, seed, kind):
    m = _load_medium_checked(cfg)
    g = _options(cfg, "grid")
    grid = TransverseGrid(g.n, g.l1, g.l2)
    pr = _options(cfg, "propagation")
    march = dict(steps=pr.steps, method=pr.method, record=pr.record_depths)
    rng = np.random.default_rng(seed)

    def initial(field):
        if field is None:
            return random_smooth_field(grid, rng)
        return grid.sample(field, pr.a, pr.s)

    def emit(tagged_records, component):
        summary = []
        for k, (x3, values) in enumerate(tagged_records):
            rows = []
            for i in range(grid.n):
                for j in range(grid.n):
                    rows.append([i, j, values[i, j].real, values[i, j].imag])
            em.csv(f"trace_{component}_{k:02d}.csv", ["i", "j", "re", "im"], rows)
            summary.append([x3, float(np.linalg.norm(values))])
        em.csv(f"depths_{component}.csv", ["x3", "norm"], summary)

    if pr.solver == "full":
        v3 = initial(pr.v3)
        p = initial(pr.p)
        recs = full_solve(m, grid, pr.s, v3, p, pr.a, pr.b, **march)
        emit([(x3, v) for x3, v, _ in recs], "v3")
        emit([(x3, q) for x3, _, q in recs], "p")
        print(f"full solve: {len(recs)} depth snapshots")
    else:
        ex = _options(cfg, "expansion")
        split = _load_split(m, ex.order, ex.eta)
        recs = oneway_solve(split, pr.sign, grid, pr.s, initial(pr.u), pr.a, pr.b, **march)
        tag = "u_plus" if pr.sign > 0 else "u_minus"
        emit(recs, tag)
        print(f"one-way solve ({tag}): {len(recs)} depth snapshots")
    return 0


_HANDLERS = {
    "medium-check": _cmd_medium_check,
    "expand": _cmd_expand,
    "residual": _cmd_residual,
    "oracle": _cmd_oracle,
    "order-claim": _cmd_order_claim,
    "normalize": _cmd_normalize,
    "propagate": _cmd_propagate,
}


def run(argv=None) -> int:
    args = _parse_args(argv)
    kind = None
    rest = list(args.rest)
    if args.subcommand == "oracle" and len(rest) == 2:
        kind = rest.pop(0)
    if args.subcommand == "normalize":
        kind = args.kind
    if len(rest) != 1:
        print("error: expected exactly one config path", file=sys.stderr)
        return 2
    config_path = rest[0]

    try:
        cfg = _read_config(config_path)
        _warn_unknown(cfg)
        opts = _options(cfg, "run", seed=args.seed, out=args.out)
        seed = opts.seed
        em = _Emitter(Path(opts.out))
        code = _HANDLERS[args.subcommand](cfg, em, seed, kind)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        MediumError,
        OracleError,
        PropagationError,
        NormalizationError,
        ExpansionError,
        SymbolError,
        ExprError,
    ) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    em.manifest(
        {
            "subcommand": args.subcommand,
            "kind": kind,
            "config_file": str(config_path),
            "config_text": Path(config_path).read_text(),
            "seed": seed,
            "versions": _versions(),
            "status": "ok" if code == 0 else "failed",
        }
    )
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
