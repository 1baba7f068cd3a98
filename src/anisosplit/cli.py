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
expression parser. Outputs land under --out as CSV files with fixed
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
import os
import sys
from pathlib import Path

SUBCOMMANDS = (
    "medium-check",
    "expand",
    "residual",
    "oracle",
    "order-claim",
    "normalize",
    "propagate",
)


class ConfigError(Exception):
    """Malformed or incomplete configuration (a usage error, exit 2)."""


def _apply_thread_cap():
    # Best-effort: BLAS pools honor these when they spawn lazily after
    # import; a cap set here cannot shrink pools that already started.
    cap = os.environ.get("ANISOSPLIT_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="anisosplit",
        description="wave-splitting toolkit for anisotropic acoustic media",
    )
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
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


def _section(cfg, name, required=False) -> dict:
    if cfg.has_section(name):
        return dict(cfg.items(name))
    if required:
        raise ConfigError(f"missing required section [{name}]")
    return {}


def _get(data: dict, key: str, default=None, cast=str):
    if key not in data:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return cast(data[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from None


def _complex_value(text: str) -> complex:
    """Constant through the expression DSL, so '1.2+0.4i' works."""
    from .expr import ExprError, eval_expr, free_vars, parse

    try:
        e = parse(str(text))
    except ExprError as exc:
        raise ConfigError(f"bad complex constant {text!r}: {exc}") from None
    if free_vars(e):
        raise ConfigError(f"complex constant {text!r} contains variables")
    return complex(eval_expr(e, {}))


def _float_list(text: str):
    return [float(v) for v in str(text).split(",") if v.strip()]


def _int_list(text: str):
    return [int(v) for v in str(text).split(",") if v.strip()]


def _sign_value(text: str) -> int:
    t = str(text).strip()
    if t in ("+", "+1", "1", "plus", "down"):
        return 1
    if t in ("-", "-1", "minus", "up"):
        return -1
    raise ConfigError(f"bad sign {t!r} (use + or -)")


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
    import numpy
    import scipy

    from . import __version__

    return {
        "anisosplit": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# shared loaders


def _load_medium_checked(cfg):
    from .expr import ParseError
    from .medium import MediumError, load_medium

    sec = _section(cfg, "medium", required=True)
    try:
        return load_medium(sec)
    except ParseError as exc:
        raise ConfigError(f"bad expression in [medium]: {exc}") from None
    except MediumError as exc:
        if "validation failed" in str(exc):
            raise
        raise ConfigError(f"bad [medium] section: {exc}") from None


def _load_grid(cfg):
    from .symbols import TransverseGrid

    sec = _section(cfg, "grid")
    tau = 6.283185307179586
    return TransverseGrid(
        n=_get(sec, "n", 16, int),
        L1=_get(sec, "l1", tau, float),
        L2=_get(sec, "l2", tau, float),
    )


def _expansion_params(cfg):
    sec = _section(cfg, "expansion")
    order = _get(sec, "order", 2, int)
    eta = _get(sec, "eta", 0, int)
    sign_txt = _get(sec, "sign", "both", str).strip()
    points = _get(sec, "points", 4, int)
    if sign_txt == "both":
        signs = (1, -1)
    else:
        signs = (_sign_value(sign_txt),)
    if eta not in (0, 1):
        raise ConfigError("eta must be 0 or 1")
    return order, eta, signs, points


def _load_split(m, order, eta):
    from .expansion import expand, split_symbols

    return split_symbols(expand(m, 1, eta, order), expand(m, -1, eta, order))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_medium_check(cfg, em, seed, kind):
    from .medium import MediumError, validate

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
    import numpy as np

    from .expansion import expand
    from .expr import eval_expr, to_text
    from .oracle import _probe_env, draw_probe_points

    m = _load_medium_checked(cfg)
    order, eta, signs, n_points = _expansion_params(cfg)
    points = draw_probe_points(m, n_points, np.random.default_rng(seed))
    env = _probe_env(points)
    for sign in signs:
        tag = "plus" if sign > 0 else "minus"
        exp = expand(m, sign, eta, order)
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
        print(f"sign {tag}: {order + 1} terms written")
    return 0


def _cmd_residual(cfg, em, seed, kind):
    import numpy as np

    from .expansion import expand
    from .oracle import DEFAULT_LAMBDAS, draw_probe_points, riccati_residual

    m = _load_medium_checked(cfg)
    _, eta, signs, _ = _expansion_params(cfg)
    sec = _section(cfg, "residual")
    lambdas = _get(sec, "lambdas", list(DEFAULT_LAMBDAS), _float_list)
    n_points = _get(sec, "points", 6, int)
    orders = _get(sec, "orders", [1, 2, 3], _int_list)
    points = draw_probe_points(m, n_points, np.random.default_rng(seed))
    rows = []
    failed = False
    for sign in signs:
        for order in orders:
            exp = expand(m, sign, eta, order)
            rep = riccati_residual(exp, points=points, lambdas=lambdas)
            for lam, rms in zip(rep.lambdas, rep.rms):
                rows.append([order, lam, rms, rep.slope, sign])
            print(f"sign {sign:+d} order {order}: {rep.describe()}")
            failed = failed or not rep.passed
    em.csv("residual.csv", ["order", "lambda", "residual", "slope", "sign"], rows)
    return 1 if failed else 0


def _cmd_oracle(cfg, em, seed, kind):
    sec = _section(cfg, "oracle")
    kind = kind or _get(sec, "kind", "", str).strip()
    if kind == "quad":
        return _oracle_quad(cfg, em, seed, sec)
    if kind == "grid":
        return _oracle_grid(cfg, em, seed, sec)
    raise ConfigError("oracle needs a kind: quad or grid")


def _oracle_quad(cfg, em, seed, sec):
    import numpy as np

    from .expansion import leading_term
    from .expr import VarId, eval_expr
    from .oracle import quad_oracle

    m = _load_medium_checked(cfg)
    s = _get(sec, "s", 1.0 + 0j, _complex_value)
    count = _get(sec, "count", 100, int)
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


def _oracle_grid(cfg, em, seed, sec):
    from .expansion import expand
    from .oracle import grid_riccati_oracle, operator_distance

    m = _load_medium_checked(cfg)
    grid = _load_grid(cfg)
    s = _get(sec, "s", 40.0 + 0j, _complex_value)
    gap_rtol = _get(sec, "gap_rtol", 1e-6, float)
    orders = _get(sec, "orders", [0, 1, 2], _int_list)
    result = grid_riccati_oracle(m, grid, s, gap_rtol=gap_rtol)
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
    import numpy as np

    from .oracle import DEFAULT_LAMBDAS, draw_probe_points, order_claim_check

    m = _load_medium_checked(cfg)
    order, eta, _, _ = _expansion_params(cfg)
    sec = _section(cfg, "residual")
    lambdas = _get(sec, "lambdas", list(DEFAULT_LAMBDAS), _float_list)
    n_points = _get(sec, "points", 6, int)
    split = _load_split(m, order, eta)
    points = draw_probe_points(m, n_points, np.random.default_rng(seed))
    rep = order_claim_check(split, points=points, lambdas=lambdas)
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
    from .normalization import NormalizationSpec

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
    import numpy as np

    from .expr import eval_expr, to_text
    from .normalization import apply_normalization
    from .oracle import _probe_env, draw_probe_points

    m = _load_medium_checked(cfg)
    order, eta, _, n_points = _expansion_params(cfg)
    spec = _parse_norm_kind(kind)
    split = _load_split(m, order, eta)
    out = apply_normalization(split, spec)
    env = _probe_env(draw_probe_points(m, max(n_points, 4), np.random.default_rng(seed)))
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
    import numpy as np

    from .expr import ExprError, VarId, eval_expr, parse
    from .propagate import full_solve, oneway_solve
    from .symbols import random_smooth_field

    m = _load_medium_checked(cfg)
    grid = _load_grid(cfg)
    sec = _section(cfg, "propagation", required=True)
    a = _get(sec, "a", 0.0, float)
    b = _get(sec, "b", None, float)
    steps = _get(sec, "steps", 64, int)
    s = _get(sec, "s", 1.0 + 0j, _complex_value)
    solver = _get(sec, "solver", "full", str).strip()
    method = _get(sec, "method", "", str).strip()
    record = _get(sec, "record_depths", [], _float_list)
    rng = np.random.default_rng(seed)

    def initial(key):
        if key in sec:
            try:
                e = parse(sec[key])
            except ExprError as exc:
                raise ConfigError(f"bad expression for '{key}': {exc}") from None
            X1g, X2g = grid.x_mesh()
            env = {VarId.X1: X1g, VarId.X2: X2g, VarId.X3: complex(a), VarId.S: s}
            return np.broadcast_to(np.asarray(eval_expr(e, env)), X1g.shape).astype(
                np.complex128
            )
        return random_smooth_field(grid, rng)

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

    if solver == "full":
        v3 = initial("v3")
        p = initial("p")
        recs = full_solve(
            m, grid, s, v3, p, a, b, steps=steps, method=method or "auto", record=record
        )
        emit([(x3, v) for x3, v, _ in recs], "v3")
        emit([(x3, q) for x3, _, q in recs], "p")
        print(f"full solve: {len(recs)} depth snapshots")
    elif solver == "oneway":
        order, eta, _, _ = _expansion_params(cfg)
        sign = _sign_value(_get(sec, "sign", "+", str))
        split = _load_split(m, order, eta)
        u = initial("u")
        recs = oneway_solve(
            split,
            sign,
            grid,
            s,
            u,
            a,
            b,
            steps=steps,
            method=method or "rk4",
            record=record,
        )
        tag = "u_plus" if sign > 0 else "u_minus"
        emit(recs, tag)
        print(f"one-way solve ({tag}): {len(recs)} depth snapshots")
    else:
        raise ConfigError(f"unknown solver {solver!r} (use full or oneway)")
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
    _apply_thread_cap()
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
        run_sec = _section(cfg, "run")
        seed = args.seed if args.seed is not None else _get(run_sec, "seed", 0, int)
        out_dir = Path(args.out or _get(run_sec, "out", "out", str))
        em = _Emitter(out_dir)
        code = _HANDLERS[args.subcommand](cfg, em, seed, kind)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - mapped to the exit contract below
        from .expansion import ExpansionError
        from .expr import ExprError
        from .medium import MediumError
        from .normalization import NormalizationError
        from .oracle import OracleError
        from .propagate import PropagationError
        from .symbols import SymbolError

        if isinstance(
            exc,
            (
                MediumError,
                OracleError,
                PropagationError,
                NormalizationError,
                ExpansionError,
                SymbolError,
                ExprError,
            ),
        ):
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        raise

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
