"""Material model: compressibility kappa and inverse density matrix alpha.

A medium is kappa(x) > 0 and a 3x3 real matrix field alpha(x) whose
symmetric part is positive definite (alpha need not be symmetric).
Density may be supplied instead; it is inverted symbolically through the
adjugate. Validation samples a lattice over the medium's bounding box
and checks the declared bounds; nothing is proven globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Expr,
    ExprError,
    VarId,
    diff,
    eval_expr,
    free_vars,
    mul,
    parse,
    recip,
    sub,
    variable,
)

__all__ = [
    "MediumSpec",
    "MediumError",
    "MEDIUM_KEYS",
    "ValidationReport",
    "SchurData",
    "load_medium",
    "validate",
    "schur",
    "is_homogeneous",
    "is_depth_independent",
]

_XVARS = (VarId.X1, VarId.X2, VarId.X3)
_DEFAULT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
_DEFAULT_BOUNDS = {"kappa0": 1e-8, "kappa1": 1e8, "rho0": 1e-8, "rho1": 1e8}
MEDIUM_KEYS = ("kappa", "alpha", "rho", *_DEFAULT_BOUNDS, "box")


class MediumError(Exception):
    pass


def _as_medium_expr(e):
    if isinstance(e, str):
        e = parse(e)
    if not isinstance(e, Expr):
        raise MediumError(f"material entry must be an expression, got {type(e).__name__}")
    bad = free_vars(e) - set(_XVARS)
    if bad:
        names = ", ".join(sorted(v.value for v in bad))
        raise MediumError(f"material entry may depend on x1,x2,x3 only (found {names})")
    return e


@dataclass(frozen=True, eq=False)
class MediumSpec:
    """Validated material description.

    kappa: compressibility expression (x-variables only).
    alpha: 3x3 tuple-of-tuples of expressions (inverse density).
    alpha_from_rho: True when alpha was produced by inverting a density.
    bounds: kappa0 <= kappa <= kappa1; eigenvalues of sym(alpha^-1) in
    [rho0, rho1] on the box. box: sampling region per coordinate.
    """

    kappa: Expr
    alpha: tuple
    alpha_from_rho: bool = False
    kappa0: float = _DEFAULT_BOUNDS["kappa0"]
    kappa1: float = _DEFAULT_BOUNDS["kappa1"]
    rho0: float = _DEFAULT_BOUNDS["rho0"]
    rho1: float = _DEFAULT_BOUNDS["rho1"]
    box: tuple = _DEFAULT_BOX

    def alpha33(self) -> Expr:
        return self.alpha[2][2]

    def entry(self, i: int, j: int) -> Expr:
        return self.alpha[i - 1][j - 1]  # 1-based, matching the index conventions

    def _cache(self, name, builder):
        store = self.__dict__.setdefault("_lazy", {})
        if name not in store:
            store[name] = builder()
        return store[name]


def _adjugate3(m):
    def c(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [cc for cc in range(3) if cc != j]
        a = m[rows[0]][cols[0]]
        b = m[rows[0]][cols[1]]
        cc_ = m[rows[1]][cols[0]]
        d = m[rows[1]][cols[1]]
        minor = sub(mul(a, d), mul(b, cc_))
        return minor if (i + j) % 2 == 0 else -minor

    # adjugate = transpose of cofactor matrix
    return tuple(tuple(c(j, i) for j in range(3)) for i in range(3))


def _det3(m):
    t1 = mul(m[0][0], sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1])))
    t2 = mul(m[0][1], sub(mul(m[1][0], m[2][2]), mul(m[1][2], m[2][0])))
    t3 = mul(m[0][2], sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0])))
    return t1 - t2 + t3


def load_medium(section) -> MediumSpec:
    """Build a MediumSpec from a config-section mapping.

    Keys: ``kappa`` (expression), and either ``alpha`` or ``rho`` as a
    comma-separated row-major list of 9 expressions. Optional bound
    overrides ``kappa0 kappa1 rho0 rho1`` and a ``box`` of six floats
    (x1min,x1max,x2min,x2max,x3min,x3max). The result is validated on a
    5^3 lattice over the box; violations raise MediumError. Keys outside
    ``MEDIUM_KEYS`` are ignored.
    """
    data = {key: section[key] for key in MEDIUM_KEYS if key in section}
    try:
        kappa = _as_medium_expr(data["kappa"])
    except KeyError:
        raise MediumError("missing 'kappa' entry") from None

    if ("alpha" in data) == ("rho" in data):
        raise MediumError("exactly one of 'alpha' or 'rho' must be given")
    key = "alpha" if "alpha" in data else "rho"
    parts = [p.strip() for p in str(data[key]).split(",")] if isinstance(data[key], str) else list(data[key])
    if len(parts) != 9:
        raise MediumError(f"'{key}' needs 9 row-major entries, got {len(parts)}")
    entries = [_as_medium_expr(p) for p in parts]
    mat = tuple(tuple(entries[3 * i + j] for j in range(3)) for i in range(3))

    from_rho = key == "rho"
    if from_rho:
        det = _det3(mat)
        adj = _adjugate3(mat)
        mat = tuple(tuple(mul(adj[i][j], recip(det)) for j in range(3)) for i in range(3))

    bounds = dict(_DEFAULT_BOUNDS)
    for k in bounds:
        if k in data:
            bounds[k] = float(data[k])
    box = _DEFAULT_BOX
    if "box" in data:
        vals = [float(v) for v in str(data["box"]).split(",")]
        if len(vals) != 6:
            raise MediumError("'box' needs 6 comma-separated floats")
        box = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(3))

    m = MediumSpec(kappa=kappa, alpha=mat, alpha_from_rho=from_rho, box=box, **bounds)
    report = validate(m)
    if not report.passed:
        raise MediumError("medium validation failed:\n" + report.describe())
    return m


def _lattice(box, n):
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=-1)


@dataclass
class ValidationReport:
    kappa_min: float
    kappa_max: float
    rho_eig_min: float
    rho_eig_max: float
    alpha33_min: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"kappa range [{self.kappa_min:.6g}, {self.kappa_max:.6g}]",
            f"sym(rho) eigenvalue range [{self.rho_eig_min:.6g}, {self.rho_eig_max:.6g}]",
            f"alpha33 minimum {self.alpha33_min:.6g}",
        ]
        lines += [f"FAIL: {msg}" for msg in self.failures]
        return "\n".join(lines)


def validate(m: MediumSpec, samples=None, lattice_n: int = 5) -> ValidationReport:
    """Check bounds on a sample set (default: lattice_n^3 lattice over the box)."""
    if samples is None:
        samples = _lattice(m.box, lattice_n)
    samples = np.asarray(samples, dtype=float)
    env = {
        VarId.X1: samples[:, 0],
        VarId.X2: samples[:, 1],
        VarId.X3: samples[:, 2],
    }
    failures = []

    def field_values(e, name):
        try:
            v = np.broadcast_to(np.asarray(eval_expr(e, env)), (len(samples),))
        except ExprError as exc:
            failures.append(f"{name} failed to evaluate: {exc}")
            return None
        if np.max(np.abs(v.imag)) > 1e-12 * (1.0 + np.max(np.abs(v.real))):
            failures.append(f"{name} is not real-valued on the box")
            return None
        return v.real

    kv = field_values(m.kappa, "kappa")
    av = [[field_values(m.alpha[i][j], f"alpha{i+1}{j+1}") for j in range(3)] for i in range(3)]

    kappa_min = kappa_max = np.nan
    if kv is not None:
        kappa_min, kappa_max = float(kv.min()), float(kv.max())
        if kappa_min < m.kappa0 or kappa_max > m.kappa1:
            failures.append(
                f"kappa range [{kappa_min:.6g}, {kappa_max:.6g}] outside [{m.kappa0:.6g}, {m.kappa1:.6g}]"
            )

    rho_min = rho_max = a33_min = np.nan
    if all(av[i][j] is not None for i in range(3) for j in range(3)):
        amat = np.empty((len(samples), 3, 3))
        for i in range(3):
            for j in range(3):
                amat[:, i, j] = av[i][j]
        a33_min = float(amat[:, 2, 2].min())
        if a33_min <= 0:
            failures.append(f"alpha33 must be positive (minimum {a33_min:.6g})")
        dets = np.linalg.det(amat)
        if np.any(np.abs(dets) < 1e-14):
            failures.append("alpha is numerically singular at a sample point")
        else:
            rho = np.linalg.inv(amat)
            sym = 0.5 * (rho + np.transpose(rho, (0, 2, 1)))
            eigs = np.linalg.eigvalsh(sym)
            rho_min, rho_max = float(eigs.min()), float(eigs.max())
            if rho_min < m.rho0 or rho_max > m.rho1:
                failures.append(
                    f"sym(rho) eigenvalues [{rho_min:.6g}, {rho_max:.6g}] outside [{m.rho0:.6g}, {m.rho1:.6g}]"
                )
            if rho_min <= 0:
                failures.append("sym(rho) is not positive definite on the box")

    return ValidationReport(kappa_min, kappa_max, rho_min, rho_max, a33_min, failures)


@dataclass(frozen=True)
class SchurData:
    """Transverse Schur complement Q and its symmetrized variant Qt.

    Q[mu][nu]  = alpha_{mu nu} - alpha_{mu 3} alpha_33^-1 alpha_{3 nu}
    Qt[mu][nu] = alpha_{mu nu} - (alpha_{mu 3}+alpha_{3 mu}) alpha_33^-1
                 (alpha_{nu 3}+alpha_{3 nu}) / 4

    Both are 2x2 in the transverse indices. Qt equals its transpose as
    a quadratic form, and coincides with Q entrywise whenever alpha is
    up/down symmetric (alpha_{mu 3} = alpha_{3 mu}).
    """

    Q: tuple
    Qt: tuple
    dQ: tuple  # dQ[nu] = sum_mu d_mu Q[mu][nu]


def schur(m: MediumSpec) -> SchurData:
    def build():
        inv33 = recip(m.alpha[2][2])
        Q = tuple(
            tuple(
                sub(m.alpha[i][j], mul(mul(m.alpha[i][2], inv33), m.alpha[2][j]))
                for j in range(2)
            )
            for i in range(2)
        )
        quarter = 0.25
        Qt = tuple(
            tuple(
                sub(
                    m.alpha[i][j],
                    mul(
                        mul(quarter, mul((m.alpha[i][2] + m.alpha[2][i]), inv33)),
                        (m.alpha[j][2] + m.alpha[2][j]),
                    ),
                )
                for j in range(2)
            )
            for i in range(2)
        )
        dQ = tuple(diff(Q[0][nu], VarId.X1) + diff(Q[1][nu], VarId.X2) for nu in range(2))
        return SchurData(Q=Q, Qt=Qt, dQ=dQ)

    return m._cache("schur", build)


@dataclass(frozen=True)
class _Coefficients:
    """Coefficient fields of the first-order depth system.

    f[mu] = alpha_{mu 3} / alpha33, g[mu] = alpha_{3 mu} / alpha33,
    inv33 = alpha33^-1, kappa, and the Schur complement Q.
    """

    kappa: Expr
    inv33: Expr
    f: tuple
    g: tuple
    Q: tuple


def _coefficients(m: MediumSpec) -> _Coefficients:
    """The medium's coefficient record, built once and cached on it."""

    def build():
        inv33 = recip(m.alpha[2][2])
        return _Coefficients(
            kappa=m.kappa,
            inv33=inv33,
            f=tuple(m.alpha[mu][2] * inv33 for mu in range(2)),
            g=tuple(m.alpha[2][mu] * inv33 for mu in range(2)),
            Q=schur(m).Q,
        )

    return m._cache("coefficients", build)


def _constant_value(e: Expr, m: MediumSpec) -> complex:
    """Value of a field of a homogeneous medium (taken at the box midpoint)."""
    env = {
        VarId.X1: 0.5 * (m.box[0][0] + m.box[0][1]),
        VarId.X2: 0.5 * (m.box[1][0] + m.box[1][1]),
        VarId.X3: 0.5 * (m.box[2][0] + m.box[2][1]),
    }
    return complex(eval_expr(e, env))


def _x_dependence(m: MediumSpec):
    fv = set(free_vars(m.kappa))
    for row in m.alpha:
        for e in row:
            fv |= free_vars(e)
    return fv


def is_homogeneous(m: MediumSpec, rng=None, samples: int = 8, tol: float = 1e-10) -> bool:
    """True when every material field is constant over the box (sampled)."""
    if not (_x_dependence(m) & set(_XVARS)):
        return True
    if rng is None:
        rng = np.random.default_rng(0)
    pts = np.stack([rng.uniform(lo, hi, samples) for lo, hi in m.box], axis=-1)
    env = {VarId.X1: pts[:, 0], VarId.X2: pts[:, 1], VarId.X3: pts[:, 2]}
    for e in [m.kappa] + [e for row in m.alpha for e in row]:
        v = np.atleast_1d(np.asarray(eval_expr(e, env)))
        if v.size > 1 and np.max(np.abs(v - v.flat[0])) > tol * (1.0 + np.abs(v.flat[0])):
            return False
    return True


def is_depth_independent(m: MediumSpec) -> bool:
    """True when no material field mentions x3 (structural check)."""
    return VarId.X3 not in _x_dependence(m)
