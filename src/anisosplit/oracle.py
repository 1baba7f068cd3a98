"""Independent checks on the admittance expansion.

Three unrelated routes corroborate the symbolic construction:

* scaling of the full-equation residual: the truncated sum is plugged
  into the admittance symbol equation and the residual is measured
  along (xi, s) -> (lam xi, lam s); the log-log slope must match the
  first uncancelled degree,
* an exact quadratic-root oracle for homogeneous media, where the
  symbol equation collapses to a scalar quadratic, and
* a grid oracle on depth-independent media: the 2x2 block systems
  operator is discretized with spectral derivatives on the transverse
  torus, its stable/unstable invariant subspaces give a matrix
  admittance, and quantized symbol truncations are compared against it.

Branch convention everywhere: the + family is the one whose generator
has positive real part (down-going, decaying with increasing depth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    Expr,
    VarId,
    ZERO,
    const,
    diff,
    eval_expr,
    ipow,
    mul,
    recip,
    simplify,
    taylor_eval,
    variable,
)
from .medium import (
    MediumSpec,
    _coefficients,
    _constant_value,
    is_depth_independent,
    is_homogeneous,
    schur,
)
from .expansion import AdmittanceExpansion, SplitSymbols, gamma1
from .symbols import (
    SymbolTerm,
    TransverseGrid,
    quantize_apply,
    random_smooth_field,
    systems_symbols,
)

__all__ = [
    "OracleError",
    "GlancingIncidenceError",
    "SpectralGapError",
    "ResidualReport",
    "QuadRoots",
    "GridOracleResult",
    "OrderClaimReport",
    "riccati_residual",
    "quad_oracle",
    "grid_riccati_oracle",
    "operator_distance",
    "order_claim_check",
    "depth_derivative_leading",
    "draw_probe_points",
    "fit_loglog",
    "DEFAULT_LAMBDAS",
]

DEFAULT_LAMBDAS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_XI1 = variable(VarId.XI1)
_XI2 = variable(VarId.XI2)
_S = variable(VarId.S)


class OracleError(Exception):
    pass


class GlancingIncidenceError(OracleError):
    """The quadratic discriminant degenerates at a probe point."""


class SpectralGapError(OracleError):
    """The discrete systems operator has eigenvalues too close to Re = 0."""


def _check_s(s):
    """Both oracles need s (a value or an array) in the open right half plane."""
    if np.any(np.real(s) <= 0):
        raise OracleError("s must lie in the open right half plane")


def _check_lambdas(lambdas) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or not np.all(np.isfinite(lam) & (lam > 0)):
        raise OracleError("scales must be a flat sequence of finite positive numbers")
    if len(set(lam.tolist())) < 2:
        raise OracleError("need at least two distinct scales for a slope fit")
    return lam


def fit_loglog(lambdas, values):
    """Least-squares slope of log(value) against log(lambda).

    Returns (slope, intercept, max_dev) with max_dev the worst absolute
    deviation of log(value) from the fitted line.
    """
    lam = _check_lambdas(lambdas)
    val = np.clip(np.asarray(values, dtype=float), 1e-300, None)
    if val.shape != lam.shape:
        raise OracleError(f"{val.size} values for {lam.size} scales")
    logs = np.log(val)
    slope, intercept = np.polyfit(np.log(lam), logs, 1)
    dev = float(np.max(np.abs(logs - (slope * np.log(lam) + intercept))))
    return float(slope), float(intercept), dev


def draw_probe_points(m: MediumSpec, count: int, rng=None):
    """Random (x1, x2, x3, xi1, xi2, s) tuples: x in the box, |xi| ~ 1,
    s in the open right half plane away from the imaginary axis."""
    if rng is None:
        rng = np.random.default_rng(7)
    pts = []
    for _ in range(count):
        x = [rng.uniform(lo, hi) for lo, hi in m.box]
        phi = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(0.6, 1.4)
        r = rng.uniform(0.7, 1.4)
        th = rng.uniform(-1.1, 1.1)
        pts.append(
            (
                x[0],
                x[1],
                x[2],
                mag * math.cos(phi),
                mag * math.sin(phi),
                r * complex(math.cos(th), math.sin(th)),
            )
        )
    return pts


# ---------------------------------------------------------------------------
# residual scaling


# Residual rms at or below this fraction of the summands' rms is float64
# rounding of an exact cancellation (see ResidualReport.at_rounding_level).
_ROUNDING_RTOL = 64 * np.finfo(float).eps

# From this order on the slope fit leaves out scales below _FIT_FROM: at
# order 4 on heterogeneous_full the local slope between lam = 4 and 8 is
# -8.6, pre-asymptotic, and pulls a fit over all of DEFAULT_LAMBDAS to -4.4.
_WINDOW_ORDER = 4
_FIT_FROM = 8.0


@dataclass(frozen=True)
class ResidualReport:
    """Scaling diagnostics for the truncated admittance symbol.

    ``term_rms`` is, per scale, the rms over probes of the summed
    magnitudes of the equation's summands: the size of what the
    residual cancels. The slope is fitted over the scales >= ``fit_from``:
    all of them up to order 3; from order 4 on only lam >= 8 when at
    least two such scales are given, since smaller ones are still
    pre-asymptotic there.
    """

    order: int
    eta: int
    beta_cap: int
    lambdas: tuple
    rms: tuple
    slope: float
    intercept: float
    fit_max_dev: float
    expected_slope: float
    slope_tol: float = 0.3
    term_rms: tuple = ()
    fit_from: float = 0.0

    @property
    def at_rounding_level(self) -> bool:
        """True when rms <= 64 eps * term_rms at every scale.

        The residual is then float64 rounding of an exact cancellation,
        as for a homogeneous medium, whose truncated sum solves the
        symbol equation exactly; its slope (about +1, the growth of the
        summands) says nothing about the order. Measured: 0.6-1.1 eps on
        the homogeneous presets and demos/example.cfg; at least 2e10 eps
        at some scale on every heterogeneous preset through order 3.
        """
        return bool(self.term_rms) and all(
            r <= _ROUNDING_RTOL * t for r, t in zip(self.rms, self.term_rms)
        )

    @property
    def passed(self) -> bool:
        """The fitted slope matches the order, or nothing is left to fit."""
        slope_ok = abs(self.slope - self.expected_slope) <= self.slope_tol
        return slope_ok or self.at_rounding_level

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        floor = ", at float rounding level" if self.at_rounding_level else ""
        window = ""
        if self.fit_from > min(self.lambdas):
            window = (
                f", fit over lam >= {self.fit_from:g}"
                f" (pre-asymptotic below from order {_WINDOW_ORDER})"
            )
        return (
            f"residual slope {self.slope:+.3f} (expected {self.expected_slope:+.1f} "
            f"+- {self.slope_tol}), fit dev {self.fit_max_dev:.2e}{window}{floor} [{status}]"
        )


def _probe_env(points) -> dict:
    """Env for probe points (x1, x2, x3, xi1, xi2, s), one entry per point."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 6:
        raise OracleError(
            "probe points must form a non-empty (k, 6) array of "
            f"(x1, x2, x3, xi1, xi2, s); got shape {pts.shape}"
        )
    return {
        VarId.X1: pts[:, 0].real,
        VarId.X2: pts[:, 1].real,
        VarId.X3: pts[:, 2].real,
        VarId.XI1: pts[:, 3].real,
        VarId.XI2: pts[:, 4].real,
        VarId.S: pts[:, 5],
    }


def _scaling_env(points, lambdas) -> dict:
    """Env for probe points moved along the scaling ray (x, lam xi, lam s):
    axis 0 runs over points, axis 1 over lambdas."""
    env = _probe_env(points)
    lam = _check_lambdas(lambdas)
    scaled = (VarId.XI1, VarId.XI2, VarId.S)
    return {
        v: vals[:, None] * lam[None, :] if v in scaled else vals[:, None]
        for v, vals in env.items()
    }


def _jet_directions(degree: int) -> np.ndarray:
    """degree + 1 unit directions in a coordinate plane, shape (degree + 1, 2).

    The angles follow the van der Corput sequence in [0, pi) (0, pi/2,
    pi/4, 3 pi/4, pi/8, ...), so the first d + 1 directions are well
    spread for every d and recover all partials of total degree d.
    """
    vdc = [
        sum(((j >> i) & 1) / 2 ** (i + 1) for i in range(j.bit_length()))
        for j in range(degree + 1)
    ]
    angles = np.pi * np.array(vdc)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _mixed_partials(jet: np.ndarray, dirs: np.ndarray, top: int) -> dict:
    """{(b1, b2): d^beta f / beta!} for |beta| <= top from univariate jets.

    ``jet[d, j]`` is the degree-d Taylor coefficient of f along
    ``dirs[j]``, i.e. sum over |beta| = d of (d^beta f / beta!) u^beta;
    the first d + 1 directions give a (d + 1) x (d + 1) interpolation
    system for the d + 1 partials of degree d (Griewank, Utke & Walther,
    Math. Comp. 69, 2000).
    """
    out = {}
    for d in range(top + 1):
        b1 = np.arange(d + 1)
        u = dirs[: d + 1]
        vander = u[:, :1] ** b1 * u[:, 1:] ** (d - b1)
        coeffs = jet[d, : d + 1]
        sol = np.linalg.solve(vander, coeffs.reshape(d + 1, -1)).reshape(coeffs.shape)
        for i in range(d + 1):
            out[(i, d - i)] = sol[i]
    return out


def _residual_values(exp: AdmittanceExpansion, env: dict, beta_cap: int):
    """Full symbol equation applied to the plain truncated sum, per probe,
    and the summed magnitudes of its summands.

    R = sum_{|beta| <= beta_cap} (-i)^|beta| / beta! d_xi^beta y d_x^beta b
        - a11_1 y - (d_x1(f1 y) + d_x2(f2 y)) - a12 - eta d_x3 y

    with b = s alpha33^-1 y + a22_1 and f_mu = alpha_{mu 3} / alpha33. The
    composition tail is capped at |beta| <= beta_cap; the capped part
    scales below the first uncancelled degree for beta_cap >= order + 1,
    so it never pollutes the slope. The derivatives come from Taylor jets
    pushed through the term DAG: xi-jets of y, x-jets of b, f1 y and f2 y.
    """
    m = exp.medium
    A = systems_symbols(m)
    inv33 = recip(m.alpha[2][2])
    y = ZERO
    for t in exp.terms:
        y = y + t.expr
    y = simplify(y)
    b = simplify(_S * inv33 * y + A.a22.term(1))
    f1 = simplify(m.alpha[0][2] * inv33)
    f2 = simplify(m.alpha[1][2] * inv33)

    degree = max(beta_cap, 1)
    dirs = _jet_directions(degree)
    (y_xi,) = taylor_eval([y], env, {VarId.XI1: dirs[:, 0], VarId.XI2: dirs[:, 1]}, degree)
    b_x, f1y_x, f2y_x = taylor_eval(
        [b, mul(f1, y), mul(f2, y)], env, {VarId.X1: dirs[:, 0], VarId.X2: dirs[:, 1]}, degree
    )
    dy = _mixed_partials(y_xi, dirs, beta_cap)
    db = _mixed_partials(b_x, dirs, beta_cap)
    acc = 0
    size = 0
    for r in range(beta_cap + 1):
        for b1 in range(r + 1):
            beta = (b1, r - b1)
            cf = (-1j) ** r * (math.factorial(b1) * math.factorial(r - b1))
            term = cf * (dy[beta] * db[beta])
            acc = acc + term
            size = size + np.abs(term)

    yv = y_xi[0, 0]
    rest = [
        eval_expr(A.a11.term(1), env) * yv,
        _mixed_partials(f1y_x, dirs, 1)[(1, 0)] + _mixed_partials(f2y_x, dirs, 1)[(0, 1)],
        eval_expr(A.a12.term(1) + A.a12.term(0), env),
    ]
    if exp.eta:
        (y_x3,) = taylor_eval([y], env, {VarId.X3: [1.0]}, 1)
        rest.append(y_x3[1, 0])
    for term in rest:
        acc = acc - term
        size = size + np.abs(term)
    return acc, size


def riccati_residual(
    exp: AdmittanceExpansion,
    points=None,
    lambdas=DEFAULT_LAMBDAS,
    rng=None,
) -> ResidualReport:
    """Measure the symbol-equation residual along the scaling ray.

    With terms through degree -N the equation cancels down to degree
    -N + 1, so |residual| ~ lam^-N; the report carries the fitted slope
    against the expectation -N (fitted from lam = 8 on for N >= 4, see
    ``ResidualReport``). The composition tail is capped at order N + 1.
    """
    beta_cap = exp.order + 1
    if points is None:
        points = draw_probe_points(exp.medium, 6, rng)
    env = _scaling_env(points, lambdas)
    lam = np.asarray(lambdas, dtype=float)
    vals, size = _residual_values(exp, env, beta_cap)
    rms = np.sqrt(np.mean(np.abs(vals) ** 2, axis=0))
    term_rms = np.sqrt(np.mean(size**2, axis=0))
    fit = np.ones(lam.shape, dtype=bool)
    if exp.order >= _WINDOW_ORDER and len(set(lam[lam >= _FIT_FROM].tolist())) >= 2:
        fit = lam >= _FIT_FROM
    slope, intercept, dev = fit_loglog(lam[fit], rms[fit])
    return ResidualReport(
        order=exp.order,
        eta=exp.eta,
        beta_cap=beta_cap,
        lambdas=tuple(float(v) for v in lam),
        rms=tuple(float(v) for v in rms),
        slope=slope,
        intercept=intercept,
        fit_max_dev=dev,
        expected_slope=float(-exp.order),
        term_rms=tuple(float(v) for v in term_rms),
        fit_from=float(lam[fit].min()),
    )


# ---------------------------------------------------------------------------
# homogeneous quadratic oracle


@dataclass(frozen=True)
class QuadRoots:
    """Exact admittance values for a homogeneous medium (per probe)."""

    y_plus: np.ndarray
    y_minus: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray


def quad_oracle(m: MediumSpec, xi, s) -> QuadRoots:
    """Admittance of a homogeneous medium from the scalar quadratic.

    In constant coefficients the symbol equation is exactly
    a21 y^2 + (a22 - a11) y - a12 = 0; the two roots are labelled by
    the sign of Re(a21 y + a22) (the would-be generator). Raises
    GlancingIncidenceError when the discriminant degenerates and
    OracleError when the labelling is ambiguous or the medium varies.
    """
    if not is_homogeneous(m):
        raise OracleError("quad_oracle needs a homogeneous medium")
    xi_arr = np.atleast_2d(np.asarray(xi, dtype=float))
    if xi_arr.shape[-1] != 2:
        raise OracleError("xi must have two components")
    s_arr = np.broadcast_to(np.asarray(s, dtype=complex), (xi_arr.shape[0],)).copy()
    _check_s(s_arr)

    a = [[_constant_value(m.alpha[i][j], m) for j in range(3)] for i in range(3)]
    kap = _constant_value(m.kappa, m)
    sd = schur(m)
    Q = [[_constant_value(sd.Q[i][j], m) for j in range(2)] for i in range(2)]

    x1, x2 = xi_arr[:, 0], xi_arr[:, 1]
    inv33 = 1.0 / a[2][2]
    a11 = 1j * (x1 * a[0][2] + x2 * a[1][2]) * inv33
    a22 = 1j * (x1 * a[2][0] + x2 * a[2][1]) * inv33
    a21 = s_arr * inv33
    qform = (
        Q[0][0] * x1 * x1 + (Q[0][1] + Q[1][0]) * x1 * x2 + Q[1][1] * x2 * x2
    )
    a12 = s_arr * kap + qform / s_arr

    disc = (a22 - a11) ** 2 + 4.0 * a21 * a12
    scale = np.abs(a22 - a11) ** 2 + 4.0 * np.abs(a21) * np.abs(a12) + 1e-300
    if np.any(np.abs(disc) <= 1e-12 * scale):
        raise GlancingIncidenceError("discriminant vanishes (glancing incidence)")
    sq = np.sqrt(disc)
    r1 = (a11 - a22 + sq) / (2.0 * a21)
    r2 = (a11 - a22 - sq) / (2.0 * a21)
    g1 = a21 * r1 + a22
    g2 = a21 * r2 + a22
    take1 = g1.real > 0
    if np.any(take1 == (g2.real > 0)):
        raise OracleError("cannot label branches: generator signs agree")
    y_plus = np.where(take1, r1, r2)
    y_minus = np.where(take1, r2, r1)
    g_plus = np.where(take1, g1, g2)
    g_minus = np.where(take1, g2, g1)
    return QuadRoots(y_plus=y_plus, y_minus=y_minus, g_plus=g_plus, g_minus=g_minus)


# ---------------------------------------------------------------------------
# grid oracle

# largest condition number of the matrix I +- S22 that the grid oracle
# inverts
_COND_CAP = 1e10
# Newton steps the sign iteration may take before it gives up: the
# oracle's matrix at n = 16, s = 40 takes four, and an eigenvalue
# 1e-6 |lam| off the imaginary axis (the default gap) about 22
_SIGN_MAX_ITER = 100


@dataclass(frozen=True)
class GridOracleResult:
    """Matrix admittances extracted from the discrete systems operator."""

    grid: TransverseGrid
    s: complex
    y_plus: np.ndarray
    y_minus: np.ndarray
    eigenvalues: np.ndarray
    gap: float
    cond_plus: float
    cond_minus: float
    riccati_rel_plus: float
    riccati_rel_minus: float
    blocks: tuple  # (A11, A12, A21, A22)


def _check_grid_periodic(m: MediumSpec, grid: TransverseGrid):
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(5, 2)) * np.array([grid.L1, grid.L2])
    fields = [m.kappa] + [e for row in m.alpha for e in row]
    for e in fields:
        base = np.asarray(
            eval_expr(e, {VarId.X1: pts[:, 0], VarId.X2: pts[:, 1], VarId.X3: 0.0})
        )
        for shift in ((grid.L1, 0.0), (0.0, grid.L2)):
            moved = np.asarray(
                eval_expr(
                    e,
                    {
                        VarId.X1: pts[:, 0] + shift[0],
                        VarId.X2: pts[:, 1] + shift[1],
                        VarId.X3: 0.0,
                    },
                )
            )
            if np.max(np.abs(moved - base)) > 1e-9 * (1.0 + np.max(np.abs(base))):
                raise OracleError(
                    "medium is not periodic over the grid box; the spectral "
                    "discretization would be inconsistent"
                )


def _derivative_matrix(n: int, L: float) -> np.ndarray:
    w = 2.0 * np.pi * np.fft.fftfreq(n) * n / L
    F = np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft((1j * w)[:, None] * F, axis=0)


def _matrix_sign(X: np.ndarray) -> np.ndarray:
    """sign(X) by the scaled Newton iteration X <- (mu X + (mu X)^-1) / 2.

    Frobenius-norm scaling mu = sqrt(|X^-1| / |X|) until the relative step
    falls below 1e-2, and Higham's stopping test (Functions of Matrices,
    Alg. 5.14): |X_new - X| <= sqrt(tol |X_new| / |X^-1|) with tol = n eps,
    or a relative step that stops halving once unscaled. X is consumed:
    each step overwrites the inverse's buffer with the update. Raises
    SpectralGapError on a singular iterate (an eigenvalue on or at the
    imaginary axis) or when the iteration does not converge.
    """
    tol = X.shape[0] * np.finfo(float).eps
    scale = True
    last = math.inf
    for _ in range(_SIGN_MAX_ITER):
        try:
            Y = np.linalg.inv(X)
        except np.linalg.LinAlgError:
            raise SpectralGapError(
                "singular iterate in the sign iteration: an eigenvalue lies on "
                "the imaginary axis"
            ) from None
        norm_x, norm_y = np.linalg.norm(X), np.linalg.norm(Y)
        if not math.isfinite(norm_y):
            break
        mu = math.sqrt(norm_y / norm_x) if scale else 1.0
        # Y becomes the new iterate and X the step, in the two buffers
        Y *= 0.5 / mu
        X *= 0.5 * mu
        Y += X
        X *= 2.0 / mu
        X -= Y
        step, norm_new = np.linalg.norm(X), np.linalg.norm(Y)
        X = Y
        rel = step / norm_new
        if scale and rel <= 1e-2:
            scale = False
        if step <= math.sqrt(tol * norm_new / norm_y) or (not scale and rel > last / 2):
            return X
        last = rel
    raise SpectralGapError(
        f"sign iteration did not converge in {_SIGN_MAX_ITER} steps: the "
        "spectrum crowds the imaginary axis"
    )


def grid_riccati_oracle(
    m: MediumSpec,
    grid: TransverseGrid,
    s,
    gap_rtol: float = 1e-6,
) -> GridOracleResult:
    """Matrix admittance from the invariant subspaces of the discrete
    systems operator.

    Needs a depth-independent medium whose fields are periodic over the
    grid box. The flattened operator A acts on (v3, p) stacked; modes
    evolve like exp(-lam x3), so eigenvalues with Re lam > 0 make up the
    + (down-going) family. The spectral projectors (I +- S)/2 of the
    matrix sign S = sign(A) (``_matrix_sign``) span the two invariant
    subspaces; their last N = n^2 columns give
    Y+- = W V^-1 = +-S12 (I +- S22)^-1 with no eigenvectors. The family
    eigenvalues are those of A21 Y+- + A22, and ``cond_plus`` /
    ``cond_minus`` are the 2-norm condition numbers of I +- S22. On
    ``transverse_anisotropic`` at n = 16 and s = 40 (A is 512 x 512) a
    call takes 0.5-0.65 s on one core of a 2-core x86 host: four
    512 x 512 inverses (0.26 s) and two 256 x 256 eigenvalue solves
    (0.2 s); a dense eigendecomposition of A took 1.0-1.25 s.
    Raises SpectralGapError on a thin spectral gap or a failed sign
    iteration, and OracleError on unequal family sizes or an
    ill-conditioned I +- S22.
    """
    if not is_depth_independent(m):
        raise OracleError("grid oracle needs a depth-independent medium")
    s = complex(s)
    _check_s(s)
    _check_grid_periodic(m, grid)

    n = grid.n
    N = n * n
    D1 = np.kron(_derivative_matrix(n, grid.L1), np.eye(n))
    D2 = np.kron(np.eye(n), _derivative_matrix(n, grid.L2))
    c = _coefficients(m)

    def sample(e):
        return grid.sample(e, 0.0, s).ravel()

    Q = [[sample(c.Q[i][j]) for j in range(2)] for i in range(2)]
    A11 = D1 * sample(c.f[0]) + D2 * sample(c.f[1])
    A12 = np.diag(s * sample(c.kappa)) - (
        (D1 * Q[0][0]) @ D1 + (D1 * Q[0][1]) @ D2 + (D2 * Q[1][0]) @ D1 + (D2 * Q[1][1]) @ D2
    ) / s
    a21 = s * sample(c.inv33)
    A21 = np.diag(a21)
    A22 = sample(c.g[0])[:, None] * D1 + sample(c.g[1])[:, None] * D2

    S = _matrix_sign(np.block([[A11, A12], [A21, A22]]))
    plus = (2 * N + round(float(np.trace(S).real))) // 2
    if plus != N:
        raise OracleError(f"family sizes {plus} / {2 * N - plus} are not equal")
    S12 = S[:N, N:]
    S22 = S[N:, N:]
    eye = np.eye(N)

    def family(sign):
        V = eye + sign * S22
        cond = float(np.linalg.cond(V))
        if cond > _COND_CAP:
            raise OracleError(
                f"I {'+' if sign > 0 else '-'} S22 condition {cond:.3e} exceeds {_COND_CAP:.1e}"
            )
        Y = sign * np.linalg.solve(V.T, S12.T).T
        lam = np.linalg.eigvals(a21[:, None] * Y + A22)
        t1 = (Y * a21) @ Y
        t2 = Y @ A22
        t3 = A11 @ Y
        resid = t1 + t2 - t3 - A12
        denom = sum(np.linalg.norm(t) for t in (t1, t2, t3, A12)) + 1e-300
        return Y, lam, cond, float(np.linalg.norm(resid) / denom)

    y_plus, lam_p, cond_p, rel_p = family(1)
    y_minus, lam_m, cond_m, rel_m = family(-1)
    lam = np.concatenate([lam_p, lam_m])
    scale = float(np.max(np.abs(lam)))
    gap = float(np.min(np.abs(lam.real)))
    if gap < gap_rtol * scale:
        raise SpectralGapError(
            f"eigenvalue within {gap:.3e} of the imaginary axis (scale {scale:.3e})"
        )
    if np.any(lam_p.real <= 0) or np.any(lam_m.real >= 0):
        raise SpectralGapError("the sign split put an eigenvalue in the wrong family")
    return GridOracleResult(
        grid=grid,
        s=s,
        y_plus=y_plus,
        y_minus=y_minus,
        eigenvalues=lam,
        gap=gap,
        cond_plus=cond_p,
        cond_minus=cond_m,
        riccati_rel_plus=rel_p,
        riccati_rel_minus=rel_m,
        blocks=(A11, A12, A21, A22),
    )


def operator_distance(
    sym,
    ymat: np.ndarray,
    grid: TransverseGrid,
    s,
    probes: int = 8,
    rng=None,
    x3: float = 0.0,
) -> float:
    """Worst relative disagreement between Op(sym) and a matrix operator
    over band-limited random probe fields."""
    if rng is None:
        rng = np.random.default_rng(3)
    if probes < 1:
        raise OracleError("operator_distance needs at least one probe field")
    fields = np.stack([random_smooth_field(grid, rng) for _ in range(probes)])
    gots = quantize_apply(sym, fields, grid, x3, s)
    worst = 0.0
    for u, got in zip(fields, gots):
        ref = (ymat @ u.ravel()).reshape(u.shape)
        denom = np.linalg.norm(ref)
        if denom < 1e-300:
            raise OracleError("reference operator annihilated a probe field")
        worst = max(worst, float(np.linalg.norm(got - ref) / denom))
    return worst


# ---------------------------------------------------------------------------
# order bookkeeping


@dataclass(frozen=True)
class OrderClaimReport:
    """Measured growth orders of the composition p and of d3 ell."""

    lambdas: tuple
    p_slope: float | None
    d3_slope: float | None
    p_rms: tuple
    d3_rms: tuple
    p_expected: float = 1.0
    d3_expected: float = 0.0
    slope_tol: float = 0.3

    @property
    def passed(self) -> bool:
        ok_p = self.p_slope is None or abs(self.p_slope - self.p_expected) <= self.slope_tol
        ok_d = self.d3_slope is None or abs(self.d3_slope - self.d3_expected) <= self.slope_tol
        return ok_p and ok_d

    def describe(self) -> str:
        fmt = lambda v: "exactly 0" if v is None else f"{v:+.3f}"
        status = "ok" if self.passed else "FAIL"
        return (
            f"p grows like lam^{fmt(self.p_slope)} (expected +1), "
            f"d3 ell like lam^{fmt(self.d3_slope)} (expected 0) [{status}]"
        )


def _scaling_rms(expr: Expr, points, lambdas):
    vals = np.asarray(eval_expr(expr, _scaling_env(points, lambdas)))
    return np.sqrt(np.mean(np.abs(vals) ** 2, axis=0))


def order_claim_check(
    split: SplitSymbols, points=None, lambdas=DEFAULT_LAMBDAS, rng=None
) -> OrderClaimReport:
    """Check that p = ell o g is first order while d3 ell is zeroth order.

    This is the quantitative form of the claim that the depth
    derivative of the composition matrix sits one order below the
    generator, which is what licenses dropping it at leading order in
    the approximate (eta = 0) splitting.
    """
    if points is None:
        points = draw_probe_points(split.medium, 6, rng)
    p_expr = simplify(split.p[0][0].total())
    d3_expr = simplify(split.d3_ell[0][0].total())

    p_slope = d3_slope = None
    p_rms = d3_rms = ()
    if not (p_expr.op == "const" and p_expr.data == 0):
        vals = _scaling_rms(p_expr, points, lambdas)
        p_slope, _, _ = fit_loglog(lambdas, vals)
        p_rms = tuple(float(v) for v in vals)
    if not (d3_expr.op == "const" and d3_expr.data == 0):
        vals = _scaling_rms(d3_expr, points, lambdas)
        d3_slope, _, _ = fit_loglog(lambdas, vals)
        d3_rms = tuple(float(v) for v in vals)
    return OrderClaimReport(
        lambdas=tuple(float(v) for v in lambdas),
        p_slope=p_slope,
        d3_slope=d3_slope,
        p_rms=p_rms,
        d3_rms=d3_rms,
    )


def depth_derivative_leading(m: MediumSpec, sign: int) -> SymbolTerm:
    """Hand formula for the degree-0 part of d3 y.

    s^-1 (-(1/2) i xi_mu d3(a_{3mu} - a_{mu3})
          +- (2 gamma1)^-1 (s^2 d3 kappa + (d3 Qt_{mu nu}) xi_mu xi_nu)).

    It coincides with the exact derivative of the leading term when
    alpha33 is depth independent and identically one; for general media
    the exact symbolic derivative picks up extra d3 alpha33 terms.
    """
    if sign not in (1, -1):
        raise OracleError("sign must be +1 or -1")
    sd = schur(m)
    g = gamma1(m)
    drift = const(1j) * (
        _XI1 * diff(simplify(m.alpha[2][0] - m.alpha[0][2]), VarId.X3)
        + _XI2 * diff(simplify(m.alpha[2][1] - m.alpha[1][2]), VarId.X3)
    )
    xis = (_XI1, _XI2)
    qdot = ipow(_S, 2) * diff(m.kappa, VarId.X3)
    for mu in range(2):
        for nu in range(2):
            qdot = qdot + diff(sd.Qt[mu][nu], VarId.X3) * xis[mu] * xis[nu]
    e = recip(_S) * (
        const(-0.5) * drift
        + const(sign) * recip(const(2) * g.expr) * qdot
    )
    return SymbolTerm(simplify(e), 0)
