"""Independent checks on the admittance expansion.

Three unrelated routes corroborate the symbolic construction:

* the degree-resolved residual of the full equation: the truncated sum
  is plugged into the admittance symbol equation, whose summands are
  homogeneous, so the residual is a sum of degree parts R_d; every R_d
  above the truncation's degree must cancel to float rounding. The
  order claim (p = ell o g first order, d3 ell zeroth) is measured from
  degree parts the same way,
* an exact quadratic-root oracle for homogeneous media, where the
  symbol equation collapses to a scalar quadratic in each Fourier
  mode's 2x2 systems matrix (``symbols._mode_matrices``), and
* a grid oracle on depth-independent media: the matrix A of the 2x2
  block systems operator on the transverse torus is built column by
  column by applying the spectral action that ``full_solve`` integrates
  (``symbols._systems_action``) to unit fields; its stable/unstable
  invariant subspaces give a matrix admittance, and quantized symbol
  truncations are compared against it.

Branch convention everywhere: the + family is the one whose generator
has positive real part (down-going, decaying with increasing depth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .expr import VarId, _conv, eval_expr, taylor_eval
from .medium import MediumSpec, _coefficients, is_depth_independent, is_homogeneous
from .expansion import AdmittanceExpansion, SplitSymbols
from .symbols import (
    TransverseGrid,
    _coefficient_sampler,
    _mode_matrices,
    _systems_action,
    quantize_apply,
    random_smooth_field,
    symbol_total,
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
    "draw_probe_points",
    "fit_loglog",
    "DEFAULT_LAMBDAS",
]

DEFAULT_LAMBDAS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


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
# degree-resolved residual


# A degree part whose rms is at or below this fraction of its summands'
# rms is float64 rounding of an exact cancellation.
_ROUNDING_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ResidualReport:
    """Degree-resolved residual of the truncated admittance symbol.

    Every summand of the symbol equation is homogeneous, so the residual
    R of an order-N truncation is a sum of degree parts,
    R(x, lam xi, lam s) = sum_d lam^d R_d(x, xi, s). ``ratios`` maps each
    degree d = 1 ... -N to rms R_d / rms sum |summands|_d over the probes,
    and the check passes when every d > -N is at the rounding floor
    (``_ROUNDING_RTOL``). ``rms`` is rms_p |sum_d lam^d R_d| per scale,
    with the degrees found cancelled left out (exactly 0) and a failed
    degree kept in; ``slope`` is its log-log fit over every scale, for
    information: it does not enter the verdict.
    """

    order: int
    lambdas: tuple
    rms: tuple
    slope: float
    ratios: dict

    @property
    def expected_slope(self) -> float:
        return float(-self.order)

    @property
    def passed(self) -> bool:
        return all(r <= _ROUNDING_RTOL for d, r in self.ratios.items() if d > -self.order)

    def describe(self) -> str:
        low = 1 - self.order
        span = "degree +1" if low == 1 else f"degrees +1 .. {low:+d}"
        above = {d: r for d, r in self.ratios.items() if d > -self.order}
        failed = {d: r for d, r in above.items() if r > _ROUNDING_RTOL}
        last = self.ratios[-self.order]
        if failed:
            text = "; ".join(f"degree {d:+d} does not cancel: {r:.2e}" for d, r in failed.items())
            text += f" of its summands (rounding floor {_ROUNDING_RTOL:.1e})"
        else:
            text = f"{span} cancel to {max(above.values()):.1e} of their summands"
        if last <= _ROUNDING_RTOL and not failed:
            return (
                f"{text}, and degree {-self.order:+d} too ({last:.1e}): the truncated"
                " sum is exact, as on a homogeneous medium [ok]"
            )
        status = "ok" if self.passed else "FAIL"
        return (
            f"{text}; degree {-self.order:+d} at {last:.2e} [{status}]; for information,"
            f" the log-log slope over all scales is {self.slope:+.3f}"
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


def _rms(vals) -> np.ndarray:
    """Rms over the probes, the last axis."""
    return np.sqrt(np.mean(np.abs(vals) ** 2, axis=-1))


def _along_ray(lam: np.ndarray, degrees: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """sum_d lam^d f_d per scale and probe, shape (scale, probe), from the
    degree parts f_d (rows of ``parts``) of a sum of homogeneous terms: its
    values at (x, lam xi, lam s)."""
    return (lam[:, None] ** degrees[None, :]) @ parts


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
    Math. Comp. 69, 2000). The axes after the first two (probes, or a
    stack of jets and probes) are right-hand sides of one solve per degree.
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


def _partials(jets, dirs: np.ndarray, top: int) -> np.ndarray:
    """The ``_mixed_partials`` to |beta| <= top of each jet, stacked in their
    order: shape (jet, beta, probe)."""
    parts = _mixed_partials(np.stack(jets, axis=2), dirs, top)
    return np.stack(list(parts.values()), axis=1)


def _composition_summands(dp, dq, p_deg, q_deg, top: int):
    """The summands (-i)^|beta| / beta! d_xi^beta p_j d_x^beta q_k, |beta| <= top,
    of the composition of two graded symbols, flattened over (j, k, beta),
    and the degree j + k - |beta| of each. ``dp`` and ``dq`` are the
    ``_partials`` (d^beta f / beta!) of the terms p_j and q_k, whose
    degrees are ``p_deg`` and ``q_deg``."""
    r = np.array([n for n in range(top + 1) for _ in range(n + 1)])
    weight = np.array(
        [
            (-1j) ** n * (math.factorial(b1) * math.factorial(n - b1))
            for n in range(top + 1)
            for b1 in range(n + 1)
        ]
    )
    vals = weight[:, None] * dp[:, None] * dq[None, :]
    deg = np.add.outer(np.add.outer(p_deg, q_deg), -r)
    return vals.reshape(-1, dp.shape[-1]), deg.ravel()


def _by_degree(summands: np.ndarray, degrees: np.ndarray):
    """(degrees, parts, sizes) of homogeneous summands (rows, one column per
    probe) of the given degrees: per degree from the highest down, the sum
    of its summands and the sum of their magnitudes."""
    levels = np.arange(degrees.max(), degrees.min() - 1, -1)
    onehot = (degrees[None, :] == levels[:, None]).astype(float)
    return levels, onehot @ summands, onehot @ np.abs(summands)


def _jets(xi_roots, x_roots, env: dict, dirs: np.ndarray, d3: bool):
    """Taylor jets of ``xi_roots`` along the directions ``dirs`` in the xi
    plane and of ``x_roots`` along the same directions in the x plane, to
    degree len(dirs) - 1 (at least 1), each with one last axis over the
    probes of ``env``: ``_mixed_partials`` reads the plane's partials.
    With ``d3`` every jet also holds x3 as one last direction, and
    ``jet[1, -1]`` is d_x3. One ``taylor_eval`` walks the roots' shared
    DAG once: xi1, xi2 are seeded on a first block of directions, x1, x2
    on a second and x3 on the last, so along the xi block an x-only node's
    jet is 0 past coefficient 0 and each op repeats its plain value's
    floating-point operations. Returns (xi jets, x jets).
    """
    k = len(dirs)
    u = np.zeros((2 * k + d3, 4))
    u[:k, :2] = u[k : 2 * k, 2:] = dirs
    seeds = dict(zip((VarId.XI1, VarId.XI2, VarId.X1, VarId.X2), u.T))
    if d3:
        seeds[VarId.X3] = np.eye(len(u))[-1]
    xi_roots = list(xi_roots)
    jets = taylor_eval(xi_roots + list(x_roots), env, seeds, max(k - 1, 1))
    jets = [np.broadcast_to(jet, jet.shape[:2] + env[VarId.S].shape) for jet in jets]
    n, xi_cols = len(xi_roots), np.r_[:k, 2 * k : len(u)]
    return [jet[:, xi_cols] for jet in jets[:n]], [jet[:, k:] for jet in jets[n:]]


def _residual_parts(exp: AdmittanceExpansion, env: dict):
    """The full symbol equation applied to the plain truncated sum y, by
    degree: (degrees, R_d, sum |summands|_d), rows from degree 1 down, one
    column per probe of ``env``.

    R = y o b - a11 o y - a12 - eta d_x3 y,   b = s alpha33^-1 y + a22_1,

    with p o q = sum_beta (-i)^|beta| / beta! d_xi^beta p d_x^beta q. A
    summand of y_j o b_k has degree j + k - |beta|, one of a11_i o y_j
    i + j - |beta|; a12_d has degree d, and d_x3 y_j degree j. y o b is
    capped at |beta| <= order + 1, which truncates no degree d >= -order;
    a11 is linear in xi, so a11 o y ends at |beta| = 1. Nothing is built:
    one Taylor pass (``_jets``) gives every derivative, the xi partials of
    the terms of y, a11 and a12, the x partials of those of y, alpha33^-1
    and a22_1, and d_x3 y for eta = 1.
    """
    m = exp.medium
    A = systems_symbols(m)
    cap = exp.order + 1
    yd = sorted(exp.forms, reverse=True)
    ys = [exp.term(d) for d in yd]
    a11 = [f.lower() for f in A.a11.values()]
    n, k = len(ys), len(ys) + len(a11)
    dirs = _jet_directions(cap)
    xs = ys + [_coefficients(m).inv33, symbol_total(A.a22)]
    xi, x = _jets(ys + a11 + [f.lower() for f in A.a12.values()], xs, env, dirs, exp.eta)
    b_x = [env[VarId.S] * _conv(x[n], jet) for jet in x[:n]]
    b_x[0] = b_x[0] + x[n + 1]  # b_1 = s alpha33^-1 y_0 + a22_1
    bd = [d + 1 for d in yd]
    summands = [
        _composition_summands(_partials(xi[:n], dirs, cap), _partials(b_x, dirs, cap), yd, bd, cap)
    ]
    if a11:  # empty when alpha13 = alpha23 = 0
        vals, deg = _composition_summands(
            _partials(xi[n:k], dirs, 1), _partials(x[:n], dirs, 1), list(A.a11), yd, 1
        )
        summands.append((-vals, deg))
    summands.append((-np.array([jet[0, 0] for jet in xi[k:]]), np.array(list(A.a12))))
    if exp.eta:
        summands.append((-np.array([jet[1, -1] for jet in x[:n]]), np.array(yd)))
    return _by_degree(*(np.concatenate(parts) for parts in zip(*summands)))


def riccati_residual(
    exp: AdmittanceExpansion,
    points=None,
    lambdas=DEFAULT_LAMBDAS,
    rng=None,
) -> ResidualReport:
    """Check that the symbol equation cancels in every degree above -N.

    With terms through degree -N the recursion cancels the equation's
    degree parts R_d for d > -N. They come from one evaluation at the
    probes (``_residual_parts``); each is judged against the magnitudes of
    its summands, and the rms along the scaling ray is rebuilt from them
    at ``lambdas`` (see ``ResidualReport``).
    """
    if points is None:
        points = draw_probe_points(exp.medium, 6, rng)
    env = _probe_env(points)
    lam = _check_lambdas(lambdas)
    degrees, parts, sizes = _residual_parts(exp, env)
    part_rms, size_rms = _rms(parts), _rms(sizes)
    ratios = np.divide(part_rms, size_rms, out=np.zeros_like(part_rms), where=size_rms > 0)
    cancelled = (degrees > -exp.order) & (ratios <= _ROUNDING_RTOL)
    rms = _rms(_along_ray(lam, degrees, np.where(cancelled[:, None], 0, parts)))
    return ResidualReport(
        order=exp.order,
        lambdas=tuple(float(v) for v in lam),
        rms=tuple(float(v) for v in rms),
        slope=fit_loglog(lam, rms)[0],
        ratios={int(d): float(r) for d, r in zip(degrees, ratios) if d >= -exp.order},
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

    M = _mode_matrices(m, xi_arr[:, 0], xi_arr[:, 1], s_arr)
    a11, a12, a21, a22 = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
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
    grid box. A acts on (v3, p) stacked, each field raveled in C order:
    its column j is the spectral systems action (``_systems_action``,
    which ``full_solve`` integrates) on v3 = e_j, p = 0 and its column
    N + j on v3 = 0, p = e_j, each family of N = n^2 unit fields applied
    as one (N, n, n) stack. Modes evolve like exp(-lam x3), so
    eigenvalues with Re lam > 0 make up the + (down-going) family. The
    spectral projectors (I +- S)/2 of the matrix sign S = sign(A)
    (``_matrix_sign``) span the two invariant subspaces; their last N
    columns give Y+- = W V^-1 = +-S12 (I +- S22)^-1 with no
    eigenvectors. The family eigenvalues are those of A21 Y+- + A22, and
    ``cond_plus`` / ``cond_minus`` are the 2-norm condition numbers of
    I +- S22. On ``transverse_anisotropic`` at n = 16 and s = 40 (A is
    512 x 512) a cold call takes 0.42-0.45 s on one core of a 2-core x86
    host: four 512 x 512 inverses (0.18-0.2 s), two 256 x 256 eigenvalue
    solves (0.12-0.14 s) and building A about 0.03 s; a dense
    eigendecomposition of A took 1.0-1.25 s. Raises SpectralGapError on
    a thin spectral gap or a failed sign iteration, and OracleError on
    unequal family sizes or an ill-conditioned I +- S22.
    """
    if not is_depth_independent(m):
        raise OracleError("grid oracle needs a depth-independent medium")
    s = complex(s)
    _check_s(s)
    _check_grid_periodic(m, grid)

    n = grid.n
    N = n * n
    coeffs = _coefficient_sampler(m, grid, s)(0.0)
    units = np.eye(N, dtype=np.complex128).reshape(N, n, n)
    zero = np.zeros((1, n, n), dtype=np.complex128)
    A = np.empty((2 * N, 2 * N), dtype=np.complex128)
    for cols, fields in ((slice(N), (units, zero)), (slice(N, None), (zero, units))):
        r1, r2 = _systems_action(coeffs, grid, s, *fields)
        A[:N, cols] = r1.reshape(N, N).T
        A[N:, cols] = r2.reshape(N, N).T
    del units, r1, r2
    A11, A12, A21, A22 = A[:N, :N], A[:N, N:], A[N:, :N], A[N:, N:]
    a21 = s * coeffs[1].ravel()  # A21 is diagonal

    S = _matrix_sign(A.copy())
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
    p_slope: float
    d3_slope: float | None
    p_rms: tuple
    d3_rms: tuple
    p_expected: ClassVar[float] = 1.0
    d3_expected: ClassVar[float] = 0.0
    slope_tol: ClassVar[float] = 0.3

    @property
    def passed(self) -> bool:
        ok_p = abs(self.p_slope - self.p_expected) <= self.slope_tol
        ok_d = self.d3_slope is None or abs(self.d3_slope - self.d3_expected) <= self.slope_tol
        return ok_p and ok_d

    def describe(self) -> str:
        fmt = lambda v: "exactly 0" if v is None else f"{v:+.3f}"
        status = "ok" if self.passed else "FAIL"
        return (
            f"p grows like lam^{fmt(self.p_slope)} (expected +1), "
            f"d3 ell like lam^{fmt(self.d3_slope)} (expected 0) [{status}]"
        )


def _order_claim_parts(split: SplitSymbols, env: dict):
    """Degree parts of p and of d3 ell, entry (0, 0), the admittance y+ and
    g+, at the probes of ``env``: ((degrees, p_d), (degrees, d3 ell_d) or
    None), rows from the top degree down, one column per probe.

    p is the composition y+ o g+ truncated at floor = y+'s floor + 1: the
    summands (-i)^|beta| / beta! d_xi^beta y_j d_x^beta g_k of degree
    j + k - |beta| >= floor, from one Taylor pass (``_jets``) that gives
    the xi partials of the y_j and the x partials of the g_k. d3 y_j, of
    degree j, is read from the same pass's x3 direction; the d3 part is
    None when y+ is free of x3.
    """
    ell = {d: f.lower() for d, f in split.ell_forms[0][0].items()}
    g = {d: f.lower() for d, f in split.g_forms[0].items()}
    floor = split.ell_floor + 1
    top = max(ell) + max(g) - floor
    dirs = _jet_directions(top)
    d3 = any(VarId.X3 in e.free_vars for e in ell.values())
    y_xi, g_x = _jets(ell.values(), g.values(), env, dirs, d3)
    vals, deg = _composition_summands(
        _partials(y_xi, dirs, top), _partials(g_x, dirs, top), list(ell), list(g), top
    )
    keep = deg >= floor
    p = _by_degree(vals[keep], deg[keep])[:2]
    if not d3:
        return p, None
    return p, (np.array(list(ell)), np.array([jet[1, -1] for jet in y_xi]))


def order_claim_check(
    split: SplitSymbols, points=None, lambdas=DEFAULT_LAMBDAS, rng=None
) -> OrderClaimReport:
    """Check that p = ell o g is first order while d3 ell is zeroth order.

    This is the quantitative form of the claim that the depth
    derivative of the composition matrix sits one order below the
    generator, which is what licenses dropping it at leading order in
    the approximate (eta = 0) splitting. Both are sums of homogeneous
    parts, evaluated once at the probes by Taylor jets
    (``_order_claim_parts``); their rms along the scaling ray is rebuilt
    from those parts at ``lambdas`` and the slopes are fitted over every
    scale. The d3 ell slope is None when the admittance is free of x3.
    """
    if points is None:
        points = draw_probe_points(split.medium, 6, rng)
    env = _probe_env(points)
    lam = _check_lambdas(lambdas)
    p, d3 = _order_claim_parts(split, env)
    p_rms = _rms(_along_ray(lam, *p))
    p_slope, _, _ = fit_loglog(lam, p_rms)
    d3_slope, d3_rms = None, ()
    if d3 is not None:
        d3_rms = _rms(_along_ray(lam, *d3))
        d3_slope, _, _ = fit_loglog(lam, d3_rms)
    return OrderClaimReport(
        lambdas=tuple(float(v) for v in lam),
        p_slope=p_slope,
        d3_slope=d3_slope,
        p_rms=tuple(float(v) for v in p_rms),
        d3_rms=tuple(float(v) for v in d3_rms),
    )
