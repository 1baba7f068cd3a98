"""Depth evolution: the full two-component system and the split one-way
equations.

The transform-domain system is d3 F = -A(x3) F + N for F = (v3, p),
with A the 2x2 block operator quantizing the systems symbols. The full
solver steps this with classical RK4 using exact spectral derivatives
on the transverse torus (or, for homogeneous media, an exact per-mode
2x2 exponential). The one-way solvers step d3 u = -G u with G the
quantized split generator of the chosen branch.

Conventions: depth increases downward, the + branch decays with
increasing depth for Re s > 0. Sources enter through ``build_rhs``
which maps physical (q, f) forcing into the (v3, p) components.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .expr import VarId, free_vars, recip, simplify
from .medium import MediumSpec, is_depth_independent, is_homogeneous
from .expansion import SplitSymbols
from .oracle import _constant_value, _grid_field, quad_oracle
from .symbols import (
    TransverseGrid,
    _kernel_rows,
    quantize_apply,
    spectral_derivative,
)

__all__ = [
    "PropagationError",
    "Wavefield",
    "build_rhs",
    "apply_systems_operator",
    "full_solve",
    "oneway_solve",
    "recompose",
    "decompose_homogeneous",
]


class PropagationError(Exception):
    pass


@dataclass(frozen=True)
class Wavefield:
    """One scalar grid field tagged with its role and transform point."""

    values: np.ndarray
    grid: TransverseGrid
    component: str = "p"
    x3: float = 0.0
    s: complex = 1.0 + 0j

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n, self.grid.n):
            raise PropagationError(
                f"values shape {v.shape} does not match grid {self.grid.n}"
            )
        object.__setattr__(self, "values", v)

    def with_values(self, values, x3=None):
        return replace(
            self, values=values, x3=self.x3 if x3 is None else float(x3)
        )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


# ---------------------------------------------------------------------------
# coefficient fields


def _coeff_exprs(m: MediumSpec) -> dict:
    def build():
        from .medium import schur

        inv33 = recip(m.alpha[2][2])
        sd = schur(m)
        return {
            "kappa": simplify(m.kappa),
            "inv33": simplify(inv33),
            "f1": simplify(m.alpha[0][2] * inv33),
            "f2": simplify(m.alpha[1][2] * inv33),
            "g1": simplify(m.alpha[2][0] * inv33),
            "g2": simplify(m.alpha[2][1] * inv33),
            "Q": sd.Q,
            "alpha": m.alpha,
        }

    return m._cache("coeff_exprs", build)


def apply_systems_operator(m: MediumSpec, grid: TransverseGrid, s, x3, v3, p):
    """A(x3) applied to (v3, p) with exact spectral transverse derivatives."""
    s = complex(s)
    c = _coeff_exprs(m)
    v3 = np.asarray(v3, dtype=np.complex128)
    p = np.asarray(p, dtype=np.complex128)

    d1p = spectral_derivative(p, grid, 1)
    d2p = spectral_derivative(p, grid, 2)
    flux1 = _grid_field(c["Q"][0][0], grid, x3) * d1p + _grid_field(c["Q"][0][1], grid, x3) * d2p
    flux2 = _grid_field(c["Q"][1][0], grid, x3) * d1p + _grid_field(c["Q"][1][1], grid, x3) * d2p
    r1 = (
        spectral_derivative(_grid_field(c["f1"], grid, x3) * v3, grid, 1)
        + spectral_derivative(_grid_field(c["f2"], grid, x3) * v3, grid, 2)
        + s * _grid_field(c["kappa"], grid, x3) * p
        - (
            spectral_derivative(flux1, grid, 1)
            + spectral_derivative(flux2, grid, 2)
        )
        / s
    )
    r2 = (
        s * _grid_field(c["inv33"], grid, x3) * v3
        + _grid_field(c["g1"], grid, x3) * d1p
        + _grid_field(c["g2"], grid, x3) * d2p
    )
    return r1, r2


def build_rhs(m: MediumSpec, grid: TransverseGrid, s, x3, q=None, f=None):
    """Map physical forcing (q, f1, f2, f3) to the (v3, p) source pair.

    q is the injection-rate term and f the force density; either may be
    None (zero). Returns (n1, n2) to be added to the right side of
    d3 F = -A F + N.
    """
    s = complex(s)
    zero = np.zeros((grid.n, grid.n), dtype=np.complex128)
    q = zero if q is None else np.asarray(q, dtype=np.complex128)
    fs = [zero, zero, zero]
    if f is not None:
        fs = [zero if fi is None else np.asarray(fi, dtype=np.complex128) for fi in f]
        if len(fs) != 3:
            raise PropagationError("f must have three components")
    c = _coeff_exprs(m)
    alpha = c["alpha"]

    def afield(i, j):
        return _grid_field(alpha[i][j], grid, x3)

    row1 = sum(afield(0, k) * fs[k] for k in range(3))
    row2 = sum(afield(1, k) * fs[k] for k in range(3))
    v2 = sum(afield(2, k) * fs[k] for k in range(3))
    w = q - (
        spectral_derivative(row1, grid, 1) + spectral_derivative(row2, grid, 2)
    ) / s
    n1 = w + (
        spectral_derivative(_grid_field(c["f1"], grid, x3) * v2, grid, 1)
        + spectral_derivative(_grid_field(c["f2"], grid, x3) * v2, grid, 2)
    )
    n2 = _grid_field(c["inv33"], grid, x3) * v2
    return n1, n2


# ---------------------------------------------------------------------------
# full two-component solve


def _expm2x2(B: np.ndarray) -> np.ndarray:
    """exp of a stack of 2x2 matrices, closed form.

    B = m I + N with N traceless and N^2 = d2 I, so
    exp(B) = e^m (cosh(delta) I + sinhc(delta) N), delta = sqrt(d2).
    """
    B = np.asarray(B, dtype=np.complex128)
    mhalf = 0.5 * (B[..., 0, 0] + B[..., 1, 1])
    half_diff = 0.5 * (B[..., 0, 0] - B[..., 1, 1])
    d2 = half_diff**2 + B[..., 0, 1] * B[..., 1, 0]
    delta = np.sqrt(d2)
    small = np.abs(delta) < 1e-6
    safe = np.where(small, 1.0, delta)
    sinhc = np.where(small, 1.0 + d2 / 6.0, np.sinh(safe) / safe)
    ch = np.cosh(delta)
    em = np.exp(mhalf)
    out = np.empty_like(B)
    out[..., 0, 0] = em * (ch + sinhc * half_diff)
    out[..., 1, 1] = em * (ch - sinhc * half_diff)
    out[..., 0, 1] = em * sinhc * B[..., 0, 1]
    out[..., 1, 0] = em * sinhc * B[..., 1, 0]
    return out


def _mode_matrices(m: MediumSpec, grid: TransverseGrid, s: complex) -> np.ndarray:
    """Per-mode 2x2 systems matrices of a homogeneous medium, shape (n*n, 2, 2)."""
    c = _coeff_exprs(m)
    W1g, W2g = grid.xi_mesh()
    x1, x2 = W1g.ravel(), W2g.ravel()
    f1, f2 = _constant_value(c["f1"], m), _constant_value(c["f2"], m)
    g1, g2 = _constant_value(c["g1"], m), _constant_value(c["g2"], m)
    inv33 = _constant_value(c["inv33"], m)
    kap = _constant_value(c["kappa"], m)
    Q = [[_constant_value(c["Q"][i][j], m) for j in range(2)] for i in range(2)]
    qform = Q[0][0] * x1 * x1 + (Q[0][1] + Q[1][0]) * x1 * x2 + Q[1][1] * x2 * x2
    A = np.zeros((x1.size, 2, 2), dtype=np.complex128)
    A[:, 0, 0] = 1j * (x1 * f1 + x2 * f2)
    A[:, 0, 1] = s * kap + qform / s
    A[:, 1, 0] = s * inv33
    A[:, 1, 1] = 1j * (x1 * g1 + x2 * g2)
    return A


def _segments(a: float, b: float, record):
    depths = [float(a), float(b)]
    if record:
        lo, hi = min(a, b), max(a, b)
        for d in record:
            d = float(d)
            if not lo - 1e-12 <= d <= hi + 1e-12:
                raise PropagationError(f"record depth {d} outside [{lo}, {hi}]")
            depths.append(d)
    uniq = sorted(set(depths), reverse=b < a)
    return uniq


def full_solve(
    m: MediumSpec,
    grid: TransverseGrid,
    s,
    v3,
    p,
    a: float,
    b: float,
    steps: int = 64,
    method: str = "auto",
    record=None,
):
    """Integrate d3 F = -A F from depth a to depth b.

    method "exact" (homogeneous media only) applies the per-mode matrix
    exponential and is exact for the discrete system; "rk4" steps with
    classical RK4; "auto" picks exact when the medium allows it.
    Returns a list of (x3, v3, p) snapshots at a, the requested record
    depths, and b. Raises PropagationError on blow-up.
    """
    s = complex(s)
    if steps < 1:
        raise PropagationError("steps must be positive")
    if method not in ("auto", "rk4", "exact"):
        raise PropagationError(f"unknown method {method!r}")
    if method == "exact" and not is_homogeneous(m):
        raise PropagationError("exact stepping needs a homogeneous medium")
    if method == "auto":
        method = "exact" if is_homogeneous(m) else "rk4"

    v3 = np.asarray(v3, dtype=np.complex128).copy()
    p = np.asarray(p, dtype=np.complex128).copy()
    base = max(np.linalg.norm(v3), np.linalg.norm(p)) + 1.0
    depths = _segments(a, b, record)
    out = [(depths[0], v3.copy(), p.copy())]
    total = abs(b - a)

    if method == "exact":
        modes = _mode_matrices(m, grid, s)
        for d0, d1 in zip(depths, depths[1:]):
            E = _expm2x2(-(d1 - d0) * modes)
            vh = np.fft.fft2(v3).ravel()
            ph = np.fft.fft2(p).ravel()
            vh, ph = (
                E[:, 0, 0] * vh + E[:, 0, 1] * ph,
                E[:, 1, 0] * vh + E[:, 1, 1] * ph,
            )
            v3 = np.fft.ifft2(vh.reshape(grid.n, grid.n))
            p = np.fft.ifft2(ph.reshape(grid.n, grid.n))
            _guard(v3, p, base)
            out.append((d1, v3.copy(), p.copy()))
        return out

    for d0, d1 in zip(depths, depths[1:]):
        seg_steps = max(1, round(steps * abs(d1 - d0) / total)) if total else 1
        h = (d1 - d0) / seg_steps
        x3 = d0
        for _ in range(seg_steps):
            k1 = apply_systems_operator(m, grid, s, x3, v3, p)
            k2 = apply_systems_operator(
                m, grid, s, x3 + h / 2, v3 - h / 2 * k1[0], p - h / 2 * k1[1]
            )
            k3 = apply_systems_operator(
                m, grid, s, x3 + h / 2, v3 - h / 2 * k2[0], p - h / 2 * k2[1]
            )
            k4 = apply_systems_operator(m, grid, s, x3 + h, v3 - h * k3[0], p - h * k3[1])
            v3 = v3 - h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            p = p - h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            x3 += h
            _guard(v3, p, base)
        out.append((d1, v3.copy(), p.copy()))
    return out


def _guard(v3, p, base):
    norm = max(np.linalg.norm(v3), np.linalg.norm(p))
    if not np.isfinite(norm) or norm > 1e8 * base:
        raise PropagationError("field norm blew up during depth stepping")


# ---------------------------------------------------------------------------
# one-way solve


def _physical_kernel(sym, grid: TransverseGrid, x3, s) -> np.ndarray:
    """Quantized symbol composed with the forward 2D DFT: grid values in,
    grid values out.

    The DFT matrix kron(F, F) is symmetric, so right-multiplying by it is
    an fft2 of each kernel row; each row block is transformed in place
    as soon as it is built.
    """
    n = grid.n
    out = np.empty((n * n, n * n), dtype=np.complex128)
    for block in _kernel_rows(sym, grid, x3, s, out):
        block[...] = np.fft.fft2(block.reshape(-1, n, n)).reshape(block.shape)
    return out


class _KernelCache:
    """Physical-to-physical generator matrices keyed by depth, small LRU.

    quantize_matrix maps a spectrum to grid values, so the stored
    operator is its composition with the forward DFT.
    """

    def __init__(self, sym, grid, s, capacity=8):
        self.sym = sym
        self.grid = grid
        self.s = s
        self.store = OrderedDict()
        self.capacity = capacity

    def at(self, x3: float) -> np.ndarray:
        key = round(float(x3), 12)
        got = self.store.get(key)
        if got is None:
            got = _physical_kernel(self.sym, self.grid, x3, self.s)
            self.store[key] = got
            if len(self.store) > self.capacity:
                self.store.popitem(last=False)
        else:
            self.store.move_to_end(key)
        return got


def oneway_solve(
    split: SplitSymbols,
    sign: int,
    grid: TransverseGrid,
    s,
    u,
    a: float,
    b: float,
    steps: int = 64,
    method: str = "rk4",
    trunc: int | None = None,
    record=None,
):
    """Integrate the one-way equation d3 u = -G u for one branch.

    G is the quantization of the branch generator (optionally truncated
    to ``trunc`` correction orders). method "rk4" steps the quantized
    action; "expmid" applies the exact exponential of the frozen
    midpoint kernel per segment (midpoint-frozen, so exact only for
    depth-independent media). Returns (x3, u) snapshots as in
    ``full_solve``.
    """
    s = complex(s)
    g = split.g_symbol(sign)
    if trunc is not None:
        if not 0 <= trunc <= split.order:
            raise PropagationError(
                f"trunc must be between 0 and the split order {split.order}"
            )
        g = g.truncate(1 - trunc)
    if method not in ("rk4", "expmid"):
        raise PropagationError(f"unknown method {method!r}")
    if steps < 1:
        raise PropagationError("steps must be positive")

    u = np.asarray(u, dtype=np.complex128).copy()
    base = np.linalg.norm(u) + 1.0
    depths = _segments(a, b, record)
    out = [(depths[0], u.copy())]
    total = abs(b - a)
    depth_free = is_depth_independent(split.medium)

    if method == "expmid":
        cache = _KernelCache(g, grid, s)
        for d0, d1 in zip(depths, depths[1:]):
            mid = 0.0 if depth_free else 0.5 * (d0 + d1)
            E = scipy.linalg.expm(-(d1 - d0) * cache.at(mid))
            u = (E @ u.ravel()).reshape(grid.n, grid.n)
            _guard_one(u, base)
            out.append((d1, u.copy()))
        return out

    cache = _KernelCache(g, grid, s)
    fv = free_vars(simplify(g.total()))
    fast = not (fv & {VarId.X1, VarId.X2}) or not (fv & {VarId.XI1, VarId.XI2})

    def act(x3, field):
        if fast:
            # pointwise or pure-multiplier symbol: cheaper than a kernel matrix
            return quantize_apply(g, field, grid, x3, s)
        mat = cache.at(0.0 if depth_free else x3)
        return (mat @ field.ravel()).reshape(field.shape)

    for d0, d1 in zip(depths, depths[1:]):
        seg_steps = max(1, round(steps * abs(d1 - d0) / total)) if total else 1
        h = (d1 - d0) / seg_steps
        x3 = d0
        for _ in range(seg_steps):
            k1 = act(x3, u)
            k2 = act(x3 + h / 2, u - h / 2 * k1)
            k3 = act(x3 + h / 2, u - h / 2 * k2)
            k4 = act(x3 + h, u - h * k3)
            u = u - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x3 += h
            _guard_one(u, base)
        out.append((d1, u.copy()))
    return out


def _guard_one(u, base):
    norm = np.linalg.norm(u)
    if not np.isfinite(norm) or norm > 1e8 * base:
        raise PropagationError("field norm blew up during one-way stepping")


# ---------------------------------------------------------------------------
# composition maps


def recompose(split: SplitSymbols, u_plus, u_minus, grid: TransverseGrid, s, x3=0.0):
    """Apply the composition matrix: (v3, p) from the split pair."""
    s = complex(s)
    up = np.asarray(u_plus, dtype=np.complex128)
    um = np.asarray(u_minus, dtype=np.complex128)
    v3 = quantize_apply(split.ell[0][0], up, grid, x3, s) + quantize_apply(
        split.ell[0][1], um, grid, x3, s
    )
    p = quantize_apply(split.ell[1][0], up, grid, x3, s) + quantize_apply(
        split.ell[1][1], um, grid, x3, s
    )
    return v3, p


def decompose_homogeneous(m: MediumSpec, v3, p, grid: TransverseGrid, s):
    """Split (v3, p) into (u+, u-) for a homogeneous medium.

    Inverts the exact 2x2 composition matrix per mode using the
    quadratic-oracle admittances; the Nyquist row/column is projected
    out, matching the quantization convention.
    """
    s = complex(s)
    if not is_homogeneous(m):
        raise PropagationError("modal decomposition needs a homogeneous medium")
    W1g, W2g = grid.xi_mesh()
    xi_all = np.stack([W1g.ravel(), W2g.ravel()], axis=-1)
    roots = quad_oracle(m, xi_all, s)
    denom = roots.y_plus - roots.y_minus
    if np.any(np.abs(denom) < 1e-300):
        raise PropagationError("coincident admittance branches on the grid")
    mask = grid.nyquist_mask().ravel()
    vh = np.fft.fft2(np.asarray(v3, dtype=np.complex128)).ravel()
    ph = np.fft.fft2(np.asarray(p, dtype=np.complex128)).ravel()
    uph = np.where(mask, (vh - roots.y_minus * ph) / denom, 0.0)
    umh = np.where(mask, (roots.y_plus * ph - vh) / denom, 0.0)
    n = grid.n
    u_plus = np.fft.ifft2(uph.reshape(n, n))
    u_minus = np.fft.ifft2(umh.reshape(n, n))
    return u_plus, u_minus
