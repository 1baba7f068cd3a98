"""Depth evolution: the full two-component system and the split one-way
equations.

The transform-domain system is d3 F = -A(x3) F for F = (v3, p),
with A the 2x2 block operator quantizing the systems symbols. The full
solver steps this with classical RK4 using exact spectral derivatives
on the transverse torus (or, for homogeneous media, an exact per-mode
2x2 exponential). The one-way solvers step d3 u = -G u with G the
quantized split generator of the chosen branch.

Conventions: depth increases downward, the + branch decays with
increasing depth for Re s > 0.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import scipy.linalg

from .medium import MediumSpec, _coefficients, is_depth_independent, is_homogeneous
from .expansion import SplitSymbols
from .oracle import _constant_value, _grid_field, quad_oracle
from .symbols import (
    TransverseGrid,
    _KernelPlan,
    _action,
    _kernel_rows,
    _symbol_total,
    quantize_apply,
    spectral_derivative,
)

__all__ = [
    "PropagationError",
    "apply_systems_operator",
    "full_solve",
    "oneway_solve",
    "recompose",
    "decompose_homogeneous",
]


class PropagationError(Exception):
    pass


def apply_systems_operator(m: MediumSpec, grid: TransverseGrid, s, x3, v3, p):
    """A(x3) applied to (v3, p) with exact spectral transverse derivatives."""
    s = complex(s)
    c = _coefficients(m)
    v3 = np.asarray(v3, dtype=np.complex128)
    p = np.asarray(p, dtype=np.complex128)

    d1p = spectral_derivative(p, grid, 1)
    d2p = spectral_derivative(p, grid, 2)
    flux1 = _grid_field(c.Q[0][0], grid, x3) * d1p + _grid_field(c.Q[0][1], grid, x3) * d2p
    flux2 = _grid_field(c.Q[1][0], grid, x3) * d1p + _grid_field(c.Q[1][1], grid, x3) * d2p
    r1 = (
        spectral_derivative(_grid_field(c.f[0], grid, x3) * v3, grid, 1)
        + spectral_derivative(_grid_field(c.f[1], grid, x3) * v3, grid, 2)
        + s * _grid_field(c.kappa, grid, x3) * p
        - (
            spectral_derivative(flux1, grid, 1)
            + spectral_derivative(flux2, grid, 2)
        )
        / s
    )
    r2 = (
        s * _grid_field(c.inv33, grid, x3) * v3
        + _grid_field(c.g[0], grid, x3) * d1p
        + _grid_field(c.g[1], grid, x3) * d2p
    )
    return r1, r2


# ---------------------------------------------------------------------------
# depth marching


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


def _guard(fields, base):
    norm = np.max([np.linalg.norm(f) for f in fields])
    if not np.isfinite(norm) or norm > 1e8 * base:
        raise PropagationError("field norm blew up during depth stepping")


def _rk4_step(rhs, x3, h, fields):
    """One classical RK4 step of d3 F = -rhs(x3, F) over a tuple of arrays."""
    k1 = rhs(x3, fields)
    k2 = rhs(x3 + h / 2, tuple(f - h / 2 * k for f, k in zip(fields, k1)))
    k3 = rhs(x3 + h / 2, tuple(f - h / 2 * k for f, k in zip(fields, k2)))
    k4 = rhs(x3 + h, tuple(f - h * k for f, k in zip(fields, k3)))
    return tuple(
        f - h / 6 * (q1 + 2 * q2 + 2 * q3 + q4)
        for f, q1, q2, q3, q4 in zip(fields, k1, k2, k3, k4)
    )


def _march(fields, a, b, record, steps, rhs=None, propagator=None):
    """Carry a tuple of grid fields from depth a to depth b.

    The interval is cut at the record depths. Each segment is crossed
    either by ``propagator(d0, d1, fields)`` in one step or, with
    ``rhs``, by classical RK4 steps, ``steps`` of them shared among the
    segments in proportion to their length. The field norm is guarded
    after every step. Returns [(x3, *fields)] at a, the record depths,
    and b.
    """
    fields = tuple(np.array(f, dtype=np.complex128) for f in fields)
    base = np.max([np.linalg.norm(f) for f in fields]) + 1.0
    depths = _segments(a, b, record)
    out = [(depths[0], *fields)]
    total = abs(b - a)
    for d0, d1 in zip(depths, depths[1:]):
        if propagator is not None:
            fields = propagator(d0, d1, fields)
            _guard(fields, base)
        else:
            seg_steps = max(1, round(steps * abs(d1 - d0) / total)) if total else 1
            h = (d1 - d0) / seg_steps
            x3 = d0
            for _ in range(seg_steps):
                fields = _rk4_step(rhs, x3, h, fields)
                x3 += h
                _guard(fields, base)
        out.append((d1, *fields))
    return out


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
    c = _coefficients(m)
    W1g, W2g = grid.xi_mesh()
    x1, x2 = W1g.ravel(), W2g.ravel()
    f1, f2 = (_constant_value(e, m) for e in c.f)
    g1, g2 = (_constant_value(e, m) for e in c.g)
    inv33 = _constant_value(c.inv33, m)
    kap = _constant_value(c.kappa, m)
    Q = [[_constant_value(c.Q[i][j], m) for j in range(2)] for i in range(2)]
    qform = Q[0][0] * x1 * x1 + (Q[0][1] + Q[1][0]) * x1 * x2 + Q[1][1] * x2 * x2
    A = np.zeros((x1.size, 2, 2), dtype=np.complex128)
    A[:, 0, 0] = 1j * (x1 * f1 + x2 * f2)
    A[:, 0, 1] = s * kap + qform / s
    A[:, 1, 0] = s * inv33
    A[:, 1, 1] = 1j * (x1 * g1 + x2 * g2)
    return A


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

    if method == "rk4":

        def systems(x3, fields):
            return apply_systems_operator(m, grid, s, x3, *fields)

        return _march((v3, p), a, b, record, steps, rhs=systems)

    modes = _mode_matrices(m, grid, s)

    def exact(d0, d1, fields):
        E = _expm2x2(-(d1 - d0) * modes)
        vh, ph = (np.fft.fft2(f).ravel() for f in fields)
        vh, ph = (
            E[:, 0, 0] * vh + E[:, 0, 1] * ph,
            E[:, 1, 0] * vh + E[:, 1, 1] * ph,
        )
        return tuple(np.fft.ifft2(f.reshape(grid.n, grid.n)) for f in (vh, ph))

    return _march((v3, p), a, b, record, steps, propagator=exact)


# ---------------------------------------------------------------------------
# one-way solve


def _physical_kernel(sym, grid: TransverseGrid, x3, s) -> np.ndarray:
    """Quantized symbol (or its kernel plan) composed with the forward 2D
    DFT: grid values in, grid values out.

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
    """Physical-to-physical generator matrices keyed by depth.

    quantize_matrix maps a spectrum to grid values, so the stored
    operator is its composition with the forward DFT. An RK4 step reads
    the kernel at its start depth (the previous step's end), twice the
    one at its midpoint, and the one at its end, so two kernels cover
    every reuse; the one read least recently is dropped before a third
    is built. The symbol's kernel plan is made once, for every depth.
    """

    def __init__(self, sym, grid, s):
        self.plan = _KernelPlan(sym)
        self.grid = grid
        self.s = s
        self.store = OrderedDict()

    def at(self, x3: float) -> np.ndarray:
        key = round(float(x3), 12)
        got = self.store.get(key)
        if got is None:
            if len(self.store) == 2:
                self.store.popitem(last=False)
            got = _physical_kernel(self.plan, self.grid, x3, self.s)
            self.store[key] = got
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

    cache = _KernelCache(g, grid, s)
    depth_free = is_depth_independent(split.medium)

    def kernel(x3):
        return cache.at(0.0 if depth_free else x3)

    if method == "expmid":

        def expmid(d0, d1, fields):
            K = kernel(0.5 * (d0 + d1))
            # an exponentially growing segment overflows inside expm's own
            # products, before the blow-up guard can look at the field
            try:
                with np.errstate(over="raise", invalid="raise"):
                    u1 = scipy.linalg.expm(-(d1 - d0) * K) @ fields[0].ravel()
            except FloatingPointError as exc:
                raise PropagationError(
                    f"segment exponential over [{d0}, {d1}] overflowed ({exc})"
                ) from None
            return (u1.reshape(grid.n, grid.n),)

        return _march((u,), a, b, record, steps, propagator=expmid)

    fast = _action(_symbol_total(g)) != "kernel"

    def act(x3, fields):
        (field,) = fields
        if fast:
            # pointwise or pure-multiplier symbol: cheaper than a kernel matrix
            return (quantize_apply(g, field, grid, x3, s),)
        return ((kernel(x3) @ field.ravel()).reshape(field.shape),)

    return _march((u,), a, b, record, steps, rhs=act)


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
