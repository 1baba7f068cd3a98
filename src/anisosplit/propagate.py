"""Depth evolution: the full two-component system and the split one-way
equations.

The transform-domain system is d3 F = -A(x3) F for F = (v3, p),
with A the 2x2 block operator quantizing the systems symbols. The full
solver steps this with classical RK4 using exact spectral derivatives
on the transverse torus (or, for homogeneous media, an exact per-mode
2x2 exponential); both discretizations of A live in ``symbols``
(``_systems_action``, ``_mode_matrices``), which the grid and quadratic
oracles share. The one-way solvers step d3 u = -G u with G the
quantized split generator of the chosen branch.

Conventions: depth increases downward, the + branch decays with
increasing depth for Re s > 0.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .medium import MediumSpec, is_homogeneous
from .expansion import SplitSymbols
from .oracle import quad_oracle
from .symbols import TransverseGrid, quantize_apply
from .symbols import _coefficient_sampler, _mode_matrices, _systems_action

__all__ = [
    "PropagationError",
    "full_solve",
    "oneway_solve",
    "recompose",
    "decompose_homogeneous",
]


class PropagationError(Exception):
    pass


# ---------------------------------------------------------------------------
# depth marching


# the methods each solver takes
_METHODS = {"full": ("auto", "rk4", "exact"), "oneway": ("rk4", "expmid")}


def _check_method(solver: str, method):
    if method not in _METHODS[solver]:
        raise PropagationError(f"unknown method {method!r}")


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
    _check_method("full", method)
    if method == "exact" and not is_homogeneous(m):
        raise PropagationError("exact stepping needs a homogeneous medium")
    if method == "auto":
        method = "exact" if is_homogeneous(m) else "rk4"

    if method == "rk4":
        coeffs = _coefficient_sampler(m, grid, s)

        def systems(x3, fields):
            return _systems_action(coeffs(x3), grid, s, *fields)

        return _march((v3, p), a, b, record, steps, rhs=systems)

    W1g, W2g = grid.xi_mesh()
    modes = _mode_matrices(m, W1g.ravel(), W2g.ravel(), s)

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


@contextmanager
def _overflow_typed(d0, d1):
    """Raise a segment exponential's floating-point overflow as
    PropagationError: an exponentially growing segment overflows inside
    the exponential itself, before the blow-up guard can look at the
    field."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise PropagationError(
            f"segment exponential over [{d0}, {d1}] overflowed ({exc})"
        ) from None


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
    depth-independent media), which for a Fourier-multiplier generator
    is the diagonal exp(-h G(xi)) on the spectrum, and otherwise forms
    the dense grid-to-grid kernel. Returns (x3, u) snapshots as in
    ``full_solve``.
    """
    s = complex(s)
    g = split.g_symbol(sign)
    if trunc is not None:
        if not 0 <= trunc <= split.order:
            raise PropagationError(
                f"trunc must be between 0 and the split order {split.order}"
            )
        g = {d: f for d, f in g.items() if d >= 1 - trunc}
    _check_method("oneway", method)
    if steps < 1:
        raise PropagationError("steps must be positive")

    op = grid.operator(g, s)

    if method == "expmid" and op.kind == "multiplier":
        keep = grid.nyquist_mask()

        def diagonal(d0, d1, fields):
            # the projected kernel annihilates the Nyquist row/column, so
            # its exponential passes those modes through unchanged
            g_mid = np.where(keep, op.values(0.5 * (d0 + d1)), 0.0)
            with _overflow_typed(d0, d1):
                u1 = np.fft.ifft2(np.exp(-(d1 - d0) * g_mid) * np.fft.fft2(fields[0]))
            return (u1,)

        return _march((u,), a, b, record, steps, propagator=diagonal)

    if method == "expmid":
        # scipy.linalg takes 0.2-0.4 s to import, and only a
        # segment exponential of a dense kernel needs it
        import scipy.linalg

        def expmid(d0, d1, fields):
            # grid-to-grid: S times the (symmetric) DFT, an fft2 per row
            S = op.values(0.5 * (d0 + d1)).reshape(-1, grid.n, grid.n)
            K = np.fft.fft2(S).reshape(grid.n**2, -1)
            with _overflow_typed(d0, d1):
                u1 = scipy.linalg.expm(-(d1 - d0) * K) @ fields[0].ravel()
            return (u1.reshape(grid.n, grid.n),)

        return _march((u,), a, b, record, steps, propagator=expmid)

    def act(x3, fields):
        return (op.apply(fields[0], x3),)

    return _march((u,), a, b, record, steps, rhs=act)


# ---------------------------------------------------------------------------
# composition maps


def recompose(split: SplitSymbols, u_plus, u_minus, grid: TransverseGrid, s, x3=0.0):
    """Apply the composition matrix: (v3, p) from the split pair."""
    s = complex(s)
    up = np.asarray(u_plus, dtype=np.complex128)
    um = np.asarray(u_minus, dtype=np.complex128)
    v3, p = (
        quantize_apply(row[0], up, grid, x3, s) + quantize_apply(row[1], um, grid, x3, s)
        for row in split.ell_forms
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
