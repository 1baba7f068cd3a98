"""Shared probe utilities for the test suite."""

from __future__ import annotations

import math

import numpy as np

from anisosplit import VarId, const, diff, eval_expr, simplify, systems_symbols, variable
from anisosplit.expr import ZERO, mul, recip
from anisosplit.oracle import _probe_env as probe_env, _scaling_env

_S = variable(VarId.S)


def eval_at(expr, points) -> np.ndarray:
    pts = np.asarray(points, dtype=complex)
    return np.broadcast_to(
        np.asarray(eval_expr(expr, probe_env(points))), (pts.shape[0],)
    )


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale))


def field_rel(got, want) -> float:
    """Norm-relative distance, the right notion for grid fields."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def dft2_matrix(n: int) -> np.ndarray:
    """Dense 2D DFT acting on C-order raveled (n, n) fields (test oracle)."""
    F = np.fft.fft(np.eye(n), axis=0)
    return np.kron(F, F)


def random_points(rng, count: int, box=None):
    """Probe tuples with x in the box, |xi| near 1, Re s > 0."""
    if box is None:
        box = ((0.0, 6.283185307179586),) * 3
    pts = []
    for _ in range(count):
        x = [rng.uniform(lo, hi) for lo, hi in box]
        phi = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(0.6, 1.4)
        r = rng.uniform(0.7, 1.4)
        th = rng.uniform(-1.1, 1.1)
        pts.append(
            (x[0], x[1], x[2], mag * np.cos(phi), mag * np.sin(phi),
             r * complex(np.cos(th), np.sin(th)))
        )
    return pts


def residual_expr(exp, beta_cap: int):
    """Full symbol equation applied to the plain truncated sum, built
    symbolically (the independent oracle for ``riccati_residual``).

    The composition tail is capped at |beta| <= beta_cap; the capped
    part scales below the first uncancelled degree for beta_cap >=
    order + 1, so it never pollutes the slope.
    """
    m = exp.medium
    A = systems_symbols(m)
    inv33 = recip(m.alpha[2][2])
    y = ZERO
    for t in exp.terms:
        y = y + t.expr
    y = simplify(y)
    b = simplify(_S * inv33 * y + A.a22.term(1))

    dxi = {(0, 0): y}
    dxb = {(0, 0): b}
    acc = ZERO
    for r in range(0, beta_cap + 1):
        coeff_i = (-1j) ** r
        for b1 in range(r + 1):
            b2 = r - b1
            if (b1, b2) not in dxi:
                src = (b1 - 1, b2) if b1 else (b1, b2 - 1)
                v = VarId.XI1 if b1 else VarId.XI2
                dxi[(b1, b2)] = diff(dxi[src], v)
            if (b1, b2) not in dxb:
                src = (b1 - 1, b2) if b1 else (b1, b2 - 1)
                v = VarId.X1 if b1 else VarId.X2
                dxb[(b1, b2)] = diff(dxb[src], v)
            cf = coeff_i / (math.factorial(b1) * math.factorial(b2))
            acc = acc + mul(const(cf), mul(dxi[(b1, b2)], dxb[(b1, b2)]))

    f1 = simplify(m.alpha[0][2] * inv33)
    f2 = simplify(m.alpha[1][2] * inv33)
    acc = acc - A.a11.term(1) * y
    acc = acc - (diff(mul(f1, y), VarId.X1) + diff(mul(f2, y), VarId.X2))
    acc = acc - (A.a12.term(1) + A.a12.term(0))
    if exp.eta:
        acc = acc - diff(y, VarId.X3)
    return simplify(acc)


def symbolic_residual_rms(exp, points, lambdas, beta_cap=None):
    """Per-lambda rms of ``residual_expr`` on the scaling ray (x, lam xi, lam s)."""
    if beta_cap is None:
        beta_cap = exp.order + 1
    env = _scaling_env(points, lambdas)
    vals = np.asarray(eval_expr(residual_expr(exp, beta_cap), env))
    return np.sqrt(np.mean(np.abs(vals) ** 2, axis=0))
