"""Shared probe utilities for the test suite."""

from __future__ import annotations

import numpy as np

from anisosplit import VarId, eval_expr


def probe_env(points) -> dict:
    """Vectorized environment for a list of (x1, x2, x3, xi1, xi2, s)."""
    pts = np.asarray(points, dtype=complex)
    return {
        VarId.X1: pts[:, 0].real,
        VarId.X2: pts[:, 1].real,
        VarId.X3: pts[:, 2].real,
        VarId.XI1: pts[:, 3].real,
        VarId.XI2: pts[:, 4].real,
        VarId.S: pts[:, 5],
    }


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
