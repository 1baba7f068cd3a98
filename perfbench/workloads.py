"""The benchmark's three workloads: media, seeded inputs, timed calls and checks.

A workload object is built inside a fresh worker process. Its ``calls``
form the timed phase; its ``checks`` run afterwards and verify the
outputs. Each step is ``(name, function, needs)``: a step whose needed
steps did not succeed is counted as failed without running. Calls store
their results on the workload; checks raise ``CheckFailed`` when an
output is wrong.

Media are the preset formulas written out as config text and handed to
``load_medium``; the ``presets`` module is never called. The seed drives
only the probe points and the initial fields.
"""

from __future__ import annotations

import configparser
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

TAU = "6.283185307179586"
_BOX = f"box = 0, {TAU}, 0, {TAU}, 0, {TAU}\n"

MEDIA = {
    # presets.heterogeneous_full
    "heterogeneous_full": (
        "[medium]\n"
        "kappa = 1 + 0.2*sin(x1)*cos(x3)\n"
        "alpha = 2 + 0.2*sin(x1)*cos(x2), 0.3, 0.4 + 0.1*sin(x3),\n"
        "        0.1, 1.8 + 0.2*cos(x2), 0.2 + 0.1*cos(x3),\n"
        "        0.5 + 0.1*cos(x1), 0.3, 1.5 + 0.2*sin(x3)\n" + _BOX
    ),
    # presets.transverse_anisotropic
    "transverse_anisotropic": (
        "[medium]\n"
        "kappa = 1 + 0.2*sin(x1)*sin(x2)\n"
        "alpha = 2 + 0.2*cos(x1), 0.2, 0.3,\n"
        "        0.1, 1.8 + 0.2*sin(x2), 0.2,\n"
        "        0.4, 0.3 + 0.1*cos(x2), 1.5 + 0.2*cos(x1)\n" + _BOX
    ),
}

EXPAND_ORDER = 4
TEXT_ORDER = 3  # to_text covers y_0 .. y_-3, what `anisosplit expand` writes
REFERENCE_ORDER = 3  # stored term values are checked for orders <= 3
REFERENCE_RTOL = 1e-12
HOMOGENEITY_RTOL = 1e-7  # the tolerance of expand's own smoke test
EXPAND_PROBES = 32
RESIDUAL_ORDERS = (1, 2)
RESIDUAL_PROBES = 6
SLOPE_TOL = 0.3
STATIC_N, STATIC_STEPS, DEPTH_N, DEPTH_STEPS = 32, 16, 16, 8
MARCH_S, MARCH_DEPTH = 2.0, 0.5
ORACLE_N, ORACLE_S, DISTANCE_PROBES = 16, 40.0, 4
ORACLE_RESIDUAL_MAX = 1e-8
FIELD_RTOL = 1e-8
BASIS_SIZE = 3  # seeded initial fields are combinations of fixed basis fields
FUNCTIONALS = 4  # fixed linear functionals the stored field reference keeps


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, detail: str):
    if not ok:
        raise CheckFailed(detail)


def load_medium_text(A, name: str):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(MEDIA[name])
    return A.load_medium(cp["medium"])


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def from_pairs(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def to_pairs(z) -> list:
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# seeded inputs


def probe_points(rng, count: int) -> np.ndarray:
    """(count, 6) complex rows (x1, x2, x3, xi1, xi2, s): x in the 2 pi box,
    |xi| near 1, s in the right half plane away from the imaginary axis."""
    x = rng.uniform(0.0, 2.0 * math.pi, size=(count, 3))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    mag = rng.uniform(0.6, 1.4, size=count)
    r = rng.uniform(0.7, 1.4, size=count)
    th = rng.uniform(-1.1, 1.1, size=count)
    return np.column_stack(
        [x, mag * np.cos(phi), mag * np.sin(phi), r * np.exp(1j * th)]
    ).astype(complex)


def reference_points() -> np.ndarray:
    """Seed-independent probes whose term values are stored."""
    return probe_points(np.random.default_rng(20091), 8)


def probe_env(A, pts: np.ndarray) -> dict:
    V = A.VarId
    return {
        V.X1: pts[:, 0].real,
        V.X2: pts[:, 1].real,
        V.X3: pts[:, 2].real,
        V.XI1: pts[:, 3].real,
        V.XI2: pts[:, 4].real,
        V.S: pts[:, 5],
    }


def scaled(pts: np.ndarray, lam: float) -> np.ndarray:
    out = pts.copy()
    out[:, 3:] *= lam
    return out


def basis_fields(n: int) -> np.ndarray:
    """BASIS_SIZE fixed band-limited (n, n) fields, Nyquist row/column zero."""
    rng = np.random.default_rng(7000 + n)
    k = np.fft.fftfreq(n) * n
    radius = np.hypot(*np.meshgrid(k, k, indexing="ij"))
    keep = np.abs(k) != n // 2
    out = []
    for _ in range(BASIS_SIZE):
        spec = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        spec *= np.exp(-((radius / (n / 6)) ** 2))
        spec *= np.logical_and.outer(keep, keep)
        out.append(np.fft.ifft2(spec))
    return np.asarray(out)


def combine(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    return np.tensordot(coeffs, basis, axes=1)


def functionals(length: int) -> np.ndarray:
    rng = np.random.default_rng(9000 + length)
    return rng.standard_normal((FUNCTIONALS, length)) + 1j * rng.standard_normal(
        (FUNCTIONALS, length)
    )


def field_reference(outputs: np.ndarray) -> dict:
    """What is stored for a linear solve: fixed functionals and the Gram
    matrix of its outputs on the basis inputs (one output per row)."""
    Y = np.asarray(outputs, dtype=complex).reshape(len(outputs), -1)
    W = functionals(Y.shape[1])
    return {"functionals": to_pairs(W.conj() @ Y.T), "gram": to_pairs(Y.conj() @ Y.T)}


def check_field(y, coeffs, ref: dict, rtol: float = FIELD_RTOL):
    """By linearity, output y of input sum_k c_k e_k must satisfy
    W^H y = R c and |y|^2 = c^H G c for the stored R and G."""
    y = np.asarray(y, dtype=complex).ravel()
    require(np.all(np.isfinite(y)), "field has non-finite entries")
    c = np.asarray(coeffs, dtype=complex)
    W = functionals(y.size)
    norm = float(np.linalg.norm(y))
    got = W.conj() @ y
    want = from_pairs(ref["functionals"]) @ c
    err = np.abs(got - want) / (np.linalg.norm(W, axis=1) * norm)
    require(np.all(err <= rtol), f"field functionals off by {err.max():.2e}")
    want_sq = float((c.conj() @ from_pairs(ref["gram"]) @ c).real)
    rel = abs(norm**2 - want_sq) / max(norm**2, 1e-300)
    require(rel <= rtol, f"field norm off by {rel:.2e}")


# ---------------------------------------------------------------------------
# workloads


class Expand:
    """heterogeneous_full, + branch, eta=1: expand to order 4, print
    y_0..y_-3 with to_text, evaluate every term at the probes."""

    name = "expand"
    ops = (
        "expansion.expand", "expr.to_text", "expr.eval",
        "check.homogeneity", "check.reference",
    )

    def __init__(self, A, seed: int, tracer):
        self.A, self.tracer = A, tracer
        with tracer.span("medium.load"):
            self.m = load_medium_text(A, "heterogeneous_full")
        pts = np.concatenate(
            [reference_points(), probe_points(np.random.default_rng(seed), EXPAND_PROBES)]
        )
        self.npts = len(pts)
        self.env = probe_env(A, np.concatenate([pts, scaled(pts, 2.0)]))
        self.calls = (
            ("expansion.expand", self.expand, ()),
            ("expr.to_text", self.to_text, ("expansion.expand",)),
            ("expr.eval", self.eval, ("expansion.expand",)),
        )
        self.checks = (
            ("check.homogeneity", self.check_homogeneity, ("expr.eval",)),
            ("check.reference", self.check_reference, ("expr.eval", "expr.to_text")),
        )

    def expand(self):
        # check_terms=True runs the homogeneity smoke test on each term
        self.exp = self.A.expand(self.m, 1, 1, EXPAND_ORDER, check_terms=True)

    def to_text(self):
        self.texts = [self.A.to_text(self.exp.term(-k)) for k in range(TEXT_ORDER + 1)]

    def eval(self):
        size = 2 * self.npts
        self.values = {}
        for k in range(EXPAND_ORDER, -1, -1):
            with self.tracer.span(f"expr.eval_y{k}"):
                v = self.A.eval_expr(self.exp.term(-k), self.env)
            self.values[k] = np.broadcast_to(np.asarray(v, dtype=complex), (size,))

    def check_homogeneity(self):
        for k, v in self.values.items():
            base, big = v[: self.npts], v[self.npts :]
            rel = np.abs(big - 2.0**-k * base) / np.maximum(np.abs(2.0**-k * base), 1e-30)
            require(
                np.all(np.isfinite(v)) and rel.max() <= HOMOGENEITY_RTOL,
                f"y_-{k} is not homogeneous of degree -{k}: {rel.max():.2e}",
            )

    def check_reference(self):
        require(all(self.texts), "to_text returned an empty term")
        ref = load_reference()["expand"]
        nref = len(reference_points())
        for k in range(REFERENCE_ORDER + 1):
            want = from_pairs(ref[f"y{k}"])
            got = self.values[k][:nref]
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
            require(rel.max() <= REFERENCE_RTOL, f"y_-{k} differs from reference: {rel.max():.2e}")

    def counts(self) -> dict:
        nc = self.A.node_count
        return {
            "expansion.nodes_y3": nc(self.exp.term(-3)),
            "expansion.nodes_y4": nc(self.exp.term(-4)),
            "expr.to_text_mb": sum(len(t) for t in self.texts) / 2**20,
        }


class Residual:
    """heterogeneous_full, + branch, eta=1: riccati_residual of the order-N
    expansion for N = 1, 2 at 6 seeded probes (criterion 2's path)."""

    name = "residual"
    ops = tuple(
        f"{layer}_o{n}" for n in RESIDUAL_ORDERS for layer in ("expansion.expand", "oracle.residual")
    ) + tuple(f"check.slope_o{n}" for n in RESIDUAL_ORDERS) + ("check.rms64_decreasing",)

    def __init__(self, A, seed: int, tracer):
        self.A, self.tracer = A, tracer
        with tracer.span("medium.load"):
            self.m = load_medium_text(A, "heterogeneous_full")
        self.points = [tuple(p) for p in probe_points(np.random.default_rng(seed), RESIDUAL_PROBES)]
        self.exps, self.reports = {}, {}
        self.calls = tuple(
            step
            for n in RESIDUAL_ORDERS
            for step in (
                (f"expansion.expand_o{n}", self._expand(n), ()),
                (f"oracle.residual_o{n}", self._residual(n), (f"expansion.expand_o{n}",)),
            )
        )
        self.checks = tuple(
            (f"check.slope_o{n}", self._slope(n), (f"oracle.residual_o{n}",))
            for n in RESIDUAL_ORDERS
        ) + (
            (
                "check.rms64_decreasing",
                self.check_decreasing,
                tuple(f"oracle.residual_o{n}" for n in RESIDUAL_ORDERS),
            ),
        )

    def _expand(self, n):
        def call():
            self.exps[n] = self.A.expand(self.m, 1, 1, n)
        return call

    def _residual(self, n):
        def call():
            self.reports[n] = self.A.riccati_residual(
                self.exps[n], points=self.points, lambdas=self.A.DEFAULT_LAMBDAS
            )
        return call

    def _slope(self, n):
        def check():
            slope = self.reports[n].slope
            require(abs(slope + n) <= SLOPE_TOL, f"order {n} residual slope {slope:+.3f}")
        return check

    def check_decreasing(self):
        at = list(self.A.DEFAULT_LAMBDAS).index(64.0)
        rms = [self.reports[n].rms[at] for n in RESIDUAL_ORDERS]
        require(all(a > b for a, b in zip(rms, rms[1:])), f"rms at lambda=64 not decreasing: {rms}")

    def counts(self) -> dict:
        return {}


class March:
    """Quantized one-way and full marches: the depth-independent
    transverse_anisotropic medium at n=32 (one kernel, reused) with the
    grid Riccati oracle at n=16, and the depth-varying heterogeneous_full
    medium at n=16 (a new kernel at almost every RK4 stage depth)."""

    name = "march"
    ops = (
        "expansion.split", "propagate.oneway_static", "propagate.full_static",
        "oracle.grid", "oracle.distance", "propagate.oneway_depth", "propagate.full_depth",
        "check.oracle_residual", "check.distances_monotone", "check.oneway_static",
        "check.full_static", "check.oneway_depth", "check.full_depth",
    )

    def __init__(self, A, seed: int, tracer):
        self.A, self.tracer = A, tracer
        with tracer.span("medium.load"):
            self.mt = load_medium_text(A, "transverse_anisotropic")
            self.mh = load_medium_text(A, "heterogeneous_full")
        tau = float(TAU)
        self.grids = {n: A.TransverseGrid(n, tau, tau) for n in (STATIC_N, DEPTH_N, ORACLE_N)}
        # part -> (medium, grid, RK4 steps)
        self.parts = {
            "static": (self.mt, self.grids[STATIC_N], STATIC_STEPS),
            "depth": (self.mh, self.grids[DEPTH_N], DEPTH_STEPS),
        }
        rng = np.random.default_rng(seed)
        self.coeffs = {
            key: rng.standard_normal(size) + 1j * rng.standard_normal(size)
            for key, size in (
                ("oneway_static", BASIS_SIZE),
                ("full_static", 2 * BASIS_SIZE),
                ("oneway_depth", BASIS_SIZE),
                ("full_depth", 2 * BASIS_SIZE),
            )
        }
        self.inputs = {}
        for part, (_, grid, _) in self.parts.items():
            B = basis_fields(grid.n)
            full = self.coeffs[f"full_{part}"]
            self.inputs[f"oneway_{part}"] = combine(B, self.coeffs[f"oneway_{part}"])
            self.inputs[f"full_{part}"] = (
                combine(B, full[:BASIS_SIZE]),
                combine(B, full[BASIS_SIZE:]),
            )
        self.distance_rng = np.random.default_rng([seed, 6])
        self.out = {}
        self.calls = (
            ("expansion.split", self.split, ()),
            ("propagate.oneway_static", self._oneway("static"), ("expansion.split",)),
            ("propagate.full_static", self._full("static"), ()),
            ("oracle.grid", self.grid_oracle, ()),
            ("oracle.distance", self.distances, ("expansion.split", "oracle.grid")),
            ("propagate.oneway_depth", self._oneway("depth"), ("expansion.split",)),
            ("propagate.full_depth", self._full("depth"), ()),
        )
        self.checks = (
            ("check.oracle_residual", self.check_oracle, ("oracle.grid",)),
            ("check.distances_monotone", self.check_distances, ("oracle.distance",)),
        ) + tuple(
            (f"check.{key}", self._check_field(key), (f"propagate.{key}",))
            for key in ("oneway_static", "full_static", "oneway_depth", "full_depth")
        )

    def split(self):
        A = self.A
        self.plus_t = A.expand(self.mt, 1, 1, 2)
        self.splits = {
            "static": A.split_symbols(self.plus_t, A.expand(self.mt, -1, 1, 2)),
            "depth": A.split_symbols(A.expand(self.mh, 1, 1, 2), A.expand(self.mh, -1, 1, 2)),
        }

    def _oneway(self, part):
        def call():
            _, grid, steps = self.parts[part]
            snaps = self.A.oneway_solve(
                self.splits[part], 1, grid, MARCH_S, self.inputs[f"oneway_{part}"],
                0.0, MARCH_DEPTH, steps=steps, method="rk4",
            )
            self.out[f"oneway_{part}"] = snaps[-1][1]
        return call

    def _full(self, part):
        def call():
            m, grid, steps = self.parts[part]
            v3, p = self.inputs[f"full_{part}"]
            snaps = self.A.full_solve(
                m, grid, MARCH_S, v3, p, 0.0, MARCH_DEPTH, steps=steps, method="rk4"
            )
            self.out[f"full_{part}"] = np.concatenate([snaps[-1][1].ravel(), snaps[-1][2].ravel()])
        return call

    def grid_oracle(self):
        self.oracle = self.A.grid_riccati_oracle(self.mt, self.grids[ORACLE_N], ORACLE_S)

    def distances(self):
        self.dists = [
            self.A.operator_distance(
                self.plus_t.series(k), self.oracle.y_plus, self.grids[ORACLE_N], ORACLE_S,
                probes=DISTANCE_PROBES, rng=self.distance_rng,
            )
            for k in (0, 1, 2)
        ]

    def check_oracle(self):
        worst = max(self.oracle.riccati_rel_plus, self.oracle.riccati_rel_minus)
        require(worst <= ORACLE_RESIDUAL_MAX, f"oracle Riccati residual {worst:.2e}")

    def check_distances(self):
        d = self.dists
        require(d[0] >= d[1] >= d[2], f"distances not monotone: {d}")

    def _check_field(self, key):
        def check():
            ref = load_reference()["march"][key]
            check_field(self.out[key], self.coeffs[key], ref)
        return check

    def counts(self) -> dict:
        n = STATIC_N
        return {
            # dense complex128 kernel of n^2 x n^2 entries
            "symbols.kernel_mb": n**4 * 16 / 2**20,
            # four dense complex matvecs per RK4 step, 8 real flops per entry
            "propagate.oneway_step_flops": 4 * 8 * n**4,
        }


WORKLOADS = {w.name: w for w in (Expand, Residual, March)}
