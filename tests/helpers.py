"""Shared probe utilities for the test suite."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from anisosplit import (
    ExpansionError,
    VarId,
    const,
    diff,
    eval_expr,
    gamma1,
    schur,
    symbol_total,
    systems_symbols,
    taylor_eval,
    variable,
)
from anisosplit.expr import ZERO, free_vars, ipow, mul, neg, recip
from anisosplit.medium import _coefficients
from anisosplit.oracle import _jet_directions, _mixed_partials, _probe_env as probe_env
from anisosplit.symbols import _multi_indices

_XI1 = variable(VarId.XI1)
_XI2 = variable(VarId.XI2)
_S = variable(VarId.S)


def stack_walk(roots, enter=None):
    """Oracle for ``expr._walk``: the same (order, nref) from a stack of
    (node, emit) pairs, one pushed per argument slot, and a set of the
    nodes visited beside ``nref``."""
    order = []
    nref = {}
    seen = set()
    stack = [(r, False) for r in reversed(roots) if enter is None or enter(r)]
    while stack:
        node, emit = stack.pop()
        if emit:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for a in node.args if enter is None else filter(enter, node.args):
            nref[a] = nref.get(a, 0) + 1
            stack.append((a, False))
    return order, nref


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


def single_shot_quantize(sym, grid, x3, s):
    """The spectral matrix of the quantized symbol (rows over the x-grid,
    columns over the xi-lattice, Nyquist columns zero) by one broadcast
    evaluation of the symbol in DAG order over all n^2 x n^2 entries."""
    n = grid.n
    X1g, X2g = grid.x_mesh()
    W1g, W2g = grid.xi_mesh()
    x1, x2, w1, w2 = X1g.ravel(), X2g.ravel(), W1g.ravel(), W2g.ravel()
    env = {
        VarId.X1: x1[:, None],
        VarId.X2: x2[:, None],
        VarId.X3: complex(x3),
        VarId.XI1: w1[None, :],
        VarId.XI2: w2[None, :],
        VarId.S: complex(s),
    }
    vals = np.broadcast_to(np.asarray(eval_expr(symbol_total(sym), env)), (n * n, n * n))
    phase = np.exp(1j * (np.outer(x1, w1) + np.outer(x2, w2))) / n**2
    return np.where(grid.nyquist_mask().ravel()[None, :], vals * phase, 0.0)


def single_shot_kernel(sym, grid, x3, s):
    """The grid-to-grid kernel, grid values in and out: ``single_shot_quantize``
    followed by an fft2 of each row."""
    q = single_shot_quantize(sym, grid, x3, s)
    return np.fft.fft2(q.reshape(-1, grid.n, grid.n)).reshape(q.shape)


def _derivative_matrix(n: int, L: float) -> np.ndarray:
    """Dense spectral d/dx on n periodic samples over a period L."""
    w = 2.0 * np.pi * np.fft.fftfreq(n) * n / L
    F = np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft((1j * w)[:, None] * F, axis=0)


def kron_systems_blocks(m, grid, s):
    """The blocks (A11, A12, A21, A22) of the discrete systems operator of
    a depth-free medium at x3 = 0, on C-order raveled grid fields, written
    with dense Kronecker derivative matrices D1, D2 (test oracle for the
    spectral action the grid oracle's matrix is built from):

        A11 = D1 f1 + D2 f2,   A12 = s kappa - D_mu Q_mu,nu D_nu / s,
        A21 = s inv33,         A22 = g1 D1 + g2 D2,

    every coefficient a diagonal matrix of its samples."""
    n = grid.n
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
    A21 = np.diag(s * sample(c.inv33))
    A22 = sample(c.g[0])[:, None] * D1 + sample(c.g[1])[:, None] * D2
    return A11, A12, A21, A22


def eig_grid_admittance(blocks):
    """The grid oracle's admittances by a dense eigendecomposition of the
    stacked systems matrix [[A11, A12], [A21, A22]]: each family's
    Y = W V^-1 from the v3 rows W and p rows V of its eigenvectors, the
    + family having Re lam > 0. Returns (eigenvalues, Y+, Y-)."""
    A11, A12, A21, A22 = blocks
    lam, phi = np.linalg.eig(np.block([[A11, A12], [A21, A22]]))
    N = A11.shape[0]

    def family(mask):
        return phi[:N, mask] @ np.linalg.inv(phi[N:, mask])

    return lam, family(lam.real > 0), family(lam.real < 0)


def term_blocks(text: str) -> list:
    """The ``degree d:`` blocks of a CLI term file (``terms_*.txt``,
    ``gauge_terms.txt``) as (section, degree, expression text) in file
    order. A ``<name> transformed terms:`` line opens section ``<name>``;
    blocks before any such line have section None."""
    blocks = []
    section = None
    for line in text.splitlines():
        head = re.fullmatch(r"degree (-?\d+):", line)
        if head:
            blocks.append((section, int(head.group(1)), []))
        elif line.endswith(" transformed terms:"):
            section = line[: -len(" transformed terms:")]
        elif line:
            blocks[-1][2].append(line)
    return [(sec, d, "\n".join(lines)) for sec, d, lines in blocks]


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
    for d in sorted(exp.forms, reverse=True):
        y = y + exp.term(d)
    b = _S * inv33 * y + symbol_total(A.a22)

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

    f1 = m.alpha[0][2] * inv33
    f2 = m.alpha[1][2] * inv33
    acc = acc - lowered(A.a11).get(1, ZERO) * y
    acc = acc - (diff(mul(f1, y), VarId.X1) + diff(mul(f2, y), VarId.X2))
    a12 = lowered(A.a12)
    acc = acc - (a12[1] + a12.get(0, ZERO))
    if exp.eta:
        acc = acc - diff(y, VarId.X3)
    return acc


def scaling_env(points, lambdas) -> dict:
    """Env for probe points moved along the scaling ray (x, lam xi, lam s):
    axis 0 runs over points, axis 1 over lambdas."""
    env = probe_env(points)
    lam = np.asarray(lambdas, dtype=float)
    scaled = (VarId.XI1, VarId.XI2, VarId.S)
    return {
        v: vals[:, None] * lam[None, :] if v in scaled else vals[:, None]
        for v, vals in env.items()
    }


def symbolic_residual_rms(exp, points, lambdas, beta_cap=None):
    """Per-lambda rms of ``residual_expr`` on the scaling ray (x, lam xi, lam s)."""
    if beta_cap is None:
        beta_cap = exp.order + 1
    env = scaling_env(points, lambdas)
    vals = np.asarray(eval_expr(residual_expr(exp, beta_cap), env))
    return np.sqrt(np.mean(np.abs(vals) ** 2, axis=0))


# ---------------------------------------------------------------------------
# the expression calculus: composition, parametrix and gauge transform built
# on expressions, value oracles for the form-based calculus of ``src``


def _is_zero_expr(e) -> bool:
    return e.op == "const" and e.data == 0


def lowered(forms: dict) -> dict:
    """A degree -> SymbolForm map as a degree -> expression map."""
    return {d: f.lower() for d, f in forms.items()}


def expr_total(terms: dict):
    """The plain sum of a degree -> expression map, top degree first."""
    acc = ZERO
    for d in sorted(terms, reverse=True):
        acc = acc + terms[d]
    return acc


def oracle_xi_derivative(e, beta):
    """d_xi^beta of an expression."""
    for v, count in zip((VarId.XI1, VarId.XI2), beta):
        for _ in range(count):
            e = diff(e, v)
    return e


def oracle_x_derivative(e, beta):
    """d_x^beta of an expression."""
    for v, count in zip((VarId.X1, VarId.X2), beta):
        for _ in range(count):
            e = diff(e, v)
    return e


def oracle_compose_degree_part(p_terms, q_terms, d):
    """Degree-d part of the composition of two graded expression maps."""
    acc = ZERO
    for j, pj in p_terms.items():
        for k, qk in q_terms.items():
            r = j + k - d
            if r < 0:
                continue
            if r > 0 and not (free_vars(qk) & {VarId.X1, VarId.X2}):
                continue  # x-independent right factor: only beta = 0 survives
            for beta in _multi_indices(r):
                dp = oracle_xi_derivative(pj, beta)
                if _is_zero_expr(dp):
                    continue
                dq = oracle_x_derivative(qk, beta)
                if _is_zero_expr(dq):
                    continue
                coeff = (-1j) ** r / (math.factorial(beta[0]) * math.factorial(beta[1]))
                acc = acc + mul(const(coeff), mul(dp, dq))
    return acc


def oracle_compose(p, q, floor):
    """Asymptotic composition p o q of two degree -> expression maps,
    truncated at the given floor; zero parts are left out."""
    if not p or not q:
        return {}
    parts = {d: oracle_compose_degree_part(p, q, d) for d in range(max(p) + max(q), floor - 1, -1)}
    return {d: e for d, e in parts.items() if not _is_zero_expr(e)}


def oracle_symbol_inverse(y, order: int):
    """Parametrix z o y ~ 1 of a degree -> expression map: the reciprocal
    of the top term, then ``order`` corrections cancelling z o y degree
    by degree; zero terms are left out."""
    top = max(y)
    inv_top = recip(y[top])
    z = {-top: inv_top}
    for r in range(1, order + 1):
        z[-top - r] = mul(neg(inv_top), oracle_compose_degree_part(z, y, -r))
    return {d: e for d, e in z.items() if not _is_zero_expr(e)}


def oracle_normalization(split, n_plus, n_minus):
    """(g+, g-, ell, ell floor) of a split transformed by diag(n+, n-),
    degree -> expression maps in and out, as written:
    G~ = N o G o N^-1 - eta (d3 N) o N^-1 and L~ = L o N^-1."""
    order = split.order
    floor_g = 1 - order
    diag = (n_plus, n_minus)
    inv = [oracle_symbol_inverse(n, order) for n in diag]
    g_out = []
    for n, ninv, g in zip(diag, inv, split.g_forms):
        inner = oracle_compose(n, lowered(g), floor_g - max(ninv))
        gt = oracle_compose(inner, ninv, floor_g)
        if split.eta:
            d3n = {d: diff(e, VarId.X3) for d, e in n.items()}
            d3 = oracle_compose(d3n, ninv, floor_g)
            parts = {d: gt.get(d, ZERO) - d3.get(d, ZERO) for d in gt.keys() | d3.keys()}
            gt = {d: e for d, e in parts.items() if not _is_zero_expr(e)}
        g_out.append(gt)
    floor_l = -order + min(max(z) for z in inv)
    ell = tuple(
        tuple(oracle_compose(lowered(row[j]), inv[j], floor_l) for j in range(2))
        for row in split.ell_forms
    )
    return g_out[0], g_out[1], ell, floor_l


def _oracle_generator_terms(m, y_terms: dict) -> dict:
    A = systems_symbols(m)
    a21 = A.a21[1].lower()
    out = {j + 1: mul(a21, yj) for j, yj in y_terms.items()}
    out[1] = out.get(1, ZERO) + symbol_total(A.a22)
    return out


def oracle_riccati_degree_part(m, eta: int, y_terms: dict, d: int):
    A = systems_symbols(m)
    acc = oracle_compose_degree_part(y_terms, _oracle_generator_terms(m, y_terms), d)
    acc = acc - oracle_compose_degree_part(lowered(A.a11), y_terms, d)
    acc = acc - lowered(A.a12).get(d, ZERO)
    if eta and d in y_terms:
        acc = acc - diff(y_terms[d], VarId.X3)
    return acc


def oracle_collector_step(m, eta: int, sign: int, y_terms: dict, n: int):
    """The expression collector: solve the degree -n balance for y_{-n-1}."""
    e = oracle_riccati_degree_part(m, eta, y_terms, -n)
    pref = mul(const(-sign), m.alpha[2][2] * recip(const(2) * gamma1(m)))
    return mul(pref, e)


def oracle_terms(m, sign: int, eta: int, order: int) -> dict:
    """{degree: expression} of y_0 .. y_-order from the expression collector."""
    from anisosplit import leading_term

    terms = {0: leading_term(m, sign)}
    for n in range(order):
        terms[-n - 1] = oracle_collector_step(m, eta, sign, terms, n)
    return terms


def closed_form_step(m, eta: int, sign: int, y_terms: dict, n: int):
    """Boxed recursion for y_{-n-1} given terms through degree -n.

    n = 0 uses the first-correction formula (with the divergence of the
    Schur complement); n >= 1 uses the general one with the quadratic
    sum over y_j y_k and the multi-index tail.
    """
    if n < 0 or any(j < -n or j > 0 for j in y_terms):
        raise ExpansionError("closed_form_step needs exactly the terms y_0 .. y_{-n}")
    a33 = m.alpha[2][2]
    inv33 = recip(a33)
    f1 = m.alpha[0][2] * inv33
    f2 = m.alpha[1][2] * inv33
    a22_sym = const(1j) * (_XI1 * m.alpha[2][0] + _XI2 * m.alpha[2][1]) * inv33
    pref = mul(const(sign), a33 * recip(const(2) * gamma1(m)))

    def transport(y):
        t = diff(mul(f1, y), VarId.X1) + diff(mul(f2, y), VarId.X2)
        if eta:
            t = t + diff(y, VarId.X3)
        return t

    if n == 0:
        sd = schur(m)
        y0 = y_terms[0]
        brace = neg(recip(_S) * const(1j) * (sd.dQ[0] * _XI1 + sd.dQ[1] * _XI2))
        brace = brace + transport(y0)
        b1 = _S * inv33 * y0 + a22_sym
        for beta in _multi_indices(1):
            tail = mul(
                const(-1j), mul(oracle_xi_derivative(y0, beta), oracle_x_derivative(b1, beta))
            )
            brace = brace - tail
        return mul(pref, brace)

    brace = transport(y_terms[-n])
    quad = ZERO
    for j in range(-n, 0):
        k = -n - 1 - j
        if -n <= k <= -1:
            quad = quad + mul(y_terms[j], y_terms[k])
    brace = brace - _S * inv33 * quad
    for kk in range(1, n + 2):
        coeff_i = (-1j) ** kk
        for beta in _multi_indices(kk):
            bfact = math.factorial(beta[0]) * math.factorial(beta[1])
            for j in range(-n, 1):
                mdeg = kk - n - 1 - j
                if mdeg < -n or mdeg > 0:
                    continue
                inner = _S * inv33 * y_terms[mdeg]
                if mdeg == 0:
                    inner = inner + a22_sym
                tail = mul(
                    const(coeff_i / bfact),
                    mul(oracle_xi_derivative(y_terms[j], beta), oracle_x_derivative(inner, beta)),
                )
                brace = brace - tail
    return mul(pref, brace)


def closed_form_values(m, eta: int, sign: int, y_terms: dict, n: int, points):
    """``closed_form_step``'s formula evaluated at probe points, every
    derivative taken from Taylor jets (``taylor_eval``) instead of a
    symbolic derivative DAG, so it reaches orders whose symbolic closed
    form is too large to build."""
    env = probe_env(points)
    a33 = m.alpha[2][2]
    inv33 = recip(a33)
    f = [m.alpha[mu][2] * inv33 for mu in range(2)]
    a22 = const(1j) * (_XI1 * m.alpha[2][0] + _XI2 * m.alpha[2][1]) * inv33
    pref = eval_expr(mul(const(sign), a33 * recip(const(2) * gamma1(m))), env)

    def partials(e, xi: bool, top: int) -> dict:
        # {beta: d^beta e / beta!} for |beta| <= top, in xi or in (x1, x2)
        dirs = _jet_directions(max(top, 1))
        u, v = (VarId.XI1, VarId.XI2) if xi else (VarId.X1, VarId.X2)
        (jet,) = taylor_eval([e], env, {u: dirs[:, 0], v: dirs[:, 1]}, max(top, 1))
        return _mixed_partials(jet, dirs, top)

    # inner_k = s alpha33^-1 y_k (+ a22 for k = 0) needs x-partials up to
    # order n + 1 + k and y_j xi-partials up to n + 1 + j. The largest
    # terms, inner_-n and y_-n, need only first partials: one jet pass
    # along the unit directions x1, x2, xi1, xi2, x3 gives them, with the
    # transport products f_mu y_-n
    y = y_terms[-n]
    inner = {
        k: _S * inv33 * y_terms[k] + (a22 if k == 0 else ZERO) for k in range(-n, 1)
    }
    seeds = dict(zip((VarId.X1, VarId.X2, VarId.XI1, VarId.XI2, VarId.X3), np.eye(5)))
    jin, jf0, jf1, jy = taylor_eval([inner[-n], mul(f[0], y), mul(f[1], y), y], env, seeds, 1)
    dinner = {-n: {(0, 0): jin[0, 0], (1, 0): jin[1, 0], (0, 1): jin[1, 1]}}
    dy = {-n: {(0, 0): jy[0, 0], (1, 0): jy[1, 2], (0, 1): jy[1, 3]}}
    for k in range(-n + 1, 1):
        dinner[k] = partials(inner[k], False, n + 1 + k)
        dy[k] = partials(y_terms[k], True, n + 1 + k)

    brace = jf0[1, 0] + jf1[1, 1]  # transport
    if eta:
        brace = brace + jy[1, 4]
    if n == 0:
        sd = schur(m)
        brace = brace - eval_expr(recip(_S) * const(1j) * (sd.dQ[0] * _XI1 + sd.dQ[1] * _XI2), env)
    yv = {j: eval_expr(y_terms[j], env) for j in range(-n, 0)}
    quad = sum(yv[j] * yv[-n - 1 - j] for j in range(-n, 0))
    brace = brace - eval_expr(_S * inv33, env) * quad
    for j in range(-n, 1):
        for k in range(-n, 1):
            kk = k + n + 1 + j
            if kk < 1:
                continue
            for beta in _multi_indices(kk):
                bfact = math.factorial(beta[0]) * math.factorial(beta[1])
                brace = brace - (-1j) ** kk * bfact * dy[j][beta] * dinner[k][beta]
    return pref * brace


def two_pass_jets(xi_roots, x_roots, env, dirs, d3):
    """Reference for ``oracle._jets``: one ``taylor_eval`` along ``dirs`` in
    the xi plane over ``xi_roots`` and a second one in the x plane over
    ``x_roots``, each with x3 as one last direction when ``d3``, so every
    node the two root sets share is walked twice."""
    u = np.vstack([dirs, [0.0, 0.0]]) if d3 else dirs
    probes = env[VarId.S].shape

    def one_pass(roots, plane):
        seeds = {plane[0]: u[:, 0], plane[1]: u[:, 1]}
        if d3:
            seeds[VarId.X3] = np.eye(len(u))[-1]
        jets = taylor_eval(list(roots), env, seeds, max(len(dirs) - 1, 1))
        return [np.broadcast_to(jet, jet.shape[:2] + probes) for jet in jets]

    return one_pass(xi_roots, (VarId.XI1, VarId.XI2)), one_pass(x_roots, (VarId.X1, VarId.X2))


def symbolic_order_claim(split, env):
    """The order claim's p = ell o g+ and d3 ell of entry (0, 0), built
    symbolically (``oracle_compose`` truncated one degree above ell's
    floor, and d/dx3 of ell's sum) and evaluated at ``env``: (p symbol,
    p values, d3 ell values or None when ell is free of x3). The oracle
    for the jets of ``oracle._order_claim_parts``; cheap up to order 3."""
    ell = lowered(split.ell_forms[0][0])
    p = oracle_compose(ell, lowered(split.g_forms[0]), split.ell_floor + 1)
    d3 = diff(expr_total(ell), VarId.X3)
    d3_vals = None if d3 is ZERO else eval_expr(d3, env)
    return p, eval_expr(expr_total(p), env), d3_vals


def depth_derivative_leading(m, sign: int):
    """Hand formula for the degree-0 part of d3 y.

    s^-1 (-(1/2) i xi_mu d3(a_{3mu} - a_{mu3})
          +- (2 gamma1)^-1 (s^2 d3 kappa + (d3 Qt_{mu nu}) xi_mu xi_nu)).

    It coincides with the exact derivative of the leading term when
    alpha33 is depth independent and identically one; for general media
    the exact symbolic derivative picks up extra d3 alpha33 terms.
    """
    sd = schur(m)
    drift = const(1j) * (
        _XI1 * diff(m.alpha[2][0] - m.alpha[0][2], VarId.X3)
        + _XI2 * diff(m.alpha[2][1] - m.alpha[1][2], VarId.X3)
    )
    xis = (_XI1, _XI2)
    qdot = ipow(_S, 2) * diff(m.kappa, VarId.X3)
    for mu in range(2):
        for nu in range(2):
            qdot = qdot + diff(sd.Qt[mu][nu], VarId.X3) * xis[mu] * xis[nu]
    return recip(_S) * (const(-0.5) * drift + const(sign) * recip(const(2) * gamma1(m)) * qdot)


@dataclass(frozen=True)
class HomogeneityReport:
    degree: int
    trials: int
    max_rel_error: float
    tol: float

    @property
    def passed(self):
        return self.max_rel_error <= self.tol


def homogeneity_check(
    e, degree, trials: int = 16, tol: float = 1e-9, rng=None, box=((0.0, 1.0),) * 3
) -> HomogeneityReport:
    """Euler-style scaling test, the numeric oracle for ``Expr.degree``:
    e(x, lam*xi, lam*s) vs lam^degree * e(x, xi, s).

    Draws random points with |xi| of order one and Re s > 0, scales by
    lam in {2, 5, 10}, and reports the worst relative mismatch. All
    trials and scales are evaluated together in one ``eval_expr`` call.
    """
    if rng is None:
        rng = np.random.default_rng(2024)
    if trials <= 0:
        return HomogeneityReport(degree, trials, 0.0, tol)
    pts = []
    for _ in range(trials):
        x = [rng.uniform(lo, hi) for lo, hi in box]
        xi = rng.uniform(-1.5, 1.5, size=2)
        if np.hypot(*xi) < 0.3:
            xi = xi + np.array([0.7, -0.4])
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(-1.2, 1.2)
        pts.append((*x, *xi, r * complex(np.cos(th), np.sin(th))))
    p = np.array(pts)  # (trials, 6): x1 x2 x3 xi1 xi2 s
    lam = np.array([1.0, 2.0, 5.0, 10.0])  # column 0 is the base point
    env = {v: p[:, k : k + 1].real for k, v in enumerate((VarId.X1, VarId.X2, VarId.X3))}
    for k, v in ((3, VarId.XI1), (4, VarId.XI2), (5, VarId.S)):
        env[v] = p[:, k : k + 1] * lam
    vals = np.broadcast_to(eval_expr(e, env), (trials, lam.size))
    got = vals[:, 1:]
    want = lam[1:] ** degree * vals[:, :1]
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
    rel[(np.abs(want) < 1e-30) & (np.abs(got) < 1e-30)] = 0.0
    return HomogeneityReport(degree, trials, float(rel.max()), tol)
