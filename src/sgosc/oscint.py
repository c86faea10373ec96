"""Evaluation of tempered oscillatory integrals.

The pairing <I_phi(a), f> is computed as the absolutely convergent integral
of e^{i phi} P^r(a f) over a truncated box, with r chosen so the regularized
integrand has certified integrable decay and the truncation tail bounded via
sampled envelope constants.  A direct adaptive quadrature of e^{i phi} a f
serves as the oracle for rapidly decaying amplitudes.  No stationary-phase
asymptotics anywhere: oscillation is handled by subdivision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .compactify import as_columns, japanese_bracket, smoothstep, smoothstep_jet
from .jets import Jet, jet_variables, norm2_jet
from .phase import PhaseFn, require_admissible
from .regularize import RegularizerP, apply_P_r, build_P, q_step
from .symbols import DEFAULT_PROTOCOL, ScanProtocol, SymbolFn, order_pair

INF = math.inf


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


class IntegrabilityError(ValueError):
    pass


# -- Gauss-Kronrod 15(7) tensor rule -------------------------------------------

_XGK_POS = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK_POS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_POS = np.array(
    [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469]
)

# full 15-node arrays on [-1, 1]
GK_NODES = np.concatenate([-_XGK_POS[:-1], _XGK_POS[::-1]])
GK_WEIGHTS = np.concatenate([_WGK_POS[:-1], _WGK_POS[::-1]])
# the embedded 7-point Gauss rule sits on nodes 1,3,5,...,13
_GAUSS_IDX = np.arange(1, 15, 2)
GAUSS_WEIGHTS = np.concatenate([_WG_POS[:-1], _WG_POS[::-1]])


def _tensor_rule(nd: int):
    grids = np.meshgrid(*([GK_NODES] * nd), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids])  # (nd, 15^nd)
    w = GK_WEIGHTS
    wk = w
    for _ in range(nd - 1):
        wk = np.multiply.outer(wk, w)
    wg_mask = np.zeros(15, dtype=bool)
    wg_mask[_GAUSS_IDX] = True
    gmask = wg_mask
    wgg = GAUSS_WEIGHTS
    for _ in range(nd - 1):
        gmask = np.multiply.outer(gmask, wg_mask)
        wgg = np.multiply.outer(wgg, GAUSS_WEIGHTS)
    return nodes, wk.ravel(), gmask.ravel(), wgg.ravel()


_RULES = {nd: _tensor_rule(nd) for nd in (1, 2, 3)}

# Cap on the quadrature nodes handed to an integrand in one call: a jet of
# order 4 in 3 variables over 1000 cells of 15^3 nodes would need 1.8 GB.
MAX_NODES_PER_CALL = 32768


# Cells split per refinement round, worst first.
REFINE_BATCH = 8


def _eval_cells(f, los, his):
    """Kronrod values and |Kronrod - Gauss| errors of the cells [los[i],
    his[i]]; raises NonConvergenceError naming the first non-finite cell."""
    ncell, nd = los.shape
    nodes, wk, gmask, wgg = _RULES[nd]
    npts = nodes.shape[1]
    half = 0.5 * (his - los)  # (ncell, nd)
    mid = 0.5 * (his + los)
    # f sees whole cells, at most MAX_NODES_PER_CALL nodes at a time
    step = max(1, MAX_NODES_PER_CALL // npts)
    chunks = []
    for lo in range(0, ncell, step):
        sl = slice(lo, lo + step)
        # (nd, ncell, npts)
        X = mid[sl].T[:, :, None] + half[sl].T[:, :, None] * nodes[:, None, :]
        chunks.append(f(X.reshape(nd, -1)))
    vals = np.concatenate(chunks).reshape(ncell, npts)
    jac = np.prod(half, axis=1)
    i15 = vals @ wk * jac
    i7 = vals[:, gmask] @ wgg * jac
    err = np.abs(i15 - i7)
    bad = np.flatnonzero(~np.isfinite(err))  # a non-finite i15 or i7 makes err so
    if bad.size:
        raise NonConvergenceError(
            "non-finite integrand value", _cell_json(los, his, i15, err, bad[0])
        )
    return i15, err


def _cell_json(los, his, vals, errs, i) -> dict:
    v = complex(vals[i])
    return {
        "lo": los[i].tolist(),
        "hi": his[i].tolist(),
        "value_re": v.real,
        "value_im": v.imag,
        "error": float(errs[i]),
    }


def _worst(keys, k):
    """Indices of the k largest keys, worst first, older slot first on ties."""
    cand = np.arange(len(keys))
    if len(keys) > k:
        cand = np.flatnonzero(keys >= np.partition(keys, len(keys) - k)[len(keys) - k])
    return cand[np.argsort(-keys[cand], kind="stable")[:k]]


def _room(a, n, dtype=None):
    """a if it has n rows and holds dtype, else a copy of it in the promoted
    dtype with room for n rows (at least twice its length)."""
    dtype = a.dtype if dtype is None else np.promote_types(a.dtype, dtype)
    if len(a) >= n and dtype == a.dtype:
        return a
    out = np.empty((max(n, 2 * len(a)),) + a.shape[1:], dtype)
    out[: len(a)] = a
    return out


def adaptive_tensor(
    f: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tol_abs: float = 1e-10,
    tol_rel: float = 1e-9,
    max_cells: int = 20000,
    initial_splits: Optional[Sequence[int]] = None,
):
    """Adaptive tensor Gauss-Kronrod over a box; f maps (nd, B) -> (B,).

    Returns (value, error_estimate, n_evaluations).  Deterministic: each
    round splits the REFINE_BATCH worst cells, older first on ties, and the
    totals are summed left to right over the cells in creation order.

    The cells sit in slots in creation order, in arrays that grow by
    doubling.  A split cell keeps its slot with value and error 0.0 and
    selection key -inf; its children are appended.  So no round copies the
    live cells, and the results equal those of a store that deletes split
    cells: the live cells keep their order, a left-to-right sum over the
    slots equals the sum over the live cells bit for bit (x + 0.0 == x, and
    the trailing + 0.0 turns a -0.0 total into +0.0), and the worst cells
    are chosen on the keys, where ties still go to the older slot and a
    retired slot ranks below every live cell, even one with error 0.0."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nd = len(lo)
    if nd not in _RULES:
        raise ValueError("adaptive_tensor supports 1 to 3 dimensions")
    if initial_splits is None:
        initial_splits = [2] * nd
    splits = np.maximum(1, np.asarray(initial_splits, dtype=int))
    idx = np.indices(splits).reshape(nd, -1)  # C order: last axis fastest
    edges = [np.linspace(lo[i], hi[i], splits[i] + 1) for i in range(nd)]
    los = np.stack([edges[i][idx[i]] for i in range(nd)], axis=1)
    his = np.stack([edges[i][idx[i] + 1] for i in range(nd)], axis=1)
    vals, errs = _eval_cells(f, los, his)
    keys = errs.copy()
    npts = _RULES[nd][0].shape[1]
    n = live = len(los)  # slots in use, live cells among them
    nev = n * npts
    rounds = 0
    # running left-to-right sums over the slots; a round re-sums only from
    # its oldest split cell on
    vacc, eacc = np.add.accumulate(vals), np.add.accumulate(errs)
    while True:
        # left to right from 0 as builtin sum does, so -0.0 totals read +0.0
        total = vacc[n - 1] + 0.0
        toterr = eacc[n - 1] + 0.0
        if toterr <= max(tol_abs, tol_rel * abs(total)):
            return total, toterr, nev
        if live >= max_cells:
            raise NonConvergenceError(
                "quadrature subdivision budget exhausted",
                {
                    "cells": live,
                    "rounds": rounds,
                    "nodes": nev,
                    "error": float(toterr),
                    "value_re": float(total.real),
                    "value_im": float(total.imag),
                    "tol_abs": tol_abs,
                    "tol_rel": tol_rel,
                    "worst_cells": [
                        _cell_json(los, his, vals, errs, i) for i in _worst(keys[:n], min(5, live))
                    ],
                },
            )
        # split the worst cells on their longest axis: children in pick
        # order, the lower half before the upper half
        picked = _worst(keys[:n], min(REFINE_BATCH, live))
        clos, chis = np.repeat(los[picked], 2, axis=0), np.repeat(his[picked], 2, axis=0)
        r = np.arange(len(clos))
        ax = np.argmax(chis - clos, axis=1)
        mid = 0.5 * (clos[r, ax] + chis[r, ax])
        chis[r[::2], ax[::2]] = mid[::2]
        clos[r[1::2], ax[1::2]] = mid[1::2]
        cvals, cerrs = _eval_cells(f, clos, chis)
        nev += len(clos) * npts
        rounds += 1
        vals[picked] = errs[picked] = 0.0
        keys[picked] = -INF
        m = n + len(clos)
        los, his, errs, keys, eacc = (_room(a, m) for a in (los, his, errs, keys, eacc))
        vals, vacc = (_room(a, m, cvals.dtype) for a in (vals, vacc))
        los[n:m], his[n:m], vals[n:m], errs[n:m], keys[n:m] = clos, chis, cvals, cerrs, cerrs
        j = int(picked.min())  # the running sums still hold up to slot j - 1
        start = max(j - 1, 0)
        for acc, x in ((vacc, vals), (eacc, errs)):
            acc[j:m] = x[j:m]
            np.add.accumulate(acc[start:m], out=acc[start:m])
        n = m
        live += len(picked)


# -- Schwartz test functions ------------------------------------------------------


class SchwartzFn:
    """Jet-evaluable rapidly decaying function on R^d."""

    def __init__(self, d: int, jet_fn: Callable, source: str = ""):
        self.d = d
        self.jet_fn = jet_fn
        self.source = source

    def jet_from_vars(self, xjets) -> Jet:
        return self.jet_fn(xjets)

    def jet(self, x, order: int) -> Jet:
        return self.jet_fn(jet_variables(order, as_columns(x)))

    def value(self, x) -> np.ndarray:
        return self.jet(x, 0).value

    @classmethod
    def gaussian(cls, d: int, width: float = 1.0, center=None) -> "SchwartzFn":
        c = np.zeros(d) if center is None else np.asarray(center, dtype=float)

        def jet_fn(xj):
            sh = [(xj[i] - c[i]) * (1.0 / width) for i in range(d)]
            return (-norm2_jet(sh)).exp()

        return cls(d, jet_fn, f"exp(-|x-{list(c)}|^2/{width}^2)")

    def rho(self, p: int, box: float = 16.0, protocol: ScanProtocol = DEFAULT_PROTOCOL) -> float:
        """Sampled Schwartz seminorm: sum over |alpha+beta| <= p of the sup of
        |x^alpha d^beta f| on a box plus dyadic rays."""
        radii = [r for r in protocol.base_radii if r <= box] + [
            r for r in protocol.radii if r <= 4 * box
        ]
        dirs = protocol.dirs(self.d)
        pts = [np.zeros((self.d, 1))] + [(r * dirs).T for r in radii if r > 0]
        X = np.concatenate(pts, axis=1)
        jets = self.jet(X, p)
        total = 0.0
        for alpha in itertools.product(range(p + 1), repeat=self.d):
            if sum(alpha) > p:
                continue
            xa = np.prod(
                np.stack([X[i] ** alpha[i] for i in range(self.d)]), axis=0
            )
            for beta in itertools.product(range(p + 1), repeat=self.d):
                if sum(alpha) + sum(beta) > p:
                    continue
                total += float(np.max(np.abs(xa * jets.partial(beta))))
        return total


# -- r selection and the integral object -------------------------------------------


def choose_r(amp_order, phase_order, d: int, s: int) -> int:
    """Smallest r with m - r n < -d - 1 and mu - r nu < -s - 1."""
    m, mu = order_pair(amp_order)
    n, nu = phase_order
    r = 0
    if m != -INF:
        r = max(r, int(math.floor((m + d + 1) / n)) + 1)
    if mu != -INF:
        r = max(r, int(math.floor((mu + s + 1) / nu)) + 1)
    return max(r, 0)


@dataclass
class OscIntegral:
    phi: PhaseFn
    a: SymbolFn
    P: RegularizerP
    r: int
    box: tuple  # (Lx, Lxi) starting half-widths
    tol: float
    max_cells: int = 60000
    integrable_margin: tuple = field(init=False)

    def __post_init__(self):
        m, mu = self.a.order
        n, nu = self.phi.order
        d, s = self.phi.d, self.phi.s
        mx = -(d + 1) - (m - self.r * n) if m != -INF else INF
        mk = -(s + 1) - (mu - self.r * nu) if mu != -INF else INF
        self.integrable_margin = (mx, mk)
        if mx <= 0 or mk <= 0:
            raise IntegrabilityError(
                f"r={self.r} leaves a non-integrable regularized order; "
                f"need r >= {choose_r(self.a.order, self.phi.order, d, s)}"
            )


def make_osc_integral(
    phi: PhaseFn,
    a: SymbolFn,
    r="auto",
    box=(12.0, 12.0),
    tol: float = 1e-8,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> OscIntegral:
    require_admissible(phi, protocol)
    if r == "auto":
        r = choose_r(a.order, phi.order, phi.d, phi.s)
    P = build_P(phi, protocol=protocol)
    return OscIntegral(phi=phi, a=a, P=P, r=int(r), box=box, tol=tol)


@dataclass
class QuadResult:
    value: complex
    error: float
    tail_bound: float
    nodes: int
    r_used: int
    box: tuple

    def to_json(self) -> dict:
        return {
            "value_re": float(self.value.real),
            "value_im": float(self.value.imag),
            "error": float(self.error),
            "tail_bound": float(self.tail_bound),
            "nodes": int(self.nodes),
            "r_used": int(self.r_used),
            "box": list(self.box),
        }


def _phase_freq_splits(phi: PhaseFn, Lx: float, Lk: float, cap: int = 10):
    """Initial per-axis splits sized to the phase's local frequency."""
    d, s = phi.d, phi.s
    probe_x = np.array([[0.0] * d, [Lx] * d, [-Lx] * d]).T
    probe_k = np.array([[0.0] * s, [Lk] * s, [-Lk] * s]).T
    gx, gk = (np.abs(g.real).max() for g in phi.gradients(probe_x, probe_k))
    # oscillation along x is driven by |grad_x phi|, along xi by |grad_xi phi|
    sx = int(min(cap, max(2, round(gx * Lx / 10))))
    sk = int(min(cap, max(2, round(gk * Lk / 10))))
    return [sx] * d + [sk] * s


def _tail_exponents(I: OscIntegral):
    m, mu = I.a.order
    n, nu = I.phi.order
    d, s = I.phi.d, I.phi.s
    ex = m - I.r * n if m != -INF else -(d + 2.0)
    ek = mu - I.r * nu if mu != -INF else -(s + 2.0)
    ex = min(ex, -(d + 1.5))
    ek = min(ek, -(s + 1.5))
    return ex, ek


def _box_grid(L: float, k: int, count: int = 64) -> np.ndarray:
    """About `count` points of a uniform grid on the k-dim box [-L, L]^k."""
    rng = np.linspace(-L, L, max(3, int(round(count ** (1.0 / max(k, 1))))))
    return np.stack([g.ravel() for g in np.meshgrid(*([rng] * k), indexing="ij")])


def _tail_bound(I: OscIntegral, integrand, Lx: float, Lk: float) -> float:
    """Sampled-envelope truncation bound: C_env, the largest |integrand| over
    <x>^ex <xi>^ek on the boundary of the box, times the analytic tail mass
    of that envelope outside the box."""
    d, s = I.phi.d, I.phi.s
    ex, ek = _tail_exponents(I)
    grid_x, grid_k = _box_grid(Lx, d), _box_grid(Lk, s)
    X = np.repeat(grid_x, grid_k.shape[1], axis=1)
    K = np.tile(grid_k, grid_x.shape[1])
    # the boundary of the product box: x on the shell |x|_inf = Lx, or xi on its own
    face = (np.max(np.abs(X), axis=0) >= Lx - 1e-12) | (np.max(np.abs(K), axis=0) >= Lk - 1e-12)
    X, K = X[:, face], K[:, face]
    env = japanese_bracket(X) ** ex * japanese_bracket(K) ** ek
    c_env = float(np.max(np.abs(integrand(np.concatenate([X, K]))) / env))

    def ball_mass(e, k, L):
        # integral over R^k of <t>^e, and over |t| > L; e < -k
        surf = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}[k]
        full = surf * (1.0 / max(-(e + k), 0.25)) + surf  # coarse upper bound
        tailm = surf * (max(L, 1.0) ** (e + k)) / max(-(e + k), 0.25)
        return full, tailm

    fx, tx = ball_mass(ex, d, Lx)
    fk, tk = ball_mass(ek, s, Lk)
    return c_env * (tx * fk + fx * tk)


def eval_pairing(I: OscIntegral, f: SchwartzFn) -> QuadResult:
    """<I_phi(a), f> = integral of e^{i phi} P^r(a f) over the certified box."""
    g = apply_P_r(I.P, I.a, f, I.r)
    d, s = I.phi.d, I.phi.s

    def integrand(X):
        x, k = X[:d], X[d:]
        return np.exp(1j * I.phi.value(x, k)) * g.value(x, k)

    Lx, Lk = I.box
    tail = INF
    for _ in range(5):
        tail = _tail_bound(I, integrand, Lx, Lk)
        if tail < I.tol / 10.0:
            break
        Lx *= 2.0
        Lk *= 2.0
    else:
        raise NonConvergenceError(
            "tail bound not certified within box growth budget",
            {"tail_bound": tail, "box": [Lx, Lk], "tol": I.tol},
        )
    splits = _phase_freq_splits(I.phi, Lx, Lk)
    lo = [-Lx] * d + [-Lk] * s
    hi = [Lx] * d + [Lk] * s
    val, err, nev = adaptive_tensor(
        integrand,
        lo,
        hi,
        tol_abs=I.tol / 10.0,
        tol_rel=I.tol,
        max_cells=I.max_cells,
        initial_splits=splits,
    )
    return QuadResult(val, err, tail, nev, I.r, (Lx, Lk))


def direct_quadrature(
    phi: PhaseFn,
    a: SymbolFn,
    f: Optional[SchwartzFn] = None,
    box=(10.0, 10.0),
    tol: float = 1e-9,
    max_cells: int = 60000,
) -> QuadResult:
    """Oracle: adaptive quadrature of e^{i phi} a f, valid only when the
    amplitude is absolutely integrable in xi (order check enforced)."""
    m, mu = a.order
    if mu >= -phi.s and mu != -INF:
        raise IntegrabilityError(
            f"direct quadrature needs xi-order < {-phi.s}, amplitude has {mu}"
        )
    d, s = phi.d, phi.s

    def integrand(X):
        x, k = X[:d], X[d:]
        out = np.exp(1j * phi.value(x, k)) * a.value(x, k)
        if f is not None:
            out = out * f.value(x)
        return out

    Lx, Lk = box
    splits = _phase_freq_splits(phi, Lx, Lk)
    val, err, nev = adaptive_tensor(
        integrand,
        [-Lx] * d + [-Lk] * s,
        [Lx] * d + [Lk] * s,
        tol_abs=tol / 10.0,
        tol_rel=tol,
        max_cells=max_cells,
        initial_splits=splits,
    )
    return QuadResult(val, err, 0.0, nev, 0, (Lx, Lk))


class NotXiRegularizableError(ValueError):
    pass


def eval_pointwise(
    I: OscIntegral,
    x,
    k: int = 0,
    xi_box: float = 14.0,
    tol: float = 1e-9,
) -> complex:
    """[I_phi(a)](x) by xi-quadrature, with k-fold xi-only regularization
    splitting off a compact inner region when k > 0."""
    phi, a = I.phi, I.a
    d, s = phi.d, phi.s
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def sweep_min_grad(R):
        taus = np.concatenate([[R], R * 2.0 ** np.arange(1, 8)])
        dirs = DEFAULT_PROTOCOL.dirs(s)
        K = (taus[:, None, None] * dirs[None, :, :]).reshape(-1, s).T
        X = np.repeat(x[:, None], K.shape[1], axis=1)
        g = phi.grad_xi(X, K)
        return float(np.min(np.sum(g * g, axis=0)))

    if k == 0:
        m, mu = a.order
        if mu >= -s and mu != -INF:
            raise NotXiRegularizableError(
                "pointwise evaluation without regularization needs rapid xi decay"
            )

        def integrand(K):
            X = np.repeat(x[:, None], K.shape[1], axis=1)
            return np.exp(1j * phi.value(X, K)) * a.value(X, K)

        val, _, _ = adaptive_tensor(
            integrand, [-xi_box] * s, [xi_box] * s, tol_abs=tol / 10, tol_rel=tol
        )
        return val

    R_in = None
    for R in (1.0, 2.0, 4.0, 8.0):
        if sweep_min_grad(R) > 1e-6:
            R_in = R
            break
    if R_in is None:
        raise NotXiRegularizableError(
            f"|grad_xi phi| has no xi-lower bound at x={x.tolist()}"
        )

    def inner_integrand(K):
        X = np.repeat(x[:, None], K.shape[1], axis=1)
        r = np.linalg.norm(K, axis=0)
        # not smoothstep(...) alone: 1 - (1 - s) rounds differently from s
        chi = 1.0 - (1.0 - smoothstep(r, R_in, R_in + 1.0))
        return np.exp(1j * phi.value(X, K)) * a.value(X, K) * chi

    def outer_integrand(K):
        X = np.repeat(x[:, None], K.shape[1], axis=1)
        r = np.linalg.norm(K, axis=0)
        live = r > R_in
        out = np.zeros(K.shape[1], dtype=complex)
        if np.any(live):
            Kl, Xl = K[:, live], X[:, live]
            g = _q_pow_apply(phi, a, Xl, Kl, k, R_in)
            out[live] = np.exp(1j * phi.value(Xl, Kl)) * g
        return out

    v1, _, _ = adaptive_tensor(
        inner_integrand,
        [-(R_in + 1.5)] * s,
        [R_in + 1.5] * s,
        tol_abs=tol / 10,
        tol_rel=tol,
    )
    v2, _, _ = adaptive_tensor(
        outer_integrand, [-xi_box] * s, [xi_box] * s, tol_abs=tol / 10, tol_rel=tol
    )
    return v1 + v2


def _q_pow_apply(phi: PhaseFn, a: SymbolFn, X, K, k: int, R_in: float) -> np.ndarray:
    """Value of Q^k((1 - chi_in) a) at columns with |xi| > R_in."""
    d = phi.d
    kj = jet_variables(k, X, K)[d:]
    r = norm2_jet(kj).sqrt()
    cut = 1.0 - smoothstep_jet(r, R_in, R_in + 1.0)
    g = a.jet(X, K, k) * cut
    for _ in range(k):
        g = q_step(phi, X, K, g)
    return g.value
