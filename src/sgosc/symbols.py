"""SG symbols as jet-evaluable functions.

A symbol is a smooth map on R^d x R^s with a declared order (m, mu) meaning
|d_x^a d_xi^b f| <= C <x>^(m-|a|) <xi>^(mu-|b|).  The order conditions are
asymptotic, hence not decidable from samples; everything here is a recorded
semi-decision: dyadic radial sweeps times direction grids, with the protocol
parameters echoed into every report.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .compactify import (
    CompactPoint,
    as_columns,
    direction_ball,
    euclidean_ball,
    japanese_bracket,
    sphere_grid,
)
from .exprparse import parse_expression
from .jets import Jet, jet_space, jet_variables

INF = math.inf


# -- order bookkeeping -----------------------------------------------------


def order_pair(o) -> tuple:
    m, mu = o
    return (float(m), float(mu))


def _comp_add(a: float, b: float) -> float:
    if a == -INF or b == -INF:
        return -INF
    if a == INF or b == INF:
        return INF
    return a + b


def order_add(o1, o2) -> tuple:
    return (_comp_add(o1[0], o2[0]), _comp_add(o1[1], o2[1]))


def order_max(o1, o2) -> tuple:
    return (max(o1[0], o2[0]), max(o1[1], o2[1]))


def order_shift(o, dm, dmu) -> tuple:
    return (_comp_add(o[0], dm), _comp_add(o[1], dmu))


# -- the symbol type -------------------------------------------------------


class SymbolFn:
    """Jet-evaluable function on R^d x R^s with a declared SG order.

    jet_fn receives the coordinate variable jets (x first, then xi) and must
    combine them algebraically; SymbolFn.jet always passes plain variables.
    """

    def __init__(self, d: int, s: int, order, jet_fn: Callable, source: str = ""):
        self.d = int(d)
        self.s = int(s)
        self.order = order_pair(order)
        self.jet_fn = jet_fn
        self.source = source

    def __repr__(self):
        return f"SymbolFn({self.source or 'anonymous'}, dims=({self.d},{self.s}), order={self.order})"

    # -- evaluation ----------------------------------------------------

    def _coerce_points(self, x, xi):
        x = as_columns(x)
        if x.shape[0] != self.d:
            raise ValueError(f"x has {x.shape[0]} rows, symbol expects {self.d}")
        if self.s == 0:
            return x, np.zeros((0, x.shape[1]))
        xi = as_columns(xi)
        if xi.shape[0] != self.s:
            raise ValueError(f"xi has {xi.shape[0]} rows, symbol expects {self.s}")
        return x, xi

    def jet(self, x, xi, order: int) -> Jet:
        x, xi = self._coerce_points(x, xi)
        v = jet_variables(order, x, xi)
        return self.jet_fn(v[: self.d], v[self.d :])

    def value(self, x, xi=None) -> np.ndarray:
        return self.jet(x, xi, 0).value

    def gradient_jets(self, x, xi, order: int):
        """Jets of order `order` of grad_x f and grad_xi f, as lists of d and
        s jets, all taken from one jet of f of order `order + 1`."""
        j = self.jet(x, xi, order + 1)
        gx = [j.derivative(i) for i in range(self.d)]
        gk = [j.derivative(self.d + i) for i in range(self.s)]
        return gx, gk

    def gradients(self, x, xi=None):
        """Values of grad_x f and grad_xi f, of shapes (d, B) and (s, B)."""
        gx, gk = self.gradient_jets(x, xi, 0)
        return np.stack([g.value for g in gx]), np.stack([g.value for g in gk])

    def grad_x(self, x, xi=None) -> np.ndarray:
        return np.stack([g.value for g in self.gradient_jets(x, xi, 0)[0]])

    def grad_xi(self, x, xi=None) -> np.ndarray:
        return np.stack([g.value for g in self.gradient_jets(x, xi, 0)[1]])

    # -- algebra ---------------------------------------------------------

    def _check_dims(self, other: "SymbolFn"):
        if (self.d, self.s) != (other.d, other.s):
            raise ValueError("symbol dimension mismatch")

    def __mul__(self, other):
        if isinstance(other, SymbolFn):
            self._check_dims(other)
            return SymbolFn(
                self.d,
                self.s,
                order_add(self.order, other.order),
                lambda xj, kj: self.jet_fn(xj, kj) * other.jet_fn(xj, kj),
                f"({self.source})*({other.source})",
            )
        return SymbolFn(
            self.d,
            self.s,
            self.order,
            lambda xj, kj: self.jet_fn(xj, kj) * other,
            f"{other}*({self.source})",
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SymbolFn):
            other = constant_symbol(self.d, self.s, other)
        self._check_dims(other)
        return SymbolFn(
            self.d,
            self.s,
            order_max(self.order, other.order),
            lambda xj, kj: self.jet_fn(xj, kj) + other.jet_fn(xj, kj),
            f"({self.source})+({other.source})",
        )

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-(other if isinstance(other, SymbolFn) else constant_symbol(self.d, self.s, other)))

    def with_order(self, order, source=None) -> "SymbolFn":
        return SymbolFn(self.d, self.s, order, self.jet_fn, source or self.source)


def constant_symbol(d: int, s: int, c: complex) -> SymbolFn:
    return SymbolFn(
        d, s, (0.0, 0.0), lambda xj, kj: Jet.constant((xj + kj)[0].space, c), f"{c}"
    )


def symbol_from_cutoff(cutoff) -> SymbolFn:
    """Wrap an AsymptoticCutoff (function of x only) as an SG(0,0) symbol."""
    return SymbolFn(
        cutoff.dim,
        0,
        (0.0, 0.0),
        lambda xj, kj: cutoff.jet_from_vars(xj),
        f"psi_R(R={cutoff.radius})",
    )


def parse_symbol_expr(text: str, dims, order, allow_division: bool = False) -> SymbolFn:
    """Build a SymbolFn from the expression mini-language (see exprparse)."""
    d, s = dims
    ast = parse_expression(text, d, s, allow_division=allow_division)
    return SymbolFn(
        d, s, order, lambda xj, kj: ast.jet(xj, kj), ast.to_text()
    )


# -- scan protocol ----------------------------------------------------------

_DYADIC = tuple(float(2**k) for k in range(5, 15))


@dataclass(frozen=True)
class ScanProtocol:
    """Recorded parameters of every ellipticity / order semi-decision."""

    c0: float = 1e-3
    delta: float = 0.1
    radii: tuple = _DYADIC
    base_radii: tuple = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    small_radii: tuple = (0.0, 1.0, 4.0, 16.0)
    admiss_radii: tuple = tuple(float(2**k) for k in range(1, 15))
    ndirs: int = 16
    n_ring: int = 6
    finite_radius: float = 0.1
    refine_iters: int = 2
    valid_fraction: float = 0.5
    order_tol: float = 0.5
    # stationary-phase-set scan parameters
    fiber_radius: float = 0.15
    p_rho_valid: float = 32.0
    sp_refine_iters: int = 3

    def dirs(self, k: int) -> np.ndarray:
        counts = {1: 2, 2: self.ndirs, 3: 3 * self.ndirs, 4: 6 * self.ndirs}
        return sphere_grid(k, counts.get(k, 6 * self.ndirs))

    def evidence_radii(self, radii=None) -> np.ndarray:
        """The radii (the protocol's own by default) that carry member
        evidence: those at or above radii[int(len * valid_fraction)], or the
        one radius there is."""
        radii = np.asarray(self.radii if radii is None else radii, dtype=float)
        if len(radii) > 1:
            radii = radii[radii >= radii[int(len(radii) * self.valid_fraction)]]
        return radii

    def replace(self, **kw) -> "ScanProtocol":
        return dataclasses.replace(self, **kw)

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        d["radii"] = list(self.radii)
        d["base_radii"] = list(self.base_radii)
        d["small_radii"] = list(self.small_radii)
        d["admiss_radii"] = list(self.admiss_radii)
        return d


DEFAULT_PROTOCOL = ScanProtocol()


# -- sample machinery --------------------------------------------------------


class _SideGrid:
    """Samples for one factor of B^d x B^s around a compact point."""

    def __init__(self, points, dirs):
        self.points = points  # (k, N)
        self.dirs = dirs  # (Dk, k) or None

    @property
    def count(self):
        return self.points.shape[1]


def _empty_side() -> _SideGrid:
    return _SideGrid(np.zeros((0, 1)), None)


def side_grid(
    pt: Optional[CompactPoint],
    k: int,
    protocol: ScanProtocol,
    center=None,
    delta=None,
    radii=None,
) -> _SideGrid:
    """Samples around pt on one side: the given radii (the protocol's
    dyadic radii by default) times a ball of directions for a boundary
    point, a small Euclidean ball for a finite one.  The ball sits at
    `center` (a direction or a point) when given, at pt otherwise."""
    if k == 0 or pt is None:
        return _empty_side()
    delta = protocol.delta if delta is None else delta
    center = pt.array if center is None else center
    if pt.is_boundary:
        dirs = direction_ball(center, delta, n_ring=protocol.n_ring)
        radii = np.asarray(protocol.radii if radii is None else radii, dtype=float)
        pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, k).T
        return _SideGrid(pts, dirs)
    offs = euclidean_ball(
        np.zeros(k), min(protocol.finite_radius, delta), n_ring=protocol.n_ring
    )
    base = center[:, None] + offs.T
    return _SideGrid(base, offs)


def recentre(side: _SideGrid, col: int, pt: Optional[CompactPoint], c):
    """Centre of a walk's next grid on one side, after its best sample sat
    in column col of `side` around pt: that sample's unit direction on a
    boundary side, c moved half way to the sample on a finite side.  A side
    whose centre c is None does not walk."""
    if c is None:
        return None
    off = side.dirs[col % len(side.dirs)]
    if pt.is_boundary:
        return off / np.linalg.norm(off)
    return c + 0.5 * off


def cross_sides(gx: _SideGrid, gk: _SideGrid):
    nx, nk = gx.count, gk.count
    X = np.repeat(gx.points, nk, axis=1)
    K = np.tile(gk.points, nx)
    return X, K


# -- weight helpers ----------------------------------------------------------


def _weight(X, K, expo_x: float, expo_k: float) -> np.ndarray:
    w = np.ones(max(X.shape[1] if X.size else 1, K.shape[1] if K.size else 1))
    if X.size and expo_x != 0.0:
        w = w * japanese_bracket(X) ** expo_x
    if K.size and expo_k != 0.0:
        w = w * japanese_bracket(K) ** expo_k
    return w


def scaled_ratio(a: SymbolFn, order, X, K) -> np.ndarray:
    """|a| <x>^-m <xi>^-mu on batched samples."""
    m, mu = order_pair(order)
    if not np.isfinite(m) or not np.isfinite(mu):
        raise ValueError("scaled ratios need finite orders")
    vals = np.abs(a.value(X, K))
    return vals * _weight(X, K, -m, -mu)


# -- ellipticity --------------------------------------------------------------


def band(ratio: float, c0: float) -> str:
    """Where a sampled minimum ratio sits against the threshold c0: below
    c0/2, straddling [c0/2, 2 c0], or above 2 c0."""
    if ratio < 0.5 * c0:
        return "below"
    if ratio <= 2.0 * c0:
        return "straddle"
    return "above"


@dataclass
class EllipticityResult:
    ok: bool
    min_ratio: float
    order: tuple
    point: tuple
    protocol: dict
    samples: int

    def band(self, c0: float) -> str:
        return band(self.min_ratio, c0)

    def to_json(self) -> dict:
        return {
            "ok": bool(self.ok),
            "min_ratio": float(self.min_ratio),
            "order": list(self.order),
            "samples": int(self.samples),
            "protocol": self.protocol,
        }


def elliptic_at(
    a: SymbolFn,
    order,
    pair,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> EllipticityResult:
    """Sampled test of a(x,xi) >~ <x>^m <xi>^mu on a boundary neighborhood.

    The pair is (CompactPoint on B^d side, CompactPoint on B^s side or None);
    at least one side must be a boundary direction.  Direction balls are
    refined around the running minimizer; only the scales that carry
    membership-grade evidence, protocol.evidence_radii(), are sampled.
    """
    px, pk = pair
    if (px is None or not px.is_boundary) and (pk is None or not pk.is_boundary):
        raise ValueError("elliptic_at needs a boundary pair")
    cx = px.array if (px is not None and px.is_boundary) else None
    ck = pk.array if (pk is not None and pk.is_boundary) else None
    delta = protocol.delta
    radii = protocol.evidence_radii()
    best = INF
    total = 0
    for _ in range(protocol.refine_iters + 1):
        gx = side_grid(px, a.d, protocol, center=cx, delta=delta, radii=radii)
        gk = side_grid(pk, a.s, protocol, center=ck, delta=delta, radii=radii)
        X, K = cross_sides(gx, gk)
        r = scaled_ratio(a, order, X, K)
        total += r.size
        col = int(np.argmin(r))
        best = min(best, float(r[col]))
        ix, ik = divmod(col, gk.count)
        cx, ck = recentre(gx, ix, px, cx), recentre(gk, ik, pk, ck)
        delta /= 3.0
    return EllipticityResult(
        ok=best >= protocol.c0,
        min_ratio=best,
        order=order_pair(order),
        point=pair,
        protocol=protocol.echo(),
        samples=total,
    )


def globally_elliptic(
    a: SymbolFn,
    order,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
    radii=None,
) -> EllipticityResult:
    """Sampled global ellipticity |a| >~ <x>^m <xi>^mu for |x|+|xi| >= R.

    Radius pairs are streamed block-wise (running minimum) so that
    high-dimensional scans stay within a small memory footprint."""
    sweep = np.asarray(protocol.radii if radii is None else radii, dtype=float)
    small = np.asarray(tuple(protocol.small_radii) + tuple(sweep), dtype=float)
    dirs_x = protocol.dirs(a.d)
    mn = INF
    total = 0
    if a.s > 0:
        dirs_k = protocol.dirs(a.s)
        for rx in small:
            for rk in small:
                if max(rx, rk) < sweep[0]:
                    continue
                xs = (rx * dirs_x).T if rx > 0 else np.zeros((a.d, 1))
                ks = (rk * dirs_k).T if rk > 0 else np.zeros((a.s, 1))
                X = np.repeat(xs, ks.shape[1], axis=1)
                K = np.tile(ks, xs.shape[1])
                r = scaled_ratio(a, order, X, K)
                total += r.size
                mn = min(mn, float(r.min()))
    else:
        xs = [np.zeros((a.d, 1))] + [(r * dirs_x).T for r in sweep]
        X = np.concatenate(xs, axis=1)
        X = X[:, np.linalg.norm(X, axis=0) >= sweep[0]]
        r = scaled_ratio(a, order, X, np.zeros((0, X.shape[1])))
        total = r.size
        mn = float(r.min())
    return EllipticityResult(
        ok=mn >= protocol.c0,
        min_ratio=mn,
        order=order_pair(order),
        point=(None, None),
        protocol=protocol.echo(),
        samples=total,
    )


# -- seminorms and order verification ----------------------------------------


def _deriv_pairs(d: int, s: int, p: int):
    return [(g[:d], g[d:]) for g in jet_space(d + s, p).indices]


@dataclass
class SeminormReport:
    order: tuple
    entries: dict
    max_value: float
    grid: dict
    flagged: list = field(default_factory=list)


def _sample_pairs(d, s, protocol, radii_x, radii_k):
    dirs_x = protocol.dirs(d)
    blocks_x = [np.zeros((d, 1)) if r == 0 else (r * dirs_x).T for r in radii_x]
    X1 = np.concatenate(blocks_x, axis=1)
    if s > 0:
        dirs_k = protocol.dirs(s)
        blocks_k = [np.zeros((s, 1)) if r == 0 else (r * dirs_k).T for r in radii_k]
        K1 = np.concatenate(blocks_k, axis=1)
        X = np.repeat(X1, K1.shape[1], axis=1)
        K = np.tile(K1, X1.shape[1])
        return X, K
    return X1, np.zeros((0, X1.shape[1]))


def _scaled_sups(a: SymbolFn, order, X, K, max_order: int) -> dict:
    """Per (alpha, beta) with |alpha| + |beta| <= max_order, the sup over the
    samples (X, K) of |d^a d^b f| <x>^(|a|-m) <xi>^(|b|-mu)."""
    m, mu = order
    jets = a.jet(X, K, max_order)
    return {
        (al, be): float(
            np.max(np.abs(jets.partial(al + be)) * _weight(X, K, sum(al) - m, sum(be) - mu))
        )
        for al, be in _deriv_pairs(a.d, a.s, max_order)
    }


def seminorm_estimate(
    a: SymbolFn,
    order,
    max_order: int = 2,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
    radii=None,
) -> SeminormReport:
    """Sampled SG seminorms: per (alpha, beta) the sup of the scaled derivative
    |d^a d^b f| <x>^(|a|-m) <xi>^(|b|-mu) over the sampling grid."""
    m, mu = order_pair(order)
    if not (np.isfinite(m) and np.isfinite(mu)):
        raise ValueError("seminorm estimation needs finite orders")
    radii = tuple(protocol.base_radii) + tuple(protocol.radii) if radii is None else tuple(radii)
    X, K = _sample_pairs(a.d, a.s, protocol, radii, radii)
    entries = _scaled_sups(a, (m, mu), X, K, max_order)
    return SeminormReport(
        order=(m, mu),
        entries=entries,
        max_value=max(entries.values()),
        grid={"radii": list(radii), "protocol": protocol.echo()},
    )


@dataclass
class OrderReport:
    ok: bool
    order: tuple
    entries: dict  # (alpha, beta) -> (baseline sup, sweep sup)
    tol: float
    protocol: dict

    def failing(self):
        return [
            ab
            for ab, (b, w) in self.entries.items()
            if w > (1.0 + self.tol) * max(b, 1e-300)
        ]


def verify_order(
    a: SymbolFn,
    order,
    tol: Optional[float] = None,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
    max_order: int = 2,
) -> OrderReport:
    """Semi-decision of membership in SG^(m,mu): scaled derivative sups on
    dyadic sweeps must stay within (1+tol) of the small-radius baseline."""
    m, mu = order_pair(order)
    if not (np.isfinite(m) and np.isfinite(mu)):
        raise ValueError("verify_order needs finite orders")
    tol = protocol.order_tol if tol is None else tol
    Xb, Kb = _sample_pairs(a.d, a.s, protocol, protocol.base_radii, protocol.base_radii)
    Xs, Ks = _sample_pairs(
        a.d,
        a.s,
        protocol,
        tuple(protocol.small_radii) + tuple(protocol.radii),
        tuple(protocol.small_radii) + tuple(protocol.radii),
    )
    base = _scaled_sups(a, (m, mu), Xb, Kb, max_order)
    sweep = _scaled_sups(a, (m, mu), Xs, Ks, max_order)
    entries = {ab: (base[ab], sweep[ab]) for ab in base}
    report = OrderReport(False, (m, mu), entries, tol, protocol.echo())
    report.ok = not report.failing()
    return report
