"""Admissible inhomogeneous SG phase functions and their singularity sets.

A phase of order (n, nu), n, nu > 0, is admissible when the functional
eta = <x>^2 |grad_x phi|^2 + <xi>^2 |grad_xi phi|^2 is globally elliptic of
order (2n, 2nu).  The set M_phi collects the boundary pairs where
|grad_xi phi|^2 loses ellipticity at order (2n, 2nu-2); the stationary-phase
set SP_phi collects the pairs (y, q) near which |grad_x phi - p| cannot be
bounded below by <x>^(n-1) <xi>^nu + |p| over the M_phi fiber.  Both are
classified by recorded sampling protocols; margin labels are conservative
(every consumer treats margin as member).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .compactify import (
    CompactPoint,
    ball_distance,
    japanese_bracket,
    pair_distance,
    sphere_grid,
)
from .jets import base_points, norm2_jet
from .symbols import (
    DEFAULT_PROTOCOL,
    ScanProtocol,
    SymbolFn,
    _sample_pairs,
    band,
    cross_sides,
    elliptic_at,
    globally_elliptic,
    order_pair,
    recentre,
    side_grid,
)

INF = math.inf

# set-membership label of each band of a sampled ratio against c0
_LABELS = {"below": "member", "straddle": "margin", "above": "nonmember"}


class NotAdmissibleError(ValueError):
    pass


class StandingAssumptionError(ValueError):
    """The geometric angle test requires <x>^2|grad_x phi|^2 elliptic on M_phi."""


@dataclass
class AdmissibilityReport:
    admissible: bool
    min_ratio: float
    max_imag: float
    order: tuple
    radius: float
    protocol: dict

    def to_json(self) -> dict:
        return {
            "admissible": bool(self.admissible),
            "min_ratio": float(self.min_ratio),
            "max_imag": float(self.max_imag),
            "order": list(self.order),
            "radius": float(self.radius),
            "protocol": self.protocol,
        }


class PhaseFn(SymbolFn):
    """Real-valued symbol of positive order (n, nu), built from the SymbolFn
    `symbol`, with its admissibility reports."""

    def __init__(self, symbol: SymbolFn, order=None):
        n, nu = order_pair(order if order is not None else symbol.order)
        if not (n > 0 and nu > 0) or not (np.isfinite(n) and np.isfinite(nu)):
            raise ValueError("phase order components must be finite and positive")
        SymbolFn.__init__(self, symbol.d, symbol.s, (n, nu), symbol.jet_fn, symbol.source)
        self.symbol = symbol
        self.admissibility: Optional[AdmissibilityReport] = None
        self._reports: dict = {}  # ScanProtocol -> AdmissibilityReport


# -- derived symbols ----------------------------------------------------------


def _gradient_symbol(phi, out_order, source: str, build) -> SymbolFn:
    """SymbolFn with jet build(grad_x phi, grad_xi phi, xj, kj), from one jet
    of phi one order above the requested one."""

    def jet_fn(xj, kj):
        x, xi, order = base_points(xj, kj)
        gx, gk = phi.gradient_jets(x, xi, order)
        return build(gx, gk, xj, kj)

    return SymbolFn(phi.d, phi.s, out_order, jet_fn, source)


def eta_symbol(phi: PhaseFn) -> SymbolFn:
    """eta = <x>^2 |grad_x phi|^2 + <xi>^2 |grad_xi phi|^2, order (2n, 2nu)."""
    n, nu = phi.order

    def build(gx, gk, xj, kj):
        acc = norm2_jet(gx) * (1.0 + norm2_jet(xj))
        if gk:
            acc = acc + norm2_jet(gk) * (1.0 + norm2_jet(kj))
        return acc

    return _gradient_symbol(phi, (2 * n, 2 * nu), f"eta[{phi.source}]", build)


def grad_x_sq_symbol(phi) -> SymbolFn:
    """|grad_x phi|^2 as a symbol of order (2n - 2, 2nu)."""
    n, nu = phi.order
    return _gradient_symbol(
        phi,
        (2 * n - 2, 2 * nu),
        f"|grad_x {phi.source}|^2",
        lambda gx, gk, xj, kj: norm2_jet(gx),
    )


def grad_xi_sq_symbol(phi) -> SymbolFn:
    """|grad_xi phi|^2 as a symbol of order (2n, 2nu - 2)."""
    n, nu = phi.order
    return _gradient_symbol(
        phi,
        (2 * n, 2 * nu - 2),
        f"|grad_xi {phi.source}|^2",
        lambda gx, gk, xj, kj: norm2_jet(gk),
    )


def weighted_grad_x_sq_symbol(phi: PhaseFn) -> SymbolFn:
    """<x>^2 |grad_x phi|^2 as a symbol of order (2n, 2nu)."""
    n, nu = phi.order
    return _gradient_symbol(
        phi,
        (2 * n, 2 * nu),
        f"<x>^2|grad_x {phi.source}|^2",
        lambda gx, gk, xj, kj: norm2_jet(gx) * (1.0 + norm2_jet(xj)),
    )


# -- eta and admissibility ------------------------------------------------------


def eta(phi: PhaseFn, x, xi) -> np.ndarray:
    """Pointwise eta(x, xi) >= 0, the value of eta_symbol(phi)."""
    return eta_symbol(phi).value(x, xi)


def check_admissible(
    phi: PhaseFn, protocol: ScanProtocol = DEFAULT_PROTOCOL
) -> AdmissibilityReport:
    """Global ellipticity of eta at order (2n, 2nu); fails loudly on a
    phase with complex values, even with a zero imaginary part, so that the
    gradients of an admissible phase are real.  The report is cached on the
    phase under its protocol and is also the phase's latest report,
    phi.admissibility."""
    n, nu = phi.order
    radii = (0.0,) + tuple(protocol.admiss_radii[:6])
    X, K = _sample_pairs(phi.d, phi.s, protocol, radii, radii)
    vals = phi.value(X, K)
    max_imag = float(np.max(np.abs(vals.imag) / (1.0 + np.abs(vals.real))))
    if np.iscomplexobj(vals):
        raise NotAdmissibleError(f"phase has complex values (relative imag {max_imag})")
    res = globally_elliptic(
        eta_symbol(phi), (2 * n, 2 * nu), protocol, radii=protocol.admiss_radii
    )
    report = AdmissibilityReport(
        admissible=res.ok,
        min_ratio=res.min_ratio,
        max_imag=max_imag,
        order=(2 * n, 2 * nu),
        radius=float(protocol.admiss_radii[0]),
        protocol=protocol.echo(),
    )
    phi.admissibility = report
    phi._reports[protocol] = report
    return report


def require_admissible(phi: PhaseFn, protocol: ScanProtocol = DEFAULT_PROTOCOL):
    """The admissibility report of phi under this protocol, checked once per
    protocol; raises NotAdmissibleError if the sweep failed."""
    report = phi._reports.get(protocol)
    if report is None:
        report = check_admissible(phi, protocol)
    if not report.admissible:
        raise NotAdmissibleError(f"phase {phi.source} failed the admissibility sweep")
    return report


# -- M_phi --------------------------------------------------------------------


@dataclass
class MphiSample:
    point: tuple  # (CompactPoint in B^d, CompactPoint in B^s)
    classification: str  # member | nonmember | margin
    min_ratio: float
    protocol: dict


def mphi_classify(
    phi: PhaseFn,
    pair,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> MphiSample:
    """Membership in M_phi: the pair is a member when |grad_xi phi|^2 fails
    ellipticity at order (2n, 2nu-2) there."""
    require_admissible(phi, protocol)
    n, nu = phi.order
    res = elliptic_at(grad_xi_sq_symbol(phi), (2 * n, 2 * nu - 2), pair, protocol)
    return MphiSample(pair, _LABELS[res.band(protocol.c0)], res.min_ratio, res.protocol)


class ClassifiedGrid:
    """Classified samples of a set scan: nearest-cell lookup, member cells
    and CSV rows."""

    csv_header = ["x_kind", "x_coords", "xi_kind", "xi_coords", "label", "min_ratio"]

    def __init__(self, phi: PhaseFn, samples: list, protocol: ScanProtocol):
        self.phi = phi
        self.samples = samples
        self.protocol = protocol

    def member_cells(self, include_margin: bool = True) -> list:
        keep = {"member", "margin"} if include_margin else {"member"}
        return [s for s in self.samples if s.classification in keep]

    def lookup(self, pair):
        return min(self.samples, key=lambda s: pair_distance(s.point, pair), default=None)

    def to_csv_rows(self) -> List[list]:
        return [
            s.point[0].csv_fields()
            + s.point[1].csv_fields()
            + [s.classification, f"{s.min_ratio:.6g}"]
            for s in self.samples
        ]


class MphiGrid(ClassifiedGrid):
    """Classified M_phi samples with fiber lookup for the SP scan."""

    def fiber(self, y: CompactPoint, radius: float) -> List[MphiSample]:
        """Member-or-margin cells whose position part is within the
        ball-metric radius of y (margin counts as member, conservatively)."""
        out = []
        for s in self.member_cells():
            if ball_distance(s.point[0], y) <= radius:
                out.append(s)
        return out


def build_mphi_grid(
    phi: PhaseFn,
    pairs: Sequence[tuple],
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> MphiGrid:
    require_admissible(phi, protocol)
    samples = [mphi_classify(phi, p, protocol) for p in pairs]
    return MphiGrid(phi, samples, protocol)


# -- SP_phi -------------------------------------------------------------------


@dataclass
class SPphiSample:
    point: tuple  # (CompactPoint, CompactPoint) in B^d x B^d
    classification: str
    min_ratio: float
    fiber_count: int
    protocol: dict


def _dist_to_cone(v: np.ndarray, qdir: np.ndarray, delta: float, rho_lo: float):
    """Distance from batched vectors v (d, B) to the truncated cone
    {rho w : rho >= rho_lo, angle(w, qdir) <= delta}; also returns |p*|."""
    nv = np.linalg.norm(v, axis=0)
    nv_safe = np.where(nv > 0, nv, 1.0)
    cosang = np.clip(np.tensordot(qdir, v, axes=(0, 0)) / nv_safe, -1.0, 1.0)
    ang = np.arccos(cosang)
    excess = np.maximum(ang - delta, 0.0)
    rho = np.clip(nv * np.cos(excess), rho_lo, None)
    dist = np.sqrt(
        np.maximum(nv**2 + rho**2 - 2.0 * nv * rho * np.cos(excess), 0.0)
    )
    return dist, rho


def _dist_to_ball(v: np.ndarray, q: np.ndarray, radius: float):
    dv = v - q[:, None]
    nd = np.linalg.norm(dv, axis=0)
    dist = np.maximum(nd - radius, 0.0)
    step = np.minimum(nd, radius) / np.where(nd > 0, nd, 1.0)
    p = q[:, None] + dv * step
    return dist, np.linalg.norm(p, axis=0)


def spphi_classify(
    phi: PhaseFn,
    pair,
    mphi_grid: MphiGrid,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> SPphiSample:
    """Membership in SP_phi at (y, q) in the boundary of B^d x B^d: the
    one-pair case of build_spphi_grid, which states the test."""
    return build_spphi_grid(phi, [pair], mphi_grid, protocol).samples[0]


def _sp_sample(phi: PhaseFn, y: CompactPoint, state, delta: float, protocol):
    """The q-free part of one SP_phi evaluation around the walk state
    (cx, ck, xi): the side grids about y and xi centred at (cx, ck), grad_x
    phi, <x>^(n-1) <xi>^nu and the degeneracy term m_pt."""
    cx, ck, xi = state
    n, nu = phi.order
    radii = protocol.evidence_radii(protocol.radii[max(0, len(protocol.radii) // 2 - 1) :])
    gx = side_grid(y, phi.d, protocol, center=cx, delta=delta, radii=radii)
    gk = side_grid(xi, phi.s, protocol, center=ck, delta=delta, radii=radii)
    X, K = cross_sides(gx, gk)
    gradx, gradk = phi.gradients(X, K)
    bx, bk = japanese_bracket(X), japanese_bracket(K)
    m_pt = np.sum(gradk * gradk, axis=0) * bx ** (-2.0 * n) * bk ** (2.0 - 2.0 * nu)
    return state, y, gx, gk, gradx, bx ** (n - 1.0) * bk ** nu, m_pt


def _sp_score(sample, q: CompactPoint, protocol):
    """The smallest ratio max(dist(grad_x phi, p-neighborhood of q) /
    (<x>^(n-1) <xi>^nu + |p|), m_pt) over the points of a _sp_sample, and
    the walk state recentred on the point that attains it."""
    (cx, ck, xi), y, gx, gk, gradx, weight, m_pt = sample
    if q.is_boundary:
        dist, pnorm = _dist_to_cone(gradx, q.array, protocol.delta, protocol.p_rho_valid)
    else:
        dist, pnorm = _dist_to_ball(gradx, q.array, protocol.finite_radius)
    rv = np.maximum(dist / (weight + pnorm), m_pt)
    col = int(np.argmin(rv))
    ix, ik = divmod(col, gk.count)
    return float(rv[col]), (recentre(gx, ix, y, cx), recentre(gk, ik, xi, ck), xi)


def sphere_like_seeds(s: int) -> List[CompactPoint]:
    """Coarse covariable seeds: directions plus a small finite lattice."""
    out = [CompactPoint.direction(v) for v in _seed_dirs(s)]
    out.append(CompactPoint.finite(np.zeros(s)))
    for r in (0.5, 1.0, 2.0, 4.0):
        for i in range(s):
            for sg in (1.0, -1.0):
                v = np.zeros(s)
                v[i] = sg * r
                out.append(CompactPoint.finite(v))
    return out


def _seed_dirs(s: int) -> np.ndarray:
    counts = {1: 2, 2: 8, 3: 14, 4: 24}
    return sphere_grid(s, counts.get(s, 24))


class SPphiGrid(ClassifiedGrid):
    """Classified SP samples; the lookup contract used by the FIO guard."""

    csv_header = ["y_kind", "y_coords", "q_kind", "q_coords", "label", "min_ratio"]


def build_spphi_grid(
    phi: PhaseFn,
    pairs: Sequence[tuple],
    mphi_grid: MphiGrid,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> SPphiGrid:
    """SP_phi membership of each pair (y, q) on the boundary of B^d x B^d.

    Member evidence is a sample (x, xi) near y where both the pointwise
    xi-degeneracy surrogate |grad_xi phi|^2 <x>^-2n <xi>^-(2nu-2) is small
    (the point sits inside a neighborhood of the M_phi fiber) and the
    analytic infimum of |grad_x phi - p| over the p-neighborhood of q falls
    below c0 (<x>^(n-1) <xi>^nu + |p|).  The stored M_phi grid seeds the
    search; coarse direction seeds plus a walking refinement cover fibers
    that fall between grid cells.

    Samples sit only at SP's evidence scales, evidence_radii of the radii
    from position len // 2 - 1 on: 2^12..2^14, the top three of the default
    2^5..2^14, where elliptic_at and the regularizers take 2^10..2^14.

    The fiber, the seeds and the screening samples depend on y alone, so
    pairs that share y exactly share them; each q scores the screening and
    walks its own three leaders."""
    require_admissible(phi, protocol)
    groups: dict = {}
    for i, (y, q) in enumerate(pairs):
        if not (y.is_boundary or q.is_boundary):
            raise ValueError("SP_phi queries live on the boundary of B^d x B^d")
        groups.setdefault((y.kind, y.array.tobytes()), []).append(i)
    walk = max(protocol.delta, protocol.fiber_radius)
    deltas = [walk] * 3 + [walk / 3.0**j for j in range(1, protocol.sp_refine_iters + 1)]
    samples: list = [None] * len(pairs)
    for idx in groups.values():
        y = pairs[idx[0]][0]
        fiber = mphi_grid.fiber(y, protocol.fiber_radius)
        seeds = {}
        for sd in [c.point[1] for c in fiber] + sphere_like_seeds(phi.s):
            seeds.setdefault((sd.kind, tuple(np.round(sd.array, 6))), sd)
        cx = y.array if y.is_boundary else None
        screens: list = [[] for _ in idx]
        for seed in seeds.values():
            sample = _sp_sample(phi, y, (cx, seed.array, seed), walk, protocol)
            for screen, i in zip(screens, idx):
                screen.append(_sp_score(sample, pairs[i][1], protocol))
        for screen, i in zip(screens, idx):
            q = pairs[i][1]
            screen.sort(key=lambda t: t[0])
            best = screen[0][0]
            for _, st in screen[:3]:
                for delta in deltas:
                    val, st = _sp_score(_sp_sample(phi, y, st, delta, protocol), q, protocol)
                    best = min(best, val)
            label = _LABELS[band(best, protocol.c0)]
            samples[i] = SPphiSample(pairs[i], label, best, len(fiber), protocol.echo())
    return SPphiGrid(phi, samples, protocol)


# -- geometric angle test (the light-weight SP exclusion) -----------------------


@dataclass
class AngleTestResult:
    nonstationary: bool
    vacuous: bool
    min_angle: float
    fibers_checked: int


def sp_angle_test(
    phi: PhaseFn,
    pair,
    alpha: float,
    E: float,
    mphi_grid: MphiGrid,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> AngleTestResult:
    """Excludes (y, omega) from SP_phi when grad_x phi(y, tau theta) keeps an
    angle >= alpha from omega for tau > E along every M_phi fiber direction.

    Raises StandingAssumptionError if <x>^2 |grad_x phi|^2 is not elliptic at
    a fiber cell (the standing hypothesis of the geometric tests)."""
    require_admissible(phi, protocol)
    y, omega = pair
    if not omega.is_boundary:
        raise ValueError("the covariable of the angle test must be a direction")
    n, nu = phi.order
    fiber = [
        c for c in mphi_grid.fiber(y, protocol.fiber_radius) if c.point[1].is_boundary
    ]
    if not fiber:
        return AngleTestResult(True, True, INF, 0)
    wsym = weighted_grad_x_sq_symbol(phi)
    taus = E * 2.0 ** np.arange(0, 7)
    min_angle = INF
    gx = side_grid(y, phi.d, protocol)
    for cell in fiber:
        res = elliptic_at(wsym, (2 * n, 2 * nu), cell.point, protocol)
        if res.band(protocol.c0) == "below":
            raise StandingAssumptionError(
                f"<x>^2|grad_x phi|^2 degenerates at fiber cell {cell.point}"
            )
        gk = side_grid(cell.point[1], phi.s, protocol, radii=taus)
        X, K = cross_sides(gx, gk)
        grad = phi.grad_x(X, K)
        ng = np.linalg.norm(grad, axis=0)
        cosang = np.tensordot(omega.array, grad, axes=(0, 0)) / np.where(
            ng > 0, ng, 1.0
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        min_angle = min(min_angle, float(np.min(ang)))
    return AngleTestResult(min_angle >= alpha, False, min_angle, len(fiber))


# -- grid builders and closure ---------------------------------------------------


def boundary_pairs(
    d_dirs: np.ndarray,
    s_dirs: np.ndarray,
    finite_x: Sequence = (),
    finite_xi: Sequence = (),
) -> List[tuple]:
    """Cells covering the three components of the boundary of B^d x B^s."""
    pairs = []
    for x in finite_x:
        for w in s_dirs:
            pairs.append((CompactPoint.finite(x), CompactPoint.direction(w)))
    for u in d_dirs:
        for w in s_dirs:
            pairs.append((CompactPoint.direction(u), CompactPoint.direction(w)))
    for u in d_dirs:
        for k in finite_xi:
            pairs.append((CompactPoint.direction(u), CompactPoint.finite(k)))
    return pairs


def closure_violations(labeled_pairs: Sequence[tuple], spacing: float) -> List[tuple]:
    """Cells labeled nonmember all of whose neighbors (within spacing in the
    pair ball metric) are members: violations of closedness on the grid."""
    out = []
    pts = [(p, lab) for p, lab in labeled_pairs]
    for i, (p, lab) in enumerate(pts):
        if lab != "nonmember":
            continue
        nbr = [
            l2
            for j, (p2, l2) in enumerate(pts)
            if j != i and pair_distance(p, p2) <= spacing
        ]
        if len(nbr) >= 3 and all(l2 in ("member", "margin") for l2 in nbr):
            out.append(p)
    return out
