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
    as_columns,
    ball_distance,
    japanese_bracket,
    pair_distance,
)
from .jets import base_points, norm2_jet
from .symbols import (
    DEFAULT_PROTOCOL,
    ScanProtocol,
    SymbolFn,
    _sample_pairs,
    cross_sides,
    elliptic_at,
    globally_elliptic,
    order_pair,
    side_grid,
)

INF = math.inf


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
    """Pointwise eta(x, xi) >= 0 computed from first-order jets."""
    gx, gk = phi.gradients(x, xi)
    bx = japanese_bracket(as_columns(x)) ** 2
    bk = japanese_bracket(as_columns(xi)) ** 2
    val = bx * np.sum(np.abs(gx) ** 2, axis=0) + bk * np.sum(np.abs(gk) ** 2, axis=0)
    return val.real


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

    def to_json(self) -> dict:
        return {
            "x": self.point[0].to_json(),
            "xi": self.point[1].to_json(),
            "label": self.classification,
            "min_ratio": float(self.min_ratio),
        }


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
    band = res.band(protocol.c0)
    label = {"below": "member", "straddle": "margin", "above": "nonmember"}[band]
    return MphiSample(pair, label, res.min_ratio, protocol.echo())


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

    def to_json(self) -> dict:
        return {
            "y": self.point[0].to_json(),
            "q": self.point[1].to_json(),
            "label": self.classification,
            "min_ratio": float(self.min_ratio),
            "fiber_count": self.fiber_count,
        }


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
    """Membership in SP_phi at (y, q) in the boundary of B^d x B^d.

    Member evidence is a sample (x, xi) near y at valid scales where both
    the pointwise xi-degeneracy surrogate |grad_xi phi|^2 <x>^-2n
    <xi>^-(2nu-2) is small (the point sits inside a neighborhood of the
    M_phi fiber) and the analytic infimum of |grad_x phi - p| over the
    p-neighborhood of q falls below c0 (<x>^(n-1) <xi>^nu + |p|).  The
    stored M_phi grid seeds the search; coarse direction seeds plus a
    walking refinement cover fibers that fall between grid cells."""
    require_admissible(phi, protocol)
    y, q = pair
    if not (y.is_boundary or q.is_boundary):
        raise ValueError("SP_phi queries live on the boundary of B^d x B^d")
    n, nu = phi.order
    fiber = mphi_grid.fiber(y, protocol.fiber_radius)

    seeds: List[CompactPoint] = [c.point[1] for c in fiber]
    seeds.extend(sphere_like_seeds(phi.s))
    seen = set()
    uniq_seeds = []
    for sd in seeds:
        key = (sd.kind, tuple(np.round(sd.array, 6)))
        if key not in seen:
            seen.add(key)
            uniq_seeds.append(sd)

    # only the top-half dyadic scales carry member evidence: sample there
    sp_radii = np.asarray(protocol.radii[max(0, len(protocol.radii) // 2 - 1) :])

    def evaluate(seed_state, delta):
        cx, ck, cfin, seed = seed_state
        xi_center = cfin if cfin is not None else seed
        gx = side_grid(y, phi.d, protocol, center_dir=cx, delta=delta, radii=sp_radii)
        gk = side_grid(
            xi_center, phi.s, protocol, center_dir=ck, delta=delta, radii=sp_radii
        )
        X, K, valid = cross_sides(gx, gk)
        gradx, gradk = phi.gradients(X, K)
        m_pt = (
            np.sum(gradk * gradk, axis=0)
            * japanese_bracket(X) ** (-2.0 * n)
            * japanese_bracket(K) ** (2.0 - 2.0 * nu)
        )
        if q.is_boundary:
            dist, pnorm = _dist_to_cone(
                gradx, q.array, protocol.delta, protocol.p_rho_valid
            )
        else:
            dist, pnorm = _dist_to_ball(gradx, q.array, protocol.finite_radius)
        denom = japanese_bracket(X) ** (n - 1.0) * japanese_bracket(K) ** nu + pnorm
        rv = np.where(valid, np.maximum(dist / denom, m_pt), INF)
        col = int(np.argmin(rv))
        val = float(rv[col])
        ix, ik = col // gk.count, col % gk.count
        if y.is_boundary and gx.dirs is not None:
            dvec = gx.dir_of(ix)
            cx = dvec / np.linalg.norm(dvec)
        if seed.is_boundary and gk.dirs is not None:
            dvec = gk.dir_of(ik)
            nrm = np.linalg.norm(dvec)
            if nrm > 0:
                ck = dvec / nrm
        elif cfin is not None and gk.dirs is not None:
            cfin = CompactPoint.finite(cfin.array + 0.5 * gk.dir_of(ik))
        return val, (cx, ck, cfin, seed)

    # screening pass at full radius, then walking refinement of the leaders
    walk = max(protocol.delta, protocol.fiber_radius)
    states = []
    for seed in uniq_seeds:
        cx = y.array if y.is_boundary else None
        ck = seed.array if seed.is_boundary else None
        cfin = None if seed.is_boundary else seed
        val, st = evaluate((cx, ck, cfin, seed), walk)
        states.append((val, st))
    states.sort(key=lambda t: t[0])
    best = states[0][0] if states else INF
    deltas = [walk] * 3 + [
        walk / 3.0**j for j in range(1, protocol.sp_refine_iters + 1)
    ]
    for val, st in states[:3]:
        for delta in deltas:
            val, st = evaluate(st, delta)
            best = min(best, val)

    c0 = protocol.c0
    if best < 0.5 * c0:
        label = "member"
    elif best <= 2.0 * c0:
        label = "margin"
    else:
        label = "nonmember"
    return SPphiSample(pair, label, best, len(fiber), protocol.echo())


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
    from .compactify import sphere_grid

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
    samples = [spphi_classify(phi, p, mphi_grid, protocol) for p in pairs]
    return SPphiGrid(phi, samples, protocol)


# -- geometric angle test (the light-weight SP exclusion) -----------------------


@dataclass
class AngleTestResult:
    nonstationary: bool
    vacuous: bool
    min_angle: float
    fibers_checked: int

    def to_json(self) -> dict:
        return {
            "nonstationary": bool(self.nonstationary),
            "vacuous": bool(self.vacuous),
            "min_angle": float(self.min_angle),
            "fibers_checked": self.fibers_checked,
        }


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
    for cell in fiber:
        res = elliptic_at(wsym, (2 * n, 2 * nu), cell.point, protocol)
        if res.band(protocol.c0) == "below":
            raise StandingAssumptionError(
                f"<x>^2|grad_x phi|^2 degenerates at fiber cell {cell.point}"
            )
        gx = side_grid(y, phi.d, protocol)
        gk = side_grid(cell.point[1], phi.s, protocol, radii=taus)
        X, K, _ = cross_sides(gx, gk)
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
