"""Numerical estimation of cone supports and global wave front sets.

Every surface here is a recorded semi-decision.  A distribution is scanned on
a uniform grid; windowed Fourier magnitudes are measured along covariable
rays and fitted with a decay exponent N per cell.  A cell is regular when the
fitted N clears the rapid-decay threshold (or the response sits below the
measurement floor), singular when N stays under the margin band, margin in
between.  Asymptotic cells use cone-shaped windows whose radius sweeps the
dyadic scales; a singularity must survive every tested inner radius, matching
the existential cutoff quantifier in the definitions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .compactify import CompactPoint, ball_distance, pair_distance, sphere_grid
from .windows import edge_taper, gaussian_window, logradial_window

INF = math.inf


class EvaluableDistribution:
    """Pointwise-evaluable tempered distribution with optional analytic FT."""

    def __init__(
        self,
        d: int,
        evaluator: Callable[[np.ndarray], np.ndarray],
        analytic_ft: Optional["EvaluableDistribution"] = None,
        growth: float = 0.0,
        source: str = "",
    ):
        self.d = d
        self.evaluator = evaluator
        self.analytic_ft = analytic_ft
        self.growth = growth
        self.source = source

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :] if self.d == 1 else X[:, None]
        return np.asarray(self.evaluator(X), dtype=complex)

    def ft(self) -> "EvaluableDistribution":
        if self.analytic_ft is None:
            raise ValueError(f"{self.source or 'distribution'} has no analytic FT")
        return self.analytic_ft


def grid_sampled_distribution(values: np.ndarray, L: float, source="grid") -> EvaluableDistribution:
    """Wrap precomputed grid values (n,)*d on [-L, L)^d as an evaluable
    distribution; multilinear interpolation inside, zero outside."""
    vals = np.asarray(values, dtype=complex)
    d = vals.ndim
    n = vals.shape[0]
    dx = 2.0 * L / n
    x0 = -L + 0.5 * dx

    def evaluator(X):
        X = np.asarray(X, dtype=float)
        t = (X - x0) / dx
        i0 = np.floor(t).astype(int)
        frac = t - i0
        out = np.zeros(X.shape[1], dtype=complex)
        inside = np.all((i0 >= 0) & (i0 < n - 1), axis=0)
        if not np.any(inside):
            return out
        ii = i0[:, inside]
        ff = frac[:, inside]
        if d == 1:
            out[inside] = vals[ii[0]] * (1 - ff[0]) + vals[ii[0] + 1] * ff[0]
        elif d == 2:
            v00 = vals[ii[0], ii[1]]
            v10 = vals[ii[0] + 1, ii[1]]
            v01 = vals[ii[0], ii[1] + 1]
            v11 = vals[ii[0] + 1, ii[1] + 1]
            out[inside] = (
                v00 * (1 - ff[0]) * (1 - ff[1])
                + v10 * ff[0] * (1 - ff[1])
                + v01 * (1 - ff[0]) * ff[1]
                + v11 * ff[0] * ff[1]
            )
        else:
            raise ValueError("grid distributions support d <= 2")
        return out

    return EvaluableDistribution(d, evaluator, source=source)


# -- protocol ------------------------------------------------------------------


@dataclass(frozen=True)
class WfProtocol:
    """Recorded parameters of a wave front scan."""

    dim: int
    box: float
    ngrid: int
    x_dirs: tuple
    q_dirs: tuple
    classical_centers: tuple
    finite_q: tuple
    r_lo: float = 4.0
    r_subsets: tuple = ()  # empty: adapt to the radius sweep (first/mid/last)
    sigma_classical: tuple = (2.0, 1.0, 0.5, 0.25)
    tau_radial: float = 0.3
    alpha_angular: float = 0.35
    samples_per_octave: int = 16
    n_threshold: float = 6.0
    margin_lo: float = 4.0
    floor: float = 1e-8
    collapse_ratio: float = 3e-3
    rho_lo: float = 0.5
    rho_max_frac: float = 0.7

    @classmethod
    def make(
        cls,
        dim: int,
        box: float,
        ngrid: int,
        n_dirs: int = 16,
        classical_centers=None,
        finite_q=None,
        **kw,
    ) -> "WfProtocol":
        dirs = tuple(tuple(v) for v in sphere_grid(dim, n_dirs))
        if classical_centers is None:
            pts = [-2.0, -1.0, 0.0, 1.0, 2.0]
            classical_centers = _lattice(pts, dim)
        if finite_q is None:
            pts = [-2.0, -1.0, 0.0, 1.0, 2.0]
            finite_q = _lattice(pts, dim)
        return cls(
            dim=dim,
            box=float(box),
            ngrid=int(ngrid),
            x_dirs=dirs,
            q_dirs=dirs,
            classical_centers=tuple(tuple(c) for c in classical_centers),
            finite_q=tuple(tuple(c) for c in finite_q),
            **kw,
        )

    @property
    def dx(self) -> float:
        return 2.0 * self.box / self.ngrid

    @property
    def nyquist(self) -> float:
        return math.pi / self.dx

    @property
    def r_max(self) -> float:
        return 0.6 * self.box

    def r_values(self) -> np.ndarray:
        out = []
        r = self.r_lo
        while r <= self.r_max + 1e-9:
            out.append(r)
            r *= math.sqrt(2.0)
        return np.asarray(out)

    def rho_dense(self) -> np.ndarray:
        hi = self.rho_max_frac * self.nyquist
        n_oct = math.log2(hi / self.rho_lo)
        count = max(8, int(round(n_oct * self.samples_per_octave)))
        return self.rho_lo * (hi / self.rho_lo) ** (np.arange(count + 1) / count)

    def replace(self, **kw) -> "WfProtocol":
        return dataclasses.replace(self, **kw)

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        for k in ("x_dirs", "q_dirs", "classical_centers", "finite_q", "r_subsets"):
            d[k] = [list(v) if isinstance(v, tuple) else v for v in d[k]]
        return d


def _lattice(pts, dim):
    if dim == 1:
        return tuple((p,) for p in pts)
    out = []
    for a in pts:
        for b in pts:
            out.append((a, b))
    return tuple(out)


# -- decay exponent fitting -------------------------------------------------------


def fit_decay_exponent(scales: np.ndarray, stats: np.ndarray, floor_abs: float) -> float:
    """Fitted N in stats ~ scale^-N over octave maxima.

    Returns +inf (certified rapid decay over the probed range) when the
    response has died below the measurement floor and stayed there for the
    last two octaves.  Otherwise the exponent is fitted on the upper half of
    the probed range, so that content bumps at moderate scales (window
    leakage) cannot masquerade as slow tail decay."""
    scales = np.asarray(scales, dtype=float)
    stats = np.asarray(stats, dtype=float)
    if len(scales) == 0:
        return INF
    live = stats > floor_abs
    if not np.any(live):
        return INF
    needed = 2 if len(live) >= 5 else 1
    if len(live) > needed and not np.any(live[len(live) - needed :]):
        return INF
    half = len(scales) // 2
    sel = live.copy()
    sel[:half] = False
    if np.count_nonzero(sel) < 2:
        sel = live
    if np.count_nonzero(sel) < 2:
        # a live response but no measurable range: undecidable at this grid
        return float("nan")
    sl = np.polyfit(np.log(scales[sel]), np.log(stats[sel]), 1)[0]
    return float(-sl)


def octave_maxima(scales: np.ndarray, values: np.ndarray, lo: float) -> tuple:
    """Per-octave maxima of values over geometric scale bins from lo.

    A trailing bin covering less than 60% of its octave (in log measure) is
    dropped: a partially sampled octave underestimates the maximum."""
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    smax = scales.max()
    n_oct = int(math.ceil(math.log2(max(smax / lo, 1.0 + 1e-9))))
    cents, maxes = [], []
    for j in range(n_oct):
        a, b = lo * 2.0**j, lo * 2.0 ** (j + 1)
        mask = (scales >= a) & (scales < b)
        if not np.any(mask):
            continue
        if smax < b and math.log(max(smax / a, 1.0)) / math.log(2.0) < 0.45:
            continue
        cents.append(math.sqrt(a * b))
        maxes.append(float(values[mask].max()))
    return np.asarray(cents), np.asarray(maxes)


def _collapse_or_max(Ns, amps, protocol, floor_abs) -> float:
    """Combine per-window-family evidence.

    Genuine content on the cell's direction keeps its amplitude when the
    window aperture narrows; tails of content anchored at other directions
    collapse gaussian-fast.  A collapse by more than the protocol ratio
    certifies that no content sits on this cell, overriding the slope fits.
    """
    if amps and amps[0] > 10.0 * floor_abs:
        if amps[-1] < protocol.collapse_ratio * amps[0]:
            return INF
    return _nan_max(Ns)


def _nan_max(values) -> float:
    """max that prefers any real evidence over undecidable NaN entries."""
    reals = [v for v in values if not math.isnan(v)]
    if reals:
        return max(reals)
    return float("nan")


def _label(N: float, protocol: WfProtocol) -> str:
    if math.isnan(N):
        return "margin"
    if N < protocol.margin_lo:
        return "singular"
    if N < protocol.n_threshold:
        return "margin"
    return "regular"


# -- the scan engine ----------------------------------------------------------------


@dataclass
class WfCell:
    y: CompactPoint
    q: CompactPoint
    label: str
    fitted_N: float
    kind: str  # classical | e | corner

    def pair(self):
        return (self.y, self.q)


class WfSet:
    """Labelled cells over the boundary of B^d x B^d."""

    csv_header = ["y_kind", "y_coords", "q_kind", "q_coords", "label", "fitted_N"]

    def __init__(self, cells: List[WfCell], protocol: WfProtocol, u_scale: float):
        self.cells = cells
        self.protocol = protocol
        self.u_scale = u_scale

    def singular(self, include_margin: bool = False) -> List[WfCell]:
        keep = {"singular", "margin"} if include_margin else {"singular"}
        return [c for c in self.cells if c.label in keep]

    def lookup(self, y: CompactPoint, q: CompactPoint) -> Optional[WfCell]:
        return min(self.cells, key=lambda c: pair_distance(c.pair(), (y, q)), default=None)

    def singular_positions(self, include_margin: bool = True) -> List[CompactPoint]:
        out = []
        for c in self.singular(include_margin):
            if not any(ball_distance(c.y, p) < 1e-9 for p in out):
                out.append(c.y)
        return out

    def to_csv_rows(self) -> List[list]:
        return [
            c.y.csv_fields()
            + c.q.csv_fields()
            + [c.label, "inf" if c.fitted_N == INF else f"{c.fitted_N:.4g}"]
            for c in self.cells
        ]

    def summary(self) -> dict:
        return {
            "cells": len(self.cells),
            "singular": len(self.singular()),
            "margin": len([c for c in self.cells if c.label == "margin"]),
            "u_scale": self.u_scale,
            "protocol": self.protocol.echo(),
        }


class _FourierContext:
    """Grid samples of the distribution plus windowed FFT magnitudes."""

    def __init__(self, u: EvaluableDistribution, protocol: WfProtocol):
        self.protocol = protocol
        d, L, n = protocol.dim, protocol.box, protocol.ngrid
        axes = [(-L + (np.arange(n) + 0.5) * protocol.dx) for _ in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.X = np.stack([m.ravel() for m in mesh])
        self.axis = axes[0]
        self.uvals = u.values(self.X) * edge_taper(self.X, L)
        self.u_scale = float(np.max(np.abs(self.uvals))) + 1e-300
        self.freqs = np.fft.fftshift(np.fft.fftfreq(n, d=protocol.dx)) * 2.0 * np.pi
        self._shape = (n,) * d

    def windowed_abs(self, wvals: np.ndarray):
        """|F[w u]| on the shifted frequency lattice, normalized by the
        window mass; returns an interpolator over covariable points."""
        d = self.protocol.dim
        dx = self.protocol.dx
        mass = float(np.sum(np.abs(wvals))) * dx**d + 1e-300
        W = np.fft.fftshift(np.fft.fftn((wvals * self.uvals).reshape(self._shape)))
        Wabs = np.abs(W) * dx**d / mass
        freqs = self.freqs
        dp = freqs[1] - freqs[0]

        def interp(P: np.ndarray) -> np.ndarray:
            P = np.asarray(P, dtype=float)
            if P.ndim == 1:
                P = P[None, :] if d == 1 else P[:, None]
            t = (P - freqs[0]) / dp
            i0 = np.clip(np.floor(t).astype(int), 0, len(freqs) - 2)
            fr = np.clip(t - i0, 0.0, 1.0)
            if d == 1:
                return Wabs[i0[0]] * (1 - fr[0]) + Wabs[i0[0] + 1] * fr[0]
            v = (
                Wabs[i0[0], i0[1]] * (1 - fr[0]) * (1 - fr[1])
                + Wabs[i0[0] + 1, i0[1]] * fr[0] * (1 - fr[1])
                + Wabs[i0[0], i0[1] + 1] * (1 - fr[0]) * fr[1]
                + Wabs[i0[0] + 1, i0[1] + 1] * fr[0] * fr[1]
            )
            return v

        return interp


def wf_scan(u: EvaluableDistribution, protocol: WfProtocol) -> WfSet:
    """Scan the three boundary components of B^d x B^d.

    classical (finite y, direction q): decay of |F[w_y u]| along rho q.
    e (direction w, finite q): decay in r of the gabor magnitude at (r w, q).
    corner (direction w, direction q): decay along rho q of the cone-windowed
    transforms, maximized over window radii >= R for every tested R.
    """
    if protocol.dim > 2:
        raise ValueError("wf_scan supports d <= 2")
    ctx = _FourierContext(u, protocol)
    p = protocol
    floor_abs = p.floor * max(1.0, ctx.u_scale)
    cells: List[WfCell] = []

    # classical windows: a cell is regular as soon as one tested window
    # width certifies rapid decay (the existential cutoff quantifier)
    rho = p.rho_dense()
    sigmas = (
        p.sigma_classical
        if isinstance(p.sigma_classical, (tuple, list))
        else (p.sigma_classical,)
    )
    for y in p.classical_centers:
        interps = [ctx.windowed_abs(gaussian_window(ctx.X, y, sg)) for sg in sigmas]
        for qd in p.q_dirs:
            pts = np.outer(np.asarray(qd), rho)
            Ns, amps = [], []
            for interp in interps:
                vals = interp(pts)
                amps.append(float(vals.max()))
                cents, maxes = octave_maxima(rho, vals, p.rho_lo)
                Ns.append(fit_decay_exponent(cents, maxes, floor_abs))
            N = _collapse_or_max(Ns, amps, p, floor_abs)
            cells.append(
                WfCell(
                    CompactPoint.finite(y),
                    CompactPoint.direction(qd),
                    _label(N, p),
                    N,
                    "classical",
                )
            )

    # radial windows per direction, swept jointly over log-width and angular
    # aperture: any window family certifying rapid decay makes the cell
    # regular (the cutoffs in the definitions are existentially quantified)
    rvals = p.r_values()
    r_subsets = (
        tuple(p.r_subsets)
        if p.r_subsets
        else tuple(
            sorted({rvals[0], rvals[len(rvals) // 2], rvals[-1]})
        )
    )
    shapes = (
        (p.tau_radial, p.alpha_angular),
        (0.5 * p.tau_radial, 0.5 * p.alpha_angular),
        (0.25 * p.tau_radial, 0.25 * p.alpha_angular),
    )
    for wd in p.x_dirs:
        fam = []
        for tau, alpha in shapes:
            fam.append(
                [
                    ctx.windowed_abs(logradial_window(ctx.X, wd, r, tau, alpha))
                    for r in rvals
                ]
            )
        # e-cells: fixed finite covariable, decay in r
        for q in p.finite_q:
            qa = np.asarray(q, dtype=float)[:, None]
            Ns, amps = [], []
            for interps in fam:
                svals = np.array([float(itp(qa)[0]) for itp in interps])
                amps.append(float(svals.max()))
                cents, maxes = octave_maxima(rvals, svals, p.r_lo)
                Ns.append(fit_decay_exponent(cents, maxes, floor_abs))
            N = _collapse_or_max(Ns, amps, p, floor_abs)
            cells.append(
                WfCell(
                    CompactPoint.direction(wd),
                    CompactPoint.finite(q),
                    _label(N, p),
                    N,
                    "e",
                )
            )
        # corner cells
        for qd in p.q_dirs:
            pts = np.outer(np.asarray(qd), rho)
            Ns, amps = [], []
            for interps in fam:
                mat = np.stack([itp(pts) for itp in interps])  # (nr, nrho)
                amps.append(float(mat.max()))
                for R in r_subsets:
                    sel = rvals >= R - 1e-9
                    if not np.any(sel):
                        continue
                    prof = mat[sel].max(axis=0)
                    cents, maxes = octave_maxima(rho, prof, p.rho_lo)
                    Ns.append(fit_decay_exponent(cents, maxes, floor_abs))
            N = _collapse_or_max(Ns, amps, p, floor_abs) if Ns else INF
            cells.append(
                WfCell(
                    CompactPoint.direction(wd),
                    CompactPoint.direction(qd),
                    _label(N, p),
                    N,
                    "corner",
                )
            )
    return WfSet(cells, p, ctx.u_scale)


# -- cone support scans -----------------------------------------------------------


def css_scan(u: EvaluableDistribution, protocol: WfProtocol) -> tuple:
    """Directions where the values (plus a finite-difference surrogate) fail
    rapid decay; returns (singular directions, per-direction report)."""
    p = protocol
    rdense = p.r_lo * (p.r_max / p.r_lo) ** (
        np.arange(4 * p.samples_per_octave) / (4 * p.samples_per_octave - 1)
    )
    report = {}
    singular = []
    h = 0.1
    offset = np.zeros((p.dim, 1))
    offset[0, 0] = h
    for wd in p.x_dirs:
        wvec = np.asarray(wd, dtype=float)
        pts = np.outer(wvec, rdense)
        vals = np.abs(u.values(pts))
        shifted = np.abs(u.values(pts + offset) - u.values(pts))
        stat = np.maximum(vals, shifted)
        cents, maxes = octave_maxima(rdense, stat, p.r_lo)
        scale = float(np.max(np.abs(u.values(np.zeros((p.dim, 1)))))) + 1e-300
        N = fit_decay_exponent(cents, maxes, p.floor * max(1.0, scale))
        label = _label(N, p)
        report[tuple(wd)] = {"N": N, "label": label}
        if label != "regular":
            singular.append(CompactPoint.direction(wd))
    return singular, report


def csp_scan(u: EvaluableDistribution, protocol: WfProtocol) -> tuple:
    """Directions in the cone support: the values exceed the support floor
    somewhere along the out-going cone."""
    p = protocol
    rdense = p.r_lo * (p.r_max / p.r_lo) ** (np.arange(32) / 31.0)
    out, report = [], {}
    scale = float(np.max(np.abs(u.values(np.zeros((p.dim, 1)))))) + 1e-300
    for wd in p.x_dirs:
        pts = np.outer(np.asarray(wd), rdense)
        mx = float(np.max(np.abs(u.values(pts))))
        inside = mx > p.floor * max(1.0, scale)
        report[tuple(wd)] = {"max": mx, "in_csp": inside}
        if inside:
            out.append(CompactPoint.direction(wd))
    return out, report


# -- symmetry, pairing, and the FIO guard --------------------------------------------


def _dual_protocol(protocol: WfProtocol) -> WfProtocol:
    neg_centers = tuple(tuple(-v for v in c) for c in protocol.classical_centers)
    return protocol.replace(
        x_dirs=protocol.q_dirs,
        q_dirs=protocol.x_dirs,
        classical_centers=protocol.finite_q,
        finite_q=neg_centers,
    )


def _mapped_pair(cell: WfCell, inverse: bool = False):
    """(p, q) in WF(u) <-> (q, -p) in WF(FT u); the inverse map is
    (p, q) -> (-q, p)."""
    y, q = cell.y, cell.q

    def neg(pt):
        coords = tuple(-v for v in pt.coords)
        return (
            CompactPoint.boundary(coords)
            if pt.is_boundary
            else CompactPoint.finite(coords)
        )

    if inverse:
        return (neg(q), y)
    return (q, neg(y))


def fourier_symmetry_check(
    u: EvaluableDistribution, protocol: WfProtocol, cell_tol: Optional[float] = None
) -> dict:
    """Scan u and its analytic FT; each singular cell must map onto a
    singular-or-margin cell of the other scan within one grid cell."""
    uhat = u.ft()
    wf_u = wf_scan(u, protocol)
    wf_hat = wf_scan(uhat, _dual_protocol(protocol))
    if cell_tol is None:
        ndir = max(len(protocol.x_dirs), 2)
        cell_tol = max(2.0 * math.pi / ndir, 0.45)
    mismatches = []

    def check(src: WfSet, dst: WfSet, direction: str):
        inverse = direction == "backward"
        for cell in src.singular():
            ty, tq = _mapped_pair(cell, inverse=inverse)
            near = dst.lookup(ty, tq)
            dd = pair_distance((near.y, near.q), (ty, tq)) if near else INF
            if near is None or dd > cell_tol or near.label == "regular":
                mismatches.append(
                    {
                        "direction": direction,
                        "cell": [cell.y.to_json(), cell.q.to_json()],
                        "mapped": [ty.to_json(), tq.to_json()],
                        "found": near.label if near else "none",
                        "distance": dd,
                    }
                )

    check(wf_u, wf_hat, "forward")
    check(wf_hat, wf_u, "backward")
    return {
        "matched": not mismatches,
        "mismatches": mismatches,
        "singular_u": len(wf_u.singular()),
        "singular_ft": len(wf_hat.singular()),
    }


def pairing_predicate(wf: WfSet) -> bool:
    """True when no classical cell is singular together with its antipode
    (margin counts as singular, conservatively)."""
    bad = [c for c in wf.cells if c.kind == "classical" and c.label != "regular"]
    for c in bad:
        anti_q = CompactPoint.boundary(tuple(-v for v in c.q.coords))
        for c2 in bad:
            if (
                ball_distance(c2.y, c.y) < 1e-9
                and ball_distance(c2.q, anti_q) < 1e-9
            ):
                return False
    return True


def fio_extension_guard(wf_T: WfSet, sp_grid, align_tol: float = 0.45) -> bool:
    """Extension gate: no classical singular cell (x, p) of T may have
    (x, -p) inside the stationary-phase grid (member or margin)."""
    for c in wf_T.cells:
        if c.kind != "classical" or c.label == "regular":
            continue
        anti = (c.y, CompactPoint.boundary(tuple(-v for v in c.q.coords)))
        near = sp_grid.lookup(anti)
        if near is None:
            raise ValueError("stationary-phase grid is empty")
        dd = pair_distance(near.point, anti)
        if dd > align_tol:
            raise ValueError(
                f"grids misaligned: nearest SP cell {dd:.3g} away from {anti}"
            )
        if near.classification in ("member", "margin"):
            return False
    return True
