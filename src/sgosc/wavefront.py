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
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .compactify import CompactPoint, as_points, ball_distance, pair_distance, sphere_grid
from .windows import (
    cone_aperture,
    cone_geometry,
    edge_taper,
    gaussian_window,
    logradial_window,
    radial_geometry,
)

INF = math.inf


class EvaluableDistribution:
    """Pointwise-evaluable tempered distribution with optional analytic FT."""

    def __init__(
        self,
        d: int,
        evaluator: Callable[[np.ndarray], np.ndarray],
        analytic_ft: Optional["EvaluableDistribution"] = None,
        source: str = "",
    ):
        self.d = d
        self.evaluator = evaluator
        self.analytic_ft = analytic_ft
        self.source = source

    def values(self, X) -> np.ndarray:
        return np.asarray(self.evaluator(as_points(X, self.d)), dtype=complex)

    def ft(self) -> "EvaluableDistribution":
        if self.analytic_ft is None:
            raise ValueError(f"{self.source or 'distribution'} has no analytic FT")
        return self.analytic_ft


def _corner(i0: np.ndarray, k: int) -> tuple:
    """Lattice indices of corner k of the cells i0 (d, m): offset by bit j
    of k along axis j."""
    return tuple(i + ((k >> j) & 1) for j, i in enumerate(i0))


def _blend(corner: Callable[[int], np.ndarray], fr: np.ndarray) -> np.ndarray:
    """Multilinear interpolation with in-cell fractions fr (d, m), d = 1 or
    2, from corner(k), the values at the cells' `_corner` k."""
    if len(fr) == 1:
        return corner(0) * (1 - fr[0]) + corner(1) * fr[0]
    return (
        corner(0) * (1 - fr[0]) * (1 - fr[1])
        + corner(1) * fr[0] * (1 - fr[1])
        + corner(2) * (1 - fr[0]) * fr[1]
        + corner(3) * fr[0] * fr[1]
    )


def _bilinear(V: np.ndarray, i0: np.ndarray, fr: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of the 1-D or 2-D array V at lattice cells
    i0 (d, m) with in-cell fractions fr (d, m)."""
    return _blend(lambda k: V[_corner(i0, k)], fr)


def grid_sampled_distribution(values: np.ndarray, L: float, source="grid") -> EvaluableDistribution:
    """Wrap precomputed grid values (n,)*d on [-L, L)^d as an evaluable
    distribution; multilinear interpolation inside, zero outside.  Refuses
    a non-finite sample, which the interpolation would spread to its
    neighbours."""
    vals = np.asarray(values, dtype=complex)
    d = vals.ndim
    if d > 2:
        raise ValueError("grid distributions support d <= 2")
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ValueError(
            f"{source} is not finite: {vals[idx]} at sample {idx}, "
            f"the first of {len(bad)} of {vals.size} samples"
        )
    n = vals.shape[0]
    dx = 2.0 * L / n
    x0 = -L + 0.5 * dx

    def evaluator(X):
        X = np.asarray(X, dtype=float)
        t = (X - x0) / dx
        # the last cell also owns the last sample, at frac = 1
        i0 = np.minimum(np.floor(t).astype(int), n - 2)
        frac = t - i0
        out = np.zeros(X.shape[1], dtype=complex)
        inside = np.all((i0 >= 0) & (frac <= 1), axis=0)
        if not np.any(inside):
            return out
        out[inside] = _bilinear(vals, i0[:, inside], frac[:, inside])
        return out

    return EvaluableDistribution(d, evaluator, source=source)


# -- protocol ------------------------------------------------------------------


def _is_point(v, dim: int) -> bool:
    """v is a sequence of dim finite reals."""
    try:
        return len(v) == dim and all(isinstance(c, numbers.Real) and math.isfinite(c) for c in v)
    except TypeError:
        return False


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

    def __post_init__(self):
        if not self.sigmas:
            raise ValueError("WfProtocol.sigma_classical needs at least one width")
        names = (
            "box", "ngrid", "tau_radial", "alpha_angular", "r_lo", "rho_lo", "floor",
            "samples_per_octave",
        )
        checked = [(k, getattr(self, k)) for k in names]
        for name, v in checked + [("sigma_classical", s) for s in self.sigmas]:
            if not (isinstance(v, numbers.Real) and math.isfinite(v) and v > 0):
                raise ValueError(f"WfProtocol.{name} must be finite and > 0, got {v!r}")
        if not self.r_values().size:
            raise ValueError(f"WfProtocol.r_lo {self.r_lo!r} exceeds r_max = 0.6 * box")
        v = self.rho_max_frac
        if not (isinstance(v, numbers.Real) and math.isfinite(v) and 0 < v < 1):
            raise ValueError(f"WfProtocol.rho_max_frac must be finite and in (0, 1), got {v!r}")
        # a probe range that runs downward leaves no octave to fit a decay on
        top = v * self.nyquist
        if self.rho_lo >= top:
            raise ValueError(
                f"WfProtocol.rho_lo {self.rho_lo!r} is not below the probe top "
                f"rho_max_frac * nyquist = {top:.6g}"
            )
        for name in ("x_dirs", "q_dirs", "classical_centers"):
            for v in getattr(self, name):
                if not _is_point(v, self.dim) or (name != "classical_centers" and not any(v)):
                    what = "point" if name == "classical_centers" else "nonzero direction"
                    raise ValueError(
                        f"WfProtocol.{name} entry {v!r} is not a finite {what} of "
                        f"length dim = {self.dim}"
                    )
        # a covariable off the lattice would read the clipped edge frequency
        freqs = self.frequency_lattice()
        lo, hi = freqs[0], freqs[-1]
        for q in self.finite_q:
            if not (_is_point(q, self.dim) and all(lo <= c <= hi for c in q)):
                raise ValueError(
                    f"WfProtocol.finite_q point {q!r} is not a point of the frequency "
                    f"lattice's range [{lo:.6g}, {hi:.6g}]^{self.dim}"
                )

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
        lattice = tuple(itertools.product([-2.0, -1.0, 0.0, 1.0, 2.0], repeat=dim))
        if classical_centers is None:
            classical_centers = lattice
        if finite_q is None:
            finite_q = lattice
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
    def sigmas(self) -> tuple:
        """The classical window widths (a scalar sigma_classical is one)."""
        s = self.sigma_classical
        return tuple(s) if isinstance(s, (tuple, list)) else (s,)

    @property
    def dx(self) -> float:
        return 2.0 * self.box / self.ngrid

    @property
    def nyquist(self) -> float:
        return math.pi / self.dx

    def frequency_lattice(self) -> np.ndarray:
        """The angular frequencies of the grid's FFT in ascending order."""
        return np.fft.fftshift(np.fft.fftfreq(self.ngrid, d=self.dx)) * 2.0 * np.pi

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


# -- decay exponent fitting -------------------------------------------------------


def fit_decay_exponent(scales: np.ndarray, stats: np.ndarray, floor_abs: float):
    """Fitted N in stats ~ scale^-N over octave maxima, per row of stats:
    a float for stats (K,), an array (P,) for a stack (P, K) over the same
    scales (K,).

    Returns +inf (certified rapid decay over the probed range) when the
    response has died below the measurement floor and stayed there for the
    last two octaves.  Otherwise the exponent is fitted on the upper half of
    the probed range, so that content bumps at moderate scales (window
    leakage) cannot masquerade as slow tail decay; NaN when fewer than two
    octaves are live.  The slope is the centred least-squares closed form
    over the fitted octaves.  Non-finite stats are refused: NaN > floor is
    False, so they would read as a certified rapid decay."""
    scales = np.asarray(scales, dtype=float)
    stats = np.asarray(stats, dtype=float)
    if not np.all(np.isfinite(stats)):
        i = tuple(int(k) for k in np.argwhere(~np.isfinite(stats))[0])
        raise ValueError(f"fit_decay_exponent: non-finite stat {stats[i]} at index {i}")
    rows = np.atleast_2d(stats)
    K = len(scales)
    live = rows > floor_abs
    needed = 2 if K >= 5 else 1
    dead = ~np.any(live, axis=-1)
    if K > needed:
        dead |= ~np.any(live[:, K - needed :], axis=-1)
    upper = live & (np.arange(K) >= K // 2)
    sel = np.where(np.count_nonzero(upper, axis=-1)[:, None] >= 2, upper, live)
    n = np.count_nonzero(sel, axis=-1)
    x = np.log(scales)
    y = np.log(rows, out=np.zeros(rows.shape), where=sel)
    with np.errstate(invalid="ignore", divide="ignore"):
        dx = np.where(sel, x - np.sum(sel * x, axis=-1, keepdims=True) / n[:, None], 0.0)
        dy = y - np.sum(y, axis=-1, keepdims=True) / n[:, None]
        N = -np.sum(dx * dy, axis=-1) / np.sum(dx * dx, axis=-1)
    # a live response but no measurable range: undecidable at this grid
    N[n < 2] = np.nan
    N[dead] = INF
    return float(N[0]) if stats.ndim == 1 else N


def octave_maxima(scales: np.ndarray, values: np.ndarray, lo: float) -> tuple:
    """Per-octave maxima of values over geometric scale bins [lo 2^j,
    lo 2^(j+1)) from lo; empty bins are skipped.  values is one profile
    (n,) over the scales (n,), or a stack (P, n) of profiles over the same
    scales, which gives maxima (P, bins), each row equal to its own call.

    A trailing bin that the scales cover for less than 45% of its octave (in
    log measure) is dropped: a partially sampled octave underestimates the
    maximum."""
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    smax = scales.max()
    n_oct = int(math.ceil(math.log2(max(smax / lo, 1.0 + 1e-9))))
    edges = np.ldexp(lo, np.arange(n_oct + 1))
    order = np.argsort(scales, kind="stable")
    starts = np.searchsorted(scales[order], edges)
    bins = np.flatnonzero(starts[1:] > starts[:-1])
    if not bins.size:
        return np.empty(0), np.empty(values.shape[:-1] + (0,))
    # bins in between are empty, so each segment ends at its bin's upper edge
    sorted_vals = values[..., order][..., : starts[-1]]
    maxes = np.maximum.reduceat(sorted_vals, starts[bins], axis=-1)
    keep = np.ones(bins.size, dtype=bool)
    for i in np.flatnonzero(smax < edges[bins + 1]):
        keep[i] = not math.log(max(smax / edges[bins[i]], 1.0)) / math.log(2.0) < 0.45
    return np.sqrt(edges[bins[keep]] * edges[bins[keep] + 1]), maxes[..., keep]


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
    """Grid samples of the distribution plus windowed FFT magnitudes at a
    fixed set of covariable probes (d, m).

    Each probe reads the 2^d lattice values around it, so a window's
    transform is needed only there.  In 2-D the axis-0 pass of the FFT runs
    only on the columns those stencils touch (output pruning); the values
    are bitwise those of `np.fft.fftn`, which runs the same 1-D transforms
    axis by axis, last axis first."""

    def __init__(self, u: EvaluableDistribution, protocol: WfProtocol, probes: np.ndarray):
        self.protocol = protocol
        d, L, n = protocol.dim, protocol.box, protocol.ngrid
        axes = [(-L + (np.arange(n) + 0.5) * protocol.dx) for _ in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.X = np.stack([m.ravel() for m in mesh])
        vals = u.values(self.X)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            x = tuple(float(c) for c in self.X[:, bad[0]])
            raise ValueError(
                f"{u.source or 'distribution'} is not finite on the scan grid: "
                f"{vals[bad[0]]} at x = {x}, the first of {bad.size} of {vals.size} grid points"
            )
        self.uvals = vals * edge_taper(self.X, L)
        self.u_scale = float(np.max(np.abs(self.uvals))) + 1e-300
        self._shape = (n,) * d
        freqs = protocol.frequency_lattice()
        t = (as_points(probes, d) - freqs[0]) / (freqs[1] - freqs[0])
        i0 = np.clip(np.floor(t).astype(int), 0, n - 2)
        self._frac = np.clip(t - i0, 0.0, 1.0)
        # entry s of the ascending (fftshift-ed) lattice is FFT bin s - n//2 mod n
        bins = (np.stack([np.stack(_corner(i0, k)) for k in range(2**d)]) - n // 2) % n
        if d == 1:
            self._gather = (bins[:, 0],)
        else:
            self._cols, at = np.unique(bins[:, 1], return_inverse=True)
            self._gather = (bins[:, 0], at.reshape(bins[:, 1].shape))

    def windowed_abs(self, wvals: np.ndarray) -> np.ndarray:
        """|F[w u]| at the probes, interpolated on the frequency lattice and
        normalized by the window mass: one value per probe.

        The window values must be nonnegative, as every window of the scan
        (a product of gaussians) is: the mass is their plain sum, which then
        equals the sum of their absolute values bit for bit."""
        d = self.protocol.dim
        dx = self.protocol.dx
        mass = float(np.sum(wvals)) * dx**d + 1e-300
        wu = (wvals * self.uvals).reshape(self._shape)
        if d == 1:
            W = np.fft.fft(wu)
        else:
            W = np.fft.fft(np.fft.fft(wu, axis=1)[:, self._cols], axis=0)
        mags = np.abs(W[self._gather]) * dx**d / mass
        return _blend(mags.__getitem__, self._frac)


def wf_scan(u: EvaluableDistribution, protocol: WfProtocol) -> WfSet:
    """Scan the three boundary components of B^d x B^d.

    classical (finite y, direction q): decay of |F[w_y u]| along rho q.
    e (direction w, finite q): decay in r of the gabor magnitude at (r w, q).
    corner (direction w, direction q): decay along rho q of the cone-windowed
    transforms, maximized over window radii >= R for every tested R.
    """
    if protocol.dim > 2:
        raise ValueError("wf_scan supports d <= 2")
    p = protocol
    # the probes: every covariable ray rho q, then the finite covariables
    rho = p.rho_dense()
    nq, nrho = len(p.q_dirs), len(rho)
    probes = [np.outer(np.asarray(qd), rho) for qd in p.q_dirs]
    probes += [np.asarray(q, dtype=float)[:, None] for q in p.finite_q]
    ctx = _FourierContext(u, p, np.hstack(probes))
    n_ray = nq * nrho
    floor_abs = p.floor * max(1.0, ctx.u_scale)
    cells: List[WfCell] = []

    def cell(y, q, kind, families, scales, lo):
        """Decide one cell from its window families, each an (amplitude,
        profiles) pair: fit every profile's octave maxima over scales from
        lo, all profiles in one stack, then let a family collapse override
        the largest fit."""
        profiles = [prof for _, profs in families for prof in profs]
        amps = [float(amp) for amp, _ in families]
        N = INF
        if profiles:
            Ns = fit_decay_exponent(*octave_maxima(scales, np.stack(profiles), lo), floor_abs)
            N = _collapse_or_max(Ns.tolist(), amps, p, floor_abs)
        cells.append(WfCell(y, q, _label(N, p), N, kind))

    # classical windows: a cell is regular as soon as one tested window
    # width certifies rapid decay (the existential cutoff quantifier)
    for y in p.classical_centers:
        ray_mags = [
            ctx.windowed_abs(gaussian_window(ctx.X, y, sg))[:n_ray].reshape(nq, nrho)
            for sg in p.sigmas
        ]
        for j, qd in enumerate(p.q_dirs):
            families = [(mags[j].max(), [mags[j]]) for mags in ray_mags]
            cell(CompactPoint.finite(y), CompactPoint.direction(qd), "classical",
                 families, rho, p.rho_lo)

    # radial windows per direction, swept jointly over log-width and angular
    # aperture: any window family certifying rapid decay makes the cell
    # regular (the cutoffs in the definitions are existentially quantified)
    rvals = p.r_values()
    r_subsets = p.r_subsets or sorted({rvals[0], rvals[len(rvals) // 2], rvals[-1]})
    # corner profiles: maxima over the window radii >= R, per tested R
    selections = [sel for sel in (rvals >= R - 1e-9 for R in r_subsets) if np.any(sel)]
    shapes = (
        (p.tau_radial, p.alpha_angular),
        (0.5 * p.tau_radial, 0.5 * p.alpha_angular),
        (0.25 * p.tau_radial, 0.25 * p.alpha_angular),
    )
    radial = radial_geometry(ctx.X)
    for wd in p.x_dirs:
        geom = cone_geometry(radial, wd)
        # per shape, the magnitudes (window radius, probe)
        fam = []
        for tau, alpha in shapes:
            cone = cone_aperture(geom, alpha)
            fam.append(np.stack([ctx.windowed_abs(logradial_window(cone, r, tau)) for r in rvals]))
        # e-cells: fixed finite covariable, decay in r
        for k, q in enumerate(p.finite_q):
            families = [(mags[:, n_ray + k].max(), [mags[:, n_ray + k]]) for mags in fam]
            cell(CompactPoint.direction(wd), CompactPoint.finite(q), "e",
                 families, rvals, p.r_lo)
        # corner cells
        for j, qd in enumerate(p.q_dirs):
            families = []
            for mags in fam:
                mat = mags[:, j * nrho : (j + 1) * nrho]  # (nr, nrho)
                families.append((mat.max(), [mat[sel].max(axis=0) for sel in selections]))
            cell(CompactPoint.direction(wd), CompactPoint.direction(qd), "corner",
                 families, rho, p.rho_lo)
    return WfSet(cells, p, ctx.u_scale)


# -- cone support scans -----------------------------------------------------------


def _origin_floor(u: EvaluableDistribution, p: WfProtocol) -> float:
    """The protocol floor scaled by |u| at the origin (when that exceeds 1)."""
    scale = float(np.max(np.abs(u.values(np.zeros((p.dim, 1)))))) + 1e-300
    return p.floor * max(1.0, scale)


def css_scan(u: EvaluableDistribution, protocol: WfProtocol) -> tuple:
    """Directions where the values (plus a finite-difference surrogate) fail
    rapid decay; returns (singular directions, per-direction report)."""
    p = protocol
    rdense = p.r_lo * (p.r_max / p.r_lo) ** (
        np.arange(4 * p.samples_per_octave) / (4 * p.samples_per_octave - 1)
    )
    report = {}
    singular = []
    floor_abs = _origin_floor(u, p)
    h = 0.1
    offset = np.zeros((p.dim, 1))
    offset[0, 0] = h
    for wd in p.x_dirs:
        pts = np.outer(np.asarray(wd, dtype=float), rdense)
        vals = u.values(pts)
        stat = np.maximum(np.abs(vals), np.abs(u.values(pts + offset) - vals))
        N = fit_decay_exponent(*octave_maxima(rdense, stat, p.r_lo), floor_abs)
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
    floor_abs = _origin_floor(u, p)
    for wd in p.x_dirs:
        pts = np.outer(np.asarray(wd), rdense)
        mx = float(np.max(np.abs(u.values(pts))))
        inside = mx > floor_abs
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
