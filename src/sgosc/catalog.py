"""Built-in phases, amplitudes, test functions and analytic oracles.

The centerpiece is the two-point function of the free massive scalar field:
phase phi(x, xi) = -x0 omega(xi) + x.xi with omega(xi) = sqrt(m^2 + |xi|^2),
amplitude i/(4 (2 pi)^3 omega) in 1+3 dimensions, together with closed-form
parametrizations of its singularity sets.  A reduced 1+1-dimensional analog
(amplitude i/(4 pi omega), a non-paper normalization choice) serves the
full-quadrature and wave front scans; the set geometry is dimension-uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .compactify import CompactPoint
from .jets import jb_jet, norm2_jet
from .oscint import SchwartzFn
from .phase import PhaseFn
from .symbols import SymbolFn, constant_symbol
from .synth import make_fk, make_g

ATOL = 1e-9


@dataclass(frozen=True)
class KgSpec:
    """Klein-Gordon data on R^{1+ds} x R^ds."""

    mass: float = 1.0
    spatial_dim: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be finite and positive, got {self.mass}")

    @property
    def d(self) -> int:
        return self.spatial_dim + 1

    @property
    def s(self) -> int:
        return self.spatial_dim

    def omega(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return np.sqrt(self.mass**2 + np.sum(xi * xi, axis=0))

    def phase(self) -> PhaseFn:
        m2 = self.mass**2
        d = self.d

        def jet_fn(xj, kj):
            om = (norm2_jet(kj) + m2).sqrt()
            acc = -(xj[0] * om)
            for i, kjet in enumerate(kj):
                acc = acc + xj[1 + i] * kjet
            return acc

        sym = SymbolFn(
            d, self.s, (1.0, 1.0), jet_fn, f"kg-phase(m={self.mass},ds={self.spatial_dim})"
        )
        return PhaseFn(sym, (1.0, 1.0))

    def normalization(self) -> complex:
        if self.spatial_dim == 3:
            return 1j / (4.0 * (2.0 * math.pi) ** 3)
        if self.spatial_dim == 1:
            # reduced-dimension analog constant (not from the source material)
            return 1j / (4.0 * math.pi)
        return 1j / (4.0 * (2.0 * math.pi) ** self.spatial_dim)

    def amplitude(self) -> SymbolFn:
        m2 = self.mass**2
        const = self.normalization()

        def jet_fn(xj, kj):
            om = (norm2_jet(kj) + m2).sqrt()
            return om.recip() * const

        return SymbolFn(
            self.d, self.s, (0.0, -1.0), jet_fn, f"kg-amp(m={self.mass},ds={self.spatial_dim})"
        )

    def truncated_amplitude(self, cutoff: float = 6.0) -> SymbolFn:
        """Schwartz-in-xi truncation (gaussian roll-off at |xi| ~ cutoff) for
        desk-scale quadrature and wave front scans."""
        m2 = self.mass**2
        const = self.normalization()
        c2 = float(cutoff) ** 2

        def jet_fn(xj, kj):
            om = (norm2_jet(kj) + m2).sqrt()
            roll = (-(norm2_jet(kj) * (1.0 / c2))).exp()
            return om.recip() * roll * const

        return SymbolFn(
            self.d,
            self.s,
            (0.0, -math.inf),
            jet_fn,
            f"kg-amp-trunc(m={self.mass},ds={self.spatial_dim},Xi={cutoff})",
        )


def kg11_gauss_pairing(mass: float = 1.0, cutoff: Optional[float] = None) -> complex:
    """<I_phi(a), e^{-|x|^2}> in closed form for the kg11 phase with the kg11
    amplitude (cutoff None: the two-point function) or the kg11-trunc
    amplitude of that cutoff.  The x-integral is the Gaussian transform
    pi e^{-(xi^2 + omega^2)/4}; with the normalization i/(4 pi) this leaves
    (i/4) int e^{-(2 xi^2 + m^2)/4} omega(xi)^-1 rho(xi) dxi, where
    rho = e^{-xi^2/cutoff^2}, or 1 when cutoff is None."""
    from scipy.integrate import quad  # imported here: it adds 0.2 s to importing sgosc

    m2 = KgSpec(mass, 1).mass ** 2  # KgSpec refuses a mass <= 0
    inv_c2 = 0.0 if cutoff is None else 1.0 / cutoff**2

    def integrand(xi):
        return math.exp(-(2.0 * xi * xi + m2) / 4.0 - xi * xi * inv_c2) / math.sqrt(m2 + xi * xi)

    val, _ = quad(integrand, -math.inf, math.inf, epsabs=0.0, epsrel=1e-13)
    return 1j * val / 4.0


# -- set oracles -------------------------------------------------------------------


def _split_time(v: np.ndarray):
    return float(v[0]), np.asarray(v[1:], dtype=float)


def _angle_close(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return False
    return float(np.linalg.norm(a / na - b / nb)) <= atol


def kg_mphi_oracle(pair, spec: KgSpec = KgSpec(), atol: float = ATOL) -> str:
    """Exact membership in the xi-degeneracy set of the two-point phase."""
    P, W = pair
    m = spec.mass
    if not P.is_boundary and W.is_boundary:
        x0, xv = _split_time(P.array)
        theta = W.array
        if np.linalg.norm(P.array) <= atol:
            return "member"
        nxv = np.linalg.norm(xv)
        if nxv <= atol:
            return "nonmember"
        for sg in (1.0, -1.0):
            if abs(x0 - sg * nxv) <= atol * (1.0 + nxv) and _angle_close(
                theta, sg * xv, atol
            ):
                return "member"
        return "nonmember"
    if P.is_boundary and W.is_boundary:
        u0, uv = _split_time(P.array)
        theta = W.array
        nuv = np.linalg.norm(uv)
        if abs(abs(u0) - nuv) > atol or nuv <= atol:
            return "nonmember"
        return (
            "member"
            if _angle_close(theta, math.copysign(1.0, u0) * uv, atol)
            else "nonmember"
        )
    if P.is_boundary and not W.is_boundary:
        u0, uv = _split_time(P.array)
        xif = W.array
        nuv = np.linalg.norm(uv)
        if abs(u0) <= nuv + atol:
            return "nonmember"
        w = uv / u0
        target = m * w / math.sqrt(max(1.0 - float(np.dot(w, w)), 1e-300))
        return (
            "member"
            if float(np.linalg.norm(xif - target)) <= atol * (1.0 + np.linalg.norm(target))
            else "nonmember"
        )
    raise ValueError("malformed boundary pair for the M oracle")


def kg_spphi_oracle(pair, spec: KgSpec = KgSpec(), atol: float = ATOL) -> str:
    """Exact membership in the stationary-phase set of the two-point phase."""
    Y, Q = pair
    m = spec.mass
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if not Y.is_boundary and Q.is_boundary:
        q0, qv = _split_time(Q.array)
        if abs(q0 + inv_sqrt2) > atol:
            return "nonmember"
        y0, yv = _split_time(Y.array)
        if np.linalg.norm(Y.array) <= atol:
            return "member"
        nyv = np.linalg.norm(yv)
        if nyv <= atol:
            return "nonmember"
        for sg in (1.0, -1.0):
            if abs(y0 - sg * nyv) <= atol * (1.0 + nyv) and _angle_close(
                qv, sg * yv, atol
            ):
                return "member"
        return "nonmember"
    if Y.is_boundary and Q.is_boundary:
        u0, uv = _split_time(Y.array)
        q0, qv = _split_time(Q.array)
        nuv = np.linalg.norm(uv)
        if abs(abs(u0) - nuv) > atol or nuv <= atol:
            return "nonmember"
        if abs(q0 + inv_sqrt2) > atol:
            return "nonmember"
        return (
            "member"
            if _angle_close(qv, math.copysign(1.0, u0) * uv, atol)
            else "nonmember"
        )
    if Y.is_boundary and not Q.is_boundary:
        p0, pv = _split_time(Q.array)
        om = math.sqrt(m**2 + float(np.sum(pv * pv)))
        if abs(p0 + om) > atol * (1.0 + om):
            return "nonmember"
        u = Y.array
        shell = np.concatenate([[om], pv])
        shell = shell / np.linalg.norm(shell)
        if np.linalg.norm(u - shell) <= atol or np.linalg.norm(u + shell) <= atol:
            return "member"
        return "nonmember"
    raise ValueError("malformed boundary pair for the SP oracle")


# -- sample clouds and ball-metric distances ------------------------------------------


def _geodesic_arc(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Unit vectors along the minimizing arc between the directions of a and
    b (the minimax over the sphere of two angle-monotone terms lies on it).
    Degenerate inputs fall back to the other endpoint or a fixed axis."""
    ds = len(a)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 and nb < 1e-12:
        e = np.zeros(ds)
        e[0] = 1.0
        return e[None, :] if ds > 1 else np.array([[1.0], [-1.0]])
    if ds == 1:
        return np.array([[1.0], [-1.0]])
    if na < 1e-12:
        return (b / nb)[None, :]
    if nb < 1e-12:
        return (a / na)[None, :]
    u, v = a / na, b / nb
    dot = float(np.clip(np.dot(u, v), -1.0, 1.0))
    if dot < -1.0 + 1e-12:
        # antipodal: route through a perpendicular direction
        p = np.zeros(ds)
        p[int(np.argmin(np.abs(u)))] = 1.0
        p = p - np.dot(p, u) * u
        p /= np.linalg.norm(p)
        half1 = _geodesic_arc(u, p, n // 2)
        half2 = _geodesic_arc(p, v, n // 2)
        return np.concatenate([half1, half2])
    ang = math.acos(dot)
    if ang < 1e-9:
        return u[None, :]
    ts = np.linspace(0.0, 1.0, n)
    arc = (
        np.sin((1 - ts) * ang)[:, None] * u[None, :]
        + np.sin(ts * ang)[:, None] * v[None, :]
    ) / math.sin(ang)
    return arc / np.linalg.norm(arc, axis=1, keepdims=True)


_RADII = np.concatenate([[1e-4], np.geomspace(1e-3, 1e4, 120)])
_TAUS = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 120)])
# The scans are arrays of shape (sign, arc point, parameter, coordinate).
_SIGNS = np.array([1.0, -1.0])[:, None, None, None]


def _ball(p):
    """Finite points (coordinates in the last axis) in the open unit ball."""
    return p / np.sqrt(1.0 + np.sum(p * p, axis=-1))[..., None]


def _spacetime(t, v):
    """Points (t, v) with the coordinates in the last axis; t broadcasts
    against v without its last axis."""
    out = np.empty(np.broadcast_shapes(np.shape(t), v.shape[:-1]) + (1 + v.shape[-1],))
    out[..., 0] = t
    out[..., 1:] = v
    return out


def _minimax(bx, bq, xs, qs):
    """min over a broadcast family of max(|bx - x|, |bq - q|)."""
    dx = np.linalg.norm(xs - bx, axis=-1)
    dq = np.linalg.norm(qs - bq, axis=-1)
    return float(np.min(np.maximum(dx, dq)))


def _position_families(bv, bw, n_arc, m):
    """The positions both sets share, for both signs and every direction th
    on the geodesic arcs from bv to +-bw: the light cone with its null corner
    appended as the last radius, and the timelike hyperboloids.  Returns th
    (1, A, 1, ds) and the two families (2, A, P, d)."""
    th = np.concatenate([_geodesic_arc(bv, bw, n_arc), _geodesic_arc(bv, -bw, n_arc)])
    th = th[None, :, None, :]
    sg = _SIGNS[..., 0]
    light = _ball(_spacetime(sg * _RADII, _RADII[:, None] * th))
    null = _spacetime(sg, th) / math.sqrt(2.0)
    om = np.sqrt(m * m + _TAUS * _TAUS)
    timelike = _SIGNS * _spacetime(om, _TAUS[:, None] * th)
    timelike = timelike / np.linalg.norm(timelike, axis=-1)[..., None]
    return th, np.concatenate([light, null], axis=-2), timelike


def kg_mphi_distance(pair, spec: KgSpec = KgSpec(), n_arc: int = 80) -> float:
    """Ball-metric (max over the two factors) distance to the M set,
    minimized per family over a fine scan of the reduced parameters (radial
    parameter x geodesic arc between the two pulling directions x sign)."""
    bx = pair[0].ball_coords()
    bq = pair[1].ball_coords()

    # x = 0 with every direction
    nq = np.linalg.norm(bq)
    d_zero = max(np.linalg.norm(bx), abs(1.0 - nq) if nq > 0 else 1.0)

    # light-cone positions and the null corner with matched directions,
    # timelike positions with finite covariables
    th, cone, timelike = _position_families(bx[1:], bq, n_arc, spec.mass)
    return min(
        d_zero,
        _minimax(bx, bq, cone, _SIGNS * th),
        _minimax(bx, bq, timelike, _ball(_TAUS[:, None] * th)),
    )


def kg_spphi_distance(pair, spec: KgSpec = KgSpec(), n_arc: int = 80) -> float:
    """Ball-metric distance to the stationary-phase set (same scan scheme)."""
    m = spec.mass
    by = pair[0].ball_coords()
    bq = pair[1].ball_coords()
    bqv = bq[1:]

    # y = 0 with the backward null covariable directions
    nqv = np.linalg.norm(bqv)
    if nqv > 1e-12:
        qpt = np.concatenate([[-1.0], bqv / nqv]) / math.sqrt(2.0)
        d_zero = max(np.linalg.norm(by), np.linalg.norm(bq - qpt))
    else:
        d_zero = max(np.linalg.norm(by), 1.0)

    # light-cone positions and the null corner with backward null
    # covariables, timelike positions with on-shell finite covariables
    th, cone, timelike = _position_families(by[1:], bqv, n_arc, m)
    om = np.sqrt(m * m + _TAUS * _TAUS)
    return min(
        d_zero,
        _minimax(by, bq, cone, _spacetime(-1.0, _SIGNS * th) / math.sqrt(2.0)),
        _minimax(by, bq, timelike, _ball(_spacetime(-om, _TAUS[:, None] * th))),
    )


# -- mass-shell Fourier support check --------------------------------------------------


def mollified_shell(spec: KgSpec, width: float):
    """Gaussian mollification of the negative-shell measure
    delta(k0 + omega(k)) / omega(k), evaluable on R^{1+ds}."""
    from .wavefront import EvaluableDistribution

    m = spec.mass

    def evaluator(K):
        k0 = K[0]
        kv = K[1:]
        om = np.sqrt(m**2 + np.sum(kv * kv, axis=0))
        return (
            np.exp(-0.5 * ((k0 + om) / width) ** 2)
            / (om * width * math.sqrt(2.0 * math.pi))
        ).astype(complex)

    return EvaluableDistribution(
        spec.d, evaluator, source=f"shell(width={width})"
    )


def kg_ft_support_check(
    spec: Optional[KgSpec] = None,
    widths=(0.2, 0.1, 0.05),
    box: float = 10.0,
    ngrid: int = 256,
) -> dict:
    """Scans mollified shell measures: classical singular cells must sit on
    the shell with covariables along its normals, i.e. map onto the
    stationary-phase oracle under the Fourier symmetry; the distance to the
    oracle set must not grow as the mollification width shrinks."""
    from .wavefront import WfProtocol, wf_scan

    spec = spec or KgSpec(1.0, 1)
    if spec.spatial_dim != 1:
        raise ValueError("the shell scan is desk-scale: use the reduced spec")
    m = spec.mass
    k1s = [-2.0, -1.0, 0.0, 1.0, 2.0]
    on_shell = [(-math.sqrt(m * m + k * k), k) for k in k1s]
    off_shell = [(2.0, 0.0), (1.5, 1.0), (-3.5, 0.5)]
    proto = WfProtocol.make(
        2,
        box=box,
        ngrid=ngrid,
        n_dirs=16,
        classical_centers=on_shell + off_shell,
        finite_q=[(0.0, 0.0)],
    )
    results = {"widths": list(widths), "per_width": []}
    prev = math.inf
    monotone = True
    for w in widths:
        u = mollified_shell(spec, w)
        wf = wf_scan(u, proto)
        sing = [c for c in wf.singular() if c.kind == "classical"]
        dists = []
        for c in sing:
            k = np.asarray(c.y.coords)
            qdir = np.asarray(c.q.coords)
            mapped = (CompactPoint.direction(-qdir), CompactPoint.finite(k))
            dists.append(kg_spphi_distance(mapped, spec))
        worst = max(dists) if dists else 0.0
        off_regular = all(
            wf.lookup(CompactPoint.finite(y), CompactPoint.direction(qd)).label
            == "regular"
            for y in off_shell
            for qd in proto.q_dirs
        )
        shell_detected = any(
            wf.lookup(CompactPoint.finite(y), CompactPoint.direction(qd)).label
            != "regular"
            for y in on_shell
            for qd in proto.q_dirs
        )
        results["per_width"].append(
            {
                "width": w,
                "singular_cells": len(sing),
                "worst_oracle_distance": worst,
                "off_shell_regular": bool(off_regular),
                "shell_detected": bool(shell_detected),
            }
        )
        if worst > prev + 1e-6:
            monotone = False
        prev = worst
    results["distance_monotone"] = monotone
    return results


# -- registry ---------------------------------------------------------------------------


def sep_power_phase(n: float = 1.0, nu: float = 1.0, d: int = 1, s: int = 1) -> PhaseFn:
    """Separable power phase <x>^n <xi>^nu."""

    def jet_fn(xj, kj):
        return jb_jet(xj).power(n) * jb_jet(kj).power(nu)

    sym = SymbolFn(d, s, (n, nu), jet_fn, f"<x>^{n}<xi>^{nu}")
    return PhaseFn(sym, (n, nu))


def gaussian_amplitude(d: int = 1, s: int = 1) -> SymbolFn:
    def jet_fn(xj, kj):
        return (-(norm2_jet(xj) + norm2_jet(kj))).exp()

    return SymbolFn(d, s, (-math.inf, -math.inf), jet_fn, "exp(-|x|^2-|xi|^2)")


# catalog name -> builder of the keyword options; the CLI reads the names here
PHASES = {
    "kg4": lambda kw: KgSpec(kw.get("mass", 1.0), 3).phase(),
    "kg11": lambda kw: KgSpec(kw.get("mass", 1.0), 1).phase(),
    "sep-power": lambda kw: sep_power_phase(
        kw.get("n", 1.0), kw.get("nu", 1.0), kw.get("d", 1), kw.get("s", 1)
    ),
}
AMPLITUDES = {
    "kg4": lambda kw: KgSpec(kw.get("mass", 1.0), 3).amplitude(),
    "kg11": lambda kw: KgSpec(kw.get("mass", 1.0), 1).amplitude(),
    "kg11-trunc": lambda kw: KgSpec(kw.get("mass", 1.0), 1).truncated_amplitude(
        kw.get("cutoff", 6.0)
    ),
    "gauss": lambda kw: gaussian_amplitude(kw.get("d", 1), kw.get("s", 1)),
    "one": lambda kw: constant_symbol(kw.get("d", 1), kw.get("s", 1), 1.0),
}


def get_phase(name: str, **kw) -> PhaseFn:
    if name not in PHASES:
        raise KeyError(f"unknown catalog phase {name!r}")
    return PHASES[name](kw)


def get_amplitude(name: str, **kw) -> SymbolFn:
    if name not in AMPLITUDES:
        raise KeyError(f"unknown catalog amplitude {name!r}")
    return AMPLITUDES[name](kw)


def get_testfn(name: str, **kw) -> SchwartzFn:
    if name == "gauss":
        return SchwartzFn.gaussian(kw.get("d", 1), kw.get("width", 1.0))
    raise KeyError(f"unknown catalog test function {name!r}")


def get_distribution(name: str, **kw):
    if name == "fk":
        return make_fk(kw["omega"], kw["eta"], kw.get("k", 1))
    if name == "g-train":
        return make_g(kw["omega"], kw["eta"], kw.get("K_max", 3))
    raise KeyError(f"unknown catalog distribution {name!r}")


def list_catalog() -> List[dict]:
    return [
        {"id": "kg4", "kind": "phase+amplitude", "note": "two-point function, 1+3 dims"},
        {"id": "kg11", "kind": "phase+amplitude", "note": "reduced 1+1 analog"},
        {
            "id": "kg11-trunc",
            "kind": "amplitude",
            "note": "reduced analog with Schwartz xi-truncation",
        },
        {"id": "sep-power", "kind": "phase", "note": "<x>^n <xi>^nu, params n, nu"},
        {"id": "gauss", "kind": "amplitude/testfn", "note": "gaussian"},
        {"id": "one", "kind": "amplitude", "note": "constant 1"},
        {"id": "fk", "kind": "distribution", "note": "gaussian train term (omega, eta, k)"},
        {
            "id": "g-train",
            "kind": "distribution",
            "note": "single asymptotic singularity (omega, eta, K_max)",
        },
    ]
