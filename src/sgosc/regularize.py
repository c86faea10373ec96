"""Regularization operators for oscillatory integrals.

The full operator P = u.grad_xi + v.grad_x + w satisfies tP e^{i phi} =
e^{i phi} and trades one phase order per application: P maps SG^(m,mu) into
SG^(m-n, mu-nu).  On chi's plateau |(x, xi)| <= R, chi = 1, u = v = 0 and
w = 1, so P is the identity there and P^r(a f) = a f; apply_P_r builds the
components and applies P only off the plateau.  The xi-only operator Q and
the (x,p)-dependent operator Qp regularize on cone supports where
|grad_xi phi|^2 (resp. |grad_x phi - p|^2) stays elliptic.  Components are
exact jet expressions; the adjoint identities are verified numerically, never
formed symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .compactify import (
    AsymptoticCutoff,
    CompactPoint,
    SphereGaussian,
    as_columns,
    bump_profile_jet,
    euclidean_ball,
    japanese_bracket,
    smoothstep_jet,
)
from .jets import Jet, base_points, jet_space, jet_variables, norm2_jet, radius
from .phase import PhaseFn, _dist_to_cone, grad_xi_sq_symbol, require_admissible
from .symbols import (
    DEFAULT_PROTOCOL,
    ScanProtocol,
    SymbolFn,
    cross_sides,
    order_shift,
    scaled_ratio,
    side_grid,
)


class RegularizerRefused(ValueError):
    """Construction rejected: the required ellipticity fails on the support."""


# -- smooth selectors -----------------------------------------------------------


class SpatialCutoff:
    """Smooth localizer around a compact point: a scaled bump for finite
    centers, an asymptotic cutoff with a gaussian sphere factor for
    directions."""

    def __init__(self, center: CompactPoint, width: float = 1.0, radius: float = 8.0):
        self.center = center
        self.width = float(width)
        if center.is_boundary:
            self._cut = AsymptoticCutoff(
                sphere_fn=SphereGaussian(center.array, width), radius=radius, dim=center.dim
            )

    def jet_from_vars(self, xj: Sequence[Jet]) -> Jet:
        if self.center.is_boundary:
            return self._cut.jet_from_vars(xj)
        c = self.center.array
        shifted = [xj[i] - c[i] for i in range(len(xj))]
        flat = radius(shifted) <= 0.25 * self.width

        def build(live):
            r = norm2_jet([j.columns(live) for j in shifted]).sqrt()
            return bump_profile_jet(r * (1.0 / self.width))

        return Jet.piecewise(xj[0].space, ~flat, build, one=flat)

    def value(self, x) -> np.ndarray:
        return self.jet_from_vars(jet_variables(0, as_columns(x))).value


# -- the operator P ----------------------------------------------------------------


@dataclass
class RegularizerP:
    """P = u.grad_xi + v.grad_x + w for an admissible phase.

    chi is a radial profile, identically 1 for sqrt(|x|^2+|xi|^2) <= R (which
    covers |x|+|xi| <= R, where eta may vanish) and 0 beyond R+1."""

    phi: PhaseFn
    R: float
    protocol: ScanProtocol

    def off_plateau(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Mask of the columns with |(x, xi)| > R, where chi may fall below 1;
        on the others P is the identity."""
        t0 = np.sqrt(np.sum(x * x, axis=0) + (np.sum(xi * xi, axis=0) if self.phi.s else 0.0))
        return t0 > self.R

    def chi_jet(self, vars_: Sequence[Jet]) -> Jet:
        t0 = radius(vars_)

        def build(live):
            t = norm2_jet([v.columns(live) for v in vars_]).sqrt()
            return smoothstep_jet(t, self.R, self.R + 1.0)

        return Jet.piecewise(
            vars_[0].space, (t0 > self.R) & (t0 < self.R + 1.0), build, one=t0 <= self.R
        )

    def component_jets(self, x: np.ndarray, xi: np.ndarray, order: int):
        """u (s jets), v (d jets), w and chi at the requested order."""
        d, s = self.phi.d, self.phi.s
        vhigh = jet_variables(order + 1, x, xi)
        gx, gk = self.phi.gradient_jets(x, xi, order + 1)
        bx2 = 1.0 + norm2_jet(vhigh[:d])
        bk2 = 1.0 + norm2_jet(vhigh[d:])
        eta_j = norm2_jet(gx) * bx2 + norm2_jet(gk) * bk2
        chi_hi = self.chi_jet(vhigh)
        live = self.off_plateau(x, xi)
        einv = None  # (1 - chi)/eta on the live columns
        if np.any(live):
            eta_l = eta_j.columns(live)
            if np.any(np.abs(eta_l.value) < 1e-12):
                raise RegularizerRefused(
                    "eta vanishes outside the chi=1 region; enlarge R"
                )
            einv = (1.0 - chi_hi.columns(live)) * eta_l.recip()

        def masked(bracket2, grad):
            return Jet.piecewise(
                vhigh[0].space,
                live,
                lambda lv: einv * bracket2.columns(lv) * grad.columns(lv) * 1j,
            )

        u = [masked(bk2, g) for g in gk]
        v = [masked(bx2, g) for g in gx]
        w = chi_hi.truncate(order)
        for j in range(s):
            w = w + u[j].derivative(d + j)
        for k in range(d):
            w = w + v[k].derivative(k)
        u = [uj.truncate(order) for uj in u]
        v = [vk.truncate(order) for vk in v]
        return u, v, w, chi_hi.truncate(order)

    def apply_jet(self, g: Jet, u, v, w) -> Jet:
        """P(g) = u.grad_xi g + v.grad_x g + w g, one order lower than g."""
        d, s = self.phi.d, self.phi.s
        acc = w * g
        for j in range(s):
            acc = acc + u[j] * g.derivative(d + j)
        for k in range(d):
            acc = acc + v[k] * g.derivative(k)
        return acc


def build_P(
    phi: PhaseFn, R: Optional[float] = None, protocol: ScanProtocol = DEFAULT_PROTOCOL
) -> RegularizerP:
    """Construct P for an admissible phase; chi's plateau radius defaults to
    the admissibility report radius plus one."""
    report = require_admissible(phi, protocol)
    if R is None:
        R = report.radius + 1.0
    elif R < report.radius:
        raise ValueError(
            f"R={R} below the verified admissibility radius {report.radius}"
        )
    return RegularizerP(phi=phi, R=float(R), protocol=protocol)


def apply_P_r(P: RegularizerP, a: SymbolFn, f=None, r: int = 1) -> SymbolFn:
    """P^r(a(x,xi) f(x)) as a SymbolFn of order (m - r n, mu - r nu).

    P is the identity on chi's plateau |(x, xi)| <= R, so the columns there
    get the jet of a f at the requested order; only the columns off the
    plateau take a f at order + r, the components and r applications of P.
    For r >= 1 the jet is complex128 whichever columns the batch holds."""
    phi = P.phi
    if r < 0:
        raise ValueError("r must be nonnegative")
    n, nu = phi.order
    m, mu = a.order

    out_order = order_shift((m, mu), -r * n, -r * nu)

    def af(x, xi, order):
        v = jet_variables(order, x, xi)
        g = a.jet_fn(v[: phi.d], v[phi.d :])
        return g if f is None else g * f.jet_from_vars(v[: phi.d])

    def jet_fn(xj, kj):
        x, xi, order = base_points(xj, kj)
        if r == 0:
            return af(x, xi, order)
        off = P.off_plateau(x, xi)
        # numpy sums a lone column in another order than the same column of
        # a wider batch, so a part of one column is not split off
        if min(np.count_nonzero(off), np.count_nonzero(~off)) == 1:
            off[:] = True
        sp = jet_space(phi.d + phi.s, order)
        # the zeros start the plateau's sum as P's products do, so -0.0 reads +0.0
        c = np.zeros((sp.ncoef, off.size), complex)
        if not np.all(off):
            c[:, ~off] += af(x[:, ~off], xi[:, ~off], order).c
        if np.any(off):
            xo, ko = x[:, off], xi[:, off]
            g = af(xo, ko, order + r)
            u, v, w, _ = P.component_jets(xo, ko, order + r - 1)
            for _t in range(r):
                g = P.apply_jet(g, u, v, w)
            c[:, off] = g.c
        return Jet(sp, c)

    src = f"P^{r}[({a.source})" + (f"*{getattr(f, 'source', 'f')}(x)]" if f is not None else "]")
    return SymbolFn(phi.d, phi.s, out_order, jet_fn, src)


def residual_P(P: RegularizerP, x, xi) -> np.ndarray:
    """|tP e^{i phi} - e^{i phi}| at batched points (relative; |e^{i phi}|=1)."""
    phi = P.phi
    d, s = phi.d, phi.s
    x, xi = as_columns(x), as_columns(xi)
    u, v, w, _ = P.component_jets(x, xi, 1)
    E = (phi.jet(x, xi, 2) * 1j).exp().truncate(1)
    acc = w.value * E.value
    for j in range(s):
        acc = acc - (u[j] * E).derivative(d + j).value
    for k in range(d):
        acc = acc - (v[k] * E).derivative(k).value
    return np.abs(acc - E.value)


# -- the xi-only operator Q ---------------------------------------------------------


@dataclass
class ConeLocalizer:
    """Cone-shaped support description: a boundary (or finite) pair plus the
    scan protocol that generates its sample cloud."""

    x_part: CompactPoint
    xi_part: CompactPoint

    def support_samples(self, d: int, s: int, protocol: ScanProtocol):
        """(X, K) on the cone support at the protocol's evidence scales."""
        radii = protocol.evidence_radii()
        return cross_sides(
            side_grid(self.x_part, d, protocol, radii=radii),
            side_grid(self.xi_part, s, protocol, radii=radii),
        )


@dataclass
class RegularizerQ:
    """Q = b.grad_xi + c with b = i |grad_xi phi|^-2 grad_xi phi, valid on a
    cone support where |grad_xi phi|^2 keeps its ellipticity."""

    phi: PhaseFn
    localizer: ConeLocalizer
    min_ratio: float
    protocol: ScanProtocol

    def apply(self, a: SymbolFn) -> SymbolFn:
        phi = self.phi
        n, nu = phi.order

        def jet_fn(xj, kj):
            x, xi, order = base_points(xj, kj)
            return q_step(phi, x, xi, a.jet(x, xi, order + 1))

        return SymbolFn(
            phi.d, phi.s, order_shift(a.order, -n, -nu), jet_fn, f"Q[{a.source}]"
        )

    def residual(self, x, xi) -> np.ndarray:
        """|tQ e^{i phi} - e^{i phi}| on the cone support (tQ f = -b.grad f)."""
        phi = self.phi
        d, s = phi.d, phi.s
        x, xi = as_columns(x), as_columns(xi)
        gk = phi.grad_xi(x, xi)
        g2 = np.sum(gk * gk, axis=0)
        E = np.exp(1j * phi.value(x, xi))
        tQE = np.sum((-1j * gk / g2) * (1j * gk), axis=0) * E
        return np.abs(tQE - E)


def q_step(phi: PhaseFn, x, xi, g: Jet) -> Jet:
    """Q g = sum_j b_j d_xi_j g + (d_xi_j b_j) g with b = i |grad_xi phi|^-2
    grad_xi phi, at the base points (x, xi) of g; one order below g.
    Refuses samples where |grad_xi phi|^2 vanishes."""
    d, s = phi.d, phi.s
    gk = phi.gradient_jets(x, xi, g.order)[1]
    g2 = norm2_jet(gk)
    if np.any(np.abs(g2.value) < 1e-14):
        raise RegularizerRefused("grad_xi phi vanishes on a sample")
    binv = g2.recip()
    b = [1j * binv * gk[j] for j in range(s)]
    acc = None
    for j in range(s):
        term = b[j] * g.derivative(d + j) + b[j].derivative(d + j) * g
        acc = term if acc is None else acc + term
    return acc


def build_Q(
    phi: PhaseFn,
    localizer: ConeLocalizer,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
) -> RegularizerQ:
    """Refuses construction when |grad_xi phi|^2 is not elliptic at order
    (2n, 2nu-2) over the localizer's cone support."""
    require_admissible(phi, protocol)
    n, nu = phi.order

    X, K = localizer.support_samples(phi.d, phi.s, protocol)
    mn = float(np.min(scaled_ratio(grad_xi_sq_symbol(phi), (2 * n, 2 * nu - 2), X, K)))
    if mn < protocol.c0:
        raise RegularizerRefused(
            f"|grad_xi phi|^2 loses ellipticity on the localizer (min ratio {mn:.3g})"
        )
    return RegularizerQ(phi=phi, localizer=localizer, min_ratio=mn, protocol=protocol)


# -- the (x, p) operator Qp -----------------------------------------------------------


@dataclass
class RegularizerQp:
    """Q = b.grad_x + c with b = i eta_p^-1 psi_y (grad_x phi - p), for p in a
    region around the target covariable."""

    phi: PhaseFn
    y: CompactPoint
    q: CompactPoint
    psi_y: SpatialCutoff
    min_ratio: float
    protocol: ScanProtocol

    def residual(self, x, xi, p) -> np.ndarray:
        """|tQ e^{i(phi - x.p)} - psi_y e^{i(phi - x.p)}|."""
        x, xi, p = as_columns(x), as_columns(xi), as_columns(p)
        g = self.phi.grad_x(x, xi)
        etap = np.sum((g - p) ** 2, axis=0)
        psi = self.psi_y.value(x)
        E = np.exp(1j * (self.phi.value(x, xi) - np.sum(x * p, axis=0)))
        # tQ f = -b.grad_x f with b = i etap^-1 psi (g - p)
        tQE = np.sum((-1j * psi[None, :] * (g - p) / etap) * (1j * (g - p)), axis=0) * E
        return np.abs(tQE - psi * E)


def build_Qp(
    phi: PhaseFn,
    y: CompactPoint,
    q: CompactPoint,
    xi_region: CompactPoint,
    protocol: ScanProtocol = DEFAULT_PROTOCOL,
    cutoff_width: float = 1.0,
) -> RegularizerQp:
    """Refuses construction unless eta_p(x, xi) = |grad_x phi - p|^2 dominates
    (<x>^(n-1) <xi>^nu + |p|)^2 on the sampled cone support."""
    require_admissible(phi, protocol)
    n, nu = phi.order

    X, K = ConeLocalizer(y, xi_region).support_samples(phi.d, phi.s, protocol)
    g = phi.grad_x(X, K)
    weight = japanese_bracket(X) ** (n - 1.0) * japanese_bracket(K) ** nu
    worst = math.inf
    if q.is_boundary:
        # exact infimum over the covariable cone (projection onto the ray),
        # plus the recorded dyadic sweep
        dist, pnorm = _dist_to_cone(g, q.array, protocol.delta, 1.0)
        worst = float(np.min(dist / (weight + pnorm)))
        ps = [rho * q.array for rho in (2.0 ** np.arange(0, 11))]
    else:
        ps = list(euclidean_ball(q.array, protocol.finite_radius))
    for p in ps:
        dist = np.linalg.norm(g - np.asarray(p)[:, None], axis=0)
        worst = min(worst, float(np.min(dist / (weight + np.linalg.norm(p)))))
    if worst < protocol.c0:
        raise RegularizerRefused(
            f"eta_p bound fails on the cone support (min ratio {worst:.3g})"
        )
    return RegularizerQp(
        phi=phi,
        y=y,
        q=q,
        psi_y=SpatialCutoff(y, width=cutoff_width),
        min_ratio=worst,
        protocol=protocol,
    )
