"""SG Fourier integral operators built from oscillatory-integral kernels.

Half operators [A f](xi) = int e^{i phi(y, xi)} a(y, xi) f(y) dy carry
regularity flags (does the y-gradient or the xi-gradient of the phase stay
elliptic; is the phase a component in the two-sided bracket sense); composite
operators are numerical compositions through an intermediate uniform grid.
The Klein-Gordon evolution is the worked two-term composite example, kept in
its literal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .compactify import as_columns, japanese_bracket
from .jets import base_points, norm2_jet
from .oscint import GK_NODES, GK_WEIGHTS, SchwartzFn, adaptive_tensor
from .phase import PhaseFn, grad_x_sq_symbol, grad_xi_sq_symbol
from .symbols import (
    DEFAULT_PROTOCOL,
    ScanProtocol,
    SymbolFn,
    order_pair,
)

TWO_PI = 2.0 * math.pi


class FlagError(ValueError):
    """Composition attempted without a justifying regularity flag."""


def _panel_rule(a: float, b: float, n_panels: int):
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * GK_NODES[None, :]).ravel()
    weights = np.tile(half * GK_WEIGHTS, n_panels)
    return nodes, weights


@dataclass
class HalfOperator:
    """Operator f -> (xi -> int e^{i phi(y, xi)} a(y, xi) f(y) dy).

    phi lives on R^{d_y} x R^{d_xi}; flags record which mapping properties
    were verified by sampling."""

    phi: SymbolFn
    amplitude: SymbolFn
    order: tuple = (1.0, 1.0)
    ybox: float = 10.0
    is_fourier: bool = False
    fourier_sign: float = -1.0
    fourier_scale: float = 1.0
    flags: dict = field(default_factory=dict)
    protocol: ScanProtocol = DEFAULT_PROTOCOL

    @property
    def d_in(self) -> int:
        return self.phi.d

    @property
    def d_out(self) -> int:
        return self.phi.s

    def check_flags(self) -> dict:
        """Sampled regularity flags: y_elliptic (maps into rapidly decaying),
        xi_elliptic (extends to tempered distributions), component (two-sided
        gradient brackets)."""
        from .symbols import globally_elliptic

        n, nu = order_pair(self.order)
        gy = globally_elliptic(
            grad_x_sq_symbol(self.phi), (2 * n - 2, 2 * nu), self.protocol
        )
        gk = globally_elliptic(
            grad_xi_sq_symbol(self.phi), (2 * n, 2 * nu - 2), self.protocol
        )
        comp = phase_component_check(self.phi, self.protocol)
        self.flags = {
            "y_elliptic": bool(gy.ok),
            "xi_elliptic": bool(gk.ok),
            "component": bool(comp["ok"]),
            "min_ratios": {
                "y": gy.min_ratio,
                "xi": gk.min_ratio,
                "component": comp["min_ratio"],
            },
        }
        return self.flags

    def apply(self, f: SchwartzFn, out_points, tol: float = 1e-8) -> np.ndarray:
        """Pointwise values at out_points (d_out, B) by composite quadrature
        over y, with panel doubling until the change is below tol."""
        pts = np.asarray(out_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :] if self.d_out == 1 else pts[:, None]
        if self.is_fourier:
            return self._fourier_apply(f, pts, tol)
        freq = float(
            np.max(
                np.abs(
                    self.phi.grad_x(
                        np.zeros((self.d_in, pts.shape[1])), pts
                    ).real
                )
            )
        )
        n_panels = max(8, int(self.ybox * max(freq, 1.0) / 6.0))
        prev = None
        for _ in range(4):
            val = self._apply_panels(f, pts, n_panels)
            if prev is not None and np.max(np.abs(val - prev)) < tol * (
                1.0 + np.max(np.abs(val))
            ):
                return val
            prev = val
            n_panels *= 2
        return prev

    def _apply_panels(self, f, pts, n_panels):
        if self.d_in != 1:
            raise NotImplementedError("half-operator quadrature is 1d in y")
        nodes, weights = _panel_rule(-self.ybox, self.ybox, n_panels)
        ny, nb = len(nodes), pts.shape[1]
        XI = np.repeat(pts, ny, axis=1)
        Yflat = np.tile(nodes, nb)[None, :]
        ph = self.phi.value(Yflat, XI)
        amp = self.amplitude.value(Yflat, XI)
        fv = f.value(Yflat)
        integ = (np.exp(1j * ph) * amp * fv).reshape(nb, ny)
        return integ @ weights

    def _fourier_apply(self, f, pts, tol):
        nodes, weights = _panel_rule(-self.ybox, self.ybox, 64)
        phase = np.exp(1j * self.fourier_sign * np.outer(pts.ravel(), nodes))
        return self.fourier_scale * phase @ (weights * f.value(nodes[None, :]))

    def transpose(self) -> "HalfOperator":
        """Swap the integration and output variables."""
        swapped = SymbolFn(
            self.phi.s,
            self.phi.d,
            (self.phi.order[1], self.phi.order[0]),
            lambda xj, kj, inner=self.phi: inner.jet_fn(kj, xj),
            f"t[{self.phi.source}]",
        )
        amp = SymbolFn(
            self.amplitude.s,
            self.amplitude.d,
            (self.amplitude.order[1], self.amplitude.order[0]),
            lambda xj, kj, inner=self.amplitude: inner.jet_fn(kj, xj),
            f"t[{self.amplitude.source}]",
        )
        return HalfOperator(
            phi=swapped,
            amplitude=amp,
            order=(self.order[1], self.order[0]),
            ybox=self.ybox,
            is_fourier=self.is_fourier,
            fourier_sign=self.fourier_sign,
            fourier_scale=self.fourier_scale,
            protocol=self.protocol,
        )


def fourier_half_operator(d: int = 1, inverse: bool = False, ybox: float = 12.0) -> HalfOperator:
    """F (or its inverse carrying the (2 pi)^-d factor) as a half operator."""
    if d != 1:
        raise NotImplementedError("fourier half-operators are 1d")
    phi_sym = SymbolFn(
        1,
        1,
        (1.0, 1.0),
        lambda xj, kj: (xj[0] * kj[0]) * (1.0 if inverse else -1.0),
        "y*xi" if inverse else "-y*xi",
    )
    from .symbols import constant_symbol

    return HalfOperator(
        phi=phi_sym,
        amplitude=constant_symbol(1, 1, 1.0),
        order=(1.0, 1.0),
        ybox=ybox,
        is_fourier=True,
        fourier_sign=1.0 if inverse else -1.0,
        fourier_scale=(1.0 / TWO_PI) ** d if inverse else 1.0,
    )


@dataclass
class ComposedOperator:
    """outer o inner through a uniform intermediate grid."""

    outer: HalfOperator
    inner: HalfOperator
    grid_max: float = 12.0
    grid_n: int = 384

    def apply(self, f: SchwartzFn, out_points, tol: float = 1e-8) -> np.ndarray:
        pts = np.asarray(out_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :] if self.outer.d_out == 1 else pts[:, None]
        dxi = 2.0 * self.grid_max / self.grid_n
        xi = (-self.grid_max + (np.arange(self.grid_n) + 0.5) * dxi)[None, :]
        inner_vals = self.inner.apply(f, xi, tol=tol)
        if self.outer.is_fourier:
            phase = np.exp(
                1j * self.outer.fourier_sign * np.outer(pts.ravel(), xi.ravel())
            )
            return self.outer.fourier_scale * phase @ (dxi * inner_vals)
        nb = pts.shape[1]
        XI = np.tile(xi.ravel(), nb)[None, :]
        X = np.repeat(pts, self.grid_n, axis=1)
        ph = self.outer.phi.value(XI, X)
        amp = self.outer.amplitude.value(XI, X)
        integ = (np.exp(1j * ph) * amp).reshape(nb, self.grid_n)
        return integ @ (dxi * inner_vals)


def compose(op2: HalfOperator, op1: HalfOperator, grid_max: float = 12.0, grid_n: int = 384) -> ComposedOperator:
    """op2 after op1; requires a flag making the intermediate function
    integrable (op1 mapping into rapidly decaying functions, a Fourier
    factor, or a decaying outer amplitude)."""
    if not op1.is_fourier:
        if not op1.flags:
            op1.check_flags()
        ok = op1.flags.get("y_elliptic") or op1.flags.get("component")
        if not ok and op2.amplitude.order[1] >= -op2.phi.s:
            raise FlagError(
                "inner operator lacks a decay flag and the outer amplitude "
                "does not decay; composition undefined at this rigor level"
            )
    return ComposedOperator(outer=op2, inner=op1, grid_max=grid_max, grid_n=grid_n)


# -- phase components and the V regularizer ---------------------------------------


def phase_component_check(phi_sym: SymbolFn, protocol: ScanProtocol = DEFAULT_PROTOCOL) -> dict:
    """Sampled check of <grad_xi phi> >~ <x> and <grad_x phi> >~ <xi>."""
    from .symbols import _sample_pairs

    X, K = _sample_pairs(
        phi_sym.d,
        phi_sym.s,
        protocol,
        tuple(protocol.small_radii) + tuple(protocol.radii),
        tuple(protocol.small_radii) + tuple(protocol.radii),
    )
    gx = phi_sym.grad_x(X, K).real
    gk = phi_sym.grad_xi(X, K).real
    r1 = japanese_bracket(gk) / japanese_bracket(X)
    r2 = japanese_bracket(gx) / japanese_bracket(K)
    mn = float(min(r1.min(), r2.min()))
    return {"ok": mn >= protocol.c0, "min_ratio": mn, "protocol": protocol.echo()}


@dataclass
class VRegularizer:
    """V with tV e^{i phi} = e^{i phi}: tV f = (1 - Lap_xi) f / D where
    D = 1 + |grad_xi phi|^2 - i Lap_xi phi (the squared-bracket denominator;
    the plain bracket would not satisfy the identity)."""

    phi: SymbolFn
    component_report: dict

    def denominator(self, x, xi) -> np.ndarray:
        d, s = self.phi.d, self.phi.s
        pj = self.phi.jet(x, xi, 2)
        g2 = np.zeros(pj.batch, dtype=complex)
        lap = np.zeros(pj.batch, dtype=complex)
        for j in range(s):
            dj = pj.derivative(d + j)
            g2 = g2 + dj.value**2
            lap = lap + dj.derivative(d + j).value
        return 1.0 + g2 - 1j * lap

    def residual(self, x, xi) -> np.ndarray:
        """|tV e^{i phi} - e^{i phi}| at batched points."""
        x, xi = as_columns(x), as_columns(xi)
        d, s = self.phi.d, self.phi.s
        E = (self.phi.jet(x, xi, 2) * 1j).exp()
        one_minus_lap = E.value.copy()
        for j in range(s):
            one_minus_lap = one_minus_lap - E.derivative(d + j).derivative(d + j).value
        return np.abs(one_minus_lap / self.denominator(x, xi) - E.value)

    def apply(self, a: SymbolFn) -> SymbolFn:
        """V(a) = (1 - Lap_xi)[a / D], gaining two orders of x-decay."""
        phi = self.phi
        d, s = phi.d, phi.s

        def jet_fn(xj, kj):
            x, k, order = base_points(xj, kj)
            pj = phi.jet(x, k, order + 4)
            gk = [pj.derivative(d + j) for j in range(s)]
            lap = gk[0].derivative(d)
            for j in range(1, s):
                lap = lap + gk[j].derivative(d + j)
            D = 1.0 + norm2_jet(gk) - 1j * lap
            inner = a.jet(x, k, order + 2) * D.recip()
            out = inner.truncate(order)
            for j in range(s):
                out = out - inner.derivative(d + j).derivative(d + j)
            return out

        from .symbols import order_shift

        return SymbolFn(d, s, order_shift(a.order, -2.0, 0.0), jet_fn, f"V[{a.source}]")


def build_V(phi_sym: SymbolFn, protocol: ScanProtocol = DEFAULT_PROTOCOL) -> VRegularizer:
    """Refuses phases that fail the component bounds."""
    rep = phase_component_check(phi_sym, protocol)
    if not rep["ok"]:
        raise FlagError(
            f"phase component bounds fail (min ratio {rep['min_ratio']:.3g})"
        )
    return VRegularizer(phi=phi_sym, component_report=rep)


# -- kernel-type operators ------------------------------------------------------------


def tensor_schwartz(f: SchwartzFn, g: SchwartzFn) -> SchwartzFn:
    """(f tensor g)(x, y) = f(x) g(y) as a Schwartz function on the sum."""

    def jet_fn(xjets):
        return f.jet_fn(xjets[: f.d]) * g.jet_fn(xjets[f.d :])

    return SchwartzFn(f.d + g.d, jet_fn, f"({f.source})x({g.source})")


@dataclass
class OscKernelOperator:
    """FIO through its Schwartz kernel K = I_phi(a) on R^{dx+dy}."""

    phi: PhaseFn
    amplitude: SymbolFn
    dx: int
    dy: int

    def pairing(
        self, f: SchwartzFn, g: SchwartzFn, r="auto", tol: float = 1e-7, box=(8.0, 8.0)
    ):
        """<A f, g> = <K, g tensor f> (kernel variables ordered (x, y))."""
        from .oscint import eval_pairing, make_osc_integral

        I = make_osc_integral(self.phi, self.amplitude, r=r, tol=tol, box=box)
        return eval_pairing(I, tensor_schwartz(g, f)).value


def apply_to_distribution(
    op: HalfOperator,
    T,
    wf_T,
    sp_grid,
    f: SchwartzFn,
    ybox: float = 12.0,
    n_nodes: int = 96,
) -> complex:
    """<A T, f> = <T, tA f>, admitted only when the extension guard holds:
    no classical singular cell (x, p) of T may meet the stationary-phase set
    at (x, -p).  Refused otherwise."""
    from .wavefront import fio_extension_guard

    if not fio_extension_guard(wf_T, sp_grid):
        raise FlagError(
            "distribution input refused: wave front meets the stationary-phase "
            "set antipodally"
        )
    nodes, weights = _panel_rule(-ybox, ybox, n_nodes)
    tA = op.transpose()
    gvals = tA.apply(f, nodes[None, :])
    tvals = T.values(nodes[None, :])
    return complex(np.sum(weights * tvals * gvals))


# -- the Klein-Gordon evolution --------------------------------------------------------


@dataclass
class KgEvolution:
    """u(t, x) from the two-term composite formula; real for real data."""

    f: SchwartzFn
    c: float
    mass: float
    xi_max: float
    n_xi: int
    ybox: float

    def __post_init__(self):
        dxi = 2.0 * self.xi_max / self.n_xi
        self.xi = -self.xi_max + (np.arange(self.n_xi) + 0.5) * dxi
        self.dxi = dxi
        nodes, weights = _panel_rule(-self.ybox, self.ybox, 96)
        fv = self.f.value(nodes[None, :])
        self.fhat = np.exp(-1j * np.outer(self.xi, nodes)) @ (weights * fv)
        self.omega = np.sqrt(self.mass**2 + self.xi**2)

    def terms(self, t: float, x) -> tuple:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.exp(1j * np.outer(x, self.xi))
        common = self.fhat / (2j * self.omega) * self.dxi / TWO_PI
        plus = (base * np.exp(1j * self.c * t * self.omega)[None, :]) @ common
        minus = (base * np.exp(-1j * self.c * t * self.omega)[None, :]) @ common
        return plus, minus

    def values(self, t: float, x) -> np.ndarray:
        plus, minus = self.terms(t, x)
        return plus - minus

    def dt_values(self, t: float, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.exp(1j * np.outer(x, self.xi))
        common = self.fhat * self.dxi / TWO_PI
        cosw = np.cos(self.c * t * self.omega)
        return (base * (self.c * cosw)[None, :]) @ common


def kg_evolve(
    f: SchwartzFn,
    t: float,
    c: float = 1.0,
    mass: float = 1.0,
    dims: int = 1,
    xi_max: float = 16.0,
    n_xi: int = 1024,
    ybox: float = 12.0,
) -> KgEvolution:
    if dims != 1:
        raise NotImplementedError("desk-scale evolution is 1d")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if mass <= 0:
        raise ValueError("mass must be positive")
    return KgEvolution(f=f, c=c, mass=mass, xi_max=xi_max, n_xi=n_xi, ybox=ybox)
