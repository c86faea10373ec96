"""SG Fourier integral operators built from oscillatory-integral kernels.

Half operators [A f](xi) = int e^{i phi(y, xi)} a(y, xi) f(y) dy carry
regularity flags (does the y-gradient or the xi-gradient of the phase stay
elliptic; is the phase a component in the two-sided bracket sense); composite
operators are numerical compositions through an intermediate uniform grid.
The Fourier transform is an ordinary half operator (phase -y.xi, amplitude 1;
its inverse y.xi and (2 pi)^-1), so every half operator and every composite
sums its quadrature nodes through the one HalfOperator._node_sum.
Half operators and composites alike double their rule until two sums agree
and refuse otherwise.  The Klein-Gordon evolution is the worked two-term
composite, u(t) = A_+ F f - A_- F f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compactify import as_columns, as_points, japanese_bracket
from .jets import Jet, base_points, norm2_jet
from .oscint import (
    GK_NODES,
    GK_WEIGHTS,
    NonConvergenceError,
    SchwartzFn,
    eval_pairing,
    make_osc_integral,
)
from .phase import PhaseFn, grad_x_sq_symbol, grad_xi_sq_symbol
from .symbols import (
    DEFAULT_PROTOCOL,
    ScanProtocol,
    SymbolFn,
    _sample_pairs,
    constant_symbol,
    globally_elliptic,
    order_pair,
    order_shift,
)
from .wavefront import fio_extension_guard

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


def _until_agreed(sums, n: int, tol: float, unit: str) -> np.ndarray:
    """sums(n) at n, 2n, 4n and 8n until two successive sums agree to tol
    relative to 1 + their largest value; refused with NonConvergenceError,
    whose diagnostic carries the last n under `unit`, otherwise."""
    prev = sums(n)
    for _ in range(3):
        n *= 2
        val = sums(n)
        change = float(np.max(np.abs(val - prev)))
        if change < tol * (1.0 + np.max(np.abs(val))):
            return val
        prev = val
    raise NonConvergenceError(
        f"quadrature changed by {change:.3g} at {n} {unit.replace('_', ' ')}",
        {unit: n, "change": change, "tol": tol},
    )


@dataclass
class HalfOperator:
    """Operator f -> (xi -> int e^{i phi(y, xi)} a(y, xi) f(y) dy).

    phi lives on R^{d_y} x R^{d_xi}; flags record which mapping properties
    were verified by sampling."""

    phi: SymbolFn
    amplitude: SymbolFn
    ybox: float = 10.0
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
        n, nu = order_pair(self.phi.order)
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
        over y, with panel doubling until the change is below tol; refused
        with NonConvergenceError if no two successive rules of four agree.
        The first rule is sized from the largest |grad_y phi| over the nodes
        of an 8-panel rule where |f| exceeds tol times its largest value."""
        pts = as_points(out_points, self.d_out)
        nodes, _ = _panel_rule(-self.ybox, self.ybox, 8)
        fv = np.abs(f.value(nodes[None, :]))
        live = nodes[~(fv < tol * np.max(fv))]  # all of them if f has a NaN
        Y = np.tile(live, pts.shape[1])[None, :]
        freq = float(np.max(np.abs(self.phi.grad_x(Y, np.repeat(pts, len(live), axis=1)))))
        n_panels = max(8, int(self.ybox * max(freq, 1.0) / 6.0))
        return _until_agreed(lambda n: self._apply_panels(f, pts, n), n_panels, tol, "panels")

    def _apply_panels(self, f, pts, n_panels):
        nodes, weights = _panel_rule(-self.ybox, self.ybox, n_panels)
        return self._node_sum(nodes, weights * f.value(nodes[None, :]), pts)

    def _node_sum(self, nodes, wg, pts):
        """sum_j e^{i phi(y_j, p)} a(y_j, p) wg_j at each output point p."""
        if self.d_in != 1:
            raise NotImplementedError("half-operator quadrature is 1d in y")
        ny, nb = len(nodes), pts.shape[1]
        XI = np.repeat(pts, ny, axis=1)
        Y = np.tile(nodes, nb)[None, :]
        integ = np.exp(1j * self.phi.value(Y, XI)) * self.amplitude.value(Y, XI)
        return integ.reshape(nb, ny) @ wg

    def transpose(self) -> "HalfOperator":
        """Swap the integration and output variables."""
        phi, amp = (
            SymbolFn(g.s, g.d, g.order[::-1], lambda x, k, g=g: g.jet_fn(k, x), f"t[{g.source}]")
            for g in (self.phi, self.amplitude)
        )
        return HalfOperator(phi=phi, amplitude=amp, ybox=self.ybox, protocol=self.protocol)


def fourier_half_operator(d: int = 1, inverse: bool = False, ybox: float = 12.0) -> HalfOperator:
    """F (or its inverse carrying the (2 pi)^-d factor) as a half operator:
    phase -+ y.xi and a constant amplitude."""
    if d != 1:
        raise NotImplementedError("fourier half-operators are 1d")
    phi_sym = SymbolFn(
        1,
        1,
        (1.0, 1.0),
        lambda xj, kj: (xj[0] * kj[0]) * (1.0 if inverse else -1.0),
        "y*xi" if inverse else "-y*xi",
    )
    amp = constant_symbol(1, 1, TWO_PI**-d if inverse else 1.0)
    return HalfOperator(phi=phi_sym, amplitude=amp, ybox=ybox)


@dataclass
class ComposedOperator:
    """outer o inner through a midpoint grid on [-grid_max, grid_max]."""

    outer: HalfOperator
    inner: HalfOperator
    grid_max: float = 12.0

    def apply(self, f: SchwartzFn, out_points, tol: float = 1e-8) -> np.ndarray:
        """Pointwise values at out_points; the intermediate grid starts at
        384 points and doubles until two sums agree to tol, as in
        HalfOperator.apply, and is refused with NonConvergenceError
        otherwise."""
        pts = as_points(out_points, self.outer.d_out)
        return _until_agreed(lambda n: self._apply_grid(f, pts, n, tol), 384, tol, "grid_points")

    def _apply_grid(self, f, pts, n, tol):
        dxi = 2.0 * self.grid_max / n
        xi = -self.grid_max + (np.arange(n) + 0.5) * dxi
        inner_vals = self.inner.apply(f, xi[None, :], tol=tol)
        return self.outer._node_sum(xi, dxi * inner_vals, pts)


def compose(op2: HalfOperator, op1: HalfOperator, grid_max: float = 12.0) -> ComposedOperator:
    """op2 after op1; requires a flag making the intermediate function
    integrable (op1 mapping into rapidly decaying functions, op1 a phase
    component, which a Fourier factor is, or a decaying outer amplitude)."""
    if not op1.flags:
        op1.check_flags()
    ok = op1.flags.get("y_elliptic") or op1.flags.get("component")
    if not ok and op2.amplitude.order[1] >= -op2.phi.s:
        raise FlagError(
            "inner operator lacks a decay flag and the outer amplitude "
            "does not decay; composition undefined at this rigor level"
        )
    return ComposedOperator(outer=op2, inner=op1, grid_max=grid_max)


# -- phase components and the V regularizer ---------------------------------------


def phase_component_check(phi_sym: SymbolFn, protocol: ScanProtocol = DEFAULT_PROTOCOL) -> dict:
    """Sampled check of <grad_xi phi> >~ <x> and <grad_x phi> >~ <xi>."""
    X, K = _sample_pairs(
        phi_sym.d,
        phi_sym.s,
        protocol,
        tuple(protocol.small_radii) + tuple(protocol.radii),
        tuple(protocol.small_radii) + tuple(protocol.radii),
    )
    gx, gk = (g.real for g in phi_sym.gradients(X, K))
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

    def _denominator(self, x, xi, order: int) -> Jet:
        """Jet of D of order `order`, from one jet of phi two orders above."""
        d, s = self.phi.d, self.phi.s
        gk = self.phi.gradient_jets(x, xi, order + 1)[1]
        lap = gk[0].derivative(d)
        for j in range(1, s):
            lap = lap + gk[j].derivative(d + j)
        return 1.0 + norm2_jet(gk) - 1j * lap

    def residual(self, x, xi) -> np.ndarray:
        """|tV e^{i phi} - e^{i phi}| at batched points."""
        x, xi = as_columns(x), as_columns(xi)
        d, s = self.phi.d, self.phi.s
        E = (self.phi.jet(x, xi, 2) * 1j).exp()
        one_minus_lap = E.value.copy()
        for j in range(s):
            one_minus_lap = one_minus_lap - E.derivative(d + j).derivative(d + j).value
        return np.abs(one_minus_lap / self._denominator(x, xi, 0).value - E.value)

    def apply(self, a: SymbolFn) -> SymbolFn:
        """V(a) = (1 - Lap_xi)[a / D], gaining two orders of x-decay."""
        d, s = self.phi.d, self.phi.s

        def jet_fn(xj, kj):
            x, k, order = base_points(xj, kj)
            inner = a.jet(x, k, order + 2) * self._denominator(x, k, order + 2).recip()
            out = inner.truncate(order)
            for j in range(s):
                out = out - inner.derivative(d + j).derivative(d + j)
            return out

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

# half-width of the xi grid of the Klein-Gordon composites
KG_XI_MAX = 16.0


@dataclass
class KgEvolution:
    """u(t) = A_+ F f - A_- F f, where A_+- is the type-one half operator
    with phase x.xi +- c t omega(xi), omega = (mass^2 + xi^2)^(1/2), and
    amplitude (2 pi)^-1 (2 i omega)^-1; du/dt is the same difference with
    amplitudes +-(c/2) (2 pi)^-1.  Real for real data."""

    f: SchwartzFn
    c: float
    mass: float

    def __post_init__(self):
        self.fourier = fourier_half_operator(1)
        self.fourier.check_flags()

    def _omega(self, xj):
        return (self.mass**2 + xj[0] * xj[0]).sqrt()

    def _term(self, ct: float, amp: SymbolFn, pts) -> np.ndarray:
        """A F f at pts, A with phase x.xi + ct omega(xi) and amplitude amp."""
        def phase(xj, kj):
            return xj[0] * kj[0] + ct * self._omega(xj)

        A = HalfOperator(phi=SymbolFn(1, 1, (1, 1), phase, f"x.xi{ct:+g} omega"), amplitude=amp)
        return compose(A, self.fourier, grid_max=KG_XI_MAX).apply(self.f, pts)

    def _difference(self, t: float, x, amp_plus, amp_minus) -> np.ndarray:
        if not t >= 0:  # NaN too
            raise ValueError("t must be nonnegative")
        pts = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
        return self._term(self.c * t, amp_plus, pts) - self._term(-self.c * t, amp_minus, pts)

    def values(self, t: float, x) -> np.ndarray:
        a = SymbolFn(
            1, 1, (-1, 0), lambda xj, kj: 1 / (2j * TWO_PI * self._omega(xj)), "(4 pi i omega)^-1"
        )
        return self._difference(t, x, a, a)

    def dt_values(self, t: float, x) -> np.ndarray:
        half = self.c / (2.0 * TWO_PI)
        return self._difference(t, x, constant_symbol(1, 1, half), constant_symbol(1, 1, -half))


def kg_evolve(f: SchwartzFn, t: float, c: float = 1.0, mass: float = 1.0) -> KgEvolution:
    if not t >= 0:  # NaN too
        raise ValueError("t must be nonnegative")
    if mass <= 0:
        raise ValueError("mass must be positive")
    return KgEvolution(f=f, c=c, mass=mass)
