"""Bitwise pins of the jets derived from a phase: the regularizer P's
components and cut-off, the spatial and asymptotic cut-offs, the bump
profile, the gradient symbols, the Q step and the V regularizer; and the
bump step's jets against sympy."""

import hashlib

import mpmath
import numpy as np
import pytest
import sympy as sp

from sgosc.catalog import KgSpec, gaussian_amplitude, sep_power_phase
from sgosc.compactify import (
    AsymptoticCutoff,
    CompactPoint,
    SphereConstant,
    SphereCoordinate,
    SphereGaussian,
    bump_profile_jet,
    smoothstep_jet,
)
from sgosc.fio import VRegularizer
from sgosc.jets import jet_variables, norm2_jet
from sgosc.phase import (
    PhaseFn,
    eta_symbol,
    grad_x_sq_symbol,
    grad_xi_sq_symbol,
    weighted_grad_x_sq_symbol,
)
from sgosc.regularize import RegularizerP, SpatialCutoff, q_step
from sgosc.symbols import DEFAULT_PROTOCOL, SymbolFn

PHASES = {
    "sep-power": lambda: sep_power_phase(1, 1),
    "kg11": lambda: KgSpec(1.0, 1).phase(),
    "kg4": lambda: KgSpec(1.0, 3).phase(),
}

# R = 3: two radii inside the chi = 1 ball, two in the band 3 < t < 4, two beyond
RADII = (0.4, 1.5, 3.2, 3.7, 5.0, 9.0)


def _points(k, radii, seed):
    """Columns of R^k at the given Euclidean radii, in seeded directions."""
    v = np.random.default_rng(seed).normal(size=(k, len(radii)))
    return v * (np.asarray(radii) / np.linalg.norm(v, axis=0))


def _digest(jets):
    h = hashlib.sha256()
    for j in jets:
        h.update(np.asarray(j.c, dtype=complex).tobytes())
    return h.hexdigest()


def _phase_jets():
    out = {"component_jets": [], "chi_jet": [], "gradient_symbols": [], "q_step": [], "V": []}
    for seed, (name, make) in enumerate(PHASES.items()):
        phi = make()
        d, s = phi.d, phi.s
        XK = _points(d + s, RADII, seed)
        x, xi = XK[:d], XK[d:]
        P = RegularizerP(phi=phi, R=3.0, protocol=DEFAULT_PROTOCOL)
        for order in (0, 1, 3):
            u, v, w, chi = P.component_jets(x, xi, order)
            out["component_jets"] += u + v + [w, chi]
            out["chi_jet"].append(P.chi_jet(jet_variables(order, x, xi)))
        for build in (eta_symbol, grad_x_sq_symbol, grad_xi_sq_symbol, weighted_grad_x_sq_symbol):
            for order in (0, 2):
                out["gradient_symbols"].append(build(phi).jet(x, xi, order))
        amp = gaussian_amplitude(d, s)
        out["q_step"].append(q_step(phi, x, xi, amp.jet(x, xi, 3)))
        out["V"].append(VRegularizer(phi, {}).apply(amp).jet(x, xi, 1))
    return out


def _cutoff_jets():
    X = _points(2, (0.1, 0.6, 1.2, 2.1, 3.0, 4.5, 8.0), 7)
    finite = SpatialCutoff(CompactPoint.finite([0.5, -0.3]), width=2.0)
    boundary = SpatialCutoff(CompactPoint.direction([1.0, 1.0]), width=0.5, radius=4.0)
    spheres = (SphereConstant(0.7), SphereCoordinate(1), SphereGaussian([1.0, -1.0], 0.8))
    t = jet_variables(4, np.linspace(-0.2, 1.2, 29)[None, :])[0]
    return {
        "spatial_cutoff": [
            cut.jet_from_vars(jet_variables(order, X))
            for cut in (finite, boundary)
            for order in (0, 3)
        ],
        "asymptotic_cutoff": [
            AsymptoticCutoff(sf, radius=4.0, dim=2).jet(X, order)
            for sf in spheres
            for order in (0, 3)
        ],
        "bump_profile_jet": [bump_profile_jet(t), bump_profile_jet(2.0 * t * t - 0.1)],
    }


PINNED = {
    "component_jets": "51fba00b4676c7e79977abbcc2c39aac05e1a94d80aff5e4b56599e362770c99",
    "chi_jet": "8a8ff59dee2115af03f1b493533aa741d0dc11d732d0cdf14d2b44962a18f7cb",
    "gradient_symbols": "e0789733f73f6be65e365679c15012b40d2c84b18a525a9442428c1295eddb40",
    "q_step": "b514b1589f40d32d0d5f5d002010c490a85821d890b1446956ccbf6d04f71bfd",
    "V": "e72be8cd4123d36c2809a4fcc6b3e768593b803f53c2241a8dbac66da361b2f4",
    "spatial_cutoff": "3b298938224202a1399ba0facf5f5d2e3d6fed06a8be932a760d71723a990aeb",
    "asymptotic_cutoff": "bed050dec80e66ce07685b4205de489ad4272505c845588aa59317a176bbba06",
    "bump_profile_jet": "6d88748e8e7fbb3a093f5e832637b093250227a9f43fa10bb7f98c046f37d23f",
}


def test_derived_jets_pinned():
    got = {k: _digest(js) for k, js in {**_phase_jets(), **_cutoff_jets()}.items()}
    assert got == PINNED


def _sympy_step(t):
    """The bump profile's middle branch, written as 1 / (1 + b/a) with
    u = 2(1 - t), a = e^{-1/u} and b = e^{-1/(1-u)}."""
    u = 2 * (1 - t)
    return 1 / (1 + sp.exp(1 / u - 1 / (1 - u)))


@pytest.mark.parametrize(
    "lo, hi, pts",
    [
        # bump_profile_jet: |(x, y)| in (1/2, 3/4) and in (3/4, 1)
        (None, None, [[0.5, 0.375, 0.625, 0.75], [0.25, 0.5, 0.5, 0.5]]),
        # smoothstep_jet on [2, 3]: |(x, y)| in (2, 5/2) and in (5/2, 3)
        (2, 3, [[1.5, 1.75, 2.25, 2.5], [1.5, 1.25, 1.25, 1.25]]),
    ],
)
def test_step_jets_match_sympy_at_order_4(lo, hi, pts):
    """The step's jets of the radius sqrt(x^2 + y^2), every partial to order
    4, against sympy's exact derivatives at 30 digits, at dyadic points on
    both halves of the step."""
    xs, ys = sp.symbols("x y")
    pts = np.array(pts)
    rsym = sp.sqrt(xs**2 + ys**2)
    r = norm2_jet(jet_variables(4, pts)).sqrt()
    if lo is None:
        jet, t, expr = bump_profile_jet(r), r.value, _sympy_step(rsym)
    else:
        jet = smoothstep_jet(r, lo, hi)
        t = 0.5 + 0.5 * (r.value - lo) / (hi - lo)
        expr = _sympy_step(sp.Rational(1, 2) + (rsym - lo) / (2 * (hi - lo)))
    u = 2.0 * (1.0 - t)
    assert np.any(u < 0.5) and np.any(u > 0.5) and np.all((u > 0) & (u < 1))
    # each partial from the one before it, one derivative at a time
    diffs = {(0, 0): expr}
    for gamma in jet.space.indices:
        if sum(gamma):
            i, j = gamma
            diffs[gamma] = sp.diff(diffs[(i - 1, j)], xs) if i else sp.diff(diffs[(0, j - 1)], ys)
    evaluate = sp.lambdify((xs, ys), list(diffs.values()), "mpmath", cse=True)
    with mpmath.workdps(30):
        want = np.array([[float(v) for v in evaluate(mpmath.mpf(px), mpmath.mpf(py))] for px, py in pts.T])
    for gamma, w in zip(diffs, want.T):
        got = jet.partial(gamma)
        assert np.all(np.abs(got - w) <= 1e-12 * np.abs(w)), (gamma, got, w)


def test_phase_is_a_symbol():
    phi = KgSpec().phase()
    assert isinstance(phi, SymbolFn)
    assert isinstance(phi.symbol, SymbolFn) and phi.jet_fn is phi.symbol.jet_fn
    assert (phi.d, phi.s, phi.order, phi.source) == (4, 3, (1.0, 1.0), phi.symbol.source)
    # the evaluation methods are SymbolFn's own, not forwards to phi.symbol
    forwards = {"d", "s", "source", "jet", "value", "grad_x", "grad_xi"}
    assert not forwards & set(vars(PhaseFn))
