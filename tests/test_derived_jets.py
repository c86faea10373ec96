"""Bitwise pins of the jets derived from a phase: the regularizer P's
components and cut-off, the spatial and asymptotic cut-offs, the bump
profile, the gradient symbols, the Q step and the V regularizer."""

import hashlib

import numpy as np
import pytest

from sgosc.catalog import KgSpec, gaussian_amplitude, sep_power_phase
from sgosc.compactify import (
    AsymptoticCutoff,
    CompactPoint,
    SphereConstant,
    SphereCoordinate,
    SphereGaussian,
    bump_profile_jet,
)
from sgosc.fio import VRegularizer
from sgosc.jets import jet_variables
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
    "component_jets": "45447f967b370a5f110955c5506a5be5bcc7fd555add58b4888d37e431f7280f",
    "chi_jet": "be407f9269bc41ffdaf3da35f34b0e25829f79be03ad161fe2cb499f079ee2f5",
    "gradient_symbols": "4888cd526c2966fe04dced2f1a777316705af9c51b39b3317163c19ae2aae584",
    "q_step": "71e725a5009a22f6484549378cfe90bb02aa27efb00997c3d482c346b31e13d1",
    "V": "d93835eeb67f2d494ed07cb049dded8335cd54f48410a83a05257b19859d386d",
    "spatial_cutoff": "0ee6eeb4fbc2d865ddeaaa25371536947487f4c48725f6ff0a245ea0ae3c5d72",
    "asymptotic_cutoff": "4bdf44b2b166fec409d09e784c7af9c2e57bc833753a49adf10a9d9689d47a88",
    "bump_profile_jet": "39684fc05a62245e2ecb9a229b6135c4e976bca826665435e94806c311fc49f9",
}


def test_derived_jets_pinned():
    got = {k: _digest(js) for k, js in {**_phase_jets(), **_cutoff_jets()}.items()}
    assert got == PINNED


def test_phase_is_a_symbol():
    phi = KgSpec().phase()
    assert isinstance(phi, SymbolFn)
    assert isinstance(phi.symbol, SymbolFn) and phi.jet_fn is phi.symbol.jet_fn
    assert (phi.d, phi.s, phi.order, phi.source) == (4, 3, (1.0, 1.0), phi.symbol.source)
    # the evaluation methods are SymbolFn's own, not forwards to phi.symbol
    forwards = {"d", "s", "source", "jet", "value", "grad_x", "grad_xi"}
    assert not forwards & set(vars(PhaseFn))
