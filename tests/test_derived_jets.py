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
    "component_jets": "a54de8ff27271eb181840fc23fbac1148818233cff965948347099413ca51ca4",
    "chi_jet": "3ab3e72e979a1f919ee29d3e66a7856efd19d4ae2207cdb544539b2b6ca5ac03",
    "gradient_symbols": "e0789733f73f6be65e365679c15012b40d2c84b18a525a9442428c1295eddb40",
    "q_step": "b514b1589f40d32d0d5f5d002010c490a85821d890b1446956ccbf6d04f71bfd",
    "V": "e72be8cd4123d36c2809a4fcc6b3e768593b803f53c2241a8dbac66da361b2f4",
    "spatial_cutoff": "a609ac9077787f7f53e8654ff1fa1136fef18c806110027c3a9c880e955c3d0d",
    "asymptotic_cutoff": "281ef8e9ebc5da2c78ce22f814f8d1087442603cdac30d48b06fe4bbc6b7fe70",
    "bump_profile_jet": "8defe4b04c36be5de92880fd1c7a77fbfe978515897a65c21031732b8d8065a8",
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
