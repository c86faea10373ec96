import math

import numpy as np
import pytest

from sgosc.catalog import KgSpec, gaussian_amplitude, sep_power_phase
from sgosc.compactify import CompactPoint
from sgosc.phase import eta_symbol
from sgosc.symbols import (
    DEFAULT_PROTOCOL,
    SymbolFn,
    constant_symbol,
    elliptic_at,
    globally_elliptic,
    parse_symbol_expr,
    seminorm_estimate,
    verify_order,
)


def test_seminorm_estimate_examples():
    one = constant_symbol(1, 1, 1.0)
    rep = seminorm_estimate(one, (0, 0), max_order=2)
    assert rep.entries[((0,), (0,))] == pytest.approx(1.0)
    # a = <xi>^mu at order (0, mu): the scaled ratio is identically 1
    mu = 1.5
    a = parse_symbol_expr("jb(k)^1.5", (1, 1), (0, mu))
    rep2 = seminorm_estimate(a, (0, mu), max_order=0)
    assert rep2.entries[((0,), (0,))] == pytest.approx(1.0, rel=1e-9)
    gauss = gaussian_amplitude(1, 1)
    rep3 = seminorm_estimate(gauss, (0, 0), max_order=0)
    assert rep3.entries[((0,), (0,))] == pytest.approx(1.0, rel=1e-9)


def test_seminorm_monotone_under_refinement():
    a = sep_power_phase(1, 1).symbol
    coarse = seminorm_estimate(a, (1, 1), max_order=2, radii=(0.0, 1.0, 8.0))
    fine = seminorm_estimate(
        a, (1, 1), max_order=2, radii=(0.0, 0.5, 1.0, 2.0, 8.0, 32.0)
    )
    for key, v in coarse.entries.items():
        assert fine.entries[key] >= v - 1e-13


def test_verify_order_examples():
    bracket = sep_power_phase(1, 1).symbol
    assert verify_order(bracket, (1, 1)).ok
    rep = verify_order(bracket, (0, 1))
    assert not rep.ok
    assert rep.failing()
    gauss = gaussian_amplitude(1, 1)
    assert verify_order(gauss, (0, 0)).ok


def test_elliptic_at_examples():
    bb = sep_power_phase(1, 1).symbol
    res = elliptic_at(
        bb, (1, 1), (CompactPoint.boundary([1.0]), CompactPoint.boundary([1.0]))
    )
    assert res.ok and res.min_ratio == pytest.approx(1.0, rel=1e-9)
    # a = x1 on R^2 as an x-only symbol of order (1, 0)
    x1 = SymbolFn(2, 0, (1.0, 0.0), lambda xj, kj: xj[0], "x1")
    assert elliptic_at(x1, (1, 0), (CompactPoint.direction([1, 0]), None)).ok
    assert not elliptic_at(x1, (1, 0), (CompactPoint.direction([0, 1]), None)).ok


def test_kg_grad_xi_sq_degenerates_at_origin_cells():
    from sgosc.phase import grad_xi_sq_symbol

    spec = KgSpec(1.0, 3)
    phi = spec.phase()
    g2 = grad_xi_sq_symbol(phi)
    for th in ([1.0, 0, 0], [0, 1.0, 0]):
        res = elliptic_at(
            g2,
            (2, 0),
            (CompactPoint.finite([0, 0, 0, 0]), CompactPoint.direction(th)),
        )
        assert not res.ok


def test_globally_elliptic_examples():
    bb = sep_power_phase(1, 1).symbol
    assert globally_elliptic(bb, (1, 1)).ok
    assert not globally_elliptic(gaussian_amplitude(1, 1), (0, 0)).ok
    eta = eta_symbol(KgSpec(1.0, 1).phase())
    assert globally_elliptic(eta, (2, 2)).ok


def test_reports_echo_protocol():
    rep = verify_order(sep_power_phase(1, 1).symbol, (1, 1))
    assert rep.protocol["c0"] == DEFAULT_PROTOCOL.c0
    res = globally_elliptic(sep_power_phase(1, 1).symbol, (1, 1))
    assert "radii" in res.protocol
    assert res.to_json()["ok"]


@pytest.mark.parametrize(
    "bad",
    [
        {"valid_fraction": 1.0},  # radii[10] of 10 radii: an IndexError
        {"valid_fraction": -0.5},  # radii[-5]: the scales of 0.5
        {"valid_fraction": math.nan},
        {"c0": math.nan},
        {"c0": -1.0},
        {"delta": 0.0},
        {"fiber_radius": math.inf},
        {"p_rho_valid": "32"},
        {"ndirs": 0},
        {"ndirs": 16.0},
        {"n_ring": True},
        {"refine_iters": -1},
        {"radii": ()},
        {"radii": (0.0, 32.0)},
        {"radii": (32.0, math.nan)},
        {"admiss_radii": 2.0},
        {"base_radii": (-1.0, 0.0)},
        {"small_radii": ()},
    ],
)
def test_scan_protocol_refuses_what_it_cannot_honour(bad):
    """Each field is checked when the protocol is built, and the refusal
    names it: before, valid_fraction 1.0 raised an IndexError in the first
    scan, -0.5 selected the scales of 0.5, and c0 = nan, ndirs = 0 and
    radii = () were accepted."""
    key = next(iter(bad))
    with pytest.raises(ValueError, match=rf"^ScanProtocol\.{key} must"):
        DEFAULT_PROTOCOL.replace(**bad)


def test_scan_protocol_records_sequences_as_tuples():
    """A list of radii (as from a JSON config) is kept as a tuple, so the
    protocol stays hashable and equal to the one built from the tuple.  A
    refinement count of 0 (one pass, no refinement) is accepted."""
    p = DEFAULT_PROTOCOL.replace(radii=[32.0, 64.0], base_radii=[0.0, 1.0])
    assert p.radii == (32.0, 64.0) and p.base_radii == (0.0, 1.0)
    assert hash(p) == hash(DEFAULT_PROTOCOL.replace(radii=(32.0, 64.0), base_radii=(0.0, 1.0)))
    assert DEFAULT_PROTOCOL.replace(refine_iters=0, sp_refine_iters=0).refine_iters == 0


def test_infinite_orders_are_labels_only():
    gauss = gaussian_amplitude(1, 1)
    assert gauss.order == (-math.inf, -math.inf)
    with pytest.raises(ValueError):
        seminorm_estimate(gauss, gauss.order)
    prod = gauss * sep_power_phase(1, 1).symbol
    assert prod.order == (-math.inf, -math.inf)


def test_symbol_algebra_orders_saturate():
    a = sep_power_phase(1, 1).symbol
    b = gaussian_amplitude(1, 1)
    assert (a * a).order == (2.0, 2.0)
    assert (a + a).order == (1.0, 1.0)
    assert (a * b).order == (-math.inf, -math.inf)
