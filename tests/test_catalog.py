import math
import warnings

import numpy as np
import pytest

from sgosc.catalog import (
    KgSpec,
    get_amplitude,
    get_distribution,
    get_phase,
    get_testfn,
    kg11_gauss_pairing,
    kg_ft_support_check,
    kg_mphi_distance,
    kg_mphi_oracle,
    kg_spphi_distance,
    kg_spphi_oracle,
    list_catalog,
)
from sgosc.compactify import CompactPoint
from sgosc.oscint import SchwartzFn, direct_quadrature
from sgosc.phase import check_admissible
from sgosc.symbols import verify_order

SQ2 = 1.0 / math.sqrt(2.0)


def test_mphi_oracle_examples():
    spec = KgSpec(1.0, 3)
    for th in ([1.0, 0, 0], [0, 0, 1.0]):
        pair = (CompactPoint.finite([0, 0, 0, 0]), CompactPoint.direction(th))
        assert kg_mphi_oracle(pair, spec) == "member"
    on_cone = (
        CompactPoint.finite([1.0, 1.0, 0, 0]),
        CompactPoint.direction([1.0, 0, 0]),
    )
    assert kg_mphi_oracle(on_cone, spec) == "member"
    sign_mismatch = (
        CompactPoint.finite([2.0, 1.0, 0, 0]),
        CompactPoint.direction([-1.0, 0, 0]),
    )
    assert kg_mphi_oracle(sign_mismatch, spec) == "nonmember"
    null_corner = (
        CompactPoint.direction([SQ2, SQ2, 0, 0]),
        CompactPoint.direction([1.0, 0, 0]),
    )
    assert kg_mphi_oracle(null_corner, spec) == "member"
    timelike = (
        CompactPoint.direction([2.0, 1.0, 0, 0] / np.sqrt(5.0)),
        CompactPoint.finite([1.0 / math.sqrt(3.0), 0, 0]),
    )
    assert kg_mphi_oracle(timelike, spec) == "member"


def test_spphi_oracle_examples():
    spec = KgSpec(1.0, 3)
    at_zero = (
        CompactPoint.finite([0, 0, 0, 0]),
        CompactPoint.direction([-SQ2, SQ2, 0, 0]),
    )
    assert kg_spphi_oracle(at_zero, spec) == "member"
    pure_time = (
        CompactPoint.direction([1.0, 0, 0, 0]),
        CompactPoint.finite([-1.0, 0, 0, 0]),
    )
    assert kg_spphi_oracle(pure_time, spec) == "member"
    spacelike = (
        CompactPoint.finite([0.3, 2.0, 0, 0]),
        CompactPoint.direction([-SQ2, SQ2, 0, 0]),
    )
    assert kg_spphi_oracle(spacelike, spec) == "nonmember"
    wrong_time_sign = (
        CompactPoint.direction([1.0, 0, 0, 0]),
        CompactPoint.finite([1.0, 0, 0, 0]),
    )
    assert kg_spphi_oracle(wrong_time_sign, spec) == "nonmember"
    # the remark's parametrization: u = +-(omega_k, k)/N with p = (-omega_k, k)
    k = np.array([0.7, -0.4, 0.1])
    om = math.sqrt(1 + np.dot(k, k))
    u = np.concatenate([[om], k]) / math.sqrt(om * om + np.dot(k, k))
    p = np.concatenate([[-om], k])
    assert kg_spphi_oracle((CompactPoint.direction(u), CompactPoint.finite(p)), KgSpec(1.0, 3)) == "member"
    assert kg_spphi_oracle((CompactPoint.direction(-u), CompactPoint.finite(p)), KgSpec(1.0, 3)) == "member"


def test_oracle_rejects_interior_pairs():
    spec = KgSpec(1.0, 3)
    with pytest.raises(ValueError):
        kg_mphi_oracle(
            (CompactPoint.finite([0, 0, 0, 0]), CompactPoint.finite([0, 0, 0])), spec
        )


def test_distances_vanish_on_members():
    spec = KgSpec(1.0, 1)
    member = (
        CompactPoint.finite([1.0, 1.0]),
        CompactPoint.direction([1.0]),
    )
    assert kg_mphi_distance(member, spec) < 0.05
    far = (CompactPoint.finite([5.0, 0.0]), CompactPoint.direction([0.0, 1.0]))
    assert kg_spphi_distance(far, spec) > 0.2


def test_distances_honour_n_arc():
    """Both distances scan the geodesic arcs with n_arc points; two points
    (the endpoints alone) miss the closer interior of the arc."""
    spec = KgSpec(1.0, 3)
    y = CompactPoint.finite([1.0, 2.0, 0.0, 0.0])
    m_pair = (y, CompactPoint.direction([0.0, 1.0, 0.0]))
    sp_pair = (y, CompactPoint.direction([-1.0, 0.0, 1.0, 0.0]))
    assert kg_mphi_distance(m_pair, spec) < kg_mphi_distance(m_pair, spec, n_arc=2)
    assert kg_spphi_distance(sp_pair, spec) < kg_spphi_distance(sp_pair, spec, n_arc=2)


# (ds, n_arc, y, M covariable, SP covariable, M distance, SP distance); points
# are ("f", coords) for finite and ("b", vector) for boundary directions.
_PINNED_DISTANCES = [
    # generic arcs
    (3, 80, ("f", [0.5, 1.0, -0.3, 0.2]), ("b", [0.2, 0.9, -0.4]), ("b", [-0.6, 0.3, 0.5, -0.2]),
     "0x1.3b5d3d21edcb1p-1", "0x1.e93ffb72381d7p-2"),
    (3, 80, ("b", [-1.0, 0.5, 0.5, 0.0]), ("f", [0.3, -1.2, 0.8]), ("f", [-1.4, 0.3, -1.2, 0.8]),
     "0x1.c81835209ed5ep-2", "0x1.8e57b4ef1fef0p-2"),
    # antipodal arcs (and, with n_arc = 3, an arc of one direction)
    (3, 80, ("f", [0.4, 1.0, 2.0, 0.0]), ("f", [-2.0, -4.0, 0.0]), ("f", [0.3, -2.0, -4.0, 0.0]),
     "0x1.808bc66f8b7a1p-1", "0x1.a26595d617ee2p-1"),
    (3, 3, ("f", [0.4, 1.0, 2.0, 0.0]), ("b", [-1.0, -2.0, 0.0]), ("b", [-0.5, -1.0, -2.0, 0.0]),
     "0x1.808bc66f8b7a1p-1", "0x1.808bc66f8b7a1p-1"),
    # zero spatial position, zero covariable, both zero
    (3, 80, ("f", [1.5, 0.0, 0.0, 0.0]), ("b", [0.0, 1.0, 0.0]), ("b", [-0.7, 0.0, 1.0, 0.0]),
     "0x1.f2642fa1aa980p-2", "0x1.ee23a4ab1ea27p-2"),
    (3, 80, ("f", [0.5, 1.0, -0.3, 0.2]), ("f", [0.0, 0.0, 0.0]), ("f", [0.7, 0.0, 0.0, 0.0]),
     "0x1.2c9f072321528p-1", "0x1.0000000000000p+0"),
    (3, 80, ("b", [1.0, 0.0, 0.0, 0.0]), ("f", [0.0, 0.0, 0.0]), ("b", [-1.0, 0.0, 0.0, 0.0]),
     "0x0.0p+0", "0x1.2bec333018868p-2"),
    # the arc endpoints alone
    (3, 2, ("f", [1.0, 2.0, 0.0, 0.0]), ("b", [0.0, 1.0, 0.0]), ("b", [-1.0, 0.0, 1.0, 0.0]),
     "0x1.bb78c2eafb26fp-1", "0x1.7e3d77cfc30fcp-1"),
    # one spatial dimension
    (1, 80, ("f", [1.0, 1.0]), ("b", [1.0]), ("b", [-1.0, 1.0]),
     "0x0.0p+0", "0x1.6a09e667f3bcdp-53"),
    (1, 80, ("f", [0.3, -2.0]), ("f", [0.5]), ("f", [-1.2, 0.5]),
     "0x1.71156108fc5c7p-1", "0x1.71156108fc5c7p-1"),
    (1, 2, ("b", [0.6, -0.8]), ("f", [0.0]), ("f", [0.0, 0.0]),
     "0x1.fcad962a193dcp-2", "0x1.70baa88d1173dp-1"),
]


def test_distances_pinned_on_every_arc_branch():
    """The distances are exact: every geodesic-arc branch (generic,
    antipodal, a zero vector, both zero, one spatial dimension) keeps the
    bits of the per-arc-point scan it replaced."""

    def point(kind, coords):
        return CompactPoint.finite(coords) if kind == "f" else CompactPoint.direction(coords)

    for ds, n_arc, y, w, q, m_hex, sp_hex in _PINNED_DISTANCES:
        spec = KgSpec(1.0, ds)
        m_pair = (point(*y), point(*w))
        sp_pair = (point(*y), point(*q))
        assert float(kg_mphi_distance(m_pair, spec, n_arc=n_arc)).hex() == m_hex, m_pair
        assert float(kg_spphi_distance(sp_pair, spec, n_arc=n_arc)).hex() == sp_hex, sp_pair


def test_catalog_phases_admissible_and_amplitudes_ordered():
    for name, kw in (("kg11", {}), ("sep-power", {"n": 1.0, "nu": 1.0})):
        phi = get_phase(name, **kw)
        assert check_admissible(phi).admissible
    amp = get_amplitude("kg11")
    assert verify_order(amp, (0.0, -1.0)).ok
    gauss = get_amplitude("gauss")
    assert verify_order(gauss, (0.0, 0.0)).ok


def test_reduced_amplitude_normalization():
    amp = KgSpec(1.0, 1).amplitude()
    v = amp.value(np.zeros((2, 1)), np.zeros((1, 1)))[0]
    assert v == pytest.approx(1j / (4 * math.pi))
    full = KgSpec(1.0, 3).amplitude()
    v4 = full.value(np.zeros((4, 1)), np.zeros((3, 1)))[0]
    assert v4 == pytest.approx(1j / (4 * (2 * math.pi) ** 3))


def test_kg11_gauss_pairing_matches_direct_quadrature():
    exact = kg11_gauss_pairing(cutoff=6.0)
    res = direct_quadrature(
        get_phase("kg11"),
        get_amplitude("kg11-trunc", cutoff=6.0),
        SchwartzFn.gaussian(2),
        box=(10.0, 10.0),
        tol=1e-8,
    )
    assert exact.real == 0.0 and abs(res.value - exact) < 1e-8
    # the untruncated two-point function, which direct quadrature refuses
    two_point = kg11_gauss_pairing()
    assert two_point.real == 0.0 and two_point.imag == pytest.approx(0.3853766878120756, rel=1e-12)


def test_catalog_registry():
    ids = {row["id"] for row in list_catalog()}
    assert {"kg4", "kg11", "sep-power", "gauss", "fk", "g-train"} <= ids
    assert get_testfn("gauss").d == 1
    assert get_distribution("fk", omega=[1.0], eta=[1.0], k=1).d == 1
    with pytest.raises(KeyError):
        get_phase("nope")


def test_kg_ft_support_check():
    rep = kg_ft_support_check(KgSpec(1.0, 1), widths=(0.2, 0.1), box=10.0, ngrid=256)
    assert rep["distance_monotone"]
    last = rep["per_width"][-1]
    assert last["shell_detected"]
    assert last["off_shell_regular"]
    cellw = 2 * math.pi / 16 + 0.05
    assert last["worst_oracle_distance"] <= cellw


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
def test_kgspec_refuses_nonpositive_mass(mass):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mass"):
            KgSpec(mass, 3)
