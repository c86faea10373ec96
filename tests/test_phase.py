import math

import numpy as np
import pytest

from sgosc.catalog import KgSpec, sep_power_phase
from sgosc.compactify import CompactPoint, sphere_grid
from sgosc.phase import (
    NotAdmissibleError,
    PhaseFn,
    boundary_pairs,
    build_mphi_grid,
    build_spphi_grid,
    check_admissible,
    closure_violations,
    eta,
    mphi_classify,
    require_admissible,
    sp_angle_test,
    spphi_classify,
)
from sgosc.symbols import DEFAULT_PROTOCOL, parse_symbol_expr
from sgosc.wavefront import WfSet

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def kg11():
    phi = KgSpec(1.0, 1).phase()
    check_admissible(phi)
    return phi


@pytest.fixture(scope="module")
def kg4():
    phi = KgSpec(1.0, 3).phase()
    check_admissible(phi)
    return phi


@pytest.fixture(scope="module")
def bracket_phase():
    phi = sep_power_phase(1, 1)
    check_admissible(phi)
    return phi


def test_eta_values(bracket_phase, kg4):
    assert eta(bracket_phase, np.zeros(1), np.zeros(1))[0] == pytest.approx(0.0)
    assert eta(bracket_phase, np.ones(1), np.ones(1))[0] == pytest.approx(4.0)
    # full two-point phase at x = 0: eta = m^2 + 2 |xi|^2
    xi = np.array([1.0, 2.0, 0.5])
    val = eta(kg4, np.zeros(4), xi)[0]
    assert val == pytest.approx(1.0 + 2 * np.sum(xi**2))


def test_admissibility_examples(bracket_phase, kg11):
    assert bracket_phase.admissibility.admissible
    assert kg11.admissibility.admissible
    bad = parse_symbol_expr("(x1-x2)*k1", (2, 1), (1, 1))
    rep = check_admissible(PhaseFn(bad, (1, 1)))
    assert not rep.admissible


def test_admissibility_cached_per_protocol():
    phi = sep_power_phase(1, 1)
    default = check_admissible(phi)
    assert default.admissible
    strict = DEFAULT_PROTOCOL.replace(c0=1e3)
    with pytest.raises(NotAdmissibleError):
        require_admissible(phi, strict)
    rejected = phi.admissibility
    assert rejected.protocol["c0"] == 1e3 and not rejected.admissible
    # each protocol is checked once: later calls reuse its own report
    assert require_admissible(phi) is default
    with pytest.raises(NotAdmissibleError):
        require_admissible(phi, strict)
    assert phi.admissibility is rejected


def test_phase_order_must_be_positive():
    sym = parse_symbol_expr("jb(x)*jb(k)", (1, 1), (1, 1))
    with pytest.raises(ValueError):
        PhaseFn(sym, (0.0, 1.0))


def test_nonreal_phase_fails_loudly():
    sym = parse_symbol_expr("jb(x)*jb(k)", (1, 1), (1, 1)) * 1j
    with pytest.raises(NotAdmissibleError):
        check_admissible(PhaseFn(sym.with_order((1, 1)), (1, 1)))


def test_phase_values_are_real_and_a_complex_phase_is_refused():
    phi = KgSpec().phase()
    x, xi = np.array([[0.5], [1.0], [-1.0], [2.0]]), np.array([[1.0], [0.0], [3.0]])
    assert all(g.dtype == np.float64 for g in phi.gradients(x, xi))
    doubled = phi.symbol * 2.0
    assert doubled.value(x, xi).dtype == np.float64 and doubled.source.startswith("2.0*(")
    # complex dtype is refused even with a zero imaginary part
    with pytest.raises(NotAdmissibleError):
        check_admissible(PhaseFn(phi.symbol * (1 + 0j)))


def test_mphi_bracket_phase(bracket_phase):
    # members only on the xi-origin rays: (boundary x-dir, finite xi = 0)
    m = mphi_classify(
        bracket_phase,
        (CompactPoint.boundary([1.0]), CompactPoint.finite([0.0])),
    )
    assert m.classification == "member"
    nm = mphi_classify(
        bracket_phase,
        (CompactPoint.boundary([1.0]), CompactPoint.boundary([1.0])),
    )
    assert nm.classification == "nonmember"


def test_mphi_kg_examples(kg4):
    member = mphi_classify(
        kg4, (CompactPoint.finite([0, 0, 0, 0]), CompactPoint.direction([0, 0, 1.0]))
    )
    assert member.classification == "member"
    on_cone = mphi_classify(
        kg4, (CompactPoint.finite([1.0, 1.0, 0, 0]), CompactPoint.direction([1.0, 0, 0]))
    )
    assert on_cone.classification == "member"
    off = mphi_classify(
        kg4, (CompactPoint.finite([2.0, 1.0, 0, 0]), CompactPoint.direction([-1.0, 0, 0]))
    )
    assert off.classification == "nonmember"


def test_mphi_stable_under_protocol_refinement(kg11):
    pairs = [
        (CompactPoint.finite([0.0, 0.0]), CompactPoint.boundary([1.0])),
        (CompactPoint.finite([2.0, 1.0]), CompactPoint.boundary([1.0])),
        (CompactPoint.direction([1.0, 1.0]), CompactPoint.boundary([1.0])),
    ]
    finer = DEFAULT_PROTOCOL.replace(
        radii=tuple(float(2**k) for k in range(5, 16)), n_ring=8
    )
    for pr in pairs:
        a = mphi_classify(kg11, pr).classification
        b = mphi_classify(kg11, pr, finer).classification
        if "margin" not in (a, b):
            assert a == b


def _mgrid_kg11(phi):
    dirs2 = sphere_grid(2, 16)
    pairs = boundary_pairs(
        dirs2,
        sphere_grid(1, 2),
        finite_x=[[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [2.0, 0.0]],
        finite_xi=[[0.0]],
    )
    return build_mphi_grid(phi, pairs)


def test_spphi_kg_examples(kg11):
    mgrid = _mgrid_kg11(kg11)
    member0 = spphi_classify(
        kg11,
        (CompactPoint.finite([0.0, 0.0]), CompactPoint.direction([-SQ2, SQ2])),
        mgrid,
    )
    assert member0.classification == "member"
    corner = spphi_classify(
        kg11,
        (CompactPoint.direction([SQ2, SQ2]), CompactPoint.direction([-SQ2, SQ2])),
        mgrid,
    )
    assert corner.classification == "member"
    shell = spphi_classify(
        kg11,
        (CompactPoint.direction([1.0, 0.0]), CompactPoint.finite([-1.0, 0.0])),
        mgrid,
    )
    assert shell.classification == "member"
    # position component that avoids pi_1(M) entirely: vacuous nonmember
    vac = spphi_classify(
        kg11,
        (CompactPoint.finite([5.0, 0.0]), CompactPoint.direction([0.0, 1.0])),
        mgrid,
    )
    assert vac.classification == "nonmember"
    wrong_sign = spphi_classify(
        kg11,
        (CompactPoint.direction([1.0, 0.0]), CompactPoint.finite([1.0, 0.0])),
        mgrid,
    )
    assert wrong_sign.classification == "nonmember"


def test_sp_angle_test_examples(kg11, bracket_phase):
    mgrid = _mgrid_kg11(kg11)
    # timelike y off the cone: fiber empty, vacuously nonstationary
    res = sp_angle_test(
        kg11,
        (CompactPoint.finite([5.0, 0.0]), CompactPoint.direction([0.0, 1.0])),
        alpha=0.3,
        E=4.0,
        mphi_grid=mgrid,
    )
    assert res.nonstationary and res.vacuous
    # y = 0 with the forward null covariable direction: the test fails
    res2 = sp_angle_test(
        kg11,
        (CompactPoint.finite([0.0, 0.0]), CompactPoint.direction([-SQ2, SQ2])),
        alpha=0.3,
        E=4.0,
        mphi_grid=mgrid,
    )
    assert not res2.nonstationary and not res2.vacuous
    # bracket phase, finite y != 0, omega = -sign(y): nonstationary
    dirs1 = sphere_grid(1, 2)
    bpairs = boundary_pairs(dirs1, dirs1, finite_x=[[2.0]], finite_xi=[[0.0]])
    bgrid = build_mphi_grid(bracket_phase, bpairs)
    res3 = sp_angle_test(
        bracket_phase,
        (CompactPoint.finite([2.0]), CompactPoint.direction([-1.0])),
        alpha=0.5,
        E=2.0,
        mphi_grid=bgrid,
    )
    assert res3.nonstationary


def test_grid_closure_property(kg11):
    mgrid = _mgrid_kg11(kg11)
    labeled = [(s.point, s.classification) for s in mgrid.samples]
    assert closure_violations(labeled, spacing=0.5) == []


def test_csv_rows_shape(kg11):
    mgrid = _mgrid_kg11(kg11)
    rows = mgrid.to_csv_rows()
    assert len(rows) == len(mgrid.samples)
    assert all(len(r) == 6 for r in rows)


def test_grids_classify_cells_in_input_order(kg11):
    """The grid builders return exactly the per-cell classifications, in the
    order of their input pairs (the grid of the CLI's `n_dirs` 8 on kg11)."""
    d_dirs, s_dirs = sphere_grid(kg11.d, 8), sphere_grid(kg11.s, 8)
    m_pairs = boundary_pairs(d_dirs, s_dirs, [[0.0, 0.0]], [[0.0]])
    sp_pairs = boundary_pairs(d_dirs, sphere_grid(kg11.d, 8), [[0.0, 0.0]], [[0.0, 0.0]])

    def key(s):
        return (s.point, s.classification, float(s.min_ratio).hex())

    mgrid = build_mphi_grid(kg11, m_pairs)
    assert [key(s) for s in mgrid.samples] == [
        key(mphi_classify(kg11, p)) for p in m_pairs
    ]
    sgrid = build_spphi_grid(kg11, sp_pairs, mgrid)
    assert [key(s) for s in sgrid.samples] == [
        key(spphi_classify(kg11, p, mgrid)) for p in sp_pairs
    ]
    assert sgrid.lookup(sp_pairs[3]) is sgrid.samples[3]

    pair = m_pairs[0]
    assert build_mphi_grid(kg11, []).lookup(pair) is None
    assert build_spphi_grid(kg11, [], mgrid).lookup(pair) is None
    assert WfSet([], None, 1.0).lookup(*pair) is None
