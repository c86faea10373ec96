import hashlib
import math

import numpy as np
import pytest

from sgosc.compactify import CompactPoint, ball_distance, sphere_grid
from sgosc.synth import PrescribedWfSpec, make_fk, make_g, make_prescribed
from sgosc.wavefront import (
    EvaluableDistribution,
    WfProtocol,
    csp_scan,
    css_scan,
    fio_extension_guard,
    fit_decay_exponent,
    fourier_symmetry_check,
    pairing_predicate,
    wf_scan,
)
from sgosc.windows import cone_geometry, logradial_window


@pytest.fixture(scope="module")
def proto1d():
    return WfProtocol.make(
        1,
        box=64.0,
        ngrid=2048,
        rho_max_frac=0.7,
        classical_centers=[(-2.0,), (0.0,), (2.0,)],
        finite_q=[(-2.0,), (0.0,), (1.0,), (2.0,)],
    )


@pytest.fixture(scope="module")
def gtrain():
    return make_g([1.0], [1.0], K_max=3)


def test_gaussian_scan_empty(proto1d):
    wf = wf_scan(make_fk([1.0], [1.0], 0), proto1d)
    assert not wf.singular(include_margin=True)


def test_gtrain_single_corner_cell(proto1d, gtrain):
    wf = wf_scan(gtrain, proto1d)
    sing = wf.singular()
    assert len(sing) == 1
    c = sing[0]
    assert c.kind == "corner"
    assert c.y.coords == (1.0,) and c.q.coords == (1.0,)


def test_constant_distribution_e_cells(proto1d):
    one = EvaluableDistribution(
        1, lambda X: np.ones(X.shape[1], dtype=complex), source="1"
    )
    wf = wf_scan(one, proto1d)
    for c in wf.cells:
        if c.kind == "e" and c.q.coords == (0.0,):
            assert c.label == "singular"
        # one lattice step away may stay margin (window bandwidth), beyond
        # must be regular
        if c.kind == "e" and abs(c.q.coords[0]) >= 1.0:
            assert c.label != "singular"
        if c.kind == "e" and abs(c.q.coords[0]) >= 2.0:
            assert c.label == "regular"


def test_css_examples(proto1d, gtrain):
    sing, _ = css_scan(make_fk([1.0], [1.0], 0), proto1d)
    assert sing == []
    sing_g, rep = css_scan(gtrain, proto1d)
    assert [s.coords for s in sing_g] == [(1.0,)]
    one = EvaluableDistribution(
        1, lambda X: np.ones(X.shape[1], dtype=complex), source="1"
    )
    sing1, _ = css_scan(one, proto1d)
    assert len(sing1) == 2


def test_csp_scan(proto1d):
    # one-sided bump: support reaches +infinity only along +1
    onesided = EvaluableDistribution(
        1,
        lambda X: np.exp(-0.5 * (X[0] - 8.0) ** 2).astype(complex),
        source="bump at 8",
    )
    inside, _ = csp_scan(onesided, proto1d)
    assert (1.0,) in [s.coords for s in inside]
    assert (-1.0,) not in [s.coords for s in inside]


def test_pi1_consistency(proto1d, gtrain):
    wf = wf_scan(gtrain, proto1d)
    css, _ = css_scan(gtrain, proto1d)
    wf_pos = [
        p for p in wf.singular_positions(include_margin=True) if p.is_boundary
    ]
    for c in css:
        assert any(ball_distance(c, p) < 1e-9 for p in wf_pos)
    for p in wf_pos:
        assert any(ball_distance(c, p) < 1e-9 for c in css)


def test_fourier_symmetry_fk_and_g(proto1d, gtrain):
    rep = fourier_symmetry_check(make_fk([1.0], [1.0], 1), proto1d)
    assert rep["matched"]
    rep_g = fourier_symmetry_check(gtrain, proto1d)
    assert rep_g["matched"]
    assert rep_g["singular_u"] >= 1


def test_pairing_predicate_table(proto1d, gtrain):
    # empty set
    wf_empty = wf_scan(make_fk([1.0], [1.0], 0), proto1d)
    assert pairing_predicate(wf_empty)
    # asymptotic-only wave front
    assert pairing_predicate(wf_scan(gtrain, proto1d))
    # delta-like: classical singularities at antipodal covariables
    narrow = EvaluableDistribution(
        1,
        lambda X: np.exp(-np.sum((8.0 * X) ** 2, axis=0) / 2).astype(complex),
        source="narrow",
    )
    wf_delta = wf_scan(narrow, proto1d.replace(classical_centers=((0.0,),)))
    assert not pairing_predicate(wf_delta)


class _FakeSp:
    def __init__(self, members):
        self.members = members

    def lookup(self, pair):
        class S:
            pass

        best, bd = None, math.inf
        from sgosc.compactify import pair_distance

        for pt, label in self.members:
            dd = pair_distance(pt, pair)
            if dd < bd:
                best, bd = (pt, label), dd
        s = S()
        s.point, s.classification = best
        return s


def test_fio_extension_guard(proto1d, gtrain):
    wf_empty = wf_scan(make_fk([1.0], [1.0], 0), proto1d)
    grid_pairs = []
    for y in (-1.0, 0.0, 1.0):
        for q in (-1.0, 1.0):
            grid_pairs.append(
                (
                    (CompactPoint.finite([y]), CompactPoint.boundary([q])),
                    "nonmember",
                )
            )
    sp_all_clear = _FakeSp(grid_pairs)
    assert fio_extension_guard(wf_empty, sp_all_clear)
    narrow = EvaluableDistribution(
        1,
        lambda X: np.exp(-np.sum((8.0 * X) ** 2, axis=0) / 2).astype(complex),
        source="narrow",
    )
    wf_delta = wf_scan(narrow, proto1d.replace(classical_centers=((0.0,),)))
    blocked = _FakeSp(
        [((CompactPoint.finite([0.0]), CompactPoint.boundary([q])), "member") for q in (-1, 1)]
        + grid_pairs
    )
    assert not fio_extension_guard(wf_delta, blocked)
    assert fio_extension_guard(wf_delta, sp_all_clear)


def test_monotone_windows(proto1d, gtrain):
    wf_wide = wf_scan(gtrain, proto1d)
    shrunk = proto1d.replace(sigma_classical=(1.0, 0.5, 0.25))
    wf_narrow = wf_scan(gtrain, shrunk)
    wide_bad = {
        (c.y.coords, c.q.coords) for c in wf_wide.singular(include_margin=True)
    }
    for c in wf_narrow.singular():
        assert (c.y.coords, c.q.coords) in wide_bad


def test_fit_exponent_stability_under_range_doubling():
    # fitted N of a genuinely polynomial-type classical singularity (a |x|
    # kink: transform tails ~ rho^-2) moves by < 0.5 when the probed |p|
    # range doubles
    kink = EvaluableDistribution(
        1,
        lambda X: (np.abs(X[0]) * np.exp(-0.5 * X[0] ** 2)).astype(complex),
        source="|x| kink",
    )
    base = WfProtocol.make(
        1,
        box=64.0,
        ngrid=2048,
        rho_max_frac=0.35,
        classical_centers=[(0.0,)],
        finite_q=[(0.0,)],
    )
    doubled = base.replace(rho_max_frac=0.7)
    c1 = wf_scan(kink, base).lookup(
        CompactPoint.finite([0.0]), CompactPoint.boundary([1.0])
    )
    c2 = wf_scan(kink, doubled).lookup(
        CompactPoint.finite([0.0]), CompactPoint.boundary([1.0])
    )
    assert c1.label == "singular" and c2.label == "singular"
    assert abs(c1.fitted_N - c2.fitted_N) < 0.5


def test_fit_decay_exponent_rules():
    scales = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    # rapid: dies below floor and stays there
    stats = np.array([1.0, 0.1, 1e-12, 1e-13, 1e-13, 1e-13])
    assert fit_decay_exponent(scales, stats, 1e-10) == math.inf
    # polynomial: slope about 1
    stats2 = 1.0 / scales
    assert abs(fit_decay_exponent(scales, stats2, 1e-14) - 1.0) < 0.2
    # all floor
    assert fit_decay_exponent(scales, np.full(6, 1e-14), 1e-10) == math.inf


def _wf_digest(wf):
    """SHA-256 over every cell's (kind, y, q, label, fitted_N.hex()) and the
    scan's u_scale.hex(): equal digests mean bitwise-equal scans."""
    h = hashlib.sha256()
    for c in wf.cells:
        h.update(
            f"{c.kind} {c.y.coords} {c.q.coords} {c.label} "
            f"{float(c.fitted_N).hex()}\n".encode()
        )
    h.update(float(wf.u_scale).hex().encode())
    return h.hexdigest()


def test_wf_scan_pinned(proto1d, gtrain):
    """Bitwise pins of two scans: the 1-D g-train and a 2-D prescribed wave
    front (criterion 4's spec at 256^2, 8 directions) with classical, e and
    corner cells."""
    assert _wf_digest(wf_scan(gtrain, proto1d)) == (
        "788f86a764333633406e9147fbccd966b2e1223016e5fb41f693ffd25fad9362"
    )
    dirs = sphere_grid(2, 16)
    spec = PrescribedWfSpec(asymptotic=[(dirs[2], dirs[5]), (dirs[9], dirs[13])])
    proto2d = WfProtocol.make(
        2,
        box=16.0,
        ngrid=256,
        n_dirs=8,
        rho_max_frac=0.7,
        classical_centers=[(0.0, 0.0)],
        finite_q=[(0.0, 0.0), (1.0, 0.0)],
        floor=3e-6,
    )
    wf2 = wf_scan(make_prescribed(spec, 2, K_max=2), proto2d)
    assert {c.kind for c in wf2.cells} == {"classical", "e", "corner"}
    assert _wf_digest(wf2) == (
        "e513d9871a863d391fb064825174288582a9438b676f361f73d7bf501e859e44"
    )


@pytest.mark.parametrize(
    "bad",
    [
        {"tau_radial": 0.0},
        {"alpha_angular": 0.0},
        {"ngrid": 0},
        {"sigma_classical": (0.0,)},
        {"sigma_classical": ()},
        {"box": math.inf},
        {"floor": math.nan},
        {"samples_per_octave": -1},
        {"r_lo": 40.0},  # above r_max = 0.6 * box: no cone window radius
    ],
)
def test_protocol_rejects_nonpositive_parameters(proto1d, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        proto1d.replace(**bad)


def test_logradial_window_origin_and_ray():
    r, tau, alpha = 4.0, 0.3, 0.35
    omega = np.array([3.0, 4.0])  # not normalized
    on_ray = omega[:, None] / 5.0 * r
    off_ray = np.array([[0.0], [r]])
    X = np.hstack([on_ray, np.zeros((2, 1)), off_ray, 2.0 * on_ray])
    w = logradial_window(cone_geometry(X, omega), r, tau, alpha)
    assert w[0] == pytest.approx(1.0, rel=1e-12)
    assert w[1] == 0.0  # the origin: no half-offset scan grid holds it
    assert 0.0 < w[2] < w[0] and 0.0 < w[3] < w[0]
