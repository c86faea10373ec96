import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sgosc.oscint import adaptive_tensor
from sgosc.synth import (
    PrescribedWfSpec,
    g_truncation_bound,
    make_classical_part,
    make_e_part,
    make_fk,
    make_g,
    make_prescribed,
)
from sgosc.wavefront import WfProtocol, css_scan, wf_scan
from sgosc.windows import bump_ft


def test_fk_basic_values():
    f0 = make_fk([1.0], [1.0], 0)
    assert abs(f0.values(np.zeros((1, 1)))[0] - 1.0) < 1e-14
    for k in (1, 2):
        fk = make_fk([1.0], [1.0], k)
        peak = np.array([[float(k**3)]])
        assert abs(abs(fk.values(peak)[0]) - 1.0) < 1e-14


def test_fk_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        make_fk([1.0, 1.0], [1.0, 0.0], 1)


def test_fk_fourier_law_by_quadrature_1d():
    for k in (0, 1):
        fk = make_fk([1.0], [1.0], k)
        zs = np.linspace(k**3 - 2, k**3 + 2, 5)
        for z in zs:
            val, _, _ = adaptive_tensor(
                lambda Y: fk.values(Y) * np.exp(-1j * Y[0] * z),
                [-(k**3) - 10],
                [k**3 + 10],
                tol_abs=1e-12,
                tol_rel=1e-11,
            )
            want = fk.ft().values(np.array([[z]]))[0]
            assert abs(val - want) < 1e-8


def test_g_bounded_and_peak_magnitudes():
    g = make_g([1.0], [1.0], K_max=3)
    xs = np.linspace(-100, 100, 4001)[None, :]
    vals = np.abs(g.values(xs))
    assert vals.max() <= 2.0
    assert vals.max() >= 0.9


def test_g_decay_off_ray():
    g = make_g([1.0], [1.0], K_max=3)
    x = np.array([[-50.0]])
    assert (1 + 50.0**2) ** 4 * abs(g.values(x)[0]) <= 1e-6


def test_g_truncation_certificate():
    assert g_truncation_bound(3, 100.0) < 1e-9
    assert g_truncation_bound(5, 200.0) < g_truncation_bound(4, 200.0) + 1e-30


def test_g_css(gtrain_proto=None):
    g = make_g([1.0], [1.0], K_max=3)
    proto = WfProtocol.make(
        1, box=64.0, ngrid=2048, rho_max_frac=0.7,
        classical_centers=[(0.0,)], finite_q=[(0.0,)],
    )
    sing, _ = css_scan(g, proto)
    assert [s.coords for s in sing] == [(1.0,)]


def test_prescribed_empty_is_zero():
    spec = PrescribedWfSpec()
    T = make_prescribed(spec, 1)
    xs = np.linspace(-10, 10, 50)[None, :]
    assert np.max(np.abs(T.values(xs))) == 0.0
    assert np.max(np.abs(T.ft().values(xs))) == 0.0


def test_prescribed_singleton_equals_g():
    spec = PrescribedWfSpec(asymptotic=[([1.0], [1.0])])
    T = make_prescribed(spec, 1, K_max=3)
    g = make_g([1.0], [1.0], K_max=3)
    xs = np.linspace(-30, 30, 301)[None, :]
    assert np.max(np.abs(T.values(xs) - g.values(xs))) < 1e-14


def test_prescribed_weights_are_dyadic():
    spec = PrescribedWfSpec(asymptotic=[([1.0], [1.0]), ([-1.0], [1.0])])
    T = make_prescribed(spec, 1, K_max=2)
    g1 = make_g([1.0], [1.0], K_max=2)
    g2 = make_g([-1.0], [1.0], K_max=2)
    xs = np.linspace(-12, 12, 101)[None, :]
    want = g1.values(xs) + 0.5 * g2.values(xs)
    assert np.max(np.abs(T.values(xs) - want)) < 1e-14


def test_weierstrass_tail_of_weights():
    # dropping levels beyond L changes the asymptotic sum by <= 2^-L sup|g|
    L = 30
    assert 2.0 ** (-L) * 2.0 < 1e-8


def test_classical_part_scan_and_smooth_ft():
    spec = PrescribedWfSpec(classical=[((0.5,), (1.0,))])
    T = make_prescribed(spec, 1)
    proto = WfProtocol.make(
        1,
        box=16.0,
        ngrid=4096,
        rho_max_frac=0.7,
        classical_centers=[(-2.0,), (-1.0,), (0.0,), (0.5,), (1.0,), (2.0,)],
        finite_q=[(-2.0,), (0.0,), (2.0,)],
    )
    from sgosc.compactify import CompactPoint

    wf = wf_scan(T, proto)
    target = wf.lookup(CompactPoint.finite([0.5]), CompactPoint.direction([1.0]))
    assert target.label == "singular"
    # nothing singular farther than one center spacing from the target
    for c in wf.singular():
        assert abs(c.y.coords[0] - 0.5) <= 1.0 + 1e-9
    # the transform is classically smooth
    wf_ft = wf_scan(T.ft(), proto.replace(box=64.0))
    assert not [
        c for c in wf_ft.cells if c.kind == "classical" and c.label == "singular"
    ]


def test_classical_log_constraint_enforced():
    spec = PrescribedWfSpec(classical=[((5.0, ), (1.0,))])
    with pytest.raises(ValueError):
        make_prescribed(spec, 1, k_top=7)


def test_e_part_duality():
    spec = PrescribedWfSpec(e_part=[([1.0], (0.5,))])
    T = make_prescribed(spec, 1)
    # T-hat is the classical construction: bounded, supported near q = 0.5
    zs = np.linspace(-4, 4, 401)[None, :]
    ft_vals = np.abs(T.ft().values(zs))
    assert ft_vals.max() > 1e-3
    mask_far = np.abs(zs[0] - 0.5) > 1.2
    assert ft_vals[mask_far].max() < 1e-2 * ft_vals.max()


@pytest.mark.parametrize("d", [1, 2])
def test_bump_ft_memory_is_bounded_and_blocking_is_invisible(d):
    ft, _ = bump_ft(d)  # builds and caches the quadrature nodes before tracing
    rz = np.linspace(0.0, 600.0, 8192)
    ang = np.random.default_rng(d).uniform(0.0, 2.0 * math.pi, rz.size)
    Z = rz[None, :] if d == 1 else np.stack([rz * np.cos(ang), rz * np.sin(ang)])
    tracemalloc.start()
    try:
        vals = ft(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    cuts = (0, 700, 3000, rz.size)
    parts = [ft(Z[:, a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(vals, np.concatenate(parts))


def test_spec_json_round_trip():
    spec = PrescribedWfSpec(
        asymptotic=[([1.0], [1.0])],
        classical=[((0.5,), (1.0,))],
        e_part=[([1.0], (0.5,))],
        weights=[1.0],
    )
    back = PrescribedWfSpec.from_json(spec.to_json())
    assert back.to_json() == spec.to_json()


# unit vectors per dimension: omega, eta and a second direction
_DIRS = {1: ([1.0], [-1.0], [-1.0]), 2: ([0.6, 0.8], [-0.8, 0.6], [1.0, 0.0])}


def _pinned_distributions(d):
    om, et, e2 = _DIRS[d]
    classical = [(tuple(0.25 * v for v in om), et), (tuple(0.0 for _ in om), e2)]
    e_part = [(om, tuple(0.5 * v for v in e2))]
    return {
        "f_0": make_fk(om, et, 0),
        "f_1": make_fk(om, et, 1),
        "f_2": make_fk(om, et, 2),
        "g K=1": make_g(om, et, K_max=1),
        "g K=3": make_g(om, et, K_max=3),
        "classical": make_classical_part(classical, d),
        "e": make_e_part(e_part, d),
        "prescribed": make_prescribed(
            PrescribedWfSpec(
                asymptotic=[(om, et), (e2, om)],
                classical=classical,
                e_part=e_part,
                weights=[0.75, 0.3],
            ),
            d,
            K_max=2,
        ),
        "prescribed dyadic": make_prescribed(
            PrescribedWfSpec(asymptotic=[(om, et), (e2, om)]), d, K_max=3
        ),
        "empty": make_prescribed(PrescribedWfSpec(), d),
    }


PINNED_DISTRIBUTIONS = {
    "f_0 d=1": "934109f92a16d79d24b18024012e64938e2be3c8095dfe8c649be9e8ae5109d3",
    "f_1 d=1": "398ae23a5403dd921bdd4be4ead6f8338bc272ad6ac014ddf07d28f07818f4fe",
    "f_2 d=1": "b92dfc146c2b02578104865d19987d96dd0ed9d0514e90c3222603a9b0fbd6bb",
    "g K=1 d=1": "02d21a7b94a8713411623b885c2f7c855df5644f981522805c4191ee6029f967",
    "g K=3 d=1": "612c9d14464f1d24a5ab93bf805d15abe087cb8c73c1cd3f58b1700602b9b9f0",
    "classical d=1": "c4a6853119004b56e0153400bb19d49e9d5545c88eb26c570fe3f1be9e06b22c",
    "e d=1": "0b948bd553f108e974bd9f67da5ce2da8201c988cda4567b6f10a1fc8ee922ff",
    "prescribed d=1": "c735cafc8d416a08192ad182dcf8b1aba02cea05f3041157e2ca5c2c464339fb",
    "prescribed dyadic d=1": "966c1372750adea472cbfa59615f4660bf819f3b975bd0203fb976b0a02299fc",
    "empty d=1": "9621e4f4e318f070233afac260f51cea95178fb95032c29725ac794e47e619ab",
    "f_0 d=2": "18c26e8b016968aa2841134c0aeb405a05ae1609cf9ccb7ca9b50e658d0a70ad",
    "f_1 d=2": "db1a7167faad174badea8a1aa4c9ba1ba8754b244003ee563f8a4e018071f224",
    "f_2 d=2": "08d8384c42b48cb5b7796081cdd06f0eb9cefadfe4b5b5e1db0362bd095a6fa5",
    "g K=1 d=2": "66f006dc26658a659f7ac2dce31bbd2e21379e779eaa8b8616e53deecad558d7",
    "g K=3 d=2": "2584a5173d107ac600f6e4a569f1559a318a93ebc76dece69a504576dea8f4de",
    "classical d=2": "de616b4918abb43a7af9473901b102920e862a97036dcb77c50a5f4f40e92d80",
    "e d=2": "ff45c780e94c01e82099ba280ff639d4228c8ecd94c20b71a37c52680f1a3d44",
    "prescribed d=2": "47686606b661bf87d9df4b92853a4de7f398fef8e14e63ce85f59fcf6b859dd9",
    "prescribed dyadic d=2": "e8f1b9f8ebdd69fb7f83d3d676157cc92570b21bb8134128344a71a871ceb949",
    "empty d=2": "9621e4f4e318f070233afac260f51cea95178fb95032c29725ac794e47e619ab",
}


def test_distributions_pinned():
    """Bitwise pins: SHA-256 over the bytes of values and ft().values of
    each synthesized distribution on seeded 1-D and 2-D points."""
    rng = np.random.default_rng(20261018)
    # a wide spread for the trains plus a cluster on the small classical bumps
    points = {
        1: np.hstack([rng.uniform(-32.0, 32.0, (1, 301)), rng.uniform(-1.5, 1.5, (1, 200))]),
        2: np.hstack([rng.uniform(-12.0, 12.0, (2, 301)), rng.normal(0.0, 0.5, (2, 200))]),
    }
    got = {}
    for d, X in points.items():
        for name, T in _pinned_distributions(d).items():
            h = hashlib.sha256(T.values(X).tobytes())
            h.update(T.ft().values(X).tobytes())
            got[f"{name} d={d}"] = h.hexdigest()
    assert got == PINNED_DISTRIBUTIONS
