import hashlib
import json

import numpy as np
import pytest

from sgosc.compactify import (
    AsymptoticCutoff,
    BoundaryNeighborhood,
    CompactPoint,
    SphereConstant,
    SphereCoordinate,
    ball_distance,
    bump_profile,
    bump_profile_jet,
    contains,
    direction_ball,
    japanese_bracket,
    project,
    sphere_grid,
)
from sgosc.jets import jet_variables
from sgosc.symbols import seminorm_estimate, symbol_from_cutoff


def test_japanese_bracket_values():
    assert japanese_bracket(np.zeros((1, 1)))[0] == 1.0
    assert abs(japanese_bracket(np.array([[3.0], [4.0]]))[0] - np.sqrt(26.0)) < 1e-14
    t = 1e3
    assert abs(japanese_bracket(np.array([[t], [0.0]]))[0] - np.sqrt(1 + t * t)) < 1e-9


def test_project_values_and_far_field():
    assert np.allclose(project(np.zeros((2, 1))), 0.0)
    p = project(np.array([[3.0], [4.0]]))
    assert np.allclose(p.ravel(), np.array([3.0, 4.0]) / np.sqrt(26.0))
    # |project(t e1) - e1| ~ 1/(2 t^2) for large t
    far = project(np.array([[1e6], [0.0]]))
    assert np.linalg.norm(far.ravel() - [1.0, 0.0]) < 1e-12


def test_project_monotone_along_rays():
    rs = np.linspace(0.1, 50, 200)
    vals = rs / np.sqrt(1 + rs * rs)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 1.0


def test_asymptotic_cutoff_examples():
    # psi == 1: vanishes at 0, equals 1 for |x| >= R
    cut = AsymptoticCutoff(SphereConstant(1.0), radius=1.0, dim=1)
    assert cut.value(np.array([[0.0]]))[0] == 0.0
    assert abs(cut.value(np.array([[10.0]]))[0] - 1.0) < 1e-14
    # psi(theta) = theta_1, R = 2, x = (4, 0)
    cut2 = AsymptoticCutoff(SphereCoordinate(0), radius=2.0, dim=2)
    v = cut2.value(np.array([[4.0], [0.0]]))[0]
    assert abs(v - 1.0) < 1e-14


def test_cutoff_vanishes_identically_inside_half_radius():
    cut = AsymptoticCutoff(SphereConstant(1.0), radius=3.0, dim=2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.06, 1.06, size=(2, 200))  # |x| <= 1.5 = R/2
    pts = pts[:, np.linalg.norm(pts, axis=0) <= 1.5]
    assert np.all(cut.value(pts) == 0.0)


def test_cutoff_is_sg_order_zero_by_seminorms():
    cut = AsymptoticCutoff(SphereCoordinate(0), radius=2.0, dim=2)
    sym = symbol_from_cutoff(cut)
    rep = seminorm_estimate(sym, (0.0, 0.0), max_order=3)
    assert np.isfinite(rep.max_value)


def test_contains_examples():
    U = BoundaryNeighborhood(center=(1.0, 0.0), angle=np.pi / 4, min_radius=10.0)
    assert contains(U, CompactPoint.boundary([1.0, 0.0]))
    assert not contains(U, CompactPoint.finite([5.0, 0.0]))
    assert not contains(U, CompactPoint.finite([0.0, 20.0]))
    assert contains(U, CompactPoint.finite([20.0, 0.0]))


def test_compact_point_serialization_and_norm_policy():
    p = CompactPoint.finite([1.0, 2.0])
    assert CompactPoint.from_json(json.loads(json.dumps(p.to_json()))) == p
    b = CompactPoint.boundary([1.0, 0.0])
    assert CompactPoint.from_json(b.to_json()) == b
    with pytest.raises(ValueError):
        CompactPoint.boundary([1.0, 1.0])  # far from unit norm
    # within 1e-9 renormalizes
    q = CompactPoint.boundary([1.0 + 5e-10, 0.0])
    assert abs(np.linalg.norm(q.array) - 1.0) < 1e-15
    assert CompactPoint.direction([2.0, 2.0]).array[0] == pytest.approx(1 / np.sqrt(2))


def test_bump_profile_pinned_values():
    """The step smooth_transition(2(1 - t)): 1 up to t = 1/2, 0 from t = 1,
    exactly 1/2 at t = 3/4, and bump - 1/2 is odd about t = 3/4."""
    assert bump_profile(0.25) == 1.0
    assert bump_profile(1.1) == 0.0
    assert bump_profile(0.75) == 0.5
    t = np.linspace(0.4, 1.1, 7001)
    assert np.max(np.abs(bump_profile(t) + bump_profile(1.5 - t) - 1.0)) <= 2.0**-52


@pytest.mark.parametrize("t0", [0.5 - 1e-3, 0.5 + 1e-3])
def test_bump_profile_jet_is_flat_at_the_plateau_edge(t0):
    """C-infinity at t = 1/2: on either side the Taylor coefficients 1 to 4
    vanish (a C^1 profile's second coefficient would read about -4)."""
    j = bump_profile_jet(jet_variables(4, np.array([[t0]]))[0])
    assert j.value[0] == pytest.approx(1.0)
    assert np.all(np.abs(j.c[1:, 0]) < 1e-9), j.c[:, 0]


def test_bump_profile_jet_is_finite_where_the_step_underflows():
    """Next to t = 1/2 and t = 1 one of the step's two exponentials
    underflows to 0; the order-8 jet stays finite there."""
    t = np.array([[np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]])
    j = bump_profile_jet(jet_variables(8, t)[0])
    assert np.all(np.isfinite(j.c))
    assert j.value == pytest.approx([1.0, 0.0])


def test_sphere_grids_are_unit_and_sized():
    for k in (1, 2, 3, 4):
        g = sphere_grid(k, 16)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
        assert len(g) >= 2


def test_direction_ball_stays_within_angle():
    c = np.array([0.0, 0.0, 1.0])
    ball = direction_ball(c, 0.2, n_ring=8)
    angs = np.arccos(np.clip(ball @ c, -1, 1))
    assert angs.max() <= 0.2 + 1e-12
    assert any(a == 0 for a in angs)


def test_ball_distance_mixes_finite_and_boundary():
    a = CompactPoint.finite([1e8, 0.0])
    b = CompactPoint.boundary([1.0, 0.0])
    assert ball_distance(a, b) < 1e-7


def test_sphere_grids_pinned():
    """Bitwise pin of sphere_grid(k, n) for k = 1 to 4 and n in 6, 12, 48."""
    h = hashlib.sha256()
    for k in (1, 2, 3, 4):
        for n in (6, 12, 48):
            h.update(sphere_grid(k, n).tobytes())
    assert h.hexdigest() == (
        "cc93061e3581357a463ca80c302984e85ac8150002f2dae934cec066907d4926"
    )


def test_sphere_grid_is_built_once_and_read_only():
    for k in (1, 2, 3, 4):
        g = sphere_grid(k, 12)
        assert sphere_grid(k, 12) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 0.0
        with pytest.raises(ValueError):
            g *= 2.0
