import hashlib

import numpy as np
import pytest

from sgosc.catalog import KgSpec, gaussian_amplitude, sep_power_phase
from sgosc.compactify import CompactPoint, sphere_grid
from sgosc.jets import jet_variables
from sgosc.oscint import SchwartzFn
from sgosc.phase import PhaseFn, check_admissible
from sgosc.regularize import (
    ConeLocalizer,
    RegularizerP,
    RegularizerRefused,
    apply_P_r,
    build_P,
    build_Q,
    build_Qp,
    residual_P,
)
from sgosc.symbols import DEFAULT_PROTOCOL, SymbolFn, constant_symbol, verify_order


@pytest.fixture(scope="module")
def bracket_P():
    phi = sep_power_phase(1, 1)
    check_admissible(phi)
    return build_P(phi)


@pytest.fixture(scope="module")
def kg_P():
    phi = KgSpec(1.0, 1).phase()
    check_admissible(phi)
    return build_P(phi)


def test_components_inside_plateau(bracket_P):
    u, v, w, chi = bracket_P.component_jets(np.zeros((1, 1)), np.zeros((1, 1)), 0)
    assert abs(u[0].value[0]) == 0.0
    assert abs(v[0].value[0]) == 0.0
    assert w.value[0] == pytest.approx(1.0)
    assert chi.value[0] == pytest.approx(1.0)


def test_adjoint_identity_bracket(bracket_P):
    rng = np.random.default_rng(0)
    x = rng.uniform(-50, 50, size=(1, 500))
    k = rng.uniform(-50, 50, size=(1, 500))
    assert residual_P(bracket_P, x, k).max() < 1e-10


def test_adjoint_identity_kg(kg_P):
    rng = np.random.default_rng(1)
    x = rng.uniform(-50, 50, size=(2, 500))
    k = rng.uniform(-50, 50, size=(1, 500))
    assert residual_P(kg_P, x, k).max() < 1e-10


def test_component_orders_kg(kg_P):
    # the product algebra fixes the component orders: u multiplies grad_xi,
    # so u in SG^(-n, -nu+1) = (-1, 0); v multiplies grad_x, so
    # v in SG^(-n+1, -nu) = (0, -1); w in SG^(-n, -nu) = (-1, -1)
    from sgosc.symbols import SymbolFn

    phi = kg_P.phi

    def comp_symbol(which, order):
        def jet_fn(xj, kj):
            K = (xj + kj)[0].order
            x = np.stack([j.value.real for j in xj])
            xi = np.stack([j.value.real for j in kj])
            u, v, w, _ = kg_P.component_jets(x, xi, K)
            if which == "u":
                return u[0]
            if which == "v":
                return v[0]
            return w

        return SymbolFn(phi.d, phi.s, order, jet_fn, which)

    assert verify_order(comp_symbol("u", (-1.0, 0.0)), (-1.0, 0.0)).ok
    assert verify_order(comp_symbol("v", (0.0, -1.0)), (0.0, -1.0)).ok
    assert verify_order(comp_symbol("w", (-1.0, -1.0)), (-1.0, -1.0)).ok


def test_apply_P_r_zero_is_identity(bracket_P):
    a = gaussian_amplitude(1, 1)
    f = SchwartzFn.gaussian(1)
    out = apply_P_r(bracket_P, a, f, 0)
    x = np.array([[0.7]])
    k = np.array([[-0.3]])
    want = a.value(x, k) * f.value(x)
    assert abs(out.value(x, k)[0] - want[0]) < 1e-14


def test_apply_P_is_plateau_identity(bracket_P):
    one = constant_symbol(1, 1, 1.0)
    out = apply_P_r(bracket_P, one, None, 1)
    # inside the chi = 1 region P(1) = w = 1
    assert out.value(np.zeros((1, 1)), np.zeros((1, 1)))[0] == pytest.approx(1.0)


def test_chi_jet_is_flat_at_R(kg_P):
    """chi is C-infinity across its plateau edge |(x, xi)| = R: on either
    side every Taylor coefficient of degree 1 to 4 vanishes."""
    dirs = np.random.default_rng(5).normal(size=(3, 4))
    dirs /= np.linalg.norm(dirs, axis=0)
    for t in (kg_P.R - 1e-3, kg_P.R + 1e-3):
        XK = t * dirs
        chi = kg_P.chi_jet(jet_variables(4, XK[:2], XK[2:]))
        assert chi.value == pytest.approx(1.0)
        assert np.all(np.abs(chi.c[1:]) < 1e-9), (t, np.max(np.abs(chi.c[1:])))


def test_order_descent_under_P(bracket_P):
    a = constant_symbol(1, 1, 1.0).with_order((0.0, 0.0))
    for r in (1, 2):
        out = apply_P_r(bracket_P, a, None, r)
        assert out.order == (-float(r), -float(r))
        assert verify_order(out, out.order).ok


def test_leibniz_cross_check_in_P(bracket_P):
    # P(a f) via jets equals u.grad(af) + v.grad(af) + w af term-by-term
    a = gaussian_amplitude(1, 1)
    f = SchwartzFn.gaussian(1)
    x = np.array([[5.0]])
    k = np.array([[4.0]])
    out = apply_P_r(bracket_P, a, f, 1).value(x, k)[0]
    u, v, w, _ = bracket_P.component_jets(x, k, 0)
    from sgosc.jets import jet_variables

    vars_ = jet_variables(1, x, k)
    g = a.jet(x, k, 1) * f.jet_fn(vars_[:1])
    manual = (
        u[0].value * g.derivative(1).value
        + v[0].value * g.derivative(0).value
        + w.value * g.value
    )[0]
    assert abs(out - manual) < 1e-12 * max(1.0, abs(manual))


def test_build_P_rejects_small_R(bracket_P):
    with pytest.raises(ValueError):
        build_P(bracket_P.phi, R=0.5)


def test_Q_accept_and_residual():
    phi = KgSpec(1.0, 1).phase()
    loc = ConeLocalizer(CompactPoint.finite([3.0, 0.0]), CompactPoint.direction([1.0]))
    Q = build_Q(phi, loc)
    rng = np.random.default_rng(2)
    x = rng.uniform(-4, 4, size=(2, 200))
    k = rng.uniform(2, 60, size=(1, 200))
    assert Q.residual(x, k).max() < 1e-12


def test_Q_apply_matches_central_differences():
    spec = KgSpec(1.0, 1)
    phi = spec.phase()
    Q = build_Q(phi, ConeLocalizer(CompactPoint.finite([3.0, 0.0]), CompactPoint.direction([1.0])))
    a = spec.amplitude()
    rng = np.random.default_rng(6)
    x = np.array([[3.0], [0.0]]) + rng.uniform(-0.5, 0.5, (2, 50))
    k = rng.uniform(2, 60, (1, 50))
    h = 1e-4 * (1.0 + np.abs(k))

    def b(kk):  # b = i grad_xi phi / |grad_xi phi|^2, s = 1
        g = phi.grad_xi(x, kk).real
        return 1j * g / np.sum(g * g, axis=0)

    da = (a.value(x, k + h) - a.value(x, k - h)) / (2 * h[0])
    db = (b(k + h) - b(k - h))[0] / (2 * h[0])
    want = b(k)[0] * da + db * a.value(x, k)
    got = Q.apply(a).value(x, k)
    assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))


def test_Q_refused_on_degenerate_cone():
    phi = KgSpec(1.0, 1).phase()
    with pytest.raises(RegularizerRefused):
        build_Q(
            phi,
            ConeLocalizer(CompactPoint.finite([0.0, 0.0]), CompactPoint.direction([1.0])),
        )


def test_Qp_residual_and_refusal():
    phi = KgSpec(1.0, 1).phase()
    qp = build_Qp(
        phi,
        CompactPoint.finite([0.0, 0.0]),
        CompactPoint.direction([0.0, 1.0]),
        CompactPoint.direction([1.0]),
    )
    rng = np.random.default_rng(3)
    xs = np.zeros((2, 100))
    ks = rng.uniform(30, 100, (1, 100))
    ps = np.stack([np.zeros(100), rng.uniform(30, 100, 100)])
    assert qp.residual(xs, ks, ps).max() < 1e-12
    with pytest.raises(RegularizerRefused):
        # covariable region on the forward shell direction: eta_p degenerates
        build_Qp(
            phi,
            CompactPoint.finite([0.0, 0.0]),
            CompactPoint.direction([-1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]),
            CompactPoint.direction([1.0]),
        )


def test_regularizer_refusals_pinned():
    """Bitwise pin of build_Q and build_Qp on kg11: min_ratio.hex() of each
    construction, or the refusal's message, over finite and boundary cone
    supports and over direction and finite covariable regions."""
    phi = KgSpec(1.0, 1).phase()
    check_admissible(phi)
    fin, dirn = CompactPoint.finite, CompactPoint.direction
    h = hashlib.sha256()

    def record(build, *args):
        try:
            h.update(f"{build(phi, *args).min_ratio.hex()}\n".encode())
        except RegularizerRefused as err:
            h.update(f"refused {err}\n".encode())

    for x in ([3.0, 0.0], [0.0, 0.0]):
        for xi in sphere_grid(1, 4):
            record(build_Q, ConeLocalizer(fin(x), dirn(xi)))
    for xi_region in (dirn(sphere_grid(1, 4)[0]), fin([0.5])):
        for y in sphere_grid(2, 4):
            for q in sphere_grid(2, 4):
                record(build_Qp, dirn(y), dirn(q), xi_region)
    assert h.hexdigest() == (
        "fca8dc37eda4ac104fd23e41c365b82e681712156aca268d5741b61bec460f68"
    )


def test_all_three_adjoint_identities_on_random_points():
    phi = sep_power_phase(1, 1)
    check_admissible(phi)
    P = build_P(phi)
    rng = np.random.default_rng(4)
    x = rng.uniform(-40, 40, (1, 1000))
    k = rng.uniform(-40, 40, (1, 1000))
    assert residual_P(P, x, k).max() < 1e-8
    loc = ConeLocalizer(CompactPoint.finite([2.0]), CompactPoint.direction([1.0]))
    Q = build_Q(phi, loc)
    k2 = rng.uniform(2, 80, (1, 1000))
    assert Q.residual(rng.uniform(-3, 3, (1, 1000)), k2).max() < 1e-8


# -- P^r only off chi's plateau ----------------------------------------------------


def _plateau_cases():
    phi = sep_power_phase(1, 1)
    check_admissible(phi)
    P = build_P(phi)
    yield P, gaussian_amplitude(1, 1), SchwartzFn.gaussian(1)
    spec = KgSpec(1.0, 1)
    phi = spec.phase()
    check_admissible(phi)
    yield build_P(phi), spec.truncated_amplitude(6.0), SchwartzFn.gaussian(2)
    # no f, and an amplitude whose vanishing derivatives at x = 0 read -0.0
    yield P, -gaussian_amplitude(1, 1), None


def _mixed_batch(P, seed=7):
    """Three columns each on the plateau (the origin among them), in the
    shell R < |(x, xi)| < R + 1 and beyond it, plus a -0.0 coordinate."""
    d, s = P.phi.d, P.phi.s
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(d + s, 9))
    dirs /= np.linalg.norm(dirs, axis=0)
    rad = np.concatenate(
        [[0.0, 0.4 * P.R, 0.999 * P.R], P.R + np.array([0.2, 0.5, 0.9, 1.5, 4.0, 9.0])]
    )
    X = dirs * rad
    X[0, 1] = -0.0
    return X[:d], X[d:], rad <= P.R


def _af(a, f, x, xi, order, d):
    v = jet_variables(order, x, xi)
    g = a.jet_fn(v[:d], v[d:])
    return g if f is None else g * f.jet_from_vars(v[:d])


def _full_path(P, a, f, r, x, xi, order):
    """P^r(a f) with the components and P applied on every column."""
    g = _af(a, f, x, xi, order + r, P.phi.d)
    u, vv, w, _ = P.component_jets(x, xi, order + r - 1)
    for _ in range(r):
        g = P.apply_jet(g, u, vv, w)
    return g.c


def test_apply_P_r_splits_on_the_plateau_bitwise():
    for P, a, f in _plateau_cases():
        x, xi, on = _mixed_batch(P)
        for r in (1, 2, 3):
            g = apply_P_r(P, a, f, r)
            for order in (0, 1, 2):
                got = g.jet(x, xi, order).c
                assert got.dtype == np.complex128
                assert got.tobytes() == _full_path(P, a, f, r, x, xi, order).tobytes()
                # numpy sums a lone column in another order than the same
                # column of a wider batch, so each column goes in as two copies
                for j in range(x.shape[1]):
                    one = g.jet(x[:, [j, j]], xi[:, [j, j]], order).c[:, :1]
                    assert one.tobytes() == np.ascontiguousarray(got[:, j : j + 1]).tobytes()
                af = _af(a, f, x[:, on], xi[:, on], order, P.phi.d).c
                assert np.array_equal(got[:, on], af)
                # a lone column on either side of R stays in the full batch
                for lone in ([0, 1, 2, 3], [0, 3, 4, 5]):
                    want = _full_path(P, a, f, r, x[:, lone], xi[:, lone], order)
                    assert g.jet(x[:, lone], xi[:, lone], order).c.tobytes() == want.tobytes()


def test_apply_P_r_on_the_plateau_skips_the_components(monkeypatch):
    P, a, f = next(_plateau_cases())
    x, xi, on = _mixed_batch(P)

    def refuse(*args):
        raise AssertionError("component_jets called on the plateau")

    monkeypatch.setattr(type(P), "component_jets", refuse)
    for r in (1, 2, 3):
        got = apply_P_r(P, a, f, r).jet(x[:, on], xi[:, on], 2)
        assert got.c.dtype == np.complex128
        assert np.array_equal(got.value, a.value(x[:, on], xi[:, on]) * f.value(x[:, on]))


def test_apply_P_r_refuses_vanishing_eta_off_the_plateau():
    # eta vanishes only at (x, xi) = (5, 0), outside the plateau |(x, xi)| <= 3
    sym = SymbolFn(1, 1, (2.0, 2.0), lambda xj, kj: (xj[0] - 5.0) ** 2 + kj[0] ** 2, "bowl")
    P = RegularizerP(phi=PhaseFn(sym, (2.0, 2.0)), R=3.0, protocol=DEFAULT_PROTOCOL)
    one = constant_symbol(1, 1, 1.0)
    x = np.array([[0.0, 1.0, 5.0, 6.0]])
    xi = np.array([[0.0, 0.5, 0.0, 0.0]])
    assert apply_P_r(P, one, None, 1).jet(x[:, :2], xi[:, :2], 0).value.tolist() == [1, 1]
    with pytest.raises(RegularizerRefused, match="eta vanishes"):
        apply_P_r(P, one, None, 1).jet(x, xi, 0)
