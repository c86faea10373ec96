import math

import numpy as np
import pytest
from scipy.integrate import quad

from sgosc.catalog import KgSpec, gaussian_amplitude, sep_power_phase
from sgosc.compactify import CompactPoint
from sgosc.fio import (
    FlagError,
    HalfOperator,
    OscKernelOperator,
    apply_to_distribution,
    build_V,
    compose,
    fourier_half_operator,
    kg_evolve,
    phase_component_check,
)
from sgosc.oscint import NonConvergenceError, SchwartzFn, adaptive_tensor
from sgosc.phase import PhaseFn, check_admissible
from sgosc.symbols import constant_symbol, parse_symbol_expr


def test_apply_half_fourier_gaussian():
    f = SchwartzFn.gaussian(1, width=math.sqrt(2.0))  # exp(-y^2/2)
    F = fourier_half_operator(1)
    xs = np.linspace(-3, 3, 13)
    got = F.apply(f, xs[None, :])
    want = math.sqrt(2 * math.pi) * np.exp(-(xs**2) / 2)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("width, center", [(0.5, 0.0), (1.0, 0.7), (2.0, -1.3)])
def test_fourier_half_operator_matches_closed_form(width, center, inverse):
    # exp(-(y-c)^2/w^2) -> w sqrt(pi) exp(-w^2 x^2/4 -+ i x c), over 2 pi for F^-1
    f = SchwartzFn.gaussian(1, width=width, center=[center])
    xs = np.linspace(-6, 6, 49)
    got = fourier_half_operator(1, inverse=inverse).apply(f, xs[None, :])
    sign = 1.0 if inverse else -1.0
    want = width * math.sqrt(math.pi) * np.exp(-(width * xs) ** 2 / 4 + sign * 1j * xs * center)
    if inverse:
        want = want / (2 * math.pi)
    assert np.max(np.abs(got - want)) < 1e-12


def test_apply_half_zero_amplitude():
    phi = parse_symbol_expr("jb(x)*jb(k)", (1, 1), (1, 1))
    op = HalfOperator(phi=phi, amplitude=constant_symbol(1, 1, 0.0))
    out = op.apply(SchwartzFn.gaussian(1), np.array([[0.5, 1.0]]))
    assert np.max(np.abs(out)) < 1e-14


def test_apply_half_matches_direct_quadrature():
    phi = parse_symbol_expr("jb(x)*jb(k)", (1, 1), (1, 1))
    amp = gaussian_amplitude(1, 1)
    op = HalfOperator(phi=phi, amplitude=amp)
    f = SchwartzFn.gaussian(1)
    pts = np.linspace(-2, 2, 10)
    got = op.apply(f, pts[None, :], tol=1e-9)
    for x, g in zip(pts, got):
        val, _, _ = adaptive_tensor(
            lambda Y, x=x: np.exp(1j * phi.value(Y, np.full((1, Y.shape[1]), x)))
            * amp.value(Y, np.full((1, Y.shape[1]), x))
            * f.value(Y),
            [-9],
            [9],
            tol_abs=1e-11,
            tol_rel=1e-10,
        )
        assert abs(g - val) < 1e-6 * (1 + abs(val))


def test_half_operator_sizes_first_rule_over_f_support():
    # grad_y of y^3 xi is 0 at y = 0 but 15 y^2 where the gaussian lives
    phi = parse_symbol_expr("x1^3*k1", (1, 1), (3, 1))
    op = HalfOperator(phi=phi, amplitude=constant_symbol(1, 1, 1.0))
    f, pts = SchwartzFn.gaussian(1), np.array([[5.0]])
    assert abs(op.apply(f, pts)[0] - op._apply_panels(f, pts, 256)[0]) < 1e-8


def test_half_operator_refuses_unconverged():
    # the amplitude cos(5 y^3) oscillates where the phase y.xi does not, so the
    # first rule has 8 panels, and four panel doublings never agree to tol
    phi = parse_symbol_expr("x1*k1", (1, 1), (1, 1))
    op = HalfOperator(phi=phi, amplitude=parse_symbol_expr("cos(x1^3*k1)", (1, 1), (3, 1)))
    with pytest.raises(NonConvergenceError) as err:
        op.apply(SchwartzFn.gaussian(1), np.array([[5.0]]))
    diag = err.value.diagnostic
    assert set(diag) == {"panels", "change", "tol"}
    assert diag["tol"] == 1e-8 and diag["change"] >= diag["tol"]


def test_half_operator_refuses_nan_f():
    g = SchwartzFn.gaussian(1)

    class _Nan:
        d = 1

        @staticmethod
        def value(Y):
            return np.where(Y[0] == Y[0, 3], np.nan, g.value(Y))

    with pytest.raises(NonConvergenceError):
        fourier_half_operator(1).apply(_Nan(), np.array([[0.5]]))


def test_half_operator_values_f_once_per_node():
    f = SchwartzFn.gaussian(1)
    seen = []

    class _Counting:
        d = 1

        @staticmethod
        def value(Y):
            seen.append(Y.shape[1])
            assert np.unique(Y).size == Y.shape[1]
            return f.value(Y)

    phi = parse_symbol_expr("x1*k1 + 0.1*jb(x)*jb(k)", (1, 1), (1, 1))
    op = HalfOperator(phi=phi, amplitude=gaussian_amplitude(1, 1))
    pts = np.linspace(-2, 2, 10)[None, :]
    got = op.apply(_Counting(), pts)
    assert len(seen) >= 2 and all(n % 15 == 0 for n in seen)
    assert np.array_equal(got, op.apply(f, pts))


def test_fourier_inversion_composition():
    f = SchwartzFn.gaussian(1)
    comp = compose(fourier_half_operator(1, inverse=True), fourier_half_operator(1))
    xs = np.linspace(-2, 2, 9)
    got = comp.apply(f, xs[None, :])
    assert np.max(np.abs(got - f.value(xs[None, :]))) < 1e-6


def test_pseudodifferential_identity_up_to_normalization():
    # op1 = F, phi_(xi x) = x.xi, a = 1: recovers 2 pi f
    f = SchwartzFn.gaussian(1)
    outer_phi = parse_symbol_expr("x1*k1", (1, 1), (1, 1))
    outer = HalfOperator(phi=outer_phi, amplitude=constant_symbol(1, 1, 1.0))
    comp = compose(outer, fourier_half_operator(1))
    xs = np.linspace(-2, 2, 9)
    got = comp.apply(f, xs[None, :])
    want = 2 * math.pi * f.value(xs[None, :])
    assert np.max(np.abs(got - want)) < 1e-5 * (1 + np.max(np.abs(want)))


def test_type_one_maps_into_rapid_decay():
    # phi(xi, x) = x.xi + eps <x><xi>: a phase component; the composite with F
    # sends gaussians to rapidly decaying functions
    eps = 0.1
    phi = parse_symbol_expr("x1*k1 + 0.1*jb(x)*jb(k)", (1, 1), (1, 1))
    rep = phase_component_check(phi)
    assert rep["ok"]
    outer = HalfOperator(phi=phi, amplitude=constant_symbol(1, 1, 1.0))
    comp = compose(outer, fourier_half_operator(1), grid_max=14.0)
    f = SchwartzFn.gaussian(1)
    rs = np.array([2.0, 4.0, 8.0, 16.0])
    vals = np.abs(comp.apply(f, rs[None, :]))
    assert vals[-1] < 1e-6 * (1 + vals[0])


def test_compose_flag_check():
    # inner operator with no decay flag and non-decaying outer amplitude
    phi_bad = parse_symbol_expr("jb(x)*jb(k)", (1, 1), (1, 1))
    inner = HalfOperator(phi=phi_bad * 0.0 + phi_bad, amplitude=constant_symbol(1, 1, 1.0))
    # force flags to computed values
    outer = HalfOperator(phi=phi_bad, amplitude=constant_symbol(1, 1, 1.0))
    inner.flags = {"y_elliptic": False, "component": False}
    with pytest.raises(FlagError):
        compose(outer, inner)


def test_transpose_law_on_gaussians():
    phi = parse_symbol_expr("x1*k1 + 0.1*jb(x)*jb(k)", (1, 1), (1, 1))
    amp = gaussian_amplitude(1, 1)
    op = HalfOperator(phi=phi, amplitude=amp)
    top = op.transpose()
    f = SchwartzFn.gaussian(1)
    g = SchwartzFn.gaussian(1, width=1.3)
    nodes = np.linspace(-8, 8, 257)
    w = nodes[1] - nodes[0]
    Af = op.apply(f, nodes[None, :], tol=1e-9)
    tAg = top.apply(g, nodes[None, :], tol=1e-9)
    lhs = np.sum(w * Af * g.value(nodes[None, :]))
    rhs = np.sum(w * f.value(nodes[None, :]) * tAg)
    assert abs(lhs - rhs) < 1e-6 * (1 + abs(lhs))


def test_composite_associativity():
    # (A o F) applied to (F^-1 o F) f equals (A o F) f
    phi = parse_symbol_expr("x1*k1 + 0.1*jb(x)*jb(k)", (1, 1), (1, 1))
    A = HalfOperator(phi=phi, amplitude=constant_symbol(1, 1, 1.0))
    f = SchwartzFn.gaussian(1)
    xs = np.linspace(-2, 2, 7)
    F = fourier_half_operator(1)
    Finv = fourier_half_operator(1, inverse=True)
    ff_vals = compose(A, F).apply(f, xs[None, :])
    roundtrip = compose(Finv, F)

    class _Wrap:
        d = 1

        @staticmethod
        def value(X):
            return roundtrip.apply(f, X)

    via = compose(A, F).apply(_Wrap(), xs[None, :])
    assert np.max(np.abs(via - ff_vals)) < 1e-5 * (1 + np.max(np.abs(ff_vals)))


def test_kg_evolution_initial_conditions_and_reality():
    f = SchwartzFn.gaussian(1)
    evo = kg_evolve(f, 0.5, c=1.0, mass=1.0)
    xs = np.linspace(-4, 4, 41)
    assert np.max(np.abs(evo.values(0.0, xs))) < 1e-8
    assert np.max(np.abs(evo.dt_values(0.0, xs) - f.value(xs[None, :]))) < 1e-4
    u = evo.values(0.5, xs)
    assert np.max(np.abs(u.imag)) < 1e-8


def test_kg_evolution_pde_residual():
    f = SchwartzFn.gaussian(1)
    evo = kg_evolve(f, 0.5)
    t0, ht, hx = 0.5, 0.02, 0.0625
    xs = np.arange(-4, 4.0001, hx)
    c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    utt = sum(cj * evo.values(t0 + j * ht, xs) for cj, j in zip(c, [-2, -1, 0, 1, 2])) / ht**2
    u = evo.values(t0, xs)
    uxx = (c[0] * u[:-4] + c[1] * u[1:-3] + c[2] * u[2:-2] + c[3] * u[3:-1] + c[4] * u[4:]) / hx**2
    res = utt[2:-2] - uxx + u[2:-2]
    assert np.max(np.abs(res)) < 1e-3 * np.max(np.abs(u))


def test_kg_evolution_matches_quadpack_reference():
    # f = e^{-y^2}, f-hat = sqrt(pi) e^{-xi^2/4}: u is the cosine integral
    # (1/pi) int_0^inf cos(x xi) sin(t omega)/omega f-hat dxi, cut at 40
    def integrand(xi, t, x):
        om = math.sqrt(1.0 + xi * xi)
        fhat = math.sqrt(math.pi) * math.exp(-xi * xi / 4)
        return math.cos(x * xi) * math.sin(t * om) / om * fhat

    evo = kg_evolve(SchwartzFn.gaussian(1), 0.5)
    xs = [0.0, 1.0, 3.0]
    for t in (0.5, 2.0, 5.0):
        want = [
            quad(integrand, 0.0, 40.0, args=(t, x), epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            / math.pi
            for x in xs
        ]
        assert np.max(np.abs(evo.values(t, xs) - want)) < 1e-12


def test_kg_evolution_refuses_an_aliased_grid():
    # u(400) is spread over |x| < 400, wider than the alias period 2 pi n / 32
    # of every midpoint grid of n <= 1536 points on [-16, 16]; a fixed grid of
    # 1024 points reads u(400, 0) off by 0.059 against QUADPACK
    evo = kg_evolve(SchwartzFn.gaussian(1), 0.5)
    with pytest.raises(NonConvergenceError) as err:
        evo.values(400.0, [0.0, 150.0])
    diag = err.value.diagnostic
    assert set(diag) == {"grid_points", "change", "tol"}
    assert diag["grid_points"] == 3072 and diag["change"] >= diag["tol"]


def test_kg_evolution_refuses_negative_times():
    # values(-1.0, [0, 1]) returned [-0.615, -0.374] although kg_evolve
    # refuses t = -1; a NaN t ran three grid doublings to a NonConvergenceError
    f = SchwartzFn.gaussian(1)
    evo = kg_evolve(f, 0.5)
    for t in (-1.0, math.nan):
        for method in (evo.values, evo.dt_values):
            with pytest.raises(ValueError, match="t must be nonnegative"):
                method(t, [0.0, 1.0])
        with pytest.raises(ValueError, match="t must be nonnegative"):
            kg_evolve(f, t)


def test_kg_evolve_validates_inputs():
    f = SchwartzFn.gaussian(1)
    with pytest.raises(ValueError):
        kg_evolve(f, -1.0)
    with pytest.raises(ValueError):
        kg_evolve(f, 1.0, mass=0.0)


def test_build_V_examples():
    phi = parse_symbol_expr("x1*k1", (1, 1), (1, 1))
    V = build_V(phi)
    rng = np.random.default_rng(5)
    x = rng.uniform(-20, 20, (1, 100))
    k = rng.uniform(-20, 20, (1, 100))
    assert V.residual(x, k).max() < 1e-8
    with pytest.raises(FlagError):
        build_V(parse_symbol_expr("x1", (1, 1), (1.0, 1.0)))
    # an extra xi-free term keeps the component bounds
    phi2 = parse_symbol_expr("x1*k1 + jb(x)", (1, 1), (1, 1))
    V2 = build_V(phi2)
    assert V2.residual(x, k).max() < 1e-8


def test_V_apply_gains_x_decay():
    phi = parse_symbol_expr("x1*k1", (1, 1), (1, 1))
    V = build_V(phi)
    one = constant_symbol(1, 1, 1.0)
    out = V.apply(one)
    # V(1) = (1 - Lap)(D^-1) ~ <x>^-2 at large |x|
    big = np.array([[100.0]])
    small = np.array([[0.0]])
    k = np.array([[1.0]])
    assert abs(out.value(big, k)[0]) < 1e-3 * abs(out.value(small, k)[0] + 1e-30) + 1e-3


def test_kernel_operator_pairing_matches_direct():
    # K = I_phi(a) on R^2 with covariable xi in R^1
    phi = PhaseFn(parse_symbol_expr("jb(x)*jb(k)", (2, 1), (1, 1)), (1, 1))
    check_admissible(phi)
    amp = gaussian_amplitude(2, 1)
    op = OscKernelOperator(phi=phi, amplitude=amp, dx=1, dy=1)
    f = SchwartzFn.gaussian(1)
    g = SchwartzFn.gaussian(1, width=1.2)
    got = op.pairing(f, g, r=1, tol=1e-6, box=(6.0, 6.0))

    def integrand(X):
        xy, k = X[:2], X[2:]
        return (
            np.exp(1j * phi.value(xy, k))
            * amp.value(xy, k)
            * g.value(xy[:1])
            * f.value(xy[1:2])
        )

    want, _, _ = adaptive_tensor(
        integrand, [-5, -5, -5], [5, 5, 5], tol_abs=1e-7, tol_rel=1e-6,
        initial_splits=[2, 2, 2], max_cells=20000,
    )
    assert abs(got - want) < 1e-4 * (1 + abs(want))


def test_apply_to_distribution_guard_gating():
    from sgosc.synth import make_fk
    from sgosc.wavefront import WfProtocol, wf_scan
    from sgosc.wavefront import EvaluableDistribution

    proto = WfProtocol.make(
        1, box=64.0, ngrid=2048, rho_max_frac=0.7,
        classical_centers=[(0.0,)], finite_q=[(0.0,)],
    )
    smooth = make_fk([1.0], [1.0], 0)
    wf_ok = wf_scan(smooth, proto)
    narrow = EvaluableDistribution(
        1,
        lambda X: np.exp(-np.sum((8.0 * X) ** 2, axis=0) / 2).astype(complex),
        source="narrow",
    )
    wf_bad = wf_scan(narrow, proto)

    class _Sp:
        def __init__(self, member_everywhere):
            self.member = member_everywhere

        def lookup(self, pair):
            class S:
                pass

            s = S()
            s.point = pair
            s.classification = "member" if self.member else "nonmember"
            return s

    phi = parse_symbol_expr("x1*k1 + 0.1*jb(x)*jb(k)", (1, 1), (1, 1))
    op = HalfOperator(phi=phi, amplitude=constant_symbol(1, 1, 1.0))
    f = SchwartzFn.gaussian(1)
    val = apply_to_distribution(op, smooth, wf_ok, _Sp(True), f)
    assert np.isfinite(val.real)
    with pytest.raises(FlagError):
        apply_to_distribution(op, narrow, wf_bad, _Sp(True), f)
    # with an all-clear grid the same distribution is admitted
    val2 = apply_to_distribution(op, narrow, wf_bad, _Sp(False), f)
    assert np.isfinite(val2.real)
