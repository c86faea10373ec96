import numpy as np
import pytest
import sympy as sp

from sgosc.jets import Jet, jb_jet, jet_space, jet_variables, norm2_jet


def _rand_points(rng, k, n):
    return rng.uniform(-3.0, 3.0, size=(k, n))


def test_polynomial_jets_match_symbolic_exactly():
    # random degree-3 polynomials in two variables against sympy derivatives
    rng = np.random.default_rng(7)
    xs, ys = sp.symbols("x y")
    for _ in range(5):
        coeffs = rng.uniform(-2, 2, size=(4, 4))
        poly = sum(
            coeffs[i, j] * xs**i * ys**j
            for i in range(4)
            for j in range(4)
            if i + j <= 3
        )
        pts = _rand_points(rng, 2, 3)
        v = jet_variables(3, pts)
        jet = None
        for i in range(4):
            for j in range(4):
                if i + j > 3:
                    continue
                term = Jet.constant(v[0].space, coeffs[i, j])
                term = term * v[0].ipow(i) * v[1].ipow(j)
                jet = term if jet is None else jet + term
        for gamma in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 0), (1, 2)]:
            dsym = sp.diff(poly, xs, gamma[0], ys, gamma[1])
            fn = sp.lambdify((xs, ys), dsym, "numpy")
            want = np.asarray(fn(pts[0], pts[1]), dtype=complex)
            got = jet.partial(gamma)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_leibniz_rule_is_exact():
    rng = np.random.default_rng(1)
    pts = _rand_points(rng, 2, 50)
    v = jet_variables(3, pts)
    a = (v[0] * v[1] + 1.5).exp()
    b = jb_jet(v) * v[0]
    prod = a * b
    for i in (0, 1):
        lhs = prod.derivative(i)
        rhs = a.derivative(i) * b.truncate(2) + a.truncate(2) * b.derivative(i)
        assert np.max(np.abs(lhs.c - rhs.c)) < 1e-12 * max(1, np.max(np.abs(lhs.c)))


def test_compositions_against_finite_differences():
    rng = np.random.default_rng(2)
    pts = _rand_points(rng, 2, 20)

    def f(x):
        return np.sin(x[0] * x[1]) + np.sqrt(1.0 + x[0] ** 2 + x[1] ** 2) * np.exp(
            -x[1] ** 2
        )

    def jet_f(v):
        return (v[0] * v[1]).sin() + jb_jet(v) * (-(v[1] * v[1])).exp()

    v = jet_variables(1, pts)
    jet = jet_f(v)
    h = 1e-5
    for i in (0, 1):
        e = np.zeros((2, 1))
        e[i] = h
        fd = (f(pts + e) - f(pts - e)) / (2 * h)
        got = jet.derivative(i).value.real
        assert np.max(np.abs(got - fd)) < 1e-6 * (1.0 + np.max(np.abs(fd)))


def test_reciprocal_and_power_series():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.5, 3.0, size=(1, 10))
    v = jet_variables(4, pts)
    u = v[0] * v[0] + 1.0
    ident = u * u.recip()
    assert np.max(np.abs(ident.c[0] - 1.0)) < 1e-13
    assert np.max(np.abs(ident.c[1:])) < 1e-12
    # power(1/2) squared reproduces the argument
    s = u.sqrt()
    back = s * s
    assert np.max(np.abs(back.c - u.c)) < 1e-12


def test_truncation_is_prefix_slice():
    v = jet_variables(4, np.array([[0.3], [0.7]]))
    jet = (v[0] + 2.0 * v[1]).exp()
    t2 = jet.truncate(2)
    assert t2.order == 2
    assert np.allclose(t2.c, jet.c[: t2.space.ncoef])


def test_sqrt_rejects_nonpositive():
    v = jet_variables(2, np.array([[-1.0]]))
    with pytest.raises(ValueError):
        v[0].sqrt()


def test_norm2_and_variable_batching():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = jet_variables(1, pts)
    n2 = norm2_jet(v)
    assert np.allclose(n2.value.real, [10.0, 20.0])
    assert jet_space(2, 1).ncoef == 3


def test_piecewise():
    v = jet_variables(2, np.array([[0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0]]))
    sp = v[0].space
    live = np.array([False, True, False, True])
    one = np.array([True, False, False, False])
    calls = []

    def build(mask):
        calls.append(mask)
        return (v[0] * v[1]).columns(mask).exp()

    j = Jet.piecewise(sp, live, build, one=one)
    assert len(calls) == 1 and np.array_equal(calls[0], live)
    assert j.space is sp and j.c.shape == (sp.ncoef, 4) and j.c.dtype == build(live).c.dtype
    # a plateau column is the constant 1, a live column is build's jet,
    # any other column is 0
    assert j.c[0, 0] == 1.0 and not np.any(j.c[1:, 0])
    assert np.array_equal(j.c[:, live], (v[0] * v[1]).columns(live).exp().c)
    assert not np.any(j.c[:, 2])

    def never(mask):
        raise AssertionError("build called with no live column")

    none = Jet.piecewise(sp, np.zeros(4, bool), never, one=one)
    assert np.array_equal(none.c[0], [1, 0, 0, 0]) and not np.any(none.c[1:])
    assert not np.any(Jet.piecewise(sp, np.zeros(4, bool), never).c)


def test_dtype_follows_data():
    v = jet_variables(3, np.array([[0.5, 1.5, 2.5], [1.0, -2.0, 0.25]]))
    assert all(j.c.dtype == np.float64 for j in v)
    assert (v[0] * 1j).c.dtype == np.complex128
    # a real jet times a complex one keeps the imaginary part and equals the
    # complex-by-complex product of the same values bitwise
    real = (v[0] * v[1] + 2.0).exp()
    cplx = (v[0] * 1j + v[1]).exp()
    widened = Jet(real.space, real.c.astype(complex))
    assert np.array_equal((real * cplx).c, (widened * cplx).c)
    assert np.array_equal((cplx * real).c, (cplx * widened).c)
    sp = v[0].space
    live = np.array([True, False, True])
    j = Jet.piecewise(sp, live, lambda m: (v[0] * 1j).columns(m).exp())
    assert j.c.dtype == np.complex128 and np.array_equal(j.c[:, live], (v[0] * 1j).columns(live).exp().c)
    none = Jet.piecewise(sp, np.zeros(3, bool), lambda m: (v[0] * 1j).columns(m))
    assert none.c.dtype == np.float64 and not np.any(none.c)


def test_sqrt_power_log_reject_complex_jets():
    # positive values with a zero imaginary part are still complex
    v = jet_variables(2, np.array([[1.0, 4.0]]))[0] * (1 + 0j)
    for f in (Jet.sqrt, lambda j: j.power(0.5), Jet.log):
        with pytest.raises(ValueError):
            f(v)
