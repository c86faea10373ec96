import hashlib
import math

import mpmath
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


def _pair_table_product(a, b):
    """The product as the pair table writes it: one np.sum over the pairs of
    each output row, on operands broadcast to one batch."""
    ca, cb = np.broadcast_arrays(a.c, b.c)
    out = np.empty(ca.shape, np.result_type(ca, cb))
    for k, (ia, ib) in enumerate(a.space.prod):
        out[k] = np.sum(ca[ia] * cb[ib], axis=0)
    return out


def _signed_zero_coeffs(rng, ncoef, batch, dtype):
    """Random coefficients with about a third of the entries (of each part)
    set to +0.0 or -0.0."""
    c = rng.normal(size=(ncoef, batch))
    if dtype is complex:
        c = c + 1j * rng.normal(size=c.shape)
    for part in (c.real, c.imag) if dtype is complex else (c,):
        z = rng.random(part.shape) < 0.35
        part[z] = np.copysign(0.0, rng.normal(size=int(z.sum())))
    return c


@pytest.mark.parametrize("nvars", [1, 2, 7, 8])
def test_product_matches_pair_table_bitwise(nvars):
    """Jet * Jet equals the pair-table product byte for byte, signed zeros
    included, for every dtype mix and for a batch-1 operand on either side."""
    rng = np.random.default_rng(40 + nvars)
    B = 23
    for order in range(5):
        space = jet_space(nvars, order)
        for da, db in ((float, float), (float, complex), (complex, float), (complex, complex)):
            for ba, bb in ((B, B), (1, B), (B, 1)):
                a = Jet(space, _signed_zero_coeffs(rng, space.ncoef, ba, da))
                b = Jet(space, _signed_zero_coeffs(rng, space.ncoef, bb, db))
                got = (a * b).c
                want = _pair_table_product(a, b)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (order, da, db, ba, bb)


# -- the compositions as Horner's rule wrote them -----------------------------


def _horner_compose(u, series):
    """f(u) as Horner's rule in u - u0 over f's univariate Taylor series
    (shape (order+1, batch)), one full product per order."""
    du = Jet(u.space, u.c.copy())
    du.c[0] = 0.0
    res = Jet.constant(u.space, series[u.order])
    for j in range(u.order - 1, -1, -1):
        res = res * du
        res.c[0] += series[j]
    return res


def _series_exp(u0, order):
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = np.exp(u0)
    for j in range(1, order + 1):
        out[j] = out[j - 1] / j
    return out


def _series_sincos(u0, order, shift):
    s, c = np.sin(u0), np.cos(u0)
    cyc = [s, c, -s, -c]
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    for j in range(order + 1):
        out[j] = cyc[(j + shift) % 4] / math.factorial(j)
    return out


def _series_power(u0, order, p):
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = np.power(u0, p)
    for j in range(1, order + 1):
        out[j] = out[j - 1] * (p - (j - 1)) / (j * u0)
    return out


def _series_recip(u0, order):
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = 1.0 / u0
    for j in range(1, order + 1):
        out[j] = -out[j - 1] / u0
    return out


def _series_log(u0, order):
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = np.log(u0)
    for j in range(1, order + 1):
        out[j] = (-1.0) ** (j - 1) / (j * np.power(u0, j))
    return out


# name: (the Jet method, its Taylor series, the dtypes it is checked in)
COMPOSITIONS = {
    "exp": (Jet.exp, _series_exp, (float, complex)),
    "sin": (Jet.sin, lambda u0, n: _series_sincos(u0, n, 0), (float, complex)),
    "cos": (Jet.cos, lambda u0, n: _series_sincos(u0, n, 1), (float, complex)),
    "sqrt": (Jet.sqrt, lambda u0, n: _series_power(u0, n, 0.5), (float,)),
    "power(-1.5)": (lambda j: j.power(-1.5), lambda u0, n: _series_power(u0, n, -1.5), (float,)),
    "recip": (Jet.recip, _series_recip, (float, complex)),
    "log": (Jet.log, _series_log, (float,)),
}
POSITIVE = ("sqrt", "power(-1.5)", "log")


@pytest.mark.parametrize("name", list(COMPOSITIONS))
def test_compositions_match_horner(name):
    """Every composition equals Horner's rule byte for byte on the rows of
    degree <= 1, and to 1e-14 of each column's largest coefficient above."""
    method, series, dtypes = COMPOSITIONS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    B = 29
    for nvars in (1, 2, 7):
        for order in range(5):
            space = jet_space(nvars, order)
            n1 = min(space.ncoef, nvars + 1)
            for dtype in dtypes:
                c = _signed_zero_coeffs(rng, space.ncoef, B, dtype)
                if name in POSITIVE:
                    c[0] = rng.uniform(0.5, 3.0, size=B)
                elif dtype is complex:
                    c[0] = rng.normal(size=B) + 1j * rng.normal(size=B)
                else:
                    c[0] = rng.normal(size=B)
                if name in ("exp", "sin", "cos") and dtype is float:
                    # An order-0 jet is its value row, 0.0 + f(u0), which
                    # turns sin(-0.0) = -0.0 into +0.0, as every order >= 1
                    # (Horner's included) does; Horner's order-0 constant
                    # kept -0.0.  So sin's order-0 inputs hold only +0.0.
                    c[0, :2] = (0.0, 0.0 if (name, order) == ("sin", 0) else -0.0)
                u = Jet(space, c)
                got = method(u).c
                want = _horner_compose(u, series(u.value, order)).c
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got[:n1].tobytes() == want[:n1].tobytes(), (nvars, order, dtype)
                scale = np.max(np.abs(want), axis=0)
                dev = np.max(np.abs(got[n1:] - want[n1:]), axis=0, initial=0.0)
                assert np.all(dev <= 1e-14 * scale), (nvars, order, dtype, np.max(dev / scale))


def test_compositions_match_sympy_at_order_4():
    """All seven compositions of a cubic in two variables, every partial to
    order 4, against sympy's exact derivatives at 30 digits."""
    xs, ys = sp.symbols("x y")
    # dyadic coefficients and points, so the jets' inputs are exact floats
    terms = {(0, 0): 1.5, (1, 0): 0.375, (0, 1): -0.25, (2, 0): 0.3125, (1, 1): 0.125,
             (0, 2): -0.1875, (3, 0): 0.0625, (1, 2): -0.09375, (0, 3): 0.15625}
    pts = np.array([[0.25, -0.75, 0.5, 1.0], [-0.5, 0.5, 0.75, -1.25]])
    inner = sum(sp.Rational(c) * xs**i * ys**j for (i, j), c in terms.items())
    v = jet_variables(4, pts)
    u = sum(c * v[0].ipow(i) * v[1].ipow(j) for (i, j), c in terms.items())
    assert np.all((u.value > 0.5) & (u.value < 3.0))
    funcs = {
        "exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "sqrt": sp.sqrt,
        "power(-1.5)": lambda e: e ** sp.Rational(-3, 2), "recip": lambda e: 1 / e,
        "log": sp.log,
    }
    for name, f in funcs.items():
        jet = COMPOSITIONS[name][0](u)
        for gamma in jet.space.indices:
            dsym = sp.lambdify((xs, ys), sp.diff(f(inner), xs, gamma[0], ys, gamma[1]), "mpmath")
            with mpmath.workdps(30):
                want = np.array([float(dsym(mpmath.mpf(px), mpmath.mpf(py))) for px, py in pts.T])
            got = jet.partial(gamma)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (name, gamma)


def test_sin_cos_order_zero_are_numpys():
    """Order-0 sin and cos are np.sin and np.cos of the values, byte for
    byte, from the +0.0 every jet row starts at (so -0.0 reads +0.0)."""
    rng = np.random.default_rng(78)
    space = jet_space(7, 0)
    for dtype in (float, complex):
        u = Jet(space, _signed_zero_coeffs(rng, 1, 1000, dtype))
        for method, fn in ((Jet.sin, np.sin), (Jet.cos, np.cos)):
            got, want = method(u).c, fn(u.c)
            assert got.dtype == u.c.dtype
            assert got.tobytes() == (0.0 + want).tobytes()
            nonzero = (want.real != 0) & (want.imag != 0) if dtype is complex else want != 0
            assert got[nonzero].tobytes() == want[nonzero].tobytes()


def test_sin_cos_pinned():
    """sin and cos at orders 0 to 3, real and complex, signed zeros
    included, byte for byte as the version that filled the partner's every
    row at every order."""
    rng = np.random.default_rng(77)
    h = hashlib.sha256()
    for nvars in (1, 3):
        for order in range(4):
            space = jet_space(nvars, order)
            for dtype in (float, complex):
                u = Jet(space, _signed_zero_coeffs(rng, space.ncoef, 17, dtype))
                for method in (Jet.sin, Jet.cos):
                    out = method(u).c
                    h.update(str(out.dtype).encode() + out.tobytes())
    assert h.hexdigest() == "46e68ea185d6ba366e23e94fac75bd2f80379010c8de9454583c6295aecd4fce"
