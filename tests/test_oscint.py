import math

import numpy as np
import pytest

from sgosc.catalog import gaussian_amplitude, sep_power_phase
from sgosc.oscint import (
    MAX_NODES_PER_CALL,
    IntegrabilityError,
    NonConvergenceError,
    SchwartzFn,
    adaptive_tensor,
    choose_r,
    direct_quadrature,
    eval_pairing,
    eval_pointwise,
    make_osc_integral,
)
from sgosc.phase import check_admissible
from sgosc.symbols import constant_symbol


@pytest.fixture(scope="module")
def bracket_phase():
    phi = sep_power_phase(1, 1)
    check_admissible(phi)
    return phi


@pytest.fixture(scope="module")
def gauss_pair():
    return gaussian_amplitude(1, 1), SchwartzFn.gaussian(1)


def test_choose_r_examples():
    assert choose_r((-math.inf, -math.inf), (1, 1), 1, 1) == 0
    assert choose_r((0, 0), (1, 1), 1, 1) == 3
    assert choose_r((2, 1), (1, 1), 1, 1) == 5


def test_zero_amplitude_gives_zero(bracket_phase, gauss_pair):
    _, f = gauss_pair
    zero = constant_symbol(1, 1, 0.0).with_order((-math.inf, -math.inf))
    I = make_osc_integral(bracket_phase, zero, r=1, box=(6, 6))
    assert abs(eval_pairing(I, f).value) < 1e-12


def test_linearity(bracket_phase, gauss_pair):
    a, f = gauss_pair
    a2 = a * (0.5 + 0.25j)
    I1 = make_osc_integral(bracket_phase, a, r=1, box=(8, 8), tol=1e-9)
    I2 = make_osc_integral(bracket_phase, a2, r=1, box=(8, 8), tol=1e-9)
    Isum = make_osc_integral(bracket_phase, a + a2, r=1, box=(8, 8), tol=1e-9)
    v1 = eval_pairing(I1, f).value
    v2 = eval_pairing(I2, f).value
    vs = eval_pairing(Isum, f).value
    assert abs(vs - (v1 + v2)) < 1e-9 * (1 + abs(vs))


def test_pairing_matches_direct_oracle(bracket_phase, gauss_pair):
    a, f = gauss_pair
    oracle = direct_quadrature(bracket_phase, a, f, box=(9, 9), tol=1e-10)
    vals = {}
    for r in (1, 2, 3):
        I = make_osc_integral(bracket_phase, a, r=r, box=(9, 9), tol=1e-8)
        vals[r] = eval_pairing(I, f).value
        assert abs(vals[r] - oracle.value) <= 1e-6 * (1 + abs(oracle.value))
    for r in (1, 2):
        assert abs(vals[r] - vals[r + 1]) <= 1e-7 * (1 + abs(vals[r]))


def test_direct_quadrature_box_doubling(bracket_phase, gauss_pair):
    a, f = gauss_pair
    v1 = direct_quadrature(bracket_phase, a, f, box=(8, 8), tol=1e-10).value
    v2 = direct_quadrature(bracket_phase, a, f, box=(16, 16), tol=1e-10).value
    assert abs(v1 - v2) < 1e-8 * (1 + abs(v1))


def test_direct_quadrature_conjugation(bracket_phase, gauss_pair):
    from sgosc.phase import PhaseFn

    a, f = gauss_pair
    neg = PhaseFn(bracket_phase.symbol * (-1.0), (1, 1))
    check_admissible(neg)
    v = direct_quadrature(bracket_phase, a, f, box=(8, 8), tol=1e-10).value
    vneg = direct_quadrature(neg, a, f, box=(8, 8), tol=1e-10).value
    assert abs(vneg - np.conj(v)) < 1e-8 * (1 + abs(v))


def test_direct_quadrature_rejects_nonintegrable(bracket_phase, gauss_pair):
    _, f = gauss_pair
    one = constant_symbol(1, 1, 1.0)
    with pytest.raises(IntegrabilityError):
        direct_quadrature(bracket_phase, one, f)


def test_osc_integral_records_margin(bracket_phase):
    one = constant_symbol(1, 1, 1.0)
    with pytest.raises(IntegrabilityError):
        make_osc_integral(bracket_phase, one, r=2)
    I = make_osc_integral(bracket_phase, one, r="auto")
    assert I.r == 3
    assert min(I.integrable_margin) > 0


def test_eval_pointwise_oracle_and_q_independence(bracket_phase, gauss_pair):
    a, _ = gauss_pair
    I = make_osc_integral(bracket_phase, a, r=0, box=(8, 8))
    v0 = eval_pointwise(I, 1.0, k=0)

    def integ(K):
        X = np.full((1, K.shape[1]), 1.0)
        return np.exp(1j * bracket_phase.value(X, K)) * a.value(X, K)

    oracle, _, _ = adaptive_tensor(integ, [-14], [14], tol_abs=1e-13, tol_rel=1e-12)
    assert abs(v0 - oracle) < 1e-8 * (1 + abs(oracle))
    v2 = eval_pointwise(I, 1.0, k=2)
    assert abs(v0 - v2) <= 1e-7 * (1 + abs(v0))
    assert abs(eval_pointwise(I, 0.0, k=0) - eval_pointwise(I, 0.0, k=2)) < 1e-7


def test_pointwise_zero_amplitude(bracket_phase):
    zero = constant_symbol(1, 1, 0.0).with_order((-math.inf, -math.inf))
    I = make_osc_integral(bracket_phase, zero, r=0)
    assert abs(eval_pointwise(I, 0.3, k=0)) < 1e-13


def test_schwartz_seminorms_finite():
    f = SchwartzFn.gaussian(1)
    vals = [f.rho(p) for p in range(0, 5)]
    assert all(np.isfinite(v) for v in vals)
    assert vals == sorted(vals)


def test_continuity_estimate_single_constant(bracket_phase):
    # |<I(a_j), f>| <= C ||a_j||_q rho_r(f) with one fitted C over a family
    f = SchwartzFn.gaussian(1)
    from sgosc.symbols import SymbolFn, seminorm_estimate
    from sgosc.jets import norm2_jet

    def scaled_gauss(s):
        def jet_fn(xj, kj):
            return (-(norm2_jet(xj) + norm2_jet(kj)) * (1.0 / s**2)).exp()

        return SymbolFn(1, 1, (0.0, 0.0), jet_fn, f"gauss{s}")

    rho = f.rho(3)
    ratios = []
    for s in (0.8, 1.0, 1.3, 1.7):
        a = scaled_gauss(s)
        I = make_osc_integral(bracket_phase, a, r=3, box=(8, 8), tol=1e-7)
        val = abs(eval_pairing(I, f).value)
        norm = seminorm_estimate(a, (0, 0), max_order=2).max_value
        ratios.append(val / (norm * rho))
    # one constant covers the whole family, and it is tight within a small
    # factor (the bound does not degenerate across the widths)
    C = max(ratios[2:])
    assert all(r <= 1.2 * C for r in ratios)
    assert C <= 10.0 * min(ratios)


def test_nonconvergence_diagnostic():
    def nasty(X):
        return np.cos(200.0 * X[0] ** 2)

    def worst_cells():
        with pytest.raises(NonConvergenceError) as ei:
            adaptive_tensor(nasty, [-6], [6], tol_abs=1e-14, tol_rel=1e-14, max_cells=40)
        diag = ei.value.diagnostic
        assert diag["cells"] == 40
        return diag, diag["worst_cells"]

    diag, worst = worst_cells()
    assert len(worst) == 5
    for c in worst:
        assert set(c) == {"lo", "hi", "value_re", "value_im", "error"}
        assert -6.0 <= c["lo"][0] < c["hi"][0] <= 6.0
        assert c["value_im"] == 0.0
    errors = [c["error"] for c in worst]
    assert errors == sorted(errors, reverse=True)
    assert sum(errors) <= diag["error"]
    # the cells are disjoint, and a second run reports the same ones
    spans = sorted((c["lo"][0], c["hi"][0]) for c in worst)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    assert worst_cells()[1] == worst


# inf - inf in the Kronrod-Gauss difference is the expected numpy warning
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_integrand_fails_fast(bad):
    calls = []

    def f(X):
        calls.append(X.shape[1])
        out = np.exp(-X[0] ** 2)
        out[7] = bad
        return out

    with pytest.raises(NonConvergenceError, match="non-finite") as ei:
        adaptive_tensor(f, [-4.0], [4.0], initial_splits=[3])
    assert len(calls) == 1
    # node 7 is the midpoint of the first cell
    assert ei.value.diagnostic["lo"] == [-4.0]
    assert ei.value.diagnostic["hi"][0] == pytest.approx(-4.0 / 3.0)


def test_adaptive_tensor_pinned():
    """Value, error and node count, bit for bit, so that the refinement
    order (worst first, older cell first on ties) and the summation order
    (left to right in creation order) cannot drift."""

    def pinned(f, lo, hi, tol, splits=None):
        v, e, n = adaptive_tensor(f, lo, hi, tol_abs=tol, tol_rel=tol, initial_splits=splits)
        v = complex(v)
        return v.real.hex(), v.imag.hex(), float(e).hex(), n

    assert pinned(lambda X: np.exp(-X[0] ** 2), [-10], [10], 1e-12) == (
        "0x1.c5bf891b4ef54p+0", "0x0.0p+0", "0x1.cb5c210e2ff26p-48", 690
    )
    # the initial cells' errors tie bitwise in mirror-image pairs
    assert pinned(lambda X: np.exp(-X[0] ** 2 - X[1] ** 2), [-5, -5], [5, 5], 1e-12) == (
        "0x1.921fb5443d7fep+1", "0x0.0p+0", "0x1.9b54d5a04e0f0p-39", 42300
    )
    gauss3 = lambda X: np.exp(-np.sum(X * X, axis=0))
    assert pinned(gauss3, [-3] * 3, [3] * 3, 1e-10, [3, 3, 3]) == (
        "0x1.645970a2fdd26p+2", "0x0.0p+0", "0x1.01cf416140000p-32", 901125
    )
    assert pinned(lambda X: np.exp(1j * X[0] * X[1]), [-3, -2], [3, 2], 1e-10, [5, 4]) == (
        "0x1.6cb852c7c49fcp+2", "-0x1.8000000000000p-51", "0x1.5d1c2fdee8ea7p-41", 4500
    )
    with pytest.raises(NonConvergenceError) as ei:
        adaptive_tensor(
            lambda X: np.cos(200.0 * X[0] ** 2), [-6], [6], tol_abs=1e-14, tol_rel=1e-14, max_cells=40
        )
    diag = ei.value.diagnostic
    assert diag["value_re"].hex() == "0x1.6c0d57aaa6e43p-4"
    assert diag["error"].hex() == "0x1.505cf8c111c8fp-1"


def test_quadrature_on_known_integral():
    val, err, _ = adaptive_tensor(
        lambda X: np.exp(-X[0] ** 2), [-10], [10], tol_abs=1e-12, tol_rel=1e-12
    )
    assert abs(val - math.sqrt(math.pi)) < 1e-10


def test_adaptive_tensor_caps_nodes_per_call():
    batches = []

    def gauss3(X):
        batches.append(X.shape[1])
        return np.exp(-np.sum(X * X, axis=0))

    val, _, nev = adaptive_tensor(
        gauss3, [-3.0] * 3, [3.0] * 3, tol_abs=1e-10, tol_rel=1e-10, initial_splits=[10] * 3
    )
    assert max(batches) <= MAX_NODES_PER_CALL
    assert sum(batches) == nev >= 1000 * 15**3
    assert abs(val - (math.sqrt(math.pi) * math.erf(3.0)) ** 3) < 1e-9
