import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from sgosc.compactify import CompactPoint, ball_distance, sphere_grid
from sgosc.synth import PrescribedWfSpec, make_fk, make_g, make_prescribed
from sgosc.wavefront import (
    LIVE_ROW_FLOOR,
    EvaluableDistribution,
    WfProtocol,
    _bilinear,
    _FourierContext,
    grid_sampled_distribution,
    octave_maxima,
    csp_scan,
    css_scan,
    fio_extension_guard,
    fit_decay_exponent,
    fourier_symmetry_check,
    pairing_predicate,
    wf_scan,
)
from sgosc.windows import (
    cone_aperture,
    cone_geometry,
    gaussian_window,
    logradial_window,
    radial_geometry,
)


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


def _fit_reference(scales, stats, floor_abs):
    """The one-profile decay fit with the SVD-based `np.polyfit` slope."""
    live = stats > floor_abs
    if len(scales) == 0 or not np.any(live):
        return math.inf
    needed = 2 if len(live) >= 5 else 1
    if len(live) > needed and not np.any(live[len(live) - needed :]):
        return math.inf
    sel = live.copy()
    sel[: len(scales) // 2] = False
    if np.count_nonzero(sel) < 2:
        sel = live
    if np.count_nonzero(sel) < 2:
        return math.nan
    return -np.polyfit(np.log(scales[sel]), np.log(stats[sel]), 1)[0]


def test_fit_decay_exponent_batched_rules():
    """A stack of profiles gets the one-profile rules row by row: a dead
    tail (the last two octaves, the last one when K < 5) gives inf, fewer
    than 2 live octaves NaN, fewer than 2 live in the upper half the fit over
    every live octave; the closed-form slope agrees with polyfit's."""
    floor = 1e-10
    scales = np.geomspace(1.0, 32.0, 6)
    lo, hi = 1e-12, 1.0
    rows = np.array(
        [
            [hi, hi, hi, hi, lo, lo],  # dead tail
            [lo] * 6,  # all dead
            [lo, lo, lo, lo, lo, hi],  # one live octave
            [1.0, 0.5, lo, lo, lo, 0.03],  # one live in the upper half
            [1.0, 0.5, 0.2, 0.1, 0.04, 0.03],
        ]
    )
    got = fit_decay_exponent(scales, rows, floor)
    assert got.shape == (5,)
    assert got[0] == got[1] == math.inf and math.isnan(got[2])
    want = _fit_reference(scales, rows[3], floor)
    assert got[3] == pytest.approx(want, rel=1e-13) and got[3] > 0
    for row, N in zip(rows, got):
        one = fit_decay_exponent(scales, row, floor)
        assert isinstance(one, float) and one == N or (math.isnan(one) and math.isnan(N))
    # K < 5: only the last octave has to be live
    short = np.geomspace(1.0, 8.0, 4)
    got = fit_decay_exponent(short, np.array([[1.0, 0.5, 0.2, lo], [1.0, lo, 0.2, 0.1]]), floor)
    assert got[0] == math.inf
    assert got[1] == pytest.approx(_fit_reference(short, np.array([1.0, lo, 0.2, 0.1]), floor), rel=1e-13)
    assert fit_decay_exponent(np.empty(0), np.empty(0), floor) == math.inf
    # random live rows, with and without dead octaves, against polyfit
    rng = np.random.default_rng(7)
    for K in (3, 4, 5, 6, 9, 12):
        sc = np.geomspace(0.7, 0.7 * 2.0 ** (K - 1), K)
        stack = np.exp(rng.uniform(-20.0, 2.0, (40, K)))
        stack[rng.random((40, K)) < 0.2] = 1e-14
        got = fit_decay_exponent(sc, stack, floor)
        want = np.array([_fit_reference(sc, row, floor) for row in stack])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-13 * np.abs(want[fin]) + 1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_decay_exponent_refuses_non_finite_stats(bad):
    """NaN > floor is False, so a NaN stat would read as a dead octave."""
    scales = np.geomspace(1.0, 32.0, 6)
    stats = np.array([[1.0, 0.5, 0.2, 0.1, 0.04, 0.03]] * 3)
    stats[1, 4] = bad
    with pytest.raises(ValueError, match=r"non-finite stat .* at index \(1, 4\)"):
        fit_decay_exponent(scales, stats, 1e-10)
    with pytest.raises(ValueError, match=r"at index \(4,\)"):
        fit_decay_exponent(scales, stats[1], 1e-10)


def test_css_scan_refuses_a_nan_value(proto1d):
    u = EvaluableDistribution(
        1,
        lambda X: np.where(X[0] > 10.0, np.nan, np.exp(-0.5 * X[0] ** 2)).astype(complex),
        source="nan beyond 10",
    )
    with pytest.raises(ValueError, match="non-finite stat"):
        css_scan(u, proto1d)


def test_wf_scan_refuses_a_nan_sample():
    """A NaN sample made every cell regular (NaN > floor is False); now the
    grid distribution refuses it when built, naming its index (the
    interpolation would spread it to 4 grid points).  The clean noise reads
    20 singular and 4 margin cells."""
    v = np.random.default_rng(0).standard_normal((64, 64))
    proto = WfProtocol.make(
        2, box=16.0, ngrid=64, n_dirs=4, classical_centers=[(0.0, 0.0)], finite_q=[(0.0, 0.0)]
    )
    wf = wf_scan(grid_sampled_distribution(v, 16.0), proto)
    assert [len(wf.singular()), len(wf.singular(True)), len(wf.cells)] == [20, 24, 24]
    v[10, 10] = np.nan
    with pytest.raises(ValueError, match=r"noise is not finite: .* at sample \(10, 10\), the first of 1 "):
        grid_sampled_distribution(v, 16.0, source="noise")


def test_wf_scan_refuses_a_nan_on_the_scan_grid():
    """An evaluator that is NaN at one scan-grid point is named there."""
    proto = WfProtocol.make(
        2, box=16.0, ngrid=64, n_dirs=4, classical_centers=[(0.0, 0.0)], finite_q=[(0.0, 0.0)]
    )

    def evaluator(X):
        return np.where(np.all(X == -11.25, axis=0), np.nan, 1.0)

    u = EvaluableDistribution(2, evaluator, source="holed")
    with pytest.raises(ValueError, match=r"holed is not finite .* x = \(-11\.25, -11\.25\), the first of 1 "):
        wf_scan(u, proto)


def test_wf_scan_refuses_a_nan_written_into_grid_samples():
    """A complex sample array is kept, not copied, so a NaN written into it
    after the build reaches the scan, which reads the samples directly on
    their own grid and refuses it there."""
    v = np.ones((64, 64), dtype=complex)
    u = grid_sampled_distribution(v, 16.0)
    v[10, 10] = np.nan
    proto = WfProtocol.make(2, box=16.0, ngrid=64, n_dirs=4, classical_centers=[(0.0, 0.0)])
    with pytest.raises(ValueError, match=r"grid is not finite .* x = \(-10\.75, -10\.75\), the first of 1 "):
        wf_scan(u, proto)


def test_grid_sampled_distribution_reads_its_last_row_and_column():
    """The evaluator kept only cells 0 <= i0 < n - 1, so row 7 and column 7
    of this 8x8 grid read 0 at their own sample points."""
    n, L = 8, 4.0
    v = np.arange(1.0, n * n + 1.0).reshape(n, n)
    u = grid_sampled_distribution(v, L)
    x = -L + (np.arange(n) + 0.5) * (2.0 * L / n)
    X = np.stack(np.meshgrid(x, x, indexing="ij")).reshape(2, -1)
    assert np.array_equal(u.values(X).reshape(n, n), v)
    # past the last sample, as before the first, it is zero
    assert np.array_equal(u.values(np.array([[x[-1] + 0.1, x[0] - 0.1], [0.0, 0.0]])), [0, 0])


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64)])
def test_wf_scan_reads_grid_samples_on_their_own_grid(d, n):
    """On its own grid (dx = 2L/n a power of 2, so the interpolation reads
    each sample exactly), a grid-sampled distribution is scanned from its
    samples without evaluating it, bit for bit as the same evaluator
    without samples.  On another ngrid or box it is still interpolated."""
    L = 16.0
    u = grid_sampled_distribution(_random_grid(d, n, True), L)
    evaluated = []
    interpolate = u.evaluator

    def evaluator(X):
        evaluated.append(X.shape[1])
        return interpolate(X)

    u.evaluator = evaluator
    plain = EvaluableDistribution(d, evaluator, source="grid")
    assert plain.grid is None
    proto = WfProtocol.make(d, box=L, ngrid=n, n_dirs=4, classical_centers=[(0.0,) * d])
    assert _wf_digest(wf_scan(u, proto)) == _wf_digest(wf_scan(plain, proto))
    assert evaluated == [n**d]
    for other in (proto.replace(ngrid=2 * n), proto.replace(box=2 * L)):
        evaluated.clear()
        assert _wf_digest(wf_scan(u, other)) == _wf_digest(wf_scan(plain, other))
        assert evaluated == [other.ngrid**d] * 2


@pytest.mark.parametrize("shape", [(3, 4), (1, 1), (1,), (8, 1), ()])
def test_grid_sampled_distribution_refuses_grids_it_would_misread(shape):
    """The evaluator takes n from the first axis for every axis and
    interpolates between neighbours: a (3, 4) grid of ones read 0 at 8 of
    its 12 sample points, and a one-sample grid read 0 at its own sample."""
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        grid_sampled_distribution(np.ones(shape), 4.0)


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


def _label_digest(wf):
    """SHA-256 over every cell's (kind, y, q, label): the scan's decisions
    without the fitted exponents' last bits."""
    h = hashlib.sha256()
    for c in wf.cells:
        h.update(f"{c.kind} {c.y.coords} {c.q.coords} {c.label}\n".encode())
    return h.hexdigest()


def test_wf_scan_pinned(proto1d, gtrain):
    """Bitwise pins of two scans: the 1-D g-train and a 2-D prescribed wave
    front (criterion 4's spec at 256^2, 8 directions) with classical, e and
    corner cells.  The label digests are those of the SVD-based polyfit
    slopes, which the closed-form fit moved only in the last bits of N."""
    wf1 = wf_scan(gtrain, proto1d)
    assert _wf_digest(wf1) == "a8277f0e7885b00478886402f601439983612cdd0905b599ea6c0d28733d4e6f"
    assert _label_digest(wf1) == (
        "dc2804110620e6e9ae7df0bde038e14cf0a102d232ffb89ece709837df46e8ec"
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
    assert _wf_digest(wf2) == "1ef5d56131c60406ce71cf86032067006a93e6c8bb4dc87e15224b63f8da9410"
    assert _label_digest(wf2) == (
        "3e0b61b6f2e1232f801a169fd8f1da51ec20bf4ffc23d121fea58f7165ea2ed1"
    )


def _prescribed_2d(ngrid, finite_q):
    """Criterion 4's prescribed wave front on a 2-D protocol of 8 directions
    at box 16 (the 2-D scan of `test_wf_scan_pinned` at ngrid 256)."""
    dirs = sphere_grid(2, 16)
    spec = PrescribedWfSpec(asymptotic=[(dirs[2], dirs[5]), (dirs[9], dirs[13])])
    proto = WfProtocol.make(
        2,
        box=16.0,
        ngrid=ngrid,
        n_dirs=8,
        rho_max_frac=0.7,
        classical_centers=[(0.0, 0.0)],
        finite_q=finite_q,
        floor=3e-6,
    )
    return make_prescribed(spec, 2, K_max=2), proto


def test_wf_scan_pinned_odd_grid_and_1d_4096():
    """Bitwise pins of two more scans: the 2-D prescribed scan at the odd
    ngrid 255, with a finite covariable in the last lattice cell of axis 0
    and the first of axis 1 (the lattice is +-24.936 in steps of 0.196), and
    the CLI's 1-D `wf-scan` of the catalog g-train (K_max 3) at ngrid 4096
    with its other defaults (box 64, 2 directions, the {-2..2} lattices)."""
    u, proto = _prescribed_2d(255, [(0.0, 0.0), (1.0, 0.0), (24.85, -24.9)])
    wf2 = wf_scan(u, proto)
    assert _wf_digest(wf2) == "ca59cbba7a26c811a30d095c18b2105c54ccae1edc0a56b3c1f06008012b9fe9"
    assert _label_digest(wf2) == (
        "14ce745dd805189cdf3bbda5f7e368d5fc10b60e3114ffc27c1c2d086471b39c"
    )
    proto1 = WfProtocol.make(1, box=64.0, ngrid=4096, n_dirs=2)
    wf1 = wf_scan(make_g([1.0], [1.0], K_max=3), proto1)
    assert _wf_digest(wf1) == "3e7e5043da5836843de840e98a0b06dcb0d6cc7dc62a08971a3ae759360dcfe7"
    assert _label_digest(wf1) == (
        "4ed994e4fa364b5f2fecf6d5850766637fdd4a84339fb6611c1f0117ef234f59"
    )


def _random_grid(d, n, complex_u, seed=5):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n,) * d)
    if complex_u:
        vals = vals + 1j * rng.standard_normal((n,) * d)
    return vals


@pytest.mark.parametrize(
    "d, n, complex_u",
    [(1, 2048, False), (1, 1023, True), (2, 64, False), (2, 63, False), (2, 64, True), (2, 63, True)],
)
def test_windowed_magnitudes_equal_full_transform(d, n, complex_u):
    """The pruned probe magnitudes equal, bit for bit, the full transform:
    fftn, fftshift, abs scaled by dx^d / mass, then `_bilinear` at each
    probe's lattice cell, with probes inside, on and at the ends of the
    lattice.  The windows include a narrow off-centre gaussian, whose rows
    far from its centre are nonzero but below the live-row floor, and an
    all-zero window."""
    L = 8.0
    u = grid_sampled_distribution(_random_grid(d, n, complex_u), L)
    lattice = [tuple([0.0] * d)] if d == 1 else [(0.0, 0.0), (0.3, -0.7)]
    proto = WfProtocol.make(d, box=L, ngrid=n, n_dirs=8, finite_q=lattice)
    freqs = proto.frequency_lattice()
    rng = np.random.default_rng(1)
    ends = [freqs[0], freqs[-1], 0.5 * (freqs[-2] + freqs[-1]), 0.5 * (freqs[0] + freqs[1])]
    probes = np.hstack(
        [
            rng.uniform(freqs[0], freqs[-1], (d, 200)),
            np.array(list(itertools.product(ends, repeat=d))).T,
            np.outer(np.ones(d), freqs[::7]),
        ]
    )
    ctx = _FourierContext(u, proto, probes)
    t = (probes - freqs[0]) / (freqs[1] - freqs[0])
    i0 = np.clip(np.floor(t).astype(int), 0, n - 2)
    fr = np.clip(t - i0, 0.0, 1.0)
    dx = proto.dx
    geom = cone_geometry(radial_geometry(ctx.X), sphere_grid(d, 8)[1])
    narrow = gaussian_window(ctx.X, (2.0,) * d, 0.3)
    if d == 2:
        rowmax = narrow.reshape(n, n).max(axis=1)
        dead = rowmax <= LIVE_ROW_FLOOR * rowmax.max()
        assert 0 < np.count_nonzero(dead) < n and np.all(rowmax > 0)
    windows = [
        gaussian_window(ctx.X, lattice[-1], 0.5),
        logradial_window(cone_aperture(geom, 0.35), 4.0, 0.3),
        narrow,
        np.zeros(n**d),
    ]
    for w in windows:
        mass = float(np.sum(np.abs(w))) * dx**d + 1e-300
        W = np.fft.fftshift(np.fft.fftn((w * ctx.uvals).reshape((n,) * d)))
        reference = _bilinear(np.abs(W) * dx**d / mass, i0, fr)
        got = ctx.windowed_abs(w)
        assert got.shape == (probes.shape[1],)
        assert np.array_equal(got, reference)


def test_wf_scan_transforms_only_probed_columns(monkeypatch):
    """Work guard on the 256^2 pinned protocol: each window's axis-1 pass
    covers only its band of live rows, its axis-0 pass only the columns
    that the probes' stencils touch, and no window transforms or shifts the
    full grid in one call.  The bands hold 14 476 of the 76 windows' 19 456
    rows, 48 to 256 rows each."""
    u, proto = _prescribed_2d(256, [(0.0, 0.0), (1.0, 0.0)])
    n = proto.ngrid
    rho = proto.rho_dense()
    probes = np.hstack(
        [np.outer(np.asarray(qd), rho) for qd in proto.q_dirs]
        + [np.asarray(q, dtype=float)[:, None] for q in proto.finite_q]
    )
    freqs = proto.frequency_lattice()
    i1 = np.clip(np.floor((probes[1] - freqs[0]) / (freqs[1] - freqs[0])).astype(int), 0, n - 2)
    touched = np.unique(np.concatenate([i1, i1 + 1]) - n // 2) % n
    assert 0 < touched.size < n

    calls = []
    fft = np.fft.fft

    def recording(name, f):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs.get("axis", -1)))
            return f(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "fft", recording("fft", fft))
    monkeypatch.setattr(np.fft, "fftn", recording("fftn", np.fft.fftn))
    monkeypatch.setattr(np.fft, "fftshift", recording("fftshift", np.fft.fftshift))
    wf = wf_scan(u, proto)
    assert _wf_digest(wf) == "1ef5d56131c60406ce71cf86032067006a93e6c8bb4dc87e15224b63f8da9410"
    assert _label_digest(wf) == "3e0b61b6f2e1232f801a169fd8f1da51ec20bf4ffc23d121fea58f7165ea2ed1"

    n_windows = len(proto.sigmas) * len(proto.classical_centers) + 3 * len(proto.x_dirs) * len(
        proto.r_values()
    )
    assert n_windows == 76
    full = [c for c in calls if c[0] != "fft" and np.prod(c[1]) >= n * n]
    assert full == []
    bands = [c[1][0] for c in calls if c[0] == "fft" and c[2] == 1 and c[1][1:] == (n,)]
    cols = [c for c in calls if c == ("fft", (n, touched.size), 0)]
    assert len(bands) == len(cols) == n_windows
    assert len([c for c in calls if c[0] == "fft"]) == 2 * n_windows
    assert (sum(bands), min(bands), max(bands)) == (14476, 48, 256)


@pytest.mark.parametrize(
    "d, bad",
    [
        (1, {"rho_max_frac": -1.0}),
        (1, {"rho_max_frac": 0.0}),
        (1, {"rho_max_frac": 1.0}),
        (1, {"rho_max_frac": 2.0}),
        (1, {"rho_max_frac": math.nan}),
        (1, {"finite_q": ((100.0,),)}),
        (1, {"finite_q": ((0.0, 0.0),)}),
        (2, {"finite_q": ((100.0, 0.0),)}),  # Nyquist 25.1 at box 16, ngrid 256
        (2, {"finite_q": ((0.0, math.nan),)}),
    ],
)
def test_protocol_rejects_unmeasurable_covariables(d, bad):
    """A probe range past the Nyquist frequency, or a finite covariable off
    the frequency lattice, would read clipped edge values: refused."""
    base = WfProtocol.make(d, box=64.0 if d == 1 else 16.0, ngrid=2048 if d == 1 else 256)
    with pytest.raises(ValueError, match=next(iter(bad))):
        base.replace(**bad)


@pytest.mark.parametrize("rho_lo", [40.0, 0.7 * math.pi / (128.0 / 2048)])
def test_protocol_refuses_rho_lo_at_or_above_the_probe_top(rho_lo):
    """At box 64, ngrid 2048 the probes stop at 0.7 * nyquist = 35.19; a
    rho_lo there or above would run them downward."""
    with pytest.raises(ValueError, match=r"rho_lo (40\.0|35\.18).* = 35\.18"):
        WfProtocol.make(1, box=64.0, ngrid=2048, n_dirs=2, rho_lo=rho_lo)
    assert WfProtocol.make(1, box=64.0, ngrid=2048, n_dirs=2, rho_lo=35.0).rho_dense()[-1] > 35.0


def test_octave_maxima_equals_loop_reference():
    """The one-pass octave maxima equal the per-octave loop's bit for bit,
    on sorted and shuffled scales, with empty octaves and partly covered
    trailing octaves."""

    def reference(scales, values, lo):
        smax = scales.max()
        n_oct = int(math.ceil(math.log2(max(smax / lo, 1.0 + 1e-9))))
        cents, maxes = [], []
        for j in range(n_oct):
            a, b = lo * 2.0**j, lo * 2.0 ** (j + 1)
            mask = (scales >= a) & (scales < b)
            if not np.any(mask):
                continue
            if smax < b and math.log(max(smax / a, 1.0)) / math.log(2.0) < 0.45:
                continue
            cents.append(math.sqrt(a * b))
            maxes.append(float(values[mask].max()))
        return np.asarray(cents), np.asarray(maxes)

    rng = np.random.default_rng(3)
    cases = [(np.geomspace(0.5, 70.0, 120), 0.5), (np.arange(1.0, 9.0), 4.0)]
    for top in (1.3, 1.4, 1.5, 2.0, 3.9, 4.0, 300.0):
        cases.append((np.geomspace(1.0, top, 40), 1.0))
    cases.append((np.concatenate([[0.6, 0.7], np.geomspace(5.0, 40.0, 9)]), 0.5))
    cases.append((rng.permutation(np.geomspace(0.5, 90.0, 77)), 0.5))
    cases.append((np.array([0.1, 0.2]), 0.5))
    for scales, lo in cases:
        values = rng.standard_normal(scales.size)
        got = octave_maxima(scales, values, lo)
        want = reference(scales, values, lo)
        assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # a stack of profiles over the same scales: each row is its own call
        stack = rng.standard_normal((5, scales.size))
        cents, maxes = octave_maxima(scales, stack, lo)
        assert maxes.shape == (5, want[0].size) and np.array_equal(cents, want[0])
        for row, m in zip(stack, maxes):
            single = octave_maxima(scales, row, lo)[1]
            assert m.tobytes() == single.tobytes() == reference(scales, row, lo)[1].tobytes()


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


@pytest.mark.parametrize(
    "bad",
    [
        {"x_dirs": ((0.0, 0.0),)},  # no direction: failed only after its FFTs
        {"x_dirs": ((math.nan, 1.0),)},  # read as regular cells with N = inf
        {"x_dirs": ((1.0, math.inf),)},
        {"x_dirs": ((1.0,),)},
        {"q_dirs": ((0.0, 1.0, 0.0),)},  # an IndexError in the scan
        {"q_dirs": ((0.0, -0.0),)},
        {"q_dirs": (("a", 1.0),)},
        {"classical_centers": ((0.0,),)},
        {"classical_centers": ((0.0, math.nan),)},
    ],
)
def test_protocol_rejects_malformed_points(bad):
    base = WfProtocol.make(2, box=16.0, ngrid=256, n_dirs=4)
    with pytest.raises(ValueError, match=rf"WfProtocol\.{next(iter(bad))} entry"):
        base.replace(**bad)


@pytest.mark.parametrize("d, n", [(1, 63), (2, 63), (2, 255)])
def test_logradial_window_is_zero_at_the_origin_of_an_odd_grid(d, n):
    """An odd grid holds the origin; log|x| is -inf there, so every cone
    window is exactly 0.0 there, with no warning on the way."""
    L = 8.0
    ax = -L + (np.arange(n) + 0.5) * (2.0 * L / n)
    X = np.stack([m.ravel() for m in np.meshgrid(*[ax] * d, indexing="ij")])
    origin = np.flatnonzero(np.linalg.norm(X, axis=0) <= 1e-12)
    assert origin.size == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radial = radial_geometry(X)
        assert radial[-1][origin] == -np.inf
        for omega in sphere_grid(d, 8):
            geom = cone_geometry(radial, omega)
            assert geom[1][origin] == 0.0
            for alpha in (0.35, 0.0875):
                w = logradial_window(cone_aperture(geom, alpha), 4.0, 0.3)
                assert w[origin] == 0.0 and np.all(np.isfinite(w)) and np.all(w >= 0.0)


def test_logradial_window_origin_and_ray():
    r, tau, alpha = 4.0, 0.3, 0.35
    omega = np.array([3.0, 4.0])  # not normalized
    on_ray = omega[:, None] / 5.0 * r
    off_ray = np.array([[0.0], [r]])
    X = np.hstack([on_ray, np.zeros((2, 1)), off_ray, 2.0 * on_ray])
    w = logradial_window(cone_aperture(cone_geometry(radial_geometry(X), omega), alpha), r, tau)
    assert w[0] == pytest.approx(1.0, rel=1e-12)
    assert w[1] == 0.0  # the origin: no half-offset scan grid holds it
    assert 0.0 < w[2] < w[0] and 0.0 < w[3] < w[0]
