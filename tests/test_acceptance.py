"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime.  Tolerances are pinned here, not configurable."""

import hashlib
import math
import time

import numpy as np
import pytest

from sgosc.catalog import (
    KgSpec,
    gaussian_amplitude,
    kg_mphi_distance,
    kg_mphi_oracle,
    kg_spphi_distance,
    kg_spphi_oracle,
    sep_power_phase,
)
from sgosc.compactify import CompactPoint, ball_distance, sphere_grid
from sgosc.fio import kg_evolve
from sgosc.oscint import (
    GK_NODES,
    GK_WEIGHTS,
    SchwartzFn,
    direct_quadrature,
    eval_pairing,
    make_osc_integral,
)
from sgosc.phase import build_mphi_grid, build_spphi_grid, check_admissible
from sgosc.regularize import build_P, residual_P
from sgosc.symbols import seminorm_estimate
from sgosc.synth import PrescribedWfSpec, make_fk, make_g, make_prescribed
from sgosc.wavefront import (
    WfProtocol,
    css_scan,
    grid_sampled_distribution,
    pairing_predicate,
    wf_scan,
)

SQ2 = 1.0 / math.sqrt(2.0)


def _report(num, text, t0):
    print(f"[PASS] criterion {num}: {text} ({time.time() - t0:.1f} s)")


# -- criterion 1: regularizer identity ---------------------------------------------


def test_criterion_1_regularizer_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for phi, d in ((sep_power_phase(1, 1), 1), (KgSpec(1.0, 1).phase(), 2)):
        check_admissible(phi)
        P = build_P(phi)
        x = rng.uniform(-50, 50, size=(d, 1000))
        k = rng.uniform(-50, 50, size=(1, 1000))
        res = residual_P(P, x, k)
        assert res.max() < 1e-8, f"residual {res.max():.2e} for {phi.source}"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, "tP e^{i phi} = e^{i phi} to 1e-8 on 1000 random points", t0)


# -- criterion 2: oracle equivalence ------------------------------------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    phi = sep_power_phase(1, 1)
    check_admissible(phi)
    a = gaussian_amplitude(1, 1)
    f = SchwartzFn.gaussian(1)
    oracle = direct_quadrature(phi, a, f, box=(9, 9), tol=1e-10).value
    vals = {}
    for r in (1, 2, 3):
        I = make_osc_integral(phi, a, r=r, box=(9, 9), tol=1e-8)
        vals[r] = eval_pairing(I, f).value
        assert abs(vals[r] - oracle) <= 1e-6 * (1 + abs(oracle))
    for r1 in (1, 2, 3):
        for r2 in (1, 2, 3):
            assert abs(vals[r1] - vals[r2]) <= 1e-7 * (1 + abs(vals[r1]))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, "eval_pairing(r=1,2,3) matches direct quadrature, r-independent", t0)


# -- criterion 3: f_k transform law --------------------------------------------------


def _ft_by_quadrature(fk, z, center, d):
    """Composite tensor Gauss-Kronrod transform, batched over nodes."""
    L = 10.0
    panels = 24
    axes_nodes, axes_w = [], []
    for i in range(d):
        edges = np.linspace(center[i] - L, center[i] + L, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        axes_nodes.append((mid[:, None] + half * GK_NODES[None, :]).ravel())
        axes_w.append(np.tile(half * GK_WEIGHTS, panels))
    if d == 1:
        Y = axes_nodes[0][None, :]
        w = axes_w[0]
    else:
        g0, g1 = np.meshgrid(axes_nodes[0], axes_nodes[1], indexing="ij")
        Y = np.stack([g0.ravel(), g1.ravel()])
        w = np.outer(axes_w[0], axes_w[1]).ravel()
    vals = fk.values(Y) * np.exp(-1j * np.tensordot(z, Y, axes=(0, 0)))
    return np.sum(w * vals)


def test_criterion_3_fk_fourier_symmetry():
    t0 = time.time()
    cases = [
        (1, [1.0], [1.0]),
        (1, [-1.0], [1.0]),
        (2, [SQ2, SQ2], [0.0, 1.0]),
    ]
    rng = np.random.default_rng(42)
    for d, omega, eta in cases:
        for k in (0, 1, 2):
            fk = make_fk(omega, eta, k)
            center = (k**3) * np.asarray(eta)
            pts = center[:, None] + rng.uniform(-2, 2, size=(d, 20))
            want = fk.ft().values(pts)
            for j in range(20):
                z = pts[:, j]
                got = _ft_by_quadrature(fk, z, (k**3) * np.asarray(omega), d)
                assert abs(got - want[j]) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, "F f_k = (2 pi)^{d/2} f_k(.; eta, -omega) at 20 points, d in {1,2}, k in {0,1,2}", t0)


# -- criterion 4: prescribed wave front ----------------------------------------------


def test_criterion_4_prescribed_wavefront():
    t0 = time.time()
    # d = 1, singleton {(+1, +1)}
    T1 = make_prescribed(PrescribedWfSpec(asymptotic=[([1.0], [1.0])]), 1, K_max=3)
    p1 = WfProtocol.make(
        1,
        box=64.0,
        ngrid=2048,
        rho_max_frac=0.7,
        classical_centers=[(-2.0,), (0.0,), (2.0,)],
        finite_q=[(-2.0,), (0.0,), (1.0,), (2.0,)],
    )
    wf1 = wf_scan(T1, p1)
    sing = wf1.singular()
    assert any(
        c.y.coords == (1.0,) and c.q.coords == (1.0,) and c.kind == "corner"
        for c in sing
    )
    assert all(c.y.coords == (1.0,) and c.q.coords == (1.0,) for c in sing)

    # d = 2, two asymptotic pairs
    dirs = sphere_grid(2, 16)
    om1, et1, om2, et2 = dirs[2], dirs[5], dirs[9], dirs[13]
    T2 = make_prescribed(
        PrescribedWfSpec(asymptotic=[(om1, et1), (om2, et2)]), 2, K_max=2
    )
    p2 = WfProtocol.make(
        2,
        box=16.0,
        ngrid=256,
        n_dirs=16,
        rho_max_frac=0.7,
        classical_centers=[(0.0, 0.0)],
        finite_q=[],
        floor=3e-6,
    )
    wf2 = wf_scan(T2, p2)
    targets = [
        (CompactPoint.direction(om1), CompactPoint.direction(et1)),
        (CompactPoint.direction(om2), CompactPoint.direction(et2)),
    ]
    for ty, tq in targets:
        cell = wf2.lookup(ty, tq)
        assert cell.label == "singular", f"target {ty}, {tq} got {cell.label}"
    cellw = 2 * np.pi / 16 + 0.05
    for c in wf2.singular():
        assert any(
            ball_distance(c.y, ty) <= cellw and ball_distance(c.q, tq) <= cellw
            for ty, tq in targets
        ), f"stray singular cell {c.y}, {c.q}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(4, "prescribed WF: exactly the requested cells (one-cell margin)", t0)


# -- criterion 5: Klein-Gordon set oracles -------------------------------------------


def _kg_m_cells(spec):
    pairs = []
    th_members = sphere_grid(3, 16)
    for th in th_members:
        pairs.append((CompactPoint.finite([0, 0, 0, 0]), CompactPoint.direction(th)))
        for sg in (1.0, -1.0):
            for r in (1.0, 2.0, 4.0):
                pairs.append(
                    (
                        CompactPoint.finite(np.concatenate([[sg * r], r * th])),
                        CompactPoint.direction(sg * th),
                    )
                )
            pairs.append(
                (
                    CompactPoint.direction(np.concatenate([[sg], th]) / math.sqrt(2)),
                    CompactPoint.direction(sg * th),
                )
            )
            for t in (0.0, 1.0, 2.0):
                om = math.sqrt(1 + t * t)
                u = sg * np.concatenate([[om], t * th]) / math.sqrt(om * om + t * t)
                pairs.append((CompactPoint.direction(u), CompactPoint.finite(t * th)))
    # generic lattice cells (mostly nonmembers)
    for x in (
        [2, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 2, 0, 0],
        [3, 1, 1, 0],
        [1, 1, 1, 1],
        [0.5, 2, 1, 0],
        [2, 0, 0, 1],
    ):
        for th in sphere_grid(3, 16):
            pairs.append((CompactPoint.finite(x), CompactPoint.direction(th)))
    for u in sphere_grid(4, 48):
        for th in sphere_grid(3, 12):
            pairs.append((CompactPoint.direction(u), CompactPoint.direction(th)))
        for kf in ([0, 0, 0], [1.5, 0, 0], [0, 0.8, 0]):
            pairs.append((CompactPoint.direction(u), CompactPoint.finite(kf)))
    return pairs


def _kg_sp_cells(spec):
    pairs = []
    for th in sphere_grid(3, 16):
        pairs.append(
            (
                CompactPoint.finite([0, 0, 0, 0]),
                CompactPoint.direction(np.concatenate([[-1.0], th]) / math.sqrt(2)),
            )
        )
        for sg in (1.0, -1.0):
            pairs.append(
                (
                    CompactPoint.finite(np.concatenate([[sg], th])),
                    CompactPoint.direction(
                        np.concatenate([[-1.0], sg * th]) / math.sqrt(2)
                    ),
                )
            )
            pairs.append(
                (
                    CompactPoint.direction(np.concatenate([[sg], th]) / math.sqrt(2)),
                    CompactPoint.direction(
                        np.concatenate([[-1.0], sg * th]) / math.sqrt(2)
                    ),
                )
            )
            for t in (0.0, 1.0):
                om = math.sqrt(1 + t * t)
                u = sg * np.concatenate([[om], t * th]) / math.sqrt(om * om + t * t)
                pairs.append(
                    (
                        CompactPoint.direction(u),
                        CompactPoint.finite(np.concatenate([[-om], t * th])),
                    )
                )
    for y in ([5, 0, 0, 0], [1, 2, 0, 0], [0, 1, 1, 0], [2, 0, 1, 0]):
        for qd in sphere_grid(4, 24):
            pairs.append((CompactPoint.finite(y), CompactPoint.direction(qd)))
    for u in sphere_grid(4, 32):
        for qf in ([1, 0, 0, 0], [0, 1.5, 0, 0], [0.5, 0.5, 0, 0]):
            pairs.append((CompactPoint.direction(u), CompactPoint.finite(qf)))
        for qd in sphere_grid(4, 12):
            pairs.append((CompactPoint.direction(u), CompactPoint.direction(qd)))
    return pairs


def test_criterion_5_kg_set_oracles():
    t0 = time.time()
    spec = KgSpec(1.0, 3)
    phi = spec.phase()
    delta = 0.1

    m_pairs = _kg_m_cells(spec)
    mgrid = build_mphi_grid(phi, m_pairs)
    m_tested = m_agree = 0
    for s in mgrid.samples:
        o = kg_mphi_oracle(s.point, spec)
        # member cells sit exactly on the set by construction (the oracle's
        # tolerance is 1e-9); nonmembers are asserted beyond the 2 delta band
        dist = 0.0 if o == "member" else kg_mphi_distance(s.point, spec)
        tested = o == "member" or dist > 2 * delta
        if not tested:
            continue
        m_tested += 1
        assert s.classification == o, (
            f"M mismatch at {s.point}: oracle {o}, classifier {s.classification} "
            f"(ratio {s.min_ratio:.2e}, set distance {dist:.2f})"
        )
        m_agree += 1

    sp_pairs = _kg_sp_cells(spec)
    sgrid = build_spphi_grid(phi, sp_pairs, mgrid)
    s_tested = s_agree = 0
    for s in sgrid.samples:
        o = kg_spphi_oracle(s.point, spec)
        dist = 0.0 if o == "member" else kg_spphi_distance(s.point, spec)
        tested = o == "member" or dist > 2 * delta
        if not tested:
            continue
        s_tested += 1
        assert s.classification == o, (
            f"SP mismatch at {s.point}: oracle {o}, classifier {s.classification} "
            f"(ratio {s.min_ratio:.2e}, set distance {dist:.2f})"
        )
        s_agree += 1

    total = len(m_pairs) + len(sp_pairs)
    assert total >= 1700, f"grid has {total} cells, wanted ~2000"
    # bitwise pin of the whole grid, oracle-tested or not, in the digest
    # format of test_kg_classifiers_pinned
    h = hashlib.sha256()
    for s in mgrid.samples:
        h.update(f"{s.classification} {float(s.min_ratio).hex()}\n".encode())
    for s in sgrid.samples:
        h.update(f"{s.classification} {float(s.min_ratio).hex()} {s.fiber_count}\n".encode())
    assert h.hexdigest() == (
        "de397b5b3a074aed7cc708993e8f42614aa45530aec77be218f177efce112105"
    )
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(
        5,
        f"KG oracles: {m_agree}/{m_tested} M cells and {s_agree}/{s_tested} SP cells "
        f"agree (grid {total} cells, margin band excluded)",
        t0,
    )


# -- criterion 6: main theorem at desk scale -----------------------------------------


def _reduced_kg_grid_values(spec, Xi, L, n):
    dx = 2 * L / n
    ax = -L + (np.arange(n) + 0.5) * dx
    panels = 64
    edges = np.linspace(-Xi - 3, Xi + 3, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * GK_NODES[None, :]).ravel()
    wq = np.tile(half * GK_WEIGHTS, panels)
    om = np.sqrt(spec.mass**2 + nodes**2)
    amp = 1j / (4 * np.pi * om) * np.exp(-((nodes / Xi) ** 2))
    return np.exp(-1j * np.outer(ax, om)) @ (
        np.diag(wq * amp) @ np.exp(1j * np.outer(ax, nodes)).T
    )


def test_criterion_6_main_theorem_desk_scale():
    t0 = time.time()
    spec = KgSpec(1.0, 1)
    L, n, Xi = 40.0, 640, 6.0
    u = grid_sampled_distribution(_reduced_kg_grid_values(spec, Xi, L, n), L)

    ks = [0.0, 0.75, 1.5]
    x_dirs = [(math.cos(a), math.sin(a)) for a in 2 * np.pi * np.arange(16) / 16]
    finite_q = []
    for k in ks:
        omk = math.sqrt(1 + k * k)
        for sg in (1.0, -1.0):
            x_dirs.append(
                tuple(sg * np.array([omk, k]) / math.sqrt(omk * omk + k * k))
            )
            if k > 0:
                x_dirs.append(
                    tuple(sg * np.array([omk, -k]) / math.sqrt(omk * omk + k * k))
                )
        for kk in (k, -k):
            finite_q.append((-math.sqrt(1 + kk * kk), kk))
            finite_q.append((math.sqrt(1 + kk * kk), kk))
    finite_q += [(0.0, 0.0), (1.0, 1.0)]
    proto = WfProtocol.make(
        2,
        box=L,
        ngrid=n,
        rho_max_frac=0.45,
        classical_centers=[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-1.0, 1.0)],
        finite_q=sorted(set(finite_q)),
        floor=3e-6,
        r_lo=4.0,
    ).replace(x_dirs=tuple(x_dirs))
    wf = wf_scan(u, proto)

    # inclusion WF subset SP: every asymptotic singular cell sits within one
    # cell of the stationary-phase set (classical cells are reported only:
    # the Schwartz xi-truncation erases the light-cone singularities)
    cellw = 2 * np.pi / 16 + 0.05
    for c in wf.singular():
        if c.kind == "classical":
            continue
        dist = kg_spphi_distance((c.y, c.q), spec)
        assert dist <= cellw, (
            f"singular cell ({c.kind}) {c.y}, {c.q} at set distance {dist:.2f}"
        )

    # equality direction on the truncation-faithful range: the e-type oracle
    # member cells inside the scanned covariable lattice must be detected
    detected = 0
    for k in ks:
        omk = math.sqrt(1 + k * k)
        for sg in (1.0, -1.0):
            u_dir = sg * np.array([omk, k]) / math.sqrt(omk * omk + k * k)
            qf = np.array([-omk, k])
            pair = (CompactPoint.direction(u_dir), CompactPoint.finite(qf))
            assert kg_spphi_oracle(pair, spec) == "member"
            cell = wf.lookup(*pair)
            assert cell.label in ("singular", "margin"), (
                f"oracle member {pair} scanned {cell.label} (N={cell.fitted_N:.2f})"
            )
            detected += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(
        6,
        f"reduced KG integral: singular cells inside SP (one-cell), "
        f"{detected} oracle e-members detected",
        t0,
    )


# -- criterion 7: Klein-Gordon evolution ---------------------------------------------


def test_criterion_7_kg_evolution():
    t0 = time.time()
    f = SchwartzFn.gaussian(1)
    evo = kg_evolve(f, 0.5, c=1.0, mass=1.0)
    xs = np.linspace(-4, 4, 81)
    assert np.max(np.abs(evo.values(0.0, xs))) < 1e-8
    assert np.max(np.abs(evo.dt_values(0.0, xs) - f.value(xs[None, :]))) < 1e-4
    t_mid, ht, hx = 0.5, 0.02, 0.0625
    grid = np.arange(-4, 4.0001, hx)
    c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    utt = sum(
        cj * evo.values(t_mid + j * ht, grid) for cj, j in zip(c, [-2, -1, 0, 1, 2])
    ) / ht**2
    uv = evo.values(t_mid, grid)
    uxx = (
        c[0] * uv[:-4] + c[1] * uv[1:-3] + c[2] * uv[2:-2] + c[3] * uv[3:-1] + c[4] * uv[4:]
    ) / hx**2
    res = utt[2:-2] - uxx + uv[2:-2]
    assert np.max(np.abs(res)) < 1e-3 * np.max(np.abs(uv))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, "u(0)=0, du/dt(0)=f, interior PDE residual < 1e-3 relative", t0)


# -- criterion 8: property suites ----------------------------------------------------


def test_criterion_8_property_suites():
    t0 = time.time()
    # jet gradients vs central differences at 1e-6
    spec = KgSpec(1.0, 1)
    phi = spec.phase()
    rng = np.random.default_rng(8)
    X = rng.uniform(-3, 3, (2, 40))
    K = rng.uniform(-3, 3, (1, 40))
    h = 1e-5
    gx = phi.grad_x(X, K).real
    for i in range(2):
        e = np.zeros((2, 1))
        e[i] = h
        fd = (phi.value(X + e, K) - phi.value(X - e, K)).real / (2 * h)
        assert np.max(np.abs(gx[i] - fd)) < 1e-6 * (1 + np.max(np.abs(fd)))

    # seminorm monotonicity under grid refinement
    a = sep_power_phase(1, 1).symbol
    coarse = seminorm_estimate(a, (1, 1), max_order=2, radii=(0.0, 1.0, 8.0))
    fine = seminorm_estimate(
        a, (1, 1), max_order=2, radii=(0.0, 0.5, 1.0, 2.0, 8.0, 32.0)
    )
    for key, v in coarse.entries.items():
        assert fine.entries[key] >= v - 1e-13

    # pi_1 consistency of the scan with the cone-support scan
    g = make_g([1.0], [1.0], K_max=3)
    proto = WfProtocol.make(
        1,
        box=64.0,
        ngrid=2048,
        rho_max_frac=0.7,
        classical_centers=[(-2.0,), (0.0,), (2.0,)],
        finite_q=[(-2.0,), (0.0,), (1.0,), (2.0,)],
    )
    wf = wf_scan(g, proto)
    css, _ = css_scan(g, proto)
    wf_dirs = [p for p in wf.singular_positions(include_margin=True) if p.is_boundary]
    assert {tuple(p.coords) for p in wf_dirs} == {tuple(c.coords) for c in css}

    # pairing predicate truth table on the three worked examples
    from sgosc.wavefront import EvaluableDistribution

    assert pairing_predicate(wf_scan(make_fk([1.0], [1.0], 0), proto))
    assert pairing_predicate(wf)
    narrow = EvaluableDistribution(
        1,
        lambda Xp: np.exp(-np.sum((8.0 * Xp) ** 2, axis=0) / 2).astype(complex),
        source="narrow",
    )
    wf_delta = wf_scan(narrow, proto.replace(classical_centers=((0.0,),)))
    assert not pairing_predicate(wf_delta)
    _report(8, "jet-vs-FD, seminorm monotonicity, pi_1 consistency, pairing table", t0)
