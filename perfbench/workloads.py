"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, makes the inputs of
round i in `inputs` (untimed), runs round i through sgosc's public functions
in `run` (the only timed code), and judges the collected results in `check`
against references computed here, apart from the code under test.  Every
round of a workload makes the same number of operations, so the share of
failed operations never depends on the seed or on the run length.

`corrupt` damages one result the way a real fault would (a flipped label, a
value moved by ten times its tolerance); the runner requires `check` to
reject that copy, so every run also proves its own checker.

sgosc is reached through module attributes (`phase.build_mphi_grid`, not a
name imported once), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
from scipy import integrate

from sgosc import catalog, compactify, oscint, phase, symbols, synth, wavefront
from sgosc.compactify import CompactPoint, sphere_grid

# errors by which sgosc reports a numerical operation it could not finish
OP_ERRORS = (ArithmeticError, ValueError, RuntimeError)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def kronecker(offset: float, i: int, step: float) -> float:
    """Point i of a seeded additive-recurrence sequence in [0, 1): the rounds
    of one run spread evenly over a parameter range whatever the seed."""
    return (offset + i * step) % 1.0


def seeded_orders(seed: int, sizes: dict) -> dict:
    """One seeded permutation per family; round i takes entry i mod size."""
    rng = np.random.default_rng(seed)
    return {name: rng.permutation(n) for name, n in sizes.items()}


class Workload:
    name = ""

    def setup(self, seed: int):
        raise NotImplementedError

    def inputs(self, state, i: int):
        raise NotImplementedError

    def run(self, state, inp) -> list:
        """Results of one round, one entry per operation; None marks an
        operation that raised one of OP_ERRORS."""
        raise NotImplementedError

    def ops_per_round(self, state) -> int:
        raise NotImplementedError

    def failed(self, state, results) -> int:
        return sum(r is None for r in results)

    def check(self, state, rounds: list) -> list:
        """Problems found in [(inputs, results), ...]; empty when correct."""
        raise NotImplementedError

    def corrupt(self, rounds: list) -> list:
        raise NotImplementedError


# -- kg-sets: M_phi and SP_phi classifiers against the analytic KG sets -------


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _e_direction(sg: float, t: float, th: np.ndarray) -> np.ndarray:
    om = math.sqrt(1.0 + t * t)
    return sg * np.concatenate([[om], t * th]) / math.sqrt(om * om + t * t)


class KgSets(Workload):
    """The 1+3-dimensional two-point function of criterion 5.

    A round classifies one on-set group and one cell of each off-set family.
    The on-set group is four M_phi members and the four SP_phi members whose
    fibers they are (origin, light cone, light-cone direction, e-type), all
    at one seeded (theta, sign, t).  The SP classifier seeds its search from
    the M grid's fiber, so the pairs keep each SP member findable in a small
    grid.  The off-set families are criterion 5's lattice and direction
    grids; most of their cells lie far from both sets."""

    name = "kg-sets"
    delta = 0.1  # the ball-metric margin band of criterion 5

    def setup(self, seed):
        spec = catalog.KgSpec(1.0, 3)
        phi = spec.phase()
        phase.check_admissible(phi)
        th16 = sphere_grid(3, 16)
        fin = CompactPoint.finite
        dirn = CompactPoint.direction
        groups = [
            (j, sg, t) for j in range(len(th16)) for sg in (1.0, -1.0) for t in (0.0, 1.0)
        ]
        lattice_x = [
            [2, 1, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [3, 1, 1, 0],
            [1, 1, 1, 1], [0.5, 2, 1, 0], [2, 0, 0, 1],
        ]
        u48, th12 = sphere_grid(4, 48), sphere_grid(3, 12)
        m_off = {
            "m-lattice": [(fin(x), dirn(th)) for x in lattice_x for th in th16],
            "m-dirdir": [(dirn(u), dirn(th)) for u in u48 for th in th12],
            "m-dirfin": [
                (dirn(u), fin(kf)) for u in u48 for kf in ([0, 0, 0], [1.5, 0, 0], [0, 0.8, 0])
            ],
        }
        u32, q24, q12 = sphere_grid(4, 32), sphere_grid(4, 24), sphere_grid(4, 12)
        sp_off = {
            "sp-lattice": [
                (fin(y), dirn(qd))
                for y in ([5, 0, 0, 0], [1, 2, 0, 0], [0, 1, 1, 0], [2, 0, 1, 0])
                for qd in q24
            ],
            "sp-dirfin": [
                (dirn(u), fin(qf))
                for u in u32
                for qf in ([1, 0, 0, 0], [0, 1.5, 0, 0], [0.5, 0.5, 0, 0])
            ],
            "sp-dirdir": [(dirn(u), dirn(qd)) for u in u32 for qd in q12],
        }
        sizes = {"groups": len(groups)}
        sizes.update({k: len(v) for k, v in {**m_off, **sp_off}.items()})
        return {
            "spec": spec,
            "phi": phi,
            "th": th16,
            "groups": groups,
            "m_off": m_off,
            "sp_off": sp_off,
            "order": seeded_orders(seed, sizes),
        }

    def inputs(self, state, i):
        order = state["order"]

        def pick(family, cells):
            return cells[order[family][i % len(cells)]]

        j, sg, t = state["groups"][order["groups"][i % len(state["groups"])]]
        th = state["th"][j]
        fin, dirn = CompactPoint.finite, CompactPoint.direction
        om = math.sqrt(1.0 + t * t)
        m_on = [
            (fin([0, 0, 0, 0]), dirn(th)),
            (fin(np.concatenate([[sg], th])), dirn(sg * th)),
            (dirn(_unit(np.concatenate([[sg], th]))), dirn(sg * th)),
            (dirn(_e_direction(sg, t, th)), fin(t * th)),
        ]
        sp_on = [
            (fin([0, 0, 0, 0]), dirn(_unit(np.concatenate([[-1.0], th])))),
            (fin(np.concatenate([[sg], th])), dirn(_unit(np.concatenate([[-1.0], sg * th])))),
            (
                dirn(_unit(np.concatenate([[sg], th]))),
                dirn(_unit(np.concatenate([[-1.0], sg * th]))),
            ),
            (dirn(_e_direction(sg, t, th)), fin(np.concatenate([[-om], t * th]))),
        ]
        m_cells = m_on + [pick(k, v) for k, v in state["m_off"].items()]
        sp_cells = sp_on + [pick(k, v) for k, v in state["sp_off"].items()]
        on_set = [True] * len(m_on) + [False] * len(state["m_off"])
        on_set += [True] * len(sp_on) + [False] * len(state["sp_off"])
        return {"m": m_cells, "sp": sp_cells, "on_set": on_set}

    def ops_per_round(self, state):
        return 8 + len(state["m_off"]) + len(state["sp_off"])

    def run(self, state, inp):
        spec, phi = state["spec"], state["phi"]
        try:
            mgrid = phase.build_mphi_grid(phi, inp["m"])
            sgrid = phase.build_spphi_grid(phi, inp["sp"], mgrid)
        except OP_ERRORS:
            return [None] * (len(inp["m"]) + len(inp["sp"]))
        out = []
        for kind, samples in (("M", mgrid.samples), ("SP", sgrid.samples)):
            oracle = catalog.kg_mphi_oracle if kind == "M" else catalog.kg_spphi_oracle
            distance = catalog.kg_mphi_distance if kind == "M" else catalog.kg_spphi_distance
            for s in samples:
                out.append(
                    {
                        "kind": kind,
                        "label": s.classification,
                        "oracle": oracle(s.point, spec),
                        "distance": distance(s.point, spec),
                    }
                )
        return out

    def check(self, state, rounds):
        problems = []
        tested = 0
        for inp, results in rounds:
            for on_set, r in zip(inp["on_set"], results):
                if r is None:
                    continue
                if on_set and r["oracle"] != "member":
                    problems.append(f"{r['kind']} cell built on the set has oracle {r['oracle']}")
                if r["oracle"] == "member" or r["distance"] > 2 * self.delta:
                    tested += 1
                    if r["label"] != r["oracle"]:
                        problems.append(
                            f"{r['kind']} label {r['label']} but oracle {r['oracle']} "
                            f"(set distance {r['distance']:.3f})"
                        )
        if tested == 0:
            problems.append("no cell was tested against the oracle")
        return problems

    def corrupt(self, rounds):
        bad = copy.deepcopy(rounds)
        flip = {"member": "nonmember", "nonmember": "member", "margin": "nonmember"}
        r = bad[-1][1][0]  # an on-set M cell: always tested
        r["label"] = flip[r["label"]]
        return bad


# -- pairing: regularized pairings against direct quadrature -------------------


class Pairing(Workload):
    """eval_pairing on sep_power_phase(1,1) with r = 1, 2, 3 and the direct
    quadrature oracle, for a Gaussian test function per round whose width
    and center walk a seeded sequence over [0.95, 1.05] x [-0.1, 0.1]."""

    name = "pairing"
    tol_oracle = 1e-6
    tol_r = 1e-7

    def setup(self, seed):
        phi = catalog.sep_power_phase(1, 1)
        phase.check_admissible(phi)
        a = catalog.gaussian_amplitude(1, 1)
        integrals = [
            oscint.make_osc_integral(phi, a, r=r, box=(9, 9), tol=1e-8) for r in (1, 2, 3)
        ]
        rng = np.random.default_rng(seed)
        return {"phi": phi, "a": a, "integrals": integrals, "offsets": rng.random(2)}

    def inputs(self, state, i):
        u, v = state["offsets"]
        width = 0.95 + 0.1 * kronecker(u, i, GOLDEN)
        center = -0.1 + 0.2 * kronecker(v, i, SILVER)
        return oscint.SchwartzFn.gaussian(1, width=width, center=[center])

    def ops_per_round(self, state):
        return 4

    def run(self, state, f):
        out = []
        for I in state["integrals"]:
            try:
                out.append(complex(oscint.eval_pairing(I, f).value))
            except OP_ERRORS:
                out.append(None)
        try:
            out.append(
                complex(
                    oscint.direct_quadrature(state["phi"], state["a"], f, box=(9, 9), tol=1e-10).value
                )
            )
        except OP_ERRORS:
            out.append(None)
        return out

    def check(self, state, rounds):
        problems = []
        for _, (v1, v2, v3, oracle) in rounds:
            vals = [v for v in (v1, v2, v3) if v is not None]
            if oracle is not None:
                for r, v in zip((1, 2, 3), (v1, v2, v3)):
                    if v is not None and abs(v - oracle) > self.tol_oracle * (1 + abs(oracle)):
                        problems.append(f"r={r}: {v} differs from direct quadrature {oracle}")
            for a, b in itertools.combinations(vals, 2):
                if abs(a - b) > self.tol_r * (1 + min(abs(a), abs(b))):
                    problems.append(f"r-dependence: {a} vs {b}")
        return problems

    def corrupt(self, rounds):
        bad = copy.deepcopy(rounds)
        vals = bad[0][1]
        vals[1] += 10 * self.tol_oracle * (1 + abs(vals[3]))
        return bad


# -- quad-deep: many cheap cells, bookkeeping-bound quadrature -----------------


class QuadDeep(Workload):
    """direct_quadrature of <x>^-3 <k>^-3 under the phase x1*k1 on a box
    [-L, L]^2 per round, L walking a seeded sequence over [23, 25): about
    13 000 to 18 000 cells each, well inside the 60 000-cell budget."""

    name = "quad-deep"
    tol = 1e-9
    tol_check = 1e-8

    def setup(self, seed):
        phi = phase.PhaseFn(symbols.parse_symbol_expr("x1*k1", (1, 1), (1, 1)), (1, 1))
        phase.check_admissible(phi)
        a = symbols.parse_symbol_expr("jb(x)^-3*jb(k)^-3", (1, 1), (-3, -3))
        return {"phi": phi, "a": a, "offset": float(np.random.default_rng(seed).random())}

    def inputs(self, state, i):
        return 23.0 + 2.0 * kronecker(state["offset"], i, GOLDEN)

    def ops_per_round(self, state):
        return 1

    def run(self, state, L):
        try:
            q = oscint.direct_quadrature(state["phi"], state["a"], box=(L, L), tol=self.tol)
        except OP_ERRORS:
            return [None]
        return [complex(q.value)]

    @staticmethod
    def reference(L: float) -> float:
        """4 * int_0^L <k>^-3 int_0^L cos(k x) <x>^-3 dx dk by nested QUADPACK,
        the inner integral with a cosine weight (QAWO); the sine part
        vanishes by symmetry."""
        def jb3(t):
            return (1.0 + t * t) ** -1.5

        def inner(k):
            return integrate.quad(
                jb3, 0.0, L, weight="cos", wvar=k, epsabs=1e-13, epsrel=1e-12, limit=200
            )[0]

        return 4.0 * integrate.quad(
            lambda k: jb3(k) * inner(k), 0.0, L, epsabs=1e-13, epsrel=1e-12, limit=400
        )[0]

    def check(self, state, rounds):
        problems = []
        for L, (v,) in rounds:
            if v is None:
                continue
            ref = self.reference(L)
            if abs(v - ref) > self.tol_check * (1 + abs(ref)):
                problems.append(f"box {L:.4f}: {v} differs from the QAWO reference {ref}")
        return problems

    def corrupt(self, rounds):
        bad = copy.deepcopy(rounds)
        L, (v,) = bad[0]
        bad[0] = (L, [v + 10 * self.tol_check * (1 + abs(v))])
        return bad


# -- wf-scan: windowed-FFT wave front scans -------------------------------------


def reduced_kg_grid_values(Xi: float, L: float, n: int) -> np.ndarray:
    """Samples on the n x n grid of [-L, L)^2 of the reduced 1+1 KG
    two-point function, xi-truncated by exp(-(xi/Xi)^2): a 64-panel
    Gauss-Kronrod sum in xi, separable in (t, x)."""
    dx = 2 * L / n
    ax = -L + (np.arange(n) + 0.5) * dx
    edges = np.linspace(-Xi - 3, Xi + 3, 65)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * oscint.GK_NODES[None, :]).ravel()
    wq = np.tile(half * oscint.GK_WEIGHTS, 64)
    om = np.sqrt(1.0 + nodes**2)
    amp = 1j / (4 * np.pi * om) * np.exp(-((nodes / Xi) ** 2))
    return (np.exp(-1j * np.outer(ax, om)) * (wq * amp)) @ np.exp(1j * np.outer(ax, nodes)).T


class WfScan(Workload):
    """Two 2-D scans per round.  The prescribed wave front of criterion 4 at
    256^2, its four directions rotated by a seeded multiple of 2 pi/16 and
    mirrored or not.  The reduced KG two-point function of criterion 6 at
    640^2 over a seeded slice of criterion 6's protocol: two of its sixteen
    position directions, two of its six e-type directions and one of its
    four classical centers."""

    name = "wf-scan"
    cellw = 2 * np.pi / 16 + 0.05  # one scan cell in the ball metric
    ks = (0.0, 0.75, 1.5)

    def setup(self, seed):
        L, n = 40.0, 640
        u = wavefront.grid_sampled_distribution(reduced_kg_grid_values(6.0, L, n), L)
        finite_q = []
        e_dirs = []
        for k in self.ks:
            omk = math.sqrt(1 + k * k)
            for sg in (1.0, -1.0):
                e_dirs.append((tuple(sg * np.array([omk, k]) / math.sqrt(omk * omk + k * k)), k))
            for kk in (k, -k):
                finite_q += [(-math.sqrt(1 + kk * kk), kk), (math.sqrt(1 + kk * kk), kk)]
        finite_q += [(0.0, 0.0), (1.0, 1.0)]
        kg_proto = wavefront.WfProtocol.make(
            2,
            box=L,
            ngrid=n,
            rho_max_frac=0.45,
            classical_centers=[(0.0, 0.0)],
            finite_q=sorted(set(finite_q)),
            floor=3e-6,
            r_lo=4.0,
        )
        p4 = wavefront.WfProtocol.make(
            2,
            box=16.0,
            ngrid=256,
            n_dirs=16,
            rho_max_frac=0.7,
            classical_centers=[(0.0, 0.0)],
            finite_q=[],
            floor=3e-6,
        )
        grid16 = [tuple(v) for v in sphere_grid(2, 16)]
        return {
            "u": u,
            "kg_proto": kg_proto,
            "p4": p4,
            "grid16": grid16,
            "e_dirs": e_dirs,
            "centers": [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-1.0, 1.0)],
            "order": seeded_orders(seed, {"c4": 32, "grid": 16, "e": 6, "center": 4}),
        }

    def inputs(self, state, i):
        order = state["order"]
        conf = int(order["c4"][i % 32])
        rot, mirror = conf % 16, conf >= 16
        idx = [(k + rot) % 16 for k in (2, 5, 9, 13)]
        if mirror:
            idx = [(16 - k) % 16 for k in idx]
        dirs = sphere_grid(2, 16)
        om1, et1, om2, et2 = (dirs[k] for k in idx)
        targets = [
            (CompactPoint.direction(om1), CompactPoint.direction(et1)),
            (CompactPoint.direction(om2), CompactPoint.direction(et2)),
        ]
        spec = synth.PrescribedWfSpec(asymptotic=[(om1, et1), (om2, et2)])
        g = [state["grid16"][order["grid"][(2 * i + j) % 16]] for j in range(2)]
        e = [state["e_dirs"][order["e"][(2 * i + j) % 6]] for j in range(2)]
        center = state["centers"][order["center"][i % 4]]
        kg_proto = state["kg_proto"].replace(
            x_dirs=tuple(g) + tuple(d for d, _ in e), classical_centers=(center,)
        )
        return {"spec": spec, "targets": targets, "kg_proto": kg_proto, "e": e}

    def ops_per_round(self, state):
        p4, pk = state["p4"], state["kg_proto"]
        c4 = len(p4.classical_centers) * 16 + 16 * (len(p4.finite_q) + 16)
        kg = 16 + 4 * (len(pk.finite_q) + 16)
        return c4 + kg

    def run(self, state, inp):
        try:
            wf4 = wavefront.wf_scan(synth.make_prescribed(inp["spec"], 2, K_max=2), state["p4"])
        except OP_ERRORS:
            wf4 = None
        try:
            wfk = wavefront.wf_scan(state["u"], inp["kg_proto"])
        except OP_ERRORS:
            wfk = None
        return [wf4, wfk]

    def failed(self, state, results) -> int:
        return self.ops_per_round(state) - sum(len(r.cells) for r in results if r is not None)

    def check(self, state, rounds):
        problems = []
        spec = catalog.KgSpec(1.0, 1)
        for inp, (wf4, wfk) in rounds:
            if wf4 is not None:
                for ty, tq in inp["targets"]:
                    cell = wf4.lookup(ty, tq)
                    if cell.label != "singular":
                        problems.append(f"prescribed pair {ty}, {tq} scanned {cell.label}")
                for c in wf4.singular():
                    if not any(
                        compactify.ball_distance(c.y, ty) <= self.cellw
                        and compactify.ball_distance(c.q, tq) <= self.cellw
                        for ty, tq in inp["targets"]
                    ):
                        problems.append(f"stray singular cell {c.y}, {c.q}")
            if wfk is None:
                continue
            for c in wfk.singular():
                if c.kind == "classical":
                    continue
                dist = catalog.kg_spphi_distance((c.y, c.q), spec)
                if dist > self.cellw:
                    problems.append(f"KG singular cell {c.y}, {c.q} at SP distance {dist:.2f}")
            for d, k in inp["e"]:
                omk = math.sqrt(1 + k * k)
                pair = (CompactPoint.direction(d), CompactPoint.finite([-omk, k]))
                if catalog.kg_spphi_oracle(pair, spec) != "member":
                    problems.append(f"e-type pair {pair} is not an oracle member")
                cell = wfk.lookup(*pair)
                if cell.label not in ("singular", "margin"):
                    problems.append(f"e-type member {pair} scanned {cell.label}")
        return problems

    def corrupt(self, rounds):
        bad = copy.deepcopy(rounds)
        inp, (wf4, _) = bad[0]
        wf4.lookup(*inp["targets"][0]).label = "regular"
        return bad


WORKLOADS = {w.name: w for w in (KgSets(), Pairing(), QuadDeep(), WfScan())}
