"""Construction of tempered distributions with prescribed global wave front.

Building blocks: the gaussian train terms f_k (peaks at k^3 omega, modulation
k^3 eta), their sum g with a single asymptotic singularity (omega, eta), the
weighted combination over a list of asymptotic pairs, a classical-part series
of shrinking modulated bumps, and its Fourier dual carrying e-type
singularities.  All series are truncated with certified gaussian envelopes;
the k^3 peak spacing makes desk-scale truncation rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .compactify import bump_profile
from .windows import bump_ft
from .wavefront import EvaluableDistribution


def _unit(v, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector (norm {n})")
    return v / n


def _sum(terms):
    """Evaluator X -> terms[0](X) + terms[1](X) + ..., added left to right;
    complex zeros when there are no terms."""

    def evaluator(X):
        if not terms:
            return np.zeros(X.shape[1], dtype=complex)
        acc = terms[0](X)
        for t in terms[1:]:
            acc = acc + t(X)
        return acc

    return evaluator


def _train(omega, eta, ks, label: str) -> EvaluableDistribution:
    """Sum of the train terms f_k, k in ks; its transform is (2 pi)^{d/2}
    times the sum of the dual terms f_k(.; eta, -omega)."""
    d = len(omega)
    scale = (2.0 * math.pi) ** (d / 2.0)
    dual = _sum([make_fk_raw(eta, -omega, k) for k in ks])
    ft = EvaluableDistribution(d, lambda Z: scale * dual(Z), source=f"FT {label}")
    return EvaluableDistribution(
        d, _sum([make_fk_raw(omega, eta, k) for k in ks]), analytic_ft=ft, source=label
    )


def make_fk(omega, eta, k: int) -> EvaluableDistribution:
    """Schwartz train term: gaussian at k^3 omega modulated at frequency
    k^3 eta, with the quadratic phase offset that makes the transform law
    exactly F f_k = (2 pi)^{d/2} f_k(.; eta, -omega)."""
    omega = _unit(omega, "omega")
    eta = _unit(eta, "eta")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _train(omega, eta, [k], f"f_{k}({list(omega)},{list(eta)})")


def make_fk_raw(omega, eta, k: int):
    """Evaluator X (d, B) -> f_k(X; omega, eta), without unit-vector checks."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    c = float(k) ** 3
    off = -0.5j * c * c * float(np.dot(omega, eta))

    def evaluator(X):
        dx = X - c * omega[:, None]
        return np.exp(
            -0.5 * np.sum(dx * dx, axis=0)
            + 1j * c * np.tensordot(eta, X, axes=(0, 0))
            + off
        )

    return evaluator


def g_truncation_bound(K_max: int, box: float, terms: int = 40) -> float:
    """Envelope bound on the discarded tail of the train over |x| <= box."""
    ks = np.arange(K_max + 1, K_max + 1 + terms, dtype=float)
    return float(np.sum(np.exp(-0.5 * (ks**3 - box) ** 2)))


def make_g(omega, eta, K_max: int = 4) -> EvaluableDistribution:
    """Partial train sum f_0 + ... + f_{K_max}: smooth, bounded with all
    derivatives, rapidly decaying away from the ray through omega; cone
    singular support {omega} and wave front {(omega, eta)}."""
    omega = _unit(omega, "omega")
    eta = _unit(eta, "eta")
    if K_max < 1:
        raise ValueError("K_max must be at least 1")
    return _train(
        omega, eta, range(K_max + 1), f"g-train({list(omega)},{list(eta)},K={K_max})"
    )


# -- prescribed wave front specs ----------------------------------------------------


@dataclass
class PrescribedWfSpec:
    """Finite prescription of a global wave front set.

    asymptotic: (omega, eta) pairs on S^{d-1} x S^{d-1}, weights 2^-l;
    classical: (x, eta) with finite positions (|x| <= log k enforced on the
    series indices); e_part: (omega, q) with finite covariables, realized
    through the Fourier symmetry."""

    asymptotic: List[tuple] = field(default_factory=list)
    classical: List[tuple] = field(default_factory=list)
    e_part: List[tuple] = field(default_factory=list)
    weights: Optional[List[float]] = None

    def to_json(self) -> dict:
        out = {
            "asymptotic": [
                {"omega": list(np.atleast_1d(o)), "eta": list(np.atleast_1d(e))}
                for o, e in self.asymptotic
            ],
            "classical": [
                {"x": list(np.atleast_1d(x)), "eta": list(np.atleast_1d(e))}
                for x, e in self.classical
            ],
        }
        if self.e_part:
            out["e"] = [
                {"omega": list(np.atleast_1d(o)), "q": list(np.atleast_1d(q))}
                for o, q in self.e_part
            ]
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PrescribedWfSpec":
        return cls(
            asymptotic=[(e["omega"], e["eta"]) for e in obj.get("asymptotic", [])],
            classical=[(e["x"], e["eta"]) for e in obj.get("classical", [])],
            e_part=[(e["omega"], e["q"]) for e in obj.get("e", [])],
            weights=obj.get("weights"),
        )


def _classical_assignments(pairs: Sequence[tuple], k_top: int):
    """Series indices per pair: pair j takes k = j+1, j+1+J, ... subject to
    |x_j| <= log k (which pins the smallest admissible k)."""
    J = len(pairs)
    out = []
    for j, (x, etav) in enumerate(pairs):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        etav = _unit(etav, "classical eta")
        kmin = max(1, int(math.ceil(math.exp(np.linalg.norm(x)))))
        ks = [k for k in range(1, k_top + 1) if k % J == (j + 1) % J and k >= kmin]
        if not ks:
            raise ValueError(
                f"classical pair {j} needs series indices k >= {kmin}; "
                f"raise k_top (currently {k_top}) or move x closer to 0"
            )
        out.append((x, etav, ks))
    return out


def make_classical_part(pairs: Sequence[tuple], d: int, k_top: int = 7) -> EvaluableDistribution:
    """Sum of k^-2 phi(k(x - x_j)) e^{i k^3 x.eta_j} with the normalized bump
    phi (its transform equals 1 at 0)."""
    ftfun, z0 = bump_ft(d)
    assigns = _classical_assignments(pairs, k_top)

    def evaluator(X):
        acc = np.zeros(X.shape[1], dtype=complex)
        for x, etav, ks in assigns:
            for k in ks:
                r = np.linalg.norm(k * (X - x[:, None]), axis=0)
                bump = bump_profile(r) / z0
                acc += (
                    k ** (-2.0)
                    * bump
                    * np.exp(1j * k**3 * np.tensordot(etav, X, axes=(0, 0)))
                )
        return acc

    def ft_eval(Z):
        acc = np.zeros(Z.shape[1], dtype=complex)
        for x, etav, ks in assigns:
            for k in ks:
                arg = (Z - k**3 * etav[:, None]) / k
                phase = np.exp(
                    1j * np.tensordot(x, k**3 * etav[:, None] - Z, axes=(0, 0))
                )
                acc += k ** (-2.0 - d) * ftfun(arg) * phase
        return acc

    ft = EvaluableDistribution(d, ft_eval, source="FT classical part")
    return EvaluableDistribution(d, evaluator, analytic_ft=ft, source="classical-wf part")


def make_e_part(pairs: Sequence[tuple], d: int, k_top: int = 7) -> EvaluableDistribution:
    """Fourier dual of a classical construction: e-type singularities at
    (omega_i, q_i).  Realized as T_e = F^{-1} S where S carries the classical
    wave front {(q_i, -omega_i)}; S is T_e's transform, so T_e(X) is
    (2 pi)^-d times S's transform at -X."""
    dual_pairs = [(q, tuple(-v for v in np.atleast_1d(o))) for o, q in pairs]
    S = make_classical_part(dual_pairs, d, k_top)
    s_hat = S.ft().values
    two_pi_d = (2.0 * math.pi) ** d
    return EvaluableDistribution(
        d, lambda X: s_hat(-X) / two_pi_d, analytic_ft=S, source="e-wf part"
    )


def make_prescribed(
    spec: PrescribedWfSpec, d: int, K_max: int = 3, k_top: int = 7
) -> EvaluableDistribution:
    """T = T_e + T_psi + T_psi-e for a finite prescription: the weighted
    g-trains, the classical part and the e part, summed in that order with
    their analytic FTs; the empty prescription is zero."""
    weights = spec.weights or [2.0 ** (-l) for l in range(len(spec.asymptotic))]
    terms, ft_terms = [], []
    for (o, e), w in zip(spec.asymptotic, weights):
        g = make_g(o, e, K_max=K_max)
        terms.append(lambda X, w=w, v=g.values: w * v(X))
        ft_terms.append(lambda Z, w=w, v=g.ft().values: w * v(Z))
    parts = []
    if spec.classical:
        parts.append(make_classical_part(spec.classical, d, k_top))
    if spec.e_part:
        parts.append(make_e_part(spec.e_part, d, k_top))
    terms += [p.values for p in parts]
    ft_terms += [p.ft().values for p in parts]
    ft = EvaluableDistribution(d, _sum(ft_terms), source="FT prescribed")
    return EvaluableDistribution(d, _sum(terms), analytic_ft=ft, source="prescribed-wf")
