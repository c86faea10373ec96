"""Radial (directional) compactification of R^k.

Identifies R^k with the open unit ball via x -> x/<x> and adjoins the sphere
of asymptotic directions.  Provides the compactified point type, the
package's one C-infinity step and the bump profile and cut-offs built on it,
boundary neighborhoods, the ball metric, and the deterministic
sphere/direction sampling used by every boundary scan in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .jets import Jet, jet_variables, norm2_jet, radius

BOUNDARY_NORM_TOL = 1e-9


def japanese_bracket(x) -> np.ndarray:
    """<x> = sqrt(1 + |x|^2); accepts shape (k,) or (k, B)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + np.sum(x * x, axis=0))


def as_columns(x) -> np.ndarray:
    """x as a float array of points in columns, shape (k, B): a 1-D array is
    one point, so it becomes one column (a scalar is a point of R^1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if x.ndim == 1:
        x = x[:, None]
    return x


def as_points(x, d: int) -> np.ndarray:
    """x as a float array of points of R^d in columns, shape (d, B): a 1-D
    array is a row of points when d = 1 and one point otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :] if d == 1 else x[:, None]
    return x


def project(x) -> np.ndarray:
    """Map into the open unit ball, x -> x/<x>."""
    x = np.asarray(x, dtype=float)
    return x / japanese_bracket(x)


@dataclass(frozen=True)
class CompactPoint:
    """Point of the closed ball B^k: either finite or a boundary direction."""

    kind: str  # "finite" | "boundary"
    coords: tuple

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if self.kind == "finite":
            if not np.all(np.isfinite(c)):
                raise ValueError("finite point with non-finite coordinates")
        elif self.kind == "boundary":
            n = float(np.linalg.norm(c))
            if abs(n - 1.0) > BOUNDARY_NORM_TOL:
                raise ValueError(
                    f"boundary direction norm {n} departs from 1 beyond {BOUNDARY_NORM_TOL}"
                )
            c = c / n
            object.__setattr__(self, "coords", tuple(float(v) for v in c))
            return
        else:
            raise ValueError(f"unknown CompactPoint kind {self.kind!r}")
        object.__setattr__(self, "coords", tuple(float(v) for v in c))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_boundary(self) -> bool:
        return self.kind == "boundary"

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def ball_coords(self) -> np.ndarray:
        """Coordinates in the closed-ball model."""
        if self.is_boundary:
            return self.array
        return project(self.array)

    @classmethod
    def finite(cls, coords) -> "CompactPoint":
        return cls("finite", tuple(np.atleast_1d(np.asarray(coords, dtype=float))))

    @classmethod
    def boundary(cls, direction) -> "CompactPoint":
        return cls("boundary", tuple(np.atleast_1d(np.asarray(direction, dtype=float))))

    @classmethod
    def direction(cls, vector) -> "CompactPoint":
        """Boundary point from any nonzero vector (normalized first)."""
        v = np.atleast_1d(np.asarray(vector, dtype=float))
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("cannot take the direction of the zero vector")
        return cls("boundary", tuple(v / n))

    def csv_fields(self) -> list:
        """The two CSV fields of the point: its kind and its coordinates."""
        return [self.kind, " ".join(f"{v:.12g}" for v in self.coords)]

    def to_json(self) -> dict:
        if self.is_boundary:
            return {"dir": list(self.coords)}
        return {"finite": list(self.coords)}

    @classmethod
    def from_json(cls, obj: dict) -> "CompactPoint":
        if "dir" in obj:
            return cls.boundary(obj["dir"])
        if "finite" in obj:
            return cls.finite(obj["finite"])
        raise ValueError("CompactPoint JSON needs a 'finite' or 'dir' key")


def ball_distance(a: CompactPoint, b: CompactPoint) -> float:
    """Euclidean distance in the closed-ball model."""
    return float(np.linalg.norm(a.ball_coords() - b.ball_coords()))


def pair_distance(a, b) -> float:
    """max-metric on products of balls; a, b are tuples of CompactPoints."""
    return max(ball_distance(x, y) for x, y in zip(a, b))


# -- the C-infinity step and the bump profile ---------------------------


def smooth_transition(s) -> np.ndarray:
    """C-infinity monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        sm = s[mid]
        a = np.exp(-1.0 / sm)
        b = np.exp(-1.0 / (1.0 - sm))
        out[mid] = a / (a + b)
    return out


def bump_profile(t) -> np.ndarray:
    """Radial C-infinity bump: 1 for t <= 1/2, 0 for t >= 1, the step
    smooth_transition(2(1 - t)) between."""
    return smooth_transition(2.0 * (1.0 - np.asarray(t, dtype=float)))


def bump_profile_jet(tj: Jet) -> Jet:
    """Jet of the bump profile; branches are selected per batch column."""
    t0 = tj.value

    def build(mid):
        u = 2.0 * (1.0 - tj.columns(mid))
        a = (-u.recip()).exp()
        b = (-(1.0 - u).recip()).exp()
        return a * (a + b).recip()

    return Jet.piecewise(tj.space, (t0 > 0.5) & (t0 < 1.0), build, one=t0 <= 0.5)


def smoothstep_jet(tj: Jet, lo: float, hi: float) -> Jet:
    """Jet of the profile that is 1 for t <= lo and 0 for t >= hi, built from
    the bump transition rescaled onto [lo, hi]."""
    u = (tj - lo) * (0.5 / (hi - lo)) + 0.5
    return bump_profile_jet(u)


def smoothstep(t, lo: float, hi: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return bump_profile(0.5 + 0.5 * (t - lo) / (hi - lo))


# -- sphere functions -----------------------------------------------------


class SphereFn:
    """Smooth function on S^{k-1}; its jet receives the list of
    (normalized) coordinate jets."""

    def jet(self, ujets: Sequence[Jet]) -> Jet:
        raise NotImplementedError


class SphereConstant(SphereFn):
    def __init__(self, c: float = 1.0):
        self.c = c

    def jet(self, ujets):
        return Jet.constant(ujets[0].space, np.full(ujets[0].batch, self.c))


class SphereCoordinate(SphereFn):
    def __init__(self, i: int):
        self.i = i

    def jet(self, ujets):
        return ujets[self.i]


class SphereGaussian(SphereFn):
    """exp((u.c0 - 1)/w^2): a smooth direction selector around c0."""

    def __init__(self, center, width: float):
        self.center = np.asarray(center, dtype=float)
        self.center = self.center / np.linalg.norm(self.center)
        self.width = float(width)

    def jet(self, ujets):
        acc = ujets[0] * self.center[0]
        for i in range(1, len(ujets)):
            acc = acc + ujets[i] * self.center[i]
        return ((acc - 1.0) * (1.0 / self.width**2)).exp()


@dataclass
class AsymptoticCutoff:
    """psi_R(x) = (1 - bump(|x|/R)) psi(x/|x|): vanishes for |x| <= R/2,
    equals psi(x/|x|) for |x| >= R; an SG symbol of order (0, 0)."""

    sphere_fn: SphereFn
    radius: float
    dim: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("asymptotic cutoff needs R > 0")

    def value(self, x) -> np.ndarray:
        return self.jet(x, 0).value

    def jet(self, x, order: int) -> Jet:
        return self.jet_from_vars(jet_variables(order, as_columns(x)))

    def jet_from_vars(self, xj: Sequence[Jet]) -> Jet:
        def build(live):
            sub = [j.columns(live) for j in xj]
            r = norm2_jet(sub).sqrt()
            rinv = r.recip()
            bump = bump_profile_jet(r * (1.0 / self.radius))
            return (1.0 - bump) * self.sphere_fn.jet([v * rinv for v in sub])

        return Jet.piecewise(xj[0].space, radius(xj) > 0.5 * self.radius, build)


@dataclass(frozen=True)
class BoundaryNeighborhood:
    """U_{V,R}: a geodesic ball V on the sphere joined with the outer cone."""

    center: tuple
    angle: float
    min_radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", tuple(c / np.linalg.norm(c)))

    @property
    def dim(self) -> int:
        return len(self.center)


def contains(U: BoundaryNeighborhood, p: CompactPoint) -> bool:
    """Topology test for U_{V,R} membership."""
    if p.dim != U.dim:
        raise ValueError("dimension mismatch")
    c = np.asarray(U.center)
    if p.is_boundary:
        ang = _angle(c, p.array)
        return ang < U.angle
    x = p.array
    r = np.linalg.norm(x)
    if r <= U.min_radius or r == 0.0:
        return False
    return _angle(c, x / r) < U.angle


def _angle(a, b) -> float:
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


# -- deterministic sphere grids and direction balls -----------------------


@lru_cache(maxsize=None)
def sphere_grid(k: int, n: int) -> np.ndarray:
    """About n deterministic directions on S^{k-1}, shape (count, k), built
    once per (k, n) and shared read-only."""
    g = _sphere_grid(k, n)
    g.setflags(write=False)
    return g


def _sphere_grid(k: int, n: int) -> np.ndarray:
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        ang = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if k == 3:
        return _fibonacci_sphere(n)
    if k == 4:
        # polar bands (weighted by sin^2) carrying S^2 Fibonacci grids
        nb = max(3, int(round(n ** (1.0 / 3.0))))
        m = max(4, int(round(n / nb)))
        psis = _quantiles_sin2(nb)
        rows = []
        for psi in psis:
            for v in _fibonacci_sphere(m):
                rows.append([math.cos(psi), *(math.sin(psi) * v)])
        return np.asarray(rows)
    raise ValueError(f"sphere_grid supports k <= 4, got {k}")


def _fibonacci_sphere(n: int) -> np.ndarray:
    n = max(n, 2)
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    th = golden * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def _quantiles_sin2(nb: int) -> np.ndarray:
    psi = np.linspace(0.0, np.pi, 4001)
    w = np.sin(psi) ** 2
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    targets = (np.arange(nb) + 0.5) / nb
    return np.interp(targets, cdf, psi)


def tangent_basis(center: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at a unit vector, shape (k-1, k)."""
    k = len(center)
    mat = np.eye(k)
    mat[:, 0] = center
    q, _ = np.linalg.qr(mat)
    # align the first column with center (QR may flip the sign)
    if np.dot(q[:, 0], center) < 0:
        q = -q
    return q[:, 1:].T


def direction_ball(center, delta: float, n_ring: int = 6, n_shells: int = 2):
    """Directions within angle delta of center (center included).

    Deterministic; shape (count, k)."""
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    k = len(c)
    if k == 1 or delta <= 0:
        return c[None, :]
    tb = tangent_basis(c)  # (k-1, k)
    # one product per ring direction: a single ring_dirs @ tb may round
    # differently
    T = np.array([rd @ tb for rd in sphere_grid(k - 1, n_ring)])
    angles = [delta * s / n_shells for s in range(1, n_shells + 1)]
    return np.vstack([c] + [math.cos(a) * c + math.sin(a) * T for a in angles])


def euclidean_ball(center, radius: float, n_ring: int = 6, n_shells: int = 2):
    """Finite-point samples: center plus concentric shells, shape (count, k)."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    k = len(c)
    out = [c]
    dirs = sphere_grid(k, n_ring)
    for s in range(1, n_shells + 1):
        r = radius * s / n_shells
        for d in dirs:
            out.append(c + r * d)
    return np.asarray(out)
