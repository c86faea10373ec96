"""Window families for the wavefront scans and the bump Fourier transform.

The Fourier-side scans need windows whose own transforms decay faster than
any polynomial (otherwise the window caps the measurable decay exponent), so
this module provides C-infinity transitions and gaussian/log-radial windows.
The reproducibility-pinned bump of compactify stays in use for SG cutoffs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import j0


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


def flat_bump(t) -> np.ndarray:
    """C-infinity bump: 1 for |t| <= 1/2, 0 for |t| >= 1."""
    t = np.abs(np.asarray(t, dtype=float))
    return smooth_transition(2.0 * (1.0 - t))


def edge_taper(X: np.ndarray, L: float, start: float = 0.75) -> np.ndarray:
    """Per-axis C-infinity taper: 1 for |x_i| <= start*L, 0 at |x_i| >= L."""
    X = np.asarray(X, dtype=float)
    out = np.ones(X.shape[-1])
    for i in range(X.shape[0]):
        out = out * smooth_transition((L - np.abs(X[i])) / ((1.0 - start) * L))
    return out


def gaussian_window(X: np.ndarray, center, sigma: float) -> np.ndarray:
    c = np.atleast_1d(np.asarray(center, dtype=float))
    d2 = np.sum((X - c[:, None]) ** 2, axis=0)
    return np.exp(-0.5 * d2 / sigma**2)


def cone_geometry(X: np.ndarray, omega) -> tuple:
    """(live, log_r, angle) of the grid points X for the cone windows around
    the direction omega: the mask of points off the origin, their log|x| and
    their angle to omega.  It depends on the direction only, so every window
    radius and shape of that direction shares it."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    w = w / np.linalg.norm(w)
    rr = np.linalg.norm(X, axis=0)
    live = rr > 1e-12
    rl = rr[live]
    cosang = np.clip(np.tensordot(w, X[:, live], axes=(0, 0)) / rl, -1.0, 1.0)
    return live, np.log(rl), np.arccos(cosang)


def logradial_window(geom: tuple, r: float, tau: float, alpha: float) -> np.ndarray:
    """Cone window on a `cone_geometry`: gaussian in log|x| around log r
    times an angular gaussian around the direction (aperture alpha).
    Vanishes to all orders at the origin."""
    live, log_r, ang = geom
    out = np.zeros(live.shape)
    rad = np.exp(-0.5 * ((log_r - math.log(r)) / tau) ** 2)
    out[live] = rad * np.exp(-0.5 * (ang / alpha) ** 2)
    return out


# -- Fourier transform of the pinned bump ------------------------------------------


@lru_cache(maxsize=None)
def _bump_quad_nodes(n: int = 4000):
    t, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (t + 1.0)
    # the flat (all-orders smooth) profile: its transform decays faster than
    # any polynomial, which the prescribed-wave-front series requires
    return r, 0.5 * w, flat_bump(r)


def _in_blocks(rows, rz, block: int = 256) -> np.ndarray:
    """rows(rz) on blocks of `block` points, so that the (points x nodes)
    arrays of bump_ft stay bounded.  rows reduces each point on its own, so
    the values do not depend on the blocks."""
    out = np.empty(len(rz))
    for i in range(0, len(rz), block):
        out[i : i + block] = rows(rz[i : i + block])
    return out


def bump_ft(dim: int):
    """Evaluator of the Fourier transform of the normalized radial flat bump
    (normalized so the transform equals 1 at 0); supports dim in {1, 2}."""
    r, w, b = _bump_quad_nodes()
    if dim == 1:
        z0 = 2.0 * np.sum(w * b)

        def rows(rz):
            return 2.0 * np.sum(w[None, :] * b[None, :] * np.cos(np.outer(rz, r)), axis=1)

        def ft(z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            rz = np.abs(z if z.ndim == 1 else np.linalg.norm(z, axis=0))
            return _in_blocks(rows, rz) / z0

        return ft, z0
    if dim == 2:
        z0 = 2.0 * np.pi * np.sum(w * b * r)

        def rows(rz):
            return 2.0 * np.pi * np.sum(
                w[None, :] * b[None, :] * r[None, :] * j0(np.outer(rz, r)), axis=1
            )

        def ft(z):
            z = np.asarray(z, dtype=float)
            rz = np.linalg.norm(np.atleast_2d(z), axis=0) if z.ndim > 1 else np.abs(z)
            return _in_blocks(rows, np.atleast_1d(rz)) / z0

        return ft, z0
    raise ValueError("bump_ft supports dimensions 1 and 2")
