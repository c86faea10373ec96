"""Window families for the wavefront scans and the bump Fourier transform.

The Fourier-side scans need windows whose own transforms decay faster than
any polynomial (otherwise the window caps the measurable decay exponent), so
this module provides C-infinity tapers and gaussian/log-radial windows, all
built on compactify's one C-infinity step.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import j0

from .compactify import bump_profile, smooth_transition


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


def radial_geometry(X: np.ndarray) -> tuple:
    """(X, r, live, log_r) of the grid points X for the cone windows: |x|,
    the mask of points off the origin and log|x|, which is -inf at the
    origin.  They depend on the grid only, so a scan computes them once and
    every direction shares them."""
    rr = np.linalg.norm(X, axis=0)
    live = rr > 1e-12
    return X, rr, live, np.log(rr, out=np.full(rr.shape, -np.inf), where=live)


def cone_geometry(radial: tuple, omega) -> tuple:
    """(log_r, angle) of the cone windows around the direction omega on a
    `radial_geometry`: log|x| and the angle of x to omega, 0 at the origin.
    It depends on the direction only, so every window radius and shape of
    that direction shares it."""
    X, rr, live, log_r = radial
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    w = w / np.linalg.norm(w)
    cosang = np.divide(np.tensordot(w, X, axes=(0, 0)), rr, out=np.ones(rr.shape), where=live)
    return log_r, np.arccos(np.clip(cosang, -1.0, 1.0))


def cone_aperture(geom: tuple, alpha: float) -> tuple:
    """(log_r, angular) of the cone windows of aperture alpha on a
    `cone_geometry`: the angular gaussian around the direction is the same
    for every window radius, so it is computed once per aperture."""
    log_r, ang = geom
    return log_r, np.exp(-0.5 * (ang / alpha) ** 2)


def logradial_window(cone: tuple, r: float, tau: float) -> np.ndarray:
    """Cone window on a `cone_aperture`: gaussian in log|x| around log r
    times the cone's angular gaussian.  Vanishes to all orders at the
    origin, where log|x| = -inf gives exactly 0.0."""
    log_r, angular = cone
    return np.exp(-0.5 * ((log_r - math.log(r)) / tau) ** 2) * angular


# -- Fourier transform of the bump ------------------------------------------------


@lru_cache(maxsize=None)
def _bump_quad_nodes(n: int = 4000):
    t, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (t + 1.0)
    # the profile is smooth to all orders, so its transform decays faster than
    # any polynomial, which the prescribed-wave-front series requires
    nodes = (r, 0.5 * w, bump_profile(r))
    for a in nodes:  # cached, so shared read-only
        a.setflags(write=False)
    return nodes


def _in_blocks(rows, rz, block: int = 256) -> np.ndarray:
    """rows(rz) on blocks of `block` points, so that the (points x nodes)
    arrays of bump_ft stay bounded.  rows reduces each point on its own, so
    the values do not depend on the blocks."""
    out = np.empty(len(rz))
    for i in range(0, len(rz), block):
        out[i : i + block] = rows(rz[i : i + block])
    return out


def bump_ft(dim: int):
    """Evaluator of the Fourier transform of the normalized radial bump
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
