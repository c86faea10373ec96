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
from scipy.special import j0, j1

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


# Gauss-Legendre nodes on the taper [1/2, 1], the only part of the profile
# without a closed-form transform
_TAPER_NODES = 200


@lru_cache(maxsize=None)
def _bump_quad_nodes():
    """(r, w, b): nodes and weights of the taper rule and the profile there."""
    t, w = np.polynomial.legendre.leggauss(_TAPER_NODES)
    r = 0.75 + 0.25 * t
    # the profile is smooth to all orders, so its transform decays faster than
    # any polynomial, which the prescribed-wave-front series requires
    nodes = (r, 0.25 * w, bump_profile(r))
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


def _disc_plateau(rz):
    """pi J1(z/2)/z, the 2-D transform of the indicator of |x| <= 1/2."""
    safe = np.where(rz > 0.0, rz, 1.0)
    return np.where(rz > 0.0, np.pi * j1(0.5 * safe) / safe, 0.25 * np.pi)


def bump_ft(dim: int):
    """Evaluator of the Fourier transform of the normalized radial bump
    (normalized so the transform equals 1 at 0); supports dim in {1, 2}.

    The plateau [0, 1/2] is taken in closed form, 2 sin(z/2)/z in 1-D and
    pi J1(z/2)/z in 2-D; the taper [1/2, 1] by the Gauss-Legendre rule."""
    r, w, b = _bump_quad_nodes()
    if dim == 1:
        plateau, kernel, wb = lambda rz: np.sinc(rz / (2.0 * np.pi)), np.cos, 2.0 * w * b
    elif dim == 2:
        plateau, kernel, wb = _disc_plateau, j0, 2.0 * np.pi * w * b * r
    else:
        raise ValueError("bump_ft supports dimensions 1 and 2")

    def rows(rz):
        return plateau(rz) + np.sum(wb[None, :] * kernel(np.outer(rz, r)), axis=1)

    z0 = float(rows(np.zeros(1))[0])

    def ft(z):
        z = np.asarray(z, dtype=float)
        rz = np.linalg.norm(z, axis=0) if z.ndim > 1 else np.abs(np.atleast_1d(z))
        return _in_blocks(rows, rz) / z0

    return ft, z0
