"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the value and all partial derivatives up to a fixed order at a
batch of base points.  Products are truncated Cauchy convolutions, so the
Leibniz rule holds to machine precision; compositions with smooth univariate
primitives (exp, sin, cos, powers, log) are exact truncated Taylor algebra.
Every derivative used anywhere in the package comes from this module; finite
differences appear only as test oracles.

Coefficients are Taylor coefficients c_gamma = d^gamma f / gamma!, stored as an
array of shape (ncoef, batch) in the dtype of the jet's data: float64 for real
inputs, complex128 once a complex value enters.  Multi-indices are ordered by
total degree first, so truncating a jet to a lower order is a row slice.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

JET_ORDER_CAP = 12


def _multi_indices(nvars: int, order: int):
    """All multi-indices of nvars entries with total degree <= order,
    sorted by (degree, lexicographic)."""
    out = [()]
    for _ in range(nvars):
        out = [idx + (j,) for idx in out for j in range(order + 1 - sum(idx))]
    out.sort(key=lambda g: (sum(g), g))
    return out


def _factorial_multi(g):
    p = 1
    for gi in g:
        p *= math.factorial(gi)
    return p


class JetSpace:
    """Index tables for jets with a fixed number of variables and order."""

    def __init__(self, nvars: int, order: int):
        if order < 0 or order > JET_ORDER_CAP:
            raise ValueError(f"jet order {order} outside [0, {JET_ORDER_CAP}]")
        if nvars < 1:
            raise ValueError("jets need at least one variable")
        self.nvars = nvars
        self.order = order
        self.indices = _multi_indices(nvars, order)
        self.ncoef = len(self.indices)
        self.index = {g: i for i, g in enumerate(self.indices)}
        # product table grouped by output index
        pairs = [[] for _ in range(self.ncoef)]
        for ia, ga in enumerate(self.indices):
            for ib, gb in enumerate(self.indices):
                if sum(ga) + sum(gb) <= order:
                    gout = tuple(a + b for a, b in zip(ga, gb))
                    pairs[self.index[gout]].append((ia, ib))
        self.prod = [
            (np.array([p[0] for p in lst]), np.array([p[1] for p in lst]))
            for lst in pairs
        ]
        self.fact = np.array([_factorial_multi(g) for g in self.indices], dtype=float)

    def derivative_table(self, var: int):
        """Source indices and factors mapping order-K coefficients to the
        order-(K-1) coefficients of the var-th partial derivative."""
        sub = _multi_indices(self.nvars, self.order - 1)
        src = np.empty(len(sub), dtype=int)
        fac = np.empty(len(sub), dtype=float)
        for i, g in enumerate(sub):
            gp = list(g)
            gp[var] += 1
            src[i] = self.index[tuple(gp)]
            fac[i] = g[var] + 1
        return src, fac


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


@lru_cache(maxsize=None)
def _deriv_table(nvars: int, order: int, var: int):
    return jet_space(nvars, order).derivative_table(var)


def _as_batch(values) -> np.ndarray:
    v = np.atleast_1d(values)
    return v.astype(np.result_type(v, 1.0), copy=False)


class Jet:
    """Batched truncated Taylor expansion."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, space: JetSpace, values) -> "Jet":
        v = _as_batch(values)
        c = np.zeros((space.ncoef, v.shape[-1]), dtype=v.dtype)
        c[0] = v
        return cls(space, c)

    @classmethod
    def variable(cls, space: JetSpace, var: int, values) -> "Jet":
        v = _as_batch(values)
        c = np.zeros((space.ncoef, v.shape[-1]), dtype=v.dtype)
        c[0] = v
        if space.order >= 1:
            e = tuple(1 if i == var else 0 for i in range(space.nvars))
            c[space.index[e]] = 1.0
        return cls(space, c)

    @classmethod
    def piecewise(cls, space: JetSpace, live, build, one=None) -> "Jet":
        """Jet over the columns of the mask live: build(live)'s coefficients
        on the live columns, the constant 1 on the columns one and 0 on the
        rest, in the dtype of build's jet.  build is called only when some
        column is live."""
        part = build(live).c if np.any(live) else np.zeros((space.ncoef, 0))
        c = np.zeros((space.ncoef, len(live)), dtype=part.dtype)
        if one is not None:
            c[0, one] = 1.0
        c[:, live] = part
        return cls(space, c)

    # -- basic properties ---------------------------------------------

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def batch(self) -> int:
        return self.c.shape[1]

    @property
    def value(self) -> np.ndarray:
        return self.c[0]

    def partial(self, gamma) -> np.ndarray:
        """Value of the partial derivative d^gamma at the base points."""
        gamma = tuple(gamma)
        if sum(gamma) > self.order:
            raise ValueError("derivative order exceeds jet order")
        i = self.space.index[gamma]
        return self.c[i] * self.space.fact[i]

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        sp = jet_space(self.nvars, order)
        return Jet(sp, self.c[: sp.ncoef])

    def derivative(self, var: int) -> "Jet":
        """Jet of the var-th partial derivative, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _deriv_table(self.nvars, self.order, var)
        sp = jet_space(self.nvars, self.order - 1)
        return Jet(sp, self.c[src] * fac[:, None])

    def columns(self, mask_or_idx) -> "Jet":
        return Jet(self.space, self.c[:, mask_or_idx])

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars:
                raise ValueError("jet variable count mismatch")
            k = min(self.order, other.order)
            a, b = self.truncate(k), other.truncate(k)
            if a.batch != b.batch:
                if a.batch == 1:
                    a = Jet(a.space, np.broadcast_to(a.c, (a.space.ncoef, b.batch)))
                elif b.batch == 1:
                    b = Jet(b.space, np.broadcast_to(b.c, (b.space.ncoef, a.batch)))
                else:
                    raise ValueError("jet batch mismatch")
            return a, b
        return self, Jet.constant(self.space, other)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Jet(a.space, a.c + b.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        a, b = self._coerce(other)
        return Jet(a.space, a.c - b.c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c * other)
        a, b = self._coerce(other)
        sp = a.space
        out = np.empty(a.c.shape, np.result_type(a.c, b.c))
        for k, (ia, ib) in enumerate(sp.prod):
            out[k] = np.sum(a.c[ia] * b.c[ib], axis=0)
        return Jet(sp, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c / other)
        a, b = self._coerce(other)
        return a * b.recip()

    def __rtruediv__(self, other):
        return self.recip() * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        if p == int(p) and abs(p) <= 64:
            return self.ipow(int(p))
        return self.power(float(p))

    def ipow(self, n: int) -> "Jet":
        if n == 0:
            return Jet.constant(self.space, np.ones(self.batch))
        if n < 0:
            return self.recip().ipow(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- univariate compositions ---------------------------------------

    def compose(self, series: np.ndarray) -> "Jet":
        """Compose with a univariate function given by its Taylor
        coefficients (shape (order+1, batch)) at the jet's value."""
        du = Jet(self.space, self.c.copy())
        du.c[0] = 0.0
        res = Jet.constant(self.space, series[self.order])
        for j in range(self.order - 1, -1, -1):
            res = res * du
            res.c[0] += series[j]
        return res

    def exp(self) -> "Jet":
        return self.compose(_series_exp(self.value, self.order))

    def sin(self) -> "Jet":
        return self.compose(_series_sincos(self.value, self.order, 0))

    def cos(self) -> "Jet":
        return self.compose(_series_sincos(self.value, self.order, 1))

    def sqrt(self) -> "Jet":
        return self.compose(_series_power(self.value, self.order, 0.5))

    def power(self, p: float) -> "Jet":
        return self.compose(_series_power(self.value, self.order, p))

    def recip(self) -> "Jet":
        return self.compose(_series_recip(self.value, self.order))

    def log(self) -> "Jet":
        return self.compose(_series_log(self.value, self.order))


# -- univariate Taylor coefficient generators ---------------------------


def _series_exp(u0, order):
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = np.exp(u0)
    for j in range(1, order + 1):
        out[j] = out[j - 1] / j
    return out


def _series_sincos(u0, order, shift):
    """sin at shift 0, cos at shift 1: the derivatives of sin cycle through
    s, c, -s, -c, and those of cos a quarter-turn later."""
    s, c = np.sin(u0), np.cos(u0)
    cyc = [s, c, -s, -c]
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    for j in range(order + 1):
        out[j] = cyc[(j + shift) % 4] / math.factorial(j)
    return out


def _check_positive(u0, what):
    if np.iscomplexobj(u0) or np.any(u0 <= 0):
        raise ValueError(f"{what} requires a positive real argument")


def _series_power(u0, order, p):
    _check_positive(u0, f"jet power {p}")
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = np.power(u0, p)
    for j in range(1, order + 1):
        out[j] = out[j - 1] * (p - (j - 1)) / (j * u0)
    return out


def _series_recip(u0, order):
    if np.any(np.abs(u0) < 1e-300):
        raise ValueError("jet reciprocal at a zero value")
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = 1.0 / u0
    for j in range(1, order + 1):
        out[j] = -out[j - 1] / u0
    return out


def _series_log(u0, order):
    _check_positive(u0, "jet log")
    out = np.empty((order + 1,) + u0.shape, dtype=u0.dtype)
    out[0] = np.log(u0)
    for j in range(1, order + 1):
        out[j] = (-1.0) ** (j - 1) / (j * np.power(u0, j))
    return out


# -- vector helpers ------------------------------------------------------


def jet_variables(order: int, *groups) -> list:
    """Variable jets for concatenated coordinate groups.

    Each group is an array of shape (k_i, B); the returned flat list of jets
    lives in the joint space of sum(k_i) variables.
    """
    arrays = [np.asarray(g, dtype=float) for g in groups if g is not None]
    arrays = [a if a.ndim == 2 else a[:, None] for a in arrays]
    nvars = sum(a.shape[0] for a in arrays)
    batch = max((a.shape[1] for a in arrays), default=1)
    sp = jet_space(nvars, order)
    out = []
    off = 0
    for a in arrays:
        if a.shape[1] != batch:
            a = np.broadcast_to(a, (a.shape[0], batch))
        for i in range(a.shape[0]):
            out.append(Jet.variable(sp, off + i, a[i]))
        off += a.shape[0]
    return out


def base_points(xj, kj):
    """Base points (x, xi) of the variable jets a SymbolFn hands its jet_fn,
    as real arrays of shape (d, B) and (s, B), and the jets' order."""
    first = (xj + kj)[0]

    def stack(js):
        if not js:
            return np.zeros((0, first.batch))
        return np.stack([j.value for j in js])

    return stack(xj), stack(kj), first.order


def radius(vs) -> np.ndarray:
    """Euclidean norm of the real base values of a list of jets."""
    return np.sqrt(np.sum(np.stack([v.value**2 for v in vs]), axis=0))


def norm2_jet(vs) -> Jet:
    """Sum of squares of a list of jets."""
    if not vs:
        raise ValueError("norm2 of an empty vector")
    acc = vs[0] * vs[0]
    for v in vs[1:]:
        acc = acc + v * v
    return acc


def jb_jet(vs) -> Jet:
    """Japanese bracket sqrt(1 + |v|^2) of a list of jets."""
    return (norm2_jet(vs) + 1.0).sqrt()
