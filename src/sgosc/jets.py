"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the value and all partial derivatives up to a fixed order at a
batch of base points.  Products are truncated Cauchy convolutions, so the
Leibniz rule holds to machine precision.  Compositions with smooth univariate
primitives (exp, sin, cos, powers, the reciprocal, log) go through one method,
Jet.compose, which walks the product's pair table once with each primitive's
Taylor coefficient recurrence, so a composition costs about one product.
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
        self.degree = np.array([sum(g) for g in self.indices], dtype=float)

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
        # The rows of degree <= 1 pair only with the value row: (0, 0), then
        # (0, k) and (k, 0).  They are one vectorized step, so an order-1
        # product costs a dual-number product.  Their sums start from +0.0,
        # as np.sum's do, so -0.0 + -0.0 reads +0.0 as in the pair table.
        n1 = min(sp.ncoef, sp.nvars + 1)
        out[:n1] = 0.0
        out[0] += a.c[0] * b.c[0]
        out[1:n1] += a.c[0] * b.c[1:n1]
        out[1:n1] += a.c[1:n1] * b.c[0]
        for k, (ia, ib) in enumerate(sp.prod[n1:], n1):
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

    def compose(self, f0, f1, row) -> "Jet":
        """f(u) for a univariate f with value f0 and derivative f1 at u's
        value.  The rows of degree <= 1 are the chain rule, summed from +0.0
        as products are.  Each higher row k, in degree order, is
        row(v, k, ia, ib) over k's product pairs; it reads only rows of v of
        lower degree, as row k is still 0."""
        sp, u = self.space, self.c
        v = np.zeros(u.shape, np.result_type(u, f0))
        v[0] += f0
        v[1 : sp.nvars + 1] += f1 * u[1 : sp.nvars + 1]
        for k in range(sp.nvars + 1, sp.ncoef):
            v[k] = row(v, k, *sp.prod[k])
        return Jet(sp, v)

    # The recurrences below are those of forward-mode Taylor arithmetic
    # (Griewank & Walther, Evaluating Derivatives, ch. 13) in the Euler
    # operator E g = sum deg(k) g_k, for which E f(u) = f'(u) E u.  Each row
    # is one einsum over the pairs: sum_p w_p u[ia_p] v[ib_p].

    def exp(self) -> "Jet":
        # E v = v E u: v_k = sum deg_ia u[ia] v[ib] / deg_k
        u, deg = self.c, self.space.degree
        e = np.exp(self.value)
        return self.compose(e, e, lambda v, k, ia, ib: _pair_sum(deg[ia], u[ia], v[ib]) / deg[k])

    def sin(self) -> "Jet":
        return self._sincos(np.sin(self.value), np.cos)

    def cos(self) -> "Jet":
        return self._sincos(np.cos(self.value), lambda u0: -np.sin(u0))

    def _sincos(self, f0, partner) -> "Jet":
        """f(u) for the pair f' = g, g' = -f with value f0 at u's value and
        g's value partner(u0): sin is (sin, cos), cos is (cos, -sin).  At
        order 0 nothing reads g, so partner is not called.  The partner g's
        rows are filled alongside f's: f_k = sum deg_ia u[ia] g[ib] / deg_k
        and g_k = -sum deg_ia u[ia] f[ib] / deg_k.  Row k of f reads g's rows
        of lower degree only, so g stops one degree below the order, and at
        order <= 1, where the chain rule gives every row, g is not built."""
        sp, u, deg = self.space, self.c, self.space.degree
        if sp.order == 0:
            return self.compose(f0, 0.0, None)
        g0 = partner(self.value)
        if sp.order == 1:
            return self.compose(f0, g0, None)
        g = np.zeros(u.shape, np.result_type(u, g0))
        g[0] = g0
        g[1 : sp.nvars + 1] = -f0 * u[1 : sp.nvars + 1]

        def row(v, k, ia, ib):
            if deg[k] < sp.order:
                g[k] = -_pair_sum(deg[ia], u[ia], v[ib]) / deg[k]
            return _pair_sum(deg[ia], u[ia], g[ib]) / deg[k]

        return self.compose(f0, g0, row)

    def sqrt(self) -> "Jet":
        return self.power(0.5)

    def power(self, p: float) -> "Jet":
        # u E v = p v E u: v_k = sum (p deg_ia - deg_ib) u[ia] v[ib] / (deg_k u0)
        u, u0, deg = self.c, self.value, self.space.degree
        _check_positive(u0, f"jet power {p}")
        f0 = np.power(u0, p)
        return self.compose(
            f0,
            f0 * p / u0,
            lambda v, k, ia, ib: _pair_sum(p * deg[ia] - deg[ib], u[ia], v[ib]) / (deg[k] * u0),
        )

    def recip(self) -> "Jet":
        # u v = 1: v_k = -sum u[ia] v[ib] / u0
        u, u0 = self.c, self.value
        if np.any(np.abs(u0) < 1e-300):
            raise ValueError("jet reciprocal at a zero value")
        f0 = 1.0 / u0
        return self.compose(
            f0, -f0 / u0, lambda v, k, ia, ib: -np.einsum("pb,pb->b", u[ia], v[ib]) / u0
        )

    def log(self) -> "Jet":
        # u E v = E u: v_k = (deg_k u_k - sum deg_ib u[ia] v[ib]) / (deg_k u0)
        u, u0, deg = self.c, self.value, self.space.degree
        _check_positive(u0, "jet log")
        return self.compose(
            np.log(u0),
            1.0 / u0,
            lambda v, k, ia, ib: (deg[k] * u[k] - _pair_sum(deg[ib], u[ia], v[ib])) / (deg[k] * u0),
        )


def _pair_sum(w, a, b):
    """sum_p w_p a_p b_p over the pairs of one row, for a and b of shape
    (pairs, batch)."""
    return np.einsum("p,pb,pb->b", w, a, b)


def _check_positive(u0, what):
    if np.iscomplexobj(u0) or np.any(u0 <= 0):
        raise ValueError(f"{what} requires a positive real argument")


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
