"""Sampled representations of vector-valued functions on a finite window.

Everything downstream (orbits, reparametrizations, corrections, delay
fields) is carried by :class:`GridFunction`: uniform samples of a function
[-T, T] -> R^m with local polynomial interpolation, zero beyond the
window (a linear taper to 0 over one cell past each end), finite
difference derivatives, and the norms the contraction machinery needs:
C^k sup norms, adjacent-node Lipschitz estimates, exponentially weighted
sup norms, and ball membership with a per-level slack report.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridFunction",
    "GridSampler",
    "Layout",
    "StencilRead",
    "stencil_read",
    "CellTable",
    "BallRadii",
    "BallReport",
    "ball_membership",
    "fd_weights",
    "lattice",
    "json_text",
    "write_lines",
    "save_grid_function",
    "load_grid_function",
    "read_record",
    "Entry",
    "check_entries",
    "pointwise",
    "real_number",
]

def pointwise(fn):
    """The batched form of ``fn``, a function written for one row.

    The library calls user functions with batches: times of shape (k,),
    states of shape (k, n). ``pointwise(fn)(*args)`` calls ``fn`` once
    per index of the leading axis of its array arguments, handing it
    row i of each, and passes 0-d arguments unchanged to every row. The
    results are stacked into a float array of shape (k, ...). Every
    array argument must have the same leading length.
    """
    def batched(*args):
        ks = {np.shape(a)[0] for a in args if np.ndim(a) > 0}
        if len(ks) != 1:
            raise ValueError(
                f"pointwise needs array arguments of one leading length, "
                f"got {sorted(ks)}")
        k = ks.pop()
        return np.asarray([fn(*(a if np.ndim(a) == 0 else a[i]
                                for a in args)) for i in range(k)],
                          dtype=float)

    return batched


def real_number(name, value):
    """``value`` as a float, NaN and infinities included; a ValueError
    names ``name`` for anything but a real number, booleans and numeric
    strings included, and for an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} is not numeric: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def fd_weights(x, x0, k):
    """Finite difference weights for the k-th derivative at ``x0``.

    Fornberg's recursion on arbitrary nodes ``x``; the returned ``w``
    satisfies sum_j w[j] f(x[j]) ~ f^(k)(x0) and is exact for
    polynomials of degree len(x) - 1.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k >= n:
        raise ValueError("need at least k + 1 nodes for a k-th derivative")
    c = np.zeros((n, k + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, k)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for v in range(mn, 0, -1):
                    c[i, v] = c1 * (v * c[i - 1, v - 1] - c5 * c[i - 1, v]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for v in range(mn, 0, -1):
                c[j, v] = (c4 * c[j, v] - v * c[j, v - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, k].copy()


def lattice(half_width, delta):
    """The nodes -T + i delta, i < n = floor(2T/delta + 1e-9) + 1, of the
    window [-T, T]: the one rule for which points a window holds. The
    window must hold whole cells, 2T/delta within 1e-6 of n - 1. The
    array is built once per geometry and shared read-only."""
    return _lattice(float(half_width), float(delta))


def _frozen(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def _lattice(half_width, delta):
    cells = 2.0 * half_width / delta
    n = int(np.floor(cells + 1e-9)) + 1
    if abs(cells - (n - 1)) > 1e-6:
        raise ValueError(
            f"window must hold an integer number of grid cells: "
            f"2 * {half_width!r} / {delta!r} = {cells:.12g}")
    return _frozen(-half_width + np.arange(n) * delta)


@functools.cache
def _stencil_table(p, k, delta):
    # row q: weights of D^k at node q of p + 1 nodes spaced delta apart
    return _frozen(np.array([
        fd_weights(np.arange(p + 1, dtype=float) * delta, q * delta, k)
        for q in range(p + 1)]))


@functools.cache
def _binomial_weights(p):
    # barycentric weights of p + 1 equally spaced nodes
    return _frozen(np.array([(-1.0) ** k * math.comb(p, k)
                             for k in range(p + 1)]))


def _barycentric(p, diff):
    # normalised barycentric weights at the distances diff (last axis)
    # from p + 1 equally spaced nodes; a point on a node, or a subnormal
    # distance from one (which overflows to inf), reads the sample
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = _binomial_weights(p) / diff
    bad = ~np.isfinite(w)
    if bad.any():
        w = np.where(bad.any(axis=-1, keepdims=True), bad, w)
    # one row sum: adding the columns one by one changes bits at order 7
    return w / w.sum(axis=-1, keepdims=True)


@functools.lru_cache(maxsize=32)
def _shift_tables(p, fracs):
    # table s, row r: the point s + fracs[r] on stencil nodes 0..p
    return _frozen(_barycentric(p, (np.arange(p + 1.0)[:, None] + fracs)
                                [:, :, None] - np.arange(p + 1.0)))


class GridFunction:
    """Uniform samples of a function [-T, T] -> R^m, zero beyond [-T, T].

    Parameters
    ----------
    half_width : float
        T > 0. The window is the closed interval [-T, T] and must hold an
        integer number of cells: 2T/delta within 1e-6 of an integer, not
        below it by more than 1e-9. The nodes are :func:`lattice`.
    delta : float
        Grid spacing > 0.
    values : array, shape (n,) or (n, m)
        One R^m value per node.
    interp_order : int
        Local polynomial degree for interpolation, at least 3.

    Past each end a grid tapers linearly from its end value to 0 over
    one cell (a jump would break continuity) and is 0 after that: the
    corrections X - 1, xhat_s and xhat_u live on the whole line and
    vanish there. Every other grid (flow maps, orbits, tabulated
    perturbation terms) is read inside its window only.

    Instances are immutable after construction. ``eval(t)`` builds, applies
    and drops a :class:`GridSampler`. Derivatives are cached per order;
    the nodes and the difference weights are tabulated once per grid
    geometry and shared, read-only, by every grid of that geometry.
    """

    __slots__ = ("half_width", "delta", "values", "interp_order", "nodes",
                 "geometry", "_dcache")

    def __init__(self, half_width, delta, values, interp_order=5):
        half_width = float(half_width)
        delta = float(delta)
        if not (half_width > 0.0 and np.isfinite(half_width)):
            raise ValueError("half_width must be positive")
        if not (delta > 0.0 and np.isfinite(delta)):
            raise ValueError("delta must be positive")
        interp_order = int(interp_order)
        if interp_order < 3:
            raise ValueError("interp_order must be at least 3")
        nodes = lattice(half_width, delta)
        n = nodes.size
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError("values must be a 1-D or 2-D array")
        if vals.shape[0] != n:
            raise ValueError(
                f"expected {n} nodes for this window, got {vals.shape[0]}")
        if n < interp_order + 1:
            raise ValueError("not enough nodes for the interpolation stencil")
        self.half_width = half_width
        self.delta = delta
        self.values = vals
        self.interp_order = interp_order
        self.nodes = nodes
        # everything a GridSampler depends on
        self.geometry = (half_width, delta, n, interp_order)
        self._dcache = {}

    # -- basic geometry -------------------------------------------------

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]

    @classmethod
    def sample(cls, fn, half_width, delta, interp_order=5):
        """Build a GridFunction from ``fn(nodes)``, one batched call.

        ``fn`` maps the 1-D array of node times to (n,) or (n, m)
        values; wrap a function of one time with :func:`pointwise`. It
        gets a copy of the shared :func:`lattice`, which it may write
        into or return as the values.
        """
        return cls(half_width, delta, fn(lattice(half_width, delta).copy()),
                   interp_order=interp_order)

    def with_values(self, values):
        """Same grid, new values."""
        return GridFunction(self.half_width, self.delta, values,
                            self.interp_order)

    def restrict(self, half_width):
        """Restriction to a smaller symmetric window whose ends lie on nodes."""
        if half_width > self.half_width + 1e-12:
            raise ValueError("cannot restrict to a larger window")
        off = (self.half_width - float(half_width)) / self.delta
        k = int(round(off))
        if abs(off - k) > 1e-6:
            raise ValueError("new window ends must lie on grid nodes")
        if k == 0:
            return self
        return GridFunction(self.half_width - k * self.delta, self.delta,
                            self.values[k:-k], self.interp_order)

    # -- evaluation -----------------------------------------------------

    def eval(self, t):
        """Evaluate at ``t`` (scalar or 1-D array of times).

        Returns shape (m,) for scalar input and (len(t), m) otherwise.
        Inside the window this is local Lagrange interpolation of degree
        ``interp_order``, exact at the nodes; outside it tapers to 0 over
        one cell and stays continuous across the boundary.
        """
        out = GridSampler(self, np.atleast_1d(t)).apply(self)
        return out[0] if np.ndim(t) == 0 else out

    def eval1(self, t):
        """Evaluate a scalar-valued (m = 1) function; returns float or 1-D array."""
        if self.m != 1:
            raise ValueError("eval1 requires m = 1")
        res = self.eval(t)
        return float(res[0]) if np.ndim(t) == 0 else res[:, 0]

    def __call__(self, t):
        return self.eval(t)

    def _extend(self, inner, inside, edges):
        # the reads at queries located by _locate (or slices of them):
        # inner, (j, m) or (j,) when m = 1, inside the window, and at
        # distance u > 0 past an end the end value tapered to 0 over a cell
        if inside is None:
            return inner
        size = len(inner) + sum(len(u) for _, u, _ in edges)
        out = np.empty((size,) + inner.shape[1:])
        out[inside] = inner
        for mask, u, side in edges:
            end = self.values[0 if side < 0 else -1].reshape(inner.shape[1:])
            out[mask] = np.multiply.outer(
                np.maximum(1.0 - u / self.delta, 0.0), end)
        return out

    # -- derivatives and norms -------------------------------------------

    def derivative(self, k=1):
        """k-th derivative sampled on the same grid via finite differences.

        Stencils take interp_order + 1 consecutive nodes, centered in the
        interior and one-sided at the window ends, so the difference order
        is at least interp_order - k + 1. Rejects k > interp_order - 1.
        """
        k = int(k)
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k > self.interp_order - 1:
            raise ValueError("derivative order exceeds interp_order - 1")
        cached = self._dcache.get(k)
        if cached is not None:
            return cached
        dv = stencil_read(self.geometry, Layout(self.delta / 2.0, 1 - self.n,
                                                2, self.n), k=k).apply(self)
        out = self._dcache[k] = self.with_values(dv)
        return out

    def _level_sup(self, j):
        g = self if j == 0 else self.derivative(j)
        return float(np.linalg.norm(g.values, axis=1).max())

    def norm_ck(self, k):
        """max over 0 <= j <= k of the nodal sup of |D^j g| (Euclidean on R^m)."""
        k = int(k)
        if k < 0 or k > self.interp_order - 1:
            raise ValueError("k must satisfy 0 <= k <= interp_order - 1")
        return max(self._level_sup(j) for j in range(k + 1))

    def lipschitz_estimate(self, k=0):
        """Largest adjacent-node slope of D^k g.

        This is a lower estimate of the true Lipschitz constant of the
        sampled function; it is exact for piecewise linear data.
        """
        k = int(k)
        if k < 0 or k > self.interp_order - 1:
            raise ValueError("k must satisfy 0 <= k <= interp_order - 1")
        g = self if k == 0 else self.derivative(k)
        steps = np.linalg.norm(np.diff(g.values, axis=0), axis=1)
        return float(steps.max() / self.delta)

    def norm_razumikhin(self, eta, core_half=None):
        """sup over nodes of |g(rho)| exp(-eta |rho|), eta the weight rate.

        With ``core_half`` only the nodes with |rho| <= core_half count.
        They are picked from this grid's own nodes, not by ``restrict``,
        whose recomputed nodes can differ in the last ulp.
        """
        nodes, vals = self.nodes, self.values
        if core_half is not None:
            keep = np.abs(nodes) <= core_half + 1e-12
            nodes, vals = nodes[keep], vals[keep]
        mags = np.linalg.norm(vals, axis=1)
        return float((mags * np.exp(-eta * np.abs(nodes))).max())

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, GridFunction):
            raise TypeError("expected a GridFunction")
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        if (self.n != other.n
                or abs(self.half_width - other.half_width) > 1e-9
                or abs(self.delta - other.delta) > 1e-12):
            raise ValueError("window mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __repr__(self):
        return (f"GridFunction(T={self.half_width:g}, delta={self.delta:g}, "
                f"n={self.n}, m={self.m}, order={self.interp_order})")


def _stencil_start(cell, p, n):
    """First node of the p + 1 node interpolation stencil of each cell.

    The stencil is centred on the cell and shifted inward at the window
    ends; both :class:`GridSampler` and :class:`CellTable` read it here.
    """
    start = cell - (p - 1) // 2
    np.maximum(start, 0, out=start)
    return np.minimum(start, n - 1 - p, out=start)


def _locate(g, t):
    """(inside, x, cell, edges) of the times ``t`` (a scalar or a 1-D
    array) on g's geometry: the mask of the queries in the window (None
    if all are), those queries x and their cells, and per end with
    queries past it (mask, distance past the end, side -1 or +1). Both
    engines locate their queries here and read through ``g._extend``.
    """
    T = g.half_width
    t = np.atleast_1d(np.asarray(t, dtype=float))
    left, right = t < -T, t > T
    edges = [(mask, u, side) for mask, u, side in (
        (left, -(t[left] + T), -1), (right, t[right] - T, +1)) if u.size]
    inside = ~(left | right) if edges else None
    if edges:
        t = t[inside]
    cell = np.floor((t + T) / g.delta).astype(np.int64)
    np.maximum(cell, 0, out=cell)
    np.minimum(cell, g.n - 2, out=cell)
    return inside, t, cell, edges


class GridSampler:
    """Interpolation of the 1-D query array ``t`` on the geometry of ``g``.

    Holds stencil columns and normalised barycentric weights of the
    queries inside the window, masks and distances of those beyond it.
    ``apply(g)`` evaluates any GridFunction of that geometry there,
    bitwise equal to ``g.eval(t)``. It lives as long as its builder.
    """

    __slots__ = ("geometry", "cols", "weights", "inside", "edges")

    def __init__(self, g, t):
        p = g.interp_order
        self.geometry = g.geometry
        self.inside, t, cell, self.edges = _locate(g, t)
        start = _stencil_start(cell, p, g.n)
        self.cols = start[:, None] + np.arange(p + 1)[None, :]
        self.weights = _barycentric(p, t[:, None] - g.nodes[self.cols])

    def apply(self, g):
        """Values of ``g`` at the sampled times, shape (size, m)."""
        if g.geometry != self.geometry:
            raise ValueError(f"sampler of {self.geometry} read {g.geometry}")
        inner = np.einsum("kp,kpm->km", self.weights,
                          np.take(g.values, self.cols, axis=0))
        return g._extend(inner, self.inside, self.edges)


class Layout(NamedTuple):
    """The points (first + i step + offsets[k]) unit, i < count, i-major:
    a lattice of integers ``first``, ``step`` and ``count``, ``offsets``
    ascending in [0, 1), whose cells and fractions on a grid of whole
    units are known without rounding a time."""

    unit: float
    first: int
    step: int
    count: int
    offsets: tuple = (0.0,)


@functools.lru_cache(maxsize=64)
def stencil_read(geometry, layout, rows=None, k=0):
    """The :class:`StencilRead` of the rows ``(start, stop)`` (None: all)
    of ``layout``, built once and kept past the run that asked for it."""
    rows = slice(None) if rows is None else slice(*rows)
    return StencilRead(geometry, layout, rows, k)


class StencilRead:
    """The points ``rows`` (a slice) of a :class:`Layout` read from any
    grid of one geometry, on which it is a uniform cell pattern: cells
    ``stride`` apart, each with R points at fixed fractions. Table s
    (R, p + 1) weighs a stencil starting s nodes before its cell c,
    shifted inward at the window ends: barycentric, or for a derivative
    order k > 0, whose points must be nodes, Fornberg's D^k row s.
    ``apply(g)`` is one matrix product of the interior table over p + 1
    shifted slices of g's samples, one of the boundary rows at each end
    and ``g._extend`` past the window.
    """

    __slots__ = ("geometry", "table", "slices", "ends", "cut", "inside",
                 "edges")

    def __init__(self, geometry, layout, rows=slice(None), k=0):
        T, delta, n, p = self.geometry = geometry
        unit, first, step, count, offsets = layout
        H, S = round(T / unit), round(delta / unit)
        if (max(abs(T / unit - H), abs(delta / unit - S)) > 1e-6 or S < 1
                or step % S and S % step):
            raise ValueError(f"{layout} is no cell pattern on {geometry}")
        # base i is H + first + i step units past the grid's first node,
        # and point i of the pattern in cell first + i // R stride
        pos, K = H + first, len(offsets)
        fracs = tuple((pos % min(S, step) + j + o) / S
                      for j in range(0, S, step) for o in offsets)
        tables, centre = ((_stencil_table(p, k, delta)[:, None], p // 2) if k
                          else (_shift_tables(p, fracs), (p - 1) // 2))
        start, stop, _ = rows.indices(count * K)
        first, stride, R = pos // S, max(step // S, 1), len(fracs)
        lead = (pos % S) // step * K + start
        i = lead + np.arange(stop - start)
        u = first + i // R * stride + np.asarray(fracs)[i % R]
        # cells to the last read; by shift: boundary, a..b - 1, boundary
        cells = first + stride * np.arange(-(-(lead + i.size) // R))
        shift = np.clip(cells - np.clip(cells - centre, 0, n - 1 - p), 0, p)
        a, b = np.searchsorted(shift, [centre, centre + 1])
        self.table = tables[centre]
        c0, c1 = (cells[a], cells[b - 1] + 1) if b > a else (centre, centre)
        self.slices = [slice(c0 - centre + j, c1 - centre + j, stride)
                       for j in range(p + 1)]
        self.ends = (tables[shift[:a]].reshape(-1, p + 1),
                     tables[shift[b:]].reshape(-1, p + 1))
        # the points in the window, lo..hi - 1, and the taper past it
        lo = int(np.searchsorted(u, 0.0))
        hi = int(np.searchsorted(u, n - 1.0, side="right"))
        self.cut = slice(lead + lo, lead + hi)
        self.inside = slice(lo, hi) if hi - lo < u.size else None
        self.edges = [(mask, dist * delta, side) for mask, dist, side in (
            (slice(0, lo), -u[:lo], -1),
            (slice(hi, u.size), u[hi:] - (n - 1), +1)) if dist.size]

    def apply(self, g):
        """Values of ``g`` at the points, shape (count, m)."""
        if g.geometry != self.geometry:
            raise ValueError(f"reader of {self.geometry} read {g.geometry}")
        v, (R, width), m = g.values, self.table.shape, g.values.shape[1]
        mid = self.table @ np.concatenate([v[s] for s in self.slices]
                                          ).reshape(width, -1)
        # the interior's (R, cells m) in the points' order, (cells R, m)
        block = np.concatenate([
            self.ends[0] @ v[:width], mid.reshape(R, -1, m).swapaxes(0, 1)
            .reshape(-1, m), self.ends[1] @ v[len(v) - width:]])
        return g._extend(block[self.cut], self.inside, self.edges)


class CellTable:
    """The local interpolants of a scalar GridFunction, one column per cell.

    Column c holds the Newton coefficients Delta^k f / k!, k = 0..p, of
    the stencil :class:`GridSampler` uses for cell c, on the unit-spaced
    stencil nodes, one contiguous row per order k, shape (p + 1, n - 1).
    ``table(t)`` evaluates at a time or a 1-D array of times with one
    floor for the cell, one gather per order from its row and p nested
    multiply-adds in w = (t - stencil start) / delta; it locates and
    tapers as a sampler does, so beyond the window it is ``g.eval1``
    bit for bit. It agrees with ``g.eval1`` to rounding and needs no
    set-up per query array, so it serves points that move every call.
    """

    __slots__ = ("grid", "coef", "left")

    def __init__(self, g):
        if g.m != 1:
            raise ValueError("a cell table needs m = 1 samples")
        p, n = g.interp_order, g.n
        start = _stencil_start(np.arange(n - 1), p, n)
        diff = g.values[:, 0]
        coef = np.empty((p + 1, n - 1))
        coef[0] = diff[start]
        for k in range(1, p + 1):
            diff = np.diff(diff)
            coef[k] = diff[start] / math.factorial(k)
        self.grid = g
        self.coef = coef
        self.left = g.nodes[start]

    def __call__(self, t):
        g = self.grid
        p = g.interp_order
        # the interpolant is evaluated only inside the window; queries
        # past it take the taper alone
        inside, x, cell, edges = _locate(g, t)
        coef = self.coef
        w = (x - self.left.take(cell)) / g.delta
        val = coef[p].take(cell)
        for k in range(p - 1, -1, -1):
            val *= w - k
            val += coef[k].take(cell)
        val = g._extend(val, inside, edges)
        return float(val[0]) if np.ndim(t) == 0 else val


@dataclass(frozen=True)
class BallRadii:
    """Radii (c_0, ..., c_l, c_l^Lip) of a derivative-level ball.

    Entry j bounds the sup of the j-th derivative of the displacement from
    the center; the last entry bounds the Lipschitz constant of the top
    derivative. Length is l + 2 with every entry nonnegative.
    """

    c: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in self.c)
        if len(c) < 2:
            raise ValueError("need at least (c_0, c_0^Lip)")
        if any((not np.isfinite(x)) or x < 0.0 for x in c):
            raise ValueError("radii must be finite and nonnegative")
        object.__setattr__(self, "c", c)

    @property
    def ell(self):
        return len(self.c) - 2


@dataclass(frozen=True)
class BallReport:
    """Outcome of a ball membership check.

    ``measured`` holds the per-level sups of the displacement, levels
    0..l followed by the top-level Lipschitz estimate; ``slack`` is
    limits - measured, so negative entries are violations.
    """

    ok: bool
    measured: tuple
    limits: tuple
    slack: tuple

    def __bool__(self):
        return self.ok


def ball_membership(g, radii):
    """Check whether g lies in the ball of ``radii`` around 0.

    Levels 0..l compare nodal sups of derivatives of g against the
    radii; the last entry compares the adjacent-node Lipschitz estimate
    of the top derivative. For a ball around another centre, pass the
    difference.
    """
    ell = radii.ell
    measured = [g._level_sup(j) for j in range(ell + 1)]
    measured.append(g.lipschitz_estimate(ell))
    measured = tuple(measured)
    slack = tuple(lim - m for lim, m in zip(radii.c, measured))
    ok = all(s >= 0.0 for s in slack)
    return BallReport(ok=ok, measured=measured, limits=radii.c, slack=slack)


def json_text(obj):
    """``obj`` as strict JSON artifact text, keys sorted and indented by
    two; NaN or infinity raise ValueError before any file is opened."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def write_lines(path, lines):
    """Write ``lines`` to ``path``, each ending in a newline; the writer
    of every artifact, a JSON one being the single line of
    :func:`json_text`. Returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def save_grid_function(g, csv_path):
    """Write nodes and values as CSV: header ``t,v0,...,v{m-1}``, one
    row per node, byte-deterministic for identical inputs. The caller
    records the geometry (window, delta, interp_order)."""
    cols = ",".join(f"v{i}" for i in range(g.m))
    row = ",".join(["{:.17g}"] * (g.m + 1)).format
    return write_lines(csv_path, [f"t,{cols}"] + [
        row(*r) for r in np.column_stack([g.nodes, g.values]).tolist()])


REQUIRED = "required"


class Entry(NamedTuple):
    """One entry of an input: its ``kind`` ("number", "integer", "string",
    "object", "list" of numbers, "list of objects" or "number or list",
    which the verb reading it checks), its ``default`` (REQUIRED, None if
    it may be absent, or a value) and its ``range``: "positive",
    "nonnegative" or the least value of a number, the choices of a
    string, the shape of a list (None for any length; a list without one
    is a number)."""

    kind: str
    default: object = REQUIRED
    range: object = None

    def check(self, label, value):
        """``value`` as the program reads it (a float, an int, lists of
        floats), or a ValueError that starts with ``label``."""
        kind, rng = self.kind, self.range
        if kind == "list" and rng:
            if not (isinstance(value, (list, tuple, np.ndarray))
                    and rng[0] in (None, len(value))):
                dims = " x ".join(str(n or "n") for n in rng)
                raise ValueError(f"{label} must be a list of {dims} numbers, "
                                 f"got {value!r}")
            return [Entry("list", None, rng[1:] or None).check(label, x)
                    for x in value]
        if kind == "object" and not isinstance(value, dict):
            raise ValueError(f"{label} must be an object, got {value!r}")
        if kind == "string" and not (isinstance(value, str) and value
                                     and (rng is None or value in rng)):
            want = "one of " + ", ".join(rng) if rng else "a non-empty string"
            raise ValueError(f"{label} must be {want}, got {value!r}")
        if kind == "list of objects" and not (
                isinstance(value, list)
                and all(isinstance(x, dict) for x in value)):
            raise ValueError(f"{label} must be a list of objects, got "
                             f"{value!r}")
        if kind in ("object", "list of objects", "string", "number or list"):
            return value
        if kind == "integer" and (isinstance(value, bool) or not (
                isinstance(value, numbers.Integral)
                or isinstance(value, float) and value.is_integer())):
            raise ValueError(f"{label} must be an integer, got {value!r}")
        x = real_number(label, value)
        if rng is not None and not (math.isfinite(x) and (
                x > 0.0 if rng == "positive"
                else x >= (0.0 if rng == "nonnegative" else rng))):
            words = rng if isinstance(rng, str) else f"at least {rng}"
            finite = "" if kind == "integer" else " and finite"
            raise ValueError(f"{label} must be {words}{finite}, got {value!r}")
        if not math.isfinite(x):
            raise ValueError(f"{label} is not finite: {value!r}")
        return int(value) if kind == "integer" else x


def check_entries(obj, table, section, label=str):
    """The object ``obj`` read through ``table`` (name -> Entry), every
    entry present, an absent or null one at its default. A ValueError
    names ``section`` and an unknown or missing entry, or ``label(name)``
    and a value of the wrong kind or out of range."""
    unknown = [key for key in obj if key not in table]
    if unknown:
        raise ValueError(f"{section}: unknown entry {unknown[0]!r}; it "
                         f"takes {', '.join(table) or 'none'}")
    missing = [name for name, entry in table.items()
               if entry.default is REQUIRED and obj.get(name) is None]
    if missing:
        raise ValueError(f"{section}: missing entry {missing[0]!r}")
    return {name: entry.default if obj.get(name) is None
            else entry.check(label(name), obj[name])
            for name, entry in table.items()}


def _unique_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"entry {key!r} appears twice")
        seen.add(key)
    return dict(pairs)


def read_record(path, table, label=str):
    """The JSON object in ``path`` read through ``table`` by
    :func:`check_entries`; the file is the section, and no key repeats."""
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(rec, dict):
        held = {list: "a list", str: "a string", bool: "a boolean",
                type(None): "null"}.get(type(rec), "a number")
        raise ValueError(f"{path}: holds {held}, not an object")
    return check_entries(rec, table, path, label)


def load_grid_function(csv_path, half_width, delta, interp_order):
    """Inverse of :func:`save_grid_function` onto the geometry the caller
    recorded: the one way in for a grid from outside, so a ValueError
    naming the file refuses a value that is not a finite number, a row
    count that does not fit the window and node times off the grid."""
    try:
        # loadtxt gets lines, not a path, so it imports no gzip; the lines
        # it would skip (blank or comment only) go first, because it warns
        # on a table without rows, which GridFunction refuses below
        with open(csv_path, encoding="utf-8") as fh:
            fh.readline()
            rows = [line for line in fh if line.split("#", 1)[0].strip()]
        data = (np.loadtxt(rows, delimiter=",", ndmin=2) if rows
                else np.empty((0, 1)))
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    bad = ~np.isfinite(data)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{csv_path}: {f'v{j - 1}' if j else 't'} is not "
                         f"finite at node t = {data[i, 0]:g}: "
                         f"{data[i, j]:g}")
    try:
        g = GridFunction(half_width, delta, data[:, 1:],
                         interp_order=interp_order)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    if np.abs(data[:, 0] - g.nodes).max() > 1e-9:
        raise ValueError(f"{csv_path}: node times disagree with the grid "
                         f"of window {g.half_width:g}, delta {g.delta:g}")
    return g
