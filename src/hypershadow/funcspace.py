"""Sampled representations of vector-valued functions on a finite window.

Everything downstream (orbits, reparametrizations, corrections, delay
fields) is carried by :class:`GridFunction`: uniform samples of a function
[-T, T] -> R^m with local polynomial interpolation, an extension policy
beyond the window, finite difference derivatives, and the norms the
contraction machinery needs: C^k sup norms, adjacent-node Lipschitz
estimates, exponentially weighted sup norms, and ball membership with a
per-level slack report.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EXTENSIONS",
    "GridFunction",
    "GridSampler",
    "CellTable",
    "BallRadii",
    "WeightParam",
    "BallReport",
    "ball_membership",
    "fd_weights",
    "lattice",
    "json_text",
    "write_lines",
    "save_grid_function",
    "load_grid_function",
    "pointwise",
    "real_number",
]

EXTENSIONS = ("constant-hold", "linear", "zero")


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


def real_number(name, value, finite=False):
    """``value`` as a float, or a ValueError naming ``name``.

    Rejects anything but a real number, booleans and numeric strings
    included, and with ``finite`` also NaN and infinities.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} is not numeric: {value!r}")
    value = float(value)
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} is not finite: {value!r}")
    return value


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


@functools.cache
def _slope_weights(geometry):
    # one-sided D^1 weights at both window ends of a grid with this
    # geometry, over its p + 1 end nodes
    half_width, delta, _, p = geometry
    nodes = lattice(half_width, delta)
    return (_frozen(fd_weights(nodes[:p + 1], nodes[0], 1)),
            _frozen(fd_weights(nodes[-p - 1:], nodes[-1], 1)))


class GridFunction:
    """Uniform samples of a function [-T, T] -> R^m.

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
    extension : str
        Behavior outside the window: "constant-hold" freezes the boundary
        value, "linear" continues with the one-sided boundary slope, and
        "zero" tapers linearly to 0 over one cell beyond each end (a hard
        jump to zero would break continuity at the boundary).

    Instances are immutable after construction. ``eval(t)`` builds, applies
    and drops a :class:`GridSampler`. Derivatives are cached per order;
    the nodes and the difference weights are tabulated once per grid
    geometry and shared, read-only, by every grid of that geometry.
    """

    __slots__ = ("half_width", "delta", "values", "interp_order",
                 "extension", "nodes", "geometry", "_dcache", "_slopes")

    def __init__(self, half_width, delta, values, interp_order=5,
                 extension="constant-hold"):
        half_width = float(half_width)
        delta = float(delta)
        if not (half_width > 0.0 and np.isfinite(half_width)):
            raise ValueError("half_width must be positive")
        if not (delta > 0.0 and np.isfinite(delta)):
            raise ValueError("delta must be positive")
        interp_order = int(interp_order)
        if interp_order < 3:
            raise ValueError("interp_order must be at least 3")
        if extension not in EXTENSIONS:
            raise ValueError(f"unknown extension policy {extension!r}")
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
        self.extension = extension
        self.nodes = nodes
        # everything a GridSampler depends on
        self.geometry = (half_width, delta, n, interp_order)
        self._dcache = {}
        self._slopes = None

    # -- basic geometry -------------------------------------------------

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]

    @classmethod
    def sample(cls, fn, half_width, delta, interp_order=5,
               extension="constant-hold"):
        """Build a GridFunction from ``fn(nodes)``, one batched call.

        ``fn`` maps the 1-D array of node times to (n,) or (n, m)
        values; wrap a function of one time with :func:`pointwise`. It
        gets a copy of the shared :func:`lattice`, which it may write
        into or return as the values.
        """
        return cls(half_width, delta, fn(lattice(half_width, delta).copy()),
                   interp_order=interp_order, extension=extension)

    def with_values(self, values, extension=None):
        """Same grid, new values; same extension policy unless given."""
        return GridFunction(self.half_width, self.delta, values,
                            self.interp_order, extension or self.extension)

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
                            self.values[k:-k], self.interp_order,
                            self.extension)

    # -- evaluation -----------------------------------------------------

    def eval(self, t):
        """Evaluate at ``t`` (scalar or 1-D array of times).

        Returns shape (m,) for scalar input and (len(t), m) otherwise.
        Inside the window this is local Lagrange interpolation of degree
        ``interp_order``, exact at the nodes; outside it follows the
        extension policy and stays continuous across the boundary.
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

    def _extend(self, u, side):
        # u: positive distances beyond the boundary; side -1 left, +1 right
        v = self.values[0 if side < 0 else -1]
        if self.extension == "constant-hold":
            return np.broadcast_to(v, (u.size, self.m)).copy()
        if self.extension == "zero":
            factor = np.clip(1.0 - u / self.delta, 0.0, 1.0)
            return factor[:, None] * v[None, :]
        slope = self._boundary_slope(side)
        return v[None, :] + (side * u)[:, None] * slope[None, :]

    def _boundary_slope(self, side):
        if self._slopes is None:
            w = self.interp_order + 1
            wl, wr = _slope_weights(self.geometry)
            self._slopes = (wl @ self.values[:w], wr @ self.values[-w:])
        return self._slopes[0] if side < 0 else self._slopes[1]

    def stencil_weights(self, k):
        """Row q: Fornberg weights of D^k at node q of a stencil, shared
        read-only by every grid of this order and step."""
        return _stencil_table(self.interp_order, k, self.delta)

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
        p = self.interp_order
        i = np.arange(self.n)
        start = np.clip(i - p // 2, 0, self.n - 1 - p)
        cols = start[:, None] + np.arange(p + 1)[None, :]
        dv = np.einsum("np,npm->nm", self.stencil_weights(k)[i - start],
                       np.take(self.values, cols, axis=0))
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

    def norm_razumikhin(self, weight, core_half=None):
        """sup over nodes of |g(rho)| exp(-eta |rho|), eta = weight.eta.

        With ``core_half`` only the nodes with |rho| <= core_half count.
        They are picked from this grid's own nodes, not by ``restrict``,
        whose recomputed nodes can differ in the last ulp.
        """
        nodes, vals = self.nodes, self.values
        if core_half is not None:
            keep = np.abs(nodes) <= core_half + 1e-12
            nodes, vals = nodes[keep], vals[keep]
        mags = np.linalg.norm(vals, axis=1)
        return float((mags * np.exp(-weight.eta * np.abs(nodes))).max())

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
                f"n={self.n}, m={self.m}, order={self.interp_order}, "
                f"extension={self.extension!r})")


def _stencil_start(cell, p, n):
    """First node of the p + 1 node interpolation stencil of each cell.

    The stencil is centred on the cell and shifted inward at the window
    ends; both :class:`GridSampler` and :class:`CellTable` read it here.
    """
    start = cell - (p - 1) // 2
    np.maximum(start, 0, out=start)
    return np.minimum(start, n - 1 - p, out=start)


class GridSampler:
    """Interpolation of the 1-D query array ``t`` on the geometry of ``g``.

    Holds stencil columns and normalised barycentric weights of the
    queries inside the window, masks and distances of those beyond it.
    ``apply(g)`` evaluates any GridFunction of that geometry there,
    bitwise equal to ``g.eval(t)``. It lives as long as its builder.
    """

    __slots__ = ("geometry", "cols", "weights", "inside", "edges")

    def __init__(self, g, t):
        t = np.asarray(t, dtype=float)
        T, p = g.half_width, g.interp_order
        self.geometry = g.geometry
        left, right = t < -T, t > T
        # (mask, distance beyond the end, side) per end with queries
        self.edges = [(mask, u, side) for mask, u, side in (
            (left, -(t[left] + T), -1), (right, t[right] - T, +1)) if u.size]
        self.inside = ~(left | right) if self.edges else None
        if self.edges:
            t = t[self.inside]
        cell = np.floor((t + T) / g.delta).astype(np.int64)
        np.maximum(cell, 0, out=cell)
        np.minimum(cell, g.n - 2, out=cell)
        start = _stencil_start(cell, p, g.n)
        self.cols = start[:, None] + np.arange(p + 1)[None, :]
        diff = t[:, None] - g.nodes[self.cols]
        # barycentric form; uniform spacing makes the weights binomial.
        # A query landing on a node takes the sample directly, keeping
        # node evaluation exact; one a subnormal distance from a node
        # overflows to inf here and is then treated as landing on it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = _binomial_weights(p) / diff
        bad = ~np.isfinite(w)
        if bad.any():
            rows = bad.any(axis=1)
            w[rows] = np.where(bad[rows], 1.0, 0.0)
        # the row sum's order is part of the bits: adding the columns
        # one at a time changes them at order 7
        w /= w.sum(axis=1)[:, None]
        self.weights = w

    def apply(self, g):
        """Values of ``g`` at the sampled times, shape (size, m)."""
        if g.geometry != self.geometry:
            raise ValueError(f"sampler of {self.geometry} read {g.geometry}")
        inner = np.einsum("kp,kpm->km", self.weights,
                          np.take(g.values, self.cols, axis=0))
        if self.inside is None:
            return inner
        out = np.empty((self.inside.size, g.m))
        out[self.inside] = inner
        for mask, u, side in self.edges:
            out[mask] = g._extend(u, side)
        return out


class CellTable:
    """The local interpolants of a scalar GridFunction, one row per cell.

    Row c holds the Newton coefficients Delta^k f / k!, k = 0..p, of the
    stencil :class:`GridSampler` uses for cell c, on the unit-spaced
    stencil nodes. ``table(t)`` evaluates at a time or a 1-D array of
    times with one floor for the cell, one gather of its row and p
    nested multiply-adds in w = (t - stencil start) / delta; beyond the
    window it follows the extension policy as ``g.eval1`` does. It
    agrees with ``g.eval1`` to rounding and, unlike a sampler, needs no
    set-up per query array, so it serves points that move every call.
    """

    __slots__ = ("grid", "coef", "left")

    def __init__(self, g):
        if g.m != 1:
            raise ValueError("a cell table needs m = 1 samples")
        p, n = g.interp_order, g.n
        start = _stencil_start(np.arange(n - 1), p, n)
        diff = g.values[:, 0]
        coef = np.empty((n - 1, p + 1))
        coef[:, 0] = diff[start]
        for k in range(1, p + 1):
            diff = np.diff(diff)
            coef[:, k] = diff[start] / math.factorial(k)
        self.grid = g
        self.coef = coef
        self.left = g.nodes[start]

    def __call__(self, t):
        g = self.grid
        T, p = g.half_width, g.interp_order
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        left, right = ts < -T, ts > T
        inside = ~(left | right)
        # the interpolant is evaluated only where it is read: a flow's
        # quadrature points lie mostly beyond its field's window
        x = ts[inside]
        cell = np.floor((x + T) / g.delta).astype(np.int64)
        np.maximum(cell, 0, out=cell)
        np.minimum(cell, g.n - 2, out=cell)
        c = self.coef[cell]
        w = (x - self.left[cell]) / g.delta
        val = c[:, p].copy()
        for k in range(p - 1, -1, -1):
            val *= w - k
            val += c[:, k]
        out = np.empty(ts.size)
        out[inside] = val
        for mask, side in ((left, -1), (right, +1)):
            if mask.any():
                out[mask] = g._extend(side * ts[mask] - T, side)[:, 0]
        return float(out[0]) if np.ndim(t) == 0 else out


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
class WeightParam:
    """Exponential weight rate eta > 0 of the weighted sup norm."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 0.0 and np.isfinite(self.eta)):
            raise ValueError("eta must be positive")


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
    """Write nodes and values as CSV plus a JSON sidecar.

    The CSV has header ``t,v0,...,v{m-1}`` and one row per node; the
    sidecar (same path with .json) records window, delta, interp_order
    and extension. Output is byte-deterministic for identical inputs.
    """
    csv_path = str(csv_path)
    cols = ",".join(f"v{i}" for i in range(g.m))
    row = ",".join(["{:.17g}"] * (g.m + 1)).format
    sidecar = json_text({
        "window": [-g.half_width, g.half_width],
        "delta": g.delta,
        "interp_order": g.interp_order,
        "extension": g.extension,
    })
    write_lines(csv_path, [f"t,{cols}"] + [
        row(*r) for r in np.column_stack([g.nodes, g.values]).tolist()])
    write_lines(os.path.splitext(csv_path)[0] + ".json", [sidecar])
    return csv_path


def load_grid_function(csv_path):
    """Inverse of :func:`save_grid_function`."""
    csv_path = str(csv_path)
    with open(os.path.splitext(csv_path)[0] + ".json") as fh:
        meta = json.load(fh)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    half_width = float(meta["window"][1])
    g = GridFunction(half_width, float(meta["delta"]), data[:, 1:],
                     interp_order=int(meta["interp_order"]),
                     extension=str(meta["extension"]))
    if np.abs(data[:, 0] - g.nodes).max() > 1e-9:
        raise ValueError("CSV node times disagree with the sidecar grid")
    return g
