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

import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EXTENSIONS",
    "GridFunction",
    "GridSampler",
    "BallRadii",
    "WeightParam",
    "BallReport",
    "ball_membership",
    "fd_weights",
    "save_grid_function",
    "load_grid_function",
]

EXTENSIONS = ("constant-hold", "linear", "zero")


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


class GridFunction:
    """Uniform samples of a function [-T, T] -> R^m.

    Parameters
    ----------
    half_width : float
        T > 0. The window is the closed interval [-T, T] and must hold an
        integer number of cells: 2T/delta within 1e-9 of an integer.
        Node count is floor(2T/delta) + 1.
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
    difference weights are shared with grids made by ``with_values``.
    """

    __slots__ = ("half_width", "delta", "values", "interp_order",
                 "extension", "nodes", "geometry", "_dcache", "_slopes",
                 "_stencils")

    def __init__(self, half_width, delta, values, interp_order=5,
                 extension="constant-hold", _stencils=None):
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
        cells = 2.0 * half_width / delta
        n = int(np.floor(cells + 1e-9)) + 1
        if abs(cells - (n - 1)) > 1e-6:
            raise ValueError("window must hold an integer number of cells")
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
        self.nodes = -half_width + np.arange(n) * delta
        # everything a GridSampler depends on
        self.geometry = (half_width, delta, n, interp_order)
        self._dcache = {}
        self._slopes = None
        self._stencils = {} if _stencils is None else _stencils

    # -- basic geometry -------------------------------------------------

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]

    @property
    def window(self):
        return (-self.half_width, self.half_width)

    @classmethod
    def sample(cls, fn, half_width, delta, interp_order=5,
               extension="constant-hold"):
        """Build a GridFunction by sampling ``fn`` at the nodes.

        ``fn`` may be vectorized over a 1-D array of times or accept one
        scalar at a time.
        """
        n = int(np.floor(2.0 * float(half_width) / float(delta) + 1e-9)) + 1
        nodes = -float(half_width) + np.arange(n) * float(delta)
        try:
            vals = np.asarray(fn(nodes), dtype=float)
            if vals.shape[0] != n:
                raise ValueError
        except Exception:
            vals = np.asarray([fn(t) for t in nodes], dtype=float)
        return cls(half_width, delta, vals, interp_order=interp_order,
                   extension=extension)

    def with_values(self, values, extension=None):
        """Same grid, new values; same extension policy unless given."""
        return GridFunction(self.half_width, self.delta, values,
                            self.interp_order, extension or self.extension,
                            self._stencils)

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
                            self.extension, self._stencils)

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
            x = self.nodes
            wl, wr = self._stencil(("slope", self.half_width), lambda: (
                fd_weights(x[:w], x[0], 1), fd_weights(x[-w:], x[-1], 1)))
            self._slopes = (wl @ self.values[:w], wr @ self.values[-w:])
        return self._slopes[0] if side < 0 else self._slopes[1]

    def _stencil(self, key, build):
        # weights shared by the grids of one step and order, built once
        w = self._stencils.get(key)
        if w is None:
            w = self._stencils[key] = build()
        return w

    def stencil_weights(self, k):
        """Row q: Fornberg weights of D^k at node q of a stencil."""
        p = self.interp_order
        return self._stencil(k, lambda: np.array([
            fd_weights(np.arange(p + 1, dtype=float) * self.delta,
                       q * self.delta, k) for q in range(p + 1)]))

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

    def norm_razumikhin(self, weight):
        """sup over nodes of |g(rho)| exp(-eta |rho|)."""
        eta = weight.eta if isinstance(weight, WeightParam) else float(weight)
        mags = np.linalg.norm(self.values, axis=1)
        return float((mags * np.exp(-eta * np.abs(self.nodes))).max())

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

    def __mul__(self, scalar):
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_values(-self.values)

    def __repr__(self):
        return (f"GridFunction(T={self.half_width:g}, delta={self.delta:g}, "
                f"n={self.n}, m={self.m}, order={self.interp_order}, "
                f"extension={self.extension!r})")


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
        np.clip(cell, 0, g.n - 2, out=cell)
        start = np.clip(cell - (p - 1) // 2, 0, g.n - 1 - p)
        self.cols = start[:, None] + np.arange(p + 1)[None, :]
        diff = t[:, None] - g.nodes[self.cols]
        # barycentric form; uniform spacing makes the weights binomial.
        # A query landing on a node takes the sample directly, keeping
        # node evaluation exact.
        bary = np.array([(-1.0) ** k * math.comb(p, k) for k in range(p + 1)])
        # a query a subnormal distance from a node overflows to inf here
        # and is then treated as landing on the node
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = bary / diff
        bad = ~np.isfinite(w)
        if bad.any():
            rows = bad.any(axis=1)
            w[rows] = np.where(bad[rows], 1.0, 0.0)
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

    def level(self, j):
        if j < 0 or j > self.ell:
            raise ValueError("no such derivative level")
        return self.c[j]

    @property
    def lip(self):
        return self.c[-1]

    @classmethod
    def uniform(cls, ell, value):
        return cls((float(value),) * (ell + 2))


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


def ball_membership(g, center, radii):
    """Check whether g lies in the ball of ``radii`` around ``center``.

    Levels 0..l compare nodal sups of derivatives of g - center against
    the radii; the last entry compares the adjacent-node Lipschitz
    estimate of the top derivative.
    """
    center._check_compatible(g)
    diff = g - center
    ell = radii.ell
    measured = [diff._level_sup(j) for j in range(ell + 1)]
    measured.append(diff.lipschitz_estimate(ell))
    measured = tuple(measured)
    slack = tuple(lim - m for lim, m in zip(radii.c, measured))
    ok = all(s >= 0.0 for s in slack)
    return BallReport(ok=ok, measured=measured, limits=radii.c, slack=slack)


def save_grid_function(g, csv_path):
    """Write nodes and values as CSV plus a JSON sidecar.

    The CSV has header ``t,v0,...,v{m-1}`` and one row per node; the
    sidecar (same path with .json) records window, delta, interp_order
    and extension. Output is byte-deterministic for identical inputs.
    """
    csv_path = str(csv_path)
    cols = ",".join(f"v{i}" for i in range(g.m))
    lines = [f"t,{cols}"]
    for t, row in zip(g.nodes, g.values):
        cells = ",".join(f"{x:.17g}" for x in row)
        lines.append(f"{t:.17g},{cells}")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "window": [-g.half_width, g.half_width],
        "delta": g.delta,
        "interp_order": g.interp_order,
        "extension": g.extension,
    }
    with open(os.path.splitext(csv_path)[0] + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
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
