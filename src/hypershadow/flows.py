"""One-dimensional reparametrization flows.

The time change is carried by a scalar field X = 1 + xhat with
sup|xhat| < 1, so X stays positive and its flow phi, solving
phi' = X(phi) with phi(0) = 0, is a strictly increasing bijection.
solve_flow builds the inverse first, from the exact identity
phi_inv(t) = int_0^t dsigma / X(sigma) summed per cell by Gauss
quadrature, and then gets phi at every grid node by Newton sweeps on
phi_inv(phi(t)) = t, all of it vectorized. X - 1 is 0 from one cell
past the field's window on, so both maps are translations beyond the
support |sigma| <= S, S that reach in whole cells: the quadrature and
the sweeps run only where X moves, and the rest of each table is its
value at the support's end plus the distance past it. The sweeps
start from cubic (4-point Lagrange) interpolation of the inverse
table, and a node takes no further sweep once its measured residual
is at or below 1e-13, so each sweep re-reads only the nodes still
above that floor.
Every read of X, at the quadrature points and at the points that move
every sweep, goes through the field's cell table
(:class:`~hypershadow.funcspace.CellTable`, built once per field from
the same stencils as ``xhat.eval1``), so a solve builds no sampler on
the field's grid. The reparametrized history maps are
alpha(rho, s) = phi(phi_inv(rho) + s); phi at moving points is read
from the flow's own cell table, ``fl.fast_phi``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .funcspace import BallRadii, CellTable, GridFunction, lattice

__all__ = [
    "NumericalError",
    "FlowGuardError",
    "ScalarField",
    "Flow",
    "solve_flow",
    "flow_cells",
    "inverse_flow_factor",
    "composite_factor",
]


class NumericalError(RuntimeError):
    """Raised when a non-finite value enters the operator.

    Subclasses name other numerical failures; ``reason`` is the short
    label a driver prints before the message.
    """

    reason = "non-finite value"


class FlowGuardError(NumericalError):
    """Raised when a computed flow fails one of its own checks."""

    reason = "flow guard failed"


class ScalarField:
    """A scalar vector field X = 1 + xhat on the line.

    ``xhat`` stores the deviation X - 1 (m = 1); ``ball`` holds the
    radii (t_0, ..., t_l, t_l^Lip) the field is asserted to live in,
    with t_0 < 1 so X remains positive. Construction rejects fields
    with a non-finite node or whose nodal sup deviation reaches 1.
    """

    def __init__(self, xhat, ball):
        if not isinstance(xhat, GridFunction):
            raise TypeError("xhat must be a GridFunction")
        if xhat.m != 1:
            raise ValueError("a scalar field needs m = 1 samples")
        if not isinstance(ball, BallRadii):
            raise TypeError("ball must be BallRadii")
        if ball.c[0] >= 1.0:
            raise ValueError("ball radius t_0 must be < 1")
        bad = ~np.isfinite(xhat.values).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"X - 1 is not finite at node t = "
                             f"{xhat.nodes[i]:g}: {xhat.values[i, 0]:g}")
        if float(np.abs(xhat.values).max()) >= 1.0:
            raise ValueError("sup|X - 1| must be < 1")
        self.xhat = xhat
        self.ball = ball

    @property
    def t0(self):
        return self.ball.c[0]

    def sup_deviation(self):
        return float(np.abs(self.xhat.values).max())

    @classmethod
    def identity(cls, half_width, delta, ball=None):
        """X = 1 everywhere: its deviation is 0 at every node."""
        g = GridFunction.sample(np.zeros_like, half_width, delta)
        return cls(g, ball if ball is not None else BallRadii((0.0, 0.0)))

    @functools.cached_property
    def _cells(self):
        # built on first lookup; the field never changes after that
        return CellTable(self.xhat)

    def fast_value(self, t):
        """X(t) = 1 + xhat(t) at a time or a 1-D array of times.

        Read from the field's cell table, which evaluates the stencils
        of ``xhat.eval1`` and agrees with it to rounding.
        """
        return 1.0 + self._cells(t)


class Flow:
    """The flow of a scalar field and its inverse.

    ``phi`` is sampled in t, ``phi_inv`` in rho; both windows are large
    enough that each covers the image of the other. Construction checks
    the normalization phi(0) = 0, strict monotonicity of both maps, and
    a round-trip defect below 1e-9.

    The certification covers the part of the range whose image stays
    inside the field's sampled window. Beyond it X - 1 tapers to 0,
    which is continuous but not smooth at the window edge, so
    interpolating the flow across those points cannot sustain the
    tolerance; callers are expected to size the field window so every
    lookup they care about lands in the certified region.

    phi at points that move from call to call (the history lookups and
    the forward half of the round-trip guard) is read from one cell
    table of phi, built on first use: ``fast_phi``.
    """

    ROUNDTRIP_TOL = 1e-9

    def __init__(self, phi, phi_inv, source):
        self.phi = phi
        self.phi_inv = phi_inv
        self.source = source
        self._validate()

    @property
    def t0(self):
        return self.source.t0

    @functools.cached_property
    def _cells(self):
        # built on first lookup; the flow never changes after that
        return CellTable(self.phi)

    def fast_phi(self, t):
        """phi(t) at a time or a 1-D array of times, from the flow's cell
        table; it agrees with ``phi.eval1`` to rounding."""
        return self._cells(t)

    def _validate(self):
        izero = (self.phi.n - 1) // 2
        if self.phi.values[izero, 0] != 0.0:
            raise FlowGuardError("phi(0) must vanish exactly")
        if not (np.diff(self.phi.values[:, 0]) > 0.0).all():
            raise FlowGuardError("phi must be strictly increasing")
        if not (np.diff(self.phi_inv.values[:, 0]) > 0.0).all():
            raise FlowGuardError("phi_inv must be strictly increasing")
        defect = self.roundtrip_defect()
        if defect > self.ROUNDTRIP_TOL:
            raise FlowGuardError(
                f"round-trip defect {defect:.3e} beyond tolerance "
                f"{self.ROUNDTRIP_TOL:.0e}")

    def roundtrip_defect(self):
        """max |phi(phi_inv(rho)) - rho| plus the reverse composition.

        Taken over the certified region: nodes whose composition stays
        inside both the partner's window and the field's sampled window.
        """
        Tf = self.source.xhat.half_width
        # a full interpolation stencil must stay clear of the taper's
        # kinks at the field window edge
        reach = (self.phi.interp_order + 1) * self.phi.delta
        rho = self.phi_inv.nodes
        t = self.phi_inv.values[:, 0]
        keep = ((np.abs(rho) <= Tf - (1.0 + self.t0) * reach)
                & (np.abs(t) <= min(self.phi.half_width, Tf) - reach))
        worst = 0.0
        if keep.any():
            worst = float(np.abs(self.fast_phi(t[keep]) - rho[keep]).max())
        # phi_inv has no other reader at moving points, so its half
        # stays on a sampler: a table built for it alone costs as much
        t2 = self.phi.nodes
        r2 = self.phi.values[:, 0]
        keep2 = ((np.abs(t2) <= Tf)
                 & (np.abs(r2) <= min(self.phi_inv.half_width, Tf) - reach))
        if keep2.any():
            worst = max(worst, float(
                np.abs(self.phi_inv.eval1(r2[keep2]) - t2[keep2]).max()))
        return worst


# interpolation degree of both flow maps
_FLOW_ORDER = 7

# a Newton node takes no further sweep once its measured residual is at
# or below this level; the sweep cap only bounds the work, a flow still
# off by then fails its round-trip guard
_NEWTON_FLOOR = 1e-13
_NEWTON_MAX_SWEEPS = 50


def flow_cells(reach, delta):
    """The whole number of cells of step ``delta`` that covers ``reach``,
    and at least half a degree-7 stencil, so 0 stays a node."""
    return max(int(math.ceil(reach / delta - 1e-9)), (_FLOW_ORDER + 2) // 2)


# the 6-point Gauss-Legendre rule on [-1, 1], leggauss(6) bit for bit;
# stored, so that no run loads numpy.polynomial
_GAUSS6_NODES = np.array([
    -0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GAUSS6_WEIGHTS = np.array([
    0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
    0.46791393457269104, 0.3607615730481387, 0.17132449237917027])


def _quadrature_inverse(field, table, y):
    """The quadrature inverse Phi(y) and X(y) at a 1-D array y.

    Phi(y) is the table value at the left node of y's cell plus the
    6-point Gauss integral of 1/X over the partial cell up to y. The
    cell index is clamped to the table only as a guard: the sweeps read
    Phi inside the support of X - 1, which the table covers. One field
    lookup, a read of the field's cell table, covers the Gauss points
    and y itself.
    """
    j = np.floor((y - table.nodes[0]) / table.delta).astype(np.int64)
    np.maximum(j, 0, out=j)
    np.minimum(j, table.n - 2, out=j)
    left = table.nodes.take(j)
    half = 0.5 * (y - left)
    gx, gw = _GAUSS6_NODES, _GAUSS6_WEIGHTS
    pts = left[:, None] + half[:, None] * (gx[None, :] + 1.0)
    X = field.fast_value(np.concatenate([pts.ravel(), y]))
    inv = 1.0 / X[:pts.size].reshape(pts.shape)
    return table.values[:, 0].take(j) + half * (inv @ gw), X[pts.size:]


def _cubic_start(t, xs, ys):
    """4-point Lagrange interpolation of the table (xs, ys), xs strictly
    increasing, at the times t; the stencil is the two table points on
    either side of each t, shifted inward at the table ends."""
    j = np.searchsorted(xs, t) - 2
    np.maximum(j, 0, out=j)
    np.minimum(j, xs.size - 4, out=j)
    cols = j[:, None] + np.arange(4)[None, :]
    x, y = xs[cols], ys[cols]
    d = t[:, None] - x
    out = np.zeros(t.size)
    for k in range(4):
        num = y[:, k].copy()
        for m in range(4):
            if m != k:
                num *= d[:, m] / (x[:, k] - x[:, m])
        out += num
    return out


def solve_flow(field, window):
    """The flow phi' = X(phi), phi(0) = 0, and its inverse map.

    Parameters
    ----------
    field : ScalarField
    window : float
        Half-width the flow must cover in t; it is rounded up to a whole
        number of grid cells so 0 stays a node. Both maps interpolate
        with degree 7.

    The inverse comes first: phi_inv(t) is the integral of 1/X on a
    window that covers both the image of phi, the flow window inflated
    by (1 + t_0), and the support |t| <= S = Ks delta of X - 1, Ks the
    whole cells that reach one cell past the field's window. Only the
    2 Ks support cells are summed, with a 6-point Gauss rule and X read
    at every Gauss point in one lookup of the field's cell table; past
    +-S, where X = 1, the table goes on as its value there plus the
    distance past it. phi at the nodes t_i that it maps into the
    support, phi_inv(-S) < t_i < phi_inv(S), a contiguous run, then
    solves Phi(phi) = t_i, with Phi the quadrature inverse (table plus
    partial cell, see ``_quadrature_inverse``), by vectorized Newton
    sweeps phi <- phi - (Phi(phi) - t) X(phi), started from cubic
    (4-point Lagrange) interpolation of the inverse table's (value,
    node) pairs; every other node maps past the support and is
    translated exactly, phi(t_i) = +-S + (t_i - phi_inv(+-S)). Each
    sweep reads X once, from the same table, and only at the nodes whose
    last measured residual is above 1e-13: a node stops, with no further
    update, at its first measured residual at or below that floor, so
    every swept node of phi ends with a measured residual <= 1e-13.
    Since Phi' = 1/X exactly, the sweeps converge quadratically.
    """
    if float(np.abs(field.xhat.values).max()) >= 1.0:
        raise ValueError("sup|X - 1| must be < 1")
    R = abs(float(window))
    delta = field.xhat.delta
    K = flow_cells(R, delta)
    R_phi = K * delta

    # X - 1 is 0 from one cell past the field's window on: the support
    # |rho| <= S = Ks delta is the inverse table's middle 2 Ks cells. The
    # table spans the image of phi's window or the support, the wider
    Ks = flow_cells(field.xhat.half_width + delta, delta)
    K_inv = max(flow_cells((1.0 + field.t0) * R_phi, delta), Ks)
    R_inv = K_inv * delta
    gx, gw = _GAUSS6_NODES, _GAUSS6_WEIGHTS
    cell_lo = lattice(R_inv, delta)[K_inv - Ks:K_inv + Ks]
    # quadrature points of every support cell at once, then 1/X there
    pts = cell_lo[:, None] + (0.5 * delta) * (gx[None, :] + 1.0)
    integrand = 1.0 / field.fast_value(pts.ravel())
    cells = (integrand.reshape(pts.shape) @ gw) * (0.5 * delta)
    inv_vals = np.empty(2 * K_inv + 1)
    inv_vals[K_inv] = 0.0
    inv_vals[K_inv + 1:K_inv + Ks + 1] = np.cumsum(cells[Ks:])
    inv_vals[K_inv - Ks:K_inv] = -np.cumsum(cells[:Ks][::-1])[::-1]
    # past the support 1/X = 1: the table goes on by whole cells
    beyond = np.arange(1, K_inv - Ks + 1) * delta
    inv_vals[K_inv + Ks + 1:] = inv_vals[K_inv + Ks] + beyond
    inv_vals[:K_inv - Ks] = (inv_vals[K_inv - Ks] - beyond)[::-1]
    phi_inv = GridFunction(R_inv, delta, inv_vals, interp_order=_FLOW_ORDER)

    # phi maps the nodes between the support ends' images
    # phi_inv(-S) < t < phi_inv(S) into the support, by Newton, and
    # translates every other node: phi(t) = +-S + (t - phi_inv(+-S))
    t = lattice(R_phi, delta)
    ends = phi_inv.nodes[[K_inv - Ks, K_inv + Ks]]
    images = inv_vals[[K_inv - Ks, K_inv + Ks]]
    a = int(np.searchsorted(t, images[0], side="right"))
    b = int(np.searchsorted(t, images[1], side="left"))
    y = np.empty(t.size)
    y[:a] = ends[0] + (t[:a] - images[0])
    y[b:] = ends[1] + (t[b:] - images[1])
    y[a:b] = _cubic_start(t[a:b], inv_vals, phi_inv.nodes)
    live = np.arange(a, b)
    for _ in range(_NEWTON_MAX_SWEEPS):
        Phi, X = _quadrature_inverse(field, phi_inv, y[live])
        r = Phi - t[live]
        # a NaN residual is not at the floor: it keeps its node live
        above = ~(np.abs(r) <= _NEWTON_FLOOR)
        if not above.any():
            break
        live = live[above]
        y[live] -= r[above] * X[above]
    y[K] = 0.0
    phi = GridFunction(R_phi, delta, y, interp_order=_FLOW_ORDER)
    return Flow(phi, phi_inv, field)


def inverse_flow_factor(eta, t0):
    """1 / (eta (1 - t_0)^2): the gain from ||X - Y||_eta to the weighted
    distance of the inverse flows."""
    return 1.0 / (eta * (1.0 - t0) ** 2)


def composite_factor(eta, t0, t1, h):
    """z = e^{t_1 h} (e^{eta (1 + t_0) h} - 1) / (eta (1 + t_0)): the gain
    from ||X - Y||_eta to the weighted distance of the history maps
    alpha(rho, s) = phi(phi_inv(rho) + s) over |s| <= h."""
    q = 1.0 + t0
    return math.exp(t1 * h) * math.expm1(eta * q * h) / (eta * q)

