"""One-dimensional reparametrization flows.

The time change is carried by a scalar field X = 1 + xhat with
sup|xhat| < 1, so X stays positive and its flow phi, solving
phi' = X(phi) with phi(0) = 0, is a strictly increasing bijection.
solve_flow builds the inverse first, from the exact identity
phi_inv(t) = int_0^t dsigma / X(sigma) summed per cell by Gauss
quadrature, and then gets phi at every grid node by Newton sweeps on
phi_inv(phi(t)) = t, all of it vectorized. The sweeps start from cubic
(4-point Lagrange) interpolation of the inverse table, and a node
takes no further sweep once its measured residual is at or below
1e-13, so each sweep re-reads only the nodes still above that floor.
The sweeps read X at points that move every sweep, so they go through
the field's cell table (:class:`~hypershadow.funcspace.CellTable`,
built once per field from the same stencils as ``xhat.eval1``) rather
than a new sampler. The reparametrized history maps are
alpha(rho, s) = phi(phi_inv(rho) + s); phi at moving points is read
from the flow's own cell table, ``fl.fast_phi``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (BallRadii, CellTable, GridFunction, GridSampler,
                        lattice)

__all__ = [
    "NumericalError",
    "FlowGuardError",
    "ScalarField",
    "Flow",
    "DistortionReport",
    "solve_flow",
    "flow_cells",
    "distortion_check",
    "flow_difference_eta",
    "composite_difference_eta",
    "phi_derivative_bounds",
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
        """X = 1, its deviation zero beyond the window."""
        g = GridFunction.sample(np.zeros_like, half_width, delta,
                                extension="zero")
        return cls(g, ball if ball is not None else BallRadii((0.0, 0.0)))

    @classmethod
    def from_callable(cls, fn, half_width, delta, ball, extension="zero"):
        """The field whose deviation X - 1 is ``fn(times (k,)) -> (k,)``."""
        g = GridFunction.sample(fn, half_width, delta, extension=extension)
        return cls(g, ball)

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
    inside the field's sampled window. Beyond it the field is governed
    by its extension policy, which is continuous but not smooth at the
    window edge, so interpolating the flow across those points cannot
    sustain the tolerance; callers are expected to size the field window
    so every lookup they care about lands in the certified region.

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
        # a full interpolation stencil must stay clear of the extension
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


@functools.cache
def _gauss6():
    # built on first use: numpy.polynomial is not loaded at import
    return np.polynomial.legendre.leggauss(6)


def _quadrature_inverse(field, table, y):
    """The quadrature inverse Phi(y) and X(y) at a 1-D array y.

    Phi(y) is the table value at the left node of y's cell plus the
    6-point Gauss integral of 1/X over the partial cell up to y; the end
    cells stretch to reach a y beyond the table. One field lookup, a
    read of the field's cell table, covers the Gauss points and y itself.
    """
    j = np.floor((y - table.nodes[0]) / table.delta).astype(np.int64)
    np.maximum(j, 0, out=j)
    np.minimum(j, table.n - 2, out=j)
    left = table.nodes[j]
    half = 0.5 * (y - left)
    gx, gw = _gauss6()
    pts = left[:, None] + half[:, None] * (gx[None, :] + 1.0)
    X = field.fast_value(np.concatenate([pts.ravel(), y]))
    inv = 1.0 / X[:pts.size].reshape(pts.shape)
    return table.values[j, 0] + half * (inv @ gw), X[pts.size:]


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


def solve_flow(field, window, lattices=None):
    """The flow phi' = X(phi), phi(0) = 0, and its inverse map.

    Parameters
    ----------
    field : ScalarField
    window : float
        Half-width the flow must cover in t; it is rounded up to a whole
        number of grid cells so 0 stays a node. Both maps interpolate
        with degree 7.
    lattices : optional
        A run's sampler store; solves then share the cell points' sampler.

    The inverse comes first: phi_inv(t) is the integral of 1/X, summed
    per cell with a 6-point Gauss rule on a window inflated by (1 + t_0)
    so it covers the image of phi. phi at every node t_i then solves
    Phi(phi) = t_i, with Phi the quadrature inverse (table plus partial
    cell, see ``_quadrature_inverse``), by vectorized Newton sweeps
    phi <- phi - (Phi(phi) - t) X(phi), started from cubic (4-point
    Lagrange) interpolation of the inverse table's (value, node) pairs.
    Each sweep reads X once, from the field's cell table, so no sampler
    is built for its moving points, and only at the nodes whose last
    measured residual is above 1e-13: a node stops, with no further
    update, at its first measured residual at or below that floor, so
    every node of phi ends with a measured residual <= 1e-13. Since
    Phi' = 1/X exactly, the sweeps converge quadratically. Where X is 1
    (beyond the field window) the cubic start is already exact, so
    those nodes stop after one sweep.
    """
    if float(np.abs(field.xhat.values).max()) >= 1.0:
        raise ValueError("sup|X - 1| must be < 1")
    R = abs(float(window))
    delta = field.xhat.delta
    K = flow_cells(R, delta)
    R_phi = K * delta

    K_inv = flow_cells((1.0 + field.t0) * R_phi, delta)
    R_inv = K_inv * delta
    gx, gw = _gauss6()
    cell_lo = lattice(R_inv, delta)[:-1]
    # quadrature points of every cell at once, then 1/X there
    pts = cell_lo[:, None] + (0.5 * delta) * (gx[None, :] + 1.0)
    at = GridSampler(field.xhat, pts.ravel()) if lattices is None else \
        lattices.sampler(("flow cells", K_inv), pts.ravel(), field.xhat)
    integrand = 1.0 / (1.0 + at.apply(field.xhat)[:, 0])
    cells = (integrand.reshape(pts.shape) @ gw) * (0.5 * delta)
    inv_vals = np.empty(2 * K_inv + 1)
    inv_vals[K_inv] = 0.0
    inv_vals[K_inv + 1:] = np.cumsum(cells[K_inv:])
    inv_vals[:K_inv] = -np.cumsum(cells[:K_inv][::-1])[::-1]
    phi_inv = GridFunction(R_inv, delta, inv_vals, interp_order=_FLOW_ORDER,
                           extension="linear")

    t = lattice(R_phi, delta)
    y = _cubic_start(t, inv_vals, phi_inv.nodes)
    live = np.arange(t.size)
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
    phi = GridFunction(R_phi, delta, y, interp_order=_FLOW_ORDER,
                       extension="linear")
    return Flow(phi, phi_inv, field)


@dataclass(frozen=True)
class DistortionReport:
    """Worst slack of the two-sided flow distortion bounds.

    Slacks are bound minus measured (lower bounds measured minus bound),
    so negative entries beyond the tolerance are violations.
    """

    t0: float
    phi_lower: float
    phi_upper: float
    inv_lower: float
    inv_upper: float
    violations: int
    tolerance: float

    @property
    def ok(self):
        return self.violations == 0

    @property
    def worst(self):
        return min(self.phi_lower, self.phi_upper,
                   self.inv_lower, self.inv_upper)


def _pairwise_slacks(x, y, lo_fac, hi_fac, chunk=256):
    worst_lo = np.inf
    worst_hi = np.inf
    n = x.size
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        dx = np.abs(x[a:b, None] - x[None, :])
        dy = np.abs(y[a:b, None] - y[None, :])
        same = dx == 0.0
        lo = dy - lo_fac * dx
        hi = hi_fac * dx - dy
        lo[same] = np.inf
        hi[same] = np.inf
        worst_lo = min(worst_lo, float(lo.min()))
        worst_hi = min(worst_hi, float(hi.min()))
    return worst_lo, worst_hi


# slack below zero that a distortion bound forgives as rounding
_DISTORTION_TOL = 1e-8


def distortion_check(fl):
    """Verify the two-sided distortion bounds over all node pairs.

    phi must move pairs by between (1 - t_0) and (1 + t_0) times their
    separation, and phi_inv by the reciprocal factors. Returns the worst
    slack per bound and the count of violations beyond 1e-8.
    """
    t0 = fl.t0
    phi_lo, phi_hi = _pairwise_slacks(fl.phi.nodes, fl.phi.values[:, 0],
                                      1.0 - t0, 1.0 + t0)
    inv_lo, inv_hi = _pairwise_slacks(fl.phi_inv.nodes,
                                      fl.phi_inv.values[:, 0],
                                      1.0 / (1.0 + t0), 1.0 / (1.0 - t0))
    slacks = (phi_lo, phi_hi, inv_lo, inv_hi)
    violations = sum(1 for s in slacks if s < -_DISTORTION_TOL)
    return DistortionReport(t0=t0, phi_lower=phi_lo, phi_upper=phi_hi,
                            inv_lower=inv_lo, inv_upper=inv_hi,
                            violations=violations, tolerance=_DISTORTION_TOL)


def flow_difference_eta(X, Y, weight):
    """Weighted distance of the inverse flows against its a-priori bound.

    Returns (lhs, rhs) with lhs = ||phi_inv - psi_inv||_eta and
    rhs = ||X - Y||_eta / (eta (1 - t_0)^2), t_0 the larger of the two
    ball radii and eta = weight.eta (a WeightParam). Raises if the bound
    fails beyond rounding.
    """
    X.xhat._check_compatible(Y.xhat)
    eta = weight.eta
    t0 = max(X.t0, Y.t0)
    flX = solve_flow(X, X.xhat.half_width)
    flY = solve_flow(Y, Y.xhat.half_width)
    R = min(flX.phi_inv.half_width, flY.phi_inv.half_width)
    gx = flX.phi_inv.restrict(R)
    gy = flY.phi_inv.restrict(R)
    lhs = (gx - gy).norm_razumikhin(weight)
    rhs = (X.xhat - Y.xhat).norm_razumikhin(weight) / (eta * (1.0 - t0) ** 2)
    if lhs > rhs + 1e-12:
        raise RuntimeError(
            f"inverse-flow difference bound violated: {lhs:.3e} > {rhs:.3e}")
    return lhs, rhs


def composite_difference_eta(X, Y, h, weight, rho_count=41, s_count=21):
    """Weighted sup over rho of max_s |alpha(rho,s) - beta(rho,s)| and its bound.

    The bound is z ||X - Y||_eta with
    z = e^{t_1 h} (e^{eta (1 + t_0) h} - 1) / (eta (1 + t_0)),
    where t_0, t_1 come from the larger of the two balls and
    eta = weight.eta (a WeightParam). Returns (lhs, rhs, z).
    """
    X.xhat._check_compatible(Y.xhat)
    eta = weight.eta
    t0 = max(X.t0, Y.t0)
    t1 = max(X.ball.c[1], Y.ball.c[1])
    T = X.xhat.half_width
    h = float(h)
    # keep every composite evaluation inside the sampled field window,
    # where the declared ball radii genuinely hold
    R_t = T / (1.0 + t0)
    R_rho = (1.0 - t0) * (R_t - h) - X.xhat.delta
    if R_rho <= 0.0:
        raise ValueError("field window too small for this history radius")
    flX = solve_flow(X, R_t)
    flY = solve_flow(Y, R_t)
    rhos = np.linspace(-R_rho, R_rho, rho_count)
    ss = np.linspace(-h, h, s_count)

    def alpha(fl):
        # phi(phi_inv(rho) + s) at every (rho, s) pair, rows by rho
        times = fl.phi_inv.eval1(rhos)[:, None] + ss[None, :]
        return fl.phi.eval1(times.ravel()).reshape(times.shape)

    gaps = np.abs(alpha(flX) - alpha(flY)).max(axis=1)
    lhs = float((gaps * np.exp(-eta * np.abs(rhos))).max())
    z = math.exp(t1 * h) * math.expm1(eta * (1.0 + t0) * h) / (eta * (1.0 + t0))
    rhs = z * (X.xhat - Y.xhat).norm_razumikhin(weight)
    return lhs, rhs, z


def _partitions(r):
    # multisets (m_1, ..., m_r) with sum j m_j = r
    def rec(remaining, j):
        if remaining == 0:
            yield {}
            return
        if j > remaining:
            return
        for m in range(remaining // j + 1):
            for rest in rec(remaining - j * m, j + 1):
                if m:
                    rest = dict(rest)
                    rest[j] = m
                yield rest
    yield from rec(r, 1)


def phi_derivative_bounds(ball):
    """Bounds on |D^{j+1} phi| for j = 0..l from the field's ball radii.

    Chain of the flow equation: |D phi| <= 1 + t_0, and each further
    derivative comes from differentiating xhat(phi) with the composite
    derivative formula, replacing |D^k xhat| by t_k and lower phi
    derivatives by the already computed bounds.
    """
    t = ball.c
    ell = ball.ell
    bounds = [1.0 + t[0]]
    for r in range(1, ell + 1):
        total = 0.0
        for part in _partitions(r):
            order = sum(part.values())
            coef = math.factorial(r)
            prod = 1.0
            for j, m in part.items():
                coef //= math.factorial(m) * math.factorial(j) ** m
                prod *= bounds[j - 1] ** m
            total += coef * t[order] * prod
        bounds.append(total)
    return bounds
