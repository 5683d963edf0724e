"""Hyperbolic frames: the unperturbed orbit, its splitting, and propagators.

A frame bundles the orbit evaluator x0, the projections onto the center,
stable and unstable subspaces along the orbit, the decaying propagators
on the stable and unstable bundles, their weighted sums (the bundle
integrals of every operator step), and the quality measures (C_U, C_Pi,
lambda_s, lambda_u) that size every contraction estimate downstream.

Each frame supplies only its adapted basis and the carry of bundle
coordinates between two times; ``_FrameBase`` derives the rest. Frames
come from closed-form descriptors (``AnalyticFrame``, the saddle
benchmarks) or from the Floquet construction on a periodic orbit
(``FloquetFrame``).

The center direction is always the span of f(x0), so n_c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .funcspace import REQUIRED, Entry, GridFunction, check_entries

__all__ = [
    "OdeModel",
    "QualityMeasures",
    "AnalyticFrame",
    "FloquetFrame",
    "FrameTable",
    "FrameReport",
    "analytic_frame",
    "verify_frame",
    "builtin_model",
    "unit_circle_orbit",
    "frame_from_descriptor",
]


class OdeModel:
    """An autonomous vector field with first and second derivatives.

    The maps are batched over k points ``x`` of shape (k, n):
    ``f(x) -> (k, n)``, ``df(x) -> (k, n, n)`` and
    ``d2f(x) -> (k, n, n, n)`` with d2f[:, i, j, l] the second partial of
    f_i. Wrap maps of one point with
    :func:`~hypershadow.funcspace.pointwise`. ``b`` is a positive lower
    bound for |f(x0)| along the orbit the model is used with.
    """

    def __init__(self, n, f, df, d2f, b, name="model", params=None):
        if not (b > 0.0):
            raise ValueError("b must be positive")
        self.n = int(n)
        self.f = f
        self.df = df
        self.d2f = d2f
        self.b = float(b)
        self.name = str(name)
        self.params = dict(params or {})

    def f_batch(self, pts):
        return np.asarray(self.f(np.asarray(pts, dtype=float)), dtype=float)

    def df_batch(self, pts):
        return np.asarray(self.df(np.asarray(pts, dtype=float)), dtype=float)

    def d2f_batch(self, pts):
        return np.asarray(self.d2f(np.asarray(pts, dtype=float)), dtype=float)


@dataclass(frozen=True)
class QualityMeasures:
    """Hyperbolicity quality: propagator constant, projection bound, rates."""

    C_U: float
    C_Pi: float
    lam_s: float
    lam_u: float

    def __post_init__(self):
        if self.C_U < 1.0 or self.C_Pi < 1.0:
            raise ValueError("C_U and C_Pi must be at least 1")
        if not (self.lam_s > 0.0 and self.lam_u > 0.0):
            raise ValueError("decay rates must be positive")

    @property
    def lam_min(self):
        return min(self.lam_s, self.lam_u)


class FrameTable:
    """A frame evaluated at fixed times, for every call that reads them.

    ``times`` (k,); ``x0`` the orbit there, ``f0`` = f(x0), ``df0`` =
    Df(x0), each (k, ...); ``A`` and ``Ainv`` the frame's adapted basis
    and its inverse (see ``_FrameBase``). Each is computed on first use
    and kept, so a table built once per lattice pays for the frame once,
    and a table made on the spot for raw times computes only what its
    caller reads. ``np.asarray(table)`` gives the times, so a table goes
    wherever times go. ``take(rows)`` cuts a table for some of the times
    out of this one: each value it reads is those rows of this one's,
    evaluated once for all of the times.

    A table also keeps what the frame composes from its values: the
    projector onto each bundle (``projector(sigma)``) and, in ``plans``,
    the plan of each bundle sum over these times, keyed by the bundle
    and the table of the weights' times (see ``_BundlePlan``).
    """

    def __init__(self, frame, times):
        self.frame = frame
        self.times = np.asarray(times, dtype=float)
        self.plans = {}
        self._projectors = {}
        self._cut = None  # (parent table, rows) of a table from take

    def __array__(self, dtype=None, copy=None):
        return np.array(self.times, dtype=dtype, copy=copy)

    def _value(self, name, compute):
        if self._cut is None:
            return compute()
        parent, rows = self._cut
        return getattr(parent, name)[rows]

    @cached_property
    def x0(self):
        return self._value("x0", lambda: self.frame.orbit_batch(self.times))

    @cached_property
    def f0(self):
        return self._value("f0", lambda: self.frame.model.f_batch(self.x0))

    @cached_property
    def df0(self):
        return self._value("df0", lambda: self.frame.model.df_batch(self.x0))

    @cached_property
    def _basis_pair(self):
        if self._cut is None:
            return self.frame._basis(self.times)
        parent, rows = self._cut
        A, Ainv = parent._basis_pair
        # a basis that does not move is one matrix for every time
        return (A, Ainv) if len(A) == 1 else (A[rows], Ainv[rows])

    @property
    def A(self):
        return self._basis_pair[0]

    @property
    def Ainv(self):
        return self._basis_pair[1]

    def projector(self, sigma):
        """The projection onto bundle ``sigma`` at each time, (k, n, n),
        or (1, n, n) when the basis does not move."""
        if sigma not in self._projectors:
            self._projectors[sigma] = self.frame._projector(sigma, self.A,
                                                            self.Ainv)
        return self._projectors[sigma]

    def take(self, rows):
        """The table at ``times[rows]``, its values the rows of this one's."""
        sub = FrameTable(self.frame, self.times[rows])
        sub._cut = (self, rows)
        return sub


class _FrameBase:
    """Projections, propagators and bundle sums over two frame primitives.

    A frame carries ``model``, ``dims = (1, n_s, n_u)``, ``quality`` and
    ``mode``, evaluates the orbit with ``orbit_batch(ts)``, and supplies

    - ``_basis(ts) -> (A, Ainv)``: the adapted basis [f(x0) | stable |
      unstable] at each time, columns in that order, and its inverse,
      each (k, n, n), or (1, n, n) when the basis does not move;
    - ``_carry(sigma, to, frm) -> (k, n_sigma, n_sigma)``: the
      propagator of sigma-bundle coordinates from ``frm`` to ``to``.

    Everything else is written once here. The projection onto a bundle
    is A[:, sigma] Ainv[sigma, :]; a propagator is A(rho)
    blockdiag(carries) Ainv(v), with the center coordinate carried by 1
    because the linearized flow moves f(x0(v)) onto f(x0(rho)); a bundle
    sum carries each weight to the node that collects it and runs the
    decay scan with the carries between neighbouring nodes as factors.
    Everything of a bundle sum but its weights is composed once per pair
    of tables, as a ``_BundlePlan``.

    Every method taking times also takes a :class:`FrameTable` of this
    frame from ``table(ts)``, the one place tables are made, and reads
    the frame through it: a table's own values when given one, a table
    made on the spot for raw times. A caller that queries the same times
    repeatedly builds the table once.
    """

    def table(self, ts):
        """The frame at the times ``ts`` as a :class:`FrameTable`: one of
        this frame's tables passes through, anything else is tabulated."""
        if isinstance(ts, FrameTable) and ts.frame is self:
            return ts
        return FrameTable(self, ts)

    def orbit_deriv_batch(self, ts):
        # the orbit solves the unperturbed equation, so its derivative is f(x0)
        return self.table(ts).f0

    def _slot(self, sigma):
        """Columns of the adapted basis that span bundle ``sigma``."""
        _, n_s, n_u = self.dims
        return {"c": slice(0, 1), "s": slice(1, 1 + n_s),
                "u": slice(1 + n_s, 1 + n_s + n_u)}[sigma]

    def _projector(self, sigma, A, Ainv):
        sl = self._slot(sigma)
        return A[:, :, sl] @ Ainv[:, sl, :]

    def proj_batch(self, rhos):
        tab = self.table(rhos)
        shape = (np.size(rhos),) + tab.A.shape[1:]
        return tuple(np.broadcast_to(tab.projector(sigma), shape).copy()
                     for sigma in "csu")

    def proj_apply(self, sigma, rhos, vecs):
        return _apply(self.table(rhos).projector(sigma),
                      np.asarray(vecs, dtype=float))

    # -- propagators ------------------------------------------------------

    def propagate(self, rhos, vs, sigmas):
        """(n, n) propagators from each v to its rho on the bundles in
        ``sigmas``: "s", "u", or "csu" for the full linearized flow."""
        # tables of one size keep their bases; raw times broadcast to pairs
        to, frm = _pairs(rhos, vs)
        n = self.model.n
        C = np.zeros((to.size, n, n))
        for sigma in sigmas:
            sl = self._slot(sigma)
            if sigma == "c":
                C[:, sl, sl] = 1.0
            elif sl.stop > sl.start:
                C[:, sl, sl] = self._carry(sigma, to, frm)
        A = self.table(rhos if isinstance(rhos, FrameTable) else to).A
        Ainv = self.table(vs if isinstance(vs, FrameTable) else frm).Ainv
        return A @ C @ Ainv

    # -- weighted propagator sums ---------------------------------------

    def convolve_stable(self, rhos, vs, wvs):
        """sum over v_i <= rho of U^s(rho; v_i) wvs_i for each rho.

        ``rhos`` and ``vs`` ascending (``ValueError`` otherwise); ``wvs``
        already carries the quadrature weights. Each weight is carried
        to the first rho at or after it, and a doubling scan carries the
        running sum from each rho to the next, so every carry applied
        contracts.
        """
        return self._bundle_sum("s", rhos, vs, wvs)

    def convolve_unstable(self, rhos, vs, wvs):
        """sum over v_i >= rho of U^u(rho; v_i) wvs_i for each rho."""
        return self._bundle_sum("u", rhos, vs, wvs)

    def _bundle_sum(self, sigma, rhos, vs, wvs):
        # the plan lives on the table of rhos, keyed by the table of vs;
        # tables made on the spot for raw times drop theirs after the call
        rhos, vs = self.table(rhos), self.table(vs)
        key = (sigma, vs)
        if key not in rhos.plans:
            rhos.plans[key] = _BundlePlan(self, sigma, rhos, vs)
        return rhos.plans[key](wvs)


def _apply(mats, vecs):
    """mats[k] @ vecs[k] for each k, a stack of one matrix broadcasting.

    One matrix for every row, the basis of a frame that does not move,
    is one matrix product."""
    if len(mats) == 1 and mats.ndim == 3 and vecs.ndim == 2:
        return vecs @ mats[0].T
    return np.einsum("...ij,...j->...i", mats, vecs)


def _pairs(rhos, vs):
    """Flat float arrays of (rho, v) pairs, broadcast against each other."""
    rhos, vs = np.broadcast_arrays(np.asarray(rhos, dtype=float),
                                   np.asarray(vs, dtype=float))
    return rhos.ravel(), vs.ravel()


def _sweep(rhos, vs, stable):
    """Float arrays, the slice putting nodes in sweep order, the sweep
    position of the node that collects each v, and the mask of collected v.

    The stable sum sweeps upward and v goes to the first node at or after
    it; the unstable sum sweeps downward and v goes to the last node at or
    before it. Raises ``ValueError`` unless both arrays are ascending.
    """
    rhos = np.asarray(rhos, dtype=float)
    vs = np.asarray(vs, dtype=float)
    for name, arr in (("rhos", rhos), ("vs", vs)):
        if np.any(np.diff(arr) < 0.0):
            raise ValueError(f"{name} must be ascending")
    K = rhos.size
    if stable:
        order = slice(None)
        owner = np.searchsorted(rhos, vs, side="left")
    else:
        order = slice(None, None, -1)
        owner = K - np.searchsorted(rhos, vs, side="right")
    return rhos, vs, order, owner, owner < K


class _BundlePlan:
    """A bundle sum over fixed tables of rhos and vs, all but the weights.

    Built by ``_FrameBase._bundle_sum`` once per pair of tables: the
    sweep (node order, the node that collects each v, the mask of
    collected v), the carry of each v to its node, the doubling factors
    of the decay scan (:func:`_doubling`) and the basis slices
    of the bundle. Calling it with the weights makes one projection, one
    ``np.bincount`` per bundle column, one vector update per doubling
    pass and one basis product: no carry and no matrix-matrix product.
    """

    def __init__(self, frame, sigma, rhos, vs):
        # the ascending check of the sweep comes before the empty bundle
        ts, us, order, owner, keep = _sweep(rhos, vs, sigma == "s")
        sl = frame._slot(sigma)
        self.size = ts.size
        self.n = frame.model.n
        self.empty = sl.stop == sl.start
        if self.empty:
            return
        nodes = ts[order]
        self.order, self.keep, self.owner = order, keep, owner[keep]
        self.Ainv = vs.Ainv[:, sl, :]
        self.A = rhos.A[:, :, sl]
        self.carries = frame._carry(sigma, nodes[self.owner], us[keep])
        m = sl.stop - sl.start
        fac = np.zeros((ts.size, m, m))
        fac[1:] = frame._carry(sigma, nodes[1:], nodes[:-1])
        self.factors = []
        _doubling(fac, self.factors)

    def __call__(self, wvs):
        if self.empty:
            return np.zeros((self.size, self.n))
        coords = _apply(self.Ainv, np.asarray(wvs, dtype=float))[self.keep]
        carried = _apply(self.carries, coords)
        # one bincount per bundle column sums in np.add.at's order
        load = np.column_stack([
            np.bincount(self.owner, weights=col, minlength=self.size)
            for col in carried.T])
        return _apply(self.A, _decay_scan(self.factors, load)[self.order])


def _doubling(a, factors=None):
    """The prefix products a_k ... a_0 of the (K, m, m) stack ``a``.

    Hillis-Steele doubling: pass d (d = 1, 2, 4, ... < K) multiplies
    each running product by the one d rows before it, the later factor
    on the left. A list ``factors`` collects the factor each pass of
    :func:`_decay_scan` applies: the rows d.. of the running products
    before pass d composes them.
    """
    d = 1
    while d < len(a):
        if factors is not None:
            factors.append(a[d:])
        a = np.concatenate([a[:d], a[d:] @ a[:-d]])
        d *= 2
    return a


def _decay_scan(factors, load):
    """acc_k = fac_k @ acc_{k-1} + load_k along axis 0, with fac_0 = 0.

    ``factors`` are the :func:`_doubling` factors of the (K, m, m)
    ``fac`` and ``load`` is (K, m). Hillis-Steele doubling: pass d adds
    to each row the running sum d rows before it, carried by the pass's
    factor, so log2(K) vectorized passes replace the K-step recurrence.
    Every factor contracts, and so does every product.
    """
    b = load.copy()
    d = 1
    for a in factors:
        b[d:] += _apply(a, b[:-d])
        d *= 2
    return b


class AnalyticFrame(_FrameBase):
    """Frame with a closed-form splitting, diagonal in rotated coordinates.

    In base coordinates the orbit is (t, 0, ..., 0), the center direction
    is the first axis and each stable/unstable slot decays at its own
    exact rate. ``rotation`` conjugates everything by a fixed orthogonal
    matrix, which is then the adapted basis at every time.
    """

    mode = "analytic"

    def __init__(self, model, rates_s, rates_u, rotation=None):
        self.model = model
        n = model.n
        self.rates_s = np.asarray(rates_s, dtype=float)
        self.rates_u = np.asarray(rates_u, dtype=float)
        n_s = self.rates_s.size
        n_u = self.rates_u.size
        if 1 + n_s + n_u != n:
            raise ValueError("slot count must match the model dimension")
        self.Q = np.eye(n) if rotation is None else np.asarray(rotation, float)
        if np.abs(self.Q @ self.Q.T - np.eye(n)).max() > 1e-12:
            raise ValueError("rotation must be orthogonal")
        self.dims = (1, n_s, n_u)
        lam_s = float(self.rates_s.min()) if n_s else math.inf
        lam_u = float(self.rates_u.min()) if n_u else math.inf
        self.quality = QualityMeasures(1.0, 1.0, lam_s, lam_u)

    def orbit_batch(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, self.model.n))
        out[:, 0] = ts
        return out @ self.Q.T

    def _basis(self, ts):
        # one matrix for every time; callers broadcast the leading 1
        return self.Q[None], self.Q.T[None]

    def _carry(self, sigma, to, frm):
        # exact decay per slot: e^{-rate (to - frm)} on the stable slots,
        # e^{rate (to - frm)} on the unstable ones
        rates, sign = ((self.rates_s, -1.0) if sigma == "s"
                       else (self.rates_u, 1.0))
        dt = np.asarray(to, dtype=float) - np.asarray(frm, dtype=float)
        d = np.exp(sign * np.outer(dt, rates))
        return d[:, :, None] * np.eye(rates.size)


def _invariant_subspace(M, vecs, keep, name):
    """An orthonormal basis V of the span of the eigenvectors
    ``vecs[:, keep]`` of M, and S = V^T M V. Their real and imaginary parts
    span it for real, complex and nearly real multipliers alike, so V is
    the leading ``keep.sum()`` left singular vectors of their stack. A
    stack of lower rank means M is defective: a ValueError names ``name``."""
    k = int(keep.sum())
    U, sv, _ = np.linalg.svd(np.hstack([vecs[:, keep].real,
                                        vecs[:, keep].imag]))
    if k and not sv[k - 1] >= 1e-8 * sv[0]:
        raise ValueError(f"monodromy is defective on its {name} bundle: "
                         f"singular value ratio {sv[k - 1] / sv[0]:.1e}")
    return U[:, :k], U[:, :k].T @ M @ U[:, :k]


class FloquetFrame(_FrameBase):
    """Frame built from the monodromy of a periodic orbit.

    The fundamental solution Psi over one period comes from a fixed
    fourth-order rule. The variational equation is linear, so each RK4
    substep is one transition matrix M_i, and all of them are built in a
    few batched products from Df at the substep's start, middle and end;
    Psi at every node is then the prefix product M_{j-1} ... M_0 of a
    doubling scan. The monodromy spectrum supplies orthonormal bases
    V_s, V_u of the stable and unstable bundles (:func:`_invariant_subspace`)
    and the maps S_s, S_u it restricts to on them. The adapted basis at t is
    [f(x0(t)) | Psi(t) V_s | Psi(t) V_u], with Psi read at t wrapped into
    the base period, so projections are exact by construction up to
    interpolation noise. Crossing k periods carries bundle coordinates
    by S^k, one cached power per period offset. The orbit must close
    over one period to 1e-8.
    """

    mode = "floquet"

    def __init__(self, model, orbit_grid, period):
        self.model = model
        self.period = float(period)
        P = self.period
        if orbit_grid.half_width < P / 2.0 - 1e-12:
            raise ValueError("orbit window must cover one period")
        gap = float(np.linalg.norm(orbit_grid.eval(P / 2.0)
                                   - orbit_grid.eval(-P / 2.0)))
        if gap > 1e-8:
            raise ValueError(f"orbit does not close over one period: {gap:.2e}")
        self.orbit_grid = orbit_grid
        n = model.n
        delta = orbit_grid.delta
        substeps = max(1, int(math.ceil(delta / 0.01)))
        nsteps = int(round(P / delta))
        if abs(nsteps * delta - P) > 1e-9:
            raise ValueError("period must be a whole number of grid cells")
        h = delta / substeps
        # Df along the orbit at every half-step; substep i reads the
        # three at its start, middle and end
        fine = -P / 2.0 + 0.5 * h * np.arange(2 * nsteps * substeps + 1)
        dfs = model.df_batch(self.orbit_batch(fine))
        A1, A2, A3 = dfs[:-1:2], dfs[1::2], dfs[2::2]
        # the variational equation is linear, so each RK4 substep is one
        # fixed matrix M_i and Psi at substep j is M_{j-1} ... M_0
        eye = np.eye(n)
        K2 = A2 @ (eye + 0.5 * h * A1)
        K3 = A2 @ (eye + 0.5 * h * K2)
        K4 = A3 @ (eye + h * K3)
        # I, M_0, M_1 M_0, ...: the doubling's products over I and the M_i
        psi = _doubling(np.concatenate(
            [eye[None], eye + (h / 6.0) * (A1 + 2.0 * (K2 + K3) + K4)]))
        stored = psi[::substeps].reshape(nsteps + 1, n * n)
        self.monodromy = psi[-1].copy()
        self._psi = GridFunction(P / 2.0, delta, stored, interp_order=5)

        mus, vecs = np.linalg.eig(self.monodromy)
        to_one = np.abs(mus - 1.0)
        close_one = to_one <= 1e-6
        if close_one.sum() != 1:
            raise ValueError(
                f"monodromy must have exactly one multiplier at 1, found "
                f"{close_one.sum()} within 1e-6 (nearest |mu - 1| = "
                f"{to_one.min():.2e})")
        off = np.abs(np.abs(mus) - 1.0)
        if np.any((~close_one) & (off < 1e-3)):
            raise ValueError("monodromy has non-hyperbolic multipliers")
        self.multipliers = mus
        # after the checks above, center, stable and unstable partition mus
        self.V_s, self.S_s = _invariant_subspace(
            self.monodromy, vecs, ~close_one & (abs(mus) < 1.0), "stable")
        self.V_u, self.S_u = _invariant_subspace(
            self.monodromy, vecs, ~close_one & (abs(mus) > 1.0), "unstable")
        self.dims = (1, self.V_s.shape[1], self.V_u.shape[1])
        self._powers = {}
        self.quality = self._estimate_quality()

    def _wrap(self, ts):
        """Times wrapped into the base period, and their period indices."""
        ts = np.asarray(ts, dtype=float)
        P = self.period
        k = np.floor((ts + P / 2.0) / P)
        return ts - k * P, k.astype(np.int64)

    def orbit_batch(self, ts):
        r, _ = self._wrap(ts)
        return self.orbit_grid.eval(r)

    def _basis(self, ts):
        r, _ = self._wrap(ts)
        n = self.model.n
        psi = self._psi.eval(r).reshape(-1, n, n)
        fc = self.model.f_batch(self.orbit_batch(ts))
        # an empty bundle contributes no columns
        A = np.concatenate([fc[:, :, None], psi @ self.V_s, psi @ self.V_u],
                           axis=2)
        return A, np.linalg.inv(A)

    def _carry(self, sigma, to, frm):
        # S^k across k periods, each power computed once per bundle
        gap = self._wrap(to)[1] - self._wrap(frm)[1]
        S = self.S_s if sigma == "s" else self.S_u
        out = np.empty((gap.size,) + S.shape)
        for e in sorted(set(gap.tolist())):
            if (sigma, e) not in self._powers:
                self._powers[sigma, e] = np.linalg.matrix_power(S, e)
            out[gap == e] = self._powers[sigma, e]
        return out

    def _estimate_quality(self):
        """C_U and the decay rates from a log-linear fit of the bundle
        propagators over (base, gap) pairs, C_Pi from the projections at
        33 times of one period. The basis is evaluated once, on one table
        over the later and earlier times of the pairs and the projection
        times; each batch reads its rows of it."""
        t, g = _rate_pairs(np.linspace(0.0, self.period, 7),
                           np.linspace(0.5, 5.0, 10))
        m = t.size
        tab = self.table(np.concatenate(
            [t + g, t, np.linspace(0.0, self.period, 33)]))
        later, earlier, grid = (tab.take(rows) for rows in (
            slice(0, m), slice(m, 2 * m), slice(2 * m, None)))
        # an empty bundle has rate inf and constant 1
        lam_s = lam_u = math.inf
        C_s = C_u = 1.0
        if self.dims[1]:
            lam_s, C_s = _fit_rate(g, np.linalg.norm(
                self.propagate(later, earlier, "s"), 2, axis=(1, 2)),
                "lambda_s")
        if self.dims[2]:
            lam_u, C_u = _fit_rate(g, np.linalg.norm(
                self.propagate(earlier, later, "u"), 2, axis=(1, 2)),
                "lambda_u")
        Pc, Ps, Pu = self.proj_batch(grid)
        # sampled maxima get headroom so the declared constants majorize
        # the modulation between sample points
        C_Pi = max(1.0, 1.02 * max(np.linalg.norm(P, ord=2, axis=(1, 2)).max()
                                   for P in (Pc, Ps, Pu)))
        C_U = max(1.0, 1.05 * C_s, 1.05 * C_u)
        return QualityMeasures(C_U, C_Pi, lam_s, lam_u)


def _rate_pairs(bases, gaps):
    """The (base, gap) pairs of a decay-rate fit, every gap at every base,
    as two flat arrays ``(t, g)``; the propagator spans t to t + g."""
    return np.repeat(bases, len(gaps)), np.tile(gaps, len(bases))


def _fit_rate(gaps, norms, name):
    """Log-linear fit of the propagator norms |U| that are positive normal
    floats against their gaps: the fitted decay rate and max(1,
    sup |U| e^{rate gap}), formed so that e^{rate gap} stays finite. A
    ValueError names a rate normal at fewer than two of the gaps."""
    ok = norms >= np.finfo(float).tiny
    g, n = gaps[ok], norms[ok]
    resolved = len(set(g.tolist()))  # np.unique would load numpy.ma
    if resolved < 2:
        raise ValueError(
            f"frame rate {name} is too fast for the refit: its propagator "
            f"norms are normal floats at {resolved} of the sampled gaps "
            f"{gaps.min():g} to {gaps.max():g}, and a fit needs 2")
    lam = -float(np.polyfit(g, np.log(n), 1)[0])
    # e^-top is 1 unless e^{rate gap} alone would overflow
    top = max(0.0, lam * float(g.max()) - 700.0)
    return lam, max(1.0, float((n * np.exp(lam * g - top)).max())
                    * math.exp(top))


# -- builtin models -----------------------------------------------------

def _saddle_model(name, lambda_s, lambda_u, rotation, cubic=(0.0, 0.0)):
    c2, c3 = float(cubic[0]), float(cubic[1])
    Q = None if rotation is None else np.asarray(rotation, dtype=float)

    # batched in base coordinates: rows of x are points, shape (k, 3)
    def fb(x):
        out = np.empty(x.shape)
        out[:, 0] = 1.0
        # cubes as products: ``** 3`` goes to libm's pow
        y, z = x[:, 1], x[:, 2]
        out[:, 1] = -lambda_s * y + c2 * (y * y * y)
        out[:, 2] = lambda_u * z + c3 * (z * z * z)
        return out

    def dfb(x):
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 1, 1] = -lambda_s + 3.0 * c2 * x[:, 1] ** 2
        out[:, 2, 2] = lambda_u + 3.0 * c3 * x[:, 2] ** 2
        return out

    def d2fb(x):
        out = np.zeros((x.shape[0], 3, 3, 3))
        out[:, 1, 1, 1] = 6.0 * c2 * x[:, 1]
        out[:, 2, 2, 2] = 6.0 * c3 * x[:, 2]
        return out

    if Q is None:
        f, df, d2f = fb, dfb, d2fb
    else:
        QT = Q.T

        # rows y of the batch map to base coordinates as y @ Q
        def f(ys):
            return fb(ys @ Q) @ QT

        def df(ys):
            return Q @ dfb(ys @ Q) @ QT

        def d2f(ys):
            return np.einsum("ia,pabc,jb,kc->pijk", Q, d2fb(ys @ Q), Q, Q)

    params = {"lambda_s": lambda_s, "lambda_u": lambda_u}
    if name == "saddle-cubic":
        params["cubic"] = [c2, c3]
    if Q is not None:
        params["rotation"] = Q.tolist()
    return OdeModel(3, f, df, d2f, b=1.0, name=name, params=params)


def _limit_cycle_model():
    def f(pts):
        r2 = (pts ** 2).sum(axis=1)
        return np.column_stack([pts[:, 0] - pts[:, 1] - pts[:, 0] * r2,
                                pts[:, 0] + pts[:, 1] - pts[:, 1] * r2])

    def df(pts):
        x0, x1 = pts[:, 0], pts[:, 1]
        out = np.empty((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 - 3.0 * x0 ** 2 - x1 ** 2
        out[:, 0, 1] = -1.0 - 2.0 * x0 * x1
        out[:, 1, 0] = 1.0 - 2.0 * x0 * x1
        out[:, 1, 1] = 1.0 - x0 ** 2 - 3.0 * x1 ** 2
        return out

    def d2f(pts):
        x0, x1 = pts[:, 0], pts[:, 1]
        out = np.empty((pts.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = -6.0 * x0
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = out[:, 1, 0, 0] = -2.0 * x1
        out[:, 0, 1, 1] = out[:, 1, 0, 1] = out[:, 1, 1, 0] = -2.0 * x0
        out[:, 1, 1, 1] = -6.0 * x1
        return out

    return OdeModel(2, f, df, d2f, b=1.0, name="planar-limit-cycle",
                    params={})


# the entries of each built-in model: the cubic saddle is the only one
# with cubic coefficients, and it must declare them
_RATES = {"lambda_s": Entry("number", 1.0), "lambda_u": Entry("number", 1.0)}
_ROTATION = {"rotation": Entry("list", None, (3, 3))}
MODELS = {"lin-saddle": {**_RATES, **_ROTATION},
          "saddle-cubic": {**_RATES, "cubic": Entry("list", REQUIRED, (2,)),
                           **_ROTATION},
          "planar-limit-cycle": {}}


def builtin_model(name, params=None):
    """Construct a named model: lin-saddle, saddle-cubic, planar-limit-cycle,
    from the entries :data:`MODELS` declares for it (a saddle's rotation
    is an orthogonal matrix as nested lists)."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    p = check_entries(params or {}, MODELS[name], f"model {name!r}")
    if name == "planar-limit-cycle":
        return _limit_cycle_model()
    return _saddle_model(name, **p)


# the stored step 0.01 puts the monodromy's centre multiplier 9e-14 from 1
def unit_circle_orbit(delta=0.01):
    """The unit-circle orbit of the planar limit cycle over one period."""
    P = 2.0 * math.pi
    eff = (P / 2.0) / max(1, int(round((P / 2.0) / delta)))
    return GridFunction.sample(
        lambda ts: np.column_stack([np.cos(ts), np.sin(ts)]), P / 2.0, eff,
        interp_order=5), P


def analytic_frame(descriptor):
    """Frame from a closed-form descriptor: the entries of
    ``FRAMES["analytic"]`` and of the saddle its ``model`` names
    (:data:`MODELS`). The frame's invariants are verified on construction."""
    head = FRAMES["analytic"]
    name = descriptor.get("model")
    name = head["model"].default if name is None \
        else head["model"].check("model", name)
    d = check_entries(descriptor, {**head, **MODELS[name]}, "frame")
    model = builtin_model(name, {key: d[key] for key in MODELS[name]})
    frame = AnalyticFrame(model, [d["lambda_s"]], [d["lambda_u"]],
                          rotation=d["rotation"])
    report = verify_frame(frame)
    if not report.ok:
        raise ValueError(f"descriptor inconsistency: {report.failures}")
    return frame


# -- verification --------------------------------------------------------

@dataclass
class FrameReport:
    """Measured frame invariants and fitted quality, with failure labels."""

    completeness: float
    idempotence: float
    annihilation: float
    center_align: float
    bundle_invariance: float
    center_transport: float
    cocycle: float
    expo_slack: float
    proj_slack: float
    lambda_hat_s: float
    lambda_hat_u: float
    declared: QualityMeasures
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


_TOL_COCYCLE = 1e-7
_TOL_BUNDLE = 1e-6


def verify_frame(fr):
    """Check the splitting identities, propagator laws and quality claims.

    Projector algebra, center alignment, cocycle law, the exponential
    bounds with the declared constants, bundle invariance of the
    propagators, transport of the orbit direction, and a log-linear
    refit of the decay rates (2% agreement required on analytic frames).
    The checks read 41 sample times over [-10, 10] (one period either
    side on Floquet frames) and (base, gap) pairs on nine of them. The
    frame is read through its public methods, each batch over the union
    of the times its checks read: one projection batch, one
    ``propagate`` batch per nonempty bundle holding the three cocycle
    legs and the refit pairs, one full ``propagate`` batch and one orbit
    derivative batch. One stack of spectral norms serves the projection
    bound, the propagator bound and the refits; each check reads its
    rows.
    """
    # Floquet bases are interpolated, so their algebra holds more loosely
    if fr.mode == "floquet":
        reach, tol_algebra = fr.period, 1e-7
    else:
        reach, tol_algebra = 10.0, 1e-10
    sample_grid = np.linspace(-reach, reach, 41)
    base = sample_grid[:: max(1, sample_grid.size // 8)]
    t, g = _rate_pairs(base, np.array([0.7, 1.7, 3.1]))
    fit_t, fit_g = _rate_pairs(base, np.linspace(0.5, 5.0, 8))
    k, m, r = sample_grid.size, t.size, fit_t.size
    eye = np.eye(fr.model.n)
    q = fr.quality
    _, n_s, n_u = fr.dims
    failures = []

    # the grid, then t, t + g and t + 2g of the cocycle legs
    proj_all = fr.proj_batch(np.concatenate([sample_grid, t, t + g,
                                             t + 2 * g]))
    projs = tuple(P[:k] for P in proj_all)
    # per bundle U1, the refit pairs, U2 and U12: the stable propagator
    # runs from the earlier time to the later one, the unstable one back
    later = np.concatenate([t + g, fit_t + fit_g, t + 2 * g, t + 2 * g])
    earlier = np.concatenate([t, fit_t, t + g, t])
    props = {}
    if n_s:
        props["s"] = fr.propagate(later, earlier, "s")
    if n_u:
        props["u"] = fr.propagate(earlier, later, "u")
    # the projectors, then U1 and the refit pairs of each bundle
    norms = np.linalg.norm(np.concatenate(
        projs + tuple(Us[:m + r] for Us in props.values())), 2, axis=(1, 2))
    bundle_norms = norms[3 * k:].reshape(len(props), m + r)
    # a rate the refit cannot resolve, or U overflows on, is refused first
    lam_hat = {"s": math.inf, "u": math.inf}
    for i, sigma in enumerate(props):
        name = f"lambda_{sigma} {getattr(q, 'lam_' + sigma):g}"
        lam_hat[sigma], _ = _fit_rate(fit_g, bundle_norms[i, m:], name)
        if sigma == "u" and not 1.3 * q.lam_u < np.log(np.finfo(float).max):
            raise ValueError(f"frame rate {name} is too fast for the "
                             f"transport check: e^(1.3 lambda_u) overflows")
    U = fr.propagate(base + 1.3, base, "csu")
    f_all = fr.orbit_deriv_batch(np.concatenate([sample_grid, base,
                                                 base + 1.3]))
    fvec, f_base, f_moved = (f_all[:k], f_all[k:k + base.size],
                             f_all[k + base.size:])

    Pc, Ps, Pu = projs
    completeness = float(np.abs(Pc + Ps + Pu - eye).max())
    idempotence = max(float(np.abs(P @ P - P).max()) for P in projs)
    annihilation = max(float(np.abs(A @ B).max()) for A, B in (
        (Pc, Ps), (Pc, Pu), (Ps, Pu), (Ps, Pc), (Pu, Pc), (Pu, Ps)))
    fhat = fvec / np.linalg.norm(fvec, axis=1)[:, None]
    center_align = float(np.abs(
        (eye - fhat[:, :, None] * fhat[:, None, :]) @ Pc).max())
    for label, val in (("completeness", completeness),
                       ("idempotence", idempotence),
                       ("annihilation", annihilation),
                       ("center alignment", center_align)):
        if not val <= tol_algebra:
            failures.append(f"{label} {val:.2e}")

    bundle_invariance = cocycle = 0.0
    expo_slack = -math.inf
    for i, (sigma, Us) in enumerate(props.items()):
        U1, U2, U12 = Us[:m], Us[m + r:2 * m + r], Us[2 * m + r:]
        at_t, at_tg, at_t2g = proj_all["csu".index(sigma)][k:].reshape(
            (3, m) + eye.shape)
        if sigma == "s":
            chained, Pv, Pr, lam = U2 @ U1, at_t, at_tg, q.lam_s
        else:
            chained, Pv, Pr, lam = U1 @ U2, at_t2g, at_t, q.lam_u
        norm_U1 = bundle_norms[i, :m]
        cocycle = max(cocycle, float(np.abs(chained - U12).max()))
        decay = np.exp(-lam * g) if math.isfinite(lam) else np.zeros_like(g)
        expo_slack = max(expo_slack, float((norm_U1 - q.C_U * decay).max()))
        bundle_invariance = max(bundle_invariance, float(
            np.abs((eye - Pr) @ U1 @ Pv).max()))
    moved = np.einsum("kij,kj->ki", U, f_base)
    center_transport = float(np.linalg.norm(moved - f_moved, axis=1).max())
    proj_slack = float(norms[:3 * k].max()) - q.C_Pi
    for label, val, tol in (
            ("cocycle", cocycle, _TOL_COCYCLE),
            ("propagator bound exceeded by", expo_slack, 1e-9),
            ("projection bound exceeded by", proj_slack, 1e-9),
            ("bundle invariance", bundle_invariance, _TOL_BUNDLE),
            ("center transport", center_transport, _TOL_BUNDLE)):
        if not val <= tol:
            failures.append(f"{label} {val:.2e}")

    for sigma in ("s", "u"):
        declared = q.lam_s if sigma == "s" else q.lam_u
        if fr.mode == "analytic" and math.isfinite(declared):
            if not abs(lam_hat[sigma] - declared) <= 0.02 * declared:
                failures.append(
                    f"lambda_{sigma} refit {lam_hat[sigma]:.4f} vs {declared}")

    return FrameReport(
        completeness=completeness, idempotence=idempotence,
        annihilation=annihilation, center_align=center_align,
        bundle_invariance=bundle_invariance,
        center_transport=center_transport, cocycle=cocycle,
        expo_slack=expo_slack, proj_slack=proj_slack,
        lambda_hat_s=lam_hat["s"], lambda_hat_u=lam_hat["u"],
        declared=q, failures=failures)


# the entries of a scenario's frame by mode, an analytic frame's beside
# those of its model (MODELS)
FRAMES = {
    "analytic": {"mode": Entry("string", "analytic", ("analytic",)),
                 "model": Entry("string", "lin-saddle",
                                ("lin-saddle", "saddle-cubic"))},
    "floquet": {"mode": Entry("string", REQUIRED, ("floquet",)),
                "model": Entry("string", "planar-limit-cycle",
                               ("planar-limit-cycle",))},
}


def frame_from_descriptor(desc):
    """Build a frame from its JSON descriptor, read through
    :data:`FRAMES` by its mode."""
    mode = "analytic" if desc.get("mode") is None else desc["mode"]
    if Entry("string", range=tuple(FRAMES)).check("mode", mode) == "analytic":
        return analytic_frame(desc)
    d = check_entries(desc, FRAMES["floquet"], "frame")
    return FloquetFrame(builtin_model(d["model"]), *unit_circle_orbit())
