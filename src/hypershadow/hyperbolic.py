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

from .funcspace import GridFunction, real_number

__all__ = [
    "OdeModel",
    "QualityMeasures",
    "AnalyticFrame",
    "FloquetFrame",
    "FrameTable",
    "FrameReport",
    "BundleReport",
    "analytic_frame",
    "floquet_frame",
    "verify_frame",
    "bundle_characterization_test",
    "augment_nonautonomous",
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

    def check_derivatives(self, points):
        """Compare df against differences of f, and d2f against df.

        Relative to 1 + the norm of the analytic value, point by point;
        every point and coordinate step is differenced in one batch.
        Raises on disagreement beyond 1e-6 for df and 1e-5 for d2f.
        """
        x = np.atleast_2d(np.asarray(points, dtype=float))
        k, n = x.shape
        size = 1.0 + np.abs(x).max(axis=1)

        def worst(exact, fn, h):
            # row (p, j) steps point p by h_p along e_j; the difference
            # along e_j fills the last axis of the analytic value
            steps = h[:, None, None] * np.eye(n)
            plus = fn((x[:, None, :] + steps).reshape(k * n, n))
            minus = fn((x[:, None, :] - steps).reshape(k * n, n))
            fd = ((plus - minus).reshape((k, n) + exact.shape[1:-1])
                  / (2.0 * h).reshape((k,) + (1,) * (exact.ndim - 1)))
            fd = np.moveaxis(fd, 1, -1)
            axes = tuple(range(1, exact.ndim))
            return float((np.abs(exact - fd).max(axis=axes)
                          / (1.0 + np.abs(exact).max(axis=axes))).max())

        worst_df = worst(self.df_batch(x), self.f_batch, 1e-6 * size)
        worst_d2f = worst(self.d2f_batch(x), self.df_batch, 1e-4 * size)
        if worst_df > 1e-6:
            raise ValueError(f"df disagrees with differences of f: {worst_df:.2e}")
        if worst_d2f > 1e-5:
            raise ValueError(f"d2f disagrees with differences of df: {worst_d2f:.2e}")
        return worst_df, worst_d2f


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

    def as_dict(self):
        return {"C_U": self.C_U, "C_Pi": self.C_Pi, "lam_s": self.lam_s,
                "lam_u": None if math.isinf(self.lam_u) else self.lam_u}


class FrameTable:
    """A frame evaluated at fixed times, for every call that reads them.

    ``times`` (k,); ``x0`` the orbit there, ``f0`` = f(x0), ``df0`` =
    Df(x0), each (k, ...); ``A`` and ``Ainv`` the frame's adapted basis
    and its inverse (see ``_FrameBase``). Each is computed on first use
    and kept, so a table built once per lattice pays for the frame once,
    and a table made on the spot for raw times computes only what its
    caller reads. ``np.asarray(table)`` gives the times, so a table goes
    wherever times go. ``take(rows)`` cuts a table for some of the times
    out of one whose basis is evaluated once for all of them.
    """

    def __init__(self, frame, times):
        self.frame = frame
        self.times = np.asarray(times, dtype=float)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.times, dtype=dtype, copy=copy)

    @cached_property
    def x0(self):
        return self.frame.orbit_batch(self.times)

    @cached_property
    def f0(self):
        return self.frame.model.f_batch(self.x0)

    @cached_property
    def df0(self):
        return self.frame.model.df_batch(self.x0)

    @cached_property
    def _basis_pair(self):
        return self.frame._basis(self.times)

    @property
    def A(self):
        return self._basis_pair[0]

    @property
    def Ainv(self):
        return self._basis_pair[1]

    def take(self, rows):
        """The table at ``times[rows]``, its basis the rows of this one's."""
        sub = FrameTable(self.frame, self.times[rows])
        A, Ainv = self._basis_pair
        # a basis that does not move is one matrix for every time
        sub._basis_pair = (A, Ainv) if len(A) == 1 else (A[rows], Ainv[rows])
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

    def df_along_orbit(self, ts):
        return self.table(ts).df0

    def _slot(self, sigma):
        """Columns of the adapted basis that span bundle ``sigma``."""
        _, n_s, n_u = self.dims
        return {"c": slice(0, 1), "s": slice(1, 1 + n_s),
                "u": slice(1 + n_s, 1 + n_s + n_u)}[sigma]

    def _bases(self, ts):
        """(A, Ainv) at ``ts``, read through ``table(ts)``."""
        tab = self.table(ts)
        return tab.A, tab.Ainv

    def _projector(self, sigma, A, Ainv):
        sl = self._slot(sigma)
        return A[:, :, sl] @ Ainv[:, sl, :]

    def basis(self, sigma, rho=0.0):
        A, _ = self._bases(np.atleast_1d(float(rho)))
        return A[0][:, self._slot(sigma)]

    def proj_batch(self, rhos):
        A, Ainv = self._bases(rhos)
        shape = (np.size(rhos),) + A.shape[1:]
        return tuple(np.broadcast_to(self._projector(sigma, A, Ainv),
                                     shape).copy() for sigma in "csu")

    def proj_apply(self, sigma, rhos, vecs):
        A, Ainv = self._bases(rhos)
        return _apply(self._projector(sigma, A, Ainv),
                      np.asarray(vecs, dtype=float))

    # -- propagators ------------------------------------------------------

    def prop_s_batch(self, rhos, vs):
        return self._propagate(rhos, vs, "s")

    def prop_u_batch(self, rhos, vs):
        return self._propagate(rhos, vs, "u")

    def prop_full_batch(self, rhos, vs):
        return self._propagate(rhos, vs, "csu")

    def _propagate(self, rhos, vs, sigmas):
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
        A = self._bases(rhos if isinstance(rhos, FrameTable) else to)[0]
        Ainv = self._bases(vs if isinstance(vs, FrameTable) else frm)[1]
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
        # rhos and vs may be tables: times for the sweep, bases from _bases
        ts, us, order, owner, keep = _sweep(rhos, vs, sigma == "s")
        sl = self._slot(sigma)
        if sl.stop == sl.start:
            return np.zeros((ts.size, self.model.n))
        coords = _apply(self._bases(vs)[1][:, sl, :],
                        np.asarray(wvs, dtype=float))[keep]
        nodes = ts[order]
        owner = owner[keep]
        load = np.zeros((ts.size, sl.stop - sl.start))
        np.add.at(load, owner,
                  _apply(self._carry(sigma, nodes[owner], us[keep]), coords))
        fac = np.zeros(load.shape + load.shape[1:])
        fac[1:] = self._carry(sigma, nodes[1:], nodes[:-1])
        return _apply(self._bases(rhos)[0][:, :, sl],
                      _decay_scan(fac, load)[order])

    def descriptor(self):
        return {
            "model": self.model.name,
            "parameters": self.model.params,
            "quality": self.quality.as_dict(),
            "mode": self.mode,
            "dims": list(self.dims),
        }


def _apply(mats, vecs):
    """mats[k] @ vecs[k] for each k, a stack of one matrix broadcasting."""
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


def _decay_scan(fac, load):
    """acc_k = fac_k @ acc_{k-1} + load_k along axis 0, with fac_0 = 0.

    ``fac`` is (K, m, m) and ``load`` (K, m). Hillis-Steele doubling:
    pass d composes each affine map with the one d rows before it, the
    later factor on the left, so log2(K) vectorized passes replace the
    K-step recurrence. Every factor contracts, and so does every product.
    """
    a = fac.copy()
    b = load.copy()
    d = 1
    while d < b.shape[0]:
        b[d:] = b[d:] + _apply(a[d:], b[:-d])
        a[d:] = a[d:] @ a[:-d]
        d *= 2
    return b


def _prefix_products(mats):
    """I, M_0, M_1 M_0, ..., M_{K-1} ... M_0 for a (K, n, n) stack.

    The doubling of :func:`_decay_scan`: pass d multiplies each running
    product by the one d rows before it, the later factor on the left.
    """
    out = np.concatenate([np.eye(mats.shape[1])[None], mats])
    d = 1
    while d < out.shape[0]:
        out[d:] = out[d:] @ out[:-d]
        d *= 2
    return out


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


def _realify(eigvals, eigvecs, selector):
    """Real basis and real block matrix for the selected eigenvalues."""
    n = eigvecs.shape[0]
    cols = []
    blocks = []
    used = set()
    for i, mu in enumerate(eigvals):
        if i in used or not selector(mu):
            continue
        v = eigvecs[:, i]
        if abs(mu.imag) < 1e-12:
            w = v.real if np.abs(v.real).max() >= np.abs(v.imag).max() else v.imag
            cols.append(w / np.linalg.norm(w))
            blocks.append(np.array([[mu.real]]))
            used.add(i)
        else:
            # complex pair: real and imaginary parts span a 2-plane
            j = None
            for i2 in range(i + 1, n):
                if i2 not in used and abs(eigvals[i2] - np.conj(mu)) < 1e-8:
                    j = i2
                    break
            p, q = v.real, v.imag
            sc = max(np.linalg.norm(p), np.linalg.norm(q))
            cols.extend([p / sc, q / sc])
            a, b_ = mu.real, mu.imag
            blocks.append(np.array([[a, b_], [-b_, a]]))
            used.add(i)
            if j is not None:
                used.add(j)
    if not cols:
        return np.zeros((n, 0)), np.zeros((0, 0))
    V = np.column_stack(cols)
    dim = V.shape[1]
    S = np.zeros((dim, dim))
    at = 0
    for blk in blocks:
        d = blk.shape[0]
        S[at:at + d, at:at + d] = blk
        at += d
    return V, S


class FloquetFrame(_FrameBase):
    """Frame built from the monodromy of a periodic orbit.

    The fundamental solution Psi over one period comes from a fixed
    fourth-order rule. The variational equation is linear, so each RK4
    substep is one transition matrix M_i, and all of them are built in a
    few batched products from Df at the substep's start, middle and end;
    Psi at every node is then the prefix product M_{j-1} ... M_0 of a
    doubling scan. The monodromy spectrum supplies the stable and
    unstable eigenspaces V_s, V_u (complex pairs realified) and the
    block maps S_s, S_u they restrict it to. The adapted basis at t is
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
        psi = _prefix_products(eye + (h / 6.0) * (A1 + 2.0 * (K2 + K3) + K4))
        stored = psi[::substeps].reshape(nsteps + 1, n * n)
        self.monodromy = psi[-1].copy()
        self._psi = GridFunction(P / 2.0, delta, stored, interp_order=5,
                                 extension="constant-hold")

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
        # the off-circle margin was validated above, so these selectors
        # cannot swallow the center multiplier
        V_s, S_s = _realify(mus, vecs, lambda mu: abs(mu) < 1.0 - 1e-3)
        V_u, S_u = _realify(mus, vecs, lambda mu: abs(mu) > 1.0 + 1e-3)
        self.V_s, self.S_s = V_s, S_s
        self.V_u, self.S_u = V_u, S_u
        n_s, n_u = V_s.shape[1], V_u.shape[1]
        if 1 + n_s + n_u != n:
            raise ValueError("splitting dimensions do not fill the space")
        self.dims = (1, n_s, n_u)
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
        for e in np.unique(gap).tolist():
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
                self.prop_s_batch(later, earlier), 2, axis=(1, 2)))
        if self.dims[2]:
            lam_u, C_u = _fit_rate(g, np.linalg.norm(
                self.prop_u_batch(earlier, later), 2, axis=(1, 2)))
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


def _fit_rate(gaps, norms):
    """Log-linear fit of the propagator norms |U| against their gaps.

    Returns the fitted decay rate and max(1, sup |U| e^{rate gap}).
    """
    pos = norms > 0.0
    lam = -float(np.polyfit(gaps[pos], np.log(norms[pos]), 1)[0])
    return lam, max(1.0, float((norms * np.exp(lam * gaps)).max()))


# -- builtin models -----------------------------------------------------

def _saddle_model(lam_s, lam_u, cubic=(0.0, 0.0), rotation=None):
    c2, c3 = float(cubic[0]), float(cubic[1])
    Q = None if rotation is None else np.asarray(rotation, dtype=float)

    # batched in base coordinates: rows of x are points, shape (k, 3)
    def fb(x):
        out = np.empty(x.shape)
        out[:, 0] = 1.0
        out[:, 1] = -lam_s * x[:, 1] + c2 * x[:, 1] ** 3
        out[:, 2] = lam_u * x[:, 2] + c3 * x[:, 2] ** 3
        return out

    def dfb(x):
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 1, 1] = -lam_s + 3.0 * c2 * x[:, 1] ** 2
        out[:, 2, 2] = lam_u + 3.0 * c3 * x[:, 2] ** 2
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

    name = "saddle-cubic" if (c2 or c3) else "lin-saddle"
    params = {"lambda_s": lam_s, "lambda_u": lam_u}
    if c2 or c3:
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


def builtin_model(name, params=None):
    """Construct a named model: lin-saddle, saddle-cubic, planar-limit-cycle.

    The saddles read lambda_s and lambda_u (default 1), optional cubic
    [c2, c3] and optional rotation (orthogonal matrix as nested lists),
    each entry a finite real; a ValueError names the first that is not.
    """
    params = dict(params or {})
    if name in ("lin-saddle", "saddle-cubic"):
        lam_s, lam_u = (real_number(key, params.get(key, 1.0), finite=True)
                        for key in ("lambda_s", "lambda_u"))
        cubic = [real_number("cubic", c, finite=True) for c in
                 np.asarray(params.get("cubic", (0.0, 0.0)),
                            dtype=object).ravel()]
        if len(cubic) != 2:
            raise ValueError(f"cubic must be [c2, c3], got {cubic!r}")
        rot = params.get("rotation")
        if rot is not None:
            for x in np.asarray(rot, dtype=object).ravel():
                real_number("rotation", x, finite=True)
        return _saddle_model(lam_s, lam_u, cubic=cubic, rotation=rot)
    if name == "planar-limit-cycle":
        return _limit_cycle_model()
    raise ValueError(f"unknown model {name!r}")


# bounds of the step of the stored unit-circle orbit. Its degree-5
# stencil needs six nodes: delta <= pi/3 keeps at least three cells per
# half period, seven nodes per period. The orbit and the RK4 monodromy
# hold rows per cell (Df at two per RK4 step), 2 pi/delta cells per
# period, so a floor bounds their size: at delta = 1e-4 that is 62 832
# cells, against 628 at the default 0.01. Refining further buys no
# accuracy: the centre multiplier's distance from 1 is 9e-14 at 0.01,
# 2e-16 at 1e-3, and grows again below that as rounding accumulates
# along the longer prefix products (4e-14 at 1e-4). Within the bounds,
# a step coarser than pi/18.5 (about 0.17; fewer than 19 cells per half
# period) passes the stencil but moves the centre multiplier more than
# 1e-6 from 1 (1.2e-6 at 0.17, 7e-4 at 0.5), and the build fails naming
# the step.
_ORBIT_DELTA_MIN = 1e-4
_ORBIT_DELTA_MAX = math.pi / 3.0


def unit_circle_orbit(delta=0.01):
    """The unit-circle orbit of the planar limit cycle over one period."""
    P = 2.0 * math.pi
    eff = (P / 2.0) / max(1, int(round((P / 2.0) / delta)))
    return GridFunction.sample(
        lambda ts: np.column_stack([np.cos(ts), np.sin(ts)]), P / 2.0, eff,
        interp_order=5, extension="constant-hold"), P


def analytic_frame(descriptor):
    """Frame from a closed-form descriptor dict: model (lin-saddle or
    saddle-cubic) and the parameters :func:`builtin_model` reads. The
    frame's invariants are verified on construction."""
    name = descriptor.get("model", "lin-saddle")
    if name not in ("lin-saddle", "saddle-cubic"):
        raise ValueError(f"no analytic splitting for model {name!r}")
    model = builtin_model(name, descriptor)
    p = model.params
    frame = AnalyticFrame(model, [p["lambda_s"]], [p["lambda_u"]],
                          rotation=p.get("rotation"))
    report = verify_frame(frame)
    if not report.ok:
        raise ValueError(f"descriptor inconsistency: {report.failures}")
    return frame


def floquet_frame(model, periodic_orbit, period):
    """Frame from the monodromy of a periodic orbit; see FloquetFrame."""
    return FloquetFrame(model, periodic_orbit, period)


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
    side on Floquet frames) and (base, gap) pairs on nine of them. Each
    frame primitive is called once, through the frame's public methods,
    over the union of the times its checks read: one projection batch,
    one propagator batch per nonempty bundle holding the three cocycle
    legs and the refit pairs, one full propagator batch and one orbit
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
        props["s"] = fr.prop_s_batch(later, earlier)
    if n_u:
        props["u"] = fr.prop_u_batch(earlier, later)
    U = fr.prop_full_batch(base + 1.3, base)
    f_all = fr.orbit_deriv_batch(np.concatenate([sample_grid, base,
                                                 base + 1.3]))
    fvec, f_base, f_moved = (f_all[:k], f_all[k:k + base.size],
                             f_all[k + base.size:])
    # the projectors, then U1 and the refit pairs of each bundle
    norms = np.linalg.norm(np.concatenate(
        projs + tuple(Us[:m + r] for Us in props.values())), 2, axis=(1, 2))
    bundle_norms = norms[3 * k:].reshape(len(props), m + r)

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
        if val > tol_algebra:
            failures.append(f"{label} {val:.2e}")

    bundle_invariance = cocycle = 0.0
    expo_slack = -math.inf
    lam_hat = {"s": math.inf, "u": math.inf}
    for i, (sigma, Us) in enumerate(props.items()):
        U1, U2, U12 = Us[:m], Us[m + r:2 * m + r], Us[2 * m + r:]
        at_t, at_tg, at_t2g = proj_all["csu".index(sigma)][k:].reshape(
            (3, m) + eye.shape)
        if sigma == "s":
            chained, Pv, Pr, lam = U2 @ U1, at_t, at_tg, q.lam_s
        else:
            chained, Pv, Pr, lam = U1 @ U2, at_t2g, at_t, q.lam_u
        norm_U1, norm_fit = bundle_norms[i, :m], bundle_norms[i, m:]
        cocycle = max(cocycle, float(np.abs(chained - U12).max()))
        decay = np.exp(-lam * g) if math.isfinite(lam) else np.zeros_like(g)
        expo_slack = max(expo_slack, float((norm_U1 - q.C_U * decay).max()))
        bundle_invariance = max(bundle_invariance, float(
            np.abs((eye - Pr) @ U1 @ Pv).max()))
        lam_hat[sigma], _ = _fit_rate(fit_g, norm_fit)
    moved = np.einsum("kij,kj->ki", U, f_base)
    center_transport = float(np.linalg.norm(moved - f_moved, axis=1).max())
    proj_slack = float(norms[:3 * k].max()) - q.C_Pi
    for label, val, tol in (
            ("cocycle", cocycle, _TOL_COCYCLE),
            ("propagator bound exceeded by", expo_slack, 1e-9),
            ("projection bound exceeded by", proj_slack, 1e-9),
            ("bundle invariance", bundle_invariance, _TOL_BUNDLE),
            ("center transport", center_transport, _TOL_BUNDLE)):
        if val > tol:
            failures.append(f"{label} {val:.2e}")

    for sigma in ("s", "u"):
        declared = q.lam_s if sigma == "s" else q.lam_u
        if fr.mode == "analytic" and math.isfinite(declared):
            if abs(lam_hat[sigma] - declared) > 0.02 * declared:
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


@dataclass(frozen=True)
class BundleReport:
    sigma: str
    residual_sup: float
    xi_sup: float
    ok: bool


def bundle_characterization_test(fr, sigma, xi0):
    """Propagate xi0 in its bundle and test the residual characterization.

    xi(t) = U^sigma(t; 0) xi0 must satisfy xi' - Df(x0) xi in E^sigma_t;
    the report carries the sup of (I - Pi^sigma)(xi' - Df xi) over
    [-2, 2] at step 0.01, which must stay below 1e-6.
    """
    half_width, delta = 2.0, 0.01
    xi0 = np.asarray(xi0, dtype=float)
    Pc, Ps, Pu = (P[0] for P in fr.proj_batch(np.zeros(1)))
    P0 = {"s": Ps, "u": Pu, "c": Pc}[sigma]
    if np.linalg.norm(xi0 - P0 @ xi0) > 1e-8 * max(1.0, np.linalg.norm(xi0)):
        raise ValueError("xi0 must lie in the declared subspace")
    prop = fr.prop_s_batch if sigma == "s" else fr.prop_u_batch
    g = GridFunction.sample(lambda ts: prop(ts, 0.0) @ xi0, half_width,
                            delta, interp_order=5, extension="constant-hold")
    ts, xi = g.nodes, g.values
    dxi = g.derivative(1).values
    dfs = fr.df_along_orbit(ts)
    resid = dxi - np.einsum("kij,kj->ki", dfs, xi)
    Pall = fr.proj_batch(ts)
    P = {"c": Pall[0], "s": Pall[1], "u": Pall[2]}[sigma]
    out = resid - np.einsum("kij,kj->ki", P, resid)
    # window ends use one-sided difference stencils; drop the edge nodes
    core = slice(3, -3)
    sup = float(np.linalg.norm(out[core], axis=1).max())
    return BundleReport(sigma=sigma, residual_sup=sup,
                        xi_sup=float(np.linalg.norm(xi, axis=1).max()),
                        ok=sup <= 1e-6)


def augment_nonautonomous(g, jac, n, hess=None):
    """Autonomize a time-dependent field by adjoining the time variable.

    Batched over k points like the model: ``g(x (k, n), t (k,)) -> (k, n)``
    with ``jac(x, t) -> (k, n, n+1)`` the derivative in (x, t) and
    optional ``hess(x, t) -> (k, n, n+1, n+1)``. Returns the OdeModel for
    y' = (g(y_head, y_last), 1), whose speed floor b is 1: the adjoined
    time moves at unit rate.
    """
    m = n + 1

    def f(y):
        out = np.empty(y.shape)
        out[:, :n] = g(y[:, :n], y[:, n])
        out[:, n] = 1.0
        return out

    def df(y):
        out = np.zeros((y.shape[0], m, m))
        out[:, :n, :] = jac(y[:, :n], y[:, n])
        return out

    def d2f(y):
        out = np.zeros((y.shape[0], m, m, m))
        if hess is not None:
            out[:, :n, :, :] = hess(y[:, :n], y[:, n])
        return out

    return OdeModel(m, f, df, d2f, b=1.0, name="nonautonomous")


def frame_from_descriptor(desc):
    """Build a frame from its JSON descriptor (mode analytic or floquet)."""
    mode = desc.get("mode", "analytic")
    if mode == "analytic":
        merged = {"model": desc.get("model", "lin-saddle")}
        merged.update(desc.get("parameters", {}))
        merged.update({k: v for k, v in desc.items()
                       if k not in ("parameters", "mode", "quality", "dims")})
        return analytic_frame(merged)
    if mode == "floquet":
        name = desc.get("model", "planar-limit-cycle")
        if name != "planar-limit-cycle":
            raise ValueError(f"no stored periodic orbit for model {name!r}")
        delta = real_number("frame parameter 'delta'",
                            desc.get("parameters", {}).get("delta", 0.01),
                            finite=True)
        if delta <= 0.0:
            raise ValueError(f"frame parameter 'delta' must be positive, "
                             f"got {delta!r}")
        if delta < _ORBIT_DELTA_MIN:
            raise ValueError(
                f"frame parameter 'delta' must be at least "
                f"{_ORBIT_DELTA_MIN:g}, at most "
                f"{2.0 * math.pi / _ORBIT_DELTA_MIN:.0f} cells per period, "
                f"got {delta!r}")
        if delta > _ORBIT_DELTA_MAX:
            raise ValueError(
                f"frame parameter 'delta' must be at most pi/3 = "
                f"{_ORBIT_DELTA_MAX:.6g}, three cells per half period for "
                f"the orbit's degree-5 stencil, got {delta!r}")
        orbit, period = unit_circle_orbit(delta)
        try:
            return floquet_frame(builtin_model(name), orbit, period)
        except ValueError as exc:
            # the stored orbit is exact, so its step is what failed
            raise ValueError(f"frame parameter 'delta' = {delta!r} is too "
                             f"coarse for the stored orbit: {exc}") from None
    raise ValueError(f"unknown splitting mode {mode!r}")
