"""Hyperbolic frames: the unperturbed orbit, its splitting, and propagators.

A frame bundles the orbit evaluator x0, the projections onto the center,
stable and unstable subspaces along the orbit, the decaying propagators
on the stable and unstable bundles, and the quality measures
(C_U, C_Pi, lambda_s, lambda_u) that size every contraction estimate
downstream. Frames come from closed-form descriptors (saddle benchmarks)
or from the Floquet construction on a periodic orbit.

The center direction is always the span of f(x0), so n_c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .funcspace import GridFunction

__all__ = [
    "OdeModel",
    "QualityMeasures",
    "AnalyticFrame",
    "FloquetFrame",
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

    ``f(x) -> (n,)``, ``df(x) -> (n, n)`` and ``d2f(x) -> (n, n, n)``
    with d2f[i, j, k] the second partial of f_i. ``b`` is a positive
    lower bound for |f(x0)| along the orbit the model is used with.
    Optional ``*_many`` callables take stacked points (k, n).
    """

    def __init__(self, n, f, df, d2f, b, name="model", params=None,
                 f_many=None, df_many=None, d2f_many=None):
        if not (b > 0.0):
            raise ValueError("b must be positive")
        self.n = int(n)
        self.f = f
        self.df = df
        self.d2f = d2f
        self.b = float(b)
        self.name = str(name)
        self.params = dict(params or {})
        self._f_many = f_many
        self._df_many = df_many
        self._d2f_many = d2f_many

    @staticmethod
    def _stacked(many, one, pts):
        # models without a batched form are evaluated point by point
        pts = np.asarray(pts, dtype=float)
        if many is not None:
            return np.asarray(many(pts), dtype=float)
        return np.stack([np.asarray(one(p), dtype=float) for p in pts])

    def f_batch(self, pts):
        return self._stacked(self._f_many, self.f, pts)

    def df_batch(self, pts):
        return self._stacked(self._df_many, self.df, pts)

    def d2f_batch(self, pts):
        return self._stacked(self._d2f_many, self.d2f, pts)

    def check_derivatives(self, points, tol_df=1e-6, tol_d2f=1e-5):
        """Compare df against differences of f, and d2f against df.

        Relative to 1 + the norm of the analytic value. Raises on
        disagreement beyond the tolerances.
        """
        worst_df = 0.0
        worst_d2f = 0.0
        for x in np.atleast_2d(np.asarray(points, dtype=float)):
            n = self.n
            J = np.asarray(self.df(x), dtype=float)
            H = np.asarray(self.d2f(x), dtype=float)
            h1 = 1e-6 * (1.0 + np.abs(x).max())
            Jfd = np.empty_like(J)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h1
                Jfd[:, j] = (np.asarray(self.f(x + e)) -
                             np.asarray(self.f(x - e))) / (2.0 * h1)
            worst_df = max(worst_df,
                           np.abs(J - Jfd).max() / (1.0 + np.abs(J).max()))
            h2 = 1e-4 * (1.0 + np.abs(x).max())
            Hfd = np.empty_like(H)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h2
                Hfd[:, :, k] = (np.asarray(self.df(x + e)) -
                                np.asarray(self.df(x - e))) / (2.0 * h2)
            worst_d2f = max(worst_d2f,
                            np.abs(H - Hfd).max() / (1.0 + np.abs(H).max()))
        if worst_df > tol_df:
            raise ValueError(f"df disagrees with differences of f: {worst_df:.2e}")
        if worst_d2f > tol_d2f:
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


class _FrameBase:
    """Shared scalar wrappers over the batched frame interface."""

    def orbit(self, t):
        return self.orbit_batch(np.atleast_1d(float(t)))[0]

    def orbit_deriv(self, t):
        return self.orbit_deriv_batch(np.atleast_1d(float(t)))[0]

    def proj(self, rho):
        Pc, Ps, Pu = self.proj_batch(np.atleast_1d(float(rho)))
        return Pc[0], Ps[0], Pu[0]

    def prop_s(self, rho, v):
        return self.prop_s_batch([float(rho)], [float(v)])[0]

    def prop_u(self, rho, v):
        return self.prop_u_batch([float(rho)], [float(v)])[0]

    def prop_full(self, rho, v):
        return self.prop_full_batch([float(rho)], [float(v)])[0]

    def orbit_deriv_batch(self, ts):
        # the orbit solves the unperturbed equation, so its derivative is f(x0)
        return self.model.f_batch(self.orbit_batch(ts))

    def df_along_orbit(self, ts):
        return self.model.df_batch(self.orbit_batch(ts))

    def proj_apply(self, sigma, rhos, vecs):
        Pc, Ps, Pu = self.proj_batch(np.asarray(rhos, dtype=float))
        P = {"c": Pc, "s": Ps, "u": Pu}[sigma]
        return np.einsum("kij,kj->ki", P, np.asarray(vecs, dtype=float))

    def descriptor(self):
        return {
            "model": self.model.name,
            "parameters": self.model.params,
            "quality": self.quality.as_dict(),
            "mode": self.mode,
            "dims": list(self.dims),
        }


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
    """acc_k = fac_k * acc_{k-1} + load_k along axis 0, with fac_0 = 0.

    Hillis-Steele doubling: pass d composes each affine map with the one
    d rows before it, so log2(K) vectorized passes replace the K-step
    recurrence. Every fac is at most 1, and so is every product.
    """
    a = fac.copy()
    b = load.copy()
    d = 1
    while d < b.shape[0]:
        b[d:] = b[d:] + a[d:] * b[:-d]
        a[d:] = a[d:] * a[:-d]
        d *= 2
    return b


class AnalyticFrame(_FrameBase):
    """Frame with a closed-form splitting, diagonal in rotated coordinates.

    In base coordinates the orbit is (t, 0, ..., 0), the center direction
    is the first axis and each stable/unstable slot decays at its own
    exact rate. ``rotation`` conjugates everything by a fixed orthogonal
    matrix.
    """

    mode = "analytic"

    def __init__(self, model, rates_s, rates_u, rotation=None,
                 orbit_speed=1.0, desc=None):
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
        self.s_slots = np.arange(1, 1 + n_s)
        self.u_slots = np.arange(1 + n_s, n)
        self.orbit_speed = float(orbit_speed)
        lam_s = float(self.rates_s.min()) if n_s else math.inf
        lam_u = float(self.rates_u.min()) if n_u else math.inf
        self.quality = QualityMeasures(1.0, 1.0, lam_s, lam_u)
        self._desc = desc or {}

    # -- geometry -----------------------------------------------------

    def orbit_batch(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, self.model.n))
        out[:, 0] = self.orbit_speed * ts
        return out @ self.Q.T

    def proj_batch(self, rhos):
        k = np.asarray(rhos, dtype=float).size
        n = self.model.n
        return tuple(np.broadcast_to(B @ B.T, (k, n, n)).copy()
                     for B in map(self.basis, "csu"))

    def _diag_prop(self, rhos, vs, stable, unstable, center):
        # exact decay per slot, conjugated by the rotation: Q diag(d) Q^T
        rhos, vs = _pairs(rhos, vs)
        dt = rhos - vs
        d = np.zeros((dt.size, self.model.n))
        d[:, 0] = center
        if stable:
            d[:, self.s_slots] = np.exp(-np.outer(dt, self.rates_s))
        if unstable:
            d[:, self.u_slots] = np.exp(np.outer(dt, self.rates_u))
        return (self.Q * d[:, None, :]) @ self.Q.T

    def prop_s_batch(self, rhos, vs):
        return self._diag_prop(rhos, vs, True, False, 0.0)

    def prop_u_batch(self, rhos, vs):
        return self._diag_prop(rhos, vs, False, True, 0.0)

    def prop_full_batch(self, rhos, vs):
        return self._diag_prop(rhos, vs, True, True, 1.0)

    def basis(self, sigma, rho=0.0):
        slots = {"c": [0], "s": self.s_slots, "u": self.u_slots}[sigma]
        return self.Q[:, list(slots)]

    # -- weighted propagator sums ---------------------------------------

    def convolve_stable(self, rhos, vs, wvs):
        """sum over v_i <= rho of U^s(rho; v_i) wvs_i for each rho.

        ``rhos`` and ``vs`` ascending (``ValueError`` otherwise); ``wvs``
        already carries the quadrature weights. Each v decays to the
        first rho at or after it, and the decay between neighbouring
        rhos is applied by a doubling scan, so no exponential ever
        exceeds 1.
        """
        return self._convolve(rhos, vs, wvs, self.s_slots, self.rates_s,
                              stable=True)

    def convolve_unstable(self, rhos, vs, wvs):
        """sum over v_i >= rho of U^u(rho; v_i) wvs_i for each rho."""
        return self._convolve(rhos, vs, wvs, self.u_slots, self.rates_u,
                              stable=False)

    def _convolve(self, rhos, vs, wvs, slots, rates, stable):
        rhos, vs, order, owner, keep = _sweep(rhos, vs, stable)
        if len(slots) == 0:
            return np.zeros((rhos.size, self.model.n))
        basis = self.Q[:, list(slots)]
        coords = (np.asarray(wvs, dtype=float) @ self.Q)[:, list(slots)]
        nodes = rhos[order]
        owner = owner[keep]
        decay = np.exp(-np.outer(np.abs(nodes[owner] - vs[keep]), rates))
        load = np.zeros((rhos.size, len(slots)))
        np.add.at(load, owner, decay * coords[keep])
        fac = np.zeros_like(load)
        fac[1:] = np.exp(-np.outer(np.abs(np.diff(nodes)), rates))
        return _decay_scan(fac, load)[order] @ basis.T


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

    The fundamental solution over one period is integrated with a fixed
    fourth-order step; the monodromy spectrum supplies the stable and
    unstable eigenspaces (complex pairs realified), which are carried to
    every time by the propagated bases. Projections are assembled from
    the direct sum with the center span{f(x0)}, so the projector algebra
    holds exactly by construction and only interpolation noise remains.
    Propagators and bundle sums are batched over points: the block map
    (the monodromy restricted to a bundle) enters once per distinct
    period offset, and the bundle sums loop only over periods.
    """

    mode = "floquet"

    def __init__(self, model, orbit_grid, period, closure_tol=1e-8):
        self.model = model
        self.period = float(period)
        P = self.period
        if orbit_grid.half_width < P / 2.0 - 1e-12:
            raise ValueError("orbit window must cover one period")
        gap = float(np.linalg.norm(orbit_grid.eval(P / 2.0)
                                   - orbit_grid.eval(-P / 2.0)))
        if gap > closure_tol:
            raise ValueError(f"orbit does not close over one period: {gap:.2e}")
        self.orbit_grid = orbit_grid
        n = model.n
        delta = orbit_grid.delta
        substeps = max(1, int(math.ceil(delta / 0.01)))
        nsteps = int(round(P / delta))
        if abs(nsteps * delta - P) > 1e-9:
            raise ValueError("period must be a whole number of grid cells")
        h = delta / substeps
        # orbit points at all half-steps of the integration
        fine = -P / 2.0 + 0.5 * h * np.arange(2 * nsteps * substeps + 1)
        dfs = model.df_batch(self.orbit_batch(fine))
        psi = np.eye(n)
        stored = np.empty((nsteps + 1, n * n))
        stored[0] = psi.ravel()
        idx = 0
        for step in range(nsteps):
            for sub in range(substeps):
                A1 = dfs[idx]
                A2 = dfs[idx + 1]
                A3 = dfs[idx + 2]
                k1 = A1 @ psi
                k2 = A2 @ (psi + 0.5 * h * k1)
                k3 = A2 @ (psi + 0.5 * h * k2)
                k4 = A3 @ (psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                idx += 2
            stored[step + 1] = psi.ravel()
        self.monodromy = psi.copy()
        self._psi = GridFunction(P / 2.0, delta, stored, interp_order=5,
                                 extension="constant-hold")

        mus, vecs = np.linalg.eig(self.monodromy)
        close_one = np.abs(mus - 1.0) <= 1e-6
        if close_one.sum() != 1:
            raise ValueError("monodromy must have exactly one multiplier at 1")
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
        self._s_pow = {}
        self._u_pow = {}
        self.quality = self._estimate_quality()

    # -- periodic bookkeeping -------------------------------------------

    def _wrap(self, ts):
        ts = np.asarray(ts, dtype=float)
        P = self.period
        k = np.floor((ts + P / 2.0) / P)
        return ts - k * P, k.astype(np.int64)

    def orbit_batch(self, ts):
        r, _ = self._wrap(ts)
        return self.orbit_grid.eval(r)

    def _psi_at(self, ts):
        r, k = self._wrap(ts)
        n = self.model.n
        mats = self._psi.eval(r).reshape(-1, n, n)
        return mats, k

    def _spow(self, S, cache, k):
        k = int(k)
        if k not in cache:
            cache[k] = np.linalg.matrix_power(S, k)
        return cache[k]

    def _bases(self, ts):
        mats, k = self._psi_at(ts)
        x0 = self.orbit_batch(ts)
        fc = self.model.f_batch(x0)
        # an empty bundle gives (k, n, 0) bases
        return fc, mats @ self.V_s, mats @ self.V_u, k

    def _full_basis(self, ts):
        fc, A_s, A_u, k = self._bases(ts)
        A = np.concatenate([fc[:, :, None], A_s, A_u], axis=2)
        return A, k

    def basis(self, sigma, rho=0.0):
        fc, A_s, A_u, _ = self._bases(np.atleast_1d(float(rho)))
        return {"c": fc[0][:, None], "s": A_s[0], "u": A_u[0]}[sigma]

    # -- projections and propagators --------------------------------------

    def proj_batch(self, rhos):
        rhos = np.asarray(rhos, dtype=float)
        A, _ = self._full_basis(rhos)
        Ainv = np.linalg.inv(A)
        return tuple(np.einsum("kis,ksj->kij", A[:, :, sl], Ainv[:, sl, :])
                     for sl in (slice(0, 1), self._block("s")[0],
                                self._block("u")[0]))

    def _coords(self, sigma, vs, ws):
        A, k = self._full_basis(np.asarray(vs, dtype=float))
        sl = self._block(sigma)[0]
        return np.einsum("ksj,kj->ks", np.linalg.inv(A)[:, sl, :], ws), k

    def _block(self, sigma):
        n_s = self.dims[1]
        if sigma == "s":
            return slice(1, 1 + n_s), self.S_s, self._s_pow
        return slice(1 + n_s, self.model.n), self.S_u, self._u_pow

    def prop_s_batch(self, rhos, vs):
        return self._prop_sigma(rhos, vs, "s")

    def prop_u_batch(self, rhos, vs):
        return self._prop_sigma(rhos, vs, "u")

    def _prop_sigma(self, rhos, vs, sigma):
        rhos, vs = _pairs(rhos, vs)
        n = self.model.n
        out = np.zeros((rhos.size, n, n))
        sl, S, cache = self._block(sigma)
        if sl.stop == sl.start:
            return out
        A_r, k_r = self._full_basis(rhos)
        A_v, k_v = self._full_basis(vs)
        lead = A_r[:, :, sl]
        tail = np.linalg.inv(A_v)[:, sl, :]
        # one block-map power per distinct period offset
        gap = k_r - k_v
        for e in np.unique(gap):
            m = gap == e
            out[m] = lead[m] @ self._spow(S, cache, e) @ tail[m]
        return out

    def prop_full_batch(self, rhos, vs):
        rhos, vs = _pairs(rhos, vs)
        mats_r, k_r = self._psi_at(rhos)
        mats_v, k_v = self._psi_at(vs)
        inv_v = np.linalg.inv(mats_v)
        out = np.empty_like(mats_r)
        gap = k_r - k_v
        for e in np.unique(gap):
            m = gap == e
            Mk = np.linalg.matrix_power(self.monodromy, int(e))
            out[m] = mats_r[m] @ Mk @ inv_v[m]
        return out

    # -- weighted propagator sums ----------------------------------------

    def convolve_stable(self, rhos, vs, wvs):
        """sum over v_i <= rho of U^s(rho; v_i) wvs_i for each rho.

        ``rhos`` and ``vs`` ascending (``ValueError`` otherwise). Each
        weight is carried by the block map to the period of the first
        rho at or after it, summed cumulatively within each period, and
        the block map carries the running sum across period changes.
        """
        return self._convolve(rhos, vs, wvs, "s")

    def convolve_unstable(self, rhos, vs, wvs):
        """sum over v_i >= rho of U^u(rho; v_i) wvs_i for each rho."""
        return self._convolve(rhos, vs, wvs, "u")

    def _convolve(self, rhos, vs, wvs, sigma):
        rhos, vs, order, owner, keep = _sweep(rhos, vs, sigma == "s")
        n = self.model.n
        sl, S, cache = self._block(sigma)
        n_sig = sl.stop - sl.start
        if n_sig == 0 or rhos.size == 0:
            return np.zeros((rhos.size, n))
        coords, k_v = self._coords(sigma, vs, np.asarray(wvs, dtype=float))
        _, A_s, A_u, k_r = self._bases(rhos)
        A_r = A_s if sigma == "s" else A_u
        k_sw = k_r[order]
        owner = owner[keep]
        # carry each weight to the period of the node that collects it;
        # in the sweep direction these powers contract
        carried = coords[keep]
        gap = k_sw[owner] - k_v[keep]
        for e in np.unique(gap):
            m = gap == e
            carried[m] = carried[m] @ self._spow(S, cache, e).T
        # weights in sweep order; ends[j] counts those collected by node j
        # or earlier in the sweep
        by_node = np.argsort(owner, kind="stable")
        carried = carried[by_node]
        ends = np.searchsorted(owner[by_node], np.arange(rhos.size),
                               side="right")
        res = np.empty((rhos.size, n_sig))
        run = np.zeros(n_sig)
        cuts = np.flatnonzero(np.diff(k_sw)) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, rhos.size]):
            if a > 0:
                # crossing periods applies the block map to the running sum
                run = self._spow(S, cache, k_sw[a] - k_sw[a - 1]) @ run
            first = ends[a - 1] if a > 0 else 0
            sums = np.cumsum(np.vstack([run, carried[first:ends[b - 1]]]),
                             axis=0)
            res[a:b] = sums[ends[a:b] - first]
            run = res[b - 1]
        return np.einsum("kis,ks->ki", A_r, res[order])

    # -- quality ----------------------------------------------------------

    def _estimate_quality(self):
        gaps = np.linspace(0.5, 5.0, 10)
        bases = np.linspace(0.0, self.period, 7)
        lam_s, C_s = self._fit("s", bases, gaps)
        lam_u, C_u = self._fit("u", bases, gaps)
        Pc, Ps, Pu = self.proj_batch(np.linspace(0.0, self.period, 33))
        # sampled maxima get headroom so the declared constants majorize
        # the modulation between sample points
        C_Pi = max(1.0, 1.02 * max(np.linalg.norm(P, ord=2, axis=(1, 2)).max()
                                   for P in (Pc, Ps, Pu)))
        C_U = max(1.0, 1.05 * C_s, 1.05 * C_u)
        return QualityMeasures(C_U, C_Pi,
                               lam_s if lam_s is not None else math.inf,
                               lam_u if lam_u is not None else math.inf)

    def _fit(self, sigma, bases, gaps):
        if (self.dims[1] if sigma == "s" else self.dims[2]) == 0:
            return None, 1.0
        g = np.tile(gaps, len(bases))
        t = np.repeat(bases, len(gaps))
        U = (self.prop_s_batch(t + g, t) if sigma == "s"
             else self.prop_u_batch(t, t + g))
        nm = np.linalg.norm(U, 2, axis=(1, 2))
        pos = nm > 0.0
        slope, intercept = np.polyfit(g[pos], np.log(nm[pos]), 1)
        lam = -float(slope)
        worst = max(1.0, float((nm * np.exp(lam * g)).max()))
        return lam, worst


# -- builtin models -----------------------------------------------------

def _one_point(fn):
    """Single-point form of a batched map: the batched code with k = 1."""
    return lambda x: fn(np.asarray(x, dtype=float)[None])[0]


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
        f_many, df_many, d2f_many = fb, dfb, d2fb
    else:
        QT = Q.T

        # rows y of the batch map to base coordinates as y @ Q
        def f_many(ys):
            return fb(ys @ Q) @ QT

        def df_many(ys):
            return Q @ dfb(ys @ Q) @ QT

        def d2f_many(ys):
            return np.einsum("ia,pabc,jb,kc->pijk", Q, d2fb(ys @ Q), Q, Q)

    name = "saddle-cubic" if (c2 or c3) else "lin-saddle"
    params = {"lambda_s": lam_s, "lambda_u": lam_u}
    if c2 or c3:
        params["cubic"] = [c2, c3]
    if Q is not None:
        params["rotation"] = Q.tolist()
    return OdeModel(3, _one_point(f_many), _one_point(df_many),
                    _one_point(d2f_many), b=1.0,
                    name=name, params=params, f_many=f_many,
                    df_many=df_many, d2f_many=d2f_many)


def _limit_cycle_model():
    def f_many(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = (pts ** 2).sum(axis=1)
        return np.column_stack([pts[:, 0] - pts[:, 1] - pts[:, 0] * r2,
                                pts[:, 0] + pts[:, 1] - pts[:, 1] * r2])

    def df_many(pts):
        pts = np.asarray(pts, dtype=float)
        x0, x1 = pts[:, 0], pts[:, 1]
        out = np.empty((pts.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 - 3.0 * x0 ** 2 - x1 ** 2
        out[:, 0, 1] = -1.0 - 2.0 * x0 * x1
        out[:, 1, 0] = 1.0 - 2.0 * x0 * x1
        out[:, 1, 1] = 1.0 - x0 ** 2 - 3.0 * x1 ** 2
        return out

    def d2f_many(pts):
        pts = np.asarray(pts, dtype=float)
        x0, x1 = pts[:, 0], pts[:, 1]
        out = np.empty((pts.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = -6.0 * x0
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = out[:, 1, 0, 0] = -2.0 * x1
        out[:, 0, 1, 1] = out[:, 1, 0, 1] = out[:, 1, 1, 0] = -2.0 * x0
        out[:, 1, 1, 1] = -6.0 * x1
        return out

    return OdeModel(2, _one_point(f_many), _one_point(df_many),
                    _one_point(d2f_many), b=1.0, name="planar-limit-cycle",
                    params={}, f_many=f_many, df_many=df_many,
                    d2f_many=d2f_many)


def builtin_model(name, params=None):
    """Construct a named model: lin-saddle, saddle-cubic, planar-limit-cycle."""
    params = dict(params or {})
    if name in ("lin-saddle", "saddle-cubic"):
        rot = params.get("rotation")
        return _saddle_model(params.get("lambda_s", 1.0),
                             params.get("lambda_u", 1.0),
                             cubic=params.get("cubic", (0.0, 0.0)),
                             rotation=rot)
    if name == "planar-limit-cycle":
        return _limit_cycle_model()
    raise ValueError(f"unknown model {name!r}")


def unit_circle_orbit(delta=0.01):
    """The unit-circle orbit of the planar limit cycle over one period."""
    P = 2.0 * math.pi
    K = int(round((P / 2.0) / delta))
    eff = (P / 2.0) / K
    n = 2 * K + 1
    ts = -P / 2.0 + np.arange(n) * eff
    vals = np.column_stack([np.cos(ts), np.sin(ts)])
    return GridFunction(P / 2.0, eff, vals, interp_order=5,
                        extension="constant-hold"), P


def analytic_frame(descriptor):
    """Frame from a closed-form descriptor dict.

    Keys: model (lin-saddle or saddle-cubic), lambda_s, lambda_u,
    optional rotation (orthogonal matrix as nested lists), optional
    cubic [c2, c3]. The frame's invariants are verified on construction.
    """
    name = descriptor.get("model", "lin-saddle")
    if name not in ("lin-saddle", "saddle-cubic"):
        raise ValueError(f"no analytic splitting for model {name!r}")
    lam_s = float(descriptor.get("lambda_s", 1.0))
    lam_u = float(descriptor.get("lambda_u", 1.0))
    cubic = descriptor.get("cubic", (0.0, 0.0))
    rot = descriptor.get("rotation")
    if rot is not None:
        rot = np.asarray(rot, dtype=float)
    model = _saddle_model(lam_s, lam_u, cubic=cubic, rotation=rot)
    frame = AnalyticFrame(model, [lam_s], [lam_u], rotation=rot)
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


def verify_frame(fr, sample_grid=None, tol_algebra=None, tol_cocycle=1e-7,
                 tol_bundle=1e-6):
    """Check the splitting identities, propagator laws and quality claims.

    Projector algebra, center alignment, cocycle law, the exponential
    bounds with the declared constants, bundle invariance of the
    propagators, transport of the orbit direction, and a log-linear
    refit of the decay rates (2% agreement required on analytic frames).
    Every identity is checked over stacks: one projection batch on the
    sample grid, one propagator batch per law over all (base, gap) pairs.
    """
    if tol_algebra is None:
        tol_algebra = 1e-10 if fr.mode == "analytic" else 1e-7
    if sample_grid is None:
        if fr.mode == "floquet":
            sample_grid = np.linspace(-fr.period, fr.period, 41)
        else:
            sample_grid = np.linspace(-10.0, 10.0, 41)
    sample_grid = np.asarray(sample_grid, dtype=float)
    eye = np.eye(fr.model.n)
    failures = []

    projs = fr.proj_batch(sample_grid)
    Pc, Ps, Pu = projs
    completeness = float(np.abs(Pc + Ps + Pu - eye).max())
    idempotence = max(float(np.abs(P @ P - P).max()) for P in projs)
    annihilation = max(float(np.abs(A @ B).max()) for A, B in (
        (Pc, Ps), (Pc, Pu), (Ps, Pu), (Ps, Pc), (Pu, Pc), (Pu, Ps)))
    fvec = fr.orbit_deriv_batch(sample_grid)
    fhat = fvec / np.linalg.norm(fvec, axis=1)[:, None]
    center_align = float(np.abs(
        (eye - fhat[:, :, None] * fhat[:, None, :]) @ Pc).max())
    for label, val in (("completeness", completeness),
                       ("idempotence", idempotence),
                       ("annihilation", annihilation),
                       ("center alignment", center_align)):
        if val > tol_algebra:
            failures.append(f"{label} {val:.2e}")

    q = fr.quality
    n_c, n_s, n_u = fr.dims
    bundle_invariance = cocycle = 0.0
    expo_slack = -math.inf
    base = sample_grid[:: max(1, sample_grid.size // 8)]
    gaps = np.array([0.7, 1.7, 3.1])
    t = np.repeat(base, gaps.size)
    g = np.tile(gaps, base.size)
    for sigma in ("s", "u"):
        if (n_s if sigma == "s" else n_u) == 0:
            continue
        if sigma == "s":
            U1 = fr.prop_s_batch(t + g, t)
            U2 = fr.prop_s_batch(t + 2 * g, t + g)
            U12 = fr.prop_s_batch(t + 2 * g, t)
            Pv = fr.proj_batch(t)[1]
            Pr = fr.proj_batch(t + g)[1]
            lam = q.lam_s
            chained = U2 @ U1
        else:
            U1 = fr.prop_u_batch(t, t + g)
            U2 = fr.prop_u_batch(t + g, t + 2 * g)
            U12 = fr.prop_u_batch(t, t + 2 * g)
            Pv = fr.proj_batch(t + 2 * g)[2]
            Pr = fr.proj_batch(t)[2]
            lam = q.lam_u
            chained = U1 @ U2
        cocycle = max(cocycle, float(np.abs(chained - U12).max()))
        decay = np.exp(-lam * g) if math.isfinite(lam) else np.zeros_like(g)
        expo_slack = max(expo_slack, float((np.linalg.norm(
            U1, 2, axis=(1, 2)) - q.C_U * decay).max()))
        bundle_invariance = max(bundle_invariance, float(
            np.abs((eye - Pr) @ U1 @ Pv).max()))
    U = fr.prop_full_batch(base + 1.3, base)
    moved = np.einsum("kij,kj->ki", U, fr.orbit_deriv_batch(base))
    center_transport = float(np.linalg.norm(
        moved - fr.orbit_deriv_batch(base + 1.3), axis=1).max())
    proj_slack = max(float(np.linalg.norm(P, 2, axis=(1, 2)).max()) - q.C_Pi
                     for P in projs)
    for label, val, tol in (
            ("cocycle", cocycle, tol_cocycle),
            ("propagator bound exceeded by", expo_slack, 1e-9),
            ("projection bound exceeded by", proj_slack, 1e-9),
            ("bundle invariance", bundle_invariance, tol_bundle),
            ("center transport", center_transport, tol_bundle)):
        if val > tol:
            failures.append(f"{label} {val:.2e}")

    lam_hat = {}
    fit_g = np.tile(np.linspace(0.5, 5.0, 8), base.size)
    fit_t = np.repeat(base, 8)
    for sigma in ("s", "u"):
        if (n_s if sigma == "s" else n_u) == 0:
            lam_hat[sigma] = math.inf
            continue
        U = (fr.prop_s_batch(fit_t + fit_g, fit_t) if sigma == "s"
             else fr.prop_u_batch(fit_t, fit_t + fit_g))
        nm = np.linalg.norm(U, 2, axis=(1, 2))
        pos = nm > 0
        slope = np.polyfit(fit_g[pos], np.log(nm[pos]), 1)[0]
        lam_hat[sigma] = -float(slope)
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


def bundle_characterization_test(fr, sigma, xi0, half_width=2.0, delta=0.01,
                                 tol=1e-6):
    """Propagate xi0 in its bundle and test the residual characterization.

    xi(t) = U^sigma(t; 0) xi0 must satisfy xi' - Df(x0) xi in E^sigma_t;
    the report carries the sup of (I - Pi^sigma)(xi' - Df xi).
    """
    xi0 = np.asarray(xi0, dtype=float)
    Pc, Ps, Pu = fr.proj(0.0)
    P0 = {"s": Ps, "u": Pu, "c": Pc}[sigma]
    if np.linalg.norm(xi0 - P0 @ xi0) > 1e-8 * max(1.0, np.linalg.norm(xi0)):
        raise ValueError("xi0 must lie in the declared subspace")
    K = int(round(half_width / delta))
    ts = -half_width + delta * np.arange(2 * K + 1)
    prop = fr.prop_s_batch if sigma == "s" else fr.prop_u_batch
    xi = prop(ts, 0.0) @ xi0
    g = GridFunction(half_width, delta, xi, interp_order=5,
                     extension="constant-hold")
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
                        ok=sup <= tol)


def augment_nonautonomous(g, jac, n, hess=None, b=1.0, name="nonautonomous"):
    """Autonomize a time-dependent field by adjoining the time variable.

    ``g(x, t) -> (n,)`` with ``jac(x, t) -> (n, n+1)`` the derivative in
    (x, t) and optional ``hess(x, t) -> (n, n+1, n+1)``. Returns the
    OdeModel for y' = (g(y_head, y_last), 1).
    """
    m = n + 1

    def f(y):
        y = np.asarray(y, dtype=float)
        out = np.empty(m)
        out[:n] = g(y[:n], y[n])
        out[n] = 1.0
        return out

    def df(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros((m, m))
        out[:n, :] = jac(y[:n], y[n])
        return out

    def d2f(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros((m, m, m))
        if hess is not None:
            out[:n, :, :] = hess(y[:n], y[n])
        return out

    return OdeModel(m, f, df, d2f, b=b, name=name)


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
        params = desc.get("parameters", {})
        orbit, period = unit_circle_orbit(params.get("delta", 0.01))
        return floquet_frame(builtin_model(name), orbit, period)
    raise ValueError(f"unknown splitting mode {mode!r}")
