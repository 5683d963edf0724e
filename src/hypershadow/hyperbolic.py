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

    def f_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self._f_many is not None:
            return np.asarray(self._f_many(pts), dtype=float)
        return np.stack([np.asarray(self.f(p), dtype=float) for p in pts])

    def df_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self._df_many is not None:
            return np.asarray(self._df_many(pts), dtype=float)
        return np.stack([np.asarray(self.df(p), dtype=float) for p in pts])

    def d2f_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self._d2f_many is not None:
            return np.asarray(self._d2f_many(pts), dtype=float)
        return np.stack([np.asarray(self.d2f(p), dtype=float) for p in pts])

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

        def block(slots):
            P = np.zeros((n, n))
            for s in slots:
                P[s, s] = 1.0
            return np.broadcast_to(self.Q @ P @ self.Q.T, (k, n, n)).copy()

        return block([0]), block(self.s_slots), block(self.u_slots)

    def _prop(self, rho, v, slots, rates, sign):
        n = self.model.n
        D = np.zeros((n, n))
        for s, r in zip(slots, rates):
            D[s, s] = math.exp(sign * r * (rho - v))
        return self.Q @ D @ self.Q.T

    def prop_s(self, rho, v):
        return self._prop(float(rho), float(v), self.s_slots, self.rates_s, -1.0)

    def prop_u(self, rho, v):
        return self._prop(float(rho), float(v), self.u_slots, self.rates_u, +1.0)

    def prop_full(self, rho, v):
        n = self.model.n
        D = np.eye(n)
        for s, r in zip(self.s_slots, self.rates_s):
            D[s, s] = math.exp(-r * (rho - v))
        for s, r in zip(self.u_slots, self.rates_u):
            D[s, s] = math.exp(r * (rho - v))
        return self.Q @ D @ self.Q.T

    def basis(self, sigma, rho=0.0):
        slots = {"c": [0], "s": self.s_slots, "u": self.u_slots}[sigma]
        return self.Q[:, list(slots)]

    # -- weighted propagator sums ---------------------------------------

    def convolve_stable(self, rhos, vs, wvs):
        """sum over v_i <= rho of U^s(rho; v_i) wvs_i for each rho.

        ``rhos`` and ``vs`` ascending; ``wvs`` already carries the
        quadrature weights. Runs as a decay recurrence so no exponential
        ever exceeds 1.
        """
        return self._convolve(rhos, vs, wvs, self.s_slots, self.rates_s,
                              stable=True)

    def convolve_unstable(self, rhos, vs, wvs):
        """sum over v_i >= rho of U^u(rho; v_i) wvs_i for each rho."""
        return self._convolve(rhos, vs, wvs, self.u_slots, self.rates_u,
                              stable=False)

    def _convolve(self, rhos, vs, wvs, slots, rates, stable):
        rhos = np.asarray(rhos, dtype=float)
        vs = np.asarray(vs, dtype=float)
        n_sl = len(slots)
        out = np.zeros((rhos.size, self.model.n))
        if n_sl == 0:
            return out
        coords = (np.asarray(wvs, dtype=float) @ self.Q)[:, list(slots)]
        acc = np.zeros(n_sl)
        res = np.empty((rhos.size, n_sl))
        if stable:
            cut = np.searchsorted(vs, rhos, side="right")
            prev = None
            lo = 0
            order = range(rhos.size)
        else:
            cut = np.searchsorted(vs, rhos, side="left")
            prev = None
            lo = vs.size
            order = range(rhos.size - 1, -1, -1)
        for k in order:
            rho = rhos[k]
            if prev is not None:
                acc *= np.exp(-rates * abs(rho - prev))
            if stable:
                hi = cut[k]
                if hi > lo:
                    seg = np.exp(-np.outer(rho - vs[lo:hi], rates))
                    acc += (seg * coords[lo:hi]).sum(axis=0)
                lo = hi
            else:
                hi = cut[k]
                if hi < lo:
                    seg = np.exp(-np.outer(vs[hi:lo] - rho, rates))
                    acc += (seg * coords[hi:lo]).sum(axis=0)
                lo = hi
            res[k] = acc
            prev = rho
        out = res @ self.Q[:, list(slots)].T
        return out


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
        dim = 0
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
    """

    mode = "floquet"

    def __init__(self, model, orbit_grid, period, substeps=None,
                 closure_tol=1e-8):
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
        if substeps is None:
            substeps = max(1, int(math.ceil(delta / 0.01)))
        nsteps = int(round(P / delta))
        if abs(nsteps * delta - P) > 1e-9:
            raise ValueError("period must be a whole number of grid cells")
        h = delta / substeps
        # orbit points at all half-steps of the integration
        fine = -P / 2.0 + 0.5 * h * np.arange(2 * nsteps * substeps + 1)
        dfs = model.df_batch(self._wrap_orbit(fine))
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

    def _wrap_orbit(self, ts):
        r, _ = self._wrap(ts)
        return self.orbit_grid.eval(r)

    def orbit_batch(self, ts):
        return self._wrap_orbit(np.asarray(ts, dtype=float))

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
        A_s = mats @ self.V_s if self.V_s.shape[1] else np.zeros(
            (mats.shape[0], self.model.n, 0))
        A_u = mats @ self.V_u if self.V_u.shape[1] else np.zeros(
            (mats.shape[0], self.model.n, 0))
        return fc, A_s, A_u, k

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
        n = self.model.n
        n_s, n_u = self.dims[1], self.dims[2]

        def build(sl):
            return np.einsum("kis,ksj->kij", A[:, :, sl], Ainv[:, sl, :])

        Pc = build(slice(0, 1))
        Ps = build(slice(1, 1 + n_s))
        Pu = build(slice(1 + n_s, n))
        return Pc, Ps, Pu

    def _coords(self, sigma, vs, ws):
        A, k = self._full_basis(np.asarray(vs, dtype=float))
        Ainv = np.linalg.inv(A)
        n_s = self.dims[1]
        sl = slice(1, 1 + n_s) if sigma == "s" else slice(1 + n_s, self.model.n)
        return np.einsum("ksj,kj->ks", Ainv[:, sl, :], ws), k

    def prop_s(self, rho, v):
        return self._prop_sigma(float(rho), float(v), "s")

    def prop_u(self, rho, v):
        return self._prop_sigma(float(rho), float(v), "u")

    def _prop_sigma(self, rho, v, sigma):
        n_s = self.dims[1]
        A_r, k_r = self._full_basis(np.atleast_1d(rho))
        A_v, k_v = self._full_basis(np.atleast_1d(v))
        Ainv_v = np.linalg.inv(A_v[0])
        if sigma == "s":
            sl = slice(1, 1 + n_s)
            S, cache = self.S_s, self._s_pow
        else:
            sl = slice(1 + n_s, self.model.n)
            S, cache = self.S_u, self._u_pow
        lead = A_r[0][:, sl]
        if lead.shape[1] == 0:
            return np.zeros((self.model.n, self.model.n))
        power = self._spow(S, cache, int(k_r[0] - k_v[0]))
        return lead @ power @ Ainv_v[sl, :]

    def prop_full(self, rho, v):
        mats_r, k_r = self._psi_at(np.atleast_1d(float(rho)))
        mats_v, k_v = self._psi_at(np.atleast_1d(float(v)))
        Mk = np.linalg.matrix_power(self.monodromy, int(k_r[0] - k_v[0]))
        return mats_r[0] @ Mk @ np.linalg.inv(mats_v[0])

    # -- weighted propagator sums ----------------------------------------

    def convolve_stable(self, rhos, vs, wvs):
        """sum over v_i <= rho of U^s(rho; v_i) wvs_i for each rho."""
        return self._convolve(rhos, vs, wvs, "s")

    def convolve_unstable(self, rhos, vs, wvs):
        """sum over v_i >= rho of U^u(rho; v_i) wvs_i for each rho."""
        return self._convolve(rhos, vs, wvs, "u")

    def _convolve(self, rhos, vs, wvs, sigma):
        rhos = np.asarray(rhos, dtype=float)
        vs = np.asarray(vs, dtype=float)
        n = self.model.n
        n_sig = self.dims[1] if sigma == "s" else self.dims[2]
        if n_sig == 0:
            return np.zeros((rhos.size, n))
        coords, k_v = self._coords(sigma, vs, np.asarray(wvs, dtype=float))
        if sigma == "s":
            S, cache = self.S_s, self._s_pow
            A_r, k_r = self._bases(rhos)[1], self._wrap(rhos)[1]
            cut = np.searchsorted(vs, rhos, side="right")
            order = range(rhos.size)
            lo = 0
        else:
            S, cache = self.S_u, self._u_pow
            A_r, k_r = self._bases(rhos)[2], self._wrap(rhos)[1]
            cut = np.searchsorted(vs, rhos, side="left")
            order = range(rhos.size - 1, -1, -1)
            lo = vs.size
        acc = np.zeros(n_sig)
        res = np.empty((rhos.size, n_sig))
        prev_k = None
        for idx in order:
            kr = int(k_r[idx])
            if prev_k is not None and kr != prev_k:
                # crossing periods applies the block map; contracting in
                # the direction we sweep, so powers stay bounded
                acc = self._spow(S, cache, kr - prev_k) @ acc
            hi = cut[idx]
            if sigma == "s":
                rng = range(lo, hi)
            else:
                rng = range(hi, lo)
            for q in rng:
                acc = acc + self._spow(S, cache, kr - int(k_v[q])) @ coords[q]
            lo = hi
            res[idx] = acc
            prev_k = kr
        return np.einsum("kis,ks->ki", A_r, res)

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
        xs, ys = [], []
        for t in bases:
            for g in gaps:
                if sigma == "s":
                    nm = np.linalg.norm(self.prop_s(t + g, t), 2)
                else:
                    nm = np.linalg.norm(self.prop_u(t, t + g), 2)
                if nm > 0.0:
                    xs.append(g)
                    ys.append(math.log(nm))
        slope, intercept = np.polyfit(xs, ys, 1)
        lam = -float(slope)
        worst = 1.0
        for t in bases:
            for g in gaps:
                if sigma == "s":
                    nm = np.linalg.norm(self.prop_s(t + g, t), 2)
                else:
                    nm = np.linalg.norm(self.prop_u(t, t + g), 2)
                worst = max(worst, nm * math.exp(lam * g))
        return lam, worst


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

    def one(fn):
        # single points run the batched code with k = 1
        return lambda x: fn(np.asarray(x, dtype=float)[None])[0]

    name = "saddle-cubic" if (c2 or c3) else "lin-saddle"
    params = {"lambda_s": lam_s, "lambda_u": lam_u}
    if c2 or c3:
        params["cubic"] = [c2, c3]
    if Q is not None:
        params["rotation"] = Q.tolist()
    return OdeModel(3, one(f_many), one(df_many), one(d2f_many), b=1.0,
                    name=name, params=params, f_many=f_many,
                    df_many=df_many, d2f_many=d2f_many)


def _limit_cycle_model():
    def f(x):
        x = np.asarray(x, dtype=float)
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([x[0] - x[1] - x[0] * r2,
                         x[0] + x[1] - x[1] * r2])

    def df(x):
        x0, x1 = float(x[0]), float(x[1])
        return np.array([
            [1.0 - 3.0 * x0 ** 2 - x1 ** 2, -1.0 - 2.0 * x0 * x1],
            [1.0 - 2.0 * x0 * x1, 1.0 - x0 ** 2 - 3.0 * x1 ** 2]])

    def d2f(x):
        x0, x1 = float(x[0]), float(x[1])
        H = np.empty((2, 2, 2))
        H[0] = [[-6.0 * x0, -2.0 * x1], [-2.0 * x1, -2.0 * x0]]
        H[1] = [[-2.0 * x1, -2.0 * x0], [-2.0 * x0, -6.0 * x1]]
        return H

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

    return OdeModel(2, f, df, d2f, b=1.0, name="planar-limit-cycle",
                    params={}, f_many=f_many, df_many=df_many)


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


def floquet_frame(model, periodic_orbit, period, substeps=None):
    """Frame from the monodromy of a periodic orbit; see FloquetFrame."""
    return FloquetFrame(model, periodic_orbit, period, substeps=substeps)


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


def _opnorm(M):
    return float(np.linalg.norm(M, 2))


def verify_frame(fr, sample_grid=None, tol_algebra=None, tol_cocycle=1e-7,
                 tol_bundle=1e-6):
    """Check the splitting identities, propagator laws and quality claims.

    Projector algebra, center alignment, cocycle law, the exponential
    bounds with the declared constants, bundle invariance of the
    propagators, transport of the orbit direction, and a log-linear
    refit of the decay rates (2% agreement required on analytic frames).
    """
    if tol_algebra is None:
        tol_algebra = 1e-10 if fr.mode == "analytic" else 1e-7
    if sample_grid is None:
        if fr.mode == "floquet":
            sample_grid = np.linspace(-fr.period, fr.period, 41)
        else:
            sample_grid = np.linspace(-10.0, 10.0, 41)
    sample_grid = np.asarray(sample_grid, dtype=float)
    n = fr.model.n
    eye = np.eye(n)
    failures = []

    completeness = idempotence = annihilation = center_align = 0.0
    projs = {}
    for rho in sample_grid:
        Pc, Ps, Pu = fr.proj(rho)
        projs[rho] = (Pc, Ps, Pu)
        completeness = max(completeness, np.abs(Pc + Ps + Pu - eye).max())
        for P in (Pc, Ps, Pu):
            idempotence = max(idempotence, np.abs(P @ P - P).max())
        for A, B in ((Pc, Ps), (Pc, Pu), (Ps, Pu), (Ps, Pc), (Pu, Pc),
                     (Pu, Ps)):
            annihilation = max(annihilation, np.abs(A @ B).max())
        fvec = fr.orbit_deriv(rho)
        fhat = fvec / np.linalg.norm(fvec)
        center_align = max(center_align, np.abs(
            (eye - np.outer(fhat, fhat)) @ Pc).max())
    if completeness > tol_algebra:
        failures.append(f"completeness {completeness:.2e}")
    if idempotence > tol_algebra:
        failures.append(f"idempotence {idempotence:.2e}")
    if annihilation > tol_algebra:
        failures.append(f"annihilation {annihilation:.2e}")
    if center_align > tol_algebra:
        failures.append(f"center alignment {center_align:.2e}")

    q = fr.quality
    n_c, n_s, n_u = fr.dims
    rng = np.random.default_rng(0)
    bundle_invariance = 0.0
    center_transport = 0.0
    cocycle = 0.0
    expo_slack = -math.inf
    proj_slack = -math.inf
    base = sample_grid[:: max(1, sample_grid.size // 8)]
    gaps = (0.7, 1.7, 3.1)
    for t in base:
        for g in gaps:
            for sigma in ("s", "u"):
                if (n_s if sigma == "s" else n_u) == 0:
                    continue
                if sigma == "s":
                    U1 = fr.prop_s(t + g, t)
                    U2 = fr.prop_s(t + 2 * g, t + g)
                    U12 = fr.prop_s(t + 2 * g, t)
                    Pv = fr.proj(t)[1]
                    Pr = fr.proj(t + g)[1]
                    lam = q.lam_s
                else:
                    U1 = fr.prop_u(t, t + g)
                    U2 = fr.prop_u(t + g, t + 2 * g)
                    U12 = fr.prop_u(t, t + 2 * g)
                    Pv = fr.proj(t + 2 * g)[2]
                    Pr = fr.proj(t)[2]
                    lam = q.lam_u
                cocycle = max(cocycle, np.abs(
                    (U1 @ U2 if sigma == "u" else U2 @ U1) - U12).max())
                decay = math.exp(-lam * g) if math.isfinite(lam) else 0.0
                expo_slack = max(expo_slack, _opnorm(U1) - q.C_U * decay)
                bundle_invariance = max(bundle_invariance, np.abs(
                    (eye - Pr) @ U1 @ Pv).max())
        if hasattr(fr, "prop_full"):
            U = fr.prop_full(t + 1.3, t)
            center_transport = max(center_transport, float(np.linalg.norm(
                U @ fr.orbit_deriv(t) - fr.orbit_deriv(t + 1.3))))
    for rho in sample_grid:
        for P in projs[rho]:
            proj_slack = max(proj_slack, _opnorm(P) - q.C_Pi)
    if cocycle > tol_cocycle:
        failures.append(f"cocycle {cocycle:.2e}")
    if expo_slack > 1e-9:
        failures.append(f"propagator bound exceeded by {expo_slack:.2e}")
    if proj_slack > 1e-9:
        failures.append(f"projection bound exceeded by {proj_slack:.2e}")
    if bundle_invariance > tol_bundle:
        failures.append(f"bundle invariance {bundle_invariance:.2e}")
    if center_transport > tol_bundle:
        failures.append(f"center transport {center_transport:.2e}")

    lam_hat = {}
    for sigma in ("s", "u"):
        dim = n_s if sigma == "s" else n_u
        if dim == 0:
            lam_hat[sigma] = math.inf
            continue
        xs, ys = [], []
        for t in base:
            for g in np.linspace(0.5, 5.0, 8):
                nm = _opnorm(fr.prop_s(t + g, t) if sigma == "s"
                             else fr.prop_u(t, t + g))
                if nm > 0:
                    xs.append(g)
                    ys.append(math.log(nm))
        slope = np.polyfit(xs, ys, 1)[0]
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
    prop = fr.prop_s if sigma == "s" else fr.prop_u
    xi = np.stack([prop(t, 0.0) @ xi0 for t in ts])
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
