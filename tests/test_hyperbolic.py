"""Frames: splitting algebra, propagator laws, Floquet construction."""

import math

import numpy as np
import pytest

from hypershadow.funcspace import GridFunction, lattice
from hypershadow.hyperbolic import (
    AnalyticFrame,
    FloquetFrame,
    OdeModel,
    QualityMeasures,
    analytic_frame,
    augment_nonautonomous,
    builtin_model,
    bundle_characterization_test,
    floquet_frame,
    frame_from_descriptor,
    unit_circle_orbit,
    verify_frame,
)


def saddle_frame(lam_s=1.0, lam_u=1.0, rotation=None, cubic=(0.0, 0.0)):
    desc = {"model": "saddle-cubic" if any(cubic) else "lin-saddle",
            "lambda_s": lam_s, "lambda_u": lam_u, "cubic": list(cubic)}
    if rotation is not None:
        desc["rotation"] = np.asarray(rotation).tolist()
    return analytic_frame(desc)


def random_rotation(seed, n=3):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.fixture(scope="module")
def cycle_frame():
    orbit, period = unit_circle_orbit(delta=0.01)
    return floquet_frame(builtin_model("planar-limit-cycle"), orbit, period)


class TestSaddleFrame:
    def test_orbit_and_speed(self):
        fr = saddle_frame()
        assert fr.orbit_batch([2.5])[0] == pytest.approx([2.5, 0.0, 0.0])
        assert fr.orbit_deriv_batch([2.5])[0] == pytest.approx([1.0, 0.0, 0.0])

    def test_propagator_values(self):
        fr = saddle_frame(lam_s=1.0, lam_u=0.5)
        U = fr.prop_s_batch([2.0], [0.0])[0]
        assert U[1, 1] == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert abs(U).max() == pytest.approx(math.exp(-2.0), abs=1e-12)
        V = fr.prop_u_batch([0.0], [3.0])[0]
        assert V[2, 2] == pytest.approx(math.exp(-1.5), abs=1e-12)

    def test_projection_algebra_exact(self):
        fr = saddle_frame()
        rep = verify_frame(fr)
        assert rep.ok
        assert rep.completeness <= 1e-14
        assert rep.idempotence <= 1e-14
        assert rep.cocycle <= 1e-14

    def test_quality_is_exact(self):
        fr = saddle_frame(lam_s=0.8, lam_u=1.3)
        assert fr.quality.C_U == 1.0
        assert fr.quality.C_Pi == 1.0
        assert fr.quality.lam_s == 0.8
        rep = verify_frame(fr)
        assert rep.lambda_hat_s == pytest.approx(0.8, rel=1e-6)
        assert rep.lambda_hat_u == pytest.approx(1.3, rel=1e-6)

    def test_rotated_frame_is_conjugated(self):
        Q = random_rotation(7)
        fr = saddle_frame(rotation=Q)
        base = saddle_frame()
        Pc, Ps, Pu = (P[0] for P in fr.proj_batch([1.3]))
        Pc0, Ps0, Pu0 = (P[0] for P in base.proj_batch([1.3]))
        assert np.abs(Pc - Q @ Pc0 @ Q.T).max() <= 1e-12
        assert np.abs(Ps - Q @ Ps0 @ Q.T).max() <= 1e-12
        assert np.abs(fr.prop_s_batch([2.0], [0.5])[0]
                      - Q @ base.prop_s_batch([2.0], [0.5])[0] @ Q.T
                      ).max() <= 1e-12
        assert verify_frame(fr).ok

    def test_cubic_frame_keeps_the_splitting(self):
        fr = saddle_frame(cubic=(0.4, -0.3))
        assert verify_frame(fr).ok
        # off the orbit the field is genuinely nonlinear
        x = np.array([0.0, 0.5, 0.0])
        assert fr.model.f_batch([x])[0, 1] == pytest.approx(-0.5 + 0.4 * 0.125)

    def test_descriptor_round_trip(self):
        fr = saddle_frame(lam_s=1.2, lam_u=0.9, rotation=random_rotation(3))
        desc = fr.descriptor()
        fr2 = frame_from_descriptor(desc)
        assert np.abs(fr2.proj_batch([0.7])[1][0]
                      - fr.proj_batch([0.7])[1][0]).max() <= 1e-12

    def test_corrupted_projection_fails_verification(self):
        fr = saddle_frame()

        class Corrupted(AnalyticFrame):
            def proj_batch(self, rhos):
                Pc, Ps, Pu = super().proj_batch(rhos)
                return Pc, 1.1 * Ps, Pu

        bad = Corrupted(fr.model, [1.0], [1.0])
        rep = verify_frame(bad)
        assert not rep.ok
        assert any("idempotence" in msg for msg in rep.failures)

    def test_inflated_propagator_fails_the_cocycle(self):
        fr = saddle_frame()

        class Inflated(AnalyticFrame):
            def prop_s_batch(self, rhos, vs):
                return 1.1 * super().prop_s_batch(rhos, vs)

        bad = Inflated(fr.model, [1.0], [1.0])
        rep = verify_frame(bad)
        assert not rep.ok
        assert any(msg.startswith("cocycle") for msg in rep.failures)


class TestOdeModel:
    def test_builtin_derivatives_agree(self):
        pts = np.array([[0.3, -0.2, 0.5], [1.0, 0.4, -0.1]])
        builtin_model("saddle-cubic",
                      {"cubic": [0.3, 0.2]}).check_derivatives(pts)
        pts2 = np.array([[0.9, 0.1], [0.2, -0.7]])
        builtin_model("planar-limit-cycle").check_derivatives(pts2)

    def test_corrupted_jacobian_is_caught(self):
        good = builtin_model("planar-limit-cycle")
        bad = OdeModel(2, good.f, lambda x: good.df(x) + 0.01, good.d2f, 1.0)
        with pytest.raises(ValueError, match="df disagrees"):
            bad.check_derivatives(np.array([[0.5, 0.5]]))

    def test_quality_validation(self):
        with pytest.raises(ValueError):
            QualityMeasures(0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            QualityMeasures(1.0, 1.0, -1.0, 1.0)


class TestFloquetFrame:
    def test_multiplier_matches_the_known_value(self, cycle_frame):
        mus = sorted(abs(m) for m in cycle_frame.multipliers)
        assert mus[1] == pytest.approx(1.0, abs=1e-8)
        assert mus[0] == pytest.approx(math.exp(-4.0 * math.pi), rel=1e-3)
        assert cycle_frame.dims == (1, 1, 0)

    def test_multiplier_stable_under_refinement(self, cycle_frame):
        orbit, period = unit_circle_orbit(delta=0.005)
        fine = floquet_frame(builtin_model("planar-limit-cycle"), orbit,
                             period)
        a = min(abs(m) for m in cycle_frame.multipliers)
        b = min(abs(m) for m in fine.multipliers)
        assert abs(a - b) / abs(a) <= 1e-3

    def test_verification_passes(self, cycle_frame):
        rep = verify_frame(cycle_frame)
        assert rep.ok, rep.failures
        assert rep.completeness <= 1e-7
        assert rep.lambda_hat_s == pytest.approx(2.0, rel=0.05)

    def test_center_transport(self, cycle_frame):
        for t in (0.0, 1.1, -2.7):
            U = cycle_frame.prop_full_batch([t + 2.0], [t])[0]
            want = cycle_frame.orbit_deriv_batch([t + 2.0])[0]
            got = U @ cycle_frame.orbit_deriv_batch([t])[0]
            assert np.abs(got - want).max() <= 1e-6

    def test_declared_decay_rate(self, cycle_frame):
        # the nontrivial Floquet exponent of the cycle is exactly 2
        assert cycle_frame.quality.lam_s == pytest.approx(2.0, rel=0.02)
        assert math.isinf(cycle_frame.quality.lam_u)

    def test_rejects_open_orbit(self):
        model = builtin_model("lin-saddle")
        T = math.pi
        delta = T / 200
        ts = -T + delta * np.arange(401)
        vals = np.column_stack([ts, np.zeros_like(ts), np.zeros_like(ts)])
        line = GridFunction(T, delta, vals, interp_order=5,
                            extension="constant-hold")
        with pytest.raises(ValueError, match="does not close"):
            floquet_frame(model, line, 2 * T)

    def test_rejects_unit_multiplier_multiplicity(self):
        def f(x):
            return np.column_stack([-x[:, 1], x[:, 0]])

        def df(x):
            return np.tile([[0.0, -1.0], [1.0, 0.0]], (len(x), 1, 1))

        model = OdeModel(2, f, df, lambda x: np.zeros((len(x), 2, 2, 2)),
                         b=1.0)
        orbit, period = unit_circle_orbit(delta=0.01)
        with pytest.raises(ValueError, match="exactly one multiplier"):
            floquet_frame(model, orbit, period)

    def test_rejects_nonhyperbolic_multipliers(self):
        cyc = builtin_model("planar-limit-cycle")
        omega = 0.5

        def f(x):
            return np.column_stack([cyc.f(x[:, :2]),
                                    -omega * x[:, 3], omega * x[:, 2]])

        def df(x):
            out = np.zeros((len(x), 4, 4))
            out[:, :2, :2] = cyc.df(x[:, :2])
            out[:, 2, 3] = -omega
            out[:, 3, 2] = omega
            return out

        def d2f(x):
            out = np.zeros((len(x), 4, 4, 4))
            out[:, :2, :2, :2] = cyc.d2f(x[:, :2])
            return out

        model = OdeModel(4, f, df, d2f, b=1.0)
        P = 2.0 * math.pi
        K = 314
        eff = (P / 2.0) / K
        ts = -P / 2.0 + eff * np.arange(2 * K + 1)
        vals = np.column_stack([np.cos(ts), np.sin(ts),
                                np.zeros_like(ts), np.zeros_like(ts)])
        orbit = GridFunction(P / 2.0, eff, vals, interp_order=5,
                             extension="constant-hold")
        with pytest.raises(ValueError, match="non-hyperbolic"):
            floquet_frame(model, orbit, P)

    def test_rejects_short_window(self):
        model = builtin_model("planar-limit-cycle")
        orbit, period = unit_circle_orbit(delta=0.01)
        short = orbit.restrict(orbit.half_width / 2)
        with pytest.raises(ValueError, match="cover one period"):
            floquet_frame(model, short, period)


class TestBundleCharacterization:
    def test_saddle_directions_are_exact(self):
        fr = saddle_frame(lam_s=1.0, lam_u=0.7)
        rep_s = bundle_characterization_test(fr, "s", np.array([0, 1.0, 0]))
        rep_u = bundle_characterization_test(fr, "u", np.array([0, 0, 1.0]))
        assert rep_s.ok and rep_s.residual_sup <= 1e-8
        assert rep_u.ok and rep_u.residual_sup <= 1e-8

    def test_cycle_stable_direction(self, cycle_frame):
        xi0 = cycle_frame.basis("s", 0.0)[:, 0]
        rep = bundle_characterization_test(cycle_frame, "s", xi0)
        assert rep.ok, rep.residual_sup

    def test_rejects_vector_outside_the_bundle(self):
        fr = saddle_frame()
        with pytest.raises(ValueError, match="declared subspace"):
            bundle_characterization_test(fr, "s", np.array([1.0, 1.0, 0.0]))


class TestConvolve:
    """Weighted propagator sums against the definition, both frame kinds."""

    def brute(self, fr, sigma, rhos, vs, ws):
        out = np.zeros((len(rhos), fr.model.n))
        for k, rho in enumerate(rhos):
            for i, v in enumerate(vs):
                if sigma == "s" and v <= rho:
                    out[k] += fr.prop_s_batch([rho], [v])[0] @ ws[i]
                elif sigma == "u" and v >= rho:
                    out[k] += fr.prop_u_batch([rho], [v])[0] @ ws[i]
        return out

    @pytest.mark.parametrize("kind", ["analytic", "floquet"])
    def test_matches_direct_sum(self, kind, cycle_frame):
        if kind == "analytic":
            fr = saddle_frame(lam_s=0.9, lam_u=1.4,
                              rotation=random_rotation(11))
        else:
            fr = cycle_frame
        rng = np.random.default_rng(5)
        vs = np.sort(rng.uniform(-4.0, 8.0, size=60))
        rhos = np.sort(rng.uniform(-3.0, 7.0, size=17))
        vs = np.sort(np.append(vs, rhos[4]))  # exercise the tie v == rho
        ws = rng.standard_normal((vs.size, fr.model.n))
        got_s = fr.convolve_stable(rhos, vs, ws)
        assert np.abs(got_s - self.brute(fr, "s", rhos, vs, ws)).max() <= 1e-9
        got_u = fr.convolve_unstable(rhos, vs, ws)
        assert np.abs(got_u - self.brute(fr, "u", rhos, vs, ws)).max() <= 1e-9

    def test_empty_unstable_bundle_gives_zero(self, cycle_frame):
        vs = np.linspace(-1.0, 1.0, 9)
        ws = np.ones((9, 2))
        out = cycle_frame.convolve_unstable(np.array([0.0]), vs, ws)
        assert np.abs(out).max() == 0.0


class TestAugmentation:
    def test_forced_linear_orbit_is_exact(self):
        a = 0.05

        def g(x, t):
            return np.column_stack([np.ones_like(t),
                                    -x[:, 1] + a * np.sin(t), x[:, 2]])

        def jac(x, t):
            out = np.zeros((len(t), 3, 4))
            out[:, 1, 1] = -1.0
            out[:, 1, 3] = a * np.cos(t)
            out[:, 2, 2] = 1.0
            return out

        def hess(x, t):
            out = np.zeros((len(t), 3, 4, 4))
            out[:, 1, 3, 3] = -a * np.sin(t)
            return out

        model = augment_nonautonomous(g, jac, 3, hess=hess)
        assert model.n == 4
        model.check_derivatives(np.array([[0.1, 0.2, 0.0, 0.7]]))
        for t in np.linspace(-3.0, 3.0, 13):
            y = np.array([t, a * (math.sin(t) - math.cos(t)) / 2.0, 0.0, t])
            ydot = np.array([1.0, a * (math.cos(t) + math.sin(t)) / 2.0,
                             0.0, 1.0])
            assert np.abs(model.f_batch([y])[0] - ydot).max() <= 1e-14

    def test_zero_field_augments_to_clock(self):
        model = augment_nonautonomous(
            lambda x, t: np.zeros_like(x),
            lambda x, t: np.zeros((len(t), 2, 3)), 2)
        assert model.f_batch([[3.0, -1.0, 5.0]])[0] == pytest.approx(
            [0.0, 0.0, 1.0])

    def test_missing_curvature_is_caught(self):
        def g(x, t):
            return np.sin(t)[:, None] * x

        def jac(x, t):
            return np.stack([np.sin(t), x[:, 0] * np.cos(t)],
                            axis=-1)[:, None, :]

        model = augment_nonautonomous(g, jac, 1)  # hess omitted on purpose
        with pytest.raises(ValueError, match="d2f disagrees"):
            model.check_derivatives(np.array([[1.0, 0.9]]))


class TestDescriptors:
    def test_floquet_descriptor_round_trip(self, cycle_frame):
        desc = cycle_frame.descriptor()
        assert desc["mode"] == "floquet"
        assert desc["quality"]["lam_u"] is None
        fr2 = frame_from_descriptor(desc)
        assert np.abs(fr2.proj_batch([0.3])[1][0]
                      - cycle_frame.proj_batch([0.3])[1][0]).max() <= 1e-9

    @pytest.mark.parametrize("delta,reason", [
        (1e-12, "must be at least 0.0001"),
        (9.99e-5, "must be at least 0.0001"),
        (1.05, "must be at most pi/3"),
        (1e300, "must be at most pi/3")])
    def test_floquet_step_bounded_before_the_orbit_is_built(
            self, monkeypatch, delta, reason):
        # a step outside the bounds names the field, and nothing is
        # allocated for the orbit or its monodromy first
        from hypershadow import hyperbolic
        monkeypatch.setattr(hyperbolic, "unit_circle_orbit",
                            lambda d: pytest.fail("orbit built"))
        with pytest.raises(ValueError, match=r"frame parameter 'delta' "
                                             + reason):
            frame_from_descriptor({"mode": "floquet",
                                   "parameters": {"delta": delta}})

    @pytest.mark.parametrize("delta", [0.17, 0.2, 0.5])
    def test_floquet_step_too_coarse_for_the_orbit_names_the_step(
            self, delta):
        # inside the stencil bound, but the interpolated orbit moves the
        # centre multiplier more than 1e-6 from 1
        with pytest.raises(ValueError, match=(
                rf"frame parameter 'delta' = {delta} is too coarse for the "
                r"stored orbit: monodromy must have exactly one multiplier "
                r"at 1, found 0 within 1e-6 \(nearest \|mu - 1\| = ")):
            frame_from_descriptor({"mode": "floquet",
                                   "parameters": {"delta": delta}})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            builtin_model("does-not-exist")
        with pytest.raises(ValueError, match="no analytic splitting"):
            analytic_frame({"model": "planar-limit-cycle"})


FRAME_PRIMITIVES = ("proj_batch", "prop_s_batch", "prop_u_batch",
                    "prop_full_batch", "orbit_deriv_batch")


def counting(cls):
    """A subclass of frame class ``cls`` that counts its primitive calls
    in ``calls``; set ``calls = {}`` on an instance to start a count."""
    def counted(name):
        def method(self, *args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return getattr(super(sub, self), name)(*args)
        return method

    sub = type("Counting" + cls.__name__, (cls,),
               {"calls": {}, **{name: counted(name)
                                for name in FRAME_PRIMITIVES}})
    return sub


class TestOneBatchPerPrimitive:
    """verify_frame evaluates each frame primitive once."""

    @pytest.mark.parametrize("rotation,cubic", [
        (None, (0.0, 0.0)), (random_rotation(5), (0.3, 0.2))])
    def test_saddle_verification(self, rotation, cubic):
        model = saddle_frame(rotation=rotation, cubic=cubic).model
        fr = counting(AnalyticFrame)(model, [1.0], [1.0], rotation=rotation)
        fr.calls = {}
        assert verify_frame(fr).ok
        assert fr.calls == dict.fromkeys(FRAME_PRIMITIVES, 1)

    def test_cycle_verification_and_quality(self):
        orbit, period = unit_circle_orbit(delta=0.01)
        basis_calls = []

        class Counting(counting(FloquetFrame)):
            def _basis(self, ts):
                basis_calls.append(np.size(ts))
                return super()._basis(ts)

        fr = Counting(builtin_model("planar-limit-cycle"), orbit, period)
        # the quality estimate reads the basis once, over every time
        assert basis_calls == [2 * 7 * 10 + 33]
        fr.calls = {}
        assert verify_frame(fr).ok
        # no unstable bundle, so no unstable propagator batch
        assert fr.calls == {"proj_batch": 1, "prop_s_batch": 1,
                            "prop_full_batch": 1, "orbit_deriv_batch": 1}


# -- oracles: the per-point loops the batched frame code replaced ----------

def loop_convolve_analytic(fr, rhos, vs, wvs, stable):
    """Per-rho decay recurrence over the sorted weights."""
    slots = fr._slot("s" if stable else "u")
    rates = fr.rates_s if stable else fr.rates_u
    coords = (np.asarray(wvs, dtype=float) @ fr.Q)[:, slots]
    acc = np.zeros(rates.size)
    res = np.empty((rhos.size, rates.size))
    if stable:
        cut = np.searchsorted(vs, rhos, side="right")
        lo, order = 0, range(rhos.size)
    else:
        cut = np.searchsorted(vs, rhos, side="left")
        lo, order = vs.size, range(rhos.size - 1, -1, -1)
    prev = None
    for k in order:
        rho = rhos[k]
        if prev is not None:
            acc *= np.exp(-rates * abs(rho - prev))
        hi = cut[k]
        if stable and hi > lo:
            seg = np.exp(-np.outer(rho - vs[lo:hi], rates))
            acc += (seg * coords[lo:hi]).sum(axis=0)
        elif not stable and hi < lo:
            seg = np.exp(-np.outer(vs[hi:lo] - rho, rates))
            acc += (seg * coords[hi:lo]).sum(axis=0)
        lo = hi
        res[k] = acc
        prev = rho
    return res @ fr.Q[:, slots].T


def loop_convolve_floquet(fr, rhos, vs, wvs, stable):
    """Per-rho sweep adding one carried coordinate vector per weight."""
    sigma = "s" if stable else "u"
    sl = fr._slot(sigma)
    coords = np.einsum("ksj,kj->ks", fr._basis(vs)[1][:, sl, :],
                       np.asarray(wvs, dtype=float))
    A_r = fr._basis(rhos)[0][:, :, sl]
    if stable:
        cut = np.searchsorted(vs, rhos, side="right")
        order, lo = range(rhos.size), 0
    else:
        cut = np.searchsorted(vs, rhos, side="left")
        order, lo = range(rhos.size - 1, -1, -1), vs.size
    acc = np.zeros(coords.shape[1])
    res = np.empty((rhos.size, coords.shape[1]))
    prev = None
    for idx in order:
        rho = rhos[idx]
        if prev is not None:
            acc = fr._carry(sigma, [rho], [prev])[0] @ acc
        hi = cut[idx]
        for q in (range(lo, hi) if stable else range(hi, lo)):
            acc = acc + fr._carry(sigma, [rho], [vs[q]])[0] @ coords[q]
        lo = hi
        res[idx] = acc
        prev = rho
    return np.einsum("kis,ks->ki", A_r, res)


def psi_prop_floquet(fr, rhos, vs):
    """Psi(rho) M^k Psi(v)^-1, k the number of periods from v to rho."""
    n = fr.model.n
    r_r, k_r = fr._wrap(rhos)
    r_v, k_v = fr._wrap(vs)
    out = np.empty((len(rhos), n, n))
    for i in range(len(rhos)):
        Mk = np.linalg.matrix_power(fr.monodromy, int(k_r[i] - k_v[i]))
        out[i] = (fr._psi.eval(r_r[i]).reshape(n, n) @ Mk
                  @ np.linalg.inv(fr._psi.eval(r_v[i]).reshape(n, n)))
    return out


def scalar_prop_analytic(fr, rho, v, stable, unstable, center):
    """Q D Q^T with the diagonal built one slot at a time."""
    D = np.zeros((fr.model.n, fr.model.n))
    D[0, 0] = center
    n_s = fr.rates_s.size
    if stable:
        for s, r in enumerate(fr.rates_s, start=1):
            D[s, s] = math.exp(-r * (rho - v))
    if unstable:
        for s, r in enumerate(fr.rates_u, start=1 + n_s):
            D[s, s] = math.exp(r * (rho - v))
    return fr.Q @ D @ fr.Q.T


def loop_fit(fr, sigma, bases, gaps):
    """Decay-rate fit with one propagator per (base, gap) pair, twice."""
    if (fr.dims[1] if sigma == "s" else fr.dims[2]) == 0:
        return None, 1.0

    def norm_at(t, g):
        U = (fr.prop_s_batch([t + g], [t])[0] if sigma == "s"
             else fr.prop_u_batch([t], [t + g])[0])
        return np.linalg.norm(U, 2)

    xs, ys = [], []
    for t in bases:
        for g in gaps:
            nm = norm_at(t, g)
            if nm > 0.0:
                xs.append(g)
                ys.append(math.log(nm))
    lam = -float(np.polyfit(xs, ys, 1)[0])
    worst = 1.0
    for t in bases:
        for g in gaps:
            worst = max(worst, norm_at(t, g) * math.exp(lam * g))
    return lam, worst


def loop_quality(fr):
    gaps = np.linspace(0.5, 5.0, 10)
    bases = np.linspace(0.0, fr.period, 7)
    lam_s, C_s = loop_fit(fr, "s", bases, gaps)
    lam_u, C_u = loop_fit(fr, "u", bases, gaps)
    Pc, Ps, Pu = fr.proj_batch(np.linspace(0.0, fr.period, 33))
    C_Pi = max(1.0, 1.02 * max(np.linalg.norm(P, ord=2, axis=(1, 2)).max()
                               for P in (Pc, Ps, Pu)))
    return QualityMeasures(max(1.0, 1.05 * C_s, 1.05 * C_u), C_Pi,
                           lam_s if lam_s is not None else math.inf,
                           lam_u if lam_u is not None else math.inf)


def loop_verify_frame(fr):
    """The frame checks one sample point and one (base, gap) pair at a time."""
    if fr.mode == "floquet":
        grid, tol_algebra = np.linspace(-fr.period, fr.period, 41), 1e-7
    else:
        grid, tol_algebra = np.linspace(-10.0, 10.0, 41), 1e-10
    tol_cocycle, tol_bundle = 1e-7, 1e-6
    eye = np.eye(fr.model.n)
    failures = []
    completeness = idempotence = annihilation = center_align = 0.0
    projs = {}
    for rho in grid:
        Pc, Ps, Pu = (P[0] for P in fr.proj_batch([rho]))
        projs[rho] = (Pc, Ps, Pu)
        completeness = max(completeness, np.abs(Pc + Ps + Pu - eye).max())
        for P in (Pc, Ps, Pu):
            idempotence = max(idempotence, np.abs(P @ P - P).max())
        for A, B in ((Pc, Ps), (Pc, Pu), (Ps, Pu), (Ps, Pc), (Pu, Pc),
                     (Pu, Ps)):
            annihilation = max(annihilation, np.abs(A @ B).max())
        fvec = fr.orbit_deriv_batch([rho])[0]
        fhat = fvec / np.linalg.norm(fvec)
        center_align = max(center_align, np.abs(
            (eye - np.outer(fhat, fhat)) @ Pc).max())
    for name, val in (("completeness", completeness),
                      ("idempotence", idempotence),
                      ("annihilation", annihilation),
                      ("center alignment", center_align)):
        if val > tol_algebra:
            failures.append(f"{name} {val:.2e}")
    q = fr.quality
    _, n_s, n_u = fr.dims
    bundle_invariance = center_transport = cocycle = 0.0
    expo_slack = proj_slack = -math.inf
    base = grid[:: max(1, grid.size // 8)]
    for t in base:
        for g in (0.7, 1.7, 3.1):
            for sigma in ("s", "u"):
                if (n_s if sigma == "s" else n_u) == 0:
                    continue
                if sigma == "s":
                    U1 = fr.prop_s_batch([t + g], [t])[0]
                    U2 = fr.prop_s_batch([t + 2 * g], [t + g])[0]
                    U12 = fr.prop_s_batch([t + 2 * g], [t])[0]
                    Pv, Pr, lam = (fr.proj_batch([t])[1][0],
                                   fr.proj_batch([t + g])[1][0], q.lam_s)
                    chained = U2 @ U1
                else:
                    U1 = fr.prop_u_batch([t], [t + g])[0]
                    U2 = fr.prop_u_batch([t + g], [t + 2 * g])[0]
                    U12 = fr.prop_u_batch([t], [t + 2 * g])[0]
                    Pv, Pr, lam = (fr.proj_batch([t + 2 * g])[2][0],
                                   fr.proj_batch([t])[2][0], q.lam_u)
                    chained = U1 @ U2
                cocycle = max(cocycle, np.abs(chained - U12).max())
                decay = math.exp(-lam * g) if math.isfinite(lam) else 0.0
                expo_slack = max(expo_slack,
                                 np.linalg.norm(U1, 2) - q.C_U * decay)
                bundle_invariance = max(bundle_invariance, np.abs(
                    (eye - Pr) @ U1 @ Pv).max())
        U = fr.prop_full_batch([t + 1.3], [t])[0]
        center_transport = max(center_transport, float(np.linalg.norm(
            U @ fr.orbit_deriv_batch([t])[0]
            - fr.orbit_deriv_batch([t + 1.3])[0])))
    for rho in grid:
        for P in projs[rho]:
            proj_slack = max(proj_slack, np.linalg.norm(P, 2) - q.C_Pi)
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
        if (n_s if sigma == "s" else n_u) == 0:
            lam_hat[sigma] = math.inf
            continue
        xs, ys = [], []
        for t in base:
            for g in np.linspace(0.5, 5.0, 8):
                U = (fr.prop_s_batch([t + g], [t])[0] if sigma == "s"
                     else fr.prop_u_batch([t], [t + g])[0])
                nm = np.linalg.norm(U, 2)
                if nm > 0:
                    xs.append(g)
                    ys.append(math.log(nm))
        lam_hat[sigma] = -float(np.polyfit(xs, ys, 1)[0])
        declared = q.lam_s if sigma == "s" else q.lam_u
        if fr.mode == "analytic" and math.isfinite(declared):
            if abs(lam_hat[sigma] - declared) > 0.02 * declared:
                failures.append(
                    f"lambda_{sigma} refit {lam_hat[sigma]:.4f} vs {declared}")
    return {"completeness": completeness, "idempotence": idempotence,
            "annihilation": annihilation, "center_align": center_align,
            "bundle_invariance": bundle_invariance,
            "center_transport": center_transport, "cocycle": cocycle,
            "expo_slack": expo_slack, "proj_slack": proj_slack,
            "lambda_hat_s": lam_hat["s"], "lambda_hat_u": lam_hat["u"],
            "failures": failures}


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


FRAME_KINDS = ["lin-saddle", "rotated-saddle", "saddle-cubic", "cycle"]


def frame_of(kind, cycle_frame):
    if kind == "lin-saddle":
        return saddle_frame(lam_s=0.8, lam_u=1.3)
    if kind == "rotated-saddle":
        return saddle_frame(lam_s=0.9, lam_u=1.4, rotation=random_rotation(11))
    if kind == "saddle-cubic":
        return saddle_frame(cubic=(0.3, 0.2))
    return cycle_frame


class TestBatchedMatchesLoops:
    """Batched frame code against the per-point loops it replaced."""

    @staticmethod
    def convolve_both(fr, rhos, vs, ws):
        loop = (loop_convolve_analytic if fr.mode == "analytic"
                else loop_convolve_floquet)
        for stable in (True, False):
            got = (fr.convolve_stable if stable
                   else fr.convolve_unstable)(rhos, vs, ws)
            yield got, loop(fr, rhos, vs, ws, stable)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_convolution_on_random_nodes_with_a_tie(self, kind, cycle_frame):
        fr = frame_of(kind, cycle_frame)
        rng = np.random.default_rng(17)
        rhos = np.sort(rng.uniform(-9.0, 9.0, size=40))
        vs = np.sort(np.append(rng.uniform(-12.0, 12.0, size=300), rhos[7]))
        ws = rng.standard_normal((vs.size, fr.model.n))
        for got, want in self.convolve_both(fr, rhos, vs, ws):
            assert rel_err(got, want) <= 1e-14

    @pytest.mark.parametrize("kind", ["rotated-saddle", "saddle-cubic"])
    def test_convolution_on_the_workload_geometry(self, kind, cycle_frame):
        # window 24, delta 0.1, 3-point Gauss on half cells, t_int 2
        from hypershadow.invariance import _gauss_panels
        fr = frame_of(kind, cycle_frame)
        rhos = -24.0 + 0.1 * np.arange(481)
        vs, wts = _gauss_panels(lattice(26.0, 0.05)[:-1], 0.05)
        rng = np.random.default_rng(3)
        ws = rng.standard_normal((vs.size, 3)) * wts[:, None]
        for got, want in self.convolve_both(fr, rhos, vs, ws):
            assert rel_err(got, want) <= 1e-14

    def test_convolution_across_floquet_periods(self, cycle_frame):
        P = cycle_frame.period
        rhos = np.linspace(-1.6 * P, 1.7 * P, 97)
        vs = np.linspace(-2.2 * P, 2.4 * P, 701)
        ws = np.random.default_rng(8).standard_normal((vs.size, 2)) * 0.01
        periods = np.unique(cycle_frame._wrap(rhos)[1])
        assert periods.size >= 4
        for got, want in self.convolve_both(cycle_frame, rhos, vs, ws):
            assert rel_err(got, want) <= 1e-14

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_frame_report_matches(self, kind, cycle_frame):
        fr = frame_of(kind, cycle_frame)
        rep = verify_frame(fr)
        want = loop_verify_frame(fr)
        assert rep.failures == want.pop("failures")
        for name, val in want.items():
            got = getattr(rep, name)
            if math.isinf(val):
                assert got == val, name
            else:
                assert abs(got - val) <= 1e-12 * max(1.0, abs(val)), name

    def test_floquet_quality_matches(self, cycle_frame):
        assert cycle_frame.quality == loop_quality(cycle_frame)

    def test_analytic_quality_is_unchanged(self):
        fr = saddle_frame(lam_s=0.8, lam_u=1.3)
        assert fr.quality == QualityMeasures(1.0, 1.0, 0.8, 1.3)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_propagator_batches_match_row_by_row(self, kind, cycle_frame):
        fr = frame_of(kind, cycle_frame)
        rng = np.random.default_rng(4)
        rhos = rng.uniform(-8.0, 8.0, size=25)
        vs = rng.uniform(-8.0, 8.0, size=25)
        for name in ("prop_s", "prop_u", "prop_full"):
            prop = getattr(fr, name + "_batch")
            batch = prop(rhos, vs)
            for k in range(rhos.size):
                assert np.array_equal(batch[k],
                                      prop([rhos[k]], [vs[k]])[0]), name

    def test_floquet_full_propagator_matches_the_monodromy_formula(self,
                                                                  cycle_frame):
        P = cycle_frame.period
        rng = np.random.default_rng(6)
        rhos = rng.uniform(-3.0 * P, 3.0 * P, size=40)
        vs = rng.uniform(-3.0 * P, 3.0 * P, size=40)
        got = cycle_frame.prop_full_batch(rhos, vs)
        want = psi_prop_floquet(cycle_frame, rhos, vs)
        for k in range(rhos.size):
            assert rel_err(got[k], want[k]) <= 1e-9

    def test_decay_scan_composes_maps_in_order(self):
        # random non-commuting 2x2 factors, scaled to contract; each
        # acc_k = F_k @ acc_{k-1} + L_k must come out as the recurrence
        from hypershadow.hyperbolic import _decay_scan
        rng = np.random.default_rng(12)
        for K in (1, 2, 7, 64, 100):
            fac = rng.standard_normal((K, 2, 2))
            fac /= 1.1 * np.linalg.norm(fac, 2, axis=(1, 2))[:, None, None]
            fac[0] = 0.0
            load = rng.standard_normal((K, 2))
            want = np.empty_like(load)
            acc = np.zeros(2)
            for k in range(K):
                acc = fac[k] @ acc + load[k]
                want[k] = acc
            assert rel_err(_decay_scan(fac, load), want) <= 1e-13

    def test_analytic_propagators_match_the_slot_formula(self):
        fr = frame_of("rotated-saddle", None)
        for rho, v in ((2.0, 0.5), (-1.3, 4.1), (0.0, 0.0)):
            for name, flags in (("prop_s", (True, False, 0.0)),
                                ("prop_u", (False, True, 0.0)),
                                ("prop_full", (True, True, 1.0))):
                want = scalar_prop_analytic(fr, rho, v, *flags)
                got = getattr(fr, name + "_batch")([rho], [v])[0]
                assert np.abs(got - want).max() <= 1e-15, name


def loop_monodromy(fr):
    """Psi at every orbit node by the sequential RK4 step, one substep
    after the other, that the batched transition matrices replaced."""
    P, delta, n = fr.period, fr.orbit_grid.delta, fr.model.n
    substeps = max(1, int(math.ceil(delta / 0.01)))
    nsteps = int(round(P / delta))
    h = delta / substeps
    fine = -P / 2.0 + 0.5 * h * np.arange(2 * nsteps * substeps + 1)
    dfs = fr.model.df_batch(fr.orbit_batch(fine))
    psi = np.eye(n)
    stored = [psi]
    idx = 0
    for _ in range(nsteps):
        for _ in range(substeps):
            A1, A2, A3 = dfs[idx], dfs[idx + 1], dfs[idx + 2]
            k1 = A1 @ psi
            k2 = A2 @ (psi + 0.5 * h * k1)
            k3 = A2 @ (psi + 0.5 * h * k2)
            k4 = A3 @ (psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            idx += 2
        stored.append(psi)
    return np.array(stored).reshape(nsteps + 1, n * n)


class TestMonodromyScan:
    # 0.005, 0.01 and 0.03 take one, two and three RK4 substeps per cell
    @pytest.mark.parametrize("delta", [0.005, 0.01, 0.03])
    def test_matches_the_sequential_loop(self, delta):
        orbit, period = unit_circle_orbit(delta=delta)
        fr = floquet_frame(builtin_model("planar-limit-cycle"), orbit, period)
        want = loop_monodromy(fr)
        assert np.abs(fr._psi.values - want).max() <= 1e-12
        mus = np.linalg.eigvals(want[-1].reshape(2, 2))
        assert np.abs(np.sort_complex(fr.multipliers)
                      - np.sort_complex(mus)).max() <= 1e-12
        assert verify_frame(fr).ok

    def test_prefix_products_compose_in_order(self):
        from hypershadow.hyperbolic import _prefix_products
        rng = np.random.default_rng(9)
        for K in (1, 2, 5, 64, 100):
            mats = rng.standard_normal((K, 3, 3)) / 2.0
            want = [np.eye(3)]
            for M in mats:
                want.append(M @ want[-1])
            assert rel_err(_prefix_products(mats), np.array(want)) <= 1e-13


class TestFrameTable:
    @pytest.mark.parametrize("kind", ["rotated-saddle", "cycle"])
    def test_tables_and_raw_times_agree_bitwise(self, kind, cycle_frame):
        fr = frame_of(kind, cycle_frame)
        rng = np.random.default_rng(21)
        rhos = np.sort(rng.uniform(-9.0, 9.0, size=50))
        vs = np.sort(rng.uniform(-12.0, 12.0, size=400))
        ws = rng.standard_normal((vs.size, fr.model.n))
        at_rho, at_v = fr.table(rhos), fr.table(vs)
        for sigma in "csu":
            assert np.array_equal(fr.proj_apply(sigma, rhos, ws[:50]),
                                  fr.proj_apply(sigma, at_rho, ws[:50]))
        for raw, tab in zip(fr.proj_batch(vs), fr.proj_batch(at_v)):
            assert np.array_equal(raw, tab)
        for conv in (fr.convolve_stable, fr.convolve_unstable):
            assert np.array_equal(conv(rhos, vs, ws), conv(at_rho, at_v, ws))

    def test_a_table_stands_for_its_times(self, cycle_frame):
        ts = np.linspace(-3.0, 3.0, 13)
        tab = cycle_frame.table(ts)
        assert np.array_equal(np.asarray(tab), ts) and np.size(tab) == 13
        assert cycle_frame.table(tab) is tab
        assert np.array_equal(tab.x0, cycle_frame.orbit_batch(ts))
        assert np.array_equal(tab.f0, cycle_frame.orbit_deriv_batch(ts))
        assert np.array_equal(tab.df0, cycle_frame.df_along_orbit(ts))
        # a table of another frame is read for its times only
        other = saddle_frame()
        assert other.table(tab).frame is other


class TestConvolvePrecondition:
    @pytest.mark.parametrize("kind", ["rotated-saddle", "cycle"])
    def test_unsorted_input_raises(self, kind, cycle_frame):
        fr = frame_of(kind, cycle_frame)
        rng = np.random.default_rng(2)
        rhos = np.linspace(-2.0, 2.0, 9)
        vs = np.sort(rng.uniform(-3.0, 3.0, size=40))
        ws = rng.standard_normal((40, fr.model.n))
        perm = rng.permutation(40)
        for conv in (fr.convolve_stable, fr.convolve_unstable):
            with pytest.raises(ValueError, match="vs must be ascending"):
                conv(rhos, vs[perm], ws[perm])
            with pytest.raises(ValueError, match="rhos must be ascending"):
                conv(rhos[::-1], vs, ws)
            conv(rhos, vs, ws)  # sorted input still goes through
