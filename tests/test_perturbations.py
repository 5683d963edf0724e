"""Perturbation functionals: builders, probes, descriptor round-trips."""

import math

import numpy as np
import pytest

from hypershadow.funcspace import GridFunction
from hypershadow.hyperbolic import OdeModel
from hypershadow.perturbations import (
    HistorySegment,
    apply_P,
    functional_output_grid,
    lipschitz_probe,
    mu_sensitivity,
    multi_delay_advance,
    nested_delay,
    neutral_delay,
    ode_term,
    small_delay_q,
    spec_from_descriptor,
    state_dependent_delay,
)


def seg_from_fn(fn, dfn, t=0.0, h=2.0):
    return HistorySegment.from_callable(fn, t, h, dfn=dfn)


def orbit_segment(t, h=2.0):
    # the straight-line saddle orbit as a history segment
    return seg_from_fn(lambda u: np.array([u, 0.0, 0.0]),
                       lambda u: np.array([1.0, 0.0, 0.0]), t=t, h=h)


def sine_traj(half_width=6.0, delta=0.01, amp=1.0, m=3):
    def fn(t):
        return np.array([amp * math.sin(t), amp * math.cos(t), 0.0][:m])

    return GridFunction.sample(fn, half_width, delta, interp_order=5,
                               extension="constant-hold")


class TestSegments:
    def test_grid_segment_evaluates_the_window(self):
        traj = sine_traj()
        seg = HistorySegment.from_grid(traj, 1.0, 0.5)
        assert seg.eval(0.3)[0] == pytest.approx(
            [math.sin(1.3), math.cos(1.3), 0.0], abs=1e-8)
        assert seg.deriv(0.0)[0] == pytest.approx(
            [math.cos(1.0), -math.sin(1.0), 0.0], abs=1e-7)

    def test_lookup_outside_radius_raises(self):
        seg = orbit_segment(0.0, h=1.0)
        with pytest.raises(ValueError, match="outside radius"):
            seg.eval(1.5)

    def test_window_too_small(self):
        traj = sine_traj(half_width=1.0)
        with pytest.raises(ValueError, match="window too small"):
            HistorySegment.from_grid(traj, 0.8, 0.5)

    def test_missing_derivative(self):
        seg = HistorySegment(0.0, 1.0, lambda a: a[:, None])
        with pytest.raises(ValueError, match="does not expose a derivative"):
            seg.deriv(0.0)


class TestBatching:
    """k centers in one call equal k single-center calls, exactly."""

    KINDS = [
        {"kind": "zero", "parameters": {"n": 3}},
        {"kind": "ode-sin-forcing",
         "parameters": {"a": 0.5, "omega": 2.0, "shift": 1.0, "n": 3}},
        {"kind": "delayed-sin-forcing",
         "parameters": {"a": 1.0, "omega": 2.0, "lag": 1.0}},
        {"kind": "multi-delay",
         "parameters": {"pairs": [[-1.0, 1.0], [0.5, 2.0]], "h": 1.5}},
        {"kind": "sdd-tanh", "parameters": {"h": 1.0, "c0": 0.4, "c1": 0.2}},
        {"kind": "neutral-linear",
         "parameters": {"h": 1.0, "c0": 0.3, "c1": 0.1}},
        {"kind": "nested-abs", "parameters": {"h": 1.0, "inner_shift": -0.5}},
        {"kind": "small-delay",
         "parameters": {"model": "saddle-cubic",
                        "model_params": {"cubic": [0.3, 0.2]},
                        "tau": 0.8, "h": 0.2, "eps_max": 0.2}},
    ]

    @staticmethod
    def wiggle(u):
        return np.array([u + 0.3 * math.sin(u), 0.2 * math.cos(1.3 * u),
                         0.1 * math.sin(0.7 * u)])

    @staticmethod
    def dwiggle(u):
        return np.array([1.0 + 0.3 * math.cos(u), -0.26 * math.sin(1.3 * u),
                         0.07 * math.cos(0.7 * u)])

    def test_segment_shapes_and_rows(self):
        traj = sine_traj()
        ts = np.array([-1.0, 0.0, 0.4, 2.5])
        seg = HistorySegment.from_grid(traj, ts, 0.5)
        assert len(seg) == 4
        assert seg.eval(0.0).shape == (4, 3)
        offsets = np.array([-0.5, 0.1, 0.0, 0.5])
        assert seg.deriv(offsets).shape == (4, 3)
        for i, t in enumerate(ts):
            one = HistorySegment.from_grid(traj, t, 0.5)
            assert np.array_equal(seg.eval(offsets)[i],
                                  one.eval(offsets[i])[0])
            assert np.array_equal(seg.take([i]).deriv(0.2), one.deriv(0.2))

    def test_guard_checks_every_offset(self):
        seg = HistorySegment.from_grid(sine_traj(), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match=r"at \+1\.5 outside radius 1"):
            seg.eval(np.array([0.1, 1.5, -0.2]))

    def test_one_center_per_base_time(self):
        spec = ode_term(lambda t, x: x)
        with pytest.raises(ValueError, match="one segment center"):
            spec(np.array([0.0, 1.0]), orbit_segment(0.0), 0.0)

    def test_batch_equals_single_center_calls(self):
        ts = np.linspace(-1.5, 2.0, 9)
        for desc in self.KINDS:
            spec = spec_from_descriptor(desc)
            seg = HistorySegment.from_callable(self.wiggle, ts, 2.0,
                                               dfn=self.dwiggle)
            batch = spec(ts, seg, 0.05)
            assert batch.shape == (ts.size, 3)
            for i, t in enumerate(ts):
                one = HistorySegment.from_callable(self.wiggle, t, 2.0,
                                                   dfn=self.dwiggle)
                assert np.array_equal(batch[i], spec(t, one, 0.05)), desc

    def test_grid_tabulation_matches_pointwise_application(self):
        spec = spec_from_descriptor(self.KINDS[4])
        traj = sine_traj(half_width=8.0, amp=0.8)
        out = functional_output_grid(spec, traj, 0.0, 2.0, 0.25)
        for t, row in zip(out.nodes, out.values):
            assert np.array_equal(row, apply_P(spec, traj, 0.0, float(t)))


class TestOdeTerm:
    def test_zero(self):
        spec = ode_term(lambda t, x: np.zeros(3))
        out = spec(0.7, orbit_segment(0.7), 0.1)
        assert np.all(out == 0.0)

    def test_identity_reads_the_present(self):
        spec = ode_term(lambda t, x: x)
        out = spec(2.0, orbit_segment(2.0), 0.0)
        assert out == pytest.approx([2.0, 0.0, 0.0])

    def test_time_forcing_ignores_state(self):
        spec = ode_term(lambda t, x: np.array([0.0, math.sin(t), 0.0]))
        for t in (0.0, 1.3, -2.0):
            out = spec(t, orbit_segment(t), 0.5)
            assert out == pytest.approx([0.0, math.sin(t), 0.0])


class TestStateDependentDelay:
    def test_constant_delay(self):
        spec = state_dependent_delay(lambda t, x: x, lambda t, x: -1.0, h=1.0)
        seg = seg_from_fn(lambda u: np.array([math.sin(u)]),
                          lambda u: np.array([math.cos(u)]), t=0.3, h=1.0)
        assert spec(0.3, seg, 0.0) == pytest.approx(
            [math.sin(-0.7)], abs=1e-14)

    def test_delay_irrelevant_on_constants(self):
        c = np.array([0.4, -1.0, 2.0])
        spec = state_dependent_delay(
            lambda t, x: x, lambda t, x: -0.5 * (1.0 + math.tanh(x[0])),
            h=1.0)
        seg = seg_from_fn(lambda u: c, lambda u: 0.0 * c, t=1.0, h=1.0)
        assert spec(1.0, seg, 0.0) == pytest.approx(c)

    def test_saddle_orbit_lookup(self):
        spec = state_dependent_delay(lambda t, x: x, lambda t, x: -1.0, h=1.5)
        for t in (-1.0, 0.0, 2.5):
            out = spec(t, orbit_segment(t), 0.0)
            assert out == pytest.approx([t - 1.0, 0.0, 0.0], abs=1e-14)

    def test_bound_must_fit(self):
        with pytest.raises(ValueError, match="exceeds the history radius"):
            state_dependent_delay(lambda t, x: x, lambda t, x: -2.0, h=1.0,
                                  r_bound=2.0)


class TestNestedDelay:
    def test_zero_shifts_collapse(self):
        spec = nested_delay(lambda t, x: x, lambda t, x: 0.0, lambda x: 0.0,
                            h=1.0)
        seg = orbit_segment(1.2)
        assert spec(1.2, seg, 0.0) == pytest.approx([1.2, 0, 0])

    def test_constant_segments_short_circuit(self):
        c = np.array([2.0, 1.0])
        spec = nested_delay(lambda t, x: x + t, lambda t, x: -abs(x[0]) / 4,
                            lambda x: -0.3, h=1.0)
        seg = seg_from_fn(lambda u: c, lambda u: 0 * c, t=0.5, h=1.0)
        assert spec(0.5, seg, 0.0) == pytest.approx(c + 0.5)

    def test_affine_hand_evaluation(self):
        a = np.array([0.8, -0.4])
        b = np.array([0.5, 1.0])
        h = 1.0

        def theta(s):
            return a + s * b

        spec = nested_delay(lambda t, x: x,
                            lambda t, x: max(-h, -abs(x[0])),
                            lambda x: -0.5, h=h)
        seg = seg_from_fn(theta, lambda s: b, t=0.0, h=h)
        inner = theta(-0.5)
        shift = max(-h, -abs(inner[0]))
        assert spec(0.0, seg, 0.0) == pytest.approx(
            theta(shift), abs=1e-12)


class TestNeutralDelay:
    def test_constant_delay_via_derivative_slot(self):
        spec = neutral_delay(lambda t, x: x, lambda t, y: -1.0, h=1.0)
        seg = orbit_segment(3.0, h=1.0)
        assert spec(3.0, seg, 0.0) == pytest.approx([2.0, 0, 0])

    def test_linear_segment_slope_feeds_the_delay(self):
        v = np.array([0.5, -0.25])

        def r(t, y):
            return -0.4 - 0.2 * y[0]

        spec = neutral_delay(lambda t, x: x, r, h=1.0)
        seg = seg_from_fn(lambda s: s * v, lambda s: v, t=0.0, h=1.0)
        shift = r(0.0, v)
        assert spec(0.0, seg, 0.0) == pytest.approx(shift * v)

    def test_sine_hand_composition(self):
        t = 0.9

        def theta(s):
            return np.array([math.sin(t + s), math.cos(t + s)])

        def dtheta(s):
            return np.array([math.cos(t + s), -math.sin(t + s)])

        spec = neutral_delay(lambda u, x: x,
                             lambda u, y: -0.5 - 0.1 * y[0], h=1.0)
        seg = HistorySegment.from_callable(lambda u: theta(u - t), t, 1.0,
                                           dfn=lambda u: dtheta(u - t))
        shift = -0.5 - 0.1 * math.cos(t)
        assert spec(t, seg, 0.0) == pytest.approx(
            theta(shift), abs=1e-10)

    def test_requires_derivative_access(self):
        spec = neutral_delay(lambda t, x: x, lambda t, y: -0.5, h=1.0)
        seg = HistorySegment(0.0, 1.0, lambda a: a[:, None])
        with pytest.raises(ValueError, match="derivative"):
            spec(0.0, seg, 0.0)


class TestSmallDelay:
    def linear_model(self, A):
        A = np.asarray(A, dtype=float)
        return OdeModel(A.shape[0], lambda x: A @ x, lambda x: A,
                        lambda x: np.zeros((A.shape[0],) * 3), b=1.0)

    def test_zero_delay_gives_zero(self):
        model = self.linear_model(np.diag([1.0, 2.0]))
        spec = small_delay_q(model, [lambda t, seg: 0.0], h=0.5,
                             tau_bounds=[0.0])
        seg = seg_from_fn(lambda s: np.array([math.exp(s), 1.0]),
                          lambda s: np.array([math.exp(s), 0.0]), h=0.5)
        assert np.abs(spec(0.0, seg, 0.1)).max() <= 1e-15

    def test_exponential_closed_form(self):
        A = np.array([[0.3, -0.2], [0.1, 0.5]])
        model = self.linear_model(A)
        a = 0.7
        v = np.array([1.0, -2.0])
        eps = 0.05
        spec = small_delay_q(model, [lambda t, seg: 1.0], h=0.5,
                             tau_bounds=[1.0], eps_max=0.2)
        seg = seg_from_fn(lambda s: math.exp(a * s) * v,
                          lambda s: a * math.exp(a * s) * v, h=0.5)
        want = -(A @ v) * (1.0 - math.exp(-eps * a)) / eps
        got = spec(0.0, seg, eps)
        assert got == pytest.approx(want, abs=1e-12)

    def test_difference_quotient_consistency(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        model = self.linear_model(A)

        def tau(t, seg):
            return 1.0 + 0.1 * float(seg.eval(0.0)[0, 0]) ** 2

        spec = small_delay_q(model, [tau], h=0.5, tau_bounds=[1.2],
                             eps_max=0.2)
        seg = seg_from_fn(lambda s: np.array([math.sin(s), math.cos(s)]),
                          lambda s: np.array([math.cos(s), -math.sin(s)]),
                          h=0.5)
        for eps in (1e-2, 1e-3):
            tv = tau(0.0, seg)
            quotient = (model.f(seg.eval(-eps * tv)[0])
                        - model.f(seg.eval(0.0)[0])) / eps
            got = spec(0.0, seg, eps)
            assert np.abs(got - quotient).max() <= 1e-10

    def test_quadrature_doubling_is_stable(self):
        A = np.array([[0.3, -0.2], [0.1, 0.5]])
        model = self.linear_model(A)
        kw = dict(h=0.5, tau_bounds=[1.0], eps_max=0.3)
        lo = small_delay_q(model, [lambda t, seg: 1.0], quad_order=8, **kw)
        hi = small_delay_q(model, [lambda t, seg: 1.0], quad_order=16, **kw)
        seg = seg_from_fn(lambda s: np.array([math.exp(2 * s), math.sin(s)]),
                          lambda s: np.array([2 * math.exp(2 * s),
                                              math.cos(s)]), h=0.5)
        d = lo(0.0, seg, 0.25) - hi(0.0, seg, 0.25)
        assert np.abs(d).max() < 1e-10

    def test_blocks_partition_required(self):
        model = self.linear_model(np.eye(2))
        with pytest.raises(ValueError, match="explicit coordinate blocks"):
            small_delay_q(model, [lambda t, s: 0.1, lambda t, s: 0.2], h=0.5)
        with pytest.raises(ValueError, match="partition"):
            small_delay_q(model, [lambda t, s: 0.1, lambda t, s: 0.2], h=0.5,
                          blocks=[[0], [0]])

    def test_blockwise_delays(self):
        # two coordinates read at two different delays
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        model = self.linear_model(A)
        eps = 0.1
        spec = small_delay_q(model, [lambda t, s: 1.0, lambda t, s: 0.5],
                             h=0.5, blocks=[[0], [1]],
                             tau_bounds=[1.0, 0.5], eps_max=0.2)
        a = 0.4
        seg = seg_from_fn(lambda s: np.array([math.exp(a * s),
                                              math.exp(-a * s)]),
                          lambda s: np.array([a * math.exp(a * s),
                                              -a * math.exp(-a * s)]), h=0.5)
        # the blockwise difference identity: f evaluated on the stacked
        # delayed lookups minus f at the present, divided by eps
        y = np.array([math.exp(-eps * a), math.exp(0.5 * eps * a)])
        want = (A @ y - A @ np.array([1.0, 1.0])) / eps
        got = spec(0.0, seg, eps)
        assert got == pytest.approx(want, abs=1e-12)

    def test_delay_leaving_window_raises(self):
        model = self.linear_model(np.eye(2))
        spec = small_delay_q(model, [lambda t, seg: 10.0], h=0.5,
                             tau_bounds=[10.0], eps_max=0.05)
        seg = seg_from_fn(lambda s: np.array([1.0, 1.0]),
                          lambda s: np.array([0.0, 0.0]), h=0.5)
        with pytest.raises(ValueError, match="leaves the history window"):
            spec(0.0, seg, 0.2)


class TestMultiDelay:
    def test_paper_bullet_sum(self):
        spec = multi_delay_advance([(-1.0, 1.0), (-2.0, 1.0), (1.0, 1.0)])
        seg = orbit_segment(0.0, h=2.0)
        want = np.array([-1.0, 0, 0]) + np.array([-2.0, 0, 0]) + np.array(
            [1.0, 0, 0])
        assert spec(0.0, seg, 0.0) == pytest.approx(want)

    def test_empty_sum_is_zero(self):
        spec = multi_delay_advance([])
        assert np.all(spec(0.0, orbit_segment(0.0), 0.0) == 0.0)

    def test_linear_segment(self):
        v = np.array([1.0, 2.0])
        spec = multi_delay_advance([(-1.0, 1.0), (-2.0, 1.0), (1.0, 1.0)])
        seg = seg_from_fn(lambda s: s * v, lambda s: v, h=2.0)
        assert spec(0.0, seg, 0.0) == pytest.approx(-2.0 * v)

    def test_shift_outside_radius(self):
        with pytest.raises(ValueError, match="shift outside"):
            multi_delay_advance([(-3.0, 1.0)], h=1.0)


class TestApplyP:
    def test_zero_spec(self):
        traj = sine_traj()
        spec = ode_term(lambda t, x: np.zeros(3))
        assert np.all(apply_P(spec, traj, 0.1, 0.5) == 0.0)

    def test_constant_delay_on_linear_trajectory(self):
        traj = GridFunction.sample(
            lambda t: np.array([t, 0.0]), 6.0, 0.01, interp_order=5,
            extension="linear")
        spec = multi_delay_advance([(-1.0, 1.0)])
        for t in (-2.0, 0.0, 3.0):
            out = apply_P(spec, traj, 0.0, t)
            assert out == pytest.approx([t - 1.0, 0.0], abs=1e-10)

    def test_sdd_matches_direct_formula(self):
        traj = GridFunction.sample(
            lambda t: np.array([t, 0.0, 0.0]), 8.0, 0.01, interp_order=5,
            extension="linear")

        def r(t, x):
            return -0.5 * (1.0 + math.tanh(x[0]))

        spec = state_dependent_delay(lambda t, x: x, r, h=1.0)
        for t in (-1.0, 0.4, 2.0):
            shift = r(t, np.array([t, 0.0, 0.0]))
            want = np.array([t + shift, 0.0, 0.0])
            assert apply_P(spec, traj, 0.0, t) == pytest.approx(
                want, abs=1e-9)

    def test_window_too_small(self):
        traj = sine_traj(half_width=0.4)
        spec = multi_delay_advance([(-1.0, 1.0)])
        with pytest.raises(ValueError, match="window too small"):
            apply_P(spec, traj, 0.0, 0.0)


class TestLipschitzProbe:
    def make_pairs(self, traj, times, h):
        # every pair of distinct times, as one batch of segment pairs
        ts, ss = zip(*[(t, s) for i, t in enumerate(times)
                       for s in times[i + 1:]])
        ts, ss = np.array(ts), np.array(ss)
        return [((ts, HistorySegment.from_grid(traj, ts, h)),
                 (ss, HistorySegment.from_grid(traj, ss, h)))]

    def test_zero_spec_probes_zero(self):
        spec = ode_term(lambda t, x: np.zeros(3))
        traj = sine_traj()
        rep = lipschitz_probe(spec, self.make_pairs(traj, [0.0, 0.5, 1.0],
                                                    spec.h))
        assert rep.L1_hat == 0.0 and rep.L2_hat == 0.0 and rep.dominated

    def test_constant_delay_identity_estimates(self):
        spec = multi_delay_advance([(-1.0, 1.0)], h=1.0)
        traj = sine_traj()
        times = [0.0, 0.05, 0.3, 0.8, 1.5]
        pairs = self.make_pairs(traj, times, spec.h)
        # same-time pairs with different trajectories probe L2
        other = sine_traj(amp=1.1)
        ts = np.array(times)
        pairs.append(((ts, HistorySegment.from_grid(traj, ts, spec.h)),
                      (ts, HistorySegment.from_grid(other, ts, spec.h))))
        spec_declared = multi_delay_advance([(-1.0, 1.0)], h=1.0)
        rep = lipschitz_probe(spec_declared, pairs)
        assert rep.L2_hat <= 1.0 + 1e-6
        assert rep.L2_hat > 0.5

    def test_underdeclared_constants_are_flagged(self):
        from dataclasses import replace
        spec = multi_delay_advance([(-1.0, 1.0)], h=1.0)
        weak = replace(spec, L1=0.0, L2=1e-6)
        traj = sine_traj()
        other = sine_traj(amp=1.3)
        pairs = [((0.0, HistorySegment.from_grid(traj, 0.0, 1.0)),
                  (0.0, HistorySegment.from_grid(other, 0.0, 1.0)))]
        rep = lipschitz_probe(weak, pairs)
        assert not rep.dominated
        assert rep.worst_excess > 0.0


class TestInvariants:
    def random_segment(self, seed, h=1.0, m=3):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=m)
        b = rng.uniform(-1.0, 1.0, size=m)
        w = rng.uniform(0.5, 2.0)
        fn = lambda s: a * np.sin(w * s) + b
        dfn = lambda s: a * w * np.cos(w * s)
        return seg_from_fn(fn, dfn, t=0.0, h=h)

    def test_degenerate_shift_collapse(self):
        base = ode_term(lambda t, x: x)
        variants = [
            state_dependent_delay(lambda t, x: x, lambda t, x: 0.0, h=1.0),
            nested_delay(lambda t, x: x, lambda t, x: 0.0, lambda x: 0.0,
                         h=1.0),
            neutral_delay(lambda t, x: x, lambda t, y: 0.0, h=1.0),
            multi_delay_advance([(0.0, 1.0)], h=1.0),
        ]
        for seed in range(5):
            seg = self.random_segment(seed)
            want = base(0.3, seg, 0.0)
            for spec in variants:
                got = spec(0.3, seg, 0.0)
                assert np.abs(got - want).max() <= 1e-12

    def test_neutral_sees_only_the_c1_window(self):
        # two trajectories equal near t, different far away
        traj1 = sine_traj(half_width=6.0)
        vals = traj1.values.copy()
        nodes = traj1.nodes
        far = np.abs(nodes) > 2.5
        vals[far] += 5.0 * np.sin(nodes[far])[:, None]
        traj2 = traj1.with_values(vals)
        spec = neutral_delay(lambda t, x: x,
                             lambda t, y: -0.4 - 0.1 * y[0], h=1.0)
        a = apply_P(spec, traj1, 0.0, 0.0)
        b = apply_P(spec, traj2, 0.0, 0.0)
        assert np.abs(a - b).max() <= 1e-14

    def test_output_regularity_stays_bounded(self):
        # Theorem-style budget: derivative norms of t -> P[u](t) grow at
        # most polynomially with the trajectory's own norms
        desc = {"kind": "sdd-tanh",
                "parameters": {"h": 1.0, "c0": 0.5, "c1": 0.3}}
        spec = spec_from_descriptor(desc)
        for amp in (0.5, 1.0, 2.0):
            traj = sine_traj(half_width=8.0, amp=amp)
            out = functional_output_grid(spec, traj, 0.0, 4.0, 0.02)
            for j in range(3):
                nj = out.norm_ck(j)
                assert math.isfinite(nj)
                assert nj <= 10.0 * (1.0 + traj.norm_ck(j + 1)) ** (j + 1)

    def test_linear_spec_output_norm_bound(self):
        spec = multi_delay_advance([(-0.7, 1.0), (0.4, -0.5)], h=1.0)
        traj = sine_traj(half_width=8.0, amp=1.7)
        out = functional_output_grid(spec, traj, 0.0, 4.0, 0.02)
        for j in range(3):
            assert out.norm_ck(j) <= 1.5 * traj.norm_ck(j) + 1e-6


class TestDescriptors:
    def test_round_trips_evaluate_identically(self):
        descs = [
            {"kind": "zero", "parameters": {"n": 3}},
            {"kind": "ode-sin-forcing",
             "parameters": {"a": 0.5, "omega": 2.0, "shift": 1.0,
                            "axis": 1, "n": 3}},
            {"kind": "multi-delay",
             "parameters": {"pairs": [[-1.0, 1.0], [0.5, 2.0]], "h": 1.5}},
            {"kind": "sdd-tanh",
             "parameters": {"h": 1.0, "c0": 0.4, "c1": 0.2}},
            {"kind": "neutral-linear",
             "parameters": {"h": 1.0, "c0": 0.3, "c1": 0.1}},
            {"kind": "nested-abs",
             "parameters": {"h": 1.0, "inner_shift": -0.5}},
            {"kind": "small-delay",
             "parameters": {"model": "lin-saddle", "tau": 0.8, "h": 0.2,
                            "eps_max": 0.2}},
        ]
        seg = seg_from_fn(
            lambda s: np.array([0.3 * math.sin(s) + 0.2, 0.1 * s, 0.05]),
            lambda s: np.array([0.3 * math.cos(s), 0.1, 0.0]),
            t=0.4, h=2.0)
        for desc in descs:
            spec = spec_from_descriptor(desc)
            again = spec_from_descriptor(spec.descriptor())
            a = spec(0.4, seg, 0.01)
            b = again(0.4, seg, 0.01)
            assert np.abs(a - b).max() <= 1e-14
            assert spec.descriptor()["kind"] == desc["kind"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation kind"):
            spec_from_descriptor({"kind": "nope", "parameters": {}})

    def test_mu_sensitivity_matches_closed_form(self):
        desc = {"kind": "ode-sin-forcing", "mu": 0.5,
                "parameters": {"a": 0.5, "omega": 2.0, "shift": 0.0,
                               "axis": 1, "n": 3}}
        seg = orbit_segment(0.7)
        d = mu_sensitivity(desc, 0.7, seg, 0.0, target="a")
        assert d == pytest.approx([0.0, math.sin(1.4), 0.0], abs=1e-9)
