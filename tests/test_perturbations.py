"""Perturbation functionals: builders, probes, descriptor round-trips."""

import math

import numpy as np
import pytest

from hypershadow import perturbations
from hypershadow.flows import NumericalError
from hypershadow.funcspace import GridFunction, pointwise
from hypershadow.hyperbolic import OdeModel, analytic_frame, builtin_model
from hypershadow.perturbations import (
    HistorySegment,
    PerturbationSpec,
    apply_P,
    functional_output_grid,
    multi_delay_advance,
    nested_delay,
    neutral_delay,
    ode_term,
    small_delay_q,
    spec_from_descriptor,
    state_dependent_delay,
)


# the frame fields the descriptors perturb; small-delay reads its field
SADDLE = builtin_model("lin-saddle")
CUBIC = builtin_model("saddle-cubic", {"cubic": [0.3, 0.2]})


def seg_from_fn(fn, dfn, t=0.0, h=2.0):
    # fn and dfn take one time and return one state
    return HistorySegment(t, h, pointwise(fn), pointwise(dfn))


def orbit_segment(t, h=2.0):
    # the straight-line saddle orbit as a history segment
    return seg_from_fn(lambda u: np.array([u, 0.0, 0.0]),
                       lambda u: np.array([1.0, 0.0, 0.0]), t=t, h=h)


def sine_traj(half_width=6.0, delta=0.01, amp=1.0, m=3):
    def fn(t):
        return np.column_stack([amp * np.sin(t), amp * np.cos(t),
                                0.0 * t])[:, :m]

    return GridFunction.sample(fn, half_width, delta, interp_order=5)


def pointwise_kind(desc, model):
    """A shipped kind of ``model`` rebuilt from its one-row formula
    through pointwise.

    These are the formulas the descriptor kinds used before they were
    vectorized, kept as the reference for the batched versions.
    """
    kind, p = desc["kind"], desc["parameters"]
    n, axis = 3, int(p.get("axis", 1))

    def ident(t, x):
        return x

    if kind == "zero":
        return ode_term(pointwise(lambda t, x: np.zeros(n)))
    if kind == "ode-sin-forcing":
        def g(t, x):
            out = np.zeros(n)
            out[axis] = p["a"] * math.sin(
                p["omega"] * (t - p.get("shift", 0.0)))
            return out

        return ode_term(pointwise(g))
    if kind == "delayed-sin-forcing":
        def Q(t, y):
            out = np.zeros(n)
            out[axis] = p["a"] * math.sin(p["omega"] * y[0])
            return out

        return state_dependent_delay(
            pointwise(Q), pointwise(lambda t, y: -p["lag"]), p.get("h", 1.0))
    if kind == "sdd-tanh":
        return state_dependent_delay(pointwise(ident), pointwise(
            lambda t, x: -(p["c0"] + p["c1"] * math.tanh(x[0]))), p["h"])
    if kind == "neutral-linear":
        return neutral_delay(pointwise(ident), pointwise(
            lambda t, y: -(p["c0"] + p["c1"] * y[0])), p["h"])
    if kind == "nested-abs":
        h = p["h"]
        return nested_delay(
            pointwise(ident), pointwise(lambda t, x: max(-h, -abs(x[0]))),
            pointwise(lambda x: p["inner_shift"]), h)
    if kind == "small-delay":
        return small_delay_q(model, [pointwise(lambda t, seg: p["tau"])],
                             p["h"], tau_bounds=[p["tau"]],
                             eps_max=p["eps_max"])
    raise KeyError(kind)


class TestPointwise:
    def test_rows_are_stacked_and_scalars_pass_through(self):
        calls = []

        def fn(t, y, c):
            calls.append((t, c))
            return y * t + c

        ts = np.array([0.5, 2.0, -1.0])
        ys = np.arange(6.0).reshape(3, 2)
        out = pointwise(fn)(ts, ys, 10.0)
        assert out.shape == (3, 2) and out.dtype == float
        assert np.array_equal(out, ys * ts[:, None] + 10.0)
        assert calls == [(0.5, 10.0), (2.0, 10.0), (-1.0, 10.0)]

    def test_scalar_results_give_one_entry_per_row(self):
        out = pointwise(lambda t, y: -abs(y[0]))(np.zeros(4),
                                                 -np.ones((4, 3)))
        assert out.shape == (4,) and np.all(out == -1.0)

    def test_leading_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one leading length"):
            pointwise(lambda t, y: y)(np.zeros(3), np.zeros((2, 3)))


class TestSegments:
    def test_grid_segment_evaluates_the_window(self):
        traj = sine_traj()
        seg = HistorySegment.from_grid(traj, 1.0, 0.5)
        assert seg.eval(0.3)[0] == pytest.approx(
            [math.sin(1.3), math.cos(1.3), 0.0], abs=1e-8)
        assert seg.deriv(0.0)[0] == pytest.approx(
            [math.cos(1.0), -math.sin(1.0), 0.0], abs=1e-7)

    def test_grid_segment_builds_its_derivative_on_first_read(self,
                                                              monkeypatch):
        traj = sine_traj()
        want = traj.derivative(1).eval(np.array([0.7, 1.2]))
        traj = sine_traj()
        builds = []
        derivative = GridFunction.derivative
        monkeypatch.setattr(GridFunction, "derivative", lambda g, k=1: (
            builds.append(k), derivative(g, k))[1])
        seg = HistorySegment.from_grid(traj, np.array([0.5, 1.0]), 0.5)
        seg.eval(0.2)
        assert builds == []
        assert np.array_equal(seg.deriv(0.2), want)
        assert builds == [1]

    def test_present_values_are_read_once_and_handed_out_as_copies(self):
        ts = np.array([-1.0, 0.5, 2.0])
        reads, now = [], []

        def eval_fn(a):
            reads.append(a.copy())
            return np.column_stack([a, 2.0 * a])

        def present():
            now.append(None)
            return np.column_stack([ts, 2.0 * ts]) + 0.25

        seg = HistorySegment(ts, 1.0, eval_fn, present=present)
        first = seg.eval(0.0)
        assert np.array_equal(first, np.column_stack([ts, 2.0 * ts]) + 0.25)
        first[:] = np.nan
        assert np.array_equal(seg(0.0), np.column_stack([ts, 2.0 * ts])
                              + 0.25)
        assert len(now) == 1 and reads == []
        # a cut keeps its rows of the values read once
        rows = np.array([2, 0])
        assert np.array_equal(seg.take(rows).eval(0.0),
                              np.column_stack([ts, 2.0 * ts])[rows] + 0.25)
        assert np.array_equal(seg.take(slice(1, None)).eval(0.0),
                              np.column_stack([ts, 2.0 * ts])[1:] + 0.25)
        assert len(now) == 1 and reads == []
        # any other offset, and an array of zeros, reads eval_fn
        assert np.array_equal(seg.eval(0.5)[:, 0], ts + 0.5)
        assert np.array_equal(seg.eval(np.zeros(3))[:, 0], ts)
        assert len(reads) == 2 and len(now) == 1

    def test_present_values_are_not_read_unless_asked(self):
        def present():
            raise AssertionError("present state read")

        seg = HistorySegment(np.array([0.0, 1.0]), 1.0,
                             lambda a: a[:, None], present=present)
        assert np.array_equal(seg.eval(-0.5)[:, 0], [-0.5, 0.5])
        assert np.array_equal(seg.take([1]).eval(0.25)[:, 0], [1.25])

    def test_lookup_outside_radius_raises(self):
        seg = orbit_segment(0.0, h=1.0)
        with pytest.raises(ValueError, match="outside radius"):
            seg.eval(1.5)

    @pytest.mark.parametrize("offset", [math.nan, [0.0, -math.inf]])
    def test_non_finite_offset_names_the_centre(self, offset):
        # caught before the lookup, which would interpolate at NaN
        seg = orbit_segment(np.array([0.5, 2.0]), h=1.0)
        where = "0.5" if np.ndim(offset) == 0 else "2"
        with pytest.raises(NumericalError,
                           match=rf"offset -?(nan|inf) at t={where} is not "
                                 rf"finite"):
            seg.eval(offset)

    def test_window_too_small(self):
        traj = sine_traj(half_width=1.0)
        with pytest.raises(ValueError, match="window too small"):
            HistorySegment.from_grid(traj, 0.8, 0.5)

    def test_missing_derivative(self):
        seg = HistorySegment(0.0, 1.0, lambda a: a[:, None])
        with pytest.raises(ValueError, match="does not expose a derivative"):
            seg.deriv(0.0)

    def test_zero_radius_reads_only_the_present(self):
        seg = orbit_segment(np.array([0.5, 2.0]), h=0.0)
        assert seg.eval(0.0)[:, 0] == pytest.approx([0.5, 2.0])
        with pytest.raises(ValueError, match="outside radius"):
            seg.eval(0.1)

    @pytest.mark.parametrize("h", [-0.5, math.nan])
    def test_negative_or_nan_radius_rejected(self, h):
        with pytest.raises(ValueError, match="nonnegative"):
            HistorySegment(0.0, h, lambda a: a[:, None])


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
         "parameters": {"tau": 0.8, "h": 0.2, "eps_max": 0.2}},
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
            spec = spec_from_descriptor(desc, CUBIC)
            seg = seg_from_fn(self.wiggle, self.dwiggle, t=ts)
            batch = spec(ts, seg, 0.05)
            assert batch.shape == (ts.size, 3)
            for i, t in enumerate(ts):
                one = seg_from_fn(self.wiggle, self.dwiggle, t=t)
                assert np.array_equal(batch[i], spec(t, one, 0.05)), desc

    @pytest.mark.parametrize("desc", [d for d in KINDS
                                      if d["kind"] != "multi-delay"],
                             ids=lambda d: d["kind"])
    def test_vectorized_kind_matches_its_pointwise_formula(self, desc):
        ts = np.linspace(-1.5, 2.0, 9)
        seg = seg_from_fn(self.wiggle, self.dwiggle, t=ts)
        got = spec_from_descriptor(desc, CUBIC)(ts, seg, 0.05)
        want = pointwise_kind(desc, CUBIC)(ts, seg, 0.05)
        if desc["kind"] == "sdd-tanh":
            # np.tanh and math.tanh may differ in the last place, which
            # moves the lookup time by that much
            assert np.abs(got - want).max() <= 2 * np.spacing(
                np.abs(want).max())
        else:
            assert np.array_equal(got, want)

    def test_grid_tabulation_matches_pointwise_application(self):
        spec = spec_from_descriptor(self.KINDS[4], SADDLE)
        traj = sine_traj(half_width=8.0, amp=0.8)
        out = functional_output_grid(spec, traj, 0.0, 2.0, 0.25)
        for t, row in zip(out.nodes, out.values):
            assert np.array_equal(row, apply_P(spec, traj, 0.0, float(t)))


class TestOdeTerm:
    def test_zero(self):
        spec = ode_term(lambda t, x: np.zeros_like(x))
        out = spec(0.7, orbit_segment(0.7), 0.1)
        assert np.all(out == 0.0)

    def test_identity_reads_the_present(self):
        spec = ode_term(lambda t, x: x)
        out = spec(2.0, orbit_segment(2.0), 0.0)
        assert out == pytest.approx([2.0, 0.0, 0.0])

    def test_time_forcing_ignores_state(self):
        spec = ode_term(lambda t, x: np.sin(t)[:, None] * [0.0, 1.0, 0.0])
        for t in (0.0, 1.3, -2.0):
            out = spec(t, orbit_segment(t), 0.5)
            assert out == pytest.approx([0.0, math.sin(t), 0.0])

    def test_present_state_kinds_declare_no_history(self):
        assert ode_term(lambda t, x: x).h == 0.0
        for desc in ({"kind": "zero"},
                     {"kind": "ode-sin-forcing",
                      "parameters": {"a": 1.0, "omega": 1.0}},
                     {"kind": "multi-delay",
                      "parameters": {"pairs": [[0.0, 2.0]]}}):
            spec = spec_from_descriptor(desc, SADDLE)
            assert spec.h == 0.0
            assert spec(1.5, orbit_segment(1.5, h=0.0), 0.1).shape == (3,)

    @pytest.mark.parametrize("h", [-1e-3, math.nan])
    def test_spec_rejects_negative_or_nan_radius(self, h):
        spec = ode_term(lambda t, x: x)
        with pytest.raises(ValueError, match="nonnegative"):
            PerturbationSpec(h=h, evaluate=spec.evaluate, L1=0.0, L2=0.0)


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
            lambda t, x: x, lambda t, x: -0.5 * (1.0 + np.tanh(x[:, 0])),
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
        spec = nested_delay(lambda t, x: x + t[:, None],
                            lambda t, x: -np.abs(x[:, 0]) / 4,
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
                            lambda t, x: np.maximum(-h, -np.abs(x[:, 0])),
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

        spec = neutral_delay(lambda t, x: x, pointwise(r), h=1.0)
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
                             lambda u, y: -0.5 - 0.1 * y[:, 0], h=1.0)
        seg = seg_from_fn(lambda u: theta(u - t), lambda u: dtheta(u - t),
                          t=t, h=1.0)
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
        n = A.shape[0]
        return OdeModel(n, lambda x: x @ A.T,
                        lambda x: np.broadcast_to(A, (len(x), n, n)),
                        lambda x: np.zeros((len(x), n, n, n)), b=1.0)

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
            return 1.0 + 0.1 * seg.eval(0.0)[:, 0] ** 2

        spec = small_delay_q(model, [tau], h=0.5, tau_bounds=[1.2],
                             eps_max=0.2)
        seg = seg_from_fn(lambda s: np.array([math.sin(s), math.cos(s)]),
                          lambda s: np.array([math.cos(s), -math.sin(s)]),
                          h=0.5)
        for eps in (1e-2, 1e-3):
            tv = tau(0.0, seg)
            quotient = (model.f_batch(seg.eval(-eps * tv))[0]
                        - model.f_batch(seg.eval(0.0))[0]) / eps
            got = spec(0.0, seg, eps)
            assert np.abs(got - quotient).max() <= 1e-10

    def test_quadrature_doubling_is_stable(self, monkeypatch):
        # the stored 8-point rule against leggauss(16) swapped in
        A = np.array([[0.3, -0.2], [0.1, 0.5]])
        model = self.linear_model(A)
        kw = dict(h=0.5, tau_bounds=[1.0], eps_max=0.3)
        lo = small_delay_q(model, [lambda t, seg: 1.0], **kw)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        monkeypatch.setattr(perturbations, "_GAUSS8_NODES", nodes)
        monkeypatch.setattr(perturbations, "_GAUSS8_WEIGHTS", weights)
        hi = small_delay_q(model, [lambda t, seg: 1.0], **kw)
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
        assert spec.h == 0.0
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
        spec = ode_term(lambda t, x: np.zeros_like(x))
        assert np.all(apply_P(spec, traj, 0.1, 0.5) == 0.0)

    def test_constant_delay_on_linear_trajectory(self):
        traj = GridFunction.sample(
            lambda t: np.column_stack([t, 0.0 * t]), 6.0, 0.01,
            interp_order=5)
        spec = multi_delay_advance([(-1.0, 1.0)])
        for t in (-2.0, 0.0, 3.0):
            out = apply_P(spec, traj, 0.0, t)
            assert out == pytest.approx([t - 1.0, 0.0], abs=1e-10)

    def test_sdd_matches_direct_formula(self):
        traj = GridFunction.sample(
            lambda t: np.column_stack([t, 0.0 * t, 0.0 * t]), 8.0, 0.01,
            interp_order=5)

        def r(t, x):
            return -0.5 * (1.0 + math.tanh(x[0]))

        spec = state_dependent_delay(lambda t, x: x, pointwise(r), h=1.0)
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


def lipschitz_rows(spec, pairs):
    """Per row of the segment pairs ((t, seg_a), (s, seg_b)), with
    centers t and s (scalars or equal-length arrays): the change
    |P(s, seg_b) - P(t, seg_a)| of the spec at eps = 0, the time shift
    |s - t| and the C^1 distance of the segments, the larger of the
    value and derivative gaps at 33 offsets. Rows of every pair are
    concatenated."""
    rows = []
    for (t, seg_a), (s, seg_b) in pairs:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        change = np.linalg.norm(spec(s, seg_b, 0.0) - spec(t, seg_a, 0.0),
                                axis=1)
        h = min(seg_a.h, seg_b.h)
        dist = 0.0
        for off in np.linspace(-h, h, 33):
            for read in (HistorySegment.eval, HistorySegment.deriv):
                dist = np.maximum(dist, np.linalg.norm(
                    read(seg_a, off) - read(seg_b, off), axis=1))
        rows.append((change, np.abs(s - t), dist))
    return [np.concatenate(col) for col in zip(*rows)]


class TestLipschitzProbe:
    # the declared (L1, L2) bound |P(s, b) - P(t, a)| by
    # L1 |s - t| + L2 d(a, b) on every sampled pair of segments
    def make_pairs(self, traj, times, h):
        # every pair of distinct times, as one batch of segment pairs
        ts, ss = zip(*[(t, s) for i, t in enumerate(times)
                       for s in times[i + 1:]])
        ts, ss = np.array(ts), np.array(ss)
        return [((ts, HistorySegment.from_grid(traj, ts, h)),
                 (ss, HistorySegment.from_grid(traj, ss, h)))]

    def test_zero_spec_probes_zero(self):
        spec = ode_term(lambda t, x: np.zeros_like(x))
        traj = sine_traj()
        change, dt, dist = lipschitz_rows(
            spec, self.make_pairs(traj, [0.0, 0.5, 1.0], spec.h))
        assert not change.any()
        assert (change <= spec.L1 * dt + spec.L2 * dist + 1e-9).all()

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
        change, dt, dist = lipschitz_rows(spec, pairs)
        same = (dt <= 1e-12) & (dist > 0.0)
        L2_hat = float((change[same] / dist[same]).max())
        assert L2_hat <= 1.0 + 1e-6
        assert L2_hat > 0.5

    def test_underdeclared_constants_are_flagged(self):
        from dataclasses import replace
        spec = multi_delay_advance([(-1.0, 1.0)], h=1.0)
        weak = replace(spec, L1=0.0, L2=1e-6)
        traj = sine_traj()
        other = sine_traj(amp=1.3)
        pairs = [((0.0, HistorySegment.from_grid(traj, 0.0, 1.0)),
                  (0.0, HistorySegment.from_grid(other, 0.0, 1.0)))]
        change, dt, dist = lipschitz_rows(weak, pairs)
        assert (change - (weak.L1 * dt + weak.L2 * dist)).max() > 1e-9


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
                             lambda t, y: -0.4 - 0.1 * y[:, 0], h=1.0)
        a = apply_P(spec, traj1, 0.0, 0.0)
        b = apply_P(spec, traj2, 0.0, 0.0)
        assert np.abs(a - b).max() <= 1e-14

    def test_output_regularity_stays_bounded(self):
        # Theorem-style budget: derivative norms of t -> P[u](t) grow at
        # most polynomially with the trajectory's own norms
        desc = {"kind": "sdd-tanh",
                "parameters": {"h": 1.0, "c0": 0.5, "c1": 0.3}}
        spec = spec_from_descriptor(desc, SADDLE)
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
             "parameters": {"tau": 0.8, "h": 0.2, "eps_max": 0.2}},
        ]
        seg = seg_from_fn(
            lambda s: np.array([0.3 * math.sin(s) + 0.2, 0.1 * s, 0.05]),
            lambda s: np.array([0.3 * math.cos(s), 0.1, 0.0]),
            t=0.4, h=2.0)
        for desc in descs:
            spec = spec_from_descriptor(desc, SADDLE)
            # the kind and parameters the spec records rebuild it
            again = spec_from_descriptor({"kind": spec.kind,
                                          "parameters": spec.params}, SADDLE)
            a = spec(0.4, seg, 0.01)
            b = again(0.4, seg, 0.01)
            assert np.abs(a - b).max() <= 1e-14
            assert spec.kind == desc["kind"]

    def test_negative_lag_reads_the_advanced_state(self):
        # the default radius and the declared bound are |lag|, so the
        # lin-saddle orbit probe a run makes reads inside the radius
        def build(lag):
            return spec_from_descriptor({"kind": "delayed-sin-forcing",
                                         "parameters": {"a": 1.0,
                                                        "omega": 2.0,
                                                        "lag": lag}}, SADDLE)

        spec = build(-5.0)
        assert spec.h == 5
        fr = analytic_frame({"model": "lin-saddle"})
        seg = HistorySegment(0.0, spec.h, fr.orbit_batch,
                             fr.orbit_deriv_batch)
        assert spec(0.0, seg, 0.01) == pytest.approx(
            [0.0, math.sin(10.0), 0.0], abs=1e-15)
        # lag 1 and -1 build the spec they built before
        for lag in (1.0, -1.0):
            spec = build(lag)
            assert (spec.h, spec.L1, spec.L2) == (1.0, 2.0, 2.0)
            assert spec(0.0, seg, 0.01) == pytest.approx(
                [0.0, math.sin(-2.0 * lag), 0.0], abs=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="perturbation entry 'kind' "
                                             "must be one of zero, "):
            spec_from_descriptor({"kind": "nope", "parameters": {}}, SADDLE)

    @pytest.mark.parametrize("kind,params,says", [
        ("ode-sin-forcing", {"a": "oops", "omega": 1.0},
         "parameter 'a' is not numeric: 'oops'"),
        ("multi-delay", {"pairs": [[-1.0, 1.0]], "h": "oops"},
         "parameter 'h' is not numeric: 'oops'"),
        ("ode-sin-forcing", {"a": True, "omega": 1.0},
         "parameter 'a' is not numeric: True"),
        ("sdd-tanh", {"h": 1.0, "c0": math.nan, "c1": 0.2},
         "parameter 'c0' is not finite: nan"),
        ("multi-delay", {"pairs": [[-1.0, 1.0], [0.5, math.inf]]},
         "parameter 'pairs' is not finite: inf"),
        # a null value reads as an absent one
        ("sdd-tanh", {"h": None, "c0": 0.5, "c1": 0.2},
         "parameters: missing entry 'h'"),
        ("ode-sin-forcing", {"a": 1.0, "omega": 1.0, "axis": 1.7},
         "parameter 'axis' must be an integer, got 1.7"),
        # the output dimension is the frame model's
        ("zero", {"n": 2}, "parameter 'n' must be the model dimension 3"),
    ])
    def test_bad_parameter_names_kind_and_parameter(self, kind, params,
                                                    says):
        with pytest.raises(ValueError) as info:
            spec_from_descriptor({"kind": kind, "parameters": params},
                                 SADDLE)
        assert str(info.value).startswith(f"descriptor kind {kind!r} ")
        assert says in str(info.value)

    def test_integral_float_index_is_accepted(self):
        spec = spec_from_descriptor({"kind": "ode-sin-forcing", "parameters":
                                     {"a": 1.0, "omega": 1.0, "axis": 2.0}},
                                    SADDLE)
        out = spec(np.array([0.5]), orbit_segment(0.5), 0.0)
        assert out[0] == pytest.approx([0.0, 0.0, math.sin(0.5)], abs=1e-15)
