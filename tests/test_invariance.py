"""Invariance operator: pointwise terms, fixed-point driver, bounds, probes.

The closed-form scenarios live on the straight-line saddle orbit: a
delayed sine forcing in the stable (or unstable) slot has an explicit
exponential-kernel convolution as its exact response, and the linear
model makes one operator application land on it. Nonlinear coverage
uses the cubic saddle, where only the a-posteriori machinery can vouch
for the answer.
"""

import functools
import json
import math
import types

import numpy as np
import pytest

from hypershadow.flows import ScalarField, solve_flow
from hypershadow.funcspace import BallRadii, GridFunction, WeightParam
from hypershadow.hyperbolic import (
    AnalyticFrame,
    analytic_frame,
    builtin_model,
    frame_from_descriptor,
)
from hypershadow.invariance import (
    BallExitError,
    CorrectionState,
    DivergenceError,
    NumericalError,
    OperatorConfig,
    _quadratic_batch,
    _state_flow,
    _varphi_batch,
    aposteriori_bounds,
    b_difference_probe,
    center_defect,
    contraction_constants,
    contraction_probe,
    derivative_identity_defect,
    distance_components,
    gamma_c,
    gamma_s,
    gamma_step,
    gamma_u,
    initial_state,
    iterate,
    orbit_field_norms,
    propagated_bounds_report,
    range_defect,
    resolve_geometry,
    residual_fde,
    taylor_remainder,
    varphi_difference_probe,
    write_residual_csv,
)
from hypershadow.perturbations import (
    HistorySegment,
    ode_term,
    state_dependent_delay,
)


def lin_frame(lam_s=1.0, lam_u=1.0):
    return analytic_frame({"model": "lin-saddle",
                           "lambda_s": lam_s, "lambda_u": lam_u})


def cubic_frame():
    return analytic_frame({"model": "saddle-cubic",
                           "lambda_s": 1.0, "lambda_u": 1.0,
                           "cubic": (0.4, -0.3)})


def base_cfg(eps, delta=0.1, tol_eta=1e-8, **kw):
    return OperatorConfig(eta=WeightParam(0.25), window=24.0, eps=eps,
                          delta=delta, tol_eta=tol_eta, **kw)


def sine_delay_spec(a, omega, slot=1):
    # forcing a sin(omega y_0) read one unit in the past; on the
    # straight orbit y_0(t - 1) = t - 1 exactly, and the corrections
    # never touch slot 0, so the forcing is the same on every iterate
    def Q(t, y):
        out = np.zeros(3)
        out[slot] = a * math.sin(omega * y[0])
        return out

    return state_dependent_delay(Q, lambda t, y: -1.0, h=1.0,
                                 lip_q=a * omega, lip_r=0.0, traj_c1=1.2)


def stable_response(rho, a, omega, eps):
    # int_{-inf}^rho e^{-(rho-v)} a sin(omega (v-1)) dv, lambda_s = 1
    arg = omega * (np.asarray(rho, dtype=float) - 1.0)
    return eps * a * (np.sin(arg) - omega * np.cos(arg)) / (1.0 + omega ** 2)


def unstable_response(rho, a, omega, eps):
    # -int_rho^inf e^{rho-v} a sin(omega (v-1)) dv, lambda_u = 1
    arg = omega * (np.asarray(rho, dtype=float) - 1.0)
    return -eps * a * (np.sin(arg) + omega * np.cos(arg)) / (1.0 + omega ** 2)


def nonlinear_spec():
    # every slot forced, and the delay genuinely reads the state
    def Q(t, y):
        return np.array([0.3 * math.sin(1.1 * y[0]),
                         0.8 * math.sin(1.4 * y[0]),
                         0.5 * math.cos(0.9 * y[0])])

    def r(t, y):
        return -0.8 + 0.15 * math.sin(y[1])

    return state_dependent_delay(Q, r, h=1.0, r_bound=0.95,
                                 lip_q=0.8 * 1.4, lip_r=0.15, traj_c1=1.3)


@functools.lru_cache(maxsize=None)
def linear_run():
    fr = lin_frame()
    spec = sine_delay_spec(1.0, 2.0)
    cfg = base_cfg(eps=1e-2)
    final, report = iterate(fr, spec, cfg)
    return fr, spec, cfg, final, report


@functools.lru_cache(maxsize=None)
def nonlinear_run():
    fr = cubic_frame()
    spec = nonlinear_spec()
    cfg = base_cfg(eps=1e-2)
    final, report = iterate(fr, spec, cfg)
    return fr, spec, cfg, final, report


@functools.lru_cache(maxsize=None)
def nonlinear_sweep():
    fr = cubic_frame()
    spec = nonlinear_spec()
    out = []
    for eps in (1e-3, 2e-3, 4e-3):
        final, report = iterate(fr, spec, base_cfg(eps=eps))
        out.append((eps, final, report))
    return tuple(out)


def trivial_state(fr, cfg, **kw):
    return initial_state(fr, cfg, **kw)


def state_with(fr, cfg, x_dev=None, xs_col=None, xu_col=None,
               t_radii=(0.2, 1.0, 5.0), s_radii=(0.5, 2.0, 10.0, 50.0),
               u_radii=(0.5, 2.0, 10.0, 50.0)):
    """CorrectionState with prescribed nodal columns (slots 1 and 2)."""
    base = initial_state(fr, cfg)
    n_nodes = base.xs.n
    xg = base.X.xhat
    if x_dev is not None:
        xg = xg.with_values(np.full((n_nodes, 1), float(x_dev)))
    xs_vals = np.zeros((n_nodes, 3))
    if xs_col is not None:
        xs_vals[:, 1] = xs_col
    xu_vals = np.zeros((n_nodes, 3))
    if xu_col is not None:
        xu_vals[:, 2] = xu_col
    return CorrectionState(
        X=ScalarField(xg, BallRadii(t_radii)),
        xs=base.xs.with_values(xs_vals),
        xu=base.xu.with_values(xu_vals),
        s_ball=BallRadii(s_radii), u_ball=BallRadii(u_radii))


def random_pair(fr, cfg, seed, amp=0.01):
    """Two random states inside a shared small declared ball."""
    rng = np.random.default_rng(seed)
    nodes = initial_state(fr, cfg).xs.nodes

    def field():
        vals = np.zeros(nodes.size)
        for w in (0.13, 0.29, 0.57):
            vals += rng.uniform(-1.0, 1.0) * np.sin(
                w * nodes + rng.uniform(0.0, 2.0 * np.pi))
        top = np.abs(vals).max()
        return amp * vals / (top if top > 0 else 1.0)

    radii = dict(t_radii=(2.0 * amp, 0.5, 2.0),
                 s_radii=(2.0 * amp, 0.5, 2.0, 10.0),
                 u_radii=(2.0 * amp, 0.5, 2.0, 10.0))
    v = state_with(fr, cfg, x_dev=None, xs_col=field(), xu_col=field(),
                   **radii)
    v = CorrectionState(
        X=ScalarField(v.X.xhat.with_values(field()[:, None]), v.X.ball),
        xs=v.xs, xu=v.xu, s_ball=v.s_ball, u_ball=v.u_ball)
    w = state_with(fr, cfg, x_dev=None, xs_col=field(), xu_col=field(),
                   **radii)
    w = CorrectionState(
        X=ScalarField(w.X.xhat.with_values(field()[:, None]), w.X.ball),
        xs=w.xs, xu=w.xu, s_ball=w.s_ball, u_ball=w.u_ball)
    return v, w


class TestConfigAndGeometry:
    def test_weight_rate_must_stay_below_hyperbolicity(self):
        fr = lin_frame()
        cfg = OperatorConfig(eta=WeightParam(1.0), window=24.0, eps=0.0)
        with pytest.raises(ValueError, match="must stay below"):
            resolve_geometry(cfg, fr, 0.0, 0.0)

    def test_quadrature_must_divide_grid_step(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0, quadrature=0.07)
        with pytest.raises(ValueError, match="must divide"):
            resolve_geometry(cfg, fr, 0.0, 0.0)

    def test_window_must_hold_whole_cells(self):
        fr = lin_frame()
        cfg = OperatorConfig(eta=WeightParam(0.25), window=24.03, eps=0.0,
                             delta=0.1)
        with pytest.raises(ValueError, match="integer number of grid cells"):
            resolve_geometry(cfg, fr, 0.0, 0.0)

    def test_explicit_truncation_too_short(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0, t_int=5.0)
        with pytest.raises(ValueError, match="truncation window too short"):
            resolve_geometry(cfg, fr, 0.0, 0.0)

    def test_margins_can_eat_the_core(self):
        fr = lin_frame()
        cfg = OperatorConfig(eta=WeightParam(0.25), window=22.0, eps=0.0,
                             delta=0.1, tol_eta=1e-8)
        with pytest.raises(ValueError, match="leaves no core"):
            resolve_geometry(cfg, fr, 1.0, 0.2)

    def test_derived_truncation_respects_the_tail_rule(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        geo = resolve_geometry(cfg, fr, 1.0, 0.2)
        assert math.exp(-1.0 * geo.t_int) * cfg.integrand_bound \
            < cfg.tol_eta / 10.0
        # snapped to a whole number of quadrature cells
        assert abs(geo.t_int / geo.quad - round(geo.t_int / geo.quad)) < 1e-9
        assert geo.margin == pytest.approx(geo.t_int + 1.2)
        assert geo.lo == -geo.hi

    def test_config_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=-1.0)
        with pytest.raises(ValueError, match="quadrature step"):
            OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0,
                           delta=0.1, quadrature=0.2)
        with pytest.raises(ValueError, match="tol_eta"):
            OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0,
                           tol_eta=0.0)

    def test_config_coerces_plain_eta(self):
        cfg = OperatorConfig(eta=0.25, window=8.0, eps=0.0)
        assert isinstance(cfg.eta, WeightParam)
        assert cfg.eta.eta == 0.25


class TestStateBasics:
    def test_initial_state_is_the_identity_triple(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        assert st.X.sup_deviation() == 0.0
        assert not st.xs.values.any()
        assert not st.xu.values.any()
        assert st.t_ball.c[0] == 0.2

    def test_state_grids_must_match(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        other = GridFunction(12.0, 0.1, np.zeros((241, 3)), extension="zero")
        with pytest.raises(ValueError, match="share window and step"):
            CorrectionState(X=st.X, xs=other, xu=st.xu,
                            s_ball=st.s_ball, u_ball=st.u_ball)

    def test_distance_components_names_and_zero(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        comps = distance_components(st, st, cfg.eta, 2.0)
        assert set(comps) == {"E_c", "E_s", "E_u", "DE_s", "DE_u"}
        assert all(v == 0.0 for v in comps.values())
        assert st.distance(st, cfg.eta) == 0.0

    def test_defect_meters_see_planted_violations(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = state_with(fr, cfg, xs_col=0.1)
        # slot 1 lies in the stable bundle: clean on both meters
        assert range_defect(fr, st) <= 1e-14
        assert center_defect(fr, st) <= 1e-14
        bad = st.xs.with_values(np.tile([0.05, 0.1, 0.0], (st.xs.n, 1)))
        dirty = CorrectionState(X=st.X, xs=bad, xu=st.xu,
                                s_ball=st.s_ball, u_ball=st.u_ball)
        assert range_defect(fr, dirty) == pytest.approx(0.05, abs=1e-12)
        assert center_defect(fr, dirty) == pytest.approx(0.05, abs=1e-12)


class TestTaylorRemainder:
    # k-point function: rows of xhat at the orbit times rho
    def test_zero_correction_gives_zero(self):
        fr = lin_frame()
        T = taylor_remainder(fr, np.zeros((2, 3)), np.array([0.3, -1.0]))
        assert T == pytest.approx(np.zeros((2, 3)), abs=0.0)

    def test_linear_model_has_no_remainder(self):
        fr = lin_frame()
        T = taylor_remainder(fr, np.array([[0.0, 0.4, -0.2]]),
                             np.array([1.7]))
        assert np.abs(T).max() < 1e-14

    def test_cubic_term_is_exact(self):
        fr = analytic_frame({"model": "saddle-cubic", "cubic": (1.0, 0.0)})
        T = taylor_remainder(fr, np.array([[0.0, 0.1, 0.0]]),
                             np.array([0.4]))[0]
        assert T[1] == pytest.approx(0.1 ** 3, abs=1e-15)
        assert T[0] == 0.0 and T[2] == 0.0

    def test_cross_check_agrees_on_the_cubic(self):
        fr = cubic_frame()
        xhat = np.array([[0.0, 0.2, -0.3], [0.0, -0.1, 0.05]])
        rho = np.array([0.0, 2.0])
        direct = taylor_remainder(fr, xhat, rho)
        checked = taylor_remainder(fr, xhat, rho, cross_check=True)
        assert checked == pytest.approx(direct, abs=0.0)

    def test_cross_check_catches_a_wrong_hessian(self):
        fr = cubic_frame()
        model = fr.model
        bad = types.SimpleNamespace(
            n=3, f_batch=model.f_batch, df_batch=model.df_batch,
            d2f_batch=lambda pts: 2.0 * model.d2f_batch(pts))
        with pytest.raises(ValueError, match="forms disagree"):
            taylor_remainder(types.SimpleNamespace(
                model=bad, orbit_batch=fr.orbit_batch),
                np.array([[0.0, 0.2, -0.3]]), np.array([0.0]),
                cross_check=True)

    def test_region_exit(self):
        model = builtin_model("lin-saddle")
        model.valid_radius = 0.05
        fr = AnalyticFrame(model, [1.0], [1.0])
        xhat = np.array([[0.0, 0.01, 0.0], [0.0, 0.1, 0.0]])
        with pytest.raises(ValueError, match="valid neighborhood"):
            taylor_remainder(fr, xhat, np.array([0.0, 1.0]))

    def test_region_guard_runs_inside_the_operator(self):
        model = builtin_model("lin-saddle")
        model.valid_radius = 0.05
        fr = AnalyticFrame(model, [1.0], [1.0])
        cfg = base_cfg(eps=0.0)
        st = state_with(fr, cfg, xs_col=0.1)
        with pytest.raises(ValueError, match="valid neighborhood"):
            gamma_step(fr, st, None, cfg)


def quadratic_at(fr, st, rho):
    return _quadratic_batch(fr, st, np.array([rho]))[0]


class TestQuadraticTerm:
    def test_identity_state_gives_zero(self):
        fr = cubic_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        assert np.abs(quadratic_at(fr, st, 0.9)).max() == 0.0

    def test_linear_model_with_identity_time_change(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = state_with(fr, cfg, xs_col=0.3, xu_col=-0.2)
        assert np.abs(quadratic_at(fr, st, 1.3)).max() < 1e-14

    def test_shrunk_time_change_scales_the_linear_part(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        c = 0.25
        st = state_with(fr, cfg, x_dev=-0.1, xs_col=c)
        B = quadratic_at(fr, st, 0.6)
        assert B == pytest.approx([0.0, 0.1 * (-1.0 * c), 0.0], abs=1e-12)


def varphi_at(fr, st, spec, rho, eps):
    flow = _state_flow(st, abs(rho) + spec.h + 2.0)
    return _varphi_batch(fr, st, spec, flow, np.array([rho]), eps)[0]


class TestPerturbTerm:
    def test_zero_spec(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)
        spec = ode_term(lambda t, y: np.zeros(3))
        out = varphi_at(fr, st, spec, 0.8, 1e-2)
        assert np.abs(out).max() == 0.0

    def test_identity_reparametrization_matches_direct_call(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)
        spec = nonlinear_spec()
        got = varphi_at(fr, st, spec, 0.7, 1e-2)
        seg = HistorySegment.from_callable(
            lambda u: fr.orbit(u), 0.7, spec.h,
            dfn=lambda u: fr.orbit_deriv(u))
        want = spec(0.7, seg, 1e-2)
        assert got == pytest.approx(want, abs=1e-10)

    def test_delayed_sine_substitution(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)
        a, omega = 1.0, 2.0
        out = varphi_at(fr, st, sine_delay_spec(a, omega), 2.0, 1e-2)
        assert out == pytest.approx([0.0, a * math.sin(omega * 1.0), 0.0],
                                    abs=1e-12)

    def test_lattice_in_one_call_matches_single_times(self):
        fr = cubic_frame()
        cfg = base_cfg(eps=1e-2)
        st = state_with(fr, cfg, x_dev=0.02, xs_col=0.05, xu_col=-0.03)
        spec = nonlinear_spec()
        vs = np.linspace(-3.0, 3.0, 13)
        flow = _state_flow(st, 6.0)
        batch = _varphi_batch(fr, st, spec, flow, vs, 1e-2)
        assert batch.shape == (13, 3)
        for i, v in enumerate(vs):
            one = _varphi_batch(fr, st, spec, flow, vs[i:i + 1], 1e-2)
            assert np.array_equal(batch[i], one[0])

    def test_non_finite_value_names_the_time(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)

        def g(t, x):
            return np.array([0.0, math.nan if t > 1.0 else 0.0, 0.0])

        vs = np.array([0.0, 0.5, 1.5, 2.0])
        flow = _state_flow(st, 4.0)
        with pytest.raises(NumericalError, match=r"t=1\.5 .*not finite"):
            _varphi_batch(fr, st, ode_term(g), flow, vs, 1e-2)
        with pytest.raises(NumericalError, match="not finite"):
            iterate(fr, ode_term(g), cfg)


class TestGammaCenter:
    def test_unperturbed_center_is_exactly_one(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        X = gamma_c(fr, initial_state(fr, cfg), None, cfg)
        assert X.sup_deviation() == 0.0

    def test_orthogonal_forcing_leaves_center_exact(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        X = gamma_c(fr, initial_state(fr, cfg), sine_delay_spec(1.0, 2.0),
                    cfg)
        assert X.sup_deviation() == 0.0

    def test_constant_axial_forcing_shifts_center_by_eps_b(self):
        fr = lin_frame()
        b1, eps = 0.7, 1e-2
        cfg = base_cfg(eps=eps)
        spec = ode_term(lambda t, y: np.array([b1, 0.0, 0.0]))
        X = gamma_c(fr, initial_state(fr, cfg), spec, cfg)
        vals = X.fast_value(X.xhat.nodes)
        assert vals == pytest.approx(np.full(vals.size, 1.0 + eps * b1),
                                     abs=1e-13)


class TestGammaBundles:
    def test_unperturbed_bundle_updates_vanish(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        assert not gamma_s(fr, st, None, cfg).values.any()
        assert not gamma_u(fr, st, None, cfg).values.any()

    def test_stable_convolution_matches_closed_form(self):
        fr = lin_frame()
        a, omega, eps = 1.0, 2.0, 1e-2
        cfg = base_cfg(eps=eps)
        gs = gamma_s(fr, initial_state(fr, cfg), sine_delay_spec(a, omega),
                     cfg)
        rho = np.linspace(-2.0, 2.0, 41)
        got = gs.eval(rho)
        assert np.abs(got[:, 1] - stable_response(rho, a, omega, eps)).max() \
            < 1e-8
        assert np.abs(got[:, [0, 2]]).max() < 1e-14

    def test_unstable_convolution_matches_mirrored_form(self):
        fr = lin_frame()
        a, omega, eps = 0.8, 1.0, 1e-2
        cfg = base_cfg(eps=eps)
        gu = gamma_u(fr, initial_state(fr, cfg),
                     sine_delay_spec(a, omega, slot=2), cfg)
        rho = np.linspace(-2.0, 2.0, 41)
        got = gu.eval(rho)
        assert np.abs(got[:, 2] - unstable_response(rho, a, omega, eps)).max() \
            < 1e-8
        assert np.abs(got[:, [0, 1]]).max() < 1e-14


class TestGammaStep:
    def test_unperturbed_step_is_the_identity(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        new, defects = gamma_step(fr, st, None, cfg)
        assert new.X.sup_deviation() == 0.0
        assert not new.xs.values.any() and not new.xu.values.any()
        assert defects["d_eta"] == 0.0

    def test_linear_scenario_lands_in_one_step(self):
        fr = lin_frame()
        a, omega, eps = 1.0, 2.0, 1e-2
        cfg = base_cfg(eps=eps)
        new, _ = gamma_step(fr, initial_state(fr, cfg),
                            sine_delay_spec(a, omega), cfg)
        rho = np.linspace(-2.0, 2.0, 21)
        assert np.abs(new.xs.eval(rho)[:, 1]
                      - stable_response(rho, a, omega, eps)).max() < 1e-8

    def test_step_reports_truncation_tails(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        _, defects = gamma_step(fr, initial_state(fr, cfg),
                                sine_delay_spec(1.0, 2.0), cfg)
        geo = resolve_geometry(cfg, fr, 1.0, 0.2)
        assert 0.0 < defects["tail_s"] < cfg.tol_eta / 10.0
        # the forcing lives in the stable slot, so the unstable
        # integrand (and its tail budget) is identically zero
        assert defects["tail_u"] == 0.0
        # the tail rule ties the budget to the measured integrand sup
        assert defects["tail_s"] < math.exp(-geo.t_int) * 1.0


class TestIterateLinear:
    def test_unperturbed_converges_immediately(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        final, report = iterate(fr, None, cfg)
        assert report.converged and report.iterations == 1
        assert report.distances[0] == 0.0
        assert final.X.sup_deviation() <= 1e-12
        assert np.abs(final.xs.values).max() <= 1e-12
        assert np.abs(final.xu.values).max() <= 1e-12
        assert report.e_eta == 0.0

    def test_fixed_point_matches_oracle_in_c0_and_c1(self):
        fr, spec, cfg, final, report = linear_run()
        a, omega, eps = 1.0, 2.0, 1e-2
        assert report.converged
        # the spec is exact on the whole window up to truncation edges
        rho = np.linspace(-23.0, 23.0, 461)
        err0 = np.abs(final.xs.eval(rho)[:, 1]
                      - stable_response(rho, a, omega, eps)).max()
        assert err0 < 1e-6
        d_oracle = eps * a * omega * (
            np.cos(omega * (rho - 1.0))
            + omega * np.sin(omega * (rho - 1.0))) / (1.0 + omega ** 2)
        err1 = np.abs(final.xs.derivative(1).eval(rho)[:, 1] - d_oracle).max()
        assert err1 < 1e-5
        assert final.X.sup_deviation() == 0.0
        assert np.abs(final.xu.values).max() < 1e-10

    def test_fixed_point_defects_stay_within_twice_tol(self):
        fr, spec, cfg, final, report = linear_run()
        for key in ("E_c", "E_s", "E_u", "DE_s", "DE_u"):
            assert report.defects[key] <= 2.0 * cfg.tol_eta

    def test_normalization_is_machine_true(self):
        fr, spec, cfg, final, report = linear_run()
        assert center_defect(fr, final) <= 1e-8
        assert range_defect(fr, final) <= 1e-8
        flow = solve_flow(final.X, 5.0)
        assert flow.phi.eval1(0.0) == 0.0

    def test_derivative_identity_on_the_fixed_point(self):
        fr, spec, cfg, final, report = linear_run()
        assert derivative_identity_defect(fr, final, spec, cfg) < 1e-6

    def test_residual_of_the_returned_trajectory(self):
        fr, spec, cfg, final, report = linear_run()
        probe = np.linspace(-2.0, 2.0, 81)
        assert residual_fde(fr, final, spec, cfg.eps, probe) < 1e-6

    def test_residual_detects_an_injected_bump(self):
        fr, spec, cfg, final, report = linear_run()
        bump = 1e-3 * np.exp(-final.xs.nodes ** 2)
        vals = final.xs.values.copy()
        vals[:, 1] += bump
        broken = CorrectionState(X=final.X, xs=final.xs.with_values(vals),
                                 xu=final.xu, s_ball=final.s_ball,
                                 u_ball=final.u_ball)
        probe = np.linspace(-2.0, 2.0, 81)
        assert residual_fde(fr, broken, spec, cfg.eps, probe) > 1e-4


class TestResidualValidation:
    def test_trivial_state_has_differentiation_noise_only(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        probe = np.linspace(-2.0, 2.0, 81)
        assert residual_fde(fr, st, None, 0.0, probe) < 1e-8

    def test_probe_grid_must_be_uniform(self):
        fr, spec, cfg, final, report = linear_run()
        probe = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        with pytest.raises(ValueError, match="uniform"):
            residual_fde(fr, final, spec, cfg.eps, probe)

    def test_probe_grid_must_be_long_enough(self):
        fr, spec, cfg, final, report = linear_run()
        with pytest.raises(ValueError, match="at least 9"):
            residual_fde(fr, final, spec, cfg.eps, np.linspace(0, 1, 5))


class TestIterateNonlinear:
    def test_converges_with_contraction_below_one(self):
        fr, spec, cfg, final, report = nonlinear_run()
        assert report.converged
        assert report.kappa_hat < 1.0
        assert report.iterations >= 2

    def test_distances_non_increasing_after_second_iteration(self):
        fr, spec, cfg, final, report = nonlinear_run()
        d = report.distances
        assert all(d[k + 1] <= d[k] for k in range(1, len(d) - 1))

    def test_fixed_point_defects_stay_within_twice_tol(self):
        fr, spec, cfg, final, report = nonlinear_run()
        for key in ("E_c", "E_s", "E_u", "DE_s", "DE_u"):
            assert report.defects[key] <= 2.0 * cfg.tol_eta

    def test_normalization_preserved_with_live_time_change(self):
        fr, spec, cfg, final, report = nonlinear_run()
        assert final.X.sup_deviation() > 1e-5  # the scenario moves X
        assert center_defect(fr, final) <= 1e-8
        assert range_defect(fr, final) <= 1e-8
        flow = solve_flow(final.X, 5.0)
        assert flow.phi.eval1(0.0) == 0.0

    def test_derivative_identity_on_the_fixed_point(self):
        fr, spec, cfg, final, report = nonlinear_run()
        assert derivative_identity_defect(fr, final, spec, cfg) < 1e-6

    def test_residual_of_the_returned_trajectory(self):
        fr, spec, cfg, final, report = nonlinear_run()
        probe = np.linspace(-2.0, 2.0, 81)
        assert residual_fde(fr, final, spec, cfg.eps, probe) < 1e-5

    def test_every_iterate_stayed_in_its_ball(self):
        fr, spec, cfg, final, report = nonlinear_run()
        assert report.ball_history
        for row in report.ball_history:
            assert all(entry["ok"] for entry in row.values())

    def test_correction_scales_linearly_in_eps(self):
        runs = nonlinear_sweep()
        eps = np.array([r[0] for r in runs])
        xhat = np.array([float(np.linalg.norm(
            r[1].xs.values + r[1].xu.values, axis=1).max()) for r in runs])
        xdev = np.array([r[1].X.sup_deviation() for r in runs])
        for seq in (xhat, xdev):
            assert seq[1] / seq[0] == pytest.approx(2.0, rel=0.05)
            assert seq[2] / seq[1] == pytest.approx(2.0, rel=0.05)
            slope, r2 = _loglog_fit(eps, seq)
            assert slope == pytest.approx(1.0, abs=0.05)
            assert r2 >= 0.999


def test_static_lattices_are_sampled_once_per_run(monkeypatch):
    # the sdd-tanh delay on the cubic saddle moves X, so every step
    # solves a flow and reads every lattice; their stencils must be
    # built once per run, not once per step
    from hypershadow import funcspace
    from hypershadow.invariance import _Lattices
    from hypershadow.perturbations import spec_from_descriptor

    fr = analytic_frame({"model": "saddle-cubic", "lambda_s": 1.0,
                         "lambda_u": 1.0, "cubic": (0.3, 0.2)})
    spec = spec_from_descriptor({"kind": "sdd-tanh", "parameters":
                                 {"h": 1.0, "c0": 0.5, "c1": 0.2}})
    cfg = base_cfg(eps=0.02)
    builds = []
    build = funcspace.GridSampler.__init__

    def counting(self, g, t):
        builds.append((g.geometry, np.array(t, dtype=float)))
        build(self, g, t)

    monkeypatch.setattr(funcspace.GridSampler, "__init__", counting)
    state, report = iterate(fr, spec, cfg)
    assert report.converged and report.iterations >= 4
    assert state.X.sup_deviation() > 1e-3
    lat = _Lattices(resolve_geometry(cfg, fr, spec.h, state.X.t0), cfg)
    for points in (lat.gauss[0], lat.half_cells, state.xs.nodes):
        geoms = [g for g, t in builds
                 if t.shape == points.shape and np.array_equal(t, points)]
        assert geoms and len(geoms) == len(set(geoms))
    # nor is any other query sampled twice on one geometry
    seen = {(g, t.tobytes()) for g, t in builds}
    assert len(seen) == len(builds)


def _loglog_fit(x, y):
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    ss_res = float(res[0]) if res.size else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


class TestIterateFailureModes:
    def test_divergence_is_reported_after_five_bad_ratios(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1.0, max_iters=12)
        spec = ode_term(lambda t, y: np.array([0.0, 1.0 + 3.0 * y[1], 0.0]),
                        lip_x=3.0)
        big = (1e9, 1e9, 1e9)
        with pytest.raises(DivergenceError, match="5 iterations"):
            iterate(fr, spec, cfg,
                    initial=initial_state(fr, cfg, t_radii=(0.5, 1e9, 1e9),
                                          s_radii=big + (1e9,),
                                          u_radii=big + (1e9,)))

    def test_ball_exit_names_the_component_and_level(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        spec = ode_term(lambda t, y: np.array([0.0, 1.0, 0.0]))
        tight = initial_state(fr, cfg, s_radii=(1e-6, 2.0, 10.0, 50.0))
        with pytest.raises(BallExitError) as err:
            iterate(fr, spec, cfg, initial=tight)
        assert err.value.component == "s"
        assert err.value.level == 0
        assert err.value.measured > err.value.limit

    def test_hitting_max_iters_reports_not_converged(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2, max_iters=1)
        final, report = iterate(fr, sine_delay_spec(1.0, 2.0), cfg)
        assert not report.converged
        assert report.iterations == 1


class TestAposteriori:
    def _report(self, e_eta, eta=0.25):
        return types.SimpleNamespace(
            e_eta=e_eta, eta=eta, t_radii=(0.2, 1.0, 5.0),
            s_radii=(0.5, 2.0, 10.0, 50.0), u_radii=(0.5, 2.0, 10.0, 50.0))

    def test_worked_example_level_zero(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0,
                             ell=1, interp_m=1.0)
        rows = aposteriori_bounds(self._report(1e-4), cfg, (-2.0, 2.0), 0.5)
        x0 = next(r for r in rows if r["component"] == "X" and r["j"] == 0)
        assert x0["exponent"] == 1.0
        assert x0["bound"] == pytest.approx(math.exp(0.5) * 2e-4, rel=1e-12)
        assert x0["semi_exponent"] == 1.0
        assert x0["semi_bound"] == pytest.approx(2e-4, rel=1e-12)

    def test_exponent_table_for_ell_one(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0,
                             ell=1)
        rows = aposteriori_bounds(self._report(1e-4), cfg, (-1.0, 1.0), 0.2)
        table = {(r["component"], r["j"]): r["exponent"] for r in rows}
        assert table[("X", 0)] == 1.0
        assert table[("X", 1)] == pytest.approx(0.5)
        assert table[("xs", 0)] == 1.0
        assert table[("xs", 1)] == pytest.approx(2.0 / 3.0)
        assert table[("xs", 2)] == pytest.approx(1.0 / 3.0)
        assert table[("xu", 2)] == pytest.approx(1.0 / 3.0)

    def test_zero_defect_gives_zero_bounds(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        for row in aposteriori_bounds(self._report(0.0), cfg, (-2.0, 2.0),
                                      0.5):
            assert row["bound"] == 0.0
            assert row["semi_bound"] == 0.0

    def test_semi_line_bounds_only_for_small_amplified_defect(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        rows = aposteriori_bounds(self._report(10.0), cfg, (-2.0, 2.0), 0.5)
        assert all(r["semi_bound"] is None for r in rows)

    def test_kappa_at_or_above_one_rejected(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        with pytest.raises(ValueError, match="below 1"):
            aposteriori_bounds(self._report(1e-4), cfg, (-2.0, 2.0), 1.0)

    def test_bounds_sandwich_the_true_error_on_the_oracle(self):
        fr, spec, cfg, final, report = linear_run()
        rows = aposteriori_bounds(report, cfg, (-2.0, 2.0), report.kappa_hat)
        # measure where the metric lives: at the nodes (between nodes the
        # representation adds its own interpolation term, budgeted by M)
        nodes = final.xs.nodes
        keep = np.abs(nodes) <= 2.0 + 1e-12
        truth0 = np.abs(final.xs.values[keep, 1]
                        - stable_response(nodes[keep], 1.0, 2.0, 1e-2)).max()
        d_oracle = 1e-2 * 2.0 * (np.cos(2.0 * (nodes[keep] - 1.0))
                                 + 2.0 * np.sin(2.0 * (nodes[keep] - 1.0))) \
            / 5.0
        truth1 = np.abs(final.xs.derivative(1).values[keep, 1]
                        - d_oracle).max()
        table = {(r["component"], r["j"]): r["bound"] for r in rows}
        assert truth0 <= table[("xs", 0)]
        assert truth1 <= table[("xs", 1)]
        assert np.abs(final.X.xhat.values).max() <= table[("X", 0)]


class TestPropagatedBounds:
    def test_hand_evaluated_stable_constant(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        radii = (BallRadii((0.1, 1.0, 5.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)))
        rep = propagated_bounds_report(fr, None, cfg, radii,
                                       f_norms=(1.0, 1.0, 1.0),
                                       varphi_sup=0.5)
        want = (0.1 * 1.0 * 0.2 + 0.5 * 1.0 * 0.2 ** 2) / 0.9
        assert rep.b_s0 == pytest.approx(want, abs=1e-12)
        assert rep.b_u0 == pytest.approx(want, abs=1e-12)
        assert rep.b_c0 == pytest.approx(0.04, abs=1e-12)
        assert rep.d_s0 == pytest.approx(0.5 / 0.9, abs=1e-12)
        assert all(rep.feasible.values())
        assert rep.eps_max == pytest.approx((0.1 - want) / (0.5 / 0.9),
                                            rel=1e-9)

    def test_zero_radii_leave_only_perturbation_terms(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        radii = (BallRadii((0.0, 1.0, 5.0)),
                 BallRadii((0.0, 1.0, 1.0, 1.0)),
                 BallRadii((0.0, 1.0, 1.0, 1.0)))
        rep = propagated_bounds_report(fr, None, cfg, radii,
                                       f_norms=(1.0, 1.0, 1.0),
                                       varphi_sup=0.5)
        assert rep.b_c0 == rep.b_s0 == rep.b_u0 == 0.0
        assert rep.d_s0 > 0.0
        assert rep.eps_max == 0.0  # any eps > 0 overflows a zero radius

    def test_infeasibility_is_flagged_not_raised(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        tiny = (BallRadii((1e-4, 1.0, 5.0)),
                BallRadii((1e-4, 1.0, 1.0, 1.0)),
                BallRadii((1e-4, 1.0, 1.0, 1.0)))
        rep = propagated_bounds_report(fr, None, cfg, tiny,
                                       f_norms=(1.0, 1.0, 1.0),
                                       varphi_sup=0.5)
        assert not any(rep.feasible.values())
        assert rep.eps_max < cfg.eps

    def test_measured_norms_are_used_when_not_given(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        radii = (BallRadii((0.1, 1.0, 5.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)))
        rep = propagated_bounds_report(fr, sine_delay_spec(1.0, 2.0), cfg,
                                       radii)
        # the straight-line orbit has |f| = 1, |Df| = 1, D2f = 0
        assert rep.norms["f_c0"] == pytest.approx(1.0, abs=1e-12)
        assert rep.norms["f_c1"] == pytest.approx(1.0, abs=1e-12)
        assert rep.norms["f_c2"] == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < rep.norms["varphi_sup"] <= 1.0


@pytest.mark.parametrize("frame", ["cubic", "floquet"])
def test_orbit_field_norms_match_per_sample_norms(frame):
    if frame == "cubic":
        fr = cubic_frame()
    else:
        fr = frame_from_descriptor({"mode": "floquet",
                                    "model": "planar-limit-cycle"})
    got = orbit_field_norms(fr, 6.0)
    ts = np.linspace(-6.0, 6.0, 201)
    pts = fr.orbit_batch(ts)
    n = fr.model.n
    Df = fr.model.df_batch(pts)
    D2 = fr.model.d2f_batch(pts)
    want = (float(np.linalg.norm(fr.model.f_batch(pts), axis=1).max()),
            max(float(np.linalg.norm(Df[k], 2)) for k in range(ts.size)),
            max(float(np.linalg.norm(D2[k].reshape(n, n * n), 2))
                for k in range(ts.size)))
    assert got == want
    if frame == "floquet":
        assert got[2] > 0.0


class TestContraction:
    def test_identical_states_probe_to_zero(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        v, _ = random_pair(fr, cfg, seed=7)
        probe = contraction_probe(fr, None, cfg, v, v)
        assert probe.distance_in == 0.0
        assert probe.distance_out == 0.0
        assert probe.measured == 0.0 and probe.ok

    def test_predicted_kappa_majorizes_measured_ratio(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        for seed in range(5):
            v, w = random_pair(fr, cfg, seed=100 + seed)
            probe = contraction_probe(fr, None, cfg, v, w)
            assert probe.predicted < 1.0
            assert probe.measured <= probe.predicted + 1e-12

    def test_probe_with_perturbation_on(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-3)
        spec = state_dependent_delay(
            lambda t, y: np.array([0.0, 0.1 * math.sin(y[0]), 0.0]),
            lambda t, y: -0.5, h=1.0, lip_q=0.2, lip_r=0.0, traj_c1=1.3)
        for seed in (3, 4):
            v, w = random_pair(fr, cfg, seed=seed)
            probe = contraction_probe(fr, spec, cfg, v, w)
            assert probe.measured <= probe.predicted + 1e-12

    def test_weight_rate_precondition_is_enforced(self):
        fr = lin_frame()
        cfg = OperatorConfig(eta=WeightParam(1.5), window=24.0, eps=0.0,
                             delta=0.1)
        v, w = random_pair(fr, base_cfg(eps=0.0), seed=1)
        with pytest.raises(ValueError, match="must stay below"):
            contraction_probe(fr, None, cfg, v, w)

    def test_quadratic_difference_probe_is_bounded(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        for seed in (11, 12, 13):
            v, w = random_pair(fr, cfg, seed=seed)
            lhs, rhs = b_difference_probe(fr, v, w, cfg.eta)
            assert lhs <= rhs + 1e-12

    def test_quadratic_probe_requires_shared_balls(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        v, _ = random_pair(fr, cfg, seed=2)
        other = initial_state(fr, cfg)
        with pytest.raises(ValueError, match="share the declared balls"):
            b_difference_probe(fr, v, other, cfg.eta)

    def test_perturbation_difference_probe_is_bounded(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        spec = state_dependent_delay(
            lambda t, y: np.array([0.0, 0.1 * math.sin(y[0]), 0.0]),
            lambda t, y: -0.5, h=1.0, lip_q=0.2, lip_r=0.0, traj_c1=1.3)
        for seed in (21, 22):
            v, w = random_pair(fr, cfg, seed=seed)
            lhs, rhs = varphi_difference_probe(fr, spec, v, w, cfg.eta)
            assert lhs <= rhs + 1e-12

    def test_predicted_constants_expose_their_parts(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-3)
        spec = sine_delay_spec(0.5, 1.0)
        consts = contraction_constants(fr, spec, cfg,
                                       BallRadii((0.1, 0.5, 2.0)),
                                       BallRadii((0.1, 0.5, 2.0, 10.0)),
                                       BallRadii((0.1, 0.5, 2.0, 10.0)))
        assert consts["d_B"] == pytest.approx(0.2, abs=1e-12)
        assert consts["c_B"] == pytest.approx(0.1, abs=1e-12)  # f_c2 = 0
        assert consts["c_phi"] > 0.0 and consts["d_phi"] > 0.0
        assert consts["e_phi"] > consts["c_phi"]  # q = 1 + t0 > 1
        assert set(consts["columns"]) == {"X", "xhat", "dxhat"}
        assert consts["kappa"] == max(consts["columns"].values())


class TestReports:
    def test_json_round_trip(self, tmp_path):
        fr, spec, cfg, final, report = linear_run()
        path = tmp_path / "report.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert data["converged"] is True
        assert data["iterations"] == report.iterations
        assert data["eta"] == 0.25
        assert data["kappa_hat"] == report.kappa_hat
        assert len(data["history"]) == report.iterations
        assert len(data["ball_history"]) == report.iterations

    def test_kappa_hat_is_the_worst_ratio(self):
        fr, spec, cfg, final, report = nonlinear_run()
        assert report.kappa_hat == max(report.ratios)
        assert len(report.ratios) == report.iterations - 1

    def test_residual_csv_layout(self, tmp_path):
        fr, spec, cfg, final, report = linear_run()
        path = tmp_path / "residuals.csv"
        write_residual_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,d_eta,kappa_hat,E_c,E_s,E_u"
        assert len(lines) == report.iterations + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == report.distances[0]
