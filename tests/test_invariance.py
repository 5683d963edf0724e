"""Invariance operator: pointwise terms, fixed-point driver, bounds, probes.

The closed-form scenarios live on the straight-line saddle orbit: a
delayed sine forcing in the stable (or unstable) slot has an explicit
exponential-kernel convolution as its exact response, and the linear
model makes one operator application land on it. Nonlinear coverage
uses the cubic saddle, where only the a-posteriori machinery can vouch
for the answer.
"""

import dataclasses
import functools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypershadow import funcspace, invariance
from hypershadow.flows import ScalarField, solve_flow
from hypershadow.funcspace import (BallRadii, GridFunction, GridSampler,
                                   WeightParam)
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
    _Run,
    _state_flow,
    _step_load,
    _taylor_split,
    _varphi_batch,
    aposteriori_bounds,
    b_difference_probe,
    contraction_constants,
    contraction_probe,
    distance_components,
    gamma_step,
    initial_state,
    iterate,
    orbit_field_norms,
    resolve_geometry,
    residual_fde,
    varphi_difference_probe,
    write_residual_csv,
)
from hypershadow.perturbations import (
    HistorySegment,
    ode_term,
    spec_from_descriptor,
    state_dependent_delay,
)

# the shipped "no perturbation" kind
ZERO = spec_from_descriptor({"kind": "zero"})


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


def off_bundle(fr, st):
    """max over nodes of |(I - Pi_sigma) xhat_sigma| for both bundles:
    the range constraint that gamma_step's final projection enforces."""
    nodes = st.xs.nodes
    return max(float(np.linalg.norm(
        g.values - fr.proj_apply(sigma, nodes, g.values), axis=1).max())
        for sigma, g in (("s", st.xs), ("u", st.xu)))


def centre_part(fr, st):
    """max over nodes of |Pi_c (xhat_s + xhat_u)|: the normalization."""
    total = st.xs.values + st.xu.values
    return float(np.linalg.norm(fr.proj_apply("c", st.xs.nodes, total),
                                axis=1).max())


def derivative_identity_defect(fr, st, spec, cfg):
    """sup over core nodes of |D xhat_sigma - Df(x0) xhat_sigma - load|,
    the larger of the two bundles.

    The fixed point solves the bundle differential equations, so its
    numerical derivative must match the right-hand side built from the
    operator's own load.
    """
    run = _Run(fr, spec, cfg, st.X.t0)
    nodes = run.nodes.table
    core = np.abs(nodes.times) <= run.geo.core_half + 1e-12
    g, Xv = _step_load(fr, st, spec, cfg, run)(run.nodes)
    scaled = g / Xv[:, None]
    worst = 0.0
    for sigma, grid in (("s", st.xs), ("u", st.xu)):
        rhs = (np.einsum("kij,kj->ki", nodes.df0, grid.values)
               + fr.proj_apply(sigma, nodes, scaled))
        lhs = grid.derivative(1).values
        worst = max(worst, float(
            np.linalg.norm((lhs - rhs)[core], axis=1).max()))
    return worst


def sine_delay_spec(a, omega, slot=1):
    # forcing a sin(omega y_0) read one unit in the past; on the
    # straight orbit y_0(t - 1) = t - 1 exactly, and the corrections
    # never touch slot 0, so the forcing is the same on every iterate
    def Q(t, y):
        out = np.zeros_like(y)
        out[:, slot] = a * np.sin(omega * y[:, 0])
        return out

    return state_dependent_delay(Q, lambda t, y: -1.0, h=1.0,
                                 lip_q=a * omega, lip_r=0.0, traj_c1=1.2)


def constant_forcing(*vec):
    """g(t, y) = vec on every row."""
    return lambda t, y: np.tile(vec, (len(t), 1))


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
        return np.column_stack([0.3 * np.sin(1.1 * y[:, 0]),
                                0.8 * np.sin(1.4 * y[:, 0]),
                                0.5 * np.cos(0.9 * y[:, 0])])

    def r(t, y):
        return -0.8 + 0.15 * np.sin(y[:, 1])

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

    def test_window_must_hold_whole_cells(self):
        fr = lin_frame()
        cfg = OperatorConfig(eta=WeightParam(0.25), window=24.03, eps=0.0,
                             delta=0.1)
        with pytest.raises(ValueError, match="integer number of grid cells"):
            resolve_geometry(cfg, fr, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.integers(400, 2000), offset=st.floats(-2e-6, 2e-6),
           delta=st.floats(0.05, 0.25))
    def test_resolve_accepts_exactly_the_grids_gridfunction_accepts(
            self, cells, offset, delta):
        # a run builds the correction grid on (window, delta) and the
        # half-cell grid on (window + t_int, delta / 2); resolve accepts a
        # window exactly when GridFunction accepts both, so no grid fails
        # once compute has started
        def builds(half_width, step):
            try:
                GridFunction.sample(np.zeros_like, half_width, step)
            except ValueError:
                return False
            return True

        def config(window):
            return OperatorConfig(eta=WeightParam(0.25), window=window,
                                  eps=0.0, delta=delta, tol_eta=1e-2)

        fr = lin_frame()
        window = (cells + offset) * delta / 2.0
        t_int = resolve_geometry(config(cells * delta / 2.0), fr, 0.0,
                                 0.0).t_int
        try:
            resolve_geometry(config(window), fr, 0.0, 0.0)
            accepted = True
        except ValueError as exc:
            assert "integer number of grid cells" in str(exc)
            accepted = False
        assert accepted == (builds(window, delta)
                            and builds(window + t_int, delta / 2.0))

    def test_truncation_rounding_is_guarded(self):
        # tol_eta puts the exact t_int 1e-11 past 100 quadrature steps of
        # 0.05: inside the rounding slack, so t_int rounds down to 5.0 and
        # the tail rule exp(-5) < tol_eta / 10 fails by a hair
        fr = lin_frame()
        cfg = base_cfg(eps=0.0, tol_eta=10.0 * math.exp(-(5.0 + 1e-11)))
        with pytest.raises(ValueError, match="rounds short of the tail rule"):
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
        assert math.exp(-1.0 * geo.t_int) < cfg.tol_eta / 10.0
        # the shortest whole number of half-cell quadrature steps
        assert geo.quad == cfg.delta / 2.0
        assert abs(geo.t_int / geo.quad - round(geo.t_int / geo.quad)) < 1e-9
        assert math.exp(-1.0 * (geo.t_int - geo.quad)) >= cfg.tol_eta / 10.0
        assert geo.margin == pytest.approx(geo.t_int + 1.2)

    def test_present_state_spec_keeps_the_whole_core(self):
        # h = 0 adds no history margin: window 24 minus t_int 20.8 leaves
        # 3.2, a whole number of cells of 0.2
        cfg = OperatorConfig(eta=WeightParam(0.25), window=24.0, eps=0.0,
                             delta=0.2, tol_eta=1e-8)
        geo = resolve_geometry(cfg, lin_frame(), ZERO.h, 0.2)
        assert ZERO.h == 0.0
        assert geo.t_int == pytest.approx(20.8)
        assert geo.core_half == pytest.approx(3.2)
        assert geo.margin == geo.t_int

    def test_config_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=-1.0)
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
        # slot 1 lies in the stable bundle: clean on both constraints
        assert off_bundle(fr, st) <= 1e-14
        assert centre_part(fr, st) <= 1e-14
        bad = st.xs.with_values(np.tile([0.05, 0.1, 0.0], (st.xs.n, 1)))
        dirty = CorrectionState(X=st.X, xs=bad, xu=st.xu,
                                s_ball=st.s_ball, u_ball=st.u_ball)
        assert off_bundle(fr, dirty) == pytest.approx(0.05, abs=1e-12)
        assert centre_part(fr, dirty) == pytest.approx(0.05, abs=1e-12)
        # the operator's final projection removes them again
        step, _ = gamma_step(fr, dirty, ZERO, cfg)
        assert off_bundle(fr, step) <= 1e-14
        assert centre_part(fr, step) <= 1e-14

    @pytest.mark.parametrize("grid", ["xhat_t", "xhat_s", "xhat_u"])
    def test_state_grids_must_extend_by_zero(self, grid):
        fr = lin_frame()
        st = initial_state(fr, base_cfg(eps=0.0))
        X, xs, xu = st.X.xhat, st.xs, st.xu
        if grid == "xhat_t":
            X = X.with_values(X.values, extension="linear")
        elif grid == "xhat_s":
            xs = xs.with_values(xs.values, extension="constant-hold")
        else:
            xu = xu.with_values(xu.values, extension="linear")
        with pytest.raises(ValueError, match=rf"^state grid {grid} must "
                                             rf"extend by zero, got "):
            CorrectionState(X=ScalarField(X, st.t_ball), xs=xs, xu=xu,
                            s_ball=st.s_ball, u_ball=st.u_ball)


def taylor_remainder(fr, xhat, rho):
    """T = f(x0 + xhat) - f(x0) - Df(x0) xhat at the orbit points x0(rho),
    as the operator's quadratic term splits it; (k, n) from (k, n)."""
    return _taylor_split(fr, fr.table(rho), np.asarray(xhat, dtype=float))[1]


def taylor_double_integral(fr, xhat, rho):
    """The same remainder as int_0^1 int_0^s D2f(x0 + r xhat) xhat^2 dr ds,
    20-point Gauss in each layer: a form independent of f itself."""
    xhat = np.asarray(xhat, dtype=float)
    x0 = fr.orbit_batch(rho)
    gx, gw = np.polynomial.legendre.leggauss(20)
    s, w = 0.5 * (gx + 1.0), 0.5 * gw
    acc = np.zeros_like(xhat)
    for si, wi in zip(s, w):
        for rj, wj in zip(s * si, w * si):
            H = fr.model.d2f_batch(x0 + rj * xhat)
            acc += (wi * wj) * np.einsum("kijl,kj,kl->ki", H, xhat, xhat)
    return acc


def taylor_forms_gap(fr, xhat, rho):
    """Gap of the two remainder forms relative to 1 + the direct one's
    size."""
    direct = taylor_remainder(fr, xhat, rho)
    gap = np.abs(taylor_double_integral(fr, xhat, rho) - direct).max()
    return float(gap) / (1.0 + float(np.abs(direct).max()))


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
        assert taylor_forms_gap(fr, xhat, np.array([0.0, 2.0])) <= 1e-8

    def test_cross_check_catches_a_wrong_hessian(self):
        fr = cubic_frame()
        model = fr.model
        bad = types.SimpleNamespace(
            n=3, f_batch=model.f_batch, df_batch=model.df_batch,
            d2f_batch=lambda pts: 2.0 * model.d2f_batch(pts))
        assert taylor_forms_gap(AnalyticFrame(bad, fr.rates_s, fr.rates_u,
                                              rotation=fr.Q),
                                np.array([[0.0, 0.2, -0.3]]),
                                np.array([0.0])) > 1e-8

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
            gamma_step(fr, st, ZERO, cfg)


def quadratic(fr, st, vs):
    """_quadratic_batch at the times vs, read by a sampler built here."""
    tab = fr.table(vs)
    return _quadratic_batch(fr, st, tab, GridSampler(st.xs, tab.times))


def varphi(fr, st, spec, flow, vs, eps):
    """_varphi_batch at the times vs, at the base times phi^{-1}(vs), or
    vs when X = 1, read here."""
    vs = np.asarray(vs, dtype=float)
    bases = vs if st.X.sup_deviation() == 0.0 else flow.phi_inv.eval1(vs)
    return _varphi_batch(fr, st, spec, flow, vs, bases, eps)


def quadratic_at(fr, st, rho):
    B, _ = quadratic(fr, st, np.array([rho]))
    return B[0]


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
        # the time change comes back with the term, read once
        _, X = quadratic(fr, st, np.array([0.6]))
        assert X == pytest.approx([0.9], abs=1e-15)


def varphi_at(fr, st, spec, rho, eps):
    flow = _state_flow(st, abs(rho) + spec.h + 2.0)
    return varphi(fr, st, spec, flow, np.array([rho]), eps)[0]


class TestPerturbTerm:
    def test_zero_spec(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)
        spec = ode_term(lambda t, y: np.zeros_like(y))
        out = varphi_at(fr, st, spec, 0.8, 1e-2)
        assert np.abs(out).max() == 0.0

    def test_identity_reparametrization_matches_direct_call(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)
        spec = nonlinear_spec()
        got = varphi_at(fr, st, spec, 0.7, 1e-2)
        seg = HistorySegment(0.7, spec.h, fr.orbit_batch,
                             fr.orbit_deriv_batch)
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
        batch = varphi(fr, st, spec, flow, vs, 1e-2)
        assert batch.shape == (13, 3)
        for i, v in enumerate(vs):
            one = varphi(fr, st, spec, flow, vs[i:i + 1], 1e-2)
            assert np.array_equal(batch[i], one[0])

    def test_non_finite_value_names_the_time(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        st = initial_state(fr, cfg)

        def g(t, x):
            out = np.zeros_like(x)
            out[:, 1] = np.where(t > 1.0, math.nan, 0.0)
            return out

        vs = np.array([0.0, 0.5, 1.5, 2.0])
        flow = _state_flow(st, 4.0)
        with pytest.raises(NumericalError, match=r"t=1\.5 .*not finite"):
            varphi(fr, st, ode_term(g), flow, vs, 1e-2)
        with pytest.raises(NumericalError, match="not finite"):
            iterate(fr, ode_term(g), cfg)


class TestGammaCenter:
    def test_unperturbed_center_is_exactly_one(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        X = gamma_step(fr, initial_state(fr, cfg), ZERO, cfg)[0].X
        assert X.sup_deviation() == 0.0

    def test_orthogonal_forcing_leaves_center_exact(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        X = gamma_step(fr, initial_state(fr, cfg), sine_delay_spec(1.0, 2.0),
                       cfg)[0].X
        assert X.sup_deviation() == 0.0

    def test_constant_axial_forcing_shifts_center_by_eps_b(self):
        fr = lin_frame()
        b1, eps = 0.7, 1e-2
        cfg = base_cfg(eps=eps)
        spec = ode_term(constant_forcing(b1, 0.0, 0.0))
        X = gamma_step(fr, initial_state(fr, cfg), spec, cfg)[0].X
        vals = X.fast_value(X.xhat.nodes)
        assert vals == pytest.approx(np.full(vals.size, 1.0 + eps * b1),
                                     abs=1e-13)


class TestGammaBundles:
    def test_unperturbed_bundle_updates_vanish(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        st = initial_state(fr, cfg)
        assert not gamma_step(fr, st, ZERO, cfg)[0].xs.values.any()
        assert not gamma_step(fr, st, ZERO, cfg)[0].xu.values.any()

    def test_stable_convolution_matches_closed_form(self):
        fr = lin_frame()
        a, omega, eps = 1.0, 2.0, 1e-2
        cfg = base_cfg(eps=eps)
        gs = gamma_step(fr, initial_state(fr, cfg), sine_delay_spec(a, omega),
                        cfg)[0].xs
        rho = np.linspace(-2.0, 2.0, 41)
        got = gs.eval(rho)
        assert np.abs(got[:, 1] - stable_response(rho, a, omega, eps)).max() \
            < 1e-8
        assert np.abs(got[:, [0, 2]]).max() < 1e-14

    def test_unstable_convolution_matches_mirrored_form(self):
        fr = lin_frame()
        a, omega, eps = 0.8, 1.0, 1e-2
        cfg = base_cfg(eps=eps)
        gu = gamma_step(fr, initial_state(fr, cfg),
                        sine_delay_spec(a, omega, slot=2), cfg)[0].xu
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
        new, defects = gamma_step(fr, st, ZERO, cfg)
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
        final, report = iterate(fr, ZERO, cfg)
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
        assert centre_part(fr, final) <= 1e-8
        assert off_bundle(fr, final) <= 1e-8
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
        assert residual_fde(fr, st, ZERO, 0.0, probe) < 1e-8

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
        assert centre_part(fr, final) <= 1e-8
        assert off_bundle(fr, final) <= 1e-8
        flow = solve_flow(final.X, 5.0)
        assert flow.phi.eval1(0.0) == 0.0

    def test_derivative_identity_on_the_fixed_point(self):
        fr, spec, cfg, final, report = nonlinear_run()
        assert derivative_identity_defect(fr, final, spec, cfg) < 1e-6

    def test_residual_of_the_returned_trajectory(self):
        fr, spec, cfg, final, report = nonlinear_run()
        probe = np.linspace(-2.0, 2.0, 81)
        assert residual_fde(fr, final, spec, cfg.eps, probe) < 1e-5

    def test_resumed_run_measures_kappa(self):
        # resuming from the fixed point converges in one iteration; the
        # extra application of the operator measures kappa, not 0
        fr, spec, cfg, final, report = nonlinear_run()
        _, resumed = iterate(fr, spec, cfg, initial=final)
        assert resumed.converged and resumed.iterations == 1
        assert resumed.ratios == ()
        assert resumed.kappa_hat == (resumed.defects["d_eta"]
                                     / resumed.distances[0])
        assert resumed.kappa_hat == pytest.approx(report.kappa_hat, rel=0.5)

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
    from hypershadow.invariance import _Run

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
    run = _Run(fr, spec, cfg, state.X.t0)
    for points in (run.nodes.times, run.gauss.times, run.half_cells.times):
        geoms = [g for g, t in builds
                 if t.shape == points.shape and np.array_equal(t, points)]
        assert geoms and len(geoms) == len(set(geoms))
    # nor is any other query sampled twice on one geometry
    seen = {(g, t.tobytes()) for g, t in builds}
    assert len(seen) == len(builds)


@pytest.mark.parametrize("max_iters", [2, 5])
def test_floquet_bases_are_built_once_per_lattice(max_iters, monkeypatch):
    # the orbit, its field and the adapted bases of the node and Gauss
    # lattices are tabulated once per run, whatever the iteration count
    fr = frame_from_descriptor({"mode": "floquet",
                                "model": "planar-limit-cycle"})
    spec = spec_from_descriptor({"kind": "ode-sin-forcing", "parameters":
                                 {"a": 0.45, "omega": 1.0, "n": 2,
                                  "axis": 1}})
    cfg = OperatorConfig(eta=WeightParam(0.25), window=12.0, eps=0.01,
                         delta=0.2, tol_eta=1e-6, max_iters=max_iters)
    calls = []
    basis = fr._basis
    monkeypatch.setattr(fr, "_basis",
                        lambda ts: calls.append(np.size(ts)) or basis(ts))
    _, report = iterate(fr, spec, cfg)
    assert report.iterations == min(max_iters, 3)
    assert len(calls) == 2


def _sdd_cubic():
    # the bench's sdd-cubic scenario: its delay moves X at every step
    fr = analytic_frame({"model": "saddle-cubic", "lambda_s": 1.0,
                         "lambda_u": 1.0, "cubic": (0.3, 0.2)})
    spec = spec_from_descriptor({"kind": "sdd-tanh", "parameters":
                                 {"h": 1.0, "c0": 0.5, "c1": 0.2}})
    return fr, spec, base_cfg(eps=0.02)


@pytest.mark.parametrize("max_iters", [2, 5])
def test_bundle_carries_are_composed_once_per_run(max_iters, monkeypatch):
    # each bundle's plan carries its weights to their nodes and its
    # nodes to their neighbours once; the steps only apply it
    fr, spec, cfg = _sdd_cubic()
    calls = []
    carry = fr._carry
    monkeypatch.setattr(fr, "_carry",
                        lambda *a: calls.append(a[0]) or carry(*a))
    _, report = iterate(fr, spec, dataclasses.replace(cfg,
                                                      max_iters=max_iters))
    assert report.iterations == max_iters
    assert sorted(calls) == ["s", "s", "u", "u"]


@pytest.mark.parametrize("frame", ["sdd-cubic", "floquet"])
def test_quadratic_term_is_evaluated_on_the_state_support(frame,
                                                          monkeypatch):
    from hypershadow.invariance import _Run, _step_load
    if frame == "sdd-cubic":
        fr, spec, cfg = _sdd_cubic()
    else:
        fr = frame_from_descriptor({"mode": "floquet",
                                    "model": "planar-limit-cycle"})
        spec = spec_from_descriptor({"kind": "ode-sin-forcing",
                                     "parameters": {"a": 0.45, "omega": 1.0,
                                                    "n": 2, "axis": 1}})
        cfg = OperatorConfig(eta=WeightParam(0.25), window=12.0, eps=0.01,
                             delta=0.2, tol_eta=1e-6)
    state, _ = iterate(fr, spec, dataclasses.replace(cfg, max_iters=3))
    sizes = []
    quadratic_batch = invariance._quadratic_batch
    monkeypatch.setattr(invariance, "_quadratic_batch",
                        lambda fr, st, vs, at: sizes.append(np.size(vs))
                        or quadratic_batch(fr, st, vs, at))
    # eps = 0 leaves the load its quadratic term alone
    quiet = dataclasses.replace(cfg, eps=0.0)

    def loads(st):
        run = _Run(fr, spec, quiet, st.X.t0)
        load = _step_load(fr, st, spec, quiet, run)
        # the node lattice lies within the state's reach: all its rows
        rows, _, _ = run.nodes.support(st.xs)
        assert (rows.start, rows.stop) == (0, st.xs.n)
        return load(run.nodes), load(run.gauss), run.gauss.table

    (g_n, X_n), (g_g, X_g), gauss = loads(state)
    T, delta = state.xs.half_width, state.xs.delta
    inside = int((np.abs(gauss.times) < T + delta).sum())
    assert sizes == [state.xs.n, inside] and inside < gauss.times.size
    if frame == "sdd-cubic":
        assert (state.xs.n, inside, gauss.times.size) == (481, 2892, 5370)
    for (g, X), vs in (((g_n, X_n), state.xs.nodes),
                       ((g_g, X_g), gauss.times)):
        B, Xv = quadratic(fr, state, vs)
        assert np.array_equal(g, B) and np.array_equal(X, Xv)

    # a grid with another extension would reach every point of the
    # lattice; it is not a state, so no load ever sees one
    with pytest.raises(ValueError, match="^state grid xhat_u must extend "
                                         "by zero, got extension 'linear'$"):
        dataclasses.replace(state, xu=state.xu.with_values(
            state.xu.values, extension="linear"))


# -- known results are not recomputed -------------------------------------


@pytest.mark.parametrize("x_dev", [None, 0.02])
def test_segment_derivative_is_built_only_when_read(monkeypatch, x_dev):
    fr = cubic_frame()
    cfg = base_cfg(eps=1e-2)
    st = state_with(fr, cfg, x_dev=x_dev, xs_col=0.05, xu_col=-0.03)
    flow = _state_flow(st, 6.0)
    ident = x_dev is None
    vs = np.linspace(-3.0, 3.0, 13)
    calls = []
    deriv = GridFunction.derivative
    monkeypatch.setattr(GridFunction, "derivative", lambda self, k=1:
                        calls.append(k) or deriv(self, k))
    sdd = spec_from_descriptor({"kind": "sdd-tanh", "parameters":
                                {"h": 1.0, "c0": 0.5, "c1": 0.2}})
    varphi(fr, st, sdd, flow, vs, 1e-2)
    assert calls == []

    # a neutral delay reads theta'(0); its values are those of a segment
    # whose derivative was built up front
    neutral = spec_from_descriptor({"kind": "neutral-linear", "parameters":
                                    {"h": 1.0, "c0": 0.3, "c1": 0.3}})
    got = varphi(fr, st, neutral, flow, vs, 1e-2)
    assert calls
    xh = st.xs + st.xu
    xh1 = deriv(st.xs, 1) + deriv(st.xu, 1)
    phi = (lambda a: a) if ident else flow.fast_phi
    bases = vs if ident else flow.phi_inv.eval1(vs)

    def theta(a):
        a = phi(a)
        return fr.orbit_batch(a) + xh.eval(a)

    def dtheta(a):
        a = phi(a)
        out = fr.orbit_deriv_batch(a) + xh1.eval(a)
        return out if ident else out * (1.0 + st.X.xhat.eval(a))

    want = neutral(bases, HistorySegment(bases, 1.0, theta, dtheta), 1e-2)
    assert np.array_equal(got, want)


def test_history_lookups_build_no_sampler_on_phi(monkeypatch):
    # on a moving time change the segments read phi at times that move
    # with every call; they go through the flow's cell table, so no
    # sampler is built on phi's grid, for the values or the derivative
    fr = cubic_frame()
    cfg = base_cfg(eps=1e-2)
    st = state_with(fr, cfg, x_dev=0.02, xs_col=0.05, xu_col=-0.03)
    flow = _state_flow(st, 6.0)
    assert flow.phi_inv.geometry != flow.phi.geometry
    builds = []
    build = funcspace.GridSampler.__init__
    monkeypatch.setattr(funcspace.GridSampler, "__init__",
                        lambda self, g, t: builds.append(g.geometry)
                        or build(self, g, t))
    neutral = spec_from_descriptor({"kind": "neutral-linear", "parameters":
                                    {"h": 1.0, "c0": 0.3, "c1": 0.3}})
    varphi(fr, st, neutral, flow, np.linspace(-3.0, 3.0, 13), 1e-2)
    assert st.xs.geometry in builds
    assert flow.phi.geometry not in builds


@pytest.mark.parametrize("x_dev", [None, 0.02])
def test_integrand_past_the_flow_window_is_rejected(x_dev):
    fr = lin_frame()
    cfg = base_cfg(eps=1e-2)
    st = state_with(fr, cfg, x_dev=x_dev)
    spec = sine_delay_spec(1.0, 2.0)
    flow = _state_flow(st, 4.0)
    assert flow.phi.half_width == pytest.approx(4.0)
    # bases are vs, or phi_inv(vs) ~ vs / 1.02: the segment around 2.9
    # fits the window, the one around 3.5 reaches 1 beyond 3.4
    varphi(fr, st, spec, flow, np.array([-2.9, 2.9]), 1e-2)
    with pytest.raises(ValueError,
                       match="integrand evaluation leaves the inflated flow "
                             "window"):
        varphi(fr, st, spec, flow, np.array([0.0, 3.5]), 1e-2)


def _counted_steps(monkeypatch):
    calls = []
    step = invariance.gamma_step
    monkeypatch.setattr(invariance, "gamma_step",
                        lambda *a: calls.append(1) or step(*a))
    return calls, step


def test_bit_for_bit_fixed_point_is_not_applied_again(monkeypatch):
    # on the linear saddle the second iterate reproduces its input bit
    # for bit, so its defects are those of the returned state
    fr = lin_frame()
    spec = spec_from_descriptor({"kind": "delayed-sin-forcing", "parameters":
                                 {"a": 1.0, "omega": 2.0, "h": 1.0,
                                  "lag": 1.0}})
    cfg = base_cfg(eps=1e-2)
    calls, step = _counted_steps(monkeypatch)
    state, report = iterate(fr, spec, cfg)
    assert report.converged and report.distances[-1] == 0.0
    assert len(calls) == report.iterations
    _, defects = step(fr, state, spec, cfg)
    assert defects == report.defects
    assert report.e_eta == (defects["d_eta"] + defects["tail_s"]
                            + defects["tail_u"])


def test_moving_fixed_point_is_applied_once_more(monkeypatch):
    fr = analytic_frame({"model": "saddle-cubic", "lambda_s": 1.0,
                         "lambda_u": 1.0, "cubic": (0.3, 0.2)})
    spec = spec_from_descriptor({"kind": "sdd-tanh", "parameters":
                                 {"h": 1.0, "c0": 0.5, "c1": 0.2}})
    cfg = base_cfg(eps=0.02)
    calls, step = _counted_steps(monkeypatch)
    state, report = iterate(fr, spec, cfg)
    assert report.converged and report.distances[-1] > 0.0
    assert len(calls) == report.iterations + 1
    assert step(fr, state, spec, cfg)[1] == report.defects


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

        def g(t, y):
            out = np.zeros_like(y)
            out[:, 1] = 1.0 + 3.0 * y[:, 1]
            return out

        spec = ode_term(g, lip_x=3.0)
        big = (1e9, 1e9, 1e9)
        with pytest.raises(DivergenceError, match="5 iterations"):
            iterate(fr, spec, cfg,
                    initial=initial_state(fr, cfg, t_radii=(0.5, 1e9, 1e9),
                                          s_radii=big + (1e9,),
                                          u_radii=big + (1e9,)))

    def test_ball_exit_names_the_component_and_level(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        spec = ode_term(constant_forcing(0.0, 1.0, 0.0))
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
    # radii of a state; the tests' cfg carries the weight eta = 0.25
    STATE = types.SimpleNamespace(
        t_ball=BallRadii((0.2, 1.0, 5.0)),
        s_ball=BallRadii((0.5, 2.0, 10.0, 50.0)),
        u_ball=BallRadii((0.5, 2.0, 10.0, 50.0)))

    def test_worked_example_level_zero(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        rows = aposteriori_bounds(1e-4, self.STATE, cfg, (-2.0, 2.0), 0.5)
        x0 = next(r for r in rows if r["component"] == "X" and r["j"] == 0)
        assert x0["exponent"] == 1.0
        assert x0["bound"] == pytest.approx(math.exp(0.5) * 2e-4, rel=1e-12)
        assert x0["semi_exponent"] == 1.0
        assert x0["semi_bound"] == pytest.approx(2e-4, rel=1e-12)

    def test_exponent_table_for_ell_one(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        rows = aposteriori_bounds(1e-4, self.STATE, cfg, (-1.0, 1.0), 0.2)
        table = {(r["component"], r["j"]): r["exponent"] for r in rows}
        assert table[("X", 0)] == 1.0
        assert table[("X", 1)] == pytest.approx(0.5)
        assert table[("xs", 0)] == 1.0
        assert table[("xs", 1)] == pytest.approx(2.0 / 3.0)
        assert table[("xs", 2)] == pytest.approx(1.0 / 3.0)
        assert table[("xu", 2)] == pytest.approx(1.0 / 3.0)

    def test_zero_defect_gives_zero_bounds(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        for row in aposteriori_bounds(0.0, self.STATE, cfg, (-2.0, 2.0),
                                      0.5):
            assert row["bound"] == 0.0
            assert row["semi_bound"] == 0.0

    def test_semi_line_bounds_only_for_small_amplified_defect(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        rows = aposteriori_bounds(10.0, self.STATE, cfg, (-2.0, 2.0), 0.5)
        assert all(r["semi_bound"] is None for r in rows)

    def test_kappa_at_or_above_one_rejected(self):
        cfg = OperatorConfig(eta=WeightParam(0.25), window=8.0, eps=0.0)
        with pytest.raises(ValueError, match="below 1"):
            aposteriori_bounds(1e-4, self.STATE, cfg, (-2.0, 2.0), 1.0)

    def test_bounds_sandwich_the_true_error_on_the_oracle(self):
        fr, spec, cfg, final, report = linear_run()
        rows = aposteriori_bounds(report.e_eta, final, cfg, (-2.0, 2.0),
                                  report.kappa_hat)
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


# field norms and perturbation sup given, as a record's ``norms`` entry
UNIT_NORMS = {"f_c0": 1.0, "f_c1": 1.0, "f_c2": 1.0, "f_c3": 0.0,
              "varphi_sup": 0.5}


class TestPropagatedBounds:
    def test_hand_evaluated_stable_constant(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        radii = (BallRadii((0.1, 1.0, 5.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)))
        rep = contraction_constants(fr, ZERO, cfg, radii, norms=UNIT_NORMS)
        want = (0.1 * 1.0 * 0.2 + 0.5 * 1.0 * 0.2 ** 2) / 0.9
        assert rep["b_s0"] == pytest.approx(want, abs=1e-12)
        assert rep["b_u0"] == pytest.approx(want, abs=1e-12)
        assert rep["b_c0"] == pytest.approx(0.04, abs=1e-12)
        assert rep["d_s0"] == pytest.approx(0.5 / 0.9, abs=1e-12)
        assert all(rep["feasible"].values())
        assert rep["eps_max"] == pytest.approx((0.1 - want) / (0.5 / 0.9),
                                               rel=1e-9)

    def test_zero_radii_leave_only_perturbation_terms(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        radii = (BallRadii((0.0, 1.0, 5.0)),
                 BallRadii((0.0, 1.0, 1.0, 1.0)),
                 BallRadii((0.0, 1.0, 1.0, 1.0)))
        rep = contraction_constants(fr, ZERO, cfg, radii, norms=UNIT_NORMS)
        assert rep["b_c0"] == rep["b_s0"] == rep["b_u0"] == 0.0
        assert rep["d_s0"] > 0.0
        assert rep["eps_max"] == 0.0  # any eps > 0 overflows a zero radius

    def test_infeasibility_is_flagged_not_raised(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        tiny = (BallRadii((1e-4, 1.0, 5.0)),
                BallRadii((1e-4, 1.0, 1.0, 1.0)),
                BallRadii((1e-4, 1.0, 1.0, 1.0)))
        rep = contraction_constants(fr, ZERO, cfg, tiny, norms=UNIT_NORMS)
        assert not any(rep["feasible"].values())
        assert rep["eps_max"] < cfg.eps

    def test_measured_norms_are_used_when_not_given(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-2)
        radii = (BallRadii((0.1, 1.0, 5.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)),
                 BallRadii((0.1, 1.0, 1.0, 1.0)))
        rep = contraction_constants(fr, sine_delay_spec(1.0, 2.0), cfg,
                                    radii)
        # the straight-line orbit has |f| = 1, |Df| = 1, D2f = D3f = 0
        assert rep["norms"]["f_c0"] == pytest.approx(1.0, abs=1e-12)
        assert rep["norms"]["f_c1"] == pytest.approx(1.0, abs=1e-12)
        assert rep["norms"]["f_c2"] == pytest.approx(0.0, abs=1e-12)
        assert rep["norms"]["f_c3"] == 0.0
        assert 0.0 < rep["norms"]["varphi_sup"] <= 1.0

    def test_one_record_samples_the_field_norms_once(self, monkeypatch):
        calls = []
        sample = invariance.orbit_field_norms

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(invariance, "orbit_field_norms", counted)
        fr = cubic_frame()
        cfg = base_cfg(eps=1e-2)
        rec = contraction_constants(fr, sine_delay_spec(1.0, 2.0), cfg,
                                    initial_state(fr, cfg).radii)
        assert len(calls) == 1
        assert {"b_c0", "feasible", "eps_max", "c_B", "d_B", "c_phi",
                "d_phi", "e_phi", "z", "g_sup", "columns",
                "kappa"} <= set(rec)
        # a record rebuilt from its own norms samples nothing
        again = contraction_constants(fr, sine_delay_spec(1.0, 2.0), cfg,
                                      initial_state(fr, cfg).radii,
                                      norms=rec["norms"])
        assert len(calls) == 1 and again == rec


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

    def d3(x):
        # forward differences of D2f along each axis, step 1
        here = fr.model.d2f_batch([x])[0].reshape(n, n * n)
        norms = [np.linalg.norm(
            fr.model.d2f_batch([x + e])[0].reshape(n, n * n) - here, 2)
            for e in np.eye(n)]
        return math.sqrt(sum(v * v for v in norms))

    want = (float(np.linalg.norm(fr.model.f_batch(pts), axis=1).max()),
            max(float(np.linalg.norm(Df[k], 2)) for k in range(ts.size)),
            max(float(np.linalg.norm(D2[k].reshape(n, n * n), 2))
                for k in range(ts.size)),
            max(d3(x) for x in pts))
    assert got[:3] == want[:3]
    assert got[3] == pytest.approx(want[3], rel=1e-14, abs=1e-14)
    if frame == "floquet":
        assert got[2] > 0.0
    # both models are cubic, so the differences are D3f itself
    assert got[3] == pytest.approx(
        {"cubic": 3.0, "floquet": math.sqrt(80.0)}[frame], rel=1e-12)


class TestContraction:
    def test_identical_states_probe_to_zero(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        v, _ = random_pair(fr, cfg, seed=7)
        probe = contraction_probe(fr, ZERO, cfg, v, v)
        assert probe.distance_in == 0.0
        assert probe.distance_out == 0.0
        assert probe.measured == 0.0 and probe.ok

    def test_predicted_kappa_majorizes_measured_ratio(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        for seed in range(5):
            v, w = random_pair(fr, cfg, seed=100 + seed)
            probe = contraction_probe(fr, ZERO, cfg, v, w)
            assert probe.predicted < 1.0
            assert probe.measured <= probe.predicted + 1e-12

    def test_probe_with_perturbation_on(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-3)
        spec = state_dependent_delay(
            lambda t, y: 0.1 * np.sin(y[:, :1]) * [0.0, 1.0, 0.0],
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
            contraction_probe(fr, ZERO, cfg, v, w)

    def test_quadratic_difference_probe_is_bounded(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        for seed in (11, 12, 13):
            v, w = random_pair(fr, cfg, seed=seed)
            lhs, rhs = b_difference_probe(fr, ZERO, cfg, v, w)
            assert lhs <= rhs + 1e-12

    def test_quadratic_probe_requires_shared_balls(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        v, _ = random_pair(fr, cfg, seed=2)
        other = initial_state(fr, cfg)
        with pytest.raises(ValueError, match="share the declared balls"):
            b_difference_probe(fr, ZERO, cfg, v, other)

    def test_perturbation_difference_probe_is_bounded(self):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        spec = state_dependent_delay(
            lambda t, y: 0.1 * np.sin(y[:, :1]) * [0.0, 1.0, 0.0],
            lambda t, y: -0.5, h=1.0, lip_q=0.2, lip_r=0.0, traj_c1=1.3)
        for seed in (21, 22):
            v, w = random_pair(fr, cfg, seed=seed)
            lhs, rhs = varphi_difference_probe(fr, spec, cfg, v, w)
            assert lhs <= rhs + 1e-12

    def test_predicted_constants_expose_their_parts(self):
        fr = lin_frame()
        cfg = base_cfg(eps=1e-3)
        spec = sine_delay_spec(0.5, 1.0)
        consts = contraction_constants(fr, spec, cfg,
                                       (BallRadii((0.1, 0.5, 2.0)),
                                        BallRadii((0.1, 0.5, 2.0, 10.0)),
                                        BallRadii((0.1, 0.5, 2.0, 10.0))))
        assert consts["d_B"] == pytest.approx(0.2, abs=1e-12)
        # f_c2 = f_c3 = 0
        assert consts["c_B"] == pytest.approx(0.1, abs=1e-12)
        assert consts["c_phi"] > 0.0 and consts["d_phi"] > 0.0
        assert consts["e_phi"] > consts["c_phi"]  # q = 1 + t0 > 1
        assert set(consts["columns"]) == {"X", "xhat", "dxhat"}
        assert consts["kappa"] == max(consts["columns"].values())

    def test_cubic_field_carries_the_third_derivative(self):
        # saddle-cubic (0.4, -0.3): D2f vanishes on the straight orbit,
        # D3f does not; c_B = f_c1 t0 + (s0 + u0) (f_c3 (s0 + u0) + f_c2)
        fr = cubic_frame()
        cfg = base_cfg(eps=0.0)
        radii = (BallRadii((0.1, 0.5, 2.0)),
                 BallRadii((0.1, 0.5, 2.0, 10.0)),
                 BallRadii((0.1, 0.5, 2.0, 10.0)))
        consts = contraction_constants(fr, ZERO, cfg, radii)
        norms = consts["norms"]
        assert norms["f_c2"] == 0.0
        assert norms["f_c3"] == pytest.approx(3.0, rel=1e-12)
        assert consts["c_B"] == pytest.approx(
            norms["f_c1"] * 0.1 + 0.2 ** 2 * 3.0, rel=1e-12)
        flat = contraction_constants(fr, ZERO, cfg, radii,
                                     norms={**norms, "f_c3": 0.0})
        assert consts["c_B"] - flat["c_B"] == pytest.approx(0.2 ** 2 * 3.0,
                                                             rel=1e-12)

    def test_probes_read_the_run_geometry(self, monkeypatch):
        fr = lin_frame()
        cfg = base_cfg(eps=0.0)
        spec = sine_delay_spec(0.5, 1.0)
        v, w = random_pair(fr, cfg, seed=5)
        geo = resolve_geometry(cfg, fr, spec.h, v.X.t0)
        reaches = []
        flow_of = invariance._state_flow

        def spy(state, half_width):
            reaches.append(half_width)
            return flow_of(state, half_width)

        monkeypatch.setattr(invariance, "_state_flow", spy)
        varphi_difference_probe(fr, spec, cfg, v, w)
        assert reaches == [geo.flow_half, geo.flow_half]
        cores = []
        norm = GridFunction.norm_razumikhin

        def spy_norm(self, weight, core_half=None):
            cores.append(core_half)
            return norm(self, weight, core_half)

        monkeypatch.setattr(GridFunction, "norm_razumikhin", spy_norm)
        varphi_difference_probe(fr, spec, cfg, v, w)
        contraction_probe(fr, spec, cfg, v, w)
        assert set(cores) == {geo.core_half}


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

    def test_non_finite_report_writes_no_file(self, tmp_path):
        # the strict JSON text is built before the file is opened
        report = dataclasses.replace(linear_run()[4], e_eta=math.nan)
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json(path)
        assert not path.exists()

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
