"""Acceptance gate: one test per shipped claim, named by criterion.

Each criterion gets exactly one test function, so a verbose run prints
one pass/fail line per claim. The criteria pin concrete tolerances:

  1  unperturbed scenarios land on the trivial fixed point at once
  2  linear saddle responses match their closed forms to 1e-6
  3  an operator-independent residual accepts every converged state
  4  the contraction estimates majorize 100 random probes apiece
  5  flow distortion bounds hold, with equality for constant fields
  6  first-order response: C0 norms scale like eps across scenarios
  7  range and center normalizations hold at every accepted iterate
  8  implicit light-cone delays solve to 1e-12 and expand at order 3
  9  a-posteriori bounds sandwich the true error without vacuity
  10 the propagated-ball constants reproduce a hand computation and
     admit the radii the iterations actually used

Expensive converged states are cached at module scope and shared
between criteria, so the whole gate stays around a minute.
"""

import functools
import time

import numpy as np

from hypershadow.electrodynamics import (DelayField, Trajectory,
                                         expansion_order_sweep)
from hypershadow.flows import ScalarField, solve_flow
from hypershadow.funcspace import BallRadii, GridFunction
from hypershadow.hyperbolic import (FloquetFrame, analytic_frame,
                                    builtin_model, unit_circle_orbit)
from hypershadow.invariance import (CorrectionState, OperatorConfig,
                                    aposteriori_bounds,
                                    contraction_constants, gamma_step,
                                    initial_state, iterate, residual_fde)
from hypershadow.perturbations import (HistorySegment, small_delay_q,
                                       neutral_delay, spec_from_descriptor,
                                       state_dependent_delay)
from test_flows import composite_gap, distortion_slacks, inverse_flow_gap
from test_invariance import quadratic_gap, varphi_gap

# the shipped "no perturbation" kind; it reads its dimension off the
# state, so it fits every frame
ZERO = spec_from_descriptor({"kind": "zero"}, builtin_model("lin-saddle"))
EPS_SWEEP = (4e-3, 2e-3, 1e-3)
PROBE = np.linspace(-2.0, 2.0, 81)


# -- frames and configurations -------------------------------------------

def lin_frame():
    return analytic_frame({"model": "lin-saddle",
                           "lambda_s": 1.0, "lambda_u": 1.0})


def cubic_frame():
    return analytic_frame({"model": "saddle-cubic", "lambda_s": 1.0,
                           "lambda_u": 1.0, "cubic": (0.4, -0.3)})


@functools.lru_cache(maxsize=None)
def cycle_frame():
    orbit, period = unit_circle_orbit(delta=0.02)
    return FloquetFrame(builtin_model("planar-limit-cycle"), orbit, period)


def base_cfg(eps, delta=0.1, tol_eta=1e-8, window=24.0, **kw):
    return OperatorConfig(eta=0.25, window=window, eps=eps,
                          delta=delta, tol_eta=tol_eta, **kw)


def cycle_cfg(eps):
    # lam_s = 2 on the cycle, so a 12-window still leaves a usable core
    return OperatorConfig(eta=0.25, window=12.0, eps=eps,
                          delta=0.2, tol_eta=1e-6)


# -- perturbations ---------------------------------------------------------

def sine_delay_spec(a, omega):
    # reads a sin(omega y_0) one unit in the past: the forcing
    # (0, eps a sin(omega(t-1)), 0) on the straight saddle orbit
    def Q(t, y):
        out = np.zeros_like(y)
        out[:, 1] = a * np.sin(omega * y[:, 0])
        return out

    return state_dependent_delay(Q, lambda t, y: -1.0, h=1.0,
                                 lip_q=a * omega, lip_r=0.0, traj_c1=1.2)


def stable_response(rho, a, omega, eps):
    arg = omega * (np.asarray(rho, dtype=float) - 1.0)
    return eps * a * (np.sin(arg) - omega * np.cos(arg)) / (1.0 + omega ** 2)


def stable_response_d1(rho, a, omega, eps):
    arg = omega * (np.asarray(rho, dtype=float) - 1.0)
    return eps * a * omega * (np.cos(arg) + omega * np.sin(arg)) \
        / (1.0 + omega ** 2)


def sdd_spec():
    # every slot forced, and the delay genuinely reads the state
    def Q(t, y):
        return np.column_stack([0.3 * np.sin(1.1 * y[:, 0]),
                                0.8 * np.sin(1.4 * y[:, 0]),
                                0.5 * np.cos(0.9 * y[:, 0])])

    def r(t, y):
        return -0.8 + 0.15 * np.sin(y[:, 1])

    return state_dependent_delay(Q, r, h=1.0, r_bound=0.95,
                                 lip_q=0.8 * 1.4, lip_r=0.15, traj_c1=1.3)


def neutral_spec():
    # derivative of the state read at a state-dependent lag
    def Q(t, v):
        return np.column_stack([0.0 * t, 0.7 * np.sin(1.1 * t) * v[:, 0],
                                0.4 * np.cos(0.8 * t) * v[:, 0]])

    def r(t, y):
        return -0.6 + 0.15 * np.sin(y[:, 1])

    return neutral_delay(Q, r, h=1.0, r_bound=0.75, lip_q=0.7, lip_r=0.15,
                         traj_c1=1.3)


def small_delay_spec():
    return spec_from_descriptor(
        {"kind": "small-delay", "parameters": {"tau": 1.0, "h": 1.0}},
        cycle_frame().model)


# -- cached converged runs -------------------------------------------------

@functools.lru_cache(maxsize=None)
def oracle_run(a, omega):
    fr = lin_frame()
    cfg = base_cfg(eps=1e-2, delta=0.05)
    t0 = time.perf_counter()
    final, report = iterate(fr, sine_delay_spec(a, omega), cfg)
    return fr, cfg, final, report, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def sandwich_run(a, omega):
    # tol 1e-9 puts the defect level where the j = 0 bound is tight
    # enough to be non-vacuous while the j = 1 bound still majorizes
    # the grid's own interpolation error
    fr = lin_frame()
    cfg = base_cfg(eps=1e-2, window=27.0, tol_eta=1e-9)
    final, report = iterate(fr, sine_delay_spec(a, omega), cfg)
    return fr, cfg, final, report

@functools.lru_cache(maxsize=None)
def sdd_run(eps):
    fr = cubic_frame()
    final, report = iterate(fr, sdd_spec(), base_cfg(eps=eps))
    return fr, final, report


@functools.lru_cache(maxsize=None)
def neutral_run(eps):
    fr = lin_frame()
    final, report = iterate(fr, neutral_spec(), base_cfg(eps=eps))
    return fr, final, report


@functools.lru_cache(maxsize=None)
def cycle_run(eps):
    fr = cycle_frame()
    final, report = iterate(fr, small_delay_spec(), cycle_cfg(eps))
    return fr, final, report


def core_c0_norm(state, report):
    return (state.xs + state.xu).restrict(report.core_half).norm_ck(0)


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# -- seeded probe material -------------------------------------------------

def random_field(seed, T=6.0, delta=0.05, cap=0.35):
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(0.05, cap / 2, size=2)
    w1, w2 = rng.uniform(0.3, 1.4, size=2)
    ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)

    def fn(t):
        return a1 * np.sin(w1 * t + ph1) + a2 * np.sin(w2 * t + ph2)

    ball = BallRadii((a1 + a2, a1 * w1 + a2 * w2,
                      a1 * w1 ** 2 + a2 * w2 ** 2,
                      a1 * w1 ** 3 + a2 * w2 ** 3))
    return ScalarField(GridFunction.sample(fn, T, delta),
                       ball)


def random_pair(fr, cfg, seed, amp=0.01):
    """Two random correction states inside a shared small ball."""
    rng = np.random.default_rng(seed)
    base = initial_state(fr, cfg)
    nodes = base.xs.nodes

    def column():
        vals = np.zeros(nodes.size)
        for w in (0.13, 0.29, 0.57):
            vals += rng.uniform(-1.0, 1.0) * np.sin(
                w * nodes + rng.uniform(0.0, 2.0 * np.pi))
        top = np.abs(vals).max()
        return amp * vals / (top if top > 0 else 1.0)

    def one():
        xs_vals = np.zeros((nodes.size, 3))
        xs_vals[:, 1] = column()
        xu_vals = np.zeros((nodes.size, 3))
        xu_vals[:, 2] = column()
        return CorrectionState(
            X=ScalarField(base.X.xhat.with_values(column()[:, None]),
                          BallRadii((2.0 * amp, 0.5, 2.0))),
            xs=base.xs.with_values(xs_vals),
            xu=base.xu.with_values(xu_vals),
            s_ball=BallRadii((2.0 * amp, 0.5, 2.0, 10.0)),
            u_ball=BallRadii((2.0 * amp, 0.5, 2.0, 10.0)))

    return one(), one()


# -- the criteria ----------------------------------------------------------

def test_criterion_01_trivial_fixed_point():
    cases = (("lin-saddle", lin_frame(), base_cfg(eps=0.0)),
             ("saddle-cubic", cubic_frame(), base_cfg(eps=0.0)),
             ("limit-cycle", cycle_frame(), cycle_cfg(0.0)))
    for name, fr, cfg in cases:
        t0 = time.perf_counter()
        final, report = iterate(fr, ZERO, cfg)
        elapsed = time.perf_counter() - t0
        assert report.converged, name
        assert report.iterations <= 2, name
        assert report.distances[-1] <= 1e-12, name
        assert final.X.sup_deviation() <= 1e-12, name
        assert np.abs(final.xs.values).max() <= 1e-12, name
        assert np.abs(final.xu.values).max() <= 1e-12, name
        assert elapsed < 1.0, (name, elapsed)


def test_criterion_02_linear_oracle_equivalence():
    for a in (0.5, 1.0):
        for omega in (1.0, 2.0):
            fr, cfg, final, report, elapsed = oracle_run(a, omega)
            assert report.converged, (a, omega)
            assert elapsed < 10.0, (a, omega, elapsed)
            core = report.core_half
            assert core >= 2.0
            rho = np.linspace(-core, core, 801)
            err = np.abs(final.xs.eval(rho)[:, 1]
                         - stable_response(rho, a, omega, 1e-2)).max()
            assert err <= 1e-6, (a, omega, err)


def test_criterion_03_independent_residual():
    for a in (0.5, 1.0):
        for omega in (1.0, 2.0):
            fr, cfg, final, report, _ = oracle_run(a, omega)
            res = residual_fde(fr, final, sine_delay_spec(a, omega),
                               1e-2, PROBE)
            assert res <= 1e-6, (a, omega, res)
    checks = ((sdd_run(4e-3), sdd_spec()),
              (neutral_run(4e-3), neutral_spec()),
              (cycle_run(4e-3), small_delay_spec()))
    for (fr, final, report), spec in checks:
        assert report.converged
        res = residual_fde(fr, final, spec, 4e-3, PROBE)
        assert res <= 1e-5, (spec.kind, res)


def test_criterion_04_contraction_lemmas():
    t_start = time.perf_counter()
    eta = 0.5
    slack = 1e-9

    # the inverse flows, within rounding of their bound
    violations = 0
    for seed in range(100):
        lhs, rhs = inverse_flow_gap(random_field(2 * seed),
                                    random_field(2 * seed + 1), eta)
        violations += lhs > rhs + 1e-12
    assert violations == 0

    for seed in range(100):
        lhs, rhs, z = composite_gap(
            random_field(3 * seed + 11), random_field(3 * seed + 12), 1.0, eta)
        assert z > 1.0
        violations += lhs > rhs + slack
    assert violations == 0

    fr = lin_frame()
    cfg = base_cfg(eps=0.0, delta=0.2)
    for seed in range(100):
        v, wst = random_pair(fr, cfg, seed=seed)
        lhs, rhs = quadratic_gap(fr, cfg, v, wst)
        violations += lhs > rhs + slack
    assert violations == 0

    spec = state_dependent_delay(
        lambda t, y: 0.1 * np.sin(y[:, :1]) * [0.0, 1.0, 0.0],
        lambda t, y: -0.5, h=1.0, lip_q=0.2, lip_r=0.0, traj_c1=1.3)
    for seed in range(100):
        v, wst = random_pair(fr, cfg, seed=1000 + seed)
        lhs, rhs = varphi_gap(fr, spec, cfg, v, wst)
        violations += lhs > rhs + slack
    assert violations == 0

    assert time.perf_counter() - t_start < 60.0


def test_criterion_05_flow_distortion():
    # each flow passes its own checks (solve_flow returns a Flow) and
    # the pairwise distortion bounds, up to 1e-8 of rounding
    for seed in range(100):
        fl = solve_flow(random_field(seed), 6.0)
        assert min(distortion_slacks(fl).values()) >= -1e-8, seed

    # constant fields sit exactly on one side of each two-sided bound
    for c, tight in ((1.3, ("phi_upper", "inv_lower")),
                     (0.7, ("phi_lower", "inv_upper"))):
        ball = BallRadii((abs(c - 1.0), 0.0))
        field = ScalarField(GridFunction.sample(
            lambda t: (c - 1.0) + 0.0 * t, 4.0, 0.05), ball)
        slacks = distortion_slacks(solve_flow(field, 3.0))
        assert min(slacks.values()) >= -1e-8
        for name in tight:
            assert abs(slacks[name]) <= 1e-9, (c, name)


def test_criterion_06_eps_scaling():
    for runner, label in ((sdd_run, "state-dependent"),
                          (neutral_run, "neutral"),
                          (cycle_run, "small-delay")):
        norms = []
        for eps in EPS_SWEEP:
            fr, final, report = runner(eps)
            assert report.converged, (label, eps)
            norms.append(core_c0_norm(final, report))
        slope = loglog_slope(EPS_SWEEP, norms)
        assert abs(slope - 1.0) <= 0.05, (label, slope)

    # the small-delay functional agrees with the difference quotient to
    # rounding and approaches its instantaneous limit at rate O(eps)
    model = builtin_model("planar-limit-cycle")
    spec = small_delay_q(model, [lambda t, seg: 1.0], h=0.5,
                         tau_bounds=[1.0], eps_max=0.2)

    seg = HistorySegment(
        0.3, 0.5, lambda u: np.column_stack([np.cos(u), np.sin(u)]),
        lambda u: np.column_stack([-np.sin(u), np.cos(u)]))
    limit = -model.df_batch(seg.eval(0.0))[0] @ seg.deriv(0.0)[0]
    gaps = []
    for eps in EPS_SWEEP:
        got = spec(0.0, seg, eps)
        quotient = (model.f_batch(seg.eval(-eps))[0]
                    - model.f_batch(seg.eval(0.0))[0]) / eps
        assert np.abs(got - quotient).max() <= 5e-13
        gaps.append(float(np.abs(got - limit).max()))
    slope = loglog_slope(EPS_SWEEP, gaps)
    assert abs(slope - 1.0) <= 0.05, slope


def test_criterion_07_normalizations():
    cases = ((lin_frame(), sine_delay_spec(1.0, 2.0), base_cfg(eps=1e-2), 4),
             (cubic_frame(), sdd_spec(), base_cfg(eps=1e-2), 5))
    moved = 0.0
    for fr, spec, cfg, steps in cases:
        state = initial_state(fr, cfg)
        for _ in range(steps):
            state, defects = gamma_step(fr, state, spec, cfg)
            # gamma_step's final projection keeps each bundle grid in
            # its bundle, so their sum has no center part
            nodes = state.xs.nodes
            for sigma, g in (("s", state.xs), ("u", state.xu)):
                off = g.values - fr.proj_apply(sigma, nodes, g.values)
                assert np.linalg.norm(off, axis=1).max() <= 1e-8
            centre = fr.proj_apply("c", nodes, state.xs.values
                                   + state.xu.values)
            assert np.linalg.norm(centre, axis=1).max() <= 1e-8
            phi0 = solve_flow(state.X, 5.0).phi.eval1(0.0)
            assert phi0 == 0.0
            moved = max(moved, state.X.sup_deviation())
    assert moved > 1e-5  # the check saw a genuinely moving time change


def test_criterion_08_electrodynamic_delays():
    t_start = time.perf_counter()
    eps = 0.05
    observer = Trajectory.static((0.0, 0.0, 0.0))
    cases = (("static", Trajectory.static((2.0, 0.0, 0.0))),
             ("uniform", Trajectory.uniform((2.0, 0.0, 0.0),
                                            (0.3, 0.0, 0.0))),
             ("circular", Trajectory.circular((0.0, 0.0, 0.0), 1.5, 0.7)))
    # window 4 keeps the drifting pair well separated at all times
    for name, charge in cases:
        field = DelayField.solve(observer, charge, eps, window=4.0,
                                 delta=0.1)
        assert field.tau_defect <= 1e-12, name
        assert field.sigma_defect <= 1e-12, name
        # re-measure the defining identity nodewise, independently of
        # the solver's own bookkeeping
        ts = field.tau.nodes
        taus = field.tau.values[:, 0]
        gap = np.abs(taus - eps * np.linalg.norm(
            observer.pos(ts) - charge.pos(ts - taus), axis=1)).max()
        assert gap <= 1e-12, name

    d, v = 2.0, 0.3
    tau = DelayField.solve(observer, Trajectory.uniform((d, 0.0, 0.0),
                                                        (v, 0.0, 0.0)), eps,
                           window=4.0, delta=0.1).tau
    want = eps * (d + v * tau.nodes) / (1.0 + eps * v)
    assert np.abs(tau.values[:, 0] - want).max() <= 1e-12

    drift = expansion_order_sweep(observer,
                                  Trajectory.uniform((2.0, 0.0, 0.0),
                                                     (0.2, 0.1, 0.0)),
                                  (1e-2, 5e-3, 2.5e-3))
    assert drift.passed and drift.slope >= 2.7
    orbiting = expansion_order_sweep(Trajectory.static((0.3, 0.2, 0.0)),
                                     Trajectory.circular((0.0, 0.0, 0.0),
                                                         1.5, 0.7),
                                     (1e-2, 5e-3, 2.5e-3))
    assert orbiting.passed and orbiting.slope >= 2.7
    assert time.perf_counter() - t_start < 10.0


def test_criterion_09_aposteriori_sandwich():
    for a in (0.5, 1.0):
        for omega in (1.0, 2.0):
            fr, cfg, final, report = sandwich_run(a, omega)
            assert report.converged, (a, omega)
            rows = aposteriori_bounds(report.e_eta, final, cfg, (-2.0, 2.0),
                                      report.kappa_hat)
            table = {(r["component"], r["j"]): r["bound"] for r in rows}
            # the metric lives at the nodes; between them the grid
            # representation adds its own budgeted interpolation term
            nodes = final.xs.nodes
            keep = np.abs(nodes) <= 2.0 + 1e-12
            truth0 = np.abs(final.xs.values[keep, 1]
                            - stable_response(nodes[keep], a, omega,
                                              1e-2)).max()
            truth1 = np.abs(final.xs.derivative(1).values[keep, 1]
                            - stable_response_d1(nodes[keep], a, omega,
                                                 1e-2)).max()
            for j, truth in ((0, truth0), (1, truth1)):
                bound = table[("xs", j)]
                assert truth <= bound, (a, omega, j)
                assert bound <= 1e4 * truth, (a, omega, j, bound / truth)


def test_criterion_10_propagated_bounds_feasibility():
    fr = lin_frame()
    cfg = base_cfg(eps=1e-2)
    radii = (BallRadii((0.1, 1.0, 5.0)),
             BallRadii((0.1, 1.0, 1.0, 1.0)),
             BallRadii((0.1, 1.0, 1.0, 1.0)))
    rep = contraction_constants(fr, ZERO, cfg, radii, norms={
        "f_c0": 1.0, "f_c1": 1.0, "f_c2": 1.0, "f_c3": 0.0,
        "varphi_sup": 0.5})
    want = (0.1 * 1.0 * 0.2 + 0.5 * 1.0 * 0.2 ** 2) / 0.9  # = 0.0444...
    assert abs(rep["b_s0"] - want) <= 1e-12
    assert abs(want - 0.044444444444444446) <= 1e-15

    # the same radii stay feasible under measured norms, with room for
    # the eps the converged runs actually used
    measured = contraction_constants(fr, sine_delay_spec(1.0, 2.0), cfg,
                                     radii)
    assert all(measured["feasible"].values())
    assert measured["eps_max"] >= 1e-2

    # and the iterations never left their declared balls, with level-0
    # occupancy far inside the feasible configuration above
    reports = [oracle_run(1.0, 2.0)[3], sdd_run(4e-3)[2],
               neutral_run(4e-3)[2], cycle_run(4e-3)[2]]
    for report in reports:
        assert report.ball_history
        for row in report.ball_history:
            for entry in row.values():
                assert entry["ok"]
                assert entry["measured"][0] <= 0.1
