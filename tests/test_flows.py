"""Reparametrization flows: integration, inversion, distortion, composites."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from hypershadow import flows
from hypershadow.funcspace import BallRadii, GridFunction


def sine_field(amp, freq, T=6.0, delta=0.05):
    # amplitude amp and frequency freq give exact derivative-level radii
    ball = BallRadii((amp, amp * freq, amp * freq ** 2, amp * freq ** 3))
    return flows.ScalarField(GridFunction.sample(
        lambda t: amp * np.sin(freq * t), T, delta), ball)


def constant_field(c, T=4.0, delta=0.05):
    ball = BallRadii((abs(c - 1.0), 0.0))
    return flows.ScalarField(GridFunction.sample(
        lambda t: (c - 1.0) + 0.0 * t, T, delta), ball)


def random_field(seed, T=6.0, delta=0.05, cap=0.35):
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(0.05, cap / 2, size=2)
    w1, w2 = rng.uniform(0.3, 1.4, size=2)
    ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)

    def fn(t):
        return a1 * np.sin(w1 * t + ph1) + a2 * np.sin(w2 * t + ph2)

    ball = BallRadii((a1 + a2,
                      a1 * w1 + a2 * w2,
                      a1 * w1 ** 2 + a2 * w2 ** 2,
                      a1 * w1 ** 3 + a2 * w2 ** 3))
    return flows.ScalarField(GridFunction.sample(fn, T, delta), ball)


# -- solve_flow ---------------------------------------------------------

def test_identity_flow():
    fl = flows.solve_flow(flows.ScalarField.identity(4.0, 0.1), 4.0)
    assert fl.phi.eval1(0.0) == 0.0
    assert abs(fl.phi.eval1(1.7) - 1.7) <= 1e-12
    assert abs(fl.phi_inv.eval1(-2.3) + 2.3) <= 1e-12


def test_constant_flow():
    fl = flows.solve_flow(constant_field(1.25), 3.0)
    assert abs(fl.phi.eval1(2.0) - 2.5) <= 1e-10
    assert abs(fl.phi_inv.eval1(2.5) - 2.0) <= 1e-10
    assert abs(fl.phi_inv.eval1(-1.0) + 0.8) <= 1e-10


def test_inverse_against_adaptive_quadrature():
    # oracle: adaptive quadrature of 1/(1 + 0.1 sin)
    field = sine_field(0.1, 1.0, T=5.0)
    fl = flows.solve_flow(field, 5.0)
    for rho in (1.0, 2.5, -3.0):
        want = quad(lambda s: 1.0 / (1.0 + 0.1 * math.sin(s)), 0.0, rho,
                    epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(fl.phi_inv.eval1(rho) - want) <= 1e-9


def test_rejects_large_deviation():
    g = GridFunction(1.0, 0.1, np.full(21, 1.0))
    with pytest.raises(ValueError):
        flows.ScalarField(g, BallRadii((0.5, 0.0)))
    with pytest.raises(ValueError):
        flows.ScalarField(g, BallRadii((1.0, 0.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_deviation(bad):
    # NaN compares false against the sup bound, so it is checked first
    vals = np.zeros(21)
    vals[7] = bad
    g = GridFunction(1.0, 0.1, vals)
    with pytest.raises(ValueError,
                       match=f"X - 1 is not finite at node t = -0.3: {bad:g}"):
        flows.ScalarField(g, BallRadii((0.5, 0.0)))


def test_roundtrip_random_fields():
    for seed in range(8):
        field = random_field(seed)
        fl = flows.solve_flow(field, 6.0)
        assert fl.roundtrip_defect() <= 1e-9


def test_phi_zero_is_exact():
    fl = flows.solve_flow(random_field(3), 6.0)
    izero = (fl.phi.n - 1) // 2
    assert fl.phi.values[izero, 0] == 0.0
    assert fl.phi.nodes[izero] == 0.0


def test_phi_inverts_the_quadrature_inverse_exactly():
    # the Newton sweeps solve Phi(phi(t_i)) = t_i at every node, window
    # edges included, down to rounding
    for seed in (0, 28, 56, 99):
        field = random_field(seed)
        fl = flows.solve_flow(field, 6.0)
        Phi, X = flows._quadrature_inverse(field, fl.phi_inv,
                                           fl.phi.values[:, 0])
        assert np.abs(Phi - fl.phi.nodes).max() <= 1e-13, seed
        assert np.array_equal(X, field.fast_value(fl.phi.values[:, 0]))


@pytest.mark.parametrize("order", [3, 5, 7])
def test_fast_value_agrees_with_the_sampler(order):
    # the cell table evaluates the stencils GridSampler interpolates
    # with, so both agree to rounding inside, at nodes and at the window
    # edges; past the window both read the same taper, bit for bit
    rng = np.random.default_rng(order)
    for seed in range(12):
        src = random_field(seed, cap=0.35 if seed % 2 else 0.99)
        xhat = GridFunction(src.xhat.half_width, src.xhat.delta,
                            src.xhat.values, interp_order=order)
        field = flows.ScalarField(xhat, src.ball)
        T, d = xhat.half_width, xhat.delta
        t = np.concatenate([
            rng.uniform(-T, T, 400), xhat.nodes,
            [-T, T, np.nextafter(-T, 0.0), np.nextafter(T, 0.0),
             np.nextafter(-T, -1.0), np.nextafter(T, 1.0)],
            rng.uniform(T, T + 3.0 * d, 20), -rng.uniform(T, T + 3.0 * d, 20)])
        want = 1.0 + xhat.eval1(t)
        got = field.fast_value(t)
        assert got.shape == t.shape
        assert np.abs(got - want).max() <= 2e-15, seed
        beyond = np.abs(t) > T
        assert np.array_equal(got[beyond], want[beyond])
        for ti in t[::37]:
            one = field.fast_value(float(ti))
            assert isinstance(one, float)
            assert abs(one - (1.0 + xhat.eval1(float(ti)))) <= 2e-15


def test_solve_flow_work_counts(monkeypatch):
    # per solve: one field lookup for the cell quadrature points and one
    # per Newton sweep, and Newton stops at the first sweep at the floor,
    # so quadratic convergence from the interpolated start needs at most
    # 4 sweeps. Every lookup reads the field's cell table, so no sampler
    # is built on the field's grid.
    from hypershadow import funcspace

    lookups, sweeps, builds = [], [], []
    fast_value = flows.ScalarField.fast_value
    quadrature_inverse = flows._quadrature_inverse
    build = funcspace.GridSampler.__init__

    def counting_lookup(self, t):
        lookups.append(t)
        return fast_value(self, t)

    def counting_sweep(field, table, y):
        sweeps.append(y)
        return quadrature_inverse(field, table, y)

    def counting_build(self, g, t):
        builds.append(g.geometry)
        build(self, g, t)

    monkeypatch.setattr(flows.ScalarField, "fast_value", counting_lookup)
    monkeypatch.setattr(flows, "_quadrature_inverse", counting_sweep)
    monkeypatch.setattr(funcspace.GridSampler, "__init__", counting_build)
    for seed in range(100):
        field = random_field(seed)
        lookups.clear()
        sweeps.clear()
        builds.clear()
        flows.solve_flow(field, 6.0)
        assert 1 <= len(sweeps) <= 4, (seed, len(sweeps))
        assert len(lookups) == len(sweeps) + 1, seed
        assert builds.count(field.xhat.geometry) == 0, seed


def support_cells(field, fl):
    # Ks: the whole cells from 0 to one cell past the field's window,
    # beyond which X = 1, capped at the inverse table's half
    d = field.xhat.delta
    return min(flows.flow_cells(field.xhat.half_width + d, d),
               (fl.phi_inv.n - 1) // 2)


def test_newton_sweeps_only_the_nodes_above_the_floor(monkeypatch):
    # a node stops at its first measured residual at or below 1e-13, and
    # only nodes that phi maps into the support of X - 1 are swept, so
    # the sweeps read the field at fewer than 2.1 sweeps' worth of
    # points, 7 per node, after the one lookup of the cell quadrature's
    # 6 points per support cell; the residual of every node, window
    # edges included, is at the floor
    points = []
    fast_value = flows.ScalarField.fast_value

    def counting_lookup(self, t):
        points.append(np.size(t))
        return fast_value(self, t)

    monkeypatch.setattr(flows.ScalarField, "fast_value", counting_lookup)
    for seed in range(100):
        field = random_field(seed)
        points.clear()
        fl = flows.solve_flow(field, 6.0)
        assert points[0] == 6 * 2 * support_cells(field, fl), seed
        assert sum(points[1:]) <= 2.1 * 7 * fl.phi.n, (seed, sum(points))
        Phi, _ = flows._quadrature_inverse(field, fl.phi_inv,
                                           fl.phi.values[:, 0])
        assert np.abs(Phi - fl.phi.nodes).max() <= 1e-13, seed


def test_a_wide_window_translates_past_the_support():
    # operator runs solve on a window about 2.4 times the field's: past
    # the support X = 1 exactly, so there phi and phi_inv are
    # translations (to rounding of the window's nodes), and every node,
    # the translated tails included, inverts the quadrature inverse. A
    # field window of an odd number of half cells ends its taper half a
    # cell off the flow's nodes, so the support takes the next whole cell.
    for seed, T in itertools.product(range(100), (6.0, 5.975)):
        field = random_field(seed, T=T)
        fl = flows.solve_flow(field, 15.0)
        inv, t = fl.phi_inv, fl.phi.nodes
        S = inv.nodes[(inv.n - 1) // 2 + support_cells(field, fl)]
        y = fl.phi.values[:, 0]
        # the points of the support side: rho for phi_inv, phi(t) for phi
        for nodes, vals, at in ((inv.nodes, inv.values[:, 0], inv.nodes),
                                (t, y, y)):
            for tail in (at >= S, at <= -S):
                assert tail.sum() > 10, seed
                shift = vals[tail] - nodes[tail]
                assert np.ptp(shift) <= 1e-15 * inv.half_width, seed
        assert (field.fast_value(y[np.abs(y) >= S]) == 1.0).all(), seed
        Phi, _ = flows._quadrature_inverse(field, inv, y)
        assert np.abs(Phi - t).max() <= 1e-13, seed
        assert fl.roundtrip_defect() <= 1e-9, seed


@pytest.mark.parametrize("c", [0.3, -0.3, 0.6])
def test_a_support_past_the_inverse_window_sweeps_every_node(monkeypatch, c):
    # a ball radius t_0 = 0 below sup|xhat| = |c| sizes the inverse table
    # at the flow window, short of the support's one cell past the
    # field's window: X need not be 1 past the table, so no node is
    # translated and every node inverts the quadrature inverse, whose
    # end cells stretch to reach it
    points = []
    fast_value = flows.ScalarField.fast_value

    def counting_lookup(self, t):
        points.append(np.size(t))
        return fast_value(self, t)

    monkeypatch.setattr(flows.ScalarField, "fast_value", counting_lookup)
    field = flows.ScalarField(GridFunction.sample(
        lambda t: c + 0.0 * t, 6.0, 0.05), BallRadii((0.0, 0.0)))
    fl = flows.solve_flow(field, 6.0)
    assert fl.phi_inv.half_width < field.xhat.half_width + 0.05
    assert points[:2] == [6 * (fl.phi_inv.n - 1), 7 * fl.phi.n]
    Phi, _ = flows._quadrature_inverse(field, fl.phi_inv,
                                       fl.phi.values[:, 0])
    assert np.abs(Phi - fl.phi.nodes).max() <= 1e-13


def test_fast_phi_agrees_with_the_sampler():
    # the flow's cell table of phi reads what phi.eval1 reads, inside
    # the window and beyond it, where phi tapers to zero like every grid
    for seed in range(8):
        fl = flows.solve_flow(random_field(seed), 6.0)
        T = fl.phi.half_width
        t = np.concatenate([np.linspace(-T - 0.3, T + 0.3, 977),
                            fl.phi.nodes])
        assert np.abs(fl.fast_phi(t) - fl.phi.eval1(t)).max() <= 1e-14


def _inverse_by_solve_ivp(fields, ys):
    """t_k(y) = int_0^y ds / X_k(s) for fields sharing one grid.

    One solve_ivp run integrates all fields at once, their deviations
    stacked as the columns of one grid function. The taper to zero
    bends X at T and T + delta, so each side is integrated in pieces
    that end there.
    """
    g = fields[0].xhat
    stack = g.with_values(np.column_stack([f.xhat.values[:, 0]
                                           for f in fields]))
    T, d = g.half_width, g.delta
    out = np.zeros_like(ys)
    for side in (1.0, -1.0):
        u = side * ys
        edges = (0.0, T, T + d, max(float(u.max()), T + d) + d)
        start = np.zeros(len(fields))
        for a, b in zip(edges[:-1], edges[1:]):
            sol = solve_ivp(
                lambda s, v: side / (1.0 + stack.eval(side * s)), (a, b),
                start, method="DOP853", rtol=1e-12, atol=1e-15,
                dense_output=True)
            for k in range(len(fields)):
                sel = (u[k] > a) & (u[k] <= b)
                if sel.any():
                    out[k, sel] = sol.sol(u[k, sel])[k]
            start = sol.y[:, -1]
    return out


def test_phi_against_solve_ivp():
    # independent reference: the inverse equation dt/dy = 1/X(y) by an
    # adaptive Runge-Kutta run. phi_ref(t_i) - phi(t_i) equals
    # X(phi(t_i)) (t_i - t_ref(phi(t_i))) up to second order, and the
    # reference itself is good to about 1e-10 because X is only
    # piecewise smooth between grid nodes. The wide window, as operator
    # runs use, reaches far past the field's, where phi is a translation.
    fields = [random_field(seed) for seed in range(100)]
    for window in (6.0, 15.0):
        fls = [flows.solve_flow(f, window) for f in fields]
        ys = np.array([fl.phi.values[:, 0] for fl in fls])
        t_ref = _inverse_by_solve_ivp(fields, ys)
        X = np.array([f.fast_value(y) for f, y in zip(fields, ys)])
        err = X * np.abs(t_ref - fls[0].phi.nodes[None, :])
        assert err.max() <= 3e-10, (window, np.unravel_index(err.argmax(),
                                                             err.shape))


def test_flow_guard_failure_is_typed():
    # a phi table that is not increasing trips the guard with a
    # NumericalError subclass, which the CLI maps to exit code 4
    fl = flows.solve_flow(random_field(3), 6.0)
    bent = fl.phi.values[:, 0].copy()
    bent[-1] = bent[-3]
    with pytest.raises(flows.FlowGuardError, match="strictly increasing"):
        flows.Flow(fl.phi.with_values(bent), fl.phi_inv, fl.source)
    assert issubclass(flows.FlowGuardError, flows.NumericalError)


# -- distortion ---------------------------------------------------------

def distortion_slacks(fl):
    """Worst slack of the two-sided distortion bounds over all node pairs.

    phi must move a pair by between (1 - t_0) and (1 + t_0) times its
    separation, and phi_inv by the reciprocal factors. A slack is bound
    minus measured (measured minus bound for a lower bound), so a
    negative one beyond rounding is a violation.
    """
    t0 = fl.t0
    out = {}
    for name, g, lo, hi in (("phi", fl.phi, 1.0 - t0, 1.0 + t0),
                            ("inv", fl.phi_inv, 1.0 / (1.0 + t0),
                             1.0 / (1.0 - t0))):
        dx = np.abs(g.nodes[:, None] - g.nodes[None, :])
        dy = np.abs(g.values[:, 0][:, None] - g.values[:, 0][None, :])
        apart = dx != 0.0
        out[name + "_lower"] = float((dy - lo * dx)[apart].min())
        out[name + "_upper"] = float((hi * dx - dy)[apart].min())
    return out


def test_distortion_identity():
    # solve_flow returns a Flow only once its own checks pass
    slacks = distortion_slacks(flows.solve_flow(
        flows.ScalarField.identity(3.0, 0.1), 3.0))
    assert min(slacks.values()) >= -1e-8
    assert abs(slacks["phi_lower"]) <= 1e-10
    assert abs(slacks["phi_upper"]) <= 1e-10


def test_distortion_constant_extremal():
    # X = 1 + t0 makes the upper bound an equality
    slacks = distortion_slacks(flows.solve_flow(constant_field(1.3), 3.0))
    assert min(slacks.values()) >= -1e-8
    assert abs(slacks["phi_upper"]) <= 1e-9
    # slack of the lower bound is smallest at adjacent nodes: 2 t0 delta
    assert slacks["phi_lower"] == pytest.approx(0.6 * 0.05, abs=1e-9)


def test_distortion_sine():
    field = sine_field(0.3, 1.0, T=4.0)
    slacks = distortion_slacks(flows.solve_flow(field, 4.0))
    assert all(s > 0.0 for s in slacks.values()), slacks


# -- composites ---------------------------------------------------------

def composite(fl, rho):
    """s -> alpha(rho, s) = phi(phi_inv(rho) + s)."""
    return lambda s: fl.phi.eval1(fl.phi_inv.eval1(rho) + s)


def test_composite_identity():
    fl = flows.solve_flow(flows.ScalarField.identity(4.0, 0.1), 4.0)
    alpha = composite(fl, 2.0)
    assert abs(alpha(-0.5) - 1.5) <= 1e-10


def test_composite_constant():
    fl = flows.solve_flow(constant_field(1.25), 4.0)
    alpha = composite(fl, 1.0)
    # alpha(rho, s) = rho + c s for constant fields
    assert abs(alpha(0.8) - (1.0 + 1.25 * 0.8)) <= 1e-9


def test_composite_against_two_stage_oracle():
    # oracle: invert by quadrature + root finding, independent of the flow
    field = sine_field(0.1, 1.0, T=5.0)
    fl = flows.solve_flow(field, 6.0)
    alpha = composite(fl, 2.0)

    def inv(y):
        return quad(lambda s: 1.0 / (1.0 + 0.1 * math.sin(s)), 0.0, y,
                    epsabs=1e-13, epsrel=1e-13)[0]

    base = inv(2.0)
    target = base - 1.0
    want = brentq(lambda y: inv(y) - target, -8.0, 8.0, xtol=1e-12)
    assert abs(alpha(-1.0) - want) <= 1e-7


# -- difference bounds ---------------------------------------------------

def inverse_flow_gap(X, Y, eta):
    """(||phi_inv - psi_inv||_eta, its a-priori bound): the inverse flows
    solve_flow builds, compared on their common window, against
    ||X - Y||_eta times inverse_flow_factor at the larger radius t_0."""
    flX = flows.solve_flow(X, X.xhat.half_width)
    flY = flows.solve_flow(Y, Y.xhat.half_width)
    R = min(flX.phi_inv.half_width, flY.phi_inv.half_width)
    lhs = (flX.phi_inv.restrict(R) - flY.phi_inv.restrict(R)) \
        .norm_razumikhin(eta)
    rhs = (X.xhat - Y.xhat).norm_razumikhin(eta) \
        * flows.inverse_flow_factor(eta, max(X.t0, Y.t0))
    return lhs, rhs


def composite_gap(X, Y, h, eta, rho_count=41, s_count=21):
    """(weighted sup over rho of max_s |alpha(rho, s) - beta(rho, s)|,
    its bound z ||X - Y||_eta, z): the history maps of the two flows on a
    rho x s grid, z the composite_factor of the larger balls. Every
    composite stays inside the sampled field window, where the declared
    radii hold."""
    t0 = max(X.t0, Y.t0)
    t1 = max(X.ball.c[1], Y.ball.c[1])
    R_t = X.xhat.half_width / (1.0 + t0)
    R_rho = (1.0 - t0) * (R_t - h) - X.xhat.delta
    assert R_rho > 0.0, "field window too small for this history radius"
    rhos = np.linspace(-R_rho, R_rho, rho_count)
    ss = np.linspace(-h, h, s_count)

    def alpha(field):
        # phi(phi_inv(rho) + s) at every (rho, s) pair, rows by rho
        fl = flows.solve_flow(field, R_t)
        times = fl.phi_inv.eval1(rhos)[:, None] + ss[None, :]
        return fl.phi.eval1(times.ravel()).reshape(times.shape)

    gaps = np.abs(alpha(X) - alpha(Y)).max(axis=1)
    lhs = float((gaps * np.exp(-eta * np.abs(rhos))).max())
    z = flows.composite_factor(eta, t0, t1, h)
    return lhs, z * (X.xhat - Y.xhat).norm_razumikhin(eta), z


def test_flow_difference_identical():
    X = sine_field(0.2, 0.7)
    lhs, rhs = inverse_flow_gap(X, X, 0.5)
    assert lhs == 0.0 and rhs == 0.0


def test_flow_difference_constants():
    # closed form: phi_inv differ by |t|(1 - 1/1.1), weighted max at 1/eta
    X = constant_field(1.0, T=6.0)
    Y = constant_field(1.1, T=6.0)
    lhs, rhs = inverse_flow_gap(X, Y, 1.0)
    assert rhs == pytest.approx(0.1 / (1.0 - 0.1) ** 2, rel=1e-12)
    assert lhs <= rhs
    assert lhs == pytest.approx((1.0 - 1.0 / 1.1) / math.e, abs=1e-3)


def test_flow_difference_random_pairs():
    eta = 0.4
    for seed in range(10):
        X = random_field(2 * seed)
        Y = random_field(2 * seed + 1)
        lhs, rhs = inverse_flow_gap(X, Y, eta)
        assert lhs <= rhs + 1e-12


def test_composite_difference_random_pairs():
    eta = 0.4
    for seed in range(6):
        X = random_field(3 * seed + 11)
        Y = random_field(3 * seed + 12)
        lhs, rhs, z = composite_gap(X, Y, 1.0, eta, rho_count=21, s_count=11)
        assert z > 0.0
        assert lhs <= rhs + 1e-12
