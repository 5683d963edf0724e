"""Implicit delay solver and charge-system assembly.

Closed forms used throughout: a static pair at distance d has tau = eps*d
(fixed point of a constant map); for q_i = 0 and q_j = (d + v t, 0, 0)
the scalar equation tau = eps (d + v(t - tau)) gives

    tau(t) = eps (d + v t) / (1 + eps v),
    sigma(t) = eps (d + v t) / (1 - eps v),

and the gap to the two-term expansion is eps^3 v^2 (d + v t) / (1 +- eps v)
exactly. Circular motion about the observer keeps the distance constant,
so tau = eps * R with a vanishing radial velocity term.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypershadow import electrodynamics as ed
from hypershadow.flows import NumericalError
from hypershadow.funcspace import GridFunction
from hypershadow.perturbations import HistorySegment, functional_output_grid


def origin():
    return ed.Trajectory.static([0.0, 0.0, 0.0])


def drifting(d=2.0, v=0.3):
    return ed.Trajectory.uniform([d, 0.0, 0.0], [v, 0.0, 0.0])


def two_charge_system(eps=0.05, v=(0.2, 0.1, 0.0)):
    qa = origin()
    qb = ed.Trajectory.uniform([2.0, 0.0, 0.0], list(v))
    return ed.ChargeSystem([qa, qb], masses=[1.0, 2.0], charges=[1.0, -1.0],
                           epsilon=eps, xi1=0.5, xi2=0.5)


def stacked_state(sys):
    """t -> (q_1..q_N, dq_1..dq_N) of the system's own trajectories."""
    trs = sys.trajectories

    def y(t):
        t = np.asarray(t, dtype=float)
        return np.concatenate([tr.pos(t) for tr in trs]
                              + [tr.vel(t) for tr in trs], axis=-1)

    return y


def stacked_segment(sys, t, h=1.0):
    """History segment that follows the system's own trajectories."""
    return HistorySegment(t, h, stacked_state(sys))


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


class TestTrajectory:
    def test_builders_vectorize(self):
        ts = np.linspace(-1.0, 1.0, 7)
        for tr in (origin(), drifting(), ed.Trajectory.circular([1, 2, 0], 0.5, 0.9)):
            assert tr.pos(0.3).shape == (3,)
            assert tr.pos(ts).shape == (7, 3)
            assert tr.vel(ts).shape == (7, 3)

    def test_uniform_positions(self):
        tr = drifting(1.0, 0.25)
        assert np.allclose(tr.pos(2.0), [1.5, 0.0, 0.0])
        assert np.allclose(tr.vel(-3.0), [0.25, 0.0, 0.0])

    def test_circular_geometry(self):
        tr = ed.Trajectory.circular([0.5, -0.2, 1.0], 1.3, 0.7, phase=0.4)
        ts = np.linspace(-2.0, 2.0, 41)
        rel = tr.pos(ts) - np.array([0.5, -0.2, 1.0])
        assert np.allclose(np.linalg.norm(rel, axis=1), 1.3)
        # velocity tangent to the circle
        assert np.abs(np.sum(rel * tr.vel(ts), axis=1)).max() < 1e-12
        assert np.allclose(np.linalg.norm(tr.vel(ts), axis=1), 1.3 * 0.7)

    def test_reflected(self):
        tr = ed.Trajectory.circular([0.0, 0.0, 0.0], 1.0, 1.1)
        r = tr.reflected()
        ts = np.linspace(-1.5, 1.5, 11)
        assert np.allclose(r.pos(ts), tr.pos(-ts))
        assert np.allclose(r.vel(ts), -tr.vel(-ts))

    def test_shifted(self):
        tr = drifting().shifted([0.0, 1.0, 0.0])
        assert np.allclose(tr.pos(0.0), [2.0, 1.0, 0.0])
        assert np.allclose(tr.vel(0.0), [0.3, 0.0, 0.0])

    def test_from_grid(self):
        g = GridFunction.sample(
            lambda t: np.stack([np.sin(t), np.cos(t), 0.0 * t], axis=-1),
            4.0, 0.05)
        tr = ed.Trajectory.from_grid(g)
        assert np.allclose(tr.pos(0.7), [np.sin(0.7), np.cos(0.7), 0.0],
                           atol=1e-9)
        assert np.allclose(tr.vel(0.7), [np.cos(0.7), -np.sin(0.7), 0.0],
                           atol=1e-6)

    def test_from_callable_wraps_scalars(self):
        tr = ed.Trajectory.from_callable(
            lambda t: [t, t * t], lambda t: [1.0, 2.0 * t], 2)
        assert tr.pos(np.array([1.0, 2.0])).shape == (2, 2)
        assert np.allclose(tr.vel(2.0), [1.0, 4.0])

    def test_speed_sup(self):
        tr = ed.Trajectory.circular([0, 0, 0], 2.0, 0.5)
        assert abs(tr.speed_sup(-3.0, 3.0) - 1.0) < 1e-12

    def test_descriptor_roundtrip(self):
        for tr in (origin(), drifting(),
                   ed.Trajectory.circular([1, 0, 0], 0.4, 1.2, phase=0.1)):
            tr2 = ed.trajectory_from_descriptor(tr.descriptor())
            assert np.allclose(tr2.pos(0.37), tr.pos(0.37))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ed.trajectory_from_descriptor({"kind": "brachistochrone"})

    @pytest.mark.parametrize("build", [
        ed.Trajectory.static,
        lambda p: ed.Trajectory.uniform(p, [0.5, 0.0, -0.5]),
        lambda p: ed.Trajectory.circular(p, 0.4, 1.2),
    ], ids=["static", "uniform", "circular"])
    def test_scalar_time_results_are_fresh_arrays(self, build):
        # writing into a result must not move the charge, or leave its
        # descriptor describing another motion than the one solved
        point = np.array([1.0, 2.0, 3.0])
        tr = build(point)
        ts = np.array([0.0, 1.0])
        pos, vel, desc = tr.pos(ts), tr.vel(ts), tr.descriptor()
        tr.pos(0.0)[:] = 9.0
        tr.vel(0.0)[:] = 9.0
        point[:] = 7.0  # nor does the builder keep the caller's array
        assert np.array_equal(tr.pos(ts), pos)
        assert np.array_equal(tr.vel(ts), vel)
        rebuilt = ed.trajectory_from_descriptor(tr.descriptor())
        assert tr.descriptor() == desc
        assert np.array_equal(rebuilt.pos(ts), pos)


class TestChargeSystem:
    def test_validation(self):
        qa, qb = origin(), drifting()
        with pytest.raises(ValueError, match="masses"):
            ed.ChargeSystem([qa, qb], [1.0], [1.0, -1.0], 0.05)
        with pytest.raises(ValueError, match="xi1"):
            ed.ChargeSystem([qa, qb], [1, 1], [1, -1], 0.05, xi1=1.5)
        with pytest.raises(ValueError, match="xi2"):
            ed.ChargeSystem([qa, qb], [1, 1], [1, -1], 0.05, xi2=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            ed.ChargeSystem([qa, qb], [1, 1], [1, -1], -0.1)
        with pytest.raises(ValueError, match="positive"):
            ed.ChargeSystem([qa, qb], [1.0, 0.0], [1, -1], 0.05)

    @pytest.mark.parametrize("masses, charges, epsilon, xi2, name", [
        ([1.0, math.nan], [1, -1], 0.05, 0.1, "masses"),
        ([1.0, math.inf], [1, -1], 0.05, 0.1, "masses"),
        ([1, 1], [math.nan, -1], 0.05, 0.1, "charges"),
        ([1, 1], [1, -math.inf], 0.05, 0.1, "charges"),
        ([1, 1], [1, -1], math.nan, 0.1, "epsilon"),
        ([1, 1], [1, -1], math.inf, 0.1, "epsilon"),
        ([1, 1], [1, -1], 0.05, math.nan, "xi2"),
        ([1, 1], [1, -1], 0.05, math.inf, "xi2"),
    ])
    def test_non_finite_number_is_refused_by_name(self, masses, charges,
                                                  epsilon, xi2, name):
        with pytest.raises(ValueError, match=rf"^{name} must be .*finite$"):
            ed.ChargeSystem([origin(), drifting()], masses, charges,
                            epsilon, xi2=xi2)

    def test_dimension_mismatch(self):
        qa = ed.Trajectory.static([0.0, 0.0])
        qb = origin()
        with pytest.raises(ValueError, match="dimension"):
            ed.ChargeSystem([qa, qb], [1, 1], [1, -1], 0.05)

    def test_self_pair_rejected(self):
        # a particle's pair with itself is never evaluated: a lone
        # drifting charge feels no force, delayed or advanced
        sys = ed.ChargeSystem([drifting()], masses=[1.0], charges=[1.0],
                              epsilon=0.05, xi1=0.5, xi2=0.5)
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = stacked_segment(sys, 0.7)
        out = spec(0.7, seg, sys.epsilon)
        assert np.array_equal(out[:3], seg.eval(0.0)[0, 3:])
        assert np.array_equal(out[3:], np.zeros(3))

    def test_descriptor_roundtrip(self):
        sys = two_charge_system()
        desc = sys.descriptor()
        assert desc["N"] == 2 and desc["force"]["id"] == "softened-coulomb"
        sys2 = ed.charge_system_from_descriptor(desc)
        assert sys2.descriptor() == desc

    def test_descriptor_from_file(self, tmp_path):
        import json

        path = tmp_path / "sys.json"
        path.write_text(json.dumps(two_charge_system().descriptor()))
        sys = ed.charge_system_from_descriptor(str(path))
        assert sys.N == 2 and sys.epsilon == 0.05

    def test_unknown_force_id(self):
        desc = two_charge_system().descriptor()
        desc["force"] = {"id": "lienard-wiechert"}
        with pytest.raises(ValueError, match="force model id"):
            ed.charge_system_from_descriptor(desc)


    @pytest.mark.parametrize("spoil, says", [
        (lambda d: d.update(xi_1=0.9),
         "charge system: unknown entry 'xi_1'; it takes N, dim, masses, "
         "charges, epsilon, xi1, xi2, trajectories, force"),
        (lambda d: d.update(name="pair"), "unknown entry 'name'"),
        (lambda d: d["force"].update(soft=0.2),
         "force: unknown entry 'soft'; it takes id, softening, coupling"),
        (lambda d: d["trajectories"][1].update(speed=1.0),
         "uniform trajectory: unknown entry 'speed'; it takes kind, point, "
         "velocity"),
        (lambda d: d["trajectories"][0].update(reflected=True),
         "unknown entry 'reflected'"),
        (lambda d: d["trajectories"][0].pop("point"),
         "static trajectory: missing entry 'point'"),
        (lambda d: d.update(trajectories={"kind": "static"}),
         "trajectories must be a list of objects"),
        (lambda d: d.update(N=3), "entry 'N' is 3, the trajectories give 2"),
        (lambda d: d.update(dim=2),
         "entry 'dim' is 2, the trajectories give 3"),
        (lambda d: d.update(epsilon="fast"), "epsilon is not numeric"),
    ])
    def test_descriptor_entries_are_declared(self, spoil, says):
        # every key is read through a table: a misspelled or extra key
        # is refused by name instead of leaving its entry at the default
        desc = two_charge_system().descriptor()
        spoil(desc)
        with pytest.raises(ValueError, match=re.escape(says)):
            ed.charge_system_from_descriptor(desc)

    def test_trajectory_descriptor_entries_are_declared(self):
        desc = ed.Trajectory.circular([1, 0, 0], 0.4, 1.2).descriptor()
        with pytest.raises(ValueError, match="unknown entry 'radius_'"):
            ed.trajectory_from_descriptor(dict(desc, radius_=0.5))
        del desc["phase"]
        assert ed.trajectory_from_descriptor(desc).params["phase"] == 0.0

class TestSolveDelay:
    def test_static_pair_exact(self):
        g = ed.DelayField.solve(origin(), drifting(2.0, 0.0), 0.05,
                                window=4.0, delta=0.1).tau
        assert np.abs(g.values - 0.1).max() == 0.0

    def test_uniform_closed_form(self):
        d, v, eps = 2.0, 0.3, 0.05
        g = ed.DelayField.solve(origin(), drifting(d, v), eps,
                                window=4.0, delta=0.1).tau
        truth = eps * (d + v * g.nodes) / (1.0 + eps * v)
        assert np.abs(g.values[:, 0] - truth).max() < 1e-12

    def test_advanced_closed_form(self):
        d, v, eps = 2.0, 0.3, 0.05
        g = ed.DelayField.solve(origin(), drifting(d, v), eps,
                                window=4.0, delta=0.1).sigma
        truth = eps * (d + v * g.nodes) / (1.0 - eps * v)
        assert np.abs(g.values[:, 0] - truth).max() < 1e-12

    def test_circular_centered_constant(self):
        qj = ed.Trajectory.circular([0.0, 0.0, 0.0], 1.5, 0.7)
        g = ed.DelayField.solve(origin(), qj, 0.05,
                                window=4.0, delta=0.1).tau
        assert np.abs(g.values - 0.05 * 1.5).max() < 1e-13

    def test_defect_identity_every_node(self):
        # grid-backed wiggly partner: assert the defining equation directly
        path = GridFunction.sample(
            lambda t: np.stack([2.0 + 0.3 * np.sin(1.3 * t),
                                0.4 * np.cos(0.7 * t), 0.0 * t], axis=-1),
            8.0, 0.05)
        qj = ed.Trajectory.from_grid(path)
        qi = origin()
        eps = 0.08
        g = ed.DelayField.solve(qi, qj, eps, window=4.0, delta=0.1).tau
        for t, tau in zip(g.nodes, g.values[:, 0]):
            defect = eps * np.linalg.norm(qi.pos(t) - qj.pos(t - tau)) - tau
            assert abs(defect) <= 1e-12
        assert g.values.min() >= 0.0

    def test_contraction_precondition(self):
        with pytest.raises(ValueError, match="contraction"):
            ed.DelayField.solve(origin(), drifting(2.0, 1.2), 1.0,
                                window=4.0, delta=0.1)

    def test_slow_contraction_hits_iteration_cap(self, monkeypatch):
        # rate 0.999 passes the precondition; Newton lands on the root of
        # this linear equation on iterate 1 and only sees it freeze on
        # iterate 2, so a cap of 1 trips
        monkeypatch.setattr(ed, "_MAX_ITERS", 1)
        with pytest.raises(ed.DelaySolveError, match="after 1 iterations"):
            ed.DelayField.solve(origin(), drifting(5.0, 0.999), 1.0,
                                window=2.0, delta=0.5)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            ed.DelayField.solve(origin(), drifting(), -0.05,
                                window=2.0, delta=0.5)

    @pytest.mark.parametrize("name,value", [
        ("delta", 0.0), ("delta", -0.1), ("delta", math.nan),
        ("delta", math.inf), ("window", -1.0), ("window", 0.0),
        ("window", math.inf), ("window", math.nan)])
    def test_bad_grid_rejected_before_any_compute(self, name, value):
        args = {"window": 2.0, "delta": 0.5, name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=rf"^{name} must be positive and finite, "
                                     rf"got {value!r}$"):
                ed.DelayField.solve(origin(), drifting(), 0.05, **args)

    def test_window_too_small_for_the_stencil_fails_before_any_compute(
            self, monkeypatch):
        # 5 nodes cannot hold a grid's degree-5 stencil: the reason names
        # both arguments, before the contraction rate is sampled
        monkeypatch.setattr(ed, "_contraction_rate",
                            lambda *a: pytest.fail("sampled"))
        with pytest.raises(ValueError, match=r"^window 1 with delta 0\.5 "
                                             r"gives 5 nodes: not enough "
                                             r"nodes for the interpolation "
                                             r"stencil$"):
            ed.DelayField.solve(origin(), drifting(), 0.05, window=1.0,
                                delta=0.5)

    def test_one_fixed_point_per_solve(self, monkeypatch):
        calls = []
        solve = ed._fixed_point
        monkeypatch.setattr(ed, "_fixed_point",
                            lambda *a: (calls.append(1), solve(*a))[1])
        ed.DelayField.solve(origin(), drifting(), 0.05, window=2.0,
                            delta=0.1)
        assert len(calls) == 1

    @settings(max_examples=25, deadline=None)
    @given(d=st.floats(1.5, 3.0), v=st.floats(-0.3, 0.3),
           eps=st.floats(0.01, 0.3))
    def test_uniform_family_property(self, d, v, eps):
        fld = ed.DelayField.solve(origin(), drifting(d, v), eps,
                                  window=2.0, delta=0.25)
        for g, s in ((fld.tau, 1.0), (fld.sigma, -1.0)):
            truth = eps * (d + v * g.nodes) / (1.0 + s * eps * v)
            assert np.abs(g.values[:, 0] - truth).max() < 1e-11
            assert g.values.min() >= 0.0

    @pytest.mark.parametrize("v", [0.0, 0.3, -0.3])
    def test_uniform_partner_freezes_by_iterate_two(self, v):
        # F is linear in tau along a line, so Newton lands on the root on
        # iterate 1 and iterate 2 moves it by rounding only
        fld = ed.DelayField.solve(origin(), drifting(2.0, v), 0.05,
                                  window=4.0, delta=0.1)
        assert 1 <= fld.tau_iterations <= 2
        assert 1 <= fld.sigma_iterations <= 2

    def test_zero_gap_takes_the_plain_update_without_a_warning(self):
        # a partner on top of the observer has no direction g/|g|: the
        # slope falls back to 1 and the delay is 0 on iterate 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = ed.DelayField.solve(origin(), origin(), 0.05, window=2.0,
                                      delta=0.5)
        assert np.array_equal(fld.tau.values, np.zeros((9, 1)))
        assert np.array_equal(fld.sigma.values, np.zeros((9, 1)))
        assert fld.tau_iterations == fld.sigma_iterations == 1


class TestDelayField:
    def test_solve_carries_diagnostics(self):
        fld = ed.DelayField.solve(origin(), drifting(), 0.05,
                                  window=4.0, delta=0.1)
        assert fld.tau_defect <= 1e-13 and fld.sigma_defect <= 1e-13
        assert 1 <= fld.tau_iterations <= 200

    def test_rejects_negative_values(self):
        g = GridFunction(1.0, 0.1, np.full(21, -0.01))
        ok = GridFunction(1.0, 0.1, np.full(21, 0.01))
        with pytest.raises(ValueError, match="nonnegative"):
            ed.DelayField(g, ok, 0.05)

    def test_rejects_sloppy_defect(self):
        g = GridFunction(1.0, 0.1, np.full(21, 0.01))
        with pytest.raises(ValueError, match="defect"):
            ed.DelayField(g, g, 0.05, tau_defect=1e-9)


def per_node_delays(qi, qj, eps, nodes, newton=True, warm=False, tol=1e-13,
                    max_iters=200):
    """Scalar reference: the retarded delay solved one node at a time.

    With ``newton`` each update is the retarded-time Newton step
    tau - (tau - eps|g|) / (1 - eps g/|g| . dq_j(t - tau)), written here
    in scalar arithmetic; otherwise it is the plain fixed-point map
    eps |g|, an independent check of the values. With ``warm`` each node
    starts from its neighbour's value, otherwise from eps |q_i(t) -
    q_j(t)|. Returns the values, the largest per-node iteration count
    and the worst defect.
    """
    out = np.empty(nodes.size)
    worst_iters, worst_defect, tau = 0, 0.0, None
    for k, t in enumerate(nodes):
        qi_t = qi.pos(t)
        if tau is None or not warm:
            tau = eps * float(np.linalg.norm(qi_t - qj.pos(t)))
        for it in range(1, max_iters + 1):
            gap = qi_t - qj.pos(t - tau)
            dist = float(np.linalg.norm(gap))
            nxt = eps * dist
            if newton and dist > 0.0:
                slope = 1.0 - eps * float(gap @ qj.vel(t - tau)) / dist
                if math.isfinite(slope) and slope > 0.0:
                    nxt = tau - (tau - eps * dist) / slope
            update = abs(nxt - tau)
            tau = nxt
            if update <= tol:
                break
        else:
            raise AssertionError(f"reference loop stuck at t={t}")
        out[k] = tau
        worst_iters = max(worst_iters, it)
        worst_defect = max(worst_defect, abs(
            eps * float(np.linalg.norm(qi_t - qj.pos(t - tau))) - tau))
    return out, worst_iters, worst_defect


def per_node_field(qi, qj, eps, mode, nodes, **kw):
    if mode == "retarded":
        return per_node_delays(qi, qj, eps, nodes, **kw)
    vals, iters, defect = per_node_delays(qi.reflected(), qj.reflected(),
                                          eps, -nodes[::-1], **kw)
    return vals[::-1], iters, defect


PARTNERS = {
    "static": lambda: ed.Trajectory.static([2.0, 0.5, 0.0]),
    "uniform": lambda: ed.Trajectory.uniform([2.0, 0.0, 0.0],
                                             [0.3, -0.2, 0.1]),
    "circular": lambda: ed.Trajectory.circular([0.3, 0.2, 0.0], 1.5, 0.7),
    "grid": lambda: ed.Trajectory.from_grid(GridFunction.sample(
        lambda t: np.stack([2.0 + 0.3 * np.sin(1.3 * t),
                            0.4 * np.cos(0.7 * t), 0.0 * t], axis=-1),
        8.0, 0.05)),
    "callable": lambda: ed.Trajectory.from_callable(
        lambda t: [2.0 + 0.5 * np.sin(t), 0.3 * t, 0.2 * np.cos(2.0 * t)],
        lambda t: [0.5 * np.cos(t), 0.3, -0.4 * np.sin(2.0 * t)], 3),
}


def nan_after(t_bad):
    """Partner drifting at 0.3 whose position is lost after t_bad."""
    return ed.Trajectory.from_callable(
        lambda t: [2.0 + 0.3 * t, 0.0, 0.0] if t <= t_bad else [np.nan] * 3,
        lambda t: [0.3, 0.0, 0.0], 3)


class TestNodeKernel:
    @pytest.mark.parametrize("mode", ["retarded", "advanced"])
    @pytest.mark.parametrize("name", sorted(PARTNERS))
    def test_matches_per_node_reference(self, name, mode):
        qi = ed.Trajectory.uniform([0.0, 0.0, 0.0], [0.0, 0.1, 0.0])
        qj = PARTNERS[name]()
        eps = 0.05
        fld = ed.DelayField.solve(qi, qj, eps, window=4.0, delta=0.1)
        g = fld.tau if mode == "retarded" else fld.sigma
        want, iters, _ = per_node_field(qi, qj, eps, mode, g.nodes)
        assert np.abs(g.values[:, 0] - want).max() <= 1e-14
        # the plain fixed point, warm started node to node, lands on the
        # same root
        plain, _, _ = per_node_field(qi, qj, eps, mode, g.nodes,
                                     newton=False, warm=True)
        assert np.abs(g.values[:, 0] - plain).max() <= 1e-14

        # a second solve reproduces the field bit for bit
        again = ed.DelayField.solve(qi, qj, eps, window=4.0, delta=0.1)
        got = again.tau if mode == "retarded" else again.sigma
        assert np.array_equal(got.values, g.values)
        sign = -1.0 if mode == "retarded" else 1.0
        ts, vals = g.nodes, g.values[:, 0]
        defect = np.abs(eps * np.linalg.norm(
            qi.pos(ts) - qj.pos(ts + sign * vals), axis=1) - vals).max()
        reported = fld.tau_defect if mode == "retarded" else fld.sigma_defect
        assert defect <= 1e-13 and reported <= 1e-13
        # every node starts cold, so the count is the cold loop's worst
        counted = (fld.tau_iterations if mode == "retarded"
                   else fld.sigma_iterations)
        assert counted == iters

    def test_spec_delays_match_grid_solve(self):
        qa = ed.Trajectory.circular([0.0, 0.0, 0.0], 0.3, 0.8)
        qb = ed.Trajectory.uniform([2.0, 0.0, 0.0], [0.2, 0.1, 0.0])
        sys = ed.ChargeSystem([qa, qb], masses=[1.0, 2.0],
                              charges=[1.0, -1.0], epsilon=0.05,
                              xi1=0.5, xi2=0.5)
        spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=0.5)
        fields = [ed.DelayField.solve(qa, qb, sys.epsilon, window=4.0,
                                      delta=0.1),
                  ed.DelayField.solve(qb, qa, sys.epsilon, window=4.0,
                                      delta=0.1)]
        ts = fields[0].tau.nodes[10:-10]
        state = stacked_state(sys)
        reads = []

        def y(times):
            reads.append(np.array(times))
            return state(times)

        spec(ts, HistorySegment(ts, 1.0, y), sys.epsilon)
        # the last lookup reads every partner at its light-cone time:
        # (0, 1) delayed and advanced, then (1, 0)
        offsets = (reads[-1] - np.tile(ts, 4)).reshape(4, ts.size)
        for e, fld in enumerate(fields):
            tau, sig = -offsets[2 * e], offsets[2 * e + 1]
            assert np.abs(tau - fld.tau.values[10:-10, 0]).max() <= 1e-14
            assert np.abs(sig - fld.sigma.values[10:-10, 0]).max() <= 1e-14

    def test_iteration_cap_names_the_first_moving_node(self, monkeypatch):
        # every node is still moving after iterate 1
        monkeypatch.setattr(ed, "_MAX_ITERS", 1)
        with pytest.raises(ed.DelaySolveError,
                           match=r"t=-2 still moving after 1 iterations; "
                                 r"last update \d"):
            ed.DelayField.solve(origin(), drifting(5.0, 0.999), 1.0,
                                window=2.0, delta=0.5)

    def test_nan_partner_is_a_numerical_error(self):
        # the first node whose partner position is lost is t = 1.1
        with pytest.raises(NumericalError,
                           match=r"t=1.1 is not finite on iterate 0"):
            ed.DelayField.solve(origin(), nan_after(1.05), 0.05,
                                window=2.0, delta=0.1)
        # the advance at t = 1 reads the partner at 1 + 0.1: iterate 1
        with pytest.raises(NumericalError,
                           match=r"t=1 is not finite on iterate 1"):
            ed.DelayField.solve(origin(), nan_after(1.05), 0.05,
                                window=1.0, delta=0.1)

    def test_nan_velocity_rate_is_a_numerical_error(self):
        # a NaN rate fails every comparison, so it used to skip the
        # contraction check and iterate to the cap
        fast = ed.Trajectory.from_callable(
            lambda t: [2.0 + 5.0 * t, 0.0, 0.0], lambda t: [np.nan] * 3, 3)
        with pytest.raises(NumericalError,
                           match=r"contraction rate .* is not finite \(nan\)"):
            ed.DelayField.solve(origin(), fast, 1.0, window=2.0, delta=0.5)

    @pytest.mark.parametrize("what,pos,vel", [
        # velocity lost only in the delay allowance beyond the window
        ("contraction rate", lambda t: [2.0 + 0.2 * t, 0.0, 0.0],
         lambda t: [0.2, 0.0, 0.0] if abs(t) <= 4.0 else [np.nan] * 3),
        # position lost near the window edge: the delay bound is NaN
        ("delay bound",
         lambda t: [2.0 + 0.2 * t, 0.0, 0.0] if abs(t) < 3.5 else [np.nan] * 3,
         lambda t: [0.2, 0.0, 0.0]),
    ])
    def test_non_finite_charge_guards_are_numerical_errors(self, what, pos,
                                                           vel):
        partner = ed.Trajectory.from_callable(pos, vel, 3)
        sys = ed.ChargeSystem([origin(), partner], masses=[1.0, 2.0],
                              charges=[1.0, -1.0], epsilon=0.05,
                              xi1=0.5, xi2=0.5)
        with pytest.raises(NumericalError, match=what + r".* is not finite"):
            ed.assemble_charge_perturbation(sys, window=4.0)

    def test_nan_partner_history_is_a_numerical_error(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        trs = sys.trajectories

        def y(t):
            out = np.concatenate([tr.pos(t) for tr in trs]
                                 + [tr.vel(t) for tr in trs], axis=-1)
            out[t < 0.95, 3:6] = np.nan  # partner position lost before 0.95
            return out

        ts = np.array([1.0, 1.5, 2.0])
        seg = HistorySegment(ts, 1.0, y)
        # the delay at t = 1 is about 0.1, so its first lookup misses
        with pytest.raises(NumericalError,
                           match=r"t=1 is not finite on iterate 1"):
            spec(ts, seg, sys.epsilon)


class TestSymmetries:
    def test_time_reversal_swaps_advance_and_delay(self):
        qa, qb = origin(), drifting(2.0, 0.25)
        fld = ed.DelayField.solve(qa, qb, 0.05, window=4.0, delta=0.1)
        rev = ed.DelayField.solve(qa.reflected(), qb.reflected(), 0.05,
                                  window=4.0, delta=0.1)
        gap = np.abs(fld.sigma.values[:, 0] - rev.tau.values[::-1, 0]).max()
        assert gap <= 1e-10
        gap2 = np.abs(fld.tau.values[:, 0] - rev.sigma.values[::-1, 0]).max()
        assert gap2 <= 1e-10

    def test_pair_asymmetry_is_second_order(self):
        # tau_ij - tau_ji ~ eps^2 (q_i - q_j).(dq_i + dq_j)
        qi = ed.Trajectory.uniform([0.0, 0.0, 0.0], [0.0, 0.15, 0.0])
        qj = drifting(2.0, 0.2)
        eps_list = [4e-3, 2e-3, 1e-3]
        gaps = []
        for eps in eps_list:
            f_ij = ed.DelayField.solve(qi, qj, eps, window=4.0,
                                       delta=0.1).tau
            f_ji = ed.DelayField.solve(qj, qi, eps, window=4.0,
                                       delta=0.1).tau
            gaps.append(np.abs(f_ij.values - f_ji.values).max())
        slope = loglog_slope(eps_list, gaps)
        assert abs(slope - 2.0) < 0.1

    def test_lipschitz_stability_bound(self):
        # both trajectories shifted: measured change <= eps/(1-kappa) * total
        qa, qb = origin(), drifting(2.0, 0.3)
        eps, shift = 0.05, 1e-3
        g1 = ed.DelayField.solve(qa, qb, eps, window=4.0, delta=0.1).tau
        g2 = ed.DelayField.solve(qa.shifted([shift, 0.0, 0.0]),
                                 qb.shifted([0.0, shift, 0.0]), eps,
                                 window=4.0, delta=0.1).tau
        moved = np.abs(g1.values - g2.values).max()
        kappa = eps * 0.3
        assert moved <= eps / (1.0 - kappa) * 2.0 * shift
        assert moved > 0.0


class TestExpansion:
    def test_static_pair_expansion_exact(self):
        qi, qj = origin(), drifting(2.0, 0.0)
        for eps in (0.1, 0.05, 0.025):
            fld = ed.DelayField.solve(qi, qj, eps, window=2.0, delta=0.1)
            assert ed.delay_expansion_check(fld, qi, qj, eps) <= 1e-13

    def test_uniform_gap_closed_form(self):
        d, v, eps = 2.0, 0.3, 0.05
        qi, qj = origin(), drifting(d, v)
        fld = ed.DelayField.solve(qi, qj, eps, window=4.0, delta=0.1)
        dev = ed.delay_expansion_check(fld, qi, qj, eps)
        # the advance has the larger gap: eps^3 v^2 (d + v t) / (1 - eps v)
        pred = eps ** 3 * v ** 2 * (d + v * 4.0) / (1.0 - eps * v)
        assert abs(dev - pred) < 1e-6 * pred

    def test_uniform_sweep_slope_three(self):
        rep = ed.expansion_order_sweep(origin(), drifting(2.0, 0.3),
                                       [1e-2, 5e-3, 2.5e-3])
        assert rep.passed
        assert abs(rep.slope - 3.0) < 0.1

    def test_circular_sweep_certifies_cubic(self):
        qi = ed.Trajectory.static([0.3, 0.2, 0.0])
        qj = ed.Trajectory.circular([0.0, 0.0, 0.0], 1.5, 0.7)
        rep = ed.expansion_order_sweep(qi, qj, [1e-2, 5e-3, 2.5e-3])
        assert rep.passed and rep.slope >= 2.7
        assert len(rep.deviations) == 3

    def test_exact_gap_reports_pass(self):
        rep = ed.expansion_order_sweep(origin(), drifting(2.0, 0.0),
                                       [1e-2, 5e-3])
        assert rep.passed and rep.slope == np.inf

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match="two"):
            ed.expansion_order_sweep(origin(), drifting(), [1e-2])
        with pytest.raises(ValueError, match="positive"):
            ed.expansion_order_sweep(origin(), drifting(), [1e-2, 0.0])


class TestNonsingularity:
    def test_static_pair_passes(self):
        sys = ed.ChargeSystem([origin(), drifting(1.0, 0.0)],
                              masses=[1, 1], charges=[1, 1],
                              epsilon=0.05, xi2=0.5)
        rep = ed.nonsingularity_check(sys, window=4.0)
        assert rep and rep.passed
        assert rep.min_distance == pytest.approx(1.0)
        assert "ok" in rep.summary()

    def test_crossing_lines_fail_at_the_crossing(self):
        sys = ed.ChargeSystem(
            [ed.Trajectory.uniform([-1, 0, 0], [1, 0, 0]),
             ed.Trajectory.uniform([1, 0, 0], [-1, 0, 0])],
            masses=[1, 1], charges=[1, 1], epsilon=0.05, xi2=0.3)
        rep = ed.nonsingularity_check(sys, window=4.0)
        assert not rep
        assert rep.worst_pair == (0, 1)
        assert abs(rep.worst_pair_time - 1.0) < 0.05
        assert "SINGULAR" in rep.summary()

    def test_relativistic_speed_fails(self):
        # c = 10, v = 9.9 against the margin xi1 c = 9
        sys = ed.ChargeSystem(
            [origin(), ed.Trajectory.uniform([3, 0, 0], [9.9, 0, 0])],
            masses=[1, 1], charges=[1, 1], epsilon=0.1, xi1=0.9, xi2=0.1)
        rep = ed.nonsingularity_check(sys, window=0.1)
        assert not rep.passed
        assert rep.fastest_particle == 1
        assert rep.max_speed == pytest.approx(9.9)
        assert rep.speed_limit == pytest.approx(9.0)

    def test_zero_eps_means_infinite_light_speed(self):
        sys = ed.ChargeSystem([origin(), drifting(2.0, 0.3)],
                              masses=[1, 1], charges=[1, 1],
                              epsilon=0.0, xi2=0.5)
        rep = ed.nonsingularity_check(sys, window=4.0)
        assert rep.passed and rep.speed_limit == np.inf

    def test_single_particle(self):
        sys = ed.ChargeSystem([drifting(1.0, 0.1)], masses=[1.0],
                              charges=[1.0], epsilon=0.05)
        rep = ed.nonsingularity_check(sys, window=2.0)
        assert rep.passed and rep.min_distance == np.inf


class TestAssembly:
    def test_zero_eps_is_the_instantaneous_field(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = stacked_segment(sys, 0.7)
        out = spec(0.7, seg, 0.0)
        y0 = seg.eval(0.0)[0]
        F = sys.pair_force
        qa, qb, va, vb = y0[0:3], y0[3:6], y0[6:9], y0[9:12]
        hand = np.concatenate([
            y0[6:12],
            F(1.0, -1.0, qa, va, qb, vb) / 1.0,
            F(-1.0, 1.0, qb, vb, qa, va) / 2.0,
        ])
        assert np.array_equal(out, hand)

    def test_static_background_matches_instantaneous_coulomb(self):
        # frozen pair: the delayed lookup lands on the same positions
        qa, qb = origin(), drifting(1.5, 0.0)
        sys = ed.ChargeSystem([qa, qb], masses=[1, 1], charges=[1, 1],
                              epsilon=0.05, xi2=0.5)
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = stacked_segment(sys, 0.0)
        out = spec(0.0, seg, sys.epsilon)
        F = sys.pair_force
        hand = F(1.0, 1.0, np.zeros(3), np.zeros(3),
                 np.array([1.5, 0, 0]), np.zeros(3))
        assert np.abs(out[6:9] - hand).max() < 1e-12
        assert np.abs(out[:6] - seg.eval(0.0)[0, 6:]).max() == 0.0

    def test_batch_equals_single_center_calls(self):
        # the delay solve runs elementwise; each element must stop on
        # the same iterate as a one-center solve
        qa = ed.Trajectory.circular([0.0, 0.0, 0.0], 0.3, 0.8)
        qb = ed.Trajectory.uniform([2.0, 0.0, 0.0], [0.2, 0.1, 0.0])
        sys = ed.ChargeSystem([qa, qb], masses=[1.0, 2.0],
                              charges=[1.0, -1.0], epsilon=0.05,
                              xi1=0.5, xi2=0.5)
        sys.external = lambda t, q, v: np.column_stack(
            [np.zeros_like(t), 0.1 * t, -q[:, 0]])
        spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=0.5)
        ts = np.linspace(-2.0, 2.0, 7)
        batch = spec(ts, stacked_segment(sys, ts), sys.epsilon)
        assert batch.shape == (7, 12)
        for i, t in enumerate(ts):
            one = spec(t, stacked_segment(sys, t), sys.epsilon)
            assert np.array_equal(batch[i], one)

    def test_delay_effect_is_first_order(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = stacked_segment(sys, 0.7)
        base = spec(0.7, seg, 0.0)
        eps_list = [4e-3, 2e-3, 1e-3]
        gaps = [np.abs(spec(0.7, seg, e) - base).max() for e in eps_list]
        slope = loglog_slope(eps_list, gaps)
        assert abs(slope - 1.0) < 0.05

    def test_mixing_weight_interpolates(self):
        sys = two_charge_system()
        seg = stacked_segment(sys, 0.3)
        outs = {}
        for w in (0.0, 0.5, 1.0):
            spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=w)
            outs[w] = spec(0.3, seg, sys.epsilon)
        mid = 0.5 * (outs[0.0] + outs[1.0])
        assert np.abs(outs[0.5] - mid).max() < 1e-14
        assert np.abs(outs[0.0] - outs[1.0]).max() > 1e-6

    def test_external_field_enters_the_acceleration(self):
        sys = two_charge_system()
        sys.external = lambda t, q, v: np.tile([0.0, 0.0, -9.8], (len(t), 1))
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = stacked_segment(sys, 0.0)
        sys.external = None
        bare = ed.assemble_charge_perturbation(sys, window=4.0)
        diff = spec(0.0, seg, 0.0) - bare(0.0, seg, 0.0)
        assert np.allclose(diff[6:9], [0, 0, -9.8])
        assert np.allclose(diff[9:12], [0, 0, -9.8])

    def test_singular_configuration_rejected(self):
        sys = ed.ChargeSystem([origin(), drifting(0.2, 0.0)],
                              masses=[1, 1], charges=[1, 1],
                              epsilon=0.05, xi2=0.5)
        with pytest.raises(ValueError, match="singular"):
            ed.assemble_charge_perturbation(sys, window=2.0)

    def test_delay_bound_must_fit_history_radius(self):
        sys = two_charge_system(eps=0.05)
        with pytest.raises(ValueError, match="history radius"):
            ed.assemble_charge_perturbation(sys, window=4.0, h=0.05)

    def test_custom_force_needs_lipschitz(self):
        # the spec's force is the system's pair_force, and its Lipschitz
        # budget is that force's lip_bound
        def flat(ci, cj, qi, vi, qj, vj):
            return np.zeros_like(qi)

        base = two_charge_system()
        sys = ed.ChargeSystem(base.trajectories, base.masses, base.charges,
                              base.epsilon, xi1=base.xi1, xi2=base.xi2,
                              pair_force=flat)
        with pytest.raises(ValueError, match="lip_bound"):
            ed.assemble_charge_perturbation(sys, window=4.0)
        flat.lip_bound = 0.5
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = stacked_segment(sys, 0.0)
        assert np.abs(spec(0.0, seg, sys.epsilon)[6:]).max() == 0.0
        # velocity pass-through plus |c_1 c_2| / m_1 times the bound
        assert spec.L2 == 1.5

    def test_negative_eps_rejected(self):
        # a negative eps would read the "retarded" partner in the future
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        traj = GridFunction.sample(stacked_state(sys), 5.0, 0.01)
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            functional_output_grid(spec, traj, -0.05, 4.0, 0.01)

    def test_bad_mixing_rejected(self):
        with pytest.raises(ValueError, match="mixing"):
            ed.assemble_charge_perturbation(two_charge_system(),
                                            window=4.0, mixing=1.5)

    def test_wrong_state_size_rejected(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = HistorySegment(0.0, 1.0, lambda t: np.zeros((len(t), 5)))
        with pytest.raises(ValueError, match="components"):
            spec(0.0, seg, 0.0)

    def test_spec_metadata(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=0.25)
        assert spec.kind == "charge-system"
        assert spec.params["mixing"] == 0.25
        assert spec.params["force"] == "softened-coulomb"
        assert spec.L2 > 1.0
        # the spec never reads a segment derivative: it evaluates on a
        # segment built without one
        seg = stacked_segment(sys, 0.0)
        with pytest.raises(ValueError, match="does not expose a derivative"):
            seg.deriv(0.0)
        assert np.isfinite(spec(0.0, seg, sys.epsilon)).all()

    def test_single_particle_is_pure_external(self):
        sys = ed.ChargeSystem([drifting(1.0, 0.1)], masses=[2.0],
                              charges=[1.0], epsilon=0.05)
        spec = ed.assemble_charge_perturbation(sys, window=2.0)
        seg = stacked_segment(sys, 0.0)
        out = spec(0.0, seg, sys.epsilon)
        assert np.allclose(out[:3], [0.1, 0.0, 0.0])
        assert np.abs(out[3:]).max() == 0.0


def per_equation_delay(seg, here, block, vblock, eps, sign, newton=True):
    """One light-cone equation solved alone over the segment's centers,
    elementwise from tau_0 = eps |q_i(t) - q_j(t)|: the per-equation loop
    the stacked solve replaced. With ``newton`` each update is the
    library's Newton step on the rows still moving, reading the partner
    position from ``block`` and its velocity from ``vblock``; otherwise
    it is the plain fixed-point map. Returns the values and the largest
    per-center iteration count."""
    def cone(rows, tau):
        gap = here[rows] - seg.take(rows).eval(sign * tau)[:, block]
        return eps * np.sqrt(np.einsum("kd,kd->k", gap, gap))

    def step(rows, tau):
        if not newton:
            return cone(rows, tau)
        y = seg.take(rows).eval(sign * tau)
        return ed._newton_step(eps, sign, tau, here[rows], y[:, block],
                               y[:, vblock])

    rows = np.arange(len(seg))
    tau = cone(rows, 0.0)
    for it in range(1, 201):
        nxt = step(rows, tau[rows])
        update = np.abs(nxt - tau[rows])
        tau[rows] = nxt
        rows = rows[update > 1e-13]
        if rows.size == 0:
            return tau, it
    raise AssertionError("reference loop stuck")


def per_equation_field(sys, mixing, ts, seg, eps, newton=True):
    """The assembled field with each (i, j, direction) equation solved by
    its own loop and read by its own lookup, in the order the spec adds
    them up. Returns the field and the largest iteration count of any
    equation."""
    N, d = sys.N, sys.dim
    force = sys.pair_force
    y0 = seg.eval(0.0)
    q = [y0[:, i * d:(i + 1) * d] for i in range(N)]
    v = [y0[:, (N + i) * d:(N + i + 1) * d] for i in range(N)]
    acc = np.zeros((ts.size, N, d))
    worst = 0
    for i in range(N):
        if sys.external is not None:
            acc[:, i] += sys.external(ts, q[i], v[i])
        for j in range(N):
            if j == i:
                continue
            for sign, weight in ((-1.0, mixing), (1.0, 1.0 - mixing)):
                if weight == 0.0:
                    continue
                tau, it = per_equation_delay(
                    seg, q[i], slice(j * d, (j + 1) * d),
                    slice((N + j) * d, (N + j + 1) * d), eps, sign, newton)
                worst = max(worst, it)
                y = seg.eval(sign * tau)
                acc[:, i] += weight * force(
                    sys.charges[i], sys.charges[j], q[i], v[i],
                    y[:, j * d:(j + 1) * d],
                    y[:, (N + j) * d:(N + j + 1) * d]) / sys.masses[i]
    return np.concatenate([y0[:, N * d:], acc.reshape(ts.size, N * d)],
                          axis=1), worst


STACK_PARTNERS = {
    "static": lambda: ed.Trajectory.static([2.0, 0.5, 0.0]),
    "uniform": lambda: ed.Trajectory.uniform([2.0, 0.0, 0.0],
                                             [0.2, -0.1, 0.05]),
    "circular": lambda: ed.Trajectory.circular([2.0, 0.0, 0.0], 0.4, 0.6),
    "grid": PARTNERS["grid"],
}


def three_charges(partner, external):
    sys = ed.ChargeSystem(
        [ed.Trajectory.circular([0.0, 0.0, 0.0], 0.3, 0.8),
         STACK_PARTNERS[partner](),
         ed.Trajectory.uniform([-1.5, 1.0, 0.0], [0.1, -0.1, 0.05])],
        masses=[1.0, 2.0, 1.5], charges=[1.0, -1.0, 0.5], epsilon=0.05,
        xi1=0.5, xi2=0.5)
    if external:
        sys.external = lambda t, q, v: np.column_stack(
            [np.zeros_like(t), 0.1 * t, -q[:, 0]])
    return sys


def tabulated_segment(sys, ts, h=1.0):
    """Segment over the system's stacked state sampled on a grid."""
    grid = GridFunction.sample(stacked_state(sys), 3.0, 0.02)
    return grid, HistorySegment.from_grid(grid, ts, h)


def count_evals(monkeypatch, grid):
    """A list that grows by one per ``GridFunction.eval`` call on
    ``grid``, for segments built after this call."""
    calls = []
    evaluate = GridFunction.eval

    def counted(g, t):
        if g is grid:
            calls.append(np.size(t))
        return evaluate(g, t)

    monkeypatch.setattr(GridFunction, "eval", counted)
    return calls


class TestStackedSolve:
    @pytest.mark.parametrize("external", [False, True])
    @pytest.mark.parametrize("mixing", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("partner", sorted(STACK_PARTNERS))
    def test_matches_per_equation_reference(self, partner, mixing, external,
                                            monkeypatch):
        sys = three_charges(partner, external)
        spec = ed.assemble_charge_perturbation(sys, window=4.0,
                                               mixing=mixing)
        ts = np.linspace(-1.5, 1.5, 13)
        for seg in (stacked_segment(sys, ts), tabulated_segment(sys, ts)[1]):
            got = spec(ts, seg, sys.epsilon)
            want, _ = per_equation_field(sys, mixing, ts, seg, sys.epsilon)
            assert np.array_equal(got, want)
            # the plain fixed point finds the same delays
            plain, _ = per_equation_field(sys, mixing, ts, seg, sys.epsilon,
                                          newton=False)
            assert np.abs(got - plain).max() <= 1e-14

        # one lookup for the present state, one per iterate after the
        # first, one for the partner states
        grid, seg = tabulated_segment(sys, ts)
        _, worst = per_equation_field(sys, mixing, ts, seg, sys.epsilon)
        calls = count_evals(monkeypatch, grid)
        spec(ts, HistorySegment.from_grid(grid, ts, 1.0), sys.epsilon)
        assert len(calls) == worst + 2

    def test_lookups_do_not_grow_with_the_stack(self, monkeypatch):
        # charges at rest: every equation freezes on iterate 1
        counts = []
        for n, mixing in ((2, 1.0), (4, 0.5)):
            sys = ed.ChargeSystem(
                [ed.Trajectory.static([2.0 * i, 0.5 * i, 0.0])
                 for i in range(n)],
                masses=[1.0] * n, charges=[1.0, -1.0] * (n // 2),
                epsilon=0.05, xi1=0.5, xi2=0.5)
            spec = ed.assemble_charge_perturbation(sys, h=1.0, window=4.0,
                                                   mixing=mixing)
            ts = np.linspace(-1.5, 1.5, 13)
            grid = GridFunction.sample(stacked_state(sys), 3.0, 0.02)
            with monkeypatch.context() as m:
                calls = count_evals(m, grid)
                spec(ts, HistorySegment.from_grid(grid, ts, 1.0),
                     sys.epsilon)
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_uniform_partner_freezes_by_iterate_two(self, monkeypatch):
        # both directions of a pair drifting apart along the line between
        # them: the present state, two iterates and the partner states
        sys = two_charge_system(v=(0.2, 0.0, 0.0))
        spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=0.5)
        ts = np.linspace(-1.5, 1.5, 13)
        grid, _ = tabulated_segment(sys, ts)
        calls = count_evals(monkeypatch, grid)
        spec(ts, HistorySegment.from_grid(grid, ts, 1.0), sys.epsilon)
        assert len(calls) <= 4

    @pytest.mark.parametrize("scale,solves", [(200.0, True), (1e8, False)])
    def test_superluminal_velocity_block_solves_or_hits_the_cap(
            self, scale, solves):
        # the partner's positions drift away at 0.2, but its velocity
        # block reads scale * 0.2 with eps * scale * 0.2 >= 2: the advance
        # has a slope <= 0 and takes the plain update, the delay a slope
        # far above the true one and slows down; neither may warn
        sys = two_charge_system(v=(0.2, 0.0, 0.0))
        spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=0.5)
        state = stacked_state(sys)

        def y(t):
            out = state(t)
            out[:, 9:12] *= scale
            return out

        ts = np.linspace(-1.5, 1.5, 13)
        seg = HistorySegment(ts, 1.0, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not solves:
                with pytest.raises(ed.DelaySolveError,
                                   match=r"still moving after 200 "
                                         r"iterations"):
                    spec(ts, seg, sys.epsilon)
                return
            got = spec(ts, seg, sys.epsilon)
        # the pair force reads no velocity, so the accelerations are
        # those of the true state
        want = spec(ts, stacked_segment(sys, ts), sys.epsilon)
        assert np.abs(got[:, 6:] - want[:, 6:]).max() <= 1e-12


class TestSoftenedCoulomb:
    def test_repulsion_direction_and_magnitude(self):
        F = ed.softened_coulomb(softening=0.1, coupling=2.0)
        f = F(1.0, 1.0, np.zeros(3), np.zeros(3),
              np.array([-1.0, 0, 0]), np.zeros(3))
        # like charges push particle i away from j: +x here
        assert f[0] > 0 and abs(f[1]) == 0.0
        assert np.allclose(f[0], 2.0 / (1.0 + 0.01) ** 1.5)

    def test_softening_regularizes_contact(self):
        F = ed.softened_coulomb(softening=0.2)
        f = F(1.0, 1.0, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.all(np.isfinite(f)) and np.abs(f).max() == 0.0

    def test_batched_rows_match_single_rows_and_the_row_formula(self):
        F = ed.softened_coulomb(softening=0.1, coupling=2.0)
        rng = np.random.default_rng(9)
        qi, vi, qj, vj = rng.standard_normal((4, 50, 3))
        batch = F(1.0, -1.0, qi, vi, qj, vj)
        assert batch.shape == (50, 3)
        for k in range(50):
            rows = slice(k, k + 1)
            assert np.array_equal(
                batch[k], F(1.0, -1.0, qi[rows], vi[rows], qj[rows],
                            vj[rows])[0])
            assert np.array_equal(
                batch[k], F(1.0, -1.0, qi[k], vi[k], qj[k], vj[k]))
            # the former one-row formula sums |d|^2 in another order and
            # takes r2 ** 1.5 with pow: a few roundings apart
            d = qi[k] - qj[k]
            want = (2.0 * 1.0 * -1.0 / (float(d @ d) + 0.01) ** 1.5) * d
            assert np.all(np.abs(batch[k] - want)
                          <= 8 * np.finfo(float).eps * np.abs(want))

    def test_positive_softening_required(self):
        with pytest.raises(ValueError, match="softening"):
            ed.softened_coulomb(softening=0.0)
