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

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypershadow import electrodynamics as ed
from hypershadow.funcspace import GridFunction, load_grid_function
from hypershadow.perturbations import HistorySegment


def origin():
    return ed.Trajectory.static([0.0, 0.0, 0.0])


def drifting(d=2.0, v=0.3):
    return ed.Trajectory.uniform([d, 0.0, 0.0], [v, 0.0, 0.0])


def two_charge_system(eps=0.05, v=(0.2, 0.1, 0.0)):
    qa = origin()
    qb = ed.Trajectory.uniform([2.0, 0.0, 0.0], list(v))
    return ed.ChargeSystem([qa, qb], masses=[1.0, 2.0], charges=[1.0, -1.0],
                           epsilon=eps, xi1=0.5, xi2=0.5)


def stacked_segment(sys, t, h=1.0):
    """History segment that follows the system's own trajectories."""
    trs = sys.trajectories

    def y(t):
        t = np.asarray(t, dtype=float)
        return np.concatenate([tr.pos(t) for tr in trs]
                              + [tr.vel(t) for tr in trs], axis=-1)

    return HistorySegment.from_callable(y, t, h)


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

    def test_dimension_mismatch(self):
        qa = ed.Trajectory.static([0.0, 0.0])
        qb = origin()
        with pytest.raises(ValueError, match="dimension"):
            ed.ChargeSystem([qa, qb], [1, 1], [1, -1], 0.05)

    def test_self_pair_rejected(self):
        sys = two_charge_system()
        with pytest.raises(ValueError, match="itself"):
            sys.pair(1, 1)

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


class TestSolveDelay:
    def test_static_pair_exact(self):
        g = ed.solve_delay(origin(), drifting(2.0, 0.0), 0.05,
                           window=4.0, delta=0.1)
        assert np.abs(g.values - 0.1).max() == 0.0

    def test_uniform_closed_form(self):
        d, v, eps = 2.0, 0.3, 0.05
        g = ed.solve_delay(origin(), drifting(d, v), eps, window=4.0, delta=0.1)
        truth = eps * (d + v * g.nodes) / (1.0 + eps * v)
        assert np.abs(g.values[:, 0] - truth).max() < 1e-12

    def test_advanced_closed_form(self):
        d, v, eps = 2.0, 0.3, 0.05
        g = ed.solve_delay(origin(), drifting(d, v), eps, mode="advanced",
                           window=4.0, delta=0.1)
        truth = eps * (d + v * g.nodes) / (1.0 - eps * v)
        assert np.abs(g.values[:, 0] - truth).max() < 1e-12

    def test_circular_centered_constant(self):
        qj = ed.Trajectory.circular([0.0, 0.0, 0.0], 1.5, 0.7)
        g = ed.solve_delay(origin(), qj, 0.05, window=4.0, delta=0.1)
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
        g = ed.solve_delay(qi, qj, eps, window=4.0, delta=0.1)
        for t, tau in zip(g.nodes, g.values[:, 0]):
            defect = eps * np.linalg.norm(qi.pos(t) - qj.pos(t - tau)) - tau
            assert abs(defect) <= 1e-12
        assert g.values.min() >= 0.0

    def test_contraction_precondition(self):
        with pytest.raises(ValueError, match="contraction"):
            ed.solve_delay(origin(), drifting(2.0, 1.2), 1.0,
                           window=4.0, delta=0.1)

    def test_slow_contraction_hits_iteration_cap(self):
        # rate 0.999 passes the precondition but cannot reach 1e-13 in 200 steps
        with pytest.raises(ed.DelaySolveError, match="200"):
            ed.solve_delay(origin(), drifting(5.0, 0.999), 1.0,
                           window=2.0, delta=0.5)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ed.solve_delay(origin(), drifting(), 0.05, mode="sideways",
                           window=2.0, delta=0.5)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            ed.solve_delay(origin(), drifting(), -0.05, window=2.0, delta=0.5)

    @settings(max_examples=25, deadline=None)
    @given(d=st.floats(1.5, 3.0), v=st.floats(-0.3, 0.3),
           eps=st.floats(0.01, 0.3))
    def test_uniform_family_property(self, d, v, eps):
        g = ed.solve_delay(origin(), drifting(d, v), eps, window=2.0, delta=0.25)
        truth = eps * (d + v * g.nodes) / (1.0 + eps * v)
        assert np.abs(g.values[:, 0] - truth).max() < 1e-11
        assert g.values.min() >= 0.0


class TestDelayField:
    def test_solve_carries_diagnostics(self):
        fld = ed.DelayField.solve(origin(), drifting(), 0.05,
                                  window=4.0, delta=0.1, pair=(0, 1))
        assert fld.pair == (0, 1)
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

    def test_export_csv_roundtrip(self, tmp_path):
        fld = ed.DelayField.solve(origin(), drifting(), 0.05,
                                  window=2.0, delta=0.1, pair=(0, 1))
        paths = fld.export_csv(tmp_path)
        assert sorted(os.path.basename(p) for p in paths) == \
            ["sigma_0_1.csv", "tau_0_1.csv"]
        back = load_grid_function(paths[0])
        assert np.array_equal(back.values, fld.tau.values)

    def test_export_is_byte_deterministic(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            fld = ed.DelayField.solve(origin(), drifting(), 0.05,
                                      window=2.0, delta=0.1)
            p = fld.export_csv(tmp_path / sub)[0]
            blobs.append(open(p, "rb").read())
        assert blobs[0] == blobs[1]

    def test_system_delays_all_ordered_pairs(self):
        qc = ed.Trajectory.static([0.0, 3.0, 0.0])
        sys = ed.ChargeSystem(
            [origin(), drifting(), qc], masses=[1, 1, 1],
            charges=[1, -1, 1], epsilon=0.02, xi2=0.5)
        fields = ed.solve_system_delays(sys, window=2.0, delta=0.1)
        assert set(fields) == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}
        for (i, j), fld in fields.items():
            assert fld.pair == (i, j)
            assert fld.tau_defect <= 1e-12


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
            f_ij = ed.solve_delay(qi, qj, eps, window=4.0, delta=0.1)
            f_ji = ed.solve_delay(qj, qi, eps, window=4.0, delta=0.1)
            gaps.append(np.abs(f_ij.values - f_ji.values).max())
        slope = loglog_slope(eps_list, gaps)
        assert abs(slope - 2.0) < 0.1

    def test_lipschitz_stability_bound(self):
        # both trajectories shifted: measured change <= eps/(1-kappa) * total
        qa, qb = origin(), drifting(2.0, 0.3)
        eps, shift = 0.05, 1e-3
        g1 = ed.solve_delay(qa, qb, eps, window=4.0, delta=0.1)
        g2 = ed.solve_delay(qa.shifted([shift, 0.0, 0.0]),
                            qb.shifted([0.0, shift, 0.0]), eps,
                            window=4.0, delta=0.1)
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
                                       [1e-2, 5e-3, 2.5e-3],
                                       window=4.0, delta=0.1)
        assert rep.passed
        assert abs(rep.slope - 3.0) < 0.1

    def test_circular_sweep_certifies_cubic(self):
        qi = ed.Trajectory.static([0.3, 0.2, 0.0])
        qj = ed.Trajectory.circular([0.0, 0.0, 0.0], 1.5, 0.7)
        rep = ed.expansion_order_sweep(qi, qj, [1e-2, 5e-3, 2.5e-3],
                                       window=4.0, delta=0.1)
        assert rep.passed and rep.slope >= 2.7
        assert len(rep.deviations) == 3

    def test_exact_gap_reports_pass(self):
        rep = ed.expansion_order_sweep(origin(), drifting(2.0, 0.0),
                                       [1e-2, 5e-3], window=2.0, delta=0.1)
        assert rep.passed and rep.slope == np.inf

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match="two"):
            ed.expansion_order_sweep(origin(), drifting(), [1e-2],
                                     window=2.0, delta=0.1)
        with pytest.raises(ValueError, match="positive"):
            ed.expansion_order_sweep(origin(), drifting(), [1e-2, 0.0],
                                     window=2.0, delta=0.1)


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
        # the delay fixed point runs elementwise; each element must stop
        # on the same iterate as a one-center solve
        qa = ed.Trajectory.circular([0.0, 0.0, 0.0], 0.3, 0.8)
        qb = ed.Trajectory.uniform([2.0, 0.0, 0.0], [0.2, 0.1, 0.0])
        sys = ed.ChargeSystem([qa, qb], masses=[1.0, 2.0],
                              charges=[1.0, -1.0], epsilon=0.05,
                              xi1=0.5, xi2=0.5)
        sys.external = lambda t, q, v: np.array([0.0, 0.1 * t, -q[0]])
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
        sys.external = lambda t, q, v: np.array([0.0, 0.0, -9.8])
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
        sys = two_charge_system()

        def flat(ci, cj, qi, vi, qj, vj):
            return np.zeros(3)

        with pytest.raises(ValueError, match="lip_x"):
            ed.assemble_charge_perturbation(sys, force=flat, window=4.0)
        spec = ed.assemble_charge_perturbation(sys, force=flat, window=4.0,
                                               lip_x=0.5)
        seg = stacked_segment(sys, 0.0)
        assert np.abs(spec(0.0, seg, sys.epsilon)[6:]).max() == 0.0

    def test_bad_mixing_rejected(self):
        with pytest.raises(ValueError, match="mixing"):
            ed.assemble_charge_perturbation(two_charge_system(),
                                            window=4.0, mixing=1.5)

    def test_wrong_state_size_rejected(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0)
        seg = HistorySegment.from_callable(lambda t: np.zeros(5), 0.0, 1.0)
        with pytest.raises(ValueError, match="components"):
            spec(0.0, seg, 0.0)

    def test_spec_metadata(self):
        sys = two_charge_system()
        spec = ed.assemble_charge_perturbation(sys, window=4.0, mixing=0.25)
        assert spec.kind == "charge-system"
        assert spec.params["mixing"] == 0.25
        assert spec.params["force"] == "softened-coulomb"
        assert not spec.uses_derivative
        assert spec.L2 > 1.0

    def test_single_particle_is_pure_external(self):
        sys = ed.ChargeSystem([drifting(1.0, 0.1)], masses=[2.0],
                              charges=[1.0], epsilon=0.05)
        spec = ed.assemble_charge_perturbation(sys, window=2.0)
        seg = stacked_segment(sys, 0.0)
        out = spec(0.0, seg, sys.epsilon)
        assert np.allclose(out[:3], [0.1, 0.0, 0.0])
        assert np.abs(out[3:]).max() == 0.0


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

    def test_positive_softening_required(self):
        with pytest.raises(ValueError, match="softening"):
            ed.softened_coulomb(softening=0.0)
