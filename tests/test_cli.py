"""Scenario runner: exit codes, artifacts, determinism.

The workhorse scenario is the linear saddle with delayed sine forcing,
whose stable response has the closed form
eps*a*(sin(w(rho-1)) - w*cos(w(rho-1)))/(1+w^2); it converges in two
iterations even on the coarse grid used here, which keeps the suite
quick while still exercising every artifact writer.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypershadow import cli
from hypershadow.hyperbolic import frame_from_descriptor
from hypershadow.invariance import OperatorConfig, CorrectionState, initial_state
from hypershadow.perturbations import ode_term, state_dependent_delay


def read_json(*parts):
    return json.loads(pathlib.Path(*parts).read_text())


def read_lines(*parts):
    return pathlib.Path(*parts).read_text().splitlines()


def scenario_dict(**over):
    scn = {
        "frame": {"mode": "analytic", "model": "lin-saddle",
                  "lambda_s": 1.0, "lambda_u": 1.0},
        "perturbation": {"kind": "delayed-sin-forcing",
                         "parameters": {"a": 1.0, "omega": 2.0,
                                        "h": 1.0, "lag": 1.0}},
        "config": {"eta": 0.25, "window": 24.0, "delta": 0.2,
                   "tol_eta": 1e-8},
        "eps": 0.01,
        "seed": 1,
    }
    scn.update(over)
    return scn


def write_scenario(tmp_path, name="scn.json", **over):
    over.setdefault("out", str(tmp_path / "out"))
    scn = scenario_dict(**over)
    path = tmp_path / name
    path.write_text(json.dumps(scn))
    return str(path), scn


# the benchmark's periodic-orbit frame and its operator settings
FLOQUET = ({"mode": "floquet", "model": "planar-limit-cycle"},
           {"eta": 0.25, "window": 12.0, "delta": 0.2, "tol_eta": 1e-6})
SDD_TANH = {"kind": "sdd-tanh", "parameters": {"h": 1.0, "c0": 0.5, "c1": 0.2}}
NEUTRAL = {"kind": "neutral-linear",
           "parameters": {"h": 1.0, "c0": 0.5, "c1": 0.5,
                          "deriv_bound": 1.0}}


def closed_form(rho, eps, a=1.0, omega=2.0, lag=1.0, lam=1.0):
    ph = omega * (np.asarray(rho, dtype=float) - lag)
    return eps * a * (lam * np.sin(ph) - omega * np.cos(ph)) \
        / (lam * lam + omega * omega)


@pytest.fixture(scope="module")
def linear_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("linrun")
    path, scn = write_scenario(tmp)
    code = cli.main(["run", path, "--quiet"])
    return {"path": path, "scn": scn, "out": scn["out"], "code": code}


class TestScenarioLoading:
    def test_missing_section_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"frame": {}, "config": {}}))
        with pytest.raises(ValueError, match="perturbation"):
            cli.load_scenario(str(p))

    def test_missing_eps_rejected(self, tmp_path):
        scn = scenario_dict()
        del scn["eps"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(scn))
        with pytest.raises(ValueError, match="eps"):
            cli.load_scenario(str(p))

    def test_default_out_next_to_scenario(self, tmp_path):
        p = tmp_path / "case.json"
        p.write_text(json.dumps(scenario_dict()))
        scn = cli.load_scenario(str(p))
        assert scn.out == str(tmp_path / "case") + "_out"
        assert scn.seed == 1 and scn.bounds_interval == (-2.0, 2.0)

    def test_bad_bounds_interval(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(scenario_dict(bounds_interval=[1.0])))
        with pytest.raises(ValueError, match="interval"):
            cli.load_scenario(str(p))

    @pytest.mark.parametrize("interval", [
        [2.0, -2.0], [1.0, 1.0], [0.0, math.nan], [0.0, math.inf],
        [-math.inf, 0.0]])
    def test_bounds_interval_must_be_finite_and_increasing(self, tmp_path,
                                                            interval):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(scenario_dict(bounds_interval=interval)))
        with pytest.raises(ValueError, match="finite with a < b"):
            cli.load_scenario(str(p))

    def test_unreadable_scenario_exits_one(self, tmp_path):
        p = tmp_path / "nonsense.json"
        p.write_text("{not json")
        assert cli.main(["run", str(p)]) == 1


class TestRunVerb:
    def test_converges_cleanly(self, linear_run):
        assert linear_run["code"] == 0

    def test_artifact_set(self, linear_run):
        names = sorted(os.listdir(linear_run["out"]))
        assert names == ["bounds.csv", "oracle.csv", "report.json",
                         "residuals.csv", "state.json", "xhat_s.csv",
                         "xhat_s.json", "xhat_t.csv", "xhat_t.json",
                         "xhat_u.csv", "xhat_u.json"]

    def test_report_contents(self, linear_run):
        rep = read_json(linear_run["out"], "report.json")
        assert rep["converged"] is True
        assert rep["eps"] == 0.01
        assert rep["kappa_hat"] < 1.0
        assert len(rep["bounds"]) == 8  # 2 for X, 3 each for xs, xu

    def test_residual_table_layout(self, linear_run):
        lines = read_lines(linear_run["out"], "residuals.csv")
        assert lines[0] == "iter,d_eta,kappa_hat,E_c,E_s,E_u"
        assert len(lines) == 1 + read_json(linear_run["out"],
                                           "report.json")["iterations"]

    def test_bounds_table_layout(self, linear_run):
        lines = read_lines(linear_run["out"], "bounds.csv")
        assert lines[0] == "component,j,exponent,bound,semi_exponent,semi_bound"
        comps = [l.split(",")[0] for l in lines[1:]]
        assert comps == ["X", "X", "xs", "xs", "xs", "xu", "xu", "xu"]
        assert all(float(l.split(",")[3]) >= 0.0 for l in lines[1:])

    def test_oracle_artifact_matches_closed_form(self, linear_run):
        lines = read_lines(linear_run["out"], "oracle.csv")
        assert lines[0] == "rho,closed_form,computed,abs_err"
        errs = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(errs) < 1e-9
        rho0, want0 = (float(x) for x in lines[1].split(",")[:2])
        assert want0 == pytest.approx(closed_form(rho0, 0.01), abs=1e-15)

    def test_null_optional_parameters_still_write_the_oracle(self, tmp_path,
                                                             linear_run):
        # lag and axis null take their defaults 1.0 and 1, in the spec
        # and in the oracle, so the artifacts match the explicit run
        params = {"a": 1.0, "omega": 2.0, "h": 1.0, "lag": None,
                  "axis": None}
        path, scn = write_scenario(
            tmp_path, perturbation={"kind": "delayed-sin-forcing",
                                    "parameters": params})
        assert cli.main(["run", path, "--quiet"]) == 0
        for name in ("oracle.csv", "xhat_s.csv"):
            with open(os.path.join(scn["out"], name)) as a, \
                    open(os.path.join(linear_run["out"], name)) as b:
                assert a.read() == b.read()

    def test_state_roundtrip(self, linear_run):
        state = cli.load_state(linear_run["out"])
        truth = closed_form(state.xs.nodes, 0.01)
        core = np.abs(state.xs.nodes) <= 2.0
        assert np.abs(state.xs.values[core, 1] - truth[core]).max() < 1e-9
        assert state.X.xhat.values.max() == 0.0

    def test_zero_eps_single_iteration(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=0.0)
        assert cli.main(["run", path, "--quiet"]) == 0
        rep = read_json(scn["out"], "report.json")
        assert rep["iterations"] == 1
        assert rep["distances"] == [0.0]
        state = cli.load_state(scn["out"])
        assert np.abs(state.xs.values).max() == 0.0
        assert np.abs(state.X.xhat.values).max() == 0.0

    def test_eta_validation_blocks_artifacts(self, tmp_path, capsys):
        path, scn = write_scenario(
            tmp_path, config={"eta": 1.5, "window": 24.0, "delta": 0.2,
                              "tol_eta": 1e-8})
        assert cli.main(["run", path]) == 1
        assert not os.path.exists(scn["out"])
        assert "must stay below" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["t_int", "quadrature", "gauss_order",
                                     "ell", "interp_m", "integrand_bound"])
    def test_removed_config_key_is_exit_one(self, tmp_path, capsys, key):
        config = dict(scenario_dict()["config"], **{key: 3})
        path, scn = write_scenario(tmp_path, config=config)
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"config key {key!r} is not a setting" in err
        assert "Traceback" not in err
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("key,value,reason", [
        ("eps", math.nan, "eps must be nonnegative and finite, got nan"),
        ("eps", math.inf, "eps must be nonnegative and finite, got inf"),
        ("tol_eta", math.inf, "tol_eta must be positive and finite, got inf"),
        ("tol_eta", math.nan, "tol_eta must be positive and finite, got nan"),
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("max_iters", True, "max_iters must be an integer, got True"),
        ("tol_eta", True, "tol_eta is not numeric: True"),
        ("delta", "0.1", "delta is not numeric: '0.1'"),
        ("eta", "0.25", "eta is not numeric: '0.25'"),
        ("window", False, "window is not numeric: False"),
        ("eps", True, "eps is not numeric: True"),
        ("eps", "0.01", "eps is not numeric: '0.01'"),
    ])
    def test_bad_setting_fails_before_compute(self, tmp_path, capsys,
                                              monkeypatch, key, value,
                                              reason):
        # a value that is not a number of the right kind is a scenario
        # failure, reported in one line before the operator runs
        monkeypatch.setattr(cli, "iterate",
                            lambda *a: pytest.fail("iterated"))
        if key == "eps":
            path, scn = write_scenario(tmp_path, eps=value)
        else:
            config = dict(scenario_dict()["config"], **{key: value})
            path, scn = write_scenario(tmp_path, config=config)
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"hypershadow: {reason}"]
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("verb,over,reason", [
        ("run", {"perturbation": {"kind": "delayed-sin-forcing",
                                  "parameters": {"a": math.nan,
                                                 "omega": 2.0}}},
         "descriptor kind 'delayed-sin-forcing' parameter 'a' is not "
         "finite: nan"),
        ("run", {"perturbation": {"kind": "sdd-tanh",
                                  "parameters": {"h": 1.0, "c0": math.nan,
                                                 "c1": 0.2}}},
         "descriptor kind 'sdd-tanh' parameter 'c0' is not finite: nan"),
        ("run", {"frame": {"mode": "analytic", "model": "saddle-cubic",
                           "cubic": [math.nan, 0.2]}},
         "cubic is not finite: nan"),
        ("run", {"frame": {"mode": "analytic", "model": "lin-saddle",
                           "lambda_s": math.inf}},
         "lambda_s is not finite: inf"),
        ("run", {"frame": {"mode": "analytic", "model": "lin-saddle",
                           "rotation": [[1, 0, 0], [0, 1, 0],
                                        [0, 0, math.nan]]}},
         "rotation is not finite: nan"),
        ("run", {"seed": 1.7},
         "cannot read scenario: seed must be an integer, got 1.7"),
        ("run", {"seed": True},
         "cannot read scenario: seed must be an integer, got True"),
        ("run", {"bounds_interval": [True, 2.0]},
         "cannot read scenario: bounds_interval is not numeric: True"),
        ("sweep", {"eps": [0.04, "x", 0.01]}, "eps is not numeric: 'x'"),
        ("sweep", {"eps": [0.04, True, 0.01]}, "eps is not numeric: True"),
        ("sweep", {"eps": [math.nan, 0.02, 0.01]},
         "sweep eps values must be positive and finite"),
        ("run", {"perturbation": {"kind": "small-delay",
                                  "parameters": {"h": 1.0, "model_params": {
                                      "cubic": [math.nan, 0.0]}}}},
         "cubic is not finite: nan"),
        ("run", {"frame": {"mode": "floquet", "model": "planar-limit-cycle",
                           "parameters": {"delta": True}}},
         "frame parameter 'delta' is not numeric: True"),
        ("run", {"frame": {"mode": "floquet", "model": "planar-limit-cycle",
                           "parameters": {"delta": -0.01}}},
         "frame parameter 'delta' must be positive, got -0.01"),
        ("run", {"perturbation": {"kind": "ode-sin-forcing",
                                  "parameters": {"a": 0.1, "omega": 1.0,
                                                 "axis": 1.7}}},
         "descriptor kind 'ode-sin-forcing' parameter 'axis' is not an "
         "integer: 1.7"),
        # 2T/delta = 479.9999995 is no whole number of cells: resolve
        # says so before compute, as every grid of the run would
        ("run", {"config": {"eta": 0.25, "window": 24.0,
                            "delta": 0.1000000001041667, "tol_eta": 1e-8}},
         "window must hold an integer number of grid cells: "
         "2 * 24.0 / 0.1000000001041667 = 479.9999995"),
        # too coarse for the orbit's degree-5 stencil, and so fine that
        # the orbit and the monodromy would hold millions of cells
        ("run", {"frame": {"mode": "floquet", "model": "planar-limit-cycle",
                           "parameters": {"delta": 10}}},
         "frame parameter 'delta' must be at most pi/3 = 1.0472, three "
         "cells per half period for the orbit's degree-5 stencil, got 10.0"),
        ("sweep", {"frame": {"mode": "floquet",
                             "model": "planar-limit-cycle",
                             "parameters": {"delta": 1e-6}},
                   "eps": [0.01, 0.005, 0.0025]},
         "frame parameter 'delta' must be at least 0.0001, at most 62832 "
         "cells per period, got 1e-06"),
    ])
    def test_bad_number_fails_before_compute(self, tmp_path, capsys,
                                             monkeypatch, verb, over,
                                             reason):
        # a value that is not a finite number, or a number passed as a
        # bool or string, is named in one line before the operator runs
        monkeypatch.setattr(cli, "iterate",
                            lambda *a: pytest.fail("iterated"))
        path, scn = write_scenario(tmp_path, **over)
        assert cli.main([verb, path]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"hypershadow: {reason}"]
        assert not os.path.exists(scn["out"])

    def test_floquet_step_too_coarse_for_the_orbit_names_the_step(
            self, tmp_path, capsys, monkeypatch):
        # inside the stencil bound, but the centre multiplier of a
        # monodromy built on 0.2 steps sits 2.4e-6 from 1
        monkeypatch.setattr(cli, "iterate",
                            lambda *a: pytest.fail("iterated"))
        frame = {"mode": "floquet", "model": "planar-limit-cycle",
                 "parameters": {"delta": 0.2}}
        path, scn = write_scenario(tmp_path, frame=frame, config=FLOQUET[1])
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "hypershadow: frame parameter 'delta' = 0.2 is too coarse for "
            "the stored orbit: monodromy must have exactly one multiplier "
            "at 1, found 0 within 1e-6 (nearest |mu - 1| = ")
        assert not os.path.exists(scn["out"])

    def test_non_finite_delay_is_exit_four(self, tmp_path, capsys,
                                           monkeypatch):
        # a delay map that turns NaN beyond t = 3 fails at the lookup,
        # naming the centre, and no interpolation warning gets out
        spec = state_dependent_delay(
            lambda t, y: 0.1 * y,
            lambda t, x: np.where(t > 3.0, math.nan, -0.5), h=1.0)
        monkeypatch.setattr(cli, "spec_from_descriptor", lambda desc: spec)
        path, scn = write_scenario(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", path]) == 4
        assert caught == []
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "non-finite value: history lookup offset nan at t=" in err
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("interval", [[2.0, -2.0], [0.0, math.nan],
                                          [0.0, math.inf]])
    def test_bad_bounds_interval_fails_before_compute(self, tmp_path, capsys,
                                                      monkeypatch, interval):
        monkeypatch.setattr(cli, "iterate",
                            lambda *a: pytest.fail("iterated"))
        path, scn = write_scenario(tmp_path, bounds_interval=interval)
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "bounds_interval must be finite with a < b" in err
        assert not os.path.exists(scn["out"])

    def test_unknown_perturbation_is_descriptor_failure(self, tmp_path):
        path, scn = write_scenario(
            tmp_path, perturbation={"kind": "levitation"})
        assert cli.main(["run", path]) == 1
        assert not os.path.exists(scn["out"])

    def test_eps_list_needs_sweep_verb(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["run", path]) == 1
        assert not os.path.exists(scn["out"])

    def test_ball_exit_is_exit_three(self, tmp_path, capsys):
        path, scn = write_scenario(
            tmp_path, eps=1.0,
            perturbation={"kind": "ode-sin-forcing",
                          "parameters": {"a": 100.0, "omega": 1.0}})
        assert cli.main(["run", path]) == 3
        assert "infeasible" in capsys.readouterr().err
        assert not os.path.exists(scn["out"])

    def test_non_finite_perturbation_is_exit_four(self, tmp_path, capsys,
                                                  monkeypatch):
        # a spec that returns NaN beyond t = 3: the operator must stop
        # with its own exit code, not report infeasible radii
        def g(t, x):
            out = np.zeros_like(x)
            out[:, 1] = np.where(t > 3.0, np.nan, 0.1)
            return out

        monkeypatch.setattr(cli, "spec_from_descriptor",
                            lambda desc: ode_term(g))
        path, scn = write_scenario(tmp_path)
        assert cli.main(["run", path]) == 4
        err = capsys.readouterr().err
        assert "non-finite value" in err and "not finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(scn["out"])

    def test_flow_guard_failure_is_exit_four(self, tmp_path, capsys):
        # after one step X - 1 reaches 0.97 outside the core, beyond
        # t0 = 0.2 where the core-only ball check does not look, and the
        # next flow fails its round-trip guard
        path, scn = write_scenario(
            tmp_path, eps=0.04,
            frame={"mode": "analytic", "model": "saddle-cubic",
                   "lambda_s": 1.0, "lambda_u": 1.0, "cubic": [0.3, 0.2]},
            perturbation={"kind": "sdd-tanh",
                          "parameters": {"h": 1.0, "c0": 0.5, "c1": 0.2}})
        assert cli.main(["run", path]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert "flow guard failed: iteration 2: round-trip defect" in err
        assert "sup|X - 1| = 0.972" in err and "t0 = 0.2" in err
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("frame,perturbation,eps,code,says", [
        # kinds read their output dimension off the state
        (FLOQUET, {"kind": "zero"}, 0.01, 0, None),
        (FLOQUET, {"kind": "ode-sin-forcing",
                   "parameters": {"a": 0.45, "omega": 1.0, "axis": 1}},
         0.01, 0, None),
        (None, {"kind": "delayed-sin-forcing",
                "parameters": {"a": 1.0, "omega": 2.0, "axis": 5}},
         0.01, 1, "does not fit the model of dimension 3"),
        # the center update would make X = 1 + xhat reach 0
        (None, SDD_TANH, 0.5, 3, "left the 't' ball at level 0"),
        # the delay reaches past the declared history radius
        (None, NEUTRAL, 0.02, 1, "history lookup at -1.001 outside radius 1"),
    ])
    def test_descriptor_misfits_end_in_their_codes(self, tmp_path, capsys,
                                                   frame, perturbation, eps,
                                                   code, says):
        over = {"frame": frame[0], "config": frame[1]} if frame else {}
        path, scn = write_scenario(tmp_path, perturbation=perturbation,
                                   eps=eps, **over)
        assert cli.main(["run", path, "--quiet"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert len(err.strip().splitlines()) == 1 and says in err
            assert not os.path.exists(scn["out"])

    def test_iteration_cap_is_exit_two(self, tmp_path):
        path, scn = write_scenario(tmp_path)
        assert cli.main(["run", path, "--max-iters", "1", "--quiet"]) == 2
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("verb", ["run", "sweep", "verify"])
    def test_contraction_at_one_is_exit_two(self, tmp_path, capsys,
                                            monkeypatch, linear_run, verb):
        # a converged run, a sweep member or a verify whose contraction
        # estimate reaches 1 says so in the same one line and writes
        # nothing
        iterate, gamma_step = cli.iterate, cli.gamma_step

        def at_one(*a, **kw):
            state, report = iterate(*a, **kw)
            assert report.converged
            return state, dataclasses.replace(report, kappa_hat=1.0)

        def same_distance(*a):
            # every application moves the state by the same distance
            new, defects = gamma_step(*a)
            return new, dict(defects, d_eta=1.0)

        monkeypatch.setattr(cli, "iterate", at_one)
        monkeypatch.setattr(cli, "gamma_step", same_distance)
        eps = [4e-3, 2e-3, 1e-3] if verb == "sweep" else 0.01
        path, scn = write_scenario(tmp_path, eps=eps)
        argv = [verb, path, "--quiet"]
        if verb == "verify":
            argv.insert(2, linear_run["out"])
        assert cli.main(argv) == 2
        prefix = "sweep member eps=0.004 failed: " if verb == "sweep" else ""
        assert capsys.readouterr().err.splitlines() == [
            f"hypershadow: {prefix}not certifiable: measured contraction "
            f"ratio 1.000 >= 1"]
        assert not os.path.exists(scn["out"])

    def test_out_flag_overrides(self, tmp_path):
        path, _ = write_scenario(tmp_path, eps=0.0)
        other = tmp_path / "elsewhere"
        assert cli.main(["run", path, "--out", str(other), "--quiet"]) == 0
        assert (other / "report.json").exists()

    def test_quiet_silences_summary(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, eps=0.0)
        cli.main(["run", path, "--quiet"])
        assert capsys.readouterr().out == ""

    def test_byte_identical_reruns(self, tmp_path, linear_run):
        # every file run, verify and sweep write, JSON and sidecars too
        def tree(root):
            return {os.path.relpath(os.path.join(d, f), root):
                    pathlib.Path(d, f).read_bytes()
                    for d, _, files in os.walk(root) for f in files}

        path, scn = write_scenario(tmp_path)
        assert cli.main(["run", path, "--quiet"]) == 0
        assert tree(scn["out"]) == tree(linear_run["out"])
        verified = [str(tmp_path / f"verify{i}") for i in range(2)]
        for out in verified:
            assert cli.main(["verify", path, linear_run["out"], "--out", out,
                             "--quiet"]) == 0
        assert sorted(tree(verified[0])) == ["bounds.csv", "verify.json"]
        assert tree(verified[0]) == tree(verified[1])
        swept = []
        for i in range(2):
            spath, sscn = write_scenario(tmp_path, name=f"sweep{i}.json",
                                         out=str(tmp_path / f"sweep{i}"),
                                         eps=[4e-3, 2e-3, 1e-3])
            assert cli.main(["sweep", spath, "--quiet"]) == 0
            swept.append(tree(sscn["out"]))
        # sweep.json, sweep.csv and the 11 run artifacts of each member
        assert len(swept[0]) == 2 + 3 * 11 and swept[0] == swept[1]


class TestSweepVerb:
    def test_linear_sweep_slope(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path, "--quiet"]) == 0
        sw = read_json(scn["out"], "sweep.json")
        assert abs(sw["slope_xhat"] - 1.0) < 0.02
        # the time change never moves on this scenario
        assert sw["slope_X"] is None and max(sw["X_c0"]) == 0.0
        lines = read_lines(scn["out"], "sweep.csv")
        assert lines[0] == "eps,xhat_c0,X_c0" and len(lines) == 4
        for e in (0.004, 0.002, 0.001):
            member = os.path.join(scn["out"], f"eps_{e:g}")
            assert os.path.exists(os.path.join(member, "report.json"))

    def test_two_values_rejected(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3])
        assert cli.main(["sweep", path]) == 1
        assert not os.path.exists(scn["out"])

    def test_zero_only_rejected(self, tmp_path):
        path, _ = write_scenario(tmp_path, eps=[0.0])
        assert cli.main(["sweep", path]) == 1
        path2, _ = write_scenario(tmp_path, name="z3.json",
                                  eps=[0.0, 0.0, 0.0])
        assert cli.main(["sweep", path2]) == 1

    def test_non_dyadic_rejected(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, eps=[3e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path]) == 1
        assert "dyadically" in capsys.readouterr().err

    def test_scalar_eps_rejected(self, tmp_path):
        path, _ = write_scenario(tmp_path, eps=0.01)
        assert cli.main(["sweep", path]) == 1

    def test_member_failure_propagates(self, tmp_path):
        path, _ = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path, "--max-iters", "1", "--quiet"]) == 2

    def test_first_failing_member_ends_the_sweep(self, tmp_path, capsys,
                                                 monkeypatch):
        # the center update leaves the t ball at every eps of this list:
        # the sweep stops at eps 0.8 and says so in one line
        attempted = []
        iterate = cli.iterate

        def counting(fr, spec, cfg, **kw):
            attempted.append(cfg.eps)
            return iterate(fr, spec, cfg, **kw)

        monkeypatch.setattr(cli, "iterate", counting)
        path, scn = write_scenario(tmp_path, eps=[0.8, 0.4, 0.2],
                                   perturbation=SDD_TANH)
        assert cli.main(["sweep", path]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "sweep member eps=0.8 failed: infeasible radii" in err
        assert attempted == [0.8]
        assert not os.path.exists(scn["out"])

    def test_floquet_members_share_one_run_layout(self, tmp_path,
                                                  monkeypatch):
        # the frame's adapted bases are evaluated on the two lattices of
        # the run (nodes and Gauss points) once per sweep, not once per
        # member, and every member still equals a standalone run
        from hypershadow import hyperbolic
        from hypershadow.invariance import iterate
        frame, config = FLOQUET
        path, scn = write_scenario(
            tmp_path, frame=frame, config=config, eps=[0.01, 0.005, 0.0025],
            perturbation={"kind": "ode-sin-forcing", "parameters": {
                "a": 0.45, "omega": 1.0, "n": 2, "axis": 1}})
        fr = frame_from_descriptor(frame)
        monkeypatch.setattr(cli, "frame_from_descriptor", lambda desc: fr)
        lattices = []
        basis = hyperbolic.FloquetFrame._basis
        monkeypatch.setattr(hyperbolic.FloquetFrame, "_basis",
                            lambda self, ts: lattices.append(np.size(ts))
                            or basis(self, ts))
        assert cli.main(["sweep", path, "--quiet"]) == 0
        assert len(lattices) == 2
        monkeypatch.undo()
        for eps in scn["eps"]:
            _, spec, cfg = cli.load_scenario(path).resolve(eps=eps)
            want, _ = iterate(fr, spec, cfg)
            got = cli.load_state(os.path.join(scn["out"], f"eps_{eps:g}"))
            for a, b in ((got.X.xhat, want.X.xhat), (got.xs, want.xs),
                         (got.xu, want.xu)):
                assert np.array_equal(a.values, b.values), eps

    def test_vanishing_response_writes_strict_json(self, tmp_path, capsys):
        # on the saddle, sdd-tanh only moves along the orbit: every
        # |xhat| is 0, so its slope is undefined and written as null
        path, scn = write_scenario(
            tmp_path, eps=[4e-3, 2e-3, 1e-3],
            perturbation={"kind": "sdd-tanh",
                          "parameters": {"h": 0.5, "c0": 0.3, "c1": 0.1}},
            config={"eta": 0.25, "window": 12.0, "delta": 0.2,
                    "tol_eta": 1e-3})
        assert cli.main(["sweep", path]) == 0
        assert "undefined" in capsys.readouterr().out

        def refuse(token):
            raise ValueError(f"non-finite JSON constant {token}")

        text = pathlib.Path(scn["out"], "sweep.json").read_text()
        sw = json.loads(text, parse_constant=refuse)
        assert max(sw["xhat_c0"]) == 0.0 and sw["slope_xhat"] is None
        assert abs(sw["slope_X"] - 1.0) < 0.05

    def test_thread_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERSHADOW_THREADS", "2")
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path, "--quiet"]) == 0
        sw = read_json(scn["out"], "sweep.json")
        assert abs(sw["slope_xhat"] - 1.0) < 0.02

    def test_thread_env_is_ignored(self, tmp_path, monkeypatch):
        # members run serially; a value that is no number changes nothing
        monkeypatch.setenv("HYPERSHADOW_THREADS", "abc")
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path, "--quiet"]) == 0
        assert os.path.exists(os.path.join(scn["out"], "sweep.json"))


class TestVerifyVerb:
    def test_converged_state_reverifies(self, tmp_path, linear_run):
        path, scn = write_scenario(tmp_path, name="ver.json")
        assert cli.main(["verify", path, linear_run["out"], "--quiet"]) == 0
        rec = read_json(scn["out"], "verify.json")
        assert rec["e_eta"] <= 2e-8
        assert rec["kappa_hat"] < 1.0
        assert os.path.exists(os.path.join(scn["out"], "bounds.csv"))

    def test_corrupted_state_inflates_the_certificate(self, tmp_path,
                                                      linear_run):
        state = cli.load_state(linear_run["out"])
        vals = state.xs.values.copy()
        vals[:, 1] += 0.01
        bad = CorrectionState(X=state.X, xs=state.xs.with_values(vals),
                              xu=state.xu, s_ball=state.s_ball,
                              u_ball=state.u_ball)
        bad_dir = tmp_path / "bad_state"
        cli.save_state(bad, str(bad_dir))
        path, scn = write_scenario(tmp_path, name="ver.json")
        assert cli.main(["verify", path, str(bad_dir), "--quiet"]) == 0
        rec = read_json(scn["out"], "verify.json")
        assert rec["e_eta"] > 1e-4  # clean state sits near 1e-11
        lines = read_lines(scn["out"], "bounds.csv")
        xs0 = [l for l in lines[1:] if l.startswith("xs,0")][0]
        assert float(xs0.split(",")[3]) > 1e-3

    def test_expansion_seeded_state_certifies(self, tmp_path):
        # first-order response used as an externally produced warm start
        path, scn = write_scenario(tmp_path, name="ver.json")
        loaded = cli.load_scenario(path)
        fr, spec, cfg = loaded.resolve()
        seed = initial_state(fr, cfg)
        vals = seed.xs.values.copy()
        vals[:, 1] = closed_form(seed.xs.nodes, cfg.eps)
        warm = CorrectionState(X=seed.X, xs=seed.xs.with_values(vals),
                               xu=seed.xu, s_ball=seed.s_ball,
                               u_ball=seed.u_ball)
        warm_dir = tmp_path / "warm"
        cli.save_state(warm, str(warm_dir))
        assert cli.main(["verify", path, str(warm_dir), "--quiet"]) == 0
        rec = read_json(scn["out"], "verify.json")
        assert np.isfinite(rec["e_eta"]) and rec["e_eta"] > 0.0

    def test_mismatched_grid_is_exit_one(self, tmp_path, capsys,
                                         linear_run):
        config = dict(scenario_dict()["config"], delta=0.1)
        path, scn = write_scenario(tmp_path, name="ver.json", config=config)
        assert cli.main(["verify", path, linear_run["out"]]) == 1
        err = capsys.readouterr().err
        assert "does not match the scenario" in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("perturbation,eps,code,says", [
        (SDD_TANH, 0.5, 3, "left the 't' ball at level 0"),
        (NEUTRAL, 0.02, 1, "history lookup at -1.001 outside radius 1"),
    ])
    def test_operator_failures_end_in_their_codes(self, tmp_path, capsys,
                                                  linear_run, perturbation,
                                                  eps, code, says):
        path, scn = write_scenario(tmp_path, name="ver.json", eps=eps,
                                   perturbation=perturbation)
        assert cli.main(["verify", path, linear_run["out"]]) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and says in err
        assert not os.path.exists(scn["out"])

    @pytest.mark.parametrize("interval", [[2.0, -2.0], [0.0, math.nan],
                                          [0.0, math.inf]])
    def test_bad_bounds_interval_fails_before_compute(self, tmp_path, capsys,
                                                      monkeypatch, linear_run,
                                                      interval):
        monkeypatch.setattr(cli, "gamma_step",
                            lambda *a: pytest.fail("stepped"))
        path, scn = write_scenario(tmp_path, name="ver.json",
                                   bounds_interval=interval)
        assert cli.main(["verify", path, linear_run["out"]]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "bounds_interval must be finite with a < b" in err
        assert not os.path.exists(scn["out"])

    def test_non_finite_time_change_is_exit_one(self, tmp_path, capsys,
                                                linear_run):
        # a NaN node in the saved X - 1 is refused on load, naming the
        # node, before any flow is solved and with no numpy warning
        bad_dir = tmp_path / "nan_state"
        shutil.copytree(linear_run["out"], bad_dir)
        csv = bad_dir / "xhat_t.csv"
        lines = csv.read_text().splitlines()
        t = lines[5].split(",")[0]
        lines[5] = f"{t},nan"
        csv.write_text("\n".join(lines) + "\n")
        path, scn = write_scenario(tmp_path, name="ver.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["verify", path, str(bad_dir)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"hypershadow: X - 1 is not finite at node t = {float(t):g}: nan"]
        assert not os.path.exists(scn["out"])

    def test_record_does_not_depend_on_where_the_layout_lives(self,
                                                                tmp_path):
        # one layout under two roots whose paths differ in length
        texts = []
        for root in (tmp_path / "a", tmp_path / "a-longer-checkout-path"):
            root.mkdir()
            path, scn = write_scenario(root)
            assert cli.main(["run", path, "--quiet"]) == 0
            ver = root / "verify"
            assert cli.main(["verify", path, scn["out"], "--out", str(ver),
                             "--quiet"]) == 0
            texts.append((ver / "verify.json").read_bytes())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["state_dir"] == os.path.join("..", "out")

    @pytest.mark.parametrize("grid", ["xhat_t", "xhat_u"])
    def test_state_without_zero_extension_is_exit_one(self, tmp_path, capsys,
                                                      monkeypatch, linear_run,
                                                      grid):
        # a hand-edited sidecar whose grid would not vanish past the
        # window is refused on load, before any operator step
        monkeypatch.setattr(cli, "gamma_step",
                            lambda *a: pytest.fail("stepped"))
        bad_dir = tmp_path / "linear_state"
        shutil.copytree(linear_run["out"], bad_dir)
        sidecar = bad_dir / f"{grid}.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(dict(meta, extension="linear")))
        path, scn = write_scenario(tmp_path, name="ver.json")
        assert cli.main(["verify", path, str(bad_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hypershadow: state grid {grid} must extend by zero, got "
            f"extension 'linear'"]
        assert not os.path.exists(scn["out"])

    def test_missing_state_dir_is_exit_one(self, tmp_path):
        path, _ = write_scenario(tmp_path, name="ver.json")
        assert cli.main(["verify", path, str(tmp_path / "nowhere")]) == 1


class TestStatePersistence:
    def test_roundtrip_preserves_everything(self, tmp_path):
        scn = cli.load_scenario(write_scenario(tmp_path)[0])
        fr, spec, cfg = scn.resolve()
        state = initial_state(fr, cfg)
        cli.save_state(state, str(tmp_path / "st"), seed=9)
        back = cli.load_state(str(tmp_path / "st"))
        assert np.array_equal(back.xs.values, state.xs.values)
        assert back.t_ball.c == state.t_ball.c
        assert back.s_ball.c == state.s_ball.c
        assert back.xs.delta == state.xs.delta
        meta = read_json(tmp_path, "st", "state.json")
        assert meta["seed"] == 9

    def test_load_missing_dir_raises(self, tmp_path):
        with pytest.raises(OSError):
            cli.load_state(str(tmp_path / "void"))


# every shipped kind with working parameters, plus one unknown kind
FUZZ_UNKNOWN = "levitation"
FUZZ_KINDS = {
    "zero": {},
    "ode-sin-forcing": {"a": 0.45, "omega": 1.0, "axis": 1},
    "delayed-sin-forcing": {"a": 1.0, "omega": 2.0, "h": 1.0, "lag": 1.0},
    "multi-delay": {"pairs": [[-1.0, 1.0], [0.5, 2.0]], "h": 1.5},
    "sdd-tanh": {"h": 1.0, "c0": 0.5, "c1": 0.2},
    "neutral-linear": {"h": 1.0, "c0": 0.3, "c1": 0.1},
    "nested-abs": {"h": 1.0, "inner_shift": -0.5},
    "small-delay": {"model": "lin-saddle", "tau": 0.8, "h": 0.2},
    FUZZ_UNKNOWN: {"h": 1.0},
}
# the benchmark's frames and operator settings
FUZZ_FRAMES = {
    "analytic": ({"mode": "analytic", "model": "saddle-cubic",
                  "lambda_s": 1.0, "lambda_u": 1.0, "cubic": [0.3, 0.2]},
                 {"eta": 0.25, "window": 24.0, "delta": 0.1,
                  "tol_eta": 1e-8}),
    "floquet": FLOQUET,
}


@st.composite
def fuzz_scenarios(draw):
    """A bench frame, a kind, one parameter kept, dropped or spoiled."""
    frame, config = FUZZ_FRAMES[draw(st.sampled_from(sorted(FUZZ_FRAMES)))]
    kind = draw(st.sampled_from(sorted(FUZZ_KINDS)))
    params = dict(FUZZ_KINDS[kind])
    if params:
        key = draw(st.sampled_from(sorted(params)))
        params[key] = draw(st.sampled_from(
            ["keep", "missing", "oops", None, -3.0, 0.0, 7.0, 1e6]))
        if params[key] == "keep":
            params[key] = FUZZ_KINDS[kind][key]
        elif params[key] == "missing":
            del params[key]
    return {"frame": frame, "config": config,
            "perturbation": {"kind": kind, "parameters": params},
            "eps": draw(st.floats(0.0, 0.6)), "seed": 1}


class TestFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(fuzz_scenarios())
    def test_every_scenario_ends_in_a_documented_code(self, scn):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            path = os.path.join(tmp, "scn.json")
            with open(path, "w") as fh:
                json.dump(dict(scn, out=out), fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["run", path, "--max-iters", "3", "--quiet"])
            assert code in (0, 1, 2, 3, 4)
            if code != 0:
                assert len(err.getvalue().splitlines()) == 1, err.getvalue()
                assert not os.path.exists(out)
            # a non-numeric value of a numeric parameter is named
            kind = scn["perturbation"]["kind"]
            spoiled = [key for key, value
                       in scn["perturbation"]["parameters"].items()
                       if value == "oops"
                       and not isinstance(FUZZ_KINDS[kind][key], str)]
            if code == 1 and spoiled and kind != FUZZ_UNKNOWN:
                assert f"parameter {spoiled[0]!r}" in err.getvalue()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=0.0)
        proc = subprocess.run(
            [sys.executable, "-m", "hypershadow", "run", path, "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(scn["out"], "report.json"))

    def test_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main([])
