"""Scenario runner: exit codes, artifacts, determinism.

The workhorse scenario is the linear saddle with delayed sine forcing,
whose stable response has the closed form
eps*a*(sin(w(rho-1)) - w*cos(w(rho-1)))/(1+w^2); it converges in two
iterations even on the coarse grid used here, which keeps the suite
quick while still exercising every artifact writer.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hypershadow import cli
from hypershadow.hyperbolic import frame_from_descriptor
from hypershadow.invariance import OperatorConfig, CorrectionState, initial_state
from hypershadow.perturbations import ode_term


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
        rep = json.load(open(os.path.join(linear_run["out"], "report.json")))
        assert rep["converged"] is True
        assert rep["eps"] == 0.01
        assert rep["kappa_hat"] < 1.0
        assert len(rep["bounds"]) == 8  # 2 for X, 3 each for xs, xu

    def test_residual_table_layout(self, linear_run):
        lines = open(os.path.join(linear_run["out"],
                                  "residuals.csv")).read().splitlines()
        assert lines[0] == "iter,d_eta,kappa_hat,E_c,E_s,E_u"
        assert len(lines) == 1 + json.load(
            open(os.path.join(linear_run["out"], "report.json")))["iterations"]

    def test_bounds_table_layout(self, linear_run):
        lines = open(os.path.join(linear_run["out"],
                                  "bounds.csv")).read().splitlines()
        assert lines[0] == "component,j,exponent,bound,semi_exponent,semi_bound"
        comps = [l.split(",")[0] for l in lines[1:]]
        assert comps == ["X", "X", "xs", "xs", "xs", "xu", "xu", "xu"]
        assert all(float(l.split(",")[3]) >= 0.0 for l in lines[1:])

    def test_oracle_artifact_matches_closed_form(self, linear_run):
        lines = open(os.path.join(linear_run["out"],
                                  "oracle.csv")).read().splitlines()
        assert lines[0] == "rho,closed_form,computed,abs_err"
        errs = [float(l.split(",")[3]) for l in lines[1:]]
        assert max(errs) < 1e-9
        rho0, want0 = (float(x) for x in lines[1].split(",")[:2])
        assert want0 == pytest.approx(closed_form(rho0, 0.01), abs=1e-15)

    def test_state_roundtrip(self, linear_run):
        state = cli.load_state(linear_run["out"])
        truth = closed_form(state.xs.nodes, 0.01)
        core = np.abs(state.xs.nodes) <= 2.0
        assert np.abs(state.xs.values[core, 1] - truth[core]).max() < 1e-9
        assert state.X.xhat.values.max() == 0.0

    def test_zero_eps_single_iteration(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=0.0)
        assert cli.main(["run", path, "--quiet"]) == 0
        rep = json.load(open(os.path.join(scn["out"], "report.json")))
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

    def test_non_finite_perturbation_is_exit_four(self, tmp_path, capsys,
                                                  monkeypatch):
        # a spec that returns NaN beyond t = 3: the operator must stop
        # with its own exit code, not report infeasible radii
        def g(t, x):
            return np.array([0.0, np.nan if t > 3.0 else 0.1, 0.0])

        monkeypatch.setattr(cli, "spec_from_descriptor",
                            lambda desc: ode_term(g))
        path, scn = write_scenario(tmp_path)
        assert cli.main(["run", path]) == 4
        err = capsys.readouterr().err
        assert "non-finite value" in err and "not finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(os.path.join(scn["out"], "report.json"))

    def test_iteration_cap_is_exit_two(self, tmp_path):
        path, _ = write_scenario(tmp_path)
        assert cli.main(["run", path, "--max-iters", "1", "--quiet"]) == 2

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
        path, scn = write_scenario(tmp_path)
        assert cli.main(["run", path, "--quiet"]) == 0
        for name in ("xhat_t.csv", "xhat_s.csv", "xhat_u.csv",
                     "residuals.csv", "bounds.csv", "oracle.csv"):
            a = open(os.path.join(linear_run["out"], name), "rb").read()
            b = open(os.path.join(scn["out"], name), "rb").read()
            assert a == b, name


class TestSweepVerb:
    def test_linear_sweep_slope(self, tmp_path):
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path, "--quiet"]) == 0
        sw = json.load(open(os.path.join(scn["out"], "sweep.json")))
        assert abs(sw["slope_xhat"] - 1.0) < 0.02
        # the time change never moves on this scenario
        assert sw["slope_X"] is None and max(sw["X_c0"]) == 0.0
        lines = open(os.path.join(scn["out"], "sweep.csv")).read().splitlines()
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

        text = open(os.path.join(scn["out"], "sweep.json")).read()
        sw = json.loads(text, parse_constant=refuse)
        assert max(sw["xhat_c0"]) == 0.0 and sw["slope_xhat"] is None
        assert abs(sw["slope_X"] - 1.0) < 0.05

    def test_thread_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERSHADOW_THREADS", "2")
        path, scn = write_scenario(tmp_path, eps=[4e-3, 2e-3, 1e-3])
        assert cli.main(["sweep", path, "--quiet"]) == 0
        sw = json.load(open(os.path.join(scn["out"], "sweep.json")))
        assert abs(sw["slope_xhat"] - 1.0) < 0.02


class TestVerifyVerb:
    def test_converged_state_reverifies(self, tmp_path, linear_run):
        path, scn = write_scenario(tmp_path, name="ver.json")
        assert cli.main(["verify", path, linear_run["out"], "--quiet"]) == 0
        rec = json.load(open(os.path.join(scn["out"], "verify.json")))
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
        rec = json.load(open(os.path.join(scn["out"], "verify.json")))
        assert rec["e_eta"] > 1e-4  # clean state sits near 1e-11
        lines = open(os.path.join(scn["out"], "bounds.csv")).read().splitlines()
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
        rec = json.load(open(os.path.join(scn["out"], "verify.json")))
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
        meta = json.load(open(tmp_path / "st" / "state.json"))
        assert meta["seed"] == 9

    def test_load_missing_dir_raises(self, tmp_path):
        with pytest.raises(OSError):
            cli.load_state(str(tmp_path / "void"))


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
