"""The four benchmark workloads: inputs from a seed, one operation, checks.

Operation ``k`` of a run draws its perturbation parameters from a
low-discrepancy sequence offset by the seed, so a run of a few
operations covers each parameter range evenly and medians move little
from seed to seed. Every range below converges at every value.

The program only receives the generated scenario JSON (or, for the
light-cone workload, the trajectories built from the drawn speed).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from hypershadow import cli, electrodynamics, perturbations
from hypershadow.funcspace import GridFunction

# Kronecker steps 1/g^j with g the plastic number: successive points
# spread evenly over the unit square for any starting offset
_PLASTIC = 1.324717957244746
_STEPS = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)

ORACLE_TOL = 1e-6
SLOPE_TOL = 0.05
DELAY_TOL = 1e-10
CHARGE_TOL = 1e-10

# files that must come out byte-identical for the same scenario
DETERMINISTIC = ("state.json", "xhat_t.csv", "xhat_s.csv", "xhat_u.csv",
                 "report.json", "residuals.csv", "bounds.csv", "sweep.json")


class OpResult:
    """What one operation measured and which of its checks failed."""

    def __init__(self):
        self.phases = {}      # end-to-end phase -> seconds
        self.values = {}      # accuracy fields and computed sizes
        self.failures = []
        self.digests = {}     # artifact -> sha256, for the determinism check
        self.op_ref = None    # seconds over the host-speed probe's mean

    @property
    def seconds(self):
        return sum(self.phases.values())


@contextmanager
def _phase(result, name, tracer, clock):
    span = tracer.span("bench." + name) if tracer else nullcontext()
    t0 = clock()
    with span:
        yield
    result.phases[name] = clock() - t0


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def read_strict_json(path):
    """json.load that refuses NaN and Infinity, as allow_nan=False writes."""
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def _check_json_tree(root, result):
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if f.endswith(".json"):
                try:
                    read_strict_json(os.path.join(dirpath, f))
                except ValueError as exc:
                    result.failures.append(
                        f"{os.path.relpath(os.path.join(dirpath, f), root)}: "
                        f"{exc}")


def _digest_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f in DETERMINISTIC:
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = \
                        hashlib.sha256(fh.read()).hexdigest()
    return out


def _tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _read_grid_csv(path):
    """Node times and values of a saved grid, read without the package."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


class Workload:
    """Base: seeded parameter draws over ``ranges``."""

    name = ""
    ranges = {}

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        rng = random.Random(self.seed)
        self._offsets = [rng.random() for _ in self.ranges]

    def params(self, k):
        out = {}
        for j, (key, (lo, hi)) in enumerate(self.ranges.items()):
            u = (self._offsets[j] + k * _STEPS[j]) % 1.0
            out[key] = lo + u * (hi - lo)
        return out

    def inputs(self, k):
        """Inputs of operation k, made before any timing starts."""
        return self.params(k)

    def setup(self, inputs):
        """Set-up work a user pays before the first operation."""
        raise NotImplementedError

    def operation(self, k, opdir, tracer=None, clock=time.perf_counter):
        raise NotImplementedError


class _ScenarioWorkload(Workload):
    """Workloads driven through the command line on a scenario file."""

    def scenario(self, k, out):
        raise NotImplementedError

    def _write_scenario(self, k, opdir):
        os.makedirs(opdir, exist_ok=True)
        path = os.path.join(opdir, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.scenario(k, os.path.join(opdir, "run")), fh,
                      indent=2, sort_keys=True)
        return path

    def inputs(self, k):
        return self._write_scenario(k, os.path.join(self.workdir, f"setup{k}"))

    def setup(self, inputs):
        scn = cli.load_scenario(inputs)
        for eps in (scn.eps if isinstance(scn.eps, list) else [scn.eps]):
            scn.resolve(eps=eps)

    def _check_report(self, path, result):
        try:
            report = read_strict_json(path)
        except (OSError, ValueError) as exc:
            result.failures.append(f"report unreadable: {exc}")
            return None
        if report.get("converged") is not True:
            result.failures.append(f"{path}: not converged")
        return report


class _RunVerify(_ScenarioWorkload):
    """``hypershadow run`` then ``verify`` on the state just written."""

    def operation(self, k, opdir, tracer=None, clock=time.perf_counter):
        result = OpResult()
        scn_path = self._write_scenario(k, opdir)
        run_dir = os.path.join(opdir, "run")
        ver_dir = os.path.join(opdir, "verify")
        with _phase(result, "run", tracer, clock):
            code = cli.main(["run", scn_path, "--quiet"])
        if code != 0:
            result.failures.append(f"run exited {code}")
            return result
        with _phase(result, "verify", tracer, clock):
            vcode = cli.main(["verify", scn_path, run_dir, "--out", ver_dir,
                              "--quiet"])
        if vcode != 0:
            result.failures.append(f"verify exited {vcode}")
        _check_json_tree(opdir, result)
        report = self._check_report(os.path.join(run_dir, "report.json"),
                                    result)
        if report is not None:
            result.values.update(iterations=report["iterations"],
                                 e_eta=report["e_eta"],
                                 kappa_hat=report["kappa_hat"])
            self.check_outputs(k, run_dir, report, result)
        result.values["artifact_bytes"] = _tree_bytes(run_dir) + (
            _tree_bytes(ver_dir) if os.path.isdir(ver_dir) else 0)
        result.digests = _digest_tree(opdir)
        return result

    def check_outputs(self, k, run_dir, report, result):
        pass


class LinOracle(_RunVerify):
    name = "lin-oracle"
    ranges = {"omega": (1.8, 2.2)}
    eps = 0.01

    def scenario(self, k, out):
        return {
            "frame": {"mode": "analytic", "model": "lin-saddle",
                      "lambda_s": 1.0, "lambda_u": 1.0},
            "perturbation": {"kind": "delayed-sin-forcing",
                             "parameters": {"a": 1.0,
                                            "omega": self.params(k)["omega"],
                                            "h": 1.0, "lag": 1.0}},
            "config": {"eta": 0.25, "window": 24.0, "delta": 0.1,
                       "tol_eta": 1e-8},
            "eps": self.eps,
            "seed": self.seed,
            "out": out,
        }

    def check_outputs(self, k, run_dir, report, result):
        # bounded solution of x' = -x + eps sin(omega (t - 1)) on the
        # stable slot, compared over the core window
        omega = self.params(k)["omega"]
        nodes, vals = _read_grid_csv(os.path.join(run_dir, "xhat_s.csv"))
        core = np.abs(nodes) <= report["core_half"] + 1e-9
        ph = omega * (nodes[core] - 1.0)
        want = (self.eps * (np.sin(ph) - omega * np.cos(ph))
                / (1.0 + omega ** 2))
        err = float(np.abs(vals[core, 1] - want).max())
        result.values["oracle_err"] = err
        if not err <= ORACLE_TOL:
            result.failures.append(f"oracle_err {err:.3e} > {ORACLE_TOL:g}")


class SddCubic(_RunVerify):
    name = "sdd-cubic"
    ranges = {"c0": (0.45, 0.55), "c1": (0.15, 0.25)}

    def scenario(self, k, out):
        p = self.params(k)
        return {
            "frame": {"mode": "analytic", "model": "saddle-cubic",
                      "lambda_s": 1.0, "lambda_u": 1.0, "cubic": [0.3, 0.2]},
            "perturbation": {"kind": "sdd-tanh",
                             "parameters": {"h": 1.0, "c0": p["c0"],
                                            "c1": p["c1"]}},
            "config": {"eta": 0.25, "window": 24.0, "delta": 0.1,
                       "tol_eta": 1e-8},
            "eps": 0.02,
            "seed": self.seed,
            "out": out,
        }


class FloquetSweep(_ScenarioWorkload):
    name = "floquet-sweep"
    ranges = {"a": (0.4, 0.5), "omega": (0.9, 1.1)}

    def scenario(self, k, out):
        p = self.params(k)
        return {
            "frame": {"mode": "floquet", "model": "planar-limit-cycle"},
            "perturbation": {"kind": "ode-sin-forcing",
                             "parameters": {"a": p["a"], "omega": p["omega"],
                                            "n": 2, "axis": 1}},
            "config": {"eta": 0.25, "window": 12.0, "delta": 0.2,
                       "tol_eta": 1e-6},
            "eps": [0.01, 0.005, 0.0025],
            "seed": self.seed,
            "out": out,
        }

    def operation(self, k, opdir, tracer=None, clock=time.perf_counter):
        result = OpResult()
        scn_path = self._write_scenario(k, opdir)
        run_dir = os.path.join(opdir, "run")
        with _phase(result, "sweep", tracer, clock):
            code = cli.main(["sweep", scn_path, "--quiet"])
        if code != 0:
            result.failures.append(f"sweep exited {code}")
            return result
        _check_json_tree(opdir, result)
        members = sorted(d for d in os.listdir(run_dir)
                         if d.startswith("eps_"))
        if len(members) != 3:
            result.failures.append(f"expected 3 sweep members, "
                                   f"found {len(members)}")
        reports = [self._check_report(os.path.join(run_dir, d, "report.json"),
                                      result) for d in members]
        reports = [r for r in reports if r is not None]
        if reports:
            result.values.update(
                iterations=sum(r["iterations"] for r in reports),
                e_eta=max(r["e_eta"] for r in reports),
                kappa_hat=max(r["kappa_hat"] for r in reports))
        try:
            slope = read_strict_json(
                os.path.join(run_dir, "sweep.json"))["slope_xhat"]
            err = abs(float(slope) - 1.0)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            result.failures.append(f"sweep.json unusable: {exc}")
        else:
            result.values["slope_err"] = err
            if not err <= SLOPE_TOL:
                result.failures.append(f"slope_err {err:.3e} > {SLOPE_TOL:g}")
        result.values["artifact_bytes"] = _tree_bytes(run_dir)
        result.digests = _digest_tree(opdir)
        return result


class LightCone(Workload):
    name = "lightcone"
    ranges = {"v": (0.15, 0.25)}
    eps = 0.05
    distance = 3.0
    history = 1.0
    half_width = 4.0   # 801 tabulation times at delta 0.01
    delta = 0.01

    def setup(self, inputs):
        v = inputs["v"]
        ed = electrodynamics
        observer = ed.Trajectory.static((0.0, 0.0, 0.0))
        still = ed.Trajectory.static((self.distance, 0.0, 0.0))
        drifter = ed.Trajectory.uniform((self.distance, 0.0, 0.0),
                                        (v, 0.0, 0.0))
        system = ed.ChargeSystem([observer, drifter], masses=[1.0, 2.0],
                                 charges=[1.0, -1.0], epsilon=self.eps,
                                 xi1=0.5, xi2=0.5)
        reach = self.half_width + self.history
        spec = ed.assemble_charge_perturbation(system, h=self.history,
                                               window=reach)

        def stacked(ts):
            trs = system.trajectories
            return np.concatenate([tr.pos(ts) for tr in trs]
                                  + [tr.vel(ts) for tr in trs], axis=-1)

        traj = GridFunction.sample(stacked, reach, self.delta)
        return v, observer, still, drifter, system, spec, traj

    def operation(self, k, opdir, tracer=None, clock=time.perf_counter):
        result = OpResult()
        v, observer, still, drifter, system, spec, traj = \
            self.setup(self.inputs(k))
        eps, d = self.eps, self.distance
        with _phase(result, "delay", tracer, clock):
            fields = [electrodynamics.DelayField.solve(
                observer, partner, eps, window=8.0, delta=self.delta)
                for partner in (still, drifter)]
        with _phase(result, "charge_eval", tracer, clock):
            grid = perturbations.functional_output_grid(
                spec, traj, eps, self.half_width, self.delta)
        if tracer is not None:
            for f in fields:
                tracer.count("electrodynamics.delay_nodes",
                             f.tau.n + f.sigma.n)
                tracer.count("electrodynamics.delay_iters",
                             f.tau_iterations + f.sigma_iterations)

        # static partner: tau = sigma = eps d; partner drifting away at v:
        # tau = eps (d + v t) / (1 + eps v), sigma with 1 - eps v
        ts = fields[0].tau.nodes
        gap = d + v * ts
        want = ((np.full_like(ts, eps * d), np.full_like(ts, eps * d)),
                (eps * gap / (1.0 + eps * v), eps * gap / (1.0 - eps * v)))
        err = 0.0
        for f, (tau, sigma) in zip(fields, want):
            err = max(err, float(np.abs(f.tau.values[:, 0] - tau).max()),
                      float(np.abs(f.sigma.values[:, 0] - sigma).max()))
        result.values["delay_err"] = err
        if not err <= DELAY_TOL:
            result.failures.append(f"delay_err {err:.3e} > {DELAY_TOL:g}")

        vals = grid.values
        if vals.shape != (801, 12) or not np.isfinite(vals).all():
            result.failures.append(f"charge grid shape {vals.shape} or "
                                   "non-finite values")
        else:
            err = float(np.abs(vals - self._charge_field(system, v,
                                                         grid.nodes)).max())
            result.values["charge_err"] = err
            if not err <= CHARGE_TOL:
                result.failures.append(
                    f"charge_err {err:.3e} > {CHARGE_TOL:g}")
        result.digests = {
            "tau_sigma": hashlib.sha256(b"".join(
                f.tau.values.tobytes() + f.sigma.values.tobytes()
                for f in fields)).hexdigest(),
            "charge_grid": hashlib.sha256(vals.tobytes()).hexdigest(),
        }
        return result

    def _charge_field(self, system, v, ts):
        """Retarded pair field from the closed-form delays."""
        eps, d = self.eps, self.distance
        force = system.pair_force
        out = np.zeros((ts.size, 12))
        for row, t in enumerate(ts):
            qa, va = np.zeros(3), np.zeros(3)
            qb = np.array([d + v * t, 0.0, 0.0])
            vb = np.array([v, 0.0, 0.0])
            tau_ab = eps * (d + v * t) / (1.0 + eps * v)
            qb_ret = np.array([d + v * (t - tau_ab), 0.0, 0.0])
            out[row, 3:6] = vb
            out[row, 6:9] = force(1.0, -1.0, qa, va, qb_ret, vb) / 1.0
            out[row, 9:12] = force(-1.0, 1.0, qb, vb, qa, va) / 2.0
        return out


WORKLOADS = {w.name: w for w in (LinOracle, SddCubic, FloquetSweep,
                                 LightCone)}

# end-to-end metrics that apply to each workload, beyond op_s, setup_s,
# peak_rss_mb and failed_ratio
WORKLOAD_METRICS = {
    "lin-oracle": ("run_s", "verify_s", "iterations", "e_eta", "kappa_hat",
                   "oracle_err"),
    "sdd-cubic": ("run_s", "verify_s", "iterations", "e_eta", "kappa_hat"),
    "floquet-sweep": ("sweep_s", "iterations", "e_eta", "kappa_hat",
                      "slope_err"),
    "lightcone": ("delay_s", "charge_eval_s", "delay_err", "charge_err"),
}
