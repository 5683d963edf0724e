"""Scenario runner: JSON configs in, CSV/JSON artifacts out.

A scenario file names a frame, a perturbation, the operator settings,
one eps (or a dyadic list for sweeps), an output directory and a seed.
Verbs: ``run`` drives the fixed point and writes the converged state
with its convergence, residual and error-bound tables; ``sweep`` runs a
list of eps values and fits the first-order response slope; ``verify``
re-certifies a stored state by applying the operator once.

Exit codes: 0 success, 1 scenario or descriptor failure (nothing is
written), 2 divergence (or a certification with kappa >= 1), 3 an
iterate leaving its declared ball, 4 a numerical failure: a non-finite
value entering the operator or a time-change flow failing its checks.
A failed run or verify writes no output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .flows import ScalarField
from .funcspace import BallRadii, load_grid_function, save_grid_function
from .hyperbolic import frame_from_descriptor
from .invariance import (
    BallExitError,
    CorrectionState,
    DivergenceError,
    NumericalError,
    OperatorConfig,
    aposteriori_bounds,
    gamma_step,
    iterate,
    resolve_geometry,
    write_residual_csv,
)
from .perturbations import spec_from_descriptor

__all__ = [
    "Scenario",
    "load_scenario",
    "save_state",
    "load_state",
    "write_bounds_csv",
    "cmd_run",
    "cmd_sweep",
    "cmd_verify",
    "main",
]


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file with descriptors still unresolved."""

    frame: dict
    perturbation: dict
    config: dict
    eps: object
    out: str
    seed: int
    bounds_interval: tuple = (-2.0, 2.0)

    def resolve(self, eps=None, max_iters=None):
        """Build (frame, spec, cfg); raises on any descriptor problem."""
        fr = frame_from_descriptor(self.frame)
        spec = spec_from_descriptor(self.perturbation)
        cfg_kw = dict(self.config)
        if eps is None:
            eps = self.eps
        if not np.isscalar(eps):
            raise ValueError("this verb needs a single eps; use sweep "
                             "for lists")
        cfg_kw["eps"] = float(eps)
        if max_iters is not None:
            cfg_kw["max_iters"] = int(max_iters)
        cfg = OperatorConfig(**cfg_kw)
        # eta below the hyperbolicity rates and a usable core window,
        # checked before any compute happens
        resolve_geometry(cfg, fr, spec.h, 0.0)
        return fr, spec, cfg


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    for key in ("frame", "perturbation", "config"):
        if key not in raw:
            raise ValueError(f"scenario is missing the {key!r} section")
    if "eps" not in raw:
        raise ValueError("scenario must set eps (a number or a list)")
    out = raw.get("out")
    if out is None:
        out = os.path.splitext(str(path))[0] + "_out"
    interval = tuple(float(x) for x in raw.get("bounds_interval", (-2.0, 2.0)))
    if len(interval) != 2:
        raise ValueError("bounds_interval must be [a, b]")
    return Scenario(frame=dict(raw["frame"]),
                    perturbation=dict(raw["perturbation"]),
                    config=dict(raw["config"]),
                    eps=raw["eps"],
                    out=str(out),
                    seed=int(raw.get("seed", 0)),
                    bounds_interval=interval)


# -- state persistence ------------------------------------------------------

_STATE_FILES = ("xhat_t", "xhat_s", "xhat_u")


def save_state(state, directory, seed=0):
    """Correction state as three grid CSVs plus a radii sidecar."""
    os.makedirs(directory, exist_ok=True)
    grids = dict(zip(_STATE_FILES, (state.X.xhat, state.xs, state.xu)))
    for name, g in grids.items():
        save_grid_function(g, os.path.join(directory, name + ".csv"))
    meta = {
        "t_radii": list(state.t_ball.c),
        "s_radii": list(state.s_ball.c),
        "u_radii": list(state.u_ball.c),
        "files": {name: name + ".csv" for name in _STATE_FILES},
        "seed": int(seed),
    }
    path = os.path.join(directory, "state.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def load_state(directory):
    with open(os.path.join(directory, "state.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    grids = {name: load_grid_function(os.path.join(directory, fname))
             for name, fname in meta["files"].items()}
    X = ScalarField(grids["xhat_t"], BallRadii(tuple(meta["t_radii"])))
    return CorrectionState(X=X, xs=grids["xhat_s"], xu=grids["xhat_u"],
                           s_ball=BallRadii(tuple(meta["s_radii"])),
                           u_ball=BallRadii(tuple(meta["u_radii"])))


# -- artifact writers -------------------------------------------------------


def write_bounds_csv(rows, path):
    lines = ["component,j,exponent,bound,semi_exponent,semi_bound"]
    for r in rows:
        semi = "" if r["semi_bound"] is None else f"{r['semi_bound']:.17e}"
        lines.append(f"{r['component']},{r['j']},{r['exponent']:.17g},"
                     f"{r['bound']:.17e},{r['semi_exponent']:.17g},{semi}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _merged_frame_params(frame_desc):
    merged = dict(frame_desc.get("parameters", {}))
    merged.update({k: v for k, v in frame_desc.items()
                   if k not in ("parameters", "mode", "model")})
    return merged


def _linear_oracle(scn):
    """Closed-form stable response for the saddle + delayed-sine scenario.

    Bounded solution of x' = -lam x + eps a sin(omega (t - lag)) on the
    stable slot. Returns None when the scenario is not of that shape.
    """
    if scn.frame.get("mode", "analytic") != "analytic":
        return None
    if scn.frame.get("model", "lin-saddle") != "lin-saddle":
        return None
    fp = _merged_frame_params(scn.frame)
    if fp.get("rotation") is not None:
        return None
    if scn.perturbation.get("kind") != "delayed-sin-forcing":
        return None
    p = scn.perturbation.get("parameters", {})
    if int(p.get("axis", 1)) != 1:
        return None
    lam = float(fp.get("lambda_s", 1.0))
    a = float(p["a"])
    omega = float(p["omega"])
    lag = float(p.get("lag", 1.0))

    def truth(rho, eps):
        ph = omega * (np.asarray(rho, dtype=float) - lag)
        return eps * a * (lam * np.sin(ph) - omega * np.cos(ph)) \
            / (lam * lam + omega * omega)

    return truth


def _write_oracle_csv(scn, state, report, cfg, out):
    truth = _linear_oracle(scn)
    if truth is None:
        return None
    core = state.xs.restrict(report.core_half)
    expected = truth(core.nodes, cfg.eps)
    got = core.values[:, 1]
    lines = ["rho,closed_form,computed,abs_err"]
    for rho, want, have in zip(core.nodes, expected, got):
        lines.append(f"{rho:.17g},{want:.17e},{have:.17e},"
                     f"{abs(have - want):.17e}")
    path = os.path.join(out, "oracle.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# -- verbs ------------------------------------------------------------------


def _say(quiet, msg):
    if not quiet:
        print(msg)


def _complain(msg):
    print(f"hypershadow: {msg}", file=sys.stderr)


def _run_one(scn, fr, spec, cfg, out, quiet):
    """Iterate and write the run artifacts; returns (code, state, report)."""
    try:
        state, report = iterate(fr, spec, cfg)
    except BallExitError as exc:
        _complain(f"infeasible radii: {exc}")
        return 3, None, None
    except DivergenceError as exc:
        _complain(f"diverged: {exc}")
        return 2, None, None
    except NumericalError as exc:
        _complain(f"{exc.reason}: {exc}")
        return 4, None, None
    if not report.converged:
        _complain(f"no convergence within {cfg.max_iters} iterations "
                  f"(last distance {report.distances[-1]:.3e})")
        return 2, None, None
    if report.kappa_hat < 1.0:
        rows = aposteriori_bounds(report, cfg, scn.bounds_interval,
                                  report.kappa_hat)
    else:
        rows = []
        _complain("warning: measured contraction ratio reached 1; "
                  "bound table left empty")
    report.bounds = tuple(rows)
    save_state(state, out, seed=scn.seed)
    report.to_json(os.path.join(out, "report.json"))
    write_residual_csv(report, os.path.join(out, "residuals.csv"))
    write_bounds_csv(rows, os.path.join(out, "bounds.csv"))
    oracle = _write_oracle_csv(scn, state, report, cfg, out)
    _say(quiet, f"converged in {report.iterations} iterations: "
                f"d_eta={report.distances[-1]:.3e} "
                f"kappa_hat={report.kappa_hat:.3f} -> {out}"
                + (" (+oracle)" if oracle else ""))
    return 0, state, report


def cmd_run(scn, max_iters=None, quiet=False):
    try:
        fr, spec, cfg = scn.resolve(max_iters=max_iters)
    except Exception as exc:
        _complain(str(exc))
        return 1
    code, _, _ = _run_one(scn, fr, spec, cfg, scn.out, quiet)
    return code


def _dyadic_eps_list(eps):
    if np.isscalar(eps):
        raise ValueError("sweep needs a list of eps values")
    vals = [float(e) for e in eps]
    if len(vals) < 3:
        raise ValueError("sweep needs at least 3 eps values")
    if min(vals) <= 0.0:
        raise ValueError("sweep eps values must be positive")
    vals.sort(reverse=True)
    for big, small in zip(vals, vals[1:]):
        if abs(big / small - 2.0) > 1e-9:
            raise ValueError("sweep eps values must be dyadically spaced")
    return vals


def cmd_sweep(scn, max_iters=None, quiet=False):
    try:
        eps_list = _dyadic_eps_list(scn.eps)
        # frame, spec and geometry do not depend on eps: resolve once
        fr, spec, cfg = scn.resolve(eps=eps_list[0], max_iters=max_iters)
    except Exception as exc:
        _complain(str(exc))
        return 1
    results = [_run_one(scn, fr, spec, replace(cfg, eps=eps),
                        os.path.join(scn.out, f"eps_{eps:.6g}"), quiet=True)
               for eps in eps_list]

    xhat_norms = []
    x_norms = []
    for eps, (code, state, report) in zip(eps_list, results):
        if code != 0:
            _complain(f"sweep member eps={eps:g} failed with code {code}")
            return code
        core = report.core_half
        xhat_norms.append((state.xs + state.xu).restrict(core).norm_ck(0))
        x_norms.append(state.X.xhat.restrict(core).norm_ck(0))
        _say(quiet, f"eps={eps:g}: |xhat|={xhat_norms[-1]:.6e} "
                    f"|X-1|={x_norms[-1]:.6e}")

    logs = np.log(np.asarray(eps_list))

    def slope(norms):
        # a log-log fit needs every norm positive; null otherwise
        if min(norms) > 1e-300:
            return float(np.polyfit(logs, np.log(norms), 1)[0])
        return None

    slope_xhat = slope(xhat_norms)
    slope_x = slope(x_norms)
    summary = {
        "eps": eps_list,
        "xhat_c0": xhat_norms,
        "X_c0": x_norms,
        "slope_xhat": slope_xhat,
        "slope_X": slope_x,
        "seed": scn.seed,
    }
    os.makedirs(scn.out, exist_ok=True)
    with open(os.path.join(scn.out, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    lines = ["eps,xhat_c0,X_c0"]
    for e, a, b in zip(eps_list, xhat_norms, x_norms):
        lines.append(f"{e:.17g},{a:.17e},{b:.17e}")
    with open(os.path.join(scn.out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    shown = "undefined (|xhat| = 0)" if slope_xhat is None \
        else f"{slope_xhat:.4f}"
    _say(quiet, f"slope |xhat| vs eps: {shown} -> {scn.out}")
    return 0


class _VerifyRecord:
    """Just enough of a report for the bound table."""

    def __init__(self, e_eta, eta, state):
        self.e_eta = e_eta
        self.eta = eta
        self.t_radii = state.t_ball.c
        self.s_radii = state.s_ball.c
        self.u_radii = state.u_ball.c


def _check_state_grid(state, fr, cfg):
    """The saved state must live on the scenario's grid and dimension."""
    g = state.xs
    if (abs(g.half_width - cfg.window) > 1e-9
            or abs(g.delta - cfg.delta) > 1e-12):
        raise ValueError(
            f"saved state grid (window {g.half_width:g}, delta {g.delta:g}) "
            f"does not match the scenario (window {cfg.window:g}, "
            f"delta {cfg.delta:g})")
    if g.m != fr.model.n:
        raise ValueError(
            f"saved state has dimension {g.m}, the scenario's model "
            f"{fr.model.n}")


def cmd_verify(scn, state_dir, max_iters=None, quiet=False):
    try:
        fr, spec, cfg = scn.resolve(max_iters=max_iters)
        state = load_state(state_dir)
        _check_state_grid(state, fr, cfg)
    except Exception as exc:
        _complain(str(exc))
        return 1
    try:
        step1, d1 = gamma_step(fr, state, spec, cfg)
        e_eta = d1["d_eta"] + d1["tail_s"] + d1["tail_u"]
        if d1["d_eta"] <= cfg.tol_eta:
            kappa = 0.0
        else:
            # one more application measures the local contraction ratio
            _, d2 = gamma_step(fr, step1, spec, cfg)
            kappa = d2["d_eta"] / d1["d_eta"]
    except NumericalError as exc:
        _complain(f"{exc.reason}: {exc}")
        return 4
    if kappa >= 1.0:
        _complain(f"not certifiable: measured contraction ratio "
                  f"{kappa:.3f} >= 1")
        return 2
    rows = aposteriori_bounds(_VerifyRecord(e_eta, cfg.eta.eta, state),
                              cfg, scn.bounds_interval, kappa)
    out = scn.out
    os.makedirs(out, exist_ok=True)
    write_bounds_csv(rows, os.path.join(out, "bounds.csv"))
    record = {
        "e_eta": e_eta,
        "kappa_hat": kappa,
        "d_eta": d1["d_eta"],
        "tail_s": d1["tail_s"],
        "tail_u": d1["tail_u"],
        "components": {k: d1[k] for k in ("E_c", "E_s", "E_u",
                                          "DE_s", "DE_u")},
        "state_dir": str(state_dir),
        "seed": scn.seed,
    }
    with open(os.path.join(out, "verify.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _say(quiet, f"E_eta={e_eta:.3e} kappa_hat={kappa:.3f} -> {out}")
    return 0


# -- entry point ------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hypershadow",
        description="Construct and certify corrections of hyperbolic "
                    "orbits under functional perturbations.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "verify"):
        p = sub.add_parser(verb)
        p.add_argument("scenario", help="scenario JSON file")
        if verb == "verify":
            p.add_argument("state_dir", help="directory holding a saved state")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        scn = load_scenario(args.scenario)
    except Exception as exc:
        _complain(f"cannot read scenario: {exc}")
        return 1
    if args.out:
        scn = replace(scn, out=args.out)

    if args.verb == "run":
        return cmd_run(scn, max_iters=args.max_iters, quiet=args.quiet)
    if args.verb == "sweep":
        return cmd_sweep(scn, max_iters=args.max_iters, quiet=args.quiet)
    return cmd_verify(scn, args.state_dir, max_iters=args.max_iters,
                      quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
