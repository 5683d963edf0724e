"""Scenario runner: JSON configs in, CSV/JSON artifacts out.

A scenario file names a frame, a perturbation, the operator settings,
one eps (or a dyadic list for sweeps), an output directory and a seed.
Verbs: ``run`` drives the fixed point and writes the converged state
with its convergence, residual and error-bound tables; ``sweep`` runs a
list of eps values and fits the first-order response slope; ``verify``
re-certifies a stored state (see :func:`save_state`) by applying the
operator once.

Exit codes: 0 success, 1 a usage error or a scenario or descriptor
failure, including a run that reaches past the bounds its descriptors
declare and a saved state with a malformed file or a value that is not
finite (nothing is written), 2 divergence, or a converged ``run`` or a
``verify`` whose contraction estimate kappa is at or above 1, 3 an
iterate leaving its declared ball, 4 a numerical failure: a non-finite
value entering the operator or a time-change flow failing its checks. A
failed run or verify writes no output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import PurePath

import numpy as np

from .flows import ScalarField
from .funcspace import (REQUIRED, BallRadii, Entry, check_entries, json_text,
                        load_grid_function, read_record, real_number,
                        save_grid_function, write_lines)
from .hyperbolic import frame_from_descriptor
from .invariance import (
    CONFIG,
    DEFAULT_T_RADII,
    EPS,
    BallExitError,
    CorrectionState,
    DivergenceError,
    NumericalError,
    OperatorConfig,
    _Run,
    aposteriori_bounds,
    check_state_grid,
    gamma_step,
    iterate,
    resolve_geometry,
    write_residual_csv,
)
from .perturbations import HistorySegment, spec_from_descriptor

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
    bounds_interval: tuple

    def resolve(self, eps=None):
        """Build (frame, spec, cfg); raises on any descriptor problem."""
        fr = frame_from_descriptor(self.frame)
        spec = spec_from_descriptor(self.perturbation, fr.model)
        cfg_kw = check_entries(self.config, CONFIG, "config")
        eps = self.eps if eps is None else eps
        if isinstance(eps, list):
            raise ValueError("this verb needs a single eps; use sweep "
                             "for lists")
        cfg = OperatorConfig(eps=eps, **cfg_kw)
        # the bounds table scales by e^{eta max(|a|, |b|)}
        reach = max(map(abs, self.bounds_interval))
        if not reach * cfg.eta <= math.log(sys.float_info.max):
            raise ValueError(f"bounds_interval reaches {reach:g}, too far "
                             f"for eta {cfg.eta:g}: e^(eta * {reach:g}) is "
                             f"not a finite float")
        # eta below the hyperbolicity rates and a usable core window at
        # the time-change radius every run starts from, checked before
        # any compute happens
        resolve_geometry(cfg, fr, spec.h, DEFAULT_T_RADII[0])
        # one evaluation on the orbit: the perturbation must fit the model
        n = fr.model.n
        seg = HistorySegment(0.0, spec.h, fr.orbit_batch,
                             fr.orbit_deriv_batch)
        try:
            shape = np.shape(spec(0.0, seg, cfg.eps))
        except IndexError as exc:
            raise ValueError(f"perturbation {spec.kind!r} does not fit the "
                             f"model of dimension {n}: {exc}") from exc
        if shape != (n,):
            raise ValueError(f"perturbation {spec.kind!r} returned shape "
                             f"{shape}, the model has dimension {n}")
        return fr, spec, cfg


# the entries of a scenario file, each a field of Scenario; eps is read
# by the verb: a number for run and verify, a dyadic list for sweep
SCENARIO = {
    **dict.fromkeys(("frame", "perturbation", "config"), Entry("object")),
    "eps": Entry("number or list", REQUIRED, EPS.range),
    "out": Entry("string", None),
    "bounds_interval": Entry("list", [-2.0, 2.0], (2,)),
    "seed": Entry("integer", 0),
}


def load_scenario(path):
    raw = read_record(path, SCENARIO)
    a, b = raw["bounds_interval"]
    # checked before any compute, so a bad interval never costs a run
    if not a < b:
        raise ValueError(f"bounds_interval must be finite with a < b, got "
                         f"[{a:g}, {b:g}]")
    out = raw["out"] or str(PurePath(path).with_suffix("")) + "_out"
    return Scenario(**dict(raw, out=out, bounds_interval=(a, b)))


# -- state persistence ------------------------------------------------------

_STATE_FILES = ("xhat_t", "xhat_s", "xhat_u")
_RADII = ("t_radii", "s_radii", "u_radii")
_GEOMETRY = ("window", "delta", "interp_order")
# the entries of state.json; seed records the run and is not read
STATE = {
    "window": Entry("number", REQUIRED, "positive"),
    "delta": Entry("number", REQUIRED, "positive"),
    "interp_order": Entry("integer", REQUIRED, 3),
    **dict.fromkeys(_RADII, Entry("list", REQUIRED, (None,))),
    "seed": Entry("integer", None),
}


def save_state(state, directory, seed=0):
    """Correction state as four files: the grids X - 1, xhat_s and xhat_u
    as ``xhat_t.csv``, ``xhat_s.csv`` and ``xhat_u.csv``, and one record,
    ``state.json``, of their geometry (``window`` the half-width,
    ``delta``, ``interp_order``), the ball radii and the seed."""
    os.makedirs(directory, exist_ok=True)
    for name, g in zip(_STATE_FILES, (state.X.xhat, state.xs, state.xu)):
        save_grid_function(g, os.path.join(directory, name + ".csv"))
    # the three grids share one geometry, as CorrectionState checks
    half_width, delta, _, interp_order = state.xs.geometry
    meta = dict(zip(_GEOMETRY, (half_width, delta, interp_order)),
                seed=int(seed))
    meta.update(zip(_RADII, (list(ball.c) for ball in state.radii)))
    return write_lines(os.path.join(directory, "state.json"),
                       [json_text(meta)])


def load_state(directory):
    """The state :func:`save_state` wrote to ``directory``; a malformed
    file raises a ValueError naming the file and the entry or node."""
    path = os.path.join(directory, "state.json")
    meta = read_record(path, STATE, lambda key: f"{path}: entry {key!r}")
    geometry = [meta[key] for key in _GEOMETRY]
    grids, balls = [], []
    for name, key in zip(_STATE_FILES, _RADII):
        try:
            balls.append(BallRadii(tuple(meta[key])))
        except ValueError as exc:
            raise ValueError(f"{path}: entry {key!r}: {exc}") from None
        grids.append(load_grid_function(
            os.path.join(directory, name + ".csv"), *geometry))
    return CorrectionState(X=ScalarField(grids[0], balls[0]), xs=grids[1],
                           xu=grids[2], s_ball=balls[1], u_ball=balls[2])


# -- artifact writers -------------------------------------------------------


def write_bounds_csv(rows, path):
    lines = ["component,j,exponent,bound,semi_exponent,semi_bound"]
    for r in rows:
        semi = "" if r["semi_bound"] is None else f"{r['semi_bound']:.17e}"
        lines.append(f"{r['component']},{r['j']},{r['exponent']:.17g},"
                     f"{r['bound']:.17e},{r['semi_exponent']:.17g},{semi}")
    return write_lines(path, lines)


def _linear_oracle(fr, spec):
    """Closed-form stable response for the saddle + delayed-sine scenario.

    Bounded solution of x' = -lam x + eps a sin(omega (t - lag)) on the
    stable slot. Returns None when the scenario is not of that shape.
    """
    p = spec.params
    if (fr.mode != "analytic" or fr.model.name != "lin-saddle"
            or fr.model.params.get("rotation") is not None
            or spec.kind != "delayed-sin-forcing" or p["axis"] != 1):
        return None
    lam = fr.model.params["lambda_s"]
    a, omega, lag = p["a"], p["omega"], p["lag"]

    def truth(rho, eps):
        ph = omega * (np.asarray(rho, dtype=float) - lag)
        return eps * a * (lam * np.sin(ph) - omega * np.cos(ph)) \
            / (lam * lam + omega * omega)

    return truth


def _write_oracle_csv(fr, spec, state, report, cfg, out):
    truth = _linear_oracle(fr, spec)
    if truth is None:
        return None
    core = state.xs.restrict(report.core_half)
    expected = truth(core.nodes, cfg.eps)
    got = core.values[:, 1]
    lines = ["rho,closed_form,computed,abs_err"]
    for rho, want, have in zip(core.nodes, expected, got):
        lines.append(f"{rho:.17g},{want:.17e},{have:.17e},"
                     f"{abs(have - want):.17e}")
    return write_lines(os.path.join(out, "oracle.csv"), lines)


# -- verbs ------------------------------------------------------------------


def _say(quiet, msg):
    if not quiet:
        print(msg)


def _complain(msg):
    print(f"hypershadow: {msg}", file=sys.stderr)


# operator failures -> exit code and message, first match wins; the
# subject names what the scenario's declared bounds did not cover
_FAILURES = (
    (BallExitError, 3, "infeasible radii: {exc}"),
    (DivergenceError, 2, "diverged: {exc}"),
    (NumericalError, 4, "{exc.reason}: {exc}"),
    (ValueError, 1,
     "the scenario's declared bounds do not cover the {subject}: {exc}"),
)
_OPERATOR_FAILURES = tuple(kind for kind, _, _ in _FAILURES)


def _fail(exc, subject, prefix=""):
    """Print the one-line message of an operator failure; its exit code."""
    code, text = next((code, text) for kind, code, text in _FAILURES
                      if isinstance(exc, kind))
    _complain(prefix + text.format(exc=exc, subject=subject))
    return code


def _not_certifiable(kappa):
    """The one line of a contraction estimate at or above 1 (exit 2)."""
    return f"not certifiable: measured contraction ratio {kappa:.3f} >= 1"


def _run_one(scn, fr, spec, cfg, out, quiet, prefix="", run=None):
    """Iterate and write the run artifacts; returns (code, state, report).
    A failure prints one line led by ``prefix`` and writes nothing.
    ``run`` is a run layout shared with other members of a sweep."""
    try:
        state, report = iterate(fr, spec, cfg, _run=run)
    except _OPERATOR_FAILURES as exc:
        return _fail(exc, "run", prefix), None, None
    if not report.converged:
        _complain(prefix + f"no convergence within {cfg.max_iters} "
                  f"iterations (last distance {report.distances[-1]:.3e})")
        return 2, None, None
    if report.kappa_hat >= 1.0:
        _complain(prefix + _not_certifiable(report.kappa_hat))
        return 2, None, None
    rows = aposteriori_bounds(report.e_eta, state, cfg,
                              scn.bounds_interval, report.kappa_hat)
    report.bounds = tuple(rows)
    save_state(state, out, seed=scn.seed)
    report.to_json(os.path.join(out, "report.json"))
    write_residual_csv(report, os.path.join(out, "residuals.csv"))
    write_bounds_csv(rows, os.path.join(out, "bounds.csv"))
    oracle = _write_oracle_csv(fr, spec, state, report, cfg, out)
    _say(quiet, f"converged in {report.iterations} iterations: "
                f"d_eta={report.distances[-1]:.3e} "
                f"kappa_hat={report.kappa_hat:.3f} -> {out}"
                + (" (+oracle)" if oracle else ""))
    return 0, state, report


def cmd_run(scn, quiet=False):
    try:
        fr, spec, cfg = scn.resolve()
    except Exception as exc:
        _complain(str(exc))
        return 1
    code, _, _ = _run_one(scn, fr, spec, cfg, scn.out, quiet)
    return code


def _dyadic_eps_list(eps):
    if not isinstance(eps, list):
        raise ValueError("sweep needs a list of eps values")
    vals = [real_number("eps", e) for e in eps]
    if len(vals) < 3:
        raise ValueError("sweep needs at least 3 eps values")
    if not all(0.0 < v < math.inf for v in vals):
        raise ValueError("sweep eps values must be positive and finite")
    vals.sort(reverse=True)
    for big, small in zip(vals, vals[1:]):
        if abs(big / small - 2.0) > 1e-9:
            raise ValueError("sweep eps values must be dyadically spaced")
    return vals


def cmd_sweep(scn, quiet=False):
    try:
        eps_list = _dyadic_eps_list(scn.eps)
        # frame, spec and geometry do not depend on eps: resolve once
        fr, spec, cfg = scn.resolve(eps=eps_list[0])
    except Exception as exc:
        _complain(str(exc))
        return 1
    prefix = "sweep member eps={:g} failed: "
    # the run layout (geometry, lattices, readers, frame tables) does
    # not depend on eps either: one for every member, dropped when the
    # sweep returns
    run = _Run(fr, spec, cfg, DEFAULT_T_RADII[0])
    xhat_norms = []
    x_norms = []
    for eps in eps_list:
        # the first failing member ends the sweep with its own code
        code, state, report = _run_one(
            scn, fr, spec, replace(cfg, eps=eps),
            os.path.join(scn.out, f"eps_{eps:.6g}"), quiet=True,
            prefix=prefix.format(eps), run=run)
        if code != 0:
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
    write_lines(os.path.join(scn.out, "sweep.json"), [json_text(summary)])
    write_lines(os.path.join(scn.out, "sweep.csv"), ["eps,xhat_c0,X_c0"] + [
        f"{e:.17g},{a:.17e},{b:.17e}"
        for e, a, b in zip(eps_list, xhat_norms, x_norms)])
    shown = "undefined (|xhat| = 0)" if slope_xhat is None \
        else f"{slope_xhat:.4f}"
    _say(quiet, f"slope |xhat| vs eps: {shown} -> {scn.out}")
    return 0


def cmd_verify(scn, state_dir, quiet=False):
    try:
        fr, spec, cfg = scn.resolve()
        state = load_state(state_dir)
        check_state_grid(state, fr, cfg)
    except Exception as exc:
        _complain(str(exc))
        return 1
    try:
        # both applications share one run layout
        run = _Run(fr, spec, cfg, state.X.t0)
        step1, d1 = gamma_step(fr, state, spec, cfg, run)
        e_eta = d1["d_eta"] + d1["tail_s"] + d1["tail_u"]
        if d1["d_eta"] <= cfg.tol_eta:
            kappa = 0.0
        else:
            # one more application measures the local contraction ratio
            _, d2 = gamma_step(fr, step1, spec, cfg, run)
            kappa = d2["d_eta"] / d1["d_eta"]
    except _OPERATOR_FAILURES as exc:
        return _fail(exc, "state")
    if kappa >= 1.0:
        _complain(_not_certifiable(kappa))
        return 2
    rows = aposteriori_bounds(e_eta, state, cfg, scn.bounds_interval, kappa)
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
        # relative to the output, so the record does not depend on
        # where the two directories live
        "state_dir": os.path.relpath(state_dir, out),
        "seed": scn.seed,
    }
    write_lines(os.path.join(out, "verify.json"), [json_text(record)])
    _say(quiet, f"E_eta={e_eta:.3e} kappa_hat={kappa:.3f} -> {out}")
    return 0


# -- entry point ------------------------------------------------------------


def _usage_error(parser, message):
    """argparse's error hook: ``main`` reports a usage error in one line
    and exit 1; argparse's usage block and exit 2 read as a divergence."""
    raise argparse.ArgumentError(None, message)


class _Parser(argparse.ArgumentParser):
    error = _usage_error


def main(argv=None):
    parser = _Parser(
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
        p.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
        scn = load_scenario(args.scenario)
    except argparse.ArgumentError as exc:
        _complain(str(exc))
        return 1
    except Exception as exc:
        _complain(f"cannot read scenario: {exc}")
        return 1
    if args.out:
        scn = replace(scn, out=args.out)

    if args.verb == "run":
        return cmd_run(scn, quiet=args.quiet)
    if args.verb == "sweep":
        return cmd_sweep(scn, quiet=args.quiet)
    return cmd_verify(scn, args.state_dir, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
