"""First-order response across three genuinely functional scenarios.

Each scenario perturbs a hyperbolic orbit with a different kind of
memory: a state-dependent delay on a cubic saddle, a neutral term
(derivative read at a shifted time) on the linear saddle, and a small
implicit delay on a planar limit cycle handled through its induced
quotient functional. In all three the correction norm should scale
linearly with eps; the log-log slopes printed at the end sit within a
few parts in a thousand of 1.
"""

import numpy as np

from hypershadow.hyperbolic import (FloquetFrame, analytic_frame,
                                    builtin_model, unit_circle_orbit)
from hypershadow.invariance import OperatorConfig, iterate
from hypershadow.perturbations import (neutral_delay, spec_from_descriptor,
                                       state_dependent_delay)

EPS_VALUES = (4e-3, 2e-3, 1e-3)


def sdd_scenario():
    fr = analytic_frame({"model": "saddle-cubic", "lambda_s": 1.0,
                         "lambda_u": 1.0, "cubic": (0.4, -0.3)})

    def Q(t, y):
        return np.column_stack([0.3 * np.sin(1.1 * y[:, 0]),
                                0.8 * np.sin(1.4 * y[:, 0]),
                                0.5 * np.cos(0.9 * y[:, 0])])

    spec = state_dependent_delay(
        Q, lambda t, y: -0.8 + 0.15 * np.sin(y[:, 1]), h=1.0, r_bound=0.95,
        lip_q=0.8 * 1.4, lip_r=0.15, traj_c1=1.3)
    cfg = lambda eps: OperatorConfig(eta=0.25, window=24.0,
                                     eps=eps, delta=0.1, tol_eta=1e-8)
    return fr, spec, cfg


def neutral_scenario():
    fr = analytic_frame({"model": "lin-saddle",
                         "lambda_s": 1.0, "lambda_u": 1.0})

    def Q(t, v):
        return np.column_stack([0.0 * t, 0.7 * np.sin(1.1 * t) * v[:, 0],
                                0.4 * np.cos(0.8 * t) * v[:, 0]])

    spec = neutral_delay(Q, lambda t, y: -0.6 + 0.15 * np.sin(y[:, 1]),
                         h=1.0, r_bound=0.75, lip_q=0.7, lip_r=0.15,
                         traj_c1=1.3)
    cfg = lambda eps: OperatorConfig(eta=0.25, window=24.0,
                                     eps=eps, delta=0.1, tol_eta=1e-8)
    return fr, spec, cfg


def small_delay_scenario():
    orbit, period = unit_circle_orbit(delta=0.02)
    fr = FloquetFrame(builtin_model("planar-limit-cycle"), orbit, period)
    spec = spec_from_descriptor(
        {"kind": "small-delay", "parameters": {"tau": 1.0, "h": 1.0}},
        fr.model)
    cfg = lambda eps: OperatorConfig(eta=0.25, window=12.0,
                                     eps=eps, delta=0.2, tol_eta=1e-6)
    return fr, spec, cfg


def main():
    scenarios = (("state-dependent delay", sdd_scenario),
                 ("neutral shift", neutral_scenario),
                 ("small implicit delay", small_delay_scenario))
    for label, build in scenarios:
        fr, spec, cfg = build()
        print(f"{label}:")
        norms = []
        for eps in EPS_VALUES:
            final, report = iterate(fr, spec, cfg(eps))
            nrm = (final.xs + final.xu).restrict(report.core_half).norm_ck(0)
            norms.append(nrm)
            print(f"  eps={eps:<7g} |xhat|_C0 = {nrm:.6e} "
                  f"({report.iterations} steps)")
        slope = np.polyfit(np.log(EPS_VALUES), np.log(norms), 1)[0]
        print(f"  log-log slope: {slope:.5f}\n")


if __name__ == "__main__":
    main()
