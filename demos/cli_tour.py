"""Tour of the command line: run, sweep, verify.

Builds a scenario file for the linear saddle with delayed sine forcing,
runs it, sweeps it over dyadic eps values, and re-verifies the saved
state from disk. Everything lands in a temporary directory that is
printed at the end so the artifacts can be inspected.
"""

import json
import os
import tempfile

from hypershadow.cli import main as cli


def scenario(out):
    return {
        "frame": {"mode": "analytic", "model": "lin-saddle",
                  "lambda_s": 1.0, "lambda_u": 1.0},
        "perturbation": {"kind": "delayed-sin-forcing",
                         "parameters": {"a": 1.0, "omega": 2.0,
                                        "h": 1.0, "lag": 1.0}},
        "config": {"eta": 0.25, "window": 24.0, "delta": 0.2,
                   "tol_eta": 1e-8},
        "eps": 0.01,
        "seed": 1,
        "out": out,
    }


def show(path, keys):
    # a dotted key reads a nested entry, e.g. defects.d_eta
    with open(path) as fh:
        data = json.load(fh)
    for k in keys:
        value = data
        for part in k.split("."):
            value = value[part]
        print(f"    {k} = {value}")


def main():
    root = tempfile.mkdtemp(prefix="hypershadow_tour_")

    run_scn = os.path.join(root, "run.json")
    run_out = os.path.join(root, "run_out")
    with open(run_scn, "w") as fh:
        json.dump(scenario(run_out), fh, indent=2)
    print("== run ==")
    code = cli(["run", run_scn])
    print(f"  exit code {code}; artifacts: {sorted(os.listdir(run_out))}")
    show(os.path.join(run_out, "report.json"),
         ("converged", "iterations", "kappa_hat", "e_eta"))

    sweep_scn = os.path.join(root, "sweep.json")
    sweep_out = os.path.join(root, "sweep_out")
    scn = scenario(sweep_out)
    scn["eps"] = [4e-3, 2e-3, 1e-3]
    with open(sweep_scn, "w") as fh:
        json.dump(scn, fh, indent=2)
    print("\n== sweep ==")
    code = cli(["sweep", sweep_scn, "--quiet"])
    print(f"  exit code {code}")
    show(os.path.join(sweep_out, "sweep.json"),
         ("eps", "xhat_c0", "slope_xhat", "slope_X"))

    verify_scn = os.path.join(root, "verify.json")
    verify_out = os.path.join(root, "verify_out")
    with open(verify_scn, "w") as fh:
        json.dump(scenario(verify_out), fh, indent=2)
    print("\n== verify (re-certify the saved run state) ==")
    code = cli(["verify", verify_scn, run_out])
    print(f"  exit code {code}")
    show(os.path.join(verify_out, "verify.json"),
         ("e_eta", "kappa_hat", "defects.d_eta", "core_half"))

    print(f"\nartifacts kept under {root}")


if __name__ == "__main__":
    main()
