"""Time to a certified solution, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sdd-cubic --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25        # all four

One process runs one operation at a time (closed loop, no pool); under
``all`` each workload gets a child process of its own. The
first operation warms caches and is not timed; the next ones, each
after a few timed set-ups, run until ``--seconds`` would be exceeded.
Every operation's outputs are checked, and a failed check counts in
``failed`` without stopping the run.

``--trace 0`` reports the end-to-end metrics of untraced operations.
While each one runs, a fixed reference kernel is timed every 0.2 s
(``SpeedProbe``, time excluded from the operation); ``op_ref`` is the
median over operations of their time over the mean probe time during
them, which cancels most of the host's speed swings. Set-up runs
between two timings of the same kernel, and ``setup_s`` is the median
set-up time over their mean, scaled to a nominal kernel time of 5 ms.
``--trace 1`` alternates untraced and traced operations on one scenario
and reports the per-layer metrics of the traced ones, plus the tracing
overhead. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The full record (environment stamp, every metric with
its sample count, per-operation values) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# before each timed operation, set-up is repeated for this share of the
# previous operation's time (at least once)
SETUP_SHARE = 0.05
# seconds between host-speed probes during an operation
PROBE_INTERVAL = 0.2
# nominal time of one reference-kernel call: setup_s is set-up time on a
# host running at the speed where the kernel takes this long
REF_SECONDS = 0.005

UNITS = {"peak_rss_mb": "MB", "failed_ratio": "1", "iterations": "count",
         "e_eta": "1", "kappa_hat": "1", "oracle_err": "1",
         "slope_err": "1", "delay_err": "model_time", "charge_err": "1"}


def unit_of(name):
    return UNITS.get(name, "s")


# -- statistics -------------------------------------------------------------


def summarize(values, unit, worst=False):
    """Median (or worst value) with its sample count.

    Adds the highest of p75/p90/p95/p99/p99.9 that has at least ten
    samples beyond it, when the run collected that many.
    """
    xs = sorted(values)
    n = len(xs)
    out = {"value": max(xs) if worst else statistics.median(xs),
           "unit": unit, "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            rank = max(1, -(-n * p // 100))
            out[f"p{p:g}"] = xs[int(rank) - 1]
            break
    return out


# -- environment stamp ------------------------------------------------------


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30,
                          check=False)
    return done.stdout.strip() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import numpy
    base = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in sorted(glob.glob(os.path.join(base, "numpy.libs", "*blas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": _blas_threads(),
        "HYPERSHADOW_THREADS": os.environ.get("HYPERSHADOW_THREADS"),
    }


# -- measurement ------------------------------------------------------------


class Runner:
    """Runs the operations of one workload and collects their records."""

    def __init__(self, workload, workdir):
        self.wl = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._reference = None   # digests of the warm-up operation

    def setup_samples(self, k, budget):
        """Time set-up of scenario k for ``budget`` seconds, at least once.

        The reference kernel is timed before the first set-up and after
        each one. Returns the set-up seconds and, per set-up, its time
        over the mean of the two probes around it.
        """
        inputs = self.wl.inputs(k)
        samples, ratios = [], []
        stop = time.perf_counter() + budget
        before = time_reference()
        while not samples or time.perf_counter() < stop:
            gc.collect()
            t0 = time.perf_counter()
            self.wl.setup(inputs)
            took = time.perf_counter() - t0
            after = time_reference()
            samples.append(took)
            ratios.append(took / (0.5 * (before + after)))
            before = after
        return samples, ratios

    def op(self, k, label, tracer=None, op_id=None, probe=None):
        """One checked operation; returns (OpResult, wall seconds)."""
        from workloads import OpResult
        opdir = os.path.join(self.workdir, label)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if probe is not None:
                with probe:
                    result = self.wl.operation(k, opdir, clock=probe.clock)
            elif tracer is None:
                result = self.wl.operation(k, opdir)
            else:
                with tracer.installed(), tracer.operation(op_id, "bench.op"):
                    result = self.wl.operation(k, opdir, tracer)
        except Exception as exc:   # an operation must not end the run
            result = OpResult()
            result.failures.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        if k == 0 and not result.failures:
            # every operation on scenario 0 must reproduce the warm-up's
            # artifacts byte for byte
            if self._reference is None:
                self._reference = result.digests
            elif result.digests != self._reference:
                diff = sorted(set(result.digests.items())
                              ^ set(self._reference.items()))
                result.failures.append(
                    "artifacts differ from the first run of the same "
                    f"scenario: {sorted({name for name, _ in diff})}")
        self.attempted += 1
        if result.failures:
            self.failed += 1
            self.failures.append({"op": label, "failures": result.failures})
        result.values.setdefault("artifact_bytes", 0)
        if os.path.isdir(opdir):
            shutil.rmtree(opdir)
        return result, wall


def reference_kernel(lookups=300):
    """Fixed work in the style of the program's hot path: scalar grid
    lookups through small numpy arrays, about 5 ms. Its time says how
    fast the host runs such code at the moment."""
    import numpy as np
    values = np.linspace(0.0, 1.0, 481 * 3).reshape(481, 3)
    offsets = np.arange(6)
    acc = 0.0
    for i in range(lookups):
        t = np.atleast_1d(np.asarray(-2.0 + i * 1e-3))
        cell = np.floor((t + 24.0) / 0.1).astype(np.int64)
        np.clip(cell, 0, 474, out=cell)
        acc += float((values[cell[:, None] + offsets[None, :]] / 6.0).sum())
    return acc


def time_reference():
    """Seconds one reference-kernel call takes now."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples host speed while an operation runs.

    A SIGALRM handler in the main thread times the reference kernel
    every PROBE_INTERVAL seconds; an operation shorter than that gets
    one probe right after it ends. ``clock`` is wall time minus the time
    spent in the probe, so the operation's own timings exclude it.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.spent

    def _fire(self, signum, frame):
        took = time_reference()
        self.samples.append(took)
        self.spent += took
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(time_reference())
        return False


def measure(runner, seconds):
    """Untraced operations under the speed probe, set-ups in between.

    Set-up samples precede each operation, so they are spread over the
    whole window. Each operation's ``op_ref`` is its time over the mean
    probe time during it: probes come at even intervals, so their mean
    weights host speed the way the operation experienced it. Returns
    the timed records, the set-up seconds, the set-up ratios to the
    reference kernel and the probe samples.
    """
    runner.setup_samples(0, 0.0)
    _, wall = runner.op(0, "warmup")
    deadline = time.perf_counter() + seconds
    records, setup, setup_ratios, probes = [], [], [], []
    probe = SpeedProbe()
    k = 0
    while True:
        t0 = time.perf_counter()
        samples, ratios = runner.setup_samples(k, SETUP_SHARE * wall)
        setup += samples
        setup_ratios += ratios
        result, wall = runner.op(k, f"op{k}", probe=probe)
        result.op_ref = result.seconds / statistics.fmean(probe.samples)
        records.append(result)
        probes += probe.samples
        k += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return records, setup, setup_ratios, probes


def measure_traced(runner, seconds, tracer):
    """Untraced/traced pairs on scenario 0; returns both record lists."""
    runner.op(0, "warmup")
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    i = 0
    while True:
        u, u_wall = runner.op(0, f"plain{i}")
        t, t_wall = runner.op(0, f"traced{i}", tracer=tracer, op_id=i)
        plain.append(u)
        traced.append((i, t))
        i += 1
        if time.perf_counter() + u_wall + t_wall > deadline:
            return plain, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload_name, setup, setup_ratios, probes, records, runner):
    from workloads import WORKLOAD_METRICS
    # a failed operation has no valid timing; keep all if every one failed
    ok = [r for r in records if not r.failures] or records
    m = {"op_ref": summarize([r.op_ref for r in ok], "ref"),
         "op_s": summarize([r.seconds for r in ok], "s"),
         "setup_s": summarize([REF_SECONDS * x for x in setup_ratios], "s"),
         "setup_raw_s": summarize(setup, "s"),
         "ref_s": summarize(probes, "s")}
    for name in WORKLOAD_METRICS[workload_name]:
        if name.endswith("_s"):
            vals = [r.phases[name[:-2]] for r in ok if name[:-2] in r.phases]
        else:
            vals = [r.values[name] for r in records if name in r.values]
        if vals:
            m[name] = summarize(vals, unit_of(name),
                                worst=name.endswith("_err"))
    m["peak_rss_mb"] = summarize([peak_rss_mb()], "MB")
    m["failed_ratio"] = summarize([runner.failed / runner.attempted], "1")
    return m


def per_layer(tracer, plain, traced):
    import tracing
    rows = []
    for op_id, result in traced:
        by_name, counters, maxima = tracer.op_summary(op_id)
        rows.append(tracing.layer_metrics(
            by_name, counters, maxima, result.seconds,
            result.values["artifact_bytes"]))
    m = {}
    for name in rows[0]:
        vals = [r[name] for r in rows if r[name] is not None]
        if vals:
            m[name] = summarize(vals, tracing.layer_unit(name))
    overhead = (statistics.median(r.seconds for _, r in traced)
                / statistics.median(r.seconds for r in plain))
    m["trace.overhead"] = {"value": overhead, "unit": "ratio",
                           "n": len(traced)}
    return m


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS
    import tracing
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        runner = Runner(WORKLOADS[name](seed, workdir), workdir)
        setup = []
        if trace:
            tracer = tracing.Tracer()
            plain, traced = measure_traced(runner, seconds, tracer)
            metrics = per_layer(tracer, plain, traced)
            metrics["op_s.untraced"] = summarize(
                [r.seconds for r in plain], "s")
            spans = os.path.join(OUT, f"spans-{name}-seed{seed}.csv.gz")
            tracer.write(spans)
            records = plain
        else:
            records, setup, setup_ratios, probes = measure(runner, seconds)
            metrics = end_to_end(name, setup, setup_ratios, probes, records,
                                 runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": runner.attempted,
            "failed": runner.failed, "failures": runner.failures,
            "metrics": metrics, "setup_samples": setup,
            "operations": [{"phases": r.phases, "values": r.values}
                           for r in records]}


def _fmt(entry):
    v = entry["value"]
    text = f"{v:.6g}" if isinstance(v, float) else str(v)
    extra = "".join(f" {k}={entry[k]:.6g}" for k in entry
                    if k.startswith("p") and k[1:2].isdigit())
    return f"{text} {entry['unit']} (n={entry['n']}{extra})"


def declared(kind):
    """Names of the metrics BENCHMARK.json declares under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def run_children(args, names):
    """``--workload all``: each workload in a child process of its own,
    so every peak resident set belongs to one workload. Passes their
    lines through and merges their last lines into one."""
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
            timeout=900 + 4 * args.seconds)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, entry in last["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypershadow", "__init__.py")):
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hypershadow
    if not os.path.abspath(hypershadow.__file__).startswith(SRC + os.sep):
        print(f"bench: imported {hypershadow.__file__}, not the source "
              f"under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_children(args, list(WORKLOADS))
    name = args.workload
    if name not in WORKLOADS:
        print(f"bench: unknown workload {name!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    res = run_workload(name, args.seed, args.seconds, args.trace)
    res["env"] = env
    path = os.path.join(
        OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")
    mode = "traced" if args.trace else "untraced"
    print(f"== {name} (seed {args.seed}, {mode}): {res['attempted']} "
          f"operations, {res['failed']} failed")
    for metric, entry in res["metrics"].items():
        print(f"  {metric:38s} {_fmt(entry)}")
    for fail in res["failures"]:
        print(f"  FAILED {fail['op']}: {'; '.join(fail['failures'])}")

    wanted = declared("per_layer" if args.trace else "end_to_end")
    metrics = {metric: {"value": res["metrics"][metric]["value"],
                        "unit": res["metrics"][metric]["unit"]}
               for metric in wanted}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
