"""Spans recorded around the program's entry points, from the outside.

The benchmark never edits the package: ``Tracer.installed()`` swaps
module functions and class methods of ``hypershadow`` for wrappers that
record a span (name, start, end, parent, operation id) around each call
and restores the originals on exit, so untraced operations run the
unmodified program. Spans live in flat arrays in memory and are written
out once, when the run ends.

A wrapper whose span would nest directly inside a span of the same name
calls straight through: ``GridFunction.eval1`` delegating to ``eval`` is
one lookup, not two.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from hypershadow import cli, electrodynamics, flows, funcspace, hyperbolic
from hypershadow import invariance, perturbations


def _size_arg(index):
    """Points of a call: size of positional argument ``index``."""
    def points(args):
        return int(np.size(args[index]))
    return points


# (owner, attribute, span name, points of one call or None). Functions
# the program imports by name are wrapped where the caller looks them up.
_FRAMES = (hyperbolic._FrameBase, hyperbolic.AnalyticFrame,
           hyperbolic.FloquetFrame)
SPAN_TARGETS = [
    (cli, "cmd_run", "cli.run", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli.Scenario, "resolve", "cli.resolve", None),
    (cli, "save_state", "cli.artifact", None),
    (invariance.IterationReport, "to_json", "cli.artifact", None),
    (cli, "write_residual_csv", "cli.artifact", None),
    (cli, "write_bounds_csv", "cli.artifact", None),
    (cli, "load_state", "cli.load_state", None),
    (cli, "iterate", "invariance.iterate", None),
    (invariance, "gamma_step", "invariance.step", None),
    (cli, "gamma_step", "invariance.step", None),
    (cli, "aposteriori_bounds", "invariance.bounds", None),
    # PerturbationSpec.__call__ inside the operator; apply_P is how the
    # grid tabulation reaches spec.evaluate, one call per time
    (perturbations.PerturbationSpec, "__call__", "perturbations.spec", None),
    (perturbations, "apply_P", "perturbations.spec", None),
    (perturbations.HistorySegment, "eval", "perturbations.segment", None),
    (perturbations.HistorySegment, "__call__", "perturbations.segment", None),
    (perturbations.HistorySegment, "deriv", "perturbations.segment", None),
    (invariance, "solve_flow", "flows.solve", None),
    (funcspace.GridFunction, "eval", "funcspace.eval", _size_arg(1)),
    (funcspace.GridFunction, "eval1", "funcspace.eval", _size_arg(1)),
    (funcspace.GridFunction, "__call__", "funcspace.eval", _size_arg(1)),
    (funcspace.GridFunction, "derivative", "funcspace.derivative", None),
    (cli, "frame_from_descriptor", "hyperbolic.frame", None),
    (hyperbolic.OdeModel, "f_batch", "hyperbolic.model", None),
    (hyperbolic.OdeModel, "df_batch", "hyperbolic.model", None),
    (hyperbolic.OdeModel, "d2f_batch", "hyperbolic.model", None),
    (electrodynamics.DelayField, "solve", "electrodynamics.delay_field",
     None),
]
for _cls in _FRAMES:
    for _attr, _name, _pts in (
            ("convolve_stable", "hyperbolic.convolve", _size_arg(2)),
            ("convolve_unstable", "hyperbolic.convolve", _size_arg(2)),
            ("proj_batch", "hyperbolic.proj", None),
            ("proj_apply", "hyperbolic.proj", None),
            ("orbit_batch", "hyperbolic.orbit", None),
            ("orbit_deriv_batch", "hyperbolic.orbit", None)):
        if _attr in vars(_cls):
            SPAN_TARGETS.append((_cls, _attr, _name, _pts))

# bookkeeping with no span: calls counted, or the largest value returned
COUNT_TARGETS = [(flows.ScalarField, "fast_value", "flows.field_lookups")]
MAX_TARGETS = [(flows.Flow, "roundtrip_defect", "flows.roundtrip_defect_max")]


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = []
        self._op_id = -1
        self.counters = defaultdict(int)     # (op id, key) -> count
        self.maxima = {}                      # (op id, key) -> value
        self.t_origin = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def operation(self, op_id, name):
        """Top-level span of one operation; child spans carry its id."""
        self._op_id = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op_id = -1

    def count(self, key, value=1):
        self.counters[(self._op_id, key)] += value

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name, points):
        nid = self._intern(name)
        tracer = self
        pkey = name + ".points"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if points is not None:
                    tracer.counters[(tracer._op_id, pkey)] += points(args)
        return traced

    def _count_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[(tracer._op_id, key)] += 1
            return fn(*args, **kwargs)
        return counted

    def _max_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            value = fn(*args, **kwargs)
            slot = (tracer._op_id, key)
            tracer.maxima[slot] = max(tracer.maxima.get(slot, 0.0),
                                      float(value))
            return value
        return watched

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, points in SPAN_TARGETS:
                saved.append(_patch(owner, attr, lambda f, n=name, p=points:
                                    self._span_wrapper(f, n, p)))
            for owner, attr, key in COUNT_TARGETS:
                saved.append(_patch(owner, attr, lambda f, k=key:
                                    self._count_wrapper(f, k)))
            for owner, attr, key in MAX_TARGETS:
                saved.append(_patch(owner, attr, lambda f, k=key:
                                    self._max_wrapper(f, k)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def op_summary(self, op_id):
        """Per-name calls, inclusive and self seconds of one operation.

        Self time is a span's duration minus the time its direct children
        cover; inclusive time counts a span only when no ancestor has the
        same name. Returns (by_name, counters, maxima).
        """
        op = np.frombuffer(self.op, dtype=np.int64) if self.op else \
            np.empty(0, dtype=np.int64)
        idx = np.flatnonzero(op == op_id)
        by_name = {}
        if idx.size:
            start = np.frombuffer(self.start, dtype=float)
            end = np.frombuffer(self.end, dtype=float)
            parent = np.frombuffer(self.parent, dtype=np.int64)
            nid = np.frombuffer(self.name_id, dtype=np.uint16)
            dur = end - start
            child = np.zeros(len(self.start))
            par = parent[idx]
            has = par >= 0
            np.add.at(child, par[has], dur[idx][has])
            for i in idx:
                name = self.names[nid[i]]
                rec = by_name.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[2] += dur[i] - child[i]
                p = parent[i]
                while p >= 0 and nid[p] != nid[i]:
                    p = parent[p]
                if p < 0:
                    rec[1] += dur[i]
        counters = {k: v for (o, k), v in self.counters.items() if o == op_id}
        maxima = {k: v for (o, k), v in self.maxima.items() if o == op_id}
        return by_name, counters, maxima

    def write(self, path):
        """Every span as gzip CSV: op,span,parent,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]},{i},{self.parent[i]},"
                         f"{self.names[self.name_id[i]]},"
                         f"{self.start[i] - self.t_origin:.9f},"
                         f"{self.end[i] - self.t_origin:.9f}\n")
        return len(self.start)


def _patch(owner, attr, make):
    """Replace owner.attr by make(original); returns the restore triple."""
    raw = vars(owner)[attr] if isinstance(owner, type) else \
        getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return owner, attr, raw


def layer_metrics(by_name, counters, maxima, op_seconds, artifact_bytes):
    """The named per-layer metrics of one traced operation."""
    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def self_time(prefix):
        return sum(rec[2] for name, rec in by_name.items()
                   if name.startswith(prefix))

    steps = calls("invariance.step")
    spec_calls = calls("perturbations.spec")
    eval_calls = calls("funcspace.eval")
    eval_points = counters.get("funcspace.eval.points", 0)
    m = {
        "perturbations.spec_calls": spec_calls,
        "perturbations.spec_s": incl("perturbations.spec"),
        "perturbations.segment_reads": calls("perturbations.segment"),
        "perturbations.spec_calls_per_step":
            spec_calls / steps if steps else None,
        "flows.solve_calls": calls("flows.solve"),
        "flows.solve_s": incl("flows.solve"),
        "flows.field_lookups": counters.get("flows.field_lookups", 0),
        "flows.roundtrip_defect_max":
            maxima.get("flows.roundtrip_defect_max", 0.0),
        "funcspace.eval_calls": eval_calls,
        "funcspace.eval_points": eval_points,
        "funcspace.eval_s": incl("funcspace.eval"),
        "funcspace.points_per_call":
            eval_points / eval_calls if eval_calls else None,
        "funcspace.derivative_s": incl("funcspace.derivative"),
        "hyperbolic.frame_calls": calls("hyperbolic.frame"),
        "hyperbolic.frame_s": incl("hyperbolic.frame"),
        "hyperbolic.convolve_calls": calls("hyperbolic.convolve"),
        "hyperbolic.convolve_points":
            counters.get("hyperbolic.convolve.points", 0),
        "hyperbolic.convolve_s": incl("hyperbolic.convolve"),
        "hyperbolic.proj_s": incl("hyperbolic.proj"),
        "hyperbolic.model_s": incl("hyperbolic.model"),
        "hyperbolic.orbit_calls": calls("hyperbolic.orbit"),
        "hyperbolic.orbit_s": incl("hyperbolic.orbit"),
        "invariance.steps": steps,
        "invariance.step_s": incl("invariance.step"),
        "invariance.self_s": by_name.get("invariance.step", (0, 0, 0.0))[2],
        "invariance.bounds_s": incl("invariance.bounds"),
        "cli.artifact_s": incl("cli.artifact"),
        "cli.artifact_bytes": artifact_bytes,
        "cli.load_state_s": incl("cli.load_state"),
        "cli.self_s": self_time("cli."),
        "electrodynamics.delay_fields": calls("electrodynamics.delay_field"),
        "electrodynamics.delay_nodes":
            counters.get("electrodynamics.delay_nodes", 0),
        "electrodynamics.delay_iters":
            counters.get("electrodynamics.delay_iters", 0),
        "electrodynamics.delay_solve_s": incl("electrodynamics.delay_field"),
        "trace.other_s": self_time("bench."),
        "trace.spans": sum(rec[0] for rec in by_name.values()),
        "trace.op_s": op_seconds,
    }
    # self time summed per layer, to see which layer the time sits in
    for layer in ("cli", "invariance", "perturbations", "flows",
                  "funcspace", "hyperbolic", "electrodynamics"):
        m[f"self.{layer}_s"] = self_time(layer + ".")
    return m


# unit of every per-layer metric; ratios and defects are dimensionless
LAYER_UNITS = {
    "perturbations.spec_calls_per_step": "calls/step",
    "funcspace.points_per_call": "points/call",
    "flows.roundtrip_defect_max": "1",
    "cli.artifact_bytes": "bytes",
    "trace.overhead": "ratio",
}


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"
