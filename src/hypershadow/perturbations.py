"""Perturbation functionals acting on history segments.

Each perturbation is a map (t, theta, eps) -> R^n where theta is a
history segment over [-h, h]. Evaluation is batched: a HistorySegment
holds k center times, and a spec maps k base times with their segments
to a (k, n) array in one call, so a whole lattice of times costs a few
array lookups instead of one call per time. User callables (Q, r, g,
tau) stay pointwise; the builders apply them row by row. Builders
cover forcing terms that only read theta(0), state-dependent and
nested delays, neutral terms that read theta'(0), weighted multi-delay
sums, and the induced functional of a small state-dependent delay. Declared Lipschitz constants ride
along and can be cross-checked empirically with lipschitz_probe; the
probe is a sampling lower bound, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .funcspace import GridFunction

__all__ = [
    "HistorySegment",
    "PerturbationSpec",
    "ProbeReport",
    "ode_term",
    "state_dependent_delay",
    "nested_delay",
    "neutral_delay",
    "small_delay_q",
    "multi_delay_advance",
    "apply_P",
    "lipschitz_probe",
    "segment_distance_c1",
    "functional_output_grid",
    "spec_from_descriptor",
    "mu_sensitivity",
]

_LOOKUP_SLACK = 1e-9


def _rows(fn, *cols):
    """Stack fn(*row) over the rows of the argument columns.

    User callables (Q, r, g, tau, forces) stay pointwise; this is the one
    place the batched builders hand them one row at a time.
    """
    return np.asarray([fn(*row) for row in zip(*cols)], dtype=float)


def _shift_rows(fn, *cols):
    """Scalar shifts of a pointwise delay map, one per row: shape (k,)."""
    return np.array([float(fn(*row)) for row in zip(*cols)])


class HistorySegment:
    """Trajectory pieces around k center times: s in [-h, h] -> theta(t_i + s).

    ``t`` holds the centers, shape (k,); a scalar makes k = 1.
    ``eval_fn`` and the optional ``deriv_fn`` map a 1-D array of absolute
    times to (len, n) values. ``eval(s)`` and ``deriv(s)`` take offsets
    that broadcast against the centers (a scalar or shape (k,)) and
    return (k, n). Lookups outside the radius raise; delays never get
    clamped. The derivative evaluator is optional so that purely
    retarded specs can consume segments built without one.
    """

    __slots__ = ("t", "h", "_eval", "_deriv")

    def __init__(self, t, h, eval_fn, deriv_fn=None):
        if not (h > 0.0):
            raise ValueError("history radius must be positive")
        self.t = np.atleast_1d(np.asarray(t, dtype=float))
        self.h = float(h)
        self._eval = eval_fn
        self._deriv = deriv_fn

    def __len__(self):
        return self.t.size

    def _times(self, s):
        s = np.asarray(s, dtype=float)
        outside = np.abs(s) > self.h + _LOOKUP_SLACK
        if outside.any():
            bad = float(s.flat[int(np.argmax(outside))])
            raise ValueError(
                f"history lookup at {bad:+.6g} outside radius {self.h:.6g}")
        return self.t + s

    def eval(self, s):
        return np.asarray(self._eval(self._times(s)), dtype=float)

    __call__ = eval

    def deriv(self, s):
        if self._deriv is None:
            raise ValueError("segment does not expose a derivative")
        return np.asarray(self._deriv(self._times(s)), dtype=float)

    @property
    def has_derivative(self):
        return self._deriv is not None

    def take(self, rows):
        """The segments of the selected centers (index array or slice)."""
        return HistorySegment(self.t[rows], self.h, self._eval, self._deriv)

    @classmethod
    def from_grid(cls, traj, t, h):
        """Window the GridFunction ``traj`` at the centers t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if float(np.abs(t).max()) + h > traj.half_width + 1e-12:
            raise ValueError("trajectory window too small for this segment")
        return cls(t, h, traj.eval, traj.derivative(1).eval)

    @classmethod
    def from_callable(cls, fn, t, h, dfn=None):
        """Segments of a pointwise trajectory ``fn(time) -> (n,)``."""
        def rows(f):
            return lambda ts: _rows(f, ts.tolist())

        return cls(t, h, rows(fn), None if dfn is None else rows(dfn))


@dataclass(frozen=True)
class PerturbationSpec:
    """Immutable perturbation functional with declared metadata.

    ``evaluate(ts, segment, eps) -> (k, n)`` for k base times ts and a
    segment with one center per base time; calling the spec with a
    scalar t runs the same code with k = 1 and returns (n,). L1 and L2
    are the declared time/state Lipschitz constants against |s - t| and
    the C^1 segment distance; ``ell`` is the regularity budget the
    builder vouches for.
    """

    h: float
    mu: object
    evaluate: object
    L1: float
    L2: float
    ell: int = 3
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    uses_derivative: bool = False

    def __post_init__(self):
        if not (self.h > 0.0):
            raise ValueError("history radius must be positive")
        if self.L1 < 0.0 or self.L2 < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")

    def __call__(self, t, segment, eps):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if ts.ndim != 1 or ts.size != len(segment):
            raise ValueError("need one segment center per base time")
        out = self.evaluate(ts, segment, eps)
        return out[0] if np.ndim(t) == 0 else out

    def descriptor(self):
        return {"kind": self.kind, "parameters": dict(self.params),
                "h": self.h, "mu": self.mu, "L1": self.L1, "L2": self.L2}


# -- builders -------------------------------------------------------------

def ode_term(g, lip_t=0.0, lip_x=0.0, mu=None, ell=3, kind="ode",
             params=None):
    """Perturbation reading only the present state: p(t, theta) = g(t, theta(0)).

    A vanishing history radius is represented by a tiny positive one.
    """

    def evaluate(ts, seg, eps):
        return _rows(g, ts.tolist(), seg.eval(0.0))

    return PerturbationSpec(h=1e-9, mu=mu, evaluate=evaluate, L1=lip_t,
                            L2=lip_x, ell=ell, kind=kind,
                            params=dict(params or {}))


def state_dependent_delay(Q, r, h, r_bound=None, lip_q=1.0, lip_r=1.0,
                          traj_c1=1.0, mu=None, ell=3, kind="sdd",
                          params=None):
    """p(t, theta) = Q(t, theta(r(t, theta(0)))).

    ``r_bound`` is the declared sup of |r|; it must fit inside h.
    L1 and L2 follow the add-and-subtract chain bound with a C^1
    trajectory budget ``traj_c1``.
    """
    r_bound = h if r_bound is None else float(r_bound)
    if r_bound > h + 1e-12:
        raise ValueError("declared delay bound exceeds the history radius")

    def evaluate(ts, seg, eps):
        tl = ts.tolist()
        shift = _shift_rows(r, tl, seg.eval(0.0))
        return _rows(Q, tl, seg.eval(shift))

    L = lip_q * (1.0 + traj_c1 * lip_r)
    return PerturbationSpec(h=h, mu=mu, evaluate=evaluate, L1=L, L2=L,
                            ell=ell, kind=kind, params=dict(params or {}))


def nested_delay(Q, r, r1, h, r_bound=None, r1_bound=None, lip_q=1.0,
                 lip_r=1.0, lip_r1=1.0, traj_c1=1.0, mu=None, ell=3,
                 kind="nested", params=None):
    """p(t, theta) = Q(t, theta(r(t, theta(r1(theta(0)))))).

    The inner shift r1 produces a lookup whose value feeds the outer
    delay map, so both declared shift bounds must fit inside h.
    """
    r_bound = h if r_bound is None else float(r_bound)
    r1_bound = h if r1_bound is None else float(r1_bound)
    if max(r_bound, r1_bound) > h + 1e-12:
        raise ValueError("declared delay bound exceeds the history radius")

    def evaluate(ts, seg, eps):
        tl = ts.tolist()
        inner = seg.eval(_shift_rows(r1, seg.eval(0.0)))
        shift = _shift_rows(r, tl, inner)
        return _rows(Q, tl, seg.eval(shift))

    L1 = lip_q * (1.0 + traj_c1 * lip_r)
    L2 = lip_q * (1.0 + traj_c1 * lip_r * (1.0 + traj_c1 * lip_r1))
    return PerturbationSpec(h=h, mu=mu, evaluate=evaluate, L1=L1, L2=L2,
                            ell=ell, kind=kind, params=dict(params or {}))


def neutral_delay(Q, r, h, r_bound=None, lip_q=1.0, lip_r=1.0, traj_c1=1.0,
                  mu=None, ell=3, kind="neutral", params=None):
    """p(t, theta) = Q(t, theta(r(t, theta'(0)))).

    The delay consumes the segment derivative at zero, which equals the
    trajectory's time derivative, so this spec costs one derivative of
    regularity relative to the plain delay case.
    """
    r_bound = h if r_bound is None else float(r_bound)
    if r_bound > h + 1e-12:
        raise ValueError("declared delay bound exceeds the history radius")

    def evaluate(ts, seg, eps):
        tl = ts.tolist()
        shift = _shift_rows(r, tl, seg.deriv(0.0))
        return _rows(Q, tl, seg.eval(shift))

    L = lip_q * (1.0 + traj_c1 * lip_r)
    return PerturbationSpec(h=h, mu=mu, evaluate=evaluate, L1=L, L2=L,
                            ell=max(1, ell), kind=kind,
                            params=dict(params or {}), uses_derivative=True)


def small_delay_q(f_model, tau_fns, h, blocks=None, tau_bounds=None,
                  eps_max=1.0, quad_order=8, declared=None, mu=None, ell=2,
                  kind="small-delay", params=None):
    """The induced functional of small state-dependent delays.

    Encodes x'(t) = f(x(t - eps tau_1), ..., x(t - eps tau_L)) as the
    unperturbed field plus eps times

        evaluate(t, theta, eps) =
            - sum_i int_0^1 D_i f(y_sigma) theta'(-sigma eps tau_i) tau_i dsigma

    where the i-th argument group of f is the coordinate block
    blocks[i] read at the i-th delayed time, and D_i f are the matching
    Jacobian columns. With one delay and the full block this is the
    classical one-delay rewrite. The sigma integral uses fixed-order
    Gauss quadrature. Each ``tau(t, segment)`` is pointwise: it gets one
    base time and the single-center segment of that time.
    """
    n = f_model.n
    L = len(tau_fns)
    if L == 0:
        raise ValueError("at least one delay functional is required")
    if blocks is None:
        if L != 1:
            raise ValueError("several delays need explicit coordinate blocks")
        blocks = [np.arange(n)]
    blocks = [np.asarray(b, dtype=int) for b in blocks]
    flat = np.concatenate(blocks)
    if len(flat) != n or set(flat.tolist()) != set(range(n)):
        raise ValueError("blocks must partition the coordinates")
    if tau_bounds is None:
        tau_bounds = [h / max(eps_max, 1e-300)] * L
    worst = max(float(b) for b in tau_bounds)
    if eps_max * worst > h + 1e-12:
        raise ValueError("eps times the delay bound exceeds the history radius")
    nodes, weights = np.polynomial.legendre.leggauss(int(quad_order))
    sig = 0.5 * (nodes + 1.0)
    wts = 0.5 * weights

    def evaluate(ts, seg, eps):
        k = ts.size
        rows = [seg.take(slice(i, i + 1)) for i in range(k)]
        taus = [_shift_rows(tau, ts.tolist(), rows) for tau in tau_fns]
        for tv in taus:
            if np.any(np.abs(eps * tv) > h + _LOOKUP_SLACK):
                raise ValueError("eps times the delay leaves the history window")
        out = np.zeros((k, n))
        for s_val, w in zip(sig, wts):
            y = np.empty((k, n))
            for b, tv in zip(blocks, taus):
                y[:, b] = seg.eval(-s_val * eps * tv)[:, b]
            J = f_model.df_batch(y)
            for b, tv in zip(blocks, taus):
                dth = seg.deriv(-s_val * eps * tv)
                out -= (w * tv)[:, None] * np.einsum(
                    "kij,kj->ki", J[:, :, b], dth[:, b])
        return out

    if declared is None:
        declared = (1.0, 1.0)
    L1, L2 = declared
    return PerturbationSpec(h=h, mu=mu, evaluate=evaluate, L1=L1, L2=L2,
                            ell=ell, kind=kind, params=dict(params or {}),
                            uses_derivative=True)


def multi_delay_advance(pairs, h=None, mu=None, ell=3, kind="multi-delay",
                        params=None):
    """Weighted sum of fixed shifts: sum_i w_i theta(s_i), mixed signs allowed."""
    pairs = [(float(s), float(w)) for s, w in pairs]
    worst = max((abs(s) for s, _ in pairs), default=0.0)
    if h is None:
        h = max(worst, 1e-9)
    if worst > h + 1e-12:
        raise ValueError("shift outside the history radius")

    def evaluate(ts, seg, eps):
        if not pairs:
            return np.zeros_like(seg.eval(0.0))
        out = pairs[0][1] * seg.eval(pairs[0][0])
        for s, w in pairs[1:]:
            out = out + w * seg.eval(s)
        return out

    L2 = sum(abs(w) for _, w in pairs)
    return PerturbationSpec(h=h, mu=mu, evaluate=evaluate, L1=0.0, L2=L2,
                            ell=ell, kind=kind,
                            params=dict(params or {"pairs": pairs}))


# -- application and probing ----------------------------------------------

def apply_P(spec, u, eps, t, du=None):
    """Evaluate the functional on a trajectory at the base time(s) t.

    A scalar t gives (n,), a 1-D array of k times (k, n). ``u`` is a
    GridFunction, an already-built HistorySegment centered at t, or a
    pointwise callable (then ``du`` optionally supplies the derivative).
    """
    if isinstance(u, HistorySegment):
        seg = u
    elif isinstance(u, GridFunction):
        seg = HistorySegment.from_grid(u, t, spec.h)
    else:
        seg = HistorySegment.from_callable(u, t, spec.h, dfn=du)
    return spec(t, seg, eps)


def segment_distance_c1(seg_a, seg_b, samples=33):
    """Per center: max over levels 0,1 of the sampled sup distance, shape (k,)."""
    h = min(seg_a.h, seg_b.h)
    both = seg_a.has_derivative and seg_b.has_derivative
    dist = 0.0
    for s in np.linspace(-h, h, samples):
        dist = np.maximum(dist, np.linalg.norm(
            seg_a.eval(s) - seg_b.eval(s), axis=1))
        if both:
            dist = np.maximum(dist, np.linalg.norm(
                seg_a.deriv(s) - seg_b.deriv(s), axis=1))
    return dist


@dataclass(frozen=True)
class ProbeReport:
    """Empirical Lipschitz estimates and whether the declared pair dominates."""

    L1_hat: float
    L2_hat: float
    dominated: bool
    worst_excess: float


def lipschitz_probe(spec, sample_pairs, eps=0.0, tol=1e-9):
    """Empirical check of the declared (L1, L2) on sampled segment pairs.

    Each sample is ((t, seg_a), (s, seg_b)): two segment batches with
    centers t and s (scalars or equal-length arrays), compared row by
    row. Pure time shifts feed the L1 estimate, equal-time pairs feed
    L2, and every row must satisfy the combined declared bound up to
    ``tol`` slack.
    """
    L1_hat = 0.0
    L2_hat = 0.0
    worst = -math.inf
    for (t, seg_a), (s, seg_b) in sample_pairs:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        lhs = np.linalg.norm(spec(s, seg_b, eps) - spec(t, seg_a, eps),
                             axis=1)
        dt = np.abs(s - t)
        dist = segment_distance_c1(seg_a, seg_b)
        shift = (dist <= 1e-12) & (dt > 0.0)
        if shift.any():
            L1_hat = max(L1_hat, float((lhs[shift] / dt[shift]).max()))
        same = (dt <= 1e-12) & (dist > 0.0)
        if same.any():
            L2_hat = max(L2_hat, float((lhs[same] / dist[same]).max()))
        worst = max(worst, float(
            (lhs - (spec.L1 * dt + spec.L2 * dist)).max()))
    return ProbeReport(L1_hat=L1_hat, L2_hat=L2_hat,
                       dominated=worst <= tol, worst_excess=worst)


def functional_output_grid(spec, traj, eps, half_width, delta):
    """Sample t -> P[u](t) on a grid in one batched call.

    The window must leave room for the history radius on both sides.
    """
    if half_width + spec.h > traj.half_width + 1e-12:
        raise ValueError("trajectory window too small for this probe")
    K = int(round(half_width / delta))
    ts = -half_width + delta * np.arange(2 * K + 1)
    vals = apply_P(spec, traj, eps, ts)
    return GridFunction(half_width, delta, vals, interp_order=5,
                        extension="constant-hold")


# -- descriptors -----------------------------------------------------------

def _id_q(t, x):
    return x


def spec_from_descriptor(desc):
    """Build a shipped perturbation from its JSON descriptor."""
    try:
        return _build_from_descriptor(desc)
    except KeyError as exc:
        raise ValueError(
            f"descriptor kind {desc.get('kind', '?')!r} is missing "
            f"parameter {exc.args[0]!r}") from exc


def _build_from_descriptor(desc):
    kind = desc["kind"]
    p = dict(desc.get("parameters", {}))
    mu = desc.get("mu")

    if kind == "zero":
        n = int(p.get("n", 3))
        return ode_term(lambda t, x: np.zeros(n), kind="zero", params=p,
                        mu=mu)

    if kind == "ode-sin-forcing":
        a = float(p["a"])
        omega = float(p["omega"])
        shift = float(p.get("shift", 0.0))
        axis = int(p.get("axis", 1))
        n = int(p.get("n", 3))

        def g(t, x):
            out = np.zeros(n)
            out[axis] = a * math.sin(omega * (t - shift))
            return out

        return ode_term(g, lip_t=abs(a * omega), lip_x=0.0, mu=mu,
                        kind=kind, params=p)

    if kind == "multi-delay":
        pairs = [(float(s), float(w)) for s, w in p["pairs"]]
        return multi_delay_advance(pairs, h=p.get("h"), mu=mu, kind=kind,
                                   params=p)

    if kind == "delayed-sin-forcing":
        # sine of the delayed first coordinate on one slot; on a saddle
        # orbit this reads a*sin(omega*(t - lag)) and admits a closed
        # form response, which makes it the standard oracle scenario
        a = float(p["a"])
        omega = float(p["omega"])
        lag = float(p.get("lag", 1.0))
        h = float(p.get("h", max(1.0, lag)))
        axis = int(p.get("axis", 1))
        n = int(p.get("n", 3))

        def Q(t, y):
            out = np.zeros(n)
            out[axis] = a * math.sin(omega * y[0])
            return out

        def r(t, y):
            return -lag

        return state_dependent_delay(
            Q, r, h, r_bound=lag, lip_q=abs(a * omega), lip_r=0.0,
            traj_c1=float(p.get("traj_c1", 2.0)), mu=mu, kind=kind, params=p)

    if kind == "sdd-tanh":
        h = float(p["h"])
        c0 = float(p["c0"])
        c1 = float(p["c1"])
        comp = int(p.get("component", 0))

        def r(t, x):
            return -(c0 + c1 * math.tanh(x[comp]))

        return state_dependent_delay(
            _id_q, r, h, r_bound=abs(c0) + abs(c1), lip_q=1.0, lip_r=abs(c1),
            traj_c1=float(p.get("traj_c1", 2.0)), mu=mu, kind=kind, params=p)

    if kind == "neutral-linear":
        h = float(p["h"])
        c0 = float(p["c0"])
        c1 = float(p["c1"])
        comp = int(p.get("component", 0))
        v_bound = float(p.get("deriv_bound", 2.0))

        def r(t, y):
            return -(c0 + c1 * y[comp])

        return neutral_delay(
            _id_q, r, h, r_bound=abs(c0) + abs(c1) * v_bound, lip_q=1.0,
            lip_r=abs(c1), traj_c1=v_bound, mu=mu, kind=kind, params=p)

    if kind == "nested-abs":
        h = float(p["h"])
        inner = float(p.get("inner_shift", -0.5))
        comp = int(p.get("component", 0))

        def r(t, x):
            return max(-h, -abs(x[comp]))

        def r1(x):
            return inner

        return nested_delay(_id_q, r, r1, h, r_bound=h, r1_bound=abs(inner),
                            lip_q=1.0, lip_r=1.0, lip_r1=0.0,
                            traj_c1=float(p.get("traj_c1", 2.0)), mu=mu,
                            kind=kind, params=p)

    if kind == "small-delay":
        from .hyperbolic import builtin_model
        model = builtin_model(p.get("model", "lin-saddle"),
                              p.get("model_params", {}))
        tau = float(p.get("tau", 1.0))
        h = float(p["h"])
        return small_delay_q(model, [lambda t, seg: tau], h,
                             tau_bounds=[abs(tau)],
                             eps_max=float(p.get("eps_max", h / max(abs(tau), 1e-12))),
                             mu=mu, kind=kind, params=p)

    raise ValueError(f"unknown perturbation kind {desc['kind']!r}")


def mu_sensitivity(desc, t, segment, eps, target, dmu=1e-4):
    """Central difference of the functional output in the parameter mu.

    ``target`` names the entry of ``parameters`` that mu feeds.
    """
    lo = {**desc, "parameters": {**desc.get("parameters", {})}}
    hi = {**desc, "parameters": {**desc.get("parameters", {})}}
    base = float(desc["parameters"][target])
    lo["parameters"][target] = base - dmu
    hi["parameters"][target] = base + dmu
    plo = spec_from_descriptor(lo)(t, segment, eps)
    phi = spec_from_descriptor(hi)(t, segment, eps)
    return (phi - plo) / (2.0 * dmu)
