"""Perturbation functionals acting on history segments.

Each perturbation is a map (t, theta, eps) -> R^n where theta is a
history segment over [-h, h]. Evaluation is batched: a HistorySegment
holds k center times, and a spec maps k base times with their segments
to a (k, n) array in one call, so a whole lattice of times costs a few
array lookups instead of one call per time. User callables (Q, r, g,
tau) are batched too: they take the k base times (k,) with the (k, n)
states read off the segments, Q and g return (k, n), and the shifts r,
r1 and tau return (k,) or one scalar for every row. Wrap a function
written for one row with :func:`~hypershadow.funcspace.pointwise`.
Builders cover forcing terms that only read theta(0), state-dependent
and nested delays, neutral terms that read theta'(0), weighted
multi-delay sums, and the induced functional of a small
state-dependent delay. Declared Lipschitz constants ride along.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import NumericalError
from .funcspace import REQUIRED, Entry, GridFunction, check_entries

__all__ = [
    "HistorySegment",
    "PerturbationSpec",
    "ode_term",
    "state_dependent_delay",
    "nested_delay",
    "neutral_delay",
    "small_delay_q",
    "multi_delay_advance",
    "apply_P",
    "functional_output_grid",
    "spec_from_descriptor",
]

_LOOKUP_SLACK = 1e-9


class HistorySegment:
    """Trajectory pieces around k center times: s in [-h, h] -> theta(t_i + s).

    ``t`` holds the centers, shape (k,); a scalar makes k = 1.
    ``eval_fn`` and the optional ``deriv_fn`` map a 1-D array of absolute
    times to (len, n) values. ``eval(s)`` and ``deriv(s)`` take offsets
    that broadcast against the centers (a scalar or shape (k,)) and
    return (k, n). Lookups outside the radius raise; delays never get
    clamped. The derivative evaluator is optional so that purely
    retarded specs can consume segments built without one.

    ``present``, when given, is a zero-argument callable returning the
    (k, n) values at the centres themselves, read where they are known
    without ``eval_fn``. It runs on the first read at a scalar offset of
    exactly 0 and its result is kept; every such read gets a copy. Any
    other offset reads through ``eval_fn``.
    """

    __slots__ = ("t", "h", "_eval", "_deriv", "_present", "_now")

    def __init__(self, t, h, eval_fn, deriv_fn=None, present=None):
        if not (h >= 0.0):
            raise ValueError("history radius must be nonnegative")
        self.t = np.atleast_1d(np.asarray(t, dtype=float))
        self.h = float(h)
        self._eval = eval_fn
        self._deriv = deriv_fn
        self._present = present
        self._now = None

    def __len__(self):
        return self.t.size

    def _times(self, s):
        s = np.asarray(s, dtype=float)
        if not np.isfinite(s).all():
            s = np.broadcast_to(s, self.t.shape)
            i = int(np.argmax(~np.isfinite(s)))
            raise NumericalError(f"history lookup offset {s[i]} at "
                                 f"t={self.t[i]:.6g} is not finite")
        outside = np.abs(s) > self.h + _LOOKUP_SLACK
        if outside.any():
            bad = float(s.flat[int(np.argmax(outside))])
            raise ValueError(
                f"history lookup at {bad:+.6g} outside radius {self.h:.6g}")
        return self.t + s

    def eval(self, s):
        if self._present is not None and np.ndim(s) == 0 and s == 0.0:
            return self._values_now().copy()
        return np.asarray(self._eval(self._times(s)), dtype=float)

    __call__ = eval

    def _values_now(self):
        if self._now is None:
            self._now = np.asarray(self._present(), dtype=float)
        return self._now

    def deriv(self, s):
        if self._deriv is None:
            raise ValueError("segment does not expose a derivative")
        return np.asarray(self._deriv(self._times(s)), dtype=float)

    def take(self, rows):
        """The segments of the selected centers (index array or slice)."""
        present = None if self._present is None else \
            (lambda: self._values_now()[rows])
        return HistorySegment(self.t[rows], self.h, self._eval, self._deriv,
                              present)

    @classmethod
    def from_grid(cls, traj, t, h):
        """Window the GridFunction ``traj`` at the centers t. Its
        derivative grid is built on the first derivative read."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if float(np.abs(t).max()) + h > traj.half_width + 1e-12:
            raise ValueError("trajectory window too small for this segment")
        return cls(t, h, traj.eval, lambda a: traj.derivative(1).eval(a))


@dataclass(frozen=True)
class PerturbationSpec:
    """Immutable perturbation functional with declared metadata.

    ``evaluate(ts, segment, eps) -> (k, n)`` for k base times ts and a
    segment with one center per base time; calling the spec with a
    scalar t runs the same code with k = 1 and returns (n,). L1 and L2
    are the declared time/state Lipschitz constants against |s - t| and
    the C^1 segment distance. A spec that reads only the present state
    declares h = 0.
    """

    h: float
    evaluate: object
    L1: float
    L2: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.h >= 0.0):
            raise ValueError("history radius must be nonnegative")
        if self.L1 < 0.0 or self.L2 < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")

    def __call__(self, t, segment, eps):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if ts.ndim != 1 or ts.size != len(segment):
            raise ValueError("need one segment center per base time")
        out = self.evaluate(ts, segment, eps)
        return out[0] if np.ndim(t) == 0 else out


# -- builders -------------------------------------------------------------

def ode_term(g, lip_t=0.0, lip_x=0.0, kind="ode", params=None):
    """Perturbation reading only the present state: p(t, theta) = g(t, theta(0)).

    ``g(ts, xs) -> (k, n)``; the history radius is 0.
    """

    def evaluate(ts, seg, eps):
        return g(ts, seg.eval(0.0))

    return PerturbationSpec(h=0.0, evaluate=evaluate, L1=lip_t,
                            L2=lip_x, kind=kind, params=dict(params or {}))


def state_dependent_delay(Q, r, h, r_bound=None, lip_q=1.0, lip_r=1.0,
                          traj_c1=1.0, kind="sdd", params=None):
    """p(t, theta) = Q(t, theta(r(t, theta(0)))).

    ``Q(ts, ys) -> (k, n)`` and ``r(ts, xs) -> (k,)``. ``r_bound`` is
    the declared sup of |r|; it must fit inside h. L1 and L2 follow the
    add-and-subtract chain bound with a C^1 trajectory budget
    ``traj_c1``.
    """
    r_bound = h if r_bound is None else float(r_bound)
    if r_bound > h + 1e-12:
        raise ValueError("declared delay bound exceeds the history radius")

    def evaluate(ts, seg, eps):
        return Q(ts, seg.eval(r(ts, seg.eval(0.0))))

    L = lip_q * (1.0 + traj_c1 * lip_r)
    return PerturbationSpec(h=h, evaluate=evaluate, L1=L, L2=L,
                            kind=kind, params=dict(params or {}))


def nested_delay(Q, r, r1, h, r_bound=None, r1_bound=None, lip_q=1.0,
                 lip_r=1.0, lip_r1=1.0, traj_c1=1.0, kind="nested",
                 params=None):
    """p(t, theta) = Q(t, theta(r(t, theta(r1(theta(0)))))).

    The inner shift ``r1(xs) -> (k,)`` produces a lookup whose value
    feeds the outer delay map, so both declared shift bounds must fit
    inside h.
    """
    r_bound = h if r_bound is None else float(r_bound)
    r1_bound = h if r1_bound is None else float(r1_bound)
    if max(r_bound, r1_bound) > h + 1e-12:
        raise ValueError("declared delay bound exceeds the history radius")

    def evaluate(ts, seg, eps):
        inner = seg.eval(r1(seg.eval(0.0)))
        return Q(ts, seg.eval(r(ts, inner)))

    L1 = lip_q * (1.0 + traj_c1 * lip_r)
    L2 = lip_q * (1.0 + traj_c1 * lip_r * (1.0 + traj_c1 * lip_r1))
    return PerturbationSpec(h=h, evaluate=evaluate, L1=L1, L2=L2,
                            kind=kind, params=dict(params or {}))


def neutral_delay(Q, r, h, r_bound=None, lip_q=1.0, lip_r=1.0, traj_c1=1.0,
                  kind="neutral", params=None):
    """p(t, theta) = Q(t, theta(r(t, theta'(0)))).

    The delay consumes the segment derivative at zero, which equals the
    trajectory's time derivative.
    """
    r_bound = h if r_bound is None else float(r_bound)
    if r_bound > h + 1e-12:
        raise ValueError("declared delay bound exceeds the history radius")

    def evaluate(ts, seg, eps):
        return Q(ts, seg.eval(r(ts, seg.deriv(0.0))))

    L = lip_q * (1.0 + traj_c1 * lip_r)
    return PerturbationSpec(h=h, evaluate=evaluate, L1=L, L2=L,
                            kind=kind, params=dict(params or {}))


# the 8-point Gauss-Legendre rule on [-1, 1], leggauss(8) bit for bit;
# stored, so that building a small-delay spec loads no numpy.polynomial
_GAUSS8_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GAUSS8_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])


def small_delay_q(f_model, tau_fns, h, blocks=None, tau_bounds=None,
                  eps_max=1.0, kind="small-delay", params=None):
    """The induced functional of small state-dependent delays.

    Encodes x'(t) = f(x(t - eps tau_1), ..., x(t - eps tau_L)) as the
    unperturbed field plus eps times

        evaluate(t, theta, eps) =
            - sum_i int_0^1 D_i f(y_sigma) theta'(-sigma eps tau_i) tau_i dsigma

    where the i-th argument group of f is the coordinate block
    blocks[i] read at the i-th delayed time, and D_i f are the matching
    Jacobian columns. With one delay and the full block this is the
    classical one-delay rewrite. The sigma integral uses the 8-point
    Gauss rule. Each ``tau(ts, segment) -> (k,)`` gets the k base
    times and their k-center segment; a scalar applies to every row.
    The declared Lipschitz constants are L1 = L2 = 1.
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
    sig = 0.5 * (_GAUSS8_NODES + 1.0)
    wts = 0.5 * _GAUSS8_WEIGHTS

    def evaluate(ts, seg, eps):
        k = ts.size
        taus = [np.broadcast_to(np.asarray(tau(ts, seg), dtype=float), (k,))
                for tau in tau_fns]
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

    return PerturbationSpec(h=h, evaluate=evaluate, L1=1.0, L2=1.0,
                            kind=kind, params=dict(params or {}))


def multi_delay_advance(pairs, h=None, kind="multi-delay", params=None):
    """Weighted sum of fixed shifts: sum_i w_i theta(s_i), mixed signs allowed.

    The history radius defaults to the largest |s_i|, 0 for a sum that
    reads only the present state.
    """
    pairs = [(float(s), float(w)) for s, w in pairs]
    worst = max((abs(s) for s, _ in pairs), default=0.0)
    if h is None:
        h = worst
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
    return PerturbationSpec(h=h, evaluate=evaluate, L1=0.0, L2=L2,
                            kind=kind, params=dict(params or {"pairs": pairs}))


# -- application and probing ----------------------------------------------

def apply_P(spec, u, eps, t):
    """Evaluate the functional on a trajectory at the base time(s) t.

    A scalar t gives (n,), a 1-D array of k times (k, n). ``u`` is a
    GridFunction, an already-built HistorySegment centered at t, or a
    batched trajectory ``u(times (k,)) -> (k, n)``, whose segments carry
    no derivative.
    """
    if isinstance(u, HistorySegment):
        seg = u
    elif isinstance(u, GridFunction):
        seg = HistorySegment.from_grid(u, t, spec.h)
    else:
        seg = HistorySegment(t, spec.h, u)
    return spec(t, seg, eps)


def functional_output_grid(spec, traj, eps, half_width, delta):
    """Sample t -> P[u](t) on a grid in one batched call.

    The window must leave room for the history radius on both sides.
    """
    if half_width + spec.h > traj.half_width + 1e-12:
        raise ValueError("trajectory window too small for this probe")
    return GridFunction.sample(lambda ts: apply_P(spec, traj, eps, ts),
                               half_width, delta, interp_order=5)


# -- descriptors -----------------------------------------------------------

def _id_q(t, x):
    return x


# the parameters of each kind; n must match the model's dimension
_A, _H = Entry("number"), Entry("number", REQUIRED, "nonnegative")
_AXIS, _N = Entry("integer", 1, "nonnegative"), Entry("integer", None, 1)
_DELAY = {"h": _H, "c0": _A, "c1": _A,
          "component": Entry("integer", 0, "nonnegative")}
_C1 = {"traj_c1": Entry("number", 2.0, "nonnegative")}
KINDS = {
    "zero": {"n": _N},
    "ode-sin-forcing": {"a": _A, "omega": _A, "shift": Entry("number", 0.0),
                        "axis": _AXIS, "n": _N},
    "delayed-sin-forcing": {"a": _A, "omega": _A, "lag": Entry("number", 1.0),
                            "h": Entry("number", None, "nonnegative"),
                            "axis": _AXIS, **_C1, "n": _N},
    "multi-delay": {"pairs": Entry("list", REQUIRED, (None, 2)),
                    "h": Entry("number", None, "nonnegative")},
    "sdd-tanh": {**_DELAY, **_C1},
    "neutral-linear": {**_DELAY,
                       "deriv_bound": Entry("number", 2.0, "nonnegative")},
    "nested-abs": {"h": _H, "inner_shift": Entry("number", -0.5),
                   "component": _DELAY["component"], **_C1},
    "small-delay": {"tau": Entry("number", 1.0), "h": _H,
                    "eps_max": Entry("number", None, "nonnegative")},
}
PERTURBATION = {"kind": Entry("string", REQUIRED, tuple(KINDS)),
                "parameters": Entry("object", {})}


def spec_from_descriptor(desc, model):
    """Build a shipped perturbation of the frame's ``model`` from its
    JSON descriptor, read through :data:`PERTURBATION` and the kind's
    :data:`KINDS` table. ``small-delay`` perturbs ``model``'s own field."""
    d = check_entries(desc, PERTURBATION, "perturbation",
                      "perturbation entry {!r}".format)
    kind = d["kind"]
    label = f"descriptor kind {kind!r} parameter"
    p = check_entries(d["parameters"], KINDS[kind], label + "s",
                      (label + " {!r}").format)
    if p.get("n") not in (None, model.n):
        raise ValueError(f"{label} 'n' must be the model dimension "
                         f"{model.n}")

    # every kind reads its output dimension off the state it is given
    if kind == "zero":
        return ode_term(lambda t, x: np.zeros_like(x), kind="zero", params=p)

    if kind == "ode-sin-forcing":
        a, omega, shift, axis = p["a"], p["omega"], p["shift"], p["axis"]

        def g(t, x):
            out = np.zeros_like(x)
            out[:, axis] = a * np.sin(omega * (t - shift))
            return out

        return ode_term(g, lip_t=abs(a * omega), lip_x=0.0, kind=kind,
                        params=p)

    if kind == "multi-delay":
        return multi_delay_advance(p["pairs"], h=p["h"], kind=kind, params=p)

    if kind == "delayed-sin-forcing":
        # sine of the delayed (advanced, for a negative lag) first
        # coordinate on one slot; on a saddle orbit this reads
        # a*sin(omega*(t - lag)) and admits a closed form response,
        # which makes it the standard oracle scenario
        a, omega, lag, axis = p["a"], p["omega"], p["lag"], p["axis"]
        h = max(1.0, abs(lag)) if p["h"] is None else p["h"]

        def Q(t, y):
            out = np.zeros_like(y)
            out[:, axis] = a * np.sin(omega * y[:, 0])
            return out

        return state_dependent_delay(
            Q, lambda t, y: -lag, h, r_bound=abs(lag), lip_q=abs(a * omega),
            lip_r=0.0, traj_c1=p["traj_c1"], kind=kind, params=p)

    h, comp = p["h"], p.get("component")
    if kind == "sdd-tanh":
        c0, c1 = p["c0"], p["c1"]

        def r(t, x):
            return -(c0 + c1 * np.tanh(x[:, comp]))

        return state_dependent_delay(
            _id_q, r, h, r_bound=abs(c0) + abs(c1), lip_q=1.0, lip_r=abs(c1),
            traj_c1=p["traj_c1"], kind=kind, params=p)

    if kind == "neutral-linear":
        c0, c1, v_bound = p["c0"], p["c1"], p["deriv_bound"]

        def r(t, y):
            return -(c0 + c1 * y[:, comp])

        return neutral_delay(
            _id_q, r, h, r_bound=abs(c0) + abs(c1) * v_bound, lip_q=1.0,
            lip_r=abs(c1), traj_c1=v_bound, kind=kind, params=p)

    if kind == "nested-abs":
        inner = p["inner_shift"]

        def r(t, x):
            return np.maximum(-h, -np.abs(x[:, comp]))

        return nested_delay(_id_q, r, lambda x: inner, h, r_bound=h,
                            r1_bound=abs(inner),
                            lip_q=1.0, lip_r=1.0, lip_r1=0.0,
                            traj_c1=p["traj_c1"], kind=kind, params=p)

    # small-delay
    tau = p["tau"]
    eps_max = h / max(abs(tau), 1e-12) if p["eps_max"] is None \
        else p["eps_max"]
    return small_delay_q(model, [lambda t, seg: tau], h,
                         tau_bounds=[abs(tau)], eps_max=eps_max, kind=kind,
                         params=p)
