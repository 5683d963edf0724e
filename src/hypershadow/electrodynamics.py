"""Implicitly defined interaction delays for systems of point charges.

For particles with trajectories q_i and inverse light speed eps = 1/c,
the retarded delay between an ordered pair solves

    tau_ij(t) = eps * |q_i(t) - q_j(t - tau_ij(t))|

and the advance sigma_ij solves the mirror equation with t + sigma.
Both are fixed points of a contraction whose rate is eps * sup|dq_j/dt|,
so each has one root whenever the partner moves slower than light.
The solver finds it with the retarded-time Newton step: with s = -1
(delay) or +1 (advance) and g = q_i(t) - q_j(t + s tau), the root of
F(tau) = tau - eps |g| is approached by

    tau <- tau - (tau - eps |g|) / (1 + eps s g/|g| . dq_j(t + s tau)),

whose divisor is the Lienard-Wiechert factor 1 - n . beta. It converges
quadratically from eps |q_i(t) - q_j(t)|, reads the partner's velocity
at the same time as its position, and runs over all nodes at once. The
certificate does not depend on the step: the reported defect is one
application of the light-cone map tau -> eps |g| to the solved values.
This module provides that solver, the first-order expansion check

    tau_ij = eps |q_i - q_j| + eps^2 (q_i - q_j) . dq_j/dt + O(eps^3),

non-singularity monitoring (speeds below xi1 * c, separations above
xi2), and the assembly of delayed pair forces into a
:class:`~hypershadow.perturbations.PerturbationSpec` acting on the
stacked state y = (q_1..q_N, dq_1..dq_N). Pair forces and external
fields are batched: they take (k, d) rows of positions and velocities
and return (k, d) accelerations in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flows import NumericalError
from .funcspace import (REQUIRED, Entry, GridFunction, check_entries,
                        lattice, pointwise, read_record)
from .perturbations import PerturbationSpec

__all__ = [
    "Trajectory",
    "trajectory_from_descriptor",
    "ChargeSystem",
    "charge_system_from_descriptor",
    "softened_coulomb",
    "DelaySolveError",
    "DelayField",
    "delay_expansion_check",
    "ExpansionReport",
    "expansion_order_sweep",
    "NonsingularityReport",
    "nonsingularity_check",
    "assemble_charge_perturbation",
]

_DEFECT_TOL = 1e-13
_MAX_ITERS = 200


class DelaySolveError(RuntimeError):
    """The delay solve failed to reach the defect tolerance."""


# -- trajectories ----------------------------------------------------------


class Trajectory:
    """A path t -> R^d with its velocity, vectorized over time arrays.

    ``pos`` and ``vel`` receive a scalar or a 1-D array of times and
    return shape (d,) or (k, d) accordingly, always a fresh array that the
    caller may write into. The builders below produce vectorized
    evaluators; :meth:`from_callable` wraps functions of one time.
    """

    __slots__ = ("pos", "vel", "dim", "kind", "params")

    def __init__(self, pos, vel, dim, kind="custom", params=None):
        self.pos = pos
        self.vel = vel
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("trajectory dimension must be positive")
        self.kind = str(kind)
        self.params = dict(params or {})

    @classmethod
    def static(cls, point):
        p = np.array(point, dtype=float)

        def pos(t):
            return np.broadcast_to(p, np.shape(t) + p.shape).copy()

        def vel(t):
            return np.zeros(np.shape(t) + p.shape)

        return cls(pos, vel, p.size, kind="static", params={"point": p.tolist()})

    @classmethod
    def uniform(cls, point, velocity):
        p = np.array(point, dtype=float)
        v = np.array(velocity, dtype=float)
        if p.shape != v.shape:
            raise ValueError("point and velocity must share a shape")

        def pos(t):
            t = np.asarray(t, dtype=float)
            return p + t[..., None] * v

        def vel(t):
            return np.broadcast_to(v, np.shape(t) + v.shape).copy()

        return cls(pos, vel, p.size, kind="uniform",
                   params={"point": p.tolist(), "velocity": v.tolist()})

    @classmethod
    def circular(cls, center, radius, omega, phase=0.0):
        """Circle of the given radius in the first two coordinates."""
        c = np.array(center, dtype=float)
        if c.size < 2:
            raise ValueError("circular motion needs at least two coordinates")
        radius = float(radius)
        omega = float(omega)
        phase = float(phase)

        def pos(t):
            t = np.asarray(t, dtype=float)
            ang = omega * t + phase
            out = np.broadcast_to(c, t.shape + c.shape).copy()
            out[..., 0] += radius * np.cos(ang)
            out[..., 1] += radius * np.sin(ang)
            return out

        def vel(t):
            t = np.asarray(t, dtype=float)
            ang = omega * t + phase
            out = np.zeros(t.shape + c.shape)
            out[..., 0] = -radius * omega * np.sin(ang)
            out[..., 1] = radius * omega * np.cos(ang)
            return out

        return cls(pos, vel, c.size, kind="circular",
                   params={"center": c.tolist(), "radius": radius,
                           "omega": omega, "phase": phase})

    @classmethod
    def from_grid(cls, g):
        """Window a GridFunction as a trajectory; past the window it
        tapers to 0 over one cell, so read it inside the window."""
        d1 = g.derivative(1)
        return cls(g.eval, d1.eval, g.m, kind="grid",
                   params={"half_width": g.half_width, "delta": g.delta})

    @classmethod
    def from_callable(cls, fn, dfn, dim):
        def wrap(f):
            rows = pointwise(f)

            def ev(t):
                t = np.asarray(t, dtype=float)
                if t.ndim == 0:
                    return np.array(f(float(t)), dtype=float)
                return rows(t)
            return ev

        return cls(wrap(fn), wrap(dfn), dim)

    def reflected(self):
        """Time reversal: positions at -t, velocities negated."""
        pos, vel = self.pos, self.vel

        def rpos(t):
            return pos(-np.asarray(t, dtype=float))

        def rvel(t):
            return -vel(-np.asarray(t, dtype=float))

        return Trajectory(rpos, rvel, self.dim, kind=self.kind,
                          params={**self.params, "reflected": True})

    def shifted(self, offset):
        """Rigid translation by a constant vector."""
        off = np.asarray(offset, dtype=float)
        if off.size != self.dim:
            raise ValueError("offset dimension mismatch")
        pos = self.pos
        return Trajectory(lambda t: pos(t) + off, self.vel, self.dim,
                          kind=self.kind, params={**self.params, "shifted": True})

    def speed_sup(self, lo, hi):
        """sup |vel| over [lo, hi], sampled at 2049 times."""
        ts = np.linspace(float(lo), float(hi), 2049)
        return float(np.linalg.norm(self.vel(ts), axis=-1).max())

    def descriptor(self):
        return {"kind": self.kind, **self.params}


def trajectory_from_descriptor(desc):
    """The trajectory a descriptor names: its ``kind`` and the arguments
    of that kind's builder, read through the tables below."""
    point = Entry("list", REQUIRED, (None,))
    tables = {"static": {"point": point},
              "uniform": {"point": point, "velocity": point},
              "circular": {"center": point, "radius": Entry("number"),
                           "omega": Entry("number"),
                           "phase": Entry("number", 0.0)}}
    kind = Entry("string", range=tuple(tables)).check("trajectory kind",
                                                      desc.get("kind"))
    d = check_entries(desc, {"kind": Entry("string"), **tables[kind]},
                      f"{kind} trajectory")
    if kind == "static":
        return Trajectory.static(d["point"])
    if kind == "uniform":
        return Trajectory.uniform(d["point"], d["velocity"])
    return Trajectory.circular(d["center"], d["radius"], d["omega"],
                               d["phase"])


# -- charge systems --------------------------------------------------------


def softened_coulomb(softening=0.1, coupling=1.0):
    """Reference pair force: repulsive Coulomb with a softened core.

    Returns ``force(ci, cj, qi, vi, qj, vj)``, the force on the first
    particle when it sees the second at position ``qj``: scalar charges
    and (d,) vectors give (d,), (k, d) rows give (k, d). The
    softening keeps the force analytic through close approaches, so the
    regularity budget declared by the assembled spec is honest even for
    configurations that flirt with the separation margin.
    """
    softening = float(softening)
    coupling = float(coupling)
    if softening <= 0.0:
        raise ValueError("softening length must be positive")

    def force(ci, cj, qi, vi, qj, vj):
        d = qi - qj
        r2 = np.einsum("...d,...d->...", d, d) + softening * softening
        # r2 * sqrt(r2), unlike r2 ** 1.5, rounds the same for one row
        # and for a batch
        return (coupling * ci * cj / (r2 * np.sqrt(r2)))[..., None] * d

    force.force_id = "softened-coulomb"
    force.force_params = {"softening": softening, "coupling": coupling}
    # worst-case gradient of d / (|d|^2 + s^2)^(3/2); attained near |d| ~ 0
    force.lip_bound = 4.0 * abs(coupling) / softening ** 3
    return force


class ChargeSystem:
    """N point charges with prescribed trajectories and margins.

    ``epsilon`` is the inverse light speed; ``xi1`` in (0, 1) bounds
    admissible speeds relative to c and ``xi2 > 0`` bounds pairwise
    separations from below. The margins are declarations checked by
    :func:`nonsingularity_check`, not enforced here, so deliberately
    singular systems can be built and diagnosed.
    """

    def __init__(self, trajectories, masses, charges, epsilon,
                 xi1=0.5, xi2=0.1, pair_force=None, external=None):
        self.trajectories = tuple(trajectories)
        if not self.trajectories:
            raise ValueError("need at least one particle")
        dims = {tr.dim for tr in self.trajectories}
        if len(dims) != 1:
            raise ValueError("all trajectories must share a dimension")
        self.dim = dims.pop()
        self.masses = tuple(float(m) for m in masses)
        self.charges = tuple(float(c) for c in charges)
        if len(self.masses) != self.N or len(self.charges) != self.N:
            raise ValueError("masses and charges must match the particle count")
        if not all(0.0 < m < math.inf for m in self.masses):
            raise ValueError("masses must be positive and finite")
        if not all(map(math.isfinite, self.charges)):
            raise ValueError("charges must be finite")
        self.epsilon = float(epsilon)
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        self.xi1 = float(xi1)
        if not (0.0 < self.xi1 < 1.0):
            raise ValueError("xi1 must lie in (0, 1)")
        self.xi2 = float(xi2)
        if not 0.0 < self.xi2 < math.inf:
            raise ValueError("xi2 must be positive and finite")
        self.pair_force = pair_force if pair_force is not None else softened_coulomb()
        self.external = external

    @property
    def N(self):
        return len(self.trajectories)

    def descriptor(self):
        force = getattr(self.pair_force, "force_id", "custom")
        fdesc = {"id": force}
        fdesc.update(getattr(self.pair_force, "force_params", {}))
        return {
            "N": self.N,
            "dim": self.dim,
            "masses": list(self.masses),
            "charges": list(self.charges),
            "epsilon": self.epsilon,
            "xi1": self.xi1,
            "xi2": self.xi2,
            "trajectories": [tr.descriptor() for tr in self.trajectories],
            "force": fdesc,
        }

    def __repr__(self):
        return (f"ChargeSystem(N={self.N}, dim={self.dim}, "
                f"epsilon={self.epsilon:g})")


def charge_system_from_descriptor(desc):
    """The system a descriptor (or the JSON file at the path ``desc``)
    describes, read through the tables below; N and dim, which
    :meth:`ChargeSystem.descriptor` records, must match the trajectories."""
    many = Entry("list", REQUIRED, (None,))
    table = {"N": Entry("integer", None, 1), "dim": Entry("integer", None, 1),
             "masses": many, "charges": many, "epsilon": Entry("number"),
             "xi1": Entry("number", 0.5), "xi2": Entry("number", 0.1),
             "trajectories": Entry("list of objects"),
             "force": Entry("object", {})}
    d = read_record(desc, table) if isinstance(desc, str) \
        else check_entries(desc, table, "charge system")
    force = check_entries(d["force"], {
        "id": Entry("string", "softened-coulomb", ("softened-coulomb",)),
        "softening": Entry("number", 0.1), "coupling": Entry("number", 1.0),
    }, "force", "force model {}".format)
    system = ChargeSystem(
        [trajectory_from_descriptor(t) for t in d["trajectories"]],
        d["masses"], d["charges"], d["epsilon"], d["xi1"], d["xi2"],
        softened_coulomb(force["softening"], force["coupling"]))
    for key in ("N", "dim"):
        if d[key] not in (None, getattr(system, key)):
            raise ValueError(f"charge system: entry {key!r} is {d[key]}, "
                             f"the trajectories give {getattr(system, key)}")
    return system


# -- the delay solver ------------------------------------------------------


def _finite(name, value):
    """``value``; a NaN would pass every ``>=`` check, so it raises here."""
    if not math.isfinite(value):
        raise NumericalError(f"{name} is not finite ({value})")
    return value


def _contraction_rate(qi, qj, eps, window):
    """eps * sup|dq_j| over the window inflated by a delay allowance."""
    d0 = float(np.linalg.norm(
        qi.pos(np.array([-window, 0.0, window]))
        - qj.pos(np.array([-window, 0.0, window])), axis=-1).max())
    pad = 2.0 * eps * d0 + 1e-6
    return eps * qj.speed_sup(-window - pad, window + pad)


def _fixed_point(step, start, times):
    """Root of the light-cone equation for a stack of rows.

    There is one row per (center, equation): ``times`` holds the row's
    center and ``start`` its iterate 0, which the caller computes.
    ``step(rows, tau)`` maps the current values of the selected rows
    (an index array) to their next iterate, so each iterate is one call
    over every row still moving. A row freezes once its update is
    <= ``_DEFECT_TOL``, so each takes exactly the iterates a one-row
    loop would. The first non-finite value raises ``NumericalError`` on
    the earliest iterate it appears on, naming the first such row in
    stack order; a row still moving after ``_MAX_ITERS`` iterates raises
    ``DelaySolveError``. Returns the values and the freeze record: the
    iterate on which each row froze.
    """
    def finite(vals, rows, it):
        bad = ~np.isfinite(vals)
        if bad.any():
            raise NumericalError(
                f"delay at t={times[rows[bad][0]]:.6g} is not finite on "
                f"iterate {it}")
        return vals

    rows = np.arange(len(times))
    tau = finite(np.array(start, dtype=float), rows, 0)
    frozen = np.zeros(tau.size, dtype=int)
    for it in range(1, _MAX_ITERS + 1):
        nxt = finite(step(rows, tau[rows]), rows, it)
        update = np.abs(nxt - tau[rows])
        tau[rows] = nxt
        moving = update > _DEFECT_TOL
        frozen[rows[~moving]] = it
        if not moving.any():
            return tau, frozen
        rows, update = rows[moving], update[moving]
    raise DelaySolveError(
        f"delay at t={times[rows[0]]:.6g} still moving after {_MAX_ITERS} "
        f"iterations; last update {update[0]:.3e}")


def _cone_distance(eps, here, there):
    """eps |here - there| row by row: the light-cone map of each row."""
    gap = here - there
    return eps * np.sqrt(np.einsum("kd,kd->k", gap, gap))


def _newton_step(eps, sign, tau, here, there, vel):
    """One retarded-time Newton update of tau = eps |here - there| per row.

    ``there`` and ``vel`` are the partner's position and velocity read
    at t + sign * tau. With g = here - there, F(tau) = tau - eps |g| has
    the slope 1 + k, k = eps * sign * g/|g| . vel, and the update
    tau - F / (1 + k) is computed as eps |g| + (tau - eps |g|) k / (1 + k),
    so k = 0 gives the light-cone map itself. A row whose slope is not
    positive and finite (a zero gap, or a velocity at or above light
    speed) takes k = 0: the plain fixed-point update, with no division
    by zero.
    """
    gap = here - there
    dist = np.sqrt(np.einsum("kd,kd->k", gap, gap))
    radial = np.divide(np.einsum("kd,kd->k", gap, vel), dist,
                       out=np.zeros_like(dist), where=dist > 0.0)
    k = eps * sign * radial
    k[~(np.isfinite(k) & (k > -1.0))] = 0.0
    cone = eps * dist
    return cone + (tau - cone) * (k / (1.0 + k))


_POSITIVE = Entry("number", range="positive")


@dataclass(frozen=True)
class DelayField:
    """Solved delay and advance of one ordered pair, with diagnostics.

    The stored defects are the worst nodewise residuals of the defining
    equations, and each iteration count is the largest number of
    Newton updates any node took from its start tau_0 = eps |q_i(t) -
    q_j(t)|; construction refuses fields that miss the certification
    threshold or carry negative values.
    """

    tau: GridFunction
    sigma: GridFunction
    eps: float
    tau_iterations: int = 0
    tau_defect: float = 0.0
    sigma_iterations: int = 0
    sigma_defect: float = 0.0

    def __post_init__(self):
        for name, g in (("tau", self.tau), ("sigma", self.sigma)):
            if g.m != 1:
                raise ValueError(f"{name} must be scalar valued")
            if g.values.min() < -1e-15:
                raise ValueError(f"{name} must be nonnegative")
        if max(self.tau_defect, self.sigma_defect) > 1e-12:
            raise ValueError("delay defect exceeds the certification threshold")

    @classmethod
    def solve(cls, qi, qj, eps, window=8.0, delta=0.1):
        """Solve the delay and the advance on a symmetric node grid.

        The defining equation tau(t) = eps |q_i(t) - q_j(t - tau(t))| is
        a contraction of rate eps * sup|dq_j|, checked before iterating:
        below 1 it has one root, and its Newton slope is at least 1 minus
        that rate. The advance sigma reads the partner at t + sigma in
        place of t - tau. Both are solved over one stack of 2n rows, the
        delay's nodes then the advance's, each starting from tau_0 =
        eps |q_i(t) - q_j(t)|, by the retarded-time Newton step: each
        iterate reads ``qj.pos`` and ``qj.vel`` at the same times. The
        iteration counts are read off the freeze record. Both defects are
        one application of the light-cone map eps |q_i(t) - q_j(t -+
        tau)| to the solved stack, so they do not depend on how the
        values were found. ``window`` and ``delta`` must be positive and
        finite, their lattice must hold a grid's interpolation stencil,
        and ``eps`` must be nonnegative; these are checked before any
        compute.
        """
        eps = Entry("number", range="nonnegative").check("eps", eps)
        window = _POSITIVE.check("window", window)
        delta = _POSITIVE.check("delta", delta)
        nodes = lattice(window, delta)
        try:
            grid = GridFunction(window, delta, np.zeros(nodes.size))
        except ValueError as exc:
            raise ValueError(f"window {window:g} with delta {delta:g} gives "
                             f"{nodes.size} nodes: {exc}") from None
        kappa = _finite("contraction rate eps * sup|dq_j|",
                        _contraction_rate(qi, qj, eps, window))
        if kappa >= 1.0:
            raise ValueError(f"contraction condition violated: "
                             f"eps * sup|dq_j| = {kappa:.3g} >= 1")
        n = nodes.size
        observer = qi.pos(nodes)
        start = _cone_distance(eps, observer, qj.pos(nodes))
        here = np.concatenate([observer, observer])
        times = np.concatenate([nodes, nodes])
        sign = np.repeat([-1.0, 1.0], n)

        def step(rows, tau):
            at = times[rows] + sign[rows] * tau
            return _newton_step(eps, sign[rows], tau, here[rows], qj.pos(at),
                                qj.vel(at))

        vals, frozen = _fixed_point(step, np.concatenate([start, start]),
                                    times)
        defect = np.abs(_cone_distance(eps, here, qj.pos(times + sign * vals))
                        - vals)
        return cls(grid.with_values(vals[:n]), grid.with_values(vals[n:]), eps,
                   tau_iterations=int(frozen[:n].max()),
                   tau_defect=float(defect[:n].max()),
                   sigma_iterations=int(frozen[n:].max()),
                   sigma_defect=float(defect[n:].max()))


# -- expansion and singularity diagnostics ---------------------------------


def delay_expansion_check(field, qi, qj, eps):
    """Worst nodewise gap between the solved field and its expansion.

    The two-term form is eps |q_i - q_j| + eps^2 (q_i - q_j) . dq_j for
    the delay and the mirror sign for the advance; the gap is O(eps^3)
    on twice differentiable trajectories.
    """
    nodes = field.tau.nodes
    sep = qi.pos(nodes) - qj.pos(nodes)
    dist = np.linalg.norm(sep, axis=-1)
    radial = np.sum(sep * qj.vel(nodes), axis=-1)
    gap_t = np.abs(field.tau.values[:, 0] - (eps * dist + eps * eps * radial))
    gap_s = np.abs(field.sigma.values[:, 0] - (eps * dist - eps * eps * radial))
    return float(max(gap_t.max(), gap_s.max()))


@dataclass(frozen=True)
class ExpansionReport:
    eps_values: tuple
    deviations: tuple
    slope: float
    passed: bool

    def __bool__(self):
        return self.passed


def expansion_order_sweep(qi, qj, eps_values):
    """Dyadic eps sweep of the expansion gap with a log-log slope fit.

    A slope at or above 2.7 on DelayField.solve's default grid
    certifies the cubic remainder in the two-term delay expansion.
    """
    eps_values = tuple(float(e) for e in eps_values)
    if len(eps_values) < 2:
        raise ValueError("need at least two eps values for a slope")
    if min(eps_values) <= 0.0:
        raise ValueError("eps values must be positive")
    devs = tuple(delay_expansion_check(DelayField.solve(qi, qj, eps), qi, qj,
                                       eps) for eps in eps_values)
    if max(devs) <= 10.0 * _DEFECT_TOL:
        # gap at solver noise for every eps: the expansion is exact here
        return ExpansionReport(eps_values, devs, math.inf, passed=True)
    slope = float(np.polyfit(np.log(eps_values), np.log(devs), 1)[0])
    return ExpansionReport(eps_values, devs, slope, passed=slope >= 2.7)


@dataclass(frozen=True)
class NonsingularityReport:
    """Grid audit of the speed and separation margins."""

    passed: bool
    max_speed: float
    speed_limit: float
    fastest_particle: int
    fastest_time: float
    min_distance: float
    distance_limit: float
    worst_pair: tuple
    worst_pair_time: float

    def __bool__(self):
        return self.passed

    def summary(self):
        state = "ok" if self.passed else "SINGULAR"
        return (f"{state}: max speed {self.max_speed:.4g} vs {self.speed_limit:.4g} "
                f"(particle {self.fastest_particle} at t={self.fastest_time:.4g}); "
                f"min distance {self.min_distance:.4g} vs {self.distance_limit:.4g} "
                f"(pair {self.worst_pair} at t={self.worst_pair_time:.4g})")


def nonsingularity_check(sys, window=8.0):
    """Scan speeds against xi1 * c and pairwise gaps against xi2.

    The scan reads 1025 times over [-window, window]. With eps = 0 the
    light speed is infinite and only the separation margin can fail.
    """
    ts = np.linspace(-float(window), float(window), 1025)
    pos = np.stack([tr.pos(ts) for tr in sys.trajectories])       # (N, k, d)
    spd = np.stack([np.linalg.norm(tr.vel(ts), axis=-1)
                    for tr in sys.trajectories])                  # (N, k)
    fastest = np.unravel_index(int(np.argmax(spd)), spd.shape)
    max_speed = float(spd[fastest])
    speed_limit = math.inf if sys.epsilon == 0.0 else sys.xi1 / sys.epsilon

    min_distance = math.inf
    worst_pair = (-1, -1)
    worst_t = math.nan
    for i in range(sys.N):
        for j in range(i + 1, sys.N):
            dist = np.linalg.norm(pos[i] - pos[j], axis=-1)
            k = int(np.argmin(dist))
            if dist[k] < min_distance:
                min_distance = float(dist[k])
                worst_pair = (i, j)
                worst_t = float(ts[k])
    passed = max_speed <= speed_limit and min_distance >= sys.xi2
    return NonsingularityReport(
        passed=passed, max_speed=max_speed, speed_limit=speed_limit,
        fastest_particle=int(fastest[0]), fastest_time=float(ts[fastest[1]]),
        min_distance=min_distance, distance_limit=sys.xi2,
        worst_pair=worst_pair, worst_pair_time=worst_t)


# -- assembly into a perturbation spec -------------------------------------


def _cone_states(seg, y0, eps, here, there, sign):
    """Partner states at the light-cone times of a stack of equations.

    Equation e reads the observer position from the column indices
    ``here[e]`` of the stacked state and the partner position from
    ``there[e]``, delayed (``sign[e]`` -1) or advanced (+1); the
    partner velocity sits N*d columns further, in the velocity block.
    Every equation is solved at every center of ``seg`` by the
    retarded-time Newton step, from the present-state read ``y0`` =
    ``seg.eval(0.0)``: each later iterate reads every still-moving row
    in one segment lookup, taking the partner's position and velocity
    from it, and one final lookup reads every partner state. Lookups run
    through the segment itself, so a delay that wanders past the history
    radius surfaces as the segment's own range error. Returns (E, k, n).
    """
    k = len(seg)
    stack = seg.take(np.tile(np.arange(k), len(sign)))
    # row r belongs to equation r // k and reads the center r % k
    obs = np.concatenate(y0[:, here].swapaxes(0, 1))
    start = _cone_distance(eps, obs,
                           np.concatenate(y0[:, there].swapaxes(0, 1)))
    cols = np.repeat(there, k, axis=0)
    vcols = cols + y0.shape[1] // 2
    sign = np.repeat(sign, k)

    def step(rows, tau):
        y = stack.take(rows).eval(sign[rows] * tau)
        pick = np.arange(rows.size)[:, None]
        return _newton_step(eps, sign[rows], tau, obs[rows],
                            y[pick, cols[rows]], y[pick, vcols[rows]])

    tau, _ = _fixed_point(step, start, stack.t)
    return stack.eval(sign * tau).reshape(-1, k, y0.shape[1])


def assemble_charge_perturbation(sys, h=1.0, window=8.0, mixing=1.0):
    """Wrap the delayed pair forces into a functional on y = (q, dq).

    The returned spec evaluates the full first-order field: the velocity
    block verbatim and accelerations from the pair force read at the
    implicitly delayed (weight ``mixing``) and advanced (weight
    ``1 - mixing``) partner states, plus any external field. Delays are
    solved from the history segment at each evaluation: every
    (i, j, direction) equation with a nonzero weight is stacked into one
    Newton solve, which costs one segment lookup per iterate for any
    number of charges, plus the present-state read and one read of
    every partner state. eps = 0 collapses exactly to the
    instantaneous-force right-hand side, and a negative eps raises. The
    force, the system's ``pair_force``, is called as
    ``force(ci, cj, qi, vi, qj, vj)`` with scalar charges and (k, d)
    rows, the external field as ``external(ts, q, v)`` with base times
    (k,); both return (k, d). The mixing weight is exposed because the
    equations accept any convex combination; no particular value is
    endorsed here. The declared Lipschitz constants are L1 = 0 and L2
    from the force's ``lip_bound``.

    Raises when the force declares no ``lip_bound``, when the system
    fails its own margins on the window or when the worst-case delay
    bound eps * sup distance / (1 - kappa) exceeds the history radius
    ``h``.
    """
    force = sys.pair_force
    lb = getattr(force, "lip_bound", None)
    if lb is None:
        raise ValueError("the pair force declares no lip_bound")
    mixing = float(mixing)
    if not (0.0 <= mixing <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    audit = nonsingularity_check(sys, window=window)
    if not audit:
        raise ValueError(f"singular configuration: {audit.summary()}")

    N, d = sys.N, sys.dim
    eps0 = sys.epsilon
    if eps0 > 0.0 and N > 1:
        ts = np.linspace(-float(window), float(window), 513)
        pos = np.stack([tr.pos(ts) for tr in sys.trajectories])
        # np.max, unlike the builtin max, lets a NaN through to the guards
        d_sup = float(np.max([np.linalg.norm(pos[i] - pos[j], axis=-1).max()
                              for i in range(N) for j in range(i + 1, N)]))
        kappa = _finite("contraction rate eps * sup speed", eps0 * float(
            np.max([tr.speed_sup(-window - 1.0, window + 1.0)
                    for tr in sys.trajectories])))
        if kappa >= 1.0:
            raise ValueError(
                f"contraction condition violated: eps * sup speed = "
                f"{kappa:.3g} >= 1")
        bound = _finite("delay bound", eps0 * d_sup / (1.0 - kappa))
        if bound > float(h):
            raise ValueError(
                f"delay bound {bound:.3g} exceeds history radius {h:g}")

    # velocity pass-through plus the worst force row over partners
    rows = [sum(abs(sys.charges[i] * sys.charges[j])
                for j in range(N) if j != i) * lb / sys.masses[i]
            for i in range(N)]

    masses = np.asarray(sys.masses)
    charges = np.asarray(sys.charges)
    external = sys.external
    qslice = [slice(i * d, (i + 1) * d) for i in range(N)]
    vslice = [slice(N * d + i * d, N * d + (i + 1) * d) for i in range(N)]
    pairs = [(i, j) for i in range(N) for j in range(N) if j != i]
    # one light-cone equation per ordered pair and direction, with its
    # mixing weight; the delayed one first
    eqs = [(i, j, sign, weight) for i, j in pairs
           for sign, weight in ((-1.0, mixing), (1.0, 1.0 - mixing))
           if weight > 0.0]
    here = [list(range(i * d, (i + 1) * d)) for i, _, _, _ in eqs]
    there = [list(range(j * d, (j + 1) * d)) for _, j, _, _ in eqs]
    signs = [sign for _, _, sign, _ in eqs]

    def evaluate(ts, seg, eps):
        if eps < 0.0:
            raise ValueError("eps must be nonnegative")
        y0 = seg.eval(0.0)
        if y0.shape[1] != 2 * N * d:
            raise ValueError(
                f"stacked state must have {2 * N * d} components, "
                f"got {y0.shape[1]}")
        q = [y0[:, qslice[i]] for i in range(N)]
        v = [y0[:, vslice[i]] for i in range(N)]
        acc = np.zeros((ts.size, N, d))

        def pair(i, j, y):
            return force(charges[i], charges[j], q[i], v[i],
                         y[:, qslice[j]], y[:, vslice[j]])

        if external is not None:
            for i in range(N):
                acc[:, i] += external(ts, q[i], v[i])
        if eps == 0.0:
            for i, j in pairs:
                acc[:, i] += pair(i, j, y0) / masses[i]
        elif eqs:
            states = _cone_states(seg, y0, eps, here, there, signs)
            for (i, j, _, weight), y in zip(eqs, states):
                acc[:, i] += weight * pair(i, j, y) / masses[i]
        return np.concatenate([y0[:, N * d:], acc.reshape(ts.size, N * d)],
                              axis=1)

    params = {"N": N, "dim": d, "epsilon": eps0, "mixing": mixing,
              "force": getattr(force, "force_id", "custom")}
    return PerturbationSpec(h=float(h), evaluate=evaluate,
                            L1=0.0, L2=float(1.0 + max(rows)),
                            kind="charge-system", params=params)
