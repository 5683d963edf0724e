"""Implicitly defined interaction delays for systems of point charges.

For particles with trajectories q_i and inverse light speed eps = 1/c,
the retarded delay between an ordered pair solves

    tau_ij(t) = eps * |q_i(t) - q_j(t - tau_ij(t))|

and the advance sigma_ij solves the mirror equation with t + sigma.
Both are fixed points of a contraction whose rate is eps * sup|dq_j/dt|,
so a nodewise fixed-point sweep converges fast whenever the partner
moves slower than light. This module provides that solver, the
first-order expansion check

    tau_ij = eps |q_i - q_j| + eps^2 (q_i - q_j) . dq_j/dt + O(eps^3),

non-singularity monitoring (speeds below xi1 * c, separations above
xi2), and the assembly of delayed pair forces into a
:class:`~hypershadow.perturbations.PerturbationSpec` acting on the
stacked state y = (q_1..q_N, dq_1..dq_N).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .funcspace import GridFunction, save_grid_function
from .perturbations import PerturbationSpec, _rows

__all__ = [
    "Trajectory",
    "trajectory_from_descriptor",
    "ChargeSystem",
    "charge_system_from_descriptor",
    "softened_coulomb",
    "DelaySolveError",
    "solve_delay",
    "DelayField",
    "solve_system_delays",
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
    """The delay fixed point failed to reach the defect tolerance."""


# -- trajectories ----------------------------------------------------------


class Trajectory:
    """A path t -> R^d with its velocity, vectorized over time arrays.

    ``pos`` and ``vel`` receive a scalar or a 1-D array of times and
    return shape (d,) or (k, d) accordingly. The builders below produce
    vectorized evaluators; :meth:`from_callable` wraps scalar ones.
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
        p = np.asarray(point, dtype=float)

        def pos(t):
            t = np.asarray(t, dtype=float)
            return p if t.ndim == 0 else np.broadcast_to(p, t.shape + p.shape).copy()

        def vel(t):
            t = np.asarray(t, dtype=float)
            z = np.zeros_like(p)
            return z if t.ndim == 0 else np.zeros(t.shape + p.shape)

        return cls(pos, vel, p.size, kind="static", params={"point": p.tolist()})

    @classmethod
    def uniform(cls, point, velocity):
        p = np.asarray(point, dtype=float)
        v = np.asarray(velocity, dtype=float)
        if p.shape != v.shape:
            raise ValueError("point and velocity must share a shape")

        def pos(t):
            t = np.asarray(t, dtype=float)
            return p + t * v if t.ndim == 0 else p + t[:, None] * v

        def vel(t):
            t = np.asarray(t, dtype=float)
            return v if t.ndim == 0 else np.broadcast_to(v, t.shape + v.shape).copy()

        return cls(pos, vel, p.size, kind="uniform",
                   params={"point": p.tolist(), "velocity": v.tolist()})

    @classmethod
    def circular(cls, center, radius, omega, phase=0.0):
        """Circle of the given radius in the first two coordinates."""
        c = np.asarray(center, dtype=float)
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
        """Window a GridFunction as a trajectory; extension policy applies."""
        d1 = g.derivative(1)
        return cls(g.eval, d1.eval, g.m, kind="grid",
                   params={"half_width": g.half_width, "delta": g.delta})

    @classmethod
    def from_callable(cls, fn, dfn, dim, kind="custom", params=None):
        def wrap(f):
            def ev(t):
                t = np.asarray(t, dtype=float)
                if t.ndim == 0:
                    return np.asarray(f(float(t)), dtype=float)
                return np.asarray([f(float(s)) for s in t], dtype=float)
            return ev

        return cls(wrap(fn), wrap(dfn), dim, kind=kind, params=params)

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

    def speed_sup(self, lo, hi, samples=2049):
        ts = np.linspace(float(lo), float(hi), int(samples))
        return float(np.linalg.norm(self.vel(ts), axis=-1).max())

    def descriptor(self):
        return {"kind": self.kind, **self.params}


def trajectory_from_descriptor(desc):
    kind = desc.get("kind")
    if kind == "static":
        return Trajectory.static(desc["point"])
    if kind == "uniform":
        return Trajectory.uniform(desc["point"], desc["velocity"])
    if kind == "circular":
        return Trajectory.circular(desc["center"], desc["radius"],
                                   desc["omega"], desc.get("phase", 0.0))
    raise ValueError(f"unknown trajectory kind {kind!r}")


# -- charge systems --------------------------------------------------------


def softened_coulomb(softening=0.1, coupling=1.0):
    """Reference pair force: repulsive Coulomb with a softened core.

    Returns ``force(ci, cj, qi, vi, qj, vj) -> (d,)``, the force on the
    first particle when it sees the second at position ``qj``. The
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
        r2 = float(d @ d) + softening * softening
        return (coupling * ci * cj / r2 ** 1.5) * d

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
                 xi1=0.5, xi2=0.1, pair_force=None, external=None,
                 name="charges"):
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
        if any(m <= 0.0 for m in self.masses):
            raise ValueError("masses must be positive")
        self.epsilon = float(epsilon)
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        self.xi1 = float(xi1)
        if not (0.0 < self.xi1 < 1.0):
            raise ValueError("xi1 must lie in (0, 1)")
        self.xi2 = float(xi2)
        if self.xi2 <= 0.0:
            raise ValueError("xi2 must be positive")
        self.pair_force = pair_force if pair_force is not None else softened_coulomb()
        self.external = external
        self.name = str(name)

    @property
    def N(self):
        return len(self.trajectories)

    def pair(self, i, j):
        if i == j:
            raise ValueError("a particle has no delay to itself")
        return self.trajectories[i], self.trajectories[j]

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
    if isinstance(desc, str):
        with open(desc) as fh:
            desc = json.load(fh)
    trajs = [trajectory_from_descriptor(d) for d in desc["trajectories"]]
    fdesc = dict(desc.get("force", {"id": "softened-coulomb"}))
    fid = fdesc.pop("id", "softened-coulomb")
    if fid == "softened-coulomb":
        force = softened_coulomb(**fdesc)
    else:
        raise ValueError(f"unknown force model id {fid!r}")
    return ChargeSystem(trajs, desc["masses"], desc["charges"],
                        desc["epsilon"], xi1=desc.get("xi1", 0.5),
                        xi2=desc.get("xi2", 0.1), pair_force=force,
                        name=desc.get("name", "charges"))


# -- the delay solver ------------------------------------------------------


def _contraction_rate(qi, qj, eps, window):
    """eps * sup|dq_j| over the window inflated by a delay allowance."""
    d0 = float(np.linalg.norm(
        qi.pos(np.array([-window, 0.0, window]))
        - qj.pos(np.array([-window, 0.0, window])), axis=-1).max())
    pad = 2.0 * eps * d0 + 1e-6
    return eps * qj.speed_sup(-window - pad, window + pad)


def _retarded_values(qi, qj, eps, nodes, tol, max_iters):
    """Nodewise fixed point of tau -> eps |q_i(t) - q_j(t - tau)|.

    Each node converges independently; the previous node's value only
    seeds the next iteration. Returns values, the largest nodewise
    iteration count, and the largest final defect.
    """
    out = np.empty(nodes.size)
    worst_iters = 0
    worst_defect = 0.0
    tau = None
    for k, t in enumerate(nodes):
        qi_t = qi.pos(t)
        if tau is None:
            tau = eps * float(np.linalg.norm(qi_t - qj.pos(t)))
        for it in range(1, max_iters + 1):
            nxt = eps * float(np.linalg.norm(qi_t - qj.pos(t - tau)))
            update = abs(nxt - tau)
            tau = nxt
            if update <= tol:
                break
        else:
            raise DelaySolveError(
                f"delay at t={t:.6g} still moving after {max_iters} "
                f"iterations; last update {update:.3e}")
        defect = abs(eps * float(np.linalg.norm(qi_t - qj.pos(t - tau))) - tau)
        out[k] = tau
        worst_iters = max(worst_iters, it)
        worst_defect = max(worst_defect, defect)
    return out, worst_iters, worst_defect


def _delay_values(qi, qj, eps, mode, nodes, tol, max_iters):
    if mode == "retarded":
        return _retarded_values(qi, qj, eps, nodes, tol, max_iters)
    if mode != "advanced":
        raise ValueError(f"mode must be 'retarded' or 'advanced', got {mode!r}")
    # advance of (q_i, q_j) = delay of the time-reversed pair, read backwards
    vals, iters, defect = _retarded_values(qi.reflected(), qj.reflected(),
                                           eps, -nodes[::-1], tol, max_iters)
    return vals[::-1].copy(), iters, defect


def solve_delay(qi, qj, eps, mode="retarded", window=8.0, delta=0.1,
                tol=_DEFECT_TOL, max_iters=_MAX_ITERS, interp_order=5):
    """Solve the implicit delay (or advance) on a symmetric node grid.

    The defining equation tau(t) = eps |q_i(t) - q_j(t - tau(t))| is a
    contraction of rate eps * sup|dq_j|, checked before iterating; the
    sweep starts from tau_0 = eps |q_i(t) - q_j(t)| and warm starts each
    node from its neighbor. Advanced mode solves the retarded problem of
    the time-reversed trajectories and reads the result backwards.
    """
    eps = float(eps)
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    window = float(window)
    kappa = _contraction_rate(qi, qj, eps, window)
    if kappa >= 1.0:
        raise ValueError(
            f"contraction condition violated: eps * sup|dq_j| = {kappa:.3g} >= 1")
    n = int(round(2.0 * window / delta)) + 1
    nodes = -window + np.arange(n) * float(delta)
    vals, _, _ = _delay_values(qi, qj, eps, mode, nodes, tol, max_iters)
    return GridFunction(window, delta, vals, interp_order=interp_order)


@dataclass(frozen=True)
class DelayField:
    """Solved delay and advance of one ordered pair, with diagnostics.

    The stored defects are the worst nodewise residuals of the defining
    equations; construction refuses fields that miss the certification
    threshold or carry negative values.
    """

    tau: GridFunction
    sigma: GridFunction
    eps: float
    pair: tuple = (0, 1)
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
    def solve(cls, qi, qj, eps, window=8.0, delta=0.1, pair=(0, 1),
              tol=_DEFECT_TOL, max_iters=_MAX_ITERS, interp_order=5):
        eps = float(eps)
        window = float(window)
        kappa = _contraction_rate(qi, qj, eps, window)
        if kappa >= 1.0:
            raise ValueError(
                f"contraction condition violated: eps * sup|dq_j| = "
                f"{kappa:.3g} >= 1")
        n = int(round(2.0 * window / delta)) + 1
        nodes = -window + np.arange(n) * float(delta)
        tvals, tit, tdef = _delay_values(qi, qj, eps, "retarded", nodes,
                                         tol, max_iters)
        svals, sit, sdef = _delay_values(qi, qj, eps, "advanced", nodes,
                                         tol, max_iters)
        tau = GridFunction(window, delta, tvals, interp_order=interp_order)
        sigma = GridFunction(window, delta, svals, interp_order=interp_order)
        return cls(tau, sigma, eps, pair=tuple(pair),
                   tau_iterations=tit, tau_defect=tdef,
                   sigma_iterations=sit, sigma_defect=sdef)

    def export_csv(self, directory):
        """Write tau and sigma as CSV (plus sidecars); returns the paths."""
        os.makedirs(directory, exist_ok=True)
        i, j = self.pair
        paths = []
        for name, g in (("tau", self.tau), ("sigma", self.sigma)):
            paths.append(save_grid_function(
                g, os.path.join(directory, f"{name}_{i}_{j}.csv")))
        return paths


def solve_system_delays(sys, window=8.0, delta=0.1, tol=_DEFECT_TOL,
                        max_iters=_MAX_ITERS):
    """DelayField for every ordered pair of distinct particles."""
    fields = {}
    for i in range(sys.N):
        for j in range(sys.N):
            if i == j:
                continue
            qi, qj = sys.pair(i, j)
            fields[(i, j)] = DelayField.solve(qi, qj, sys.epsilon,
                                              window=window, delta=delta,
                                              pair=(i, j), tol=tol,
                                              max_iters=max_iters)
    return fields


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


def expansion_order_sweep(qi, qj, eps_values, window=8.0, delta=0.1,
                          min_slope=2.7):
    """Dyadic eps sweep of the expansion gap with a log-log slope fit.

    A slope at or above ``min_slope`` certifies the cubic remainder in
    the two-term delay expansion.
    """
    eps_values = tuple(float(e) for e in eps_values)
    if len(eps_values) < 2:
        raise ValueError("need at least two eps values for a slope")
    if min(eps_values) <= 0.0:
        raise ValueError("eps values must be positive")
    devs = []
    for eps in eps_values:
        fld = DelayField.solve(qi, qj, eps, window=window, delta=delta)
        devs.append(delay_expansion_check(fld, qi, qj, eps))
    if max(devs) <= 10.0 * _DEFECT_TOL:
        # gap at solver noise for every eps: the expansion is exact here
        return ExpansionReport(eps_values, tuple(devs), math.inf, passed=True)
    x = np.log(np.asarray(eps_values))
    y = np.log(np.asarray(devs))
    slope = float(np.polyfit(x, y, 1)[0])
    return ExpansionReport(eps_values, tuple(devs), slope,
                           passed=slope >= float(min_slope))


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


def nonsingularity_check(sys, window=8.0, samples=1025):
    """Scan speeds against xi1 * c and pairwise gaps against xi2.

    With eps = 0 the light speed is infinite and only the separation
    margin can fail.
    """
    ts = np.linspace(-float(window), float(window), int(samples))
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


def _segment_delay(seg, qi_now, block, eps, sign, tol=_DEFECT_TOL,
                   max_iters=_MAX_ITERS):
    """Delays of one pair read off a batch of stacked history segments.

    ``qi_now`` is (k, d), one observer position per segment center, and
    ``block`` slices the partner's position out of the stacked state.
    The fixed point runs elementwise over k: an element is frozen once
    its update falls below ``tol``, so each takes exactly the iterates a
    one-center loop would. Lookups run through the segment itself, so a
    delay that wanders past the history radius surfaces as the
    segment's own range error.
    """
    def step(rows, shift):
        gap = qi_now[rows] - seg.take(rows).eval(shift)[:, block]
        return eps * np.sqrt(np.einsum("kd,kd->k", gap, gap))

    every = np.arange(len(seg))
    tau = step(every, 0.0)
    out = np.empty_like(tau)
    active = every
    for _ in range(max_iters):
        nxt = step(active, sign * tau[active])
        done = np.abs(nxt - tau[active]) <= tol
        out[active[done]] = nxt[done]
        tau[active] = nxt
        active = active[~done]
        if not active.size:
            return out
    raise DelaySolveError(
        f"segment delay at t={seg.t[active[0]]:.6g} still moving after "
        f"{max_iters} iterations")


def assemble_charge_perturbation(sys, force=None, h=1.0, window=8.0,
                                 mixing=1.0, lip_t=0.0, lip_x=None,
                                 ell=3, mu=None):
    """Wrap the delayed pair forces into a functional on y = (q, dq).

    The returned spec evaluates the full first-order field: the velocity
    block verbatim and accelerations from the pair force read at the
    implicitly delayed (weight ``mixing``) and advanced (weight
    ``1 - mixing``) partner states, plus any external field. Delays are
    solved from the history segment at each evaluation, so eps = 0
    collapses exactly to the instantaneous-force right-hand side. The
    mixing weight is exposed because the equations accept any convex
    combination; no particular value is endorsed here.

    Raises when the system fails its own margins on the window or when
    the worst-case delay bound eps * sup distance / (1 - kappa) exceeds
    the history radius ``h``.
    """
    force = force if force is not None else sys.pair_force
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
        d_sup = 0.0
        for i in range(N):
            for j in range(i + 1, N):
                d_sup = max(d_sup, float(
                    np.linalg.norm(pos[i] - pos[j], axis=-1).max()))
        kappa = eps0 * max(tr.speed_sup(-window - 1.0, window + 1.0)
                           for tr in sys.trajectories)
        if kappa >= 1.0:
            raise ValueError(
                f"contraction condition violated: eps * sup speed = "
                f"{kappa:.3g} >= 1")
        bound = eps0 * d_sup / (1.0 - kappa)
        if bound > float(h):
            raise ValueError(
                f"delay bound {bound:.3g} exceeds history radius {h:g}")

    if lip_x is None:
        lb = getattr(force, "lip_bound", None)
        if lb is None:
            raise ValueError("pass lip_x explicitly for a custom force model")
        # velocity pass-through plus the worst force row over partners
        rows = [sum(abs(sys.charges[i] * sys.charges[j])
                    for j in range(N) if j != i) * lb / sys.masses[i]
                for i in range(N)]
        lip_x = 1.0 + max(rows)

    masses = np.asarray(sys.masses)
    charges = np.asarray(sys.charges)
    external = sys.external
    qslice = [slice(i * d, (i + 1) * d) for i in range(N)]
    vslice = [slice(N * d + i * d, N * d + (i + 1) * d) for i in range(N)]

    def evaluate(ts, seg, eps):
        y0 = seg.eval(0.0)
        if y0.shape[1] != 2 * N * d:
            raise ValueError(
                f"stacked state must have {2 * N * d} components, "
                f"got {y0.shape[1]}")
        tl = ts.tolist()
        q = [y0[:, qslice[i]] for i in range(N)]
        v = [y0[:, vslice[i]] for i in range(N)]
        acc = np.zeros((ts.size, N, d))

        def pair(i, j, y):
            # the pointwise force, one row per base time
            return _rows(lambda *r: force(charges[i], charges[j], *r),
                         q[i], v[i], y[:, qslice[j]], y[:, vslice[j]])

        for i in range(N):
            if external is not None:
                acc[:, i] += _rows(external, tl, q[i], v[i])
            for j in range(N):
                if j == i:
                    continue
                if eps == 0.0:
                    acc[:, i] += pair(i, j, y0) / masses[i]
                    continue
                if mixing > 0.0:
                    tau = _segment_delay(seg, q[i], qslice[j], eps, -1.0)
                    acc[:, i] += mixing * pair(i, j, seg.eval(-tau)) \
                        / masses[i]
                if mixing < 1.0:
                    sig = _segment_delay(seg, q[i], qslice[j], eps, +1.0)
                    acc[:, i] += (1.0 - mixing) * pair(i, j, seg.eval(sig)) \
                        / masses[i]
        return np.concatenate([y0[:, N * d:], acc.reshape(ts.size, N * d)],
                              axis=1)

    params = {"N": N, "dim": d, "epsilon": eps0, "mixing": mixing,
              "force": getattr(force, "force_id", "custom")}
    return PerturbationSpec(h=float(h), mu=mu, evaluate=evaluate,
                            L1=float(lip_t), L2=float(lip_x), ell=int(ell),
                            kind="charge-system", params=params)
