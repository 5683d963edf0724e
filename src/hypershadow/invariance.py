"""Fixed-point construction of corrected trajectories under perturbation.

Given a hyperbolic frame for an orbit of the unperturbed field and a
perturbation functional, the corrected trajectory is sought in the form
x = (x0 + xhat) o phi with phi the flow of a scalar time change X and
xhat = xhat_s + xhat_u confined to the stable and unstable bundles. The
triple (X, xhat_s, xhat_u) is a fixed point of the update

    X(rho)      <- 1 + <Pi_c g(rho), f(x0(rho))> / |f(x0(rho))|^2
    xhat_s(rho) <-   integral_{v <= rho} U_s(rho; v) Pi_s (1/X) g(v) dv
    xhat_u(rho) <- - integral_{v >= rho} U_u(rho; v) Pi_u (1/X) g(v) dv

where g = B + eps * varphi collects the quadratically small terms and
the reparametrized perturbation. The iteration is driven to a fixed
point in the exponentially weighted sup metric, with truncation tails,
per-step defects, contraction estimates and a-posteriori error bounds
all reported.

Windows: the correction lives on [-T, T] but the integrals reach T_int
beyond each node and the history segments reach (1 + t_0) h further in
time, so only the core [-T + margin, T - margin] is faithful to the
infinite-line problem. All convergence metrics are measured there.
"""

import math
from dataclasses import dataclass

import numpy as np

from .flows import (Flow, FlowGuardError, NumericalError, ScalarField,
                    composite_factor, flow_cells, inverse_flow_factor,
                    solve_flow)
from .funcspace import (REQUIRED, BallRadii, Entry, GridFunction,
                        GridSampler, Layout, ball_membership, check_entries,
                        json_text, lattice, stencil_read, write_lines)
from .perturbations import HistorySegment


class DivergenceError(RuntimeError):
    """Raised when consecutive-distance ratios stay at or above 1."""


class BallExitError(RuntimeError):
    """Raised when an iterate leaves its declared ball.

    Carries the offending component ("t", "s" or "u") and derivative
    level so drivers can report which propagated-bound radius failed.
    """

    def __init__(self, component, level, measured, limit):
        self.component = component
        self.level = level
        self.measured = float(measured)
        self.limit = float(limit)
        super().__init__(
            f"correction left the {component!r} ball at level {level}: "
            f"{measured:.6e} > {limit:.6e}; the zero-order feasibility "
            f"inequalities no longer cover this iterate")


# ---------------------------------------------------------------------------
# configuration


# the entries of a scenario's config section: the fields of
# OperatorConfig but eps, which the scenario sets at its top level
CONFIG = {
    "eta": Entry("number", REQUIRED, "positive"),
    "window": Entry("number", REQUIRED, "positive"),
    "delta": Entry("number", 0.05, "positive"),
    "max_iters": Entry("integer", 40, 1),
    "tol_eta": Entry("number", 1e-9, "positive"),
}
EPS = Entry("number", REQUIRED, "nonnegative")


@dataclass(frozen=True)
class OperatorConfig:
    """Geometry and stopping rules of the correction operator.

    ``window`` is the half-width of the correction grids and ``delta``
    their step. Everything else the operator needs follows from these:
    the bundle integrals are truncated at the t_int that ``tol_eta``
    implies (see :func:`resolve_geometry`) and summed by 3-point Gauss
    panels on half grid cells, so panels never straddle interpolation
    joints. The fields read through :data:`CONFIG` and :data:`EPS`.
    """

    eta: float
    window: float
    eps: float
    delta: float = CONFIG["delta"].default
    max_iters: int = CONFIG["max_iters"].default
    tol_eta: float = CONFIG["tol_eta"].default

    def __post_init__(self):
        values = check_entries(vars(self), dict(CONFIG, eps=EPS), "config")
        # frozen: the checked values go in past __setattr__
        vars(self).update(values)
        if not self.delta < self.window:
            raise ValueError("delta must be below the window")


@dataclass(frozen=True)
class _Geometry:
    """Resolved window layout shared by every operator evaluation."""

    cells: int    # grid cells in the window
    steps: int    # quadrature steps in t_int
    t_int: float
    quad: float
    margin: float
    core_half: float
    flow_half: float
    hi: float


# declared sup of the bundle integrand in the truncation rule
# exp(-lam_min t_int) * bound < tol_eta / 10
_INTEGRAND_BOUND = 1.0


def resolve_geometry(cfg, fr, h, t0):
    """Validate cfg against the frame and lay out the windows.

    The quadrature step is half a grid cell and t_int the shortest whole
    number of quadrature steps that meets the truncation rule at
    tol_eta. Raises when the weight rate reaches the hyperbolicity
    rates, when the margins leave no core, or when a grid of the run
    holds no whole number of cells. ``h`` is the history radius of the
    perturbation and ``t0`` the declared time-change radius.
    """
    q = fr.quality
    lam_min = q.lam_min
    if not (cfg.eta < lam_min):
        raise ValueError(
            f"weight rate {cfg.eta} must stay below the hyperbolicity "
            f"rates (min rate {lam_min})")
    quad = cfg.delta / 2.0
    cells = lattice(cfg.window, cfg.delta).size - 1
    raw = math.log(10.0 * _INTEGRAND_BOUND / cfg.tol_eta) / lam_min
    steps = math.ceil(raw / quad - 1e-9)
    t_int = steps * quad
    # the rounding slack above may land a hair short of the rule
    if math.exp(-lam_min * t_int) * _INTEGRAND_BOUND >= cfg.tol_eta / 10.0:
        raise ValueError(
            f"truncation length t_int = {t_int:g} derived from tol_eta "
            f"rounds short of the tail rule: exp(-{lam_min:g} * {t_int:g}) "
            f"* {_INTEGRAND_BOUND:g} >= {cfg.tol_eta:g} / 10")
    margin = t_int + (1.0 + t0) * h
    # the core ends on state nodes; metrics need a handful of them
    core_half = (cells - 2 * math.ceil(margin / cfg.delta - 1e-9)) \
        * cfg.delta / 2.0
    if core_half < 3.0 * cfg.delta:
        raise ValueError(
            "correction window leaves no core once the truncation and "
            "history margins are removed; enlarge window or loosen tol_eta")
    hi = cfg.window + t_int
    try:
        lattice(hi, quad)
    except ValueError as exc:
        raise ValueError(f"half-cell grid of the window widened by t_int = "
                         f"{t_int:g}: {exc}") from None
    flow_half = (cfg.window + t_int) / max(1.0 - t0, 1e-9) + h + 1.0
    return _Geometry(cells=cells, steps=steps, t_int=t_int, quad=quad,
                     margin=margin, core_half=core_half, flow_half=flow_half,
                     hi=hi)


# ---------------------------------------------------------------------------
# state


DEFAULT_T_RADII = (0.2, 1.0, 5.0)
DEFAULT_S_RADII = (0.5, 2.0, 10.0, 50.0)
DEFAULT_U_RADII = (0.5, 2.0, 10.0, 50.0)


@dataclass(frozen=True)
class CorrectionState:
    """The unknowns (X, xhat_s, xhat_u) over a common grid.

    ``X`` carries its own ball radii; ``s_ball`` and ``u_ball`` bound
    the bundle corrections. Values of ``xs``/``xu`` are meant to lie in
    the stable/unstable bundle at each node; :func:`gamma_step`
    re-projects them. Like every grid, the three (X - 1, xhat_s, xhat_u)
    are zero beyond the window, so the correction vanishes one cell past
    it and the operator's load is the perturbation term alone there.
    """

    X: ScalarField
    xs: GridFunction
    xu: GridFunction
    s_ball: BallRadii
    u_ball: BallRadii

    def __post_init__(self):
        g = self.X.xhat
        for other in (self.xs, self.xu):
            if other.geometry != g.geometry:
                raise ValueError("state grids must share window and step "
                                 "and interpolation order")
        if self.xs.m != self.xu.m:
            raise ValueError("bundle corrections must share the dimension")

    @property
    def t_ball(self):
        return self.X.ball

    @property
    def radii(self):
        """The (t, s, u) triple of declared balls."""
        return self.X.ball, self.s_ball, self.u_ball

    def distance(self, other, eta, core_half=None):
        """Weighted metric d = sum of the five component eta-norms."""
        comps = distance_components(self, other, eta, core_half)
        return sum(comps.values())


def check_state_grid(state, fr, cfg):
    """The state must live on the config's grid and the frame's
    dimension; a ValueError says which does not match."""
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


def distance_components(a, b, eta, core_half=None):
    """The five eta-norm pieces of the contraction metric, as a dict."""
    pieces = {
        "E_c": b.X.xhat - a.X.xhat,
        "E_s": b.xs - a.xs,
        "E_u": b.xu - a.xu,
    }
    pieces["DE_s"] = pieces["E_s"].derivative(1)
    pieces["DE_u"] = pieces["E_u"].derivative(1)
    return {k: g.norm_razumikhin(eta, core_half) for k, g in pieces.items()}


def initial_state(fr, cfg, t_radii=None, s_radii=None, u_radii=None):
    """The default starting point (X = 1, xhat_s = 0, xhat_u = 0)."""
    t_ball = BallRadii(t_radii if t_radii is not None else DEFAULT_T_RADII)
    s_ball = BallRadii(s_radii if s_radii is not None else DEFAULT_S_RADII)
    u_ball = BallRadii(u_radii if u_radii is not None else DEFAULT_U_RADII)
    X = ScalarField.identity(cfg.window, cfg.delta, ball=t_ball)
    n_nodes = X.xhat.n
    zeros = np.zeros((n_nodes, fr.model.n))
    xs = GridFunction(cfg.window, cfg.delta, zeros)
    xu = xs.with_values(zeros.copy())
    return CorrectionState(X=X, xs=xs, xu=xu, s_ball=s_ball, u_ball=u_ball)


# ---------------------------------------------------------------------------
# pointwise terms


def _taylor_split(fr, tab, xhat):
    # (Df(x0) xhat, f(x0 + xhat) - f(x0) - Df(x0) xhat) at the
    # FrameTable's times, inside the model's valid neighborhood
    radius = getattr(fr.model, "valid_radius", math.inf)
    if radius < math.inf and float(np.linalg.norm(xhat, axis=1).max()) \
            > radius:
        raise ValueError(
            "correction leaves the model's valid neighborhood of the orbit")
    lin = np.einsum("kij,kj->ki", tab.df0, xhat)
    return lin, fr.model.f_batch(tab.x0 + xhat) - tab.f0 - lin


def _quadratic_batch(fr, state, vs, at):
    """(B, X) at the FrameTable vs: the quadratic term
    B = (1 - X) Df(x0) xhat + T[x0, xhat], shape (k, n), and the time
    change X there, shape (k,). Df(x0) xhat is formed once for both
    parts; ``at`` reads vs on the state's grids, both in one read."""
    both = at.apply(state.xs.with_values(np.hstack(
        [state.xs.values + state.xu.values, state.X.xhat.values])))
    xh, Xv = both[:, :-1], 1.0 + both[:, -1]
    lin, rem = _taylor_split(fr, vs, xh)
    return (1.0 - Xv)[:, None] * lin + rem, Xv


def _state_flow(state, half_width):
    """Flow of the state's time change on the inflated window.

    An exactly-identity field short-circuits to the linear flow; the
    general path integrates the field.
    """
    if state.X.sup_deviation() == 0.0:
        delta = state.X.xhat.delta
        R = flow_cells(half_width, delta) * delta
        phi = GridFunction.sample(np.array, R, delta, interp_order=7)
        return Flow(phi, phi, state.X)
    return solve_flow(state.X, half_width)


def _trajectory(fr, state, flow=None):
    """(x0 + xhat) o phi and its derivative as batch maps, phi the flow's
    (flow None: the identity). phi is read from the flow's cell table;
    one sampler per query reads xhat, its derivative and X. The
    derivative of xhat is built on the first derivative query and
    reused by the later ones."""
    xh = state.xs + state.xu
    xh1 = None

    def theta(a):
        a = a if flow is None else flow.fast_phi(a)
        return fr.orbit_batch(a) + GridSampler(state.xs, a).apply(xh)

    def dtheta(a):
        nonlocal xh1
        if xh1 is None:
            xh1 = state.xs.derivative(1) + state.xu.derivative(1)
        a = a if flow is None else flow.fast_phi(a)
        s = GridSampler(state.xs, a)
        out = fr.orbit_deriv_batch(a) + s.apply(xh1)
        if flow is not None:
            out = out * (1.0 + s.apply(state.X.xhat)[:, 0])[:, None]
        return out

    return theta, dtheta


def _varphi_batch(fr, state, spec, flow, vs, bases, present, eps):
    """varphi(rho) = p(phi^{-1}(rho), ((x0 + xhat) o phi)_{phi^{-1}(rho)}).

    One spec call for all k times vs, returning (k, n); ``bases`` are
    their base times phi^{-1}(vs), or vs itself when X = 1. The segments
    read (x0 + xhat)(phi(t + s)); their derivative is the chain rule
    value (x0 + xhat)'(alpha) X(alpha), built only when the spec reads
    it. At offset 0 a segment reads (x0 + xhat)(vs), since
    phi(phi^{-1}(rho)) = rho under every time change: ``present()``
    returns those (k, n) values and runs only when the spec reads them.
    An exactly-identity time change skips the flow lookups. This is
    where perturbation values enter the operator, so a non-finite value
    raises NumericalError here.
    """
    ident = state.X.sup_deviation() == 0.0
    if float(np.abs(bases).max()) + spec.h > flow.phi.half_width + 1e-12:
        raise ValueError(
            "integrand evaluation leaves the inflated flow window")
    seg = HistorySegment(bases, spec.h,
                         *_trajectory(fr, state, None if ident else flow),
                         present=present)
    out = spec(bases, seg, eps)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"perturbation value at t={bases[i]:.6g} (rho={vs[i]:.6g}) is "
            f"not finite: {out[i].tolist()}")
    return out


# ---------------------------------------------------------------------------
# the operator


# the 3-point Gauss-Legendre rule on [-1, 1], leggauss(3) bit for bit
# (its end weight rounds above 5/9); stored, so that no run loads
# numpy.polynomial
_GAUSS3_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GAUSS3_WEIGHTS = np.array([0.5555555555555557, 0.8888888888888888,
                            0.5555555555555557])
_GAUSS3_OFFSETS = tuple((0.5 * (_GAUSS3_NODES + 1.0)).tolist())


def _gauss_panels(starts, step):
    """Composite 3-point Gauss nodes and weights over the panels of
    width ``step`` that start at ``starts``, ascending."""
    pts = starts[:, None] + 0.5 * step * (_GAUSS3_NODES[None, :] + 1.0)
    wts = np.broadcast_to(0.5 * step * _GAUSS3_WEIGHTS, pts.shape)
    return pts.ravel(), wts.ravel().copy()


class _Lattice:
    """A point set every step of a run reads.

    ``times`` ascend, and ``table`` is the frame's FrameTable of them, so
    the orbit, the field and its derivative along it, the adapted bases,
    the projectors and the bundle-sum plans behind every projection and
    bundle sum are evaluated once per run, not once per step.
    ``layout`` holds them in quadrature steps. ``read(g)`` reads them on
    g's geometry and ``support(g)`` the cut of them a state grid of g's
    geometry reaches. The readers are :func:`stencil_read`'s, built once
    per (geometry, layout, cut) and shared with later runs; the cut's
    table is built once per geometry.
    """

    def __init__(self, fr, times, layout):
        self.times = times
        self.layout = layout
        self.table = fr.table(times)
        self._supports = {}

    def read(self, g):
        return stencil_read(g.geometry, self.layout)

    def support(self, g):
        """(rows, table, reader) of the points with |t| < T + delta, T
        and delta g's: the points where a state grid of g's geometry can
        be nonzero, since it extends by zero and so vanishes from one
        cell past its window. For the node lattice that is all of its
        rows. The rows are a slice, and the table cut out of ``table``
        holds views of its values. The reader reads g's geometry at the
        rows' points."""
        if g.geometry not in self._supports:
            reach = g.half_width + g.delta
            rows = (int(np.searchsorted(self.times, -reach, side="right")),
                    int(np.searchsorted(self.times, reach, side="left")))
            self._supports[g.geometry] = rows, self.table.take(slice(*rows))
        rows, sub = self._supports[g.geometry]
        return slice(*rows), sub, stencil_read(g.geometry, self.layout, rows)


class _Run:
    """What every operator step of one run shares.

    ``geo`` is the window layout. The run owns one :class:`_Lattice` per
    point set a step reads: ``nodes``, the state grid's nodes; ``gauss``,
    the points of the bundle quadrature, with their ``weights``; and
    ``half_cells``, the lattice the perturbation term is tabulated on.
    """

    def __init__(self, fr, spec, cfg, t0):
        self.geo = geo = resolve_geometry(cfg, fr, spec.h, t0)
        # the half-cell lattice ends at +-(cells + steps) quadrature steps
        ends = geo.cells + geo.steps
        self.nodes = _Lattice(fr, lattice(cfg.window, cfg.delta),
                              Layout(geo.quad, -geo.cells, 2, geo.cells + 1))
        half_cells = lattice(geo.hi, geo.quad)
        self.half_cells = _Lattice(fr, half_cells,
                                   Layout(geo.quad, -ends, 1, 2 * ends + 1))
        points, self.weights = _gauss_panels(half_cells[:-1], geo.quad)
        self.gauss = _Lattice(fr, points, Layout(geo.quad, -ends, 1, 2 * ends,
                                                 _GAUSS3_OFFSETS))


def _step_load(fr, state, spec, cfg, run):
    """The load g = B + eps varphi of one step, as ``load(lattice)``
    returning (g, X) on one of the run's lattices.

    The flow of the state's time change is solved here, and varphi
    tabulated once on the half-cell lattice, at the base times its
    reader of phi^{-1} reads: Gauss points read it by interpolation,
    and state nodes, every other node of it, read the tabulated values
    exactly. The segments' present state is the lattice's orbit plus
    its read of xhat. X - 1, xhat_s and xhat_u extend by zero, so
    xhat = 0 and X = 1 beyond one cell past the window, and B = 0 there:
    the quadratic term is evaluated on the lattice's support only
    (:meth:`_Lattice.support`) and is 0, with X = 1, elsewhere.
    """
    flow = _state_flow(state, run.geo.flow_half)
    vphi = None
    if cfg.eps != 0.0:
        lat = run.half_cells
        bases = lat.times if state.X.sup_deviation() == 0.0 else \
            lat.read(flow.phi_inv).apply(flow.phi_inv)[:, 0]

        def present():
            xh = state.xs + state.xu
            return lat.table.x0 + lat.read(xh).apply(xh)

        vphi = GridFunction(
            run.geo.hi, run.geo.quad,
            _varphi_batch(fr, state, spec, flow, lat.times, bases, present,
                          cfg.eps),
            interp_order=7)

    def load(lat):
        rows, sub, at = lat.support(state.xs)
        g = np.zeros((lat.times.size, fr.model.n))
        Xv = np.ones(lat.times.size)
        g[rows], Xv[rows] = _quadratic_batch(fr, state, sub, at)
        if vphi is not None:
            g = g + cfg.eps * lat.read(vphi).apply(vphi)
        return g, Xv

    return load


def gamma_step(fr, state, spec, cfg, _run=None):
    """One application of the operator plus its defect measurements.

    Returns (new_state, defects) where defects holds the five weighted
    metric components on the core window, their sum ``d_eta``, and the
    truncation tails. Raises BallExitError at level 0 of the t ball when
    the center update would make sup|X - 1| reach 1 anywhere on the
    window, and ValueError off the config's grid (:func:`check_state_grid`).
    ``_run`` carries what the steps of one run share; a lone step builds
    its own.
    """
    check_state_grid(state, fr, cfg)
    run = _run or _Run(fr, spec, cfg, state.X.t0)
    geo = run.geo
    nodes = run.nodes.table
    f0 = nodes.f0
    if float(np.linalg.norm(f0, axis=1).min()) < fr.model.b - 1e-12:
        raise ValueError("orbit speed falls below the frame's floor b")
    load = _step_load(fr, state, spec, cfg, run)

    # center: X <- 1 + <Pi_c g, f(x0)> / |f(x0)|^2 at the nodes
    g, _ = load(run.nodes)
    num = np.einsum("ki,ki->k", fr.proj_apply("c", nodes, g), f0)
    vals = num / np.einsum("ki,ki->k", f0, f0)
    sup = float(np.abs(vals).max())
    if sup >= 1.0:
        raise BallExitError("t", 0, sup, 1.0)
    new_X = ScalarField(state.X.xhat.with_values(vals), state.X.ball)

    # bundles: kernel integrals of the projected load (1/X) g over the
    # Gauss panels; the final projection removes the quadrature drift
    # off the bundle, keeping the range constraint machine-true
    vs, ws = run.gauss.table, run.weights
    g, Xv = load(run.gauss)
    scaled = g / Xv[:, None]
    load_s = fr.proj_apply("s", vs, scaled)
    load_u = fr.proj_apply("u", vs, scaled)
    xs = fr.convolve_stable(nodes, vs, load_s * ws[:, None])
    xu = -fr.convolve_unstable(nodes, vs, load_u * ws[:, None])
    new_state = CorrectionState(
        X=new_X,
        xs=state.xs.with_values(fr.proj_apply("s", nodes, xs)),
        xu=state.xs.with_values(fr.proj_apply("u", nodes, xu)),
        s_ball=state.s_ball, u_ball=state.u_ball)

    # defects on the core, tails from the sup of each projected load
    comps = distance_components(state, new_state, cfg.eta, geo.core_half)
    q = fr.quality
    sup_s = float(np.linalg.norm(load_s, axis=1).max())
    sup_u = float(np.linalg.norm(load_u, axis=1).max())
    defects = dict(comps)
    defects["tail_s"] = q.C_U * sup_s * math.exp(-q.lam_s * geo.t_int) / q.lam_s
    defects["tail_u"] = 0.0
    if np.isfinite(q.lam_u):
        defects["tail_u"] = (q.C_U * sup_u
                             * math.exp(-q.lam_u * geo.t_int) / q.lam_u)
    defects["d_eta"] = sum(comps.values())
    return new_state, defects


# ---------------------------------------------------------------------------
# iteration driver


@dataclass
class IterationReport:
    """Convergence record of one fixed-point run.

    ``history`` holds one row per iteration:
    (iter, d_eta, kappa_running, E_c, E_s, E_u). ``defects`` are the
    measured fixed-point defects of the returned state and ``e_eta``
    their sum plus the truncation tails.
    """

    distances: tuple
    ratios: tuple
    kappa_hat: float
    converged: bool
    iterations: int
    defects: dict
    e_eta: float
    tail_s: float
    tail_u: float
    eta: float
    eps: float
    core_half: float
    history: tuple
    ball_history: tuple
    t_radii: tuple
    s_radii: tuple
    u_radii: tuple
    bounds: tuple = ()

    def to_json(self, path):
        """Write the record to ``path`` as strict JSON; returns ``path``.

        The fields are serialized as they stand, tuples as JSON lists:
        ``dataclasses.asdict`` would deep-copy every value first."""
        return write_lines(path, [json_text(vars(self))])


def write_residual_csv(report, path):
    """Residual table `iter,d_eta,kappa_hat,E_c,E_s,E_u` per iteration."""
    lines = ["iter,d_eta,kappa_hat,E_c,E_s,E_u"]
    for row in report.history:
        i, d, k, ec, es, eu = row
        lines.append(f"{int(i)},{d:.17e},{k:.17e},{ec:.17e},{es:.17e},{eu:.17e}")
    write_lines(path, lines)


def _ball_snapshot(state, core_half):
    """Per-component ball reports restricted to the core window."""
    return {name: ball_membership(g.restrict(core_half), radii)
            for name, g, radii in (("t", state.X.xhat, state.t_ball),
                                   ("s", state.xs, state.s_ball),
                                   ("u", state.xu, state.u_ball))}


def _guarded_step(fr, state, spec, cfg, run, it):
    """gamma_step that names the iteration when the flow fails a guard.

    The ball check looks only at the core window, so a time change can
    outgrow its radius t_0 outside it unseen; the message therefore
    compares sup|X - 1| over the whole window with t_0.
    """
    try:
        return gamma_step(fr, state, spec, cfg, run)
    except FlowGuardError as exc:
        raise FlowGuardError(
            f"iteration {it}: {exc}; sup|X - 1| = "
            f"{state.X.sup_deviation():.3g} on the full window "
            f"against t0 = {state.X.t0:g}") from exc


def _reproduces(a, b):
    """True when state b holds the grids of state a bit for bit.

    Balls need no comparison: :func:`gamma_step` carries them over.
    """
    return all(np.array_equal(g.values, h.values)
               for g, h in ((a.X.xhat, b.X.xhat), (a.xs, b.xs),
                            (a.xu, b.xu)))


def iterate(fr, spec, cfg, initial=None, _run=None):
    """Drive the operator to its fixed point from ``initial``.

    Stops when the weighted distance between consecutive iterates falls
    below tol_eta; raises DivergenceError when the ratio of consecutive
    distances stays at or above 1 for five iterations, BallExitError
    when an iterate leaves its declared ball on the core window or its
    time change reaches sup|X - 1| >= 1 anywhere, and
    FlowGuardError, naming the iteration, when the flow of an iterate's
    time change fails its checks. The defects of the returned state are
    measured by one extra operator application, so the report's e_eta
    genuinely belongs to it. When the last iteration reproduced its
    input bit for bit, that extra application would repeat it exactly,
    so its defects are taken instead. ``kappa_hat`` is the largest ratio
    of consecutive distances; a run that stops after one iteration takes
    it from the defects of the returned state, so a resumed run measures
    it too. ``_run`` carries a run layout built for the same frame,
    spec, time-change radius and config up to eps (a sweep shares one
    across its members); a lone run builds its own.
    """
    state = initial if initial is not None else initial_state(fr, cfg)
    run = _run or _Run(fr, spec, cfg, state.X.t0)
    distances = []
    ratios = []
    history = []
    ball_history = []
    bad_streak = 0
    converged = False
    for it in range(1, cfg.max_iters + 1):
        new_state, defects = _guarded_step(fr, state, spec, cfg, run, it)
        d = defects["d_eta"]
        distances.append(d)
        kappa_running = 0.0
        if len(distances) >= 2 and distances[-2] > 1e-300:
            ratio = d / distances[-2]
            ratios.append(ratio)
            kappa_running = max(ratios)
            if ratio >= 1.0 and d > cfg.tol_eta:
                bad_streak += 1
                if bad_streak >= 5:
                    raise DivergenceError(
                        "consecutive-distance ratios stayed at or above 1 "
                        f"for 5 iterations (last distance {d:.3e})")
            else:
                bad_streak = 0
        history.append((it, d, kappa_running,
                        defects["E_c"], defects["E_s"], defects["E_u"]))
        snapshot = _ball_snapshot(new_state, run.geo.core_half)
        ball_history.append(
            {k: {"ok": bool(rep), "measured": list(rep.measured),
                 "limits": list(rep.limits)} for k, rep in snapshot.items()})
        for name, rep in snapshot.items():
            if not rep:
                level = int(np.argmin(rep.slack))
                raise BallExitError(name, level,
                                    rep.measured[level], rep.limits[level])
        last_input, state = state, new_state
        if d <= cfg.tol_eta:
            converged = True
            break
    # defect of the state actually returned; a last step that
    # reproduced its input has measured it already
    if _reproduces(last_input, state):
        final_defects = defects
    else:
        _, final_defects = _guarded_step(fr, state, spec, cfg, run,
                                         len(distances) + 1)
    e_eta = (final_defects["d_eta"] + final_defects["tail_s"]
             + final_defects["tail_u"])
    if ratios or distances[0] <= 1e-300:
        kappa_hat = max(ratios, default=0.0)
    else:
        # one iteration left no ratio; the returned state's defects
        # measure it
        kappa_hat = final_defects["d_eta"] / distances[0]
    report = IterationReport(
        distances=tuple(distances),
        ratios=tuple(ratios),
        kappa_hat=kappa_hat,
        converged=converged,
        iterations=len(distances),
        defects=final_defects,
        e_eta=e_eta,
        tail_s=final_defects["tail_s"],
        tail_u=final_defects["tail_u"],
        eta=cfg.eta,
        eps=cfg.eps,
        core_half=run.geo.core_half,
        history=tuple(history),
        ball_history=tuple(ball_history),
        t_radii=state.t_ball.c,
        s_radii=state.s_ball.c,
        u_radii=state.u_ball.c,
    )
    return state, report


# ---------------------------------------------------------------------------
# independent residual


def residual_fde(fr, state, spec, eps, probe):
    """sup over the probe grid of |x'(t) - f(x(t)) - eps p(t, x_t)|.

    x = (x0 + xhat) o phi is assembled from the state and differentiated
    numerically on the (uniform) probe grid; the history segment is the
    true trajectory segment; only x's assembly is shared with the operator.
    """
    probe = np.asarray(probe, dtype=float)
    if probe.ndim != 1 or probe.size < 9:
        raise ValueError("probe grid must be a 1-D array of at least 9 times")
    steps = np.diff(probe)
    if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9):
        raise ValueError("probe grid must be uniform")
    t_max = max(abs(probe[0]), abs(probe[-1])) + spec.h + 1.0
    traj, dtraj = _trajectory(fr, state, _state_flow(state, t_max))
    # only the spacing matters for the difference stencils, so an
    # off-center probe may be differentiated on a centered proxy grid
    half = 0.5 * (probe[-1] - probe[0])
    samples = traj(probe)
    xg = GridFunction(half, float(steps[0]), samples, interp_order=7)
    dx = xg.derivative(1).values
    fx = fr.model.f_batch(samples)
    res = dx - fx
    if eps != 0.0:
        seg = HistorySegment(probe, spec.h, traj, dtraj)
        res -= eps * spec(probe, seg, eps)
    return float(np.linalg.norm(res, axis=1).max())


# ---------------------------------------------------------------------------
# a-posteriori bounds


def _semi_constants(j, eta, R, M):
    """Recursion for the semi-line interpolation constants c_0..c_j."""
    cs = [1.0]
    for m in range(1, j + 1):
        # weighted top norm of the difference, coarse but explicit
        R_eta = (1.0 + eta) ** (m + 1) * R
        val = M * R_eta ** (m / (m + 1.0))
        for k in range(1, m + 1):
            val += math.comb(m, k) * eta ** k * cs[m - k]
        cs.append(val)
    return cs


# interpolation constant M of the C^j bounds
_INTERP_M = 1.0


def aposteriori_bounds(e_eta, state, cfg, interval, kappa_hat):
    """C^j error bounds for the distance to the true fixed point.

    ``e_eta`` is the measured defect of ``state``, whose ball radii size
    the interpolation. On the interval [a, b] each level-j bound is
    M [e^{delta eta} (1 - kappa)^{-1} E_eta]^theta R^{1-theta} with
    M = 1, theta = (l+1-j)/(l+1) for j = 0..l, l the level count of the
    component's own ball (1 for X and 2 for the bundle corrections under
    the default radii), R twice the top ball radius and
    delta = max(|a|, |b|). When the amplified defect is at most 1 the
    table also carries the semi-line weighted bounds with exponents
    1/(j+1).
    """
    kappa_hat = float(kappa_hat)
    if not (kappa_hat < 1.0):
        raise ValueError("kappa must be below 1 for a-posteriori bounds")
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise ValueError("interval must be nondegenerate")
    delta = max(abs(a), abs(b))
    eta = cfg.eta
    M = _INTERP_M
    amp = e_eta / (1.0 - kappa_hat)
    rows = []
    for name, ball in (("X", state.t_ball), ("xs", state.s_ball),
                       ("xu", state.u_ball)):
        R = 2.0 * max(ball.c)
        semi_cs = _semi_constants(ball.ell, eta, R, M) if amp <= 1.0 else None
        for j in range(ball.ell + 1):
            theta = (ball.ell + 1 - j) / (ball.ell + 1)
            bound = M * (math.exp(delta * eta) * amp) ** theta \
                * R ** (1.0 - theta)
            row = {
                "component": name,
                "j": j,
                "exponent": theta,
                "interval": (a, b),
                "bound": bound,
                "semi_exponent": 1.0 / (j + 1),
                "semi_bound": None,
            }
            if semi_cs is not None:
                row["semi_bound"] = semi_cs[j] * amp ** (1.0 / (j + 1))
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# a-priori constants of the declared balls


def orbit_field_norms(fr, half_width):
    """(sup|f|, sup|Df|, sup|D2f|, f_c3) sampled at 201 times along the
    orbit window.

    f_c3 takes the forward differences of D2f with step 1 along the n
    coordinate axes and combines their (n, n^2) spectral norms as
    sqrt(sum_k |D2f(x + e_k) - D2f(x)|^2), which bounds |D3f[e]| for
    every unit e; it is exact for fields of degree at most 3, as every
    built-in model is.
    """
    ts = np.linspace(-half_width, half_width, 201)
    pts = fr.orbit_batch(ts)
    model = fr.model
    k, n = pts.shape
    f_c0 = float(np.linalg.norm(model.f_batch(pts), axis=1).max())
    f_c1 = float(np.linalg.norm(model.df_batch(pts), 2, axis=(1, 2)).max())
    D2 = model.d2f_batch(pts).reshape(k, n, n * n)
    f_c2 = float(np.linalg.norm(D2, 2, axis=(1, 2)).max())
    stepped = model.d2f_batch((pts[:, None, :] + np.eye(n)).reshape(k * n, n))
    D3 = np.linalg.norm(stepped.reshape(k, n, n, n * n) - D2[:, None], 2,
                        axis=(2, 3))
    f_c3 = float(np.sqrt((D3 ** 2).sum(axis=1)).max())
    return f_c0, f_c1, f_c2, f_c3


def _varphi_sup_estimate(fr, spec, cfg):
    """sup of |p| along the unperturbed orbit, on the core-ish window."""
    ts = np.linspace(-cfg.window / 2.0, cfg.window / 2.0, 33)
    seg = HistorySegment(ts, spec.h, fr.orbit_batch, fr.orbit_deriv_batch)
    return float(np.linalg.norm(spec(ts, seg, cfg.eps), axis=1).max())


def contraction_constants(fr, spec, cfg, radii, norms=None):
    """The a-priori constants of the declared balls, from one sampling.

    ``radii`` is the (t, s, u) triple of BallRadii. ``norms`` is the
    ``norms`` entry of an earlier record: the field norms f_c0..f_c3
    along the orbit window (:func:`orbit_field_norms`) and ``varphi_sup``,
    the sup of the perturbation along the unperturbed orbit; both are
    sampled here when it is not given. The returned dict holds

    - the zero-order feasibility: b constants (perturbation-free parts)
      and d constants (multiplying eps) of the center (``c``) and bundle
      (``s``, ``u``) updates, ``feasible`` per radius when b + eps d fits
      under it, and ``eps_max``, the largest admissible eps at order 0.
      Infeasibility is reported, never raised;
    - the difference constants: c_B, d_B bound the quadratic-term
      difference, c_phi, d_phi, e_phi the reparametrized-perturbation
      difference, and ``kappa`` is the worst column sum of the assembled
      five-component coefficient matrix in the weighted metric.
    """
    t_ball, s_ball, u_ball = radii
    if norms is None:
        norms = dict(zip(("f_c0", "f_c1", "f_c2", "f_c3"),
                         orbit_field_norms(fr, cfg.window)))
        norms["varphi_sup"] = _varphi_sup_estimate(fr, spec, cfg)
    f_c0, f_c1, f_c2, f_c3, varphi_sup = (
        float(norms[k]) for k in ("f_c0", "f_c1", "f_c2", "f_c3",
                                  "varphi_sup"))
    eta = cfg.eta
    eps = cfg.eps
    h, L1, L2 = spec.h, spec.L1, spec.L2
    t0, t1 = t_ball.c[0], t_ball.c[1]
    s0, s1 = s_ball.c[0], s_ball.c[1]
    s2 = s_ball.c[2] if len(s_ball.c) > 3 else s_ball.c[-1]
    u0, u1 = u_ball.c[0], u_ball.c[1]
    u2 = u_ball.c[2] if len(u_ball.c) > 3 else u_ball.c[-1]
    r0 = s0 + u0
    q = fr.quality
    rec = {"radii": {"t": t0, "s": s0, "u": u0}, "norms": dict(norms),
           "eps": eps}

    # zero order: the sup over the balls of B = (1 - X) Df(x0) xhat + T,
    # |T| <= f_c2 r^2 / 2 + f_c3 r^3 / 6, through each update's gain
    quad_sup = t0 * f_c1 * r0 + 0.5 * f_c2 * r0 ** 2 + f_c3 * r0 ** 3 / 6.0
    pre_c = q.C_Pi * f_c0 / fr.model.b ** 2
    gains = {"c": pre_c}
    for name, lam in (("s", q.lam_s), ("u", q.lam_u)):
        gains[name] = (q.C_Pi * q.C_U / (lam * (1.0 - t0))
                       if np.isfinite(lam) else 0.0)
    feas = {}
    eps_max = math.inf
    for name, ball, radius in (("c", "t", t0), ("s", "s", s0),
                               ("u", "u", u0)):
        bb = rec[f"b_{name}0"] = gains[name] * quad_sup
        dd = rec[f"d_{name}0"] = gains[name] * varphi_sup
        feas[ball] = bb + eps * dd <= radius
        if dd > 0.0:
            eps_max = min(eps_max, max((radius - bb) / dd, 0.0))
        elif bb > radius:
            eps_max = 0.0
    rec["feasible"] = feas
    rec["eps_max"] = eps_max

    # differences: |B[v] - B[w]| <= c_B |xhat_v - xhat_w| + d_B |X_v - X_w|
    c_B = f_c1 * t0 + r0 * (f_c3 * r0 + f_c2)
    d_B = f_c1 * r0
    qq = 1.0 + t0
    ewh = math.exp(eta * qq * h)
    z = composite_factor(eta, t0, t1, h)
    orbit_c1 = f_c0
    lip_orbit_deriv = f_c1 * f_c0
    c_phi = L2 * ewh
    e_phi = L2 * qq * ewh
    d_phi = L1 * inverse_flow_factor(eta, t0)
    d_phi += L2 * (z * (orbit_c1 + s1 + u1)
                   + qq * lip_orbit_deriv * z
                   + orbit_c1 * (ewh + t1 * z)
                   + qq * (s2 + u2) * z
                   + (s1 + u1) * (t1 * z + ewh))

    a_X = d_B + eps * d_phi
    a_x = c_B + eps * c_phi
    a_dx = eps * e_phi
    # sup of the bundle integrand, entering through the 1/X difference
    g_sup = quad_sup + eps * varphi_sup
    a_X_sig = a_X + g_sup / (1.0 - t0)

    pre_sig = []
    for lam in (q.lam_s, q.lam_u):
        if np.isfinite(lam):
            pre_sig.append(2.0 * q.C_Pi * q.C_U
                           / ((lam - eta) * (1.0 - t0)))
    pre_d = q.C_Pi / (1.0 - t0)

    col_X = pre_c * a_X
    col_x = pre_c * a_x
    col_dx = pre_c * a_dx
    for p in pre_sig:
        col_X += p * a_X_sig + (f_c1 * p + pre_d) * a_X_sig
        col_x += p * a_x + (f_c1 * p + pre_d) * a_x
        col_dx += p * a_dx + (f_c1 * p + pre_d) * a_dx
    rec.update({
        "c_B": c_B, "d_B": d_B,
        "c_phi": c_phi, "d_phi": d_phi, "e_phi": e_phi,
        "z": z, "g_sup": g_sup,
        "kappa": max(col_X, col_x, col_dx),
        "columns": {"X": col_X, "xhat": col_x, "dxhat": col_dx},
    })
    return rec


# ---------------------------------------------------------------------------
# the measured contraction against the predicted one


@dataclass(frozen=True)
class ContractionProbe:
    """Measured versus predicted contraction for one pair of states."""

    distance_in: float
    distance_out: float
    measured: float
    predicted: float
    constants: dict
    ok: bool


def contraction_probe(fr, spec, cfg, state_v, state_w):
    """Apply the operator to both states and compare the shrink ratio.

    The measured ratio d(G v, G w) / d(v, w) on the run's core must not
    exceed the predicted kappa of :func:`contraction_constants` on the
    balls of ``state_v``.
    """
    run = _Run(fr, spec, cfg, state_v.X.t0)
    new_v, _ = gamma_step(fr, state_v, spec, cfg, run)
    new_w, _ = gamma_step(fr, state_w, spec, cfg, run)
    core_half = run.geo.core_half
    d_in = state_v.distance(state_w, cfg.eta, core_half)
    d_out = new_v.distance(new_w, cfg.eta, core_half)
    consts = contraction_constants(fr, spec, cfg, state_v.radii)
    measured = 0.0 if d_in == 0.0 else d_out / d_in
    ok = measured <= consts["kappa"] + 1e-12
    return ContractionProbe(distance_in=d_in, distance_out=d_out,
                            measured=measured, predicted=consts["kappa"],
                            constants=consts, ok=ok)

