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

import json
import math
from dataclasses import dataclass

import numpy as np

from .flows import (Flow, FlowGuardError, NumericalError, ScalarField,
                    solve_flow)
from .funcspace import (BallRadii, GridFunction, GridSampler, WeightParam,
                        ball_membership)
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


@dataclass(frozen=True)
class OperatorConfig:
    """Geometry and stopping rules of the correction operator.

    ``window`` is the half-width of the correction grids, ``t_int`` the
    truncation length of the bundle integrals (derived from tol_eta when
    omitted), ``quadrature`` the composite-Gauss panel width (defaults
    to half a grid cell so panels never straddle interpolation joints).
    ``integrand_bound`` is the declared sup of the bundle integrand used
    by the truncation rule exp(-lam_min t_int) * bound < tol_eta / 10.
    """

    eta: WeightParam
    window: float
    eps: float
    delta: float = 0.05
    t_int: float = None
    quadrature: float = None
    gauss_order: int = 3
    max_iters: int = 40
    tol_eta: float = 1e-9
    ell: int = 1
    interp_m: float = 1.0
    integrand_bound: float = 1.0

    def __post_init__(self):
        if not isinstance(self.eta, WeightParam):
            object.__setattr__(self, "eta", WeightParam(float(self.eta)))
        if not (self.window > 0.0 and np.isfinite(self.window)):
            raise ValueError("window must be positive")
        if not (self.delta > 0.0 and self.delta < self.window):
            raise ValueError("delta must be positive and below the window")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
        if self.t_int is not None and not (self.t_int > 0.0):
            raise ValueError("t_int must be positive when given")
        if self.quadrature is not None and not (0.0 < self.quadrature <= self.delta):
            raise ValueError("quadrature step must lie in (0, delta]")
        if self.gauss_order < 2:
            raise ValueError("gauss_order must be at least 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol_eta > 0.0):
            raise ValueError("tol_eta must be positive")
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if not (self.interp_m > 0.0):
            raise ValueError("interp_m must be positive")
        if not (self.integrand_bound > 0.0):
            raise ValueError("integrand_bound must be positive")


@dataclass(frozen=True)
class _Geometry:
    """Resolved window layout shared by every operator evaluation."""

    t_int: float
    quad: float
    margin: float
    core_half: float
    flow_half: float
    lo: float
    hi: float


def resolve_geometry(cfg, fr, h, t0):
    """Validate cfg against the frame and lay out the windows.

    Raises when the weight rate reaches the hyperbolicity rates, when
    the truncation rule cannot meet tol_eta, or when the margins leave
    no core. ``h`` is the history radius of the perturbation (0 for
    none) and ``t0`` the declared time-change radius.
    """
    q = fr.quality
    lam_min = q.lam_min
    if not (cfg.eta.eta < lam_min):
        raise ValueError(
            f"weight rate {cfg.eta.eta} must stay below the hyperbolicity "
            f"rates (min rate {lam_min})")
    quad = cfg.quadrature if cfg.quadrature is not None else cfg.delta / 2.0
    ratio = cfg.delta / quad
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("quadrature step must divide the grid step")
    cells = 2.0 * cfg.window / cfg.delta
    if abs(cells - round(cells)) > 1e-6:
        raise ValueError("window must hold an integer number of grid cells")
    if cfg.t_int is None:
        raw = math.log(10.0 * cfg.integrand_bound / cfg.tol_eta) / lam_min
    else:
        raw = cfg.t_int
    t_int = math.ceil(raw / quad - 1e-9) * quad
    if math.exp(-lam_min * t_int) * cfg.integrand_bound >= cfg.tol_eta / 10.0:
        raise ValueError(
            "truncation window too short for the stopping tolerance: "
            f"exp(-{lam_min:g} * {t_int:g}) * {cfg.integrand_bound:g} "
            f">= {cfg.tol_eta:g} / 10")
    margin = t_int + (1.0 + t0) * h
    core_half = cfg.window - margin
    # metrics need at least a handful of core nodes
    core_half = math.floor(core_half / cfg.delta + 1e-9) * cfg.delta
    if core_half < 3.0 * cfg.delta:
        raise ValueError(
            "correction window leaves no core once the truncation and "
            "history margins are removed; enlarge window or shrink t_int")
    lo = -cfg.window - t_int
    hi = cfg.window + t_int
    flow_half = (cfg.window + t_int) / max(1.0 - t0, 1e-9) + h + 1.0
    return _Geometry(t_int=t_int, quad=quad, margin=margin,
                     core_half=core_half, flow_half=flow_half, lo=lo, hi=hi)


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
    the stable/unstable bundle at each node; builders re-project, and
    :func:`range_defect` measures the leftover.
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

    def distance(self, other, eta, core_half=None):
        """Weighted metric d = sum of the five component eta-norms."""
        comps = distance_components(self, other, eta, core_half)
        return sum(comps.values())


def distance_components(a, b, eta, core_half=None):
    """The five eta-norm pieces of the contraction metric, as a dict."""
    eta = eta.eta if isinstance(eta, WeightParam) else float(eta)
    pieces = {
        "E_c": b.X.xhat - a.X.xhat,
        "E_s": b.xs - a.xs,
        "E_u": b.xu - a.xu,
    }
    pieces["DE_s"] = pieces["E_s"].derivative(1)
    pieces["DE_u"] = pieces["E_u"].derivative(1)
    return {k: _eta_norm(g, eta, core_half) for k, g in pieces.items()}


def _eta_norm(g, eta, core_half=None):
    nodes = g.nodes
    vals = g.values
    if core_half is not None:
        keep = np.abs(nodes) <= core_half + 1e-12
        nodes = nodes[keep]
        vals = vals[keep]
    mags = np.linalg.norm(vals, axis=1)
    return float((mags * np.exp(-eta * np.abs(nodes))).max())


def initial_state(fr, cfg, t_radii=None, s_radii=None, u_radii=None):
    """The default starting point (X = 1, xhat_s = 0, xhat_u = 0)."""
    t_ball = BallRadii(t_radii if t_radii is not None else DEFAULT_T_RADII)
    s_ball = BallRadii(s_radii if s_radii is not None else DEFAULT_S_RADII)
    u_ball = BallRadii(u_radii if u_radii is not None else DEFAULT_U_RADII)
    X = ScalarField.identity(cfg.window, cfg.delta, ball=t_ball,
                             extension="zero")
    n_nodes = X.xhat.n
    zeros = np.zeros((n_nodes, fr.model.n))
    xs = GridFunction(cfg.window, cfg.delta, zeros, extension="zero")
    xu = xs.with_values(zeros.copy())
    return CorrectionState(X=X, xs=xs, xu=xu, s_ball=s_ball, u_ball=u_ball)


def range_defect(fr, state):
    """max over nodes of |(I - Pi_sigma) xhat_sigma| for both bundles."""
    nodes = state.xs.nodes
    worst = 0.0
    for sigma, g in (("s", state.xs), ("u", state.xu)):
        proj = fr.proj_apply(sigma, nodes, g.values)
        worst = max(worst, float(
            np.linalg.norm(g.values - proj, axis=1).max()))
    return worst


def center_defect(fr, state):
    """max over nodes of |Pi_c (xhat_s + xhat_u)|: the normalization."""
    nodes = state.xs.nodes
    total = state.xs.values + state.xu.values
    proj = fr.proj_apply("c", nodes, total)
    return float(np.linalg.norm(proj, axis=1).max())


# ---------------------------------------------------------------------------
# pointwise terms


def taylor_remainder(fr, xhat, rho, cross_check=False):
    """T = f(x0 + xhat) - f(x0) - Df(x0) xhat at the orbit points x0(rho).

    ``xhat`` is (k, n) and ``rho`` (k,); returns (k, n). With
    ``cross_check`` the direct formula is compared against the
    double-integral form int_0^1 int_0^s D2f(x0 + r xhat) xhat^2 dr ds
    and a larger-than-roundoff disagreement raises.
    """
    model = fr.model
    xhat = np.asarray(xhat, dtype=float)
    x0 = fr.orbit_batch(rho)
    radius = getattr(model, "valid_radius", math.inf)
    if float(np.linalg.norm(xhat, axis=1).max()) > radius:
        raise ValueError(
            "correction leaves the model's valid neighborhood of the orbit")
    lin = np.einsum("kij,kj->ki", model.df_batch(x0), xhat)
    direct = model.f_batch(x0 + xhat) - model.f_batch(x0) - lin
    if cross_check:
        # iterated-integral form, 20-point Gauss in each layer
        gx, gw = np.polynomial.legendre.leggauss(20)
        s = 0.5 * (gx + 1.0)
        w = 0.5 * gw
        acc = np.zeros_like(direct)
        for si, wi in zip(s, w):
            for rj, wj in zip(s * si, w * si):
                H = model.d2f_batch(x0 + rj * xhat)
                acc += (wi * wj) * np.einsum("kijl,kj,kl->ki", H, xhat, xhat)
        scale = 1.0 + float(np.abs(direct).max())
        if float(np.abs(acc - direct).max()) > 1e-8 * scale:
            raise ValueError("Taylor remainder forms disagree")
    return direct


def _quadratic_batch(fr, state, vs, at=None):
    """B = (1 - X) Df(x0) xhat + T[x0, xhat] at the times vs, shape (k, n);
    ``at`` is a sampler of vs on the state's grids, built when not given."""
    at = at or GridSampler(state.xs, vs)
    x0 = fr.orbit_batch(vs)
    xh = at.apply(state.xs + state.xu)
    Xv = 1.0 + at.apply(state.X.xhat)[:, 0]
    lin = np.einsum("kij,kj->ki", fr.model.df_batch(x0), xh)
    return (1.0 - Xv)[:, None] * lin + taylor_remainder(fr, xh, vs)


def _state_flow(state, half_width, lattices=None):
    """Flow of the state's time change on the inflated window.

    An exactly-identity field short-circuits to the linear flow; the
    general path integrates the field, reading it through ``lattices``.
    """
    if state.X.sup_deviation() == 0.0:
        delta = state.X.xhat.delta
        K = max(int(math.ceil(half_width / delta - 1e-9)), 8)
        R = K * delta
        vals = -R + np.arange(2 * K + 1) * delta
        phi = GridFunction(R, delta, vals, interp_order=7, extension="linear")
        inv = GridFunction(R, delta, vals.copy(), interp_order=7,
                           extension="linear")
        return Flow(phi, inv, state.X)
    return solve_flow(state.X, half_width, lattices=lattices)


def _trajectory(fr, state, phi=None):
    """(x0 + xhat) o phi and its derivative as batch maps (phi None: the
    identity); one sampler per query reads xhat, its derivative and X."""
    xh = state.xs + state.xu
    xh1 = state.xs.derivative(1) + state.xu.derivative(1)

    def theta(a):
        a = a if phi is None else phi.eval1(a)
        return fr.orbit_batch(a) + GridSampler(state.xs, a).apply(xh)

    def dtheta(a):
        a = a if phi is None else phi.eval1(a)
        s = GridSampler(state.xs, a)
        out = fr.orbit_deriv_batch(a) + s.apply(xh1)
        if phi is not None:
            out = out * (1.0 + s.apply(state.X.xhat)[:, 0])[:, None]
        return out

    return theta, dtheta


def _varphi_batch(fr, state, spec, flow, vs, eps, inv_at=None):
    """varphi(rho) = p(phi^{-1}(rho), ((x0 + xhat) o phi)_{phi^{-1}(rho)}).

    One spec call for all k times vs, returning (k, n). The segments
    read (x0 + xhat)(phi(t + s)); their derivative is the chain rule
    value (x0 + xhat)'(alpha) X(alpha). An exactly-identity time change
    skips the flow lookups. This is where perturbation values enter the
    operator, so a non-finite value raises NumericalError here. ``inv_at``
    samples vs on the inverse flow's grid; built here when not given.
    """
    ident = state.X.sup_deviation() == 0.0
    inv = flow.phi_inv
    bases = vs if ident else (inv_at or GridSampler(inv, vs)).apply(inv)[:, 0]
    if float(np.abs(bases).max()) + spec.h > flow.phi.half_width + 1e-12:
        raise ValueError(
            "integrand evaluation leaves the inflated flow window")
    seg = HistorySegment(bases, spec.h,
                         *_trajectory(fr, state, None if ident else flow.phi))
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


def _gauss_panels(lo, hi, step, order):
    """Composite-Gauss nodes and weights over [lo, hi], ascending."""
    n_cells = int(round((hi - lo) / step))
    gx, gw = np.polynomial.legendre.leggauss(order)
    starts = lo + np.arange(n_cells) * step
    pts = starts[:, None] + 0.5 * step * (gx[None, :] + 1.0)
    wts = np.broadcast_to(0.5 * step * gw, pts.shape)
    return pts.ravel(), wts.ravel().copy()


class _Lattices:
    """The fixed lattices every step of a run reads, and their samplers:
    ``sampler(name, points, g)`` builds the sampler of lattice ``name`` on
    g's geometry once per run; a name always denotes the same points."""

    def __init__(self, geo, cfg):
        self.gauss = _gauss_panels(geo.lo, geo.hi, geo.quad, cfg.gauss_order)
        K = int(round(geo.hi / geo.quad))
        self.half_cells = -geo.hi + np.arange(2 * K + 1) * geo.quad
        self._samplers = {}

    def sampler(self, name, points, g):
        key = (name, g.geometry)
        if key not in self._samplers:
            self._samplers[key] = GridSampler(g, points)
        return self._samplers[key]


class _StepWorkspace:
    """Everything one operator application needs, computed once."""

    def __init__(self, fr, state, spec, cfg, geo=None, lattices=None):
        h = spec.h if spec is not None else 0.0
        t0 = state.X.t0
        self.geo = geo or resolve_geometry(cfg, fr, h, t0)
        self.lat = lattices or _Lattices(self.geo, cfg)
        self.fr = fr
        self.state = state
        self.spec = spec
        self.cfg = cfg
        self.flow = _state_flow(state, self.geo.flow_half, self.lat)
        self.nodes = state.xs.nodes
        self._quad = None
        self._vphi = None

    def _vphi_grid(self):
        """Perturbation term tabulated once on the half-cell lattice.

        Gauss points read it by interpolation; state nodes fall on the
        lattice so they read the tabulated values exactly.
        """
        if self._vphi is None:
            lat = self.lat.half_cells
            inv_at = None if self.state.X.sup_deviation() == 0.0 else \
                self.lat.sampler("half cells", lat, self.flow.phi_inv)
            vals = _varphi_batch(self.fr, self.state, self.spec,
                                 self.flow, lat, self.cfg.eps, inv_at)
            self._vphi = GridFunction(self.geo.hi, self.geo.quad, vals,
                                      interp_order=7,
                                      extension="constant-hold")
        return self._vphi

    def integrand(self, name, vs):
        """(g, X) on lattice ``name`` at the times vs."""
        at = self.lat.sampler(name, vs, self.state.xs)
        g = _quadratic_batch(self.fr, self.state, vs, at)
        if self.cfg.eps != 0.0 and self.spec is not None:
            vphi = self._vphi_grid()
            g = g + self.cfg.eps * self.lat.sampler(name, vs, vphi).apply(vphi)
        return g, 1.0 + at.apply(self.state.X.xhat)[:, 0]

    @property
    def quad(self):
        if self._quad is None:
            vs, ws = self.lat.gauss
            g, Xv = self.integrand("gauss", vs)
            scaled = g / Xv[:, None]
            Pc, Ps, Pu = self.fr.proj_batch(vs)
            ws_s = np.einsum("kij,kj->ki", Ps, scaled)
            ws_u = np.einsum("kij,kj->ki", Pu, scaled)
            sup_s = float(np.linalg.norm(ws_s, axis=1).max())
            sup_u = float(np.linalg.norm(ws_u, axis=1).max())
            self._quad = (vs, ws, ws_s * ws[:, None], ws_u * ws[:, None],
                          sup_s, sup_u)
        return self._quad

    def tail_budget(self):
        q = self.fr.quality
        _, _, _, _, sup_s, sup_u = self.quad
        tail_s = q.C_U * sup_s * math.exp(-q.lam_s * self.geo.t_int) / q.lam_s
        tail_u = 0.0
        if np.isfinite(q.lam_u):
            tail_u = (q.C_U * sup_u
                      * math.exp(-q.lam_u * self.geo.t_int) / q.lam_u)
        return tail_s, tail_u


def gamma_c(fr, state, spec, cfg, _ws=None):
    """Center update: a new scalar field on the state's grid."""
    ws = _ws or _StepWorkspace(fr, state, spec, cfg)
    nodes = ws.nodes
    f0 = fr.orbit_deriv_batch(nodes)
    speed = np.linalg.norm(f0, axis=1)
    if float(speed.min()) < fr.model.b - 1e-12:
        raise ValueError("orbit speed falls below the frame's floor b")
    g, _ = ws.integrand("nodes", nodes)
    num = np.einsum("ki,ki->k", fr.proj_apply("c", nodes, g), f0)
    den = np.einsum("ki,ki->k", f0, f0)
    vals = num / den
    return ScalarField(state.X.xhat.with_values(vals, extension="zero"),
                       state.X.ball)


def _gamma_sigma(fr, state, spec, cfg, sigma, _ws=None):
    ws = _ws or _StepWorkspace(fr, state, spec, cfg)
    vs, _, w_s, w_u, _, _ = ws.quad
    nodes = ws.nodes
    if sigma == "s":
        vals = fr.convolve_stable(nodes, vs, w_s)
    else:
        vals = -fr.convolve_unstable(nodes, vs, w_u)
    # quadrature drift off the bundle is removed here, keeping the
    # range constraint machine-true
    vals = fr.proj_apply(sigma, nodes, vals)
    return state.xs.with_values(vals, extension="zero")


def gamma_s(fr, state, spec, cfg, _ws=None):
    """Stable update: decaying-kernel integral of the projected load."""
    return _gamma_sigma(fr, state, spec, cfg, "s", _ws=_ws)


def gamma_u(fr, state, spec, cfg, _ws=None):
    """Unstable update, mirrored kernel over v >= rho."""
    return _gamma_sigma(fr, state, spec, cfg, "u", _ws=_ws)


def gamma_step(fr, state, spec, cfg, _geo=None, _lattices=None):
    """One application of the operator plus its defect measurements.

    Returns (new_state, defects) where defects holds the five weighted
    metric components on the core window, their sum ``d_eta``, and the
    truncation tails.
    """
    ws = _StepWorkspace(fr, state, spec, cfg, geo=_geo, lattices=_lattices)
    new_X = gamma_c(fr, state, spec, cfg, _ws=ws)
    new_xs = gamma_s(fr, state, spec, cfg, _ws=ws)
    new_xu = gamma_u(fr, state, spec, cfg, _ws=ws)
    new_state = CorrectionState(X=new_X, xs=new_xs, xu=new_xu,
                                s_ball=state.s_ball, u_ball=state.u_ball)
    comps = distance_components(state, new_state, cfg.eta, ws.geo.core_half)
    tail_s, tail_u = ws.tail_budget()
    defects = dict(comps)
    defects["tail_s"] = tail_s
    defects["tail_u"] = tail_u
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

    def as_dict(self):
        return {
            "distances": list(self.distances),
            "ratios": list(self.ratios),
            "kappa_hat": self.kappa_hat,
            "converged": self.converged,
            "iterations": self.iterations,
            "defects": dict(self.defects),
            "e_eta": self.e_eta,
            "tail_s": self.tail_s,
            "tail_u": self.tail_u,
            "eta": self.eta,
            "eps": self.eps,
            "core_half": self.core_half,
            "history": [list(r) for r in self.history],
            "ball_history": [dict(b) for b in self.ball_history],
            "t_radii": list(self.t_radii),
            "s_radii": list(self.s_radii),
            "u_radii": list(self.u_radii),
            "bounds": [dict(b) for b in self.bounds],
        }

    def to_json(self, path=None):
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True,
                          allow_nan=False)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text


def write_residual_csv(report, path):
    """Residual table `iter,d_eta,kappa_hat,E_c,E_s,E_u` per iteration."""
    lines = ["iter,d_eta,kappa_hat,E_c,E_s,E_u"]
    for row in report.history:
        i, d, k, ec, es, eu = row
        lines.append(f"{int(i)},{d:.17e},{k:.17e},{ec:.17e},{es:.17e},{eu:.17e}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _ball_snapshot(state, core_half):
    """Per-component ball reports restricted to the core window."""
    out = {}
    checks = (("t", state.X.xhat, state.t_ball),
              ("s", state.xs, state.s_ball),
              ("u", state.xu, state.u_ball))
    for name, g, radii in checks:
        core = g.restrict(core_half)
        center = core.with_values(np.zeros_like(core.values))
        rep = ball_membership(core, center, radii)
        out[name] = rep
    return out


def _guarded_step(fr, state, spec, cfg, geo, lattices, it):
    """gamma_step that names the iteration when the flow fails a guard.

    The ball check looks only at the core window, so a time change can
    outgrow its radius t_0 outside it unseen; the message therefore
    compares sup|X - 1| over the whole window with t_0.
    """
    try:
        return gamma_step(fr, state, spec, cfg, _geo=geo, _lattices=lattices)
    except FlowGuardError as exc:
        raise FlowGuardError(
            f"iteration {it}: {exc}; sup|X - 1| = "
            f"{state.X.sup_deviation():.3g} on the full window "
            f"against t0 = {state.X.t0:g}") from exc


def iterate(fr, spec, cfg, initial=None):
    """Drive the operator to its fixed point from ``initial``.

    Stops when the weighted distance between consecutive iterates falls
    below tol_eta; raises DivergenceError when the ratio of consecutive
    distances stays at or above 1 for five iterations, BallExitError
    when an iterate leaves its declared ball on the core window, and
    FlowGuardError, naming the iteration, when the flow of an iterate's
    time change fails its checks. The defects of the returned state are
    measured by one extra operator application, so the report's e_eta
    genuinely belongs to it.
    """
    state = initial if initial is not None else initial_state(fr, cfg)
    h = spec.h if spec is not None else 0.0
    geo = resolve_geometry(cfg, fr, h, state.X.t0)
    lattices = _Lattices(geo, cfg)
    distances = []
    ratios = []
    history = []
    ball_history = []
    bad_streak = 0
    converged = False
    for it in range(1, cfg.max_iters + 1):
        new_state, defects = _guarded_step(fr, state, spec, cfg, geo,
                                           lattices, it)
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
        snapshot = _ball_snapshot(new_state, geo.core_half)
        ball_history.append(
            {k: {"ok": bool(rep), "measured": list(rep.measured),
                 "limits": list(rep.limits)} for k, rep in snapshot.items()})
        for name, rep in snapshot.items():
            if not rep:
                level = int(np.argmin(rep.slack))
                raise BallExitError(name, level,
                                    rep.measured[level], rep.limits[level])
        state = new_state
        if d <= cfg.tol_eta:
            converged = True
            break
    # defect of the state actually returned
    _, final_defects = _guarded_step(fr, state, spec, cfg, geo, lattices,
                                     len(distances) + 1)
    e_eta = (final_defects["d_eta"] + final_defects["tail_s"]
             + final_defects["tail_u"])
    kappa_hat = max(ratios) if ratios else 0.0
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
        eta=cfg.eta.eta,
        eps=cfg.eps,
        core_half=geo.core_half,
        history=tuple(history),
        ball_history=tuple(ball_history),
        t_radii=state.t_ball.c,
        s_radii=state.s_ball.c,
        u_radii=state.u_ball.c,
    )
    return state, report


def derivative_identity_defect(fr, state, spec, cfg):
    """sup over core nodes of |D xhat_sigma - Df(x0) xhat_sigma - load|.

    The fixed point solves the bundle differential equations, so its
    numerical derivative must match the right-hand side built from the
    same integrand; the returned sup is the larger of the two bundles.
    """
    h = spec.h if spec is not None else 0.0
    geo = resolve_geometry(cfg, fr, h, state.X.t0)
    ws = _StepWorkspace(fr, state, spec, cfg, geo=geo)
    nodes = ws.nodes
    core = np.abs(nodes) <= geo.core_half + 1e-12
    g, Xv = ws.integrand("nodes", nodes)
    scaled = g / Xv[:, None]
    Df0 = fr.df_along_orbit(nodes)
    worst = 0.0
    for sigma, grid in (("s", state.xs), ("u", state.xu)):
        load = fr.proj_apply(sigma, nodes, scaled)
        rhs = np.einsum("kij,kj->ki", Df0, grid.values) + load
        lhs = grid.derivative(1).values
        worst = max(worst, float(
            np.linalg.norm((lhs - rhs)[core], axis=1).max()))
    return worst


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
    h = spec.h if spec is not None else 0.0
    t_max = max(abs(probe[0]), abs(probe[-1])) + h + 1.0
    traj, dtraj = _trajectory(fr, state, _state_flow(state, t_max).phi)
    # only the spacing matters for the difference stencils, so an
    # off-center probe may be differentiated on a centered proxy grid
    half = 0.5 * (probe[-1] - probe[0])
    samples = traj(probe)
    xg = GridFunction(half, float(steps[0]), samples, interp_order=7,
                      extension="linear")
    dx = xg.derivative(1).values
    fx = fr.model.f_batch(samples)
    res = dx - fx
    if eps != 0.0 and spec is not None:
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


def aposteriori_bounds(report, cfg, interval, kappa_hat):
    """C^j error bounds for the distance to the true fixed point.

    On the interval [a, b] each level-j bound is
    M [e^{delta eta} (1 - kappa)^{-1} E_eta]^theta R^{1-theta} with
    theta = (l+1-j)/(l+1) for X and (l+2-j)/(l+2) for the bundle
    corrections, R twice the top ball radius, delta = max(|a|, |b|).
    When the amplified defect is at most 1 the table also carries the
    semi-line weighted bounds with exponents 1/(j+1).
    """
    kappa_hat = float(kappa_hat)
    if not (kappa_hat < 1.0):
        raise ValueError("kappa must be below 1 for a-posteriori bounds")
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise ValueError("interval must be nondegenerate")
    delta = max(abs(a), abs(b))
    eta = report.eta
    M = cfg.interp_m
    ell = cfg.ell
    amp = report.e_eta / (1.0 - kappa_hat)
    rows = []
    comps = (("X", report.t_radii, ell, ell + 1),
             ("xs", report.s_radii, ell + 1, ell + 2),
             ("xu", report.u_radii, ell + 1, ell + 2))
    for name, radii, j_max, denom in comps:
        R = 2.0 * max(radii)
        semi_cs = _semi_constants(j_max, eta, R, M) if amp <= 1.0 else None
        for j in range(j_max + 1):
            theta = (denom - j) / denom
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
# propagated zero-order feasibility


def orbit_field_norms(fr, half_width, samples=201):
    """(sup|f|, sup|Df|, sup|D2f|) measured along the orbit window."""
    ts = np.linspace(-half_width, half_width, samples)
    pts = fr.orbit_batch(ts)
    f_c0 = float(np.linalg.norm(fr.model.f_batch(pts), axis=1).max())
    f_c1 = float(np.linalg.norm(fr.model.df_batch(pts), 2, axis=(1, 2)).max())
    n = fr.model.n
    D2 = fr.model.d2f_batch(pts).reshape(len(ts), n, n * n)
    f_c2 = float(np.linalg.norm(D2, 2, axis=(1, 2)).max())
    return f_c0, f_c1, f_c2


def _varphi_sup_estimate(fr, spec, cfg, samples=33):
    """sup of |p| along the unperturbed orbit, on the core-ish window."""
    if spec is None:
        return 0.0
    ts = np.linspace(-cfg.window / 2.0, cfg.window / 2.0, samples)
    seg = HistorySegment(ts, spec.h, fr.orbit_batch, fr.orbit_deriv_batch)
    return float(np.linalg.norm(spec(ts, seg, cfg.eps), axis=1).max())


@dataclass(frozen=True)
class PropagatedBounds:
    """Zero-order feasibility of the declared ball radii.

    b-constants are the perturbation-free parts, d-constants multiply
    eps; the configuration is feasible at eps when b + eps d fits under
    every radius. ``eps_max`` is the largest admissible eps at order 0.
    """

    b_c0: float
    b_s0: float
    b_u0: float
    d_c0: float
    d_s0: float
    d_u0: float
    radii: dict
    feasible: dict
    eps: float
    eps_max: float
    norms: dict

    def as_dict(self):
        return {
            "b_c0": self.b_c0, "b_s0": self.b_s0, "b_u0": self.b_u0,
            "d_c0": self.d_c0, "d_s0": self.d_s0, "d_u0": self.d_u0,
            "radii": dict(self.radii), "feasible": dict(self.feasible),
            "eps": self.eps, "eps_max": self.eps_max,
            "norms": dict(self.norms),
        }


def propagated_bounds_report(fr, spec, cfg, radii, f_norms=None,
                             varphi_sup=None):
    """Evaluate the zero-order constants and check b + eps d <= radius.

    ``radii`` is the (t, s, u) triple of BallRadii. Norm arguments
    default to sups measured along the orbit; infeasibility is reported
    in the result, never raised.
    """
    t_ball, s_ball, u_ball = radii
    t0 = t_ball.c[0]
    s0 = s_ball.c[0]
    u0 = u_ball.c[0]
    if f_norms is None:
        f_norms = orbit_field_norms(fr, cfg.window)
    f_c0, f_c1, f_c2 = (float(x) for x in f_norms)
    if varphi_sup is None:
        varphi_sup = _varphi_sup_estimate(fr, spec, cfg)
    q = fr.quality
    bracket = t0 * f_c1 * (s0 + u0) + 0.5 * f_c2 * (s0 + u0) ** 2
    b_fl = fr.model.b
    pre_c = q.C_Pi * f_c0 / b_fl ** 2
    pre_s = q.C_Pi * q.C_U / (q.lam_s * (1.0 - t0))
    pre_u = 0.0
    if np.isfinite(q.lam_u):
        pre_u = q.C_Pi * q.C_U / (q.lam_u * (1.0 - t0))
    b_c0 = pre_c * bracket
    b_s0 = pre_s * bracket
    b_u0 = pre_u * bracket
    d_c0 = pre_c * varphi_sup
    d_s0 = pre_s * varphi_sup
    d_u0 = pre_u * varphi_sup
    rad = {"t": t0, "s": s0, "u": u0}
    eps = cfg.eps
    feas = {
        "t": b_c0 + eps * d_c0 <= t0,
        "s": b_s0 + eps * d_s0 <= s0,
        "u": b_u0 + eps * d_u0 <= u0,
    }
    eps_max = math.inf
    for bb, dd, rr in ((b_c0, d_c0, t0), (b_s0, d_s0, s0), (b_u0, d_u0, u0)):
        if dd > 0.0:
            eps_max = min(eps_max, max((rr - bb) / dd, 0.0))
        elif bb > rr:
            eps_max = 0.0
    return PropagatedBounds(
        b_c0=b_c0, b_s0=b_s0, b_u0=b_u0,
        d_c0=d_c0, d_s0=d_s0, d_u0=d_u0,
        radii=rad, feasible=feas, eps=eps, eps_max=eps_max,
        norms={"f_c0": f_c0, "f_c1": f_c1, "f_c2": f_c2,
               "varphi_sup": float(varphi_sup)},
    )


# ---------------------------------------------------------------------------
# contraction constants and probes


def contraction_constants(fr, spec, cfg, t_ball, s_ball, u_ball,
                          f_norms=None, lip_d2f=0.0, varphi_sup=None):
    """The difference-bound constants and the predicted ratio.

    c_B, d_B bound the quadratic-term difference; c_phi, d_phi, e_phi
    the reparametrized-perturbation difference; the predicted kappa is
    the worst column sum of the assembled five-component coefficient
    matrix in the weighted metric.
    """
    eta = cfg.eta.eta
    eps = cfg.eps
    h = spec.h if spec is not None else 0.0
    L1 = spec.L1 if spec is not None else 0.0
    L2 = spec.L2 if spec is not None else 0.0
    if f_norms is None:
        f_norms = orbit_field_norms(fr, cfg.window)
    f_c0, f_c1, f_c2 = (float(x) for x in f_norms)
    if varphi_sup is None:
        varphi_sup = _varphi_sup_estimate(fr, spec, cfg)
    t0, t1 = t_ball.c[0], t_ball.c[1]
    s0, s1 = s_ball.c[0], s_ball.c[1]
    s2 = s_ball.c[2] if len(s_ball.c) > 3 else s_ball.c[-1]
    u0, u1 = u_ball.c[0], u_ball.c[1]
    u2 = u_ball.c[2] if len(u_ball.c) > 3 else u_ball.c[-1]
    q = fr.quality

    c_B = f_c1 * t0 + (s0 + u0) * (lip_d2f * (s0 + u0) + f_c2)
    d_B = f_c1 * (s0 + u0)

    qq = 1.0 + t0
    ewh = math.exp(eta * qq * h)
    z = math.exp(t1 * h) * (ewh - 1.0) / (eta * qq) if h > 0.0 else 0.0
    orbit_c1 = f_c0
    lip_orbit_deriv = f_c1 * f_c0
    c_phi = L2 * ewh
    e_phi = L2 * qq * ewh
    d_phi = L1 / (eta * (1.0 - t0) ** 2)
    d_phi += L2 * (z * (orbit_c1 + s1 + u1)
                   + qq * lip_orbit_deriv * z
                   + orbit_c1 * (ewh + t1 * z)
                   + qq * (s2 + u2) * z
                   + (s1 + u1) * (t1 * z + ewh))

    a_X = d_B + eps * d_phi
    a_x = c_B + eps * c_phi
    a_dx = eps * e_phi
    # sup of the bundle integrand, entering through the 1/X difference
    g_sup = t0 * f_c1 * (s0 + u0) + 0.5 * f_c2 * (s0 + u0) ** 2 \
        + eps * float(varphi_sup)
    a_X_sig = a_X + g_sup / (1.0 - t0)

    pre_c = q.C_Pi * f_c0 / fr.model.b ** 2
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
    kappa = max(col_X, col_x, col_dx)
    return {
        "c_B": c_B, "d_B": d_B,
        "c_phi": c_phi, "d_phi": d_phi, "e_phi": e_phi,
        "z": z, "g_sup": g_sup,
        "kappa": kappa,
        "columns": {"X": col_X, "xhat": col_x, "dxhat": col_dx},
    }


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

    The measured ratio d(G v, G w) / d(v, w) must not exceed the
    predicted kappa assembled from the difference-bound constants of
    the common ball.
    """
    h = spec.h if spec is not None else 0.0
    geo = resolve_geometry(cfg, fr, h, state_v.X.t0)
    new_v, _ = gamma_step(fr, state_v, spec, cfg, _geo=geo)
    new_w, _ = gamma_step(fr, state_w, spec, cfg, _geo=geo)
    d_in = state_v.distance(state_w, cfg.eta, geo.core_half)
    d_out = new_v.distance(new_w, cfg.eta, geo.core_half)
    consts = contraction_constants(fr, spec, cfg, state_v.t_ball,
                                   state_v.s_ball, state_v.u_ball)
    measured = 0.0 if d_in == 0.0 else d_out / d_in
    ok = measured <= consts["kappa"] + 1e-12
    return ContractionProbe(distance_in=d_in, distance_out=d_out,
                            measured=measured, predicted=consts["kappa"],
                            constants=consts, ok=ok)


def b_difference_probe(fr, state_v, state_w, eta, f_norms=None,
                       lip_d2f=0.0, core_half=None):
    """Pointwise quadratic-term difference against its declared bound.

    Returns (lhs, rhs): the weighted sup of B[v] - B[w] over the nodes
    and c_B |xhat_v - xhat_w|_eta + d_B |X_v - X_w|_eta. The bound uses
    the states' own ball radii, which must agree.
    """
    eta = eta.eta if isinstance(eta, WeightParam) else float(eta)
    if state_v.t_ball.c != state_w.t_ball.c:
        raise ValueError("probe states must share the declared balls")
    nodes = state_v.xs.nodes
    Bv = _quadratic_batch(fr, state_v, nodes)
    Bw = _quadratic_batch(fr, state_w, nodes)
    diff = GridFunction(state_v.xs.half_width, state_v.xs.delta, Bv - Bw,
                        extension="zero")
    lhs = _eta_norm(diff, eta, core_half)
    if f_norms is None:
        f_norms = orbit_field_norms(fr, state_v.xs.half_width)
    _, f_c1, f_c2 = (float(x) for x in f_norms)
    t0 = state_v.t_ball.c[0]
    s0 = state_v.s_ball.c[0]
    u0 = state_v.u_ball.c[0]
    c_B = f_c1 * t0 + (s0 + u0) * (lip_d2f * (s0 + u0) + f_c2)
    d_B = f_c1 * (s0 + u0)
    dx = _eta_norm(state_v.xs - state_w.xs + (state_v.xu - state_w.xu),
                   eta, core_half)
    dX = _eta_norm(state_v.X.xhat - state_w.X.xhat, eta, core_half)
    return lhs, c_B * dx + d_B * dX


def varphi_difference_probe(fr, spec, state_v, state_w, eta,
                            core_half=None, f_norms=None, eps=0.0):
    """Reparametrized-perturbation difference against its bound.

    lhs is the weighted sup over core nodes of varphi[v] - varphi[w]
    (each with its own flow); rhs assembles c_phi, d_phi, e_phi from
    the declared balls and the spec's Lipschitz constants. ``eps`` is
    only forwarded to the spec, whose value may depend on it.
    """
    eta_v = eta.eta if isinstance(eta, WeightParam) else float(eta)
    T = state_v.xs.half_width
    if core_half is None:
        core_half = T - (1.0 + state_v.t_ball.c[0]) * spec.h - 1.0
    reach = (T + spec.h) / max(1.0 - state_v.X.t0, 1e-9) + 1.0
    nodes = state_v.xs.nodes
    keep = np.abs(nodes) <= core_half + 1e-12
    vals = []
    for st in (state_v, state_w):
        flow = _state_flow(st, reach)
        vals.append(_varphi_batch(fr, st, spec, flow, nodes[keep], eps))
    mags = np.linalg.norm(vals[0] - vals[1], axis=1)
    lhs = float((mags * np.exp(-eta_v * np.abs(nodes[keep]))).max())
    cfg_like = OperatorConfig(eta=WeightParam(eta_v), window=T, eps=0.0,
                              delta=state_v.xs.delta)
    consts = contraction_constants(fr, spec, cfg_like, state_v.t_ball,
                                   state_v.s_ball, state_v.u_ball,
                                   f_norms=f_norms, varphi_sup=0.0)
    dx = _eta_norm(state_v.xs - state_w.xs + (state_v.xu - state_w.xu),
                   eta_v, core_half)
    dX = _eta_norm(state_v.X.xhat - state_w.X.xhat, eta_v, core_half)
    ddx = _eta_norm((state_v.xs - state_w.xs).derivative(1)
                    + (state_v.xu - state_w.xu).derivative(1),
                    eta_v, core_half)
    rhs = consts["c_phi"] * dx + consts["d_phi"] * dX + consts["e_phi"] * ddx
    return lhs, rhs
