"""Grid representation: interpolation, derivatives, norms, balls, serialization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypershadow import funcspace as fs


def grid(fn, T, delta, order=5, extension="constant-hold"):
    return fs.GridFunction.sample(fn, T, delta, interp_order=order,
                                  extension=extension)


# -- eval --------------------------------------------------------------

def test_eval_zero_function():
    g = grid(lambda t: 0.0 * t, 1.0, 0.1, order=3)
    assert np.all(g.eval(0.37) == 0.0)


def test_eval_sine_against_direct_evaluation():
    # oracle: direct evaluation of sin at the query point
    g = grid(np.sin, 10.0, 0.01, order=3)
    err = abs(g.eval1(1.0) - math.sin(1.0))
    assert err <= 1e-8


def test_eval_constant_hold_extension():
    g = grid(lambda t: t, 1.0, 0.1, extension="constant-hold")
    assert g.eval1(2.0) == pytest.approx(1.0, abs=1e-12)
    assert g.eval1(-3.5) == pytest.approx(-1.0, abs=1e-12)


def test_eval_linear_extension():
    g = grid(lambda t: 2.0 * t + 1.0, 1.0, 0.1, extension="linear")
    assert g.eval1(1.7) == pytest.approx(2.0 * 1.7 + 1.0, abs=1e-9)
    assert g.eval1(-2.0) == pytest.approx(-3.0, abs=1e-9)


def test_eval_zero_extension_tapers_continuously():
    g = grid(lambda t: np.ones_like(t), 1.0, 0.1, extension="zero")
    assert g.eval1(1.0) == pytest.approx(1.0)
    # halfway through the taper cell
    assert g.eval1(1.05) == pytest.approx(0.5, abs=1e-12)
    assert g.eval1(1.1) == 0.0
    assert g.eval1(4.0) == 0.0


def test_eval_exact_at_nodes():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(41, 2))
    g = fs.GridFunction(2.0, 0.1, vals)
    got = g.eval(g.nodes)
    assert np.abs(got - vals).max() <= 1e-14


def test_eval_continuous_across_boundary_all_policies():
    for ext in fs.EXTENSIONS:
        g = grid(lambda t: np.sin(t) + 0.3 * t, 2.0, 0.05, extension=ext)
        for side in (-2.0, 2.0):
            inner = g.eval1(side - math.copysign(1e-10, side))
            outer = g.eval1(side + math.copysign(1e-10, side))
            assert abs(inner - outer) <= 1e-7, ext


# -- derivative --------------------------------------------------------

def test_derivative_polynomial_exact():
    g = grid(lambda t: t ** 2, 1.0, 0.1, order=3)
    d = g.derivative(1)
    assert abs(d.eval1(0.5) - 1.0) <= 1e-9


def test_derivative_second_of_sine():
    # oracle: -sin evaluated directly at the probe points
    g = grid(np.sin, 5.0, 0.01, order=5)
    d2 = g.derivative(2)
    for t in (0.0, 1.0, -2.5):
        assert abs(d2.eval1(t) - (-math.sin(t))) <= 1e-6


def test_derivative_of_constant_is_zero():
    g = grid(lambda t: 3.0 + 0.0 * t, 1.0, 0.1)
    assert np.abs(g.derivative(1).values).max() <= 1e-12


def test_derivative_rejects_large_order():
    g = grid(np.sin, 1.0, 0.1, order=3)
    with pytest.raises(ValueError):
        g.derivative(3)
    with pytest.raises(ValueError):
        g.derivative(0)


# -- norms -------------------------------------------------------------

def test_norm_ck_constant():
    g = grid(lambda t: 3.0 + 0.0 * t, 1.0, 0.05)
    assert g.norm_ck(2) == pytest.approx(3.0, abs=1e-10)


def test_norm_ck_sine():
    # oracle: sup|sin| = sup|cos| = 1, both attained near grid nodes
    g = grid(np.sin, 10.0, 0.01)
    assert g.norm_ck(1) == pytest.approx(1.0, abs=1e-4)
    assert abs(g.norm_ck(1) - 1.0) <= 2e-5


def test_norm_ck_zero():
    g = grid(lambda t: 0.0 * t, 1.0, 0.1)
    assert g.norm_ck(3) == 0.0


def test_lipschitz_absolute_value():
    g = grid(np.abs, 1.0, 0.05)
    assert g.lipschitz_estimate(0) == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_constant_function():
    g = grid(lambda t: 2.0 + 0.0 * t, 1.0, 0.1)
    assert g.lipschitz_estimate(0) == 0.0


def test_lipschitz_sine():
    # oracle: sup|cos| = 1
    g = grid(np.sin, 10.0, 0.01)
    assert g.lipschitz_estimate(0) == pytest.approx(1.0, abs=1e-4)


def test_razumikhin_weight_dominates_growth():
    g = grid(lambda t: np.exp(0.5 * np.abs(t)), 10.0, 0.01)
    assert g.norm_razumikhin(fs.WeightParam(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_razumikhin_constant():
    g = grid(lambda t: 2.5 + 0.0 * t, 3.0, 0.1)
    assert g.norm_razumikhin(fs.WeightParam(0.7)) == pytest.approx(2.5, abs=1e-12)


def test_razumikhin_ramp_attains_inverse_e():
    # oracle: max of rho * exp(-rho) over rho >= 0 is 1/e at rho = 1;
    # the ramp max(rho, 0) has the same weighted sup on a symmetric window
    g = grid(lambda t: np.maximum(t, 0.0), 10.0, 0.01)
    assert g.norm_razumikhin(fs.WeightParam(1.0)) == pytest.approx(
        1.0 / math.e, abs=1e-6)


# -- balls -------------------------------------------------------------

def test_ball_membership_center():
    # the ball is around 0; a ball around g is measured on g - g
    g = grid(np.cos, 2.0, 0.05)
    radii = fs.BallRadii((0.5, 0.4, 0.3))
    rep = fs.ball_membership(g - g, radii)
    assert rep.ok
    assert rep.slack == pytest.approx(radii.c)


def test_ball_membership_level0_violation():
    center = grid(np.cos, 2.0, 0.05)
    radii = fs.BallRadii((0.5, 10.0, 10.0))
    g = center + center.with_values(np.full((center.n, 1), 1.0))
    rep = fs.ball_membership(g - center, radii)
    assert not rep.ok
    assert rep.slack[0] < 0.0
    assert rep.slack[1] >= 0.0


def test_ball_membership_scaled_sine():
    # displacement 0.5 sin(t/2): level sups 0.5, 0.25 and top-level
    # Lipschitz 0.125, computed by hand from the chain rule
    g = grid(lambda t: 0.5 * np.sin(t / 2.0), 10.0, 0.01)
    radii = fs.BallRadii((1.0, 1.0, 0.2))
    rep = fs.ball_membership(g, radii)
    assert rep.ok
    assert rep.measured[0] == pytest.approx(0.5, abs=1e-4)
    assert rep.measured[1] == pytest.approx(0.25, abs=1e-4)
    assert rep.measured[2] == pytest.approx(0.125, abs=1e-3)


def test_ball_membership_dimension_mismatch():
    # a displacement needs a centre of the same dimension
    a = grid(np.sin, 1.0, 0.1)
    b = fs.GridFunction(1.0, 0.1, np.zeros((21, 2)))
    with pytest.raises(ValueError):
        fs.ball_membership(a - b, fs.BallRadii((1.0, 1.0)))


def test_ball_radii_validation():
    with pytest.raises(ValueError):
        fs.BallRadii((0.1,))
    with pytest.raises(ValueError):
        fs.BallRadii((0.1, -0.2))
    r = fs.BallRadii((0.1, 0.2, 0.3))
    assert r.ell == 1 and r.c[-1] == 0.3 and r.c[1] == 0.2


def test_weight_param_validation():
    with pytest.raises(ValueError):
        fs.WeightParam(0.0)
    with pytest.raises(ValueError):
        fs.WeightParam(-1.0)


# -- invariants and properties ----------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       st.floats(-0.99, 0.99))
# a query a subnormal distance from a node once raised an overflow warning
@example(coeffs=[1.0, -0.5, 0.25, 2.0, -1.0, 0.5], t=1e-310)
def test_polynomial_exactness(coeffs, t):
    # degree interp_order data is reproduced to 1e-10 relative error
    poly = np.polynomial.Polynomial(coeffs)
    g = grid(poly, 1.0, 0.05, order=5)
    scale = max(1.0, np.abs(g.values).max())
    assert abs(g.eval1(t) - poly(t)) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 3.0))
def test_razumikhin_below_c0(eta):
    rng = np.random.default_rng(int(eta * 1e6) % 2 ** 31)
    g = fs.GridFunction(2.0, 0.1, rng.normal(size=(41, 3)))
    assert g.norm_razumikhin(fs.WeightParam(eta)) <= g.norm_ck(0) + 1e-15


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(1, 2))
def test_derivative_linearity(a, b, k):
    rng = np.random.default_rng(123)
    f = fs.GridFunction(1.0, 0.05, rng.normal(size=41))
    g = fs.GridFunction(1.0, 0.05, rng.normal(size=41))
    lhs = f.with_values(a * f.values + b * g.values).derivative(k)
    rhs = f.with_values(a * f.derivative(k).values
                        + b * g.derivative(k).values)
    scale = 1.0 + np.abs(rhs.values).max()
    assert np.abs(lhs.values - rhs.values).max() <= 1e-11 * scale


def test_refinement_order():
    # halving delta must shrink eval error by at least 2^(interp_order-1)
    fn = lambda t: np.exp(np.sin(t))
    probes = np.linspace(-0.93, 0.93, 57)
    errs = []
    for delta in (0.2, 0.1):
        g = grid(fn, 1.0, delta, order=5)
        errs.append(np.abs(g.eval(probes)[:, 0] - fn(probes)).max())
    assert errs[0] / errs[1] >= 2 ** 4


def test_node_count_formula():
    g = fs.GridFunction(1.0, 0.1, np.zeros(21))
    assert g.n == math.floor(2 * 1.0 / 0.1) + 1
    with pytest.raises(ValueError):
        fs.GridFunction(1.0, 0.1, np.zeros(20))
    with pytest.raises(ValueError):
        fs.GridFunction(1.0, 0.3, np.zeros(7))  # window not a whole cell count


def test_lattice_is_built_once_per_geometry_and_read_only():
    nodes = fs.lattice(2.0, 0.1)
    assert fs.lattice(np.float64(2.0), 0.1) is nodes
    assert not nodes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0
    g = fs.GridFunction(2.0, 0.1, np.zeros(41))
    assert g.nodes is nodes and g.with_values(np.ones(41)).nodes is nodes


def test_sample_hands_fn_a_copy_it_may_write():
    def doubled_in_place(t):
        t *= 2.0
        return t

    nodes = fs.lattice(2.0, 0.1)
    want = 2.0 * nodes
    g = fs.GridFunction.sample(doubled_in_place, 2.0, 0.1)
    assert np.array_equal(g.values[:, 0], want)
    # the shared nodes did not move, and a grid of fn's own array is
    # still free to be written
    assert np.array_equal(nodes, want / 2.0) and g.nodes is nodes
    mine = fs.GridFunction.sample(lambda t: t, 2.0, 0.1)
    assert mine.values.flags.writeable


def test_restrict():
    g = grid(np.sin, 2.0, 0.1)
    r = g.restrict(1.5)
    assert r.half_width == pytest.approx(1.5)
    assert np.allclose(r.values[:, 0], np.sin(r.nodes))
    with pytest.raises(ValueError):
        g.restrict(1.23)


# -- serialization -----------------------------------------------------

def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    g = fs.GridFunction(1.0, 0.05, rng.normal(size=(41, 2)),
                        interp_order=4, extension="zero")
    path = tmp_path / "state.csv"
    fs.save_grid_function(g, path)
    h = fs.load_grid_function(path)
    assert np.array_equal(g.values, h.values)
    assert h.interp_order == 4 and h.extension == "zero"
    assert h.half_width == g.half_width and h.delta == g.delta
    header = path.read_text().splitlines()[0]
    assert header == "t,v0,v1"


def test_csv_deterministic(tmp_path):
    g = grid(np.sin, 1.0, 0.1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fs.save_grid_function(g, p1)
    fs.save_grid_function(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one format call per row writes exactly what formatting each value
    # with .17g does, signed zeros, subnormals, extremes and integers too
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(21, 3)) * 10.0 ** rng.integers(-300, 300, (21, 3))
    vals[:4] = [[0.0, -0.0, 5e-324], [-2.5e-310, 1e308, -1e308],
                [3.0, -7.0, 2.0 ** 60], [1.0 / 3.0, -1e-5, 12345.0]]
    g = fs.GridFunction(1.0, 0.1, vals)
    path = tmp_path / "g.csv"
    fs.save_grid_function(g, path)
    want = ["t,v0,v1,v2"] + [
        f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row)
        for t, row in zip(g.nodes, g.values)]
    assert path.read_text() == "\n".join(want) + "\n"


# -- sampler -----------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(fs.EXTENSIONS), st.sampled_from([3, 5, 7]),
       st.lists(st.one_of(st.floats(-1.3, 1.3),
                          st.integers(0, 40).map(lambda i: -1.0 + 0.05 * i)),
                min_size=1, max_size=12))
# a query a subnormal distance from a node, as in the exactness test
@example(ext="linear", order=5, ts=[1e-310, -1.0, 1.0, 1.2, -1.25])
def test_sampler_matches_eval_bitwise(ext, order, ts):
    # the sampler is built on one grid and read on another of the same
    # geometry, with other values, dimension and extension policy
    rng = np.random.default_rng(order)
    base = fs.GridFunction(1.0, 0.05, rng.normal(size=41),
                           interp_order=order)
    g = fs.GridFunction(1.0, 0.05, rng.normal(size=(41, 3)),
                        interp_order=order, extension=ext)
    t = np.asarray(ts)
    got = fs.GridSampler(base, t).apply(g)
    assert got.shape == (t.size, 3)
    assert np.array_equal(got, g.eval(t))
    # one query at a time: the masks of a mixed batch must route each
    # row to interpolation or to the extension of its own side
    assert np.array_equal(got, np.array([g.eval(x) for x in t]))
    on_node = np.isin(t, g.nodes)
    assert np.array_equal(got[on_node], g.values[np.searchsorted(
        g.nodes, t[on_node])])


def test_sampler_rejects_other_geometry():
    g = fs.GridFunction(1.0, 0.05, np.zeros(41))
    s = fs.GridSampler(g, np.linspace(-0.9, 0.9, 7))
    others = (fs.GridFunction(1.0, 0.05, np.zeros(41), interp_order=7),
              fs.GridFunction(2.0, 0.05, np.zeros(81)),
              fs.GridFunction(1.0, 0.1, np.zeros(21)))
    for other in others:
        with pytest.raises(ValueError, match="sampler of"):
            s.apply(other)
    ones = s.apply(g.with_values(np.ones(41)))
    assert np.abs(ones - 1.0).max() <= 1e-14


@pytest.mark.parametrize("order", [3, 5, 7])
def test_stencil_weights_match_fd_weights_bitwise(order):
    delta = 0.05
    g = fs.GridFunction(1.0, delta, np.zeros(41), interp_order=order)
    offsets = np.arange(order + 1, dtype=float) * delta
    for k in range(1, order):
        table = g.stencil_weights(k)
        assert table.shape == (order + 1, order + 1)
        for q in range(order + 1):
            want = fs.fd_weights(offsets, q * delta, k)
            assert np.array_equal(table[q], want)
        # tabulated once, shared with every grid derived from g
        assert g.derivative(1).stencil_weights(k) is table
        assert (g + g).restrict(0.5).stencil_weights(k) is table
