import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjlax as hj
from hjlax.errors import ConfigError


def kink(X):
    return -np.abs(X[..., 0])


def test_nodes_are_reproduced_exactly():
    g = hj.GridSpec(box=[(-3.0, 3.0)], num=[13]).build(kink)
    nodes = g.nodes()
    assert np.allclose(g(nodes), g.values.ravel(), atol=0)


def test_multilinear_is_exact_on_affine_2d():
    spec = hj.GridSpec(box=[(-1.0, 2.0), (0.0, 1.0)], num=[7, 5])
    g = spec.build(lambda X: 2.0 * X[..., 0] - 3.0 * X[..., 1] + 0.5)
    rng = np.random.default_rng(0)
    pts = rng.uniform([-1.0, 0.0], [2.0, 1.0], size=(50, 2))
    expect = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5
    assert np.allclose(g(pts), expect, atol=1e-12)


def test_constant_extension_outside_box():
    g = hj.GridSpec(box=[(-3.0, 3.0)], num=[7]).build(kink)
    assert g(np.array([[5.0]]))[0] == pytest.approx(-3.0)
    assert g(np.array([[-9.0]]))[0] == pytest.approx(-3.0)


def test_periodic_wraparound():
    g = hj.GridSpec(box=[(-np.pi, np.pi)], num=[16],
                    boundary="periodic").build(lambda X: np.sin(X[..., 0]))
    q = np.array([[0.3], [0.3 + 2 * np.pi], [0.3 - 4 * np.pi]])
    vals = g(q)
    assert np.allclose(vals, vals[0], atol=1e-12)
    # interpolation across the seam uses the wrapped neighbor: the query sits
    # 0.75 h past the last node (at pi - h), so that node gets weight 0.25
    h = g.spacing[0]
    seam = np.array([[np.pi - 0.25 * h]])
    last = np.sin(np.pi - h)
    wrapped = np.sin(-np.pi)
    assert g(seam)[0] == pytest.approx(0.25 * last + 0.75 * wrapped, abs=1e-12)


def test_lipschitz_of_kink_is_one():
    g = hj.GridSpec(box=[(-3.0, 3.0)], num=[25]).build(kink)
    assert g.lipschitz() == pytest.approx(1.0, abs=1e-12)


def test_interp_error_estimate_scales_with_spacing():
    # centered kink: second difference h |slope jump| gives estimate h/4
    for num, h in ((7, 1.0), (13, 0.5)):
        g = hj.GridSpec(box=[(-3.0, 3.0)], num=[num]).build(kink)
        assert g.interp_error_estimate() == pytest.approx(h / 4.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.9, 2.9))
def test_interp_between_nodes_of_smooth_profile(xq):
    g = hj.GridSpec(box=[(-3.0, 3.0)], num=[241]).build(
        lambda X: np.cos(X[..., 0]))
    err = abs(float(g(np.array([[xq]]))[0]) - np.cos(xq))
    assert err <= g.interp_error_estimate() * 1.0001 + 1e-12


def test_csv_header_roundtrip_is_exact(tmp_path):
    g = hj.GridSpec(box=[(-2.0, 2.0), (-1.0, 1.0)], num=[9, 5]).build(
        lambda X: np.sin(3 * X[..., 0]) * X[..., 1] + np.pi)
    csv = os.path.join(tmp_path, "u.csv")
    g.to_csv(csv)
    with open(csv) as fh:
        assert fh.readline() == "x1,x2,value\n"
    rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(rows[:, :2], g.nodes())
    assert np.array_equal(rows[:, 2].reshape(9, 5), g.values)


def test_nearest_node_and_node_point():
    g = hj.GridSpec(box=[(-3.0, 3.0)], num=[7]).build(kink)
    idx = g.nearest_node(np.array([0.4]))
    assert np.allclose(g.node_point(idx), [0.0])
    idx2 = g.nearest_node(np.array([0.6]))
    assert np.allclose(g.node_point(idx2), [1.0])


def test_with_values_keeps_geometry():
    g = hj.GridSpec(box=[(-1.0, 1.0)], num=[5]).build(kink)
    g2 = g.with_values(g.values * 2.0)
    assert np.allclose(g2.values, g.values * 2.0)
    assert np.array_equal(g2.box, g.box)


def test_shape_mismatch_rejected():
    with pytest.raises(Exception):
        hj.GridFunction(box=np.array([[-1.0, 1.0]]), values=np.zeros((3, 3)),
                        boundary="constant")
    for num in (0, 1):
        with pytest.raises(ConfigError, match="at least 2 nodes"):
            hj.GridSpec(box=[(-1.0, 1.0)], num=[num]).build(kink)


# ---------------------------------------------------------------------------
# boundary-policy primitives


@pytest.mark.parametrize("boundary", ["constant", "periodic"])
@pytest.mark.parametrize("box, num", [
    ([(-1.0, 1.0)], [6]),
    ([(-1.0, 2.0), (0.0, 1.0)], [5, 2]),
    ([(0.0, 1.0), (-2.0, 2.0)], [4, 7]),
], ids=["1d", "2d_two_node_axis", "2d"])
def test_shifted_matches_explicit_indexing(box, num, boundary):
    rng = np.random.default_rng(0)
    g = hj.GridFunction(box=box, values=rng.normal(size=num), boundary=boundary)
    # offsets up to 3 per axis, past the length of a 2-node axis
    for offset in itertools.product(range(-3, 4), repeat=g.dim):
        got = g.shifted(offset)
        for idx in np.ndindex(*num):
            j = np.add(idx, offset)
            if boundary == "periodic":
                expect = g.values[tuple(j % num)]
            elif np.all((j >= 0) & (j < num)):
                expect = g.values[tuple(j)]
            else:
                expect = np.inf
            assert got[idx] == expect, (offset, idx)


@pytest.mark.parametrize("boundary", ["constant", "periodic"])
def test_nearest_image(boundary):
    g = hj.GridSpec(box=[(-1.0, 2.0), (0.0, 0.5)], num=[6, 4],
                    boundary=boundary).build(kink)
    delta = np.random.default_rng(1).uniform(-10.0, 10.0, size=(200, 2))
    image = g.nearest_image(delta)
    if boundary == "constant":
        assert np.array_equal(image, delta)
        return
    period = np.array([3.0, 0.5])
    assert np.all(image >= -0.5 * period) and np.all(image < 0.5 * period)
    laps = (delta - image) / period
    assert np.allclose(laps, np.round(laps), atol=1e-9)


@pytest.mark.parametrize("boundary", ["constant", "periodic"])
def test_central_gradient_affine_and_rims(boundary):
    g = hj.GridSpec(box=[(-1.0, 2.0), (0.0, 1.0)], num=[7, 5],
                    boundary=boundary).build(
        lambda X: 2.0 * X[..., 0] - 3.0 * X[..., 1] + 0.5)
    grad = g.central_gradient()
    assert grad.shape == (7, 5, 2)
    assert np.allclose(grad[1:-1, 1:-1], [2.0, -3.0], atol=1e-12)
    if boundary == "periodic":
        assert np.isfinite(grad).all()
        return
    assert np.all(grad[0, :, 0] == -np.inf) and np.all(grad[-1, :, 0] == np.inf)
    assert np.all(grad[:, 0, 1] == -np.inf) and np.all(grad[:, -1, 1] == np.inf)
    assert np.allclose(grad[0, 1:-1, 1], -3.0, atol=1e-12)


def test_node_index_wraps_or_clamps():
    idx = np.array([[-1, 0], [5, 3], [12, -7]])
    const = hj.GridSpec(box=[(0.0, 1.0)] * 2, num=[5, 4]).build(kink)
    per = hj.GridSpec(box=[(0.0, 1.0)] * 2, num=[5, 4],
                      boundary="periodic").build(kink)
    assert np.array_equal(const.node_index(idx), [[0, 0], [4, 3], [4, 0]])
    assert np.array_equal(per.node_index(idx), [[4, 0], [0, 3], [2, 1]])
    # 0.999 rounds to node 5 of the periodic axis, which is node 0
    assert per.nearest_node(np.array([0.999, 0.0])) == (0, 0)
    assert const.nearest_node(np.array([1.7, -0.4])) == (4, 0)


def _tuple_index_interp(g, points):
    """Multilinear interpolation that indexes values by per-axis index
    tuples, corner by corner in itertools.product order."""
    pts = np.asarray(points, dtype=float).reshape(-1, g.dim)
    n = len(pts)
    i0 = np.empty((n, g.dim), dtype=np.int64)
    i1 = np.empty((n, g.dim), dtype=np.int64)
    w = np.empty((n, g.dim))
    for k in range(g.dim):
        m = g.values.shape[k]
        u = (pts[:, k] - g.box[k, 0]) / g.spacing[k]
        if g.boundary == "periodic":
            u = np.mod(u, m)
            base = np.floor(u)
            i0[:, k] = base.astype(np.int64) % m
            i1[:, k] = (i0[:, k] + 1) % m
        else:
            u = np.clip(u, 0.0, m - 1.0)
            base = np.minimum(np.floor(u), m - 2)
            i0[:, k] = base.astype(np.int64)
            i1[:, k] = i0[:, k] + 1
        w[:, k] = u - base
    out = np.zeros(n)
    for corner in itertools.product((0, 1), repeat=g.dim):
        idx = tuple((i1 if c else i0)[:, k] for k, c in enumerate(corner))
        weight = np.ones(n)
        for k, c in enumerate(corner):
            weight = weight * (w[:, k] if c else 1.0 - w[:, k])
        out += weight * g.values[idx]
    return out.reshape(np.shape(points)[:-1])


@pytest.mark.parametrize("boundary", ["constant", "periodic"])
@pytest.mark.parametrize("box, num", [
    ([(-1.0, 2.0)], [9]),
    ([(-np.pi, np.pi), (0.0, 1.5)], [7, 5]),
    ([(-1.0, 1.0), (0.0, 2.0), (-3.0, -1.0)], [4, 6, 3]),
], ids=["1d", "2d", "3d"])
def test_flat_index_interp_matches_tuple_indexing(box, num, boundary):
    rng = np.random.default_rng(len(num))
    g = hj.GridSpec(box=box, num=num, boundary=boundary).build(
        lambda p: rng.normal(size=len(p)))
    lo, hi = np.array(box).T
    # up to three half-widths from the center: most points lie outside the
    # box, where the constant policy clamps and the periodic one wraps
    pts = (lo + hi) / 2.0 + 3.0 * (hi - lo) / 2.0 * rng.uniform(
        -1.0, 1.0, size=(4, 50, len(num)))
    assert np.any((pts < lo) | (pts > hi))
    got = g(pts)
    assert got.shape == (4, 50)
    assert np.array_equal(got, _tuple_index_interp(g, pts))
    # the nodes and the box corners themselves
    for exact in (g.nodes(), np.array([lo, hi])):
        assert np.array_equal(g(exact), _tuple_index_interp(g, exact))
