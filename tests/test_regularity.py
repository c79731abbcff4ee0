"""Superdifferential estimation, H-minimization over hulls, singular sets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

import hjlax.regularity
from hjlax import (ConfigError, GridSpec, InsufficientSamples, NonConvergence,
                   NotSemiconcave, brute_force_H_min, limiting_differentials,
                   mechanical_lagrangian, min_H_over_superdiff,
                   semiconcavity_constant, singular_set, solve_discounted,
                   superdifferential)
from hjlax.lagrangian import Hamiltonian
from hjlax.regularity import (SuperdiffSet, _diameter, _hull_vertices,
                              _single_linkage, grid_classification)


def grid1d(fn, num=161, lo=-2.0, hi=2.0, boundary="constant"):
    return GridSpec(box=[(lo, hi)], num=[num], boundary=boundary).build(fn)


def quad_ham(center, a=1.0, off=0.0):
    c = np.asarray(center, dtype=float)
    return Hamiltonian(
        dim=len(c),
        eval=lambda t, x, p: off + 0.5 * a * np.sum((p - c) ** 2, axis=-1),
        grad_p=lambda t, x, p: a * (p - c),
        provenance="closed_form",
    )


@pytest.fixture(scope="module")
def vee():
    return grid1d(lambda x: -np.abs(x[..., 0]))


@pytest.fixture(scope="module")
def square_set():
    verts = _hull_vertices(np.array([[-1.0, -1.0], [-1.0, 1.0],
                                     [1.0, -1.0], [1.0, 1.0]]))
    return SuperdiffSet(x=np.zeros(2), limiting=verts, vertices=verts,
                        diameter=float(2.0 * np.sqrt(2.0)))


# ---------------------------------------------------------------------------
# limiting differentials


def test_limiting_one_sided_slopes_of_kink(vee):
    lim = limiting_differentials(vee, np.array([0.0]), radius=0.2)
    assert lim.shape == (2, 1)
    np.testing.assert_allclose(lim.ravel(), [-1.0, 1.0], atol=1e-12)


def test_limiting_smooth_quadratic_is_exact():
    u = grid1d(lambda x: 0.3 + 0.7 * x[..., 0] - 0.55 * x[..., 0] ** 2)
    lim = limiting_differentials(u, np.array([0.5]), radius=0.2)
    assert lim.shape == (1, 1)
    assert abs(lim[0, 0] - (0.7 - 1.1 * 0.5)) < 1e-12


def test_limiting_smooth_quadratic_2d_exact():
    spec = GridSpec(box=[(-1.0, 1.0), (-1.0, 1.0)], num=[41, 41],
                    boundary="constant")
    u = spec.build(lambda x: 0.1 + 0.3 * x[..., 0] - 0.7 * x[..., 1]
                   - 0.25 * (x[..., 0] ** 2 + 2.0 * x[..., 1] ** 2))
    x = np.array([0.25, -0.3])
    lim = limiting_differentials(u, x, radius=0.11)
    exact = np.array([0.3 - 0.5 * 0.25, -0.7 + 0.3])
    assert lim.shape == (1, 2)
    np.testing.assert_allclose(lim[0], exact, atol=1e-12)


def test_limiting_planar_ridge_recovers_both_slopes():
    spec = GridSpec(box=[(-1.0, 1.0), (-1.0, 1.0)], num=[41, 41],
                    boundary="constant")
    a = np.array([1.0, 0.2])
    b = np.array([-0.4, 0.8])
    u = spec.build(lambda x: np.minimum(x @ a, x @ b))
    lim = limiting_differentials(u, np.zeros(2), radius=0.15)
    assert lim.shape == (2, 2)
    np.testing.assert_allclose(lim, np.stack([b, a]), atol=1e-12)


def test_limiting_radius_below_two_spacings_rejected(vee):
    with pytest.raises(ConfigError):
        limiting_differentials(vee, np.array([0.0]), radius=0.03)


def test_limiting_needs_differentiable_neighbors():
    rng = np.random.default_rng(7)
    u = grid1d(lambda x: np.zeros(x.shape[:-1]), num=81)
    u = u.with_values(rng.standard_normal(81))
    with pytest.raises(InsufficientSamples):
        limiting_differentials(u, np.array([0.0]), radius=0.2)


# ---------------------------------------------------------------------------
# superdifferential hulls


def test_superdiff_of_kink_is_unit_interval(vee):
    S = superdifferential(vee, np.array([0.0]))
    np.testing.assert_allclose(np.sort(S.vertices.ravel()), [-1.0, 1.0],
                               atol=1e-12)
    assert abs(S.diameter - 2.0) < 1e-12


def test_superdiff_smooth_point_is_singleton(vee):
    u = grid1d(lambda x: np.sin(x[..., 0]))
    S = superdifferential(u, np.array([0.5]))
    assert S.vertices.shape == (1, 1)
    assert S.diameter == 0.0
    # recentring over the 3h ball carries a curvature bias of order 4h^2|g''|
    h = float(u.spacing.max())
    assert abs(S.vertices[0, 0] - np.cos(0.5)) < 4.0 * h * h


def test_superdiff_box_corner_function_has_square_hull():
    spec = GridSpec(box=[(-1.0, 1.0), (-1.0, 1.0)], num=[41, 41],
                    boundary="constant")
    u = spec.build(lambda x: -np.maximum(np.abs(x[..., 0]),
                                         np.abs(x[..., 1])))
    S = superdifferential(u, np.zeros(2))
    assert S.vertices.shape == (4, 2)
    expected = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [1.0, 0.0]])
    for row in expected:
        gaps = np.linalg.norm(S.vertices - row[None, :], axis=1)
        assert gaps.min() < 1e-12
    assert abs(S.diameter - 2.0) < 1e-12


def test_limiting_gradients_lie_on_hull_boundary(vee):
    spec = GridSpec(box=[(-1.0, 1.0), (-1.0, 1.0)], num=[41, 41],
                    boundary="constant")
    a = np.array([1.0, 0.2])
    b = np.array([-0.4, 0.8])
    planar = spec.build(lambda x: np.minimum(x @ a, x @ b))
    for u, x in ((vee, np.array([0.0])), (planar, np.zeros(2))):
        S = superdifferential(u, x)
        for c in S.limiting:
            gaps = np.linalg.norm(S.vertices - c[None, :], axis=1)
            assert gaps.min() < 1e-9


def test_convex_kink_rejected():
    u = grid1d(lambda x: np.abs(x[..., 0]))
    with pytest.raises(NotSemiconcave):
        superdifferential(u, np.array([0.0]))


def test_scaling_equivariance(vee):
    S = superdifferential(vee, np.array([0.0]))
    S2 = superdifferential(vee.with_values(2.0 * vee.values), np.array([0.0]))
    np.testing.assert_allclose(S2.vertices, 2.0 * S.vertices, atol=1e-12)
    assert abs(S2.diameter - 2.0 * S.diameter) < 1e-12


def test_diameter_shrinks_with_spacing():
    # smooth data: hull collapses at least at rate O(spacing)
    for num in (81, 161, 321):
        u = grid1d(lambda x: np.sin(1.3 * x[..., 0]), num=num)
        S = superdifferential(u, np.array([0.4]))
        assert S.diameter <= float(u.spacing.max())


def test_diameter_matches_differentiability_classification(vee):
    _, spread, resid = grid_classification(vee)
    kink = vee.nearest_node(np.array([0.0]))
    smooth = vee.nearest_node(np.array([1.0]))
    h = float(vee.spacing.max())
    assert (spread[kink] > 1.0) or (resid[kink] > 1.0)
    assert superdifferential(vee, np.array([0.0])).diameter > h
    assert spread[smooth] <= 1.0 and resid[smooth] <= 1.0
    assert superdifferential(vee, np.array([1.0])).diameter <= h


# ---------------------------------------------------------------------------
# minimizing H over the hull


def test_min_H_interior_minimum(vee):
    S = superdifferential(vee, np.array([0.0]))
    q, val = min_H_over_superdiff(quad_ham([0.0]), 0.0, np.array([0.0]), S)
    assert abs(q[0]) < 1e-9
    assert abs(val) < 1e-12


def test_min_H_clamps_to_vertex(vee):
    S = superdifferential(vee, np.array([0.0]))
    q, val = min_H_over_superdiff(quad_ham([2.0]), 0.0, np.array([0.0]), S)
    assert abs(q[0] - 1.0) < 1e-9
    assert abs(val - 0.5) < 1e-9


def test_min_H_2d_interior_and_brute_force_agree(square_set):
    H = quad_ham([0.3, 0.9])
    q, val = min_H_over_superdiff(H, 0.0, np.zeros(2), square_set)
    np.testing.assert_allclose(q, [0.3, 0.9], atol=1e-6)
    qb, vb = brute_force_H_min(H, 0.0, np.zeros(2), square_set)
    assert np.abs(q - qb).max() < 1e-6
    assert abs(val - vb) < 1e-6


def test_min_H_face_and_vertex_cases(square_set):
    # projection lands mid-face
    H = quad_ham([0.3, 1.7])
    q, val = min_H_over_superdiff(H, 0.0, np.zeros(2), square_set)
    np.testing.assert_allclose(q, [0.3, 1.0], atol=1e-7)
    qb, vb = brute_force_H_min(H, 0.0, np.zeros(2), square_set)
    assert np.abs(q - qb).max() < 1e-6
    assert abs(val - vb) < 1e-6
    # projection lands on a vertex
    H = quad_ham([2.5, 2.0])
    q, _ = min_H_over_superdiff(H, 0.0, np.zeros(2), square_set)
    np.testing.assert_allclose(q, [1.0, 1.0], atol=1e-9)


def test_min_H_1d_brute_force_agrees(vee):
    S = superdifferential(vee, np.array([0.0]))
    # with offset 3, a value-based backtracking cannot see the descent that
    # is left near the interior minima +-0.9 and stalls
    for center, off in ((0.0, 0.0), (0.37, 0.0), (2.0, 0.0), (-1.4, 0.0),
                        (0.9, 3.0), (-0.9, 3.0)):
        H = quad_ham([center], off=off)
        q, val = min_H_over_superdiff(H, 0.0, np.array([0.0]), S)
        qb, vb = brute_force_H_min(H, 0.0, np.array([0.0]), S)
        assert abs(q[0] - qb[0]) < 1e-6
        assert abs(val - vb) < 1e-6


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-3.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-1.5, 2.5), st.floats(-1e3, 1e3))
def test_min_H_1d_within_certificate_of_the_projection(lo, log_width, log_a,
                                                       at, off):
    # the exact minimizer of a 1-d quadratic over [lo, hi] is clip(c);
    # at places c before, inside and beyond the interval
    hi = lo + 10.0 ** log_width
    a, c = 10.0 ** log_a, lo + at * (hi - lo)
    verts = np.array([[lo], [hi]])
    S = SuperdiffSet(x=np.zeros(1), limiting=verts, vertices=verts,
                     diameter=hi - lo)
    H = quad_ham([c], a=a, off=off)
    q, val = min_H_over_superdiff(H, 0.0, np.zeros(1), S)
    assert lo <= q[0] <= hi
    exact = float(H.eval(0.0, np.zeros(1), np.clip([c], lo, hi)))
    cert = hjlax.regularity._MIN_H_TOL * (
        1.0 + abs(float(H.grad_p(0.0, np.zeros(1), q)[0])) * (1.0 + hi - lo))
    assert val - exact <= cert


def test_min_H_over_a_flat_hull_in_3d():
    # a ridge of three planes in 3-d: the superdifferential at the origin is
    # the triangle of their gradients, flat in R^3
    spec = GridSpec(box=[(-1.0, 1.0)] * 3, num=[15] * 3, boundary="constant")
    u = spec.build(lambda x: np.minimum(np.minimum(3.0 * x[..., 0],
                                                   3.0 * x[..., 1]),
                                        -3.0 * x[..., 0] - 3.0 * x[..., 1]))
    S = superdifferential(u, np.zeros(3))
    assert S.vertices.shape == (3, 3)
    for row in ([3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-3.0, -3.0, 0.0]):
        assert np.linalg.norm(S.vertices - row, axis=1).min() < 1e-12
    # the centroid is the point of the triangle nearest to centroid + 2 e3
    q, val = min_H_over_superdiff(quad_ham([0.0, 0.0, 2.0]), 0.0,
                                  np.zeros(3), S)
    assert np.abs(q).max() < 1e-12
    assert abs(val - 2.0) < 1e-12
    with pytest.raises(ConfigError, match="rank 2"):
        brute_force_H_min(quad_ham([0.0, 0.0, 2.0]), 0.0, np.zeros(3), S)


def test_min_H_iteration_budget_enforced(vee, monkeypatch):
    S = superdifferential(vee, np.array([0.0]))
    monkeypatch.setattr(hjlax.regularity, "_MIN_H_MAX_ITER", 0)
    with pytest.raises(NonConvergence):
        min_H_over_superdiff(quad_ham([0.37]), 0.0, np.array([0.0]), S)


# ---------------------------------------------------------------------------
# singular sets and semiconcavity constants


def test_singular_set_of_kink_is_one_node(vee):
    sing = singular_set(vee)
    assert sing.indices == [(80,)]
    np.testing.assert_allclose(sing.points.ravel(), [0.0], atol=1e-12)
    assert sing.contains(np.array([0.0]))
    assert sing.contains(np.array([0.01]))
    assert not sing.contains(np.array([0.5]))


@pytest.mark.filterwarnings("error")
def test_classification_of_constant_boundary_grid_is_warning_free():
    u = GridSpec(box=[(-1.0, 1.0)] * 2, num=[21, 21],
                 boundary="constant").build(lambda x: -np.abs(x[..., 0]))
    _, spread, resid = grid_classification(u)
    rim = np.ones(u.values.shape, dtype=bool)
    rim[2:-2, 2:-2] = False
    assert np.all(np.isinf(spread[rim])) and np.all(np.isinf(resid[rim]))
    assert np.all(np.isfinite(resid[~rim]))
    assert {i for i, _ in singular_set(u).indices} == {10}


def test_singular_set_smooth_is_empty():
    u = grid1d(lambda x: np.sin(x[..., 0]))
    sing = singular_set(u)
    assert sing.indices == []
    assert not sing.contains(np.array([0.0]))


def test_singular_set_two_kinks_and_scaling():
    u = grid1d(lambda x: -np.abs(x[..., 0] - 0.5) - np.abs(x[..., 0] + 0.5))
    sing = singular_set(u)
    assert sing.indices == [(60,), (100,)]
    np.testing.assert_allclose(sing.points.ravel(), [-0.5, 0.5], atol=1e-12)
    # uniform positive scaling preserves the singular set exactly
    scaled = singular_set(u.with_values(np.exp(0.125) * u.values))
    assert scaled.indices == sing.indices


# the rules singular_set and superdifferential's boundary filter replaced,
# kept as oracles


def pair_diameter(vertices):
    """superdifferential's former diameter: largest distance between two
    hull vertices."""
    if len(vertices) < 2:
        return 0.0
    return max(float(np.linalg.norm(a - b))
               for i, a in enumerate(vertices) for b in vertices[i + 1:])


def boundary_distance(vertices, p):
    """Distance from p to the hull boundary (0 on it, >0 inside), one hull
    per center."""
    if len(vertices) <= 2:
        return float(min(np.linalg.norm(p - v) for v in vertices))
    hull = ConvexHull(vertices)
    slack = -(hull.equations[:, :-1] @ p + hull.equations[:, -1])
    return float(slack.min())


def singular_indices(u):
    """Nodes failing the classification whose superdifferential at radius
    2*spacing, with the semiconcavity guard off, spans more than
    4*spacing; unresolvable nodes count as singular."""
    h = float(u.spacing.max())
    _, spread, resid = grid_classification(u)
    suspicious = ((spread > 1.0) | (resid > 1.0)) & np.isfinite(spread)
    found = []
    for flat in np.flatnonzero(suspicious):
        idx = tuple(int(i) for i in np.unravel_index(flat, u.values.shape))
        try:
            lim = limiting_differentials(u, u.node_point(idx), 2.0 * h)
        except InsufficientSamples:
            found.append(idx)
            continue
        if pair_diameter(_hull_vertices(lim)) > 4.0 * h:
            found.append(idx)
    return found


@st.composite
def point_sets(draw):
    """Up to 8 points of the quarter lattice in 1-d or 2-d: scattered,
    collinear, or drawn with repeats (a single point included)."""
    dim = draw(st.sampled_from([1, 2]))
    coord = st.integers(-8, 8)
    m = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["scattered", "collinear", "repeated"]))
    if shape == "collinear":
        base = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
        step = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
        ts = np.array(draw(st.lists(coord, min_size=m, max_size=m)))
        pts = base + ts[:, None] * step
    else:
        pts = np.array(draw(st.lists(st.lists(coord, min_size=dim,
                                              max_size=dim),
                                     min_size=m, max_size=m)))
        if shape == "repeated":
            picks = draw(st.lists(st.integers(0, m - 1), min_size=m,
                                  max_size=2 * m))
            pts = pts[picks]
    return 0.25 * pts.astype(float)


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_hull_vertices_keep_the_diameter(points):
    assert _diameter(points) == _diameter(_hull_vertices(points))
    assert _diameter(points) == pair_diameter(_hull_vertices(points))


def chained_clusters(points, tol):
    """Clusters grown one at a time from the least unassigned index: a point
    joins while some member lies within tol of it."""
    left = list(range(len(points)))
    clusters = []
    while left:
        members = [left.pop(0)]
        while True:
            near = [j for j in left if any(
                np.linalg.norm(points[j] - points[i]) <= tol for i in members)]
            if not near:
                break
            members += near
            left = [j for j in left if j not in near]
        clusters.append(sorted(members))
    return clusters


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]))
def test_single_linkage_matches_chaining(points, tol):
    # the quarter lattice puts gaps exactly at tol, and collinear sets make
    # chains whose least index sits at either end
    found = _single_linkage(points, tol)
    assert [c.tolist() for c in found] == chained_clusters(points, tol)


def random_ridge_field():
    """min of five random planes less a small paraboloid on [-1, 1]^2: its
    kinks meet in corners with three or more limiting gradients."""
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 2))
    b = 0.3 * rng.standard_normal(5)
    spec = GridSpec(box=[(-1.0, 1.0)] * 2, num=[41, 41], boundary="constant")
    return spec.build(lambda X: np.min(X @ A.T + b, axis=-1)
                      - 0.3 * np.sum(X * X, axis=-1))


def corner_field():
    spec = GridSpec(box=[(-1.0, 1.0), (-1.0, 1.0)], num=[41, 41],
                    boundary="constant")
    return spec.build(lambda x: -np.maximum(np.abs(x[..., 0]),
                                            np.abs(x[..., 1])))


def assert_filter_matches(u, x):
    h = float(u.spacing.max())
    lim = limiting_differentials(u, x, 3.0 * h)
    verts = _hull_vertices(lim)
    tol = max(1e-9, 1e-6 * (1.0 + pair_diameter(verts)))
    keep = np.array([boundary_distance(verts, c) <= tol for c in lim])
    S = superdifferential(u, x)
    assert np.array_equal(S.limiting, lim[keep])
    assert np.array_equal(S.vertices, verts)
    assert S.diameter == pair_diameter(verts)


def test_boundary_filter_matches_per_center_hulls(vee):
    assert_filter_matches(vee, np.array([0.0]))
    assert_filter_matches(corner_field(), np.zeros(2))
    u = random_ridge_field()
    points = singular_set(u).points
    assert len(points) > 20
    for x in points:
        assert_filter_matches(u, x)


@pytest.mark.parametrize("centers", [
    [[-1.0], [0.0], [1.0]],
    [[-1.0, -1.0], [-1.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, -1.0],
     [1.0, 1.0], [0.2, -0.3]],
])
def test_boundary_filter_drops_interior_centers(centers, monkeypatch):
    # stand-in limiting differentials: the interior centers must go, the
    # vertices and the edge midpoint (0, 1) stay
    centers = np.array(centers)
    n = centers.shape[1]
    monkeypatch.setattr(hjlax.regularity, "limiting_differentials",
                        lambda u, x, radius: centers)
    u = GridSpec(box=[(-1.0, 1.0)] * n, num=[21] * n).build(
        lambda X: -np.sum(X * X, axis=-1))
    verts = _hull_vertices(centers)
    keep = [boundary_distance(verts, c) <= 1e-6 * (1.0 + pair_diameter(verts))
            for c in centers]
    S = superdifferential(u, np.zeros(n))
    assert np.array_equal(S.limiting, centers[keep])
    assert len(S.limiting) == len(centers) - (1 if n == 1 else 2)


def dw_solution_81():
    L = mechanical_lagrangian(1, potential="double_well", coeff=-1.0,
                              shift=-0.25)
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    return solve_discounted(L, 0.5, grid, 0.05).u


@pytest.mark.parametrize("field", [
    "vee", "two_kinks", "double_well", "ridge_2d", "corner_2d"])
def test_singular_set_matches_superdifferential_rule(field, vee):
    u = {"vee": lambda: vee,
         "two_kinks": lambda: grid1d(lambda x: -np.abs(x[..., 0] - 0.5)
                                     - np.abs(x[..., 0] + 0.5)),
         "double_well": dw_solution_81,
         "ridge_2d": random_ridge_field,
         "corner_2d": corner_field}[field]()
    sing = singular_set(u)
    assert sing.indices == singular_indices(u)
    assert len(sing.indices) > 0


def semiconcavity_by_kink_loop(u, region=None):
    """semiconcavity_constant with the chord-to-kink distances measured one
    singular point at a time."""
    singular = singular_set(u)
    nodes = u.nodes().reshape(u.values.shape + (u.dim,))
    inside = np.ones(u.values.shape, dtype=bool)
    if region is not None:
        box = np.atleast_2d(np.asarray(region, dtype=float))
        gap = np.abs(u.nearest_image(nodes - box.mean(axis=1)))
        inside = np.all(gap <= (box[:, 1] - box[:, 0]) / 2.0 * (1.0 + 1e-9),
                        axis=-1)
    best = 0.0
    for key in itertools.product(range(-2, 3), repeat=u.dim):
        k = np.array(key)
        if not k.any():
            continue
        z = k * u.spacing
        with np.errstate(invalid="ignore"):
            ratio = (np.abs(u.shifted(k) + u.shifted(-k) - 2.0 * u.values)
                     / float(z @ z))
        kept = np.isfinite(ratio) & inside
        flat_x = nodes.reshape(-1, u.dim)
        d = np.full(len(flat_x), np.inf)
        for p in singular.points:
            rel = u.nearest_image(p[None, :] - flat_x)
            s = np.clip((rel * z).sum(axis=1) / float(z @ z), -1.0, 1.0)
            d = np.minimum(d, np.linalg.norm(rel - s[:, None] * z, axis=1))
        kept &= (d > 0.51 * float(u.spacing.max())).reshape(ratio.shape)
        if kept.any():
            best = max(best, float(ratio[kept].max()))
    return best


def test_semiconcavity_constant_matches_kink_loop():
    two = grid1d(lambda x: -np.abs(x[..., 0] - 0.5) - np.abs(x[..., 0] + 0.5)
                 - 0.3 * x[..., 0] ** 2)
    seam, ridge = seam_parabola(40), random_ridge_field()
    for u, region in ((two, two.box), (two, np.array([[-1.0, 0.2]])),
                      (seam, seam.box), (ridge, ridge.box)):
        assert len(singular_set(u).points) > 0
        assert semiconcavity_constant(u, region) == \
            semiconcavity_by_kink_loop(u, region)


def test_semiconcavity_constant_quadratic_exact():
    u = grid1d(lambda x: -0.65 * x[..., 0] ** 2)
    c2 = semiconcavity_constant(u, u.box)
    assert abs(c2 - 1.3) < 1e-9


def test_semiconcavity_constant_linear_is_zero():
    u = grid1d(lambda x: 0.4 * x[..., 0] - 0.1)
    assert semiconcavity_constant(u, u.box) < 1e-10


def test_semiconcavity_kink_bucket_masked(vee):
    h = float(vee.spacing.max())
    assert semiconcavity_constant(vee, vee.box) < 1e-10
    # the chords through the kink, which the constant masks, read 2/h
    ratio = np.abs(vee.shifted([1]) + vee.shifted([-1]) - 2.0 * vee.values) / h**2
    unmasked = float(ratio[np.isfinite(ratio)].max())
    assert abs(unmasked - 2.0 / h) < 1.0


def test_semiconcavity_region_restriction():
    u = grid1d(lambda x: np.where(x[..., 0] > 0.0,
                                  -1.9 * x[..., 0] ** 2,
                                  -0.2 * x[..., 0] ** 2))
    left = semiconcavity_constant(u, region=np.array([[-1.5, -0.5]]))
    both = semiconcavity_constant(u, region=np.array([[-1.5, 1.5]]))
    assert abs(left - 0.4) < 1e-6
    assert both > 3.0


def test_superdiff_deterministic(vee):
    a = superdifferential(vee, np.array([0.0]))
    b = superdifferential(vee, np.array([0.0]))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.limiting, b.limiting)
    assert a.diameter == b.diameter


# ---------------------------------------------------------------------------
# periodic seam


def seam_parabola(num):
    """u = x^2 on the periodic [-1, 1): its only kink sits on the seam."""
    return grid1d(lambda X: X[..., 0] ** 2, num=num, lo=-1.0, hi=1.0,
                  boundary="periodic")


@pytest.mark.parametrize("num", [40, 80])
def test_semiconcavity_constant_across_the_seam(num):
    # the same profile with its kink moved to x = 0, inside the box
    interior = grid1d(lambda X: (np.abs(X[..., 0]) - 1.0) ** 2, num=num,
                      lo=-1.0, hi=1.0, boundary="periodic")
    expect = semiconcavity_constant(interior, interior.box)
    assert expect == pytest.approx(2.0, abs=1e-9)
    seam = seam_parabola(num)
    assert semiconcavity_constant(seam, seam.box) == pytest.approx(
        expect, abs=1e-9)


def test_singular_set_membership_across_the_seam():
    sing = singular_set(seam_parabola(40))
    assert sing.points.ravel().tolist() == [-1.0]
    # both lie 0.001 from the kink, on either side of the seam
    assert sing.contains(np.array([0.999]))
    assert sing.contains(np.array([-1.001]))
