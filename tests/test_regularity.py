"""Superdifferential estimation, H-minimization over hulls, singular sets."""

import json

import numpy as np
import pytest

from hjlax import (ConfigError, GridSpec, InsufficientSamples, NonConvergence,
                   NotSemiconcave, brute_force_H_min, limiting_differentials,
                   min_H_over_superdiff, semiconcavity_constant, singular_set,
                   superdifferential)
from hjlax.lagrangian import Hamiltonian
from hjlax.regularity import (SuperdiffSet, _hull_vertices,
                              grid_classification)


def grid1d(fn, num=161, lo=-2.0, hi=2.0, boundary="constant"):
    return GridSpec(box=[(lo, hi)], num=[num], boundary=boundary).build(fn)


def quad_ham(center):
    c = np.asarray(center, dtype=float)
    return Hamiltonian(
        dim=len(c),
        eval=lambda t, x, p: 0.5 * np.sum((p - c) ** 2, axis=-1),
        grad_p=lambda t, x, p: p - c,
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


def test_superdiff_serializes_to_json(vee):
    S = superdifferential(vee, np.array([0.0]))
    blob = json.dumps(S.as_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["point"] == [0.0]
    assert back["diameter"] == S.diameter
    assert len(back["vertices"]) == 2


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
    qb, vb = brute_force_H_min(H, 0.0, np.zeros(2), square_set, step=1e-3)
    assert np.abs(q - qb).max() < 1e-6
    assert abs(val - vb) < 1e-6


def test_min_H_face_and_vertex_cases(square_set):
    # projection lands mid-face
    H = quad_ham([0.3, 1.7])
    q, val = min_H_over_superdiff(H, 0.0, np.zeros(2), square_set)
    np.testing.assert_allclose(q, [0.3, 1.0], atol=1e-7)
    qb, vb = brute_force_H_min(H, 0.0, np.zeros(2), square_set, step=1e-3)
    assert np.abs(q - qb).max() < 1e-6
    assert abs(val - vb) < 1e-6
    # projection lands on a vertex
    H = quad_ham([2.5, 2.0])
    q, _ = min_H_over_superdiff(H, 0.0, np.zeros(2), square_set)
    np.testing.assert_allclose(q, [1.0, 1.0], atol=1e-9)


def test_min_H_1d_brute_force_agrees(vee):
    S = superdifferential(vee, np.array([0.0]))
    for center in (0.0, 0.37, 2.0, -1.4):
        H = quad_ham([center])
        q, val = min_H_over_superdiff(H, 0.0, np.array([0.0]), S)
        qb, vb = brute_force_H_min(H, 0.0, np.array([0.0]), S, step=1e-3)
        assert abs(q[0] - qb[0]) < 1e-6
        assert abs(val - vb) < 1e-6


def test_min_H_iteration_budget_enforced(vee):
    S = superdifferential(vee, np.array([0.0]))
    with pytest.raises(NonConvergence):
        min_H_over_superdiff(quad_ham([0.37]), 0.0, np.array([0.0]), S,
                             max_iter=0)


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


def test_singular_set_csv_export(tmp_path, vee):
    path = tmp_path / "sing.csv"
    singular_set(vee).to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i1,x1"
    assert lines[1].startswith("80,")


def test_semiconcavity_constant_quadratic_exact():
    u = grid1d(lambda x: -0.65 * x[..., 0] ** 2)
    c2 = semiconcavity_constant(u, exclude_singular=False)
    assert abs(c2 - 1.3) < 1e-9


def test_semiconcavity_constant_linear_is_zero():
    u = grid1d(lambda x: 0.4 * x[..., 0] - 0.1)
    assert semiconcavity_constant(u, exclude_singular=False) < 1e-10


def test_semiconcavity_kink_bucket_masked(vee):
    h = float(vee.spacing.max())
    c2, excluded = semiconcavity_constant(vee, with_excluded=True)
    assert c2 < 1e-10
    assert abs(excluded - 2.0 / h) < 1.0
    unmasked = semiconcavity_constant(vee, exclude_singular=False)
    assert abs(unmasked - 2.0 / h) < 1.0


def test_semiconcavity_region_restriction():
    u = grid1d(lambda x: np.where(x[..., 0] > 0.0,
                                  -1.9 * x[..., 0] ** 2,
                                  -0.2 * x[..., 0] ** 2))
    left = semiconcavity_constant(u, region=np.array([[-1.5, -0.5]]),
                                  exclude_singular=False)
    both = semiconcavity_constant(u, region=np.array([[-1.5, 1.5]]),
                                  exclude_singular=False)
    assert abs(left - 0.4) < 1e-6
    assert both > 3.0


def test_superdiff_deterministic(vee):
    a = superdifferential(vee, np.array([0.0]))
    b = superdifferential(vee, np.array([0.0]))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.limiting, b.limiting)
    assert a.diameter == b.diameter
