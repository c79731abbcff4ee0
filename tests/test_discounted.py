"""Discounted-equation solver: fixed points, contraction, evolution lift."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjlax as hj
import hjlax.discounted
from hjlax.discounted import (_HEAD, discounted_step, lift_to_evolution,
                              solve_discounted)
from hjlax.errors import BoxExhausted, ConfigError, NonConvergence
from hjlax.gridfn import GridSpec
from hjlax.lagrangian import discount_lift, mechanical_lagrangian

LAM = 0.5


def const_lagrangian(a):
    # L = v^2/2 + a via a zero-amplitude potential with shift -a
    return mechanical_lagrangian(dim=1, potential="cos", coeff=0.0, shift=-a)


@pytest.fixture(scope="module")
def cos_sol():
    L = mechanical_lagrangian(dim=1, potential="cos", coeff=-1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)], num=[512], boundary="periodic")
    return L, solve_discounted(L, LAM, grid, dt=0.05, tol_fp=1e-9)


@pytest.fixture(scope="module")
def dw_sol():
    L = mechanical_lagrangian(dim=1, potential="double_well", coeff=-1.0,
                              shift=-0.25)
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    return L, solve_discounted(L, LAM, grid, dt=0.05, tol_fp=1e-10)


def test_constant_solution_exact():
    a = 0.7
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    sol = solve_discounted(const_lagrangian(a), LAM, grid, dt=0.05)
    assert np.abs(sol.u.values - a / LAM).max() <= 1e-14
    assert sol.residual <= 1e-14
    # the field is a genuine fixed point of the one-step operator
    again = discounted_step(const_lagrangian(a), LAM, sol.u, 0.05)
    assert np.abs(again.values - sol.u.values).max() <= 1e-12


def test_constant_shift_property():
    a, c = 0.7, 0.31
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    s1 = solve_discounted(const_lagrangian(a), LAM, grid, dt=0.05)
    s2 = solve_discounted(const_lagrangian(a + c), LAM, grid, dt=0.05)
    assert np.abs((s2.u.values - s1.u.values) - c / LAM).max() <= 1e-13


def test_cos_grid_refinement(cos_sol):
    L, fine = cos_sol
    coarse = solve_discounted(
        L, LAM, GridSpec(box=[(-np.pi, np.pi)], num=[128], boundary="periodic"),
        dt=0.05, tol_fp=1e-9)
    diff = np.abs(coarse.u.values - fine.u(coarse.u.nodes())).max()
    assert diff <= 8e-3          # measured 5.2e-3, interpolation-limited


def test_contraction_factor_measured(cos_sol):
    _, sol = cos_sol
    assert abs(sol.measured_contraction / sol.contraction_factor - 1.0) <= 0.01


def test_fixed_point_defect_bound(cos_sol):
    _, sol = cos_sol
    assert sol.fp_defect <= (1.0 - sol.contraction_factor) * 1e-9 * (1 + 1e-9)


def test_pairwise_contraction_and_monotonicity():
    L = mechanical_lagrangian(dim=1, potential="cos", coeff=-1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)], num=[64], boundary="periodic")
    base = grid.build(lambda p: np.cos(p[:, 0]))
    rng = np.random.default_rng(7)
    beta = np.exp(-LAM * 0.1)
    for _ in range(5):
        u = base.with_values(rng.normal(size=base.values.shape))
        w = base.with_values(rng.normal(size=base.values.shape))
        tu = discounted_step(L, LAM, u, 0.1)
        tw = discounted_step(L, LAM, w, 0.1)
        gap = np.abs(tu.values - tw.values).max()
        assert gap <= beta * np.abs(u.values - w.values).max() + 1e-12
        # monotonicity: lifting w above u lifts the image
        above = w.with_values(np.maximum(u.values, w.values) + 0.0)
        t_above = discounted_step(L, LAM, above, 0.1)
        assert np.all(t_above.values >= tu.values - 1e-12)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bellman_step_laws_on_random_semiconcave_fields(data):
    # order (u <= w => T u <= T w) and constants (T(u + c) = T u + beta c,
    # beta = e^{-lam dt}) for discounted_step, on fields that are minima of
    # shifted cosines (semiconcave) and those plus a nonnegative cosine bump.
    # Exactly, T u(x) = min_v cost(x, v) + beta u_I(x - dt v) with u_I the
    # periodic linear interpolant and cost(x, v) = sum_j w_j L(x - s_j v, v).
    # The computed value is that objective at the velocity returned, so it
    # is >= T u.  The Newton polish starts from the best lattice velocity,
    # whose feet are grid nodes, and only accepts decreases; the corners of
    # the cell holding the exact foot bound the lattice minimum by
    # T u + K h^2 / 8, with K the curvature of y -> cost(x, (x - y) / dt).
    # For L = v^2/2 + cos x, |V''| <= 1, s_j <= dt and sum_j w_j =
    # (1 - beta) / lam give K <= (1 - beta) / lam * (1 + dt^2) / dt^2.  So
    # every computed value lies in [T u, T u + K h^2 / 8].
    L = mechanical_lagrangian(dim=1, potential="cos", coeff=-1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)], num=[64], boundary="periodic")
    dt = 0.1
    amps = data.draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3))
    phases = data.draw(st.lists(st.floats(-np.pi, np.pi),
                                min_size=len(amps), max_size=len(amps)))
    lift, shift = data.draw(st.floats(0.0, 1.0)), data.draw(
        st.floats(-np.pi, np.pi))
    c = data.draw(st.floats(-5.0, 5.0))
    u = grid.build(lambda X: np.min([a * np.cos(X[..., 0] - ph)
                                     for a, ph in zip(amps, phases)], axis=0))
    w = u.with_values(u.values + lift * (1.0 + np.cos(u.nodes()[:, 0] - shift)))

    beta = np.exp(-LAM * dt)
    tol = ((1.0 - beta) / LAM * (1.0 + dt ** 2) / dt ** 2
           * float(u.spacing[0]) ** 2 / 8.0 + 1e-12)
    tu = discounted_step(L, LAM, u, dt).values
    tw = discounted_step(L, LAM, w, dt).values
    tc = discounted_step(L, LAM, u.with_values(u.values + c), dt).values
    assert np.all(tw >= tu - tol)
    assert np.abs(tc - (tu + beta * c)).max() <= tol


def test_residual_consistency_under_refinement(cos_sol):
    L, fine = cos_sol
    coarse = solve_discounted(
        L, LAM, GridSpec(box=[(-np.pi, np.pi)], num=[128], boundary="periodic"),
        dt=0.1, tol_fp=1e-9)
    c_coarse = coarse.residual / (0.1 + coarse.u.spacing[0])
    c_fine = fine.residual / (0.05 + fine.u.spacing[0])
    assert fine.residual <= coarse.residual
    assert c_fine <= 1.5 * c_coarse
    assert coarse.residual <= coarse.residual_tol
    assert fine.residual <= fine.residual_tol


def test_diff_mask_flags_the_kink(dw_sol):
    _, sol = dw_sol
    mask = sol.diff_mask
    n = mask.size
    # the 5-point stencils of the two rim nodes per side reach past the box;
    # the ridge kink sits at the center node
    assert not mask[:2].any() and not mask[n - 2:].any() and not mask[n // 2]
    assert mask.sum() == n - 5
    assert sol.residual <= sol.residual_tol


def test_diff_mask_flags_the_kink_on_a_coarse_grid():
    # 41 nodes: the ridge's slope jump (0.80) sits below six times the
    # median jump (0.82), so a median rule would call the kink smooth
    L = mechanical_lagrangian(dim=1, potential="double_well", coeff=-1.0,
                              shift=-0.25)
    grid = GridSpec(box=[(-2.0, 2.0)], num=[41], boundary="constant")
    sol = solve_discounted(L, LAM, grid, dt=0.05)
    center = sol.u.nearest_node(np.array([0.0]))
    assert not sol.diff_mask[center]


def test_validation_errors(monkeypatch):
    L = mechanical_lagrangian(dim=1, potential="cos", coeff=-1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)], num=[64], boundary="periodic")
    with pytest.raises(ConfigError):
        solve_discounted(L, 0.0, grid, dt=0.05)
    with pytest.raises(ConfigError):
        solve_discounted(L, LAM, grid, dt=0.0)
    lifted = discount_lift(L, 1.0, horizon=1.0)
    with pytest.raises(ConfigError):
        solve_discounted(lifted, LAM, grid, dt=0.05)
    with pytest.raises(ConfigError):
        # guard against an exploding foot lattice
        from hjlax.discounted import _velocity_lattice
        _velocity_lattice(np.array([1e-6]), 0.05, np.array([2.0]))
    monkeypatch.setattr(hjlax.discounted, "_MAX_ITER", 5)
    with pytest.raises(hj.NonConvergence):
        solve_discounted(L, LAM, grid, dt=0.05)


def counted_steps(monkeypatch):
    calls = []
    step = hjlax.discounted._step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(hjlax.discounted, "_step", counted)
    return calls


@pytest.mark.parametrize("potential, coeff, shift, box, num, boundary", [
    ("cos", 1.0, 0.0, (-np.pi, np.pi), 256, "periodic"),
    ("double_well", -1.0, -0.25, (-2.0, 2.0), 81, "constant"),
], ids=["cos_criterion_07", "double_well"])
def test_policy_iteration_step_count(monkeypatch, potential, coeff, shift,
                                     box, num, boundary):
    # value iteration needed 363 (cos) and 294 (double well) steps here
    L = mechanical_lagrangian(dim=1, potential=potential, coeff=coeff,
                              shift=shift)
    calls = counted_steps(monkeypatch)
    sol = solve_discounted(L, LAM, GridSpec(box=[box], num=[num],
                                            boundary=boundary), dt=0.05)
    assert len(calls) == sol.iterations
    assert _HEAD < sol.iterations <= 40
    assert sol.fp_defect <= (1.0 - sol.contraction_factor) * 1e-10


def test_iteration_cap_counts_policy_steps(monkeypatch):
    L = mechanical_lagrangian(dim=1, potential="cos", coeff=-1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)], num=[64], boundary="periodic")
    calls = counted_steps(monkeypatch)
    monkeypatch.setattr(hjlax.discounted, "_MAX_ITER", _HEAD + 2)
    with pytest.raises(NonConvergence):
        solve_discounted(L, LAM, grid, dt=0.05)
    assert len(calls) == _HEAD + 2


def test_policy_iteration_matches_value_iteration():
    L = mechanical_lagrangian(dim=1, potential="cos", coeff=-1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)], num=[64], boundary="periodic")
    dt, tol_fp = 0.1, 1e-10
    sol = solve_discounted(L, LAM, grid, dt=dt, tol_fp=tol_fp)
    u = grid.build(lambda p: np.zeros(len(p)))
    while True:
        nxt = discounted_step(L, LAM, u, dt)
        update = float(np.abs(nxt.values - u.values).max())
        u = nxt
        if update < 1e-12:
            break
    # Both approximate the fixed point u* of the same grid operator T, a
    # beta-contraction (beta = e^{-lam dt}).  Value iteration stops after an
    # update below 1e-12, so |u - u*| <= beta / (1 - beta) * 1e-12.  The
    # solver returns T w for a w with |T w - w| <= tol_fp (1 - beta), so
    # |w - u*| <= tol_fp and |T w - u*| <= beta tol_fp.
    beta = np.exp(-LAM * dt)
    tol = beta * tol_fp + beta / (1.0 - beta) * 1e-12
    assert np.abs(u.values - sol.u.values).max() <= tol


@pytest.mark.parametrize("box, num, boundary, reach", [
    ([(-np.pi, np.pi)] * 2, [9, 7], "periodic", 10.0),
    ([(-1.0, 1.0), (0.0, 2.0)], [6, 8], "constant", 1.5),
], ids=["periodic_2d", "constant_clamped"])
def test_foot_matrix_reproduces_interpolation(box, num, boundary, reach):
    rng = np.random.default_rng(3)
    u = GridSpec(box=box, num=num, boundary=boundary).build(
        lambda p: rng.normal(size=len(p)))
    lo, hi = np.array(box).T
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    # feet up to `reach` half-widths from the center: the periodic grid
    # wraps them, and the constant grid clamps those outside the box
    feet = mid + reach * half * rng.uniform(-1.0, 1.0, size=(500, 2))
    if boundary == "constant":
        assert np.any(np.abs(feet - mid) > half)
    P = u.foot_matrix(feet)
    assert P.shape == (500, u.values.size)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.abs(P @ u.values.ravel() - u(feet)).max() <= 1e-15


def test_lattice_scan_blocks_are_bit_identical(monkeypatch):
    L = mechanical_lagrangian(dim=2, potential="cos", coeff=1.0)
    u = GridSpec(box=[(-np.pi, np.pi)] * 2, num=[21, 21],
                 boundary="periodic").build(
        lambda p: np.cos(p[:, 0]) * np.sin(p[:, 1]))
    whole = discounted_step(L, 2.0, u, 0.05)
    # a few nodes per block, with a ragged last block
    monkeypatch.setattr(hjlax.discounted, "_SCAN_FEET", 1000)
    blocked = discounted_step(L, 2.0, u, 0.05)
    assert np.array_equal(whole.values, blocked.values)


def test_legendre_fallback_residual_matches_closed_form_dual(double_well):
    # the residual evaluates H at the mask nodes only, so the Newton-backed
    # dual never sees the +-inf central gradients of the box's rims
    grid = GridSpec(box=[(-2.0, 2.0)], num=[41], boundary="constant")
    closed = solve_discounted(double_well, LAM, grid, dt=0.05)
    fallback = solve_discounted(
        dataclasses.replace(double_well, hamiltonian=None), LAM, grid, dt=0.05)
    assert np.isfinite(closed.residual)
    assert fallback.residual == pytest.approx(closed.residual, abs=1e-12)


def test_box_exhausted_for_outward_drift():
    # reversing the double-well sign rewards running toward the box edge
    L = mechanical_lagrangian(dim=1, potential="double_well", coeff=1.0)
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    with pytest.raises(BoxExhausted):
        solve_discounted(L, LAM, grid, dt=0.05, tol_fp=1e-8)


def test_lift_to_evolution(dw_sol):
    _, sol = dw_sol
    t0 = lift_to_evolution(sol, 0.0)
    assert np.array_equal(t0.values, sol.u.values)
    tln2 = lift_to_evolution(sol, np.log(2.0) / LAM)
    assert np.abs(tln2.values - 2.0 * sol.u.values).max() <= 1e-12


def test_metadata_serializable(tmp_path, dw_sol):
    _, sol = dw_sol
    path = tmp_path / "meta.json"
    hj.dump_json(sol.metadata(), str(path))
    meta = json.loads(path.read_text())
    assert meta["lambda"] == LAM and meta["dt"] == 0.05
    assert meta["iterations"] == sol.iterations
