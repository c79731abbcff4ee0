"""Discounted-equation solver: fixed points, contraction, evolution lift."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjlax as hj
import hjlax.discounted
from hjlax.discounted import (_HEAD, _interp_gradient, _make_stage, _objective,
                              _polish, _scan_table, _step, _velocity_lattice,
                              discounted_step, lift_to_evolution,
                              solve_discounted)
from hjlax.errors import BoxExhausted, ConfigError, NonConvergence
from hjlax.gridfn import GridSpec
from hjlax.lagrangian import discount_lift, hamiltonian_for, mechanical_lagrangian

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


def test_contraction_factor_measured_2d():
    # the bench's 2d request: a 21x21 periodic cos grid (measured -1.3e-4)
    L = mechanical_lagrangian(dim=2, potential="cos", coeff=1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)] * 2, num=[21, 21], boundary="periodic")
    sol = solve_discounted(L, 2.0, grid, dt=0.05)
    assert abs(sol.measured_contraction / sol.contraction_factor - 1.0) <= 0.01


def test_contraction_factor_bounded_on_double_well(dw_sol):
    # orbit mixing keeps the double well's head ratios near 0.86 beta
    # (measured -0.135 relative); a monotone scheme never exceeds beta
    _, sol = dw_sol
    assert np.isfinite(sol.measured_contraction)
    assert sol.measured_contraction <= sol.contraction_factor * (1.0 + 1e-9)


def test_head_window_holds_four_ratios():
    # the later half of the head, ratios head[i+1]/head[i] for i >= _HEAD//2;
    # fewer than four would make measured_contraction nan
    assert _HEAD - 1 - _HEAD // 2 >= 4


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
        # guard against an exploding foot lattice: slope 1 on spacing 1e-6
        steep = GridSpec(box=[(0.0, 1e-6)], num=[2]).build(lambda p: p[:, 0] * 1e6)
        discounted_step(L, LAM, steep, 0.05)
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
    # value iteration needed 363 (cos) and 294 (double well) steps here;
    # policy iteration after a head of 10 sweeps takes 16 in both cases
    L = mechanical_lagrangian(dim=1, potential=potential, coeff=coeff,
                              shift=shift)
    calls = counted_steps(monkeypatch)
    sol = solve_discounted(L, LAM, GridSpec(box=[box], num=[num],
                                            boundary=boundary), dt=0.05)
    assert len(calls) == sol.iterations
    assert _HEAD < sol.iterations <= _HEAD + 10
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
    assert np.array_equal(P @ u.values.ravel(), u(feet))


def test_scan_table_is_built_once_per_lattice(monkeypatch):
    # the bench's 2d request: a 21x21 periodic cos grid
    L = mechanical_lagrangian(dim=2, potential="cos", coeff=1.0)
    grid = GridSpec(box=[(-np.pi, np.pi)] * 2, num=[21, 21], boundary="periodic")
    step = hjlax.discounted._step

    def rebuilt(L, u, x, st, offsets_v, table, v_warm):
        return step(L, u, x, st, offsets_v,
                    _scan_table(L, u, x, st, offsets_v), v_warm)

    monkeypatch.setattr(hjlax.discounted, "_step", rebuilt)
    fresh = solve_discounted(L, 2.0, grid, dt=0.05)
    monkeypatch.setattr(hjlax.discounted, "_step", step)

    lattices, tables = [], []
    lattice = hjlax.discounted._velocity_lattice

    def recorded(*args):
        lattices.append(lattice(*args))
        return lattices[-1]

    def counted(L, u, x, st, offsets_v):
        tables.append(offsets_v)
        return _scan_table(L, u, x, st, offsets_v)

    monkeypatch.setattr(hjlax.discounted, "_velocity_lattice", recorded)
    monkeypatch.setattr(hjlax.discounted, "_scan_table", counted)
    cached = solve_discounted(L, 2.0, grid, dt=0.05)
    changes = [a for a, b in zip(lattices, [None] + lattices)
               if b is None or not np.array_equal(a, b)]
    # the lattice is recomputed more often than it changes
    assert len(tables) == len(changes) < len(lattices) <= cached.iterations
    assert all(a is b for a, b in zip(tables, changes))
    assert cached.metadata() == fresh.metadata()
    assert np.array_equal(cached.u.values, fresh.u.values)
    assert np.array_equal(cached.diff_mask, fresh.diff_mask)


def _sequential_polish(L, u, x, v0, stage, iters=40):
    """The Bellman polish as one loop per halving: at every node, the first
    alpha in 1, 1/2, ..., 1/128 that decreases the objective.  Also returns
    how many rounds left some node without a decrease while others moved,
    and how many steps took an alpha < 1."""
    v = np.array(v0, dtype=float)
    m, feet = _objective(L, u, x, v, stage)
    delta = 1e-5 * u.spacing
    stalled = short = 0
    for _ in range(iters):
        sgrad, hess = stage.cost_grad_v(L, x, v)
        grad = sgrad - stage.beta * stage.dt * _interp_gradient(u, feet, delta)
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(v))):
            break
        alpha = np.ones(len(v))
        done = np.zeros(len(v), dtype=bool)
        for k in range(8):
            vt = v.copy()
            vt[~done] = v[~done] - alpha[~done, None] * step[~done]
            mt, ft = _objective(L, u, x, vt, stage)
            better = ~done & (mt <= m - 1e-15 * (1.0 + np.abs(m)))
            v[better], m[better], feet[better] = vt[better], mt[better], ft[better]
            short += int(better.sum()) if k else 0
            done |= better
            alpha[~done] *= 0.5
        if not done.any():
            break
        stalled += int(not done.all())
    return v, m, stalled, short


def _case(name):
    if name == "cos128":
        L = mechanical_lagrangian(dim=1, potential="cos", coeff=1.0)
        grid, lam, dt = GridSpec(box=[(-np.pi, np.pi)], num=[128],
                                 boundary="periodic"), 0.5, 0.05
    elif name == "cos21x21":
        L = mechanical_lagrangian(dim=2, potential="cos", coeff=1.0)
        grid, lam, dt = GridSpec(box=[(-np.pi, np.pi)] * 2, num=[21, 21],
                                 boundary="periodic"), 2.0, 0.05
    else:
        L = mechanical_lagrangian(dim=1, potential="double_well", coeff=-1.0,
                                  shift=-0.25)
        grid, lam, dt = GridSpec(box=[(-2.0, 2.0)], num=[41]), LAM, 0.1
    u = grid.build(lambda p: np.sum(np.sin(1.3 * p) + 0.3 * np.cos(2.0 * p),
                                    axis=-1))
    return L, u, lam, dt


@pytest.mark.parametrize("name", ["cos128", "cos21x21", "double_well41"])
def test_polish_matches_sequential_backtracking(name):
    # one Bellman step gives a warm start, as in policy iteration; the
    # next step polishes it on the updated field
    L, u, lam, dt = _case(name)
    stage = _make_stage(lam, dt)
    x = u.nodes()
    lattice = _velocity_lattice(hamiltonian_for(L), u, x, stage, u.lipschitz())
    vals, v_warm, _ = _step(L, u, x, stage, lattice,
                            _scan_table(L, u, x, stage, lattice), None)
    u1 = u.with_values(vals.reshape(u.values.shape))
    v, m = _polish(L, u1, x, v_warm, _objective(L, u1, x, v_warm, stage)[0], stage)
    v_ref, m_ref, stalled, short = _sequential_polish(L, u1, x, v_warm, stage)
    assert np.array_equal(v, v_ref) and np.array_equal(m, m_ref)
    # both paths run: a node froze before the last round, and a step
    # accepted a halved trial
    assert stalled > 0 and short > 0


@pytest.mark.parametrize("name", ["cos128", "cos21x21", "double_well41"])
def test_scan_table_rows_match_the_objective(name):
    # row j of the scan is the Bellman objective at lattice velocity v_j
    L, u, lam, dt = _case(name)
    stage = _make_stage(lam, dt)
    x = u.nodes()
    lattice = _velocity_lattice(hamiltonian_for(L), u, x, stage, u.lipschitz())
    cost, P = _scan_table(L, u, x, stage, lattice)
    scan = cost + stage.beta * (P @ u.values.ravel()).reshape(cost.shape)
    assert scan.shape == (len(lattice), len(x))
    for j, v in enumerate(lattice):
        want, _ = _objective(L, u, x, np.broadcast_to(v, x.shape), stage)
        assert np.array_equal(scan[j], want)


def _looped_cost(stage, L, x, v):
    out = 0.0
    for sj, wj in zip(stage.s, stage.w):
        out = out + wj * np.asarray(L.eval(0.0, x - sj * v, v))
    return out


def _looped_cost_grad_v(stage, L, x, v):
    grad = hess = 0.0
    for sj, wj in zip(stage.s, stage.w):
        pos = x - sj * v
        grad = grad + wj * (np.asarray(L.grad_v(0.0, pos, v))
                            - sj * np.asarray(L.grad_x(0.0, pos, v)))
        hess = hess + wj * np.asarray(L.hess_vv(0.0, pos, v))
    return grad, hess


def _looped_interp_gradient(u, pts, delta):
    g = np.empty_like(pts)
    for a in range(pts.shape[-1]):
        e = np.zeros(pts.shape[-1])
        e[a] = delta[a]
        g[..., a] = (u(pts + e) - u(pts - e)) / (2.0 * delta[a])
    return g


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", ["constant", "periodic"])
@pytest.mark.parametrize("lead", [(37,), (5, 37)])
def test_stacked_quadratures_match_per_sample_loops(dim, boundary, lead):
    rng = np.random.default_rng(dim + 10 * len(lead))
    L = mechanical_lagrangian(dim=dim, potential="cos", coeff=0.8)
    u = GridSpec(box=[(-2.0, 2.0)] * dim, num=[13] * dim,
                 boundary=boundary).build(lambda p: np.cos(2.0 * p).sum(axis=-1))
    stage = _make_stage(1.5, 0.05)
    x = rng.uniform(-2.5, 2.5, lead + (dim,))
    v = rng.normal(scale=3.0, size=lead + (dim,))
    assert np.array_equal(stage.cost(L, x, v), _looped_cost(stage, L, x, v))
    for got, want in zip(stage.cost_grad_v(L, x, v),
                         _looped_cost_grad_v(stage, L, x, v)):
        assert np.array_equal(got, want)
    delta = 1e-5 * u.spacing
    assert np.array_equal(_interp_gradient(u, x, delta),
                          _looped_interp_gradient(u, x, delta))


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
