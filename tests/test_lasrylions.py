"""Regularization sweeps, gradient limits, and singularity propagation."""
import json

import numpy as np
import pytest

import hjlax.action
from hjlax import (ConfigError, GridSpec, NonUniqueMaximizer, NotSingular,
                   action_values_batch, aitken_extrapolants,
                   convergence_sweep, default_probe_points, discount_lift,
                   dump_json, free_lagrangian, gradient_limit_vs_qx,
                   hamiltonian_for, intrinsic_regularize,
                   mechanical_lagrangian, singular_set, solve_discounted,
                   trace_singularity)
from hjlax.cli import _sweep_json
from hjlax.discounted import DiscountedSolution
from hjlax.lagrangian import GrowthRecord, TonelliLagrangian
from hjlax.lasrylions import _concavity_window, _gradient_quotient_bound
from hjlax.laxoleinik import _polish


def stub_solution(fn, lam=1e-8, num=161, box=(-2.0, 2.0), dt=0.05,
                  boundary="constant"):
    """Wrap a closed-form viscosity solution as a solved fixed point."""
    u = GridSpec(box=[box], num=[num], boundary=boundary).build(fn)
    return DiscountedSolution(
        lam=lam, u=u, residual=0.0, iterations=0, contraction_factor=1.0,
        dt=dt, fp_defect=0.0, measured_contraction=float("nan"),
        residual_tol=np.inf, diff_mask=np.ones_like(u.values, dtype=bool))


def drift_lagrangian(c=2.0):
    """L(v) = v^2/2 + c v, whose dual is H(p) = (p - c)^2 / 2."""

    def ev(t, x, v):
        v = np.asarray(v, float)
        return np.sum(v * v, axis=-1) / 2.0 + c * np.sum(v, axis=-1)

    def gv(t, x, v):
        return np.asarray(v, float) + c

    def gzero(t, x, v):
        return np.zeros(np.asarray(v, float).shape[:-1])

    def gx(t, x, v):
        return np.zeros_like(np.asarray(v, float))

    def hess(t, x, v):
        v = np.asarray(v, float)
        return np.broadcast_to(np.eye(v.shape[-1]), v.shape + (v.shape[-1],))

    growth = GrowthRecord(
        theta=lambda r: np.asarray(r, float) ** 2 / 4.0,
        theta_bar=lambda r: np.asarray(r, float) ** 2 / 2.0
        + c * np.asarray(r, float),
        c0=c * c, c=0.0)
    return TonelliLagrangian(dim=1, eval=ev, grad_t=gzero, grad_x=gx,
                             grad_v=gv, hess_vv=hess, growth=growth,
                             time_window=(-100.0, 100.0), key="custom",
                             params={"drift": c})


def tilted_double_well(eps=0.2):
    """Double-well running cost with a bounded odd tilt breaking symmetry."""
    base = mechanical_lagrangian(1, potential="double_well", coeff=-1.0,
                                 shift=-0.25)

    def ev(t, x, v):
        tilt = eps * np.sum(np.tanh(np.asarray(x, float)), axis=-1)
        return base.eval(t, x, v) + tilt

    def gx(t, x, v):
        x = np.asarray(x, float)
        return base.grad_x(t, x, v) + eps / np.cosh(x) ** 2

    growth = GrowthRecord(theta=base.growth.theta,
                          theta_bar=lambda r: base.growth.theta_bar(r) + eps,
                          c0=base.growth.c0 + eps, c=base.growth.c)
    return TonelliLagrangian(dim=1, eval=ev, grad_t=base.grad_t, grad_x=gx,
                             grad_v=base.grad_v, hess_vv=base.hess_vv,
                             growth=growth, time_window=base.time_window,
                             key="custom", params={"eps": eps})


@pytest.fixture(scope="module")
def dw():
    L = mechanical_lagrangian(1, potential="double_well", coeff=-1.0,
                              shift=-0.25)
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    return L, solve_discounted(L, 0.5, grid, 0.05)


@pytest.fixture(scope="module")
def dw_sweep(dw):
    L, sol = dw
    t_grid = 0.1 * 2.0 ** (-np.arange(5, dtype=float))
    return convergence_sweep(sol, L, t_grid=t_grid, seed=0)


@pytest.fixture(scope="module")
def vee():
    return stub_solution(lambda x: -np.abs(x[..., 0]))


def test_polish_of_a_cell_at_its_maximum_is_not_noted(dw):
    # regularize_dw's solution at x = -1.6, t = 0.2: alone in its run, the
    # cell over nodes 3 and 4, started at node 4, makes L-BFGS-B stop
    # ABNORMAL after 2 iterations at y = -1.81032, where its projected
    # gradient is -1.6e-8: the cell is at its maximum
    L, sol = dw
    lifted = discount_lift(L, sol.lam, horizon=0.2)
    notes = []
    y, _ = _polish(lifted, sol.u, 0.0, 0.2, np.array([[-1.6]]),
                   sol.u.node_point((4,))[None, :], np.array([[3]]), 1, notes)
    assert y[0, 0] == pytest.approx(-1.81032, abs=1e-5)
    assert notes == []


# ---------------------------------------------------------------------------
# intrinsic_regularize


def test_constant_field_is_fixed_by_regularization():
    sol = stub_solution(lambda x: 0.0 * x[..., 0] + 0.7, lam=1.0)
    rf = intrinsic_regularize(sol, free_lagrangian(1), 0.2,
                              probe_points=np.array([[0.5]]))
    assert rf.sup_error <= 1e-9
    assert np.abs(rf.probe_gradients).max() <= 1e-7
    assert np.abs(rf.probe_velocities).max() <= 1e-7


def test_small_discount_reproduces_moreau_envelope(vee):
    tau = 0.2
    rf = intrinsic_regularize(vee, free_lagrangian(1), tau,
                              probe_points=np.empty((0, 1)))
    x = vee.u.nodes()[:, 0]
    closed = np.where(np.abs(x) <= tau, -x ** 2 / (2.0 * tau),
                      -np.abs(x) + tau / 2.0)
    assert np.abs(rf.field.values - closed).max() <= 1e-8
    assert rf.sup_error == pytest.approx(tau / 2.0, abs=1e-8)


def test_value_dominance_via_diagonal_action(dw):
    L, sol = dw
    rf = intrinsic_regularize(sol, L, 0.05, probe_points=np.empty((0, 1)))
    # A_{0,t}(x, x) at every node, under the lift intrinsic_regularize uses
    lifted = discount_lift(L, sol.lam, horizon=max(0.05, sol.dt))
    nodes = sol.u.nodes()
    gap = action_values_batch(lifted, 0.0, 0.05, nodes, nodes).reshape(
        sol.u.values.shape)
    assert np.all(gap >= -1e-12)
    assert np.all(rf.field.values >= sol.u.values - gap - 1e-9)


def test_diagonal_action_vanishes_for_free_particle(vee):
    lifted = discount_lift(free_lagrangian(1), vee.lam, horizon=0.1)
    nodes = vee.u.nodes()
    gap = action_values_batch(lifted, 0.0, 0.1, nodes, nodes)
    assert np.abs(gap).max() <= 1e-10


def test_regularize_rejects_nonpositive_scale(vee):
    with pytest.raises(ConfigError):
        intrinsic_regularize(vee, free_lagrangian(1), 0.0,
                             probe_points=np.empty((0, 1)))


def test_two_bump_probe_raises_nonunique():
    # symmetric maximizers at +-t/(1+t), separated well over two spacings
    sol = stub_solution(lambda x: -0.5 * (np.abs(x[..., 0]) - 1.0) ** 2,
                        num=81)
    with pytest.raises(NonUniqueMaximizer):
        intrinsic_regularize(sol, free_lagrangian(1), 0.2,
                             probe_points=np.array([[0.0]]))


# ---------------------------------------------------------------------------
# Aitken acceleration


def test_aitken_is_exact_for_geometric_tails():
    k = np.arange(6, dtype=float)
    seq = 0.3 + 1.7 * 0.5 ** k
    ext = aitken_extrapolants(seq)
    assert ext.shape == (4,)
    assert np.abs(ext - 0.3).max() <= 1e-12

    vec = np.stack([seq, 2.0 - 0.9 * 0.25 ** k], axis=1)
    ext2 = aitken_extrapolants(vec)
    assert np.abs(ext2[-1] - np.array([0.3, 2.0])).max() <= 1e-12


def test_aitken_degenerate_inputs():
    assert aitken_extrapolants(np.array([1.0, 2.0]))[-1] == 2.0
    const = aitken_extrapolants(np.full(5, 0.4))
    assert np.all(const == 0.4)


# ---------------------------------------------------------------------------
# convergence sweeps


def test_free_kink_sweep_errors_follow_half_t(vee):
    sweep = convergence_sweep(vee, free_lagrangian(1),
                              t_grid=np.array([0.2, 0.1, 0.05]), seed=0,
                              probe_points=np.array([[-0.8], [0.9]]))
    assert np.abs(sweep.sup_errors - sweep.t_grid / 2.0).max() <= 1e-8
    # probes sit on linear pieces: the operator gradient is the local slope
    assert np.abs(sweep.gradient_limits - np.array([[1.0], [-1.0]])).max() \
        <= 1e-6


def test_default_probes_cover_singular_and_smooth_nodes(dw):
    _, sol = dw
    pts = default_probe_points(sol, seed=0)
    again = default_probe_points(sol, seed=0)
    assert np.array_equal(pts, again)
    assert pts.shape == (9, 1)
    assert pts[0, 0] == pytest.approx(0.0)
    h = float(sol.u.spacing.max())
    assert np.all(np.abs(pts[1:, 0]) >= 6.0 * h - 1e-12)
    assert np.all(np.abs(pts[1:, 0]) <= 1.6 + 1e-12)


def test_default_probes_keep_their_halo_across_the_seam():
    # x^2 on the periodic [-1, 1) has its one kink on the seam x = -1 = 1
    sol = stub_solution(lambda X: X[..., 0] ** 2, num=40, box=(-1.0, 1.0),
                        boundary="periodic")
    h = float(sol.u.spacing.max())
    for seed in range(50):
        pts = default_probe_points(sol, seed=seed)
        assert pts[0, 0] == -1.0
        dist = np.abs(pts[1:, 0] + 1.0)
        assert np.all(np.minimum(dist, 2.0 - dist) >= 6.0 * h - 1e-12), seed


def test_gradient_quotient_bound_across_the_seam():
    # gradient field equal to the node coordinate on the periodic [-1, 1):
    # quotient 1 between interior neighbours, (2 - h)/h across the seam
    sol = stub_solution(lambda X: X[..., 0], num=40, box=(-1.0, 1.0),
                        boundary="periodic")
    h = float(sol.u.spacing[0])
    grad = sol.u.nodes().reshape(sol.u.values.shape + (1,))
    assert _gradient_quotient_bound(sol.u, grad) == pytest.approx(
        (2.0 - h) / h, rel=1e-12)


def test_sweep_requires_decreasing_grid(vee):
    with pytest.raises(ConfigError):
        convergence_sweep(vee, free_lagrangian(1),
                          t_grid=np.array([0.05, 0.1]), seed=0)


def test_double_well_sweep_converges_monotonically(dw, dw_sweep):
    _, sol = dw
    sweep = dw_sweep
    assert np.all(np.diff(sweep.sup_errors) < 0.0)
    assert sweep.sup_errors[-1] <= 4.0 * sol.u.interp_error_estimate()
    # gradient quotients of the regularized field grow no faster than 1/t
    assert np.max(sweep.c11_bounds * sweep.t_grid) <= 1.5
    # ridge probe: symmetric problem pins gradient and velocity limits at 0
    assert np.abs(sweep.gradient_limits[0]).max() <= 1e-6
    assert np.abs(sweep.velocity_limits[0]).max() <= 1e-6
    assert sweep.cauchy_ok[0]
    # quadratic kinetic energy: start momentum and velocity limits agree
    assert np.abs(sweep.gradient_limits - sweep.velocity_limits).max() \
        <= 5e-3
    inner = np.abs(sweep.probe_points[:, 0]) <= 1.0
    assert sweep.cauchy_ok[inner].all()


def test_gradient_limits_match_hamiltonian_minimizer(dw, dw_sweep):
    L, sol = dw
    H = hamiltonian_for(L)
    h = float(sol.u.spacing.max())
    for j in range(len(dw_sweep.probe_points)):
        cmp = gradient_limit_vs_qx(dw_sweep, H, dw_sweep.probe_points[j])
        assert cmp.distance <= 3.0 * h
    ridge = gradient_limit_vs_qx(dw_sweep, H, np.array([0.0]))
    assert ridge.distance <= 1e-6
    assert ridge.hull_diameter > 0.5


def test_gradient_limit_rejects_non_probe_points(dw_sweep):
    with pytest.raises(ConfigError):
        gradient_limit_vs_qx(dw_sweep, hamiltonian_for(free_lagrangian(1)),
                             np.array([1.9]))


def test_kink_gradient_limit_with_drift_dual(vee):
    L = drift_lagrangian(2.0)
    sweep = convergence_sweep(vee, L, t_grid=np.array([0.2, 0.1, 0.05]),
                              seed=0, probe_points=np.array([[0.0]]))
    H = hamiltonian_for(L)
    cmp = gradient_limit_vs_qx(sweep, H, np.array([0.0]))
    # H(p) = (p-2)^2/2 over [-1, 1] is minimized at the vertex p = 1
    assert cmp.q[0] == pytest.approx(1.0, abs=1e-8)
    assert cmp.gradient_limit[0] == pytest.approx(1.0, abs=1e-6)
    assert cmp.distance <= 1e-6


def test_kink_gradient_limit_free_dual(vee):
    sweep = convergence_sweep(vee, free_lagrangian(1),
                              t_grid=np.array([0.2, 0.1, 0.05]), seed=0,
                              probe_points=np.array([[0.0]]))
    cmp = gradient_limit_vs_qx(sweep, hamiltonian_for(free_lagrangian(1)),
                               np.array([0.0]))
    assert np.abs(cmp.q).max() <= 1e-9
    assert np.abs(cmp.gradient_limit).max() <= 1e-6
    assert cmp.distance <= 1e-6


# ---------------------------------------------------------------------------
# singularity traces


def test_symmetric_ridge_trace_is_stationary(dw):
    L, sol = dw
    tr = trace_singularity(sol, L, np.array([0.0]),
                           t_grid=np.array([0.1, 0.05, 0.025]),
                           window_samples=24)
    assert np.abs(tr.maximizers).max() <= 1e-9
    assert tr.max_jump <= 1e-9
    h = float(sol.u.spacing.max())
    assert np.abs(tr.right_derivative).max() <= 1e-6
    assert np.abs(tr.q_lambda).max() <= 1e-8
    assert np.abs(tr.v0).max() <= 1e-8
    assert np.all(tr.distance_ratios <= tr.kappa0 + 1e-12)
    assert tr.t1 == pytest.approx(0.1)
    assert tr.t2 > 0.0
    assert np.abs(tr.right_derivative - tr.v0).max() <= 2.0 * h


def test_trace_rejects_smooth_start(dw):
    L, sol = dw
    with pytest.raises(NotSingular):
        trace_singularity(sol, L, np.array([1.0]),
                          t_grid=0.2 * 2.0 ** (-np.arange(6, dtype=float)),
                          window_samples=64)


def test_tilted_well_moves_kink_but_not_its_velocity():
    L = tilted_double_well(0.2)
    grid = GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    sol = solve_discounted(L, 0.5, grid, 0.05)
    sing = singular_set(sol.u)
    assert sing.indices == [(50,)]
    assert sing.points[0, 0] == pytest.approx(0.5)
    tr = trace_singularity(sol, L, sing.points[0],
                           t_grid=np.array([0.1, 0.05, 0.025]),
                           window_samples=24)
    h = float(sol.u.spacing.max())
    # stationary solution: the kink sits still and the predicted speed is 0
    assert np.abs(tr.maximizers - 0.5).max() <= h / 2.0
    assert np.abs(tr.right_derivative - tr.v0).max() <= 2.0 * h
    assert np.abs(tr.v0).max() <= 2.0 * h


def test_strict_concavity_window_for_free_kink(vee):
    tr = trace_singularity(vee, free_lagrangian(1), np.array([0.0]),
                           t_grid=np.array([0.1, 0.05]), window_samples=24)
    # linear pieces carry no curvature: every probe scale qualifies
    assert tr.t2 == pytest.approx(0.1)
    assert tr.t1 == pytest.approx(0.1)


def window_t2(sol, x0, t_probe):
    """_concavity_window under the free lift, whose kernel convexity ratio
    C'''(t) is 1: a probe t qualifies when 1/t beats the curvature C2."""
    lifted = discount_lift(free_lagrangian(1), sol.lam,
                           horizon=float(t_probe.max()) + sol.dt)
    return _concavity_window(sol, lifted, np.array([x0]), t_probe, 24, seed=0)


def test_concavity_window_skips_the_timed_half(vee, monkeypatch):
    # per probe t: n_y base arcs and 2 solves for each of n_pert spatial
    # perturbations; the timed half is drawn but never solved
    calls = []
    real = hjlax.action.minimize_action

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hjlax.action, "minimize_action", counting)
    t_probe = np.array([0.1, 0.05])
    n_y, n_pert = 4, 6                  # from n_samples = 24
    assert window_t2(vee, 0.0, t_probe) == pytest.approx(0.1)
    assert len(calls) == len(t_probe) * n_y * (1 + 2 * n_pert)


def test_concavity_window_wraps_the_periodic_seam():
    # u = x^2 left of 0 and 3x^2 - 2x^3 right of it on the periodic [-1, 1);
    # next to x0 = -1 the steep curvature (4.8 on [0.6, 1)) lies across the
    # seam, and the unwrapped half [-1, -0.6] alone reads C2 = 2
    sol = stub_solution(
        lambda X: np.where(X[..., 0] < 0.0, X[..., 0] ** 2,
                           3.0 * X[..., 0] ** 2 - 2.0 * X[..., 0] ** 3),
        num=40, box=(-1.0, 1.0), boundary="periodic")
    # 1/0.4 = 2.5 lies between the two curvatures, 1/0.1 above both
    assert window_t2(sol, -1.0, np.array([0.4, 0.1])) == pytest.approx(0.1)


def test_concavity_window_keeps_both_ends_of_its_reach():
    # on the 81-node [-2, 2] grid, node 48 (x = 0.4) is 8 spacings right of
    # x0 = 0 but a rounding error past 0 + 8 * 0.05; u's only curvature
    # starts between nodes 47 and 48: C2 = 3.5 with node 48, 1.125 without
    sol = stub_solution(
        lambda X: -2.0 * np.maximum(X[..., 0] - 0.375, 0.0) ** 2, num=81)
    # 1/0.5 = 2 lies between the two curvatures, 1/0.2 above both
    assert window_t2(sol, 0.0, np.array([0.5, 0.2])) == pytest.approx(0.2)


def test_sweep_limits_match_per_probe_extrapolation(dw_sweep):
    # each probe's sequences extrapolated on their own
    assert len(dw_sweep.probe_points) > 1
    for j in range(len(dw_sweep.probe_points)):
        ext = aitken_extrapolants(dw_sweep.probe_gradients[:, j, :])
        vel = aitken_extrapolants(dw_sweep.probe_velocities[:, j, :])
        gaps = np.linalg.norm(ext[-3:] - ext[-1][None, :], axis=1)
        assert np.array_equal(dw_sweep.gradient_limits[j], ext[-1])
        assert np.array_equal(dw_sweep.velocity_limits[j], vel[-1])
        assert dw_sweep.cauchy_ok[j] == (len(ext) >= 3
                                         and gaps.max() <= 1e-3)


# ---------------------------------------------------------------------------
# serialization


def test_sweep_serialization_roundtrip(dw_sweep, tmp_path):
    path = tmp_path / "sweep.json"
    dump_json(_sweep_json(dw_sweep), str(path))
    d = json.loads(path.read_text())
    assert set(d) == {"lam", "t_grid", "sup_errors", "c11_bounds",
                      "probe_points", "probe_gradients", "probe_velocities",
                      "gradient_limits", "velocity_limits", "cauchy_ok",
                      "meta"}
    assert d["lam"] == 0.5
    assert d["cauchy_ok"] == dw_sweep.cauchy_ok.tolist()

    err_csv = tmp_path / "errors.csv"
    dw_sweep.errors_to_csv(str(err_csv))
    lines = err_csv.read_text().splitlines()
    assert lines[0] == "t,sup_error,c11_bound"
    assert len(lines) == 1 + len(dw_sweep.t_grid)

    pr_csv = tmp_path / "probes.csv"
    dw_sweep.probes_to_csv(str(pr_csv))
    lines = pr_csv.read_text().splitlines()
    assert lines[0] == "t,probe,x1,g1,v1"
    assert len(lines) == 1 + len(dw_sweep.t_grid) * len(dw_sweep.probe_points)


def test_trace_serialization_roundtrip(dw, tmp_path):
    L, sol = dw
    tr = trace_singularity(sol, L, np.array([0.0]),
                           t_grid=np.array([0.05, 0.025]),
                           window_samples=24)
    path = tmp_path / "trace.json"
    dump_json(vars(tr), str(path))
    d = json.loads(path.read_text())
    assert set(d) == {"x0", "lam", "t_grid", "maximizers", "distance_ratios",
                      "kappa0", "max_jump", "right_derivative", "q_lambda",
                      "v0", "t1", "t2", "meta"}
    assert d["t1"] == 0.05

    csv = tmp_path / "trace.csv"
    tr.to_csv(str(csv))
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,y1,distance_ratio"
    assert len(lines) == 3
