import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import hjlax as hj
import hjlax.action
from hjlax.errors import ConfigError, NonConvergence, OutOfWindow
from test_lasrylions import tilted_double_well

# frozen closed form: minimal discounted free action at lam=1, s=0, t=0.5,
# |y-x| = 1, equal to lam |y-x|^2 / (2 (e^{-lam s} - e^{-lam t}))
DISCOUNTED_FREE_A = 1.2707470412683992


def test_free_particle_matches_quadratic_kernel(free2):
    rng = np.random.default_rng(7)
    for _ in range(12):
        s = rng.uniform(-1.0, 0.5)
        t = s + rng.uniform(0.2, 1.2)
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        fs = hj.minimize_action(free2, s, t, x, y)
        exact = float(np.sum((y - x) ** 2)) / (2 * (t - s))
        assert abs(fs.value - exact) <= 1e-9 * (1 + exact)
        assert np.allclose(fs.grad_y, (y - x) / (t - s), atol=1e-8)
        assert np.allclose(fs.grad_x, -(y - x) / (t - s), atol=1e-8)
        assert fs.residual <= 1e-8 * (1 + fs.momentum_sup)


def test_free_minimizer_is_the_chord(free2):
    x = np.array([0.3, -0.8])
    y = np.array([-1.0, 1.4])
    fs = hj.minimize_action(free2, 0.0, 0.9, x, y)
    frac = (fs.curve.times - 0.0) / 0.9
    chord = x[None, :] + frac[:, None] * (y - x)[None, :]
    assert np.allclose(fs.curve.points, chord, atol=1e-9)
    assert np.allclose(fs.curve.velocities, (y - x) / 0.9, atol=1e-8)


def test_discounted_free_matches_lifted_kernel(lifted_free):
    fs = hj.minimize_action(lifted_free, 0.0, 0.5, np.array([0.0]),
                            np.array([1.0]))
    assert abs(fs.value - DISCOUNTED_FREE_A) < 1e-10

    # dual route: the direct minimizer must agree with the analytic kernel
    # that operator scans use as a fast path
    k = lifted_free.kernel
    rng = np.random.default_rng(3)
    for _ in range(6):
        s = rng.uniform(0.0, 0.8)
        t = s + rng.uniform(0.1, 1.0)
        x = rng.uniform(-1.5, 1.5, 1)
        y = rng.uniform(-1.5, 1.5, 1)
        if abs(float(y[0] - x[0])) < 1e-3:
            continue
        fs = hj.minimize_action(lifted_free, s, t, x, y)
        kv = float(np.asarray(k.value(s, t, x, y[None, :])).reshape(()))
        assert abs(fs.value - kv) <= 1e-8 * (1 + abs(kv))
        assert np.allclose(fs.grad_y, k.grad_y(s, t, x, y[None, :])[0],
                           atol=1e-7)
        # the lifted kernel's arc runs the chord x -> y on the clock
        # c(tau) = -e^{-tau} (lam = 1), with speed c'(tau) |y - x| / width
        taus = fs.curve.times
        width = np.exp(-s) - np.exp(-t)
        frac = (np.exp(-s) - np.exp(-taus)) / width
        assert np.allclose(fs.curve.points, x + frac[:, None] * (y - x),
                           atol=1e-8)
        assert np.allclose(fs.curve.velocities,
                           (np.exp(-taus) / width)[:, None] * (y - x),
                           atol=1e-6)


def test_endpoint_gradients_match_finite_differences(pendulum):
    x = np.array([-0.4])
    y = np.array([1.1])
    fs = hj.minimize_action(pendulum, 0.0, 0.6, x, y)
    eps = 1e-6

    def val(s, t, a, b):
        return hj.minimize_action(pendulum, s, t, a, b).value

    fd_y = (val(0, 0.6, x, y + eps) - val(0, 0.6, x, y - eps)) / (2 * eps)
    fd_x = (val(0, 0.6, x + eps, y) - val(0, 0.6, x - eps, y)) / (2 * eps)
    assert fs.grad_y[0] == pytest.approx(fd_y, abs=2e-6)
    assert fs.grad_x[0] == pytest.approx(fd_x, abs=2e-6)


def test_endpoint_gradients_time_dependent_case(lifted_free):
    # covers the L_vt term of the Euler-Lagrange residual
    L = hj.discount_lift(
        hj.catalog("mechanical", dim=1, potential="cos", coeff=-1.0),
        lam=0.5, horizon=1.0)
    x = np.array([0.2])
    y = np.array([-0.7])
    fs = hj.minimize_action(L, 0.1, 0.7, x, y)
    eps = 1e-6
    fd_y = (hj.minimize_action(L, 0.1, 0.7, x, y + eps).value
            - hj.minimize_action(L, 0.1, 0.7, x, y - eps).value) / (2 * eps)
    assert fs.grad_y[0] == pytest.approx(fd_y, abs=2e-6)


def test_markov_subdivision_consistency(pendulum):
    x = np.array([-0.4])
    y = np.array([1.1])
    whole = hj.minimize_action(pendulum, 0.0, 0.6, x, y)
    k = len(whole.curve.times) // 2
    tm, mid = whole.curve.times[k], whole.curve.points[k]
    first = hj.minimize_action(pendulum, 0.0, tm, x, mid)
    second = hj.minimize_action(pendulum, tm, 0.6, mid, y)
    assert abs(whole.value - (first.value + second.value)) < 1e-5


def test_dual_arc_follows_hamiltonian_flow(pendulum):
    # independent oracle: integrate the first-order optimality system
    # (xdot, pdot) = (p, -sin x) forward from the arc's initial data
    x = np.array([-0.4])
    y = np.array([1.1])
    fs = hj.minimize_action(pendulum, 0.0, 0.6, x, y)

    def rhs(tau, z):
        return [z[1], -np.sin(z[0])]

    sol = solve_ivp(rhs, (0.0, 0.6), [x[0], fs.momenta[0, 0]],
                    rtol=1e-11, atol=1e-12, dense_output=True)
    assert abs(sol.y[0, -1] - y[0]) < 1e-6
    assert abs(sol.y[1, -1] - fs.momenta[-1, 0]) < 1e-6
    assert np.allclose(sol.sol(fs.curve.times)[0], fs.curve.points[:, 0],
                       atol=1e-6)


def test_momenta_equal_velocity_gradient(aniso2):
    fs = hj.minimize_action(aniso2, 0.0, 0.4, np.array([0.0, 0.0]),
                            np.array([0.6, -0.3]))
    expect = aniso2.grad_v(fs.curve.times, fs.curve.points,
                           fs.curve.velocities)
    assert np.allclose(fs.momenta, expect, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.25, 3.0))
def test_free_action_scaling_equivariance(free1, c):
    x = np.array([0.2])
    y = np.array([1.0])
    base = hj.minimize_action(free1, 0.0, 0.5, x, y).value
    scaled = hj.minimize_action(free1, 0.0, 0.5, c * x, c * y).value
    assert scaled == pytest.approx(c * c * base, rel=1e-9)


def test_multistart_triggers_on_long_multiwell_horizon(double_well):
    fs = hj.minimize_action(double_well, 0.0, 1.2, np.array([-1.0]),
                            np.array([1.0]))
    assert fs.n_starts == 5
    lifted = hj.discount_lift(double_well, lam=0.5, horizon=1.5)
    assert hj.minimize_action(lifted, 0.0, 1.2, np.array([-1.0]),
                              np.array([1.0])).n_starts == 5
    again = hj.minimize_action(double_well, 0.0, 1.2, np.array([-1.0]),
                               np.array([1.0]))
    assert again.value == fs.value
    assert np.array_equal(again.curve.points, fs.curve.points)


def test_short_horizon_uses_single_start(double_well):
    fs = hj.minimize_action(double_well, 0.0, 0.3, np.array([-1.0]),
                            np.array([-0.8]))
    assert fs.n_starts == 1


def test_window_and_ordering_validation(lifted_free):
    with pytest.raises(OutOfWindow):
        hj.minimize_action(lifted_free, -0.2, 0.5, np.zeros(1), np.ones(1))
    with pytest.raises(ConfigError):
        hj.minimize_action(lifted_free, 0.5, 0.5, np.zeros(1), np.ones(1))


def test_hard_arc_is_certified(aniso2, monkeypatch):
    # mean speed 20 on the anisotropic metric: one LGL polynomial certifies
    # the arc, with no scipy solver call on the way
    calls = []

    def counting(name):
        real = getattr(hjlax.action, name)

        def count(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return count

    for name in ("solve_bvp", "minimize"):
        monkeypatch.setattr(hjlax.action, name, counting(name))
    fs = hj.minimize_action(aniso2, 0.0, 0.1, np.array([1.0, 0.0]),
                            np.array([-1.0, 0.0]))
    assert fs.value == pytest.approx(25.0418375, rel=1e-7)
    assert fs.residual <= hjlax.action._EL_TOL * (1.0 + fs.momentum_sup)
    assert calls == []


def test_order_ladder_never_truncates_silently(double_well, monkeypatch):
    # this arc needs degree 24; a ladder that stops at 8 must raise
    monkeypatch.setattr(hjlax.action, "_ORDERS", (8,))
    with pytest.raises(NonConvergence):
        hj.minimize_action(double_well, 0.0, 2.0, np.array([-1.0]),
                           np.array([1.0]))


def test_newton_shifts_only_the_indefinite_hessians():
    # a stacked Cholesky fails for the whole stack; only the indefinite
    # Hessian may be shifted, by at least twice its negative eigenvalue
    hess = np.array([np.eye(3), np.diag([1.0, -0.5, 2.0])])
    shift = hjlax.action._shifts(hess)
    assert shift[0] == 0.0
    assert shift[1] >= 1.0
    np.linalg.cholesky(hess[1] + shift[1] * np.eye(3))


def test_second_derivatives_match_closed_forms(pendulum, aniso2):
    # the central differences custom Lagrangians get, against the closed
    # forms the catalog attaches
    rng = np.random.default_rng(5)
    tau = rng.uniform(-1.0, 1.0, 9)
    for L in (pendulum, aniso2):
        x = rng.uniform(-2.0, 2.0, (9, L.dim))
        v = rng.uniform(-3.0, 3.0, (9, L.dim))
        diffs = hjlax.action._second_derivatives(
            dataclasses.replace(L, second_derivatives=None), tau, x, v)
        closed = hjlax.action._second_derivatives(L, tau, x, v)
        for got, want in zip(diffs[:2], closed[:2]):
            assert np.allclose(got, want, rtol=0, atol=1e-6)
        assert diffs[2] == closed[2] == 0.0

    # a custom Lagrangian and its lift carry no closed form, so the solver
    # differences them and still certifies
    custom = tilted_double_well()
    assert custom.second_derivatives is None
    assert hj.discount_lift(custom, 0.5, 2.0).second_derivatives is None
    fs = hj.minimize_action(custom, 0.0, 1.0, np.array([-0.5]), np.array([0.7]))
    assert fs.residual <= 1e-8 * (1 + fs.momentum_sup)


def _straight_action(L, s, t, x, y):
    """8 panels of 16-point Gauss-Legendre along the segment x -> y."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(s, t, 9)
    a, b = edges[:-1, None], edges[1:, None]
    taus = (0.5 * (b - a) * nodes + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * weights).ravel()
    frac = ((taus - s) / (t - s))[:, None]
    vel = np.broadcast_to((y - x) / (t - s), (len(taus), len(x)))
    return float(np.sum(w * L.eval(taus, x + frac * (y - x), vel)))


def _integrated_el_defect(L, curve):
    """max_k |p(tau_k) - p(tau_0) - int L_x| along the cubic Hermite arc of
    the curve's node data (8-point Gauss-Legendre per mesh interval)."""
    q, qw = np.polynomial.legendre.leggauss(8)
    q, qw = (q + 1.0) / 2.0, qw / 2.0
    T, X, V = curve.times, curve.points, curve.velocities
    h = np.diff(T)
    taus = (T[:-1, None] + h[:, None] * q).ravel()
    # the cubic Hermite interpolant at the nodes q of every mesh interval
    s, hh = q[None, :, None], h[:, None, None]
    x0, x1, v0, v1 = X[:-1, None], X[1:, None], V[:-1, None], V[1:, None]
    pos = ((2 * s**3 - 3 * s**2 + 1) * x0 + (s**3 - 2 * s**2 + s) * hh * v0
           + (3 * s**2 - 2 * s**3) * x1 + (s**3 - s**2) * hh * v1)
    vel = ((6 * s**2 - 6 * s) / hh * (x0 - x1) + (3 * s**2 - 4 * s + 1) * v0
           + (3 * s**2 - 2 * s) * v1)
    n = len(taus)
    lx = L.grad_x(taus, pos.reshape(n, -1),
                  vel.reshape(n, -1)).reshape(len(h), len(q), -1)
    pieces = h[:, None] * np.einsum("q,iqd->id", qw, lx)
    p = L.grad_v(T, X, V)
    return float(np.abs(p[1:] - p[0] - np.cumsum(pieces, axis=0)).max())


_ORACLE_ARCS = {
    # name: (Lagrangian, dim, horizon range)
    "cos": (hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0),
            1, (0.1, 1.0)),
    "double_well": (hj.catalog("mechanical", dim=1, potential="double_well",
                               coeff=-1.0, shift=-0.25), 1, (0.1, 2.0)),
    "anisotropic": (hj.catalog("anisotropic", dim=2, m0=1.0, m1=0.3),
                    2, (0.25, 1.0)),
    "lifted_cos": (hj.discount_lift(hj.catalog("mechanical", dim=1,
                                               potential="cos", coeff=1.0),
                                    lam=1.0, horizon=1.0), 1, (0.1, 0.8)),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_ARCS))
def test_arcs_pass_the_integrated_euler_lagrange_oracle(name):
    # the returned Hermite data, integrated independently, must be an
    # extremal to 1e-8 and no worse than the straight segment
    L, dim, (lo, hi) = _ORACLE_ARCS[name]
    rng = np.random.default_rng(11)
    # four double-well spans exceed 0.5, so its 5-start path runs
    for span in np.linspace(lo, hi, 6):
        x, y = rng.uniform(-1.0, 1.0, (2, dim))
        fs = hj.minimize_action(L, 0.0, span, x, y)
        p_max = float(np.abs(fs.momenta).max())
        assert _integrated_el_defect(L, fs.curve) <= 1e-8 * (1.0 + p_max)
        straight = _straight_action(L, 0.0, span, x, y)
        assert fs.value <= straight + 1e-9 * (1.0 + abs(fs.value))


def test_cone_check_on_gradients(free1):
    # D_y A = (y - x) / (t - s) for the free particle
    fs = hj.minimize_action(free1, 0.0, 0.5, np.zeros(1), np.ones(1))
    assert np.allclose(fs.grad_y, [2.0])


def test_batched_phase1_ranks_like_refined_values(aniso2):
    x = np.array([0.0, 0.0])
    ys = np.array([[0.6, -0.3], [0.2, 0.1], [1.0, 0.5], [-0.4, -0.9]])
    batch = hj.action_values_batch(aniso2, 0.0, 0.4, x, ys)
    refined = np.array([hj.minimize_action(aniso2, 0.0, 0.4, x, y).value
                        for y in ys])
    # one batched solve certifies the same arcs as minimize_action
    assert np.abs(batch - refined).max() <= 1e-10 * np.abs(refined).max()
    assert np.array_equal(np.argsort(batch), np.argsort(refined))


def test_velocity_probe_free_table_is_the_ratio(free1):
    rep = hj.probe_velocity_bounds(free1, np.zeros(1), 1.0,
                                   [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)],
                                   n_samples=10, seed=2)
    assert rep.passed
    ratios = np.array(rep.constants["ratios"])
    kv = np.array(rep.constants["kappa_velocity"])
    assert np.allclose(kv, ratios, atol=1e-8)
    assert np.allclose(rep.constants["kappa_momentum"], ratios, atol=1e-8)


def test_semiconcavity_probe_free_space_bucket_is_one(free1):
    rep, _ = hj.probe_midpoint_defects(free1, np.zeros(1), 0.0, lam_cone=1.0,
                                       T_grid=(0.1, 0.2), n_samples=16, seed=0)
    assert rep.passed
    assert rep.constants["C_lambda_space"] == pytest.approx(1.0, abs=1e-6)
    assert rep.constants["C_lambda"] >= 1.0 - 1e-9


def test_convexity_probe_free_constants(free1):
    _, rep = hj.probe_midpoint_defects(free1, np.zeros(1), 0.0, lam_cone=1.0,
                                       T_grid=(0.1, 0.2), n_samples=16, seed=0)
    assert rep.passed
    assert rep.constants["C_doubleprime"] == pytest.approx(0.0, abs=1e-8)
    assert rep.constants["C_tripleprime"] == pytest.approx(1.0, abs=1e-6)
    assert rep.constants["T_second"] == 0.2


def test_midpoint_probe_solves_one_family_per_T(free1, monkeypatch):
    # per T: n_y base arcs, then 2 solves for each of n_pert spatial and
    # n_pert timed perturbations of every base; both reports share them
    calls = []
    real = hjlax.action.minimize_action

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hjlax.action, "minimize_action", counting)
    T_grid = (0.1, 0.2, 0.8)
    n_y, n_pert = 4, 4                  # from n_samples = 16
    semi, conv = hj.probe_midpoint_defects(free1, np.zeros(1), 0.0,
                                           lam_cone=1.0, T_grid=T_grid,
                                           n_samples=16, seed=0)
    assert len(calls) == len(T_grid) * n_y * (1 + 4 * n_pert)
    assert conv.samples == len(T_grid) * n_y * 2 * n_pert
    # the semiconcavity report reads the grid T below 2/3 only
    assert semi.constants["T_grid"] == [0.1, 0.2]
    assert semi.samples == 2 * n_y * 2 * n_pert
    with pytest.raises(ConfigError):
        hj.probe_midpoint_defects(free1, np.zeros(1), 0.0, lam_cone=1.0,
                                  T_grid=(0.8,), n_samples=200, seed=0)


def test_compact_containment_probe_free(free1):
    rep = hj.probe_compact_containment(free1, np.zeros(1), 0.0, 0.4,
                                       lam_cone=1.0, n_samples=40, seed=0)
    assert rep.passed
    assert rep.constants["kappa_4lam"] > 0


def test_compact_containment_rejects_a_short_window_before_solving(
        free1, monkeypatch):
    # T = 2 leaves no perturbation times h in (-T/2, 1 - T)
    calls = []
    real = hjlax.action.minimize_action

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hjlax.action, "minimize_action", counting)
    with pytest.raises(ConfigError):
        hj.probe_compact_containment(free1, np.zeros(1), 0.0, 2.0, 1.0,
                                     n_samples=4, seed=0)
    assert calls == []
