import numpy as np
import pytest

import hjlax as hj
from hjlax.errors import NonUniqueMaximizer, SearchBallClipped


@pytest.fixture(scope="module")
def vee_grid():
    return hj.GridSpec(box=[(-6.0, 6.0)], num=[241]).build(
        lambda X: -np.abs(X[..., 0]))


@pytest.fixture(scope="module")
def abs_grid():
    return hj.GridSpec(box=[(-6.0, 6.0)], num=[241]).build(
        lambda X: np.abs(X[..., 0]))


def interior(u, pad):
    xs = u.nodes()[:, 0]
    return xs, np.abs(xs) <= 6.0 - pad


def test_kappa0_quadratic_growth_closed_form(free1):
    est = hj.estimate_kappa0(free1, 1.0, 0.0, 0.4, np.zeros((1, 1)),
                             alphas=(0.5, 1.0, 2.0))
    # theta(q) = q^2/2 against slope q: largest root is 2 slope
    assert est["kappa0"] == pytest.approx(2.0, abs=1e-9)
    assert est["by_alpha"][0.5] == pytest.approx(1.0, abs=1e-9)
    assert est["by_alpha"][2.0] == pytest.approx(4.0, abs=1e-9)
    assert est["ball_radius"] == pytest.approx(1.5 * 2.0 * 0.4, abs=1e-9)


def test_forward_operator_is_negative_moreau_envelope(free1, vee_grid):
    # T+_{0,tau}(-|.|)(x) = -x^2/(2 tau) for |x| <= tau, else -|x| + tau/2
    for tau in (0.1, 0.4):
        res = hj.lax_plus(free1, vee_grid, 0.0, tau)
        xs, mask = interior(vee_grid, 2.0)
        expect = np.where(np.abs(xs) <= tau, -xs**2 / (2 * tau),
                          -np.abs(xs) + tau / 2)
        assert np.abs(res.grid.values - expect)[mask].max() < 1e-9


def test_backward_operator_is_inf_convolution(free1, abs_grid):
    # T-_{0,tau}(|.|)(x) = x^2/(2 tau) for |x| <= tau, else |x| - tau/2
    for tau in (0.1, 0.4):
        res = hj.lax_minus(free1, abs_grid, 0.0, tau)
        xs, mask = interior(abs_grid, 2.0)
        expect = np.where(np.abs(xs) <= tau, xs**2 / (2 * tau),
                          np.abs(xs) - tau / 2)
        assert np.abs(res.grid.values - expect)[mask].max() < 1e-9


def test_forward_gradient_field_of_kinked_datum(free1, vee_grid):
    res = hj.lax_plus(free1, vee_grid, 0.0, 0.4)
    xs, mask = interior(vee_grid, 2.0)
    # smooth region gradient: -sign(x) for |x| > tau, -x/tau inside
    expect = np.where(np.abs(xs) <= 0.4, -xs / 0.4, -np.sign(xs))
    assert np.abs(res.gradient[mask, 0] - expect[mask]).max() < 1e-7


def test_drift_lagrangian_gradient_is_one_for_all_horizons(vee_grid):
    # L = v^2/2 + 2v: the barrier max of -|.| sits at y* = -tau and the
    # operator gradient at 0 equals 1 independently of tau
    L = hj.TonelliLagrangian(
        dim=1,
        eval=lambda t, x, v: 0.5 * v[..., 0] ** 2 + 2.0 * v[..., 0],
        grad_t=lambda t, x, v: np.zeros(v.shape[:-1]),
        grad_x=lambda t, x, v: np.zeros_like(v),
        grad_v=lambda t, x, v: v + 2.0,
        hess_vv=lambda t, x, v: np.ones(v.shape[:-1] + (1, 1)),
        growth=hj.GrowthRecord(theta=lambda r: r * r / 2 - 2 * r,
                               theta_bar=lambda r: r * r / 2 + 2 * r,
                               c0=2.0, c=0.0),
        time_window=(-10.0, 10.0),
    )
    for tau in (0.2, 0.5):
        res = hj.lax_plus(L, vee_grid, 0.0, tau, points=np.array([[0.0]]))
        rec = res.records[0]
        assert rec.y_star[0] == pytest.approx(-tau, abs=1e-6)
        assert rec.gradient[0] == pytest.approx(1.0, abs=1e-6)


def test_operators_preserve_order_and_commute_with_constants(free1, abs_grid):
    bumped = abs_grid.with_values(abs_grid.values
                                  + 0.3 * np.cos(abs_grid.nodes()[:, 0]) + 0.3)
    lo = hj.lax_minus(free1, abs_grid, 0.0, 0.3)
    hi = hj.lax_minus(free1, bumped, 0.0, 0.3)
    assert np.all(hi.grid.values >= lo.grid.values - 1e-10)

    shifted = abs_grid.with_values(abs_grid.values + 5.0)
    plus_c = hj.lax_minus(free1, shifted, 0.0, 0.3)
    assert np.allclose(plus_c.grid.values, lo.grid.values + 5.0, atol=1e-9)


def test_two_step_semigroup_closes_at_grid_resolution(free1, vee_grid):
    whole = hj.lax_plus(free1, vee_grid, 0.0, 0.4)
    half = hj.lax_plus(free1, vee_grid, 0.0, 0.2)
    two = hj.lax_plus(free1, half.grid, 0.2, 0.4)
    xs, mask = interior(vee_grid, 2.0)
    # one regrid of a curvature-1/(2 tau) profile costs O(h^2 / tau)
    h = float(vee_grid.spacing[0])
    assert np.abs(two.grid.values - whole.grid.values)[mask].max() < 2.0 * h * h / 0.2


def test_direct_route_matches_dense_brute_force(pendulum):
    u = hj.GridSpec(box=[(-3.0, 3.0)], num=[121]).build(
        lambda X: -np.abs(X[..., 0]))
    x = np.array([0.3])
    res = hj.lax_plus(pendulum, u, 0.0, 0.4, points=x[None, :])

    ys = np.linspace(-2.5, 2.5, 1001)
    best = -np.inf
    for y in ys:
        a = hj.minimize_action(pendulum, 0.0, 0.4, x, np.array([y]),
                               n_segments=8).value
        best = max(best, float(u(np.array([[y]]))[0]) - a)
    assert res.values[0] == pytest.approx(best, abs=5e-5)


def test_pointwise_mode_matches_full_grid(free1, vee_grid):
    full = hj.lax_plus(free1, vee_grid, 0.0, 0.4)
    pts = vee_grid.nodes()[_mid_indices(vee_grid, [-1.0, 0.5, 2.0])]
    part = hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=pts)
    got = part.values
    want = [full.grid.values[i] for i in _mid_indices(vee_grid, [-1.0, 0.5, 2.0])]
    assert np.allclose(got, want, atol=1e-12)
    assert part.grid is None


def _mid_indices(u, targets):
    xs = u.nodes()[:, 0]
    return [int(np.argmin(np.abs(xs - t))) for t in targets]


def test_strict_domain_raises_when_ball_leaves_box(free1, vee_grid):
    with pytest.raises(SearchBallClipped):
        hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=np.array([[5.9]]),
                    strict_domain=True)
    res = hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=np.array([[0.0]]),
                      strict_domain=True)
    assert res.records[0].value == pytest.approx(0.0, abs=1e-9)


def test_candidate_cap_hits_are_noted(free1, vee_grid):
    x = np.array([[0.0]])
    assert not hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=x).notes
    res = hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=x, candidate_cap=8)
    assert len(res.notes) == 1
    assert res.notes[0].startswith("candidate cap 8 hit at [0.0]")


def test_condition_m_flags_symmetric_double_maximizer(free1):
    uV = hj.GridSpec(box=[(-6.0, 6.0)], num=[241]).build(
        lambda X: np.abs(X[..., 0]) - 1.0)
    rep = hj.check_condition_M(free1, uV, 0.0, 0.4,
                               points=np.array([[0.0], [2.0]]))
    assert not rep.passed
    assert rep.constants["max_multiplicity"] == 2
    assert [v["x"] for v in rep.violations] == [[0.0]]

    res = hj.lax_plus(free1, uV, 0.0, 0.4, points=np.array([[0.0]]))
    with pytest.raises(NonUniqueMaximizer):
        hj.require_unique_maximizer(res.records[0])


def test_solve_cauchy_is_the_backward_operator(free1, abs_grid):
    a = hj.solve_cauchy(free1, abs_grid, 0.3)
    b = hj.lax_minus(free1, abs_grid, 0.0, 0.3)
    assert np.array_equal(a.grid.values, b.grid.values)


def test_kernel_and_direct_routes_agree(lifted_free):
    # the kernel fast path must reproduce the collocation route
    u = hj.GridSpec(box=[(-3.0, 3.0)], num=[61]).build(
        lambda X: -np.abs(X[..., 0]))
    pts = np.array([[0.0], [0.8]])
    fast = hj.lax_plus(lifted_free, u, 0.0, 0.3, points=pts)
    from dataclasses import replace
    blind = replace(lifted_free, kernel=None)
    slow = hj.lax_plus(blind, u, 0.0, 0.3, points=pts)
    assert np.allclose(fast.values, slow.values, atol=1e-6)
    # the direct route localizes the argmax through phase-1 surfaces, whose
    # O(h^2) bias shifts it by ~1e-5; gradients inherit that resolution
    assert np.allclose(fast.gradient, slow.gradient, atol=2e-4)
