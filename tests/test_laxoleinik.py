import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjlax as hj
from hjlax.errors import NonConvergence, NonUniqueMaximizer


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
    # theta(q) = q^2/2 against slope lip q: largest root is 2 lip
    est = {lip: hj.estimate_kappa0(free1, lip, 0.0, 0.4, np.zeros((1, 1)))
           for lip in (0.5, 1.0, 2.0)}
    assert est[1.0]["kappa0"] == pytest.approx(2.0, abs=1e-9)
    assert est[0.5]["kappa0"] == pytest.approx(1.0, abs=1e-9)
    assert est[2.0]["kappa0"] == pytest.approx(4.0, abs=1e-9)
    assert est[1.0]["ball_radius"] == pytest.approx(1.5 * 2.0 * 0.4, abs=1e-9)


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

    # the oracle: one certified minimize_action per node of a dense grid
    ys = np.linspace(-2.5, 2.5, 1001)
    best = -np.inf
    for y in ys:
        a = hj.minimize_action(pendulum, 0.0, 0.4, x, np.array([y])).value
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


def test_candidate_cap_hits_are_noted(free1, vee_grid, monkeypatch):
    x = np.array([[0.0]])
    assert not hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=x).notes
    monkeypatch.setattr(hj.laxoleinik, "_CANDIDATE_CAP", 8)
    res = hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=x)
    assert len(res.notes) == 1
    assert res.notes[0].startswith("candidate cap 8 hit at [0.0]")


def test_unconverged_polish_is_noted(pendulum, monkeypatch):
    # y* ~ 0.69 lies inside a cell of the 25-node vee (spacing 0.5), so the
    # polish needs more than two iterations (a maximizer on the kink of u
    # is optimal at its start); on the 241-node vee one iteration already
    # ends within the polish's projected-gradient tolerance
    vee = hj.GridSpec(box=[(-6.0, 6.0)], num=[25]).build(
        lambda X: -np.abs(X[..., 0]))
    for maxiter in (1, 2, 1000):
        monkeypatch.setattr(hj.laxoleinik, "_POLISH_OPTIONS",
                            {**hj.laxoleinik._POLISH_OPTIONS,
                             "maxiter": maxiter})
        res = hj.lax_plus(pendulum, vee, 0.0, 0.4, points=np.array([[1.03]]))
        assert 0.5 < res.records[0].y_star[0] < 1.0
        if maxiter == 1000:
            assert res.notes == []
        else:
            assert len(res.notes) == 1
            assert res.notes[0].startswith(
                f"cell polish stopped after {maxiter} iterations")


def test_ball_still_clipped_after_expansion_is_noted(free1, vee_grid):
    # radius max(1.5 kappa0 t, 2 h) = 0.1, expanded to 0.15; y* is 0.4 away
    res = hj.lax_plus(free1, vee_grid, 0.0, 0.4, points=np.array([[1.0]]),
                      kappa0=1e-3)
    assert res.notes == ["ball expanded at [1.0]",
                         "search ball of radius 0.15 still clipped at [1.0]"]


def test_notes_follow_the_passes_that_made_them(free1, vee_grid, monkeypatch):
    # radius 0.1 clips both maximizers; the first pass hits the cap at each
    # point, then the expansion pass (radius 0.15) at each point, and only
    # then come the expansion notes, point by point
    monkeypatch.setattr(hj.laxoleinik, "_CANDIDATE_CAP", 2)
    res = hj.lax_plus(free1, vee_grid, 0.0, 0.4,
                      points=np.array([[1.0], [-1.0]]), kappa0=1e-3)
    assert res.notes == [
        "candidate cap 2 hit at [1.0]: 4 nodes in the ball",
        "candidate cap 2 hit at [-1.0]: 4 nodes in the ball",
        "candidate cap 2 hit at [1.0]: 6 nodes in the ball",
        "candidate cap 2 hit at [-1.0]: 6 nodes in the ball",
        "ball expanded at [1.0]",
        "search ball of radius 0.15 still clipped at [1.0]",
        "ball expanded at [-1.0]",
        "search ball of radius 0.15 still clipped at [-1.0]",
    ]


def _gather_one_by_one(u, pts, radius, cap):
    """The candidate gather point by point: nearest images, the ball mask
    (its nearest node when empty), even subsampling past the cap."""
    nodes, parts, notes = u.nodes(), [], []
    for p, x in enumerate(pts):
        delta = u.nearest_image(nodes - x)
        dist = np.linalg.norm(delta, axis=1)
        idx = np.flatnonzero(dist <= radius)
        if idx.size == 0:
            idx = np.array([np.argmin(dist)])
        if len(idx) > cap:
            notes.append(f"candidate cap {cap} hit at {x.tolist()}: "
                         f"{len(idx)} nodes in the ball")
            idx = idx[np.linspace(0, len(idx) - 1, cap).astype(int)]
        parts.append((x + delta[idx], u.values.ravel()[idx], idx,
                      np.full(len(idx), p)))
    return [np.concatenate(part) for part in zip(*parts)], notes


_GATHER_CASES = {
    # balls of radius 0.5 around points by the seam wrap to the far side
    "periodic_seam": (
        hj.GridSpec(box=[(-1.0, 1.0)] * 2, num=[9, 9], boundary="periodic"),
        [[0.95, -0.9], [-1.0, 0.0], [0.1, 0.99], [0.3, -0.2]], 0.5, None, None),
    # no node lies within 0.3 of 5.0: its ball takes the nearest node
    "empty_ball": (hj.GridSpec(box=[(-1.0, 1.0)], num=[21]),
                   [[0.0], [5.0], [-1.2]], 0.3, None, None),
    # the first and last balls hold more than 4 nodes, the middle one not
    "cap_hit": (hj.GridSpec(box=[(-1.0, 1.0)], num=[41]),
                [[0.5], [-2.0], [-0.5]], 0.3, 4, None),
    # 7 points in blocks of 2: one call spans 4 blocks
    "blocks": (hj.GridSpec(box=[(-1.0, 1.0)] * 2, num=[5, 5]),
               [[0.1 * k, -0.1 * k] for k in range(7)], 0.6, None, 50),
}


@pytest.mark.parametrize("case", list(_GATHER_CASES))
def test_gather_matches_the_one_by_one_reference(case, monkeypatch):
    spec, pts, radius, cap, block = _GATHER_CASES[case]
    u = spec.build(lambda X: np.sin(3.0 * X.sum(axis=-1)))
    pts = np.array(pts)
    if cap is not None:
        monkeypatch.setattr(hj.laxoleinik, "_CANDIDATE_CAP", cap)
    if block is not None:
        monkeypatch.setattr(hj.laxoleinik, "_GATHER_BLOCK", block)
    notes = []
    got = hj.laxoleinik._grid_candidates(u, u.nodes(), pts, radius, notes)
    want, want_notes = _gather_one_by_one(u, pts, radius,
                                          hj.laxoleinik._CANDIDATE_CAP)
    for a, b in zip(got, want):
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b)
    assert notes == want_notes
    if case == "periodic_seam":
        assert np.abs(got[0]).max() > 1.0
    if case == "empty_ball":
        assert np.sum(got[3] == 1) == 1
    if case == "cap_hit":
        assert [n.split(":")[0] for n in notes] == [
            "candidate cap 4 hit at [0.5]", "candidate cap 4 hit at [-0.5]"]


@pytest.fixture
def entries(monkeypatch):
    """Calls of each of the pass's gather, clustering and selection."""
    calls = dict.fromkeys(("_grid_candidates", "_near_clusters", "_select"), 0)
    for name in calls:
        real = getattr(hj.laxoleinik, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(hj.laxoleinik, name, counting)
    return calls


def test_single_maximizer_pass_clusters_in_array_form(free1, entries):
    u = hj.GridSpec(box=[(-3.0, 3.0)], num=[201]).build(
        lambda X: -np.abs(X[..., 0] - 0.12))
    res = hj.lax_plus(free1, u, 0.0, 0.2)
    # one pass (no ball expanded) of 201 x 201 (point, node) pairs: one block
    assert not res.notes
    assert u.values.size ** 2 <= hj.laxoleinik._GATHER_BLOCK
    assert entries == {"_grid_candidates": 1, "_near_clusters": 0,
                       "_select": 0}


def test_kappa0_bound_reads_every_node(pendulum):
    # L(., ., 0) = cos peaks at node 100 (x = 0); a stride of
    # 200 // 64 = 3 nodes would skip it
    u = hj.GridSpec(box=[(-4.0, 3.96)], num=[200]).build(
        lambda X: -np.abs(X[..., 0]))
    res = hj.lax_plus(pendulum, u, 0.0, 0.4, points=np.array([[0.0]]))
    est = hj.estimate_kappa0(pendulum, u.lipschitz(), 0.0, 0.4, u.nodes())
    assert est["M0"] == 1.0
    assert res.kappa0_ratio == est["kappa0"]


def test_condition_m_flags_symmetric_double_maximizer(free1, entries):
    uV = hj.GridSpec(box=[(-6.0, 6.0)], num=[241]).build(
        lambda X: np.abs(X[..., 0]) - 1.0)
    res = hj.lax_plus(free1, uV, 0.0, 0.4, points=np.array([[0.0], [2.0]]))
    assert [rec.multiplicity for rec in res.records] == [2, 1]
    # only the point at 0 has two clusters and goes through them one by one
    assert entries == {"_grid_candidates": 1, "_near_clusters": 1,
                       "_select": 1}
    with pytest.raises(NonUniqueMaximizer):
        hj.require_unique_maximizer(res.records[0])


def test_uncertified_scan_arc_raises(double_well, monkeypatch):
    # the scan arcs of a long double-well lift need more than degree 8; a
    # ladder that stops there must raise instead of ranking them
    lifted = hj.discount_lift(double_well, lam=0.5, horizon=2.5)
    u = hj.GridSpec(box=[(-2.0, 2.0)], num=[41]).build(
        lambda X: -np.abs(X[..., 0]))
    monkeypatch.setattr(hj.action, "_ORDERS", (8,))
    with pytest.raises(NonConvergence):
        hj.lax_plus(lifted, u, 0.0, 2.0, points=np.array([[-1.0]]))


@pytest.mark.parametrize("name", ["lifted_free", "free2"])
def test_kernel_and_direct_routes_agree(name, request):
    # the closed-form kernel must reproduce the certified minimize_action
    # action of the same Lagrangian without it, in 1d and on the nd direct
    # route
    L = request.getfixturevalue(name)
    if L.dim == 1:
        u = hj.GridSpec(box=[(-3.0, 3.0)], num=[61]).build(
            lambda X: -np.abs(X[..., 0]))
        pts = np.array([[0.0], [0.8]])
    else:
        u = hj.GridSpec(box=[(-1.5, 1.5)] * 2, num=[13, 13]).build(
            lambda X: -np.abs(X).sum(axis=-1))
        pts = np.array([[0.05, -0.1], [0.6, 0.35]])
    fast = hj.lax_plus(L, u, 0.0, 0.3, points=pts)
    from dataclasses import replace
    blind = replace(L, kernel=None)
    slow = hj.lax_plus(blind, u, 0.0, 0.3, points=pts)
    # the direct route certifies the very arcs the kernel closes, so the
    # two agree to round-off in the maximizer and so in the gradient
    assert np.allclose(fast.values, slow.values, atol=1e-9)
    assert np.allclose(fast.gradient, slow.gradient, atol=1e-9)


def _certified(L, s, t, rec, sign):
    """Action and operator gradient of rec's arc from minimize_action."""
    if sign > 0:
        fs = hj.minimize_action(L, s, t, rec.x, rec.y_star)
        return fs.value, -fs.grad_x
    fs = hj.minimize_action(L, s, t, rec.y_star, rec.x)
    return fs.value, fs.grad_y


@pytest.mark.parametrize("name, sign", [
    ("free1", 1), ("free1", -1), ("free2", 1), ("free2", -1),
    ("lifted_free", 1), ("lifted_free", -1)])
def test_kernel_route_matches_collocation(name, sign, request):
    # the kernel route reads action and gradient off the closed form; an
    # independent minimize_action at the chosen maximizer must agree
    L = request.getfixturevalue(name)
    if L.dim == 1:
        u = hj.GridSpec(box=[(-3.0, 3.0)], num=[121]).build(
            lambda X: -sign * np.abs(X[..., 0]))
        # y* of 0.1 and -0.15 sits on the kink of u at 0
        pts = np.array([[0.1], [-0.15], [0.9]])
    else:
        u = hj.GridSpec(box=[(-1.5, 1.5)] * 2, num=[13, 13]).build(
            lambda X: -sign * np.abs(X).sum(axis=-1))
        pts = np.array([[0.05, -0.1], [0.6, 0.35]])
    op = hj.lax_plus if sign > 0 else hj.lax_minus
    res = op(L, u, 0.0, 0.3, points=pts)
    assert res.records[0].y_star == pytest.approx(np.zeros(L.dim), abs=1e-12)
    for rec in res.records:
        action, gradient = _certified(L, 0.0, 0.3, rec, sign)
        assert rec.action == pytest.approx(action, abs=1e-8)
        assert np.abs(rec.gradient - gradient).max() <= 1e-7


@pytest.mark.parametrize("name", ["free1", "pendulum"])
def test_one_polish_per_operator_application(name, monkeypatch, request):
    # every Lagrangian takes the same pipeline: one batched L-BFGS-B polish
    # per application, no scalar polisher, and no minimize_action: the scan,
    # the polish and the certificate read batched action terms
    L = request.getfixturevalue(name)
    u = hj.GridSpec(box=[(-1.5, 1.5)], num=[31]).build(
        lambda X: -np.abs(X[..., 0]))
    calls = {}

    def counting(name, original):
        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return count

    for fn in ("minimize_action", "minimize", "minimize_scalar"):
        monkeypatch.setattr(hj.laxoleinik, fn,
                            counting(fn, getattr(hj.laxoleinik, fn)))
    res = hj.lax_plus(L, u, 0.0, 0.3)
    assert len(res.records) == u.values.size
    assert not any("ball expanded" in note for note in res.notes)
    assert "minimize_action" not in calls
    assert "minimize_scalar" not in calls
    assert calls["minimize"] == 1


_LAW_CASES = {
    "1": (hj.catalog("free", dim=1), hj.GridSpec(box=[(-1.5, 1.5)], num=[31])),
    "2": (hj.catalog("free", dim=2),
          hj.GridSpec(box=[(-1.0, 1.0)] * 2, num=[7, 7])),
    # the pendulum fixture, L = v^2/2 + cos x, on the direct route
    "pendulum": (hj.catalog("mechanical", dim=1, potential="cos", coeff=-1.0),
                 hj.GridSpec(box=[(-1.0, 1.0)], num=[7])),
}


@pytest.mark.parametrize("case", list(_LAW_CASES))
@pytest.mark.parametrize("sign", [1, -1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_operator_laws_on_random_fields(case, sign, data):
    # order (u <= w => T u <= T w) and constants (T(u + c) = T u + c) on
    # random grid fields.  The scan sees nodes only, and the polish covers
    # the cells around near-optimal nodes, so a computed value can miss a
    # cell's interior extremum by at most sum_k h_k^2 K / 8 when K bounds
    # the curvature of y -> A: the barrier is then K-semiconcave along
    # every axis of a cell.  K = 1/tau for the free kernel.  For the
    # pendulum (L = v^2/2 + cos x, |L_xx| <= 1) the minimizer shifted by
    # (sigma - s)/tau times the endpoint offset is a comparison arc, which
    # gives K = 1/tau + tau/3.  The direct route ranks and polishes on
    # certified actions, so it adds no bias of its own.
    L, spec = _LAW_CASES[case]
    n = int(np.prod(spec.num))
    tau = 0.3
    values = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    bumps = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    drawn = np.array(data.draw(values))
    u = spec.build(lambda X: drawn)
    w = u.with_values(u.values + np.reshape(data.draw(bumps), spec.num))
    c = data.draw(st.floats(-5.0, 5.0))
    op = hj.lax_plus if sign > 0 else hj.lax_minus

    Tu = op(L, u, 0.0, tau).values
    Tw = op(L, w, 0.0, tau).values
    Tc = op(L, u.with_values(u.values + c), 0.0, tau).values
    curvature = 1.0 / tau if L.kernel is not None else 1.0 / tau + tau / 3.0
    resolution = float(np.sum(u.spacing ** 2)) * curvature / 8.0
    assert np.all(Tw >= Tu - resolution - 1e-12)
    assert np.abs(Tc - (Tu + c)).max() <= 1e-9


@pytest.mark.parametrize("sign", [1, -1])
def test_constants_law_when_a_node_trails_the_best_by_a_hair(sign):
    # at x = (-1, 1/3) the T- scan ranks (-2/3, 0) first and (-2/3, 2/3)
    # 1e-6 behind it, but only the latter's cells hold the maximizer (0.0196
    # better); whether the scan keeps the runner-up must not depend on c
    L, spec = _LAW_CASES["2"]
    drawn = np.zeros(49)
    drawn[[3, 4, 11]] = 0.5
    drawn[5], drawn[12] = 0.25, 1e-6
    u = spec.build(lambda X: drawn)
    op = hj.lax_plus if sign > 0 else hj.lax_minus
    Tu = op(L, u, 0.0, 0.3).values
    for c in (0.75, -5.0, 5.0):
        Tc = op(L, u.with_values(u.values + c), 0.0, 0.3).values
        assert np.abs(Tc - (Tu + c)).max() <= 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_bound_holds_and_is_exact_in_1d(dim):
    # _cell_bound bounds max_w F(w) + sum_k bend_k w_k (1 - w_k) over the
    # unit cell, F the multilinear form of the corner values
    rng = np.random.default_rng(dim)
    f = rng.normal(size=(200, 2 ** dim)) * rng.choice([0.01, 1.0], (200, 1))
    bend = rng.uniform(0.0, 0.2, (200, dim)) * rng.integers(0, 2, (200, dim))
    bound = hj.laxoleinik._cell_bound(f, bend)
    axes = np.meshgrid(*[np.linspace(0.0, 1.0, [401, 41, 11][dim - 1])] * dim,
                       indexing="ij")
    w = np.stack([a.ravel() for a in axes], axis=-1)
    val, _ = hj.laxoleinik._multilinear(f[:, None, :],
                                        np.broadcast_to(w, (200,) + w.shape))
    sampled = (val + bend @ (w * (1.0 - w)).T).max(axis=1)
    assert np.all(bound >= sampled - 1e-12)
    if dim == 1:
        assert np.abs(bound - sampled).max() <= 1e-4


@pytest.mark.parametrize("case", ["1", "2"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_two_step_semigroup_closure_on_random_fields(case, data):
    # T+_{0,r} T+_{r,t} u = T+_{0,t} u on the free kernel route: A_{0,t}(x, y)
    # is the min over z of A_{0,r}(x, z) + A_{r,t}(z, y), attained on the
    # segment [x, y], so inside the box.  Let u_I be the multilinear
    # interpolant, W(x) = sup_y u_I(y) - A_{0,t}(x, y) the exact one-step
    # value, v = T+_{r,t} u_I and H = sum_k h_k^2 / 8.
    # - A computed operator value is attained at some y, so it is at most
    #   the exact sup, and it misses it by at most H K with K = 1/(t - s)
    #   the curvature of y -> A_{s,t} (the scan bound derived above).
    # - v + |z|^2 / (2 (t - r)) is a sup of affine functions of z, so the
    #   interpolant of v lies at most H / (t - r) below v.
    # - Each node value of v obeys v(c) <= W(x) + A_{0,r}(x, c), and the
    #   interpolant of the convex A_{0,r}(x, .) exceeds it by at most H / r.
    # So the composite exceeds the one-step value by at most H / r + H / t,
    # and at z on the segment it falls below W by at most 2 H / (t - r)
    # + H / r (inner scan, interpolation, outer scan).
    L, spec = _LAW_CASES[case]
    n = int(np.prod(spec.num))
    t = 0.3
    r = data.draw(st.floats(0.05, 0.25))
    drawn = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                        max_size=n)))
    u = spec.build(lambda X: drawn)

    one = hj.lax_plus(L, u, 0.0, t).values
    two = hj.lax_plus(L, hj.lax_plus(L, u, r, t).grid, 0.0, r).values
    H = float(np.sum(u.spacing ** 2)) / 8.0
    assert np.all(two - one <= H / r + H / t + 1e-12)
    assert np.all(one - two <= 2.0 * H / (t - r) + H / r + 1e-12)
