import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjlax as hj
from hjlax.errors import ConfigError, InvalidHorizon, NonConvergence, OutOfWindow


def test_catalog_entries_satisfy_tonelli_conditions(free2, pendulum, double_well, aniso2):
    for L in (free2, pendulum, double_well, aniso2):
        rep = hj.verify_tonelli(L)
        assert rep.passed, (L.key, rep.violations[:3])
        assert rep.constants["L3_violation_count"] == 0
        assert rep.constants["min_eig_hess_vv"] > 0.0


def test_verify_rejects_decertified_growth(free1):
    from dataclasses import replace
    bad = replace(free1, growth=hj.GrowthRecord(
        theta=lambda r: r**2, theta_bar=free1.growth.theta_bar,
        c0=0.0, c=0.0))
    rep = hj.verify_tonelli(bad)
    assert not rep.passed


def test_legendre_free_is_half_norm_squared(free2):
    res = hj.legendre_transform(free2, 0.0, np.zeros(2), np.array([3.0, 4.0]))
    assert abs(res.value - 12.5) < 1e-10
    assert np.allclose(res.argmax, [3.0, 4.0], atol=1e-10)


def test_legendre_exponential_cost_matches_asinh_closed_form():
    # L(v) = cosh(v) - 1 has H(p) = p asinh(p) - sqrt(1+p^2) + 1, v* = asinh(p)
    L = hj.TonelliLagrangian(
        dim=1,
        eval=lambda t, x, v: np.cosh(v[..., 0]) - 1.0,
        grad_t=lambda t, x, v: np.zeros(v.shape[:-1]),
        grad_x=lambda t, x, v: np.zeros_like(v),
        grad_v=lambda t, x, v: np.sinh(v),
        hess_vv=lambda t, x, v: np.cosh(v)[..., None],
        growth=hj.GrowthRecord(theta=lambda r: 0 * r, theta_bar=np.cosh,
                               c0=0.0, c=0.0),
        time_window=(-1.0, 1.0),
    )
    for p in (0.3, 1.3, -2.1):
        res = hj.legendre_transform(L, 0.0, np.zeros(1), np.array([p]))
        expect = p * np.arcsinh(p) - np.sqrt(1 + p * p) + 1.0
        assert abs(res.value - expect) < 1e-10
        assert abs(res.argmax[0] - np.arcsinh(p)) < 1e-9
        assert res.residual <= 1e-10 * (1 + abs(p))


@settings(max_examples=40, deadline=None)
@given(p=st.floats(-4, 4), v=st.floats(-4, 4), x=st.floats(-3, 3))
def test_fenchel_inequality(pendulum, p, v, x):
    res = hj.legendre_transform(pendulum, 0.0, np.array([x]), np.array([p]))
    lval = float(pendulum.eval(0.0, np.array([x]), np.array([v])))
    assert p * v <= lval + res.value + 1e-9 * (1 + abs(p) + abs(v))


def test_legendre_nonconvergence_is_reported(free1, monkeypatch):
    monkeypatch.setattr(hj.lagrangian, "_LEGENDRE_MAX_ITER", 0)
    with pytest.raises(NonConvergence):
        hj.legendre_transform(free1, 0.0, np.zeros(1), np.array([2.0]))


def test_discount_lift_scales_running_cost(pendulum):
    lam, horizon = 0.7, 1.5
    lifted = hj.discount_lift(pendulum, lam=lam, horizon=horizon)
    t = np.array([0.2, 0.9])
    x = np.array([[0.3], [-1.1]])
    v = np.array([[0.5], [2.0]])
    assert np.allclose(lifted.eval(t, x, v),
                       np.exp(lam * t) * pendulum.eval(t, x, v))
    assert np.allclose(lifted.grad_v(t, x, v),
                       np.exp(lam * t)[:, None] * pendulum.grad_v(t, x, v))
    assert lifted.time_window == (0.0, horizon)
    assert lifted.time_dependent
    # grad_t of the lift is lam e^{lam t} L for autonomous bases
    assert np.allclose(lifted.grad_t(t, x, v),
                       lam * np.exp(lam * t) * pendulum.eval(t, x, v))


def test_discount_lift_growth_certificates(free1):
    lam, horizon = 0.5, 2.0
    lifted = hj.discount_lift(free1, lam=lam, horizon=horizon)
    r = np.array([0.0, 1.0, 2.5])
    assert np.allclose(lifted.growth.theta(r), free1.growth.theta(r))
    assert np.allclose(lifted.growth.theta_bar(r),
                       np.exp(lam * horizon) * free1.growth.theta_bar(r))
    assert lifted.growth.c0 == free1.growth.c0 * np.exp(lam * horizon)


def test_discount_lift_rejects_bad_inputs(free1, lifted_free):
    with pytest.raises(InvalidHorizon):
        hj.discount_lift(free1, lam=1.0, horizon=np.inf)
    with pytest.raises(InvalidHorizon):
        hj.discount_lift(free1, lam=1.0, horizon=-1.0)
    with pytest.raises(ConfigError):
        hj.discount_lift(free1, lam=0.0, horizon=1.0)
    with pytest.raises(ConfigError):
        hj.discount_lift(lifted_free, lam=1.0, horizon=1.0)


def test_window_enforcement(lifted_free):
    with pytest.raises(OutOfWindow):
        lifted_free.check_window(-0.5)
    with pytest.raises(OutOfWindow):
        lifted_free.check_window(0.0, 2.5)
    lifted_free.check_window(0.0, 2.0)


def test_lifted_minus_cos_l3_certificate_fails_off_window():
    # e^{lam t} (v^2/2 - cos x) dips below -1 at v = 0, where 1 + L^lam
    # has the wrong sign for the |L_t| <= c (1 + L) certificate; the probe
    # must report that honestly rather than paper over it.
    L = hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0)
    lifted = hj.discount_lift(L, lam=1.0, horizon=2.0)
    rep = hj.verify_tonelli(lifted)
    assert rep.constants["L3_violation_count"] > 0
    assert not rep.passed


def test_hamiltonian_closed_forms_match_legendre(free2, pendulum, double_well,
                                                 aniso2):
    rng = np.random.default_rng(0)
    for L in (free2, pendulum, double_well, aniso2):
        H = hj.hamiltonian_for(L)
        assert H.provenance == "closed-form"
        for _ in range(5):
            x = rng.uniform(-2, 2, L.dim)
            p = rng.uniform(-3, 3, L.dim)
            res = hj.legendre_transform(L, 0.0, x, p)
            assert abs(float(H.eval(0.0, x, p)) - res.value) < 1e-9
            assert np.allclose(H.grad_p(0.0, x, p), res.argmax, atol=1e-8)


def test_hamiltonian_generic_fallback_agrees():
    L = hj.TonelliLagrangian(
        dim=1,
        eval=lambda t, x, v: np.cosh(v[..., 0]) - 1.0 + 0.1 * x[..., 0] ** 2,
        grad_t=lambda t, x, v: np.zeros(v.shape[:-1]),
        grad_x=lambda t, x, v: 0.2 * x,
        grad_v=lambda t, x, v: np.sinh(v),
        hess_vv=lambda t, x, v: np.cosh(v)[..., None],
        growth=hj.GrowthRecord(theta=lambda r: 0 * r, theta_bar=np.cosh,
                               c0=0.0, c=0.0),
        time_window=(-1.0, 1.0),
    )
    # a catalog key is only a label: it does not pick the dual
    for L in (L, dataclasses.replace(L, key="free")):
        H = hj.hamiltonian_for(L)
        assert H.provenance == "legendre-of-L"
        p = np.array([1.3])
        x = np.array([0.5])
        expect = 1.3 * np.arcsinh(1.3) - np.sqrt(1 + 1.3**2) + 1 - 0.1 * 0.25
        assert abs(float(H.eval(0.0, x, p)) - expect) < 1e-9
        assert abs(float(H.grad_p(0.0, x, p)[..., 0]) - np.arcsinh(1.3)) < 1e-8


def test_legendre_fallback_gives_each_point_its_time():
    lam = 0.7
    H = hj.hamiltonian_for(hj.discount_lift(hj.free_lagrangian(2), lam, 2.0))
    assert H.provenance == "legendre-of-L"
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 2.0, 11)
    x = rng.uniform(-1.0, 1.0, (11, 2))
    p = rng.uniform(-2.0, 2.0, (11, 2))
    decay = np.exp(-lam * t)
    np.testing.assert_allclose(H.eval(t, x, p),
                               decay * np.sum(p * p, axis=-1) / 2.0,
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(H.grad_p(t, x, p), decay[:, None] * p,
                               rtol=1e-12, atol=1e-14)


def test_catalog_rejects_unknown_key():
    with pytest.raises(ConfigError):
        hj.catalog("rotating-drum")


def test_anisotropic_requires_positive_mass():
    with pytest.raises(ConfigError):
        hj.catalog("anisotropic", dim=2, m0=1.0, m1=1.0)


# ---------------------------------------------------------------------------
# derivatives against values


def central(f, z, h):
    """Central differences of f along each coordinate of z (..., n); a
    scalar field gives (..., n), a vector field (..., m) gives (..., m, n)."""
    cols = []
    for k in range(z.shape[-1]):
        e = np.zeros(z.shape[-1])
        e[k] = h
        cols.append((f(z + e) - f(z - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


# the double well's quartic core, its blend to the plateau (2.5 < |x| < 3.5)
# and the plateau
DOUBLE_WELL_X = [0.4, -1.2, 2.45, 2.6, -2.75, 3.0, -3.2, 3.45, 3.6, -3.9, 4.5]


def derivative_case(name, request):
    if name == "cos":
        return hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0)
    if name == "lifted_free":
        return hj.discount_lift(request.getfixturevalue("free2"), lam=0.7,
                                horizon=2.0)
    if name == "lifted_double_well":
        return hj.discount_lift(request.getfixturevalue("double_well"),
                                lam=1.3, horizon=2.0)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["free1", "free2", "pendulum", "cos",
                                  "double_well", "aniso2", "lifted_free",
                                  "lifted_double_well"])
def test_derivatives_match_central_differences(name, request):
    L = derivative_case(name, request)
    rng = np.random.default_rng(11)
    n = len(DOUBLE_WELL_X)
    x = rng.uniform(-3.0, 3.0, (n, L.dim))
    if "double_well" in name:
        x[:, 0] = DOUBLE_WELL_X
    v = rng.uniform(-2.0, 2.0, (n, L.dim))
    p = rng.uniform(-3.0, 3.0, (n, L.dim))
    t = rng.uniform(0.2, 1.8, n)
    h, h2 = 1e-6, 1e-3

    def close(got, expect):
        np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-6)

    close(L.grad_t(t, x, v),
          (L.eval(t + h, x, v) - L.eval(t - h, x, v)) / (2.0 * h))
    close(L.grad_x(t, x, v), central(lambda z: L.eval(t, z, v), x, h))
    close(L.grad_v(t, x, v), central(lambda z: L.eval(t, x, z), v, h))
    # L is quadratic in v: second differences are exact up to rounding
    close(L.hess_vv(t, x, v),
          central(lambda w: central(lambda z: L.eval(t, x, z), w, h2), v, h2))
    # the closed-form second derivatives: L_xx and L_vx from differences of
    # grad_x and grad_v in x, L_vt from differences of grad_v in t
    lxx, lvx, lvt = L.second_derivatives(t, x, v)
    close(lxx, central(lambda z: L.grad_x(t, z, v), x, h))
    close(lvx, central(lambda z: L.grad_v(t, z, v), x, h))
    close(np.broadcast_to(lvt, v.shape),
          (L.grad_v(t + h, x, v) - L.grad_v(t - h, x, v)) / (2.0 * h))
    # one time: the Legendre fallback of a lift takes a scalar t
    H = hj.hamiltonian_for(L)
    close(H.grad_p(0.9, x, p), central(lambda q: H.eval(0.9, x, q), p, h))
    if L.kernel is not None:
        K = L.kernel
        s, tt = 0.3, 1.1
        y = x + v
        close(K.grad_x(s, tt, x, y), central(lambda z: K.value(s, tt, z, y), x, h))
        close(K.grad_y(s, tt, x, y), central(lambda z: K.value(s, tt, x, z), y, h))


def _everywhere_blend(xi, cut_lo, cut_hi):
    """Reference double well: the quintic smoothstep blend evaluated on
    every point, then overwritten on the inner region and the plateau."""
    r = np.abs(xi)
    sgn = np.sign(xi)
    raw = r**4 / 4.0 - r**2 / 2.0
    draw = r**3 - r
    ddraw = 3.0 * r**2 - 1.0
    plateau = cut_hi**4 / 4.0 - cut_hi**2 / 2.0

    w = np.clip((r - cut_lo) / (cut_hi - cut_lo), 0.0, 1.0)
    s = w**3 * (10.0 - 15.0 * w + 6.0 * w**2)
    ds = 30.0 * w**2 * (1.0 - 2.0 * w + w**2) / (cut_hi - cut_lo)
    dds = 60.0 * w * (1.0 - 3.0 * w + 2.0 * w**2) / (cut_hi - cut_lo) ** 2

    f = (1.0 - s) * raw + s * plateau
    df = (1.0 - s) * draw + ds * (plateau - raw)
    ddf = (1.0 - s) * ddraw - 2.0 * ds * draw + dds * (plateau - raw)

    inner = r <= cut_lo
    f = np.where(inner, raw, f)
    df = np.where(inner, draw, df)
    ddf = np.where(inner, ddraw, ddf)
    outer = r >= cut_hi
    f = np.where(outer, plateau, f)
    df = np.where(outer, 0.0, df)
    ddf = np.where(outer, 0.0, ddf)
    return f, sgn * df, ddf


@pytest.mark.parametrize("xi", [
    np.linspace(-6.0, 6.0, 200001),
    np.array([-3.5, -2.5, 0.0, 2.5, 3.5]),
    np.random.default_rng(3).uniform(-5.0, 5.0, (3, 17, 2)),
    np.array(-2.7),
], ids=["line", "cuts", "batch", "0d"])
def test_double_well_blends_only_its_band_bit_identically(xi):
    from hjlax.lagrangian import _double_well_shape

    for got, want in zip(_double_well_shape(xi, 2.5, 3.5),
                         _everywhere_blend(xi, 2.5, 3.5)):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("potential", ["cos", "double_well"])
@pytest.mark.parametrize("shift", [0.0, -0.8])
def test_zero_potential_skips_the_shape(monkeypatch, potential, shift):
    # coeff = 0 gives V = shift and force 0 without evaluating phi; the
    # oracle is the general formula, coeff * sum_k phi(x_k) + shift
    from hjlax import lagrangian

    shape = lagrangian._SHAPES[potential]
    calls = []
    monkeypatch.setitem(lagrangian._SHAPES, potential,
                        lambda *a: calls.append(1) or shape(*a))
    L = hj.mechanical_lagrangian(dim=2, potential=potential, coeff=0.0,
                                 shift=shift)
    calls.clear()   # the growth record's range of phi, made once
    rng = np.random.default_rng(5)
    x = rng.uniform(-4.0, 4.0, (3, 17, 2))
    v = rng.normal(size=(3, 17, 2))
    f, df, ddf = shape(x, 2.5, 3.5)
    V = 0.0 * np.sum(f, axis=-1) + shift
    assert np.array_equal(L.eval(0.0, x, v), np.sum(v * v, axis=-1) / 2.0 - V)
    assert np.array_equal(L.grad_x(0.0, x, v), -0.0 * df)
    lxx, lvx, lvt = L.second_derivatives(0.0, x, v)
    assert np.array_equal(lxx, -0.0 * ddf[..., None] * np.eye(2))
    assert np.array_equal(lvx, np.zeros((3, 17, 2, 2))) and lvt == 0.0
    assert np.array_equal(L.hamiltonian.eval(0.0, x, v),
                          np.sum(v ** 2, axis=-1) / 2.0 + V)
    assert L.eval(0.0, x, v).shape == L.grad_x(0.0, x, v).shape[:-1] == (3, 17)
    assert not calls
