"""Tonelli Lagrangians with certified growth bounds and Legendre duality.

The running costs handled here are C^2 maps L(t, x, v) that are strongly
convex in v (L_vv positive definite) and superlinear:

    theta(|v|) - c0  <=  L(t, x, v)  <=  theta_bar(|v|),

with superlinear profiles theta, theta_bar stored next to the Lagrangian as a
GrowthRecord, together with a time-derivative constant c certifying
|L_t| <= c (1 + L) on the certified time window.  Stationary discounted
problems enter through the rescaling

    L^lam(t, x, v) = e^{lam t} L(x, v),

which keeps all three conditions on a finite horizon [0, T] (the rescaled
certificates are recomputed by `discount_lift`).

The catalog is one separable form, L(x, v) = sum_k m(x_k) v_k^2 / 2 - V(x)
with m(xi) = m0 + m1 cos xi and V(x) = coeff * sum_k phi(x_k) + shift; the
three constructors are parameter sets of it.  The free particle and its
discounted lift share one closed-form chord kernel.

Conventions.  All callables are vectorised.  x and v have one shape
(..., dim), the space dimension in the last axis, and t broadcasts against
their leading axes; other shapes are outside the contract (some callables
broadcast them, others raise).  eval returns shape (...), gradients return
(..., dim), hess_vv returns (..., dim, dim).  second_derivatives, when set,
returns (L_xx, L_vx, L_vt) with L_xx[..., a, b] = d_b (L_x)_a and
L_vx[..., a, b] = d_b (L_v)_a, both (..., dim, dim), and L_vt either 0.0
(time-independent L) or (..., dim).  The catalog and its lifts set it;
without it the action solver differences grad_x and grad_v.  A
dataclasses.replace that swaps eval, grad_x or grad_v must reset it to
None, or the solver reads second derivatives of the old L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, InvalidHorizon, NonConvergence, OutOfWindow
from .report import ProbeReport

Array = np.ndarray


@dataclass(frozen=True)
class GrowthRecord:
    """Superlinearity certificates: theta(|v|) - c0 <= L <= theta_bar(|v|).

    theta and theta_bar are vectorised maps [0, inf) -> [0, inf); c is the
    constant in |L_t| <= c (1 + L) on the certified window.
    """

    theta: Callable[[Array], Array]
    theta_bar: Callable[[Array], Array]
    c0: float
    c: float


@dataclass(frozen=True)
class AnalyticKernel:
    """Closed-form fundamental solution attached to a catalog Lagrangian.

    value(s, t, x, y) accepts y of shape (..., dim) and returns (...);
    grad_x / grad_y match.  lift(lam), when set, returns the kernel of the
    discounted lift e^{lam t} L.  The catalog's kernels are chord kernels:
    the free particle's and its lift's.
    """

    value: Callable[..., Array]
    grad_x: Callable[..., Array]
    grad_y: Callable[..., Array]
    lift: Callable[[float], AnalyticKernel] | None = None


@dataclass(frozen=True)
class Hamiltonian:
    """Convex dual H(t, x, p) with its p-gradient and a provenance tag."""

    dim: int
    eval: Callable[..., Array]
    grad_p: Callable[..., Array]
    provenance: str


@dataclass(frozen=True)
class TonelliLagrangian:
    """A Tonelli running cost with certified growth and time window.

    Operations reject times outside time_window: the certificates (and, for
    discounted lifts, boundedness of e^{lam t}) only hold there.  key and
    params are labels for reports.  The constructor attaches what it knows
    in closed form: the dual (read it through hamiltonian_for), the
    fundamental-solution kernel, and multiwell, which asks the action
    solver for extra starts on long horizons, and second_derivatives, the
    closed-form (L_xx, L_vx, L_vt) of the module docstring (None for a
    custom L: the action solver then takes central differences).  Every
    catalog entry is the separable form of the module docstring or its
    discounted lift.
    """

    dim: int
    eval: Callable[..., Array]
    grad_t: Callable[..., Array]
    grad_x: Callable[..., Array]
    grad_v: Callable[..., Array]
    hess_vv: Callable[..., Array]
    growth: GrowthRecord
    time_window: tuple[float, float]
    time_dependent: bool = False
    key: str = "custom"
    params: dict[str, Any] = field(default_factory=dict)
    kernel: AnalyticKernel | None = None
    hamiltonian: Hamiltonian | None = None
    multiwell: bool = False
    second_derivatives: Callable[..., tuple] | None = None

    def check_window(self, *times: float) -> None:
        a, b = self.time_window
        for t in times:
            if not (a <= t <= b):
                raise OutOfWindow(
                    f"time {t} outside certified window [{a}, {b}] of {self.key}"
                )


def _diag(values: Any, shape: tuple[int, ...]) -> Array:
    """Diagonal matrices (..., n, n) carrying values (broadcast to shape
    (..., n)) on their diagonals."""
    idx = np.arange(shape[-1])
    out = np.zeros(shape + (shape[-1],))
    out[..., idx, idx] = values
    return out


def _leading(t: Any, x: Array) -> Array:
    """Broadcast t against the leading shape of x (which is (..., dim))."""
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(t.shape, np.asarray(x).shape[:-1])
    return np.broadcast_to(t, shape)


# ---------------------------------------------------------------------------
# catalog potentials


def _cos_shape(xi: Array) -> tuple[Array, Array, Array]:
    c = np.cos(xi)
    return c, -np.sin(xi), -c


def _smoothstep(w: Array) -> tuple[Array, Array, Array]:
    # quintic smoothstep: C^2 with flat ends
    s = w**3 * (10.0 - 15.0 * w + 6.0 * w**2)
    ds = 30.0 * w**2 * (1.0 - 2.0 * w + w**2)
    dds = 60.0 * w * (1.0 - 3.0 * w + 2.0 * w**2)
    return s, ds, dds


def _double_well_shape(
    xi: Array, cut_lo: float, cut_hi: float
) -> tuple[Array, Array, Array]:
    """xi^4/4 - xi^2/2, blended C^2-continuously to a plateau past |xi|=cut_hi."""
    r = np.abs(xi)
    sgn = np.sign(xi)
    # raw values everywhere, then overwritten in place on the blend band
    # cut_lo < |xi| < cut_hi and on the plateau
    f = np.asarray(r**4 / 4.0 - r**2 / 2.0)
    df = np.asarray(r**3 - r)
    ddf = np.asarray(3.0 * r**2 - 1.0)
    plateau = cut_hi**4 / 4.0 - cut_hi**2 / 2.0

    band = (r > cut_lo) & (r < cut_hi)
    if band.any():
        raw, draw, ddraw = f[band], df[band], ddf[band]
        s, ds, dds = _smoothstep((r[band] - cut_lo) / (cut_hi - cut_lo))
        ds = ds / (cut_hi - cut_lo)
        dds = dds / (cut_hi - cut_lo) ** 2
        f[band] = (1.0 - s) * raw + s * plateau
        df[band] = (1.0 - s) * draw + ds * (plateau - raw)
        ddf[band] = (1.0 - s) * ddraw - 2.0 * ds * draw + dds * (plateau - raw)
    outer = r >= cut_hi
    if outer.any():
        f[outer] = plateau
        df[outer] = 0.0
        ddf[outer] = 0.0
    return f, sgn * df, ddf


_SHAPES: dict[str, Callable[..., tuple[Array, Array, Array]]] = {
    "cos": lambda xi, cut_lo, cut_hi: _cos_shape(xi),
    "double_well": _double_well_shape,
}


def _shape_range(potential: str, cut_lo: float, cut_hi: float) -> tuple[float, float]:
    # dense sample is exact enough for certificates (shapes are 1D and tame)
    xi = np.linspace(-cut_hi - 1.0, cut_hi + 1.0, 20001)
    f, _, _ = _SHAPES[potential](xi, cut_lo, cut_hi)
    return float(f.min()), float(f.max())


# ---------------------------------------------------------------------------
# catalog Lagrangians: one separable form

# certified time window of every catalog Lagrangian
_WINDOW = (-100.0, 100.0)


def _chord_kernel(clock: Callable[[Any], Array], k: float,
                  lift: Callable[[float], AnalyticKernel] | None = None
                  ) -> AnalyticKernel:
    """Kernel whose minimizer runs the chord x -> y on the clock c:
    xi(tau) = x + (c(tau) - c(s)) / (c(t) - c(s)) (y - x), and A_{s,t}(x, y) =
    |y - x|^2 / (2 span) with span = (c(t) - c(s)) / k.  The free particle has
    c = tau, k = 1; its lift e^{lam tau}|v|^2/2 has c = -e^{-lam tau}, k = lam."""
    def span(s, t):
        return (clock(t) - clock(s)) / k

    def value(s, t, x, y):
        d = np.asarray(y, float) - np.asarray(x, float)
        return np.sum(d * d, axis=-1) / (2.0 * span(s, t))

    def grad_y(s, t, x, y):
        return (np.asarray(y, float) - np.asarray(x, float)) / span(s, t)

    def grad_x(s, t, x, y):
        return -(np.asarray(y, float) - np.asarray(x, float)) / span(s, t)

    return AnalyticKernel(value=value, grad_x=grad_x, grad_y=grad_y, lift=lift)


def _separable(dim: int, key: str, params: dict[str, Any], m0: float = 1.0,
               m1: float = 0.0, potential: str | None = None, coeff: float = 0.0,
               shift: float = 0.0, cutoff: tuple[float, float] = (2.5, 3.5),
               kernel: AnalyticKernel | None = None) -> TonelliLagrangian:
    """L(x, v) = sum_k m(x_k) v_k^2 / 2 - V(x), m(xi) = m0 + m1 cos xi and
    V(x) = coeff * sum_k phi(x_k) + shift (V = 0 without a potential), with
    its closed-form dual sum_k p_k^2 / (2 m(x_k)) + V(x), diagonal second
    derivatives and growth record.  Exact identities (m = 1, m' = 0, V = 0,
    V = shift when coeff = 0) are skipped: they cost no pass."""
    cut_lo, cut_hi = cutoff
    shape = _SHAPES.get(potential)
    unit = m0 == 1.0 and not m1

    def mass(x):
        return m0 + m1 * np.cos(np.asarray(x, float)) if m1 else m0

    def V(x):
        if not coeff:
            return np.full(np.shape(x)[:-1], float(shift))
        f, _, _ = shape(np.asarray(x, float), cut_lo, cut_hi)
        return coeff * np.sum(f, axis=-1) + shift

    def force(x):
        if not coeff:
            return np.zeros(np.shape(x))
        _, df, _ = shape(np.asarray(x, float), cut_lo, cut_hi)
        return -coeff * df

    def ev(t, x, v):
        v = np.asarray(v, float)
        kin = np.sum(v * v if unit else mass(x) * v * v, axis=-1) / 2.0
        return kin - V(x) if shape else kin

    def gt(t, x, v):
        return np.zeros(np.asarray(v, float).shape[:-1])

    def gx(t, x, v):
        # m'(x_k) v_k^2 / 2 - coeff * phi'(x_k)
        v = np.asarray(v, float)
        if not m1:
            return force(x) if shape else np.zeros_like(v)
        kin = -0.5 * m1 * np.sin(np.asarray(x, float)) * v * v
        return kin + force(x) if shape else kin

    def gv(t, x, v):
        v = np.asarray(v, float)
        return v.copy() if unit else mass(x) * v

    def hvv(t, x, v):
        return _diag(mass(x), np.shape(v))

    def d2(t, x, v):
        # L_xx = diag(m''(x_k) v_k^2 / 2 - coeff * phi''(x_k)),
        # L_vx = diag(m'(x_k) v_k), L_vt = 0
        x, v = np.asarray(x, float), np.asarray(v, float)
        lxx = -0.5 * m1 * np.cos(x) * v * v if m1 else 0.0
        lvx = -m1 * np.sin(x) * v if m1 else 0.0
        if coeff:
            _, _, ddf = shape(x, cut_lo, cut_hi)
            lxx = lxx - coeff * ddf
        return _diag(lxx, v.shape), _diag(lvx, v.shape), 0.0

    def H(t, x, p):
        p = np.asarray(p, float)
        h = np.sum(p ** 2 if unit else p ** 2 / mass(x), axis=-1) / 2.0
        return h + V(x) if shape else h

    def H_p(t, x, p):
        p = np.asarray(p, float)
        return p.copy() if unit else p / mass(x)

    lo, hi = _shape_range(potential, cut_lo, cut_hi) if shape else (0.0, 0.0)
    v_lo = min(coeff * lo, coeff * hi) * dim + shift
    v_hi = max(coeff * lo, coeff * hi) * dim + shift
    growth = GrowthRecord(
        theta=lambda r: (m0 - abs(m1)) * np.asarray(r, float) ** 2 / 2.0,
        theta_bar=lambda r, b=max(0.0, -v_lo):
            (m0 + abs(m1)) * np.asarray(r, float) ** 2 / 2.0 + b,
        c0=max(0.0, v_hi), c=0.0)
    return TonelliLagrangian(
        dim=dim, eval=ev, grad_t=gt, grad_x=gx, grad_v=gv, hess_vv=hvv,
        growth=growth, time_window=_WINDOW, key=key, params=params, kernel=kernel,
        hamiltonian=Hamiltonian(dim=dim, eval=H, grad_p=H_p, provenance="closed-form"),
        multiwell=potential == "double_well", second_derivatives=d2)


def free_lagrangian(dim: int = 1) -> TonelliLagrangian:
    """L(x, v) = |v|^2 / 2, with the chord kernel and its discounted lift."""
    def lift(lam):
        return _chord_kernel(lambda tau: -np.exp(-lam * tau), lam)

    kernel = _chord_kernel(lambda tau: tau, 1.0, lift=lift)
    return _separable(dim, "free", {"dim": dim}, kernel=kernel)


def mechanical_lagrangian(
    dim: int = 1,
    potential: str = "cos",
    coeff: float = 1.0,
    shift: float = 0.0,
    cutoff: tuple[float, float] = (2.5, 3.5),
) -> TonelliLagrangian:
    """L(x, v) = |v|^2 / 2 - V(x) with V(x) = coeff * sum_k phi(x_k) + shift.

    phi is "cos" or "double_well" (the latter blended to a plateau outside
    |x_k| = cutoff so the upper growth profile stays global).  The classical
    sign convention keeps V a mechanical potential; pass coeff = -1.0 to add
    phi as a running cost instead.
    """
    if potential not in _SHAPES:
        raise ConfigError(f"unknown potential {potential!r}")
    params = {"dim": dim, "potential": potential, "coeff": coeff, "shift": shift,
              "cutoff": list(cutoff)}
    return _separable(dim, "mechanical", params, potential=potential,
                      coeff=coeff, shift=shift, cutoff=cutoff)


def anisotropic_lagrangian(
    dim: int = 2,
    m0: float = 1.0,
    m1: float = 0.3,
) -> TonelliLagrangian:
    """L(x, v) = <M(x) v, v> / 2 with M(x) = diag(m0 + m1 cos x_k).

    Requires m0 > |m1| so M stays uniformly positive definite.
    """
    if not m0 > abs(m1):
        raise ConfigError("anisotropic metric needs m0 > |m1|")
    return _separable(dim, "anisotropic", {"dim": dim, "m0": m0, "m1": m1},
                      m0=m0, m1=m1)


_CATALOG: dict[str, Callable[..., TonelliLagrangian]] = {
    "free": free_lagrangian,
    "mechanical": mechanical_lagrangian,
    "anisotropic": anisotropic_lagrangian,
}


def catalog(key: str, **params: Any) -> TonelliLagrangian:
    """Build a catalog Lagrangian by key with keyword parameters."""
    if key not in _CATALOG:
        raise ConfigError(f"unknown Lagrangian key {key!r}; have {sorted(_CATALOG)}")
    return _CATALOG[key](**params)


# ---------------------------------------------------------------------------
# discounted lift


def discount_lift(L: TonelliLagrangian, lam: float, horizon: float) -> TonelliLagrangian:
    """L^lam(t, x, v) = e^{lam t} L(x, v) on the certified window [0, horizon].

    Growth certificates are rescaled by e^{lam T}; the time-derivative
    constant is set to c = lam (1 + c0 e^{lam T}).  Only stationary inputs
    are accepted: the lift is where the time dependence comes from.  The
    lift keeps L's multiwell flag, carries the kernel's lift(lam) when L's
    kernel has one, lifts L's second_derivatives when L has them, and has
    no attached dual: hamiltonian_for falls back to the Legendre transform
    of the lifted L.
    """
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ConfigError(f"discount rate must be positive, got {lam}")
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise InvalidHorizon(f"horizon must be positive and finite, got {horizon}")
    if L.time_dependent:
        raise ConfigError("discount_lift expects a time-independent Lagrangian")

    amp = float(np.exp(lam * horizon))

    def w(t):
        # e^{lam t} at t's own shape, which broadcasts against the leading
        # axes of x and v in the products below
        return np.exp(lam * np.asarray(t, float))

    def ev(t, x, v):
        return w(t) * L.eval(t, x, v)

    def gt(t, x, v):
        return lam * w(t) * L.eval(t, x, v)

    def gx(t, x, v):
        return w(t)[..., None] * L.grad_x(t, x, v)

    def gv(t, x, v):
        return w(t)[..., None] * L.grad_v(t, x, v)

    def hvv(t, x, v):
        return w(t)[..., None, None] * L.hess_vv(t, x, v)

    def d2(t, x, v):
        # e^{lam t} scales L_xx and L_vx; L_vt = lam e^{lam t} L_v
        wt = w(t)[..., None]
        lxx, lvx, _ = L.second_derivatives(t, x, v)
        return (wt[..., None] * lxx, wt[..., None] * lvx,
                lam * wt * L.grad_v(t, x, v))

    base = L.growth
    growth = GrowthRecord(
        theta=base.theta,
        theta_bar=lambda r: amp * base.theta_bar(r),
        c0=base.c0 * amp,
        c=lam * (1.0 + base.c0 * amp),
    )
    lift = L.kernel.lift if L.kernel is not None else None
    return TonelliLagrangian(
        dim=L.dim, eval=ev, grad_t=gt, grad_x=gx, grad_v=gv, hess_vv=hvv,
        growth=growth, time_window=(0.0, horizon), time_dependent=True,
        key=f"discounted({L.key})",
        params={"base": L.key, "base_params": dict(L.params), "lam": lam,
                "horizon": horizon},
        kernel=lift(lam) if lift is not None else None, multiwell=L.multiwell,
        second_derivatives=d2 if L.second_derivatives is not None else None,
    )


# ---------------------------------------------------------------------------
# Legendre transform and Hamiltonians

# Newton stopping rule: residual |L_v - p| <= _LEGENDRE_TOL (1 + |p|)
_LEGENDRE_TOL = 1e-10
_LEGENDRE_MAX_ITER = 100


@dataclass(frozen=True)
class LegendreResult:
    value: float
    argmax: Array
    iterations: int
    residual: float


def legendre_transform(
    L: TonelliLagrangian,
    t: float,
    x: Array,
    p: Array,
) -> LegendreResult:
    """H(t, x, p) = sup_v { <p, v> - L(t, x, v) } by damped Newton on L_v = p.

    Starts from v = 0; each step is backtracked until the residual norm
    decreases (strong convexity makes the full step correct away from
    pathologies), and stops at a residual of _LEGENDRE_TOL (1 + |p|).
    Raises NonConvergence past _LEGENDRE_MAX_ITER steps.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    v = np.zeros_like(p)
    scale = 1.0 + float(np.linalg.norm(p))
    res = L.grad_v(t, x, v) - p
    rnorm = float(np.linalg.norm(res))
    it = 0
    while rnorm > _LEGENDRE_TOL * scale:
        if it >= _LEGENDRE_MAX_ITER:
            raise NonConvergence(f"legendre transform: residual {rnorm:.3e} "
                                 f"after {_LEGENDRE_MAX_ITER} iterations")
        step = np.linalg.solve(L.hess_vv(t, x, v), -res)
        alpha = 1.0
        for _ in range(50):
            v_new = v + alpha * step
            res_new = L.grad_v(t, x, v_new) - p
            rn = float(np.linalg.norm(res_new))
            if rn < rnorm:
                break
            alpha *= 0.5
        else:
            raise NonConvergence("legendre transform: damping stalled")
        v, res, rnorm = v_new, res_new, rn
        it += 1
    value = float(np.dot(p, v) - L.eval(t, x, v))
    return LegendreResult(value=value, argmax=v, iterations=it, residual=rnorm)


def hamiltonian_for(L: TonelliLagrangian) -> Hamiltonian:
    """The dual its constructor attached to L, else a Newton-backed dual.

    The fallback evaluates legendre_transform point by point, each point at
    its own time (t broadcasts against the leading shape of x and p), so
    any Tonelli L gets a correct H whatever its key says.
    """
    if L.hamiltonian is not None:
        return L.hamiltonian

    def transforms(t, x, p):
        x, p = np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float))
        ts = _leading(t, p)
        flat_x, flat_p = (np.broadcast_to(a, ts.shape + (L.dim,)).reshape(-1, L.dim)
                          for a in (x, p))
        return ts.shape, [legendre_transform(L, ti, xi, pi)
                          for ti, xi, pi in zip(ts.ravel(), flat_x, flat_p)]

    def ev(t, x, p):
        shape, res = transforms(t, x, p)
        return np.array([r.value for r in res]).reshape(shape)

    def gp(t, x, p):
        shape, res = transforms(t, x, p)
        return np.array([r.argmax for r in res]).reshape(shape + (L.dim,))

    return Hamiltonian(dim=L.dim, eval=ev, grad_p=gp, provenance="legendre-of-L")


# ---------------------------------------------------------------------------
# certificate verification


# verify_tonelli's sample: _TONELLI_SAMPLES draws of (t, x, v) with t in the
# certified window clipped to [-1, 1] (the whole window if that is empty) and
# every coordinate of x and v in _TONELLI_BOX
_TONELLI_SAMPLES = 10000
_TONELLI_BOX = (-3.0, 3.0)
_TONELLI_SEED = 0


def verify_tonelli(L: TonelliLagrangian) -> ProbeReport:
    """Sample (t, x, v) and check (L1)-(L3) against the stored certificates.

    The report lists the minimal eigenvalue of L_vv, the worst growth-bound
    slacks, and the worst finite (L3) ratio |L_t| / (1 + L); samples where
    1 + L <= 0 while |L_t| > 0 are genuine (L3) violations and recorded.
    """
    a, b = L.time_window
    ta, tb = max(a, -1.0), min(b, 1.0)
    if not ta < tb:
        ta, tb = a, b
    n = _TONELLI_SAMPLES
    rng = np.random.default_rng(_TONELLI_SEED)
    t = rng.uniform(ta, tb, n)
    x = rng.uniform(*_TONELLI_BOX, (n, L.dim))
    v = rng.uniform(*_TONELLI_BOX, (n, L.dim))

    vals = L.eval(t, x, v)
    hess = L.hess_vv(t, x, v)
    eigs = np.linalg.eigvalsh(hess)
    min_eig = float(eigs.min())

    speed = np.linalg.norm(v, axis=-1)
    slack_lo = vals - (L.growth.theta(speed) - L.growth.c0)
    slack_hi = L.growth.theta_bar(speed) - vals

    lt = np.abs(L.grad_t(t, x, v))
    den = 1.0 + vals
    c = L.growth.c
    l3_slack = c * den - lt
    pos = den > 1e-12
    worst_ratio = float(np.max(lt[pos] / den[pos])) if pos.any() else 0.0

    report = ProbeReport(name=f"verify_tonelli({L.key})", samples=n)
    report.constants = {
        "min_eig_hess_vv": min_eig,
        "worst_growth_slack_lower": float(slack_lo.min()),
        "worst_growth_slack_upper": float(slack_hi.min()),
        "worst_L3_ratio": worst_ratio,
        "L3_constant": c,
    }
    tol = 1e-9
    report.record_slack(min_eig, tol=0.0, check="hess_vv_positive")
    report.record_slack(float(slack_lo.min()), tol=tol, check="growth_lower")
    report.record_slack(float(slack_hi.min()), tol=tol, check="growth_upper")
    bad = l3_slack < -tol * (1.0 + np.abs(vals))
    report.constants["L3_violation_count"] = int(bad.sum())
    if bad.any():
        idx = np.flatnonzero(bad)[:10]
        for i in idx:
            report.violations.append({
                "check": "L3",
                "t": float(t[i]),
                "x": x[i].tolist(),
                "v": v[i].tolist(),
                "slack": float(l3_slack[i]),
            })
        report.worst_slack = min(report.worst_slack, float(l3_slack.min()))
    else:
        report.record_slack(float(l3_slack.min()), tol=tol, check="L3")
    return report
