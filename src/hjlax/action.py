"""Fundamental solutions by direct action minimization.

A_{s,t}(x, y) = inf { integral_s^t L(tau, xi, xidot) dtau } over absolutely
continuous arcs joining x at time s to y at time t.  Minimizers are computed
in two phases:

  1. descent on the interior nodes of a piecewise-linear arc, with the
     action evaluated by composite 3-point Gauss quadrature per segment and
     an analytic gradient (L-BFGS);
  2. collocation refinement of the Euler-Lagrange system
     d/dtau L_v(tau, xi, xidot) = L_x(tau, xi, xidot), solved as a two-point
     boundary value problem by damped Newton on a C^1 piecewise-cubic
     (Hermite) representation, seeded with the phase-1 polyline and
     three-point finite-difference node velocities.

Each minimizer comes from one collocation solve, certified by the
Euler-Lagrange residual of the collocation spline; a failed solve, a
residual above tolerance, or an arc whose action exceeds the phase-1 value
raises NoConvergence.

The dual arc p(tau) = L_v(tau, xi(tau), xidot(tau)) comes out exactly
Hermite-consistent, and the endpoint gradients are read off the minimizer:
D_y A = L_v at time t, D_x A = -L_v at time s.

The probe_* functions sweep minimize_action over sampled endpoint families
and tabulate the empirical regularity constants (velocity/momentum bounds,
compact containment, semiconcavity in (t, y), local uniform convexity in y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.integrate import solve_bvp
from scipy.optimize import minimize

from .errors import ConeViolation, ConfigError, NoConvergence
from .lagrangian import TonelliLagrangian
from .report import ProbeReport, write_csv

Array = np.ndarray

# 3-point Gauss-Legendre on [0, 1]
_GAUSS3_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
_GAUSS5_NODES, _GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GAUSS5_NODES = (_GAUSS5_NODES + 1.0) / 2.0
_GAUSS5_WEIGHTS = _GAUSS5_WEIGHTS / 2.0


@dataclass
class Curve:
    """C^1 arc stored as Hermite data: node times, positions, velocities."""

    times: Array
    points: Array
    velocities: Array

    def at(self, taus: Array, deriv: int = 0) -> Array:
        """Evaluate the cubic Hermite interpolant (deriv=1 velocity,
        deriv=2 acceleration, both exact derivatives of the cubic)."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        idx = np.clip(np.searchsorted(self.times, taus, side="right") - 1,
                      0, len(self.times) - 2)
        t0 = self.times[idx]
        h = self.times[idx + 1] - t0
        s = ((taus - t0) / h)[:, None]
        p0, p1 = self.points[idx], self.points[idx + 1]
        v0, v1 = self.velocities[idx], self.velocities[idx + 1]
        hh = h[:, None]
        if deriv == 0:
            h00 = 2 * s**3 - 3 * s**2 + 1
            h10 = s**3 - 2 * s**2 + s
            h01 = -2 * s**3 + 3 * s**2
            h11 = s**3 - s**2
            return h00 * p0 + h10 * hh * v0 + h01 * p1 + h11 * hh * v1
        if deriv == 1:
            d00 = (6 * s**2 - 6 * s) / hh
            d10 = 3 * s**2 - 4 * s + 1
            d01 = (6 * s - 6 * s**2) / hh
            d11 = 3 * s**2 - 2 * s
            return d00 * p0 + d10 * v0 + d01 * p1 + d11 * v1
        a00 = (12 * s - 6) / hh**2
        a10 = (6 * s - 4) / hh
        a01 = (6 - 12 * s) / hh**2
        a11 = (6 * s - 2) / hh
        return a00 * p0 + a10 * v0 + a01 * p1 + a11 * v1


@dataclass
class DualArc:
    """Momenta along a minimizer: p(tau) = L_v(tau, xi(tau), xidot(tau))."""

    times: Array
    positions: Array
    momenta: Array


@dataclass
class FundamentalSolution:
    """Minimized action with its arc, dual arc, endpoint gradients, and
    convergence diagnostics."""

    s: float
    t: float
    x: Array
    y: Array
    value: float
    curve: Curve
    dual: DualArc
    grad_x: Array
    grad_y: Array
    residual: float
    velocity_sup: float
    momentum_sup: float
    velocity_lipschitz: float
    n_starts: int
    phase1_value: float

    def to_csv(self, path: str) -> None:
        """Rows (tau, x_1..x_n, p_1..p_n) at the stored curve nodes."""
        n = self.curve.points.shape[1]
        cols = ["tau"] + [f"x{k+1}" for k in range(n)] + [f"p{k+1}" for k in range(n)]
        write_csv(path, cols, ([tau, *pos, *mom] for tau, pos, mom in zip(
            self.dual.times, self.dual.positions, self.dual.momenta)))


def dual_arc(fs: FundamentalSolution) -> DualArc:
    return fs.dual


# ---------------------------------------------------------------------------
# phase 1: polyline descent


def _polyline_samples(times: Array, nodes: Array
                      ) -> tuple[Array, Array, Array, Array]:
    """Gauss-3 quadrature samples of piecewise-linear arcs.

    nodes has shape (..., N+1, n); returns the segment lengths (N,) and the
    sample times, positions and velocities, each shaped (..., N, 3[, n])."""
    h = np.diff(times)                              # (N,)
    seg_lo = nodes[..., :-1, :]
    step = nodes[..., 1:, :] - seg_lo
    vel = step / h[:, None]                         # (..., N, n)
    pos = seg_lo[..., None, :] + _GAUSS3_NODES[:, None] * step[..., None, :]
    tq = times[:-1, None] + _GAUSS3_NODES[None, :] * h[:, None]   # (N, 3)
    return (h, np.broadcast_to(tq, pos.shape[:-1]), pos,
            np.broadcast_to(vel[..., None, :], pos.shape))


def _polyline_action_grad(L: TonelliLagrangian, times: Array, nodes: Array
                          ) -> tuple[float, Array]:
    """Action and its gradient w.r.t. all nodes of a piecewise-linear arc.

    nodes has shape (..., N+1, n); returns (sum of actions, gradient of the
    sum), which keeps independent arcs separable for batched descent.
    """
    h, tq, pos, velq = _polyline_samples(times, nodes)
    lvals = L.eval(tq, pos, velq)                   # (..., N, 3)
    gx = L.grad_x(tq, pos, velq)                    # (..., N, 3, n)
    gv = L.grad_v(tq, pos, velq)

    w = _GAUSS3_WEIGHTS
    action = float((((lvals * w).sum(axis=-1)) * h).sum())

    # d(action)/d(node k) = sum over adjacent segments of the chain rule
    # through position (weights sig / 1-sig) and velocity (+-1/h)
    sig = _GAUSS3_NODES
    wl = (w * (1.0 - sig))[:, None]
    wr = (w * sig)[:, None]
    gpos_lo = np.sum(gx * wl, axis=-2) * h[:, None]          # (..., N, n)
    gpos_hi = np.sum(gx * wr, axis=-2) * h[:, None]
    gvel = np.sum(gv * w[:, None], axis=-2)                  # (..., N, n)

    grad = np.zeros_like(nodes)
    grad[..., :-1, :] += gpos_lo - gvel
    grad[..., 1:, :] += gpos_hi + gvel
    return action, grad


def _phase1_descent(L: TonelliLagrangian, times: Array, init_nodes: Array,
                    maxiter: int = 500) -> tuple[Array, float]:
    """L-BFGS on the interior nodes; init_nodes is (..., N+1, n) with fixed
    first/last nodes.  Batched arcs are optimized jointly (the objective is
    their sum, which is separable)."""
    interior = init_nodes[..., 1:-1, :]

    def fun(flat: Array) -> tuple[float, Array]:
        nodes = init_nodes.copy()
        nodes[..., 1:-1, :] = flat.reshape(interior.shape)
        a, g = _polyline_action_grad(L, times, nodes)
        return a, g[..., 1:-1, :].ravel()

    if interior.size == 0:
        a, _ = _polyline_action_grad(L, times, init_nodes)
        return init_nodes, a
    res = minimize(fun, interior.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-11})
    nodes = init_nodes.copy()
    nodes[..., 1:-1, :] = res.x.reshape(interior.shape)
    return nodes, float(res.fun)


def _polyline_values(L: TonelliLagrangian, times: Array, nodes: Array) -> Array:
    """Per-arc actions of piecewise-linear arcs, shape (...,)."""
    h, tq, pos, velq = _polyline_samples(times, nodes)
    lvals = L.eval(tq, pos, velq)
    return np.sum((lvals * _GAUSS3_WEIGHTS).sum(axis=-1) * h, axis=-1)


def action_values_batch(L: TonelliLagrangian, s: float, t: float, x: Array,
                        y: Array, n_segments: int = 12) -> Array:
    """Phase-1-only action values A_{s,t}(x_b, y_b) of a batch of arcs.

    x and y (..., n) broadcast against each other; the result has their
    batch shape.  Used for ranking candidate maximizers inside operator
    scans; accuracy is O((t-s)^2 / n_segments^2), refine the selected
    candidate afterwards.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    times = np.linspace(s, t, n_segments + 1)
    frac = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    init = x[..., None, :] + frac * (y - x)[..., None, :]
    nodes, _ = _phase1_descent(L, times, init, maxiter=400)
    return _polyline_values(L, times, nodes)


# ---------------------------------------------------------------------------
# phase 2: Euler-Lagrange collocation


def _el_terms(L: TonelliLagrangian, tau: Array, pos: Array, vel: Array
              ) -> tuple[Array, Array]:
    """(L_x - L_vt - L_vx xidot, L_vv) at sampled states, so that the
    Euler-Lagrange equation reads L_vv xiddot = first term.

    The mixed second derivatives are directional central differences of
    grad_v, which keeps the Lagrangian interface at first derivatives plus
    L_vv.  Vectorised over trailing sample axes (pos, vel are (m, n))."""
    force = L.grad_x(tau, pos, vel)
    if L.time_dependent:
        dt = 1e-5 * (1.0 + np.abs(tau))
        gv_p = L.grad_v(tau + dt, pos, vel)
        gv_m = L.grad_v(tau - dt, pos, vel)
        force = force - (gv_p - gv_m) / (2.0 * dt[..., None])
    speed = np.linalg.norm(vel, axis=-1, keepdims=True)
    dx = 1e-5 * (1.0 + np.linalg.norm(pos, axis=-1, keepdims=True)) / np.maximum(speed, 1.0)
    gv_p = L.grad_v(tau, pos + dx * vel, vel)
    gv_m = L.grad_v(tau, pos - dx * vel, vel)
    force = force - (gv_p - gv_m) / (2.0 * dx)
    return force, L.hess_vv(tau, pos, vel)


def _curve_action(L: TonelliLagrangian, curve: Curve) -> float:
    """Composite 5-point Gauss quadrature of L along the Hermite arc."""
    t0 = curve.times[:-1]
    h = np.diff(curve.times)
    taus = (t0[:, None] + _GAUSS5_NODES[None, :] * h[:, None]).ravel()
    pos = curve.at(taus)
    vel = curve.at(taus, deriv=1)
    lvals = L.eval(taus, pos, vel).reshape(len(h), -1)
    return float(np.sum(lvals @ _GAUSS5_WEIGHTS * h))


def _bent_inits(x: Array, y: Array, frac: Array, k: int, rng: np.random.Generator,
                scale: float) -> Array:
    """Randomized bent polyline starts: straight line plus a sine bump with
    random amplitude and direction."""
    n = x.shape[0]
    base = x[None, :] + frac[:, None] * (y - x)[None, :]
    bump = np.sin(np.pi * frac)[:, None]
    arcs = []
    for _ in range(k):
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-12)
        amp = rng.uniform(0.3, 1.0) * scale
        arcs.append(base + amp * bump * direction[None, :])
    return np.stack(arcs, axis=0)


def minimize_action(
    L: TonelliLagrangian,
    s: float,
    t: float,
    x: Array,
    y: Array,
    n_segments: int = 16,
    tol: float = 1e-8,
    seed: int = 0,
) -> FundamentalSolution:
    """Compute A_{s,t}(x, y) and its minimizing arc.

    Every arc gets a straight-line start; when t - s > 0.5 and L.multiwell
    is set, 4 randomized bent starts (drawn from seed) are added.  Ties
    within 1e-9 relative are broken by the lexicographically smallest curve
    midpoint.  The best phase-1 polyline seeds one collocation solve.
    Raises NoConvergence when the collocation fails, when its
    Euler-Lagrange residual is above tol, or when it lands on an arc whose
    action exceeds the phase-1 value; OutOfWindow when [s, t] leaves the
    certified window.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not t > s:
        raise ConfigError(f"need s < t, got s={s}, t={t}")
    if n_segments < 2:
        raise ConfigError("n_segments must be at least 2")
    L.check_window(s, t)

    n_bent = 4 if (t - s > 0.5 and L.multiwell) else 0

    times = np.linspace(s, t, n_segments + 1)
    frac = np.linspace(0.0, 1.0, n_segments + 1)
    straight = x[None, :] + frac[:, None] * (y - x)[None, :]
    starts = [straight]
    if n_bent > 0:
        rng = np.random.default_rng(seed)
        scale = max(1.0, float(np.linalg.norm(y - x)))
        starts.extend(_bent_inits(x, y, frac, n_bent, rng, scale))

    best: tuple[float, Array] | None = None
    for init in starts:
        nodes, val = _phase1_descent(L, times, init)
        if best is None or val < best[0] - 1e-9 * (1.0 + abs(best[0])):
            best = (val, nodes)
        elif abs(val - best[0]) <= 1e-9 * (1.0 + abs(best[0])):
            mid_new = nodes[len(nodes) // 2]
            mid_old = best[1][len(best[1]) // 2]
            if tuple(mid_new) < tuple(mid_old):
                best = (val, nodes)
    phase1_value, nodes = best

    curve, residual = _refine_curve(L, times, nodes, tol)
    taus = curve.times
    pos = curve.points
    vel = curve.velocities
    momenta = L.grad_v(taus, pos, vel)
    if residual > tol * (1.0 + float(np.abs(momenta).max())):
        raise NoConvergence(
            f"Euler-Lagrange residual {residual:.3e} above tolerance {tol:.1e}"
        )
    value = _curve_action(L, curve)
    if value > phase1_value + 1e-7 * (1.0 + abs(phase1_value)):
        raise NoConvergence(
            f"collocation converged to a worse stationary point: action "
            f"{value:.10g} above the phase-1 value {phase1_value:.10g}"
        )

    vel_norms = np.linalg.norm(vel, axis=-1)
    dv = np.linalg.norm(np.diff(vel, axis=0), axis=-1)
    dtau = np.diff(taus)
    vel_lip = float((dv / dtau).max()) if len(taus) > 1 else 0.0

    return FundamentalSolution(
        s=s, t=t, x=x, y=y, value=value, curve=curve,
        dual=DualArc(times=taus, positions=pos, momenta=momenta),
        grad_x=-momenta[0], grad_y=momenta[-1],
        residual=residual,
        velocity_sup=float(vel_norms.max()),
        momentum_sup=float(np.linalg.norm(momenta, axis=-1).max()),
        velocity_lipschitz=vel_lip,
        n_starts=len(starts),
        phase1_value=phase1_value,
    )


def _subdivide(mesh: Array, fractions: Sequence[float]) -> Array:
    """mesh with extra points at the given fractions of every interval."""
    return np.sort(np.concatenate(
        [mesh] + [mesh[:-1] + f * np.diff(mesh) for f in fractions]))


def _refine_curve(L: TonelliLagrangian, times: Array, nodes: Array, tol: float
                  ) -> tuple[Curve, float]:
    """Collocation solve of the Euler-Lagrange system seeded with the
    polyline nodes and three-point finite-difference node velocities.
    Returns the arc and the Euler-Lagrange defect of the collocation spline
    itself (exact spline derivatives, at nodes, midpoints and quarter
    points)."""
    n = nodes.shape[1]
    vel0 = np.gradient(nodes, times, axis=0, edge_order=2)
    x0, y_end = nodes[0], nodes[-1]

    def rhs(tau, state):
        force, hess = _el_terms(L, tau, state[:n].T, state[n:].T)
        acc = np.linalg.solve(hess, force[..., None])[..., 0]
        return np.vstack([state[n:], acc.T])

    def bc(ya, yb):
        return np.concatenate([ya[:n] - x0, yb[:n] - y_end])

    try:
        sol = solve_bvp(rhs, bc, times, np.vstack([nodes.T, vel0.T]),
                        tol=max(tol * 0.1, 1e-9), max_nodes=4000)
    except Exception as exc:  # singular Jacobian etc.
        raise NoConvergence(f"collocation refinement failed: {exc}") from exc
    if sol.status != 0:
        raise NoConvergence(f"collocation refinement: {sol.message}")

    mesh = sol.x
    taus = _subdivide(mesh, (0.25, 0.5, 0.75))
    state = sol.sol(taus)
    dstate = sol.sol(taus, 1)
    force, hess = _el_terms(L, taus, state[:n].T, state[n:].T)
    defect = np.einsum("...ij,...j->...i", hess, dstate[n:].T) - force
    consistency = np.linalg.norm(dstate[:n] - state[n:], axis=0)
    residual = float(max(np.linalg.norm(defect, axis=-1).max(),
                         consistency.max()))

    # store the arc on a 3x-refined mesh so downstream Hermite evaluation
    # keeps the collocation accuracy
    fine = _subdivide(mesh, (1 / 3, 2 / 3)) if len(mesh) <= 400 else mesh
    state = sol.sol(fine)
    return Curve(times=fine, points=state[:n].T.copy(),
                 velocities=state[n:].T.copy()), residual


def gradients_A(fs: FundamentalSolution,
                cone: tuple[float, float] | None = None) -> tuple[Array, Array]:
    """Endpoint gradients (D_x A, D_y A) of a converged fundamental solution.

    When a certified cone (T_prime, lam_cone) is supplied, raise
    ConeViolation if (t - s, |y - x|) falls outside it.
    """
    if cone is not None:
        T_prime, lam_cone = cone
        dt = fs.t - fs.s
        dist = float(np.linalg.norm(fs.y - fs.x))
        if dt > T_prime or dist > lam_cone * dt:
            raise ConeViolation(
                f"(t-s, |y-x|) = ({dt:.4g}, {dist:.4g}) outside cone "
                f"T'={T_prime:.4g}, lam={lam_cone:.4g}"
            )
    return fs.grad_x.copy(), fs.grad_y.copy()


# ---------------------------------------------------------------------------
# probes: empirical regularity constants


def _ball_samples(rng: np.random.Generator, center: Array, radius: float,
                  count: int, boundary_half: bool = True) -> Array:
    """Sample points of B(center, radius); even indices sit on the sphere so
    the sampled sup actually attains the radius."""
    n = center.shape[0]
    dirs = rng.standard_normal((count, n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    radii = rng.uniform(0.0, 1.0, count) ** (1.0 / n) * radius
    if boundary_half:
        radii[::2] = radius
    return center[None, :] + dirs * radii[:, None]


def probe_velocity_bounds(
    L: TonelliLagrangian,
    x: Array,
    R: float,
    time_pairs: Sequence[tuple[float, float]],
    n_samples: int = 200,
    seed: int = 0,
) -> ProbeReport:
    """Tabulate sup |xidot|, sup |p|, sup |xi - x| against r = R / (t - s).

    The empirical table plays the role of a nondecreasing r -> kappa(r); a
    decrease beyond relative tolerance 1e-6 is recorded as a violation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)
    rows = []
    for (s, t) in time_pairs:
        ratio = R / (t - s)
        vmax = pmax = dmax = 0.0
        ys = _ball_samples(rng, x, R, n_samples)
        for y in ys:
            fs = minimize_action(L, s, t, x, y)
            vmax = max(vmax, fs.velocity_sup)
            pmax = max(pmax, fs.momentum_sup)
            dmax = max(dmax, float(np.linalg.norm(fs.curve.points - x,
                                                  axis=-1).max()))
        rows.append((ratio, vmax, pmax, dmax))
    rows.sort(key=lambda r: r[0])

    report = ProbeReport(name="velocity_bounds", samples=n_samples * len(time_pairs))
    report.constants = {
        "ratios": [r[0] for r in rows],
        "kappa_velocity": [r[1] for r in rows],
        "kappa_momentum": [r[2] for r in rows],
        "kappa_position": [r[3] for r in rows],
    }
    for i in range(1, len(rows)):
        for j, label in ((1, "velocity"), (2, "momentum")):
            slack = rows[i][j] - rows[i - 1][j]
            report.record_slack(slack, tol=1e-6 * (1.0 + rows[i][j]),
                                check=f"kappa_{label}_nondecreasing",
                                ratio=rows[i][0])
    if not rows:
        report.worst_slack = 0.0
    return report


def probe_compact_containment(
    L: TonelliLagrangian,
    x: Array,
    s: float,
    t: float,
    lam_cone: float,
    n_samples: int = 200,
    seed: int = 0,
) -> ProbeReport:
    """Check that perturbed-endpoint minimizers stay in the compact set
    [s, s+1] x B(x, kappa(4 lam)) x B(0, kappa(4 lam)).

    kappa(4 lam) is measured first from endpoint families at ratio exactly
    4 lam_cone across the relevant durations, then the perturbation family
    (|y - x| < lam T, |z| < lam T, s - T/2 < h < 1 - T) is swept.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    T = t - s
    rng = np.random.default_rng(seed)

    durations = [T / 2 * 1.01, T, min(1.0 - 1e-6, T * 1.5)]
    kappa4 = 0.0
    for d in durations:
        R4 = 4.0 * lam_cone * d
        ys = _ball_samples(rng, x, R4, max(8, n_samples // 10))
        for y in ys:
            fs = minimize_action(L, s, s + d, x, y)
            kappa4 = max(kappa4, fs.velocity_sup, fs.momentum_sup,
                         float(np.linalg.norm(fs.curve.points - x, axis=-1).max()))
    bound = kappa4 * 1.02 + 1e-9

    report = ProbeReport(name="compact_containment", samples=n_samples)
    report.constants = {"kappa_4lam": kappa4, "declared_bound": bound,
                        "lam_cone": lam_cone, "T": T}
    a_win, b_win = L.time_window
    for _ in range(n_samples):
        y = _ball_samples(rng, x, lam_cone * T, 1, boundary_half=False)[0]
        z = _ball_samples(rng, np.zeros_like(x), lam_cone * T, 1,
                          boundary_half=False)[0]
        h_lo = -T / 2.0 * 0.999
        h_hi = min(1.0 - T, float(b_win) - t) - 1e-9
        if h_hi <= h_lo:
            raise ConfigError("time window too short for the perturbation family")
        h = rng.uniform(h_lo, h_hi)
        t_end = t + h
        if not (t_end > s + 1e-9 and t_end <= b_win and t_end - s <= 1.0):
            continue
        fs = minimize_action(L, s, t_end, x, y + z)
        pos_dev = float(np.linalg.norm(fs.curve.points - x, axis=-1).max())
        report.record_slack(bound - fs.velocity_sup, check="velocity_box",
                            h=h, duration=t_end - s)
        report.record_slack(bound - fs.momentum_sup, check="momentum_box",
                            h=h, duration=t_end - s)
        report.record_slack(bound - pos_dev, check="position_box",
                            h=h, duration=t_end - s)
    return report


def _perturbation_family(rng: np.random.Generator, dim: int, lamT: float,
                         h_cap: float, count: int, with_time: bool
                         ) -> tuple[Array, Array]:
    zs = _ball_samples(rng, np.zeros(dim), lamT * 0.999, count,
                       boundary_half=False)
    # keep |z| away from 0 so defect ratios stay well conditioned
    norms = np.linalg.norm(zs, axis=1, keepdims=True)
    small = norms[:, 0] < 0.25 * lamT
    zs[small] *= (0.3 * lamT) / np.maximum(norms[small], 1e-12)
    if with_time:
        hs = rng.uniform(-h_cap * 0.999, h_cap * 0.999, count)
    else:
        hs = np.zeros(count)
    return zs, hs


def _midpoint_defect_ratios(L: TonelliLagrangian, x: Array, s: float,
                            T: float, lam_cone: float, n_samples: int,
                            rng: np.random.Generator
                            ) -> Iterator[tuple[bool, Array, float, float]]:
    """Scaled midpoint defects of (t, y) -> A_{s,t}(x, y) around t = s + T.

    Yields (with_time, z, h, T [A(t+h, y+z) + A(t-h, y-z) - 2 A(t, y)]
    / (h^2 + |z|^2)) for seeded y in B(x, lam T) and |z| < lam T, first
    with h = 0, then with |h| < T/2.  The draws from rng come in a fixed
    order, so the semiconcavity and convexity probes see the same family.
    """
    n_y = max(4, n_samples // 8)
    n_pert = max(2, n_samples // n_y)
    t = s + T
    ys = _ball_samples(rng, x, lam_cone * T, n_y, boundary_half=False)
    for y in ys:
        base = minimize_action(L, s, t, x, y).value
        for with_time in (False, True):
            zs, hs = _perturbation_family(rng, x.shape[0], lam_cone * T,
                                          T / 2.0, n_pert, with_time)
            for z, h in zip(zs, hs):
                a_plus = minimize_action(L, s, t + h, x, y + z).value
                a_minus = minimize_action(L, s, t - h, x, y - z).value
                defect = a_plus + a_minus - 2.0 * base
                yield with_time, z, h, T * defect / (h * h + float(z @ z))


def probe_semiconcavity(
    L: TonelliLagrangian,
    x: Array,
    s: float,
    lam_cone: float = 1.0,
    T_grid: Sequence[float] = (0.1, 0.2, 0.4),
    n_samples: int = 200,
    seed: int = 0,
) -> ProbeReport:
    """Empirical space-time semiconcavity constants of (t, y) -> A_{s,t}(x, y).

    For each T < 2/3 the probe samples y in B(x, lam T), |z| < lam T,
    |h| < T/2 and records

        C(T) = max T [A(t+h, y+z) + A(t-h, y-z) - 2 A(t, y)] / (|h|^2 + |z|^2).

    C_lambda is the space-time max; C_lambda_space restricts to h = 0 (for
    the free particle that bucket equals 1 exactly, while the space-time
    constant is larger).  Violations: non-finite ratios, or C(T) tables that
    blow past 100x their minimum (loss of uniformity in the C/T scaling).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)

    report = ProbeReport(name="semiconcavity", samples=0)
    C_st: dict[float, float] = {}
    C_sp: dict[float, float] = {}
    for T in T_grid:
        if not T < 2.0 / 3.0:
            raise ConfigError(f"semiconcavity window requires T < 2/3, got {T}")
        best_st = -np.inf
        best_sp = -np.inf
        for with_time, z, h, ratio in _midpoint_defect_ratios(
                L, x, s, T, lam_cone, n_samples, rng):
            report.samples += 1
            if not np.isfinite(ratio):
                report.violations.append(
                    {"check": "finite_ratio", "T": T, "h": float(h),
                     "z": z.tolist(), "slack": float("-inf")})
                continue
            best_st = max(best_st, ratio)
            if not with_time:
                best_sp = max(best_sp, ratio)
        C_st[T] = best_st
        C_sp[T] = best_sp

    vals = np.array(list(C_st.values()))
    report.constants = {
        "T_grid": list(T_grid),
        "C_lambda_table": [C_st[T] for T in T_grid],
        "C_lambda_space_table": [C_sp[T] for T in T_grid],
        "C_lambda": float(vals.max()),
        "C_lambda_space": float(max(C_sp.values())),
    }
    spread_floor = max(float(np.abs(vals).max()), 1e-12)
    report.record_slack(100.0 * max(float(vals.min()), spread_floor * 1e-2)
                        - float(vals.max()),
                        check="uniform_in_T")
    return report


def probe_convexity(
    L: TonelliLagrangian,
    x: Array,
    s: float,
    lam_cone: float = 1.0,
    T_grid: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    n_samples: int = 200,
    seed: int = 0,
) -> ProbeReport:
    """Semiconvexity and in-space uniform convexity of A near the diagonal.

    Part (a): space-time midpoint defects bounded below,
    C''(T) = max(0, -min T defect / (h^2 + |z|^2)).  Part (b): pure spatial
    defects satisfy defect >= (C'''(T)/T) |z|^2 with C'''(T) > 0;
    T''_lambda is the largest grid T where that still holds, and a violation
    is recorded only when no grid T qualifies.  T'_lambda is the empirical
    cone height: the largest grid T whose C''(T) stays within a factor 2 of
    the smallest-T value (plus slack), i.e. where semiconvexity has not
    degraded."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)

    report = ProbeReport(name="convexity", samples=0)
    C2: dict[float, float] = {}
    C3: dict[float, float] = {}
    for T in T_grid:
        worst_neg = 0.0
        best_sp = np.inf
        for with_time, _, _, ratio in _midpoint_defect_ratios(
                L, x, s, T, lam_cone, n_samples, rng):
            report.samples += 1
            if with_time:
                worst_neg = min(worst_neg, ratio)
            else:
                best_sp = min(best_sp, ratio)
        C2[T] = max(0.0, -worst_neg)
        C3[T] = best_sp

    T_second = max((T for T in T_grid if C3[T] > 1e-9), default=None)
    c2_floor = C2[min(T_grid)]
    T_prime = max((T for T in T_grid if C2[T] <= 2.0 * c2_floor + 1e-6),
                  default=min(T_grid))
    report.constants = {
        "T_grid": list(T_grid),
        "C_doubleprime_table": [C2[T] for T in T_grid],
        "C_tripleprime_table": [C3[T] for T in T_grid],
        "C_doubleprime": max(C2.values()),
        "C_tripleprime": C3[min(T_grid)],
        "T_prime": T_prime,
        "T_second": T_second,
    }
    if T_second is None:
        report.record_slack(-1.0, check="uniform_convexity_window",
                            detail="no grid T with positive C'''")
    else:
        report.record_slack(C3[T_second], check="uniform_convexity_window")
    return report
