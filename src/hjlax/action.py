"""Fundamental solutions by direct action minimization.

A_{s,t}(x, y) = inf { integral_s^t L(tau, xi, xidot) dtau } over absolutely
continuous arcs joining x at time s to y at time t.  Every action value of
the package comes from one batched solver, _solve_arcs.  It represents each
arc of a batch as one polynomial of degree N, stored at the N+1
Legendre-Gauss-Lobatto (LGL) nodes of [s, t], with velocity D xi (D the LGL
differentiation matrix) and action the LGL quadrature of L.  Damped Newton
on the interior nodes, from the straight chord, minimizes that action, with
one stacked solve of all the arcs' Hessians per round; the second
derivatives L_xx and L_xv are L's closed forms (L.second_derivatives, set
on every catalog entry and lift), else central differences of grad_x and
grad_v.  The orders N = 8, 12, 16, 24, 32 are tried in turn, each seeded
with the previous polynomial, and an arc leaves the ladder at the first
order whose strong Euler-Lagrange residual |d/dtau L_v - L_x| certifies
it; an arc that no order certifies raises NonConvergence.

action_values_batch returns the certified values of a batch of arcs (the
Lax-Oleinik scan).  minimize_action solves one endpoint pair and returns
its arc as Hermite data: the polynomial's positions and velocities at
8N+1 uniform times.  The momenta p(tau) = L_v(tau, xi(tau), xidot(tau))
are stored at those times.  Either way the endpoint gradients are read off
the momenta: D_y A = L_v at time t, D_x A = -L_v at time s.

The probe_* functions solve each sampled family that shares its (s, t) in
one _solve_arcs call, and each arc with its own end time alone, and
tabulate the empirical regularity constants (velocity/momentum bounds,
compact containment, and, from one midpoint-defect family, semiconcavity
in (t, y) and local uniform convexity in y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError
# bound but not called: bench/spans.py wraps these names when it traces
from scipy.integrate import solve_bvp  # noqa: F401
from scipy.optimize import minimize  # noqa: F401
from scipy.special import roots_jacobi

from .errors import ConfigError, NonConvergence
from .lagrangian import TonelliLagrangian
from .report import ProbeReport

Array = np.ndarray

# _solve_arcs: the LGL order ladder, the Newton steps per order, the
# Euler-Lagrange residual certificate, and the seed of the bent multiwell
# starts
_ORDERS = (8, 12, 16, 24, 32)
_NEWTON_STEPS = 50
_EL_TOL = 1e-8
_BENT_SEED = 0


@dataclass
class Curve:
    """C^1 arc stored as Hermite data: node times, positions, velocities."""

    times: Array
    points: Array
    velocities: Array


@dataclass
class FundamentalSolution:
    """Minimized action with its arc, the momenta at the arc's nodes,
    endpoint gradients, and convergence diagnostics."""

    value: float
    curve: Curve
    momenta: Array               # L_v(tau, xi, xidot) at curve.times
    grad_x: Array
    grad_y: Array
    residual: float
    velocity_sup: float
    momentum_sup: float
    n_starts: int


# ---------------------------------------------------------------------------
# batched Newton on Legendre-Gauss-Lobatto polynomials


def _interpolation_matrix(nodes: Array, bary: Array, points: Array) -> Array:
    """Rows map values at nodes to the interpolating polynomial at points
    (barycentric formula; a point on a node gets a unit row)."""
    gap = points[:, None] - nodes[None, :]
    hit = gap == 0.0
    rows = bary / np.where(hit, 1.0, gap)
    rows /= rows.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    rows[on_node] = hit[on_node]
    return rows


@functools.cache
def _lgl(order: int) -> tuple[Array, ...]:
    """Degree-order tables on [-1, 1]: the LGL nodes (ascending), their
    quadrature and barycentric weights, the differentiation matrix, and the
    interpolation matrices onto 4N+1 (residual) and 8N+1 (Curve) uniform
    points."""
    nodes = np.concatenate([[-1.0], roots_jacobi(order - 1, 1.0, 1.0)[0], [1.0]])
    pn = np.polynomial.legendre.legval(nodes, np.eye(order + 1)[order])
    weights = 2.0 / (order * (order + 1) * pn ** 2)
    bary = (-1.0) ** np.arange(order + 1) * np.sqrt(weights)
    gap = nodes[:, None] - nodes[None, :] + np.eye(order + 1)
    diff = bary[None, :] / bary[:, None] / gap - np.eye(order + 1)
    diff -= np.diag(diff.sum(axis=1))
    return (nodes, weights, bary, diff,
            *(_interpolation_matrix(nodes, bary, np.linspace(-1.0, 1.0, k * order + 1))
              for k in (4, 8)))


def _second_derivatives(L: TonelliLagrangian, tau: Array, pos: Array,
                        vel: Array) -> tuple[Array, Array, Array | float]:
    """L_xx, L_vx and L_vt at states (..., n): L.second_derivatives when L
    has them, else central differences of grad_x and grad_v, with steps
    1e-5 (1 + |x|) per coordinate of x and 1e-5 (1 + |tau|) in time; L_vt
    is 0 unless L is time-dependent.  L_xx[..., a, b] = d_b (L_x)_a and
    L_vx[..., a, b] = d_b (L_v)_a, so L_xv is L_vx transposed."""
    if L.second_derivatives is not None:
        return L.second_derivatives(tau, pos, vel)
    n = pos.shape[-1]
    h = 1e-5 * (1.0 + np.linalg.norm(pos, axis=-1))
    shift = h[..., None, None] * np.eye(n)            # (..., b, a): step along b
    pts = np.concatenate([pos[..., None, :] + shift, pos[..., None, :] - shift],
                         axis=-2)
    args = (np.broadcast_to(np.asarray(tau)[..., None], pts.shape[:-1]), pts,
            np.broadcast_to(vel[..., None, :], pts.shape))
    lxx, lvx = (((g[..., :n, :] - g[..., n:, :]) / (2.0 * h[..., None, None])
                 ).swapaxes(-1, -2)
                for g in (L.grad_x(*args), L.grad_v(*args)))
    lvt = 0.0
    if L.time_dependent:
        dt = 1e-5 * (1.0 + np.abs(tau))
        lvt = ((L.grad_v(tau + dt, pos, vel) - L.grad_v(tau - dt, pos, vel))
               / (2.0 * dt[..., None]))
    return lxx, lvx, lvt


def _shifts(hess: Array) -> Array:
    """Per-arc shifts making the stacked Hessians (B, m, m) positive definite:
    0 for a positive spectrum, else the first of c, 2c, 4c, ...
    (c = 1e-6 max |diag|) that reaches twice its most negative eigenvalue."""
    try:
        np.linalg.cholesky(hess)
        return np.zeros(len(hess))
    except LinAlgError:
        pass
    low = np.linalg.eigvalsh(hess)[:, 0]
    unit = 1e-6 * np.abs(np.diagonal(hess, axis1=1, axis2=2)).max(axis=1)
    need = np.maximum(-2.0 * low / unit, 1.0)
    return np.where(low > 0.0, 0.0, unit * 2.0 ** np.ceil(np.log2(need)))


def _newton(L: TonelliLagrangian, taus: Array, W: Array, D: Array,
            chord: Array, speed: Array, bend: Array
            ) -> tuple[Array, Array, Array]:
    """Damped Newton for the LGL actions sum_i W_i L(tau_i, xi_i, xidot_i)
    of B arcs xi = chord + bend, xidot = speed + D bend (chord and bend
    (B, N+1, n), speed (B, 1, n)) over the interior nodes of each bend.
    The bend is the unknown, so its derivatives round in proportion to it,
    not to |xi|.  Each round solves the B stacked Hessians at once; the
    Armijo search and the stop rule act per arc, and a stopped arc leaves
    the batch.  Returns the last bends, their actions, and which arcs
    stopped on a full, unshifted step below 1e-7 (1 + max |xi|)."""
    B, nodes, n = bend.shape
    m = (nodes - 2) * n
    Wc = W[:, None, None]
    inner = np.arange(nodes - 2)

    def action(rows: Array, arc: Array) -> Array:
        return L.eval(taus, chord[rows] + arc, speed[rows] + D @ arc) @ W

    bend = bend.copy()
    value = action(np.arange(B), bend)
    converged = np.zeros(B, dtype=bool)
    live = np.arange(B)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        arc = bend[live]
        xi, vel = chord[live] + arc, speed[live] + D @ arc
        lxx, lvx, _ = _second_derivatives(L, taus, xi, vel)
        grad = (W[:, None] * L.grad_x(taus, xi, vel)
                + D.T @ (W[:, None] * L.grad_v(taus, xi, vel)))[:, 1:-1]
        grad = grad.reshape(len(live), m)
        # Hessians over the interior nodes, indexed (arc, k, a, l, b):
        # D^T W L_vv D + W L_xx + W L_xv D + its transpose
        hess = np.einsum("ik,jiab,il->jkalb", D[:, 1:-1],
                         Wc * L.hess_vv(taus, xi, vel), D[:, 1:-1])
        cross = np.einsum("lk,jlab->jkalb", D[1:-1, 1:-1], (Wc * lvx)[:, 1:-1])
        hess += cross + cross.transpose(0, 3, 4, 1, 2)
        hess[:, inner, :, inner, :] += (Wc * lxx)[:, 1:-1].swapaxes(0, 1)
        hess = hess.reshape(len(live), m, m)
        finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        if not finite.all():
            live, xi, hess, grad = live[finite], xi[finite], hess[finite], grad[finite]
            if not live.size:
                break
        shift = _shifts(hess)
        step = np.zeros((len(live), nodes, n))
        step[:, 1:-1] = -np.linalg.solve(hess + shift[:, None, None] * np.eye(m),
                                         grad[..., None]).reshape(len(live), -1, n)
        stop = (shift == 0.0) & (np.abs(step).max(axis=(1, 2))
                                 <= 1e-7 * (1.0 + np.abs(xi).max(axis=(1, 2))))
        if stop.any():
            done = live[stop]
            bend[done] += step[stop]
            value[done] = action(done, bend[done])
            converged[done] = True

        # Armijo backtracking on each remaining arc's own LGL action; an arc
        # that finds no decrease in 40 halvings stops unconverged
        live, step, grad = live[~stop], step[~stop], grad[~stop]
        slope = np.einsum("jm,jm->j", grad, step[:, 1:-1].reshape(len(live), m))
        todo = np.arange(len(live))
        for alpha in 0.5 ** np.arange(40):
            if not todo.size:
                break
            rows = live[todo]
            trial = bend[rows] + alpha * step[todo]
            trial_value = action(rows, trial)
            ok = trial_value <= value[rows] + 1e-4 * alpha * slope[todo]
            bend[rows[ok]], value[rows[ok]] = trial[ok], trial_value[ok]
            todo = todo[~ok]
        live = np.delete(live, todo)
    return bend, value, converged


def _bends(frac: Array, n: int, k: int, rng: np.random.Generator,
           scale: Array) -> Array:
    """k randomized bent starts (B, k, len(frac), n) off the chord at arc
    fractions frac: sine bumps of random direction and amplitude, the same
    for every arc but scaled per arc by scale (B,)."""
    bends = []
    for _ in range(k):
        direction = rng.standard_normal(n)
        direction /= max(np.linalg.norm(direction), 1e-12)
        amp = rng.uniform(0.3, 1.0) * scale
        bends.append(amp[:, None, None] * np.sin(np.pi * frac)[:, None] * direction)
    return np.stack(bends, axis=1)


def _certificate(L: TonelliLagrangian, s: float, t: float, order: int,
                 x: Array, y: Array, bend: Array) -> tuple[Array, Array]:
    """Strong Euler-Lagrange residuals max |d/dtau L_v - L_x| over 4N+1
    uniform times of the arcs chord + bend (x, y (B, 1, n)), and the
    momenta L_v (B, 4N+1, n) there."""
    _, _, _, diff, at_check, _ = _lgl(order)
    D = diff * (2.0 / (t - s))
    dbend = D @ bend
    tq = np.linspace(s, t, 4 * order + 1)
    pos = x + ((tq - s) / (t - s))[:, None] * (y - x) + at_check @ bend
    vel, acc = (y - x) / (t - s) + at_check @ dbend, at_check @ (D @ dbend)
    _, lvx, lvt = _second_derivatives(L, tq, pos, vel)
    dp = (lvt + np.einsum("...ab,...b->...a", lvx, vel)
          + np.einsum("...ab,...b->...a", L.hess_vv(tq, pos, vel), acc))
    residual = np.linalg.norm(dp - L.grad_x(tq, pos, vel), axis=-1).max(axis=-1)
    return residual, L.grad_v(tq, pos, vel)


@dataclass
class _Arcs:
    """Certified arcs: values and endpoint gradients in the batch's shape;
    residuals, LGL orders and bends at those orders flattened."""

    value: Array
    grad_x: Array
    grad_y: Array
    residual: Array
    order: Array
    bend: list
    n_starts: int


def _solve_arcs(L: TonelliLagrangian, s: float, t: float, x: Array, y: Array
                ) -> _Arcs:
    """A_{s,t}(x_b, y_b) and the minimizing arcs of B endpoint pairs
    (x and y (..., n) broadcast against each other).

    Each arc is one polynomial of degree N stored at the N+1 LGL nodes of
    [s, t], found by _newton from the straight chord, for N in _ORDERS in
    turn: an arc that the current order does not certify climbs to the
    next, seeded with its polynomial.  When t - s > 0.5 and L.multiwell is
    set, the first order also runs 4 randomized bent starts per arc (drawn
    from _BENT_SEED); ties within 1e-9 relative are broken by the
    lexicographically smallest midpoint.  An arc certifies when its strong
    Euler-Lagrange residual |d/dtau L_v - L_x| at 4N+1 uniform times is
    below _EL_TOL (1 + max |p|) there.  The endpoint gradients are
    D_x A = -L_v at time s and D_y A = L_v at time t.  Raises
    NonConvergence when no order certifies some arc, OutOfWindow when
    [s, t] leaves the certified window.
    """
    if not t > s:
        raise ConfigError(f"need s < t, got s={s}, t={t}")
    L.check_window(s, t)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape, n = x.shape, x.shape[-1]
    x, y = x.reshape(-1, n), y.reshape(-1, n)
    B = len(x)
    out = _Arcs(value=np.empty(B), grad_x=np.empty((B, n)),
                grad_y=np.empty((B, n)), residual=np.full(B, np.inf),
                order=np.zeros(B, dtype=int), bend=[None] * B, n_starts=1)

    frac = (_lgl(_ORDERS[0])[0] + 1.0) / 2.0
    bend = np.zeros((B, 1, len(frac), n))
    if t - s > 0.5 and L.multiwell:
        rng = np.random.default_rng(_BENT_SEED)
        scale = np.maximum(1.0, np.linalg.norm(y - x, axis=-1))
        bend = np.concatenate([bend, _bends(frac, n, 4, rng, scale)], axis=1)
        out.n_starts = bend.shape[1]
    live = np.arange(B)
    prev = None
    for order in _ORDERS:
        nodes, weights, bary, diff, _, _ = _lgl(order)
        if prev is not None:
            bend = _interpolation_matrix(*prev, nodes) @ bend
        prev = nodes, bary
        taus = s + (t - s) * (nodes + 1.0) / 2.0
        x0, y0 = x[live, None, :], y[live, None, :]
        chord = x0 + ((taus - s) / (t - s))[:, None] * (y0 - x0)
        speed = (y0 - x0) / (t - s)
        # every start of every arc in one batch; each arc keeps its best
        k = bend.shape[1]
        starts, values, stopped = _newton(
            L, taus, weights * ((t - s) / 2.0), diff * (2.0 / (t - s)),
            np.repeat(chord, k, 0), np.repeat(speed, k, 0),
            bend.reshape(-1, *bend.shape[2:]))
        starts, values = starts.reshape(bend.shape), values.reshape(-1, k)
        low = values.min(axis=1, keepdims=True)
        tied = values <= low + 1e-9 * (1.0 + np.abs(low))
        mid = starts[:, :, order // 2, ::-1]
        pick = np.lexsort((*np.moveaxis(mid, -1, 0), ~tied), axis=-1)[:, 0]
        rows = np.arange(len(live))
        bend, value = starts[rows, pick], values[rows, pick]
        converged = np.flatnonzero(stopped.reshape(-1, k)[rows, pick])

        residual, momenta = _certificate(L, s, t, order, x0[converged],
                                         y0[converged], bend[converged])
        out.residual[live[converged]] = residual
        certified = residual <= _EL_TOL * (1.0 + np.abs(momenta).max(axis=(1, 2)))
        good, momenta = converged[certified], momenta[certified]
        done = live[good]
        out.value[done] = value[good]
        out.grad_x[done], out.grad_y[done] = -momenta[:, 0], momenta[:, -1]
        out.order[done] = order
        for arc, b in zip(done.tolist(), bend[good]):
            out.bend[arc] = b
        rest = np.delete(np.arange(len(live)), good)
        live, bend = live[rest], bend[rest, None]
        if not live.size:
            break
    else:
        raise NonConvergence(
            f"no LGL order up to {_ORDERS[-1]} certified {live.size} of {B} "
            f"arcs: worst last Euler-Lagrange residual "
            f"{out.residual[live].max():.3e}, tolerance {_EL_TOL:.1e} "
            f"(1 + max |p|)")
    out.value = out.value.reshape(shape[:-1])
    out.grad_x, out.grad_y = out.grad_x.reshape(shape), out.grad_y.reshape(shape)
    return out


def action_values_batch(L: TonelliLagrangian, s: float, t: float, x: Array,
                        y: Array) -> Array:
    """Certified action values A_{s,t}(x_b, y_b) of a batch of arcs, in the
    batch shape of x and y (..., n), which broadcast against each other:
    _solve_arcs, so an arc that no order certifies raises NonConvergence."""
    return _solve_arcs(L, s, t, x, y).value


def _family(L: TonelliLagrangian, s: float, t: float, x: Array, ys: Array
            ) -> list[FundamentalSolution]:
    """minimize_action from the one start x (n,) to each end of ys (B, n),
    in one _solve_arcs call: per arc its Hermite data at 8N+1 uniform times
    (N its certified LGL order), the momenta there and their sups."""
    arcs = _solve_arcs(L, s, t, x, ys)
    family = []
    for y, order, bend, value, residual in zip(
            ys, arcs.order.tolist(), arcs.bend, arcs.value, arcs.residual):
        _, _, _, diff, _, at_samples = _lgl(order)
        times = np.linspace(s, t, 8 * order + 1)
        chord = x + ((times - s) / (t - s))[:, None] * (y - x)
        dbend = (diff * (2.0 / (t - s))) @ bend
        curve = Curve(times=times, points=chord + at_samples @ bend,
                      velocities=(y - x) / (t - s) + at_samples @ dbend)
        momenta = L.grad_v(curve.times, curve.points, curve.velocities)
        family.append(FundamentalSolution(
            value=float(value), curve=curve, momenta=momenta,
            grad_x=-momenta[0], grad_y=momenta[-1], residual=float(residual),
            velocity_sup=float(np.linalg.norm(curve.velocities, axis=-1).max()),
            momentum_sup=float(np.linalg.norm(momenta, axis=-1).max()),
            n_starts=arcs.n_starts))
    return family


def minimize_action(L: TonelliLagrangian, s: float, t: float, x: Array,
                    y: Array) -> FundamentalSolution:
    """Compute A_{s,t}(x, y) and its minimizing arc: _family of the one
    endpoint pair.  Raises NonConvergence when no order certifies the arc,
    ConfigError unless s < t, and OutOfWindow when [s, t] leaves the
    certified window."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _family(L, s, t, x, np.atleast_2d(np.asarray(y, dtype=float)))[0]


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


def _sups(family: list[FundamentalSolution], x: Array) -> Array:
    """sup |xidot|, sup |p| and sup |xi - x| per arc of a family (B, 3)."""
    return np.array([(fs.velocity_sup, fs.momentum_sup,
                      float(np.linalg.norm(fs.curve.points - x, axis=-1).max()))
                     for fs in family]).reshape(-1, 3)


def probe_velocity_bounds(
    L: TonelliLagrangian,
    x: Array,
    R: float,
    time_pairs: Sequence[tuple[float, float]],
    n_samples: int,
    seed: int,
) -> ProbeReport:
    """Tabulate sup |xidot|, sup |p|, sup |xi - x| against r = R / (t - s).

    The empirical table plays the role of a nondecreasing r -> kappa(r); a
    decrease beyond relative tolerance 1e-6 is recorded as a violation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)
    rows = []
    for (s, t) in time_pairs:
        ys = _ball_samples(rng, x, R, n_samples)
        sups = _sups(_family(L, s, t, x, ys), x).max(axis=0, initial=0.0)
        rows.append((R / (t - s), *map(float, sups)))
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
    n_samples: int,
    seed: int,
) -> ProbeReport:
    """Check that perturbed-endpoint minimizers stay in the compact set
    [s, s+1] x B(x, kappa(4 lam)) x B(0, kappa(4 lam)).

    kappa(4 lam) is measured first from endpoint families at ratio exactly
    4 lam_cone across the relevant durations, then the perturbation family
    (|y - x| < lam T, |z| < lam T, s - T/2 < h < 1 - T) is swept.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    T = t - s
    b_win = float(L.time_window[1])
    h_lo = -T / 2.0 * 0.999
    h_hi = min(1.0 - T, b_win - t) - 1e-9
    if h_hi <= h_lo:
        raise ConfigError("time window too short for the perturbation family")
    rng = np.random.default_rng(seed)

    durations = [T / 2 * 1.01, T, min(1.0 - 1e-6, T * 1.5)]
    kappa4 = 0.0
    for d in durations:
        ys = _ball_samples(rng, x, 4.0 * lam_cone * d, max(8, n_samples // 10))
        kappa4 = max(kappa4, float(_sups(_family(L, s, s + d, x, ys), x).max()))
    bound = kappa4 * 1.02 + 1e-9

    report = ProbeReport(name="compact_containment", samples=n_samples)
    report.constants = {"kappa_4lam": kappa4, "declared_bound": bound,
                        "lam_cone": lam_cone, "T": T}
    for _ in range(n_samples):
        y = _ball_samples(rng, x, lam_cone * T, 1, boundary_half=False)[0]
        z = _ball_samples(rng, np.zeros_like(x), lam_cone * T, 1,
                          boundary_half=False)[0]
        h = rng.uniform(h_lo, h_hi)
        t_end = t + h
        if not (t_end > s + 1e-9 and t_end <= b_win and t_end - s <= 1.0):
            continue
        sups = _sups([minimize_action(L, s, t_end, x, y + z)], x)[0]
        for sup, box in zip(sups, ("velocity", "momentum", "position")):
            report.record_slack(bound - sup, check=f"{box}_box", h=h,
                                duration=t_end - s)
    return report


def _midpoint_family(L: TonelliLagrangian, x: Array, s: float, T: float,
                     lam_cone: float, n_samples: int,
                     rng: np.random.Generator, with_time: bool = True
                     ) -> tuple[Array, Array, Array, Array]:
    """Scaled midpoint defects of (t, y) -> A_{s,t}(x, y) around t = s + T.

    Returns per-sample arrays (timed, ratio, z, h) with ratio =
    T [A(t+h, y+z) + A(t-h, y-z) - 2 A(t, y)] / (h^2 + |z|^2), for seeded
    y in B(x, lam T) and |z| < lam T; per y, first the h = 0 samples, then
    the timed ones with |h| < T/2.  Every draw from rng comes first, in
    this fixed order; then the bases are one solve, the h = 0 samples one
    more, and each timed arc one of its own.  with_time=False skips the
    solves of the timed samples and returns the h = 0 ones only.
    """
    n_y = max(4, n_samples // 8)
    n_pert = max(2, n_samples // n_y)
    t, lamT, cap = s + T, lam_cone * T, T / 2.0 * 0.999
    ys = _ball_samples(rng, x, lamT, n_y, boundary_half=False)

    def offsets() -> Array:
        z = _ball_samples(rng, np.zeros_like(x), lamT * 0.999, n_pert,
                          boundary_half=False)
        # keep |z| away from 0 so defect ratios stay well conditioned
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        small = norms[:, 0] < 0.25 * lamT
        z[small] *= (0.3 * lamT) / np.maximum(norms[small], 1e-12)
        return z

    # per y: the h = 0 offsets, the timed offsets, then their times
    draws = [(offsets(), offsets(), rng.uniform(-cap, cap, n_pert)) for _ in ys]
    halves = 2 if with_time else 1
    z = np.array([d[:2] for d in draws])[:, :halves]  # (n_y, halves, n_pert, n)
    h = np.array([(np.zeros(n_pert), d[2]) for d in draws])[:, :halves]
    base = action_values_batch(L, s, t, x, ys)[:, None, None]
    total = np.empty(h.shape)
    y = ys[:, None]
    total[:, 0] = action_values_batch(
        L, s, t, x, np.stack([y + z[:, 0], y - z[:, 0]])).sum(axis=0)
    if with_time:
        for j, k in np.ndindex(n_y, n_pert):
            hk, zk = h[j, 1, k], z[j, 1, k]
            total[j, 1, k] = (action_values_batch(L, s, t + hk, x, ys[j] + zk)
                              + action_values_batch(L, s, t - hk, x, ys[j] - zk))
    ratio = T * (total - 2.0 * base) / (h * h + np.sum(z * z, axis=-1))
    timed = np.broadcast_to(np.arange(halves)[:, None] == 1, ratio.shape)
    return timed.ravel(), ratio.ravel(), z.reshape(-1, len(x)), h.ravel()


def probe_midpoint_defects(
    L: TonelliLagrangian,
    x: Array,
    s: float,
    lam_cone: float,
    T_grid: Sequence[float],
    n_samples: int,
    seed: int,
) -> tuple[ProbeReport, ProbeReport]:
    """Semiconcavity and convexity reports of (t, y) -> A_{s,t}(x, y), both
    read off one seeded midpoint-defect family per grid T.

    Semiconcavity covers the grid T < 2/3 and records

        C(T) = max T [A(t+h, y+z) + A(t-h, y-z) - 2 A(t, y)] / (|h|^2 + |z|^2).

    C_lambda is the space-time max; C_lambda_space restricts to h = 0 (for
    the free particle that bucket equals 1 exactly, while the space-time
    constant is larger).  Violations: non-finite ratios, or C(T) tables that
    blow past 100x their minimum (loss of uniformity in the C/T scaling).

    Convexity covers the whole grid.  Part (a): space-time midpoint defects
    bounded below, C''(T) = max(0, -min T defect / (h^2 + |z|^2)).  Part
    (b): pure spatial defects satisfy defect >= (C'''(T)/T) |z|^2 with
    C'''(T) > 0; T''_lambda is the largest grid T where that still holds,
    and a violation is recorded only when no grid T qualifies.  T'_lambda
    is the empirical cone height: the largest grid T whose C''(T) stays
    within a factor 2 of the smallest-T value (plus slack), i.e. where
    semiconvexity has not degraded.

    Raises ConfigError when no grid T lies below 2/3.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    T_semi = [T for T in T_grid if T < 2.0 / 3.0]
    if not T_semi:
        raise ConfigError("T_grid needs an entry below 2/3 for the "
                          "semiconcavity probe")
    rng = np.random.default_rng(seed)

    semi = ProbeReport(name="semiconcavity", samples=0)
    conv = ProbeReport(name="convexity", samples=0)
    C_st: dict[float, float] = {}
    C_sp: dict[float, float] = {}
    C2: dict[float, float] = {}
    C3: dict[float, float] = {}
    for T in T_grid:
        timed, ratio, z, h = _midpoint_family(L, x, s, T, lam_cone,
                                              n_samples, rng)
        conv.samples += len(ratio)
        # fmin skips NaN ratios, as the running min of a scan would
        C2[T] = max(0.0, -float(np.fmin.reduce(ratio[timed], initial=0.0)))
        C3[T] = float(np.fmin.reduce(ratio[~timed], initial=np.inf))
        if not T < 2.0 / 3.0:
            continue
        semi.samples += len(ratio)
        finite = np.isfinite(ratio)
        for k in np.flatnonzero(~finite):
            semi.violations.append(
                {"check": "finite_ratio", "T": T, "h": float(h[k]),
                 "z": z[k].tolist(), "slack": float("-inf")})
        C_st[T] = float(ratio[finite].max(initial=-np.inf))
        C_sp[T] = float(ratio[finite & ~timed].max(initial=-np.inf))

    vals = np.array(list(C_st.values()))
    semi.constants = {
        "T_grid": T_semi,
        "C_lambda_table": [C_st[T] for T in T_semi],
        "C_lambda_space_table": [C_sp[T] for T in T_semi],
        "C_lambda": float(vals.max()),
        "C_lambda_space": float(max(C_sp.values())),
    }
    spread_floor = max(float(np.abs(vals).max()), 1e-12)
    semi.record_slack(100.0 * max(float(vals.min()), spread_floor * 1e-2)
                      - float(vals.max()),
                      check="uniform_in_T")

    T_second = max((T for T in T_grid if C3[T] > 1e-9), default=None)
    c2_floor = C2[min(T_grid)]
    T_prime = max((T for T in T_grid if C2[T] <= 2.0 * c2_floor + 1e-6),
                  default=min(T_grid))
    conv.constants = {
        "T_grid": list(T_grid),
        "C_doubleprime_table": [C2[T] for T in T_grid],
        "C_tripleprime_table": [C3[T] for T in T_grid],
        "C_doubleprime": max(C2.values()),
        "C_tripleprime": C3[min(T_grid)],
        "T_prime": T_prime,
        "T_second": T_second,
    }
    if T_second is None:
        conv.record_slack(-1.0, check="uniform_convexity_window",
                          detail="no grid T with positive C'''")
    else:
        conv.record_slack(C3[T_second], check="uniform_convexity_window")
    return semi, conv
