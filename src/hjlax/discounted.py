"""Fixed-point solver for the discounted Hamilton-Jacobi equation.

lam*u + H(x, Du) = 0 is solved on a grid by value iteration on the
dynamic-programming operator

    (T u)(x) = min_v { stage(x, v) + e^{-lam*dt} * u(x - dt*v) },

with multilinear interpolation at the foot point x - dt*v.  The stage
cost discretizes the discounted running cost along the straight segment
s -> x - s*v, s in [0, dt], by a 3-point Gauss rule with weights
proportional to e^{-lam*s} and normalized to total (1 - e^{-lam*dt})/lam.
Constant Lagrangians therefore have exact fixed points (u = L/lam), and
adding a constant c to L shifts the solution by exactly c/lam.  The
iteration contracts in sup norm with factor e^{-lam*dt}.

Solutions lift to the evolution form v(t, x) = e^{lam*t} u(x).  Backward
calibrated curves integrate the characteristic system

    dx/ds = H_p(x, q),    dq/ds = -lam*q - H_x(x, q)

from a differentiability node and are checked against the value identity
v(tau, x) = v(tau - t, curve(tau - t)) + integral of e^{lam*s} L.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.integrate import solve_ivp

from .action import _GAUSS5_NODES, _GAUSS5_WEIGHTS, Curve
from .errors import (BoxExhausted, ConfigError, NonContraction,
                     NonConvergence, OutOfWindow, SingularStart)
from .gridfn import GridFunction, GridSpec
from .lagrangian import Hamiltonian, TonelliLagrangian, hamiltonian_for
from .report import write_csv

Array = np.ndarray


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class DiscountedSolution:
    """Grid fixed point of the discounted dynamic-programming operator."""

    lam: float
    u: GridFunction
    residual: float              # max |lam*u + H(x, Du)| over differentiability nodes
    iterations: int
    contraction_factor: float    # e^{-lam*dt} declared by the scheme
    dt: float
    fp_defect: float             # final sup-norm update size
    measured_contraction: float  # worst per-step update ratio (nan if too few steps)
    residual_tol: float          # declared first-order budget for `residual`
    diff_mask: Array             # nodes where one-sided slopes agree (residual support)
    meta: dict[str, Any] = field(default_factory=dict)

    def metadata(self) -> dict[str, Any]:
        out = {
            "lambda": self.lam,
            "dt": self.dt,
            "residual": self.residual,
            "residual_tol": self.residual_tol,
            "iterations": self.iterations,
            "contraction_factor": self.contraction_factor,
            "measured_contraction": None if np.isnan(self.measured_contraction)
            else self.measured_contraction,
            "fp_defect": self.fp_defect,
        }
        out.update(self.meta)
        return out


@dataclass(frozen=True)
class CalibratedCurve:
    """Backward characteristic from (x, tau) with its value-identity defect."""

    x: Array
    tau: float
    horizon: float
    curve: Curve                 # on [tau - horizon, tau], terminal point x
    momenta: Array               # evolution momenta e^{lam*t} q(t) at curve.times
    calibration_defect: float    # max value-identity defect over sampled times
    defects: Array               # per-sample defects, aligned with curve.times[:-1]

    def to_csv(self, path: str) -> None:
        """Rows (t, x_1..x_n, p_1..p_n) at the stored curve times."""
        n = self.curve.points.shape[1]
        cols = ["t"] + [f"x{k+1}" for k in range(n)] + [f"p{k+1}" for k in range(n)]
        write_csv(path, cols, ([t, *pos, *mom] for t, pos, mom in zip(
            self.curve.times, self.curve.points, self.momenta)))


# ---------------------------------------------------------------------------
# one Bellman step


@dataclass(frozen=True)
class _Stage:
    """Discounted stage-cost quadrature along the segment arriving at x."""

    dt: float
    beta: float                  # e^{-lam*dt}
    s: Array                     # (3,) sample times in [0, dt]
    w: Array                     # (3,) weights, sum = (1 - beta)/lam

    def cost(self, L: TonelliLagrangian, x: Array, v: Array) -> Array:
        out = 0.0
        for sj, wj in zip(self.s, self.w):
            out = out + wj * np.asarray(L.eval(0.0, x - sj * v, v))
        return out

    def cost_grad_v(self, L: TonelliLagrangian, x: Array, v: Array
                    ) -> tuple[Array, Array]:
        """d/dv of the stage cost and its L_vv part (the Newton model)."""
        grad = 0.0
        hess = 0.0
        for sj, wj in zip(self.s, self.w):
            pos = x - sj * v
            grad = grad + wj * (np.asarray(L.grad_v(0.0, pos, v))
                                - sj * np.asarray(L.grad_x(0.0, pos, v)))
            hess = hess + wj * np.asarray(L.hess_vv(0.0, pos, v))
        return grad, hess


def _make_stage(lam: float, dt: float) -> _Stage:
    beta = float(np.exp(-lam * dt))
    nodes, wts = np.polynomial.legendre.leggauss(3)
    s = 0.5 * dt * (nodes + 1.0)
    w = 0.5 * dt * wts * np.exp(-lam * s)
    w *= ((1.0 - beta) / lam) / w.sum()   # constant costs integrate exactly
    return _Stage(dt=dt, beta=beta, s=s, w=w)


def _objective(L: TonelliLagrangian, u: GridFunction, x: Array, v: Array,
               st: _Stage) -> tuple[Array, Array]:
    feet = x - st.dt * v
    vals = st.cost(L, x, v) + st.beta * u(feet)
    return vals, feet


def _interp_gradient(u: GridFunction, pts: Array, delta: Array) -> Array:
    """Central difference of the interpolant; exact inside a cell since the
    multilinear interpolant is affine along each axis."""
    g = np.empty_like(pts)
    for a in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[a] = delta[a]
        g[:, a] = (u(pts + e) - u(pts - e)) / (2.0 * delta[a])
    return g


def _polish(L: TonelliLagrangian, u: GridFunction, x: Array, v0: Array,
            st: _Stage, iters: int = 40) -> tuple[Array, Array]:
    """Damped Newton on v -> stage(x,v) + beta*u(x - dt*v), vectorized over
    nodes.  The Newton model keeps only the L_vv curvature (the interpolant
    is piecewise affine); backtracking guards the kinks at cell faces."""
    v = np.array(v0, dtype=float)
    m, feet = _objective(L, u, x, v, st)
    delta = 1e-5 * u.spacing
    npts = len(v)
    for _ in range(iters):
        sgrad, hess = st.cost_grad_v(L, x, v)
        grad = sgrad - st.beta * st.dt * _interp_gradient(u, feet, delta)
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        if float(np.max(np.abs(step))) <= 1e-13 * (1.0 + float(np.max(np.abs(v)))):
            break
        alpha = np.ones(npts)
        done = np.zeros(npts, dtype=bool)
        for _bt in range(8):
            idx = ~done
            if not idx.any():
                break
            vt = v.copy()
            vt[idx] = v[idx] - alpha[idx, None] * step[idx]
            mt, ft = _objective(L, u, x, vt, st)
            better = idx & (mt <= m - 1e-15 * (1.0 + np.abs(m)))
            v[better] = vt[better]
            m[better] = mt[better]
            feet[better] = ft[better]
            done |= better
            alpha[~done] *= 0.5
        if not done.any():
            break
    return v, m


def _velocity_reach(ham: Hamiltonian, nodes: Array, p_bound: float) -> Array:
    """Per-axis bound on |optimal velocity| = |H_p| over momenta up to p_bound."""
    dim = nodes.shape[1]
    reach = np.zeros(dim)
    for a in range(dim):
        for sgn in (1.0, -1.0):
            p = np.zeros((len(nodes), dim))
            p[:, a] = sgn * p_bound
            vel = np.asarray(ham.grad_p(0.0, nodes, p))
            reach = np.maximum(reach, np.abs(vel).max(axis=0))
    return reach


def _step(L: TonelliLagrangian, u: GridFunction, x: Array, st: _Stage,
          offsets_v: Array, v_warm: Array | None
          ) -> tuple[Array, Array, Array]:
    """One Bellman update.  Scans feet on the velocity lattice (one shared
    lattice for all nodes, the grid being uniform), then Newton-polishes
    from the better of the scan winner and the warm start."""
    nof, npts, dim = len(offsets_v), len(x), x.shape[1]
    xb = np.broadcast_to(x[None, :, :], (nof, npts, dim))
    vb = np.broadcast_to(offsets_v[:, None, :], (nof, npts, dim))
    feet = (xb - st.dt * vb).reshape(-1, dim)
    uf = u(feet).reshape(nof, npts)
    scan = st.cost(L, xb, vb) + st.beta * uf
    jbest = np.argmin(scan, axis=0)
    v_init = offsets_v[jbest]
    if v_warm is not None:
        m_scan = scan[jbest, np.arange(npts)]
        m_warm, _ = _objective(L, u, x, v_warm, st)
        take = m_warm < m_scan
        v_init = np.where(take[:, None], v_warm, v_init)
    v_opt, m_opt = _polish(L, u, x, v_init, st)
    return m_opt, v_opt, x - st.dt * v_opt


def discounted_step(L: TonelliLagrangian, lam: float, u: GridFunction,
                    dt: float) -> GridFunction:
    """One application of the discounted dynamic-programming operator."""
    if lam <= 0 or dt <= 0:
        raise ConfigError(f"need lam > 0 and dt > 0, got lam={lam}, dt={dt}")
    if L.time_dependent:
        raise ConfigError("the discounted operator needs a time-independent Lagrangian")
    ham = hamiltonian_for(L)
    st = _make_stage(lam, dt)
    x = u.nodes()
    reach = _velocity_reach(ham, x, st.beta * u.lipschitz() + 1e-9)
    offsets_v = _velocity_lattice(u.spacing, dt, reach)
    vals, _, _ = _step(L, u, x, st, offsets_v, None)
    return u.with_values(vals.reshape(u.values.shape))


def _velocity_lattice(spacing: Array, dt: float, reach: Array,
                      cap: int = 20000) -> Array:
    ks = [int(np.ceil(dt * reach[a] / spacing[a])) + 1
          for a in range(len(spacing))]
    total = int(np.prod([2 * k + 1 for k in ks]))
    if total > cap:
        raise ConfigError(
            f"velocity lattice has {total} feet per node; dt is too small "
            "for this grid spacing (or the field is too steep)")
    axes = [np.arange(-k, k + 1) * (spacing[a] / dt)
            for a, k in enumerate(ks)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# ---------------------------------------------------------------------------
# residual on differentiability nodes


def _slope_jump(values: Array, spacing: Array, periodic: bool) -> Array:
    """Max over axes of |forward - backward| one-sided slopes; rim nodes of a
    non-periodic grid get +inf (one of the slopes is missing there)."""
    jump = np.zeros_like(values)
    for a in range(values.ndim):
        v = np.moveaxis(values, a, 0)
        h = spacing[a]
        if periodic:
            fwd = (np.roll(v, -1, axis=0) - v) / h
            bwd = (v - np.roll(v, 1, axis=0)) / h
            j = np.abs(fwd - bwd)
        else:
            j = np.full_like(v, np.inf)
            if v.shape[0] >= 3:
                fwd = (v[2:] - v[1:-1]) / h
                bwd = (v[1:-1] - v[:-2]) / h
                j[1:-1] = np.abs(fwd - bwd)
        jump = np.maximum(jump, np.moveaxis(j, 0, a))
    return jump


def _central_gradient(values: Array, spacing: Array, periodic: bool) -> Array:
    grads = []
    for a in range(values.ndim):
        v = np.moveaxis(values, a, 0)
        h = spacing[a]
        if periodic:
            g = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * h)
        else:
            g = np.gradient(v, h, axis=0, edge_order=2)
        grads.append(np.moveaxis(g, 0, a))
    return np.stack(grads, axis=-1)


def differentiability_mask(u: GridFunction) -> tuple[Array, Array]:
    """Boolean mask of nodes whose one-sided slopes agree (along every axis)
    plus the slope-jump field itself.  The threshold, six times the median
    jump (at least 1e-10 * (1 + Lip u)), separates the O(h*|u''|) jump of
    smooth profiles from the O(1) jump at a kink."""
    jump = _slope_jump(u.values, u.spacing, u.boundary == "periodic")
    finite = jump[np.isfinite(jump)]
    med = float(np.median(finite)) if finite.size else 0.0
    return jump <= max(6.0 * med, 1e-10 * (1.0 + u.lipschitz())), jump


def _pde_residual(u: GridFunction, lam: float, ham: Hamiltonian
                  ) -> tuple[Array, Array]:
    du = _central_gradient(u.values, u.spacing, u.boundary == "periodic")
    x = u.nodes().reshape(u.values.shape + (u.dim,))
    hval = np.asarray(ham.eval(0.0, x, du))
    return np.abs(lam * u.values + hval), du


# ---------------------------------------------------------------------------
# the solver


def solve_discounted(L: TonelliLagrangian, lam: float, grid: GridSpec,
                     dt: float, tol_fp: float = 1e-10,
                     max_iter: int = 100000,
                     residual_tol: float | None = None) -> DiscountedSolution:
    """Value iteration to the fixed point of the discounted operator.

    Stops when the update size drops below tol_fp*(1 - e^{-lam*dt}), which
    bounds the distance to the fixed point by tol_fp.  Raises NonContraction
    if update sizes grow repeatedly, NonConvergence at the iteration cap,
    and BoxExhausted when winning foot points leave a non-periodic box.
    """
    if lam <= 0:
        raise ConfigError(f"need lam > 0, got {lam}")
    if dt <= 0:
        raise ConfigError(f"need dt > 0, got {dt}")
    if L.time_dependent:
        raise ConfigError("the discounted equation needs a time-independent Lagrangian")

    ham = hamiltonian_for(L)
    st = _make_stage(lam, dt)
    beta = st.beta

    # sub/supersolution-flavored start: the value of resting at the best spot
    probe = GridFunction.from_callable(grid.box, grid.num, lambda p: np.zeros(len(p)),
                                       grid.boundary)
    x = probe.nodes()
    rest = np.asarray(L.eval(0.0, x, np.zeros_like(x)))
    u = probe.with_values(np.full(probe.values.shape, float(rest.min()) / lam))

    stop = tol_fp * (1.0 - beta)
    scale = 1.0 + float(np.abs(u.values).max())
    diffs: list[float] = []
    v_warm: Array | None = None
    feet_last: Array | None = None
    grow_streak = 0
    offsets_v: Array | None = None
    lip_used = -np.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        lip = u.lipschitz()
        if offsets_v is None or lip > 1.2 * lip_used:
            reach = _velocity_reach(ham, x, beta * lip + 1e-9)
            offsets_v = _velocity_lattice(u.spacing, dt, reach)
            lip_used = lip
        vals, v_warm, feet_last = _step(L, u, x, st, offsets_v, v_warm)
        d = float(np.abs(vals - u.values.ravel()).max())
        u = u.with_values(vals.reshape(u.values.shape))
        scale = 1.0 + float(np.abs(u.values).max())
        if diffs and d > diffs[-1] * (1.0 + 1e-9) and d > 1e3 * np.finfo(float).eps * scale:
            grow_streak += 1
            if grow_streak >= 3:
                raise NonContraction(
                    f"update sizes grew three times in a row (last {d:.3e}); "
                    "reduce dt")
        else:
            grow_streak = 0
        diffs.append(d)
        if d <= stop:
            break
    else:
        raise NonConvergence(
            f"no fixed point after {max_iter} iterations (defect {diffs[-1]:.3e}, "
            f"target {stop:.3e})")

    if u.boundary != "periodic" and feet_last is not None:
        pad = 1e-8 * (1.0 + float((u.box[:, 1] - u.box[:, 0]).max()))
        lo = u.box[:, 0] - pad
        hi = u.box[:, 1] + pad
        if np.any(feet_last < lo) or np.any(feet_last > hi):
            raise BoxExhausted(
                "optimal foot points leave the grid box; enlarge the box")

    floor = 1e4 * np.finfo(float).eps * scale
    ratios = [diffs[i + 1] / diffs[i]
              for i in range(10, len(diffs) - 1)
              if diffs[i] > floor and diffs[i + 1] > floor]
    # worst-case per-step decay; monotone interpolation bounds it by the
    # nominal factor, while orbit mixing can only make single steps faster
    measured = float(np.max(ratios)) if len(ratios) >= 4 else float("nan")

    mask, _ = differentiability_mask(u)
    res_field, _ = _pde_residual(u, lam, ham)
    residual = float(res_field[mask].max()) if mask.any() else float("nan")
    h_max = float(u.spacing.max())
    declared = residual_tol if residual_tol is not None else max(
        50.0 * tol_fp, 4.0 * (dt + h_max * h_max / (lam * dt)) * (1.0 + u.lipschitz()))

    return DiscountedSolution(
        lam=lam, u=u, residual=residual, iterations=iterations,
        contraction_factor=beta, dt=dt, fp_defect=diffs[-1],
        measured_contraction=measured, residual_tol=float(declared),
        diff_mask=mask,
        meta={"lagrangian": L.key, "tol_fp": tol_fp},
    )


# ---------------------------------------------------------------------------
# evolution lift and calibrated curves


def lift_to_evolution(sol: DiscountedSolution, t: float,
                      horizon: float | None = None) -> GridFunction:
    """e^{lam*t} u on the same grid (the evolution form at time t)."""
    if horizon is not None and not 0.0 <= t <= horizon:
        raise OutOfWindow(f"t={t} outside [0, {horizon}]")
    out = sol.u.with_values(np.exp(sol.lam * t) * sol.u.values)
    out.meta["evolution_time"] = float(t)
    return out


def backward_calibrated_curve(sol: DiscountedSolution, L: TonelliLagrangian,
                              x: Array, tau: float, horizon: float,
                              dt: float | None = None,
                              rtol: float = 1e-10) -> CalibratedCurve:
    """Backward characteristic through a differentiability node.

    Integrates dx/ds = H_p(x, q), dq/ds = -lam*q + L_x(x, H_p(x, q)) from
    s = tau down to tau - horizon, starting at the grid node nearest x with
    q = Du (central difference).  The defect of the value identity
    v(tau, x) = v(s, curve(s)) + int_s^tau e^{lam*r} L(curve, curve') dr
    is recorded at every sample time.
    """
    if horizon <= 0:
        raise ConfigError(f"need horizon > 0, got {horizon}")
    dt = dt if dt is not None else horizon / 64.0
    if dt <= 0 or dt > horizon:
        raise ConfigError(f"need 0 < dt <= horizon, got dt={dt}")
    lam, u = sol.lam, sol.u
    ham = hamiltonian_for(L)

    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = u.nearest_node(x)
    x0 = u.node_point(idx)
    if not bool(sol.diff_mask[idx]):
        raise SingularStart(
            f"node {x0.tolist()} has distinct one-sided slopes; backward "
            "curves are non-unique at such points")
    du = _central_gradient(u.values, u.spacing, u.boundary == "periodic")
    q0 = np.asarray(du[idx], dtype=float).reshape(-1)

    dim = u.dim

    def rhs(_s: float, z: Array) -> Array:
        pos, q = z[:dim], z[dim:]
        vel = np.asarray(ham.grad_p(0.0, pos[None, :], q[None, :]))[0]
        lx = np.asarray(L.grad_x(0.0, pos, vel)).reshape(-1)
        return np.concatenate([vel, -lam * q + lx])

    m = max(2, int(np.ceil(horizon / dt)))
    t_desc = tau - np.linspace(0.0, horizon, m + 1)
    ivp = solve_ivp(rhs, (tau, tau - horizon),
                    np.concatenate([x0, q0]), t_eval=t_desc,
                    rtol=rtol, atol=1e-12, dense_output=False)
    if not ivp.success:
        raise NonConvergence(f"characteristic integration failed: {ivp.message}")

    times = ivp.t[::-1]
    pos = ivp.y[:dim].T[::-1]
    qs = ivp.y[dim:].T[::-1]
    if u.boundary != "periodic":
        if np.any(pos < u.box[None, :, 0]) or np.any(pos > u.box[None, :, 1]):
            raise BoxExhausted("backward curve leaves the grid box")
    vel = np.asarray(ham.grad_p(0.0, pos, qs))
    curve = Curve(times=times, points=pos, velocities=vel)

    # value identity, integrating e^{lam*s} L segment by segment from the top
    def seg_integral(a: float, b: float) -> float:
        ts = a + (b - a) * _GAUSS5_NODES
        p = curve.at(ts)
        v = curve.at(ts, deriv=1)
        lv = np.asarray(L.eval(0.0, p, v))
        return float((b - a) * np.sum(_GAUSS5_WEIGHTS * np.exp(lam * ts) * lv))

    top = float(np.exp(lam * tau) * u(x0[None, :])[0])
    defects = np.empty(len(times) - 1)
    acc = 0.0
    for j in range(len(times) - 2, -1, -1):
        acc += seg_integral(times[j], times[j + 1])
        vj = float(np.exp(lam * times[j]) * u(pos[j][None, :])[0])
        defects[j] = abs(top - vj - acc)

    return CalibratedCurve(
        x=x0, tau=float(tau), horizon=float(horizon), curve=curve,
        momenta=np.exp(lam * times)[:, None] * qs,
        calibration_defect=float(defects.max()), defects=defects,
    )
