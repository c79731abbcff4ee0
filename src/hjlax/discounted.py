"""Fixed-point solver for the discounted Hamilton-Jacobi equation.

lam*u + H(x, Du) = 0 is solved on a grid as the fixed point of the
dynamic-programming operator

    (T u)(x) = min_v { stage(x, v) + e^{-lam*dt} * u(x - dt*v) },

with multilinear interpolation at the foot point x - dt*v.  The stage
cost discretizes the discounted running cost along the straight segment
s -> x - s*v, s in [0, dt], by a 3-point Gauss rule with weights
proportional to e^{-lam*s} and normalized to total (1 - e^{-lam*dt})/lam.
Constant Lagrangians therefore have exact fixed points (u = L/lam), and
adding a constant c to L shifts the solution by exactly c/lam.  T
contracts in sup norm with factor beta = e^{-lam*dt}.

The solver runs a head of value-iteration sweeps u <- T u, whose update
ratios measure the contraction, and then Howard policy iteration: the
velocities v of the last Bellman step define a policy, whose value w
solves the sparse linear system (I - beta P) w = stage(x, v), P holding
the interpolation weights at the feet x - dt*v; one Bellman step from w
improves the policy.  Either way the loop stops on the same certificate,
a Bellman update |T u - u| <= tol_fp*(1 - beta).

Solutions lift to the evolution form v(t, x) = e^{lam*t} u(x).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .action import _GAUSS3_NODES, _GAUSS3_WEIGHTS
from .errors import BoxExhausted, ConfigError, NonContraction, NonConvergence
from .gridfn import GridFunction, GridSpec
from .lagrangian import Hamiltonian, TonelliLagrangian, hamiltonian_for
from .regularity import grid_classification

Array = np.ndarray


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class DiscountedSolution:
    """Grid fixed point of the discounted dynamic-programming operator."""

    lam: float
    u: GridFunction
    residual: float              # max |lam*u + H(x, Du)| over differentiability nodes
    iterations: int              # Bellman steps (value-iteration head + policy steps)
    contraction_factor: float    # e^{-lam*dt} declared by the scheme
    dt: float
    fp_defect: float             # final sup-norm update size
    measured_contraction: float  # worst update ratio of the head (nan if too few steps)
    residual_tol: float          # declared first-order budget for `residual`
    diff_mask: Array             # grid_classification's differentiable nodes (residual support)
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


# ---------------------------------------------------------------------------
# one Bellman step

# feet per block of the velocity-lattice scan (bounds its memory)
_SCAN_FEET = 1 << 20


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
    s = dt * _GAUSS3_NODES
    w = dt * _GAUSS3_WEIGHTS * np.exp(-lam * s)
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
    lattice for all nodes, the grid being uniform), at most _SCAN_FEET feet
    at a time, then Newton-polishes from the better of the scan winner and
    the warm start."""
    nof, npts, dim = len(offsets_v), len(x), x.shape[1]
    jbest = np.empty(npts, dtype=np.int64)
    m_scan = np.empty(npts)
    block = max(1, _SCAN_FEET // nof)
    for lo in range(0, npts, block):
        xs = x[lo:lo + block]
        shape = (nof, len(xs), dim)
        xb = np.broadcast_to(xs[None, :, :], shape)
        vb = np.broadcast_to(offsets_v[:, None, :], shape)
        uf = u((xb - st.dt * vb).reshape(-1, dim)).reshape(shape[:2])
        scan = st.cost(L, xb, vb) + st.beta * uf
        j = np.argmin(scan, axis=0)
        jbest[lo:lo + block] = j
        m_scan[lo:lo + block] = scan[j, np.arange(len(xs))]
    v_init = offsets_v[jbest]
    if v_warm is not None:
        m_warm, _ = _objective(L, u, x, v_warm, st)
        take = m_warm < m_scan
        v_init = np.where(take[:, None], v_warm, v_init)
    v_opt, m_opt = _polish(L, u, x, v_init, st)
    return m_opt, v_opt, x - st.dt * v_opt


def _evaluate_policy(L: TonelliLagrangian, u: GridFunction, x: Array,
                     st: _Stage, v: Array, feet: Array) -> GridFunction:
    """Value of the stationary policy v: the solution of
    (I - beta P) w = cost(x, v), with P the interpolation weights at the
    feet.  P is row-stochastic and beta < 1, so the matrix is strictly
    diagonally dominant."""
    a = sparse.identity(len(x), format="csr") - st.beta * u.foot_matrix(feet)
    w = spsolve(a, st.cost(L, x, v))
    return u.with_values(w.reshape(u.values.shape))


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


def _pde_residual(u: GridFunction, lam: float, ham: Hamiltonian,
                  mask: Array) -> Array:
    """|lam*u + H(x, Du)| at the mask nodes, Du the central gradient."""
    hval = np.asarray(ham.eval(0.0, u.nodes()[mask.ravel()],
                               u.central_gradient()[mask]))
    return np.abs(lam * u.values[mask] + hval)


# ---------------------------------------------------------------------------
# the solver

# value-iteration sweeps before policy iteration takes over; their update
# ratios are the measured contraction
_HEAD = 20
# cap on the Bellman steps of one solve
_MAX_ITER = 100000


def solve_discounted(L: TonelliLagrangian, lam: float, grid: GridSpec,
                     dt: float, tol_fp: float = 1e-10) -> DiscountedSolution:
    """Fixed point of the discounted operator T, by policy iteration.

    The first _HEAD Bellman steps are value-iteration sweeps u <- T u, and
    measured_contraction is the worst update ratio among their later half.
    After the head, each iteration evaluates the policy of the last step
    (solves (I - beta P) u = stage(x, v) with scipy's sparse LU) and then
    makes one Bellman step from that value, warm-started at v.

    Stops when a Bellman update |T u - u| drops below
    tol_fp*(1 - e^{-lam*dt}), which bounds the distance of u to the fixed
    point by tol_fp; the solution is T u.  `iterations` counts Bellman
    steps, and _MAX_ITER caps them.  Raises NonContraction if update sizes
    grow three times in a row, NonConvergence at the iteration cap, and
    BoxExhausted when winning foot points leave a non-periodic box.
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

    for iterations in range(1, _MAX_ITER + 1):
        if iterations > _HEAD:
            u = _evaluate_policy(L, u, x, st, v_warm, feet_last)
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
            f"no fixed point after {_MAX_ITER} iterations (defect {diffs[-1]:.3e}, "
            f"target {stop:.3e})")

    if u.boundary != "periodic" and feet_last is not None:
        pad = 1e-8 * (1.0 + float((u.box[:, 1] - u.box[:, 0]).max()))
        lo = u.box[:, 0] - pad
        hi = u.box[:, 1] + pad
        if np.any(feet_last < lo) or np.any(feet_last > hi):
            raise BoxExhausted(
                "optimal foot points leave the grid box; enlarge the box")

    floor = 1e4 * np.finfo(float).eps * scale
    head = diffs[:_HEAD]
    ratios = [head[i + 1] / head[i]
              for i in range(10, len(head) - 1)
              if head[i] > floor and head[i + 1] > floor]
    # worst-case per-step decay; monotone interpolation bounds it by the
    # nominal factor, while orbit mixing can only make single steps faster
    measured = float(np.max(ratios)) if len(ratios) >= 4 else float("nan")

    _, spread, resid = grid_classification(u)
    mask = (spread <= 1.0) & (resid <= 1.0)
    residual = (float(_pde_residual(u, lam, ham, mask).max()) if mask.any()
                else float("nan"))
    h_max = float(u.spacing.max())
    declared = max(50.0 * tol_fp, 4.0 * (dt + h_max * h_max / (lam * dt))
                   * (1.0 + u.lipschitz()))

    return DiscountedSolution(
        lam=lam, u=u, residual=residual, iterations=iterations,
        contraction_factor=beta, dt=dt, fp_defect=diffs[-1],
        measured_contraction=measured, residual_tol=float(declared),
        diff_mask=mask,
        meta={"lagrangian": L.key, "tol_fp": tol_fp},
    )


# ---------------------------------------------------------------------------
# evolution lift


def lift_to_evolution(sol: DiscountedSolution, t: float) -> GridFunction:
    """e^{lam*t} u on the same grid (the evolution form at time t)."""
    return sol.u.with_values(np.exp(sol.lam * t) * sol.u.values)
