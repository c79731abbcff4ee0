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
contracts in sup norm with factor beta = e^{-lam*dt}.  A Bellman step
scans a velocity lattice and Newton-polishes its winner; the Newton model
keeps only the L_vv curvature, and backtracking guards the kinks at cell
faces.  A Newton round costs one gradient call and one call over all eight
backtracking trials, and nodes whose trials all failed drop out.

The scan reads one table that does not depend on u: the stage cost of
every (lattice velocity, node) pair and the sparse matrix P of
multilinear weights at their feet, so a scan is cost + beta * P u.
The lattice is shared by all nodes and is sized by the Lipschitz constant
of u; the solver keeps the table across Bellman steps and rebuilds it only
when a growing Lipschitz constant changes the lattice.

The solver runs a head of value-iteration sweeps u <- T u and then
Howard policy iteration: the velocities v of the last Bellman step define
a policy, whose value w solves the sparse linear system
(I - beta P) w = stage(x, v), P holding the interpolation weights at the
feet x - dt*v; one Bellman step from w improves the policy.  Policy
iteration converges from any policy for a monotone scheme (Bokanowski,
Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009), so the head is there to
measure the contraction, not to converge: the measured factor is the
worst update ratio of the later half of the head, which skips the start
transient.  Either way the loop stops on the same certificate, a Bellman
update |T u - u| <= tol_fp*(1 - beta).

Solutions lift to the evolution form v(t, x) = e^{lam*t} u(x).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

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
    measured_contraction: float  # worst update ratio of the head's later half (nan if too few)
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

# 3-point Gauss-Legendre on [0, 1]: the stage-cost quadrature
_GAUSS3_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
# cap on the velocity lattice's feet per node
_LATTICE_CAP = 20000


@dataclass(frozen=True)
class _Stage:
    """Discounted stage-cost quadrature along the segment arriving at x."""

    dt: float
    beta: float                  # e^{-lam*dt}
    s: Array                     # (3,) sample times in [0, dt]
    w: Array                     # (3,) weights, sum = (1 - beta)/lam

    def _samples(self, x: Array, v: Array) -> tuple[Array, Array]:
        """The three sample points x - s_j*v stacked on a new leading axis,
        with v broadcast to their shape; x and v take any leading shape."""
        pos = x - self.s.reshape((3,) + (1,) * max(np.ndim(x), np.ndim(v))) * v
        return pos, np.broadcast_to(v, pos.shape)

    def _quad(self, terms: Array) -> Array:
        """sum_j w_j terms[j], accumulated in sample order."""
        out = 0.0
        for wj, term in zip(self.w, terms):
            out = out + wj * term
        return out

    def cost(self, L: TonelliLagrangian, x: Array, v: Array) -> Array:
        return self._quad(np.asarray(L.eval(0.0, *self._samples(x, v))))

    def cost_grad_v(self, L: TonelliLagrangian, x: Array, v: Array
                    ) -> tuple[Array, Array]:
        """d/dv of the stage cost and its L_vv part (the Newton model)."""
        pos, vb = self._samples(x, v)
        s = self.s.reshape((3,) + (1,) * (pos.ndim - 1))
        grad = (np.asarray(L.grad_v(0.0, pos, vb))
                - s * np.asarray(L.grad_x(0.0, pos, vb)))
        return self._quad(grad), self._quad(np.asarray(L.hess_vv(0.0, pos, vb)))


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
    multilinear interpolant is affine along each axis.  One interpolation
    covers the 2*dim shifted copies of pts (any leading shape)."""
    dim = len(delta)
    e = np.diag(delta).reshape((dim,) + (1,) * (np.ndim(pts) - 1) + (dim,))
    vals = u(np.concatenate([pts + e, pts - e]))
    return np.moveaxis((vals[:dim] - vals[dim:]) / (2.0 * delta.reshape(e.shape[:-1])),
                       0, -1)


def _polish(L: TonelliLagrangian, u: GridFunction, x: Array, v0: Array,
            m0: Array, st: _Stage, iters: int = 40) -> tuple[Array, Array]:
    """Damped Newton on v -> stage(x,v) + beta*u(x - dt*v), vectorized over
    nodes, from v0 with objective values m0.  The Newton model keeps only
    the L_vv curvature (the interpolant is piecewise affine); backtracking
    guards the kinks at cell faces.

    A round costs one gradient call and one objective call over all eight
    trials alpha = 1, 1/2, ..., 1/128; each node takes its first trial that
    decreases it.  A node whose eight trials all fail would repeat them
    unchanged, so it is frozen: later rounds see only the nodes that moved,
    and the stop test reads every node's last step."""
    v = np.array(v0, dtype=float)
    m = np.array(m0, dtype=float)
    feet = x - st.dt * v
    delta = 1e-5 * u.spacing
    step = np.empty_like(v)
    live = np.arange(len(v))
    for _ in range(iters):
        sgrad, hess = st.cost_grad_v(L, x[live], v[live])
        grad = sgrad - st.beta * st.dt * _interp_gradient(u, feet[live], delta)
        step[live] = np.linalg.solve(hess, grad[..., None])[..., 0]
        if float(np.max(np.abs(step))) <= 1e-13 * (1.0 + float(np.max(np.abs(v)))):
            break
        trial = v[live] - 0.5 ** np.arange(8.0)[:, None, None] * step[live]
        mt, ft = _objective(L, u, x[live], trial, st)
        ok = mt <= m[live] - 1e-15 * (1.0 + np.abs(m[live]))
        cols = np.flatnonzero(ok.any(axis=0))
        if not len(cols):
            break
        rows = ok[:, cols].argmax(axis=0)
        live = live[cols]
        v[live], m[live], feet[live] = trial[rows, cols], mt[rows, cols], ft[rows, cols]
    return v, m


def _velocity_lattice(ham: Hamiltonian, u: GridFunction, x: Array, st: _Stage,
                      lip: float) -> Array:
    """The velocity lattice shared by all nodes (the grid is uniform): per
    axis a, the multiples of spacing_a/dt up to one spacing past the
    largest |H_p| (one grad_p call) at the momenta +-(beta*lip + 1e-9) e_a
    over the nodes x, lip being a Lipschitz constant of u.  Raises
    ConfigError above _LATTICE_CAP feet per node."""
    dim = x.shape[1]
    p = np.zeros((2 * dim, len(x), dim))
    axis = np.arange(dim)
    p_bound = st.beta * lip + 1e-9
    p[axis, :, axis], p[axis + dim, :, axis] = p_bound, -p_bound
    vel = np.asarray(ham.grad_p(0.0, np.broadcast_to(x, p.shape), p))
    reach = np.abs(vel).reshape(-1, dim).max(axis=0)
    ks = [int(np.ceil(st.dt * r / h)) + 1 for r, h in zip(reach, u.spacing)]
    total = int(np.prod([2 * k + 1 for k in ks]))
    if total > _LATTICE_CAP:
        raise ConfigError(
            f"velocity lattice has {total} feet per node; dt is too small "
            "for this grid spacing (or the field is too steep)")
    axes = [np.arange(-k, k + 1) * (u.spacing[a] / st.dt)
            for a, k in enumerate(ks)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def _scan_table(L: TonelliLagrangian, u: GridFunction, x: Array, st: _Stage,
                offsets_v: Array) -> tuple[Array, sparse.csr_matrix]:
    """The scan table of the velocity lattice offsets_v for all nodes x:
    the (nof, n) stage costs of the (lattice velocity, node) pairs and the
    foot matrix P of their feet, so the scan is cost + beta * P u.  Only
    u's grid enters, not its values."""
    shape = (len(offsets_v),) + x.shape
    xb = np.broadcast_to(x[None, :, :], shape)
    vb = np.broadcast_to(offsets_v[:, None, :], shape)
    return st.cost(L, xb, vb), u.foot_matrix(xb - st.dt * vb)


def _step(L: TonelliLagrangian, u: GridFunction, x: Array, st: _Stage,
          offsets_v: Array, table: tuple[Array, sparse.csr_matrix],
          v_warm: Array | None) -> tuple[Array, Array, Array]:
    """One Bellman update: the lattice scan is one matrix-vector product
    on its table (_scan_table), and the Newton polish starts from the
    better of the scan winner and the warm start."""
    cost, P = table
    scan = cost + st.beta * (P @ u.values.ravel()).reshape(cost.shape)
    jbest = np.argmin(scan, axis=0)
    v_init = offsets_v[jbest]
    m_init = scan[jbest, np.arange(len(x))]
    if v_warm is not None:
        m_warm, _ = _objective(L, u, x, v_warm, st)
        take = m_warm < m_init
        v_init = np.where(take[:, None], v_warm, v_init)
        m_init = np.where(take, m_warm, m_init)
    v_opt, m_opt = _polish(L, u, x, v_init, m_init, st)
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
    offsets_v = _velocity_lattice(ham, u, x, st, u.lipschitz())
    vals, _, _ = _step(L, u, x, st, offsets_v,
                       _scan_table(L, u, x, st, offsets_v), None)
    return u.with_values(vals.reshape(u.values.shape))


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

# value-iteration sweeps before policy iteration takes over; the update
# ratios of their later half are the measured contraction
_HEAD = 10
# cap on the Bellman steps of one solve
_MAX_ITER = 100000


def solve_discounted(L: TonelliLagrangian, lam: float, grid: GridSpec,
                     dt: float, tol_fp: float = 1e-10) -> DiscountedSolution:
    """Fixed point of the discounted operator T, by policy iteration.

    The first _HEAD Bellman steps are value-iteration sweeps u <- T u, and
    measured_contraction is the worst update ratio among their later half
    (nan when fewer than four ratios sit above the rounding floor).  It
    never exceeds beta, since the scheme is monotone, but it can read
    below it while orbit mixing keeps single steps faster than beta: on
    the 81-node double well at lam = 0.5 the ratios d_{k+1}/d_k of the
    update sizes sit near 0.86*beta for k = 4..16 and return to beta only
    at k = 17, 18, so a 10-sweep head reads beta*(1 - 0.135) there.
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

    # sub/supersolution-flavored start: the value of resting at the best spot
    u = grid.build(lambda p: np.zeros(len(p)))
    x = u.nodes()
    rest = np.asarray(L.eval(0.0, x, np.zeros_like(x)))
    u = u.with_values(np.full(u.values.shape, float(rest.min()) / lam))

    stop = tol_fp * (1.0 - st.beta)
    diffs: list[float] = []
    v_warm: Array | None = None
    grow_streak = 0
    offsets_v: Array | None = None
    lip_used = -np.inf

    for iterations in range(1, _MAX_ITER + 1):
        if iterations > _HEAD:
            u = _evaluate_policy(L, u, x, st, v_warm, feet_last)
        lip = u.lipschitz()
        if lip > 1.2 * lip_used:
            lattice = _velocity_lattice(ham, u, x, st, lip)
            lip_used = lip
            if not np.array_equal(lattice, offsets_v):
                offsets_v = lattice
                table = _scan_table(L, u, x, st, offsets_v)
        vals, v_warm, feet_last = _step(L, u, x, st, offsets_v, table, v_warm)
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

    if u.boundary != "periodic":
        pad = 1e-8 * (1.0 + float((u.box[:, 1] - u.box[:, 0]).max()))
        lo = u.box[:, 0] - pad
        hi = u.box[:, 1] + pad
        if np.any(feet_last < lo) or np.any(feet_last > hi):
            raise BoxExhausted(
                "optimal foot points leave the grid box; enlarge the box")

    floor = 1e4 * np.finfo(float).eps * scale
    head = diffs[:_HEAD]
    ratios = [head[i + 1] / head[i]
              for i in range(_HEAD // 2, len(head) - 1)
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
        contraction_factor=st.beta, dt=dt, fp_defect=diffs[-1],
        measured_contraction=measured, residual_tol=float(declared),
        diff_mask=mask,
        meta={"lagrangian": L.key, "tol_fp": tol_fp},
    )


# ---------------------------------------------------------------------------
# evolution lift


def lift_to_evolution(sol: DiscountedSolution, t: float) -> GridFunction:
    """e^{lam*t} u on the same grid (the evolution form at time t)."""
    return sol.u.with_values(np.exp(sol.lam * t) * sol.u.values)
