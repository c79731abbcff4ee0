"""Intrinsic regularization of discounted stationary solutions.

The regularized field at scale t is the sup-convolution of u with the
discounted kernel, sup_y { u(y) - A_{0,t}(x, y) } for the lifted running
cost e^{lam s} L; it is delegated to the forward Lax-Oleinik operator.
Small-time sweeps record uniform convergence back to u, the gradient and
velocity sequences of every probe point with their Aitken-extrapolated
limits (one array call over all probes), and the comparison of those
limits against the Hamiltonian minimizer over the superdifferential.
Maximizer traces started at a singular point track how the singularity
propagates: membership of every maximizer in the singular set, which the
trace detects itself, cone localization, trace continuity, and the
one-sided derivative at 0+.  The results are plain dataclasses: the CLI
writes their fields as they are.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discounted import DiscountedSolution
from .errors import (ConeViolation, ConfigError, NotSingular)
from .gridfn import GridFunction
from .lagrangian import (Hamiltonian, TonelliLagrangian, discount_lift,
                         hamiltonian_for)
from .laxoleinik import (MaximizerRecord, estimate_kappa0, lax_plus,
                         require_unique_maximizer)
from .action import _midpoint_family
from .report import write_csv
from .regularity import (min_H_over_superdiff, semiconcavity_constant,
                         singular_set, superdifferential)

Array = np.ndarray


# ---------------------------------------------------------------------------
# one regularization scale


@dataclass(frozen=True)
class RegularizedField:
    """Sup-convolution of u at one scale t, with probe diagnostics."""

    field: GridFunction
    sup_error: float              # ||field - u||_inf
    c11_bound: float              # max difference quotient of the gradient
    probe_points: Array           # (m, n) node-snapped probe locations
    probe_gradients: Array        # (m, n)
    probe_velocities: Array       # (m, n): (y* - x)/t
    probe_records: list[MaximizerRecord]


def _gradient_quotient_bound(u: GridFunction, grad: Array) -> float:
    """Worst adjacent-node difference quotient of the gradient field grad
    (u.values.shape + (dim,)), over the neighbour pairs of u's grid: across
    the seam of a periodic grid too, never past the rim of a constant box."""
    best = 0.0
    for e, h in zip(np.eye(u.dim, dtype=int), u.spacing):
        diff = np.stack([u.with_values(grad[..., k]).shifted(e) - grad[..., k]
                         for k in range(grad.shape[-1])], axis=-1)
        quot = np.linalg.norm(diff, axis=-1)
        quot = quot[np.isfinite(quot)]
        if quot.size:
            best = max(best, float(quot.max()) / float(h))
    return best


def intrinsic_regularize(sol: DiscountedSolution, L: TonelliLagrangian,
                         t: float, probe_points: Array) -> RegularizedField:
    """Apply the scale-t sup-convolution to sol.u on the whole grid.

    Probe points are snapped to their nearest nodes; each probe's record
    must hold a unique maximizer (NonUniqueMaximizer otherwise: shrink t
    below the strict-concavity window).  The gradient at a probe equals
    the lifted running cost's velocity gradient along the optimal arc at
    its start, which the operator records at every node.
    """
    if not t > 0.0:
        raise ConfigError(f"regularization scale must be positive, got {t}")
    lifted = discount_lift(L, sol.lam, horizon=max(t, sol.dt))
    res = lax_plus(lifted, sol.u, 0.0, t)
    sup_error = float(np.abs(res.grid.values - sol.u.values).max())
    c11 = _gradient_quotient_bound(sol.u, res.gradient)

    u = sol.u
    flat = [int(np.ravel_multi_index(u.nearest_node(p), u.values.shape))
            for p in np.atleast_2d(np.asarray(probe_points, dtype=float))]
    records = [res.records[k] for k in flat]
    for rec in records:
        require_unique_maximizer(rec)
    snapped = u.nodes()[flat].reshape(len(flat), u.dim)
    return RegularizedField(
        field=res.grid, sup_error=sup_error, c11_bound=c11,
        probe_points=snapped,
        probe_gradients=np.array([r.gradient for r in records]
                                 ).reshape(snapped.shape),
        probe_velocities=(np.array([r.y_star for r in records]
                                   ).reshape(snapped.shape) - snapped) / t,
        probe_records=records,
    )


# ---------------------------------------------------------------------------
# sweeps toward t -> 0+

# agreement of the last three Aitken extrapolants that makes a limit trusted
_CAUCHY_TOL = 1e-3


def aitken_extrapolants(seq: Array) -> Array:
    """Aitken delta-squared acceleration along axis 0; entry k accelerates
    (k, k+1, k+2).  Degenerate denominators fall back to the raw last term."""
    seq = np.asarray(seq, dtype=float)
    if len(seq) < 3:
        return seq[-1:].copy()
    d1 = seq[1:] - seq[:-1]
    den = d1[1:] - d1[:-1]
    num = d1[1:] ** 2
    scale = np.maximum(np.abs(seq[2:]), 1.0)
    safe = np.abs(den) > 1e-14 * scale
    out = seq[2:].copy()
    out[safe] -= num[safe] / den[safe]
    return out


def default_probe_points(sol: DiscountedSolution, seed: int) -> Array:
    """All detected singular nodes plus 8 seeded smooth nodes.

    Smooth candidates keep a margin of 6 spacings from every detected
    singular node, measured to its nearest periodic image (inside that
    halo the ball-based superdifferential sees gradients from both sides
    of the kink), and of 10% of the box width
    from a non-periodic rim (where domain truncation distorts u).
    """
    sing = singular_set(sol.u)
    u = sol.u
    h = float(u.spacing.max())
    nodes = u.nodes()
    gap = u.nearest_image(nodes[:, None, :] - sing.points[None, :, :])
    keep = np.all(np.linalg.norm(gap, axis=-1) >= 6.0 * h, axis=1)
    if u.boundary != "periodic":
        margins = 0.1 * (u.box[:, 1] - u.box[:, 0])
        keep &= np.all((nodes - u.box[:, 0] >= margins)
                       & (u.box[:, 1] - nodes >= margins), axis=1)
    interior = np.nonzero(keep)[0]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(interior), size=min(8, len(interior)),
                        replace=False)
    pts = [*sing.points, *nodes[interior[np.sort(chosen)]]]
    return np.array(pts).reshape(len(pts), u.dim)


def _decreasing_t_grid(t_grid: Array) -> Array:
    """t_grid as an array; it must decrease toward 0."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or not np.all(np.diff(t_grid) < 0.0):
        raise ConfigError("t_grid must decrease toward 0")
    return t_grid


@dataclass(frozen=True)
class RegularizationSweep:
    """Regularized fields along a t-grid decreasing toward 0."""

    lam: float
    t_grid: Array                     # (K,), decreasing
    sup_errors: Array                 # (K,)
    c11_bounds: Array                 # (K,)
    probe_points: Array               # (m, n)
    probe_gradients: Array            # (K, m, n)
    probe_velocities: Array           # (K, m, n)
    gradient_limits: Array            # (m, n) last Aitken extrapolant
    velocity_limits: Array            # (m, n)
    cauchy_ok: Array                  # (m,) bool
    base: GridFunction                # the u the sweep regularizes
    fields: list[RegularizedField] = field(repr=False, default_factory=list)
    meta: dict = field(default_factory=dict)

    def errors_to_csv(self, path: str) -> None:
        write_csv(path, ["t", "sup_error", "c11_bound"],
                  zip(self.t_grid, self.sup_errors, self.c11_bounds))

    def probes_to_csv(self, path: str) -> None:
        n = self.probe_points.shape[1]
        cols = (["t", "probe"] + [f"x{k+1}" for k in range(n)]
                + [f"g{k+1}" for k in range(n)] + [f"v{k+1}" for k in range(n)])
        write_csv(path, cols, (
            [t, j, *self.probe_points[j], *self.probe_gradients[i, j],
             *self.probe_velocities[i, j]]
            for i, t in enumerate(self.t_grid)
            for j in range(len(self.probe_points))))


def convergence_sweep(sol: DiscountedSolution, L: TonelliLagrangian,
                      t_grid: Array, seed: int,
                      probe_points: Array | None = None
                      ) -> RegularizationSweep:
    """Regularize along a geometric t-grid and extrapolate the gradients.

    The gradient and velocity sequences of every probe point are
    accelerated by Aitken's delta-squared; the sweep declares a probe's
    limit trustworthy when its last three extrapolants agree to
    _CAUCHY_TOL.  Without probe_points the sweep probes
    default_probe_points(sol, seed).
    """
    t_grid = _decreasing_t_grid(t_grid)
    if probe_points is None:
        probe_points = default_probe_points(sol, seed)

    fields = [intrinsic_regularize(sol, L, float(t), probe_points)
              for t in t_grid]
    pts = fields[0].probe_points
    grads = np.stack([f.probe_gradients for f in fields])
    vels = np.stack([f.probe_velocities for f in fields])

    ext = aitken_extrapolants(grads)                   # (K - 2, m, n)
    tail = ext[-3:]
    gaps = np.linalg.norm(tail - tail[-1], axis=-1)    # (<= 3, m)
    cauchy = (len(ext) >= 3) & (gaps.max(axis=0) <= _CAUCHY_TOL)
    return RegularizationSweep(
        lam=sol.lam, t_grid=t_grid,
        sup_errors=np.array([f.sup_error for f in fields]),
        c11_bounds=np.array([f.c11_bound for f in fields]),
        probe_points=pts, probe_gradients=grads, probe_velocities=vels,
        gradient_limits=ext[-1],
        velocity_limits=aitken_extrapolants(vels)[-1], cauchy_ok=cauchy,
        base=sol.u, fields=fields,
        meta={"cauchy_tol": _CAUCHY_TOL, "seed": seed},
    )


@dataclass(frozen=True)
class GradientComparison:
    """Extrapolated regularization gradient vs the Hamiltonian minimizer
    over the superdifferential at one probe point."""

    x: Array
    gradient_limit: Array
    q: Array
    H_value: float
    distance: float
    hull_diameter: float


def gradient_limit_vs_qx(sweep: RegularizationSweep, H: Hamiltonian,
                         x: Array) -> GradientComparison:
    """Compare the sweep's extrapolated gradient limit at probe x with the
    minimizer of H over the superdifferential of the base field there."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gaps = np.linalg.norm(sweep.probe_points - x[None, :], axis=1)
    j = int(np.argmin(gaps))
    if gaps[j] > 0.51 * float(sweep.base.spacing.max()):
        raise ConfigError(f"{x.tolist()} is not a probe point of this sweep")
    xp = sweep.probe_points[j]
    S = superdifferential(sweep.base, xp)
    q, val = min_H_over_superdiff(H, 0.0, xp, S)
    g = sweep.gradient_limits[j]
    return GradientComparison(
        x=xp.copy(), gradient_limit=g.copy(), q=q, H_value=val,
        distance=float(np.linalg.norm(g - q)), hull_diameter=S.diameter,
    )


# ---------------------------------------------------------------------------
# singularity propagation


@dataclass(frozen=True)
class SingularTrace:
    """Maximizer trace t -> y_{t,x0} started at a singular point."""

    x0: Array
    lam: float
    t_grid: Array                 # (K,), decreasing
    maximizers: Array             # (K, n)
    distance_ratios: Array        # (K,): |y - x0| / t
    kappa0: float
    max_jump: float               # worst consecutive |y_{t_k} - y_{t_{k+1}}|
    right_derivative: Array       # (n,), extrapolated (y - x0)/t at 0+
    q_lambda: Array               # (n,)
    v0: Array                     # (n,): H_p(x0, q_lambda)
    t1: float                     # uniqueness window along the trace
    t2: float                     # strict-concavity window
    meta: dict = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        n = len(self.x0)
        cols = ["t"] + [f"y{k+1}" for k in range(n)] + ["distance_ratio"]
        write_csv(path, cols, ([t, *y, r] for t, y, r in zip(
            self.t_grid, self.maximizers, self.distance_ratios)))


def trace_singularity(sol: DiscountedSolution, L: TonelliLagrangian,
                      x0: Array, t_grid: Array,
                      window_samples: int) -> SingularTrace:
    """Track the maximizer y_{t,x0} of u(y) - A_{0,t}(x0, y) as t -> 0+.

    The start point must belong to singular_set(sol.u), which the trace
    detects itself.  A maximizer leaving that set raises NotSingular and
    one leaving the cone |y - x0| <= kappa0*t raises ConeViolation, so a
    returned trace has every maximizer singular and inside the cone.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sing = singular_set(sol.u)
    if not sing.contains(x0):
        raise NotSingular(
            f"{x0.tolist()} is not in the detected singular set")
    idx = sol.u.nearest_node(x0)
    x0 = sol.u.node_point(idx)

    t_grid = _decreasing_t_grid(t_grid)
    lifted = discount_lift(L, sol.lam, horizon=float(t_grid.max()) + sol.dt)
    est = estimate_kappa0(lifted, sol.u.lipschitz(), 0.0,
                          float(t_grid.max()), sol.u.nodes())
    kappa0 = est["kappa0"]

    ys = []
    ratios = []
    unique_flags = []
    for t in t_grid:
        res = lax_plus(lifted, sol.u, 0.0, float(t),
                       points=x0[None, :], kappa0=kappa0)
        rec = res.records[0]
        y = rec.y_star
        ys.append(y)
        ratios.append(rec.distance_ratio)
        unique_flags.append(rec.multiplicity <= 1)
        if not sing.contains(y):
            raise NotSingular(
                f"maximizer {y.tolist()} at t={t} left the singular set")
        if rec.distance_ratio > kappa0 * (1.0 + 1e-6):
            raise ConeViolation(
                f"|y - x0|/t = {rec.distance_ratio:.4g} exceeds "
                f"kappa0 = {kappa0:.4g} at t={t}")
    ys = np.array(ys).reshape(len(t_grid), len(x0))
    jumps = np.linalg.norm(np.diff(ys, axis=0), axis=1)
    max_jump = float(jumps.max()) if len(jumps) else 0.0

    vel_seq = (ys - x0[None, :]) / t_grid[:, None]
    right = aitken_extrapolants(vel_seq)[-1]

    S = superdifferential(sol.u, x0)
    H = hamiltonian_for(L)
    q, _ = min_H_over_superdiff(H, 0.0, x0, S)
    v0 = np.atleast_1d(np.asarray(H.grad_p(0.0, x0, q), dtype=float))

    t2 = _concavity_window(sol, lifted, x0, t_grid, window_samples, seed=0)
    return SingularTrace(
        x0=x0, lam=sol.lam, t_grid=t_grid, maximizers=ys,
        distance_ratios=np.array(ratios), kappa0=float(kappa0),
        max_jump=max_jump, right_derivative=right, q_lambda=q, v0=v0,
        t1=_uniqueness_window(t_grid, unique_flags), t2=t2,
        meta={"ball_radius": est["ball_radius"]},
    )


def _uniqueness_window(ts: Array, flags: list[bool]) -> float:
    """Largest t in ts below which every t has a unique maximizer (0 when
    the smallest does not)."""
    t1 = 0.0
    for k in np.argsort(ts):
        if not flags[k]:
            break
        t1 = float(ts[k])
    return t1


def _concavity_window(sol: DiscountedSolution, lifted: TonelliLagrangian,
                      x0: Array, t_probe: Array, n_samples: int,
                      seed: int) -> float:
    """Largest probe t whose empirical in-space convexity constant of the
    kernel beats the local curvature of u: C'''(t)/t > C2 makes
    u(y) - A_{0,t}(x, y) strictly concave near the diagonal (0 when no
    probe t qualifies).  C2 is read on the nodes within 8 spacings of x0
    per axis, across the seam of a periodic grid; lifted is the discounted
    lift of L on a horizon that covers t_probe."""
    reach = 8.0 * sol.u.spacing
    c2 = semiconcavity_constant(sol.u, region=np.stack([x0 - reach, x0 + reach],
                                                       axis=1))
    rng = np.random.default_rng(seed)
    c3 = {}
    for t in map(float, t_probe):
        # C'''(t) reads only the h = 0 half of the midpoint family
        ratio = _midpoint_family(lifted, x0, 0.0, t, 1.0, n_samples, rng,
                                 with_time=False)[1]
        c3[t] = np.fmin.reduce(ratio, initial=np.inf)
    qualifying = [t for t in t_probe if c3[float(t)] / t > c2]
    return float(max(qualifying)) if qualifying else 0.0
