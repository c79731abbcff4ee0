"""Lax-Oleinik operators driven by minimized actions.

    (T+_{s,t} u)(x) = sup_y { u(y) - A_{s,t}(x, y) }
    (T-_{s,t} u)(x) = inf_y { u(y) + A_{s,t}(y, x) }

u is a grid function; the sup/inf is localized to a ball |y - x| <= R whose
radius comes from the growth certificates: superlinearity beats any Lipschitz
slope, so maximizers of u(y) - A(x, y) satisfy

    theta(|y - x| / (t - s)) - Lip(u) |y - x| / (t - s) <= c0 + M0,

with M0 the max of L(., ., 0) over the grid nodes.  estimate_kappa0 solves
that inequality for the largest velocity ratio.  Each node is scanned over the
candidate set (grid nodes inside the ball), the best candidates (one per
cluster of near-optimal nodes) are polished continuously, and the action and
operator gradient at the chosen maximizer are certified:

    D(T+ u)(x) = L_v(s, x, xidot(s)),    D(T- u)(x) = L_v(t, x, xidot(t)).

Lagrangians carrying an analytic kernel (free and lifted free) take the
kernel route, which handles all nodes at once in array operations: the scan
evaluates the kernel on the whole (nodes x candidates) array, one batched
Newton polish covers the grid cells around every near-optimal candidate, and
the certified action and gradient are the kernel's closed forms.  Other
Lagrangians take the direct route, node by node: a batched descent scan, a
scalar or Nelder-Mead polish, and one accurate collocation solve at the
maximizer.  Both routes share candidate gathering and selection, and the
direct route never consults the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

from .action import action_values_batch, minimize_action
from .errors import (
    BoxExhausted,
    ConfigError,
    NonUniqueMaximizer,
    SearchBallClipped,
)
from .gridfn import GridFunction
from .lagrangian import TonelliLagrangian
from .report import ProbeReport

Array = np.ndarray

# search balls reach (1 + _BALL_MARGIN) * kappa0 * (t - s) from the node
_BALL_MARGIN = 0.5
# polished maximizers within this relative value gap count as ties
_VALUE_TOL = 1e-7
# kernel-route cell polish: Newton iterations and step tolerance (cell units)
_NEWTON_ITERS = 20
_NEWTON_STEP_TOL = 1e-12


@dataclass
class MaximizerRecord:
    """One node's argmax data: location, barrier value, certified action,
    operator gradient, and scan diagnostics."""

    x: Array
    y_star: Array
    value: float
    action: float
    gradient: Array
    distance_ratio: float
    clipped: bool
    multiplicity: int
    runner_up_gap: float


@dataclass
class OperatorResult:
    """Image of a Lax-Oleinik operator with per-node records.

    Full-grid mode fills grid (values reshaped onto u's mesh) and gradient of
    shape u.values.shape + (dim,).  Pointwise mode (points=...) leaves grid
    None; values and gradient are positional, one row per requested point.
    """

    grid: GridFunction | None
    values: Array
    gradient: Array
    records: list[MaximizerRecord]
    sign: int
    s: float
    t: float
    ball_radius: float
    kappa0_ratio: float
    notes: list[str] = field(default_factory=list)


def estimate_kappa0(
    L: TonelliLagrangian,
    lip: float,
    s: float,
    t: float,
    x_samples: Array,
    alphas: Sequence[float] = (1.0,),
) -> dict[str, Any]:
    """Velocity-ratio bound kappa0 for maximizer localization.

    Solves theta(q) = lip q + c0 + M0 for its largest root, where M0 is the
    sampled sup of L(tau, x, 0) over x_samples and tau in [s, t].  The alphas
    entries rescale lip (the bound for alpha * u), exposing how the search
    ball grows with the data.  Returns the roots and the ball radius
    (1 + _BALL_MARGIN) * q * (t - s) of the base root.
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    taus = np.linspace(s, t, 5)
    vals = L.eval(taus[:, None], x_samples[None, :, :],
                  np.zeros((1, len(x_samples), L.dim)))
    M0 = float(np.max(vals))
    g = L.growth
    rhs_const = g.c0 + max(M0, 0.0)

    roots = {}
    for alpha in alphas:
        slope = abs(alpha) * lip

        def gap(q):
            return float(g.theta(np.asarray(q, dtype=float))) - slope * q - rhs_const

        q_hi = 1.0
        for _ in range(200):
            if gap(q_hi) > 0:
                break
            q_hi *= 2.0
        else:
            raise BoxExhausted("superlinearity never overtook the Lipschitz slope")
        # largest root: walk down from q_hi until the gap turns negative;
        # theta(q) <= slope q + rhs_const can hold on [0, q*] with gap(0) = 0
        q_lo = q_hi
        root = 0.0
        for _ in range(200):
            q_lo *= 0.5
            if q_lo < 1e-14:
                break
            if gap(q_lo) < 0:
                root = brentq(gap, q_lo, q_hi, xtol=1e-12)
                break
            q_hi = q_lo
        roots[alpha] = float(root)

    base = roots[1.0] if 1.0 in roots else roots[max(roots)]
    return {
        "kappa0": base,
        "by_alpha": roots,
        "M0": M0,
        "ball_radius": (1.0 + _BALL_MARGIN) * base * (t - s),
    }


def _grid_candidates(u: GridFunction, nodes: Array, period: Array | None,
                     x: Array, radius: float, cap: int, notes: list[str]
                     ) -> tuple[Array, Array]:
    """Grid nodes within the search ball and their values, evenly
    subsampled down to cap; a cap hit is appended to notes.

    nodes is u.nodes() and period the box widths of a periodic u (None
    under the constant policy); callers compute both once per operator.
    """
    delta = nodes - x[None, :]
    if period is not None:
        # search the nearest periodic image so balls wrap across the seam
        delta = (delta + 0.5 * period) % period - 0.5 * period
    dist = np.linalg.norm(delta, axis=1)
    mask = dist <= radius
    if not mask.any():
        idx = np.array([int(np.argmin(dist))])
    else:
        idx = np.nonzero(mask)[0]
    found = len(idx)
    if found > cap:
        idx = idx[np.linspace(0, found - 1, cap).astype(int)]
        notes.append(f"candidate cap {cap} hit at {x.tolist()}: "
                     f"{found} nodes in the ball")
    return x[None, :] + delta[idx], u.values.ravel()[idx]


def _clusters(points: Array, scores: Array, top_gap: float, sep: float
              ) -> list[list[int]]:
    """Clusters of near-optimal candidates, best first.  Each lists its
    representative (the best candidate farther than sep from every earlier
    representative), then the near-optimal candidates within sep of it."""
    best = float(scores.max())
    near = np.nonzero(scores >= best - top_gap)[0]
    near = near[np.argsort(-scores[near])]
    clusters: list[list[int]] = []
    for i in near:
        for members in clusters:
            if np.linalg.norm(points[i] - points[members[0]]) <= sep:
                members.append(int(i))
                break
        else:
            clusters.append([int(i)])
    return clusters


def _near_clusters(ys: Array, scores: Array, sep: float) -> list[list[int]]:
    """At most three clusters of one point's near-optimal candidates."""
    gap_tol = max(_VALUE_TOL * 10.0, 1e-7 * (1.0 + float(np.abs(scores).max())))
    return _clusters(ys, scores, gap_tol, sep)[:3]


def _select(polished: list[tuple[float, Array]], sep: float
            ) -> tuple[Array, int, float]:
    """The best polished maximizer, the number of maximizers tied with it
    (itself and those farther than sep), and the gap to the runner-up."""
    polished.sort(key=lambda pv: (-pv[0], tuple(pv[1])))
    best_phi, y_star = polished[0]
    multiplicity = sum(
        1 for val, yy in polished
        if best_phi - val <= _VALUE_TOL * (1.0 + abs(best_phi))
        and (np.array_equal(yy, y_star) or np.linalg.norm(yy - y_star) > sep))
    runner_gap = (best_phi - polished[1][0]) if len(polished) > 1 else np.inf
    return y_star, multiplicity, float(runner_gap)


def _record(x: Array, y_star: Array, u_star: float, action: float,
            gradient: Array, sign: int, span: float, radius: float,
            multiplicity: int, runner_gap: float) -> MaximizerRecord:
    """Record of x's chosen maximizer y_star, where u(y_star) = u_star; a
    maximizer within 2 % of the ball's edge counts as clipped."""
    dist = float(np.linalg.norm(y_star - x))
    return MaximizerRecord(
        x=x.copy(), y_star=y_star.copy(),
        value=sign * (sign * u_star - action), action=action,
        gradient=np.atleast_1d(gradient).copy(),
        distance_ratio=dist / span,
        clipped=dist >= radius * 0.98,
        multiplicity=multiplicity,
        runner_up_gap=runner_gap,
    )


def _apply_pointwise(
    L: TonelliLagrangian,
    u: GridFunction,
    s: float,
    t: float,
    x: Array,
    sign: int,
    radius: float,
    candidate_cap: int,
    nodes: Array,
    period: Array | None,
    notes: list[str],
) -> MaximizerRecord:
    """One node of T+ (sign=+1) or T- (sign=-1) on the direct route.

    Internally always maximizes phi(y) = sign*u(y) - A(arc), where for T-
    the arc runs y -> x and phi = -(u(y) + A); the record stores the
    operator's value sign*phi.  A candidate-cap hit is appended to notes.
    """
    ys, uvals = _grid_candidates(u, nodes, period, x, radius, candidate_cap,
                                 notes)
    scores = sign * uvals - action_values_batch(L, s, t, x, ys,
                                                reverse=sign < 0)
    h_cand = float(np.max(u.spacing))

    def phi(yv: Array) -> float:
        yv = np.atleast_1d(yv)
        a = float(action_values_batch(L, s, t, x, yv[None, :],
                                      reverse=sign < 0)[0])
        return sign * float(u(yv[None, :])[0]) - a

    polished: list[tuple[float, Array]] = []
    for members in _near_clusters(ys, scores, 2.0 * h_cand):
        y0 = ys[members[0]]
        if L.dim == 1:
            lo, hi = y0[0] - h_cand, y0[0] + h_cand
            res = minimize_scalar(lambda z: -phi(np.array([z])),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-10})
            polished.append((-res.fun, np.array([res.x])))
        else:
            res = minimize(lambda z: -phi(z), y0, method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-12,
                                    "maxiter": 400})
            polished.append((-res.fun, res.x))
    y_star, multiplicity, runner_gap = _select(polished, 2.0 * h_cand)

    # certified action and gradient at the chosen maximizer
    if sign > 0:
        fs = minimize_action(L, s, t, x, y_star)
        gradient = -fs.grad_x            # = L_v(s, x, xidot(s))
    else:
        fs = minimize_action(L, s, t, y_star, x)
        gradient = fs.grad_y             # = L_v(t, x, xidot(t))
    return _record(x, y_star, float(u(y_star[None, :])[0]), fs.value,
                   gradient, sign, t - s, radius, multiplicity, runner_gap)


def _direct_records(L, u, s, t, pts, sign, radius, candidate_cap, nodes,
                    period) -> tuple[list[MaximizerRecord], list[list[str]]]:
    """_apply_pointwise at every point; per-point records and notes."""
    notes: list[list[str]] = [[] for _ in pts]
    records = [_apply_pointwise(L, u, s, t, x, sign, radius, candidate_cap,
                                nodes, period, node_notes)
               for x, node_notes in zip(pts, notes)]
    return records, notes


def _corner_values(u: GridFunction, lower: Array) -> Array:
    """u at the 2^d corners of the cells whose lowest node has index lower
    (..., d), corners in itertools.product order.  Indices past the box
    clamp (constant policy) or wrap (periodic), as in GridFunction.interp,
    so a cell outside the box carries the constant extension."""
    m = np.array(u.values.shape)
    corners = np.array(list(itertools.product((0, 1), repeat=u.dim)))
    idx = lower[..., None, :] + corners
    idx = idx % m if u.boundary == "periodic" else np.clip(idx, 0, m - 1)
    return u.values[tuple(np.moveaxis(idx, -1, 0))]


def _multilinear(v: Array, w: Array) -> tuple[Array, Array, Array]:
    """Value, gradient and Hessian at w (..., d) of the multilinear form on
    the unit cell whose corner values are v (..., 2^d)."""
    d = w.shape[-1]
    val = np.zeros(w.shape[:-1])
    grad = np.zeros(w.shape)
    hess = np.zeros(w.shape + (d,))
    for c, corner in enumerate(itertools.product((0, 1), repeat=d)):
        on = np.array(corner, dtype=bool)
        factors = np.where(on, w, 1.0 - w)          # one per axis
        slopes = np.where(on, 1.0, -1.0)            # their w-derivatives
        vc = v[..., c]
        val += vc * np.prod(factors, axis=-1)
        for i in range(d):
            fi = factors.copy()
            fi[..., i] = slopes[i]
            grad[..., i] += vc * np.prod(fi, axis=-1)
            for j in range(i + 1, d):
                fij = fi.copy()
                fij[..., j] = slopes[j]
                cross = vc * np.prod(fij, axis=-1)
                hess[..., i, j] += cross
                hess[..., j, i] += cross
    return val, grad, hess


def _polish_cells(L: TonelliLagrangian, u: GridFunction, s: float, t: float,
                  x: Array, y0: Array, sign: int) -> tuple[Array, Array]:
    """Maximizer and maximum of sign*u(y) - k(y) over the 2^d grid cells
    touching each node y0 (Q, d), i.e. over [y0 - h, y0 + h]^d, where
    k(y) = kernel(x, y) for T+ and kernel(y, x) for T-.

    Inside a cell u is multilinear and the kernel smooth, so the maximum
    sits at a critical point of the barrier restricted to one face of the
    cell (the cell itself, an edge, ..., a corner).  Newton's method runs on
    every face at once (kernel Hessian by central differences of its
    gradient), each face's point is clipped into the cell, and the best is
    kept: a maximum on a face, such as a kink of u, is found exactly.
    """
    d = u.dim
    h = u.spacing
    kern = L.kernel
    k0 = np.rint((y0 - u.box[:, 0]) / h).astype(np.int64)
    cells = np.array(list(itertools.product((0, 1), repeat=d)))
    faces = np.array(list(itertools.product((0, 1, 2), repeat=d)))
    free = faces == 2                       # else fixed at 0 or 1
    both_free = free[:, :, None] & free[:, None, :]
    # axes (Q, cells, faces, d); y = y0 + (w + cell - 1) h, exact at y0
    v = _corner_values(u, k0[:, None, :] + cells - 1)[:, :, None, :]
    shift = (cells - 1)[None, :, None, :]
    xb = x[:, None, None, :]
    yb = y0[:, None, None, :]

    def k_value(y):
        xs = np.broadcast_to(xb, y.shape)
        return kern.value(s, t, xs, y) if sign > 0 else kern.value(s, t, y, xs)

    def k_grad(y):
        xs = np.broadcast_to(xb, y.shape)
        return kern.grad_y(s, t, xs, y) if sign > 0 else kern.grad_x(s, t, y, xs)

    def barrier(w):
        y = yb + (w + shift) * h
        uval, ugrad, uhess = _multilinear(v, w)
        cols = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1e-4 * h[j]
            cols.append((k_grad(y + e) - k_grad(y - e)) / (2.0 * e[j]))
        khess = np.stack(cols, axis=-1)
        khess = 0.5 * (khess + np.swapaxes(khess, -1, -2))
        return (sign * uval - k_value(y), sign * ugrad - h * k_grad(y),
                sign * uhess - h[:, None] * khess * h[None, :])

    eye = np.eye(d)
    w = np.broadcast_to(np.where(free, 0.5, faces),
                        (len(y0), len(cells)) + faces.shape).astype(float)
    for _ in range(_NEWTON_ITERS):
        _, g, hess = barrier(w)
        hess = np.where(both_free, hess, -eye)
        g = np.where(free, g, 0.0)
        singular = np.linalg.det(hess) == 0.0
        hess[singular] = -eye
        g[singular] = 0.0
        step = -np.linalg.solve(hess, g[..., None])[..., 0]
        w, w_old = np.clip(w + step, -1.0, 2.0), w
        if np.abs(w - w_old).max() <= _NEWTON_STEP_TOL:
            break
    w = np.clip(w, 0.0, 1.0)
    f = barrier(w)[0].reshape(len(y0), -1)
    best = np.argmax(f, axis=1)
    rows = np.arange(len(y0))
    offset = (w + shift).reshape(len(y0), -1, d)[rows, best]
    return y0 + offset * h, f[rows, best]


def _kernel_records(L, u, s, t, pts, sign, radius, candidate_cap, nodes,
                    period) -> tuple[list[MaximizerRecord], list[list[str]]]:
    """Every point of T+ (sign=+1) or T- (sign=-1) under L's closed-form
    kernel, in array operations: one scan of the (points x candidates)
    kernel values, one batched cell polish of every near-optimal candidate,
    and the certified action and gradient read off the kernel."""
    kern = L.kernel
    notes: list[list[str]] = [[] for _ in pts]
    gathered = [_grid_candidates(u, nodes, period, x, radius, candidate_cap,
                                 node_notes)
                for x, node_notes in zip(pts, notes)]
    counts = np.array([len(ys) for ys, _ in gathered])
    # pad every row to the widest ball with copies of x; row i is read up
    # to its count only
    ys = np.repeat(pts[:, None, :], counts.max(), axis=1)
    uvals = np.zeros(ys.shape[:2])
    for i, (yi, vi) in enumerate(gathered):
        ys[i, :len(yi)] = yi
        uvals[i, :len(vi)] = vi
    xs = np.broadcast_to(pts[:, None, :], ys.shape)
    acts = kern.value(s, t, xs, ys) if sign > 0 else kern.value(s, t, ys, xs)
    scores = sign * uvals - acts

    sep = 2.0 * float(np.max(u.spacing))
    clusters = [_near_clusters(ys[i, :n], scores[i, :n], sep)
                for i, n in enumerate(counts)]
    # polish every member, so that which of several tied nodes represents a
    # cluster cannot change the result; the best member stands for it
    flat = np.array([(i, j) for i, cl in enumerate(clusters)
                     for members in cl for j in members])
    y_pol, f_pol = _polish_cells(L, u, s, t, pts[flat[:, 0]],
                                 ys[flat[:, 0], flat[:, 1]], sign)
    sizes = [len(members) for cl in clusters for members in cl]
    ends = np.cumsum(sizes)
    best = [a + int(np.argmax(f_pol[a:b])) for a, b in zip(ends - sizes, ends)]
    polished = iter((f_pol[k], y_pol[k]) for k in best)
    picks = [_select([next(polished) for _ in cl], sep) for cl in clusters]

    # certified action and gradient at the chosen maximizers, in closed form
    y_star = np.array([p[0] for p in picks])
    if sign > 0:
        action = kern.value(s, t, pts, y_star)
        gradient = -kern.grad_x(s, t, pts, y_star)   # = L_v(s, x, xidot(s))
    else:
        action = kern.value(s, t, y_star, pts)
        gradient = kern.grad_y(s, t, y_star, pts)    # = L_v(t, x, xidot(t))
    u_star = u(y_star)
    records = [_record(x, y, float(uy), float(a), g, sign, t - s, radius, m,
                       gap)
               for x, y, uy, a, g, (_, m, gap)
               in zip(pts, y_star, u_star, action, gradient, picks)]
    return records, notes


def _apply_operator(
    L: TonelliLagrangian,
    u: GridFunction,
    s: float,
    t: float,
    sign: int,
    points: Array | None = None,
    kappa0: float | None = None,
    strict_domain: bool = False,
    candidate_cap: int = 600,
) -> OperatorResult:
    if not t > s:
        raise ConfigError(f"need s < t, got s={s}, t={t}")
    L.check_window(s, t)

    nodes = u.nodes()
    if kappa0 is None:
        est = estimate_kappa0(L, u.lipschitz(), s, t, nodes)
        kappa0 = est["kappa0"]
        radius = est["ball_radius"]
    else:
        radius = (1.0 + _BALL_MARGIN) * kappa0 * (t - s)
    # never search below the grid resolution
    radius = max(radius, 2.0 * float(np.max(u.spacing)))

    if points is None:
        pts = nodes
        full_grid = True
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        full_grid = False

    if strict_domain and u.boundary != "periodic":
        lo, hi = u.box[:, 0], u.box[:, 1]
        for x in pts:
            if np.any(x - radius < lo) or np.any(x + radius > hi):
                raise SearchBallClipped(
                    f"search ball of radius {radius:.4g} at {x} leaves the domain")

    period = ((u.box[:, 1] - u.box[:, 0])[None, :]
              if u.boundary == "periodic" else None)
    route = _kernel_records if L.kernel is not None else _direct_records
    records, node_notes = route(L, u, s, t, pts, sign, radius, candidate_cap,
                                nodes, period)
    # expand clipped balls once; superlinearity makes a larger ball conclusive
    redo = [i for i, rec in enumerate(records) if rec.clipped]
    wide = {}
    if redo:
        wide_records, wide_notes = route(L, u, s, t, pts[redo], sign,
                                         1.5 * radius, candidate_cap, nodes,
                                         period)
        wide = dict(zip(redo, zip(wide_records, wide_notes)))
    notes: list[str] = []
    for i, x in enumerate(pts):
        notes += node_notes[i]
        if i in wide:
            records[i], wide_notes = wide[i]
            notes += wide_notes
            notes.append(f"ball expanded at {x.tolist()}")
            if records[i].clipped:
                notes.append(f"search ball of radius {1.5 * radius:.4g} still "
                             f"clipped at {x.tolist()}")

    values = np.array([r.value for r in records])
    grads = np.stack([r.gradient for r in records])
    if full_grid:
        grid = u.with_values(values.reshape(u.values.shape))
        gradient = grads.reshape(u.values.shape + (L.dim,))
    else:
        grid = None
        gradient = grads
    return OperatorResult(
        grid=grid, values=values, gradient=gradient, records=records,
        sign=sign, s=s, t=t, ball_radius=radius, kappa0_ratio=float(kappa0),
        notes=notes,
    )


def lax_plus(L, u, s, t, **kwargs) -> OperatorResult:
    """T+_{s,t} u on the whole grid (or at points=... only)."""
    return _apply_operator(L, u, s, t, +1, **kwargs)


def lax_minus(L, u, s, t, **kwargs) -> OperatorResult:
    """T-_{s,t} u on the whole grid (or at points=... only)."""
    return _apply_operator(L, u, s, t, -1, **kwargs)


def solve_cauchy(L, u0, t, s: float = 0.0, **kwargs) -> OperatorResult:
    """Variational (viscosity) solution at time t of the Cauchy problem with
    initial datum u0 at time s: w(t, .) = T-_{s,t} u0."""
    return lax_minus(L, u0, s, t, **kwargs)


def check_condition_M(
    L: TonelliLagrangian,
    u: GridFunction,
    s: float,
    t: float,
    points: Array,
    **kwargs: Any,
) -> ProbeReport:
    """Uniqueness of the barrier maximizer at each probe point.

    Records a violation wherever two polished maximizers are separated by
    more than twice the grid spacing yet agree in value to the relative
    tie tolerance _VALUE_TOL."""
    res = _apply_operator(L, u, s, t, +1, points=points, **kwargs)
    report = ProbeReport(name="condition_M", samples=len(res.records))
    sep = 2.0 * float(np.max(u.spacing))
    for rec in res.records:
        unique = rec.multiplicity <= 1
        report.record_slack(1.0 if unique else -1.0,
                            check="unique_maximizer",
                            x=rec.x.tolist(),
                            multiplicity=rec.multiplicity,
                            separation_threshold=sep)
    report.constants = {
        "value_tol": _VALUE_TOL,
        "max_multiplicity": max(r.multiplicity for r in res.records),
    }
    return report


def require_unique_maximizer(rec: MaximizerRecord) -> None:
    if rec.multiplicity > 1:
        raise NonUniqueMaximizer(
            f"{rec.multiplicity} maximizers within tolerance at x={rec.x.tolist()}")
