"""Lax-Oleinik operators driven by minimized actions.

    (T+_{s,t} u)(x) = sup_y { u(y) - A_{s,t}(x, y) }
    (T-_{s,t} u)(x) = inf_y { u(y) + A_{s,t}(y, x) }

u is a grid function; the sup/inf is localized to a ball |y - x| <= R whose
radius comes from the growth certificates: superlinearity beats any Lipschitz
slope, so maximizers of u(y) - A(x, y) satisfy

    theta(|y - x| / (t - s)) - Lip(u) |y - x| / (t - s) <= c0 + M0,

with M0 the max of L(., ., 0) over the grid nodes.  estimate_kappa0 solves
that inequality for the largest velocity ratio.

Every Lagrangian goes through one array pipeline over all points: gather
the candidates (grid nodes inside the ball), scan the (points x candidates)
actions in one call, cluster each point's near-optimal candidates, polish
every member of every cluster in one bounded L-BFGS-B run over the grid
cells around it, select the best polished maximizer, and certify the action
and operator gradient there:

    D(T+ u)(x) = L_v(s, x, xidot(s)),    D(T- u)(x) = L_v(t, x, xidot(t)).

L's closed-form kernel, when it has one, gives the scan values, the action
term of the polish and the certificate.  Otherwise the scan is one batched
descent of polylines with action._SCAN_SEGMENTS segments, the polish moves
the interior nodes of polylines at that resolution along with their free
endpoint, and the certificate is one collocation minimize_action per point.
Each node's record keeps its maximizer, certified action and gradient, its
distance ratio, whether the search ball clipped it, and how many maximizers
tie with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.optimize import Bounds, brentq, minimize
# bound but not called: bench/spans.py wraps this name until the tracer moves
from scipy.optimize import minimize_scalar  # noqa: F401

from .action import (
    _SCAN_SEGMENTS,
    _polyline_action_grad,
    _polyline_values,
    action_values_batch,
    minimize_action,
)
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
# cell polish: L-BFGS-B options
_POLISH_OPTIONS = {"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-11}
# candidates per point; a ball holding more is evenly subsampled
_CANDIDATE_CAP = 600


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
    kappa0_ratio: float
    notes: list[str] = field(default_factory=list)


def estimate_kappa0(
    L: TonelliLagrangian,
    lip: float,
    s: float,
    t: float,
    x_samples: Array,
) -> dict[str, Any]:
    """Velocity-ratio bound kappa0 for maximizer localization.

    Solves theta(q) = lip q + c0 + M0 for its largest root, where M0 is the
    sampled sup of L(tau, x, 0) over x_samples and tau in [s, t].  (The
    bound for alpha * u is the one for lip scaled by |alpha|.)  Returns the
    root and the ball radius (1 + _BALL_MARGIN) * q * (t - s).
    """
    x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
    taus = np.linspace(s, t, 5)
    vals = L.eval(taus[:, None], x_samples[None, :, :],
                  np.zeros((1, len(x_samples), L.dim)))
    M0 = float(np.max(vals))
    g = L.growth
    rhs_const = g.c0 + max(M0, 0.0)

    def gap(q):
        return float(g.theta(np.asarray(q, dtype=float))) - lip * q - rhs_const

    q_hi = 1.0
    for _ in range(200):
        if gap(q_hi) > 0:
            break
        q_hi *= 2.0
    else:
        raise BoxExhausted("superlinearity never overtook the Lipschitz slope")
    # largest root: walk down from q_hi until the gap turns negative;
    # theta(q) <= lip q + rhs_const can hold on [0, q*] with gap(0) = 0
    q_lo = q_hi
    root = 0.0
    for _ in range(200):
        q_lo *= 0.5
        if q_lo < 1e-14:
            break
        if gap(q_lo) < 0:
            root = float(brentq(gap, q_lo, q_hi, xtol=1e-12))
            break
        q_hi = q_lo
    return {
        "kappa0": root,
        "M0": M0,
        "ball_radius": (1.0 + _BALL_MARGIN) * root * (t - s),
    }


def _grid_candidates(u: GridFunction, nodes: Array, x: Array, radius: float,
                     notes: list[str]) -> tuple[Array, Array]:
    """Grid nodes within the search ball and their values, evenly
    subsampled down to _CANDIDATE_CAP; a cap hit is appended to notes.

    nodes is u.nodes(), computed once per operator by the caller.  Each
    node is taken at its nearest image (u.nearest_image), so on a periodic
    grid the ball wraps across the seam and the candidates returned are
    x plus those displacements, not the stored node coordinates.
    """
    delta = u.nearest_image(nodes - x[None, :])
    dist = np.linalg.norm(delta, axis=1)
    mask = dist <= radius
    if not mask.any():
        idx = np.array([int(np.argmin(dist))])
    else:
        idx = np.nonzero(mask)[0]
    found, cap = len(idx), _CANDIDATE_CAP
    if found > cap:
        idx = idx[np.linspace(0, found - 1, cap).astype(int)]
        notes.append(f"candidate cap {cap} hit at {x.tolist()}: "
                     f"{found} nodes in the ball")
    return x[None, :] + delta[idx], u.values.ravel()[idx]


def _near_clusters(ys: Array, scores: Array, sep: float) -> list[list[int]]:
    """At most three clusters of one point's near-optimal candidates, best
    first.  Each lists its representative (the best candidate farther than
    sep from every earlier representative), then the near-optimal
    candidates within sep of it."""
    gap_tol = max(_VALUE_TOL * 10.0, 1e-7 * (1.0 + float(np.abs(scores).max())))
    near = np.nonzero(scores >= float(scores.max()) - gap_tol)[0]
    near = near[np.argsort(-scores[near])]
    clusters: list[list[int]] = []
    for i in near:
        for members in clusters:
            if np.linalg.norm(ys[i] - ys[members[0]]) <= sep:
                members.append(int(i))
                break
        else:
            clusters.append([int(i)])
    return clusters[:3]


def _select(polished: list[tuple[float, Array]], sep: float
            ) -> tuple[Array, int]:
    """The best polished maximizer and the number of maximizers tied with
    it (itself and those farther than sep)."""
    polished.sort(key=lambda pv: (-pv[0], tuple(pv[1])))
    best_phi, y_star = polished[0]
    multiplicity = sum(
        1 for val, yy in polished
        if best_phi - val <= _VALUE_TOL * (1.0 + abs(best_phi))
        and (np.array_equal(yy, y_star) or np.linalg.norm(yy - y_star) > sep))
    return y_star, multiplicity


def _record(x: Array, y_star: Array, u_star: float, action: float,
            gradient: Array, sign: int, span: float, radius: float,
            multiplicity: int) -> MaximizerRecord:
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
    )


def _corner_values(u: GridFunction, lower: Array) -> Array:
    """u at the 2^d corners of the cells whose lowest node has index lower
    (..., d), corners in itertools.product order.  Indices past the box
    go through u.node_index, as in GridFunction.interp, so a cell outside
    a constant box carries the constant extension."""
    corners = np.array(list(itertools.product((0, 1), repeat=u.dim)))
    idx = u.node_index(lower[..., None, :] + corners)
    return u.values[tuple(np.moveaxis(idx, -1, 0))]


def _multilinear(v: Array, w: Array) -> tuple[Array, Array]:
    """Value and gradient at w (..., d) of the multilinear form on the unit
    cell whose corner values are v (..., 2^d)."""
    d = w.shape[-1]
    val = np.zeros(w.shape[:-1])
    grad = np.zeros(w.shape)
    for c, corner in enumerate(itertools.product((0, 1), repeat=d)):
        on = np.array(corner, dtype=bool)
        factors = np.where(on, w, 1.0 - w)          # one per axis
        vc = v[..., c]
        val += vc * np.prod(factors, axis=-1)
        for i in range(d):
            fi = factors.copy()
            fi[..., i] = 1.0 if on[i] else -1.0     # its w-derivative
            grad[..., i] += vc * np.prod(fi, axis=-1)
    return val, grad


def _polish(L: TonelliLagrangian, u: GridFunction, s: float, t: float,
            x: Array, y0: Array, sign: int, notes: list[str]
            ) -> tuple[Array, Array]:
    """Maximizers and maxima of sign*u(y) - A(arc) over each of the 2^d grid
    cells touching the node y0 (Q, d), shaped (Q, 2^d, d) and (Q, 2^d); the
    arc runs from x (Q, d) to y for T+ and from y to x for T-.

    One L-BFGS-B run covers every (row, cell) pair.  The free endpoint y is
    bounded to its cell, where u is multilinear, so a maximum on a kink of u
    lies on a bound and is found exactly.  A is L's kernel when it has one,
    else the action of a polyline arc whose interior nodes are variables
    too.  A run that stops short of convergence appends a note.
    """
    d = u.dim
    h = u.spacing
    kern = L.kernel
    cells = np.array(list(itertools.product((0, 1), repeat=d)))
    k0 = np.rint((y0 - u.box[:, 0]) / h).astype(np.int64)
    v = _corner_values(u, k0[:, None, :] + cells - 1)
    # cell bounds, both exact at y0
    lo = y0[:, None, :] + (cells - 1) * h
    hi = y0[:, None, :] + cells * h
    xb = np.broadcast_to(x[:, None, :], lo.shape)
    yb = np.broadcast_to(y0[:, None, :], lo.shape)
    end = -1 if sign > 0 else 0             # the arc node that is y
    times = np.linspace(s, t, _SCAN_SEGMENTS + 1)
    if kern is None:
        frac = np.linspace(0.0, 1.0, _SCAN_SEGMENTS + 1)[:, None]
        first, last = (xb, yb) if sign > 0 else (yb, xb)
        arcs = first[..., None, :] + frac * (last - first)[..., None, :]
        interior = arcs[..., 1:-1, :].ravel()
    else:
        interior = np.zeros(0)
    n_y = lo.size

    def split(z):
        y = z[:n_y].reshape(lo.shape)
        if kern is not None:
            return y, None
        arcs[..., 1:-1, :] = z[n_y:].reshape(arcs[..., 1:-1, :].shape)
        arcs[..., end, :] = y
        return y, arcs

    def kernel_terms(y):
        if sign > 0:
            return kern.value(s, t, xb, y), kern.grad_y(s, t, xb, y)
        return kern.value(s, t, y, xb), kern.grad_x(s, t, y, xb)

    def objective(z):
        y, nodes = split(z)
        uval, ugrad = _multilinear(v, (y - lo) / h)
        if kern is None:
            action, g = _polyline_action_grad(L, times, nodes)
            g_y, g_rest = g[..., end, :], g[..., 1:-1, :].ravel()
        else:
            action, g_y = kernel_terms(y)
            action, g_rest = action.sum(), interior
        return (action - sign * uval.sum(),
                np.concatenate([(g_y - sign * ugrad / h).ravel(), g_rest]))

    free = np.full(interior.size, np.inf)
    res = minimize(objective, np.concatenate([yb.ravel(), interior]),
                   jac=True, method="L-BFGS-B",
                   bounds=Bounds(np.concatenate([lo.ravel(), -free]),
                                 np.concatenate([hi.ravel(), free])),
                   options=_POLISH_OPTIONS)
    if not res.success:
        notes.append(f"cell polish stopped after {res.nit} iterations: "
                     f"{res.message}")
    y, nodes = split(res.x)
    action = (_polyline_values(L, times, nodes) if kern is None
              else kernel_terms(y)[0])
    return y, sign * _multilinear(v, (y - lo) / h)[0] - action


def _certify(L: TonelliLagrangian, s: float, t: float, pts: Array,
             y_star: Array, sign: int) -> tuple[Array, Array]:
    """Action and operator gradient of the arcs between pts and their chosen
    maximizers: D(T+ u)(x) = L_v(s, x, xidot(s)), D(T- u)(x) = L_v(t, x,
    xidot(t)).  Closed forms under L's kernel, else one collocation
    minimize_action per point."""
    ends = (pts, y_star) if sign > 0 else (y_star, pts)
    kern = L.kernel
    if kern is not None:
        grad = -kern.grad_x(s, t, *ends) if sign > 0 else kern.grad_y(s, t, *ends)
        return kern.value(s, t, *ends), grad
    sols = [minimize_action(L, s, t, a, b) for a, b in zip(*ends)]
    grads = [-fs.grad_x if sign > 0 else fs.grad_y for fs in sols]
    return np.array([fs.value for fs in sols]), np.array(grads)


def _apply_pointwise(L, u, s, t, pts, sign, radius, nodes, notes
                     ) -> tuple[list[MaximizerRecord], list[list[str]]]:
    """Every point of T+ (sign=+1) or T- (sign=-1) in array operations: one
    scan of the (points x candidates) actions, one polish of every member
    of every near-optimal cluster, selection, and the certificate.

    Internally always maximizes sign*u(y) - A(arc), where for T- the arc
    runs y -> x; the records store the operator's values.  Returns the
    records and per-point notes (candidate-cap hits); notes of the whole
    pass (an unconverged polish) go to notes."""
    node_notes: list[list[str]] = [[] for _ in pts]
    gathered = [_grid_candidates(u, nodes, x, radius, point_notes)
                for x, point_notes in zip(pts, node_notes)]
    counts = np.array([len(yi) for yi, _ in gathered])
    starts = np.cumsum(counts) - counts
    ys = np.concatenate([yi for yi, _ in gathered])
    xs = np.repeat(pts, counts, axis=0)
    ends = (xs, ys) if sign > 0 else (ys, xs)
    acts = (L.kernel.value(s, t, *ends) if L.kernel is not None
            else action_values_batch(L, s, t, *ends))
    scores = sign * np.concatenate([vi for _, vi in gathered]) - acts

    sep = 2.0 * float(np.max(u.spacing))
    clusters = [_near_clusters(ys[a:a + n], scores[a:a + n], sep)
                for a, n in zip(starts, counts)]
    # polish every member, so that which of several tied nodes represents a
    # cluster cannot change the result; the best member and cell stand for it
    flat = np.array([(i, starts[i] + j) for i, cl in enumerate(clusters)
                     for members in cl for j in members])
    y_pol, f_pol = _polish(L, u, s, t, pts[flat[:, 0]], ys[flat[:, 1]], sign,
                           notes)
    y_pol, f_pol = y_pol.reshape(-1, L.dim), f_pol.ravel()
    sizes = [len(members) * 2 ** L.dim for cl in clusters for members in cl]
    stops = np.cumsum(sizes)
    best = [a + int(np.argmax(f_pol[a:b])) for a, b in zip(stops - sizes, stops)]
    polished = iter((f_pol[k], y_pol[k]) for k in best)
    picks = [_select([next(polished) for _ in cl], sep) for cl in clusters]

    y_star = np.array([p[0] for p in picks])
    action, gradient = _certify(L, s, t, pts, y_star, sign)
    u_star = u(y_star)
    records = [_record(x, y, float(uy), float(a), g, sign, t - s, radius, m)
               for x, y, uy, a, g, (_, m)
               in zip(pts, y_star, u_star, action, gradient, picks)]
    return records, node_notes


def _apply_operator(
    L: TonelliLagrangian,
    u: GridFunction,
    s: float,
    t: float,
    sign: int,
    points: Array | None = None,
    kappa0: float | None = None,
    strict_domain: bool = False,
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

    notes: list[str] = []
    records, node_notes = _apply_pointwise(L, u, s, t, pts, sign, radius,
                                           nodes, notes)
    # expand clipped balls once; superlinearity makes a larger ball conclusive
    redo = [i for i, rec in enumerate(records) if rec.clipped]
    wide = {}
    if redo:
        wide_records, wide_notes = _apply_pointwise(
            L, u, s, t, pts[redo], sign, 1.5 * radius, nodes, notes)
        wide = dict(zip(redo, zip(wide_records, wide_notes)))
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
        kappa0_ratio=float(kappa0), notes=notes,
    )


def lax_plus(L, u, s, t, **kwargs) -> OperatorResult:
    """T+_{s,t} u on the whole grid (or at points=... only)."""
    return _apply_operator(L, u, s, t, +1, **kwargs)


def lax_minus(L, u, s, t, **kwargs) -> OperatorResult:
    """T-_{s,t} u on the whole grid (or at points=... only)."""
    return _apply_operator(L, u, s, t, -1, **kwargs)


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
