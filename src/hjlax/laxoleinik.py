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
in one bounded L-BFGS-B run the grid cells around them that can beat the
best node, select the best maximizer, and certify the action and operator
gradient there:

    D(T+ u)(x) = L_v(s, x, xidot(s)),    D(T- u)(x) = L_v(t, x, xidot(t)).

Every action value and endpoint gradient of the pipeline comes from
_terms: L's closed-form kernel when it has one, else action's batched LGL
Newton solve, whose values are certified by the Euler-Lagrange residual and
whose endpoint gradients are the arcs' endpoint momenta, D_x A = -L_v(s)
and D_y A = L_v(t).  The scan, the polish (whose only variables are the
free endpoints) and the certificate all read it.

Each node's record keeps its maximizer, certified action and gradient, its
distance ratio, whether the search ball clipped it, and how many maximizers
tie with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.optimize import Bounds, brentq, minimize
# bound but not called: bench/spans.py wraps these names until the tracer
# moves, and bench/test_bench.py checks the tracer rebinds minimize_action here
from scipy.optimize import minimize_scalar  # noqa: F401

from .action import _EL_TOL, _solve_arcs, action_values_batch
from .action import minimize_action  # noqa: F401
from .errors import BoxExhausted, ConfigError, NonUniqueMaximizer
from .gridfn import GridFunction
from .lagrangian import TonelliLagrangian

Array = np.ndarray

# search balls reach (1 + _BALL_MARGIN) * kappa0 * (t - s) from the node
_BALL_MARGIN = 0.5
# polished maximizers within this relative value gap count as ties
_VALUE_TOL = 1e-7
# cell polish: L-BFGS-B options
_POLISH_OPTIONS = {"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-11}
# a polished cell stopped short when its projected gradient exceeds this times
# 1 + its largest gradient entry: ten times the action gradient's certificate
_POLISH_PG_TOL = 10.0 * _EL_TOL
# _bend's curvature, measured at one node, is taken this many times over
_BEND_MARGIN = 2.0
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
                     notes: list[str]) -> tuple[Array, Array, Array]:
    """Grid nodes within the search ball, their values and their flat
    indices (ascending), evenly subsampled down to _CANDIDATE_CAP; a cap
    hit is appended to notes.

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
    return x[None, :] + delta[idx], u.values.ravel()[idx], idx


def _near_clusters(ys: Array, near: list[int], sep: float) -> list[list[int]]:
    """Clusters of one point's near-optimal candidates, given ranked best
    first.  Each lists its representative (the best candidate farther than
    sep from every earlier representative), then the near-optimal
    candidates within sep of it."""
    clusters: list[list[int]] = []
    reps: list[list[float]] = []
    for i, y in zip(near, ys[near].tolist()):
        for members, rep in zip(clusters, reps):
            if math.dist(y, rep) <= sep:
                members.append(i)
                break
        else:
            clusters.append([i])
            reps.append(y)
    return clusters


def _node_actions(L: TonelliLagrangian, u: GridFunction, s: float, t: float,
                  pts: Array, sign: int, owner: Array, node: Array,
                  lattice: Array, acts: Array) -> Callable[[Array, Array], Array]:
    """Lookup of the action between a point of pts and a grid node: the
    scan's where it scored the node, else computed by _terms.  owner, node,
    lattice and acts are the scan's candidates (their point, flat node
    index, unwrapped lattice index and action), ascending in (owner, node)."""
    size = u.values.size
    keys = owner * size + node

    def action_at(i: Array, k: Array) -> Array:
        """A between the points i (...) and the lattice nodes k (..., d),
        the arc running from the point for T+ and to it for T-."""
        flat = np.ravel_multi_index(tuple(np.moveaxis(u.node_index(k), -1, 0)),
                                    u.values.shape)
        wanted = i * size + flat
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        miss = (keys[pos] != wanted) | np.any(lattice[pos] != k, axis=-1)
        out = acts[pos]
        if miss.any():
            x, y = pts[i[miss]], u.box[:, 0] + k[miss] * u.spacing
            out[miss] = _terms(L, s, t, *((x, y) if sign > 0 else (y, x)),
                               grads=False)[0]
        return out

    return action_at


def _bend(action_at: Callable[[Array, Array], Array], top: Array, h: Array
          ) -> Array:
    """How far A bends below its multilinear interpolant A_I on the grid
    cells near each point's best node, at lattice index top (Q, d): a bend
    (Q, d) with A_I - A <= sum_k bend_k w_k (1 - w_k) at local cell
    coordinates w, bend_k = h_k^2 K_k / 2 when K_k bounds the curvature of
    the free endpoint -> A along axis k.  K_k is A's second difference at
    the best node, taken _BEND_MARGIN times, since it is measured there
    only."""
    q, d = top.shape
    steps = np.array([-1, 0, 1])[:, None, None] * np.eye(d, dtype=np.int64)
    k = top[:, None, None, :] + steps                        # (Q, 3, d, d)
    a = action_at(np.broadcast_to(np.arange(q)[:, None, None], k.shape[:-1]), k)
    curvature = (a[:, 0] - 2.0 * a[:, 1] + a[:, 2]) / h ** 2
    return _BEND_MARGIN * np.maximum(curvature, 0.0) * h ** 2 / 2.0


def _cell_bound(f: Array, bend: Array) -> Array:
    """Upper bound (M,) on sign*u - A over grid cells whose corner values
    are f (M, 2^d, corners in itertools.product order) and whose bend is
    (M, d).  u is multilinear on a cell, so sign*u - A is a multilinear
    form plus at most sum_k bend_k w_k (1 - w_k).  From the best corner c
    the multilinear form rises along axis k by at most D_k per unit, the
    largest rise of an axis-k edge leaving c's side, so the bound is
    f_c + sum_k max over r in [0, 1] of D_k r + bend_k r (1 - r)."""
    rows, d = np.arange(len(f)), bend.shape[1]
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    best = np.argmax(f, axis=1)
    bound = f[rows, best]
    for k in range(d):
        flipped = np.arange(len(corners)) ^ (1 << (d - 1 - k))
        leaving = corners[None, :, k] == corners[best, k][:, None]
        rise = np.where(leaving, f[:, flipped] - f, -np.inf).max(axis=1)
        q = bend[:, k]
        peak = np.zeros(len(f))
        np.divide((rise + q) ** 2, 4.0 * q, out=peak, where=q > 0)
        bound += np.where(rise >= q, rise, np.where(rise > -q, peak, 0.0))
    return bound


def _select(polished: list[tuple[float, Array]], sep: float
            ) -> tuple[Array, int]:
    """The best polished maximizer and the number of maximizers tied with
    it (itself and those farther than sep)."""
    # fast path for the common single maximizer (~10 % of bench moreau's time)
    if len(polished) == 1:
        return polished[0][1], 1
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


def _terms(L: TonelliLagrangian, s: float, t: float, x: Array, y: Array,
           grads: bool = True) -> tuple[Array, Array | None, Array | None]:
    """A_{s,t}(x, y) of broadcast endpoint batches x and y (..., d) and,
    with grads, its endpoint gradients D_x A and D_y A (else None): the one
    choice of action model, L's closed-form kernel when it has one, else
    action's certified batched LGL solve.  Values alone go through
    action_values_batch, where a traced run counts the scan's arcs."""
    kern = L.kernel
    if not grads:
        return (kern.value(s, t, x, y) if kern is not None
                else action_values_batch(L, s, t, x, y)), None, None
    if kern is not None:
        return kern.value(s, t, x, y), kern.grad_x(s, t, x, y), kern.grad_y(s, t, x, y)
    arcs = _solve_arcs(L, s, t, x, y)
    return arcs.value, arcs.grad_x, arcs.grad_y


def _polish(L: TonelliLagrangian, u: GridFunction, s: float, t: float,
            x: Array, y0: Array, lower: Array, sign: int, notes: list[str]
            ) -> tuple[Array, Array]:
    """Maximizers (M, d) and maxima (M,) of sign*u(y) - A(x, y) (T+) or
    sign*u(y) - A(y, x) (T-) over the grid cells whose lowest node has
    lattice index lower (M, d), for x (M, d), each run started from its
    corner node y0 (M, d).

    One L-BFGS-B run covers every cell, and its only variables are the
    free endpoints y.  Each is bounded to its cell, where u is multilinear,
    so a maximum on a kink of u lies on a bound and is found exactly.  The
    action term and its y-gradient come from _terms.  A run that stops
    short of convergence appends a note when some cell's own projected
    gradient at the returned point exceeds _POLISH_PG_TOL: L-BFGS-B's stop
    tests read the summed objective, so its verdict on one cell depends on
    the other cells of the run.
    """
    h = u.spacing
    v = _corner_values(u, lower)
    # cell bounds, both exact at y0
    k0 = np.rint((y0 - u.box[:, 0]) / h).astype(np.int64)
    lo, hi = y0 + (lower - k0) * h, y0 + (lower - k0 + 1) * h

    def action_terms(y):
        value, grad_x, grad_y = _terms(L, s, t, *((x, y) if sign > 0 else (y, x)))
        return value, grad_y if sign > 0 else grad_x

    def objective(z):
        y = z.reshape(lo.shape)
        uval, ugrad = _multilinear(v, (y - lo) / h)
        action, g_y = action_terms(y)
        return (action.sum() - sign * uval.sum(),
                (g_y - sign * ugrad / h).ravel())

    res = minimize(objective, y0.ravel(), jac=True, method="L-BFGS-B",
                   bounds=Bounds(lo.ravel(), hi.ravel()),
                   options=_POLISH_OPTIONS)
    y = res.x.reshape(lo.shape)
    g = res.jac.reshape(lo.shape)
    stuck = (np.abs(np.clip(y - g, lo, hi) - y).max(axis=1)
             > _POLISH_PG_TOL * (1.0 + np.abs(g).max(axis=1)))
    if not res.success and stuck.any():
        notes.append(f"cell polish stopped after {res.nit} iterations: "
                     f"{res.message}")
    return y, sign * _multilinear(v, (y - lo) / h)[0] - action_terms(y)[0]


def _open_cells(u: GridFunction, action_at: Callable[[Array, Array], Array],
                i: Array, lower: Array, sign: int, bend: Array, floor: Array
                ) -> Array:
    """Mask (M,) of the grid cells, by the lattice index lower (M, d) of
    their lowest node, whose _cell_bound for the points i (M,) reaches
    floor (M,): the cells worth a polish."""
    corners = np.array(list(itertools.product((0, 1), repeat=u.dim)))
    k = lower[:, None, :] + corners                          # (M, 2^d, d)
    f = sign * _corner_values(u, lower) - action_at(
        np.broadcast_to(i[:, None], k.shape[:-1]), k)
    bound = _cell_bound(f, bend)
    return bound >= floor


def _certify(L: TonelliLagrangian, s: float, t: float, pts: Array,
             y_star: Array, sign: int) -> tuple[Array, Array]:
    """Action and operator gradient of the arcs between pts and their chosen
    maximizers, from _terms: D(T+ u)(x) = -D_x A(x, y*) = L_v(s, x,
    xidot(s)) and D(T- u)(x) = D_y A(y*, x) = L_v(t, x, xidot(t))."""
    ends = (pts, y_star) if sign > 0 else (y_star, pts)
    value, grad_x, grad_y = _terms(L, s, t, *ends)
    return value, -grad_x if sign > 0 else grad_y


def _apply_pointwise(L, u, s, t, pts, sign, radius, nodes, notes
                     ) -> list[MaximizerRecord]:
    """Every point of T+ (sign=+1) or T- (sign=-1) in array operations: one
    scan of the (points x candidates) actions, one polish of the cells
    around the near-optimal nodes that can beat the best node, selection,
    and the certificate.

    Internally always maximizes sign*u(y) - A(arc), where for T- the arc
    runs y -> x; the records store the operator's values.  Returns the
    records, one per point; the pass appends its notes (candidate-cap hits
    in point order, then an unconverged polish) to notes."""
    gathered = [_grid_candidates(u, nodes, x, radius, notes) for x in pts]
    counts = np.array([len(yi) for yi, _, _ in gathered])
    starts = np.cumsum(counts) - counts
    ys = np.concatenate([yi for yi, _, _ in gathered])
    xs = np.repeat(pts, counts, axis=0)
    ends = (xs, ys) if sign > 0 else (ys, xs)
    acts, _, _ = _terms(L, s, t, *ends, grads=False)
    scores = sign * np.concatenate([vi for _, vi, _ in gathered]) - acts
    owner = np.repeat(np.arange(len(pts)), counts)
    lattice = np.rint((ys - u.box[:, 0]) / u.spacing).astype(np.int64)
    action_at = _node_actions(L, u, s, t, pts, sign, owner,
                              np.concatenate([ni for _, _, ni in gathered]),
                              lattice, acts)

    # each point's first best candidate
    tops = np.flatnonzero(scores == np.maximum.reduceat(scores, starts)[owner])
    tops = tops[np.searchsorted(owner[tops], np.arange(len(pts)))]
    bend = _bend(action_at, lattice[tops], u.spacing)
    # a node trailing the best score by more than a cell's bend cannot lead
    # to a better maximizer, so the clusters hold every node that can: the
    # pick is then the same whatever the level of u
    slack = _VALUE_TOL * 10.0
    floor = scores[tops] - slack - bend.sum(axis=1) / 4.0
    near = np.flatnonzero(scores >= floor[owner])
    near = near[np.lexsort((-scores[near], owner[near]))]
    cuts = np.searchsorted(owner[near], np.arange(len(pts) + 1))
    sep = 2.0 * float(np.max(u.spacing))
    clusters = [_near_clusters(ys, near[a:b].tolist(), sep)
                for a, b in zip(cuts[:-1], cuts[1:])]
    # each cluster stands at its representative node until a polished cell
    # beats it; every member's cells are candidates, so that which of
    # several tied nodes represents a cluster cannot change the result
    polished = [[(scores[cl[0]], ys[cl[0]]) for cl in point_clusters]
                for point_clusters in clusters]
    rows = np.array([(i, j, m) for i, cl in enumerate(clusters)
                     for j, members in enumerate(cl) for m in members])
    # the cells around every member, each once per point, for the best
    # member that touches it
    corners = np.array(list(itertools.product((0, 1), repeat=u.dim)))
    lower = (lattice[rows[:, 2], None, :] + corners - 1).reshape(-1, u.dim)
    cell_rows = np.repeat(rows, len(corners), axis=0)
    low = lower.min(axis=0)
    extent = lower.max(axis=0) - low + 1
    keys = (cell_rows[:, 0] * np.prod(extent)
            + np.ravel_multi_index(tuple((lower - low).T), extent))
    first = np.sort(np.unique(keys, return_index=True)[1])
    cell_rows, lower = cell_rows[first], lower[first]
    i = cell_rows[:, 0]
    keep = _open_cells(u, action_at, i, lower, sign, bend[i],
                       scores[tops][i] - slack)
    # (the best node's cells always stay: their bound is at least its score)
    i, j, m = cell_rows[keep].T
    y_pol, f_pol = _polish(L, u, s, t, pts[i], ys[m], lower[keep], sign, notes)
    for pi, cj, f, y in zip(i, j, f_pol, y_pol):
        if f > polished[pi][cj][0]:
            polished[pi][cj] = (f, y)
    picks = [_select(point_polished, sep) for point_polished in polished]

    y_star = np.array([p[0] for p in picks])
    action, gradient = _certify(L, s, t, pts, y_star, sign)
    u_star = u(y_star)
    records = [_record(x, y, float(uy), float(a), g, sign, t - s, radius, m)
               for x, y, uy, a, g, (_, m)
               in zip(pts, y_star, u_star, action, gradient, picks)]
    return records


def _apply_operator(
    L: TonelliLagrangian,
    u: GridFunction,
    s: float,
    t: float,
    sign: int,
    points: Array | None = None,
    kappa0: float | None = None,
) -> OperatorResult:
    """T+ (sign=+1) or T- (sign=-1) of u at every node (or at points); a
    clipped maximizer gets one more pass in a 1.5 times wider ball.  Notes
    come in the order made: both passes', then the expansions'."""
    if not t > s:
        raise ConfigError(f"need s < t, got s={s}, t={t}")
    L.check_window(s, t)

    nodes = u.nodes()
    if kappa0 is None:
        kappa0 = estimate_kappa0(L, u.lipschitz(), s, t, nodes)["kappa0"]
    # never search below the grid resolution
    radius = max((1.0 + _BALL_MARGIN) * kappa0 * (t - s),
                 2.0 * float(np.max(u.spacing)))
    pts = nodes if points is None else np.atleast_2d(np.asarray(points, float))

    notes: list[str] = []
    records = _apply_pointwise(L, u, s, t, pts, sign, radius, nodes, notes)
    # expand clipped balls once; superlinearity makes a larger ball conclusive
    redo = [i for i, rec in enumerate(records) if rec.clipped]
    if redo:
        wide = _apply_pointwise(L, u, s, t, pts[redo], sign, 1.5 * radius,
                                nodes, notes)
        for i, rec in zip(redo, wide):
            records[i] = rec
            notes.append(f"ball expanded at {pts[i].tolist()}")
            if rec.clipped:
                notes.append(f"search ball of radius {1.5 * radius:.4g} still "
                             f"clipped at {pts[i].tolist()}")

    values = np.array([r.value for r in records])
    grads = np.stack([r.gradient for r in records])
    if points is None:
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


def require_unique_maximizer(rec: MaximizerRecord) -> None:
    if rec.multiplicity > 1:
        raise NonUniqueMaximizer(
            f"{rec.multiplicity} maximizers within tolerance at x={rec.x.tolist()}")
