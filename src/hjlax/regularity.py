"""Superdifferentials of semiconcave grid functions.

A grid node is classified differentiable when a local per-axis quadratic
fit has residual below 10*spacing^2 and the one-sided slope spread stays
below 5*spacing; its gradient is then the central difference (exact for
quadratics and for piecewise-linear data away from kinks).  Limiting
gradients at a point are single-linkage clusters of nearby differentiable
node gradients; their convex hull over a ball of 3 spacings estimates the
superdifferential, guarded by a midpoint-defect bound of 0.5/spacing on
the curvature of u.  A node is singular when its limiting gradients within
2 spacings lie more than 4 spacings apart.  Hulls are built in the
principal coordinates of their points' affine span, so a flat hull in 3-d
works.  The minimizer of a convex Hamiltonian over a hull has one route,
projected gradient on simplex weights, and is returned only under its
Frank-Wolfe gap certificate; dense sampling of the hull is the independent
reference that the checks compare it with.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InsufficientSamples, NonConvergence,
                     NotSemiconcave)
from .gridfn import GridFunction
from .lagrangian import Hamiltonian

Array = np.ndarray

# 5-point stencil, least-squares quadratic: residual projector I - X(X'X)^-1 X'
_STENCIL = np.arange(-2.0, 3.0)
_X = np.stack([np.ones(5), _STENCIL, _STENCIL ** 2], axis=1)
_RESIDUAL_PROJ = np.eye(5) - _X @ np.linalg.solve(_X.T @ _X, _X.T)


# ---------------------------------------------------------------------------
# node classification


def grid_classification(u: GridFunction) -> tuple[Array, Array, Array]:
    """Per-node (central gradient, worst slope spread ratio, worst fit
    residual ratio); the ratios are normalized by their thresholds
    (5*spacing and 10*spacing^2), so a node is differentiable iff both
    ratios are <= 1.  The 5-point stencils are u.shifted planes, so they
    wrap on periodic grids; stencils reaching past a constant box's rim
    hold +inf, and those nodes get +inf ratios."""
    vals = u.values
    spread = np.zeros(vals.shape)
    resid = np.zeros(vals.shape)
    for e, h in zip(np.eye(u.dim, dtype=int), u.spacing):
        planes = [u.shifted(k * e) for k in range(-2, 3)]
        stack = np.stack(planes, axis=0)
        jump = np.abs((planes[3] - planes[2]) - (planes[2] - planes[1])) / h
        spread = np.maximum(spread, jump / (5.0 * h))
        # fit only full stencils; those reaching past the rim keep +inf
        full = np.isfinite(stack).all(axis=0)
        r = np.full(vals.shape, np.inf)
        r[full] = np.abs(_RESIDUAL_PROJ @ stack[:, full]).max(axis=0)
        resid = np.maximum(resid, r / (10.0 * h * h))
    bad = ~np.isfinite(spread) | ~np.isfinite(resid)
    spread[bad] = np.inf
    resid[bad] = np.inf
    return u.central_gradient(), spread, resid


# ---------------------------------------------------------------------------
# limiting differentials and hulls


def _nodes_within(u: GridFunction, x: Array, radius: float
                  ) -> tuple[Array, Array]:
    """Flat indices and wrapped displacements of nodes within the ball.
    The ball is closed with a relative slack so that nodes sitting exactly
    on the boundary are kept on both sides of a symmetric input."""
    delta = u.nearest_image(u.nodes() - x[None, :])
    dist = np.linalg.norm(delta, axis=1)
    keep = np.nonzero(dist <= radius * (1.0 + 1e-9))[0]
    return keep, delta[keep]


def _single_linkage(points: Array, tol: float) -> list[Array]:
    """Chain points whose gaps are <= tol; returns cluster index arrays,
    members ascending, clusters in the order of their first member.  Every
    point takes the least label among its neighbours until no label
    changes, which labels each cluster by its least index."""
    m = len(points)
    gaps = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    label = np.arange(m)
    while True:
        new = np.where(gaps <= tol, label, m).min(axis=1)
        if np.array_equal(new, label):
            return [np.flatnonzero(label == k) for k in np.unique(label)]
        label = new


def limiting_differentials(u: GridFunction, x: Array, radius: float) -> Array:
    """Cluster centers of gradients at differentiable nodes near x, one row
    per cluster, sorted lexicographically; gradients closer than
    10*spacing are single-linked into one cluster.

    Each center is the cluster's gradient field extrapolated to x by an
    affine least-squares fit (exact when gradients vary linearly across the
    ball, which kills the O(radius) bias of a plain mean over a lopsided
    node set); clusters too thin for the fit fall back to the mean."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h_max = float(u.spacing.max())
    if radius < 2.0 * h_max:
        raise ConfigError(f"radius {radius} is below 2*spacing {2 * h_max}")

    grad, spread, resid = grid_classification(u)
    idx, delta = _nodes_within(u, x, radius)
    ok = (spread.ravel()[idx] <= 1.0) & (resid.ravel()[idx] <= 1.0)
    samples = grad.reshape(-1, u.dim)[idx[ok]]
    offsets = delta[ok]
    if len(samples) < u.dim + 1:
        raise InsufficientSamples(
            f"only {len(samples)} differentiable nodes within radius {radius}")
    clusters = _single_linkage(samples, 10.0 * h_max)
    centers = np.stack([_cluster_center(offsets[c], samples[c], u.dim)
                        for c in clusters])
    order = np.lexsort(centers.T[::-1])
    return centers[order]


def _cluster_center(pts: Array, g: Array, dim: int) -> Array:
    """Affine fit of the cluster's gradients evaluated at offset 0.

    Members are first trimmed against the component-wise median: a member
    far from it relative to the median absolute deviation is a stencil
    that grazed a kink, not part of this smooth branch.  The fit itself
    is exact when gradients vary linearly across the ball, killing the
    O(radius) bias of a plain mean over a lopsided node set."""
    med = np.median(g, axis=0)
    r = np.linalg.norm(g - med[None, :], axis=1)
    keep = r <= 10.0 * np.median(r) + 1e-12 * (1.0 + float(np.abs(g).max()))
    if keep.sum() >= dim + 1:
        pts, g = pts[keep], g[keep]
    if len(g) < dim + 1:
        return g.mean(axis=0)
    design = np.concatenate([np.ones((len(g), 1)), pts], axis=1)
    coeff, _, rank, _ = np.linalg.lstsq(design, g, rcond=None)
    if rank < dim + 1:
        return g.mean(axis=0)
    return coeff[0]


def _hull_vertices(points: Array) -> Array:
    """Vertex representation of the convex hull, robust to degeneracy."""
    pts = np.atleast_2d(points)
    n = pts.shape[1]
    if len(pts) == 1:
        return pts.copy()
    if n == 1:
        lo, hi = float(pts.min()), float(pts.max())
        return np.array([[lo]]) if hi - lo <= 1e-14 else np.array([[lo], [hi]])
    mean, axes = _span_axes(pts)
    coords = (pts - mean) @ axes.T
    if len(axes) == 1:
        # segment (or a point): extremes along the principal direction
        return np.stack([pts[int(np.argmin(coords[:, 0]))],
                         pts[int(np.argmax(coords[:, 0]))]])
    from scipy.spatial import ConvexHull
    hull = ConvexHull(coords)
    verts = pts[hull.vertices]
    order = np.lexsort(verts.T[::-1])
    return verts[order]


def _span_axes(points: Array) -> tuple[Array, Array]:
    """Mean and principal axes (rows, singular values above 1e-10, at least
    one) of the points' affine span: in these coordinates a flat point set
    has a full-dimensional hull."""
    mean = points.mean(axis=0)
    _, s, vt = np.linalg.svd(points - mean, full_matrices=False)
    return mean, vt[:max(1, int(np.sum(s > 1e-10)))]


def _diameter(points: Array) -> float:
    """Largest distance between two of the points (0 for fewer than two);
    the same for a point set as for the vertices of its hull."""
    return max((float(np.linalg.norm(a - b))
                for i, a in enumerate(points) for b in points[i + 1:]),
               default=0.0)


@dataclass(frozen=True)
class SuperdiffSet:
    """Estimated superdifferential: hull of limiting gradients at a point."""

    x: Array
    limiting: Array       # (k, n) cluster centers, all on the hull boundary
    vertices: Array       # (m, n) hull vertices
    diameter: float


def superdifferential(u: GridFunction, x: Array) -> SuperdiffSet:
    """Hull of the limiting differentials within 3 spacings of x.

    A midpoint-defect scan guards the input class: ratios
    (u(x+z) + u(x-z) - 2 u(x))/|z|^2 above 0.5/spacing (far beyond any
    smooth curvature at desk scale but far below the +inf of a convex
    kink) raise NotSemiconcave.  Cluster centers that fall strictly inside
    the hull are discarded: a limiting differential is a limit of
    gradients converging to x, while interior centers are radius-scale
    mixing artifacts.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h_max = float(u.spacing.max())
    radius = 3.0 * h_max
    c2_bound = 0.5 / h_max

    _, offsets = _nodes_within(u, x, radius)
    z = offsets[np.linalg.norm(offsets, axis=1) > 0.25 * h_max]
    if len(z):
        defect = u(x[None, :] + z) + u(x[None, :] - z) - 2.0 * u(x[None, :])
        worst = float((defect / np.sum(z * z, axis=1)).max())
        if worst > c2_bound:
            raise NotSemiconcave(
                f"midpoint defect ratio {worst:.3g} exceeds bound "
                f"{c2_bound:.3g} near {x.tolist()}")

    limiting = limiting_differentials(u, x, radius)
    vertices = _hull_vertices(limiting)
    diam = _diameter(vertices)
    # each center's distance to the hull boundary (0 on it, >0 inside)
    if len(vertices) <= 2:
        depth = np.linalg.norm(limiting[:, None, :] - vertices[None, :, :],
                               axis=-1).min(axis=1)
    else:
        from scipy.spatial import ConvexHull
        mean, axes = _span_axes(vertices)
        eq = ConvexHull((vertices - mean) @ axes.T).equations
        coords = (limiting - mean) @ axes.T
        depth = -(coords @ eq[:, :-1].T + eq[:, -1]).max(axis=1)
    on_boundary = depth <= max(1e-9, 1e-6 * (1.0 + diam))
    return SuperdiffSet(x=x, limiting=limiting[on_boundary],
                        vertices=vertices, diameter=diam)


# ---------------------------------------------------------------------------
# minimizing H over the hull

# projected-gradient certificate and step budget of min_H_over_superdiff
_MIN_H_TOL = 1e-8
_MIN_H_MAX_ITER = 1000
# hull sampling step of brute_force_H_min
_BRUTE_STEP = 1e-3


def _proj_simplex(th: Array) -> Array:
    s = np.sort(th)[::-1]
    css = np.cumsum(s) - 1.0
    ks = np.arange(1, len(s) + 1)
    rho = int(np.nonzero(s - css / ks > 0)[0][-1])
    return np.maximum(th - css[rho] / (rho + 1.0), 0.0)


def min_H_over_superdiff(H: Hamiltonian, t: float, x: Array, S: SuperdiffSet
                         ) -> tuple[Array, float]:
    """Certified minimizer of the convex p -> H(t, x, p) over the hull.

    One route: projected gradient on the simplex weights of the hull
    vertices, from their average.  For convex H the Frank-Wolfe gap
    g.q - min_v g.v (g = H_p(q), v the vertices) bounds H(q) - min H, and
    q is returned only when the gap is within
    _MIN_H_TOL*(1 + |H_p(q)|_inf*(1 + diameter)); the loop aims 1e-3 below
    that.  A trial step is taken when H_p(q_t).(q_t - q) <= 0, i.e. it
    stops short of the minimum along its segment: for convex H that
    implies descent, and unlike a drop in value it stays resolved near an
    interior minimum.  The product is formed on the weights, relative to
    H_p(q_t).q_t, so the rounding of the weights' sum does not swamp it.
    A gap above the certificate after _MIN_H_MAX_ITER steps, or when no
    step can be taken, raises NonConvergence.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    verts = np.atleast_2d(S.vertices)
    if len(verts) == 0:
        raise ConfigError("empty superdifferential hull")

    def fval(q: Array) -> float:
        return float(np.asarray(H.eval(t, x, q)))

    def fgrad(q: Array) -> Array:
        return np.asarray(H.grad_p(t, x, q), dtype=float).reshape(-1)

    if len(verts) == 1:
        q = verts[0]
        return q.copy(), fval(q)

    th = np.full(len(verts), 1.0 / len(verts))
    q = th @ verts
    g = fgrad(q)
    eta = 1.0
    for step in range(_MIN_H_MAX_ITER + 1):
        # first-order change of H from q to each vertex
        r = verts @ g - g @ q
        gap = -float(r.min())
        scale = 1.0 + float(np.abs(g).max()) * (1.0 + S.diameter)
        if gap <= 1e-3 * _MIN_H_TOL * scale:
            return q, fval(q)
        if step == _MIN_H_MAX_ITER:
            break
        moved = False
        for _bt in range(60):
            th_t = _proj_simplex(th - eta * r)
            if np.array_equal(th_t, th):
                break
            q_t = th_t @ verts
            g_t = fgrad(q_t)
            if (verts @ g_t - g_t @ q_t) @ (th_t - th) <= 0.0:
                th, q, g = th_t, q_t, g_t
                moved = True
                break
            eta *= 0.5
        if not moved:
            break
        eta *= 1.4
    if gap <= _MIN_H_TOL * scale:
        return q, fval(q)
    raise NonConvergence(
        f"projected-gradient gap {gap:.3e} above certificate "
        f"{_MIN_H_TOL * scale:.3e} after {step} steps")


def brute_force_H_min(H: Hamiltonian, t: float, x: Array, S: SuperdiffSet
                      ) -> tuple[Array, float]:
    """Dense sampling of the hull at step _BRUTE_STEP, with one parabolic
    refinement per axis around the best sample (exact for quadratic H)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    verts = np.atleast_2d(S.vertices)
    n = verts.shape[1]

    def fvals(ps: Array) -> Array:
        return np.asarray(H.eval(t, x, ps), dtype=float)

    if len(verts) == 1:
        return verts[0].copy(), float(fvals(verts[0]))

    mean, principal = _span_axes(verts)
    if 1 < len(principal) < n:
        raise ConfigError(f"brute_force_H_min samples full-dimensional hulls; "
                          f"this one has rank {len(principal)} in dimension {n}")
    if len(principal) == 1:
        proj = (verts - mean) @ principal[0]
        a, b = verts[int(np.argmin(proj))], verts[int(np.argmax(proj))]
        m = max(3, int(np.ceil(np.linalg.norm(b - a) / _BRUTE_STEP)) + 1)
        ts = np.linspace(0.0, 1.0, m)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        inside = np.ones(len(pts), dtype=bool)
    else:
        from scipy.spatial import ConvexHull
        hull = ConvexHull(verts)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        axes = [np.arange(lo[k], hi[k] + _BRUTE_STEP, _BRUTE_STEP)
                for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        slack = pts @ hull.equations[:, :-1].T + hull.equations[None, :, -1]
        inside = np.all(slack <= 1e-9, axis=1)
    pts = pts[inside]
    vals = fvals(pts)
    best = int(np.argmin(vals))
    q, val = pts[best].copy(), float(vals[best])

    # parabolic refinement along each axis of the sample lattice
    delta = _BRUTE_STEP
    for k in range(n):
        e = np.zeros(n)
        e[k] = delta
        trio = np.stack([q - e, q, q + e])
        fm, f0, fp = fvals(trio)
        denom = fm - 2.0 * f0 + fp
        if denom > 1e-15:
            shift = 0.5 * (fm - fp) / denom * delta
            cand = q.copy()
            cand[k] += float(np.clip(shift, -delta, delta))
            fc = float(fvals(cand))
            if fc <= val and _inside_hull(verts, cand):
                q, val = cand, fc
    return q, val


def _inside_hull(vertices: Array, p: Array, tol: float = 1e-9) -> bool:
    verts = np.atleast_2d(vertices)
    if len(verts) <= 2:
        a = verts[0]
        b = verts[-1]
        ab = b - a
        denom = float(ab @ ab)
        if denom <= 1e-30:
            return bool(np.linalg.norm(p - a) <= tol)
        s = float((p - a) @ ab) / denom
        foot = a + np.clip(s, 0.0, 1.0) * ab
        return bool(np.linalg.norm(p - foot) <= tol)
    from scipy.spatial import ConvexHull
    hull = ConvexHull(verts)
    slack = hull.equations[:, :-1] @ p + hull.equations[:, -1]
    return bool(np.all(slack <= tol))


# ---------------------------------------------------------------------------
# singular sets and semiconcavity constants


@dataclass(frozen=True)
class SingularSet:
    """Grid nodes whose superdifferential has positive diameter."""

    indices: list[tuple[int, ...]]
    points: Array                 # (k, n) node coordinates
    membership_tol: float
    grid: GridFunction            # the scanned u; distances wrap as it does

    def contains(self, x: Array, tol: float | None = None) -> bool:
        if len(self.points) == 0:
            return False
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tol = tol if tol is not None else self.membership_tol
        delta = self.grid.nearest_image(self.points - x[None, :])
        return bool(np.linalg.norm(delta, axis=1).min() <= tol)


def singular_set(u: GridFunction) -> SingularSet:
    """Nodes where the superdifferential is a genuine set.

    Nodes passing the differentiability classification are skipped; each
    of the rest is marked when its limiting differentials within 2*spacing
    lie more than 4*spacing apart (the diameter of their hull).  The ball
    has the minimal legal radius 2*spacing: any wider and a kink's
    gradients leak onto neighbors whose own one-sided slopes agree,
    inflating the set by a node per side.  A node whose limiting gradients
    cannot be resolved is marked too.  Rim nodes of a non-periodic grid
    cannot support the stencils and are never reported.
    """
    h_max = float(u.spacing.max())
    _, spread, resid = grid_classification(u)
    suspicious = (spread > 1.0) | (resid > 1.0)
    suspicious &= np.isfinite(spread)        # rim nodes are unclassifiable
    indices: list[tuple[int, ...]] = []
    points: list[Array] = []
    for flat in np.nonzero(suspicious.ravel())[0]:
        idx = np.unravel_index(int(flat), u.values.shape)
        pt = u.node_point(idx)
        try:
            diam = _diameter(limiting_differentials(u, pt, 2.0 * h_max))
        except InsufficientSamples:
            # cannot resolve limiting gradients; the failed classification
            # already marks the node as non-differentiable
            diam = np.inf
        if diam > 4.0 * h_max:
            indices.append(tuple(int(i) for i in idx))
            points.append(pt)
    pts = np.array(points).reshape(len(points), u.dim)
    return SingularSet(indices=indices, points=pts,
                       membership_tol=0.51 * h_max, grid=u)


def semiconcavity_constant(u: GridFunction, region: Array) -> float:
    """Curvature magnitude max |u(x+z) + u(x-z) - 2 u(x)| / |z|^2 over node
    pairs, z running over lattice offsets up to two cells per axis.  Samples
    whose chord passes within half a cell of a node of singular_set(u)
    measure the kink, not the smooth constant, and are excluded.  region, a
    box [lo, hi] per axis, keeps the chord midpoints x whose nearest-image
    displacement from the box centre is within the half-width on every
    axis, with a relative slack (a box may straddle a periodic seam).
    Offsets k and -k make the same chords, so only the lexicographically
    negative one is visited."""
    singular = singular_set(u)
    nodes = u.nodes().reshape(u.values.shape + (u.dim,))
    box = np.atleast_2d(np.asarray(region, dtype=float))
    gap = np.abs(u.nearest_image(nodes - box.mean(axis=1)))
    inside = np.all(gap <= (box[:, 1] - box[:, 0]) / 2.0 * (1.0 + 1e-9),
                    axis=-1)
    best = 0.0
    for key in itertools.product(range(-2, 3), repeat=u.dim):
        if key >= (0,) * u.dim:
            continue
        k = np.array(key)
        with np.errstate(invalid="ignore"):
            z = k * u.spacing
            ratio = (np.abs(u.shifted(k) + u.shifted(-k) - 2.0 * u.values)
                     / float(z @ z))
        kept = np.isfinite(ratio) & inside
        if len(singular.points):
            # drop samples whose chord comes within half a cell of a kink:
            # rel (k, N, n) runs from every node to every singular point
            rel = u.nearest_image(singular.points[:, None, :]
                                  - nodes.reshape(1, -1, u.dim))
            s = np.clip((rel * z).sum(axis=-1) / float(z @ z), -1.0, 1.0)
            d = np.linalg.norm(rel - s[..., None] * z, axis=-1).min(axis=0)
            kept &= (d > 0.51 * float(u.spacing.max())).reshape(ratio.shape)
        if kept.any():
            best = max(best, float(ratio[kept].max()))
    return best
