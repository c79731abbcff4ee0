"""Superdifferentials of semiconcave grid functions.

A grid node is classified differentiable when a local per-axis quadratic
fit has residual below 10*spacing^2 and the one-sided slope spread stays
below 5*spacing; its gradient is then the central difference (exact for
quadratics and for piecewise-linear data away from kinks).  Limiting
gradients at a point are single-linkage clusters of nearby differentiable
node gradients; their convex hull estimates the superdifferential.  The
minimizer of a convex Hamiltonian over that hull is computed by projected
gradient on simplex weights with a Frank-Wolfe gap certificate, and can be
cross-checked against dense sampling of the hull.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InsufficientSamples, NonConvergence,
                     NotSemiconcave)
from .gridfn import GridFunction
from .lagrangian import Hamiltonian
from .report import write_csv

Array = np.ndarray

# 5-point stencil, least-squares quadratic: residual projector I - X(X'X)^-1 X'
_STENCIL = np.arange(-2.0, 3.0)
_X = np.stack([np.ones(5), _STENCIL, _STENCIL ** 2], axis=1)
_RESIDUAL_PROJ = np.eye(5) - _X @ np.linalg.solve(_X.T @ _X, _X.T)


# ---------------------------------------------------------------------------
# node classification


def _shifted(values: Array, k: int, axis: int, periodic: bool) -> Array:
    """values[i + k] along axis, +inf where the shift leaves the grid."""
    if periodic:
        return np.roll(values, -k, axis=axis)
    out = np.full_like(values, np.inf)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    n = values.shape[axis]
    if k >= 0:
        src[axis] = slice(k, n)
        dst[axis] = slice(0, n - k)
    else:
        src[axis] = slice(0, n + k)
        dst[axis] = slice(-k, n)
    out[tuple(dst)] = values[tuple(src)]
    return out


def grid_classification(u: GridFunction) -> tuple[Array, Array, Array]:
    """Per-node (central gradient, worst slope spread ratio, worst fit
    residual ratio); the ratios are normalized by their thresholds
    (5*spacing and 10*spacing^2), so a node is differentiable iff both
    ratios are <= 1.  Rim nodes of non-periodic grids get +inf ratios."""
    periodic = u.boundary == "periodic"
    vals = u.values
    grad = np.empty(vals.shape + (u.dim,))
    spread = np.zeros(vals.shape)
    resid = np.zeros(vals.shape)
    for a in range(u.dim):
        h = u.spacing[a]
        planes = [_shifted(vals, k, a, periodic) for k in range(-2, 3)]
        stack = np.stack(planes, axis=0)
        grad[..., a] = (planes[3] - planes[1]) / (2.0 * h)
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
    return grad, spread, resid


# ---------------------------------------------------------------------------
# limiting differentials and hulls


def _nodes_within(u: GridFunction, x: Array, radius: float
                  ) -> tuple[Array, Array]:
    """Flat indices and wrapped displacements of nodes within the ball.
    The ball is closed with a relative slack so that nodes sitting exactly
    on the boundary are kept on both sides of a symmetric input."""
    nodes = u.nodes()
    delta = nodes - x[None, :]
    if u.boundary == "periodic":
        period = (u.box[:, 1] - u.box[:, 0])[None, :]
        delta = (delta + 0.5 * period) % period - 0.5 * period
    dist = np.linalg.norm(delta, axis=1)
    keep = np.nonzero(dist <= radius * (1.0 + 1e-9))[0]
    return keep, delta[keep]


def _single_linkage(points: Array, tol: float) -> list[Array]:
    """Chain points whose gaps are <= tol; returns cluster index arrays."""
    m = len(points)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        d = np.linalg.norm(points - points[i], axis=1)
        for j in np.nonzero(d <= tol)[0]:
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g) for g in groups.values()]


def limiting_differentials(u: GridFunction, x: Array, radius: float,
                           cluster_tol: float | None = None) -> Array:
    """Cluster centers of gradients at differentiable nodes near x, one row
    per cluster, sorted lexicographically.

    Each center is the cluster's gradient field extrapolated to x by an
    affine least-squares fit (exact when gradients vary linearly across the
    ball, which kills the O(radius) bias of a plain mean over a lopsided
    node set); clusters too thin for the fit fall back to the mean."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h_max = float(u.spacing.max())
    if radius < 2.0 * h_max:
        raise ConfigError(f"radius {radius} is below 2*spacing {2 * h_max}")
    cluster_tol = cluster_tol if cluster_tol is not None else 10.0 * h_max

    grad, spread, resid = grid_classification(u)
    idx, delta = _nodes_within(u, x, radius)
    ok = (spread.ravel()[idx] <= 1.0) & (resid.ravel()[idx] <= 1.0)
    samples = grad.reshape(-1, u.dim)[idx[ok]]
    offsets = delta[ok]
    if len(samples) < u.dim + 1:
        raise InsufficientSamples(
            f"only {len(samples)} differentiable nodes within radius {radius}")
    clusters = _single_linkage(samples, cluster_tol)
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
    span = pts - pts.mean(axis=0)
    rank = np.linalg.matrix_rank(span, tol=1e-10)
    if rank <= 1:
        # segment (or a point): extremes along the principal direction
        _, _, vt = np.linalg.svd(span, full_matrices=False)
        proj = span @ vt[0]
        return np.stack([pts[int(np.argmin(proj))], pts[int(np.argmax(proj))]])
    from scipy.spatial import ConvexHull
    hull = ConvexHull(pts)
    verts = pts[hull.vertices]
    order = np.lexsort(verts.T[::-1])
    return verts[order]


def _boundary_distance(vertices: Array, p: Array) -> float:
    """Distance from p to the hull boundary (0 on it, >0 inside)."""
    if len(vertices) <= 2:
        return float(min(np.linalg.norm(p - v) for v in vertices))
    from scipy.spatial import ConvexHull
    hull = ConvexHull(vertices)
    slack = -(hull.equations[:, :-1] @ p + hull.equations[:, -1])
    return float(slack.min())


@dataclass(frozen=True)
class SuperdiffSet:
    """Estimated superdifferential: hull of limiting gradients at a point."""

    x: Array
    limiting: Array       # (k, n) cluster centers, all on the hull boundary
    vertices: Array       # (m, n) hull vertices
    diameter: float

    def as_dict(self) -> dict:
        return {
            "point": self.x.tolist(),
            "limiting": self.limiting.tolist(),
            "vertices": self.vertices.tolist(),
            "diameter": self.diameter,
        }


def superdifferential(u: GridFunction, x: Array, radius: float | None = None,
                      cluster_tol: float | None = None,
                      c2_bound: float | None = None) -> SuperdiffSet:
    """Hull of limiting differentials near x.

    A midpoint-defect scan guards the input class: ratios
    (u(x+z) + u(x-z) - 2 u(x))/|z|^2 above c2_bound (default
    0.5/spacing, far beyond any smooth curvature at desk scale but far
    below the +inf of a convex kink) raise NotSemiconcave.  Cluster
    centers that fall strictly inside the hull are discarded: a limiting
    differential is a limit of gradients converging to x, while interior
    centers are radius-scale mixing artifacts.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h_max = float(u.spacing.max())
    radius = radius if radius is not None else 3.0 * h_max
    c2_bound = c2_bound if c2_bound is not None else 0.5 / h_max

    if np.isfinite(c2_bound):
        _, offsets = _nodes_within(u, x, radius)
        z = offsets[np.linalg.norm(offsets, axis=1) > 0.25 * h_max]
        if len(z):
            defect = u(x[None, :] + z) + u(x[None, :] - z) - 2.0 * u(x[None, :])
            ratios = defect / np.sum(z * z, axis=1)
            worst = float(ratios.max())
            if worst > c2_bound:
                raise NotSemiconcave(
                    f"midpoint defect ratio {worst:.3g} exceeds bound "
                    f"{c2_bound:.3g} near {x.tolist()}")

    limiting = limiting_differentials(u, x, radius, cluster_tol)
    vertices = _hull_vertices(limiting)
    if len(vertices) >= 2:
        diam = max(float(np.linalg.norm(a - b))
                   for i, a in enumerate(vertices) for b in vertices[i + 1:])
    else:
        diam = 0.0
    tol_b = max(1e-9, 1e-6 * (1.0 + diam))
    on_boundary = np.array([_boundary_distance(vertices, c) <= tol_b
                            for c in limiting])
    return SuperdiffSet(x=x, limiting=limiting[on_boundary],
                        vertices=vertices, diameter=diam)


# ---------------------------------------------------------------------------
# minimizing H over the hull


def _proj_simplex(th: Array) -> Array:
    s = np.sort(th)[::-1]
    css = np.cumsum(s) - 1.0
    ks = np.arange(1, len(s) + 1)
    rho = int(np.nonzero(s - css / ks > 0)[0][-1])
    return np.maximum(th - css[rho] / (rho + 1.0), 0.0)


def _projected_gradient(fval, fgrad, verts: Array, diam: float, tol: float,
                        max_iter: int) -> Array:
    """Minimize over the hull via projected gradient on simplex weights.

    Targets a Frank-Wolfe gap 1e-3 below tol*(1 + |H_p|*(1 + diameter)) so
    the iterate sits well inside the distance certificate; stagnation at a
    gap under the tol-level bound still returns, and only a gap that never
    reaches it raises NonConvergence.
    """
    th = np.full(len(verts), 1.0 / len(verts))
    q = th @ verts
    f = fval(q)
    eta = 1.0
    gap = np.inf
    for _ in range(max_iter):
        g = fgrad(q)
        gap = float(g @ q - (verts @ g).min())
        scale = 1.0 + float(np.abs(g).max()) * (1.0 + diam)
        if gap <= 1e-3 * tol * scale:
            return q
        gth = verts @ g
        moved = False
        for _bt in range(60):
            th_t = _proj_simplex(th - eta * gth)
            if np.array_equal(th_t, th):
                break
            q_t = th_t @ verts
            f_t = fval(q_t)
            if f_t <= f - 1e-16 * (1.0 + abs(f)):
                th, q, f = th_t, q_t, f_t
                moved = True
                break
            eta *= 0.5
        if not moved:
            # no descent step representable at floating precision
            if gap <= tol * scale:
                return q
            raise NonConvergence(
                f"projected-gradient stalled at gap {gap:.3e} above "
                f"certificate")
        eta *= 1.4
    if gap <= tol * (1.0 + float(np.abs(fgrad(q)).max()) * (1.0 + diam)):
        return q
    raise NonConvergence(
        f"projected-gradient gap {gap:.3e} above certificate "
        f"after {max_iter} steps")


def _golden_min(phi, lo: float, hi: float, iters: int = 80) -> float:
    """Golden-section minimizer of a unimodal phi on [lo, hi]."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = phi(d)
    return 0.5 * (a + b)


def _frank_wolfe(fval, fgrad, verts: Array, max_iter: int = 2000) -> Array:
    """Away-step Frank-Wolfe with golden-section line search; the line
    search is segmentwise-exact for convex objectives, so the iterate
    converges linearly on strongly convex problems."""
    m = len(verts)
    th = np.full(m, 1.0 / m)
    q = th @ verts
    stall = 0
    for _ in range(max_iter):
        g = fgrad(q)
        scores = verts @ g
        s = int(np.argmin(scores))
        gap_fw = float(g @ q - scores[s])
        scale = 1.0 + float(np.abs(g).max()) * (1.0 + float(np.abs(verts).max()))
        if gap_fw <= 1e-12 * scale:
            return q
        active = np.nonzero(th > 1e-15)[0]
        a = int(active[np.argmax(scores[active])])
        gap_away = float(scores[a] - g @ q)
        if gap_fw >= gap_away or len(active) == 1:
            d_th = -th.copy()
            d_th[s] += 1.0
            gamma_max = 1.0
        else:
            d_th = th.copy()
            d_th[a] -= 1.0
            gamma_max = th[a] / (1.0 - th[a]) if th[a] < 1.0 else 1.0

        def phi(gamma: float) -> float:
            return fval((th + gamma * d_th) @ verts)

        gamma = _golden_min(phi, 0.0, gamma_max)
        if phi(gamma) > phi(0.0):
            gamma = 0.0
        th = np.maximum(th + gamma * d_th, 0.0)
        th /= th.sum()
        q_new = th @ verts
        if np.linalg.norm(q_new - q) <= 1e-13 * (1.0 + np.linalg.norm(q)):
            stall += 1
            if stall >= 3:
                return q_new
        else:
            stall = 0
        q = q_new
    return q


def min_H_over_superdiff(H: Hamiltonian, t: float, x: Array, S: SuperdiffSet,
                         tol: float = 1e-8, max_iter: int = 1000
                         ) -> tuple[Array, float]:
    """Unique minimizer of the convex p -> H(t, x, p) over the hull.

    Primary route: projected gradient on simplex weights over the hull
    vertices.  An independent away-step Frank-Wolfe run always cross-checks
    it and must agree to 1e-8 before the result is returned; either route
    failing, or the two disagreeing, raises NonConvergence.
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

    q = _projected_gradient(fval, fgrad, verts, S.diameter, tol, max_iter)
    q_fw = _frank_wolfe(fval, fgrad, verts)
    if float(np.linalg.norm(q - q_fw)) > 1e-8 * (1.0 + S.diameter):
        raise NonConvergence(
            f"route disagreement |q - q_fw| = "
            f"{float(np.linalg.norm(q - q_fw)):.3e} exceeds 1e-8")
    return q, fval(q)


def brute_force_H_min(H: Hamiltonian, t: float, x: Array, S: SuperdiffSet,
                      step: float = 1e-3) -> tuple[Array, float]:
    """Dense sampling of the hull at the given step, with one parabolic
    refinement per axis around the best sample (exact for quadratic H)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    verts = np.atleast_2d(S.vertices)
    n = verts.shape[1]

    def fvals(ps: Array) -> Array:
        return np.asarray(H.eval(t, x, ps), dtype=float)

    if len(verts) == 1:
        return verts[0].copy(), float(fvals(verts[0]))

    span = verts - verts.mean(axis=0)
    rank = np.linalg.matrix_rank(span, tol=1e-10)
    if rank == 1 or n == 1:
        _, _, vt = np.linalg.svd(span, full_matrices=False)
        d = vt[0]
        proj = span @ d
        a, b = verts[int(np.argmin(proj))], verts[int(np.argmax(proj))]
        m = max(3, int(np.ceil(np.linalg.norm(b - a) / step)) + 1)
        ts = np.linspace(0.0, 1.0, m)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        inside = np.ones(len(pts), dtype=bool)
    else:
        from scipy.spatial import ConvexHull
        hull = ConvexHull(verts)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        axes = [np.arange(lo[k], hi[k] + step, step) for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        slack = pts @ hull.equations[:, :-1].T + hull.equations[None, :, -1]
        inside = np.all(slack <= 1e-9, axis=1)
    pts = pts[inside]
    vals = fvals(pts)
    best = int(np.argmin(vals))
    q, val = pts[best].copy(), float(vals[best])

    # parabolic refinement along each axis of the sample lattice
    for k in range(n):
        for delta in (step,):
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
    diam_threshold: float
    membership_tol: float

    def contains(self, x: Array, tol: float | None = None) -> bool:
        if len(self.points) == 0:
            return False
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tol = tol if tol is not None else self.membership_tol
        return bool(np.linalg.norm(self.points - x[None, :], axis=1).min() <= tol)

    def to_csv(self, path: str) -> None:
        n = self.points.shape[1] if len(self.points) else 1
        cols = [f"i{k+1}" for k in range(n)] + [f"x{k+1}" for k in range(n)]
        write_csv(path, cols, ([*idx, *pt] for idx, pt in zip(self.indices,
                                                               self.points)))


def singular_set(u: GridFunction, diam_threshold: float | None = None,
                 radius: float | None = None,
                 cluster_tol: float | None = None) -> SingularSet:
    """Nodes where the superdifferential is a genuine set.

    Nodes passing the differentiability classification are skipped; the
    rest get a full hull whose diameter is compared with the threshold
    (default 4*spacing).  The default ball is the minimal legal radius
    2*spacing: any wider and a kink's hull leaks onto neighbors whose
    own one-sided slopes agree, inflating the set by a node per side.
    Rim nodes of a non-periodic grid cannot support the stencils and are
    never reported.
    """
    h_max = float(u.spacing.max())
    diam_threshold = (diam_threshold if diam_threshold is not None
                      else 4.0 * h_max)
    radius = radius if radius is not None else 2.0 * h_max

    _, spread, resid = grid_classification(u)
    suspicious = (spread > 1.0) | (resid > 1.0)
    suspicious &= np.isfinite(spread)        # rim nodes are unclassifiable
    indices: list[tuple[int, ...]] = []
    points: list[Array] = []
    for flat in np.nonzero(suspicious.ravel())[0]:
        idx = np.unravel_index(int(flat), u.values.shape)
        pt = u.node_point(idx)
        try:
            S = superdifferential(u, pt, radius=radius,
                                  cluster_tol=cluster_tol, c2_bound=np.inf)
        except InsufficientSamples:
            # cannot resolve limiting gradients; the failed classification
            # already marks the node as non-differentiable
            indices.append(tuple(int(i) for i in idx))
            points.append(pt)
            continue
        if S.diameter > diam_threshold:
            indices.append(tuple(int(i) for i in idx))
            points.append(pt)
    pts = np.array(points).reshape(len(points), u.dim)
    return SingularSet(indices=indices, points=pts,
                       diam_threshold=diam_threshold,
                       membership_tol=0.51 * h_max)


def semiconcavity_constant(u: GridFunction, region: Array | None = None,
                           exclude_singular: bool = True,
                           with_excluded: bool = False
                           ) -> float | tuple[float, float]:
    """Curvature magnitude max |u(x+z) + u(x-z) - 2 u(x)| / |z|^2 over node
    pairs, z running over lattice offsets up to two cells per axis.  Samples
    whose chord passes within half a cell of a node of singular_set(u)
    measure the kink, not the smooth constant; they are excluded unless
    exclude_singular is False.  with_excluded additionally returns the
    worst excluded-bucket ratio (0 when nothing was excluded)."""
    singular = singular_set(u) if exclude_singular else None
    periodic = u.boundary == "periodic"
    nodes = u.nodes().reshape(u.values.shape + (u.dim,))
    best = 0.0
    best_excluded = 0.0
    seen: set[tuple[int, ...]] = set()
    for key in itertools.product(range(-2, 3), repeat=u.dim):
        if key in seen or all(i == 0 for i in key):
            continue
        seen.add(key)
        seen.add(tuple(-i for i in key))
        k = np.array(key)
        plus = u.values
        minus = u.values
        center = u.values
        x = nodes
        for a in range(u.dim):
            plus = _shifted(plus, int(k[a]), a, periodic)
            minus = _shifted(minus, -int(k[a]), a, periodic)
        with np.errstate(invalid="ignore"):
            z = k * u.spacing
            ratio = np.abs(plus + minus - 2.0 * center) / float(z @ z)
        ok = np.isfinite(ratio)
        if region is not None:
            box = np.atleast_2d(np.asarray(region, dtype=float))
            inside = np.all((x >= box[None, :, 0]) & (x <= box[None, :, 1]),
                            axis=-1).reshape(ratio.shape)
            ok &= inside
        kept = ok
        if exclude_singular and len(singular.points):
            # drop samples whose chord comes within half a cell of a kink
            flat_x = x.reshape(-1, u.dim)
            half = 0.51 * float(u.spacing.max())
            d = np.full(len(flat_x), np.inf)
            for p in singular.points:
                rel = p[None, :] - flat_x
                zz = np.broadcast_to(z, rel.shape)
                denom = float(z @ z)
                s = np.clip((rel * zz).sum(axis=1) / denom, -1.0, 1.0)
                foot = s[:, None] * zz
                d = np.minimum(d, np.linalg.norm(rel - foot, axis=1))
            near_kink = (d <= half).reshape(ratio.shape)
            kept = ok & ~near_kink
            if (ok & near_kink).any():
                best_excluded = max(best_excluded,
                                    float(ratio[ok & near_kink].max()))
        if kept.any():
            best = max(best, float(ratio[kept].max()))
    if with_excluded:
        return best, best_excluded
    return best
