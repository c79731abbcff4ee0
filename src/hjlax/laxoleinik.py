"""Lax-Oleinik operators driven by minimized actions.

    (T+_{s,t} u)(x) = sup_y { u(y) - A_{s,t}(x, y) }
    (T-_{s,t} u)(x) = inf_y { u(y) + A_{s,t}(y, x) }

u is a grid function; the sup/inf is localized to a ball |y - x| <= R whose
radius comes from the growth certificates: superlinearity beats any Lipschitz
slope, so maximizers of u(y) - A(x, y) satisfy

    theta(|y - x| / (t - s)) - Lip(u) |y - x| / (t - s) <= c0 + M0,

with M0 the max of L(., ., 0) over the grid nodes.  estimate_kappa0 solves
that inequality for the largest velocity ratio.  Each node is scanned over the
candidate set (grid nodes inside the ball), the best candidates are polished
continuously, and one accurate collocation solve at the chosen maximizer
provides the certified action value and the operator gradient

    D(T+ u)(x) = L_v(s, x, xidot(s)),    D(T- u)(x) = L_v(t, x, xidot(t)).

Lagrangians carrying an analytic kernel (free and lifted free) skip the
batched descent: candidate actions come from the closed form and the polish
runs on the exact barrier.  Both routes share the selection logic, and the
direct route never consults the kernel.
"""

from __future__ import annotations

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


def _grid_candidates(u: GridFunction, x: Array, radius: float,
                     cap: int = 600) -> tuple[Array, Array, int]:
    """Grid nodes within the search ball and their values, evenly
    subsampled down to cap, plus the count found before subsampling."""
    nodes = u.nodes()
    vals = u.values.ravel()
    delta = nodes - x[None, :]
    if u.boundary == "periodic":
        # search the nearest periodic image so balls wrap across the seam
        period = (u.box[:, 1] - u.box[:, 0])[None, :]
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
    return x[None, :] + delta[idx], vals[idx], found


def _clusters(points: Array, scores: Array, top_gap: float, sep: float
              ) -> list[int]:
    """Indices of cluster representatives among near-optimal candidates."""
    best = float(scores.max())
    near = np.nonzero(scores >= best - top_gap)[0]
    near = near[np.argsort(-scores[near])]
    reps: list[int] = []
    for i in near:
        if all(np.linalg.norm(points[i] - points[j]) > sep for j in reps):
            reps.append(int(i))
    return reps


def _kernel_pair_actions(L, s, t, x, ys, sign):
    k = L.kernel
    if sign > 0:
        return np.asarray(k.value(s, t, x, ys))
    # T-: arcs run from y to x; the kernel broadcasts x against leading axes
    return np.asarray(k.value(s, t, ys, np.broadcast_to(x, ys.shape)))


def _apply_pointwise(
    L: TonelliLagrangian,
    u: GridFunction,
    s: float,
    t: float,
    x: Array,
    sign: int,
    radius: float,
    use_kernel: bool,
    candidate_cap: int,
    notes: list[str],
) -> MaximizerRecord:
    """One node of T+ (sign=+1) or T- (sign=-1).

    Internally always maximizes phi(y) = sign*u(y) - A(arc), where for T-
    the arc runs y -> x and phi = -(u(y) + A); the record stores the
    operator's value sign*phi.  A candidate-cap hit is appended to notes.
    """
    ys, uvals, found = _grid_candidates(u, x, radius, cap=candidate_cap)
    if found > candidate_cap:
        notes.append(f"candidate cap {candidate_cap} hit at {x.tolist()}: "
                     f"{found} nodes in the ball")
    if use_kernel:
        acts = _kernel_pair_actions(L, s, t, x, ys, sign)
    else:
        acts = action_values_batch(L, s, t, x, ys, reverse=sign < 0)
    scores = sign * uvals - acts

    h_cand = float(np.max(u.spacing))
    gap_tol = max(_VALUE_TOL * 10.0, 1e-7 * (1.0 + float(np.abs(scores).max())))
    reps = _clusters(ys, scores, gap_tol, 2.0 * h_cand)

    def phi(yv: Array) -> float:
        yv = np.atleast_1d(yv)
        if use_kernel:
            a = float(_kernel_pair_actions(L, s, t, x, yv[None, :], sign)[0])
        else:
            a = float(action_values_batch(L, s, t, x, yv[None, :],
                                          reverse=sign < 0)[0])
        return sign * float(u(yv[None, :])[0]) - a

    polished: list[tuple[float, Array]] = []
    for rep in reps[:3]:
        y0 = ys[rep]
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
    polished.sort(key=lambda pv: (-pv[0], tuple(pv[1])))
    best_phi, y_star = polished[0]

    multiplicity = sum(
        1 for val, yy in polished
        if best_phi - val <= _VALUE_TOL * (1.0 + abs(best_phi))
        and (np.array_equal(yy, y_star)
             or np.linalg.norm(yy - y_star) > 2.0 * h_cand))
    runner_gap = (best_phi - polished[1][0]) if len(polished) > 1 else np.inf

    # certified action and gradient at the chosen maximizer
    if sign > 0:
        fs = minimize_action(L, s, t, x, y_star)
        action = fs.value
        gradient = -fs.grad_x            # = L_v(s, x, xidot(s))
    else:
        fs = minimize_action(L, s, t, y_star, x)
        action = fs.value
        gradient = fs.grad_y             # = L_v(t, x, xidot(t))
    value = sign * (sign * float(u(y_star[None, :])[0]) - action)

    dist = float(np.linalg.norm(y_star - x))
    return MaximizerRecord(
        x=x.copy(), y_star=y_star.copy(), value=value, action=action,
        gradient=np.atleast_1d(gradient).copy(),
        distance_ratio=dist / (t - s),
        clipped=dist >= radius * 0.98,
        multiplicity=multiplicity,
        runner_up_gap=float(runner_gap),
    )


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

    if kappa0 is None:
        est = estimate_kappa0(L, u.lipschitz(), s, t, u.nodes())
        kappa0 = est["kappa0"]
        radius = est["ball_radius"]
    else:
        radius = (1.0 + _BALL_MARGIN) * kappa0 * (t - s)
    # never search below the grid resolution
    radius = max(radius, 2.0 * float(np.max(u.spacing)))

    if points is None:
        pts = u.nodes()
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

    use_kernel = L.kernel is not None
    notes: list[str] = []
    records: list[MaximizerRecord] = []
    for x in pts:
        rec = _apply_pointwise(L, u, s, t, x, sign, radius, use_kernel,
                               candidate_cap, notes)
        if rec.clipped:
            # expand once; superlinearity makes a larger ball conclusive
            rec = _apply_pointwise(L, u, s, t, x, sign, 1.5 * radius,
                                   use_kernel, candidate_cap, notes)
            notes.append(f"ball expanded at {x.tolist()}")
            if rec.clipped:
                notes.append(f"search ball of radius {1.5 * radius:.4g} still "
                             f"clipped at {x.tolist()}")
        records.append(rec)

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
