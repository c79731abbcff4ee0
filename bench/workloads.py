"""The benchmark workloads: seeded request lists, the public hjlax call each
request makes, and the oracle check each result must pass.

A workload is a closed loop with one client: every request is sent after
the previous one has finished and been checked.  Requests are plain dicts
drawn from ``random.Random(seed)`` so they can be recorded as JSON; the
program only ever sees the generated numbers.  ``check`` returns the worst
error of a result divided by the pinned tolerance of its check, and raises
CheckFailed when that ratio exceeds 1.  Why each workload exists, and which
layer it stresses, is in README.md next to this file.
"""

from __future__ import annotations

import math
import random

import numpy as np

LAMBDAS = (0.5, 1.0, 2.0)

# pinned tolerances
TOL_CLOSED_FORM_REL = 1e-6     # free and lifted-free arcs
TOL_EL = 1e-8                  # integrated Euler-Lagrange defect, relative
TOL_STRAIGHT = 1e-9            # slack of "no worse than the straight segment"
TOL_MOREAU_SUP = 1e-4
TOL_GRAD_LIMIT = 0.15
TOL_BRUTE_GAP = 1e-6
TOL_CONSTANT_CASE = 1e-8
TOL_CONTRACTION_REL = 0.05


class CheckFailed(Exception):
    """A result missed its oracle, or a request it depends on failed."""


def _ratio(err: float, tol: float, what: str) -> float:
    if not err <= tol:
        raise CheckFailed(f"{what}: {err:.3e} exceeds {tol:g}")
    return err / tol


def _stratified(rnd: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled,
    so every seed covers the whole range evenly."""
    vals = [lo + (hi - lo) * (i + rnd.random()) / n for i in range(n)]
    rnd.shuffle(vals)
    return vals


def _endpoint_pairs(rnd: random.Random, n: int, dim: int) -> list[tuple]:
    """n pairs (x, y) of points uniform in [-1, 1]^dim, stratified in each
    coordinate's gap |y_j - x_j|.  For independent uniform endpoints the
    gap has density (2 - g) / 2 on [0, 2]; drawing it by inverse CDF from
    stratified quantiles, then x_j uniform where both ends fit, keeps that
    distribution while every seed covers the same spread of arc lengths."""
    coords = []
    for _ in range(dim):
        pairs = []
        for u in _stratified(rnd, n, 0.0, 1.0):
            gap = 2.0 - 2.0 * math.sqrt(1.0 - u)
            x = rnd.uniform(-1.0, 1.0 - gap)
            pairs.append((x, x + gap) if rnd.random() < 0.5 else (x + gap, x))
        coords.append(pairs)
    return [([c[i][0] for c in coords], [c[i][1] for c in coords])
            for i in range(n)]


# ---------------------------------------------------------------------------
# arcs: minimize_action requests


def _straight_action(L, s: float, t: float, x, y) -> float:
    """Action of the straight segment x -> y on [s, t]: 8 panels of
    16-point Gauss-Legendre, independent of the package's quadratures."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(s, t, 9)
    a, b = edges[:-1, None], edges[1:, None]
    taus = (0.5 * (b - a) * nodes[None, :] + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * weights[None, :]).ravel()
    x, y = np.asarray(x, float), np.asarray(y, float)
    frac = ((taus - s) / (t - s))[:, None]
    pos = x[None, :] + frac * (y - x)[None, :]
    vel = np.broadcast_to((y - x) / (t - s), pos.shape)
    return float(np.sum(w * L.eval(taus, pos, vel)))


# 8-point Gauss-Legendre on [0, 1]
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL8_NODES, _GL8_WEIGHTS = (_GL8_NODES + 1.0) / 2.0, _GL8_WEIGHTS / 2.0


def _integrated_el_defect(L, curve) -> float:
    """max_k |p(tau_k) - p(tau_0) - int_{tau_0}^{tau_k} L_x| / (1 + max |p|)
    along a returned arc, with p = L_v.  The arc is the cubic Hermite
    interpolant of the curve's node positions and velocities, evaluated and
    integrated here (8-point Gauss-Legendre per mesh interval), so the check
    does not rely on the solver's own residual."""
    T, X, V = curve.times, curve.points, curve.velocities
    h = np.diff(T)[:, None, None]
    s = _GL8_NODES[None, :, None]
    x0, x1, v0, v1 = X[:-1, None], X[1:, None], V[:-1, None], V[1:, None]
    pos = ((2 * s**3 - 3 * s**2 + 1) * x0 + (s**3 - 2 * s**2 + s) * h * v0
           + (3 * s**2 - 2 * s**3) * x1 + (s**3 - s**2) * h * v1)
    vel = ((6 * s**2 - 6 * s) / h * (x0 - x1) + (3 * s**2 - 4 * s + 1) * v0
           + (3 * s**2 - 2 * s) * v1)
    n, dim = pos.shape[0] * pos.shape[1], X.shape[1]
    taus = (T[:-1, None] + h[:, :, 0] * _GL8_NODES[None, :]).ravel()
    lx = L.grad_x(taus, pos.reshape(n, dim), vel.reshape(n, dim))
    pieces = h[:, 0] * np.einsum("q,iqd->id", _GL8_WEIGHTS,
                                 lx.reshape(pos.shape))
    p = L.grad_v(T, X, V)
    drift = p[1:] - p[0] - np.cumsum(pieces, axis=0)
    return float(np.abs(drift).max()) / (1.0 + float(np.abs(p).max()))


class Arcs:
    name = "arcs"
    per_kind = 24
    hard_arcs = 4          # short-horizon anisotropic arcs, traced runs only
    hard_horizon = (0.08, 0.2)
    # kind -> (Lagrangian fixture, dimension, horizon range, start range)
    kinds = {
        "free": ("free", 1, (0.05, 0.5), (0.0, 0.3)),
        "lifted": (None, 1, (0.1, 0.8), (0.0, 0.0)),
        "cos": ("cos", 1, (0.1, 1.0), (0.0, 0.0)),
        "double_well": ("double_well", 1, (0.1, 2.0), (0.0, 0.0)),
        "anisotropic": ("anisotropic", 2, (0.25, 1.0), (0.0, 0.0)),
    }

    def requests(self, rnd: random.Random) -> list[dict]:
        reqs = []
        for kind, (fixture, dim, (lo, hi), (s_lo, s_hi)) in self.kinds.items():
            spans = _stratified(rnd, self.per_kind, lo, hi)
            ends = _endpoint_pairs(rnd, self.per_kind, dim)
            for i, (span, (x, y)) in enumerate(zip(spans, ends)):
                s = rnd.uniform(s_lo, s_hi)
                req = {"kind": kind, "L": fixture, "s": s, "t": s + span,
                       "x": x, "y": y}
                if kind == "lifted":
                    lam = LAMBDAS[i % len(LAMBDAS)]
                    req.update(L=f"lifted_{lam}", lam=lam)
                reqs.append(req)
        rnd.shuffle(reqs)
        return reqs

    def hard_requests(self, rnd: random.Random) -> list[dict]:
        """Anisotropic arcs with horizons below the timed range.  Near mean
        speed 16 minimize_action raises NoConvergence; these are counted,
        not timed, so a fix to the action solver shows as a count change."""
        reqs = []
        for span in _stratified(rnd, self.hard_arcs, *self.hard_horizon):
            # endpoints 2 apart: mean speeds from 10 up to 25
            angle = rnd.uniform(0.0, 2.0 * math.pi)
            x = [math.cos(angle), math.sin(angle)]
            reqs.append({"kind": "anisotropic", "L": "anisotropic", "s": 0.0,
                         "t": span, "x": x, "y": [-x[0], -x[1]]})
        return reqs

    def fixtures(self, hj, reqs) -> dict:
        free = hj.catalog("free", dim=1)
        fx = {
            "free": free,
            "cos": hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0),
            "double_well": hj.catalog("mechanical", dim=1,
                                      potential="double_well", coeff=-1.0,
                                      shift=-0.25),
            "anisotropic": hj.catalog("anisotropic", dim=2, m0=1.0, m1=0.3),
        }
        for lam in LAMBDAS:
            fx[f"lifted_{lam}"] = hj.discount_lift(free, lam, horizon=1.0)
        return fx

    def warmup(self, hj, fx) -> None:
        hj.minimize_action(fx["cos"], 0.0, 0.3, np.array([0.0]), np.array([0.2]))

    def run(self, hj, fx, req, state):
        return hj.minimize_action(fx[req["L"]], req["s"], req["t"],
                                  np.array(req["x"]), np.array(req["y"]))

    def check(self, hj, fx, req, fs, state) -> float:
        s, t = req["s"], req["t"]
        d = np.asarray(req["y"]) - np.asarray(req["x"])
        if req["kind"] in ("free", "lifted"):
            if req["kind"] == "free":
                closed = float(d @ d) / (2.0 * (t - s))
            else:
                lam = req["lam"]
                closed = lam * float(d @ d) / (
                    2.0 * (math.exp(-lam * s) - math.exp(-lam * t)))
            return _ratio(abs(fs.value - closed) / max(closed, 1e-300),
                          TOL_CLOSED_FORM_REL, f"{req['kind']} closed form")
        el = _ratio(_integrated_el_defect(fx[req["L"]], fs.curve), TOL_EL,
                    "integrated Euler-Lagrange defect")
        straight = _straight_action(fx[req["L"]], s, t, req["x"], req["y"])
        excess = _ratio(max(0.0, fs.value - straight),
                        TOL_STRAIGHT * (1.0 + abs(straight)),
                        "value above the straight-segment action")
        return max(el, excess)

    def requested(self, req, out) -> dict:
        return {}


# ---------------------------------------------------------------------------
# moreau: closed-form kernel route of the Lax-Oleinik operators


def _moreau(x, tau: float):
    """sup_y { -|y| - |y - x|^2 / (2 tau) } per coordinate."""
    return np.where(np.abs(x) <= tau, -x * x / (2.0 * tau),
                    -np.abs(x) + tau / 2.0)


class Moreau:
    name = "moreau"
    box1, num1 = (-3.0, 3.0), 201
    box2, num2 = (-1.5, 1.5), 13
    kink_offsets = 20      # 1d kinks sit on a node within 20 nodes of 0

    def requests(self, rnd: random.Random) -> list[dict]:
        reqs = [{"kind": "plus1d", "tau": tau,
                 "kink_node": self.num1 // 2 + rnd.randint(-self.kink_offsets,
                                                           self.kink_offsets)}
                for tau in (0.1, 0.2, 0.4)]
        reqs.append({"kind": "minus1d", "tau": 0.2,
                     "kink_node": self.num1 // 2 + rnd.randint(
                         -self.kink_offsets, self.kink_offsets)})
        # the 2d datum -|x1| - |x2| is separable, so its oracle is exact
        reqs.append({"kind": "plus2d", "tau": 0.2})
        rnd.shuffle(reqs)
        return reqs

    def fixtures(self, hj, reqs) -> dict:
        return {
            "free1": hj.catalog("free", dim=1),
            "free2": hj.catalog("free", dim=2),
            "grid1": hj.GridSpec(box=[self.box1], num=[self.num1]),
            "grid2": hj.GridSpec(box=[self.box2] * 2, num=[self.num2] * 2),
        }

    def warmup(self, hj, fx) -> None:
        u1 = hj.GridSpec(box=[(-1.0, 1.0)], num=[21]).build(
            lambda p: -np.abs(p[..., 0]))
        hj.lax_plus(fx["free1"], u1, 0.0, 0.2, points=np.array([[0.0]]))
        u2 = hj.GridSpec(box=[(-1.0, 1.0)] * 2, num=[5, 5]).build(
            lambda p: -np.abs(p).sum(axis=-1))
        hj.lax_plus(fx["free2"], u2, 0.0, 0.2, points=np.array([[0.0, 0.0]]))

    def _kink(self, req) -> float:
        # the node coordinate, with the same arithmetic as GridFunction.axes
        lo, hi = self.box1
        return lo + (hi - lo) / (self.num1 - 1.0) * req["kink_node"]

    def run(self, hj, fx, req, state):
        tau = req["tau"]
        if req["kind"] == "plus2d":
            u = fx["grid2"].build(lambda p: -np.abs(p).sum(axis=-1))
            return hj.lax_plus(fx["free2"], u, 0.0, tau)
        c = self._kink(req)
        if req["kind"] == "plus1d":
            u = fx["grid1"].build(lambda p: -np.abs(p[..., 0] - c))
            return hj.lax_plus(fx["free1"], u, 0.0, tau)
        u = fx["grid1"].build(lambda p: np.abs(p[..., 0] - c))
        return hj.lax_minus(fx["free1"], u, 0.0, tau)

    def check(self, hj, fx, req, res, state) -> float:
        tau = req["tau"]
        x = res.grid.nodes()
        if req["kind"] == "plus2d":
            closed = _moreau(x[:, 0], tau) + _moreau(x[:, 1], tau)
        else:
            closed = _moreau(x[:, 0] - self._kink(req), tau)
            if req["kind"] == "minus1d":
                closed = -closed
        return _ratio(float(np.abs(res.values - closed).max()),
                      TOL_MOREAU_SUP, f"{req['kind']} Moreau sup error")

    def requested(self, req, res) -> dict:
        return {"lo_nodes": res.grid.values.size}


# ---------------------------------------------------------------------------
# sweep: solve, regularize along t, compare gradient limits (regularize_dw)


class Sweep:
    name = "sweep"
    lam, dt = 0.5, 0.05
    box, num = (-2.0, 2.0), 41
    t_grid = (0.05, 0.025, 0.0125)

    def requests(self, rnd: random.Random) -> list[dict]:
        return [{"kind": "solve"},
                {"kind": "sweep", "t_grid": list(self.t_grid),
                 "probe_seed": rnd.randrange(2**31)},
                {"kind": "limits"}]

    def fixtures(self, hj, reqs) -> dict:
        dw = hj.catalog("mechanical", dim=1, potential="double_well",
                        coeff=-1.0, shift=-0.25)
        return {"dw": dw, "H": hj.hamiltonian_for(dw),
                "grid": hj.GridSpec(box=[self.box], num=[self.num])}

    def warmup(self, hj, fx) -> None:
        u = hj.GridSpec(box=[self.box], num=[11]).build(
            lambda p: -np.abs(p[..., 0]))
        hj.discounted_step(fx["dw"], self.lam, u, self.dt)
        lifted = hj.discount_lift(fx["dw"], self.lam, horizon=0.05)
        hj.lax_plus(lifted, u, 0.0, 0.05, points=np.array([[0.0]]))
        x = np.array([0.0])
        hj.min_H_over_superdiff(fx["H"], 0.0, x, hj.superdifferential(u, x))

    def run(self, hj, fx, req, state):
        if req["kind"] == "solve":
            state["sol"] = hj.solve_discounted(fx["dw"], self.lam, fx["grid"],
                                               dt=self.dt)
            return state["sol"]
        if req["kind"] == "sweep":
            if "sol" not in state:
                raise CheckFailed("no discounted solution to regularize")
            state["sweep"] = hj.convergence_sweep(
                state["sol"], fx["dw"], t_grid=np.array(req["t_grid"]),
                seed=req["probe_seed"])
            return state["sweep"]
        if "sweep" not in state:
            raise CheckFailed("no sweep to take gradient limits from")
        return [hj.gradient_limit_vs_qx(state["sweep"], fx["H"], x)
                for x in state["sweep"].probe_points]

    def check(self, hj, fx, req, out, state) -> float:
        if req["kind"] == "solve":
            return _ratio(out.residual, out.residual_tol, "PDE residual")
        if req["kind"] == "sweep":
            if not np.all(np.diff(out.sup_errors) < 0.0):
                raise CheckFailed(f"sup errors not strictly decreasing: "
                                  f"{out.sup_errors.tolist()}")
            return 0.0
        worst = 0.0
        base = state["sweep"].base
        for cmp in out:
            worst = max(worst, _ratio(cmp.distance, TOL_GRAD_LIMIT,
                                      "|gradient limit - q|"))
            S = hj.superdifferential(base, cmp.x)
            q_bf, _ = hj.brute_force_H_min(fx["H"], 0.0, cmp.x, S)
            worst = max(worst, _ratio(float(np.linalg.norm(cmp.q - q_bf)),
                                      TOL_BRUTE_GAP, "brute-force min_H gap"))
        return worst

    def requested(self, req, out) -> dict:
        if req["kind"] == "solve":
            return {"sweeps": out.iterations}
        if req["kind"] == "sweep":
            return {"lo_nodes": len(out.t_grid) * out.base.values.size}
        return {}


# ---------------------------------------------------------------------------
# bellman: value iteration for the stationary discounted equation


class Bellman:
    name = "bellman"
    dt = 0.05
    num1d, num2d = 128, 21

    def requests(self, rnd: random.Random) -> list[dict]:
        reqs = [{"kind": "cos1d", "lam": lam, "coeff": rnd.uniform(0.8, 1.2)}
                for lam in LAMBDAS]
        reqs.append({"kind": "constant", "lam": rnd.choice(LAMBDAS),
                     "shift": rnd.uniform(-1.0, -0.5)})
        reqs.append({"kind": "cos2d", "lam": 2.0,
                     "coeff": rnd.uniform(0.8, 1.2)})
        rnd.shuffle(reqs)
        for i, req in enumerate(reqs):
            req["L"] = f"L{i}"
        return reqs

    def fixtures(self, hj, reqs) -> dict:
        fx = {
            "cos1d": hj.GridSpec(box=[(-math.pi, math.pi)], num=[self.num1d],
                                 boundary="periodic"),
            "cos2d": hj.GridSpec(box=[(-math.pi, math.pi)] * 2,
                                 num=[self.num2d] * 2, boundary="periodic"),
            "constant": hj.GridSpec(box=[(-1.0, 1.0)], num=[41]),
            "warmup": hj.catalog("mechanical", dim=1, potential="cos"),
        }
        for req in reqs:
            if req["kind"] == "constant":
                fx[req["L"]] = hj.catalog("mechanical", dim=1, potential="cos",
                                          coeff=0.0, shift=req["shift"])
            else:
                fx[req["L"]] = hj.catalog("mechanical", dim=int(req["kind"][3]),
                                          potential="cos", coeff=req["coeff"])
        return fx

    def warmup(self, hj, fx) -> None:
        u = hj.GridSpec(box=[(-math.pi, math.pi)], num=[16],
                        boundary="periodic").build(lambda p: np.cos(p[..., 0]))
        hj.discounted_step(fx["warmup"], 2.0, u, self.dt)

    def run(self, hj, fx, req, state):
        dt = 0.1 if req["kind"] == "constant" else self.dt
        return hj.solve_discounted(fx[req["L"]], req["lam"],
                                   fx[req["kind"]], dt=dt)

    def check(self, hj, fx, req, sol, state) -> float:
        worst = _ratio(sol.residual, sol.residual_tol, "PDE residual")
        if req["kind"] == "constant":
            exact = -req["shift"] / req["lam"]
            worst = max(worst, _ratio(float(np.abs(sol.u.values - exact).max()),
                                      TOL_CONSTANT_CASE, "constant fixed point"))
        if not math.isnan(sol.measured_contraction):
            beta = sol.contraction_factor
            worst = max(worst, _ratio(
                abs(sol.measured_contraction - beta) / beta,
                TOL_CONTRACTION_REL, "measured contraction vs e^{-lam dt}"))
        return worst

    def requested(self, req, sol) -> dict:
        return {"sweeps": sol.iterations}


WORKLOADS = {w.name: w for w in (Arcs(), Moreau(), Sweep(), Bellman())}
