"""Config-driven experiment runner.

Each subcommand wires one experiment kind to the library and writes its
artifacts (CSV tables, JSON reports) plus a manifest into the output
directory.  The manifest echoes the effective config, library versions,
seed, artifact list, and final status; it is written even when the run
fails, and it carries no wall-clock data so same-seed runs are
byte-identical.  Elapsed time goes to timing.txt instead.

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 assertion or violation present, 5 internal error (any other exception;
its traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Any, Callable

import numpy as np
import yaml

from . import __version__
from .action import (minimize_action, probe_compact_containment,
                     probe_convexity, probe_semiconcavity,
                     probe_velocity_bounds)
from .discounted import lift_to_evolution, solve_discounted
from .errors import (BoxExhausted, ConfigError, HJLaxError, InvalidHorizon,
                     NonContraction, NonConvergence, OutOfWindow,
                     SearchBallClipped)
from .gridfn import GridSpec
from .lagrangian import (anisotropic_lagrangian, discount_lift,
                         free_lagrangian, hamiltonian_for,
                         mechanical_lagrangian)
from .lasrylions import (convergence_sweep, gradient_limit_vs_qx,
                         lambda_sweep_problem_probe, trace_singularity)
from .laxoleinik import lax_minus, lax_plus
from .regularity import singular_set
from .report import dump_json, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4
EXIT_INTERNAL = 5

_CONFIG_ERRORS = (ConfigError, InvalidHorizon, OutOfWindow)
_SOLVER_ERRORS = (NonConvergence, NonContraction, BoxExhausted,
                  SearchBallClipped)


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, _CONFIG_ERRORS):
        return EXIT_CONFIG
    if isinstance(exc, _SOLVER_ERRORS):
        return EXIT_SOLVER
    if isinstance(exc, HJLaxError):
        return EXIT_VIOLATION
    return EXIT_INTERNAL


class Workspace:
    """Output directory with an artifact registry."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.artifacts: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        if name not in self.artifacts:
            self.artifacts.append(name)
        return os.path.join(self.out_dir, name)

    def write_json(self, name: str, obj: Any) -> None:
        dump_json(obj, self.path(name))

    def write_csv(self, name: str, header: list[str],
                  rows: list[list[Any]]) -> None:
        write_csv(self.path(name), header, rows)


# ---------------------------------------------------------------------------
# config plumbing


def _require_keys(cfg: dict, required: set[str], allowed: set[str],
                  where: str) -> None:
    keys = set(cfg)
    missing = required - keys
    unknown = keys - allowed
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _positive_tolerances(cfg: dict) -> dict:
    tols = cfg.get("tolerances", {}) or {}
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be a mapping")
    for k, v in tols.items():
        if not (isinstance(v, (int, float)) and v > 0.0):
            raise ConfigError(f"tolerance {k!r} must be positive, got {v!r}")
    return tols


def _set_dotted(cfg: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        nxt = node.get(p)
        if not isinstance(nxt, dict):
            nxt = {}
            node[p] = nxt
        node = nxt
    node[parts[-1]] = value


def _parse_override(text: str) -> tuple[str, Any]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse override value {raw!r}: {exc}")
    if isinstance(value, str):
        # YAML leaves dotless scientific notation ("1e-300") as a string
        try:
            value = float(value)
        except ValueError:
            pass
    return key, value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a mapping")
    return cfg


def _build_lagrangian(spec: Any):
    if not isinstance(spec, dict) or "key" not in spec:
        raise ConfigError("lagrangian must be a mapping with a 'key'")
    spec = dict(spec)
    key = spec.pop("key")
    dim = int(spec.pop("dim", 1))
    try:
        if key == "free":
            return free_lagrangian(dim, **spec)
        if key == "mechanical":
            return mechanical_lagrangian(dim, **spec)
        if key == "anisotropic":
            return anisotropic_lagrangian(dim, **spec)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for lagrangian {key!r}: {exc}")
    raise ConfigError(f"unknown lagrangian key {key!r}")


def _build_grid(spec: Any) -> GridSpec:
    if not isinstance(spec, dict):
        raise ConfigError("grid must be a mapping")
    _require_keys(spec, {"box", "num"}, {"box", "num", "boundary"}, "grid")
    box = [tuple(map(float, pair)) for pair in spec["box"]]
    num = [int(n) for n in spec["num"]]
    return GridSpec(box=box, num=num,
                    boundary=spec.get("boundary", "constant"))


_FIELDS: dict[str, Callable[..., Callable]] = {
    "vee": lambda scale=1.0: (lambda x: -scale * np.linalg.norm(x, axis=-1)),
    "quadratic": lambda scale=1.0: (
        lambda x: -0.5 * scale * np.sum(x * x, axis=-1)),
    "constant": lambda scale=1.0: (lambda x: scale + 0.0 * x[..., 0]),
}


def _build_field(spec: Any) -> tuple[Callable, str, float]:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("field must be a mapping with a 'kind'")
    kind = spec["kind"]
    scale = float(spec.get("scale", 1.0))
    if kind not in _FIELDS:
        raise ConfigError(f"unknown field kind {kind!r}")
    return _FIELDS[kind](scale), kind, scale


def _t_grid(spec: Any) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return np.asarray([float(t) for t in spec])
    if isinstance(spec, dict):
        _require_keys(spec, {"start", "count"},
                      {"start", "count", "factor"}, "t_grid")
        start = float(spec["start"])
        count = int(spec["count"])
        factor = float(spec.get("factor", 2.0))
        return start * factor ** (-np.arange(count, dtype=float))
    raise ConfigError("t_grid must be a list or {start, count, factor}")


# ---------------------------------------------------------------------------
# experiment runners (each returns an exit code)


def run_fundamental(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangian"},
                  {"lagrangian", "lambda", "n_samples", "window", "s_range",
                   "box_radius", "seed", "gradient_check", "fd_step",
                   "tolerances", "out"}, "fundamental")
    tols = _positive_tolerances(cfg)
    L0 = _build_lagrangian(cfg["lagrangian"])
    lam = cfg.get("lambda")
    n = int(cfg.get("n_samples", 100))
    wlo, whi = (float(v) for v in cfg.get("window", [0.05, 0.5]))
    slo, shi = (float(v) for v in cfg.get("s_range", [0.0, 0.0]))
    radius = float(cfg.get("box_radius", 1.0))
    grad_check = bool(cfg.get("gradient_check", False))
    fd_step = float(cfg.get("fd_step", 1e-5))
    rng = np.random.default_rng(int(cfg.get("seed", 0)))

    if lam is not None:
        lam = float(lam)
        L = discount_lift(L0, lam, horizon=shi + whi + 0.1)
    else:
        L = L0

    closed = None
    if L0.key == "free":
        if lam is None:
            def closed(s, t, x, y):
                return float(np.sum((y - x) ** 2)) / (2.0 * (t - s))
        else:
            def closed(s, t, x, y):
                den = 2.0 * (np.exp(-lam * s) - np.exp(-lam * t))
                return lam * float(np.sum((y - x) ** 2)) / den

    dim = L0.dim
    header = (["s", "t"] + [f"x{i+1}" for i in range(dim)]
              + [f"y{i+1}" for i in range(dim)] + ["value"])
    if closed:
        header += ["closed_form", "rel_error"]
    if grad_check:
        header += ["grad_rel_error"]
    rows = []
    max_rel = 0.0
    max_grad_rel = 0.0
    for _ in range(n):
        s = rng.uniform(slo, shi)
        t = s + rng.uniform(wlo, whi)
        x = rng.uniform(-radius, radius, dim)
        y = rng.uniform(-radius, radius, dim)
        fs = minimize_action(L, s, t, x, y)
        row = [s, t, *x.tolist(), *y.tolist(), fs.value]
        if closed:
            ref = closed(s, t, x, y)
            rel = abs(fs.value - ref) / max(abs(ref), 1e-12)
            max_rel = max(max_rel, rel)
            row += [ref, rel]
        if grad_check:
            worst = 0.0
            for which, grad in (("x", fs.grad_x), ("y", fs.grad_y)):
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = fd_step
                    if which == "x":
                        a_p = minimize_action(L, s, t, x + e, y).value
                        a_m = minimize_action(L, s, t, x - e, y).value
                    else:
                        a_p = minimize_action(L, s, t, x, y + e).value
                        a_m = minimize_action(L, s, t, x, y - e).value
                    fd = (a_p - a_m) / (2.0 * fd_step)
                    worst = max(worst, abs(grad[i] - fd)
                                / max(abs(fd), 1e-8))
            max_grad_rel = max(max_grad_rel, worst)
            row += [worst]
        rows.append(row)
    ws.write_csv("samples.csv", header, rows)

    report = {"n_samples": n, "lambda": lam,
              "lagrangian": cfg["lagrangian"],
              "max_rel_error": max_rel if closed else None,
              "max_grad_rel_error": max_grad_rel if grad_check else None}
    code = EXIT_OK
    if closed and max_rel > tols.get("rel_error", 1e-6):
        code = EXIT_VIOLATION
    if grad_check and max_grad_rel > tols.get("grad_rel_error", 1e-3):
        code = EXIT_VIOLATION
    report["passed"] = code == EXIT_OK
    ws.write_json("report.json", report)
    return code


def run_operators(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangian", "grid", "field", "taus"},
                  {"lagrangian", "lambda", "grid", "field", "taus", "sign",
                   "kappa0", "seed", "tolerances", "out"}, "operators")
    tols = _positive_tolerances(cfg)
    L0 = _build_lagrangian(cfg["lagrangian"])
    lam = cfg.get("lambda")
    taus = [float(t) for t in cfg["taus"]]
    sign = cfg.get("sign", "plus")
    if sign not in ("plus", "minus"):
        raise ConfigError(f"sign must be plus or minus, got {sign!r}")
    fn, kind, scale = _build_field(cfg["field"])
    u = _build_grid(cfg["grid"]).build(fn)
    if lam is not None:
        L = discount_lift(L0, float(lam), horizon=max(taus) + 0.1)
    else:
        L = L0
    op = lax_plus if sign == "plus" else lax_minus

    moreau = None
    if (kind == "vee" and L0.key == "free" and lam is None
            and sign == "plus"):
        def moreau(x, tau):
            r = np.linalg.norm(x, axis=-1)
            return np.where(r <= scale * tau, -r * r / (2.0 * tau),
                            -scale * r + scale * scale * tau / 2.0)

    kwargs = {}
    if cfg.get("kappa0") is not None:
        kwargs["kappa0"] = float(cfg["kappa0"])

    sup_errors = {}
    notes = {}
    max_ratio = 0.0
    kappa0_used = None
    code = EXIT_OK
    for tau in taus:
        res = op(L, u, 0.0, tau, **kwargs)
        kappa0_used = res.kappa0_ratio
        notes[str(tau)] = res.notes
        nodes = u.nodes()
        header = ([f"x{i+1}" for i in range(u.dim)]
                  + ["u", "Tu"])
        cols = [nodes, u.values.reshape(-1, 1),
                res.grid.values.reshape(-1, 1)]
        if moreau is not None:
            ref = moreau(nodes, tau).reshape(-1, 1)
            err = np.abs(res.grid.values.reshape(-1, 1) - ref)
            header += ["closed_form", "abs_error"]
            cols += [ref, err]
            sup_errors[str(tau)] = float(err.max())
            if float(err.max()) > tols.get("sup_error", 1e-4):
                code = EXIT_VIOLATION
        table = np.hstack(cols)
        ws.write_csv(f"values_tau{tau:g}.csv", header,
                     [list(map(float, r)) for r in table])

        rec_rows = []
        for rec in res.records:
            rec_rows.append([*map(float, rec.x), *map(float, rec.y_star),
                             float(rec.value), float(rec.distance_ratio),
                             int(rec.clipped), int(rec.multiplicity)])
            max_ratio = max(max_ratio, rec.distance_ratio)
        ws.write_csv(
            f"records_tau{tau:g}.csv",
            [f"x{i+1}" for i in range(u.dim)]
            + [f"ystar{i+1}" for i in range(u.dim)]
            + ["value", "distance_ratio", "clipped", "multiplicity"],
            rec_rows)

    report = {"sign": sign, "taus": taus, "field": cfg["field"],
              "sup_errors_vs_closed_form": sup_errors or None,
              "kappa0": kappa0_used, "max_distance_ratio": max_ratio,
              "localized": max_ratio <= (kappa0_used or np.inf),
              "notes": notes, "passed": code == EXIT_OK}
    ws.write_json("report.json", report)
    return code


def run_discounted(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangian", "lambda", "grid", "dt"},
                  {"lagrangian", "lambda", "grid", "dt", "tol_fp",
                   "reference", "lift_check", "seed", "tolerances", "out"},
                  "discounted")
    tols = _positive_tolerances(cfg)
    L = _build_lagrangian(cfg["lagrangian"])
    lam = float(cfg["lambda"])
    grid = _build_grid(cfg["grid"])
    dt = float(cfg["dt"])
    tol_fp = float(cfg.get("tol_fp", 1e-10))

    sol = solve_discounted(L, lam, grid, dt, tol_fp=tol_fp)
    sol.u.to_csv(ws.path("u.csv"))
    report: dict[str, Any] = {"solution": sol.metadata()}
    code = EXIT_OK

    ref_spec = cfg.get("reference")
    if ref_spec:
        refine = int(ref_spec.get("refine", 4))
        spec2 = dict(cfg["grid"])
        if grid.boundary == "periodic":
            spec2["num"] = [n * refine for n in grid.num]
        else:
            spec2["num"] = [(n - 1) * refine + 1 for n in grid.num]
        sol2 = solve_discounted(L, lam, _build_grid(spec2), dt / refine,
                                tol_fp=tol_fp)
        stride = tuple(slice(None, None, refine) for _ in grid.num)
        diff = float(np.abs(sol2.u.values[stride] - sol.u.values).max())
        report["reference"] = {"refine": refine, "sup_diff": diff}
        if diff > tols.get("sup_vs_reference", np.inf):
            code = EXIT_VIOLATION

    lift_spec = cfg.get("lift_check")
    if lift_spec:
        t = float(lift_spec["t"])
        lifted = discount_lift(L, lam, horizon=t)
        evo = lift_to_evolution(sol, t)
        res = lax_minus(lifted, sol.u, 0.0, t)
        gap = float(np.abs(res.grid.values - evo.values).max())
        report["lift_check"] = {"t": t, "sup_error": gap}
        if gap > tols.get("lift_sup_error", np.inf):
            code = EXIT_VIOLATION

    report["passed"] = code == EXIT_OK
    ws.write_json("report.json", report)
    return code


def run_regularize(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangian", "lambda", "grid", "dt", "t_grid"},
                  {"lagrangian", "lambda", "grid", "dt", "t_grid", "probes",
                   "seed", "cauchy_tol", "compare_qx", "tolerances", "out"},
                  "regularize")
    tols = _positive_tolerances(cfg)
    L = _build_lagrangian(cfg["lagrangian"])
    lam = float(cfg["lambda"])
    sol = solve_discounted(L, lam, _build_grid(cfg["grid"]),
                           float(cfg["dt"]))
    t_grid = _t_grid(cfg["t_grid"])
    probes = cfg.get("probes", "default")
    probe_arr = None if probes == "default" else np.asarray(probes, float)
    sweep = convergence_sweep(sol, L, t_grid=t_grid, probe_points=probe_arr,
                              seed=int(cfg.get("seed", 0)),
                              cauchy_tol=float(cfg.get("cauchy_tol", 1e-3)))
    sweep.errors_to_csv(ws.path("errors.csv"))
    sweep.probes_to_csv(ws.path("probes.csv"))
    ws.write_json("sweep.json", sweep.as_dict())

    h = float(sol.u.spacing.max())
    monotone = bool(np.all(np.diff(sweep.sup_errors) < 0.0))
    budget = 4.0 * sol.u.interp_error_estimate()
    code = EXIT_OK
    report: dict[str, Any] = {
        "monotone": monotone,
        "final_error": float(sweep.sup_errors[-1]),
        "interp_budget": budget,
        "cauchy_ok": sweep.cauchy_ok,
    }
    if not monotone or sweep.sup_errors[-1] > budget:
        code = EXIT_VIOLATION

    if cfg.get("compare_qx", True):
        H = hamiltonian_for(L)
        match_tol = tols.get("gradient_match", 3.0 * h)
        comparisons = []
        for j in range(len(sweep.probe_points)):
            cmp = gradient_limit_vs_qx(sweep, H, sweep.probe_points[j])
            comparisons.append(cmp.as_dict())
            if cmp.distance > match_tol:
                code = EXIT_VIOLATION
        report["qx_comparisons"] = comparisons
        report["gradient_match_tol"] = match_tol

    report["passed"] = code == EXIT_OK
    ws.write_json("report.json", report)
    return code


def run_singularity(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangian", "lambda", "grid", "dt", "t_grid"},
                  {"lagrangian", "lambda", "grid", "dt", "t_grid", "x0",
                   "strict", "window_samples", "seed", "tolerances", "out"},
                  "singularity")
    tols = _positive_tolerances(cfg)
    L = _build_lagrangian(cfg["lagrangian"])
    lam = float(cfg["lambda"])
    sol = solve_discounted(L, lam, _build_grid(cfg["grid"]),
                           float(cfg["dt"]))
    sing = singular_set(sol.u)
    x0_spec = cfg.get("x0", "auto")
    if x0_spec == "auto":
        if not len(sing.points):
            raise ConfigError("x0: auto requires a nonempty singular set")
        x0 = sing.points[0]
    else:
        x0 = np.asarray(x0_spec, dtype=float)
    tr = trace_singularity(sol, L, x0, t_grid=_t_grid(cfg["t_grid"]),
                           strict=bool(cfg.get("strict", True)), sing=sing,
                           window_samples=int(cfg.get("window_samples", 64)))
    tr.to_csv(ws.path("trace.csv"))
    ws.write_json("trace.json", tr.as_dict())

    h = float(sol.u.spacing.max())
    jump_tol = tols.get("jump", 2.0 * h)
    deriv_tol = tols.get("derivative_match", 2.0 * h)
    code = EXIT_OK
    if not (bool(tr.singular_flags.all()) and tr.max_jump <= jump_tol):
        code = EXIT_VIOLATION
    rd_vs_v0 = float(np.linalg.norm(tr.right_derivative - tr.v0))
    if rd_vs_v0 > deriv_tol:
        code = EXIT_VIOLATION
    ws.write_json("report.json", {
        "singular_points": sing.points,
        "all_maximizers_singular": bool(tr.singular_flags.all()),
        "max_jump": tr.max_jump, "jump_tol": jump_tol,
        "right_derivative": tr.right_derivative, "q_lambda": tr.q_lambda,
        "v0": tr.v0, "rd_vs_v0": rd_vs_v0, "derivative_tol": deriv_tol,
        "t1": tr.t1, "t2": tr.t2, "kappa0": tr.kappa0,
        "passed": code == EXIT_OK,
    })
    return code


def run_propcheck(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangians"},
                  {"lagrangians", "lambda", "x", "R", "time_pairs", "T_grid",
                   "lam_cone", "n_samples", "seed", "tolerances", "out"},
                  "propcheck")
    lam = cfg.get("lambda")
    n_samples = int(cfg.get("n_samples", 200))
    seed = int(cfg.get("seed", 0))
    lam_cone = float(cfg.get("lam_cone", 1.0))
    T_grid = tuple(float(t) for t in cfg.get("T_grid", [0.05, 0.1, 0.2, 0.4]))
    time_pairs = [tuple(map(float, p))
                  for p in cfg.get("time_pairs", [[0.0, 0.5], [0.0, 1.0]])]
    R = float(cfg.get("R", 1.0))

    T_semi = tuple(t for t in T_grid if t < 2.0 / 3.0)
    if not T_semi:
        raise ConfigError("T_grid needs an entry below 2/3 for the "
                          "semiconcavity probe")
    specs = [dict(spec) for spec in cfg["lagrangians"]]
    labels = [str(spec.pop("label", spec.get("key", ""))) for spec in specs]
    if len(set(labels)) != len(labels):
        raise ConfigError(
            "duplicate lagrangian labels; set a distinct 'label' on each "
            "entry sharing a key")
    all_passed = True
    summary = {}
    for name, spec in zip(labels, specs):
        L0 = _build_lagrangian(spec)
        L = (discount_lift(L0, float(lam), horizon=2.0 * max(T_grid) + 0.1)
             if lam is not None else L0)
        x = np.asarray(cfg.get("x", [0.0] * L0.dim), dtype=float)
        reports = {
            "velocity_bounds": probe_velocity_bounds(
                L, x, R, time_pairs, n_samples=n_samples, seed=seed),
            "compact_containment": probe_compact_containment(
                L, x, 0.0, max(T_grid), lam_cone, n_samples=n_samples,
                seed=seed),
            "semiconcavity": probe_semiconcavity(
                L, x, 0.0, lam_cone=lam_cone, T_grid=T_semi,
                n_samples=n_samples, seed=seed),
            "convexity": probe_convexity(
                L, x, 0.0, lam_cone=lam_cone, T_grid=T_grid,
                n_samples=n_samples, seed=seed),
        }
        entry = {}
        for pname, rep in reports.items():
            rep.to_json(ws.path(f"probe_{pname}_{name}.json"))
            entry[pname] = {"passed": rep.passed,
                            "violations": len(rep.violations)}
            all_passed = all_passed and rep.passed
        summary[name] = entry
    ws.write_json("report.json",
                  {"probes": summary, "passed": all_passed})
    return EXIT_OK if all_passed else EXIT_VIOLATION


def run_lambda_sweep(cfg: dict, ws: Workspace) -> int:
    _require_keys(cfg, {"lagrangian", "lambda_grid", "points", "grid", "dt"},
                  {"lagrangian", "lambda_grid", "points", "grid", "dt",
                   "analytic_qx", "seed", "tolerances", "out"},
                  "lambda-sweep")
    L = _build_lagrangian(cfg["lagrangian"])
    analytic = cfg.get("analytic_qx")
    out = lambda_sweep_problem_probe(
        L, np.asarray(cfg["lambda_grid"], float),
        np.asarray(cfg["points"], float), _build_grid(cfg["grid"]),
        dt=float(cfg["dt"]),
        analytic_qx=None if analytic is None else np.asarray(analytic, float))
    ws.write_json("qtable.json", out)
    return EXIT_OK


_RUNNERS: dict[str, Callable[[dict, Workspace], int]] = {
    "fundamental": run_fundamental,
    "operators": run_operators,
    "discounted": run_discounted,
    "regularize": run_regularize,
    "singularity": run_singularity,
    "propcheck": run_propcheck,
    "lambda-sweep": run_lambda_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjlax",
        description="Experiment runner for discounted Hamilton-Jacobi "
                    "regularization studies")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", default=[],
                       metavar="K=V", help="dotted-path config override")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    cfg: dict = {}
    status = "ok"
    error_class = None
    error_message = None
    code = EXIT_OK
    out_dir = args.out or "."
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        for item in args.tol:
            key, value = _parse_override(item)
            _set_dotted(cfg, key, value)
        out_dir = args.out or cfg.get("out") or "."
        ws = Workspace(out_dir)
        code = _RUNNERS[args.kind](cfg, ws)
    except Exception as exc:  # noqa: BLE001 - every failure gets a manifest
        ws = Workspace(out_dir)
        code = _exit_code_for(exc)
        if code == EXIT_INTERNAL:
            traceback.print_exc()
        status = "error"
        error_class = type(exc).__name__
        error_message = str(exc)

    manifest = {
        "kind": args.kind,
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "status": status,
        "error_class": error_class,
        "error_message": error_message,
        "exit_code": code,
        "artifacts": sorted(ws.artifacts),
        "versions": {
            "hjlax": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    dump_json(manifest, os.path.join(ws.out_dir, "manifest.json"))
    with open(os.path.join(ws.out_dir, "timing.txt"), "w") as fh:
        fh.write(f"wall_seconds={time.perf_counter() - t_start:.3f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
