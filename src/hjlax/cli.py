"""Config-driven experiment runner.

Each subcommand wires one experiment kind to the library and writes its
artifacts (CSV tables, JSON reports) plus a manifest into the output
directory.  The manifest echoes the effective config, library versions,
seed, artifact list, and final status; it is written even when the run
fails, and it carries no wall-clock data so same-seed runs are
byte-identical.  Elapsed time goes to timing.txt instead.

Each kind accepts exactly the keys of its _SCHEMAS table, which gives
every key a converter and a default (or marks it required).  _parse reads
the whole config into typed values before anything runs, so a missing,
unknown or malformed key is a config error that names the dotted key.

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
                     probe_midpoint_defects, probe_velocity_bounds)
from .discounted import lift_to_evolution, solve_discounted
from .errors import (BoxExhausted, ConfigError, HJLaxError, InvalidHorizon,
                     NonContraction, NonConvergence, OutOfWindow,
                     SearchBallClipped)
from .gridfn import GridSpec
from .lagrangian import (TonelliLagrangian, catalog, discount_lift,
                         hamiltonian_for)
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
# config plumbing: converters, one key table per kind, and one parser


def _checked(ok: Callable[[Any], bool], what: str,
             convert: Callable[[Any], Any] = lambda v: v
             ) -> Callable[[Any], Any]:
    """Converter convert that also requires ok of the converted value."""
    def run(value: Any) -> Any:
        out = convert(value)
        if not ok(out):
            raise ValueError(f"expected {what}")
        return out
    return run


def _float(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeError("expected a number")
    return float(value)


def _int(value: Any) -> int:
    number = _float(value)
    if not number.is_integer():
        raise ValueError("expected an integer")
    return int(number)


_positive = _checked(lambda x: x > 0.0, "a positive number", _float)
_flag = _checked(lambda v: isinstance(v, bool), "true or false")
_text = _checked(lambda v: isinstance(v, str), "a string")
_REQUIRED = object()


def _choice(*words: str) -> Callable[[Any], str]:
    return _checked(lambda v: v in words, f"one of {list(words)}")


def _at_least(least: int) -> Callable[[Any], int]:
    return _checked(lambda n: n >= least, f"an integer >= {least}", _int)


def _floats(*shape: int | None) -> Callable[[Any], np.ndarray]:
    """Converter to a float array of the given shape (None: any length > 0)."""
    dims = " x ".join("n" if n is None else str(n) for n in shape)
    return _checked(
        lambda a: a.ndim == len(shape) and all(
            n > 0 and want in (None, n) for n, want in zip(a.shape, shape)),
        f"{dims} numbers", lambda v: np.asarray(v, dtype=float))


def _unless(word: str, convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Converter reading the literal word as None and the rest by convert."""
    return lambda value: None if value == word else convert(value)


def _fields(keys: dict[str, tuple[Any, Any]], cfg: Any, where: str = ""
            ) -> dict[str, Any]:
    """Typed values of the mapping cfg at the dotted path where.

    keys maps each accepted key to (converter, default); the converter may
    be a nested key table, and the default _REQUIRED.  Defaults go through
    the converter like given values, and null is accepted only where the
    default is None.  A TypeError or ValueError from a converter becomes a
    ConfigError that names the dotted key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping")
    missing = [k for k, (_, default) in keys.items()
               if default is _REQUIRED and k not in cfg]
    unknown = sorted(str(k) for k in cfg if k not in keys)
    if missing:
        raise ConfigError(f"{where or 'config'}: missing keys {missing}")
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown keys {unknown}")
    out = {}
    for key, (convert, default) in keys.items():
        name = f"{where}.{key}" if where else key
        value = cfg.get(key, default)
        if value is None and default is None:
            out[key] = None
        elif isinstance(convert, dict):
            out[key] = _fields(convert, value, name)
        else:
            try:
                out[key] = convert(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc} (got {value!r})") from exc
    return out


def _lagrangian(spec: Any) -> TonelliLagrangian:
    """Catalog Lagrangian of a {key, dim (default 1), **params} mapping."""
    if not isinstance(spec, dict) or "key" not in spec:
        raise TypeError("expected a mapping with a 'key'")
    params = {k: v for k, v in spec.items() if k != "key"}
    params["dim"] = _int(spec.get("dim", 1))
    return catalog(spec["key"], **params)


def _lagrangians(specs: Any) -> dict[str, TonelliLagrangian]:
    """Lagrangian per label; an entry's label defaults to its key."""
    if not isinstance(specs, list):
        raise TypeError("expected a list of lagrangian mappings")
    labelled = {}
    for spec in map(dict, specs):
        label = str(spec.pop("label", spec.get("key", "")))
        if label in labelled:
            raise ValueError("duplicate lagrangian labels; set a distinct "
                             "'label' on each entry sharing a key")
        labelled[label] = _lagrangian(spec)
    return labelled


_GRID = {"box": (_floats(None, 2), _REQUIRED),
         "num": (_checked(lambda a: all(n.is_integer() and n >= 2 for n in a),
                          "integers >= 2", _floats(None)), _REQUIRED),
         "boundary": (_choice("constant", "periodic"), "constant")}


def _grid(spec: Any) -> GridSpec:
    g = _fields(_GRID, spec, "grid")
    if len(g["box"]) != len(g["num"]):
        raise ValueError("box and num differ in length")
    return GridSpec(box=[tuple(b) for b in g["box"].tolist()],
                    num=[int(n) for n in g["num"]], boundary=g["boundary"])


_T_GRID = {"start": (_float, _REQUIRED), "count": (_at_least(1), _REQUIRED),
           "factor": (_float, 2.0)}


def _t_grid(spec: Any) -> np.ndarray:
    """Scales of a t_grid entry: a list, or start * factor^-k for k < count."""
    if isinstance(spec, list):
        return _floats(None)(spec)
    if isinstance(spec, dict):
        g = _fields(_T_GRID, spec, "t_grid")
        return g["start"] * g["factor"] ** (-np.arange(g["count"], dtype=float))
    raise ConfigError("t_grid must be a list or {start, count, factor}")


_FIELDS: dict[str, Callable[..., Callable]] = {
    "vee": lambda scale: (lambda x: -scale * np.linalg.norm(x, axis=-1)),
    "quadratic": lambda scale: (lambda x: -0.5 * scale * np.sum(x * x, -1)),
    "constant": lambda scale: (lambda x: scale + 0.0 * x[..., 0]),
}

# Every key a kind accepts.  "tolerances" lists the ones the kind checks,
# each positive; a None default is derived from the grid spacing.
_STATIONARY = {"lagrangian": (_lagrangian, _REQUIRED),
               "lambda": (_float, _REQUIRED), "grid": (_grid, _REQUIRED),
               "dt": (_float, _REQUIRED)}
_SCHEMAS: dict[str, dict[str, tuple[Any, Any]]] = {
    kind: {**keys, "out": (_text, ".")} for kind, keys in {
        "fundamental": {
            "lagrangian": (_lagrangian, _REQUIRED), "lambda": (_float, None),
            "n_samples": (_int, 100), "window": (_floats(2), [0.05, 0.5]),
            "s_range": (_floats(2), [0.0, 0.0]), "box_radius": (_float, 1.0),
            "seed": (_int, 0), "gradient_check": (_flag, False),
            "tolerances": ({"rel_error": (_positive, 1e-6),
                            "grad_rel_error": (_positive, 1e-3)}, {})},
        "operators": {
            "lagrangian": (_lagrangian, _REQUIRED), "lambda": (_float, None),
            "grid": (_grid, _REQUIRED),
            "field": ({"kind": (_choice(*_FIELDS), _REQUIRED),
                       "scale": (_float, 1.0)}, _REQUIRED),
            "taus": (_floats(None), _REQUIRED),
            "sign": (_choice("plus", "minus"), "plus"),
            "tolerances": ({"sup_error": (_positive, 1e-4)}, {})},
        "discounted": {
            **_STATIONARY, "tol_fp": (_float, 1e-10),
            "reference": ({"refine": (_at_least(1), 4)}, None),
            "lift_check": ({"t": (_float, _REQUIRED)}, None),
            "tolerances": ({"sup_vs_reference": (_positive, np.inf),
                            "lift_sup_error": (_positive, np.inf)}, {})},
        "regularize": {
            **_STATIONARY, "t_grid": (_t_grid, _REQUIRED),
            "probes": (_unless("default", _floats(None, None)), "default"),
            "seed": (_int, 0),
            "tolerances": ({"gradient_match": (_positive, None)}, {})},
        "singularity": {
            **_STATIONARY, "t_grid": (_t_grid, _REQUIRED),
            "x0": (_unless("auto", _floats(None)), "auto"),
            "window_samples": (_int, 64),
            "tolerances": ({"jump": (_positive, None),
                            "derivative_match": (_positive, None)}, {})},
        "propcheck": {
            "lagrangians": (_lagrangians, _REQUIRED), "lambda": (_float, None),
            "x": (_floats(None), None), "R": (_float, 1.0),
            "time_pairs": (_floats(None, 2), [[0.0, 0.5], [0.0, 1.0]]),
            "T_grid": (_floats(None), [0.05, 0.1, 0.2, 0.4]),
            "lam_cone": (_float, 1.0), "n_samples": (_int, 200),
            "seed": (_int, 0)},
        "lambda-sweep": {
            "lagrangian": (_lagrangian, _REQUIRED),
            "lambda_grid": (_floats(None), _REQUIRED),
            "points": (_floats(None, None), _REQUIRED),
            "grid": (_grid, _REQUIRED), "dt": (_float, _REQUIRED),
            "analytic_qx": (_floats(None, None), None)},
    }.items()}


def _parse(kind: str, cfg: Any) -> dict[str, Any]:
    """Typed values of an experiment config under its kind's key table."""
    return _fields(_SCHEMAS[kind], cfg)


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


# ---------------------------------------------------------------------------
# experiment runners: each reads the parsed config and returns an exit code

# central-difference step of the fundamental kind's gradient check
_FD_STEP = 1e-5


def run_fundamental(p: dict, ws: Workspace) -> int:
    L0, lam, n = p["lagrangian"], p["lambda"], p["n_samples"]
    wlo, whi = p["window"].tolist()
    slo, shi = p["s_range"].tolist()
    radius, grad_check = p["box_radius"], p["gradient_check"]
    rng = np.random.default_rng(p["seed"])
    L = (discount_lift(L0, lam, horizon=shi + whi + 0.1)
         if lam is not None else L0)
    closed = L.kernel.value if L.kernel is not None else None

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
            ref = float(closed(s, t, x, y))
            rel = abs(fs.value - ref) / max(abs(ref), 1e-12)
            max_rel = max(max_rel, rel)
            row += [ref, rel]
        if grad_check:
            worst = 0.0
            for k, grad in enumerate((fs.grad_x, fs.grad_y)):
                for i in range(dim):
                    e = np.zeros((2, dim))
                    e[k, i] = _FD_STEP
                    fd = (minimize_action(L, s, t, x + e[0], y + e[1]).value
                          - minimize_action(L, s, t, x - e[0], y - e[1]).value
                          ) / (2.0 * _FD_STEP)
                    worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-8))
            max_grad_rel = max(max_grad_rel, worst)
            row += [worst]
        rows.append(row)
    ws.write_csv("samples.csv", header, rows)

    tols = p["tolerances"]
    passed = not ((closed and max_rel > tols["rel_error"]) or (
        grad_check and max_grad_rel > tols["grad_rel_error"]))
    ws.write_json("report.json", {
        "n_samples": n, "lambda": lam,
        "lagrangian": {"key": L0.key, **L0.params},
        "max_rel_error": max_rel if closed else None,
        "max_grad_rel_error": max_grad_rel if grad_check else None,
        "passed": passed})
    return EXIT_OK if passed else EXIT_VIOLATION


def run_operators(p: dict, ws: Workspace) -> int:
    L0, lam, sign, field = p["lagrangian"], p["lambda"], p["sign"], p["field"]
    taus = p["taus"].tolist()
    scale = field["scale"]
    u = p["grid"].build(_FIELDS[field["kind"]](scale))
    L = (discount_lift(L0, lam, horizon=max(taus) + 0.1)
         if lam is not None else L0)
    op = lax_plus if sign == "plus" else lax_minus

    moreau = None
    if (field["kind"] == "vee" and L0.key == "free" and lam is None
            and sign == "plus"):
        def moreau(x, tau):
            r = np.linalg.norm(x, axis=-1)
            return np.where(r <= scale * tau, -r * r / (2.0 * tau),
                            -scale * r + scale * scale * tau / 2.0)

    sup_errors = {}
    notes = {}
    max_ratio = 0.0
    kappa0_used = None
    code = EXIT_OK
    for tau in taus:
        res = op(L, u, 0.0, tau)
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
            if float(err.max()) > p["tolerances"]["sup_error"]:
                code = EXIT_VIOLATION
        table = np.hstack(cols)
        ws.write_csv(f"values_tau{tau:g}.csv", header,
                     [list(map(float, r)) for r in table])

        ws.write_csv(
            f"records_tau{tau:g}.csv",
            [f"x{i+1}" for i in range(u.dim)]
            + [f"ystar{i+1}" for i in range(u.dim)]
            + ["value", "distance_ratio", "clipped", "multiplicity"],
            [[*map(float, rec.x), *map(float, rec.y_star), float(rec.value),
              float(rec.distance_ratio), int(rec.clipped),
              int(rec.multiplicity)] for rec in res.records])
        max_ratio = max([max_ratio]
                        + [rec.distance_ratio for rec in res.records])

    report = {"sign": sign, "taus": taus, "field": field,
              "sup_errors_vs_closed_form": sup_errors or None,
              "kappa0": kappa0_used, "max_distance_ratio": max_ratio,
              "localized": max_ratio <= (kappa0_used or np.inf),
              "notes": notes, "passed": code == EXIT_OK}
    ws.write_json("report.json", report)
    return code


def run_discounted(p: dict, ws: Workspace) -> int:
    L, lam, grid, dt, tol_fp = (p[k] for k in ("lagrangian", "lambda", "grid",
                                               "dt", "tol_fp"))
    tols = p["tolerances"]
    sol = solve_discounted(L, lam, grid, dt, tol_fp=tol_fp)
    sol.u.to_csv(ws.path("u.csv"))
    report: dict[str, Any] = {"solution": sol.metadata()}
    code = EXIT_OK

    if p["reference"] is not None:
        refine = p["reference"]["refine"]
        if grid.boundary == "periodic":
            num = [n * refine for n in grid.num]
        else:
            num = [(n - 1) * refine + 1 for n in grid.num]
        fine = GridSpec(box=grid.box, num=num, boundary=grid.boundary)
        sol2 = solve_discounted(L, lam, fine, dt / refine, tol_fp=tol_fp)
        stride = tuple(slice(None, None, refine) for _ in grid.num)
        diff = float(np.abs(sol2.u.values[stride] - sol.u.values).max())
        report["reference"] = {"refine": refine, "sup_diff": diff}
        if diff > tols["sup_vs_reference"]:
            code = EXIT_VIOLATION

    if p["lift_check"] is not None:
        t = p["lift_check"]["t"]
        lifted = discount_lift(L, lam, horizon=t)
        evo = lift_to_evolution(sol, t)
        res = lax_minus(lifted, sol.u, 0.0, t)
        gap = float(np.abs(res.grid.values - evo.values).max())
        report["lift_check"] = {"t": t, "sup_error": gap}
        if gap > tols["lift_sup_error"]:
            code = EXIT_VIOLATION

    report["passed"] = code == EXIT_OK
    ws.write_json("report.json", report)
    return code


def run_regularize(p: dict, ws: Workspace) -> int:
    L = p["lagrangian"]
    sol = solve_discounted(L, p["lambda"], p["grid"], p["dt"])
    sweep = convergence_sweep(sol, L, t_grid=p["t_grid"],
                              probe_points=p["probes"], seed=p["seed"])
    sweep.errors_to_csv(ws.path("errors.csv"))
    sweep.probes_to_csv(ws.path("probes.csv"))
    ws.write_json("sweep.json", sweep.as_dict())

    monotone = bool(np.all(np.diff(sweep.sup_errors) < 0.0))
    budget = 4.0 * sol.u.interp_error_estimate()
    report: dict[str, Any] = {
        "monotone": monotone,
        "final_error": float(sweep.sup_errors[-1]),
        "interp_budget": budget,
        "cauchy_ok": sweep.cauchy_ok,
    }
    H = hamiltonian_for(L)
    match_tol = (p["tolerances"]["gradient_match"]
                 or 3.0 * float(sol.u.spacing.max()))
    comparisons = [gradient_limit_vs_qx(sweep, H, pt)
                   for pt in sweep.probe_points]
    passed = (monotone and not sweep.sup_errors[-1] > budget
              and not any(c.distance > match_tol for c in comparisons))
    report["qx_comparisons"] = [c.as_dict() for c in comparisons]
    report["gradient_match_tol"] = match_tol
    report["passed"] = passed
    ws.write_json("report.json", report)
    return EXIT_OK if passed else EXIT_VIOLATION


def run_singularity(p: dict, ws: Workspace) -> int:
    L = p["lagrangian"]
    sol = solve_discounted(L, p["lambda"], p["grid"], p["dt"])
    sing = singular_set(sol.u)
    x0 = p["x0"]
    if x0 is None:
        if not len(sing.points):
            raise ConfigError("x0: auto requires a nonempty singular set")
        x0 = sing.points[0]
    tr = trace_singularity(sol, L, x0, t_grid=p["t_grid"], sing=sing,
                           window_samples=p["window_samples"])
    tr.to_csv(ws.path("trace.csv"))
    ws.write_json("trace.json", tr.as_dict())

    h = float(sol.u.spacing.max())
    jump_tol = p["tolerances"]["jump"] or 2.0 * h
    deriv_tol = p["tolerances"]["derivative_match"] or 2.0 * h
    rd_vs_v0 = float(np.linalg.norm(tr.right_derivative - tr.v0))
    passed = tr.max_jump <= jump_tol and not rd_vs_v0 > deriv_tol
    ws.write_json("report.json", {
        "singular_points": sing.points,
        "max_jump": tr.max_jump, "jump_tol": jump_tol,
        "right_derivative": tr.right_derivative, "q_lambda": tr.q_lambda,
        "v0": tr.v0, "rd_vs_v0": rd_vs_v0, "derivative_tol": deriv_tol,
        "t1": tr.t1, "t2": tr.t2, "kappa0": tr.kappa0,
        "passed": passed,
    })
    return EXIT_OK if passed else EXIT_VIOLATION


def run_propcheck(p: dict, ws: Workspace) -> int:
    lam, n_samples, seed, lam_cone = (p[k] for k in (
        "lambda", "n_samples", "seed", "lam_cone"))
    T_grid = tuple(p["T_grid"].tolist())
    time_pairs = [tuple(pair) for pair in p["time_pairs"].tolist()]
    if p["x"] is not None:
        for name, L0 in p["lagrangians"].items():
            if len(p["x"]) != L0.dim:
                raise ConfigError(
                    f"x = {p['x'].tolist()} has length {len(p['x'])}, but "
                    f"Lagrangian {name!r} has dim {L0.dim}")
    all_passed = True
    summary = {}
    for name, L0 in p["lagrangians"].items():
        L = (discount_lift(L0, lam, horizon=2.0 * max(T_grid) + 0.1)
             if lam is not None else L0)
        x = p["x"] if p["x"] is not None else np.zeros(L0.dim)
        semi, conv = probe_midpoint_defects(
            L, x, 0.0, lam_cone=lam_cone, T_grid=T_grid,
            n_samples=n_samples, seed=seed)
        reports = {
            "velocity_bounds": probe_velocity_bounds(
                L, x, p["R"], time_pairs, n_samples=n_samples, seed=seed),
            "compact_containment": probe_compact_containment(
                L, x, 0.0, max(T_grid), lam_cone, n_samples=n_samples,
                seed=seed),
            "semiconcavity": semi,
            "convexity": conv,
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


def run_lambda_sweep(p: dict, ws: Workspace) -> int:
    out = lambda_sweep_problem_probe(
        p["lagrangian"], p["lambda_grid"], p["points"], p["grid"],
        dt=p["dt"], analytic_qx=p["analytic_qx"])
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
    status, error_class, error_message, code = "ok", None, None, EXIT_OK
    out_dir = args.out or "."
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        for item in args.tol:
            _set_dotted(cfg, *_parse_override(item))
        parsed = _parse(args.kind, cfg)
        out_dir = args.out or parsed["out"]
        ws = Workspace(out_dir)
        code = _RUNNERS[args.kind](parsed, ws)
    except Exception as exc:  # noqa: BLE001 - every failure gets a manifest
        ws = Workspace(out_dir)
        code = _exit_code_for(exc)
        if code == EXIT_INTERNAL:
            traceback.print_exc()
        status = "error"
        error_class = type(exc).__name__
        error_message = str(exc)

    manifest = {
        "kind": args.kind, "config": cfg, "seed": cfg.get("seed", 0),
        "status": status, "error_class": error_class,
        "error_message": error_message, "exit_code": code,
        "artifacts": sorted(ws.artifacts),
        "versions": {"hjlax": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
    }
    dump_json(manifest, os.path.join(ws.out_dir, "manifest.json"))
    with open(os.path.join(ws.out_dir, "timing.txt"), "w") as fh:
        fh.write(f"wall_seconds={time.perf_counter() - t_start:.3f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
