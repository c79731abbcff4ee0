"""Acceptance suite: twelve numbered criteria, one printed verdict each.

Every test ends by printing exactly one line

    [criterion NN] PASS|FAIL <name>: <measurements>

on the real stdout (bypassing capture) and then asserting.  Heavy inputs
(discounted solutions, the regularization sweep, the singularity trace)
are module-scoped fixtures shared across criteria 6-11.
"""
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hjlax as hj
from hjlax.cli import main as cli_main

# pinned tolerances
TOL_FUNDAMENTAL_REL = 1e-6
RUNTIME_CAP_S = 30.0
TOL_KERNEL_REL = 1e-6
TOL_GRAD_REL = 1e-3
TOL_CONST = 1e-6
TOL_MOREAU_SUP = 1e-4
KAPPA0_VEE_TOL = 0.05
SCALING_REL = 0.10
TOL_CONSTANT_CASE = 1e-8
TOL_COS_REFERENCE = 2e-3
CONTRACTION_REL = 0.05
TOL_LIFT_SUP = 5e-3
CONV_BUDGET_FACTOR = 4.0
GRAD_LIMIT_SPACING_FACTOR = 3.0
TOL_BRUTE_AGREE = 1e-6
JUMP_SPACING_FACTOR = 2.0

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"

VERDICT_LINES: list[str] = []


def _verdict(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def _catalog():
    return [
        hj.catalog("free", dim=1),
        hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0),
        hj.catalog("mechanical", dim=1, potential="double_well",
                   coeff=-1.0, shift=-0.25),
        hj.catalog("anisotropic", dim=2, m0=1.0, m1=0.3),
    ]


# ---------------------------------------------------------------------------
# shared heavy inputs


@pytest.fixture(scope="module")
def dw_lagrangian():
    return hj.catalog("mechanical", dim=1, potential="double_well",
                      coeff=-1.0, shift=-0.25)


@pytest.fixture(scope="module")
def dw_solution(dw_lagrangian):
    grid = hj.GridSpec(box=[(-2.0, 2.0)], num=[81], boundary="constant")
    return hj.solve_discounted(dw_lagrangian, 0.5, grid, dt=0.05)


@pytest.fixture(scope="module")
def cos_lagrangian():
    return hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0)


@pytest.fixture(scope="module")
def cos_solution(cos_lagrangian):
    grid = hj.GridSpec(box=[(-np.pi, np.pi)], num=[256], boundary="periodic")
    return hj.solve_discounted(cos_lagrangian, 0.5, grid, dt=0.05)


@pytest.fixture(scope="module")
def cos_reference(cos_lagrangian):
    grid = hj.GridSpec(box=[(-np.pi, np.pi)], num=[1024], boundary="periodic")
    return hj.solve_discounted(cos_lagrangian, 0.5, grid, dt=0.0125)


@pytest.fixture(scope="module")
def moreau_results():
    """lax_plus of u = -|x| under the free kernel, per tau, plus a 2u run."""
    free = hj.catalog("free", dim=1)
    grid = hj.GridSpec(box=[(-3.0, 3.0)], num=[2001], boundary="constant")
    u = grid.build(lambda p: -np.abs(p[..., 0]))
    by_tau = {tau: hj.lax_plus(free, u, 0.0, tau) for tau in (0.1, 0.2, 0.4)}
    scaled = hj.lax_plus(free, u.with_values(2.0 * u.values), 0.0, 0.2)
    return {"u": u, "by_tau": by_tau, "scaled": scaled}


@pytest.fixture(scope="module")
def lift_result(cos_solution, cos_lagrangian):
    t = 0.25
    lifted = hj.discount_lift(cos_lagrangian, cos_solution.lam,
                              horizon=t + cos_solution.dt)
    res = hj.lax_minus(lifted, cos_solution.u, 0.0, t)
    expect = hj.lift_to_evolution(cos_solution, t)
    return {"result": res, "expected": expect, "t": t}


@pytest.fixture(scope="module")
def dw_sweep(dw_solution, dw_lagrangian):
    return hj.convergence_sweep(dw_solution, dw_lagrangian)


@pytest.fixture(scope="module")
def dw_trace(dw_solution, dw_lagrangian):
    return hj.trace_singularity(dw_solution, dw_lagrangian, np.array([0.0]))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_fundamental_free_oracle():
    free = hj.catalog("free", dim=1)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0.0, 0.3)
        t = s + rng.uniform(0.05, 0.5)
        x = rng.uniform(-1.0, 1.0, size=1)
        y = rng.uniform(-1.0, 1.0, size=1)
        fs = hj.minimize_action(free, s, t, x, y)
        closed = float((y - x) @ (y - x)) / (2.0 * (t - s))
        worst = max(worst, abs(fs.value - closed) / max(closed, 1e-300))
    elapsed = time.perf_counter() - start
    _verdict(1, "free-particle fundamental-solution oracle",
             worst <= TOL_FUNDAMENTAL_REL and elapsed <= RUNTIME_CAP_S,
             f"max rel err {worst:.2e} (tol {TOL_FUNDAMENTAL_REL:g}), "
             f"runtime {elapsed:.1f}s (cap {RUNTIME_CAP_S:g}s)")


def test_criterion_02_discounted_kernel_oracle():
    free = hj.catalog("free", dim=1)
    rng = np.random.default_rng(1)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        lifted = hj.discount_lift(free, lam, horizon=1.0)
        for _ in range(20):
            t = rng.uniform(0.1, 0.8)
            x = rng.uniform(-1.0, 1.0, size=1)
            y = rng.uniform(-1.0, 1.0, size=1)
            fs = hj.minimize_action(lifted, 0.0, t, x, y)
            closed = lam * float((y - x) @ (y - x)) \
                / (2.0 * (1.0 - np.exp(-lam * t)))
            worst = max(worst, abs(fs.value - closed) / max(closed, 1e-300))
    _verdict(2, "discounted-kernel oracle (lam in {0.5,1,2})",
             worst <= TOL_KERNEL_REL,
             f"max rel err {worst:.2e} (tol {TOL_KERNEL_REL:g})")


def test_criterion_03_endpoint_gradient_formulas():
    rng = np.random.default_rng(2)
    entries = _catalog()
    eps = 1e-6
    worst = 0.0
    n_done = 0
    while n_done < 50:
        L = entries[n_done % len(entries)]
        s = rng.uniform(0.0, 0.2)
        t = s + rng.uniform(0.1, 0.5)
        x = rng.uniform(-0.8, 0.8, size=L.dim)
        y = rng.uniform(-0.8, 0.8, size=L.dim)
        fs = hj.minimize_action(L, s, t, x, y)
        for grad, point, is_y in ((fs.grad_x, x, False), (fs.grad_y, y, True)):
            fd = np.zeros(L.dim)
            for k in range(L.dim):
                step = np.zeros(L.dim)
                step[k] = eps
                if is_y:
                    hi = hj.minimize_action(L, s, t, x, point + step).value
                    lo = hj.minimize_action(L, s, t, x, point - step).value
                else:
                    hi = hj.minimize_action(L, s, t, point + step, y).value
                    lo = hj.minimize_action(L, s, t, point - step, y).value
                fd[k] = (hi - lo) / (2.0 * eps)
            rel = float(np.linalg.norm(grad - fd)
                        / max(np.linalg.norm(fd), 1e-9))
            worst = max(worst, rel)
        n_done += 1
    _verdict(3, "endpoint gradients vs central differences",
             worst <= TOL_GRAD_REL,
             f"50 converged instances, max rel err {worst:.2e} "
             f"(tol {TOL_GRAD_REL:g})")


def test_criterion_04_inequality_probe_suite():
    time_pairs = [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
    T_grid = (0.05, 0.1, 0.2, 0.4)
    n = 48
    total_violations = 0
    free_consts = {}
    for L in _catalog():
        x = np.zeros(L.dim)
        reports = [
            hj.probe_velocity_bounds(L, x, 1.0, time_pairs, n_samples=n,
                                     seed=0),
            hj.probe_compact_containment(L, x, 0.0, 0.4, 1.0, n_samples=n,
                                         seed=0),
            *hj.probe_midpoint_defects(L, x, 0.0, T_grid=T_grid,
                                       n_samples=n, seed=0),
        ]
        total_violations += sum(len(r.violations) for r in reports)
        if L.key == "free":
            free_consts = {r.name: r.constants for r in reports}

    c_space = free_consts["semiconcavity"]["C_lambda_space"]
    c_triple = free_consts["convexity"]["C_tripleprime"]
    ratios = np.asarray(free_consts["velocity_bounds"]["ratios"])
    kv = np.asarray(free_consts["velocity_bounds"]["kappa_velocity"])
    kappa_dev = float(np.abs(kv - ratios).max())
    const_ok = (abs(c_space - 1.0) <= TOL_CONST
                and abs(c_triple - 1.0) <= TOL_CONST
                and kappa_dev <= TOL_CONST * (1.0 + ratios.max()))
    _verdict(4, "inequality probes on the catalog",
             total_violations == 0 and const_ok,
             f"violations {total_violations}, free constants "
             f"C_space={c_space:.8f} C'''={c_triple:.8f} "
             f"max|kappa(r)-r|={kappa_dev:.2e} (tol {TOL_CONST:g})")


def test_criterion_05_moreau_envelope_oracle(moreau_results):
    worst = 0.0
    for tau, res in moreau_results["by_tau"].items():
        x = res.grid.nodes()[:, 0]
        closed = np.where(np.abs(x) <= tau, -x * x / (2.0 * tau),
                          -np.abs(x) + tau / 2.0)
        worst = max(worst, float(np.abs(res.values - closed).max()))
    _verdict(5, "Moreau-envelope closed form (tau in {0.1,0.2,0.4})",
             worst <= TOL_MOREAU_SUP,
             f"max sup err {worst:.2e} (tol {TOL_MOREAU_SUP:g})")


def test_criterion_06_maximizer_localization(moreau_results, lift_result,
                                             dw_sweep, dw_trace,
                                             dw_solution, dw_lagrangian):
    slack = 1.0 + 1e-9

    # reported cones hold for every retained maximizer
    cone_ok = True
    for res in (*moreau_results["by_tau"].values(),
                moreau_results["scaled"], lift_result["result"]):
        ratios = np.array([r.distance_ratio for r in res.records])
        cone_ok &= bool((ratios <= res.kappa0_ratio * slack).all())
    cone_ok &= bool((np.asarray(dw_trace.distance_ratios)
                     <= dw_trace.kappa0 * slack).all())
    lifted = hj.discount_lift(dw_lagrangian, dw_solution.lam, horizon=0.25)
    est = hj.estimate_kappa0(lifted, dw_solution.u.lipschitz(), 0.0, 0.2,
                             dw_solution.u.nodes()[::8])
    sweep_ratios = np.array([r.distance_ratio
                             for f in dw_sweep.fields
                             for r in f.probe_records])
    cone_ok &= bool((sweep_ratios <= est["kappa0"] * slack).all())

    # empirical cone slope of the vee field, and linearity under u -> 2u
    emp = max(max(r.distance_ratio for r in res.records)
              for res in moreau_results["by_tau"].values())
    emp2 = max(r.distance_ratio for r in moreau_results["scaled"].records)
    base2 = max(r.distance_ratio
                for r in moreau_results["by_tau"][0.2].records)
    lin = emp2 / (2.0 * base2)
    _verdict(6, "maximizer localization cones",
             cone_ok and abs(emp - 1.0) <= KAPPA0_VEE_TOL
             and abs(lin - 1.0) <= SCALING_REL,
             f"cones hold {cone_ok}, vee kappa0 {emp:.4f} (1 +/- "
             f"{KAPPA0_VEE_TOL:g}), doubling ratio {lin:.3f} (1 +/- "
             f"{SCALING_REL:g})")


def test_criterion_07_discounted_solver(cos_solution, cos_reference):
    const_L = hj.catalog("mechanical", dim=1, potential="cos", coeff=0.0,
                         shift=-0.8)
    grid = hj.GridSpec(box=[(-1.0, 1.0)], num=[41], boundary="constant")
    lam = 2.0
    const_sol = hj.solve_discounted(const_L, lam, grid, dt=0.1)
    const_dev = float(np.abs(const_sol.u.values - 0.8 / lam).max())

    stride = cos_reference.u.values.shape[0] // cos_solution.u.values.shape[0]
    ref_dev = float(np.abs(cos_solution.u.values
                           - cos_reference.u.values[::stride]).max())

    target = np.exp(-cos_solution.lam * cos_solution.dt)
    contr_rel = abs(cos_solution.measured_contraction - target) / target
    _verdict(7, "discounted fixed-point solver",
             const_dev <= TOL_CONSTANT_CASE and ref_dev <= TOL_COS_REFERENCE
             and contr_rel <= CONTRACTION_REL,
             f"constant case {const_dev:.2e} (tol {TOL_CONSTANT_CASE:g}), "
             f"vs 4x reference {ref_dev:.2e} (tol {TOL_COS_REFERENCE:g}), "
             f"contraction off by {contr_rel:.2%} (cap {CONTRACTION_REL:.0%})")


def test_criterion_08_evolution_equivalence_lift(lift_result):
    res = lift_result["result"]
    sup = float(np.abs(res.values - lift_result["expected"].values).max())
    _verdict(8, "discounted-to-evolution lift (t=0.25, lam=0.5)",
             sup <= TOL_LIFT_SUP,
             f"sup err {sup:.2e} (tol {TOL_LIFT_SUP:g})")


def test_criterion_09_regularization_convergence(dw_sweep, dw_solution):
    errs = np.asarray(dw_sweep.sup_errors)
    monotone = bool((np.diff(errs) < 0.0).all())
    budget = CONV_BUDGET_FACTOR * dw_solution.u.interp_error_estimate()
    _verdict(9, "regularization error decreases to the grid floor",
             monotone and errs[-1] <= budget,
             f"errors {np.array2string(errs, precision=4)}, monotone "
             f"{monotone}, final {errs[-1]:.3e} <= budget {budget:.3e}")


def test_criterion_10_gradient_limit_vs_qx(dw_sweep, dw_lagrangian):
    H = hj.hamiltonian_for(dw_lagrangian)
    spacing = float(dw_sweep.base.spacing.max())
    tol = GRAD_LIMIT_SPACING_FACTOR * spacing
    worst_dist = 0.0
    worst_route = 0.0
    for x in dw_sweep.probe_points:
        cmp = hj.gradient_limit_vs_qx(dw_sweep, H, x)
        worst_dist = max(worst_dist, cmp.distance)
        S = hj.superdifferential(dw_sweep.base, x)
        q_bf, _ = hj.brute_force_H_min(H, 0.0, x, S)
        worst_route = max(worst_route,
                          float(np.linalg.norm(cmp.q - q_bf)))
    _verdict(10, "gradient limit matches the superdifferential minimizer",
             worst_dist <= tol and worst_route <= TOL_BRUTE_AGREE,
             f"{len(dw_sweep.probe_points)} probes, max |lim - q| "
             f"{worst_dist:.3e} (tol {tol:g}), brute-force gap "
             f"{worst_route:.2e} (tol {TOL_BRUTE_AGREE:g})")


def test_criterion_11_singularity_propagation(dw_trace, dw_solution):
    h = float(dw_solution.u.spacing.max())
    tol = JUMP_SPACING_FACTOR * h
    t = np.asarray(dw_trace.t_grid)
    inside = t <= dw_trace.t2 + 1e-12
    # the fixture returned, so every traced maximizer lies in the singular
    # set: trace_singularity raises NotSingular at the first that leaves it
    rd = float(np.linalg.norm(dw_trace.right_derivative))
    v0 = float(np.linalg.norm(dw_trace.v0))
    q0 = float(np.linalg.norm(dw_trace.q_lambda))
    ok = (dw_trace.t2 >= t.min()
          and dw_trace.max_jump <= tol and rd <= tol
          and abs(rd - v0) <= tol and abs(rd - q0) <= tol)
    _verdict(11, "singular point stays singular with zero velocity",
             ok,
             f"t2={dw_trace.t2:g}, {int(inside.sum())} maximizers within "
             f"t2, all singular (the trace returned), "
             f"max jump {dw_trace.max_jump:.2e} (tol {tol:g}), "
             f"|right deriv| {rd:.2e}, |v0| {v0:.2e}, |q| {q0:.2e}")


def test_criterion_12_deterministic_manifests(tmp_path):
    cfg = str(CONFIG_DIR / "fundamental_free.yaml")
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in outs:
        assert cli_main(["fundamental", "--config", cfg,
                         "--out", str(out)]) == 0
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("manifest.json", "report.json", "samples.csv"))
    seed = json.loads((outs[0] / "manifest.json").read_text())["seed"]
    _verdict(12, "same-seed runs are byte-identical",
             identical,
             f"seed {seed}, manifest/report/samples compared byte-wise: "
             f"{identical}")
