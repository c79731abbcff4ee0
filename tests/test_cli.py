"""Experiment runner: config handling, artifacts, exit codes, determinism."""
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import hjlax.cli
from hjlax.cli import (_SCHEMAS, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                       EXIT_VIOLATION, Workspace, _parse, _parse_override,
                       _set_dotted, _t_grid, load_config, main)
from hjlax.errors import ConfigError
from hjlax.report import ProbeReport, _jsonable, dump_json


CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def write_config(path, tree):
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def shipped(name):
    return load_config(str(CONFIG_DIR / name))


FREE_FUNDAMENTAL = {
    "lagrangian": {"key": "free", "dim": 1},
    "n_samples": 6,
    "window": [0.05, 0.5],
    "seed": 3,
    "tolerances": {"rel_error": 1e-6},
}


def test_fundamental_free_oracle_artifacts(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", FREE_FUNDAMENTAL)
    out = tmp_path / "out"
    assert main(["fundamental", "--config", cfg, "--out", str(out)]) == EXIT_OK

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["exit_code"] == 0
    assert manifest["artifacts"] == ["report.json", "samples.csv"]
    assert "wall" not in json.dumps(manifest)
    assert (out / "timing.txt").read_text().startswith("wall_seconds=")

    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["max_rel_error"] <= 1e-6

    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "s,t,x1,y1,value,closed_form,rel_error"
    assert len(lines) == 7


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", FREE_FUNDAMENTAL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fundamental", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["fundamental", "--config", cfg, "--out", str(b)]) == EXIT_OK
    for name in ("manifest.json", "report.json", "samples.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", FREE_FUNDAMENTAL)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["fundamental", "--config", cfg, "--out", str(a), "--seed", "9"])
    main(["fundamental", "--config", cfg, "--out", str(b)])
    ma = json.loads((a / "manifest.json").read_text())
    assert ma["seed"] == 9
    assert (a / "samples.csv").read_text() != (b / "samples.csv").read_text()


def test_tol_override_can_force_violation_exit(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", FREE_FUNDAMENTAL)
    out = tmp_path / "out"
    code = main(["fundamental", "--config", cfg, "--out", str(out),
                 "--tol", "tolerances.rel_error=1e-300"])
    assert code == EXIT_VIOLATION
    manifest = json.loads((out / "manifest.json").read_text())
    # the run completed; the criterion failed
    assert manifest["status"] == "ok"
    assert manifest["exit_code"] == EXIT_VIOLATION
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_missing_config_writes_error_manifest(tmp_path):
    out = tmp_path / "out"
    code = main(["fundamental", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error_class"] == "ConfigError"
    assert manifest["exit_code"] == EXIT_CONFIG


def test_unclassified_exception_writes_internal_error_manifest(tmp_path,
                                                               capsys,
                                                               monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("unclassified")

    monkeypatch.setattr("hjlax.cli.minimize_action", fail)
    cfg = write_config(tmp_path / "c.yaml", FREE_FUNDAMENTAL)
    out = tmp_path / "out"
    code = main(["fundamental", "--config", cfg, "--out", str(out)])
    assert code == EXIT_INTERNAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error_class"] == "RuntimeError"
    assert manifest["exit_code"] == EXIT_INTERNAL
    assert "Traceback" in capsys.readouterr().err


CONSTANT_DISCOUNTED = {
    "lagrangian": {"key": "mechanical", "dim": 1, "potential": "cos",
                   "coeff": 0.0, "shift": -0.8},
    "lambda": 2.0,
    "grid": {"box": [[-1.0, 1.0]], "num": [41], "boundary": "constant"},
    "dt": 0.1,
}


CONSTANT_LAMBDA_SWEEP = {
    "lagrangian": CONSTANT_DISCOUNTED["lagrangian"],
    "lambda_grid": [2.0, 1.0],
    "points": [[0.0]],
    "grid": CONSTANT_DISCOUNTED["grid"],
    "dt": 0.1,
}


@pytest.mark.parametrize("kind, tree, override, key", [
    ("fundamental", FREE_FUNDAMENTAL, "n_samples=abc", "n_samples"),
    ("discounted", CONSTANT_DISCOUNTED, "lift_check={tt: 0.25}", "lift_check"),
    ("discounted", CONSTANT_DISCOUNTED, "grid.num=[0]", "num"),
    ("fundamental", FREE_FUNDAMENTAL, "window=[0.1]", "window"),
    ("lambda-sweep", CONSTANT_LAMBDA_SWEEP, "lambda_grid=[abc]", "lambda_grid"),
    ("operators", shipped("operators_moreau.yaml"), "taus=0.1", "taus"),
    ("operators", shipped("operators_moreau.yaml"), "grid.box=1", "grid.box"),
    ("operators", shipped("operators_moreau.yaml"), "grid.num=5", "grid.num"),
    ("propcheck", shipped("propcheck_catalog.yaml"), "time_pairs=[[0.0]]",
     "time_pairs"),
    ("propcheck", shipped("propcheck_catalog.yaml"), "lagrangians=3",
     "lagrangians"),
    ("propcheck", shipped("propcheck_catalog.yaml"), "T_grid=0.1", "T_grid"),
    # an empty time span, a negative T and a zero tau: the solvers would
    # reject each of them without naming the key, or divide by zero
    ("propcheck", shipped("propcheck_catalog.yaml"),
     "time_pairs=[[0.5, 0.5]]", "time_pairs"),
    ("propcheck", shipped("propcheck_catalog.yaml"), "T_grid=[-0.1, 0.2]",
     "T_grid"),
    ("operators", shipped("operators_moreau.yaml"), "taus=[0.0]", "taus"),
    # negative sample counts: an rng draw of negative size, or no samples
    ("propcheck", shipped("propcheck_catalog.yaml"), "n_samples=-1",
     "n_samples"),
    ("fundamental", FREE_FUNDAMENTAL, "n_samples=-1", "n_samples"),
    ("singularity", shipped("singularity_dw.yaml"), "window_samples=-1",
     "window_samples"),
    ("lambda-sweep", shipped("lambda_sweep_constant.yaml"), "lambda_grid=2.0",
     "lambda_grid"),
    ("lambda-sweep", CONSTANT_LAMBDA_SWEEP, "lambda_grid=[1.0, 2.0]",
     "lambda_grid"),
    # a 1-d x next to the catalog's 2-d anisotropic Lagrangian
    ("propcheck", shipped("propcheck_catalog.yaml"), "x=[0.0]",
     "'anisotropic' has dim 2"),
], ids=["n_samples", "lift_check", "grid_num", "window", "lambda_grid",
        "taus_scalar", "grid_box_scalar", "grid_num_scalar",
        "time_pairs_ragged", "lagrangians_scalar", "T_grid_scalar",
        "time_pairs_empty_span", "T_grid_negative", "taus_zero",
        "propcheck_n_samples_negative", "fundamental_n_samples_negative",
        "window_samples_negative", "lambda_grid_scalar", "lambda_grid_increasing", "x_vs_dim"])
def test_config_shaped_failures_are_config_errors(tmp_path, kind, tree,
                                                  override, key):
    cfg = write_config(tmp_path / "c.yaml", tree)
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out),
                 "--tol", override]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error_class"] == "ConfigError"
    assert key in manifest["error_message"]


@pytest.mark.parametrize("kind, config, flags, key", [
    ("fundamental", "fundamental_free.yaml",
     ["--tol", "tolerances.rel_eror=1e-300"], "rel_eror"),
    ("fundamental", "fundamental_free.yaml",
     ["--tol", 'gradient_check="false"'], "gradient_check"),
    ("operators", "operators_moreau.yaml", ["--seed", "7"], "seed"),
], ids=["misspelt_tolerance", "string_flag", "unread_seed"])
def test_silently_misread_values_are_config_errors(tmp_path, kind, config,
                                                   flags, key):
    # each of these once ran to completion: the misspelt tolerance fell
    # back to its default, bool("false") is True, and operators never
    # reads a seed
    out = tmp_path / "out"
    assert main([kind, "--config", str(CONFIG_DIR / config),
                 "--out", str(out), *flags]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error_class"] == "ConfigError"
    assert key in manifest["error_message"]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_shipped_configs_parse(path):
    # the file-name prefix names the kind: lambda_sweep_* is lambda-sweep
    kinds = [k for k in _SCHEMAS
             if path.stem.startswith(k.replace("-", "_") + "_")]
    assert len(kinds) == 1
    parsed = _parse(kinds[0], load_config(str(path)))
    assert set(parsed) == set(_SCHEMAS[kinds[0]])


def test_json_outputs_are_strict(tmp_path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    empty = tmp_path / "empty.json"
    dump_json(vars(ProbeReport(name="empty")), str(empty))
    blob = json.loads(empty.read_text(), parse_constant=refuse)
    assert blob["worst_slack"] is None

    ws = Workspace(str(tmp_path / "ws"))
    ws.write_json("r.json", {"bound": np.inf, "table": np.array([1.0, np.nan]),
                             "count": np.int64(3), "flag": np.bool_(True)})
    blob = json.loads((tmp_path / "ws" / "r.json").read_text(),
                      parse_constant=refuse)
    assert blob == {"bound": None, "table": [1.0, None], "count": 3,
                    "flag": True}


def test_nan_slack_is_a_violation():
    rep = ProbeReport(name="nan")
    rep.record_slack(0.5)
    rep.record_slack(float("nan"), check="undefined margin")
    rep.record_slack(0.25)
    assert not rep.passed and np.isnan(rep.worst_slack)
    assert len(rep.violations) == 1 and np.isnan(rep.violations[0]["slack"])
    assert _jsonable(vars(rep))["worst_slack"] is None


def test_unknown_keys_rejected(tmp_path):
    bad = dict(FREE_FUNDAMENTAL, typo_key=1)
    cfg = write_config(tmp_path / "c.yaml", bad)
    out = tmp_path / "out"
    assert main(["fundamental", "--config", cfg, "--out", str(out)]) \
        == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert "typo_key" in manifest["error_message"]


def test_nonpositive_tolerance_rejected(tmp_path):
    bad = dict(FREE_FUNDAMENTAL, tolerances={"rel_error": -1.0})
    cfg = write_config(tmp_path / "c.yaml", bad)
    assert main(["fundamental", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_operators_moreau_small_grid(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {
        "lagrangian": {"key": "free", "dim": 1},
        "grid": {"box": [[-2.0, 2.0]], "num": [161],
                 "boundary": "constant"},
        "field": {"kind": "vee", "scale": 1.0},
        "taus": [0.2],
        "sign": "plus",
        "tolerances": {"sup_error": 1e-4},
    })
    out = tmp_path / "out"
    assert main(["operators", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["sup_errors_vs_closed_form"]["0.2"] <= 1e-8
    assert report["localized"] is True
    assert isinstance(report["notes"]["0.2"], list)
    assert list(report["notes"]) == ["0.2"]
    lines = (out / "records_tau0.2.csv").read_text().splitlines()
    assert lines[0] == "x1,ystar1,value,distance_ratio,clipped,multiplicity"
    assert len(lines) == 162


def test_operators_localization_reads_each_tau_kappa0(tmp_path):
    # under the lifted cos potential kappa0 grows with tau, so each tau's
    # distance ratios are held to that tau's own kappa0
    cfg = write_config(tmp_path / "c.yaml", {
        "lagrangian": {"key": "mechanical", "dim": 1, "potential": "cos",
                       "coeff": -1.0},
        "lambda": 1.0,
        "grid": {"box": [[-2.0, 2.0]], "num": [81], "boundary": "constant"},
        "field": {"kind": "vee", "scale": 1.0},
        "taus": [0.1, 0.4],
    })
    out = tmp_path / "out"
    assert main(["operators", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    kappa0 = report["kappa0"]
    assert list(kappa0) == ["0.1", "0.4"]
    assert kappa0["0.1"] < kappa0["0.4"]
    assert report["localized"] is True


def test_discounted_constant_case(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {
        "lagrangian": {"key": "mechanical", "dim": 1, "potential": "cos",
                       "coeff": 0.0, "shift": -0.8},
        "lambda": 2.0,
        "grid": {"box": [[-1.0, 1.0]], "num": [41],
                 "boundary": "constant"},
        "dt": 0.1,
    })
    out = tmp_path / "out"
    assert main(["discounted", "--config", cfg, "--out", str(out)]) == EXIT_OK
    u = np.loadtxt(out / "u.csv", delimiter=",", skiprows=1)
    assert np.abs(u[:, 1] - 0.4).max() <= 1e-8
    report = json.loads((out / "report.json").read_text())
    assert report["solution"]["residual"] <= report["solution"]["residual_tol"]


def test_lambda_sweep_emits_qtable(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {
        "lagrangian": {"key": "mechanical", "dim": 1, "potential": "cos",
                       "coeff": 0.0, "shift": -0.8},
        "lambda_grid": [2.0, 1.0],
        "points": [[0.0]],
        "grid": {"box": [[-1.0, 1.0]], "num": [41],
                 "boundary": "constant"},
        "dt": 0.1,
        "analytic_qx": [[0.0]],
    })
    out = tmp_path / "out"
    assert main(["lambda-sweep", "--config", cfg, "--out", str(out)]) \
        == EXIT_OK
    table = json.loads((out / "qtable.json").read_text())
    assert table["lambda_grid"] == [2.0, 1.0]
    assert max(table["max_deviation_per_lambda"]) <= 1e-8


def test_propcheck_duplicate_labels_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {
        "lagrangians": [{"key": "free", "dim": 1}, {"key": "free", "dim": 1}],
        "T_grid": [0.1],
        "n_samples": 8,
    })
    out = tmp_path / "out"
    assert main(["propcheck", "--config", cfg, "--out", str(out)]) \
        == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert "label" in manifest["error_message"]


def test_propcheck_reports_the_tonelli_certificates(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.yaml", {
        "lagrangians": [{"key": "free", "dim": 1},
                        {"key": "mechanical", "dim": 1, "potential": "cos",
                         "label": "cos"}],
        "lambda": 1.0,
        "T_grid": [0.1],
        "time_pairs": [[0.0, 0.2]],
        "n_samples": 8,
    })
    out = tmp_path / "out"
    assert main(["propcheck", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for label, key in (("free", "free"), ("cos", "mechanical")):
        rep = json.loads((out / f"probe_tonelli_{label}.json").read_text())
        # the configured L, not its discount lift, whose (L3) fails
        assert rep["name"] == f"verify_tonelli({key})"
        assert rep["passed"] and rep["samples"] == 10000
    report = json.loads((out / "report.json").read_text())
    assert report["probes"]["cos"]["tonelli"] == {"passed": True,
                                                  "violations": 0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert "probe_tonelli_cos.json" in manifest["artifacts"]

    def decertified(L):
        rep = ProbeReport(name="decertified")
        rep.record_slack(-1.0, check="growth_lower")
        return rep
    monkeypatch.setattr(hjlax.cli, "verify_tonelli", decertified)
    assert main(["propcheck", "--config", cfg, "--out", str(out)]) \
        == EXIT_VIOLATION
    report = json.loads((out / "report.json").read_text())
    assert report["probes"]["free"]["tonelli"] == {"passed": False,
                                                   "violations": 1}
    assert not report["passed"]


def test_config_helpers():
    assert _parse_override("a.b=3") == ("a.b", 3)
    assert _parse_override("k=[1, 2]") == ("k", [1, 2])
    with pytest.raises(ConfigError):
        _parse_override("novalue")
    tree = {"a": {"b": 1}}
    _set_dotted(tree, "a.c.d", 2.5)
    assert tree == {"a": {"b": 1, "c": {"d": 2.5}}}

    grid = _t_grid({"start": 0.2, "count": 3, "factor": 2.0})
    assert np.allclose(grid, [0.2, 0.1, 0.05])
    assert np.allclose(_t_grid([0.3, 0.1]), [0.3, 0.1])
    with pytest.raises(ConfigError):
        _t_grid("bad")
