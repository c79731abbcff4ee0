"""Experiment runner: config handling, artifacts, exit codes, determinism."""
import json

import numpy as np
import pytest
import yaml

from hjlax.cli import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, EXIT_VIOLATION,
                       Workspace, _parse_override, _set_dotted, _t_grid, main)
from hjlax.errors import ConfigError
from hjlax.report import ProbeReport


def write_config(path, tree):
    path.write_text(yaml.safe_dump(tree))
    return str(path)


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
                                                               capsys):
    cfg = write_config(tmp_path / "c.yaml", FREE_FUNDAMENTAL)
    out = tmp_path / "out"
    code = main(["fundamental", "--config", cfg, "--out", str(out),
                 "--tol", "n_samples=abc"])
    assert code == EXIT_INTERNAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error_class"] == "ValueError"
    assert manifest["exit_code"] == EXIT_INTERNAL
    assert "Traceback" in capsys.readouterr().err


def test_json_outputs_are_strict(tmp_path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    empty = tmp_path / "empty.json"
    ProbeReport(name="empty").to_json(str(empty))
    blob = json.loads(empty.read_text(), parse_constant=refuse)
    assert blob["worst_slack"] is None

    ws = Workspace(str(tmp_path / "ws"))
    ws.write_json("r.json", {"bound": np.inf, "table": np.array([1.0, np.nan]),
                             "count": np.int64(3), "flag": np.bool_(True)})
    blob = json.loads((tmp_path / "ws" / "r.json").read_text(),
                      parse_constant=refuse)
    assert blob == {"bound": None, "table": [1.0, None], "count": 3,
                    "flag": True}


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
