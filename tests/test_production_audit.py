"""scripts/production_audit.py's line tracer on one catalog call."""
import importlib.util
from pathlib import Path

import hjlax as hj

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "production_audit.py"


def load_audit():
    spec = importlib.util.spec_from_file_location("production_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_lists_the_functions_a_call_never_enters():
    audit = load_audit()
    with audit.LineTracer() as tracer:
        hj.catalog("free", dim=1)
    missed = [name for name, _ in tracer.report()["lagrangian"]["never_entered"]]
    assert "legendre_transform" in missed
    assert "free_lagrangian" not in missed
