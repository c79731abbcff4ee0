"""The traced benchmark wraps names by lookup; each must still exist."""

import dataclasses
import importlib.util
from pathlib import Path

import hjlax as hj
import hjlax.action
import hjlax.discounted
import hjlax.laxoleinik

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_the_tracer_looks():
    spans = _spans()
    for table in (spans._SCIPY, spans._PRIVATE):
        for layer, names in table.items():
            module = getattr(hj, layer)
            for name in names:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name in spans._GRID_METHODS:
        assert name in vars(hj.GridFunction), name
    fields = {f.name for f in dataclasses.fields(hj.TonelliLagrangian)}
    assert set(spans._L_FIELDS) <= fields
