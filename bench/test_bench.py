"""Tests of the benchmark harness itself, on shrunken workloads.

    python3 -m pytest -q bench/test_bench.py

Tracing and the speed probe must not change a single bit of any result,
every binding the tracer replaces must be restored afterwards, the tracer's
counts must agree with what the solvers report, the oracle checks must
catch what they are meant to catch, and the metric names and units the
runner prints must be the ones BENCHMARK.json declares.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hjlax as hj  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Arcs, Bellman, Moreau, Sweep  # noqa: E402


def small(workload):
    """The workload with its request list shrunk to test size."""
    if isinstance(workload, Arcs):
        workload.per_kind = 1
    elif isinstance(workload, Moreau):
        workload.num1, workload.num2, workload.kink_offsets = 41, 5, 5
    elif isinstance(workload, Sweep):
        workload.num = 21
    else:
        workload.num1d, workload.num2d = 16, 5
    return workload


WORKLOADS = [small(w) for w in (Arcs(), Moreau(), Sweep(), Bellman())]


def setup(wl, seed=0):
    reqs = wl.requests(random.Random(seed))
    return reqs, wl.fixtures(hj, reqs)


def digest(obj):
    """Everything numeric in a result, as exact bytes."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, digest(getattr(obj, f.name)))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(digest(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, digest(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (float, int, str, bool, type(None), np.generic)):
        return repr(obj)
    return type(obj).__name__


def results(wl, fx, reqs):
    state = {}
    return [digest(wl.run(hj, fx, req, state)) for req in reqs]


def bindings():
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "hjlax" or n.startswith("hjlax."))]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("GridFunction", k): v
                 for k, v in vars(hj.GridFunction).items()})
    return snap


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.name)
def test_tracing_is_bit_identical_and_restored(wl):
    reqs, fx = setup(wl)
    plain = results(wl, fx, reqs)
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert hj.laxoleinik.minimize_action is hj.minimize_action
        assert hj.minimize_action is not before[("hjlax.action",
                                                 "minimize_action")]
        # ticks every 50 ms, so the probe interrupts the solvers often
        with speed.SpeedProbe(interval=0.05) as probe:
            probe.on_tick = tracer.exclude
            traced = results(wl, tracer.wrap_fixtures(fx), reqs)
    finally:
        tracer.uninstall()
    assert probe.ticks
    after = bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert traced == plain


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.name)
def test_traced_counts_match_the_solvers(wl):
    reqs, fx = setup(wl)
    result = run.traced_pass(hj, wl, fx, reqs)
    # the shrunken grids may miss oracle tolerances pinned for full size;
    # only the tracer's own consistency checks matter here
    assert [f for f in result["failures"] if f.startswith("trace:")] == []
    layers = result["layers"]
    if wl.name == "arcs":
        assert layers["action.solves"] == len(reqs)
        assert layers["laxoleinik.calls"] == 0
    for layer in ("gridfn", "lagrangian", "action", "laxoleinik",
                  "discounted", "regularity", "lasrylions"):
        assert 0.0 <= layers[f"{layer}.self_s"] <= layers[f"{layer}.busy_s"] + 1e-9


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.paused = True
        u = hj.GridSpec(box=[(-1.0, 1.0)], num=[5]).build(lambda p: p[..., 0])
        L = tracer.lagrangian(hj.catalog("free", dim=1))
        hj.lax_plus(L, u, 0.0, 0.2, points=np.array([[0.0]]))
    finally:
        tracer.uninstall()
    assert not tracer.counts and not tracer.busy


def test_rescaled_leaves_ticks_out_and_follows_local_speed():
    r = speed.REFERENCE_S
    probe = speed.SpeedProbe()
    # the machine runs at half speed: every tick takes twice REFERENCE_S
    probe.ticks = [(k, k + 2 * r) for k in (1.0, 2.0, 3.0)]
    assert probe.rescaled(0.5, 3.5) == pytest.approx((3.0 - 6 * r) / 2)
    assert probe.rescaled(1.5, 1.9) == pytest.approx(0.2)
    # one slow tick among normal ones does not move the lower quartile
    probe.ticks = [(1.0, 1.0 + r), (1.5, 1.5 + r), (2.0, 2.0 + 5 * r)]
    assert probe.rescaled(1.1, 1.4) == pytest.approx(0.3)
    assert speed.SpeedProbe().rescaled(0.5, 3.5) == 3.0


def test_euler_lagrange_check_rejects_a_non_extremal_arc():
    wl = Arcs()
    L = hj.catalog("mechanical", dim=1, potential="cos", coeff=1.0)
    x, y = np.array([-0.5]), np.array([0.7])
    fs = hj.minimize_action(L, 0.0, 0.8, x, y)
    assert workloads._integrated_el_defect(L, fs.curve) < 1e-10
    times = fs.curve.times
    frac = ((times - times[0]) / (times[-1] - times[0]))[:, None]
    straight = hj.action.Curve(times, x + frac * (y - x),
                               np.broadcast_to((y - x) / 0.8, (len(times), 1)))
    assert workloads._integrated_el_defect(L, straight) > 1e-2
    req = {"kind": "cos", "L": "cos", "s": 0.0, "t": 0.8,
           "x": x.tolist(), "y": y.tolist()}
    fx = {"cos": L}
    assert wl.check(hj, fx, req, fs, {}) <= 1.0
    with pytest.raises(workloads.CheckFailed):
        wl.check(hj, fx, req, dataclasses.replace(fs, curve=straight), {})


def test_requests_depend_only_on_the_seed():
    for wl in WORKLOADS:
        a = wl.requests(random.Random(3))
        assert a == wl.requests(random.Random(3))
        assert json.loads(json.dumps(a)) == a
        assert a != wl.requests(random.Random(4))
    hard = Arcs().hard_requests(random.Random("3-hard"))
    assert hard == Arcs().hard_requests(random.Random("3-hard"))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = list(Tracer().metrics()) + ["action.hard_arcs_failed",
                                        "trace.overhead_s",
                                        "checks.tol_used_max"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in WORKLOADS] == list(workloads.WORKLOADS)
