"""Per-layer spans and counters for the traced benchmark run.

The tracer works from outside the package: it replaces each layer's
functions with timing wrappers at every module attribute that binds them
(``hjlax.laxoleinik.minimize_action`` as well as ``hjlax.action`` and the
package root), wraps the ``GridFunction`` methods on the class, and wraps
the callables of the Lagrangians and Hamiltonians a request uses through
``dataclasses.replace``.  Uninstalling puts every original binding back.

A span is one wrapped call.  A layer's busy time is the time at least one
of its spans is open; its self time is the part of that during which none
of its callees' spans (of any layer) is open.  Calls of a layer count
entries from outside the layer only, so a public function calling another
one of the same layer counts once.  Scipy solvers are wrapped at the
bindings the layers use and are spans of the calling layer, so their own
cost stays in that layer's self time while the Lagrangian evaluations they
trigger do not.  While ``paused`` is set (the runner sets it during the
oracle checks) every wrapper calls straight through and records nothing;
``exclude`` takes the speed probe's ticks out of the spans open during them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("gridfn", "lagrangian", "action", "laxoleinik", "discounted",
          "regularity", "lasrylions")

# private functions wrapped because a counter lives there
_PRIVATE = {
    "laxoleinik": ("_apply_operator", "_apply_pointwise", "_grid_candidates"),
    "discounted": ("_step",),
}
# scipy solvers, wrapped only at the bindings of the named layer
_SCIPY = {
    "action": ("solve_bvp", "minimize"),
    "laxoleinik": ("minimize_scalar", "minimize"),
}
_GRID_METHODS = ("interp", "nodes", "lipschitz", "interp_error_estimate",
                 "with_values")
_L_FIELDS = ("eval", "grad_t", "grad_x", "grad_v", "hess_vv")
_H_FIELDS = ("eval", "grad_p")
_KERNEL_FIELDS = ("value", "grad_x", "grad_y")


class Tracer:
    """Spans and counters of one traced pass; install() ... uninstall()."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # [layer, key, start, child_s]
        self.depth: Counter = Counter()      # open spans per layer and key
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.warnings: Counter = Counter()   # RuntimeWarnings per layer
        self.paused = False                  # wrappers pass calls straight through
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def top_layer(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, fn, layer: str, key: str, before=None, after=None):
        """Timing wrapper; before(args, kwargs) runs outside the span,
        after(out, args, kwargs) may return a replacement result."""
        tracer = self
        from hjlax.errors import HJLaxError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            depth = tracer.depth
            if depth[layer] == 0:
                tracer.counts[layer + ".calls"] += 1
            tracer.counts[key] += 1
            frame = [layer, key, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            depth[layer] += 1
            depth[key] += 1
            try:
                out = fn(*args, **kwargs)
            except HJLaxError:
                tracer.counts[key + ".failures"] += 1
                raise
            finally:
                dur = time.perf_counter() - frame[2]
                tracer.stack.pop()
                depth[layer] -= 1
                depth[key] -= 1
                own = dur - frame[3]
                tracer.self_s[layer] += own
                tracer.self_s[key] += own
                if depth[layer] == 0:
                    tracer.busy[layer] += dur
                if depth[key] == 0:
                    tracer.busy[key] += dur
                if tracer.stack:
                    tracer.stack[-1][3] += dur
            return out if after is None else after(out, args, kwargs)

        return traced

    def exclude(self, seconds: float) -> None:
        """Leave the last `seconds` out of every open span (time spent by
        the speed probe while they were open)."""
        for frame in self.stack:
            frame[2] += seconds

    def on_warning(self, category) -> None:
        """Attribute a warning to the innermost open layer."""
        if issubclass(category, RuntimeWarning):
            self.warnings[self.top_layer() or "outside"] += 1

    # -- wrapped objects ----------------------------------------------------

    def lagrangian(self, L):
        """Copy of a TonelliLagrangian whose callables are traced."""
        d = L.dim
        fields = {f: self._callable(getattr(L, f), n)
                  for f, n in zip(_L_FIELDS, (1, 1, d, d, d * d))}
        if L.kernel is not None:
            fields["kernel"] = dataclasses.replace(L.kernel, **{
                f: self._callable(getattr(L.kernel, f), n)
                for f, n in zip(_KERNEL_FIELDS, (1, d, d))})
        return dataclasses.replace(L, **fields)

    def hamiltonian(self, H):
        return dataclasses.replace(H, eval=self._callable(H.eval, 1),
                                   grad_p=self._callable(H.grad_p, H.dim))

    def _callable(self, fn, per_point: int):
        # one point yields per_point output numbers (1, dim or dim^2);
        # only calls from outside the layer count
        def after(out, args, kwargs):
            if not self.depth["lagrangian"]:
                self.counts["lagrangian.points"] += np.size(out) // per_point
            return out
        return self.wrap(fn, "lagrangian", "lagrangian.callable", after=after)

    def traced_copy(self, value):
        """value with traced callables if it is a Lagrangian or Hamiltonian."""
        from hjlax.lagrangian import Hamiltonian, TonelliLagrangian
        if isinstance(value, TonelliLagrangian):
            return self.lagrangian(value)
        if isinstance(value, Hamiltonian):
            return self.hamiltonian(value)
        return value

    def wrap_fixtures(self, fixtures: dict) -> dict:
        """Traced copies of the Lagrangians and Hamiltonians in fixtures."""
        return {name: self.traced_copy(value) for name, value in fixtures.items()}

    # -- install / uninstall ------------------------------------------------

    def _hooks(self, layer: str, name: str):
        """Counters that need a call's arguments or result."""
        c = self.counts

        def add(counter, fn):
            def after(out, args, kwargs):
                c[counter] += fn(out, args, kwargs)
                return out
            return after

        if layer == "lagrangian":
            return None, lambda out, args, kwargs: self.traced_copy(out)
        if layer == "gridfn" and name == "interp":
            return None, add("gridfn.interp_points", lambda o, a, k:
                             np.asarray(a[1]).size // a[0].dim)
        if layer == "action" and name == "minimize_action":
            def before(args, kwargs):
                if self.top_layer() == "laxoleinik":
                    c["laxoleinik.certify_solves"] += 1
            return before, add("action.starts", lambda o, a, k: o.n_starts)
        if layer == "action" and name == "action_values_batch":
            return None, add("action.batch_arcs", lambda o, a, k: len(o))
        if layer == "action" and name == "minimize":
            return None, add("action.lbfgs_iters", lambda o, a, k: o.nit)
        if layer == "laxoleinik" and name in ("minimize", "minimize_scalar"):
            return None, add("laxoleinik.polish_evals", lambda o, a, k: o.nfev)
        if layer == "laxoleinik" and name == "_grid_candidates":
            return None, add("laxoleinik.candidates", lambda o, a, k: len(o[0]))
        if layer == "laxoleinik" and name == "_apply_operator":
            def after(out, args, kwargs):
                c["laxoleinik.nodes"] += len(out.records)
                c["laxoleinik.ball_expansions"] += sum(
                    "ball expanded" in note for note in out.notes)
                return out
            return None, after
        return None, None

    def _bind_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import hjlax
        import hjlax.gridfn
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hjlax" or n.startswith("hjlax."))]
        for layer in LAYERS:
            mod = sys.modules[f"hjlax.{layer}"]
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += list(_PRIVATE.get(layer, ()))
            for name in names:
                fn = getattr(mod, name)
                before, after = self._hooks(layer, name)
                wrapper = self.wrap(fn, layer, f"{layer}.{name}", before, after)
                self._bind_everywhere(fn, wrapper, modules)
            for name in _SCIPY.get(layer, ()):
                fn = getattr(mod, name)
                before, after = self._hooks(layer, name)
                self._undo.append((mod, name, fn))
                setattr(mod, name, self.wrap(fn, layer, f"{layer}.{name}",
                                             before, after))
        cls = hjlax.gridfn.GridFunction
        for name in _GRID_METHODS:
            fn = cls.__dict__[name]
            before, after = self._hooks("gridfn", name)
            self._undo.append((cls, name, fn))
            setattr(cls, name, self.wrap(fn, "gridfn", f"gridfn.{name}",
                                         before, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, by name (units in METRICS)."""
        c, busy, own = self.counts, self.busy, self.self_s

        def ratio(num, den):
            return float(num) / den if den else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = c[f"{layer}.calls"]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
        pointwise = c["laxoleinik._apply_pointwise"]
        sweeps = c["discounted._step"]
        solves = c["action.minimize_action"]
        out.update({
            "gridfn.interp_calls": c["gridfn.interp"],
            "gridfn.interp_points": c["gridfn.interp_points"],
            "gridfn.interp_self_s": own["gridfn.interp"],
            "gridfn.nodes_calls": c["gridfn.nodes"],
            "lagrangian.points": c["lagrangian.points"],
            "action.solves": solves,
            "action.solve_s": busy["action.minimize_action"],
            "action.failures": c["action.minimize_action.failures"],
            "action.batch_calls": c["action.action_values_batch"],
            "action.batch_arcs": c["action.batch_arcs"],
            "action.batch_s": busy["action.action_values_batch"],
            "action.starts": c["action.starts"],
            "action.bvp_calls": c["action.solve_bvp"],
            "action.bvp_s": busy["action.solve_bvp"],
            "action.bvp_per_solve": ratio(c["action.solve_bvp"], solves),
            "action.lbfgs_calls": c["action.minimize"],
            "action.lbfgs_iters": c["action.lbfgs_iters"],
            "action.lbfgs_s": busy["action.minimize"],
            "laxoleinik.nodes": c["laxoleinik.nodes"],
            "laxoleinik.s_per_node": ratio(busy["laxoleinik"],
                                           c["laxoleinik.nodes"]),
            "laxoleinik.candidates_per_node": ratio(
                c["laxoleinik.candidates"], pointwise),
            "laxoleinik.polish_calls": (c["laxoleinik.minimize"]
                                        + c["laxoleinik.minimize_scalar"]),
            "laxoleinik.polish_evals": c["laxoleinik.polish_evals"],
            "laxoleinik.ball_expansions": c["laxoleinik.ball_expansions"],
            "laxoleinik.certify_solves": c["laxoleinik.certify_solves"],
            "discounted.solves": c["discounted.solve_discounted"],
            "discounted.sweeps": sweeps,
            "discounted.s_per_sweep": ratio(busy["discounted._step"], sweeps),
            "discounted.failures": c["discounted.solve_discounted.failures"],
            "regularity.classification_calls": c["regularity.grid_classification"],
            "regularity.runtime_warnings": self.warnings["regularity"],
            "lasrylions.scales": c["lasrylions.intrinsic_regularize"],
        })
        return out
