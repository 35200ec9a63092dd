"""Spans around hsnl's public calls, recorded from outside the library.

install() replaces each public function of the seven hsnl modules with a
wrapper that records a span (name, start, end, parent, note).  hsnl calls
across modules through module attributes (`_kern.eval`, `_fem.assemble`,
`sla.cho_factor`), so replacing the attribute also catches those calls.

Blind spots, left for tracing inside the program:
- names bound by `from ... import` at import time: `control` holds its own
  `parallel_map` and `_l2_error` from `experiments`, `fem1d` holds
  `_nu_sign` and `operators` holds `_symbol_value` from `symbols`;
- private helpers (`_half_line_symbol`, `_hat_gradients`, `_cmd_*`, ...),
  whose time lands in the self time of the nearest public caller;
- `kernels.radial_integral`, which is counted through its `cache_info()`
  rather than wrapped, because it runs up to about a million times a job.

Spans stay in memory until the job ends; metrics() reduces them to the
additive components that the benchmark sums over a workload's job list.
"""

import functools
import inspect
import json
import threading
import time

MODULES = ("kernels", "symbols", "operators", "fem1d", "experiments",
           "control", "cli")
NOT_WRAPPED = {"kernels.radial_integral"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, note=None, root=None):
        stack = self._stack()
        # [name, start, end, parent span, note]; list.append is atomic
        # under the interpreter lock, so worker threads need no lock here
        span = [name, 0.0, 0.0, stack[-1] if stack else root, None]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if note is not None:
            span[4] = note(args, kwargs, out)
        return out

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return wrapper

    def wrap_parallel_map(self, fn):
        """parallel_map whose items become child spans, also in workers."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(item_fn, items):
            items = list(items)

            def run():
                root = tracer._stack()[-1]

                def item(x):
                    return tracer.call("experiments.parallel_map.item",
                                       item_fn, (x,), {}, root=root)
                return fn(item, items)

            return tracer.call("experiments.parallel_map", run, (), {},
                               note=lambda a, k, o: {"items": len(items)})
        return wrapper

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2],
                 index[id(s[3])] if s[3] is not None else -1]
                for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": rows}, handle)


class _Proxy:
    """Module stand-in that traces some attributes and forwards the rest."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _notes():
    import numpy as np

    def assemble(args, kwargs, out):
        mesh = kwargs["mesh"] if "mesh" in kwargs else args[4]
        return {"dofs": mesh.n_cells - 1,
                "bytes": (out.stiffness.nbytes + out.mass.nbytes
                          + out.load.nbytes)}

    return {
        "kernels.eval": lambda a, k, o: {
            "points": int(np.size(a[1] if len(a) > 1 else k["r"]))},
        "symbols.symbol": lambda a, k, o: {
            "d": (a[0] if a else k["kernel"]).d},
        "fem1d.assemble": assemble,
        "control.solve_optimal": lambda a, k, o: {"iterations":
                                                  o.iterations},
    }


def install(hsnl):
    """Wrap hsnl's public functions in place; returns the Tracer."""
    tracer = Tracer()
    notes = _notes()
    for mod_name in MODULES:
        module = getattr(hsnl, mod_name)
        for attr, fn in list(vars(module).items()):
            name = "%s.%s" % (mod_name, attr)
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in NOT_WRAPPED):
                continue
            if name == "experiments.parallel_map":
                wrapped = tracer.wrap_parallel_map(fn)
            else:
                wrapped = tracer.wrap(name, fn, notes.get(name))
            setattr(module, attr, wrapped)
    for mod_name in ("fem1d", "control"):
        module = getattr(hsnl, mod_name)
        sla = module.sla
        module.sla = _Proxy(sla, {
            "cho_factor": tracer.wrap("fem1d.cho_factor", sla.cho_factor),
            "cho_solve": tracer.wrap("fem1d.cho_solve", sla.cho_solve)})
    return tracer


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def metrics(spans):
    """Additive per-layer components of one job; ratios come later."""
    children = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(id(s[3]), []).append((s[1], s[2]))
    calls, busy, self_s = {}, {}, {}
    for s in spans:
        name, dur = s[0], s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - _covered(
            children.get(id(s), ()), s[1], s[2])
        # busy time counts only the outermost span of a name
        parent = s[3]
        while parent is not None and parent[0] != name:
            parent = parent[3]
        if parent is None:
            busy[name] = busy.get(name, 0.0) + dur

    def under(name, ancestor):
        count = 0
        for s in spans:
            if s[0] != name:
                continue
            parent = s[3]
            while parent is not None and parent[0] != ancestor:
                parent = parent[3]
            count += parent is not None
        return count

    def note_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    def symbol_spans(d):
        return [s for s in spans if s[0] == "symbols.symbol" and s[4]
                and s[4]["d"] == d]

    d1, d2 = symbol_spans(1), symbol_spans(2)
    c = calls.get
    b = busy.get
    own = self_s.get
    return {
        "kernels.eval.calls": c("kernels.eval", 0),
        "kernels.eval.points": note_sum("kernels.eval", "points"),
        "kernels.eval.self_s": own("kernels.eval", 0.0),
        "kernels.radial_antideriv.calls": c("kernels.radial_antideriv", 0),
        "kernels.support.calls": c("kernels.support", 0),
        "kernels.breakpoints.calls": c("kernels.breakpoints", 0),
        "symbols.symbol.calls": c("symbols.symbol", 0),
        "symbols.symbol.d1_calls": len(d1),
        "symbols.symbol.d1_s": sum(s[2] - s[1] for s in d1),
        "symbols.symbol.d2_calls": len(d2),
        "symbols.symbol.d2_s": sum(s[2] - s[1] for s in d2),
        "symbols.symbol.self_s": own("symbols.symbol", 0.0),
        "symbols.symbol_eta.self_s": own("symbols.symbol_eta", 0.0),
        "symbols.check_linear_bound.busy_s":
            b("symbols.check_linear_bound", 0.0),
        "symbols.check_lower_bound_small_xi.busy_s":
            b("symbols.check_lower_bound_small_xi", 0.0),
        "symbols.check_lower_bound_large_xi.busy_s":
            b("symbols.check_lower_bound_large_xi", 0.0),
        "operators.localization_study.busy_s":
            b("operators.localization_study", 0.0),
        "operators.gradient_spectral.busy_s":
            b("operators.gradient_spectral", 0.0),
        "operators.gradient_spectral.self_s":
            own("operators.gradient_spectral", 0.0),
        "fem1d.assemble.calls": c("fem1d.assemble", 0),
        "fem1d.assemble.busy_s": b("fem1d.assemble", 0.0),
        "fem1d.assemble.self_s": own("fem1d.assemble", 0.0),
        "fem1d.assemble.dofs": note_sum("fem1d.assemble", "dofs"),
        "fem1d.assemble.matrix_bytes": note_sum("fem1d.assemble", "bytes"),
        "fem1d.assemble_local.calls": c("fem1d.assemble_local", 0),
        "fem1d.assemble_local.busy_s": b("fem1d.assemble_local", 0.0),
        "fem1d.cho_factor.calls": c("fem1d.cho_factor", 0),
        "fem1d.cho_factor.busy_s": b("fem1d.cho_factor", 0.0),
        "fem1d.cho_solve.calls": c("fem1d.cho_solve", 0),
        "fem1d.cho_solve.busy_s": b("fem1d.cho_solve", 0.0),
        "fem1d.solve_state.busy_s": b("fem1d.solve_state", 0.0),
        "fem1d.smallest_eigenvalue.busy_s":
            b("fem1d.smallest_eigenvalue", 0.0),
        "fem1d.smallest_eigenvalue.iterations":
            under("fem1d.cho_solve", "fem1d.smallest_eigenvalue"),
        "experiments.poincare_sweep.busy_s":
            b("experiments.poincare_sweep", 0.0),
        "experiments.ac_nonlocal_sweep.busy_s":
            b("experiments.ac_nonlocal_sweep", 0.0),
        "experiments.parallel_map.items":
            note_sum("experiments.parallel_map", "items"),
        "experiments.parallel_map.busy_s":
            b("experiments.parallel_map", 0.0),
        "experiments.parallel_map.item_s":
            b("experiments.parallel_map.item", 0.0),
        "control.solve_optimal.busy_s": b("control.solve_optimal", 0.0),
        "control.solve_optimal.self_s": own("control.solve_optimal", 0.0),
        "control.solve_optimal.iterations":
            note_sum("control.solve_optimal", "iterations"),
        "control.state_solves": under("fem1d.cho_solve",
                                      "control.solve_optimal"),
        "cli.run.busy_s": b("cli.run", 0.0),
        "cli.self_s": own("cli.run", 0.0),
    }
