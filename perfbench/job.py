"""Run one benchmark job in a fresh interpreter and report it as JSON.

The parent starts this script once per job, so every job starts cold:
new interpreter, empty `kernels.radial_integral` cache.  hsnl is imported
first thing, and the moment the import ends is reported so the parent can
split set-up (process start to `import hsnl` done) from the job itself.
The job spec arrives as JSON on stdin; one JSON line goes to stdout.
"""

import time

import hsnl

IMPORTED = time.monotonic()

import contextlib  # noqa: E402  (imports after the timed hsnl import)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _control_library(np, params):
    kern = hsnl.kernels
    mesh = hsnl.fem1d.Mesh1D(1.0, params["n"])
    problem = hsnl.control.ControlProblem(
        mesh=mesh, kernel=kern.rescaled(kern.constant_ball(),
                                        params["delta"]),
        A=lambda x: 1.0 + np.asarray(x, dtype=float),
        lam_reg=params["lam"], u_des=lambda x: np.sin(np.pi * x))
    triple = hsnl.control.solve_optimal(problem, tol=params["tol"],
                                        max_iter=params["max_iter"])
    outputs = {"triple": {"u": list(triple.u), "g": list(triple.g),
                          "objective": [triple.objective_value]}}
    return (problem, triple), outputs


def _gradient_spectral(np, params):
    n = params["n"]
    x = np.arange(n) / n
    values = (np.sin(2.0 * np.pi * x)[:, None]
              * np.cos(2.0 * np.pi * x)[None, :]
              + 0.5 * np.cos(4.0 * np.pi * x)[:, None])
    field = hsnl.operators.SampledField((1.0, 1.0), values)
    kernel = hsnl.kernels.rescaled(hsnl.kernels.constant_ball(2),
                                   params["delta"])
    out = hsnl.operators.gradient_spectral(kernel, np.array([1.0, 0.0]),
                                           field)
    grad = out.values.reshape(-1, 2)
    return out, {"gradient": {"g_1": list(grad[:, 0]),
                              "g_2": list(grad[:, 1])}}


LIBRARY = {"control_library": _control_library,
           "gradient_spectral": _gradient_spectral}


def _run(spec):
    """Execute the job; returns (summary, library result, outputs)."""
    import numpy as np
    if "argv" in spec:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hsnl.cli.run(spec["argv"])
        if code != 0:
            raise RuntimeError("hsnl %s exited with code %d"
                               % (spec["argv"][0], code))
        return buf.getvalue().strip(), None, None
    result, outputs = LIBRARY[spec["library"]](np, spec["params"])
    return "", result, outputs


def _cache_counts():
    info = hsnl.kernels.radial_integral.cache_info()
    return info.hits, info.misses, info.currsize


def main():
    spec = json.load(sys.stdin)
    src = os.path.realpath(os.path.join(HERE, "..", "src"))
    if not os.path.realpath(hsnl.__file__).startswith(src + os.sep):
        raise SystemExit("hsnl was imported from %s, not from %s"
                         % (hsnl.__file__, src))
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.install(hsnl)
    hits0, misses0, size0 = _cache_counts()
    report = {"t_imported": IMPORTED, "ok": False, "errors": []}
    t0 = time.perf_counter()
    try:
        summary, result, outputs = _run(spec)
    except Exception as exc:  # the job failed; report it, do not crash
        report["job_s"] = time.perf_counter() - t0
        report["errors"].append("%s: %s" % (type(exc).__name__, exc))
        print(json.dumps(report))
        return
    report["job_s"] = time.perf_counter() - t0
    report["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    artifacts = sorted(os.listdir("."))
    if tracer is not None:
        spans = list(tracer.spans)
        hits, misses, size = _cache_counts()
        layers = tracing.metrics(spans)
        layers.update({
            "kernels.radial_integral.hits": hits - hits0,
            "kernels.radial_integral.misses": misses - misses0,
            "kernels.radial_integral.evictions":
                (misses - misses0) - (size - size0),
            "cli.artifact_bytes": sum(os.path.getsize(a)
                                      for a in artifacts)})
        report["layers"] = layers
        tracer.dump(spec["spans"])
    if outputs is None:
        outputs = {a: checks.read_csv(a) for a in artifacts}
    ref = None
    if not spec.get("record"):
        with open(os.path.join(HERE, "reference.json")) as handle:
            ref = json.load(handle).get(spec["name"])
    ctx = {"summary": summary, "outputs": outputs, "result": result,
           "check": spec["check"], "hsnl": hsnl, "reference": ref}
    errors = checks.finite(outputs)
    errors += checks.semantic(spec["check"]["kind"], ctx)
    found = checks.digest(outputs)
    if spec.get("record"):
        report["digest"] = found
        if spec["check"]["kind"] == "symbol_d2":
            report["imag_norms"] = checks.imag_norms(outputs["symbol.csv"])
    elif ref is not None and ref["args"] == spec["args"]:
        errors += checks.compare(found, ref["digest"])
        report["reference_checked"] = True
    report["errors"] = errors
    report["ok"] = not errors
    print(json.dumps(report))


if __name__ == "__main__":
    main()
