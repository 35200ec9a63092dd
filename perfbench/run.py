"""Benchmark for hsnl: cold CLI and library jobs in a closed loop.

    python3 perfbench/run.py --workload galerkin|spectral|control|all \
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

One client runs the workload's jobs one after another, each in a fresh
interpreter (perfbench/job.py), the way a researcher launches an `hsnl`
job and waits for its CSV.  The seed fixes the job order and, in
`spectral`, the directions of the d=2 frequencies; hsnl only sees the
generated arguments.  After one full pass over the job list the loop keeps
starting jobs while they fit in --seconds.  Times are scaled to a reference
machine speed measured during the run (see calibrate()).

--trace 0 prints the end-to-end metrics, --trace 1 runs every job both
untraced and traced and prints the per-layer metrics.  The last line of
stdout is one JSON object; the lines before it are a readable table and
the environment stamp.  See perfbench/README.md for what each workload and
metric is for.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
JOB_TIMEOUT_S = 50
# no job starts after this point, so a run ends well within 180 s
LAST_START_S = 120
BLAS_THREADS = 1
SWEEP_THREADS = 2
# The machine the benchmark runs on may change speed between and within
# runs; a cold import of the third-party modules hsnl imports at start-up
# slows down with it.  One such import is timed before every job, and the
# run's times are divided by their median over REFERENCE_CALIBRATION_S.
CALIBRATION = "import time, numpy, scipy.linalg; print(time.monotonic())"
REFERENCE_CALIBRATION_S = 0.5

CLASSES = ("solve", "poincare", "ac", "control", "bounds", "symbol",
           "localize", "gradient_spectral")


def _cli(name, cls, argv, check=None):
    return {"name": name, "class": cls, "argv": argv, "args": argv,
            "check": check or {"kind": "none"}}


def _library(name, cls, params, check=None):
    args = {"library": name, "params": params}
    return {"name": name, "class": cls, "library": name, "params": params,
            "args": args, "check": check or {"kind": "none"}}


def _xis(rng, magnitudes):
    """d=2 frequencies with fixed magnitudes and seeded directions."""
    points = []
    for mag in magnitudes:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        points.append("%.17g:%.17g" % (mag * math.cos(angle),
                                        mag * math.sin(angle)))
    return ",".join(points)


def galerkin(rng):
    return [
        # band 2*delta/h + 3 is about 20% and 4% of n
        _cli("solve_wide", "solve",
             ["solve", "--kernel-delta", "0.1", "--n", "512"]),
        _cli("solve_narrow", "solve",
             ["solve", "--kernel-delta", "0.02", "--n", "512"]),
        _cli("solve_singular", "solve",
             ["solve", "--kernel-family", "riesz_truncated",
              "--kernel-s", "0.5", "--kernel-delta", "0.1", "--n", "256",
              "--nu", "-1"]),
        _cli("poincare", "poincare", ["poincare", "--h", "0.00390625"],
             {"kind": "poincare"}),
        _cli("ac_nonlocal", "ac",
             ["ac", "--mode", "nonlocal", "--hs", "0.0625,0.03125,0.015625",
              "--threads", str(SWEEP_THREADS)], {"kind": "ac"}),
    ]


def spectral(rng):
    ball = ["--kernel-d", "2", "--kernel-family", "constant_ball"]
    riesz = ["--kernel-d", "2", "--kernel-family", "riesz_truncated",
             "--kernel-s", "0.5"]
    jobs = [
        _cli("symbol_d1", "symbol",
             ["symbol", "--kernel-family", "constant_ball"],
             {"kind": "symbol_closed_form"}),
        _cli("symbol_d2_ball", "symbol",
             ["symbol"] + ball + ["--xis", _xis(rng, (0.5, 5, 50, 200))],
             {"kind": "symbol_d2", "family": "constant_ball"}),
        _cli("symbol_d2_riesz", "symbol",
             ["symbol"] + riesz + ["--xis", _xis(rng, (0.5, 5, 50, 200))],
             {"kind": "symbol_d2", "family": "riesz_truncated",
              "s": 0.5}),
        # about 313k distinct radial integrals in all: more than the
        # 262144 entries of the radial_integral cache
        _cli("symbol_d2_overflow", "symbol",
             ["symbol"] + ball + ["--xis", _xis(rng, (400, 700))],
             {"kind": "symbol_d2", "family": "constant_ball",
              "adjoint": False}),
        _cli("localize", "localize", ["localize"]),
        _library("gradient_spectral", "gradient_spectral",
                 {"n": 8, "delta": 0.1}),
    ]
    for family, extra in (("constant_ball", []),
                          ("riesz_truncated", ["--kernel-s", "0.5"]),
                          ("fractional_vanishing", ["--kernel-delta", "0.1"]),
                          ("log_regularized", ["--kernel-delta", "0.1"]),
                          ("log_truncated", ["--kernel-delta", "0.1"])):
        jobs.append(_cli("bounds_" + family, "bounds",
                         ["bounds", "--kernel-family", family] + extra,
                         {"kind": "bounds"}))
    return jobs


def control(rng):
    return [
        _cli("control_local", "control",
             ["control", "--delta", "0", "--n", "1024", "--lam", "1e-4"],
             {"kind": "control", "tol": 1e-8}),
        _cli("control_nonlocal", "control",
             ["control", "--n", "128", "--delta", "0.1", "--lam", "1e-5",
              "--max-iter", "5000"], {"kind": "control", "tol": 1e-8}),
        _library("control_library", "control",
                 {"n": 256, "delta": 0.05, "lam": 1e-4, "tol": 1e-8,
                  "max_iter": 5000},
                 {"kind": "control_library", "tol": 1e-8}),
        _cli("solve_varcoef", "solve",
             ["solve", "--coef", "func:one_plus_x", "--kernel-delta", "0.1",
              "--n", "384"]),
    ]


WORKLOADS = {"galerkin": galerkin, "spectral": spectral, "control": control}


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HSNL_THREADS")}
    env.update({"PYTHONPATH": os.path.join(ROOT, "src"),
                "PYTHONHASHSEED": "0",
                "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
                "OMP_NUM_THREADS": str(BLAS_THREADS),
                "MKL_NUM_THREADS": str(BLAS_THREADS)})
    return env


def run_job(workload, job, traced, record=False):
    """One cold job; returns the child's report plus the set-up time."""
    workdir = os.path.join(OUT, "work", workload, job["name"])
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spans_dir = os.path.join(OUT, "spans", workload)
    os.makedirs(spans_dir, exist_ok=True)
    spec = dict(job, trace=traced, record=record,
                spans=os.path.join(spans_dir, job["name"] + ".json"))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "job.py")], cwd=workdir,
        env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "errors": ["timed out"], "job_s": JOB_TIMEOUT_S}
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "job_s": time.monotonic() - t_spawn,
                "errors": ["exit code %d: %s" % (proc.returncode,
                                                 err.strip()[-500:])]}
    report["setup_s"] = report["t_imported"] - t_spawn
    return report


def calibrate():
    """Spawn-to-import time of a cold interpreter importing only hsnl's
    third-party modules: the same work as set-up, minus hsnl itself."""
    os.makedirs(OUT, exist_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], cwd=OUT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - t_spawn


def measure(workload, seed, seconds, traced):
    """Closed loop over the job list.

    Returns the jobs, per-job lists of untraced and traced reports, the
    calibration times and the number of passes.  After the first full pass
    each pass starts with the jobs that have the fewest samples, longest
    first, and a job starts only if its last run fits in the time left.
    """
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng)
    plain = {j["name"]: [] for j in jobs}
    with_trace = {j["name"]: [] for j in jobs}
    calibrations = []
    cost = {}
    start = time.monotonic()
    passes, runs = 0, 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        if passes:
            order.sort(key=lambda j: (len(plain[j["name"]]),
                                      -cost[j["name"]]))
        started = False
        for job in order:
            elapsed = time.monotonic() - start
            if elapsed >= LAST_START_S:
                return jobs, plain, with_trace, calibrations, passes
            if passes and elapsed + cost[job["name"]] > seconds:
                continue
            t_job = time.monotonic()
            calibrations.append(calibrate())
            modes = (False, True) if traced else (False,)
            # alternate which side goes first so drift cancels out
            for mode in (modes if runs % 2 == 0 else modes[::-1]):
                report = run_job(workload, job, mode)
                (with_trace if mode else plain)[job["name"]].append(report)
            cost[job["name"]] = time.monotonic() - t_job
            runs += 1
            started = True
        if passes and not started:
            return jobs, plain, with_trace, calibrations, passes
        passes += 1


def _median_job_s(reports):
    # a job that never ran leaves the run incorrect; it adds nothing here
    return statistics.median(r["job_s"] for r in reports) if reports else 0.0


def _metric(value, unit, n=None):
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def end_to_end(jobs, plain, calibrations):
    """Set-up, wall, per-subcommand timings, memory and failures.

    Times are in reference seconds: measured seconds divided by the
    machine factor, the run's median calibration time over
    REFERENCE_CALIBRATION_S.  The measured values are kept as raw_*.
    """
    reports = [r for name in plain for r in plain[name]]
    setups = [r["setup_s"] for r in reports if "setup_s" in r]
    calibration = statistics.median(calibrations)
    factor = calibration / REFERENCE_CALIBRATION_S
    raw_setup = statistics.median(setups)
    raw_wall = sum(_median_job_s(plain[j["name"]]) for j in jobs)
    samples = min(len(plain[j["name"]]) for j in jobs)
    out = {
        "setup_s": _metric(raw_setup / factor, "s", len(setups)),
        "wall_s": _metric(raw_wall / factor, "s", samples),
        "raw_setup_s": _metric(raw_setup, "s", len(setups)),
        "raw_wall_s": _metric(raw_wall, "s", samples),
        "calibration_s": _metric(calibration, "s", len(calibrations)),
    }
    for cls in CLASSES:
        names = [j["name"] for j in jobs if j["class"] == cls]
        if names:
            out[cls + "_s"] = _metric(
                sum(_median_job_s(plain[n]) for n in names) / factor, "s",
                sum(len(plain[n]) for n in names))
    rss = [r["rss_mb"] for r in reports if "rss_mb" in r]
    out["peak_rss_mb"] = _metric(max(rss) if rss else 0.0, "MiB", len(rss))
    failed = sum(not r["ok"] for r in reports)
    out["fail_frac"] = _metric(failed / len(reports), "ratio", len(reports))
    return out


# names and units of the metrics, as BENCHMARK.json lists them
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def per_layer(jobs, plain, with_trace):
    """Per-job medians of the traced components, summed over the job list."""
    total = {}
    for job in jobs:
        reports = [r for r in with_trace[job["name"]] if "layers" in r]
        if not reports:
            continue
        for key in reports[0]["layers"]:
            # median_low keeps counts whole: it picks one of the samples
            total[key] = total.get(key, 0) + statistics.median_low(
                r["layers"][key] for r in reports)

    def ratio(num, den):
        return num / den if den else 0.0

    t = total.get
    derived = {
        "kernels.radial_integral.calls":
            t("kernels.radial_integral.hits", 0)
            + t("kernels.radial_integral.misses", 0),
        "kernels.radial_integral.hit_ratio": ratio(
            t("kernels.radial_integral.hits", 0),
            t("kernels.radial_integral.hits", 0)
            + t("kernels.radial_integral.misses", 0)),
        "symbols.symbol.d1_s_per_call": ratio(
            t("symbols.symbol.d1_s", 0), t("symbols.symbol.d1_calls", 0)),
        "symbols.symbol.d2_s_per_call": ratio(
            t("symbols.symbol.d2_s", 0), t("symbols.symbol.d2_calls", 0)),
        "fem1d.assemble.dofs_per_s": ratio(t("fem1d.assemble.dofs", 0),
                                           t("fem1d.assemble.busy_s", 0)),
        "fem1d.factorizations_per_system": ratio(
            t("fem1d.cho_factor.calls", 0),
            t("fem1d.assemble.calls", 0)
            + t("fem1d.assemble_local.calls", 0)),
        "experiments.sweep_speedup": ratio(
            t("experiments.parallel_map.item_s", 0),
            t("experiments.parallel_map.busy_s", 0)),
        "control.solves_per_iteration": ratio(
            t("control.state_solves", 0),
            t("control.solve_optimal.iterations", 0)),
        "trace.overhead_s":
            sum(_median_job_s(with_trace[j["name"]]) for j in jobs)
            - sum(_median_job_s(plain[j["name"]]) for j in jobs),
    }
    total.update(derived)
    return {name: _metric(total.get(name, 0), unit)
            for name, unit in PER_LAYER.items()}


def environment(seed, traced, workload):
    def version_of(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return "missing"

    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    openblas = "unknown"
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (ImportError, KeyError, TypeError):
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": version_of("numpy"),
            "scipy": version_of("scipy"), "blas": openblas,
            "blas_threads": BLAS_THREADS, "sweep_threads": SWEEP_THREADS,
            "seed": seed, "traced": traced, "workload": workload}


def run(workload, seed, seconds, traced):
    t0 = time.monotonic()
    jobs, plain, with_trace, calibrations, passes = measure(
        workload, seed, seconds, traced)
    e2e = end_to_end(jobs, plain, calibrations)
    reports = [r for d in (plain, with_trace) for v in d.values() for r in v]
    failed = [r for r in reports if not r["ok"]]
    missing = [j["name"] for j in jobs if not plain[j["name"]]]
    result = {
        "correct": not failed and not missing,
        "attempted": len(reports),
        "failed": len(failed),
        "metrics": (per_layer(jobs, plain, with_trace) if traced else
                    {name: _metric(e2e[name]["value"], unit)
                     for name, unit in END_TO_END.items()}),
    }
    print("workload=%s seed=%d trace=%d passes=%d jobs=%d elapsed=%.1fs"
          % (workload, seed, traced, passes, len(reports),
             time.monotonic() - t0))
    for name in ("setup_s", "wall_s") + tuple(c + "_s" for c in CLASSES) \
            + ("peak_rss_mb", "fail_frac", "raw_setup_s", "raw_wall_s",
               "calibration_s"):
        m = e2e.get(name)
        if m is None:
            print("  %-24s %14s %-5s n=0" % (name, "-", "s"))
        else:
            print("  %-24s %14.6g %-5s n=%d" % (name, m["value"], m["unit"],
                                                 m["n"]))
    if traced:
        for name, m in result["metrics"].items():
            print("  %-46s %14.6g %s" % (name, m["value"], m["unit"]))
    for r in failed:
        print("  FAILED: %s" % "; ".join(r["errors"])[:500])
    if missing:
        print("  NOT RUN: %s" % ", ".join(missing))
    env = environment(seed, traced, workload)
    print("env " + json.dumps(env, sort_keys=True))
    detail = dict(result, env=env, end_to_end=e2e, passes=passes,
                  jobs={name: {"median_s": _median_job_s(v), "n": len(v)}
                        for name, v in plain.items() if v})
    return result, detail


def _save(path, workload, traced, detail):
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data.setdefault(workload, {})["trace%d" % traced] = detail
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the detailed result into "
                        "this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hsnl", "__init__.py")):
        print("error: no hsnl sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, detail = run(name, args.seed, args.seconds, bool(args.trace))
        if args.out:
            _save(args.out, name, args.trace, detail)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
