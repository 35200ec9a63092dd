"""Run the benchmark over several seeds and record the medians.

    python3 perfbench/baseline.py --trace 0 --runs 10 \
        --out perfbench/results/BENCH_seed.json

For each workload, runs `run.py` once per seed (seeds first-seed, ...,
first-seed + runs - 1), each in a fresh interpreter as a single benchmark
run is made.  Prints, per metric, the median over the runs and the spread:
the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  --out
merges the medians, quartiles, spreads and the first run's environment
stamp into a JSON file, under the workload and `trace0` or `trace1`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def _summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def record(workload, trace, seeds, seconds):
    """One run per seed; returns the summary of every metric."""
    details = []
    out_dir = os.path.join(run.OUT, "baseline")
    os.makedirs(out_dir, exist_ok=True)
    for seed in seeds:
        path = os.path.join(out_dir,
                            "%s_%d_%d.json" % (workload, trace, seed))
        if os.path.exists(path):
            os.remove(path)
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out", path], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(path) as handle:
            detail = json.load(handle)[workload]["trace%d" % trace]
        details.append(detail)
        print("%s seed=%d correct=%s attempted=%d failed=%d %s" % (
            workload, seed, result["correct"], result["attempted"],
            result["failed"], " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items())
                if k in run.END_TO_END)), flush=True)
    # the gated metrics, and on untraced runs the table's other figures
    table = dict(details[0]["metrics"])
    if not trace:
        table.update(details[0]["end_to_end"])
    summary = {}
    for name in sorted(table):
        values = [d["metrics"][name]["value"] if name in d["metrics"]
                  else d["end_to_end"][name]["value"] for d in details]
        summary[name] = dict(_summary(values), unit=table[name]["unit"])
    return {"seeds": list(seeds), "seconds": seconds,
            "correct": all(d["correct"] for d in details),
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "metrics": summary, "env": details[0]["env"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(run.WORKLOADS) + ["all"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=run.SPEC["run_seconds"])
    parser.add_argument("--out", help="merge the summary into this file")
    args = parser.parse_args(argv)
    names = (sorted(run.WORKLOADS) if args.workload == "all"
             else [args.workload])
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for name in names:
        summary = record(name, args.trace, seeds, args.seconds)
        for metric, s in summary["metrics"].items():
            gated = " (gated)" if metric in run.END_TO_END else ""
            print("  %-46s median %12.6g %-5s spread %.3f%s"
                  % (metric, s["median"], s["unit"], s["spread"], gated))
        if args.out:
            data = {}
            if os.path.exists(args.out):
                with open(args.out) as handle:
                    data = json.load(handle)
            data.setdefault(name, {})["trace%d" % args.trace] = summary
            with open(args.out, "w") as handle:
                json.dump(data, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
