"""Record the output digests that the benchmark checks jobs against.

    python3 perfbench/record_reference.py

Runs every job of every workload once at the default seed (0) and writes
perfbench/reference.json.  Rerun it only when a change is meant to alter
hsnl's results, and say why in the change.
"""

import json
import os
import random

import run


def main():
    ref = {}
    for workload, make_jobs in sorted(run.WORKLOADS.items()):
        for job in make_jobs(random.Random(0)):
            report = run.run_job(workload, job, False, record=True)
            if not report["ok"]:
                raise SystemExit("%s failed: %s" % (job["name"],
                                                    report["errors"]))
            ref[job["name"]] = {"args": job["args"],
                                "digest": report["digest"]}
            if "imag_norms" in report:
                ref[job["name"]]["imag_norms"] = report["imag_norms"]
    with open(os.path.join(run.HERE, "reference.json"), "w") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
