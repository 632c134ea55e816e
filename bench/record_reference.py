"""Record ``reference.json``: the correctness reference of every workload.

    python3 bench/record_reference.py

Runs one seed-0 operation per workload and stores its fingerprint
(counts by type, multiset of result sizes, digest of the canonical element
sets).  Recorded once on a commit whose results are trusted; a change that
alters a workload's results must not re-record it to make the gate pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def main():
    root = os.getcwd()
    env = run.pinned_env(root)
    reference = {}
    for workload in workloads.WORKLOADS:
        args = ["measure", "--workload", workload, "--seed", "0", "--seconds", "0"]
        rec = run.run_worker(args, env, root, time.monotonic() + 600)[0]
        if "error" in rec:
            sys.exit(f"{workload}: operation raised:\n{rec['error']}")
        if rec["fallbacks"] or not all(ok for ok, _ in rec["verdicts"]):
            sys.exit(f"{workload}: verification failed: {rec['verdicts']} {rec['warnings']}")
        spec, rel = workloads.make_input(workload, 0)
        results = workloads.canonical_results(spec, rel, rec["output"])
        reference[workload] = workloads.fingerprint(results)
        print(workload, reference[workload]["counts"], len(results), "results")
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
