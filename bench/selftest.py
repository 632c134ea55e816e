"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

1. The gate is not vacuous: on real results of every workload it passes,
   and it fails when one result is dropped or one element is added to a
   result.
2. Tracing is transparent: a traced run (``run.py --trace 1``) checks that
   its untraced, timing and counting operations give identical results
   that all pass the gate; here the run must report ``correct``.
3. ``trace.coverage`` is at least 0.9 on every workload.
4. The sanity floors: each workload stresses the layer it claims to.

Exits 1 if any check fails.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run
import workloads

SEED = 5

# (workload, metric, stage wall time it is a share of, lowest share)
SHARE_FLOORS = (
    ("brandt-a5", "perm_group.all_subgroups_s", "timing_solve_wall_s", 0.35),
    ("transform-t6", "semigroup_core.table_s", "timing_solve_wall_s", 0.50),
    ("semigroup-s4", "semigroup_core.validation_s", "timing_solve_wall_s", 0.35),
    ("transform-t6", "oracle.verify_s", "timing_verify_wall_s", 0.90),
)
COUNT_CEILINGS = (("transform-t6", "perm_group.perm_products", 10_000),)

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def gate_checks(root, env, workload):
    args = ["measure", "--workload", workload, "--seed", str(SEED), "--seconds", "0"]
    rec = run.run_worker(args, env, root, time.monotonic() + 600)[0]
    check("error" not in rec, f"{workload}: operation runs")
    if "error" in rec:
        print(rec["error"])
        return
    with open(os.path.join(run.HERE, "reference.json")) as f:
        reference = json.load(f)[workload]
    spec, rel = workloads.make_input(workload, SEED)
    results = workloads.canonical_results(spec, rel, rec["output"])
    check(not workloads.gate(results, reference), f"{workload}: gate passes on real results")
    check(bool(workloads.gate(results[1:], reference)),
          f"{workload}: gate fails when a result is dropped")
    everything = frozenset().union(*(r.elements for r in results))
    first = results[0]
    extra = min(everything - first.elements)
    grown = workloads.Result(first.type_tag, first.declared_size + 1, first.elements | {extra})
    check(bool(workloads.gate([grown] + results[1:], reference)),
          f"{workload}: gate fails when an element is added to a result")


def trace_checks(root, workload):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload}: traced run exits 0")
    if proc.returncode != 0:
        print(proc.stderr)
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: traced and untraced operations agree and pass the gate")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    check(metrics["trace.coverage"] >= 0.9,
          f"{workload}: trace.coverage {metrics['trace.coverage']:.3f} >= 0.9")
    with open(os.path.join(run.HERE, "out", f"BENCH_{workload}_seed{SEED}_trace1.json")) as f:
        wall = json.load(f)["stage_wall_s"]
    for w, metric, stage, floor in SHARE_FLOORS:
        if w == workload:
            share = metrics[metric] / wall[stage]
            check(share >= floor, f"{workload}: {metric} is {share:.0%} of {stage}, "
                                  f"floor {floor:.0%}")
    for w, metric, ceiling in COUNT_CEILINGS:
        if w == workload:
            check(metrics[metric] < ceiling,
                  f"{workload}: {metric} = {metrics[metric]:.0f} < {ceiling}")


def main():
    root = os.getcwd()
    env = run.pinned_env(root)
    for workload in workloads.WORKLOADS:
        gate_checks(root, env, workload)
        trace_checks(root, workload)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
