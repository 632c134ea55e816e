"""maxsemi benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload semigroup-s4 --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; ``maxsemi`` is imported from
``src/`` as the tests do.  Everything runs one process at a time with one
thread.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
of several fresh interpreters that import maxsemi and build the input;
``solve_s``, ``verify_s`` and ``peak_rss_mb`` come from one worker process
that repeats the operation for ``--seconds``.  ``--trace 1`` runs one
untraced and then traced operations and reports the per-layer metrics.

Every operation's results are checked against ``reference.json`` outside
the timed region; a failed check counts towards ``failed``.  The last line
of standard output is the JSON result; the lines before it give each
timing as median, quartiles and sample count, the error rate and the
environment.  A copy goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up probes per run: at least MIN, then more while under BUDGET seconds
SETUP_PROBES_MIN, SETUP_PROBES_MAX, SETUP_PROBES_BUDGET_S = 5, 11, 3.0
TIME_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "verify_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def pinned_env(root):
    env = dict(os.environ)
    # glibc raises its mmap threshold after the first large free, so later
    # operations reuse heap pages the first one had to fault in: a fixed
    # threshold makes every operation allocate as a fresh process does
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072")
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, env, root, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before " + " ".join(args[:1]))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded the {TIME_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def check_ops(workload, spec, rel, records, reference):
    """Gate every operation; returns (problems per op, fingerprint per op)."""
    model = workloads.ReesModel(spec, rel) if workload == "brandt-a5" else None
    problems, prints = [], []
    for rec in records:
        if "error" in rec:
            problems.append(["operation raised:\n" + rec["error"]])
            prints.append(None)
            continue
        results = workloads.canonical_results(spec, rel, rec["output"], model)
        found = workloads.gate(results, reference)
        found += [f"verify_maximal rejected a result: {msg}"
                  for ok, msg in rec["verdicts"] if not ok]
        if rec["fallbacks"]:
            found.append(f"{rec['fallbacks']} generator validation fallback(s): "
                         + "; ".join(rec["warnings"]))
        problems.append(found)
        prints.append(workloads.fingerprint(results))
    return problems, prints


def end_to_end_metrics(workload, setup, ok_ops, summary, report):
    """Median, quartiles and samples of each timing, raw and normalised;
    the normalised medians and the peak memory are the metrics."""
    if not ok_ops:
        return {}
    samples = {"peak_rss_mb": [summary["peak_rss_mb"]]}
    for name in ("setup", "solve", "verify"):
        recs = setup if name == "setup" else ok_ops
        samples[f"{name}_s"] = [r[f"{name}_s"] for r in recs]
        samples[f"{name}_wall_s"] = [r[f"{name}_wall_s"] for r in recs]
    metrics = {}
    report["timings"] = {}
    for name, values in sorted(samples.items()):
        unit = END_TO_END_UNITS.get(name, "s")
        q1, med, q3 = quartiles(values)
        report["timings"][name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                   "unit": unit, "samples": values}
        print(f"{workload} {name}: median {med:.6g} {unit} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        if name in END_TO_END_UNITS:
            metrics[name] = {"value": med, "unit": unit}
    return metrics


def traced_metrics(ok_ops, report):
    """Per-layer metrics: times and coverage from the timing operations,
    counts from the counting operations, overhead against the untraced one."""
    untraced = [r for r in ok_ops if not r["traced"]]
    timing = [r for r in ok_ops if r["traced"] and not r["counting"]]
    counting = [r for r in ok_ops if r["counting"]]
    if not (untraced and timing and counting):
        return {}
    from tracing import UNITS, median_metrics

    times = median_metrics([r["layers"] for r in timing])
    counts = median_metrics([r["layers"] for r in counting])
    metrics = {}
    for name, value in times.items():
        unit = UNITS[name]
        metrics[name] = {"value": value if unit in ("s", "ratio") else counts[name],
                         "unit": unit}
    wall = {}
    for label, recs in (("untraced", untraced), ("timing", timing)):
        for stage in ("solve_wall_s", "verify_wall_s"):
            wall[f"{label}_{stage}"] = statistics.median(r[stage] for r in recs)
    overhead = ((wall["timing_solve_wall_s"] + wall["timing_verify_wall_s"])
                / (wall["untraced_solve_wall_s"] + wall["untraced_verify_wall_s"]))
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    report["stage_wall_s"] = wall
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "maxsemi", "__init__.py")):
        raise BenchError(f"no maxsemi sources under {os.path.join(root, 'src')}; "
                         "run from the root of a source checkout")
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)[args.workload]
    env = pinned_env(root)
    spec, rel = workloads.make_input(args.workload, args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if not args.trace:
        # the first probe compiles the bytecode and is not counted
        run_worker(["setup"] + common, env, root, deadline)
        started = time.monotonic()
        while len(setup) < SETUP_PROBES_MIN or (
                len(setup) < SETUP_PROBES_MAX
                and time.monotonic() - started < SETUP_PROBES_BUDGET_S):
            setup.append(run_worker(["setup"] + common, env, root, deadline)[0])
    lines = run_worker(["measure"] + common + ["--seconds", str(args.seconds)]
                       + (["--trace"] if args.trace else []), env, root, deadline)
    records = [line for line in lines if "summary" not in line]
    summary = next(line["summary"] for line in lines if "summary" in line)
    problems, prints = check_ops(args.workload, spec, rel, records, reference)
    if args.trace:
        transparent = prints[0] is not None and all(fp == prints[0] for fp in prints)
        if not transparent:
            problems[-1].append("traced and untraced operations gave different results")
    failed = sum(1 for found in problems if found)
    for k, found in enumerate(problems):
        for line in found:
            print(f"op {k}: FAILED: {line}", file=sys.stderr)

    ok_ops = [rec for rec, found in zip(records, problems) if not found]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": len(records), "failed": failed,
              "error_rate": failed / len(records), **summary, **environment(root)}
    if args.trace:
        metrics = traced_metrics(ok_ops, report)
    else:
        metrics = end_to_end_metrics(args.workload, setup, ok_ops, summary, report)
    print(f"{args.workload} error_rate: {report['error_rate']:.6g} ratio "
          f"({failed} failed of {len(records)} attempted)")
    print("environment: " + json.dumps({k: report[k] for k in
                                        ("python", "numpy", "nproc", "commit", "src_sha256")}))
    report["metrics"] = metrics

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
