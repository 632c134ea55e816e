"""The process that runs maxsemi for one benchmark run.

``run.py`` starts it with a pinned environment (one thread, fixed hash
seed, ``src/`` on ``PYTHONPATH``).  Two modes:

``setup``    time ``import maxsemi`` plus building the workload's input in
             this fresh interpreter, print ``{"setup_s": ...}``.
``measure``  run operations for ``--seconds``, printing one JSON record per
             operation (timings, verdicts, the raw results for the gate,
             and with ``--trace`` the per-layer metrics), then a summary.
             ``peak_rss_mb`` is the high-water mark at the end of the first
             operation, what one operation in a fresh process needs; later
             operations only add allocator fragmentation.  The gate runs
             in ``run.py``, so its memory does not count either.

Every operation builds its own input in untimed set-up, so no cache
(``FiniteSemigroup`` keeps its table in ``_table``) carries over from one
operation to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
import warnings
from time import perf_counter

import workloads

# Speed of the machine: on a shared 2-vCPU virtual machine (Xeon, 2.1 GHz)
# the speed of identical single-threaded work swings by 10-20 % from one
# operation to the next, and the swings follow a fixed probe loop run
# during the operation (correlation 0.94-0.98).  Timed regions run with the
# probe firing every PROBE_INTERVAL_S of CPU time; a timing is reported as
# its wall time minus the probes' own time, scaled by REFERENCE_PROBE_S /
# (median probe time in the region): seconds at the reference speed.  The
# raw wall time is kept next to it.
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 2.5e-4
MIN_PROBES = 5


def _probe_loop():
    x = 0
    for i in range(4000):
        x += i * i
    return x


class Speedometer:
    """Runs the probe loop on SIGPROF and keeps (start, duration) samples."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum, frame):
        t = perf_counter()
        _probe_loop()
        self.samples.append((t, perf_counter() - t))

    def sample(self, k):
        for _ in range(k):
            self._probe(None, None)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def timing(self, t0, t1):
        """(raw, normalised) seconds of the region [t0, t1]."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        raw = t1 - t0 - sum(inside)
        # a region too short for its own probes uses the latest ones
        if len(inside) < MIN_PROBES:
            inside = [d for _, d in self.samples[-MIN_PROBES:]]
        return raw, raw * REFERENCE_PROBE_S / statistics.median(inside)


def _mod(name):
    # maxsemi.max_subsemigroups is shadowed by the function of that name in
    # the package namespace, so modules are always reached this way
    return importlib.import_module(f"maxsemi.{name}")


def rzms_from_spec(spec):
    pg = _mod("perm_group")
    d = spec["group_degree"]
    group = pg.generate_group(d, [pg.parse_cycles(t, d) for t in spec["group_generators"]])
    matrix = tuple(
        tuple(None if e == "0" else pg.parse_cycles(e, d) for e in row)
        for row in spec["matrix"])
    return _mod("rees_matrix").ReesZeroMatrixSemigroup(group, matrix)


def build_input(workload, spec):
    """The operation's input object: a fresh FiniteSemigroup for the library
    workloads; the CLI workload builds its semigroup inside the operation."""
    if workload == "semigroup-s4":
        return _mod("semigroup_core").semigroup_from_rzms(rzms_from_spec(spec))
    if workload == "transform-t6":
        core = _mod("semigroup_core")
        gens = [core.Transformation.one_based(row) for row in spec["generators"]]
        return core.closure(gens, lambda a, b: a * b)
    return json.dumps(spec)


def solve(workload, inp):
    if workload == "brandt-a5":
        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(inp)
        try:
            code = _mod("cli").run(["maximal"], out)
        finally:
            sys.stdin = stdin
        if code != 0:
            raise RuntimeError(f"maxsemi maximal exited with {code}")
        return out.getvalue()
    if getattr(inp, "_table", None) is not None:
        raise RuntimeError("the semigroup reached the operation with its table cached")
    return _mod("max_subsemigroups").max_subsemigroups(inp)


def verify_setup(workload, spec, inp, results):
    """(semigroup, candidates) for the oracle: every result on
    transform-t6, otherwise the first of the smallest R6 results.

    The order and the choice depend only on types and sizes, which every
    seed shares: the order in which results are verified moves the peak
    memory by 13 %."""
    if workload == "transform-t6":
        return inp, [r.element_indices for r in sorted(results, key=lambda r: (r.type_tag, r.size))]
    if workload == "semigroup-s4":
        r6 = [r for r in results if r.type_tag == "MAX-R6"]
        return inp, [min(r6, key=lambda r: r.size).element_indices]
    sg = _mod("semigroup_core").semigroup_from_rzms(rzms_from_spec(spec))
    entries = [e for e in json.loads(results)["maximal_subsemigroups"] if e["type"] == "R6"]
    entry = min(entries, key=lambda e: e["size"])
    parse = _mod("perm_group").parse_cycles
    gens = [0 if x == "0" else (x[0] - 1, parse(x[1], spec["group_degree"]), -x[2] - 1)
            for x in entry["generators"]]
    return sg, [_mod("semigroup_core").closure_of_indices(sg, [sg.index(g) for g in gens])]


def _raw(payload):
    if payload == 0:
        return 0
    if isinstance(payload, tuple):
        i, g, lam = payload
        return [i, list(g.images), lam]
    return list(payload.images)


def gate_output(workload, inp, results):
    """Raw results for the gate in run.py, which writes them in canonical
    notation and compares them with the reference."""
    if workload == "brandt-a5":
        return {"document": results}
    return {
        "elements": [_raw(x) for x in inp.elements],
        "results": [[r.type_tag, r.size, sorted(r.element_indices)] for r in results],
    }


def run_op(workload, spec, tracer, speed):
    """One operation.  ``speed`` is a running Speedometer, or None in
    traced runs, whose timings stay raw wall times like their spans."""
    rec = {"traced": tracer is not None}
    try:
        gc.collect()
        inp = build_input(workload, spec)
        stages = {}
        if tracer:
            stages["build"] = tracer.take()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            results = solve(workload, inp)
            t1 = perf_counter()
            if tracer:
                stages["solve"] = tracer.take()
            sg, candidates = verify_setup(workload, spec, inp, results)
            if tracer:
                tracer.take()
            oracle = _mod("oracle")
            t2 = perf_counter()
            verdicts = [oracle.verify_maximal(sg, c) for c in candidates]
            t3 = perf_counter()
            rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                stages["verify"] = tracer.take()
        for stage, a, b in (("solve", t0, t1), ("verify", t2, t3)):
            raw, norm = speed.timing(a, b) if speed else (b - a, b - a)
            rec[f"{stage}_wall_s"], rec[f"{stage}_s"] = raw, norm
        rec.update(
            verdicts=[[bool(ok), msg] for ok, msg in verdicts],
            warnings=[f"{w.filename}:{w.lineno}: {w.message}" for w in caught],
            fallbacks=sum(1 for w in caught if "maxsemi" in w.filename),
            output=gate_output(workload, inp, results),
        )
        if workload == "brandt-a5":
            rec["doc_bytes"] = len(results.encode())
        if tracer:
            from tracing import op_layer_metrics

            metrics, agg = op_layer_metrics(stages)
            metrics["max_subsemigroups.validation_fallbacks"] = float(rec["fallbacks"])
            metrics["cli.doc_bytes"] = float(rec.get("doc_bytes", 0))
            wall = rec["solve_wall_s"] + rec["verify_wall_s"]
            metrics["trace.coverage"] = (agg["solve"].root_time + agg["verify"].root_time) / wall
            rec["layers"] = metrics
    except Exception:
        if tracer:
            tracer.take()
        rec["error"] = traceback.format_exc()
    return rec


def measure(args, spec, speed):
    """Run operations until the next one would pass the deadline; print a
    record per operation and return the peak memory of the first."""
    from tracing import Tracer

    start = perf_counter()
    deadline = start + args.seconds
    done = 0
    peak_rss_mb = None
    while True:
        # a traced run starts with one untraced operation, the base of
        # trace.overhead and of the transparency check, then alternates
        # timing operations (spans only) and counting operations
        tracer = None
        counting = done % 2 == 0
        if args.trace and done:
            tracer = Tracer()
            tracer.install(counting)
        try:
            rec = run_op(args.workload, spec, tracer, speed)
        finally:
            if tracer:
                tracer.uninstall()
        rec["counting"] = bool(tracer) and counting
        if peak_rss_mb is None:
            peak_rss_mb = rec.get("rss_mb")
        print(json.dumps(rec), flush=True)
        done += 1
        # start another operation only if it should end before the deadline
        now = perf_counter()
        if now + (now - start) / done > deadline and done >= (3 if args.trace else 1):
            break
    return peak_rss_mb


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "measure"])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    spec, _ = workloads.make_input(args.workload, args.seed)

    if args.mode == "setup":
        with Speedometer() as speed:
            t0 = perf_counter()
            import maxsemi  # noqa: F401

            build_input(args.workload, spec)
            t1 = perf_counter()
            # the set-up is too short for its own probes: sample right after
            speed.sample(MIN_PROBES)
        raw, norm = speed.timing(t0, t1)
        print(json.dumps({"setup_s": norm, "setup_wall_s": raw}))
        return 0

    import maxsemi  # noqa: F401
    import numpy

    # traced runs do not probe: their spans are raw wall times
    with contextlib.nullcontext() if args.trace else Speedometer() as speed:
        peak_rss_mb = measure(args, spec, speed)
    print(json.dumps({"summary": {
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
