"""The benchmark in ``bench/`` drives the package through names it
imports directly.  Run its input, solve and gate steps on transform-t6,
and its payload read-out on semigroup-s4, so that a change to those
names fails here first."""

import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import worker
        import workloads
        with open(os.path.join(BENCH, "reference.json")) as f:
            reference = json.load(f)
        yield workloads, worker, reference


def test_transform_t6_passes_the_gate(bench):
    workloads, worker, reference = bench
    w = "transform-t6"
    spec, rel = workloads.make_input(w, 0)
    inp = worker.build_input(w, spec)
    results = worker.solve(w, inp)
    output = worker.gate_output(w, inp, results)
    assert workloads.gate(workloads.canonical_results(spec, rel, output), reference[w]) == []


def test_semigroup_s4_payloads_reach_the_gate(bench):
    # gate_output reads the (i, Permutation, lam) payloads of the Rees
    # workload; solving it is left to the benchmark
    workloads, worker, _ = bench
    w = "semigroup-s4"
    spec, rel = workloads.make_input(w, 0)
    inp = worker.build_input(w, spec)
    output = worker.gate_output(w, inp, [])
    names = workloads.canon_library_elements(spec, rel, output["elements"])
    assert len(set(names)) == len(names) == 865
    assert output["results"] == []
