"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact unless a runtime bound is stated."""

import io
import json
import operator
import os
import random
import time
from collections import Counter

import pytest

import support
from maxsemi.cli import run as cli_run
from maxsemi.graphs import (
    digraph,
    graph,
    maximal_independent_sets,
    strongly_connected_condensation,
)
from maxsemi.max_subsemigroups import build_jclass_graphs, max_subsemigroups
from maxsemi.oracle import brute_force_maximal, verify_maximal
from maxsemi.perm_group import Permutation, identity
from maxsemi.rees_matrix import (
    ReesZeroMatrixSemigroup,
    ZERO,
    brandt,
    max_r6,
    max_subsemigroups_rzms,
)
from maxsemi.semigroup_core import (
    Transformation,
    closure,
    greens_structure,
    semigroup_from_rzms,
    x_prime,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def report(number, title, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {title}")
    assert ok, f"criterion {number}: {title}"


def perm_group_order(image_tuples):
    gens = [Permutation(t) for t in image_tuples]
    if not gens:
        return 1
    seen = {identity(gens[0].degree)}
    queue = list(seen)
    while queue:
        fresh = []
        for p in queue:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        queue = fresh
    return len(seen)


def test_criterion_1_s4_rzms_example():
    started = time.perf_counter()
    rzms = support.s4_rzms()
    results = max_subsemigroups_rzms(rzms)
    elapsed = time.perf_counter() - started
    counts = Counter(r.type_tag for r in results)
    ok = len(results) == 32
    ok &= counts["R1"] == 0 and counts["R2"] == 0
    ok &= counts["R3"] + counts["R4"] == 9
    ok &= counts["R5"] == 14 and counts["R6"] == 9
    removed_rows = sorted(r.witness[0] for r in results if r.type_tag == "R3")
    removed_cols = sorted(r.witness[0] for r in results if r.type_tag == "R4")
    ok &= removed_rows == [0, 1, 2, 3, 4]   # Lambda in {-1..-5}
    ok &= removed_cols == [0, 2, 3, 4]      # I in {1, 3, 4, 5}
    r6_orders = {perm_group_order(r.witness[0])
                 for r in results if r.type_tag == "R6"}
    ok &= r6_orders == {8}                  # all from D8, none from A4 or S3
    ok &= elapsed < 10.0
    report(1, f"6x6 over S4: 32 maximal subsemigroups in {elapsed:.2f}s", ok)


def test_criterion_2_w_structure(w_semigroup):
    started = time.perf_counter()
    sg = w_semigroup
    gs = greens_structure(sg)
    _, names = support.w_named_classes(sg, gs)
    j = gs.j_class[sg.generator_indices[0]]
    members = gs.j_classes[j]
    jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))
    elapsed = time.perf_counter() - started

    ok = len({gs.l_class[e] for e in members}) == 4
    ok &= len({gs.r_class[e] for e in members}) == 6
    ok &= jg.gamma_l.component_count == 4 and len(jg.gamma_l.edges) == 4
    ok &= jg.gamma_r.component_count == 4
    ok &= sorted(len(c) for c in jg.gamma_r.components) == [1, 1, 2, 2]
    ok &= len(jg.delta.edges) == 10
    ok &= len(maximal_independent_sets(jg.delta)) == 7
    ok &= len(jg.theta.edges) == 2
    coloured_l = {
        frozenset(jg.l_class_ids[v] for v in comp)
        for k, comp in enumerate(jg.gamma_l.components) if jg.gamma_l.colour[k]}
    coloured_r = {
        frozenset(jg.r_class_ids[v] for v in comp)
        for k, comp in enumerate(jg.gamma_r.components) if jg.gamma_r.colour[k]}
    ok &= coloured_l == {frozenset({names["L_x1"]}), frozenset({names["L_x1x6"]})}
    ok &= coloured_r == {frozenset({names["R_x3"], names["R_x7x3"]})}
    ok &= elapsed < 10.0
    report(2, f"W <= T7 J-class structure in {elapsed:.2f}s", ok)


def test_criterion_3_w_counts_and_witnesses(w_semigroup):
    sg = w_semigroup
    gs = greens_structure(sg)
    _, names = support.w_named_classes(sg, gs)
    j = gs.j_class[sg.generator_indices[0]]
    results = [r for r in max_subsemigroups(sg) if r.j_class == j]
    counts = Counter(r.type_tag for r in results)
    ok = counts["S3"] == 2 and counts["S4"] == 2 and counts["S5"] == 2

    s5_sets = {r.element_indices for r in results if r.type_tag == "S5"}
    expected_s5 = set()
    for rname in ("R_x1", "R_x2"):
        expected_s5.add(frozenset(
            e for e in range(sg.size)
            if not (gs.j_class[e] == j and gs.r_class[e] == names[rname])))
    ok &= s5_sets == expected_s5

    s3_witnesses = {
        (frozenset(r.witness[0]), frozenset(r.witness[1]))
        for r in results if r.type_tag == "S3"}
    ok &= s3_witnesses == {
        (frozenset({names["L_x1"], names["L_x1x6"]}), frozenset({names["R_x1"]})),
        (frozenset({names["L_x1x6"]}),
         frozenset({names["R_x1"], names["R_x3"], names["R_x7x3"]}))}

    # S4-type results are asserted through the construction (complements
    # of the colour-0 sources of Gamma_L) and the count
    s4_removed = {
        frozenset({names["L_x1"], names["L_x3"], names["L_x4"], names["L_x1x6"]})
        - frozenset(r.witness[0])
        for r in results if r.type_tag == "S4"}
    ok &= s4_removed == {frozenset({names["L_x3"]}), frozenset({names["L_x4"]})}
    report(3, "W: 2 of each of S3, S4, S5 with the stated witnesses", ok)


def test_criterion_4_brandt_counts():
    started = time.perf_counter()
    s3 = support.symmetric_group(3)
    counts = [len(max_r6(brandt(s3, m))) for m in (2, 3)]
    c2 = support.cyclic_group(2)
    one, x = identity(2), Permutation((1, 0))
    no_r6 = max_r6(ReesZeroMatrixSemigroup(c2, ((one, one), (one, x))))
    elapsed = time.perf_counter() - started
    ok = counts == [11, 31] and no_r6 == [] and elapsed < 5.0
    report(4, f"Brandt B(S3,m) counts 11/31 and zero-free 2x2 gives none "
              f"({elapsed:.2f}s)", ok)


def test_criterion_5_oracle_equivalence(oracle_corpus):
    started = time.perf_counter()
    ok = len(oracle_corpus) >= 200
    mismatches = []
    for name, sg in oracle_corpus:
        got = {r.element_indices for r in max_subsemigroups(sg)}
        want = set(brute_force_maximal(sg).maximal)
        if got != want:
            mismatches.append(name)
    elapsed = time.perf_counter() - started
    ok &= not mismatches and elapsed < 120.0
    report(5, f"oracle equivalence on {len(oracle_corpus)} semigroups "
              f"in {elapsed:.1f}s (mismatches: {mismatches})", ok)


def test_criterion_6_property_suite(w_semigroup, s4_rzms, oracle_corpus):
    ok = True
    # every computed result on the desk-scale semigroups verifies
    sg_r = semigroup_from_rzms(s4_rzms)
    cases = [(w_semigroup, max_subsemigroups(w_semigroup)),
             (sg_r, max_subsemigroups(sg_r))]
    rng = random.Random(77)
    for name, sg in rng.sample(oracle_corpus, 25):
        cases.append((sg, max_subsemigroups(sg)))
    for sg, results in cases:
        gs = greens_structure(sg)
        seen = set()
        for r in results:
            good, msg = verify_maximal(sg, r.element_indices)
            ok &= good
            out = set(range(sg.size)) - r.element_indices
            ok &= len({gs.j_class[e] for e in out}) == 1
            ok &= r.element_indices not in seen
            seen.add(r.element_indices)

    # invariance under generator reordering
    gens = [Transformation.one_based(r) for r in support.W_GENERATOR_ROWS]
    other = closure(list(reversed(gens)), operator.mul)
    a = {frozenset(w_semigroup.elements[e] for e in r.element_indices)
         for r in max_subsemigroups(w_semigroup)}
    b = {frozenset(other.elements[e] for e in r.element_indices)
         for r in max_subsemigroups(other)}
    ok &= a == b

    # invariance of the R6 pipeline under transversal choice and under a
    # relabelling that changes the spanning tree
    plain = {r.element_set for r in max_r6(s4_rzms)}
    with support.reversed_transversals():
        flipped = {r.element_set for r in max_r6(s4_rzms)}
    ok &= plain == flipped
    rperm = [5, 2, 0, 4, 1, 3]
    cperm = [1, 3, 5, 0, 2, 4]
    matrix = tuple(
        tuple(s4_rzms.matrix[rperm[lam]][cperm[i]] for i in range(6))
        for lam in range(6))
    other_rzms = ReesZeroMatrixSemigroup(s4_rzms.group, matrix)

    def relabel(x):
        if x == ZERO:
            return ZERO
        i, g, lam = x
        return (cperm[i], g, rperm[lam])

    relabelled = {frozenset(map(relabel, r.element_set))
                  for r in max_r6(other_rzms)}
    ok &= relabelled == plain
    report(6, "verify_maximal, single-J complements, dedup, invariances", ok)


def test_criterion_7_graph_layer_oracles():
    started = time.perf_counter()
    rng = random.Random(4242)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.15, 0.35, 0.6])]
        g = graph(n, edges)
        adj = [0] * n
        for u, v in g.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        expected = set()
        for mask in range(1 << n):
            if any(mask >> v & 1 and adj[v] & mask for v in range(n)):
                continue
            if any(not mask >> v & 1 and not adj[v] & mask for v in range(n)):
                continue
            expected.add(frozenset(v for v in range(n) if mask >> v & 1))
        ok &= set(maximal_independent_sets(g)) == expected
    for _ in range(500):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.25]
        d = digraph(n, edges)
        cd = strongly_connected_condensation(d)
        reach = [1 << v for v in range(n)]
        for u, v in d.edges:
            reach[u] |= 1 << v
        for k in range(n):
            for v in range(n):
                if reach[v] >> k & 1:
                    reach[v] |= reach[k]
        for u in range(n):
            comps = support.reachable_set(cd, cd.component_of[u])
            for v in range(n):
                ok &= (reach[u] >> v & 1) == (cd.component_of[v] in comps)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report(7, f"500 Bron-Kerbosch + 500 SCC oracle runs in {elapsed:.1f}s", ok)


def test_criterion_8_figures_byte_exact():
    jobs = [
        ("fig1_graham_houghton.dot",
         ["dot", os.path.join(DATA, "rzms_s4.json"), "--graph", "gh"], 11),
        ("fig3_delta.dot",
         ["dot", os.path.join(DATA, "w_t7.json"), "--graph", "delta",
          "--jclass-of-generator", "1"], 10),
        ("fig4_theta.dot",
         ["dot", os.path.join(DATA, "w_t7.json"), "--graph", "theta",
          "--jclass-of-generator", "1"], 2),
    ]
    ok = True
    for name, args, edge_count in jobs:
        buf = io.StringIO()
        code = cli_run(args, buf)
        text = buf.getvalue()
        with open(os.path.join(GOLDEN, name)) as f:
            ok &= code == 0 and text == f.read()
        ok &= text.count(" -- ") == edge_count
    report(8, "figures 1, 3, 4 match the golden DOT files byte for byte", ok)
