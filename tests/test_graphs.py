import itertools
import random

import pytest

from maxsemi import errors
from maxsemi.graphs import (
    connected_components,
    digraph,
    graph,
    maximal_independent_sets,
    sources,
    strongly_connected_condensation,
    to_dot,
)
from support import reachable_set


def brute_force_mis(g):
    """Oracle: check every subset for independence and maximality."""
    n = g.vertex_count
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    result = []
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if mask >> v & 1 and adj[v] & mask:
                ok = False
                break
        if not ok:
            continue
        if any(not mask >> v & 1 and not adj[v] & mask for v in range(n)):
            continue
        result.append(frozenset(v for v in range(n) if mask >> v & 1))
    return set(result)


def transitive_closure_pairs(d):
    """Oracle: Floyd-Warshall reachability on the raw digraph."""
    n = d.vertex_count
    reach = [1 << v for v in range(n)]
    for u, v in d.edges:
        reach[u] |= 1 << v
    for k in range(n):
        for v in range(n):
            if reach[v] >> k & 1:
                reach[v] |= reach[k]
    return reach


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph(n, edges)


def random_digraph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return digraph(n, edges)


class TestConnectedComponents:
    def test_edgeless(self):
        assert connected_components(graph(4, [])) == [
            frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})]

    def test_complete(self):
        k4 = graph(4, itertools.combinations(range(4), 2))
        assert connected_components(k4) == [frozenset(range(4))]

    def test_two_parts(self):
        g = graph(5, [(0, 1), (1, 2), (3, 4)])
        assert connected_components(g) == [frozenset({0, 1, 2}), frozenset({3, 4})]


class TestCondensation:
    def test_cycle(self):
        cd = strongly_connected_condensation(digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert cd.component_count == 1
        assert not cd.edges

    def test_path(self):
        cd = strongly_connected_condensation(digraph(3, [(0, 1), (1, 2)]))
        assert cd.component_count == 3
        assert len(cd.edges) == 2

    def test_acyclic_and_reachability_match(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(1, 12)
            d = random_digraph(rng, n, rng.uniform(0.05, 0.5))
            cd = strongly_connected_condensation(d)
            reach = transitive_closure_pairs(d)
            # mutual reachability <=> same component
            for u in range(n):
                for v in range(n):
                    together = reach[u] >> v & 1 and reach[v] >> u & 1
                    assert together == (cd.component_of[u] == cd.component_of[v])
            # condensation reachability mirrors the base digraph
            for u in range(n):
                cu = cd.component_of[u]
                reachable_comps = reachable_set(cd, cu)
                for v in range(n):
                    assert (reach[u] >> v & 1) == (cd.component_of[v] in reachable_comps)
            # acyclicity: no component reaches itself through an edge path
            for a, b in cd.edges:
                assert a not in reachable_set(cd, b)

    def test_sources(self):
        cd = strongly_connected_condensation(digraph(4, [(0, 1), (2, 1), (1, 3)]))
        src = sources(cd)
        assert [min(cd.components[k]) for k in src] == [0, 2]

    def test_single_vertex(self):
        cd = strongly_connected_condensation(digraph(1, []))
        assert sources(cd) == [0]
        assert reachable_set(cd, 0) == frozenset({0})


class TestMaximalIndependentSets:
    def test_path(self):
        sets = maximal_independent_sets(graph(3, [(0, 1), (1, 2)]))
        assert set(sets) == {frozenset({0, 2}), frozenset({1})}

    def test_complete_graph(self):
        k4 = graph(4, itertools.combinations(range(4), 2))
        assert set(maximal_independent_sets(k4)) == {
            frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})}

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(500):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.7))
            got = maximal_independent_sets(g)
            assert len(got) == len(set(got))
            assert set(got) == brute_force_mis(g)

    def test_capacity(self):
        with pytest.raises(errors.CapacityError):
            maximal_independent_sets(graph(65, []))


def delta_example():
    """The 8-vertex bipartite graph and the reachability digraph from the
    T7 worked example: vertices 0-3 are the Gamma_L components, 4-7 the
    Gamma_R components."""
    delta = graph(8, [(0, 6), (0, 7), (1, 4), (1, 6), (1, 7),
                      (2, 4), (2, 5), (2, 7), (3, 5), (3, 6)])
    flow = digraph(8, [(2, 0), (1, 0), (1, 3), (0, 3), (5, 6), (6, 7)])
    return delta, flow


def networkx_mis(g):
    """Independent reference: maximal cliques of the complement, found by
    networkx, sorted like maximal_independent_sets."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return sorted((frozenset(c) for c in nx.find_cliques(nx.complement(h))), key=sorted)


class TestClosedIndependentSets:
    def test_no_closure_edges_matches_plain(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, 0.4)
            empty = digraph(n, [])
            expected = networkx_mis(g)
            assert maximal_independent_sets(g, empty) == expected
            assert maximal_independent_sets(g) == expected

    def test_delta_example_seven_sets_two_closed_two_sided(self):
        delta, flow = delta_example()
        assert len(maximal_independent_sets(delta)) == 7
        closed = maximal_independent_sets(delta, flow)
        # the two one-sided vertex families are trivially closed; the
        # interesting pair mixes the sides
        assert set(closed) == {
            frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}),
            frozenset({0, 3, 4}), frozenset({3, 4, 7})}
        two_sided = [s for s in closed if s & {0, 1, 2, 3} and s & {4, 5, 6, 7}]
        assert set(two_sided) == {frozenset({0, 3, 4}), frozenset({3, 4, 7})}

    def test_complete_graph_closed_singletons(self):
        k3 = graph(3, [(0, 1), (0, 2), (1, 2)])
        flow = digraph(3, [(0, 1)])
        # singletons are maximal; only those closed under the flow survive
        assert set(maximal_independent_sets(k3, flow)) == {
            frozenset({1}), frozenset({2})}

    def test_matches_filtered_enumeration(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
            flow = random_digraph(rng, n, 0.2)
            reach = nx.DiGraph()
            reach.add_nodes_from(range(n))
            reach.add_edges_from(flow.edges)
            expected = [
                s for s in networkx_mis(g)
                if all(nx.descendants(reach, v) <= s for v in s)
            ]
            assert maximal_independent_sets(g, flow) == expected


class TestDot:
    def test_empty_graph(self):
        text = to_dot(graph(0, []))
        assert text == "graph G {\n}\n"

    def test_deterministic(self):
        g = graph(3, [(2, 1), (0, 2)])
        assert to_dot(g) == to_dot(graph(3, [(0, 2), (1, 2)]))

    def test_digraph_arrows(self):
        text = to_dot(digraph(2, [(0, 1)]))
        assert '"0" -> "1";' in text

    def test_condensed_colour_styling(self):
        cd = strongly_connected_condensation(digraph(2, [(0, 1)]))
        cd = cd.with_colour([1, 0])
        text = to_dot(cd, labels=["a", "b"])
        assert 'label="{a}", style=filled' in text
        assert 'label="{b}"];' in text
