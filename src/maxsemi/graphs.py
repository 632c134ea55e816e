"""Pure graph layer: components, SCC condensation, maximal independent sets.

Vertices are dense integers 0..n-1.  There is one independent-set
enumerator: Bron-Kerbosch (Algorithm 457, with pivoting and a
degeneracy-ordered outer loop) on the complement, over bitmask adjacency,
so it is capped at 64 vertices.  An optional digraph prunes it to the
sets closed under reachability; without one every branch is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import CapacityError, InputError

INDEPENDENT_SET_VERTEX_BOUND = 64


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset  # pairs (u, v) with u < v


@dataclass(frozen=True)
class Digraph:
    vertex_count: int
    edges: frozenset  # ordered pairs (u, v), u != v


def graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    norm = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"loop at vertex {u} not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InputError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        norm.add((u, v) if u < v else (v, u))
    return Graph(vertex_count, frozenset(norm))


def digraph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    norm = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"loop at vertex {u} not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InputError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        norm.add((u, v))
    return Digraph(vertex_count, frozenset(norm))


def adjacency(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def out_neighbours(d: Digraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(d.vertex_count)]
    for u, v in d.edges:
        adj[u].add(v)
    return adj


def connected_components(g: Graph) -> list[frozenset]:
    """Partition of the vertices into connected components, ordered by
    smallest member."""
    adj = adjacency(g)
    seen = [False] * g.vertex_count
    parts = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        parts.append(frozenset(comp))
    return parts


def _tarjan_sccs(n: int, adj: Sequence[Sequence[int]]) -> list[list[int]]:
    # Iterative Tarjan; recursion depth would be a liability on long chains.
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbours = adj[v]
            while pi < len(neighbours):
                w = neighbours[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


@dataclass(frozen=True)
class CondensedDigraph:
    """Acyclic quotient of a digraph by its strongly connected components.

    ``components[k]`` holds the original vertices of component k, and
    ``component_of[v]`` maps back.  ``colour`` is a 0/1 marking used by the
    J-class machinery; fresh condensations are all-zero.
    """

    base: Digraph
    components: tuple[frozenset, ...]
    edges: frozenset  # pairs (a, b) of component indices
    component_of: tuple[int, ...]
    colour: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    def with_colour(self, colour: Sequence[int]) -> "CondensedDigraph":
        if len(colour) != len(self.components):
            raise InputError("colour sequence length must match component count")
        return replace(self, colour=tuple(int(c) for c in colour))


def strongly_connected_condensation(d: Digraph) -> CondensedDigraph:
    adj: list[list[int]] = [[] for _ in range(d.vertex_count)]
    for u, v in sorted(d.edges):
        adj[u].append(v)
    raw = _tarjan_sccs(d.vertex_count, adj)
    raw.sort(key=min)
    comp_of = [0] * d.vertex_count
    for k, comp in enumerate(raw):
        for v in comp:
            comp_of[v] = k
    edges = frozenset(
        (comp_of[u], comp_of[v]) for u, v in d.edges if comp_of[u] != comp_of[v]
    )
    return CondensedDigraph(
        base=d,
        components=tuple(frozenset(c) for c in raw),
        edges=edges,
        component_of=tuple(comp_of),
        colour=tuple([0] * len(raw)),
    )


def sources(cd: CondensedDigraph, kept: Optional[Iterable[int]] = None) -> list[int]:
    """Component indices with no incoming edge, ascending.  Given ``kept``,
    the sources of the subgraph induced on those components."""
    kept = range(cd.component_count) if kept is None else set(kept)
    has_in = {b for a, b in cd.edges if a in kept and b in kept}
    return [k for k in sorted(kept) if k not in has_in]


# ---------------------------------------------------------------------------
# Maximal independent sets

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _degeneracy_order(adj: list[int], n: int) -> list[int]:
    removed = 0
    order = []
    for _ in range(n):
        best, best_deg = -1, n + 1
        for v in range(n):
            if removed >> v & 1:
                continue
            deg = bin(adj[v] & ~removed).count("1")
            if deg < best_deg:
                best, best_deg = v, deg
        order.append(best)
        removed |= 1 << best
    return order


def _bron_kerbosch(
    adj: list[int], desc: list[int], r: int, need: int, p: int, x: int, out: list[int]
) -> None:
    # Any clique grown from here lies between r and r|p; if the vertices
    # forced in by closure cannot all fit, no closed result survives below.
    if need & ~(r | p):
        return
    if p == 0 and x == 0:
        if need & ~r == 0:
            out.append(r)
        return
    pivot, best = -1, -1
    for u in _bits(p | x):
        c = bin(p & adj[u]).count("1")
        if c > best:
            pivot, best = u, c
    for v in _bits(p & ~adj[pivot]):
        bit = 1 << v
        _bron_kerbosch(adj, desc, r | bit, need | desc[v], p & adj[v], x & adj[v], out)
        p &= ~bit
        x |= bit


def maximal_independent_sets(g: Graph, closure: Optional[Digraph] = None) -> list[frozenset]:
    """All maximal independent sets of ``g`` (maximal cliques of the
    complement), each exactly once, sorted.

    With a ``closure`` digraph on the same vertices, only the sets that
    are downward closed under its reachability are kept: if u is in the
    set and u reaches v, then v is in the set.  Maximality is still in
    ``g``, among all independent sets.  No digraph means an edgeless one,
    under which every set is closed.
    """
    n = g.vertex_count
    if n > INDEPENDENT_SET_VERTEX_BOUND:
        raise CapacityError(
            f"independent-set enumeration supported up to "
            f"{INDEPENDENT_SET_VERTEX_BOUND} vertices, got {n}",
            bound=INDEPENDENT_SET_VERTEX_BOUND,
        )
    if closure is not None and closure.vertex_count != n:
        raise InputError("closure digraph must share the graph's vertex set")
    if n == 0:
        return [frozenset()]
    # desc[v]: v and every vertex it reaches, which a closed set holding v needs
    desc = [1 << v for v in range(n)]
    if closure is not None:
        succ = out_neighbours(closure)
        for v in range(n):
            stack = [v]
            while stack:
                for b in succ[stack.pop()]:
                    if not desc[v] >> b & 1:
                        desc[v] |= 1 << b
                        stack.append(b)
    full = (1 << n) - 1
    comp = [full & ~(1 << v) for v in range(n)]
    for u, v in g.edges:
        comp[u] &= ~(1 << v)
        comp[v] &= ~(1 << u)
    out: list[int] = []
    p = full
    x = 0
    for v in _degeneracy_order(comp, n):
        bit = 1 << v
        _bron_kerbosch(comp, desc, bit, desc[v], p & comp[v], x & comp[v], out)
        p &= ~bit
        x |= bit
    sets = [frozenset(_bits(m)) for m in out]
    return sorted(sets, key=sorted)


# ---------------------------------------------------------------------------
# DOT export

def _label_of(labels, v) -> str:
    return str(v) if labels is None else str(labels[v])


def to_dot(
    obj: Union[Graph, Digraph, CondensedDigraph],
    labels: Optional[Union[Mapping, Sequence]] = None,
    name: str = "G",
) -> str:
    """Deterministic DOT text.  Vertices and edges are emitted in sorted
    order so identical inputs always produce identical bytes.  For a
    condensed digraph, components with colour 1 are drawn filled."""
    lines = []
    if isinstance(obj, Graph):
        lines.append(f"graph {name} {{")
        for v in range(obj.vertex_count):
            lines.append(f'  "{v}" [label="{_label_of(labels, v)}"];')
        for u, v in sorted(obj.edges):
            lines.append(f'  "{u}" -- "{v}";')
    elif isinstance(obj, Digraph):
        lines.append(f"digraph {name} {{")
        for v in range(obj.vertex_count):
            lines.append(f'  "{v}" [label="{_label_of(labels, v)}"];')
        for u, v in sorted(obj.edges):
            lines.append(f'  "{u}" -> "{v}";')
    elif isinstance(obj, CondensedDigraph):
        lines.append(f"digraph {name} {{")
        for k, comp in enumerate(obj.components):
            label = "{" + ",".join(_label_of(labels, v) for v in sorted(comp)) + "}"
            style = ", style=filled, fillcolor=lightgray" if obj.colour[k] else ""
            lines.append(f'  "{k}" [label="{label}"{style}];')
        for a, b in sorted(obj.edges):
            lines.append(f'  "{a}" -> "{b}";')
    else:
        raise InputError(f"cannot render {type(obj).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
