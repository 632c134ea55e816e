"""Finite semigroup foundation.

Elements live in a ``FiniteSemigroup`` as an indexed list of hashable
payloads (transformations, Rees-matrix triples, or bare table indices)
discovered by breadth-first closure of the generators.  The payload
multiply must be associative; it runs only in ``closure``, which records
the right Cayley graph (every product a * g with a generator), and is not
kept.  Later products are integer lookups: a * b walks a along b's
word in the right graph, the left graph follows from the right one, and
each table row is an earlier row gathered through the left graph
(Froidure & Pin, "Algorithms for computing finite semigroups", 1997).

Subsemigroups generated by element indices all come from one walk,
``closure_with_ideal``, which multiplies on the right only and leaves a
given two-sided ideal unwalked: ``closure_of_indices`` is that walk with
the empty ideal and ``span_at_or_above`` with the ideal of the elements
not above a J-class.

Green's relations are the strongly connected components of the right and
left Cayley graphs, which is valid in any finite semigroup by stability;
the J order is the condensation of the two graphs together.

``principal_factor_iso`` realises the Rees theorem concretely: a regular
J-class is coordinatised as I x G x Lambda by fixing an idempotent e,
choosing row representatives in R_i n L_e and column representatives in
L_lam n R_e, and reading the structure matrix off their products.  The
group H_e and its table come from the semigroup's products on H_e.
Every coordinatisation is checked when it is built, at any size, by
``rees_matrix.check_iso``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapacityError, InputError
from .graphs import Digraph, _tarjan_sccs, digraph
from .perm_group import Permutation, _group_from_table
from .rees_matrix import ReesZeroMatrixSemigroup, check_iso, generating_set, right_cover

CLOSURE_BOUND = 100_000
TABLE_BOUND = 2048


@dataclass(frozen=True, order=True)
class Transformation:
    """Map {0,...,n-1} -> {0,...,n-1}; products compose left to right."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if any(not 0 <= x < n for x in self.images):
            raise InputError(f"image out of range in transformation {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Transformation") -> "Transformation":
        if other.degree != self.degree:
            raise InputError("cannot compose transformations of different degrees")
        o = other.images
        return Transformation(tuple(o[i] for i in self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def rank(self) -> int:
        return len(set(self.images))

    @classmethod
    def one_based(cls, row: Sequence[int]) -> "Transformation":
        return cls(tuple(x - 1 for x in row))

    def __repr__(self):
        return f"Transformation({self.images})"


class FiniteSemigroup:
    """Indexed finite semigroup.

    ``elements`` is the payload list in discovery order and ``product``
    works on indices; no payload multiply is kept.  Semigroups come from
    ``closure``, which records the right Cayley graph, or from
    ``from_table``, which has its table.  ``cayley_graphs`` adds the left
    graph lazily.  The full multiplication table is materialised lazily,
    only below ``TABLE_BOUND`` elements, gathered row by row through the
    left graph; without it ``product`` walks the right graph.
    """

    def __init__(self, elements: Sequence, generator_indices: Sequence[int]):
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self._index = {x: k for k, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise InputError("duplicate elements in semigroup")
        self._table: Optional[list] = None
        # the right Cayley graph, set by closure: _right[k][a] is the index
        # of a * g_k, where g_k is element k (the m distinct generators come
        # first), and every element b >= m is _pre[b] * g_(_last[b]) with
        # _pre[b] < b; on generator k, _pre is -1 and _last is k
        self._right: Optional[list] = None
        self._pre: Optional[list] = None
        self._last: Optional[list] = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, payload) -> int:
        try:
            return self._index[payload]
        except KeyError:
            raise InputError(f"{payload!r} is not an element of this semigroup") from None

    def product(self, i: int, j: int) -> int:
        """i * j from the table once it is built.  Otherwise j = g_k0 g_k1 ...
        g_kr, its word read back along ``_last`` and ``_pre``, and associativity
        gives i * j = (...((i * g_k0) * g_k1)...) * g_kr in the right graph."""
        if self._table is not None:
            return self._table[i][j]
        right, pre, last = self._right, self._pre, self._last
        word = []
        while j >= 0:
            word.append(last[j])
            j = pre[j]
        for k in reversed(word):
            i = right[k][i]
        return i

    @cached_property
    def cayley_graphs(self) -> tuple[list, list]:
        """(right, left): ``right[k][a]`` is a * g_k and ``left[k][a]`` is
        g_k * a, for the distinct generators g_k in order.  ``closure``
        records the right graph and the left one follows by n * m lookups:
        g_k * g_j is right[j][k], and associativity gives g_k * b =
        (g_k * pre[b]) * g_last[b] with pre[b] < b.  A ``from_table``
        semigroup reads both off its table: its generators' columns and rows.
        """
        if self._right is None:
            rows, gens = self._table, list(dict.fromkeys(self.generator_indices))
            return [[row[g] for row in rows] for g in gens], [rows[g] for g in gens]
        right, m = self._right, len(self._right)
        left = [[right[j][k] for j in range(m)] for k in range(m)]
        for row in left:
            for p, q in zip(self._pre[m:], self._last[m:]):
                row.append(right[q][row[p]])
        return right, left

    def table(self) -> list:
        """Full index-level multiplication table (only below TABLE_BOUND).

        With x = pre[x] * g_k, k = last[x], associativity gives x * b =
        pre[x] * (g_k * b), so row x of the table is row pre[x] read at the
        positions left[k], the left Cayley graph of g_k: one C-level
        ``itemgetter`` gather per row, with pre[x] < x.  The row of
        generator k is left[k] itself.
        """
        if self._table is None:
            if self.size > TABLE_BOUND:
                raise CapacityError(
                    f"full table supported up to {TABLE_BOUND} elements, got {self.size}",
                    bound=TABLE_BOUND,
                )
            left = self.cayley_graphs[1]
            gather = [itemgetter(*row) for row in left]
            table = list(left)
            for p, k in zip(self._pre[len(left):], self._last[len(left):]):
                table.append(list(gather[k](table[p])))
            self._table = table
        return self._table

    def __repr__(self):
        return f"FiniteSemigroup(size={self.size}, generators={len(self.generator_indices)})"


def closure(gens: Sequence, mul: Callable, max_size: int = CLOSURE_BOUND) -> FiniteSemigroup:
    """Semigroup generated by ``gens`` under the associative ``mul``.

    Elements are listed in breadth-first discovery order, so the result
    is deterministic for a fixed input order.  The walk multiplies every
    element by every distinct generator and keeps those products as the
    right Cayley graph, from which every later product is derived.
    """
    if not gens:
        raise InputError("closure requires at least one generator")
    elements = []
    index = {}
    for g in gens:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
    if len(elements) > max_size:
        raise CapacityError(f"closure exceeded {max_size} elements", bound=max_size)
    gen_payloads = list(elements)
    right: list[list[int]] = [[] for _ in gen_payloads]
    pre = [-1] * len(gen_payloads)
    last = list(range(len(gen_payloads)))
    a = 0
    while a < len(elements):  # discovery order is breadth-first order
        x = elements[a]
        for k, g in enumerate(gen_payloads):
            b = mul(x, g)
            kb = index.get(b)
            if kb is None:
                if len(elements) >= max_size:
                    raise CapacityError(
                        f"closure exceeded {max_size} elements", bound=max_size)
                kb = index[b] = len(elements)
                elements.append(b)
                pre.append(a)
                last.append(k)
            right[k].append(kb)
        a += 1
    sg = FiniteSemigroup(elements, [index[g] for g in gens])
    sg._right, sg._pre, sg._last = right, pre, last
    return sg


def from_table(
    table: Sequence[Sequence[int]],
    generator_indices: Optional[Sequence[int]] = None,
) -> FiniteSemigroup:
    """Semigroup from an n x n Cayley table of 0-based indices.

    When generators are given, they must actually generate everything.
    Associativity is checked exactly by Light's test (Clifford & Preston,
    vol. 1): (x a) y = x (a y) for all x, y and every a in a set A whose
    right-multiplication closure covers the table, which costs
    O(n^2 |A|).  A is the given generators, or else the greedy
    ``right_cover`` of the table.
    Violations are input errors.
    """
    n = len(table)
    if n == 0:
        raise InputError("empty multiplication table")
    rows = [list(r) for r in table]
    for r in rows:
        if len(r) != n or any(not 0 <= x < n for x in r):
            raise InputError("table must be square with entries in 0..n-1")

    def times(a, b):
        return rows[a][b]

    if generator_indices is None:
        generator_indices = list(range(n))
        light_set, _ = right_cover(times, range(n))
    else:
        generator_indices = list(generator_indices)
        if any(not 0 <= g < n for g in generator_indices):
            raise InputError("generator indices must lie in 0..n-1")
        light_set, reached = right_cover(times, generator_indices)
        if len(reached) != n:
            raise InputError("given generators do not generate the whole table")

    # the elements a with (x a) y = x (a y) for all x, y form a
    # subsemigroup, so checking a generating set checks every a
    for a in light_set:
        row_a = rows[a]
        for x in range(n):
            xa_row = rows[rows[x][a]]
            x_row = rows[x]
            if xa_row != [x_row[b] for b in row_a]:
                y = next(y for y in range(n) if xa_row[y] != x_row[row_a[y]])
                raise InputError(f"table is not associative at ({x}, {a}, {y})")

    sg = FiniteSemigroup(list(range(n)), generator_indices)
    sg._table = rows
    return sg


def semigroup_from_rzms(rzms: ReesZeroMatrixSemigroup) -> FiniteSemigroup:
    """The Rees 0-matrix semigroup as a FiniteSemigroup, generated by a
    compact verified generating set."""
    gens = generating_set(rzms)
    sg = closure(gens, rzms.multiply)
    if sg.size != rzms.size:
        raise AssertionError("generating set failed to generate the whole semigroup")
    return sg


# ---------------------------------------------------------------------------
# Green's relations

@dataclass(frozen=True)
class GreensStructure:
    r_class: tuple[int, ...]  # element index -> class id
    l_class: tuple[int, ...]
    h_class: tuple[int, ...]
    j_class: tuple[int, ...]
    r_classes: tuple[tuple[int, ...], ...]  # class id -> sorted member indices
    l_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    j_order: Digraph  # edge J -> J' iff J > J' (direct edges; reachability = ideal order)
    j_reach: tuple[frozenset, ...]  # J-ids reachable from each J-id, incl. itself
    regular_j: tuple[bool, ...]
    idempotents: frozenset

    @cached_property
    def _maximal_js(self) -> frozenset:
        below_something = set()
        for k in range(len(self.j_classes)):
            below_something |= self.j_reach[k] - {k}
        return frozenset(set(range(len(self.j_classes))) - below_something)

    def maximal_j_classes(self) -> frozenset:
        return self._maximal_js


def _classes_from_partition(n: int, parts: Iterable[Iterable[int]]):
    """Class ids numbered by least member, and each class sorted."""
    ordered = sorted(map(sorted, parts))  # disjoint, so this orders by min
    class_of = [0] * n
    for cid, members in enumerate(ordered):
        for v in members:
            class_of[v] = cid
    return tuple(class_of), tuple(tuple(m) for m in ordered)


def greens_structure(sg: FiniteSemigroup) -> GreensStructure:
    n = sg.size
    right, left = sg.cayley_graphs
    # a's edges lead to its images under the generators, loops dropped
    right_adj, left_adj = (
        [[b for b in images if b != a] for a, images in enumerate(zip(*graph))]
        for graph in (right, left))
    both_adj = [r + l for r, l in zip(right_adj, left_adj)]

    r_class, r_classes = _classes_from_partition(n, _tarjan_sccs(n, right_adj))
    l_class, l_classes = _classes_from_partition(n, _tarjan_sccs(n, left_adj))
    h_parts: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        h_parts.setdefault((r_class[v], l_class[v]), []).append(v)
    h_class, h_classes = _classes_from_partition(n, h_parts.values())
    j_class, j_classes = _classes_from_partition(n, _tarjan_sccs(n, both_adj))

    jn = len(j_classes)
    j_edges = set()
    for a in range(n):
        ja = j_class[a]
        for b in both_adj[a]:
            jb = j_class[b]
            if ja != jb:
                j_edges.add((ja, jb))
    j_order = digraph(jn, j_edges)
    succ: list[list[int]] = [[] for _ in range(jn)]
    for a, b in j_order.edges:
        succ[a].append(b)
    j_reach = []
    for j in range(jn):
        seen = {j}
        stack = [j]
        while stack:
            a = stack.pop()
            for b in succ[a]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        j_reach.append(frozenset(seen))

    idem = frozenset(i for i in range(n) if sg.product(i, i) == i)
    regular = tuple(any(e in idem for e in members) for members in j_classes)

    return GreensStructure(
        r_class=r_class, l_class=l_class, h_class=h_class, j_class=j_class,
        r_classes=r_classes, l_classes=l_classes, h_classes=h_classes,
        j_classes=j_classes, j_order=j_order, j_reach=tuple(j_reach),
        regular_j=regular, idempotents=idem,
    )


def x_prime(sg: FiniteSemigroup, gs: GreensStructure, j: int) -> tuple[int, ...]:
    """Generators whose J-class lies strictly above ``j``."""
    return tuple(
        g for g in sg.generator_indices
        if gs.j_class[g] != j and j in gs.j_reach[gs.j_class[g]]
    )


def ideal_below_generators(sg: FiniteSemigroup, gs: GreensStructure, j: int) -> tuple[int, ...]:
    """The elements of the ideal formed by the J-classes strictly below
    ``j``.  The union is a two-sided ideal of the semigroup (any product
    with a factor there stays there), so the set generates itself."""
    below = gs.j_reach[j] - {j}
    return tuple(sorted(
        e for jc in below for e in gs.j_classes[jc]
    ))


def closure_with_ideal(
    sg: FiniteSemigroup, ideal: frozenset, extra: Iterable[int]
) -> frozenset:
    """<ideal u extra> when ``ideal`` is a two-sided ideal of sg.

    This is the one index-level closure walk.  It multiplies on the right
    only: every word x1...xk is reached through its prefixes, and a prefix
    that falls into the ideal keeps the whole word there, so the closure
    is exactly ideal u <extra minus ideal> and only that part is walked.
    """
    gens = [g for g in dict.fromkeys(extra) if g not in ideal]
    members = set(gens)
    queue = list(gens)
    while queue:
        frontier = []
        for a in queue:
            for g in gens:
                b = sg.product(a, g)
                if b not in members and b not in ideal:
                    members.add(b)
                    frontier.append(b)
        queue = frontier
    return frozenset(members) | ideal


def closure_of_indices(sg: FiniteSemigroup, indices: Iterable[int]) -> frozenset:
    """Subsemigroup generated by the given element indices."""
    return closure_with_ideal(sg, frozenset(), indices)


def span_at_or_above(
    sg: FiniteSemigroup, gs: GreensStructure, j: int, gen_indices: Sequence[int]
) -> frozenset:
    """Elements of <gens> whose J-class is >= j.

    The elements whose J-class is not >= j form an ideal (a product's
    J-class is below each factor's), so this is the closure walk with
    that ideal split off, minus the ideal.
    """
    below = frozenset(e for e in range(sg.size) if j not in gs.j_reach[gs.j_class[e]])
    return closure_with_ideal(sg, below, gen_indices) - below


# ---------------------------------------------------------------------------
# Group H-classes and the principal factor

def group_h_class_as_permgroup(sg: FiniteSemigroup, h_class: Sequence[int]):
    """Right-regular action of a group H-class on itself.

    Returns ``(group, to_perm, from_perm)`` where ``to_perm`` maps element
    indices to permutations of 0..|H|-1 and the correspondence is an
    isomorphism: ``to_perm[sg.product(a, b)] == to_perm[a] * to_perm[b]``.
    The group's table is the semigroup's product on H, which the action
    has already read, so no two permutations are multiplied.
    """
    members = sorted(h_class)
    if not any(sg.product(e, e) == e for e in members):
        raise InputError("H-class has no idempotent, so it is not a group")
    pos = {e: k for k, e in enumerate(members)}
    to_perm = {}
    for h in members:
        images = []
        for x in members:
            y = sg.product(x, h)
            if y not in pos:
                raise InputError("H-class is not closed under multiplication")
            images.append(pos[y])
        to_perm[h] = Permutation(tuple(images))
    if len(set(to_perm.values())) != len(members):
        raise InputError("right-regular action is not faithful; not a group H-class")
    # in the group's Permutation order; members[a] * members[b] is at images[a] of b
    order = sorted(range(len(members)), key=lambda a: to_perm[members[a]])
    rank = {a: r for r, a in enumerate(order)}
    products = [[rank[to_perm[members[b]].images[a]] for b in order] for a in order]
    group = _group_from_table(len(members), [to_perm[members[a]] for a in order], products)
    from_perm = {p: h for h, p in to_perm.items()}
    return group, to_perm, from_perm


@dataclass(frozen=True)
class PrincipalFactorIso:
    """Isomorphism from a regular principal factor J* onto a Rees
    0-matrix semigroup.  ``forward`` maps element indices of J to triples;
    the zero of the factor corresponds to every product that leaves J."""

    j_class: int
    target: ReesZeroMatrixSemigroup
    forward: dict
    backward: dict


def elements_by_pair(gs: GreensStructure, j: int) -> dict[tuple[int, int], list[int]]:
    """The members of J-class ``j`` grouped by H-class, keyed by the pair
    (R-class id, L-class id); each list is in increasing order."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for e in gs.j_classes[j]:  # members are listed in increasing order
        by_pair.setdefault((gs.r_class[e], gs.l_class[e]), []).append(e)
    return by_pair


def principal_factor_iso(sg: FiniteSemigroup, gs: GreensStructure, j: int) -> PrincipalFactorIso:
    if not gs.regular_j[j]:
        raise InputError(
            f"J-class {j} is not regular; its principal factor is null "
            "(handled by the S1 branch, not by a Rees matrix)")
    members = gs.j_classes[j]
    member_set = set(members)
    r_ids = sorted({gs.r_class[e] for e in members})
    l_ids = sorted({gs.l_class[e] for e in members})
    e0 = min(e for e in members if e in gs.idempotents)
    re, le = gs.r_class[e0], gs.l_class[e0]
    by_pair = elements_by_pair(gs, j)

    row_reps = [min(by_pair[(r, le)]) for r in r_ids]      # r_i in R_i n L_e
    col_reps = [min(by_pair[(re, l)]) for l in l_ids]      # q_lam in L_lam n R_e

    h_members = by_pair[(re, le)]
    group, to_perm, from_perm = group_h_class_as_permgroup(sg, h_members)

    matrix = []
    for q in col_reps:
        row = []
        for r in row_reps:
            p = sg.product(q, r)
            row.append(to_perm[p] if p in member_set else None)
        matrix.append(tuple(row))
    target = ReesZeroMatrixSemigroup(group, tuple(matrix))

    forward = {}
    for i, r in enumerate(row_reps):
        for h in h_members:
            rh = sg.product(r, h)
            perm = to_perm[h]
            for lam, q in enumerate(col_reps):
                x = sg.product(rh, q)
                forward[x] = (i, perm, lam)
    if len(forward) != len(members) or set(forward) != member_set:
        raise AssertionError("principal factor coordinatisation is not a bijection")
    backward = {t: e for e, t in forward.items()}

    def times(a, b):  # the product of the principal factor; None is its zero
        ab = sg.product(a, b)
        return ab if gs.j_class[ab] == j else None

    index = group.mul_table[0]
    check_iso({e: (i, index[g], lam) for e, (i, g, lam) in forward.items()}, times, target)
    return PrincipalFactorIso(
        j_class=j, target=target, forward=forward, backward=backward)
