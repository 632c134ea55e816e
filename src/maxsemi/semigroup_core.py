"""Finite semigroup foundation.

Elements live in a ``FiniteSemigroup`` as an indexed list of hashable
payloads (transformations, Rees-matrix triples, or bare table indices)
discovered by breadth-first closure of the generators.  The payload
multiply must be associative.  It runs only in ``closure``, which records
the right Cayley graph (every product a * g with a generator), and in
``FiniteSemigroup.product`` on semigroups above ``TABLE_BOUND``; the
multiplication table follows from that graph by integer lookups alone
(Froidure & Pin, "Algorithms for computing finite semigroups", 1997).

Green's relations are computed as strongly connected components of the
one-sided Cayley graphs, which is valid in any finite semigroup by
stability; the J order is the condensation of the two-sided Cayley graph.

``principal_factor_iso`` realises the Rees theorem concretely: a regular
J-class is coordinatised as I x G x Lambda by fixing an idempotent e,
choosing row representatives in R_i n L_e and column representatives in
L_lam n R_e, and reading the structure matrix off their products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapacityError, InputError
from .graphs import Digraph, _tarjan_sccs, digraph
from .perm_group import PermGroup, Permutation, _small_generating_set
from .rees_matrix import ReesZeroMatrixSemigroup, generating_set

CLOSURE_BOUND = 100_000
TABLE_BOUND = 2048
_TABLE_BLOCK = 64  # table rows derived per pass of FiniteSemigroup.table


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
    works on indices.  ``mul`` must be associative.  Semigroups come from
    ``closure``, which records the right Cayley graph, or from
    ``from_table``, which has its table.  The full multiplication table is
    materialised lazily, only below ``TABLE_BOUND`` elements, and derived
    from the right Cayley graph without multiplying payloads; larger
    semigroups multiply payloads in ``product``.
    """

    def __init__(self, elements: Sequence, mul: Callable, generator_indices: Sequence[int]):
        self.elements = tuple(elements)
        self._mul = mul
        self.generator_indices = tuple(generator_indices)
        self._index = {x: k for k, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise InputError("duplicate elements in semigroup")
        self._table: Optional[list] = None
        # the right Cayley graph, set by closure: _right[k][a] is the index
        # of a * g_k, where g_k is element k (the m distinct generators come
        # first), and every element b >= m is _pre[b] * g_(_last[b]) with
        # _pre[b] < b (both are -1 on the generators)
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
        if self._table is not None:
            return self._table[i][j]
        return self._index[self._mul(self.elements[i], self.elements[j])]

    def table(self) -> list:
        """Full index-level multiplication table (only below TABLE_BOUND).

        With b = pre[b] * g_last[b], associativity gives a * b =
        (a * pre[b]) * g_last[b], so column b of the table is column
        pre[b] mapped through the right Cayley graph of g_last[b]; the
        column of generator k is that graph itself.  The columns are
        filled for ``_TABLE_BLOCK`` rows at a time and transposed into
        rows, so the table is never held twice.
        """
        if self._table is None:
            if self.size > TABLE_BOUND:
                raise CapacityError(
                    f"full table supported up to {TABLE_BOUND} elements, got {self.size}",
                    bound=TABLE_BOUND,
                )
            if self._right is None:
                raise InputError("the table needs a semigroup built by closure or from_table")
            right = self._right
            m = len(right)
            steps = [(p, right[k].__getitem__)
                     for p, k in zip(self._pre[m:], self._last[m:])]
            table = []
            for start in range(0, self.size, _TABLE_BLOCK):
                cols = [col[start:start + _TABLE_BLOCK] for col in right]
                add = cols.append
                for p, right_of_last in steps:
                    add(list(map(right_of_last, cols[p])))
                table.extend(map(list, zip(*cols)))
            self._table = table
        return self._table

    def is_idempotent(self, i: int) -> bool:
        return self.product(i, i) == i

    def __repr__(self):
        return f"FiniteSemigroup(size={self.size}, generators={len(self.generator_indices)})"


def closure(gens: Sequence, mul: Callable, max_size: int = CLOSURE_BOUND) -> FiniteSemigroup:
    """Semigroup generated by ``gens`` under the associative ``mul``.

    Elements are listed in breadth-first discovery order, so the result
    is deterministic for a fixed input order.  The walk multiplies every
    element by every distinct generator and keeps those products as the
    right Cayley graph, from which ``FiniteSemigroup.table`` is derived.
    """
    if not gens:
        raise InputError("closure requires at least one generator")
    elements = []
    index = {}
    for g in gens:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
    gen_payloads = list(elements)
    right: list[list[int]] = [[] for _ in gen_payloads]
    pre = [-1] * len(gen_payloads)
    last = [-1] * len(gen_payloads)
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
    sg = FiniteSemigroup(elements, mul, [index[g] for g in gens])
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
    O(n^2 |A|).  A is the given generators, or else a greedy cover.
    Violations are input errors.
    """
    n = len(table)
    if n == 0:
        raise InputError("empty multiplication table")
    rows = [list(r) for r in table]
    for r in rows:
        if len(r) != n or any(not 0 <= x < n for x in r):
            raise InputError("table must be square with entries in 0..n-1")

    if generator_indices is None:
        generator_indices = list(range(n))
        light_set, _ = _right_cover(rows, range(n))
    else:
        generator_indices = list(generator_indices)
        if any(not 0 <= g < n for g in generator_indices):
            raise InputError("generator indices must lie in 0..n-1")
        light_set, reached = _right_cover(rows, generator_indices)
        if reached != n:
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

    sg = FiniteSemigroup(list(range(n)), lambda a, b: rows[a][b], generator_indices)
    sg._table = rows
    return sg


def _right_cover(rows, candidates) -> tuple[list[int], int]:
    """Greedy generators from ``candidates``: each one not yet reached by
    right multiplication joins them and then acts on everything reached
    so far.  Returns the generators and how many elements they reach."""
    gens: list[int] = []
    reached: list[int] = []
    seen = [False] * len(rows)
    for s in candidates:
        if seen[s]:
            continue
        gens.append(s)
        queue = []
        for b in [s] + [rows[a][s] for a in reached]:
            if not seen[b]:
                seen[b] = True
                queue.append(b)
        while queue:
            a = queue.pop()
            reached.append(a)
            for g in gens:
                b = rows[a][g]
                if not seen[b]:
                    seen[b] = True
                    queue.append(b)
    return gens, len(reached)


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

    def is_maximal_j(self, j: int) -> bool:
        return all(j not in self.j_reach[k] for k in range(len(self.j_classes)) if k != j)

    @cached_property
    def _maximal_js(self) -> frozenset:
        below_something = set()
        for k in range(len(self.j_classes)):
            below_something |= self.j_reach[k] - {k}
        return frozenset(set(range(len(self.j_classes))) - below_something)

    def maximal_j_classes(self) -> frozenset:
        return self._maximal_js


def _classes_from_partition(n: int, comp_of: Sequence[int]):
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(comp_of):
        groups.setdefault(c, []).append(v)
    ordered = sorted(groups.values(), key=min)
    class_of = [0] * n
    for cid, members in enumerate(ordered):
        for v in members:
            class_of[v] = cid
    return tuple(class_of), tuple(tuple(m) for m in ordered)


def greens_structure(sg: FiniteSemigroup) -> GreensStructure:
    n = sg.size
    gens = sg.generator_indices
    right_adj: list[list[int]] = [[] for _ in range(n)]
    left_adj: list[list[int]] = [[] for _ in range(n)]
    both_adj: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for g in gens:
            ag = sg.product(a, g)
            ga = sg.product(g, a)
            if ag != a:
                right_adj[a].append(ag)
                both_adj[a].append(ag)
            if ga != a:
                left_adj[a].append(ga)
                both_adj[a].append(ga)

    r_of = [0] * n
    for cid, comp in enumerate(_tarjan_sccs(n, right_adj)):
        for v in comp:
            r_of[v] = cid
    l_of = [0] * n
    for cid, comp in enumerate(_tarjan_sccs(n, left_adj)):
        for v in comp:
            l_of[v] = cid
    j_of = [0] * n
    for cid, comp in enumerate(_tarjan_sccs(n, both_adj)):
        for v in comp:
            j_of[v] = cid

    r_class, r_classes = _classes_from_partition(n, r_of)
    l_class, l_classes = _classes_from_partition(n, l_of)
    h_pairs = [(r_class[v], l_class[v]) for v in range(n)]
    pair_ids: dict[tuple[int, int], int] = {}
    h_of = []
    for p in h_pairs:
        h_of.append(pair_ids.setdefault(p, len(pair_ids)))
    h_class, h_classes = _classes_from_partition(n, h_of)
    j_class, j_classes = _classes_from_partition(n, j_of)

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


def span_at_or_above(
    sg: FiniteSemigroup, gs: GreensStructure, j: int, gen_indices: Sequence[int]
) -> frozenset:
    """Elements of <gens> whose J-class is >= j.

    Products that fall out of the up-set can never climb back (a product's
    J-class is below each factor's), so everything else is collapsed into
    a single absorbing token and the walk stays small.
    """
    keep = {k for k in range(len(gs.j_classes)) if j in gs.j_reach[k]}
    kept = set()
    queue = []
    for g in gen_indices:
        if gs.j_class[g] in keep and g not in kept:
            kept.add(g)
            queue.append(g)
    while queue:
        frontier = []
        for a in queue:
            for g in gen_indices:
                b = sg.product(a, g)
                if gs.j_class[b] in keep and b not in kept:
                    kept.add(b)
                    frontier.append(b)
        queue = frontier
    return frozenset(kept)


def closure_of_indices(sg: FiniteSemigroup, indices: Iterable[int]) -> frozenset:
    """Subsemigroup generated by the given element indices."""
    seed = list(dict.fromkeys(indices))
    members = set(seed)
    queue = list(seed)
    while queue:
        frontier = []
        for a in queue:
            for g in seed:
                for b in (sg.product(a, g), sg.product(g, a)):
                    if b not in members:
                        members.add(b)
                        frontier.append(b)
        queue = frontier
    return frozenset(members)


def closure_with_ideal(
    sg: FiniteSemigroup, ideal: frozenset, extra: Iterable[int]
) -> frozenset:
    """<ideal u extra> when ``ideal`` is a two-sided ideal of sg.

    Every word containing an ideal letter lies in the ideal, so the
    closure is exactly <extra> u ideal; only the small part is walked.
    """
    extra = list(dict.fromkeys(extra))
    members = set(extra)
    queue = list(extra)
    while queue:
        frontier = []
        for a in queue:
            for g in extra:
                for b in (sg.product(a, g), sg.product(g, a)):
                    if b not in members and b not in ideal:
                        members.add(b)
                        frontier.append(b)
        queue = frontier
    return frozenset(members) | ideal


# ---------------------------------------------------------------------------
# Group H-classes and the principal factor

def group_h_class_as_permgroup(sg: FiniteSemigroup, h_class: Sequence[int]):
    """Right-regular action of a group H-class on itself.

    Returns ``(group, to_perm, from_perm)`` where ``to_perm`` maps element
    indices to permutations of 0..|H|-1 and the correspondence is an
    isomorphism: ``to_perm[sg.product(a, b)] == to_perm[a] * to_perm[b]``.
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
    perms = frozenset(to_perm.values())
    if len(perms) != len(members):
        raise InputError("right-regular action is not faithful; not a group H-class")
    group = PermGroup(
        len(members), _small_generating_set(len(members), perms), tuple(sorted(perms)))
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
    row_r_classes: tuple[int, ...]  # RZMS column index i -> R-class id
    col_l_classes: tuple[int, ...]  # RZMS row index lam -> L-class id


def principal_factor_iso(
    sg: FiniteSemigroup, gs: GreensStructure, j: int, verify: Optional[bool] = None
) -> PrincipalFactorIso:
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

    by_pair: dict[tuple[int, int], list[int]] = {}
    for e in members:
        by_pair.setdefault((gs.r_class[e], gs.l_class[e]), []).append(e)
    for v in by_pair.values():
        v.sort()

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

    if verify is None:
        verify = len(members) <= 5000
    if verify:
        _verify_principal_factor(sg, gs, j, forward, target)

    return PrincipalFactorIso(
        j_class=j, target=target, forward=forward, backward=backward,
        row_r_classes=tuple(r_ids), col_l_classes=tuple(l_ids),
    )


def _verify_principal_factor(sg, gs, j, forward, target) -> None:
    # integer shadow: permutations as indices into the group's element list
    g_index = {g: k for k, g in enumerate(target.group.elements)}
    mul = {}
    for a, ka in g_index.items():
        for b, kb in g_index.items():
            mul[ka, kb] = g_index[a * b]
    p_idx = [[None if e is None else g_index[e] for e in row] for row in target.matrix]
    fwd = {e: (i, g_index[g], lam) for e, (i, g, lam) in forward.items()}
    members = list(fwd)
    j_of = gs.j_class
    for x in members:
        ix, gx, lx = fwd[x]
        for y in members:
            iy, gy, ly = fwd[y]
            xy = sg.product(x, y)
            p = p_idx[lx][iy]
            if j_of[xy] == j:
                if p is None or fwd[xy] != (ix, mul[mul[gx, p], gy], ly):
                    raise AssertionError(
                        "principal factor map does not preserve products")
            else:
                if p is not None:
                    raise AssertionError(
                        "product left the J-class but the matrix entry is non-zero")
