"""Regular Rees 0-matrix semigroups over a permutation group.

Elements are the integer 0 (the adjoined zero) and triples
``(i, g, lam)`` with ``i`` a 0-based column index, ``lam`` a 0-based row
index, and ``g`` a Permutation.  Rows of the structure matrix are indexed
by Lambda, columns by I.  For human-facing output the I side prints
1-based and the Lambda side prints negative, matching the usual
convention for keeping the two index sets disjoint.

The six searches max_r1_r2 .. max_r6 together enumerate every maximal
subsemigroup of a finite regular Rees 0-matrix semigroup over a group.

Both coordinatisations the searches stand on, the Rees isomorphism of a
principal factor (``semigroup_core.principal_factor_iso``) and Graham's
rescaling (``normalize``), are checked by one exact test, ``check_iso``:
the products a x with x in a ``right_cover`` of the domain, at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .errors import InputError
from .graphs import Graph, adjacency, connected_components, graph, maximal_independent_sets
from .perm_group import (
    PermGroup,
    _check_search_order,
    Permutation,
    generate_group,
    identity,
    maximal_subgroup_classes,
    right_coset_reps,
)

ZERO = 0  # the adjoined zero element of every Rees 0-matrix semigroup


@dataclass(frozen=True)
class ReesZeroMatrixSemigroup:
    """M0[I, G, Lambda; P] with P a |Lambda| x |I| matrix over G u {0}."""

    group: PermGroup
    matrix: tuple  # rows (one per lam) of tuples of Permutation | None

    def __post_init__(self):
        if not self.matrix or not self.matrix[0]:
            raise InputError("structure matrix must be non-empty")
        width = len(self.matrix[0])
        for row in self.matrix:
            if len(row) != width:
                raise InputError("structure matrix rows must have equal length")
            for entry in row:
                if entry is not None and entry not in self.group.element_set:
                    raise InputError(f"matrix entry {entry} is not in the group")
        for lam, row in enumerate(self.matrix):
            if all(entry is None for entry in row):
                raise InputError(f"not regular: row {lam} of P is all zero")
        for i in range(width):
            if all(row[i] is None for row in self.matrix):
                raise InputError(f"not regular: column {i} of P is all zero")

    @property
    def num_cols(self) -> int:  # |I|
        return len(self.matrix[0])

    @property
    def num_rows(self) -> int:  # |Lambda|
        return len(self.matrix)

    @property
    def size(self) -> int:
        return self.num_cols * self.num_rows * self.group.order + 1

    def elements(self):
        yield ZERO
        for i in range(self.num_cols):
            for g in self.group.elements:
                for lam in range(self.num_rows):
                    yield (i, g, lam)

    def multiply(self, a, b):
        """(i, g, lam)(k, h, mu) is (i, g p_{lam,k} h, mu) when p_{lam,k} is
        non-zero and 0 otherwise."""
        if a == ZERO or b == ZERO:
            return ZERO
        i, g, lam = a
        k, h, mu = b
        p = self.matrix[lam][k]
        if p is None:
            return ZERO
        return (i, g * p * h, mu)

    def __repr__(self):
        return (f"ReesZeroMatrixSemigroup(|I|={self.num_cols}, "
                f"|Lambda|={self.num_rows}, |G|={self.group.order})")


def brandt(group: PermGroup, m: int) -> ReesZeroMatrixSemigroup:
    """Brandt semigroup B(G, m): m x m identity structure matrix."""
    one = identity(group.degree)
    rows = tuple(
        tuple(one if i == lam else None for i in range(m)) for lam in range(m)
    )
    return ReesZeroMatrixSemigroup(group, rows)


def graham_houghton(rzms: ReesZeroMatrixSemigroup) -> Graph:
    """Bipartite graph on I u Lambda; column i occupies vertex i and row
    lam occupies vertex |I| + lam.  Edge {i, lam} iff p_{lam,i} != 0."""
    m = rzms.num_cols
    edges = [
        (i, m + lam)
        for lam in range(rzms.num_rows)
        for i in range(m)
        if rzms.matrix[lam][i] is not None
    ]
    return graph(m + rzms.num_rows, edges)


def gh_vertex_label(rzms: ReesZeroMatrixSemigroup, v: int) -> str:
    """Graham-Houghton vertex label: 1-based for I, negative for Lambda."""
    m = rzms.num_cols
    return str(v + 1) if v < m else str(-(v - m + 1))


# ---------------------------------------------------------------------------
# Checking a coordinatisation

def right_cover(times: Callable, elements: Iterable) -> tuple[list, list]:
    """A greedy right cover X of ``elements``: each element that right
    multiplication has not yet reached joins X and then acts on
    everything reached so far.  ``times(a, b)`` is the product, or None
    for a zero that is not itself listed.  Returns X and the elements
    reached, each a product x1 x2 ... xk over X; every listed element is
    among them."""
    cover: list = []
    reached: list = []
    seen = set()
    for s in elements:
        if s in seen:
            continue
        cover.append(s)
        queue = [s] + [times(a, s) for a in reached]
        while queue:
            a = queue.pop()
            if a is None or a in seen:
                continue
            seen.add(a)
            reached.append(a)
            queue.extend(times(a, x) for x in cover)
    return cover, reached


def _times_on_positions(rzms: ReesZeroMatrixSemigroup) -> Callable:
    """The product of ``rzms`` on triples (i, g, lam) with g a position in
    the group, and None for the zero."""
    index, mul = rzms.group.mul_table
    p = [[None if e is None else index[e] for e in row] for row in rzms.matrix]

    def times(a, b):
        q = p[a[2]][b[0]]
        return None if q is None else (a[0], mul[mul[a[1]][q]][b[1]], b[2])

    return times


def check_iso(image: dict, times: Callable, target: ReesZeroMatrixSemigroup) -> None:
    """Raise AssertionError unless f: a -> image[a] is an isomorphism from
    the keys of ``image`` with a zero adjoined onto ``target``.  Images
    are triples (i, g, lam) with g a position in the target's group, and
    ``times(a, b)`` is the product of the domain, or None for its zero.

    f must be a bijection onto target \\ {0}, and f(a x) = f(a) f(x) must
    hold for every a and every x in a right cover X of the domain.  Every
    w is a product x1 ... xk over X, so by induction on k, with the zero
    absorbing, f(a w) = f(a) f(w) for all a and w: the check is exact in
    |domain| |X| products.  Precondition: the domain is associative, as
    ``closure``'s associative ``mul`` and ``from_table``'s Light test
    guarantee for every FiniteSemigroup.
    """
    triples = [(i, g, lam) for i in range(target.num_cols)
               for g in range(target.group.order) for lam in range(target.num_rows)]
    if sorted(image.values()) != triples:
        raise AssertionError("coordinatisation is not a bijection onto the non-zero elements")
    target_times = _times_on_positions(target)
    cover, _ = right_cover(times, image)
    for a, fa in image.items():
        for x in cover:
            ax = times(a, x)
            if (None if ax is None else image[ax]) != target_times(fa, image[x]):
                raise AssertionError(
                    f"coordinatisation does not preserve the product {a!r} * {x!r}")


# ---------------------------------------------------------------------------
# Normalization (Graham)

@dataclass(frozen=True)
class RzmsComponent:
    """One connected component of the Graham-Houghton graph, with the
    anchor pair and the subgroup generated by its matrix block."""

    i_indices: tuple[int, ...]
    lam_indices: tuple[int, ...]
    anchor_i: int
    anchor_lam: int
    subgroup: PermGroup  # G_k


@dataclass(frozen=True)
class NormalizationData:
    original: ReesZeroMatrixSemigroup
    normalized: ReesZeroMatrixSemigroup
    row_scale: tuple[Permutation, ...]  # v_lam
    col_scale: tuple[Permutation, ...]  # u_i
    components: tuple[RzmsComponent, ...]

    def forward(self, x):
        """Isomorphism original -> normalized: (i,g,lam) -> (i, u_i g v_lam, lam)."""
        if x == ZERO:
            return ZERO
        i, g, lam = x
        return (i, self.col_scale[i] * g * self.row_scale[lam], lam)

    def backward(self, x):
        if x == ZERO:
            return ZERO
        i, g, lam = x
        return (i, self.backward_table[i][lam][self.original.group.mul_table[0][g]], lam)

    @cached_property
    def backward_table(self) -> list:
        """``backward_table[i][lam][g]`` is u_i^-1 h v_lam^-1 for h the
        group element at position g: the group part of backward()."""
        group = self.original.group
        index, mul = group.mul_table
        inv = group.inv_table
        vinv = [inv[index[v]] for v in self.row_scale]
        return [[[group.elements[mul[row[g]][vl]] for g in range(group.order)] for vl in vinv]
                for row in (mul[inv[index[u]]] for u in self.col_scale)]


def normalize(rzms: ReesZeroMatrixSemigroup) -> NormalizationData:
    """Rescale R to an isomorphic normalized form.

    A BFS spanning tree is chosen in each Graham-Houghton component;
    scaling factors are propagated along tree edges so that every tree
    entry of the new matrix is the identity.  In particular the anchor
    entry p_{lam_k, i_k} of each component is the identity, and the
    non-zero entries of each block generate that component's group G_k.
    """
    g_ident = identity(rzms.group.degree)
    m = rzms.num_cols
    gh = graham_houghton(rzms)
    comps = connected_components(gh)

    u: list = [None] * m
    v: list = [None] * rzms.num_rows
    comp_records = []
    gh_adj = adjacency(gh)

    for comp in comps:
        root = min(w for w in comp if w < m)
        u[root] = g_ident
        anchor_lam = None
        queue = [root]
        seen = {root}
        while queue:
            w = queue.pop(0)
            for nb in sorted(gh_adj[w]):
                if nb in seen:
                    continue
                seen.add(nb)
                if w < m:  # known column, new row: v_lam = p_{lam,i} * u_i^-1
                    lam = nb - m
                    v[lam] = rzms.matrix[lam][w] * u[w].inverse()
                    if w == root and anchor_lam is None:
                        anchor_lam = lam
                else:  # known row, new column: u_i = v_lam^-1 * p_{lam,i}
                    lam = w - m
                    u[nb] = v[lam].inverse() * rzms.matrix[lam][nb]
                queue.append(nb)
        i_indices = tuple(sorted(w for w in comp if w < m))
        lam_indices = tuple(sorted(w - m for w in comp if w >= m))
        comp_records.append((i_indices, lam_indices, root, anchor_lam))

    new_rows = []
    for lam in range(rzms.num_rows):
        row = []
        for i in range(m):
            p = rzms.matrix[lam][i]
            row.append(None if p is None else v[lam].inverse() * p * u[i].inverse())
        new_rows.append(tuple(row))
    normalized = ReesZeroMatrixSemigroup(rzms.group, tuple(new_rows))

    components = []
    for i_indices, lam_indices, anchor_i, anchor_lam in comp_records:
        entries = [
            normalized.matrix[lam][i]
            for lam in lam_indices
            for i in i_indices
            if normalized.matrix[lam][i] is not None
        ]
        sub = generate_group(rzms.group.degree, entries)
        if normalized.matrix[anchor_lam][anchor_i] != g_ident:
            raise AssertionError("normalization failed to fix the anchor entry")
        components.append(
            RzmsComponent(i_indices, lam_indices, anchor_i, anchor_lam, sub)
        )

    data = NormalizationData(
        original=rzms,
        normalized=normalized,
        row_scale=tuple(v),
        col_scale=tuple(u),
        components=tuple(components),
    )
    index, mul = rzms.group.mul_table
    ucol = [index[p] for p in u]
    vrow = [index[p] for p in v]
    back = data.backward_table  # the inverse the R6 search maps results through
    image = {}
    for i in range(m):
        for g, p in enumerate(rzms.group.elements):
            for lam in range(rzms.num_rows):
                h = mul[mul[ucol[i]][g]][vrow[lam]]
                if back[i][lam][h] != p:
                    raise AssertionError("normalization iso is not a bijection")
                image[(i, g, lam)] = (i, h, lam)
    check_iso(image, _times_on_positions(rzms), normalized)
    return data


# ---------------------------------------------------------------------------
# Maximal subsemigroups

@dataclass(frozen=True)
class RzmsMaxSubsemigroup:
    """A maximal subsemigroup of a Rees 0-matrix semigroup.

    ``witness`` is type-specific defining data; ``element_set`` is the full
    element set (desk scale) and is the identity used for deduplication.
    """

    type_tag: str  # "R1" .. "R6"
    witness: tuple
    generators: tuple
    element_set: frozenset

    @property
    def size(self) -> int:
        return len(self.element_set)


def _all_nonzero(rzms) -> list:
    return [
        (i, g, lam)
        for i in range(rzms.num_cols)
        for g in rzms.group.elements
        for lam in range(rzms.num_rows)
    ]


def max_r1_r2(rzms: ReesZeroMatrixSemigroup) -> list[RzmsMaxSubsemigroup]:
    """{0} when |R| = 2, and R \\ {0} when P has no zero entries.  The two
    conditions are tested independently; for the 1x1 trivial-group case
    both fire and both sets are genuinely maximal."""
    out = []
    if rzms.size == 2:
        out.append(RzmsMaxSubsemigroup("R1", (), (ZERO,), frozenset({ZERO})))
    if all(e is not None for row in rzms.matrix for e in row):
        elems = frozenset(_all_nonzero(rzms))
        out.append(RzmsMaxSubsemigroup("R2", (), tuple(sorted(elems, key=_elem_key)), elems))
    return out


def _elem_key(x):
    if x == ZERO:
        return (0,)
    i, g, lam = x
    return (1, i, g.images, lam)


def max_r3_r4(rzms: ReesZeroMatrixSemigroup) -> list[RzmsMaxSubsemigroup]:
    """Single-row (R3) and single-column (R4) removals.  Removing a
    Graham-Houghton vertex must leave every other vertex on an edge, so no
    neighbour of it may have it as its only neighbour."""
    out = []
    m = rzms.num_cols
    adj = adjacency(graham_houghton(rzms))
    # (tag, coordinate of the removed index in (i, g, lam), count, first vertex)
    for tag, pos, count, first in (("R3", 2, rzms.num_rows, m), ("R4", 0, m, 0)):
        if count == 1:
            continue
        for x in range(count):
            if all(len(adj[w]) > 1 for w in adj[first + x]):
                elems = frozenset(e for e in _all_nonzero(rzms) if e[pos] != x) | {ZERO}
                out.append(RzmsMaxSubsemigroup(
                    tag, (x,), tuple(sorted(elems, key=_elem_key)), elems))
    return out


def max_r5(rzms: ReesZeroMatrixSemigroup) -> list[RzmsMaxSubsemigroup]:
    """One result per maximal independent set X u Y of the Graham-Houghton
    graph with X a proper non-empty subset of I and Y of Lambda."""
    m = rzms.num_cols
    out = []
    for mis in maximal_independent_sets(graham_houghton(rzms)):
        x = frozenset(v for v in mis if v < m)
        y = frozenset(v - m for v in mis if v >= m)
        if not x or not y or len(x) == m or len(y) == rzms.num_rows:
            continue
        removed_i = frozenset(range(m)) - x
        removed_lam = frozenset(range(rzms.num_rows)) - y
        elems = frozenset(
            e for e in _all_nonzero(rzms)
            if not (e[0] in removed_i and e[2] in removed_lam)
        ) | {ZERO}
        out.append(RzmsMaxSubsemigroup(
            "R5",
            (tuple(sorted(x)), tuple(sorted(y))),
            tuple(sorted(elems, key=_elem_key)),
            elems,
        ))
    return out


def _assemble_tuples(candidate_lists, checks, in_v, mul, inv):
    """Backtracking product of the per-component candidate lists.  A test
    (a, b, g) in ``checks[k]`` has max(a, b) = k, so both coordinates are
    set once t_k is chosen; it requires t_a g t_b^-1 in V.  Group elements
    are positions in the group and ``in_v`` is the set of V's."""
    n = len(candidate_lists)
    results = []
    chosen = [None] * n

    def extend(k):
        if k == n:
            results.append(tuple(chosen))
            return
        for t in candidate_lists[k]:
            chosen[k] = t
            if all(mul[mul[chosen[a]][g]][inv[chosen[b]]] in in_v for a, b, g in checks[k]):
                extend(k + 1)

    extend(0)
    return results


def max_r6(
    rzms: ReesZeroMatrixSemigroup,
    required_subset: Optional[Iterable] = None,
) -> list[RzmsMaxSubsemigroup]:
    """Maximal subsemigroups meeting every H-class: one per maximal
    subgroup class V of G and tuple (t_1, ..., t_n) with G_1 <= t_1^-1 V t_1
    for t_1 ranging over a transversal of N_G(V), and G_k <= t_k^-1 V t_k
    for t_k over a transversal of V, k >= 2.

    With ``required_subset`` (elements of ``rzms``), only results whose
    element set contains it are produced; the containment test uses the
    block description I_k x t_k^-1 V t_l x Lambda_l directly.
    """
    _check_search_order(rzms.group.order)  # before normalize builds anything
    data = normalize(rzms)
    group = rzms.group
    index, mul = group.mul_table
    inv = group.inv_table
    comps = data.components
    comp_of_i = {i: k for k, comp in enumerate(comps) for i in comp.i_indices}
    comp_of_lam = {lam: k for k, comp in enumerate(comps) for lam in comp.lam_indices}
    comp_gens = [[index[g] for g in comp.subgroup.generators] for comp in comps]

    # h lies in the (k, l) block of the subsemigroup iff t_k h t_l^-1 in V;
    # checks[k] holds the tests whose larger block index is k
    checks = [[] for _ in comps]
    for x in required_subset or ():
        if x != ZERO:
            i, g, lam = data.forward(x)
            k, l = comp_of_i[i], comp_of_lam[lam]
            checks[max(k, l)].append((k, l, index[g]))

    out = []
    for cls in maximal_subgroup_classes(group):
        v = [index[p] for p in cls.representative.elements]
        in_v = set(v)
        t1_reps = [index[t] for t in cls.normalizer_coset_reps]
        v_reps = [index[t] for t in right_coset_reps(group, cls.representative)]
        # G_k <= t^-1 V t iff t g t^-1 in V for every generator g of G_k
        candidate_lists = [
            [t for t in (t1_reps if k == 0 else v_reps)
             if all(mul[mul[t][g]][inv[t]] in in_v for g in gens)]
            for k, gens in enumerate(comp_gens)
        ]
        if any(not lst for lst in candidate_lists):
            continue
        for ts in _assemble_tuples(candidate_lists, checks, in_v, mul, inv):
            out.append(_build_r6(data, cls, v, ts))
    return out


def _lemma_generators(data: NormalizationData, v, ts) -> list:
    """The generating set of the R6 lemma, pulled back from the normalized
    form: the zero and the idempotents, the anchor block t_1^-1 V t_1 of
    the first component, and for each later component k the two crossings
    t_1^-1 t_k and t_k^-1 t_1 between its anchor and the first one.  ``v``
    and ``ts`` are positions in the group."""
    index, mul = data.original.group.mul_table
    inv = data.original.group.inv_table
    comps = data.components
    gens = [(i, inv[index[p]], lam) for lam, row in enumerate(data.normalized.matrix)
            for i, p in enumerate(row) if p is not None]
    i1, lam1 = comps[0].anchor_i, comps[0].anchor_lam
    t1, t1_inv = ts[0], mul[inv[ts[0]]]
    gens.extend((i1, mul[t1_inv[x]][t1], lam1) for x in v)
    for k in range(1, len(comps)):
        gens.append((i1, t1_inv[ts[k]], comps[k].anchor_lam))
        gens.append((comps[k].anchor_i, mul[inv[ts[k]]][t1], lam1))
    back = data.backward_table
    return [ZERO] + [(i, back[i][lam][g], lam) for i, g, lam in gens]


def _build_r6(data, cls, v, ts) -> RzmsMaxSubsemigroup:
    group = data.original.group
    _, mul = group.mul_table
    back = data.backward_table
    element_set = {ZERO}
    for k, ck in enumerate(data.components):
        tk_inv = mul[group.inv_table[ts[k]]]
        for l, cl in enumerate(data.components):
            middle = [mul[tk_inv[x]][ts[l]] for x in v]
            for i in ck.i_indices:
                for lam in cl.lam_indices:
                    perms = back[i][lam]
                    element_set.update((i, perms[g], lam) for g in middle)

    witness = (tuple(p.images for p in cls.representative.generators),
               tuple(group.elements[t].images for t in ts))
    generators = tuple(_lemma_generators(data, v, ts))
    return RzmsMaxSubsemigroup("R6", witness, generators, frozenset(element_set))


def max_subsemigroups_rzms(rzms: ReesZeroMatrixSemigroup) -> list[RzmsMaxSubsemigroup]:
    """All maximal subsemigroups of a finite regular Rees 0-matrix
    semigroup over a group, deduplicated by element set."""
    results = []
    results.extend(max_r1_r2(rzms))
    results.extend(max_r3_r4(rzms))
    results.extend(max_r5(rzms))
    results.extend(max_r6(rzms))
    seen = set()
    unique = []
    for r in results:
        if r.element_set not in seen:
            seen.add(r.element_set)
            unique.append(r)
    return unique


def generating_set(rzms: ReesZeroMatrixSemigroup) -> list:
    """A compact verified generating set for R as a semigroup: the V = G,
    t = 1 case of the R6 generating-set lemma, without repeats."""
    data = normalize(rzms)
    return list(dict.fromkeys(
        _lemma_generators(data, range(rzms.group.order), [0] * len(data.components))))
