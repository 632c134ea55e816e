"""Regular Rees 0-matrix semigroups over a permutation group.

Elements are the integer 0 (the adjoined zero) and triples
``(i, g, lam)`` with ``i`` a 0-based column index, ``lam`` a 0-based row
index, and ``g`` a Permutation.  Rows of the structure matrix are indexed
by Lambda, columns by I.  For human-facing output the I side prints
1-based and the Lambda side prints negative, matching the usual
convention for keeping the two index sets disjoint.

The six searches max_r1_r2 .. max_r6 together enumerate every maximal
subsemigroup of a finite regular Rees 0-matrix semigroup over a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError
from .graphs import Graph, connected_components, graph, maximal_independent_sets
from .perm_group import (
    PermGroup,
    _check_lattice_order,
    Permutation,
    conjugate_subgroup,
    generate_group,
    identity,
    maximal_subgroup_classes,
    normalizer,
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

    def entry(self, lam: int, i: int) -> Optional[Permutation]:
        return self.matrix[lam][i]

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
        return (i, self.col_scale[i].inverse() * g * self.row_scale[lam].inverse(), lam)


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
    gh_adj: dict[int, list[int]] = {w: [] for w in range(gh.vertex_count)}
    for a, b in sorted(gh.edges):
        gh_adj[a].append(b)
        gh_adj[b].append(a)

    for comp in comps:
        root = min(w for w in comp if w < m)
        u[root] = g_ident
        anchor_lam = None
        queue = [root]
        seen = {root}
        while queue:
            w = queue.pop(0)
            for nb in gh_adj[w]:
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
    if rzms.size <= 5000:
        _verify_iso(data)
    return data


def _verify_iso(data: NormalizationData) -> None:
    """Exhaustive check that forward() preserves multiplication, using an
    integer shadow of the group to keep the pair loop cheap."""
    src, dst = data.original, data.normalized
    g_index = {g: k for k, g in enumerate(src.group.elements)}
    mul = {}
    for a, ka in g_index.items():
        for b, kb in g_index.items():
            mul[ka, kb] = g_index[a * b]
    src_p = [[None if e is None else g_index[e] for e in row] for row in src.matrix]
    dst_p = [[None if e is None else g_index[e] for e in row] for row in dst.matrix]
    ucol = [g_index[p] for p in data.col_scale]
    vrow = [g_index[p] for p in data.row_scale]
    uinv = [g_index[p.inverse()] for p in data.col_scale]
    vinv = [g_index[p.inverse()] for p in data.row_scale]

    def fwd(i, kg, lam):
        return (i, mul[mul[ucol[i], kg], vrow[lam]], lam)

    triples = [
        (i, kg, lam)
        for i in range(src.num_cols)
        for kg in range(src.group.order)
        for lam in range(src.num_rows)
    ]
    for (i, kg, lam) in triples:
        fi, fkg, flam = fwd(i, kg, lam)
        back = mul[mul[uinv[i], fkg], vinv[lam]]
        if back != kg:
            raise AssertionError("normalization iso is not a bijection")
    for (i, kg, lam) in triples:
        for (k, kh, mu) in triples:
            p = src_p[lam][k]
            q = dst_p[lam][k]
            if (p is None) != (q is None):
                raise AssertionError("normalization altered the zero pattern")
            if p is None:
                continue
            prod = (i, mul[mul[kg, p], kh], mu)
            fa, fb = fwd(i, kg, lam), fwd(k, kh, mu)
            image = (fa[0], mul[mul[fa[1], q], fb[1]], fb[2])
            if fwd(*prod) != image:
                raise AssertionError("normalization iso does not preserve products")


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
    """Single-row / single-column removals whose induced Graham-Houghton
    subgraph keeps every vertex incident to an edge."""
    out = []
    m = rzms.num_cols
    gh = graham_houghton(rzms)
    degrees = [0] * gh.vertex_count
    neighbour_sets: list[set] = [set() for _ in range(gh.vertex_count)]
    for a, b in gh.edges:
        degrees[a] += 1
        degrees[b] += 1
        neighbour_sets[a].add(b)
        neighbour_sets[b].add(a)

    if rzms.num_rows > 1:
        for lam in range(rzms.num_rows):
            vertex = m + lam
            # removing lam may only isolate columns whose sole edge was to lam
            if all(degrees[i] > 1 or vertex not in neighbour_sets[i] for i in range(m)):
                elems = frozenset(
                    x for x in _all_nonzero(rzms) if x[2] != lam) | {ZERO}
                out.append(RzmsMaxSubsemigroup(
                    "R3", (lam,), tuple(sorted(elems, key=_elem_key)), elems))
    if m > 1:
        for i in range(m):
            if all(degrees[m + lam] > 1 or i not in neighbour_sets[m + lam]
                   for lam in range(rzms.num_rows)):
                elems = frozenset(
                    x for x in _all_nonzero(rzms) if x[0] != i) | {ZERO}
                out.append(RzmsMaxSubsemigroup(
                    "R4", (i,), tuple(sorted(elems, key=_elem_key)), elems))
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


def _assemble_tuples(candidate_lists, pair_constraints):
    """Backtracking product of the per-component candidate lists, pruning
    with the pairwise constraints as soon as both coordinates are set.

    ``pair_constraints[(k, l)]`` is a predicate on (t_k, t_l).
    """
    n = len(candidate_lists)
    results = []
    chosen = [None] * n

    def relevant(k):
        for (a, b), pred in pair_constraints.items():
            if b == k and a < k:
                yield a, b, pred
            elif a == k and b < k:
                yield a, b, pred
            elif a == b == k:
                yield a, b, pred

    def extend(k):
        if k == n:
            results.append(tuple(chosen))
            return
        for t in candidate_lists[k]:
            chosen[k] = t
            ok = True
            for a, b, pred in relevant(k):
                if not pred(chosen[a], chosen[b]):
                    ok = False
                    break
            if ok:
                extend(k + 1)
        chosen[k] = None

    extend(0)
    return results


def max_r6(
    rzms: ReesZeroMatrixSemigroup,
    required_subset: Optional[Iterable] = None,
    _reverse_transversals: bool = False,
) -> list[RzmsMaxSubsemigroup]:
    """Maximal subsemigroups meeting every H-class: one per maximal
    subgroup class V of G and tuple (t_1, ..., t_n) with G_1 <= t_1^-1 V t_1
    for t_1 ranging over a transversal of N_G(V), and G_k <= t_k^-1 V t_k
    for t_k over a transversal of V, k >= 2.

    With ``required_subset`` (elements of ``rzms``), only results whose
    element set contains it are produced; the containment test uses the
    block description I_k x t_k^-1 V t_l x Lambda_l directly.
    """
    _check_lattice_order(rzms.group.order)  # before normalize builds anything
    data = normalize(rzms)
    normd = data.normalized
    group = rzms.group
    comps = data.components
    n = len(comps)
    comp_of_i = {}
    comp_of_lam = {}
    for k, comp in enumerate(comps):
        for i in comp.i_indices:
            comp_of_i[i] = k
        for lam in comp.lam_indices:
            comp_of_lam[lam] = k

    required = []
    if required_subset is not None:
        for x in required_subset:
            if x == ZERO:
                continue
            i, g, lam = data.forward(x)
            required.append((comp_of_i[i], comp_of_lam[lam], g))

    idempotents_norm = [ZERO] + [
        (i, normd.matrix[lam][i].inverse(), lam)
        for lam in range(normd.num_rows)
        for i in range(normd.num_cols)
        if normd.matrix[lam][i] is not None
    ]

    out = []
    for cls in maximal_subgroup_classes(group):
        v_group = cls.representative
        v_set = v_group.element_set

        def contains(sub_elements, candidate):
            return all(x in candidate for x in sub_elements)

        t1_candidates = cls.normalizer_coset_reps
        if _reverse_transversals:
            t1_candidates = right_coset_reps(
                group, cls.normalizer, candidates=tuple(reversed(group.elements)))
        t1_list = [
            t for t in t1_candidates
            if contains(comps[0].subgroup.elements,
                        conjugate_subgroup(v_group, t).element_set)
        ]
        v_coset_candidates = (
            tuple(reversed(group.elements)) if _reverse_transversals else None)
        v_reps = right_coset_reps(group, v_group, candidates=v_coset_candidates)
        candidate_lists = [t1_list]
        for k in range(1, n):
            candidate_lists.append([
                g for g in v_reps
                if contains(comps[k].subgroup.elements,
                            conjugate_subgroup(v_group, g).element_set)
            ])
        if any(not lst for lst in candidate_lists):
            continue

        # h lies in the (k, l) block of the subsemigroup iff t_k h t_l^-1 in V
        constraints = {}
        for k, l, g in required:
            key = (min(k, l), max(k, l)) if k != l else (k, k)

            def pred(tk, tl, g=g, swap=(k > l)):
                a, b = (tl, tk) if swap else (tk, tl)
                return a * g * b.inverse() in v_set

            constraints.setdefault(key, []).append(pred)
        merged = {
            key: (lambda ta, tb, preds=preds: all(p(ta, tb) for p in preds))
            for key, preds in constraints.items()
        }

        for ts in _assemble_tuples(candidate_lists, merged):
            out.append(_build_r6(data, cls, ts, idempotents_norm))
    return out


def _build_r6(data, cls, ts, idempotents_norm) -> RzmsMaxSubsemigroup:
    comps = data.components
    group = data.original.group
    v_elements = cls.representative.elements

    element_set = {ZERO}
    for k, ck in enumerate(comps):
        for l, cl in enumerate(comps):
            tk_inv = ts[k].inverse()
            middle = [tk_inv * v * ts[l] for v in v_elements]
            for i in ck.i_indices:
                for lam in cl.lam_indices:
                    for g in middle:
                        element_set.add(data.backward((i, g, lam)))

    i1, lam1 = comps[0].anchor_i, comps[0].anchor_lam
    t1_inv = ts[0].inverse()
    gens = list(idempotents_norm)
    gens.extend((i1, t1_inv * v * ts[0], lam1) for v in v_elements)
    for k in range(1, len(comps)):
        gens.append((i1, t1_inv * ts[k], comps[k].anchor_lam))
        gens.append((comps[k].anchor_i, ts[k].inverse() * ts[0], lam1))
    generators = tuple(data.backward(x) for x in gens)

    witness = (
        tuple(p.images for p in cls.representative.generators),
        tuple(t.images for t in ts),
    )
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
    """A compact verified generating set for R as a semigroup: the
    idempotents, one full anchor H-class, and the crossing elements that
    tie the Graham-Houghton components together (the V = G case of the
    generating-set lemma, pulled back from the normalized form)."""
    data = normalize(rzms)
    normd = data.normalized
    comps = data.components
    gens = [ZERO]
    for lam in range(normd.num_rows):
        for i in range(normd.num_cols):
            if normd.matrix[lam][i] is not None:
                gens.append((i, normd.matrix[lam][i].inverse(), lam))
    i1, lam1 = comps[0].anchor_i, comps[0].anchor_lam
    gens.extend((i1, g, lam1) for g in rzms.group.elements)
    for comp in comps[1:]:
        gens.append((i1, identity(rzms.group.degree), comp.anchor_lam))
        gens.append((comp.anchor_i, identity(rzms.group.degree), lam1))
    pulled = [data.backward(x) for x in gens]
    seen = set()
    unique = []
    for x in pulled:
        if x not in seen:
            seen.add(x)
            unique.append(x)
    return unique
