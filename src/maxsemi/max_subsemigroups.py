"""Maximal subsemigroups of an arbitrary finite semigroup.

Each J-class containing a generator is examined in turn.  Maximal
J-classes either contribute S \\ J directly (trivial class) or hand off to
the Rees-matrix searches on their principal factor.  Non-maximal classes
are dispatched over the types S1-S6: S1 removes a non-regular class, S2
lifts the subgroup-type Rees results filtered through the idempotent
transversal, S3-S5 come from the quotient digraphs Gamma_L / Gamma_R and
the bipartite graphs Delta / Theta, and S6 removes the whole class when
nothing else arose and Theta is edgeless.

Generating sets follow the constructive descriptions item by item and are
then validated by closure, at every size; a set that fails validation
raises AssertionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapacityError, InputError

from .graphs import (
    CondensedDigraph,
    Graph,
    digraph,
    graph,
    maximal_independent_sets,
    sources,
    strongly_connected_condensation,
    _check_vertex_count,
)
from .perm_group import _check_search_order
from .rees_matrix import RzmsMaxSubsemigroup, ZERO, max_r6, max_subsemigroups_rzms
from .semigroup_core import (
    TABLE_BOUND,
    FiniteSemigroup,
    GreensStructure,
    PrincipalFactorIso,
    closure_with_ideal,
    elements_by_pair,
    greens_structure,
    ideal_below_generators,
    principal_factor_iso,
    span_at_or_above,
    x_prime,
)

# nothing in this package reads this; it stays while the benchmark's
# trace (bench/tracing.py) reads it at call time to count skipped checks
VALIDATION_BOUND = 5000


@dataclass(frozen=True)
class MaximalSubsemigroup:
    """One maximal subsemigroup of a finite semigroup.

    ``element_indices`` is the full element set; the complement always
    lies inside the J-class ``j_class``.  ``witness`` records the defining
    data of the construction (sets of Green's classes, removed indices,
    or lifted Rees data)."""

    type_tag: str
    j_class: int
    generators: tuple[int, ...]
    element_indices: frozenset
    witness: Optional[tuple]

    @property
    def size(self) -> int:
        return len(self.element_indices)


@dataclass(frozen=True)
class JClassGraphs:
    """The graphs attached to one regular J-class.

    ``gamma_l`` and ``gamma_r`` are condensations over the local L-/R-class
    indices (``l_class_ids``/``r_class_ids`` translate to global class
    ids).  ``delta`` and ``theta`` live on the disjoint union of the two
    component families: Gamma_L components first, then Gamma_R components.
    """

    gamma_l: CondensedDigraph
    gamma_r: CondensedDigraph
    delta: Graph
    theta: Graph
    l_class_ids: tuple[int, ...]
    r_class_ids: tuple[int, ...]
    span_in_j: frozenset  # elements of <X'> lying in J


def build_jclass_graphs(
    sg: FiniteSemigroup,
    gs: GreensStructure,
    j: int,
    xp: Sequence[int],
    span: Optional[frozenset] = None,
) -> JClassGraphs:
    if not gs.regular_j[j]:
        raise InputError(f"J-class {j} is not regular")
    members = gs.j_classes[j]
    member_set = set(members)

    def gamma(class_of, act):
        # Gamma_L acts by right multiplication on L-classes, Gamma_R by
        # left multiplication on R-classes
        ids = sorted({class_of[e] for e in members})
        pos = {c: k for k, c in enumerate(ids)}
        rep = {}
        for e in members:
            rep.setdefault(class_of[e], e)
        edges = set()
        for x in xp:
            for c, a in rep.items():
                b = act(a, x)
                if b in member_set and class_of[b] != c:
                    edges.add((pos[c], pos[class_of[b]]))
        cd = strongly_connected_condensation(digraph(len(ids), edges))
        return cd, ids, {c: cd.component_of[k] for c, k in pos.items()}

    gamma_l, l_ids, l_comp = gamma(gs.l_class, sg.product)
    gamma_r, r_ids, r_comp = gamma(gs.r_class, lambda a, x: sg.product(x, a))
    nl = gamma_l.component_count

    def bipartite(elements):
        return graph(nl + gamma_r.component_count,
                     {(l_comp[gs.l_class[e]], nl + r_comp[gs.r_class[e]]) for e in elements})

    delta = bipartite(e for e in members if e in gs.idempotents)
    if span is None:
        span = span_at_or_above(sg, gs, j, xp)
    span_in_j = frozenset(e for e in span if gs.j_class[e] == j)
    theta = bipartite(span_in_j)

    # colour 1 exactly on the components touched by Theta
    l_colour = [0] * nl
    r_colour = [0] * gamma_r.component_count
    for u, v in theta.edges:
        l_colour[u] = 1
        r_colour[v - nl] = 1
    gamma_l = gamma_l.with_colour(l_colour)
    gamma_r = gamma_r.with_colour(r_colour)

    return JClassGraphs(
        gamma_l=gamma_l, gamma_r=gamma_r, delta=delta, theta=theta,
        l_class_ids=tuple(l_ids), r_class_ids=tuple(r_ids),
        span_in_j=span_in_j,
    )


# ---------------------------------------------------------------------------
# shared helpers

def _finish(sg, j, tag, witness, expected, extra_gens, ideal_elems):
    """Assemble a MaximalSubsemigroup, validating the synthesised
    generators by closure, at every size: one frontier-at-once walk over
    the part above the strictly-below ideal, which is split off; raise
    AssertionError if they do not generate ``expected``."""
    gens = tuple(dict.fromkeys(list(extra_gens) + list(ideal_elems)))
    if closure_with_ideal(sg, frozenset(ideal_elems), extra_gens) != expected:
        raise AssertionError(
            f"synthesised generators for a type-{tag} subsemigroup do not generate it")
    return MaximalSubsemigroup(
        type_tag=tag, j_class=j, generators=gens,
        element_indices=frozenset(expected), witness=witness)


def _gens_outside_j(sg, gs, j):
    return [g for g in sg.generator_indices if gs.j_class[g] != j]


def _complement_elements(sg, gs, j):
    members = set(gs.j_classes[j])
    return frozenset(e for e in range(sg.size) if e not in members)


def _without_class(sg, gs, j, tag):
    """S \\ J, generated by the generators outside J and the ideal below."""
    return _finish(sg, j, tag, None, _complement_elements(sg, gs, j),
                   _gens_outside_j(sg, gs, j), ideal_below_generators(sg, gs, j))


# ---------------------------------------------------------------------------
# S1: non-regular classes

def max_s1(sg, gs, j, xp, span=None) -> Optional[MaximalSubsemigroup]:
    """S \\ J for a non-regular non-maximal class J, which is maximal
    exactly when <X'> avoids J."""
    if span is None:
        span = span_at_or_above(sg, gs, j, xp)
    if any(gs.j_class[e] == j for e in span):
        return None
    return _without_class(sg, gs, j, "S1")


# ---------------------------------------------------------------------------
# S2: lifted subgroup-type results

def max_s2(sg, gs, j, xp, pfi: PrincipalFactorIso) -> list[MaximalSubsemigroup]:
    """Lift the type-(R6) maximal subsemigroups of the principal factor
    that contain the image of E X', where E holds one idempotent per
    L-class of J (first in discovery order)."""
    members = gs.j_classes[j]
    e_per_l = {}
    for e in sorted(members):
        if e in gs.idempotents:
            e_per_l.setdefault(gs.l_class[e], e)
    required = set()
    for e in e_per_l.values():
        for x in xp:
            ex = sg.product(e, x)
            if gs.j_class[ex] == j:
                required.add(pfi.forward[ex])
    return _lift_rzms_results(sg, gs, j, pfi, max_r6(pfi.target, required_subset=required), "S2")


# ---------------------------------------------------------------------------
# The two sides of a J-class.  Gamma_L over the L-classes and Gamma_R over
# the R-classes are mirror images, so S3-S5 are written once over a side.

@dataclass(frozen=True)
class _Side:
    gamma: CondensedDigraph
    class_ids: tuple[int, ...]  # local Gamma vertex -> global class id
    class_of: tuple[int, ...]  # element index -> global class id
    left: bool

    def key(self, own, other):
        """The (R-class, L-class) key of this side's class ``own`` and
        the other side's class ``other``."""
        return (other, own) if self.left else (own, other)

    def class_of_component(self, c):
        return self.class_ids[min(self.gamma.components[c])]

    def classes_of(self, comps):
        return frozenset(self.class_ids[v] for c in comps for v in self.gamma.components[c])


def _sides(gs, jg: JClassGraphs) -> tuple[_Side, _Side]:
    return (_Side(jg.gamma_l, jg.l_class_ids, gs.l_class, True),
            _Side(jg.gamma_r, jg.r_class_ids, gs.r_class, False))


def _one_sided_gens(gs, j, by_pair, own, other, kept, classes, other_comps=None):
    """Generators of the part of J in ``own``'s classes ``classes`` (the
    classes of the components ``kept``): the group H-class of the first
    idempotent there, one element per source of ``kept`` in its class on
    the other side, and one per source of ``other_comps`` (all of the
    other side's components by default) in its class on this side."""
    anchor = next(e for e in sorted(gs.j_classes[j])
                  if e in gs.idempotents and own.class_of[e] in classes)
    a_own, a_other = own.class_of[anchor], other.class_of[anchor]
    gens = list(by_pair[own.key(a_own, a_other)])
    for u in sources(own.gamma, kept):
        gens.append(min(by_pair[own.key(own.class_of_component(u), a_other)]))
    for v in sources(other.gamma, other_comps):
        gens.append(min(by_pair[other.key(other.class_of_component(v), a_own)]))
    return gens


# ---------------------------------------------------------------------------
# S3: rectangles (unions of both L- and R-classes)

def max_s3(sg, gs, j, jg: JClassGraphs) -> list[MaximalSubsemigroup]:
    nl = jg.gamma_l.component_count
    nr = jg.gamma_r.component_count
    flow_edges = set(jg.gamma_l.edges) | {
        (a + nl, b + nl) for a, b in jg.gamma_r.edges}
    flow = digraph(nl + nr, flow_edges)
    results = []
    for chosen in maximal_independent_sets(jg.delta, flow):
        l_comps = sorted(v for v in chosen if v < nl)
        r_comps = sorted(v - nl for v in chosen if v >= nl)
        if not l_comps or not r_comps:
            continue
        if not all(u in chosen or v in chosen for u, v in jg.theta.edges):
            continue
        results.append(_build_rectangle(sg, gs, j, jg, l_comps, r_comps))
    return results


def _build_rectangle(sg, gs, j, jg, l_comps, r_comps):
    """Generators per the nine-item description for rectangle removals."""
    left, right = _sides(gs, jg)
    a_classes = left.classes_of(l_comps)
    b_classes = right.classes_of(r_comps)
    by_pair = elements_by_pair(gs, j)
    members = set(gs.j_classes[j])
    expected = _complement_elements(sg, gs, j) | frozenset(
        e for e in members
        if gs.l_class[e] in a_classes or gs.r_class[e] in b_classes)

    gens = list(_gens_outside_j(sg, gs, j))                      # (i)
    ideal = ideal_below_generators(sg, gs, j)                    # (ii)
    outside_b = [c for c in range(right.gamma.component_count) if c not in r_comps]
    gens += _one_sided_gens(gs, j, by_pair, left, right,         # (iii)-(v)
                            l_comps, a_classes, outside_b)
    outside_a = [c for c in range(left.gamma.component_count) if c not in l_comps]
    gens += _one_sided_gens(gs, j, by_pair, right, left,         # (vi)-(viii)
                            r_comps, b_classes, outside_a)

    for u in sources(left.gamma):                                # (ix)
        if u in l_comps:
            lid = left.class_of_component(u)
            for rid in sorted(b_classes):
                if (rid, lid) in by_pair:
                    gens.append(min(by_pair[(rid, lid)]))
                    break

    witness = (tuple(sorted(a_classes)), tuple(sorted(b_classes)))
    return _finish(sg, j, "S3", witness, expected, gens, ideal)


# ---------------------------------------------------------------------------
# S4 / S5: one-sided removals

def max_s4_s5(sg, gs, j, jg: JClassGraphs, s3_results) -> list[MaximalSubsemigroup]:
    """S4 removes a colour-0 source of Gamma_L, S5 one of Gamma_R."""
    by_pair = elements_by_pair(gs, j)
    members = set(gs.j_classes[j])
    below = _complement_elements(sg, gs, j)
    ideal = ideal_below_generators(sg, gs, j)
    left, right = _sides(gs, jg)
    results = []
    for k, (tag, own, other) in enumerate((("S4", left, right), ("S5", right, left))):
        n = own.gamma.component_count
        if n <= 1:
            continue
        in_s3 = {r.witness[k] for r in s3_results}
        for u in sources(own.gamma):
            if own.gamma.colour[u]:
                continue
            kept = [c for c in range(n) if c != u]
            classes = own.classes_of(kept)
            witness = (tuple(sorted(classes)),)
            if witness[0] in in_s3:
                continue
            expected = below | frozenset(
                e for e in members if own.class_of[e] in classes)
            gens = _gens_outside_j(sg, gs, j) + _one_sided_gens(
                gs, j, by_pair, own, other, kept, classes)
            results.append(_finish(sg, j, tag, witness, expected, gens, ideal))
    return results


# ---------------------------------------------------------------------------
# S6: remove the whole class

def max_s6(sg, gs, j, jg: JClassGraphs, found_any: bool) -> Optional[MaximalSubsemigroup]:
    if found_any or jg.theta.edges:
        return None
    return _without_class(sg, gs, j, "S6")


# ---------------------------------------------------------------------------
# the full dispatch

def _lift_rzms_results(sg, gs, j, pfi, rzs: list[RzmsMaxSubsemigroup], tag=None):
    """Lift Rees-matrix results on the principal factor of J, tagged ``tag``
    or else MAX- and the Rees type; what J's results share is built once."""
    outside, gens = _complement_elements(sg, gs, j), _gens_outside_j(sg, gs, j)
    ideal, back = ideal_below_generators(sg, gs, j), pfi.backward
    return [_finish(sg, j, tag or "MAX-" + rz.type_tag, rz.witness,
                    outside | {back[t] for t in rz.element_set if t != ZERO},
                    gens + [back[t] for t in rz.generators if t != ZERO], ideal)
            for rz in rzs]


def max_subsemigroups(sg: FiniteSemigroup) -> list[MaximalSubsemigroup]:
    """All non-empty maximal subsemigroups of ``sg``."""
    if sg.size <= TABLE_BOUND:
        sg.table()  # closure validation, and later the oracle, read products densely
    gs = greens_structure(sg)
    gen_classes = sorted({gs.j_class[g] for g in sg.generator_indices})
    maximal_js = gs.maximal_j_classes()
    results: list[MaximalSubsemigroup] = []

    for j in gen_classes:
        try:
            _dispatch_jclass(sg, gs, j, maximal_js, results)
        except CapacityError as exc:
            raise CapacityError(
                f"while processing J-class {j}: {exc}", bound=exc.bound) from exc

    unique = []
    seen = set()
    for r in results:
        if r.element_indices not in seen:
            seen.add(r.element_indices)
            unique.append(r)
    unique.sort(key=lambda r: (r.j_class, r.type_tag, sorted(r.element_indices)))
    return unique


def _check_capacity(gs, j, vertices) -> None:
    """Check the capacity bounds of the searches below before the principal
    factor is built: max_r6 searches the group H-classes of J (every H-class
    of a regular J-class has their order), and an independent-set search
    runs on ``vertices`` vertices."""
    _check_search_order(len(gs.h_classes[gs.h_class[gs.j_classes[j][0]]]))
    _check_vertex_count(vertices)


def _dispatch_jclass(sg, gs, j, maximal_js, results) -> None:
    if j in maximal_js:
        if len(gs.j_classes[j]) == 1:
            if sg.size > 1:  # in a one-element semigroup S \ J is empty
                results.append(_without_class(sg, gs, j, "MAX-TRIVIAL"))
        else:
            # a non-trivial maximal J-class of a finite semigroup is regular;
            # max_r5 searches its Graham-Houghton graph, on its R- and L-classes
            _check_capacity(gs, j, sum(len(set(ids)) for ids in zip(*elements_by_pair(gs, j))))
            pfi = principal_factor_iso(sg, gs, j)
            results += _lift_rzms_results(sg, gs, j, pfi, [  # R \ {0} lifts to S itself
                rz for rz in max_subsemigroups_rzms(pfi.target) if rz.type_tag != "R2"])
        return

    xp = x_prime(sg, gs, j)
    span = span_at_or_above(sg, gs, j, xp)
    if not gs.regular_j[j]:
        got = max_s1(sg, gs, j, xp, span=span)
        if got is not None:
            results.append(got)
        return

    j_gens = {g for g in sg.generator_indices if gs.j_class[g] == j}
    if j_gens <= span:
        return  # every generator of J is recoverable from above
    jg = build_jclass_graphs(sg, gs, j, xp, span=span)
    _check_capacity(gs, j, jg.delta.vertex_count)  # max_s3 searches Delta
    pfi = principal_factor_iso(sg, gs, j)
    found = max_s2(sg, gs, j, xp, pfi)
    s3 = max_s3(sg, gs, j, jg)
    found += s3
    found += max_s4_s5(sg, gs, j, jg, s3)
    results.extend(found)
    got = max_s6(sg, gs, j, jg, found_any=bool(found))
    if got is not None:
        results.append(got)
