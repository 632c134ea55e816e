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
then validated by closure; if a synthesised set fails validation the full
element list is substituted and a warning is emitted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapacityError, InputError

from .graphs import (
    CondensedDigraph,
    Graph,
    digraph,
    graph,
    maximal_independent_sets_closed,
    sources,
    strongly_connected_condensation,
)
from .perm_group import _check_lattice_order
from .rees_matrix import RzmsMaxSubsemigroup, ZERO, max_r3_r4, max_r5, max_r6
from .semigroup_core import (
    FiniteSemigroup,
    GreensStructure,
    PrincipalFactorIso,
    closure_with_ideal,
    greens_structure,
    ideal_below_generators,
    principal_factor_iso,
    span_at_or_above,
    x_prime,
)

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
    l_ids = sorted({gs.l_class[e] for e in members})
    r_ids = sorted({gs.r_class[e] for e in members})
    l_pos = {lid: k for k, lid in enumerate(l_ids)}
    r_pos = {rid: k for k, rid in enumerate(r_ids)}
    member_set = set(members)

    l_rep = {}
    r_rep = {}
    for e in members:
        l_rep.setdefault(gs.l_class[e], e)
        r_rep.setdefault(gs.r_class[e], e)

    l_edges = set()
    r_edges = set()
    for x in xp:
        for lid, a in l_rep.items():
            ax = sg.product(a, x)
            if ax in member_set:
                target = gs.l_class[ax]
                if target != lid:
                    l_edges.add((l_pos[lid], l_pos[target]))
        for rid, a in r_rep.items():
            xa = sg.product(x, a)
            if xa in member_set:
                target = gs.r_class[xa]
                if target != rid:
                    r_edges.add((r_pos[rid], r_pos[target]))
    gamma_l = strongly_connected_condensation(digraph(len(l_ids), l_edges))
    gamma_r = strongly_connected_condensation(digraph(len(r_ids), r_edges))

    nl = gamma_l.component_count
    offset = nl
    delta_edges = set()
    for e in members:
        if e in gs.idempotents:
            u = gamma_l.component_of[l_pos[gs.l_class[e]]]
            v = gamma_r.component_of[r_pos[gs.r_class[e]]]
            delta_edges.add((u, offset + v))
    if span is None:
        span = span_at_or_above(sg, gs, j, xp)
    span_in_j = frozenset(e for e in span if gs.j_class[e] == j)
    theta_edges = set()
    for e in span_in_j:
        u = gamma_l.component_of[l_pos[gs.l_class[e]]]
        v = gamma_r.component_of[r_pos[gs.r_class[e]]]
        theta_edges.add((u, offset + v))
    total = nl + gamma_r.component_count
    delta = graph(total, delta_edges)
    theta = graph(total, theta_edges)

    # colour 1 exactly on the components touched by Theta
    l_colour = [0] * nl
    r_colour = [0] * gamma_r.component_count
    for u, v in theta.edges:
        a, b = (u, v) if u < nl else (v, u)
        l_colour[a] = 1
        r_colour[b - offset] = 1
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
    generators by closure (with the strictly-below ideal split off, which
    makes the walk linear in the part above the ideal)."""
    ideal = frozenset(ideal_elems)
    gens = tuple(dict.fromkeys(list(extra_gens) + list(ideal_elems)))
    if sg.size <= VALIDATION_BOUND:
        got = closure_with_ideal(sg, ideal, extra_gens)
        if got != expected:
            warnings.warn(
                f"synthesised generators for a type-{tag} subsemigroup failed "
                "closure validation; falling back to the full element list")
            gens = tuple(sorted(expected))
    return MaximalSubsemigroup(
        type_tag=tag, j_class=j, generators=gens,
        element_indices=frozenset(expected), witness=witness)


def _gens_outside_j(sg, gs, j):
    return [g for g in sg.generator_indices if gs.j_class[g] != j]


def _complement_elements(sg, gs, j):
    members = set(gs.j_classes[j])
    return frozenset(e for e in range(sg.size) if e not in members)


# ---------------------------------------------------------------------------
# S1: non-regular classes

def max_s1(sg, gs, j, xp, span=None) -> Optional[MaximalSubsemigroup]:
    """S \\ J for a non-regular non-maximal class J, which is maximal
    exactly when <X'> avoids J."""
    if span is None:
        span = span_at_or_above(sg, gs, j, xp)
    if any(gs.j_class[e] == j for e in span):
        return None
    expected = _complement_elements(sg, gs, j)
    ideal = ideal_below_generators(sg, gs, j)
    extra = _gens_outside_j(sg, gs, j)
    return _finish(sg, j, "S1", None, expected, extra, ideal)


# ---------------------------------------------------------------------------
# S2: lifted subgroup-type results

def max_s2(sg, gs, j, xp, pfi: PrincipalFactorIso, span=None) -> list[MaximalSubsemigroup]:
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
    results = []
    ideal = ideal_below_generators(sg, gs, j)
    below = _complement_elements(sg, gs, j)
    for rz in max_r6(pfi.target, required_subset=required):
        kept = frozenset(pfi.backward[t] for t in rz.element_set if t != ZERO)
        expected = below | kept
        extra = _gens_outside_j(sg, gs, j) + [
            pfi.backward[t] for t in rz.generators if t != ZERO]
        results.append(_finish(sg, j, "S2", rz.witness, expected, extra, ideal))
    return results


# ---------------------------------------------------------------------------
# S3: rectangles (unions of both L- and R-classes)

def _side_split(jg: JClassGraphs, chosen):
    nl = jg.gamma_l.component_count
    l_comps = sorted(v for v in chosen if v < nl)
    r_comps = sorted(v - nl for v in chosen if v >= nl)
    return l_comps, r_comps


def _l_classes_of_components(jg, comps):
    out = set()
    for c in comps:
        out |= {jg.l_class_ids[v] for v in jg.gamma_l.components[c]}
    return frozenset(out)


def _r_classes_of_components(jg, comps):
    out = set()
    for c in comps:
        out |= {jg.r_class_ids[v] for v in jg.gamma_r.components[c]}
    return frozenset(out)


def max_s3(sg, gs, j, xp, jg: JClassGraphs) -> list[MaximalSubsemigroup]:
    nl = jg.gamma_l.component_count
    nr = jg.gamma_r.component_count
    flow_edges = set(jg.gamma_l.edges) | {
        (a + nl, b + nl) for a, b in jg.gamma_r.edges}
    flow = digraph(nl + nr, flow_edges)
    results = []
    for chosen in maximal_independent_sets_closed(jg.delta, flow):
        l_comps, r_comps = _side_split(jg, chosen)
        if not l_comps or not r_comps:
            continue
        chosen_set = set(chosen)
        if not all(u in chosen_set or v in chosen_set for u, v in jg.theta.edges):
            continue
        a_classes = _l_classes_of_components(jg, l_comps)
        b_classes = _r_classes_of_components(jg, r_comps)
        results.append(_build_rectangle(sg, gs, j, jg, l_comps, r_comps,
                                        a_classes, b_classes))
    return results


def _elements_by_pair(sg, gs, j):
    by_pair = {}
    for e in gs.j_classes[j]:
        by_pair.setdefault((gs.r_class[e], gs.l_class[e]), []).append(e)
    for v in by_pair.values():
        v.sort()
    return by_pair


def _group_h_class_with_l_in(sg, gs, j, a_classes):
    for e in sorted(gs.j_classes[j]):
        if e in gs.idempotents and gs.l_class[e] in a_classes:
            return e
    return None


def _group_h_class_with_r_in(sg, gs, j, b_classes):
    for e in sorted(gs.j_classes[j]):
        if e in gs.idempotents and gs.r_class[e] in b_classes:
            return e
    return None


def _induced_sources(cd: CondensedDigraph, kept):
    kept = set(kept)
    has_in = {b for a, b in cd.edges if a in kept and b in kept}
    return [k for k in sorted(kept) if k not in has_in]


def _build_rectangle(sg, gs, j, jg, l_comps, r_comps, a_classes, b_classes):
    """Generators per the nine-item description for rectangle removals."""
    by_pair = _elements_by_pair(sg, gs, j)
    members = set(gs.j_classes[j])
    expected = _complement_elements(sg, gs, j) | frozenset(
        e for e in members
        if gs.l_class[e] in a_classes or gs.r_class[e] in b_classes)

    gens = list(_gens_outside_j(sg, gs, j))                      # (i)
    ideal = ideal_below_generators(sg, gs, j)                    # (ii)

    x_anchor = _group_h_class_with_l_in(sg, gs, j, a_classes)    # (iii)
    gens += by_pair[(gs.r_class[x_anchor], gs.l_class[x_anchor])]
    for u in _induced_sources(jg.gamma_l, l_comps):              # (iv)
        lid = jg.l_class_ids[min(jg.gamma_l.components[u])]
        gens.append(min(by_pair[(gs.r_class[x_anchor], lid)]))
    all_r_comps = range(jg.gamma_r.component_count)
    outside_b = [c for c in all_r_comps if c not in r_comps]
    for v in _induced_sources(jg.gamma_r, outside_b):            # (v)
        rid = jg.r_class_ids[min(jg.gamma_r.components[v])]
        gens.append(min(by_pair[(rid, gs.l_class[x_anchor])]))

    x2_anchor = _group_h_class_with_r_in(sg, gs, j, b_classes)   # (vi)
    gens += by_pair[(gs.r_class[x2_anchor], gs.l_class[x2_anchor])]
    for u in _induced_sources(jg.gamma_r, r_comps):              # (vii)
        rid = jg.r_class_ids[min(jg.gamma_r.components[u])]
        gens.append(min(by_pair[(rid, gs.l_class[x2_anchor])]))
    all_l_comps = range(jg.gamma_l.component_count)
    outside_a = [c for c in all_l_comps if c not in l_comps]
    for v in _induced_sources(jg.gamma_l, outside_a):            # (viii)
        lid = jg.l_class_ids[min(jg.gamma_l.components[v])]
        gens.append(min(by_pair[(gs.r_class[x2_anchor], lid)]))

    for u in sources(jg.gamma_l):                                # (ix)
        if u in l_comps:
            lid = jg.l_class_ids[min(jg.gamma_l.components[u])]
            for rid in sorted(b_classes):
                if (rid, lid) in by_pair:
                    gens.append(min(by_pair[(rid, lid)]))
                    break

    witness = (tuple(sorted(a_classes)), tuple(sorted(b_classes)))
    return _finish(sg, j, "S3", witness, expected, gens, ideal)


# ---------------------------------------------------------------------------
# S4 / S5: one-sided removals

def max_s4_s5(sg, gs, j, xp, jg: JClassGraphs, s3_results) -> list[MaximalSubsemigroup]:
    by_pair = _elements_by_pair(sg, gs, j)
    members = set(gs.j_classes[j])
    below = _complement_elements(sg, gs, j)
    ideal = ideal_below_generators(sg, gs, j)
    s3_a = {w[0] for w in (r.witness for r in s3_results)}
    s3_b = {w[1] for w in (r.witness for r in s3_results)}
    results = []

    nl = jg.gamma_l.component_count
    if nl > 1:
        for u in sources(jg.gamma_l):
            if jg.gamma_l.colour[u]:
                continue
            kept = [c for c in range(nl) if c != u]
            a_classes = _l_classes_of_components(jg, kept)
            if tuple(sorted(a_classes)) in s3_a:
                continue
            expected = below | frozenset(
                e for e in members if gs.l_class[e] in a_classes)
            gens = list(_gens_outside_j(sg, gs, j))              # (i), (ii) below
            x_anchor = _group_h_class_with_l_in(sg, gs, j, a_classes)
            gens += by_pair[(gs.r_class[x_anchor], gs.l_class[x_anchor])]  # (iii)
            for w in _induced_sources(jg.gamma_l, kept):         # (iv)
                lid = jg.l_class_ids[min(jg.gamma_l.components[w])]
                gens.append(min(by_pair[(gs.r_class[x_anchor], lid)]))
            for v in sources(jg.gamma_r):                        # (v)
                rid = jg.r_class_ids[min(jg.gamma_r.components[v])]
                gens.append(min(by_pair[(rid, gs.l_class[x_anchor])]))
            witness = (tuple(sorted(a_classes)),)
            results.append(_finish(sg, j, "S4", witness, expected, gens, ideal))

    nr = jg.gamma_r.component_count
    if nr > 1:
        for u in sources(jg.gamma_r):
            if jg.gamma_r.colour[u]:
                continue
            kept = [c for c in range(nr) if c != u]
            b_classes = _r_classes_of_components(jg, kept)
            if tuple(sorted(b_classes)) in s3_b:
                continue
            expected = below | frozenset(
                e for e in members if gs.r_class[e] in b_classes)
            gens = list(_gens_outside_j(sg, gs, j))
            x_anchor = _group_h_class_with_r_in(sg, gs, j, b_classes)
            gens += by_pair[(gs.r_class[x_anchor], gs.l_class[x_anchor])]
            for w in _induced_sources(jg.gamma_r, kept):
                rid = jg.r_class_ids[min(jg.gamma_r.components[w])]
                gens.append(min(by_pair[(rid, gs.l_class[x_anchor])]))
            for v in sources(jg.gamma_l):
                lid = jg.l_class_ids[min(jg.gamma_l.components[v])]
                gens.append(min(by_pair[(gs.r_class[x_anchor], lid)]))
            witness = (tuple(sorted(b_classes)),)
            results.append(_finish(sg, j, "S5", witness, expected, gens, ideal))
    return results


# ---------------------------------------------------------------------------
# S6: remove the whole class

def max_s6(sg, gs, j, xp, jg: JClassGraphs, found_any: bool) -> Optional[MaximalSubsemigroup]:
    if found_any or jg.theta.edges:
        return None
    expected = _complement_elements(sg, gs, j)
    ideal = ideal_below_generators(sg, gs, j)
    extra = _gens_outside_j(sg, gs, j)
    return _finish(sg, j, "S6", None, expected, extra, ideal)


# ---------------------------------------------------------------------------
# the full dispatch

def _lift_rzms_result(sg, gs, j, pfi, rz: RzmsMaxSubsemigroup):
    kept = frozenset(pfi.backward[t] for t in rz.element_set if t != ZERO)
    expected = _complement_elements(sg, gs, j) | kept
    ideal = ideal_below_generators(sg, gs, j)
    if rz.type_tag == "R6":
        extra = _gens_outside_j(sg, gs, j) + [
            pfi.backward[t] for t in rz.generators if t != ZERO]
    else:
        # R3/R4/R5 results carry no constructive generating set; use the
        # kept part of the class itself
        extra = _gens_outside_j(sg, gs, j) + sorted(kept)
    return _finish(sg, j, "MAX-" + rz.type_tag, rz.witness, expected, extra, ideal)


def max_subsemigroups(sg: FiniteSemigroup) -> list[MaximalSubsemigroup]:
    """All non-empty maximal subsemigroups of ``sg``."""
    from .semigroup_core import TABLE_BOUND

    if sg.size <= TABLE_BOUND:
        sg.table()  # the closure validations hit products densely
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


def _check_group_order(gs, j) -> None:
    """Both branches below reach max_r6, whose subgroup lattice of the
    group H-class of J has a capacity bound; check it before the principal
    factor is built.  Every H-class of a regular J-class has that order."""
    _check_lattice_order(len(gs.h_classes[gs.h_class[gs.j_classes[j][0]]]))


def _dispatch_jclass(sg, gs, j, maximal_js, results) -> None:
    if j in maximal_js:
        if len(gs.j_classes[j]) == 1:
            expected = _complement_elements(sg, gs, j)
            if not expected:
                return  # one-element semigroup: S \ J is empty
            ideal = ideal_below_generators(sg, gs, j)
            extra = _gens_outside_j(sg, gs, j)
            results.append(_finish(
                sg, j, "MAX-TRIVIAL", None, expected, extra, ideal))
        else:
            # a non-trivial maximal J-class of a finite semigroup is regular
            _check_group_order(gs, j)
            pfi = principal_factor_iso(sg, gs, j)
            for rz in (max_r3_r4(pfi.target)
                       + max_r5(pfi.target)
                       + max_r6(pfi.target)):
                results.append(_lift_rzms_result(sg, gs, j, pfi, rz))
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
    _check_group_order(gs, j)
    pfi = principal_factor_iso(sg, gs, j)
    found = max_s2(sg, gs, j, xp, pfi, span=span)
    s3 = max_s3(sg, gs, j, xp, jg)
    found += s3
    found += max_s4_s5(sg, gs, j, xp, jg, s3)
    results.extend(found)
    got = max_s6(sg, gs, j, xp, jg, found_any=bool(found))
    if got is not None:
        results.append(got)
