import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import support
from maxsemi import errors, rees_matrix
from maxsemi.graphs import connected_components
from maxsemi.oracle import SUBSET_ENUMERATION_BOUND, brute_force_maximal
from maxsemi.perm_group import Permutation, cycle_string, identity, parse_cycles
from maxsemi.rees_matrix import (
    ReesZeroMatrixSemigroup,
    ZERO,
    brandt,
    generating_set,
    graham_houghton,
    max_r1_r2,
    max_r3_r4,
    max_r5,
    max_r6,
    max_subsemigroups_rzms,
    normalize,
)
from maxsemi.semigroup_core import closure_of_indices, semigroup_from_rzms

C1 = support.cyclic_group(1)
C2 = support.cyclic_group(2)


def c2_pair():
    return identity(2), Permutation((1, 0))


def trivial_1x1():
    return ReesZeroMatrixSemigroup(C1, ((identity(1),),))


def zero_free_2x2_c2():
    one, x = c2_pair()
    return ReesZeroMatrixSemigroup(C2, ((one, one), (one, x)))


class TestMultiplication:
    def test_zero_absorbs(self):
        b = brandt(C2, 2)
        one, x = c2_pair()
        assert b.multiply(ZERO, (0, x, 1)) == ZERO
        assert b.multiply((0, x, 1), ZERO) == ZERO

    def test_brandt_products(self):
        b = brandt(C2, 2)
        one, x = c2_pair()
        # p_{0,0} = 1: (0,x,0)(0,x,1) = (0, x*x, 1) = (0, 1, 1)
        assert b.multiply((0, x, 0), (0, x, 1)) == (0, one, 1)
        # p_{1,0} = 0
        assert b.multiply((0, x, 1), (0, x, 1)) == ZERO

    def test_not_regular_rejected(self):
        one, x = c2_pair()
        with pytest.raises(errors.InputError, match="regular"):
            ReesZeroMatrixSemigroup(C2, ((one, None), (one, None)))


class TestGrahamHoughton:
    def test_s4_example(self, s4_rzms):
        gh = graham_houghton(s4_rzms)
        assert gh.vertex_count == 12
        assert len(gh.edges) == 11
        comps = connected_components(gh)
        # columns 0..5 carry the I side (1-based 1..6); vertices 6..11 the rows -1..-6
        assert [sorted(c) for c in comps] == [
            [0, 1, 2, 6, 7, 8], [3, 4, 9, 10], [5, 11]]

    def test_zero_free_complete_bipartite(self):
        gh = graham_houghton(zero_free_2x2_c2())
        assert len(gh.edges) == 4

    def test_brandt_perfect_matching(self):
        gh = graham_houghton(brandt(C2, 3))
        assert len(gh.edges) == 3
        assert len(connected_components(gh)) == 3

    def test_s4_gh_has_sixteen_independent_sets(self, s4_rzms):
        from maxsemi.graphs import maximal_independent_sets

        sets = maximal_independent_sets(graham_houghton(s4_rzms))
        assert len(sets) == 16
        one_sided = [s for s in sets
                     if s == frozenset(range(6)) or s == frozenset(range(6, 12))]
        assert len(one_sided) == 2


class TestNormalize:
    def test_s4_component_groups(self, s4_rzms):
        nd = normalize(s4_rzms)  # construction verifies the iso
        orders = [c.subgroup.order for c in nd.components]
        assert orders == [2, 4, 1]
        # G1 is generated by a double transposition, G2 by a 4-cycle
        g1 = [p for p in nd.components[0].subgroup.elements if not p.is_identity()]
        assert len(g1) == 1 and sorted(cycle_string(g1[0])) == sorted("(1 2)(3 4)")

    def test_anchor_entries_are_identity(self, s4_rzms):
        nd = normalize(s4_rzms)
        for comp in nd.components:
            assert nd.normalized.matrix[comp.anchor_lam][comp.anchor_i].is_identity()

    def test_block_entries_lie_in_component_group(self, s4_rzms):
        nd = normalize(s4_rzms)
        for comp in nd.components:
            for lam in comp.lam_indices:
                for i in comp.i_indices:
                    e = nd.normalized.matrix[lam][i]
                    if e is not None:
                        assert e in comp.subgroup.element_set

    def test_idempotent_generated_intersection_is_component_group(self, s4_rzms):
        # psi(<E(R')> n H_{i_k, lam_k}) = G_k
        nd = normalize(s4_rzms)
        sg = semigroup_from_rzms(nd.normalized)
        idem = [e for e in range(sg.size)
                if sg.product(e, e) == e]
        span = closure_of_indices(sg, idem)
        for comp in nd.components:
            got = {
                sg.elements[e][1]
                for e in span
                if sg.elements[e] != ZERO
                and sg.elements[e][0] == comp.anchor_i
                and sg.elements[e][2] == comp.anchor_lam
            }
            assert got == set(comp.subgroup.elements)

    def test_brandt_already_normalized(self):
        b = brandt(C2, 3)
        nd = normalize(b)
        assert nd.normalized.matrix == b.matrix

    def test_zero_free_2x2_component_group_is_whole_group(self):
        nd = normalize(zero_free_2x2_c2())
        assert len(nd.components) == 1
        assert nd.components[0].subgroup.order == 2

    def test_forward_backward_inverse(self, s4_rzms):
        nd = normalize(s4_rzms)
        for x in itertools.islice(s4_rzms.elements(), 200):
            assert nd.backward(nd.forward(x)) == x

    def test_corrupted_entry_is_caught(self, s4_rzms, monkeypatch):
        # entry (1, 2) lies off the BFS tree, so the scales cannot fix it
        entry = normalize(s4_rzms).normalized.matrix[1][2]
        assert not entry.is_identity()
        corrupt_normalized_entry(monkeypatch, 1, 2)
        with pytest.raises(AssertionError):
            normalize(s4_rzms)

    def test_corrupted_entry_is_caught_above_5000_elements(self, monkeypatch):
        # 15 x 15 zero-free over S4: 5 401 elements; row 0 and column 0
        # are the identity, so normalisation leaves P as it is
        s4 = support.symmetric_group(4)
        rzms = ReesZeroMatrixSemigroup(s4, tuple(
            tuple(s4.elements[(lam * i) % s4.order] for i in range(15))
            for lam in range(15)))
        assert rzms.size == 5401
        corrupt_normalized_entry(monkeypatch, 1, 2)
        with pytest.raises(AssertionError):
            normalize(rzms)


def corrupt_normalized_entry(monkeypatch, lam, i):
    """Make ``normalize`` build its normalized matrix with entry (lam, i)
    moved to the next element of the group."""
    real = rees_matrix.ReesZeroMatrixSemigroup

    def corrupted(group, matrix):
        rows = [list(row) for row in matrix]
        rows[lam][i] = group.elements[(group.elements.index(rows[lam][i]) + 1) % group.order]
        return real(group, tuple(map(tuple, rows)))

    monkeypatch.setattr(rees_matrix, "ReesZeroMatrixSemigroup", corrupted)


class TestR1R2:
    def test_s4_example_neither(self, s4_rzms):
        assert max_r1_r2(s4_rzms) == []

    def test_trivial_1x1_both(self):
        got = max_r1_r2(trivial_1x1())
        assert sorted(r.type_tag for r in got) == ["R1", "R2"]
        # both really are maximal: the oracle on the 2-element semigroup
        sg = semigroup_from_rzms(trivial_1x1())
        report = brute_force_maximal(sg)
        lifted = {frozenset(sg.index(x) for x in r.element_set) for r in got}
        assert lifted == set(report.maximal)

    def test_zero_free_emits_r2(self):
        got = max_r1_r2(zero_free_2x2_c2())
        assert [r.type_tag for r in got] == ["R2"]
        assert got[0].size == 8


class TestR3R4:
    def test_s4_example_nine(self, s4_rzms):
        got = max_r3_r4(s4_rzms)
        assert len(got) == 9
        removed_rows = sorted(r.witness[0] for r in got if r.type_tag == "R3")
        removed_cols = sorted(r.witness[0] for r in got if r.type_tag == "R4")
        assert removed_rows == [0, 1, 2, 3, 4]  # rows -1 .. -5, 1-based
        assert removed_cols == [0, 2, 3, 4]     # columns 1, 3, 4, 5, 1-based

    def test_brandt_none(self):
        assert max_r3_r4(brandt(C2, 2)) == []

    def test_complete_bipartite_all(self):
        got = max_r3_r4(zero_free_2x2_c2())
        assert len(got) == 4


class TestR5:
    def test_s4_example_fourteen_exact_sets(self, s4_rzms):
        got = max_r5(s4_rzms)
        assert len(got) == 14
        # the fourteen independent sets, written with 1-based I and
        # negative Lambda
        expected = {
            (-1, -2, -3, -4, -5, 6), (-1, -2, -3, -6, 4, 5), (-1, -2, -3, 4, 5, 6),
            (-2, -4, -5, -6, 2), (-2, -4, -5, 2, 6), (-2, -6, 2, 4, 5),
            (-2, 2, 4, 5, 6), (-3, -4, -5, -6, 1, 3), (-3, -4, -5, 1, 3, 6),
            (-3, -6, 1, 3, 4, 5), (-3, 1, 3, 4, 5, 6), (-4, -5, -6, 1, 2, 3),
            (-4, -5, 1, 2, 3, 6), (-6, 1, 2, 3, 4, 5),
        }
        produced = {
            frozenset([i + 1 for i in r.witness[0]]
                      + [-(l + 1) for l in r.witness[1]])
            for r in got
        }
        assert produced == {frozenset(t) for t in expected}

    def test_brandt_c2_two(self):
        got = max_r5(brandt(C2, 2))
        assert len(got) == 2

    def test_complete_bipartite_none(self):
        assert max_r5(zero_free_2x2_c2()) == []


class TestR6:
    def test_s4_example_nine_all_from_d8(self, s4_rzms):
        got = max_r6(s4_rzms)
        assert len(got) == 9
        for r in got:
            sub_gens = [Permutation(t) for t in r.witness[0]]
            order = len(
                closure_of_perms(sub_gens))
            assert order == 8  # every result arises from the D8 class

    def test_brandt_s3_counts(self):
        s3 = support.symmetric_group(3)
        for m in (2, 3):
            got = max_r6(brandt(s3, m))
            assert len(got) == 2 ** (m - 1) + 3 ** m

    def test_count_formula_brandt(self):
        # per class |T_1| * prod |T_k|, bounded by [G:V]^(n-1) for normal V
        s3 = support.symmetric_group(3)
        got = max_r6(brandt(s3, 2))
        by_order = Counter()
        for r in got:
            sub_gens = [Permutation(t) for t in r.witness[0]]
            by_order[len(closure_of_perms(sub_gens))] += 1
        assert by_order[3] == 2   # V = A3, normal: [G:V]^(m-1) = 2
        assert by_order[2] == 9   # V = C2: 3^m

    def test_brandt_s4_count_formula(self):
        # per class |T_1| * prod |T_k| with trivial G_k: A4 (normal) gives
        # [G:V]^(m-1) = 2, D8 gives 3^m = 9, S3 gives 4^m = 16
        s4 = support.symmetric_group(4)
        got = max_r6(brandt(s4, 2))
        assert len(got) == 27
        by_order = Counter(
            len(closure_of_perms([Permutation(t) for t in r.witness[0]]))
            for r in got)
        assert by_order == {12: 2, 8: 9, 6: 16}

    def test_brandt_s5_counts(self):
        # S5 has four classes of maximal subgroups; per class, a transversal
        # of N(V) for t_1 and of V for t_2, t_3 with trivial G_k gives
        # [G:N(V)] * [G:V]^2 tuples: 2*2^2, 5*5^2, 6*6^2 and 10*10^2
        got = max_subsemigroups_rzms(brandt(support.symmetric_group(5), 3))
        assert Counter(r.type_tag for r in got) == {"R5": 6, "R6": 1345}
        by_order = Counter(
            len(closure_of_perms([Permutation(t) for t in r.witness[0]]))
            for r in got if r.type_tag == "R6")
        assert by_order == {60: 4, 24: 125, 20: 216, 12: 1000}

    def test_zero_free_2x2_none(self):
        assert max_r6(zero_free_2x2_c2()) == []

    def test_transversal_choice_invariance(self, s4_rzms):
        plain_results = max_r6(s4_rzms)
        with support.reversed_transversals():
            flipped_results = max_r6(s4_rzms)
        plain = {r.element_set for r in plain_results}
        flipped = {r.element_set for r in flipped_results}
        assert plain == flipped
        # the search read the patched transversals: its coset tuples moved
        assert {r.witness for r in plain_results} != {r.witness for r in flipped_results}

    def test_reversed_transversals_differ(self, s4_rzms):
        # the invariance tests above see another transversal for every class
        group = s4_rzms.group
        default = rees_matrix.maximal_subgroup_classes(group)
        with support.reversed_transversals():
            flipped = rees_matrix.maximal_subgroup_classes(group)
            flipped_v = [rees_matrix.right_coset_reps(group, c.representative)
                         for c in default]
        assert len(default) == len(flipped) == 3
        for c, f, v_reps in zip(default, flipped, flipped_v):
            assert f.representative == c.representative
            assert f.normalizer_coset_reps != c.normalizer_coset_reps
            assert v_reps != rees_matrix.right_coset_reps(group, c.representative)

    def test_required_subset_orientation(self):
        # the (k, l) block test is t_k g t_l^-1 in V, not t_l g t_k^-1:
        # over three components, filtering must equal post-filtering
        rz = brandt(support.symmetric_group(3), 3)
        unfiltered = [r.element_set for r in max_r6(rz)]
        nonzero = [x for x in rz.elements() if x != ZERO]
        rng = random.Random(31)
        for _ in range(20):
            want = set(rng.sample(nonzero, 2))
            got = {r.element_set for r in max_r6(rz, required_subset=want)}
            assert got == {s for s in unfiltered if want <= s}

    def test_required_subset_filter(self):
        b = brandt(C2, 2)
        unfiltered = max_r6(b)
        assert len(unfiltered) == 2
        # force containment of a specific non-idempotent element
        one, x = c2_pair()
        want = {(0, x, 0)}
        filtered = max_r6(b, required_subset=want)
        assert all(want <= r.element_set for r in filtered)
        assert len(filtered) < len(unfiltered) or all(
            want <= r.element_set for r in unfiltered)


def closure_of_perms(gens):
    if not gens:
        return {()}
    degree = gens[0].degree
    seen = {identity(degree)}
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
    return seen


class TestFullSearch:
    def test_s4_example_thirty_two(self, s4_rzms):
        got = max_subsemigroups_rzms(s4_rzms)
        counts = Counter(r.type_tag for r in got)
        assert len(got) == 32
        assert counts["R3"] + counts["R4"] == 9
        assert counts["R5"] == 14
        assert counts["R6"] == 9
        assert len({r.element_set for r in got}) == 32

    def test_results_proper_closed_maximal(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)
        sg.table()
        for r in max_subsemigroups_rzms(s4_rzms):
            idxs = frozenset(sg.index(x) for x in r.element_set)
            assert len(idxs) < sg.size
            gen_idxs = [sg.index(x) for x in r.generators]
            assert closure_of_indices(sg, gen_idxs) == idxs

    def test_matrix_relabelling_invariance(self, s4_rzms):
        # permuting rows and columns is an isomorphism; the results must
        # correspond under it (this also exercises a different spanning
        # tree and different anchors in the normalization)
        rperm = [3, 0, 5, 1, 4, 2]
        cperm = [2, 4, 0, 5, 1, 3]
        matrix = tuple(
            tuple(s4_rzms.matrix[rperm[lam]][cperm[i]] for i in range(6))
            for lam in range(6))
        other = ReesZeroMatrixSemigroup(s4_rzms.group, matrix)

        def relabel(x):
            if x == ZERO:
                return ZERO
            i, g, lam = x
            return (cperm[i], g, rperm[lam])

        original = {frozenset(map(relabel, r.element_set))
                    for r in max_subsemigroups_rzms(other)}
        expected = {r.element_set for r in max_subsemigroups_rzms(s4_rzms)}
        assert original == expected

    def test_brandt_c2_against_oracle(self):
        b = brandt(C2, 2)
        sg = semigroup_from_rzms(b)
        got = {frozenset(sg.index(x) for x in r.element_set)
               for r in max_subsemigroups_rzms(b)}
        assert got == set(brute_force_maximal(sg).maximal)


class TestDual:
    # the dual M0[Lambda, G, I; Q], q_{i,lam} = p_{lam,i}^-1, is
    # anti-isomorphic to R by f(i, g, lam) = (lam, g^-1, i): with
    # a = (i, g, lam) and b = (k, h, mu), f(a b) = (mu, h^-1 p_{lam,k}^-1 g^-1, i)
    # = f(b) f(a).  So f maps the maximal subsemigroups of R onto those of
    # the dual, rows becoming columns: R3 and R4 swap, and so do the two
    # halves (X, Y) of an R5 witness
    SWAPPED = {"R3": "R4", "R4": "R3"}

    @pytest.mark.parametrize("name", ["s4", "brandt-s3-3"])
    def test_results_map_onto_the_duals(self, name, s4_rzms):
        rzms = s4_rzms if name == "s4" else brandt(support.symmetric_group(3), 3)
        dual = ReesZeroMatrixSemigroup(rzms.group, tuple(
            tuple(None if row[i] is None else row[i].inverse() for row in rzms.matrix)
            for i in range(rzms.num_cols)))

        def flip(x):
            return ZERO if x == ZERO else (x[2], x[1].inverse(), x[0])

        def described(r, flipped):
            # an R6 witness (subgroup and cosets) is not mapped here
            witness = None if r.type_tag == "R6" else r.witness
            if not flipped:
                return r.type_tag, witness, r.element_set
            return (self.SWAPPED.get(r.type_tag, r.type_tag), witness and witness[::-1],
                    frozenset(map(flip, r.element_set)))

        results = max_subsemigroups_rzms(rzms)
        dual_results = max_subsemigroups_rzms(dual)
        assert len(results) == len(dual_results)
        assert ({described(r, True) for r in results}
                == {described(r, False) for r in dual_results})
        # on S4 the R3 and R4 counts differ, so a swap that failed would show
        tags = Counter(r.type_tag for r in results)
        assert tags["R5"] and tags["R6"] and (name != "s4" or (tags["R3"], tags["R4"]) == (5, 4))
        assert all(support.right_closure(r.generators, dual.multiply) == r.element_set
                   for r in dual_results)


SMALL_GROUPS = [support.cyclic_group(1), support.cyclic_group(2),
                support.cyclic_group(3), support.symmetric_group(3)]


@st.composite
def small_regular_rzms(draw):
    """A regular Rees 0-matrix semigroup over C1, C2, C3 or S3 with at most
    16 elements.  Entries are drawn as zero or a group element; a row or
    column left all zero then gets one drawn non-zero entry."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    cap = (SUBSET_ENUMERATION_BOUND - 1) // group.order
    rows = draw(st.integers(1, cap))
    cols = draw(st.integers(1, cap // rows))
    element = st.sampled_from(group.elements)
    matrix = [[draw(st.one_of(st.none(), element)) for _ in range(cols)]
              for _ in range(rows)]
    for lam in range(rows):
        if all(e is None for e in matrix[lam]):
            matrix[lam][lam % cols] = draw(element)
    for i in range(cols):
        if all(row[i] is None for row in matrix):
            matrix[i % rows][i] = draw(element)
    return ReesZeroMatrixSemigroup(group, tuple(map(tuple, matrix)))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(small_regular_rzms())
def test_search_matches_brute_force(rzms):
    sg = semigroup_from_rzms(rzms)
    results = max_subsemigroups_rzms(rzms)
    got = {frozenset(sg.index(x) for x in r.element_set) for r in results}
    assert got == set(brute_force_maximal(sg).maximal)
    # random zero patterns: each result's anchors exist and its generators suffice
    assert all(support.right_closure(r.generators, rzms.multiply) == r.element_set
               for r in results)


class TestGeneratingSet:
    def test_generates_s4_rzms(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)  # raises if it fails
        assert sg.size == s4_rzms.size

    def test_generates_various(self):
        for group, rows, cols in [(C2, 2, 2), (C2, 1, 2), (C1, 2, 1)]:
            for matrix in itertools.islice(
                    support.all_regular_matrices(group, rows, cols), 5):
                rzms = ReesZeroMatrixSemigroup(group, matrix)
                sg = semigroup_from_rzms(rzms)
                assert sg.size == rzms.size
