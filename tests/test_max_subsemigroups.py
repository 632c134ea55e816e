import math
import operator
import random
import sys
from collections import Counter

import pytest

import support
from maxsemi.max_subsemigroups import (
    build_jclass_graphs,
    max_s1,
    max_subsemigroups,
)
from maxsemi.graphs import maximal_independent_sets, sources
from maxsemi.oracle import brute_force_maximal, verify_maximal
from maxsemi.rees_matrix import ZERO, brandt, generating_set
from maxsemi.semigroup_core import (
    Transformation,
    closure,
    closure_of_indices,
    from_table,
    greens_structure,
    x_prime,
)


@pytest.fixture(scope="module")
def w_results(w_semigroup):
    return max_subsemigroups(w_semigroup)


@pytest.fixture(scope="module")
def w_greens(w_semigroup):
    return greens_structure(w_semigroup)


class TestWExample:
    def test_jclass_graphs(self, w_semigroup, w_greens):
        sg, gs = w_semigroup, w_greens
        j = gs.j_class[sg.generator_indices[0]]
        jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))
        assert jg.gamma_l.component_count == 4
        assert len(jg.gamma_l.edges) == 4
        assert jg.gamma_r.component_count == 4
        assert sorted(len(c) for c in jg.gamma_r.components) == [1, 1, 2, 2]
        assert len(jg.gamma_r.edges) == 2
        assert len(jg.delta.edges) == 10
        assert len(jg.theta.edges) == 2
        assert len(maximal_independent_sets(jg.delta)) == 7

    def test_colours_match_named_classes(self, w_semigroup, w_greens):
        sg, gs = w_semigroup, w_greens
        _, names = support.w_named_classes(sg, gs)
        j = gs.j_class[sg.generator_indices[0]]
        jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))
        coloured_l = {
            frozenset(jg.l_class_ids[v] for v in comp)
            for k, comp in enumerate(jg.gamma_l.components)
            if jg.gamma_l.colour[k]
        }
        assert coloured_l == {
            frozenset({names["L_x1"]}), frozenset({names["L_x1x6"]})}
        coloured_r = {
            frozenset(jg.r_class_ids[v] for v in comp)
            for k, comp in enumerate(jg.gamma_r.components)
            if jg.gamma_r.colour[k]
        }
        assert coloured_r == {frozenset({names["R_x3"], names["R_x7x3"]})}

    def test_sources_and_reachability(self, w_semigroup, w_greens):
        sg, gs = w_semigroup, w_greens
        _, names = support.w_named_classes(sg, gs)
        j = gs.j_class[sg.generator_indices[0]]
        jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))

        def l_comp_names(k):
            return frozenset(jg.l_class_ids[v] for v in jg.gamma_l.components[k])

        def r_comp_names(k):
            return frozenset(jg.r_class_ids[v] for v in jg.gamma_r.components[k])

        l_sources = {l_comp_names(k) for k in sources(jg.gamma_l)}
        assert l_sources == {
            frozenset({names["L_x3"]}), frozenset({names["L_x4"]})}
        r_sources = {r_comp_names(k) for k in sources(jg.gamma_r)}
        assert r_sources == {
            frozenset({names["R_x1"]}), frozenset({names["R_x2"]})}

        # from {L_x4} one reaches {L_x1} and {L_x1x6}
        start = next(k for k in range(jg.gamma_l.component_count)
                     if l_comp_names(k) == frozenset({names["L_x4"]}))
        reached = {l_comp_names(k) for k in support.reachable_set(jg.gamma_l, start)}
        assert reached == {
            frozenset({names["L_x4"]}), frozenset({names["L_x1"]}),
            frozenset({names["L_x1x6"]})}

    def test_colour_iff_theta_incidence(self, w_semigroup, w_greens):
        sg, gs = w_semigroup, w_greens
        j = gs.j_class[sg.generator_indices[0]]
        jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))
        nl = jg.gamma_l.component_count
        touched = set()
        for u, v in jg.theta.edges:
            touched.add(u)
            touched.add(v)
        for k in range(nl):
            assert jg.gamma_l.colour[k] == (k in touched)
        for k in range(jg.gamma_r.component_count):
            assert jg.gamma_r.colour[k] == (nl + k in touched)

    def test_six_results_from_the_jclass(self, w_semigroup, w_greens, w_results):
        j = w_greens.j_class[w_semigroup.generator_indices[0]]
        from_j = [r for r in w_results if r.j_class == j]
        assert Counter(r.type_tag for r in from_j) == {"S3": 2, "S4": 2, "S5": 2}

    def test_s3_witnesses(self, w_semigroup, w_greens, w_results):
        sg, gs = w_semigroup, w_greens
        _, names = support.w_named_classes(sg, gs)
        j = gs.j_class[sg.generator_indices[0]]
        got = {
            (frozenset(r.witness[0]), frozenset(r.witness[1]))
            for r in w_results if r.j_class == j and r.type_tag == "S3"
        }
        assert got == {
            (frozenset({names["L_x1"], names["L_x1x6"]}),
             frozenset({names["R_x1"]})),
            (frozenset({names["L_x1x6"]}),
             frozenset({names["R_x1"], names["R_x3"], names["R_x7x3"]})),
        }

    def test_s4_remove_source_complements(self, w_semigroup, w_greens, w_results):
        sg, gs = w_semigroup, w_greens
        _, names = support.w_named_classes(sg, gs)
        j = gs.j_class[sg.generator_indices[0]]
        all_l = {names["L_x1"], names["L_x3"], names["L_x4"], names["L_x1x6"]}
        removed = {
            frozenset(all_l - set(r.witness[0]))
            for r in w_results if r.j_class == j and r.type_tag == "S4"
        }
        assert removed == {
            frozenset({names["L_x3"]}), frozenset({names["L_x4"]})}

    def test_s5_results_remove_r_x1_and_r_x2(self, w_semigroup, w_greens, w_results):
        sg, gs = w_semigroup, w_greens
        _, names = support.w_named_classes(sg, gs)
        j = gs.j_class[sg.generator_indices[0]]
        s5 = [r for r in w_results if r.j_class == j and r.type_tag == "S5"]
        expected = set()
        for rname in ("R_x1", "R_x2"):
            kept = frozenset(
                e for e in range(sg.size)
                if not (gs.j_class[e] == j and gs.r_class[e] == names[rname]))
            expected.add(kept)
        assert {r.element_indices for r in s5} == expected

    def test_every_result_verifies(self, w_semigroup, w_results):
        for r in w_results:
            ok, msg = verify_maximal(w_semigroup, r.element_indices)
            assert ok, (r.type_tag, msg)

    def test_complements_single_jclass(self, w_semigroup, w_greens, w_results):
        for r in w_results:
            out = set(range(w_semigroup.size)) - r.element_indices
            assert len({w_greens.j_class[e] for e in out}) == 1

    def test_no_duplicates(self, w_results):
        assert len({r.element_indices for r in w_results}) == len(w_results)

    def test_generators_regenerate(self, w_semigroup, w_results):
        w_semigroup.table()
        for r in w_results:
            assert closure_of_indices(w_semigroup, r.generators) == r.element_indices

    def test_random_subsemigroups_covered(self, w_semigroup, w_results):
        # every proper subsemigroup lies inside a maximal one, so random
        # closures probe completeness of the reported list
        import random

        rng = random.Random(40)
        w_semigroup.table()
        hits = 0
        while hits < 60:
            seed = rng.sample(range(w_semigroup.size), rng.randint(1, 10))
            t = closure_of_indices(w_semigroup, seed)
            if len(t) == w_semigroup.size:
                continue
            hits += 1
            assert any(t <= r.element_indices for r in w_results)

    def test_generator_reorder_invariance(self, w_semigroup, w_results):
        import operator

        from maxsemi.semigroup_core import Transformation

        gens = [Transformation.one_based(r) for r in support.W_GENERATOR_ROWS]
        other = closure(list(reversed(gens)), operator.mul)
        other_results = max_subsemigroups(other)
        as_payloads = {
            frozenset(w_semigroup.elements[e] for e in r.element_indices)
            for r in w_results}
        other_payloads = {
            frozenset(other.elements[e] for e in r.element_indices)
            for r in other_results}
        assert as_payloads == other_payloads


class TestSynthesisValidation:
    def test_insufficient_generators_raise(self, w_semigroup):
        from maxsemi.max_subsemigroups import _finish

        gs = greens_structure(w_semigroup)
        j = gs.j_class[w_semigroup.generator_indices[0]]
        target = next(
            r.element_indices for r in max_subsemigroups(w_semigroup)
            if r.j_class == j)
        # a deliberately insufficient generating set is an error, with no
        # fallback to the full element list
        with pytest.raises(AssertionError, match="type-S3"):
            _finish(w_semigroup, j, "S3", None, target, [min(target)], ())

    def test_validated_at_every_size(self):
        # PT_5, as transformations of 6 points with point 5 a fixed sink,
        # has 7 776 elements; results that large were once left unchecked
        from maxsemi.max_subsemigroups import _finish

        pt5 = closure([Transformation((1, 2, 3, 4, 0, 5)), Transformation((1, 0, 2, 3, 4, 5)),
                       Transformation((0, 0, 2, 3, 4, 5)), Transformation((5, 1, 2, 3, 4, 5))],
                      operator.mul)
        assert pt5.size == 6 ** 5
        units = list(pt5.generator_indices[:2])  # they generate S_5 alone
        with pytest.raises(AssertionError, match="type-S1"):
            _finish(pt5, 0, "S1", None, frozenset(range(pt5.size)), units, ())


class TestS1:
    def test_monogenic_with_redundant_generator_gives_none(self):
        # <a> with a^4 = a^3, generators {a, a^2}: the class of a^2 is
        # non-regular and non-maximal but a^2 lies in <X'>
        base = support.monogenic(3, 1)
        sg = from_table(base.table(), generator_indices=[0, 1])
        gs = greens_structure(sg)
        j = gs.j_class[1]
        assert not gs.regular_j[j]
        assert max_s1(sg, gs, j, x_prime(sg, gs, j)) is None

    def test_adjoined_identity_emits_s1(self):
        # monoid {1, a, a^2, a^3}: J_a is non-regular, non-maximal, and
        # nothing above reaches it
        def mul(x, y):
            return min(x + y, 3) if x + y else 0

        table = [[mul(x, y) for y in range(4)] for x in range(4)]
        sg = from_table(table, generator_indices=[0, 1])
        gs = greens_structure(sg)
        results = max_subsemigroups(sg)
        tags = Counter(r.type_tag for r in results)
        assert tags["S1"] == 1
        s1 = next(r for r in results if r.type_tag == "S1")
        assert s1.element_indices == frozenset({0, 2, 3})
        got = {r.element_indices for r in results}
        assert got == set(brute_force_maximal(sg).maximal)

    def test_unvisited_nonregular_class_not_maximal(self):
        # irredundantly generated, J n X empty: S \ J must not be maximal
        sg = support.monogenic(3, 2)
        gs = greens_structure(sg)
        j = gs.j_class[1]  # class of a^2
        assert not gs.regular_j[j]
        members = set(gs.j_classes[j])
        complement = frozenset(range(sg.size)) - members
        assert complement not in set(brute_force_maximal(sg).maximal)
        assert all(r.element_indices != complement for r in max_subsemigroups(sg))


class TestS2:
    def test_brandt_with_identity_adjoined(self):
        b = brandt(support.cyclic_group(2), 2)
        gens = generating_set(b) + ["1"]

        def mul(x, y):
            if x == "1":
                return y
            if y == "1":
                return x
            return b.multiply(x, y)

        sg = closure(gens, mul)
        assert sg.size == 10
        results = max_subsemigroups(sg)
        tags = Counter(r.type_tag for r in results)
        assert tags["S2"] == 2
        got = {r.element_indices for r in results}
        assert got == set(brute_force_maximal(sg).maximal)

    def test_s2_filter_respects_required_subset(self):
        # same monoid: every S2 result must contain E X'
        b = brandt(support.cyclic_group(2), 2)
        gens = generating_set(b) + ["1"]

        def mul(x, y):
            if x == "1":
                return y
            if y == "1":
                return x
            return b.multiply(x, y)

        sg = closure(gens, mul)
        gs = greens_structure(sg)
        one = sg.index("1")
        j = next(
            jc for jc in range(len(gs.j_classes))
            if len(gs.j_classes[jc]) == 8)
        xp = x_prime(sg, gs, j)
        assert xp == (one,)
        e_per_l = {}
        for e in sorted(gs.j_classes[j]):
            if e in gs.idempotents:
                e_per_l.setdefault(gs.l_class[e], e)
        required = {sg.product(e, one) for e in e_per_l.values()}
        for r in max_subsemigroups(sg):
            if r.type_tag == "S2":
                assert required <= r.element_indices


class TestS2FilterShrinks:
    def test_required_subset_strictly_shrinks_somewhere(self, oracle_corpus):
        # the E X' containment filter must actually reject candidates on
        # some corpus members, not just pass everything through
        from maxsemi.max_subsemigroups import max_s2
        from maxsemi.rees_matrix import max_r6
        from maxsemi.semigroup_core import (
            principal_factor_iso,
            span_at_or_above,
            x_prime,
        )

        shrunk = 0
        for name, sg in oracle_corpus:
            gs = greens_structure(sg)
            maximal = gs.maximal_j_classes()
            for j in sorted({gs.j_class[g] for g in sg.generator_indices}):
                if j in maximal or not gs.regular_j[j]:
                    continue
                xp = x_prime(sg, gs, j)
                span = span_at_or_above(sg, gs, j, xp)
                if {g for g in sg.generator_indices if gs.j_class[g] == j} <= span:
                    continue
                pfi = principal_factor_iso(sg, gs, j)
                filtered = len(max_s2(sg, gs, j, xp, pfi))
                unfiltered = len(max_r6(pfi.target))
                assert filtered <= unfiltered
                if filtered < unfiltered:
                    shrunk += 1
        assert shrunk >= 2


class TestColourOneSource:
    def test_coloured_source_blocks_one_sided_removal(self):
        # found by random search: a 16-element transformation semigroup
        # whose non-maximal regular J-class has a source of colour 1, so
        # no one-sided removal may arise from that side
        import operator

        from maxsemi.semigroup_core import Transformation, x_prime
        from maxsemi.graphs import sources

        gens = [Transformation(t) for t in
                ((3, 0, 1, 0), (3, 1, 3, 1), (3, 3, 0, 0))]
        sg = closure(gens, operator.mul)
        assert sg.size == 16
        gs = greens_structure(sg)
        coloured = []
        for j in sorted({gs.j_class[g] for g in sg.generator_indices}):
            if j in gs.maximal_j_classes() or not gs.regular_j[j]:
                continue
            jg = build_jclass_graphs(sg, gs, j, x_prime(sg, gs, j))
            for cd in (jg.gamma_l, jg.gamma_r):
                if cd.component_count > 1 and any(
                        cd.colour[u] for u in sources(cd)):
                    coloured.append(j)
        assert coloured  # the interesting configuration is really present
        got = {r.element_indices for r in max_subsemigroups(sg)}
        assert got == set(brute_force_maximal(sg).maximal)


class TestS6:
    @pytest.mark.parametrize("n", [3, 5])
    def test_group_with_zero(self, n):
        sg = support.group_with_zero(n)
        results = max_subsemigroups(sg)
        tags = sorted(r.type_tag for r in results)
        assert tags == ["MAX-R6", "S6"]
        s6 = next(r for r in results if r.type_tag == "S6")
        assert s6.element_indices == frozenset(range(1, n + 1))
        got = {r.element_indices for r in results}
        assert got == set(brute_force_maximal(sg).maximal)

    def test_w_jclass_has_theta_edges_so_no_s6(self, w_semigroup, w_greens, w_results):
        j = w_greens.j_class[w_semigroup.generator_indices[0]]
        assert all(r.type_tag != "S6" for r in w_results if r.j_class == j)


def check_closed_form(n, expected, inverse):
    """The maximal subsemigroups of S = T_n, or of S = I_n encoded as
    transformations of n + 1 points with point n a fixed sink, for n >= 2,
    are exactly S \\ J_{n-1} and (S \\ S_n) u K for each maximal subgroup K
    of the group of units S_n; J_{n-1} is the rank n-1 layer.

    Proof.  S_n and any one element of rank n - 1 generate S (Ganyushkin
    and Mazorchuk, Classical Finite Transformation Semigroups, 2009), and
    S \\ S_n is an ideal: a product has rank at most that of each factor.
    Let M be maximal.  If M contains S_n, it misses all of J_{n-1}, so
    M lies in S \\ J_{n-1}, which is a proper subsemigroup (ranks below
    n - 1 form an ideal, and S_n is closed); so M = S \\ J_{n-1}.  If M
    does not contain S_n, then M u (S \\ S_n) is a subsemigroup, because
    S \\ S_n is an ideal, and a proper one, so it is M.  Then K = M n S_n
    is a maximal subsemigroup of S_n, and in a finite group a subsemigroup
    is a subgroup, so K is a maximal subgroup.  Conversely each of these
    sets is closed, and adding any missing element generates S.

    Each K is taken as R n S_n of a result R and checked by verify_maximal
    on S_n itself; S_n has 1, 4, 8 and 22 maximal subgroups for n = 2..5.
    Every result also passes verify_maximal, which multiplies along words
    on T_5: it has no table.  Returns the results."""
    sink = [n] if inverse else []
    cyc = Transformation(tuple((i + 1) % n for i in range(n)) + tuple(sink))
    swap = Transformation(tuple([1, 0] + list(range(2, n)) + sink))
    # rank n - 1: 1 -> 0 in T_n, and 0 undefined (sent to the sink) in I_n
    drop = Transformation(tuple([n] + list(range(1, n)) + sink) if inverse
                          else tuple([0, 0] + list(range(2, n))))
    s = closure([swap, cyc, drop], operator.mul)
    assert s.size == (sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
                      if inverse else n ** n)
    units_group = closure([cyc, swap], operator.mul)
    assert units_group.size == math.factorial(n)

    def rank(e):
        return len(set(s.elements[e].images[:n]) - {n})

    everything = frozenset(range(s.size))
    units = frozenset(e for e in everything if rank(e) == n)
    layer = frozenset(e for e in everything if rank(e) == n - 1)
    assert units == frozenset(s.index(x) for x in units_group.elements)

    results = max_subsemigroups(s)
    got = [r.element_indices for r in results]
    ks = {frozenset(units_group.index(s.elements[e]) for e in m & units)
          for m in got} - {frozenset(range(units_group.size))}
    assert len(ks) == {2: 1, 3: 4, 4: 8, 5: 22}[n] == expected - 1
    for k in ks:
        assert verify_maximal(units_group, k) == (True, "ok")
    closed_form = {everything - layer} | {
        (everything - units) | {s.index(units_group.elements[x]) for x in k} for k in ks}
    assert len(got) == len(set(got)) == expected
    assert set(got) == closed_form
    for r in results:
        assert verify_maximal(s, r.element_indices) == (True, "ok"), r.type_tag
    return results


class TestDispatch:
    def test_trivial_semigroup_empty(self):
        sg = from_table([[0]])
        assert max_subsemigroups(sg) == []

    def test_s4_rzms_as_semigroup_same_32(self, s4_rzms):
        from maxsemi.rees_matrix import max_subsemigroups_rzms
        from maxsemi.semigroup_core import semigroup_from_rzms

        sg = semigroup_from_rzms(s4_rzms)
        via_algorithm_2 = max_subsemigroups(sg)
        assert len(via_algorithm_2) == 32
        assert all(r.type_tag.startswith("MAX-") for r in via_algorithm_2)
        direct = {
            frozenset(sg.index(x) for x in r.element_set)
            for r in max_subsemigroups_rzms(s4_rzms)}
        assert {r.element_indices for r in via_algorithm_2} == direct

    def test_capacity_error_names_jclass(self):
        import pytest

        from maxsemi.errors import CapacityError

        sg = support.monogenic(1, 401)  # cyclic group above the subgroup search bound
        with pytest.raises(CapacityError, match="J-class 0"):
            max_subsemigroups(sg)

    def test_independent_set_bound_before_principal_factor(self, monkeypatch):
        # the 17 x 48 rectangular band (i, lam)(j, mu) = (i, mu), which is
        # the Rees matrix semigroup over the trivial group with every
        # matrix entry non-zero, minus its zero: one J-class, whose
        # Graham-Houghton graph has 17 + 48 = 65 vertices, one above the bound
        from maxsemi.errors import CapacityError

        sg = closure([(k % 17, k) for k in range(48)], lambda a, b: (a[0], b[1]))
        assert sg.size == 17 * 48

        def not_reached(*args):
            raise AssertionError("principal_factor_iso ran before the capacity check")

        monkeypatch.setattr(sys.modules["maxsemi.max_subsemigroups"],
                            "principal_factor_iso", not_reached)
        with pytest.raises(CapacityError, match="up to 64 vertices, got 65") as info:
            max_subsemigroups(sg)
        assert info.value.bound == 64

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 5), (4, 9), (5, 23)])
    def test_full_transformation_monoid(self, n, expected):
        # T_5 (3 125 elements) has no table, so its products walk words
        results = check_closed_form(n, expected, inverse=False)
        counts = Counter(r.type_tag for r in results)
        assert counts["S6"] == 1
        assert counts["MAX-R6"] == expected - 1

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 5), (4, 9), (5, 23)])
    def test_symmetric_inverse_monoid(self, n, expected):
        # I_5 has 1 546 elements, so its products read the table
        check_closed_form(n, expected, inverse=True)

    def test_c3_rees_matrices_against_oracle(self):
        # 2x2 structure matrices over C3 give non-trivial component
        # groups at oracle scale; check a seeded sample plain and with an
        # identity adjoined
        import itertools
        import random

        from maxsemi.rees_matrix import (
            ReesZeroMatrixSemigroup,
            max_subsemigroups_rzms,
        )
        from maxsemi.semigroup_core import semigroup_from_rzms

        c3 = support.cyclic_group(3)
        rng = random.Random(271)
        matrices = list(support.all_regular_matrices(c3, 2, 2))
        for matrix in rng.sample(matrices, 25):
            rzms = ReesZeroMatrixSemigroup(c3, matrix)
            sg = semigroup_from_rzms(rzms)
            want = set(brute_force_maximal(sg).maximal)
            via_rzms = {frozenset(sg.index(x) for x in r.element_set)
                        for r in max_subsemigroups_rzms(rzms)}
            assert via_rzms == want
            assert {r.element_indices for r in max_subsemigroups(sg)} == want
            mono = support.adjoin_identity_to_rzms(rzms)
            got = {r.element_indices for r in max_subsemigroups(mono)}
            assert got == set(brute_force_maximal(mono).maximal)

    def test_direct_products_against_oracle(self, oracle_corpus):
        import random

        def direct_product(a, b):
            na, nb = a.size, b.size
            ta, tb = a.table(), b.table()
            table = [
                [ta[x1][x2] * nb + tb[y1][y2]
                 for x2 in range(na) for y2 in range(nb)]
                for x1 in range(na) for y1 in range(nb)]
            return from_table(table)

        rng = random.Random(86)
        small = [sg for _, sg in oracle_corpus if sg.size <= 7]
        count = 0
        while count < 40:
            a, b = rng.choice(small), rng.choice(small)
            if a.size * b.size > 14:
                continue
            count += 1
            sg = direct_product(a, b)
            got = {r.element_indices for r in max_subsemigroups(sg)}
            assert got == set(brute_force_maximal(sg).maximal)

    def test_random_medium_semigroups_sound(self):
        # beyond the oracle's subset-enumeration range, every reported
        # subsemigroup must still pass the direct maximality check
        import operator
        import random

        from maxsemi.semigroup_core import Transformation

        rng = random.Random(555)
        checked = 0
        while checked < 8:
            degree = rng.choice([4, 5])
            gens = [
                Transformation(tuple(rng.randrange(degree) for _ in range(degree)))
                for _ in range(rng.randint(2, 3))]
            sg = closure(gens, operator.mul)
            if not 20 <= sg.size <= 200:
                continue
            checked += 1
            results = max_subsemigroups(sg)
            gs = greens_structure(sg)
            assert len({r.element_indices for r in results}) == len(results)
            for r in results:
                ok, msg = verify_maximal(sg, r.element_indices)
                assert ok, (sg.size, r.type_tag, msg)
                out = set(range(sg.size)) - r.element_indices
                assert len({gs.j_class[e] for e in out}) == 1
            # completeness probe: every proper subsemigroup lies inside
            # some maximal one, so random closures must be covered
            for _ in range(12):
                seed = rng.sample(range(sg.size), rng.randint(1, max(1, sg.size // 3)))
                t = closure_of_indices(sg, seed)
                if len(t) == sg.size:
                    continue
                assert any(t <= r.element_indices for r in results), (
                    sg.size, sorted(t))

    def test_cyclic_prime_group(self):
        sg = support.monogenic(1, 5)
        results = max_subsemigroups(sg)
        assert len(results) == 1
        assert results[0].type_tag == "MAX-R6"
        assert results[0].element_indices == frozenset({sg.index(4)})

    def test_cyclic_six_two_results(self):
        sg = support.monogenic(1, 6)
        results = max_subsemigroups(sg)
        assert len(results) == 2  # subgroups of index 2 and 3
        assert {len(r.element_indices) for r in results} == {2, 3}
        got = {r.element_indices for r in results}
        assert got == set(brute_force_maximal(sg).maximal)

    def test_left_zero(self):
        sg = support.left_zero(5)
        results = max_subsemigroups(sg)
        assert len(results) == 5
        assert all(r.type_tag == "MAX-R4" for r in results)
        got = {r.element_indices for r in results}
        assert got == set(brute_force_maximal(sg).maximal)

    def test_zero_semigroup(self):
        sg = support.zero_semigroup(6)
        results = max_subsemigroups(sg)
        assert Counter(r.type_tag for r in results) == {"MAX-TRIVIAL": 5}
        got = {r.element_indices for r in results}
        assert got == set(brute_force_maximal(sg).maximal)


class TestAboveBruteForceBound:
    # checks of completeness and structure that enumerate no subsets

    def test_duals_swap_left_and_right(self, w_semigroup, t6_semigroup):
        # S and its dual (the transposed table) have the same
        # subsemigroups, so the same maximal ones, with left and right
        # swapped; the S4 example is left out, its dual takes 1.8 s
        swap = {"S4": "S5", "S5": "S4", "MAX-R3": "MAX-R4", "MAX-R4": "MAX-R3"}
        for sg in (w_semigroup, t6_semigroup):
            dual = from_table(list(zip(*sg.table())), sg.generator_indices)
            results = max_subsemigroups(sg)
            dual_results = max_subsemigroups(dual)
            assert len(dual_results) == len(results)
            assert ({(r.type_tag, r.element_indices) for r in dual_results}
                    == {(swap.get(r.type_tag, r.type_tag), r.element_indices)
                        for r in results})
            for r in dual_results:
                assert verify_maximal(dual, r.element_indices) == (True, "ok")

    @pytest.mark.parametrize("name", ["W", "T_4"])
    def test_generator_independence(self, name, w_semigroup):
        # the answer depends only on S, though the search reads the
        # generators (X', the spans, the J-classes holding a generator);
        # types may differ, because X' does
        if name == "W":
            sg = w_semigroup
        else:
            cyc, swap = Transformation((1, 2, 3, 0)), Transformation((1, 0, 2, 3))
            sg = closure([cyc, swap, Transformation((0, 0, 2, 3))], operator.mul)
        table, gens = sg.table(), list(sg.generator_indices)
        with_products = gens + [table[gens[0]][gens[1]], table[gens[1]][gens[0]]]

        def irredundant(order):
            # drop each generator of with_products in turn, if the rest
            # still generate S
            kept = list(with_products)
            for k in order:
                rest = [g for g in kept if g != with_products[k]]
                if len(closure_of_indices(sg, rest)) == sg.size:
                    kept = rest
            return kept

        from_the_end = irredundant(reversed(range(len(with_products))))
        from_the_start = irredundant(range(len(with_products)))
        # both given sets are irredundant already; from the start, T_4
        # trades its cycle for a product
        assert from_the_end == gens
        assert from_the_start == (gens if name == "W" else [1, 2, 6])
        expected = {r.element_indices for r in max_subsemigroups(sg)}
        for other in (with_products, from_the_end, from_the_start):
            got = {r.element_indices for r in max_subsemigroups(from_table(table, other))}
            assert got == expected, other

    def test_relabelling_t6(self, t6_semigroup):
        # conjugating the generators by a permutation p of the points is an
        # isomorphism onto the new semigroup, so it maps each result onto
        # a result of the same type
        p = list(range(6))
        random.Random(6).shuffle(p)
        inv = sorted(range(6), key=p.__getitem__)

        def conj(t):
            return Transformation(tuple(p[t.images[inv[j]]] for j in range(6)))

        gens = [conj(t6_semigroup.elements[g]) for g in t6_semigroup.generator_indices]
        other = closure(gens, operator.mul)
        images = {(r.type_tag, frozenset(conj(t6_semigroup.elements[e])
                                         for e in r.element_indices))
                  for r in max_subsemigroups(t6_semigroup)}
        got = {(r.type_tag, frozenset(other.elements[e] for e in r.element_indices))
               for r in max_subsemigroups(other)}
        assert got == images and len(images) == 6
