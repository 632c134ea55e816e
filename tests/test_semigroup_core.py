import operator
import random

import pytest

import support
from maxsemi import errors
from maxsemi.perm_group import Permutation
from maxsemi.semigroup_core import (
    Transformation,
    closure,
    closure_of_indices,
    from_table,
    greens_structure,
    group_h_class_as_permgroup,
    ideal_below_generators,
    principal_factor_iso,
    semigroup_from_rzms,
    x_prime,
)


class TestTransformation:
    def test_compose_left_to_right(self):
        a = Transformation((1, 2, 0))
        b = Transformation((0, 0, 2))
        assert (a * b).images == (0, 2, 0)
        assert all((a * b)(x) == b(a(x)) for x in range(3))

    def test_out_of_range(self):
        with pytest.raises(errors.InputError):
            Transformation((0, 3))

    def test_one_based(self):
        assert Transformation.one_based([1, 3, 4, 1, 5, 5, 5]).images == (0, 2, 3, 0, 4, 4, 4)


class TestClosure:
    def test_t2_by_hand(self):
        c0 = Transformation((0, 0))
        swap = Transformation((1, 0))
        ident = Transformation((0, 1))
        sg = closure([c0, swap, ident], operator.mul)
        assert sg.size == 4

    def test_single_idempotent(self):
        sg = closure([Transformation((0, 0))], operator.mul)
        assert sg.size == 1

    def test_w(self, w_semigroup):
        assert w_semigroup.size == 245
        assert len(w_semigroup.generator_indices) == 8

    def test_discovery_order_deterministic(self):
        gens = [Transformation((1, 0, 0)), Transformation((2, 2, 2))]
        a = closure(gens, operator.mul)
        b = closure(gens, operator.mul)
        assert a.elements == b.elements

    def test_capacity(self):
        gens = [Transformation((1, 2, 3, 4, 0)), Transformation((0, 0, 2, 3, 4))]
        with pytest.raises(errors.CapacityError):
            closure(gens, operator.mul, max_size=10)

    def test_empty_generators(self):
        with pytest.raises(errors.InputError):
            closure([], operator.mul)


def payload_table(sg, mul):
    """The multiplication table by multiplying every pair of payloads."""
    return [[sg.index(mul(a, b)) for b in sg.elements] for a in sg.elements]


class TestTable:
    """``table()`` is derived from the right Cayley graph that ``closure``
    records; it must equal the table of payload products."""

    def test_oracle_corpus(self, oracle_corpus):
        for name, sg in oracle_corpus:
            assert sg.table() == payload_table(sg, sg._mul), name

    @pytest.mark.parametrize("degree,seed", [(3, 101), (4, 202), (5, 303)])
    def test_random_transformation_semigroups(self, degree, seed):
        for sg in support.random_transformation_semigroups(
                degree, 20, seed=seed, max_size=200):
            assert sg.table() == payload_table(sg, operator.mul)

    def test_s4_rzms(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)
        assert sg._table is None
        assert sg.table() == payload_table(sg, s4_rzms.multiply)

    def test_w(self):
        sg = support.w_semigroup()
        assert sg._table is None
        assert sg.table() == payload_table(sg, operator.mul)

    def test_adjoined_identity(self):
        # an identity adjoined on top of the Rees matrix semigroup
        for rzms in (support.brandt(support.symmetric_group(3), 3),
                     support.brandt(support.cyclic_group(4), 2)):
            sg = support.adjoin_identity_to_rzms(rzms)
            assert sg._table is None
            assert sg.table() == payload_table(sg, sg._mul)

    def test_repeated_and_redundant_generators(self):
        a = Transformation((1, 2, 3, 0, 0))
        b = Transformation((0, 0, 2, 3, 4))
        sg = closure([a, b, a, a * b, b * a * a], operator.mul)
        assert sg.generator_indices[0] == sg.generator_indices[2]
        assert sg._table is None
        assert sg.table() == payload_table(sg, operator.mul)
        assert sg.size == closure([a, b], operator.mul).size

    def test_lazy(self):
        sg = closure([Transformation((1, 2, 0)), Transformation((0, 0, 2))], operator.mul)
        assert sg._table is None
        assert sg.product(1, 1) == sg.index(sg.elements[1] * sg.elements[1])
        assert sg._table is None
        sg.table()
        assert sg._table is not None


class TestFromTable:
    def test_one_bad_cell_in_300_elements_rejected(self):
        # Z_300 with a single corrupted product: only an exact check sees it
        n = 300
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        table[42][42] += 1
        with pytest.raises(errors.InputError, match="associative"):
            from_table(table, generator_indices=[1])

    def test_one_bad_cell_rejected_without_generators(self):
        n = 60
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        table[7][11] = 0
        with pytest.raises(errors.InputError, match="associative"):
            from_table(table)

    def test_associative_tables_accepted(self, oracle_corpus):
        for name, sg in oracle_corpus:
            table = sg.table()
            assert from_table(table).table() == table, name
            assert from_table(table, sg.generator_indices).size == sg.size, name

    def test_generator_out_of_range(self):
        with pytest.raises(errors.InputError, match="0..n-1"):
            from_table([[0, 1], [1, 0]], generator_indices=[2])

    def test_non_associative_rejected(self):
        # x*y = x is associative; tweak one entry to break it
        table = [[0, 0], [1, 0]]
        with pytest.raises(errors.InputError, match="associative"):
            from_table(table)

    def test_non_generating_generators_rejected(self):
        table = [[0, 1], [1, 0]]  # C2
        with pytest.raises(errors.InputError, match="generate"):
            from_table(table, generator_indices=[0])

    def test_bad_entries(self):
        with pytest.raises(errors.InputError):
            from_table([[0, 2], [1, 0]])


def brute_force_greens(sg):
    """Green's classes straight from the ideal definitions."""
    n = sg.size
    prod = sg.product
    right_ideal = []
    left_ideal = []
    two_sided = []
    for x in range(n):
        r = {x} | {prod(x, s) for s in range(n)}
        l = {x} | {prod(s, x) for s in range(n)}
        j = set(r) | set(l)
        for s in range(n):
            for t in range(n):
                j.add(prod(prod(s, x), t))
        right_ideal.append(frozenset(r))
        left_ideal.append(frozenset(l))
        two_sided.append(frozenset(j))
    return right_ideal, left_ideal, two_sided


class TestGreensStructure:
    def test_w_class_counts(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        x1 = sg.generator_indices[0]
        j = gs.j_class[x1]
        members = gs.j_classes[j]
        assert len({gs.l_class[e] for e in members}) == 4
        assert len({gs.r_class[e] for e in members}) == 6
        assert gs.regular_j[j]

    def test_group_single_class(self):
        sg = support.monogenic(1, 6)  # C6
        gs = greens_structure(sg)
        assert len(gs.j_classes) == 1
        assert len(gs.r_classes) == 1 and len(gs.l_classes) == 1

    def test_monogenic_three_linear_classes(self):
        sg = support.monogenic(3, 1)  # a^4 = a^3
        gs = greens_structure(sg)
        assert len(gs.j_classes) == 3
        chains = sorted(gs.j_reach, key=len)
        assert [len(c) for c in chains] == [1, 2, 3]

    def test_against_ideal_definitions(self, oracle_corpus):
        rng = random.Random(9)
        small = [sg for _, sg in oracle_corpus if sg.size <= 60]
        for sg in rng.sample(small, 40):
            gs = greens_structure(sg)
            r_ideal, l_ideal, j_ideal = brute_force_greens(sg)
            for x in range(sg.size):
                for y in range(sg.size):
                    assert (gs.r_class[x] == gs.r_class[y]) == (r_ideal[x] == r_ideal[y])
                    assert (gs.l_class[x] == gs.l_class[y]) == (l_ideal[x] == l_ideal[y])
                    assert (gs.j_class[x] == gs.j_class[y]) == (j_ideal[x] == j_ideal[y])

    def test_j_order_matches_ideal_containment(self, oracle_corpus):
        rng = random.Random(10)
        small = [sg for _, sg in oracle_corpus if sg.size <= 40]
        for sg in rng.sample(small, 25):
            gs = greens_structure(sg)
            _, _, j_ideal = brute_force_greens(sg)
            for x in range(sg.size):
                for y in range(sg.size):
                    below = j_ideal[y] <= j_ideal[x]
                    reach = gs.j_class[y] in gs.j_reach[gs.j_class[x]]
                    assert below == reach

    def test_stability(self, oracle_corpus):
        for _, sg in oracle_corpus[:40]:
            if sg.size > 500:
                continue
            gs = greens_structure(sg)
            for x in range(sg.size):
                for y in range(sg.size):
                    xy = sg.product(x, y)
                    assert (gs.j_class[x] == gs.j_class[xy]) == (gs.r_class[x] == gs.r_class[xy])
                    yx = sg.product(y, x)
                    assert (gs.j_class[x] == gs.j_class[yx]) == (gs.l_class[x] == gs.l_class[yx])

    def test_h_is_meet_of_r_and_l(self, w_semigroup):
        gs = greens_structure(w_semigroup)
        for x in range(w_semigroup.size):
            for y in range(w_semigroup.size):
                same_h = gs.h_class[x] == gs.h_class[y]
                assert same_h == (gs.r_class[x] == gs.r_class[y]
                                  and gs.l_class[x] == gs.l_class[y])


class TestIdempotents:
    def test_group_identity_only(self):
        sg = support.monogenic(1, 5)
        assert len(greens_structure(sg).idempotents) == 1

    def test_left_zero_all(self):
        sg = support.left_zero(6)
        assert greens_structure(sg).idempotents == frozenset(range(6))

    def test_s4_rzms_twelve(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)
        assert len(greens_structure(sg).idempotents) == 12


class TestGroupHClass:
    def test_trivial(self):
        sg = support.monogenic(2, 1)  # a, a^2 with a^3 = a^2
        gs = greens_structure(sg)
        e = next(iter(gs.idempotents))
        h = [x for x in range(sg.size) if gs.h_class[x] == gs.h_class[e]]
        group, _, _ = group_h_class_as_permgroup(sg, h)
        assert group.order == 1

    def test_non_group_h_class_rejected(self, w_semigroup):
        gs = greens_structure(w_semigroup)
        bad = next(h for h in range(len(gs.h_classes))
                   if not any(e in gs.idempotents for e in gs.h_classes[h]))
        with pytest.raises(errors.InputError):
            group_h_class_as_permgroup(w_semigroup, gs.h_classes[bad])

    def test_schutzenberger_group_of_w_jclass(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        e = min(e for e in gs.idempotents
                if gs.j_class[e] == gs.j_class[sg.generator_indices[0]])
        members = gs.h_classes[gs.h_class[e]]
        group, to_perm, from_perm = group_h_class_as_permgroup(sg, members)
        assert group.order == len(members)
        for a in members:
            for b in members:
                assert to_perm[sg.product(a, b)] == to_perm[a] * to_perm[b]
        assert all(from_perm[to_perm[a]] == a for a in members)

    def test_s4_rzms_h_class_is_s4(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)
        gs = greens_structure(sg)
        e = min(e for e in gs.idempotents if sg.elements[e] != 0)
        members = gs.h_classes[gs.h_class[e]]
        group, _, _ = group_h_class_as_permgroup(sg, members)
        assert group.order == 24
        orders = sorted(
            min(k for k in range(1, 25)
                if _power(p, k).is_identity())
            for p in group.elements)
        assert orders == sorted([1] + [2] * 9 + [3] * 8 + [4] * 6)


def _power(p, k):
    out = Permutation(tuple(range(p.degree)))
    for _ in range(k):
        out = out * p
    return out


class TestPrincipalFactorIso:
    def test_group_with_zero_gives_1x1(self):
        sg = support.group_with_zero(4)
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        pfi = principal_factor_iso(sg, gs, j)
        assert pfi.target.num_cols == 1 and pfi.target.num_rows == 1
        assert pfi.target.matrix[0][0].is_identity()

    def test_w_jclass_dimensions(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        pfi = principal_factor_iso(sg, gs, j)
        assert pfi.target.num_cols == 6  # |I| = number of R-classes
        assert pfi.target.num_rows == 4  # |Lambda| = number of L-classes

    def test_round_trip_and_zero_pattern(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        pfi = principal_factor_iso(sg, gs, j)  # construction verifies products
        members = gs.j_classes[j]
        for e in members:
            assert pfi.backward[pfi.forward[e]] == e
        # forward(x)*forward(y) = 0 exactly when xy leaves J
        for x in members[:24]:
            for y in members[:24]:
                xy = sg.product(x, y)
                image = pfi.target.multiply(pfi.forward[x], pfi.forward[y])
                if gs.j_class[xy] == j:
                    assert image == pfi.forward[xy]
                else:
                    assert image == 0

    def test_non_regular_rejected(self):
        sg = support.monogenic(3, 1)
        gs = greens_structure(sg)
        j = next(k for k in range(3) if not gs.regular_j[k])
        with pytest.raises(errors.InputError, match="S1"):
            principal_factor_iso(sg, gs, j)

    def test_target_regular(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        pfi = principal_factor_iso(sg, gs, j)
        for row in pfi.target.matrix:
            assert any(e is not None for e in row)
        for i in range(pfi.target.num_cols):
            assert any(row[i] is not None for row in pfi.target.matrix)


class TestIdealBelowAndXPrime:
    def test_minimal_class_empty(self):
        sg = support.monogenic(3, 1)
        gs = greens_structure(sg)
        j_min = gs.j_class[sg.index(2)]  # a^3
        assert ideal_below_generators(sg, gs, j_min) == ()

    def test_monogenic_middle_class(self):
        sg = support.monogenic(3, 1)  # indices 0=a, 1=a^2, 2=a^3
        gs = greens_structure(sg)
        j = gs.j_class[1]
        assert ideal_below_generators(sg, gs, j) == (2,)

    def test_w_ideal_closure(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        ideal = ideal_below_generators(sg, gs, j)
        below = {e for k in gs.j_reach[j] - {j} for e in gs.j_classes[k]}
        assert set(ideal) == below
        assert closure_of_indices(sg, ideal) == frozenset(below)

    def test_x_prime_w(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        assert set(x_prime(sg, gs, j)) == set(sg.generator_indices[4:])

    def test_x_prime_maximal_empty(self, w_semigroup):
        sg = w_semigroup
        gs = greens_structure(sg)
        for j in gs.maximal_j_classes():
            assert x_prime(sg, gs, j) == ()

    def test_x_prime_two_level(self):
        sg = support.group_with_zero(3)
        gs = greens_structure(sg)
        j0 = gs.j_class[sg.index(0)]
        above = x_prime(sg, gs, j0)
        assert set(above) == {g for g in sg.generator_indices if sg.elements[g] != 0}


class TestClosureWithIdeal:
    def test_matches_plain_closure(self, oracle_corpus):
        # splitting a two-sided ideal out of the generating set must give
        # exactly the subsemigroup the plain walk produces
        import random

        from maxsemi.semigroup_core import closure_with_ideal

        rng = random.Random(12)
        for _, sg in rng.sample(oracle_corpus, 30):
            gs = greens_structure(sg)
            for j in range(len(gs.j_classes)):
                ideal = ideal_below_generators(sg, gs, j)
                extra = rng.sample(range(sg.size), rng.randint(1, sg.size))
                got = closure_with_ideal(sg, frozenset(ideal), extra)
                want = closure_of_indices(sg, list(extra) + list(ideal))
                assert got == want


class TestSemigroupFromRzms:
    def test_sizes(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)
        assert sg.size == s4_rzms.size == 865

    def test_brandt(self):
        b = support.brandt(support.cyclic_group(2), 2)
        sg = semigroup_from_rzms(b)
        assert sg.size == 9
