import operator
import random

import pytest

import support
from maxsemi import errors, semigroup_core
from maxsemi.max_subsemigroups import max_subsemigroups
from maxsemi.oracle import verify_maximal
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

    def test_oracle_corpus(self, oracle_corpus_with_multiplies):
        for name, sg, mul in oracle_corpus_with_multiplies:
            assert sg.table() == payload_table(sg, mul), name

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
            assert sg.table() == payload_table(sg, support.identity_adjoined_multiply(rzms))

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


def full_transformation_gens(n):
    """A cycle, a transposition and a rank n-1 map, which generate T_n."""
    return [Transformation(tuple((i + 1) % n for i in range(n))),
            Transformation(tuple([1, 0] + list(range(2, n)))),
            Transformation(tuple([0, 0] + list(range(2, n))))]


def counting_mul():
    """operator.mul on payloads, with a list that grows by one per call."""
    calls = []

    def mul(a, b):
        calls.append(None)
        return a * b

    return mul, calls


def repeated_generators():
    a = Transformation((1, 2, 3, 0, 0))
    b = Transformation((0, 0, 2, 3, 4))
    return closure([b, a, b, a * b, a], operator.mul)


def one_element():
    return closure([Transformation((0, 0))], operator.mul)


@pytest.fixture(scope="module")
def graph_corpus(w_semigroup, s4_rzms, t6_semigroup):
    """Semigroups whose Cayley graphs, table and Green's structure are
    checked against payload products: (name, semigroup, its payload
    multiply).  A ``from_table`` semigroup's multiply is its input table."""
    w_dual = [list(col) for col in zip(*payload_table(w_semigroup, operator.mul))]
    z6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    c4_zero = support.group_with_zero_table(4)
    return [
        ("W", w_semigroup, operator.mul),
        ("S4 example", semigroup_from_rzms(s4_rzms), s4_rzms.multiply),
        ("transform-t6", support.t6_semigroup(), operator.mul),
        ("T_4", closure(full_transformation_gens(4), operator.mul), operator.mul),
        ("dual of W", from_table(w_dual, w_semigroup.generator_indices),
         support.table_multiply(w_dual)),
        ("one element", one_element(), operator.mul),
        ("one element, from_table", from_table([[0]]), support.table_multiply([[0]])),
        ("one generator", closure([Transformation((1, 2, 3, 0, 0))], operator.mul),
         operator.mul),
        ("repeated generators", repeated_generators(), operator.mul),
        ("Z6 generated by its last element", from_table(z6, generator_indices=[5]),
         support.table_multiply(z6)),
        ("C4 with zero, generators [2, 0]", from_table(c4_zero, generator_indices=[2, 0]),
         support.table_multiply(c4_zero)),
    ]


class TestCayleyGraphs:
    """The left Cayley graph, ``table()`` and the adjacency of
    ``greens_structure`` come from the right Cayley graph by lookups; each
    must equal its reference from payload products."""

    def test_graphs(self, graph_corpus):
        for name, sg, mul in graph_corpus:
            assert sg.cayley_graphs == support.payload_graphs(sg, mul), name

    def test_table(self, graph_corpus):
        rng = random.Random(27)
        for name, sg, mul in graph_corpus:
            table, elems = sg.table(), sg.elements
            assert len(table) == sg.size and all(type(row) is list for row in table), name
            # every row of the small ones, 40 sampled rows of the large ones
            for a in rng.sample(range(sg.size), min(sg.size, 40)):
                assert table[a] == [sg.index(mul(elems[a], b)) for b in elems], (name, a)

    def test_greens_structure(self, graph_corpus):
        for name, sg, mul in graph_corpus:
            gs = greens_structure(sg)
            got = (gs.r_classes, gs.l_classes, gs.h_classes, gs.j_classes,
                   set(gs.j_order.edges), set(gs.idempotents))
            assert got == support.greens_by_products(sg, mul), name

    def test_products_walk_the_right_graph(self):
        # no table: T_5 is above TABLE_BOUND, and the two small ones are
        # checked before anything builds theirs
        t5 = closure(full_transformation_gens(5), operator.mul)
        assert t5.size == 3125 > semigroup_core.TABLE_BOUND
        rng = random.Random(29)
        gens = sorted(set(t5.generator_indices))
        t5_pairs = [(rng.randrange(t5.size), rng.randrange(t5.size)) for _ in range(2000)]
        t5_pairs += [p for a in range(t5.size) for g in gens for p in ((a, g), (g, a))]
        cases = [(t5, t5_pairs)] + [
            (sg, [(a, b) for a in range(sg.size) for b in range(sg.size)])
            for sg in (repeated_generators(), one_element())]
        for sg, pairs in cases:
            elems = sg.elements
            for a, b in pairs:
                assert sg.product(a, b) == sg.index(elems[a] * elems[b]), (sg, a, b)
            assert sg._table is None

    def test_no_payload_products_after_closure(self):
        # T_5 is above TABLE_BOUND, where sg.product walks the right
        # Cayley graph instead of reading a table
        mul, calls = counting_mul()
        sg = closure(full_transformation_gens(5), mul)
        assert sg.size == 3125 > semigroup_core.TABLE_BOUND
        calls.clear()
        sg.cayley_graphs
        gs = greens_structure(sg)
        assert len(gs.j_classes) == 5 and len(gs.idempotents) == 196
        results = max_subsemigroups(sg)
        assert len(results) == 23
        # the largest result: (T_5 \ S_5) u A_5
        assert verify_maximal(sg, max(results, key=lambda r: r.size).element_indices) == (
            True, "ok")
        assert not calls
        mul, calls = counting_mul()
        sg = closure([Transformation.one_based(r) for r in support.T6_GENERATOR_ROWS], mul)
        calls.clear()
        sg.table()
        assert not calls


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


    def test_group_table_from_the_semigroup(self, w_semigroup, s4_rzms, monkeypatch):
        # the H-class group's table is the semigroup's product on H, so with
        # the semigroup's table built the principal factor multiplies no
        # permutations (Rees payload products would)
        real = Permutation.__mul__
        calls = []

        def counted(a, b):
            calls.append(None)
            return real(a, b)

        for sg in (w_semigroup, semigroup_from_rzms(s4_rzms)):
            sg.table()
            gs = greens_structure(sg)
            j = max(range(len(gs.j_classes)), key=lambda k: len(gs.j_classes[k]))
            with monkeypatch.context() as mp:
                mp.setattr(Permutation, "__mul__", counted)
                group = principal_factor_iso(sg, gs, j).target.group
            assert not calls
            index, products = group.mul_table
            assert list(group.elements) == sorted(group.elements)
            assert products == [[index[a * b] for b in group.elements]
                                for a in group.elements]


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

    def test_swapped_h_class_action_is_caught(self, s4_rzms, monkeypatch):
        sg = semigroup_from_rzms(s4_rzms)
        gs = greens_structure(sg)
        j = max(range(len(gs.j_classes)), key=lambda k: len(gs.j_classes[k]))
        real = semigroup_core.group_h_class_as_permgroup

        def swapped(sg, h_class):
            group, to_perm, _ = real(sg, h_class)
            a, b = sorted(to_perm)[:2]
            to_perm = {**to_perm, a: to_perm[b], b: to_perm[a]}
            return group, to_perm, {p: h for h, p in to_perm.items()}

        monkeypatch.setattr(semigroup_core, "group_h_class_as_permgroup", swapped)
        with pytest.raises(AssertionError):
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
    # the reference is support.closure_plain, a two-sided closure, which stays
    # independent of the right-only walk
    def test_matches_plain_closure(self, oracle_corpus):
        # splitting a two-sided ideal out of the generating set must give
        # exactly the subsemigroup the plain walk produces
        from maxsemi.semigroup_core import closure_with_ideal

        rng = random.Random(12)
        for _, sg in rng.sample(oracle_corpus, 30):
            gs = greens_structure(sg)
            for j in range(len(gs.j_classes)):
                ideal = ideal_below_generators(sg, gs, j)
                extra = rng.sample(range(sg.size), rng.randint(1, sg.size))
                got = closure_with_ideal(sg, frozenset(ideal), extra)
                want = support.closure_plain(sg, list(extra) + list(ideal))
                assert got == want

    def test_empty_ideal(self, oracle_corpus):
        from maxsemi.semigroup_core import closure_with_ideal

        rng = random.Random(13)
        for _, sg in oracle_corpus:
            extra = rng.sample(range(sg.size), rng.randint(1, min(3, sg.size)))
            want = support.closure_plain(sg, extra)
            assert closure_with_ideal(sg, frozenset(), extra) == want
            assert closure_of_indices(sg, extra) == want

    def test_span_at_or_above(self, oracle_corpus):
        from maxsemi.semigroup_core import span_at_or_above

        for _, sg in oracle_corpus:
            gs = greens_structure(sg)
            for j in range(len(gs.j_classes)):
                for gens in (x_prime(sg, gs, j), sg.generator_indices):
                    want = {e for e in support.closure_plain(sg, gens)
                            if j in gs.j_reach[gs.j_class[e]]}
                    assert span_at_or_above(sg, gs, j, gens) == want


class TestSemigroupFromRzms:
    def test_sizes(self, s4_rzms):
        sg = semigroup_from_rzms(s4_rzms)
        assert sg.size == s4_rzms.size == 865

    def test_brandt(self):
        b = support.brandt(support.cyclic_group(2), 2)
        sg = semigroup_from_rzms(b)
        assert sg.size == 9
