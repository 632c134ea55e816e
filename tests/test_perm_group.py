import itertools
import random

import pytest

from maxsemi import errors
from maxsemi.perm_group import (
    Permutation,
    cycle_string,
    generate_group,
    identity,
    maximal_subgroup_classes,
    normalizer,
    parse_cycles,
    right_coset_reps,
)
from support import (
    all_subgroups,
    conjugate_subgroup,
    is_subgroup,
    reference_maximal_subgroup_classes,
)


def sym(n):
    gens = [parse_cycles("(1 2)", n)]
    cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    gens.append(parse_cycles(cyc, n))
    return generate_group(n, gens)


@pytest.fixture(scope="module")
def s3():
    return sym(3)


@pytest.fixture(scope="module")
def s4():
    return sym(4)


@pytest.fixture(scope="module")
def d8(s4):
    # dihedral of order 8 inside S4
    return generate_group(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 3)(2 4)", 4)])


def alt(n):
    """A4 or A5, generated by 3-cycles (and a 5-cycle for A5)."""
    last = "(1 2 3 4 5)" if n == 5 else "(2 3 4)"
    return generate_group(n, [parse_cycles("(1 2 3)", n), parse_cycles(last, n)])


def brute_force_subgroups(group):
    """Independent oracle: test every subset of the group's elements."""
    found = set()
    elems = group.elements
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            s = set(combo)
            if not s or identity(group.degree) not in s:
                continue
            if all(a * b in s for a in s for b in s):
                found.add(frozenset(s))
    return found


class TestPermutation:
    def test_compose_left_to_right(self):
        a = Permutation((1, 0, 2))
        b = Permutation((0, 2, 1))
        assert (a * b).images == (2, 0, 1)
        assert all((a * b)(x) == b(a(x)) for x in range(3))

    def test_inverse(self):
        p = parse_cycles("(1 2 3 4)", 4)
        assert (p * p.inverse()).is_identity()

    def test_not_a_permutation(self):
        with pytest.raises(errors.InputError):
            Permutation((0, 0, 1))

    def test_cycle_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            images = list(range(6))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert parse_cycles(cycle_string(p), 6) == p

    def test_parse_errors_name_position(self):
        with pytest.raises(errors.InputError, match="position 0"):
            parse_cycles("1 2)", 4)
        with pytest.raises(errors.InputError, match="unclosed"):
            parse_cycles("(1 2", 4)
        with pytest.raises(errors.InputError, match="out of range"):
            parse_cycles("(1 9)", 4)


class TestGenerateGroup:
    def test_s3(self, s3):
        assert s3.order == 6

    def test_empty_generators(self):
        assert generate_group(4, []).order == 1

    def test_d8(self, d8):
        assert d8.order == 8

    def test_degree_mismatch(self):
        with pytest.raises(errors.InputError):
            generate_group(3, [Permutation((1, 0, 3, 2))])

    def test_closure_fixed_point(self, s3):
        again = generate_group(3, s3.elements)
        assert again.elements == s3.elements


class TestSubgroups:
    def test_s3_subgroups_against_brute_force(self, s3):
        subs = all_subgroups(s3)
        assert len(subs) == 6
        assert {h.element_set for h in subs} == brute_force_subgroups(s3)

    def test_trivial_group(self):
        triv = generate_group(2, [])
        assert len(all_subgroups(triv)) == 1

    def test_s4_subgroup_count_via_two_generated_closure(self, s4):
        # Every subgroup of S4 is generated by at most two elements, so
        # closing all pairs gives an independent count.
        seen = {frozenset({identity(4)})}
        for a in s4.elements:
            for b in s4.elements:
                seen.add(generate_group(4, [a, b]).element_set)
        subs = all_subgroups(s4)
        assert len(subs) == 30
        assert {h.element_set for h in subs} == seen

    def test_capacity_bound(self):
        big = sym(6)
        assert big.order == 720
        with pytest.raises(errors.CapacityError, match="400"):
            maximal_subgroup_classes(big)
        # raised before the search built anything, even the group's table
        assert "mul_table" not in vars(big)

    def test_lagrange(self, s4):
        subs = all_subgroups(s4)
        for h in subs:
            assert s4.order % h.order == 0


class TestMaximalSubgroupClasses:
    def test_s4_classes(self, s4):
        classes = maximal_subgroup_classes(s4)
        assert sorted(c.representative.order for c in classes) == [6, 8, 12]

    def test_s3_classes(self, s3):
        classes = maximal_subgroup_classes(s3)
        assert sorted(c.representative.order for c in classes) == [2, 3]

    def test_c2_single_class_is_trivial_subgroup(self):
        c2 = generate_group(2, [Permutation((1, 0))])
        classes = maximal_subgroup_classes(c2)
        assert len(classes) == 1
        assert classes[0].representative.order == 1

    def test_maximality_exhaustive(self, s4):
        # No subgroup strictly between a representative and the parent.
        subs = all_subgroups(s4)
        for cls in maximal_subgroup_classes(s4):
            v = cls.representative.element_set
            for w in subs:
                if v < w.element_set:
                    assert w.element_set == s4.element_set

    def test_class_conjugates_are_distinct_and_cover(self, s4):
        for cls in maximal_subgroup_classes(s4):
            conjs = {
                conjugate_subgroup(cls.representative, t).element_set
                for t in cls.normalizer_coset_reps
            }
            assert len(conjs) == len(cls.normalizer_coset_reps)
            # the union of conjugates over all of G is the same family
            everywhere = {
                conjugate_subgroup(cls.representative, g).element_set
                for g in s4.elements
            }
            assert conjs == everywhere


class TestAgainstReference:
    """The class-by-class search against the whole-lattice reference: the
    same representatives with the same generators, normalisers and
    transversals, so the R6 witnesses and documents do not move."""

    @pytest.mark.parametrize("name", ["trivial", "C2", "C3", "S3", "A4", "D8", "S4", "A5"])
    def test_equals_reference(self, name, s3, s4, d8):
        group = {
            "trivial": generate_group(3, []),
            "C2": generate_group(2, [parse_cycles("(1 2)", 2)]),
            "C3": generate_group(3, [parse_cycles("(1 2 3)", 3)]),
            "S3": s3, "A4": alt(4), "D8": d8, "S4": s4, "A5": alt(5),
        }[name]
        assert maximal_subgroup_classes(group) == reference_maximal_subgroup_classes(group)

    def test_every_subgroup_of_s4(self, s4):
        for h in all_subgroups(s4):
            assert maximal_subgroup_classes(h) == reference_maximal_subgroup_classes(h)

    def test_s5_checked_by_sympy(self):
        # the reference takes over a minute on S5, so check the classes
        # from their definition, with sympy's Schreier-Sims orders
        from sympy.combinatorics import Permutation as SympyPerm, PermutationGroup

        s5 = sym(5)
        classes = maximal_subgroup_classes(s5)
        assert [c.representative.order for c in classes] == [60, 24, 20, 12]
        for c in classes:
            v = c.representative
            gens = [SympyPerm(list(p.images)) for p in v.generators]
            assert PermutationGroup(gens).order() == v.order
            for x in s5.elements:
                if x not in v:
                    assert PermutationGroup(gens + [SympyPerm(list(x.images))]).order() == 120
            conjugates = {conjugate_subgroup(v, g).elements for g in s5.elements}
            assert min(conjugates) == v.elements
            assert len(c.normalizer_coset_reps) == len(conjugates)


class TestNormalizer:
    def test_d8_self_normalizing(self, s4, d8):
        assert normalizer(s4, d8).element_set == d8.element_set

    def test_a4_normal(self, s4):
        a4 = generate_group(4, [parse_cycles("(1 2 3)", 4), parse_cycles("(2 3 4)", 4)])
        assert a4.order == 12
        n = normalizer(s4, a4)
        assert n.element_set == s4.element_set
        # direct oracle: every g conjugates A4 to itself
        for g in s4.elements:
            assert {g.inverse() * v * g for v in a4.elements} == set(a4.elements)

    def test_self(self, s4):
        assert normalizer(s4, s4).element_set == s4.element_set

    def test_not_a_subgroup(self, s3, s4):
        with pytest.raises(errors.InputError):
            normalizer(s3, s4)


class TestCosets:
    def test_d8_in_s4(self, s4, d8):
        reps = right_coset_reps(s4, d8)
        assert len(reps) == 3
        assert reps[0].is_identity()
        cosets = [frozenset(v * r for v in d8.elements) for r in reps]
        assert len(set(cosets)) == 3
        assert set().union(*cosets) == set(s4.elements)

    def test_whole_group(self, s4):
        reps = right_coset_reps(s4, s4)
        assert len(reps) == 1 and reps[0].is_identity()

    def test_a3_in_s3(self, s3):
        a3 = generate_group(3, [parse_cycles("(1 2 3)", 3)])
        assert len(right_coset_reps(s3, a3)) == 2

    def test_alternative_candidate_order(self, s4, d8):
        reps = right_coset_reps(s4, d8, candidates=tuple(reversed(s4.elements)))
        assert len(reps) == 3
        cosets = [frozenset(v * r for v in d8.elements) for r in reps]
        assert set().union(*cosets) == set(s4.elements)


class TestConjugation:
    def test_identity(self, d8):
        assert conjugate_subgroup(d8, identity(4)).element_set == d8.element_set

    def test_conjugate_by_transposition_contains_four_cycle(self, d8):
        conj = conjugate_subgroup(d8, parse_cycles("(2 3)", 4))
        assert parse_cycles("(1 2 3 4)", 4) in conj.element_set

    def test_order_preserved(self, s4, d8):
        rng = random.Random(1)
        for _ in range(10):
            g = rng.choice(s4.elements)
            assert conjugate_subgroup(d8, g).order == d8.order


class TestIsSubgroup:
    def test_identity_only(self, s4):
        assert is_subgroup({identity(4)}, s4)

    def test_missing_identity(self, s4):
        assert not is_subgroup({parse_cycles("(1 2)", 4)}, s4)

    def test_g1_in_all_d8_conjugates(self, s4, d8):
        g1 = generate_group(4, [parse_cycles("(1 2)(3 4)", 4)])
        for t in right_coset_reps(s4, normalizer(s4, d8)):
            conj = conjugate_subgroup(d8, t)
            assert is_subgroup(g1.elements, conj)

    def test_transversal_partition_property(self, s4):
        # cosets from any produced transversal partition the group exactly
        for h in all_subgroups(s4):
            reps = right_coset_reps(s4, h)
            assert len(reps) * h.order == s4.order
            seen = set()
            for r in reps:
                coset = {v * r for v in h.elements}
                assert not (coset & seen)
                seen |= coset
            assert seen == set(s4.elements)
