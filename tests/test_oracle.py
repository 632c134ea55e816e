import ast
import inspect
import itertools
import operator
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import support
from maxsemi import errors, oracle
from maxsemi.max_subsemigroups import max_subsemigroups
from maxsemi.oracle import SUBSET_ENUMERATION_BOUND, brute_force_maximal, verify_maximal
from maxsemi.semigroup_core import (Transformation, closure, from_table,
                                    greens_structure, semigroup_from_rzms)


class TestBruteForce:
    def test_monogenic_by_hand(self):
        # <a | a^4 = a^3>: of the 8 subsets only {a^2, a^3} is maximal
        sg = support.monogenic(3, 1)
        report = brute_force_maximal(sg)
        assert report.maximal == (frozenset({1, 2}),)

    def test_brandt_c2_four(self):
        from maxsemi.rees_matrix import brandt
        from maxsemi.semigroup_core import semigroup_from_rzms

        sg = semigroup_from_rzms(brandt(support.cyclic_group(2), 2))
        report = brute_force_maximal(sg)
        assert len(report.maximal) == 4

    def test_one_element_empty_report(self):
        sg = from_table([[0]])
        assert brute_force_maximal(sg).maximal == ()

    def test_capacity(self):
        sg = support.zero_semigroup(17)
        with pytest.raises(errors.CapacityError, match="16"):
            brute_force_maximal(sg)

    def test_reports_are_closed_proper_maximal(self):
        rng = random.Random(3)
        for sg in (support.monogenic(2, 3), support.left_zero(5),
                   support.zero_semigroup(7)):
            report = brute_force_maximal(sg)
            for m in report.maximal:
                assert 0 < len(m) < sg.size
                assert all(sg.product(a, b) in m for a in m for b in m)
                for other in report.maximal:
                    assert not (m < other)

    def test_relabelling_invariance(self):
        sg = support.monogenic(2, 4)
        n = sg.size
        rng = random.Random(17)
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for a, b in enumerate(perm):
            inv[b] = a
        table = sg.table()
        relabelled = [[perm[table[inv[a]][inv[b]]] for b in range(n)]
                      for a in range(n)]
        other = from_table(relabelled)
        got = {frozenset(perm[e] for e in m)
               for m in brute_force_maximal(sg).maximal}
        assert got == set(brute_force_maximal(other).maximal)


class TestVerifyMaximal:
    def test_accepts_w_results(self, w_semigroup):
        for r in max_subsemigroups(w_semigroup)[:3]:
            ok, msg = verify_maximal(w_semigroup, r.element_indices)
            assert ok, msg

    def test_whole_semigroup_rejected(self):
        sg = support.monogenic(3, 1)
        ok, msg = verify_maximal(sg, range(sg.size))
        assert not ok and "proper" in msg

    def test_not_closed_has_witness(self):
        sg = support.monogenic(3, 1)
        ok, msg = verify_maximal(sg, [0])  # {a} alone: a*a = a^2 missing
        assert not ok and "not closed" in msg

    def test_single_h_class_removal_not_maximal(self, w_semigroup):
        # dropping one H-class from the T7 example's J-class leaves a
        # set that is not even close to maximal
        sg = w_semigroup
        gs = greens_structure(sg)
        j = gs.j_class[sg.generator_indices[0]]
        span_hit = next(
            e for e in gs.j_classes[j]
            if any(gs.h_class[x] == gs.h_class[e] for x in gs.j_classes[j]))
        h = gs.h_classes[gs.h_class[span_hit]]
        candidate = frozenset(range(sg.size)) - set(h)
        ok, msg = verify_maximal(sg, candidate)
        assert not ok
        assert "not closed" in msg or "not maximal" in msg

    def test_accepts_exactly_the_oracle_sets(self):
        # on small semigroups, the closed proper subsets accepted by
        # verify_maximal are exactly those the enumeration reports
        for sg in (support.monogenic(2, 2), support.left_zero(4),
                   support.group_with_zero(3)):
            n = sg.size
            report = set(brute_force_maximal(sg).maximal)
            for mask in range(1, (1 << n) - 1):
                subset = frozenset(v for v in range(n) if mask >> v & 1)
                closed = all(
                    sg.product(a, b) in subset for a in subset for b in subset)
                if not closed:
                    continue
                ok, _ = verify_maximal(sg, subset)
                assert ok == (subset in report)


def reference_verdict(sg, candidate):
    """verify_maximal without the early exit: every extension is walked
    to the end by the oracle's plain two-sided closure."""
    n = sg.size
    members = sorted(set(candidate))
    member_set = set(members)
    for a in members:
        for b in members:
            c = sg.product(a, b)
            if c not in member_set:
                return False, f"not closed: {a} * {b} = {c} is missing"
    if len(member_set) == n:
        return False, "not proper: candidate is the whole semigroup"
    for x in range(n):
        if x not in member_set and len(support.closure_plain(sg, members + [x])) < n:
            return False, f"not maximal: adjoining {x} does not generate everything"
    return True, "ok"


def intersections(sets):
    """Every non-empty intersection of two of ``sets``: closed, proper
    and, for distinct maximal sets, never maximal."""
    return [a & b for a, b in itertools.combinations(sets, 2) if a & b]


class TestEarlyExit:
    # the shortcut may only change how soon a verdict comes, never the
    # verdict or its witness
    def test_same_verdicts_as_full_walks(self, w_semigroup, oracle_corpus):
        for sg in [w_semigroup] + [sg for _, sg in oracle_corpus]:
            results = [r.element_indices for r in max_subsemigroups(sg)]
            for candidate in results + intersections(results):
                assert verify_maximal(sg, candidate) == reference_verdict(sg, candidate)

    def test_s4_example(self, s4_rzms):
        # walking every extension of a maximal S4 result to the end takes
        # about 30 s per result (test_criterion_6_property_suite checks that
        # the results are accepted), so the full walks run on a sample of
        # the 496 intersections, where the first failing x is the witness
        sg = semigroup_from_rzms(s4_rzms)
        results = [r.element_indices for r in max_subsemigroups(sg)]
        for candidate in random.Random(5).sample(intersections(results), 12):
            ok, msg = verify_maximal(sg, candidate)
            assert not ok and (ok, msg) == reference_verdict(sg, candidate)

    def test_without_table(self, w_semigroup, monkeypatch):
        # above TABLE_BOUND the oracle multiplies through sg.product; the
        # set that is not closed runs the cover's failure branch there
        results = [r.element_indices for r in max_subsemigroups(w_semigroup)]
        control = results[0] & results[-1]
        not_closed = results[0] | {min(set(range(w_semigroup.size)) - results[0])}
        candidates = results + [control, not_closed]
        with_table = [verify_maximal(w_semigroup, m) for m in candidates]
        monkeypatch.setattr(oracle, "TABLE_BOUND", 0)
        without = [verify_maximal(w_semigroup, m) for m in candidates]
        assert without == with_table
        assert all(ok for ok, _ in with_table[:-2])
        assert with_table[-2][1].startswith("not maximal")
        assert with_table[-1][1].startswith("not closed")


class TestRightCover:
    # closedness is read off a right cover X of the candidate M: a cover
    # that skips a product accepts some M that is not closed
    def test_one_element_more_at_scale(self, s4_rzms, t6_semigroup):
        # a maximal M plus any y outside is not closed (unless it is S),
        # and the reference finds its witness by the plain pair scan
        for sg in (semigroup_from_rzms(s4_rzms), t6_semigroup):
            for r in max_subsemigroups(sg):
                m = r.element_indices
                candidate = m | {min(set(range(sg.size)) - m)}
                assert verify_maximal(sg, candidate) == reference_verdict(sg, candidate)

    def test_cover_is_exact_on_corpus(self, oracle_corpus):
        # None exactly when M is not closed; otherwise every member of M
        # is a right word over X
        rng = random.Random(23)
        for _, sg in oracle_corpus:
            n = sg.size
            times = [row.__getitem__ for row in sg.table()]
            for _ in range(4):
                seed = rng.sample(range(n), rng.randint(1, n))
                for candidate in (set(seed), support.closure_plain(sg, seed)):
                    members = sorted(candidate)
                    cover = oracle._right_cover(times, members, candidate)
                    closed = support.closure_plain(sg, members) == candidate
                    assert (cover is None) == (not closed)
                    if cover is None:
                        continue
                    words = set(cover)
                    queue = list(cover)
                    while queue:
                        a = queue.pop()
                        for x in cover:
                            c = sg.product(a, x)
                            if c not in words:
                                words.add(c)
                                queue.append(c)
                    assert words == candidate


def test_oracle_imports_only_errors_and_semigroup_core():
    # the oracle judges the searches, so it shares no code with them
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom) and node.level:
            used.update([node.module] if node.module else
                        [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("maxsemi"):
            used.update([node.module.partition(".")[2]] if "." in node.module else
                        [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            used.update(alias.name.partition(".")[2] for alias in node.names
                        if alias.name.startswith("maxsemi"))
    assert used == {"errors", "semigroup_core"}


@st.composite
def small_transformation_semigroups(draw):
    """A subsemigroup of T_degree (2 <= degree <= 4) with at most 16 elements:
    each drawn generator is kept if the closure stays that small, and the
    first one always fits."""
    degree = draw(st.integers(2, 4))
    images = st.one_of(st.tuples(*[st.integers(0, degree - 1)] * degree),
                       st.permutations(range(degree)).map(tuple))
    gens, sg = [], None
    for row in draw(st.lists(images, min_size=1, max_size=5)):
        try:
            sg = closure(gens + [Transformation(row)], operator.mul,
                         max_size=SUBSET_ENUMERATION_BOUND)
        except errors.CapacityError:
            continue
        gens.append(Transformation(row))
    return sg


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(small_transformation_semigroups())
def test_search_matches_brute_force(sg):
    results = {r.element_indices for r in max_subsemigroups(sg)}
    assert results == set(brute_force_maximal(sg).maximal)
    for m in results:
        assert verify_maximal(sg, m) == (True, "ok")


def test_import_leaves_numpy_out():
    # a fresh interpreter, so no other test's imports count
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, maxsemi; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
