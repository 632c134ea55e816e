"""Shared builders for the test suite: the two running examples (a 6x6
Rees 0-matrix semigroup over S4 and a transformation semigroup inside
T7), small standard semigroup families, and the oracle corpus."""

import contextlib
import operator
import random

import pytest

from maxsemi import rees_matrix
from maxsemi.errors import CapacityError, InputError
from maxsemi.graphs import _tarjan_sccs
from maxsemi.perm_group import (
    MaximalSubgroupClass,
    PermGroup,
    Permutation,
    generate_group,
    identity,
    maximal_subgroup_classes,
    parse_cycles,
    right_coset_reps,
)
from maxsemi.rees_matrix import ReesZeroMatrixSemigroup, brandt
from maxsemi.semigroup_core import Transformation, closure, from_table

S4_MATRIX_CYCLES = [
    ["(3 4)", "(1 3 2 4)", "(1 4)(2 3)", "0", "0", "0"],
    ["(2 4)", "0", "(1 3 2)", "0", "0", "0"],
    ["0", "(3 4)", "0", "0", "0", "0"],
    ["0", "0", "0", "(1 4 3)", "(1 3)(2 4)", "0"],
    ["0", "0", "0", "(1 4)", "(1 4 2)", "0"],
    ["0", "0", "0", "0", "0", "(1 4 2)"],
]

W_GENERATOR_ROWS = [
    [1, 3, 4, 1, 5, 5, 5],
    [1, 4, 1, 3, 5, 5, 5],
    [3, 3, 1, 2, 5, 5, 5],
    [4, 4, 2, 3, 5, 5, 5],
    [1, 1, 3, 4, 5, 5, 6],
    [1, 2, 2, 4, 5, 6, 7],
    [1, 4, 3, 4, 5, 6, 7],
    [1, 2, 4, 4, 5, 6, 7],
]

# the transform-t6 benchmark input at seed 0: a seeded random draw inside
# T6 with 1 274 elements, 8 J-classes and 6 maximal subsemigroups
T6_GENERATOR_ROWS = [
    [3, 1, 3, 5, 2, 6],
    [4, 6, 6, 5, 5, 4],
    [2, 5, 5, 2, 4, 6],
    [5, 4, 4, 4, 5, 2],
]


def symmetric_group(n):
    cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return generate_group(n, [parse_cycles("(1 2)", n), parse_cycles(cyc, n)])


def cyclic_group(n):
    if n == 1:
        return generate_group(1, [])
    cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return generate_group(n, [parse_cycles(cyc, n)])


def s4_rzms():
    """The running 6x6 example: a regular Rees 0-matrix semigroup over S4
    with three Graham-Houghton components."""
    s4 = symmetric_group(4)
    matrix = tuple(
        tuple(None if e == "0" else parse_cycles(e, 4) for e in row)
        for row in S4_MATRIX_CYCLES
    )
    return ReesZeroMatrixSemigroup(s4, matrix)


def w_semigroup():
    """W <= T_7, the running example for the arbitrary-semigroup search."""
    gens = [Transformation.one_based(r) for r in W_GENERATOR_ROWS]
    return closure(gens, operator.mul)


def t6_semigroup():
    """The transform-t6 benchmark input, above the brute-force bound."""
    gens = [Transformation.one_based(r) for r in T6_GENERATOR_ROWS]
    return closure(gens, operator.mul)


def w_named_classes(sg, gs):
    """Green's class ids of the named elements the T7 example tests use."""
    gens = [Transformation.one_based(r) for r in W_GENERATOR_ROWS]
    x = {k: sg.index(g) for k, g in enumerate(gens, start=1)}
    prod = sg.product
    names = {
        "L_x1": gs.l_class[x[1]],
        "L_x3": gs.l_class[x[3]],
        "L_x4": gs.l_class[x[4]],
        "L_x1x6": gs.l_class[prod(x[1], x[6])],
        "R_x1": gs.r_class[x[1]],
        "R_x2": gs.r_class[x[2]],
        "R_x3": gs.r_class[x[3]],
        "R_x8x2": gs.r_class[prod(x[8], x[2])],
        "R_x6x2": gs.r_class[prod(x[6], x[2])],
        "R_x7x3": gs.r_class[prod(x[7], x[3])],
    }
    return x, names


# ---------------------------------------------------------------------------
# Reference subgroup lattice: every subgroup, found by closing the cyclic
# subgroups under pairwise joins over the test's own integer table.
# Independent of the integer kernel that maximal_subgroup_classes runs on.

def _reference_group(degree, elements):
    """The group on ``elements``, generated greedily in element order."""
    gens = []
    have = frozenset({identity(degree)})
    for p in sorted(elements):
        if p not in have:
            gens.append(p)
            have = generate_group(degree, gens).element_set
            if len(have) == len(elements):
                break
    return PermGroup(degree, tuple(gens), tuple(sorted(elements)))


def is_subgroup(sub, group):
    """True iff ``sub`` is a subset of ``group`` containing the identity
    and closed under composition (inverses follow by finiteness)."""
    elems = set(sub)
    if not elems or identity(group.degree) not in elems:
        return False
    if not elems <= group.element_set:
        return False
    return all(a * b in elems for a in elems for b in elems)


def all_subgroups(group):
    """Every subgroup of ``group``, each exactly once, sorted by (order,
    element list): the cyclic subgroups, joined in pairs until no new
    subgroup appears.  The joins close generators over an integer table
    of the group's Permutation products; a subgroup is a bitmask over
    element positions, kept with the generators it was closed from."""
    elems = group.elements
    n = len(elems)
    index = {g: k for k, g in enumerate(elems)}
    mul = [[index[a * b] for b in elems] for a in elems]
    one = index[identity(group.degree)]

    def generated(gens):
        # the identity closed under right multiplication by gens
        mask, queue = 1 << one, [one]
        for a in queue:
            row = mul[a]
            for g in gens:
                if not mask >> row[g] & 1:
                    mask |= 1 << row[g]
                    queue.append(row[g])
        return mask

    subs = {}  # bitmask -> generators
    for g in range(n):
        subs.setdefault(generated([g]), [g])
    work = list(subs)
    while work:
        fresh = []
        for a in work:
            for b, gens_b in list(subs.items()):
                if a & b in (a, b):
                    continue
                gens = subs[a] + gens_b
                joined = generated(gens)
                if joined not in subs:
                    subs[joined] = gens
                    fresh.append(joined)
        work = fresh
    sets = [sorted(elems[k] for k in range(n) if mask >> k & 1) for mask in subs]
    return [_reference_group(group.degree, s) for s in sorted(sets, key=lambda s: (len(s), s))]


def conjugate_subgroup(sub, g):
    """g^-1 V g, with generators conjugated alongside the elements."""
    ginv = g.inverse()
    elements = tuple(sorted(ginv * v * g for v in sub.elements))
    gens = tuple(ginv * v * g for v in sub.generators)
    return PermGroup(sub.degree, gens, elements)


def reference_maximal_subgroup_classes(group):
    """maximal_subgroup_classes from the whole lattice: the maximal
    subgroups by containment, each class represented by its least member
    in (descending order, element list) order, with the normaliser and a
    right transversal of it scanned in element order."""
    proper = [h for h in all_subgroups(group) if h.order < group.order]
    maximal = [h for h in proper
               if not any(h.element_set < w.element_set for w in proper)]
    maximal.sort(key=lambda h: (-h.order, h.elements))
    classes = []
    assigned = set()
    for rep in maximal:
        if rep.element_set in assigned:
            continue
        norm = _reference_group(group.degree, [
            g for g in group.elements
            if {g.inverse() * v * g for v in rep.elements} == rep.element_set])
        reps, covered = [], set()
        for g in group.elements:
            if g not in covered:
                reps.append(g)
                covered.update(v * g for v in norm.elements)
        for t in reps:
            assigned.add(conjugate_subgroup(rep, t).element_set)
        classes.append(MaximalSubgroupClass(rep, norm, tuple(reps)))
    return classes


# ---------------------------------------------------------------------------
# References the library itself does not need

def reachable_set(cd, start):
    """Components reachable from ``start`` by a possibly empty path."""
    if not 0 <= start < cd.component_count:
        raise InputError(f"no component {start}")
    succ: dict[int, list[int]] = {}
    for a, b in cd.edges:
        succ.setdefault(a, []).append(b)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def closure_plain(sg, seed):
    """The subsemigroup generated by ``seed`` (indices): every product of
    two members, both ways round, until nothing new appears.  Independent
    of the right-only walk in semigroup_core."""
    members = set(seed)
    queue = list(members)
    while queue:
        frontier = []
        snapshot = list(members)
        for a in queue:
            for b in snapshot:
                for c in (sg.product(a, b), sg.product(b, a)):
                    if c not in members:
                        members.add(c)
                        frontier.append(c)
        queue = frontier
    return members


def right_closure(gens, mul):
    """The subsemigroup generated by ``gens`` under ``mul``, on payloads:
    every element is a word over the generators, reached from its prefix
    by one right multiplication.  Shares no code with the package."""
    gens = list(dict.fromkeys(gens))
    members = set(gens)
    queue = list(gens)
    while queue:
        a = queue.pop()
        for g in gens:
            c = mul(a, g)
            if c not in members:
                members.add(c)
                queue.append(c)
    return members


def payload_graphs(sg):
    """(right, left) Cayley graphs of the distinct generators g_k by
    payload products: right[k][a] is a * g_k and left[k][a] is g_k * a."""
    elems, mul, index = sg.elements, sg._mul, sg.index
    gens = [elems[g] for g in dict.fromkeys(sg.generator_indices)]
    return ([[index(mul(a, g)) for a in elems] for g in gens],
            [[index(mul(g, a)) for a in elems] for g in gens])


def greens_by_products(sg):
    """(R, L, H and J classes, J order edges, idempotents) from the product
    loop greens_structure ran before it read the Cayley graphs: a * g and
    g * a by payload products for every element a and generator g, and
    a * a for the idempotents.  Classes are sorted tuples listed by least
    member, as greens_structure numbers them."""
    n, elems, mul, index = sg.size, sg.elements, sg._mul, sg.index
    right_adj = [[] for _ in range(n)]
    left_adj = [[] for _ in range(n)]
    for a in range(n):
        for g in sg.generator_indices:
            ag, ga = index(mul(elems[a], elems[g])), index(mul(elems[g], elems[a]))
            if ag != a:
                right_adj[a].append(ag)
            if ga != a:
                left_adj[a].append(ga)
    both_adj = [r + l for r, l in zip(right_adj, left_adj)]

    def partition(parts):
        return tuple(tuple(c) for c in sorted(map(sorted, parts)))

    r, l, j = (partition(_tarjan_sccs(n, adj)) for adj in (right_adj, left_adj, both_adj))
    class_of = [{v: k for k, c in enumerate(classes) for v in c} for classes in (r, l, j)]
    pairs = {}
    for v in range(n):
        pairs.setdefault((class_of[0][v], class_of[1][v]), []).append(v)
    h = partition(pairs.values())
    j_of = class_of[2]
    j_edges = {(j_of[a], j_of[b]) for a in range(n) for b in both_adj[a] if j_of[a] != j_of[b]}
    idempotents = {e for e in range(n) if index(mul(elems[e], elems[e])) == e}
    return r, l, h, j, j_edges, idempotents


def compose(a, b):
    """Image tuples composed left to right: apply a, then b."""
    return tuple(b[x] for x in a)


def cycle_images(text, degree):
    """0-based images of 1-based cycle notation, cycles applied left to
    right, "()" the identity."""
    images = list(range(degree))
    for body in text.replace(")", "(").split("("):
        points = [int(tok) - 1 for tok in body.split()]
        step = dict(zip(points, points[1:] + points[:1]))
        images = [step.get(y, y) for y in images]
    return tuple(images)


class IntegerRees:
    """M0[I, G, Lambda; P] from a CLI ``rzms`` input, with group elements
    as image tuples and elements as 0 or (i, images, lam), 0-based.  An
    outside model of the package's Rees semigroups: it shares no code
    with them."""

    def __init__(self, spec):
        self.degree = spec["group_degree"]
        self.matrix = [[None if e == "0" else cycle_images(e, self.degree) for e in row]
                       for row in spec["matrix"]]

    def element(self, out):
        """The model element of a CLI element "0" or [i, cycles, -lambda]."""
        if out == "0":
            return 0
        i, cycles, lam = out
        return (i - 1, cycle_images(cycles, self.degree), -lam - 1)

    def multiply(self, a, b):
        if a == 0 or b == 0:
            return 0
        p = self.matrix[a[2]][b[0]]
        return 0 if p is None else (a[0], compose(compose(a[1], p), b[1]), b[2])


def monogenic(index, period):
    """<a | a^(index+period) = a^index> as a Cayley table on exponents."""
    n = index + period - 1

    def reduce(k):
        return k if k <= n else ((k - index) % period) + index

    table = [[reduce(i + j + 2) - 1 for j in range(n)] for i in range(n)]
    return from_table(table, generator_indices=[0])


def zero_semigroup(k):
    """k elements, every product equal to element 0."""
    table = [[0] * k for _ in range(k)]
    return from_table(table, generator_indices=list(range(1, k)) or [0])


def left_zero(k):
    table = [[i] * k for i in range(k)]
    return from_table(table)


def right_zero(k):
    table = [list(range(k)) for _ in range(k)]
    return from_table(table)


def group_with_zero(n):
    """Cyclic group of order n with a zero adjoined; generators are a
    group generator and the zero."""
    size = n + 1  # index 0 is the zero, indices 1..n the group

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        return (a - 1 + b - 1) % n + 1

    table = [[mul(a, b) for b in range(size)] for a in range(size)]
    return from_table(table, generator_indices=[2 if n > 1 else 1, 0])


def all_regular_matrices(group, n_rows, n_cols):
    """Every regular n_rows x n_cols structure matrix over the group."""
    entries = [None] + list(group.elements)
    cells = n_rows * n_cols

    def regular(flat):
        for r in range(n_rows):
            if all(flat[r * n_cols + c] is None for c in range(n_cols)):
                return False
        for c in range(n_cols):
            if all(flat[r * n_cols + c] is None for r in range(n_rows)):
                return False
        return True

    import itertools

    for flat in itertools.product(entries, repeat=cells):
        if regular(flat):
            yield tuple(
                tuple(flat[r * n_cols + c] for c in range(n_cols))
                for r in range(n_rows)
            )


def random_transformation_semigroups(degree, count, seed, max_size=16):
    """Seeded random subsemigroups of T_degree with at most max_size
    elements, as FiniteSemigroups."""
    rng = random.Random(seed)
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        gens = [
            Transformation(tuple(rng.randrange(degree) for _ in range(degree)))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            sg = closure(gens, operator.mul, max_size=max_size)
        except CapacityError:
            continue
        key = frozenset(sg.elements)
        if key in seen:
            continue
        seen.add(key)
        out.append(sg)
    return out


@contextlib.contextmanager
def reversed_transversals():
    """Inside the block the R6 search draws its coset transversals, of
    N_G(V) and of V in G, by scanning the group from its last element
    instead of from the identity.  Its results must not change."""

    def reps(group, sub):
        return right_coset_reps(group, sub, candidates=tuple(reversed(group.elements)))

    def classes(group):
        return [MaximalSubgroupClass(c.representative, c.normalizer,
                                     reps(group, c.normalizer))
                for c in maximal_subgroup_classes(group)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rees_matrix, "right_coset_reps", reps)
        mp.setattr(rees_matrix, "maximal_subgroup_classes", classes)
        yield


def adjoin_identity_to_rzms(rzms):
    """The Rees matrix semigroup with an identity adjoined, so that its
    big J-class is no longer maximal."""
    from maxsemi.rees_matrix import generating_set

    gens = generating_set(rzms) + ["1"]

    def mul(a, b):
        if a == "1":
            return b
        if b == "1":
            return a
        return rzms.multiply(a, b)

    return closure(gens, mul)


def oracle_corpus():
    """The verification corpus: monogenic semigroups, tiny Rees matrix
    semigroups over C1 and C2 (plain and with an identity adjoined),
    random transformation semigroups, and the constant families.
    Everything has at most 16 elements."""
    from maxsemi.semigroup_core import semigroup_from_rzms

    corpus = []
    for index in range(1, 8):
        for period in range(1, 9 - index):
            corpus.append((f"monogenic({index},{period})", monogenic(index, period)))
    for gname, group in (("C1", cyclic_group(1)), ("C2", cyclic_group(2))):
        for n_rows in (1, 2):
            for n_cols in (1, 2):
                for k, matrix in enumerate(
                        all_regular_matrices(group, n_rows, n_cols)):
                    rzms = ReesZeroMatrixSemigroup(group, matrix)
                    corpus.append((
                        f"rzms-{gname}-{n_rows}x{n_cols}-{k}",
                        semigroup_from_rzms(rzms),
                    ))
                    corpus.append((
                        f"rzms1-{gname}-{n_rows}x{n_cols}-{k}",
                        adjoin_identity_to_rzms(rzms),
                    ))
    for k, sg in enumerate(random_transformation_semigroups(3, 40, seed=101)):
        corpus.append((f"randT3-{k}", sg))
    for k, sg in enumerate(random_transformation_semigroups(4, 40, seed=202)):
        corpus.append((f"randT4-{k}", sg))
    rng = random.Random(909)
    trivial = cyclic_group(1)
    picked = 0
    while picked < 40:
        matrix = tuple(
            tuple(trivial.elements[0] if rng.random() < 0.55 else None
                  for _ in range(3))
            for _ in range(3))
        try:
            rzms = ReesZeroMatrixSemigroup(trivial, matrix)
        except InputError:
            continue
        picked += 1
        corpus.append((f"rzms-C1-3x3-{picked}", semigroup_from_rzms(rzms)))
        corpus.append((f"rzms1-C1-3x3-{picked}", adjoin_identity_to_rzms(rzms)))
    for k in range(2, 10):
        corpus.append((f"zero-{k}", zero_semigroup(k)))
        corpus.append((f"leftzero-{k}", left_zero(k)))
        corpus.append((f"rightzero-{k}", right_zero(k)))
    return corpus
