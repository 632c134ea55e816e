"""Desk-scale permutation group kernel.

Groups are stored as explicit sorted element lists.  The subgroup lattice
is found by closing the set of cyclic subgroups under pairwise joins,
which is complete for any finite group (every subgroup is a join of the
cyclic subgroups it contains).  Nothing here is meant to scale past a few
hundred elements; ``SUBGROUP_ORDER_BOUND`` guards the lattice routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import CapacityError, InputError

SUBGROUP_ORDER_BOUND = 400


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of {0, ..., n-1} stored as its tuple of images.

    Products compose left to right: ``(a * b)(x) == b(a(x))``, matching the
    convention used for transformations elsewhere in the package.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise InputError("cannot compose permutations of different degrees")
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __repr__(self):
        return f"Permutation({self.images})"


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation, e.g. ``"(1 2)(3 4)"``.

    ``"()"``, ``"id"`` and the empty string denote the identity.  Cycles
    need not be disjoint; they compose left to right.  Malformed input
    raises InputError naming the offending position.
    """
    s = text.strip()
    if s in ("()", "id", ""):
        return identity(degree)
    result = identity(degree)
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "(":
            raise InputError(f"expected '(' at position {pos} in {text!r}")
        close = s.find(")", pos)
        if close < 0:
            raise InputError(f"unclosed cycle starting at position {pos} in {text!r}")
        body = s[pos + 1:close].replace(",", " ").split()
        try:
            points = [int(tok) for tok in body]
        except ValueError:
            raise InputError(f"non-integer point in cycle at position {pos} in {text!r}") from None
        if len(points) != len(set(points)):
            raise InputError(f"repeated point in cycle at position {pos} in {text!r}")
        for p in points:
            if not 1 <= p <= degree:
                raise InputError(
                    f"point {p} out of range 1..{degree} at position {pos} in {text!r}"
                )
        if points:
            images = list(range(degree))
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b - 1
            result = result * Permutation(tuple(images))
        pos = close + 1
    return result


def cycle_string(p: Permutation) -> str:
    """1-based disjoint cycle notation; the identity prints as "()"."""
    seen = [False] * p.degree
    cycles = []
    for start in range(p.degree):
        if seen[start] or p.images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p.images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p.images[nxt]
        cycles.append(cyc)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


@dataclass(frozen=True)
class PermGroup:
    """Permutation group given by its full sorted element list."""

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> Permutation:
        return identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.element_set

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _close_elements(gens: Iterable[Permutation], degree: int) -> frozenset:
    """Smallest set containing the identity and the generators, closed
    under composition.  For finite inputs this is the generated subgroup."""
    gens = list(gens)
    seen = {identity(degree)}
    queue = list(seen)
    while queue:
        frontier = []
        for p in queue:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        queue = frontier
    return frozenset(seen)


def generate_group(degree: int, gens: Sequence[Permutation]) -> PermGroup:
    """Group generated by ``gens`` on ``degree`` points; empty ``gens``
    yields the trivial group."""
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} does not match {degree}")
    elements = _close_elements(gens, degree)
    return PermGroup(degree, gens, tuple(sorted(elements)))


def _small_generating_set(degree: int, elements: frozenset) -> tuple[Permutation, ...]:
    gens: list[Permutation] = []
    have = frozenset({identity(degree)})
    for p in sorted(elements):
        if p not in have:
            gens.append(p)
            have = _close_elements(gens, degree)
            if len(have) == len(elements):
                break
    return tuple(gens)


def _group_from_elements(degree: int, elements: frozenset) -> PermGroup:
    return PermGroup(degree, _small_generating_set(degree, elements), tuple(sorted(elements)))


def is_subgroup(sub: Iterable[Permutation], group: PermGroup) -> bool:
    """True iff ``sub`` is a subset of ``group`` containing the identity
    and closed under composition (inverses follow by finiteness)."""
    elems = set(sub)
    if not elems or identity(group.degree) not in elems:
        return False
    if not elems <= group.element_set:
        return False
    return all(a * b in elems for a in elems for b in elems)


def _check_lattice_order(order: int) -> None:
    """The capacity check of ``all_subgroups``, for callers that can make
    it before building the group."""
    if order > SUBGROUP_ORDER_BOUND:
        raise CapacityError(
            f"subgroup lattice supported only up to order {SUBGROUP_ORDER_BOUND}, "
            f"got {order}",
            bound=SUBGROUP_ORDER_BOUND,
        )


def all_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every subgroup of ``group``, each exactly once.

    Seeds with the cyclic subgroups and repeatedly joins pairs until no
    new subgroup appears.  Sorted by (order, element list).
    """
    _check_lattice_order(group.order)
    degree = group.degree
    cyclic = {_close_elements([g], degree) for g in group.elements}
    subs = set(cyclic)
    work = list(cyclic)
    while work:
        fresh = []
        current = list(subs)
        for a in work:
            for b in current:
                if a <= b or b <= a:
                    continue
                joined = _close_elements(a | b, degree)
                if joined not in subs:
                    subs.add(joined)
                    fresh.append(joined)
        work = fresh
    ordered = sorted(subs, key=lambda s: (len(s), sorted(s)))
    return [_group_from_elements(degree, s) for s in ordered]


def normalizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """N_G(V) = {g in G : g^-1 V g = V}."""
    if not sub.element_set <= group.element_set:
        raise InputError("normalizer: V is not a subgroup of G")
    target = sub.element_set
    members = frozenset(
        g for g in group.elements
        if frozenset(g.inverse() * v * g for v in target) == target
    )
    return _group_from_elements(group.degree, members)


def right_coset_reps(
    group: PermGroup,
    sub: PermGroup,
    candidates: Optional[Sequence[Permutation]] = None,
) -> tuple[Permutation, ...]:
    """One representative per right coset V*g of ``sub`` in ``group``.

    With the default candidate order the first representative is the
    identity.  ``candidates`` may reorder the scan to select a different
    transversal; downstream results must not depend on the choice.
    """
    if not sub.element_set <= group.element_set:
        raise InputError("right_coset_reps: V is not a subgroup of G")
    scan = group.elements if candidates is None else tuple(candidates)
    covered: set[Permutation] = set()
    reps = []
    for g in scan:
        if g not in covered:
            reps.append(g)
            covered.update(v * g for v in sub.elements)
    if len(covered) != group.order:
        raise InputError("right_coset_reps: candidate sequence does not cover the group")
    return tuple(reps)


def conjugate_subgroup(sub: PermGroup, g: Permutation) -> PermGroup:
    """g^-1 V g, with generators conjugated alongside the elements."""
    ginv = g.inverse()
    elements = tuple(sorted(ginv * v * g for v in sub.elements))
    gens = tuple(ginv * v * g for v in sub.generators)
    return PermGroup(sub.degree, gens, elements)


@dataclass(frozen=True)
class MaximalSubgroupClass:
    """A conjugacy class of maximal subgroups of some parent group.

    ``normalizer_coset_reps`` is a right transversal of N_G(V) in G;
    conjugating the representative by each rep enumerates the class.
    """

    representative: PermGroup
    normalizer: PermGroup
    normalizer_coset_reps: tuple[Permutation, ...]


def maximal_subgroup_classes(group: PermGroup) -> list[MaximalSubgroupClass]:
    """Conjugacy class representatives of the maximal subgroups of ``group``.

    Ordered by descending order of the representative, then element list.
    The trivial group has no maximal subgroups.
    """
    subs = all_subgroups(group)
    proper = [h for h in subs if h.order < group.order]
    proper_sets = [h.element_set for h in proper]
    maximal = [
        h for h in proper
        if not any(h.element_set < other for other in proper_sets if other != h.element_set)
    ]
    maximal.sort(key=lambda h: (-h.order, h.elements))
    classes = []
    assigned: set[frozenset] = set()
    for rep in maximal:
        if rep.element_set in assigned:
            continue
        norm = normalizer(group, rep)
        reps = right_coset_reps(group, norm)
        for t in reps:
            assigned.add(conjugate_subgroup(rep, t).element_set)
        classes.append(MaximalSubgroupClass(rep, norm, reps))
    return classes
