"""Desk-scale permutation group kernel.

Groups are stored as explicit sorted element lists.  ``Permutation`` is
the input and output form; the subgroup work runs on integers: element k
of a group is its position in ``elements``, products come from the
group's multiplication table, and a subgroup is a bitmask over positions.
The maximal subgroups are found one conjugacy class at a time by cyclic
extension (Neubuser 1960), not from the whole subgroup lattice.
``SUBGROUP_ORDER_BOUND`` guards the search.

``generate_group`` walks on its own, not through ``semigroup_core.closure``,
although a group is the semigroup closure of the identity and its generators:
``semigroup_core`` imports this module, so the kernel cannot call up into
it, and ``closure`` also records the right Cayley graph, which no group
routine reads.
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

    @cached_property
    def mul_table(self) -> tuple[dict, list]:
        """(index, products): ``index`` maps each element to its position
        in ``elements`` and ``products[a][b]`` is the position of
        ``elements[a] * elements[b]``.  Built once and shared: read only."""
        index = {g: k for k, g in enumerate(self.elements)}
        return index, [[index[a * b] for b in self.elements] for a in self.elements]

    @cached_property
    def inv_table(self) -> list[int]:
        """``inv_table[a]`` is the position of the inverse of
        ``elements[a]``; the identity is at position 0."""
        return [row.index(0) for row in self.mul_table[1]]

    def __contains__(self, p: Permutation) -> bool:
        return p in self.element_set

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def generate_group(degree: int, gens: Sequence[Permutation],
                   max_order: Optional[int] = None) -> PermGroup:
    """Group generated by ``gens`` on ``degree`` points: the smallest set
    holding the identity that is closed under right multiplication by
    ``gens``.  Empty ``gens`` yields the trivial group.  The walk stops
    with a CapacityError once it passes ``max_order`` elements."""
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise InputError(f"generator degree {g.degree} does not match {degree}")
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
                    if max_order is not None and len(seen) > max_order:
                        raise CapacityError(
                            f"group exceeded {max_order} elements", bound=max_order)
        queue = frontier
    return PermGroup(degree, gens, tuple(sorted(seen)))


def _check_search_order(order: int) -> None:
    """The capacity check of ``maximal_subgroup_classes``, for callers that
    can make it before building the group."""
    if order > SUBGROUP_ORDER_BOUND:
        raise CapacityError(f"maximal subgroup search supported only up to group order "
                            f"{SUBGROUP_ORDER_BOUND}, got {order}", bound=SUBGROUP_ORDER_BOUND)


# ---------------------------------------------------------------------------
# The integer kernel.  Element k of a group is ``elements[k]``, so index
# order is Permutation order and the identity is 0.  A subgroup is its
# ascending member list, or the int with bit k set for each member k.

def _bits(members: Iterable[int]) -> int:
    return sum(1 << k for k in members)  # members are distinct


def _members(mask: int) -> list[int]:
    return [k for k, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _join(mul: list, sub: list[int], mask: int, x: int) -> tuple[int, list[int]]:
    """(bits, members) of <H, x>, for H with members ``sub`` and bits ``mask``.

    Dimino's method: <H, x> is a union of right cosets H r.  Each coset
    representative r, from r = 1 on, is followed by r s for s in H and
    s = x; a product outside the cosets found so far starts a new coset.
    """
    members, reps, steps = list(sub), [0], sub + [x]
    for r in reps:
        row = mul[r]
        for s in steps:
            y = row[s]
            if not mask >> y & 1:
                coset = [mul[h][y] for h in sub]
                members += coset
                mask |= _bits(coset)
                reps.append(y)
    return mask, members


def _small_generating_set(group: PermGroup, members: Sequence[int]) -> list[int]:
    """Each member, in order, that the members picked before it do not generate."""
    _, mul = group.mul_table
    gens, have, reached = [], 1, [0]
    for p in members:
        if len(reached) == len(members):
            break
        if not have >> p & 1:
            gens.append(p)
            have, reached = _join(mul, reached, have, p)
    return gens


def _conjugates(group: PermGroup, sub: list[int]) -> list[int]:
    """Bits of g^-1 H g for each g in ``group``, in element order."""
    _, mul = group.mul_table
    inv = group.inv_table
    return [_bits(mul[mul[inv[g]][v]][g] for v in sub) for g in range(group.order)]


def _normalizer(group: PermGroup, sub: list[int]) -> list[int]:
    mask = _bits(sub)
    return [g for g, c in enumerate(_conjugates(group, sub)) if c == mask]


def _right_transversal(group: PermGroup, sub: list[int], scan: Iterable[int]) -> list[int]:
    """The first element met in ``scan`` of each right coset H g."""
    _, mul = group.mul_table
    covered, reps = 0, []
    for g in scan:
        if not covered >> g & 1:
            reps.append(g)
            covered |= _bits(mul[v][g] for v in sub)
    return reps


def _subgroup(group: PermGroup, members: Sequence[int]) -> PermGroup:
    e = group.elements
    return PermGroup(group.degree, tuple(e[k] for k in _small_generating_set(group, members)),
                     tuple(e[k] for k in members))


def _group_from_table(degree: int, elements: Sequence[Permutation], products: list) -> PermGroup:
    """The group on the sorted ``elements``, closed under composition,
    whose multiplication table on positions is ``products``."""
    bare = PermGroup(degree, (), tuple(elements))
    bare.__dict__["mul_table"] = ({g: k for k, g in enumerate(bare.elements)}, products)
    group = _subgroup(bare, range(bare.order))
    group.__dict__["mul_table"] = bare.mul_table  # same elements, same table
    return group


def _positions(group: PermGroup, sub: PermGroup, caller: str) -> list[int]:
    if not sub.element_set <= group.element_set:
        raise InputError(f"{caller}: V is not a subgroup of G")
    return sorted(group.mul_table[0][p] for p in sub.elements)


def normalizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """N_G(V) = {g in G : g^-1 V g = V}."""
    return _subgroup(group, _normalizer(group, _positions(group, sub, "normalizer")))


def right_coset_reps(group: PermGroup, sub: PermGroup,
                     candidates: Optional[Sequence[Permutation]] = None,
                     ) -> tuple[Permutation, ...]:
    """One representative per right coset V*g of ``sub`` in ``group``.

    With the default candidate order the first representative is the
    identity.  ``candidates`` may reorder the scan to select a different
    transversal; downstream results must not depend on the choice.
    """
    members = _positions(group, sub, "right_coset_reps")
    index, _ = group.mul_table
    scan = range(group.order) if candidates is None else [index[g] for g in candidates]
    reps = _right_transversal(group, members, scan)
    if len(reps) * len(members) != group.order:
        raise InputError("right_coset_reps: candidate sequence does not cover the group")
    return tuple(group.elements[g] for g in reps)


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
    """Conjugacy class representatives of the maximal subgroups of ``group``,
    each the member of its class with the least element list.  Ordered by
    descending order, then element list.  The trivial group has none.

    Cyclic extension up to conjugacy: the least member H of each class of
    subgroups met, from the trivial group on, is extended to <H, x> by one
    x from each right coset H x other than H.  Every subgroup K > 1 is
    <H, x> for any H maximal in K and x in K \\ H, so every class is met.
    H is maximal in G iff every such <H, x> is G.
    """
    _check_search_order(group.order)
    _, mul = group.mul_table
    n = group.order
    whole = (1 << n) - 1
    known, work, maximal = {1}, [1], []  # known: every member of every class met
    while work:
        rep = work.pop()
        sub = _members(rep)
        covered, is_maximal = rep, rep != whole
        for x in range(n):
            if not covered >> x & 1:
                covered |= _bits(mul[h][x] for h in sub)
                joined, members = _join(mul, sub, rep, x)
                is_maximal = is_maximal and joined == whole
                if joined not in known:
                    conjugates = set(_conjugates(group, members))
                    known |= conjugates
                    work.append(min(conjugates, key=_members))
        if is_maximal:
            maximal.append(sub)
    classes = []
    for sub in sorted(maximal, key=lambda sub: (-len(sub), sub)):
        norm = _normalizer(group, sub)
        reps = _right_transversal(group, norm, range(n))
        classes.append(MaximalSubgroupClass(_subgroup(group, sub), _subgroup(group, norm),
                                            tuple(group.elements[t] for t in reps)))
    return classes
