"""Brute-force ground truth, independent of the classification machinery.

``brute_force_maximal`` enumerates every subset of the semigroup and
keeps the inclusion-maximal closed proper ones.  ``verify_maximal``
checks one candidate M from the definition: M is closed, proper, and
<M, x> = S for every x outside M, tried in increasing order.  A walk
stops early at any y already shown to generate: y in <M, x> gives
<M, x> contains <M, y> = S, a fact about subsemigroups, not about the
package's theory.  Nothing from Green's relations, principal factors
or the R/S searches is reused, so the oracle can judge them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .errors import CapacityError
from .semigroup_core import FiniteSemigroup, TABLE_BOUND

SUBSET_ENUMERATION_BOUND = 16
VERIFY_BOUND = 100_000


@dataclass(frozen=True)
class OracleReport:
    size: int
    maximal: tuple  # sorted tuple of frozensets of element indices
    wall_time: float


def brute_force_maximal(sg: FiniteSemigroup) -> OracleReport:
    """All 2^n subsets, filtered to non-empty closed proper ones, reduced
    to the inclusion-maximal members."""
    n = sg.size
    if n > SUBSET_ENUMERATION_BOUND:
        raise CapacityError(
            f"subset enumeration supported up to {SUBSET_ENUMERATION_BOUND} "
            f"elements, got {n}; use verify_maximal for spot checks",
            bound=SUBSET_ENUMERATION_BOUND,
        )
    start = time.perf_counter()
    rows = sg.table()
    closed = []
    for mask in range(1, (1 << n) - 1):
        members = [v for v in range(n) if mask >> v & 1]
        ok = True
        for a in members:
            row = rows[a]
            for b in members:
                if not mask >> row[b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            closed.append(mask)
    closed.sort(key=lambda m: -bin(m).count("1"))
    maximal_masks: list[int] = []
    for m in closed:
        if not any(m & big == m for big in maximal_masks):
            maximal_masks.append(m)
    sets = sorted(
        (frozenset(v for v in range(n) if m >> v & 1) for m in maximal_masks),
        key=sorted,
    )
    return OracleReport(
        size=n, maximal=tuple(sets), wall_time=time.perf_counter() - start)


def _generates(times, members, x: int, generating: set) -> bool:
    """True iff <members, x> is everything (``members`` is closed), where
    ``times[a](b)`` is a * b.  Each round multiplies the new elements by
    the whole set on both sides, and the walk stops once it fills S or
    meets an element of ``generating``."""
    n = len(times)
    inside = {x, *members}
    frontier = [x]
    while len(inside) < n:
        snapshot = list(inside)
        new = set()
        for a in frontier:
            new.update(map(times[a], snapshot))
            new.update([times[b](a) for b in snapshot])
        new -= inside
        if not new:
            return False
        if not generating.isdisjoint(new):
            return True
        inside |= new
        frontier = new
    return True


def verify_maximal(sg: FiniteSemigroup, candidate: Iterable[int]):
    """(ok, diagnostic): ``candidate`` must be closed, proper, and such
    that adjoining any missing element generates the whole semigroup.
    The diagnostic names the first failing condition and a witness."""
    n = sg.size
    if n > VERIFY_BOUND:
        raise CapacityError(f"verify_maximal supported up to {VERIFY_BOUND} elements",
                            bound=VERIFY_BOUND)
    members = sorted(set(candidate))
    member_set = set(members)
    if not member_set:
        return False, "candidate is empty"
    if any(not 0 <= e < n for e in members):
        return False, "candidate contains indices outside the semigroup"
    if n <= TABLE_BOUND:
        times = [row.__getitem__ for row in sg.table()]
    else:
        times = [partial(sg.product, a) for a in range(n)]
    for a in members:
        if not member_set.issuperset(map(times[a], members)):
            b = next(b for b in members if times[a](b) not in member_set)
            return False, f"not closed: {a} * {b} = {times[a](b)} is missing"
    if len(member_set) == n:
        return False, "not proper: candidate is the whole semigroup"
    generating = set()
    for x in range(n):
        if x in member_set:
            continue
        if not _generates(times, members, x, generating):
            return False, f"not maximal: adjoining {x} does not generate everything"
        generating.add(x)
    return True, "ok"
