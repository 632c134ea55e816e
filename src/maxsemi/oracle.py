"""Brute-force ground truth, independent of the classification machinery.

``brute_force_maximal`` enumerates every subset of the semigroup and
keeps the inclusion-maximal closed proper ones.  ``verify_maximal``
checks one candidate M from the definition: M is closed, proper, and
<M, x> = S for every x outside M, tried in increasing order.  Two facts
about subsemigroups, not about the package's theory, keep this cheap.
Closedness: walking inside M yields a right cover X, every member a
word over X, and M is closed iff M X lies in M.  Extensions: each
element of <M, x> outside M is u x v with u in M or empty and v a word
over X and x, so <M, x> is one right walk from M x and x under X and x.
A walk stops early at any y already shown to generate: y in <M, x>
gives <M, x> contains <M, y> = S.  Nothing from Green's relations,
principal factors or the R/S searches is reused, and the oracle walks
its own cover, so it can judge them.
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


def _right_cover(times, members, member_set):
    """A right cover X of the candidate M, or None if M is not closed,
    where ``times[a](b)`` is a * b.  Each member that right
    multiplication has not yet reached joins X and then acts on
    everything reached so far.  A product that leaves M shows M is not
    closed.  Otherwise every member is a word over X and M * X lies in
    M, so M * M lies in M: closedness costs about |M| |X| products."""
    cover: list = []
    reached: set = set()
    for s in members:
        if s in reached:
            continue
        cover.append(s)
        queue = [s, *(times[a](s) for a in reached)]
        while queue:
            a = queue.pop()
            if a in reached:
                continue
            if a not in member_set:
                return None
            reached.add(a)
            queue.extend(map(times[a], cover))
    return cover


def _generates(times, cover, member_set, x: int, generating: set) -> bool:
    """True iff <M, x> is everything, for M = ``member_set`` closed with
    right cover ``cover``.  Each element of <M, x> outside M is u x v,
    with u in M or empty and v a word over X and x; for a shortest such
    v every prefix u x v' also lies outside M.  So a right walk from
    (M x and x) minus M under X and x, through elements outside M only,
    reaches all of <M, x> outside M.  The walk stops once it fills S or
    meets an element of ``generating``."""
    letters = [*cover, x]
    need = len(times) - len(member_set)
    reached = {x, *(times[m](x) for m in member_set)} - member_set
    if not generating.isdisjoint(reached):
        return True
    queue = list(reached)
    while queue and len(reached) < need:
        new = set(map(times[queue.pop()], letters)) - member_set - reached
        if not generating.isdisjoint(new):
            return True
        reached |= new
        queue.extend(new)
    return len(reached) == need


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
    cover = _right_cover(times, members, member_set)
    if cover is None:
        # the first failing pair in row order names the witness
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
        if not _generates(times, cover, member_set, x, generating):
            return False, f"not maximal: adjoining {x} does not generate everything"
        generating.add(x)
    return True, "ok"
