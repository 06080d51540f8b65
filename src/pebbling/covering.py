"""Greedy covering designs over support-class families.

Members and sets are Python-int bitsets: vertex v is bit v, for any v.

greedy_cover grows each cover set by absorbing family members in the given
iteration order while the union stays within capacity, then drops every
covered member.  A member that no longer fits never fits again, since growth
only enlarges its union with the set, so each set is one forward scan over
the live members past the one that opens it, stopping once the set is full.
Once a set closes, the members it covers are found by looking up its
k-subsets in a member -> position map and flagged dead, or by one pass over
the members left when those subsets outnumber them (a large c).  Repeated
members are dropped up front: a repeat is covered whenever its first copy
is, and the map holds one position per member.

validate_cover checks coverage by another route: each vertex gets a bitset
of the design sets that hold it, and a member is covered iff the AND of its
vertices' bitsets is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


@dataclass
class CoveringDesign:
    root: int
    capacity: int
    sets: list[tuple[int, ...]]


def greedy_cover(family, c: int, root: int = -1) -> CoveringDesign:
    """Cover all members of `family` (k-subsets, fixed order) by sets of size <= c."""
    members = list(dict.fromkeys(tuple(sorted(t)) for t in family))
    if not members:
        return CoveringDesign(root=root, capacity=c, sets=[])
    k = len(members[0])
    if any(len(t) != k for t in members):
        raise ValueError("family members must share one size k")
    if c < k:
        raise ValueError(f"capacity {c} below member size {k}")
    masks = [sum(1 << v for v in t) for t in members]
    # k powers of two sum to k set bits only when they are distinct
    if any(m.bit_count() != k for m in masks):
        raise ValueError("family members must not repeat a vertex")
    index = {t: i for i, t in enumerate(members)}
    alive = [True] * len(members)
    sets = []
    head = 0
    while head < len(members):
        grown, size, taken = masks[head], k, [head]
        for i in range(head + 1, len(members)):
            if size == c:
                break
            if alive[i]:
                union = grown | masks[i]
                if union.bit_count() <= c:
                    grown, size = union, union.bit_count()
                    taken.append(i)
        cover = tuple(sorted({v for i in taken for v in members[i]}))
        sets.append(cover)
        # once the set's k-subsets outnumber the members left (a large c),
        # one pass over those members is cheaper than the lookups
        if comb(size, k) <= len(members) - head:
            for i in map(index.get, combinations(cover, k)):
                if i is not None:
                    alive[i] = False
        else:
            for i in range(head, len(members)):
                if masks[i] | grown == grown:
                    alive[i] = False
        while head < len(members) and not alive[head]:
            head += 1
    return CoveringDesign(root=root, capacity=c, sets=sets)


def validate_cover(design: CoveringDesign, family) -> bool:
    """Check sizes <= capacity, root exclusion, and that every member is covered."""
    for s in design.sets:
        if len(frozenset(s)) > design.capacity:
            return False
        if design.root >= 0 and design.root in s:
            return False
    held: dict[int, int] = {}  # vertex -> bitset of the design sets holding it
    for i, s in enumerate(design.sets):
        for v in s:
            held[v] = held.get(v, 0) | 1 << i
    # start from every set, not -1, so the empty member needs some set
    every = (1 << len(design.sets)) - 1
    for t in family:
        common = every
        for v in t:
            common &= held.get(v, 0)
        if not common:
            return False
    return True
