"""Greedy covering designs over support-class families.

greedy_cover grows each cover set by absorbing family members in the given
iteration order while the union stays within capacity, then drops every
covered member.  Members and sets are word-major uint64 bitmasks (vertex v
is bit v % 64 of word v // 64).  A member that no longer fits never fits
again, since growth only enlarges its union with the set, so each absorption
is the first live member past the previous one that fits.  The scan looks
for it in windows that double in width from there, and stops at the first
window that holds one; only a set that closes below capacity scans to the
end.  Once a set closes, the members it covers are found by looking up its
k-subsets in a member -> position map and flagged dead, so no pass over the
live members is made per set (unless those subsets outnumber the members
left).  Repeated members are dropped up front: a repeat is covered whenever
its first copy is, and the map holds one position per member.

validate_cover checks coverage by another route: each vertex gets a bitset
of the design sets that hold it, and a member is covered iff the AND of its
vertices' rows is nonzero.  Members are checked in fixed-size blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

WINDOW = 32  # first scan window, in members
BLOCK = 1024  # members per validation block


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
    flat = np.fromiter(chain.from_iterable(members), dtype=np.intp, count=len(members) * k)
    row = np.repeat(np.arange(len(members)), k)
    masks = _bit_rows(row, flat, (len(members), int(flat.max(initial=0)) // 64 + 1))
    if (np.bitwise_count(masks).sum(axis=1) != k).any():
        raise ValueError("family members must not repeat a vertex")
    index = {t: i for i, t in enumerate(members)}
    alive = np.ones(len(members), dtype=bool)
    sets = []
    head = 0
    while head < len(members):
        grown = masks[head].copy()
        size, cursor = k, head + 1
        while size < c:
            hit, gain = _first_fit(masks, alive, grown, cursor, k, c - size)
            if not gain:
                break
            grown |= masks[hit]
            size, cursor = size + gain, hit + 1
        cover = _vertices(grown)
        sets.append(cover)
        # once the set's k-subsets outnumber the members left (a large c),
        # one pass over those members is cheaper than the lookups
        if comb(size, k) <= len(members) - head:
            alive[[i for i in map(index.get, combinations(cover, k)) if i is not None]] = False
        else:
            alive[head:] &= (masks[head:] & ~grown).any(axis=1)
        while head < len(members) and not alive[head]:
            head += 1
    return CoveringDesign(root=root, capacity=c, sets=sets)


def _first_fit(masks, alive, grown, start: int, k: int, budget: int) -> tuple[int, int]:
    """The first live member at or past `start` that adds 1 to `budget`
    vertices to `grown`: its position and that count, or (-1, 0)."""
    width = WINDOW
    while start < len(masks):
        end = start + width
        shared = np.bitwise_count(masks[start:end] & grown).sum(axis=1)
        fits = (shared >= k - budget) & (shared < k) & alive[start:end]
        first = int(fits.argmax())
        if fits[first]:
            return start + first, k - int(shared[first])
        start, width = end, 2 * width
    return -1, 0


def validate_cover(design: CoveringDesign, family) -> bool:
    """Check sizes <= capacity, root exclusion, and that every member is covered."""
    for s in design.sets:
        if len(frozenset(s)) > design.capacity:
            return False
        if design.root >= 0 and design.root in s:
            return False
    family = list(family)
    if not family:
        return True
    lengths = np.fromiter(map(len, family), dtype=np.intp, count=len(family))
    flat = np.fromiter(chain.from_iterable(family), dtype=np.intp, count=int(lengths.sum()))
    held = np.fromiter(chain.from_iterable(design.sets), dtype=np.intp)
    pad = max(flat.max(initial=0), held.max(initial=0)) + 1  # past every real vertex
    # row v of `incidence` is the bitmask of the design sets holding v; row
    # `pad` holds every set, so padding a short member with it is neutral
    count = len(design.sets)
    owner = np.repeat(np.arange(count), [len(s) for s in design.sets])
    incidence = _bit_rows(held, owner, (pad + 1, (count + 63) // 64))
    incidence[pad] = ~np.uint64(0)
    width = max(int(lengths.max()), 1)
    rows = np.full((len(family), width), pad, dtype=np.intp)
    rows[np.arange(width) < lengths[:, None]] = flat
    for start in range(0, len(rows), BLOCK):
        block = rows[start : start + BLOCK]
        common = incidence[block[:, 0]]
        for j in range(1, width):
            common &= incidence[block[:, j]]
        if not common.any(axis=1).all():
            return False
    return True


def _bit_rows(row, bit, shape) -> np.ndarray:
    """A uint64 array of `shape`, word-major bitmask rows: row row[i] has bit bit[i]."""
    out = np.zeros(shape, dtype=np.uint64)
    np.bitwise_or.at(out, (row, bit >> 6), np.uint64(1) << (bit & 63).astype(np.uint64))
    return out


def _vertices(mask: np.ndarray) -> tuple[int, ...]:
    out = []
    for w, word in enumerate(mask.tolist()):
        while word:
            low = word & -word
            out.append(64 * w + low.bit_length() - 1)
            word ^= low
    return tuple(out)
