"""Greedy covering designs over support-class families.

greedy_cover grows each cover set by absorbing family members in the given
iteration order while the union stays within capacity, then drops every
covered member.  Members and sets are word-major uint64 bitmasks (vertex v
is bit v % 64 of word v // 64), so one forward scan over the remaining
members finds each absorption: growth can only shrink the set of absorbable
members, so no earlier member needs a second look.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class CoveringDesign:
    root: int
    capacity: int
    sets: list[tuple[int, ...]]


def greedy_cover(family, c: int, root: int = -1) -> CoveringDesign:
    """Cover all members of `family` (k-subsets, fixed order) by sets of size <= c."""
    members = [tuple(sorted(t)) for t in family]
    if not members:
        return CoveringDesign(root=root, capacity=c, sets=[])
    k = len(members[0])
    if any(len(t) != k for t in members):
        raise ValueError("family members must share one size k")
    if c < k:
        raise ValueError(f"capacity {c} below member size {k}")
    masks = _masks(members, _words(members))
    width = np.min_scalar_type(k)  # a member has at most k bits outside a set
    sets = []
    while masks.shape[1]:
        grown = np.zeros(len(masks), dtype=np.uint64)
        size = cursor = 0
        while cursor < masks.shape[1]:
            outside = masks[:, cursor:] & ~grown[:, None]
            gain = np.bitwise_count(outside).sum(axis=0, dtype=width)
            fits = (gain >= 1) & (gain <= c - size)
            first = int(fits.argmax())
            if not fits[first]:
                break
            grown |= masks[:, cursor + first]
            size += int(gain[first])
            cursor += first + 1
        sets.append(_vertices(grown))
        masks = masks.compress((masks & ~grown[:, None]).any(axis=0), axis=1)
    return CoveringDesign(root=root, capacity=c, sets=sets)


def validate_cover(design: CoveringDesign, family) -> bool:
    """Check sizes <= capacity, root exclusion, and that every member is covered."""
    for s in design.sets:
        if len(frozenset(s)) > design.capacity:
            return False
        if design.root >= 0 and design.root in s:
            return False
    family = list(family)
    words = _words(chain(family, design.sets))
    uncovered = _masks(family, words)
    for s in _masks(design.sets, words).T:
        if not uncovered.shape[1]:
            break
        uncovered = uncovered.compress((uncovered & ~s[:, None]).any(axis=0), axis=1)
    return not uncovered.shape[1]


def _words(sets) -> int:
    return max((v for s in sets for v in s), default=0) // 64 + 1


def _masks(sets, words: int) -> np.ndarray:
    """A (words, len(sets)) uint64 array; column i is the bitmask of sets[i]."""
    sets = list(sets)
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.intp)
    column = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    masks = np.zeros((words, len(sets)), dtype=np.uint64)
    bits = np.uint64(1) << (flat & 63).astype(np.uint64)
    np.bitwise_or.at(masks, (flat >> 6, column), bits)
    return masks


def _vertices(mask: np.ndarray) -> tuple[int, ...]:
    bits = np.unpackbits(mask.astype("<u8").view(np.uint8), bitorder="little")
    return tuple(np.flatnonzero(bits).tolist())
