"""Automorphism groups, vertex orbits, and support-class representatives.

The group is found by backtracking over a color-refinement partition, so
product graphs are handled directly without assuming anything about how
their groups factor.  It is a plain list of image tuples: p[v] is the
image of v.  Subset classes use a canonical form, the lexicographically
minimal sorted image under the group; one array sweep over all k-subsets
keeps, permutation by permutation, the subsets that no image undercuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .graphs import Graph

MATERIALIZE_LIMIT = 1_000_000
_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


@dataclass
class SupportClasses:
    root: int
    k: int
    reps: list[tuple[int, ...]]
    class_count: int


def _refine_colors(g: Graph, colors: list[int]) -> list[int]:
    """Iterate (color, sorted neighbor-color multiset) until stable."""
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in g.adjacency[v])))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        fresh = [rank[s] for s in sig]
        if fresh == colors:
            return colors
        colors = fresh


def automorphisms(
    g: Graph, fixed: int | None = None, limit: int = MATERIALIZE_LIMIT
) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex bijections, each as its tuple of images;
    with `fixed`, only those that fix it (its stabilizer).

    The refinement starts with `fixed` in a colour class of its own, so the
    stabilizer is listed without listing the whole group.  More than `limit`
    elements, or a `fixed` outside 0..n-1, raise ValueError.
    """
    n = g.n
    if fixed is not None and not 0 <= fixed < n:
        raise ValueError(f"fixed vertex {fixed} out of range")
    colors = _refine_colors(g, [-1 if v == fixed else g.degree(v) for v in range(n)])
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    # map vertices in BFS order from the tightest cell so edges constrain early
    start = min(cells.values(), key=len)[0]
    order_of_visit = []
    seen = [False] * n
    queue = [start]
    seen[start] = True
    while queue:
        u = queue.pop(0)
        order_of_visit.append(u)
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)

    adjacency_sets = [set(ns) for ns in g.adjacency]
    found: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(pos: int):
        if pos == n:
            found.append(tuple(image))
            if len(found) > limit:
                raise ValueError(f"automorphism group exceeds {limit} elements")
            return
        u = order_of_visit[pos]
        for w in cells[colors[u]]:
            if used[w]:
                continue
            ok = True
            for prev in order_of_visit[:pos]:
                if (prev in adjacency_sets[u]) != (image[prev] in adjacency_sets[w]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                extend(pos + 1)
                used[w] = False
                image[u] = -1

    extend(0)
    return found


def vertex_orbits(
    g: Graph, group: list[tuple[int, ...]] | None = None
) -> list[tuple[int, ...]]:
    """Orbits of the automorphism action, each sorted, listed by minimum member."""
    group = group or automorphisms(g)
    orbits = {tuple(sorted({p[v] for p in group})) for v in range(g.n)}
    return sorted(orbits)


def orbit_representatives(g: Graph, group: list[tuple[int, ...]] | None = None) -> list[int]:
    return [orbit[0] for orbit in vertex_orbits(g, group)]


def stabilizer(group: list[tuple[int, ...]], r: int) -> list[tuple[int, ...]]:
    return [p for p in group if p[r] == r]


def _scrambled_order(masks: np.ndarray) -> np.ndarray:
    """Deterministic decorrelated ordering of subset bitmasks."""
    return np.argsort(masks * _HASH_MIX, kind="stable")


def support_class_reps(
    g: Graph, r: int, k: int, group: list[tuple[int, ...]] | None = None
) -> SupportClasses:
    """Representatives of k-subsets of V minus the root, up to the root stabilizer.

    The canonical form of a subset is the lexicographically minimal sorted
    image over the stabilizer; representatives are those forms.  They are
    emitted in a fixed pseudorandom order, which keeps downstream greedy
    covering close to arbitrary-order behavior.
    """
    if not 0 <= r < g.n:
        raise ValueError(f"root {r} out of range")
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    group = group or automorphisms(g)
    others = [v for v in range(g.n) if v != r]
    reps = _canonical_subsets(stabilizer(group, r), others, k)
    # vertex v sets bit v mod 64, so the scramble key fits one word for any n
    bits = np.uint64(1) << (reps & 63).astype(np.uint64)
    reps = reps[_scrambled_order(np.bitwise_or.reduce(bits, axis=1))]
    reps = [tuple(row) for row in reps.tolist()]
    return SupportClasses(root=r, k=k, reps=reps, class_count=len(reps))


def subset_orbit_reps(
    g: Graph, k: int, group: list[tuple[int, ...]] | None = None
) -> list[tuple[int, ...]]:
    """Representatives of k-subsets of V under the full automorphism group."""
    group = group or automorphisms(g)
    reps = _canonical_subsets(group, range(g.n), k)
    return [tuple(row) for row in reps.tolist()]


def _canonical_subsets(perms, others, k) -> np.ndarray:
    """The k-subsets of sorted `others` that are their own canonical form.

    Every permutation in `perms` must map `others` onto itself.  Rows start
    as every k-subset in lexicographic order; each permutation drops the rows
    whose sorted image is lexicographically smaller, so the survivors are the
    lex-minimal forms, still in lexicographic order.  One that fixes every
    vertex of `others`, such as the identity, can drop no row and is skipped.
    """
    count = math.comb(len(others), k)
    rows = np.fromiter(
        chain.from_iterable(combinations(others, k)), dtype=np.intp, count=count * k
    ).reshape(count, k)
    for p in perms:
        if all(p[v] == v for v in others):
            continue
        image = np.asarray(p, dtype=np.intp)[rows]
        image.sort(axis=1)
        lower = np.zeros(len(rows), dtype=bool)
        equal = np.ones(len(rows), dtype=bool)
        for j in range(k):
            lower |= equal & (image[:, j] < rows[:, j])
            equal &= image[:, j] == rows[:, j]
        rows = rows[~lower]
    return rows
