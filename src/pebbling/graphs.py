"""Immutable simple connected graphs: generators, products, distances.

Vertices are integers 0..n-1.  Every graph is validated at construction
(no loops, no duplicates, connected) and carries an eagerly computed
all-pairs distance table, since every solver call needs distances for
pruning.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterable, NamedTuple


class Arc(NamedTuple):
    """One orientation of an edge; a pebbling move removes 2 at tail, adds 1 at head."""

    tail: int
    head: int


class DistanceTable:
    """Exact hop distances for all vertex pairs of one graph."""

    def __init__(self, dist: tuple[tuple[int, ...], ...]):
        self.dist = dist

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.dist[v]


class Graph:
    """Simple connected undirected graph with precomputed adjacency and distances."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str | None = None):
        pairs = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            pairs.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(pairs)
        self.name = name or f"graph<{n}v,{len(pairs)}e>"
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(pairs):
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(ns)) for ns in adj)
        self.distance_table = _bfs_all_pairs(self.n, self.adjacency)
        self._check_connected()

    def _check_connected(self):
        if any(d < 0 for row in self.distance_table.dist for d in row):
            raise ValueError(f"graph {self.name!r} is disconnected")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self):
        return f"Graph({self.name!r}, n={self.n}, m={len(self.edges)})"


def _bfs_all_pairs(n: int, adjacency) -> DistanceTable:
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return DistanceTable(tuple(rows))


# The 8-vertex Lemke graph, 0-indexed edges.
LEMKE1_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
    (2, 5), (2, 7), (3, 6), (4, 6), (4, 7), (0, 6),
]


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (i, j) flattens row-major to i*|V(h)| + j."""
    nh = h.n
    edges = []
    for i in range(g.n):
        for (u, v) in h.edges:
            edges.append((i * nh + u, i * nh + v))
    for (u, v) in g.edges:
        for j in range(nh):
            edges.append((u * nh + j, v * nh + j))
    return Graph(g.n * nh, edges, name=f"product:{g.name},{h.name}")


def _generator(kind: str, arg: int) -> Graph:
    if kind == "path":
        if arg < 1:
            raise ValueError("path:n requires n >= 1")
        return Graph(arg, [(i, i + 1) for i in range(arg - 1)], name=f"path:{arg}")
    if kind == "cycle":
        if arg < 3:
            raise ValueError("cycle:n requires n >= 3")
        return Graph(arg, [(i, (i + 1) % arg) for i in range(arg)], name=f"cycle:{arg}")
    if kind == "complete":
        if arg < 1:
            raise ValueError("complete:n requires n >= 1")
        return Graph(arg, [(i, j) for i in range(arg) for j in range(i + 1, arg)],
                     name=f"complete:{arg}")
    if kind == "cube":
        if arg < 1:
            raise ValueError("cube:d requires d >= 1")
        n = 1 << arg
        edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(arg) if x < x ^ (1 << b)]
        return Graph(n, edges, name=f"cube:{arg}")
    raise ValueError(f"unknown generator {kind!r}")


def catalog(name: str) -> Graph:
    """Named graphs: lemke1 | path:n | cycle:n | complete:n | cube:d | product:a,b[,c...].

    product folds left over its comma-separated operands.
    """
    name = name.strip()
    if name == "lemke1":
        return Graph(8, LEMKE1_EDGES, name="lemke1")
    if name.startswith("product:"):
        parts = name[len("product:"):].split(",")
        if len(parts) < 2:
            raise ValueError("product needs at least two operands")
        graph = catalog(parts[0])
        for part in parts[1:]:
            graph = cartesian_product(graph, catalog(part))
        return graph
    if ":" in name:
        kind, _, raw = name.partition(":")
        try:
            arg = int(raw)
        except ValueError:
            raise ValueError(f"malformed parameter in {name!r}") from None
        return _generator(kind, arg)
    raise ValueError(f"unknown catalog name {name!r}")


def load_edge_list(path: str) -> Graph:
    """Read `n m` then m lines `u v`; `#` starts a comment; 0-indexed vertices."""
    lines = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}: bad edge line {line!r}")
        pairs.append((int(fields[0]), int(fields[1])))
    return Graph(n, pairs, name=os.path.basename(path))


def parse_graph_spec(spec: str) -> Graph:
    """CLI graph argument: a catalog name, or a path to an edge-list file."""
    try:
        return catalog(spec)
    except ValueError:
        if os.path.exists(spec):
            return load_edge_list(spec)
        raise
