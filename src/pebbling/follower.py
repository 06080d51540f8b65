"""Lower-level engine: maximum pebbles deliverable to a root, with certificates.

The engine answers "can this configuration move t pebbles onto r" exactly.
Moves out of r are never taken and delivered counts are arrivals at r only:
r is a sink.

Layered decision procedure, sound at every layer:
  1. greedy collapse and stack-merge accepts (constructive move witnesses);
     the collapse is one farthest-first pass; the merge accept first checks
     the sum of the single-source floors, then tries, for each pair of stack
     vertices, only the meeting vertices that no earlier vertex matches on
     all three distances, from a per-pair meeting table built on first use,
  2. exhaustive depth-first search over all weight-feasible moves, with a
     per-goal dead set of residual configurations known to fail; it tries
     each vertex's moves nearest-first and stops its move list at the first
     move below the weight bound, and returns the winning move path, which
     is the certificate of every delivered count.
Layer 1 only ever claims "solvable"; layer 2 is complete.  decide runs
both; max_deliverable runs only layer 2, one search per goal, and keeps the
path of the last goal it reaches.

One engine per (graph, root) lives as long as its graph and shares across
calls its dead sets (decide's and max_deliverable's alike) and its meeting
table.  It also holds two tables that the leader fills on first use and
reuses across instances: the frontier table, with the leader's one-way pair
frontier of the cheap accepts for each pair of support vertices, and r's
stabilizer in the automorphism group.  A deadline belongs to one call.
bfs_oracle is the reference checker that re-verifies answers independently.
"""

from __future__ import annotations

import sys
import time
import weakref
from dataclasses import dataclass

from .configurations import Configuration
from .graphs import Arc, Graph

DEAD_SET_LIMIT = 2_000_000  # entries per dead set before it is cleared; bounds memory


class OracleBudgetError(RuntimeError):
    """bfs_oracle exceeded its configuration budget (test-only signal)."""


@dataclass
class DeliveryResult:
    """Optimal delivered count with a legal move sequence that realizes it."""

    delivered: int
    moves: list[Arc]


class FollowerEngine:
    """Exact solvability and delivery decisions for one (graph, root) pair."""

    def __init__(self, g: Graph, r: int):
        if not 0 <= r < g.n:
            raise ValueError(f"root {r} out of range")
        self.r = r
        self.n = g.n
        self.D = g.distance_table.dist
        self.d = self.D[r]
        ecc = max(self.d)
        self.wt = [1 << (ecc - dv) for dv in self.d]
        self.scale = 1 << ecc
        self.caps = [(1 << dv) - 1 for dv in self.d]  # most pebbles v holds unsolved alone
        # branching order: heads closer to r first, index ascending on ties
        moves = [sorted(g.adjacency[u], key=lambda w: (self.d[w], w)) for u in range(self.n)]
        # the collapse's order: v != r farthest first, with its neighbours nearer r (one or more)
        far = sorted((v for v in range(self.n) if v != r), key=lambda v: -self.d[v])
        self.downhill = [(v, [w for w in moves[v] if self.d[w] < self.d[v]]) for v in far]
        # the DFS's moves out of each u != r, as (head, weight change), in that order
        self.steps = [
            (u, [(w, self.wt[w] - 2 * self.wt[u]) for w in moves[u]])
            for u in range(self.n) if u != r
        ]
        self.calls = 0
        self.dfs_nodes = 0
        self._dead: dict[int, set] = {}
        self._meet: list[list | None] = [None] * (self.n * self.n)
        # the leader's one-way pair frontiers, by u * n + v with u first in its order
        self.fronts: list[list[int] | None] = [None] * (self.n * self.n)
        # r's stabilizer as image tuples; the leader lists it, as only it holds the graph
        self.stab: list[tuple[int, ...]] | None = None

    # ----- cheap sound accepts (True => solvable; False => unknown) -----

    def _accept_collapse(self, q0, goal) -> bool:
        """Move half of each stack onto its fullest neighbour nearer r, the
        first on ties, in one farthest-first pass.  v receives only from
        farther vertices, which come earlier, so no v != r ends with two
        pebbles and a second pass would move nothing."""
        q = list(q0)
        for v, down in self.downhill:
            if q[v] > 1:
                q[max(down, key=q.__getitem__)] += q[v] >> 1
                q[v] &= 1
        return q[self.r] >= goal

    def _meeting(self, u: int, v: int):
        """Meeting vertices worth trying for stacks on u and v, as
        (w, D[u][w], D[v][w], D[w][r]) in index order; built on first use.

        A w that some earlier w' matches or beats on all three distances
        never merges strictly better than w', so dropping it keeps the first
        best meeting vertex of every merge.  w = u always stays, as only u
        is at distance 0 from u, so no row is empty.
        """
        D, r = self.D, self.r
        row = []
        for w in range(self.n):
            du, dv, dr = D[u][w], D[v][w], D[w][r]
            if not any(a <= du and b <= dv and c <= dr for _, a, b, c in row):
                row.append((w, du, dv, dr))
        self._meet[u * self.n + v] = row
        return row

    def _accept_merge(self, q, goal) -> bool:
        """Greedy chain of pairwise stack merges at best meeting vertices."""
        D, r, n, meet = self.D, self.r, self.n, self._meet
        stacks = [[v, c] for v, c in enumerate(q) if c and v != self.r]
        base = q[self.r]
        while True:
            if base + sum(c >> D[v][r] for v, c in stacks) >= goal:
                return True
            if len(stacks) < 2:
                return False
            # best merge: most pebbles onward to r, then most at w; first wins.
            # Every stack holds a pebble and every row holds w = u, so one is found
            bk = bm = -1
            for i in range(len(stacks)):
                u, a = stacks[i]
                for j in range(i + 1, len(stacks)):
                    v, b = stacks[j]
                    row = meet[u * n + v] or self._meeting(u, v)
                    for w, du, dv, dr in row:
                        m = (a >> du) + (b >> dv)
                        if m:
                            k = m >> dr
                            if k > bk or k == bk and m > bm:
                                bk, bm, bi, bj, bw = k, m, i, j, w
            stacks = [stacks[k] for k in range(len(stacks)) if k not in (bi, bj)]
            stacks.append([bw, bm])

    def _accepts(self, q, goal) -> bool:
        """Layer 1 in cost order; True means solvable."""
        return self._accept_collapse(q, goal) or self._accept_merge(q, goal)

    # ----- exact layer -----

    def _dfs(self, q, W, goal, dead, path, deadline) -> bool:
        """Complete search over weight-feasible moves; q mutated in place.

        On success the winning moves are appended to path as the recursion
        unwinds, so path holds them last move first.  A deadline (monotonic
        seconds, or None) is polled every 4096 nodes.
        """
        try:
            key = bytes(q)
        except ValueError:  # a count above 255
            key = tuple(q)
        if key in dead:
            return False
        self.dfs_nodes += 1
        if deadline is not None and self.dfs_nodes % 4096 == 0:
            if time.monotonic() > deadline:
                raise TimeoutError("follower deadline elapsed")
        r, target, dfs = self.r, goal * self.scale, self._dfs
        for u, steps in self.steps:
            if q[u] < 2:
                continue
            for w, dw in steps:
                nW = W + dw
                # heads come nearest r first, so dw never rises along steps:
                # once one move falls below the target, every later one does
                if nW < target:
                    break
                if w == r and q[r] + 1 >= goal:
                    path.append(Arc(u, w))
                    return True
                q[u] -= 2
                q[w] += 1
                ok = dfs(q, nW, goal, dead, path, deadline)
                q[u] += 2
                q[w] -= 1
                if ok:
                    path.append(Arc(u, w))
                    return True
        if len(dead) > DEAD_SET_LIMIT:
            dead.clear()
        dead.add(key)
        return False

    def _start(self, counts, t):
        """Prologue of every public call: counts -> (q, goal, W)."""
        self.calls += 1
        q = list(counts)
        return q, q[self.r] + t, sum(c * self.wt[v] for v, c in enumerate(q) if c)

    def _search(self, q, W, goal, path, deadline) -> bool:
        """The exact search, on the dead set this engine keeps for goal."""
        dead = self._dead.setdefault(goal, set())
        return _with_recursion_room(sum(q), self._dfs, q, W, goal, dead, path, deadline)

    def decide(self, counts, t: int = 1, deadline: float | None = None) -> bool:
        """Exact: can t pebbles arrive at r (on top of any already there)?

        Raises TimeoutError when the search polls the monotonic clock past
        deadline; the dead set keeps only configurations whose search finished.
        """
        q, goal, W = self._start(counts, t)
        if t <= 0:
            return True
        if W < goal * self.scale:
            return False
        return self._accepts(q, goal) or self._search(q, W, goal, [], deadline)

    def decide_cheap(self, counts) -> bool:
        """Sound accept-only check of one arrival: True solvable, False unknown."""
        q, goal, W = self._start(counts, 1)
        return W >= goal * self.scale and self._accepts(q, goal)

    def trace(self, counts, t: int = 1, deadline: float | None = None) -> list[Arc] | None:
        """Exact search returning a legal move sequence with t arrivals, or None.

        It shares decide's dead sets: a configuration enters one only after
        every move from it failed, so the first path found never depends on
        what the set holds.  A deadline acts as in decide.
        """
        q, goal, W = self._start(counts, t)
        if t <= 0:
            return []
        if W < goal * self.scale:
            return None
        path: list[Arc] = []
        return path[::-1] if self._search(q, W, goal, path, deadline) else None


def _with_recursion_room(size: int, search, *args):
    """search(*args) under a recursion limit that fits a search size moves
    deep; the interpreter's old limit comes back on return and on raise."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 2 * size + 200))
    try:
        return search(*args)
    finally:
        sys.setrecursionlimit(old)


def check_time_cap(cap: float | None):
    """A cap not > 0 (NaN included) would time out every attempt: ValueError."""
    if cap is not None and not cap > 0:
        raise ValueError(f"time cap must be > 0 seconds, got {cap}")


def deadline_in(cap: float | None) -> float | None:
    """The time.monotonic() deadline cap seconds from now; None without a cap.
    A cap that check_time_cap rejects raises ValueError."""
    check_time_cap(cap)
    return None if cap is None else time.monotonic() + cap


_ENGINES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # graph -> {root: engine}


def engine_for(g: Graph, r: int) -> FollowerEngine:
    """The engine of (g, r): the same one while g lives, so dead sets persist
    across calls, and freed with g."""
    engines = _ENGINES.setdefault(g, {})
    eng = engines.get(r)
    if eng is None:
        eng = engines[r] = FollowerEngine(g, r)
    return eng


def max_deliverable(
    g: Graph, p: Configuration, r: int, deadline: float | None = None
) -> DeliveryResult:
    """Optimal number of pebbles movable into r, with a move certificate.

    One exact search per goal: the path of the last goal reached is the
    certificate, and the weight bound ends the climb.  Past deadline
    (monotonic seconds) it raises TimeoutError.
    """
    eng = engine_for(g, r)
    best, moves = 0, []
    while (path := eng.trace(p.counts, best + 1, deadline)) is not None:
        best, moves = best + 1, path
    return DeliveryResult(delivered=best, moves=moves)


def bfs_oracle(g: Graph, p: Configuration, r: int, budget: int = 5_000_000) -> int:
    """Independent exhaustive maximum of pebbles movable into r.

    Explores the whole reachable configuration space (moves out of r
    excluded, matching the root-sink rule) with memoization; used as the
    testing oracle for the engine.  Raises OracleBudgetError beyond budget.
    """
    n = g.n
    start = tuple(p.counts)
    memo: dict[tuple, int] = {}
    adjacency = g.adjacency

    def best(q: tuple) -> int:
        got = memo.get(q)
        if got is not None:
            return got
        if len(memo) > budget:
            raise OracleBudgetError(f"bfs_oracle exceeded {budget} configurations")
        top = q[r]
        lst = list(q)
        for u in range(n):
            if lst[u] < 2 or u == r:
                continue
            for w in adjacency[u]:
                lst[u] -= 2
                lst[w] += 1
                val = best(tuple(lst))
                lst[u] += 2
                lst[w] -= 1
                if val > top:
                    top = val
        memo[q] = top
        return top

    return _with_recursion_room(sum(start), best, start) - p[r]
