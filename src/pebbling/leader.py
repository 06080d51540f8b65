"""Upper-level engine: largest r-unsolvable configuration with support in S.

The size-indexed existence predicate E(m) = "some r-unsolvable configuration
of size m with support within S exists" is monotone downward (removing a
pebble keeps a configuration unsolvable), so a single failed probe at the
lower cut proves infeasibility, and the maximum feasible size can be found
by binary search (descending sense) or a linear upward scan (ascending).

Per-size search enumerates compositions over the support, restricted by
per-vertex solvability caps (2^dist - 1), and prunes with:
  - precomputed pairwise frontiers: for each support pair, the exact
    threshold where the cheap accepts prove two stacks solvable; placed
    stacks then cap every remaining vertex by table lookup,
  - capacity windows over remaining vertices, further tightened by what the
    two largest placed stacks can merge onto each remaining vertex,
  - learned dominance cores: solvable configurations pruning their entire
    pointwise up-set (supersets of solvable configurations are solvable).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .configurations import Configuration
from .follower import FollowerEngine, engine_for
from .graphs import Graph

CORE_LIMIT = 400


@dataclass(frozen=True)
class BilevelInstance:
    graph: Graph
    root: int
    support: tuple[int, ...]
    lower: int = 1
    upper: int | None = None  # None: capacity default sum(2^dist - 1)
    sense: str = "descending"
    time_cap: float | None = None

    def __post_init__(self):
        g, r = self.graph, self.root
        if not 0 <= r < g.n:
            raise ValueError(f"root {r} out of range")
        if r in self.support:
            raise ValueError("root may not belong to the support")
        if any(not 0 <= v < g.n for v in self.support):
            raise ValueError("support vertex out of range")
        if self.sense not in ("descending", "ascending"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if self.lower < 1:
            raise ValueError(f"need L >= 1, got L={self.lower}")
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(f"need L <= U, got L={self.lower}, U={self.upper}")
        object.__setattr__(self, "support", tuple(sorted(set(self.support))))


@dataclass
class BilevelOutcome:
    status: str  # Infeasible | Optimal | TimedOut
    value: int | None
    witness: Configuration | None
    elapsed: float
    nodes: int


class _Search:
    """One instance's enumeration state: engine, caps, pair frontiers, cores."""

    def __init__(self, inst: BilevelInstance):
        g, r = inst.graph, inst.root
        self.inst = inst
        self.eng: FollowerEngine = engine_for(g, r)
        self.D = g.distance_table.dist
        self.d = self.D[r]
        self.r = r
        self.n = g.n
        self.wt = self.eng.wt
        self.scale = self.eng.scale
        # big stacks first: far vertices carry the discriminating mass
        self.sup = sorted(inst.support, key=lambda v: (-self.d[v], v))
        self.caps = [(1 << self.d[v]) - 1 for v in self.sup]
        self.cores: list[tuple[tuple[int, int], ...]] = []
        self.nodes = 0
        self.deadline = (
            time.monotonic() + inst.time_cap if inst.time_cap is not None else None
        )
        self.pair = self._pair_frontiers()

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError("leader time cap elapsed")

    def _pair_frontiers(self):
        """pair[i][j][a] = least b making {sup[i]: a, sup[j]: b} provably solvable.

        Frontiers of the cheap accepts, exact and monotone: b >= pair[i][j][a]
        proves the pair solvable, so pair[i][j][a] - 1 caps vertex j under a
        placed (i, a).  Value cap_j + 1 means no b suffices.  Each unordered
        pair is probed once; the transpose is derived by frontier inversion.
        """
        s = len(self.sup)
        pair: list[list[list[int] | None]] = [[None] * s for _ in range(s)]
        if s < 2:
            return pair
        probe = [0] * self.n
        cheap = self.eng.decide_cheap
        for i in range(s):
            for j in range(i + 1, s):
                u, v = self.sup[i], self.sup[j]
                ci, cj = self.caps[i], self.caps[j]
                row = [0] * (ci + 1)
                b = cj + 1
                for a in range(ci + 1):
                    probe[u] = a
                    while b > 0:
                        probe[v] = b - 1
                        if cheap(probe):
                            b -= 1
                        else:
                            break
                    row[a] = b
                probe[u] = probe[v] = 0
                pair[i][j] = row
                inv = [ci + 1] * (cj + 1)
                filled = cj + 1
                for a in range(ci + 1):
                    mb = row[a]
                    if mb < filled:
                        for bb in range(mb, filled):
                            inv[bb] = a
                        filled = mb
                pair[j][i] = inv
                self.nodes += 1
                self.check_time()
        return pair

    def dominates_core(self, q) -> bool:
        for core in self.cores:
            for v, a in core:
                if q[v] < a:
                    break
            else:
                return True
        return False

    def learn_core(self, items):
        """Record a solvable configuration, pointwise-minimized under the cheap
        accepts; its up-set can never hold a witness."""
        if len(self.cores) >= CORE_LIMIT:
            return
        core = dict(items)
        probe = [0] * self.n
        for v, a in items:
            probe[v] = a
        for v in sorted(core, key=lambda v: -self.d[v]):
            lo, hi = 0, core[v]
            while lo < hi:
                mid = (lo + hi) // 2
                probe[v] = mid
                if self.eng.decide_cheap(probe):
                    hi = mid
                else:
                    lo = mid + 1
            core[v] = lo
            probe[v] = lo
        core = {v: a for v, a in core.items() if a > 0}
        if core:
            self.cores.append(tuple(sorted(core.items(), key=lambda t: -t[1])))

    def find_witness(self, m: int) -> dict[int, int] | None:
        """Exhaustive-up-to-sound-prunes search for an unsolvable size-m config."""
        q = [0] * self.n
        sup, caps, pair = self.sup, self.caps, self.pair
        s = len(sup)
        wt, scale = self.wt, self.scale
        eng = self.eng
        D, r = self.D, self.r

        def rec(i: int, rem: int, W: int, items) -> dict[int, int] | None:
            self.nodes += 1
            self.check_time()
            if rem == 0:
                if W < scale:
                    return {v: y for _, v, y in items}
                if eng.decide(q, 1, self.deadline):
                    self.learn_core([(v, y) for _, v, y in items])
                    return None
                return {v: y for _, v, y in items}
            if len(items) >= 2:
                (_, u1, y1), (_, u2, y2) = sorted(items, key=lambda t: -t[2])[:2]
            else:
                u1 = None
            tcaps = []
            for j in range(i, s):
                c = caps[j]
                vj = sup[j]
                for p, _, y in items:
                    b = pair[p][j][y] - 1
                    if b < c:
                        c = b
                if u1 is not None:
                    # two largest placed stacks merged onto vj tighten its cap
                    delta = 0
                    for w in (vj, r):
                        x = ((y1 >> D[u1][w]) + (y2 >> D[u2][w])) >> D[w][vj]
                        if x > delta:
                            delta = x
                    if caps[j] - delta < c:
                        c = caps[j] - delta
                if c < 0:
                    c = 0
                tcaps.append(c)
            total = sum(tcaps)
            if rem > total:
                return None
            v = sup[i]
            hi = min(tcaps[0], rem)
            lo = max(0, rem - (total - tcaps[0]))
            for y in range(hi, lo - 1, -1):
                q[v] = y
                if y and self.cores and self.dominates_core(q):
                    q[v] = 0
                    continue
                below = items + [(i, v, y)] if y else items
                res = rec(i + 1, rem - y, W + y * wt[v], below)
                q[v] = 0
                if res is not None:
                    return res
            return None

        return rec(0, m, 0, [])


def max_unsolvable(inst: BilevelInstance) -> BilevelOutcome:
    """Solve the bilevel program: Infeasible, or the maximum size with witness.

    The follower enters only as a boolean unsolvability oracle because the
    root-sink constraint pins its optimal value to zero on any witness.
    """
    t0 = time.monotonic()
    eng = engine_for(inst.graph, inst.root)
    calls0 = eng.calls
    search = None

    def result(status, value=None, witness=None):
        nodes = search.nodes if search is not None else 0
        return BilevelOutcome(
            status=status,
            value=value,
            witness=witness,
            elapsed=time.monotonic() - t0,
            nodes=nodes + (eng.calls - calls0),
        )

    # building the search already probes pair frontiers under the cap
    try:
        search = _Search(inst)
        lower = inst.lower
        upper = sum(search.caps)
        if inst.upper is not None:
            upper = min(upper, inst.upper)
        if lower > upper:
            return result("Infeasible")
        best = search.find_witness(lower)
        if best is None:
            # monotone E: no witness at the lower cut rules out every larger size
            return result("Infeasible")
        best_size = lower
        if inst.sense == "descending":
            lo, hi = lower, upper
            while lo < hi:
                mid = (lo + hi + 1) // 2
                found = search.find_witness(mid)
                if found is not None:
                    best, best_size, lo = found, mid, mid
                else:
                    hi = mid - 1
            best_size = lo
        else:
            m = lower + 1
            while m <= upper:
                found = search.find_witness(m)
                if found is None:
                    break
                best, best_size = found, m
                m += 1
    except TimeoutError:
        return result("TimedOut")

    witness = Configuration.from_map(inst.graph.n, best)
    if eng.decide(witness.counts):
        raise AssertionError("witness certification failed: follower solved it")
    return result("Optimal", value=best_size, witness=witness)


def pi_support(g: Graph, r: int, support, time_cap: float | None = None) -> int:
    """π_S(G, r): least m such that every size-m configuration over S solves r."""
    support = tuple(sorted(set(support)))
    if not support:
        return 1  # only the empty configuration exists, and it is unsolvable
    inst = BilevelInstance(g, r, support, lower=1, upper=None, time_cap=time_cap)
    outcome = max_unsolvable(inst)
    if outcome.status == "TimedOut":
        raise TimeoutError(f"pi_support timed out after {outcome.elapsed:.1f}s")
    if outcome.status != "Optimal":
        raise AssertionError("E(1) must hold for a nonempty support")
    return outcome.value + 1
