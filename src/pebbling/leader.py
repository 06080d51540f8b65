"""Upper-level engine: largest r-unsolvable configuration with support in S.

The size-indexed existence predicate E(m) = "some r-unsolvable configuration
of size m with support within S exists" is monotone downward (removing a
pebble keeps a configuration unsolvable), so a single failed probe at the
lower cut proves infeasibility, and a binary search finds the maximum
feasible size.  A lower cut above the support's capacity sum(2^dist - 1)
is Infeasible before any frontier is read or built.

Per-size search enumerates compositions over the support, restricted by
per-vertex solvability caps (2^dist - 1), and prunes with:
  - pairwise frontiers: for each support pair u before v in sup order and
    each count a on u, the exact threshold on v where the cheap accepts
    prove the two stacks solvable, probed here on first use and kept in the
    engine's frontier table; each placed stack then caps every later vertex
    by table lookup.  One direction suffices, as the search places the
    vertices in sup order and caps only those not yet placed,
  - capacity windows over remaining vertices, further tightened by what the
    two largest placed stacks can merge onto each remaining vertex,
  - learned dominance cores: solvable configurations pruning their entire
    pointwise up-set (supersets of solvable configurations are solvable).
    Cores live in a bitset index: ok[j][a] marks the cores needing at most
    a pebbles on sup[j], a prefix mask ANDs the rows of the placed stacks,
    and a suffix mask marks the cores that need nothing further on, so
    each dominance test is two ANDs,
  - lex-leader symmetry breaking: with G_S the automorphisms that fix r and
    map S onto itself, only compositions that are lexicographically largest
    (in sup order) in their G_S-orbit are searched.  Each path carries the
    elements whose image still ties with it on the decided positions, and a
    placement is dropped as soon as one image is larger.  A leaf needs no
    last comparison.  x is 0 on the positions left unplaced.  Let p be a
    tied element's first position not yet compared: if pi[p] is unplaced,
    the image holds 0 there; otherwise p is unplaced, and the chain pi[p],
    pi[pi[p]], ... runs through compared positions, where x equals its
    image, until it meets an unplaced one, so the image holds 0 as well.
    So no image is larger at p, and the next position repeats the argument.

The prunes are sound together.  Solvability, the caps and the sizes are
G_S-invariant, so every image of a witness is a witness, and every prune
but the last removes only solvable configurations; the lex-largest image
of any witness therefore survives them all, and E(m) keeps its answer.
The enumeration runs in descending lexicographic order, so the first
witness it meets is the largest of its orbit, and the last prune never
changes which witness is returned.  r's stabilizer is listed once per
engine.  One larger than STABILIZER_LIMIT is not listed, and the search
runs without symmetry; that stays sound, as any subset of G_S gives sound
constraints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .configurations import Configuration
from .follower import FollowerEngine, engine_for
from .graphs import Graph
from .symmetry import automorphisms

CORE_LIMIT = 400
STABILIZER_LIMIT = 1_000  # a larger root stabilizer is not listed, and nothing is pruned by it


def check_bounds(lower: int, upper: int | None):
    """The size window every instance needs: L >= 1 and, with a U, L <= U."""
    if lower < 1:
        raise ValueError(f"need L >= 1, got L={lower}")
    if upper is not None and lower > upper:
        raise ValueError(f"need L <= U, got L={lower}, U={upper}")


@dataclass(frozen=True)
class BilevelInstance:
    graph: Graph
    root: int
    support: tuple[int, ...]
    lower: int = 1
    upper: int | None = None  # None: capacity default sum(2^dist - 1)

    def __post_init__(self):
        g, r = self.graph, self.root
        if not 0 <= r < g.n:
            raise ValueError(f"root {r} out of range")
        if r in self.support:
            raise ValueError("root may not belong to the support")
        if any(not 0 <= v < g.n for v in self.support):
            raise ValueError("support vertex out of range")
        check_bounds(self.lower, self.upper)
        object.__setattr__(self, "support", tuple(sorted(set(self.support))))


@dataclass
class BilevelOutcome:
    status: str  # Infeasible | Optimal | TimedOut
    value: int | None
    witness: Configuration | None
    elapsed: float
    nodes: int


class _Search:
    """One instance's enumeration state: engine, caps, pair frontiers, cores, G_S."""

    def __init__(self, inst: BilevelInstance, deadline: float | None):
        g, r = inst.graph, inst.root
        self.eng: FollowerEngine = engine_for(g, r)
        self.D = g.distance_table.dist
        d = self.D[r]
        self.n = g.n
        self.wt = self.eng.wt
        self.scale = self.eng.scale
        # big stacks first: far vertices carry the discriminating mass
        self.sup = sorted(inst.support, key=lambda v: (-d[v], v))
        self.caps = [self.eng.caps[v] for v in self.sup]
        s = len(self.sup)
        # dominance index; bit c stands for the c-th learned core
        self.ncores = 0
        self.ok = [[0] * (c + 1) for c in self.caps]
        self.pre = [-1] * (s + 1)  # pre[i]: cores within q on sup[:i]
        self.suf = [0] * (s + 1)  # suf[i]: cores needing nothing on sup[i:]
        self.nodes = 0
        self.deadline = deadline
        self.cut = self._pair_frontiers()
        if self.eng.stab is None:
            try:
                self.eng.stab = automorphisms(g, r, STABILIZER_LIMIT)
            except ValueError:  # any subset of the group prunes soundly
                self.eng.stab = []
        self.sym = self._setwise_stabilizer()

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError("leader deadline elapsed")

    def _pair_frontiers(self):
        """cut[i][a][j]: the cap on sup[j] once sup[i] holds a pebbles, for
        j > i only (caps[j] elsewhere), as rec caps only the positions after a
        placed stack.  fronts[u * n + v], u = sup[i] and v = sup[j], holds fwd
        with fwd[a] = cut[i][a][j].  A pair the table lacks is probed down the
        staircase: the least b on v that the cheap accepts solve next to a on u
        never rises with a, and fwd[a] is one less (caps[v] where no b does).
        It is stored once complete, counted as one node, then the clock read."""
        sup, caps, eng, n = self.sup, self.caps, self.eng, self.n
        cut = [[list(caps) for _ in range(c + 1)] for c in caps]
        for i, u in enumerate(sup):
            for j in range(i + 1, len(sup)):
                v = sup[j]
                fwd = eng.fronts[u * n + v]
                if fwd is None:
                    fwd, b, probe = [], caps[j] + 1, [0] * n
                    for a in range(caps[i] + 1):
                        probe[u] = a
                        while b > 0:
                            probe[v] = b - 1
                            if not eng.decide_cheap(probe):
                                break
                            b -= 1
                        fwd.append(b - 1)
                    eng.fronts[u * n + v] = fwd
                    self.nodes += 1
                    self.check_time()
                for a, c in enumerate(fwd):
                    cut[i][a][j] = c
        return cut

    def _setwise_stabilizer(self):
        """G_S, the elements of r's stabilizer that map S onto itself, as
        comparison schedules; the identity and elements acting alike on S are
        left out.  Each element moves the composition x (by sup position) to
        an image y with y[p] = x[pi[p]], where pi is the inverse of its
        position permutation; G_S is a group, so the set of pi is the set of
        its position permutations.  Entry p of a schedule is (ready, sup[p],
        sup[pi[p]]), where ready = max(p, pi[p]) is the position whose
        placement decides both; a last entry with ready = s never becomes
        ready.  Each schedule comes with its first moved position, where
        comparison starts."""
        sup, s = self.sup, len(self.sup)
        pos = {v: i for i, v in enumerate(sup)}
        perms = {
            tuple(pos[p[v]] for v in sup)
            for p in self.eng.stab
            if all(p[v] in pos for v in sup)
        }
        perms.discard(tuple(range(s)))
        sym = []
        for pi in perms:
            sched = [(max(p, j), sup[p], sup[j]) for p, j in enumerate(pi)]
            sched.append((s, None, None))
            sym.append((sched, next(p for p, j in enumerate(pi) if p != j)))
        return sym

    def learn_core(self, items):
        """Record a solvable configuration, pointwise-minimized under the cheap
        accepts; its up-set can never hold a witness.

        The core lies within q on the current path, so its bit joins every
        prefix mask on the stack and prunes from the next placement on.
        items come in sup order, farthest first, and minimize in that order;
        a core is never all zero, as the empty probe weighs below the scale."""
        if self.ncores >= CORE_LIMIT:
            return
        core = dict(items)
        probe = [0] * self.n
        for v, a in items:
            probe[v] = a
        for v, hi in items:
            lo = 0
            while lo < hi:
                mid = (lo + hi) // 2
                probe[v] = mid
                if self.eng.decide_cheap(probe):
                    hi = mid
                else:
                    lo = mid + 1
            core[v] = probe[v] = lo
        bit = 1 << self.ncores
        self.ncores += 1
        last = 0
        for j, v in enumerate(self.sup):
            need = core.get(v, 0)
            if need:
                last = j + 1
            row = self.ok[j]
            for a in range(need, len(row)):
                row[a] |= bit
        for i in range(len(self.pre)):
            self.pre[i] |= bit
        for i in range(last, len(self.suf)):
            self.suf[i] |= bit

    def find_witness(self, m: int) -> dict[int, int] | None:
        """Exhaustive-up-to-sound-prunes search for an unsolvable size-m config."""
        q = [0] * self.n
        sup, caps, cut = self.sup, self.caps, self.cut
        s = len(sup)
        wt, scale = self.wt, self.scale
        eng = self.eng
        D = self.D
        ok, pre, suf = self.ok, self.pre, self.suf

        def still_tied(tied, i):
            """The tied elements once sup[i] is placed, each with its first
            position not yet compared; None once one shows a larger image."""
            kept = []
            for sched, p in tied:
                ready, u, w = sched[p]
                while ready <= i:
                    a, b = q[u], q[w]
                    if a != b:
                        if b > a:
                            return None
                        break
                    p += 1
                    ready, u, w = sched[p]
                else:
                    kept.append((sched, p))
            return kept

        def rec(i: int, rem: int, W: int, pcap, top, tied) -> dict[int, int] | None:
            """pcap[j] (j >= i): caps[j] cut by every placed stack's pair
            frontier; top: (u1, y1, u2, y2), the two largest placed stacks,
            the earlier placement first on ties, where zero-height stacks on
            sup[0] stand in until two are placed; tied: the elements of G_S
            whose image equals x on every position compared so far."""
            self.nodes += 1
            self.check_time()
            if rem == 0:
                placed = [(v, q[v]) for v in sup if q[v]]
                if W >= scale and eng.decide(q, 1, self.deadline):
                    self.learn_core(placed)
                    return None
                return dict(placed)
            # the two largest placed stacks merged onto vj tighten its cap;
            # merged onto r they add nothing, as each lies within its cap
            u1, y1, u2, y2 = top
            D1, D2 = D[u1], D[u2]
            tcaps = []
            for j in range(i, s):
                vj = sup[j]
                c = caps[j] - (y1 >> D1[vj]) - (y2 >> D2[vj])
                if pcap[j] < c:
                    c = pcap[j]
                tcaps.append(c if c > 0 else 0)
            total = sum(tcaps)
            if rem > total:
                return None
            v = sup[i]
            row, cuts = ok[i], cut[i]
            hi = min(tcaps[0], rem)
            lo = max(0, rem - (total - tcaps[0]))
            for y in range(hi, lo - 1, -1):
                # pre[i] is reread: a core learned below joins it
                pre[i + 1] = mask = pre[i] & row[y]
                if y and mask & suf[i + 1]:
                    continue
                q[v] = y
                below_tied = still_tied(tied, i) if tied else tied
                if below_tied is None:
                    res = None
                elif y == 0:
                    res = rec(i + 1, rem, W, pcap, top, below_tied)
                else:
                    if y > y1:
                        below_top = (v, y, u1, y1)
                    elif y > y2:
                        below_top = (u1, y1, v, y)
                    else:
                        below_top = top
                    below_cap = list(map(min, pcap, cuts[y]))
                    res = rec(i + 1, rem - y, W + y * wt[v], below_cap, below_top, below_tied)
                q[v] = 0
                if res is not None:
                    return res
            return None

        return rec(0, m, 0, caps, (sup[0], 0, sup[0], 0), self.sym)


def max_unsolvable(inst: BilevelInstance, deadline: float | None = None) -> BilevelOutcome:
    """Solve the bilevel program: Infeasible, or the maximum size with witness.

    The follower enters only as a boolean unsolvability oracle because the
    root-sink constraint pins its optimal value to zero on any witness.
    Past deadline (a time.monotonic() value) the outcome is TimedOut.
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

    lower = inst.lower
    upper = sum(eng.caps[v] for v in inst.support)
    if inst.upper is not None:
        upper = min(upper, inst.upper)
    if lower > upper:
        return result("Infeasible")
    # building the search probes missing pair frontiers under the deadline
    try:
        search = _Search(inst, deadline)
        best = search.find_witness(lower)
        if best is None:
            # monotone E: no witness at the lower cut rules out every larger size
            return result("Infeasible")
        lo, hi = lower, upper
        while lo < hi:
            mid = (lo + hi + 1) // 2
            found = search.find_witness(mid)
            if found is not None:
                best, lo = found, mid
            else:
                hi = mid - 1
    except TimeoutError:
        return result("TimedOut")

    witness = Configuration.from_map(inst.graph.n, best)
    if eng.decide(witness.counts):
        raise AssertionError("witness certification failed: follower solved it")
    return result("Optimal", value=lo, witness=witness)


def pi_support(g: Graph, r: int, support, deadline: float | None = None) -> int:
    """π_S(G, r): least m such that every size-m configuration over S solves r."""
    support = tuple(sorted(set(support)))
    if not support:
        return 1  # only the empty configuration exists, and it is unsolvable
    outcome = max_unsolvable(BilevelInstance(g, r, support), deadline)
    if outcome.status == "TimedOut":
        raise TimeoutError(f"pi_support timed out after {outcome.elapsed:.1f}s")
    if outcome.status != "Optimal":
        raise AssertionError("E(1) must hold for a nonempty support")
    return outcome.value + 1
