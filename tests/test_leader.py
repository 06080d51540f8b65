from __future__ import annotations

import random
import time
from itertools import combinations, product

import pytest

from pebbling.configurations import Configuration
from pebbling.follower import FollowerEngine, bfs_oracle, engine_for
from pebbling.graphs import Graph, catalog
from pebbling.leader import (
    BilevelInstance,
    BilevelOutcome,
    _Search,
    max_unsolvable,
    pi_support,
)


def test_instance_validation():
    g = catalog("path:3")
    with pytest.raises(ValueError, match="root"):
        BilevelInstance(g, 3, (0,))
    with pytest.raises(ValueError, match="root may not"):
        BilevelInstance(g, 1, (1, 2))
    with pytest.raises(ValueError, match="out of range"):
        BilevelInstance(g, 0, (5,))
    with pytest.raises(ValueError, match="L >= 1"):
        BilevelInstance(g, 0, (1,), lower=0)
    with pytest.raises(ValueError, match="L <= U"):
        BilevelInstance(g, 0, (1,), lower=3, upper=2)


def test_instance_support_and_capacity():
    g = catalog("path:3")
    inst = BilevelInstance(g, 0, (2, 1))
    assert inst.support == (1, 2)


def test_lower_above_capacity_is_infeasible():
    g = catalog("path:3")
    inst = BilevelInstance(g, 0, (1,), lower=10)
    out = max_unsolvable(inst)
    assert out.status == "Infeasible"
    assert out.value is None and out.witness is None
    # L×L root 3, eight vertices whose caps sum to 60: settled before any
    # pair frontier is probed, so neither the leader nor the engine works
    g = catalog("product:lemke1,lemke1")
    eng = engine_for(g, 3)
    calls = eng.calls
    out = max_unsolvable(BilevelInstance(g, 3, (0, 1, 5, 8, 9, 13, 16, 17), lower=64))
    assert (out.status, out.nodes) == ("Infeasible", 0)
    assert eng.calls == calls


def test_path3_single_support():
    g = catalog("path:3")
    out = max_unsolvable(BilevelInstance(g, 2, (0,)))
    assert out.status == "Optimal"
    assert out.value == 3
    assert out.witness.counts == (3, 0, 0)


def test_complete3_max_unsolvable_is_two():
    # one pebble on each non-root vertex leaves no legal move
    g = catalog("complete:3")
    out = max_unsolvable(BilevelInstance(g, 0, (1, 2)))
    assert out.status == "Optimal"
    assert out.value == 2
    assert list(out.witness) == [0, 1, 1]


def test_cube3_infeasible_at_lower_eight():
    g = catalog("cube:3")
    support = tuple(v for v in range(8) if v != 0)[:4]
    out = max_unsolvable(BilevelInstance(g, 0, support, lower=8))
    assert out.status == "Infeasible"


def test_witness_is_unsolvable_and_one_above_fails():
    g = catalog("lemke1")
    support = (1, 3, 5, 7)
    out = max_unsolvable(BilevelInstance(g, 0, support))
    assert out.status == "Optimal"
    eng = engine_for(g, 0)
    assert not eng.decide(out.witness.counts)
    assert set(out.witness.to_map()) <= set(support)
    assert sum(out.witness.counts) == out.value
    # maximality: every configuration of size value + 1 over S is solvable
    for extra in _compositions_over(support, out.value + 1):
        counts = [0] * g.n
        for v, c in extra.items():
            counts[v] = c
        assert eng.decide(counts)


def _compositions_over(support, total):
    if total > 12:
        pytest.skip("exhaustive check only meant for small totals")
    outs = []
    k = len(support)
    for cuts in combinations(range(total + k - 1), k - 1):
        parts = []
        prev = -1
        for c in cuts + (total + k - 1,):
            parts.append(c - prev - 1)
            prev = c
        outs.append({v: p for v, p in zip(support, parts) if p})
    return outs


def test_explicit_upper_truncates():
    g = catalog("path:4")
    full = max_unsolvable(BilevelInstance(g, 0, (3,)))
    assert full.value == 7
    capped = max_unsolvable(BilevelInstance(g, 0, (3,), upper=5))
    assert capped.status == "Optimal"
    assert capped.value == 5


def test_tiny_time_cap_times_out():
    # eight distance-4 vertices force real search work before any verdict
    g = catalog("product:lemke1,lemke1")
    support = (18, 19, 20, 21, 23, 26, 27, 28)
    out = max_unsolvable(BilevelInstance(g, 0, support, lower=64), time.monotonic() + 1e-9)
    assert out.status == "TimedOut"
    assert out.value is None and out.witness is None
    assert out.elapsed < 30


def test_time_cap_during_setup_times_out_and_clears_deadline():
    # twelve support vertices: the pair frontiers alone outlast the cap
    g = catalog("product:lemke1,lemke1")
    inst = BilevelInstance(g, 9, tuple(range(40, 52)), lower=64)
    out = max_unsolvable(inst, time.monotonic() + 1e-6)
    assert out.status == "TimedOut"
    # the expired cap must not reach the next, uncapped search on the engine
    again = max_unsolvable(BilevelInstance(g, 9, tuple(range(40, 52)), lower=64))
    assert again.status != "TimedOut"


def test_outcome_carries_counters():
    g = catalog("path:4")
    out = max_unsolvable(BilevelInstance(g, 0, (1, 2, 3)))
    assert isinstance(out, BilevelOutcome)
    assert out.nodes > 0
    assert out.elapsed >= 0


def test_pi_support_examples():
    g = catalog("path:3")
    assert pi_support(g, 2, (0,)) == 4
    assert pi_support(g, 2, (0, 1)) == 4
    assert pi_support(g, 0, ()) == 1
    k3 = catalog("complete:3")
    assert pi_support(k3, 0, (1, 2)) == 3


def test_pi_support_monotone_in_support():
    g = catalog("lemke1")
    values = {}
    base = (1, 3)
    for support in [base, base + (5,), base + (5, 7)]:
        values[support] = pi_support(g, 0, support)
    assert values[base] <= values[base + (5,)] <= values[base + (5, 7)]


def test_max_unsolvable_agrees_with_exhaustive_small():
    # every connected 4-vertex graph, every root, every support of size <= 2;
    # then 6-vertex graphs with supports of size 3-4, where pair frontiers,
    # the two-stack merge tightening, dominance cores and the lex-leader
    # prune interact
    edges4 = [
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    ]
    edges6 = [
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)],
        [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)],
        [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5)],
    ]
    cases = [(4, edges, (1, 2)) for edges in edges4]
    cases += [(6, edges, (3, 4)) for edges in edges6]
    symmetric = 0  # instances whose lex-leader prune has an element to compare with
    for n, edges, sizes in cases:
        g = Graph(n, edges)
        for r in range(n):
            eng = engine_for(g, r)
            others = [v for v in range(n) if v != r]
            for k in sizes:
                for support in combinations(others, k):
                    best = None
                    caps = [(1 << g.distance_table[r][v]) for v in support]
                    for counts in product(*(range(c + 1) for c in caps)):
                        m = sum(counts)
                        if m == 0:
                            continue
                        q = [0] * n
                        for v, c in zip(support, counts):
                            q[v] = c
                        if not eng.decide(q):
                            best = m if best is None else max(best, m)
                    inst = BilevelInstance(g, r, support)
                    out = max_unsolvable(inst)
                    if best is None:
                        assert out.status == "Infeasible"
                    else:
                        assert out.status == "Optimal"
                        assert out.value == best
                    symmetric += bool(_Search(inst, None).sym)
    # 114 of the 480 instances: cycle:6, the star and K4 among them
    assert symmetric >= 114


# BilevelOutcome.nodes (leader nodes plus follower calls) on fixed instances:
# any change in what the pair frontiers, the two-stack tightening (ties
# included), the dominance cores (CORE_LIMIT included) or the lex-leader
# prune cut moves these counts.
# CUBE3_NODES gives each support a fresh graph, so every pair frontier is
# probed; CUBE3_SHARED_NODES runs the same supports in order on one graph,
# where a pair an earlier support probed costs neither a node nor a call
CUBE3_NODES = [
    10, 13, 10, 13, 14, 19, 13, 10, 14, 13, 19, 14, 17, 17, 23, 13,
    13, 19, 17, 23, 23, 23, 21, 26, 25, 33, 26, 33, 35, 44, 23, 25,
    33, 35, 44, 43, 26, 35, 33, 44, 25, 23, 33, 33, 43, 44, 33, 33,
    43, 38, 48, 48, 33, 44, 44, 48, 38, 52, 51, 62, 37, 36, 50, 48,
    61, 61, 50, 48, 61, 58, 72, 71, 51, 62, 61, 71, 48, 50, 61, 62,
    71, 72, 49, 61, 62, 71, 60, 71, 71, 103, 72,
]
CUBE3_SHARED_NODES = [
    10, 13, 10, 13, 14, 19, 13, 10, 14, 13, 19, 14, 17, 17, 23, 13,
    13, 19, 17, 23, 23, 8, 12, 12, 11, 10, 12, 14, 17, 16, 8, 11,
    10, 17, 16, 16, 12, 17, 14, 16, 11, 8, 10, 15, 16, 16, 15, 15,
    16, 17, 17, 17, 14, 16, 16, 17, 12, 19, 18, 15, 11, 10, 11, 16,
    15, 15, 17, 16, 15, 20, 19, 19, 18, 15, 15, 19, 16, 17, 15, 24,
    19, 19, 16, 15, 15, 19, 22, 19, 19, 46, 19,
]
PINNED = [
    ("lemke1", 0, (1, 2), 3, 13),
    ("lemke1", 0, (3, 4, 5), 5, 42),
    ("lemke1", 0, (1, 3, 5, 7), 6, 54),
    ("lemke1", 0, (1, 2, 3, 4, 5, 6, 7), 7, 303),
    ("cube:4", 0, (1, 2, 4, 8, 15), 15, 106),
    ("cube:4", 0, (3, 5, 6, 9, 10, 12), 10, 135),
    ("cube:4", 0, (7, 11, 13, 14, 15), 15, 598),
    ("cube:4", 0, (1, 2, 4, 7, 8, 11, 13, 14), 12, 564),
    ("cube:4", 0, tuple(range(1, 11)), 10, 835),
    ("cube:4", 0, (4, 6, 8, 9, 11, 13), 10, 223),
    ("cube:4", 0, (2, 3, 5, 11, 14, 15), 15, 410),
    # learns more than CORE_LIMIT cores
    ("product:lemke1,path:2", 0, (4, 5, 6, 7, 8, 10, 11, 15), 13, 11853),
]


def test_leader_node_counts_are_pinned():
    supports = [S for k in (2, 3, 4) for S in combinations(range(1, 8), k)]
    nodes = [max_unsolvable(BilevelInstance(catalog("cube:3"), 0, S)).nodes for S in supports]
    assert nodes == CUBE3_NODES
    g = catalog("cube:3")
    nodes = [max_unsolvable(BilevelInstance(g, 0, S)).nodes for S in supports]
    assert nodes == CUBE3_SHARED_NODES
    for spec, r, support, value, count in PINNED:
        out = max_unsolvable(BilevelInstance(catalog(spec), r, support))
        assert (out.status, out.value, out.nodes) == ("Optimal", value, count), support
    g6 = Graph(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5)])
    out = max_unsolvable(BilevelInstance(g6, 0, (2, 3, 4, 5)))
    assert (out.status, out.value, out.nodes) == ("Optimal", 16, 137)


def test_large_root_stabilizers_are_not_listed():
    # K9's root stabilizer has 8! elements and K11's 10!, past both
    # STABILIZER_LIMIT and MATERIALIZE_LIMIT: the leader prunes without them
    for n in (9, 11):
        t0 = time.monotonic()
        out = max_unsolvable(BilevelInstance(catalog(f"complete:{n}"), 0, tuple(range(1, n))))
        assert (out.status, out.value) == ("Optimal", n - 1)
        assert time.monotonic() - t0 < 0.2


def test_warm_frontier_table_matches_cold():
    # every support of size 2-4 at two roots, on one graph shared by all
    # instances (its table warm from the supports before) and on one whose
    # table a timed-out instance left partial: verdicts, witnesses and pair
    # frontier caps equal those of a fresh graph per instance
    for spec, roots in (("lemke1", (0, 3)), ("cube:4", (0, 5)),
                        ("product:path:2,cycle:4", (0, 5))):
        warm, cut_short = catalog(spec), catalog(spec)
        for r in roots:
            others = tuple(v for v in range(warm.n) if v != r)
            out = max_unsolvable(BilevelInstance(cut_short, r, others), time.monotonic() + 1e-6)
            assert out.status == "TimedOut"
            stored = sum(f is not None for f in engine_for(cut_short, r).fronts)
            assert 0 < stored < len(others) * (len(others) - 1) // 2
            for S in (S for k in (2, 3, 4) for S in combinations(others, k)):
                fresh = BilevelInstance(catalog(spec), r, S)
                cold = max_unsolvable(fresh)
                cold_cut = _Search(fresh, None).cut  # the pairs cold just probed
                for g in (warm, cut_short):
                    out = max_unsolvable(BilevelInstance(g, r, S))
                    assert (out.status, out.value, out.witness) == (
                        cold.status, cold.value, cold.witness), (spec, r, S)
                    assert _Search(BilevelInstance(g, r, S), None).cut == cold_cut, (spec, r, S)


def test_pair_frontiers_lie_within_the_caps():
    # each stored frontier is the exact staircase of the cheap accepts within
    # the caps: {u: a, v: b} is accepted exactly when b > fwd[a], and on the
    # graphs of 8 vertices bfs_oracle delivers a pebble from every such b.
    # No entry is negative, so rec's cap for a lone placed stack is pcap
    lemke = catalog("lemke1")
    label = list(range(lemke.n))
    random.Random(6).shuffle(label)
    scrambled = Graph(lemke.n, [(label[u], label[v]) for u, v in lemke.edges])
    graphs = [catalog(s) for s in ("lemke1", "cube:3", "cube:4", "product:path:2,lemke1")]
    for g in graphs + [scrambled]:
        for r in range(g.n):
            eng = FollowerEngine(g, r)
            d = g.distance_table[r]
            order = sorted((v for v in range(g.n) if v != r), key=lambda v: (-d[v], v))
            fronts = _Search(BilevelInstance(g, r, order), None).eng.fronts
            for u, v in combinations(order, 2):
                fwd = fronts[u * g.n + v]
                assert len(fwd) == eng.caps[u] + 1
                assert all(0 <= c <= eng.caps[v] for c in fwd)
                probe = [0] * g.n
                for a, b in product(range(eng.caps[u] + 1), range(eng.caps[v] + 1)):
                    probe[u], probe[v] = a, b
                    assert eng.decide_cheap(probe) == (b > fwd[a]), (r, u, v, a, b)
                    if g.n <= 8 and b > fwd[a]:
                        assert bfs_oracle(g, Configuration(probe), r) >= 1, (r, u, v, a, b)


def test_learned_cores_are_never_all_zero():
    # an all-zero core would sit in suf[0] and prune every placement
    learned = 0
    for spec, r, support, value, _ in PINNED[3:11]:
        search = _Search(BilevelInstance(catalog(spec), r, support), None)
        for m in range(1, value + 2):
            assert (search.find_witness(m) is None) == (m > value)
        for c in range(search.ncores):
            assert any(not row[0] >> c & 1 for row in search.ok)
        learned += search.ncores
    assert learned > 0
