from __future__ import annotations

import gc
import hashlib
import random
import sys
import time
import weakref

import pytest

from pebbling.configurations import Configuration, apply_move
from pebbling.follower import (
    FollowerEngine,
    OracleBudgetError,
    bfs_oracle,
    engine_for,
    max_deliverable,
)
from pebbling.graphs import Graph, catalog, load_edge_list
from pebbling.symmetry import vertex_orbits


def _replay(p, moves):
    """The configuration after playing moves on p; apply_move raises on an illegal one."""
    for a in moves:
        p = apply_move(p, a)
    return p


def _is_solvable(g, p, r) -> bool:
    return p[r] >= 1 or engine_for(g, r).decide(p.counts)


def test_solvable_basics():
    g = catalog("path:3")
    assert _is_solvable(g, Configuration([0, 0, 4]), 0)
    assert not _is_solvable(g, Configuration([0, 0, 3]), 0)
    assert _is_solvable(g, Configuration([1, 0, 0]), 0)
    assert _is_solvable(g, Configuration([0, 2, 0]), 0)


def test_max_deliverable_path():
    g = catalog("path:3")
    res = max_deliverable(g, Configuration([0, 0, 9]), 0)
    assert res.delivered == 2
    assert _replay(Configuration([0, 0, 9]), res.moves)[0] == 2


def test_max_deliverable_counts_arrivals_not_root_stock():
    g = catalog("path:2")
    res = max_deliverable(g, Configuration([3, 5], ), 0)
    assert res.delivered == 2  # arrivals only; the 3 already on r do not count
    assert all(a.tail != 0 for a in res.moves)
    assert _replay(Configuration([3, 5]), res.moves)[0] == 5


def test_max_deliverable_never_moves_out_of_root():
    g = catalog("path:3")
    res = max_deliverable(g, Configuration([4, 0, 0]), 0)
    assert res.delivered == 0
    assert res.moves == []


def test_lemke1_has_unsolvable_size7():
    # a maximum unsolvable configuration for root 0: adding any pebble solves it
    g = catalog("lemke1")
    p = Configuration([0, 0, 3, 1, 1, 1, 0, 1])
    assert not _is_solvable(g, p, 0)
    assert max_deliverable(g, p, 0).delivered == 0
    for u in range(g.n):
        q = list(p)
        q[u] += 1
        assert _is_solvable(g, Configuration(q), 0)


def test_delivery_result_replays_legally():
    g = catalog("cube:3")
    p = Configuration([0, 3, 2, 0, 5, 0, 1, 6])
    res = max_deliverable(g, p, 0)
    assert len(res.moves) <= sum(p.counts)
    assert all(a.tail != 0 for a in res.moves)
    assert _replay(p, res.moves)[0] - p[0] == res.delivered


def test_decide_monotone_in_pebbles():
    g = catalog("cycle:5")
    eng = engine_for(g, 0)
    base = [0, 0, 3, 1, 0]
    assert not eng.decide(base)
    more = [0, 0, 4, 1, 0]
    assert eng.decide(more)


def test_engine_rejects_bad_root():
    with pytest.raises(ValueError):
        FollowerEngine(catalog("path:3"), 5)


def test_bfs_oracle_examples():
    g = catalog("path:3")
    assert bfs_oracle(g, Configuration([0, 0, 9]), 0) == 2
    assert bfs_oracle(g, Configuration([0, 0, 3]), 0) == 0
    assert bfs_oracle(g, Configuration([2, 0, 4]), 0) == 1  # root stock never moves


def test_bfs_oracle_budget_error():
    g = catalog("cube:3")
    with pytest.raises(OracleBudgetError):
        bfs_oracle(g, Configuration([0, 9, 9, 9, 9, 9, 9, 9]), 0, budget=50)


def test_engine_matches_oracle_on_random_configs():
    rng = random.Random(5)
    for spec in ["path:4", "cycle:5", "lemke1"]:
        g = catalog(spec)
        for _ in range(40):
            counts = [0] * g.n
            for _ in range(rng.randint(0, 7)):
                counts[rng.randrange(g.n)] += 1
            p = Configuration(counts)
            r = rng.randrange(g.n)
            best = bfs_oracle(g, p, r)
            assert max_deliverable(g, p, r).delivered == best
            # max_deliverable runs no cheap accept; decide runs them all
            for t in (best, best + 1):
                if t >= 1:
                    assert FollowerEngine(g, r).decide(p.counts, t) == (t <= best)


def test_engine_for_caches_per_graph_and_root():
    g = catalog("path:3")
    assert engine_for(g, 0) is engine_for(g, 0)
    assert engine_for(g, 0) is not engine_for(g, 1)


def test_engines_are_freed_with_their_graph():
    g = catalog("cube:3")
    alive = weakref.ref(g)
    max_deliverable(g, Configuration([0, 3, 2, 0, 5, 0, 1, 6]), 0)
    engine_for(g, 5)
    del g
    gc.collect()
    assert alive() is None


def test_expired_deadline_leaves_no_state_behind():
    # a configuration that needs thousands of DFS nodes on a fresh engine
    g = catalog("product:lemke1,lemke1")
    q = [0] * g.n
    q[28], q[39], q[52] = 11, 9, 16
    eng = FollowerEngine(g, 9)
    with pytest.raises(TimeoutError):
        eng.decide(q, 1, deadline=time.monotonic() - 1)
    assert eng.decide(q, 1) is True
    assert FollowerEngine(g, 9).decide(q, 1) is True


def test_expired_deadline_in_max_deliverable_leaves_no_state_behind():
    # the first goal alone needs 9,311 DFS nodes on a fresh engine
    g = catalog("product:lemke1,lemke1")
    p = Configuration.from_map(g.n, {28: 11, 39: 9, 52: 16})
    with pytest.raises(TimeoutError):
        max_deliverable(g, p, 9, deadline=time.monotonic() - 1)
    assert max_deliverable(g, p, 9) == max_deliverable(catalog("product:lemke1,lemke1"), p, 9)


def test_max_deliverable_runs_one_search_per_goal():
    # the certificate comes from the search that decides the last goal
    g = catalog("product:lemke1,lemke1")
    q = [0] * g.n
    q[28], q[39], q[52] = 11, 9, 16
    res = max_deliverable(g, Configuration(q), 9)
    assert (res.delivered, len(res.moves)) == (1, 32)
    eng = engine_for(g, 9)
    assert eng.dfs_nodes == 9311
    # the dead set of that search is the engine's: a repeat walks only the path
    assert max_deliverable(g, Configuration(q), 9).moves == res.moves
    assert eng.dfs_nodes == 9311 + 32


def test_warm_dead_sets_leave_certificates_unchanged():
    rng = random.Random(17)
    warm = catalog("lemke1")
    for _ in range(60):
        counts = [0] * warm.n
        for _ in range(rng.randint(4, 14)):
            counts[rng.randrange(warm.n)] += 1
        p, r = Configuration(counts), rng.randrange(warm.n)
        assert max_deliverable(warm, p, r).moves == max_deliverable(catalog("lemke1"), p, r).moves


def test_decide_multi_target():
    g = catalog("path:2")
    eng = engine_for(g, 0)
    assert eng.decide([0, 8], 4)
    assert not eng.decide([0, 8], 5)
    assert eng.decide([0, 8], 0)


def _near_frontier_cases(rng, count):
    """Random 6-8 vertex graphs, 10-16 pebbles on 4 vertices, weight just past 1 or 2."""
    cases = []
    while len(cases) < count:
        n = rng.randint(6, 8)
        # a tree of short back-links keeps the graph connected and long
        edges = {(rng.randint(max(0, i - 2), i - 1), i) for i in range(1, n)}
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        d = g.distance_table[0]
        support = rng.sample(range(1, n), 4)
        counts = [0] * n
        for _ in range(rng.randint(10, 16)):
            counts[rng.choice(support)] += 1
        weight = sum(c / (1 << d[v]) for v, c in enumerate(counts))
        if 1 <= weight <= 1.6 or 2 <= weight <= 2.6:
            cases.append((g, Configuration(counts)))
    return cases


def test_engine_matches_oracle_near_the_weight_frontier():
    # the exact DFS must settle every call the cheap accepts leave open
    settled = 0
    for g, p in _near_frontier_cases(random.Random(3), 400):
        best = bfs_oracle(g, p, 0)
        res = max_deliverable(g, p, 0)
        assert res.delivered == best
        assert _replay(p, res.moves)[0] - p[0] == best
        # a fresh engine, larger goal first: dead sets must not leak across goals
        eng = FollowerEngine(g, 0)
        for t in (2, 1):
            nodes = eng.dfs_nodes
            assert eng.decide(p.counts, t) == (best >= t)
            settled += best >= t and eng.dfs_nodes > nodes
    assert settled >= 10


def _all_w_merge_chain(eng, q, goal):
    """The stack-merge accept trying every vertex as the meeting vertex."""
    D, r, n = eng.D, eng.r, eng.n
    stacks = [[v, c] for v, c in enumerate(q) if c and v != r]
    base = q[r]
    while True:
        if base + sum(c >> D[v][r] for v, c in stacks) >= goal:
            return True
        if len(stacks) < 2:
            return False
        best = None
        for i in range(len(stacks)):
            u, a = stacks[i]
            for j in range(i + 1, len(stacks)):
                v, b = stacks[j]
                for w in range(n):
                    m = (a >> D[u][w]) + (b >> D[v][w])
                    if m == 0:
                        continue
                    key = (m >> D[w][r], m)
                    if best is None or key > best[0]:
                        best = (key, i, j, w, m)
        if best is None:
            return False
        _, i, j, w, m = best
        stacks = [stacks[k] for k in range(len(stacks)) if k not in (i, j)]
        stacks.append([w, m])


def test_merge_meeting_table_keeps_every_merge_chain():
    cases = [(g, list(p.counts), 0) for g, p in _near_frontier_cases(random.Random(8), 150)]
    rng = random.Random(9)
    lxl = catalog("product:lemke1,lemke1")
    d = lxl.distance_table[3]
    while len(cases) < 400:
        counts = [0] * lxl.n
        for v in rng.sample([v for v in range(lxl.n) if v != 3], rng.randint(2, 6)):
            counts[v] = rng.randint(1, 1 << d[v])
        if 1 <= sum(c / (1 << d[v]) for v, c in enumerate(counts)) <= 2.6:
            cases.append((lxl, counts, 3))
    decisive = 0
    for g, counts, r in cases:
        eng = engine_for(g, r)
        for goal in (1, 2, 3):
            got = eng._accept_merge(counts, goal)
            assert got == _all_w_merge_chain(eng, counts, goal)
            floors = counts[r] + sum(c >> eng.d[v] for v, c in enumerate(counts) if v != r)
            decisive += got and floors < goal
    assert decisive >= 100


def _p2lemke_cases(rng, count, most):
    """count near-frontier (root, configuration) pairs on P2□Lemke, at most `most` pebbles.

    Roots 0-4 and 6 in turn; one pebble on each of 2-5 vertices at distance
    >= 2, then pebbles on random support vertices until the weight
    p(v)·2^-d(v) reaches a target drawn from 0.8 to 3.0.  Draws over most
    pebbles are redrawn.
    """
    g = catalog("product:path:2,lemke1")
    cases = []
    while len(cases) < count:
        r = (0, 1, 2, 3, 4, 6)[len(cases) % 6]
        d = g.distance_table[r]
        support = rng.sample([v for v in range(g.n) if d[v] >= 2], rng.randint(2, 5))
        counts = [0] * g.n
        for v in support:
            counts[v] = 1
        target = rng.uniform(0.8, 3.0)
        while sum(c / (1 << d[v]) for v, c in enumerate(counts)) < target:
            counts[rng.choice(support)] += 1
        if sum(counts) <= most:
            cases.append((r, Configuration(counts)))
    return cases


def test_dfs_work_and_certificates_are_pinned():
    # any change to the search's move order or pruning moves one of the pins
    g = catalog("product:path:2,lemke1")
    cases = _p2lemke_cases(random.Random(21), 150, 16)
    digest = hashlib.sha256()
    for r, p in cases:
        res = max_deliverable(g, p, r)
        digest.update(repr((res.delivered, [tuple(a) for a in res.moves])).encode())
    assert sum(engine_for(g, r).dfs_nodes for r in {r for r, _ in cases}) == 11144
    assert digest.hexdigest()[:16] == "628af20bc2df7317"


def test_counts_above_255_key_the_dead_sets_exactly():
    p = Configuration.from_map(9, {8: 256})
    res = max_deliverable(catalog("path:9"), p, 0)
    assert (res.delivered, len(res.moves)) == (1, 255)
    assert _replay(p, res.moves)[0] == 1
    p = Configuration.from_map(4, {3: 300})
    res = max_deliverable(catalog("path:4"), p, 0)
    assert res.delivered == 37  # 300 // 8
    assert _replay(p, res.moves)[0] == 37
    # c + 256 pebbles must not share a dead-set key with c: the first call
    # leaves [0, 0, 3, 1, 0] in the goal-1 dead set of the shared engine
    g = catalog("cycle:5")
    assert max_deliverable(g, Configuration([0, 0, 3, 1, 0]), 0).delivered == 0
    p = Configuration([0, 0, 259, 1, 0])
    res = max_deliverable(g, p, 0)
    assert res.delivered == 64
    assert _replay(p, res.moves)[0] == 64


def test_engine_matches_oracle_past_8_vertices():
    g = catalog("product:path:2,lemke1")
    cases = _p2lemke_cases(random.Random(4), 150, 10)
    assert {r for r, _ in cases} == {orbit[0] for orbit in vertex_orbits(g)}
    for r, p in cases:
        res = max_deliverable(g, p, r)
        assert res.delivered == bfs_oracle(g, p, r)
        assert _replay(p, res.moves)[r] - p[r] == res.delivered


def _scrambled_lemke1(tmp_path):
    """lemke1 read from an edge list with scrambled vertex labels."""
    rng = random.Random(6)
    lemke = catalog("lemke1")
    label = list(range(lemke.n))
    rng.shuffle(label)
    path = tmp_path / "scrambled.txt"
    path.write_text(
        f"{lemke.n} {len(lemke.edges)}\n"
        + "".join(f"{label[u]} {label[v]}\n" for u, v in sorted(lemke.edges))
    )
    return load_edge_list(str(path))


def test_step_weight_changes_never_rise(tmp_path):
    # the DFS stops a vertex's step list at the first move below the target
    graphs = [catalog(s) for s in ("lemke1", "cube:4", "product:lemke1,lemke1")]
    for g in graphs + [_scrambled_lemke1(tmp_path)]:
        for r in range(g.n):
            eng = FollowerEngine(g, r)
            assert [u for u, _ in eng.steps] == [u for u in range(g.n) if u != r]
            for _, steps in eng.steps:
                dws = [dw for _, dw in steps]
                assert dws == sorted(dws, reverse=True)


def _invariant_graphs(tmp_path):
    """The graphs the cheap accepts' invariants are checked on."""
    graphs = [catalog(s) for s in ("lemke1", "cube:4", "product:path:2,lemke1")]
    return graphs + [_scrambled_lemke1(tmp_path)]


def _three_round_collapse(g, r, q0, goal):
    """The collapse as up to three farthest-first rounds, stopping at a round
    that moves nothing; the reference for the one-pass accept."""
    q = list(q0)
    d = g.distance_table[r]
    order = sorted((v for v in range(g.n) if v != r), key=lambda v: -d[v])
    for _ in range(3):
        moved = False
        for v in order:
            if q[v] < 2:
                continue
            best = None
            for w in sorted(g.adjacency[v]):
                if d[w] < d[v] and (best is None or q[w] > q[best]):
                    best = w
            if best is None:
                continue
            k = q[v] // 2
            q[v] -= 2 * k
            q[best] += k
            moved = True
        if q[r] >= goal:
            return True
        if not moved:
            break
    return False


def test_one_pass_collapse_equals_three_rounds(tmp_path):
    rng = random.Random(12)
    for g in _invariant_graphs(tmp_path):
        for r in range(g.n):
            eng = FollowerEngine(g, r)
            d = g.distance_table[r]
            for _ in range(40):
                counts = [0] * g.n
                for v in rng.sample(range(g.n), rng.randint(1, 5)):
                    counts[v] = rng.randint(1, 2 << d[v])
                # the goals up to the reference's first failure pin q[r] after the pass
                goal = counts[r] + 1
                while _three_round_collapse(g, r, counts, goal):
                    assert eng._accept_collapse(counts, goal)
                    goal += 1
                assert not eng._accept_collapse(counts, goal)


def test_every_meeting_row_holds_u(tmp_path):
    # so a merge of two nonempty stacks always gathers a pebble somewhere
    for g in _invariant_graphs(tmp_path):
        for r in range(g.n):
            eng = FollowerEngine(g, r)
            for u in range(g.n):
                for v in range(g.n):
                    assert (u, 0) in {(w, du) for w, du, _, _ in eng._meeting(u, v)}


def test_bounded_dead_sets_keep_exact_answers(monkeypatch):
    # a dead set past DEAD_SET_LIMIT is cleared before it grows by one more
    limit = 20
    monkeypatch.setattr("pebbling.follower.DEAD_SET_LIMIT", limit)
    g = catalog("product:path:2,lemke1")
    sizes, cleared = {}, False
    for r, p in _p2lemke_cases(random.Random(7), 60, 10):
        best = bfs_oracle(g, p, r)
        res = max_deliverable(g, p, r)
        assert res.delivered == best
        assert _replay(p, res.moves)[r] - p[r] == best
        eng = engine_for(g, r)
        for t in (best, best + 1):
            if t >= 1:
                assert eng.decide(p.counts, t) == (t <= best)
        for goal, dead in eng._dead.items():
            assert len(dead) <= limit + 1
            cleared |= len(dead) < sizes.get((r, goal), 0)
            sizes[r, goal] = len(dead)
    assert cleared


def test_deep_delivery_raises_the_recursion_limit():
    # 1,500 moves deep: past the interpreter's default limit of 1,000 frames;
    # each search raises the limit only while it runs, timed out or not
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = Configuration([0, 0, 2000])
        res = max_deliverable(catalog("path:3"), p, 0)
        assert sys.getrecursionlimit() == 1000
        with pytest.raises(TimeoutError):
            max_deliverable(catalog("path:3"), p, 0, time.monotonic() - 1)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)
    assert (res.delivered, len(res.moves)) == (500, 1500)
    assert _replay(p, res.moves)[0] == 500
