"""End-to-end acceptance suite: one test per headline guarantee.

Every test finishes by printing a single PASS line with its measured
quantities (visible with -s, or in captured output).  The product-graph
fixtures are shared across tests: support-class representatives and
covering designs for all root orbits of lemke1 x lemke1 are built once
per session.  The sampled infeasibility reproduction dominates runtime.
"""

import hashlib
import json
import math
import random
import signal
import subprocess
import sys
import time
from itertools import combinations, permutations, product as iproduct

import pytest

from pebbling.configurations import Configuration, apply_move
from pebbling.covering import CoveringDesign, greedy_cover, validate_cover
from pebbling.follower import FollowerEngine, bfs_oracle, engine_for, max_deliverable
from pebbling.graphs import Graph, catalog
from pebbling.leader import BilevelInstance, max_unsolvable, pi_support
from pebbling.orchestrator import (
    JobPlan,
    PlannedInstance,
    ResultRecord,
    final_records,
    instance_key,
    load_records,
    report,
    run,
    save_plan,
)
from pebbling.pipeline import pi, two_pebbling_witness
from pebbling.symmetry import automorphisms, orbit_representatives, support_class_reps

PRODUCT_SPEC = "product:lemke1,lemke1"
NAIVE_REFERENCE = 38_122_560
CLASS_REFERENCE = 1_880_808
COVER_REFERENCE = 121_512
# root -> (cover sets, sha256 prefix of json.dumps(sets), whether the cover
# still holds without set len // 2, and without set len // 2 + 1) at k 4, c 8;
# a plain set-intersection check gives the same two verdicts
COVER_PINS = {9: (3186, "8abdaf5ff04ee3c8", False, True), 3: (8960, "300cc813b593c36f", True, False)}
COVER_PIN_ALL = (123_068, "c6106d31ca501200")  # all 21 roots, in orbit order


@pytest.fixture(scope="module")
def product_graph():
    return catalog(PRODUCT_SPEC)


@pytest.fixture(scope="module")
def product_group(product_graph):
    return automorphisms(product_graph)


@pytest.fixture(scope="module")
def root_classes(product_graph, product_group):
    g, group = product_graph, product_group
    return {
        r: support_class_reps(g, r, 4, group)
        for r in orbit_representatives(g, group)
    }


@pytest.fixture(scope="module")
def root_covers(root_classes):
    return {
        r: greedy_cover(classes.reps, 8, root=r)
        for r, classes in root_classes.items()
    }


def test_symmetry_reduction_counts_exact(product_graph, product_group, root_classes):
    g = product_graph
    roots = orbit_representatives(g, product_group)
    assert len(roots) == 21
    naive = g.n * math.comb(g.n - 1, 4)
    assert naive == NAIVE_REFERENCE
    class_total = sum(c.class_count for c in root_classes.values())
    assert class_total == CLASS_REFERENCE
    ratio = naive / class_total
    assert round(ratio, 2) == 20.27
    print(
        f"\nPASS symmetry reduction: 21 root orbits, {naive} raw instances, "
        f"{class_total} support classes, ratio {ratio:.2f}"
    )


def test_covering_design_totals_within_tolerance(root_classes, root_covers):
    for r, design in root_covers.items():
        assert validate_cover(design, root_classes[r].reps), f"cover for root {r}"
    total = sum(len(d.sets) for d in root_covers.values())
    drift = (total - COVER_REFERENCE) / COVER_REFERENCE
    assert abs(drift) <= 0.15
    print(
        f"\nPASS covering designs: {total} sets over {len(root_covers)} roots, "
        f"{drift:+.2%} from the {COVER_REFERENCE} reference, all designs validate"
    )


def _digest(covers) -> str:
    h = hashlib.sha256()
    for sets in covers:
        h.update(json.dumps(sets).encode())
    return h.hexdigest()[:16]


def test_covering_designs_pinned(root_classes, root_covers):
    for r, (count, digest, *without) in COVER_PINS.items():
        design, reps = root_covers[r], root_classes[r].reps
        assert (len(design.sets), _digest([design.sets])) == (count, digest), f"root {r}"
        assert validate_cover(design, reps)
        middle = len(design.sets) // 2
        for j, holds in zip((middle, middle + 1), without):
            broken = design.sets[:j] + design.sets[j + 1 :]
            assert validate_cover(CoveringDesign(r, 8, broken), reps) == holds, f"root {r}"
    covers = [d.sets for d in root_covers.values()]
    assert (sum(map(len, covers)), _digest(covers)) == COVER_PIN_ALL
    print(f"\nPASS covering designs pinned: roots 9 and 3, and all {len(covers)} roots")


def test_pebbling_numbers_of_named_graphs():
    t0 = time.perf_counter()
    cases = {
        "path:2": 2,
        "path:3": 4,
        "path:4": 8,
        "path:5": 16,
        "complete:3": 3,
        "complete:4": 4,
        "complete:5": 5,
        "complete:6": 6,
        "cycle:4": 4,
        "cube:3": 8,
        "lemke1": 8,
    }
    for spec, want in cases.items():
        got = pi(catalog(spec))
        assert got == want, f"pi({spec}) = {got}, expected {want}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    print(f"\nPASS pebbling numbers: {len(cases)} known values exact in {elapsed:.2f}s")


def test_two_pebbling_witness_for_lemke_graph():
    t0 = time.perf_counter()
    g = catalog("lemke1")
    found = two_pebbling_witness(g, time.monotonic() + 1700.0)
    assert found is not None
    p, r = found
    value = pi(g)
    assert sum(p.counts) == 2 * value - len(set(p.to_map())) + 1
    delivered = max_deliverable(g, p, r).delivered
    assert delivered + p[r] < 2
    # independent audit of the deficiency
    assert bfs_oracle(g, p, r) + p[r] < 2
    for spec in ("complete:4", "path:3"):
        assert two_pebbling_witness(catalog(spec), time.monotonic() + 1700.0) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    print(
        f"\nPASS two-pebbling deficiency: lemke1 witness size {sum(p.counts)} at root {r} "
        f"delivers {delivered + p[r]} < 2; complete:4 and path:3 clean; {elapsed:.1f}s"
    )


def test_sampled_product_instances_all_infeasible(product_graph, root_covers):
    g = product_graph
    pool = [
        (r, tuple(s))
        for r in sorted(root_covers)
        for s in root_covers[r].sets
    ]
    rng = random.Random(6464)
    order = list(range(len(pool)))
    rng.shuffle(order)
    need, cap, max_attempts = 50, 1800.0, 60
    infeasible = timed_out = 0
    slowest = 0.0
    for idx in order[:max_attempts]:
        r, s = pool[idx]
        out = max_unsolvable(BilevelInstance(g, r, s, lower=64), time.monotonic() + cap)
        if out.status == "Optimal":
            audited = bfs_oracle(g, out.witness, r, budget=200_000_000)
            verdict = (
                "candidate counterexample" if audited == 0 else "engine defect"
            )
            pytest.fail(
                f"r={r} S={s} returned Optimal value {out.value}; "
                f"exhaustive oracle delivers {audited}: {verdict}"
            )
        if out.status == "Infeasible":
            infeasible += 1
            slowest = max(slowest, out.elapsed)
        else:
            timed_out += 1
        if infeasible >= need:
            break
    assert infeasible >= need, (
        f"only {infeasible} Infeasible among {infeasible + timed_out} attempts "
        f"({timed_out} hit the {cap:.0f}s cap)"
    )
    print(
        f"\nPASS sampled infeasibility: {infeasible} sampled instances Infeasible at "
        f"lower bound 64 ({timed_out} timed out and were excluded, "
        f"slowest completion {slowest:.1f}s, per-instance cap {cap:.0f}s)"
    )


def _canonical(n: int, edges) -> tuple:
    best = None
    for perm in permutations(range(n)):
        key = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or key < best:
            best = key
    return best


def _connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on n vertices, one per isomorphism class."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        reached = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            continue
        key = _canonical(n, edges)
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, edges, name=f"conn{n}-{len(out)}"))
    return out


def _configs_upto(n: int, budget: int):
    if n == 0:
        yield ()
        return
    for head in range(budget + 1):
        for rest in _configs_upto(n - 1, budget - head):
            yield (head,) + rest


def _random_connected(rng: random.Random, n: int) -> Graph:
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((verts[i], verts[j]))))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add(tuple(sorted((u, v))))
    return Graph(n, sorted(edges), name=f"rand:{n}")


def test_flow_oracle_equivalence_suite():
    t0 = time.perf_counter()
    # exhaustive part: every connected graph up to 5 vertices, every root,
    # every configuration of size at most 7
    families = {n: _connected_graphs(n) for n in range(2, 6)}
    assert [len(families[n]) for n in (2, 3, 4, 5)] == [1, 2, 6, 21]
    exhaustive = 0
    for n, graphs in families.items():
        for g in graphs:
            for r in range(n):
                fresh = FollowerEngine(g, r)  # decide, cheap accepts included, on its own engine
                for counts in _configs_upto(n, 7):
                    p = Configuration(counts)
                    res = max_deliverable(g, p, r)
                    best = bfs_oracle(g, p, r)
                    assert res.delivered == best, (g.name, r, counts)
                    for t in (best, best + 1):
                        if t >= 1:
                            assert fresh.decide(p.counts, t) == (t <= best), (g.name, r, counts, t)
                    q = p
                    for a in res.moves:
                        assert a.tail != r and a.head in g.adjacency[a.tail]
                        q = apply_move(q, a)
                    assert q[r] - p[r] == res.delivered, (g.name, r, counts)
                    exhaustive += 1

    # randomized part: 10,000 cases on 6..8 vertices
    rng = random.Random(8080)
    randomized = 0
    for _ in range(1000):
        g = _random_connected(rng, rng.randint(6, 8))
        r = rng.randrange(g.n)
        for _ in range(10):
            size = rng.randint(0, 9)
            counts = [0] * g.n
            for _ in range(size):
                counts[rng.randrange(g.n)] += 1
            p = Configuration(counts)
            assert max_deliverable(g, p, r).delivered == bfs_oracle(g, p, r), (
                g.edges,
                r,
                counts,
            )
            randomized += 1
    assert (exhaustive, randomized) == (91_872, 10_000)

    elapsed = time.perf_counter() - t0
    print(
        f"\nPASS delivery oracle equivalence: {exhaustive} exhaustive + "
        f"{randomized} randomized delivery checks with zero discrepancies in {elapsed:.1f}s"
    )


def test_bilevel_agrees_with_exhaustive_enumeration():
    t0 = time.perf_counter()
    instances = audits = 0
    for n in range(2, 6):
        for g in _connected_graphs(n):
            dist = g.distance_table
            for r in range(n):
                eng = engine_for(g, r)
                assert pi_support(g, r, ()) == 1
                others = [v for v in range(n) if v != r]
                for size in (1, 2, 3):
                    for S in combinations(others, size):
                        caps = [(1 << dist[r][v]) - 1 for v in S]
                        # a stack of 2^dist pebbles solves alone, so larger
                        # placements never matter; verify that justification
                        for v, c in zip(S, caps):
                            alone = [0] * n
                            alone[v] = c + 1
                            assert eng.decide(alone, 1)
                        best, best_cfg = 0, None
                        for combo in iproduct(*(range(c + 1) for c in caps)):
                            counts = [0] * n
                            for v, a in zip(S, combo):
                                counts[v] = a
                            if not eng.decide(counts, 1) and sum(combo) > best:
                                best, best_cfg = sum(combo), counts
                        assert pi_support(g, r, S) == best + 1, (g.name, r, S)
                        out = max_unsolvable(BilevelInstance(g, r, S))
                        if best == 0:
                            assert out.status == "Infeasible"
                        else:
                            assert out.status == "Optimal"
                            assert out.value == best
                            w = out.witness
                            assert sum(w.counts) == best
                            assert set(w.to_map()) <= set(S)
                            assert not eng.decide(w, 1)
                        capped = max_unsolvable(
                            BilevelInstance(g, r, S, lower=n)
                        )
                        assert (capped.status == "Infeasible") == (best < n)
                        if capped.status == "Optimal":
                            assert capped.value == best
                        if best_cfg is not None:
                            assert bfs_oracle(g, Configuration(best_cfg), r) == 0
                            audits += 1
                        instances += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nPASS bilevel consistency: {instances} (graph, root, support) instances "
        f"match exhaustive enumeration, {audits} maximum witnesses oracle-audited, "
        f"{elapsed:.1f}s"
    )


def test_run_log_resume_and_report_semantics(tmp_path):
    g = catalog(PRODUCT_SPEC)
    fast = [tuple(c) for c in combinations(range(1, 6), 4)]
    slow = (28, 35, 36, 37, 38, 39)  # deep-cap support at root 9, minutes of work
    instances = [
        PlannedInstance(
            key=instance_key(0, s, 1, None),
            root=0,
            support=s,
            lower=1,
            upper=None,
            worker=0,
        )
        for s in fast
    ]
    instances.append(
        PlannedInstance(
            key=instance_key(9, slow, 64, None),
            root=9,
            support=slow,
            lower=64,
            upper=None,
            worker=0,
        )
    )
    plan = JobPlan(
        graph_spec=PRODUCT_SPEC,
        k=4,
        c=8,
        lower=1,
        upper=None,
        workers=1,
        instances=instances,
    )
    plan_path = tmp_path / "plan.json"
    out_path = tmp_path / "run.jsonl"
    save_plan(plan, str(plan_path))

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "pebbling.cli",
            "batch",
            "--plan",
            str(plan_path),
            "--out",
            str(out_path),
            "--resume",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if out_path.exists() and len(load_records(str(out_path))) >= len(fast):
                break
            time.sleep(0.05)
        else:
            pytest.fail("batch subprocess made no progress before the deadline")
        # the worker is now deep inside the slow instance; kill it cold
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL

    survivors = final_records(load_records(str(out_path)))
    assert len(survivors) == len(fast)

    # resume under a small cap: the unfinished instance times out once, and
    # that one record settles the key
    redone = run(plan, 0.05, str(out_path), graph=g, resume=True)
    assert [rec.key for rec in redone] == [instances[-1].key]
    assert [rec.status for rec in redone] == ["TimedOut"]
    final = final_records(load_records(str(out_path)))
    assert set(final) == {inst.key for inst in plan.instances}
    assert len(final) == len(plan.instances)
    assert run(plan, 0.05, str(out_path), graph=g, resume=True) == []

    rows = [
        ResultRecord(
            key=f"k{i}",
            root=0,
            support=(1,),
            status="Infeasible",
            value=None,
            elapsed_s=e,
            nodes=10,
        )
        for i, e in enumerate((1.0, 3.0, 8.0))
    ]
    summary = report(rows)
    assert summary.instance_count == 3
    assert summary.t_avg == 4.0
    assert summary.t_total == 12.0
    assert summary.t_total == summary.t_avg * summary.instance_count
    assert summary.incomplete == 0

    live = report(load_records(str(out_path)))
    assert live.instance_count == len(plan.instances)
    assert live.incomplete == 1
    print(
        f"\nPASS run log: kill mid-run left {len(survivors)} settled records, resume "
        f"settled all {len(plan.instances)} keys exactly once, and t_total "
        f"equals t_avg times count on synthetic rows"
    )
