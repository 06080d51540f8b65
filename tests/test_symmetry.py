from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from pebbling.follower import engine_for
from pebbling.graphs import Graph, catalog
from pebbling.symmetry import (
    automorphisms,
    orbit_representatives,
    stabilizer,
    subset_orbit_reps,
    support_class_reps,
    vertex_orbits,
)


def _has_edge(g: Graph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edges


def _apply_set(p, vs) -> tuple[int, ...]:
    return tuple(sorted(p[v] for v in vs))


def _is_automorphism(g: Graph, image) -> bool:
    return all(
        _has_edge(g, image[u], image[v]) == _has_edge(g, u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def test_group_orders_on_known_graphs():
    assert len(automorphisms(catalog("path:3"))) == 2
    assert len(automorphisms(catalog("cycle:4"))) == 8
    assert len(automorphisms(catalog("cycle:6"))) == 12
    assert len(automorphisms(catalog("complete:4"))) == 24
    assert len(automorphisms(catalog("cube:3"))) == 48


def test_group_matches_brute_force_on_small_graphs():
    for spec in ["path:4", "cycle:5", "complete:3", "lemke1"]:
        g = catalog(spec)
        if g.n > 8:
            continue
        brute = {
            perm
            for perm in permutations(range(g.n))
            if _is_automorphism(g, perm)
        }
        group = automorphisms(g)
        assert len(group) == len(brute)
        assert set(group) == brute


def test_elements_are_automorphisms_and_closed():
    g = catalog("product:path:2,path:3")
    group = automorphisms(g)
    assert all(_is_automorphism(g, p) for p in group)
    images = set(group)
    a = group[0]
    b = group[-1]
    composed = tuple(a[b[i]] for i in range(g.n))
    assert composed in images


def test_lemke_product_group_order():
    g = catalog("product:lemke1,lemke1")
    group = automorphisms(g)
    assert len(group) == 72
    assert len(vertex_orbits(g, group)) == 21


def test_orbits_partition_and_respect_action():
    g = catalog("cycle:6")
    group = automorphisms(g)
    orbits = vertex_orbits(g, group)
    flat = sorted(v for orbit in orbits for v in orbit)
    assert flat == list(range(g.n))
    for orbit in orbits:
        members = set(orbit)
        for p in group:
            assert {p[v] for v in orbit} == members
    assert orbit_representatives(g, group) == [orbit[0] for orbit in orbits]


def test_stabilizer_fixes_root():
    g = catalog("cube:3")
    group = automorphisms(g)
    stab = stabilizer(group, 0)
    assert all(p[0] == 0 for p in stab)
    assert len(group) % len(stab) == 0
    # orbit-stabilizer: |orbit(0)| * |stab(0)| = |G|
    orbit = {p[0] for p in group}
    assert len(orbit) * len(stab) == len(group)


def test_fixed_vertex_lists_its_stabilizer():
    # the refinement that starts with the root in a class of its own lists
    # the same elements as filtering the whole group, each once
    cases = [(spec, range(catalog(spec).n))
             for spec in ("lemke1", "cube:4", "product:path:2,lemke1")]
    cases.append(("product:lemke1,lemke1", (3, 9)))
    orders = {}
    for spec, roots in cases:
        g = catalog(spec)
        group = automorphisms(g)
        for r in roots:
            stab = automorphisms(g, r)
            assert len(set(stab)) == len(stab)
            assert set(stab) == set(stabilizer(group, r)), (spec, r)
            orders[spec, r] = len(stab)
    assert (orders["product:lemke1,lemke1", 3], orders["product:lemke1,lemke1", 9]) == (12, 72)
    with pytest.raises(ValueError, match="exceeds 100 elements"):
        automorphisms(catalog("complete:6"), 0, 100)
    # a fixed vertex outside the graph would fix nothing and list the whole group
    for fixed in (8, 99, -1):
        with pytest.raises(ValueError, match=f"fixed vertex {fixed} out of range"):
            automorphisms(catalog("cube:3"), fixed)


def test_support_classes_cycle4():
    g = catalog("cycle:4")
    classes = support_class_reps(g, 0, 2)
    assert classes.class_count == 2
    assert classes.root == 0 and classes.k == 2
    covered = set()
    stab = stabilizer(automorphisms(g), 0)
    for rep in classes.reps:
        for p in stab:
            covered.add(_apply_set(p, rep))
    assert covered == {tuple(sorted(s)) for s in combinations([1, 2, 3], 2)}


def test_support_classes_complete_graph_single_class():
    g = catalog("complete:5")
    for k in (1, 2, 3):
        assert support_class_reps(g, 0, k).class_count == 1


def test_support_classes_cover_every_subset_on_small_graphs():
    # product:cycle:9,cycle:8 has 72 vertices, past one 64-bit word
    for spec in ["path:4", "cycle:5", "cube:3", "lemke1", "product:cycle:9,cycle:8"]:
        g = catalog(spec)
        group = automorphisms(g)
        for r in (0, g.n - 1):
            stab = stabilizer(group, r)
            others = [v for v in range(g.n) if v != r]
            for k in (1, 2, 3):
                classes = support_class_reps(g, r, k, group)
                seen = set()
                for rep in classes.reps:
                    assert r not in rep
                    for p in stab:
                        seen.add(_apply_set(p, rep))
                assert seen == {tuple(sorted(s)) for s in combinations(others, k)}
                # each representative is its own lex-minimal form, so they
                # lie in distinct classes
                canon = [min(_apply_set(p, rep) for p in stab) for rep in classes.reps]
                assert canon == classes.reps
                assert len(set(canon)) == classes.class_count
    # the pseudorandom emission order holds past 64 vertices too
    reps = support_class_reps(catalog("path:70"), 0, 2).reps
    assert reps != sorted(reps)


def test_support_classes_k_range_validated():
    g = catalog("path:3")
    with pytest.raises(ValueError):
        support_class_reps(g, 0, 0)
    with pytest.raises(ValueError):
        support_class_reps(g, 0, 3)


def test_subset_orbit_reps_complete_graph():
    g = catalog("complete:4")
    assert len(subset_orbit_reps(g, 2)) == 1
    g2 = catalog("path:4")
    # {0,1} ~ {2,3}, {0,2} ~ {1,3}, {0,3} and {1,2} are fixed classes
    assert subset_orbit_reps(g2, 2) == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_solvability_invariant_under_automorphism():
    g = catalog("lemke1")
    group = automorphisms(g)
    rng = random.Random(3)
    for _ in range(25):
        counts = [rng.randint(0, 3) for _ in range(g.n)]
        r = rng.randrange(g.n)
        p = rng.choice(group)
        mapped = [0] * g.n
        for v, c in enumerate(counts):
            mapped[p[v]] = c
        a = engine_for(g, r).decide(counts)
        b = engine_for(g, p[r]).decide(mapped)
        assert a == b
