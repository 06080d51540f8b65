from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from pebbling.follower import engine_for
from pebbling.graphs import Graph, catalog
from pebbling.symmetry import (
    Permutation,
    automorphisms,
    orbit_representatives,
    stabilizer,
    subset_orbit_reps,
    support_class_reps,
    vertex_orbits,
)


def _is_automorphism(g: Graph, image) -> bool:
    return all(
        g.has_edge(image[u], image[v]) == g.has_edge(u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def test_group_orders_on_known_graphs():
    assert automorphisms(catalog("path:3")).order == 2
    assert automorphisms(catalog("cycle:4")).order == 8
    assert automorphisms(catalog("cycle:6")).order == 12
    assert automorphisms(catalog("complete:4")).order == 24
    assert automorphisms(catalog("cube:3")).order == 48


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
        assert group.order == len(brute)
        assert {p.image for p in group.elements} == brute


def test_elements_are_automorphisms_and_closed():
    g = catalog("product:path:2,path:3")
    group = automorphisms(g)
    assert all(_is_automorphism(g, p.image) for p in group.elements)
    images = {p.image for p in group.elements}
    a = group.elements[0].image
    b = group.elements[-1].image
    composed = tuple(a[b[i]] for i in range(g.n))
    assert composed in images


def test_lemke_product_group_order():
    g = catalog("product:lemke1,lemke1")
    group = automorphisms(g)
    assert group.order == 72
    assert len(vertex_orbits(g, group)) == 21


def test_orbits_partition_and_respect_action():
    g = catalog("cycle:6")
    group = automorphisms(g)
    orbits = vertex_orbits(g, group)
    flat = sorted(v for orbit in orbits for v in orbit)
    assert flat == list(range(g.n))
    for orbit in orbits:
        members = set(orbit)
        for p in group.elements:
            assert {p.image[v] for v in orbit} == members
    assert orbit_representatives(g, group) == [orbit[0] for orbit in orbits]


def test_stabilizer_fixes_root():
    g = catalog("cube:3")
    group = automorphisms(g)
    stab = stabilizer(group, 0)
    assert all(p.image[0] == 0 for p in stab)
    assert group.order % len(stab) == 0
    # orbit-stabilizer: |orbit(0)| * |stab(0)| = |G|
    orbit = {p.image[0] for p in group.elements}
    assert len(orbit) * len(stab) == group.order


def test_support_classes_cycle4():
    g = catalog("cycle:4")
    classes = support_class_reps(g, 0, 2)
    assert classes.class_count == 2
    assert classes.root == 0 and classes.k == 2
    covered = set()
    stab = stabilizer(automorphisms(g), 0)
    for rep in classes.reps:
        for p in stab:
            covered.add(p.apply_set(rep))
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
                        seen.add(p.apply_set(rep))
                assert seen == {tuple(sorted(s)) for s in combinations(others, k)}
                # each representative is its own lex-minimal form, so they
                # lie in distinct classes
                canon = [min(p.apply_set(rep) for p in stab) for rep in classes.reps]
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
        p = rng.choice(group.elements)
        mapped = [0] * g.n
        for v, c in enumerate(counts):
            mapped[p.image[v]] = c
        a = engine_for(g, r).decide(counts)
        b = engine_for(g, p.image[r]).decide(mapped)
        assert a == b


def test_permutation_apply_set_sorts():
    p = Permutation((2, 0, 1))
    assert p.apply_set((0, 1)) == (0, 2)
