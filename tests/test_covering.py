from __future__ import annotations

import random
from itertools import combinations

import pytest

from pebbling.covering import CoveringDesign, greedy_cover, validate_cover


def _greedy_plain(members, c) -> list[tuple[int, ...]]:
    """Reference greedy cover over frozensets: absorb in order while |union| <= c."""
    live = [frozenset(t) for t in members]
    out = []
    while live:
        grown: frozenset = frozenset()
        for t in live:
            if len(grown | t) <= c:
                grown = grown | t
        live = [t for t in live if not t <= grown]
        out.append(tuple(sorted(grown)))
    return out


def test_lexicographic_pairs_of_five_capacity_four():
    family = list(combinations("abcde", 2))
    family = [tuple(ord(x) - ord("a") for x in t) for t in family]
    design = greedy_cover(family, 4)
    assert design.sets == [(0, 1, 2, 3), (0, 1, 2, 4), (3, 4)]
    assert validate_cover(design, family)


def test_disjoint_members_capacity_equal_k():
    family = [(0, 1), (2, 3), (4, 5)]
    design = greedy_cover(family, 2)
    assert design.sets == [(0, 1), (2, 3), (4, 5)]
    assert validate_cover(design, family)


def test_capacity_equal_k_sets_are_family_members():
    rng = random.Random(2)
    universe = list(range(12))
    family = sorted({tuple(sorted(rng.sample(universe, 3))) for _ in range(40)})
    design = greedy_cover(family, 3)
    assert set(design.sets) <= set(family)
    assert validate_cover(design, family)


def test_empty_family():
    design = greedy_cover([], 5)
    assert design.sets == []
    assert validate_cover(design, [])


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError, match="share one size"):
        greedy_cover([(0, 1), (2,)], 3)


def test_capacity_below_k_rejected():
    with pytest.raises(ValueError, match="capacity"):
        greedy_cover([(0, 1, 2)], 2)


def test_every_member_inside_some_set():
    rng = random.Random(9)
    family = sorted({tuple(sorted(rng.sample(range(20), 4))) for _ in range(200)})
    design = greedy_cover(family, 7)
    assert validate_cover(design, family)
    for t in family:
        assert any(set(t) <= set(s) for s in design.sets)


def test_greedy_cover_matches_plain_oracle_across_word_boundary():
    rng = random.Random(4)
    for trial in range(30):
        width = rng.randint(60, 200)
        k = rng.randint(2, 4)
        count = rng.randint(1, 60)
        family = [tuple(sorted(rng.sample(range(width), k))) for _ in range(count)]
        c = rng.randint(k, k + 4)
        assert greedy_cover(family, c).sets == _greedy_plain(family, c)


def test_greedy_cover_at_scale_matches_plain_oracle():
    rng = random.Random(8)
    family = [tuple(sorted(rng.sample(range(40), 4))) for _ in range(2500)]
    design = greedy_cover(family, 8)
    assert design.sets == _greedy_plain(family, 8)
    assert validate_cover(design, family)


def test_validate_rejects_oversize_set():
    design = CoveringDesign(root=-1, capacity=2, sets=[(0, 1, 2)])
    assert not validate_cover(design, [(0, 1)])


def test_validate_rejects_root_membership():
    design = CoveringDesign(root=1, capacity=3, sets=[(0, 1)])
    assert not validate_cover(design, [(0, 1)])


def test_validate_rejects_uncovered_member():
    design = CoveringDesign(root=-1, capacity=3, sets=[(0, 1, 2)])
    assert not validate_cover(design, [(0, 1), (3, 4)])


def test_validate_rejects_truncated_cover_at_scale():
    # dropping the last set always uncovers the member that started it
    rng = random.Random(12)
    for width in (30, 150):
        family = [tuple(sorted(rng.sample(range(width), 3))) for _ in range(2000)]
        design = greedy_cover(family, 6)
        assert validate_cover(design, family)
        broken = CoveringDesign(design.root, design.capacity, design.sets[:-1])
        assert not validate_cover(broken, family)


def test_growth_absorbs_members_in_order():
    family = [(0, 1), (1, 2), (5, 6), (2, 3)]
    design = greedy_cover(family, 4)
    # first set grows 0,1 then 1,2 then 2,3; {5,6} no longer fits
    assert design.sets == [(0, 1, 2, 3), (5, 6)]


def test_dominance_solved_sets_cover_their_subsets():
    family = [(0, 1, 2), (0, 1, 3), (2, 3, 4)]
    design = greedy_cover(family, 5)
    assert validate_cover(design, family)
    for t in family:
        assert any(set(t) <= set(s) for s in design.sets)


def _family_with_repeats(rng, width, k, count):
    """Random k-subsets of range(width) as unsorted tuples, with some members
    repeated (in either vertex order) later in the family."""
    family = [tuple(rng.sample(range(width), k)) for _ in range(count)]
    for _ in range(rng.randint(1, max(1, count // 4))):
        t = list(rng.choice(family))
        rng.shuffle(t)
        family.insert(rng.randrange(len(family) + 1), tuple(t))
    return family


def test_greedy_cover_matches_plain_oracle_on_repeats_and_unsorted_members():
    rng = random.Random(13)
    for trial in range(300):
        width = rng.choice((rng.randint(6, 63), rng.randint(65, 150)))
        k = rng.randint(1, 4)
        c = rng.randint(k, k + 5)
        family = _family_with_repeats(rng, width, k, rng.randint(1, 120))
        assert len(set(map(frozenset, family))) < len(family)
        assert greedy_cover(family, c).sets == _greedy_plain(family, c), (trial, width, k, c)


def test_greedy_cover_set_closing_below_capacity_scans_to_the_end():
    # after (0,1,2) no member adds exactly one vertex, so the first set closes
    # at 3 of 4 vertices only after looking at every member past it
    rng = random.Random(21)
    family = [(0, 1, 2)] + [tuple(rng.sample(range(3, 90), 3)) for _ in range(400)]
    design = greedy_cover(family, 4)
    assert design.sets[0] == (0, 1, 2)
    assert design.sets == _greedy_plain(family, 4)
    assert validate_cover(design, family)


def test_greedy_cover_rejects_a_repeated_vertex():
    with pytest.raises(ValueError, match="repeat a vertex"):
        greedy_cover([(0, 1), (2, 2)], 3)


def _covers_plain(design, family) -> bool:
    """Reference validator over frozensets."""
    sets = [frozenset(s) for s in design.sets]
    if any(len(s) > design.capacity or design.root in s for s in sets):
        return False
    return all(any(frozenset(t) <= s for s in sets) for t in family)


def test_validate_cover_matches_frozenset_oracle():
    rng = random.Random(17)
    for trial in range(200):
        width = rng.choice((rng.randint(6, 63), rng.randint(65, 200)))
        k = rng.randint(1, 4)
        c = rng.randint(k, k + 4)
        family = [tuple(rng.sample(range(width), k)) for _ in range(rng.randint(1, 80))]
        sets = list(greedy_cover(family, c).sets)
        # a design set may also hold vertices that no member uses
        sets = [s + tuple(rng.sample(range(width, width + 70), rng.randint(0, 2))) for s in sets]
        design = CoveringDesign(root=-1, capacity=c + 2, sets=sets)
        assert validate_cover(design, family) and _covers_plain(design, family)
        # leave one member, at a random position, uncovered
        lost = frozenset(rng.choice(family))
        design.sets = [s for s in sets if not lost <= frozenset(s)]
        rng.shuffle(design.sets)
        assert not _covers_plain(design, family)
        assert not validate_cover(design, family), trial


def test_validate_cover_edge_cases_match_oracle():
    cases = [
        (CoveringDesign(-1, 3, []), []),
        (CoveringDesign(-1, 3, [(0, 1, 2)]), []),
        (CoveringDesign(-1, 3, []), [(0, 1)]),
        (CoveringDesign(-1, 3, [(64, 65, 130)]), [(64, 130), (65,)]),
        (CoveringDesign(-1, 3, [(64, 65, 130)]), [(64, 131)]),
        (CoveringDesign(-1, 4, [(1, 2, 3, 200)]), [(2, 1), (3,), (1, 2, 3)]),
        (CoveringDesign(-1, 2, [(0, 1)] * 70 + [(5, 6)]), [(5, 6), (0,)]),
        (CoveringDesign(-1, 2, [(0, 1)] * 70), [(5, 6), (0,)]),
        (CoveringDesign(-1, 3, []), [()]),
        (CoveringDesign(-1, 3, [(0, 1)]), [()]),
    ]
    assert [_covers_plain(design, family) for design, family in cases[-2:]] == [False, True]
    for design, family in cases:
        assert validate_cover(design, family) == _covers_plain(design, family), (design, family)
