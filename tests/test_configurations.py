from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling.configurations import (
    MAX_SIZE,
    Configuration,
    apply_move,
    format_config,
    parse_config_literal,
    weight,
)
from pebbling.follower import engine_for
from pebbling.graphs import Arc, catalog


def test_construction_and_accessors():
    p = Configuration([0, 3, 0, 1])
    assert sum(p.counts) == 4
    assert set(p.to_map()) == {1, 3}
    assert p[1] == 3 and p[2] == 0
    assert p.to_map() == {1: 3, 3: 1}
    assert len(p.counts) == 4


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        Configuration([1, -1])


def test_immutable():
    p = Configuration([1, 2])
    with pytest.raises(AttributeError):
        p.counts = (0, 0)


def test_size_cap():
    Configuration([MAX_SIZE])
    with pytest.raises(ValueError):
        Configuration([MAX_SIZE + 1])


def test_from_map_range_check():
    assert Configuration.from_map(3, {2: 5})[2] == 5
    with pytest.raises(ValueError):
        Configuration.from_map(3, {3: 1})


def test_apply_move():
    p = Configuration([4, 0, 1])
    q = apply_move(p, Arc(0, 1))
    assert q.counts == (2, 1, 1)
    assert sum(q.counts) == sum(p.counts) - 1
    with pytest.raises(ValueError, match="need 2 pebbles"):
        apply_move(q, Arc(1, 0))


def test_weight_examples():
    g = catalog("path:3")
    d = g.distance_table
    assert weight(Configuration([0, 2, 0]), 0, d) == 1
    assert weight(Configuration([0, 0, 4]), 0, d) == 1
    assert weight(Configuration([0, 1, 1]), 0, d) == Fraction(3, 4)


def test_parse_config_literal():
    g = catalog("path:4")
    p = parse_config_literal("0:4,3:2", g)
    assert p.counts == (4, 0, 0, 2)
    assert parse_config_literal("2:1", g)[2] == 1
    with pytest.raises(ValueError, match="repeated"):
        parse_config_literal("1:2,1:3", g)
    with pytest.raises(ValueError, match="want v:k"):
        parse_config_literal("1=2", g)
    with pytest.raises(ValueError):
        parse_config_literal("9:1", g)


def test_format_config_roundtrip():
    g = catalog("path:4")
    assert format_config(parse_config_literal("0:4,3:2", g)) == "0:4,3:2"
    assert format_config(Configuration([0, 0])) == "empty"


@st.composite
def _graph_and_config(draw):
    spec = draw(st.sampled_from(["path:4", "cycle:5", "complete:4", "cube:3", "lemke1"]))
    g = catalog(spec)
    counts = draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
    return g, Configuration(counts)


@given(_graph_and_config())
@settings(max_examples=200, deadline=None)
def test_move_drops_size_by_one_and_weight_monotone(gc):
    g, p = gc
    movable = [v for v in range(g.n) if p[v] >= 2]
    if not movable:
        return
    u = movable[0]
    a = Arc(u, g.adjacency[u][0])
    q = apply_move(p, a)
    assert sum(q.counts) == sum(p.counts) - 1
    for r in range(g.n):
        d = g.distance_table
        assert weight(q, r, d) <= weight(p, r, d)


@given(_graph_and_config())
@settings(max_examples=150, deadline=None)
def test_weight_below_one_is_unsolvable(gc):
    g, p = gc
    for r in range(g.n):
        if weight(p, r, g.distance_table) < 1:
            assert not (p[r] >= 1 or engine_for(g, r).decide(p.counts))
