from __future__ import annotations

import itertools

import pytest

from pebbling.graphs import (
    Graph,
    cartesian_product,
    catalog,
    load_edge_list,
    parse_graph_spec,
)


def test_loop_edge_rejected():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(0, 1), (1, 1), (1, 2)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (1, 3)])


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        Graph(4, [(0, 1), (2, 3)])


def test_duplicate_and_reversed_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert len(g.edges) == 2


def test_path_generator():
    g = catalog("path:4")
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert catalog("path:1").n == 1


def test_cycle_generator():
    g = catalog("cycle:5")
    assert g.n == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        catalog("cycle:2")


def test_complete_generator():
    g = catalog("complete:5")
    assert len(g.edges) == 10
    assert all(g.degree(v) == 4 for v in range(5))


def test_cube_generator():
    g = catalog("cube:4")
    assert g.n == 16
    assert len(g.edges) == 32
    assert all(g.degree(v) == 4 for v in range(16))


def test_catalog_rejects_unknown():
    with pytest.raises(ValueError):
        catalog("torus:3")
    with pytest.raises(ValueError):
        catalog("path:x")


def test_lemke1_shape():
    g = catalog("lemke1")
    assert g.n == 8
    assert len(g.edges) == 13
    assert [g.degree(v) for v in range(8)] == [2, 2, 4, 3, 4, 3, 5, 3]
    d = g.distance_table
    assert max(d[0]) == 2
    assert max(max(d[v]) for v in range(8)) == 3


def test_product_of_paths_is_cycle_like_grid():
    g = cartesian_product(catalog("path:2"), catalog("path:2"))
    assert g.n == 4
    assert len(g.edges) == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_product_fold_matches_cube():
    g = catalog("product:path:2,path:2,path:2")
    h = catalog("cube:3")
    assert g.n == h.n
    assert g.edges == h.edges


def _has_edge(g: Graph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edges


def test_lemke_product_edge_count():
    g = catalog("product:lemke1,lemke1")
    assert g.n == 64
    assert len(g.edges) == 2 * 8 * 13
    i, j, u, v = 3, 6, 4, 7
    assert _has_edge(g, i * 8 + j, i * 8 + v) == _has_edge(catalog("lemke1"), j, v)
    assert _has_edge(g, i * 8 + j, u * 8 + j) == _has_edge(catalog("lemke1"), i, u)


def _dist_exhaustive(g: Graph, u: int, v: int) -> int:
    # shortest path by brute force over all simple paths
    best = None
    for length in range(g.n):
        for mid in itertools.permutations([x for x in range(g.n) if x not in (u, v)], length):
            walk = (u,) + mid + (v,)
            if all(_has_edge(g, walk[i], walk[i + 1]) for i in range(len(walk) - 1)):
                best = len(walk) - 1
                break
        if best is not None:
            break
    return 0 if u == v else best


def test_distances_match_exhaustive_on_small_graphs():
    for spec in ["path:5", "cycle:6", "complete:4", "lemke1"]:
        g = catalog(spec)
        if g.n > 6:
            continue
        d = g.distance_table
        for u in range(g.n):
            for v in range(g.n):
                assert d[u][v] == _dist_exhaustive(g, u, v)


def test_distance_table_triangle_inequality():
    g = catalog("lemke1")
    d = g.distance_table
    for u in range(8):
        for v in range(8):
            for w in range(8):
                assert d[u][v] <= d[u][w] + d[w][v]
            assert d[u][v] == d[v][u]
        assert d[u][u] == 0


def test_edge_list_roundtrip(tmp_path):
    g = catalog("lemke1")
    path = tmp_path / "lemke.txt"
    lines = [f"{g.n} {len(g.edges)}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    path.write_text("# lemke graph\n" + "\n".join(lines) + "\n")
    loaded = load_edge_list(str(path))
    assert loaded.n == g.n
    assert loaded.edges == g.edges


def test_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(str(empty))
    short = tmp_path / "short.txt"
    short.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 edge lines"):
        load_edge_list(str(short))
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n1 2 3\n")
    with pytest.raises(ValueError, match="bad edge line"):
        load_edge_list(str(bad))


def test_parse_graph_spec_catalog_and_file(tmp_path):
    assert parse_graph_spec("cycle:4").n == 4
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    assert parse_graph_spec(str(path)).edges == catalog("path:3").edges
    with pytest.raises(ValueError):
        parse_graph_spec("no_such_graph")


def test_from_edge_list_names():
    g = Graph(2, [(0, 1)], name="pair")
    assert g.name == "pair"
    assert "2v" in Graph(2, [(0, 1)]).name
