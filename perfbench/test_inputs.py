"""The generators are pure functions of the seed.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

from __future__ import annotations

import json

import pytest

import inputs
from pebbling.graphs import catalog
from pebbling.symmetry import automorphisms, orbit_representatives, stabilizer
from run import tail


def _blob(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def _lxl(seed):
    inp = inputs.lxl_inputs(seed, (9, 3), (3, 5))
    covers = {r: [tuple(range(10 * r + i, 10 * r + i + 8)) for i in range(12)] for r in inp.roots}
    return [inp.roots, inp.samples, inp.sample_seed, inputs.sample_cover_sets(inp, covers)]


def _p2l(seed):
    g = catalog(inputs.P2L_SPEC)
    return [inputs.p2lemke_configs(seed, b, g.distance_table.dist, 48) for b in range(2)]


GENERATORS = {
    "lxl_pipeline": _lxl,
    "p2lemke_solve": _p2l,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    gen = GENERATORS[name]
    assert _blob(gen(1)) == _blob(gen(1))
    assert len({_blob(gen(s)) for s in range(1, 9)}) == 8


def test_p2lemke_configs_follow_the_stated_distribution():
    g = catalog(inputs.P2L_SPEC)
    dist = g.distance_table.dist
    configs = inputs.p2lemke_configs(3, 0, dist, 96)
    assert {r for r, _ in configs} == set(inputs.P2L_ROOTS)
    for r, counts in configs:
        support = [v for v, c in enumerate(counts) if c]
        assert 2 <= len(support) <= 5
        assert sum(counts) <= inputs.P2L_MAX_PEBBLES
        assert all(dist[r][v] >= 2 for v in support)
        weight = sum(c * 2.0 ** -dist[r][v] for v, c in enumerate(counts))
        assert 0.8 <= weight < 4.25


def test_constant_root_lists_match_the_package():
    lxl = catalog(inputs.LXL_SPEC)
    group = automorphisms(lxl)
    strata = {}
    for r in orbit_representatives(lxl, group):
        strata.setdefault(len(stabilizer(group, r)), []).append(r)
    for order, stratum in inputs.LXL_STRATA.items():
        assert tuple(strata[order]) == stratum["roots"]
    assert tuple(orbit_representatives(catalog(inputs.P2L_SPEC))) == inputs.P2L_ROOTS


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert tail([float(i) for i in range(999)]) == (90.0, 899.0)
    assert tail([3.0, 1.0]) == (100.0, 3.0)
