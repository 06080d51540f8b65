from __future__ import annotations

import time

import pytest

from pebbling import orchestrator
from pebbling.configurations import Configuration
from pebbling.follower import engine_for, max_deliverable
from pebbling.graphs import Graph, catalog
from pebbling.pipeline import (
    GrahamReport,
    PebblingReport,
    graham_support_check,
    pi,
    pi_k_upper,
    pi_rooted,
    two_pebbling_witness,
)


def test_pi_rooted_examples():
    assert pi_rooted(catalog("path:4"), 0) == 8
    assert pi_rooted(catalog("path:4"), 1) == 5
    assert pi_rooted(catalog("complete:4"), 2) == 4
    assert pi_rooted(catalog("cube:3"), 0) == 8


def test_pi_known_values():
    assert pi(catalog("path:2")) == 2
    assert pi(catalog("path:5")) == 16
    assert pi(catalog("complete:3")) == 3
    assert pi(catalog("cycle:4")) == 4
    assert pi(catalog("cycle:5")) == 5
    assert pi(catalog("cycle:6")) == 8
    assert pi(catalog("cube:3")) == 8
    assert pi(catalog("lemke1")) == 8


def test_pi_invariant_under_relabeling():
    g = catalog("lemke1")
    relabel = {v: (v * 3) % 8 for v in range(8)}
    h = Graph(8, [(relabel[u], relabel[v]) for u, v in g.edges])
    assert pi(h) == pi(g)


def test_pi_k_upper_cube_class0_exact():
    report = pi_k_upper(catalog("cube:3"), 4, 7, lower=8)
    assert isinstance(report, PebblingReport)
    assert report.value == 8
    assert report.complete
    assert all(i.status == "Infeasible" for i in report.instances)


def test_pi_k_upper_lemke_full_support():
    g = catalog("lemke1")
    report = pi_k_upper(g, 7, 7, lower=1)
    assert report.value == 8
    assert report.complete
    assert report.certificate is not None
    assert sum(report.certificate.counts) == 7
    # every Optimal record's witness, rebuilt on its support, is unsolvable at its root
    witnesses = []
    for rec in report.instances:
        if rec.status == "Optimal":
            witness = Configuration.from_map(g.n, dict(zip(rec.support, rec.witness)))
            assert sum(witness.counts) == rec.value
            assert not engine_for(g, rec.root).decide(witness.counts)
            witnesses.append(witness)
    assert report.certificate in witnesses


def test_pi_k_upper_equals_direct_enumeration_when_c_is_k():
    g = catalog("cycle:5")
    from itertools import combinations

    from pebbling.leader import BilevelInstance, max_unsolvable
    from pebbling.symmetry import automorphisms, orbit_representatives

    k = 2
    report = pi_k_upper(g, k, k, lower=1)
    best = 1
    for r in orbit_representatives(g):
        for support in combinations([v for v in range(g.n) if v != r], k):
            out = max_unsolvable(BilevelInstance(g, r, support))
            if out.status == "Optimal":
                best = max(best, out.value + 1)
    assert report.value == best


def test_pi_k_monotone_in_k():
    g = catalog("cube:3")
    values = [pi_k_upper(g, k, k, lower=1).value for k in (1, 2, 3)]
    assert values == sorted(values)


def test_pi_k_upper_sampling_flags_incomplete():
    g = catalog("cube:3")
    report = pi_k_upper(g, 2, 4, lower=1, sample=1, seed=5)
    assert not report.complete
    assert len(report.instances) == 1


def test_pi_k_upper_records_a_timed_out_instance_once():
    report = pi_k_upper(catalog("cube:3"), 4, 7, time_cap=1e-6)
    keys = [rec.key for rec in report.instances]
    assert keys and len(set(keys)) == len(keys)
    assert all(rec.status == "TimedOut" for rec in report.instances)
    assert not report.complete


def test_pi_k_upper_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        pi_k_upper(catalog("cube:3"), 3, 2)
    with pytest.raises(ValueError):
        pi_k_upper(catalog("cube:3"), 0, 2)
    # a cap not above 0 is rejected before any root's cover is built
    monkeypatch.setattr(orchestrator, "support_class_reps", None)  # calling it raises TypeError
    for cap in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="time cap"):
            pi_k_upper(catalog("cube:3"), 2, 3, time_cap=cap)


def test_two_pebbling_holds_on_small_graphs():
    assert two_pebbling_witness(catalog("complete:4")) is None
    assert two_pebbling_witness(catalog("path:3")) is None
    assert two_pebbling_witness(catalog("cycle:5")) is None


def test_two_pebbling_time_cap_covers_the_pebbling_number():
    # pi(cube:4) alone takes many seconds uncapped
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        two_pebbling_witness(catalog("cube:4"), time.monotonic() + 0.5)
    assert time.monotonic() - t0 < 5


def test_two_pebbling_witness_on_lemke():
    got = two_pebbling_witness(catalog("lemke1"))
    assert got is not None
    p, r = got
    g = catalog("lemke1")
    s = len(set(p.to_map()))
    assert sum(p.counts) == 2 * pi(g) - s + 1
    res = max_deliverable(g, p, r)
    assert res.delivered + p[r] < 2


def test_graham_product_of_edges():
    report = graham_support_check(catalog("path:2"), catalog("path:2"), 3, 3)
    assert isinstance(report, GrahamReport)
    assert report.pi_g == report.pi_h == 2
    assert report.threshold == 4
    assert report.consistent
    assert report.complete


def test_graham_path_by_path3():
    report = graham_support_check(catalog("path:2"), catalog("path:3"), 2, 3)
    assert report.threshold == 8
    assert report.consistent
