"""Top-level pebbling computations built on the leader/follower engines.

Rooted and global pebbling numbers, support-k upper bounds through orbit
and covering reduction, the two-pebbling-property witness search, and the
product consistency check against the factor-product bound.  The last two
run their leader instances through `orchestrator.execute`, as `batch` does.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .configurations import Configuration
from .follower import check_time_cap, deadline_in, engine_for
from .graphs import Graph, cartesian_product
from .leader import check_bounds
from .leader import pi_support as _pi_support
from .orchestrator import (
    PlannedInstance,
    ResultRecord,
    execute,
    instance_key,
    report,
    root_covers,
)
from .symmetry import automorphisms, orbit_representatives, subset_orbit_reps


@dataclass
class PebblingReport:
    value: int
    certificate: Configuration | None
    complete: bool
    instances: list[ResultRecord]  # one per instance solved, in plan order


def pi_rooted(g: Graph, r: int, deadline: float | None = None) -> int:
    """π(G, r): least m making every size-m configuration r-solvable."""
    support = tuple(v for v in range(g.n) if v != r)
    return _pi_support(g, r, support, deadline)


def pi(g: Graph, deadline: float | None = None) -> int:
    """π(G) as the maximum of π(G, r) over one root per automorphism orbit.

    deadline (time.monotonic() seconds) bounds all roots together; past it,
    TimeoutError is raised.
    """
    return max(pi_rooted(g, r, deadline) for r in orbit_representatives(g))


def pi_k_upper(
    g: Graph,
    k: int,
    c: int,
    *,
    lower: int = 1,
    sample: int | None = None,
    time_cap: float | None = None,
    seed: int = 0,
) -> PebblingReport:
    """Upper-bound π_k(G) via orbit roots, covering designs, and the leader.

    lower sets the infeasibility threshold L (Class-0 mode is L = |V|): when
    every instance is Infeasible, π_k(G) <= L is certified and L is reported.
    time_cap bounds each instance on its own, and a TimedOut instance leaves
    the report incomplete.
    With c = k the covering step is lossless and the bound is exact.
    Sampling solves a random subset of instances; the report is then flagged
    incomplete and certifies nothing beyond the sampled instances.
    """
    if not 1 <= k <= c <= g.n - 1:
        raise ValueError(f"need 1 <= k <= c <= n-1, got k={k}, c={c}")
    check_bounds(lower, None)
    check_time_cap(time_cap)
    pool = [(r, s) for r, sets in root_covers(g, k, c) for s in sets]
    chosen = pool
    if sample is not None and sample < len(pool):
        chosen = random.Random(seed).sample(pool, sample)
    planned = [
        PlannedInstance(instance_key(r, s, lower, None), r, tuple(s), lower, None, worker=0)
        for r, s in chosen
    ]
    records = list(execute(g, planned, time_cap))
    optimal = [rec for rec in records if rec.status == "Optimal"]
    # the first of the largest witnesses certifies the bound
    best = max(optimal, key=lambda rec: rec.value, default=None)
    certificate = None
    if best is not None:
        certificate = Configuration.from_map(g.n, dict(zip(best.support, best.witness)))
    return PebblingReport(
        value=lower if best is None else max(lower, best.value + 1),
        certificate=certificate,
        complete=len(chosen) == len(pool) and report(records).incomplete == 0,
        instances=records,
    )


def two_pebbling_witness(
    g: Graph, deadline: float | None = None
) -> tuple[Configuration, int] | None:
    """Find (p, r) with |p| = 2π(G) - |Supp(p)| + 1 yet under 2 pebbles on r.

    Searching the equality slice is complete: any violator reduces to one
    with equality by removing pebbles from vertices holding at least two,
    and an all-ones violator would need |Supp| > π(G) >= |V|, impossible.
    Returns None when the graph has the two-pebbling property; past deadline
    (time.monotonic() seconds) it raises TimeoutError.
    """
    value = pi(g, deadline)
    group = automorphisms(g)
    for s in range(1, g.n + 1):
        size = 2 * value - s + 1
        if size < s:
            continue
        for support in subset_orbit_reps(g, s, group):
            for extra in _compositions(size - s, s):
                counts = [0] * g.n
                for v, e in zip(support, extra):
                    counts[v] = 1 + e
                p = Configuration(counts)
                for r in range(g.n):
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError("two-pebbling search timed out")
                    if not engine_for(g, r).decide(p.counts, 2 - p[r], deadline):
                        return p, r
    return None


def _compositions(total: int, parts: int):
    """All ways to split `total` into `parts` non-negative ordered summands."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass
class GrahamReport:
    pi_g: int
    pi_h: int
    threshold: int
    consistent: bool
    complete: bool


def graham_support_check(
    g: Graph,
    h: Graph,
    k: int,
    c: int,
    *,
    sample: int | None = None,
    time_cap: float | None = None,
    seed: int = 0,
) -> GrahamReport:
    """Check π_k(g □ h) <= π(g)π(h) by requiring Infeasible at L = π(g)π(h).

    time_cap bounds each of π(g), π(h) and the product's instances on its own.
    """
    pi_g, pi_h = pi(g, deadline_in(time_cap)), pi(h, deadline_in(time_cap))
    product = cartesian_product(g, h)
    threshold = pi_g * pi_h
    bound = pi_k_upper(
        product, k, c, lower=threshold, sample=sample, time_cap=time_cap, seed=seed
    )
    return GrahamReport(
        pi_g=pi_g,
        pi_h=pi_h,
        threshold=threshold,
        # a TimedOut instance leaves the check open but does not fail it
        consistent=all(rec.status != "Optimal" for rec in bound.instances),
        complete=bound.complete,
    )
