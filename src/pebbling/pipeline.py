"""Top-level pebbling computations built on the leader/follower engines.

Rooted and global pebbling numbers, support-k upper bounds through orbit
and covering reduction, the two-pebbling-property witness search, and the
product consistency check against the factor-product bound.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .configurations import Configuration
from .follower import deadline_in, engine_for
from .graphs import Graph, cartesian_product
from .leader import BilevelInstance, max_unsolvable
from .leader import pi_support as _pi_support
from .orchestrator import root_covers
from .symmetry import automorphisms, orbit_representatives, subset_orbit_reps


@dataclass
class InstanceResult:
    root: int
    support: tuple[int, ...]
    status: str
    value: int | None
    elapsed: float
    nodes: int


@dataclass
class PebblingReport:
    graph: str
    quantity: str
    value: int | None
    per_root: dict[int, int | None] = field(default_factory=dict)
    certificate: Configuration | None = None
    complete: bool = True
    instances: list[InstanceResult] = field(default_factory=list)


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
    time_cap bounds each instance on its own.
    With c = k the covering step is lossless and the bound is exact.
    Sampling solves a random subset of instances; the report is then flagged
    incomplete and certifies nothing beyond the sampled instances.
    """
    if not 1 <= k <= c <= g.n - 1:
        raise ValueError(f"need 1 <= k <= c <= n-1, got k={k}, c={c}")
    covers = root_covers(g, k, c)
    pool = [(r, s) for r, sets in covers for s in sets]
    chosen = pool
    if sample is not None and sample < len(pool):
        chosen = random.Random(seed).sample(pool, sample)
    results: list[InstanceResult] = []
    per_root: dict[int, int | None] = {r: None for r, _ in covers}
    certificate = None
    best = None
    complete = sample is None or len(chosen) == len(pool)
    for r, support in chosen:
        inst = BilevelInstance(g, r, support, lower=lower)
        out = max_unsolvable(inst, deadline_in(time_cap))
        results.append(
            InstanceResult(r, support, out.status, out.value, out.elapsed, out.nodes)
        )
        if out.status == "TimedOut":
            complete = False
            continue
        if out.status == "Optimal":
            bound = out.value + 1
            if per_root[r] is None or bound > per_root[r]:
                per_root[r] = bound
            if best is None or bound > best:
                best = bound
                certificate = out.witness
    value = lower if best is None else max(lower, best)
    return PebblingReport(
        graph=g.name,
        quantity="pi_k_upper",
        value=value,
        per_root=per_root,
        certificate=certificate,
        complete=complete,
        instances=results,
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
    graph: str
    pi_g: int
    pi_h: int
    threshold: int
    consistent: bool
    complete: bool
    instances: list[InstanceResult]


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
    report = pi_k_upper(
        product, k, c, lower=threshold, sample=sample, time_cap=time_cap, seed=seed
    )
    finished = [i for i in report.instances if i.status != "TimedOut"]
    consistent = all(i.status == "Infeasible" for i in finished)
    return GrahamReport(
        graph=product.name,
        pi_g=pi_g,
        pi_h=pi_h,
        threshold=threshold,
        consistent=consistent,
        complete=report.complete,
        instances=report.instances,
    )
