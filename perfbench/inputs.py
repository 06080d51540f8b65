"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain data (vertex
lists, pebble counts); the program under test never sees the seed.  Each
generator draws from its own `random.Random` seeded with a string, which
Python hashes with SHA-512, so the same seed gives byte-identical inputs in
every process and on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LXL_SPEC = "product:lemke1,lemke1"
LXL_K = 4
LXL_C = 8
LXL_LOWER = 64

# Root orbit representatives of L×L grouped by the order of their stabilizer
# in Aut(L×L) (order 72).  The two strata load symmetry and covering
# differently: order 72 gives 41,148 support classes and a small cover,
# order 12 gives 145,269 classes and a cover three times larger.  The
# workload takes one root from each and checks both the stabilizer orders
# and the class counts.
LXL_STRATA = {
    72: {"roots": (0, 9, 18, 36, 54), "class_count": 41_148},
    12: {"roots": (3, 11, 19, 28, 30), "class_count": 145_269},
}

# cube4_pi runs on the catalog's own labeling, so its input is the same for
# every seed.  The leader's search order follows the vertex labels, and
# seven labelings took 29–40 s and made 18,800–50,200 follower calls: one
# pi() call per run cannot average that out.
CUBE_SPEC = "cube:4"
CUBE_PI = 16

P2L_SPEC = "product:path:2,lemke1"
# One representative per vertex orbit of P2□Lemke (automorphism group order 12).
P2L_ROOTS = (0, 1, 2, 3, 4, 6)
P2L_SUPPORT_SIZES = (2, 5)
P2L_WEIGHT_RANGE = (0.8, 4.0)
# Configurations above 16 pebbles are redrawn.  Larger ones make single
# max_deliverable calls of 1–25 s (one drawn configuration of 32 pebbles
# took 22 s) that are too rare for a run to average, so one of them decided
# a run's throughput.
P2L_MAX_PEBBLES = 16


def _rng(workload: str, seed: int, stream: int = 0) -> random.Random:
    return random.Random(f"perfbench:{workload}:{stream}:{seed}")


@dataclass(frozen=True)
class LxlInputs:
    roots: tuple[int, int]  # (order-72 root, order-12 root)
    samples: tuple[int, int]  # cover sets to draw from each root's cover
    sample_seed: int  # draws the sampled cover sets once the covers exist


def lxl_inputs(seed: int, roots: tuple[int, int], samples: tuple[int, int]) -> LxlInputs:
    rng = _rng("lxl_pipeline", seed)
    return LxlInputs(roots=roots, samples=samples, sample_seed=rng.getrandbits(63))


def sample_cover_sets(inputs: LxlInputs, covers: dict[int, list[tuple[int, ...]]]):
    """Seeded (root, cover set) pairs: `samples[i]` sets from the cover of `roots[i]`."""
    rng = random.Random(inputs.sample_seed)
    out = []
    for r, want in zip(inputs.roots, inputs.samples):
        out.extend((r, tuple(s)) for s in rng.sample(covers[r], want))
    rng.shuffle(out)
    return out


def _fill(rng: random.Random, d, support: list[int], target: float) -> list[int]:
    """One pebble per support vertex, then random ones until the weight reaches target."""
    counts = [0] * len(d)
    weight = 0.0
    for v in support:
        counts[v] = 1
        weight += 2.0 ** -d[v]
    while weight < target:
        v = rng.choice(support)
        counts[v] += 1
        weight += 2.0 ** -d[v]
    return counts


def p2lemke_configs(seed: int, block: int, dist, count: int) -> list[tuple[int, tuple[int, ...]]]:
    """Block number `block` of `count` near-frontier (root, counts) pairs on P2□Lemke.

    Each configuration puts pebbles on 2–5 vertices at distance >= 2 from
    the root, one on each, then adds pebbles to random support vertices
    until the weight sum p(v)·2^-d(v) reaches a target drawn uniformly from
    0.8 to 4.0.  Its weight therefore lies below 4.25, so at most four
    pebbles can be delivered, and configurations below weight 1 deliver
    none.  A draw above P2L_MAX_PEBBLES pebbles is redrawn with the same
    root, support size and target.  `dist` is the graph's all-pairs
    hop-distance table.

    Roots, support sizes and weight targets are stratified: every root and
    every support size appears equally often, and each of `count` equal
    slices of the weight range holds exactly one target.  The seed decides
    which root, size and slice go together, the supports and the pebble
    placement, so runs on different seeds carry the same mix of easy and
    hard configurations and their timings stay comparable.
    """
    rng = _rng("p2lemke_solve", seed, block)
    n = len(dist)
    lo, hi = P2L_WEIGHT_RANGE
    sizes = range(P2L_SUPPORT_SIZES[0], P2L_SUPPORT_SIZES[1] + 1)
    slices = list(range(count))
    rng.shuffle(slices)
    out = []
    for i in range(count):
        r = P2L_ROOTS[i % len(P2L_ROOTS)]
        d = dist[r]
        far = [v for v in range(n) if d[v] >= 2]
        size = sizes[(i // len(P2L_ROOTS)) % len(sizes)]
        target = lo + (hi - lo) * (slices[i] + rng.random()) / count
        while True:
            counts = _fill(rng, d, rng.sample(far, size), target)
            if sum(counts) <= P2L_MAX_PEBBLES:
                break
        out.append((r, tuple(counts)))
    rng.shuffle(out)
    return out

