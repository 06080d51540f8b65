"""Pebbling configurations: pebble counts per vertex, moves, and the weight bound."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graphs import Arc, DistanceTable, Graph

MAX_SIZE = 1 << 16  # configurations beyond this are outside the artifact's scope


@dataclass(frozen=True, slots=True, repr=False)
class Configuration:
    """Immutable map vertex -> non-negative pebble count, stored densely;
    counts may be any iterable of ints and is kept as a tuple."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        if any(c < 0 for c in counts):
            raise ValueError("negative pebble count")
        if sum(counts) > MAX_SIZE:
            raise ValueError(f"configuration size exceeds {MAX_SIZE}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_map(cls, n: int, placed: Mapping[int, int]) -> "Configuration":
        counts = [0] * n
        for v, c in placed.items():
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            counts[v] = c
        return cls(counts)

    def __getitem__(self, v: int) -> int:
        return self.counts[v]

    def to_map(self) -> dict[int, int]:
        return {v: c for v, c in enumerate(self.counts) if c > 0}

    def __repr__(self):
        return f"Configuration({self.to_map()})"


def apply_move(p: Configuration, a: Arc) -> Configuration:
    """Remove two pebbles at a.tail, place one at a.head; size drops by exactly 1."""
    if p[a.tail] < 2:
        raise ValueError(f"need 2 pebbles at vertex {a.tail}, have {p[a.tail]}")
    counts = list(p.counts)
    counts[a.tail] -= 2
    counts[a.head] += 1
    return Configuration(counts)


def weight(p: Configuration, r: int, d: DistanceTable) -> Fraction:
    """Exact Σ_v p(v) * 2^(-dist(v,r)); values below 1 certify r-unsolvability."""
    row = d[r]
    ecc = max(row)
    return Fraction(sum(c << (ecc - row[v]) for v, c in enumerate(p.counts) if c), 1 << ecc)


def parse_config_literal(text: str, g: Graph) -> Configuration:
    """Parse `v:k[,v:k]*`, e.g. `0:4,3:2`; repeated vertices are an error."""
    placed: dict[int, int] = {}
    for field in text.split(","):
        field = field.strip()
        if not field:
            continue
        v_raw, sep, k_raw = field.partition(":")
        if not sep:
            raise ValueError(f"bad configuration field {field!r}, want v:k")
        v, k = int(v_raw), int(k_raw)
        if v in placed:
            raise ValueError(f"vertex {v} repeated in configuration literal")
        if k < 0:
            raise ValueError(f"negative count for vertex {v}")
        placed[v] = k
    return Configuration.from_map(g.n, placed)


def format_config(p: Configuration) -> str:
    return ",".join(f"{v}:{c}" for v, c in sorted(p.to_map().items())) or "empty"
