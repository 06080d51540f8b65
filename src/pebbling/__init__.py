"""Exact graph pebbling computations: solvability, pebbling numbers, and
support-restricted bounds via automorphism orbits and covering designs."""

from .configurations import Configuration, apply_move, parse_config_literal, weight
from .covering import CoveringDesign, greedy_cover, validate_cover
from .follower import DeliveryResult, bfs_oracle, max_deliverable
from .graphs import Arc, DistanceTable, Graph, cartesian_product, catalog, load_edge_list
from .leader import BilevelInstance, BilevelOutcome, max_unsolvable, pi_support
from .pipeline import (
    GrahamReport,
    PebblingReport,
    graham_support_check,
    pi,
    pi_k_upper,
    pi_rooted,
    two_pebbling_witness,
)
from .symmetry import SupportClasses, automorphisms, support_class_reps, vertex_orbits

__all__ = [name for name in dir() if not name.startswith("_")]
