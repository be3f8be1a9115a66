"""Overlap cycles over k-permutations of {1..n} and multiset permutations.

Generation (Euler tours of the implicit transition graph), strict
verification, connectivity walkers with replayable certificates, and a
small exhaustive Hamilton-cycle oracle.
"""

from .core import feasibility, min_vertex, validate_params
from .graph import build_graph
from .euler import euler_tour, tour_to_cycle
from .connect import find_path, replay_certificate
from .verify import hamilton_oracle, verify_cycle_string

__version__ = "0.1.0"
