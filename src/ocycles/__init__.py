"""Overlap cycles over k-permutations of {1..n} and multiset permutations.

Generation (Euler tours of the implicit transition graph), strict
verification, connectivity walkers with replayable certificates, and a
small exhaustive Hamilton-cycle oracle.
"""

from .core import (
    DEFAULT_EDGE_LIMIT,
    Feasibility,
    FeasibilityVerdict,
    GRANTING_REASONS,
    InstanceParams,
    LimitError,
    Mode,
    ParamError,
    Reason,
    Vertex,
    Word,
    enumerate_objects,
    feasibility,
    is_valid_vertex,
    is_valid_word,
    min_vertex,
    object_count,
    validate_params,
    vertex_count,
    vertices,
)
from .graph import Edge, TransitionGraph, build_graph, edge_for_word
from .euler import (
    EulerTour,
    OverlapCycle,
    TourIncomplete,
    euler_tour,
    tour_to_cycle,
)
from .connect import (
    Direction,
    PathCertificate,
    PathStep,
    ReplayReport,
    StepCapExceeded,
    WalkError,
    bfs_path,
    find_path,
    replay_certificate,
    step_cap,
    walk_general,
    walk_multiset,
)
from .verify import (
    DEFAULT_ORACLE_BUDGET,
    ORACLE_OBJECT_CAP,
    OracleResult,
    OracleStatus,
    VerificationReport,
    hamilton_oracle,
    verify_cycle_string,
    verify_object_list,
)

__version__ = "0.1.0"
