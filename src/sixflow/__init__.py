"""Nowhere-zero 6-flows on 2-edge-connected multigraphs.

Constructs a nowhere-zero Z2 x Z3 flow whose f2 component vanishes at a
chosen root, and converts it into a nowhere-zero integer 6-flow, with
verifiers, brute-force oracles, and graph generators.
"""

from .connectivity import (
    bridges,
    components,
    is_2_edge_connected,
    two_edge_disjoint_paths,
)
from .construct import (
    ConstructionTrace,
    extend_flow_over_contraction,
    extend_nonzero_parallel,
    solve,
)
from .errors import (
    GuardError,
    InputError,
    InternalCheckError,
    SixflowError,
    StructuralError,
)
from .flows import (
    GroupFlow,
    IntegerFlow,
    excess_int,
    excess_pair,
    negate_f3,
    support,
    verify_flow,
    verify_k_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from .multigraph import Edge, Multigraph
from .testkit import (
    check_rooted_flows_exhaustive,
    enumerate_nz_flows,
    enumerate_small_2ec_multigraphs,
    random_2ec_multigraph,
)
from .tutte import (
    group_flow_to_integer_flow,
    group_flow_to_z6,
    integer_flow_to_group,
    pair_to_z6,
    z6_to_pair,
)

__all__ = [
    "ConstructionTrace",
    "Edge",
    "GroupFlow",
    "GuardError",
    "InputError",
    "IntegerFlow",
    "InternalCheckError",
    "Multigraph",
    "SixflowError",
    "StructuralError",
    "bridges",
    "check_rooted_flows_exhaustive",
    "components",
    "enumerate_nz_flows",
    "enumerate_small_2ec_multigraphs",
    "excess_int",
    "excess_pair",
    "extend_flow_over_contraction",
    "extend_nonzero_parallel",
    "group_flow_to_integer_flow",
    "group_flow_to_z6",
    "integer_flow_to_group",
    "is_2_edge_connected",
    "negate_f3",
    "pair_to_z6",
    "random_2ec_multigraph",
    "solve",
    "support",
    "two_edge_disjoint_paths",
    "verify_flow",
    "verify_k_flow",
    "verify_nowhere_zero",
    "verify_rooted",
    "z6_to_pair",
]

__version__ = "0.1.0"
