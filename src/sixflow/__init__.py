"""Nowhere-zero 6-flows on 2-edge-connected multigraphs.

Constructs a nowhere-zero Z2 x Z3 flow whose f2 component vanishes at a
chosen root, and converts it into a nowhere-zero integer 6-flow, with
verifiers, brute-force oracles, and graph generators. Every name below is
used by the package itself or by its benchmark, except the few that
``tests/test_public_surface.py`` lists with the reason each is kept.
"""

from .connectivity import (
    bridges,
    components,
    is_2_edge_connected,
    two_edge_disjoint_paths,
)
from .construct import (
    ConstructionTrace,
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
    negate_f3,
    verify_flow,
    verify_k_flow,
    verify_nowhere_zero,
    verify_rooted,
)
from .multigraph import Edge, Multigraph
from .testkit import (
    enumerate_nz_flows,
    enumerate_small_2ec_multigraphs,
    random_2ec_multigraph,
)
from .tutte import (
    group_flow_to_integer_flow,
    group_flow_to_z6,
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
    "components",
    "enumerate_nz_flows",
    "enumerate_small_2ec_multigraphs",
    "extend_nonzero_parallel",
    "group_flow_to_integer_flow",
    "group_flow_to_z6",
    "is_2_edge_connected",
    "negate_f3",
    "pair_to_z6",
    "random_2ec_multigraph",
    "solve",
    "two_edge_disjoint_paths",
    "verify_flow",
    "verify_k_flow",
    "verify_nowhere_zero",
    "verify_rooted",
    "z6_to_pair",
]

__version__ = "0.1.0"
