"""Radio labeling toolkit for mesh-by-star product networks.

Builds path/star/mesh families and their Cartesian products, computes
exact radio numbers on small graphs by two independent methods, realizes
the pair-walk labeling constructions, evaluates a catalog of closed-form
span bounds with exact rational arithmetic, and adjudicates every
catalog claim against BFS / exhaustive-search ground truth.
"""

from .graphs import (
    UNREACHABLE,
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InvalidParameterError,
    all_pairs_distances,
    bfs_all_pairs,
    bfs_distances,
    build_mesh,
    build_path,
    build_star,
    cartesian_product,
    diameter,
    is_connected,
)
from .labeling import (
    Labeling,
    LabelingContractError,
    OrderingPlan,
    ValidityReport,
    Violation,
    consecutive_only_assign,
    greedy_assign,
    validate,
)
from .orderings import (
    ConstructionLabelings,
    build_construction_labeling,
    construction_ordering,
    even_pair_ordering,
    odd_three_phase_ordering,
)
from .product import (
    CellIndexing,
    ParityError,
    ProductGraph,
    ProductParams,
    VertexCoord,
    build_product_graph,
    cell_of,
    fiber_vertex_id,
    vertex_coord,
    vertex_id,
)
from .search import (
    DEFAULT_NODE_LIMIT,
    ORACLE_MAX_VERTICES,
    OracleSizeError,
    RnResult,
    RnStatus,
    exact_rn,
    gap_matrix,
    minimize_span,
    permutation_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE",
    "DisconnectedGraphError",
    "DistanceMatrix",
    "Graph",
    "InvalidParameterError",
    "all_pairs_distances",
    "bfs_all_pairs",
    "bfs_distances",
    "build_mesh",
    "build_path",
    "build_star",
    "cartesian_product",
    "diameter",
    "is_connected",
    "Labeling",
    "LabelingContractError",
    "OrderingPlan",
    "ValidityReport",
    "Violation",
    "consecutive_only_assign",
    "greedy_assign",
    "validate",
    "ConstructionLabelings",
    "build_construction_labeling",
    "construction_ordering",
    "even_pair_ordering",
    "odd_three_phase_ordering",
    "CellIndexing",
    "ParityError",
    "ProductGraph",
    "ProductParams",
    "VertexCoord",
    "build_product_graph",
    "cell_of",
    "fiber_vertex_id",
    "vertex_coord",
    "vertex_id",
    "DEFAULT_NODE_LIMIT",
    "ORACLE_MAX_VERTICES",
    "OracleSizeError",
    "RnResult",
    "RnStatus",
    "exact_rn",
    "gap_matrix",
    "minimize_span",
    "permutation_oracle",
    "__version__",
]
