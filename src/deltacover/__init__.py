"""Exact and approximate continuous delta-covering on unit-edge graphs."""

from .graphs import (
    Cover,
    Graph,
    GraphValidationError,
    InvalidPointError,
    Point,
    induced_subgraph,
    is_forest,
    point_distance,
    subdivide,
    wreath_k2,
)
from .verify import (
    InternalConsistencyError,
    InvalidCoverError,
    VerifyReport,
    is_delta_cover,
)
from .solver import (
    Budget,
    SetCoverInstance,
    SolveResult,
    build_set_cover,
    harmonic_number,
    min_cover_exact,
    solve_exact,
    solve_greedy,
)
from .matching import (
    GEDecomposition,
    Matching,
    NotAForestError,
    gallai_edmonds,
    max_matching,
    one_cover_min,
    translate_cover_down,
    tree_cover,
    unit_fraction_cover,
)
from .approx import (
    LevelPartition,
    RatioReport,
    approx_cover,
    cover_leaf_level,
    cover_small_delta_even,
    cover_small_delta_odd,
    cover_vertex_set,
    cover_via_one_cover,
    level_partition,
    translate_cover_up,
    vertex_set_interval,
)
from .families import (
    FamilyInstance,
    KnownValue,
    gen_ds_reduction,
    gen_star_subdivision,
    gen_triangles_center,
    gen_triangles_paths,
    gen_ugc_gadget,
)

__version__ = "0.1.0"
