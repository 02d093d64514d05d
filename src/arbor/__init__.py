"""Exact isoperimetry and amenability analysis for locally finite trees.

The package is organized around one loop: explore a tree through a neighbor
oracle, iterate the leaf-removal operator locally, and either produce finite
subsets witnessing small boundary ratios or certify a positive lower bound
from declared structure bounds. A statistics layer samples random trees and
checks the survival dichotomy numerically. All ratios are exact fractions;
all randomness is seeded.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .amenability import (
    AmenabilityReport,
    CheegerResult,
    ClassifyBudgets,
    DeclaredBounds,
    FolnerCandidate,
    SandwichResult,
    cheeger_exact,
    classify,
    jsonable,
    min_degree3_bound_check,
    sandwich_check,
)
from .errors import (
    ArborError,
    BudgetExhaustedError,
    DeclaredBoundsRefutedError,
    DegenerateImageError,
    IncompleteKnowledgeError,
    InsufficientDepthError,
    InvalidVertexError,
    NoBranchStructureError,
    NotATreeError,
    SearchTooLargeError,
    UnknownFixtureError,
    UnsupportedStructureError,
)
from .exploration import Ball, TreeAsOracle, explore_ball
from .fixtures import list_fixtures, make_fixture
from .galton_watson import (
    DichotomyReport,
    GrowthReport,
    GWSample,
    GWSpec,
    MonteCarloEventResult,
    event_path_prob,
    event_sary_prob,
    extinction_probability,
    generation_growth_check,
    monte_carlo_event,
    sample,
    verify_dichotomy,
)
from .subsets import (
    boundary_of,
    connected_subsets,
    random_connected_subset,
)
from .trees import (
    Tree,
    canonical_form,
    parse_child_list,
    parse_tree,
    path_tree,
    sary_tree,
    serialize_child_list,
    subdivide_tree,
)
from .trimming import (
    TrimOrbit,
    TrimmedView,
    ball_code_sequence,
    detect_period,
    is_inessential,
    trim_depth,
    trim_orbit,
)

__all__ = [
    "__version__",
    # trees
    "Tree",
    "canonical_form",
    "parse_tree",
    "parse_child_list",
    "serialize_child_list",
    "path_tree",
    "sary_tree",
    "subdivide_tree",
    # subsets
    "boundary_of",
    "connected_subsets",
    "random_connected_subset",
    # exploration
    "Ball",
    "TreeAsOracle",
    "explore_ball",
    "list_fixtures",
    "make_fixture",
    # trimming
    "trim_orbit",
    "TrimOrbit",
    "trim_depth",
    "TrimmedView",
    "ball_code_sequence",
    "detect_period",
    "is_inessential",
    # amenability
    "FolnerCandidate",
    "CheegerResult",
    "cheeger_exact",
    "SandwichResult",
    "sandwich_check",
    "min_degree3_bound_check",
    "DeclaredBounds",
    "ClassifyBudgets",
    "AmenabilityReport",
    "classify",
    "jsonable",
    # random trees
    "GWSpec",
    "GWSample",
    "sample",
    "extinction_probability",
    "event_path_prob",
    "event_sary_prob",
    "MonteCarloEventResult",
    "monte_carlo_event",
    "GrowthReport",
    "generation_growth_check",
    "DichotomyReport",
    "verify_dichotomy",
    # errors
    "ArborError",
    "InvalidVertexError",
    "NotATreeError",
    "UnknownFixtureError",
    "IncompleteKnowledgeError",
    "BudgetExhaustedError",
    "SearchTooLargeError",
    "DegenerateImageError",
    "NoBranchStructureError",
    "UnsupportedStructureError",
    "InsufficientDepthError",
    "DeclaredBoundsRefutedError",
    # SandwichViolationError stays in arbor.errors: sandwich_check raises it only
    # when the library's own contraction breaks its stretch bound, a defect no
    # caller can act on beyond what catching ArborError gives.
]
