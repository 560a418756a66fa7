"""Exact classification of Ulrich bundle data on bidouble planes.

Branch degrees in, verdicts out: surface invariants, Picard-number
classification through the intermediate double planes, Ulrich line-bundle
status with replayable elimination traces, Ulrich complexity, and the
constructive rank-two recipe, all in exact integer and rational
arithmetic.
"""

from .citations import ALL_LABELS, canonical_order
from .classify import (
    Classification,
    ComplexityVerdict,
    LineBundleStatus,
    classify_triple,
    in_t1,
    in_t2,
    line_bundle_status,
    ulrich_complexity,
)
from .construction import CBRecipe, special_rank2_recipe, verify_recipe
from .errors import (
    ConsistencyError,
    DisconnectedError,
    DomainError,
    ExcludedCaseError,
    ParityError,
    ShapeError,
)
from .geometry import (
    BranchTriple,
    IntermediatePicard,
    PicardClassification,
    SurfaceInvariants,
    intermediate_picard,
    invariants,
    picard_classification,
    picard_jump_family,
    validate_triple,
)
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    arithmetic_genus,
    brute_force_search,
    delpezzo_lattice,
    k3_024_lattice,
    p1xp1_lattice,
    pair,
    preset_lattice,
    rank1_bidouble_lattice,
)
from .numerics import (
    CitedLine,
    FeasibilityVerdict,
    Report,
    UlrichCandidate,
    check_numerical_ulrich,
    is_perfect_square,
    odd_rank_obstruction,
    p1xp1_line_search,
    rank1_rho1_search,
    special_ulrich_targets,
    verify_024_certificate,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_LABELS",
    "BranchTriple",
    "CBRecipe",
    "CitedLine",
    "Classification",
    "ComplexityVerdict",
    "ConsistencyError",
    "DisconnectedError",
    "DivisorClass",
    "DomainError",
    "ExcludedCaseError",
    "FeasibilityVerdict",
    "IntermediatePicard",
    "IntersectionLattice",
    "LineBundleStatus",
    "ParityError",
    "PicardClassification",
    "Report",
    "ShapeError",
    "SurfaceInvariants",
    "UlrichCandidate",
    "arithmetic_genus",
    "brute_force_search",
    "canonical_order",
    "check_numerical_ulrich",
    "classify_triple",
    "delpezzo_lattice",
    "in_t1",
    "in_t2",
    "intermediate_picard",
    "invariants",
    "is_perfect_square",
    "k3_024_lattice",
    "line_bundle_status",
    "odd_rank_obstruction",
    "p1xp1_lattice",
    "p1xp1_line_search",
    "pair",
    "picard_classification",
    "picard_jump_family",
    "preset_lattice",
    "rank1_bidouble_lattice",
    "rank1_rho1_search",
    "special_rank2_recipe",
    "special_ulrich_targets",
    "ulrich_complexity",
    "validate_triple",
    "verify_024_certificate",
    "verify_recipe",
]
