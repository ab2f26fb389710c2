"""Exact inversion numbers and tournament minimum rank over GF(2)."""

from .digraph import (
    OrientedGraph,
    ParseError,
    Tournament,
    UsageError,
    VertexFamily,
    decode,
    dijoin,
    encode,
    induced,
    invert,
    is_acyclic,
    njoin,
    reverse,
    topological_order,
    transitive_tournament,
)
from .gf2 import (
    MatGF2,
    SymMatGF2,
    factor_symmetric,
    full_rank_principal,
    gram,
    inverse_full_rank,
    rank,
    schur_update,
)
from .decycling import (
    Certificate,
    family_certificate,
    family_to_matrix,
    is_decycling_family,
    is_decycling_matrix,
    matrix_certificate,
    matrix_to_family,
)
from .search import (
    Inconclusive,
    InvResult,
    SearchBudget,
    TmrResult,
    TrichotomyReport,
    check_trichotomy,
    solve_inv,
    solve_tmr,
    verify_certificate,
)
from .constructions import (
    compose_dijoin_family,
    extend_to_tournament,
)
from .explorer import (
    ScanReport,
    SchurProbeRecord,
    canonical_form,
    enumerate_tournaments,
    replay,
    run_scan,
    scan_inv_lower_bound,
    scan_schur_3x3,
    scan_tmr_additivity,
    schur_probe,
    verify_dijoin_theorems,
)

__version__ = "0.1.0"
