"""Exact reconstruction, phase-adjusted realification into R^6, and certified
valuation bounds for the 165-ray / 130-context qutrit Kochen-Specker
configuration built from four mutually unbiased bases."""

from .exact import (
    EisensteinInt,
    QuadReal,
    VecC3,
    VecR6,
    conj_cross,
    dot6,
    hermitian_inner,
    permutation_equivalent,
    phi0,
)
from .configuration import (
    Configuration,
    Ray,
    build_contexts,
    canonicalize,
    closure_generate,
    export_rays,
    ingest_rays,
    is_unbiased,
    mub_bases,
    mub_seed,
    subconfiguration,
)
from .realify import (
    FaithfulnessReport,
    PhaseAssignment,
    is_spurious_exact,
    phase_apply_export,
    rational_phase_search,
    verify_faithful,
)
from .valuations import (
    ModelKind,
    OptimizationResult,
    Valuation,
    check_valuation,
    covered_contexts,
    global_sum_bounds,
    ks_colorable,
    maximize_covered_contexts,
    replay_certificate,
)

__version__ = "0.1.0"
