"""Distillability numerics for low-rank bipartite quantum states.

Dense, seeded, and deterministic: density-matrix reductions and partial
transposes, Choi-state channel duality, local filtering protocols with
explicit two-way rate bounds, one-way distillability witnesses, a
full-undistillability classifier for tripartite pure states, and a Haar
sampling harness.
"""

from .channels import (
    ChoiChannel,
    complement_channel,
    flagged_depolarizing_channel,
    maximally_entangled,
    werner_holevo_channel,
)
from .distill import (
    DistillabilityReport,
    FilterOutcome,
    SeparabilityRecord,
    WitnessSearchOutcome,
    classify,
    filtered_hashing_rate,
    find_one_way_witness,
    local_filter,
    low_rank_rate_bound,
    separability_verdict,
)
from .kernels import DEFAULT_RANK_TOL, HermitianSpectrum, hermitian_eig
from .sampling import EnsembleReport, EnsembleSpec, run_experiment, sample_pure, sample_state
from .states import (
    DEFAULT_PPT_TOL,
    DensityMatrix,
    PptVerdict,
    TripartitePureState,
    coherent_information,
    complement,
    conditional_marginal,
    is_ppt,
    partial_trace,
    partial_transpose,
    purify,
    schmidt_rank,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiChannel",
    "DEFAULT_PPT_TOL",
    "DEFAULT_RANK_TOL",
    "DensityMatrix",
    "DistillabilityReport",
    "EnsembleReport",
    "EnsembleSpec",
    "FilterOutcome",
    "HermitianSpectrum",
    "PptVerdict",
    "SeparabilityRecord",
    "TripartitePureState",
    "WitnessSearchOutcome",
    "classify",
    "coherent_information",
    "complement",
    "complement_channel",
    "conditional_marginal",
    "filtered_hashing_rate",
    "find_one_way_witness",
    "flagged_depolarizing_channel",
    "hermitian_eig",
    "is_ppt",
    "local_filter",
    "low_rank_rate_bound",
    "maximally_entangled",
    "partial_trace",
    "partial_transpose",
    "purify",
    "run_experiment",
    "sample_pure",
    "sample_state",
    "schmidt_rank",
    "separability_verdict",
    "von_neumann_entropy",
    "werner_holevo_channel",
]
