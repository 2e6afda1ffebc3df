"""Robust component analysis for labeled, incompletely observed data.

Training decomposes a data matrix into per-attribute shared components (an
orthonormal basis times bank-shared selectors per attribute), a low-rank
individual component, and a sparse error, under a binary visibility mask.
Reconstruction completes or re-labels vectors against a trained model, one
at a time or a block of them at once.
"""
from .dataset import (
    AttributeSchema,
    Sample,
    SelectorBank,
    TrainingSet,
    assemble,
    columns_of,
    materialize_h,
)
from .errors import (
    DegenerateMatrixError,
    FormatError,
    MarcError,
    NumericalError,
    ValidationError,
)
from .proxops import (
    RankRule,
    deterministic_svd,
    procrustes,
    random_orthonormal,
    shrink_matrix,
    svt,
)
from .reconstructor import (
    ReconConfig,
    ReconResult,
    TransferSpec,
    build_span,
    complete,
    reconstruct,
    reconstruct_many,
    transfer,
)
from .synthbench import (
    GroundTruth,
    HeldOutSample,
    MetricsReport,
    SynthSpec,
    default_spec,
    generate,
    holdout_sample,
    procrustes_sampling_oracle,
    recovery_metrics,
    rpca_reference,
)
from .trainer import ModelBundle, Schedule, SolverConfig, TrainDiagnostics, train

__version__ = "0.1.0"

__all__ = [
    "AttributeSchema",
    "DegenerateMatrixError",
    "FormatError",
    "GroundTruth",
    "HeldOutSample",
    "MarcError",
    "MetricsReport",
    "ModelBundle",
    "NumericalError",
    "RankRule",
    "ReconConfig",
    "ReconResult",
    "Sample",
    "Schedule",
    "SelectorBank",
    "SolverConfig",
    "SynthSpec",
    "TrainDiagnostics",
    "TrainingSet",
    "TransferSpec",
    "ValidationError",
    "assemble",
    "build_span",
    "columns_of",
    "complete",
    "default_spec",
    "deterministic_svd",
    "generate",
    "holdout_sample",
    "materialize_h",
    "procrustes",
    "procrustes_sampling_oracle",
    "random_orthonormal",
    "reconstruct",
    "reconstruct_many",
    "recovery_metrics",
    "rpca_reference",
    "shrink_matrix",
    "svt",
    "train",
    "transfer",
]
