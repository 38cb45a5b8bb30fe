"""Row interpolative decompositions via randomized pivot sampling.

The central entry point is :func:`arp_decompose`, which picks a set of
representative rows ``S`` of a matrix ``A`` and an interpolation matrix
``W`` so that ``W @ A[S, :]`` approximates ``A``. Pivots are drawn from the
volume-sampling distribution of a sketched orthonormal range basis, using a
block rejection sampler; :mod:`rowpick.oracle` provides brute-force
enumeration ground truth for every distributional identity the sampler is
supposed to satisfy.
"""

from .bench import (
    METHOD_ORDER,
    BenchmarkRecord,
    read_records_csv,
    run_bench,
    run_method,
    summarize_records,
    write_records_csv,
)
from .decompose import (
    VARIANTS,
    ArpConfig,
    InterpolativeDecomposition,
    arp_decompose,
    build_w,
    fro_norm,
    rangefinder,
    residual_fro,
    select_pivots,
)
from .errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    InvalidParamError,
    InvalidSparsityError,
    MaxRoundsExceededError,
    NotOrthonormalError,
    NotPSDError,
    ParseError,
    RaggedTableError,
    RankDeficientError,
    RankDeficientUpdateError,
    RowpickError,
    TooLargeError,
)
from .linalg import (
    RANK_RTOL,
    apply_pinv_right,
    orth,
    squared_row_norms,
    svd_pinv_apply,
)
from .matrices import (
    MatrixSpec,
    gen_decay_dense,
    gen_decay_sparse,
    gen_kernel,
    load_geo_series_matrix,
)
from .oracle import (
    SubsetDistribution,
    check_active_regression,
    check_optimality,
    enumerate_kdpp_probs,
    enumerate_volume_probs,
    expected_type1_error,
    optimality_instance,
)
from .samplers import (
    PivotSet,
    rejection_rpqr,
    rpqr_sequential,
)
from .sketch import (
    SparseSignEmbedding,
    materialize,
    sketch_apply,
    sparse_sign_embedding,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "ArpConfig",
    "BenchmarkRecord",
    "DimensionMismatchError",
    "EmptyMatrixError",
    "InterpolativeDecomposition",
    "InvalidParamError",
    "InvalidSparsityError",
    "METHOD_ORDER",
    "MatrixSpec",
    "MaxRoundsExceededError",
    "NotOrthonormalError",
    "NotPSDError",
    "ParseError",
    "PivotSet",
    "RANK_RTOL",
    "RaggedTableError",
    "RankDeficientError",
    "RankDeficientUpdateError",
    "RowpickError",
    "SparseSignEmbedding",
    "SubsetDistribution",
    "TooLargeError",
    "VARIANTS",
    "apply_pinv_right",
    "arp_decompose",
    "build_w",
    "check_active_regression",
    "check_optimality",
    "enumerate_kdpp_probs",
    "enumerate_volume_probs",
    "expected_type1_error",
    "fro_norm",
    "gen_decay_dense",
    "gen_decay_sparse",
    "gen_kernel",
    "load_geo_series_matrix",
    "materialize",
    "optimality_instance",
    "orth",
    "rangefinder",
    "read_records_csv",
    "rejection_rpqr",
    "residual_fro",
    "rpqr_sequential",
    "run_bench",
    "run_method",
    "run_verify",
    "select_pivots",
    "sketch_apply",
    "sparse_sign_embedding",
    "squared_row_norms",
    "summarize_records",
    "svd_pinv_apply",
    "write_records_csv",
]
