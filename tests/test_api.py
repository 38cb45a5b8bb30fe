"""The public surface of ``rowpick``, pinned: adding, removing or renaming
a public name means editing this list on purpose."""

import rowpick

PUBLIC = [
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
    "PivotSet",
    "RANK_RTOL",
    "RankDeficientError",
    "RankDeficientUpdateError",
    "RejectionSampler",
    "RowpickError",
    "SequentialSampler",
    "SubsetDistribution",
    "TooLargeError",
    "VARIANTS",
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
    "optimality_instance",
    "orth",
    "pinv",
    "rangefinder",
    "rejection_rpqr",
    "residual_fro",
    "rpqr_sequential",
    "run_bench",
    "run_method",
    "run_verify",
    "select_pivots",
    "sketch_apply",
    "sparse_sign_embedding",
    "summarize_records",
    "write_records_csv",
]


def test_public_names_are_pinned():
    assert sorted(rowpick.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in rowpick.__all__:
        assert getattr(rowpick, name) is not None, name
