"""The public surface of ``rowpick``, pinned: adding, removing or renaming
a public name, a field of ``ArpConfig``, a parameter of ``rangefinder``,
``run_method`` or ``run_bench``, or an option of a CLI subcommand means
editing these lists on purpose."""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

import rowpick
from rowpick import bench, decompose
from rowpick.cli import _build_parser, main

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


SETTABLE = {
    "ArpConfig": ["k", "variant", "seed"],
    "rangefinder": ["A", "k", "rng"],
    "run_method": ["method", "A", "k", "rng"],
    "run_bench": ["spec", "methods", "k_list", "seeds", "out_path"],
}

CLI_OPTIONS = {
    "gen": ["--full-scale", "--matrix", "--out"],
    "decompose": ["--full-scale", "--k", "--matrix", "--method", "--out", "--seed"],
    "bench": ["--full-scale", "--k", "--matrix", "--method", "--out", "--seed",
              "--trials"],
    "verify": ["--corrupt", "--draws", "--json", "--seed"],
}


def test_settable_surface_is_pinned():
    fields = [f.name for f in dataclasses.fields(rowpick.ArpConfig)]
    assert fields == SETTABLE["ArpConfig"]
    for name in ("rangefinder", "run_method", "run_bench"):
        assert list(inspect.signature(getattr(rowpick, name)).parameters) == SETTABLE[name]


def test_cli_options_are_pinned():
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {name: sorted(option for action in parser._actions
                            for option in action.option_strings
                            if option not in ("-h", "--help"))
               for name, parser in sub.choices.items()}
    assert options == CLI_OPTIONS


@pytest.mark.parametrize("call", [
    lambda A, rng: rowpick.ArpConfig(k=2, zeta=4),
    lambda A, rng: rowpick.rangefinder(A, 2, rng, zeta=4),
    lambda A, rng: rowpick.run_method("SkARP", A, 2, rng, zeta=4),
    lambda A, rng: rowpick.run_bench(rowpick.MatrixSpec.parse("kernel:g=4"), ["ARP"],
                                     [2], [0], zeta=4),
])
def test_sparsity_is_not_an_argument(call):
    with pytest.raises(TypeError, match="zeta"):
        call(np.eye(6), np.random.default_rng(0))


@pytest.mark.parametrize("command", ["decompose", "bench"])
def test_sparsity_is_not_a_cli_option(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--matrix", "kernel:g=4", "--k", "2", "--zeta", "4",
              "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --zeta 4" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _round_up(k):
    return -(-k // 4) * 4


@pytest.mark.parametrize("m, k, basis", [
    (40, 3, (4, 4)), (40, 5, (8, 4)),
    (6, 6, (6, 2)),  # a width of 8 exceeds the 6 rows: k wide, gcd(6, 4) per row
])
def test_embeddings_have_four_nonzeros_per_row(m, k, basis, monkeypatch):
    # the rangefinder's embedding, then the osid one, then SkQR's
    drawn = []

    def spy(real):
        def embedding(n, width, zeta, rng):
            omega = real(n, width, zeta, rng)
            drawn.append((omega.shape[1], *np.unique(np.diff(sp.csr_array(omega).indptr))))
            return omega
        return embedding

    for module in (decompose, bench):
        monkeypatch.setattr(module, "sparse_sign_embedding",
                            spy(module.sparse_sign_embedding))
    A = np.random.default_rng(0).standard_normal((m, 30))
    rowpick.arp_decompose(A, rowpick.ArpConfig(k=k, seed=1))
    assert drawn == [basis, (_round_up(2 * k), 4)]
    drawn.clear()
    rowpick.run_method("SkQR", A, k, np.random.default_rng(1))
    assert drawn == [(_round_up(k), 4), (_round_up(2 * k), 4)]
