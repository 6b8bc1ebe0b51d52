import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppghrv.errors import ConfigError, HrvError
from ppghrv.models.base import ModelKind
from ppghrv.models.codec import (
    MAGIC,
    _write_varint,
    decode,
    encode,
    load_model,
    save_model,
    serialized_size,
)
from ppghrv.models.forest import train_rf
from ppghrv.models.knn import train_knn
from ppghrv.models.mlp import MlpTrainingConfig, train_mlp
from ppghrv.models.tree import train_dt
from helpers import make_ds


@pytest.fixture(scope="module")
def train_set():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(90, 6))
    y = X[:, 0] * 4.0 + X[:, 2] + rng.normal(scale=0.3, size=90) + 30.0
    return make_ds(X, y)


def fitted_models(train_set):
    cfg = MlpTrainingConfig(max_epochs=15)
    return [
        train_dt(train_set, max_depth=6),
        train_rf(train_set, trees=4, max_depth=4, seed=1),
        train_knn(train_set, k=3, distance="manhattan"),
        train_mlp(train_set, (7, 5), "tanh", cfg=cfg, seed=2),
    ]


class TestRoundTrip:
    def test_predictions_bit_identical(self, train_set):
        rng = np.random.default_rng(13)
        probes = rng.normal(size=(100, 6))
        for model in fitted_models(train_set):
            clone = decode(encode(model))
            assert clone.kind is model.kind
            assert clone.n_features == model.n_features
            np.testing.assert_array_equal(
                clone.predict_batch(probes), model.predict_batch(probes)
            )
            for m in (model, clone):
                # the single-row predict is the batch's row, bit for bit, except
                # that BLAS rounds the MLP's one-row product (gemv) and its
                # many-row one (gemm) differently
                singles = np.array([m.predict(p) for p in probes])
                batch = m.predict_batch(probes)
                if m.kind is ModelKind.MLP:
                    np.testing.assert_allclose(singles, batch, rtol=1e-12, atol=0.0)
                else:
                    assert singles.tobytes() == batch.tobytes()
                with pytest.raises(HrvError, match=r"model expects 6 features, got shape \(5,\)$"):
                    m.predict(probes[0][:5])

    def test_reencode_is_stable(self, train_set):
        for model in fitted_models(train_set):
            blob = encode(model)
            assert encode(decode(blob)) == blob

    def test_save_load_file(self, tmp_path, train_set):
        model = train_dt(train_set, max_depth=4)
        path = tmp_path / "model.bin"
        save_model(model, path)
        clone = load_model(path)
        probe = np.zeros(6)
        assert clone.predict(probe) == model.predict(probe)

    def test_serialized_size_matches_encoding(self, train_set):
        for model in fitted_models(train_set):
            assert serialized_size(model) == len(encode(model))


class TestSizeBounds:
    def test_single_leaf_tree_under_100_bytes(self):
        ds = make_ds(np.arange(10.0), np.full(10, 3.0))
        model = train_dt(ds, max_depth=20)
        assert model.n_nodes() == 1
        assert serialized_size(model) < 100

    def test_wide_mlp_under_500_kb(self):
        # n=300 features plus the rough-HRV slot, two 50-neuron layers
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 301))
        y = rng.uniform(20, 60, size=40)
        model = train_mlp(
            make_ds(X, y), (50, 50), "relu", cfg=MlpTrainingConfig(max_epochs=2), seed=0
        )
        assert serialized_size(model) < 500 * 1024


class TestParseFailures:
    def test_bad_magic(self):
        with pytest.raises(HrvError, match='bad magic bytes'):
            decode(b"NOPE\x01" + b"\x00" * 20)

    def test_truncated(self, train_set):
        blob = encode(train_dt(train_set, max_depth=3))
        with pytest.raises(HrvError, match='tree claims 15 nodes but 56 bytes remain'):
            decode(blob[: len(blob) // 2])

    def test_trailing_garbage(self, train_set):
        blob = encode(train_dt(train_set, max_depth=3))
        with pytest.raises(HrvError, match='1 trailing bytes in model file'):
            decode(blob + b"\x00")

    def test_unknown_kind_tag(self):
        with pytest.raises(HrvError, match='unknown model kind tag 9'):
            decode(MAGIC + bytes([9]) + b"\x01")


def varints(*values):
    buf = bytearray()
    for v in values:
        _write_varint(buf, v)
    return bytes(buf)


def tree_body(nodes):
    """Node table; a node is a float leaf value or a (feature, left, right)
    split, optionally followed by its threshold (0.5 if left out)."""
    body = varints(len(nodes))
    for node in nodes:
        if isinstance(node, float):
            body += varints(0) + struct.pack("<d", node)
        else:
            feature, left, right = node[:3]
            threshold = node[3] if len(node) > 3 else 0.5
            body += varints(feature + 1) + struct.pack("<f", threshold)
            body += varints(left, right)
    return body


def dt_file(n_features, nodes):
    return MAGIC + bytes([0]) + varints(n_features) + tree_body(nodes)


def rf_file(n_features, trees):
    return MAGIC + bytes([1]) + varints(n_features, len(trees)) + b"".join(
        tree_body(t) for t in trees
    )


def knn_file(k, rows, mu=0.0, sigma=1.0, row=0.0, label=1.0):
    # one feature, euclidean; mu, sigma, the rows and their labels
    return (
        MAGIC + bytes([2]) + varints(1, k) + bytes([1]) + varints(rows)
        + np.array([mu, sigma] + [row] * rows, dtype="<f4").tobytes()
        + np.full(rows, label, dtype="<f8").tobytes()
    )


def mlp_file(out_width, weight=1.0, bias=1.0, x_sigma=1.0, y_sigma=1.0):
    # one feature, one relu layer of width out_width, then x_mu, x_sigma, y_mu, y_sigma
    return (
        MAGIC + bytes([3]) + varints(1) + bytes([0]) + varints(1, 1, out_width)
        + np.array([weight] * out_width + [bias] * out_width + [1.0, x_sigma],
                   dtype="<f4").tobytes()
        + struct.pack("<dd", 0.0, y_sigma)
    )


STUMP = [(0, 1, 2), 1.0, 2.0]


class TestInconsistentFiles:
    @pytest.mark.parametrize("blob", [
        dt_file(1, STUMP),
        rf_file(1, [STUMP]),
        knn_file(k=3, rows=3),
        mlp_file(out_width=1),
    ], ids=["dt", "rf", "knn", "mlp"])
    def test_hand_built_valid_files_decode(self, blob):
        model = decode(blob)
        assert model.predict_batch(np.zeros((2, 1))).shape == (2,)

    @pytest.mark.parametrize("blob, kind", [
        (dt_file(1, STUMP), ModelKind.DT),
        (rf_file(1, [STUMP]), ModelKind.RF),
        (rf_file(1, [STUMP, [0.5]]), ModelKind.RF),
    ], ids=["dt", "rf_one_tree", "rf_two_trees"])
    def test_tree_files_reencode_to_their_bytes(self, blob, kind):
        # dt and rf share the node table; only rf writes a tree count
        model = decode(blob)
        assert model.kind is kind
        assert encode(model) == blob

    @pytest.mark.parametrize("blob, message", [
        (dt_file(1, [(0, 0, 0), 1.0]), "children"),
        (dt_file(1, [(0, 2, 1), 1.0, (0, 1, 1)]), "children"),
        (dt_file(1, [(0, 1, 3), 1.0, 2.0]), "children"),
        (dt_file(1, [(1, 1, 2), 1.0, 2.0]), "feature 1 of 1"),
        (MAGIC + bytes([0]) + varints(1, 2**34), "bytes remain"),
        (rf_file(1, []), "zero trees"),
        (knn_file(k=9, rows=3), "k=9"),
        (knn_file(k=0, rows=3), "k=0"),
        (mlp_file(out_width=2), "output width"),
        (dt_file(1, [float("nan")]), "non-finite leaf value"),
        (dt_file(1, [(0, 1, 2, float("inf")), 1.0, 2.0]), "non-finite split threshold"),
        (rf_file(1, [STUMP, [(0, 1, 2), 1.0, float("-inf")]]), "non-finite leaf value"),
        (knn_file(k=3, rows=3, mu=float("nan")), "non-finite feature mean"),
        (knn_file(k=3, rows=3, sigma=float("inf")), "non-finite feature std"),
        (knn_file(k=3, rows=3, row=float("nan")), "non-finite stored row"),
        (knn_file(k=3, rows=3, label=float("nan")), "non-finite label"),
        (mlp_file(out_width=1, weight=float("nan")), "non-finite weight"),
        (mlp_file(out_width=1, bias=float("-inf")), "non-finite bias"),
        (mlp_file(out_width=1, x_sigma=float("nan")), "non-finite feature std"),
        (mlp_file(out_width=1, y_sigma=float("inf")), "non-finite label std"),
        (knn_file(k=3, rows=3, sigma=0.0), "non-positive feature std"),
        (knn_file(k=3, rows=3, sigma=-1.0), "non-positive feature std"),
        (mlp_file(out_width=1, x_sigma=0.0), "non-positive feature std"),
        (mlp_file(out_width=1, y_sigma=0.0), "non-positive label std"),
        (dt_file(1, []), "tree with zero nodes"),
        (MAGIC + bytes([3]) + varints(1) + bytes([0]) + varints(0), "MLP with no layers"),
        (MAGIC + bytes([3]) + varints(2) + bytes([0]) + varints(1, 1, 1),
         "input width 1 disagrees with n_features 2"),
        # preorder fixes a split's left child as the next node
        (dt_file(1, [(0, 2, 1), 1.0, 2.0]), "children"),
        (dt_file(1, [(0, 1, 1), 1.0]), "children"),
    ], ids=[
        "self_loop", "child_before_parent", "child_past_table", "feature_out_of_range",
        "node_count_past_end", "forest_without_trees", "knn_k_above_rows", "knn_k_zero",
        "mlp_output_width", "dt_nan_leaf", "dt_inf_threshold", "rf_inf_leaf", "knn_nan_mu",
        "knn_inf_sigma", "knn_nan_row", "knn_nan_label", "mlp_nan_weight", "mlp_inf_bias",
        "mlp_nan_x_sigma", "mlp_inf_y_sigma", "knn_zero_sigma", "knn_negative_sigma",
        "mlp_zero_x_sigma", "mlp_zero_y_sigma", "tree_without_nodes", "mlp_without_layers",
        "mlp_input_width", "left_child_not_next", "right_child_is_left",
    ])
    def test_rejected(self, blob, message):
        with pytest.raises(HrvError, match=message):
            decode(blob)


PROPERTY = settings(max_examples=150, deadline=1000, derandomize=True, database=None)


def predicts_if_decoded(data):
    """decode either refuses with a data error or gives a model that predicts."""
    try:
        model = decode(data)
    except HrvError as err:
        assert not isinstance(err, ConfigError)
        return
    if model.n_features <= 64:
        assert model.predict_batch(np.zeros((1, model.n_features))).shape == (1,)


class TestDecodeProperties:
    @PROPERTY
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        predicts_if_decoded(data)

    @PROPERTY
    @given(st.integers(0, 3), st.binary(max_size=96))
    def test_bytes_after_magic_and_kind(self, tag, tail):
        predicts_if_decoded(MAGIC + bytes([tag]) + tail)


def small_model(kind, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 31))
    X = np.round(rng.normal(size=(m, int(rng.integers(1, 5)))), 1)  # rounding makes ties
    ds = make_ds(X, rng.uniform(10.0, 60.0, size=m))
    if kind == "dt":
        return train_dt(ds, max_depth=int(rng.integers(1, 7)))
    if kind == "rf":
        return train_rf(ds, trees=int(rng.integers(2, 5)), max_depth=int(rng.integers(1, 5)),
                        seed=seed)
    if kind == "knn":
        distance = ("manhattan", "euclidean")[int(rng.integers(2))]
        return train_knn(ds, k=int(rng.integers(2, min(m, 6) + 1)), distance=distance)
    hidden = tuple(int(h) for h in rng.integers(1, 6, size=int(rng.integers(1, 3))))
    activation = ("relu", "tanh")[int(rng.integers(2))]
    return train_mlp(ds, hidden, activation, cfg=MlpTrainingConfig(max_epochs=2), seed=seed)


@pytest.mark.parametrize("kind", ["dt", "rf", "knn", "mlp"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reencode_is_stable_for_small_models(kind, seed):
    blob = encode(small_model(kind, seed))
    assert encode(decode(blob)) == blob


@pytest.mark.parametrize("kind", ["knn", "mlp"])
def test_std_that_rounds_to_zero_in_float32_still_decodes(kind):
    # the second column's std, 5e-301, is 0 once stored as float32
    X = np.column_stack([np.arange(10.0), np.tile([0.0, 1e-300], 5)])
    ds = make_ds(X, 20.0 + np.arange(10.0))
    if kind == "knn":
        model = train_knn(ds, k=2, distance="euclidean")
    else:
        model = train_mlp(ds, (3,), "relu", cfg=MlpTrainingConfig(max_epochs=2))
    preds = model.predict_batch(X)
    assert np.isfinite(preds).all()
    np.testing.assert_array_equal(decode(encode(model)).predict_batch(X), preds)
