"""Compact little-endian binary model files.

Layout (all multi-byte ints are unsigned LEB128 varints, reals are
little-endian IEEE):

    magic  b"HRVM\\x01"
    kind   1 byte: 0=DT 1=RF 2=KNN 3=MLP
    n_features varint
    payload: see encode() below

DT and RF share one tree layout: a varint node count, then one varint tag
per node (feature+1, 0 marks a leaf) followed by a float64 leaf value or a
float32 threshold and two varint child indices; nodes are in preorder, so
a split's left child is always the next node.  A DT payload is one such
table; an RF payload is a varint tree count followed by that many tables.
KNN stores its standardised float32 training matrix and float64 labels.
MLP stores float32 weights/biases and standardisation statistics (float64
for the label scale).  Models keep the same quantised parameters in memory,
so decode(encode(m)) predicts bit-identically.

decode raises HrvError for a file that is malformed or inconsistent:
bad magic or tags, truncation, trailing bytes, tree nodes out of preorder
(a split's left child must be the next node and its right child lie after
that and inside the table, which rules out cycles), a split feature >=
n_features, a node count the remaining bytes cannot hold, a forest with no
trees, KNN k outside [1, stored rows], an MLP whose input width is not
n_features or whose output width is not 1, and any non-finite (nan, inf)
threshold, leaf value, weight, bias, stored row, label or standardisation
statistic.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import HrvError
from ..io import opened
from .base import ModelKind, TrainedModel
from .forest import RandomForest
from .knn import DISTANCES, KnnRegressor
from .mlp import ACTIVATIONS, MlpRegressor
from .tree import LEAF, DecisionTree, TreeModel, TreeNodes

MAGIC = b"HRVM\x01"

# A split node is at least a tag, a float32 threshold and two one-byte child
# varints; a leaf is a tag and a float64.
_MIN_NODE_BYTES = 7

_KIND_TAGS = {ModelKind.DT: 0, ModelKind.RF: 1, ModelKind.KNN: 2, ModelKind.MLP: 3}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
_TREE_MODELS = {ModelKind.DT: DecisionTree, ModelKind.RF: RandomForest}


def _write_varint(buf: bytearray, v: int) -> None:
    if v < 0:  # the loop below would never end
        raise HrvError(f"varints encode non-negative integers only, got {v}")
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise HrvError(f"model file truncated at byte {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def varint(self) -> int:
        v = 0
        shift = 0
        while True:
            b = self.take(1)[0]
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                return v
            shift += 7
            if shift > 63:
                raise HrvError(f"varint too long at byte {self.pos}")

    def f32(self) -> float:
        return struct.unpack("<f", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").astype(np.float32)

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def done(self) -> None:
        if self.remaining():
            raise HrvError(f"{self.remaining()} trailing bytes in model file")


def _finite(values, what: str):
    """values (a float or an array) unchanged; HrvError if any is nan or inf."""
    if not np.isfinite(values).all():
        raise HrvError(f"non-finite {what} in model file")
    return values


def _std(values, what: str):
    """values unchanged; HrvError unless every one is finite and > 0."""
    if not np.all(_finite(values, what) > 0):
        raise HrvError(f"non-positive {what} in model file")
    return values


def _encode_nodes(buf: bytearray, nodes: TreeNodes) -> None:
    _write_varint(buf, len(nodes))
    for i in range(len(nodes)):
        f = int(nodes.feature[i])
        _write_varint(buf, f + 1)
        if f == LEAF:
            buf += struct.pack("<d", float(nodes.value[i]))
        else:
            buf += struct.pack("<f", float(nodes.threshold[i]))
            _write_varint(buf, i + 1)
            _write_varint(buf, int(nodes.right[i]))


def _decode_nodes(r: _Reader, n_features: int) -> TreeNodes:
    """Nodes must be in preorder: a split's left child is the next node and
    its right child lies after that and inside the table, so every walk ends
    at a leaf."""
    count = r.varint()
    if count < 1:
        raise HrvError("tree with zero nodes")
    if count * _MIN_NODE_BYTES > r.remaining():
        raise HrvError(f"tree claims {count} nodes but {r.remaining()} bytes remain")
    feature = np.empty(count, dtype=np.int32)
    threshold = np.zeros(count, dtype=np.float32)
    right = np.full(count, -1, dtype=np.int32)
    value = np.zeros(count, dtype=np.float64)
    for i in range(count):
        tag = r.varint()
        if tag == 0:
            feature[i] = LEAF
            value[i] = r.f64()
            continue
        if tag > n_features:
            raise HrvError(f"node {i} splits on feature {tag - 1} of {n_features}")
        feature[i] = tag - 1
        threshold[i] = np.float32(r.f32())
        lo, hi = r.varint(), r.varint()
        if not lo == i + 1 < hi < count:
            raise HrvError(f"node {i} has children {lo}, {hi}; need left {i + 1} and right "
                           f"in ({i + 1}, {count})")
        right[i] = hi
    _finite(threshold, "split threshold")
    _finite(value, "leaf value")
    return TreeNodes(feature, threshold, right, value)


def encode(model: TrainedModel) -> bytes:
    buf = bytearray(MAGIC)
    buf.append(_KIND_TAGS[model.kind])
    _write_varint(buf, model.n_features)
    if isinstance(model, TreeModel):
        if model.kind is ModelKind.RF:
            _write_varint(buf, len(model.trees))
        for t in model.trees:
            _encode_nodes(buf, t)
    elif isinstance(model, KnnRegressor):
        _write_varint(buf, model.k)
        buf.append(DISTANCES.index(model.distance))
        _write_varint(buf, model.X.shape[0])
        buf += model.mu.astype("<f4").tobytes()
        buf += model.sigma.astype("<f4").tobytes()
        buf += model.X.astype("<f4").tobytes()
        buf += model.y.astype("<f8").tobytes()
    elif isinstance(model, MlpRegressor):
        buf.append(ACTIVATIONS.index(model.activation))
        _write_varint(buf, len(model.params))
        sizes = [model.n_features] + [W.shape[1] for W, _ in model.params]
        for s in sizes:
            _write_varint(buf, s)
        for W, b in model.params:
            buf += W.astype("<f4").tobytes()
            buf += b.astype("<f4").tobytes()
        buf += model.x_mu.astype("<f4").tobytes()
        buf += model.x_sigma.astype("<f4").tobytes()
        buf += struct.pack("<d", model.y_mu)
        buf += struct.pack("<d", model.y_sigma)
    else:
        raise HrvError(f"cannot encode model of type {type(model).__name__}")
    return bytes(buf)


def decode(data: bytes) -> TrainedModel:
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise HrvError("bad magic bytes; not a model file")
    tag = r.take(1)[0]
    if tag not in _TAG_KINDS:
        raise HrvError(f"unknown model kind tag {tag}")
    kind = _TAG_KINDS[tag]
    d = r.varint()
    if d > np.iinfo(np.int32).max:
        raise HrvError(f"n_features {d} overflows the int32 feature column")

    if kind in _TREE_MODELS:
        count = r.varint() if kind is ModelKind.RF else 1
        if count < 1:
            raise HrvError("forest with zero trees")
        trees = [_decode_nodes(r, d) for _ in range(count)]
        r.done()
        return _TREE_MODELS[kind](trees, d)

    if kind is ModelKind.KNN:
        k = r.varint()
        dist_tag = r.take(1)[0]
        if dist_tag >= len(DISTANCES):
            raise HrvError(f"unknown distance tag {dist_tag}")
        m = r.varint()
        if not 1 <= k <= m:
            raise HrvError(f"k={k} outside [1, {m}] stored rows")
        mu = _finite(r.f32_array(d), "feature mean")
        sigma = _std(r.f32_array(d), "feature std")
        X = _finite(r.f32_array(m * d), "stored row").reshape(m, d)
        y = _finite(r.f64_array(m), "label")
        r.done()
        return KnnRegressor(X, y, mu, sigma, k, DISTANCES[dist_tag])

    act_tag = r.take(1)[0]
    if act_tag >= len(ACTIVATIONS):
        raise HrvError(f"unknown activation tag {act_tag}")
    n_layers = r.varint()
    if n_layers < 1:
        raise HrvError("MLP with no layers")
    sizes = [r.varint() for _ in range(n_layers + 1)]
    if sizes[0] != d:
        raise HrvError(f"input width {sizes[0]} disagrees with n_features {d}")
    if sizes[-1] != 1:
        raise HrvError(f"output width {sizes[-1]}, expected 1")
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = _finite(r.f32_array(fan_in * fan_out), "weight").reshape(fan_in, fan_out)
        b = _finite(r.f32_array(fan_out), "bias")
        params.append((W, b))
    x_mu = _finite(r.f32_array(d), "feature mean")
    x_sigma = _std(r.f32_array(d), "feature std")
    y_mu = _finite(r.f64(), "label mean")
    y_sigma = _std(r.f64(), "label std")
    r.done()
    return MlpRegressor(params, ACTIVATIONS[act_tag], x_mu, x_sigma, y_mu, y_sigma)


def serialized_size(model: TrainedModel) -> int:
    """Byte length of the encoded model."""
    return len(encode(model))


def save_model(model: TrainedModel, path) -> None:
    with opened(path, "wb") as fh:
        fh.write(encode(model))


def load_model(path) -> TrainedModel:
    with opened(path, "rb") as fh:
        return decode(fh.read())
