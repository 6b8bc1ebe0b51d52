from .base import ModelKind, TrainedModel
from .bench import LatencyStats, bench_inference
from .codec import decode, encode, load_model, save_model, serialized_size
from .forest import RandomForest, train_rf
from .knn import KnnRegressor, train_knn
from .mlp import MlpRegressor, MlpTrainingConfig, train_mlp
from .search import SearchResult, random_search, sample_hyperparams
from .tree import DecisionTree, train_dt

__all__ = [
    "ModelKind",
    "TrainedModel",
    "LatencyStats",
    "bench_inference",
    "decode",
    "encode",
    "load_model",
    "save_model",
    "serialized_size",
    "RandomForest",
    "train_rf",
    "KnnRegressor",
    "train_knn",
    "MlpRegressor",
    "MlpTrainingConfig",
    "train_mlp",
    "SearchResult",
    "random_search",
    "sample_hyperparams",
    "DecisionTree",
    "train_dt",
]
