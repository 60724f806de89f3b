from .base import (
    MODEL_NAMES,
    Hyperparams,
    KernelSpec,
    ModelSpec,
    kernel_matrix,
    model_from_doc,
    model_to_doc,
    resolve_gamma,
)
from .mlp import MlpModel, TrainHistory, train_mlp
from .svm import BinarySvm, SvmOvrModel, dual_objective, train_svm_binary, train_svm_ovr
from .tree import TreeModel, train_tree
from .ensemble import BaggingModel, VotingModel, train_bagging, train_voting

__all__ = [
    "MODEL_NAMES",
    "Hyperparams",
    "KernelSpec",
    "ModelSpec",
    "kernel_matrix",
    "resolve_gamma",
    "model_to_doc",
    "model_from_doc",
    "MlpModel",
    "TrainHistory",
    "train_mlp",
    "BinarySvm",
    "SvmOvrModel",
    "dual_objective",
    "train_svm_binary",
    "train_svm_ovr",
    "TreeModel",
    "train_tree",
    "BaggingModel",
    "VotingModel",
    "train_bagging",
    "train_voting",
]
