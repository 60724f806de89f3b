"""Shared model machinery: hyperparameters, kernels, the model-name
registry used by the CLI and evaluation harness, and JSON serialization.

Every trained model exposes ``predict_proba(X) -> (n, 3)`` rows that are
non-negative and sum to 1, and ``predict(X)`` equal to the row-wise
argmax with ties resolved to the lowest class index.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core import RngStream, json_value

MODEL_NAMES = ("dnn", "voting", "bagging", "svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid")

KERNEL_KINDS = ("linear", "rbf", "polynomial", "sigmoid")

_SVM_KERNEL_OF = {
    "svm_rbf": "rbf",
    "svm_linear": "linear",
    "svm_poly": "polynomial",
    "svm_sigmoid": "sigmoid",
}

MODEL_DOC_VERSION = 1


@dataclass
class Hyperparams:
    learning_rate: float = 0.01
    min_child_weight: float = 1.0
    epochs: int = 200
    batch_size: int = 32
    hidden_layers: list[int] = field(default_factory=lambda: [32, 16])
    C: float = 1.0
    gamma: float | str = "scale"
    degree: int = 3
    coef0: float = 0.0
    max_depth: int = 8
    n_estimators: int = 25
    voting_mode: str = "hard"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.min_child_weight <= 0:
            raise ValueError("min_child_weight must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers must be a non-empty list of positive counts")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.gamma != "scale" and (isinstance(self.gamma, str) or self.gamma <= 0):
            raise ValueError(f"gamma must be positive or 'scale', got {self.gamma!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.voting_mode not in ("hard", "soft"):
            raise ValueError(f"voting_mode must be 'hard' or 'soft', got {self.voting_mode!r}")


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    gamma: float = 1.0
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.kind != "linear" and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.degree < 1:
            raise ValueError(f"kernel degree must be >= 1, got {self.degree}")


def resolve_gamma(gamma: float | str, X) -> float:
    """'scale' resolves to 1 / (n_features * mean population feature variance)."""
    if gamma != "scale":
        return float(gamma)
    var = float(((X - X.mean(axis=0)) ** 2).mean(axis=0).mean())
    if var == 0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Kernel values for every row pair of A (n x d) and B (m x d)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    K = A @ B.T
    if spec.kind == "linear":
        return K
    # each step below writes into K, so a call holds at most two n x m arrays
    if spec.kind == "rbf":
        # exp(-gamma * max(|a|^2 + |b|^2 - 2ab, 0))
        K *= 2
        np.subtract((A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :], K, out=K)
        np.maximum(K, 0.0, out=K)
        K *= -spec.gamma
        return np.exp(K, out=K)
    K *= spec.gamma
    K += spec.coef0
    if spec.kind == "polynomial":
        K **= spec.degree
        return K
    return np.tanh(K, out=K)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum so exp cannot overflow."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def proba_to_labels(P: np.ndarray) -> np.ndarray:
    """Row-wise argmax; np.argmax already resolves ties to the lowest index."""
    P = np.asarray(P, dtype=float)
    return np.argmax(P, axis=1).astype(np.int64)


@dataclass(frozen=True)
class ModelSpec:
    """A trainable configuration: one of the seven benchmark model names."""

    name: str = "dnn"
    hyperparams: Hyperparams = field(default_factory=Hyperparams)

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(
                f"unknown model name {self.name!r}; valid names: {', '.join(MODEL_NAMES)}"
            )

    def with_hyperparams(self, **kw) -> "ModelSpec":
        return ModelSpec(self.name, dataclasses.replace(self.hyperparams, **kw))

    def train(self, X, y, stream: RngStream, Xval, yval):
        """Train a fresh model on ``X, y``. A dnn, alone or in voting,
        early-stops on ``Xval, yval``; no other model reads them."""
        from .ensemble import train_bagging, train_voting
        from .mlp import train_mlp
        from .svm import train_svm_ovr

        hp = self.hyperparams
        if self.name == "dnn":
            return train_mlp(X, y, Xval, yval, hp, stream)
        if self.name in _SVM_KERNEL_OF:
            return train_svm_ovr(X, y, svm_kernel_for(self.name, hp, X), C=hp.C)
        if self.name == "bagging":
            base_spec = {"max_depth": hp.max_depth, "min_child_weight": hp.min_child_weight}
            return train_bagging(X, y, base_spec, hp.n_estimators, stream)
        members = [ModelSpec("dnn", hp), ModelSpec("svm_rbf", hp), ModelSpec("bagging", hp)]
        return train_voting(members, hp.voting_mode, X, y, stream, Xval, yval)


def svm_kernel_for(name: str, hp: Hyperparams, X) -> KernelSpec:
    kind = _SVM_KERNEL_OF[name]
    gamma = resolve_gamma(hp.gamma, X) if kind != "linear" else 1.0
    return KernelSpec(kind=kind, gamma=gamma, degree=hp.degree, coef0=hp.coef0)


# --- serialization ----------------------------------------------------------


def model_to_doc(model) -> dict:
    return {"version": MODEL_DOC_VERSION, "family": model.family, "params": model.to_params()}


def model_from_doc(doc: dict):
    from .ensemble import BaggingModel, VotingModel
    from .mlp import MlpModel
    from .svm import SvmOvrModel
    from .tree import TreeModel

    doc = json_value(dict, doc, "model")
    if json_value(int, doc["version"], "model.version") != MODEL_DOC_VERSION:
        raise ValueError(f"unsupported model document version: {doc['version']}")
    families = {
        "mlp": MlpModel,
        "svm_ovr": SvmOvrModel,
        "tree": TreeModel,
        "bagging": BaggingModel,
        "voting": VotingModel,
    }
    family = json_value(str, doc["family"], "model.family")
    if family not in families:
        raise ValueError(f"unknown model family: {family!r}")
    return families[family].from_params(json_value(dict, doc["params"], "model.params"))
