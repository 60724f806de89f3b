"""Shared model machinery: the trained-model contract, hyperparameters and the
fields each model reads, kernels, the model-name registry used by the CLI and
evaluation harness, and JSON serialization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core import RngStream, json_value

MODEL_NAMES = ("dnn", "voting", "bagging", "svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid")

# each kernel kind and the KernelSpec fields it reads; an unread field keeps its default
_KERNEL_READS = {
    "linear": (), "rbf": ("gamma",), "polynomial": ("gamma", "degree", "coef0"), "sigmoid": ("gamma", "coef0")
}
_SVM_KERNEL_OF = {"svm_rbf": "rbf", "svm_linear": "linear", "svm_poly": "polynomial", "svm_sigmoid": "sigmoid"}

VOTING_MEMBERS = ("dnn", "svm_rbf", "bagging")

# (row, column) cells of one rbf kernel block; bounds its outer-sum temporary
_BLOCK_CELLS = 1 << 16


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
        if isinstance(self.gamma, str) and self.gamma != "scale":
            raise ValueError(f"gamma must be positive or 'scale', got {self.gamma!r}")
        # KernelSpec owns the numeric kernel rules; a kind that reads gamma and degree applies both
        KernelSpec("polynomial", 1.0 if self.gamma == "scale" else self.gamma, self.degree)
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.voting_mode not in ("hard", "soft"):
            raise ValueError(f"voting_mode must be 'hard' or 'soft', got {self.voting_mode!r}")


# the Hyperparams fields each model's training reads, in field order: the only keys its run config may set
HYPERPARAMS_READ = {name: ("C", *_KERNEL_READS[kind]) for name, kind in _SVM_KERNEL_OF.items()} | {
    "dnn": ("learning_rate", "epochs", "batch_size", "hidden_layers"),
    "bagging": ("min_child_weight", "max_depth", "n_estimators"),
}
_voting_reads = {"voting_mode"}.union(*(HYPERPARAMS_READ[name] for name in VOTING_MEMBERS))
HYPERPARAMS_READ["voting"] = tuple(f.name for f in dataclasses.fields(Hyperparams) if f.name in _voting_reads)


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    gamma: float = 1.0
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in _KERNEL_READS:
            raise ValueError(f"kernel kind must be one of {tuple(_KERNEL_READS)}, got {self.kind!r}")
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
    check_width(A, B.shape[1])
    K = A @ B.T
    if spec.kind == "linear":
        return K
    # each step below writes into K, so a call holds one n x m array
    if spec.kind == "rbf":
        # exp(-gamma * max(|a|^2 + |b|^2 - 2ab, 0)), a block of rows at a time
        a2, b2 = (A**2).sum(axis=1)[:, None], (B**2).sum(axis=1)[None, :]
        step = max(1, _BLOCK_CELLS // K.shape[1])
        for lo in range(0, K.shape[0], step):
            block = K[lo : lo + step]
            block *= 2
            np.subtract(a2[lo : lo + step] + b2, block, out=block)
            np.maximum(block, 0.0, out=block)
            block *= -spec.gamma
            np.exp(block, out=block)
        return K
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
    return np.argmax(P, axis=1).astype(np.int64)


def check_width(X, n_features: int) -> None:
    """Refuse rows that are not ``n_features`` wide, the width the model was trained on."""
    if X.shape[1] != n_features:
        raise ValueError(f"dimension mismatch: model expects {n_features} features, got {X.shape[1]}")


class TrainedModel:
    """What every trained model exposes: ``predict_proba(X) -> (n, 3)`` rows
    that are non-negative and sum to 1, ``predict(X)`` their row-wise argmax
    with ties resolved to the lowest class index, and ``from_params``, the
    reader of the ``params`` that :func:`model_to_doc` writes under its
    ``family``."""

    family: str

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))


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
            return train_bagging(X, y, hp, stream)
        return train_voting(X, y, hp, stream, Xval, yval)


def svm_kernel_for(name: str, hp: Hyperparams, X) -> KernelSpec:
    """The kernel of the svm_* model ``name``, taking from ``hp`` only the fields its kind reads."""
    kind = _SVM_KERNEL_OF[name]
    read = {key: resolve_gamma(hp.gamma, X) if key == "gamma" else getattr(hp, key) for key in _KERNEL_READS[kind]}
    return KernelSpec(kind, **read)


# --- serialization ----------------------------------------------------------


def model_to_doc(model) -> dict:
    """Every model's document: its ``family`` and, as ``params``, its dataclass fields in field order,
    an array as its ``tolist()``, a member model as its own document and a list entry by entry."""

    def value(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, TrainedModel):
            return model_to_doc(v)
        if isinstance(v, list):
            return [value(item) for item in v]
        return dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v  # a KernelSpec or TrainHistory

    params = {f.name: value(getattr(model, f.name)) for f in dataclasses.fields(model)}
    return {"family": model.family, "params": params}


def model_from_doc(doc: dict):
    from .ensemble import BaggingModel, VotingModel
    from .mlp import MlpModel
    from .svm import SvmOvrModel
    from .tree import TreeModel

    doc = json_value(dict, doc, "model")
    families = {cls.family: cls for cls in (MlpModel, SvmOvrModel, TreeModel, BaggingModel, VotingModel)}
    family = json_value(str, doc["family"], "model.family")
    if family not in families:
        raise ValueError(f"unknown model family: {family!r}")
    return families[family].from_params(json_value(dict, doc["params"], "model.params"))
