"""Bagging and voting ensembles over the base model families.

Every member gets its own derived sub-stream, so ensembles come out
bit-identical whether members train sequentially or across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import RngStream, as_matrix, parallel_map
from ..dataset import N_CLASSES
from .base import model_from_doc, model_to_doc, proba_to_labels
from .tree import TreeModel, train_tree


@dataclass
class BaggingModel:
    family = "bagging"
    members: list
    base_spec: dict

    @property
    def n_features(self) -> int:
        return self.members[0].n_features

    def predict_proba(self, X) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[0] == 0:
            return np.empty((0, N_CLASSES))
        probas = [m.predict_proba(X) for m in self.members]
        return np.mean(probas, axis=0)

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

    def to_params(self) -> dict:
        return {
            "base_spec": self.base_spec,
            "members": [model_to_doc(m) for m in self.members],
        }

    @classmethod
    def from_params(cls, params: dict) -> "BaggingModel":
        return cls(
            members=[model_from_doc(d) for d in params["members"]],
            base_spec=params["base_spec"],
        )


def _constant_leaf(X, label: int) -> TreeModel:
    hist = [0.0] * N_CLASSES
    hist[label] = float(X.shape[0])
    return TreeModel(nodes=[{"leaf": True, "hist": hist}], n_features=X.shape[1])


def train_bagging(X, y, base_spec: dict, n_estimators: int, stream: RngStream) -> BaggingModel:
    """Train ``n_estimators`` trees on bootstrap resamples.

    A resample that collapses to a single class yields a constant-class
    member rather than an error.
    """
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]

    def train_member(member_stream: RngStream):
        rows = member_stream.randints(n, n)
        Xb, yb = X[rows], y[rows]
        labels = np.unique(yb)
        if labels.size == 1:
            return _constant_leaf(Xb, int(labels[0]))
        return train_tree(
            Xb, yb, max_depth=base_spec["max_depth"], min_child_weight=base_spec["min_child_weight"]
        )

    members = parallel_map(train_member, [stream.derive(i) for i in range(n_estimators)])
    return BaggingModel(members=members, base_spec=dict(base_spec))


@dataclass
class VotingModel:
    family = "voting"
    members: list
    mode: str

    @property
    def n_features(self) -> int:
        return self.members[0].n_features

    def predict_proba(self, X) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[0] == 0:
            return np.empty((0, N_CLASSES))
        if self.mode == "soft":
            return np.mean([m.predict_proba(X) for m in self.members], axis=0)
        # hard: vote fractions; argmax then matches majority with low-index ties
        votes = np.zeros((X.shape[0], N_CLASSES))
        for m in self.members:
            pred = m.predict(X)
            votes[np.arange(X.shape[0]), pred] += 1.0
        return votes / len(self.members)

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

    def to_params(self) -> dict:
        return {"mode": self.mode, "members": [model_to_doc(m) for m in self.members]}

    @classmethod
    def from_params(cls, params: dict) -> "VotingModel":
        return cls(members=[model_from_doc(d) for d in params["members"]], mode=params["mode"])


def train_voting(member_specs: list, mode: str, X, y, stream: RngStream, Xval=None, yval=None) -> VotingModel:
    """Train each member spec independently on the same data."""
    if not member_specs:
        raise ValueError("voting requires at least one member")
    if mode not in ("hard", "soft"):
        raise ValueError("voting mode must be 'hard' or 'soft'")

    def train_member(args):
        index, spec = args
        return spec.train(X, y, stream.derive(index), Xval, yval)

    members = parallel_map(train_member, list(enumerate(member_specs)))
    return VotingModel(members=members, mode=mode)
