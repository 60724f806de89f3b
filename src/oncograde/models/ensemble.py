"""Bagging and voting ensembles over the base model families.

Every member gets its own derived sub-stream. Bagging maps its groups of
trees through ``parallel_map``; voting trains its three members (dnn,
svm_rbf, bagging) one after another. So either ensemble comes out
bit-identical at any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import RngStream, json_value, parallel_map
from ..dataset import N_CLASSES
from .base import VOTING_MEMBERS, Hyperparams, ModelSpec, TrainedModel, model_from_doc, model_to_doc
from .tree import block_groups, train_trees


def _members(params: dict) -> list:
    """An ensemble document's member models; an empty ensemble cannot predict."""
    if not (members := json_value(list, params["members"], "ensemble.members")):
        raise ValueError("an ensemble needs at least one member")
    return [model_from_doc(d) for d in members]


@dataclass
class BaggingModel(TrainedModel):
    family = "bagging"
    members: list

    def predict_proba(self, X) -> np.ndarray:
        return np.mean([m.predict_proba(X) for m in self.members], axis=0)

    def to_params(self) -> dict:
        return {"members": [model_to_doc(m) for m in self.members]}

    @classmethod
    def from_params(cls, params: dict) -> "BaggingModel":
        return cls(members=_members(params))


def train_bagging(X, y, hp: Hyperparams, stream: RngStream) -> BaggingModel:
    """Train ``hp.n_estimators`` trees of ``hp.max_depth`` and ``hp.min_child_weight`` on bootstrap resamples.

    Each member trains on the distinct rows of its resample, weighted by
    how often each was drawn, which grows the same tree as training on the
    resample itself. A resample that collapses to a single class yields a
    one-leaf member, as ``train_trees`` grows for any pure node.

    The members are grown in the groups ``block_groups`` sizes, each group
    together.
    """
    n, m = X.shape
    resamples = [np.unique(stream.derive(i).randints(n, n), return_counts=True) for i in range(hp.n_estimators)]

    def train_group(group: list) -> list:
        return train_trees(X, y, group, hp.max_depth, hp.min_child_weight)

    members = [tree for trees in parallel_map(train_group, block_groups(resamples, m)) for tree in trees]
    return BaggingModel(members=members)


@dataclass
class VotingModel(TrainedModel):
    family = "voting"
    members: list
    mode: str

    def predict_proba(self, X) -> np.ndarray:
        # hard: vote fractions, the mean of one-hot votes; argmax then matches majority with low-index ties
        votes = [m.predict_proba(X) if self.mode == "soft" else np.eye(N_CLASSES)[m.predict(X)] for m in self.members]
        return np.mean(votes, axis=0)

    def to_params(self) -> dict:
        return {"mode": self.mode, "members": [model_to_doc(m) for m in self.members]}

    @classmethod
    def from_params(cls, params: dict) -> "VotingModel":
        return cls(mode=json_value(("hard", "soft"), params["mode"], "voting.mode"), members=_members(params))


def train_voting(X, y, hp: Hyperparams, stream: RngStream, Xval, yval) -> VotingModel:
    """Train dnn, svm_rbf and bagging on the same training and validation rows, in that order,
    member ``i`` on ``stream.derive(i)``."""
    members = [ModelSpec(name, hp).train(X, y, stream.derive(i), Xval, yval) for i, name in enumerate(VOTING_MEMBERS)]
    return VotingModel(members=members, mode=hp.voting_mode)
