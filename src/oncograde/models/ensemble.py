"""Bagging and voting ensembles over the base model families.

Every member gets its own derived sub-stream, so ensembles come out
bit-identical whether members train sequentially or across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import RngStream, json_value, parallel_map
from ..dataset import N_CLASSES
from .base import Hyperparams, TrainedModel, model_from_doc, model_to_doc
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


def train_bagging(X, y, base_spec: dict, n_estimators: int, stream: RngStream) -> BaggingModel:
    """Train ``n_estimators`` trees on bootstrap resamples.

    Each member trains on the distinct rows of its resample, weighted by
    how often each was drawn, which grows the same tree as training on the
    resample itself. A resample that collapses to a single class yields a
    one-leaf member, as ``train_trees`` grows for any pure node.

    The members are grown in the groups ``block_groups`` sizes, each group
    together.
    """
    Hyperparams(n_estimators=n_estimators)
    n, m = X.shape
    resamples = [np.unique(stream.derive(i).randints(n, n), return_counts=True) for i in range(n_estimators)]

    def train_group(group: list) -> list:
        return train_trees(X, y, group, base_spec["max_depth"], base_spec["min_child_weight"])

    members = [tree for trees in parallel_map(train_group, block_groups(resamples, m)) for tree in trees]
    return BaggingModel(members=members)


@dataclass
class VotingModel(TrainedModel):
    family = "voting"
    members: list
    mode: str

    def predict_proba(self, X) -> np.ndarray:
        if self.mode == "soft":
            return np.mean([m.predict_proba(X) for m in self.members], axis=0)
        # hard: vote fractions; argmax then matches majority with low-index ties
        votes = np.zeros((X.shape[0], N_CLASSES))
        for m in self.members:
            pred = m.predict(X)
            votes[np.arange(X.shape[0]), pred] += 1.0
        return votes / len(self.members)

    def to_params(self) -> dict:
        return {"mode": self.mode, "members": [model_to_doc(m) for m in self.members]}

    @classmethod
    def from_params(cls, params: dict) -> "VotingModel":
        return cls(mode=json_value(("hard", "soft"), params["mode"], "voting.mode"), members=_members(params))


def train_voting(member_specs: list, mode: str, X, y, stream: RngStream, Xval, yval) -> VotingModel:
    """Train each member spec independently on the same training and validation rows."""
    if not member_specs:
        raise ValueError("voting requires at least one member")
    Hyperparams(voting_mode=mode)

    def train_member(args):
        index, spec = args
        return spec.train(X, y, stream.derive(index), Xval, yval)

    members = parallel_map(train_member, list(enumerate(member_specs)))
    return VotingModel(members=members, mode=mode)
