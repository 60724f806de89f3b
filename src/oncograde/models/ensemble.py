"""Bagging and voting ensembles over the base model families.

Every member gets its own derived sub-stream, so ensembles come out
bit-identical whether members train sequentially or across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import RngStream, json_value, parallel_map
from ..dataset import N_CLASSES
from .base import Hyperparams, model_from_doc, model_to_doc, proba_to_labels
from .tree import train_tree


def _members(params: dict) -> list:
    """An ensemble document's member models; an empty ensemble cannot predict."""
    if not (members := json_value(list, params["members"], "ensemble.members")):
        raise ValueError("an ensemble needs at least one member")
    return [model_from_doc(d) for d in members]


@dataclass
class BaggingModel:
    family = "bagging"
    members: list
    base_spec: dict

    def predict_proba(self, X) -> np.ndarray:
        return np.mean([m.predict_proba(X) for m in self.members], axis=0)

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

    def to_params(self) -> dict:
        return {
            "base_spec": self.base_spec,
            "members": [model_to_doc(m) for m in self.members],
        }

    @classmethod
    def from_params(cls, params: dict) -> "BaggingModel":
        return cls(members=_members(params), base_spec=params["base_spec"])


def train_bagging(X, y, base_spec: dict, n_estimators: int, stream: RngStream) -> BaggingModel:
    """Train ``n_estimators`` trees on bootstrap resamples.

    Each member trains on the distinct rows of its resample, weighted by
    how often each was drawn, which grows the same tree as training on the
    resample itself. A resample that collapses to a single class yields a
    one-leaf member, as ``train_tree`` grows for any pure node.
    """
    Hyperparams(n_estimators=n_estimators)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]

    def train_member(member_stream: RngStream):
        rows, counts = np.unique(member_stream.randints(n, n), return_counts=True)
        return train_tree(
            X[rows],
            y[rows],
            sample_weights=counts,
            max_depth=base_spec["max_depth"],
            min_child_weight=base_spec["min_child_weight"],
        )

    members = parallel_map(train_member, [stream.derive(i) for i in range(n_estimators)])
    return BaggingModel(members=members, base_spec=dict(base_spec))


@dataclass
class VotingModel:
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

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

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
