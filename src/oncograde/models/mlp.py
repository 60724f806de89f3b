"""Fully connected ReLU network with a softmax head, trained by
mini-batch gradient descent with momentum and validation-based early
stopping.

Initialization is He-style (normal scaled by sqrt(2 / fan_in)) drawn from
the caller's stream; batch order is reshuffled from the same stream every
epoch, so training is fully deterministic given (data, hyperparams, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core import RngStream, json_array, json_value, shuffle
from ..dataset import N_CLASSES
from .base import Hyperparams, proba_to_labels, softmax

_MOMENTUM = 0.9
_PATIENCE = 20
# mean cross-entropy over 3 classes sits near ln(3) at init; anything this
# large means the optimizer is oscillating out of control
_LOSS_BLOWUP = 50.0


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


@dataclass
class MlpModel:
    family = "mlp"
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    history: TrainHistory

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def predict_proba(self, X) -> np.ndarray:
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"dimension mismatch: model expects {self.n_features} features, got {X.shape[1]}"
            )
        logits = forward(self.weights, self.biases, X)
        return softmax(logits)

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

    def to_params(self) -> dict:
        return {
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "history": dataclasses.asdict(self.history),
        }

    @classmethod
    def from_params(cls, params: dict) -> "MlpModel":
        """Read ``to_params``'s document, its numbers by the run config's rules."""
        weights, biases = (
            [json_array(float, a, f"mlp {key}[{k}][{{0}}] must hold finite numbers") for k, a in enumerate(layers)]
            for key in ("weights", "biases")
            for layers in [json_value(list, params[key], f"mlp.{key}")]
        )
        if not weights or len(biases) != len(weights):
            raise ValueError(f"mlp needs 1 or more layers, got {len(weights)} weights and {len(biases)} biases")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or (k and w.shape[0] != weights[k - 1].shape[1]) or b.shape != w.shape[1:]:
                raise ValueError(f"mlp layer {k}: weights {w.shape} and biases {b.shape} do not chain")
        if weights[-1].shape[1] != N_CLASSES:
            raise ValueError(f"mlp output layer is {weights[-1].shape[1]} wide, not {N_CLASSES}")
        return cls(weights, biases, json_value(TrainHistory, params["history"], "mlp.history"))


def init_params(layer_sizes: list[int], stream: RngStream):
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(scale * stream.normals(fan_in * fan_out).reshape(fan_in, fan_out))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _layer_outputs(weights, biases, X) -> list[np.ndarray]:
    """``X``, each hidden layer's ReLU output, then the logits."""
    outputs = [X]
    for w, b in zip(weights[:-1], biases[:-1]):
        outputs.append(np.maximum(outputs[-1] @ w + b, 0.0))
    outputs.append(outputs[-1] @ weights[-1] + biases[-1])
    return outputs


def forward(weights, biases, X) -> np.ndarray:
    return _layer_outputs(weights, biases, X)[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _logits_cross_entropy(logits: np.ndarray, y) -> float:
    logp = _log_softmax(logits)
    return float(-logp[np.arange(len(y)), y].mean())


def _logits_accuracy(logits: np.ndarray, y) -> float:
    """Accuracy of :meth:`MlpModel.predict`, which labels softmax rows."""
    return float((proba_to_labels(softmax(logits)) == y).mean())


def cross_entropy_grads(weights, biases, X, y):
    """Gradients of the mean cross-entropy w.r.t. every weight and bias."""
    *activations, logits = _layer_outputs(weights, biases, X)
    n = X.shape[0]
    delta = softmax(logits)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0)
    return grads_w, grads_b


def train_mlp(Xtr, ytr, Xval, yval, hp: Hyperparams, stream: RngStream) -> MlpModel:
    """Train with momentum SGD; early stopping on validation loss with
    patience 20, restoring the best-epoch weights."""
    ytr = np.asarray(ytr, dtype=np.int64)
    yval = np.asarray(yval, dtype=np.int64)
    if np.unique(ytr).size < 2:
        raise ValueError("training set contains a single class")

    sizes = [Xtr.shape[1]] + list(hp.hidden_layers) + [N_CLASSES]
    weights, biases = init_params(sizes, stream)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    history = TrainHistory()
    best_val = np.inf
    best_snapshot = None
    stale = 0
    n = Xtr.shape[0]

    for _epoch in range(hp.epochs):
        order = shuffle(range(n), stream)
        for start in range(0, n, hp.batch_size):
            batch = order[start : start + hp.batch_size]
            gw, gb = cross_entropy_grads(weights, biases, Xtr[batch], ytr[batch])
            for layer in range(len(weights)):
                vel_w[layer] = _MOMENTUM * vel_w[layer] - hp.learning_rate * gw[layer]
                vel_b[layer] = _MOMENTUM * vel_b[layer] - hp.learning_rate * gb[layer]
                weights[layer] = weights[layer] + vel_w[layer]
                biases[layer] = biases[layer] + vel_b[layer]

        # one forward pass per split gives both its loss and its accuracy
        logits_tr = forward(weights, biases, Xtr)
        logits_val = forward(weights, biases, Xval)
        train_loss = _logits_cross_entropy(logits_tr, ytr)
        val_loss = _logits_cross_entropy(logits_val, yval)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)) or train_loss > _LOSS_BLOWUP:
            raise ValueError(
                f"training diverged (exploding loss) at learning_rate={hp.learning_rate}"
            )
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.train_accuracy.append(_logits_accuracy(logits_tr, ytr))
        history.val_accuracy.append(_logits_accuracy(logits_val, yval))

        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
            stale = 0
        else:
            stale += 1
            if stale >= _PATIENCE:
                break

    weights, biases = best_snapshot
    return MlpModel(weights=weights, biases=biases, history=history)
