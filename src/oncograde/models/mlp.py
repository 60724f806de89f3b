"""Fully connected ReLU network with a softmax head, trained by
mini-batch gradient descent with momentum and validation-based early
stopping on one parameter vector, of which every weight and bias is a view.

Initialization is He-style (normal scaled by sqrt(2 / fan_in)) drawn from
the caller's stream; batch order is reshuffled from the same stream every
epoch, so training is fully deterministic given (data, hyperparams, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import RngStream, json_array, json_value, shuffle
from ..dataset import N_CLASSES
from .base import Hyperparams, TrainedModel, check_width, proba_to_labels, softmax

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
class MlpModel(TrainedModel):
    family = "mlp"
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    history: TrainHistory

    def predict_proba(self, X) -> np.ndarray:
        check_width(X, self.weights[0].shape[0])
        logits = forward(self.weights, self.biases, X)
        return softmax(logits)

    @classmethod
    def from_params(cls, params: dict) -> "MlpModel":
        """Read the ``params`` that ``model_to_doc`` writes, their numbers by the run config's rules."""
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


def _loss_and_accuracy(logits: np.ndarray, y) -> tuple[float, float]:
    """Mean cross-entropy and the accuracy of :meth:`MlpModel.predict`, from
    one softmax pass; the accuracy labels the softmax rows, as ``predict``
    does, since softmax can round two close logits to one value."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    log_p = shifted - np.log(total)
    loss = float(-log_p[np.arange(len(y)), y].mean())
    return loss, float((proba_to_labels(e / total) == y).mean())


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
    patience 20, restoring the best-epoch weights. The model's weights and
    biases are C-contiguous views of one float64 vector, in that order."""
    if np.unique(ytr).size < 2:
        raise ValueError("training set contains a single class")

    sizes = [Xtr.shape[1]] + list(hp.hidden_layers) + [N_CLASSES]
    weights, biases = init_params(sizes, stream)
    params = np.concatenate(weights + biases, axis=None)
    starts = np.cumsum([0] + [a.size for a in weights + biases])
    views = [params[lo:hi].reshape(a.shape) for a, lo, hi in zip(weights + biases, starts, starts[1:])]
    weights, biases = views[: len(weights)], views[len(weights) :]
    velocity = np.zeros_like(params)

    history = TrainHistory()
    best_val = np.inf
    stale = 0
    n = Xtr.shape[0]

    for _epoch in range(hp.epochs):
        order = shuffle(range(n), stream)
        X_epoch, y_epoch = Xtr[order], ytr[order]  # gathered once; each batch is a view of its rows
        for start in range(0, n, hp.batch_size):
            stop = start + hp.batch_size
            gw, gb = cross_entropy_grads(weights, biases, X_epoch[start:stop], y_epoch[start:stop])
            velocity *= _MOMENTUM
            velocity -= hp.learning_rate * np.concatenate(gw + gb, axis=None)
            params += velocity

        # one forward pass per split gives both its loss and its accuracy
        train_loss, train_accuracy = _loss_and_accuracy(forward(weights, biases, Xtr), ytr)
        val_loss, val_accuracy = _loss_and_accuracy(forward(weights, biases, Xval), yval)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)) or train_loss > _LOSS_BLOWUP:
            raise ValueError(
                f"training diverged (exploding loss) at learning_rate={hp.learning_rate}"
            )
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.train_accuracy.append(train_accuracy)
        history.val_accuracy.append(val_accuracy)

        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= _PATIENCE:
                break

    params[:] = best
    return MlpModel(weights=weights, biases=biases, history=history)
