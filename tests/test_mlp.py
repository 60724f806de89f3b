import numpy as np
import pytest

from oncograde.core import RngStream
from oncograde.models.base import Hyperparams
from oncograde.models.mlp import forward, cross_entropy_grads, init_params, train_mlp
from tests.conftest import make_blobs


def mean_cross_entropy(weights, biases, X, y) -> float:
    """Reference loss: mean negative log-softmax of the true class's logit."""
    logits = forward(weights, biases, X)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(y)), y].mean())


def numerical_grads(weights, biases, X, y, eps=1e-5):
    """Central finite differences over every parameter."""
    num_w = [np.zeros_like(w) for w in weights]
    num_b = [np.zeros_like(b) for b in biases]
    for target, numeric in ((weights, num_w), (biases, num_b)):
        for layer, arr in enumerate(target):
            flat = arr.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi = mean_cross_entropy(weights, biases, X, y)
                flat[idx] = orig - eps
                lo = mean_cross_entropy(weights, biases, X, y)
                flat[idx] = orig
                numeric[layer].ravel()[idx] = (hi - lo) / (2 * eps)
    return num_w, num_b


def max_relative_grad_error(sizes, n_samples, seed):
    stream = RngStream(seed)
    weights, biases = init_params(sizes, stream)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, sizes[0]))
    y = rng.integers(0, 3, n_samples)
    gw, gb = cross_entropy_grads(weights, biases, X, y)
    nw, nb = numerical_grads(weights, biases, X, y)
    worst = 0.0
    for a, n in zip(gw + gb, nw + nb):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestGradients:
    def test_small_network_matches_finite_differences(self):
        assert max_relative_grad_error([4, 2, 3], 8, seed=1) < 1e-4

    def test_two_hidden_layers(self):
        assert max_relative_grad_error([5, 4, 3, 3], 6, seed=2) < 1e-4


class TestTrainMlp:
    def test_learns_separable_blobs(self):
        X, y = make_blobs(seed=1, n_per_class=30)
        hp = Hyperparams(epochs=200, hidden_layers=[16], learning_rate=0.05)
        model = train_mlp(X, y, X, y, hp, RngStream(1))
        assert (model.predict(X) == y).mean() >= 0.95
        assert len(model.history) <= 200

    def test_divergence_error_names_learning_rate(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, 60)
        with pytest.raises(ValueError, match="1000"):
            train_mlp(X, y, X, y, Hyperparams(learning_rate=1000.0, epochs=50), RngStream(1))

    def test_single_class_errors(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="single class"):
            train_mlp(X, np.ones(5, dtype=int), X, np.ones(5, dtype=int), Hyperparams(), RngStream(0))

    def test_loss_non_increasing_early_epochs(self):
        X, y = make_blobs(seed=3, n_per_class=15, spread=0.6)
        hp = Hyperparams(learning_rate=1e-3, epochs=5)
        model = train_mlp(X, y, X, y, hp, RngStream(2))
        losses = model.history.train_loss
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_history_lengths_consistent(self):
        X, y = make_blobs(seed=4, n_per_class=10)
        hp = Hyperparams(epochs=30, hidden_layers=[8])
        model = train_mlp(X, y, X, y, hp, RngStream(3))
        h = model.history
        assert len(h.train_loss) == len(h.val_loss) == len(h.train_accuracy) == len(h.val_accuracy)

    def test_early_stopping_restores_best_epoch(self):
        X, y = make_blobs(seed=5, n_per_class=12, spread=1.5)
        rng = np.random.default_rng(0)
        Xval = X + 0.5 * rng.normal(size=X.shape)
        hp = Hyperparams(epochs=200, hidden_layers=[16], learning_rate=0.1)
        model = train_mlp(X, y, Xval, y, hp, RngStream(4))
        best = int(np.argmin(model.history.val_loss))
        restored = mean_cross_entropy(model.weights, model.biases, Xval, y)
        assert restored == pytest.approx(model.history.val_loss[best], abs=1e-9)

    def test_deterministic(self):
        X, y = make_blobs(seed=6, n_per_class=10)
        hp = Hyperparams(epochs=20, hidden_layers=[8])
        a = train_mlp(X, y, X, y, hp, RngStream(5))
        b = train_mlp(X, y, X, y, hp, RngStream(5))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_layers_are_views_of_one_parameter_vector(self):
        """Every weight and bias is a C-contiguous view of one float64
        vector, weights first, so the vector is the layers joined in order."""
        X, y = make_blobs(seed=8, n_per_class=10)
        model = train_mlp(X, y, X, y, Hyperparams(epochs=5, hidden_layers=[8, 4]), RngStream(7))
        layers = model.weights + model.biases
        params = layers[0].base
        assert params.ndim == 1 and params.dtype == np.float64
        assert all(a.base is params and a.flags.c_contiguous for a in layers)
        assert np.array_equal(params, np.concatenate(layers, axis=None))


@pytest.fixture(scope="module")
def model():
    X, y = make_blobs(seed=7, n_per_class=10)
    return train_mlp(X, y, X, y, Hyperparams(epochs=15, hidden_layers=[8]), RngStream(6))


class TestMlpPredict:

    def test_proba_rows_sum_to_one(self, model):
        X = np.random.default_rng(1).normal(size=(7, 2))
        P = model.predict_proba(X)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert (P >= 0).all()

    def test_predict_matches_argmax(self, model):
        X = np.random.default_rng(2).normal(size=(7, 2))
        assert np.array_equal(model.predict(X), np.argmax(model.predict_proba(X), axis=1))

    def test_empty_input(self, model):
        assert model.predict(np.zeros((0, 2))).shape == (0,)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.predict(np.zeros((3, 9)))
