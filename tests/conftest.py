import numpy as np
import pytest

from oncograde.core import RngStream
from oncograde.dataset import synth_generate
from oncograde.preprocess import PreprocessConfig, run_pipeline


def make_blobs(seed=1, n_per_class=30, spread=0.25):
    """Three well-separated 2-D blobs; linearly separable by construction."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 4.0]])
    X = np.vstack([c + spread * rng.normal(size=(n_per_class, 2)) for c in centers])
    y = np.repeat(np.arange(3), n_per_class)
    return X, y


@pytest.fixture(scope="session")
def blobs3():
    return make_blobs()


@pytest.fixture(scope="session")
def small_prepared():
    """Prepared pipeline output on a small synthetic dataset (fast model food)."""
    d = synth_generate(150, 7, (0.3, 0.3, 0.4))
    return run_pipeline(d, PreprocessConfig(), RngStream(7).derive(1))


@pytest.fixture()
def stream():
    return RngStream(123)
